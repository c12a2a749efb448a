"""The benchmark's workloads: their CLI invocations, and the checks on their output.

Three workloads, each one fresh client process per repetition:

* ``exact``   -- ``count --max 5000`` then ``rho --max-height 80``: only the
  exact-integer layers (``counting``, ``rho``) work; the kernel is idle.
* ``compare`` -- ``compare`` at six heights up to 3000 with 25 zeros: the
  Γ/ζ/ζ′ kernel does most of the work (Newton refinement on the critical
  line, residue coefficients off it), ``count_series`` the rest.
* ``logf``    -- ``logf-check`` at τ = 0.014 and 0.01 with 3 zeros: the
  log f direct sum does most of the work; it is the only caller of it.

The seed draws only the five lower ``compare`` heights (log-uniform in
[10, 3000], distinct); 3000 is always included, so the amount of work is
the same for every seed.

Every output is checked against references that do not use the program:
frozen SHA-256 digests and the published values in ``tests/golden.py`` for
the exact integers, and values computed with mpmath alone for the floating
columns. A floating value must equal the reference rounded to the printed
15 significant digits, to within half a unit in the last place.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
import random
import runpy
from pathlib import Path

import mpmath as mp

NAMES = ("exact", "compare", "logf")

BITS = 192
COUNT_MAX = 5000
RHO_MAX = 80
COMPARE_MIN, COMPARE_MAX, COMPARE_HEIGHTS = 10, 3000, 6
COMPARE_ZEROS = 25
LOGF_TAUS = ("0.014", "0.01")
LOGF_ZEROS = 3

#: SHA-256 of the stdout of ``count --max 5000`` and ``rho --max-height 80``.
COUNT_SHA256 = "19a7917b9b87c66a8109d8a3e6405a0c53cd841e578d5546b0bc3e85df895740"
RHO_SHA256 = "e2da3263606f31eb170787e7b2e9ecc1c675ab9fb5fc9414b84d598548131126"
#: SHA-256 of ``count --max 3000`` stdout, which the reference series below must reproduce.
COUNT_3000_SHA256 = "dd9032d82ba9eb381c9d9a5c2167dd4b891ae8cedc50729eb2896c91e91b62d7"

#: Precision of the mpmath reference; the CLI works at BITS plus guard bits.
REF_BITS = 288
PRINTED_DIGITS = 15


class BadReference(RuntimeError):
    """The benchmark's own reference is inconsistent; no run can be judged."""


def compare_heights(seed: int) -> list[int]:
    """Six distinct heights: five drawn log-uniformly in [10, 3000] from the seed, and 3000."""
    rng = random.Random(seed)
    heights = {COMPARE_MAX}
    while len(heights) < COMPARE_HEIGHTS:
        heights.add(round(math.exp(rng.uniform(math.log(COMPARE_MIN), math.log(COMPARE_MAX)))))
    return sorted(heights)


def invocations(name: str, seed: int) -> list[list[str]]:
    """The argv lists one repetition of a workload passes to ``npcount.cli.main``."""
    if name == "exact":
        return [["count", "--max", str(COUNT_MAX)], ["rho", "--max-height", str(RHO_MAX)]]
    if name == "compare":
        argv = ["compare"]
        for n in compare_heights(seed):
            argv += ["-n", str(n)]
        return [argv + ["--k-zeros", str(COMPARE_ZEROS), "--bits", str(BITS)]]
    if name == "logf":
        argv = ["logf-check"]
        for tau in LOGF_TAUS:
            argv += ["--tau", tau]
        return [argv + ["--k-zeros", str(LOGF_ZEROS), "--bits", str(BITS)]]
    raise ValueError(f"unknown workload {name!r}")


def zero_count(name: str) -> int:
    """Zeros the workload's estimates sum over (0 when it has none)."""
    return {"exact": 0, "compare": COMPARE_ZEROS, "logf": LOGF_ZEROS}[name]


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def _totients(limit: int) -> list[int]:
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


def _count_text(values) -> str:
    return "n,count\n" + "".join(f"{n},{v}\n" for n, v in enumerate(values))


def reference_counts(limit: int) -> list[int]:
    """a(0..limit) for slopes in [0, 1), from prod_m (1 - x^m)^(-phi(m)) by its log-derivative."""
    phi = _totients(limit)
    b = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for k in range(d, limit + 1, d):
            b[k] += d * phi[d]
    a = [1]
    for n in range(1, limit + 1):
        a.append(sum(b[k] * a[n - k] for k in range(1, n + 1)) // n)
    return a


def _zeros_and_coefficients(k: int) -> list[tuple]:
    """(γ, c_γ) for the first k zeros, where c_γ = Γ(γ) ζ(γ+1) ζ(γ-1) / ζ′(γ)."""
    out = []
    for j in range(1, k + 1):
        g = mp.zetazero(j)
        out.append((g, mp.gamma(g) * mp.zeta(g + 1) * mp.zeta(g - 1) / mp.zeta(g, derivative=1)))
    return out


def _constants():
    C = 2 * mp.zeta(3) / mp.zeta(2)
    K = mp.exp(-2 * mp.zeta(-1, derivative=1) - mp.log(2 * mp.pi) / 6)
    return C, K


def _oscillation(tau, zc) -> mp.mpf:
    logtau = mp.log(tau)
    return sum((2 * mp.re(c * mp.exp(-g * logtau)) for g, c in zc), mp.mpf(0))


def _logf_direct(tau) -> mp.mpf:
    """log f(e^-τ) = -Σ_m φ(m) log(1 - e^(-mτ)), summed until the tail is below 2^-REF_BITS."""
    x = mp.exp(-tau)
    limit = int((REF_BITS + 64) * math.log(2) / float(tau)) + 64
    phi = _totients(limit)
    total = mp.mpf(0)
    xm = x
    for m in range(1, limit + 1):
        total -= phi[m] * mp.log1p(-xm)
        xm *= x
        # tail over j > m: φ(j) (-log(1 - x^j)) <= j x^j / (1 - x), and
        # Σ_{j>m} j x^j = x^(m+1) ((m+1)/(1-x) + x/(1-x)^2)
        tail = xm * ((m + 1) / (1 - x) + x / (1 - x) ** 2) / (1 - x)
        if tail < mp.mpf(2) ** -REF_BITS * total:
            return total
    raise BadReference(f"log f direct sum at tau={tau} did not converge in {limit} terms")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


class CheckFailed(ValueError):
    """An output differs from its reference."""


def _table(text: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise CheckFailed(f"header {rows[:1]} is not {header}")
    if any(len(row) != len(header) for row in rows):
        raise CheckFailed(f"a row does not have {len(header)} fields")
    return rows[1:]


def _digest_matches(text: str, digest: str) -> bool:
    return hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def _check_float(column: str, text: str, ref) -> None:
    """text must be ref rounded to PRINTED_DIGITS significant digits (half an ulp of slack)."""
    with mp.workprec(REF_BITS):
        got = mp.mpf(text)
        unit = mp.mpf(10) ** (int(mp.floor(mp.log10(abs(ref)))) - PRINTED_DIGITS + 1)
        if not abs(got - ref) <= unit * (mp.mpf(1) / 2 + mp.mpf(10) ** -6):  # NaN fails too
            raise CheckFailed(f"{column}={text}, reference {mp.nstr(ref, PRINTED_DIGITS + 3)}")


class ExactCheck:
    """count and rho outputs: frozen digests, published values, Σ_d ρ(h,d) = a(h)."""

    def __init__(self, golden: dict) -> None:
        self.golden = golden

    def __call__(self, stdouts: list[str]) -> list[str | None]:
        count_error = rho_error = None
        counts = None
        try:
            counts = self._counts(stdouts[0])
        except ValueError as exc:  # CheckFailed, or text that does not parse
            count_error = f"count: {exc}"
        try:
            self._rho(stdouts[1], counts)
        except ValueError as exc:  # CheckFailed, or text that does not parse
            rho_error = f"rho: {exc}"
        return [count_error, rho_error]

    def _counts(self, text: str) -> list[int]:
        rows = _table(text, ["n", "count"])
        if [int(n) for n, _ in rows] != list(range(COUNT_MAX + 1)):
            raise CheckFailed(f"heights are not 0..{COUNT_MAX}")
        a = [int(v) for _, v in rows]
        g = self.golden
        if tuple(a[:11]) != g["COUNTS_0_TO_10"]:
            raise CheckFailed("a(0..10) differ from COUNTS_0_TO_10")
        if a[100] != g["COUNT_100"]:
            raise CheckFailed("a(100) differs from COUNT_100")
        digits = str(a[1000])
        if (digits[:10], len(digits) - 1) != g["COUNT_1000_LEAD"]:
            raise CheckFailed("a(1000) differs from COUNT_1000_LEAD")
        if not _digest_matches(text, COUNT_SHA256):
            raise CheckFailed("SHA-256 differs from the frozen digest")
        return a

    def _rho(self, text: str, counts: list[int] | None) -> None:
        rows = [[] for _ in range(RHO_MAX + 1)]
        for h, d, v in _table(text, ["h", "d", "rho"]):
            h, d = int(h), int(d)
            if not 0 <= h <= RHO_MAX or d != len(rows[h]):
                raise CheckFailed(f"entry ({h}, {d}) out of order")
            rows[h].append(int(v))
        if any(len(row) != h + 1 for h, row in enumerate(rows)):
            raise CheckFailed(f"triangle is not complete up to h={RHO_MAX}")
        if tuple(map(tuple, rows[:len(self.golden["RHO_ROWS"])])) != self.golden["RHO_ROWS"]:
            raise CheckFailed("rows differ from RHO_ROWS")
        if counts is not None:
            for h, row in enumerate(rows):
                if sum(row) != counts[h]:
                    raise CheckFailed(f"sum over d of rho({h}, d) != a({h})")
        if not _digest_matches(text, RHO_SHA256):
            raise CheckFailed("SHA-256 differs from the frozen digest")


class CompareCheck:
    """compare output against the saddle formula and zero sum evaluated with mpmath."""

    header = ["n", "log10_count", "log10_leading", "log10_estimate", "residual_log"]

    def __init__(self, heights: list[int]) -> None:
        series = reference_counts(max(heights))
        if not _digest_matches(_count_text(series), COUNT_3000_SHA256):
            raise BadReference("reference counts differ from the frozen digest")
        self.expected = {}
        with mp.workprec(REF_BITS):
            C, K = _constants()
            zc = _zeros_and_coefficients(COMPARE_ZEROS)
            ln10 = mp.log(10)
            for n in heights:
                log_exact = mp.log(mp.mpf(series[n]))
                log_main = (mp.log(C) / 9 + mp.log(K) - mp.log(6 * mp.pi) / 2
                            - mp.mpf(11) / 18 * mp.log(n)
                            + mp.mpf(3) / 2 * mp.cbrt(C) * mp.mpf(n) ** (mp.mpf(2) / 3))
                osc = _oscillation(mp.cbrt(C / n), zc)
                self.expected[n] = (log_exact / ln10, log_main / ln10,
                                    (log_main + osc) / ln10, log_exact - log_main)

    def __call__(self, stdouts: list[str]) -> list[str | None]:
        try:
            rows = _table(stdouts[0], self.header)
            if [int(r[0]) for r in rows] != sorted(self.expected):
                raise CheckFailed(f"heights {[r[0] for r in rows]} are not {sorted(self.expected)}")
            for n, *values in rows:
                for column, text, ref in zip(self.header[1:], values, self.expected[int(n)]):
                    _check_float(f"n={n} {column}", text, ref)
        except ValueError as exc:  # CheckFailed, or text that does not parse
            return [f"compare: {exc}"]
        return [None]


class LogfCheck:
    """logf-check output against -Σ φ(m) log1p(-e^(-mτ)) and the expansion, mpmath only."""

    header = ["tau", "direct", "expansion", "residual"]

    def __init__(self) -> None:
        self.expected = []
        with mp.workprec(REF_BITS):
            C, K = _constants()
            zc = _zeros_and_coefficients(LOGF_ZEROS)
            for text in LOGF_TAUS:
                tau = mp.mpf(text)
                direct = _logf_direct(tau)
                expansion = C / 2 / tau ** 2 + _oscillation(tau, zc) - mp.log(tau) / 6 + mp.log(K)
                self.expected.append((tau, direct, expansion, direct - expansion))

    def __call__(self, stdouts: list[str]) -> list[str | None]:
        try:
            rows = _table(stdouts[0], self.header)
            if len(rows) != len(self.expected):
                raise CheckFailed(f"{len(rows)} rows, expected {len(self.expected)}")
            for values, refs in zip(rows, self.expected):
                for column, text, ref in zip(self.header, values, refs):
                    _check_float(f"tau={values[0]} {column}", text, ref)
        except ValueError as exc:  # CheckFailed, or text that does not parse
            return [f"logf-check: {exc}"]
        return [None]


def checker(name: str, seed: int, root: Path):
    """A callable mapping one repetition's stdouts to one error (or None) per invocation."""
    if name == "exact":
        return ExactCheck(runpy.run_path(str(root / "tests" / "golden.py")))
    if name == "compare":
        return CompareCheck(compare_heights(seed))
    if name == "logf":
        return LogfCheck()
    raise ValueError(f"unknown workload {name!r}")
