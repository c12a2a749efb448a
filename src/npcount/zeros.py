"""Catalog of non-trivial zeta zeros on the critical line.

Zeros are stored by their positive imaginary part t only (the conjugate
at -t is implicit; downstream oscillation sums double real parts). A
bundled table ships the first 100 zeros to 75 significant digits (about
245 bits) as Newton seeds. A seed's digits choose only where
:func:`refine_zero` starts; every t it returns passed a check at the
working precision, so results never depend on the seed table's accuracy.

A table, bundled or a file, is read in two passes. The first checks every
line (a plain decimal t > 0, above the line before it, compared exactly as
decimals) and counts the lines; the second converts only the first k lines,
the zeros a run sums, to 256-bit seeds. So a line past the k-th costs a run
its check alone.

Refinement is Newton's method on a precision ladder (Brent & Zimmermann,
*Modern Computer Arithmetic*, 2010, §4.2): each step roughly doubles the
bits of t that are right, so each step evaluates ζ and ζ′ at only about
twice the bits the iterate already has, and only the last one at the
full working precision. A seed that already holds the working precision
takes no step: its one pass is the check.
"""
from __future__ import annotations

from pathlib import Path
from typing import Iterable

import mpmath as mp

from .precision import GUARD_BITS, MIN_BITS, PLAIN_DECIMAL, HPReal, PrecisionContext, read_real
from .record import Record
from .special import BORWEIN_MAX_HEIGHT, complex_zeta, zeta_with_derivative

#: After refinement, |ζ(1/2 + i t)| <= 2**(RESIDUAL_MARGIN - bits) plus the
#: |ζ′| |δ| that rounding t to bits leaves (see :func:`refine_zero`).
RESIDUAL_MARGIN = 24

MAX_NEWTON_ITERATIONS = 60

#: Bits a Newton step falls short of doubling (the first zeros lose 6-8),
#: and each rung's height above half the next: W, W/2 + 8, W/4 + 12, ...
LADDER_MARGIN = 8

#: A mantissa holds at most int()'s default 4300 digits, less the trailing
#: zeros of its fraction, which mpmath drops before it calls int().
_INT_DIGITS = 4300

#: Seeds are converted at 256 bits, which hold the bundled 75 digits
#: (245 to 249 bits); a seed is taken to hold at most this many bits.
_TABLE_PRECISION = PrecisionContext(256)


class ZeroFileError(ValueError):
    """Malformed zero table file."""


class NonConvergenceError(ArithmeticError):
    """Newton refinement failed to reach the target residual."""


class ZetaZero(Record):
    """A zero 1/2 + i t with t > 0; `bits` is the precision t was refined at.

    A seed from a zero table has ``bits=None``, and `seed_bits`, the bits
    its d decimal places hold: ⌊log2 N⌋ for N = t 10^d, the integer its
    digits spell, at most 256; a refined zero has ``seed_bits=bits``. They
    choose where refinement starts and take no part in equality.
    :func:`refine_catalog` is the only place where a zero is refined: every
    consumer of t, the residue coefficients included, takes its zeros
    through it, and it refines again every zero whose `bits` differ from the
    working precision, so a t refined at one precision is never used at another.
    """

    __slots__ = ("t", "bits", "seed_bits")

    def __init__(self, t: HPReal, bits: int | None = None, seed_bits: int | None = None) -> None:
        super().__init__(t, bits, seed_bits)

    def _key(self) -> tuple:
        return self.t, self.bits


def load_zeros(path, k=None, admit=None) -> list[ZetaZero]:
    """The first k seeds of a zero table file, every seed when k is None.

    The file holds one finite decimal t > 0 per line, '#' comments and blank
    lines aside, strictly increasing. Every line is checked, the lines past
    the k-th too, and a line that fails raises :class:`ZeroFileError` naming
    it. Only the first k lines are converted to 256-bit seeds. admit, if
    given, is called with the file's line count once every line has passed,
    before any line is converted, and may raise; a k outside [0, lines]
    then raises ValueError.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ZeroFileError(f"{path}: not UTF-8 text: {exc}") from None
    return _read_table(text, str(path), k, admit)


def bundled_zeros(k=None, admit=None) -> list[ZetaZero]:
    """The first k of the packaged first 100 zeros (75 significant digits), all when k is None.

    Every line is checked, as :func:`load_zeros` checks a file's, and only
    the first k are converted; admit and k behave as there.
    """
    text = (Path(__file__).parent / "data" / "zeta_zeros.txt").read_text("utf-8")
    return _read_table(text, "<bundled>", k, admit)


def _quoted(line: str) -> str:
    """The line's first 32 characters as a literal, and '...' if it has more."""
    return repr(line[:32]) + ("..." if len(line) > 32 else "")


def _read_table(text: str, origin: str, k, admit) -> list[ZetaZero]:
    """The first k entries of a zero table (all when k is None) as 256-bit seeds.

    The first pass checks every entry: a plain decimal t > 0 that the
    second pass can convert (``_INT_DIGITS``), above the entry before it.
    The sign and order tests are exact, on the digits: t = 0.d * 10^e, d
    its significant digits without leading or trailing zeros, orders as
    (e, d). The second pass converts the first k. Rounding keeps the order,
    but may tie two entries; a tie fails as an entry out of order does, and
    is the one refusal that depends on k.
    A seed's `seed_bits` (:class:`ZetaZero`) is the bit length less one of
    the integer its first 256 digits spell: 256 digits already pass 2^256,
    and keep int() below its 4300-digit limit.
    """
    entries = []  # (line number, text, significant digits)
    prev = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        mantissa, _, exponent = line.lower().partition("e")
        whole, _, fraction = mantissa.lstrip("+-").partition(".")
        try:
            if not PLAIN_DECIMAL.fullmatch(line):
                raise ValueError
            places = len(fraction) - int(exponent or 0)
        except ValueError:  # int() also refuses an exponent of over 4300 digits
            raise ZeroFileError(f"{origin}:{lineno}: not a decimal number: {_quoted(line)}") from None
        if len(whole) + len(fraction.rstrip("0")) > _INT_DIGITS:  # the digits mpmath's int() reads
            raise ZeroFileError(f"{origin}:{lineno}: over {_INT_DIGITS} digits: {_quoted(line)}")
        digits = (whole + fraction).lstrip("0")
        if not digits or line[0] == "-":
            raise ZeroFileError(f"{origin}:{lineno}: t must be positive, got {_quoted(line)}")
        key = (len(digits) - places, digits.rstrip("0"))
        if prev is not None and not key > prev:
            raise ZeroFileError(f"{origin}:{lineno}: values must be strictly increasing")
        entries.append((lineno, line, digits))
        prev = key
    if admit is not None:
        admit(len(entries))
    if k is not None and not 0 <= k <= len(entries):
        raise ValueError(f"{origin}: k must be in [0, {len(entries)}], got {k}")
    zeros = []
    with _TABLE_PRECISION.final():
        for lineno, line, digits in entries[:k]:
            t = mp.mpf(line)
            if zeros and t == zeros[-1].t:
                raise ZeroFileError(f"{origin}:{lineno}: values must be strictly increasing")
            held = int(digits[:_TABLE_PRECISION.bits]).bit_length() - 1  # ⌊log2 N⌋, N = int(digits)
            zeros.append(ZetaZero(t, seed_bits=min(held, _TABLE_PRECISION.bits)))
    return zeros


def _refine_history(t0, ctx: PrecisionContext, seed_bits: int | None = None) -> tuple[HPReal, list[HPReal]]:
    """Newton-iterate t -> t - Re[ζ / (i ζ′)] at s = 1/2 + i t; returns (t, residuals).

    residuals holds |ζ| at each iterate, the last one from the check at the
    returned t. See :func:`refine_zero` for the precision of each step.
    """
    full = ctx.bits + GUARD_BITS
    floor = MIN_BITS + GUARD_BITS
    # bits t holds; a seed of unknown accuracy is taken to feed W/2 + 8
    good = seed_bits if seed_bits is not None else (full // 2 + LADDER_MARGIN + 1) // 2
    prec = full
    while prec > floor and 2 * good < prec:
        prec = max(floor, prec // 2 + LADDER_MARGIN)
    check = good >= full
    with ctx.working():
        t = t0 = read_real(t0)
        target = mp.mpf(2) ** (RESIDUAL_MARGIN - ctx.bits)
        half = mp.mpf(1) / 2
        residuals: list[HPReal] = []
        zd = None
        for _ in range(MAX_NEWTON_ITERATIONS):
            if check:  # a step at W from the rounded t, which accepts it or corrects it
                t = ctx.round(t)
            s = mp.mpc(half, t)
            if check and zd is not None and t > BORWEIN_MAX_HEIGHT:
                z = complex_zeta(s, ctx)  # ζ′ is a call of its own here: keep the step's
            else:
                z, zd = zeta_with_derivative(s, PrecisionContext(prec - GUARD_BITS), shifted=check)
            residuals.append(abs(z))
            step = mp.re(z / (mp.mpc(0, 1) * zd))
            if check and abs(z) <= target + abs(zd) * abs(step) and ctx.round(t - step) == t:
                return t, residuals
            t -= step
            good = mp.mag(t) - mp.mag(step) if step else prec  # bits t had before the step
            check = prec == full and 2 * good >= full
            prec = min(full, max(floor, 2 * (min(2 * good, prec) - LADDER_MARGIN)))
        raise NonConvergenceError(
            f"zero refinement from t0={mp.nstr(t0, 12)} did not reach "
            f"|zeta| <= 2^{RESIDUAL_MARGIN - ctx.bits} in {MAX_NEWTON_ITERATIONS} iterations")


def refine_zero(t0, ctx: PrecisionContext = PrecisionContext(), seed_bits: int | None = None) -> HPReal:
    """Refine a seed t0 until |ζ(1/2 + i t)| <= 2**(24 - bits) + |ζ′| |δ| and t - δ rounds to t.

    A t0 <= 0, or not finite, raises ValueError before any pass.
    seed_bits is what t0 holds, log2(t0/|t0 - t|). t is carried at the
    working precision W = bits + guard, and each Newton step evaluates ζ
    and ζ′ at its own precision w. A step from a t good to g = log2(t/|δ|)
    bits, δ its correction, leaves t good to min(2g - 8, w - 3) bits (the
    bundled zeros lose 6 to 8 bits to the Newton constant). So the rungs
    are planned downward from W (W, W/2 + 8, W/4 + 12, ..., at least 96):
    a seed starts at the highest rung w <= 2g, and each step's successor is
    w = 2 (min(2g, w) - 8), capped at W. A seed of unknown accuracy
    (seed_bits None) starts at W/2 + 8, from which a t already refined
    takes one step at W and the check. A step at W from g >= W/2 leaves t
    good to W - log2(K t) >= bits + 24 bits at the bundled zeros, K =
    |ζ″/2ζ′|.

    Then the check, a step at W from t rounded to bits: it accepts the
    rounded t when |ζ| <= 2**(24 - bits) + |ζ′| |δ|, δ its own correction,
    and t - δ rounds back to t; otherwise the iteration goes on from t - δ.
    The term |ζ′| |δ| is the residual that rounding alone leaves, which
    exceeds 2**(24 - bits) once |ζ′| t >~ 2^24 (near t = 1.6e6). A seed
    good to W bits goes straight to the check: a bundled seed (245 to 249
    bits) costs this one pass up to 213 bits, the first 25 up to 214, and a
    20-decimal seed three at 192 bits. The check's pass
    (``zeta_with_derivative(..., shifted=True)``) also sums s + 1, and
    caches ζ′(γ) and ζ(γ + 1) for the zero's c_γ.
    Above the strip, where mpmath's ζ′ is a call of its own, a check that
    follows a step takes that step's ζ′ for δ: it was evaluated within
    t 2^(-W/2) of the rounded t, close enough for a correction of t 2^-bits.
    """
    return _refine_history(_read_seed(t0, ctx), ctx, seed_bits)[0]


def _read_seed(t0, ctx: PrecisionContext) -> HPReal:
    """t0 read at the working precision; a t0 <= 0 or not finite raises ValueError."""
    with ctx.working():
        t = read_real(t0)
    if not t > 0:
        raise ValueError(f"zero seeds must have t > 0, got t0={mp.nstr(t, 12)}")
    if not mp.isfinite(t):
        raise ValueError(f"zero seeds must be finite, got t0={mp.nstr(t, 12)}")
    return t


def refine_catalog(zeros: Iterable[ZetaZero], ctx: PrecisionContext = PrecisionContext()) -> list[ZetaZero]:
    """Refine every zero not refined at ctx.bits; zeros refined at ctx.bits pass through.

    A seed with t <= 0, or not finite, raises ValueError before any zero is refined.
    Refined t that are not strictly increasing (two seeds Newton took to one
    zero, whose oscillation would count twice, or out of order) raise
    :class:`NonConvergenceError` naming both seeds and the t they reached.
    """
    seeds = list(zeros)
    for z in seeds:
        _read_seed(z.t, ctx)
    out = [z if z.bits == ctx.bits
           else ZetaZero(refine_zero(z.t, ctx, z.seed_bits), ctx.bits, seed_bits=ctx.bits)
           for z in seeds]
    for i in range(1, len(out)):
        if not out[i - 1].t < out[i].t:
            raise NonConvergenceError(
                f"zero seeds t0={mp.nstr(seeds[i - 1].t, 12)} and t0={mp.nstr(seeds[i].t, 12)} "
                f"refine to t={mp.nstr(out[i - 1].t, 15)} and t={mp.nstr(out[i].t, 15)}; "
                "refined zeros must be strictly increasing")
    return out


