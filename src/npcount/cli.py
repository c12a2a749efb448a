"""Command-line surface: every computation as a reproducible CSV/JSON run.

Exit codes: 0 success, 2 usage error, 3 numeric failure (non-convergence,
pole, truncation), 4 I/O error. Identical invocations produce
byte-identical output.

Output: CSV is a header line, then one line per row, each ending in "\n",
with no quoting (no cell holds a comma, a quote or a newline). JSON is a
list of objects, one per row, keyed by the header: indexes (n, h, d,
index) are numbers, exact counts and floating values are strings. A
floating value prints as --digits significant digits.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import mpmath as mp

from .asymptotics import full_estimate, logf_expansion_check, logf_term_count, wave_sample
from .counting import SlopeRange, count_series
from .precision import DEFAULT_BITS, PrecisionContext
from .rho import rho_recurrence_table
from .zeros import ZeroFileError, ZetaZero, bundled_zeros, load_zeros, refine_catalog

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

#: Default ``--k-zeros``: the zeros summed in the oscillation of ``compare``
#: and ``logf-check``.
DEFAULT_ZERO_COUNT = 25

# Input bounds, sized from measured cost on a 2-vCPU Xeon (Python 3.11,
# mpmath on its pure-Python backend); a value over a bound is a usage error
# raised before any work starts.

#: Largest ``count --max`` and ``compare -n``: on one host in one hour,
#: count_series(10^5) took 58 s at 454 MB peak RSS and count_series(2 10^4)
#: 2.9-3.4 s at 59 MB, so the cost grows about as n^1.8.
MAX_COUNT_HEIGHT = 100_000

#: Largest ``rho --max-height``: the table at h = 320 takes 5-7 s, and the
#: cost grows about as h^4.4.
MAX_RHO_HEIGHT = 320

#: Largest ``wave --samples``: 10^5 samples take 21 s at 192 bits with a
#: 68 MB peak RSS, every row held until output; at 1024 bits a sample
#: takes 0.67 ms, so 10^5 take about 67 s. Time and memory grow linearly.
MAX_WAVE_SAMPLES = 100_000

#: Largest ``wave --xmax``: the largest double, the range --xmin and --xmax
#: had when they were read as doubles, so a bound such as 1e400 that read as
#: inf is still refused.
MAX_WAVE_X = sys.float_info.max

#: Largest ``--bits``: at 1024 bits ``zeros refine`` (100 zeros) takes
#: 5.0-6.9 s and ``compare -n 5`` (25 zeros) 1.3-1.9 s; from 192 to 1024
#: bits their cost grows about as bits^1.6 and bits^1.0, as a bundled zero
#: takes one Borwein pass at 192 bits and four at 1024.
MAX_BITS = 1024

#: Largest --zero-file t that ``compare``, ``logf-check`` and ``zeros refine``
#: refine. Seconds per zero at 64 / 192 / 1024 bits: 2.5 / 7.0 / 57 at t = 3.3e9,
#: under the peak below 1e6 (6.9 / 8.9 / 276, mpmath's Euler–Maclaurin ζ), but
#: 8.2 / 16 / 111 at 3e10 and 23 (64 bits) at 2.7e11; 1e30 ran out of memory.
MAX_ZERO_HEIGHT = 10 ** 9

#: Most zeros one run refines: --k-zeros, or every line for ``zeros refine``.
#: The first 300 zeros (t <= 541) from 20-digit seeds take 4.7 s at 192 bits
#: and 38 s at 1024; one zero takes 0.1 s near t = 240 and 0.48 s near 1400 at
#: 1024 bits. The worst case it admits at 1024 bits is 300 zeros near the
#: MAX_ZERO_HEIGHT peak, 276 s each: about 23 hours.
MAX_ZERO_COUNT = 300


class MissingZeroError(ArithmeticError):
    """A --zero-file's first k zeros are not the first k zeros of ζ."""


def check_first_zeros(zeros: list[ZetaZero]) -> None:
    """Raise :class:`MissingZeroError` unless zeros are the first len(zeros) zeros of ζ.

    zeros must be refined and strictly increasing, as :func:`refine_catalog`
    returns them: k distinct zeros on the critical line. They are the first
    k exactly when N(T) = k, N(T) the number of zeros with 0 < Im ρ <= T,
    at a T between t_k and the next zero. T is t_k + δ, δ = 2^-8 / log t_k,
    under 1/1600 of the mean spacing 2π / log(t / 2π). N is mpmath's
    ``nzeros``: sign changes of Hardy's Z between Gram points, separated by
    Rosser's rule, and the sign of Z at T, all in floating point.

    What it certifies is what ``nzeros`` does, no more: it is not Turing's
    method, which bounds S(t) and makes the count rigorous. A zero k + 1
    within δ above t_k would read as a missing zero. On failure the first
    missing index is the least j with N(t_j + δ) > j, found by bisection in
    about log2 k more counts. A count took 8-30 ms up to t = 1400, 80 ms at
    t = 9900 and 1.9 s at MAX_ZERO_HEIGHT.
    """
    def count(j):  # N(T) at T = t_j + δ
        with mp.workprec(53):
            t = +zeros[j - 1].t
            return mp.nzeros(t + mp.mpf(2) ** -8 / mp.log(t))

    k = len(zeros)
    if k and count(k) != k:
        lo, hi = 1, k
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if count(mid) > mid else (mid + 1, hi)
        raise MissingZeroError(f"the zeros are not the first {k}: zero {lo} is missing (more than "
                               f"{lo} zeros lie up to entry {lo}, t = {mp.nstr(zeros[lo - 1].t, 15)})")


def _zeros(args, ctx, refine=True):
    """The first --k-zeros zeros of --zero-file or the bundled table (all when
    k_zeros is None), refined at ctx unless refine is false.

    Row producers call it after their other input checks and before any
    other work, so a bad k, too many zeros to refine or a zero over
    MAX_ZERO_HEIGHT (usage errors), a seed Newton cannot refine, or a
    --zero-file whose first k zeros are not the first k of ζ fails first.
    The table's lines are all checked, and its line count bounds k, before
    any seed is converted; only the first k are. The bundled table is not
    run through the completeness check: a test shows its 100 zeros pass.
    """
    k = args.k_zeros

    def admit(lines):  # the table's line count, before any seed is converted
        if k is not None and not 0 <= k <= lines:
            raise UsageError(f"--k-zeros must be in [0, {lines}], got {k}")
        wanted = lines if k is None else k
        if refine and wanted > MAX_ZERO_COUNT:
            raise UsageError(f"at most {MAX_ZERO_COUNT} zeros are refined in one run, got {wanted}")

    zeros = load_zeros(args.zero_file, k, admit) if args.zero_file else bundled_zeros(k, admit)
    if not refine:
        return zeros
    top = max((z.t for z in zeros), default=0)
    if top > MAX_ZERO_HEIGHT:
        raise UsageError(f"--zero-file entries to refine must be <= {MAX_ZERO_HEIGHT:g}, got {top}")
    zeros = refine_catalog(zeros, ctx)
    if args.zero_file and k is not None:
        check_first_zeros(zeros)
    return zeros


# ---------------------------------------------------------------------------
# row producers (one per subcommand, each set as its parser's ``rows`` default);
# each returns (header, rows), a row being a tuple of raw cells in header order
# ---------------------------------------------------------------------------


def _rows_count(args, ctx):
    if not 0 <= args.max <= MAX_COUNT_HEIGHT:
        raise UsageError(f"--max must be in [0, {MAX_COUNT_HEIGHT}], got {args.max}")
    series = count_series(SlopeRange(args.range), args.max)
    return ["n", "count"], [(n, str(v)) for n, v in enumerate(series.values)]


def _rows_rho(args, ctx):
    if not 0 <= args.max_height <= MAX_RHO_HEIGHT:
        raise UsageError(f"--max-height must be in [0, {MAX_RHO_HEIGHT}], got {args.max_height}")
    table = rho_recurrence_table(args.max_height)
    return ["h", "d", "rho"], [(h, d, str(v)) for h, d, v in table.entries()]


def _rows_compare(args, ctx):
    ns = sorted(set(args.n))
    if not ns or ns[0] < 1 or ns[-1] > MAX_COUNT_HEIGHT:
        raise UsageError(f"every -n must be in [1, {MAX_COUNT_HEIGHT}]")
    family = SlopeRange(args.range)
    zeros = _zeros(args, ctx)
    series = count_series(family, ns[-1])
    rows = []
    with ctx.working():
        ln10 = mp.log(10)
        for n in ns:
            exact = mp.mpf(series[n])
            log_exact = mp.log(exact)
            est = full_estimate(n, zeros, ctx, slope_range=family)
            rows.append((n, log_exact / ln10, est.log_main / ln10, est.log_estimate / ln10,
                         log_exact - est.log_main))
    return ["n", "log10_count", "log10_leading", "log10_estimate", "residual_log"], rows


def _rows_wave(args, ctx):
    if not 1 <= args.samples <= MAX_WAVE_SAMPLES:
        raise UsageError(f"--samples must be in [1, {MAX_WAVE_SAMPLES}], got {args.samples}")
    try:
        lo, hi = ctx.real(args.xmin), ctx.real(args.xmax)
    except ValueError:  # not plain decimal numbers, refused below
        lo = hi = 0
    if not 0 < lo <= hi <= MAX_WAVE_X:
        raise UsageError(f"need finite --xmin and --xmax, plain decimal numbers with "
                         f"0 < --xmin <= --xmax <= {MAX_WAVE_X:.6g}, "
                         f"got {args.xmin!r} and {args.xmax!r}")
    first = _zeros(args, ctx)
    rows = []
    with ctx.working():
        steps = max(args.samples - 1, 1)  # --samples 1 gives x = --xmin alone
        for i in range(args.samples):
            x = (lo + (hi - lo) * i / steps if args.linear_x
                 else lo * (hi / lo) ** (mp.mpf(i) / steps))
            rows.append((x, wave_sample(x, first, ctx)))
    return ["x", "y"], rows


def _rows_zeros(args, ctx):
    zeros = _zeros(args, ctx, refine=args.action == "refine")
    return ["index", "t"], list(enumerate((z.t for z in zeros), start=1))


def _rows_logf(args, ctx):
    taus = []
    for text in args.tau:
        try:
            taus.append(ctx.real(text))
        except ValueError:
            raise UsageError(f"--tau must be a plain decimal number, got {text!r}") from None
    for tau in (max(taus), min(taus)):  # every τ passes if both ends do, before any zero is refined
        try:
            logf_term_count(tau, ctx)
        except ValueError:
            raise UsageError(f"--tau must be in (0, 1], got {args.tau[taus.index(tau)]}") from None
    zeros = _zeros(args, ctx)
    # smallest τ first: it needs the most terms, so its weight table serves every τ
    checks = {tau: logf_expansion_check(tau, zeros, ctx) for tau in sorted(set(taus))}
    columns = ["tau", "direct", "expansion", "residual"]
    return columns, [tuple(getattr(checks[tau], col) for col in columns) for tau in taus]


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


class UsageError(ValueError):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npcount",
        description="Exact and asymptotic Newton polygon counting.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--bits", type=int, default=DEFAULT_BITS,
                        help="working precision in bits (default %(default)s)")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default %(default)s)")
    common.add_argument("--out", default=None, metavar="PATH",
                        help="write output to PATH instead of stdout")
    common.add_argument("--digits", type=int, default=15,
                        help="significant digits for floating columns, at most the "
                             "ceil(bits log10 2) that --bits holds: 20 at 64 bits, 58 at 192 "
                             "(default %(default)s)")
    catalog = argparse.ArgumentParser(add_help=False)
    catalog.add_argument("--k-zeros", type=int, default=DEFAULT_ZERO_COUNT)
    catalog.add_argument("--zero-file", default=None)
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--range", choices=[r.value for r in SlopeRange], default="half-open",
                        help="slope range, or symmetric: polygons of height 2g counted by "
                             "genus g (default %(default)s)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common, family],
                       help="exact counts by height for a slope range")
    p.add_argument("--max", type=int, required=True, help="largest height (or genus)")
    p.set_defaults(rows=_rows_count)

    p = sub.add_parser("rho", parents=[common],
                       help="triangular table of counts by (height, depth)")
    p.add_argument("--max-height", type=int, required=True)
    p.set_defaults(rows=_rows_rho)

    p = sub.add_parser("compare", parents=[common, catalog, family],
                       help="exact count vs asymptotic estimate at given heights")
    p.add_argument("-n", dest="n", type=int, action="append", required=True,
                   help="height (genus for --range symmetric) to evaluate (repeatable)")
    p.set_defaults(rows=_rows_compare)

    p = sub.add_parser("wave", parents=[common],
                       help="sample the first-zero oscillation wave")
    p.add_argument("--xmin", required=True, help="smallest x (parsed at full precision)")
    p.add_argument("--xmax", required=True, help="largest x (parsed at full precision)")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--linear-x", action="store_true",
                   help="sample uniformly in x instead of log x")
    p.set_defaults(rows=_rows_wave, k_zeros=1, zero_file=None)  # the first bundled zero

    p = sub.add_parser("zeros", parents=[common],
                       help="dump or refine a zeta-zero table")
    p.add_argument("action", choices=("dump", "refine"))
    p.add_argument("--zero-file", default=None,
                   help="zero table (default: bundled first 100 zeros)")
    p.set_defaults(rows=_rows_zeros, k_zeros=None)

    p = sub.add_parser("logf-check", parents=[common, catalog],
                       help="direct vs residue-expansion values of log f(e^-tau)")
    p.add_argument("--tau", action="append", required=True,
                   help="tau in (0, 1] (repeatable; parsed at full precision)")
    p.set_defaults(rows=_rows_logf)

    return parser


def _emit(header, rows, args) -> str:
    """The one writer: each mpf cell as --digits significant digits, every
    other cell as it is, in the format the module docstring states."""
    rows = [[mp.nstr(cell, args.digits) if isinstance(cell, mp.mpf) else cell for cell in row]
            for row in rows]
    if args.format == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        ctx = PrecisionContext(args.bits)
        if args.bits > MAX_BITS:
            raise UsageError(f"--bits must be <= {MAX_BITS}, got {args.bits}")
        if args.digits < 1:
            raise UsageError(f"--digits must be >= 1, got {args.digits}")
        held = math.ceil(args.bits * math.log10(2))
        if args.digits > held:
            raise UsageError(f"--digits must be <= {held}, the digits {args.bits} bits hold, "
                             f"got {args.digits}")
        header, rows = args.rows(args, ctx)
        text = _emit(header, rows, args)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    except (OSError, ZeroFileError) as exc:
        print(f"npcount: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ArithmeticError as exc:  # non-convergence, pole, truncation
        print(f"npcount: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"npcount: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
