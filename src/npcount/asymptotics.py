"""Asymptotic polygon counts: one saddle-point evaluator for every count family.

For slopes in [0, 1) the generating function is F(x) = Π_m (1-x^m)^(-φ(m)),
and f(τ) = F(e^(-τ)) has the Mellin expansion

    log f(τ) = (C/2) τ^(-2) - (1/6) log τ + log K + osc(τ) + o(1),
    osc(τ) = Σ_γ 2 Re(c_γ τ^(-γ)),   c_γ = Γ(γ) ζ(γ+1) ζ(γ-1) / ζ′(γ),

one conjugate pair per non-trivial zeta zero γ = 1/2 + i t. A family's
exponents e(m) = w φ(m) + d_m have Dirichlet series w ζ(s-1)/ζ(s) + d_1 +
d_2 2^(-s) (:data:`npcount.counting.FAMILY_ROWS`), so each family is a
power of F times an elementary factor, and near τ = 0, as 1 - e^(-mτ) ~ mτ,

    log f_range(τ) = w log f(τ) - p log τ + c + q τ + O(τ²):

    family     f_range                              (w, p, c, q)
    [0, 1)     F                                    (1, 0, 0, 0)
    [0, 1]     F / (1-x)                            (1, 1, 0, 1/2)
    [0, 1/2]   F^(1/2) (1-x)^(-1/2) (1-x²)^(-1/2)    (1/2, 1, -(1/2) log 2, 3/4)
    symmetric  F^(1/2) (1-x)^(-3/2) (1-x²)^(1/2)     (1/2, 1, (1/2) log 2, 1/4)

As 1 - e^(-mτ) = mτ e^(-mτ/2) (1 + O(τ²)), a factor (1 - x^m)^(-d)
adds -d log τ - d log m + d m τ / 2. So p = Σ d_m, c = -Σ d_m log m and
q = Σ d_m m / 2 over the excess d_m at m = 1, 2 (:func:`_saddle_row`).

The saddle point of f_range(τ) e^(nτ) sits where n = w C τ^(-3), at
τ = (wC/n)^(1/3), and the Gaussian factor there, 1/sqrt(2π · 3wC τ^(-4)),
gives every closed form at once:

    log a(n) ~ (3/2) n τ + w log K + c - (1/2) log(6π w C)
               + (2 - w/6 - p) log τ + q τ + w osc(τ).

For [0, 1) this is log P(n) + osc(τ) with

    P(n) = (C^(1/9) K / sqrt(6π)) n^(-11/18) exp((3/2) C^(1/3) n^(2/3)).

All estimates are carried in natural-log scale. :func:`full_estimate` is
the public view of every family's estimate: its :class:`AsymptoticBreakdown`
carries τ, the main term (log P(n) for [0, 1)) and w osc(τ) side by side,
and :func:`wave_sample` exp(osc(τ)). Every zero sum runs over just the zeros
the caller hands in (this module reads no zero table): the amplitudes |c_γ|
fall off exponentially in t, like e^(-πt/2) times a slowly growing factor
(|c_γ| e^(πt/2) is 2.1 at t = 14.1, 5.9 at 49.8 and 28 at 236.5), so the
truncation tail is bounded by the triangle inequality Σ 2|c_γ| τ^(-1/2).
"""
from __future__ import annotations

import functools
import math
import operator
from typing import Sequence

import mpmath as mp

from .counting import FAMILY_ROWS, SlopeRange, log_derivative_weights
from .precision import GUARD_BITS, HPComplex, HPReal, PrecisionContext, read_real
from .record import Record
from .special import complex_gamma, complex_zeta, constant_C, constant_K, zeta_derivative
from .zeros import ZetaZero, refine_catalog

class TruncationError(ArithmeticError):
    """A series failed to reach its truncation threshold."""


class AsymptoticBreakdown(Record):
    """log-scale estimate: main term, zero oscillation and their sum, each rounded to bits."""

    __slots__ = ("tau", "log_main", "oscillation", "log_estimate")
    tau: HPReal
    log_main: HPReal
    oscillation: HPReal
    log_estimate: HPReal


# ---------------------------------------------------------------------------
# residue coefficients and the per-zero term
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def _coefficient(t: HPReal, bits: int) -> HPComplex:
    """c_γ = |Γ(γ) ζ(γ+1)|² conj(γ) (2π)^(γ-1)/π sin(π(γ-1)/2) / ζ′(γ), one modulus.

    ζ(s) = 2^s π^(s-1) sin(πs/2) Γ(1-s) ζ(1-s) at s = γ - 1, and on the
    critical line 2 - γ = conj(γ+1), so ζ(γ-1) carries conj(γ Γ(γ) ζ(γ+1)).
    The factor |Γ(γ)|², which is π/cosh(πt), still comes from Γ(γ). For a
    t from :func:`refine_catalog`, ζ(γ+1) and ζ′(γ) are cache hits: the
    residual check that ended the refinement took both from one pass, so
    c_γ itself makes no pass in the strip.
    """
    ctx = PrecisionContext(bits)
    with ctx.working():
        gamma = mp.mpc(mp.mpf(1) / 2, t)
        modulus = abs(complex_gamma(gamma, ctx) * complex_zeta(gamma + 1, ctx)) ** 2
        return ctx.round(modulus * mp.conj(gamma) * mp.power(2 * mp.pi, gamma - 1) / mp.pi
                         * mp.sinpi((gamma - 1) / 2) / zeta_derivative(gamma, ctx))


def _zero_terms(zeros: Sequence[ZetaZero], ctx: PrecisionContext) -> list[tuple[HPReal, HPComplex]]:
    """(t, c_γ) for every zero given; :func:`refine_catalog` refines those not refined at ctx."""
    return [(z.t, _coefficient(z.t, ctx.bits)) for z in refine_catalog(zeros, ctx)]


def _oscillation_at_tau(tau: HPReal, terms: Sequence[tuple[HPReal, HPComplex]]) -> HPReal:
    """osc(τ) = Σ 2 Re(c τ^(-γ)) = (2/√τ) Σ (ℜc cos(t log τ) + ℑc sin(t log τ)) at γ = 1/2 + i t."""
    logtau = mp.log(tau)
    acc = mp.mpf(0)
    for t, c in terms:
        cos, sin = mp.cos_sin(t * logtau)
        acc += c.real * cos + c.imag * sin
    return 2 * acc / mp.sqrt(tau)


# ---------------------------------------------------------------------------
# the saddle point
# ---------------------------------------------------------------------------


def _tau(x, w, ctx: PrecisionContext) -> HPReal:
    """τ = (wC/x)^(1/3), the saddle of f(τ)^w e^(xτ), where x = w C τ^(-3)."""
    return mp.cbrt(w * constant_C(ctx) / x)


def _saddle_row(slope_range: SlopeRange) -> tuple[float, float, float, float]:
    """(w, p, c / log 2, q) with log f_range(τ) = w log f(τ) - p log τ + c + q τ + O(τ²).

    The row (h, a_1, a_2) gives w = 1/h and the excess d_m = a_m / h, so p = d_1 + d_2,
    c = -d_2 log 2 (log 1 = 0), q = (d_1 + 2 d_2) / 2, and with h <= 2 each float is exact.
    """
    h, a1, a2 = FAMILY_ROWS[slope_range]
    return 1 / h, (a1 + a2) / h, -a2 / h, (a1 + 2 * a2) / (2 * h)


def full_estimate(n: int, zeros: Sequence[ZetaZero],
                  ctx: PrecisionContext = PrecisionContext(),
                  slope_range: SlopeRange = SlopeRange.HALF_OPEN_01) -> AsymptoticBreakdown:
    """Main term plus the oscillation of the given zeros for one family's height-n count.

    ``slope_range`` picks the row (w, p, c, q) of the module docstring's
    table, and the breakdown carries τ = (wC/n)^(1/3), the closed form's
    main term and w osc(τ). The default, [0, 1), has main term log P(n);
    the symmetric counts take n = g, the genus.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    with ctx.working():
        terms = _zero_terms(zeros, ctx)
        w, p, c_log2, q = _saddle_row(slope_range)
        C = constant_C(ctx)
        tau = _tau(n, w, ctx)
        main = (mp.mpf(3) / 2 * n * tau + w * mp.log(constant_K(ctx)) + c_log2 * mp.log(2)
                - mp.log(6 * mp.pi * w * C) / 2 + (12 - w - 6 * p) / mp.mpf(6) * mp.log(tau)
                + q * tau)
        log_main, osc = ctx.round(main), ctx.round(w * _oscillation_at_tau(tau, terms))
        with ctx.final():
            return AsymptoticBreakdown(+tau, log_main, osc, log_main + osc)


# ---------------------------------------------------------------------------
# the zero wave (Figure-2 style data)
# ---------------------------------------------------------------------------


def wave_sample(x, zeros: Sequence[ZetaZero], ctx: PrecisionContext = PrecisionContext()) -> HPReal:
    """Wave y(x) = exp(Σ_γ 2 Re(c_γ τ^(-γ))) = exp(Σ_γ 2 Re(c_γ C^(-γ/3) x^(γ/3))), finite x > 0.

    The sum runs over the given zeros, and τ = (C/x)^(1/3) is the [0, 1)
    saddle at height x. The first-zero wave passes the first zero alone.
    """
    with ctx.working():
        x = read_real(x)
        if not (x > 0 and mp.isfinite(x)):
            raise ValueError("x must be positive and finite")
        return ctx.round(mp.exp(_oscillation_at_tau(_tau(x, 1, ctx), _zero_terms(zeros, ctx))))


# ---------------------------------------------------------------------------
# expansion check for log f(e^(-τ))
# ---------------------------------------------------------------------------


class ExpansionCheck(Record):
    """Direct series vs. residue expansion of log f(e^(-τ))."""

    __slots__ = ("tau", "direct", "expansion", "residual", "terms")
    tau: HPReal
    direct: HPReal
    expansion: HPReal
    residual: HPReal
    terms: int  #: number of direct-series terms summed


#: Hard cap on direct-sum length before giving up.
_DIRECT_SUM_MAX_TERMS = 5_000_000

#: Rational upper bound for ζ(2) = π²/6 = 1.6449..., used in the tail bound.
_ZETA2_UPPER = mp.mpf(33) / 20


def _logf_log_tail(tau, bits: int, c=mp):
    """m -> log tail(m) + bits log 2 in c (mp or math), tail(m) the direct sum's tail bound at τ > 0.

    b(N) <= σ₂(N) < ζ(2) N² < Z N², Z = 33/20, so at x = e^(-τ) the tail
    Σ_{N>=m} (b(N)/N) x^N is below Z x^m (m + x/(1-x)) / (1-x), and the
    value is log Z + bits log 2 - mτ + log((m + x/(1-x)) / (1-x)), strictly
    decreasing in m. 1/(1-x), from -expm1(-τ), which stays positive where x
    rounds to 1, and x/(1-x) are computed once per τ. In mp a value >= 0
    means tail(m) >= 2^-bits: that decides M, the cap check and the τ
    floor. In floats (c = math) it starts both root searches, in m and in τ.
    """
    inv = -1 / c.expm1(-tau)
    shift = c.exp(-tau) * inv
    base = c.log(_ZETA2_UPPER) + bits * c.log(2)
    return lambda m: base - m * tau + c.log((m + shift) * inv)


def logf_term_count(tau, ctx: PrecisionContext) -> int:
    """The M terms :func:`logf_expansion_check` sums at τ in (0, 1]; over the cap, a TruncationError."""
    with ctx.working():
        tau = read_real(tau)
        if not 0 < tau <= 1:
            raise ValueError("tau must be in (0, 1]")
        return _logf_term_count(tau, ctx, _DIRECT_SUM_MAX_TERMS)


@functools.lru_cache(maxsize=16)  # the CLI's gate and the checks share one search per τ
def _logf_term_count(tau: HPReal, ctx: PrecisionContext, cap: int) -> int:
    """The least M with tail(M + 1) < ε <= tail(M), ε = 2^-(bits+guard), or 1 if tail(1) < ε.

    The float root of log tail(m) = log ε lands within a term or two of M,
    so the exact checks that then step to M take two or three tail bounds.
    """
    wide = ctx.bits + GUARD_BITS
    log_tail = _logf_log_tail(tau, wide)
    if log_tail(cap + 1) >= 0:
        raise TruncationError(
            f"direct sum at tau={mp.nstr(tau, 6)} needs more than {cap} terms; "
            f"the smallest tau that fits at {ctx.bits} bits is {_logf_tau_floor(cap, wide)}")
    n = min(max(int(_logf_tail_root(float(tau), wide)), 1), cap)
    while log_tail(n + 1) >= 0:
        n += 1
    while n > 1 and log_tail(n) < 0:
        n -= 1
    return n


def _logf_tail_root(tau: float, bits: int) -> float:
    """The float model's root in m by mpmath's secant from (log Z + bits log 2)/τ; mp then decides M."""
    return mp.fp.findroot(_logf_log_tail(tau, bits, math),
                          (math.log(_ZETA2_UPPER) + bits * math.log(2)) / tau)


def _logf_tau_floor(cap: int, bits: int) -> str:
    """The smallest τ in (0, 1], rounded up to 3 digits, whose sum fits in cap terms.

    The float model's root in τ at m = cap + 1 is a start: rounded up to 3
    digits, it is raised one step at a time while the mp bound says it does
    not fit. Where τ = 1 itself does not fit, the root lies above 1, and
    the text says none fits rather than name it: that takes a cap of 70 or
    less at 64 bits and 738 or less at 1024, never the 5·10⁶ of the CLI.
    """
    def fits(tau):
        return _logf_log_tail(tau, bits)(cap + 1) < 0

    if not fits(mp.mpf(1)):
        return "none: even tau=1 needs more terms"
    root = mp.fp.findroot(lambda tau: _logf_log_tail(tau, bits, math)(cap + 1),
                          (math.log(_ZETA2_UPPER) + bits * math.log(2)) / (cap + 1))
    step = mp.mpf(10) ** (int(mp.floor(mp.log10(root))) - 2)
    tau = mp.ceil(root / step) * step
    while not fits(tau):
        tau += step
    return f"{float(tau):.3g}"


#: The largest [0, 1) weight table built so far, b(0..len - 1), kept until
#: a longer one is needed. Checks taken in ascending τ build one table.
_weights: list[int] = []


def _logf_weights(n_max: int) -> list[int]:
    """b(0..M) for some M >= n_max: the kept table, or a new one kept in its place."""
    global _weights
    if len(_weights) <= n_max:
        _weights = []  # free the old table before the new one is built
        _weights = log_derivative_weights(SlopeRange.HALF_OPEN_01, n_max)
    return _weights


def logf_expansion_check(tau, zeros: Sequence[ZetaZero] = (),
                         ctx: PrecisionContext = PrecisionContext()) -> ExpansionCheck:
    """Compare log f(e^(-τ)) computed two ways, for 0 < τ <= 1.

    direct:    log f(x) = Σ_n φ(n) Σ_j x^(jn)/j = Σ_{N>=1} (b(N)/N) x^N at
               x = e^(-τ), with b(N) = Σ_{d|N} d φ(d) the [0, 1) counting
               weights of :func:`npcount.counting.log_derivative_weights`;
    expansion: (C/2) τ^(-2) + Σ_γ 2 Re(c_γ τ^(-γ)) - (1/6) log τ + log K
               (the τ^(-2) residue, the zero oscillation, and the
               double-pole residue at 0);
    residual:  direct - expansion, the part the expansion drops —
               O(τ² log(1/τ)) as τ -> 0, from the double pole at
               s = -2, where Γ(s) and 1/ζ(s) both have one.

    The direct series stops after M = ``terms`` terms, the least M whose
    tail bound Z x^(M+1) ((M+1)/(1-x) + x/(1-x)²) is below
    ε = 2^(-bits-guard); the bound holds as b(N) < ζ(2) N² and
    Z = 33/20 > ζ(2). :func:`logf_term_count` finds M before any summing,
    so a τ that would need more than ``_DIRECT_SUM_MAX_TERMS`` terms raises
    :class:`TruncationError` at once, naming the smallest τ that fits.
    The weights b(1..M) come from the largest table built so far, which a
    τ needing more terms replaces: checks taken in ascending τ build one.

    The M terms are summed in fixed point at P = bits + guard + 3 L + 2
    bits, L = bit length of M, by rectangular splitting (Paterson &
    Stockmeyer 1973) in blocks of m = ⌊√M⌋ terms. With u = 2^-P,
    X = round(x 2^P), the baby steps B_i ~ x^i 2^P (i = 1..m) are B_1 = X,
    B_(i+1) = floor(B_i X u), and the giant steps G_j ~ x^(jm) 2^P are
    G_0 = 2^P, G_(j+1) = floor(G_j B_m u). Block j, N = jm + i, adds
    floor(T_j G_j u), T_j = Σ_i floor(b(N) B_i / N): a short product and
    division per term, and two full-width products per block.
    With ξ = X u, |ξ - x| <= u (x is computed at P + 8 bits) and ξ <= 1. A
    floor chain by a factor at most 1 loses less than u a step, so
    0 <= ξ^i - B_i u < (i-1) u and |B_i u - x^i| < 2i u; with γ = B_m u,
    likewise |G_j u - x^(jm)| <= (j-1) u + j |γ - x^m| <= 3jm u for j >= 1,
    and G_0 u = 1.
    Term N of block j is then off by less than (b(N)/N)(2i + 3jm) u + u
    <= (3 b(N) + 1) u: the baby step, the giant step and the term's floor;
    the block's floor adds u. As Σ_{N<=M} b(N) <= M Σ_{d<=M} φ(d)
    <= M²(M+1)/2, the sum is off by less than (3M²(M+1)/2 + 2M) u
    < 4 (M+1)³ u <= 2^(3L+2) u = ε. With the tail, direct is within 2ε of
    log f(x); since log f(x) >= x/(1-x) >= 1/(2τ) >= 1/2, that is a
    relative error below 2^(2-bits-guard).

    C and K enter the expansion at bits + guard, not rounded to bits: the
    residual cancels the leading digits of (C/2) τ^(-2).
    """
    wide = PrecisionContext(ctx.bits + GUARD_BITS)
    C = constant_C(wide)
    K = constant_K(wide)
    with ctx.working():
        tau = read_real(tau)
        n_max = logf_term_count(tau, ctx)
        terms = _zero_terms(zeros, ctx)

        prec = ctx.bits + GUARD_BITS + 3 * n_max.bit_length() + 2
        with mp.workprec(prec + 8):
            X = int(mp.nint(mp.ldexp(mp.exp(-tau), prec)))
        b = _logf_weights(n_max)
        m = math.isqrt(n_max)
        baby = [X]  # x^1 .. x^m
        for _ in range(m - 1):
            baby.append(baby[-1] * X >> prec)
        acc = 0
        giant = 1 << prec  # x^(jm) for the block of N = jm+1 .. jm+m
        for lo in range(1, n_max + 1, m):
            hi = min(lo + m, n_max + 1)
            block = sum(map(operator.floordiv, map(operator.mul, b[lo:hi], baby), range(lo, hi)))
            acc += block * giant >> prec
            giant = giant * baby[-1] >> prec
        direct = mp.ldexp(mp.mpf(acc), -prec)

        expansion = (C / 2 / tau ** 2
                     + _oscillation_at_tau(tau, terms)
                     - mp.log(tau) / 6 + mp.log(K))
        return ExpansionCheck(ctx.round(tau), ctx.round(direct), ctx.round(expansion),
                              ctx.round(direct - expansion), n_max)
