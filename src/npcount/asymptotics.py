"""Asymptotic polygon counts: one saddle-point evaluator for every count family.

For slopes in [0, 1) the generating function is F(x) = Π_m (1-x^m)^(-φ(m)),
and f(τ) = F(e^(-τ)) has the Mellin expansion

    log f(τ) = (C/2) τ^(-2) - (1/6) log τ + log K + osc(τ) + o(1),
    osc(τ) = Σ_γ 2 Re(c_γ τ^(-γ)),   c_γ = Γ(γ) ζ(γ+1) ζ(γ-1) / ζ′(γ),

one conjugate pair per non-trivial zeta zero γ = 1/2 + i t. The other
families differ from [0, 1) only in the exponents e(m) at m = 1, 2
(:data:`npcount.counting.EXPONENT_ROWS`), so each is a power of F
times an elementary factor, and near τ = 0, as 1 - e^(-mτ) ~ mτ,

    log f_range(τ) = w log f(τ) - p log τ + c + q τ + O(τ²):

    family     f_range                              (w, p, c, q)
    [0, 1)     F                                    (1, 0, 0, 0)
    [0, 1]     F / (1-x)                            (1, 1, 0, 1/2)
    [0, 1/2]   F^(1/2) (1-x)^(-1/2) (1-x²)^(-1/2)    (1/2, 1, -(1/2) log 2, 3/4)
    symmetric  F^(1/2) (1-x)^(-3/2) (1-x²)^(1/2)     (1/2, 1, (1/2) log 2, 1/4)

As 1 - e^(-mτ) = mτ e^(-mτ/2) (1 + O(τ²)), a factor (1 - x^m)^(-d)
adds -d log τ - d log m + d m τ / 2. So p = Σ d_m, c = -Σ d_m log m and
q = Σ d_m m / 2 over the excess d_m = e(m) - w φ(m) at m = 1, 2
(:func:`_saddle_row`).

The saddle point of f_range(τ) e^(nτ) sits where n = w C τ^(-3), at
τ = (wC/n)^(1/3), and the Gaussian factor there, 1/sqrt(2π · 3wC τ^(-4)),
gives every closed form at once:

    log a(n) ~ (3/2) n τ + w log K + c - (1/2) log(6π w C)
               + (2 - w/6 - p) log τ + q τ + w osc(τ).

For [0, 1) this is log P(n) + osc(τ) with

    P(n) = (C^(1/9) K / sqrt(6π)) n^(-11/18) exp((3/2) C^(1/3) n^(2/3)).

All estimates are carried in natural-log scale. :func:`full_estimate` is
the public view of every family's estimate: its :class:`AsymptoticBreakdown`
carries τ, the main term (log P(n) for [0, 1)) and w osc(τ) side by side.
Zero sums run over the zeros the caller passes — the amplitudes |c_γ|
fall off exponentially in t, like e^(-πt/2) times a slowly growing
factor (|c_γ| e^(πt/2) is 2.1 at t = 14.1, 5.9 at 49.8 and 28 at 236.5),
so the truncation tail is bounded by the triangle inequality
Σ 2|c_γ| τ^(-1/2).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import mpmath as mp

from .counting import EXPONENT_ROWS, SlopeRange, log_derivative_weights
from .precision import GUARD_BITS, HPComplex, HPReal, PrecisionContext
from .special import complex_gamma, complex_zeta, constant_C, constant_K, zeta_derivative
from .zeros import ZetaZero, bundled_zeros, refine_catalog

class TruncationError(ArithmeticError):
    """A series failed to reach its truncation threshold."""


@dataclass(frozen=True)
class AsymptoticBreakdown:
    """log-scale estimate split into main term and zero oscillation."""

    tau: HPReal
    log_main: HPReal
    oscillation: HPReal
    ctx: PrecisionContext

    @property
    def log_estimate(self) -> HPReal:
        with self.ctx.final():
            return +(self.log_main + self.oscillation)


# ---------------------------------------------------------------------------
# residue coefficients and the per-zero term
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def _coefficient(t: HPReal, bits: int) -> HPComplex:
    """c_γ with ζ(γ-1) taken from ζ(γ+1) by the functional equation.

    ζ(s) = 2^s π^(s-1) sin(πs/2) Γ(1-s) ζ(1-s) at s = γ - 1, and on the
    critical line 2 - γ = conj(γ+1), so Γ(2-γ) = conj(γ Γ(γ)) and
    ζ(2-γ) = conj(ζ(γ+1)). For a t from :func:`refine_catalog`, ζ′(γ) is a
    cache hit: the residual check that ended the refinement took it.
    """
    ctx = PrecisionContext(bits)
    with ctx.working():
        gamma = mp.mpc(mp.mpf(1) / 2, t)
        gamma_fn = complex_gamma(gamma, ctx)
        zeta_p1 = complex_zeta(gamma + 1, ctx)
        zeta_m1 = (mp.power(2, gamma - 1) * mp.power(mp.pi, gamma - 2) * mp.sinpi((gamma - 1) / 2)
                   * mp.conj(gamma * gamma_fn) * mp.conj(zeta_p1))
        return ctx.round(gamma_fn * zeta_p1 * zeta_m1 / zeta_derivative(gamma, ctx))


def _zero_terms(zeros: Sequence[ZetaZero], ctx: PrecisionContext) -> list[tuple[HPReal, HPComplex]]:
    """(t, c_γ) for every zero given; :func:`refine_catalog` refines those not refined at ctx."""
    return [(z.t, _coefficient(z.t, ctx.bits)) for z in refine_catalog(zeros, ctx)]


def _oscillation_at_tau(tau: HPReal, terms: Sequence[tuple[HPReal, HPComplex]]) -> HPReal:
    """osc(τ) = Σ 2 Re(c τ^(-γ)), c τ^(-γ) = c exp(-γ log τ) at γ = 1/2 + i t. Exactly real."""
    logtau = mp.log(tau)
    acc = mp.mpf(0)
    for t, c in terms:
        acc += 2 * mp.re(c * mp.exp(-mp.mpc(mp.mpf(1) / 2, t) * logtau))
    return acc


# ---------------------------------------------------------------------------
# the saddle point
# ---------------------------------------------------------------------------


def _tau(x, w, ctx: PrecisionContext) -> HPReal:
    """τ = (wC/x)^(1/3), the saddle of f(τ)^w e^(xτ), where x = w C τ^(-3)."""
    return mp.cbrt(w * constant_C(ctx) / x)


def _saddle_row(slope_range: SlopeRange) -> tuple[float, float, float, float]:
    """(w, p, c / log 2, q) with log f_range(τ) = w log f(τ) - p log τ + c + q τ + O(τ²).

    Read off the excess d_m = e(m) - w φ(m) at m = 1, 2, where φ(m) = 1:
    p = d_1 + d_2, c = -d_2 log 2 (log 1 = 0) and q = (d_1 + 2 d_2) / 2.
    Every entry is a multiple of 1/4, so the floats are exact.
    """
    w, e1, e2 = EXPONENT_ROWS[slope_range]
    d1, d2 = e1 - w, e2 - w
    return float(w), float(d1 + d2), float(-d2), float((d1 + 2 * d2) / 2)


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
        osc = w * _oscillation_at_tau(tau, terms)
        return AsymptoticBreakdown(tau=ctx.round(tau), log_main=ctx.round(main),
                                   oscillation=ctx.round(osc), ctx=ctx)


# ---------------------------------------------------------------------------
# the first-zero wave (Figure-2 style data)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _first_zero(bits: int) -> tuple[HPReal, HPComplex]:
    """(t1, c_γ1) for the first zero, refined at the given precision."""
    return _zero_terms(bundled_zeros()[:1], PrecisionContext(bits))[0]


def wave_sample(x, ctx: PrecisionContext = PrecisionContext()) -> HPReal:
    """First-zero wave y(x) = exp(2 Re(c_γ1 τ^(-γ1))) = exp(2 Re(c_γ1 C^(-γ1/3) x^(γ1/3))), x > 0.

    τ = (C/x)^(1/3) is the [0, 1) saddle at height x, so y(n) = exp(osc(τ))
    with the first zero alone.
    """
    with ctx.working():
        x = mp.mpf(x)
        if not x > 0:
            raise ValueError("x must be positive")
        return ctx.round(mp.exp(_oscillation_at_tau(_tau(x, 1, ctx), [_first_zero(ctx.bits)])))


# ---------------------------------------------------------------------------
# expansion check for log f(e^(-τ))
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionCheck:
    """Direct series vs. residue expansion of log f(e^(-τ))."""

    tau: HPReal
    direct: HPReal
    expansion: HPReal
    residual: HPReal
    terms: int  #: number of direct-series terms summed


#: Hard cap on direct-sum length before giving up.
_DIRECT_SUM_MAX_TERMS = 5_000_000

#: Rational upper bound for ζ(2) = π²/6 = 1.6449..., used in the tail bound.
_ZETA2_UPPER = mp.mpf(33) / 20


def _logf_tail_bound(tau: HPReal):
    """m -> an upper bound for Σ_{N>=m} (b(N)/N) x^N at x = e^(-τ), τ > 0.

    b(N) <= σ₂(N) < ζ(2) N², so the tail is below ζ(2) Σ_{N>=m} N x^N
    = ζ(2) x^m (m/(1-x) + x/(1-x)²), which decreases strictly in m.
    1 - x is taken as -expm1(-τ), which stays positive where x rounds to 1.
    """
    x = mp.exp(-tau)
    inv = 1 / -mp.expm1(-tau)
    return lambda m: _ZETA2_UPPER * x ** m * (m * inv + x * inv * inv)


def _logf_term_count(tau: HPReal, cutoff: HPReal, cap: int) -> int:
    """Smallest M with tail(M + 1) < cutoff, or cap + 1 when M would exceed cap."""
    tail = _logf_tail_bound(tau)
    if tail(cap + 1) >= cutoff:
        return cap + 1
    lo, hi = 0, cap  # tail(lo + 1) >= cutoff > tail(hi + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail(mid + 1) < cutoff:
            hi = mid
        else:
            lo = mid
    return hi


def _logf_tau_floor(cutoff: HPReal, cap: int) -> str:
    """The smallest τ in (0, 1], rounded up to 3 digits, whose sum fits in cap terms."""
    def fits(tau):
        return _logf_tail_bound(tau)(cap + 1) < cutoff

    lo, hi = mp.mpf(0), mp.mpf(1)
    if not fits(hi):
        return "none: even tau=1 needs more terms"
    while hi - lo > hi * mp.mpf("1e-6"):
        mid = (lo + hi) / 2
        if fits(mid):
            hi = mid
        else:
            lo = mid
    step = mp.mpf(10) ** (int(mp.floor(mp.log10(hi))) - 2)
    return f"{float(mp.ceil(hi / step) * step):.3g}"


def logf_expansion_check(tau, zeros: Sequence[ZetaZero] = (),
                         ctx: PrecisionContext = PrecisionContext()) -> ExpansionCheck:
    """Compare log f(e^(-τ)) computed two ways, for 0 < τ <= 1.

    direct:    log f(x) = Σ_n φ(n) Σ_j x^(jn)/j = Σ_{N>=1} (b(N)/N) x^N at
               x = e^(-τ), with b(N) = Σ_{d|N} d φ(d) the [0, 1) counting
               weights, ``log_derivative_weights(SlopeRange.HALF_OPEN_01, M)``
               (:func:`npcount.counting.log_derivative_weights`);
    expansion: (C/2) τ^(-2) + Σ_γ 2 Re(c_γ τ^(-γ)) - (1/6) log τ + log K
               (the τ^(-2) residue, the zero oscillation, and the
               double-pole residue at 0);
    residual:  direct - expansion, the part the expansion drops —
               O(τ^(2-ε)) as τ -> 0.

    The direct series stops after M = ``terms`` terms, the least M whose
    tail bound Z x^(M+1) ((M+1)/(1-x) + x/(1-x)²) is below
    ε = 2^(-bits-guard); the bound holds as b(N) < ζ(2) N² and
    Z = 33/20 > ζ(2). M is known before any summing, so a τ that would
    need more than ``_DIRECT_SUM_MAX_TERMS`` terms raises
    :class:`TruncationError` at once, naming the smallest τ that fits.

    The M terms are summed in fixed point at P = bits + guard + 3 L + 2
    bits, L = bit length of M: X = round(x 2^P), x^N is carried as
    xn_N = floor(xn_(N-1) X / 2^P), and term N adds floor(b(N) xn_N / N).
    With ξ = X/2^P, |ξ - x| <= 2^-P (x is computed at P + 8 bits) and
    0 <= ξ^N - xn_N/2^P < (N-1) 2^-P, so |xn_N/2^P - x^N| < 2N 2^-P and
    term N is off by less than (2 b(N) + 1) 2^-P. As Σ_{N<=M} b(N)
    <= M Σ_{d<=M} φ(d) <= M²(M+1)/2, the M terms together are off by less
    than 3 M³ 2^-P < ε. With the tail, direct is within 2ε of log f(x);
    since log f(x) >= x/(1-x) >= 1/(2τ) >= 1/2, that is a relative error
    below 2^(2-bits-guard).

    C and K enter the expansion at bits + guard, not rounded to bits: the
    residual cancels the leading digits of (C/2) τ^(-2).
    """
    wide = PrecisionContext(ctx.bits + GUARD_BITS)
    C = constant_C(wide)
    K = constant_K(wide)
    with ctx.working():
        tau = mp.mpf(tau)
        if not 0 < tau <= 1:
            raise ValueError("tau must be in (0, 1]")
        cutoff = mp.mpf(2) ** (-(ctx.bits + GUARD_BITS))
        cap = _DIRECT_SUM_MAX_TERMS
        n_max = _logf_term_count(tau, cutoff, cap)
        if n_max > cap:
            raise TruncationError(
                f"direct sum at tau={mp.nstr(tau, 6)} needs more than {cap} terms; "
                f"the smallest tau that fits at {ctx.bits} bits is "
                f"{_logf_tau_floor(cutoff, cap)}")
        terms = _zero_terms(zeros, ctx)

        prec = ctx.bits + GUARD_BITS + 3 * n_max.bit_length() + 2
        with mp.workprec(prec + 8):
            X = int(mp.nint(mp.ldexp(mp.exp(-tau), prec)))
        b = log_derivative_weights(SlopeRange.HALF_OPEN_01, n_max)
        acc = 0
        xn = X
        for N in range(1, n_max + 1):
            acc += b[N] * xn // N
            xn = (xn * X) >> prec
        direct = mp.ldexp(mp.mpf(acc), -prec)

        expansion = (C / 2 / tau ** 2
                     + _oscillation_at_tau(tau, terms)
                     - mp.log(tau) / 6 + mp.log(K))
        return ExpansionCheck(
            tau=ctx.round(tau),
            direct=ctx.round(direct),
            expansion=ctx.round(expansion),
            residual=ctx.round(direct - expansion),
            terms=n_max,
        )
