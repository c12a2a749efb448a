"""High-precision Γ, ζ and ζ′ on the complex plane, plus the growth constants.

Γ is mpmath's; ζ and ζ′ in the critical strip come from a Borwein pass of
its own:

* :func:`complex_gamma` is ``mp.gamma``;
* :func:`complex_zeta`, :func:`zeta_derivative` and
  :func:`zeta_with_derivative` take ζ and ζ′ for
  1/2 <= ℜ s <= bits and |ℑ s| <= :data:`BORWEIN_MAX_HEIGHT` from one
  fixed-point pass of Borwein's algorithm that sums η and η′ together
  (:func:`_zeta_pair`); elsewhere they are ``mp.zeta(s, derivative=k)``;
* :func:`constant_C` is ``mp.zeta`` at 3 and 2, where mpmath divides by
  (k+1)^s in integers, over ten times faster than the pass, and caches the
  value; :func:`constant_K` takes ζ′(2) from the pass (one pass at t = 0,
  3-4 ms cold at 224 bits, where mpmath's ζ′(-1) took 14-17 ms).

mpmath takes ζ′ from Euler–Maclaurin sums on ``mpc`` objects, at 1.5 to 5
times the cost of its fixed-point Borwein ζ at the same point; the pass,
which takes each power (k+1)^-s from those of the primes, gives both for
a quarter to three fifths of the cost of that ζ (best of three at 224
bits, ℜ s = 1/2 and 3/2, |ℑ s| from 14 to 237: 0.8–3.8 ms against
1.4–15 ms). A bundled zero costs the program one pass up to 213 bits,
the first 25 up to 214: its seed already holds the working precision
(245 to 249 bits, W = bits + 32), so the pass is the check at the
refined t (:func:`zeta_with_derivative` with ``shifted=True``), which
also sums ζ at s + 1 from the same powers and weights. That pass gives
the ζ′(γ) that c_γ divides by and the ζ(γ+1) of its residue, for less
than two passes of their own (best of five over the first 25 zeros: 30
against 52 ms at 192 bits, 0.35 against 0.70 s at 1024). A seed good to
fewer bits first climbs Newton's ladder, one pass per rung. Only the
check's pass is cached, (ζ, ζ′) at γ and ζ at γ + 1 keyed by (point,
context), so the residue's calls at γ and γ + 1 cost no pass; any other
call pays its own pass. With the bundled
zeros the pass never runs at |ℑ s| > 237: no command or benchmark
workload reaches the edge ℜ s = bits or |ℑ s| = :data:`BORWEIN_MAX_HEIGHT`,
which only the tests check.

The wrappers add four things. They raise :class:`PoleError` within
machine tolerance of a pole instead of returning garbage. They evaluate
arguments in the lower half-plane as conjugates of their mirror image, so
Schwarz reflection (f(conj s) = conj f(s)) holds bit-exactly. They compute
at bits + guard under a :class:`~npcount.precision.PrecisionContext` and
round to its nominal precision, so a fixed context and fixed inputs give
bit-identical results. And they keep the contract that the relative error
of every public operation is at most 2**(8 - bits) away from zeros/poles
of the target function.
"""
from __future__ import annotations

import functools
import math

import mpmath as mp
from mpmath.libmp import isqrt_fast, ln2_fixed, log_int_fixed, pi_fixed, to_fixed
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed

from .counting import smallest_prime_factors
from .precision import GUARD_BITS, HPComplex, HPReal, PrecisionContext


#: Largest |ℑ s| at which ζ and ζ′ come from the Borwein pass, whose term
#: count grows as 0.9 |ℑ s|, faster than Euler–Maclaurin's. Best of three
#: on the critical line, the pass against mpmath's ζ + ζ′: at 96 bits of
#: working precision 24 vs 27 + 41 ms at |ℑ s| = 2000 and 43 vs 27 + 54 ms
#: at 3000; at 1056 bits 135 vs 228 + 394 ms and 248 vs 219 + 365 ms. The
#: pass wins at 3000 too, but raising the bound would move the heights
#: above 2000 from mpmath's route to the pass: a change of route, and of
#: output bits, to be measured on its own.
BORWEIN_MAX_HEIGHT = 2000


class PoleError(ArithmeticError):
    """Evaluation was requested at (or too close to) a pole."""


def _near_nonpositive_integer(s: HPComplex, bits: int) -> bool:
    re = mp.re(s)
    if re > 0.25:
        return False
    nearest = mp.floor(re + mp.mpf(1) / 2)  # <= 0, as re <= 1/4
    tol = mp.mpf(2) ** (8 - bits) * max(1, abs(s))
    return abs(s - nearest) <= tol


def _mirrored(f, s: HPComplex, ctx: PrecisionContext) -> tuple:
    """The tuple f(s), each entry rounded by ctx; for ℑ(s) < 0, conj(f(conj s))."""
    flip = mp.im(s) < 0
    v = f(mp.conj(s) if flip else s)
    return tuple(ctx.round(mp.conj(mp.mpc(x)) if flip else mp.mpc(x)) for x in v)


def _in_borwein_strip(s: HPComplex, bits: int) -> bool:
    # ℜ s <= bits caps the ℜ s extra bits the pass spends because |ζ′| falls
    # like 2^-ℜ s. Best of three at t = 14.13, pass against mpmath's ζ + ζ′:
    # at ℜ s = bits 0.9 vs 3.6 ms (64 bits) and 67 vs 138 ms (1024 bits),
    # at ℜ s = 4·bits 1.4 vs 2.4 ms and 863 vs 74 ms.
    return 0.5 <= mp.re(s) <= bits and abs(mp.im(s)) <= BORWEIN_MAX_HEIGHT


def _powers(n: int, ref: int, imf: int, wp: int, critical: bool) -> tuple[list[int], list[int], list[int]]:
    """(ℜ j^-s, ℑ j^-s, ln j) for j = 0..n in fixed point at wp bits (entry 0 unused).

    j^-s = e^(-σ ln j) e^(-it ln j) and ln j are completely multiplicative
    in j, so they come from the primes of :func:`~.counting.smallest_prime_factors`:
    a prime p costs a log, a power (a square root on σ = 1/2, else an exp) and
    a cos/sin, and a composite j = p·m (p its least prime factor) one complex
    product of the entries for p and m, with ln j = ln p + ln m; σ = ref, t = imf.
    """
    spf = smallest_prime_factors(n)
    one_2wp = 1 << (2 * wp)
    ln2, pi2 = ln2_fixed(wp), pi_fixed(wp - 1)
    re, im, logs = [0, 1 << wp] + [0] * (n - 1), [0] * (n + 1), [0] * (n + 1)
    for j in range(2, n + 1):
        p = spf[j]
        if not p:
            log = log_int_fixed(j, wp, ln2)
            if critical:  # j^-1/2 by a square root, much cheaper than exp
                w = one_2wp // isqrt_fast(j << (2 * wp))
            else:
                w = exp_fixed((-ref * log) >> wp, wp, ln2)
            c, si = cos_sin_fixed((-imf * log) >> wp, wp, pi2)
            re[j], im[j], logs[j] = (w * c) >> wp, (w * si) >> wp, log
        else:
            m = j // p
            a, b, c, d = re[p], im[p], re[m], im[m]
            re[j], im[j], logs[j] = (a * c - b * d) >> wp, (a * d + b * c) >> wp, logs[p] + logs[m]
    return re, im, logs


def _shifted(s: HPComplex) -> HPComplex:
    """s + 1, added exactly."""
    return mp.mpc(mp.fadd(mp.re(s), 1, exact=True), mp.im(s))


def _zeta_pair(s: HPComplex, shifted: bool = False) -> tuple[HPComplex, ...]:
    """(ζ(s), ζ′(s)), then ζ(s+1) if shifted, at mp.prec = W.

    The pass takes 1/2 <= σ = ℜ s and t = ℑ s >= 0.

    One fixed-point pass of Borwein's algorithm (P. Borwein, *An efficient
    algorithm for the Riemann zeta function*, 2000) sums, with the weights
    w_k = (d_n - d_k)/d_n in [0, 1],

        η(s) = Σ_{k<n} (-1)^k w_k (k+1)^-s,  η′(s) = -Σ_{k<n} (-1)^k w_k ln(k+1) (k+1)^-s,

    sharing each term's log and power between the two sums, and returns
    ζ = η/q and ζ′ = (η′ - ζ q′)/q with q = 1 - 2^(1-s), q′ = 2^(1-s) ln 2.
    The powers and logs come from :func:`_powers`: one cos/sin per prime
    p <= n rather than one per term. The weights depend on n alone and
    (k+1)^-(s+1) = (k+1)^-s/(k+1), so a shifted pass sums η at s + 1 in
    the same loop, from each term at s divided by k + 1.

    Weights. d_k = Σ_{i<=k} a_i with a_i = n (n+i-1)! 4^i / ((n-i)! (2i)!),
    the integers of ``libmp.gammazeta.borwein_coefficients``. The loop runs
    k downwards from n - 1, so d_n - d_k = a_n + ... + a_(k+1) builds up
    from a_n = 2^(2n-1) through a_k = a_(k+1) (2k+2)(2k+1) / (4 (n+k)(n-k)),
    and ends at d_n. No list outlives the call: mpmath's module cache would
    hold every n's weight list (about 2.54 n² bits) for good, and n moves
    with t and W.

    Truncation. η(z)Γ(z) = ∫_0^1 (-ln u)^(z-1)/(1+u) du, and the pass is
    that integral with 1/(1+u) replaced through a polynomial p_n with
    |p_n| <= 1 on [0, 1] and p_n(-1) = d_n >= (3+√8)^n/2, so for ℜ z > 0
    its error is at most 2 R(z)/(3+√8)^n with R(z) = Γ(ℜ z)/|Γ(z)|.
    R grows with |ℑ z|, falls with ℜ z, R(1/2 + it) <= e^(π|t|/2) and
    R(1/4 + it) <= 2.1 (|t|+2)^(1/4) R(1/2 + it) (from the product
    R² = Π_k (1 + t²/(ℜ z + k)²)). Cauchy's estimate on the circle of
    radius 1/4 about s, where ℜ z >= 1/4, bounds η′'s error by
    4·2·2.1·e^(π/8) (|t|+9/4)^(1/4) e^(π|t|/2)/(3+√8)^n; so both errors are
    below 2^-E once

        n >= (E + 5 + log2(|t| + 3)/4 + log2(e^(π/2)) |t|) / log2(3 + √8),

    which is mpmath's n = wp/2.54 + 5 + 0.9|t| for ζ alone, with the
    Cauchy allowance added. The bound falls as ℜ z grows at fixed ℑ z, so
    it holds at s + 1 whenever it holds at s for the same E.

    Target. The absolute errors of η and η′ are held to 2^-E with
    E = W + ⌈σ⌉ + 2 l, where 2^-l <= |q| (l = 2 - mag q, q estimated at
    W): ζ′ divides η′ by q and η by q², and |ζ′(s)| is of order 2^-σ for
    large σ. A shifted pass takes E, and so n and wp, as the larger of the
    two points' sizes (E at s + 1 still counts the ζ′ that is no longer
    summed there, so the values at s and s + 1 stay those of the pass that
    summed it).

    Rounding. The sums run in integers at wp bits, u = 2^-wp. For a prime
    p <= n, ln p is good to u, p^-σ to 4u, the angle t ln p to (|t| + 1)u
    and its reduction mod 2π to |t| ln n·u, so with cos/sin and the
    product p^-s is good to e = (|t|(1 + ln n) + 10)u. Every entry has
    modulus at most 1, so the product that gives j = p·m adds the errors
    of p^-s and m^-s and at most 2u of its own, and the sum that gives
    ln j adds theirs: an entry with Ω(j) <= log2 n prime factors is good
    to Ω(j)(e + 2u), its log to Ω(j)u. So each term of η is good to
    log2 n (e + 2u) and each term of η′ to (1 + ln n) times that; n terms
    then stay below 2^-E once

        wp = E + ⌈log2(n (1 + ln n) log2 n (|t| (1 + ln n) + 12))⌉.

    A term at s + 1 is the integer term at s floored after its division by
    k + 1: it carries that term's error over k + 1 and adds less than one
    unit of the unnormalised sum, 2^-wp/d_n once the sum is divided by d_n.
    So each term at s + 1 is no worse than its term at s, and the same wp
    holds for both points.
    """
    prec = mp.mp.prec
    sigma, t = mp.re(s), mp.im(s)
    tf = float(t)
    points = (s, _shifted(s)) if shifted else (s,)
    target = max(prec + int(mp.ceil(mp.re(z))) + 2 * max(0, 2 - mp.mag(1 - mp.power(2, 1 - z)))
                 for z in points)
    n = math.ceil((target + 5 + math.log2(tf + 3) / 4 + math.pi / (2 * math.log(2)) * tf)
                  / math.log2(3 + math.sqrt(8)))
    ln_n = math.log(n)
    wp = target + math.ceil(math.log2(n * (1 + ln_n) * math.log2(n) * (tf * (1 + ln_n) + 12)))
    re_j, im_j, log_j = _powers(n, to_fixed(sigma._mpf_, wp), to_fixed(t._mpf_, wp), wp, sigma == 0.5)
    e_re = e_im = de_re = de_im = 0
    f_re = f_im = 0  # η at s + 1
    a = tail = 1 << (2 * n - 1)  # a_n and d_n - d_(n-1)
    for k in range(n - 1, -1, -1):
        j, log = k + 1, log_j[k + 1]
        w = tail if k & 1 else -tail
        re, im = w * re_j[j], w * im_j[j]
        e_re += re
        e_im += im
        de_re += re * log
        de_im += im * log
        if shifted:
            f_re += re // j
            f_im += im // j
        a = a * (2 * k + 2) * (2 * k + 1) // (4 * (n + k) * (n - k))
        tail += a  # d_n - d_(k-1), and d_n once k = 0
    dn = tail
    with mp.workprec(wp):
        p = mp.power(2, 1 - s)
        q = 1 - p
        zeta = mp.mpc(mp.mpf((e_re // -dn, -wp)), mp.mpf((e_im // -dn, -wp))) / q
        deta = mp.mpc(mp.mpf((de_re // dn, -2 * wp)), mp.mpf((de_im // dn, -2 * wp)))
        out = (zeta, (deta - zeta * p * mp.ln2) / q)
        if shifted:
            eta = mp.mpc(mp.mpf((f_re // -dn, -wp)), mp.mpf((f_im // -dn, -wp)))
            out += (eta / (1 - mp.power(2, 1 - points[1])),)
    return out


#: (ζ, ζ′) at γ and (ζ,) at γ + 1 by (point, context), written only by the
#: residual check's shifted pass at a refined zero γ, oldest first: c_γ
#: reads ζ′(γ) and ζ(γ+1) back without a pass of its own. Two entries per
#: zero hold every zero of the strip (1518 have t <= 2000) at one precision.
_pass_cache: dict = {}
_PASS_CACHE_SIZE = 2 * 1518


def _zeta(s, ctx: PrecisionContext, orders: tuple[int, ...], shifted: bool = False) -> tuple[HPComplex, ...]:
    """(ζ^(k)(s) for k in orders), orders ⊆ (0, 1), each rounded by ctx.

    A cached (s, ctx) that holds every order asked for costs no pass;
    otherwise one pass in the strip, else mp.zeta. shifted: an in-strip
    pass also sums ζ at s + 1 and caches (ζ, ζ′) at s and (ζ,) at s + 1;
    no other pass is cached, so ζ′ at s + 1 costs a pass of its own.
    """
    with ctx.working():
        s = mp.mpc(s)
        if abs(s - 1) <= mp.mpf(2) ** (8 - ctx.bits):
            raise PoleError("zeta pole at s = 1")
        key = (s, ctx)
        pair = _pass_cache.get(key, ())
        if len(pair) <= max(orders):
            if not _in_borwein_strip(s, ctx.bits):
                return _mirrored(lambda z: [mp.zeta(z, derivative=k) for k in orders], s, ctx)
            values = _mirrored(lambda z: _zeta_pair(z, shifted), s, ctx)
            pair = values[:2]
            if shifted:
                _pass_cache[key], _pass_cache[(_shifted(s), ctx)] = pair, values[2:]
                while len(_pass_cache) > _PASS_CACHE_SIZE:
                    del _pass_cache[next(iter(_pass_cache))]
        return tuple(pair[k] for k in orders)


def complex_gamma(s, ctx: PrecisionContext = PrecisionContext()) -> HPComplex:
    """Γ(s) with relative error ≤ 2**(8 - bits).

    Raises PoleError within machine tolerance of a non-positive integer.
    """
    with ctx.working():
        s = mp.mpc(s)
        if _near_nonpositive_integer(s, ctx.bits):
            raise PoleError(f"gamma pole at non-positive integer near {s}")
        return _mirrored(lambda z: (mp.gamma(z),), s, ctx)[0]


def complex_zeta(s, ctx: PrecisionContext = PrecisionContext()) -> HPComplex:
    """ζ(s) anywhere on the plane except s = 1, relative error ≤ 2**(8 - bits)."""
    return _zeta(s, ctx, (0,))[0]


def zeta_derivative(s, ctx: PrecisionContext = PrecisionContext()) -> HPComplex:
    """ζ′(s), same domain and error contract as :func:`complex_zeta`."""
    return _zeta(s, ctx, (1,))[0]


def zeta_with_derivative(s, ctx: PrecisionContext = PrecisionContext(),
                         shifted: bool = False) -> tuple[HPComplex, HPComplex]:
    """(ζ(s), ζ′(s)) at one point, with the contract of :func:`complex_zeta`.

    Both come from the route that :func:`complex_zeta` and
    :func:`zeta_derivative` take at s (one Borwein pass in the strip), and
    are bit-identical to them; asked for separately, they cost a pass each.
    shifted, for the check at a refined zero γ = s: in the strip the one
    pass also sums ζ at s + 1, and caches (ζ, ζ′) at s and ζ at s + 1, so
    the zero's c_γ reads ζ′(γ) and ζ(γ + 1) from the cache. Elsewhere it
    changes nothing.
    """
    return _zeta(s, ctx, (0, 1), shifted)


@functools.lru_cache(maxsize=None)
def _constants(bits: int) -> tuple[HPReal, HPReal]:
    """(C, K); log K = -2 ζ′(-1) - log(2π)/6 = (γ_E - 1 - ζ′(2)/ζ(2))/6.

    The second form follows from ζ′(-1) = 1/12 - log A and
    ζ′(2)/ζ(2) = γ_E + log 2π - 12 log A (A Glaisher's constant). ζ′(2)
    is one pass at t = 0, taken at bits + guard so K rounds as from ζ′(-1).
    """
    ctx = PrecisionContext(bits)
    with ctx.working():
        z2 = mp.zeta(2)
        c = 2 * mp.zeta(3) / z2
        zd2 = mp.re(zeta_derivative(2, PrecisionContext(bits + GUARD_BITS)))
        k = mp.exp((mp.euler - 1 - zd2 / z2) / 6)
        return ctx.round(c), ctx.round(k)


def constant_C(ctx: PrecisionContext = PrecisionContext()) -> HPReal:
    """C = 2 ζ(3)/ζ(2) = 1.4615..., the cube of the saddle scale."""
    return _constants(ctx.bits)[0]


def constant_K(ctx: PrecisionContext = PrecisionContext()) -> HPReal:
    """K = exp(-2 ζ′(-1) - log(2π)/6) = 1.0248..."""
    return _constants(ctx.bits)[1]
