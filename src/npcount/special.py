"""High-precision Γ, ζ and ζ′ on the complex plane, plus the growth constants.

Every evaluation is mpmath's:

* :func:`complex_gamma` is ``mp.gamma``;
* :func:`complex_zeta` is ``mp.zeta``;
* :func:`zeta_derivative` is ``mp.zeta(s, derivative=1)``;
* :func:`zeta_with_derivative` is the pair of the two ζ calls;
* :func:`bernoulli_even` is ``mp.bernfrac``;
* :func:`constant_C` and :func:`constant_K` are ``mp.zeta`` at 3, 2 and -1.

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
from fractions import Fraction

import mpmath as mp

from .precision import HPComplex, HPReal, PrecisionContext


class PoleError(ArithmeticError):
    """Evaluation was requested at (or too close to) a pole."""


def bernoulli_even(count: int) -> list[Fraction]:
    """[B_2, B_4, ..., B_{2*count}] as exact rationals."""
    return [Fraction(*mp.bernfrac(2 * n)) for n in range(1, count + 1)]


def _near_nonpositive_integer(s: HPComplex, bits: int) -> bool:
    re = mp.re(s)
    if re > 0.25:
        return False
    nearest = mp.floor(re + mp.mpf(1) / 2)
    if nearest > 0:
        return False
    tol = mp.mpf(2) ** (8 - bits) * max(1, abs(s))
    return abs(s - nearest) <= tol


def _check_zeta_pole(s: HPComplex, bits: int) -> None:
    tol = mp.mpf(2) ** (8 - bits)
    if abs(s - 1) <= tol:
        raise PoleError("zeta pole at s = 1")


def _mirrored(f, s: HPComplex, ctx: PrecisionContext) -> HPComplex:
    """f(s) rounded by ctx; for ℑ(s) < 0, conj(f(conj s)) instead."""
    if mp.im(s) < 0:
        return ctx.round(mp.conj(mp.mpc(f(mp.conj(s)))))
    return ctx.round(mp.mpc(f(s)))


def complex_gamma(s, ctx: PrecisionContext = PrecisionContext()) -> HPComplex:
    """Γ(s) with relative error ≤ 2**(8 - bits).

    Raises PoleError within machine tolerance of a non-positive integer.
    """
    with ctx.working():
        s = mp.mpc(s)
        if _near_nonpositive_integer(s, ctx.bits):
            raise PoleError(f"gamma pole at non-positive integer near {s}")
        return _mirrored(mp.gamma, s, ctx)


def complex_zeta(s, ctx: PrecisionContext = PrecisionContext()) -> HPComplex:
    """ζ(s) anywhere on the plane except s = 1, relative error ≤ 2**(8 - bits)."""
    with ctx.working():
        s = mp.mpc(s)
        _check_zeta_pole(s, ctx.bits)
        return _mirrored(mp.zeta, s, ctx)


def zeta_derivative(s, ctx: PrecisionContext = PrecisionContext()) -> HPComplex:
    """ζ′(s), same domain and error contract as :func:`complex_zeta`."""
    with ctx.working():
        s = mp.mpc(s)
        _check_zeta_pole(s, ctx.bits)
        return _mirrored(lambda z: mp.zeta(z, derivative=1), s, ctx)


def zeta_with_derivative(s, ctx: PrecisionContext = PrecisionContext()) -> tuple[HPComplex, HPComplex]:
    """(ζ(s), ζ′(s)): :func:`complex_zeta` and :func:`zeta_derivative` at one point."""
    return complex_zeta(s, ctx), zeta_derivative(s, ctx)


@functools.lru_cache(maxsize=None)
def _constants(bits: int) -> tuple[HPReal, HPReal]:
    ctx = PrecisionContext(bits)
    with ctx.working():
        c = 2 * mp.zeta(3) / mp.zeta(2)
        k = mp.exp(-2 * mp.zeta(-1, derivative=1) - mp.log(2 * mp.pi) / 6)
        return ctx.round(c), ctx.round(k)


def constant_C(ctx: PrecisionContext = PrecisionContext()) -> HPReal:
    """C = 2 ζ(3)/ζ(2) = 1.4615..., the cube of the saddle scale."""
    return _constants(ctx.bits)[0]


def constant_K(ctx: PrecisionContext = PrecisionContext()) -> HPReal:
    """K = exp(-2 ζ′(-1) - log(2π)/6) = 1.0248..."""
    return _constants(ctx.bits)[1]
