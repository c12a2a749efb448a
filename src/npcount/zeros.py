"""Catalog of non-trivial zeta zeros on the critical line.

Zeros are stored by their positive imaginary part t only (the conjugate
at -t is implicit; downstream oscillation sums double real parts). A
bundled table ships the first 100 zeros to 20 decimal places as Newton
seeds, and :func:`refine_zero` polishes any seed to working precision, so
results never depend on the seed table's accuracy.

Refinement is Newton's method on a precision ladder (Brent & Zimmermann,
*Modern Computer Arithmetic*, 2010, §4.2): each step roughly doubles the
bits of t that are right, so each step evaluates ζ and ζ′ at only about
twice the bits the iterate already has, and only the last one at the
full working precision.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable

import mpmath as mp

from .precision import GUARD_BITS, MIN_BITS, HPReal, PrecisionContext
from .special import zeta_at_zero, zeta_derivative, zeta_with_derivative

#: After refinement, |ζ(1/2 + i t)| <= 2**(RESIDUAL_MARGIN - bits) plus the
#: |ζ′| |Δt| that rounding t to bits adds (see :func:`refine_zero`).
RESIDUAL_MARGIN = 24

MAX_NEWTON_ITERATIONS = 60

#: Bits a Newton step falls short of doubling (the first zeros lose 6-8)
#: and the first rung's height above half the working precision.
LADDER_MARGIN = 8

#: Zero tables are parsed at 256 bits, far past their 20 decimal places.
_TABLE_PRECISION = PrecisionContext(256)


class ZeroFileError(ValueError):
    """Malformed zero table file."""


class NonConvergenceError(ArithmeticError):
    """Newton refinement failed to reach the target residual."""


@dataclass(frozen=True)
class ZetaZero:
    """A zero 1/2 + i t with t > 0; `bits` is the precision t was refined at.

    A seed from a zero table has ``bits=None``. :func:`refine_catalog` is
    the only place where a zero is refined: every consumer of t, the
    residue coefficients included, takes its zeros through it, and it
    refines again every zero whose `bits` differ from the working
    precision, so a t refined at one precision is never used at another.
    """

    t: HPReal
    bits: int | None = None


def load_zeros(path) -> list[ZetaZero]:
    """Parse a zero table: one finite decimal t > 0 per line, '#' comments, strictly increasing."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ZeroFileError(f"{path}: not UTF-8 text: {exc}") from None
    return _parse_zero_table(text, str(path))


def bundled_zeros() -> list[ZetaZero]:
    """The packaged table of the first 100 zeros (20 decimal places)."""
    text = resources.files("npcount.data").joinpath("zeta_zeros.txt").read_text("utf-8")
    return _parse_zero_table(text, "<bundled>")


def _parse_zero_table(text: str, origin: str) -> list[ZetaZero]:
    zeros: list[ZetaZero] = []
    prev = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            t = _TABLE_PRECISION.real(line)
        except ValueError:
            raise ZeroFileError(f"{origin}:{lineno}: not a decimal number: {line!r}") from None
        if not t > 0:
            raise ZeroFileError(f"{origin}:{lineno}: t must be positive, got {line!r}")
        if prev is not None and not t > prev:
            raise ZeroFileError(f"{origin}:{lineno}: values must be strictly increasing")
        zeros.append(ZetaZero(t))
        prev = t
    return zeros


def _refine_history(t0, ctx: PrecisionContext) -> tuple[HPReal, list[HPReal]]:
    """Newton-iterate t -> t - Re[ζ / (i ζ′)] at s = 1/2 + i t; returns (t, residuals).

    residuals holds |ζ| at each iterate, the last one from the check at the
    returned t. See :func:`refine_zero` for the precision of each step.
    """
    full = ctx.bits + GUARD_BITS
    floor = MIN_BITS + GUARD_BITS
    with ctx.working():
        t = mp.mpf(t0)
        target = mp.mpf(2) ** (RESIDUAL_MARGIN - ctx.bits)
        half = mp.mpf(1) / 2
        residuals: list[HPReal] = []
        prec = max(floor, full // 2 + LADDER_MARGIN)
        for _ in range(MAX_NEWTON_ITERATIONS):
            z, zd = zeta_with_derivative(mp.mpc(half, t), PrecisionContext(prec - GUARD_BITS))
            residuals.append(abs(z))
            step = mp.re(z / (mp.mpc(0, 1) * zd))
            t -= step
            good = mp.mag(t) - mp.mag(step) if step else prec  # bits t had before the step
            if prec == full and 2 * good >= full:
                rounded = ctx.round(t)
                s = mp.mpc(half, rounded)
                r = abs(zeta_at_zero(s, ctx))
                residuals.append(r)
                # rounding alone moves |ζ| by about |ζ′| |rounded - t|, which no
                # further step removes once |ζ′| t >~ 2^24; ζ′ only if ζ misses
                if r <= target or r <= target + abs(zeta_derivative(s, ctx)) * abs(rounded - t):
                    return rounded, residuals
            prec = min(full, max(floor, 2 * (min(2 * good, prec) - LADDER_MARGIN)))
        raise NonConvergenceError(
            f"zero refinement from t0={mp.nstr(mp.mpf(t0), 12)} did not reach "
            f"|zeta| <= 2^{RESIDUAL_MARGIN - ctx.bits} in {MAX_NEWTON_ITERATIONS} iterations")


def refine_zero(t0, ctx: PrecisionContext = PrecisionContext()) -> HPReal:
    """Refine a seed t0 (accurate to ~1e-3) to |ζ(1/2 + i t)| <= 2**(24 - bits) + |ζ′| |Δt|.

    Each step evaluates ζ and ζ′ at its own precision w, and t is carried
    at the working precision W = bits + guard. The first step runs at
    w = W/2 + 8. A step whose correction is δ started from a t good to
    g = log2(t/|δ|) bits and leaves it good to min(2g - 8, w - 3) bits (as
    measured at the bundled zeros, which lose 6 to 8 bits to the Newton
    constant), so the next step runs at w = 2 (min(2g, w) - 8), capped at W.
    A step at W from g >= W/2 is the last: it leaves an error of about
    K δ² <= K t² 2^-W, K = |ζ″/2ζ′|, so t is good to W - log2(K t)
    >= bits + 24 bits at the bundled zeros before it is rounded to bits.
    One pass at W then checks the t it returns, t rounded to bits: it
    accepts when |ζ(1/2 + i t)| <= 2**(24 - bits) + |ζ′| |Δt|, where Δt is
    the rounding of the W-bit iterate. The second term is the residual
    that rounding alone leaves, about |ζ′| t 2^-bits; it is below 2**(24 -
    bits) at the bundled zeros, so there the check reads ζ alone, but not
    once |ζ′| t >~ 2^24 (near t = 1.6e6 with |ζ′| = 26), where no further
    step could lower it. A t that fails the check takes further steps at
    W. The check's pass (:func:`~npcount.special.zeta_at_zero`) also sums
    s + 1 from the same powers table, so it leaves ζ′ at the returned t and
    ζ at 3/2 + i t in the kernel's cache, and the zero's c_γ reads both
    there: a bundled zero costs three passes, two Newton steps and the
    check. Above the strip the check and c_γ use mpmath's ζ instead.
    """
    return _refine_history(t0, ctx)[0]


def refine_catalog(zeros: Iterable[ZetaZero], ctx: PrecisionContext = PrecisionContext()) -> list[ZetaZero]:
    """Refine every zero not refined at ctx.bits; zeros refined at ctx.bits pass through.

    Refined t that are not strictly increasing (two seeds Newton took to one
    zero, whose oscillation would count twice, or out of order) raise
    :class:`NonConvergenceError` naming both seeds and the t they reached.
    """
    seeds = list(zeros)
    out = [z if z.bits == ctx.bits else ZetaZero(refine_zero(z.t, ctx), ctx.bits) for z in seeds]
    for i in range(1, len(out)):
        if not out[i - 1].t < out[i].t:
            raise NonConvergenceError(
                f"zero seeds t0={mp.nstr(seeds[i - 1].t, 12)} and t0={mp.nstr(seeds[i].t, 12)} "
                f"refine to t={mp.nstr(out[i - 1].t, 15)} and t={mp.nstr(out[i].t, 15)}; "
                "refined zeros must be strictly increasing")
    return out

