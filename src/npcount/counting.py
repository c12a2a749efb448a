"""Exact counting sequences for the three supported slope ranges.

The count of height-n polygons with slopes in a range I is the x^n
coefficient of the product over admissible segment runs m of
(1 - x^m)^(-e(m)), where e(m) is the number of admissible slopes with
denominator m. Coefficients are extracted with the log-derivative
(Euler-transform) recurrence

    n * a(n) = sum_{k=1..n} b(k) * a(n-k),   b(k) = sum_{d|k} d * e(d),

in exact arbitrary-size integers; the division by n must come out exact
and is asserted.

The weights b(k) are shared with the asymptotic side: since
log F = Σ_k (b(k)/k) x^k, :func:`log_derivative_weights` over the [0, 1)
exponents e = φ also gives the direct series of log f(e^(-τ)) that
:func:`npcount.asymptotics.logf_expansion_check` sums.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import mul
from typing import Sequence


class SlopeRange(enum.Enum):
    """The three supported slope intervals."""

    HALF_OPEN_01 = "half-open"   # [0, 1)
    CLOSED_01 = "closed"         # [0, 1]
    CLOSED_0_HALF = "half"       # [0, 1/2]


def totient_sieve(limit: int) -> list[int]:
    """Euler's totient for 1..limit; returned list is indexed by n (index 0 unused)."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    phi = list(range(limit + 1))
    for i in range(2, limit + 1):
        if phi[i] == i:  # i is prime
            for j in range(i, limit + 1, i):
                phi[j] -= phi[j] // i
    phi[0] = 0
    return phi


def segment_exponents(slope_range: SlopeRange, limit: int) -> list[int]:
    """e(m) = #{n : n/m in range, gcd(m, n) = 1} for m = 1..limit.

    [0,1):   e(m) = φ(m)
    [0,1]:   e(1) = 2 (the extra slope-1 segment), else φ(m)
    [0,1/2]: e(1) = e(2) = 1, else φ(m)/2 (coprime residues pair n ↔ m-n)
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    phi = totient_sieve(limit)
    if slope_range is SlopeRange.HALF_OPEN_01:
        e = phi[:]
    elif slope_range is SlopeRange.CLOSED_01:
        e = phi[:]
        e[1] = 2
    elif slope_range is SlopeRange.CLOSED_0_HALF:
        e = [0] * (limit + 1)
        e[1] = 1
        if limit >= 2:
            e[2] = 1
        for m in range(3, limit + 1):
            e[m] = phi[m] // 2
    else:  # pragma: no cover
        raise ValueError(f"unknown slope range {slope_range!r}")
    e[0] = 0
    return e


@dataclass(frozen=True)
class CountSeries:
    """Exact counts a(0..limit) of polygons by height, for one slope range."""

    slope_range: SlopeRange
    limit: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.limit + 1:
            raise ValueError("values must cover 0..limit")

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def __len__(self) -> int:
        return self.limit + 1


def _series_from_weights(b: Sequence[int], limit: int) -> list[int]:
    """a(0..limit) from n a(n) = Σ b(k) a(n-k); raises if any division truncates."""
    a = [1]
    arev: list[int] = []  # a in reverse, so zip pairs b[k] with a[n-k]
    for n in range(1, limit + 1):
        arev.insert(0, a[-1])
        s = sum(map(mul, b[1:n + 1], arev))
        q, r = divmod(s, n)
        if r:
            raise ArithmeticError(
                f"log-derivative recurrence not divisible at n={n}; "
                "the weight table is inconsistent")
        a.append(q)
    return a


def log_derivative_weights(e: Sequence[int], limit: int) -> list[int]:
    """b(0..limit) with b(k) = Σ_{d|k} d e(d), so that x (log F)′ = Σ b(k) x^k.

    F is the product over m of (1 - x^m)^(-e(m)); b(0) = 0. These are the
    weights of the counting recurrence and, divided by k, the coefficients
    of log F itself.
    """
    b = [0] * (limit + 1)
    for d in range(1, limit + 1):
        if e[d]:
            de = d * e[d]
            for k in range(d, limit + 1, d):
                b[k] += de
    return b


def series_from_exponents(e: Sequence[int], limit: int) -> list[int]:
    """Coefficients a(0..limit) of the product over m of (1 - x^m)^(-e(m))."""
    return _series_from_weights(log_derivative_weights(e, limit), limit)


def count_series(slope_range: SlopeRange, limit: int) -> CountSeries:
    """Exact polygon counts a(0..limit) for the given slope range."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if limit == 0:
        return CountSeries(slope_range, 0, (1,))
    e = segment_exponents(slope_range, limit)
    return CountSeries(slope_range, limit, tuple(series_from_exponents(e, limit)))


def symmetric_count(gmax: int) -> list[int]:
    """Counts of symmetric polygons of height 2g for g = 0..gmax.

    A symmetric polygon either pairs every slope s with 1-s (counted by
    the [0,1/2] series at g) or does so around a central (2,1) segment
    (counted at g-1); index 0 is the empty polygon.
    """
    if gmax < 1:
        raise ValueError("gmax must be >= 1")
    half = count_series(SlopeRange.CLOSED_0_HALF, gmax)
    out = [1]
    for g in range(1, gmax + 1):
        out.append(half[g] + (half[g - 1] if g >= 1 else 0))
    return out
