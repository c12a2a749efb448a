"""Slow, independent reference implementations used only by tests."""
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Sequence

import mpmath as mp

from npcount import SlopeRange
from npcount.counting import FAMILY_ROWS, _series_from_weights


def product_series(exponents, limit):
    """Coefficients of prod_m (1 - x^m)^(-e(m)) by direct polynomial product.

    Each factor 1/(1 - x^m) is applied as a stride-m prefix sum, repeated
    e(m) times: the opposite evaluation route to the log-derivative
    recurrence. Exact integers; fine up to limit ~ 300.
    """
    a = [1] + [0] * limit
    for m in range(1, limit + 1):
        for _ in range(exponents[m]):
            for i in range(m, limit + 1):
                a[i] += a[i - m]
    return a


def series_quadratic_reference(b, limit):
    """a(0..limit) from n a(n) = Σ_{k=1..n} b(k) a(n-k), summed term by term.

    The O(n^2) route the library replaced with a relaxed convolution; raises
    ArithmeticError if a division by n truncates.
    """
    a = [1]
    arev = []  # a in reverse, so zip pairs b[k] with a[n-k]
    for n in range(1, limit + 1):
        arev.insert(0, a[-1])
        q, r = divmod(sum(map(mul, b[1:n + 1], arev)), n)
        if r:
            raise ArithmeticError(f"not divisible at n={n}")
        a.append(q)
    return a


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
    """e(m) = (φ(m) + a_m) / h for m = 1..limit, from the family's ``FAMILY_ROWS`` row; e(0) = 0.

    For a slope range, e(m) = #{n : n/m in range, gcd(m, n) = 1}. φ(m) is
    even for m >= 3, so halving it with ``//`` is exact.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    h, a1, a2 = FAMILY_ROWS[slope_range]
    e = [v // h for v in totient_sieve(limit)]
    e[1:3] = [(1 + a) // h for a in (a1, a2)][:limit]
    return e


def divisor_sum_weights(e: Sequence[int], limit: int) -> list[int]:
    """b(0..limit) with b(k) = Σ_{d|k} d e(d), so that x (log F)′ = Σ b(k) x^k.

    F is the product over m of (1 - x^m)^(-e(m)); b(0) = 0. The divisor sum
    term by term, O(limit log limit): the reference for the library's sieve.
    """
    b = [0] * (limit + 1)
    for d in range(1, limit + 1):
        if e[d]:
            de = d * e[d]
            for k in range(d, limit + 1, d):
                b[k] += de
    return b


def series_from_exponents(e: Sequence[int], limit: int) -> list[int]:
    """Coefficients a(0..limit) of the product over m of (1 - x^m)^(-e(m)).

    e(1..limit) must be >= 0; a negative exponent raises ValueError.
    """
    if any(v < 0 for v in e[1:limit + 1]):
        raise ValueError("exponents e(m) must be >= 0")
    return _series_from_weights(divisor_sum_weights(e, limit), limit)


def rho_bilinear_reference(max_height):
    """Rows of ρ(h, d), 0 <= d <= h <= max_height, by the paper's bilinear recurrence.

    ρ(h,d) = Σ ρ(α,β) ρ(γ,γ-δ) over α+δ = h-d, β+γ = d, from splitting a
    polygon at slope 1/2 and shearing both halves; ρ(h,0) = 1 and ρ(h,d) = 0
    for d >= max(1, h). Rows are filled with h ascending: for 1 <= d <= h-1
    the right-hand side reads only heights α <= h-d and γ <= d. O(h^4).
    """
    rows = []

    def lookup(h, d):
        if d < 0 or h < 0:
            return 0
        if d == 0:
            return 1
        if d >= max(1, h):
            return 0
        return rows[h][d]

    for h in range(max_height + 1):
        row = [0] * (h + 1)
        row[0] = 1
        for d in range(1, h):
            acc = 0
            hd = h - d
            for alpha in range(hd + 1):
                delta = hd - alpha
                for beta in range(d + 1):
                    left = lookup(alpha, beta)
                    if left:
                        gamma = d - beta
                        right = lookup(gamma, gamma - delta)
                        if right:
                            acc += left * right
            row[d] = acc
        rows.append(row)
    return tuple(tuple(r) for r in rows)


def count_coprime_slopes(m, num_ok):
    """#{n >= 0 : gcd(m, n) = 1 and num_ok(n, m)} for n <= m."""
    return sum(1 for n in range(0, m + 1) if gcd(m, n) == 1 and num_ok(n, m))


def symmetric_polygons_bruteforce(g):
    """Count symmetric polygons of height 2g by recursive multiset enumeration.

    A polygon (multiset of [0,1]-segments with total run 2g and rise g) is
    symmetric when the multiset is closed under (m, n) -> (m, m - n).
    """
    height, depth = 2 * g, g
    segments = [(m, n) for m in range(1, height + 1)
                for n in range(0, m + 1) if gcd(m, n) == 1]
    segments.sort()
    total = 0

    def recurse(i, h, d, chosen):
        nonlocal total
        if h == 0:
            if d == 0:
                counts = Counter(chosen)
                if all(counts[(m, n)] == counts[(m, m - n)] for (m, n) in counts):
                    total += 1
            return
        if i == len(segments):
            return
        m, n = segments[i]
        reps = 0
        while reps * m <= h and reps * n <= d:
            recurse(i + 1, h - reps * m, d - reps * n, chosen + [(m, n)] * reps)
            reps += 1

    recurse(0, height, depth, [])
    return total


def _totient(m):
    """Euler's φ(m) by trial-division factorisation."""
    result, n, p = m, m, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def logf_direct_reference(tau, bits):
    """log f(e^-τ) = -Σ_m φ(m) log1p(-e^(-mτ)), the product formula, at bits + 64.

    Stops once the tail is below 2^-(bits+64) of the running sum:
    for j > m, φ(j) (-log(1 - x^j)) <= j x^j / (1 - x^(m+1)), and
    Σ_{j>m} j x^j = x^(m+1) ((m+1)/(1-x) + x/(1-x)^2).
    """
    with mp.workprec(bits + 64):
        x = mp.exp(-mp.mpf(tau))
        rel = mp.mpf(2) ** -(bits + 64)
        inv = 1 / (1 - x)
        shift = x * inv * inv
        total = mp.mpf(0)
        xm = x
        m = 1
        while True:
            total -= _totient(m) * mp.log1p(-xm)
            m += 1
            xm *= x
            if xm * (m * inv + shift) < rel * total * (1 - xm):
                return total


def logf_tail_bound(tau, m, bits):
    """(33/20) x^m (m/(1-x) + x/(1-x)^2) at x = e^-τ, at bits + 64.

    An upper bound for Σ_{N>=m} (b(N)/N) x^N, as b(N) < ζ(2) N² and
    33/20 > ζ(2); it decreases strictly in m.
    """
    with mp.workprec(bits + 64):
        x = mp.exp(-mp.mpf(tau))
        return mp.mpf(33) / 20 * x ** m * (m / (1 - x) + x / (1 - x) ** 2)


def logf_term_count_reference(tau, bits, cap):
    """The least M in [1, cap] with tail(M + 1) < 2^-bits, by bisection on :func:`logf_tail_bound`."""
    eps = mp.mpf(2) ** -bits
    if not logf_tail_bound(tau, cap + 1, bits) < eps:
        raise ValueError("the tail at the cap is not below 2^-bits")
    lo, hi = 0, cap  # tail(lo + 1) >= eps > tail(hi + 1), taking tail(1) >= eps
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if logf_tail_bound(tau, mid + 1, bits) < eps:
            hi = mid
        else:
            lo = mid
    return hi


def zeta_derivative_reflection(s, bits):
    """ζ′(s) for ℜ(s) < 0 by the differentiated functional equation, at bits + 64.

    With A(s) = 2^s π^(s-1) Γ(1-s) ζ(1-s), so that ζ(s) = A sin(πs/2),

        ζ′(s) = A [(log 2π − ψ(1−s) − ζ′(1−s)/ζ(1−s)) sin(πs/2) + (π/2) cos(πs/2)],

    written so nothing divides by sin(πs/2) at the trivial zeros. Only ζ
    and ζ′ at 1 − s, where ℜ(1 − s) > 1 and ζ(1 − s) ≠ 0, are needed.
    """
    with mp.workprec(bits + 64):
        s = mp.mpc(s)
        z1 = mp.zeta(1 - s)
        zd1 = mp.zeta(1 - s, derivative=1)
        A = mp.power(2, s) * mp.power(mp.pi, s - 1) * mp.gamma(1 - s) * z1
        logfac = mp.log(2 * mp.pi) - mp.digamma(1 - s) - zd1 / z1
        return A * (logfac * mp.sinpi(s / 2) + mp.pi / 2 * mp.cospi(s / 2))


def residue_coefficient_reference(t, bits):
    """c_γ = Γ(γ) ζ(γ+1) ζ(γ-1) / ζ′(γ) at γ = 1/2 + i t by four mpmath calls, at bits + 64.

    The product the library computed before it took ζ(γ-1) from ζ(γ+1) by
    the functional equation.
    """
    with mp.workprec(bits + 64):
        gamma = mp.mpc(mp.mpf(1) / 2, t)
        return (mp.gamma(gamma) * mp.zeta(gamma + 1) * mp.zeta(gamma - 1)
                / mp.zeta(gamma, derivative=1))


# ---------------------------------------------------------------------------
# Segments, polygons and the segment-multiset brute force
# ---------------------------------------------------------------------------
#
# A segment is a coprime pair (m, n): an edge of horizontal run m and
# vertical rise n, i.e. slope n/m. A Newton polygon is a multiset of
# segments; rendered, it is the lower-convex lattice path obtained by
# sorting the segments by slope.


class InvalidSegmentError(ValueError):
    """Pair is not a valid segment (gcd != 1, or m < 1)."""


@dataclass(frozen=True, order=True)
class Segment:
    """Coprime pair (m, n): horizontal run m >= 1, vertical rise n >= 0."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 0:
            raise InvalidSegmentError(f"segment ({self.m}, {self.n}) needs m >= 1, n >= 0")
        if gcd(self.m, self.n) != 1:
            raise InvalidSegmentError(f"segment ({self.m}, {self.n}) is not coprime")

    @property
    def slope(self) -> Fraction:
        return Fraction(self.n, self.m)


@dataclass(frozen=True)
class NewtonPolygon:
    """A polygon as its slope-sorted breakpoint list, from (0, 0)."""

    breakpoints: tuple[tuple[int, int], ...]

    @property
    def height(self) -> int:
        return self.breakpoints[-1][0]

    @property
    def depth(self) -> int:
        return self.breakpoints[-1][1]


def polygon_from_segments(segments: Iterable[Segment | tuple[int, int]]) -> NewtonPolygon:
    """Assemble a polygon from a multiset of segments.

    Segments are sorted by slope ascending, so the breakpoint path is
    lower convex by construction. Consecutive equal-slope segments are
    kept as separate breakpoints.
    """
    segs = [s if isinstance(s, Segment) else Segment(*s) for s in segments]
    segs.sort(key=lambda s: (s.slope, s.m))
    points = [(0, 0)]
    x = y = 0
    for s in segs:
        x += s.m
        y += s.n
        points.append((x, y))
    return NewtonPolygon(tuple(points))


def admissible_segments(max_run: int, slope_ok) -> list[Segment]:
    """All segments with 1 <= m <= max_run whose slope passes slope_ok.

    Enumerated by m ascending then n ascending (canonical oracle order).
    slope_ok receives (n, m) as integers and must be a pure predicate.
    """
    out = []
    for m in range(1, max_run + 1):
        for n in range(0, m + 1):
            if gcd(m, n) == 1 and slope_ok(n, m):
                out.append(Segment(m, n))
    return out


def count_segment_multisets(segments: Sequence[Segment], height: int, depth: int) -> int:
    """Number of multisets from `segments` with Σm = height, Σn = depth.

    Unbounded-multiplicity knapsack over (segment, remaining height,
    remaining depth); exact integers throughout.
    """
    if height < 0 or depth < 0:
        return 0
    ways = [[0] * (depth + 1) for _ in range(height + 1)]
    ways[0][0] = 1
    for seg in segments:
        m, n = seg.m, seg.n
        for h in range(m, height + 1):
            row = ways[h]
            prev = ways[h - m]
            for d in range(n, depth + 1):
                if prev[d - n]:
                    row[d] += prev[d - n]
    return ways[height][depth]


BRUTEFORCE_MAX_HEIGHT = 40

_SLOPE_PREDICATES = {
    SlopeRange.HALF_OPEN_01: lambda n, m: n < m,
    SlopeRange.CLOSED_01: lambda n, m: n <= m,
    SlopeRange.CLOSED_0_HALF: lambda n, m: 2 * n <= m,
}


def rho_bruteforce(h: int, d: int, slope_range: SlopeRange = SlopeRange.HALF_OPEN_01) -> int:
    """ρ(h, d) by direct multiset counting. Oracle scale: h <= 40."""
    if h < 0 or d < 0:
        return 0
    if h > BRUTEFORCE_MAX_HEIGHT:
        raise ValueError(f"brute force is capped at h <= {BRUTEFORCE_MAX_HEIGHT}")
    if h == 0:
        return 1 if d == 0 else 0
    segments = admissible_segments(h, _SLOPE_PREDICATES[slope_range])
    return count_segment_multisets(segments, h, d)
