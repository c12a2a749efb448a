"""Exact counting sequences for the four count families.

The count of height-n polygons with slopes in a range I is the x^n
coefficient of the product over admissible segment runs m of
(1 - x^m)^(-e(m)), where e(m) is the number of admissible slopes with
denominator m. The symmetric polygons are counted by a product of the
same form, so :data:`FAMILY_ROWS`, one integer row per family, is all that
tells the families apart. Coefficients are extracted with the
log-derivative (Euler-transform) recurrence

    n * a(n) = sum_{k=1..n} b(k) * a(n-k),   b(k) = sum_{d|k} d * e(d),

in exact arbitrary-size integers; the division by n must come out exact
and is checked at every n.

The sum is evaluated as a semi-relaxed convolution (van der Hoeven,
"Relax, but don't be too lazy", 2002): the weights b are known in advance
and each a(n) is needed as soon as its sum is complete, so the range
[lo, hi) is split at mid, [lo, mid) is solved first, the contribution of
a(lo..mid-1) to every sum in [mid, hi) is added with one product, and then
[mid, hi) is solved. Blocks of at most ``_BASE_BLOCK`` heights are solved
as packed leaves (below). The product is a Kronecker substitution in base
10^w: both sequences are packed as zero-filled decimal strings into
:class:`decimal.Decimal` integers, whose libmpdec backend multiplies large
operands with a number-theoretic transform, and the slots are read back
from the decimal string of the product. Every coefficient is >= 0, so a
slot width w that bounds every slot leaves no carries; the decimal context
traps any rounding. This takes O(M(n) log n) digit operations for M(n) the
cost of one product, where the plain sum took O(n^2) big-integer products.

Each product is a middle product. With L = mid - lo and M = hi - lo - 1,
slot t of a(lo..mid-1) times b(1..M) goes to n = lo + 1 + t, and only
t = L-1..M-1 is read. Each count is cut into D limbs of s digits,
a = Σ_d a_d 10^(s d); limb d of every count forms plane d, the planes are
stacked M slots apart, and the stack is multiplied once by b(1..M). Plane
d's product overlaps only plane d+1's, in slots neither reads (its own
M..L+M-2, plane d+1's 0..L-2), where a slot sums j + 1 products of one
plane and L - 1 - j of the other. So every slot sums at most L products
a_d b < 10^s max b, w = s + digits(L max b) keeps the read slots clean,
and a(n) gains Σ_d v_d 10^(s d) from its slots v_d. D = 1 is the plain
product, with w = digits(L max a max b); :func:`_plane_layout` takes a
D >= 2, with s >= digits(L max b), only where its operands of (D-1)M + L
and M slots need a shorter libmpdec transform (:func:`_transform_length`).
In ``count_series(2·10^4)``, 15 of the 31 nodes take 2 to 4 limbs, the
top node 2.

A leaf [lo, hi) solves R = ``_GROUP`` heights per step. Let a' be its
counts, zero below lo (the folds have added that part to each a(n)), and
A_j = Σ_{i<R} a'(j+i) 2^(iK). For the heights g..g+R-1 one multiply-add,
Σ b(g-j) A_j over j <= g-R, holds in slot i the sum Σ b(g+i-j) a'(j) over
j <= g-R+i; the last R-1 terms of each height are added one at a time as
the group is solved, and b is padded with zeros past the leaf. In the
families' leaves every b(k) fits in one CPython digit, so each b(g-j) A_j
is one linear pass over R counts, and the interpreter's cost per term is
paid once for R heights. Every slot that is read sums at most hi - lo
products b(k) a'(j) >= 0, so K = bitlen((hi - lo) max b(1..hi-lo) max a')
plus headroom (:func:`_slot_width`) keeps the slots apart. A leaf takes
its first K from the fold sums it starts with, and rebuilds the A_j wider
before any group whose solved counts have outgrown K.

The weights come from one multiplicative sieve (:func:`log_derivative_weights`).
Every family has e(m) = w φ(m) + d_m, d_m = 0 for m >= 3: Dirichlet series
w ζ(s-1)/ζ(s) + d_1 + d_2 2^(-s). With h = 1/w and a_m = h d_m (:data:`FAMILY_ROWS`)

    b(k) = (B(k) + a_1 + 2 a_2 [2 | k]) / h,   B(k) = Σ_{d|k} d φ(d).

B is multiplicative with B(p^a) = (p^(2a+1) + 1)/(p + 1) (OEIS A057660),
so for the smallest prime factor p of k and m = k/p

    B(k) = (p² - p + 1) B(m)              if p ∤ m,
    B(k) = (p² + 1) B(m) - p² B(m/p)      if p | m,

with p = k for a prime, and one O(limit) loop over k fills B from the table
of :func:`smallest_prime_factors`, about (limit/2) ln limit writes at C speed.
B(k) is odd, as d φ(d) is even for d >= 2, and a_1 is odd where h = 2, so the
division is exact. The totient sieve, exponent lists and O(limit log limit)
divisor sum it replaced are the tests' reference (``tests/oracles.py``).

The weights b(k) are shared with the asymptotic side: since
log F = Σ_k (b(k)/k) x^k, the [0, 1) weights also give the direct series
of log f(e^(-τ)) that :func:`npcount.asymptotics.logf_expansion_check`
sums.
"""
from __future__ import annotations

import decimal
import enum
import math
from operator import mul
from typing import Sequence

from .record import Record


class SlopeRange(enum.Enum):
    """The count families: three slope intervals and the symmetric polygons."""

    HALF_OPEN_01 = "half-open"   # [0, 1)
    CLOSED_01 = "closed"         # [0, 1]
    CLOSED_0_HALF = "half"       # [0, 1/2]
    SYMMETRIC = "symmetric"      # symmetric polygons of height 2g, counted at x^g


#: (h, a_1, a_2) per family: e(m) = (φ(m) + a_m) / h, with a_m = 0 for m >= 3.
#: [0, 1] adds the slope-1 segment; in [0, 1/2] coprime residues pair n ↔ m-n. A
#: symmetric polygon pairs every slope s with 1-s, alone ([0, 1/2] at g) or around
#: a central (2, 1) segment (at g-1): (1 + x) F_[0,1/2] = F_[0,1/2] (1 - x²)/(1 - x).
FAMILY_ROWS = {
    SlopeRange.HALF_OPEN_01: (1, 0, 0),
    SlopeRange.CLOSED_01: (1, 1, 0),
    SlopeRange.CLOSED_0_HALF: (2, 1, 1),
    SlopeRange.SYMMETRIC: (2, 3, -1),
}


class CountSeries(Record):
    """Exact counts a(0..limit) of one family, by height (by genus g for the symmetric counts)."""

    __slots__ = ("slope_range", "values")

    @property
    def limit(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> int:
        return self.values[n]


#: Blocks of at most this many heights are solved as packed leaves; larger
#: ones are split in two and joined by one Kronecker-substituted product.
#: Against 512, in alternating fresh processes, 768 (leaves of 625) made
#: ``count_series(5000)`` faster in 14 of 16 pairs (median 0.206 -> 0.199 s),
#: and 3000 and 2·10^4 did not resolve; 10^5 takes leaves of 390 with both.
_BASE_BLOCK = 768

#: Heights solved together in a leaf: one multiply-add on R counts packed
#: in binary slots serves R heights. R = 8 measured the same.
_GROUP = 6

#: Decimal context for exact integer products: any rounding raises.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         traps=[decimal.Inexact, decimal.Rounded])


def _pack(digits: Sequence[str], width: int) -> decimal.Decimal:
    """Σ_i digits[i] · 10^(width·i) as one decimal integer."""
    return decimal.Decimal("".join([d.zfill(width) for d in reversed(digits)]))


def _slot_width(need: int) -> int:
    """Bits per binary slot that hold values up to need, with room for the counts to grow."""
    return need.bit_length() + 32


def _windows(counts: Sequence[int], R: int, width: int) -> list[int]:
    """[0] + the windows Σ_{i<R} c(t + 1 - R + i) 2^(i·width), t = 0.., c = 0 before the counts."""
    out, v, shift = [0], 0, (R - 1) * width
    for x in counts:
        v = (v >> width) + (x << shift)
        out.append(v)
    return out


def _transform_length(*digits: int) -> int:
    """libmpdec's transform length for operands of these digit counts, in 19-digit words.

    Above 1024 words in all, the first 2^k or 3·2^(k-1) at or above the
    word count; at or below, where libmpdec uses Karatsuba, 1024.
    """
    n = max(sum(-(-d // 19) for d in digits), 1024)
    k = (n - 1).bit_length()
    return 3 << (k - 2) if 3 << (k - 2) >= n else 1 << k


def _plane_layout(L: int, M: int, digits: int, width: int, over: int) -> tuple[int, int, int]:
    """(D, s, slot width) of one node's middle product: D limbs of s digits each.

    D = 1 keeps whole counts (s = digits) in slots of the given width. The
    least D >= 2 with s >= over whose operands, (D-1)M + L and M slots of
    s + over digits, need the shortest transform replaces it if that is shorter.
    """
    best = (_transform_length(L * width, M * width), 1, digits, width)
    for d in range(2, digits // over + 1):
        s = -(-digits // d)
        cost = _transform_length(((d - 1) * M + L) * (s + over), M * (s + over))
        if cost < best[0]:
            best = (cost, d, s, s + over)
    return best[1:]


def _series_from_weights(b: Sequence[int], limit: int) -> list[int]:
    """a(0..limit) from n a(n) = Σ b(k) a(n-k); raises if any division truncates.

    b(1..limit) must be >= 0 (ValueError otherwise): the Kronecker packing
    and the packed leaves size their slots from that. See the module
    docstring for the scheme.
    Slots pass through decimal strings, so a count longer than Python's
    int/str digit limit (4300 digits by default; a(n) for [0, 1) reaches
    it near n = 4·10^5) raises ValueError. Each solved count is kept as its
    string too (``a_digits``): taking every fold's chunk from ``str()`` of
    the ints instead was slower in 20 of 30 alternating pairs of fresh
    ``count_series(5000)`` runs (median +4%) and in 7 of 10 at 2·10^4 (+2%),
    and lowered the peak RSS at 2·10^4 by 0.3 of 58 MB (measured with leaves
    of at most 256 heights, summed term by term).
    """
    if any(v < 0 for v in b[1:limit + 1]):
        raise ValueError("weights b(k) must be >= 0")
    a = [1] + [0] * limit  # until n is solved, a[n] is Σ b(n-j) a(j) over the j folded in
    a_digits = ["1"] + [""] * limit
    b_digits = [str(v) for v in b[:limit + 1]]

    def fold(lo: int, mid: int, hi: int) -> None:
        # slot t of plane d times b(1..M) goes to n = lo + 1 + t, and only
        # t in [L-1, M-1] is read; the planes sit M slots apart
        L, M = mid - lo, hi - lo - 1
        top_a, top_b = max(a[lo:mid]), max(b[1:hi - lo])
        planes, s, width = _plane_layout(L, M, len(str(top_a)), len(str(L * top_a * top_b)),
                                         len(str(L * top_b)))
        chunk = a_digits[lo:mid]
        stack = decimal.Decimal(0)
        for d in range(planes - 1, -1, -1):
            plane = _pack([x[-s * (d + 1):-s * d or None] for x in chunk], width)
            stack = _EXACT.add(_EXACT.scaleb(stack, M * width), plane)
        prod = str(_EXACT.multiply(stack, _pack(b_digits[1:hi - lo], width)))
        size, unit = len(prod), 10 ** s
        for n in range(mid, hi):
            v = 0
            for d in range(planes - 1, -1, -1):
                end = size - width * (d * M + n - lo - 1)
                v = v * unit + (int(prod[max(end - width, 0):end]) if end > 0 else 0)
            a[n] += v

    def leaf(lo: int, hi: int) -> None:
        # ap is a' = a(lo..) after R - 1 zeros and packed[t] the window
        # Σ_i ap[t - 1 + i] 2^(i·width): slot i of Σ_t b(g - lo + R - t) packed[t]
        # is Σ b(g + i - j) a'(j) over j <= g - R + i, what height g + i needs
        # but its last R - 1 terms, which are added one by one
        R, span = _GROUP, hi - lo
        bp = b[:span] + [0] * R
        tail = bp[R - 1:0:-1]
        top_b = max(b[1:span], default=0)
        width = _slot_width(span * top_b * max(a[lo:hi]))
        ap, packed, top = [0] * (R - 1), [0], 0
        for g in range(lo, hi, R):
            need = span * top_b * top  # no read slot holds more
            if need >> width:
                width = _slot_width(need)
                packed = _windows(ap[R - 1:], R, width)
            s = sum(map(mul, bp[g - lo + R:R - 1:-1], packed))
            mask, high = (1 << width) - 1, (R - 1) * width
            for n in range(g, min(g + R, hi)):
                v = a[n] + (s & mask) + sum(map(mul, tail, ap[n - lo:]))
                s >>= width
                if n:
                    v, r = divmod(v, n)
                    if r:
                        raise ArithmeticError(
                            f"log-derivative recurrence not divisible at n={n}; "
                            "the weight table is inconsistent")
                a[n] = v
                a_digits[n] = str(v)
                ap.append(v)
                top = max(top, v)
                packed.append((packed[-1] >> width) + (v << high))

    def solve(lo: int, hi: int) -> None:
        if hi - lo <= _BASE_BLOCK:
            leaf(lo, hi)
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        fold(lo, mid, hi)
        solve(mid, hi)

    solve(0, limit + 1)
    return a


def smallest_prime_factors(n: int) -> list[int]:
    """spf[0..n]: the least prime factor of each composite k, 0 for primes and k < 2.

    p = ⌊√n⌋ down to 2 writes p at p², p² + p, …: the least prime factor q
    of a composite k writes last, as q² <= k."""
    spf = [0] * (n + 1)
    for p in range(math.isqrt(n), 1, -1):
        spf[p * p::p] = [p] * ((n - p * p) // p + 1)
    return spf


def log_derivative_weights(slope_range: SlopeRange, limit: int) -> list[int]:
    """b(0..limit) of the family, b(k) = Σ_{d|k} d e(d), so that x (log F)′ = Σ b(k) x^k.

    F is the family's product over m of (1 - x^m)^(-e(m)); b(0) = 0. These
    are the weights of the counting recurrence and, divided by k, the
    coefficients of log F itself. One multiplicative sieve; see the module docstring.
    """
    spf = smallest_prime_factors(limit)
    b = [0, 1][:limit + 1] + [0] * (limit - 1)  # B(k) first
    for k in range(2, limit + 1):
        p = spf[k] or k
        m = k // p
        b[k] = (p * p - p + 1) * b[m] if m % p else (p * p + 1) * b[m] - p * p * b[m // p]
    h, a1, a2 = FAMILY_ROWS[slope_range]
    # for [0, 1) the row leaves b = B, and rebuilding it anyway costs time and
    # memory: logf-check --tau 1e-4 (1.7M terms) peaks at 191 MB, not 122 MB
    if (h, a1, a2) != (1, 0, 0):
        b[1::2] = [(v + a1) // h for v in b[1::2]]
        b[2::2] = [(v + a1 + 2 * a2) // h for v in b[2::2]]
    return b


def count_series(slope_range: SlopeRange, limit: int) -> CountSeries:
    """Exact counts a(0..limit) for the given family."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    b = log_derivative_weights(slope_range, limit)
    return CountSeries(slope_range, tuple(_series_from_weights(b, limit)))
