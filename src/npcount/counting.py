"""Exact counting sequences for the four count families.

The count of height-n polygons with slopes in a range I is the x^n
coefficient of the product over admissible segment runs m of
(1 - x^m)^(-e(m)), where e(m) is the number of admissible slopes with
denominator m. The symmetric polygons are counted by a product of the
same form, so :data:`EXPONENT_ROWS`, one row of exponents per family, is
all that tells the families apart. Coefficients are extracted with the
log-derivative (Euler-transform) recurrence

    n * a(n) = sum_{k=1..n} b(k) * a(n-k),   b(k) = sum_{d|k} d * e(d),

in exact arbitrary-size integers; the division by n must come out exact
and is checked at every n.

The sum is evaluated as a semi-relaxed convolution (van der Hoeven,
"Relax, but don't be too lazy", 2002): the weights b are known in advance
and each a(n) is needed as soon as its sum is complete, so the range
[l, r) is split at mid, [l, mid) is solved first, the contribution of
a(l..mid-1) to every sum in [mid, r) is added with one product, and then
[mid, r) is solved. Blocks of at most ``_BASE_BLOCK`` heights are summed
term by term. The product is a Kronecker substitution in base 10^w: both
sequences are packed as zero-filled decimal strings into
:class:`decimal.Decimal` integers, whose libmpdec backend multiplies large
operands with a number-theoretic transform, and the slots are read back
from the decimal string of the product. Every coefficient is >= 0, so the
slot width w from the bound (terms) * max a * max b leaves no carries;
the decimal context traps any rounding. This takes O(M(n) log n) digit
operations for M(n) the cost of one product, where the plain sum took
O(n^2) big-integer products.

The weights come from one linear sieve (:func:`log_derivative_weights`).
Every family has e(m) = w φ(m) for m >= 3, so

    b(k) = w (B(k) - 1 - 2 [2 | k]) + e(1) + 2 e(2) [2 | k],   B(k) = Σ_{d|k} d φ(d).

B is multiplicative with B(p^a) = (p^(2a+1) + 1)/(p + 1) (OEIS A057660),
so for the smallest prime factor p of k and m = k/p

    B(k) = (p² - p + 1) B(m)              if p ∤ m,
    B(k) = (p² + 1) B(m) - p² B(m/p)      if p | m,

and one pass over k that also marks smallest prime factors (Euler's
linear sieve) fills B in O(limit) steps. B(k) - 1 - 2 [2 | k] is
Σ_{d|k, d>=3} d φ(d), even as φ(d) is, so b stays in integers for
w = 1/2. The totient sieve, exponent lists and O(limit log limit)
divisor sum it replaced are the tests' reference (``tests/oracles.py``).

The weights b(k) are shared with the asymptotic side: since
log F = Σ_k (b(k)/k) x^k, the [0, 1) weights also give the direct series
of log f(e^(-τ)) that :func:`npcount.asymptotics.logf_expansion_check`
sums.
"""
from __future__ import annotations

import decimal
import enum
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence


class SlopeRange(enum.Enum):
    """The count families: three slope intervals and the symmetric polygons."""

    HALF_OPEN_01 = "half-open"   # [0, 1)
    CLOSED_01 = "closed"         # [0, 1]
    CLOSED_0_HALF = "half"       # [0, 1/2]
    SYMMETRIC = "symmetric"      # symmetric polygons of height 2g, counted at x^g


#: (w, e(1), e(2)) per family, where e(m) = w φ(m) for m >= 3. [0, 1] adds
#: the slope-1 segment; in [0, 1/2] coprime residues pair n ↔ m-n. A symmetric
#: polygon pairs every slope s with 1-s, alone ([0, 1/2] at g) or around a
#: central (2, 1) segment (at g-1): (1 + x) F_[0,1/2] = F_[0,1/2] (1 - x²)/(1 - x).
EXPONENT_ROWS = {
    SlopeRange.HALF_OPEN_01: (Fraction(1), 1, 1),
    SlopeRange.CLOSED_01: (Fraction(1), 2, 1),
    SlopeRange.CLOSED_0_HALF: (Fraction(1, 2), 1, 1),
    SlopeRange.SYMMETRIC: (Fraction(1, 2), 2, 0),
}


@dataclass(frozen=True)
class CountSeries:
    """Exact counts a(0..limit) of one family, by height (by genus g for the symmetric counts)."""

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


#: Blocks of at most this many heights are summed term by term; larger ones
#: are split in two and joined by one Kronecker-substituted product.
_BASE_BLOCK = 256

#: Decimal context for exact integer products: any rounding raises.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         traps=[decimal.Inexact, decimal.Rounded])


def _pack(digits: Sequence[str], width: int) -> decimal.Decimal:
    """Σ_i digits[i] · 10^(width·i) as one decimal integer."""
    return decimal.Decimal("".join([d.zfill(width) for d in reversed(digits)]))


def _series_from_weights(b: Sequence[int], limit: int) -> list[int]:
    """a(0..limit) from n a(n) = Σ b(k) a(n-k); raises if any division truncates.

    b(1..limit) must be >= 0 (ValueError otherwise): the Kronecker packing
    sizes its slots from that. See the module docstring for the scheme.
    Slots pass through decimal strings, so a count longer than Python's
    int/str digit limit (4300 digits by default; a(n) for [0, 1) reaches
    it near n = 4·10^5) raises ValueError.
    """
    if any(v < 0 for v in b[1:limit + 1]):
        raise ValueError("weights b(k) must be >= 0")
    a = [1] + [0] * limit
    a_digits = ["1"] + [""] * limit
    b_digits = [str(v) for v in b[:limit + 1]]
    brev = b[limit:0:-1]  # brev[limit - k] = b(k), so zip pairs b(n-j) with a(j)
    s = [0] * (limit + 1)  # s[n]: Σ b(n-j) a(j) over the j already folded in

    def solve(lo: int, hi: int) -> None:
        if hi - lo <= _BASE_BLOCK:
            for n in range(max(lo, 1), hi):
                q, r = divmod(s[n] + sum(map(mul, brev[limit - n + lo:limit], a[lo:n])), n)
                if r:
                    raise ArithmeticError(
                        f"log-derivative recurrence not divisible at n={n}; "
                        "the weight table is inconsistent")
                a[n] = q
                a_digits[n] = str(q)
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        # slot t of (a(lo..mid-1)) * (b(1..hi-lo-1)) is a sum of at most
        # mid - lo products and goes to n = lo + 1 + t
        width = len(str((mid - lo) * max(a[lo:mid]) * max(b[1:hi - lo])))
        prod = str(_EXACT.multiply(_pack(a_digits[lo:mid], width),
                                   _pack(b_digits[1:hi - lo], width)))
        end = len(prod) - width * (mid - lo - 1)
        for n in range(mid, hi):
            if end <= 0:
                break
            s[n] += int(prod[max(end - width, 0):end])
            end -= width
        solve(mid, hi)

    solve(0, limit + 1)
    return a


def log_derivative_weights(slope_range: SlopeRange, limit: int) -> list[int]:
    """b(0..limit) of the family, b(k) = Σ_{d|k} d e(d), so that x (log F)′ = Σ b(k) x^k.

    F is the family's product over m of (1 - x^m)^(-e(m)); b(0) = 0. These
    are the weights of the counting recurrence and, divided by k, the
    coefficients of log F itself. One linear sieve; see the module docstring.
    """
    spf = [0] * (limit + 1)  # smallest prime factor, set before k reaches it
    b = [0, 1][:limit + 1] + [0] * (limit - 1)  # B(k) first
    primes = []
    for k in range(2, limit + 1):
        p = spf[k]
        if not p:
            p = k
            primes.append(k)
            b[k] = k * k - k + 1
        else:
            m = k // p
            b[k] = (p * p - p + 1) * b[m] if m % p else (p * p + 1) * b[m] - p * p * b[m // p]
        top = limit // k
        for q in primes:  # k·q has smallest prime factor q for every prime q <= p
            if q > p or q > top:
                break
            spf[k * q] = q
    w, e1, e2 = EXPONENT_ROWS[slope_range]
    # for [0, 1) the row leaves b = B, and rebuilding it anyway costs time and
    # memory: logf-check --tau 1e-4 (1.7M terms) peaks at 191 MB, not 122 MB
    if (w, e1, e2) != (1, 1, 1):
        num, den = w.numerator, w.denominator
        b[1::2] = [(v - 1) * num // den + e1 for v in b[1::2]]
        b[2::2] = [(v - 3) * num // den + e1 + 2 * e2 for v in b[2::2]]
    return b


def count_series(slope_range: SlopeRange, limit: int) -> CountSeries:
    """Exact counts a(0..limit) for the given family."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    b = log_derivative_weights(slope_range, limit)
    return CountSeries(slope_range, limit, tuple(_series_from_weights(b, limit)))
