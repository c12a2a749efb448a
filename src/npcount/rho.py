"""The two-variable table ρ(h, d): polygons of height h and depth d, slopes in [0, 1).

A polygon is a multiset of primitive segments (m, n) with 0 <= n < m and
gcd(m, n) = 1, of total run h and total rise d, so

    Σ_{h,d} ρ(h,d) x^h y^d = Π_{(m,n)} (1 - x^m y^n)^(-1).

:func:`rho_recurrence_table` takes the log derivative in x of this
product (a bivariate Euler transform):

    h R_h(y) = Σ_{k=1..h} B_k(y) R_{h-k}(y),
    B_k(y) = Σ_{m|k} m Σ_{0<=n<m, gcd(m,n)=1} y^(n k/m),

with R_h(y) = Σ_d ρ(h,d) y^d. Each polynomial in y is packed into one
integer, one fixed-width byte slot per power of y, so a product of
polynomials is one integer product.

This is the library's only route. The tests check it against two
independent oracles: direct segment-multiset counting (h <= 40), and the
paper's bilinear recurrence ρ(h,d) = Σ ρ(α,β) ρ(γ,γ-δ) over α+δ = h-d,
β+γ = d (split at slope 1/2 and shear both halves).

Base cases: ρ(h,0) = 1 (the all-flat polygon) and ρ(h,d) = 0 for
d >= max(1, h).
"""
from __future__ import annotations

from math import gcd
from operator import mul

from .counting import SlopeRange, count_series
from .record import Record


class RhoTable(Record):
    """Triangular exact-integer table rows[h][d] = ρ(h, d) for 0 <= d <= h <= max_height."""

    __slots__ = ("rows",)
    rows: tuple[tuple[int, ...], ...]

    @property
    def max_height(self) -> int:
        return len(self.rows) - 1

    def entries(self):
        """Yield (h, d, ρ(h,d)) over the whole triangle, h then d ascending."""
        for h in range(self.max_height + 1):
            for d in range(h + 1):
                yield h, d, self.rows[h][d]


def rho_recurrence_table(max_height: int) -> RhoTable:
    """Fill ρ(h, d) for 0 <= d <= h <= max_height by the bivariate Euler transform.

    Every coefficient of h R_h(y) lies in [0, h a(h)] with a(h) = R_h(1)
    nondecreasing, so byte slots that hold max_height · a(max_height) never
    carry into each other; a carry past the last slot raises OverflowError,
    and each division by h must come out exact (ArithmeticError otherwise).
    """
    if max_height < 0:
        raise ValueError("max_height must be >= 0")
    top = count_series(SlopeRange.HALF_OPEN_01, max_height)[max_height]
    width = (max_height * top).bit_length() // 8 + 1

    def pack(coeffs) -> int:
        return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in coeffs]), "little")

    weights = [[0] * k for k in range(max_height + 1)]  # B_k(y) has degree < k
    for m in range(1, max_height + 1):
        residues = [n for n in range(m) if gcd(m, n) == 1]
        for k in range(m, max_height + 1, m):
            step = k // m
            for n in residues:
                weights[k][n * step] += m
    packed_weights = [pack(w) for w in weights]

    packed_rows = [1]  # R_0(y) = 1
    rows = [(1,)]
    for h in range(1, max_height + 1):
        raw = sum(map(mul, packed_weights[h:0:-1], packed_rows)).to_bytes(width * h, "little")
        row = []
        for d in range(h):
            q, r = divmod(int.from_bytes(raw[d * width:(d + 1) * width], "little"), h)
            if r:
                raise ArithmeticError(f"bivariate Euler transform not divisible at (h, d) = ({h}, {d})")
            row.append(q)
        packed_rows.append(pack(row))
        rows.append(tuple(row) + (0,))
    return RhoTable(tuple(rows))

