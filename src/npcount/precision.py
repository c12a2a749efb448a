"""Working-precision plumbing for the high-precision kernel.

``HPReal``/``HPComplex`` are mpmath's arbitrary-precision ``mpf``/``mpc``;
a :class:`PrecisionContext` pins the mantissa size (in bits) that every
kernel operation works at. Internally computations run with a few guard
bits and round to the nominal precision on return, so a fixed context and
fixed inputs always produce bit-identical results.
"""
from __future__ import annotations

import re

import mpmath as mp

from .record import Record

HPReal = mp.mpf
HPComplex = mp.mpc

#: Smallest supported working precision.
MIN_BITS = 64

#: Default working precision; resolves residue coefficients (~1e-17) to
#: several digits with a wide safety margin.
DEFAULT_BITS = 192

#: Extra mantissa bits used internally by kernel operations.
GUARD_BITS = 32

#: A plain decimal number: digits with an optional point, sign and exponent.
PLAIN_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def read_real(x) -> HPReal:
    """x, a number or plain-decimal text, at the ambient precision; mpmath alone reads "1_0" as 10."""
    if isinstance(x, str) and not PLAIN_DECIMAL.fullmatch(x):
        raise ValueError(f"not a plain decimal number: {x!r}")
    return mp.mpf(x)


class PrecisionContext(Record):
    """Working mantissa precision, in bits, for all kernel arithmetic."""

    __slots__ = ("bits",)

    def __init__(self, bits: int = DEFAULT_BITS) -> None:
        if not isinstance(bits, int) or isinstance(bits, bool):
            raise TypeError(f"bits must be an int, got {type(bits).__name__}")
        if bits < MIN_BITS:
            raise ValueError(f"bits must be >= {MIN_BITS}, got {bits}")
        super().__init__(bits)

    def working(self):
        """mpmath precision context at bits + guard (for internal math)."""
        return mp.workprec(self.bits + GUARD_BITS)

    def final(self):
        """mpmath precision context at the nominal bit count."""
        return mp.workprec(self.bits)

    def real(self, x) -> HPReal:
        """x, a number or plain-decimal text, as an HPReal rounded at this precision."""
        with self.final():
            return read_real(x)

    def round(self, v):
        """Round an mpf/mpc result to the nominal precision."""
        with self.final():
            return +v
