"""Exact and asymptotic counting of Newton polygons.

Exact side: arbitrary-size-integer counts of polygons by height for the
slope ranges [0, 1), [0, 1] and [0, 1/2], the symmetric-polygon counts,
and the triangular (height, depth) table. Asymptotic side: the saddle
main term, residue coefficients of non-trivial zeta zeros and their
oscillatory corrections, evaluated with high-precision Γ from mpmath,
ζ and ζ′ in the critical strip from one fixed-point Borwein pass of its
own and from mpmath elsewhere, behind pole-checked, conjugate-symmetric,
rounded wrappers.
"""
from .asymptotics import (
    AsymptoticBreakdown,
    ExpansionCheck,
    ResidueCoefficient,
    TruncationError,
    full_estimate,
    leading_estimate,
    log_leading_estimate,
    logf_expansion_check,
    oscillation_sum,
    oscillation_tail_bound,
    residue_coefficient,
    saddle_tau,
    variant_estimate,
    wave_envelope,
    wave_sample,
)
from .counting import (
    CountSeries,
    SlopeRange,
    count_series,
    log_derivative_weights,
    segment_exponents,
    symmetric_count,
    totient_sieve,
)
from .precision import DEFAULT_BITS, HPComplex, HPReal, PrecisionContext
from .rho import RhoTable, rho_recurrence_table
from .special import (
    PoleError,
    bernoulli_even,
    complex_gamma,
    complex_zeta,
    constant_C,
    constant_K,
    zeta_derivative,
    zeta_with_derivative,
)
from .zeros import (
    NonConvergenceError,
    ZeroFileError,
    ZetaZero,
    bundled_zeros,
    load_zeros,
    refine_catalog,
    refine_zero,
)

__version__ = "0.1.0"
