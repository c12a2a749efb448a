"""Exact and asymptotic counting of Newton polygons.

Exact side: arbitrary-size-integer counts of polygons by height for the
slope ranges [0, 1), [0, 1] and [0, 1/2], the symmetric-polygon counts,
and the triangular (height, depth) table. Asymptotic side:
:func:`full_estimate`, the saddle main term with the oscillatory
corrections of the non-trivial zeta zeros as one breakdown, for the
family its ``slope_range`` argument names, the zero wave
:func:`wave_sample` and a check of the Mellin expansion of log f, each
summing the zeros its caller hands it, evaluated with high-precision Γ
from mpmath, ζ and ζ′ in the critical strip from one fixed-point Borwein
pass of its own and from mpmath elsewhere, behind pole-checked,
conjugate-symmetric, rounded wrappers.
"""
from .asymptotics import (
    AsymptoticBreakdown,
    ExpansionCheck,
    TruncationError,
    full_estimate,
    logf_expansion_check,
    wave_sample,
)
from .counting import (
    CountSeries,
    SlopeRange,
    count_series,
    log_derivative_weights,
)
from .precision import DEFAULT_BITS, HPComplex, HPReal, PrecisionContext
from .rho import RhoTable, rho_recurrence_table
from .special import (
    PoleError,
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
