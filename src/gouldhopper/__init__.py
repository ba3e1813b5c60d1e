"""Exact arithmetic for two-variable Gould-Hopper polynomials.

The package constructs the family H^(p,q)_{n,m}(z, w | gamma) by five
independent strategies, certifies a large catalog of its identities as
exact polynomial or truncated-series equalities (with a documented
ledger of corrected variants for misprinted displays), and builds exact
polynomial solutions of the higher-order heat equation
c * Dz^p Dw^q u = Dt u.  All arithmetic is over the rationals; nothing
is ever approximated.
"""

from .exactalg import (
    Poly,
    SeriesUV,
    SeriesArgumentError,
    TruncationError,
    VAR_NAMES,
    as_scalar,
    rising_factorial,
    series_binomial_neg,
    series_exp,
)
from .ghcore import (
    STRATEGIES,
    FamilyParams,
    InvalidParamsError,
    UnsupportedRepresentationError,
    explicit,
    explicit_poly,
    gould_hopper_1d,
    hermite_classical,
    hypergeom_form,
    ito_hermite,
    operational,
    origin_value,
    via_creation,
    via_genfun,
    via_recurrence,
)
from .heatrep import (
    HeatProblem,
    at_time,
    property_suite,
    random_polynomial,
    residual,
    solve,
)
from .identity import (
    CHECKS,
    GridRanges,
    IdentityReport,
    IdentityTag,
    MISPRINT_LEDGER,
    audit_grid,
    cells_for,
    effective_failures,
    parse_tag,
    pochhammer_tail,
    run_cell,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "CHECKS",
    "FamilyParams",
    "GridRanges",
    "HeatProblem",
    "IdentityReport",
    "IdentityTag",
    "InvalidParamsError",
    "MISPRINT_LEDGER",
    "Poly",
    "STRATEGIES",
    "SeriesArgumentError",
    "SeriesUV",
    "TruncationError",
    "UnsupportedRepresentationError",
    "VAR_NAMES",
    "as_scalar",
    "at_time",
    "audit_grid",
    "cells_for",
    "effective_failures",
    "explicit",
    "explicit_poly",
    "gould_hopper_1d",
    "hermite_classical",
    "hypergeom_form",
    "ito_hermite",
    "operational",
    "origin_value",
    "parse_tag",
    "pochhammer_tail",
    "property_suite",
    "random_polynomial",
    "residual",
    "rising_factorial",
    "run_cell",
    "series_binomial_neg",
    "series_exp",
    "solve",
    "summarize",
    "via_creation",
    "via_genfun",
    "via_recurrence",
]
