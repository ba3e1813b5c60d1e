"""Exact arithmetic for two-variable Gould-Hopper polynomials.

The package constructs the family H^(p,q)_{n,m}(z, w | gamma) by five
independent strategies, certifies a large catalog of its identities as
exact polynomial or truncated-series equalities (with a documented
ledger of corrected variants for misprinted displays), and builds exact
polynomial solutions of the higher-order heat equation
c * Dz^p Dw^q u = Dt u.  All arithmetic is over the rationals; nothing
is ever approximated.
"""

from .exactalg import Poly
from .ghcore import FamilyParams, explicit, hypergeom_form, via_genfun
from .heatrep import HeatProblem, residual, solve
from .identity import GridRanges, IdentityTag, audit_grid, run_cell

__version__ = "0.1.0"

# the names the README's Library section imports; everything else is
# imported from its submodule
__all__ = [
    "FamilyParams",
    "GridRanges",
    "HeatProblem",
    "IdentityTag",
    "Poly",
    "audit_grid",
    "explicit",
    "hypergeom_form",
    "residual",
    "run_cell",
    "solve",
    "via_genfun",
]
