"""Identity catalog, per-identity exact checkers, and grid audits.

Each identity is one registry entry in :mod:`.checks`, an
``@identity(...)`` decorator on its checker holding the tag, kind, grid
axes, parameter keys, admissible-cell constraint and optional
correction.  IdentityTag, CHECKS, MISPRINT_LEDGER, cells_for and
run_check's validation derive from the entries: adding an identity is
writing its checker and one entry.

The public entry points wrap run_cell with arity/kind validation:
verify_algebraic for finite polynomial identities, verify_series for
the truncated generating-function identities, verify_hypergeom_transform
for the scalar 2F0/1F1 relation, and verify_pde for the differential
equations.  Each returns the list of reports produced under the chosen
variant policy (two reports when a printed form fails and a documented
correction exists).
"""

from __future__ import annotations

from typing import Mapping

from ..ghcore import FamilyParams
from .audit import (
    POLICIES,
    STATUS_EXACT_PASS,
    STATUS_FAIL,
    STATUS_SERIES_PASS,
    GridRanges,
    IdentityReport,
    audit_grid,
    cells_for,
    corrected_variant_label,
    effective_failures,
    run_cell,
    summarize,
)
from .checks import (
    CHECKS,
    MISPRINT_LEDGER,
    CheckResult,
    CheckSpec,
    IdentityTag,
    parse_tag,
    pochhammer_tail,
    run_check,
)

__all__ = [
    "CHECKS",
    "CheckResult",
    "CheckSpec",
    "GridRanges",
    "IdentityReport",
    "IdentityTag",
    "MISPRINT_LEDGER",
    "POLICIES",
    "STATUS_EXACT_PASS",
    "STATUS_FAIL",
    "STATUS_SERIES_PASS",
    "audit_grid",
    "cells_for",
    "corrected_variant_label",
    "effective_failures",
    "parse_tag",
    "pochhammer_tail",
    "run_cell",
    "run_check",
    "summarize",
    "verify_algebraic",
    "verify_hypergeom_transform",
    "verify_pde",
    "verify_series",
]


def _require_kind(tag: IdentityTag, kinds: tuple[str, ...], caller: str) -> None:
    kind = CHECKS[tag].kind
    if kind not in kinds:
        raise ValueError(f"{caller} does not handle {tag.value} (kind {kind!r})")


def verify_algebraic(
    tag: IdentityTag, params: Mapping, policy: str = "auto"
) -> list[IdentityReport]:
    """Check a finite polynomial identity on one parameter cell."""
    _require_kind(tag, ("algebraic", "pde"), "verify_algebraic")
    return run_cell(tag, params, policy)


def verify_series(
    tag: IdentityTag, params: Mapping, order: int, policy: str = "auto"
) -> list[IdentityReport]:
    """Check a generating-function identity through total order `order`."""
    _require_kind(tag, ("series",), "verify_series")
    bundle = dict(params)
    bundle["order"] = order
    return run_cell(tag, bundle, policy)


def verify_hypergeom_transform(
    n: int, m: int, z, policy: str = "auto"
) -> list[IdentityReport]:
    """Check the terminating 2F0 <-> 1F1 relation at a rational point."""
    return run_cell(IdentityTag.HYP_2F0_1F1, {"n": n, "m": m, "z": z}, policy)


def verify_pde(
    tag: IdentityTag, params: FamilyParams | Mapping, policy: str = "auto"
) -> list[IdentityReport]:
    """Check one of the differential-equation statements."""
    _require_kind(tag, ("pde",), "verify_pde")
    if isinstance(params, FamilyParams):
        bundle = {"p": params.p, "q": params.q, "n": params.n, "m": params.m}
    else:
        bundle = dict(params)
    return run_cell(tag, bundle, policy)
