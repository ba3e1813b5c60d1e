"""Identity catalog, per-identity exact checkers, and grid audits.

Each identity is one registry entry in :mod:`.checks`, an
``@identity(...)`` decorator on its checker holding the tag, kind, grid
axes, admissible-cell constraint, optional correction and notes.  The
checker is a plain function of the cell's parameters, whose signature
gives the parameter keys in display order, and it returns the two sides
(lhs, rhs).  IdentityTag, CHECKS, MISPRINT_LEDGER, cells_for and
run_check's validation derive from the entries: adding an identity is
writing its checker and one entry.

run_check(tag, params, variant) returns one cell's two sides;
run_cell(tag, params, policy) forms their difference and returns the
list of reports produced under the chosen variant policy (two reports
when a printed form fails and a documented correction exists).
audit_grid runs every cell of a grid, on up to MAX_JOBS worker
processes, and can have the workers render each report (RenderedReport).
"""

from __future__ import annotations

from .audit import (
    MAX_JOBS,
    POLICIES,
    STATUS_EXACT_PASS,
    STATUS_FAIL,
    STATUS_SERIES_PASS,
    GridRanges,
    IdentityReport,
    RenderedReport,
    audit_grid,
    cells_for,
    corrected_variant_label,
    run_cell,
    summarize,
    unchecked_tags,
)
from .checks import (
    CHECKS,
    MISPRINT_LEDGER,
    CheckSpec,
    IdentityTag,
    parse_tag,
    pochhammer_tail,
    run_check,
)

__all__ = [
    "CHECKS",
    "CheckSpec",
    "GridRanges",
    "IdentityReport",
    "IdentityTag",
    "MAX_JOBS",
    "MISPRINT_LEDGER",
    "POLICIES",
    "RenderedReport",
    "STATUS_EXACT_PASS",
    "STATUS_FAIL",
    "STATUS_SERIES_PASS",
    "audit_grid",
    "cells_for",
    "corrected_variant_label",
    "parse_tag",
    "pochhammer_tail",
    "run_cell",
    "run_check",
    "summarize",
    "unchecked_tags",
]
