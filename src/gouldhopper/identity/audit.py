"""Grid audits: sweep the identity catalog over parameter grids.

Every (tag, parameter-cell) pair is an independent, pure check.  The
driver expands tags into cells, runs them in chunks (across worker
processes when jobs > 1), and returns reports in a canonical order so
identical invocations produce identical documents.
"""

from __future__ import annotations

import itertools
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ..exactalg import Poly, as_scalar
from ..heatrep import property_suite
from .checks import CHECKS, MISPRINT_LEDGER, IdentityTag, run_check

STATUS_EXACT_PASS = "ExactPass"
STATUS_SERIES_PASS = "SeriesPass"
STATUS_FAIL = "Fail"

POLICIES = ("printed", "corrected", "both", "auto")

# the most worker processes audit_grid starts; a process pool starts all
# of its workers at once
MAX_JOBS = 64

# rational evaluation points for the scalar hypergeometric transform
_HYP_POINTS = (Fraction(2), Fraction(1, 2), Fraction(-3))

# (a, b, z, w, g) parameter sets for the weighted generating series at
# rational specializations; a and b are deliberately non-integer
_WEIGHTED_POINTS = (
    (Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(3), Fraction(5)),
    (Fraction(-3, 2), Fraction(5, 2), Fraction(1, 3), Fraction(-2), Fraction(-7, 5)),
    (Fraction(7, 4), Fraction(-1, 4), Fraction(-1, 2), Fraction(5, 7), Fraction(2, 3)),
)


@dataclass(frozen=True)
class GridRanges:
    """Parameter ranges swept by audit_grid.

    n_max / m_max bound the polynomial indices; pq_pairs lists the
    derivative orders; aux_max bounds the shifted indices n', m' and
    the fixed index of the single-variable generating functions;
    jk_max bounds derivative counts and series weights; series_order
    and weighted_series_order truncate the generating-function checks.
    """

    n_max: int = 6
    m_max: int = 6
    pq_pairs: tuple[tuple[int, int], ...] = ((1, 1), (2, 1), (1, 2), (2, 2))
    aux_max: int = 3
    jk_max: int = 3
    series_order: int = 10
    weighted_series_order: int = 8
    hyp_points: tuple[Fraction, ...] = _HYP_POINTS
    weighted_points: tuple[tuple[Fraction, ...], ...] = _WEIGHTED_POINTS

    def __post_init__(self) -> None:
        for name in ("n_max", "m_max", "aux_max", "jk_max"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
        if not self.pq_pairs:
            raise ValueError("pq_pairs must be nonempty")
        for pair in self.pq_pairs:
            p, q = pair
            if not (isinstance(p, int) and isinstance(q, int)) or p < 0 or q < 0 or p + q < 1:
                raise ValueError(f"invalid derivative orders {pair!r}")
        top = max(p + q for p, q in self.pq_pairs)
        for name in ("series_order", "weighted_series_order"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < top:
                raise ValueError(
                    f"{name} must be an integer >= {top} for these derivative orders"
                )
        # the checkers take exact scalars, and HYP_2F0_1F1 divides by its
        # point; fail here, not mid-audit
        for z in self.hyp_points:
            _require_exact("hyp_points", z)
            if z == 0:
                raise ValueError("hyp_points must be nonzero")
        for point in self.weighted_points:
            if not isinstance(point, tuple) or len(point) != 5:
                raise ValueError(f"weighted_points entries are (a, b, z, w, g), got {point!r}")
            for value in point:
                _require_exact("weighted_points", value)
        # a repeated entry would check, and report, the same cells twice
        for name in ("pq_pairs", "hyp_points", "weighted_points"):
            entries = getattr(self, name)
            if len(set(entries)) != len(entries):
                raise ValueError(f"{name} repeats an entry: {entries!r}")

    @property
    def orders(self) -> tuple[int, ...]:
        """The distinct nonzero derivative orders in pq_pairs, ascending."""
        return tuple(sorted({x for pair in self.pq_pairs for x in pair if x >= 1}))


def _require_exact(field: str, value) -> None:
    try:
        as_scalar(value)
    except TypeError:
        raise ValueError(f"{field} entries must be exact (int or Fraction), got {value!r}") from None


@dataclass
class IdentityReport:
    """Outcome of one identity check on one parameter cell."""

    tag: IdentityTag
    params: dict
    variant: str  # "printed" or "corrected: <description>"
    status: str
    difference: Poly
    series_order: int | None = None
    notes: str = ""
    known_misprint: bool = False  # printed Fail excused by a passing corrected run

    @property
    def passed(self) -> bool:
        return self.status != STATUS_FAIL

    @property
    def effective_fail(self) -> bool:
        return self.status == STATUS_FAIL and not self.known_misprint

    def params_json(self) -> dict:
        return {key: _scalar_json(value) for key, value in self.params.items()}

    def sort_key(self) -> tuple:
        # the params as json.dumps(params_json(), sort_keys=True) writes them;
        # the keys are plain names and the values ints or "num/den" strings,
        # so nothing needs escaping
        params = ", ".join(
            f'"{key}": {value}' if isinstance(value, int) else f'"{key}": "{value}"'
            for key, value in sorted(self.params_json().items())
        )
        return (self.tag.value, "{" + params + "}", 0 if self.variant == "printed" else 1)

    def to_json_obj(self) -> dict:
        return {
            "tag": self.tag.value,
            "params": self.params_json(),
            "variant": self.variant,
            "status": self.status,
            "series_order": self.series_order,
            "difference": self.difference.to_json_obj(),
            "notes": self.notes,
            "known_misprint": self.known_misprint,
        }


class RenderedReport(NamedTuple):
    """A report as audit_grid's `render` turned it into text in the worker.

    It keeps what summarize and effective_failures read, so the parent
    never needs the report itself.
    """

    tag: IdentityTag
    status: str
    known_misprint: bool
    text: str

    @property
    def effective_fail(self) -> bool:
        return self.status == STATUS_FAIL and not self.known_misprint


def _scalar_json(value):
    if isinstance(value, bool):
        raise TypeError("boolean parameter values are not supported")
    if isinstance(value, int):
        return value
    return str(Fraction(value))


def corrected_variant_label(tag: IdentityTag) -> str:
    if tag not in MISPRINT_LEDGER:
        raise ValueError(f"{tag.value} has no documented corrected variant")
    return f"corrected: {MISPRINT_LEDGER[tag]}"


def run_cell(tag: IdentityTag, params: Mapping, policy: str = "auto") -> list[IdentityReport]:
    """Run one parameter cell under the given variant policy.

    auto: printed first; on failure of a ledger tag, the corrected
    variant is run too and a corrected pass excuses the printed Fail.
    printed / corrected: that single variant.  both: printed plus (for
    ledger tags) corrected, with the same excusal rule as auto.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown variant policy {policy!r}")
    ledgered = tag in MISPRINT_LEDGER
    spec = CHECKS[tag]
    series = spec.kind == "series"
    passing = STATUS_SERIES_PASS if series else STATUS_EXACT_PASS

    def one(variant: str) -> IdentityReport:
        lhs, rhs = run_check(tag, params, variant)
        difference = (lhs - rhs).to_poly() if series else lhs - rhs
        status = passing if difference.is_zero() else STATUS_FAIL
        label = "printed" if variant == "printed" else corrected_variant_label(tag)
        notes = spec.notes
        if variant == "corrected":
            notes = _join_notes(notes, MISPRINT_LEDGER[tag])
        return IdentityReport(
            tag=tag,
            params=dict(params),
            variant=label,
            status=status,
            difference=difference,
            series_order=params["order"] if series else None,
            notes=notes,
        )

    if policy == "printed":
        return [one("printed")]
    if policy == "corrected":
        return [one("corrected" if ledgered else "printed")]

    reports = [one("printed")]
    wants_corrected = ledgered and (policy == "both" or not reports[0].passed)
    if wants_corrected:
        corrected = one("corrected")
        reports.append(corrected)
        if not reports[0].passed and corrected.passed:
            reports[0].known_misprint = True
            reports[0].notes = _join_notes(
                reports[0].notes, f"known misprint; {MISPRINT_LEDGER[tag]}"
            )
    return reports


def _join_notes(first: str, second: str) -> str:
    return f"{first}; {second}" if first else second


def cells_for(tag: IdentityTag, ranges: GridRanges) -> list[dict]:
    """Expand one tag into its full list of parameter cells.

    The cells are the product of the tag's grid axes, in axis order, that
    satisfy its constraint.
    """
    return list(_cells(tag, ranges))


def unchecked_tags(tags: Iterable[IdentityTag] | None, ranges: GridRanges) -> list[IdentityTag]:
    """The tags (all when None) that the grid gives no cells, in registry order."""
    selected = CHECKS if tags is None else set(tags)
    return [tag for tag in CHECKS if tag in selected and next(_cells(tag, ranges), None) is None]


def _cells(tag: IdentityTag, ranges: GridRanges) -> Iterator[dict]:
    spec = CHECKS[tag]
    flat = [key for keys, _ in spec.axes for key in keys]
    pools = [
        [value if len(keys) > 1 else (value,) for value in _axis_values(ranges, name)]
        for keys, name in spec.axes
    ]
    cells = (
        dict(zip(flat, itertools.chain.from_iterable(combo)))
        for combo in itertools.product(*pools)
    )
    return filter(spec.admits, cells) if spec.needs else cells


def _axis_values(ranges: GridRanges, name: str) -> Sequence:
    # a *_max bound ranges over 0..max, a tuple over its entries, and any
    # other field is its one value
    value = getattr(ranges, name)
    if name.endswith("_max"):
        return range(value + 1)
    return value if isinstance(value, tuple) else (value,)


def _run_chunk(work: tuple) -> list[tuple]:
    # (sort key, report or its rendering) for each report of one chunk
    tag_name, cells, policy, render = work
    tag = IdentityTag(tag_name)
    keyed = []
    for params in cells:
        for report in run_cell(tag, params, policy):
            key = report.sort_key()
            if render is not None:
                report = RenderedReport(tag, report.status, report.known_misprint, render(report))
            keyed.append((key, report))
    return keyed


class _InProcess(Executor):
    """The pool of one worker: this process, running each task as it is submitted."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


def audit_grid(
    tags: Iterable[IdentityTag] | None = None,
    ranges: GridRanges | None = None,
    policy: str = "auto",
    jobs: int = 1,
    *,
    render: Callable[[IdentityReport], str] | None = None,
    heat: tuple[int, int] | None = None,
) -> list:
    """Run the selected tags over the grid; reports in canonical order.

    The cells go out in chunks to a pool of at most `jobs` processes (this
    process alone when that is 1, or when there is one task).  The worker
    that checks a report also computes its sort key, and with `render` it
    returns RenderedReport(tag, status, known_misprint, render(report))
    in place of the report, so rendering runs in parallel and only text
    comes back.  With heat=(seed, trials), heatrep.property_suite on the
    grid's pq_pairs runs as the first task, and the result is the pair
    (reports, heat suite report).
    """
    if ranges is None:
        ranges = GridRanges()
    if policy not in POLICIES:
        raise ValueError(f"unknown variant policy {policy!r}")
    if not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"jobs must be between 1 and {MAX_JOBS}, got {jobs}")
    selected = sorted(
        set(tags) if tags is not None else set(CHECKS), key=lambda t: t.value
    )
    work: list[tuple] = []
    for tag in selected:
        cells = cells_for(tag, ranges)
        # one work item per tag keeps worker payloads coarse; the big
        # grids are split so no single chunk dominates the runtime
        if not cells:
            continue
        step = max(1, len(cells) // jobs // 2) if jobs > 1 else len(cells)
        for start in range(0, len(cells), step):
            work.append((tag.value, cells[start : start + step], policy, render))

    workers = min(jobs, len(work) + (heat is not None))
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else _InProcess()
    try:
        # the heat suite is the longest single task: it starts first
        suite = None if heat is None else pool.submit(property_suite, *heat, ranges.pq_pairs)
        keyed = [entry for chunk in pool.map(_run_chunk, work) for entry in chunk]
        heat_report = None if suite is None else suite.result()
    finally:
        # after a failed task, drop the queued ones rather than run them
        pool.shutdown(cancel_futures=True)
    keyed.sort(key=itemgetter(0))
    reports = [report for _, report in keyed]
    return reports if heat is None else (reports, heat_report)


def summarize(reports: Sequence[IdentityReport | RenderedReport]) -> dict:
    """Counts per status plus per-tag breakdown, JSON-ready."""
    summary = {
        "total": len(reports),
        "exact_pass": 0,
        "series_pass": 0,
        "fail": 0,
        "known_misprints": 0,
        "effective_fail": 0,
        "by_tag": {},
    }
    for report in reports:
        bucket = summary["by_tag"].setdefault(
            report.tag.value,
            {"exact_pass": 0, "series_pass": 0, "fail": 0, "known_misprints": 0},
        )
        if report.status == STATUS_EXACT_PASS:
            summary["exact_pass"] += 1
            bucket["exact_pass"] += 1
        elif report.status == STATUS_SERIES_PASS:
            summary["series_pass"] += 1
            bucket["series_pass"] += 1
        else:
            summary["fail"] += 1
            bucket["fail"] += 1
            if report.known_misprint:
                summary["known_misprints"] += 1
                bucket["known_misprints"] += 1
            if report.effective_fail:
                summary["effective_fail"] += 1
    summary["by_tag"] = dict(sorted(summary["by_tag"].items()))
    return summary


def effective_failures(reports: Sequence[IdentityReport | RenderedReport]) -> list:
    return [report for report in reports if report.effective_fail]
