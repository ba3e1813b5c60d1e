"""Aggregated spans around the package's public functions and methods.

`install` swaps each traced function or method, wherever a loaded
``gouldhopper`` module or class holds it, for a wrapper that adds to one
row per span name: calls, total seconds, self seconds and terms out.  A
span's self time is its duration minus the time of the spans it encloses.
Nothing is stored per call, so the store stays the same size however many
calls a run makes.  Worker processes forked after `install` trace into
their own memory, which is lost when they exit.
"""

from __future__ import annotations

import functools
import sys
import time

CALLS, TOTAL_S, SELF_S, TERMS = range(4)


class Spans:
    """Per-name span rows plus the kernel's operation counts."""

    def __init__(self):
        self.rows: dict[str, list] = {}
        self.term_pairs = 0  # sum of len(a) * len(b) over Poly products
        self.peak_terms = 0  # most terms in any traced kernel result
        self.corrected_runs = 0
        self._open: list[float] = []  # enclosed-span seconds of each open span

    def row(self, name: str) -> list:
        return self.rows.setdefault(name, [0, 0.0, 0.0, 0])

    def wrap(self, fn, name: str | None = None, *, name_of=None, size=None, before=None):
        """Wrap `fn` in a span named `name`, or `name_of(args)` per call.

        `size(result)` gives the terms a kernel result holds; `before(args)`
        runs ahead of the call for counts taken from the arguments.
        """
        fixed = None if name_of else self.row(name)
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = fixed or self.row(name_of(args))
            if before is not None:
                before(args)
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                enclosed = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                row[CALLS] += 1
                row[TOTAL_S] += elapsed
                row[SELF_S] += elapsed - enclosed
            if size is not None:
                terms = size(result)
                row[TERMS] += terms
                if terms > self.peak_terms:
                    self.peak_terms = terms
            return result

        return traced


def _replace_everywhere(original, wrapped) -> None:
    # modules bind imported names to the same object; rebind every one
    for module_name, module in list(sys.modules.items()):
        if module_name == "gouldhopper" or module_name.startswith("gouldhopper."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def _replace_method(cls, method: str, wrapped) -> None:
    # aliases such as __rmul__ = __mul__ share the function object
    original = cls.__dict__[method]
    for attr, value in list(vars(cls).items()):
        if value is original:
            setattr(cls, attr, wrapped)


def install() -> Spans:
    """Trace the package's layers in this process; returns the span store."""
    from gouldhopper import cli, ghcore, heatrep
    from gouldhopper.exactalg import Poly, SeriesUV, series_exp
    from gouldhopper.identity import audit, checks

    spans = Spans()

    def poly_terms(result) -> int:
        return len(result) if isinstance(result, Poly) else 0

    def series_terms(result) -> int:
        return sum(len(poly) for _, poly in result.items()) if isinstance(result, SeriesUV) else 0

    def count_pairs(args) -> None:
        a, b = args
        spans.term_pairs += len(a) * (len(b) if isinstance(b, Poly) else 1)

    for method, label, before in (
        ("__mul__", "mul", count_pairs),
        ("__add__", "add", None),
        ("subst", "subst", None),
        ("diff", "diff", None),
        ("__pow__", "pow", None),
    ):
        original = Poly.__dict__[method]
        _replace_method(Poly, method, spans.wrap(
            original, f"exactalg.Poly.{label}", size=poly_terms, before=before))
    _replace_method(SeriesUV, "__mul__", spans.wrap(
        SeriesUV.__dict__["__mul__"], "exactalg.SeriesUV.mul", size=series_terms))
    _replace_everywhere(series_exp, spans.wrap(series_exp, "exactalg.series_exp", size=series_terms))

    for module, prefix, names in (
        (ghcore, "ghcore", ("explicit", "operational", "via_creation", "via_recurrence",
                            "via_genfun", "hypergeom_form")),
        (heatrep, "heatrep", ("solve", "residual", "at_time", "property_suite")),
        (audit, "audit", ("audit_grid",)),
        (cli, "cli", ("main", "parse_poly_expr")),
    ):
        for name in names:
            original = getattr(module, name)
            _replace_everywhere(original, spans.wrap(original, f"{prefix}.{name}"))

    def check_name(args) -> str:
        tag, _, variant = args
        if variant == "corrected":
            spans.corrected_runs += 1
        return f"checks.{tag.value}"

    _replace_everywhere(checks.run_check, spans.wrap(checks.run_check, name_of=check_name))
    return spans
