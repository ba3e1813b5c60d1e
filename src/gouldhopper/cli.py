"""Command-line front end: compute / verify / audit / heat.

All output is deterministic: canonical term order, sorted reports,
sorted JSON keys, no timestamps, the same bytes at every --jobs value.
Exit codes: 0 success, 1 at least one effective identity/property
failure, 2 usage error, 3 internal error (an unexpected exception,
reported in one line on stderr).

The deformation parameter is spelled ``gamma`` (or ``g``) in all
textual interfaces; the Unicode letter is accepted on input and ASCII
is emitted on output.  Rationals travel as ``num/den`` strings.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import re
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

from .exactalg import Poly, VAR_NAMES
from .ghcore import (
    STRATEGIES,
    FamilyParams,
    InvalidParamsError,
    UnsupportedRepresentationError,
)
from .heatrep import HeatProblem, residual, solve
from .identity import (
    CHECKS,
    MAX_JOBS,
    POLICIES,
    GridRanges,
    IdentityReport,
    audit_grid,
    parse_tag,
    summarize,
    unchecked_tags,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

_VAR_ALIASES = {
    "gamma": "g",
    "γ": "g",
    "z'": "zp",
    "w'": "wp",
    "g'": "gp",
    "gamma'": "gp",
    "γ'": "gp",
}


def canonical_var(name: str) -> str:
    return _VAR_ALIASES.get(name, name)


class ExprError(ValueError):
    """Expression syntax/semantic error carrying a source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_NUM_RE = re.compile(r"\d+(?:/\d+)?")
_NAME_RE = re.compile(r"[A-Za-zγ][A-Za-z0-9]*'?")


def _tokenize(src: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        match = _NUM_RE.match(src, i)
        if match:
            # keep the raw text: the power rule needs to tell 2 from 2/1
            tokens.append(("num", match.group(), i))
            i = match.end()
            continue
        match = _NAME_RE.match(src, i)
        if match:
            tokens.append(("name", match.group(), i))
            i = match.end()
            continue
        if ch in "+-*^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    return tokens


class _ExprParser:
    """Recursive-descent parser for polynomial expressions.

    Grammar: rational literals (``3``, ``3/2``), variables, ``+ - *``,
    ``^`` with nonnegative integer exponents, parentheses, and implicit
    multiplication by adjacency (``2z``, ``3(z+w)``).
    """

    def __init__(self, src: str, allowed: frozenset[str]):
        self.src = src
        self.tokens = _tokenize(src)
        self.k = 0
        self.allowed = allowed

    def _peek(self):
        return self.tokens[self.k] if self.k < len(self.tokens) else (None, None, len(self.src))

    def _next(self):
        token = self._peek()
        self.k += 1
        return token

    def parse(self) -> Poly:
        if not self.tokens:
            raise ExprError("empty expression", 0)
        result = self._expr()
        kind, value, pos = self._peek()
        if kind is not None:
            raise ExprError(f"unexpected {value!r}", pos)
        return result

    def _expr(self) -> Poly:
        # one linear combination of the signed products
        terms = [(1, *self._term())]
        while True:
            kind, value, _ = self._peek()
            if kind == "op" and value in "+-":
                self.k += 1
                terms.append((1 if value == "+" else -1, *self._term()))
            else:
                return Poly.lincomb(terms)

    def _term(self) -> list[Poly]:
        # the factors of one product
        factors = [self._factor()]
        while True:
            kind, value, _ = self._peek()
            if kind == "op" and value == "*":
                self.k += 1
            elif not (kind in ("num", "name") or (kind == "op" and value == "(")):
                return factors
            factors.append(self._factor())

    def _factor(self) -> Poly:
        kind, value, _ = self._peek()
        if kind == "op" and value == "-":
            self.k += 1
            return -self._factor()
        return self._power()

    def _power(self) -> Poly:
        base = self._atom()
        kind, value, pos = self._peek()
        if kind == "op" and value == "^":
            self.k += 1
            kind, value, pos = self._next()
            if kind == "op" and value == "-":
                raise ExprError("negative exponent", pos)
            if kind != "num" or not value.isdigit():
                raise ExprError("expected a nonnegative integer exponent", pos)
            return base ** int(value)
        return base

    def _atom(self) -> Poly:
        kind, value, pos = self._next()
        if kind == "num":
            try:
                return Poly.const(Fraction(value))
            except ZeroDivisionError:
                raise ExprError("zero denominator", pos) from None
        if kind == "name":
            var = canonical_var(value)
            if var not in self.allowed:
                raise ExprError(f"variable {value!r} is not allowed here", pos)
            return Poly.variable(var)
        if kind == "op" and value == "(":
            inner = self._expr()
            kind, value, pos = self._next()
            if not (kind == "op" and value == ")"):
                raise ExprError("expected ')'", pos)
            return inner
        if kind is None:
            raise ExprError("unexpected end of expression", pos)
        raise ExprError(f"unexpected {value!r}", pos)


def parse_poly_expr(src: str, allowed_vars=("z", "w")) -> Poly:
    """Parse a polynomial expression over the allowed variables."""
    allowed = frozenset(canonical_var(name) for name in allowed_vars)
    unknown = allowed - set(VAR_NAMES)
    if unknown:
        raise ValueError(f"unknown variables in allowed_vars: {sorted(unknown)}")
    return _ExprParser(src, allowed).parse()


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def parse_count(text: str, most: int | None = None) -> int:
    """Parse a count that must be at least 1 (workers, trials) and at most `most`."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    if most is not None and value > most:
        raise argparse.ArgumentTypeError(f"must be <= {most}, got {value}")
    return value


def parse_jobs(text: str) -> int:
    """Parse a worker count, 1 to MAX_JOBS."""
    return parse_count(text, most=MAX_JOBS)


def parse_pq_list(text: str) -> tuple[tuple[int, int], ...]:
    """Parse '1,1;2,1' into ((1,1),(2,1))."""
    pairs = []
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        parts = piece.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 'p,q' but got {piece!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"expected integers in {piece!r}") from None
    if not pairs:
        raise ValueError("no (p,q) pairs given")
    return tuple(pairs)


def parse_subst(text: str) -> dict[str, Fraction]:
    """Parse 'z=1/2,w=2,gamma=3' into canonical-variable bindings."""
    bindings: dict[str, Fraction] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ValueError(f"expected 'var=value' but got {piece!r}")
        key, _, value = piece.partition("=")
        var = canonical_var(key.strip())
        if var not in ("z", "w", "g"):
            raise ValueError(f"cannot substitute {key.strip()!r}; use z, w, or gamma")
        if var in bindings:
            raise ValueError(f"variable {key.strip()!r} is bound twice")
        bindings[var] = parse_rational(value)
    if not bindings:
        raise ValueError("empty substitution")
    return bindings


# ---------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------

_json_str = json.encoder.encode_basestring_ascii


def _dump_json(obj) -> str:
    """Exactly ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, faster.

    With `indent` set the json module falls back to its pure-Python
    encoder; this writer emits the same bytes for the types the CLI
    produces (dicts with str keys, lists, tuples, str, int, bool, None)
    and raises TypeError for anything else.
    """
    pieces: list[str] = []
    _write_json(obj, "", "\n", pieces)
    pieces.append("\n")
    return "".join(pieces)


class _JsonItems(list):
    """A JSON array of items already written, at the indentation of its items."""


def _report_json(report: IdentityReport, depth: int) -> str:
    # the report as _write_json writes an item of an array `depth` levels deep
    pieces: list[str] = []
    _write_json(report.to_json_obj(), "", "\n" + "  " * depth, pieces)
    return "".join(pieces)


def _write_json(value, head: str, newline: str, pieces: list[str]) -> None:
    # append `head` followed by `value`; `newline` is "\n" plus the
    # indentation of the line `value` starts on
    if isinstance(value, str):
        pieces.append(head + _json_str(value))
    elif value is None:
        pieces.append(head + "null")
    elif value is True:
        pieces.append(head + "true")
    elif value is False:
        pieces.append(head + "false")
    elif isinstance(value, int):
        pieces.append(head + int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            pieces.append(head + "{}")
            return
        inner = newline + "  "
        sep = head + "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {type(key).__name__}")
            _write_json(value[key], sep + _json_str(key) + ": ", inner, pieces)
            sep = "," + inner
        pieces.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            pieces.append(head + "[]")
            return
        inner = newline + "  "
        if type(value) is _JsonItems:
            pieces.append(head + "[" + inner + ("," + inner).join(value) + newline + "]")
            return
        sep = head + "[" + inner
        for item in value:
            _write_json(item, sep, inner, pieces)
            sep = "," + inner
        pieces.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _poly_json(poly: Poly) -> dict:
    return {"text": poly.text(), "terms": poly.to_json_obj()}


def _poly_csv_rows(poly: Poly, columns: tuple[str, ...]) -> list[list[str]]:
    rows = []
    indices = [VAR_NAMES.index(name) for name in columns]
    for exps, coeff in poly.sorted_terms():
        stray = [VAR_NAMES[i] for i, e in enumerate(exps) if e and i not in indices]
        if stray:
            raise ValueError(f"polynomial contains unexpected variables {stray}")
        rows.append(
            [str(exps[i]) for i in indices]
            + [str(coeff.numerator), str(coeff.denominator)]
        )
    return rows


def _csv_document(header: list[str], rows: list[list[str]]) -> str:
    # plain joins: every field is an integer or a bare identifier
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _report_params_text(report: IdentityReport) -> str:
    keys = CHECKS[report.tag].keys
    return " ".join(f"{key}={_scalar_text(report.params[key])}" for key in keys)


def _scalar_text(value) -> str:
    return str(value) if isinstance(value, int) else str(Fraction(value))


def _report_text(report: IdentityReport) -> str:
    text = (
        f"{report.status:<10} {report.tag.value:<18} "
        f"{_report_params_text(report)}  [{report.variant}]\n"
    )
    if report.status == "Fail":
        text += f"    difference: {report.difference.text()}\n"
    if report.notes:
        text += f"    notes: {report.notes}\n"
    return text


def _failure_text(report: IdentityReport) -> str:
    # the audit's text lists the failed reports only
    return _report_text(report) if report.status == "Fail" else ""


def _summary_text(summary: dict) -> str:
    return (
        "summary: total={total} exact_pass={exact_pass} series_pass={series_pass} "
        "fail={fail} known_misprints={known_misprints} "
        "effective_fail={effective_fail}\n".format(**summary)
    )


def _report_junit(report: IdentityReport) -> str:
    case = ET.Element(
        "testcase",
        classname=report.tag.value,
        name=f"{_report_params_text(report)} [{report.variant}]",
    )
    if report.status == "Fail":
        if report.known_misprint:
            ET.SubElement(case, "skipped", message=report.notes or "known misprint")
        else:
            failure = ET.SubElement(case, "failure", message="nonzero difference")
            failure.text = report.difference.text()
    return ET.tostring(case, encoding="unicode")


def _junit_document(cases: list[str], summary: dict) -> str:
    # the testsuite element as ElementTree writes it around its (never
    # zero) cases; a known misprint is a skipped case, any other Fail a failure
    suite = (
        '<testsuite name="identity-verify" tests="{total}" failures="{effective_fail}" '
        'skipped="{known_misprints}">'.format(**summary)
    )
    return '<?xml version="1.0" encoding="utf-8"?>\n' + suite + "".join(cases) + "</testsuite>\n"


def _grid_json(ranges: GridRanges) -> dict:
    return {
        field.name: _grid_value(getattr(ranges, field.name))
        for field in dataclasses.fields(GridRanges)
    }


def _grid_value(value):
    # ints stay ints, rationals travel as strings, tuples as lists
    if isinstance(value, tuple):
        return [_grid_value(item) for item in value]
    return value if isinstance(value, int) else str(value)


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------

def _cmd_compute(args) -> int:
    try:
        params = FamilyParams(args.p, args.q, args.n, args.m)
    except InvalidParamsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    bindings = dict(args.subst or {})
    if args.gamma is not None:
        if "g" in bindings:
            print("error: --gamma and --subst both bind gamma", file=sys.stderr)
            return EXIT_USAGE
        bindings["g"] = args.gamma

    names = tuple(STRATEGIES) if args.strategy == "all" else (args.strategy,)
    results = []
    for name in names:
        try:
            poly = STRATEGIES[name](params, args.order)
            if bindings:
                poly = poly.subst(bindings)
        except UnsupportedRepresentationError as exc:
            if args.strategy == "all":
                continue
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except ValueError as exc:
            # a truncation order too low, or a degree past the kernel bound
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        results.append((name, poly))

    if args.format == "json":
        document = {
            "params": {"p": args.p, "q": args.q, "n": args.n, "m": args.m},
            "substitution": {key: str(value) for key, value in bindings.items()} or None,
            "results": [
                {"strategy": name, **_poly_json(poly)} for name, poly in results
            ],
        }
        sys.stdout.write(_dump_json(document))
    elif args.format == "csv":
        header = ["strategy", "z", "w", "g", "num", "den"]
        rows = []
        for name, poly in results:
            for row in _poly_csv_rows(poly, ("z", "w", "g")):
                rows.append([name] + row)
        sys.stdout.write(_csv_document(header, rows))
    elif args.format == "latex":
        if len(results) == 1:
            sys.stdout.write(results[0][1].latex() + "\n")
        else:
            for name, poly in results:
                sys.stdout.write(f"{name}: {poly.latex()}\n")
    else:
        if len(results) == 1:
            sys.stdout.write(results[0][1].text() + "\n")
        else:
            for name, poly in results:
                sys.stdout.write(f"{name}: {poly.text()}\n")
    return EXIT_OK


def _make_ranges(args) -> GridRanges:
    return GridRanges(
        n_max=args.nmax,
        m_max=args.mmax,
        pq_pairs=args.pq,
        aux_max=args.aux_max,
        jk_max=args.jk_max,
        series_order=args.order,
        weighted_series_order=min(GridRanges.weighted_series_order, args.order),
    )


def _warn_unchecked(tags: list) -> None:
    # the tags the grid gives no cells pass no check; say so off stdout
    if tags:
        names = ", ".join(tag.value for tag in tags)
        print(f"warning: the grid gives no cells to {names}; they are unchecked",
              file=sys.stderr)


def _cmd_verify(args) -> int:
    if args.tag == "all":
        tags = None
    else:
        try:
            tags = {parse_tag(args.tag)}
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        ranges = _make_ranges(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    unchecked = unchecked_tags(tags, ranges)
    if unchecked and tags is not None:
        # a verify that checked nothing must not read as a pass
        print(f"error: the grid gives {unchecked[0].value} no cells; nothing to verify",
              file=sys.stderr)
        return EXIT_USAGE
    _warn_unchecked(unchecked)
    # the workers render each report; the document is an array of them
    render = {
        "json": functools.partial(_report_json, depth=1),
        "junit": _report_junit,
        "text": _report_text,
    }[args.format]
    reports = audit_grid(tags, ranges, policy=args.variant, jobs=args.jobs, render=render)
    summary = summarize(reports)
    texts = [report.text for report in reports]
    if args.format == "json":
        sys.stdout.write(_dump_json(_JsonItems(texts)))
    elif args.format == "junit":
        sys.stdout.write(_junit_document(texts, summary))
    else:
        sys.stdout.write("".join(texts) + _summary_text(summary))
    return EXIT_FAIL if summary["effective_fail"] else EXIT_OK


def _cmd_audit(args) -> int:
    try:
        ranges = _make_ranges(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _warn_unchecked(unchecked_tags(None, ranges))
    # the workers render each report: as an item of the document's
    # "reports" array, two levels deep, or as text if it failed
    render = functools.partial(_report_json, depth=2) if args.format == "json" else _failure_text
    reports, heat = audit_grid(
        None, ranges, policy=args.variant, jobs=args.jobs, render=render,
        heat=(args.seed, args.trials),
    )
    summary = summarize(reports)
    texts = [report.text for report in reports]
    failed = summary["effective_fail"] > 0 or bool(heat["failures"])
    if args.format == "json":
        document = {
            "grid": _grid_json(ranges),
            "policy": args.variant,
            "reports": _JsonItems(texts),
            "summary": summary,
            "heat": heat,
        }
        sys.stdout.write(_dump_json(document))
    else:
        out = io.StringIO()
        out.write("".join(texts) + _summary_text(summary))
        out.write(
            "heat: seed={seed} trials={trials} cases={cases} "
            "failures={nfail}\n".format(
                seed=heat["seed"],
                trials=heat["trials"],
                cases=heat["cases"],
                nfail=len(heat["failures"]),
            )
        )
        for line in heat["failures"]:
            out.write(f"    {line}\n")
        sys.stdout.write(out.getvalue())
    return EXIT_FAIL if failed else EXIT_OK


def _cmd_heat(args) -> int:
    try:
        initial = parse_poly_expr(args.initial, ("z", "w"))
        problem = HeatProblem(args.p, args.q, args.c, initial)
    except (ExprError, InvalidParamsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    u = solve(problem)
    res = residual(problem, u)

    if args.format == "json":
        document = {
            "p": args.p,
            "q": args.q,
            "c": str(problem.c),
            "initial": _poly_json(problem.initial),
            "solution": _poly_json(u),
            "residual": _poly_json(res),
        }
        sys.stdout.write(_dump_json(document))
    elif args.format == "csv":
        header = ["part", "z", "w", "t", "num", "den"]
        rows = []
        for part, poly in (("solution", u), ("residual", res)):
            for row in _poly_csv_rows(poly, ("z", "w", "t")):
                rows.append([part] + row)
        sys.stdout.write(_csv_document(header, rows))
    elif args.format == "latex":
        sys.stdout.write(f"solution: {u.latex()}\n")
        sys.stdout.write(f"residual: {res.latex()}\n")
    else:
        sys.stdout.write(f"solution: {u.text()}\n")
        sys.stdout.write(f"residual: {res.text()}\n")
    return EXIT_OK


# ---------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------

def _arg_type(parse):
    """`parse` as an argparse type whose ValueError message reaches the user."""
    @functools.wraps(parse)
    def parse_arg(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse_arg


def _add_grid_flags(sub: argparse.ArgumentParser) -> None:
    # the defaults are GridRanges' own, so a bare audit or verify sweeps GridRanges()
    sub.add_argument("--nmax", type=int, default=GridRanges.n_max, help="largest first index n")
    sub.add_argument("--mmax", type=int, default=GridRanges.m_max, help="largest second index m")
    sub.add_argument(
        "--pq",
        type=_arg_type(parse_pq_list),
        default=GridRanges.pq_pairs,
        help="semicolon-separated derivative orders, e.g. '1,1;2,1'",
    )
    sub.add_argument(
        "--aux-max", type=int, default=GridRanges.aux_max, help="largest shifted index n', m'"
    )
    sub.add_argument(
        "--jk-max", type=int, default=GridRanges.jk_max, help="largest derivative/weight order"
    )
    sub.add_argument(
        "--order", type=int, default=GridRanges.series_order, help="series truncation order"
    )
    sub.add_argument(
        "--variant",
        choices=POLICIES,
        default="auto",
        help="printed form, corrected form, both, or printed-else-corrected",
    )
    sub.add_argument(
        "--jobs", type=parse_jobs, default=1, help=f"worker processes (1 to {MAX_JOBS})"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every `main` call: do not mutate it."""
    parser = argparse.ArgumentParser(
        prog="gouldhopper",
        description=(
            "Exact construction and identity auditing for two-variable "
            "Gould-Hopper polynomials, and exact solutions of the "
            "associated higher-order heat equation."
        ),
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    compute = subparsers.add_parser(
        "compute", help="construct one family member by any strategy"
    )
    compute.add_argument("--p", type=int, required=True)
    compute.add_argument("--q", type=int, required=True)
    compute.add_argument("--n", type=int, required=True)
    compute.add_argument("--m", type=int, required=True)
    compute.add_argument(
        "--strategy",
        choices=tuple(STRATEGIES) + ("all",),
        default="explicit",
    )
    compute.add_argument(
        "--gamma", type=_arg_type(parse_rational), default=None,
        help="substitute a rational value for the deformation parameter",
    )
    compute.add_argument(
        "--subst", type=_arg_type(parse_subst), default=None,
        help="partial substitution, e.g. 'z=1/2,w=2,gamma=3'",
    )
    compute.add_argument(
        "--order", type=int, default=None,
        help="series truncation for the genfun strategy (default n+m)",
    )
    compute.add_argument(
        "--format", choices=("text", "json", "csv", "latex"), default="text"
    )
    compute.set_defaults(handler=_cmd_compute)

    verify = subparsers.add_parser(
        "verify", help="check identities on a parameter grid"
    )
    verify.add_argument("--tag", default="all", help="identity tag name, or 'all'")
    _add_grid_flags(verify)
    verify.add_argument(
        "--format", choices=("text", "json", "junit"), default="text"
    )
    verify.set_defaults(handler=_cmd_verify)

    audit = subparsers.add_parser(
        "audit",
        help="run the whole identity catalog plus the heat property suite",
    )
    _add_grid_flags(audit)
    audit.add_argument("--seed", type=int, default=0, help="seed for the property suite")
    audit.add_argument(
        "--trials", type=parse_count, default=25, help="random initial data count (>= 1)"
    )
    audit.add_argument("--format", choices=("text", "json"), default="json")
    audit.set_defaults(handler=_cmd_audit)

    heat = subparsers.add_parser(
        "heat", help="solve the higher-order heat equation for polynomial data"
    )
    heat.add_argument("--p", type=int, required=True)
    heat.add_argument("--q", type=int, required=True)
    heat.add_argument("--c", type=_arg_type(parse_rational), default=Fraction(1))
    heat.add_argument("--initial", required=True, help="polynomial in z and w")
    heat.add_argument(
        "--format", choices=("text", "json", "csv", "latex"), default="text"
    )
    heat.set_defaults(handler=_cmd_heat)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize other codes
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except Exception as exc:
        # a fault of the program, in this process or a worker: exit 1
        # would read as a failed identity
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
