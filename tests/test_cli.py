"""Command-line interface tests: parsing, formats, exit codes, schemas."""

import csv
import importlib
import importlib.metadata
import io
import itertools
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gouldhopper.cli import (
    MAX_POWER_BITS,
    MAX_POWER_TERM_PAIRS,
    ExprError,
    _dumped,
    _ExprParser,
    _make_ranges,
    _poly_json,
    _report_json,
    _term_items,
    build_parser,
    main,
    parse_poly_expr,
    parse_pq_list,
    parse_rational,
    parse_subst,
)
from gouldhopper.exactalg import MAX_DEGREE, VAR_NAMES, Poly, monomial_key, terms_text
from gouldhopper.heatrep import MAX_SOLUTION_TERMS
from gouldhopper.identity import (
    MAX_JOBS,
    STATUS_EXACT_PASS,
    STATUS_FAIL,
    STATUS_SERIES_PASS,
    GridRanges,
    IdentityReport,
    IdentityTag,
)


needs_print_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                       reason="before Python 3.10.7 any int prints")
_LIMIT = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
_TOO_MANY_DIGITS = (f"a number has more than {_LIMIT} digits, "
                    f"past the limit sys.get_int_max_str_digits() = {_LIMIT}")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    path = resources.files("gouldhopper") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text())


def validate(name, document):
    jsonschema.validate(document, load_schema(name))


# ---------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------

def test_parse_poly_expr_basic():
    assert parse_poly_expr("z^2*w + 2").text() == "z^2 w + 2"
    assert parse_poly_expr("3/2*z - 3/2*z").is_zero()
    assert parse_poly_expr("(z + w)^2").text() == "z^2 + 2 * z w + w^2"
    assert parse_poly_expr("-z^2").text() == "-z^2"
    assert parse_poly_expr("z - - w").text() == "z + w"


def test_parse_poly_expr_implicit_multiplication():
    assert parse_poly_expr("2z").text() == "2 * z"
    assert parse_poly_expr("2z w").text() == "2 * z w"
    assert parse_poly_expr("2(z + w)") == parse_poly_expr("2*z + 2*w")


def test_parse_poly_expr_rational_coefficients():
    assert parse_poly_expr("1/2 z^2 + 3/4").text() == "1/2 * z^2 + 3/4"
    # a slash-written exponent is rejected, not silently normalized
    with pytest.raises(ExprError, match="nonnegative integer exponent"):
        parse_poly_expr("z^2/2")


def test_parse_poly_expr_errors_carry_positions():
    with pytest.raises(ExprError, match=r"negative exponent \(at position 2\)"):
        parse_poly_expr("z^-1")
    with pytest.raises(ExprError, match=r"nonnegative integer exponent \(at position 2\)"):
        parse_poly_expr("z^(1/2)")
    with pytest.raises(ExprError, match=r"unexpected end of expression \(at position 3\)"):
        parse_poly_expr("z +")
    with pytest.raises(ExprError, match=r"variable 'x' is not allowed here \(at position 0\)"):
        parse_poly_expr("x + 1")
    # an expression is in z and w alone: no gamma, and no primed names
    with pytest.raises(ExprError, match=r"variable 'gamma' is not allowed here \(at position 0\)"):
        parse_poly_expr("gamma z")
    with pytest.raises(ExprError, match=r"unexpected character \"'\" \(at position 1\)"):
        parse_poly_expr("z'")
    with pytest.raises(ExprError, match=r"unexpected '\*' \(at position 3\)"):
        parse_poly_expr("2 ** 3")
    with pytest.raises(ExprError, match=r"expected '\)' \(at position 2\)"):
        parse_poly_expr("(z")
    with pytest.raises(ExprError, match=r"unexpected character '\$' \(at position 4\)"):
        parse_poly_expr("z + $")
    # digits are ASCII
    with pytest.raises(ExprError, match=r"unexpected character '٣' \(at position 0\)"):
        parse_poly_expr("٣z")
    # nothing to read, blank or not
    for src in ("", "   "):
        with pytest.raises(ExprError, match=r"empty expression \(at position 0\)"):
            parse_poly_expr(src)


def test_parse_poly_expr_round_trips_canonical_text():
    from gouldhopper.ghcore import explicit_poly

    p = explicit_poly(2, 1, 4, 2).subst({"g": F(-3, 7)})
    assert parse_poly_expr(p.text()) == p


_ZW_POLYS = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.fractions(max_denominator=50).filter(bool) | st.integers(-(2 ** 70), 2 ** 70).filter(bool),
    max_size=6,
).map(lambda terms: Poly.lincomb(
    (coeff, Poly.monomial({"z": a, "w": b})) for (a, b), coeff in terms.items()))
# ASCII whitespace, no-break space, em space, ideographic space
_SPACE_RUNS = st.text(alphabet=" \t\n\r\f\v\u00a0\u2003\u3000", min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(_ZW_POLYS, st.data())
def test_parse_poly_expr_reads_any_whitespace(poly, data):
    first, *rest = poly.text().split(" ")
    runs = data.draw(st.lists(_SPACE_RUNS, min_size=len(rest), max_size=len(rest)))
    text = first + "".join(run + piece for run, piece in zip(runs, rest))
    assert parse_poly_expr(text) == poly


def test_parse_rational():
    assert parse_rational("-7/3") == F(-7, 3)
    assert parse_rational("4") == F(4)
    assert parse_rational("+4") == F(4)
    assert parse_rational(" 3/4 ") == F(3, 4)
    # an optional sign, digits and an optional /digits: no other form of Fraction's
    for text in ("abc", "1/0", "0.5", "1e3", "1_0", "-1/-2", "1/+2", "3/", "/3", "- 1", ""):
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rational(text)


def test_parse_pq_list():
    assert parse_pq_list("1,1;2,1") == ((1, 1), (2, 1))
    assert parse_pq_list(" 2,2 ") == ((2, 2),)
    with pytest.raises(ValueError, match="expected 'p,q'"):
        parse_pq_list("1")
    with pytest.raises(ValueError, match="not an integer: 'a'"):
        parse_pq_list("a,b")
    with pytest.raises(ValueError, match="no \\(p,q\\) pairs"):
        parse_pq_list(";")


def test_parse_subst():
    assert parse_subst("z=1/2,gamma=-3") == {"z": F(1, 2), "g": F(-3)}
    assert parse_subst("w=2") == {"w": F(2)}
    with pytest.raises(ValueError, match="variable 'g' is bound twice"):
        parse_subst("gamma=3,g=2")
    with pytest.raises(ValueError, match="variable 'z' is bound twice"):
        parse_subst("z=1,w=2,z=1")
    with pytest.raises(ValueError, match="use z, w, or gamma"):
        parse_subst("t=1")
    with pytest.raises(ValueError, match="expected 'var=value'"):
        parse_subst("z")
    with pytest.raises(ValueError, match="empty substitution"):
        parse_subst(" , ")


def test_canonical_var_aliases():
    # gamma and γ are g; no other name has an alias
    for name in ("g", "gamma", "γ"):
        assert parse_subst(f"{name}=1") == {"g": F(1)}
    for name in ("z'", "gamma'", "γ'", "G"):
        with pytest.raises(ValueError, match="use z, w, or gamma"):
            parse_subst(f"{name}=1")


# ---------------------------------------------------------------------
# compute subcommand
# ---------------------------------------------------------------------

def test_compute_text(capsys):
    code, out, err = run_cli(capsys, "compute", "--p", "1", "--q", "1",
                             "--n", "2", "--m", "1")
    assert code == 0
    assert out == "z^2 w + 2 * z g\n"


def test_compute_latex(capsys):
    code, out, _ = run_cli(capsys, "compute", "--p", "1", "--q", "1",
                           "--n", "2", "--m", "1", "--format", "latex")
    assert code == 0
    assert out == "z^{2}w + 2\\gamma z\n"


def test_compute_csv(capsys):
    code, out, _ = run_cli(capsys, "compute", "--p", "1", "--q", "1",
                           "--n", "2", "--m", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["strategy", "z", "w", "g", "num", "den"]
    assert rows[1] == ["explicit", "2", "1", "0", "1", "1"]
    assert rows[2] == ["explicit", "1", "0", "1", "2", "1"]


def test_compute_json_writes_each_result_as_itself(capsys, monkeypatch):
    # equal results share one writing, and a result that differs from the
    # others is written as what it is
    z, w = Poly.variable("z"), Poly.variable("w")
    monkeypatch.setattr("gouldhopper.cli.STRATEGIES",
                        {"a": lambda params: z, "b": lambda params: w, "c": lambda params: z})
    code, out, _ = run_cli(capsys, "compute", "--p", "1", "--q", "1", "--n", "1", "--m", "0",
                           "--strategy", "all", "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    results = [(result["strategy"], result["text"], result["terms"])
               for result in json.loads(out)["results"]]
    assert results == [("a", "z", z.to_json_obj()), ("b", "w", w.to_json_obj()),
                       ("c", "z", z.to_json_obj())]


def test_compute_json_matches_schema(capsys):
    code, out, _ = run_cli(capsys, "compute", "--p", "2", "--q", "1",
                           "--n", "4", "--m", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    validate("compute", doc)
    assert doc["params"] == {"p": 2, "q": 1, "n": 4, "m": 2}
    assert doc["results"][0]["strategy"] == "explicit"
    assert doc["results"][0]["text"] == "z^4 w^2 + 24 * z^2 w g + 24 * g^2"
    assert doc["results"][0]["terms"][0] == {
        "exps": {"z": 4, "w": 2}, "num": "1", "den": "1"
    }


def test_compute_gamma_binding(capsys):
    code, out, _ = run_cli(capsys, "compute", "--p", "1", "--q", "1",
                           "--n", "2", "--m", "1", "--subst", "gamma=1/2")
    assert code == 0
    assert out == "z^2 w + z\n"


def test_compute_subst(capsys):
    code, out, _ = run_cli(capsys, "compute", "--p", "1", "--q", "1",
                           "--n", "2", "--m", "1", "--subst", "z=2,w=1/2,gamma=1")
    assert code == 0
    assert out == "6\n"


@pytest.mark.parametrize("flags", [
    ["--subst", "gamma=3,g=2"],
    ["--subst", "γ=3,gamma=3"],
])
def test_compute_rejects_a_variable_bound_twice(capsys, flags):
    code, out, err = run_cli(capsys, "compute", "--p", "1", "--q", "1",
                             "--n", "1", "--m", "1", *flags)
    assert code == 2
    assert out == ""
    assert "argument --subst: variable " in err and "is bound twice" in err


@pytest.mark.parametrize("argv, reason", [
    (["heat", "--p", "1", "--q", "1", "--c", "1/0", "--initial", "z"],
     "argument --c: not a rational number: '1/0'"),
    (["compute", "--p", "1", "--q", "1", "--n", "1", "--m", "1", "--subst", "gamma=x"],
     "argument --subst: not a rational number: 'x'"),
    (["audit", "--pq", "1"], "argument --pq: expected 'p,q' but got '1'"),
    (["compute", "--p", "1", "--q", "1", "--n", "1", "--m", "1", "--subst", "t=1"],
     "argument --subst: cannot substitute 't'"),
    # a number is read in one form, so no exponent is ever raised
    (["heat", "--p", "1", "--q", "1", "--initial", "z", "--c", "1e1000000"],
     "argument --c: not a rational number: '1e1000000'"),
    (["heat", "--p", "1", "--q", "1", "--initial", "z", "--c=1e5000"],
     "argument --c: not a rational number: '1e5000'"),
    (["compute", "--p", "1", "--q", "1", "--n", "1", "--m", "1", "--subst", "gamma=0.5"],
     "argument --subst: not a rational number: '0.5'"),
    (["compute", "--p", "1", "--q", "1", "--n", "1", "--m", "1", "--subst", "z=1_0"],
     "argument --subst: not a rational number: '1_0'"),
    # an integer is ASCII digits with an optional sign, read by one reader
    pytest.param(["compute", "--p", "1_0", "--q", "1", "--n", "1", "--m", "1"],
                 "argument --p: not an integer: '1_0'", id="p-underscore"),
    pytest.param(["compute", "--p", "1", "--q", "1", "--n", "٣", "--m", "1"],
                 "argument --n: not an integer: '٣'", id="n-arabic-indic"),
    pytest.param(["audit", "--trials", "1_0"], "argument --trials: not an integer: '1_0'",
                 id="trials-underscore"),
    pytest.param(["verify", "--pq", "1_0,1"], "argument --pq: not an integer: '1_0'",
                 id="pq-underscore"),
    pytest.param(["audit", "--nmax", "9" * (_LIMIT + 1)], f"argument --nmax: {_TOO_MANY_DIGITS}",
                 marks=needs_print_limit, id="nmax-too-many-digits"),
    pytest.param(["audit", "--jobs", "9" * 5000], f"argument --jobs: {_TOO_MANY_DIGITS}",
                 marks=needs_print_limit, id="jobs-too-many-digits"),
    pytest.param(["heat", "--p", "1", "--q", "1", "--initial", "z", "--c", "٣"],
                 "argument --c: not a rational number: '٣'", id="c-arabic-indic"),
    # a refused value is echoed cut to 40 characters and its length
    pytest.param(["heat", "--p", "1", "--q", "1", "--initial", "z", "--c", "x" * 100_000],
                 f"argument --c: not a rational number: '{'x' * 40}'… (100000 characters)\n",
                 id="c-echo"),
    pytest.param(["heat", "--p", "1", "--q", "1", "--initial", "q" * 100_000],
                 f"error: variable '{'q' * 40}'… (100000 characters) is not allowed here "
                 "(at position 0)\n", id="initial-echo"),
    pytest.param(["compute", "--p", "1", "--q", "1", "--n", "1", "--m", "1",
                  "--subst", "x" * 100_000],
                 f"argument --subst: expected 'var=value' but got '{'x' * 40}'… "
                 "(100000 characters)\n", id="subst-piece-echo"),
    pytest.param(["compute", "--p", "1", "--q", "1", "--n", "1", "--m", "1",
                  "--subst", "y" * 5000 + "=1"],
                 f"argument --subst: cannot substitute '{'y' * 40}'… (5000 characters); "
                 "use z, w, or gamma", id="subst-key-echo"),
    pytest.param(["verify", "--pq", "x" * 5000],
                 f"argument --pq: expected 'p,q' but got '{'x' * 40}'… (5000 characters)\n",
                 id="pq-echo"),
    pytest.param(["verify", "--tag", "x" * 5000],
                 f"error: unknown identity tag: '{'x' * 40}'… (5000 characters)\n",
                 id="tag-echo"),
    # argparse's own refusals are cut the same way
    pytest.param(["compute", "--p", "1", "--q", "1", "--n", "1", "--m", "1",
                  "--strategy", "x" * 5000],
                 f"argument --strategy: invalid choice: '{'x' * 40}'… (5000 characters) "
                 "(choose from 'explicit', ", id="strategy-echo"),
    pytest.param(["compute", "--p", "1", "--q", "1", "--n", "1", "--m", "1", "x" * 5000],
                 f"error: unrecognized arguments: '{'x' * 40}'… (5000 characters)\n",
                 id="stray-positional-echo"),
])
def test_argument_errors_say_why(capsys, argv, reason):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out == ""
    assert reason in err
    assert len(err.splitlines()[-1].encode()) < 300
    assert not re.search(r"(.)\1{99}", err)


def test_compute_gamma_with_another_binding(capsys):
    code, out, _ = run_cli(capsys, "compute", "--p", "1", "--q", "1", "--n", "1",
                           "--m", "1", "--subst", "gamma=3,z=2")
    assert code == 0
    assert out == "2 * w + 3\n"


def test_signed_and_spaced_integers_are_read():
    parser = build_parser()
    args = parser.parse_args(["audit", "--seed", "-5", "--jobs", " 2 "])
    assert (args.seed, args.jobs) == (-5, 2)
    args = parser.parse_args(["compute", "--p", "+3", "--q", "1", "--n", "1", "--m", "1"])
    assert args.p == 3


def test_compute_all_strategies_agree(capsys):
    code, out, _ = run_cli(capsys, "compute", "--p", "2", "--q", "1", "--n", "4",
                           "--m", "2", "--strategy", "all", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    validate("compute", doc)
    texts = {r["text"] for r in doc["results"]}
    assert len(texts) == 1
    names = [r["strategy"] for r in doc["results"]]
    assert names == ["explicit", "operational", "creation", "recurrence",
                     "genfun", "hypergeom"]


def test_compute_all_skips_unsupported_representations(capsys):
    code, out, _ = run_cli(capsys, "compute", "--p", "1", "--q", "0", "--n", "3",
                           "--m", "1", "--strategy", "all", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    names = [r["strategy"] for r in doc["results"]]
    assert "hypergeom" not in names
    assert "explicit" in names


def test_compute_rejects_invalid_params(capsys):
    code, out, err = run_cli(capsys, "compute", "--p", "0", "--q", "0",
                             "--n", "1", "--m", "1")
    assert code == 2
    assert "p and q cannot both be zero" in err


def test_compute_rejects_unsupported_strategy(capsys):
    code, _, err = run_cli(capsys, "compute", "--p", "1", "--q", "0",
                           "--n", "2", "--m", "1", "--strategy", "hypergeom")
    assert code == 2
    assert "hypergeometric form needs p >= 1 and q >= 1" in err


def test_compute_rejects_bad_genfun_order(capsys):
    # genfun reads its coefficient at order n + m, and no flag changes that
    code, out, err = run_cli(capsys, "compute", "--p", "1", "--q", "1", "--n", "3",
                             "--m", "2", "--strategy", "genfun", "--order", "2")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --order 2" in err


def test_compute_rejects_degree_past_kernel_bound(capsys):
    code, out, err = run_cli(capsys, "compute", "--p", "1", "--q", "1",
                             "--n", str(MAX_DEGREE + 1), "--m", "0",
                             "--strategy", "explicit")
    assert code == 2
    assert out == ""
    assert f"error: total degree {MAX_DEGREE + 1} exceeds the kernel bound" in err


@needs_print_limit
@pytest.mark.parametrize("fmt", ["text", "json", "csv", "latex"])
@pytest.mark.parametrize("argv", [
    ["compute", "--p", "1", "--q", "1", "--n", "2000", "--m", "2000"],
    ["compute", "--p", "1", "--q", "1", "--n", "2000", "--m", "2000", "--strategy", "all"],
    ["heat", "--p", "1", "--q", "1", "--initial", "(z*w)^2000"],
    ["heat", "--p", "1", "--q", "1", "--initial", "2^20000"],
    # c prints, but c^2 in the solution does not
    ["heat", "--p", "1", "--q", "1", "--initial", "(z*w)^2", "--c", "9" * 3000],
], ids=["compute", "compute-all", "heat", "heat-constant", "heat-c"])
def test_a_coefficient_too_long_to_print_is_refused(capsys, argv, fmt):
    # each result holds an integer of more digits than str() writes
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    limit = sys.get_int_max_str_digits()
    assert (code, out) == (2, "")
    assert err == (f"error: a coefficient has more than {limit} digits, "
                   f"past the limit sys.get_int_max_str_digits() = {limit}\n")


@needs_print_limit
def test_an_unprintable_heat_datum_is_refused_before_solve(capsys, monkeypatch):
    limit = sys.get_int_max_str_digits()
    solved = []
    cli = importlib.import_module("gouldhopper.cli")
    monkeypatch.setattr(cli, "solve", solved.append)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "heat", "--p", "1", "--q", "1",
                             "--initial", "2^15000*(z+w)^300")
    assert time.perf_counter() - start < 0.1
    assert (code, out, solved) == (2, "", [])
    assert err == (f"error: a coefficient has more than {limit} digits, "
                   f"past the limit sys.get_int_max_str_digits() = {limit}\n")


@needs_print_limit
def test_an_over_long_number_is_refused_with_the_readers_reason(capsys):
    limit = sys.get_int_max_str_digits()
    digits = "1" * (limit + 1)
    reason = (f"a number has more than {limit} digits, "
              f"past the limit sys.get_int_max_str_digits() = {limit}")
    code, out, err = run_cli(capsys, "heat", "--p", "1", "--q", "1", "--initial", f"z + {digits}")
    assert (code, out, err) == (2, "", f"error: {reason} (at position 4)\n")
    # an exponent is a number too
    code, out, err = run_cli(capsys, "heat", "--p", "1", "--q", "1",
                             "--initial", "z^" + "9" * (limit + 1))
    assert (code, out, err) == (2, "", f"error: {reason} (at position 2)\n")
    with pytest.raises(ExprError) as refused:
        parse_poly_expr(f"w - 1/{digits}")
    assert str(refused.value) == f"{reason} (at position 4)"
    with pytest.raises(ValueError) as refused:
        parse_rational(f"1/{digits}")
    assert str(refused.value) == reason
    for argv in (["heat", "--p", "1", "--q", "1", "--initial", "z", f"--c={digits}"],
                 ["compute", "--p", "1", "--q", "1", "--n", "1", "--m", "1", f"--subst=gamma={digits}"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        # argparse's usage lines, then one short line with the reason
        assert err.endswith(f": {reason}\n")
        assert len(err.splitlines()[-1]) < 300
        assert "1" * 100 not in err
    # a number of exactly `limit` digits is read
    assert parse_rational("1" * limit) == int("1" * limit)
    assert parse_poly_expr("1" * limit) == Poly.const(int("1" * limit))


def test_coefficients_under_the_print_limit_are_printed(capsys):
    code, out, _ = run_cli(capsys, "compute", "--p", "1", "--q", "1", "--n", "1500", "--m", "1500")
    assert code == 0
    assert out.startswith("z^1500 w^1500 + 2250000 * z^1499 w^1499 g + ")
    # the shared denominator 3^5000 * 2^8000 has 4,795 digits, but each
    # coefficient is printed reduced on its own, 1/3^5000 and 1/2^8000
    initial = f"1/{3 ** 5000} * z + 1/{2 ** 8000} * w"
    code, out, _ = run_cli(capsys, "heat", "--p", "1", "--q", "1", "--initial", initial)
    assert (code, out) == (0, f"solution: {initial}\nresidual: 0\n")


@needs_print_limit
def test_no_print_limit_refuses_nothing(capsys, monkeypatch):
    # 0 is no limit; before Python 3.10.7 there is no get_int_max_str_digits at all
    limit = sys.get_int_max_str_digits()
    digits = "1" * (limit + 1)
    sys.set_int_max_str_digits(0)
    try:
        for _ in range(2):
            code, out, _ = run_cli(capsys, "heat", "--p", "1", "--q", "1", "--initial", "2^20000")
            assert (code, out) == (0, f"solution: {2 ** 20000}\nresidual: 0\n")
            assert parse_rational(digits) == int(digits)
            assert parse_poly_expr(f"z + {digits}") == Poly.variable("z") + int(digits)
            monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------
# verify subcommand
# ---------------------------------------------------------------------

def test_verify_text_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--tag", "SYMMETRY", "--nmax", "2",
                           "--mmax", "2", "--pq", "1,1", "--format", "text")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "ExactPass  SYMMETRY           p=1 q=1 n=0 m=0  [printed]"
    assert lines[-1] == ("summary: total=9 exact_pass=9 series_pass=0 fail=0 "
                         "known_misprints=0 effective_fail=0")


def test_verify_printed_failures_drive_exit_code(capsys):
    code, out, _ = run_cli(capsys, "verify", "--tag", "PARAM_REC", "--nmax", "2",
                           "--mmax", "2", "--pq", "1,1", "--variant", "printed",
                           "--format", "text")
    assert code == 1
    assert "Fail" in out
    assert "difference:" in out


def test_verify_auto_excuses_documented_misprints(capsys):
    code, out, _ = run_cli(capsys, "verify", "--tag", "PARAM_REC", "--nmax", "2",
                           "--mmax", "2", "--pq", "1,1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    validate("verify", doc)
    statuses = {(r["status"], r["known_misprint"]) for r in doc}
    assert ("Fail", True) in statuses
    assert not any(s == "Fail" and not k for s, k in statuses)


def test_verify_json_matches_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "--tag", "GEN_FULL", "--pq", "1,1;2,1",
                           "--order", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    validate("verify", doc)
    assert all(r["status"] == "SeriesPass" for r in doc)
    assert all(r["series_order"] == 6 for r in doc)


def test_verify_junit_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "--tag", "PARAM_REC", "--nmax", "1",
                           "--mmax", "1", "--pq", "1,1", "--format", "junit")
    assert code == 0
    root = ET.fromstring(out)
    assert root.tag == "testsuite"
    assert root.get("name") == "identity-verify"
    assert root.get("failures") == "0"
    assert root.get("skipped") == "1"
    skipped = [case for case in root if case.find("skipped") is not None]
    assert len(skipped) == 1
    assert "known misprint" in skipped[0].find("skipped").get("message")


def test_verify_junit_reports_real_failures(capsys):
    code, out, _ = run_cli(capsys, "verify", "--tag", "PARAM_REC", "--nmax", "1",
                           "--mmax", "1", "--pq", "1,1", "--variant", "printed",
                           "--format", "junit")
    assert code == 1
    root = ET.fromstring(out)
    assert root.get("failures") == "1"
    failures = [case for case in root if case.find("failure") is not None]
    assert len(failures) == 1


def test_verify_rejects_unknown_tag(capsys):
    code, _, err = run_cli(capsys, "verify", "--tag", "NOPE")
    assert code == 2
    assert "unknown identity tag" in err


def test_verify_rejects_bad_pq(capsys):
    code, _, err = run_cli(capsys, "verify", "--tag", "SYMMETRY", "--pq", "0,0")
    assert code == 2
    assert "invalid derivative orders" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--tag", "SYMMETRY", "--nmax", "0", "--mmax", "0"),
    ("audit", "--trials", "1"),
], ids=["verify", "audit"])
def test_repeated_pq_pair_is_rejected(capsys, argv):
    # the pair would be checked, and reported, twice
    code, out, err = run_cli(capsys, *argv, "--pq", "1,1;1,1")
    assert (code, out) == (2, "")
    assert err.startswith("error: pq_pairs repeats an entry")


def test_verify_rejects_zero_jobs(capsys):
    # exit 1 would read as an identity failure; a bad flag is a usage error
    code, out, err = run_cli(capsys, "verify", "--tag", "SYMMETRY", "--nmax", "1",
                             "--mmax", "1", "--jobs", "0")
    assert code == 2
    assert out == ""
    assert "argument --jobs: must be >= 1, got 0" in err


@pytest.mark.parametrize("command", ["verify", "audit"])
def test_jobs_past_the_bound_are_rejected(capsys, command):
    # a process pool starts all its workers at once: the flag is bounded,
    # and argparse refuses it before any process starts
    code, out, err = run_cli(capsys, command, "--nmax", "1", "--mmax", "1",
                             "--jobs", str(MAX_JOBS + 1))
    assert code == 2
    assert out == ""
    assert f"argument --jobs: must be <= {MAX_JOBS}, got {MAX_JOBS + 1}" in err
    code, _, err = run_cli(capsys, command, "--jobs", "100000")
    assert code == 2
    assert f"must be <= {MAX_JOBS}, got 100000" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--tag", "GEN_POCHHAMMER_G", "--jk-max", "0"),
    ("verify", "--tag", "CONN_GH_FROM_PQ", "--pq", "1,2"),
    ("verify", "--tag", "GEN_POCHHAMMER_S", "--pq", "1,0", "--format", "json"),
    ("verify", "--tag", "HYPERGEOM", "--pq", "1,0"),
], ids=lambda argv: argv[2])
def test_verify_with_no_cells_is_usage_error(capsys, argv):
    # a gate that checked nothing is not a pass
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"the grid gives {argv[2]} no cells" in err


# ---------------------------------------------------------------------
# audit subcommand
# ---------------------------------------------------------------------

AUDIT_SMALL = ("audit", "--nmax", "1", "--mmax", "1", "--pq", "1,1",
               "--aux-max", "1", "--jk-max", "1", "--order", "4",
               "--trials", "1")


def test_audit_json_matches_schema(capsys):
    code, out, _ = run_cli(capsys, *AUDIT_SMALL)
    assert code == 0
    doc = json.loads(out)
    validate("audit", doc)
    assert doc["policy"] == "auto"
    assert doc["summary"]["effective_fail"] == 0
    assert doc["heat"]["failures"] == []
    assert set(doc["summary"]["by_tag"]) == {t["tag"] for t in doc["reports"]}


def test_audit_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, *AUDIT_SMALL)
    code2, out2, _ = run_cli(capsys, *AUDIT_SMALL)
    assert code1 == code2 == 0
    assert out1 == out2


def test_audit_text_format(capsys):
    code, out, _ = run_cli(capsys, *AUDIT_SMALL, "--format", "text")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-2].startswith("summary: total=")
    assert "effective_fail=0" in lines[-2]
    assert lines[-1] == "heat: seed=0 trials=1 cases=15 failures=0"


def test_audit_on_zero_order_grid(capsys):
    # tags whose constraint excludes a zero order get no cells there; none
    # of them may crash the audit
    grid = ("--pq", "1,0", "--nmax", "2", "--mmax", "2", "--aux-max", "1", "--jk-max", "1",
            "--format", "text")
    code, out, err = run_cli(capsys, "audit", *grid)
    assert code == 0
    assert "effective_fail=0" in out
    # the tags left unchecked are named in one line on stderr, not on stdout
    unchecked = ("warning: the grid gives no cells to HYPERGEOM, GEN_PARTIAL_U, "
                 "GEN_POCHHAMMER_S, CONN_PQ_FROM_GH, PDE_PRODUCT; they are unchecked\n")
    assert err == unchecked
    assert "unchecked" not in out
    code, out, err = run_cli(capsys, "verify", "--tag", "all", *grid)
    assert code == 0
    assert err == unchecked
    assert "unchecked" not in out


def test_audit_on_a_full_grid_warns_of_nothing(capsys):
    code, _, err = run_cli(capsys, *AUDIT_SMALL)
    assert code == 0
    assert err == ""


def test_audit_rejects_nonpositive_trials(capsys):
    # zero trials would pass a heat gate that checked nothing
    code, out, err = run_cli(capsys, *AUDIT_SMALL, "--trials", "-1")
    assert code == 2
    assert out == ""
    assert "argument --trials: must be >= 1, got -1" in err


def test_audit_printed_policy_fails(capsys):
    code, out, _ = run_cli(capsys, *AUDIT_SMALL, "--variant", "printed")
    assert code == 1
    doc = json.loads(out)
    validate("audit", doc)
    assert doc["summary"]["effective_fail"] > 0


# a grid on which PARAM_REC and other tags print known-misprint Fail reports
MISPRINT_GRID = ("--nmax", "2", "--mmax", "2", "--aux-max", "1", "--jk-max", "1")


@pytest.mark.parametrize("argv", [
    ("audit", *MISPRINT_GRID, "--trials", "2"),
    ("audit", *MISPRINT_GRID, "--trials", "2", "--format", "text"),
    ("verify", "--tag", "all", *MISPRINT_GRID, "--format", "json"),
    ("verify", "--tag", "all", *MISPRINT_GRID, "--format", "text"),
    ("verify", "--tag", "all", *MISPRINT_GRID, "--format", "junit"),
], ids=["audit-json", "audit-text", "verify-json", "verify-text", "verify-junit"])
def test_output_bytes_do_not_depend_on_jobs(capsys, argv):
    code, serial, err = run_cli(capsys, *argv, "--jobs", "1")
    assert (code, err) == (0, "")
    assert "PARAM_REC" in serial and "known misprint" in serial
    if argv[0] == "audit" and "text" in argv:
        assert serial.splitlines()[-1] == "heat: seed=0 trials=2 cases=120 failures=0"
    for jobs in ("2", "3"):
        code, out, err = run_cli(capsys, *argv, "--jobs", jobs)
        assert (code, err) == (0, "")
        assert out == serial, f"--jobs {jobs}"


def _failing_run_check(real):
    # PARAM_REC's checker breaks; it names the process it broke in
    def run_check(tag, params, variant):
        if tag is IdentityTag.PARAM_REC:
            raise RuntimeError(f"checker fault in process {os.getpid()}")
        return real(tag, params, variant)

    return run_check


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched checker reaches pool workers only when they fork")
@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", ["verify", "audit"])
def test_internal_error_exits_3_with_one_line(capsys, monkeypatch, command, jobs):
    audit = importlib.import_module("gouldhopper.identity.audit")
    monkeypatch.setattr(audit, "run_check", _failing_run_check(audit.run_check))
    trials = ("--trials", "1") if command == "audit" else ()
    code, out, err = run_cli(capsys, command, *MISPRINT_GRID, *trials, "--jobs", jobs)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: internal error: RuntimeError: checker fault in process ")
    pid = int(err.split()[-1])
    # at --jobs 2 the fault happened in a forked worker and crossed back
    assert (pid == os.getpid()) == (jobs == "1")


@pytest.mark.usefixtures("fresh_caches")
def test_internal_error_in_compute_and_heat_exits_3(capsys, monkeypatch):
    cli = importlib.import_module("gouldhopper.cli")

    def broken(*args):
        raise ZeroDivisionError("kernel fault")

    monkeypatch.setitem(cli.STRATEGIES, "explicit", broken)
    code, out, err = run_cli(capsys, "compute", "--p", "1", "--q", "1", "--n", "2", "--m", "1")
    assert (code, out, err) == (3, "", "error: internal error: ZeroDivisionError: kernel fault\n")
    monkeypatch.setattr(cli, "solve", broken)
    code, out, err = run_cli(capsys, "heat", "--p", "1", "--q", "1", "--initial", "z")
    assert (code, out, err) == (3, "", "error: internal error: ZeroDivisionError: kernel fault\n")


@pytest.mark.usefixtures("fresh_caches")
def test_a_series_side_short_of_its_order_exits_3(capsys, monkeypatch):
    # a right-hand side one order short is a program fault, not a failed identity
    checks = importlib.import_module("gouldhopper.identity.checks")
    real = checks.series_exp
    monkeypatch.setattr(checks, "series_exp", lambda arg, order: real(arg, order - 1))
    code, out, err = run_cli(capsys, "verify", "--tag", "GEN_PARTIAL_U")
    assert (code, out) == (3, "")
    assert err.count("\n") == 1
    assert err.startswith("error: internal error: RuntimeError: GEN_PARTIAL_U: series sides at orders ")


# ---------------------------------------------------------------------
# heat subcommand
# ---------------------------------------------------------------------

def test_heat_text(capsys):
    code, out, _ = run_cli(capsys, "heat", "--p", "1", "--q", "1",
                           "--initial", "z^2*w")
    assert code == 0
    assert out == "solution: z^2 w + 2 * z t\nresidual: 0\n"


def test_heat_second_order(capsys):
    code, out, _ = run_cli(capsys, "heat", "--p", "2", "--q", "0",
                           "--initial", "z^3")
    assert code == 0
    assert out == "solution: z^3 + 6 * z t\nresidual: 0\n"


def test_heat_latex(capsys):
    code, out, _ = run_cli(capsys, "heat", "--p", "1", "--q", "1",
                           "--initial", "z^2*w", "--format", "latex")
    assert code == 0
    assert out == "solution: z^{2}w + 2tz\nresidual: 0\n"


def test_heat_csv(capsys):
    code, out, _ = run_cli(capsys, "heat", "--p", "1", "--q", "1",
                           "--initial", "z^2*w", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["part", "z", "w", "t", "num", "den"]
    assert rows[1] == ["solution", "2", "1", "0", "1", "1"]
    assert rows[2] == ["solution", "1", "0", "1", "2", "1"]


def test_heat_json_matches_schema(capsys):
    code, out, _ = run_cli(capsys, "heat", "--p", "2", "--q", "1", "--c=-3/7",
                           "--initial", "z^4*w^2 + 1/2*z", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    validate("heat", doc)
    assert doc["p"] == 2 and doc["q"] == 1
    assert doc["c"] == "-3/7"
    assert doc["residual"]["terms"] == []


def test_heat_rejects_unknown_variable(capsys):
    code, _, err = run_cli(capsys, "heat", "--p", "1", "--q", "1",
                           "--initial", "x+1")
    assert code == 2
    assert "variable 'x' is not allowed here (at position 0)" in err


@pytest.mark.parametrize("initial, position", [("1/0 z", 0), ("z + 3/0", 4)])
def test_heat_rejects_a_zero_denominator(capsys, initial, position):
    code, out, err = run_cli(capsys, "heat", "--p", "1", "--q", "1", "--initial", initial)
    assert code == 2
    assert out == ""
    assert err == f"error: zero denominator (at position {position})\n"


def test_heat_rejects_zero_orders(capsys):
    code, _, err = run_cli(capsys, "heat", "--p", "0", "--q", "0", "--initial", "z")
    assert code == 2
    assert "p + q >= 1" in err


def test_heat_rejects_degree_past_kernel_bound(capsys):
    code, out, err = run_cli(capsys, "heat", "--p", "1", "--q", "1",
                             "--initial", "(z+w)^100000")
    assert code == 2
    assert out == ""
    assert f"error: total degree 100000 exceeds the kernel bound MAX_DEGREE = {MAX_DEGREE}" in err
    # the degree is checked before any power or product is charged
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "heat", "--p", "1", "--q", "1",
                             "--initial", "(z+w+1)^70000")
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (2, "")
    assert err == f"error: total degree 70000 exceeds the kernel bound MAX_DEGREE = {MAX_DEGREE}\n"


@pytest.mark.parametrize("initial", ["(z+w)^60000", "(z+w)^3000", "2 + ((z+w+1)^2)^90"])
def test_heat_refuses_a_power_past_the_term_product_bound(capsys, initial):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "heat", "--p", "1", "--q", "1", "--initial", initial)
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err.startswith("error: power too large: about ")
    assert f"more than MAX_POWER_TERM_PAIRS = {MAX_POWER_TERM_PAIRS}" in err


def test_heat_refuses_a_solution_past_the_term_bound(capsys):
    # (z+w)^1000 parses (501^2 term products), but evolves into 251,001 terms
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "heat", "--p", "1", "--q", "1", "--initial", "(z+w)^1000")
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err == (f"error: the solution would have up to 251001 terms, more than "
                   f"MAX_SOLUTION_TERMS = {MAX_SOLUTION_TERMS}\n")


def test_heat_refuses_a_product_past_the_term_product_bound(capsys):
    # both powers pass, but their product would cost 1,964,202 term products more
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "heat", "--p", "1", "--q", "1",
                             "--initial", "(z+w)^1400*(z+w)^1400")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: product too large: about ")
    assert f"more than MAX_POWER_TERM_PAIRS = {MAX_POWER_TERM_PAIRS}" in err


@pytest.mark.parametrize("initial, bits, position", [
    ("3^99999999*z", 2 * 99999999, 2),
    ("(3)^99999999", 2 * 99999999, 4),
    ("9^9999999", 4 * 9999999, 2),
    ("z*w*(1/9)^9999999", 4 * 9999999, 10),
    ("2 + ((3)^1000)^1000", 1585 * 1000, 15),
    (f"({'7' * 1000}+z)^600", 3322 * 600, 1005),
])
def test_heat_refuses_a_number_power_past_the_bit_bound(capsys, initial, bits, position):
    # each power's exponent times its base's bit length is checked before it is raised
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "heat", "--p", "1", "--q", "1", "--initial", initial)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (f"error: power too large: about {bits} bits, more than "
                   f"MAX_POWER_BITS = {MAX_POWER_BITS} (at position {position})\n")


def test_bit_bound_admits_powers_under_it():
    assert parse_poly_expr("2^20000") == Poly.const(2 ** 20000)
    # 3 has two bits, so 3^524288 is at the bound and 3^524289 past it
    assert parse_poly_expr("3^524288") == Poly.const(3 ** 524288)
    with pytest.raises(ExprError, match="about 1048578 bits"):
        parse_poly_expr("3^524289")
    assert len(parse_poly_expr("2^15000*(z+w)^300")) == 301


@pytest.mark.parametrize("n, m, binding, power, bits", [
    ("2000", "0", "z=" + "7" * 4000, 2000, 2000 * 13288),
    ("20000", "0", "z=" + "7" * 4000, 20000, 20000 * 13288),
    ("0", "3000", "w=1/" + "3" * 200, 3000, 3000 * 663),
    ("2000", "2000", "gamma=-" + "9" * 400, 2000, 2000 * 1329),
])
def test_compute_refuses_a_subst_value_past_the_bit_bound(capsys, n, m, binding, power, bits):
    # the value is refused before any strategy runs
    var = binding.partition("=")[0].replace("gamma", "g")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "compute", "--p", "1", "--q", "1", "--n", n, "--m", m,
                             "--subst", binding)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (f"error: --subst {var} too large: raised to the power {power}, about "
                   f"{bits} bits, more than MAX_POWER_BITS = {MAX_POWER_BITS}\n")


def test_product_bound_admits_products_that_merge_cheaply():
    # 2^20 products of the factors' terms, but the running product never
    # holds more than 21 terms
    assert parse_poly_expr("*".join(["(z+w)"] * 20)) == parse_poly_expr("(z+w)^20")
    # 2 x 351^2 for the powers and 701 + 701^2 for the product: 738,504
    assert len(parse_poly_expr("(z+w)^700*(z+w)^700")) == 1401
    assert parse_poly_expr("0*(z+w)^600*(z+w)^600").is_zero()
    # signs ride on the product, wherever they are written
    assert parse_poly_expr("-z*-w^2 - -2(z+w)") == parse_poly_expr("z*w^2 + 2z + 2w")


def test_power_bound_admits_monomial_powers_and_powers_under_it():
    # a monomial's power is one key product, whatever its degree
    assert parse_poly_expr("(2z)^60000") == Poly.monomial({"z": 60000}, 2 ** 60000)
    # the last squaring of (z+w)^1400 is 701^2 = 491,401 term products
    assert len(parse_poly_expr("(z+w)^1400")) == 1401


def test_term_product_budget_covers_the_whole_expression():
    # each (z+w)^1400 costs 492,802 term products, so two fit in the
    # budget and a third does not
    assert len(parse_poly_expr("(z+w)^1400 + (z+w)^1400")) == 1401
    # every product is charged before any power is raised
    start = time.perf_counter()
    with pytest.raises(ExprError, match="power too large: about 1477011 term products"):
        parse_poly_expr(" + ".join(["(z+w)^1400"] * 3))
    assert time.perf_counter() - start < 0.1


def test_the_whole_expression_is_read_before_any_power_is_raised():
    start = time.perf_counter()
    with pytest.raises(ExprError, match=r"unexpected '\)' \(at position 11\)"):
        parse_poly_expr("(z+w)^1400 )")
    with pytest.raises(ExprError, match=r"expected '\)' \(at position 12\)"):
        parse_poly_expr("((z+w)^1400 ")
    assert time.perf_counter() - start < 0.1


def test_a_zero_factor_raises_no_power():
    start = time.perf_counter()
    assert parse_poly_expr("0*" + "*".join(["(z+w)^1400"] * 8)).is_zero()
    assert time.perf_counter() - start < 0.1
    # a zero base to the power 0 is 1, not a zero factor
    assert parse_poly_expr("0^0*z - 2*0^3*w") == parse_poly_expr("z")


# term products each expression is charged, recorded while every factor
# was parsed into a Poly of its own: a product of numbers and variables
# costs one per factor, whichever way it is read
PARSER_PAIRS = {
    "3*z^2*w^5": 3,
    "z*w*z*w^3": 4,
    "-2/3*z^4*w - 5*w^2 + 7/2*z": 7,
    "3z^2 w": 3,
    "z^0*w^0": 2,
    "5": 1,
    "2^3*z": 2,
    "2/4*z": 2,
    "(z)^3*w": 3,
    "(2/3)^2*z": 3,
    "(z+w)^5": 17,
    "(z+w)^3*(z-w)^2 + (1+z)^4": 44,
    "2*(z+w)^4*z^2": 22,
    "z^2*(w+1)*w": 7,
    "-(z+1)^2*-w": 12,
    "(z+w)^40*(z-w)^40": 2608,
    "0*z^3*w": 0,
    "z^3*0^2*w": 0,
    "0^0*z^2": 2,
    "(z-z)*(z+w)^3": 4,
}


@pytest.mark.parametrize("src", list(PARSER_PAIRS))
def test_parser_charges_what_it_charged_per_factor(src):
    parser = _ExprParser(src)
    parser.parse()
    assert parser.pairs == PARSER_PAIRS[src]


# Where a run of numbers and z/w powers stops being one whole product: what
# each input parses to (its text and the term products charged) or the
# error it raises, recorded while every token was a single number, name or
# operator.  The too-long numbers have sys.get_int_max_str_digits() + 1 digits.
_LONG = "1" * (_LIMIT + 1)
_TOKEN_BOUNDARY = [
    ("z^2^3", (ExprError, "unexpected '^' (at position 3)", 3)),
    ("z^2/2", (ExprError, "expected a nonnegative integer exponent (at position 2)", 2)),
    ("3/0*z", (ExprError, "zero denominator (at position 0)", 0)),
    ("1/2z", ("1/2 * z", 2)),
    ("2z(z+w)", ("2 * z^2 + 2 * z w", 6)),
    ("3z^2 w", ("3 * z^2 w", 3)),
    ("2*z^ 3", ("2 * z^3", 2)),
    ("z^٣", (ExprError, "unexpected character '٣' (at position 2)", 2)),
    ("-3/4*z^2*w)", (ExprError, "unexpected ')' (at position 10)", 10)),
    ("z^70000*w", (ValueError,
                   f"total degree 70001 exceeds the kernel bound MAX_DEGREE = {MAX_DEGREE}", None)),
    ("0/5*z^3", ("0", 0)),
    ("--2z", ("2 * z", 2)),
    (f"-{_LONG}/7*z^2*w", (ExprError, f"{_TOO_MANY_DIGITS} (at position 1)", 1)),
    (f"z^{_LONG}*w", (ExprError, f"{_TOO_MANY_DIGITS} (at position 2)", 2)),
    ("-2/3*z^4*w - 5*w^2 + 7/2*z", ("-2/3 * z^4 w - 5 * w^2 + 7/2 * z", 7)),
    ("3/4*z^2*w-1", ("3/4 * z^2 w - 1", 4)),
    ("z^02*w^0", ("z^2", 2)),
    ("(-3/4*z^2*w)^2", ("9/16 * z^4 w^2", 4)),
    ("z*-3w", ("-3 * z w", 3)),
    ("(z+w)^2z", ("z^3 + 2 * z^2 w + z w^2", 12)),
    ("z^ 3w", ("z^3 w", 2)),
    ("2 *z", ("2 * z", 2)),
    ("1/23/4", (ExprError, "unexpected character '/' (at position 4)", 4)),
    ("zw", (ExprError, "variable 'zw' is not allowed here (at position 0)", 0)),
    ("2zw", (ExprError, "variable 'zw' is not allowed here (at position 1)", 1)),
    ("z2 + 1", (ExprError, "variable 'z2' is not allowed here (at position 0)", 0)),
]


@pytest.mark.parametrize("src, expected", _TOKEN_BOUNDARY,
                         ids=[src[:24] for src, _ in _TOKEN_BOUNDARY])
def test_token_boundary_reads_as_single_tokens_read(src, expected):
    if isinstance(expected[0], str):
        parser = _ExprParser(src)
        assert (parser.parse().text(), parser.pairs) == expected
        return
    error, message, position = expected
    with pytest.raises(error) as raised:
        _ExprParser(src).parse()
    assert type(raised.value) is error
    assert str(raised.value) == message
    assert getattr(raised.value, "position", None) == position


def test_heat_data_parse_to_their_monomials(monkeypatch):
    # the first 200 heat data of the benchmark's seeded request stream
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)  # its dataclasses look it up
    spec.loader.exec_module(inputs)
    stream = (request for request in inputs.requests(1, inputs.FULL) if request.kind == "heat")
    for request in itertools.islice(stream, 200):
        initial = next(arg for arg in request.argv if arg.startswith("--initial="))
        expected = Poly.lincomb((coeff, Poly({monomial_key({"z": dz, "w": dw}): 1}))
                                for (dz, dw), coeff in request.datum.items())
        assert parse_poly_expr(initial.partition("=")[2]) == expected


# ---------------------------------------------------------------------
# top-level behavior
# ---------------------------------------------------------------------

def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 2
    assert "invalid choice" in err


@pytest.mark.parametrize("command", ["audit", "verify"])
def test_bare_grid_flags_give_the_default_grid(command):
    # the flags take their defaults from GridRanges, so the two cannot drift apart
    assert _make_ranges(build_parser().parse_args([command])) == GridRanges()


COMPUTE_ARGS = ["compute", "--p", "1", "--q", "1", "--n", "2", "--m", "1"]


def test_parser_is_built_once_and_keeps_no_state(capsys):
    """One process runs a sequence of calls; each matches a fresh process."""
    assert build_parser() is build_parser()
    sequence = [
        ["compute", "--p", "1", "--q", "1", "--n", "2", "--m", "1", "--strategy", "nope"],
        ["compute", "--p", "2", "--q", "1", "--n", "4", "--m", "2", "--strategy", "all",
         "--subst", "z=1/2", "--format", "json"],
        ["heat", "--p", "2", "--q", "1", "--c=-3/7", "--initial", "z^3 w - 2w",
         "--format", "csv"],
        COMPUTE_ARGS,
    ]
    codes = []
    for argv in sequence:
        code, out, _ = run_cli(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "gouldhopper.cli", *argv],
                               capture_output=True, text=True, timeout=120)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
        codes.append(code)
    assert codes == [2, 0, 0, 0]
    assert out == "z^2 w + 2 * z g\n"


def _distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def test_entry_point_is_installed(monkeypatch, capsys):
    """pyproject.toml declares a `gouldhopper` script that runs `cli.main`,
    called the way the generated wrapper calls it: no arguments, sys.argv set."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]
    scripts = project.get("scripts", {})
    assert "gouldhopper" in scripts
    entry = importlib.metadata.EntryPoint(
        name="gouldhopper", value=scripts["gouldhopper"], group="console_scripts")
    target = entry.load()
    assert target is main
    monkeypatch.setattr(sys, "argv", ["gouldhopper", *COMPUTE_ARGS])
    assert target() == 0
    assert capsys.readouterr().out == "z^2 w + 2 * z g\n"


@pytest.mark.skipif(not _distribution_installed("gouldhopper"),
                    reason="no 'gouldhopper' distribution is installed "
                           "(importlib.metadata.distribution finds none)")
def test_installed_script_is_on_path():
    script = shutil.which("gouldhopper")
    assert script is not None
    dist = importlib.metadata.distribution("gouldhopper")
    (entry,) = dist.entry_points.select(group="console_scripts", name="gouldhopper")
    assert entry.value == "gouldhopper.cli:main"
    result = subprocess.run([script, *COMPUTE_ARGS], capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "z^2 w + 2 * z g\n"


# ---------------------------------------------------------------------
# JSON rendering
# ---------------------------------------------------------------------

def _dumps_at(value, depth):
    # json.dumps(value, sort_keys=True, indent=2) on a line `depth` levels deep
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)


_TINY_GRID = ("--nmax", "1", "--mmax", "1", "--aux-max", "0", "--jk-max", "1")


@pytest.mark.parametrize("argv", [
    ["compute", "--p", "2", "--q", "1", "--n", "4", "--m", "3", "--strategy", "all",
     "--format", "json"],
    ["compute", "--p", "2", "--q", "1", "--n", "4", "--m", "3", "--strategy", "all",
     "--subst", "z=1/2,gamma=3", "--format", "json"],
    ["heat", "--p", "2", "--q", "1", "--c=3/7", "--initial=1/2*z^3*w^2 - 5/3*z*w^4 + 7",
     "--format", "json"],
    ["verify", "--tag", "all", *_TINY_GRID, "--variant", "both", "--format", "json"],
    ["audit", *_TINY_GRID, "--trials", "1", "--variant", "both"],
], ids=["compute", "compute-subst", "heat", "verify", "audit"])
def test_json_documents_are_what_json_dumps_writes(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_json_default_writes_rationals_and_refuses_other_types():
    grid = json.loads(_dumped({"pq_pairs": ((1, 0),), "points": [F(-3, 7), 2]}, 1))
    assert grid == {"pq_pairs": [[1, 0]], "points": ["-3/7", 2]}
    assert _dumped({"c": F(4, 2), "n": [1]}, 1) == (
        '{\n    "c": "2",\n    "n": [\n      1\n    ]\n  }')
    for value in ({2}, b"x", 1j):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _dumped({"a": [value]}, 0)


# exponents small, of two and three digits (past the writer's kept
# fragments), and terms of one variable up to MAX_DEGREE
_TERM_EXPS = (
    st.tuples(*[st.integers(0, 3) | st.integers(10, 300)] * len(VAR_NAMES))
    | st.builds(lambda slot, e: tuple(e if i == slot else 0 for i in range(len(VAR_NAMES))),
                st.integers(0, len(VAR_NAMES) - 1), st.integers(MAX_DEGREE - 3, MAX_DEGREE))
)
_TERM_POLYS = st.dictionaries(
    _TERM_EXPS,
    st.fractions(max_denominator=50).filter(bool) | st.integers(-(2 ** 70), 2 ** 70).filter(bool),
    max_size=6,
).map(lambda terms: Poly.lincomb(
    (coeff, Poly.monomial(dict(zip(VAR_NAMES, exps)))) for exps, coeff in terms.items()))
_NOTES = st.text() | st.sampled_from(['"quoted"', "back\\slash", "tab\tnew\nline", "é ☃ 𝄞", ""])


@settings(max_examples=200, deadline=None)
@given(_TERM_POLYS, st.integers(0, 5))
def test_term_writer_matches_write_json(poly, depth):
    items, texts = _term_items(poly, depth)
    assert items == [_dumps_at(term, depth) for term in poly.to_json_obj()]
    assert terms_text(texts) == poly.text()
    expected = {"text": poly.text(), "terms": poly.to_json_obj()}
    assert _poly_json(poly, depth) == _dumps_at(expected, depth)
    expected["strategy"] = "via_genfun"
    assert _poly_json(poly, depth, '"strategy": "via_genfun"') == _dumps_at(expected, depth)


@settings(max_examples=200, deadline=None)
@given(
    tag=st.sampled_from(list(IdentityTag)),
    params=st.dictionaries(
        st.text(min_size=1) | st.sampled_from(["n", "m", "p", "q", "a", "k"]),
        st.integers(-(2 ** 40), 2 ** 40) | st.fractions(max_denominator=30),
        max_size=5),
    variant=_NOTES,
    status=st.sampled_from([STATUS_EXACT_PASS, STATUS_SERIES_PASS, STATUS_FAIL]) | st.text(),
    difference=_TERM_POLYS,
    series_order=st.none() | st.integers(0, 40),
    notes=_NOTES,
    known_misprint=st.booleans(),
    depth=st.integers(0, 5),
)
def test_report_template_matches_write_json(depth, **fields):
    report = IdentityReport(**fields)
    assert _report_json(report, depth) == _dumps_at(report.to_json_obj(), depth)


def test_report_template_covers_the_zero_difference_and_empty_params():
    report = IdentityReport(IdentityTag.SYMMETRY, {}, "printed", STATUS_EXACT_PASS, Poly.zero())
    assert _report_json(report, 2) == _dumps_at(report.to_json_obj(), 2)
    assert '"difference": []' in _report_json(report, 2)
    assert '"params": {}' in _report_json(report, 2)
