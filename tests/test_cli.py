"""Command-line interface tests: parsing, formats, exit codes, schemas."""

import csv
import importlib
import importlib.metadata
import io
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gouldhopper.cli import (
    ExprError,
    _dump_json,
    _JsonItems,
    _make_ranges,
    _write_json,
    build_parser,
    canonical_var,
    main,
    parse_poly_expr,
    parse_pq_list,
    parse_rational,
    parse_subst,
)
from gouldhopper.exactalg import MAX_DEGREE
from gouldhopper.identity import MAX_JOBS, GridRanges, IdentityTag


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


def test_parse_poly_expr_gamma_alias():
    p = parse_poly_expr("2 gamma z", allowed_vars=("z", "g"))
    assert p.text() == "2 * z g"
    assert parse_poly_expr("γ", allowed_vars=("g",)).text() == "g"


def test_parse_poly_expr_errors_carry_positions():
    with pytest.raises(ExprError, match=r"negative exponent \(at position 2\)"):
        parse_poly_expr("z^-1")
    with pytest.raises(ExprError, match=r"nonnegative integer exponent \(at position 2\)"):
        parse_poly_expr("z^(1/2)")
    with pytest.raises(ExprError, match=r"unexpected end of expression \(at position 3\)"):
        parse_poly_expr("z +")
    with pytest.raises(ExprError, match=r"variable 'x' is not allowed here \(at position 0\)"):
        parse_poly_expr("x + 1")
    with pytest.raises(ExprError, match=r"unexpected '\*' \(at position 3\)"):
        parse_poly_expr("2 ** 3")
    with pytest.raises(ExprError, match=r"expected '\)' \(at position 2\)"):
        parse_poly_expr("(z")


def test_parse_poly_expr_round_trips_canonical_text():
    from gouldhopper.ghcore import explicit_poly

    p = explicit_poly(2, 1, 4, 2)
    assert parse_poly_expr(p.text(), allowed_vars=("z", "w", "g")) == p


def test_parse_rational():
    assert parse_rational("-7/3") == F(-7, 3)
    assert parse_rational("4") == F(4)
    with pytest.raises(ValueError, match="not a rational number"):
        parse_rational("abc")
    with pytest.raises(ValueError, match="not a rational number"):
        parse_rational("1/0")


def test_parse_pq_list():
    assert parse_pq_list("1,1;2,1") == ((1, 1), (2, 1))
    assert parse_pq_list(" 2,2 ") == ((2, 2),)
    with pytest.raises(ValueError, match="expected 'p,q'"):
        parse_pq_list("1")
    with pytest.raises(ValueError, match="expected integers"):
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
    assert canonical_var("gamma") == "g"
    assert canonical_var("γ") == "g"
    assert canonical_var("z'") == "zp"
    assert canonical_var("w'") == "wp"
    assert canonical_var("gamma'") == "gp"
    assert canonical_var("z") == "z"


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
                           "--n", "2", "--m", "1", "--gamma", "1/2")
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
    ["--gamma", "3", "--subst", "gamma=2"],
    ["--gamma", "3", "--subst", "z=1,g=3"],
])
def test_compute_rejects_a_variable_bound_twice(capsys, flags):
    code, out, err = run_cli(capsys, "compute", "--p", "1", "--q", "1",
                             "--n", "1", "--m", "1", *flags)
    assert code == 2
    assert out == ""
    assert ("--gamma and --subst both bind gamma" in err if "--gamma" in flags
            else "argument --subst: variable " in err and "is bound twice" in err)


@pytest.mark.parametrize("argv, reason", [
    (["heat", "--p", "1", "--q", "1", "--c", "1/0", "--initial", "z"],
     "argument --c: not a rational number: '1/0'"),
    (["compute", "--p", "1", "--q", "1", "--n", "1", "--m", "1", "--gamma", "x"],
     "argument --gamma: not a rational number: 'x'"),
    (["audit", "--pq", "1"], "argument --pq: expected 'p,q' but got '1'"),
    (["compute", "--p", "1", "--q", "1", "--n", "1", "--m", "1", "--subst", "t=1"],
     "argument --subst: cannot substitute 't'"),
])
def test_argument_errors_say_why(capsys, argv, reason):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert reason in err


def test_compute_gamma_with_another_binding(capsys):
    code, out, _ = run_cli(capsys, "compute", "--p", "1", "--q", "1", "--n", "1",
                           "--m", "1", "--gamma", "3", "--subst", "z=2")
    assert code == 0
    assert out == "2 * w + 3\n"


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
    code, _, err = run_cli(capsys, "compute", "--p", "1", "--q", "1", "--n", "3",
                           "--m", "2", "--strategy", "genfun", "--order", "2")
    assert code == 2
    assert "cannot reach the coefficient" in err


def test_compute_rejects_degree_past_kernel_bound(capsys):
    code, out, err = run_cli(capsys, "compute", "--p", "1", "--q", "1",
                             "--n", str(MAX_DEGREE + 1), "--m", "0",
                             "--strategy", "explicit")
    assert code == 2
    assert out == ""
    assert f"error: total degree {MAX_DEGREE + 1} exceeds the kernel bound" in err


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
         "--subst", "z=1/2", "--order", "8", "--format", "json"],
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

_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2 ** 200), max_value=2 ** 200)
    | st.text()
    | st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\x7f\t\n\r", "é ☃ 𝄞", "\u2028", ""])
)
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(), children, max_size=4)
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_DOCS)
def test_dump_json_matches_json_dumps(doc):
    assert _dump_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("depth", [1, 2])
def test_dump_json_splices_items_written_at_their_depth(depth):
    items = [{"a": [1, {"b": None}], "c": "x"}, [], {}, "s", [[2, 3]]]
    doc = {"k": items} if depth == 2 else items
    written = []
    for item in items:
        pieces = []
        _write_json(item, "", "\n" + "  " * depth, pieces)
        written.append("".join(pieces))
    spliced = {"k": _JsonItems(written)} if depth == 2 else _JsonItems(written)
    assert _dump_json(spliced) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert _dump_json(_JsonItems()) == "[]\n"


def test_dump_json_nested_empties():
    doc = {"a": [], "b": {}, "c": [[], {}, [[]], {"d": {}}], "": None}
    assert _dump_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [1.5, F(1, 2), {1: "x"}, {"a": [{2}]}, b"x"],
                         ids=["float", "fraction", "int-key", "set", "bytes"])
def test_dump_json_rejects_types_the_cli_never_emits(value):
    with pytest.raises(TypeError):
        _dump_json(value)
