"""End-to-end acceptance gate for the package.

Everything here is checked in exact rational arithmetic: a test passes
only when a polynomial difference is identically zero (or a series
matches coefficient by coefficient through its stated order).
"""

import ast
import hashlib
import importlib
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from gouldhopper.exactalg import Poly
from gouldhopper.ghcore import (
    FamilyParams,
    explicit,
    explicit_poly,
    hermite_classical,
    hypergeom_form,
    ito_hermite,
    operational,
    via_creation,
    via_genfun,
    via_recurrence,
)
from gouldhopper.heatrep import property_suite
from gouldhopper.identity import (
    MISPRINT_LEDGER,
    GridRanges,
    IdentityTag,
    audit_grid,
    effective_failures,
    run_cell,
    summarize,
)

# The common derivative-order sweep: every shape class the constructions
# support, including the two one-sided (zero-order) columns.
PQ_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3), (3, 3), (2, 0), (0, 2))


def test_five_way_strategy_equivalence():
    started = time.monotonic()
    for p, q in PQ_PAIRS:
        for n in range(9):
            for m in range(9):
                params = FamilyParams(p, q, n, m)
                reference = explicit(params)
                assert operational(params) == reference, params
                assert via_creation(params) == reference, params
                assert via_recurrence(params) == reference, params
                assert via_genfun(params, n + m) == reference, params
                if p >= 1 and q >= 1:
                    assert hypergeom_form(params) == reference, params
    assert time.monotonic() - started < 60


def test_full_identity_audit():
    started = time.monotonic()
    reports = audit_grid(ranges=GridRanges(), policy="auto")
    stats = summarize(reports)

    # nothing fails except printed forms excused by a documented correction
    assert effective_failures(reports) == []
    assert stats["effective_fail"] == 0
    assert stats["fail"] == stats["known_misprints"]
    assert stats["total"] == len(reports)

    # every identity tag was exercised
    assert {r.tag for r in reports} == set(IdentityTag)

    # each documented misprint is visible: the printed form fails
    # somewhere on the grid and its corrected variant passes there
    excused_tags = {r.tag for r in reports if r.known_misprint}
    assert excused_tags == set(MISPRINT_LEDGER)
    for tag in (IdentityTag.PARAM_REC, IdentityTag.PARAM_OP_PQ,
                IdentityTag.CONN_PQ_FROM_GH, IdentityTag.ORIGIN_VALUE):
        printed_fails = [
            r for r in reports
            if r.tag is tag and r.status == "Fail" and r.known_misprint
        ]
        assert printed_fails, tag
        corrected_passes = [
            r for r in reports
            if r.tag is tag
            and r.variant.startswith("corrected: ")
            and r.status in ("ExactPass", "SeriesPass")
        ]
        assert corrected_passes, tag

    assert time.monotonic() - started < 300


def test_series_identities():
    ranges = GridRanges()
    series_tags = (
        IdentityTag.GEN_FULL,
        IdentityTag.GEN_PARTIAL_U,
        IdentityTag.GEN_PARTIAL_V,
        IdentityTag.GEN_POCHHAMMER_G,
        IdentityTag.GEN_POCHHAMMER_S,
    )
    reports = audit_grid(series_tags, ranges, policy="corrected")
    assert reports
    assert all(r.status == "SeriesPass" for r in reports)

    # unweighted generating identities go through total order 10
    orders = {}
    for r in reports:
        orders.setdefault(r.tag, set()).add(r.params["order"])
    for tag in (IdentityTag.GEN_FULL, IdentityTag.GEN_PARTIAL_U,
                IdentityTag.GEN_PARTIAL_V, IdentityTag.GEN_POCHHAMMER_G):
        assert orders[tag] == {10}

    # the weighted series runs through order 8 at three distinct rational
    # parameter points with non-integer weights a, b
    weighted = [r for r in reports if r.tag is IdentityTag.GEN_POCHHAMMER_S]
    assert orders[IdentityTag.GEN_POCHHAMMER_S] == {8}
    points = {(r.params["a"], r.params["b"], r.params["z"], r.params["w"], r.params["g"])
              for r in weighted}
    assert len(points) == 3
    for a, b, *_ in points:
        assert F(a).denominator > 1
        assert F(b).denominator > 1


def test_classical_reductions():
    # order-(2,0) members at a doubled argument and gamma = -1 are the
    # physicists' Hermite polynomials from the three-term recurrence
    z = Poly.variable("z")
    for n in range(13):
        member = explicit_poly(2, 0, n, 0)
        reduced = member.subst({"z": 2 * z, "w": 1, "g": -1})
        assert reduced == hermite_classical(n), n

    # order-(1,1) members at gamma = -1 are the complex Hermite
    # polynomials from their own double-factorial sum
    for n in range(9):
        for m in range(9):
            reduced = explicit_poly(1, 1, n, m).subst({"g": -1})
            assert reduced == ito_hermite(n, m), (n, m)


def test_heat_representation_properties():
    started = time.monotonic()
    report = property_suite(
        seed=0,
        trials=25,
        pq_pairs=PQ_PAIRS,
        c_values=(F(1), F(-1), F(3, 7)),
    )
    assert report["failures"] == []
    # 25 trials x 9 derivative-order pairs x 3 speeds x 5 invariants
    assert report["cases"] == 3375
    assert time.monotonic() - started < 60


def test_pde_suite():
    pde_tags = (
        IdentityTag.PDE_HEAT,
        IdentityTag.PDE_EIGEN_N,
        IdentityTag.PDE_EIGEN_M,
        IdentityTag.PDE_PRODUCT,
    )
    reports = audit_grid(pde_tags, GridRanges(), policy="auto")
    assert {r.tag for r in reports} == set(pde_tags)
    assert effective_failures(reports) == []
    # the heat equation itself holds as printed everywhere
    assert all(
        r.status == "ExactPass"
        for r in reports
        if r.tag is IdentityTag.PDE_HEAT
    )


# SHA-256 of the stdout of fixed CLI runs, recorded with the earlier
# Fraction/tuple kernel (the verify runs: before their checkers' sides
# were memoized); any kernel or audit change must reproduce them byte for
# byte.
GOLDEN_DIGESTS = {
    ("audit", "--nmax", "4", "--mmax", "4", "--aux-max", "2", "--seed", "1"):
        "c69d74c10f7f9f76a7664673ac774d0b9eeef0c763a1c904cd4bd66144e4891f",
    ("compute", "--p", "2", "--q", "3", "--n", "14", "--m", "12",
     "--strategy", "all", "--format", "json"):
        "c45def953cfdeb0d1280664b7c4d9f5868faa1a9d8404e05f98398cacf647bbf",
    ("heat", "--p", "2", "--q", "1", "--c=3/7",
     "--initial=1/2*z^3*w^2 - 5/3*z*w^4 + 7", "--format", "json"):
        "e98b0aeef0c975d9b7dc3bf24030ed3bba458475790ad196f4b3a4796d6e2aeb",
    # the checkers whose sides are memoized, printed variants included
    ("verify", "--tag", "NIELSEN_FULL", "--nmax", "3", "--mmax", "3", "--aux-max", "2",
     "--format", "json"):
        "d616ead53e2ad1f499695a6690f29831d7b2dffe54f0be938571e1ce44d3de00",
    ("verify", "--tag", "CONN_PQ_FROM_GH", "--variant", "both", "--format", "json"):
        "47aed9f0fb0c867b4ffa3be7623ffb2dda85b4d800bc2c0dd2ac101680f58fde",
    ("verify", "--tag", "GEN_POCHHAMMER_G", "--variant", "both", "--format", "json"):
        "333b88cbaf92ff8c1c4db403b0fb8a94985c5038454ff3cead860435617ce9e0",
    ("verify", "--tag", "GEN_POCHHAMMER_S", "--variant", "both", "--format", "json"):
        "14013f4ae6e969f79c5fe0fd3e9e64cdd72ceb22424ad874acdc790bd5c1b4da",
    # every tag's key order, as the text and JUnit renderings print it
    ("verify", "--tag", "all", "--nmax", "2", "--mmax", "2", "--aux-max", "1", "--jk-max", "1"):
        "29d28fa1248786341c2d119f36971cfd2f1b19984668ebf71182aec078ad3f15",
    ("verify", "--tag", "all", "--nmax", "2", "--mmax", "2", "--aux-max", "1", "--jk-max", "1",
     "--format", "junit"):
        "20360b55bf36556de92f51a50e96fda0b56e8064a1414e2255b3c21cf4e4be57",
}
# the default `audit --seed 42` document (6,535,293 bytes)
DEFAULT_AUDIT_SEED42_SHA256 = "a4723f57be0fdac80ac152647e4fb257b529018278fdf28d38e97d13ea8fff70"


def _digest_id(argv):
    # verify runs are named by their tag, and by their format unless JSON
    if argv[0] != "verify":
        return argv[0]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    return argv[2] if fmt == "json" else f"{argv[2]}-{fmt}"


@pytest.mark.parametrize("argv", list(GOLDEN_DIGESTS), ids=_digest_id)
def test_golden_digests(argv):
    run = subprocess.run([sys.executable, "-m", "gouldhopper.cli", *argv],
                         capture_output=True, timeout=280)
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == GOLDEN_DIGESTS[argv]


def test_benchmark_self_tests():
    # the benchmark traces run_check and every tag; its self-tests catch a
    # broken binding or export before a benchmark run does
    root = Path(__file__).resolve().parent.parent
    run = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s", "perfbench"],
                         cwd=root, capture_output=True, timeout=280)
    assert run.returncode == 0, run.stderr.decode()[-4000:]


@pytest.mark.parametrize("jobs", ["8"])
def test_audit_determinism(jobs):
    argv = [
        sys.executable, "-m", "gouldhopper.cli", "audit",
        "--seed", "42", "--jobs", jobs,
    ]
    first = subprocess.run(argv, capture_output=True, timeout=280)
    second = subprocess.run(argv, capture_output=True, timeout=280)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0, second.stderr.decode()
    assert first.stdout == second.stdout
    assert first.stdout  # a real document came out

    # the parallel run emits the same bytes as a serial one
    serial = subprocess.run(
        [sys.executable, "-m", "gouldhopper.cli", "audit", "--seed", "42", "--jobs", "1"],
        capture_output=True, timeout=280,
    )
    assert serial.returncode == 0
    assert serial.stdout == first.stdout
    assert hashlib.sha256(serial.stdout).hexdigest() == DEFAULT_AUDIT_SEED42_SHA256


@pytest.mark.parametrize("module", ["gouldhopper", "gouldhopper.identity"])
def test_exports_are_sorted_unique_and_resolve(module):
    # a name left in __all__ after its definition is deleted fails to resolve
    package = importlib.import_module(module)
    names = package.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(package, name)] == []


def test_readme_library_snippet_runs_and_shows_its_outputs():
    # the README's Library block runs as pasted, and each value it shows,
    # as a literal after `#` on the line or on the line below, is what the
    # expression before it evaluates to
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    shown = []
    lines = block.splitlines()
    for line, below in zip(lines, lines[1:] + [""]):
        code, _, comment = line.partition("#")
        if below.startswith("#"):
            comment = below[1:]
        try:
            shown.append((ast.parse(code, mode="eval"), ast.literal_eval(comment.strip())))
        except (SyntaxError, ValueError):
            pass  # not an expression, or no literal shown for it
    assert len(shown) == 2
    for tree, value in shown:
        assert eval(compile(tree, "README.md", "eval"), namespace) == value, ast.unparse(tree)
