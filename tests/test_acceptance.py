"""End-to-end acceptance gate for the package.

Everything here is checked in exact rational arithmetic: a test passes
only when a polynomial difference is identically zero (or a series
matches coefficient by coefficient through its stated order).
"""

import ast
import hashlib
import importlib
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from gouldhopper.exactalg import VAR_NAMES, Poly
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
                assert via_genfun(params) == reference, params
                if p >= 1 and q >= 1:
                    assert hypergeom_form(params) == reference, params
    assert time.monotonic() - started < 60


def test_full_identity_audit():
    started = time.monotonic()
    reports = audit_grid(ranges=GridRanges(), policy="auto")
    stats = summarize(reports)

    # nothing fails except printed forms excused by a documented correction
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
    assert summarize(reports)["effective_fail"] == 0
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
def _large_datum():
    # 41 terms over the distinct denominators 2..42, every third one
    # negative, then two repeated monomials (one cancelling a term), a
    # bare integer, adjacency and a parenthesized factor
    chunks = []
    for i in range(41):
        sign = "-" if i % 3 == 1 else ("+" if i else "")
        chunks.append(f"{sign}{(13 * i) % 29 + 1}/{i + 2}*z^{(7 * i) % 23}*w^{(11 * i) % 17}")
    chunks += ["+ 5/4*z^21*w^16", "- 27/4*z^14*w^5", "+ 3z w", "- 7", "+ 2/9*z^2*(w)^3"]
    return " ".join(chunks)


_LARGE_HEAT = ("heat", "--p", "2", "--q", "1", "--c=-5/6", "--initial=" + _large_datum())
_ZERO_SPEED_HEAT = ("heat", "--p", "2", "--q", "1", "--c", "0",
                    "--initial", "3/2*z^5*w^2 - 2/5*z^2*w + 4/3*z*w^3 - 7")

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
    # recorded before the hand-written JSON encoder was retired: a non-null
    # substitution, the text and LaTeX forms, and the text audit
    ("compute", "--p", "2", "--q", "1", "--n", "7", "--m", "5", "--strategy", "all",
     "--subst", "z=1/2,gamma=3", "--format", "json"):
        "a749bfe75462d041c2003578c7d1232651a80ddce5f06b76e4cbbd6af42c2301",
    ("compute", "--p", "2", "--q", "3", "--n", "14", "--m", "12",
     "--strategy", "all", "--format", "text"):
        "34222f78f189203a8b05df875fcd705260cbfac5776fd15e6553d89ba653b1d4",
    ("compute", "--p", "2", "--q", "3", "--n", "14", "--m", "12",
     "--strategy", "all", "--format", "latex"):
        "e3c3738050cbfef7c6122386ec9a4901d0590e199546e1d585d0b51a3b2ed8f5",
    ("heat", "--p", "2", "--q", "1", "--c=3/7",
     "--initial=1/2*z^3*w^2 - 5/3*z*w^4 + 7", "--format", "text"):
        "e67594365fdf0de469bcb37e04861b41ba85979f4bd6cc886be19bf9d987d791",
    ("heat", "--p", "2", "--q", "1", "--c=3/7",
     "--initial=1/2*z^3*w^2 - 5/3*z*w^4 + 7", "--format", "latex"):
        "32adfa3aff487dec6ad17b531c979a984a60f63f067fd6a1f779c65b73f95ebc",
    ("heat", "--p", "2", "--q", "1", "--c=3/7",
     "--initial=1/2*z^3*w^2 - 5/3*z*w^4 + 7", "--format", "csv"):
        "a9dbdce0d3a477886f4b21a6e6c6ecf373c74681e729e92933ff78e03c141633",
    ("audit", "--nmax", "2", "--mmax", "2", "--aux-max", "1", "--jk-max", "1", "--seed", "3",
     "--trials", "3", "--variant", "both", "--format", "text"):
        "d811610d338216e5a5e674a4c5b0acfb3f80994a9c6b03f75c96b192c8e3ce03",
    # a 46-term datum, recorded while each of its factors was parsed into a
    # Poly of its own and solve built a Fraction per term
    (*_LARGE_HEAT, "--format", "json"):
        "5bbdc725b92e493284b7c4a09a793b531ae0831cd1acc80b05ca075141fbd260",
    (*_LARGE_HEAT, "--format", "text"):
        "da0aa9fddc85bc44256e53dbfaef2b3bab7587977c4a3f3e8ea242cc27a30111",
    (*_LARGE_HEAT, "--format", "latex"):
        "03bd50000cc90fa1e7aa8670d6ae4dc048b08d9a06d7e3aa4f77338b93e25e06",
    (*_LARGE_HEAT, "--format", "csv"):
        "8fa74d0b6f0aeb422ba160fe8d24834dd24cf60cd20dbe67ca9ded175cb2073b",
    # recorded while solve substituted g -> c*t over the summed solution and
    # residual built derivative polynomials: the README's example (q = 0,
    # negative c), a p = 0 datum over mixed denominators, and c = 0, which
    # drops every g^e term (e >= 1)
    ("heat", "--p", "2", "--q", "0", "--c=-3/7", "--initial", "(z + w)^2", "--format", "json"):
        "96af1fa97aa6de68c20aedbe651dd22b1fd81b99f1c064db65de00b574512fe2",
    ("heat", "--p", "0", "--q", "3", "--c=7/4",
     "--initial", "2/3*z^2*w^7 - 1/4*w^5 + 5/6*z*w^3 - 3/10*z^4 + 1/9", "--format", "json"):
        "31738b1ded8dbdf17f7e14a26333f23716a786a18b465f6dd898746aa92096f2",
    (*_ZERO_SPEED_HEAT, "--format", "json"):
        "1e554d9c63669e8b2c7f31f8533aac864698602eb193eed186d2440656564286",
    (*_ZERO_SPEED_HEAT, "--format", "csv"):
        "1a1867d95d93428476be8d555304c1fcd315867358ab4331e538db8ddecd133f",
    # a one-sided grid (p = 0 or q = 0 on every pair), recorded while the
    # generating series was cut from the widest one kept per (p, q)
    ("audit", "--pq", "0,1;1,0;0,2;2,0", "--nmax", "3", "--mmax", "3", "--aux-max", "1",
     "--jk-max", "1", "--trials", "2", "--format", "text"):
        "f6d559e33fcc488d54a1f7d2c6e73328f543ed34c4945e42ec7286443c34f02b",
}
# the default `audit --seed 42` document (6,535,293 bytes)
DEFAULT_AUDIT_SEED42_SHA256 = "a4723f57be0fdac80ac152647e4fb257b529018278fdf28d38e97d13ea8fff70"


def _digest_id(argv):
    # a run is named by its command (a verify run by its tag), then by
    # "pq" if it sets its own (p, q) pairs, "subst" if it substitutes,
    # "large" if it solves the large datum, by its orders if a heat run's
    # are not p = 2, q = 1, "c0" if it solves with c = 0, and by its format
    # unless JSON
    default = "json" if argv[0] == "audit" else "text"
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else default
    parts = [argv[2] if argv[0] == "verify" else argv[0]]
    parts += ["pq"] * ("--pq" in argv) + ["subst"] * ("--subst" in argv)
    parts += ["large"] * (argv[:-2] == _LARGE_HEAT)
    if argv[0] == "heat":
        p, q = argv[argv.index("--p") + 1], argv[argv.index("--q") + 1]
        parts += [f"p{p}q{q}"] * ((p, q) != ("2", "1")) + ["c0"] * (argv[:-2] == _ZERO_SPEED_HEAT)
    parts += [fmt] * (fmt != "json")
    return "-".join(parts)


def _renderer_polys():
    # 500 seeded polynomials, the zero polynomial first: up to six terms
    # over up to four of the twelve variables, exponents 0..3, and signed
    # integer, fractional or 70-bit-over-40-bit coefficients
    rng = random.Random(2019)
    polys = [Poly.zero()]
    for _ in range(499):
        terms = []
        for _ in range(rng.randint(1, 6)):
            exps = {name: rng.randint(0, 3) for name in rng.sample(VAR_NAMES, rng.randint(0, 4))}
            coeff = rng.choice((
                F(rng.randint(-9, 9)),
                F(rng.randint(-99, 99), rng.randint(1, 50)),
                F(rng.randint(-2 ** 70, 2 ** 70), rng.randint(1, 2 ** 40)),
            ))
            terms.append((coeff, Poly.monomial(exps)))
        polys.append(Poly.lincomb(terms))
    return polys


# SHA-256 of the newline-joined text() and latex() of _renderer_polys(),
# recorded while each form had a term loop of its own
RENDERER_DIGESTS = {
    "text": "689e4a831e52bab95eb128dfc796eda27c8efa0e2def69f29bc2336552e7417e",
    "latex": "c822393f8488b357f29a4d5d5835b6ac1d1416c4d0ffefcbdd74651389c3456e",
}


def test_renderer_digests():
    polys = _renderer_polys()
    assert set().union(*(poly.variables() for poly in polys)) == set(VAR_NAMES)
    for form, digest in RENDERER_DIGESTS.items():
        rendered = "\n".join(getattr(poly, form)() for poly in polys)
        assert hashlib.sha256(rendered.encode()).hexdigest() == digest, form


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
    # the package exports exactly what the block imports from it
    imported = [alias.name for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "gouldhopper"
                for alias in node.names]
    assert importlib.import_module("gouldhopper").__all__ == sorted(imported)
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
