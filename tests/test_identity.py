"""Identity catalog tests: checkers, variant policies, grid audits."""

import hashlib
import importlib
import inspect
import json
import math
import pickle
from concurrent.futures import Executor, Future
from fractions import Fraction as F

import pytest

from gouldhopper import ghcore, heatrep
from gouldhopper.cli import _report_json
from gouldhopper.exactalg import Poly, SeriesUV, _reduced, rising_factorial, series_exp
from gouldhopper.ghcore import _comb0, explicit_poly
from gouldhopper.heatrep import property_suite
from gouldhopper.identity import (
    CHECKS,
    MAX_JOBS,
    MISPRINT_LEDGER,
    STATUS_FAIL,
    GridRanges,
    IdentityReport,
    IdentityTag,
    RenderedReport,
    audit_grid,
    cells_for,
    corrected_variant_label,
    parse_tag,
    pochhammer_tail,
    run_cell,
    run_check,
    summarize,
)
from gouldhopper.identity import checks

from conftest import _clear_package_caches

# One cell per tag on which the printed display provably fails while the
# documented correction passes.  [DERIVED] by scanning the default grid.
MISPRINT_WITNESSES = {
    IdentityTag.ADD_HALF: {"p": 1, "q": 1, "n": 0, "m": 1},
    IdentityTag.CONN_PQ_FROM_GH: {"p": 1, "q": 1, "n": 0, "m": 2},
    IdentityTag.GEN_POCHHAMMER_G: {"p": 1, "q": 1, "j": 1, "k": 1, "order": 10},
    IdentityTag.GEN_POCHHAMMER_S: {
        "p": 2, "q": 1, "a": F(1, 2), "b": F(1, 3),
        "z": F(2), "w": F(3), "g": F(5), "order": 8,
    },
    IdentityTag.HYP_2F0_1F1: {"n": 1, "m": 1, "z": F(2)},
    IdentityTag.ORIGIN_VALUE: {"p": 1, "q": 1, "n": 2, "m": 2},
    IdentityTag.PARAM_OP_PQ: {"p": 1, "q": 1, "n": 1, "m": 1},
    IdentityTag.PARAM_REC: {"p": 1, "q": 1, "n": 1, "m": 1},
    IdentityTag.PDE_EIGEN_M: {"p": 1, "q": 2, "n": 1, "m": 2},
    IdentityTag.PDE_EIGEN_N: {"p": 2, "q": 1, "n": 2, "m": 1},
    IdentityTag.PDE_PRODUCT: {"p": 2, "q": 1, "n": 2, "m": 1},
    IdentityTag.REC_RAISE_M: {"p": 1, "q": 1, "n": 1, "m": 0},
    IdentityTag.RUNGE_HALF: {"p": 1, "q": 1, "n": 0, "m": 1},
}


# ---------------------------------------------------------------------
# tags and ledger
# ---------------------------------------------------------------------

def test_tag_catalog_is_complete():
    assert len(IdentityTag) == 48
    assert set(CHECKS) == set(IdentityTag)


def test_parse_tag():
    assert parse_tag("SYMMETRY") is IdentityTag.SYMMETRY
    assert parse_tag("symmetry") is IdentityTag.SYMMETRY
    with pytest.raises(ValueError, match="unknown identity tag"):
        parse_tag("nope")


def test_ledger_contents():
    assert len(MISPRINT_LEDGER) == 13
    assert set(MISPRINT_LEDGER) == set(MISPRINT_WITNESSES)


def test_corrected_variant_label():
    label = corrected_variant_label(IdentityTag.REC_RAISE_M)
    assert label.startswith("corrected: ")
    with pytest.raises(ValueError, match="no documented corrected variant"):
        corrected_variant_label(IdentityTag.SYMMETRY)


# ---------------------------------------------------------------------
# run_check plumbing
# ---------------------------------------------------------------------

def test_run_check_validates_params():
    with pytest.raises(ValueError, match=r"missing \['m'\]"):
        run_check(IdentityTag.SYMMETRY, {"p": 1, "q": 1, "n": 2}, "printed")
    with pytest.raises(ValueError, match=r"unexpected \['x'\]"):
        run_check(IdentityTag.SYMMETRY, {"p": 1, "q": 1, "n": 2, "m": 3, "x": 1}, "printed")
    with pytest.raises(ValueError, match="unknown variant"):
        run_check(IdentityTag.SYMMETRY, {"p": 1, "q": 1, "n": 2, "m": 3}, "bogus")


@pytest.mark.parametrize("tag, cell", [
    (IdentityTag.HYPERGEOM, {"p": 1, "q": 0, "n": 2, "m": 1}),
    (IdentityTag.CONN_GH_FROM_PQ, {"p": 1, "q": 2, "n": 2}),
    (IdentityTag.CONN_PQ_FROM_GH, {"p": 0, "q": 1, "n": 1, "m": 1}),
    (IdentityTag.PDE_PRODUCT, {"p": 2, "q": 0, "n": 1, "m": 1}),
    (IdentityTag.GEN_PARTIAL_U, {"p": 1, "q": 0, "m": 1, "order": 10}),
    (IdentityTag.GEN_POCHHAMMER_G, {"p": 1, "q": 1, "j": 0, "k": 1, "order": 10}),
    (IdentityTag.GEN_FULL, {"p": 2, "q": 2, "order": 3}),
], ids=lambda value: getattr(value, "value", ""))
def test_run_check_enforces_the_constraint(tag, cell):
    # the constraint that keeps a cell off the grid also refuses it here
    assert cell not in cells_for(tag, GridRanges(pq_pairs=((cell["p"], cell["q"]),)))
    with pytest.raises(ValueError, match=f"{tag.value} needs "):
        run_check(tag, cell, "printed")


def test_run_check_result_shape():
    # a checker returns its two sides; run_cell alone forms the difference
    lhs, rhs = run_check(IdentityTag.SYMMETRY, {"p": 2, "q": 1, "n": 3, "m": 2}, "printed")
    assert lhs == rhs == explicit_poly(1, 2, 2, 3)
    lhs, rhs = run_check(IdentityTag.GEN_FULL, {"p": 1, "q": 1, "order": 4}, "printed")
    assert isinstance(lhs, SeriesUV) and lhs == rhs
    # a correction changes a side, not the shape
    cell = MISPRINT_WITNESSES[IdentityTag.REC_RAISE_M]
    printed = run_check(IdentityTag.REC_RAISE_M, cell, "printed")
    corrected = run_check(IdentityTag.REC_RAISE_M, cell, "corrected")
    assert printed[0] == corrected[0] == corrected[1] != printed[1]


def test_checker_signature_gives_the_key_order():
    assert CHECKS[IdentityTag.NIELSEN_N].keys == ("p", "q", "n", "np", "m")
    assert CHECKS[IdentityTag.NIELSEN_FULL].keys == ("p", "q", "n", "np", "m", "mp")
    assert CHECKS[IdentityTag.HYP_2F0_1F1].keys == ("n", "m", "z")
    for spec in CHECKS.values():
        names = tuple(inspect.signature(spec.fn).parameters)
        assert names == spec.keys + (("variant",) if spec.correction else ())


def _checker_without_variant(p, q, n, m):
    return Poly.zero(), Poly.zero()


def _checker_with_variant(p, q, n, m, variant):
    return Poly.zero(), Poly.zero()


def _checker_with_variant_first(variant, p, q, n, m):
    return Poly.zero(), Poly.zero()


def _checker_with_a_stray_key(p, q, n, k):
    return Poly.zero(), Poly.zero()


@pytest.mark.parametrize("fn, correction, message", [
    (_checker_with_a_stray_key, None, "not the axis keys"),
    (_checker_without_variant, "a correction", "variant last exactly when"),
    (_checker_with_variant_first, "a correction", "variant last exactly when"),
    (_checker_with_variant, None, "variant last exactly when"),
], ids=["stray_key", "corrected_without_variant", "variant_not_last",
        "uncorrected_with_variant"])
def test_identity_rejects_a_signature_that_does_not_match_the_entry(fn, correction, message):
    # the registry reads the keys off the signature and refuses, at import,
    # one that does not match the axes or the correction
    with pytest.raises(ValueError, match=f"BOGUS: .*{message}"):
        checks.identity("BOGUS", "algebraic", correction=correction)(fn)
    assert "BOGUS" not in checks._ENTRIES


def _checker_with_star_args(p, q, n, m, *args):
    return Poly.zero(), Poly.zero()


def _checker_with_star_kwargs(p, q, n, m, **kwargs):
    return Poly.zero(), Poly.zero()


def _checker_with_a_keyword_only_scale(p, q, n, m, *, scale=1):
    return Poly.zero(), Poly.zero()


def _checker_with_positional_only_keys(p, q, n, m, /):
    return Poly.zero(), Poly.zero()


@pytest.mark.parametrize("fn", [
    _checker_with_star_args, _checker_with_star_kwargs, _checker_with_a_keyword_only_scale,
    _checker_with_positional_only_keys,
], ids=["star_args", "star_kwargs", "keyword_only", "positional_only"])
def test_identity_refuses_a_checker_whose_keys_its_code_does_not_show(fn):
    # each takes the axis keys p, q, n, m by position, which is all the
    # registry reads off the code; it refuses the rest rather than register
    # keys that run_check's keyword call would pass wrongly
    with pytest.raises(ValueError, match="BOGUS: the checker may take only parameters"):
        checks.identity("BOGUS", "algebraic")(fn)
    assert "BOGUS" not in checks._ENTRIES


@pytest.mark.parametrize("tag", list(IdentityTag), ids=lambda tag: tag.value)
def test_every_tag_checks_something_on_the_default_grid(tag):
    # a cell that compares 0 with 0 certifies nothing: each tag, under each
    # of its variants, needs one default cell where neither side is zero
    variants = ("printed", "corrected") if tag in MISPRINT_LEDGER else ("printed",)
    for variant in variants:
        assert any(
            not any(side.is_zero() for side in run_check(tag, cell, variant))
            for cell in cells_for(tag, GridRanges())
        ), (tag, variant)


def test_report_series_order_follows_the_registry_kind():
    # a series identity's reports carry its truncation order, every other none
    ranges = GridRanges(n_max=1, m_max=1, pq_pairs=((1, 1),), aux_max=1, jk_max=1,
                        series_order=4)
    for tag, spec in CHECKS.items():
        cell = cells_for(tag, ranges)[0]
        for report in run_cell(tag, cell, "both"):
            if spec.kind == "series":
                assert report.series_order == cell["order"], tag
                assert report.status in ("SeriesPass", "Fail"), tag
            else:
                assert report.series_order is None, tag
                assert report.status in ("ExactPass", "Fail"), tag


def test_pochhammer_tail_values():
    # [DERIVED] P_k^n = sum_{j<k} (-1)^(k-j) (-n)_(k-j) C(k,j) z^j:
    # P_1^2 = -(-2)_1 = 2;  P_2^3 = (-3)_2 - 2(-3)_1 z = 6 + 6z.
    assert pochhammer_tail(2, 1) == 2
    assert pochhammer_tail(1, 0) == 0
    assert pochhammer_tail(3, 2).text() == "6 * z + 6"
    assert pochhammer_tail(3, 2, var="u").text() == "6 * u + 6"
    with pytest.raises(ValueError):
        pochhammer_tail(2, -1)


# ---------------------------------------------------------------------
# healthy identities pass as printed
# ---------------------------------------------------------------------

HEALTHY_CELLS = [
    (IdentityTag.SYMMETRY, {"p": 2, "q": 1, "n": 3, "m": 2}),
    (IdentityTag.HYPERGEOM, {"p": 2, "q": 2, "n": 4, "m": 3}),
    (IdentityTag.HOMOGENEITY, {"p": 1, "q": 2, "n": 3, "m": 4}),
    (IdentityTag.LIMIT, {"p": 2, "q": 1, "n": 3, "m": 2}),
    (IdentityTag.RUNGE_GENERAL, {"p": 1, "q": 1, "n": 3, "m": 2}),
    (IdentityTag.RUNGE_CANCEL, {"p": 2, "q": 1, "n": 4, "m": 2}),
    (IdentityTag.RUNGE_SCALED, {"p": 1, "q": 1, "n": 2, "m": 2}),
    (IdentityTag.MULT_C, {"p": 2, "q": 1, "n": 3, "m": 2}),
    (IdentityTag.MULT_ABC, {"p": 1, "q": 2, "n": 2, "m": 3}),
    (IdentityTag.MULT_GH, {"p": 2, "n": 4}),
    (IdentityTag.ADD_ZW, {"p": 1, "q": 1, "n": 2, "m": 2}),
    (IdentityTag.DERIV_Z, {"p": 2, "q": 1, "n": 4, "m": 2}),
    (IdentityTag.DERIV_W, {"p": 1, "q": 2, "n": 2, "m": 4}),
    (IdentityTag.DERIV_GAMMA, {"p": 2, "q": 1, "n": 4, "m": 3}),
    (IdentityTag.DERIV_JK, {"p": 1, "q": 1, "n": 4, "m": 3, "j": 2, "k": 1}),
    (IdentityTag.DERIV_GAMMA_K, {"p": 2, "q": 1, "n": 6, "m": 3, "k": 2}),
    (IdentityTag.INVERSE_SUM, {"p": 1, "q": 1, "n": 3, "m": 2}),
    (IdentityTag.INVERSE_OP, {"p": 2, "q": 1, "n": 3, "m": 2}),
    (IdentityTag.REC_RAISE_N, {"p": 2, "q": 1, "n": 3, "m": 2}),
    (IdentityTag.REC_RAISE_N_OP, {"p": 1, "q": 2, "n": 3, "m": 3}),
    (IdentityTag.REC_RAISE_M_OP, {"p": 2, "q": 1, "n": 3, "m": 2}),
    (IdentityTag.CREATION, {"p": 2, "q": 1, "n": 3, "m": 2}),
    (IdentityTag.CREATION_BOTH, {"p": 1, "q": 2, "n": 2, "m": 3}),
    (IdentityTag.PARAM_OP_P, {"p": 2, "q": 1, "n": 4, "m": 2}),
    (IdentityTag.PARAM_OP_Q, {"p": 1, "q": 2, "n": 2, "m": 4}),
    (IdentityTag.NIELSEN_N, {"p": 1, "q": 1, "n": 2, "np": 2, "m": 2}),
    (IdentityTag.NIELSEN_M, {"p": 2, "q": 1, "n": 2, "m": 2, "mp": 1}),
    (IdentityTag.NIELSEN_FULL, {"p": 1, "q": 1, "n": 2, "np": 1, "m": 1, "mp": 2}),
    (IdentityTag.CONN_GH_FROM_PQ, {"p": 2, "q": 1, "n": 4}),
    (IdentityTag.CONN_GH_SUM, {"p": 2, "q": 2, "n": 4}),
    (IdentityTag.CONN_ITO, {"n": 3}),
    (IdentityTag.PDE_HEAT, {"p": 2, "q": 1, "n": 4, "m": 3}),
]


@pytest.mark.parametrize("tag,cell", HEALTHY_CELLS, ids=lambda x: getattr(x, "value", ""))
def test_printed_form_passes(tag, cell):
    (report,) = run_cell(tag, cell, "printed")
    assert report.status == "ExactPass", report.difference.text()
    assert report.variant == "printed"
    assert not report.known_misprint


def test_series_identities_pass():
    for tag, cell in [
        (IdentityTag.GEN_FULL, {"p": 1, "q": 1, "order": 6}),
        (IdentityTag.GEN_FULL, {"p": 2, "q": 2, "order": 8}),
        (IdentityTag.GEN_PARTIAL_U, {"p": 2, "q": 1, "m": 2, "order": 7}),
        (IdentityTag.GEN_PARTIAL_V, {"p": 1, "q": 2, "n": 3, "order": 7}),
    ]:
        (report,) = run_cell(tag, cell, "printed")
        assert report.status == "SeriesPass", (tag, report.difference.text())
        assert report.series_order == cell["order"]


def _series_exp_one_order_short(arg, order):
    return series_exp(arg, order - 1)


@pytest.mark.usefixtures("fresh_caches")
@pytest.mark.parametrize("tag, cell", [
    (IdentityTag.GEN_PARTIAL_U, {"p": 1, "q": 1, "m": 2, "order": 6}),
    (IdentityTag.GEN_PARTIAL_V, {"p": 2, "q": 1, "n": 2, "order": 6}),
], ids=["GEN_PARTIAL_U", "GEN_PARTIAL_V"])
@pytest.mark.parametrize("swapped", [False, True], ids=["rhs_short", "lhs_short"])
def test_a_series_side_short_of_the_cell_order_raises(monkeypatch, tag, cell, swapped):
    # the right-hand product with a short exp series stops at order 5, so a
    # zero difference would certify orders up to 5 only, not the cell's 6
    monkeypatch.setattr(checks, "series_exp", _series_exp_one_order_short)
    lhs, rhs = run_check(tag, cell, "printed")
    assert (lhs.order, rhs.order) == (6, 5)
    orders = "6 and 5"
    if swapped:
        audit = importlib.import_module("gouldhopper.identity.audit")
        monkeypatch.setattr(audit, "run_check", lambda *args: run_check(*args)[::-1])
        orders = "5 and 6"
    with pytest.raises(RuntimeError, match=(
        f"^{tag.value}: series sides at orders {orders}, not at the cell's order 6$"
    )):
        run_cell(tag, cell, "printed")


def test_run_cell_difference_from_equal_and_unequal_sides(monkeypatch):
    # equal sides give the zero difference at once; unequal ones are
    # subtracted, series sides after folding, so a series pair that differs
    # only in its box still passes, and a real difference is reported whole
    audit = importlib.import_module("gouldhopper.identity.audit")
    u, v = Poly.variable("u"), Poly.variable("v")
    z = Poly.variable("z")
    series = SeriesUV.from_poly(z * u + F(1, 3) * u * v, 4)
    boxed = SeriesUV(4, dict(series.items()), box=(4, 3))
    cases = [
        (IdentityTag.SYMMETRY, {"p": 1, "q": 1, "n": 1, "m": 0}, (z, z), "ExactPass", Poly.zero()),
        (IdentityTag.SYMMETRY, {"p": 1, "q": 1, "n": 1, "m": 0}, (z, 2 * z), "Fail", -z),
        (IdentityTag.GEN_FULL, {"p": 1, "q": 1, "order": 4}, (series, boxed), "SeriesPass",
         Poly.zero()),
        (IdentityTag.GEN_FULL, {"p": 1, "q": 1, "order": 4},
         (series, SeriesUV.from_poly(z * u, 4)), "Fail", F(1, 3) * u * v),
    ]
    for tag, cell, sides, status, difference in cases:
        monkeypatch.setattr(audit, "run_check", lambda *args, sides=sides: sides)
        (report,) = run_cell(tag, cell, "printed")
        assert (report.status, report.difference) == (status, difference)


def _power_sum_binomial_neg(base, a, order):
    # (1 - base)^(-a) = sum_k (a)_k base^k / k!, one series product per power,
    # summed over the folded powers
    acc = Poly.one()
    power = SeriesUV(order, {(0, 0): Poly.one()})
    base = SeriesUV.from_poly(base, order)
    for k in range(1, order + 1):
        power = power * base
        acc = acc + power.to_poly() * (rising_factorial(a, k) / math.factorial(k))
    return SeriesUV.from_poly(acc, order)


@pytest.mark.parametrize("variant", ["printed", "corrected"])
def test_pochhammer_s_closed_form_matches_the_series_products(variant):
    # the right-hand side as displayed: (1-uz)^-a (1-vw)^-b sum_K c_K X^K,
    # with every power of X a truncated series product
    p, q, order = 2, 1, 7
    a, b, z, w, g = F(1, 2), F(-3, 2), F(2), F(-1, 3), F(5)
    cell = {"p": p, "q": q, "a": a, "b": b, "z": z, "w": w, "g": g, "order": order}
    _, rhs = run_check(IdentityTag.GEN_POCHHAMMER_S, cell, variant)
    uz, vw = Poly.monomial({"u": 1}, z), Poly.monomial({"v": 1}, w)
    arg = {"u": 1, "v": 1} if variant == "printed" else {"u": p, "v": q}
    x = (SeriesUV.from_poly(Poly.monomial(arg, g * p ** p * q ** q), order)
         * _power_sum_binomial_neg(uz, F(p), order) * _power_sum_binomial_neg(vw, F(q), order))
    hyp = Poly.one()
    power = SeriesUV(order, {(0, 0): Poly.one()})
    for k in range(1, order + 1):
        power = power * x
        coeff = F(1, math.factorial(k))
        for r in range(1, p + 1):
            coeff *= rising_factorial((a + r - 1) / p, k)
        for r in range(1, q + 1):
            coeff *= rising_factorial((b + r - 1) / q, k)
        hyp = hyp + power.to_poly() * coeff
    expected = (_power_sum_binomial_neg(uz, a, order) * _power_sum_binomial_neg(vw, b, order)
                * SeriesUV.from_poly(hyp, order))
    assert not rhs.is_zero()
    assert rhs.order == expected.order == order
    assert rhs.to_poly() == expected.to_poly()


def test_weighted_series_printed_passes_when_orders_are_one():
    # uv == u^p v^q at p = q = 1, so the printed argument is correct there.
    cell = {"p": 1, "q": 1, "a": F(1, 2), "b": F(1, 3),
            "z": F(2), "w": F(3), "g": F(5), "order": 8}
    (report,) = run_cell(IdentityTag.GEN_POCHHAMMER_S, cell, "printed")
    assert report.status == "SeriesPass"


def test_pochhammer_g_degree_weights_match_the_operators():
    # the left-hand coefficients, weighted by the rising factorials of each
    # term's degrees, against the operators z Dz^j z^(j-1) and w Dw^k w^(k-1)
    # applied to H_{n,m}/(n! m!) through Poly.diff (corrected), and against
    # (n)_j (m)_k H_{n,m}/(n! m!) (printed); the default grid's cells and j, k to 5
    tag = IdentityTag.GEN_POCHHAMMER_G
    cells = cells_for(tag, GridRanges(jk_max=5))
    assert {tuple(cell.values()) for cell in cells_for(tag, GridRanges())} < {
        tuple(cell.values()) for cell in cells}
    for cell in cells:
        p, q, j, k, order = cell["p"], cell["q"], cell["j"], cell["k"], cell["order"]
        printed, _ = run_check(tag, cell, "printed")
        corrected, _ = run_check(tag, cell, "corrected")
        for n in range(order + 1):
            for m in range(order + 1 - n):
                h = explicit_poly(p, q, n, m) * F(1, math.factorial(n) * math.factorial(m))
                inner = Poly.variable("w") * (Poly.monomial({"w": k - 1}) * h).diff("w", k)
                expected = Poly.variable("z") * (Poly.monomial({"z": j - 1}) * inner).diff("z", j)
                assert corrected.coeff(n, m) == expected, (cell, n, m)
                expected = rising_factorial(n, j) * rising_factorial(m, k) * h
                assert printed.coeff(n, m) == expected, (cell, n, m)


# ---------------------------------------------------------------------
# the thirteen documented misprints
# ---------------------------------------------------------------------

@pytest.mark.parametrize(
    "tag", sorted(MISPRINT_WITNESSES, key=lambda t: t.value), ids=lambda t: t.value
)
def test_printed_fails_and_corrected_passes(tag):
    cell = MISPRINT_WITNESSES[tag]
    (printed,) = run_cell(tag, cell, "printed")
    assert printed.status == "Fail"
    assert not printed.difference.is_zero() or printed.notes

    (corrected,) = run_cell(tag, cell, "corrected")
    assert corrected.status in ("ExactPass", "SeriesPass")
    assert corrected.variant == f"corrected: {MISPRINT_LEDGER[tag]}"


@pytest.mark.parametrize(
    "tag", sorted(MISPRINT_WITNESSES, key=lambda t: t.value), ids=lambda t: t.value
)
def test_auto_policy_excuses_documented_misprints(tag):
    reports = run_cell(tag, MISPRINT_WITNESSES[tag], "auto")
    assert len(reports) == 2
    printed, corrected = reports
    assert printed.variant == "printed"
    assert printed.status == "Fail"
    assert printed.known_misprint
    assert "known misprint" in printed.notes
    assert corrected.status in ("ExactPass", "SeriesPass")
    assert not corrected.known_misprint
    assert summarize(reports)["effective_fail"] == 0


def test_auto_policy_returns_single_report_when_printed_passes():
    reports = run_cell(IdentityTag.PARAM_REC, {"p": 1, "q": 1, "n": 0, "m": 0}, "auto")
    assert [r.status for r in reports] == ["ExactPass"]


def test_both_policy_always_runs_correction_for_ledgered_tags():
    reports = run_cell(IdentityTag.PARAM_REC, {"p": 1, "q": 1, "n": 0, "m": 0}, "both")
    assert [r.status for r in reports] == ["ExactPass", "ExactPass"]
    assert reports[0].variant == "printed"
    assert reports[1].variant.startswith("corrected: ")


def test_corrected_policy_falls_back_to_printed_without_a_ledger_entry():
    (report,) = run_cell(IdentityTag.SYMMETRY, {"p": 1, "q": 1, "n": 2, "m": 1}, "corrected")
    assert report.variant == "printed"
    assert report.status == "ExactPass"


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown variant policy"):
        run_cell(IdentityTag.SYMMETRY, {"p": 1, "q": 1, "n": 1, "m": 1}, "bogus")
    with pytest.raises(ValueError, match="unknown variant policy 'bogus'"):
        audit_grid([IdentityTag.SYMMETRY], GridRanges(n_max=0, m_max=0), policy="bogus")


# ---------------------------------------------------------------------
# one cell of each kind through run_cell
# ---------------------------------------------------------------------

def test_run_cell_algebraic():
    reports = run_cell(IdentityTag.SYMMETRY, {"p": 1, "q": 1, "n": 2, "m": 3})
    assert [r.status for r in reports] == ["ExactPass"]


def test_run_cell_series():
    reports = run_cell(IdentityTag.GEN_FULL, {"p": 1, "q": 1, "order": 6})
    assert [(r.status, r.series_order) for r in reports] == [("SeriesPass", 6)]


def test_run_cell_hypergeom_transform():
    reports = run_cell(IdentityTag.HYP_2F0_1F1, {"n": 2, "m": 1, "z": F(1, 2)})
    assert [r.status for r in reports] == ["Fail", "ExactPass"]
    assert reports[0].known_misprint
    # with n = m the minimum is symmetric, but the sign flip still matters
    reports = run_cell(IdentityTag.HYP_2F0_1F1, {"n": 2, "m": 2, "z": F(-3)})
    assert reports[-1].status == "ExactPass"


def test_run_cell_pde():
    reports = run_cell(IdentityTag.PDE_HEAT, {"p": 2, "q": 1, "n": 3, "m": 2})
    assert [r.status for r in reports] == ["ExactPass"]


# ---------------------------------------------------------------------
# grid expansion and audits
# ---------------------------------------------------------------------

def _refused_point_field(field):
    # hyp_points and weighted_points are fixed: passing any value for
    # them is refused when the grid is built, before any checker runs
    return pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'")


@pytest.mark.parametrize("entries, field", [
    ({"pq_pairs": ((1, 1), (2, 1), (1, 1))}, "pq_pairs"),
    ({"hyp_points": (F(2), F(1, 2), 2)}, "hyp_points"),
    ({"weighted_points": ((F(1, 2), F(1, 3), F(2), F(3), F(5)),) * 2}, "weighted_points"),
], ids=["pq_pairs", "hyp_points", "weighted_points"])
def test_grid_ranges_rejects_repeated_entries(entries, field):
    # a repeated entry would check and report the same cells twice
    if field == "pq_pairs":
        refused = pytest.raises(ValueError, match=f"{field} repeats an entry")
    else:
        refused = _refused_point_field(field)
    with refused:
        GridRanges(n_max=1, m_max=1, **entries)


def test_grid_ranges_validation():
    with pytest.raises(ValueError, match="invalid derivative orders"):
        GridRanges(pq_pairs=((0, 0),))
    with pytest.raises(ValueError, match="series_order"):
        GridRanges(series_order=2, pq_pairs=((2, 1),))
    with pytest.raises(ValueError, match="pq_pairs must be nonempty"):
        GridRanges(pq_pairs=())
    # p + q is the degree of g u^p v^q, so it is bounded like any degree
    with pytest.raises(ValueError, match=r"invalid derivative orders \(70000, 1\): total degree "
                                         r"70001 exceeds the kernel bound"):
        GridRanges(pq_pairs=((70000, 1),), series_order=70001)


@pytest.mark.parametrize("kwargs, weighted", [
    ({}, 8),
    ({"series_order": 12}, 8),
    ({"series_order": 5}, 5),
    ({"pq_pairs": ((5, 4),), "series_order": 12}, 9),
    ({"pq_pairs": ((5, 4), (1, 1)), "series_order": 9}, 9),
], ids=["default", "capped", "series_order", "raised_to_p_plus_q", "largest_pair"])
def test_grid_ranges_derives_its_weighted_series_order(kwargs, weighted):
    # min(8, series_order), raised to the largest p + q of the grid
    ranges = GridRanges(**kwargs)
    assert ranges.weighted_series_order == weighted
    assert ranges.as_dict()["weighted_series_order"] == weighted


def test_grid_ranges_is_an_immutable_value_with_its_class_defaults():
    ranges = GridRanges(2, 3, ((1, 1),), 1, 2, 4)
    assert ranges == GridRanges(n_max=2, m_max=3, pq_pairs=((1, 1),), aux_max=1, jk_max=2,
                                series_order=4)
    assert ranges == pickle.loads(pickle.dumps(ranges))
    assert hash(ranges) == hash(GridRanges(2, 3, ((1, 1),), 1, 2, series_order=4))
    assert ranges != GridRanges() and ranges.weighted_series_order == 4
    with pytest.raises(AttributeError, match="immutable"):
        ranges.n_max = 5
    assert ranges.n_max == 2
    # the class attributes, which the CLI's flags take as their defaults,
    # are the fields of GridRanges(), derived ones included
    defaults = GridRanges().as_dict()
    assert list(defaults) == ["n_max", "m_max", "pq_pairs", "aux_max", "jk_max", "series_order",
                              "weighted_series_order", "hyp_points", "weighted_points"]
    assert defaults == {name: getattr(GridRanges, name) for name in defaults}


def test_grid_ranges_refuses_a_weighted_series_order():
    with pytest.raises(TypeError, match="unexpected keyword argument 'weighted_series_order'"):
        GridRanges(weighted_series_order=5)


def test_fixed_grid_points_meet_what_the_checkers_need():
    # hyp_points and weighted_points are constants that no caller sets:
    # the checkers take exact scalars, HYP_2F0_1F1 divides by its point,
    # GEN_POCHHAMMER_S takes (a, b, z, w, g), and a repeated entry would
    # check and report the same cells twice
    ranges = GridRanges()
    assert all(type(z) is F and z != 0 for z in ranges.hyp_points)
    assert all(len(point) == 5 and all(type(value) is F for value in point)
               for point in ranges.weighted_points)
    for name in ("hyp_points", "weighted_points"):
        entries = getattr(ranges, name)
        assert entries and len(set(entries)) == len(entries)
        assert name in ranges.as_dict()


@pytest.mark.parametrize("points, field", [
    ({"hyp_points": (F(2), F(0))}, "hyp_points"),
    ({"weighted_points": ((F(1), F(2), F(3), F(4)),)}, "weighted_points"),
    ({"weighted_points": (F(1),)}, "weighted_points"),
], ids=["zero_hyp_point", "four_tuple", "bare_scalar"])
def test_grid_ranges_rejects_points_the_checkers_divide_by(points, field):
    with _refused_point_field(field):
        GridRanges(n_max=1, m_max=1, pq_pairs=((1, 1),), **points)


@pytest.mark.parametrize("points, field", [
    ({"hyp_points": (F(2), 0.5)}, "hyp_points"),
    ({"weighted_points": ((F(1, 2), F(1, 3), F(2), F(3), 5.0),)}, "weighted_points"),
], ids=["float_hyp_point", "float_weighted_point"])
def test_grid_ranges_rejects_inexact_points(points, field):
    # the checkers take exact scalars only; a float cannot reach one
    with _refused_point_field(field):
        GridRanges(n_max=1, m_max=1, pq_pairs=((1, 1),), **points)


@pytest.mark.parametrize("z, w", [(0, 0), (0, 3), (2, 0)], ids=["zero_zw", "zero_z", "zero_w"])
def test_weighted_points_may_put_z_or_w_at_zero(z, w):
    # GEN_POCHHAMMER_S's closed form divides by neither z nor w: the
    # corrected variant passes there, and the printed one fails only as
    # the excused misprint, never for (p, q) = (1, 1) where both agree
    for p, q in GridRanges().pq_pairs:
        cell = {"p": p, "q": q, "a": F(1, 2), "b": F(1, 3), "z": F(z), "w": F(w), "g": F(5),
                "order": 6}
        reports = run_cell(IdentityTag.GEN_POCHHAMMER_S, cell, policy="both")
        assert len(reports) == 2
        assert summarize(reports)["effective_fail"] == 0
        for report in reports:
            misprinted = report.variant == "printed" and (p, q) != (1, 1)
            assert report.status == ("Fail" if misprinted else "SeriesPass")


def test_cells_for_symmetry_grid():
    ranges = GridRanges(n_max=3, m_max=3, pq_pairs=((1, 1), (2, 1)))
    cells = cells_for(IdentityTag.SYMMETRY, ranges)
    assert len(cells) == 32  # 4 * 4 * 2
    assert {"p": 1, "q": 1, "n": 0, "m": 0} in cells


# SHA-256 of every tag's cell sequence, in order, taken before the grids
# were derived from the registry; the zero-order grid differs only in that
# HYPERGEOM, whose constraint is p >= 1 and q >= 1, has no cells there.
# The odd-order grid's was taken again, with its weighted series order 7
# set by hand, before GridRanges derived that order.
CELL_DIGESTS = [
    (GridRanges(), 15393,
     "413708cda66ac55c4a1ab173b2b530b43f61509c96afa886975d7e7fd7700c95"),
    (GridRanges(n_max=4, m_max=4, aux_max=2), 7001,
     "c1f6de4774eddcbf2086c49cce17a6fae90e42e77b38d312622d0a2e109beb14"),
    (GridRanges(n_max=3, m_max=2, pq_pairs=((2, 1), (1, 3), (3, 3)), aux_max=1, jk_max=2,
                series_order=7), 2016,
     "03f2f05c90bbd1d7470375d3e25dc2ec7e6e0602134561d92c2973e4681bbff7"),
    (GridRanges(n_max=3, m_max=3, pq_pairs=((1, 0), (0, 2)), aux_max=1, jk_max=2), 1686,
     "a5de3f2e405b413fbe998484d704c41ac1661a86d0347f979da464aac949a3a8"),
]


@pytest.mark.parametrize("ranges, count, digest", CELL_DIGESTS,
                         ids=["default", "bench", "odd_orders", "zero_orders"])
def test_cell_sequences_are_pinned(ranges, count, digest):
    # the order matters: parallel chunks coincide with (p, q) blocks
    tags = sorted(IdentityTag, key=lambda t: t.value)
    listing = [
        [t.value, [[[k, str(v)] for k, v in sorted(c.items())] for c in cells_for(t, ranges)]]
        for t in tags
    ]
    assert sum(len(cells) for _, cells in listing) == count
    assert hashlib.sha256(json.dumps(listing).encode()).hexdigest() == digest


def test_audit_small_grid_all_pass():
    ranges = GridRanges(n_max=3, m_max=3, pq_pairs=((1, 1), (2, 1)))
    reports = audit_grid([IdentityTag.SYMMETRY], ranges)
    assert len(reports) == 32
    assert all(r.status == "ExactPass" for r in reports)
    stats = summarize(reports)
    assert stats["total"] == 32
    assert stats["exact_pass"] == 32
    assert stats["effective_fail"] == 0
    assert stats["by_tag"]["SYMMETRY"]["fail"] == 0


def test_audit_pde_heat_small_grid():
    ranges = GridRanges(n_max=2, m_max=2, pq_pairs=((1, 1),))
    reports = audit_grid([IdentityTag.PDE_HEAT], ranges)
    assert len(reports) == 9
    assert all(r.status == "ExactPass" for r in reports)


def test_audit_empty_tag_list():
    assert audit_grid([], GridRanges()) == []


def test_audit_reports_are_sorted_and_deterministic():
    ranges = GridRanges(n_max=2, m_max=2, pq_pairs=((1, 1), (2, 1)))
    tags = [IdentityTag.PARAM_REC, IdentityTag.SYMMETRY]
    a = audit_grid(tags, ranges)
    b = audit_grid(list(reversed(tags)), ranges)
    assert [r.to_json_obj() for r in a] == [r.to_json_obj() for r in b]
    keys = [r.sort_key() for r in a]
    assert keys == sorted(keys)


def test_sort_key_is_the_params_json_text():
    # the canonical order is that of json.dumps of the params, sorted keys
    ranges = GridRanges(n_max=1, m_max=1, aux_max=1, jk_max=1, pq_pairs=((1, 1), (2, 1)))
    reports = audit_grid(None, ranges, policy="both")
    assert {r.tag for r in reports} == set(IdentityTag)
    for report in reports:
        tag, text, rank = report.sort_key()
        assert tag == report.tag.value
        assert text == json.dumps(report.params_json(), sort_keys=True)
        assert rank == (report.variant != "printed")
    # a cell's printed and corrected reports share one key text
    cell = MISPRINT_WITNESSES[IdentityTag.GEN_POCHHAMMER_S]
    printed, corrected = run_cell(IdentityTag.GEN_POCHHAMMER_S, cell, "both")
    assert printed.param_entries() is corrected.param_entries()
    assert printed.sort_key()[1] == corrected.sort_key()[1] == json.dumps(
        printed.params_json(), sort_keys=True)
    # a report built without run_cell writes its own
    report = _with_params(printed, {**cell, "z": F(-7, 3)})
    assert report.sort_key()[1] == json.dumps(report.params_json(), sort_keys=True)
    assert report.sort_key() < printed.sort_key()
    assert json.loads(_report_json(report, 1)) == report.to_json_obj()
    assert json.loads(_report_json(report, 1))["params"]["z"] == "-7/3"
    with pytest.raises(TypeError, match="boolean"):
        _with_params(reports[0], {"n": True}).sort_key()


def _with_params(report, params):
    # the report with other params, and no param entries written yet
    return IdentityReport(report.tag, params, report.variant, report.status, report.difference,
                          report.series_order, report.notes, report.known_misprint)


def test_identity_report_is_a_mutable_value():
    fields = (IdentityTag.SYMMETRY, {"p": 1}, "printed", STATUS_FAIL, Poly.variable("z"), None,
              "a note", False)
    report = IdentityReport(*fields)
    assert report == IdentityReport(
        tag=IdentityTag.SYMMETRY, params={"p": 1}, variant="printed", status=STATUS_FAIL,
        difference=Poly.variable("z"), notes="a note")
    # the param entries it writes on first use are not part of its value
    assert report.param_entries() == ('"p": 1',)
    assert report == IdentityReport(*fields) == pickle.loads(pickle.dumps(report))
    report.known_misprint = True
    assert report != IdentityReport(*fields)
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)


def test_check_spec_is_an_immutable_value():
    spec = CHECKS[IdentityTag.SYMMETRY]
    assert spec == checks.CheckSpec(spec.keys, spec.kind, spec.fn, spec.axes)
    assert spec == checks.CheckSpec(keys=spec.keys, kind="algebraic", fn=spec.fn, axes=spec.axes,
                                    needs=None, correction=None, notes=spec.notes)
    with pytest.raises(AttributeError):
        spec.needs = "n >= 1"
    constrained = spec._replace(needs="n >= 1")
    assert constrained != spec and constrained.admits({"n": 1})
    assert not constrained.admits({"n": 0}) and spec.admits({"n": 0})


def test_audit_misprint_accounting():
    ranges = GridRanges(n_max=2, m_max=2, pq_pairs=((1, 1),))
    reports = audit_grid([IdentityTag.PARAM_REC], ranges, policy="auto")
    stats = summarize(reports)
    assert stats["fail"] > 0
    assert stats["fail"] == stats["known_misprints"]
    assert stats["effective_fail"] == 0
    # under the printed-only policy the same failures count
    printed = audit_grid([IdentityTag.PARAM_REC], ranges, policy="printed")
    assert summarize(printed)["effective_fail"] == stats["fail"]


def _report_line(report):
    return f"{report.tag.value} {report.params} {report.variant} {report.difference.text()}"


def test_audit_parallel_matches_serial():
    ranges = GridRanges(n_max=2, m_max=2, pq_pairs=((1, 1), (2, 1)))
    tags = [IdentityTag.SYMMETRY, IdentityTag.DERIV_Z, IdentityTag.PARAM_REC]
    serial = audit_grid(tags, ranges, jobs=1)
    parallel = audit_grid(tags, ranges, jobs=4)
    # whole reports: params, variants, notes and the exact differences
    assert parallel == serial
    assert any(not r.difference.is_zero() and r.known_misprint for r in serial)
    # rendered in the workers: the same order, statuses and texts
    rendered = audit_grid(tags, ranges, jobs=4, render=_report_line)
    assert rendered == [
        RenderedReport(r.tag, r.status, r.known_misprint, _report_line(r)) for r in serial
    ]
    assert summarize(rendered) == summarize(serial)
    assert summarize(serial)["effective_fail"] == 0


def test_audit_heat_suite_is_one_more_task():
    ranges = GridRanges(n_max=1, m_max=1, pq_pairs=((1, 1),))
    tags = [IdentityTag.PARAM_REC]
    for jobs in (1, 2):
        reports, heat = audit_grid(tags, ranges, jobs=jobs, heat=(4, 1))
        assert reports == audit_grid(tags, ranges)
        assert heat == property_suite(seed=4, trials=1, pq_pairs=ranges.pq_pairs)


class _RecordingPool(Executor):
    # stands in for the process pool: records its size, runs tasks here
    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def submit(self, fn, /, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


def test_audit_pool_is_bounded_by_jobs_and_tasks(monkeypatch):
    audit = importlib.import_module("gouldhopper.identity.audit")
    monkeypatch.setattr(audit, "_process_pool", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    ranges = GridRanges(n_max=1, m_max=1, pq_pairs=((1, 1),))
    cells = len(cells_for(IdentityTag.SYMMETRY, ranges))
    assert cells == 4
    # past 2 * cells workers every cell is one task: four tasks, four workers
    audit_grid([IdentityTag.SYMMETRY], ranges, jobs=MAX_JOBS)
    audit_grid([IdentityTag.SYMMETRY], ranges, jobs=MAX_JOBS, heat=(0, 1))
    audit_grid([IdentityTag.SYMMETRY], ranges, jobs=3)
    assert _RecordingPool.sizes == [4, 5, 3]
    # one task, or one job, runs in this process without a pool
    audit_grid([IdentityTag.SYMMETRY], GridRanges(n_max=0, m_max=0, pq_pairs=((1, 1),)), jobs=8)
    audit_grid([IdentityTag.SYMMETRY], ranges, jobs=1, heat=(0, 1))
    assert _RecordingPool.sizes == [4, 5, 3]
    for jobs in (0, MAX_JOBS + 1, 100000):
        with pytest.raises(ValueError, match=f"jobs must be between 1 and {MAX_JOBS}"):
            audit_grid([IdentityTag.SYMMETRY], ranges, jobs=jobs)
    assert _RecordingPool.sizes == [4, 5, 3]


# ---------------------------------------------------------------------
# memoized sides and bounded caches
# ---------------------------------------------------------------------

def _cached_functions():
    return {
        f"{module.__name__}.{name}": fn
        for module in (ghcore, checks)
        for name, fn in vars(module).items()
        if hasattr(fn, "cache_parameters")
    }


def test_every_cache_is_bounded():
    cached = _cached_functions()
    assert "gouldhopper.ghcore.explicit_poly" in cached
    unbounded = sorted(
        name for name, fn in cached.items() if fn.cache_parameters()["maxsize"] is None
    )
    assert unbounded == []


def test_nielsen_memo_is_keyed_on_computed_weights():
    # H^(1,1)_{3,2} split as n = 2, n' = 1, m = m' = 1
    lhs = explicit_poly(1, 1, 3, 2)
    zweights = checks._grouped_binomials(2, 1)
    wweights = checks._grouped_binomials(1, 1)
    assert zweights == (1, 3, 3, 1) and wweights == (1, 2, 1)
    assert (lhs - checks._nielsen_rhs(1, 1, "zw", zweights, wweights, 0)).is_zero()
    # the N- and M-shaped calls leave one axis unshifted at its fixed index
    assert (lhs - checks._nielsen_rhs(1, 1, "z", zweights, (1,), 2)).is_zero()
    assert (lhs - checks._nielsen_rhs(1, 1, "w", (1,), wweights, 3)).is_zero()
    # a perturbed weight tuple is a different key with a different sum: the
    # memo does not stand in C(n+n', s) for what the cell computed
    assert not (lhs - checks._nielsen_rhs(1, 1, "zw", (1, 3, 4, 1), wweights, 0)).is_zero()
    assert not (lhs - checks._nielsen_rhs(1, 1, "zw", zweights, (1, 1, 1), 0)).is_zero()
    assert not (lhs - checks._nielsen_rhs(1, 1, "z", (1, 3, 2, 1), (1,), 2)).is_zero()
    assert not (lhs - checks._nielsen_rhs(1, 1, "w", (1,), (1, 1, 1), 3)).is_zero()


def test_memoized_checkers_agree_cold_and_warm():
    tags = (
        IdentityTag.NIELSEN_N, IdentityTag.NIELSEN_M, IdentityTag.NIELSEN_FULL,
        IdentityTag.GEN_FULL, IdentityTag.GEN_POCHHAMMER_G, IdentityTag.GEN_POCHHAMMER_S,
        IdentityTag.CONN_PQ_FROM_GH,
    )
    ranges = GridRanges(n_max=2, m_max=2, aux_max=1, jk_max=2, series_order=6)
    for fn in _cached_functions().values():
        fn.cache_clear()
    cold = [r.to_json_obj() for r in audit_grid(tags, ranges, policy="both")]
    assert checks._nielsen_rhs.cache_info().hits > 0
    warm = [r.to_json_obj() for r in audit_grid(tags, ranges, policy="both")]
    assert cold == warm
    assert {r["tag"] for r in cold} == {tag.value for tag in tags}


def _op_exp_by_mode(p, q, n, m, mode):
    # exp(g OP Dz^p Dw^q) H_{n,m} by the binomial or trinomial expansion of
    # OP^k, the form _op_exp replaced: mode "z" is OP = Dz - 1, "w" is
    # Dw - 1, "zw" is Dz Dw - 1 and "zw_printed" is Dz + Dw - 2
    h = explicit_poly(p, q, n, m)
    terms = []
    for k in range(ghcore.FamilyParams(p, q, n, m).k_max + 1):
        base = h.diff("z", p * k).diff("w", q * k)
        gk = Poly.monomial({"g": k}, F(1, math.factorial(k)))
        if mode != "zw_printed":
            dz, dw = int("z" in mode), int("w" in mode)
            for j in range(k + 1):
                terms.append((math.comb(k, j) * (-1) ** (k - j), gk,
                              base.diff("z", dz * j).diff("w", dw * j)))
        else:
            for i in range(k + 1):
                for j in range(k + 1 - i):
                    ell = k - i - j
                    coeff = math.factorial(k) // (
                        math.factorial(i) * math.factorial(j) * math.factorial(ell)) * (-2) ** ell
                    terms.append((coeff, gk, base.diff("z", i).diff("w", j)))
    return Poly.lincomb(terms)


# the terms (c, i, j), each c Dz^i Dw^j, of each mode's OP
_OPS = {
    "z": ((1, 1, 0), (-1, 0, 0)),
    "w": ((1, 0, 1), (-1, 0, 0)),
    "zw": ((1, 1, 1), (-1, 0, 0)),
    "zw_printed": ((1, 1, 0), (1, 0, 1), (-2, 0, 0)),
}


@pytest.mark.parametrize("mode", _OPS)
def test_op_exp_matches_the_expansion_by_mode(mode):
    for p, q in GridRanges().pq_pairs:
        for n in range(6):
            for m in range(6):
                expected = _op_exp_by_mode(p, q, n, m, mode)
                assert checks._op_exp(p, q, n, m, _OPS[mode]) == expected, (p, q, n, m)


def _conn_rhs_by_term(tag, p, q, n):
    # the CONN right-hand sides with the substitution applied to each term
    # of sum_k C(n,k) H_{n-k,k}, the form _cross_sum replaced
    z, w = Poly.variable("z"), Poly.variable("w")
    if tag is IdentityTag.CONN_GH_FROM_PQ:
        return Poly.lincomb((math.comb(n, k), explicit_poly(p - q, q, n - k, k).subst({"z": z - w}))
                            for k in range(n + 1))
    if tag is IdentityTag.CONN_GH_SUM:
        return Poly.lincomb((math.comb(n, k), explicit_poly(p, q, n - k, k)) for k in range(n + 1))
    return Poly.lincomb((math.comb(n, k), explicit_poly(1, 1, n - k, k).subst({"z": z - w, "g": -1}))
                        for k in range(n + 1))


@pytest.mark.parametrize("tag", [
    IdentityTag.CONN_GH_FROM_PQ, IdentityTag.CONN_GH_SUM, IdentityTag.CONN_ITO,
], ids=lambda tag: tag.value)
def test_cross_sum_sides_match_the_sums_by_term(tag):
    ranges = GridRanges(n_max=6)
    cells = cells_for(tag, ranges)
    assert {cell["n"] for cell in cells} == set(range(7))
    for cell in cells:
        _, rhs = run_check(tag, cell, "printed")
        expected = _conn_rhs_by_term(tag, cell.get("p", 1), cell.get("q", 1), cell["n"])
        assert rhs == expected, cell


# ---------------------------------------------------------------------
# the audit can fail: one wrong family, binomial, derivative, exp series
# or heat solver each
# ---------------------------------------------------------------------

def _gamma_squared_negated(p, q, n, m):
    h = explicit_poly(p, q, n, m)
    return h - 2 * Poly.monomial({"g": 2}) * h.coefficient("g", 2)


def _comb0_off_by_one(n, k):
    return _comb0(n + 1, k)


def _solve_with_c_negated(problem, solve=heatrep.solve):
    return solve(heatrep.HeatProblem(problem.p, problem.q, -problem.c, problem.initial))


def _diff_drops_a_term(self, name, order=1, diff=Poly.diff):
    # the derivative less its term of smallest packed key, if it has another
    derivative = diff(self, name, order)
    if len(derivative) < 2:
        return derivative
    num = dict(derivative._num)
    del num[min(num)]
    return _reduced(num, derivative._den)


def _series_exp_uv_doubled(arg, order, **kwargs):
    series = series_exp(arg, order, **kwargs)
    if order < 2:
        return series
    return SeriesUV(order, {**dict(series.items()), (1, 1): 2 * series.coeff(1, 1)})


# (modules or classes patched, name, mutant, tags with an unexcused Fail, heat suite fails)
_MUTANTS = {
    "unpatched": ((), None, None, set(), False),
    "gamma_squared_negated": (
        (ghcore, checks, heatrep), "explicit_poly", _gamma_squared_negated,
        {"CONN_GH_FROM_PQ", "CONN_PQ_FROM_GH", "CREATION", "CREATION_BOTH", "DERIV_GAMMA",
         "DERIV_GAMMA_K", "GEN_FULL", "GEN_POCHHAMMER_S", "HYPERGEOM", "INVERSE_OP",
         "INVERSE_SUM", "MULT_ABC", "MULT_C", "ORIGIN_VALUE", "PARAM_OP_P", "PARAM_OP_PQ",
         "PARAM_OP_Q", "PARAM_REC", "PDE_EIGEN_M", "PDE_EIGEN_N", "PDE_HEAT", "PDE_PRODUCT",
         "REC_RAISE_M", "REC_RAISE_M_OP", "REC_RAISE_N", "REC_RAISE_N_OP", "RUNGE_CANCEL",
         "RUNGE_GENERAL", "RUNGE_HALF", "RUNGE_SCALED"},
        True),
    "comb0_off_by_one": (
        (ghcore, checks), "_comb0", _comb0_off_by_one,
        {"ADD_HALF", "ADD_ZW", "CONN_GH_FROM_PQ", "CONN_GH_SUM", "CONN_ITO", "NIELSEN_FULL",
         "NIELSEN_M", "NIELSEN_N", "PARAM_REC", "REC_RAISE_M", "REC_RAISE_N", "RUNGE_CANCEL",
         "RUNGE_GENERAL", "RUNGE_HALF", "RUNGE_SCALED"},
        False),
    "c_negated": ((heatrep,), "solve", _solve_with_c_negated, set(), True),
    "diff_drops_a_term": (
        (Poly,), "diff", _diff_drops_a_term,
        {"CREATION", "CREATION_BOTH", "DERIV_GAMMA", "DERIV_GAMMA_K", "DERIV_JK", "DERIV_W",
         "DERIV_Z", "INVERSE_OP", "PARAM_OP_P", "PARAM_OP_PQ", "PARAM_OP_Q", "PDE_EIGEN_M",
         "PDE_EIGEN_N", "PDE_HEAT", "PDE_PRODUCT", "REC_RAISE_M_OP", "REC_RAISE_N_OP"},
        False),
    "series_exp_uv_doubled": (
        (ghcore, checks), "series_exp", _series_exp_uv_doubled, {"GEN_FULL", "GEN_POCHHAMMER_G"},
        False),
}


def test_mutants_fail_the_audit():
    ranges = GridRanges(n_max=3, m_max=3, aux_max=1, jk_max=2, pq_pairs=((1, 1), (2, 1)),
                        series_order=4)
    for label, (modules, name, mutant, failing_tags, heat_fails) in _MUTANTS.items():
        _clear_package_caches()
        try:
            with pytest.MonkeyPatch.context() as patch:
                for module in modules:
                    patch.setattr(module, name, mutant)
                reports, heat = audit_grid(None, ranges, heat=(0, 1))
        finally:
            _clear_package_caches()
        failed = {r.tag.value for r in reports if r.status == STATUS_FAIL and not r.known_misprint}
        assert failed == failing_tags, label
        assert bool(heat["failures"]) == heat_fails, label
