"""Construction tests: five independent strategies, classical anchors."""

import math
import pickle
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gouldhopper import ghcore
from gouldhopper.exactalg import MAX_DEGREE, Poly, series_exp
from gouldhopper.ghcore import (
    STRATEGIES,
    FamilyParams,
    InvalidParamsError,
    UnsupportedRepresentationError,
    explicit,
    explicit_poly,
    generating_series,
    gould_hopper_1d,
    hermite_classical,
    hypergeom_form,
    ito_hermite,
    operational,
    origin_value,
    via_creation,
    via_genfun,
    via_recurrence,
)

Z = Poly.variable("z")
W = Poly.variable("w")
G = Poly.variable("g")


# ---------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------

def test_params_reject_double_zero_orders():
    with pytest.raises(InvalidParamsError, match="cannot both be zero"):
        FamilyParams(0, 0, 1, 1)


def test_params_reject_negative_and_noninteger():
    with pytest.raises(InvalidParamsError, match="nonnegative integer"):
        FamilyParams(-1, 1, 0, 0)
    with pytest.raises(InvalidParamsError, match="nonnegative integer"):
        FamilyParams(1, 1, 2, -3)
    with pytest.raises(InvalidParamsError, match="nonnegative integer"):
        FamilyParams(1, 1, F(1, 2), 0)
    # a bool is an int to Python, but never an index or an order
    with pytest.raises(InvalidParamsError, match="^p must be a nonnegative integer, got True$"):
        FamilyParams(True, 0, 0, 0)
    with pytest.raises(InvalidParamsError, match="^m must be a nonnegative integer, got False$"):
        FamilyParams(1, 1, 2, False)


def test_params_are_an_immutable_value():
    params = FamilyParams(2, 1, 4, 3)
    assert (params.p, params.q, params.n, params.m) == (2, 1, 4, 3)
    assert params == FamilyParams(p=2, q=1, n=4, m=3) == pickle.loads(pickle.dumps(params))
    assert hash(params) == hash(FamilyParams(2, 1, n=4, m=3))
    assert params != FamilyParams(2, 1, 4, 2) and params != (2, 1, 4, 3)
    with pytest.raises(AttributeError, match="immutable"):
        params.n = 5
    assert params.n == 4


def test_k_max_bounds():
    # [TRIVIAL] k <= floor(n/p) ^ floor(m/q); a zero order drops its bound.
    assert FamilyParams(2, 1, 4, 2).k_max == 2
    assert FamilyParams(0, 2, 5, 7).k_max == 3
    assert FamilyParams(1, 0, 5, 2).k_max == 5
    assert FamilyParams(3, 3, 2, 9).k_max == 0


# ---------------------------------------------------------------------
# frozen explicit values
# ---------------------------------------------------------------------

def test_explicit_small_cases():
    # [DERIVED] hand evaluation of the defining sum
    #   n! m! sum_k g^k/k! z^(n-pk)/(n-pk)! w^(m-qk)/(m-qk)!.
    assert explicit_poly(1, 1, 0, 0) == 1
    assert explicit_poly(1, 1, 1, 0) == Z
    assert explicit_poly(1, 1, 1, 1) == Z * W + G
    assert explicit_poly(1, 1, 2, 1).text() == "z^2 w + 2 * z g"
    assert explicit_poly(1, 1, 2, 2).text() == "z^2 w^2 + 4 * z w g + 2 * g^2"
    assert explicit_poly(2, 1, 4, 2).text() == "z^4 w^2 + 24 * z^2 w g + 24 * g^2"
    assert explicit_poly(3, 2, 3, 2).text() == "z^3 w^2 + 12 * g"


def _explicit_reference(p, q, n, m):
    # the defining sum term by term: Fraction coefficients, monomials, one lincomb
    fact = math.factorial
    return Poly.lincomb(
        (F(fact(n) * fact(m), fact(k) * fact(n - p * k) * fact(m - q * k)),
         Poly.monomial({"z": n - p * k, "w": m - q * k, "g": k}))
        for k in range(FamilyParams(p, q, n, m).k_max + 1)
    )


def test_explicit_poly_matches_the_fraction_sum():
    # every order pair up to 3 (zero orders included) and index up to 14:
    # 15 * 15 * 15 = 3,375 members, each built afresh past the cache
    build = explicit_poly.__wrapped__
    for p in range(4):
        for q in range(4):
            if p + q == 0:
                continue
            for n in range(15):
                for m in range(15):
                    assert build(p, q, n, m) == _explicit_reference(p, q, n, m), (p, q, n, m)


def test_explicit_poly_keeps_the_degree_bound():
    with pytest.raises(ValueError, match=f"MAX_DEGREE = {MAX_DEGREE}"):
        explicit_poly(1, 1, 40000, 40000)


def test_explicit_zero_order_sides():
    # [DERIVED] with q = 0 the w-degree never moves: H^(p,0)_{n,m} = w^m H^(p)_n.
    assert explicit_poly(2, 0, 4, 3) == W ** 3 * gould_hopper_1d(4, 2)
    assert explicit_poly(0, 2, 3, 4) == Z ** 3 * gould_hopper_1d(4, 2).subst({"z": W})


def test_explicit_returns_the_poly():
    poly = explicit(FamilyParams(1, 1, 2, 1))
    assert isinstance(poly, Poly)
    assert poly == explicit_poly(1, 1, 2, 1)


def test_one_variable_family():
    # [DERIVED] H^(2)_4(z | g) = z^4 + 12 z^2 g + 12 g^2.
    assert gould_hopper_1d(4, 2).text() == "z^4 + 12 * z^2 g + 12 * g^2"
    assert gould_hopper_1d(0, 3) == 1
    with pytest.raises(InvalidParamsError, match="p >= 1"):
        gould_hopper_1d(3, 0)
    with pytest.raises(InvalidParamsError, match="n must be >= 0"):
        gould_hopper_1d(-1, 2)


# ---------------------------------------------------------------------
# strategy equivalence (spot checks; the full sweep is the test gate)
# ---------------------------------------------------------------------

SPOT_PARAMS = [
    (1, 1, 3, 2),
    (2, 1, 4, 3),
    (1, 2, 3, 4),
    (2, 2, 4, 4),
    (3, 1, 5, 2),
    (1, 0, 4, 2),
    (0, 1, 2, 4),
]


@pytest.mark.parametrize("p,q,n,m", SPOT_PARAMS)
def test_all_strategies_agree(p, q, n, m):
    params = FamilyParams(p, q, n, m)
    reference = explicit(params)
    assert operational(params) == reference
    assert via_creation(params) == reference
    assert via_recurrence(params) == reference
    assert via_genfun(params) == reference
    if p >= 1 and q >= 1:
        assert hypergeom_form(params) == reference


def test_genfun_higher_order_is_harmless():
    # via_genfun truncates at n + m; a longer series holds the same coefficient
    params = FamilyParams(2, 1, 3, 2)
    assert generating_series(2, 1, 12).coeff(3, 2) * 12 == via_genfun(params) == explicit(params)


@pytest.mark.usefixtures("fresh_caches")
@pytest.mark.parametrize("p,q,n,m,entries,smaller", [
    pytest.param(1, 1, 20, 20, 230, (12, 12), id="1-1-20-20-230"),
    pytest.param(2, 1, 16, 16, 88, (12, 14), id="2-1-16-16-88"),
    pytest.param(0, 2, 10, 10, 20, (5, 10), id="0-2-10-10-20"),
])
def test_recurrence_fills_only_the_entries_it_reads(monkeypatch, p, q, n, m, entries, smaller):
    # one lincomb per table entry it fills, of (n + 1)(m + 1) - 1 in all;
    # a smaller member whose entries are all in the stored table fills none
    lincomb = Poly.lincomb
    built = []

    def counted(cls, terms):
        built.append(1)
        return lincomb(terms)

    monkeypatch.setattr(Poly, "lincomb", classmethod(counted))
    params = FamilyParams(p, q, n, m)
    result = via_recurrence(params)
    assert len(built) == entries
    built.clear()
    again = via_recurrence(FamilyParams(p, q, *smaller))
    monkeypatch.undo()
    assert len(built) == 0
    assert result == explicit(params)
    assert again == explicit(FamilyParams(p, q, *smaller))


@pytest.mark.usefixtures("fresh_caches")
def test_recurrence_never_reads_an_unfilled_entry_as_zero(monkeypatch):
    # every weight nonzero: with p = 0 column m then reads column m - q,
    # which it does not fill
    monkeypatch.setattr(ghcore, "_comb0", lambda n, k: 1)
    with pytest.raises(KeyError):
        via_recurrence(FamilyParams(0, 2, 3, 3))


def _counted_series_exp(monkeypatch):
    # records (order, box, coefficients built) of each series_exp call of
    # ghcore, counted as the growth of the dict of held coefficients
    calls = []

    def counted(arg, order, *, held=None, **kwargs):
        held = {} if held is None else held
        before = len(held)
        series = series_exp(arg, order, held=held, **kwargs)
        calls.append((order, kwargs.get("box"), len(held) - before))
        return series

    monkeypatch.setattr(ghcore, "series_exp", counted)
    return calls


@pytest.mark.usefixtures("fresh_caches")
def test_genfun_reads_and_extends_its_coefficient_memo(monkeypatch):
    assert via_genfun(FamilyParams(2, 1, 8, 8)) == explicit(FamilyParams(2, 1, 8, 8))
    assert len(ghcore._genfun_coefficients(2, 1)) == 81
    calls = _counted_series_exp(monkeypatch)
    params = FamilyParams(2, 1, 3, 2)
    assert via_genfun(params) == explicit(params)
    assert calls == [(5, (3, 2), 0)]
    # a box one row longer builds the one cell the memo lacks
    assert via_genfun(FamilyParams(2, 1, 9, 0)) == explicit(FamilyParams(2, 1, 9, 0))
    assert calls[1:] == [(9, (9, 0), 1)]
    # generating_series reads the same memo: the triangle of order 5 lies
    # in the box (8, 8), and the triangle of order 16, of 153 cells, lacks
    # only the 153 - 82 the memo does not hold
    low = generating_series(2, 1, 5)
    high = generating_series(2, 1, 16)
    assert calls[2:] == [(5, None, 0), (16, None, 71)]
    assert len(ghcore._genfun_coefficients(2, 1)) == 82 + 71
    monkeypatch.undo()
    arg = Z * Poly.variable("u") + W * Poly.variable("v") + G * Poly.monomial({"u": 2, "v": 1})
    assert (low, high) == (series_exp(arg, 5), series_exp(arg, 16))


@pytest.mark.usefixtures("fresh_caches")
def test_generating_series_builds_once_per_order(monkeypatch):
    U, V = Poly.variable("u"), Poly.variable("v")
    arg = Z * U + W * V + G * U ** 2 * V
    calls = _counted_series_exp(monkeypatch)
    series = generating_series(2, 1, 5)
    assert generating_series(2, 1, 5) == series
    # the memo holds [u^0 v^0] from the start
    assert calls == [(5, None, 20), (5, None, 0)]
    # a wider order builds only the cells past the narrower one, and a
    # narrower order builds none
    wide = generating_series(2, 1, 16)
    narrow = generating_series(2, 1, 3)
    assert calls[2:] == [(16, None, 153 - 21), (3, None, 0)]
    monkeypatch.undo()
    for order, built in ((5, series), (16, wide), (3, narrow)):
        assert built == series_exp(arg, order)
        assert built.order == order and built.box == (order, order)


@pytest.mark.usefixtures("fresh_caches")
def test_genfun_builds_only_the_box_it_reads(monkeypatch):
    # the triangle of order 302 holds 46,056 coefficients; the box 301 * 3,
    # of which the memo holds [u^0 v^0] from the start
    calls = _counted_series_exp(monkeypatch)
    started = time.monotonic()
    params = FamilyParams(1, 1, 300, 2)
    assert via_genfun(params) == explicit(params)
    assert time.monotonic() - started < 2
    assert calls == [(302, (300, 2), 902)]


@pytest.mark.usefixtures("fresh_caches")
def test_genfun_memo_holds_the_union_of_the_requested_boxes(monkeypatch):
    # each thin box adds only the cells the boxes before it left out, and
    # the memo is never widened to the component-wise maximum of two boxes,
    # which would hold 90,601 coefficients
    calls = _counted_series_exp(monkeypatch)
    started = time.monotonic()
    for n, m in ((300, 2), (2, 300), (4, 300), (3, 3)):
        params = FamilyParams(1, 1, n, m)
        assert via_genfun(params) == explicit(params)
    assert time.monotonic() - started < 2
    assert calls == [(302, (300, 2), 902), (302, (2, 300), 894), (304, (4, 300), 596),
                     (6, (3, 3), 0)]
    held = ghcore._genfun_coefficients(1, 1)
    assert len(held) == 1 + 902 + 894 + 596
    assert set(held) == {(i, j) for i in range(301) for j in range(301)
                         if min(i, j) <= 2 or (i <= 4 and j <= 300)}


def _agree_on_shared_stores(cells):
    for p, q, n, m in cells:
        params = FamilyParams(p, q, n, m)
        reference = explicit(params)
        assert via_creation(params) == reference, params
        assert via_recurrence(params) == reference, params
        assert via_genfun(params) == reference, params


def test_all_strategies_agree_on_shared_stores_in_any_order():
    # the three stored routes in ascending, descending and shuffled order,
    # each order on stores shared by all its cells and cleared before it
    pqs = [(p, q) for p in range(4) for q in range(4) if p or q]
    cells = [(p, q, n, m) for p, q in pqs for n in range(13) for m in range(13)]
    shuffled = cells[:]
    random.Random(25).shuffle(shuffled)
    for order in (cells, cells[::-1], shuffled):
        for store in (ghcore._recurrence_table, ghcore._creation_chain,
                      ghcore._genfun_coefficients):
            store.cache_clear()
        _agree_on_shared_stores(order)
    for p, q, n, m in cells:
        params = FamilyParams(p, q, n, m)
        assert operational(params) == explicit(params), params
        if p and q:
            assert hypergeom_form(params) == explicit(params), params


def test_one_sided_orders_agree_through_twelve():
    # with p = 0 or q = 0 the recurrence reads column m alone
    started = time.monotonic()
    for p, q in ((1, 0), (0, 1), (3, 0), (0, 3)):
        for n in range(13):
            for m in range(13):
                params = FamilyParams(p, q, n, m)
                reference = explicit(params)
                assert operational(params) == reference, params
                assert via_creation(params) == reference, params
                assert via_recurrence(params) == reference, params
                assert via_genfun(params) == reference, params
    assert time.monotonic() - started < 5


def test_hypergeom_needs_positive_orders():
    with pytest.raises(UnsupportedRepresentationError, match="p >= 1 and q >= 1"):
        hypergeom_form(FamilyParams(1, 0, 2, 2))
    with pytest.raises(UnsupportedRepresentationError):
        hypergeom_form(FamilyParams(0, 2, 2, 2))


def test_strategy_registry():
    assert set(STRATEGIES) == {
        "explicit", "operational", "creation", "recurrence", "genfun", "hypergeom"
    }
    params = FamilyParams(2, 1, 3, 2)
    reference = explicit(params)
    for name, build in STRATEGIES.items():
        assert build(params) == reference, name


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
)
def test_operational_matches_explicit_property(pq, n, m):
    p, q = pq
    params = FamilyParams(p, q, n, m)
    assert operational(params) == explicit(params)


# ---------------------------------------------------------------------
# classical anchors (computed by their own textbook definitions)
# ---------------------------------------------------------------------

def test_hermite_frozen_values():
    # [DERIVED] physicists' Hermite table: H_0..H_4.
    assert hermite_classical(0) == 1
    assert hermite_classical(1) == 2 * Z
    assert hermite_classical(2) == 4 * Z ** 2 - 2
    assert hermite_classical(3) == 8 * Z ** 3 - 12 * Z
    assert hermite_classical(4).text() == "16 * z^4 - 48 * z^2 + 12"
    with pytest.raises(ValueError):
        hermite_classical(-1)


@pytest.mark.parametrize("n", range(13))
def test_hermite_reduction(n):
    # H_n(z) = H^(2)_n(2z | -1): the order-2 one-variable member at a
    # rescaled argument and gamma = -1.
    reduced = gould_hopper_1d(n, 2).subst({"z": 2 * Z, "g": -1})
    assert reduced == hermite_classical(n)


def test_ito_frozen_values():
    # [DERIVED] complex Hermite table: H_{1,1} = zw - 1, H_{2,1} = z^2 w - 2z.
    assert ito_hermite(0, 0) == 1
    assert ito_hermite(1, 1) == Z * W - 1
    assert ito_hermite(2, 1).text() == "z^2 w - 2 * z"
    assert ito_hermite(2, 2).text() == "z^2 w^2 - 4 * z w + 2"
    with pytest.raises(ValueError):
        ito_hermite(-1, 0)


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("m", range(9))
def test_ito_reduction(n, m):
    # H_{n,m}(z, w) is the (p, q) = (1, 1) member at gamma = -1.
    assert explicit_poly(1, 1, n, m).subst({"g": -1}) == ito_hermite(n, m)


def test_monomial_reduction_at_gamma_zero():
    # [TRIVIAL] gamma = 0 leaves only the k = 0 term z^n w^m.
    assert explicit_poly(2, 1, 5, 3).subst({"g": 0}) == Z ** 5 * W ** 3


# ---------------------------------------------------------------------
# value at the origin
# ---------------------------------------------------------------------

def test_origin_value_cases():
    # [DERIVED] nonzero only when some k clears both exponents; value n! m! g^k / k!.
    assert origin_value(FamilyParams(1, 1, 2, 1)) == 0
    assert origin_value(FamilyParams(2, 1, 4, 2)).text() == "24 * g^2"
    assert origin_value(FamilyParams(0, 1, 0, 3)).text() == "g^3"
    assert origin_value(FamilyParams(1, 2, 3, 6)).text() == "720 * g^3"
    assert origin_value(FamilyParams(1, 1, 0, 0)) == 1
