"""Unit and property tests for the exact polynomial/series kernel."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gouldhopper.exactalg import (
    MAX_DEGREE,
    Poly,
    SeriesArgumentError,
    SeriesUV,
    TruncationError,
    VAR_INDEX,
    VAR_NAMES,
    _Sum,
    as_scalar,
    monomial_key,
    rising_factorial,
    series_exp,
)

Z = Poly.variable("z")
W = Poly.variable("w")
G = Poly.variable("g")


# ---------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------

def test_as_scalar_accepts_exact_types():
    assert as_scalar(3) == F(3)
    assert as_scalar(F(2, 5)) == F(2, 5)


def test_as_scalar_rejects_floats():
    with pytest.raises(TypeError, match="exact scalar expected"):
        as_scalar(0.5)


def test_rising_factorial_values():
    # [TRIVIAL] (3)_0 = 1, (3)_2 = 3*4, (1/2)_3 = (1/2)(3/2)(5/2).
    assert rising_factorial(3, 0) == 1
    assert rising_factorial(3, 2) == 12
    assert rising_factorial(F(1, 2), 3) == F(15, 8)
    with pytest.raises(ValueError):
        rising_factorial(1, -1)


@pytest.mark.parametrize("x", [0, 1, 5, -1, -4, -7, 2**70 + 1, F(1, 2), F(-7, 3), F(5), F(-4), F(-3, 2), F(2, 7), F(1, 2**40 + 3)])
def test_rising_factorial_matches_fraction_loop(x):
    # the integer product over x's numerator and denominator agrees with a
    # plain Fraction loop, for int and Fraction x alike
    for k in range(10):
        expected = F(1)
        for i in range(k):
            expected *= F(x) + i
        got = rising_factorial(x, k)
        assert type(got) is F
        assert got == expected, (x, k)


# ---------------------------------------------------------------------
# polynomial construction and inspection
# ---------------------------------------------------------------------

def test_constructors_and_zero():
    assert Poly.zero().is_zero()
    assert Poly.const(0).is_zero()
    assert not Poly.one().is_zero()
    assert Poly.const(7).as_fraction() == 7
    assert Poly.monomial({"z": 2, "w": 1}, 0).is_zero()


def test_unknown_variable_raises_value_error():
    with pytest.raises(ValueError, match="unknown variable 'x'"):
        Poly.variable("x")
    with pytest.raises(ValueError, match="unknown variable"):
        Poly.monomial({"x": 1})
    with pytest.raises(ValueError, match="unknown variable"):
        Z.diff("x")
    with pytest.raises(ValueError, match="unknown variable"):
        Z.subst({"x": 1})
    with pytest.raises(ValueError, match="unknown variable"):
        monomial_key({"x": 1})
    with pytest.raises(ValueError, match="unknown variable"):
        Z.coefficient("x", 0)


def test_an_unknown_variable_is_quoted_short():
    with pytest.raises(ValueError) as info:
        Poly.variable("x" * 5000)
    message = str(info.value)
    assert len(message) < 100
    assert f"unknown variable '{'x' * 40}'" in message


def test_monomial_rejects_negative_exponent():
    with pytest.raises(ValueError, match="negative exponent"):
        Poly.monomial({"z": -1})


def test_degree_and_variables():
    p = Z * Z * W + 2 * G
    assert p.total_degree() == 3
    assert Poly.zero().total_degree() == -1
    assert p.variables() == {"z", "w", "g"}


def test_height_is_the_largest_integer_held():
    assert Poly.zero().height() == 1
    assert (F(-7, 3) * Z + F(5, 2) * W).height() == 15
    assert (F(1, 9) * Z).height() == 9


def test_coefficient_extraction():
    p = Z ** 2 * W + 3 * Z * G + 5
    assert p.coefficient("z", 2) == W
    assert p.coefficient("z", 1) == 3 * G
    assert p.coefficient("z", 0).as_fraction() == 5
    assert p.coefficient("w", 2).is_zero()


def test_as_fraction_rejects_nonconstant():
    with pytest.raises(ValueError, match="not constant"):
        Z.as_fraction()


def test_equality_with_scalars():
    assert Poly.const(3) == 3
    assert Poly.zero() == 0
    assert Z != 1


# ---------------------------------------------------------------------
# arithmetic, calculus, substitution
# ---------------------------------------------------------------------

def test_arithmetic_basics():
    assert (Z + W) - W == Z
    assert (Z + 1) * (Z - 1) == Z ** 2 - 1
    assert (-Z) + Z == 0
    assert 2 * Z == Z + Z
    assert (Z * F(1, 2)) * 2 == Z


def test_power():
    assert Z ** 0 == Poly.one()
    assert (Z + W) ** 2 == Z ** 2 + 2 * Z * W + W ** 2
    with pytest.raises(ValueError):
        Z ** -1


def test_diff():
    p = Z ** 3 * W + 4 * Z
    assert p.diff("z") == 3 * Z ** 2 * W + 4
    assert p.diff("z", 2) == 6 * Z * W
    assert p.diff("z", 5).is_zero()
    assert p.diff("w") == Z ** 3
    assert p.diff("z", 0) == p
    with pytest.raises(ValueError, match="negative derivative order"):
        p.diff("z", -1)


def test_subst_simultaneous_swap():
    p = Z ** 2 + W
    swapped = p.subst({"z": W, "w": Z})
    assert swapped == W ** 2 + Z


def test_subst_scalar_and_poly():
    p = Z ** 2 * W + 2 * Z * G
    assert p.subst({"g": F(1, 2)}) == Z ** 2 * W + Z
    assert p.subst({"z": Z + 1}).subst({"z": 0}) == W + 2 * G
    assert p.subst({}) == p


# ---------------------------------------------------------------------
# canonical rendering and JSON round-trip
# ---------------------------------------------------------------------

def test_text_canonical_forms():
    # [TRIVIAL] graded-lex order, unit coefficients drop the "1 *".
    assert (Z ** 2 * W + 2 * Z * G).text() == "z^2 w + 2 * z g"
    assert (Z * F(1, 2)).text() == "1/2 * z"
    assert (W - Z).text() == "-z + w"
    assert Poly.zero().text() == "0"
    assert Poly.const(F(-3, 4)).text() == "-3/4"


def test_latex_canonical_forms():
    assert (Z ** 2 * W + 2 * Z * G).latex() == "z^{2}w + 2\\gamma z"
    assert (Z * F(1, 2)).latex() == "\\frac{1}{2}z"
    assert Poly.const(F(-3, 4)).latex() == "-\\frac{3}{4}"
    assert Poly.zero().latex() == "0"
    # \gamma must not swallow a following letter
    assert (G * Z).latex() == "\\gamma z"
    assert (G ** 2).latex() == "\\gamma^{2}"


def _from_json_obj(obj):
    # the reader of to_json_obj()'s terms, through the reference kernel
    return _ref_to_poly({
        tuple(term["exps"].get(name, 0) for name in VAR_NAMES):
            F(int(term["num"]), int(term["den"]))
        for term in obj
    })


def test_json_round_trip():
    p = Z ** 2 * W - F(3, 7) * G + 5
    obj = p.to_json_obj()
    assert obj[0] == {"exps": {"z": 2, "w": 1}, "num": "1", "den": "1"}
    assert _from_json_obj(obj) == p
    assert _from_json_obj([]) == 0


# ---------------------------------------------------------------------
# ring axioms as properties
# ---------------------------------------------------------------------

_COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def small_polys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    total = Poly.zero()
    for _ in range(n_terms):
        exps = {
            "z": draw(st.integers(min_value=0, max_value=3)),
            "w": draw(st.integers(min_value=0, max_value=3)),
            "g": draw(st.integers(min_value=0, max_value=2)),
        }
        total = total + Poly.monomial(exps, draw(_COEFFS))
    return total


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Poly.zero() == a
    assert a * Poly.one() == a
    assert a - a == 0


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys())
def test_diff_is_a_derivation(a, b):
    assert (a * b).diff("z") == a.diff("z") * b + a * b.diff("z")
    assert (a + b).diff("w") == a.diff("w") + b.diff("w")


@settings(max_examples=40, deadline=None)
@given(small_polys(), _COEFFS, _COEFFS)
def test_evaluation_is_a_homomorphism(a, x, y):
    bindings = {"z": x, "w": y, "g": F(1, 3)}
    val = a.subst(bindings)
    assert (a * a).subst(bindings) == val * val
    assert (a + a).subst(bindings) == val + val


# ---------------------------------------------------------------------
# differential test against a plain reference kernel
# ---------------------------------------------------------------------
#
# The reference is a dict from exponent tuple (alphabet order) to nonzero
# Fraction: no packing, no shared denominator.  The drawn variables span
# the highest (z) and lowest (v) key fields.

_REF_VARS = ("z", "w", "g", "t", "u", "v")
_MIXED = st.fractions(min_value=-3, max_value=3, max_denominator=12)


def _ref_clean(terms):
    return {e: c for e, c in terms.items() if c}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, F(0)) + sign * c
    return _ref_clean(out)


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, F(0)) + c1 * c2
    return _ref_clean(out)


def _ref_pow(a, k):
    out = {(0,) * len(VAR_NAMES): F(1)}
    for _ in range(k):
        out = _ref_mul(out, a)
    return out


def _ref_diff(a, i, order):
    out = {}
    for e, c in a.items():
        if e[i] >= order:
            factor = 1
            for j in range(order):
                factor *= e[i] - j
            out[e[:i] + (e[i] - order,) + e[i + 1:]] = c * factor
    return out


def _ref_coefficient(a, i, power):
    return {e[:i] + (0,) + e[i + 1:]: c for e, c in a.items() if e[i] == power}


def _ref_subst(a, bindings):
    out = {}
    for e, c in a.items():
        term = {tuple(0 if i in bindings else x for i, x in enumerate(e)): c}
        for i, repl in bindings.items():
            term = _ref_mul(term, _ref_pow(repl, e[i]))
        out = _ref_add(out, term)
    return out


def _ref_series(a, order):
    ui, vi = VAR_INDEX["u"], VAR_INDEX["v"]
    out = {}
    for e, c in a.items():
        if e[ui] + e[vi] <= order:
            stripped = tuple(0 if i in (ui, vi) else x for i, x in enumerate(e))
            out.setdefault((e[ui], e[vi]), {})[stripped] = c
    return out


def _ref_to_poly(terms):
    # the normal form built by hand from packed keys, never from the
    # operations under test: over the lcm of reduced denominators, the
    # numerators share no factor with it
    den = math.lcm(*(c.denominator for c in terms.values()))
    return Poly({monomial_key(dict(zip(VAR_NAMES, e))): c.numerator * (den // c.denominator)
                 for e, c in terms.items()}, den)


def _as_ref(poly):
    """The reference form of a Poly, after checking its normal form."""
    num, den = poly._num, poly._den
    assert den > 0 and math.gcd(den, *num.values()) == 1
    assert 0 not in num.values()
    terms = {exps: F(n, d) for exps, n, d in poly.canonical_terms()}
    # each key is the packing of its exponents, degree field included
    assert sorted(num) == sorted(monomial_key(dict(zip(VAR_NAMES, e))) for e in terms)
    return terms


@st.composite
def ref_polys(draw, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        e = [0] * len(VAR_NAMES)
        for name in _REF_VARS:
            e[VAR_INDEX[name]] = draw(st.integers(min_value=0, max_value=3))
        terms[tuple(e)] = draw(_MIXED)
    return _ref_clean(terms)


@st.composite
def ref_pairs(draw):
    a = draw(ref_polys())
    if draw(st.booleans()):
        # b cancels all of a but a few terms, so sums empty out or shrink
        # and shared denominators must be reduced again
        return a, _ref_add({e: -c for e, c in a.items()}, draw(ref_polys(max_terms=1)))
    return a, draw(ref_polys())


@settings(max_examples=80, deadline=None)
@given(ref_pairs(), _MIXED, st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=4))
def test_kernel_matches_reference(pair, scalar, k, order):
    ra, rb = pair
    a, b = _ref_to_poly(ra), _ref_to_poly(rb)
    assert _as_ref(a) == ra and _as_ref(b) == rb
    assert _as_ref(a + b) == _ref_add(ra, rb)
    assert _as_ref(a - b) == _ref_add(ra, rb, -1)
    assert _as_ref(a * b) == _ref_mul(ra, rb)
    assert _as_ref(a * scalar) == _ref_clean({e: c * scalar for e, c in ra.items()})
    assert _as_ref(a ** k) == _ref_pow(ra, k)
    # graded lex, leading term first, each coefficient reduced on its own
    assert a.canonical_terms() == [
        (e, c.numerator, c.denominator)
        for e, c in sorted(ra.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)]
    for name in _REF_VARS:
        i = VAR_INDEX[name]
        assert _as_ref(a.diff(name, k)) == _ref_diff(ra, i, k)
        assert _as_ref(a.coefficient(name, k)) == _ref_coefficient(ra, i, k)
    z, w, g = VAR_INDEX["z"], VAR_INDEX["w"], VAR_INDEX["g"]
    const = {(0,) * len(VAR_NAMES): scalar} if scalar else {}
    assert _as_ref(a.subst({"z": b, "w": a, "g": scalar})) == _ref_subst(
        ra, {z: rb, w: ra, g: const})
    series = SeriesUV.from_poly(a, order)
    expected = _ref_series(ra, order)
    assert {key: _as_ref(p) for key, p in series.items()} == expected
    assert _as_ref(series.to_poly()) == {
        e: c for e, c in ra.items()
        if e[VAR_INDEX["u"]] + e[VAR_INDEX["v"]] <= order}


_SCALARS = st.integers(min_value=-4, max_value=4) | _MIXED


@st.composite
def lincomb_terms(draw):
    # (scalar, reference factors) pairs: 0-3 factors, int and Fraction
    # scalars (0 among them) over mixed denominators
    terms = [
        (draw(_SCALARS), draw(st.lists(ref_polys(max_terms=3), max_size=3)))
        for _ in range(draw(st.integers(min_value=0, max_value=4)))
    ]
    if terms and draw(st.booleans()):
        # a term that cancels the first one, so the sum may empty out
        scalar, factors = terms[0]
        terms.append((-scalar, factors))
    return terms


@settings(max_examples=80, deadline=None)
@given(lincomb_terms())
def test_lincomb_matches_reference(terms):
    expected = {}
    for scalar, factors in terms:
        product = _ref_clean({(0,) * len(VAR_NAMES): F(scalar)})
        for factor in factors:
            product = _ref_mul(product, factor)
        expected = _ref_add(expected, product)
    # a generator, as callers pass it
    got = Poly.lincomb((scalar, *map(_ref_to_poly, factors)) for scalar, factors in terms)
    assert _as_ref(got) == expected


def test_lincomb_of_nothing_is_zero_and_scalars_are_exact():
    assert Poly.lincomb([]) == Poly.zero() and Poly.lincomb(iter(())) == Poly.zero()
    assert Poly.lincomb([(F(3, 2),), (F(1, 2),)]) == Poly.const(2)
    with pytest.raises(TypeError, match="exact scalar"):
        Poly.lincomb([(0.5, Z)])


@pytest.mark.parametrize("coeff", [1, -1, -3, F(-3, 4), F(5, 7), F(-1, 2**40 + 3)])
@pytest.mark.parametrize("exps", [{}, {"z": 1}, {"w": 2, "g": 1, "v": 3}])
def test_single_term_power_matches_repeated_multiplication(coeff, exps):
    mono = Poly.monomial(exps, coeff)
    product = Poly.one()
    for exponent in range(7):
        power = mono ** exponent
        assert power == product and _as_ref(power) == _as_ref(product)
        product = product * mono


class _Unread(dict):
    # numerators that fail the test if the kernel reads their terms
    def items(self):
        raise AssertionError("terms read before the degree check")


def test_lincomb_and_power_check_the_degree_before_any_arithmetic():
    top = Poly(_Unread(Poly.monomial({"v": MAX_DEGREE}, F(2, 3))._num), 3)
    with pytest.raises(ValueError, match=f"total degree {MAX_DEGREE + 1} exceeds"):
        Poly.lincomb([(1, Z), (2, top, Z)])
    with pytest.raises(ValueError, match=f"MAX_DEGREE = {MAX_DEGREE}"):
        top ** 2
    # a single term raised this far would not finish if it were computed
    with pytest.raises(ValueError, match=f"MAX_DEGREE = {MAX_DEGREE}"):
        (F(2, 3) * Z) ** 10 ** 15


def _subst_by_products(poly, bindings):
    # subst built term by term from Poly products: each term's coefficient
    # times its exponent's worth of each replacement, every exponent read
    # off the original term
    total = Poly.zero()
    for exps, num, den in poly.canonical_terms():
        term = Poly.monomial(
            {name: e for name, e in zip(VAR_NAMES, exps) if name not in bindings}, F(num, den))
        for name, value in bindings.items():
            repl = value if isinstance(value, Poly) else Poly.const(value)
            for _ in range(exps[VAR_INDEX[name]]):
                term = term * repl
        total = total + term
    return total


T = Poly.variable("t")
# replacements of at most one term: a scalar (0 among them), a variable,
# or a rational times a power of one variable
_ONE_TERM = (
    _MIXED
    | st.sampled_from([Z, W, G, T])
    | st.builds(lambda name, e, c: Poly.monomial({name: e}, c),
                st.sampled_from(["z", "w", "g", "t"]), st.integers(0, 3), _MIXED)
)


@settings(max_examples=150, deadline=None)
@given(ref_polys(max_terms=6), st.dictionaries(st.sampled_from(["z", "w", "g", "t"]), _ONE_TERM,
                                                min_size=1, max_size=4))
def test_one_term_subst_matches_products(terms, bindings):
    poly = _ref_to_poly(terms)
    result = poly.subst(bindings)
    assert result == _subst_by_products(poly, bindings)
    _as_ref(result)  # in normal form


def test_one_term_subst_cases():
    p = Z ** 3 * W - F(5, 4) * W ** 2 + Z * G
    # simultaneous: each exponent is read off the original term
    swap = {"z": 2 * W, "w": Z * F(1, 3)}
    assert p.subst(swap) == _subst_by_products(p, swap) == (
        F(8, 3) * W ** 3 * Z - F(5, 36) * Z ** 2 + 2 * W * G)
    # a zero scalar drops every term holding its variable
    assert p.subst({"z": 0}) == -F(5, 4) * W ** 2
    assert p.subst({"z": 0, "w": F(2, 3)}) == F(-5, 9)
    # g -> c t on a polynomial that already holds t: the images collide and add up
    c = F(-5, 6)
    q = G ** 2 * Z + F(7, 2) * T ** 2 * Z - G * T + F(5, 6) * T ** 2 + 3
    expected = (c ** 2 + F(7, 2)) * T ** 2 * Z + (F(5, 6) - c) * T ** 2 + 3
    assert q.subst({"g": c * T}) == _subst_by_products(q, {"g": c * T}) == expected
    assert (G * T - T ** 2).subst({"g": T}).is_zero()


def test_one_term_subst_checks_the_degree_before_any_arithmetic():
    # z^40000 w^3 -> t^80000 w^3: refused while only the keys are read
    top = Poly(_Unread({monomial_key({"z": 40000, "w": 3}): 7}), 2)
    with pytest.raises(ValueError, match="total degree 80003 exceeds the kernel bound"):
        top.subst({"z": Poly.monomial({"t": 2}, F(3, 5))})
    with pytest.raises(ValueError, match=f"MAX_DEGREE = {MAX_DEGREE}"):
        Poly.monomial({"z": 40000}).subst({"z": Poly.monomial({"t": 2}, F(3, 5))})


def test_reduction_and_emptied_polynomials():
    half = Z * F(1, 2)
    assert half + half == Z
    assert _as_ref(half + half) == {(1,) + (0,) * (len(VAR_NAMES) - 1): F(1)}
    assert (half - half).is_zero() and (half - half) == Poly.zero()
    assert (Z * F(2, 3)) * F(3, 2) == Z
    assert (Z ** 2 * F(1, 6) + W * F(1, 4)).diff("z", 2) == F(1, 3)
    assert ((Z + 1) * (Z - 1) - Z ** 2 + 1).is_zero()


def test_degree_bound_raises_before_wrapping():
    assert Poly.monomial({"z": MAX_DEGREE}).total_degree() == MAX_DEGREE
    with pytest.raises(ValueError, match=f"MAX_DEGREE = {MAX_DEGREE}"):
        Poly.monomial({"z": MAX_DEGREE - 3, "v": 4})
    top = Poly.monomial({"v": MAX_DEGREE})
    with pytest.raises(ValueError, match=f"total degree {MAX_DEGREE + 1} exceeds"):
        top * Z
    with pytest.raises(ValueError, match="total degree 131070 exceeds"):
        top ** 2
    with pytest.raises(ValueError, match="exceeds the kernel bound"):
        top.subst({"v": Z * W})
    assert top.subst({"v": Z}) == Poly.monomial({"z": MAX_DEGREE})
    with pytest.raises(ValueError, match="exceeds the kernel bound"):
        SeriesUV(1, {(1, 0): top}).to_poly()


# ---------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------

def test_series_from_poly_and_coeff():
    u, v = Poly.variable("u"), Poly.variable("v")
    s = SeriesUV.from_poly(Z * u + W * v + u * v * G, 2)
    assert s.coeff(1, 0) == Z
    assert s.coeff(0, 1) == W
    assert s.coeff(1, 1) == G
    assert s.coeff(0, 0).is_zero()
    assert s.coeff(2, 0).is_zero()
    with pytest.raises(TruncationError, match="beyond order"):
        s.coeff(2, 1)
    with pytest.raises(ValueError):
        s.coeff(-1, 0)


def test_series_truncation_drops_high_order():
    u = Poly.variable("u")
    s = SeriesUV.from_poly(u ** 3, 2)
    assert s.is_zero()


def test_series_arithmetic():
    u = Poly.variable("u")
    s = SeriesUV.from_poly(u, 4)
    sq = s * s
    assert sq.order == 4
    assert sq.coeff(2, 0) == 1
    assert sq.to_poly() == u ** 2
    # a series multiplies only a series, and sums are taken on the folds
    with pytest.raises(TypeError):
        sq - sq
    with pytest.raises(TypeError):
        s * Z
    with pytest.raises(TypeError):
        2 * s


def test_series_exp_oracle():
    # [DERIVED] exp(zu + wv + g uv): coefficient of u v is z*w + g
    # (from d^2/du dv at 0 of exp evaluated by hand).
    u, v = Poly.variable("u"), Poly.variable("v")
    s = series_exp(Z * u + W * v + G * u * v, 4)
    assert s.coeff(0, 0) == 1
    assert s.coeff(1, 0) == Z
    assert s.coeff(1, 1) == Z * W + G
    assert s.coeff(2, 0) == Z ** 2 * F(1, 2)
    # truncated at total order 3
    s = series_exp(Z * u, 3)
    assert s.order == 3
    assert {key for key, _ in s.items()} == {(0, 0), (1, 0), (2, 0), (3, 0)}
    assert s.coeff(3, 0) == Poly.monomial({"z": 3}, F(1, 6))


def test_series_exp_multiplicativity():
    u, v = Poly.variable("u"), Poly.variable("v")
    a = Z * u
    b = W * v
    lhs = series_exp(a + b, 6)
    rhs = series_exp(a, 6) * series_exp(b, 6)
    assert lhs.order == rhs.order == 6
    assert lhs.to_poly() == rhs.to_poly()


def test_series_exp_requires_zero_constant_term():
    with pytest.raises(SeriesArgumentError, match="zero constant term"):
        series_exp(Poly.one(), 3)


# ---------------------------------------------------------------------
# differential test of the series kernel against power sums
# ---------------------------------------------------------------------
#
# The reference sums arg^k / k! with one SeriesUV product per power, as
# the kernel did before the Euler recurrence, over the folded powers.

def _power_sum_exp(arg):
    acc = Poly.one()
    power = SeriesUV(arg.order, {(0, 0): Poly.one()})
    for k in range(1, arg.order + 1):
        power = power * arg
        if power.is_zero():
            break
        acc = acc + power.to_poly() * F(1, math.factorial(k))
    return acc


@st.composite
def sparse_series_polys(draw):
    """1-4 terms c z^a w^b g^c u^i v^j with i + j >= 1."""
    total = Poly.zero()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=3))
        j = draw(st.integers(min_value=0 if i else 1, max_value=3))
        exps = {"u": i, "v": j, **{name: draw(st.integers(min_value=0, max_value=2))
                                   for name in ("z", "w", "g")}}
        total = total + Poly.monomial(exps, draw(_MIXED.filter(bool)))
    return total


@settings(max_examples=60, deadline=None)
@given(sparse_series_polys(), st.integers(min_value=0, max_value=12))
def test_series_kernel_matches_power_sums(arg, order):
    series = series_exp(arg, order)
    assert series.order == order
    assert series.to_poly() == _power_sum_exp(SeriesUV.from_poly(arg, order))


@settings(max_examples=60, deadline=None)
@given(sparse_series_polys(), st.integers(min_value=0, max_value=10),
       st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
def test_box_series_equal_the_triangle_inside_the_box(arg, order, bu, bv):
    full = series_exp(arg, order)
    boxed = series_exp(arg, order, box=(bu, bv))
    assert (boxed.order, boxed.box) == (order, (bu, bv))
    for i in range(order + 1):
        for j in range(order + 1 - i):
            if i <= bu and j <= bv:
                assert boxed.coeff(i, j) == full.coeff(i, j), (i, j)
            else:
                with pytest.raises(TruncationError, match="outside box"):
                    boxed.coeff(i, j)
    with pytest.raises(TruncationError, match="beyond order"):
        boxed.coeff(0, order + 1)


def test_box_series_extend_held_coefficients():
    u, v = Poly.variable("u"), Poly.variable("v")
    for arg in (Z * u + W * v + G * u * v, Z * u + W * v + G * u ** 2 * v ** 3,
                F(1, 2) * u + F(2, 3) * v ** 2 + Z * u * v, Z * u ** 2):
        held = {}
        small = series_exp(arg, 5, box=(3, 2), held=held)
        assert small == series_exp(arg, 5, box=(3, 2))
        # every cell of the box is held, zeros included
        assert set(held) == {(i, j) for i in range(4) for j in range(3)}
        kept = dict(held)
        wide = series_exp(arg, 9, box=(5, 4), held=held)
        assert wide == series_exp(arg, 9, box=(5, 4))
        # the held coefficients are kept, not recomputed
        assert all(held[key] is poly for key, poly in kept.items())
        assert series_exp(arg, 9, held=held) == series_exp(arg, 9)
        # a box inside what is held builds nothing
        kept = dict(held)
        assert series_exp(arg, 4, box=(2, 2), held=held) == series_exp(arg, 4, box=(2, 2))
        assert held == kept


_ORDER_BOXES = st.tuples(st.integers(min_value=0, max_value=9),
                         st.none() | st.tuples(st.integers(min_value=0, max_value=9),
                                               st.integers(min_value=0, max_value=9)))


@settings(max_examples=60, deadline=None)
@given(sparse_series_polys(), st.lists(_ORDER_BOXES, min_size=1, max_size=5))
def test_held_coefficients_build_only_the_cells_they_lack(arg, calls):
    held = {}
    for order, box in calls:
        kept = dict(held)
        bu, bv = (order, order) if box is None else box
        cells = {(i, j) for i in range(bu + 1) for j in range(bv + 1) if i + j <= order}
        assert series_exp(arg, order, box=box, held=held) == series_exp(arg, order, box=box)
        assert all(held[key] is poly for key, poly in kept.items())
        assert set(held) - set(kept) == cells - set(kept)


def test_box_series_products_stay_in_both_boxes():
    u, v = Poly.variable("u"), Poly.variable("v")
    arg = Z * u + W * v
    product = series_exp(arg, 6, box=(4, 2)) * series_exp(arg, 5, box=(3, 5))
    assert (product.order, product.box) == (5, (3, 2))
    assert product == series_exp(2 * arg, 5, box=(3, 2))


def _product_by_add_product(a, b):
    # SeriesUV.__mul__ with every pair of coefficients through _Sum.add_product
    order = min(a.order, b.order)
    box = min(a.box[0], b.box[0]), min(a.box[1], b.box[1])
    sums = {}
    for (i1, j1), p1 in a.items():
        for (i2, j2), p2 in b.items():
            i, j = i1 + i2, j1 + j2
            if i + j <= order and i <= box[0] and j <= box[1]:
                sums.setdefault((i, j), _Sum()).add_product((p1, p2))
    return SeriesUV(order, {key: total.poly() for key, total in sums.items()}, box)


@pytest.mark.parametrize("boxes", [(None, None), ((4, 2), (3, 5)), ((1, 6), None)])
def test_series_products_by_one_term_coefficients_match_the_general_path(boxes):
    u, v = Poly.variable("u"), Poly.variable("v")
    # one-term coefficients over denominators 1, 4, 7 and 3; a two-term one
    monomials = SeriesUV.from_poly(
        u * v * Z * W + F(3, 4) * u ** 2 * Z ** 2 - F(5, 7) * v * W + F(1, 3) * u * v ** 3 * G, 6)
    general = SeriesUV.from_poly(
        F(2, 5) * u * Z + (Z + F(1, 6) * W) * v + G * u * v + (Z * W - F(7, 9) * G) * u ** 2, 6)
    wide = SeriesUV(6, dict(general.items()), boxes[0])
    for a, b in ((SeriesUV(6, dict(monomials.items()), boxes[1]), wide),
                 (wide, SeriesUV(5, dict(monomials.items()), boxes[1])),
                 (monomials, monomials), (general, general)):
        product = a * b
        assert product == _product_by_add_product(a, b)
        assert not product.is_zero()


def test_series_product_checks_the_degree_before_any_arithmetic():
    big = Poly(_Unread({monomial_key({"z": 40000}): 3}), 2)
    wide = Poly(_Unread({monomial_key({"w": 40000}): 1, monomial_key({"g": 2}): 5}), 7)
    for a, b in ((big, big), (big, wide), (wide, big), (wide, wide)):
        with pytest.raises(ValueError, match="exceeds the kernel bound"):
            SeriesUV(2, {(1, 0): a}) * SeriesUV(2, {(0, 1): b})
    # one-term coefficients whose product is just past the bound
    z_side = SeriesUV(2, {(1, 0): Poly.monomial({"z": 40000})})
    w_side = SeriesUV(2, {(1, 0): Poly.monomial({"w": MAX_DEGREE - 40000 + 1}, F(1, 3))})
    with pytest.raises(ValueError, match=f"total degree {MAX_DEGREE + 1} exceeds"):
        z_side * w_side


def test_series_kernel_degree_bound():
    # the coefficient of u^2 would have degree 2 * 40000 in z: raise, never wrap
    big = Poly.monomial({"z": 40000, "u": 1})
    assert series_exp(big, 1).coeff(1, 0) == Poly.monomial({"z": 40000})
    with pytest.raises(ValueError, match="exceeds the kernel bound"):
        series_exp(big, 2)


def test_series_order_validation():
    with pytest.raises(ValueError, match="order must be >= 0"):
        SeriesUV(-1)
    with pytest.raises(ValueError, match="box bounds must be >= 0"):
        SeriesUV(3, box=(-1, 0))


def test_var_alphabet_is_fixed():
    # The kernel's whole alphabet; everything else must be rejected.
    assert set("zwgt") <= set(VAR_NAMES)
    assert {"zp", "wp", "gp", "a", "b", "c", "u", "v"} <= set(VAR_NAMES)
    assert len(VAR_NAMES) == 12
