"""Heat-equation representation tests: exact solutions and invariants."""

import pickle
import random
from fractions import Fraction as F

import pytest

from gouldhopper.exactalg import Poly
from gouldhopper.ghcore import InvalidParamsError, explicit_poly
from gouldhopper import heatrep
from gouldhopper.heatrep import (
    MAX_SOLUTION_TERMS,
    HeatProblem,
    at_time,
    property_suite,
    random_polynomial,
    residual,
    solution_terms,
    solve,
)

Z = Poly.variable("z")
W = Poly.variable("w")
T = Poly.variable("t")


# ---------------------------------------------------------------------
# problem validation
# ---------------------------------------------------------------------

def test_problem_rejects_zero_orders():
    with pytest.raises(InvalidParamsError, match="p \\+ q >= 1"):
        HeatProblem(0, 0, F(1), Z)


def test_problem_rejects_negative_orders():
    with pytest.raises(InvalidParamsError):
        HeatProblem(-1, 2, F(1), Z)


def test_problem_rejects_extra_variables():
    with pytest.raises(InvalidParamsError, match="only use z and w"):
        HeatProblem(1, 1, F(1), Z + T)


def test_problem_rejects_inexact_speed():
    with pytest.raises(TypeError, match="exact scalar expected"):
        HeatProblem(1, 1, 0.5, Z)


def test_problem_normalizes_speed_to_fraction():
    problem = HeatProblem(1, 1, 2, Z)
    assert problem.c == F(2)
    assert isinstance(problem.c, F)


def test_problem_is_an_immutable_value():
    problem = HeatProblem(1, 2, 3, Z * W)
    assert (problem.p, problem.q, problem.c, problem.initial) == (1, 2, F(3), Z * W)
    assert problem == HeatProblem(p=1, q=2, c=F(3), initial=Z * W)
    assert problem == pickle.loads(pickle.dumps(problem))
    assert problem != HeatProblem(1, 2, F(3), Z) and problem != HeatProblem(1, 2, F(-3), Z * W)
    with pytest.raises(AttributeError, match="immutable"):
        problem.c = F(5)
    assert problem.c == 3


def test_solution_terms_bounds_the_solution():
    # z^n w^m evolves into k_max + 1 terms; a zero order leaves its degree unbounded
    datum = 3 * Z ** 2 * W + W ** 3 - 7
    assert solution_terms(1, 1, datum) == 2 + 1 + 1
    assert solution_terms(0, 2, datum) == 1 + 2 + 1
    assert solution_terms(2, 0, datum) == 2 + 1 + 1
    for p, q in ((1, 1), (0, 2), (2, 0), (2, 1)):
        assert len(solve(HeatProblem(p, q, F(1), datum))) <= solution_terms(p, q, datum)
    assert solution_terms(1, 1, Poly.zero()) == 0


def test_problem_refuses_a_solution_past_the_term_bound(monkeypatch):
    datum = (Z + W) ** 4  # 1 + 2 + 3 + 2 + 1 = 9 solution terms at p = q = 1
    assert len(solve(HeatProblem(1, 1, F(1), datum))) == 9
    monkeypatch.setattr(heatrep, "MAX_SOLUTION_TERMS", 8)
    with pytest.raises(ValueError, match="up to 9 terms, more than MAX_SOLUTION_TERMS = 8"):
        HeatProblem(1, 1, F(1), datum)
    # the benchmark's largest datum, 60 terms of degree <= 50, stays far inside the bound
    assert 60 * 51 <= MAX_SOLUTION_TERMS


# ---------------------------------------------------------------------
# frozen solutions
# ---------------------------------------------------------------------

def test_solve_mixed_monomial():
    # [DERIVED] u_t = u_zw with u(0) = z^2 w: z^2 w evolves to z^2 w + 2 t z
    # (one application of Dz Dw gives 2z, higher ones vanish).
    u = solve(HeatProblem(1, 1, F(1), Z ** 2 * W))
    assert u.text() == "z^2 w + 2 * z t"


def test_solve_second_order_in_z():
    # [DERIVED] u_t = Dz^2 u with u(0) = z^3: z^3 + 6 t z.
    u = solve(HeatProblem(2, 0, F(1), Z ** 3))
    assert u.text() == "z^3 + 6 * z t"


def test_solve_uses_speed_factor():
    # speed c scales the time variable: gamma = c t.
    u1 = solve(HeatProblem(1, 1, F(1), Z * W))
    u3 = solve(HeatProblem(1, 1, F(3, 7), Z * W))
    assert u1 == Z * W + T
    assert u3 == Z * W + F(3, 7) * T


def test_solve_constant_initial_datum():
    u = solve(HeatProblem(2, 1, F(5), Poly.const(4)))
    assert u == 4


def test_solution_satisfies_equation_exactly():
    problem = HeatProblem(2, 1, F(-2), Z ** 4 * W ** 2 + 3 * Z * W - 5)
    u = solve(problem)
    assert residual(problem, u).is_zero()


def test_residual_nonzero_for_wrong_candidate():
    problem = HeatProblem(1, 1, F(1), Z ** 2 * W)
    wrong = Z ** 2 * W + T  # the drift term should be 2tz
    r = residual(problem, wrong)
    assert not r.is_zero()
    assert r.text() == "2 * z - 1"


def test_at_time_freezes_solution():
    problem = HeatProblem(1, 1, F(1), Z ** 2 * W)
    u = solve(problem)
    assert at_time(u, 0) == Z ** 2 * W
    assert at_time(u, F(1, 2)) == Z ** 2 * W + Z
    assert "t" not in at_time(u, F(7)).variables()


def test_solution_reduces_to_family_member():
    # z^n w^m evolves into the (p, q) family member with gamma = c t.
    u = solve(HeatProblem(2, 1, F(1), Z ** 4 * W ** 2))
    assert u == explicit_poly(2, 1, 4, 2).subst({"g": T})


# ---------------------------------------------------------------------
# solve and residual against their Poly-operation forms
# ---------------------------------------------------------------------

# (p, q, c): a zero order on either side, c = 0, negative c, and c over a
# denominator other than 1
_CELLS = [
    (1, 1, F(1)), (2, 1, F(3, 7)), (0, 3, F(-5, 2)), (2, 0, F(-3, 7)),
    (1, 2, F(0)), (0, 1, F(0)), (3, 1, F(-9, 4)), (2, 2, F(7, 6)),
]


def _solve_by_subst(problem):
    # the members summed as polynomials in z, w, g, then g -> c t over the sum
    members = Poly.lincomb(
        (F(num, den), explicit_poly(problem.p, problem.q, exps[0], exps[1]))
        for exps, num, den in problem.initial.canonical_terms()
    )
    return members.subst({"g": problem.c * T})


def _residual_by_derivatives(problem, u):
    return problem.c * u.diff("z", problem.p).diff("w", problem.q) - u.diff("t")


def _random_candidate(rng):
    # a polynomial in z, w, t with mixed denominators, almost never a solution
    return Poly.lincomb(
        (F(rng.randint(-9, 9) or 1, rng.randint(1, 12)),
         Poly.monomial({"z": rng.randint(0, 5), "w": rng.randint(0, 5), "t": rng.randint(0, 3)}))
        for _ in range(rng.randint(1, 8))
    )


@pytest.mark.parametrize("p,q,c", _CELLS)
def test_solve_matches_the_member_sum_then_subst(p, q, c):
    rng = random.Random(1000 * p + 10 * q + c.denominator)
    for _ in range(15):
        datum = random_polynomial(rng, max_total_degree=9, max_terms=8)
        problem = HeatProblem(p, q, c, datum)
        assert solve(problem) == _solve_by_subst(problem)


@pytest.mark.parametrize("p,q,c", _CELLS)
def test_residual_matches_the_derivative_form(p, q, c):
    rng = random.Random(1000 * p + 10 * q + c.denominator)
    nonzero = 0
    for _ in range(15):
        problem = HeatProblem(p, q, c, random_polynomial(rng))
        candidate = _random_candidate(rng)
        expected = _residual_by_derivatives(problem, candidate)
        assert residual(problem, candidate) == expected
        nonzero += not expected.is_zero()
    # the candidates are not solutions, so a residual that read 0 would fail
    assert nonzero >= 12


def test_zero_speed_gives_the_datum_back():
    datum = F(3, 2) * Z ** 5 * W ** 2 - F(2, 5) * Z ** 2 * W + 7
    for p, q in ((2, 1), (1, 0), (0, 1)):
        assert solve(HeatProblem(p, q, F(0), datum)) == datum


@pytest.mark.usefixtures("fresh_caches")
@pytest.mark.parametrize("c", [F(1), F(0), F(-2, 3)])
def test_solve_refuses_a_member_term_past_k_max(monkeypatch, c):
    # a member that carries g^(k_max + 1) has no weight to read: it raises,
    # and is never dropped as if c^(k_max + 1) were zero
    def patched(p, q, n, m):
        past = Poly.monomial({"g": heatrep.k_max(p, q, n, m) + 1})
        return explicit_poly(p, q, n, m) + past

    monkeypatch.setattr(heatrep, "explicit_poly", patched)
    with pytest.raises(IndexError):
        solve(HeatProblem(2, 1, c, Z ** 4 * W ** 3))


def test_k_max_is_the_top_power_of_g():
    for p, q, n, m in ((1, 1, 3, 5), (2, 1, 7, 2), (0, 2, 4, 5), (3, 0, 7, 9)):
        member = explicit_poly(p, q, n, m)
        assert max(exps[2] for exps, _, _ in member.canonical_terms()) == heatrep.k_max(p, q, n, m)


# ---------------------------------------------------------------------
# seeded random data
# ---------------------------------------------------------------------

def test_random_polynomial_is_reproducible():
    a = random_polynomial(random.Random(123))
    b = random_polynomial(random.Random(123))
    assert a == b
    assert a.variables() <= {"z", "w"}


def test_random_polynomial_respects_bounds():
    rng = random.Random(5)
    for _ in range(20):
        p = random_polynomial(rng, max_total_degree=4, max_terms=3)
        assert p.total_degree() <= 4
        assert len(p) <= 3 or p.total_degree() >= 0


# ---------------------------------------------------------------------
# property suite
# ---------------------------------------------------------------------

def test_property_suite_small_run_is_clean():
    report = property_suite(seed=7, trials=3)
    assert report["failures"] == []
    # 3 trials * 4 (p,q) pairs * 3 speeds * 5 checks
    assert report["cases"] == 180
    assert report["seed"] == 7
    assert report["trials"] == 3
    assert report["pq_pairs"] == [[1, 1], [2, 1], [1, 2], [2, 2]]
    assert report["c_values"] == ["1", "-1", "3/7"]
    assert report["t_instants"] == ["1/3", "2/5"]


def test_property_suite_is_deterministic():
    assert property_suite(seed=3, trials=2) == property_suite(seed=3, trials=2)


def test_property_suite_custom_cells():
    report = property_suite(seed=1, trials=2, pq_pairs=((3, 1),))
    assert report["failures"] == []
    # 2 trials * 1 (p,q) pair * 3 speeds * 5 checks
    assert report["cases"] == 30
    assert report["pq_pairs"] == [[3, 1]]


def test_semigroup_by_hand():
    # evolving to s and restarting for t equals evolving to s + t directly.
    problem = HeatProblem(1, 1, F(1), Z ** 3 * W ** 2)
    u = solve(problem)
    midway = at_time(u, F(1, 3))
    restarted = solve(HeatProblem(1, 1, F(1), midway))
    assert restarted.subst({"t": F(2, 5)}) == u.subst({"t": F(1, 3) + F(2, 5)})
