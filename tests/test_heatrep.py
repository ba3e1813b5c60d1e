"""Heat-equation representation tests: exact solutions and invariants."""

import random
from fractions import Fraction as F

import pytest

from gouldhopper.exactalg import Poly
from gouldhopper.ghcore import InvalidParamsError
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
    from gouldhopper.ghcore import explicit_poly

    u = solve(HeatProblem(2, 1, F(1), Z ** 4 * W ** 2))
    assert u == explicit_poly(2, 1, 4, 2).subst({"g": T})


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
