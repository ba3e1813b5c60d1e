"""Exact polynomial solutions of the higher-order heat equation.

For the evolution problem

    c * Dz^p Dw^q u(z, w, t) = Dt u(z, w, t),      u(z, w, 0) = f(z, w),

with polynomial initial data f, the solution is again a polynomial in
z, w, t: each monomial z^n w^m evolves into the family member
H^(p,q)_{n,m}(z, w | c t), and the solution is assembled by linearity.
`solve` returns u(z, w, t) as a bare Poly, and `at_time` freezes that
Poly at a rational instant.  Everything stays in exact rational
arithmetic, so the residual of a solution is identically zero as a
polynomial, not merely small.

`solve` and `residual` each make one pass over packed keys (see
:mod:`.exactalg`) and build no intermediate Poly: `solve` maps every
member term x^key g^e straight to its image under g -> c t while it sums,
and `residual` adds each term's two derivative images in place.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .exactalg import MAX_DEGREE, Poly, as_scalar, field_shift, monomial_key
from .ghcore import InvalidParamsError, check_orders, explicit_poly, k_max

_Z_SHIFT, _W_SHIFT, _G_SHIFT, _T_SHIFT = map(field_shift, ("z", "w", "g", "t"))
_T_KEY = monomial_key({"t": 1})
# g and t both have degree 1, so g^e -> t^e moves the key by e times this
_G_TO_T = _T_KEY - monomial_key({"g": 1})

# The most terms a solution may have.  Each datum term z^n w^m evolves
# into k_max + 1 terms, so their sum bounds the solution before any
# arithmetic.  The benchmark's largest datum (60 terms of degree <= 50)
# needs at most 60 * 51 = 3,060.  `heat --p 1 --q 1 --initial '(z+w)^600'`,
# 90,601 terms, runs in 3.5 s and prints 95 MB of JSON; (z+w)^3000 would
# hold 2,253,001 terms and run for minutes.
MAX_SOLUTION_TERMS = 100_000


class HeatProblem:
    """Evolution data: derivative orders p, q, speed c, initial polynomial.

    The initial datum must involve only z and w; p and q pass
    ghcore.check_orders.  An immutable value: problems with equal fields
    are equal.
    """

    def __init__(self, p: int, q: int, c: Fraction, initial: Poly) -> None:
        check_orders(p, q)
        c = as_scalar(c)
        extra = initial.variables() - {"z", "w"}
        if extra:
            raise InvalidParamsError(f"initial datum may only use z and w, found {sorted(extra)}")
        terms = solution_terms(p, q, initial)
        if terms > MAX_SOLUTION_TERMS:
            raise ValueError(f"the solution would have up to {terms} terms, more than "
                             f"MAX_SOLUTION_TERMS = {MAX_SOLUTION_TERMS}")
        vars(self).update(p=p, q=q, c=c, initial=initial)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"HeatProblem is immutable: cannot set {name!r}")

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if type(other) is HeatProblem else NotImplemented


def _orders(key: int) -> tuple[int, int]:
    # the exponents of z and w in a key
    return (key >> _Z_SHIFT) & MAX_DEGREE, (key >> _W_SHIFT) & MAX_DEGREE


def solution_terms(p: int, q: int, initial: Poly) -> int:
    """An upper bound on the terms of the solution, from the datum's exponents.

    z^n w^m evolves into H^(p,q)_{n,m}, which has k_max + 1 terms (p + q >= 1).
    """
    return sum(1 + k_max(p, q, *_orders(key)) for key in initial.packed()[0])


def solve(problem: HeatProblem) -> Poly:
    """Evolve the initial polynomial monomial by monomial into u(z, w, t).

    z^n w^m goes to H^(p,q)_{n,m}(z, w | g) with g replaced by c*t, in one
    pass: every member term x^key g^e goes straight to the key
    key + e (t - g), and c^e = c_num^e / c_den^e becomes the integer
    c_num^e c_den^(top - e) over c_den^top, top the largest k_max of the
    datum.  Every member has integer coefficients, so the sum is kept as
    integer numerators over den * c_den^top, den the datum's denominator.
    A member term past g^top has no weight and raises IndexError.
    """
    p, q = problem.p, problem.q
    num, den = problem.initial.packed()
    members = []
    top = 0
    for key, coeff in num.items():
        n, m = _orders(key)
        top = max(top, k_max(p, q, n, m))
        members.append((explicit_poly(p, q, n, m).packed()[0], coeff))
    c_num, c_den = problem.c.numerator, problem.c.denominator
    weights = [c_num ** e * c_den ** (top - e) for e in range(top + 1)]
    total: dict[int, int] = {}
    get = total.get
    for member, coeff in members:
        for key, value in member.items():
            e = (key >> _G_SHIFT) & MAX_DEGREE
            image = key + e * _G_TO_T
            total[image] = get(image, 0) + coeff * value * weights[e]
    return Poly.from_numerators(total, den * c_den ** top)


def residual(problem: HeatProblem, u: Poly) -> Poly:
    """c * Dz^p Dw^q u - Dt u; identically zero for a true solution.

    One pass over u's terms, over den * c_den (u = num / den, c =
    c_num / c_den): a term with z, w, t exponents a, b, s adds
    c_num * a!/(a-p)! * b!/(b-q)! times its numerator at its key less
    z^p w^q when a >= p and b >= q, and -c_den * s times it at its key
    less t when s >= 1.
    """
    p, q = problem.p, problem.q
    c_num, c_den = problem.c.numerator, problem.c.denominator
    num, den = u.packed()
    drop = monomial_key({"z": p, "w": q})
    perm = math.perm
    out: dict[int, int] = {}
    get = out.get
    for key, coeff in num.items():
        a, b = _orders(key)
        if a >= p and b >= q:
            image = key - drop
            out[image] = get(image, 0) + coeff * c_num * perm(a, p) * perm(b, q)
        s = (key >> _T_SHIFT) & MAX_DEGREE
        if s:
            image = key - _T_KEY
            out[image] = get(image, 0) - coeff * c_den * s
    return Poly.from_numerators(out, den * c_den)


def at_time(u: Poly, instant: Fraction) -> Poly:
    """Freeze the solution u(z, w, t) at a rational time, leaving a polynomial in z, w."""
    return u.subst({"t": as_scalar(instant)})


def random_polynomial(rng: random.Random, max_total_degree: int = 6, max_terms: int = 6) -> Poly:
    """Draw a sparse random polynomial in z, w with small rational coefficients.

    Used by the seeded property suites; depends only on the generator
    state, so a fixed seed reproduces the same polynomial.
    """
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        dz = rng.randint(0, max_total_degree)
        dw = rng.randint(0, max_total_degree - dz)
        num = rng.randint(-9, 9)
        if num == 0:
            num = 1
        terms.append((Fraction(num, rng.randint(1, 9)), Poly.monomial({"z": dz, "w": dw})))
    return Poly.lincomb(terms)


# the speeds c of property_suite's cells, and the two rational instants
# of its semigroup step
_C_VALUES = (Fraction(1), Fraction(-1), Fraction(3, 7))
_T_FIRST = Fraction(1, 3)
_T_SECOND = Fraction(2, 5)


def property_suite(
    seed: int = 0,
    trials: int = 25,
    pq_pairs: tuple[tuple[int, int], ...] = ((1, 1), (2, 1), (1, 2), (2, 2)),
) -> dict:
    """Seeded end-to-end checks of the solver invariants; JSON-ready result.

    Per trial and (p, q, c) cell, c in _C_VALUES: residual vanishes,
    t = 0 recovers the initial datum, solving is linear, and evolving to
    _T_FIRST and then re-solving to _T_SECOND lands on the direct solution
    at _T_FIRST + _T_SECOND.  The semigroup step uses rational instants
    because a restart needs initial data in z and w alone.  The same seed
    always yields the same report.
    """
    rng = random.Random(seed)
    failures: list[str] = []
    cases = 0

    def check(ok: bool, trial: int, p: int, q: int, c: Fraction, name: str) -> None:
        nonlocal cases
        cases += 1
        if not ok:
            failures.append(f"trial={trial} p={p} q={q} c={c}: {name}")

    for trial in range(trials):
        first = random_polynomial(rng)
        second = random_polynomial(rng)
        scale_num = rng.randint(-9, 9) or 1
        scale = Fraction(scale_num, rng.randint(1, 9))
        for p, q in pq_pairs:
            for c in _C_VALUES:
                problem = HeatProblem(p, q, c, first)
                u = solve(problem)
                check(residual(problem, u).is_zero(), trial, p, q, c, "residual")
                check(at_time(u, 0) == first, trial, p, q, c, "initial")
                u_sum = solve(HeatProblem(p, q, c, first + second))
                u_second = solve(HeatProblem(p, q, c, second))
                check(u_sum == u + u_second, trial, p, q, c, "linearity_add")
                u_scaled = solve(HeatProblem(p, q, c, scale * first))
                check(u_scaled == scale * u, trial, p, q, c, "linearity_scale")
                midway = at_time(u, _T_FIRST)
                restarted = solve(HeatProblem(p, q, c, midway))
                two_step = restarted.subst({"t": _T_SECOND})
                direct = u.subst({"t": _T_FIRST + _T_SECOND})
                check(two_step == direct, trial, p, q, c, "semigroup")

    return {
        "seed": seed,
        "trials": trials,
        "pq_pairs": [list(pair) for pair in pq_pairs],
        "c_values": [str(value) for value in _C_VALUES],
        "t_instants": [str(_T_FIRST), str(_T_SECOND)],
        "cases": cases,
        "failures": failures,
    }
