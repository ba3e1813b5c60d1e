"""Constructions of the two-variable Gould-Hopper family H^(p,q)_{n,m}.

The family is defined by the terminating double-factorial sum

    H^(p,q)_{n,m}(z, w | g)
        = n! m! * sum_k  g^k/k! * z^(n-pk)/(n-pk)! * w^(m-qk)/(m-qk)!

where k runs from 0 to floor(n/p) ^ floor(m/q); a zero order (p = 0 or
q = 0) simply removes its bound, and p = q = 0 is rejected.  `explicit`
evaluates this sum term by term and is the ground truth against which
everything else in the package is certified.

The other constructors are deliberately independent routes to the same
polynomial:

* `operational`   - expand exp(g * Dz^p Dw^q) applied to z^n w^m;
* `via_creation`  - iterate the raising operators z + p g Dz^(p-1) Dw^q
                    and w + q g Dz^p Dw^(q-1);
* `via_recurrence`- fill, from the two-term raising recurrences and
                    H_{0,0} = 1, only the table entries H_{n,m} reads;
* `via_genfun`    - read n! m! times the u^n v^m coefficient off the
                    generating series exp(zu + wv + g u^p v^q), built only
                    over the box i <= n, j <= m;
* `hypergeom_form`- the terminating hypergeometric rewriting (p, q >= 1).

The three table-building routes keep their work in one store per (p, q)
that grows with the requests and is never rebuilt: the recurrence table,
the creation chains and the generating-series coefficients, which hold
the union of the boxes (and of `generating_series`' triangles) requested,
with no rule that widens one.  A later request reads what an earlier one
built and builds only what is missing.  No store is read by another route.

`check_orders` states once which derivative orders (p, q) the package
accepts; FamilyParams, heatrep's HeatProblem and the audit's GridRanges
call it.

Agreeing exactly across all routes is part of the package's test gate,
so none of them shares code with `explicit` beyond the base ring.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exactalg import (
    Poly,
    SeriesUV,
    check_degree,
    monomial_key,
    rising_factorial,
    series_exp,
)


class InvalidParamsError(ValueError):
    """Family parameters outside the admissible range (e.g. p = q = 0)."""


class UnsupportedRepresentationError(ValueError):
    """A representation that requires p >= 1 and q >= 1 was asked for p*q = 0."""


class FamilyParams:
    """Index bundle (p, q, n, m) for one member of the family.

    p, q are the derivative orders carried by the deformation term and
    n, m the polynomial degrees in z and w.  All four are nonnegative
    integers, and p, q pass :func:`check_orders`.  An immutable value:
    equal indices make equal, equally hashed bundles.
    """

    def __init__(self, p: int, q: int, n: int, m: int) -> None:
        check_orders(p, q)
        check_counts(n=n, m=m)
        vars(self).update(p=p, q=q, n=n, m=m)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"FamilyParams is immutable: cannot set {name!r}")

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if type(other) is FamilyParams else NotImplemented

    def __hash__(self) -> int:
        return hash((self.p, self.q, self.n, self.m))

    @property
    def k_max(self) -> int:
        """The top power of g in this member, :func:`k_max`."""
        return k_max(self.p, self.q, self.n, self.m)


def check_counts(**values: object) -> None:
    """Refuse, with InvalidParamsError naming it, any of `values` that is not
    a nonnegative int.  The type must be int itself: a bool is an int to
    Python, but never an index or an order."""
    for name, value in values.items():
        if type(value) is not int or value < 0:
            raise InvalidParamsError(f"{name} must be a nonnegative integer, got {value!r}")


def check_orders(p: int, q: int) -> None:
    """Refuse, with InvalidParamsError, derivative orders outside the family.

    p and q are nonnegative integers, not both zero, and p + q is at most
    the kernel's MAX_DEGREE, the degree of the monomial g u^p v^q.
    """
    check_counts(p=p, q=q)
    if p == 0 and q == 0:
        raise InvalidParamsError("p and q cannot both be zero: need p + q >= 1")
    try:
        check_degree(p + q)
    except ValueError as exc:
        raise InvalidParamsError(str(exc)) from None


def k_max(p: int, q: int, n: int, m: int) -> int:
    """The top power of g in H^(p,q)_{n,m}: min(n // p, m // q) over the nonzero orders."""
    return min(n // p, m // q) if p and q else n // p if p else m // q


_Z = Poly.variable("z")
_W = Poly.variable("w")
_G = Poly.variable("g")


# The cache bounds here hold at least twice what one `audit --nmax 10
# --mmax 10` fills; the stores further down are held one per (p, q).
# The benchmark's `requests` workload runs passes of 200 requests, each
# pass in a fresh process.  In one pass (seeds 1001, 2001 and 3001)
# explicit_poly takes 2,493-2,520 misses against 525-553 hits and is never
# full, so no bound here moves that workload.
@lru_cache(maxsize=8192)
def explicit_poly(p: int, q: int, n: int, m: int) -> Poly:
    """The defining sum as a bare Poly in z, w, g (cached).

    Every coefficient n!/(n-pk)! * m!/(m-qk)! / k! is a positive integer:
    with p >= 1 it is C(n, pk) * (pk)!/k! * m!/(m-qk)!, a product of
    integers since pk >= k, and with p = 0 the same holds with the roles
    of (n, p) and (m, q) swapped.  So the sum is built as one dict of
    integer numerators over the denominator 1, keyed by packed monomials:
    the k-th key is the (k-1)-th minus the one step z^p w^q / g, and
    c_(k+1) = c_k (n-pk)!/(n-pk-p)! (m-qk)!/(m-qk-q)! / (k+1) exactly.
    """
    params = FamilyParams(p, q, n, m)
    perm = math.perm
    # the leading key has the top degree, so packing it checks MAX_DEGREE
    key = monomial_key({"z": n, "w": m})
    step = monomial_key({"z": p, "w": q}) - monomial_key({"g": 1})
    num = {}
    coeff = 1
    for k in range(params.k_max + 1):
        num[key] = coeff
        key -= step
        coeff = coeff * perm(n - p * k, p) * perm(m - q * k, q) // (k + 1)
    return Poly(num)


def explicit(params: FamilyParams) -> Poly:
    """Evaluate the defining double-factorial sum directly."""
    return explicit_poly(params.p, params.q, params.n, params.m)


def gould_hopper_1d(n: int, p: int) -> Poly:
    """One-variable relative H^(p)_n(z | g) = n! sum_k g^k/k! z^(n-pk)/(n-pk)!."""
    if p < 1:
        raise InvalidParamsError("the one-variable family needs p >= 1")
    if n < 0:
        raise InvalidParamsError("n must be >= 0")
    fact = math.factorial
    return Poly.lincomb(
        (Fraction(fact(n), fact(k) * fact(n - p * k)), Poly.monomial({"z": n - p * k, "g": k}))
        for k in range(n // p + 1)
    )


def operational(params: FamilyParams) -> Poly:
    """Apply the exponential operator exp(g Dz^p Dw^q) to z^n w^m.

    On a polynomial the exponential truncates by itself: the k-th term
    differentiates pk times in z and qk times in w, which eventually
    kills the monomial.
    """
    p, q, n, m = params.p, params.q, params.n, params.m
    base = Poly.monomial({"z": n, "w": m})
    terms = []
    k = 0
    while True:
        term = base.diff("z", p * k).diff("w", q * k)
        if term.is_zero():
            return Poly.lincomb(terms)
        terms.append((Fraction(1, math.factorial(k)), term, Poly.monomial({"g": k})))
        k += 1


def apply_z_raise(poly: Poly, p: int, q: int) -> Poly:
    """Apply the raising operator z + p g Dz^(p-1) Dw^q (just z when p = 0)."""
    if p < 1:
        return _Z * poly
    return Poly.lincomb(((1, _Z, poly), (p, _G, poly.diff("z", p - 1).diff("w", q))))


def apply_w_raise(poly: Poly, p: int, q: int) -> Poly:
    """Apply the raising operator w + q g Dz^p Dw^(q-1) (just w when q = 0)."""
    if q < 1:
        return _W * poly
    return Poly.lincomb(((1, _W, poly), (q, _G, poly.diff("z", p).diff("w", q - 1))))


@lru_cache(maxsize=64)
def _creation_chain(p: int, q: int) -> tuple[list[Poly], dict[int, list[Poly]]]:
    # the w-chain [W^j{1}] and, per column j, the z-chain [Z^i H_{0,j}]
    return [Poly.one()], {}


def via_creation(params: FamilyParams) -> Poly:
    """Iterate the two raising operators on the constant 1.

    The w-operator is applied m times first, then the z-operator n
    times: (z + p g Dz^(p-1) Dw^q)^n (w + q g Dz^p Dw^(q-1))^m {1}.
    Both chains are kept per (p, q): the w-chain H_{0,j} = W^j{1} and,
    per column j, the z-chain H_{i,j} = Z^i H_{0,j}.  A request starts
    from the longest stored prefix of each, in the same operator order.
    """
    p, q, n, m = params.p, params.q, params.n, params.m
    wchain, zchains = _creation_chain(p, q)
    while len(wchain) <= m:
        wchain.append(apply_w_raise(wchain[-1], p, q))
    zchain = zchains.setdefault(m, [wchain[m]])
    while len(zchain) <= n:
        zchain.append(apply_z_raise(zchain[-1], p, q))
    return zchain[n]


def _comb0(n: int, k: int) -> int:
    # Binomial coefficient that is zero outside 0 <= k <= n.
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


@lru_cache(maxsize=64)
def _recurrence_table(p: int, q: int) -> dict[tuple[int, int], Poly]:
    # the entries H_{i,j} filled so far for (p, q)
    return {(0, 0): Poly.one()}


def via_recurrence(params: FamilyParams) -> Poly:
    """Fill, from the two raising recurrences, only the entries H_{n,m} reads.

    H_{i+1,j} = z H_{i,j} + g p! q! C(i,p-1) C(j,q)   H_{i+1-p,j-q}
    H_{i,j+1} = w H_{i,j} + g p! q! C(i,p)   C(j,q-1) H_{i-p,j+1-q}

    The second fills the w-chain H_{0,j}, j <= m, from H_{0,0} = 1.  The
    first then fills column m - tq up to row n - tp, from the lowest
    column to column m: an entry of column j reads only its own column
    and, through a weight that is zero unless p >= 1, column j - q.  A
    zero weight reads nothing, and a negative index reads zero (that
    member is off the table); any other read finds an entry already
    filled, or is a KeyError, never a silent zero.

    The table is kept per (p, q) and grows with the requests: the fill
    order is the same, and an entry already in the table is not refilled.
    """
    p, q, n, m = params.p, params.q, params.n, params.m
    pq_fact = math.factorial(p) * math.factorial(q)
    table = _recurrence_table(p, q)

    def raised(var: Poly, below: tuple[int, int], c: int, other: tuple[int, int]) -> Poly:
        parts = [(1, var, table[below])]
        if c and min(other) >= 0:
            parts.append((c, _G, table[other]))
        return Poly.lincomb(parts)

    for j in range(m):
        if (0, j + 1) not in table:
            c = pq_fact * _comb0(0, p) * _comb0(j, q - 1)
            table[(0, j + 1)] = raised(_W, (0, j), c, (0 - p, j + 1 - q))
    # with p = 0 or q = 0 no weight leaves column m
    last = min(n // p, m // q) if p and q else 0
    for t in range(last, -1, -1):
        j = m - t * q
        for i in range(n - t * p):
            if (i + 1, j) not in table:
                c = pq_fact * _comb0(i, p - 1) * _comb0(j, q)
                table[(i + 1, j)] = raised(_Z, (i, j), c, (i + 1 - p, j - q))
    return table[(n, m)]


def _generating_arg(p: int, q: int) -> Poly:
    # zu + wv + g u^p v^q
    return _Z * Poly.variable("u") + _W * Poly.variable("v") + _G * Poly.monomial({"u": p, "v": q})


def generating_series(p: int, q: int, order: int) -> SeriesUV:
    """exp(zu + wv + g u^p v^q) to total u,v-order `order`, built in via_genfun's memo."""
    return series_exp(_generating_arg(p, q), order, held=_genfun_coefficients(p, q))


@lru_cache(maxsize=64)
def _genfun_coefficients(p: int, q: int) -> dict[tuple[int, int], Poly]:
    # the coefficients [u^i v^j] of the generating series built so far for
    # (p, q), zeros included: the union of the boxes and triangles requested
    return {(0, 0): Poly.one()}


def via_genfun(params: FamilyParams) -> Poly:
    """Extract n! m! [u^n v^m] exp(zu + wv + g u^p v^q).

    The exp recurrence builds [u^n v^m] from [u^i v^j] with i <= n and
    j <= m alone, so only the box (n, m) is built.  Its coefficients are
    kept per (p, q) in one memo, shared with generating_series, which
    holds the union of the boxes requested so far; a request adds only the
    cells of its box the memo lacks, and nothing is widened or rebuilt.
    """
    p, q, n, m = params.p, params.q, params.n, params.m
    # the order n + m bounds nothing inside the box
    series = series_exp(_generating_arg(p, q), n + m, box=(n, m),
                        held=_genfun_coefficients(p, q))
    scale = math.factorial(n) * math.factorial(m)
    return series.coeff(n, m) * Fraction(scale)


def origin_value(params: FamilyParams) -> Poly:
    """The value at z = w = 0, a polynomial in g alone.

    Nonzero exactly when some k wipes out both monomial factors, i.e.
    p | n, q | m with equal quotients (interpreting a zero order as
    constraining its degree to 0); the value is then n! m! g^k / k!.
    """
    p, q, n, m = params.p, params.q, params.n, params.m
    return explicit_poly(p, q, n, m).subst({"z": 0, "w": 0})


def hypergeom_form(params: FamilyParams) -> Poly:
    """Terminating hypergeometric rewriting; needs p >= 1 and q >= 1.

    z^n w^m * pFq-style sum with parameter blocks (j-1-n)/p for
    j = 1..p and (j-1-m)/q for j = 1..q, and argument
    (-p)^p (-q)^q g / (z^p w^q).  The sum terminates, every term is a
    genuine monomial (exponents n-pk, m-qk), so the result is again a
    polynomial.
    """
    p, q, n, m = params.p, params.q, params.n, params.m
    if p < 1 or q < 1:
        raise UnsupportedRepresentationError("hypergeometric form needs p >= 1 and q >= 1")
    arg_scale = Fraction((-p) ** p * (-q) ** q)
    terms = []
    for k in range(params.k_max + 1):
        coeff = Fraction(1, math.factorial(k)) * arg_scale ** k
        for j in range(1, p + 1):
            coeff *= rising_factorial(Fraction(j - 1 - n, p), k)
        for j in range(1, q + 1):
            coeff *= rising_factorial(Fraction(j - 1 - m, q), k)
        terms.append((coeff, Poly.monomial({"z": n - p * k, "w": m - q * k, "g": k})))
    return Poly.lincomb(terms)


# -- independent classical reference families -------------------------
#
# Used by the test gate to anchor the family to textbook sequences.
# These are computed by their own classical definitions and must not
# call into any of the constructors above.

def hermite_classical(n: int) -> Poly:
    """Physicists' Hermite polynomial H_n via the three-term recurrence.

    H_0 = 1, H_1 = 2z, H_{k+1} = 2z H_k - 2k H_{k-1}; returned in z.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    prev = Poly.one()
    if n == 0:
        return prev
    curr = 2 * _Z
    for k in range(1, n):
        prev, curr = curr, 2 * _Z * curr - 2 * k * prev
    return curr


def ito_hermite(n: int, m: int) -> Poly:
    """Complex (Ito) Hermite polynomial by its direct double-factorial sum.

    H_{n,m}(z, w) = n! m! sum_j (-1)^j/j! * z^(n-j)/(n-j)! * w^(m-j)/(m-j)!
    with w standing in for the conjugate variable.
    """
    if n < 0 or m < 0:
        raise ValueError("indices must be >= 0")
    fact = math.factorial
    return Poly.lincomb(
        (Fraction((-1) ** j * fact(n) * fact(m), fact(j) * fact(n - j) * fact(m - j)),
         Poly.monomial({"z": n - j, "w": m - j}))
        for j in range(min(n, m) + 1)
    )


# Strategy registry used by the command-line front end.
# Each entry looks its constructor up when called, so a constructor
# rebound on the module (as a tracer does) is the one that runs.
STRATEGIES = {
    "explicit": lambda params: explicit(params),
    "operational": lambda params: operational(params),
    "creation": lambda params: via_creation(params),
    "recurrence": lambda params: via_recurrence(params),
    "genfun": lambda params: via_genfun(params),
    "hypergeom": lambda params: hypergeom_form(params),
}
