"""The identity catalog: one registry entry and one checker per identity.

Each identity is declared once, by an ``@identity(...)`` entry on the
function that checks it.  The entry holds:

* the tag, the identity's catalog name;
* the kind: "algebraic", "series", "scalar" or "pde"; a series
  identity is truncated at its "order" parameter, which its reports
  carry as ``series_order``;
* the grid axes in loop order, each a (parameter keys, GridRanges
  field) pair: a ``*_max`` field ranges over 0..max, a tuple field over
  its entries (an axis with several keys takes each entry apart), any
  other field is its one value;
* ``needs``, a Python expression over the keys that every admissible
  cell satisfies, or None when every cell is admissible;
* ``correction``, the documented correction of a printed display that
  fails exact verification, which the "corrected" variant applies;
* ``notes``, a remark every report of the identity carries.

The checker is a plain function of the cell's parameters.  Its
signature lists the keys in display and validation order, followed by
``variant`` ("printed" or "corrected") exactly when the entry has a
correction; ``identity()`` refuses, at import, a signature whose keys
are not the axis keys or whose ``variant`` does not match the entry, and
one with ``*args``, ``**kwargs``, keyword-only or positional-only
parameters, whose keys it would misread.

Everything else is derived from the entries: the ``IdentityTag`` enum
(in declaration order), the read-only ``CHECKS`` and ``MISPRINT_LEDGER``
views, the cells of ``audit.cells_for`` (the product of the axes,
filtered by ``needs``) and ``run_check``'s validation, which rejects a
cell outside ``needs``.  To add an identity, write its checker and put
one entry on it.

Every checker returns the two sides (lhs, rhs) of one identity: Polys
for algebraic and differential statements, truncated SeriesUVs, both
at the cell's ``order``, for generating-function statements, and constant
Polys for scalar hypergeometric statements.
``audit.run_cell`` folds each series side back into a Poly carrying u, v,
forms lhs - rhs, and certifies the identity on that parameter cell when
the difference is zero.

Conventions shared by all the displays:

* rising factorial (x)_k = x (x+1) ... (x+k-1);
* binomial coefficients vanish outside 0 <= k <= n;
* the reciprocal factorial of a negative integer is zero, and a family
  member with a negative index is the zero polynomial;
* floor(j/0) = +infinity, so a zero order removes its summation bound.

Sides that several cells, or both variants of one cell, share are
memoized.  Every key is the input the code computed, never what the
identity claims:

* NIELSEN_N / NIELSEN_M / NIELSEN_FULL: one right-hand side for all
  three, on (p, q, the primed variable names, the z and w grouped weight
  tuples sum_i C(n,i) C(n',s-i), the fixed index of an axis the formula
  does not shift); an unshifted axis has the weights (1,).  Each cell
  computes its own weights; cells share an entry only because those
  computed tuples coincide (Vandermonde makes them C(n+n',s)), not
  because the key assumes it.
* GEN_FULL / GEN_POCHHAMMER_G: exp(zu + wv + g u^p v^q) is
  ghcore.generating_series, whose coefficients are built once per (p, q)
  in the memo via_genfun shares; GEN_POCHHAMMER_G's right-hand side,
  which no variant changes, on (p, q, j, k, order).
* GEN_POCHHAMMER_S: the left-hand series, which no variant changes,
  on (p, q, a, b, z, w, g, order).
* CONN_PQ_FROM_GH: the one-variable members, on (n, p, variable); the
  weights are summed exactly per (g-degree, r, s) before one product
  per group, which leaves the difference polynomial unchanged.
* Family members with primed, halved or rescaled arguments, on their
  indices, and the shift powers (z-z')^k, (w-w')^k, on (variable, k).

A cached side is the exact polynomial or series the cell would have
built, and each cell still gets its own lhs - rhs, so a pass is still
an identically zero difference on that cell.  Every cache is bounded at
no less than twice what one `audit --nmax 10 --mmax 10` fills, so the
audit grids never evict.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache, partial
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from ..exactalg import (
    MAX_DEGREE,
    Poly,
    SeriesUV,
    as_scalar,
    field_shift,
    quoted,
    rising_factorial,
    series_exp,
)
from ..ghcore import (
    FamilyParams,
    _comb0,
    apply_w_raise,
    apply_z_raise,
    explicit_poly,
    generating_series,
    gould_hopper_1d,
    hypergeom_form,
    k_max,
    origin_value,
    via_creation,
)

_Z = Poly.variable("z")
_W = Poly.variable("w")
_G = Poly.variable("g")
_ZP = Poly.variable("zp")
_WP = Poly.variable("wp")
_GP = Poly.variable("gp")
_A = Poly.variable("a")
_B = Poly.variable("b")
_C = Poly.variable("c")
_U = Poly.variable("u")
_V = Poly.variable("v")

_fact = math.factorial


Sides = tuple  # (lhs, rhs): two Polys, or two SeriesUVs for a series identity
CheckFn = Callable[..., Sides]
Axis = tuple[tuple[str, ...], str]  # (parameter keys, GridRanges field)


class CheckSpec(NamedTuple):
    """One registry entry, the declaration of one identity (see the module docstring)."""

    keys: tuple[str, ...]
    kind: str
    fn: CheckFn
    axes: tuple[Axis, ...]
    needs: str | None = None
    correction: str | None = None
    notes: str = ""

    def admits(self, params: Mapping) -> bool:
        """Whether the cell satisfies the identity's constraint."""
        return self.needs is None or eval(_compiled(self.needs), _NEEDS_NAMES, params)


# the names a constraint may use besides the parameter keys; the
# expressions are the constant strings of the entries below
_NEEDS_NAMES = {"__builtins__": {}, "max": max}


@lru_cache(maxsize=64)  # at most one constraint per entry, and there are 48
def _compiled(needs: str):
    return compile(needs, "<needs>", "eval")


_PQ: Axis = (("p", "q"), "pq_pairs")
_N: Axis = (("n",), "n_max")
_M: Axis = (("m",), "m_max")
_NP: Axis = (("np",), "aux_max")
_MP: Axis = (("mp",), "aux_max")
_J: Axis = (("j",), "jk_max")
_K: Axis = (("k",), "jk_max")
_ORDER: Axis = (("order",), "series_order")

_ENTRIES: dict[str, CheckSpec] = {}

# inspect.CO_VARARGS | inspect.CO_VARKEYWORDS: the code takes *args or **kwargs
_CO_STARRED = 0x04 | 0x08


def identity(
    tag: str,
    kind: str,
    axes: tuple[Axis, ...] = (_PQ, _N, _M),
    *,
    needs: str | None = None,
    correction: str | None = None,
    notes: str = "",
) -> Callable[[CheckFn], CheckFn]:
    """Declare the decorated checker as the identity `tag` (see the module docstring)."""
    flat = tuple(key for axis_keys, _ in axes for key in axis_keys)
    if kind == "series" and "order" not in flat:
        raise ValueError(f"{tag}: a series identity needs an order key")

    def register(fn: CheckFn) -> CheckFn:
        code = fn.__code__
        # co_varnames[:co_argcount] names the positional parameters: it
        # misses *args, **kwargs and keyword-only ones, and counts
        # positional-only ones, which run_check's keyword call cannot pass
        if code.co_flags & _CO_STARRED or code.co_kwonlyargcount or code.co_posonlyargcount:
            raise ValueError(f"{tag}: the checker may take only parameters that can be passed "
                             "by position or keyword: no *args, **kwargs, keyword-only or "
                             "positional-only parameters")
        names = code.co_varnames[:code.co_argcount]
        keys = names[:-1] if correction else names
        if "variant" in keys or bool(correction) != (names[-1:] == ("variant",)):
            raise ValueError(
                f"{tag}: the checker takes variant last exactly when it has a correction, "
                f"got {names}"
            )
        if sorted(keys) != sorted(flat):
            raise ValueError(f"{tag}: parameters {keys} are not the axis keys {flat}")
        _ENTRIES[tag] = CheckSpec(keys, kind, fn, axes, needs, correction, notes)
        return fn

    return register


def _inv_fact(x: int) -> Fraction:
    # 1/x! with the Gamma-function convention 1/(negative)! = 0.
    return Fraction(1, _fact(x)) if x >= 0 else Fraction(0)


def _gh0(p: int, q: int, n: int, m: int) -> Poly:
    # Family member, with negative indices reading as zero.
    if n < 0 or m < 0:
        return Poly.zero()
    return explicit_poly(p, q, n, m)


@lru_cache(maxsize=8192)
def _gh_primed(names: str, p: int, q: int, n: int, m: int) -> Poly:
    # the member with each variable in `names` replaced by its primed copy
    return explicit_poly(p, q, n, m).subst({v: Poly.variable(v + "p") for v in names})


@lru_cache(maxsize=4096)
def _gh_scaled(zw: Fraction | int, gscale: int, p: int, q: int, n: int, m: int) -> Poly:
    # the member at (zw z, zw w | gscale g)
    return explicit_poly(p, q, n, m).subst({"z": zw * _Z, "w": zw * _W, "g": gscale * _G})


@lru_cache(maxsize=128)
def _gh1(n: int, p: int, var: str) -> Poly:
    # one-variable member H^(p)_n(var | g)
    member = gould_hopper_1d(n, p)
    return member if var == "z" else member.subst({"z": Poly.variable(var)})


def pochhammer_tail(n: int, k: int, var: str = "z") -> Poly:
    """P_k^n = sum_{j=0}^{k-1} (-1)^(k-j) (-n)_(k-j) C(k,j) var^j.

    The finite correction polynomial appearing in the closed form of
    sum_n (n)_k x^n / n!; P_0^n is empty, hence zero.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return Poly.lincomb(
        ((-1) ** (k - j) * rising_factorial(-n, k - j) * _comb0(k, j), Poly.monomial({var: j}))
        for j in range(k)
    )


# ---------------------------------------------------------------------
# basic structure
# ---------------------------------------------------------------------

@identity("SYMMETRY", "algebraic")
def _check_symmetry(p, q, n, m) -> Sides:
    """H^(p,q)_{n,m}(z,w|g) = H^(q,p)_{m,n}(w,z|g)."""
    lhs = explicit_poly(p, q, n, m).subst({"z": _W, "w": _Z})
    return lhs, explicit_poly(q, p, m, n)


@identity("HYPERGEOM", "algebraic", needs="p >= 1 and q >= 1")
def _check_hypergeom(p, q, n, m) -> Sides:
    """The terminating hypergeometric rewriting reproduces the defining sum."""
    return hypergeom_form(FamilyParams(p, q, n, m)), explicit_poly(p, q, n, m)


@identity(
    "HYP_2F0_1F1",
    "scalar",
    (_N, _M, (("z",), "hyp_points")),
    correction="prefactor is (-z)^-(min(n,m)), not z^-(min(n,m))",
)
def _check_hyp_2f0_1f1(n, m, z, variant) -> Sides:
    """2F0(-n,-m;;-1/z) against its 1F1 form, evaluated at rational z.

    Printed prefactor z^-(min); the corrected variant uses (-z)^-(min).
    """
    zval = as_scalar(z)
    if zval == 0:
        raise ValueError("z must be nonzero")
    s, big, d = min(n, m), max(n, m), abs(n - m)
    lhs = Fraction(0)
    for k in range(s + 1):
        lhs += (
            rising_factorial(-n, k)
            * rising_factorial(-m, k)
            * (-1 / zval) ** k
            / _fact(k)
        )
    f11 = Fraction(0)
    for k in range(s + 1):
        f11 += rising_factorial(-s, k) / rising_factorial(d + 1, k) * zval ** k / _fact(k)
    base = zval if variant == "printed" else -zval
    rhs = Fraction(_fact(big), _fact(d)) * base ** (-s) * f11
    return Poly.const(lhs), Poly.const(rhs)


@identity(
    "ORIGIN_VALUE",
    "algebraic",
    correction=(
        "value at the origin is n! m! g^k / k! with k = n/p = m/q, "
        "not n!/(n/p)! g^(n/p)"
    ),
)
def _check_origin_value(p, q, n, m, variant) -> Sides:
    """Closed form of the value at z = w = 0.

    Both variants take the unique k with n = pk and m = qk; the value is
    zero when no such k exists.  Printed: n!/k! g^k, which the display
    states separately as m!/k! g^k for p = 0.  Corrected: n! m! g^k / k!.
    """
    lhs = origin_value(FamilyParams(p, q, n, m))
    k = n // p if p else m // q
    if (p * k, q * k) != (n, m):
        return lhs, Poly.zero()
    if variant == "printed":
        top = _fact(n) if p else _fact(m)
    else:
        top = _fact(n) * _fact(m)
    return lhs, Poly.monomial({"g": k}, Fraction(top, _fact(k)))


@identity("HOMOGENEITY", "algebraic")
def _check_homogeneity(p, q, n, m) -> Sides:
    """a^n b^m H(z,w|g) = H(az, bw | g a^p b^q)."""
    h = explicit_poly(p, q, n, m)
    lhs = Poly.monomial({"a": n, "b": m}) * h
    rhs = h.subst({"z": _A * _Z, "w": _B * _W, "g": _G * Poly.monomial({"a": p, "b": q})})
    return lhs, rhs


@identity(
    "LIMIT",
    "algebraic",
    notes="limit encoded as the t-free part of the t^(p+q)-deformed member",
)
def _check_limit(p, q, n, m) -> Sides:
    """Shrinking the deformation recovers the monomial.

    The scaling limit t -> 0 of t^(n+m) H(z/t, w/t | g) equals, after
    homogeneity, the t-free part of H(z, w | t^(p+q) g); the statement
    certified here is that this part is exactly z^n w^m.
    """
    deformed = explicit_poly(p, q, n, m).subst({"g": _G * Poly.monomial({"t": p + q})})
    lhs = deformed.coefficient("t", 0)
    return lhs, Poly.monomial({"z": n, "w": m})


# ---------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------

@identity(
    "GEN_PARTIAL_U",
    "series",
    (_PQ, (("m",), "aux_max"), _ORDER),
    needs="q >= 1 and order >= p + q",
)
def _check_gen_partial_u(p, q, m, order) -> Sides:
    """sum_n H_{n,m} u^n/n! = H^(q)_m(w | u^p g) exp(zu), at fixed m."""
    lhs = SeriesUV(order, {
        (i, 0): explicit_poly(p, q, i, m) * Fraction(1, _fact(i)) for i in range(order + 1)
    })
    base = gould_hopper_1d(m, q).subst({"z": _W, "g": _G * Poly.monomial({"u": p})})
    rhs = SeriesUV.from_poly(base, order) * series_exp(_Z * _U, order)
    return lhs, rhs


@identity(
    "GEN_PARTIAL_V",
    "series",
    (_PQ, (("n",), "aux_max"), _ORDER),
    needs="p >= 1 and order >= p + q",
)
def _check_gen_partial_v(p, q, n, order) -> Sides:
    """sum_m H_{n,m} v^m/m! = H^(p)_n(z | v^q g) exp(wv), at fixed n."""
    lhs = SeriesUV(order, {
        (0, j): explicit_poly(p, q, n, j) * Fraction(1, _fact(j)) for j in range(order + 1)
    })
    base = gould_hopper_1d(n, p).subst({"g": _G * Poly.monomial({"v": q})})
    rhs = SeriesUV.from_poly(base, order) * series_exp(_W * _V, order)
    return lhs, rhs


@identity("GEN_FULL", "series", (_PQ, _ORDER), needs="order >= p + q")
def _check_gen_full(p, q, order) -> Sides:
    """sum H_{n,m} u^n v^m/(n! m!) = exp(zu + wv + g u^p v^q)."""
    lhs = SeriesUV(order, {
        (i, j): explicit_poly(p, q, i, j) * Fraction(1, _fact(i) * _fact(j))
        for i in range(order + 1) for j in range(order + 1 - i)
    })
    return lhs, generating_series(p, q, order)


@identity(
    "GEN_POCHHAMMER_G",
    "series",
    (_PQ, _J, _K, _ORDER),
    needs="j >= 1 and k >= 1 and order >= p + q",
    correction=(
        "the rising-factorial weights act on the monomial degrees, via the "
        "operators z Dz^j z^(j-1) and w Dw^k w^(k-1), not on the summation indices"
    ),
)
def _check_gen_pochhammer_g(p, q, j, k, order, variant) -> Sides:
    """Rising-factorial weighted generating series, polynomial form.

    Right-hand side as displayed:
        uvzw exp(zu+wv+g u^p v^q) ((uz)^(j-1)+P^j_{j-1}(uz))
                                  ((vw)^(k-1)+P^k_{k-1}(vw)).
    Printed left-hand side weights H_{n,m} by (n)_j (m)_k; the corrected
    variant instead applies the degree-weight operators z Dz^j z^(j-1)
    and w Dw^k w^(k-1) to H_{n,m}, matching the right-hand side exactly.
    Those operators take z^a w^b to (a)_j (b)_k z^a w^b, so each term of
    H_{n,m} is weighted by the rising factorials of its own degrees, read
    off its packed key; (a)_j = perm(a+j-1, j) is 0 at a = 0.
    """
    perm = math.perm
    z_shift, w_shift = field_shift("z"), field_shift("w")
    coeffs = {}
    for n in range(order + 1):
        for m in range(order + 1 - n):
            num, den = explicit_poly(p, q, n, m).packed()
            den *= _fact(n) * _fact(m)
            if variant == "printed":
                weight = perm(n + j - 1, j) * perm(m + k - 1, k)
                weighted = {key: c * weight for key, c in num.items()}
            else:
                weighted = {
                    key: c * perm((key >> z_shift & MAX_DEGREE) + j - 1, j)
                    * perm((key >> w_shift & MAX_DEGREE) + k - 1, k)
                    for key, c in num.items()
                }
            coeffs[(n, m)] = Poly.from_numerators(weighted, den)
    lhs = SeriesUV(order, coeffs)
    rhs = _pochhammer_g_rhs(p, q, j, k, order)
    return lhs, rhs


@lru_cache(maxsize=128)
def _pochhammer_g_rhs(p: int, q: int, j: int, k: int, order: int) -> SeriesUV:
    # GEN_POCHHAMMER_G's right-hand side; no variant changes it
    fac_u = (_U * _Z) ** (j - 1) + pochhammer_tail(j, j - 1).subst({"z": _U * _Z})
    fac_v = (_V * _W) ** (k - 1) + pochhammer_tail(k, k - 1).subst({"z": _V * _W})
    prefactor = _U * _V * _Z * _W * fac_u * fac_v
    return SeriesUV.from_poly(prefactor, order) * generating_series(p, q, order)


@identity(
    "GEN_POCHHAMMER_S",
    "series",
    (_PQ, (("a", "b", "z", "w", "g"), "weighted_points"), (("order",), "weighted_series_order")),
    needs="p >= 1 and q >= 1 and order >= p + q",
    correction="the hypergeometric argument carries u^p v^q, not u v",
)
def _check_gen_pochhammer_s(p, q, a, b, z, w, g, order, variant) -> Sides:
    """Rising-factorial weighted series at rational parameter values.

    sum (a)_n (b)_m H_{n,m}(z0,w0|g0) u^n v^m/(n!m!)
      = (1-u z0)^-a (1-v w0)^-b
        * sum_K prod((a+i-1)/p)_K prod((b+i-1)/q)_K X^K / K!
    with X = p^p q^q g0 * ARG / ((1-u z0)^p (1-v w0)^q); printed ARG is
    u v, the corrected variant carries u^p v^q.  With c_K the K-th
    Pochhammer weight over K!, the K-th term is
    c_K (p^p q^q g0 ARG)^K (1-u z0)^-(a+pK) (1-v w0)^-(b+qK), so each
    coefficient of the right-hand side is a finite sum over K of products
    of binomial-series coefficients.
    """
    a, b, z, w, g = (as_scalar(value) for value in (a, b, z, w, g))
    e, f = (1, 1) if variant == "printed" else (p, q)
    kappa = g * p ** p * q ** q
    coeffs: dict[tuple[int, int], Fraction] = {}
    for kk in range(order // (e + f) + 1):
        weight = kappa ** kk / _fact(kk)
        for r in range(1, p + 1):
            weight *= rising_factorial((a + r - 1) / p, kk)
        for r in range(1, q + 1):
            weight *= rising_factorial((b + r - 1) / q, kk)
        top = order - (e + f) * kk
        # the coefficients (alpha)_i x^i / i! of (1 - x u)^-alpha and (1 - x v)^-alpha
        zs = [rising_factorial(a + p * kk, i) * z ** i / _fact(i) for i in range(top + 1)]
        ws = [rising_factorial(b + q * kk, j) * w ** j / _fact(j) for j in range(top + 1)]
        for i in range(top + 1):
            weighted_z = weight * zs[i]
            for j in range(top + 1 - i):
                key = (e * kk + i, f * kk + j)
                coeffs[key] = coeffs.get(key, 0) + weighted_z * ws[j]
    rhs = SeriesUV(order, {key: Poly.const(value) for key, value in coeffs.items()})
    return _pochhammer_s_lhs(p, q, a, b, z, w, g, order), rhs


@lru_cache(maxsize=32)
def _pochhammer_s_lhs(
    p: int, q: int, a: Fraction, b: Fraction, z: Fraction, w: Fraction, g: Fraction, order: int
) -> SeriesUV:
    # GEN_POCHHAMMER_S's left-hand series at one rational point; no variant changes it
    coeffs = {}
    for n in range(order + 1):
        for m in range(order + 1 - n):
            hval = explicit_poly(p, q, n, m).subst({"z": z, "w": w, "g": g}).as_fraction()
            value = rising_factorial(a, n) * rising_factorial(b, m) * hval / (_fact(n) * _fact(m))
            coeffs[(n, m)] = Poly.const(value)
    return SeriesUV(order, coeffs)


# ---------------------------------------------------------------------
# addition / multiplication behaviour
# ---------------------------------------------------------------------

def _split_sum(n: int, m: int, first: Callable, second: Callable) -> Poly:
    """sum_{k,j} C(n,k) C(m,j) first(k, j) second(n-k, m-j)."""
    return Poly.lincomb(
        (_comb0(n, k) * _comb0(m, j), first(k, j), second(n - k, m - j))
        for k in range(n + 1) for j in range(m + 1)
    )


def _zw_monomial(i: int, j: int) -> Poly:
    return Poly.monomial({"z": i, "w": j})


@identity("RUNGE_GENERAL", "algebraic")
def _check_runge_general(p, q, n, m) -> Sides:
    """H(z+z', w+w' | g+g') as a binomial double sum of primed pairs."""
    lhs = explicit_poly(p, q, n, m).subst({"z": _Z + _ZP, "w": _W + _WP, "g": _G + _GP})
    rhs = _split_sum(n, m, partial(explicit_poly, p, q), partial(_gh_primed, "zwg", p, q))
    return lhs, rhs


@identity("RUNGE_CANCEL", "algebraic")
def _check_runge_cancel(p, q, n, m) -> Sides:
    """Half arguments with opposite deformations collapse to z^n w^m."""
    half = Fraction(1, 2)
    rhs = _split_sum(n, m, partial(_gh_scaled, half, 1, p, q), partial(_gh_scaled, half, -1, p, q))
    return Poly.monomial({"z": n, "w": m}), rhs


@identity("RUNGE_HALF", "algebraic", correction="the split sum carries the prefactor 2^-(n+m)")
def _check_runge_half(p, q, n, m, variant) -> Sides:
    """Equal-argument splitting with deformation 2^(p+q-1) g.

    The printed display omits the prefactor 2^-(n+m) on the sum.
    """
    scaled = partial(_gh_scaled, 1, 2 ** (p + q - 1), p, q)
    total = _split_sum(n, m, scaled, scaled)
    if variant != "printed":
        total = total * Fraction(1, 2 ** (n + m))
    return explicit_poly(p, q, n, m), total


@identity(
    "RUNGE_SCALED",
    "algebraic",
    notes="both sides scaled by 2^(n/2p + m/2q) to clear the irrational scalings",
)
def _check_runge_scaled(p, q, n, m) -> Sides:
    """Two-point splitting at a common deformation, root-cleared form.

    The display carries irrational argument scalings 2^(1/2p), 2^(1/2q);
    multiplying both sides by 2^(n/2p + m/2q) and using homogeneity
    turns it into H(z+z', w+w' | 2g) = sum of binomial-weighted pairs,
    which is the polynomial statement certified here.
    """
    lhs = explicit_poly(p, q, n, m).subst({"z": _Z + _ZP, "w": _W + _WP, "g": 2 * _G})
    rhs = _split_sum(n, m, partial(explicit_poly, p, q), partial(_gh_primed, "zw", p, q))
    return lhs, rhs


def _lowered(p: int, q: int, n: int, m: int, k: int, *factors: Poly) -> tuple:
    # the k-th lowering term n! m! / (k! (n-pk)! (m-qk)!) * factors * H_{n-pk,m-qk}
    weight = Fraction(_fact(n) * _fact(m), _fact(k) * _fact(n - p * k) * _fact(m - q * k))
    return (weight, *factors, explicit_poly(p, q, n - p * k, m - q * k))


@identity("MULT_C", "algebraic")
def _check_mult_c(p, q, n, m) -> Sides:
    """H(z,w|cg) = n!m! sum_k (c-1)^k g^k/k! H_{n-pk,m-qk}/((n-pk)!(m-qk)!)."""
    lhs = explicit_poly(p, q, n, m).subst({"g": _C * _G})
    rhs = Poly.lincomb(
        _lowered(p, q, n, m, k, (_C - 1) ** k, Poly.monomial({"g": k}))
        for k in range(k_max(p, q, n, m) + 1)
    )
    return lhs, rhs


@identity("MULT_ABC", "algebraic")
def _check_mult_abc(p, q, n, m) -> Sides:
    """H(az, bw | cg) expanded over (c - a^p b^q)^k with rescaled members."""
    lhs = explicit_poly(p, q, n, m).subst({"z": _A * _Z, "w": _B * _W, "g": _C * _G})
    shift = _C - Poly.monomial({"a": p, "b": q})
    rhs = Poly.lincomb(
        _lowered(p, q, n, m, k, shift ** k, Poly.monomial({"g": k, "a": n - p * k, "b": m - q * k}))
        for k in range(k_max(p, q, n, m) + 1)
    )
    return lhs, rhs


@identity("MULT_GH", "algebraic", ((("p",), "orders"), _N))
def _check_mult_gh(p, n) -> Sides:
    """One-variable rescaling: H^(p)_n(az|cg) over (c - a^p)^k."""
    lhs = gould_hopper_1d(n, p).subst({"z": _A * _Z, "g": _C * _G})
    shift = _C - Poly.monomial({"a": p})
    rhs = Poly.lincomb(
        (Fraction(_fact(n), _fact(k) * _fact(n - p * k)), shift ** k,
         Poly.monomial({"g": k, "a": n - p * k}), gould_hopper_1d(n - p * k, p))
        for k in range(n // p + 1)
    )
    return lhs, rhs


@identity("ADD_ZW", "algebraic")
def _check_add_zw(p, q, n, m) -> Sides:
    """H(z+z', w+w'|g) = sum C(n,i) C(m,j) z^i w^j H_{n-i,m-j}(z',w'|g)."""
    lhs = explicit_poly(p, q, n, m).subst({"z": _Z + _ZP, "w": _W + _WP})
    rhs = _split_sum(n, m, _zw_monomial, partial(_gh_primed, "zw", p, q))
    return lhs, rhs


@identity(
    "ADD_HALF",
    "algebraic",
    correction=(
        "prefactor is 2^-(n+m), not 2^(n+m), and the rescaled deformation "
        "is 2^(p+q) g, not 2^(p+q-1) g"
    ),
)
def _check_add_half(p, q, n, m, variant) -> Sides:
    """Equal-split shift formula.

    Printed: H(z,w|g) = 2^(n+m) sum C C z^i w^j H_{n-i,m-j}(z,w|2^(p+q-1) g).
    Corrected: prefactor 2^-(n+m) and deformation scale 2^(p+q) g.
    """
    if variant == "printed":
        prefactor = Fraction(2 ** (n + m))
        scale = 2 ** (p + q - 1)
    else:
        prefactor = Fraction(1, 2 ** (n + m))
        scale = 2 ** (p + q)
    total = _split_sum(n, m, _zw_monomial, partial(_gh_scaled, 1, scale, p, q))
    return explicit_poly(p, q, n, m), prefactor * total


# ---------------------------------------------------------------------
# derivatives and inverses
# ---------------------------------------------------------------------

@identity("DERIV_Z", "algebraic")
def _check_deriv_z(p, q, n, m) -> Sides:
    """Dz H_{n,m} = n H_{n-1,m}."""
    return explicit_poly(p, q, n, m).diff("z"), n * _gh0(p, q, n - 1, m)


@identity("DERIV_W", "algebraic")
def _check_deriv_w(p, q, n, m) -> Sides:
    """Dw H_{n,m} = m H_{n,m-1}."""
    return explicit_poly(p, q, n, m).diff("w"), m * _gh0(p, q, n, m - 1)


@identity("DERIV_GAMMA", "algebraic")
def _check_deriv_gamma(p, q, n, m) -> Sides:
    """Dg H_{n,m} = Dz^p Dw^q H_{n,m}; as (Dg - Dz^p Dw^q) H_{n,m} = 0 also PDE_HEAT."""
    h = explicit_poly(p, q, n, m)
    return h.diff("g"), h.diff("z", p).diff("w", q)


@identity("DERIV_JK", "algebraic", (_PQ, _N, _M, _J, _K))
def _check_deriv_jk(p, q, n, m, j, k) -> Sides:
    """Dz^j Dw^k H_{n,m} = n!m!/((n-j)!(m-k)!) H_{n-j,m-k}, zero past the degrees."""
    lhs = explicit_poly(p, q, n, m).diff("z", j).diff("w", k)
    if j <= n and k <= m:
        rhs = (
            Fraction(_fact(n) * _fact(m), _fact(n - j) * _fact(m - k))
            * explicit_poly(p, q, n - j, m - k)
        )
    else:
        rhs = Poly.zero()
    return lhs, rhs


@identity("DERIV_GAMMA_K", "algebraic", (_PQ, _N, _M, _K))
def _check_deriv_gamma_k(p, q, n, m, k) -> Sides:
    """Dg^k H_{n,m} = n!m!/((n-pk)!(m-qk)!) H_{n-pk,m-qk}, zero past the bound."""
    lhs = explicit_poly(p, q, n, m).diff("g", k)
    if k <= k_max(p, q, n, m):
        weight, member = _lowered(p, q, n, m, k)
        rhs = _fact(k) * weight * member
    else:
        rhs = Poly.zero()
    return lhs, rhs


@identity("INVERSE_SUM", "algebraic")
def _check_inverse_sum(p, q, n, m) -> Sides:
    """z^n w^m = n!m! sum_k (-g)^k/k! H_{n-pk,m-qk}/((n-pk)!(m-qk)!)."""
    rhs = Poly.lincomb(
        _lowered(p, q, n, m, k, Poly.monomial({"g": k}, (-1) ** k))
        for k in range(k_max(p, q, n, m) + 1)
    )
    return Poly.monomial({"z": n, "w": m}), rhs


@identity("INVERSE_OP", "algebraic")
def _check_inverse_op(p, q, n, m) -> Sides:
    """z^n w^m = exp(-g Dz^p Dw^q) H_{n,m}; the operator sum truncates."""
    return Poly.monomial({"z": n, "w": m}), _op_exp(p, q, n, m, ((-1, 0, 0),))


# ---------------------------------------------------------------------
# recurrences and operators
# ---------------------------------------------------------------------

@identity("REC_RAISE_N", "algebraic")
def _check_rec_raise_n(p, q, n, m) -> Sides:
    """H_{n+1,m} = z H_{n,m} + g p! q! C(n,p-1) C(m,q) H_{n+1-p,m-q}."""
    c = _fact(p) * _fact(q) * _comb0(n, p - 1) * _comb0(m, q)
    lowered = _gh0(p, q, n + 1 - p, m - q) if c else Poly.zero()
    rhs = Poly.lincomb(((1, _Z, explicit_poly(p, q, n, m)), (c, _G, lowered)))
    return explicit_poly(p, q, n + 1, m), rhs


@identity("REC_RAISE_N_OP", "algebraic")
def _check_rec_raise_n_op(p, q, n, m) -> Sides:
    """H_{n+1,m} = (z + p g Dz^(p-1) Dw^q) H_{n,m}."""
    rhs = apply_z_raise(explicit_poly(p, q, n, m), p, q)
    return explicit_poly(p, q, n + 1, m), rhs


@identity("REC_RAISE_M", "algebraic", correction="lowered second index is m+1-q, not m-1-q")
def _check_rec_raise_m(p, q, n, m, variant) -> Sides:
    """H_{n,m+1} = w H_{n,m} + g p! q! C(n,p) C(m,q-1) H_{n-p,m+1-q}.

    The printed display lowers the second index to m-1-q instead.
    """
    low = m - 1 - q if variant == "printed" else m + 1 - q
    c = _fact(p) * _fact(q) * _comb0(n, p) * _comb0(m, q - 1)
    lowered = _gh0(p, q, n - p, low) if c else Poly.zero()
    rhs = Poly.lincomb(((1, _W, explicit_poly(p, q, n, m)), (c, _G, lowered)))
    return explicit_poly(p, q, n, m + 1), rhs


@identity("REC_RAISE_M_OP", "algebraic")
def _check_rec_raise_m_op(p, q, n, m) -> Sides:
    """H_{n,m+1} = (w + q g Dz^p Dw^(q-1)) H_{n,m}."""
    rhs = apply_w_raise(explicit_poly(p, q, n, m), p, q)
    return explicit_poly(p, q, n, m + 1), rhs


@identity("CREATION", "algebraic")
def _check_creation(p, q, n, m) -> Sides:
    """Iterated raising operator applied to a bare monomial.

    p >= 1: (z + p g Dz^(p-1) Dw^q)^n {w^m} (with Dw^0 = id when q = 0);
    p = 0:  the mirrored (w + q g Dw^(q-1))^m {z^n}.
    """
    if p >= 1:
        acc = Poly.monomial({"w": m})
        for _ in range(n):
            acc = apply_z_raise(acc, p, q)
    else:
        acc = Poly.monomial({"z": n})
        for _ in range(m):
            acc = apply_w_raise(acc, p, q)
    return explicit_poly(p, q, n, m), acc


@identity("CREATION_BOTH", "algebraic")
def _check_creation_both(p, q, n, m) -> Sides:
    """(z + p g Dz^(p-1) Dw^q)^n (w + q g Dz^p Dw^(q-1))^m {1}."""
    return explicit_poly(p, q, n, m), via_creation(FamilyParams(p, q, n, m))


@identity(
    "PARAM_REC",
    "algebraic",
    correction=(
        "inner binomial read as C(k,j) instead of C(j,k); second lowered index "
        "is m-qk, not m-k; and the k-th term carries 1/k!"
    ),
)
def _check_param_rec(p, q, n, m, variant) -> Sides:
    """Order-raising expansion of H^(p+1,q)_{n,m} over the base family.

    Printed: n!m! sum_k sum_{j<=k} C(j,k) g^k (-1)^(k-j)
             H_{n-j-pk, m-k} / ((n-j-pk)! (m-qk)!).
    Corrected: binomial C(k,j), lowered index m-qk, and factor 1/k!.
    """
    lhs = explicit_poly(p + 1, q, n, m)
    terms = []
    for k in range(k_max(p, q, n, m) + 1):
        for j in range(k + 1):
            if variant == "printed":
                binom = _comb0(j, k)
                second = m - k
                kfact = Fraction(1)
            else:
                binom = _comb0(k, j)
                second = m - q * k
                kfact = Fraction(1, _fact(k))
            first = n - j - p * k
            weight = (
                binom * kfact * Fraction((-1) ** (k - j))
                * _inv_fact(first) * _inv_fact(m - q * k)
            )
            if weight == 0 or first < 0 or second < 0:
                continue
            terms.append((_fact(n) * _fact(m) * weight, Poly.monomial({"g": k}),
                          explicit_poly(p, q, first, second)))
    return lhs, Poly.lincomb(terms)


def _op_exp(p: int, q: int, n: int, m: int, op: tuple[tuple[int, int, int], ...]) -> Poly:
    """exp(g OP Dz^p Dw^q) H_{n,m}, where OP is the sum of c Dz^i Dw^j over the terms (c, i, j).

    The k-th term is g^k/k! X^k H_{n,m} with X = OP Dz^p Dw^q, and X^k H_{n,m}
    is X applied to X^(k-1) H_{n,m}; X^k H_{n,m} vanishes past k_max.
    """
    acc = explicit_poly(p, q, n, m)
    terms = []
    for k in range(k_max(p, q, n, m) + 1):
        if k:
            acc = Poly.lincomb((c, acc.diff("z", p + i).diff("w", q + j)) for c, i, j in op)
        terms.append((Fraction(1, _fact(k)), Poly.monomial({"g": k}), acc))
    return Poly.lincomb(terms)


@identity("PARAM_OP_P", "algebraic")
def _check_param_op_p(p, q, n, m) -> Sides:
    """H^(p+1,q)_{n,m} = exp(g (Dz - 1) Dz^p Dw^q) H^(p,q)_{n,m}."""
    return explicit_poly(p + 1, q, n, m), _op_exp(p, q, n, m, ((1, 1, 0), (-1, 0, 0)))


@identity("PARAM_OP_Q", "algebraic")
def _check_param_op_q(p, q, n, m) -> Sides:
    """H^(p,q+1)_{n,m} = exp(g (Dw - 1) Dz^p Dw^q) H^(p,q)_{n,m}."""
    return explicit_poly(p, q + 1, n, m), _op_exp(p, q, n, m, ((1, 0, 1), (-1, 0, 0)))


@identity(
    "PARAM_OP_PQ",
    "algebraic",
    correction="operator exponent is g*(DzDw - 1)*Dz^p Dw^q, not g*(Dz + Dw - 2)*Dz^p Dw^q",
)
def _check_param_op_pq(p, q, n, m, variant) -> Sides:
    """Simultaneous order raising.

    Printed exponent g (Dz + Dw - 2) Dz^p Dw^q; the corrected operator
    is g (Dz Dw - 1) Dz^p Dw^q, the composition of the two single-order
    raisings.
    """
    op = ((1, 1, 0), (1, 0, 1), (-2, 0, 0)) if variant == "printed" else ((1, 1, 1), (-1, 0, 0))
    return explicit_poly(p + 1, q + 1, n, m), _op_exp(p, q, n, m, op)


# ---------------------------------------------------------------------
# expansions around shifted points
# ---------------------------------------------------------------------

def _grouped_binomials(a: int, b: int) -> tuple[int, ...]:
    # sum_i C(a,i) C(b,s-i) for s = 0..a+b: the weight of (shift)^s once the
    # double sum over i and s-i is grouped by s
    return tuple(
        sum(_comb0(a, i) * _comb0(b, s - i) for i in range(s + 1))
        for s in range(a + b + 1)
    )


@lru_cache(maxsize=64)
def _shift_power(var: str, k: int) -> Poly:
    # (var - var')^k for var = z or w
    if k == 0:
        return Poly.one()
    return _shift_power(var, k - 1) * (Poly.variable(var) - Poly.variable(var + "p"))


@lru_cache(maxsize=4096)
def _nielsen_rhs(p: int, q: int, names: str, zweights: tuple, wweights: tuple, fixed: int) -> Poly:
    # sum_{s,t} zweights[s] wweights[t] (z-z')^s (w-w')^t H_{a-s,b-t} at the
    # primed `names`; an axis outside `names` is not shifted, has the weights
    # (1,) and keeps the index `fixed`
    a = len(zweights) - 1 if "z" in names else fixed
    b = len(wweights) - 1 if "w" in names else fixed
    return Poly.lincomb(
        (zc * wc, _shift_power("z", s), _shift_power("w", t), _gh_primed(names, p, q, a - s, b - t))
        for s, zc in enumerate(zweights) for t, wc in enumerate(wweights)
    )


@identity("NIELSEN_N", "algebraic", (_PQ, _N, _M, _NP))
def _check_nielsen_n(p, q, n, np, m) -> Sides:
    """H_{n+n',m}(z,...) = sum C(n,i) C(n',j) (z-z')^(i+j) H_{n+n'-i-j,m}(z',...)."""
    rhs = _nielsen_rhs(p, q, "z", _grouped_binomials(n, np), (1,), m)
    return explicit_poly(p, q, n + np, m), rhs


@identity("NIELSEN_M", "algebraic", (_PQ, _N, _M, _MP))
def _check_nielsen_m(p, q, n, m, mp) -> Sides:
    """H_{n,m+m'}(...,w) = sum C(m,k) C(m',l) (w-w')^(k+l) H_{n,m+m'-k-l}(...,w')."""
    rhs = _nielsen_rhs(p, q, "w", (1,), _grouped_binomials(m, mp), n)
    return explicit_poly(p, q, n, m + mp), rhs


@identity(
    "NIELSEN_FULL",
    "algebraic",
    (_PQ, _N, _M, _NP, _MP),
    notes="(w-w')^-(k+l) in the denominator read as the factor (w-w')^(k+l)",
)
def _check_nielsen_full(p, q, n, np, m, mp) -> Sides:
    """Simultaneous splitting of both indices around (z', w').

    The display writes (w-w')^(k+l) as a reciprocal with negative
    exponent; both readings are the same multiplication, certified here.
    """
    rhs = _nielsen_rhs(p, q, "zw", _grouped_binomials(n, np), _grouped_binomials(m, mp), 0)
    return explicit_poly(p, q, n + np, m + mp), rhs


# ---------------------------------------------------------------------
# connections to other families
# ---------------------------------------------------------------------

def _cross_sum(p: int, q: int, n: int) -> Poly:
    """sum_k C(n,k) H^(p,q)_{n-k,k}(z,w|g)."""
    return Poly.lincomb((_comb0(n, k), explicit_poly(p, q, n - k, k)) for k in range(n + 1))


@identity("CONN_GH_FROM_PQ", "algebraic", (_PQ, _N), needs="p >= max(q, 1)")
def _check_conn_gh_from_pq(p, q, n) -> Sides:
    """H^(p)_n(z|g) = sum_k C(n,k) H^(p-q,q)_{n-k,k}(z-w, w|g); needs p >= max(q,1)."""
    return gould_hopper_1d(n, p), _cross_sum(p - q, q, n).subst({"z": _Z - _W})


@identity("CONN_GH_SUM", "algebraic", (_PQ, _N))
def _check_conn_gh_sum(p, q, n) -> Sides:
    """H^(p+q)_n(z+w|g) = sum_k C(n,k) H^(p,q)_{n-k,k}(z,w|g)."""
    return gould_hopper_1d(n, p + q).subst({"z": _Z + _W}), _cross_sum(p, q, n)


@identity(
    "CONN_ITO",
    "algebraic",
    (_N,),
    notes="difference-argument form: the shifted first argument removes w entirely",
)
def _check_conn_ito(n) -> Sides:
    """The complex-Hermite cross-sum collapses to the order-2 one-variable member.

    sum_k C(n,k) H^(1,1)_{n-k,k}(z-w, w|-1) = H^(2)_n(z|-1); the second
    argument drops out, which is the one-variable expression behind the
    difference-argument display.
    """
    lhs = gould_hopper_1d(n, 2).subst({"g": -1})
    return lhs, _cross_sum(1, 1, n).subst({"z": _Z - _W, "g": -1})


@identity(
    "CONN_PQ_FROM_GH",
    "algebraic",
    needs="p >= 1 and q >= 1",
    correction=(
        "inner factorials pair across the two sums: l! i! (k-i)! (j-l)!, "
        "not l! i! (k-l)! (j-i)!"
    ),
)
def _check_conn_pq_from_gh(p, q, n, m, variant) -> Sides:
    """Two-variable member as a quadruple sum of one-variable pairs.

    Printed inner factorials l! i! (k-l)! (j-i)!; the corrected pairing
    is l! i! (k-i)! (j-l)!.  Reciprocal factorials of negative integers
    vanish.
    """
    printed = variant == "printed"
    # sum the weights exactly per (g-degree, z index, w index), so each
    # distinct product of one-variable members is formed once
    groups: dict[tuple[int, int, int], Fraction] = {}
    for k in range(n // p + 1):
        for j in range(m // q + 1):
            for l in range((n - p * k) // p + 1):
                for i in range((m - q * j) // q + 1):
                    a, b = (k - l, j - i) if printed else (k - i, j - l)
                    if a < 0 or b < 0:
                        continue  # 1/(negative)! = 0
                    r, s = n - p * (l + k), m - q * (i + j)
                    den = (
                        2 ** (l + i) * _fact(l) * _fact(i) * _fact(a) * _fact(b)
                        * _fact(r) * _fact(s)
                    )
                    key = (k + j, r, s)
                    groups[key] = groups.get(key, 0) + Fraction((-1) ** (k + j + l + i), den)
    rhs = Poly.lincomb(
        (_fact(n) * _fact(m) * weight, Poly.monomial({"g": gdeg}), _gh1(r, p, "z"), _gh1(s, q, "w"))
        for (gdeg, r, s), weight in groups.items()
    )
    return explicit_poly(p, q, n, m), rhs


# ---------------------------------------------------------------------
# differential equations
# ---------------------------------------------------------------------

# the deformation flow equation is DERIV_GAMMA read as a PDE
identity("PDE_HEAT", "pde")(_check_deriv_gamma)


@identity(
    "PDE_EIGEN_N",
    "pde",
    correction="the deformation term carries the factor p: z Dz + p g Dz^p Dw^q",
)
def _check_pde_eigen_n(p, q, n, m, variant) -> Sides:
    """Eigenrelation in n: (z Dz + g Dz^p Dw^q) H_{n,m} = n H_{n,m}.

    The printed operator omits the factor p on the deformation term;
    the corrected operator is z Dz + p g Dz^p Dw^q (the composition of
    the raising operator with Dz).  They agree exactly when p = 1.
    """
    h = explicit_poly(p, q, n, m)
    factor = 1 if variant == "printed" else p
    lhs = _Z * h.diff("z") + factor * _G * h.diff("z", p).diff("w", q)
    return lhs, n * h


@identity(
    "PDE_EIGEN_M",
    "pde",
    correction="the deformation term carries the factor q: w Dw + q g Dz^p Dw^q",
)
def _check_pde_eigen_m(p, q, n, m, variant) -> Sides:
    """Eigenrelation in m: (w Dw + g Dz^p Dw^q) H_{n,m} = m H_{n,m}.

    Corrected operator w Dw + q g Dz^p Dw^q; printed omits the factor q.
    """
    h = explicit_poly(p, q, n, m)
    factor = 1 if variant == "printed" else q
    lhs = _W * h.diff("w") + factor * _G * h.diff("z", p).diff("w", q)
    return lhs, m * h


@identity(
    "PDE_PRODUCT",
    "pde",
    needs="p >= 1 and q >= 1",
    correction=(
        "the raising factors carry p and q: "
        "(z + p g Dz^(p-1) Dw^q)(w + q g Dz^p Dw^(q-1)) Dz Dw"
    ),
)
def _check_pde_product(p, q, n, m, variant) -> Sides:
    """Product eigenrelation, eigenvalue nm; needs p, q >= 1.

    Printed: (z + g Dz^(p-1) Dw^q)(w + g Dz^p Dw^(q-1)) Dz Dw H = nm H;
    the corrected raising factors carry p and q on their g terms.
    """
    pfac = 1 if variant == "printed" else p
    qfac = 1 if variant == "printed" else q
    h = explicit_poly(p, q, n, m)
    d = h.diff("z").diff("w")
    inner = _W * d + qfac * _G * d.diff("z", p).diff("w", q - 1)
    outer = _Z * inner + pfac * _G * inner.diff("z", p - 1).diff("w", q)
    return outer, n * m * h


# ---------------------------------------------------------------------
# views derived from the entries
# ---------------------------------------------------------------------

# module and qualname let worker processes pickle reports by reference
IdentityTag = enum.Enum(
    "IdentityTag", [(tag, tag) for tag in _ENTRIES], module=__name__, qualname="IdentityTag"
)
IdentityTag.__doc__ = "Names for every certified identity, in declaration order."

CHECKS: Mapping[IdentityTag, CheckSpec] = MappingProxyType(
    {IdentityTag(tag): spec for tag, spec in _ENTRIES.items()}
)

# Tags whose printed form fails exact verification, with the documented
# correction the "corrected" variant applies; every other printed
# statement is the certified one.
MISPRINT_LEDGER: Mapping[IdentityTag, str] = MappingProxyType(
    {tag: spec.correction for tag, spec in CHECKS.items() if spec.correction}
)


def parse_tag(name: str) -> IdentityTag:
    """Look a tag up by (case-insensitive) name."""
    try:
        return IdentityTag[name.strip().upper()]
    except KeyError:
        raise ValueError(f"unknown identity tag: {quoted(name)}") from None


def run_check(tag: IdentityTag, params: Mapping, variant: str) -> Sides:
    """Validate the parameter bundle and return the tag's (lhs, rhs) on it."""
    spec = CHECKS[tag]
    missing = [key for key in spec.keys if key not in params]
    extra = [key for key in params if key not in spec.keys]
    if missing or extra:
        raise ValueError(
            f"{tag.value} expects parameters {spec.keys}; "
            f"missing {missing or 'none'}, unexpected {extra or 'none'}"
        )
    if variant not in ("printed", "corrected"):
        raise ValueError(f"unknown variant {variant!r}")
    if not spec.admits(params):
        raise ValueError(f"{tag.value} needs {spec.needs}")
    if spec.correction:
        return spec.fn(**params, variant=variant)
    return spec.fn(**params)
