"""Exact sparse polynomial and truncated power-series arithmetic.

Everything here is computed exactly over the rationals, so a zero
produced by the algebra is a proved zero, never a rounding accident.

Polynomials live in a fixed, ordered alphabet of ring variables::

    z  w  g  t  zp  wp  gp  a  b  c  u  v

``g`` is the deformation parameter (written gamma in textual interfaces),
``zp``/``wp``/``gp`` are the primed companions of ``z``/``w``/``g``,
``t`` is the evolution variable of the heat module, ``a``/``b``/``c``
are auxiliary scale parameters, and ``u``/``v`` double as the generating
variables of :class:`SeriesUV`.

**Packed monomials.**  A :class:`Poly` keys each term by its exponent
vector packed into one nonnegative int (packed exponent vectors as in
Monagan & Pearce, 2007): one field of ``FIELD_BITS`` bits per alphabet
slot, ``z`` highest, and the total degree in a field above them all::

    | total degree | z | w | g | t | zp | wp | gp | a | b | c | u | v |
      high bits                                              low bits

Multiplying two monomials is one int addition, and dividing out
``var^e`` subtracts ``e * unit[var]`` (a one in the field of ``var`` and
in the degree field).  Comparing keys as ints compares the total degree
first and then the exponents in alphabet order, which is the canonical
graded lexicographic order.  Read descending, it is the order every
serialization (text, LaTeX, JSON, CSV) follows, and what makes the output
of two identical runs byte-for-byte equal.

**Degree bound.**  A field holds ``0 .. MAX_DEGREE`` (``2**16 - 1`` =
65535).  No exponent exceeds its monomial's total degree, so keeping
every total degree within ``MAX_DEGREE`` keeps every field in range, and
adding keys never carries into a neighbouring field.  Building a
monomial, product, power, substitution or series fold whose total degree
would pass the bound raises ``ValueError`` naming ``MAX_DEGREE`` before
the arithmetic is done: the kernel never wraps.

**Shared denominator.**  Coefficients are integer numerators over one
positive denominator per polynomial, kept reduced:
``gcd(den, *numerators) == 1``.  Every family member has integer
coefficients, so ``den`` is almost always 1 and no gcd is taken.  Zero
numerators are never stored, and the zero polynomial has ``den == 1``.
This normal form is unique, so equality compares the dict and the
denominator.  :meth:`Poly.terms` and :meth:`Poly.sorted_terms` hand each
coefficient out as a reduced ``Fraction`` with the unpacked exponent
tuple, so a serialization depends only on the polynomial, never on how
it was computed.

**Series kernel.**  :func:`series_exp` and :func:`series_binomial_neg`
never multiply two series.  With the Euler operator theta = u d/du, the
series E = exp(A) solves theta E = (theta A) E and F = (1 - B)^(-a)
solves (1 - B) theta F = a (theta B) F.  Comparing coefficients gives
each coefficient of u^i v^j from at most as many earlier ones as the
argument has terms (Knuth, TAOCP Vol. 2, section 4.7; Brent & Kung, "Fast
algorithms for manipulating formal power series", J. ACM 25, 1978)::

    i E_ij = sum_kl k A_kl E_(i-k)(j-l)
    i F_ij = sum_kl B_kl (i - k + a k) F_(i-k)(j-l)

with v d/dv in place of u d/du on the row i = 0.  Every argument the
package passes is a short sum of monomials, so each term of such a sum
is an earlier coefficient shifted by one packed key, added in place.

No division, gcd, or factorization of polynomials is provided: the
identity engine built on top only ever needs ring operations,
substitution, formal differentiation, and truncated series in ``u``,
``v``.
"""

from __future__ import annotations

import math
import re
import struct
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

ScalarLike = Union[Fraction, int]

VAR_NAMES: tuple[str, ...] = ("z", "w", "g", "t", "zp", "wp", "gp", "a", "b", "c", "u", "v")
VAR_INDEX: dict[str, int] = {name: i for i, name in enumerate(VAR_NAMES)}

_NVARS = len(VAR_NAMES)

FIELD_BITS = 16
MAX_DEGREE = (1 << FIELD_BITS) - 1
_MASK = MAX_DEGREE
# bit offset of each variable's field; z is highest, the degree sits above
_SHIFT: tuple[int, ...] = tuple(FIELD_BITS * (_NVARS - 1 - i) for i in range(_NVARS))
_DEG_SHIFT = FIELD_BITS * _NVARS
# key of the monomial `var`: its own field and the degree field both 1
_UNIT: tuple[int, ...] = tuple((1 << shift) + (1 << _DEG_SHIFT) for shift in _SHIFT)
# one unsigned 16-bit field per slot, degree first: unpacks a key in one call
_KEY_LAYOUT = struct.Struct(f">{_NVARS + 1}H")
# the series variables' fields, read by SeriesUV
_U_SHIFT, _V_SHIFT = _SHIFT[VAR_INDEX["u"]], _SHIFT[VAR_INDEX["v"]]
_U_UNIT, _V_UNIT = _UNIT[VAR_INDEX["u"]], _UNIT[VAR_INDEX["v"]]

# Presentation order used only by the LaTeX renderer: parameters first,
# then the main variables, so a term prints as "2\gamma z" rather than
# "2z\gamma".  Term sorting is untouched by this.
_LATEX_VAR_ORDER: tuple[str, ...] = ("g", "gp", "t", "a", "b", "c", "z", "w", "zp", "wp", "u", "v")
_LATEX_NAMES: dict[str, str] = {
    "z": "z", "w": "w", "g": "\\gamma", "t": "t",
    "zp": "z'", "wp": "w'", "gp": "\\gamma'",
    "a": "a", "b": "b", "c": "c", "u": "u", "v": "v",
}
_CONTROL_WORD_TAIL = re.compile(r"\\[A-Za-z]+$")


class TruncationError(ValueError):
    """A series coefficient beyond the truncation order was requested."""


class SeriesArgumentError(ValueError):
    """A series argument violates a precondition (nonzero constant term)."""


def as_scalar(value: ScalarLike) -> Fraction:
    """Coerce an int or Fraction to Fraction; reject anything inexact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact scalar expected, got {type(value).__name__}")


def rising_factorial(x: ScalarLike, k: int) -> Fraction:
    """Rising factorial (x)_k = x (x+1) ... (x+k-1), with (x)_0 = 1."""
    if k < 0:
        raise ValueError("rising_factorial needs k >= 0")
    # with x = a/b, (x)_k = prod (a + i b) / b^k: integer products, one Fraction
    xf = as_scalar(x)
    a, b = xf.numerator, xf.denominator
    prod = 1
    for i in range(k):
        prod *= a + i * b
    return Fraction(prod, b ** k)


def _var_index(name: str) -> int:
    try:
        return VAR_INDEX[name]
    except KeyError:
        raise ValueError(f"unknown variable {name!r}") from None


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise ValueError(
            f"total degree {degree} exceeds the kernel bound MAX_DEGREE = {MAX_DEGREE}"
        )


def _pack(exps: Mapping[str, int]) -> int:
    """The packed key of prod(var^e) for a {name: exponent} mapping."""
    key = total = 0
    for name, e in exps.items():
        if e < 0:
            raise ValueError(f"negative exponent for {name}")
        key += e * _UNIT[_var_index(name)]
        total += e
    _check_degree(total)
    return key


def _unpack(key: int) -> tuple[int, ...]:
    """The exponent tuple (alphabet order) of a packed key."""
    return _KEY_LAYOUT.unpack(key.to_bytes(_KEY_LAYOUT.size, "big"))[1:]


def _top_degree(num: Mapping[int, int]) -> int:
    # the largest key leads in graded order, so it carries the top degree
    return max(num) >> _DEG_SHIFT


def _reduced(num: dict[int, int], den: int) -> "Poly":
    """A Poly from nonzero numerators over a positive `den`, reduced."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {k: c // g for k, c in num.items()}
            den //= g
    return Poly(num, den)


def _add(a: "Poly", b: "Poly", sign: int) -> "Poly":
    """a + sign * b."""
    if not b._num:
        return a
    da, db = a._den, b._den
    if da == db:
        den, scale = da, sign
        out = dict(a._num)
    else:
        den = da // math.gcd(da, db) * db
        scale = sign * (den // db)
        up = den // da
        out = {k: c * up for k, c in a._num.items()}
    get = out.get
    for k, c in b._num.items():
        s = get(k, 0) + c * scale
        if s:
            out[k] = s
        else:
            del out[k]
    return _reduced(out, den)


class _Sum:
    """A running sum of polynomials, accumulated in place in one dict.

    The engine behind :meth:`Poly.lincomb` and the kernel's own sums; adding
    to it never copies what it holds, unlike ``total = total + p``.
    Its numerators sit over ``den``, the lcm of the denominators added so
    far; zeros are dropped only once, in :meth:`poly`.
    """

    __slots__ = ("num", "den")

    def __init__(self):
        self.num: dict[int, int] = {}
        self.den = 1

    def _scale_for(self, den: int) -> int:
        # Bring the sum over a common denominator with `den`; return the
        # factor that puts a numerator over `den` onto the sum's one.
        if den != self.den:
            common = math.lcm(self.den, den)
            if common != self.den:
                up = common // self.den
                self.num = {k: c * up for k, c in self.num.items()}
                self.den = common
        return self.den // den

    def add(self, poly: "Poly", shift: int = 0, factor: int = 1) -> None:
        """Add ``factor * x^shift * poly``, `shift` a packed monomial key."""
        scale = self._scale_for(poly._den) * factor
        num = self.num
        get = num.get
        for k, c in poly._num.items():
            k += shift
            num[k] = get(k, 0) + c * scale

    def add_product(self, factors: Sequence["Poly"], num: int = 1, den: int = 1) -> None:
        """Add ``num/den * prod(factors)`` without building the product on its own."""
        if not num or not all(f._num for f in factors):
            return
        _check_degree(sum(_top_degree(f._num) for f in factors))
        for f in factors:
            den *= f._den
        rows = [(0, self._scale_for(den) * num)]
        factors = factors or (Poly.one(),)
        # multiply (key, numerator) rows by each factor, by the last one into the sum
        for i, f in enumerate(factors, 1):
            out = self.num if i == len(factors) else {}  # self.num may be new after _scale_for
            get = out.get
            items = f._num.items()
            for k1, c1 in rows:
                for k2, c2 in items:
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
            rows = out.items()

    def add_term(self, key: int, num: int, den: int = 1) -> None:
        """Add the single term ``num/den * x^key``."""
        scale = self._scale_for(den)
        self.num[key] = self.num.get(key, 0) + num * scale

    def poly(self, den: int = 1) -> "Poly":
        """The sum divided by `den`, as a reduced Poly."""
        return _reduced({k: c for k, c in self.num.items() if c}, self.den * den)


class Poly:
    """Immutable sparse multivariate polynomial with rational coefficients.

    Terms map packed monomial keys (see the module docstring) to nonzero
    integer numerators over one shared positive denominator, reduced so
    that ``gcd(den, *numerators) == 1``.  Instances are never mutated
    after construction; all operations return new polynomials, so
    sharing (and caching) them is safe.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: dict[int, int] | None = None, den: int = 1):
        # Internal: callers pass normalized data (packed keys, no zero
        # numerators, den positive and coprime to the numerators).  The
        # dict is taken over, not copied.
        self._num: dict[int, int] = {} if num is None else num
        self._den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def const(cls, value: ScalarLike) -> "Poly":
        c = as_scalar(value)
        if c == 0:
            return cls()
        return cls({0: c.numerator}, c.denominator)

    @classmethod
    def one(cls) -> "Poly":
        return cls({0: 1})

    @classmethod
    def variable(cls, name: str) -> "Poly":
        """The polynomial consisting of the single variable `name`."""
        return cls({_UNIT[_var_index(name)]: 1})

    @classmethod
    def monomial(cls, exps: Mapping[str, int], coeff: ScalarLike = 1) -> "Poly":
        """Build coeff * prod(var^e) from a {name: exponent} mapping."""
        c = as_scalar(coeff)
        if c == 0:
            return cls()
        return cls({_pack(exps): c.numerator}, c.denominator)

    # -- inspection ---------------------------------------------------

    def terms(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        """(exponent tuple, coefficient) pairs, in no particular order."""
        den = self._den
        return ((_unpack(k), Fraction(c, den)) for k, c in self._num.items())

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in canonical order: graded lex, leading term first."""
        return [(exps, Fraction(n, d)) for exps, n, d in self._canonical_terms()]

    def _canonical_terms(self) -> list[tuple[tuple[int, ...], int, int]]:
        # (exponents, numerator, denominator) in canonical order, each
        # coefficient reduced on its own, as a Fraction would be
        num, den = self._num, self._den
        if den == 1:
            return [(_unpack(k), num[k], 1) for k in sorted(num, reverse=True)]
        out = []
        for k in sorted(num, reverse=True):
            g = math.gcd(num[k], den)
            out.append((_unpack(k), num[k] // g, den // g))
        return out

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __len__(self) -> int:
        return len(self._num)

    def degree(self, name: str) -> int:
        """Largest exponent of `name`; -1 for the zero polynomial."""
        if not self._num:
            return -1
        shift = _SHIFT[_var_index(name)]
        return max((k >> shift) & _MASK for k in self._num)

    def total_degree(self) -> int:
        if not self._num:
            return -1
        return _top_degree(self._num)

    def variables(self) -> set[str]:
        used = 0
        for k in self._num:
            used |= k
        return {name for name, shift in zip(VAR_NAMES, _SHIFT) if (used >> shift) & _MASK}

    def as_fraction(self) -> Fraction:
        """The value of a constant polynomial; raises if any variable is left."""
        if not self._num:
            return Fraction(0)
        if len(self._num) == 1 and 0 in self._num:
            return Fraction(self._num[0], self._den)
        raise ValueError("polynomial is not constant")

    def coefficient(self, name: str, power: int) -> "Poly":
        """The coefficient of name^power, itself a polynomial without `name`."""
        idx = _var_index(name)
        shift = _SHIFT[idx]
        drop = power * _UNIT[idx]
        out = {k - drop: c for k, c in self._num.items() if (k >> shift) & _MASK == power}
        return _reduced(out, self._den)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._den == other._den and self._num == other._num
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Poly | ScalarLike") -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(other)
        return _add(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other: "Poly | ScalarLike") -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(other)
        return _add(self, other, -1)

    def __rsub__(self, other: "Poly | ScalarLike") -> "Poly":
        return (-self) + other

    def __mul__(self, other: "Poly | ScalarLike") -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return Poly()
            n = other.numerator
            return _reduced({k: v * n for k, v in self._num.items()}, self._den * other.denominator)
        big, small = self._num, other._num
        if len(big) < len(small):
            big, small = small, big
        if not small:
            return Poly()
        _check_degree(_top_degree(big) + _top_degree(small))
        # one row per term of the smaller factor; the first row cannot
        # collide with itself, so it is built in one comprehension
        rows = iter(small.items())
        k2, c2 = next(rows)
        out = {k1 + k2: c1 * c2 for k1, c1 in big.items()}
        if len(small) > 1:
            get = out.get
            for k2, c2 in rows:
                for k1, c1 in big.items():
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
            if 0 in out.values():
                out = {k: c for k, c in out.items() if c}
        return _reduced(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        if exponent and self._num:
            _check_degree(exponent * _top_degree(self._num))
        if len(self._num) == 1:
            # c x^key: raising the monomial multiplies its packed key
            ((key, c),) = self._num.items()
            return Poly({key * exponent: c ** exponent}, self._den ** exponent)
        result = Poly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    @classmethod
    def lincomb(cls, terms: Iterable[tuple]) -> "Poly":
        """The sum over `terms`, each ``(scalar, f1, ..., fk)``, of ``scalar * f1 * ... * fk``.

        The scalar is exact and k >= 0.  Each product goes straight into one
        running sum, reduced once; an empty iterable gives zero.
        """
        total = _Sum()
        for scalar, *factors in terms:
            if not isinstance(scalar, (int, Fraction)):
                raise TypeError(f"exact scalar expected, got {type(scalar).__name__}")
            total.add_product(factors, scalar.numerator, scalar.denominator)
        return total.poly()

    # -- calculus and substitution ------------------------------------

    def diff(self, name: str, order: int = 1) -> "Poly":
        """Formal partial derivative d^order / d name^order."""
        if order < 0:
            raise ValueError("negative derivative order")
        if order == 0:
            return self
        idx = _var_index(name)
        shift = _SHIFT[idx]
        drop = order * _UNIT[idx]
        perm = math.perm
        out: dict[int, int] = {}
        for k, c in self._num.items():
            e = (k >> shift) & _MASK
            if e >= order:
                out[k - drop] = c * perm(e, order)
        return _reduced(out, self._den)

    def subst(self, bindings: Mapping[str, "Poly | ScalarLike"]) -> "Poly":
        """Substitute polynomials (or exact scalars) for variables.

        All substitutions happen simultaneously, so swapping two
        variables with ``{"z": w, "w": z}`` behaves as expected.
        """
        if not bindings:
            return self
        fields = []  # (shift, unit, degree of the replacement, its powers)
        for name, value in bindings.items():
            idx = _var_index(name)
            repl = value if isinstance(value, Poly) else Poly.const(value)
            fields.append((_SHIFT[idx], _UNIT[idx], max(repl.total_degree(), 0), [Poly.one(), repl]))
        total = _Sum()
        for key, coeff in self._num.items():
            kept, degree, factors = key, 0, []
            for shift, unit, repl_degree, powers in fields:
                e = (key >> shift) & _MASK
                if e:
                    kept -= e * unit
                    degree += e * repl_degree
                    factors.append((powers, e))
            if not factors:
                total.add_term(kept, coeff)
                continue
            # the term's image has exactly this degree; check it before powering
            _check_degree((kept >> _DEG_SHIFT) + degree)
            acc: Poly | None = None
            for powers, e in factors:
                while len(powers) <= e:
                    powers.append(powers[-1] * powers[1])
                acc = powers[e] if acc is None else acc * powers[e]
            total.add(acc, kept, coeff)
        return total.poly(self._den)

    # -- serialization ------------------------------------------------

    def text(self) -> str:
        """Canonical plain-text form, e.g. ``z^2 w + 2 * g z``.

        Round-trips through the expression parser in :mod:`.cli`.
        """
        if not self._num:
            return "0"
        chunks: list[str] = []
        for position, (exps, num, den) in enumerate(self._canonical_terms()):
            mono = " ".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(VAR_NAMES, exps)
                if e
            )
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            if mono:
                body = mono if mag == "1" else f"{mag} * {mono}"
            else:
                body = mag
            if position == 0:
                chunks.append(f"-{body}" if num < 0 else body)
            else:
                chunks.append(f"- {body}" if num < 0 else f"+ {body}")
        return " ".join(chunks)

    def latex(self) -> str:
        """LaTeX form, e.g. ``z^{2}w + 2\\gamma z``."""
        if not self._num:
            return "0"
        chunks: list[str] = []
        for position, (exps, num, den) in enumerate(self._canonical_terms()):
            factors = []
            for name in _LATEX_VAR_ORDER:
                e = exps[VAR_INDEX[name]]
                if not e:
                    continue
                sym = _LATEX_NAMES[name]
                factors.append(sym if e == 1 else f"{sym}^{{{e}}}")
            mono = ""
            for factor in factors:
                # keep a control word like \gamma from swallowing the next letter
                if mono and _CONTROL_WORD_TAIL.search(mono):
                    mono += " "
                mono += factor
            if den == 1:
                mag_str = str(abs(num))
            else:
                mag_str = f"\\frac{{{abs(num)}}}{{{den}}}"
            if mono:
                body = mono if mag_str == "1" else f"{mag_str}{mono}"
            else:
                body = mag_str
            if position == 0:
                chunks.append(f"-{body}" if num < 0 else body)
            else:
                chunks.append(f" - {body}" if num < 0 else f" + {body}")
        return "".join(chunks)

    def to_json_obj(self) -> list[dict]:
        """JSON-ready form: a list of terms in canonical order.

        Each term is ``{"exps": {var: int, ...}, "num": str, "den": str}``
        with numerator/denominator as exact decimal strings.
        """
        out = []
        for exps, num, den in self._canonical_terms():
            out.append({
                "exps": {name: e for name, e in zip(VAR_NAMES, exps) if e},
                "num": str(num),
                "den": str(den),
            })
        return out

    @classmethod
    def from_json_obj(cls, obj: Iterable[Mapping]) -> "Poly":
        total = _Sum()
        for term in obj:
            coeff = Fraction(int(term["num"]), int(term["den"]))
            total.add_term(_pack(dict(term["exps"])), coeff.numerator, coeff.denominator)
        return total.poly()

    def __repr__(self) -> str:
        return f"Poly({self.text()})"


class SeriesUV:
    """Bivariate power series in u, v truncated at total order ``order``.

    Coefficients are :class:`Poly` values free of u and v; the pair
    ``(i, j)`` indexes the coefficient of ``u^i v^j`` and only pairs with
    ``i + j <= order`` are stored.  Multiplication silently drops
    products beyond the truncation order.
    """

    __slots__ = ("_order", "_coeffs")

    def __init__(self, order: int, coeffs: Mapping[tuple[int, int], Poly] | None = None):
        if order < 0:
            raise ValueError("series order must be >= 0")
        self._order = order
        self._coeffs: dict[tuple[int, int], Poly] = {}
        if coeffs:
            for (i, j), poly in coeffs.items():
                if i + j <= order and not poly.is_zero():
                    self._coeffs[(i, j)] = poly

    @property
    def order(self) -> int:
        return self._order

    @classmethod
    def one(cls, order: int) -> "SeriesUV":
        return cls(order, {(0, 0): Poly.one()})

    @classmethod
    def from_poly(cls, poly: Poly, order: int) -> "SeriesUV":
        """Read u/v exponents of a polynomial off as series indices.

        Terms of total u,v-degree beyond `order` are dropped.
        """
        groups: dict[tuple[int, int], dict[int, int]] = {}
        for k, c in poly._num.items():
            i, j = (k >> _U_SHIFT) & _MASK, (k >> _V_SHIFT) & _MASK
            if i + j <= order:
                groups.setdefault((i, j), {})[k - i * _U_UNIT - j * _V_UNIT] = c
        return cls(order, {key: _reduced(num, poly._den) for key, num in groups.items()})

    def coeff(self, i: int, j: int) -> Poly:
        """Coefficient of u^i v^j; raises beyond the truncation order."""
        if i < 0 or j < 0:
            raise ValueError("series indices must be >= 0")
        if i + j > self._order:
            raise TruncationError(f"coefficient ({i},{j}) lies beyond order {self._order}")
        return self._coeffs.get((i, j), Poly.zero())

    def is_zero(self) -> bool:
        return not self._coeffs

    def items(self) -> Iterator[tuple[tuple[int, int], Poly]]:
        return iter(self._coeffs.items())

    def to_poly(self) -> Poly:
        """Fold the series back into a polynomial carrying u, v factors."""
        total = _Sum()
        for (i, j), poly in self._coeffs.items():
            _check_degree(_top_degree(poly._num) + i + j)
            total.add(poly, i * _U_UNIT + j * _V_UNIT)
        return total.poly()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeriesUV):
            return NotImplemented
        return self._order == other._order and self._coeffs == other._coeffs

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "SeriesUV") -> "SeriesUV":
        if not isinstance(other, SeriesUV):
            return NotImplemented
        order = min(self._order, other._order)
        out = dict(self._coeffs)
        for key, poly in other._coeffs.items():
            mine = out.get(key)
            out[key] = poly if mine is None else mine + poly
        # the constructor drops zero sums and pairs beyond `order`
        return SeriesUV(order, out)

    def __neg__(self) -> "SeriesUV":
        return SeriesUV(self._order, {k: -p for k, p in self._coeffs.items()})

    def __sub__(self, other: "SeriesUV") -> "SeriesUV":
        return self + (-other)

    def __mul__(self, other: "SeriesUV | Poly | ScalarLike") -> "SeriesUV":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if isinstance(other, Poly):
            if {"u", "v"} & other.variables():
                other = SeriesUV.from_poly(other, self._order)
            else:
                return SeriesUV(self._order, {k: p * other for k, p in self._coeffs.items()})
        if not isinstance(other, SeriesUV):
            return NotImplemented
        order = min(self._order, other._order)
        sums: dict[tuple[int, int], _Sum] = {}
        for (i1, j1), p1 in self._coeffs.items():
            for (i2, j2), p2 in other._coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i + j > order:
                    continue
                total = sums.get((i, j))
                if total is None:
                    total = sums[(i, j)] = _Sum()
                total.add_product((p1, p2))
        return SeriesUV(order, {key: total.poly() for key, total in sums.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"SeriesUV(order={self._order}, {self.to_poly().text()})"


def series_exp(arg: SeriesUV | Poly, order: int | None = None) -> SeriesUV:
    """exp(arg), truncated at the series order, by the Euler recurrence.

    E = exp(A) solves u dE/du = (u dA/du) E, so with A = sum A_kl u^k v^l

        i E_ij = sum_kl k A_kl E_(i-k)(j-l),    E_00 = 1,

    and row i = 0 follows from v d/dv the same way (Knuth, TAOCP Vol. 2,
    section 4.7).  A Poly argument is read as a series to `order`, which
    it then requires.  A SeriesUV argument is truncated at `order`, or at
    its own order if that is lower or `order` is None.  The argument must
    have zero constant term, otherwise the exponential would not be a
    polynomial-coefficient series.
    """
    if isinstance(arg, Poly):
        if order is None:
            raise ValueError("order is required when the argument is a Poly")
        arg = SeriesUV.from_poly(arg, order)
    if not arg.coeff(0, 0).is_zero():
        raise SeriesArgumentError("series_exp needs a zero constant term")
    top = arg.order if order is None else min(order, arg.order)
    return _euler_series(arg, top, 0, Fraction(1))


def series_binomial_neg(base: Poly | SeriesUV, exponent: ScalarLike, order: int) -> SeriesUV:
    """(1 - base)^(-exponent), truncated at the series order.

    F = (1 - B)^(-a) solves (1 - B) u dF/du = a (u dB/du) F, so

        i F_ij = sum_kl B_kl (i - k + a k) F_(i-k)(j-l),    F_00 = 1,

    and row i = 0 follows from v d/dv (Brent & Kung, "Fast algorithms for
    manipulating formal power series", J. ACM 25, 1978).  The result is
    truncated at `order`, or at the order of a SeriesUV base if that is
    lower; `base` must have zero constant term.
    """
    if isinstance(base, Poly):
        base = SeriesUV.from_poly(base, order)
    if not base.coeff(0, 0).is_zero():
        raise SeriesArgumentError("series_binomial_neg needs a zero constant term")
    return _euler_series(base, min(order, base.order), 1, as_scalar(exponent))


def _euler_series(base: SeriesUV, order: int, alpha: int, beta: Fraction) -> SeriesUV:
    """F with F_00 = 1 and (1 - alpha B) theta F = beta (theta B) F.

    alpha = 0 gives exp(beta B), alpha = 1 gives (1 - B)^(-beta); B has
    zero constant term.  With n = i and x = k (n = j and x = l on row 0,
    where theta is v d/dv), each coefficient is one in-place sum

        n F_ij = sum_kl B_kl (alpha (n - x) + beta x) F_(i-k)(j-l).
    """
    r, s = beta.numerator, beta.denominator
    # the monomial terms of B over one common denominator `common`:
    # (k, l, packed key, numerator, total degree of the key)
    common = math.lcm(*(poly._den for _, poly in base.items()))
    terms = [
        (k, l, key, c * (common // poly._den), key >> _DEG_SHIFT)
        for (k, l), poly in base.items()
        for key, c in poly._num.items()
    ]
    coeffs: dict[tuple[int, int], Poly] = {(0, 0): Poly.one()}
    tops = {(0, 0): 0}  # the total degree of each stored coefficient
    for i in range(order + 1):
        for j in range(order + 1 - i):
            n = i or j
            if not n:
                continue
            total = _Sum()
            for k, l, key, c, degree in terms:
                prev = coeffs.get((i - k, j - l))
                if prev is None:
                    continue
                x = k if i else l
                weight = alpha * s * (n - x) + r * x
                if weight:
                    _check_degree(tops[(i - k, j - l)] + degree)
                    total.add(prev, key, c * weight)
            poly = total.poly(common * s * n)
            if poly:
                coeffs[(i, j)] = poly
                tops[(i, j)] = _top_degree(poly._num)
    return SeriesUV(order, coeffs)
