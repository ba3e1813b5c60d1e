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
in the degree field).  So a substitution whose bindings each have one
term (a scalar, a variable, ``c*t``) maps each key to one key,
``key + e * (repl_key - unit[var])``, and builds no polynomial power or
product.  Comparing keys as ints compares the total degree
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
denominator.  :meth:`Poly.canonical_terms` hands each coefficient out
as a reduced numerator and denominator with the unpacked exponent tuple,
in canonical order.  Every serialization reads that one term list, so it
depends only on the polynomial, never on how it was computed.

**Sums and products.**  Every sum and product of polynomials is formed
in one accumulator, ``_Sum`` (a substitution of one-term replacements
forms none: it maps keys): numerators over the lcm of the denominators
added so far, reduced once when the sum is read.  ``_Sum.add`` adds one
polynomial, shifted by a key and scaled, as ``+``, ``-``, a scalar ``*``
and the series kernel do.  ``_Sum.add_product`` adds a product of
several, as ``*``, :meth:`Poly.lincomb` and :meth:`Poly.subst` do (a
term's image is the powers of its replacements shifted by the key it
keeps), and checks its degree, read off the keys, before any numerator.

**Series kernel.**  :func:`series_exp` never multiplies two series.
With the Euler operator theta = u d/du, the series E = exp(A) solves
theta E = (theta A) E.  Comparing coefficients gives each coefficient of
u^i v^j from at most as many earlier ones as the argument has terms
(Knuth, TAOCP Vol. 2, section 4.7)::

    i E_ij = sum_kl k A_kl E_(i-k)(j-l)

with v d/dv in place of u d/du on the row i = 0.  Every argument the
package passes is a short sum of monomials, so each term of such a sum
is an earlier coefficient shifted by one packed key, added in place.

No division, gcd, or factorization of polynomials is provided: the
identity engine built on top only ever needs ring operations,
substitution, formal differentiation, and truncated series in ``u``,
``v``.
"""

from __future__ import annotations

import itertools
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
        raise ValueError(f"unknown variable {quoted(name)}") from None


def check_degree(degree: int) -> None:
    """Refuse, with a ValueError, a total degree past MAX_DEGREE."""
    if degree > MAX_DEGREE:
        raise ValueError(
            f"total degree {degree} exceeds the kernel bound MAX_DEGREE = {MAX_DEGREE}"
        )


def _check_int(value: object, what: str) -> None:
    # exponents and orders are exact like coefficients: a float or Fraction
    # would make a key that is not an int
    if not isinstance(value, int):
        raise TypeError(f"{what} must be an int, got {type(value).__name__}")


def quoted(text: str) -> str:
    """repr(text) for an error message; past 40 characters, its first 40 and its length."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}… ({len(text)} characters)"


def monomial_key(exps: Mapping[str, int]) -> int:
    """The packed key of prod(var^e) for a {name: exponent} mapping.

    Keys add as their monomials multiply, so ``Poly({key: numerator})``
    built from them is a polynomial term by term, with no Fraction.
    """
    key = total = 0
    for name, e in exps.items():
        _check_int(e, f"exponent for {name}")
        if e < 0:
            raise ValueError(f"negative exponent for {name}")
        key += e * _UNIT[_var_index(name)]
        total += e
    check_degree(total)
    return key


def exponents(key: int) -> tuple[int, ...]:
    """The exponent tuple (alphabet order) of a packed key."""
    return _KEY_LAYOUT.unpack(key.to_bytes(_KEY_LAYOUT.size, "big"))[1:]


def field_shift(name: str) -> int:
    """The bit offset of `name`'s exponent field: its exponent in a key is
    ``(key >> field_shift(name)) & MAX_DEGREE``."""
    return _SHIFT[_var_index(name)]


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


def _plus(a: "Poly", b: object, sign: int) -> "Poly":
    """a + sign * b, b a Poly or an exact scalar; NotImplemented for anything else."""
    total = _Sum(a)
    if isinstance(b, Poly):
        total.add(b, 0, sign)
    elif isinstance(b, (int, Fraction)):
        total.add(Poly.one(), 0, sign * b.numerator, b.denominator)
    else:
        return NotImplemented
    return total.poly()


class _Sum:
    """A running sum of polynomials, accumulated in place in one dict.

    Every sum and product of the kernel is formed in one; adding to it
    never copies what it holds, unlike ``total = total + p``.
    Its numerators sit over ``den``, the lcm of the denominators added so
    far; zeros are dropped only once, in :meth:`poly`.
    """

    __slots__ = ("num", "den")

    def __init__(self, start: "Poly | None" = None):
        # zero, or `start` with its numerators copied
        self.num: dict[int, int] = {} if start is None else dict(start._num)
        self.den = 1 if start is None else start._den

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

    def add(self, poly: "Poly", shift: int = 0, factor: int = 1, den: int = 1) -> None:
        """Add ``factor/den * x^shift * poly``, `shift` a packed monomial key."""
        scale = self._scale_for(poly._den * den) * factor
        num = self.num
        get = num.get
        if not shift:
            # the sum shares `poly`'s key objects: no copies, and lookups by identity
            for k, c in poly._num.items():
                num[k] = get(k, 0) + c * scale
            return
        for k, c in poly._num.items():
            k += shift
            num[k] = get(k, 0) + c * scale

    def add_product(self, factors: Sequence["Poly"], num: int = 1, den: int = 1,
                    shift: int = 0) -> None:
        """Add ``num/den * x^shift * prod(factors)``, `shift` a packed key, without building the
        product; one pass reads the factors' keys, so the degree is checked before any numerator."""
        if not num:
            return
        degree = shift >> _DEG_SHIFT
        for f in factors:
            if not f._num:
                return
            degree += _top_degree(f._num)
            den *= f._den
        check_degree(degree)
        rows = [(shift, self._scale_for(den) * num)]
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

    def poly(self, den: int = 1) -> "Poly":
        """The sum divided by `den`, as a reduced Poly; it ends the sum."""
        return Poly.from_numerators(self.num, self.den * den)


def _render(terms: Sequence[tuple[str, str, str]], fraction: str, times: str) -> str:
    """The signed sum of `terms`, (written monomial, numerator, denominator) in canonical order.

    The numerator is written in decimal with its sign, the denominator in
    decimal, "1" for an integer coefficient.  `fraction` formats a
    magnitude num/den whose den is not 1, and `times` joins a magnitude
    other than 1 to its monomial.
    """
    if not terms:
        return "0"
    chunks = []
    for mono, num, den in terms:
        sign, mag = (" - ", num[1:]) if num[0] == "-" else (" + ", num)
        if den != "1":
            mag = fraction.format(mag, den)
        if mono:
            body = mono if mag == "1" else f"{mag}{times}{mono}"
        else:
            body = mag
        chunks.append(sign + body)
    out = "".join(chunks)
    return out[3:] if out[1] == "+" else "-" + out[3:]


def text_power(name: str, e: int) -> str:
    """The power name^e as :meth:`Poly.text` writes it, e.g. ``z^2``; ``z`` for e = 1."""
    return name if e == 1 else f"{name}^{e}"


# A written monomial is joined from one fragment per variable, the power
# of that variable, "" for the power 0.  A table writes each fragment on
# first use and keeps those of the exponents below _KEPT_POWERS, at most 128
# strings of under 100 bytes.  Poly.text and Poly.latex keep one table per
# variable each, and the JSON writer of .cli one per variable and depth of
# at most 8 depths: at most 15,360 strings, about 1.5 MB.  The benchmark's
# `requests` workload writes exponents up to 50 in z, w, t (heat) and
# z, w, g (compute), about 600 strings.
_KEPT_POWERS = 128


class PowerTable(dict):
    """exponent -> the fragment `write(exponent)` of one variable's power."""

    __slots__ = ("_write",)

    def __init__(self, write):
        super().__init__({0: ""})
        self._write = write

    def __missing__(self, exponent: int) -> str:
        fragment = self._write(exponent)
        if exponent < _KEPT_POWERS:
            self[exponent] = fragment
        return fragment


def joined_powers(keys: Sequence[int], parts: Sequence[tuple[int, PowerTable]]) -> Iterable[str]:
    """For each packed key, the fragments of the (field shift, table) `parts`
    for its exponents, joined in the order of `parts`."""
    if not parts:
        return itertools.repeat("")
    return map("".join, zip(*[map(powers.__getitem__, [key >> shift & _MASK for key in keys])
                              for shift, powers in parts]))


def _latex_power(name: str, e: int) -> str:
    power = _LATEX_NAMES[name] if e == 1 else f"{_LATEX_NAMES[name]}^{{{e}}}"
    # a space keeps a control word like \gamma from swallowing the next letter
    return power + " " if _CONTROL_WORD_TAIL.search(power) else power


# each power followed by a space in text; in LaTeX only a control word is,
# so a monomial is its joined fragments without the trailing space
TEXT_POWERS = {name: PowerTable(lambda e, name=name: text_power(name, e) + " ")
               for name in VAR_NAMES}
_LATEX_POWERS = {name: PowerTable(lambda e, name=name: _latex_power(name, e))
                 for name in VAR_NAMES}


def terms_text(terms: Sequence[tuple[str, str, str]]) -> str:
    """:meth:`Poly.text` of the polynomial whose terms, in canonical order, are
    (monomial as Poly.text writes it, numerator, denominator), each integer
    written in decimal."""
    return _render(terms, "{}/{}", " * ")


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
        # Callers pass normalized data (keys from monomial_key, no zero
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
        return cls({monomial_key(exps): c.numerator}, c.denominator)

    @classmethod
    def from_numerators(cls, num: dict[int, int], den: int = 1) -> "Poly":
        """The sum of ``num[key] * x^key`` over a positive `den`, `num` keyed by monomial_key.

        Zero numerators are dropped and the result is reduced; the dict is
        taken over, not copied.
        """
        if 0 in num.values():
            num = {k: c for k, c in num.items() if c}
        return _reduced(num, den)

    # -- inspection ---------------------------------------------------

    def packed(self) -> tuple[Mapping[int, int], int]:
        """The stored form: {packed key: integer numerator} and the shared denominator.

        The mapping is the polynomial's own, to be read, never changed.
        """
        return self._num, self._den

    def packed_terms(self) -> list[tuple[int, int, int]]:
        """(packed key, numerator, denominator) in canonical order:
        graded lex, leading term first.

        Each coefficient is reduced on its own, as a Fraction would be; the
        serializations read these ints, so they never build a Fraction.
        """
        num, den = self._num, self._den
        if den == 1:
            return [(k, num[k], 1) for k in sorted(num, reverse=True)]
        out = []
        for k in sorted(num, reverse=True):
            g = math.gcd(num[k], den)
            out.append((k, num[k] // g, den // g))
        return out

    def canonical_terms(self) -> list[tuple[tuple[int, ...], int, int]]:
        """:meth:`packed_terms` with each key unpacked into its exponent tuple."""
        return [(exponents(k), num, den) for k, num, den in self.packed_terms()]

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __len__(self) -> int:
        return len(self._num)

    def total_degree(self) -> int:
        if not self._num:
            return -1
        return _top_degree(self._num)

    def height(self) -> int:
        """The largest of the numerators' absolute values and the denominator."""
        return max(max(map(abs, self._num.values()), default=0), self._den)

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
        _check_int(power, "power")
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
        return _plus(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other: "Poly | ScalarLike") -> "Poly":
        return _plus(self, other, -1)

    def __rsub__(self, other: "Poly | ScalarLike") -> "Poly":
        return (-self) + other

    def __mul__(self, other: "Poly | ScalarLike") -> "Poly":
        total = _Sum()
        if isinstance(other, Poly):
            total.add_product((self, other))
        elif isinstance(other, (int, Fraction)):
            total.add(self, 0, other.numerator, other.denominator)
        else:
            return NotImplemented
        return total.poly()

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        _check_int(exponent, "exponent")
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        if exponent and self._num:
            check_degree(exponent * _top_degree(self._num))
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
        _check_int(order, "derivative order")
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
        variables with ``{"z": w, "w": z}`` behaves as expected.  When
        every replacement has at most one term (a scalar, a variable,
        ``c*t``), each term maps to one term, found by key arithmetic;
        otherwise each term's image is a product of powers of the
        replacements.  Either way a term's image is checked against
        MAX_DEGREE before its coefficient is computed.
        """
        if not bindings:
            return self
        repls = {}
        for name, value in bindings.items():
            idx = _var_index(name)
            repls[idx] = value if isinstance(value, Poly) else Poly.const(value)
        if all(len(repl._num) <= 1 for repl in repls.values()):
            return self._subst_monomials(repls)
        fields = []  # (shift, unit, degree of the replacement, its powers)
        for idx, repl in repls.items():
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
            # the term's image has exactly this degree; check it before powering
            check_degree((kept >> _DEG_SHIFT) + degree)
            for powers, e in factors:
                while len(powers) <= e:
                    powers.append(powers[-1] * powers[1])
            total.add_product([powers[e] for powers, e in factors], coeff, shift=kept)
        return total.poly(self._den)

    def _subst_monomials(self, repls: Mapping[int, "Poly"]) -> "Poly":
        # subst for replacements of at most one term each, r = rnum/rden x^rkey:
        # var^e goes to x^(e*rkey) with rnum^e/rden^e, or to zero if r is.
        # Over den * rden^top, top the highest e of var, the coefficient
        # is num * rnum^e * rden^(top - e), an integer.
        fields = []  # (shift, key step rkey - unit or None for zero, degree step, rnum, rden)
        for idx, repl in repls.items():
            if repl._num:
                ((rkey, rnum),) = repl._num.items()
                fields.append((_SHIFT[idx], rkey - _UNIT[idx], (rkey >> _DEG_SHIFT) - 1,
                               rnum, repl._den))
            else:
                fields.append((_SHIFT[idx], None, 0, 0, 1))
        # each term's image key and exponents, read off the original key and
        # checked before any coefficient arithmetic; None where it is zero
        images = []
        used = [set() for _ in fields]
        for key in self._num:
            image, degree, es = key, key >> _DEG_SHIFT, []
            for (shift, step, degree_step, _, _), seen in zip(fields, used):
                e = (key >> shift) & _MASK
                if e:
                    if step is None:
                        image = None
                        break
                    image += e * step
                    degree += e * degree_step
                    seen.add(e)
                es.append(e)
            if image is not None:
                check_degree(degree)
            images.append((image, es))
        den = self._den
        factors = []  # per field, {e: rnum^e * rden^(top - e)}
        for (_, _, _, rnum, rden), seen in zip(fields, used):
            top = max(seen, default=0)
            den *= rden ** top
            factors.append({e: rnum ** e * rden ** (top - e) for e in seen | {0}})
        out: dict[int, int] = {}
        get = out.get
        for (image, es), coeff in zip(images, self._num.values()):
            if image is not None:
                for factor, e in zip(factors, es):
                    coeff *= factor[e]
                out[image] = get(image, 0) + coeff
        return Poly.from_numerators(out, den)

    # -- serialization ------------------------------------------------

    def _written(self, names: Sequence[str], tables: Mapping[str, PowerTable],
                 fraction: str, times: str) -> str:
        # _render of the terms in one pass over the packed terms, each
        # monomial joined from the fragments in `tables` of the variables
        # the polynomial uses, in the order of `names`
        terms = self.packed_terms()
        used = self.variables()
        parts = [(_SHIFT[VAR_INDEX[name]], tables[name]) for name in names if name in used]
        monomials = joined_powers([key for key, _, _ in terms], parts)
        return _render([(mono.rstrip(" "), str(num), str(den))
                        for (_, num, den), mono in zip(terms, monomials)], fraction, times)

    def text(self) -> str:
        """Canonical plain-text form, e.g. ``z^2 w + 2 * g z``.

        Round-trips through the expression parser in :mod:`.cli`.
        """
        return self._written(VAR_NAMES, TEXT_POWERS, "{}/{}", " * ")

    def latex(self) -> str:
        """LaTeX form, e.g. ``z^{2}w + 2\\gamma z``."""
        return self._written(_LATEX_VAR_ORDER, _LATEX_POWERS, "\\frac{{{}}}{{{}}}", "")

    def to_json_obj(self) -> list[dict]:
        """JSON-ready form: a list of terms in canonical order.

        Each term is ``{"exps": {var: int, ...}, "num": str, "den": str}``
        with numerator/denominator as exact decimal strings.
        """
        out = []
        for exps, num, den in self.canonical_terms():
            out.append({
                "exps": {name: e for name, e in zip(VAR_NAMES, exps) if e},
                "num": str(num),
                "den": str(den),
            })
        return out

    def __repr__(self) -> str:
        return f"Poly({self.text()})"


class SeriesUV:
    """Bivariate power series in u, v truncated at total order ``order``.

    Coefficients are :class:`Poly` values free of u and v; the pair
    ``(i, j)`` indexes the coefficient of ``u^i v^j`` and only pairs with
    ``i + j <= order`` inside the series' ``box`` are stored.  The box
    ``(bu, bv)`` bounds each variable on its own, ``i <= bu`` and
    ``j <= bv``; it is ``(order, order)``, no bound beyond the order, unless
    given.  :meth:`coeff` raises :class:`TruncationError` past the order or
    outside the box.  A series is built, read, multiplied by another series
    (the product is at the lower of the two orders and in the overlap of
    the two boxes, and drops what lies beyond) and folded back with
    :meth:`to_poly`.  There is no series sum: a sum or difference is taken
    on the folds.
    """

    __slots__ = ("_order", "_box", "_coeffs")

    def __init__(self, order: int, coeffs: Mapping[tuple[int, int], Poly] | None = None,
                 box: tuple[int, int] | None = None):
        if order < 0:
            raise ValueError("series order must be >= 0")
        bu, bv = box = (order, order) if box is None else box
        if min(box) < 0:
            raise ValueError("series box bounds must be >= 0")
        self._order = order
        self._box = box
        self._coeffs: dict[tuple[int, int], Poly] = {}
        if coeffs:
            for (i, j), poly in coeffs.items():
                if i + j <= order and i <= bu and j <= bv and not poly.is_zero():
                    self._coeffs[(i, j)] = poly

    @property
    def order(self) -> int:
        return self._order

    @property
    def box(self) -> tuple[int, int]:
        return self._box

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
        """Coefficient of u^i v^j; raises beyond the truncation order or outside the box."""
        if i < 0 or j < 0:
            raise ValueError("series indices must be >= 0")
        if i + j > self._order:
            raise TruncationError(f"coefficient ({i},{j}) lies beyond order {self._order}")
        if i > self._box[0] or j > self._box[1]:
            raise TruncationError(f"coefficient ({i},{j}) lies outside box {self._box}")
        return self._coeffs.get((i, j), Poly.zero())

    def is_zero(self) -> bool:
        return not self._coeffs

    def items(self) -> Iterator[tuple[tuple[int, int], Poly]]:
        return iter(self._coeffs.items())

    def to_poly(self) -> Poly:
        """Fold the series back into a polynomial carrying u, v factors."""
        total = _Sum()
        for (i, j), poly in self._coeffs.items():
            check_degree(_top_degree(poly._num) + i + j)
            total.add(poly, i * _U_UNIT + j * _V_UNIT)
        return total.poly()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeriesUV):
            return NotImplemented
        return (self._order == other._order and self._box == other._box
                and self._coeffs == other._coeffs)

    __hash__ = None  # type: ignore[assignment]

    def __mul__(self, other: "SeriesUV") -> "SeriesUV":
        if not isinstance(other, SeriesUV):
            return NotImplemented
        order = min(self._order, other._order)
        bu, bv = box = min(self._box[0], other._box[0]), min(self._box[1], other._box[1])
        sums: dict[tuple[int, int], _Sum] = {}
        for (i1, j1), p1 in self._coeffs.items():
            for (i2, j2), p2 in other._coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i + j > order or i > bu or j > bv:
                    continue
                total = sums.get((i, j))
                if total is None:
                    total = sums[(i, j)] = _Sum()
                # times a coefficient of one term, the other is shifted by its key
                mono, rest = (p1, p2) if len(p1._num) == 1 else (p2, p1)
                if len(mono._num) == 1:
                    (key,) = mono._num
                    check_degree((key >> _DEG_SHIFT) + _top_degree(rest._num))
                    total.add(rest, key, mono._num[key], mono._den)
                else:
                    total.add_product((p1, p2))
        return SeriesUV(order, {key: total.poly() for key, total in sums.items()}, box)

    def __repr__(self) -> str:
        box = "" if self._box == (self._order, self._order) else f", box={self._box}"
        return f"SeriesUV(order={self._order}{box}, {self.to_poly().text()})"


def series_exp(arg: Poly, order: int, *, box: tuple[int, int] | None = None,
               held: dict[tuple[int, int], Poly] | None = None) -> SeriesUV:
    """exp(arg), truncated at total order `order`, by the Euler recurrence.

    `arg` is read as a series in u, v.  E = exp(A) solves
    u dE/du = (u dA/du) E, so with A = sum A_kl u^k v^l

        i E_ij = sum_kl k A_kl E_(i-k)(j-l),    E_00 = 1,

    and row i = 0 follows from v d/dv the same way, with l for k (Knuth,
    TAOCP Vol. 2, section 4.7).  The argument must have zero constant
    term, otherwise the exponential would not be a polynomial-coefficient
    series.

    With ``box=(bu, bv)`` only the coefficients with i <= bu and j <= bv
    are built: E_ij reads only E_(i-k)(j-l) with k, l >= 0, so nothing
    outside the box is needed.  `held` is a dict {(i, j): E_ij} of
    coefficients of exp(arg) built before, zeros included; it is read and
    extended in place, and only the cells of the box up to the order that
    it lacks are built.  They are built row by row, so each cell read is
    held or built by then: it is indexed, never skipped.
    """
    bu, bv = box = (order, order) if box is None else box
    num, common = arg.packed()
    # the terms of A inside the box and the order, over A's one
    # denominator `common`: (k, l, packed key free of u and v, numerator,
    # total degree of the key)
    terms = []
    for key, c in num.items():
        k, l = (key >> _U_SHIFT) & _MASK, (key >> _V_SHIFT) & _MASK
        if not (k or l):
            raise SeriesArgumentError("series_exp needs a zero constant term")
        if k <= bu and l <= bv and k + l <= order:
            key -= k * _U_UNIT + l * _V_UNIT
            terms.append((k, l, key, c, key >> _DEG_SHIFT))
    coeffs = {} if held is None else held
    coeffs.setdefault((0, 0), Poly.one())
    for i in range(min(bu, order) + 1):
        for j in range(min(bv, order - i) + 1):
            if (i, j) in coeffs:
                continue
            total = _Sum()
            for k, l, key, c, degree in terms:
                weight = k if i else l
                if weight and k <= i and l <= j:
                    prev = coeffs[(i - k, j - l)]
                    if prev:
                        check_degree(_top_degree(prev._num) + degree)
                        total.add(prev, key, c * weight)
            coeffs[(i, j)] = total.poly(common * (i or j))
    return SeriesUV(order, coeffs, box)
