"""Command-line front end: compute / verify / audit / heat.

All output is deterministic: canonical term order, sorted reports,
sorted JSON keys, no timestamps, the same bytes at every --jobs value.
Exit codes: 0 success, 1 at least one effective identity/property
failure, 2 usage error, 3 internal error (an unexpected exception,
reported in one line on stderr).

Numbers are ASCII digits: ``[-+]digits`` for an integer flag and
``[-+]digits[/digits]`` for a rational (``--c``, a ``--subst`` value), spaces
stripped.  ``--subst`` binds the deformation parameter as ``gamma``, ``g`` or
``γ``; ASCII ``g`` is emitted on output, rationals as ``num/den`` strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction
from typing import Iterable

from .exactalg import (
    TEXT_POWERS,
    VAR_NAMES,
    Poly,
    PowerTable,
    check_degree,
    field_shift,
    joined_powers,
    monomial_key,
    quoted,
    terms_text,
)
from .ghcore import (
    STRATEGIES,
    FamilyParams,
    InvalidParamsError,
    UnsupportedRepresentationError,
)
from .heatrep import HeatProblem, residual, solve
from .identity import (
    CHECKS,
    MAX_JOBS,
    POLICIES,
    STATUS_FAIL,
    GridRanges,
    IdentityReport,
    audit_grid,
    parse_tag,
    summarize,
    unchecked_tags,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

def _max_str_digits() -> int:
    """The most digits str() and int() convert, sys.get_int_max_str_digits().

    0 means no limit, and before Python 3.10.7 there is neither function
    nor limit.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    return get_limit() if get_limit else 0


class ExprError(ValueError):
    """Expression syntax/semantic error carrying a source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _check_digits(limit: int, text: str, position: int | None = None) -> None:
    # refuse the number `text` if a run of its digits is longer than `limit`, the most
    # int() reads (0: no limit); inside an expression, as an ExprError at `position`
    if limit and len(text) > limit and max(map(len, text.lstrip("-+").split("/"))) > limit:
        message = (f"a number has more than {limit} digits, past the limit "
                   f"sys.get_int_max_str_digits() = {limit}")
        raise ValueError(message) if position is None else ExprError(message, position)


# the one number grammar, with an optional sign in a flag's value
_NUMBER = r"[0-9]+(?:/[0-9]+)?"
_RATIONAL_RE = re.compile(rf"[-+]?{_NUMBER}")
_INTEGER_RE = re.compile(r"[-+]?[0-9]+")
# A factor of a product token: a number or z or w, and an exponent if one is
# written, each digit run and name ending where the single tokens below end
# it.  _FACTOR_RE reads a product token factor by factor.
_DIGITS = r"[0-9]+(?![0-9])"
_FACTOR = rf"(?:{_DIGITS}(?:/{_DIGITS})?|[zw](?![A-Za-z0-9]))(?:\^{_DIGITS})?"
_FACTOR_RE = re.compile(rf"\*?(?:(?P<num>{_DIGITS}(?:/{_DIGITS})?)|(?P<name>[zw]))"
                        rf"(?:\^(?P<exp>{_DIGITS}))?")
# One token per match.  First a whole product of factors with no space
# inside, such as "3/4*z^5*w^2" or "2z^3", taken only where it is a whole
# term, so that the single tokens would read the same product: after the
# start, a sign or "(" (at most one space between) and before a sign, ")"
# or the end.  Elsewhere, as after "^" or before "(", the single tokens
# are read: a number, a name, an operator, or any other character that is
# not a space, which no expression may hold.
_TOKEN_RE = re.compile(rf"(?P<product>(?:(?<![^-+(])|(?<=[-+(]\s)){_FACTOR}(?:\*?{_FACTOR})*"
                       r"(?=\s*(?:[-+)]|$)))"
                       rf"|(?P<num>{_NUMBER})|(?P<name>[A-Za-zγ][A-Za-z0-9]*)"
                       r"|(?P<op>[-+*^()])|(?P<other>\S)")
_EXPR_VARS = ("z", "w")
# the packed key of each variable; a monomial's key is their sum, weighted
# by its exponents, once its degree is checked
_EXPR_UNITS = {name: monomial_key({name: 1}) for name in _EXPR_VARS}


# The most term products a whole expression may cost, summed over the
# last squaring of each power and the multiplications of each product.
# (z+w)^1400 costs 492,802 and parses in about 0.5 s, (z+w)^700*(z+w)^700
# costs 738,504, and (z+w)^1400 + (z+w)^1400 parses in about 1 s.
# (z+w)^3000 would take 7.75 s and (z+w)^1400*(z+w)^1400 7.8 s.
MAX_POWER_TERM_PAIRS = 1_000_000
# The most bits a power may be estimated to need: its exponent times the
# bit length of its base's height (the largest of its numerators'
# magnitudes and its denominator).  Raising 3 or a 1,000-digit number to a
# power of about this size takes 0.02-0.06 s on a 2-CPU Xeon.  The same
# bound holds for a --subst value raised to a member's exponents.
MAX_POWER_BITS = 2 ** 20


def _power_terms(base: Poly, exponent: int) -> int:
    """An upper bound on the terms of base ** exponent.

    base^k has at most as many terms as there are multisets of k of the
    base's terms, and as monomials of degree at most k * deg(base) in its
    variables.
    """
    if exponent == 0:
        return 1
    if exponent == 1 or len(base) < 2:
        return len(base)
    degree = exponent * base.total_degree()
    return min(math.comb(exponent + len(base) - 1, exponent),
               math.comb(degree + len(base.variables()), degree))


def _power_term_pairs(base: Poly, exponent: int) -> int:
    """Term products of the last squaring of base ** exponent, estimated.

    The last squaring multiplies base^(exponent // 2) by itself.  A
    monomial's power is one key product, and costs none.
    """
    if len(base) < 2 or exponent < 2:
        return 0
    return _power_terms(base, exponent // 2) ** 2


def _product_term_pairs(powers: list[tuple[Poly, int, int]], variables: int) -> int:
    """Term products of multiplying the nonzero powers (base, exponent, _) in turn, estimated.

    Poly.lincomb multiplies the running product by each factor in turn.
    That product has at most as many terms as the product of the factors'
    term bounds, and as monomials of its degree or less in `variables`
    variables.  A monomial factor leaves the running product's term count
    as it is, so a product of monomials costs one term product per factor.
    """
    pairs, terms, degree = 0, 1, 0
    for base, exponent, _ in powers:
        size = _power_terms(base, exponent)
        pairs += terms * size
        degree += exponent * base.total_degree()
        if size > 1:
            terms = min(terms * size, math.comb(degree + variables, variables))
    return pairs


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    # (kind, text, position) of each token; a number keeps its raw text,
    # since the power rule needs to tell 2 from 2/1
    tokens = []
    for match in _TOKEN_RE.finditer(src):
        kind, text, pos = match.lastgroup, match.group(), match.start()
        if kind == "other":
            raise ExprError(f"unexpected character {text!r}", pos)
        tokens.append((kind, text, pos))
    return tokens


def _raised(monomials: list, products: list) -> Poly:
    # the sum of the folded monomial products (sign, key, [(num, den, exponent), ...])
    # and the signed products (sign, [(base, exponent, _), ...]), each power
    # raised only here; the monomials are added over one denominator, their lcm
    terms = []
    for sign, key, numbers in monomials:
        num, den = sign, 1
        for n, d, e in numbers:
            num *= n ** e
            den *= d ** e
        terms.append((key, num, den))
    common = math.lcm(*(den for _, _, den in terms))
    total: dict[int, int] = {}
    get = total.get
    for key, num, den in terms:
        total[key] = get(key, 0) + num * (common // den)
    folded = Poly.from_numerators(total, common)
    if not products:
        return folded
    return Poly.lincomb([(1, folded), *((sign, *(base if exp == 1 else base ** exp
                                                 for base, exp, _ in powers))
                                        for sign, powers in products)])


def _atom_poly(atom: tuple) -> Poly:
    # the Poly of an atom (name, num, den) that _ExprParser._atom reads
    name, num, den = atom
    return Poly.variable(name) if name else Poly.const(Fraction(num, den))


class _ExprParser:
    """Recursive-descent parser for polynomial expressions.

    Grammar: rational literals (``3``, ``3/2``), variables, ``+ - *``,
    ``^`` with nonnegative integer exponents, parentheses, and implicit
    multiplication by adjacency (``2z``, ``3(z+w)``).

    The whole expression is read, and each of its products charged against
    MAX_POWER_TERM_PAIRS, before any power of it is raised; only a
    parenthesized sum is computed when it closes, as the base it is.  A
    product of numbers and variables is read into one packed key and its
    number powers, with no Poly per factor.  A term written with no space
    inside, such as ``-3/4*z^5*w^2``, is one product token, read factor by
    factor with the checks and positions its single tokens would get.
    """

    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.k = 0
        # term products charged so far, against MAX_POWER_TERM_PAIRS
        self.pairs = 0
        # the most digits a number may have
        self.limit = _max_str_digits()

    def _peek(self):
        return self.tokens[self.k] if self.k < len(self.tokens) else (None, None, len(self.src))

    def _next(self):
        token = self._peek()
        self.k += 1
        return token

    def parse(self) -> Poly:
        if not self.tokens:
            raise ExprError("empty expression", 0)
        monomials, products = self._expr()
        kind, value, pos = self._peek()
        if kind is not None:
            raise ExprError(f"unexpected {quoted(value)}", pos)
        return _raised(monomials, products)

    def _expr(self) -> tuple[list, list]:
        # the folded monomial products and the other signed products of one
        # sum, each charged, none raised
        monomials, products = [], []
        sign = 1
        while True:
            kind, product = self._term(sign)
            if kind:
                (monomials if kind == "monomial" else products).append(product)
            kind, value, _ = self._peek()
            if not (kind == "op" and value in "+-"):
                return monomials, products
            self.k += 1
            sign = 1 if value == "+" else -1

    def _charge(self, what: str, pairs: int, pos: int) -> None:
        # add `pairs` to the expression's cost; refuse the expression past the budget
        self.pairs += pairs
        if self.pairs > MAX_POWER_TERM_PAIRS:
            raise ExprError(f"{what} too large: about {self.pairs} term products, more than "
                            f"MAX_POWER_TERM_PAIRS = {MAX_POWER_TERM_PAIRS}", pos)

    def _check_bits(self, height: int, exponent: int, pos: int) -> None:
        # refuse a power base^exponent, base of height `height`, past MAX_POWER_BITS
        bits = exponent * height.bit_length()
        if bits > MAX_POWER_BITS:
            raise ExprError(f"power too large: about {bits} bits, more than "
                            f"MAX_POWER_BITS = {MAX_POWER_BITS}", pos)

    def _term(self, sign: int) -> tuple:
        # one product, its degree checked and its cost charged, as
        # ("monomial", (sign, key, number powers)) when every base is a
        # number or a variable, as ("product", (sign, its powers)) otherwise,
        # and as (None, None) if it has a zero factor: 0 costs nothing
        pos = self._peek()[2]
        powers = []
        while True:
            kind, value, at = self._peek()
            while kind == "op" and value == "-":
                self.k += 1
                sign = -sign
                kind, value, at = self._peek()
            if kind == "product":
                # a product token ends its term, and most often is all of it
                self.k += 1
                factors = self._factors(at, at + len(value))
                if not powers:
                    return self._monomial(sign, factors, pos)
                powers += factors
                break
            powers.append(self._power())
            kind, value, _ = self._peek()
            if kind == "op" and value == "*":
                self.k += 1
            elif not (kind in ("num", "name") or (kind == "op" and value == "(")):
                break
        if all(isinstance(base, tuple) for base, _, _ in powers):
            return self._monomial(sign, powers, pos)
        powers = [(_atom_poly(base) if isinstance(base, tuple) else base, exponent, at)
                  for base, exponent, at in powers]
        if any(exponent and not base for base, exponent, _ in powers):
            return None, None
        check_degree(sum(base.total_degree() * exponent for base, exponent, _ in powers))
        for base, exponent, at in powers:
            self._check_bits(base.height(), exponent, at)
            self._charge("power", _power_term_pairs(base, exponent), at)
        self._charge("product", _product_term_pairs(powers, len(_EXPR_VARS)), pos)
        return "product", (sign, powers)

    def _monomial(self, sign: int, powers: list, pos: int) -> tuple:
        # _term of a product of numbers and variables, folded into one packed
        # key and its number powers; it is charged one term product per
        # factor, as _product_term_pairs charges it
        key = degree = 0
        numbers = []
        for (name, num, den), exponent, at in powers:
            if name:
                key += exponent * _EXPR_UNITS[name]
                degree += exponent
            elif exponent:
                if not num:
                    return None, None
                self._check_bits(max(num, den), exponent, at)
                numbers.append((num, den, exponent))
        check_degree(degree)
        self._charge("product", len(powers), pos)
        return "monomial", (sign, key, numbers)

    def _factors(self, start: int, end: int) -> list:
        # the powers of the product token src[start:end], as _power reads
        # them from its single tokens, each checked where they would be
        powers = []
        for factor in _FACTOR_RE.finditer(self.src, start, end):
            num, name, exp = factor.group("num", "name", "exp")
            base = (name, 1, 1) if name else self._number(num, factor.start("num"))
            if exp is None:
                powers.append((base, 1, factor.end()))
            else:
                at = factor.start("exp")
                _check_digits(self.limit, exp, at)
                powers.append((base, int(exp), at))
        return powers

    def _number(self, value: str, pos: int) -> tuple:
        # a number token's atom ("", num, den)
        _check_digits(self.limit, value, pos)
        num, _, den = value.partition("/")
        den = int(den or 1)
        if not den:
            raise ExprError("zero denominator", pos)
        return "", int(num), den

    def _power(self) -> tuple:
        # a base, its exponent (1 if none is written) and the exponent's position
        base = self._atom()
        kind, value, pos = self._peek()
        if not (kind == "op" and value == "^"):
            return base, 1, pos
        self.k += 1
        kind, value, pos = self._next()
        if kind == "op" and value == "-":
            raise ExprError("negative exponent", pos)
        if kind != "num" or not value.isdigit():
            raise ExprError("expected a nonnegative integer exponent", pos)
        _check_digits(self.limit, value, pos)
        return base, int(value), pos

    def _atom(self):
        # a number or a variable as (name, num, den), name "" for a number
        # and num = den = 1 for a variable; a parenthesized sum as its Poly
        kind, value, pos = self._next()
        if kind == "num":
            return self._number(value, pos)
        if kind == "name":
            if value not in _EXPR_VARS:
                raise ExprError(f"variable {quoted(value)} is not allowed here", pos)
            return value, 1, 1
        if kind == "op" and value == "(":
            monomials, products = self._expr()
            kind, value, pos = self._next()
            if not (kind == "op" and value == ")"):
                raise ExprError("expected ')'", pos)
            return _raised(monomials, products)
        if kind is None:
            raise ExprError("unexpected end of expression", pos)
        raise ExprError(f"unexpected {quoted(value)}", pos)


def parse_poly_expr(src: str) -> Poly:
    """Parse a polynomial expression in z and w."""
    return _ExprParser(src).parse()


def parse_rational(text: str) -> Fraction:
    """Parse an optional sign, digits and an optional slash and digits, e.g. '-7/3'."""
    number = text.strip()
    if not _RATIONAL_RE.fullmatch(number):
        raise ValueError(f"not a rational number: {quoted(text)}")
    _check_digits(_max_str_digits(), number)
    try:
        return Fraction(number)
    except ZeroDivisionError:
        raise ValueError(f"not a rational number: {quoted(text)}") from None


def parse_integer(text: str, least: int | None = None, most: int | None = None) -> int:
    """Parse an optional sign and digits, e.g. '-5', from `least` to `most`."""
    number = text.strip()
    if not _INTEGER_RE.fullmatch(number):
        raise ValueError(f"not an integer: {quoted(text)}")
    _check_digits(_max_str_digits(), number)
    value = int(number)
    if least is not None and value < least:
        raise ValueError(f"must be >= {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"must be <= {most}, got {value}")
    return value


def parse_pq_list(text: str) -> tuple[tuple[int, int], ...]:
    """Parse '1,1;2,1' into ((1,1),(2,1))."""
    pairs = []
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        parts = piece.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 'p,q' but got {quoted(piece)}")
        pairs.append((parse_integer(parts[0]), parse_integer(parts[1])))
    if not pairs:
        raise ValueError("no (p,q) pairs given")
    return tuple(pairs)


def parse_subst(text: str) -> dict[str, Fraction]:
    """Parse 'z=1/2,w=2,gamma=3' into canonical-variable bindings."""
    bindings: dict[str, Fraction] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ValueError(f"expected 'var=value' but got {quoted(piece)}")
        key, _, value = piece.partition("=")
        var = {"gamma": "g", "γ": "g"}.get(key.strip(), key.strip())
        if var not in ("z", "w", "g"):
            raise ValueError(f"cannot substitute {quoted(key.strip())}; use z, w, or gamma")
        if var in bindings:
            raise ValueError(f"variable {quoted(key.strip())} is bound twice")
        bindings[var] = parse_rational(value)
    if not bindings:
        raise ValueError("empty substitution")
    return bindings


# ---------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------

_json_str = json.encoder.encode_basestring_ascii


def _json_default(value) -> str:
    # rationals travel as "num/den" strings; the CLI writes no other type
    # that json does not know
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_json_encoder = json.JSONEncoder(sort_keys=True, indent=2, default=_json_default)


def _dumped(value, depth: int) -> str:
    # json.dumps(value, sort_keys=True, indent=2) on a line `depth` levels
    # deep; ensure_ascii escapes every newline inside a string, so each one
    # the replace meets is a line break the indentation put there
    return _json_encoder.encode(value).replace("\n", "\n" + "  " * depth)


def _check_printable(*polys: Poly) -> None:
    """Refuse, with a ValueError, polynomials that hold an integer too long to print.

    str() refuses an int of more than _max_str_digits() digits.  The
    writers print each coefficient reduced on its own.
    """
    limit = _max_str_digits()
    for poly in polys:
        # an int under 2 ** (3 * limit), which is less than 10 ** limit, prints
        if limit and poly.height().bit_length() > 3 * limit:
            bound = 10 ** limit
            if any(abs(num) >= bound or den >= bound for _, num, den in poly.canonical_terms()):
                raise ValueError(f"a coefficient has more than {limit} digits, past the limit "
                                 f"sys.get_int_max_str_digits() = {limit}")


class UnprintableDifference(ValueError):
    """A report's difference holds an integer too long to print.

    The worker that renders the report raises it, and `main` refuses the
    run with it as a usage error: the grid is too large to write.
    """


def _difference(report: IdentityReport) -> Poly:
    # the report's difference, checked by _check_printable as it is written;
    # zero, the difference of most reports, prints
    difference = report.difference
    if difference:
        try:
            _check_printable(difference)
        except ValueError as exc:
            raise UnprintableDifference(
                f"cannot print the difference of {report.tag.value} "
                f"{_report_params_text(report)} [{report.variant}]: {exc}") from None
    return difference


def _joined(brackets: str, entries: list[str], newline: str) -> str:
    # the object ("{}") or array ("[]") of `entries` already written, which
    # starts on the line whose newline and indentation is `newline`
    if not entries:
        return brackets
    inner = newline + "  "
    return brackets[0] + inner + ("," + inner).join(entries) + newline + brackets[1]


def _write_document(entries: dict[str, str]) -> None:
    # write the top-level object of `entries`, each value written one level
    # deep, piece by piece: the audit's reports are most of a document
    # that no second copy needs to hold
    sep = "{\n  "
    for key in sorted(entries):
        sys.stdout.write(f"{sep}{_json_str(key)}: ")
        sys.stdout.write(entries[key])
        sep = ",\n  "
    sys.stdout.write("\n}\n")


# The templates below write what _dumped writes for a polynomial and a
# report, without building the dicts first.  tests/test_cli.py pins them
# to json.dumps of Poly.to_json_obj() and IdentityReport.to_json_obj(), and
# checks that every JSON document parses back to the bytes json.dumps
# writes for it.  A term is joined from per-variable fragments of its
# powers, kept in exactalg.PowerTable tables: "z^3 " of its text monomial
# (exactalg.TEXT_POWERS) and ',\n<indentation>"z": 3' of its "exps" object.


@functools.lru_cache(maxsize=8)
def _exps_powers(depth: int) -> dict[str, PowerTable]:
    # each variable's fragments of the "exps" object of a term `depth` levels deep
    entry = ",\n" + "  " * (depth + 2)
    return {name: PowerTable(lambda e, head=f"{entry}{_json_str(name)}: ": f"{head}{e}")
            for name in VAR_NAMES}


def _term_items(poly: Poly, depth: int) -> tuple[list[str], list[tuple[str, str, str]]]:
    # in one pass over the canonical terms: the items of to_json_obj() of
    # `poly`, as an array `depth` levels deep holds them, and its terms as
    # terms_text reads them; each integer is written once for both, and
    # each monomial joined from the fragments of the variables `poly` uses
    if not poly:
        return [], []
    newline = "\n" + "  " * depth
    inner = newline + "  "
    used = poly.variables()
    exps_powers = _exps_powers(depth)
    # the "exps" entries in the sorted order of their names, as sort_keys lists them
    exps_parts = [(field_shift(name), exps_powers[name]) for name in sorted(used)]
    text_parts = [(field_shift(name), TEXT_POWERS[name]) for name in VAR_NAMES if name in used]
    head = f'{{{inner}"den": "'
    exps_head = f'",{inner}"exps": '
    num_head = f',{inner}"num": "'
    tail = f'"{newline}}}'
    terms = poly.packed_terms()
    keys = [key for key, _, _ in terms]
    items, texts = [], []
    for (_, num, den), exps, mono in zip(terms, joined_powers(keys, exps_parts),
                                         joined_powers(keys, text_parts)):
        num, den = str(num), str(den)
        if exps:
            items.append(f"{head}{den}{exps_head}{{{exps[1:]}{inner}}}{num_head}{num}{tail}")
        else:
            items.append(f"{head}{den}{exps_head}{{}}{num_head}{num}{tail}")
        texts.append((mono[:-1], num, den))
    return items, texts


def _poly_entries(poly: Poly, depth: int) -> list[str]:
    # the "terms" and "text" entries of a polynomial's object on a line
    # `depth` levels deep
    items, texts = _term_items(poly, depth + 2)
    # the text first, and its terms freed before the items are joined: the
    # process then peaks lower on a large polynomial
    text = _json_str(terms_text(texts))
    del texts
    terms = _joined("[]", items, "\n" + "  " * (depth + 1))
    return [f'"terms": {terms}', f'"text": {text}']


def _poly_json(poly: Poly, depth: int, *first: str) -> str:
    # a polynomial as an object on a line `depth` levels deep: the entries
    # `first`, already written, whose keys sort before "terms", then its
    # terms and its text
    return _joined("{}", [*first, *_poly_entries(poly, depth)], "\n" + "  " * depth)


def _report_json(report: IdentityReport, depth: int) -> str:
    # the report as an item of an array `depth` levels deep
    newline = "\n" + "  " * depth
    inner = newline + "  "
    params = _joined("{}", report.param_entries(), inner)
    difference = _joined("[]", _term_items(_difference(report), depth + 2)[0], inner)
    series_order = "null" if report.series_order is None else report.series_order
    return (
        f'{{{inner}"difference": {difference},'
        f'{inner}"known_misprint": {"true" if report.known_misprint else "false"},'
        f'{inner}"notes": {_json_str(report.notes)},{inner}"params": {params},'
        f'{inner}"series_order": {series_order},{inner}"status": {_json_str(report.status)},'
        f'{inner}"tag": {_json_str(report.tag.value)},'
        f'{inner}"variant": {_json_str(report.variant)}{newline}}}'
    )


def _csv_document(label: str, columns: tuple[str, ...], parts) -> str:
    # one row per term of each (name, poly) in `parts`: the name under
    # `label`, the exponents of `columns`, the numerator and denominator;
    # plain joins, since every field is an integer or a bare identifier
    lines = [",".join([label, *columns, "num", "den"])]
    indices = [VAR_NAMES.index(name) for name in columns]
    for name, poly in parts:
        for exps, num, den in poly.canonical_terms():
            stray = [VAR_NAMES[i] for i, e in enumerate(exps) if e and i not in indices]
            if stray:
                raise ValueError(f"polynomial contains unexpected variables {stray}")
            lines.append(",".join([name, *(str(exps[i]) for i in indices), str(num), str(den)]))
    return "\n".join(lines) + "\n"


def _report_params_text(report: IdentityReport) -> str:
    params = report.params_json()
    return " ".join(f"{key}={params[key]}" for key in CHECKS[report.tag].keys)


def _report_text(report: IdentityReport) -> str:
    text = (
        f"{report.status:<10} {report.tag.value:<18} "
        f"{_report_params_text(report)}  [{report.variant}]\n"
    )
    if report.status == STATUS_FAIL:
        text += f"    difference: {_difference(report).text()}\n"
    if report.notes:
        text += f"    notes: {report.notes}\n"
    return text


def _failure_text(report: IdentityReport) -> str:
    # the audit's text lists the failed reports only
    return _report_text(report) if report.status == STATUS_FAIL else ""


def _summary_text(summary: dict) -> str:
    return (
        "summary: total={total} exact_pass={exact_pass} series_pass={series_pass} "
        "fail={fail} known_misprints={known_misprints} "
        "effective_fail={effective_fail}\n".format(**summary)
    )


def _report_junit(report: IdentityReport) -> str:
    # the XML writer loads only for the JUnit format
    import xml.etree.ElementTree as ET

    case = ET.Element(
        "testcase",
        classname=report.tag.value,
        name=f"{_report_params_text(report)} [{report.variant}]",
    )
    if report.status == STATUS_FAIL:
        if report.known_misprint:
            ET.SubElement(case, "skipped", message=report.notes or "known misprint")
        else:
            failure = ET.SubElement(case, "failure", message="nonzero difference")
            failure.text = _difference(report).text()
    return ET.tostring(case, encoding="unicode")


def _junit_document(cases: list[str], summary: dict) -> str:
    # the testsuite element as ElementTree writes it around its (never
    # zero) cases; a known misprint is a skipped case, any other Fail a failure
    suite = (
        '<testsuite name="identity-verify" tests="{total}" failures="{effective_fail}" '
        'skipped="{known_misprints}">'.format(**summary)
    )
    return '<?xml version="1.0" encoding="utf-8"?>\n' + suite + "".join(cases) + "</testsuite>\n"


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------

def _usage(message) -> int:
    # a usage error: one line on stderr, and exit 2
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_compute(args) -> int:
    try:
        params = FamilyParams(args.p, args.q, args.n, args.m)
    except InvalidParamsError as exc:
        return _usage(exc)

    # a bound value is raised to at most the member's top power of its variable
    tops = {"z": args.n, "w": args.m, "g": params.k_max}
    for var, value in (args.subst or {}).items():
        bits = tops[var] * max(abs(value.numerator), value.denominator).bit_length()
        if bits > MAX_POWER_BITS:
            return _usage(f"--subst {var} too large: raised to the power {tops[var]}, about "
                          f"{bits} bits, more than MAX_POWER_BITS = {MAX_POWER_BITS}")

    names = tuple(STRATEGIES) if args.strategy == "all" else (args.strategy,)
    results = []
    for name in names:
        try:
            poly = STRATEGIES[name](params)
            if args.subst:
                poly = poly.subst(args.subst)
            _check_printable(poly)
        except UnsupportedRepresentationError as exc:
            if args.strategy == "all":
                continue
            return _usage(exc)
        except ValueError as exc:
            # a degree past the kernel bound, or a coefficient too long to print
            return _usage(exc)
        results.append((name, poly))

    if args.format == "json":
        # the strategies agree, so each distinct result is written once
        written: list[tuple[Poly, list[str]]] = []
        items = []
        for name, poly in results:
            entries = next((entries for other, entries in written if other == poly), None)
            if entries is None:
                entries = _poly_entries(poly, 2)
                written.append((poly, entries))
            items.append(_joined("{}", [f'"strategy": {_json_str(name)}', *entries], "\n    "))
        _write_document({
            "params": _dumped({"p": args.p, "q": args.q, "n": args.n, "m": args.m}, 1),
            "results": _joined("[]", items, "\n  "),
            "substitution": _dumped(args.subst, 1),
        })
    elif args.format == "csv":
        sys.stdout.write(_csv_document("strategy", ("z", "w", "g"), results))
    else:
        show = Poly.latex if args.format == "latex" else Poly.text
        if len(results) == 1:
            sys.stdout.write(show(results[0][1]) + "\n")
        else:
            sys.stdout.write("".join(f"{name}: {show(poly)}\n" for name, poly in results))
    return EXIT_OK


def _make_ranges(args) -> GridRanges:
    return GridRanges(
        n_max=args.nmax,
        m_max=args.mmax,
        pq_pairs=args.pq,
        aux_max=args.aux_max,
        jk_max=args.jk_max,
        series_order=args.order,
    )


def _warn_unchecked(tags: list) -> None:
    # the tags the grid gives no cells pass no check; say so off stdout
    if tags:
        names = ", ".join(tag.value for tag in tags)
        print(f"warning: the grid gives no cells to {names}; they are unchecked",
              file=sys.stderr)


def _cmd_verify(args) -> int:
    if args.tag == "all":
        tags = None
    else:
        try:
            tags = {parse_tag(args.tag)}
        except ValueError as exc:
            return _usage(exc)
    try:
        ranges = _make_ranges(args)
    except ValueError as exc:
        return _usage(exc)
    unchecked = unchecked_tags(tags, ranges)
    if unchecked and tags is not None:
        # a verify that checked nothing must not read as a pass
        return _usage(f"the grid gives {unchecked[0].value} no cells; nothing to verify")
    _warn_unchecked(unchecked)
    # the workers render each report; the document is an array of them
    render = {
        "json": functools.partial(_report_json, depth=1),
        "junit": _report_junit,
        "text": _report_text,
    }[args.format]
    reports = audit_grid(tags, ranges, policy=args.variant, jobs=args.jobs, render=render)
    summary = summarize(reports)
    texts = [report.text for report in reports]
    if args.format == "json":
        sys.stdout.write(_joined("[]", texts, "\n") + "\n")
    elif args.format == "junit":
        sys.stdout.write(_junit_document(texts, summary))
    else:
        sys.stdout.write("".join(texts) + _summary_text(summary))
    return EXIT_FAIL if summary["effective_fail"] else EXIT_OK


def _cmd_audit(args) -> int:
    try:
        ranges = _make_ranges(args)
    except ValueError as exc:
        return _usage(exc)
    _warn_unchecked(unchecked_tags(None, ranges))
    # the workers render each report: as an item of the document's
    # "reports" array, two levels deep, or as text if it failed
    render = functools.partial(_report_json, depth=2) if args.format == "json" else _failure_text
    reports, heat = audit_grid(
        None, ranges, policy=args.variant, jobs=args.jobs, render=render,
        heat=(args.seed, args.trials),
    )
    summary = summarize(reports)
    texts = [report.text for report in reports]
    failed = summary["effective_fail"] > 0 or bool(heat["failures"])
    if args.format == "json":
        _write_document({
            "grid": _dumped(ranges.as_dict(), 1),
            "heat": _dumped(heat, 1),
            "policy": _json_str(args.variant),
            "reports": _joined("[]", texts, "\n  "),
            "summary": _dumped(summary, 1),
        })
    else:
        sys.stdout.write("".join([
            *texts,
            _summary_text(summary),
            f"heat: seed={heat['seed']} trials={heat['trials']} cases={heat['cases']} "
            f"failures={len(heat['failures'])}\n",
            *(f"    {line}\n" for line in heat["failures"]),
        ]))
    return EXIT_FAIL if failed else EXIT_OK


def _cmd_heat(args) -> int:
    try:
        initial = parse_poly_expr(args.initial)
        problem = HeatProblem(args.p, args.q, args.c, initial)
        # the solution's t^0 part is the datum; every c that parses prints
        _check_printable(problem.initial)
    except (ExprError, InvalidParamsError, ValueError) as exc:
        return _usage(exc)
    u = solve(problem)
    res = residual(problem, u)
    try:
        _check_printable(u, res)
    except ValueError as exc:
        return _usage(exc)

    if args.format == "json":
        _write_document({
            "c": _dumped(problem.c, 1),
            "initial": _poly_json(problem.initial, 1),
            "p": _dumped(args.p, 1),
            "q": _dumped(args.q, 1),
            "residual": _poly_json(res, 1),
            "solution": _poly_json(u, 1),
        })
    elif args.format == "csv":
        parts = (("solution", u), ("residual", res))
        sys.stdout.write(_csv_document("part", ("z", "w", "t"), parts))
    else:
        show = Poly.latex if args.format == "latex" else Poly.text
        sys.stdout.write(f"solution: {show(u)}\nresidual: {show(res)}\n")
    return EXIT_OK


# ---------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------

def _arg_type(parse, **bounds):
    """`parse`, given `bounds`, as an argparse type whose ValueError message reaches the user."""
    @functools.wraps(parse)
    def parse_arg(text: str):
        try:
            return parse(text, **bounds)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse_arg


_integer = _arg_type(parse_integer)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with its two echoes of a refused value cut by `quoted`.

    Subparsers are built from the same class, so the cut holds for every
    subcommand.  The messages are argparse's own otherwise.
    """

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {quoted(value)} (choose from {choices})"
            )

    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            text = " ".join(extras)
            self.error(f"unrecognized arguments: {text if len(text) <= 40 else quoted(text)}")
        return args


def _add_grid_flags(sub: argparse.ArgumentParser) -> None:
    # the defaults are GridRanges' own, so a bare audit or verify sweeps GridRanges()
    sub.add_argument(
        "--nmax", type=_integer, default=GridRanges.n_max, help="largest first index n"
    )
    sub.add_argument(
        "--mmax", type=_integer, default=GridRanges.m_max, help="largest second index m"
    )
    sub.add_argument(
        "--pq",
        type=_arg_type(parse_pq_list),
        default=GridRanges.pq_pairs,
        help="semicolon-separated derivative orders, e.g. '1,1;2,1'",
    )
    sub.add_argument(
        "--aux-max", type=_integer, default=GridRanges.aux_max, help="largest shifted index n', m'"
    )
    sub.add_argument(
        "--jk-max", type=_integer, default=GridRanges.jk_max, help="largest derivative/weight order"
    )
    sub.add_argument(
        "--order", type=_integer, default=GridRanges.series_order, help="series truncation order"
    )
    sub.add_argument(
        "--variant",
        choices=POLICIES,
        default="auto",
        help="printed form, corrected form, both, or printed-else-corrected",
    )
    sub.add_argument(
        "--jobs", type=_arg_type(parse_integer, least=1, most=MAX_JOBS), default=1,
        help=f"worker processes (1 to {MAX_JOBS})",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every `main` call: do not mutate it."""
    parser = _Parser(
        prog="gouldhopper",
        description=(
            "Exact construction and identity auditing for two-variable "
            "Gould-Hopper polynomials, and exact solutions of the "
            "associated higher-order heat equation."
        ),
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    compute = subparsers.add_parser(
        "compute", help="construct one family member by any strategy"
    )
    compute.add_argument("--p", type=_integer, required=True)
    compute.add_argument("--q", type=_integer, required=True)
    compute.add_argument("--n", type=_integer, required=True)
    compute.add_argument("--m", type=_integer, required=True)
    compute.add_argument(
        "--strategy",
        choices=tuple(STRATEGIES) + ("all",),
        default="explicit",
    )
    compute.add_argument(
        "--subst", type=_arg_type(parse_subst), default=None,
        help="partial substitution, e.g. 'z=1/2,w=2,gamma=3'",
    )
    compute.add_argument(
        "--format", choices=("text", "json", "csv", "latex"), default="text"
    )
    compute.set_defaults(handler=_cmd_compute)

    verify = subparsers.add_parser(
        "verify", help="check identities on a parameter grid"
    )
    verify.add_argument("--tag", default="all", help="identity tag name, or 'all'")
    _add_grid_flags(verify)
    verify.add_argument(
        "--format", choices=("text", "json", "junit"), default="text"
    )
    verify.set_defaults(handler=_cmd_verify)

    audit = subparsers.add_parser(
        "audit",
        help="run the whole identity catalog plus the heat property suite",
    )
    _add_grid_flags(audit)
    audit.add_argument("--seed", type=_integer, default=0, help="seed for the property suite")
    audit.add_argument(
        "--trials", type=_arg_type(parse_integer, least=1), default=25,
        help="random initial data count (>= 1)",
    )
    audit.add_argument("--format", choices=("text", "json"), default="json")
    audit.set_defaults(handler=_cmd_audit)

    heat = subparsers.add_parser(
        "heat", help="solve the higher-order heat equation for polynomial data"
    )
    heat.add_argument("--p", type=_integer, required=True)
    heat.add_argument("--q", type=_integer, required=True)
    heat.add_argument("--c", type=_arg_type(parse_rational), default=Fraction(1))
    heat.add_argument("--initial", required=True, help="polynomial in z and w")
    heat.add_argument(
        "--format", choices=("text", "json", "csv", "latex"), default="text"
    )
    heat.set_defaults(handler=_cmd_heat)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize other codes
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except UnprintableDifference as exc:
        return _usage(exc)
    except Exception as exc:
        # a fault of the program, in this process or a worker: exit 1
        # would read as a failed identity
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
