"""Exact truncated power series in z over Q[u, s, t].

Coefficients are sparse polynomials in three markers: u tracks the end level
of a walk, s the number of DU factors (valleys) and t the number of UD
factors (peaks).  Series are dense lists of such polynomials indexed by the
power of z, each carrying a truncation order; arithmetic results carry the
minimum order of the operands.  All arithmetic is exact (ints and Fractions,
never floats); a value that is neither an int nor a Fraction is refused
with TypeError wherever one is given as a coefficient or substituted.
Terms become a series in one place, _terms_at: Poly(), Series.from_terms,
Series.from_json, Poly.substitute and Series.specialize go through it, as
do the pipeline's constants, so one loop sums like terms, refuses a bad
exponent or coefficient and substitutes numeric values.  Products,
quotients and roots (``__mul__``, ``div``, ``sqrt``) share one way into the
integers and one way out: the operands are cleared by one common
denominator d (_cleared) and, where a recurrence divides, taken to z/c
(_scaled); the work runs on ints, and _unscaled divides each z^n
coefficient by d*c^n once, at the end.  The division runs at c = the
divisor's cleared constant term, the root at c = 4q.  Every writer
(to_text, to_json_text, str(Poly), Poly.terms()) lists a coefficient's
terms by ascending total degree, then descending exponents of u, s and t,
in the order _display_order ranks an answer's distinct monomials in, once
per call.  A series is never changed once built, so the two series writers
build their text once per series and keep it for every later call.

The second half of the module is the generating-function pipeline.  Its
constants depend on the variant only through a = 1 (plain) or 2 (skew): with
E = (1-s)*(1-t) + a - 1, the kernel quadratic's linear coefficient is
P = 1 - z + z^2*(a - s*t) + z^3*E and the total's numerator starts from
N = 1 - z^2*E.  The grand total T and its u = 0 value C0 come straight
from the functional equation, one coefficient of z at a time, with no
series division and no series root: C0 from the root W of a discriminant of
degree 6 in z, by a recurrence that reads the last six coefficients of W,
and T from a three-term recurrence whose leading coefficient is u.
Symbolically, dividing by s or by u is a shift of its exponent, and a
remainder free of it (C0 or a constant is wrong) raises.  The same formulas
serve both variants.  The layers of walks grouped by the layer their last
step put them in (F after an up step, G after a horizontal step or at the
start, H after a down step, K after a left-down step) follow from the total
and are built only when read; only F and K divide, by the kernel factor
z*r1 - z*u, where z*r1 = P - z^2*rho, rho = r2/z = D + (s + z*D)*C0, is one
series product with C0 (r2 and W = 2*z*r1 - P follow by subtraction).  The
boundary values are the same closed form at u = 0.
Numeric u, sigma and tau go in before the work: they are substituted into
the constants the pipeline starts from, so it runs on polynomials in fewer
variables and gives the full result specialized (see the kernel pipeline
comment for the formulas and why they hold).  C0 and the total run in
integers at any values: with q the lcm of the values' denominators they are
worked out at z/q, where every constant has integer coefficients, and their
z^n coefficients are divided by q^n once, at the end, by the same _unscaled
(as are the DP's); the total reads C0's term dicts as they are when q = 1
and takes them back to z/q through _scaled otherwise.  Both recurrences
pack one variable (Kronecker substitution): the total is dense in u, so
its recurrence holds each coefficient as one int per monomial in s and t,
the u-polynomial evaluated at u = 2^width; W's recurrence and the C0 step
hold one int per power of t, the s-polynomial at s = 2^width, or with
sigma numeric one int, the t-polynomial.  Each width is proven to hold
every value, every division by an integer is exact slot by slot, and each
coefficient is unpacked once, at the end.  The two recurrences share their
constant packer (_packed) and their division by the packed variable
(_divided_by_slot).
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from . import _speedups
from .paths import Variant

Rat = Union[int, Fraction]

DEFAULT_ORDER = 24

# entries kept by each of the closed-form and DP LRU caches.  A
# specialize-warm session (perfbench, seeds 11-13) uses 15 closed-form keys
# and 31-32 DP keys, so the DP cache runs at this bound.  A cached series
# also keeps the text and JSON its writers built (see Series), so this bound
# holds those too: at order 60, skew and symbolic, the closed form takes
# about 27 MB, its text 6.6 MB and its JSON 22.5 MB.  Keys are typed so
# that a float never shares the entry of an equal int and slips past the
# exactness check.  Boundary values are not cached: no workload repeats one.
CACHE_SIZE = 32

# exponent triples (e_u, e_s, e_t) are packed into one int so that monomial
# products become integer additions
_SHIFT = 21
_MASK = (1 << _SHIFT) - 1


def default_order() -> int:
    """Truncation order used by the CLI: MOTZKIN_ORDER env var or 24."""
    text = os.environ.get("MOTZKIN_ORDER")
    if text is None:
        return DEFAULT_ORDER
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"MOTZKIN_ORDER must be an integer, got {text!r}") from None
    if value < 0:
        raise ValueError("MOTZKIN_ORDER must be nonnegative")
    return value


def _pack(eu: int, es: int, et: int) -> int:
    if (eu | es | et) >> _SHIFT:
        raise ValueError(f"exponent out of range: {(eu, es, et)}")
    return eu | (es << _SHIFT) | (et << (2 * _SHIFT))


def _unpack(key: int) -> tuple[int, int, int]:
    return key & _MASK, (key >> _SHIFT) & _MASK, key >> (2 * _SHIFT)


def _canon(value: Rat) -> Rat:
    """Canonical coefficient: plain int whenever the denominator is 1."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return value
    raise TypeError(f"coefficients must be int or Fraction, got {type(value)!r}")


def require_exact(value: Optional[Rat]) -> None:
    """Refuse a value to substitute unless it is None (keep the variable),
    an int or a Fraction."""
    if value is not None and not isinstance(value, (int, Fraction)):
        raise TypeError(f"values must be int or Fraction, got {type(value)!r}")


def _display_order(polys: Iterable[Poly]) -> dict[int, int]:
    """{packed key: rank} of the monomials the polys hold, ranked once in
    display order: ascending total degree, then descending e_u, e_s, e_t.
    The dict runs in rank order, and a poly's terms in display order are
    sorted(terms, key=rank.__getitem__), a sort of small ints.  Nothing is
    kept between calls."""

    def degree_then_descending(key: int) -> tuple[int, int, int, int]:
        eu, es, et = key & _MASK, key >> _SHIFT & _MASK, key >> 2 * _SHIFT
        return eu + es + et, -eu, -es, -et

    keys = set().union(*[poly._terms for poly in polys])
    return {key: r for r, key in enumerate(sorted(keys, key=degree_then_descending))}


def _monomial(key: int) -> str:
    """The text of a packed monomial, u^a*s^b*t^c, with no factor of
    exponent 0 and no ^1 ("" for the monomial 1)."""
    eu, es, et = _unpack(key)
    names = []
    if eu:
        names.append("u" if eu == 1 else f"u^{eu}")
    if es:
        names.append("s" if es == 1 else f"s^{es}")
    if et:
        names.append("t" if et == 1 else f"t^{et}")
    return "*".join(names)


def _poly_text(terms: dict[int, Rat], rank: dict[int, int], monos: list[str]) -> str:
    """The text of a term dict, its monomials written as monos[rank]."""
    if not terms:
        return "0"
    parts = []
    for key in sorted(terms, key=rank.__getitem__):
        value = terms[key]
        mono = monos[rank[key]]
        if value.numerator < 0:  # int or Fraction; skips Fraction.__lt__
            parts.append(" - ")
            value = -value
        else:
            parts.append(" + ")
        if not mono:
            parts.append(str(value))
        elif value == 1:
            parts.append(mono)
        else:
            parts.append(f"{value}*{mono}")
    parts[0] = "-" if parts[0] == " - " else ""  # the lead term's sign
    return "".join(parts)


class Poly:
    """Sparse polynomial in u, s, t with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[tuple[int, int, int], Rat]] = ()):
        """Like terms are summed and zeros dropped, as by _terms_at."""
        terms = ((0, eu, es, et, coeff) for (eu, es, et), coeff in terms)
        self._terms = _terms_at(0, terms)._coeffs[0]._terms

    @classmethod
    def _raw(cls, terms: dict[int, Rat]) -> "Poly":
        """Wrap an already-clean term dict without copying."""
        poly = cls.__new__(cls)
        poly._terms = terms
        return poly

    @classmethod
    def zero(cls) -> "Poly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "Poly":
        return cls._raw({0: 1})

    @classmethod
    def constant(cls, value: Rat) -> "Poly":
        return cls([((0, 0, 0), value)])

    @classmethod
    def monomial(cls, coeff: Rat, eu: int = 0, es: int = 0, et: int = 0) -> "Poly":
        return cls([((eu, es, et), coeff)])

    def is_zero(self) -> bool:
        return not self._terms

    def as_constant(self) -> Optional[Fraction]:
        """The value if the polynomial is constant (including zero), else None."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1 and 0 in self._terms:
            return Fraction(self._terms[0])
        return None

    def coefficient(self, eu: int = 0, es: int = 0, et: int = 0) -> Fraction:
        return Fraction(self._terms.get(_pack(eu, es, et), 0))

    def terms(self) -> list[tuple[tuple[int, int, int], Rat]]:
        """Terms in display order (degree, then u > s > t descending)."""
        return [(_unpack(key), self._terms[key]) for key in _display_order((self,))]

    def degrees(self) -> tuple[int, int, int]:
        """Maximum exponent of u, s, t (0, 0, 0 for the zero polynomial)."""
        du = ds = dt = 0
        for key in self._terms:
            eu, es, et = _unpack(key)
            du = max(du, eu)
            ds = max(ds, es)
            dt = max(dt, et)
        return du, ds, dt

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        acc = dict(self._terms)
        for key, value in other._terms.items():
            acc[key] = acc.get(key, 0) + value
        return Poly._raw(_speedups.clean_terms(acc))

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "Poly":
        return Poly._raw({k: -v for k, v in self._terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly._raw(_speedups.poly_mul(self._terms, other._terms))

    def scale(self, value: Rat) -> "Poly":
        value = _canon(value)
        if value == 0:
            return Poly.zero()
        if value == 1:
            return self
        return Poly._raw({k: _canon(v * value) for k, v in self._terms.items()})

    def substitute(
        self,
        u: Optional[Rat] = None,
        sigma: Optional[Rat] = None,
        tau: Optional[Rat] = None,
    ) -> "Poly":
        """Evaluate some of the variables at exact rational values (see
        _terms_at); with none given, the polynomial itself."""
        if u is None and sigma is None and tau is None:
            return self
        return _terms_at(0, _flat_terms((self,)), sigma, tau, u)._coeffs[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        rank = _display_order((self,))
        return _poly_text(self._terms, rank, list(map(_monomial, rank)))

    def __repr__(self) -> str:
        return f"Poly({self})"


def _flat_terms(polys: Iterable[Poly]) -> Iterator[tuple[int, int, int, int, Rat]]:
    """The (z power, e_u, e_s, e_t, coeff) terms of polys[n] taken at z^n."""
    return (
        (n, key & _MASK, key >> _SHIFT & _MASK, key >> 2 * _SHIFT, value)
        for n, poly in enumerate(polys)
        for key, value in poly._terms.items()
    )


def _nonzero(coeffs: Iterable[dict], start: int = 0) -> list[tuple[int, dict]]:
    """(z power, term dict) of the nonzero term dicts from z^start on."""
    return [(k, terms) for k, terms in enumerate(coeffs) if k >= start and terms]


def _add_products(
    acc: dict[int, Rat],
    pairs: list[tuple[int, dict]],
    seq: Sequence[dict],
    n: int,
    negate: bool = False,
) -> None:
    """Add the sum of terms * seq[n - j] over the (j, terms) pairs with
    j <= n into acc (negated if asked); pairs ascend in j."""
    for j, terms in pairs:
        if j > n:
            break
        other = seq[n - j]
        if other:
            _speedups.poly_acc(acc, terms, other, negate)


def _scaled(
    coeffs: Iterable[dict[int, Rat]], scale: int, d: int = 1
) -> list[dict[int, int]]:
    """The z^n term dict times d*scale^n, all ints: the way into the
    integers, for a series taken to z/scale and cleared by d.  Every
    denominator of the z^n coefficient must divide d*scale^n."""
    return [
        {key: v.numerator * (mult // v.denominator) for key, v in terms.items()}
        for n, terms in enumerate(coeffs)
        for mult in (d * scale**n,)
    ]


def _cleared(*operands: Sequence[Poly]) -> tuple[list[list[dict[int, int]]], int]:
    """(each operand's term dicts times d, all ints; d), d the lcm of the
    denominators of all their values."""
    terms = [[c._terms for c in coeffs] for coeffs in operands]
    d = math.lcm(*(v.denominator for op in terms for t in op for v in t.values()))
    return [_scaled(op, 1, d) for op in terms], d


def _divide(terms: dict[int, int], d: int, name: str) -> dict[int, int]:
    """terms / d with the zeros dropped, in integers: a remainder raises
    ArithmeticError, which names the series whose coefficient was divided."""
    out = {}
    for key, value in terms.items():
        quot, rem = divmod(value, d)
        if rem:
            raise ArithmeticError(f"{d} does not divide a coefficient of {name}")
        if quot:
            out[key] = quot
    return out


def _divide_slots(
    terms: dict[int, int], d: int, name: str, width: int, count: int
) -> dict[int, int]:
    """_divide on values packed at 2^width in count signed slots, exact slot
    by slot: a packed remainder alone sees only the low slot when d is a
    power of two.  With b = width - 2 - bitlen(d), every slot of a quotient
    must lie in [-2^b, 2^b), tested at once by adding 2^b to every slot and
    masking the bits above b + 1 of each slot and all bits above the count.
    That holds when every dividend slot lies strictly inside +-2^(width - 3)
    and divides; and if it holds, d times each quotient slot lies strictly
    inside +-2^(width - 2), so these are the dividend's slots, and each
    divides.  At width 0 this is _divide."""
    out = _divide(terms, d, name)
    if width:
        b = width - 2 - d.bit_length()
        ones = ((1 << width * count) - 1) // ((1 << width) - 1)  # 1 in each slot
        top = (ones << width) - (ones << b + 1) | (-1 << width * count)
        offset = ones << b
        if any((value + offset) & top for value in out.values()):
            raise ArithmeticError(f"{d} does not divide a coefficient of {name}")
    return out


def _sqrt_terms(
    radicand: list[dict[int, int]], width: int = 0, count: int = 0
) -> Iterator[dict]:
    """The coefficients of the root W of a radicand with constant term 1, in
    order, as far as they are read: J. C. P. Miller's recurrence for a power
    of a series (Knuth, TAOCP vol. 2, 4.7),
        2m*W[m] = sum_{k>=1} (3k - 2m)*radicand[k]*W[m-k],
    divided by _divide_slots, so W must be integral.  The values are ints,
    or packed at 2^width in count signed slots (see boundary_values).  Only
    the last len(radicand) - 1 coefficients are kept, so a polynomial
    radicand runs in a fixed window."""
    window = [{0: 1}]  # W[m-k] is window[-k]
    for m in itertools.count(1):
        yield window[-1]
        acc: dict[int, int] = {}
        for k, terms in enumerate(radicand[1 : m + 1], 1):
            if 3 * k != 2 * m and terms and window[-k]:
                scaled = {key: (3 * k - 2 * m) * value for key, value in terms.items()}
                _speedups.poly_acc(acc, scaled, window[-k])
        root = _divide_slots(acc, 2 * m, "W", width, count)
        window = (window + [root])[1 - len(radicand) :]


class Series:
    """Truncated power series in z with Poly coefficients.

    A series is never changed once built: nothing writes to its order, its
    coefficient tuple or the term dicts of its coefficients.  So each writer,
    to_text and to_json_text, builds its string on its first call and keeps
    it in a slot of its own, which every later call returns; the text lives
    as long as the series does.
    """

    __slots__ = ("_coeffs", "order", "_text", "_json_text")

    def __init__(self, coeffs: Iterable[Poly], order: Optional[int] = None):
        coeffs = tuple(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) != order + 1:
            raise ValueError(f"need {order + 1} coefficients, got {len(coeffs)}")
        self._coeffs = coeffs
        self.order = order

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls((Poly.zero(),) * (order + 1), order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls((Poly.one(),) + (Poly.zero(),) * order, order)

    @classmethod
    def z(cls, order: int) -> "Series":
        return cls.from_terms(order, [(1, 0, 0, 0, 1)])

    @classmethod
    def constant_poly(cls, poly: Poly, order: int) -> "Series":
        return cls((poly,) + (Poly.zero(),) * order, order)

    @classmethod
    def from_terms(
        cls, order: int, terms: Iterable[tuple[int, int, int, int, Rat]]
    ) -> "Series":
        """Build from (z power, e_u, e_s, e_t, coeff) tuples (see _terms_at).

        Terms beyond the truncation order are dropped, which is what
        truncation means.
        """
        return _terms_at(order, terms)

    def coefficient(self, n: int) -> Poly:
        if not 0 <= n <= self.order:
            raise IndexError(f"z^{n} is beyond the truncation order {self.order}")
        return self._coeffs[n]

    def coefficients(self) -> tuple[Poly, ...]:
        return self._coeffs

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self._coeffs)

    def prefix(self, order: int) -> "Series":
        """Truncate to a lower (or equal) order."""
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        if order == self.order:
            return self
        return Series(self._coeffs[: order + 1], order)

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        order = min(self.order, other.order)
        return Series(
            tuple(a + b for a, b in zip(self._coeffs, other._coeffs)), order
        )

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "Series":
        return Series(tuple(-p for p in self._coeffs), self.order)

    def __mul__(self, other: "Series") -> "Series":
        """The product, in integers: both operands times their common
        denominator d, one division by d^2 per term at the end."""
        if not isinstance(other, Series):
            return NotImplemented
        order = min(self.order, other.order)
        (a, b), d = _cleared(self._coeffs[: order + 1], other._coeffs[: order + 1])
        pairs = _nonzero(a)
        out = []
        for n in range(order + 1):
            acc: dict[int, int] = {}
            _add_products(acc, pairs, b, n)
            out.append({key: value for key, value in acc.items() if value})
        return _unscaled(out, 1, d * d)

    def __truediv__(self, other: "Series") -> "Series":
        return self.div(other)

    def div(self, other: "Series") -> "Series":
        """Divide by a series whose constant term is a nonzero rational, in
        integers: with both cleared by their common denominator and c the
        divisor's constant term then, R = c*quotient at z/c is integral and
        solves R[n] = A[n] - sum_{k>=1} (B[k]/c)*R[n-k] (A, B at z/c), so
        each R[n] is divided by c^(n+1) once, at the end."""
        if not isinstance(other, Series):
            raise TypeError("can only divide by another Series")
        const = other._coeffs[0].as_constant()
        if const is None or const == 0:
            raise ValueError(
                "series division needs a nonzero rational constant term, got "
                f"{other._coeffs[0]}"
            )
        order = min(self.order, other.order)
        (a, b), _ = _cleared(self._coeffs[: order + 1], other._coeffs[: order + 1])
        c = b[0][0]
        # B[k]/c at z/c is b[k]*c^(k-1): pair j holds B[j+1]/c, so the sum
        # over k runs as the products up to n - 1
        pairs = _nonzero(_scaled(b[1:], c))
        quot = _scaled(a, c)
        for n in range(order + 1):
            acc = quot[n]
            _add_products(acc, pairs, quot, n - 1, negate=True)
            quot[n] = {key: value for key, value in acc.items() if value}
        return _unscaled(quot, c, c)

    def sqrt(self) -> "Series":
        """Square root of a series with constant term exactly 1.  At z/4q, q
        the lcm of the denominators, the series is 1 + 4Y with Y integral and
        its root has integer (Catalan) coefficients, so W's recurrence runs there."""
        if self._coeffs[0] != Poly.one():
            raise ValueError(
                f"series sqrt needs constant term 1, got {self._coeffs[0]}"
            )
        terms = [c._terms for c in self._coeffs]
        scale = 4 * math.lcm(*(v.denominator for t in terms for v in t.values()))
        radicand = _scaled(terms, scale)
        root = _sqrt_terms(radicand)
        return _unscaled([next(root) for _ in radicand], scale)

    def scale(self, value: Rat) -> "Series":
        return Series(tuple(p.scale(value) for p in self._coeffs), self.order)

    def shift_up(self, k: int = 1) -> "Series":
        """Multiply by z^k; the result is valid (and longer) by k orders."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return Series((Poly.zero(),) * k + self._coeffs, self.order + k)

    def specialize(
        self,
        u: Optional[Rat] = None,
        sigma: Optional[Rat] = None,
        tau: Optional[Rat] = None,
    ) -> "Series":
        """Substitute exact rational values for some of u, s, t (see
        _terms_at); with none given, the series itself."""
        if u is None and sigma is None and tau is None:
            return self
        return _terms_at(self.order, _flat_terms(self._coeffs), sigma, tau, u)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and self._coeffs == other._coeffs

    __hash__ = None  # type: ignore[assignment]

    def to_text(self) -> str:
        """One "z^n: coefficient" line per power, built once (see the class
        docstring)."""
        try:
            return self._text
        except AttributeError:
            pass
        rank = _display_order(self._coeffs)
        monos = list(map(_monomial, rank))
        self._text = text = "\n".join(
            f"z^{n}: {_poly_text(p._terms, rank, monos)}"
            for n, p in enumerate(self._coeffs)
        )
        return text

    def to_json_text(self) -> str:
        """json.dumps(self.to_json(), indent=2), written without building
        the nested lists, and built once (see the class docstring)."""
        try:
            return self._json_text
        except AttributeError:
            pass
        rank = _display_order(self._coeffs)
        # the layout json.dumps(..., indent=2) gives a term of to_json
        heads = [
            f"      [\n        [\n          {eu},\n          {es},\n"
            f'          {et}\n        ],\n        "'
            for eu, es, et in map(_unpack, rank)
        ]
        blocks = []
        for poly in self._coeffs:
            terms = poly._terms
            if not terms:
                blocks.append("    []")
                continue
            rows = ",\n".join(
                f'{heads[rank[key]]}{terms[key]}"\n      ]'
                for key in sorted(terms, key=rank.__getitem__)
            )
            blocks.append(f"    [\n{rows}\n    ]")
        coeffs = ",\n".join(blocks)
        self._json_text = text = (
            f'{{\n  "order": {self.order},\n  "coeffs": [\n{coeffs}\n  ]\n}}'
        )
        return text

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [
                [[list(exps), str(value)] for exps, value in p.terms()]
                for p in self._coeffs
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Series":
        coeffs = data["coeffs"]
        terms = (
            (n, *exps, Fraction(value))
            for n, entries in enumerate(coeffs)
            for exps, value in entries
        )
        return cls(_terms_at(len(coeffs) - 1, terms)._coeffs, data["order"])

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Series(order={self.order})"


def specialize(
    series: Series,
    u: Optional[Rat] = None,
    sigma: Optional[Rat] = None,
    tau: Optional[Rat] = None,
) -> Series:
    """Module-level alias for Series.specialize."""
    return series.specialize(u=u, sigma=sigma, tau=tau)


# ---------------------------------------------------------------------------
# kernel pipeline
#
# Grouping length-counted walks by the layer of their last step gives linear
# recurrences whose generating function F+G+H(+K) satisfies a quadratic in a
# catalytic variable u, written z*u^2 - P*u + Q.  Every constant the pipeline
# starts from is a polynomial in z, s and t that depends on the variant only
# through a = 1 (plain) or 2 (skew):
#     E   = (1-s)*(1-t) + a - 1
#     P   = 1 - z + z^2*(a - s*t) + z^3*E
#     Q/z = a - (a-1)*s*t*z^2
#     N   = 1 - z^2*E
#     D   = a - s.
# The discriminant is W^2 = P^2 - 4*z*Q.  The root r2 = (P - W)/(2z) is a
# power series divisible by z; the companion root r1 has a 1/z pole, and
# z*r1 = P - z*r2 = (P + W)/2 is the object that appears in denominators
# (constant term 1, so z*r1 - z*u is invertible as a series).
#
# The layers obey, with T = F+G+H(+K) and C0 = T(0),
#     F = z*u*(F + G + s*H)                  (no U after L)
#     G = 1 + z*T                            (H may follow any layer)
#     H = (z/u)*(t*F + G + H (+ K) - C0)     (F(0) = 0: no U ends at level 0)
#     K = (z/u)*(G + H + K - C0)             (skew; no L after U).
# Solved, each layer is a numerator over -(z*u^2 - P*u + Q) =
# -z*(u - r1)*(u - r2).  For the total, with X = N + z^2*D*C0,
#     (P*u - Q - z*u^2)*T = u*X - Q*C0.
# A layer is a power series, so its numerator vanishes at u = r2, which
# leaves a numerator over z*r1 - z*u.  T's numerator is linear in u, hence
# X*(u - r2), and T = X/(z*r1 - z*u); its u=0 instance is
# C0*(z*r1 - z^2*D) = N.
#
# The total and C0 are computed with no series division and no series root
# (Bousquet-Melou & Jehanne, JCTB 96, 2006).  W^2 = P^2 - 4*z^2*(Q/z) is a
# polynomial of degree 6 in z, so _sqrt_terms gives each W coefficient from
# the six before it, and as W = 2*z*r1 - P is integral it divides exactly.
# With rho = r2/z = (P - W)/(2z^2), the identity Q/z - D*P + z^2*D^2 =
# N*(s + z*D) of the constants and rho's equation z^2*rho^2 - P*rho + Q/z = 0
# give (rho - D)*(z*r1 - z^2*D) = N*(s + z*D), so rho = D + (s + z*D)*C0:
#     s*C0 = rho + (s - a)*G0,   G0 = 1 + z*C0 = G(0).
# Symbolically dividing by s is a shift of the s exponent, and an s-free
# remainder raises; at sigma = 0 the equation reads rho[n+1] = a*C0[n].
# The left factor of the total's equation has the z-coefficients
#     u,  -u - a - u^2,  (a - s*t)*u,  E*u + (a-1)*s*t,
# so T[n] = (R[n] - sum_{k=1..3} coeff_k*T[n-k]) / u, R = u*X - Q*C0.
# Symbolically u divides R[n] - ... exactly: its u-free part is the u-free
# part of the equation, which holds only if C0 = T(0); a remainder raises,
# which re-checks C0 at every order.  At u = 0 the total is C0, and the
# route never reads C0 off T's u^0 coefficient.
#
# F's numerator, once divided, is z*u plus a u-free part that F(0) = 0
# forces to vanish, so F = z*u/(z*r1 - z*u).  Likewise
# K = z^2*(C0 - 1)/(z*r1 - z*u), G = 1 + z*T and H is the rest of T.  Only
# these layers read z*r1, one product with C0 as rho = D + (s + z*D)*C0:
#     z*r1 = P - z^2*rho = P - z^2*D - (s*z^2 + z^3*D)*C0,
# so F and K are the only series divisions.  The boundary values are the same
# closed form at u = 0: total C0, divisor z*r1, F(0) = 0, and the same
# formulas give G(0), H(0) and K(0).  Every divisor of the layers has constant
# term 1, and the total's recurrence divides only by u, whatever s and t
# are.  So numeric u, sigma and tau are substituted into the constants the
# pipeline builds before it runs: substituting is a ring homomorphism, so each
# step, and the result, is the full symbolic one specialized (Banderier &
# Flajolet, "Basic analytic combinatorics of directed lattice paths", 2002).  A
# numeric u != 0 is divided out as a number.
#
# Values with denominators keep C0 and T in integers by one more
# homomorphism, z -> z/q with q the lcm of the denominators: the z^k
# coefficient is multiplied by q^k.  A walk of length n has at most n of
# end level, peaks and valleys together: each peak ends at a D step and each
# valley starts at one, and the end level is at most #U - #D.  So C0, T and
# W = P - 2z^2*rho stay integral at z/q, and so does every constant whose
# z^k terms carry at most k powers of u, s and t.  Only the total's z*u^2
# term breaks that, so its equation is multiplied by u's denominator r
# first; its leading coefficient r*u is then u's numerator.
#
# T's z^n coefficient is a polynomial of degree n in u, and a dense one (at
# order 28 its terms fill 99% of the u-slots their (s, t) monomials span).
# So a symbolic u is packed (Kronecker substitution in one variable;
# Harvey, "Faster polynomial multiplication via multipoint Kronecker
# substitution", JSC 44, 2009): each coefficient of T and of the constants
# is a dict from (s, t) keys to the u-polynomial evaluated at u = 2^width,
# slot e holding u^e's coefficient, signed.  Sums and products are the
# polynomials' own, being those of a ring homomorphism Z[u] -> Z; dividing
# by u is a test that the low slot is zero and a right shift.  The slots
# decode only if every coefficient of T at z/q lies strictly inside
# +-2^(width - 1), so width is one more than the bit length of
# (letters*ceil(q*M))^order, M = max(1, |sigma|, |tau|) over the numeric
# values, letters = 3 (plain) or 4 (skew): T[n] at z/q sums
# q^n*sigma^#DU*tau^#UD over at most letters^n words, and as #UD + #DU <= n
# each term is at most (q*M)^n in size (_slot_width).  A u-free remainder
# smaller than 2^width shows in the low slot, so C0 is still re-checked at
# every order.  A numeric u needs no slots: the same loop runs on plain ints
# (width 0).
#
# C0 is dense in s and t too (its terms fill about 80% of the s-slots their
# t exponents span), so boundary_values packs s when sigma is symbolic, else
# t when tau is, and runs W's recurrence and the C0 step on one int per
# exponent of the other variable; with both numeric they run on plain ints.
# Dividing by s drops the low slot, which raises unless it is zero.  The
# width holds every value they divide.  With B = letters*ceil(q*M): C0[n] at
# z/q has slots of at most B^n (as T's above), P[k] at most B^k (2/9 of it
# from k = 2 on), and 3*q*M <= B, so rho = D + (s + z*D)*C0 has slots of at
# most 2*M*B^n at z^n, and W = P - 2z^2*rho at most B^m at z^m, as
# q^2*M <= B^2/9.  W's accumulator 2m*W[m] is then at most 2m*B^m, and the
# C0 step's dividend, 2q^2*sigma's numerator*(C0[n] - G0[n]) at m = n + 2,
# at most B^(m+1); m stays below last = order + 3 (+ 1 at sigma = 0).  So
# width = _slot_width(last) + bitlen(last) + 3 keeps every dividend strictly
# inside +-2^(width - 3), which _divide_slots needs to prove each quotient
# exact slot by slot: the packed remainder sees only the low slot, so (4, 1)
# is divisible by 4 as a packed int.  The degree in the packed variable of
# a z^m coefficient is at most m, below last, so last slots hold every
# value.  Only one variable is packed in each recurrence: a box over z and
# two of u, s and t would be about 98% empty, and s nested inside T's
# u-packed ints runs slower (see the ROADMAP's measured dead ends).


def _terms_at(
    order: int,
    terms: Iterable[tuple[int, int, int, int, Rat]],
    sigma: Optional[Rat] = None,
    tau: Optional[Rat] = None,
    u: Optional[Rat] = None,
    scale: int = 1,
) -> Series:
    """The series of (z power, e_u, e_s, e_t, coeff) terms with the numeric
    ones of u, sigma and tau substituted, at z/scale: a z^k term is
    multiplied by scale^k.  Like terms are summed, zeros dropped, and terms
    beyond the order dropped.  A negative z power or exponent, or an
    exponent of 2^_SHIFT or more, raises ValueError; a coefficient that is
    not an int or a Fraction raises TypeError.

    With a scale, every term must come out an integer, as it does when the
    substituted exponents in a z^k term sum to at most k and scale is a
    multiple of the values' denominators; a term that does not raises
    ArithmeticError.  Without one, the values stay exact rationals.
    """
    for value in (u, sigma, tau):
        require_exact(value)
    # each value's numerator and denominator, read once (None: symbolic); a
    # denominator of 1 is never multiplied in
    (un, ud), (sn, sd), (tn, td) = (
        (None, 1) if value is None else (value.numerator, value.denominator)
        for value in (u, sigma, tau)
    )
    buckets: list[dict[int, Rat]] = [{} for _ in range(order + 1)]
    for zpow, eu, es, et, coeff in terms:
        if zpow > order:
            continue
        if zpow < 0 or (eu | es | et) >> _SHIFT:
            raise ValueError(f"exponent out of range: {(zpow, eu, es, et)}")
        num, den = coeff, 1
        if type(coeff) is not int:
            coeff = _canon(coeff)
            num, den = coeff.numerator, coeff.denominator
        if scale != 1:
            num *= scale**zpow
        if un is not None and eu:
            num *= un**eu
            if ud != 1:
                den *= ud**eu
            eu = 0
        if sn is not None and es:
            num *= sn**es
            if sd != 1:
                den *= sd**es
            es = 0
        if tn is not None and et:
            num *= tn**et
            if td != 1:
                den *= td**et
            et = 0
        if den != 1:
            if num % den == 0:
                num //= den
            elif scale == 1:
                num = Fraction(num, den)
            else:
                raise ArithmeticError(
                    f"the z^{zpow} term of a constant leaves the integers at "
                    f"z/{scale}"
                )
        key = eu | es << _SHIFT | et << 2 * _SHIFT
        bucket = buckets[zpow]
        bucket[key] = bucket.get(key, 0) + num
    return Series(tuple(Poly._raw(_speedups.clean_terms(b)) for b in buckets), order)


def _unscaled(coeffs: Sequence[dict[int, int]], scale: int, d: int = 1) -> Series:
    """The series whose z^n coefficient is coeffs[n] / (d*scale^n): the way
    out of the integers for a series worked out at z/scale and times d.  One
    division per term, a Fraction demoted to int where it divides; the term
    dicts must hold no zero values."""
    if scale == d == 1:
        return Series(tuple(map(Poly._raw, coeffs)))
    out = []
    for n, terms in enumerate(coeffs):
        den = d * scale**n
        divided = {}
        for key, value in terms.items():
            quot, rem = divmod(value, den)
            divided[key] = Fraction(value, den) if rem else quot
        out.append(Poly._raw(divided))
    return Series(tuple(out))


def _value_scale(*values: Optional[Rat]) -> int:
    """q, the lcm of the numeric values' denominators: at z/q every constant
    of the pipeline has integer coefficients."""
    for value in values:
        require_exact(value)
    return math.lcm(*(v.denominator for v in values if v is not None))


# a, the constant term of Q/z: the one number the two variants' constants
# differ by
_A = {Variant.PLAIN: 1, Variant.SKEW: 2}
# the letters a walk of the variant steps by: U, D, H and, skew only, L
_LETTERS = {Variant.PLAIN: 3, Variant.SKEW: 4}


_Terms = list[tuple[int, int, int, int, Rat]]


def _times(xs: _Terms, ys: _Terms) -> _Terms:
    """Product of two lists of (z power, e_u, e_s, e_t, coeff) terms; like
    terms are summed when the list becomes a Series."""
    return [
        (z1 + z2, u1 + u2, s1 + s2, t1 + t2, c1 * c2)
        for z1, u1, s1, t1, c1 in xs
        for z2, u2, s2, t2, c2 in ys
    ]


def _shifted(xs: _Terms, coeff: Rat, dz: int = 0, du: int = 0) -> _Terms:
    """The terms times coeff * z^dz * u^du."""
    return [(z + dz, eu + du, es, et, coeff * c) for z, eu, es, et, c in xs]


def _constant_terms(variant: Variant) -> tuple[_Terms, ...]:
    """The terms of P, Q/z, N and z^2*D."""
    a = _A[variant]
    e = ((0, 0, a), (1, 0, -1), (0, 1, -1), (1, 1, 1))  # E = a - s - t + s*t
    p = [(0, 0, 0, 0, 1), (1, 0, 0, 0, -1), (2, 0, 0, 0, a), (2, 0, 1, 1, -1)]
    p += [(3, 0, es, et, c) for es, et, c in e]
    q = [(0, 0, 0, 0, a), (2, 0, 1, 1, 1 - a)]
    n = [(0, 0, 0, 0, 1)] + [(2, 0, es, et, -c) for es, et, c in e]
    z2d = [(2, 0, 0, 0, a), (2, 0, 1, 0, -1)]
    return p, q, n, z2d


def kernel_sum(
    variant: Variant, order: int, sigma: Optional[Rat] = None, tau: Optional[Rat] = None
) -> Series:
    """P = z*r1 + z*r2, the linear coefficient of the kernel quadratic."""
    return _terms_at(order, _constant_terms(variant)[0], sigma, tau)


class ClosedForm:
    """The grand generating function of all walks and its layers.

    total is built with the object; the layers are built from it the first
    time they are read.  f: walks whose last step was U; g: empty walk or
    last step H; h: last step D; k: last step L (skew only, None
    otherwise).  c0 is the u=0 total, which the total's recurrence reads.
    The divisor of f and k, kernel = z*r1 - z*u with z*r1 = P - z^2*D -
    (s*z^2 + z^3*D)*c0, is built the first time one of them is read.  At
    u = 0 (see boundary_values) total is c0, kernel is z*r1 and the layers
    are the boundary values G(0), H(0), K(0).
    """

    def __init__(
        self,
        variant: Variant,
        order: int,
        total: Series,
        c0: Series,
        zu: Series,
        sigma: Optional[Rat] = None,
        tau: Optional[Rat] = None,
    ) -> None:
        # the layers below cache themselves in the same dict
        vars(self).update(variant=variant, order=order, total=total, c0=c0,
                          zu=zu, sigma=sigma, tau=tau)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of ClosedForm")

    @functools.cached_property
    def kernel(self) -> Series:
        p, _, _, z2d = _constant_terms(self.variant)
        rest, times_c0 = (
            _terms_at(self.order, t, self.sigma, self.tau)
            for t in (p + _shifted(z2d, -1), [(2, 0, 1, 0, -1)] + _shifted(z2d, -1, 1))
        )
        return rest + times_c0 * self.c0 - self.zu

    @functools.cached_property
    def f(self) -> Series:
        return self.zu / self.kernel

    @functools.cached_property
    def g(self) -> Series:
        return Series.one(self.order) + self.total.shift_up(1).prefix(self.order)

    @functools.cached_property
    def k(self) -> Optional[Series]:
        if self.variant is Variant.PLAIN:
            return None
        c0_minus_one = self.c0 - Series.one(self.order)
        return c0_minus_one.shift_up(2).prefix(self.order) / self.kernel

    @functools.cached_property
    def h(self) -> Series:
        rest = self.total - self.f - self.g
        return rest if self.k is None else rest - self.k


def boundary_values(
    variant: Variant, order: int, sigma: Optional[Rat] = None, tau: Optional[Rat] = None
) -> ClosedForm:
    """The closed form at u = 0: total C0 and, when read, G(0), H(0), K(0).

    C0 comes from W by 2s*(C0[n] - G0[n]) = P[n+2] - W[n+2] - 2a*G0[n] (see
    the kernel pipeline comment), each coefficient as soon as W's is known.
    Numeric sigma and tau are substituted first, as in the whole pipeline,
    and the work runs at z/q, with q the lcm of their denominators, so every
    division is exact in integers and a remainder raises ArithmeticError.
    A symbolic sigma is packed, else a symbolic tau: every coefficient is a
    dict of keys free of it to one int, every division is exact slot by slot
    (_divide_slots), and dividing by s drops the low slot, which raises if
    it is not zero.  Each coefficient of C0 is unpacked and divided by q^n
    once, at the end.
    """
    a = _A[variant]
    scale = _value_scale(sigma, tau)
    last = order + (4 if sigma == 0 else 3)
    field = _SHIFT if sigma is None else 2 * _SHIFT  # s's bits in a key, else t's
    width = 0
    if sigma is None or tau is None:  # every value lies inside +-2^(width - 3)
        width = _slot_width(variant, last, scale, sigma, tau) + last.bit_length() + 3

    values = (sigma, tau, None, scale)
    p, q = _constant_terms(variant)[:2]
    delta = _packed(_times(p, p) + _shifted(q, -4, 2), 6, values, width, field)
    p = _packed(p, 3, values, width, field) + [{}]
    roots = _sqrt_terms(delta, width, last)
    # at z/q, with G0[n] = q*C0[n-1] and G0[0] = 1, C0's equation reads
    #     2q^2*s*(C0[n] - G0[n]) = P[n+2] - W[n+2] - 2a*q^2*G0[n];
    # a numeric sigma's denominator multiplies the right side
    sq = scale * scale
    mult = 1 if sigma is None or sigma == 0 else sigma.denominator
    divisor = 2 * sq * (1 if sigma is None else sigma.numerator)
    g0_mult = 2 * a * sq * mult
    c0: list[dict[int, int]] = []
    g0: dict[int, int] = {0: 1}
    for m, w in enumerate(itertools.islice(roots, 2, last), 2):
        acc = {key: -mult * value for key, value in w.items()}
        for key, value in p[min(m, 4)].items():
            acc[key] = acc.get(key, 0) + mult * value
        if sigma == 0:  # rho[n] = a*C0[n-1], and rho[n] is q^(-n-2)*acc/2
            if m > 2:
                c0.append(_divide_slots(acc, 2 * a * sq * scale, "C0", width, last))
            continue
        for key, value in g0.items():
            acc[key] = acc.get(key, 0) - g0_mult * value
        acc = _divide_slots(acc, divisor, "C0", width, last)
        if sigma is None:
            acc = _divided_by_slot(acc, width, "s", m - 2, "C0's equation")
        for key, value in g0.items():
            acc[key] = acc.get(key, 0) + value
        c0.append(_speedups.clean_terms(acc))
        g0 = c0[-1] if scale == 1 else {k: scale * v for k, v in c0[-1].items()}
    total = _unscaled([_unpacked(terms, width, field) for terms in c0], scale)
    return ClosedForm(variant, order, total, total, Series.zero(order), sigma, tau)


def kernel_zr1(
    variant: Variant, order: int, sigma: Optional[Rat] = None, tau: Optional[Rat] = None
) -> Series:
    """z times the companion root: P - z^2*rho = (P + W)/2, constant term 1."""
    return boundary_values(variant, order, sigma, tau).kernel


def kernel_r2(
    variant: Variant, order: int, sigma: Optional[Rat] = None, tau: Optional[Rat] = None
) -> Series:
    """The kernel root that is a power series: (P - z*r1)/z = (P - W)/(2z)."""
    p = kernel_sum(variant, order + 1, sigma, tau)
    z_r2 = p - kernel_zr1(variant, order + 1, sigma, tau)
    return Series(z_r2.coefficients()[1:], order)


def kernel_w(
    variant: Variant, order: int, sigma: Optional[Rat] = None, tau: Optional[Rat] = None
) -> Series:
    """The square root W of the discriminant: 2*z*r1 - P, constant term +1."""
    zr1 = kernel_zr1(variant, order, sigma, tau)
    return zr1.scale(2) - kernel_sum(variant, order, sigma, tau)


def _slot_width(
    variant: Variant, order: int, scale: int, *values: Optional[Rat]
) -> int:
    """Bits per slot of a packed count of the variant's walks up to length
    order at z/scale: one more than the bit length of
    (letters*ceil(q*M))^order, M = max(1, |values|).  Such a count sums
    q^n*sigma^#DU*tau^#UD over at most letters^n words of length n, each
    term at most (q*M)^n in size as #UD + #DU <= n, so it lies strictly
    inside +-2^(width - 1).  The total's u slots and the DP's level slots
    take their width from here, and W's and C0's s or t slots start from it
    (see the kernel pipeline comment)."""
    m = max([1] + [abs(value) for value in values if value is not None])
    return ((_LETTERS[variant] * math.ceil(scale * m)) ** order).bit_length() + 1


def _pack_slots(terms: dict[int, int], width: int, field: int) -> dict[int, int]:
    """{key less the field's exponent: the polynomial in the field's variable
    at 2^width} of a term dict: its e-th power lands in slot e.  field is the
    exponent's bit offset in a key: 0 for u, _SHIFT for s, 2*_SHIFT for t.
    At width 0 (the variable is numeric) the terms come back as they are,
    less zeros."""
    out: dict[int, int] = {}
    for key, value in terms.items():
        e = key >> field & _MASK
        rest = key - (e << field)
        out[rest] = out.get(rest, 0) + (value << width * e)
    return {key: value for key, value in out.items() if value}


def _unpack_slots(
    out: Union[dict[int, int], list[int]],
    packed: Iterable[tuple[int, int]],
    width: int,
    field: int = 0,
) -> None:
    """Put the nonzero slots of each (key, int packed at 2^width) pair into
    out (a dict, or a list of zeros long enough), slot j at key + (j << field),
    field the packed exponent's bit offset in a key (u's, 0, unless given).
    Slots are signed: each is read in [-2^(width - 1), 2^(width - 1)), which
    gives the packed counts when every count lies strictly inside
    +-2^(width - 1)."""
    mask, half, full = (1 << width) - 1, 1 << width - 1, 1 << width
    step = 1 << field
    for key, value in packed:
        while value:
            slot = value & mask
            value >>= width
            if slot >= half:  # a negative slot borrowed one from the next
                slot -= full
                value += 1
            if slot:
                out[key] = slot
            key += step


def _unpacked(packed: dict[int, int], width: int, field: int) -> dict[int, int]:
    """The term dict of a coefficient packed by _pack_slots."""
    if not width:
        return packed
    out: dict[int, int] = {}
    _unpack_slots(out, packed.items(), width, field)
    return out


def _packed(
    terms: _Terms, order: int, values: tuple, width: int, field: int
) -> list[dict[int, int]]:
    """The z^0..z^order coefficients of a constant's terms, with values =
    (sigma, tau, u, scale) put in by _terms_at, each packed by _pack_slots."""
    coeffs = _terms_at(order, terms, *values).coefficients()
    return [_pack_slots(c._terms, width, field) for c in coeffs]


def _divided_by_slot(
    terms: dict[int, int], width: int, name: str, n: int, equation: str
) -> dict[int, int]:
    """Values packed at 2^width divided by the packed variable, name: each
    drops its low slot, which must be zero, else ArithmeticError names the
    variable and the z^n coefficient of the equation."""
    low = (1 << width) - 1
    if any(value & low for value in terms.values()):
        raise ArithmeticError(f"{name} does not divide z^{n} of {equation}")
    return {key: value >> width for key, value in terms.items()}


def _total(
    variant: Variant,
    order: int,
    sigma: Optional[Rat],
    tau: Optional[Rat],
    u: Optional[Rat],
    c0: Series,
) -> Series:
    """T from (P*u - Q - z*u^2)*T = u*N + (u*z^2*D - Q)*C0, for u not 0.

    The left factor's z^0 coefficient is u, so T[n] is the right side's
    z^n coefficient less the factor's z^1..z^3 coefficients against
    T[n-1..n-3], divided by u.  Like C0, T is worked out in integers at
    z/q, q now the lcm of the denominators of sigma, tau and u, with the
    equation multiplied by u's denominator (its z*u^2 term needs it).  C0's
    term dicts are read as they are when q = 1 (all ints then), and taken to
    z/q by _scaled otherwise.  A symbolic u is packed (see the kernel
    pipeline comment): every coefficient is a dict of (s, t) keys to one
    int, and dividing by u drops the low slot, which raises if it is not
    zero (then C0 does not solve its equation).  A numeric u's place is
    taken by its numerator, which must divide exactly.  Each coefficient of
    T is unpacked and divided by q^n once, at the end.
    """
    scale = _value_scale(sigma, tau, u)
    r = 1 if u is None else u.denominator
    width = 0 if u is not None else _slot_width(variant, order, scale, sigma, tau)
    p, q, num, z2d = _constant_terms(variant)[:4]

    values = (sigma, tau, u, scale)
    factor = _shifted(p, r, 0, 1) + _shifted(q, -r, 1) + [(1, 2, 0, 0, -r)]
    factor = _nonzero(_packed(factor, order, values, width, 0), 1)
    times_c0 = _shifted(z2d, r, 0, 1) + _shifted(q, -r, 1)
    times_c0 = _nonzero(_packed(times_c0, order, values, width, 0))
    u_num = _packed(_shifted(num, r, 0, 1), order, values, width, 0)
    c0_terms = [c._terms for c in c0.coefficients()]
    if scale > 1:  # C0 at z/q, in integers
        c0_terms = _scaled(c0_terms, scale)
    total: list[dict[int, int]] = []
    for n in range(order + 1):
        acc = u_num[n]
        _add_products(acc, times_c0, c0_terms, n)
        _add_products(acc, factor, total, n, negate=True)
        acc = {key: value for key, value in acc.items() if value}
        if u is not None:
            if u.numerator != 1:
                acc = _divide(acc, u.numerator, "T")
        else:
            equation = "the total's equation: C0 does not solve its equation"
            acc = _divided_by_slot(acc, width, "u", n, equation)
        total.append(acc)
    return _unscaled([_unpacked(terms, width, 0) for terms in total], scale)


@functools.lru_cache(maxsize=CACHE_SIZE, typed=True)
def closed_form(
    variant: Variant,
    order: int,
    sigma: Optional[Rat] = None,
    tau: Optional[Rat] = None,
    u: Optional[Rat] = None,
) -> ClosedForm:
    """The grand total (N + z^2*D*C0) / (z*r1 - z*u) and, when read, its layers.

    The total comes from its three-term recurrence in z (see _total), with
    no series division; at u = 0 it is C0.  Numeric u, sigma or tau give the
    symbolic result with those values substituted; at u = 0 the result is
    the boundary_values object.
    """
    bnd = boundary_values(variant, order, sigma, tau)
    require_exact(u)
    if u == 0:
        return bnd
    zu = _terms_at(order, [(1, 1, 0, 0, 1)], sigma, tau, u)
    total = _total(variant, order, sigma, tau, u, bnd.c0)
    return ClosedForm(variant, order, total, bnd.c0, zu, sigma, tau)
