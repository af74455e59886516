"""Exact truncated power series in z over Q[u, s, t].

Coefficients are sparse polynomials in three markers: u tracks the end level
of a walk, s the number of DU factors (valleys) and t the number of UD
factors (peaks).  Series are dense lists of such polynomials indexed by the
power of z, each carrying a truncation order; arithmetic results carry the
minimum order of the operands.  All arithmetic is exact (ints and Fractions,
never floats); a value that is neither an int nor a Fraction is refused
with TypeError wherever one is given as a coefficient or substituted.

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
and are built only when read; they divide by the kernel factor z*r1 - z*u,
where z*r1 = N/C0 + z^2*D is one series division by C0 (the power-series
root r2 = (P - z*r1)/z and W = 2*z*r1 - P follow by subtraction).  The
boundary values are the same closed form at u = 0.
Symbolically it runs in integers throughout.  Numeric u, sigma and tau go in
before the work: they are substituted into the constants the pipeline starts
from, so it runs on polynomials in fewer variables and gives the full result
specialized (see the kernel pipeline comment for the formulas and why they
hold).
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from . import _speedups
from .paths import Variant

Rat = Union[int, Fraction]

DEFAULT_ORDER = 24

# entries kept by each of the closed-form and DP LRU caches.  A
# specialize-warm session (perfbench, seeds 11-13) uses 15 closed-form keys
# and 31-32 DP keys, so the DP cache runs at this bound.  Keys are typed so
# that a float never shares the entry of an equal int and slips past the
# exactness check.  Boundary values are not cached: no workload repeats one.
CACHE_SIZE = 32

# exponent triples (e_u, e_s, e_t) are packed into one int so that monomial
# products become integer additions
_SHIFT = 21
_MASK = (1 << _SHIFT) - 1
_EXP_LIMIT = 1 << _SHIFT


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
    if not (0 <= eu < _EXP_LIMIT and 0 <= es < _EXP_LIMIT and 0 <= et < _EXP_LIMIT):
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


def _display_key(key: int) -> int:
    # ascending total degree, then descending lexicographic with u > s > t:
    # every field fits in _SHIFT bits, so one int orders like the tuple
    # (degree, -e_u, -e_s, -e_t)
    eu, es, et = _unpack(key)
    return (
        ((eu + es + et) << (3 * _SHIFT))
        | ((_MASK - eu) << (2 * _SHIFT))
        | ((_MASK - es) << _SHIFT)
        | (_MASK - et)
    )


def _display_entry(key: int) -> tuple[int, str, str]:
    """Sort key, monomial text and JSON exponent block of a packed key."""
    eu, es, et = _unpack(key)
    names = []
    if eu:
        names.append("u" if eu == 1 else f"u^{eu}")
    if es:
        names.append("s" if es == 1 else f"s^{es}")
    if et:
        names.append("t" if et == 1 else f"t^{et}")
    # the layout json.dumps(..., indent=2) gives a term of Series.to_json
    block = (
        f"      [\n        [\n          {eu},\n          {es},\n"
        f'          {et}\n        ],\n        "'
    )
    return _display_key(key), "*".join(names), block


def _display_rows(polys: Iterable[Poly]):
    """Each poly's terms in display order, as (sort key, monomial text,
    JSON exponent block, value) rows.

    A memo local to the call formats each packed key once, however many of
    the polys hold it.
    """
    memo: dict[int, tuple[int, str, str]] = {}
    for poly in polys:
        terms = poly._terms
        for key in terms.keys() - memo.keys():
            memo[key] = _display_entry(key)
        rows = [(*memo[key], value) for key, value in terms.items()]
        rows.sort()  # sort keys are distinct, so values are never compared
        yield rows


def _poly_text(rows) -> str:
    if not rows:
        return "0"
    parts = []
    for _, mono, _, value in rows:
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
        acc: dict[int, Rat] = {}
        for (eu, es, et), coeff in terms:
            if type(coeff) is not int:  # the DP's ints skip the call
                coeff = _canon(coeff)
            key = _pack(eu, es, et)
            acc[key] = acc.get(key, 0) + coeff
        self._terms = _speedups.clean_terms(acc)

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
        value = _canon(value)
        return cls._raw({0: value} if value else {})

    @classmethod
    def monomial(cls, coeff: Rat, eu: int = 0, es: int = 0, et: int = 0) -> "Poly":
        coeff = _canon(coeff)
        return cls._raw({_pack(eu, es, et): coeff} if coeff else {})

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
        keys = sorted(self._terms, key=_display_key)
        return [(_unpack(key), self._terms[key]) for key in keys]

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
        """Evaluate some of the variables at exact rational values."""
        for value in (u, sigma, tau):
            require_exact(value)
        if u is None and sigma is None and tau is None:
            return self
        acc: dict[int, Rat] = {}
        for key, value in self._terms.items():
            eu, es, et = _unpack(key)
            if u is not None and eu:
                value, eu = value * u**eu, 0
            if sigma is not None and es:
                value, es = value * sigma**es, 0
            if tau is not None and et:
                value, et = value * tau**et, 0
            new_key = _pack(eu, es, et)
            acc[new_key] = acc.get(new_key, 0) + value
        return Poly._raw(_speedups.clean_terms(acc))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        return _poly_text(next(_display_rows((self,))))

    def __repr__(self) -> str:
        return f"Poly({self})"


def _nonzero(coeffs: Iterable[Poly], start: int = 0) -> list[tuple[int, dict]]:
    """(z power, term dict) of the nonzero coefficients from z^start on."""
    return [(k, c._terms) for k, c in enumerate(coeffs) if k >= start and c._terms]


def _add_products(
    acc: dict[int, Rat],
    pairs: list[tuple[int, dict]],
    seq: Sequence[Poly],
    n: int,
    negate: bool = False,
) -> None:
    """Add the sum of terms * seq[n - j] over the (j, terms) pairs with
    j <= n into acc (negated if asked); pairs ascend in j."""
    for j, terms in pairs:
        if j > n:
            break
        other = seq[n - j]._terms
        if other:
            _speedups.poly_acc(acc, terms, other, negate)


def _divide(terms: dict[int, Rat], d: Rat, exact: bool) -> dict[int, Rat]:
    """terms / d with the zeros dropped.  If exact, d must divide every
    value in integers: a remainder raises ArithmeticError."""
    if not exact:
        d = Fraction(d)
        return _speedups.clean_terms({key: value / d for key, value in terms.items()})
    out = {}
    for key, value in terms.items():
        quot, rem = divmod(value, d)
        if rem:
            raise ArithmeticError(f"{d} does not divide a coefficient of C0")
        if quot:
            out[key] = quot
    return out


def _sqrt_terms(radicand: list[dict[int, Rat]], exact: bool) -> Iterator[dict]:
    """The coefficients of the root W of a radicand with constant term 1, in
    order, as far as they are read: J. C. P. Miller's recurrence for a power
    of a series (Knuth, TAOCP vol. 2, 4.7),
        2m*W[m] = sum_{k>=1} (3k - 2m)*radicand[k]*W[m-k],
    divided as by _divide.  Only the last len(radicand) - 1 coefficients are
    kept, so a polynomial radicand runs in a fixed window."""
    window = [{0: 1}]  # W[m-k] is window[-k]
    for m in itertools.count(1):
        yield window[-1]
        acc: dict[int, Rat] = {}
        for k, terms in enumerate(radicand[1 : m + 1], 1):
            if 3 * k != 2 * m and terms and window[-k]:
                scaled = {key: (3 * k - 2 * m) * value for key, value in terms.items()}
                _speedups.poly_acc(acc, scaled, window[-k])
        window = (window + [_divide(acc, 2 * m, exact)])[1 - len(radicand) :]


class Series:
    """Truncated power series in z with Poly coefficients."""

    __slots__ = ("_coeffs", "order")

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
        """Build from (z power, e_u, e_s, e_t, coeff) tuples.

        Terms beyond the truncation order are dropped, which is what
        truncation means.
        """
        buckets: list[dict[int, Rat]] = [{} for _ in range(order + 1)]
        for zpow, eu, es, et, coeff in terms:
            if zpow < 0:
                raise ValueError("z powers must be nonnegative")
            if zpow > order:
                continue
            key = _pack(eu, es, et)
            bucket = buckets[zpow]
            bucket[key] = bucket.get(key, 0) + _canon(coeff)
        return cls(
            tuple(Poly._raw(_speedups.clean_terms(b)) for b in buckets), order
        )

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
        if not isinstance(other, Series):
            return NotImplemented
        order = min(self.order, other.order)
        pairs = _nonzero(self._coeffs)
        out = []
        for n in range(order + 1):
            acc: dict[int, Rat] = {}
            _add_products(acc, pairs, other._coeffs, n)
            out.append(Poly._raw(_speedups.clean_terms(acc)))
        return Series(tuple(out), order)

    def __truediv__(self, other: "Series") -> "Series":
        return self.div(other)

    def div(self, other: "Series") -> "Series":
        """Divide by a series whose constant term is a nonzero rational."""
        if not isinstance(other, Series):
            raise TypeError("can only divide by another Series")
        const = other._coeffs[0].as_constant()
        if const is None or const == 0:
            raise ValueError(
                "series division needs a nonzero rational constant term, got "
                f"{other._coeffs[0]}"
            )
        inv = 1 / const
        order = min(self.order, other.order)
        pairs = _nonzero(other._coeffs, 1)
        quot: list[Poly] = []
        for n in range(order + 1):
            acc = dict(self._coeffs[n]._terms)
            _add_products(acc, pairs, quot, n, negate=True)
            quot.append(Poly._raw(_speedups.clean_terms(acc)).scale(inv))
        return Series(tuple(quot), order)

    def sqrt(self) -> "Series":
        """Square root of a series with constant term exactly 1."""
        if self._coeffs[0] != Poly.one():
            raise ValueError(
                f"series sqrt needs constant term 1, got {self._coeffs[0]}"
            )
        root = _sqrt_terms([c._terms for c in self._coeffs], exact=False)
        return Series(tuple(Poly._raw(next(root)) for _ in self._coeffs), self.order)

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
        """Substitute exact rational values for some of u, s, t."""
        return Series(
            tuple(p.substitute(u=u, sigma=sigma, tau=tau) for p in self._coeffs),
            self.order,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and self._coeffs == other._coeffs

    __hash__ = None  # type: ignore[assignment]

    def to_text(self) -> str:
        return "\n".join(
            f"z^{n}: {_poly_text(rows)}"
            for n, rows in enumerate(_display_rows(self._coeffs))
        )

    def to_json_text(self) -> str:
        """json.dumps(self.to_json(), indent=2), written without building
        the nested lists."""
        blocks = []
        for rows in _display_rows(self._coeffs):
            if not rows:
                blocks.append("    []")
                continue
            terms = ",\n".join(
                f'{block}{value}"\n      ]' for _, _, block, value in rows
            )
            blocks.append(f"    [\n{terms}\n    ]")
        coeffs = ",\n".join(blocks)
        return f'{{\n  "order": {self.order},\n  "coeffs": [\n{coeffs}\n  ]\n}}'

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
        order = data["order"]
        coeffs = []
        for entries in data["coeffs"]:
            coeffs.append(
                Poly(
                    (tuple(exps), Fraction(value))  # type: ignore[misc]
                    for exps, value in entries
                )
            )
        return cls(tuple(coeffs), order)

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
# these layers read z*r1, and they take it from C0 by one division,
# z*r1 = N/C0 + z^2*D; C0 has constant term 1, so symbolically the quotient
# stays in integers.  The boundary values are the same closed form at u = 0:
# total C0, divisor z*r1, F(0) = 0, and the same formulas give G(0), H(0)
# and K(0).  Every divisor of the layers has constant term 1, and
# the total's recurrence divides only by u, whatever s and t are.  So numeric
# u, sigma and tau are substituted into the constants the pipeline builds
# before it runs: substituting is a ring homomorphism, so each step, and the
# result, is the full symbolic one specialized (Banderier & Flajolet, "Basic
# analytic combinatorics of directed lattice paths", 2002).  A numeric u != 0
# is divided out as a number.


def _terms_at(
    order: int,
    terms: Iterable[tuple[int, int, int, int, Rat]],
    sigma: Optional[Rat],
    tau: Optional[Rat],
    u: Optional[Rat] = None,
) -> Series:
    """Series.from_terms after substituting the numeric ones of u, sigma, tau."""
    coeffs = Series.from_terms(order, terms).coefficients()
    return Series(tuple(p.substitute(u, sigma, tau) for p in coeffs), order)


# a, the constant term of Q/z: the one number the two variants' constants
# differ by
_A = {Variant.PLAIN: 1, Variant.SKEW: 2}


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


@dataclass(frozen=True)
class ClosedForm:
    """The grand generating function of all walks and its layers.

    total is built with the object; the layers are built from it the first
    time they are read.  f: walks whose last step was U; g: empty walk or
    last step H; h: last step D; k: last step L (skew only, None
    otherwise).  c0 is the u=0 total; the layers' divisor kernel,
    z*r1 - z*u with z*r1 = N/c0 + z^2*D, is built the first time a layer
    needs it.  At u = 0 (see boundary_values) total is c0, kernel is z*r1
    and the layers are the boundary values G(0), H(0) and K(0).
    """

    variant: Variant
    order: int
    total: Series
    c0: Series = field(repr=False)
    zu: Series = field(repr=False)
    sigma: Optional[Rat] = field(default=None, repr=False)
    tau: Optional[Rat] = field(default=None, repr=False)

    @functools.cached_property
    def kernel(self) -> Series:
        num, z2d = (
            _terms_at(self.order, t, self.sigma, self.tau)
            for t in _constant_terms(self.variant)[2:4]
        )
        return num / self.c0 + z2d - self.zu

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
    Numeric sigma and tau are substituted first, as in the whole pipeline;
    unless one of them has a denominator other than 1, every division is
    exact in integers.
    """
    a = _A[variant]
    p, q = _constant_terms(variant)[:2]
    delta = _terms_at(6, _times(p, p) + _shifted(q, -4, 2), sigma, tau)
    p = [c._terms for c in _terms_at(3, p, sigma, tau).coefficients()] + [{}]
    exact = all(v is None or v.denominator == 1 for v in (sigma, tau))
    roots = _sqrt_terms([c._terms for c in delta.coefficients()], exact)
    c0: list[Poly] = []
    g0: dict[int, Rat] = {0: 1}  # G0[n] = C0[n-1], G0[0] = 1
    last = order + (4 if sigma == 0 else 3)
    for m, w in enumerate(itertools.islice(roots, 2, last), 2):
        acc = {key: -value for key, value in w.items()}  # 2*rho[m-2]
        for key, value in p[min(m, 4)].items():
            acc[key] = acc.get(key, 0) + value
        if sigma == 0:  # rho[n] = a*C0[n-1]
            if m > 2:
                g0 = _divide(acc, 2 * a, exact)
                c0.append(Poly._raw(g0))
            continue
        for key, value in g0.items():
            acc[key] = acc.get(key, 0) - 2 * a * value
        acc = _divide(acc, 2 if sigma is None else 2 * sigma, exact)
        if sigma is None:  # divide by s: shift its exponent
            if any(not key >> _SHIFT & _MASK for key in acc):
                raise ArithmeticError(f"s does not divide z^{m - 2} of C0's equation")
            acc = {key - (1 << _SHIFT): value for key, value in acc.items()}
        for key, value in g0.items():
            acc[key] = acc.get(key, 0) + value
        g0 = _speedups.clean_terms(acc)
        c0.append(Poly._raw(g0))
    total = Series(tuple(c0), order)
    return ClosedForm(variant, order, total, total, Series.zero(order), sigma, tau)


def kernel_zr1(
    variant: Variant, order: int, sigma: Optional[Rat] = None, tau: Optional[Rat] = None
) -> Series:
    """z times the companion root: N/C0 + z^2*D = (P + W)/2, constant term 1."""
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


def _total(
    variant: Variant,
    order: int,
    sigma: Optional[Rat],
    tau: Optional[Rat],
    u: Optional[Rat],
    c0: tuple[Poly, ...],
) -> Series:
    """T from (P*u - Q - z*u^2)*T = u*N + (u*z^2*D - Q)*C0, for u not 0.

    The left factor's z^0 coefficient is u, so T[n] is the right side's
    z^n coefficient less the factor's z^1..z^3 coefficients against
    T[n-1..n-3], divided by u: symbolically a shift of the u exponent, which
    raises if a u-free term is left (then C0 does not solve its equation).
    """
    p, q, num, z2d = _constant_terms(variant)[:4]

    def coeffs(terms: _Terms) -> tuple[Poly, ...]:
        return _terms_at(order, terms, sigma, tau, u).coefficients()

    factor = _nonzero(
        coeffs(_shifted(p, 1, 0, 1) + _shifted(q, -1, 1) + [(1, 2, 0, 0, -1)]), 1
    )
    times_c0 = _nonzero(coeffs(_shifted(z2d, 1, 0, 1) + _shifted(q, -1, 1)))
    u_num = coeffs(_shifted(num, 1, 0, 1))
    inverse = None if u is None else _canon(1 / Fraction(u))
    total: list[Poly] = []
    for n in range(order + 1):
        acc = dict(u_num[n]._terms)
        _add_products(acc, times_c0, c0, n)
        _add_products(acc, factor, total, n, negate=True)
        terms = _speedups.clean_terms(acc)
        if inverse is not None:
            total.append(Poly._raw(terms).scale(inverse))
            continue
        if any(not key & _MASK for key in terms):
            raise ArithmeticError(
                f"u does not divide z^{n} of the total's equation: "
                "C0 does not solve its equation"
            )
        total.append(Poly._raw({key - 1: value for key, value in terms.items()}))
    return Series(tuple(total), order)


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
    total = _total(variant, order, sigma, tau, u, bnd.c0.coefficients())
    return ClosedForm(variant, order, total, bnd.c0, zu, sigma, tau)
