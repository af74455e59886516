"""Exact truncated power series in z over Q[u, s, t].

Coefficients are sparse polynomials in three markers: u tracks the end level
of a walk, s the number of DU factors (valleys) and t the number of UD
factors (peaks).  Series are dense lists of such polynomials indexed by the
power of z, each carrying a truncation order; arithmetic results carry the
minimum order of the operands.  All arithmetic is exact (ints and Fractions,
never floats); a value that is neither an int nor a Fraction is refused
with TypeError wherever one is substituted.

The second half of the module is the generating-function pipeline: the
power-series root r2 = z*rho of the kernel quadratic, with rho taken
coefficient by coefficient from its own quadratic (z*r1 for the companion
root and W = P - 2*z*r2 follow by subtraction), the boundary values at u=0
from one division by a series with constant term 1, and the grand total from
one more division, by the kernel factor z*r1 - z*u.  The same formula serves
both variants.  The layers of walks grouped by the layer their last step put
them in (F after an up step, G after a horizontal step or at the start, H
after a down step, K after a left-down step) follow from the total and are
built only when read.  Symbolically it runs in integers throughout.  Numeric
u, sigma and tau go in before the work: they are substituted into the
constants the pipeline starts from, so it runs on polynomials in fewer
variables and gives the full result specialized (see the kernel pipeline
comment for the formula and why it holds).
"""

from __future__ import annotations

import functools
import inspect
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Union

from . import _speedups
from .paths import Variant

Rat = Union[int, Fraction]

DEFAULT_ORDER = 24

# entries kept by each of the kernel, boundary and closed-form caches.  A
# key is (variant, order, sigma, tau) (closed form: and u), typed so that a
# float never shares the entry of an equal int and slips past the exactness
# check.
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


def _term_sort_key(exps: tuple[int, int, int]):
    # ascending total degree, then descending lexicographic with u > s > t
    eu, es, et = exps
    return (eu + es + et, -eu, -es, -et)


class Poly:
    """Sparse polynomial in u, s, t with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[tuple[int, int, int], Rat]] = ()):
        acc: dict[int, Rat] = {}
        for (eu, es, et), coeff in terms:
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
        items = [(_unpack(key), value) for key, value in self._terms.items()]
        items.sort(key=lambda kv: _term_sort_key(kv[0]))
        return items

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
        if not other._terms:
            return self
        acc = dict(self._terms)
        for key, value in other._terms.items():
            acc[key] = acc.get(key, 0) - value
        return Poly._raw(_speedups.clean_terms(acc))

    def __neg__(self) -> "Poly":
        return Poly._raw({k: -v for k, v in self._terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        ta, tb = self._terms, other._terms
        if not ta or not tb:
            return Poly.zero()
        if len(ta) == 1:
            ((ka, va),) = ta.items()
            return Poly._raw({ka + kb: _canon(va * vb) for kb, vb in tb.items()})
        if len(tb) == 1:
            ((kb, vb),) = tb.items()
            return Poly._raw({ka + kb: _canon(va * vb) for ka, va in ta.items()})
        return Poly._raw(_speedups.poly_mul(ta, tb))

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
        if not self._terms:
            return "0"
        parts = []
        for exps, value in self.terms():
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(("u", "s", "t"), exps)
                if e
            )
            negative = value < 0
            mag = -value if negative else value
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


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
            bucket[key] = bucket.get(key, 0) + coeff
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
            tuple(
                a + b
                for a, b in zip(self._coeffs[: order + 1], other._coeffs[: order + 1])
            ),
            order,
        )

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        order = min(self.order, other.order)
        return Series(
            tuple(
                a - b
                for a, b in zip(self._coeffs[: order + 1], other._coeffs[: order + 1])
            ),
            order,
        )

    def __neg__(self) -> "Series":
        return Series(tuple(-p for p in self._coeffs), self.order)

    def __mul__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        order = min(self.order, other.order)
        a = self._coeffs
        b = other._coeffs
        out = []
        for n in range(order + 1):
            acc: dict[int, Rat] = {}
            for k in range(n + 1):
                ta = a[k]._terms
                if not ta:
                    continue
                tb = b[n - k]._terms
                if not tb:
                    continue
                _speedups.poly_acc(acc, ta, tb)
            out.append(Poly._raw(_speedups.clean_terms(acc)))
        return Series(tuple(out), order)

    def __truediv__(self, other: "Series") -> "Series":
        return self.div(other)

    def div(self, other: "Series") -> "Series":
        """Divide by a series whose constant term is a nonzero rational.

        Constant terms 1 and -1 need no scaling: for -1 the sign is taken
        into the accumulation.
        """
        if not isinstance(other, Series):
            raise TypeError("can only divide by another Series")
        const = other._coeffs[0].as_constant()
        if const is None or const == 0:
            raise ValueError(
                "series division needs a nonzero rational constant term, got "
                f"{other._coeffs[0]}"
            )
        inv = 1 / const
        flip = inv == -1
        order = min(self.order, other.order)
        b = other._coeffs
        quot: list[Poly] = []
        for n in range(order + 1):
            ta = self._coeffs[n]._terms
            acc = {k: -v for k, v in ta.items()} if flip else dict(ta)
            for k in range(n):
                tq = quot[k]._terms
                if not tq:
                    continue
                tb = b[n - k]._terms
                if not tb:
                    continue
                _speedups.poly_acc(acc, tq, tb, not flip)
            q = Poly._raw(_speedups.clean_terms(acc))
            quot.append(q if flip else q.scale(inv))
        return Series(tuple(quot), order)

    def sqrt(self) -> "Series":
        """Square root of a series with constant term exactly 1."""
        if self._coeffs[0] != Poly.one():
            raise ValueError(
                f"series sqrt needs constant term 1, got {self._coeffs[0]}"
            )
        half = Fraction(1, 2)
        root: list[Poly] = [Poly.one()]
        for n in range(1, self.order + 1):
            acc = dict(self._coeffs[n]._terms)
            for k in range(1, n):
                _speedups.poly_acc(acc, root[k]._terms, root[n - k]._terms, True)
            root.append(Poly._raw(_speedups.clean_terms(acc)).scale(half))
        return Series(tuple(root), self.order)

    def scale(self, value: Rat) -> "Series":
        return Series(tuple(p.scale(value) for p in self._coeffs), self.order)

    def shift_up(self, k: int = 1) -> "Series":
        """Multiply by z^k; the result is valid (and longer) by k orders."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return Series((Poly.zero(),) * k + self._coeffs, self.order + k)

    def shift_down(self, k: int = 1) -> "Series":
        """Divide by z^k; the low-order coefficients must vanish."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if k > self.order:
            raise ValueError(f"cannot shift order {self.order} down by {k}")
        for n in range(k):
            if not self._coeffs[n].is_zero():
                raise ValueError(
                    f"cannot divide by z^{k}: nonzero coefficient at z^{n}"
                )
        return Series(self._coeffs[k:], self.order - k)

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
        return "\n".join(f"z^{n}: {p}" for n, p in enumerate(self._coeffs))

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
# catalytic variable u.  Writing the quadratic as z*u^2 - P*u + Q, the
# discriminant is W^2 = P^2 - 4*z*Q = radicand, and Q/z works out to 1
# (plain) or 2 - s*t*z^2 (skew).  The power-series root r2 = (P - W)/(2z) is
# divisible by z, and rho = r2/z solves
#     z^2*rho^2 - P*rho + Q/z = 0.
# P has constant term 1, so comparing coefficients of z^n gives rho one
# coefficient at a time with integer arithmetic only:
#     rho[n] = (Q/z)[n] + sum_{i+j=n-2} rho[i]*rho[j] - sum_{k=1..n} P[k]*rho[n-k]
# (Prodinger, "The kernel method: a collection of examples", 2004).  The
# companion root r1 has a 1/z pole; z*r1 = P - z*r2 is the object that
# appears in denominators (constant term 1, so z*r1 - z*u is invertible as a
# series), and W = P - 2*z*r2.  W^2 = radicand is kept as a test identity.
#
# The layers obey, with T = F+G+H(+K) and C0 = T(0),
#     F = z*u*(F + G + s*H)                  (no U after L)
#     G = 1 + z*T                            (H may follow any layer)
#     H = (z/u)*(t*F + G + H (+ K) - C0)     (F(0) = 0: no U ends at level 0)
#     K = (z/u)*(G + H + K - C0)             (skew; no L after U).
# Solved, each layer is a numerator over -(z*u^2 - P*u + Q) =
# -z*(u - r1)*(u - r2).  A layer is a power series, so its numerator vanishes
# at u = r2, which leaves a numerator over z*r1 - z*u.  With a = 1 (plain) or
# 2 (skew), the constant term of Q/z, and the u- and r2-free
#     N = 1 - z^2*((1-s)*(1-t) + a - 1),   D = a - s,
# T's numerator u*(N + z^2*D*C0) - Q*C0 is linear in u, hence
# (N + z^2*D*C0)*(u - r2), and
#     T = (N + z^2*D*C0) / (z*r1 - z*u);
# its u=0 instance C0*(z*r1 - z^2*D) = N gives C0.  F's numerator, once
# divided, is z*u plus a u-free part that F(0) = 0 forces to vanish, so
# F = z*u/(z*r1 - z*u).  Likewise K = z^2*(C0 - 1)/(z*r1 - z*u), G = 1 + z*T
# and H is the rest of T.  Nothing divides by u, and every divisor has
# constant term 1 whatever u, s and t are.  So numeric u, sigma and tau are
# substituted into the constants the pipeline builds (P, Q/z, N, D, z*u)
# before it runs: substituting is a ring homomorphism, so each step, and the
# result, is the full symbolic one specialized (Banderier & Flajolet, "Basic
# analytic combinatorics of directed lattice paths", 2002).

_PLAIN_CUBIC_TAIL = (
    (2, 0, 0, 0, 1),
    (2, 0, 1, 1, -1),
    (3, 0, 1, 1, 1),
    (3, 0, 1, 0, -1),
    (3, 0, 0, 0, 1),
    (3, 0, 0, 1, -1),
)

# the skew discriminant, written out term by term
_SKEW_RADICAND_TERMS = (
    (0, 0, 0, 0, 1),
    (2, 0, 1, 1, -2),
    (3, 0, 1, 1, 4),
    (4, 0, 1, 1, -2),
    (2, 0, 0, 0, -3),
    (4, 0, 0, 1, 2),
    (6, 0, 0, 2, 1),
    (6, 0, 0, 1, -4),
    (5, 0, 0, 1, -4),
    (6, 0, 2, 0, 1),
    (6, 0, 1, 0, -4),
    (5, 0, 1, 0, -4),
    (6, 0, 0, 0, 4),
    (5, 0, 0, 0, 8),
    (6, 0, 1, 1, 6),
    (6, 0, 1, 2, -2),
    (5, 0, 1, 2, 2),
    (6, 0, 2, 1, -2),
    (5, 0, 2, 1, 2),
    (6, 0, 2, 2, 1),
    (5, 0, 2, 2, -2),
    (4, 0, 2, 2, 1),
    (3, 0, 0, 1, -2),
    (4, 0, 1, 0, 2),
    (3, 0, 1, 0, -2),
    (1, 0, 0, 0, -2),
)

_SKEW_KERNEL_SUM_TERMS = (
    (0, 0, 0, 0, 1),
    (1, 0, 0, 0, -1),
    (2, 0, 0, 0, 2),
    (3, 0, 0, 0, 2),
    (3, 0, 1, 0, -1),
    (3, 0, 0, 1, -1),
    (2, 0, 1, 1, -1),
    (3, 0, 1, 1, 1),
)


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


def _plain_cubic(
    z1_coeff: int, order: int, sigma: Optional[Rat] = None, tau: Optional[Rat] = None
) -> Series:
    terms = ((0, 0, 0, 0, 1), (1, 0, 0, 0, z1_coeff)) + _PLAIN_CUBIC_TAIL
    return _terms_at(order, terms, sigma, tau)


def kernel_radicand(variant: Variant, order: int) -> Series:
    """The polynomial under the square root of the discriminant."""
    if variant is Variant.PLAIN:
        return _plain_cubic(-3, order) * _plain_cubic(1, order)
    return Series.from_terms(order, _SKEW_RADICAND_TERMS)


def kernel_sum(
    variant: Variant, order: int, sigma: Optional[Rat] = None, tau: Optional[Rat] = None
) -> Series:
    """P = z*r1 + z*r2, the linear coefficient of the kernel quadratic."""
    if variant is Variant.PLAIN:
        return _plain_cubic(-1, order, sigma, tau)
    return _terms_at(order, _SKEW_KERNEL_SUM_TERMS, sigma, tau)


# a, the constant term of Q/z = a - (a-1)*s*t*z^2 (1 plain, 2 skew), where Q
# is the constant coefficient of the kernel quadratic
_A = {Variant.PLAIN: 1, Variant.SKEW: 2}


@functools.lru_cache(maxsize=CACHE_SIZE, typed=True)
def _kernel_rho(
    variant: Variant, order: int, sigma: Optional[Rat] = None, tau: Optional[Rat] = None
) -> Series:
    # rho = r2/z by the coefficient recurrence above
    p = kernel_sum(variant, order, sigma, tau).coefficients()
    a = _A[variant]
    q = _terms_at(order, [(0, 0, 0, 0, a), (2, 0, 1, 1, 1 - a)], sigma, tau)
    q = q.coefficients()
    rho: list[Poly] = []
    for n in range(order + 1):
        acc = dict(q[n]._terms)
        for i in range(n - 1):
            _speedups.poly_acc(acc, rho[i]._terms, rho[n - 2 - i]._terms)
        for k in range(1, n + 1):
            tp = p[k]._terms
            if tp:
                _speedups.poly_acc(acc, tp, rho[n - k]._terms, True)
        rho.append(Poly._raw(_speedups.clean_terms(acc)))
    return Series(tuple(rho), order)


def _z2_rho(variant: Variant, order: int, sigma, tau) -> Series:
    return _kernel_rho(variant, order, sigma, tau).shift_up(2).prefix(order)


def kernel_w(
    variant: Variant, order: int, sigma: Optional[Rat] = None, tau: Optional[Rat] = None
) -> Series:
    """The square root W of the discriminant: P - 2*z*r2, constant term +1."""
    z2_rho = _z2_rho(variant, order, sigma, tau)
    return kernel_sum(variant, order, sigma, tau) - z2_rho.scale(2)


def kernel_r2(
    variant: Variant, order: int, sigma: Optional[Rat] = None, tau: Optional[Rat] = None
) -> Series:
    """The kernel root that is a power series: (P - W)/(2z) = z*rho."""
    return _kernel_rho(variant, order, sigma, tau).shift_up(1).prefix(order)


def kernel_zr1(
    variant: Variant, order: int, sigma: Optional[Rat] = None, tau: Optional[Rat] = None
) -> Series:
    """z times the companion root: P - z*r2 = (P + W)/2, constant term 1."""
    return kernel_sum(variant, order, sigma, tau) - _z2_rho(variant, order, sigma, tau)


def _cached(fn):
    """lru_cache keyed on every argument, omitted defaults filled in, so that
    f(v, n) and f(v, n, None, None) share one entry."""
    cached = functools.lru_cache(maxsize=CACHE_SIZE, typed=True)(fn)
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def lookup(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return cached(*bound.args)

    lookup.cache_info = cached.cache_info
    lookup.cache_clear = cached.cache_clear
    return lookup


def _n_and_z2d(
    variant: Variant, order: int, sigma: Optional[Rat], tau: Optional[Rat]
) -> tuple[Series, Series]:
    """N = 1 - z^2*((1-s)*(1-t) + a - 1) and z^2*D = z^2*(a - s)."""
    a = _A[variant]
    n = [(0, 0, 0, 0, 1), (2, 0, 0, 0, -a), (2, 0, 1, 0, 1), (2, 0, 0, 1, 1),
         (2, 0, 1, 1, -1)]
    z2d = [(2, 0, 0, 0, a), (2, 0, 1, 0, -1)]
    return _terms_at(order, n, sigma, tau), _terms_at(order, z2d, sigma, tau)


@dataclass(frozen=True)
class BoundaryValues:
    """The u=0 values of the layer generating functions and their total c0."""

    variant: Variant
    order: int
    g0: Series
    h0: Series
    k0: Optional[Series]
    c0: Series


@_cached
def boundary_values(
    variant: Variant, order: int, sigma: Optional[Rat] = None, tau: Optional[Rat] = None
) -> BoundaryValues:
    """The u=0 layer values, from one division by a series with constant term 1.

    The u=0 total C0 = G(0)+H(0)(+K(0)) solves C0 * (z*r1 - z^2*D) = N, the
    u=0 instance of the total's formula (see the kernel pipeline comment).
    Then G(0) = 1 + z*C0; in the skew variant K(0) = z^2*(C0 - 1)/(z*r1);
    H(0) is what remains of C0.  Numeric sigma and tau are substituted
    first, as in the whole pipeline.
    """
    zr1 = kernel_zr1(variant, order, sigma, tau)
    num, z2d = _n_and_z2d(variant, order, sigma, tau)
    one = Series.one(order)
    c0 = num / (zr1 - z2d)
    g0 = one + c0.shift_up(1).prefix(order)
    if variant is Variant.PLAIN:
        return BoundaryValues(variant, order, g0, c0 - g0, None, c0)
    k0 = (c0 - one).shift_up(2).prefix(order) / zr1
    return BoundaryValues(variant, order, g0, c0 - g0 - k0, k0, c0)


@dataclass(frozen=True)
class ClosedForm:
    """The grand generating function of all walks and its layers.

    total is built with the object; the layers are built from it the first
    time they are read.  f: walks whose last step was U; g: empty walk or
    last step H; h: last step D; k: last step L (skew only, None
    otherwise).  c0 is the u=0 total and kernel the divisor z*r1 - z*u.
    """

    variant: Variant
    order: int
    total: Series
    c0: Series = field(repr=False)
    kernel: Series = field(repr=False)
    zu: Series = field(repr=False)

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


@_cached
def closed_form(
    variant: Variant,
    order: int,
    sigma: Optional[Rat] = None,
    tau: Optional[Rat] = None,
    u: Optional[Rat] = None,
) -> ClosedForm:
    """The grand total (N + z^2*D*C0) / (z*r1 - z*u) and, when read, its layers.

    The divisor has constant term 1, so the division is exact series
    arithmetic with no radicals left over.  Numeric u, sigma or tau give the
    symbolic result with those values substituted.
    """
    zr1 = kernel_zr1(variant, order, sigma, tau)
    c0 = boundary_values(variant, order, sigma, tau).c0
    num, z2d = _n_and_z2d(variant, order, sigma, tau)
    zu = _terms_at(order, [(1, 1, 0, 0, 1)], sigma, tau, u)
    kernel = zr1 - zu
    total = (num + z2d * c0) / kernel
    return ClosedForm(variant, order, total, c0, kernel, zu)


def plain_printed_boundary_identities(
    order: int,
) -> list[tuple[str, Series, Series]]:
    """Cross-checks for the plain u=0 boundary values in radical form.

    Each entry is (name, lhs, rhs) where lhs is the solved boundary value
    multiplied by the closed form's denominator and rhs is the closed form's
    numerator (which involves W), so equality avoids dividing by a non-unit.
    """
    w = kernel_w(Variant.PLAIN, order)
    bnd = boundary_values(Variant.PLAIN, order)
    den_g = Series.from_terms(
        order, [(1, 0, 1, 0, -2), (2, 0, 1, 0, 2), (2, 0, 0, 0, -2)]
    )
    rhs_g = w + Series.from_terms(
        order,
        [
            (2, 0, 1, 1, 1),
            (3, 0, 1, 1, -1),
            (3, 0, 0, 1, 1),
            (3, 0, 1, 0, 1),
            (3, 0, 0, 0, -1),
            (2, 0, 0, 0, -1),
            (1, 0, 0, 0, 1),
            (1, 0, 1, 0, -2),
            (0, 0, 0, 0, -1),
        ],
    )
    den_h = Series.from_terms(
        order, [(2, 0, 1, 0, 2), (3, 0, 0, 0, 2), (3, 0, 1, 0, -2)]
    )
    rhs_h = (
        w.shift_up(1)
        - w
        + Series.from_terms(
            order,
            [
                (2, 0, 1, 1, -1),
                (3, 0, 1, 1, 2),
                (3, 0, 0, 1, -1),
                (4, 0, 1, 1, -1),
                (4, 0, 0, 1, 1),
                (4, 0, 1, 0, 1),
                (4, 0, 0, 0, -1),
                (3, 0, 1, 0, -1),
                (1, 0, 0, 0, -2),
                (0, 0, 0, 0, 1),
            ],
        )
    )
    den_gh = Series.from_terms(
        order, [(3, 0, 0, 0, -2), (2, 0, 1, 0, -2), (3, 0, 1, 0, 2)]
    )
    rhs_gh = w + Series.from_terms(
        order,
        [
            (0, 0, 0, 0, -1),
            (3, 0, 0, 0, -1),
            (2, 0, 1, 1, 1),
            (3, 0, 1, 1, -1),
            (3, 0, 0, 1, 1),
            (1, 0, 0, 0, 1),
            (2, 0, 0, 0, 1),
            (2, 0, 1, 0, -2),
            (3, 0, 1, 0, 1),
        ],
    )
    return [
        ("G(0)", bnd.g0 * den_g, rhs_g),
        ("H(0)", bnd.h0 * den_h, rhs_h),
        ("G(0)+H(0)", (bnd.g0 + bnd.h0) * den_gh, rhs_gh),
    ]
