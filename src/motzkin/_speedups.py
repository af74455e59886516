"""Sparse polynomial products of the series engine.

Polynomials are dicts mapping packed exponent keys to int or Fraction
coefficients; adding two keys multiplies the monomials.  They serve
``Series`` products and divisions and ``Series.sqrt``.  The closed form's
recurrences run the same loop on packed coefficients: the total's on one
int per (s, t) monomial holding the u-polynomial, W's (for C0) on one int
per power of t holding the s-polynomial, or on one int holding the
t-polynomial when only tau is symbolic.

``perfbench/tracer.py`` wraps ``poly_acc`` and ``poly_mul`` to count
products, so ``poly_mul`` shares the loop through ``_accumulate`` rather
than calling ``poly_acc``: each product is then counted once.  The packed
products of the total and of W go through ``poly_acc`` too, and are
counted.
"""

from __future__ import annotations

from fractions import Fraction


def _accumulate(out: dict, a: dict, b: dict, negate: bool) -> None:
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    for ka, va in a.items():
        if negate:
            va = -va
        for kb, vb in b.items():
            key = ka + kb
            cur = get(key)
            if cur is None:
                out[key] = va * vb
            else:
                out[key] = cur + va * vb


def poly_acc(out: dict, a: dict, b: dict, negate: bool = False) -> None:
    """Accumulate the product a*b (negated if asked) into out.

    Raw accumulation: zero coefficients are left in place, cleanup is the
    caller's job.  out must not alias a or b.
    """
    _accumulate(out, a, b, negate)


def poly_mul(a: dict, b: dict) -> dict:
    """Product of two term dicts, cleaned as by ``clean_terms``."""
    out: dict = {}
    _accumulate(out, a, b, False)
    return clean_terms(out)


def clean_terms(d: dict) -> dict:
    """Drop zero coefficients and demote integral Fractions to int."""
    res = {}
    for key, val in d.items():
        if type(val) is Fraction:
            if val.denominator == 1:
                val = val.numerator
        if val != 0:
            res[key] = val
    return res
