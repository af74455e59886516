"""The kernel root and the closed form's totals computed the first way.

The power-series root r2 = z*rho of the kernel quadratic comes from rho's
own coefficient recurrence: rho = r2/z solves z^2*rho^2 - P*rho + Q/z = 0,
and P has constant term 1, so
    rho[n] = (Q/z)[n] + sum_{i+j=n-2} rho[i]*rho[j] - sum_{k=1..n} P[k]*rho[n-k]
(Prodinger, "The kernel method: a collection of examples", 2004).  It is
written with public Poly arithmetic only, so it shares no loop with the
library's C0 solver.  Then z*r1 = P - z^2*rho and W = P - 2*z^2*rho.

C0 solves C0 * (z*r1 - z^2*D) = N, and the grand total is
T = (N + z^2*D*C0) / (z*r1 - z*u), both by series division with z*r1 from
rho.  ``motzkin.series`` gets C0 from the six-term recurrence for W, the
square root of the discriminant, T from a three-term recurrence and z*r1
the other way round, as P - z^2*D - (s*z^2 + z^3*D)*C0; the tests hold all
of them to this reference byte for byte.  Numeric sigma,
tau and u go into the constants before the work, as in the library.

Run as a script, it checks the full grid of values at higher orders:
``PYTHONPATH=src python tests/reference_kernel.py 30``.
"""

from fractions import Fraction
from functools import cache
from itertools import product

from motzkin.paths import Variant
from motzkin.series import (
    Series,
    _constant_terms,
    _terms_at,
    boundary_values,
    closed_form,
    kernel_r2,
    kernel_w,
    kernel_zr1,
)


def constants(variant, order, sigma=None, tau=None):
    """P, Q/z, N and z^2*D with numeric sigma and tau put in."""
    return [_terms_at(order, t, sigma, tau) for t in _constant_terms(variant)[:4]]


@cache
def rho(variant, order, sigma=None, tau=None):
    """rho = r2/z by the coefficient recurrence above (kept per argument
    tuple, as every other piece here starts from it)."""
    p, q = (s.coefficients() for s in constants(variant, order, sigma, tau)[:2])
    coeffs = []
    for n in range(order + 1):
        coeff = q[n]
        for i in range(n - 1):
            coeff = coeff + coeffs[i] * coeffs[n - 2 - i]
        for k in range(1, n + 1):
            coeff = coeff - p[k] * coeffs[n - k]
        coeffs.append(coeff)
    return Series(coeffs, order)


def _z2_rho(variant, order, sigma, tau):
    return rho(variant, order, sigma, tau).shift_up(2).prefix(order)


def r2(variant, order, sigma=None, tau=None):
    """r2 = z*rho."""
    return rho(variant, order, sigma, tau).shift_up(1).prefix(order)


def zr1(variant, order, sigma=None, tau=None):
    """z*r1 = P - z^2*rho."""
    p = constants(variant, order, sigma, tau)[0]
    return p - _z2_rho(variant, order, sigma, tau)


def w(variant, order, sigma=None, tau=None):
    """W = P - 2*z^2*rho."""
    p = constants(variant, order, sigma, tau)[0]
    return p - _z2_rho(variant, order, sigma, tau).scale(2)


def c0(variant, order, sigma=None, tau=None):
    """C0 = N / (z*r1 - z^2*D)."""
    _, _, num, z2d = constants(variant, order, sigma, tau)
    return num / (zr1(variant, order, sigma, tau) - z2d)


def total(variant, order, sigma=None, tau=None, u=None):
    """T = (N + z^2*D*C0) / (z*r1 - z*u)."""
    _, _, num, z2d = constants(variant, order, sigma, tau)
    zu = _terms_at(order, [(1, 1, 0, 0, 1)], sigma, tau, u)
    divisor = zr1(variant, order, sigma, tau) - zu
    return (num + z2d * c0(variant, order, sigma, tau)) / divisor


# sigma, tau and u each range over these in the grid checks; None keeps the
# variable
GRID_VALUES = (None, 0, 1, -1, Fraction(1, 2), Fraction(3, 2))

KERNEL_PIECES = ((kernel_r2, r2), (kernel_zr1, zr1), (kernel_w, w))


def kernel_mismatches(variant, order, values=GRID_VALUES):
    """The (piece, sigma, tau) where the library's kernel_r2, kernel_zr1 or
    kernel_w differs from the reference in to_text() bytes."""
    bad = []
    for sigma, tau in product(values, repeat=2):
        for library, reference in KERNEL_PIECES:
            got = library(variant, order, sigma, tau).to_text()
            if got != reference(variant, order, sigma, tau).to_text():
                bad.append((library.__name__, sigma, tau))
    return bad


def grid_mismatches(variant, order, u_values=GRID_VALUES):
    """The points of the grid where the library differs from the reference
    in to_text() bytes: (sigma, tau, u) for a total, (sigma, tau) for C0."""
    bad = []
    for sigma, tau in product(GRID_VALUES, repeat=2):
        got = boundary_values(variant, order, sigma, tau).total
        if got.to_text() != c0(variant, order, sigma, tau).to_text():
            bad.append((sigma, tau))
        for u in u_values:
            got = closed_form(variant, order, sigma, tau, u).total
            if got.to_text() != total(variant, order, sigma, tau, u).to_text():
                bad.append((sigma, tau, u))
    return bad


if __name__ == "__main__":
    # the full grid at higher orders, too slow for the test suite:
    #     PYTHONPATH=src python tests/reference_kernel.py 30
    import sys

    for order in map(int, sys.argv[1:] or ["30"]):
        for variant in Variant:
            bad = kernel_mismatches(variant, order) + grid_mismatches(variant, order)
            print(f"{variant.value} z^{order}: {len(bad)} mismatches {bad}")
            if bad:
                sys.exit(1)
