"""The closed form's totals computed the first way: two series divisions by
the kernel factor.

C0 solves C0 * (z*r1 - z^2*D) = N, and the grand total is
T = (N + z^2*D*C0) / (z*r1 - z*u), with z*r1 from the kernel root's own
recurrence.  ``motzkin.series`` now gets C0 from a quadratic with no root in
it and T from a three-term recurrence; the tests hold both to these
divisions byte for byte.  Numeric sigma, tau and u go into the constants
before the divisions, as in the library.

Run as a script, it checks the full grid of values at higher orders:
``PYTHONPATH=src python tests/reference_kernel.py 30``.
"""

from fractions import Fraction
from itertools import product

from motzkin.paths import Variant
from motzkin.series import (
    _kernel_constants,
    _terms_at,
    boundary_values,
    closed_form,
    kernel_zr1,
)


def c0(variant, order, sigma=None, tau=None):
    """C0 = N / (z*r1 - z^2*D)."""
    zr1 = kernel_zr1(variant, order, sigma, tau)
    _, _, num, z2d = _kernel_constants(variant, order, sigma, tau)[:4]
    return num / (zr1 - z2d)


def total(variant, order, sigma=None, tau=None, u=None):
    """T = (N + z^2*D*C0) / (z*r1 - z*u)."""
    zr1 = kernel_zr1(variant, order, sigma, tau)
    _, _, num, z2d = _kernel_constants(variant, order, sigma, tau)[:4]
    zu = _terms_at(order, [(1, 1, 0, 0, 1)], sigma, tau, u)
    return (num + z2d * c0(variant, order, sigma, tau)) / (zr1 - zu)


# sigma, tau and u each range over these in the grid checks; None keeps the
# variable
GRID_VALUES = (None, 0, 1, -1, Fraction(1, 2), Fraction(3, 2))


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
            bad = grid_mismatches(variant, order)
            print(f"{variant.value} z^{order}: {len(bad)} mismatches {bad}")
            if bad:
                sys.exit(1)
