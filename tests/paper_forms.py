"""Printed kernel-method forms that only the tests compare against.

The library builds every series from the kernel quadratic's constants.  The
forms here are written out term for term instead: the discriminant of each
variant and the plain boundary values in radical form.  So the tests hold
the pipeline against data it never reads.  Terms are (z power, e_u, e_s,
e_t, coefficient) tuples.
"""

from motzkin.paths import Variant
from motzkin.series import Series, boundary_values, kernel_w

# the two plain cubics whose product is the plain discriminant, less their
# constant and z terms
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


def _plain_cubic(z1_coeff: int, order: int) -> Series:
    terms = ((0, 0, 0, 0, 1), (1, 0, 0, 0, z1_coeff)) + _PLAIN_CUBIC_TAIL
    return Series.from_terms(order, terms)


def kernel_radicand(variant: Variant, order: int) -> Series:
    """The polynomial under the square root of the discriminant."""
    if variant is Variant.PLAIN:
        return _plain_cubic(-3, order) * _plain_cubic(1, order)
    return Series.from_terms(order, _SKEW_RADICAND_TERMS)


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
        ("G(0)", bnd.g * den_g, rhs_g),
        ("H(0)", bnd.h * den_h, rhs_h),
        ("G(0)+H(0)", (bnd.g + bnd.h) * den_gh, rhs_gh),
    ]
