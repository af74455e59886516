"""Specialize first, then compute.

Numeric u, sigma and tau passed into the DP and the closed form must give
the symbolic series specialized at them, on a grid of values, for every
sequence anchor, and far beyond the symbolic orders.
"""

import itertools
from fractions import Fraction

import pytest

from motzkin.automata import dp_series
from motzkin.cli import ANCHORS, anchor_computed_terms
from motzkin.paths import Variant
from motzkin.series import closed_form

# None keeps the variable symbolic
VALUES = (None, 0, 1, -1, Fraction(1, 2), Fraction(3, 2))


@pytest.mark.parametrize("variant", list(Variant))
def test_dp_values_in_the_sweep_equal_full_then_specialize(variant):
    full = dp_series(10, variant)
    for u, sigma, tau in itertools.product(VALUES, repeat=3):
        expected = full.specialize(u=u, sigma=sigma, tau=tau)
        assert dp_series(10, variant, u, sigma, tau) == expected, (u, sigma, tau)


@pytest.mark.parametrize("variant", list(Variant))
def test_closed_form_values_in_the_pipeline_equal_full_then_specialize(variant):
    full = closed_form(variant, 10)
    for sigma, tau in itertools.product(VALUES, repeat=2):
        first = closed_form(variant, 10, sigma, tau)
        for name in ("f", "g", "h", "k", "total"):
            whole = getattr(full, name)
            if whole is None:
                assert getattr(first, name) is None
                continue
            expected = whole.specialize(sigma=sigma, tau=tau)
            assert getattr(first, name) == expected, (name, sigma, tau)


def test_anchor_terms_equal_full_then_specialize():
    for anchor in ANCHORS:
        count = len(anchor.terms)
        full = dp_series(count - 1, anchor.variant).specialize(
            u=anchor.u, sigma=anchor.sigma, tau=anchor.tau
        )
        expected = [int(full.coefficient(n).as_constant()) for n in range(count)]
        assert anchor_computed_terms(anchor, count) == expected, anchor.label


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize(
    "order, u, sigma, tau",
    [(100, 1, 1, 1), (60, Fraction(1, 2), Fraction(3, 2), -1)],
)
def test_dp_equals_closed_form_at_high_specialized_order(variant, order, u, sigma, tau):
    dp = dp_series(order, variant, u, sigma, tau)
    closed = closed_form(variant, order, sigma, tau).total.specialize(u=u)
    assert dp == closed
