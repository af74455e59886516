import random
from fractions import Fraction

import pytest

from motzkin import series as series_module
from motzkin.automata import dp_series
from motzkin.paths import Variant
from motzkin.series import (
    CACHE_SIZE,
    Poly,
    Series,
    boundary_values,
    closed_form,
    default_order,
    kernel_r2,
    kernel_sum,
    kernel_w,
    kernel_zr1,
    specialize,
)
import reference_kernel
from paper_forms import kernel_radicand, plain_printed_boundary_identities
from reference_output import poly_text, series_json, series_json_text, series_text

MOTZKIN = [1, 1, 2, 4, 9, 21, 51, 127, 323]
SKEW_EXCURSIONS = [1, 1, 2, 5, 13, 35, 97, 275, 794]
SQRT_1_2Z_3Z2 = [1, -1, -2, -2, -4, -8, -18, -42, -102]


def poly(d):
    return Poly(list(d.items()))


def random_poly(rng, max_exp=2, terms=3):
    entries = {}
    for _ in range(terms):
        key = (
            rng.randrange(max_exp + 1),
            rng.randrange(max_exp + 1),
            rng.randrange(max_exp + 1),
        )
        entries[key] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    return Poly(list(entries.items()))


def random_series(rng, order, unit=False):
    coeffs = [random_poly(rng) for _ in range(order + 1)]
    if unit:
        coeffs[0] = Poly.one()
    return Series(coeffs, order)


def int_coeffs(series):
    """Constant-term integers of every z coefficient, for prefix checks."""
    out = []
    for n in range(series.order + 1):
        value = series.coefficient(n).as_constant()
        assert value is not None and value.denominator == 1
        out.append(int(value))
    return out


# ---------------------------------------------------------------------------
# Poly


def test_poly_canonicalizes():
    p = Poly([((1, 0, 0), 1), ((1, 0, 0), 2), ((0, 0, 0), 0)])
    assert p.terms() == [(((1, 0, 0)), 3)]
    assert Poly([((0, 0, 0), Fraction(4, 2))]).as_constant() == 2
    assert Poly().is_zero()


def test_poly_and_series_refuse_float_coefficients():
    # every constructor takes ints and Fractions only, as substitution does
    with pytest.raises(TypeError):
        Poly([((0, 0, 0), 0.5)])
    with pytest.raises(TypeError):
        Poly([((1, 0, 0), 1), ((1, 0, 0), 1.0)])
    with pytest.raises(TypeError):
        Series.from_terms(2, [(1, 0, 0, 0, 0.25)])
    with pytest.raises(TypeError):
        Poly.constant(0.5)
    assert Poly([((0, 0, 0), Fraction(1, 2))]) == Poly.constant(Fraction(1, 2))


def test_poly_rejects_negative_exponents():
    with pytest.raises(ValueError):
        Poly([((-1, 0, 0), 1)])


def test_poly_str_formats():
    assert str(poly({(2, 0, 0): 1, (0, 0, 1): 1, (1, 0, 0): 2, (0, 0, 0): 1})) == (
        "1 + 2*u + t + u^2"
    )
    assert str(poly({(1, 0, 0): 1, (0, 0, 1): -1})) == "u - t"
    assert str(poly({(1, 0, 0): 1, (0, 1, 0): 1})) == "u + s"
    assert str(poly({(1, 0, 0): -1})) == "-u"
    assert str(Poly.constant(Fraction(1, 2))) == "1/2"
    assert str(Poly.zero()) == "0"
    assert str(poly({(0, 0, 0): -2, (1, 1, 2): Fraction(3, 4)})) == (
        "-2 + 3/4*u*s*t^2"
    )


def test_poly_arithmetic():
    a = poly({(1, 0, 0): 1, (0, 0, 0): 1})
    b = poly({(1, 0, 0): -1, (0, 0, 0): 1})
    assert a * b == poly({(0, 0, 0): 1, (2, 0, 0): -1})
    assert a + b == Poly.constant(2)
    assert a - a == Poly.zero()
    assert -a == poly({(1, 0, 0): -1, (0, 0, 0): -1})
    assert a.scale(0) == Poly.zero()


def test_poly_substitute():
    p = poly({(2, 1, 0): 2, (0, 0, 1): 1})
    assert p.substitute(u=1) == poly({(0, 1, 0): 2, (0, 0, 1): 1})
    assert p.substitute(u=Fraction(1, 2), sigma=3, tau=0) == Poly.constant(
        Fraction(3, 2)
    )
    assert p.substitute() is p


def test_poly_degrees_and_coefficient():
    p = poly({(2, 1, 0): 2, (0, 0, 3): 1})
    assert p.degrees() == (2, 1, 3)
    assert p.coefficient(2, 1, 0) == 2
    assert p.coefficient(1, 1, 1) == 0


# ---------------------------------------------------------------------------
# Series arithmetic


def test_series_basic_identities():
    one_plus = Series.from_terms(6, [(0, 0, 0, 0, 1), (1, 0, 0, 0, 1)])
    one_minus = Series.from_terms(6, [(0, 0, 0, 0, 1), (1, 0, 0, 0, -1)])
    assert one_plus * one_minus == Series.from_terms(
        6, [(0, 0, 0, 0, 1), (2, 0, 0, 0, -1)]
    )
    assert (one_plus - one_plus).is_zero()
    assert one_plus.scale(0).is_zero()


def test_series_min_order_propagates():
    a = Series.one(8)
    b = Series.z(5)
    assert (a + b).order == 5
    assert (a * b).order == 5
    assert (a - b).order == 5


def test_series_random_ring_axioms():
    rng = random.Random(90210)
    for _ in range(25):
        a = random_series(rng, 6)
        b = random_series(rng, 6)
        c = random_series(rng, 6)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


def test_series_prefix_and_shifts():
    s = Series.from_terms(4, [(1, 0, 0, 0, 1), (2, 0, 0, 0, 1)])
    assert s.prefix(2) == Series.from_terms(2, [(1, 0, 0, 0, 1), (2, 0, 0, 0, 1)])
    with pytest.raises(ValueError):
        s.prefix(9)
    assert s.shift_up(2).order == 6


def test_series_coefficient_bounds():
    s = Series.one(3)
    assert s.coefficient(3) == Poly.zero()
    with pytest.raises(IndexError):
        s.coefficient(4)
    with pytest.raises(IndexError):
        s.coefficient(-1)


def test_series_from_terms_validation():
    with pytest.raises(ValueError):
        Series.from_terms(4, [(-1, 0, 0, 0, 1)])
    # beyond-order terms are silently truncated
    s = Series.from_terms(2, [(5, 0, 0, 0, 1)])
    assert s.is_zero()


# ---------------------------------------------------------------------------
# division and square root


def test_div_geometric():
    one = Series.one(8)
    one_minus = Series.from_terms(8, [(0, 0, 0, 0, 1), (1, 0, 0, 0, -1)])
    geo = one / one_minus
    assert int_coeffs(geo) == [1] * 9
    assert geo * one_minus == one


def test_div_requires_unit_constant():
    with pytest.raises(ValueError) as info:
        Series.one(4) / Series.z(4)
    assert "constant term" in str(info.value)
    with pytest.raises(ValueError):
        Series.one(4) / Series.constant_poly(Poly.monomial(1, eu=1), 4)
    with pytest.raises(TypeError):
        Series.one(4).div(1)  # type: ignore[arg-type]


def test_div_random_round_trip():
    rng = random.Random(5150)
    for _ in range(30):
        a = random_series(rng, 7)
        b = random_series(rng, 7, unit=True)
        # every quotient coefficient is scaled by 1/constant, a no-op for 1
        for c in (1, -1, Fraction(-3, 2)):
            assert (a * b.scale(c)) / b.scale(c) == a


def test_sqrt_frozen_prefix():
    radicand = Series.from_terms(
        8, [(0, 0, 0, 0, 1), (1, 0, 0, 0, -2), (2, 0, 0, 0, -3)]
    )
    root = radicand.sqrt()
    assert int_coeffs(root) == SQRT_1_2Z_3Z2
    assert root * root == radicand


def test_sqrt_requires_constant_one():
    with pytest.raises(ValueError) as info:
        Series.from_terms(4, [(0, 0, 0, 0, 2)]).sqrt()
    assert "constant term 1" in str(info.value)
    with pytest.raises(ValueError):
        Series.zero(4).sqrt()


def test_sqrt_random_round_trip():
    rng = random.Random(31337)
    for _ in range(30):
        s = random_series(rng, 7, unit=True)
        square = s * s
        root = square.sqrt()
        assert root == s
        assert root * root == square


# ---------------------------------------------------------------------------
# specialization, text, json


def test_specialize_examples():
    s = Series.from_terms(
        3, [(0, 0, 0, 0, 1), (2, 2, 0, 1, 1), (3, 1, 1, 1, 2)]
    )
    at = specialize(s, u=1, sigma=1, tau=1)
    assert int_coeffs(at) == [1, 0, 1, 2]
    half = specialize(s, u=Fraction(1, 2))
    assert half.coefficient(2) == poly({(0, 0, 1): Fraction(1, 4)})
    # method and function agree; None leaves a variable symbolic
    assert s.specialize(tau=0) == specialize(s, tau=0)
    assert s.specialize(tau=0).coefficient(2) == Poly.zero()


def test_substitution_refuses_inexact_values():
    p = poly({(1, 1, 1): 3})
    for bad in (0.5, 1.0, "1"):
        with pytest.raises(TypeError):
            p.substitute(u=bad)
        with pytest.raises(TypeError):
            Series.constant_poly(p, 2).specialize(sigma=bad)
    # an equal exact value in the cache does not let a float through
    closed_form(Variant.PLAIN, 3, 1)
    with pytest.raises(TypeError):
        closed_form(Variant.PLAIN, 3, 1.0)
    with pytest.raises(TypeError):
        closed_form(Variant.SKEW, 3, None, 0.5)
    # the same through keyword arguments, which build their own cache key
    closed_form(Variant.PLAIN, 3, sigma=1)
    with pytest.raises(TypeError):
        closed_form(Variant.PLAIN, 3, sigma=1.0)
    # at u = 0 the closed form is the boundary object; 0.0 is still refused
    closed_form(Variant.PLAIN, 3, None, None, 0)
    with pytest.raises(TypeError):
        closed_form(Variant.PLAIN, 3, None, None, 0.0)


def test_cached_dp_result_lets_no_float_through():
    # the DP cache is typed too: 1.0 == 1 and 0.5 == 1/2 hash alike
    for exact, inexact in ((1, 1.0), (Fraction(1, 2), 0.5)):
        dp_series(3, Variant.PLAIN, u=exact)
        hits = dp_series.cache_info().hits
        dp_series(3, Variant.PLAIN, u=exact)
        assert dp_series.cache_info().hits == hits + 1
        with pytest.raises(TypeError):
            dp_series(3, Variant.PLAIN, u=inexact)


def test_to_text_format():
    s = Series.from_terms(2, [(0, 0, 0, 0, 1), (2, 1, 0, 0, 3)])
    assert s.to_text() == "z^0: 1\nz^1: 0\nz^2: 3*u"
    assert str(s) == s.to_text()


def test_json_round_trip():
    rng = random.Random(777)
    s = random_series(rng, 5)
    data = s.to_json()
    assert data["order"] == 5
    again = Series.from_json(data)
    assert again == s
    # values survive as exact fractions
    text_values = [v for entries in data["coeffs"] for _, v in entries]
    assert all(isinstance(v, str) for v in text_values)


HALF = Fraction(1, 2)
EMITTER_CASES = {
    "order-0": Series.one(0),
    "zero": Series.zero(3),
    "empty-between": Series.from_terms(
        4, [(0, 0, 0, 0, -1), (3, 1, 0, 0, 1), (3, 0, 0, 0, -1)]
    ),
    "units-and-signs": Series.from_terms(2, [
        (0, 1, 0, 0, 1), (0, 0, 1, 0, -1), (0, 0, 0, 0, -1),
        (1, 2, 0, 3, -7), (1, 0, 0, 0, 5), (1, 1, 1, 1, 1),
        (2, 0, 2, 1, -1), (2, 0, 0, 0, 1),
    ]),
    "fractions": Series.from_terms(3, [
        (0, 0, 0, 0, HALF), (0, 1, 1, 1, Fraction(-3, 4)),
        (1, 0, 0, 0, Fraction(-1, 3)), (1, 3, 0, 1, Fraction(5, 2)),
        (2, 1, 0, 0, -HALF), (3, 0, 0, 2, Fraction(7, 3)),
    ]),
    "plain-closed-form": closed_form(Variant.PLAIN, 10).total,
    "skew-closed-form-half": closed_form(Variant.SKEW, 8, HALF).total,
}


@pytest.mark.parametrize("name", sorted(EMITTER_CASES))
def test_emitters_match_the_reference_builders(name):
    s = EMITTER_CASES[name]
    assert s.to_text() == series_text(s)
    assert s.to_json_text() == series_json_text(s)
    assert s.to_json() == series_json(s)
    for p in s.coefficients():
        assert str(p) == poly_text(p)


# ---------------------------------------------------------------------------
# kernel arithmetic


def test_kernel_sum_is_the_printed_quadratic_coefficient():
    plain = Series.from_terms(
        3,
        [
            (0, 0, 0, 0, 1),
            (1, 0, 0, 0, -1),
            (2, 0, 0, 0, 1),
            (2, 0, 1, 1, -1),
            (3, 0, 1, 1, 1),
            (3, 0, 1, 0, -1),
            (3, 0, 0, 1, -1),
            (3, 0, 0, 0, 1),
        ],
    )
    skew = Series.from_terms(
        3,
        [
            (0, 0, 0, 0, 1),
            (1, 0, 0, 0, -1),
            (2, 0, 0, 0, 2),
            (2, 0, 1, 1, -1),
            (3, 0, 0, 0, 2),
            (3, 0, 1, 0, -1),
            (3, 0, 0, 1, -1),
            (3, 0, 1, 1, 1),
        ],
    )
    for variant, printed in ((Variant.PLAIN, plain), (Variant.SKEW, skew)):
        assert kernel_sum(variant, 3) == printed
        for sigma, tau in ((Fraction(1, 2), -1), (0, 0)):
            assert kernel_sum(variant, 3, sigma, tau) == printed.specialize(
                sigma=sigma, tau=tau
            )


def test_radicand_is_discriminant_of_kernel():
    for variant in Variant:
        p = kernel_sum(variant, 12)
        rad = kernel_radicand(variant, 12)
        if variant is Variant.PLAIN:
            correction = Series.from_terms(12, [(2, 0, 0, 0, -4)])
        else:
            correction = Series.from_terms(
                12, [(2, 0, 0, 0, -8), (4, 0, 1, 1, 4)]
            )
        assert rad == p * p + correction


def test_skew_radicand_cornerless_specialization():
    rad = specialize(kernel_radicand(Variant.SKEW, 6), sigma=0, tau=0)
    assert int_coeffs(rad) == [1, -2, -3, 0, 0, 8, 4]


def test_kernel_roots_recombine():
    for variant in Variant:
        w = kernel_w(variant, 30)
        assert w.coefficient(0) == Poly.one()
        assert w * w == kernel_radicand(variant, 30)
        zr2 = kernel_r2(variant, 29).shift_up(1)
        zr1 = kernel_zr1(variant, 30)
        assert zr1 + zr2 == kernel_sum(variant, 30)
        if variant is Variant.PLAIN:
            product = Series.from_terms(30, [(2, 0, 0, 0, 1)])
        else:
            product = Series.from_terms(
                30, [(2, 0, 0, 0, 2), (4, 0, 1, 1, -1)]
            )
        assert zr1 * zr2 == product


def test_closed_form_takes_no_square_root(monkeypatch):
    def no_sqrt(self):
        raise AssertionError("the closed-form route took a series square root")

    monkeypatch.setattr(Series, "sqrt", no_sqrt)
    # drop every cached closed-form result
    for value in vars(series_module).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    for variant in Variant:
        assert closed_form(variant, 12).total.coefficient(0) == Poly.one()


def test_kernel_w_specializes_to_trinomial_root():
    w = specialize(kernel_w(Variant.PLAIN, 8), sigma=1, tau=1)
    assert int_coeffs(w) == SQRT_1_2Z_3Z2


def test_kernel_r2_is_a_power_series_root():
    for variant in Variant:
        r2 = kernel_r2(variant, 8)
        assert r2.coefficient(0) == Poly.zero()
    motzkin_like = specialize(kernel_r2(Variant.PLAIN, 6), sigma=1, tau=1)
    assert int_coeffs(motzkin_like) == [0, 1, 1, 2, 4, 9, 21]


# ---------------------------------------------------------------------------
# boundary values and closed forms


def test_boundary_values_match_closed_form_floor():
    for variant in Variant:
        bnd = boundary_values(variant, 8)
        closed = closed_form(variant, 8)
        assert bnd.total == closed.total.specialize(u=0)
        assert bnd.f.is_zero()
        assert bnd.g == closed.g.specialize(u=0)
        assert bnd.h == closed.h.specialize(u=0)
        if variant is Variant.SKEW:
            assert bnd.k == closed.k.specialize(u=0)
        else:
            assert bnd.k is None


def test_boundary_values_count_excursions():
    bnd = boundary_values(Variant.PLAIN, 8)
    total = specialize(bnd.g + bnd.h, sigma=1, tau=1)
    assert int_coeffs(total) == MOTZKIN
    skew = boundary_values(Variant.SKEW, 8)
    total = specialize(skew.g + skew.h + skew.k, sigma=1, tau=1)
    assert int_coeffs(total) == SKEW_EXCURSIONS


def test_closed_form_structure():
    for variant in Variant:
        closed = closed_form(variant, 8)
        parts = closed.f + closed.g + closed.h
        if variant is Variant.SKEW:
            parts = parts + closed.k
        else:
            assert closed.k is None
        assert closed.total == parts
        assert closed.f.specialize(u=0).is_zero()
        assert closed.g.coefficient(0) == Poly.one()


def test_kernel_r2_ties_to_the_boundary_values():
    # kernel_r2 is (P - z*r1)/z with z*r1 = N/C0 + z^2*D, a division by C0;
    # the same root is linear in the boundary values,
    # r2 = z*(s*C0 - (s - a)*G0), a = 1 plain, 2 skew, so the two routes
    # from C0 must agree
    sigma = Series.constant_poly(poly({(0, 1, 0): 1}), 30)
    for variant, a in ((Variant.PLAIN, 1), (Variant.SKEW, 2)):
        bnd = boundary_values(variant, 30)
        c0 = bnd.g + bnd.h + (bnd.k if bnd.k is not None else Series.zero(30))
        assert c0 == bnd.total
        inner = sigma * c0 - (sigma - Series.one(30).scale(a)) * bnd.g
        assert kernel_r2(variant, 30) == inner.shift_up(1).prefix(30)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("order", [0, 1, 2, 3, 12])
def test_totals_are_the_division_reference_bytes(variant, order):
    # sigma, tau and u each in {sym, 0, 1, -1, 1/2, 3/2}
    assert reference_kernel.grid_mismatches(variant, order) == []


HALF, THREE_HALVES = Fraction(1, 2), Fraction(3, 2)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("order", [0, 1, 2, 30])
def test_kernel_pieces_are_the_rho_reference_bytes(variant, order):
    # the library takes z*r1 from C0 by division, the reference from rho's
    # own recurrence; at order 0, r2 reads z*r1 at order 1
    values = (None, 0, -1, HALF)
    assert reference_kernel.kernel_mismatches(variant, order, values) == []


@pytest.mark.parametrize(
    "variant, sigma, tau, u",
    [
        (Variant.PLAIN, None, None, None),
        (Variant.SKEW, None, None, None),
        (Variant.PLAIN, None, None, HALF),
        (Variant.SKEW, None, None, -1),
        (Variant.PLAIN, HALF, None, None),
        (Variant.SKEW, None, -1, THREE_HALVES),
        (Variant.PLAIN, 0, 0, None),
        (Variant.SKEW, 1, HALF, None),
        (Variant.PLAIN, 1, 1, THREE_HALVES),
        (Variant.SKEW, HALF, -1, 1),
        (Variant.PLAIN, -1, HALF, 0),
        (Variant.SKEW, THREE_HALVES, 0, -1),
    ],
)
def test_order_30_totals_are_the_division_reference_bytes(variant, sigma, tau, u):
    got = closed_form(variant, 30, sigma, tau, u).total
    assert got.to_text() == reference_kernel.total(variant, 30, sigma, tau, u).to_text()
    got = boundary_values(variant, 30, sigma, tau).total
    assert got.to_text() == reference_kernel.c0(variant, 30, sigma, tau).to_text()


@pytest.mark.parametrize(
    "sigma, tau",
    [(None, None), (0, None), (HALF, None), (0, HALF), (HALF, -1), (-1, THREE_HALVES)],
)
def test_order_36_c0_is_the_division_reference_bytes(sigma, tau):
    # C0 from the W recurrence against C0 = N/(z*r1 - z^2*D) with z*r1 from
    # rho's own recurrence; sigma = 0 reads rho one order further
    for variant in Variant:
        got = boundary_values(variant, 36, sigma, tau).total.to_text()
        assert got == reference_kernel.c0(variant, 36, sigma, tau).to_text()


def test_c0_recurrence_stays_on_integers(monkeypatch):
    # symbolically and at integral sigma, tau (ints or Fractions with
    # denominator 1), every W coefficient and every quotient on the way from
    # rho = (P - W)/(2z^2) to C0 is an int, divided exactly
    quotients = []
    divide = series_module._divide

    def record(terms, d, exact):
        out = divide(terms, d, exact)
        quotients.append((out, exact))
        return out

    monkeypatch.setattr(series_module, "_divide", record)
    cases = (
        (None, None), (None, 2), (0, None), (1, -1), (2, 3),
        (Fraction(1), Fraction(-1)), (Fraction(2), Fraction(3)),
    )
    for variant in Variant:
        for sigma, tau in cases:
            quotients.clear()
            c0 = boundary_values(variant, 16, sigma, tau).total
            assert len(quotients) >= 17
            for terms, exact in quotients:
                assert exact, (variant, sigma, tau)
                assert all(type(value) is int for value in terms.values())
            for n in range(17):
                for _, value in c0.coefficient(n).terms():
                    assert type(value) is int, (variant, sigma, tau, n)


@pytest.mark.parametrize(
    "coeff, message", [(1, "does not divide a coefficient"), (4, "s does not divide")]
)
@pytest.mark.parametrize("k", [1, 2, 4, 6])
def test_c0_recurrence_refuses_a_wrong_discriminant(monkeypatch, coeff, message, k):
    # Delta one term off at z^k: W or rho leaves the integers, or the
    # s-free part of rho - a*G0 does not vanish
    terms_at = series_module._terms_at
    hits = []

    def off_by_one_term(order, terms, *values):
        series = terms_at(order, terms, *values)
        p, q = series_module._constant_terms(variant)[:2]
        if list(terms) == series_module._times(p, p) + series_module._shifted(q, -4, 2):
            hits.append(order)
            coeffs = list(series.coefficients())
            coeffs[k] = coeffs[k] + poly({(0, 0, 1): coeff})
            series = Series(coeffs, series.order)
        return series

    monkeypatch.setattr(series_module, "_terms_at", off_by_one_term)
    for variant in Variant:
        hits.clear()
        with pytest.raises(ArithmeticError, match=message):
            boundary_values(variant, 12)
        assert len(hits) == 1


def test_total_takes_no_division_product_or_kernel_root(monkeypatch):
    def refuse(*args):
        raise AssertionError("the total's route took a series division, "
                             "product or kernel root")

    for name in ("div", "__mul__", "__truediv__", "sqrt"):
        monkeypatch.setattr(Series, name, refuse)
    for name in ("kernel_zr1", "kernel_r2", "kernel_w"):
        monkeypatch.setattr(series_module, name, refuse)
    for value in vars(series_module).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    for variant in Variant:
        for args in ((), (HALF, -1, None), (None, None, THREE_HALVES)):
            closed = closed_form(variant, 12, *args)
            assert closed.total.coefficient(0) == Poly.one()
            assert "kernel" not in vars(closed)  # built only for the layers


def test_symbolic_u_rechecks_c0_at_every_order(monkeypatch):
    bnd = boundary_values(Variant.SKEW, 12)
    coeffs = list(bnd.c0.coefficients())
    coeffs[7] = coeffs[7] + poly({(0, 1, 2): 1})  # one term off
    wrong = Series(coeffs, 12)
    broken = series_module.ClosedForm(Variant.SKEW, 12, wrong, wrong, bnd.zu)
    monkeypatch.setattr(series_module, "boundary_values", lambda *args: broken)
    closed_form.cache_clear()
    with pytest.raises(ArithmeticError, match="z\\^8"):
        closed_form(Variant.SKEW, 12)
    # a numeric u has no u-free part to check; it divides by the number
    closed_form(Variant.SKEW, 12, None, None, 2)
    closed_form.cache_clear()


def test_cached_entry_points_refuse_bad_arguments():
    with pytest.raises(TypeError):
        closed_form(Variant.PLAIN)
    with pytest.raises(TypeError):
        closed_form(Variant.PLAIN, 5, rho=None)
    with pytest.raises(TypeError):
        closed_form(Variant.PLAIN, 5, variant=Variant.PLAIN)


def test_closed_form_solves_c0_once(monkeypatch):
    # the layers' divisor takes z*r1 from the closed form's own C0, and the
    # boundary values are not looked up a second time
    calls = []
    solve = series_module.boundary_values

    def count(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(series_module, "boundary_values", count)
    closed_form.cache_clear()
    closed = closed_form(Variant.SKEW, 6)
    for layer in (closed.f, closed.g, closed.h, closed.k):
        assert layer.order == 6
    assert calls == [(Variant.SKEW, 6, None, None)]


def test_cold_closed_form_builds_the_kernel_constants_once(monkeypatch):
    # every constant series is substituted once for a cold closed form and
    # all of its layers: no step rebuilds what another one built
    built = []
    terms_at = series_module._terms_at

    def record(order, terms, *values):
        built.append((order, tuple(terms), values))
        return terms_at(order, terms, *values)

    monkeypatch.setattr(series_module, "_terms_at", record)
    closed_form.cache_clear()
    closed = closed_form(Variant.SKEW, 6, Fraction(1, 2))
    assert closed.h.order == closed.k.order == 6
    assert built and len(set(built)) == len(built)


def test_pipeline_caches_are_bounded():
    caches = (closed_form, dp_series)
    for variant in Variant:
        for sigma in range(CACHE_SIZE + 1):
            closed_form(variant, 2, sigma)
            dp_series(2, variant, None, sigma)
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize == CACHE_SIZE
        assert info.currsize <= CACHE_SIZE


def test_printed_boundary_identities_hold():
    for name, lhs, rhs in plain_printed_boundary_identities(12):
        assert isinstance(name, str)
        assert lhs == rhs, name


# ---------------------------------------------------------------------------
# configuration


def test_default_order_env(monkeypatch):
    monkeypatch.delenv("MOTZKIN_ORDER", raising=False)
    assert default_order() == 24
    monkeypatch.setenv("MOTZKIN_ORDER", "10")
    assert default_order() == 10
    monkeypatch.setenv("MOTZKIN_ORDER", "abc")
    with pytest.raises(ValueError):
        default_order()
    monkeypatch.setenv("MOTZKIN_ORDER", "-2")
    with pytest.raises(ValueError):
        default_order()
