import inspect
import itertools
import random
import sys
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
        Series.from_terms(2, [(0, 0, 0, 0, 1), (2, 1, 0, 1, 1.0)])
    with pytest.raises(TypeError):
        Poly.constant(0.5)
    with pytest.raises(TypeError):
        Poly.monomial(0.5, 1)
    assert Poly([((0, 0, 0), Fraction(1, 2))]) == Poly.constant(Fraction(1, 2))


def test_poly_rejects_negative_exponents():
    with pytest.raises(ValueError):
        Poly([((-1, 0, 0), 1)])
    # every exponent must fit its 21-bit field of a packed key
    for exps in ((1 << 21, 0, 0), (0, 1 << 21, 0), (0, 0, 1 << 21), (0, -1, 0)):
        with pytest.raises(ValueError, match="exponent out of range"):
            Poly([(exps, 1)])
        with pytest.raises(ValueError, match="exponent out of range"):
            Series.from_terms(2, [(1, *exps, 1)])
    assert Poly([(((1 << 21) - 1, 0, 0), 1)]).degrees() == ((1 << 21) - 1, 0, 0)


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


def long_division(a, b):
    """a / b by the schoolbook recurrence on Fractions, with public Poly
    arithmetic only: q[n] = (a[n] - sum_{k>=1} b[k]*q[n-k]) / b[0]."""
    order = min(a.order, b.order)
    inv = 1 / b.coefficient(0).as_constant()
    quot = []
    for n in range(order + 1):
        acc = a.coefficient(n)
        for k in range(1, n + 1):
            acc = acc - b.coefficient(k) * quot[n - k]
        quot.append(acc.scale(inv))
    return Series(quot, order)


def test_div_random_round_trip():
    rng = random.Random(5150)
    for i in range(30):
        a = random_series(rng, 7)
        b = random_series(rng, 7, unit=True)
        # the divisor's constant term sets the scale z/c the division runs
        # at; the Fraction reference is slow, so it checks the first pairs
        for c in (1, -1, Fraction(-3, 2), Fraction(-9, 4), Fraction(7, 5)):
            divisor = b.scale(c)
            if i < 4:
                assert a / divisor == long_division(a, divisor)
            assert (a * divisor) / divisor == a
    # one order-16 case in u, s and t, sparse enough for the reference
    a, b = (
        Series([random_poly(rng, 1, 2) for _ in range(17)], 16) for _ in range(2)
    )
    b = (Series.one(16) + b.shift_up(1).prefix(16)).scale(Fraction(-9, 4))
    assert a / b == long_division(a, b)


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
    # with no value given, the series itself comes back, uncopied
    assert s.specialize() is s and specialize(s) is s
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


@pytest.mark.parametrize("name", sorted(EMITTER_CASES))
def test_writers_keep_their_text(name):
    # a series is never changed once built, so each writer builds its text
    # once and hands back the same string on every later call
    s = EMITTER_CASES[name]
    assert s.to_text() is s.to_text()
    assert str(s) is s.to_text()
    assert s.to_json_text() is s.to_json_text()


def test_a_writer_that_raises_keeps_nothing():
    # 10^5000 has more digits than Python turns into text by default, so
    # both writers raise, every time; with the limit lifted they write the
    # whole text, and from then on hand it back whatever the limit
    s = Series.from_terms(1, [(1, 0, 0, 0, 10**5000)])
    for write in (s.to_text, s.to_json_text) * 2:
        with pytest.raises(ValueError):
            write()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text, json_text = s.to_text(), s.to_json_text()
        want = series_text(s), series_json_text(s)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (text, json_text) == want
    assert text == "z^0: 0\nz^1: 1" + "0" * 5000
    assert s.to_text() is text and s.to_json_text() is json_text


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
    # kernel_r2 is (P - z*r1)/z with z*r1 = P - z^2*D - (s*z^2 + z^3*D)*C0;
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
    # the library takes z*r1 from C0 by one product, the reference from rho's
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


# (u, sigma, tau) for the cross-route check at rational values: each of
# 1/2, 3/2 and -1/2 in each place, beside two pairs of the other values
# drawn from sym, 0, 1, -1, and six points with two or three of them
_RATIONALS = (HALF, THREE_HALVES, Fraction(-1, 2))
_OTHERS = (None, 0, 1, -1)
CROSS_ROUTE_POINTS = [
    tuple(others[:place]) + (value,) + tuple(others[place:])
    for i, (place, value) in enumerate(itertools.product(range(3), _RATIONALS))
    for others in (
        (_OTHERS[i % 4], _OTHERS[(i + 1) % 4]),
        (_OTHERS[(i + 2) % 4], _OTHERS[(i + 3) % 4]),
    )
] + [
    (HALF, THREE_HALVES, None),
    (None, HALF, Fraction(-1, 2)),
    (Fraction(-1, 2), 0, THREE_HALVES),
    (THREE_HALVES, HALF, 1),
    (HALF, Fraction(-1, 2), THREE_HALVES),
    (Fraction(-1, 2), THREE_HALVES, HALF),
]


@pytest.mark.parametrize("variant", list(Variant))
def test_closed_form_equals_dp_at_rational_values(variant):
    # the closed form at z/q and the DP scaled by its common denominator are
    # independent integer routes; they agree entrywise at order 36
    assert len(set(CROSS_ROUTE_POINTS)) == len(CROSS_ROUTE_POINTS) == 24
    for u, sigma, tau in CROSS_ROUTE_POINTS:
        closed = closed_form(variant, 36, sigma, tau, u).total
        assert closed == dp_series(36, variant, u, sigma, tau), (u, sigma, tau)


def _record_integer_route(monkeypatch):
    """Record each _divide call as (series name, quotient) and the
    coefficients each final division by q^n starts from.  _divide has no
    rational branch to take: it divides in integers or raises."""
    params = inspect.signature(series_module._divide).parameters
    assert list(params) == ["terms", "d", "name"]
    quotients, scaled = [], []
    divide, unscaled = series_module._divide, series_module._unscaled

    def record_divide(terms, d, name):
        out = divide(terms, d, name)
        quotients.append((name, out))
        return out

    def record_unscaled(coeffs, scale, d=1):
        scaled.append(list(coeffs))
        return unscaled(coeffs, scale, d)

    monkeypatch.setattr(series_module, "_divide", record_divide)
    monkeypatch.setattr(series_module, "_unscaled", record_unscaled)
    return quotients, scaled


def _all_ints(coeffs):
    return all(type(value) is int for terms in coeffs for value in terms.values())


# (sigma, tau, u) with a non-integer value: the pipeline runs at z/q
RATIONAL_POINTS = [
    (HALF, None, 1),
    (None, THREE_HALVES, -1),
    (HALF, THREE_HALVES, HALF),
    (-1, HALF, THREE_HALVES),
]


def test_c0_recurrence_stays_on_integers(monkeypatch):
    # symbolically and at any numeric sigma, tau (ints, Fractions with
    # denominator 1 or not), every W coefficient and every quotient on the
    # way from rho = (P - W)/(2z^2) to C0 is an int, divided exactly, until
    # the one division of C0's z^n coefficient by q^n
    quotients, scaled = _record_integer_route(monkeypatch)
    integral = (
        (None, None), (None, 2), (0, None), (1, -1), (2, 3),
        (Fraction(1), Fraction(-1)), (Fraction(2), Fraction(3)),
    )
    rational = tuple((sigma, tau) for sigma, tau, _ in RATIONAL_POINTS)
    for variant in Variant:
        for sigma, tau in integral + rational:
            quotients.clear()
            scaled.clear()
            c0 = boundary_values(variant, 16, sigma, tau).total
            assert len(quotients) >= 17
            for name, terms in quotients:
                assert name in ("W", "C0"), (variant, sigma, tau)
                assert _all_ints([terms]), (variant, sigma, tau, name)
            assert len(scaled) == 1 and _all_ints(scaled[0]), (variant, sigma, tau)
            if (sigma, tau) in rational:
                continue
            for n in range(17):
                for _, value in c0.coefficient(n).terms():
                    assert type(value) is int, (variant, sigma, tau, n)


def test_total_recurrence_stays_on_integers(monkeypatch):
    # at non-integer values T's recurrence runs at z/q on ints; a numeric
    # u's numerator, when not 1, is divided out exactly at every order
    quotients, scaled = _record_integer_route(monkeypatch)
    for variant in Variant:
        for sigma, tau, u in RATIONAL_POINTS:
            closed_form.cache_clear()
            quotients.clear()
            scaled.clear()
            closed_form(variant, 16, sigma, tau, u)
            for name, terms in quotients:
                assert _all_ints([terms]), (variant, sigma, tau, u, name)
            t_divisions = sum(name == "T" for name, _ in quotients)
            assert t_divisions == (0 if u.numerator == 1 else 17)
            assert len(scaled) == 2  # C0, then T
            assert all(_all_ints(coeffs) for coeffs in scaled), (sigma, tau, u)
    closed_form.cache_clear()


def test_series_sqrt_stays_on_integers(monkeypatch):
    # sparse rational radicands like criterion 8's, and one of order 0: W's
    # recurrence runs at z/4q, where every quotient is an int, and the one
    # division of each coefficient by (4q)^n starts from ints
    quotients, scaled = _record_integer_route(monkeypatch)
    rng = random.Random(16180339)

    def random_radicand(order):
        coeffs = [Poly.one()]
        for _ in range(order):
            entries = {}
            for _ in range(rng.randrange(1, 3)):
                key = (rng.randrange(2), rng.randrange(2), rng.randrange(2))
                entries[key] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
            coeffs.append(poly(entries) if rng.random() < 0.6 else Poly.zero())
        return Series(coeffs, order)

    radicands = [random_radicand(12) for _ in range(20)] + [Series.one(0)]
    for radicand in radicands:
        quotients.clear()
        scaled.clear()
        root = radicand.sqrt()
        assert len(quotients) == radicand.order
        for name, terms in quotients:
            assert name == "W" and _all_ints([terms])
        assert len(scaled) == 1 and _all_ints(scaled[0])
        assert root * root == radicand


def test_series_div_stays_on_integers(monkeypatch):
    # rational operands with negative and fractional constant terms: the
    # quotient recurrence runs at z/c on ints, c the divisor's cleared
    # constant term, and leaves through one _unscaled call on ints
    quotients, scaled = _record_integer_route(monkeypatch)
    rng = random.Random(27182818)
    for const in (1, -1, Fraction(-3, 2), Fraction(-9, 4), Fraction(7, 5)):
        a = random_series(rng, 8)
        b = random_series(rng, 8, unit=True).scale(const)
        quotients.clear()
        scaled.clear()
        quotient = a / b
        assert quotients == []
        assert len(scaled) == 1 and _all_ints(scaled[0]), const
        assert quotient == long_division(a, b), const


def test_series_mul_stays_on_integers(monkeypatch):
    # both operands cleared by one denominator, the products on ints and
    # one _unscaled call on ints at the end
    quotients, scaled = _record_integer_route(monkeypatch)
    rng = random.Random(14142135)
    for _ in range(5):
        a, b = random_series(rng, 8), random_series(rng, 8)
        scaled.clear()
        a * b
        assert quotients == []
        assert len(scaled) == 1 and _all_ints(scaled[0])


def test_c0_products_pass_through_poly_acc(monkeypatch):
    # W's recurrence multiplies s-packed coefficients through
    # _speedups.poly_acc, which perfbench's tracer counts: at symbolic plain
    # order 28 they touch 2 415 terms, one int per power of t
    touched = []
    poly_acc = series_module._speedups.poly_acc

    def count(out, a, b, negate=False):
        touched.append(len(a) * len(b))
        poly_acc(out, a, b, negate)

    monkeypatch.setattr(series_module._speedups, "poly_acc", count)
    boundary_values(Variant.PLAIN, 28)
    assert len(touched) == 162
    assert sum(touched) == 2_415


def test_total_products_pass_through_poly_acc(monkeypatch):
    # the total's packed multiply-adds go through _speedups.poly_acc, which
    # perfbench's tracer counts: at plain order 28 they touch 11 545 terms
    # beyond the boundary values' own
    touched = []
    poly_acc = series_module._speedups.poly_acc

    def count(out, a, b, negate=False):
        touched.append(len(a) * len(b))
        poly_acc(out, a, b, negate)

    monkeypatch.setattr(series_module._speedups, "poly_acc", count)
    boundary_values(Variant.PLAIN, 28)
    c0_share = sum(touched)
    touched.clear()
    closed_form.cache_clear()
    closed_form(Variant.PLAIN, 28)
    closed_form.cache_clear()
    assert c0_share > 0
    assert sum(touched) - c0_share == 11_545


def test_kernel_takes_no_series_division(monkeypatch):
    # z*r1 = P - z^2*D - (s*z^2 + z^3*D)*C0 is one product with C0; only
    # the f and k layers divide, by the kernel
    divisors = []
    div = Series.div

    def record(self, other):
        divisors.append(other)
        return div(self, other)

    monkeypatch.setattr(Series, "div", record)
    for variant in Variant:
        for values in ((), (HALF, None), (None, -1), (THREE_HALVES, HALF)):
            kernel = boundary_values(variant, 12, *values).kernel
            assert kernel.coefficient(0) == Poly.one()
    assert divisors == []
    closed_form.cache_clear()
    closed = closed_form(Variant.SKEW, 12)
    assert closed.h.order == closed.k.order == 12
    assert len(divisors) == 2 and all(d is closed.kernel for d in divisors)
    closed_form.cache_clear()


@pytest.mark.parametrize("width", [2, 3, 8, 61, 64, 65, 130])
def test_u_packing_round_trips_signed_slots(width):
    # slots at both edges of the signed range, negative ones next to
    # positive ones, gaps, and an (s, t) key with one slot only
    edge = (1 << width - 1) - 1
    rng = random.Random(width)
    terms = {}
    for es, et in ((0, 0), (1, 0), (2, 3), (0, 5)):
        for eu in range(12):
            value = rng.choice([edge, -edge, 1, -1, 0, rng.randint(-edge, edge)])
            if value:
                terms[series_module._pack(eu, es, et)] = value
    terms[series_module._pack(0, 7, 7)] = -edge
    terms[series_module._pack(40, 1, 1)] = edge
    packed = series_module._pack_slots(terms, width, 0)
    assert len(packed) == 6  # one int per (s, t) monomial
    assert series_module._unpacked(packed, width, 0) == terms
    # the low slot goes by a right shift, as the total divides by u
    shifted = {key: value << width for key, value in packed.items()}
    assert all(not value & (1 << width) - 1 for value in shifted.values())
    assert series_module._unpacked(shifted, width, 0) == {k + 1: v for k, v in terms.items()}


@pytest.mark.parametrize(
    "sigma, tau, wide",
    [(None, None, False), (-1, None, False), (THREE_HALVES, -1, True),
     (Fraction(-3, 2), HALF, True)],
)
def test_packed_totals_are_the_division_reference_bytes(sigma, tau, wide):
    # u symbolic at order 30: the slots hold up to (letters*ceil(q*M))^30, which
    # is past 64 bits at a value with denominator 2
    scale = series_module._value_scale(sigma, tau)
    for variant in Variant:
        width = series_module._slot_width(variant, 30, scale, sigma, tau)
        assert (width > 64) == wide
        got = closed_form(variant, 30, sigma, tau).total.to_text()
        assert got == reference_kernel.total(variant, 30, sigma, tau).to_text()


def test_slot_width_bounds_every_total_coefficient():
    # every coefficient of T at z/q fits a signed slot with room to spare
    for sigma, tau in ((None, None), (THREE_HALVES, -1), (Fraction(-3, 2), HALF)):
        scale = series_module._value_scale(sigma, tau)
        for variant in Variant:
            total = closed_form(variant, 24, sigma, tau).total
            biggest = max(
                abs(int(value * scale**n))
                for n, c in enumerate(total.coefficients())
                for _, value in c.terms()
            )
            width = series_module._slot_width(variant, 24, scale, sigma, tau)
            assert biggest.bit_length() < width - 1


def _put_delta_one_term_off(monkeypatch, coeff, k):
    """Add coeff*t to Delta's z^k coefficient wherever boundary_values
    builds Delta; the returned list gets the order of each build."""
    terms_at = series_module._terms_at
    hits = []

    def off_by_one_term(order, terms, *values):
        series = terms_at(order, terms, *values)
        for variant in Variant:
            p, q = series_module._constant_terms(variant)[:2]
            delta = series_module._times(p, p) + series_module._shifted(q, -4, 2)
            if list(terms) == delta:
                hits.append(order)
                coeffs = list(series.coefficients())
                coeffs[k] = coeffs[k] + poly({(0, 0, 1): coeff})
                series = Series(coeffs, series.order)
        return series

    monkeypatch.setattr(series_module, "_terms_at", off_by_one_term)
    return hits


@pytest.mark.parametrize(
    "coeff, message", [(1, "does not divide a coefficient"), (4, "s does not divide")]
)
@pytest.mark.parametrize("k", [1, 2, 4, 6])
def test_c0_recurrence_refuses_a_wrong_discriminant(monkeypatch, coeff, message, k):
    # Delta one term off at z^k: W or rho leaves the integers, or the
    # s-free part of rho - a*G0 does not vanish
    hits = _put_delta_one_term_off(monkeypatch, coeff, k)
    for variant in Variant:
        hits.clear()
        with pytest.raises(ArithmeticError, match=message):
            boundary_values(variant, 12)
        assert len(hits) == 1


@pytest.mark.parametrize(
    "coeff, message",
    [(1, "does not divide a coefficient of W"), (4, "does not divide a coefficient of C0")],
)
@pytest.mark.parametrize("k", [1, 2, 4, 6])
def test_scaled_c0_recurrence_refuses_a_wrong_discriminant(monkeypatch, coeff, message, k):
    # the same wrong Delta at sigma = 1/2, where C0 is worked out at z/2:
    # W or C0 leaves the integers and an exact division raises
    hits = _put_delta_one_term_off(monkeypatch, coeff, k)
    for variant in Variant:
        hits.clear()
        with pytest.raises(ArithmeticError, match=message):
            boundary_values(variant, 12, HALF)
        assert len(hits) == 1


@pytest.mark.parametrize("width", [8, 61, 64, 65, 130])
def test_packed_division_is_exact_slot_by_slot(width):
    # slots (4, 1) make a packed int divisible by 4 whose top slot is not:
    # the remainder alone sees only the low slot
    value = 4 + (1 << width)
    assert value % 4 == 0
    with pytest.raises(ArithmeticError, match="4 does not divide a coefficient of W"):
        series_module._divide_slots({0: value}, 4, "W", width, 2)
    # slots (4, -8, 12) divide: the quotient's slots are (1, -2, 3)
    value = 4 - (8 << width) + (12 << 2 * width)
    quotient = series_module._divide_slots({5: value}, 4, "W", width, 3)
    assert quotient == {5: 1 - (2 << width) + (3 << 2 * width)}
    # a negative slot next to a positive one, and slots at the edge of the
    # range the check admits, 2^(width - 3) in size or just below
    b = width - 2 - (3).bit_length()
    slots = [-(1 << b), (1 << b) - 1, -1, 1]
    value = sum((3 * slot) << width * j for j, slot in enumerate(slots))
    quotient = series_module._divide_slots({0: value}, 3, "W", width, 4)
    assert quotient == {0: value // 3}
    # one slot past the count is refused
    with pytest.raises(ArithmeticError):
        series_module._divide_slots({0: 3 << 4 * width}, 3, "W", width, 4)
    # at width 0 the values are plain ints
    assert series_module._divide_slots({0: 4 + (1 << 8)}, 4, "W", 0, 0) == {0: 65}


def test_c0_slots_fit_their_width(monkeypatch):
    # the same recurrences on slots 64 bits wider hold the true values: every
    # dividend of W's and C0's exact divisions must lie strictly inside
    # +-2^(width - 3), as _divide_slots needs, and decode from the packed run
    # as it is.  Symbolic (s packed), at sigma = 3/2 (t packed) and at
    # tau = -2/3 (s packed, t numeric)
    divide_slots, slot_width = series_module._divide_slots, series_module._slot_width
    unpack_slots = series_module._unpack_slots
    calls = []

    def record(terms, d, name, width, count):
        calls.append((name, d, dict(terms), width))
        return divide_slots(terms, d, name, width, count)

    monkeypatch.setattr(series_module, "_divide_slots", record)
    for variant in Variant:
        for sigma, tau in ((None, None), (THREE_HALVES, None), (None, Fraction(-2, 3))):
            calls.clear()
            c0 = boundary_values(variant, 24, sigma, tau).total
            narrow = list(calls)
            calls.clear()
            monkeypatch.setattr(
                series_module, "_slot_width", lambda *args: slot_width(*args) + 64
            )
            wide_c0 = boundary_values(variant, 24, sigma, tau).total
            monkeypatch.setattr(series_module, "_slot_width", slot_width)
            assert wide_c0.to_text() == c0.to_text()
            assert len(narrow) == len(calls) > 2 * 24
            for (name, d, terms, width), (*same, wide_terms, wide) in zip(narrow, calls):
                assert same == [name, d] and wide == width + 64 and width > 0
                assert terms.keys() == wide_terms.keys()
                for key, value in wide_terms.items():
                    true, packed = {}, {}
                    unpack_slots(true, ((0, value),), wide)
                    unpack_slots(packed, ((0, terms[key]),), width)
                    assert all(abs(slot) < 1 << width - 3 for slot in true.values())
                    assert packed == true


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
    # a numeric u has no u-free part to check, but its numerator must divide
    # every coefficient in integers, and the wrong C0 breaks that too
    with pytest.raises(ArithmeticError, match="2 does not divide a coefficient of T"):
        closed_form(Variant.SKEW, 12, None, None, 2)
    closed_form.cache_clear()



def test_closed_form_fields_are_frozen():
    closed = closed_form(Variant.SKEW, 4)
    for field in ("variant", "order", "total", "c0", "zu", "sigma", "tau"):
        with pytest.raises(AttributeError):
            setattr(closed, field, None)
    assert closed.h is closed.h  # the layers are still cached once read

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
