"""Property tests on generated inputs.

Examples are derandomized (a fixed stream per test) and no example database
is kept, so every run checks the same cases.
"""

from fractions import Fraction
from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st

from motzkin.automata import Layer, build_automaton, dp_series, run
from motzkin.oracle import enumerate_paths
from motzkin.paths import (
    Bargraph,
    PathClass,
    PathWord,
    Variant,
    classify,
    from_bargraph,
    pattern_stats,
    to_bargraph,
)
from motzkin.series import Poly, Series, closed_form
import reference_kernel
from reference_oracle import enumerate_paths as reference_paths
from reference_output import series_json_text, series_text

derandomized = settings(
    derandomize=True, database=None, deadline=None, max_examples=60
)

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
exponents = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
polys = st.dictionaries(exponents, rationals, max_size=3).map(
    lambda terms: Poly(list(terms.items()))
)


@st.composite
def series(draw):
    order = draw(st.integers(0, 5))
    return Series(draw(st.lists(polys, min_size=order + 1, max_size=order + 1)))


# a divisor: a series whose constant term is 1, -1 or -3/2
units = st.builds(
    lambda s, c: Series((Poly.constant(c),) + s.coefficients()[1:], s.order),
    series(),
    st.sampled_from([1, -1, Fraction(-3, 2)]),
)

values = st.none() | rationals

# ints and Fractions of both signs, exponents 0 to 3
coefficients = st.integers(-3, 3) | st.builds(Fraction, st.integers(-9, 9), st.integers(2, 5))
output_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    coefficients,
    max_size=6,
).map(lambda terms: Poly(list(terms.items())))


@derandomized
@given(st.lists(output_polys, min_size=1, max_size=6))
def test_series_output_is_the_reference_bytes(coeffs):
    s = Series(coeffs)
    assert s.to_text() == series_text(s)
    assert s.to_json_text() == series_json_text(s)


# The Series ring laws.  Each operand draws its own truncation order, and a
# result carries the lowest order among its operands.


@derandomized
@given(series(), series(), series())
def test_series_sum_and_product_commute_associate_and_distribute(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@derandomized
@given(series(), series())
def test_series_difference_undoes_the_sum(a, b):
    assert (a - b) + b == a.prefix(min(a.order, b.order))


@derandomized
@given(series(), units)
def test_series_quotient_undoes_the_product(a, b):
    assert (a * b) / b == a.prefix(min(a.order, b.order))


@derandomized
@given(series(), series(), values, values, values)
def test_specialize_is_a_ring_homomorphism(a, b, u, sigma, tau):
    def spec(x):
        return x.specialize(u=u, sigma=sigma, tau=tau)

    assert spec(a + b) == spec(a) + spec(b)
    assert spec(a * b) == spec(a) * spec(b)


@derandomized
@given(st.sampled_from(list(Variant)), st.integers(0, 8), values, values, values)
def test_dp_series_with_values_is_the_specialized_series(variant, order, u, sigma, tau):
    full = dp_series(order, variant).specialize(u=u, sigma=sigma, tau=tau)
    assert dp_series(order, variant, u, sigma, tau) == full


@derandomized
@given(st.sampled_from(list(Variant)), st.integers(0, 10), values, values, values)
def test_closed_form_total_is_the_division_reference(variant, order, sigma, tau, u):
    got = closed_form(variant, order, sigma, tau, u).total
    assert got == reference_kernel.total(variant, order, sigma, tau, u)


@derandomized
@given(st.lists(st.integers(1, 6), min_size=1, max_size=12))
def test_bargraph_round_trip(columns):
    graph = Bargraph(tuple(columns))
    word = from_bargraph(graph)
    assert to_bargraph(word) == graph
    assert from_bargraph(to_bargraph(word)) == word


_LAYER_AFTER = {
    "U": Layer.AFTER_U,
    "H": Layer.AFTER_H,
    "D": Layer.AFTER_D,
    "L": Layer.AFTER_L,
}


def _meander(alphabet, choices):
    # each choice picks one of the steps a skew meander may take next, so
    # long valid words are common; over "UDH" they are plain meanders too
    level, prev, out = 0, "", []
    for choice in choices:
        allowed = [
            s for s in alphabet
            if not (level == 0 and s in "DL") and prev + s not in ("UL", "LU")
        ]
        prev = allowed[choice % len(allowed)]
        level += {"U": 1, "H": 0}.get(prev, -1)
        out.append(prev)
    return "".join(out)


words = st.text("UDHL", max_size=24) | st.builds(
    _meander,
    st.sampled_from(["UDH", "UDHL"]),
    st.lists(st.integers(0, 3), max_size=24),
)


@derandomized
@given(st.sampled_from(list(Variant)), words)
def test_run_agrees_with_classify(variant, text):
    # a level cap of len(text) never rejects a word for climbing too high
    res = run(build_automaton(variant, len(text)), text)
    word = PathWord.parse(text)
    valid = classify(word, variant) is not PathClass.INVALID
    assert res.accepted == valid
    if valid:
        layer = _LAYER_AFTER[text[-1]] if text else Layer.AFTER_H
        assert res.end == (layer, word.end_level)
        stats = pattern_stats(word)
        assert (res.sigma_exp, res.tau_exp) == (stats.du, stats.ud)


@derandomized
@given(words | st.text("UDHLudhl", max_size=24))
def test_word_levels_and_text(text):
    word = PathWord.parse(text)
    levels = list(accumulate((s.delta for s in word.steps), initial=0))
    assert word.end_level == levels[-1]
    assert word.min_level == min(levels)
    assert str(word) == text.upper()


@derandomized
@given(
    st.sampled_from(list(Variant)),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.integers(0, 9),
)
def test_enumeration_is_the_reference_in_order(variant, ud, du, excursions, n):
    filters = {"forbid_ud": ud, "forbid_du": du, "excursions_only": excursions}
    got = [w.steps for w in enumerate_paths(n, variant, **filters)]
    assert got == [w.steps for w in reference_paths(n, variant, **filters)]
