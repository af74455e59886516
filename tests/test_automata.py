import itertools
import json
import random
from fractions import Fraction

import pytest

from motzkin.automata import (
    WEIGHT_ONE,
    WEIGHT_SIGMA,
    WEIGHT_TAU,
    Layer,
    build_automaton,
    dp_count,
    dp_series,
    layer_series,
    run,
)
from motzkin.oracle import count_table, enumerate_paths
from motzkin.paths import PathClass, PathWord, Variant, classify, pattern_stats
from motzkin.series import Poly, closed_form

ALPHABET = {Variant.PLAIN: "UDH", Variant.SKEW: "UDHL"}


def poly(d):
    return Poly(list(d.items()))


# ---------------------------------------------------------------------------
# structure


def test_plain_has_no_skew_parts():
    spec = build_automaton(Variant.PLAIN, 4)
    for t in spec.transitions:
        assert t.step != "L"
        assert t.src[0] is not Layer.AFTER_L
        assert t.dst[0] is not Layer.AFTER_L


def test_skew_adjacency_restrictions():
    spec = build_automaton(Variant.SKEW, 4)
    for t in spec.transitions:
        if t.src[0] is Layer.AFTER_L:
            assert t.step != "U"
        if t.src[0] is Layer.AFTER_U:
            assert t.step != "L"


def test_weights_sit_exactly_on_pattern_edges():
    for variant in Variant:
        spec = build_automaton(variant, 5)
        for t in spec.transitions:
            expect_tau = t.src[0] is Layer.AFTER_U and t.step == "D"
            expect_sigma = t.src[0] is Layer.AFTER_D and t.step == "U"
            if expect_tau:
                assert t.weight == WEIGHT_TAU
            elif expect_sigma:
                assert t.weight == WEIGHT_SIGMA
            else:
                assert t.weight == WEIGHT_ONE


def test_level_cap_and_floor():
    for variant in Variant:
        spec = build_automaton(variant, 3)
        for t in spec.transitions:
            if t.src[1] == 3:
                assert t.step != "U"
            if t.src[1] == 0:
                assert t.step not in ("D", "L")
            delta = {"U": 1, "D": -1, "H": 0, "L": -1}[t.step]
            assert t.dst[1] == t.src[1] + delta


def test_cap_zero_accepts_only_flat_words():
    spec = build_automaton(Variant.PLAIN, 0)
    assert run(spec, "HHH").accepted
    assert not run(spec, "UD").accepted


def test_to_json_shape():
    spec = build_automaton(Variant.SKEW, 2)
    data = json.loads(spec.to_json())
    assert data["variant"] == "skew"
    assert data["level_cap"] == 2
    assert data["start"] == ["after_h_or_start", 0]
    assert len(data["transitions"]) == len(spec.transitions)


# ---------------------------------------------------------------------------
# runs


def test_run_examples():
    spec = build_automaton(Variant.PLAIN, 6)
    res = run(spec, "UD")
    assert res.accepted and res.end == (Layer.AFTER_D, 0)
    assert (res.sigma_exp, res.tau_exp) == (0, 1)

    res = run(spec, "UDUD")
    assert (res.sigma_exp, res.tau_exp) == (1, 2)

    res = run(spec, "")
    assert res.accepted and res.end == spec.start

    res = run(spec, PathWord.parse("UHD"))
    assert res.accepted and (res.sigma_exp, res.tau_exp) == (0, 0)


def test_run_rejections():
    skew = build_automaton(Variant.SKEW, 6)
    assert not run(skew, "ULH").accepted  # L may not follow U
    assert not run(skew, "UDL").accepted  # L from level 0 dips below the axis
    assert run(skew, "UUDL").accepted
    low = build_automaton(Variant.PLAIN, 2)
    assert not run(low, "UUU").accepted  # past the cap
    rej = run(skew, "DD")
    assert rej.end is None and rej.sigma_exp == 0 and rej.tau_exp == 0


def test_run_agrees_with_classifier_exhaustively():
    for variant in Variant:
        spec = build_automaton(variant, 7)
        for n in range(8):
            for letters in itertools.product(ALPHABET[variant], repeat=n):
                text = "".join(letters)
                res = run(spec, text)
                try:
                    word = PathWord.parse(text)
                    valid = classify(word, variant) is not PathClass.INVALID
                except ValueError:
                    valid = False
                assert res.accepted == valid, text
                if valid:
                    stats = pattern_stats(word)
                    assert res.end == _expected_end(word, variant)
                    assert (res.sigma_exp, res.tau_exp) == (stats.du, stats.ud)


def _expected_end(word: PathWord, variant: Variant):
    if len(word) == 0:
        return (Layer.AFTER_H, 0)
    last = word.steps[-1].value
    layer = {
        "U": Layer.AFTER_U,
        "H": Layer.AFTER_H,
        "D": Layer.AFTER_D,
        "L": Layer.AFTER_L,
    }[last]
    return (layer, word.end_level)


def test_run_on_sampled_longer_words():
    rng = random.Random(4117)
    for variant in Variant:
        pool = list(enumerate_paths(10, variant))
        spec = build_automaton(variant, 10)
        for word in rng.sample(pool, 200):
            res = run(spec, word)
            stats = pattern_stats(word)
            assert res.accepted
            assert (res.sigma_exp, res.tau_exp) == (stats.du, stats.ud)


# ---------------------------------------------------------------------------
# counting


def test_dp_count_matches_oracle():
    for variant, n_max in ((Variant.PLAIN, 10), (Variant.SKEW, 9)):
        assert dp_count(n_max, variant).entries == (
            count_table(n_max, variant).entries
        )


def test_dp_count_examples():
    table = dp_count(4, Variant.PLAIN)
    assert table.count(4, 0, 0, 0) == 4
    assert table.count(4, 0, 1, 0) == 4
    assert table.count(4, 0, 2, 1) == 1


def test_dp_series_examples():
    series = dp_series(4, Variant.PLAIN)
    assert series.coefficient(0) == Poly.one()
    assert series.coefficient(2) == poly(
        {(2, 0, 0): 1, (1, 0, 0): 2, (0, 0, 1): 1, (0, 0, 0): 1}
    )
    skew = dp_series(4, Variant.SKEW)
    at_one = skew.specialize(u=1).coefficient(3)
    assert at_one == poly({(0, 0, 0): 10, (0, 0, 1): 3, (0, 1, 1): 1})


def test_dp_series_degree_bounds():
    for variant in Variant:
        series = dp_series(8, variant)
        for n in range(9):
            for (eu, es, et), _ in series.coefficient(n).terms():
                assert eu <= n
                assert es + et <= max(0, n - 1)


def test_dp_series_matches_dp_count():
    for variant in Variant:
        series = dp_series(7, variant)
        table = dp_count(7, variant)
        for n in range(8):
            expected = poly(
                {
                    (j, du, ud): c
                    for (m, j, ud, du), c in table.entries.items()
                    if m == n
                }
            )
            assert series.coefficient(n) == expected


def assert_layers_equal(layers, closed, variant):
    assert layers[Layer.AFTER_U] == closed.f
    assert layers[Layer.AFTER_H] == closed.g
    assert layers[Layer.AFTER_D] == closed.h
    if variant is Variant.SKEW:
        assert layers[Layer.AFTER_L] == closed.k
    else:
        assert closed.k is None
        assert layers[Layer.AFTER_L].is_zero()


def test_layer_series_matches_closed_form():
    for variant in Variant:
        assert_layers_equal(
            layer_series(20, variant), closed_form(variant, 20), variant
        )


@pytest.mark.parametrize("u", [0, -1, Fraction(1, 2)])
def test_layer_series_matches_closed_form_with_values_in(u):
    sigma, tau = Fraction(3, 2), -1
    for variant in Variant:
        layers = {
            layer: series.specialize(u=u, sigma=sigma, tau=tau)
            for layer, series in layer_series(12, variant).items()
        }
        closed = closed_form(variant, 12, sigma, tau, u)
        assert_layers_equal(layers, closed, variant)


def test_dp_series_specialization_drops_marked_terms():
    series = dp_series(6, Variant.PLAIN)
    peakless = series.specialize(tau=0)
    for n in range(7):
        expected = poly(
            {
                (eu, es, 0): c
                for (eu, es, et), c in series.coefficient(n).terms()
                if et == 0
            }
        )
        assert peakless.coefficient(n) == expected


def test_dp_refuses_inexact_values():
    # a float once went through specialization into the coefficients
    with pytest.raises(TypeError):
        dp_series(3, Variant.PLAIN).specialize(u=0.5, sigma=1, tau=1)
    for values in ({"u": 0.5}, {"sigma": 1.0}, {"tau": "1"}):
        with pytest.raises(TypeError):
            dp_series(3, Variant.PLAIN, **values)


def test_build_automaton_rejects_bad_cap():
    with pytest.raises(ValueError):
        build_automaton(Variant.PLAIN, -1)
