import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from motzkin import automata
from motzkin.automata import (
    WEIGHT_ONE,
    WEIGHT_SIGMA,
    WEIGHT_TAU,
    Layer,
    _sweep,
    dp_count,
    dp_series,
    layer_series,
)
from motzkin.oracle import count_table, enumerate_paths
from motzkin.paths import PathClass, PathWord, Variant, classify, pattern_stats
from motzkin.series import Poly, _unpack_slots, closed_form
from move_runner import run_moves

ALPHABET = {Variant.PLAIN: "UDH", Variant.SKEW: "UDHL"}


def poly(d):
    return Poly(list(d.items()))


# ---------------------------------------------------------------------------
# structure


def test_plain_has_no_skew_parts():
    for (src, step), (dst, _, _) in automata._MOVES[Variant.PLAIN].items():
        assert step != "L"
        assert src is not Layer.AFTER_L
        assert dst is not Layer.AFTER_L


def test_skew_adjacency_restrictions():
    for src, step in automata._MOVES[Variant.SKEW]:
        if src is Layer.AFTER_L:
            assert step != "U"
        if src is Layer.AFTER_U:
            assert step != "L"


def test_weights_sit_exactly_on_pattern_edges():
    for variant in Variant:
        for (src, step), (_, _, weight) in automata._MOVES[variant].items():
            expect_tau = src is Layer.AFTER_U and step == "D"
            expect_sigma = src is Layer.AFTER_D and step == "U"
            if expect_tau:
                assert weight == WEIGHT_TAU
            elif expect_sigma:
                assert weight == WEIGHT_SIGMA
            else:
                assert weight == WEIGHT_ONE


def test_level_cap_and_floor():
    delta = {"U": 1, "D": -1, "H": 0, "L": -1}
    for variant in Variant:
        for (_, step), (_, shift, _) in automata._MOVES[variant].items():
            assert shift == delta[step]
        # a run takes no step below level 0 and none past its cap; at cap 0
        # only flat words are left
        for n in range(7):
            for letters in itertools.product(ALPHABET[variant], repeat=n):
                text = "".join(letters)
                top = max(itertools.accumulate(delta[ch] for ch in text), default=0)
                valid = classify(PathWord(text), variant) is not PathClass.INVALID
                for cap in (0, 3):
                    accepted = run_moves(variant, text, cap) is not None
                    assert accepted == (valid and top <= cap), (text, cap)


# ---------------------------------------------------------------------------
# runs


def test_run_examples():
    end, sigma_exp, tau_exp = run_moves(Variant.PLAIN, "UD", 6)
    assert end == (Layer.AFTER_D, 0)
    assert (sigma_exp, tau_exp) == (0, 1)

    _, sigma_exp, tau_exp = run_moves(Variant.PLAIN, "UDUD", 6)
    assert (sigma_exp, tau_exp) == (1, 2)

    end, _, _ = run_moves(Variant.PLAIN, "", 6)
    assert end == automata._START

    _, sigma_exp, tau_exp = run_moves(Variant.PLAIN, PathWord.parse("UHD").letters, 6)
    assert (sigma_exp, tau_exp) == (0, 0)


def test_run_rejections():
    assert run_moves(Variant.SKEW, "ULH", 6) is None  # L may not follow U
    assert run_moves(Variant.SKEW, "UDL", 6) is None  # L from level 0 dips below the axis
    assert run_moves(Variant.SKEW, "UUDL", 6) is not None
    assert run_moves(Variant.PLAIN, "UUU", 2) is None  # past the cap
    assert run_moves(Variant.SKEW, "DD", 6) is None


def test_run_agrees_with_classifier_exhaustively():
    for variant in Variant:
        for n in range(8):
            for letters in itertools.product(ALPHABET[variant], repeat=n):
                text = "".join(letters)
                res = run_moves(variant, text, 7)
                try:
                    word = PathWord.parse(text)
                    valid = classify(word, variant) is not PathClass.INVALID
                except ValueError:
                    valid = False
                assert (res is not None) == valid, text
                if valid:
                    end, sigma_exp, tau_exp = res
                    stats = pattern_stats(word)
                    assert end == _expected_end(word, variant)
                    assert (sigma_exp, tau_exp) == (stats.du, stats.ud)


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
        for word in rng.sample(pool, 200):
            res = run_moves(variant, word.letters, 10)
            stats = pattern_stats(word)
            assert res is not None
            _, sigma_exp, tau_exp = res
            assert (sigma_exp, tau_exp) == (stats.du, stats.ud)


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


def test_dp_count_last_only_is_the_last_length():
    for variant in Variant:
        for n_max in (0, 1, 7):
            full = dp_count(n_max, variant).entries
            last = dp_count(n_max, variant, last_only=True)
            assert last.n_max == n_max
            assert last.entries == {
                key: c for key, c in full.items() if key[0] == n_max
            }


def test_dp_series_refuses_an_order_past_the_exponent_range():
    # refused up front, before any sweep
    with pytest.raises(ValueError, match="exponent out of range"):
        dp_series(1 << 21, Variant.PLAIN)


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


@pytest.mark.parametrize(
    "u, sigma, tau",
    [
        pytest.param(0, Fraction(3, 2), -1, id="0"),
        pytest.param(-1, Fraction(3, 2), -1, id="-1"),
        pytest.param(Fraction(1, 2), Fraction(3, 2), -1, id="u2"),
        # a Fraction sigma with u and tau symbolic, and the u = 0 boundary
        # layers with sigma symbolic
        pytest.param(None, Fraction(1, 2), None, id="sym-1/2-sym"),
        pytest.param(0, None, -1, id="0-sym--1"),
    ],
)
def test_layer_series_matches_closed_form_with_values_in(u, sigma, tau):
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


DISTINCT_DENOMINATORS = [None, 0, -1, Fraction(2, 3), Fraction(-3, 4), Fraction(5, 7)]


def test_dp_series_scales_values_by_their_common_denominator():
    # values on distinct denominators: the sweep scales sigma and tau by
    # their lcm, and u = p/q enters as p^j q^(n-j), so a wrong scale or a
    # wrong power of q shows up here.  The symbolic series is specialized
    # one variable at a time, so each partial result serves many values.
    for variant in Variant:
        full = dp_series(16, variant)
        for u in DISTINCT_DENOMINATORS:
            at_u = full.specialize(u=u)
            for sigma in DISTINCT_DENOMINATORS:
                at_sigma = at_u.specialize(sigma=sigma)
                for tau in DISTINCT_DENOMINATORS:
                    expected = at_sigma.specialize(tau=tau)
                    got = dp_series(16, variant, u, sigma, tau)
                    assert got == expected, (u, sigma, tau)


def test_cancelling_weights_leave_no_zero_counts():
    # sigma = -1 makes counts cancel inside the sweep; the frontiers drop
    # them, which the series would hide, as Poly drops zero terms itself
    for variant in Variant:
        _, _, _, frontiers = _sweep(variant, 16, -1, 1)
        assert all(all(frontier.values()) for frontier in frontiers)
        series = dp_series(16, variant, None, -1, 1)
        assert series == dp_series(16, variant).specialize(sigma=-1, tau=1)


@pytest.mark.parametrize("u", [None, -1])
def test_negative_weights_through_the_dropped_slot(u):
    # negative counts sit in signed slots; a down or left move drops slot 0,
    # which must not take a borrow from slot 1 with it
    sigma, tau = -1, Fraction(-2, 3)
    for variant in Variant:
        expected = closed_form(variant, 20).total.specialize(u=u, sigma=sigma, tau=tau)
        assert dp_series(20, variant, u, sigma, tau) == expected


def test_every_frontier_slot_fits_its_width(monkeypatch):
    # the same sweep on slots 64 bits wider holds the true counts: each must
    # lie strictly inside the signed slot the width rule gives, and decode
    # from the packed sweep as it is
    sigma, tau = Fraction(3, 2), Fraction(-2, 3)
    for variant in Variant:
        _, width, _, frontiers = _sweep(variant, 24, sigma, tau)
        monkeypatch.setattr(automata, "_slot_width", lambda *args: width + 64)
        _, wide, _, wide_frontiers = _sweep(variant, 24, sigma, tau)
        monkeypatch.undo()
        half = 1 << width - 1
        for frontier, wide_frontier in zip(frontiers, wide_frontiers, strict=True):
            assert frontier.keys() == wide_frontier.keys()
            for key, counts in wide_frontier.items():
                true, packed = {}, {}
                _unpack_slots(true, ((0, counts),), wide)
                _unpack_slots(packed, ((0, frontier[key]),), width)
                assert all(-half < slot < half for slot in true.values())
                assert packed == true


def test_move_table_is_the_automaton():
    moves = automata._MOVES
    assert moves[Variant.SKEW][Layer.AFTER_U, "D"] == (Layer.AFTER_D, -1, WEIGHT_TAU)
    assert moves[Variant.SKEW][Layer.AFTER_L, "L"] == (Layer.AFTER_L, -1, WEIGHT_ONE)
    # the moves by level change: up, down or left, and horizontal
    for variant, counts in ((Variant.PLAIN, {1: 3, -1: 3, 0: 3}),
                            (Variant.SKEW, {1: 3, -1: 7, 0: 4})):
        assert Counter(shift for _, shift, _ in moves[variant].values()) == counts


def test_dp_refuses_inexact_values():
    # a float once went through specialization into the coefficients
    with pytest.raises(TypeError):
        dp_series(3, Variant.PLAIN).specialize(u=0.5, sigma=1, tau=1)
    for values in ({"u": 0.5}, {"sigma": 1.0}, {"tau": "1"}):
        with pytest.raises(TypeError):
            dp_series(3, Variant.PLAIN, **values)

