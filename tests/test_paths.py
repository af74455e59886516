import itertools
import random
from functools import cached_property

import pytest

from motzkin.paths import (
    Bargraph,
    PathClass,
    PathWord,
    PatternStats,
    Step,
    Variant,
    classify,
    elevate,
    from_bargraph,
    is_cornerless,
    is_peakless,
    is_valleyless,
    pattern_stats,
    to_bargraph,
)
from motzkin.oracle import MAX_SEMIPERIMETER, enumerate_bargraphs, enumerate_paths


def word(text):
    return PathWord.parse(text)


def test_step_deltas():
    assert Step.U.delta == 1
    assert Step.D.delta == -1
    assert Step.H.delta == 0
    assert Step.L.delta == -1


def test_parse_and_str_round_trip():
    for text in ["", "UD", "UHDL", "uhdl", "UuDd"]:
        w = word(text)
        assert str(w) == text.upper()


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        word("UX")


def test_cached_levels():
    w = word("UUDHD")
    assert w.end_level == 0
    assert w.min_level == 0
    assert word("").end_level == 0
    assert word("").min_level == 0
    assert word("DU").min_level == -1
    assert word("UL").end_level == 0


def running_levels(w):
    levels = [0]
    for s in w.steps:
        levels.append(levels[-1] + {"U": 1, "D": -1, "H": 0, "L": -1}[s.value])
    return levels


def test_lazy_levels_match_a_running_sum():
    rng = random.Random(10)
    texts = ["", "DU", "UL"] + [
        "".join(rng.choice("UDHL") for _ in range(rng.randint(0, 16)))
        for _ in range(200)
    ]
    for text in texts:
        w = word(text)
        levels = running_levels(w)
        assert w.end_level == levels[-1]
        assert w.min_level == min(levels)


def test_reading_levels_leaves_identity_alone():
    for text in ["", "DU", "UL", "UUDHLD"]:
        read = word(text)
        read.min_level, read.end_level
        fresh = word(text)
        assert read == fresh
        assert hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)
        assert repr(read) == f"PathWord(letters={read.letters!r})"


class CountingWord(PathWord):
    """A word that counts how often its levels are walked."""

    walks = 0

    @cached_property
    def _levels(self):
        type(self).walks += 1
        return PathWord._levels.func(self)


def test_classify_walks_a_skew_word_for_levels_once():
    CountingWord.walks = 0
    w = CountingWord("UUDLH")
    assert classify(w, Variant.SKEW) is PathClass.EXCURSION
    assert CountingWord.walks == 1
    assert (w.end_level, w.min_level) == (0, 0)
    assert classify(w, Variant.SKEW) is PathClass.EXCURSION
    assert CountingWord.walks == 1


def test_classify_basics():
    assert classify(word(""), Variant.PLAIN) is PathClass.EXCURSION
    assert classify(word("UHD"), Variant.PLAIN) is PathClass.EXCURSION
    assert classify(word("DU"), Variant.PLAIN) is PathClass.INVALID
    assert classify(word("UU"), Variant.PLAIN) is PathClass.MEANDER


def test_classify_skew_adjacency():
    assert classify(word("ULH"), Variant.SKEW) is PathClass.INVALID
    assert classify(word("UHL"), Variant.SKEW) is PathClass.EXCURSION
    assert classify(word("UUDL"), Variant.SKEW) is PathClass.EXCURSION
    assert classify(word("UHLU"), Variant.SKEW) is PathClass.INVALID
    # L from level 0 dips below the axis
    assert classify(word("UDL"), Variant.SKEW) is PathClass.INVALID


def test_plain_rejects_l():
    assert classify(word("UHL"), Variant.PLAIN) is PathClass.INVALID


def test_pattern_stats():
    assert pattern_stats(word("UDUD")) == PatternStats(ud=2, du=1)
    assert pattern_stats(word("HHHH")) == PatternStats(ud=0, du=0)
    assert pattern_stats(word("UUDD")) == PatternStats(ud=1, du=0)
    assert pattern_stats(word("")) == PatternStats(ud=0, du=0)


def test_pattern_predicates():
    assert is_cornerless(word("UHHD"))
    w = word("UD")
    assert not is_peakless(w)
    assert is_valleyless(w)
    assert not is_cornerless(w)


def test_elevate():
    assert str(elevate(word(""))) == "UD"
    assert str(elevate(word("HH"))) == "UHHD"
    assert str(elevate(word("HUHD"))) == "UHUHDD"


def test_elevate_rejects_non_excursions():
    with pytest.raises(ValueError):
        elevate(word("UU"))
    with pytest.raises(ValueError):
        elevate(word("DU"))


def test_elevate_preserves_pattern_stats_on_cornerless():
    """The added U precedes a non-D step and the added D follows a non-U
    step, so no new UD or DU appears (except for the empty word)."""
    assert pattern_stats(elevate(word(""))) == PatternStats(ud=1, du=0)
    for n in range(1, 9):
        for w in enumerate_paths(n, Variant.PLAIN, forbid_ud=True,
                                 forbid_du=True, excursions_only=True):
            assert pattern_stats(elevate(w)) == pattern_stats(w)


def test_bargraph_validation():
    with pytest.raises(ValueError):
        Bargraph((1, 0, 2))
    with pytest.raises(ValueError):
        Bargraph((-1,))
    assert Bargraph(()).columns == ()


def test_bargraph_parse_and_str():
    b = Bargraph.parse("2,1,3")
    assert b.columns == (2, 1, 3)
    assert str(b) == "2,1,3"
    with pytest.raises(ValueError):
        Bargraph.parse("2,x")
    with pytest.raises(ValueError):
        Bargraph.parse("2,0")
    assert Bargraph.parse("").columns == ()


def test_trusted_bargraphs_behave_like_checked_ones():
    # the oracle's search and to_bargraph build their bargraphs without the
    # height check; each must be the bargraph that the check would build
    trusted = [
        graph
        for s in range(1, MAX_SEMIPERIMETER + 1)
        for graph in enumerate_bargraphs(s)
    ]
    trusted += [
        to_bargraph(w)
        for n in range(13)
        for w in enumerate_paths(n, Variant.PLAIN, forbid_ud=True,
                                 forbid_du=True, excursions_only=True)
    ]
    for graph in trusted:
        checked = Bargraph(graph.columns)
        assert graph == checked
        assert hash(graph) == hash(checked)
        assert repr(graph) == repr(checked)
        assert str(graph) == str(checked)
    # the checked constructions still refuse a height below 1
    with pytest.raises(ValueError):
        Bargraph((1, 0, 2))
    with pytest.raises(ValueError):
        Bargraph.parse("2,0")


def test_bargraph_semiperimeter():
    assert Bargraph((1,)).semiperimeter == 2
    assert Bargraph((1, 1)).semiperimeter == 3
    assert Bargraph((2, 1)).semiperimeter == 4
    assert Bargraph((1, 2)).semiperimeter == 4
    assert Bargraph((2, 1, 3)).semiperimeter == 7
    assert Bargraph(()).semiperimeter == 0


def test_to_bargraph_examples():
    assert to_bargraph(word("")).columns == ()
    assert to_bargraph(word("HH")).columns == (1, 1)
    assert to_bargraph(word("HUHD")).columns == (1, 2)
    assert to_bargraph(word("H")).columns == (1,)


def test_to_bargraph_rejects_bad_input():
    with pytest.raises(ValueError):
        to_bargraph(word("UD"))
    with pytest.raises(ValueError):
        to_bargraph(word("UU"))


def test_from_bargraph_examples():
    assert str(from_bargraph(Bargraph((1,)))) == "H"
    assert str(from_bargraph(Bargraph((1, 1)))) == "HH"
    with pytest.raises(ValueError):
        from_bargraph(Bargraph(()))


def test_bijection_round_trip_small():
    for columns in [(1,), (2,), (1, 1), (2, 1), (1, 2), (3, 1, 2), (2, 2, 2)]:
        b = Bargraph(columns)
        w = from_bargraph(b)
        assert classify(w, Variant.PLAIN) is PathClass.EXCURSION
        assert is_cornerless(w)
        assert to_bargraph(w) == b


def _all_words(n_max):
    """Every word over U, D, H, L of length at most n_max, built from the
    Step product."""
    for n in range(n_max + 1):
        for steps in itertools.product(Step, repeat=n):
            yield PathWord("".join([s._value_ for s in steps]))


def _reference_classify(w, variant):
    """classify as a running sum of Step.delta and a loop over step pairs."""
    steps = w.steps
    level = 0
    for s in steps:
        level += s.delta
        if level < 0:
            return PathClass.INVALID
    if variant is Variant.PLAIN:
        if Step.L in steps:
            return PathClass.INVALID
    else:
        for a, b in zip(steps, steps[1:]):
            if (a is Step.U and b is Step.L) or (a is Step.L and b is Step.U):
                return PathClass.INVALID
    return PathClass.EXCURSION if level == 0 else PathClass.MEANDER


def _reference_pattern_stats(w):
    """pattern_stats as one loop over step pairs."""
    ud = 0
    du = 0
    steps = w.steps
    for a, b in zip(steps, steps[1:]):
        if a is Step.U and b is Step.D:
            ud += 1
        elif a is Step.D and b is Step.U:
            du += 1
    return PatternStats(ud, du)


def test_factor_rules_match_the_step_pair_reference_exhaustively():
    """Every word over U, D, H, L up to length 8: classify in both variants,
    pattern_stats and the three predicates agree with the step-pair loops."""
    for w in _all_words(8):
        for variant in Variant:
            assert classify(w, variant) is _reference_classify(w, variant), (w, variant)
        stats = _reference_pattern_stats(w)
        assert pattern_stats(w) == stats, w
        assert is_peakless(w) is (stats.ud == 0), w
        assert is_valleyless(w) is (stats.du == 0), w
        assert is_cornerless(w) is (stats.ud == 0 and stats.du == 0), w


def _reference_to_bargraph(w):
    """The bargraph map as separate passes: the reference classify and
    pattern_stats, then the heights of the elevated walk by Step.delta."""
    if _reference_classify(w, Variant.PLAIN) is not PathClass.EXCURSION:
        raise ValueError(f"{str(w)!r} is not a plain excursion")
    stats = _reference_pattern_stats(w)
    if stats.ud or stats.du:
        raise ValueError(f"{str(w)!r} is not cornerless (contains UD or DU)")
    height = 1
    cols = []
    for s in w.steps:
        if s is Step.H:
            cols.append(height)
        else:
            height += s.delta
    return Bargraph(tuple(cols))


def _outcome(f, arg):
    try:
        return f(arg)
    except ValueError as exc:
        return str(exc)


def test_to_bargraph_matches_reference_exhaustively():
    """Every word over U, D, H, L up to length 8: the same columns, or the
    same error, so a non-excursion with corners reports the excursion
    error first."""
    for w in _all_words(8):
        assert _outcome(to_bargraph, w) == _outcome(_reference_to_bargraph, w)


def test_from_bargraph_images_are_excursions():
    for s in range(2, 10):
        for graph in enumerate_bargraphs(s):
            w = from_bargraph(graph)
            assert w.end_level == w.min_level == 0


def test_semiperimeter_law():
    """Nonempty cornerless excursions map to semiperimeter #U + 1 + #H."""
    for n in range(1, 10):
        for w in enumerate_paths(n, Variant.PLAIN, forbid_ud=True,
                                 forbid_du=True, excursions_only=True):
            b = to_bargraph(w)
            assert b.semiperimeter == w.count(Step.U) + 1 + w.count(Step.H)


def test_random_words_classify_deterministic():
    rng = random.Random(20260823)
    for _ in range(300):
        text = "".join(rng.choice("UDHL") for _ in range(rng.randrange(0, 12)))
        w1 = word(text)
        w2 = word(text)
        for variant in Variant:
            assert classify(w1, variant) is classify(w2, variant)
        assert pattern_stats(w1) == pattern_stats(w2)
