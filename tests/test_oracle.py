import ast
import json
from collections import Counter
from pathlib import Path

import pytest

from motzkin import automata, oracle
from motzkin.automata import dp_count
from motzkin.cli import CHECK_MAX_N
from motzkin.oracle import (
    MAX_PATH_LEN,
    MAX_SEMIPERIMETER,
    CountTable,
    count_table,
    enumerate_bargraphs,
    enumerate_paths,
)
from motzkin.paths import PathClass, Variant, classify, pattern_stats
import reference_oracle

MEANDER_TOTALS = {
    Variant.PLAIN: [1, 2, 5, 13, 35, 96, 267, 750, 2123],
    Variant.SKEW: [1, 2, 5, 14, 40, 117, 348, 1049, 3196],
}
EXCURSION_TOTALS = {
    Variant.PLAIN: [1, 1, 2, 4, 9, 21, 51, 127, 323],
    Variant.SKEW: [1, 1, 2, 5, 13, 35, 97, 275, 794],
}
# regression snapshot (A082582); cross-validated against the bijection image
# counts and, in test_bargraphs_match_skew_excursions, the skew excursions
BARGRAPH_COUNTS = {
    2: 1, 3: 2, 4: 5, 5: 13, 6: 35, 7: 97, 8: 275, 9: 794, 10: 2327,
    11: 6905, 12: 20705,
}
FILTERS = [
    {"forbid_ud": ud, "forbid_du": du, "excursions_only": exc}
    for ud in (False, True)
    for du in (False, True)
    for exc in (False, True)
]


def test_enumerate_n0():
    assert [str(w) for w in enumerate_paths(0, Variant.PLAIN)] == [""]


def test_enumerate_plain_n2():
    words = [str(w) for w in enumerate_paths(2, Variant.PLAIN)]
    assert set(words) == {"UU", "UH", "UD", "HU", "HH"}
    assert len(words) == 5


def test_enumerate_plain_n3_order():
    """Generation order is lexicographic on D < H < U, the order of the
    letters as text."""
    words = [str(w) for w in enumerate_paths(3, Variant.PLAIN)]
    assert words == [
        "HHH", "HHU", "HUD", "HUH", "HUU", "UDH", "UDU", "UHD",
        "UHH", "UHU", "UUD", "UUH", "UUU",
    ]


def test_enumerate_skew_excursions_n3():
    words = {
        str(w)
        for w in enumerate_paths(3, Variant.SKEW, excursions_only=True)
    }
    assert words == {"HHH", "HUD", "UDH", "UHD", "UHL"}


def test_enumerate_yields_valid_words_only():
    for variant in Variant:
        for n in range(6):
            for w in enumerate_paths(n, variant):
                assert classify(w, variant) is not PathClass.INVALID
                assert len(w) == n


def test_filters_match_post_filtering():
    for variant in Variant:
        for n in range(6):
            got = sorted(
                str(w)
                for w in enumerate_paths(
                    n, variant,
                    forbid_ud=True, forbid_du=True, excursions_only=True,
                )
            )
            want = sorted(
                str(w)
                for w in enumerate_paths(n, variant)
                if w.end_level == 0
                and pattern_stats(w).ud == 0
                and pattern_stats(w).du == 0
            )
            assert got == want


def test_enumeration_order_is_the_reference_order():
    for variant in Variant:
        for filters in FILTERS:
            for n in range(11):
                got = [w.steps for w in enumerate_paths(n, variant, **filters)]
                want = [
                    w.steps
                    for w in reference_oracle.enumerate_paths(n, variant, **filters)
                ]
                assert got == want, (variant, filters, n)


@pytest.mark.parametrize(
    "variant, n_max",
    [(v, n) for v in Variant for n in (0, 1)]
    + [(v, CHECK_MAX_N[v]) for v in Variant],
)
def test_count_table_is_the_reference_table(variant, n_max):
    assert count_table(n_max, variant).entries == (
        reference_oracle.count_table_entries(n_max, variant)
    )


def test_count_table_matches_enumeration():
    for variant in Variant:
        tally = Counter()
        for n in range(7):
            for w in enumerate_paths(n, variant):
                stats = pattern_stats(w)
                tally[(n, w.end_level, stats.ud, stats.du)] += 1
        table = count_table(6, variant)
        assert dict(tally) == dict(table.entries)


def test_count_table_totals():
    for variant in Variant:
        table = count_table(8, variant)
        assert [table.total(n) for n in range(9)] == MEANDER_TOTALS[variant]
        assert [table.excursion_total(n) for n in range(9)] == (
            EXCURSION_TOTALS[variant]
        )


def test_count_table_key_invariants():
    for variant in Variant:
        table = count_table(8, variant)
        for (n, j, ud, du), c in table.entries.items():
            assert 0 <= j <= n
            assert 0 <= ud + du <= max(0, n - 1)
            assert c > 0


def test_skew_dominates_plain():
    plain = count_table(8, Variant.PLAIN)
    skew = count_table(8, Variant.SKEW)
    for n in range(9):
        assert skew.total(n) >= plain.total(n)


def test_count_table_examples():
    table = count_table(4, Variant.PLAIN)
    assert table.count(2, 0, 1, 0) == 1  # UD
    assert table.count(2, 0, 0, 0) == 1  # HH
    assert table.count(4, 0, 0, 0) == 4
    assert table.count(4, 0, 1, 0) == 4
    assert table.count(4, 0, 2, 1) == 1
    skew = count_table(2, Variant.SKEW)
    assert skew.count(2, 0, 0, 0) == 1
    assert skew.count(2, 0, 1, 0) == 1


def test_json_rows_round_trip():
    table = count_table(5, Variant.SKEW)
    rows = table.to_json_rows()
    assert all(isinstance(r["count"], str) for r in rows)
    back = CountTable.from_json_rows(Variant.SKEW, 5, rows)
    assert back.entries == table.entries
    # serialized form is valid JSON
    assert json.loads(table.to_json()) == rows



def test_count_table_compares_by_fields_and_is_unhashable():
    table = count_table(4, Variant.PLAIN)
    assert table == dp_count(4, Variant.PLAIN)
    assert table == CountTable(Variant.PLAIN, 4, dict(table.entries))
    assert table != CountTable(Variant.SKEW, 4, table.entries)
    assert table != CountTable(Variant.PLAIN, 5, table.entries)
    assert table != CountTable(Variant.PLAIN, 4, {**table.entries, (0, 0, 0, 0): 2})
    with pytest.raises(TypeError):
        hash(table)
    table.n_max = 5  # mutable
    assert table.n_max == 5
    small = CountTable(Variant.PLAIN, 1, {(0, 0, 0, 0): 1, (1, 0, 0, 0): 1})
    assert repr(small) == (
        "CountTable(variant=<Variant.PLAIN: 'plain'>, n_max=1, "
        "entries={(0, 0, 0, 0): 1, (1, 0, 0, 0): 1})"
    )

def test_csv_export():
    table = count_table(2, Variant.PLAIN)
    lines = table.to_csv().splitlines()
    assert lines[0] == "n,j,ud,du,count"
    assert "2,0,1,0,1" in lines


def test_path_bounds():
    with pytest.raises(ValueError):
        list(enumerate_paths(MAX_PATH_LEN + 1, Variant.PLAIN))
    with pytest.raises(ValueError):
        count_table(MAX_PATH_LEN + 1, Variant.PLAIN)
    with pytest.raises(ValueError):
        list(enumerate_paths(-1, Variant.PLAIN))
    # the escape hatch is honored
    words = list(enumerate_paths(2, Variant.PLAIN, allow_large=True))
    assert len(words) == 5


def test_bargraph_stream():
    assert list(enumerate_bargraphs(1)) == []
    assert [b.columns for b in enumerate_bargraphs(2)] == [(1,)]
    assert {b.columns for b in enumerate_bargraphs(3)} == {(2,), (1, 1)}


def test_bargraph_counts_and_validity():
    for s, expected in BARGRAPH_COUNTS.items():
        graphs = list(enumerate_bargraphs(s))
        assert len(graphs) == expected
        assert len({b.columns for b in graphs}) == expected
        for b in graphs:
            assert b.semiperimeter == s
            assert all(h >= 1 for h in b.columns)


def test_bargraph_order_is_the_reference_order():
    for s in range(1, MAX_SEMIPERIMETER + 1):
        got = [b.columns for b in enumerate_bargraphs(s)]
        want = [b.columns for b in reference_oracle.enumerate_bargraphs(s)]
        assert got == want, s


def test_bargraphs_match_skew_excursions():
    # bargraphs of semiperimeter s and skew excursions of length s - 1 are
    # both counted by A082582
    sizes = range(2, MAX_SEMIPERIMETER + 1)
    table = count_table(MAX_SEMIPERIMETER - 1, Variant.SKEW)
    counts = [sum(1 for _ in enumerate_bargraphs(s)) for s in sizes]
    assert counts == [table.excursion_total(s - 1) for s in sizes]
    assert counts == [BARGRAPH_COUNTS[s] for s in sizes]


def test_bargraph_bounds():
    with pytest.raises(ValueError):
        list(enumerate_bargraphs(0))
    with pytest.raises(ValueError):
        list(enumerate_bargraphs(MAX_SEMIPERIMETER + 1))
    counts = sum(1 for _ in enumerate_bargraphs(4, allow_large=True))
    assert counts == 5


def test_oracle_imports_only_paths():
    # the oracle referees the automaton and the series engine, so it must
    # not lean on either of them
    tree = ast.parse(Path(oracle.__file__).read_text())
    package_imports = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0:
                package_imports.add(node.module)
            else:
                assert not node.module.startswith("motzkin")
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("motzkin") for a in node.names)
    assert package_imports == {"paths"}


def test_dp_imports_only_count_table_and_no_closed_form():
    # the DP is checked against the oracle and the closed form, so it takes
    # only the table type from the one and nothing of the other
    tree = ast.parse(Path(automata.__file__).read_text())
    names: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            names.setdefault(node.module, set()).update(a.name for a in node.names)
    assert set(names) == {"oracle", "paths", "series"}
    assert names["oracle"] == {"CountTable"}
    closed = {"closed_form", "boundary_values", "ClosedForm", "_total", "_constant_terms"}
    assert not names["series"] & closed
    assert not any(name.startswith("kernel_") for name in names["series"])
