import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import motzkin
from motzkin import cli
from motzkin.cli import (
    ANCHORS,
    align_terms,
    anchor_computed_terms,
    anchors_for,
    main,
)
from motzkin.automata import dp_count, dp_series
from motzkin.oracle import CountTable
from motzkin.paths import Variant
from motzkin.series import Poly, Series, closed_form
import reference_oracle
from reference_output import series_json_text, series_text

MOTZKIN_12 = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798]


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# count


def test_count_end_level_zero(capsys):
    rc, out, _ = run(
        capsys, "count", "--variant", "plain", "--n", "4", "--end-level", "0"
    )
    assert rc == 0
    assert out == "n j ud du count\n4 0 0 0 4\n4 0 1 0 4\n4 0 2 1 1\n"


def test_count_negative_end_level(capsys):
    rc, out, err = run(
        capsys, "count", "--variant", "plain", "--n", "4", "--end-level", "-1"
    )
    assert rc == 2
    assert out == ""
    assert err == "error: --end-level must be nonnegative\n"


def test_count_n0(capsys):
    rc, out, _ = run(capsys, "count", "--variant", "skew", "--n", "0")
    assert rc == 0
    assert out == "n j ud du count\n0 0 0 0 1\n"


def test_count_json_nine_classes(capsys):
    rc, out, _ = run(
        capsys, "count", "--variant", "plain", "--n", "7",
        "--end-level", "0", "--format", "json",
    )
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 9
    table = {(r["ud"], r["du"]): int(r["count"]) for r in rows}
    assert table == {
        (0, 0): 33, (0, 1): 4, (1, 0): 40, (1, 1): 18, (2, 0): 9,
        (2, 1): 16, (2, 2): 3, (3, 1): 2, (3, 2): 2,
    }
    assert all(r["n"] == 7 and r["j"] == 0 for r in rows)
    assert all(isinstance(r["count"], str) for r in rows)


def test_count_csv(capsys):
    rc, out, _ = run(
        capsys, "count", "--variant", "plain", "--n", "2", "--format", "csv"
    )
    assert rc == 0
    assert out.splitlines() == [
        "n,j,ud,du,count",
        "2,0,0,0,1",
        "2,0,1,0,1",
        "2,1,0,0,2",
        "2,2,0,0,1",
    ]


def _csv_rows(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "j", "ud", "du", "count"])
    writer.writerows(table.rows())
    return buf.getvalue()


@pytest.mark.parametrize("variant", list(Variant))
def test_count_rows_match_the_csv_module(capsys, variant):
    # csv.writer is the reference for both row writers of `count`
    for n in range(13):
        for last_only in (False, True):
            table = dp_count(n, variant, last_only=last_only)
            assert table.to_csv() == _csv_rows(table)
        rc, out, err = run(capsys, "count", "--variant", variant.value, "--n", str(n))
        assert (rc, err) == (0, "")
        last = dp_count(n, variant, last_only=True)
        assert out == _csv_rows(last).replace(",", " ")


def test_count_bad_n(capsys):
    rc, _, err = run(capsys, "count", "--variant", "plain", "--n", "61")
    assert rc == 2
    assert err == "error: --n 61 exceeds the bound 60; pass --unbounded to override\n"
    rc, _, err = run(capsys, "count", "--variant", "plain", "--n", "-1")
    assert rc == 2
    assert err == "error: --n must be nonnegative\n"


def test_count_beyond_the_enumeration_bound(capsys):
    # count runs the DP, so the enumeration cap of `paths` does not apply
    for variant in Variant:
        rc, out, _ = run(
            capsys, "count", "--variant", variant.value, "--n", "25",
            "--format", "csv",
        )
        assert rc == 0
        total = sum(int(line.split(",")[-1]) for line in out.splitlines()[1:])
        closed = closed_form(variant, 25).total.specialize(u=1, sigma=1, tau=1)
        assert total == closed.coefficient(25).as_constant()


# ---------------------------------------------------------------------------
# series


def test_series_motzkin_prefix(capsys):
    rc, out, _ = run(
        capsys, "series", "--variant", "plain", "--order", "8",
        "--u", "0", "--sigma", "1", "--tau", "1",
    )
    assert rc == 0
    assert out == (
        "z^0: 1\nz^1: 1\nz^2: 2\nz^3: 4\nz^4: 9\nz^5: 21\nz^6: 51\n"
        "z^7: 127\nz^8: 323\n"
    )


def test_series_valleyless_meanders(capsys):
    rc, out, _ = run(
        capsys, "series", "--variant", "plain", "--order", "10",
        "--u", "1", "--sigma", "0", "--tau", "1",
    )
    assert rc == 0
    values = [line.split(": ")[1] for line in out.splitlines()]
    assert values == [
        "1", "2", "5", "12", "29", "71", "175", "434", "1082", "2709", "6807"
    ]


def test_series_order_zero(capsys):
    rc, out, _ = run(capsys, "series", "--order", "0")
    assert rc == 0
    assert out == "z^0: 1\n"


def _refuse_work(monkeypatch):
    """Make either engine raise if a series request gets as far as one."""
    def refuse(*args):
        raise AssertionError("an engine ran")

    monkeypatch.setattr(cli, "closed_form", refuse)
    monkeypatch.setattr(cli, "dp_series", refuse)


def test_series_order_bound(capsys, monkeypatch):
    # the bound is checked before either engine runs, in the words `count`
    # and `paths` use, and whatever the engine or values asked for
    bound = cli.MAX_SERIES_ORDER
    assert bound >= 36  # the highest order the benchmark asks for
    _refuse_work(monkeypatch)
    for extra in ((), ("--engine", "both"), ("--engine", "dp", "--u", "1/2")):
        rc, out, err = run(capsys, "series", "--order", str(bound + 1), *extra)
        assert (rc, out) == (2, "")
        assert err == (
            f"error: --order {bound + 1} exceeds the bound {bound}; "
            "pass --unbounded to override\n"
        )
    rc, out, err = run(capsys, "series", "--order", "-1")
    assert (rc, out, err) == (2, "", "error: --order must be nonnegative\n")


def test_series_order_bound_covers_motzkin_order(capsys, monkeypatch):
    bound = cli.MAX_SERIES_ORDER
    monkeypatch.setenv("MOTZKIN_ORDER", str(bound + 1))
    _refuse_work(monkeypatch)
    rc, out, err = run(capsys, "series", "--variant", "skew")
    assert (rc, out) == (2, "")
    assert err == (
        f"error: MOTZKIN_ORDER {bound + 1} exceeds the bound {bound}; "
        "pass --unbounded to override\n"
    )
    # an explicit --order within the bound wins over the variable
    monkeypatch.undo()
    monkeypatch.setenv("MOTZKIN_ORDER", str(bound + 1))
    rc, out, _ = run(capsys, "series", "--order", "1", "--u", "1")
    assert (rc, out) == (0, "z^0: 1\nz^1: 2\n")


def test_series_unbounded_lifts_the_order_bound(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_SERIES_ORDER", 3)
    rc, _, err = run(capsys, "series", "--order", "4", "--u", "1")
    assert rc == 2 and "pass --unbounded" in err
    expected = closed_form(Variant.PLAIN, 4, None, None, 1).total.to_text() + "\n"
    rc, out, _ = run(capsys, "series", "--order", "4", "--u", "1", "--unbounded")
    assert (rc, out) == (0, expected)
    monkeypatch.setenv("MOTZKIN_ORDER", "4")
    rc, out, _ = run(capsys, "series", "--u", "1", "--unbounded")
    assert (rc, out) == (0, expected)
    # the bound itself is served
    rc, out, _ = run(capsys, "series", "--order", "3", "--u", "1")
    assert rc == 0 and out.splitlines()[-1].startswith("z^3: ")


def test_series_value_bound(capsys, monkeypatch):
    # a numerator or denominator of 2^64 or more is refused at the edge,
    # before either engine runs; an exponent form is refused unbuilt
    _refuse_work(monkeypatch)
    for text in ("1e-300", "1e-99999999", str(2**64), f"1/{2**64}", "-1e20"):
        for flag in ("--u", "--sigma", "--tau"):
            start = time.perf_counter()
            rc, out, err = run(capsys, "series", "--order", "24", f"{flag}={text}")
            assert time.perf_counter() - start < 1, text
            assert (rc, out) == (2, ""), (flag, text)
            assert err == (
                f"error: {flag} {text} exceeds the bound 2^64 on a numerator "
                "or denominator; pass --unbounded to override\n"
            )
    rc, out, err = run(capsys, "series", "--u=1/2e99")
    assert (rc, out) == (2, "") and "expects a rational number" in err


def test_series_values_at_the_bound_print(capsys):
    # (2^64 - 1)/3 and a zero mantissa at any exponent are served, and at
    # order 60 with three 64-bit values every printed number stays under
    # Python's 4 300-digit limit on int-to-text conversion
    rc, out, _ = run(capsys, "series", "--order", "1", f"--u={2**64 - 1}/3")
    assert (rc, out) == (0, f"z^0: 1\nz^1: {(2**64 - 1) // 3 + 1}\n")
    rc, out, _ = run(capsys, "series", "--order", "1", "--u=0e-99999999")
    assert (rc, out) == (0, "z^0: 1\nz^1: 1\n")
    top = 2**64 - 1
    values = (
        f"--u={top}/{2**64 - 59}",
        f"--sigma=-{top - 2}/{2**64 - 83}",
        f"--tau={top - 4}/{2**64 - 95}",
    )
    for engine in ("closed", "dp"):
        rc, out, _ = run(
            capsys, "series", "--variant", "skew", "--order", "60",
            "--engine", engine, *values,
        )
        assert rc == 0 and out.count("\n") == 61
        longest = max(len(word) for word in out.replace("/", " ").split())
        assert 2000 < longest < 4300


def test_series_unbounded_lifts_the_value_bound(capsys):
    rc, out, _ = run(capsys, "series", "--unbounded", "--order", "2", "--u=1e-300")
    assert rc == 0
    assert out.splitlines()[1] == f"z^1: {10**300 + 1}/{10**300}"


def test_series_unbounded_prints_past_the_digit_limit(capsys):
    # from z^15 on, the numbers here have more digits than Python turns
    # into text by default
    limit = sys.get_int_max_str_digits()
    rc, out, _ = run(
        capsys, "series", "--unbounded", "--order", "15", "--u=1e-300",
        "--sigma", "1", "--tau", "1",
    )
    assert rc == 0
    assert sum(line.startswith("z^") for line in out.splitlines()) == 16
    assert sys.get_int_max_str_digits() == limit


def test_series_unbounded_parses_past_the_digit_limit(capsys):
    # a value with more digits than Python reads from text by default is
    # served under --unbounded, and the limit is left as it was
    limit = sys.get_int_max_str_digits()
    ones = "1" * 5000
    rc, out, err = run(capsys, "series", "--unbounded", "--order", "2", f"--u={ones}")
    assert (rc, err) == (0, "")
    assert out.splitlines()[1] == "z^1: " + "1" * 4999 + "2"
    assert sys.get_int_max_str_digits() == limit


def test_series_value_errors_quote_a_short_prefix(capsys):
    # a refused value is quoted by its first cli.MAX_ECHO characters only
    ones = "1" * 5000
    prefix = "1" * cli.MAX_ECHO + "..."
    rc, out, err = run(capsys, "series", "--order", "2", f"--tau={ones}x")
    assert (rc, out) == (2, "")
    assert err == f"error: --tau expects a rational number or 'sym', got '{prefix}'\n"
    rc, out, err = run(capsys, "series", "--order", "2", f"--sigma=1/{'1' * 60}")
    assert (rc, out) == (2, "")
    assert err == (
        f"error: --sigma 1/{'1' * (cli.MAX_ECHO - 2)}... exceeds the bound 2^64 "
        "on a numerator or denominator; pass --unbounded to override\n"
    )


def test_series_value_bound_judges_long_digit_runs(capsys, monkeypatch):
    # an integer or p/q text with more digits than Python reads from text by
    # default is over the bound, judged by its length before any int is
    # built, so even a text far past argv's size is refused at once
    limit = sys.get_int_max_str_digits()
    threes = "3" * 5000
    with monkeypatch.context() as patch:
        _refuse_work(patch)
        for text in ("1" * 5000, f"1/{threes}", f"-{threes}/7", "7" * 10**6):
            start = time.perf_counter()
            rc, out, err = run(capsys, "series", "--order", "2", f"--u={text}")
            assert time.perf_counter() - start < 1
            assert (rc, out) == (2, "")
            shown = text[: cli.MAX_ECHO] + "..."
            assert err == (
                f"error: --u {shown} exceeds the bound 2^64 on a numerator or "
                "denominator; pass --unbounded to override\n"
            )
    # leading zeros do not count toward the length
    rc, out, err = run(capsys, "series", "--order", "1", "--u=" + "0" * 5000 + "3")
    assert (rc, out, err) == (0, "z^0: 1\nz^1: 4\n", "")
    rc, out, err = run(capsys, "series", "--order", "1", f"--u=1/{'0' * 5000}3")
    assert (rc, out, err) == (0, "z^0: 1\nz^1: 4/3\n", "")
    # --unbounded still reads both texts
    rc, out, err = run(
        capsys, "series", "--unbounded", "--order", "1", f"--u=1/{threes}"
    )
    assert (rc, err) == (0, "")
    assert out == f"z^0: 1\nz^1: {threes[:-1]}4/{threes}\n"
    assert sys.get_int_max_str_digits() == limit


def test_series_value_bound_drops_zeros_that_keep_the_value(capsys, monkeypatch):
    # zeros that leave the value as it is do not count toward a digit run's
    # length: a decimal's trailing zeros, and the trailing zeros p and q
    # share in p/q.  With the int-from-text limit kept on, the texts still
    # read, so no int past the limit is built on the way
    zeros = "0" * 4999
    texts = {
        f"2{zeros}/1{zeros}": "2",
        f"1.5{zeros}0": "3/2",
        f"-1_5{zeros}/1_0{zeros}": "-3/2",
        f"0.2{zeros}e1": "2",
    }

    def limit_kept_on(unbounded):
        return contextlib.nullcontext()

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_int_text_unlimited", limit_kept_on)
        for text, value in texts.items():
            rc, out, err = run(capsys, "series", "--order", "3", f"--u={text}")
            assert (rc, err) == (0, "")
            assert out == run(capsys, "series", "--order", "3", f"--u={value}")[1]
    # a run of more than the limit once those zeros are dropped is refused
    long_run = "1" * 5000
    for text in (f"{long_run}0/10", f"1.{long_run}0", f"3{zeros}/1{zeros}1"):
        rc, out, err = run(capsys, "series", "--order", "2", f"--u={text}")
        assert (rc, out) == (2, "")
        assert "exceeds the bound 2^64" in err


def test_series_engines_differ(capsys, monkeypatch):
    real = cli.dp_series

    def wrong(order, variant, *values):
        # one more term z^3: a fresh series, so the cached one is kept
        return real(order, variant, *values) + Series.from_terms(
            order, [(3, 0, 0, 0, 1)]
        )

    monkeypatch.setattr(cli, "dp_series", wrong)
    rc, out, err = run(capsys, "series", "--order", "5", "--engine", "both")
    closed = closed_form(Variant.PLAIN, 5).total.coefficient(3)
    assert rc == 1
    assert out == f"z^3: dp {closed + Poly.one()} != closed {closed}\n"
    assert err == "engines differ first at z^3\n"


def test_series_symbolic_text(capsys):
    rc, out, _ = run(capsys, "series", "--variant", "plain", "--order", "2")
    assert rc == 0
    assert out == "z^0: 1\nz^1: 1 + u\nz^2: 1 + 2*u + t + u^2\n"


def test_series_sym_token(capsys):
    rc, out, _ = run(
        capsys, "series", "--variant", "plain", "--order", "3",
        "--u", "1", "--sigma", "sym", "--tau", "1",
    )
    assert rc == 0
    assert out.splitlines()[3] == "z^3: 12 + s"


def test_series_engines_agree(capsys):
    for variant in ("plain", "skew"):
        rc, out, err = run(
            capsys, "series", "--variant", variant, "--order", "24",
            "--engine", "both",
        )
        assert rc == 0
        assert out == "" and err == ""


def test_series_json_round_trips(capsys):
    rc, out, _ = run(
        capsys, "series", "--variant", "skew", "--order", "5",
        "--format", "json",
    )
    assert rc == 0
    series = Series.from_json(json.loads(out))
    assert series.order == 5
    total = series.specialize(u=1, sigma=1, tau=1)
    assert [
        int(total.coefficient(n).as_constant()) for n in range(6)
    ] == [1, 2, 5, 14, 40, 117]


def test_series_rational_values_match_full_closed_form(capsys):
    values = dict(u=Fraction(1, 2), sigma=Fraction(3, 2), tau=-1)
    for variant in Variant:
        expected = closed_form(variant, 12).total.specialize(**values).to_text()
        for engine in ("closed", "dp"):
            rc, out, _ = run(
                capsys, "series", "--variant", variant.value, "--order", "12",
                "--engine", engine, "--u", "1/2", "--sigma", "3/2", "--tau", "-1",
            )
            assert rc == 0
            assert out == expected + "\n"


def test_series_with_values_passes_no_value_to_specialize(capsys, monkeypatch):
    # the engines get the values before the work, so the answer needs no
    # second substitution pass over its terms
    calls = []
    specialize = Series.specialize

    def record(self, *args, **kwargs):
        calls.append((args, kwargs))
        return specialize(self, *args, **kwargs)

    monkeypatch.setattr(Series, "specialize", record)
    for engine in ("closed", "dp"):
        rc, _, _ = run(
            capsys, "series", "--variant", "skew", "--order", "6",
            "--engine", engine, "--u", "1/2",
        )
        assert rc == 0
    assert calls == [((), {}), ((), {})]


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("sigma", ["sym", "1/2"])
def test_series_prints_the_reference_bytes(capsys, variant, sigma):
    value = None if sigma == "sym" else Fraction(sigma)
    total = closed_form(variant, 12, value).total
    for fmt, build in (("text", series_text), ("json", series_json_text)):
        rc, out, _ = run(
            capsys, "series", "--variant", variant.value, "--order", "12",
            "--sigma", sigma, "--format", fmt,
        )
        assert rc == 0
        assert out == build(total) + "\n"


def test_series_rejects_bad_value(capsys):
    rc, _, err = run(capsys, "series", "--order", "4", "--u", "b0gus")
    assert rc == 2
    assert "error" in err


# lines over both formats and both engines, with u, sigma and tau symbolic
# and at values
_SERIES_LINES = [
    ("series", "--order", "9"),
    ("series", "--variant", "skew", "--order", "8", "--format", "json"),
    ("series", "--variant", "skew", "--order", "9", "--engine", "dp"),
    ("series", "--order", "8", "--engine", "dp", "--format", "json"),
    ("series", "--order", "8", "--u=1/2", "--sigma=-1"),
    ("series", "--variant", "skew", "--order", "7", "--u=-1", "--tau=1/2",
     "--format", "json"),
    ("series", "--order", "9", "--engine", "dp", "--sigma", "3/2", "--tau=-1"),
    ("series", "--variant", "skew", "--order", "8", "--engine", "dp",
     "--u", "1/2", "--format", "json"),
]


def test_a_repeated_series_request_prints_the_same_bytes(capsys):
    # a repeat is answered from the cached series and the text it kept; it
    # prints what the first request printed, and what a fresh process prints
    closed_form.cache_clear()
    dp_series.cache_clear()
    first = [run(capsys, *argv) for argv in _SERIES_LINES]
    again = [run(capsys, *argv) for argv in _SERIES_LINES]
    assert again == first
    assert all(rc == 0 and out and err == "" for rc, out, err in first)
    src = str(Path(motzkin.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import motzkin.cli\n" + "".join(
        f"motzkin.cli.main({list(argv)!r})\n" for argv in _SERIES_LINES
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, timeout=60, check=True
    )
    assert proc.stdout == "".join(out for _, out, _ in first).encode()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_bounded_request_after_an_unbounded_one_prints_the_same(capsys, fmt):
    # both read one cached series, so the bounded request gets the text kept
    # from the unbounded one, written with the digit limit lifted
    argv = ("series", "--variant", "skew", "--order", "12", "--u=1/2",
            "--tau", "3", "--format", fmt)
    closed_form.cache_clear()
    unbounded = run(capsys, *argv, "--unbounded")
    bounded = run(capsys, *argv)
    closed_form.cache_clear()
    assert unbounded == bounded == run(capsys, *argv)
    assert bounded[0] == 0 and bounded[2] == ""


# ---------------------------------------------------------------------------
# paths


def test_paths_plain_excursions(capsys):
    rc, out, _ = run(
        capsys, "paths", "--n", "2", "--variant", "plain",
        "--class", "excursion",
    )
    assert rc == 0
    assert out == "HH\nUD\n(2)\n"


def test_paths_skew_excursions(capsys):
    rc, out, _ = run(
        capsys, "paths", "--n", "3", "--variant", "skew",
        "--class", "excursion",
    )
    assert rc == 0
    assert out == "HHH\nHUD\nUDH\nUHD\nUHL\n(5)\n"


def test_paths_cornerless(capsys):
    rc, out, _ = run(
        capsys, "paths", "--n", "4", "--class", "cornerless",
        "--variant", "plain",
    )
    assert rc == 0
    assert out == "HHHH\nHUHD\nUHDH\nUHHD\n(4)\n"


def test_paths_count_only(capsys):
    rc, out, _ = run(
        capsys, "paths", "--n", "2", "--variant", "plain",
        "--class", "excursion", "--count-only",
    )
    assert rc == 0
    assert out == "(2)\n"


@pytest.mark.parametrize("variant, path_class, n", [
    ("plain", "all", 6),
    ("skew", "excursion", 7),
    ("plain", "cornerless", 9),
    ("skew", "valleyless", 0),
])
def test_paths_count_only_is_the_listing_footer(capsys, variant, path_class, n):
    argv = ("paths", "--variant", variant, "--class", path_class, "--n", str(n))
    rc, listing, _ = run(capsys, *argv)
    assert rc == 0
    rc, footer, _ = run(capsys, *argv, "--count-only")
    assert rc == 0
    assert footer == listing.splitlines(keepends=True)[-1]


def test_paths_list_conflicts_with_count_only(capsys):
    rc, _, err = run(capsys, "paths", "--n", "2", "--list", "--count-only")
    assert rc == 2
    assert "not allowed with" in err


def test_paths_length_bound(capsys):
    rc, _, err = run(capsys, "paths", "--n", "21")
    assert rc == 2
    assert "--unbounded" in err


@pytest.mark.parametrize("variant", ["plain", "skew"])
@pytest.mark.parametrize("path_class", sorted(cli._CLASS_FILTERS))
def test_paths_lists_the_sorted_words(capsys, variant, path_class):
    # the listing is the words' texts in sorted() order, then their count
    filters = cli._CLASS_FILTERS[path_class]
    for n in range(11):
        words = sorted(
            str(w)
            for w in reference_oracle.enumerate_paths(n, Variant(variant), **filters)
        )
        want = "".join(w + "\n" for w in words) + f"({len(words)})\n"
        argv = ("paths", "--variant", variant, "--class", path_class, "--n", str(n))
        assert run(capsys, *argv) == (0, want, "")


def test_paths_listing_keeps_no_word():
    # each word is printed as the search yields it: listing the 143 365
    # plain meanders of length 12 holds far less than the list of their texts
    class Sink:
        lines = 0

        def write(self, text):
            self.lines += text.count("\n")

        def flush(self):
            pass

    sink = Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            rc = main(["paths", "--n", "12"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    words = 143_365
    assert (rc, sink.lines) == (0, words + 1)
    assert peak < words * sys.getsizeof("U" * 12) // 100


# ---------------------------------------------------------------------------
# bargraph


def test_bargraph_from_path(capsys):
    rc, out, _ = run(capsys, "bargraph", "--path", "HH")
    assert rc == 0
    assert out == "columns: 1,1\nsemiperimeter: 3\n"


def test_bargraph_single_column(capsys):
    rc, out, _ = run(capsys, "bargraph", "--columns", "1")
    assert rc == 0
    assert out == "path: H\nsemiperimeter: 2\n"


def test_bargraph_round_trip(capsys):
    rc, out, _ = run(capsys, "bargraph", "--columns", "2,1")
    assert rc == 0
    word = out.splitlines()[0].split(": ")[1]
    rc, out, _ = run(capsys, "bargraph", "--path", word)
    assert rc == 0
    assert out.splitlines()[0] == "columns: 2,1"
    assert out.splitlines()[1] == "semiperimeter: 4"


def test_bargraph_rejects_peak(capsys):
    # the word is echoed as parsed, in upper case
    for text in ("UD", "ud"):
        rc, _, err = run(capsys, "bargraph", "--path", text)
        assert rc == 2
        assert err == "error: 'UD' is not cornerless (contains UD or DU)\n"


def test_bargraph_rejects_non_excursion(capsys):
    rc, _, err = run(capsys, "bargraph", "--path", "UU")
    assert rc == 2
    assert err == "error: 'UU' is not a plain excursion\n"


def test_bargraph_rejects_empty_path(capsys):
    # the empty word is a path, but no bargraph has semiperimeter 0; the
    # columns side refuses the empty bargraph the same way
    rc, out, err = run(capsys, "bargraph", "--path", "")
    assert (rc, out) == (2, "")
    assert err == "error: the empty path has no bargraph image\n"
    rc, out, err = run(capsys, "bargraph", "--columns", "")
    assert (rc, out) == (2, "")
    assert err == "error: the empty bargraph has no path preimage\n"


def test_bargraph_rejects_bad_columns(capsys):
    rc, _, err = run(capsys, "bargraph", "--columns", "0")
    assert rc == 2
    assert "error" in err
    rc, _, err = run(capsys, "bargraph", "--columns", "2,x")
    assert rc == 2


def test_bargraph_bounds_the_path_of_huge_columns(capsys, monkeypatch):
    # the path is 2 * semiperimeter - width - 2 letters long; the bound is
    # checked before from_bargraph walks a single height
    walked = []
    monkeypatch.setattr(cli, "from_bargraph", walked.append)
    rc, out, err = run(capsys, "bargraph", "--columns", "1000000000")
    assert (rc, out, walked) == (2, "", [])
    assert err == (
        "error: these columns give a path of 1999999999 letters, over the "
        f"bound {cli.MAX_BARGRAPH_PATH_LEN}\n"
    )
    monkeypatch.undo()
    # the longest path within the bound is still printed
    rc, out, _ = run(capsys, "bargraph", "--columns", "500000,1")
    assert rc == 0
    assert len(out.splitlines()[0]) == len("path: ") + cli.MAX_BARGRAPH_PATH_LEN
    rc, _, err = run(capsys, "bargraph", "--columns", "500001")
    assert rc == 2
    assert "1000001 letters" in err


def test_bargraph_requires_exactly_one_input(capsys):
    rc, _, err = run(capsys, "bargraph")
    assert rc == 2
    rc, _, err = run(capsys, "bargraph", "--path", "HH", "--columns", "1")
    assert rc == 2


# ---------------------------------------------------------------------------
# check


def test_check_plain(capsys):
    rc, out, _ = run(capsys, "check", "--variant", "plain", "--max-n", "10")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert all(line.endswith(")") or ": PASS" in line for line in lines)
    assert lines[0].startswith("oracle-vs-dp (plain, n <= 10)")
    assert "593" in lines[2] and "3549" in lines[2]


def test_check_skew(capsys):
    rc, out, _ = run(capsys, "check", "--variant", "skew", "--max-n", "8")
    assert rc == 0
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "oracle-vs-dp (skew, n <= 8)",
        "dp-vs-closed (skew, order 8)",
    ]
    assert all(": PASS" in line for line in out.splitlines())


# the whole stdout of `check`, as 4864e0e printed it
CHECK_STDOUT = {
    ("plain", "12"): (
        "oracle-vs-dp (plain, n <= 12): 651 compared: PASS\n"
        "dp-vs-closed (plain, order 12): 13 compared: PASS\n"
        "bijection-round-trip (n <= 12): 33888 compared: PASS "
        "(2729 words, 31159 bargraphs)\n"
    ),
    ("skew", "10"): (
        "oracle-vs-dp (skew, n <= 10): 359 compared: PASS\n"
        "dp-vs-closed (skew, order 10): 11 compared: PASS\n"
    ),
}


@pytest.mark.parametrize("variant, max_n", sorted(CHECK_STDOUT))
def test_check_stdout_is_pinned(capsys, variant, max_n):
    rc, out, err = run(capsys, "check", "--variant", variant, "--max-n", max_n)
    assert (rc, out, err) == (0, CHECK_STDOUT[variant, max_n], "")


def _check_output(capsys, *argv):
    rc, out, err = run(capsys, "check", "--variant", "plain", *argv)
    assert err == ""
    return rc, out.splitlines()


@pytest.mark.parametrize("letters, line", [
    # "UHD" is the fifth cornerless excursion, after "", "H", "HH" and "HHH"
    ("UHD", "bijection-round-trip (n <= 4): 5 compared: FAIL "
            "(word 'UHD' round-trips to 'H')"),
    # "UUHDD" (the column 3) is longer than 4, so only the bargraph side
    # meets it: after the 9 words, it is the last of the 8 bargraphs of
    # semiperimeter <= 4
    ("UUHDD", "bijection-round-trip (n <= 4): 17 compared: FAIL "
              "(bargraph 3 round-trips to 1)"),
])
def test_check_fails_on_a_wrong_bargraph_image(capsys, monkeypatch, letters, line):
    # the walk gives wrong columns, heights >= 1 as the real walk gives;
    # only the round trip stands between them and a PASS
    real = cli.letters_to_columns

    def wrong_once(word_letters):
        return (1,) if word_letters == letters else real(word_letters)

    monkeypatch.setattr(cli, "letters_to_columns", wrong_once)
    rc, lines = _check_output(capsys, "--max-n", "4")
    assert rc == 1
    assert lines[2] == line
    assert ": PASS" in lines[0] and ": PASS" in lines[1]


def test_check_fails_on_a_wrong_path_image(capsys, monkeypatch):
    # the writer gives a wrong excursion for the column 1, the image of "H",
    # the second cornerless excursion
    real = cli.columns_to_letters

    def wrong_once(columns):
        return "UHD" if columns == (1,) else real(columns)

    monkeypatch.setattr(cli, "columns_to_letters", wrong_once)
    rc, lines = _check_output(capsys, "--max-n", "4")
    assert rc == 1
    assert lines[2] == (
        "bijection-round-trip (n <= 4): 2 compared: FAIL "
        "(word 'H' round-trips to 'UHD')"
    )
    assert ": PASS" in lines[0] and ": PASS" in lines[1]


def test_check_fails_on_a_wrong_dp_count(capsys, monkeypatch):
    real = cli.dp_count
    for wrong, compared in [
        ({(2, 0, 1, 0): 2}, 26),  # the word UD counted twice
        # and a key no word of length 4 has (it ends at level 4 with two UD
        # factors), larger than the first and held by the DP alone: the line
        # names the smallest differing key and counts the union of the keys
        ({(4, 4, 2, 2): 7, (2, 0, 1, 0): 2}, 27),
    ]:
        def wrong_once(n_max, variant, wrong=wrong, **kw):
            table = real(n_max, variant, **kw)
            return CountTable(variant, n_max, {**table.entries, **wrong})

        monkeypatch.setattr(cli, "dp_count", wrong_once)
        rc, lines = _check_output(capsys, "--max-n", "4")
        assert rc == 1
        assert lines[0] == (
            f"oracle-vs-dp (plain, n <= 4): {compared} compared: FAIL "
            "(first mismatch at (n=2, j=0, ud=1, du=0): oracle=1, dp=2)"
        )
        assert ": PASS" in lines[1] and ": PASS" in lines[2]


def test_check_fails_on_a_wrong_dp_series(capsys, monkeypatch):
    real = cli.dp_series

    def wrong_once(order, variant, *values):
        # one more term z^3 sigma: a fresh series, so the cached one is kept
        return real(order, variant, *values) + Series.from_terms(
            order, [(3, 0, 1, 0, 1)]
        )

    monkeypatch.setattr(cli, "dp_series", wrong_once)
    rc, lines = _check_output(capsys, "--max-n", "4")
    assert rc == 1
    assert lines[1] == (
        "dp-vs-closed (plain, order 4): 5 compared: FAIL "
        "(first mismatch at (n=3, j=0, ud=0, du=1): dp=1, closed=0)"
    )
    assert ": PASS" in lines[0] and ": PASS" in lines[2]


def test_check_bound_error(capsys):
    rc, _, err = run(capsys, "check", "--max-n", "99")
    assert rc == 2
    assert "out of bounds" in err


def test_check_rejects_a_bound_before_running_any_suite(capsys, monkeypatch):
    # 13 is within the plain cap and over the skew cap
    ran = []
    monkeypatch.setattr(cli, "run_checks", lambda *args: ran.append(args) or [])
    rc, out, err = run(capsys, "check", "--max-n", "13")
    assert (rc, out, ran) == (2, "", [])
    assert err == "error: --max-n 13 out of bounds for skew (0..12)\n"


# ---------------------------------------------------------------------------
# oeis


def test_oeis_motzkin(capsys):
    rc, out, _ = run(capsys, "oeis", "--id", "A001006", "--terms", "9")
    assert rc == 0
    assert out == (
        "A001006 (all excursions): match on 1,1,2,4,9,21,51,127,323 "
        "[builtin]\n"
    )


def test_oeis_cornerless_meanders(capsys):
    rc, out, _ = run(capsys, "oeis", "--id", "A308435", "--terms", "11")
    assert rc == 0
    assert out == (
        "A308435 (cornerless meanders): match on "
        "1,2,4,9,20,45,102,233,535,1234,2857 [builtin]\n"
    )


def test_oeis_unknown_id(capsys):
    rc, _, err = run(capsys, "oeis", "--id", "A000000")
    assert rc == 2
    assert "unknown id" in err
    assert "A001006" in err


def test_oeis_shared_id_reports_both_anchors(capsys):
    rc, out, _ = run(capsys, "oeis", "--id", "A004148")
    assert rc == 0
    assert out.splitlines() == [
        "A004148 (valleyless excursions): match on 1,1,2,4,8,17,37,82 "
        "[builtin]",
        "A004148 (peakless excursions): match on 1,1,1,2,4,8,17,37 [builtin]",
    ]


def test_oeis_default_compares_all_embedded_terms(capsys):
    for anchor in ANCHORS:
        if anchor.id is None:
            continue
        rc, out, _ = run(capsys, "oeis", "--id", anchor.id)
        assert rc == 0
        for line in out.splitlines():
            assert "match on" in line


def test_oeis_terms_beyond_embedded_needs_fetch(capsys):
    rc, _, err = run(capsys, "oeis", "--id", "A001006", "--terms", "12")
    assert rc == 2
    assert "--fetch" in err


def test_oeis_fetch_extends_comparison(capsys, monkeypatch):
    monkeypatch.setattr(
        "motzkin.cli.fetch_bfile", lambda id, timeout=10.0: list(MOTZKIN_12)
    )
    rc, out, _ = run(
        capsys, "oeis", "--id", "A001006", "--terms", "12", "--fetch"
    )
    assert rc == 0
    assert out == (
        "A001006 (all excursions): match on "
        "1,1,2,4,9,21,51,127,323,835,2188,5798 [fetched]\n"
    )


def test_oeis_fetch_aligns_shifted_bfile(capsys, monkeypatch):
    monkeypatch.setattr(
        "motzkin.cli.fetch_bfile",
        lambda id, timeout=10.0: [99, 99] + list(MOTZKIN_12),
    )
    rc, out, _ = run(
        capsys, "oeis", "--id", "A001006", "--terms", "10", "--fetch"
    )
    assert rc == 0
    assert "[fetched, aligned at index 2]" in out


def test_oeis_fetch_reports_divergence(capsys, monkeypatch):
    fetched = MOTZKIN_12[:9] + [999]
    monkeypatch.setattr(
        "motzkin.cli.fetch_bfile", lambda id, timeout=10.0: fetched
    )
    rc, out, _ = run(
        capsys, "oeis", "--id", "A001006", "--terms", "10", "--fetch"
    )
    assert rc == 1
    assert "first divergence at term 9" in out
    assert "computed 835" in out and "reference 999" in out


def test_oeis_fetch_failure_degrades(capsys, monkeypatch):
    def boom(id, timeout=10.0):
        raise OSError("no route to host")

    monkeypatch.setattr("motzkin.cli.fetch_bfile", boom)
    rc, out, err = run(capsys, "oeis", "--id", "A001006", "--fetch")
    assert rc == 0
    assert "warning: fetch failed" in err
    assert "[builtin]" in out


def test_oeis_shared_id_fetches_once(capsys, monkeypatch):
    # A004148 has two anchors, which share one b-file
    calls = []

    def fetch(id, timeout=10.0):
        calls.append(id)
        return [1, 1, 1, 2, 4, 8, 17, 37, 82, 185, 423]

    monkeypatch.setattr("motzkin.cli.fetch_bfile", fetch)
    rc, out, err = run(capsys, "oeis", "--id", "A004148", "--fetch")
    assert (rc, err, calls) == (0, "", ["A004148"])
    assert out.splitlines() == [
        "A004148 (valleyless excursions): match on 1,1,2,4,8,17,37,82 "
        "[fetched, aligned at index 1]",
        "A004148 (peakless excursions): match on 1,1,1,2,4,8,17,37 [fetched]",
    ]

    def boom(id, timeout=10.0):
        calls.append(id)
        raise OSError("no route to host")

    calls.clear()
    monkeypatch.setattr("motzkin.cli.fetch_bfile", boom)
    rc, out, err = run(capsys, "oeis", "--id", "A004148", "--fetch")
    assert (rc, calls) == (0, ["A004148"])
    assert err == (
        "warning: fetch failed (no route to host); comparing embedded terms only\n"
    )
    assert [line.endswith("[builtin]") for line in out.splitlines()] == [True, True]


def test_oeis_fetch_protocol_error_degrades(capsys, monkeypatch):
    import http.client
    import urllib.request

    class Truncated:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def read(self):
            raise http.client.IncompleteRead(b"0 1\n1 1", 100)

    monkeypatch.setattr(urllib.request, "urlopen", lambda url, timeout: Truncated())
    rc, out, err = run(capsys, "oeis", "--id", "A001006", "--fetch")
    assert rc == 0
    assert "warning: fetch failed" in err and "IncompleteRead" in err
    assert "[builtin]" in out


def test_oeis_fetch_bfile_reads_the_second_field_of_full_lines(monkeypatch):
    import urllib.request

    class Body:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def read(self):
            return b"# A001006 Motzkin numbers\n\n0 1\n1\n 1 1 \n2 2\n"

    asked = []

    def urlopen(url, timeout):
        asked.append((url, timeout))
        return Body()

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    assert cli.fetch_bfile("A001006") == [1, 1, 2]
    assert asked == [("https://oeis.org/A001006/b001006.txt", cli.OEIS_TIMEOUT)]


def test_oeis_terms_bound(capsys, monkeypatch):
    calls = []

    def fetch(id, timeout=10.0):
        calls.append(id)
        return list(MOTZKIN_12)

    monkeypatch.setattr("motzkin.cli.fetch_bfile", fetch)
    rc, out, _ = run(
        capsys, "oeis", "--id", "A001006", "--fetch",
        "--terms", str(cli.MAX_OEIS_TERMS),
    )
    assert (rc, calls) == (0, ["A001006"])
    assert "match on" in out
    # refused before the fetch
    calls.clear()
    rc, out, err = run(
        capsys, "oeis", "--id", "A001006", "--fetch",
        "--terms", str(cli.MAX_OEIS_TERMS + 1),
    )
    assert (rc, out, calls) == (2, "", [])
    assert err == (
        f"error: --terms {cli.MAX_OEIS_TERMS + 1} exceeds the bound "
        f"{cli.MAX_OEIS_TERMS}\n"
    )


def test_oeis_fetch_notes_a_short_bfile(capsys, monkeypatch):
    # A004148 has two anchors; its 9-term b-file holds 8 terms from the
    # valleyless prefix (aligned at index 1) and 9 from the peakless one
    monkeypatch.setattr(
        "motzkin.cli.fetch_bfile",
        lambda id, timeout=10.0: [1, 1, 1, 2, 4, 8, 17, 37, 82],
    )
    rc, out, err = run(capsys, "oeis", "--id", "A004148", "--terms", "12", "--fetch")
    assert rc == 0
    assert out.splitlines() == [
        "A004148 (valleyless excursions): match on 1,1,2,4,8,17,37,82 "
        "[fetched, aligned at index 1]",
        "A004148 (peakless excursions): match on 1,1,1,2,4,8,17,37,82 [fetched]",
    ]
    assert err.splitlines() == [
        "note: A004148 (valleyless excursions): compared 8 of the 12 terms "
        "requested, all the fetched b-file holds",
        "note: A004148 (peakless excursions): compared 9 of the 12 terms "
        "requested, all the fetched b-file holds",
    ]


def test_oeis_terms_must_be_positive(capsys):
    rc, out, err = run(capsys, "oeis", "--id", "A001006", "--terms", "0")
    assert (rc, out) == (2, "")
    assert "--terms must be positive" in err


def test_oeis_fetch_without_the_embedded_prefix_fails(capsys, monkeypatch):
    monkeypatch.setattr("motzkin.cli.fetch_bfile", lambda id, timeout=10.0: [5] * 20)
    rc, out, _ = run(capsys, "oeis", "--id", "A001006", "--fetch")
    assert rc == 1
    assert out == (
        "A001006 (all excursions): embedded prefix not found in fetched b-file\n"
    )


def test_import_leaves_urllib_unloaded():
    # a fresh interpreter: only `oeis --fetch` needs the network stack, and
    # no command needs the csv module
    code = (
        "import sys, motzkin.cli; "
        "print('urllib.request' in sys.modules, 'csv' in sys.modules)"
    )
    src = str(Path(motzkin.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=60, check=True,
    )
    assert proc.stdout == "False False\n"



def test_cold_import_loads_no_dataclasses_inspect_or_json(capsys):
    # an isolated interpreter, as every command starts: the import pays for
    # none of these, and `count --format json` imports json when it runs
    src = str(Path(motzkin.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import motzkin.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json'} & sys.modules.keys())); "
        "motzkin.cli.main(['count', '--n', '4', '--format', 'json'])"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, timeout=60, check=True
    )
    rc, out, _ = run(capsys, "count", "--n", "4", "--format", "json")
    assert rc == 0
    assert proc.stdout == b"[]\n" + out.encode()


def test_cold_well_formed_lines_load_no_argparse(capsys):
    # an isolated interpreter: a well-formed line is read without argparse
    # and the gettext and locale it loads; a declined line still gets
    # argparse's reading, and its usage error
    src = str(Path(motzkin.__file__).resolve().parents[1])
    loaded = (
        "print(sorted({'argparse', 'gettext', 'locale'} & sys.modules.keys()), "
        "flush=True); "
    )
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import motzkin.cli; {loaded}"
        "motzkin.cli.main(['series', '--order', '4']); "
        "motzkin.cli.main(['count', '--n=4', '--variant', 'skew']); "
        f"{loaded}"
        "motzkin.cli.main(['series', '--ord', '3']); "
        "sys.exit(motzkin.cli.main(['series', '--order', 'x']))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, timeout=60
    )
    lines = [run(capsys, "series", "--order", "4"),
             run(capsys, "count", "--n=4", "--variant", "skew"),
             run(capsys, "series", "--ord", "3"),
             run(capsys, "series", "--order", "x")]
    assert [rc for rc, _, _ in lines] == [0, 0, 0, 2]
    assert proc.stdout == (
        "[]\n" + lines[0][1] + lines[1][1] + "[]\n" + lines[2][1]
    ).encode()
    assert proc.stderr == lines[3][2].encode()
    assert lines[3][2].startswith("usage: motzkin series")
    assert proc.returncode == 2


def test_align_terms():
    assert align_terms([5, 1, 2, 3], [1, 2]) == 1
    assert align_terms([1, 2, 3], [1, 2, 3]) == 0
    assert align_terms([1, 2], [2, 1]) is None
    assert align_terms([1, 2], []) == 0
    assert align_terms([], [1]) is None


def test_anchor_targets_are_embedded_prefix_lengths_only():
    for anchor in ANCHORS:
        computed = anchor_computed_terms(anchor, len(anchor.terms))
        assert tuple(computed) == anchor.terms



def test_oeis_anchor_is_a_frozen_value():
    anchor = ANCHORS[0]
    with pytest.raises(AttributeError):
        anchor.terms = ()
    same = cli.OeisAnchor(anchor.id, anchor.label, anchor.variant, anchor.u,
                          anchor.sigma, anchor.tau, anchor.terms)
    assert same == anchor and hash(same) == hash(anchor)
    assert repr(anchor) == (
        "OeisAnchor(id='A004148', label='valleyless excursions', "
        "variant=<Variant.PLAIN: 'plain'>, u=0, sigma=0, tau=1, "
        "terms=(1, 1, 2, 4, 8, 17, 37, 82))"
    )


def test_check_result_compares_by_fields_and_is_unhashable():
    result = cli.CheckResult("suite", True, 3)
    assert result == cli.CheckResult("suite", True, 3, "")
    assert result != cli.CheckResult("suite", True, 3, "note")
    assert result != cli.CheckResult("suite", False, 3)
    with pytest.raises(TypeError):
        hash(result)
    assert repr(result) == (
        "CheckResult(name='suite', passed=True, compared=3, detail='')"
    )
    result.detail = "note"  # mutable
    assert result.line() == "suite: 3 compared: PASS (note)"

def test_anchors_for_filters():
    assert len(anchors_for("A004148")) == 2
    assert anchors_for("A999999") == []


# ---------------------------------------------------------------------------
# top level


def test_no_command_is_usage_error(capsys):
    rc, _, err = run(capsys)
    assert rc == 2
    assert "usage" in err


def test_help_exits_zero(capsys):
    rc, out, _ = run(capsys, "--help")
    assert rc == 0
    assert "count" in out and "oeis" in out


def test_oeis_help_documents_label_caveat(capsys):
    rc, out, _ = run(capsys, "oeis", "--help")
    assert rc == 0
    assert "valleys" in out and "peaks" in out


# a value each command's required options take
_REQUIRED = {"count": ("--n", "3"), "paths": ("--n", "3"), "oeis": ("--id", "A001006")}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in cli._COMMANDS for flag in cli._spec(command).options
])
def test_an_option_given_as_equals_dashes_is_a_usage_error(capsys, command, flag):
    # argparse reads --opt=-- as an empty list; main refuses it as argparse
    # refuses --opt with no value, before the command runs
    rest = _REQUIRED.get(command, ())
    if rest[:1] == (flag,):
        rest = ()
    rc, out, err = run(capsys, command, *rest, f"{flag}=--")
    assert (rc, out) == (2, "")
    assert "Traceback" not in err
    if cli._spec(command).options[flag].switch:
        assert err.endswith("ignored explicit argument '--'\n")
    else:
        assert err.endswith(f"error: argument {flag}: expected one argument\n")
        assert (rc, out, err) == run(capsys, command, *rest, flag)


def test_command_parser_helps_as_the_whole_parser_does():
    (sub,) = (
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert sorted(sub.choices) == sorted(cli._COMMANDS)
    for name, whole in sub.choices.items():
        assert cli._parser(name).format_help() == whole.format_help()


@pytest.mark.parametrize("argv", [
    (),
    ("-h",),
    ("bogus",),
    ("series", "--bogus"),
    ("series", "--order", "x"),
    ("series", "--variant", "sk"),
    ("series", "--u", "-1/2"),
    ("series", "--ord", "3"),
    ("series", "--", "--order"),
    ("count",),
    ("paths", "--list", "--count-only"),
    ("bargraph",),
    ("oeis", "--help"),
    # lines _read_args declines, which argparse reads or refuses
    ("series", "--order=-1"),
    ("series", "--order", "+3"),
    ("series", "--order", "3", "--order", "4"),
    ("series", "--order", "5" * 5000),
    ("series", "--order", "\u0663"),
    ("series", "--u="),
    ("series", "sym"),
    ("count", "--n", "4", "--unbounded=1"),
    ("paths", "--n", "3", "--count-only", "--list"),
    ("bargraph", "--columns", ""),
])
def test_main_answers_as_the_whole_parser_does(capsys, argv):
    # none of these is read by _read_args; main builds only the named
    # command's parser, and what it prints, help and errors alike, is what
    # parsing with the whole parser prints
    if argv and argv[0] in cli._COMMANDS:
        assert cli._read_args(argv[0], argv[1:]) is None
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        rc = int(exc.code or 0)
    else:
        try:
            rc = args.func(args)
        except ValueError as exc:  # refused past the parser, as main does
            print(f"error: {exc}", file=sys.stderr)
            rc = 2
    captured = capsys.readouterr()
    assert run(capsys, *argv) == (rc, captured.out, captured.err)


# values for any option: numbers, forms int() or argparse treat apart, and
# the values of bargraph and oeis
_VALUES = [
    "0", "3", "12", "0012", "-1", "+5", "\u0663", "", "5" * 5000,
    "sym", "1/2", "-1/2", "x", "-h", "--", "1,2", "UUDD", "A001006",
]


@st.composite
def command_lines(draw):
    # a line of the command's options as argparse declares them, each at
    # most once and the required ones always, with a value that fits; into
    # it go up to two noisy parts: any option, -h included, or its
    # abbreviation, as --opt value, --opt=value, a bare --opt or a stray
    # value, with a value from its choices or _VALUES
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    actions = cli._parser(command)._actions
    parts = []
    for action in actions:
        if action.dest == "help" or not (action.required or draw(st.booleans())):
            continue
        flag = action.option_strings[0]
        fitting = action.choices or (
            ["0", "3", "0012"] if action.type is int
            else ["sym", "1/2", "UUDD", "1,2", "A001006"]
        )
        value = draw(st.sampled_from(list(fitting)))
        parts.append(draw(st.sampled_from(
            [[flag]] if action.nargs == 0 else [[flag, value], [f"{flag}={value}"]]
        )))
    parts = draw(st.permutations(parts))
    for _ in range(draw(st.integers(0, 2))):
        action = draw(st.sampled_from(actions))
        flag = draw(st.sampled_from(action.option_strings))
        name = draw(st.sampled_from([flag, flag[:-1]] if len(flag) > 3 else [flag]))
        value = draw(st.sampled_from(list(action.choices or ()) + _VALUES))
        noise = draw(st.sampled_from([[name, value], [f"{name}={value}"], [name], [value]]))
        parts.insert(draw(st.integers(0, len(parts))), noise)
    return command, [token for part in parts for token in part]


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(command_lines())
@example(("series", ["--variant", "skew", "--order=20", "--u=-1/2", "--format", "json"]))
@example(("count", ["--n", "0004", "--end-level=0", "--unbounded"]))
@example(("paths", ["--class", "peakless", "--n", "3", "--count-only"]))
@example(("bargraph", ["--columns=1,2"]))
@example(("check", ["--max-n", "4"]))
@example(("oeis", ["--terms", "6", "--id", "A001006", "--fetch"]))
@example(("series", ["--u=--"]))  # argparse reads the value as []
@example(("bargraph", ["--columns="]))
def test_read_args_is_argparse_where_it_reads(line):
    # a namespace _read_args gives is the one argparse gives, and a line
    # argparse refuses or answers with help, _read_args declines
    command, argv = line
    read = cli._read_args(command, argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = cli._parser(command).parse_args(argv)
        except SystemExit:
            parsed = None
    if read is not None:
        assert parsed is not None and vars(read) == vars(parsed)


def test_read_args_reads_each_command_without_argparse():
    assert cli._read_args("count", ["--n", "4"]).n == 4
    assert vars(cli._read_args("series", ["--u=-1/2"])) == vars(
        cli._parser("series").parse_args(["--u=-1/2"])
    )
    for command, argv in [("paths", ["--n", "3", "--list"]),
                          ("bargraph", ["--path", "UUDD"]), ("check", []),
                          ("oeis", ["--id", "A001006"])]:
        assert cli._read_args(command, argv).func is getattr(cli, f"cmd_{command}")


def test_closed_stdout_exits_one_without_traceback():
    # as `motzkin series --order 40 | head -1`: the reader leaves after one
    # line, while the megabytes of the series are still being written
    src = str(Path(motzkin.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "motzkin.cli", "series", "--order", "40"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.stdout.readline() == b"z^0: 1\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == b""
    assert proc.returncode == 1


def test_main_back_to_back_matches_separate_calls(capsys, monkeypatch):
    # one parser serves every call of a process; a call must not see the
    # options, errors or defaults of the one before it
    monkeypatch.setenv("MOTZKIN_ORDER", "3")
    calls = [
        ("series", "--order", "2", "--u", "1", "--format", "json"),
        ("series",),
        ("count", "--n", "3", "--format", "csv"),
        ("bogus",),
        ("series", "--order", "-1"),
        ("series", "--variant", "skew", "--order", "2", "--engine", "dp"),
        ("paths", "--n", "3", "--count-only"),
        ("bargraph", "--columns", "1,2"),
        ("check", "--variant", "plain", "--max-n", "4"),
        ("oeis", "--id", "A001006"),
        ("series", "--sigma", "1/2"),
    ]
    separate = []
    for argv in calls:
        cli._parser.cache_clear()
        separate.append(run(capsys, *argv))
    cli._parser.cache_clear()
    together = [run(capsys, *argv) for argv in calls]
    # the whole parser for bogus and the series parser for the declined
    # --order -1; every other line is read without a parser
    assert cli._parser.cache_info().misses == 1 + 1
    assert [run(capsys, *argv) for argv in calls] == together
    assert cli._parser.cache_info().misses == 1 + 1
    cli._parser.cache_clear()
    well_formed = [argv for argv in calls if argv not in calls[3:5]]
    assert [run(capsys, *argv) for argv in well_formed] == together[:3] + together[5:]
    assert cli._parser.cache_info().misses == 0
    assert together == separate
    assert [rc for rc, _, _ in together] == [0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0]
    # --order and --u set in the first call are back to their defaults
    assert together[1][1] == closed_form(Variant.PLAIN, 3).total.to_text() + "\n"


def test_deterministic_output(capsys):
    first = run(capsys, "series", "--variant", "skew", "--order", "6")
    second = run(capsys, "series", "--variant", "skew", "--order", "6")
    assert first == second
