"""Command line front end: counting, series expansion, path and bargraph
conversion, consistency checking, and comparison against published integer
sequence prefixes.

Exit codes: 0 success, 1 verification failure or a closed stdout, 2 usage
error.
"""

from __future__ import annotations

import contextlib
import functools
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence

from .automata import dp_count, dp_series
from .oracle import (
    MAX_PATH_LEN,
    MAX_SEMIPERIMETER,
    count_table,
    enumerate_columns,
    enumerate_letters,
)
from .paths import (
    Bargraph,
    PathWord,
    Variant,
    columns_to_letters,
    from_bargraph,
    letters_to_columns,
    to_bargraph,
)
from .series import Rat, closed_form, default_order

if TYPE_CHECKING:
    import argparse

OK = 0
FAIL = 1
USAGE = 2

CHECK_MAX_N = {Variant.PLAIN: 14, Variant.SKEW: 12}

# `count` runs the DP, whose cost grows polynomially in n (skew n=60 takes
# about 0.1 s), so it gets its own bound instead of the enumeration cap
MAX_COUNT_LEN = 60

# `series` works and prints in time and memory that grow about as the fourth
# power of the order; at order 60 the symbolic closed form takes about
# 0.15-0.25 s and the text runs to 6.4-6.6 MB, written in about 0.2-0.35 s
MAX_SERIES_ORDER = 60

# `series` refuses a value whose numerator or denominator has more bits.  Up
# to it, at an order n <= MAX_SERIES_ORDER, each printed coefficient stays
# under Python's 4 300-digit limit on int-to-text conversion: the z^n one
# sums u^j*sigma^a*tau^b (j, a, b <= n) over at most 4^n words, so over the
# common denominator (q_u*q_sigma*q_tau)^n, of at most 192*n bits, its
# numerator has at most 194*n bits (3 504 digits at n = 60)
MAX_VALUE_BITS = 64

# characters of a refused value that its error message quotes
MAX_ECHO = 40

# `bargraph --columns` prints a path whose length grows with the heights,
# not with the argument's size, so that length is bounded before the walk
MAX_BARGRAPH_PATH_LEN = 10**6

# `oeis` runs `dp_series` to the order --terms asks, whose cost grows about
# as the 3.6th power of it: in process, A005773 took 0.24-0.30 s at 401 terms
# and 3.1-3.3 s at 800, and the skew anchor A082582 0.31-0.38 s at 401
MAX_OEIS_TERMS = 400

OEIS_URL = "https://oeis.org/{id}/b{digits}.txt"
OEIS_TIMEOUT = 10.0

SIGMA_TAU_NOTE = (
    "sigma marks DU factors (valleys) and tau marks UD factors (peaks); "
    "some published attributions use the opposite prose labels, so the "
    "numeric prefixes, not the labels, are what gets verified."
)


# ---------------------------------------------------------------------------
# sequence anchors


class OeisAnchor(NamedTuple):
    """A specialization of the full generating function pinned to a known
    integer sequence prefix.

    ``terms`` holds only published prefix values; longer comparisons go
    through ``--fetch``.
    """

    id: Optional[str]
    label: str
    variant: Variant
    u: Rat
    sigma: Rat
    tau: Rat
    terms: tuple[int, ...]


# the values are ints, as _parse_value gives integral values to ``series``
ANCHORS: tuple[OeisAnchor, ...] = (
    OeisAnchor("A004148", "valleyless excursions", Variant.PLAIN, 0, 0, 1,
               (1, 1, 2, 4, 8, 17, 37, 82)),
    OeisAnchor("A004148", "peakless excursions", Variant.PLAIN, 0, 1, 0,
               (1, 1, 1, 2, 4, 8, 17, 37)),
    OeisAnchor("A004149", "cornerless excursions", Variant.PLAIN, 0, 0, 0,
               (1, 1, 1, 2, 4, 8, 16, 33)),
    OeisAnchor("A001006", "all excursions", Variant.PLAIN, 0, 1, 1,
               (1, 1, 2, 4, 9, 21, 51, 127, 323)),
    OeisAnchor(None, "valleyless meanders", Variant.PLAIN, 1, 0, 1,
               (1, 2, 5, 12, 29, 71, 175, 434, 1082, 2709, 6807)),
    OeisAnchor("A091964", "peakless meanders", Variant.PLAIN, 1, 1, 0,
               (1, 2, 4, 9, 21, 50, 121, 296, 730, 1812, 4521)),
    OeisAnchor("A308435", "cornerless meanders", Variant.PLAIN, 1, 0, 0,
               (1, 2, 4, 9, 20, 45, 102, 233, 535, 1234, 2857)),
    OeisAnchor("A005773", "all meanders", Variant.PLAIN, 1, 1, 1,
               (1, 2, 5, 13, 35, 96, 267, 750, 2123, 6046, 17303)),
    OeisAnchor("A082582", "skew meanders", Variant.SKEW, 1, 1, 1,
               (1, 2, 5, 14, 40, 117, 348, 1049)),
)


def anchors_for(id: str) -> list[OeisAnchor]:
    return [a for a in ANCHORS if a.id == id]


def anchor_computed_terms(anchor: OeisAnchor, count: int) -> list[int]:
    """The first ``count`` terms of the anchor's specialized series."""
    series = dp_series(
        count - 1, anchor.variant, u=anchor.u, sigma=anchor.sigma, tau=anchor.tau
    )
    values = []
    for n in range(count):
        c = series.coefficient(n).as_constant()
        if c is None or c.denominator != 1:
            raise ValueError(f"specialized coefficient of z^{n} is not an integer")
        values.append(c.numerator)
    return values


def fetch_bfile(id: str, timeout: float = OEIS_TIMEOUT) -> list[int]:
    """Download and parse a b-file: one "index value" pair per line."""
    # imported here, not at the top: it is about half of the import time of
    # this module, and no other command needs it
    import http.client
    import urllib.request

    url = OEIS_URL.format(id=id, digits=id.lstrip("A"))
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            text = response.read().decode("utf-8", errors="replace")
    except http.client.HTTPException as exc:
        # http.client raises these, not OSError, for a truncated body or a
        # bad status line; the caller reports any OSError as a failed fetch
        raise OSError(f"HTTP protocol error: {exc!r}") from exc
    values = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            continue
        values.append(int(parts[1]))
    return values


def align_terms(reference: Sequence[int], needle: Sequence[int]) -> Optional[int]:
    """Index of the first occurrence of needle in reference, else None."""
    needle = list(needle)
    if not needle:
        return 0
    limit = len(reference) - len(needle)
    for start in range(limit + 1):
        if list(reference[start:start + len(needle)]) == needle:
            return start
    return None


# ---------------------------------------------------------------------------
# consistency check suites


class CheckResult:
    def __init__(self, name: str, passed: bool, compared: int, detail: str = "") -> None:
        self.name = name
        self.passed = passed
        self.compared = compared
        self.detail = detail

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.name, self.passed, self.compared, self.detail) == (
            other.name, other.passed, other.compared, other.detail
        )

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(name={self.name!r}, passed={self.passed!r}, "
                f"compared={self.compared!r}, detail={self.detail!r})")

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{self.name}: {self.compared} compared: {status}"
        if self.detail:
            text += f" ({self.detail})"
        return text


def check_oracle_vs_dp(variant: Variant, max_n: int) -> CheckResult:
    name = f"oracle-vs-dp ({variant.value}, n <= {max_n})"
    oracle = count_table(max_n, variant).entries
    dp = dp_count(max_n, variant).entries
    keys = oracle.keys() | dp.keys()
    # a key missing from one table counts 0 there; the keys are walked only
    # when the tables differ
    wrong = oracle != dp and [k for k in keys if oracle.get(k, 0) != dp.get(k, 0)]
    if not wrong:
        return CheckResult(name, True, len(keys))
    n, j, ud, du = first = min(wrong)
    return CheckResult(
        name, False, len(keys),
        f"first mismatch at (n={n}, j={j}, ud={ud}, du={du}): "
        f"oracle={oracle.get(first, 0)}, dp={dp.get(first, 0)}",
    )


def check_series_engines(variant: Variant, order: int) -> CheckResult:
    name = f"dp-vs-closed ({variant.value}, order {order})"
    dp = dp_series(order, variant)
    closed = closed_form(variant, order).total
    for power in range(order + 1):
        a = dp.coefficient(power)
        b = closed.coefficient(power)
        if a != b:
            (eu, es, et), _ = (a - b).terms()[0]
            return CheckResult(
                name, False, order + 1,
                f"first mismatch at (n={power}, j={eu}, ud={et}, du={es}): "
                f"dp={a.coefficient(eu, es, et)}, "
                f"closed={b.coefficient(eu, es, et)}",
            )
    return CheckResult(name, True, order + 1)


def check_bijection_roundtrip(max_len: int) -> CheckResult:
    """Round-trip every cornerless excursion (and, inversely, every small
    bargraph) through the bijection.

    The oracle's searches hand the round trip letters and columns, which go
    through the walk and the writer that ``to_bargraph`` and
    ``from_bargraph`` wrap."""
    name = f"bijection-round-trip (n <= {max_len})"
    words = 0
    for n in range(max_len + 1):
        for letters in enumerate_letters(
            n, Variant.PLAIN,
            forbid_ud=True, forbid_du=True, excursions_only=True,
        ):
            words += 1
            columns = letters_to_columns(letters)
            # the empty word's image is the empty bargraph, which has no
            # preimage of its own
            back = columns_to_letters(columns) if columns else ""
            if back != letters:
                return CheckResult(
                    name, False, words,
                    f"word {letters!r} round-trips to {back!r}",
                )
    graphs = 0
    for s in range(2, min(max_len, MAX_SEMIPERIMETER) + 1):
        for columns in enumerate_columns(s):
            graphs += 1
            back = letters_to_columns(columns_to_letters(columns))
            if back != columns:
                return CheckResult(
                    name, False, words + graphs,
                    f"bargraph {','.join(map(str, columns))} round-trips to "
                    f"{','.join(map(str, back))}",
                )
    return CheckResult(
        name, True, words + graphs, f"{words} words, {graphs} bargraphs"
    )


def run_checks(variant: Variant, max_n: int) -> list[CheckResult]:
    results = [
        check_oracle_vs_dp(variant, max_n),
        check_series_engines(variant, max_n),
    ]
    if variant is Variant.PLAIN:
        results.append(check_bijection_roundtrip(min(max_n, 12)))
    return results


# ---------------------------------------------------------------------------
# subcommands


def _without_neutral_zeros(text: str) -> str:
    """text less the zeros that do not change its value: the trailing zeros
    of a decimal's fractional part, and the trailing zeros shared by p and q
    in p/q.  Only a text Fraction reads is changed, with its runs' underscores
    dropped; it reads to the same value, and each run keeps a digit."""
    run = r"\d+(?:_\d+)*"  # a digit run as Fraction reads one
    if "." in text:
        decimal = rf"\s*[-+]?(?:\d*|{run})\.({run})(?:[eE][-+]?{run})?\s*"
        if m := re.fullmatch(decimal, text):
            digits = m[1].replace("_", "").rstrip("0") or "0"
            return text[: m.start(1)] + digits + text[m.end(1) :]
    if "/" in text:
        if m := re.fullmatch(rf"\s*[-+]?({run})/({run})\s*", text):
            p, q = (g.replace("_", "") for g in m.groups())
            zeros = (len(p) - len(p.rstrip("0")), len(q) - len(q.rstrip("0")))
            if k := min(*zeros, len(p) - 1, len(q) - 1):
                return f"{text[: m.start(1)]}{p[:-k]}/{q[:-k]}{text[m.end(2) :]}"
    return text


def _parse_value(text: str, flag: str, unbounded: bool) -> Optional[Rat]:
    """A rational value, as an int when it is integral, or None for 'sym'.

    Unless unbounded, a numerator or denominator of 2^MAX_VALUE_BITS or more
    is refused, before any work and without building it.  A digit run longer
    than Python's default limit on int-from-text conversion is refused as
    written, once the zeros that leave the value as it is are dropped
    (_without_neutral_zeros): leading zeros do not count either, except
    after a decimal point, where they scale.  The text of a refused run is
    read with every run cut to one digit, only to tell a number from a typo.
    Then m*10^x with m != 0 written in at most len(text) digits has one of
    at least 10^20 once |x| exceeds len(text) + 20, so only the mantissa of
    such a text is read.  No int of more digits than that limit is built, so
    the text is read with the limit lifted.  An error message quotes at most
    the first MAX_ECHO characters of text as given.
    """
    if text == "sym":
        return None
    shown = text if len(text) <= MAX_ECHO else text[:MAX_ECHO] + "..."
    text = _without_neutral_zeros(text)
    runs = re.findall(r"(\.?)([\d_]+)", text)
    digits = max((len(r if dot else r.lstrip("0_")) for dot, r in runs), default=0)
    if long := digits > sys.int_info.default_max_str_digits and not unbounded:
        text = re.sub(r"\d+", "1", text)
    mantissa, _, exponent = text.lower().partition("e")
    try:
        with _int_text_unlimited(True):
            far = "/" not in text and abs(int(exponent or 0)) > len(text) + 20
            far = far and not unbounded
            value = Fraction(mantissa if far else text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} expects a rational number or 'sym', got {shown!r}")
    bits = max(abs(value.numerator), value.denominator).bit_length()
    if long or far and value or bits > MAX_VALUE_BITS and not unbounded:
        raise ValueError(
            f"{flag} {shown} exceeds the bound 2^{MAX_VALUE_BITS} on a numerator "
            "or denominator; pass --unbounded to override"
        )
    return value.numerator if value.denominator == 1 else value


def _check_length_bound(
    n: int, bound: int, unbounded: bool, name: str = "--n"
) -> None:
    if n < 0:
        raise ValueError(f"{name} must be nonnegative")
    if n > bound and not unbounded:
        raise ValueError(
            f"{name} {n} exceeds the bound {bound}; pass --unbounded to override"
        )


def cmd_count(args: argparse.Namespace) -> int:
    variant = Variant(args.variant)
    _check_length_bound(args.n, MAX_COUNT_LEN, args.unbounded)
    if args.end_level is not None and args.end_level < 0:
        raise ValueError("--end-level must be nonnegative")
    table = dp_count(args.n, variant, last_only=True)
    if args.end_level is not None:
        table.entries = {
            k: c for k, c in table.entries.items() if k[1] == args.end_level
        }
    if args.format == "json":
        print(table.to_json())
    else:
        sys.stdout.write(table.to_csv() if args.format == "csv" else table.to_text(" "))
    return OK


@contextlib.contextmanager
def _int_text_unlimited(unbounded: bool) -> Iterator[None]:
    """Under --unbounded, lift Python's limit on the digits of an int turned
    into text, which numbers past the value or order bound can exceed, and
    restore it afterwards."""
    if not unbounded:
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_series(args: argparse.Namespace) -> int:
    variant = Variant(args.variant)
    if args.order is not None:
        order, name = args.order, "--order"
    else:
        order, name = default_order(), "MOTZKIN_ORDER"
    _check_length_bound(order, MAX_SERIES_ORDER, args.unbounded, name)
    u = _parse_value(args.u, "--u", args.unbounded)
    sigma = _parse_value(args.sigma, "--sigma", args.unbounded)
    tau = _parse_value(args.tau, "--tau", args.unbounded)

    def compute(engine: str):
        # numeric values go into both engines; specialize() with no value
        # walks no term, but every answer passes through it, which is where
        # the perfbench tracer counts the terms handed back
        if engine == "dp":
            series = dp_series(order, variant, u, sigma, tau)
        else:
            series = closed_form(variant, order, sigma, tau, u).total
        return series.specialize()

    with _int_text_unlimited(args.unbounded):
        if args.engine != "both":
            series = compute(args.engine)
            print(series.to_json_text() if args.format == "json" else series.to_text())
            return OK
        dp = compute("dp")
        closed = compute("closed")
        differing = [
            power for power in range(order + 1)
            if dp.coefficient(power) != closed.coefficient(power)
        ]
        for power in differing:
            print(
                f"z^{power}: dp {dp.coefficient(power)} "
                f"!= closed {closed.coefficient(power)}"
            )
    if differing:
        print(f"engines differ first at z^{differing[0]}", file=sys.stderr)
        return FAIL
    return OK


_CLASS_FILTERS = {
    "all": {},
    "excursion": {"excursions_only": True},
    "cornerless": {"excursions_only": True, "forbid_ud": True, "forbid_du": True},
    "peakless": {"excursions_only": True, "forbid_ud": True},
    "valleyless": {"excursions_only": True, "forbid_du": True},
}


def cmd_paths(args: argparse.Namespace) -> int:
    variant = Variant(args.variant)
    _check_length_bound(args.n, MAX_PATH_LEN, args.unbounded)
    filters = _CLASS_FILTERS[args.path_class]
    words = enumerate_letters(args.n, variant, allow_large=args.unbounded, **filters)
    if args.count_only:
        print(f"({sum(1 for _ in words)})")
        return OK
    # the search yields the words' letters in sorted order, so each is
    # printed as it comes and none is kept
    count = 0
    for count, letters in enumerate(words, 1):
        print(letters)
    print(f"({count})")
    return OK


def cmd_bargraph(args: argparse.Namespace) -> int:
    if args.path is not None:
        word = PathWord.parse(args.path)
        if not word.letters:
            raise ValueError("the empty path has no bargraph image")
        graph = to_bargraph(word)
        print(f"columns: {graph}")
        print(f"semiperimeter: {graph.semiperimeter}")
    else:
        graph = Bargraph.parse(args.columns)
        semiperimeter = graph.semiperimeter
        # from_bargraph's path has 2 * semiperimeter - width - 2 letters
        length = 2 * semiperimeter - len(graph) - 2
        if length > MAX_BARGRAPH_PATH_LEN:
            raise ValueError(
                f"these columns give a path of {length} letters, over the "
                f"bound {MAX_BARGRAPH_PATH_LEN}"
            )
        word = from_bargraph(graph)
        print(f"path: {word}")
        print(f"semiperimeter: {semiperimeter}")
    return OK


def cmd_check(args: argparse.Namespace) -> int:
    variants = (
        [Variant.PLAIN, Variant.SKEW]
        if args.variant == "both"
        else [Variant(args.variant)]
    )
    # every bound is checked before any suite runs
    sizes = []
    for variant in variants:
        cap = CHECK_MAX_N[variant]
        max_n = args.max_n if args.max_n is not None else cap
        if max_n < 0 or max_n > cap:
            raise ValueError(
                f"--max-n {max_n} out of bounds for {variant.value} (0..{cap})"
            )
        sizes.append((variant, max_n))
    results: list[CheckResult] = []
    for variant, max_n in sizes:
        results.extend(run_checks(variant, max_n))
    for result in results:
        print(result.line())
    return OK if all(r.passed for r in results) else FAIL


def cmd_oeis(args: argparse.Namespace) -> int:
    matches = anchors_for(args.id)
    if not matches:
        known = ", ".join(sorted({a.id for a in ANCHORS if a.id}))
        raise ValueError(f"unknown id {args.id!r}; known ids: {known}")
    if args.terms is not None and args.terms < 1:
        raise ValueError("--terms must be positive")
    if args.terms is not None and args.terms > MAX_OEIS_TERMS:
        raise ValueError(f"--terms {args.terms} exceeds the bound {MAX_OEIS_TERMS}")
    # one b-file per id, however many anchors share it
    fetched = None
    if args.fetch:
        try:
            fetched = fetch_bfile(args.id)
        except (OSError, ValueError) as exc:
            print(
                f"warning: fetch failed ({exc}); comparing embedded terms only",
                file=sys.stderr,
            )
    status = OK
    for anchor in matches:
        count = args.terms or len(anchor.terms)
        if fetched is None:
            reference, tag = anchor.terms, "builtin"
            if count > len(reference):
                raise ValueError(
                    f"only {len(reference)} embedded terms for {args.id}; "
                    "pass --fetch for longer comparisons"
                )
        else:
            start = align_terms(fetched, anchor.terms)
            if start is None:
                print(
                    f"{args.id} ({anchor.label}): embedded prefix not "
                    "found in fetched b-file"
                )
                status = FAIL
                continue
            reference = fetched[start:]
            tag = f"fetched, aligned at index {start}" if start else "fetched"
            if count > len(reference):
                print(
                    f"note: {args.id} ({anchor.label}): compared "
                    f"{len(reference)} of the {count} terms requested, all "
                    "the fetched b-file holds",
                    file=sys.stderr,
                )
                count = len(reference)
        computed = anchor_computed_terms(anchor, count)
        divergence = next(
            (i for i, (a, b) in enumerate(zip(computed, reference)) if a != b),
            None,
        )
        if divergence is None:
            shown = ",".join(str(v) for v in computed)
            print(f"{args.id} ({anchor.label}): match on {shown} [{tag}]")
        else:
            print(
                f"{args.id} ({anchor.label}): first divergence at term "
                f"{divergence}: computed {computed[divergence]}, "
                f"reference {reference[divergence]} [{tag}]"
            )
            status = FAIL
    return status


# ---------------------------------------------------------------------------
# parser


def _count_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=["plain", "skew"], default="plain")
    p.add_argument("--n", type=int, required=True, help="walk length")
    p.add_argument("--end-level", type=int, default=None)
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--unbounded", action="store_true",
                   help=f"allow --n beyond {MAX_COUNT_LEN}")
    p.set_defaults(func=cmd_count)


def _series_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=["plain", "skew"], default="plain")
    p.add_argument("--order", type=int, default=None,
                   help="truncation order (default MOTZKIN_ORDER or 24)")
    p.add_argument("--u", default="sym", help="value for u, or 'sym'")
    p.add_argument("--sigma", default="sym", help="value for sigma, or 'sym'")
    p.add_argument("--tau", default="sym", help="value for tau, or 'sym'")
    p.add_argument("--engine", choices=["dp", "closed", "both"], default="closed")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--unbounded", action="store_true",
                   help=f"allow an order beyond {MAX_SERIES_ORDER}")
    p.set_defaults(func=cmd_series)


def _paths_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=["plain", "skew"], default="plain")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--class", dest="path_class", default="all",
                   choices=sorted(_CLASS_FILTERS),
                   help="all meanders, or excursions filtered by pattern")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--list", action="store_true",
                       help="list matching words (default)")
    group.add_argument("--count-only", action="store_true",
                       help="print only the count footer")
    p.add_argument("--unbounded", action="store_true",
                   help=f"allow --n beyond {MAX_PATH_LEN}")
    p.set_defaults(func=cmd_paths)


def _bargraph_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--path", help="cornerless excursion word")
    group.add_argument("--columns", help="comma-separated column heights")
    p.set_defaults(func=cmd_bargraph)


def _check_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=["plain", "skew", "both"], default="both")
    p.add_argument("--max-n", type=int, default=None,
                   help="cap (plain <= 14, skew <= 12; default = cap)")
    p.set_defaults(func=cmd_check)


def _oeis_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--id", required=True, help="sequence id, e.g. A001006")
    p.add_argument("--terms", type=int, default=None,
                   help="number of terms to compare")
    p.add_argument("--fetch", action="store_true",
                   help="download the b-file for longer comparisons")
    p.set_defaults(func=cmd_oeis)


# each command once: name -> (help, epilog, what adds its arguments and func)
_COMMANDS = {
    "count": ("table of counts by (end level, #UD, #DU)", None, _count_args),
    "series": ("truncated generating function", None, _series_args),
    "paths": ("list walks of a given length", None, _paths_args),
    "bargraph": ("convert between paths and bargraphs", None, _bargraph_args),
    "check": ("run the consistency suites", None, _check_args),
    "oeis": (
        "compare a specialization against a known sequence",
        f"Note: {SIGMA_TAU_NOTE}",
        _oeis_args,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="motzkin",
        description=(
            "Exact counting and generating functions for Motzkin meanders "
            "and excursions, plain and skew, refined by UD and DU factors."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, epilog, add_args) in _COMMANDS.items():
        add_args(sub.add_parser(name, help=summary, epilog=epilog))
    return parser


@functools.cache
def _parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The whole parser, or with a command the one that parses its
    arguments, as the whole parser's subparser for it would.

    Built on the first call, not at import, and kept: parse_args fills a
    fresh namespace from the defaults every time, so calls share nothing.
    """
    if command is None:
        return build_parser()
    import argparse

    _, epilog, add_args = _COMMANDS[command]
    parser = argparse.ArgumentParser(prog=f"motzkin {command}", epilog=epilog)
    add_args(parser)
    return parser


class _Option(NamedTuple):
    """One option as _read_args reads it."""

    dest: str
    switch: bool  # action="store_true": takes no value
    number: bool  # type=int
    choices: Optional[Sequence[object]]
    required: bool
    default: object


class _Group(NamedTuple):
    """A mutually exclusive group as _Spec records it."""

    spec: _Spec
    required: bool
    dests: list[str]

    def add_argument(self, *flags: str, **kw: object) -> None:
        self.dests.append(self.spec.add_argument(*flags, **kw))


# the add_argument keywords _Spec records
_READABLE = {"action", "type", "choices", "default", "required", "dest", "help"}


class _Spec:
    """A command's arguments, recorded by calling its ``_<name>_args`` on
    this in place of a parser: its options by flag, the parser's own
    defaults and the mutually exclusive groups, for _read_args.

    ``readable`` turns False on any argument but one ``--`` flag that
    stores a string or an int or is a store_true switch; _read_args then
    declines every line of the command."""

    def __init__(self) -> None:
        self.options: dict[str, _Option] = {}
        self.defaults: dict[str, object] = {}
        self.groups: list[_Group] = []
        self.readable = True

    def add_argument(self, *flags: str, **kw: object) -> str:
        switch = kw.get("action") == "store_true"
        default = kw.get("default", False if switch else None)
        self.readable &= (
            len(flags) == 1 and flags[0].startswith("--") and kw.keys() <= _READABLE
            and kw.get("action") in (None, "store_true")
            and kw.get("type") in (None, int)
            # argparse runs a string default through its type; _read_args does not
            and not ("type" in kw and isinstance(default, str))
        )
        dest = kw.get("dest") or flags[0].lstrip("-").replace("-", "_")
        self.options[flags[0]] = _Option(
            dest, switch, kw.get("type") is int, kw.get("choices"),
            bool(kw.get("required")), default,
        )
        return dest

    def add_mutually_exclusive_group(self, required: bool = False) -> _Group:
        self.groups.append(_Group(self, required, []))
        return self.groups[-1]

    def set_defaults(self, **defaults: object) -> None:
        self.defaults.update(defaults)


@functools.cache
def _spec(command: str) -> _Spec:
    spec = _Spec()
    _COMMANDS[command][2](spec)
    return spec


def _read_args(command: str, argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """What ``_parser(command).parse_args(argv)`` gives, read without
    argparse, or None for a line outside the subset read here.

    That subset: each option named exactly and at most once, no other
    token; a value as --opt=value, or as --opt value where it does not
    start with "-", and never empty or "--"; a switch with no =value; an
    int in ASCII digits that int() takes; a value among the option's
    choices; every required option given, and one option at most of a
    group, one at least of a required group.  Every other line, help and
    errors included, goes to argparse, which alone writes usage and help.
    """
    spec = _spec(command)
    if not spec.readable:
        return None
    given: dict[str, object] = {}
    tokens = iter(argv)
    for token in tokens:
        flag, eq, value = token.partition("=")
        option = spec.options.get(flag)
        if option is None or option.dest in given:
            return None
        if option.switch:
            if eq:
                return None
            given[option.dest] = True
            continue
        if not eq:
            value = next(tokens, "")
        # argparse reads --opt=-- as an empty list
        if not value or value == "--" or not eq and value[0] == "-":
            return None
        if option.number:
            limit = sys.get_int_max_str_digits()  # 0 for no limit
            if not (value.isascii() and value.isdigit()) or 0 < limit < len(value):
                return None
            value = int(value)
        if option.choices is not None and value not in option.choices:
            return None
        given[option.dest] = value
    for group in spec.groups:
        present = sum(dest in given for dest in group.dests)
        if present > 1 or group.required and not present:
            return None
    options = spec.options.values()
    if any(o.required and o.dest not in given for o in options):
        return None
    return SimpleNamespace(**{o.dest: o.default for o in options} | spec.defaults | given)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    # a well-formed line is read without building a parser or importing
    # argparse; what _read_args declines, argparse parses and reports
    args = _read_args(command, argv[1:]) if command else None
    if args is None:
        try:
            if command:
                # only the named command's parser is built; what it leaves
                # over is reported by the whole parser, as parse_args would
                args, extra = _parser(command).parse_known_args(argv[1:])
                if extra:
                    _parser().error(f"unrecognized arguments: {' '.join(extra)}")
                # argparse reads --opt=-- as an empty list, and no option
                # takes a list
                for flag, option in _spec(command).options.items():
                    if isinstance(getattr(args, option.dest), list):
                        _parser(command).error(f"argument {flag}: expected one argument")
            else:
                args = _parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a reader gone by now is caught below, not at exit
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except BrokenPipeError:
        # the reader closed stdout; what is still buffered goes nowhere, so
        # that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return FAIL
    return status


if __name__ == "__main__":
    sys.exit(main())
