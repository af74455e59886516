"""Command line front end: counting, series expansion, path and bargraph
conversion, consistency checking, and comparison against published integer
sequence prefixes.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .automata import dp_count, dp_series
from .oracle import (
    MAX_PATH_LEN,
    MAX_SEMIPERIMETER,
    count_table,
    enumerate_bargraphs,
    enumerate_paths,
)
from .paths import Bargraph, PathWord, Variant, from_bargraph, to_bargraph
from .series import Rat, closed_form, default_order

OK = 0
FAIL = 1
USAGE = 2

CHECK_MAX_N = {Variant.PLAIN: 14, Variant.SKEW: 12}

# `count` runs the DP, whose cost grows polynomially in n (skew n=60 takes
# a few seconds), so it gets its own bound instead of the enumeration cap
MAX_COUNT_LEN = 60

# `bargraph --columns` prints a path whose length grows with the heights,
# not with the argument's size, so that length is bounded before the walk
MAX_BARGRAPH_PATH_LEN = 10**6

OEIS_URL = "https://oeis.org/{id}/b{digits}.txt"
OEIS_TIMEOUT = 10.0

SIGMA_TAU_NOTE = (
    "sigma marks DU factors (valleys) and tau marks UD factors (peaks); "
    "some published attributions use the opposite prose labels, so the "
    "numeric prefixes, not the labels, are what gets verified."
)


# ---------------------------------------------------------------------------
# sequence anchors


@dataclass(frozen=True)
class OeisAnchor:
    """A specialization of the full generating function pinned to a known
    integer sequence prefix.

    ``terms`` holds only published prefix values; longer comparisons go
    through ``--fetch``.
    """

    id: Optional[str]
    label: str
    variant: Variant
    u: Fraction
    sigma: Fraction
    tau: Fraction
    terms: tuple[int, ...]


def _anchor(id, label, variant, u, sigma, tau, terms):
    return OeisAnchor(
        id, label, variant, Fraction(u), Fraction(sigma), Fraction(tau),
        tuple(terms),
    )


ANCHORS: tuple[OeisAnchor, ...] = (
    _anchor("A004148", "valleyless excursions", Variant.PLAIN, 0, 0, 1,
            (1, 1, 2, 4, 8, 17, 37, 82)),
    _anchor("A004148", "peakless excursions", Variant.PLAIN, 0, 1, 0,
            (1, 1, 1, 2, 4, 8, 17, 37)),
    _anchor("A004149", "cornerless excursions", Variant.PLAIN, 0, 0, 0,
            (1, 1, 1, 2, 4, 8, 16, 33)),
    _anchor("A001006", "all excursions", Variant.PLAIN, 0, 1, 1,
            (1, 1, 2, 4, 9, 21, 51, 127, 323)),
    _anchor(None, "valleyless meanders", Variant.PLAIN, 1, 0, 1,
            (1, 2, 5, 12, 29, 71, 175, 434, 1082, 2709, 6807)),
    _anchor("A091964", "peakless meanders", Variant.PLAIN, 1, 1, 0,
            (1, 2, 4, 9, 21, 50, 121, 296, 730, 1812, 4521)),
    _anchor("A308435", "cornerless meanders", Variant.PLAIN, 1, 0, 0,
            (1, 2, 4, 9, 20, 45, 102, 233, 535, 1234, 2857)),
    _anchor("A005773", "all meanders", Variant.PLAIN, 1, 1, 1,
            (1, 2, 5, 13, 35, 96, 267, 750, 2123, 6046, 17303)),
    _anchor("A082582", "skew meanders", Variant.SKEW, 1, 1, 1,
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


@dataclass
class CheckResult:
    name: str
    passed: bool
    compared: int
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{self.name}: {self.compared} compared: {status}"
        if self.detail:
            text += f" ({self.detail})"
        return text


def check_oracle_vs_dp(variant: Variant, max_n: int) -> CheckResult:
    name = f"oracle-vs-dp ({variant.value}, n <= {max_n})"
    oracle_entries = count_table(max_n, variant).entries
    dp_entries = dp_count(max_n, variant).entries
    keys = sorted(set(oracle_entries) | set(dp_entries))
    for key in keys:
        a = oracle_entries.get(key, 0)
        b = dp_entries.get(key, 0)
        if a != b:
            n, j, ud, du = key
            return CheckResult(
                name, False, len(keys),
                f"first mismatch at (n={n}, j={j}, ud={ud}, du={du}): "
                f"oracle={a}, dp={b}",
            )
    return CheckResult(name, True, len(keys))


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
    bargraph) through the bijection."""
    name = f"bijection-round-trip (n <= {max_len})"
    words = 0
    for n in range(max_len + 1):
        for word in enumerate_paths(
            n, Variant.PLAIN,
            forbid_ud=True, forbid_du=True, excursions_only=True,
            allow_large=True,
        ):
            words += 1
            back = from_bargraph_or_empty(to_bargraph(word))
            if back != word:
                return CheckResult(
                    name, False, words,
                    f"word {str(word)!r} round-trips to {str(back)!r}",
                )
    graphs = 0
    for s in range(2, min(max_len, MAX_SEMIPERIMETER) + 1):
        for graph in enumerate_bargraphs(s):
            graphs += 1
            back = to_bargraph(from_bargraph(graph))
            if back != graph:
                return CheckResult(
                    name, False, words + graphs,
                    f"bargraph {graph} round-trips to {back}",
                )
    return CheckResult(
        name, True, words + graphs, f"{words} words, {graphs} bargraphs"
    )


def from_bargraph_or_empty(graph: Bargraph) -> PathWord:
    if not graph.columns:
        return PathWord("")
    return from_bargraph(graph)


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


def _parse_value(text: str, flag: str) -> Optional[Rat]:
    """A rational value, as an int when it is integral, or None for 'sym'."""
    if text == "sym":
        return None
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} expects a rational number or 'sym', got {text!r}")
    return value.numerator if value.denominator == 1 else value


def _check_length_bound(n: int, bound: int, unbounded: bool) -> None:
    if n < 0:
        raise ValueError("--n must be nonnegative")
    if n > bound and not unbounded:
        raise ValueError(
            f"--n {n} exceeds the bound {bound}; pass --unbounded to override"
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
    elif args.format == "csv":
        sys.stdout.write(table.to_csv())
    else:
        print("n j ud du count")
        for row in table.rows():
            print(" ".join(str(x) for x in row))
    return OK


def cmd_series(args: argparse.Namespace) -> int:
    variant = Variant(args.variant)
    order = args.order if args.order is not None else default_order()
    if order < 0:
        raise ValueError("--order must be nonnegative")
    u = _parse_value(args.u, "--u")
    sigma = _parse_value(args.sigma, "--sigma")
    tau = _parse_value(args.tau, "--tau")

    def compute(engine: str):
        # numeric values go into both engines; specialize() with no value
        # walks no term, but every answer passes through it, which is where
        # the perfbench tracer counts the terms handed back
        if engine == "dp":
            series = dp_series(order, variant, u, sigma, tau)
        else:
            series = closed_form(variant, order, sigma, tau, u).total
        return series.specialize()

    if args.engine == "both":
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

    series = compute(args.engine)
    if args.format == "json":
        print(series.to_json_text())
    else:
        print(series.to_text())
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
    words = enumerate_paths(args.n, variant, allow_large=args.unbounded, **filters)
    if args.count_only:
        print(f"({sum(1 for _ in words)})")
        return OK
    texts = sorted(map(str, words))
    for text in texts:
        print(text)
    print(f"({len(texts)})")
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
    status = OK
    for anchor in matches:
        embedded = list(anchor.terms)
        count = args.terms if args.terms is not None else len(embedded)
        if count < 1:
            raise ValueError("--terms must be positive")
        reference = embedded
        provenance = "builtin"
        start = 0
        if args.fetch:
            try:
                fetched = fetch_bfile(args.id)
            except (OSError, ValueError) as exc:
                print(
                    f"warning: fetch failed ({exc}); comparing embedded terms only",
                    file=sys.stderr,
                )
            else:
                aligned = align_terms(fetched, embedded)
                if aligned is None:
                    print(
                        f"{args.id} ({anchor.label}): embedded prefix not "
                        "found in fetched b-file"
                    )
                    status = FAIL
                    continue
                reference = fetched[aligned:]
                provenance = "fetched"
                start = aligned
        if count > len(reference):
            if provenance == "builtin":
                raise ValueError(
                    f"only {len(reference)} embedded terms for {args.id}; "
                    "pass --fetch for longer comparisons"
                )
            count = len(reference)
        computed = anchor_computed_terms(anchor, count)
        expected = reference[:count]
        tag = provenance if start == 0 else f"{provenance}, aligned at index {start}"
        divergence = next(
            (i for i, (a, b) in enumerate(zip(computed, expected)) if a != b),
            None,
        )
        if divergence is None:
            shown = ",".join(str(v) for v in computed)
            print(f"{args.id} ({anchor.label}): match on {shown} [{tag}]")
        else:
            print(
                f"{args.id} ({anchor.label}): first divergence at term "
                f"{divergence}: computed {computed[divergence]}, "
                f"reference {expected[divergence]} [{tag}]"
            )
            status = FAIL
    return status


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motzkin",
        description=(
            "Exact counting and generating functions for Motzkin meanders "
            "and excursions, plain and skew, refined by UD and DU factors."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="table of counts by (end level, #UD, #DU)")
    p.add_argument("--variant", choices=["plain", "skew"], default="plain")
    p.add_argument("--n", type=int, required=True, help="walk length")
    p.add_argument("--end-level", type=int, default=None)
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--unbounded", action="store_true",
                   help=f"allow --n beyond {MAX_COUNT_LEN}")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("series", help="truncated generating function")
    p.add_argument("--variant", choices=["plain", "skew"], default="plain")
    p.add_argument("--order", type=int, default=None,
                   help="truncation order (default MOTZKIN_ORDER or 24)")
    p.add_argument("--u", default="sym", help="value for u, or 'sym'")
    p.add_argument("--sigma", default="sym", help="value for sigma, or 'sym'")
    p.add_argument("--tau", default="sym", help="value for tau, or 'sym'")
    p.add_argument("--engine", choices=["dp", "closed", "both"], default="closed")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("paths", help="list walks of a given length")
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

    p = sub.add_parser("bargraph", help="convert between paths and bargraphs")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--path", help="cornerless excursion word")
    group.add_argument("--columns", help="comma-separated column heights")
    p.set_defaults(func=cmd_bargraph)

    p = sub.add_parser("check", help="run the consistency suites")
    p.add_argument("--variant", choices=["plain", "skew", "both"], default="both")
    p.add_argument("--max-n", type=int, default=None,
                   help="cap (plain <= 14, skew <= 12; default = cap)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "oeis",
        help="compare a specialization against a known sequence",
        epilog=f"Note: {SIGMA_TAU_NOTE}",
    )
    p.add_argument("--id", required=True, help="sequence id, e.g. A001006")
    p.add_argument("--terms", type=int, default=None,
                   help="number of terms to compare")
    p.add_argument("--fetch", action="store_true",
                   help="download the b-file for longer comparisons")
    p.set_defaults(func=cmd_oeis)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import, and kept: parse_args fills a
    # fresh namespace from the defaults every time, so calls share nothing
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
