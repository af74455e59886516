"""Brute-force enumeration oracles.

Everything here works directly from the word-level rules (steps, levels,
forbidden adjacencies); none of it knows about the layered automata or the
generating-function pipeline, so it can serve as an independent referee for
both.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Iterator

from .paths import Bargraph, PathWord, Step, Variant

MAX_PATH_LEN = 20
MAX_SEMIPERIMETER = 12

_PLAIN_STEPS = (Step.U, Step.D, Step.H)
_SKEW_STEPS = (Step.U, Step.D, Step.H, Step.L)


@dataclass
class CountTable:
    """Counts of walks keyed by (length, end level, #UD, #DU)."""

    variant: Variant
    n_max: int
    entries: dict[tuple[int, int, int, int], int]

    def count(self, n: int, j: int, ud: int, du: int) -> int:
        return self.entries.get((n, j, ud, du), 0)

    def total(self, n: int) -> int:
        """All walks of length n."""
        return sum(c for (m, _, _, _), c in self.entries.items() if m == n)

    def excursion_total(self, n: int) -> int:
        """Walks of length n ending at level 0."""
        return sum(
            c for (m, j, _, _), c in self.entries.items() if m == n and j == 0
        )

    def rows(self) -> list[tuple[int, int, int, int, int]]:
        """Sorted (n, j, ud, du, count) rows."""
        return [key + (self.entries[key],) for key in sorted(self.entries)]

    def to_json_rows(self) -> list[dict]:
        return [
            {"n": n, "j": j, "ud": ud, "du": du, "count": str(c)}
            for n, j, ud, du, c in self.rows()
        ]

    def to_json(self) -> str:
        return json.dumps(self.to_json_rows(), indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "j", "ud", "du", "count"])
        writer.writerows(self.rows())
        return buf.getvalue()

    @classmethod
    def from_json_rows(
        cls, variant: Variant, n_max: int, rows: list[dict]
    ) -> "CountTable":
        entries = {
            (row["n"], row["j"], row["ud"], row["du"]): int(row["count"])
            for row in rows
        }
        return cls(variant, n_max, entries)


def _check_length(n: int, allow_large: bool) -> None:
    if n < 0:
        raise ValueError("length must be nonnegative")
    if n > MAX_PATH_LEN and not allow_large:
        raise ValueError(
            f"length {n} exceeds the enumeration bound {MAX_PATH_LEN} "
            "(pass allow_large=True / --unbounded to override)"
        )


def enumerate_paths(
    n: int,
    variant: Variant,
    *,
    forbid_ud: bool = False,
    forbid_du: bool = False,
    excursions_only: bool = False,
    allow_large: bool = False,
) -> Iterator[PathWord]:
    """Yield every valid word of length exactly n, in U < D < H < L order.

    The optional filters prune during the search with the same word-level
    rules used everywhere else in this module: forbid_ud / forbid_du drop
    words containing a UD / DU factor, excursions_only keeps only words
    ending at level 0.
    """
    _check_length(n, allow_large)
    alphabet = _PLAIN_STEPS if variant is Variant.PLAIN else _SKEW_STEPS
    skew = variant is Variant.SKEW
    prefix: list[Step] = []

    def walk(depth: int, level: int) -> Iterator[PathWord]:
        if depth == n:
            yield PathWord(tuple(prefix))
            return
        last = prefix[-1] if prefix else None
        for step in alphabet:
            if step is Step.U:
                if skew and last is Step.L:
                    continue
                if forbid_du and last is Step.D:
                    continue
                new_level = level + 1
            elif step is Step.D:
                if level == 0:
                    continue
                if forbid_ud and last is Step.U:
                    continue
                new_level = level - 1
            elif step is Step.H:
                new_level = level
            else:
                if level == 0 or last is Step.U:
                    continue
                new_level = level - 1
            if excursions_only and new_level > n - depth - 1:
                continue
            prefix.append(step)
            yield from walk(depth + 1, new_level)
            prefix.pop()

    return walk(0, 0)


def count_table(
    n_max: int, variant: Variant, *, allow_large: bool = False
) -> CountTable:
    """Count all valid words of length <= n_max by brute-force search.

    A depth-first search visits every valid word once, applying the
    word-level rules directly: the level stays nonnegative, and L appears
    only in the skew variant and never next to U.  Steps are coded as
    0=U, 1=D, 2=H, 3=L (-1 before the first step).
    """
    _check_length(n_max, allow_large)
    skew = variant is Variant.SKEW
    counts: dict[tuple[int, int, int, int], int] = {}

    def visit(depth: int, level: int, last: int, ud: int, du: int) -> None:
        key = (depth, level, ud, du)
        counts[key] = counts.get(key, 0) + 1
        if depth == n_max:
            return
        if not (skew and last == 3):
            visit(depth + 1, level + 1, 0, ud, du + (last == 1))
        if level > 0:
            visit(depth + 1, level - 1, 1, ud + (last == 0), du)
        visit(depth + 1, level, 2, ud, du)
        if skew and level > 0 and last != 0:
            visit(depth + 1, level - 1, 3, ud, du)

    visit(0, 0, -1, 0, 0)
    return CountTable(variant, n_max, counts)


def enumerate_bargraphs(
    semiperimeter: int, *, allow_large: bool = False
) -> Iterator[Bargraph]:
    """Yield every bargraph of the given semiperimeter, each exactly once.

    Columns are grown left to right; appending a column of height h after one
    of height g costs 1 + max(0, h - g) toward the semiperimeter (the first
    column costs 1 + h), which makes the search prune itself.  Output order
    is lexicographic on the column sequence.
    """
    if semiperimeter < 1:
        raise ValueError("semiperimeter must be positive")
    if semiperimeter > MAX_SEMIPERIMETER and not allow_large:
        raise ValueError(
            f"semiperimeter {semiperimeter} exceeds the bound "
            f"{MAX_SEMIPERIMETER} (pass allow_large=True / --unbounded to "
            "override)"
        )
    columns: list[int] = []

    def grow(used: int, last: int) -> Iterator[Bargraph]:
        if used == semiperimeter and columns:
            yield Bargraph(tuple(columns))
            return
        for h in range(1, last + semiperimeter - used):
            cost = 1 + max(0, h - last)
            if used + cost > semiperimeter:
                continue
            columns.append(h)
            yield from grow(used + cost, h)
            columns.pop()

    return grow(0, 0)
