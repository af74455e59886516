"""Brute-force enumeration oracles.

Everything here works directly from the word-level rules (steps, levels,
forbidden adjacencies); none of it knows about the layered automata or the
generating-function pipeline, so it can serve as an independent referee for
both.
"""

from __future__ import annotations

from typing import Iterator

from .paths import Bargraph, PathWord, Step, Variant

MAX_PATH_LEN = 20
MAX_SEMIPERIMETER = 12


class CountTable:
    """Counts of walks keyed by (length, end level, #UD, #DU)."""

    def __init__(
        self, variant: Variant, n_max: int, entries: dict[tuple[int, int, int, int], int]
    ) -> None:
        self.variant = variant
        self.n_max = n_max
        self.entries = entries

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.variant, self.n_max, self.entries) == (
            other.variant, other.n_max, other.entries
        )

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(variant={self.variant!r}, "
                f"n_max={self.n_max!r}, entries={self.entries!r})")

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
        import json  # here, not at the top: only ``count --format json`` needs it

        return json.dumps(self.to_json_rows(), indent=2)

    def to_text(self, sep: str) -> str:
        """A header line, then one line per row, the fields joined by sep."""
        rows = [("n", "j", "ud", "du", "count"), *self.rows()]
        return "".join(sep.join(map(str, row)) + "\n" for row in rows)

    def to_csv(self) -> str:
        return self.to_text(",")

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


def _successors(
    variant: Variant, forbid_ud: bool, forbid_du: bool
) -> dict[str, tuple[tuple[str, int], ...]]:
    """The letters that may follow each last letter ("" before the first),
    with their level changes, in D < H < L < U order: the order of the
    letters as text, so a search that tries them in turn finds the words
    sorted.

    These are the adjacency rules: L only in the skew variant and never next
    to U, and no UD / DU factor when that filter is on.  Whether the level
    stays nonnegative is left to the search.
    """
    alphabet = "DHLU" if variant is Variant.SKEW else "DHU"
    forbidden = {"UL", "LU"}
    if forbid_ud:
        forbidden.add("UD")
    if forbid_du:
        forbidden.add("DU")
    return {
        last: tuple(
            (step, Step(step).delta)
            for step in alphabet
            if last + step not in forbidden
        )
        for last in ("", *alphabet)
    }


def enumerate_paths(
    n: int,
    variant: Variant,
    *,
    forbid_ud: bool = False,
    forbid_du: bool = False,
    excursions_only: bool = False,
    allow_large: bool = False,
) -> Iterator[PathWord]:
    """Yield every valid word of length exactly n, in D < H < L < U order,
    which is the order sorted() puts their texts in.

    The optional filters prune during the search with the same word-level
    rules used everywhere else in this module: forbid_ud / forbid_du drop
    words containing a UD / DU factor, excursions_only keeps only words
    ending at level 0.
    """
    _check_length(n, allow_large)
    return _walk(n, _successors(variant, forbid_ud, forbid_du), excursions_only)


def _walk(
    n: int, successors: dict, excursions_only: bool
) -> Iterator[PathWord]:
    # One depth-first search on an explicit stack of pending prefixes, each
    # with its level.  Children are pushed in reverse so they pop in order;
    # the words themselves are yielded by their parent.
    if n == 0:
        yield PathWord("")
        return
    stack: list[tuple[str, int]] = [("", 0)]
    pop = stack.pop
    push = stack.append
    while stack:
        prefix, level = pop()
        depth = len(prefix)
        # an excursion must be able to walk back down in the steps left
        top = n - depth - 1 if excursions_only else n
        if depth == n - 1:
            for step, delta in successors[prefix[-1:]]:
                if 0 <= level + delta <= top:
                    yield PathWord(prefix + step)
        else:
            for step, delta in reversed(successors[prefix[-1:]]):
                if 0 <= level + delta <= top:
                    push((prefix + step, level + delta))


def count_table(
    n_max: int, variant: Variant, *, allow_large: bool = False
) -> CountTable:
    """Count all valid words of length <= n_max by brute-force search.

    A depth-first search visits every valid word once and adds 1 to its
    slot, applying the word-level rules directly: the level stays
    nonnegative, and the steps that may follow each step are those of
    _successors (L only in the skew variant and never next to U).  The
    counts live in a flat list indexed by the packed key
    (length, level, #UD, #DU); level <= n_max and #UD, #DU <= n_max // 2,
    so each step moves the index by a fixed offset.
    """
    _check_length(n_max, allow_large)
    k = n_max // 2 + 1
    per_level = k * k
    per_length = (n_max + 1) * per_level
    # rows[last][level > 0] holds (index offset, level change, rows[step])
    # for each step that _successors allows after the letter last ("" before
    # the first step), so a move carries the rows that follow it.  Only the
    # level floor and the #UD / #DU counts are added here: no down step
    # leaves level 0, and a UD or DU factor moves the index by k or 1 more.
    factors = {"UD": k, "DU": 1}
    successors = _successors(variant, False, False)
    rows = {last: ([], []) for last in successors}
    for last, row in successors.items():
        for step, delta in row:
            move = (per_length + delta * per_level + factors.get(last + step, 0),
                    delta, rows[step])
            rows[last][1].append(move)
            if delta >= 0:
                rows[last][0].append(move)
    counts = [0] * ((n_max + 1) * per_length)
    penultimate = (n_max - 1) * per_length  # first word of length n_max - 1

    def visit(index: int, level: int, moves: tuple) -> None:
        # count the word at index, whose last letter's rows are moves, and
        # its children: those of length n_max in this frame, the others in
        # their own
        counts[index] += 1
        if index >= penultimate:
            for offset, _, _ in moves[level > 0]:
                counts[index + offset] += 1
            return
        for offset, delta, after in moves[level > 0]:
            visit(index + offset, level + delta, after)

    if n_max == 0:
        counts[0] = 1
    else:
        visit(0, 0, rows[""])
    entries = {}
    for index, count in enumerate(counts):
        if count:
            n, rest = divmod(index, per_length)
            j, rest = divmod(rest, per_level)
            entries[(n, j) + divmod(rest, k)] = count
    return CountTable(variant, n_max, entries)


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
    return _grow(semiperimeter)


def _grow(semiperimeter: int) -> Iterator[Bargraph]:
    # One depth-first search on an explicit stack of pending column
    # prefixes, each with the semiperimeter it uses and its last height.
    # Heights stop at last + semiperimeter - used - 1, whose cost uses up
    # the rest exactly, so no child overshoots.  Every height is >= 1, so
    # the bargraphs skip the height check.
    of = Bargraph._of
    stack: list[tuple[tuple[int, ...], int, int]] = [((), 0, 0)]
    pop = stack.pop
    push = stack.append
    while stack:
        columns, used, last = pop()
        if used == semiperimeter:
            yield of(columns)
        elif used == semiperimeter - 1:
            # only columns no higher than the last one fit
            for h in range(1, last + 1):
                yield of(columns + (h,))
        else:
            for h in range(last + semiperimeter - used - 1, 0, -1):
                push((columns + (h,), used + 1 + max(0, h - last), h))
