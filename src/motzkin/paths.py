"""Path words over the steps U, D, H, L.

A word is a string of step letters U (up, +1), D (down, -1), H (horizontal,
0) and, in the skew variant, L (a left-down step, -1).  A word is a *meander*
when the running level never drops below zero, and an *excursion* when it
also ends at level zero.  Skew words must additionally avoid the contiguous
factors UL and LU (the walk may not immediately retrace a step).

Two factor statistics drive everything downstream: the number of UD factors
(peaks) and the number of DU factors (valleys), so every rule on factors is a
substring test on the letters.  Paths with neither factor are *cornerless*;
cornerless excursions correspond to bargraphs by elevating the path and
reading off the column heights, which is implemented here as
``to_bargraph`` / ``from_bargraph``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple


class Step(enum.Enum):
    """A single step; the letter is the serialized form."""

    U = "U"
    D = "D"
    H = "H"
    L = "L"

    @property
    def delta(self) -> int:
        """Level change contributed by this step."""
        return _DELTA[self._value_]


_DELTA = {"U": 1, "D": -1, "H": 0, "L": -1}


class Variant(enum.Enum):
    """Which step alphabet and adjacency rules apply."""

    PLAIN = "plain"
    SKEW = "skew"


class PathClass(enum.Enum):
    INVALID = "invalid"
    MEANDER = "meander"
    EXCURSION = "excursion"


class PatternStats(NamedTuple):
    """Counts of the two marked factors."""

    ud: int
    du: int


@dataclass(frozen=True)
class PathWord:
    """An immutable word of step letters with lazily cached level data.

    ``end_level`` and ``min_level`` are computed together, in one walk, the
    first time either is read; they do not participate in equality, hashing
    or repr.
    """

    letters: str

    @property
    def steps(self) -> tuple[Step, ...]:
        """The letters as Step members (each letter is its member's name)."""
        return tuple(map(Step.__members__.__getitem__, self.letters))

    @property
    def end_level(self) -> int:
        """The level after the last step."""
        return self._levels[0]

    @property
    def min_level(self) -> int:
        """The lowest level reached, counting the start at 0."""
        return self._levels[1]

    @cached_property
    def _levels(self) -> tuple[int, int]:
        lvl = 0
        low = 0
        for ch in self.letters:
            lvl += _DELTA[ch]
            if lvl < low:
                low = lvl
        return lvl, low

    @classmethod
    def parse(cls, text: str) -> "PathWord":
        """Parse a word from letters, case-insensitively.

        >>> str(PathWord.parse("uhd"))
        'UHD'
        """
        letters = text.upper()
        if not _DELTA.keys() >= set(letters):
            raise ValueError(
                f"invalid step letter in {text!r}: expected only U, D, H, L"
            )
        return cls(letters)

    def count(self, step: Step) -> int:
        return self.letters.count(step.value)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def __str__(self) -> str:
        return self.letters


def classify(word: PathWord, variant: Variant) -> PathClass:
    """Classify a word as invalid, a meander, or an excursion.

    Plain words may not contain L.  Skew words may not contain the contiguous
    factors UL or LU.  Either way the running level must stay nonnegative.
    """
    w = word.letters
    if variant is Variant.PLAIN:
        off_rules = "L" in w
    else:
        off_rules = "UL" in w or "LU" in w
    if off_rules or word.min_level < 0:
        return PathClass.INVALID
    return PathClass.EXCURSION if word.end_level == 0 else PathClass.MEANDER


def pattern_stats(word: PathWord) -> PatternStats:
    """Count UD and DU factors; neither overlaps itself."""
    return PatternStats(word.letters.count("UD"), word.letters.count("DU"))


def is_peakless(word: PathWord) -> bool:
    return "UD" not in word.letters


def is_valleyless(word: PathWord) -> bool:
    return "DU" not in word.letters


def is_cornerless(word: PathWord) -> bool:
    return "UD" not in word.letters and "DU" not in word.letters


def elevate(word: PathWord) -> PathWord:
    """Return U + word + D, defined for plain excursions only."""
    if classify(word, Variant.PLAIN) is not PathClass.EXCURSION:
        raise ValueError(f"cannot elevate {str(word)!r}: not a plain excursion")
    return PathWord("U" + word.letters + "D")


@dataclass(frozen=True)
class Bargraph:
    """A column-height sequence; every height is at least 1.

    The semiperimeter of the enclosing lattice polygon is
    width + first height + sum of the positive height rises, and 0 for the
    empty bargraph.
    """

    columns: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.columns and min(self.columns) < 1:
            raise ValueError(f"column heights must be >= 1, got {self.columns}")

    @classmethod
    def _of(cls, columns: tuple[int, ...]) -> "Bargraph":
        """A bargraph built without the height check, for callers whose
        heights are >= 1 by construction: the oracle's search and the walk
        of ``to_bargraph``.  Every other construction goes through
        ``Bargraph(...)``, which checks."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "columns", columns)
        return graph

    @property
    def semiperimeter(self) -> int:
        if not self.columns:
            return 0
        rises = sum(
            max(0, b - a) for a, b in zip(self.columns, self.columns[1:])
        )
        return len(self.columns) + self.columns[0] + rises

    @classmethod
    def parse(cls, text: str) -> "Bargraph":
        """Parse comma-separated heights, e.g. ``"2,1,3"``."""
        text = text.strip()
        if not text:
            return cls(())
        try:
            return cls(tuple(int(part) for part in text.split(",")))
        except ValueError as exc:
            raise ValueError(f"bad bargraph spec {text!r}: {exc}") from None

    def __len__(self) -> int:
        return len(self.columns)

    def __str__(self) -> str:
        return ",".join(str(h) for h in self.columns)


def to_bargraph(word: PathWord) -> Bargraph:
    """Map a cornerless excursion to its bargraph.

    Elevate the word to U + word + D and record the height at each H step of
    the elevated walk; those heights are the columns.  The empty word maps to
    the empty bargraph.

    The walk checks the word too.  A word that is not a plain excursion is
    reported as such before any UD or DU factor it has, as ``classify`` and
    ``pattern_stats`` would report it.
    """
    height = 1
    cols = []
    for ch in word.letters:
        if ch == "H":
            cols.append(height)
        elif ch == "U":
            height += 1
        elif ch == "D" and height > 1:
            height -= 1
        else:  # an L step, or a dip below level 0
            height = 0
            break
    if height != 1:
        raise ValueError(f"{str(word)!r} is not a plain excursion")
    if not is_cornerless(word):
        raise ValueError(f"{str(word)!r} is not cornerless (contains UD or DU)")
    # a height is recorded only while it is >= 1
    return Bargraph._of(tuple(cols))


def from_bargraph(bargraph: Bargraph) -> PathWord:
    """Map a nonempty bargraph back to its cornerless excursion.

    Walk the bargraph boundary (rise to each column height, one H across the
    top, fall at the end) without the elevation pair: start at height 1 and
    stop there, which drops the leading U and the trailing D.
    """
    if not bargraph.columns:
        raise ValueError("the empty bargraph has no path preimage")
    runs = []  # the rise or fall to each column, then back down to 1
    height = 1
    for h in bargraph.columns:
        runs.append("U" * (h - height) if h >= height else "D" * (height - h))
        height = h
    runs.append("D" * (height - 1))
    return PathWord("H".join(runs))
