"""Path words over the steps U, D, H, L.

A word is a sequence of steps U (up, +1), D (down, -1), H (horizontal, 0) and,
in the skew variant, L (a left-down step, -1).  A word is a *meander* when the
running level never drops below zero, and an *excursion* when it also ends at
level zero.  Skew words must additionally avoid the contiguous factors UL and
LU (the walk may not immediately retrace a step).

Two factor statistics drive everything downstream: the number of UD factors
(peaks) and the number of DU factors (valleys).  Paths with neither factor are
*cornerless*; cornerless excursions correspond to bargraphs by elevating the
path and reading off the column heights, which is implemented here as
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
        return _DELTA[self]


_DELTA = {Step.U: 1, Step.D: -1, Step.H: 0, Step.L: -1}

# The per-step loops below key on the letter or test identity: a dict lookup
# by member, as in ``Step.delta``, calls the Python-level ``Enum.__hash__``.
_LETTER_DELTA = {s._value_: d for s, d in _DELTA.items()}
_U, _D, _H = Step.U, Step.D, Step.H


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
    """An immutable step sequence with lazily cached level data.

    ``end_level`` and ``min_level`` are computed together, in one walk, the
    first time either is read; they do not participate in equality, hashing
    or repr.
    """

    steps: tuple[Step, ...]

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
        for s in self.steps:
            lvl += _LETTER_DELTA[s._value_]
            if lvl < low:
                low = lvl
        return lvl, low

    @classmethod
    def parse(cls, text: str) -> "PathWord":
        """Parse a word from letters, case-insensitively.

        >>> str(PathWord.parse("uhd"))
        'UHD'
        """
        try:
            return cls(tuple(Step(ch) for ch in text.upper()))
        except ValueError:
            raise ValueError(
                f"invalid step letter in {text!r}: expected only U, D, H, L"
            ) from None

    def count(self, step: Step) -> int:
        return self.steps.count(step)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def __str__(self) -> str:
        return "".join([s._value_ for s in self.steps])


def classify(word: PathWord, variant: Variant) -> PathClass:
    """Classify a word as invalid, a meander, or an excursion.

    Plain words may not contain L.  Skew words may not contain the contiguous
    factors UL or LU.  Either way the running level must stay nonnegative.
    """
    if word.min_level < 0:
        return PathClass.INVALID
    steps = word.steps
    if variant is Variant.PLAIN:
        if Step.L in steps:
            return PathClass.INVALID
    else:
        for a, b in zip(steps, steps[1:]):
            if (a is Step.U and b is Step.L) or (a is Step.L and b is Step.U):
                return PathClass.INVALID
    return PathClass.EXCURSION if word.end_level == 0 else PathClass.MEANDER


def pattern_stats(word: PathWord) -> PatternStats:
    """Count UD and DU factors in one pass."""
    ud = 0
    du = 0
    for a, b in zip(word.steps, word.steps[1:]):
        if a is Step.U and b is Step.D:
            ud += 1
        elif a is Step.D and b is Step.U:
            du += 1
    return PatternStats(ud, du)


def is_peakless(word: PathWord) -> bool:
    return pattern_stats(word).ud == 0


def is_valleyless(word: PathWord) -> bool:
    return pattern_stats(word).du == 0


def is_cornerless(word: PathWord) -> bool:
    stats = pattern_stats(word)
    return stats.ud == 0 and stats.du == 0


def elevate(word: PathWord) -> PathWord:
    """Return U + word + D, defined for plain excursions only."""
    if classify(word, Variant.PLAIN) is not PathClass.EXCURSION:
        raise ValueError(f"cannot elevate {str(word)!r}: not a plain excursion")
    return PathWord((Step.U,) + word.steps + (Step.D,))


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

    One pass checks the word too.  A word that is not a plain excursion is
    reported as such before any UD or DU factor it has, as ``classify`` and
    ``pattern_stats`` would report it.
    """
    height = 1
    prev = None
    off_plain = False  # an L step, or a dip below level 0
    corner = False
    cols = []
    for s in word.steps:
        if s is _H:
            cols.append(height)
        elif s is _U:
            if prev is _D:
                corner = True
            height += 1
        elif s is _D:
            if prev is _U:
                corner = True
            height -= 1
            if height < 1:
                off_plain = True
        else:
            off_plain = True
        prev = s
    if off_plain or height != 1:
        raise ValueError(f"{str(word)!r} is not a plain excursion")
    if corner:
        raise ValueError(f"{str(word)!r} is not cornerless (contains UD or DU)")
    return Bargraph(tuple(cols))


def from_bargraph(bargraph: Bargraph) -> PathWord:
    """Map a nonempty bargraph back to its cornerless excursion.

    Walk the bargraph boundary (rise to each column height, one H across the
    top, fall at the end) without the elevation pair: start at height 1 and
    stop there, which drops the leading U and the trailing D.
    """
    if not bargraph.columns:
        raise ValueError("the empty bargraph has no path preimage")
    steps: list[Step] = []
    height = 1
    for h in bargraph.columns:
        if h > height:
            steps += (_U,) * (h - height)
        elif h < height:
            steps += (_D,) * (height - h)
        steps.append(_H)
        height = h
    steps += (_D,) * (height - 1)
    return PathWord(tuple(steps))
