"""Layered automata over lattice path steps, and exact counting with them.

States are (layer, level) pairs.  The layer remembers just enough of the
recent history to spot UD and DU factors (and, in the skew variant, the
forbidden UL / LU adjacencies): whether the walk just went up, just went
down, just slid (L), or anything else.  Each transition carries a
multiplicative weight of 1, sigma, or tau; a walk's weight is the product
along its transitions, so the sigma exponent counts DU factors and the tau
exponent counts UD factors.

The dynamic programming here runs directly on the transition tables, so it
is an implementation independent from both the brute-force oracle and the
closed-form series pipeline.  A numeric sigma, tau or u goes into the sweep
instead of its exponent: the counts are multiplied by the value, the
#DU/#UD (or level) index collapses, and the result is the symbolic series
with that value substituted, computed on far fewer entries.  The sweep runs
on ints: its keys pack (state, #UD, #DU) into one int, and numeric sigma
and tau are scaled by their common denominator, which ``dp_series`` divides
out once per coefficient.  ``dp_series`` results are cached like those of
``closed_form``.
"""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from .oracle import CountTable
from ._speedups import clean_terms
from .series import _EXP_LIMIT, _SHIFT, CACHE_SIZE, Poly, Rat, Series, require_exact
from .paths import PathWord, Variant


class Layer(enum.Enum):
    AFTER_U = "after_u"
    AFTER_H = "after_h_or_start"
    AFTER_D = "after_d"
    AFTER_L = "after_l"

    def __str__(self) -> str:
        return self.value


State = tuple[Layer, int]

WEIGHT_ONE = "1"
WEIGHT_SIGMA = "sigma"
WEIGHT_TAU = "tau"


@dataclass(frozen=True)
class Transition:
    src: State
    step: str
    dst: State
    weight: str = WEIGHT_ONE


@dataclass(frozen=True)
class AutomatonSpec:
    """A finite slice (levels 0..level_cap) of the layered automaton."""

    variant: Variant
    level_cap: int
    transitions: tuple[Transition, ...]
    start: State = (Layer.AFTER_H, 0)
    _lookup: dict[tuple[State, str], Transition] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        lookup = {}
        for t in self.transitions:
            key = (t.src, t.step)
            if key in lookup:
                raise ValueError(f"nondeterministic transition on {key}")
            lookup[key] = t
        object.__setattr__(self, "_lookup", lookup)

    def transition(self, src: State, step: str) -> Optional[Transition]:
        return self._lookup.get((src, step))

    def to_json(self) -> str:
        return json.dumps(
            {
                "variant": self.variant.value,
                "level_cap": self.level_cap,
                "start": [str(self.start[0]), self.start[1]],
                "transitions": [
                    {
                        "src": [str(t.src[0]), t.src[1]],
                        "step": t.step,
                        "dst": [str(t.dst[0]), t.dst[1]],
                        "weight": t.weight,
                    }
                    for t in self.transitions
                ],
            },
            indent=2,
        )


def build_automaton(variant: Variant, level_cap: int) -> AutomatonSpec:
    """Build the transition table for levels 0..level_cap.

    Up steps from level_cap are omitted, so the slice exactly recognizes the
    walks that never climb above level_cap.
    """
    if level_cap < 0:
        raise ValueError("level_cap must be nonnegative")
    f, g, h, k = Layer.AFTER_U, Layer.AFTER_H, Layer.AFTER_D, Layer.AFTER_L
    ts: list[Transition] = []
    skew = variant is Variant.SKEW
    for level in range(level_cap + 1):
        if level < level_cap:
            ts.append(Transition((f, level), "U", (f, level + 1)))
            ts.append(Transition((g, level), "U", (f, level + 1)))
            ts.append(Transition((h, level), "U", (f, level + 1), WEIGHT_SIGMA))
            # no U out of AFTER_L: LU is forbidden
        if level > 0:
            ts.append(Transition((f, level), "D", (h, level - 1), WEIGHT_TAU))
            ts.append(Transition((g, level), "D", (h, level - 1)))
            ts.append(Transition((h, level), "D", (h, level - 1)))
            if skew:
                ts.append(Transition((k, level), "D", (h, level - 1)))
        ts.append(Transition((f, level), "H", (g, level)))
        ts.append(Transition((g, level), "H", (g, level)))
        ts.append(Transition((h, level), "H", (g, level)))
        if skew:
            ts.append(Transition((k, level), "H", (g, level)))
            if level > 0:
                # no L out of AFTER_U: UL is forbidden
                ts.append(Transition((g, level), "L", (k, level - 1)))
                ts.append(Transition((h, level), "L", (k, level - 1)))
                ts.append(Transition((k, level), "L", (k, level - 1)))
    return AutomatonSpec(variant, level_cap, tuple(ts))


@dataclass(frozen=True)
class RunResult:
    accepted: bool
    end: Optional[State]
    sigma_exp: int
    tau_exp: int


def run(spec: AutomatonSpec, word: PathWord | str) -> RunResult:
    """Run the automaton on a word, tracking the weight exponents.

    The empty word is accepted at the start state with weight 1.  A missing
    transition (invalid word, or one climbing past the level cap) rejects.
    """
    if isinstance(word, str):
        word = PathWord.parse(word)
    state = spec.start
    sig = tau = 0
    for letter in word.letters:
        t = spec.transition(state, letter)
        if t is None:
            return RunResult(False, None, 0, 0)
        if t.weight == WEIGHT_SIGMA:
            sig += 1
        elif t.weight == WEIGHT_TAU:
            tau += 1
        state = t.dst
    return RunResult(True, state, sig, tau)


# The sweep numbers a state (layer, level) as level*4 + the layer's index
# in Layer, and packs (state, #UD, #DU) into one int key,
# state << 2*bits | ud << bits | du, with bits wide enough for n_max.
_LAYERS = tuple(Layer)
_LAYER_INDEX = {layer: i for i, layer in enumerate(_LAYERS)}


def _state_index(state: State) -> int:
    layer, level = state
    return level * 4 + _LAYER_INDEX[layer]


def _sweep(
    variant: Variant,
    n_max: int,
    sigma: Optional[Rat] = None,
    tau: Optional[Rat] = None,
) -> tuple[int, int, Iterator[dict[int, int]]]:
    """Return (bits, scale, frontiers) for walks of length 0..n_max.

    frontiers yields, for n = 0..n_max, a dict from packed (state, #UD, #DU)
    keys (see above) to scale**n times the weighted number of walks of
    length n that end there.  A weight left as None is counted by its index
    (#UD for tau, #DU for sigma); a numeric weight multiplies the count
    instead and leaves its index at 0.  scale is the common denominator of
    the numeric weights, and every move multiplies by its weight times
    scale, so every count is an int.  Zero counts, which only a negative
    weight can leave by cancellation, are dropped.  Walks of length n never
    exceed level n, so the level cap n_max makes every frontier exact.  The
    moves come from the explicit transition list; the step deltas and
    weights are never re-derived here.
    """
    require_exact(sigma)
    require_exact(tau)
    scale = math.lcm(*(v.denominator for v in (sigma, tau) if v is not None))
    bits = n_max.bit_length()
    # (index delta, multiplier) of a transition, by its weight
    effect = {
        WEIGHT_ONE: (0, scale),
        WEIGHT_TAU: (1 << bits, scale) if tau is None
        else (0, tau.numerator * (scale // tau.denominator)),
        WEIGHT_SIGMA: (1, scale) if sigma is None
        else (0, sigma.numerator * (scale // sigma.denominator)),
    }
    cancels = any(mult < 0 for _, mult in effect.values())
    spec = build_automaton(variant, n_max)
    moves: list[list[tuple[int, int]]] = [[] for _ in range(4 * (n_max + 1))]
    for t in spec.transitions:
        d_index, mult = effect[t.weight]
        if mult:
            src = _state_index(t.src)
            delta = ((_state_index(t.dst) - src) << (2 * bits)) + d_index
            moves[src].append((delta, mult))
    start = _state_index(spec.start) << (2 * bits)

    def frontiers() -> Iterator[dict[int, int]]:
        shift = 2 * bits
        frontier = {start: 1}
        yield frontier
        for _ in range(n_max):
            nxt: dict[int, int] = {}
            get = nxt.get
            for key, c in frontier.items():
                for delta, mult in moves[key >> shift]:
                    key_out = key + delta
                    nxt[key_out] = get(key_out, 0) + c * mult
            frontier = {key: c for key, c in nxt.items() if c} if cancels else nxt
            yield frontier

    return bits, scale, frontiers()


def dp_count(n_max: int, variant: Variant, *, last_only: bool = False) -> CountTable:
    """Count walks of each (length, end level, #UD, #DU) with the automaton;
    with last_only, only those of length n_max."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    bits, _, frontiers = _sweep(variant, n_max)
    mask = (1 << bits) - 1
    entries: dict[tuple[int, int, int, int], int] = {}
    for n, frontier in enumerate(frontiers):
        if last_only and n < n_max:
            continue
        for key, c in frontier.items():
            entry = (n, key >> (2 * bits + 2), (key >> bits) & mask, key & mask)
            entries[entry] = entries.get(entry, 0) + c
    return CountTable(variant, n_max, entries)


@functools.lru_cache(maxsize=CACHE_SIZE, typed=True)
def dp_series(
    order: int,
    variant: Variant,
    u: Optional[Rat] = None,
    sigma: Optional[Rat] = None,
    tau: Optional[Rat] = None,
) -> Series:
    """The full generating function, as a series to the given order.

    The z-degree-n coefficient is the polynomial summing u^j sigma^du tau^ud
    over all valid length-n walks ending at level j with du DU factors and
    ud UD factors.  Numeric u, sigma or tau (int or Fraction) are
    substituted during the sweep: the result equals the symbolic series
    specialized at them.  With u = p/q the level-j count enters as
    p^j q^(n-j), so coefficient n is all ints until its one division by
    (scale*q)^n.  Results are cached like ``closed_form``.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order >= _EXP_LIMIT:  # no exponent exceeds the order
        raise ValueError(f"exponent out of range: order {order}")
    require_exact(u)
    bits, scale, frontiers = _sweep(variant, order, sigma, tau)
    mask, level_shift = (1 << bits) - 1, 2 * bits + 2
    # the level stays in the key as u's exponent, or goes into the weight
    p, q, keep = (1, 1, -1) if u is None else (u.numerator, u.denominator, 0)
    coeffs = []
    for n, frontier in enumerate(frontiers):
        weights = [p**j * q ** (n - j) for j in range(n + 1)]
        acc: dict[int, int] = {}
        for key, c in frontier.items():
            level = key >> level_shift  # (state, #UD, #DU) -> u^level*s^#DU*t^#UD
            packed = (key & mask) << _SHIFT | (key >> bits & mask) << 2 * _SHIFT
            packed |= level & keep
            acc[packed] = acc.get(packed, 0) + c * weights[level]
        denom = (scale * q) ** n
        if denom != 1:
            acc = {key: Fraction(c, denom) for key, c in acc.items()}
        coeffs.append(Poly._raw(clean_terms(acc)))
    return Series(coeffs, order)


def layer_series(
    order: int, variant: Variant
) -> dict[Layer, Series]:
    """Per-layer generating functions (walks grouped by their final layer)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    bits, _, frontiers = _sweep(variant, order)
    mask = (1 << bits) - 1
    buckets = [[[] for _ in range(order + 1)] for _ in _LAYERS]
    for n, frontier in enumerate(frontiers):
        for key, c in frontier.items():
            state = key >> (2 * bits)
            buckets[state & 3][n].append(
                ((state >> 2, key & mask, (key >> bits) & mask), c)
            )
    return {
        layer: Series([Poly(terms) for terms in buckets[i]], order)
        for i, layer in enumerate(_LAYERS)
    }
