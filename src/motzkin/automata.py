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
with that value substituted, computed on far fewer entries.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .oracle import CountTable
from .series import Poly, Rat, Series, require_exact
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

    def states(self) -> list[State]:
        seen = {self.start}
        for t in self.transitions:
            seen.add(t.src)
            seen.add(t.dst)
        return sorted(seen, key=lambda s: (s[1], s[0].value))

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
    for step in word:
        t = spec.transition(state, step.value)
        if t is None:
            return RunResult(False, None, 0, 0)
        if t.weight == WEIGHT_SIGMA:
            sig += 1
        elif t.weight == WEIGHT_TAU:
            tau += 1
        state = t.dst
    return RunResult(True, state, sig, tau)


def _sweep(
    variant: Variant,
    n_max: int,
    sigma: Optional[Rat] = None,
    tau: Optional[Rat] = None,
) -> Iterator[tuple[int, dict[tuple[State, int, int], Rat]]]:
    """Yield (n, frontier) for n = 0..n_max.

    The frontier maps (state, #UD, #DU) to the weighted number of walks of
    length n that end there.  A weight left as None is counted by its index
    (#UD for tau, #DU for sigma); a numeric weight multiplies the count
    instead and leaves its index at 0.  Zero counts, which only a negative
    weight can leave by cancellation, are dropped.  Walks of length n never
    exceed level n, so the level cap n_max makes every frontier exact.  The
    recursion iterates over the explicit transition list; the step deltas
    and weights are never re-derived here.
    """
    require_exact(sigma)
    require_exact(tau)
    # (d_ud, d_du, multiplier) of a transition, by its weight
    effect = {
        WEIGHT_ONE: (0, 0, 1),
        WEIGHT_TAU: (1, 0, 1) if tau is None else (0, 0, tau),
        WEIGHT_SIGMA: (0, 1, 1) if sigma is None else (0, 0, sigma),
    }
    cancels = any(mult < 0 for _, _, mult in effect.values())
    spec = build_automaton(variant, n_max)
    moves: dict[State, list[tuple[State, int, int, Rat]]] = {}
    for t in spec.transitions:
        d_ud, d_du, mult = effect[t.weight]
        if mult:
            moves.setdefault(t.src, []).append((t.dst, d_ud, d_du, mult))
    frontier: dict[tuple[State, int, int], Rat] = {(spec.start, 0, 0): 1}
    yield 0, frontier
    for n in range(1, n_max + 1):
        nxt: dict[tuple[State, int, int], Rat] = {}
        for (state, ud, du), c in frontier.items():
            for dst, d_ud, d_du, mult in moves.get(state, ()):
                key = (dst, ud + d_ud, du + d_du)
                nxt[key] = nxt.get(key, 0) + c * mult
        frontier = {key: c for key, c in nxt.items() if c} if cancels else nxt
        yield n, frontier


def dp_count(n_max: int, variant: Variant) -> CountTable:
    """Count walks of each (length, end level, #UD, #DU) with the automaton."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    entries: dict[tuple[int, int, int, int], int] = {}
    for n, frontier in _sweep(variant, n_max):
        for (state, ud, du), c in frontier.items():
            key = (n, state[1], ud, du)
            entries[key] = entries.get(key, 0) + c
    return CountTable(variant, n_max, entries)


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
    specialized at them.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    require_exact(u)
    powers = None if u is None else [u**j for j in range(order + 1)]
    coeffs = []
    for _, frontier in _sweep(variant, order, sigma, tau):
        if powers is None:
            terms = [((j, du, ud), c) for ((_, j), ud, du), c in frontier.items()]
        else:
            terms = [((0, du, ud), c * powers[j])
                     for ((_, j), ud, du), c in frontier.items()]
        coeffs.append(Poly(terms))
    return Series(coeffs, order)


def layer_series(
    order: int, variant: Variant
) -> dict[Layer, Series]:
    """Per-layer generating functions (walks grouped by their final layer)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    buckets: dict[Layer, list[list]] = {
        layer: [[] for _ in range(order + 1)] for layer in Layer
    }
    for n, frontier in _sweep(variant, order):
        for ((layer, level), ud, du), c in frontier.items():
            buckets[layer][n].append(((level, du, ud), c))
    return {
        layer: Series([Poly(terms) for terms in buckets[layer]], order)
        for layer in Layer
    }
