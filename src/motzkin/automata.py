"""Layered automata over lattice path steps, and exact counting with them.

States are (layer, level) pairs.  The layer remembers just enough of the
recent history to spot UD and DU factors (and, in the skew variant, the
forbidden UL / LU adjacencies): whether the walk just went up, just went
down, just slid (L), or anything else.  Each transition carries a
multiplicative weight of 1, sigma, or tau; a walk's weight is the product
along its transitions, so the sigma exponent counts DU factors and the tau
exponent counts UD factors.

The dynamic programming here runs directly on the automaton's moves, so it
is an implementation independent from both the brute-force oracle and the
closed-form series pipeline.  The automaton is one move table, _MOVES:
(layer change, level change, weight) by source layer and step.  A move is
the same at every level, except that down and left steps need level >= 1,
and the sweep makes it at all levels at once.  So the sweep keys its
frontier by (layer, #UD, #DU) and holds the counts of all end levels in
one int, level j's count in the signed slot j at 2^width
(Kronecker substitution, as the closed form packs u): an up step shifts the
int left by width, a down or left step drops slot 0 (the walks at level 0,
which cannot take it) and shifts right, and a horizontal step leaves it as
it is.  The width is series._slot_width's, proven to hold every count, and
the slots are decoded by the series' own signed-slot reader
(series._unpack_slots).  Each reader
adds up the layers it does not report and unpacks once per (#UD, #DU).

A numeric sigma, tau or u goes into the work instead of its exponent:
sigma and tau multiply the counts, scaled by their common denominator
(which ``dp_series`` divides out once per coefficient), and their #DU/#UD
index collapses; u weights slot j by p^j q^(n-j) as it is unpacked.  The
result is the symbolic series with the values substituted, computed on far
fewer entries.  ``dp_series`` results are cached like those of
``closed_form``.
"""

from __future__ import annotations

import enum
import functools
import operator
from typing import Iterator, Optional

from .oracle import CountTable
from .series import (
    _SHIFT,
    CACHE_SIZE,
    Poly,
    Rat,
    Series,
    _slot_width,
    _unpack_slots,
    _unscaled,
    _value_scale,
    require_exact,
)
from .paths import Variant


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

# Every walk starts here: at level 0, with no step to remember.
_START: State = (Layer.AFTER_H, 0)

# The automaton: {(source layer, step): (target layer, level change,
# weight)}.  A move is the same at every level it stays within.
_SKEW_MOVES: dict[tuple[Layer, str], tuple[Layer, int, str]] = {
    (Layer.AFTER_U, "U"): (Layer.AFTER_U, 1, WEIGHT_ONE),
    (Layer.AFTER_H, "U"): (Layer.AFTER_U, 1, WEIGHT_ONE),
    (Layer.AFTER_D, "U"): (Layer.AFTER_U, 1, WEIGHT_SIGMA),
    # no U out of AFTER_L: LU is forbidden
    (Layer.AFTER_U, "D"): (Layer.AFTER_D, -1, WEIGHT_TAU),
    (Layer.AFTER_H, "D"): (Layer.AFTER_D, -1, WEIGHT_ONE),
    (Layer.AFTER_D, "D"): (Layer.AFTER_D, -1, WEIGHT_ONE),
    (Layer.AFTER_L, "D"): (Layer.AFTER_D, -1, WEIGHT_ONE),
    (Layer.AFTER_U, "H"): (Layer.AFTER_H, 0, WEIGHT_ONE),
    (Layer.AFTER_H, "H"): (Layer.AFTER_H, 0, WEIGHT_ONE),
    (Layer.AFTER_D, "H"): (Layer.AFTER_H, 0, WEIGHT_ONE),
    (Layer.AFTER_L, "H"): (Layer.AFTER_H, 0, WEIGHT_ONE),
    # no L out of AFTER_U: UL is forbidden
    (Layer.AFTER_H, "L"): (Layer.AFTER_L, -1, WEIGHT_ONE),
    (Layer.AFTER_D, "L"): (Layer.AFTER_L, -1, WEIGHT_ONE),
    (Layer.AFTER_L, "L"): (Layer.AFTER_L, -1, WEIGHT_ONE),
}
# plain walks take no L step, so they never reach AFTER_L
_MOVES = {
    Variant.SKEW: _SKEW_MOVES,
    Variant.PLAIN: {
        (src, step): move
        for (src, step), move in _SKEW_MOVES.items()
        if step != "L" and src is not Layer.AFTER_L
    },
}


# The sweep keys its frontier by (layer, #UD, #DU), packed into one int as
# layer << 2*bits | ud << bits | du, with the layer's index in Layer and
# bits wide enough for n_max.  The value at a key holds the counts of every
# end level in one int: level j's count is the signed slot j at 2^width
# (see _sweep).
_LAYERS = tuple(Layer)
_LAYER_INDEX = {layer: i for i, layer in enumerate(_LAYERS)}


def _sweep(
    variant: Variant,
    n_max: int,
    sigma: Optional[Rat] = None,
    tau: Optional[Rat] = None,
) -> tuple[int, int, int, Iterator[dict[int, int]]]:
    """Return (bits, width, scale, frontiers) for walks of length 0..n_max.

    frontiers yields, for n = 0..n_max, a dict from packed (layer, #UD, #DU)
    keys (see above) to packed counts: slot j at 2^width holds scale**n
    times the weighted number of walks of length n that end there at level
    j.  A weight left as None is counted by its index (#UD for tau, #DU for
    sigma); a numeric weight multiplies the count instead and leaves its
    index at 0.  scale is the common denominator of the numeric weights
    (series._value_scale, as for the closed form), and every move multiplies
    by its weight times scale, so every count is an int, and the width of
    series._slot_width holds it in a signed slot.

    The moves are read straight from the move table (_MOVES).  An up move
    shifts the slots up by one; a down or left move drops the signed slot 0,
    whose walks at level 0 cannot take it, and shifts the rest down; a
    horizontal move keeps them.  Walks of length n never pass level n, so
    the sweep needs no level cap.  Entries whose slots all cancelled, which
    only a negative weight can cause, are dropped.
    """
    scale = _value_scale(sigma, tau)
    bits = n_max.bit_length()
    width = _slot_width(variant, n_max, scale, sigma, tau)
    # (index delta, multiplier) of a transition, by its weight
    effect = {
        WEIGHT_ONE: (0, scale),
        WEIGHT_TAU: (1 << bits, scale) if tau is None
        else (0, tau.numerator * (scale // tau.denominator)),
        WEIGHT_SIGMA: (1, scale) if sigma is None
        else (0, sigma.numerator * (scale // sigma.denominator)),
    }
    cancels = any(mult < 0 for _, mult in effect.values())
    # per source layer: (key delta, level change + 1, multiplier)
    moves: list[list[tuple[int, int, int]]] = [[] for _ in _LAYERS]
    for (src, _), (dst, shift, weight) in _MOVES[variant].items():
        d_index, mult = effect[weight]
        if mult:
            d_layer = _LAYER_INDEX[dst] - _LAYER_INDEX[src]
            delta = (d_layer << 2 * bits) + d_index
            moves[_LAYER_INDEX[src]].append((delta, shift + 1, mult))
    start_layer, start_level = _START
    half = 1 << width - 1

    def frontiers() -> Iterator[dict[int, int]]:
        layer_shift = 2 * bits
        frontier = {_LAYER_INDEX[start_layer] << layer_shift: 1 << width * start_level}
        yield frontier
        for _ in range(n_max):
            nxt: dict[int, int] = {}
            get = nxt.get
            for key, counts in frontier.items():
                # by level change: down (slot 0 dropped), none, up
                shifted = ((counts + half) >> width, counts, counts << width)
                for delta, level_move, mult in moves[key >> layer_shift]:
                    out = shifted[level_move]
                    if out:
                        key_out = key + delta
                        if mult != 1:
                            out *= mult
                        nxt[key_out] = get(key_out, 0) + out
            frontier = {key: c for key, c in nxt.items() if c} if cancels else nxt
            yield frontier

    return bits, width, scale, frontiers()


def _layers_summed(frontier: dict[int, int], bits: int) -> dict[int, int]:
    """The frontier with its layers added up: {ud << bits | du: counts}."""
    low = (1 << 2 * bits) - 1
    out: dict[int, int] = {}
    get = out.get
    for key, counts in frontier.items():
        key &= low
        out[key] = get(key, 0) + counts
    return out


def _series_terms(entries: dict[int, int], bits: int, width: int) -> dict[int, int]:
    """{packed u^level*s^#DU*t^#UD: count} over the nonzero slots of frontier
    entries (any layer bits above the (#UD, #DU) key are ignored)."""
    mask = (1 << bits) - 1
    # (#UD, #DU) -> s^#DU*t^#UD; u's exponent is the low field of a key, so
    # slot j lands at u^j
    packed = (
        ((key & mask) << _SHIFT | (key >> bits & mask) << 2 * _SHIFT, counts)
        for key, counts in entries.items()
    )
    terms: dict[int, int] = {}
    _unpack_slots(terms, packed, width)
    return terms


def dp_count(n_max: int, variant: Variant, *, last_only: bool = False) -> CountTable:
    """Count walks of each (length, end level, #UD, #DU) with the automaton;
    with last_only, only those of length n_max."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    bits, width, _, frontiers = _sweep(variant, n_max)
    mask = (1 << bits) - 1
    entries: dict[tuple[int, int, int, int], int] = {}
    for n, frontier in enumerate(frontiers):
        if last_only and n < n_max:
            continue
        for key, counts in _layers_summed(frontier, bits).items():
            ud, du = key >> bits, key & mask
            levels: dict[int, int] = {}
            _unpack_slots(levels, ((0, counts),), width)
            for level, c in levels.items():
                entries[n, level, ud, du] = c
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
    specialized at them.  With u = p/q the level-j slot is weighted by
    p^j q^(n-j) as it is unpacked, so coefficient n is all ints until its
    one division by (scale*q)^n.  Results are cached like ``closed_form``.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order >> _SHIFT:  # no exponent exceeds the order
        raise ValueError(f"exponent out of range: order {order}")
    require_exact(u)
    bits, width, scale, frontiers = _sweep(variant, order, sigma, tau)
    mask = (1 << bits) - 1
    # the level stays as u's exponent, or goes into the weight
    p, q = (1, 1) if u is None else (u.numerator, u.denominator)
    coeffs = []
    for n, frontier in enumerate(frontiers):
        summed = _layers_summed(frontier, bits)
        if u is None:
            coeffs.append(_series_terms(summed, bits, width))
            continue
        weights = [p**j * q ** (n - j) for j in range(n + 1)]
        acc = {}
        for key, counts in summed.items():
            levels = [0] * (n + 1)
            _unpack_slots(levels, ((0, counts),), width)
            c = sum(map(operator.mul, levels, weights))
            if c:  # (#UD, #DU) -> s^#DU*t^#UD
                acc[(key & mask) << _SHIFT | (key >> bits) << 2 * _SHIFT] = c
        coeffs.append(acc)
    return _unscaled(coeffs, scale * q)


def layer_series(
    order: int, variant: Variant
) -> dict[Layer, Series]:
    """Per-layer generating functions (walks grouped by their final layer)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    bits, width, _, frontiers = _sweep(variant, order)
    coeffs: list[list[Poly]] = [[] for _ in _LAYERS]
    for frontier in frontiers:
        by_layer: list[dict[int, int]] = [{} for _ in _LAYERS]
        for key, counts in frontier.items():
            by_layer[key >> 2 * bits][key] = counts
        for i, entries in enumerate(by_layer):
            coeffs[i].append(Poly._raw(_series_terms(entries, bits, width)))
    return {layer: Series(coeffs[i], order) for i, layer in enumerate(_LAYERS)}
