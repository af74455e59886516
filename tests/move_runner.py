"""A word-at-a-time run of the layered automaton's move table.

The DP reads ``automata._MOVES`` at every level at once; this runner takes
one word through it a step at a time, so that tests can hold each move to
the word rules of ``motzkin.paths`` (``classify``, ``pattern_stats``).
"""

from motzkin.automata import _MOVES, _START, WEIGHT_SIGMA, WEIGHT_TAU


def run_moves(variant, letters, cap=None):
    """(end state, sigma exponent, tau exponent) of the walk on letters, or
    None when a step has no move, drops below level 0 or climbs past cap.

    The empty word ends at the start state with weight 1.
    """
    moves = _MOVES[variant]
    (layer, level), sigma_exp, tau_exp = _START, 0, 0
    for step in letters:
        move = moves.get((layer, step))
        if move is None:
            return None
        layer, shift, weight = move
        level += shift
        if level < 0 or cap is not None and level > cap:
            return None
        sigma_exp += weight == WEIGHT_SIGMA
        tau_exp += weight == WEIGHT_TAU
    return (layer, level), sigma_exp, tau_exp
