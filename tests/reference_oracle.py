"""The brute-force oracle's searches written the first way: one recursive
generator or call per step.

``motzkin.oracle`` runs the same searches as explicit-stack loops; the tests
hold its word order, bargraph order and count tables to these.  Bounds and
argument checks are left to the library.
"""

from motzkin.paths import Bargraph, PathWord, Step, Variant

_PLAIN_STEPS = (Step.U, Step.D, Step.H)
_SKEW_STEPS = (Step.U, Step.D, Step.H, Step.L)


def enumerate_paths(
    n, variant, *, forbid_ud=False, forbid_du=False, excursions_only=False
):
    """Every valid word of length n, in U < D < H < L order."""
    alphabet = _PLAIN_STEPS if variant is Variant.PLAIN else _SKEW_STEPS
    skew = variant is Variant.SKEW
    prefix = []

    def walk(depth, level):
        if depth == n:
            yield PathWord("".join([step._value_ for step in prefix]))
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


def count_table_entries(n_max, variant):
    """Counts of the valid words of length <= n_max, keyed by
    (length, end level, #UD, #DU); steps coded 0=U, 1=D, 2=H, 3=L."""
    skew = variant is Variant.SKEW
    counts = {}

    def visit(depth, level, last, ud, du):
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
    return counts


def enumerate_bargraphs(semiperimeter):
    """Every bargraph of the given semiperimeter, columns in lexicographic
    order."""
    columns = []

    def grow(used, last):
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
