import random
from fractions import Fraction

from motzkin import _speedups
from motzkin.oracle import Variant, count_table


def pack(eu, es, et):
    return eu | (es << 21) | (et << 42)


def random_terms(rng):
    out = {}
    for _ in range(6):
        key = pack(rng.randrange(4), rng.randrange(4), rng.randrange(4))
        if rng.random() < 0.4:
            out[key] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        else:
            out[key] = rng.randrange(-6, 7)
    return out


def reference_product(a, b):
    """Independent convolution on packed keys; fields never carry here."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = ka + kb
            out[key] = out.get(key, 0) + va * vb
    return _speedups.clean_terms(out)


def test_poly_mul_matches_reference():
    rng = random.Random(24601)
    for _ in range(40):
        a = random_terms(rng)
        b = random_terms(rng)
        assert _speedups.poly_mul(a, b) == reference_product(a, b)


def test_poly_acc_empty_operands():
    acc = {}
    _speedups.poly_acc(acc, {}, {pack(1, 0, 0): 2})
    assert acc == {}
    _speedups.poly_acc(acc, {pack(1, 0, 0): 2}, {})
    assert acc == {}


def test_poly_acc_negate_and_zero_retention():
    key = pack(1, 1, 0)
    acc = {2 * key: 6}
    _speedups.poly_acc(acc, {key: 2}, {key: 3}, negate=True)
    # cancellation leaves an explicit zero; cleanup is the caller's job
    assert acc == {2 * key: 0}
    assert _speedups.clean_terms(acc) == {}


def test_clean_terms():
    key = pack(0, 0, 1)
    dirty = {
        key: Fraction(4, 2),
        key + 1: Fraction(1, 2),
        key + 2: 0,
        key + 3: Fraction(0, 5),
    }
    cleaned = _speedups.clean_terms(dirty)
    assert cleaned == {key: 2, key + 1: Fraction(1, 2)}
    assert type(cleaned[key]) is int
    assert type(cleaned[key + 1]) is Fraction


def test_pure_count_paths_small_values():
    # the brute-force path count lives in oracle.count_table
    table = count_table(4, Variant.PLAIN)
    assert table.count(0, 0, 0, 0) == 1
    assert table.count(2, 0, 1, 0) == 1
    assert table.total(4) == 35
    assert count_table(4, Variant.SKEW).total(4) == 40
