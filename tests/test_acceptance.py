"""Acceptance gate: the eight end-to-end criteria for this package.

Each test prints exactly one line, "criterion N: PASS - ..." or
"criterion N: FAIL - ...", so the whole gate reads as a checklist under
``pytest tests/test_acceptance.py -v -s``.  Every comparison is exact
(integers and fractions); there are no tolerances anywhere.
"""

import functools
import random
from fractions import Fraction

from motzkin.automata import dp_count, dp_series
from motzkin.oracle import count_table, enumerate_bargraphs, enumerate_paths
from motzkin.paths import (
    Variant,
    from_bargraph,
    pattern_stats,
    to_bargraph,
)
from motzkin.series import (
    Poly,
    Series,
    boundary_values,
    closed_form,
    kernel_r2,
    kernel_w,
    kernel_zr1,
)
from paper_forms import plain_printed_boundary_identities


def criterion(number: int, description: str):
    def wrap(fn):
        @functools.wraps(fn)
        def inner():
            try:
                fn()
            except BaseException:
                print(f"criterion {number}: FAIL - {description}")
                raise
            print(f"criterion {number}: PASS - {description}")

        return inner

    return wrap


def poly(d, specialized=False):
    if specialized:
        return Poly([((0, es, et), c) for (es, et), c in d.items()])
    return Poly([(key, c) for key, c in d.items()])


# ---------------------------------------------------------------------------
# golden displays: trivariate coefficients of the plain grand total, z^0..z^7,
# keyed (e_u, e_s, e_t)

PLAIN_TRIVARIATE = {
    0: {(0, 0, 0): 1},
    1: {(0, 0, 0): 1, (1, 0, 0): 1},
    2: {(2, 0, 0): 1, (1, 0, 0): 2, (0, 0, 1): 1, (0, 0, 0): 1},
    3: {
        (0, 0, 0): 2, (1, 1, 1): 1, (3, 0, 0): 1, (1, 0, 1): 1,
        (1, 0, 0): 3, (0, 0, 1): 2, (2, 0, 0): 3,
    },
    4: {
        (0, 0, 0): 4, (2, 1, 1): 2, (1, 1, 1): 2, (3, 0, 0): 4,
        (4, 0, 0): 1, (2, 0, 1): 1, (1, 0, 1): 4, (1, 1, 0): 1,
        (0, 1, 2): 1, (1, 0, 0): 5, (0, 0, 1): 4, (2, 0, 0): 6,
    },
    5: {
        (0, 0, 0): 8, (2, 1, 1): 6, (1, 1, 1): 4, (1, 1, 2): 2,
        (1, 2, 2): 1, (3, 0, 0): 10, (4, 0, 0): 5, (2, 0, 1): 6,
        (2, 1, 0): 2, (3, 0, 1): 1, (1, 0, 1): 10, (0, 1, 1): 2,
        (1, 1, 0): 3, (5, 0, 0): 1, (0, 1, 2): 2, (3, 1, 1): 3,
        (1, 0, 0): 10, (0, 0, 1): 8, (2, 0, 0): 11, (0, 0, 2): 1,
    },
    6: {
        (0, 0, 0): 16, (2, 1, 1): 14, (1, 2, 1): 2, (1, 1, 1): 12,
        (1, 1, 2): 8, (1, 2, 2): 2, (3, 0, 0): 21, (0, 1, 0): 1,
        (4, 0, 0): 15, (2, 0, 1): 19, (2, 1, 0): 8, (3, 0, 1): 8,
        (2, 2, 2): 3, (1, 0, 2): 2, (1, 0, 1): 22, (0, 1, 1): 6,
        (4, 0, 1): 1, (3, 1, 0): 3, (1, 1, 0): 7, (0, 2, 3): 1,
        (5, 0, 0): 6, (6, 0, 0): 1, (0, 1, 2): 6, (3, 1, 1): 12,
        (4, 1, 1): 4, (2, 1, 2): 3, (1, 0, 0): 21, (0, 0, 1): 18,
        (2, 0, 0): 22, (0, 0, 2): 3,
    },
    7: {
        (0, 0, 0): 33, (2, 1, 1): 36, (1, 2, 1): 6, (1, 1, 1): 36,
        (1, 1, 2): 23, (1, 2, 2): 6, (2, 2, 1): 6, (3, 0, 0): 44,
        (0, 1, 0): 4, (4, 0, 0): 36, (0, 1, 3): 2, (2, 0, 1): 48,
        (2, 1, 0): 22, (1, 2, 0): 1, (4, 1, 0): 4, (3, 0, 1): 31,
        (2, 2, 2): 9, (1, 0, 2): 9, (1, 0, 1): 50, (0, 1, 1): 18,
        (4, 0, 1): 10, (2, 0, 2): 3, (5, 0, 1): 1, (3, 1, 0): 15,
        (1, 1, 0): 17, (0, 2, 3): 2, (5, 0, 0): 21, (6, 0, 0): 7,
        (7, 0, 0): 1, (1, 2, 3): 3, (3, 1, 2): 4, (0, 1, 2): 16,
        (0, 2, 2): 3, (3, 1, 1): 33, (4, 1, 1): 20, (1, 3, 3): 1,
        (2, 1, 2): 18, (5, 1, 1): 5, (3, 2, 2): 6, (1, 0, 0): 44,
        (0, 0, 1): 40, (2, 0, 0): 47, (0, 0, 2): 9,
    },
}

# the u=0 (excursion) and u=1 (meander) specializations, keyed (e_s, e_t)

PLAIN_U0 = {
    0: {(0, 0): 1},
    1: {(0, 0): 1},
    2: {(0, 0): 1, (0, 1): 1},
    3: {(0, 0): 2, (0, 1): 2},
    4: {(0, 0): 4, (1, 2): 1, (0, 1): 4},
    5: {(0, 0): 8, (1, 1): 2, (1, 2): 2, (0, 1): 8, (0, 2): 1},
    6: {
        (0, 0): 16, (1, 0): 1, (1, 1): 6, (2, 3): 1, (1, 2): 6,
        (0, 1): 18, (0, 2): 3,
    },
    7: {
        (0, 0): 33, (1, 0): 4, (1, 3): 2, (1, 1): 18, (2, 3): 2,
        (1, 2): 16, (2, 2): 3, (0, 1): 40, (0, 2): 9,
    },
}

PLAIN_U1 = {
    0: {(0, 0): 1},
    1: {(0, 0): 2},
    2: {(0, 0): 4, (0, 1): 1},
    3: {(1, 1): 1, (0, 0): 9, (0, 1): 3},
    4: {(1, 0): 1, (0, 1): 9, (0, 0): 20, (1, 1): 4, (1, 2): 1},
    5: {
        (0, 1): 25, (1, 0): 5, (1, 2): 4, (1, 1): 15, (0, 0): 45,
        (0, 2): 1, (2, 2): 1,
    },
    6: {
        (0, 1): 68, (1, 0): 19, (1, 2): 17, (0, 2): 5, (1, 1): 48,
        (0, 0): 102, (2, 2): 5, (2, 1): 2, (2, 3): 1,
    },
    7: {
        (0, 0): 233, (1, 1): 148, (0, 1): 180, (0, 2): 21, (2, 0): 1,
        (2, 2): 24, (1, 2): 61, (2, 1): 12, (1, 0): 62, (3, 3): 1,
        (2, 3): 5, (1, 3): 2,
    },
}

# skew totals at u=0 (returning walks) and u=1 (all walks), keyed (e_s, e_t)

SKEW_RETURNING = {
    0: {(0, 0): 1},
    1: {(0, 0): 1},
    2: {(0, 1): 1, (0, 0): 1},
    3: {(0, 0): 3, (0, 1): 2},
    4: {(1, 2): 1, (0, 0): 7, (0, 1): 5},
    5: {(0, 2): 1, (1, 1): 3, (1, 2): 2, (0, 0): 17, (0, 1): 12},
    6: {
        (1, 0): 2, (0, 2): 3, (1, 1): 9, (1, 2): 8, (2, 3): 1,
        (0, 0): 41, (0, 1): 33,
    },
    7: {
        (1, 0): 8, (0, 2): 12, (1, 1): 34, (1, 2): 24, (2, 3): 2,
        (1, 3): 2, (2, 2): 4, (0, 0): 103, (0, 1): 86,
    },
    8: {
        (1, 0): 32, (0, 2): 40, (1, 1): 110, (1, 2): 83, (2, 3): 12,
        (1, 3): 6, (2, 2): 12, (2, 1): 5, (0, 3): 1, (3, 4): 1,
        (0, 0): 259, (0, 1): 233,
    },
}

SKEW_OPEN = {
    0: {(0, 0): 1},
    1: {(0, 0): 2},
    2: {(0, 0): 4, (0, 1): 1},
    3: {(0, 1): 3, (1, 1): 1, (0, 0): 10},
    4: {(0, 0): 24, (1, 1): 4, (0, 1): 10, (1, 2): 1, (1, 0): 1},
    5: {
        (1, 1): 16, (1, 0): 5, (0, 1): 30, (0, 0): 60, (1, 2): 4,
        (0, 2): 1, (2, 2): 1,
    },
    6: {
        (2, 2): 5, (1, 1): 53, (0, 0): 152, (1, 0): 21, (0, 2): 5,
        (0, 1): 90, (1, 2): 19, (2, 1): 2, (2, 3): 1,
    },
    7: {
        (0, 0): 392, (3, 3): 1, (2, 3): 5, (1, 3): 2, (0, 2): 24,
        (2, 1): 12, (1, 0): 75, (2, 0): 1, (1, 2): 72, (2, 2): 25,
        (1, 1): 178, (0, 1): 262,
    },
}

# the eight printed univariate prefixes: (u, sigma, tau) -> terms

UNIVARIATE_PREFIXES = {
    (0, 0, 1): (1, 1, 2, 4, 8, 17, 37, 82),
    (0, 1, 0): (1, 1, 1, 2, 4, 8, 17, 37),
    (0, 0, 0): (1, 1, 1, 2, 4, 8, 16, 33),
    (0, 1, 1): (1, 1, 2, 4, 9, 21, 51, 127, 323),
    (1, 0, 1): (1, 2, 5, 12, 29, 71, 175, 434, 1082, 2709, 6807),
    (1, 1, 0): (1, 2, 4, 9, 21, 50, 121, 296, 730, 1812, 4521),
    (1, 0, 0): (1, 2, 4, 9, 20, 45, 102, 233, 535, 1234, 2857),
    (1, 1, 1): (1, 2, 5, 13, 35, 96, 267, 750, 2123, 6046, 17303),
}


@criterion(1, "brute-force oracle equals DP table (plain n<=14, skew n<=12)")
def test_criterion_1_oracle_vs_dp():
    for variant, n_max in ((Variant.PLAIN, 14), (Variant.SKEW, 12)):
        oracle = count_table(n_max, variant)
        dp = dp_count(n_max, variant)
        assert oracle.entries == dp.entries
        assert len(oracle.entries) > 0


@criterion(2, "DP equals closed form symbolically (plain and skew z^60)")
def test_criterion_2_dp_vs_closed_form():
    for variant in Variant:
        assert dp_series(60, variant) == closed_form(variant, 60).total


@criterion(3, "plain trivariate display and its u=0 / u=1 displays to z^7")
def test_criterion_3_plain_displays():
    total = closed_form(Variant.PLAIN, 7).total
    for n in range(8):
        assert total.coefficient(n) == poly(PLAIN_TRIVARIATE[n]), n
    floor = total.specialize(u=0)
    for n in range(8):
        assert floor.coefficient(n) == poly(PLAIN_U0[n], specialized=True), n
    everywhere = total.specialize(u=1)
    for n in range(8):
        assert everywhere.coefficient(n) == poly(
            PLAIN_U1[n], specialized=True
        ), n


@criterion(4, "all eight univariate specializations match their prefixes")
def test_criterion_4_univariate_prefixes():
    total = closed_form(Variant.PLAIN, 10).total
    for (u, sigma, tau), terms in UNIVARIATE_PREFIXES.items():
        special = total.specialize(u=u, sigma=sigma, tau=tau)
        got = []
        for n in range(len(terms)):
            value = special.coefficient(n).as_constant()
            assert value is not None and value.denominator == 1
            got.append(int(value))
        assert tuple(got) == terms, (u, sigma, tau)


@criterion(5, "skew displays to z^8/z^7 and the open prefix vs the oracle")
def test_criterion_5_skew_displays():
    total = closed_form(Variant.SKEW, 12).total
    returning = total.specialize(u=0)
    for n in range(9):
        assert returning.coefficient(n) == poly(
            SKEW_RETURNING[n], specialized=True
        ), n
    open_walks = total.specialize(u=1)
    for n in range(8):
        assert open_walks.coefficient(n) == poly(
            SKEW_OPEN[n], specialized=True
        ), n
    plain_counts = open_walks.specialize(sigma=1, tau=1)
    oracle = count_table(12, Variant.SKEW)
    for n in range(13):
        assert plain_counts.coefficient(n).as_constant() == oracle.total(n), n


@criterion(6, "printed plain boundary identities hold to z^20 and F(0)=0")
def test_criterion_6_boundary_identities():
    identities = plain_printed_boundary_identities(20)
    assert len(identities) >= 3
    for name, lhs, rhs in identities:
        assert lhs == rhs, name
    assert closed_form(Variant.PLAIN, 20).f.specialize(u=0).is_zero()


@criterion(7, "bijection round-trip, semiperimeter law, image counts s<=10")
def test_criterion_7_bijection():
    # round-trip identity on every cornerless excursion of length <= 12
    for n in range(1, 13):
        for word in enumerate_paths(
            n, Variant.PLAIN,
            forbid_ud=True, forbid_du=True, excursions_only=True,
        ):
            graph = to_bargraph(word)
            assert from_bargraph(graph) == word
            stats = pattern_stats(word)
            assert stats.ud == 0 and stats.du == 0
            ups = sum(1 for s in word.steps if s.value == "U")
            flats = sum(1 for s in word.steps if s.value == "H")
            assert graph.semiperimeter == ups + 1 + flats

    # image counts per semiperimeter match the independent bargraph oracle;
    # a word whose image has semiperimeter s <= 10 has length <= 2s-3 = 17
    tally = {}
    for n in range(1, 18):
        for word in enumerate_paths(
            n, Variant.PLAIN,
            forbid_ud=True, forbid_du=True, excursions_only=True,
            allow_large=True,
        ):
            s = to_bargraph(word).semiperimeter
            if s <= 10:
                tally[s] = tally.get(s, 0) + 1
    expected = {
        s: sum(1 for _ in enumerate_bargraphs(s)) for s in range(2, 11)
    }
    assert tally == expected


@criterion(8, "division/sqrt identities (240 random cases) and integrality")
def test_criterion_8_engine_soundness():
    rng = random.Random(16180339)

    def random_poly():
        entries = {}
        for _ in range(rng.randrange(1, 3)):
            key = (rng.randrange(2), rng.randrange(2), rng.randrange(2))
            entries[key] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        return Poly(list(entries.items()))

    def random_series(order, unit=False):
        # sparse coefficients keep the quotient/root supports tractable
        # while still exercising trivariate fraction arithmetic
        coeffs = [
            random_poly() if rng.random() < 0.6 else Poly.zero()
            for _ in range(order + 1)
        ]
        coeffs[0] = Poly.one() if unit else Poly.constant(
            Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
        )
        return Series(coeffs, order)

    for _ in range(120):
        a = random_series(16)
        b = random_series(16)
        quotient = a / b
        assert quotient * b == a

    for _ in range(120):
        a = random_series(16, unit=True)
        root = a.sqrt()
        assert root * root == a

    for variant in Variant:
        bnd = boundary_values(variant, 24)
        pipeline = [
            closed_form(variant, 24).total,
            kernel_r2(variant, 24),
            kernel_zr1(variant, 24),
            kernel_w(variant, 24),
            bnd.g,
            bnd.h,
        ]
        if bnd.k is not None:
            pipeline.append(bnd.k)
        for index, series in enumerate(pipeline):
            for n in range(25):
                for _, value in series.coefficient(n).terms():
                    assert isinstance(value, int), (variant, index, n)
