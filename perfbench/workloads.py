"""Seeded request sessions for the three benchmark workloads.

A session is the list of ``motzkin`` command lines one serving process
gets.  Its mix (how many requests of each kind, order and size) follows a
fixed plan; the seed chooses the order of the requests and the parameters
that barely move their cost.  Every session of a workload therefore costs
about the same whatever the seed, which keeps the latency percentiles
steady from seed to seed.  A run serves whole sessions, so a faster
program serves more sessions of the same mix, not a different mix.

The sessions never look at the program's output, so the same seed sends
the same requests to every version of the program.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field

VARIANTS = ("plain", "skew")

# the values --u/--sigma/--tau take, in classes of similar cost
VALUE_CLASSES = {
    "zero": ("0",),
    "unit": ("1", "-1"),
    "half": ("1/2", "3/2"),
    "sym": ("sym",),
}
# (u, sigma, tau) classes of successive specialize-warm series requests: a
# 4x4 Latin square, so each class takes each position equally often
_CLASSES = tuple(VALUE_CLASSES)
VALUE_PATTERNS = tuple(
    (_CLASSES[i % 4], _CLASSES[i // 4], _CLASSES[(i + i // 4) % 4])
    for i in range(16)
)

# sequence id -> embedded prefix length (the shortest one when two anchors
# share the id); requests stay within it and never ask for --fetch
OEIS_TERMS = {
    "A004148": 8,
    "A004149": 8,
    "A001006": 9,
    "A091964": 11,
    "A308435": 11,
    "A005773": 11,
    "A082582": 8,
}

# (variant, class) -> the two lengths `paths --count-only` asks for; the
# enumeration is exponential, so they sit where one request costs a few
# hundredths to a few tenths of a second
PATHS_LENGTHS = {
    ("plain", "all"): (9, 10),
    ("skew", "all"): (8, 9),
    ("plain", "excursion"): (10, 11),
    ("skew", "excursion"): (9, 10),
    ("plain", "cornerless"): (12, 13),
    ("skew", "cornerless"): (10, 11),
    ("plain", "peakless"): (12, 13),
    ("skew", "peakless"): (10, 11),
    ("plain", "valleyless"): (11, 12),
    ("skew", "valleyless"): (9, 10),
}


@dataclass
class Request:
    """One command line plus what the checker and the report need.

    ``size`` is the order or length the request works at; ``category`` is
    the cache relation of a specialize-warm series request: ``new`` (above
    every order seen), ``lower`` (below one) or ``repeat`` (exact repeat).
    """

    kind: str
    argv: tuple[str, ...]
    size: int
    params: dict = field(default_factory=dict)
    category: str = ""


class Deck:
    """Deal items in a seeded shuffled order, reshuffling when empty."""

    def __init__(self, rng: random.Random, items):
        self.rng = rng
        self.items = list(items)
        self.pile: list = []

    def deal(self):
        if not self.pile:
            self.pile = list(self.items)
            self.rng.shuffle(self.pile)
        return self.pile.pop()


def series_request(variant, order, engine="closed", u="sym", sigma="sym",
                   tau="sym", fmt="text", category="") -> Request:
    argv = ("series", "--variant", variant, "--order", str(order),
            "--engine", engine, f"--u={u}", f"--sigma={sigma}", f"--tau={tau}",
            "--format", fmt)
    params = dict(variant=variant, order=order, engine=engine, u=u,
                  sigma=sigma, tau=tau, fmt=fmt)
    return Request("series", argv, order, params, category)


def bargraph_path(columns) -> str:
    """The cornerless excursion of a bargraph: walk the boundary of the
    columns from height 0 back to 0, then drop the first U and last D."""
    steps = []
    height = 0
    for h in columns:
        steps.append("U" * (h - height) if h > height else "D" * (height - h))
        steps.append("H")
        height = h
    steps.append("D" * height)
    return "".join(steps)[1:-1]


def bargraph_semiperimeter(columns) -> int:
    rises = sum(max(0, b - a) for a, b in zip(columns, columns[1:]))
    return len(columns) + columns[0] + rises


def series_cold(seed: int, session: int, tiny: bool = False) -> list[Request]:
    """Symbolic closed-form series; each request runs in its own process.

    A session asks for every (variant, order) pair once, half of them as
    text and half as JSON.
    """
    rng = random.Random(f"series-cold:{seed}:{session}")
    orders = range(4, 7) if tiny else range(16, 29)
    pairs = [(v, n) for v in VARIANTS for n in orders]
    formats = ["text", "json"] * (len(pairs) // 2)
    rng.shuffle(pairs)
    rng.shuffle(formats)
    return [series_request(v, n, fmt=f) for (v, n), f in zip(pairs, formats)]


def specialize_warm(seed: int, session: int, tiny: bool = False) -> list[Request]:
    """One long session of specialized series and sequence checks.

    The orders climb a fixed ladder of 8 rungs from the lowest to the
    highest order, one block per rung.  A block sends, per variant, one
    request at the new rung (one variant on the closed engine, the other on
    the DP, alternating) and, above the first rung, one at a lower order
    not asked for before, just below the rung, on the other engine.  Then
    come ten exact repeats (each new and lower request of the block twice,
    the previous block's new requests once) and two `oeis` requests.

    A series request costs mostly by its order, engine and which variables
    stay symbolic, so those follow the fixed plan and VALUE_PATTERNS; the
    seed picks the rest: each value inside its class, how far below the
    rung a lower order sits, the sequences and term counts, and the order
    of requests inside a block.
    """
    rng = random.Random(f"specialize-warm:{seed}:{session}")
    low, high = (4, 10) if tiny else (12, 36)
    ladder = [low + round(k * (high - low) / 7) for k in range(8)]
    patterns = itertools.cycle(VALUE_PATTERNS)
    ids = Deck(rng, sorted(OEIS_TERMS))
    seen: dict[str, set[int]] = {v: set() for v in VARIANTS}

    def fresh(variant, order, engine, category) -> Request:
        seen[variant].add(order)
        u, sigma, tau = (rng.choice(VALUE_CLASSES[c]) for c in next(patterns))
        return series_request(variant, order, engine, u, sigma, tau, category=category)

    def repeat(req) -> Request:
        return Request(req.kind, req.argv, req.size, req.params, "repeat")

    def oeis() -> Request:
        id_ = ids.deal()
        terms = rng.randint(1, OEIS_TERMS[id_])
        return Request("oeis", ("oeis", "--id", id_, "--terms", str(terms)),
                       terms, {"id": id_, "terms": terms})

    requests: list[Request] = []
    previous: list[Request] = []
    for rung, order in enumerate(ladder):
        engines = ("closed", "dp") if rung % 2 == 0 else ("dp", "closed")
        new = [fresh(v, order, e, "new") for v, e in zip(VARIANTS, engines)]
        lower = []
        for variant, engine in zip(VARIANTS, engines):
            options = [n for n in (order - 1, order - 2)
                       if n >= low and n not in seen[variant]]
            if rung and options:
                other = "dp" if engine == "closed" else "closed"
                lower.append(fresh(variant, rng.choice(options), other, "lower"))
        head = new + lower
        rng.shuffle(head)
        tail = [repeat(r) for r in head * 2 + previous] + [oeis(), oeis()]
        rng.shuffle(tail)
        requests += head + tail
        previous = new
    return requests


def check_enum(seed: int, session: int, tiny: bool = False) -> list[Request]:
    """Verification traffic: consistency suites, enumeration counts, count
    tables and bargraph round trips, 109 requests in a seeded order.

    The mix is the same for each seed.  `check plain` runs once at each of
    sizes 10, 12, 13 and 14 and fourteen times at 11, so the 90th latency
    percentile falls in the middle of that group, just below the three
    largest checks; the median falls among the `count` requests.  The seed
    picks the bargraphs, the variant and format of each `count`, and the
    order.
    """
    rng = random.Random(f"check-enum:{seed}:{session}")

    def check(variant, n):
        return [Request("check", ("check", "--variant", variant, "--max-n", str(n)),
                        n, {"variant": variant, "max_n": n})]

    def paths(variant, cls, n):
        argv = ("paths", "--variant", variant, "--class", cls, "--n", str(n),
                "--count-only")
        return [Request("paths", argv, n, {"variant": variant, "cls": cls, "n": n})]

    def count(variant, n, fmt):
        argv = ("count", "--variant", variant, "--n", str(n), "--format", fmt)
        return [Request("count", argv, n, {"variant": variant, "n": n, "fmt": fmt})]

    def round_trip():
        columns = [rng.randint(1, 6) for _ in range(rng.randint(1, 8))]
        text = ",".join(map(str, columns))
        params = {"columns": columns}
        return [
            Request("bargraph", ("bargraph", "--columns", text), len(columns), params),
            Request("bargraph", ("bargraph", "--path", bargraph_path(columns)),
                    len(columns), params),
        ]

    if tiny:
        plain_sizes, skew_sizes, count_sizes = [4] * 3 + [5, 6], range(3, 6), range(4, 8)
        lengths = {key: (3, 4) for key in PATHS_LENGTHS}
    else:
        plain_sizes = [10] + [11] * 14 + [12, 13, 14]
        skew_sizes, count_sizes = range(9, 13), range(12, 21, 2)
        lengths = PATHS_LENGTHS
    variants, formats = Deck(rng, VARIANTS), Deck(rng, ("text", "json", "csv"))
    plan = (
        [lambda n=n: check("plain", n) for n in plain_sizes]
        + [lambda n=n: check("skew", n) for n in skew_sizes]
        + [lambda k=k, n=n: paths(*k, n) for k, ns in lengths.items() for n in ns]
        + [lambda n=n: count(variants.deal(), n, formats.deal()) for n in count_sizes] * 5
        + [round_trip] * 21
    )
    rng.shuffle(plan)
    return [req for make in plan for req in make()]


WORKLOADS = {
    "series-cold": series_cold,
    "specialize-warm": specialize_warm,
    "check-enum": check_enum,
}


def properties(requests: list[Request]) -> dict:
    """What a run's request mix looked like: kinds, the histogram of orders
    or lengths per kind, and the cache categories of series requests."""
    kinds = Counter(r.kind for r in requests)
    sizes: dict[str, Counter] = {}
    for r in requests:
        sizes.setdefault(r.kind, Counter())[r.size] += 1
    props = {
        "requests": len(requests),
        "kinds": dict(sorted(kinds.items())),
        "size_histogram": {
            kind: dict(sorted(hist.items())) for kind, hist in sorted(sizes.items())
        },
    }
    categories = Counter(r.category for r in requests if r.category)
    if categories:
        total = sum(categories.values())
        props["series_category_share"] = {
            c: round(categories[c] / total, 4) for c in ("repeat", "lower", "new")
        }
    return props
