"""Expected output of every benchmark request, from an independent route.

* ``series`` with the closed engine is checked against the DP, and with the
  DP engine against the closed form, both specialized the same way.
* ``count`` tables are checked against closed-form coefficients.
* ``paths --count-only`` counts are checked against the DP count table.
* ``oeis`` is checked against the embedded sequence prefixes.
* ``bargraph`` round trips are checked against the benchmark's own walk of
  the bargraph boundary.
* ``check`` must exit 0 with every suite passing.

The reference series are computed once per variant and route at the
highest order a run asked for and truncated per request: the series are
counted by length, so a prefix is the lower-order answer.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

from workloads import bargraph_path, bargraph_semiperimeter

from motzkin import cli
from motzkin.automata import dp_count, dp_series
from motzkin.paths import Variant
from motzkin.series import Poly, Series, closed_form

_CHECK_LINE = re.compile(r"^(.*): (\d+) compared: PASS( \(.*\))?$")

# excursion-class filters of `paths`, as conditions on count table keys
_CLASS_KEYS = {
    "all": lambda j, ud, du: True,
    "excursion": lambda j, ud, du: j == 0,
    "cornerless": lambda j, ud, du: j == 0 and ud == 0 and du == 0,
    "peakless": lambda j, ud, du: j == 0 and ud == 0,
    "valleyless": lambda j, ud, du: j == 0 and du == 0,
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _value(text: str):
    return None if text == "sym" else Fraction(text)


def evaluate(terms, values):
    """Substitute rationals (None keeps the variable) into the terms
    ((e_u, e_s, e_t), integer coefficient) of a polynomial.

    The sum runs over integers scaled by one common denominator, which is
    much faster than adding fractions term by term.
    """
    tops = [max((exps[i] for exps, _ in terms), default=0) for i in range(3)]
    scaled = []  # per variable: e -> numerator^e * denominator^(top - e)
    scale = 1
    for value, top in zip(values, tops):
        if value is None:
            scaled.append(None)
            continue
        p, q = value.numerator, value.denominator
        scaled.append([p**e * q ** (top - e) for e in range(top + 1)])
        scale *= q**top
    acc: dict[tuple[int, int, int], int] = {}
    for exps, coeff in terms:
        key = list(exps)
        for i, table in enumerate(scaled):
            if table is not None:
                coeff *= table[key[i]]
                key[i] = 0
        key = tuple(key)
        acc[key] = acc.get(key, 0) + coeff
    return [(key, Fraction(c, scale)) for key, c in acc.items()]


class Checker:
    """Checks served requests; build it with every request of the run so
    each reference series is computed once, at the highest order needed."""

    def __init__(self, requests):
        self.top: dict[tuple, int] = {}
        for req in requests:
            p = req.params
            if req.kind == "series":
                route = "dp" if p["engine"] == "closed" else "closed"
                self._need((p["variant"], route), p["order"])
            elif req.kind == "count":
                self._need((p["variant"], "closed"), p["n"])
            elif req.kind == "paths":
                self._need((p["variant"], "table"), p["n"])
            elif req.kind == "check":
                self._need((p["variant"], "table"), p["max_n"])
        self.cache: dict = {}
        self.expected: dict[tuple, str] = {}

    def _need(self, key, order):
        self.top[key] = max(self.top.get(key, 0), order)

    def _reference(self, variant: str, route: str):
        key = (variant, route)
        if key not in self.cache:
            v, top = Variant(variant), self.top[key]
            if route == "dp":
                self.cache[key] = dp_series(top, v)
            elif route == "closed":
                self.cache[key] = closed_form(v, top).total
            else:
                self.cache[key] = dp_count(top, v)
        return self.cache[key]

    def _terms(self, variant: str, route: str, n: int):
        key = (variant, route, n)
        if key not in self.cache:
            self.cache[key] = self._reference(variant, route).coefficient(n).terms()
        return self.cache[key]

    def failure(self, req, rc: int, out_digest: str, out_text) -> str | None:
        """None if the served request is right, else what is wrong.

        ``out_text`` is the captured stdout when the serving process kept
        it (short outputs only); ``check`` requests need it.
        """
        if rc != 0:
            return f"exit code {rc}"
        if req.kind == "check":
            return self._check_suites(req, out_text)
        if req.argv not in self.expected:
            self.expected[req.argv] = digest(self._expected_text(req))
        if self.expected[req.argv] != out_digest:
            return "stdout differs from the reference"
        return None

    def _expected_text(self, req) -> str:
        p = req.params
        if req.kind == "series":
            route = "dp" if p["engine"] == "closed" else "closed"
            values = tuple(_value(p[name]) for name in ("u", "sigma", "tau"))
            series = Series(
                [Poly(evaluate(self._terms(p["variant"], route, n), values))
                 for n in range(p["order"] + 1)],
                p["order"],
            )
            if p["fmt"] == "json":
                return json.dumps(series.to_json(), indent=2) + "\n"
            return series.to_text() + "\n"
        if req.kind == "count":
            return self._count_text(p)
        if req.kind == "paths":
            table = self._reference(p["variant"], "table")
            keep = _CLASS_KEYS[p["cls"]]
            total = sum(
                c for (n, j, ud, du), c in table.entries.items()
                if n == p["n"] and keep(j, ud, du)
            )
            return f"({total})\n"
        if req.kind == "oeis":
            lines = []
            for anchor in cli.ANCHORS:
                if anchor.id == p["id"]:
                    shown = ",".join(str(v) for v in anchor.terms[: p["terms"]])
                    lines.append(f"{p['id']} ({anchor.label}): match on {shown} [builtin]")
            return "".join(line + "\n" for line in lines)
        if req.kind == "bargraph":
            columns = p["columns"]
            semi = bargraph_semiperimeter(columns)
            if req.argv[1] == "--columns":
                return f"path: {bargraph_path(columns)}\nsemiperimeter: {semi}\n"
            return f"columns: {','.join(map(str, columns))}\nsemiperimeter: {semi}\n"
        raise ValueError(f"no reference for {req.kind}")

    def _count_text(self, p) -> str:
        poly = self._reference(p["variant"], "closed").coefficient(p["n"])
        rows = sorted(
            (p["n"], eu, et, es, int(c)) for (eu, es, et), c in poly.terms()
        )
        if p["fmt"] == "json":
            data = [
                {"n": n, "j": j, "ud": ud, "du": du, "count": str(c)}
                for n, j, ud, du, c in rows
            ]
            return json.dumps(data, indent=2) + "\n"
        sep = "," if p["fmt"] == "csv" else " "
        lines = [("n", "j", "ud", "du", "count")] + rows
        return "".join(sep.join(map(str, row)) + "\n" for row in lines)

    def _check_suites(self, req, out_text) -> str | None:
        if out_text is None:
            return "check output was not kept"
        p = req.params
        n = p["max_n"]
        table = self._reference(p["variant"], "table")
        entries = sum(1 for key in table.entries if key[0] <= n)
        expected = [
            (f"oracle-vs-dp ({p['variant']}, n <= {n})", entries),
            (f"dp-vs-closed ({p['variant']}, order {n})", n + 1),
        ]
        if p["variant"] == "plain":
            expected.append((f"bijection-round-trip (n <= {min(n, 12)})", None))
        lines = out_text.splitlines()
        if len(lines) != len(expected):
            return f"{len(lines)} suite lines, expected {len(expected)}"
        for line, (name, compared) in zip(lines, expected):
            match = _CHECK_LINE.match(line)
            if (match is None or match.group(1) != name
                    or (compared is not None and int(match.group(2)) != compared)):
                return f"unexpected suite line {line!r}"
        return None
