"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces public functions of the ``motzkin`` modules with
wrappers.  A name imported elsewhere with ``from .x import y`` is a second
binding of the same object, so every module attribute bound to the wrapped
object is replaced, not only the one in the defining module.  Install only
in a process that is about to serve traced requests and then exit.

Three kinds of wrapper:

* ``span`` times the call;
* ``iter`` times each step of the iterator the call returns, so the span
  covers consuming a generator, not just creating it;
* ``count`` only counts calls (and, for the polynomial kernels, the terms
  they multiply); their time stays in the caller's span.

Self time is computed as the spans close: a span's duration minus the time
its child spans cover.  The wrapper's own bookkeeping inside a request is
measured and kept out of every span, so the layer self times, the
bookkeeping and the untraced remainder add up to the request time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from fractions import Fraction

perf_ns = time.perf_counter_ns

# (module, attribute, layer, group, kind)
TARGETS = (
    ("motzkin.cli", "main", "cli", "self", "span"),
    ("motzkin.series", "closed_form", "series", "assembly", "span"),
    ("motzkin.series", "kernel_w", "series", "kernel", "span"),
    ("motzkin.series", "kernel_r2", "series", "kernel", "span"),
    ("motzkin.series", "kernel_zr1", "series", "kernel", "span"),
    ("motzkin.series", "boundary_values", "series", "boundary", "span"),
    ("motzkin.series", "Series.specialize", "series", "specialize", "span"),
    ("motzkin.series", "specialize", "series", "specialize", "span"),
    ("motzkin.series", "Series.div", "series", "div", "count"),
    ("motzkin.series", "Series.__mul__", "series", "mul", "count"),
    ("motzkin.series", "Series.sqrt", "series", "sqrt", "count"),
    ("motzkin.automata", "dp_count", "automata", "dp", "span"),
    ("motzkin.automata", "dp_series", "automata", "dp", "span"),
    ("motzkin.automata", "layer_series", "automata", "dp", "span"),
    ("motzkin.oracle", "count_table", "oracle", "count_table", "span"),
    ("motzkin.oracle", "enumerate_paths", "oracle", "enumerate", "iter"),
    ("motzkin.oracle", "enumerate_bargraphs", "oracle", "enumerate", "iter"),
    ("motzkin.paths", "to_bargraph", "paths", "bijection", "span"),
    ("motzkin.paths", "from_bargraph", "paths", "bijection", "span"),
    ("motzkin._speedups", "poly_acc", "speedups", "poly", "count"),
    ("motzkin._speedups", "poly_mul", "speedups", "poly", "count"),
)

# per-layer metric -> (unit, source, targets it needs).  Times and counts
# are per traced request; errors are totals.  Sources:
#   ("self", key)        self time of the spans of a layer.group
#   ("calls", key)       calls of the wrapped functions of a layer.group
#   ("counter", name)    a counter the result hooks keep
#   ("max", name)        a maximum the result hooks keep
#   ("hits", key)        hits over calls of a layer.group
#   ("errors", layer)    exceptions that left the layer
# A metric whose targets are missing from the program is absent, not zero.
METRICS = {
    "cli.self_ms": ("ms/req", ("self", "cli.self"), ("main",)),
    "cli.errors": ("count", ("errors", "cli"), ("main",)),
    "series.assembly_ms": ("ms/req", ("self", "series.assembly"), ("closed_form",)),
    "series.kernel_ms": ("ms/req", ("self", "series.kernel"),
                         ("kernel_w", "kernel_r2", "kernel_zr1")),
    "series.boundary_ms": ("ms/req", ("self", "series.boundary"), ("boundary_values",)),
    "series.specialize_ms": ("ms/req", ("self", "series.specialize"),
                             ("Series.specialize", "specialize")),
    "series.div_calls": ("1/req", ("calls", "series.div"), ("Series.div",)),
    "series.mul_calls": ("1/req", ("calls", "series.mul"), ("Series.__mul__",)),
    "series.sqrt_calls": ("1/req", ("calls", "series.sqrt"), ("Series.sqrt",)),
    "series.closed_form_calls": ("1/req", ("calls", "series.assembly"),
                                 ("closed_form",)),
    "series.closed_form_hit_ratio": ("ratio", ("hits", "series.assembly"),
                                     ("closed_form", "kernel_w", "kernel_r2",
                                      "kernel_zr1", "boundary_values")),
    "series.terms_out": ("1/req", ("counter", "terms_out"),
                         ("Series.specialize", "specialize")),
    "series.coeff_bits_max": ("bits", ("max", "coeff_bits_max"),
                              ("Series.specialize", "specialize")),
    "series.errors": ("count", ("errors", "series"), ("closed_form",)),
    "automata.dp_ms": ("ms/req", ("self", "automata.dp"),
                       ("dp_count", "dp_series", "layer_series")),
    "automata.table_entries": ("1/req", ("counter", "table_entries"), ("dp_count",)),
    "automata.errors": ("count", ("errors", "automata"), ("dp_count",)),
    "oracle.count_table_ms": ("ms/req", ("self", "oracle.count_table"),
                              ("count_table",)),
    "oracle.words_counted": ("1/req", ("counter", "words_counted"), ("count_table",)),
    "oracle.enumerate_ms": ("ms/req", ("self", "oracle.enumerate"),
                            ("enumerate_paths", "enumerate_bargraphs")),
    "oracle.items_enumerated": ("1/req", ("counter", "items_enumerated"),
                                ("enumerate_paths", "enumerate_bargraphs")),
    "oracle.errors": ("count", ("errors", "oracle"), ("count_table",)),
    "paths.bijection_ms": ("ms/req", ("self", "paths.bijection"),
                           ("to_bargraph", "from_bargraph")),
    "paths.bijection_calls": ("1/req", ("calls", "paths.bijection"),
                              ("to_bargraph", "from_bargraph")),
    "paths.errors": ("count", ("errors", "paths"), ("to_bargraph",)),
    "speedups.poly_products": ("1/req", ("calls", "speedups.poly"),
                               ("poly_acc", "poly_mul")),
    "speedups.terms_touched": ("1/req", ("counter", "terms_touched"),
                               ("poly_acc", "poly_mul")),
    "speedups.errors": ("count", ("errors", "speedups"), ("poly_acc", "poly_mul")),
}


def layer_metrics(totals: dict, requests: int) -> tuple[dict, list[str]]:
    """Evaluate METRICS on ``Tracer.totals()`` of ``requests`` requests.

    Returns the metrics as name -> (value, unit) and the names of the
    metrics left out because the functions they wrap no longer exist.
    """
    present = set(totals["present"])
    values: dict[str, tuple[float, str]] = {}
    absent = []
    for name, (unit, (source, key), needs) in METRICS.items():
        if not present.issuperset(needs):
            absent.append(name)
            continue
        if source == "self":
            value = totals["self_ns"].get(key, 0) / 1e6 / requests
        elif source == "calls":
            value = totals["calls"].get(key, 0) / requests
        elif source == "counter":
            value = totals["counters"].get(key, 0) / requests
        elif source == "max":
            value = totals["counters"].get(key, 0)
        elif source == "hits":
            calls = totals["calls"].get(key, 0)
            value = totals["counters"].get("closed_form_hits", 0) / calls if calls else 0.0
        else:
            value = totals["errors"].get(key, 0)
        values[name] = (value, unit)
    return values, absent


def _resolve(module_name: str, attr: str):
    """(owner, name, object) for a dotted attribute, or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, name, None)
    return None if obj is None else (owner, name, obj)


def coefficient_bits(value) -> int:
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    return abs(value).bit_length()


class Tracer:
    """Spans and counters of the traced requests of one process."""

    def __init__(self, keep_spans: bool = False):
        # a frame is [layer, group, span id, child ns, child spans, kept record]
        self.stack: list[list] = []
        self.self_ns: Counter = Counter()   # (layer, group) -> ns
        self.calls: Counter = Counter()     # (layer, group) -> calls
        self.errors: Counter = Counter()    # layer -> exceptions leaving it
        self.counters: Counter = Counter()
        self.bits_max = 0
        self.bookkeeping_ns = 0
        self.keep_spans = keep_spans
        self.spans: list[list] = []
        self.request = -1
        self.next_id = 0
        self.present: set[str] = set()

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, layer, group, kind in TARGETS:
            found = _resolve(module_name, attr)
            if found is None:
                continue
            owner, name, original = found
            self.present.add(attr)
            make = {"span": self._span, "iter": self._iter, "count": self._count}[kind]
            wrapper = make(original, attr, layer, group)
            if isinstance(owner, type):
                setattr(owner, name, wrapper)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("motzkin"):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    # -- frames -------------------------------------------------------------

    def _open(self, layer, group, name, keep=True):
        parent = self.stack[-1] if self.stack else None
        span_id = self.next_id
        self.next_id += 1
        record = None
        if parent is not None:
            parent[4] += 1
        if keep and self.keep_spans:
            record = [self.request, span_id, parent[2] if parent else None,
                      name, layer, 0, 0, 0]
            self.spans.append(record)
        frame = [layer, group, span_id, 0, 0, record]
        self.stack.append(frame)
        return frame

    def _close(self, frame, start, end, entered, left, failed):
        """Account a finished span; ``entered``/``left`` bracket the
        wrapper's bookkeeping around the ``start``-``end`` call."""
        self.stack.pop()
        layer, group = frame[0], frame[1]
        duration = end - start
        self.self_ns[layer, group] += duration - frame[3]
        overhead = (start - entered) + (left - end)
        self.bookkeeping_ns += overhead
        if self.stack:
            self.stack[-1][3] += duration + overhead
        if failed and (not self.stack or self.stack[-1][0] != layer):
            self.errors[layer] += 1
        record = frame[5]
        if record is not None:
            record[5], record[6], record[7] = start, end, duration - frame[3]

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name, layer, group):
        tracer = self
        hook = _RESULT_HOOKS.get(name)

        def wrapper(*args, **kwargs):
            entered = perf_ns()
            tracer.calls[layer, group] += 1
            frame = tracer._open(layer, group, name)
            failed = True
            start = perf_ns()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_ns()
                if not failed and hook is not None:
                    hook(tracer, frame, result)
                tracer._close(frame, start, end, entered, perf_ns(), failed)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _iter(self, fn, name, layer, group):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[layer, group] += 1
            try:
                return _TracedIter(tracer, fn(*args, **kwargs), name, layer, group)
            except Exception:
                if not tracer.stack or tracer.stack[-1][0] != layer:
                    tracer.errors[layer] += 1
                raise

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, name, layer, group):
        tracer = self
        calls = self.calls
        key = (layer, group)
        if layer == "speedups":
            counters = self.counters
            first = 1 if name == "poly_acc" else 0

            def wrapper(*args, **kwargs):
                calls[key] += 1
                counters["terms_touched"] += len(args[first]) * len(args[first + 1])
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    tracer.errors[layer] += 1
                    raise
        else:
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ------------------------------------------------------------

    def totals(self) -> dict:
        """Everything counted so far, in a JSON-friendly shape."""
        return {
            "self_ns": {f"{l}.{g}": v for (l, g), v in self.self_ns.items()},
            "calls": {f"{l}.{g}": v for (l, g), v in self.calls.items()},
            "errors": dict(self.errors),
            "counters": dict(self.counters, coeff_bits_max=self.bits_max),
            "bookkeeping_ns": self.bookkeeping_ns,
            "present": sorted(self.present),
        }

    def write_spans(self, handle) -> None:
        """Append the kept spans to an open file as JSON lines."""
        for req, span_id, parent, name, layer, start, end, self_ns in self.spans:
            handle.write(json.dumps({
                "request": req, "id": span_id, "parent": parent, "name": name,
                "layer": layer, "start_ns": start, "end_ns": end,
                "self_ns": self_ns,
            }) + "\n")


class _TracedIter:
    """An iterator whose every step is a span of the wrapped generator.

    With spans kept, the steps of one iterator share one record: its start
    is the first step, its end the last, and its self time their sum.
    """

    __slots__ = ("tracer", "it", "name", "layer", "group", "record")

    def __init__(self, tracer, it, name, layer, group):
        self.tracer, self.it = tracer, iter(it)
        self.name, self.layer, self.group = name, layer, group
        self.record = None

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        entered = perf_ns()
        frame = tracer._open(self.layer, self.group, self.name, keep=False)
        failed = True
        done = False
        start = perf_ns()
        try:
            item = next(self.it)
            failed = False
        except StopIteration:
            failed = False
            done = True
            raise
        finally:
            end = perf_ns()
            if not failed and not done:
                tracer.counters["items_enumerated"] += 1
            if tracer.keep_spans:
                self._record(frame, start, end)
            tracer._close(frame, start, end, entered, perf_ns(), failed)
        return item

    def _record(self, frame, start, end):
        tracer = self.tracer
        step_self = end - start - frame[3]
        if self.record is None:
            parent = tracer.stack[-2][2] if len(tracer.stack) > 1 else None
            self.record = [tracer.request, frame[2], parent, self.name,
                           self.layer, start, end, step_self]
            tracer.spans.append(self.record)
        else:
            self.record[6] = end
            self.record[7] += step_self


def _closed_form_result(tracer, frame, result):
    tracer.counters["closed_form_hits"] += frame[4] == 0


def _dp_count_result(tracer, frame, result):
    tracer.counters["table_entries"] += len(result.entries)


def _count_table_result(tracer, frame, result):
    tracer.counters["words_counted"] += sum(result.entries.values())


def _specialize_result(tracer, frame, result):
    # the module-level specialize delegates to the method: count the
    # series a request gets back once, at the outermost call
    parent = tracer.stack[-2] if len(tracer.stack) > 1 else None
    if parent is not None and parent[1] == "specialize":
        return
    bits = tracer.bits_max
    terms = 0
    for poly in result.coefficients():
        for _, value in poly.terms():
            terms += 1
            b = coefficient_bits(value)
            if b > bits:
                bits = b
    tracer.bits_max = bits
    tracer.counters["terms_out"] += terms


_RESULT_HOOKS = {
    "closed_form": _closed_form_result,
    "dp_count": _dp_count_result,
    "count_table": _count_table_result,
    "Series.specialize": _specialize_result,
    "specialize": _specialize_result,
}
