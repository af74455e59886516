"""Benchmark of the ``motzkin`` command line, driven in-process.

    python3 perfbench/run.py --workload series-cold --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and needs nothing built.  Requests go through ``motzkin.cli.main``
with stdout captured, one at a time, on one thread.  The serving process is
forked from this one after it has only imported the package, so every
session starts cold:

* ``series-cold`` forks a fresh process for every request;
* ``specialize-warm`` and ``check-enum`` serve each session in one forked
  process, which keeps its caches from request to request.

``--trace 0`` serves whole seeded sessions of the workload (see
``workloads.py``) until ``--seconds`` of serving time and at least 100
requests, and reports the end-to-end metrics.  ``--trace 1`` serves the
first session alternately untraced and traced (see ``tracer.py``), each
pass in fresh processes, and reports the per-layer metrics and the tracing
overhead.  Both modes check every
output against an independent route after the serving ends (see
``reference.py``).

The end-to-end times are scaled to one reference machine speed, because
a shared machine's CPU speed drifts by a quarter within a minute.  The
serving process runs a fixed calibration loop before and after every
request (outside its timed region), and each request's time is scaled by
the calibration around it; ``requests_per_s`` is the count over the sum of
those times, and the percentiles are Harrell-Davis estimates over them.
``setup_s`` is scaled by the calibration around each interpreter start.  The raw
values are printed too, with a ``_raw`` suffix.  ``error_rate`` is printed
in the report; the JSON carries it as ``success_rate`` and as ``failed``
over ``attempted``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.  A
full report, and in traced runs the spans as JSON lines, are written under
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, perf_counter_ns

from workloads import WORKLOADS, properties

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

MIN_REQUESTS = 100      # ten samples beyond the 90th percentile
# calibrate() on the machine the bounds were set on; see normalized()
CALIBRATION_NS = 6_000_000
SETUP_RUNS = 7
WALL_LIMIT_S = 110      # start no new block after this much wall time
KEEP_TEXT = 4096        # keep stdout this short for diagnostics
FRESH_PROCESS_PER_REQUEST = {"series-cold"}


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# serving


def _in_child(fn):
    """Run ``fn`` in a forked child and return its JSON-able result."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            payload = json.dumps({"ok": fn()})
        except BaseException:
            payload = json.dumps({"error": traceback.format_exc()})
            code = 1
        with os.fdopen(write_fd, "w") as pipe:
            pipe.write(payload)
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    os.waitpid(pid, 0)
    message = json.loads(data) if data else {"error": "serving process died"}
    if "error" in message:
        raise BenchError(message["error"])
    return message["ok"]


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def calibrate() -> int:
    """Nanoseconds for a fixed slice of pure-Python work shaped like the
    program's inner loops: dict updates with integer products."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter_ns()
        acc: dict[int, int] = {}
        get = acc.get
        for a in range(1, 120):
            for b in range(1, 240):
                key = a + b
                acc[key] = get(key, 0) + a * b * 123456789123
        return perf_counter_ns() - start
    finally:
        if was_enabled:
            gc.enable()


def _serve(requests, tracer=None, first=0) -> list[list]:
    """Serve requests through ``cli.main``; one row per request:
    [exit code, nanoseconds, stdout sha256, stdout if short, error,
    calibration ns just before and just after the request]."""
    from motzkin import cli

    rows = []
    for i, req in enumerate(requests):
        before = calibrate()
        if tracer is not None:
            tracer.request = first + i
        out, err = io.StringIO(), io.StringIO()
        error = None
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter_ns()
            try:
                rc = cli.main(list(req.argv))
            except Exception as exc:  # the request failed, the run goes on
                rc = None
                error = f"{type(exc).__name__}: {exc}"
            end = perf_counter_ns()
        after = calibrate()
        text = out.getvalue()
        digest = hashlib.sha256(text.encode()).hexdigest()
        rows.append([rc, end - start, digest, text if len(text) <= KEEP_TEXT else None,
                     error, before, after])
    return rows


def serve_session(workload, requests, traced=False, spans_path=None):
    """Serve a request list in fresh processes forked from this one: one
    process for the list, or one per request for the workloads in
    FRESH_PROCESS_PER_REQUEST.  A traced process installs a tracer first
    and, given ``spans_path``, appends its spans there.

    Returns (rows, peak RSS in MiB, summed tracer totals or None)."""
    def serve(batch, first):
        def run():
            tracer = None
            if traced:
                from tracer import Tracer

                tracer = Tracer(keep_spans=spans_path is not None)
                tracer.install()
            rows = _serve(batch, tracer, first)
            if spans_path is not None:
                with open(spans_path, "a") as handle:
                    tracer.write_spans(handle)
            return rows, _peak_rss_mib(), tracer.totals() if traced else None
        return _in_child(run)

    if workload in FRESH_PROCESS_PER_REQUEST:
        parts = [serve([req], i) for i, req in enumerate(requests)]
    else:
        parts = [serve(requests, 0)]
    rows = [row for part in parts for row in part[0]]
    rss = max(part[1] for part in parts)
    return rows, rss, _sum_totals([part[2] for part in parts]) if traced else None


def serve_timed(workload, seed, seconds, min_requests, tiny):
    """Serve whole sessions until the time and sample floor are met.

    Returns (requests, rows, peak RSS in MiB)."""
    begun = perf_counter()
    requests, rows, rss = [], [], 0.0
    session = 0
    while True:
        served = sum(row[1] for row in rows) / 1e9
        if rows and served >= seconds and len(rows) >= min_requests:
            break
        if perf_counter() - begun >= WALL_LIMIT_S:
            break
        batch = WORKLOADS[workload](seed, session, tiny)
        session += 1
        batch_rows, batch_rss, _ = serve_session(workload, batch)
        requests += batch
        rows += batch_rows
        rss = max(rss, batch_rss)
    return requests, rows, rss


def _sum_totals(totals: list[dict]) -> dict:
    out = {"self_ns": {}, "calls": {}, "errors": {}, "counters": {},
           "bookkeeping_ns": 0, "present": totals[0]["present"] if totals else []}
    for t in totals:
        for part in ("self_ns", "calls", "errors", "counters"):
            for key, value in t[part].items():
                if key == "coeff_bits_max":
                    out[part][key] = max(out[part].get(key, 0), value)
                else:
                    out[part][key] = out[part].get(key, 0) + value
        out["bookkeeping_ns"] += t["bookkeeping_ns"]
    return out


# ---------------------------------------------------------------------------
# measuring


def measure_setup(runs: int) -> tuple[float, float]:
    """Median seconds from starting a fresh interpreter to having imported
    ``motzkin.cli``, ready for the first request: scaled by the calibration
    around each start (see normalized()), and raw."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import motzkin.cli; "
            "sys.stdout.write('ready\\n'); sys.stdout.flush()")
    scaled, raw = [], []
    for _ in range(runs):
        before = calibrate()
        start = perf_counter()
        with subprocess.Popen([sys.executable, "-I", "-c", code], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            raw.append(perf_counter() - start)
            proc.wait()
        if line != "ready\n" or proc.returncode != 0:
            raise BenchError("the interpreter could not import motzkin.cli")
        scaled.append(raw[-1] * CALIBRATION_NS / ((before + calibrate()) / 2))
    return statistics.median(scaled), statistics.median(raw)


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def verify(requests, rows) -> list[str]:
    """Check every served row against its reference; return the failures."""
    from reference import Checker

    checker = Checker(requests)
    failures = []
    for req, (rc, _, digest, text, error, *_) in zip(requests, rows):
        problem = error or checker.failure(req, rc, digest, text)
        if problem:
            failures.append(f"{' '.join(req.argv)}: {problem}")
    return failures


def normalized(rows) -> list[float]:
    """Request times in ms, each scaled by how fast the machine ran the
    calibration loop just before and just after it.

    The CPU speed of a shared machine drifts by a quarter within a minute,
    so the same requests can read 20% slower than a minute before.  The
    calibration around a request measures the speed it ran at, and
    CALIBRATION_NS keeps the scale in ms.
    """
    return [ns * CALIBRATION_NS / ((before + after) / 2) / 1e6
            for _, ns, *_, before, after in rows]


def harrell_davis(sorted_values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) density.  Unlike a
    single order statistic it does not jump when the rank falls between
    two groups of requests of different cost."""
    n = len(sorted_values)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    points = 64  # midpoint rule, per order statistic
    weights = [0.0] * n
    for j in range(points * n):
        x = (j + 0.5) / (points * n)
        weights[j // points] += math.exp(
            (a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
    return sum(w * v for w, v in zip(weights, sorted_values)) / sum(weights)


def end_to_end(workload, seed, seconds, tiny):
    setup_s, setup_raw = measure_setup(1 if tiny else SETUP_RUNS)
    min_requests = 0 if tiny else MIN_REQUESTS
    requests, rows, rss = serve_timed(workload, seed, seconds, min_requests, tiny)
    failures = verify(requests, rows)
    n = len(rows)
    raw_ms = sorted(row[1] / 1e6 for row in rows)
    latencies = sorted(normalized(rows))
    metrics = {
        "requests_per_s": (n / (sum(latencies) / 1e3), "1/s"),
        "latency_p50_ms": (harrell_davis(latencies, 0.5), "ms"),
        "latency_p90_ms": (harrell_davis(latencies, 0.9), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (rss, "MiB"),
        "success_rate": ((n - len(failures)) / n, "ratio"),
    }
    extra = {
        "requests_per_s_raw": (n / (sum(raw_ms) / 1e3), "1/s"),
        "latency_p50_ms_raw": (statistics.median(raw_ms), "ms"),
        "latency_p90_ms_raw": (nearest_rank(raw_ms, 0.9), "ms"),
        "setup_s_raw": (setup_raw, "s"),
        "calibration_ms": (statistics.median(r[-2] + r[-1] for r in rows) / 2e6, "ms"),
        "error_rate": (len(failures) / n, "ratio"),
        "latency_samples": (n, "count"),
    }
    return requests, n, failures, metrics, extra


def per_layer(workload, seed, seconds, tiny, spans_path):
    from tracer import layer_metrics

    requests = WORKLOADS[workload](seed, 0, tiny)
    begun = perf_counter()
    plain_ms, traced_ms, totals, served = [], [], [], []
    request_ns = 0
    while True:
        pair_start = perf_counter()
        rows, _, _ = serve_session(workload, requests)
        served.append(rows)
        plain_ms.append(sum(normalized(rows)))
        rows, _, total = serve_session(workload, requests, traced=True,
                                       spans_path=spans_path if not totals else None)
        served.append(rows)
        traced_ms.append(sum(normalized(rows)))
        request_ns += sum(row[1] for row in rows)
        totals.append(total)
        now = perf_counter()
        if now - begun + (now - pair_start) > seconds or now - begun > WALL_LIMIT_S:
            break
    all_requests = requests * len(served)
    all_rows = [row for rows in served for row in rows]
    failures = verify(all_requests, all_rows)

    summed = _sum_totals(totals)
    counted = len(requests) * len(totals)
    metrics, absent = layer_metrics(summed, counted)
    request_ms = request_ns / 1e6 / counted
    layers_ms = sum(summed["self_ns"].values()) / 1e6 / counted
    bookkeeping_ms = summed["bookkeeping_ns"] / 1e6 / counted
    metrics.update({
        "trace.request_ms": (request_ms, "ms/req"),
        "trace.bookkeeping_ms": (bookkeeping_ms, "ms/req"),
        "trace.unattributed_ms": (request_ms - layers_ms - bookkeeping_ms, "ms/req"),
        "trace.overhead_pct": (
            100 * (statistics.median(traced_ms) / statistics.median(plain_ms) - 1), "%"),
    })
    extra = {"trace_pairs": (len(totals), "count"),
             "requests_per_pass": (len(requests), "count")}
    return all_requests, len(all_rows), failures, metrics, extra, absent


# ---------------------------------------------------------------------------
# reporting


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((SRC / "motzkin").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx"):
            sha.update(str(path.relative_to(SRC)).encode())
            sha.update(path.read_bytes())
    return sha.hexdigest()


def stamp() -> dict:
    try:
        from motzkin._speedups import backend_name
        backend = backend_name()
    except ImportError:
        backend = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "speedups_backend": backend,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """Run one measurement and return the full report."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import motzkin.cli  # noqa: F401  -- the idle parent imports only this

    OUT.mkdir(parents=True, exist_ok=True)
    absent: list[str] = []
    spans_path = None
    if trace:
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        spans_path.unlink(missing_ok=True)
        requests, attempted, failures, metrics, extra, absent = per_layer(
            workload, seed, seconds, tiny, spans_path)
    else:
        requests, attempted, failures, metrics, extra = end_to_end(
            workload, seed, seconds, tiny)
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "stamp": stamp(),
        "properties": properties(requests),
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
        "extra": {name: {"value": value, "unit": unit}
                  for name, (value, unit) in extra.items()},
        "absent": absent,
        "spans": str(spans_path) if spans_path else None,
        "failures": failures[:20],
    }


def print_report(report: dict) -> None:
    print(f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']}")
    print("stamp: " + json.dumps(report["stamp"]))
    print("workload: " + json.dumps(report["properties"]))
    rows = {**report["result"]["metrics"], **report["extra"]}
    for name, m in rows.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    for name in report["absent"]:
        print(f"  {name:32s} {'absent':>14s}")
    for failure in report["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "motzkin" / "cli.py").is_file():
        print(f"perfbench: no motzkin sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
