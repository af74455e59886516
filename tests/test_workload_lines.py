"""The benchmark's request lines, as the claims about them read them.

perfbench/workloads.py is loaded by file path, read-only, without putting
perfbench on sys.path, as test_tracer_targets.py loads tracer.py.  The
checks use sessions 0 and 1 at seed 11.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from motzkin import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEED = 11
SESSIONS = (0, 1)


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its own module up in sys.modules while it runs;
    # no bytecode is written next to it
    saved = sys.dont_write_bytecode
    sys.modules[spec.name] = module
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
        sys.dont_write_bytecode = saved
    return module


def _sessions(workloads, name):
    return [workloads.WORKLOADS[name](SEED, session) for session in SESSIONS]


@pytest.mark.parametrize("name, distinct", [
    ("series-cold", 46), ("specialize-warm", 74), ("check-enum", 137),
])
def test_every_request_line_is_read_as_argparse_reads_it(workloads, name, distinct):
    lines = {r.argv for requests in _sessions(workloads, name) for r in requests}
    assert len(lines) == distinct
    for command, *argv in sorted(lines):
        read = cli._read_args(command, argv)
        assert read is not None, (command, *argv)
        assert vars(read) == vars(cli._parser(command).parse_args(argv))


@pytest.mark.parametrize("name, series, repeats", [
    ("series-cold", 26, 0), ("specialize-warm", 104, 74), ("check-enum", 0, 0),
])
def test_only_specialize_warm_repeats_a_series_request(workloads, name, series, repeats):
    # a repeat is a series line sent before in the same session, which the
    # serving process answers from its caches and the text they kept
    for requests in _sessions(workloads, name):
        lines = [r.argv for r in requests if r.kind == "series"]
        assert len(lines) == series
        assert len(lines) - len(set(lines)) == repeats
