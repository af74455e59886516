"""The perfbench tracer still finds every function it wraps.

A renamed or removed target makes the tracer skip it and report its
metrics absent; this catches that in the fast suite.  tracer.py is loaded
by file path, read-only, without putting perfbench on sys.path.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_resolves_every_target():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracer.TARGETS
        if tracer._resolve(module, attr) is None
    ]
    assert tracer.TARGETS
    assert missing == []
