"""The names the benchmark's tracer wraps must exist where it looks for them.

``bench/spans.py`` replaces each traced entry point by a wrapper; a name that
has gone from its owner makes ``python3 bench/run.py --trace 1`` fail with a
``KeyError``.  This reads ``bench/`` and changes nothing there.
"""

import importlib.util
from pathlib import Path

from emduality import spinors

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_by_its_owner():
    missing = [(span, getattr(owner, "__name__", owner), attr)
               for span, owner, attr, _ in load_spans().targets()
               if attr not in vars(owner)]
    assert missing == []


def test_spinors_keeps_the_names_the_bench_tests_wrap():
    assert callable(spinors.christoffel)
    assert callable(spinors.partials)
