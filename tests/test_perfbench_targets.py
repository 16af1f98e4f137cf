"""The traced benchmark wraps admatch entry points by name; each must exist.

``perfbench/spans.py`` rebinds every ``(owner, attribute)`` in its
``TARGETS`` when a run is traced. A deleted or renamed entry point would
otherwise fail only a traced benchmark run, not the test suite.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    # read-only: leave no bytecode cache beside the benchmark's files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(monkeypatch):
    spans = load_spans(monkeypatch)
    missing = []
    for owner, attr, _ in spans.TARGETS:
        # install() reads a class's own __dict__ and a module's attributes
        found = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        if not found:
            missing.append(f"{owner.__name__}.{attr}")
    assert missing == []
