"""The benchmark's tracer must find every boundary it wraps.

`bench/tracing.py` wraps public names of the package by their dotted
paths, and a name it cannot find only reads as "absent" in a traced
benchmark run.  Installing it here makes a rename fail the test suite
instead.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_tracer_finds_every_wrapped_boundary(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from contention.schedule import Schedule

    original = Schedule.nontrivial_index
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == set()
        assert Schedule.nontrivial_index is not original
    finally:
        tracer.uninstall()
    assert Schedule.nontrivial_index is original
