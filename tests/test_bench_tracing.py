"""The benchmark's tracer must find every boundary it wraps.

`bench/tracing.py` wraps public names of the package by their dotted
paths, and a name it cannot find only reads as "absent" in a traced
benchmark run.  Installing it here makes a rename fail the test suite
instead.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_finds_every_wrapped_boundary(monkeypatch):
    tracing = _load_tracing(monkeypatch)
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


def test_tracer_counts_trials_from_run_trials_outcomes(monkeypatch):
    # the tracer folds each op's outcomes into its engine counts by iterating them as TrialOutcomes
    tracing = _load_tracing(monkeypatch)
    import contention.engine
    from contention.engine import GameConfig, run_trial
    from contention.protocols import AgeBased
    from contention.schedule import Schedule

    spec = AgeBased(schedule=Schedule(Fraction(11, 10), 8), p=0.75)
    # every trial censored at a cap of 3; at 20, about half of them, so finished trials' slots count too
    configs = [GameConfig(n=3, profile=(spec,) * 3, seed=4, slot_cap=cap) for cap in (3, 20)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for config in configs:
            contention.engine.run_trials(config, 50)
        tracer.end_op()
    finally:
        tracer.uninstall()
    expected = [run_trial(config, idx) for config in configs for idx in range(50)]
    assert tracer.absent == set()
    assert tracer.counts["engine.slots"] == sum(out.slots_run for out in expected)
    assert tracer.counts["engine.max_slot"] == max(out.slots_run for out in expected)
    censored = sum(any(out.censored) for out in expected)
    assert tracer.counts["engine.censored_trials"] == censored and 50 < censored < 100
