"""Per-layer tracing of the contention package, from outside it.

The tracer wraps public functions at each module boundary (`schedule`,
`protocols`, `engine`, `analysis`, `cli`) where their callers look them
up, for the duration of one traced op, and restores them afterwards.
Functions called once per slot or per draw only count calls; spans go
only on coarse boundaries and are kept in memory until the run ends.
A boundary that a later refactor removes is reported as absent, and its
metrics read 0; that is never a failure.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import Counter, defaultdict

# (owner, attribute, span name): each call records one span.
SPANS = (
    ("contention.engine", "summarize", "engine.summarize"),
    ("contention.protocols", "profile_from_json", "protocols.profile_from_json"),
    ("contention.analysis", "persistent_distribution", "analysis.persistent_distribution"),
    ("contention.analysis", "deadline_comparison", "analysis.deadline_comparison"),
    ("contention.analysis", "bound_report", "analysis.bounds"),
)
# (owner, attribute, counter name): each call adds one to the counter.
COUNTERS = (
    ("contention.engine", "attempt_uniform", "engine.draws"),
    ("contention.engine", "decision_probability", "protocols.decision_calls"),
    ("contention.engine", "next_prob_change", "protocols.change_calls"),
    ("contention.schedule.Schedule", "nontrivial_index", "schedule.lookups"),
    ("contention.schedule.Schedule", "next_nontrivial_after", "schedule.lookups"),
)
# Boundaries with a wrapper of their own, below.
SPECIAL = (
    ("contention.engine", "run_trials"),
    ("contention.engine", "outcomes_to_csv_rows"),
    ("contention.analysis", "solve_expectations"),
    ("contention.schedule.Schedule", "extend_to"),
    ("contention.schedule.Schedule", "ensure_covers_time"),
)

# name, unit; the order in which the traced run reports them.
PER_LAYER = (
    ("engine.run_trials_s", "s"),
    ("engine.us_per_trial", "us"),
    ("engine.slots_per_trial", "slots"),
    ("engine.max_slot", "slot"),
    ("engine.censored_trials", "count"),
    ("engine.draws", "count"),
    ("engine.draws_per_trial", "count"),
    ("engine.us_per_draw", "us"),
    ("protocols.decision_calls", "count"),
    ("protocols.change_calls", "count"),
    ("schedule.lookups", "count"),
    ("engine.summarize_s", "s"),
    ("schedule.extend_s", "s"),
    ("schedule.entries_built", "count"),
    ("schedule.us_per_entry", "us"),
    ("analysis.solve_literal_s", "s"),
    ("analysis.solve_paper_series_s", "s"),
    ("analysis.persistent_distribution_s", "s"),
    ("analysis.deadline_comparison_s", "s"),
    ("analysis.bounds_s", "s"),
    ("protocols.profile_from_json_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "B"),
    ("engine.csv_rows", "count"),
    ("trace.overhead_s", "s"),
)
# Metrics that must repeat exactly when the same inputs are traced twice.
COUNTS = tuple(name for name, unit in PER_LAYER if unit in ("count", "slot", "slots", "B"))

# Metric -> the boundaries it is measured at; absent if any of them is.
_SOURCES = {
    "engine.run_trials_s": ("run_trials",),
    "engine.us_per_trial": ("run_trials",),
    "engine.slots_per_trial": ("run_trials", "TrialOutcome"),
    "engine.max_slot": ("run_trials", "TrialOutcome"),
    "engine.censored_trials": ("run_trials", "TrialOutcome"),
    "engine.draws": ("attempt_uniform",),
    "engine.draws_per_trial": ("attempt_uniform",),
    "engine.us_per_draw": ("run_trials", "attempt_uniform"),
    "protocols.decision_calls": ("decision_probability",),
    "protocols.change_calls": ("next_prob_change",),
    "schedule.lookups": ("nontrivial_index", "next_nontrivial_after"),
    "engine.summarize_s": ("summarize",),
    "schedule.extend_s": ("extend_to", "ensure_covers_time", "horizon_k"),
    "schedule.entries_built": ("extend_to", "ensure_covers_time", "horizon_k"),
    "schedule.us_per_entry": ("extend_to", "ensure_covers_time", "horizon_k"),
    "analysis.solve_literal_s": ("solve_expectations",),
    "analysis.solve_paper_series_s": ("solve_expectations",),
    "analysis.persistent_distribution_s": ("persistent_distribution",),
    "analysis.deadline_comparison_s": ("deadline_comparison",),
    "analysis.bounds_s": ("bound_report",),
    "protocols.profile_from_json_s": ("profile_from_json",),
    "engine.csv_rows": ("outcomes_to_csv_rows",),
}


def _resolve(path: str):
    """Module or class object for a dotted path, or None if it is gone."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, attr = path.rpartition(".")
        try:
            return getattr(importlib.import_module(module), attr, None)
        except ImportError:
            return None


class Tracer:
    """Spans and counters of the ops traced while it is installed."""

    def __init__(self):
        self.counts = Counter()
        # (name, span_id, parent_id, start_ns, end_ns, self_ns)
        self.spans = []
        self.absent = set()
        self.outcomes = []  # run_trials results, inspected after each op
        self._stack = []  # [span_id, child_ns] of each open span
        self._ids = itertools.count()
        self._saved = []  # (owner, attribute, original)
        self._in_schedule = False

    # -- spans ---------------------------------------------------------

    def _open(self):
        frame = [next(self._ids), 0]
        self._stack.append(frame)
        return frame, time.perf_counter_ns()

    def _close(self, name, frame, start, record=True):
        end = time.perf_counter_ns()
        self._stack.pop()
        duration = end - start
        if not record:
            return
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.spans.append((name, frame[0], parent[0] if parent else None, start, end, duration - frame[1]))

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        frame, start = self._open()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, frame, start)

    # -- wrappers ------------------------------------------------------

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _run_trials(self, fn):
        def wrapper(*args, **kwargs):
            outcomes = self.span("engine.run_trials", fn, *args, **kwargs)
            self.outcomes.append(outcomes)
            return outcomes
        return wrapper

    def _csv_rows(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for row in fn(*args, **kwargs):
                counts["engine.csv_rows"] += 1
                yield row
        return wrapper

    def _solve(self, fn):
        def wrapper(*args, **kwargs):
            semantics = kwargs.get("semantics", args[2] if len(args) > 2 else "literal")
            name = "analysis.solve_" + semantics.replace("-", "_")
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def _schedule(self, fn):
        """One span per outermost call that builds entries.  Per-trial
        horizon checks that build nothing leave no span."""
        def wrapper(sched, *args, **kwargs):
            if self._in_schedule:
                return fn(sched, *args, **kwargs)
            try:
                before = sched.horizon_k
            except AttributeError:
                self.absent.add("horizon_k")
                return fn(sched, *args, **kwargs)
            self._in_schedule = True
            frame, start = self._open()
            try:
                return fn(sched, *args, **kwargs)
            finally:
                built = sched.horizon_k - before
                self._close("schedule.extend", frame, start, record=built > 0)
                self._in_schedule = False
                self.counts["schedule.entries_built"] += built
        return wrapper

    def install(self) -> None:
        plan = [(owner, attr, lambda fn, name=name: self._spanned(name, fn)) for owner, attr, name in SPANS]
        plan += [(owner, attr, lambda fn, name=name: self._counted(name, fn)) for owner, attr, name in COUNTERS]
        special = {
            "run_trials": self._run_trials,
            "outcomes_to_csv_rows": self._csv_rows,
            "solve_expectations": self._solve,
            "extend_to": self._schedule,
            "ensure_covers_time": self._schedule,
        }
        plan += [(owner, attr, special[attr]) for owner, attr in SPECIAL]
        for path, attr, wrap in plan:
            owner = _resolve(path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.add(attr)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def end_op(self) -> None:
        """Fold the op's trial outcomes into counts, outside any span."""
        counts = self.counts
        try:
            for outcomes in self.outcomes:
                for out in outcomes:
                    counts["engine.slots"] += out.slots_run
                    counts["engine.max_slot"] = max(counts["engine.max_slot"], out.slots_run)
                    counts["engine.censored_trials"] += any(out.censored)
        except (AttributeError, TypeError):
            self.absent.add("TrialOutcome")
        self.outcomes.clear()


def layer_metrics(tracer: Tracer, trials: int, output_bytes: int, scale: float) -> dict:
    """Per-layer metrics of one traced pass, without `trace.overhead_s`.
    Times are multiplied by scale, the pass's reference-speed factor."""
    inclusive = defaultdict(float)
    self_ns = defaultdict(float)
    for name, _, _, start, end, own in tracer.spans:
        inclusive[name] += (end - start) * scale
        self_ns[name] += own * scale
    counts = tracer.counts

    def per(total, base):
        return total / base if base else 0.0

    run_trials_s = inclusive["engine.run_trials"] / 1e9
    extend_s = inclusive["schedule.extend"] / 1e9
    values = {
        "engine.run_trials_s": run_trials_s,
        "engine.us_per_trial": per(run_trials_s * 1e6, trials),
        "engine.slots_per_trial": per(counts["engine.slots"], trials),
        "engine.max_slot": counts["engine.max_slot"],
        "engine.censored_trials": counts["engine.censored_trials"],
        "engine.draws": counts["engine.draws"],
        "engine.draws_per_trial": per(counts["engine.draws"], trials),
        "engine.us_per_draw": per(run_trials_s * 1e6, counts["engine.draws"]),
        "protocols.decision_calls": counts["protocols.decision_calls"],
        "protocols.change_calls": counts["protocols.change_calls"],
        "schedule.lookups": counts["schedule.lookups"],
        "engine.summarize_s": inclusive["engine.summarize"] / 1e9,
        "schedule.extend_s": extend_s,
        "schedule.entries_built": counts["schedule.entries_built"],
        "schedule.us_per_entry": per(extend_s * 1e6, counts["schedule.entries_built"]),
        "analysis.solve_literal_s": self_ns["analysis.solve_literal"] / 1e9,
        "analysis.solve_paper_series_s": self_ns["analysis.solve_paper_series"] / 1e9,
        "analysis.persistent_distribution_s": self_ns["analysis.persistent_distribution"] / 1e9,
        "analysis.deadline_comparison_s": self_ns["analysis.deadline_comparison"] / 1e9,
        "analysis.bounds_s": self_ns["analysis.bounds"] / 1e9,
        "protocols.profile_from_json_s": inclusive["protocols.profile_from_json"] / 1e9,
        "cli.self_s": self_ns["cli.main"] / 1e9,
        "cli.output_bytes": output_bytes,
        "engine.csv_rows": counts["engine.csv_rows"],
    }
    for metric, sources in _SOURCES.items():
        if tracer.absent.intersection(sources):
            values[metric] = 0
    return values


def absent_metrics(tracer: Tracer) -> list:
    return sorted(m for m, sources in _SOURCES.items() if tracer.absent.intersection(sources))


def span_self_total_s(tracer: Tracer) -> float:
    return sum(span[5] for span in tracer.spans) / 1e9
