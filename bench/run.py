"""Closed-loop benchmark of the `contention` CLI.

Drives `contention.cli.main(argv)` in this process, one op at a time,
never with `--jobs`, over one of four workloads (see workloads.py and
README.md).  Run it from the repository root:

    python3 bench/run.py --workload sim-allp --seed 1 --seconds 20 --trace 0

With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced passes over the same inputs and reports
the per-layer metrics.  Every op's output goes through a correctness
gate, and a failed gate counts as a failed op.  Provenance and one line
per metric go to stdout; the last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is non-zero
only when the program under test cannot be loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SPAWNS = 11  # timed set-ups per run, after one that fills bytecode caches
MIN_PASSES = 3


def load_cli():
    """Import the program from the checkout's sources, or exit non-zero."""
    if not (ROOT / "src" / "contention" / "cli.py").is_file():
        sys.exit(f"error: no contention sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import contention.cli
    except ImportError as exc:
        sys.exit(f"error: cannot import contention.cli: {exc}")
    return contention.cli


def run_cli(main, argv):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the op fails; the run goes on
            traceback.print_exc()
            code = 1
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


@dataclass
class Pass:
    seconds: float = 0.0  # sum of the ops' CLI times, in reference seconds
    raw_seconds: float = 0.0  # the same in wall seconds
    op_seconds: dict = field(default_factory=dict)  # op key -> reference seconds
    items: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    output_bytes: int = 0


def run_pass(workload, pass_index: int, cli, op_log: list, scaler, tracer=None) -> Pass:
    result = Pass()
    main = cli.main
    if tracer is not None:
        def main(argv):
            return tracer.span("cli.main", cli.main, argv)
    for op in workload.ops(pass_index):
        if tracer is not None:
            tracer.install()
        try:
            code, out, err, seconds = run_cli(main, op.argv)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.end_op()
        result.op_seconds[op.key] = scaler.scale(seconds)
        result.seconds += result.op_seconds[op.key]
        result.raw_seconds += seconds
        op_log.append({"pass": pass_index, "argv": op.argv, "config_sha256": op.config_sha256})
        result.items += op.items
        result.attempted += 1
        result.output_bytes += len(out.encode())
        if "--samples-path" in op.argv:
            with contextlib.suppress(FileNotFoundError):
                result.output_bytes += os.path.getsize(op.argv[op.argv.index("--samples-path") + 1])
        failures = []
        if code != 0:
            failures.append(f"exit code {code}: {err.strip()[-300:]}")
        elif "Traceback" in err:
            failures.append("traceback on stderr")
        else:
            try:
                failures = op.check(out)
            except Exception as exc:  # malformed output fails the op
                failures = [f"gate could not read the output: {exc!r}"]
        result.failed += bool(failures)
        result.failures += [f"pass {pass_index} {' '.join(op.argv)}: {reason}" for reason in failures]
    return result


def measure_setup(workload: str, seed: int, work_dir: Path, scaler) -> float:
    """Median time from spawning a fresh interpreter to the first op ready."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(work_dir)]
    # Time imports from warm bytecode caches, as an installed package has
    # them, whatever the caller's environment says.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    times = []
    for spawn in range(SETUP_SPAWNS + 1):
        start = time.monotonic_ns()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        seconds = scaler.scale((int(proc.stdout.split()[-1]) - start) / 1e9)
        if spawn:
            times.append(seconds)
    return statistics.median(times)


def timed_run(workload, cli, args, work_dir, op_log):
    scaler = speed.Scaler()
    setup_s = measure_setup(args.workload, args.seed, work_dir, scaler)
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(workload, len(passes), cli, op_log, scaler))
    # A typical pass: each op at its median time over the passes.
    wall_s = sum(statistics.median(p.op_seconds[key] for p in passes) for key in passes[0].op_seconds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "trials_per_s": (passes[0].items / wall_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return metrics, passes, [], []


def traced_run(workload, cli, args, op_log):
    """Untraced and traced passes alternate on the inputs of pass 1."""
    scaler = speed.Scaler()
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < args.seconds:
        untraced.append(run_pass(workload, 1, cli, op_log, scaler))
        tracers.append(tracing.Tracer())
        traced.append(run_pass(workload, 1, cli, op_log, scaler, tracer=tracers[-1]))

    trials = 0 if args.workload == "analysis-sweep" else traced[0].items
    per_pass = [tracing.layer_metrics(t, trials, p.output_bytes, p.seconds / p.raw_seconds)
                for t, p in zip(tracers, traced)]
    checks = []
    for name in tracing.COUNTS:
        seen = {m[name] for m in per_pass}
        if len(seen) > 1:
            checks.append(f"self-check: {name} differs between traced passes: {sorted(seen)}")
    for m, t, p in zip(per_pass, tracers, traced):
        if m["engine.draws"] > m["protocols.decision_calls"]:
            checks.append("self-check: engine.draws exceeds protocols.decision_calls")
        if tracing.span_self_total_s(t) > p.raw_seconds:
            checks.append("self-check: span self times exceed the traced wall time")

    metrics = {
        name: (per_pass[0][name] if name in tracing.COUNTS else statistics.median(m[name] for m in per_pass), unit)
        for name, unit in tracing.PER_LAYER if name in per_pass[0]
    }
    overhead = statistics.median(p.seconds for p in traced) - statistics.median(p.seconds for p in untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    absent = tracing.absent_metrics(tracers[0])
    return metrics, untraced + traced, checks, absent


def git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = load_cli()
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    ops = []
    try:
        workload = workloads.make(args.workload, args.seed, work_dir)
        workload.prepare_gates(lambda argv: run_cli(cli.main, argv)[:3])
        if args.trace:
            metrics, passes, checks, absent = traced_run(workload, cli, args, ops)
        else:
            metrics, passes, checks, absent = timed_run(workload, cli, args, work_dir, ops)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = [reason for p in passes for reason in p.failures]
    provenance = {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_describe": git_describe(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "trials_per_op": workloads.TRIALS if args.workload != "analysis-sweep" else None,
        "passes": len(passes),
        "reference_s": speed.REFERENCE_S,
        "raw_wall_s": statistics.median(p.raw_seconds for p in passes),
        "absent": absent,
        "ops": ops,
    }
    print("provenance " + json.dumps(provenance))
    for reason in failures + checks:
        print(reason, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(f"metric error_rate {failed / attempted} ratio")
    print(json.dumps({
        "correct": not failures and not checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
