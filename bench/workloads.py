"""The benchmark's four workloads: the CLI ops each one runs, and the gates
that decide whether an op's output is correct.

Every generated config uses dyadic probabilities (0.75, 0.125, 0.9921875),
so a later switch to rational parsing of p and q cannot change any draw
comparison.  The program only ever sees the generated config files and
the argv of each op.

Importing this module must stay cheap: the set-up probe imports it, and
its import time counts towards `setup_s`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

NAMES = ("sim-allp", "sim-persistent", "sim-aloha", "analysis-sweep")

# Trials per `simulate` op.  Small enough that a run holds many ops (the
# median over them is what smooths out a shared machine), large enough
# that per-op CLI overhead stays a small share of an op.
TRIALS = 4000
SLOT_CAP = 10**6
# Pass 0 of every sim run uses this config seed, so each run checks the
# determinism contract against the digests below.
RECORDED_SEED = 7
# sha256 of the stdout JSON report of pass 0 (RECORDED_SEED, TRIALS trials).
# The report must stay byte-identical through every refactor.
RECORDED_DIGESTS = {
    "sim-allp": "3d9ac7a0c944478ffea33abedb908e60feb799d471ee327b2cebacbc5ad54574",
    "sim-persistent": "f7e97bb0e93b4c9fa783d34a1ea1fbaf0fdff86e5ffbfd0e0a25776219ec5fce",
    "sim-aloha": "4f12ddf9002a1f480b3cea312d723ccc5e6afd397fb3039aa1bbc9f2b20ae101",
}

REFERENCE = ("11/10", "0.75")
CORNER = ("10001/10000", "0.9921875")

_AGE_BASED = {"type": "age_based", "c": REFERENCE[0], "p": 0.75}
_CONSTANT = {"type": "constant_prob", "q": 0.125}

# E[latency of player 0] for three constant-q players:
# T3 + 2/3 T2 + 1/3 T1 with Tn = 1 / (n q (1-q)^(n-1)) and q = 1/8.
ALOHA_MEAN = 1352 / 147
# Closed-form bound on E[Y_3,0] at the reference point (about 2756.6).
LATENCY_BOUND = 2759
XI = {1: 0, 5: 2, 14: 6}


@dataclass
class Op:
    key: str  # the same op in every pass of a run has the same key
    argv: list
    items: int  # trials simulated, or 1 for a report op
    check: Callable[[str], list]  # stdout -> failure reasons
    config_sha256: str | None = None


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def derive_seed(workload: str, seed: int, pass_index: int) -> int:
    """Config seed of a pass; pass 0 of a sim run is the recorded seed."""
    return random.Random(f"{workload}:{seed}:{pass_index}").randrange(1, 2**31)


class SimWorkload:
    """One `simulate` op per pass on a fixed profile, with a fresh config
    seed per pass."""

    def __init__(self, name: str, seed: int, work_dir: Path):
        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        self.players, self.player, self.samples = {
            "sim-allp": ([_AGE_BASED] * 3, 0, False),
            "sim-persistent": ([_AGE_BASED, _AGE_BASED, {"type": "deadline", "t0": 1}], 2, True),
            "sim-aloha": ([_CONSTANT] * 3, 0, False),
        }[name]
        self.law = None  # persistent latency law, loaded by prepare_gates

    def config_seed(self, pass_index: int) -> int:
        return RECORDED_SEED if pass_index == 0 else derive_seed(self.name, self.seed, pass_index)

    def write_config(self, pass_index: int) -> tuple[Path, bytes]:
        config = {
            "n": len(self.players),
            "players": self.players,
            "seed": self.config_seed(pass_index),
            "slot_cap": SLOT_CAP,
        }
        data = json.dumps(config, indent=2).encode()
        path = self.work_dir / f"{self.name}-{pass_index}.json"
        path.write_bytes(data)
        return path, data

    def prepare_gates(self, run_cli) -> None:
        """Load the exact persistent law once per run, through the CLI."""
        if self.name != "sim-persistent":
            return
        code, out, err = run_cli(
            ["analyze", "--persistent", "--zmax", "120", "--c", REFERENCE[0], "--p", REFERENCE[1]]
        )
        if code != 0:
            raise RuntimeError(f"persistent law unavailable: {err.strip()}")
        self.law = json.loads(out)

    def ops(self, pass_index: int) -> list:
        path, data = self.write_config(pass_index)
        argv = ["simulate", "--config", str(path), "--trials", str(TRIALS), "--player", str(self.player)]
        samples = None
        if self.samples:
            samples = self.work_dir / f"{self.name}-samples.csv"
            argv += ["--samples-path", str(samples)]
        recorded = pass_index == 0

        def check(stdout: str) -> list:
            return self.check(stdout, path, samples, recorded)

        return [Op("simulate", argv, TRIALS, check, _sha256(data))]

    def check(self, stdout: str, config_path: Path, samples: Path | None, recorded: bool) -> list:
        failures = []
        if recorded and _sha256(stdout.encode()) != RECORDED_DIGESTS[self.name]:
            failures.append("stdout report differs from the recorded digest")
        report = json.loads(stdout)
        if report["trials"] != TRIALS:
            failures.append(f"report has {report['trials']} trials, expected {TRIALS}")
        censored_share = report["censored_count"] / TRIALS
        if self.name == "sim-allp":
            # Latency under all-protocol play has infinite variance
            # (beta c^2 > 1), so a mean +- k SE gate is unsound here.
            if not report["mean"] < LATENCY_BOUND:
                failures.append(f"mean {report['mean']} not below {LATENCY_BOUND}")
            if not censored_share < 1e-3:
                failures.append(f"censored share {censored_share} not below 1e-3")
        elif self.name == "sim-aloha":
            # 5 SE, not 4: a run makes about 50 of these ops and a full set
            # of runs about 1,000, and at 4 SE (two-sided 6e-5 per op) some
            # 6 % of sets would fail one by chance.  At 5 SE it is 6e-7.
            se = report["ci95_halfwidth"] / 1.96
            if not abs(report["mean"] - ALOHA_MEAN) <= 5 * se:
                failures.append(f"mean {report['mean']} more than 5 SE ({se}) from {ALOHA_MEAN}")
            if not censored_share < 1e-3:
                failures.append(f"censored share {censored_share} not below 1e-3")
        else:
            failures += self._check_persistent(report, config_path, samples)
        return failures

    def _check_persistent(self, report: dict, config_path: Path, samples: Path) -> list:
        failures = []
        latencies = {}  # trial_index -> per-player latency (None if censored)
        with open(samples, newline="") as fh:
            rows = csv.reader(fh)
            if next(rows) != ["trial_index", "player", "latency", "censored"]:
                return ["samples CSV header changed"]
            for trial, player, latency, censored in rows:
                if (latency == "") != (censored == "1"):
                    failures.append(f"trial {trial} player {player}: latency and censored flag disagree")
                latencies.setdefault(int(trial), [None] * 3)[int(player)] = int(latency) if latency else None
        if sorted(latencies) != list(range(TRIALS)):
            return failures + ["samples CSV does not hold one row per trial and player"]

        deviator = [lat[2] for lat in latencies.values()]
        values = [SLOT_CAP if lat is None else lat for lat in deviator]
        if deviator.count(None) != report["censored_count"]:
            failures.append("report censored_count disagrees with the samples CSV")
        if not math.isclose(sum(values) / TRIALS, report["mean"], rel_tol=1e-12):
            failures.append("report mean disagrees with the samples CSV")

        # The deviator can only succeed at a scheduled slot s_z.
        support = self.law["support"]
        off_support = {lat for lat in deviator if lat is not None} - set(support)
        if off_support:
            failures.append(f"deviator latencies off the schedule: {sorted(off_support)[:5]}")

        # TV distance over the first 20 support points.  Each trial moves
        # the TV by at most 1/N, so by McDiarmid P(TV > E[TV] + 4/sqrt(N))
        # <= exp(-32); and E[TV] <= 1/2 sum sqrt(p(1-p)/N) by Jensen.
        pmf = self.law["pmf"][:20]
        counts = {s: 0 for s in support[:20]}
        for lat in deviator:
            if lat in counts:
                counts[lat] += 1
        tv = 0.5 * sum(abs(counts[s] / TRIALS - p) for s, p in zip(support, pmf))
        limit = 0.5 * sum(math.sqrt(p * (1 - p) / TRIALS) for p in pmf) + 4 / math.sqrt(TRIALS)
        if not tv <= limit:
            failures.append(f"TV distance {tv:.4f} from the exact law exceeds {limit:.4f}")

        failures += self._oracle(config_path, latencies)
        return failures

    @staticmethod
    def _oracle(config_path: Path, latencies: dict) -> list:
        """Replay fixed trials with the scalar `run_trial` oracle."""
        from contention import engine, protocols

        data = json.loads(config_path.read_text())
        config = engine.GameConfig(
            n=data["n"],
            profile=tuple(protocols.profile_from_json(data)),
            seed=data["seed"],
            slot_cap=data["slot_cap"],
        )
        failures = []
        for index in sorted({0, 1, 2, 3} | {TRIALS * k // 8 for k in range(1, 8)} | {TRIALS - 1}):
            expected = list(engine.run_trial(config, index).latency)
            if expected != latencies[index]:
                failures.append(f"trial {index}: CSV {latencies[index]} != run_trial {expected}")
        return failures


class AnalysisSweep:
    """Sixteen report ops per pass: eight at the paper's reference point
    and eight at the feasible corner near c = 1, in a seed-shuffled order."""

    name = "analysis-sweep"

    def __init__(self, name: str, seed: int, work_dir: Path):
        self.seed = seed

    def prepare_gates(self, run_cli) -> None:
        pass

    def ops(self, pass_index: int) -> list:
        specs = []
        for point in (REFERENCE, CORNER):
            cp = ["--c", point[0], "--p", point[1]]
            ref = point == REFERENCE
            specs.append((["feasibility", *cp], lambda out, ref=ref: _check_feasibility(out, ref)))
            specs.append((["bounds", *cp], lambda out, ref=ref: _check_bounds(out, ref)))
            for semantics in ("literal", "paper-series"):
                specs.append((["analyze", "--semantics", semantics, "--K", "400", *cp],
                               lambda out, ref=ref, s=semantics: _check_enclosures(out, ref, s)))
            specs.append((["analyze", "--persistent", "--zmax", "400", *cp],
                           lambda out, ref=ref: _check_persistent_law(out, ref)))
            for t0 in XI:
                specs.append((["compare-deadline", "--t0", str(t0), *cp],
                               lambda out, t0=t0: _check_deadline(out, t0)))
        ops = [Op(" ".join(argv), argv, 1, check) for argv, check in specs]
        random.Random(f"analysis-sweep:{self.seed}:{pass_index}").shuffle(ops)
        return ops


def _check_feasibility(stdout: str, reference: bool) -> list:
    report = json.loads(stdout)
    exact = {name: thr["exact"] for name, thr in report["thresholds"].items()}
    if reference:
        expected = {"inv_1mp": "4/1", "inv_delta": "8/5", "inv_beta": "64/55", "persist_lb": "16/15"}
    else:
        # The corner's feasible window is 16384/16383 < c < 2097152/2096771.
        expected = {"inv_1mp": "128/1", "inv_delta": "8192/8065",
                    "inv_beta": "2097152/2096771", "persist_lb": "16384/16383"}
    failures = [] if exact == expected else [f"thresholds {exact} != {expected}"]
    if report["feasible"] is not True:
        failures.append("verdict is not feasible")
    return failures


def _check_bounds(stdout: str, reference: bool) -> list:
    report = json.loads(stdout)
    if not reference:
        return [] if 0 < report["delta_bound"] <= report["y30_upper"] else ["bounds out of order"]
    failures = []
    if not 755 <= report["delta_bound"] <= 756:
        failures.append(f"delta_bound {report['delta_bound']} not in [755, 756]")
    if not report["y30_upper"] <= LATENCY_BOUND:
        failures.append(f"y30_upper {report['y30_upper']} above {LATENCY_BOUND}")
    return failures


def _check_enclosures(stdout: str, reference: bool, semantics: str) -> list:
    report = json.loads(stdout)
    failures = []
    if report["semantics"] != semantics or report["truncation_K"] != 400:
        failures.append("report semantics or truncation changed")
    rows = [iv for key in ("y1", "y2", "y3") for iv in report[key]]
    if len(rows) != 3 * 401:
        failures.append(f"{len(rows)} enclosures, expected {3 * 401}")
    if any(not iv["lower"] <= iv["upper"] for iv in rows):
        failures.append("an enclosure has lower > upper")
    if reference and not report["y3"][0]["upper"] <= LATENCY_BOUND:
        failures.append(f"E[Y_3,0] enclosure {report['y3'][0]} above {LATENCY_BOUND}")
    return failures


def _check_persistent_law(stdout: str, reference: bool) -> list:
    report = json.loads(stdout)
    failures = []
    if report["divergent"] is not True:
        failures.append("persistent deviator not certified divergent")
    if reference and report["growth_rate"] != 1.03125:
        failures.append(f"growth_rate {report['growth_rate']} != 1.03125")
    if len(report["support"]) != 401 or not sum(report["pmf"]) <= 1:
        failures.append("persistent law has the wrong support or mass")
    return failures


def _check_deadline(stdout: str, t0: int) -> list:
    report = json.loads(stdout)
    failures = []
    if report["xi"] != XI[t0]:
        failures.append(f"xi {report['xi']} != {XI[t0]} for t0 = {t0}")
    if report["diverges"] is not True:
        failures.append("deadline deviator not certified divergent")
    return failures


def make(name: str, seed: int, work_dir: Path):
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    cls = AnalysisSweep if name == "analysis-sweep" else SimWorkload
    return cls(name, seed, work_dir)
