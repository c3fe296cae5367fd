"""Byte-for-byte replay of every CLI subcommand against golden files.

Each case runs `contention.cli.main(argv)` and compares its stdout with
`tests/golden/<case>.out`, then runs it again with `--output-path` and
compares the file it writes with the same golden file; the persistent
`--samples-path` file is compared with
`tests/golden/simulate_persistent.samples.csv`.  The
`simulate` cases use the configs in `tests/golden/` (config seed 7) and
4,000 trials.

After a deliberate change of output, rewrite the golden files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

from contention.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
TRIALS = "4000"
CORNER = ("--c", "10001/10000", "--p", "0.9921875")  # feasible corner near c = 1


def _simulate(profile, player, *extra):
    config = str(GOLDEN / f"config-{profile}.json")
    return ["simulate", "--config", config, "--trials", TRIALS, "--player", str(player), *extra]


CASES = {
    "schedule_json": ["schedule"],
    "schedule_csv": ["schedule", "--output-format", "csv"],
    "feasibility": ["feasibility"],
    "bounds": ["bounds"],
    "analyze_literal": ["analyze"],
    "analyze_paper_series": ["analyze", "--semantics", "paper-series"],
    "analyze_literal_corner_k400": ["analyze", *CORNER, "--semantics", "literal", "--K", "400"],
    "analyze_paper_series_corner_k400": ["analyze", *CORNER, "--semantics", "paper-series", "--K", "400"],
    "analyze_persistent_json": ["analyze", "--persistent"],
    "analyze_persistent_csv": ["analyze", "--persistent", "--output-format", "csv"],
    "compare_deadline": ["compare-deadline", "--t0", "5"],
    "simulate_allp": _simulate("allp", 0),
    "simulate_aloha": _simulate("aloha", 0),
    "simulate_persistent": _simulate("persistent", 2),  # plus --samples-path
    "simulate_persistent_csv": _simulate("persistent", 2, "--output-format", "csv"),
}
SAMPLES_CASE = "simulate_persistent"


def replay(name, samples_path, *extra):
    """(stdout, samples bytes or None) of one case, run with the extra
    arguments appended."""
    argv = [*CASES[name], *extra]
    if name == SAMPLES_CASE:
        argv += ["--samples-path", str(samples_path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    samples = samples_path.read_bytes() if name == SAMPLES_CASE else None
    return out.getvalue(), samples


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    golden = (GOLDEN / f"{name}.out").read_bytes()
    stdout, samples = replay(name, tmp_path / "samples.csv")
    assert stdout.encode() == golden
    if samples is not None:
        assert samples == (GOLDEN / f"{name}.samples.csv").read_bytes()
    report = tmp_path / "report.out"
    stdout, _ = replay(name, tmp_path / "samples.csv", "--output-path", str(report))
    assert stdout == "" and report.read_bytes() == golden


REFERENCE = ("--c", "11/10", "--p", "0.75")  # the paper's reference point, as the bench writes it
# sha256 of the stdout of the 16 report argv of bench/workloads.py's analysis-sweep, recorded
# before the writer's bulk leaf encoding and the shifted rounding of the enclosures' endpoints;
# the reference-point K = 400 enclosures and both --zmax 400 laws have no golden file
SWEEP_DIGESTS = {
    ("analyze", "--persistent", "--zmax", "400", *CORNER): "c14e8ca871a931e88278ed07613d640ab9df54fa18a225152825a0aa04851ce4",
    ("analyze", "--persistent", "--zmax", "400", *REFERENCE): "9a6d9b4c0a5918a9c1787af71f55c93599ae78468e59eabf8cdc1016eab5d60d",
    ("analyze", "--semantics", "literal", "--K", "400", *CORNER): "211329655f87b90637e4bba9f8545da5c0a445af6560291d429dd5491ccc5a90",
    ("analyze", "--semantics", "literal", "--K", "400", *REFERENCE): "04142bd06704c927202d97e64790647aadb3220759b41a36d708f351afe24582",
    ("analyze", "--semantics", "paper-series", "--K", "400", *CORNER): "970a277ddc3d7292ff818f3a5ad36d38f7c49d551f74db9f74edc0453696df69",
    ("analyze", "--semantics", "paper-series", "--K", "400", *REFERENCE): "0a9201d41c7a0e44696c0fe5b3900a4795dd8fce470d92a5c295cfbc0cbe945d",
    ("bounds", *CORNER): "152ce2988f2a63d2445fea7c6292455603ea1115cd51e6adec3063e8f36ce7c9",
    ("bounds", *REFERENCE): "d72f0cbfe96f3d517e47632db3f2175935dcbf64fae91c8f93867840195adce2",
    ("compare-deadline", "--t0", "1", *CORNER): "80bb88fc0483bd503054a987a13b7865a51b3eb3165fdc1005686ac57f735db6",
    ("compare-deadline", "--t0", "1", *REFERENCE): "b449648a66d5189d0ff2edbf9b0d3b0c1f8bde012da2675ac193c5b74c512cd1",
    ("compare-deadline", "--t0", "14", *CORNER): "2b93c48482c720ef918843a194dfe5a524b2af5999a6fb6d97b36daa849d2983",
    ("compare-deadline", "--t0", "14", *REFERENCE): "3657f8fc856a7957b1b9f6280d019bed0a5ea5cfe3631b921661a6711f0f61d6",
    ("compare-deadline", "--t0", "5", *CORNER): "1e420113b40239b8f0059666527f1ff718124a9bf0c0a5237658cf4fd6777f05",
    ("compare-deadline", "--t0", "5", *REFERENCE): "1b37121b69e61c385efec9a36ff7dbe2c80add4beb85c6f13afe82ce3ea10451",
    ("feasibility", *CORNER): "7f98f9f0da20c3f2570da9b7b7db5e5b5a688898446ef7f1fba075ebad7a5446",
    ("feasibility", *REFERENCE): "e72e21fb856722157c9393b416e48c04d1d3f9719f54ac5298571ee1edf4651a",
}


@pytest.mark.parametrize("argv", sorted(SWEEP_DIGESTS), ids=" ".join)
def test_sweep_report_matches_its_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == SWEEP_DIGESTS[argv]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            stdout, samples = replay(case, Path(tmp) / "samples.csv")
            (GOLDEN / f"{case}.out").write_bytes(stdout.encode())
            if samples is not None:
                (GOLDEN / f"{case}.samples.csv").write_bytes(samples)
            print(f"wrote {case}", file=sys.stderr)
