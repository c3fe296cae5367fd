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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            stdout, samples = replay(case, Path(tmp) / "samples.csv")
            (GOLDEN / f"{case}.out").write_bytes(stdout.encode())
            if samples is not None:
                (GOLDEN / f"{case}.samples.csv").write_bytes(samples)
            print(f"wrote {case}", file=sys.stderr)
