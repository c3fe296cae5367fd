"""One set-up of a workload in a fresh interpreter, for `setup_s`.

Imports the CLI, generates the workload's first seed-derived inputs and
parses its game config, then prints `time.monotonic_ns()` at the moment
the first op is ready.  `run.py` starts this script several times and
measures from spawn to that moment.

    python3 bench/setup_probe.py WORKLOAD SEED WORK_DIR
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import contention.cli  # noqa: E402,F401  (the import is what is timed)
from contention import protocols  # noqa: E402

import workloads  # noqa: E402

workload = workloads.make(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
parse = getattr(protocols, "profile_from_json", None)
for op in workload.ops(1):
    if "--config" in op.argv and parse is not None:
        parse(json.loads(Path(op.argv[op.argv.index("--config") + 1]).read_text()))
print(time.monotonic_ns())
