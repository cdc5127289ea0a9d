"""Record the CLI workload's expected stdout and exit codes.

Run once from the repository root at a commit whose CLI output is trusted:

    python3 perfbench/record_golden.py

It runs every command below as `python -m qproduct ...` and writes
perfbench/cli_golden.json.  The benchmark compares each later run with these
bytes, so re-recording is only right when a change of output is intended.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import GOLDEN, wall_time  # noqa: E402  (needs qproduct on the path)

COMMANDS = (
    ["expand", "--s", "2", "--n", "12"],
    ["expand", "--s", "3", "--n", "8", "--format", "json"],
    ["progsum", "--s", "5", "--n", "20", "--N", "31", "--j", "7", "--method", "oracle"],
    ["progsum", "--s", "5", "--n", "20", "--N", "31", "--j", "7", "--method", "character"],
    ["progsum", "--s", "5", "--n", "20", "--N", "31", "--j", "7", "--method", "trig"],
    ["coeff", "--s", "2", "--n", "8", "--j", "20", "--method", "character"],
    ["series", "--name", "pentagonal", "--max", "200"],
    ["series", "--name", "hecke-rogers", "--max", "100", "--format", "csv"],
    ["tau", "--n", "6"],
    ["kconst"],
    ["maxfit", "--s", "1", "--nmin", "20", "--nmax", "80", "--step", "20"],
    ["verify", "--all", "--smax", "2", "--nmax", "4"],
    # The as-printed exponent convention fails the cube identity: exit 1.
    ["verify", "--theorem", "jacobi", "--convention", "as-printed"],
)


def main() -> int:
    entries = []
    for argv in COMMANDS:
        _, done = wall_time([sys.executable, "-m", "qproduct", *argv])
        entries.append({"argv": argv, "exit": done.returncode, "stdout": done.stdout.decode()})
        print(done.returncode, " ".join(argv), file=sys.stderr)
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
