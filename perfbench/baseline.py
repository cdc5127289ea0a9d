"""Single-case timings behind the ROADMAP baseline table.

Run from the repository root:

    python3 perfbench/baseline.py > perfbench/baseline_seed.json

Each case runs in a fresh interpreter, so library caches start cold, and is
repeated; the JSON on stdout holds every repeat, their median and the
environment.  perfbench/baseline_seed.json is this script's output at the
commit that introduced the benchmark.
"""

import json
import os
import statistics
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from run import environment  # noqa: E402  (needs qproduct on the path)
from workloads import scipy_import_s, wall_time  # noqa: E402

PRELUDE = (
    "from time import perf_counter\n"
    "from qproduct import characters\n"
    "from qproduct.poly import ProductSpec as P, ProgressionQuery as Q\n"
    "from qproduct.poly import expand_restricted_product, progression_sum_oracle\n"
)
# name: (statement, repeats); the rung noted in a name is the precision the
# certified route accepts at that input.
CASES = {
    "expand.s2_n300": ("expand_restricted_product(P(2, 300))", 3),
    "expand.s24_n40": ("expand_restricted_product(P(24, 40))", 3),
    "tau_progression.n40_j0": ("characters.tau_progression(40, 0)", 3),
    "progsum.oracle.s20_n50_N101": ("progression_sum_oracle(P(20, 50), Q(101, 0))", 3),
    "progsum.char.s8_n43_N99_128bit": ("characters.character_sum_main00(P(8, 43), Q(99, 5))", 3),
    "progsum.trig.s8_n43_N99_128bit": ("characters.trig_form_main0000(P(8, 43), Q(99, 5))", 3),
    "progsum.char.s12_n53_N60_256bit": ("characters.character_sum_main00(P(12, 53), Q(60, 7))", 3),
    "rows.char.s5_n40_N97_128bit": (
        "[characters.character_sum_main00(P(5, 40), Q(97, j)) for j in range(97)]", 1),
}


def time_case(statement: str) -> float:
    code = PRELUDE + f"t = perf_counter()\n{statement}\nprint(perf_counter() - t)\n"
    _, done = wall_time([sys.executable, "-c", code])
    done.check_returncode()
    return float(done.stdout)


def summary(values: list[float]) -> dict:
    return {"median_s": statistics.median(values), "runs_s": values}


def main() -> int:
    load1 = os.getloadavg()[0]
    cases = {
        "import_qproduct": summary(
            [wall_time([sys.executable, "-c", "import qproduct"])[0] for _ in range(5)]),
        "import_scipy_share": summary([
            scipy_import_s(wall_time([sys.executable, "-X", "importtime", "-c",
                                      "import qproduct"])[1].stderr.decode())
            for _ in range(3)]),
    }
    for name, (statement, repeats) in CASES.items():
        cases[name] = summary([time_case(statement) for _ in range(repeats)])
        print(name, cases[name]["median_s"], file=sys.stderr)
    json.dump({"environment": environment(load1), "cases": cases}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
