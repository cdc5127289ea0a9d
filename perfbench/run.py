"""qproduct benchmark: one seeded, closed-loop workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload {expand,progsum,rows,cli} \
        --seed N --seconds S --trace {0,1}

Set-up times a fresh interpreter's `import qproduct` three times (median),
then plans the seeded operations for twice the nominal rounds that fit in S
seconds and computes their reference answers; setup_s is the sum.

With --trace 0 the workload runs untraced, whole rounds at a time, until S
seconds have been spent inside operations (or the plan runs out), and the
last line of stdout is a JSON object whose metrics are BENCHMARK.json's
end_to_end list.  With --trace 1 it runs the first half of the plan, rounds
alternately traced and untraced, and the metrics are the per_layer list: busy
time per library layer from spans, workload properties from the traced
rounds (these repeat exactly for one seed), and the tracing overhead as
ops_per_s of traced against untraced rounds.  Layers the workload does not
call read 0; a layer it does call that leaves no measurement stops the run.
Every answer is checked as soon as its operation returns, outside the clock;
an operation that raises or answers wrong makes the exit code 1.  Each run
writes its environment, details and, when traced, its spans to
.bench_out/.
"""

from __future__ import annotations

import os

# One BLAS thread for this process and every child it starts; set before
# numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import random
import resource
import statistics
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples above the reported tail latency


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(load1: float) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "load1_at_start": load1,
        "blas_threads": 1,
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) of the highest rank with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Tally:
    """Latencies and outcomes of the operations run so far.

    Each result is checked, and its properties taken, as soon as its clock
    stops; then it is dropped, so memory holds one result at a time.  An
    operation fails if it raises one of `errors` or its answer is wrong; any
    failure fails the run.
    """

    def __init__(self, wl, tr, errors, props):
        self.wl, self.tr, self.errors, self.props = wl, tr, errors, props
        self.latencies: list[float] = []
        self.failed = 0

    def run(self, ops) -> float:
        """Run ops in order; return the seconds spent inside them."""
        busy = 0.0
        for op in ops:
            self.tr.op_id = len(self.latencies)
            start = perf_counter()
            try:
                with self.tr.span("bench.op"):
                    result = self.wl.run(op, self.tr)
            except self.errors as exc:
                result = exc
            latency = perf_counter() - start
            busy += latency
            self.latencies.append(latency)
            if isinstance(result, self.errors) or not self.wl.check(op, result):
                self.failed += 1
            elif self.tr.enabled:
                self.wl.add_properties(self.props, op, result)
        return busy


def layer_metrics(wl, measured: dict, per_layer: list[dict]) -> list[str]:
    """Check the traced run's metrics and fill in those of layers not run.

    Every metric the workload declares must have been measured and every
    measured one must be listed in BENCHMARK.json, so a lost or renamed span
    stops the run instead of reading 0.  A listed metric of a layer the
    workload does not call reads 0 (no calls, no time); their names are
    returned.
    """
    listed = {m["name"] for m in per_layer}
    layers = ("bench.op", *wl.layers)
    expected = {f"{layer}.{m}" for layer in layers for m in ("calls", "busy_s")}
    expected.update(wl.properties)
    missing = sorted(expected - measured.keys())
    unlisted = sorted(measured.keys() - listed)
    if missing or unlisted:
        raise RuntimeError(f"per-layer metrics not measured: {missing}; not in BENCHMARK.json: {unlisted}")
    not_run = sorted(listed - measured.keys())
    measured.update(dict.fromkeys(not_run, 0))
    return not_run


def main(argv=None) -> int:
    args = parse_args(argv)
    load1 = os.getloadavg()[0]
    if not (SRC / "qproduct" / "__init__.py").is_file():
        print(f"error: qproduct sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import workloads
    from qproduct.errors import ResourceLimitError
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()

    # Set-up: a fresh interpreter's import of qproduct, timed SETUP_REPEATS
    # times, plus planning the inputs and computing their references.
    import_s = statistics.median(
        workloads.wall_time([sys.executable, "-c", "import qproduct"])[0]
        for _ in range(SETUP_REPEATS)
    )
    start = perf_counter()
    rounds = wl.plan(random.Random(args.seed), 2 * math.ceil(args.seconds / wl.round_s))
    for op in (op for ops in rounds for op in ops):
        op.expected = wl.reference(op)
    setup_s = import_s + perf_counter() - start

    tr = Tracer()
    tally = Tally(wl, tr, (ResourceLimitError, ArithmeticError), workloads.Properties())
    details = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "planned_rounds": len(rounds)}
    probe_wrong = 0
    if args.trace:
        # Alternate traced and untraced rounds.  Their inputs and cache states
        # differ, so trace.overhead_frac resolves only a tracing cost larger
        # than the round-to-round spread of throughput.
        passes = {True: [0, 0.0], False: [0, 0.0]}
        for k, ops in enumerate(rounds[: len(rounds) // 2]):
            tr.enabled = k % 2 == 0
            passes[tr.enabled][0] += len(ops)
            passes[tr.enabled][1] += tally.run(ops)
        tr.enabled = True
        probes, probe_wrong = wl.layer_probes(tr)
        metrics = {**tally.props.metrics(), **probes}
        for name, (calls, busy) in tr.self_times().items():
            metrics[name + ".calls"] = calls
            metrics[name + ".busy_s"] = busy
        traced_rate = passes[True][0] / passes[True][1]
        untraced_rate = passes[False][0] / passes[False][1] if passes[False][0] else traced_rate
        metrics["trace.ops_per_s"] = traced_rate
        metrics["trace.untraced_ops_per_s"] = untraced_rate
        metrics["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
        details["layers_not_run"] = layer_metrics(wl, metrics, spec["per_layer"])
        wanted = spec["per_layer"]
    else:
        # The clock runs only inside operations: a closed loop whose caller
        # issues the next operation as soon as the last one returns.
        busy = 0.0
        for rounds_run, ops in enumerate(rounds, 1):
            busy += tally.run(ops)
            if busy >= args.seconds:
                break
        who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
        tail_s, tail_pct = tail(tally.latencies)
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(tally.latencies) / busy,
            "op_ms_p50": 1000.0 * statistics.median(tally.latencies),
            "op_ms_tail": 1000.0 * tail_s,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        }
        details.update(timed_s=busy, rounds_run=rounds_run, tail_percentile=tail_pct,
                       import_s=import_s)
        wanted = spec["end_to_end"]
    attempted = len(tally.latencies)
    failed = tally.failed
    details.update(attempted=attempted, failed=failed, fail_frac=failed / attempted,
                   probe_wrong=probe_wrong)

    result = {
        "correct": failed == 0 and probe_wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    env = environment(load1)
    OUT.mkdir(exist_ok=True)
    record = {"environment": env, "details": details, "result": result}
    if args.trace:
        record["spans"] = tr.dump()
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    for name, entry in result["metrics"].items():
        print(f"{wl.name} {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"{wl.name} fail_frac = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    if not args.trace:
        print(f"{wl.name} op_ms_tail is p{tail_pct:.1f} of {attempted} operations")
    print(json.dumps({"environment": env, "details": details}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
