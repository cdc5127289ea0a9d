"""The benchmark's workloads: expand, progsum, rows and cli.

Each workload is a closed loop: one caller in one process issues an
operation, waits for its result and issues the next.  Operations come in
rounds.  A round holds one operation per slot, and each slot draws its inputs
from a narrow seeded range, so every round costs about the same; a run that
stops at a round boundary measures the same mix on every seed.

Reference answers are computed in set-up.  Arithmetic answers come from
`product_mod`, an exact kernel of the benchmark's own that shares no code
with the library routes it checks; the CLI answers are the stdout bytes and
exit codes recorded in cli_golden.json.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qproduct import asymptotics, characters, cli, partitions, poly
from qproduct.poly import ProductSpec, ProgressionQuery

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "cli_golden.json"


@dataclass
class Op:
    """One benchmark operation: a kind, its seeded inputs, its reference."""

    kind: str
    args: tuple
    expected: object = None


def product_mod(s: int, n: int, size: int, cyclic: bool) -> list[int]:
    """Exact coefficients of prod_{a<=n} (1 - q^a)^s, reduced to `size` terms.

    Reduction is mod q^size - 1 when `cyclic` (entry j is the progression sum
    over exponents = j mod size) and mod q^size otherwise (the low
    coefficients).  Each step multiplies by one factor (1 - q^a).
    """
    arr = np.zeros(size, dtype=object)
    arr[0] = 1
    for a in range(1, n + 1):
        if not cyclic and a >= size:
            break
        for _ in range(s):
            if cyclic:
                arr = arr - np.roll(arr, a)
            else:
                arr[a:] = arr[a:] - arr[:-a]
    return [int(c) for c in arr]


def _deck(rng: random.Random, items):
    """Seeded shuffle of `items`, cycled; repeats only once all are used."""
    items = list(items)
    rng.shuffle(items)
    return itertools.cycle(items)


def _repeat_share(keys: list) -> float:
    return 1.0 - len(set(keys)) / len(keys) if keys else 0.0


class Properties:
    """Workload properties: counts that depend only on inputs and exact outputs."""

    def __init__(self):
        self.poly: list = []  # (s, n) of each expansion or oracle call
        self.cert: list = []  # (route, s, n, N) of each certified call
        self.rungs: Counter = Counter()  # accepted precision bits
        self.coeffs = 0
        self.bits = 0

    def metrics(self) -> dict[str, float]:
        """The properties of the calls recorded; a share needs at least one call."""
        out = {}
        if self.coeffs:
            out["poly.expand.coeffs_out"] = self.coeffs
            out["poly.expand.bits_out"] = self.bits
        if self.poly:
            out["poly.repeat_share"] = _repeat_share(self.poly)
        if self.cert:
            out["characters.repeat_share"] = _repeat_share(self.cert)
        certified = sum(self.rungs.values())
        if certified:
            mp = sum(c for bits, c in self.rungs.items() if bits > 53)
            out["characters.mp_share"] = mp / certified
            for bits in RUNGS:
                out[f"characters.rung.{bits}"] = self.rungs[bits]
        return out


RUNGS = (characters.FAST_PRECISION_BITS, *characters.MP_PRECISION_LADDER)
CERTIFIED_PROPERTIES = (
    "poly.repeat_share",
    "characters.repeat_share",
    "characters.mp_share",
    *(f"characters.rung.{bits}" for bits in RUNGS),
)


class Workload:
    """Plans rounds of operations and runs, checks and describes each one.

    Subclasses define `name`, `round_s` (the nominal length of one round at
    the commit that introduced the benchmark, used only to size the plan),
    `layers` and `properties` (the span names and the property and probe
    metrics the traced run must produce) and `_run_<kind>`, `_ref_<kind>` and
    `_check_<kind>` for every operation kind they plan.  `_props_<kind>` adds
    an operation's workload properties.
    """

    name = ""
    round_s = 1.0
    layers: tuple[str, ...] = ()
    properties: tuple[str, ...] = ()

    def plan(self, rng: random.Random, rounds: int) -> list[list[Op]]:
        raise NotImplementedError

    def run(self, op: Op, tr):
        return getattr(self, "_run_" + op.kind)(tr, *op.args)

    def reference(self, op: Op):
        return getattr(self, "_ref_" + op.kind)(*op.args)

    def check(self, op: Op, result) -> bool:
        return getattr(self, "_check_" + op.kind)(op, result)

    def add_properties(self, props: Properties, op: Op, result) -> None:
        add = getattr(self, "_props_" + op.kind, None)
        if add is not None:
            add(op, result, props)

    def layer_probes(self, tr) -> tuple[dict[str, float], int]:
        """Extra per-layer measurements for the traced run; (metrics, wrong)."""
        return {}, 0


# ---------------------------------------------------------------------------
# expand: full coefficient vectors; the exact kernel does nearly all the work


def _cost_pairs(s_values, target: float) -> list[tuple[int, int]]:
    """(s, n) with s in s_values and s^2 n^3, the kernel's cost, within 12% of target."""
    pairs = []
    for s in s_values:
        n0 = (target / s**2) ** (1 / 3)
        pairs.extend((s, n) for n in range(round(0.96 * n0), round(1.04 * n0) + 1))
    return pairs


SERIES = {"pentagonal": 1, "hecke-rogers": 2, "jacobi": 3}


class Expand(Workload):
    name = "expand"
    round_s = 3.0
    layers = ("poly.expand", "asymptotics.fit", "asymptotics.circle", "asymptotics.kconst",
              "partitions.parity", "partitions.series")
    properties = ("poly.expand.coeffs_out", "poly.expand.bits_out", "poly.repeat_share")
    # One expand_restricted_product per slot and round: (s values, s^2 n^3).
    # Slots that share an s differ in target by at least 1.5x, so no (s, n)
    # falls in two slots and no expansion repeats in a run of up to 8 rounds.
    SLOTS = (
        (range(1, 3), 5e6),
        ((4,), 1.2e7),  # the median operation of a round: one s keeps it tight
        (range(4, 9), 1.8e7),
        (range(1, 4), 2.4e7),
        (range(7, 13), 3e7),
        (range(13, 25), 3e7),
        (range(2, 4), 7e7),
    )
    TAU_N = range(34, 39)
    # unit_circle_max holds n * 4 * degree floats at once; at n <= 50 that
    # stays a few MB, so the allocator's reuse of large blocks does not make
    # the run's peak memory depend on the order of operations.
    CIRCLE = [(s, n) for s in (1, 2) for n in range(40, 51)]
    PREFIX = 64  # low coefficients compared with the reference

    def plan(self, rng, rounds):
        decks = [_deck(rng, _cost_pairs(s_values, t)) for s_values, t in self.SLOTS]
        tau = _deck(rng, self.TAU_N)
        circle = _deck(rng, self.CIRCLE)
        plan = []
        for _ in range(rounds):
            nmin = rng.randint(20, 30)
            ops = [Op("expand", next(deck)) for deck in decks] + [
                Op("tau_expand", (next(tau),)),
                Op("fit", (rng.randint(1, 2), nmin, nmin + 40, rng.choice((10, 20)))),
                Op("parity", (rng.randint(1, 3), rng.randint(30, 60), rng.randint(200, 400))),
                Op("circle", next(circle)),
                Op("kconst", (rng.choice((1e-6, 1e-7, 1e-8)),)),
                Op("series", (rng.choice(sorted(SERIES)), rng.randint(500, 1000))),
            ]
            rng.shuffle(ops)
            plan.append(ops)
        return plan

    def _run_expand(self, tr, s, n):
        with tr.span("poly.expand"):
            return poly.expand_restricted_product(ProductSpec(s, n))

    def _ref_expand(self, s, n):
        if s == 1:  # the pentagonal series is the s = 1 prefix up to q^n
            terms = partitions.pentagonal_series(self.PREFIX)
            return partitions.series_to_coeffs(terms, self.PREFIX)
        return product_mod(s, n, self.PREFIX + 1, cyclic=False)

    def _check_expand(self, op, p):
        s, n = op.args
        spec = ProductSpec(s, n)
        c = p.coeffs
        return (
            len(c) == spec.degree + 1
            and c[-1] == (-1) ** (s * n)
            and sum(c) == 0  # T(1) = 0
            and poly.reverse_negate_check(p, spec)
            and c[: self.PREFIX + 1] == op.expected
        )

    def _props_expand(self, op, p, props):
        props.poly.append(op.args)
        props.coeffs += len(p.coeffs)
        props.bits += sum(abs(c).bit_length() for c in p.coeffs)

    def _run_tau_expand(self, tr, n):
        with tr.span("poly.expand"):
            return partitions.truncated_tau(n)

    def _ref_tau_expand(self, n):
        return self._ref_expand(24, n)

    def _check_tau_expand(self, op, p):
        return self._check_expand(Op("expand", (24, op.args[0]), op.expected), p)

    def _props_tau_expand(self, op, p, props):
        self._props_expand(Op("expand", (24, op.args[0])), p, props)

    def _run_fit(self, tr, s, nmin, nmax, step):
        with tr.span("asymptotics.fit"):
            return asymptotics.asymptotic_fit(s, nmin, nmax, step)

    def _ref_fit(self, s, nmin, nmax, step):
        logs = []
        for n in range(nmin, nmax + 1, step):
            c = product_mod(s, n, ProductSpec(s, n).degree + 1, cyclic=False)
            logs.append(math.log(max(map(abs, c))))
        return tuple(logs)

    def _check_fit(self, op, fit):
        s, nmin, nmax, step = op.args
        return fit.n_values == tuple(range(nmin, nmax + 1, step)) and fit.log_max == op.expected

    def _run_parity(self, tr, s, n, j):
        with tr.span("partitions.parity"):
            return partitions.parity_counts(s, n, j)

    def _ref_parity(self, s, n, j):
        return product_mod(s, n, j + 1, cyclic=False)[j]

    def _check_parity(self, op, counts):
        return counts.difference == op.expected and counts.even >= 0 and counts.odd >= 0

    def _run_circle(self, tr, s, n):
        with tr.span("asymptotics.circle"):
            return asymptotics.unit_circle_max(ProductSpec(s, n))

    def _ref_circle(self, s, n):
        c = product_mod(s, n, ProductSpec(s, n).degree + 1, cyclic=False)
        return max(map(abs, c)), sum(map(abs, c))

    def _check_circle(self, op, sup):
        # Cauchy bounds: max |t_j| <= sup |T| <= sum |t_j|; the grid estimate is
        # a lower bound on the true sup, hence the slack on the left.
        biggest, total = op.expected
        return biggest <= sup * (1 + 1e-6) and sup <= total * (1 + 1e-12)

    def _run_kconst(self, tr, rel_tol):
        with tr.span("asymptotics.kconst"):
            return asymptotics.sudler_constant(rel_tol)

    def _ref_kconst(self, rel_tol):
        return asymptotics.K_REFERENCE

    def _check_kconst(self, op, k):
        return abs(k.value - op.expected) <= 5e-5 and 0.5 < k.argmax_w < 1.0

    def _run_series(self, tr, name, max_exponent):
        with tr.span("partitions.series"):
            if name == "pentagonal":
                return partitions.pentagonal_series(max_exponent)
            if name == "jacobi":
                return partitions.jacobi_series(max_exponent)
            return partitions.hecke_rogers_series(max_exponent)

    def _ref_series(self, name, max_exponent):
        # The full series and the product truncated at n = max_exponent agree
        # up to q^max_exponent.
        return product_mod(SERIES[name], max_exponent, max_exponent + 1, cyclic=False)

    def _check_series(self, op, terms):
        return partitions.series_to_coeffs(terms, op.args[1]) == op.expected


# ---------------------------------------------------------------------------
# progsum: single progression-sum queries, each (s, n) new to the run


def _band_pairs(s_values, n_values, lo: int, hi: int) -> list[tuple[int, int]]:
    """(s, n) with s in s_values, n in n_values and lo <= s*n <= hi."""
    return [(s, n) for s in s_values for n in n_values if lo <= s * n <= hi]


class Progsum(Workload):
    name = "progsum"
    round_s = 1.1
    layers = ("poly.oracle", "characters.char_sum", "characters.trig")
    properties = CERTIFIED_PROPERTIES
    # One query per slot and round: (s values, n values, s*n band, moduli).
    # The slots accept at 53, mostly 53-64, 128, 128 and 256 bits; the s*n
    # bands are disjoint, so no (s, n) repeats in a run of up to 24 rounds.
    SLOTS = (
        (range(2, 4), range(30, 56), (60, 110), (100, 120)),
        (range(5, 12), range(13, 31), (110, 145), (100, 120)),
        (range(1, 13), range(22, 33), (200, 260), (100, 120)),
        (range(1, 13), range(28, 43), (290, 345), (100, 120)),
        (range(11, 13), range(38, 53), (380, 600), (100, 120)),
    )

    def plan(self, rng, rounds):
        decks = [
            (_deck(rng, _band_pairs(s_values, n_values, lo, hi)), moduli)
            for s_values, n_values, (lo, hi), moduli in self.SLOTS
        ]
        plan = []
        for _ in range(rounds):
            ops = []
            for deck, moduli in decks:
                s, n = next(deck)
                modulus = rng.randint(*moduli)
                ops.append(Op("progsum", (s, n, modulus, rng.randrange(modulus))))
            rng.shuffle(ops)
            plan.append(ops)
        return plan

    def _run_progsum(self, tr, s, n, modulus, j):
        spec, query = ProductSpec(s, n), ProgressionQuery(modulus, j)
        with tr.span("poly.oracle"):
            oracle = poly.progression_sum_oracle(spec, query)
        with tr.span("characters.char_sum"):
            char = characters.character_sum_with_precision(spec, query)
        with tr.span("characters.trig"):
            trig = characters.trig_form_with_precision(spec, query)
        return oracle, char, trig

    def _ref_progsum(self, s, n, modulus, j):
        return product_mod(s, n, modulus, cyclic=True)[j]

    def _check_progsum(self, op, result):
        oracle, (char, _), (trig, _) = result
        return oracle == char == trig == op.expected

    def _props_progsum(self, op, result, props):
        s, n, modulus, _ = op.args
        props.poly.append((s, n))
        props.cert += [("char", s, n, modulus), ("trig", s, n, modulus)]
        props.rungs.update((result[1][1], result[2][1]))


# ---------------------------------------------------------------------------
# rows: every residue of one (s, n, N), so per-spec caches are reused


class Rows(Workload):
    name = "rows"
    round_s = 1.0
    layers = ("characters.char_sum", "characters.trig", "characters.main0", "characters.tau")
    properties = CERTIFIED_PROPERTIES
    # Rows per round: (s values, n values, N - n values) for each slot.  Each
    # box accepts at one rung (53, 64, 128 and 256 bits; the 128-bit box runs
    # twice), so rows may repeat, which costs the same: the mp path
    # recomputes every product.
    SLOTS = (
        (range(2, 7), range(8, 17), range(2, 13)),
        ((11, 12), (9, 10), (13,)),
        (range(24, 28), (9, 10), (8, 11)),
        (range(24, 28), (9, 10), (8, 11)),
        (range(36, 47), (11,), (6, 9)),
    )
    MAIN0 = [(s, n) for s in (1, 2, 3) for n in range(4, 10)]
    # Few tau rows, cycled: the first pass over them expands, later ones hit
    # the expansion cache.
    TAU_N = range(30, 35)

    def plan(self, rng, rounds):
        decks = [
            (_deck(rng, itertools.product(s_values, n_values)), offsets)
            for s_values, n_values, offsets in self.SLOTS
        ]
        main0 = _deck(rng, self.MAIN0)
        tau = _deck(rng, self.TAU_N)
        plan = []
        for _ in range(rounds):
            ops = []
            for deck, offsets in decks:
                s, n = next(deck)
                ops.append(Op("row", (s, n, n + rng.choice(offsets))))
            ops += [Op("main0", next(main0)), Op("tau", (next(tau),))]
            rng.shuffle(ops)
            plan.append(ops)
        return plan

    def _run_row(self, tr, s, n, modulus):
        spec = ProductSpec(s, n)
        out = []
        for j in range(modulus):
            query = ProgressionQuery(modulus, j)
            with tr.span("characters.char_sum"):
                char = characters.character_sum_with_precision(spec, query)
            with tr.span("characters.trig"):
                trig = characters.trig_form_with_precision(spec, query)
            out.append((char, trig))
        return out

    def _ref_row(self, s, n, modulus):
        return product_mod(s, n, modulus, cyclic=True)

    def _check_row(self, op, row):
        return [c for (c, _), _ in row] == [t for _, (t, _) in row] == op.expected

    def _props_row(self, op, row, props):
        s, n, modulus = op.args
        for (_, char_bits), (_, trig_bits) in row:
            props.cert += [("char", s, n, modulus), ("trig", s, n, modulus)]
            props.rungs.update((char_bits, trig_bits))

    def _run_main0(self, tr, s, n):
        spec = ProductSpec(s, n)
        out = []
        for j in range(spec.degree + 1):
            with tr.span("characters.main0"):
                out.append(characters.single_coefficient_main0(spec, j))
        return out

    def _ref_main0(self, s, n):
        return product_mod(s, n, ProductSpec(s, n).degree + 1, cyclic=False)

    def _check_main0(self, op, coeffs):
        return coeffs == op.expected

    def _run_tau(self, tr, n):
        out = []
        for j in range(n + 1):
            with tr.span("characters.tau"):
                out.append(characters.tau_progression(n, j))
        return out

    def _ref_tau(self, n):
        return product_mod(24, n, n + 1, cyclic=True)

    def _check_tau(self, op, values):
        return values == op.expected

    def _props_tau(self, op, values, props):
        # tau_progression cross-checks each value with the expansion oracle.
        props.poly += [(24, op.args[0])] * len(values)


# ---------------------------------------------------------------------------
# cli: one `python -m qproduct` subprocess per operation


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def wall_time(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run a child interpreter to completion; (seconds, completed process)."""
    start = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, env=cli_env(), cwd=ROOT, timeout=170)
    return time.perf_counter() - start, done


class Cli(Workload):
    name = "cli"
    round_s = 9.0
    PROBE_REPEATS = 3

    properties = ("cli.startup_s", "cli.bare_python_s", "cli.import.scipy_s")

    def __init__(self):
        self.commands = json.loads(GOLDEN.read_text())
        subcommands = sorted({entry["argv"][0] for entry in self.commands})
        self.layers = ("cli.subprocess", *(f"cli.inproc.{sub}" for sub in subcommands))

    def plan(self, rng, rounds):
        plan = []
        for _ in range(rounds):
            ops = [Op("cli", (i,)) for i in range(len(self.commands))]
            rng.shuffle(ops)
            plan.append(ops)
        return plan

    def _run_cli(self, tr, index):
        argv = self.commands[index]["argv"]
        with tr.span("cli.subprocess"):
            _, done = wall_time([sys.executable, "-m", "qproduct", *argv])
        return done.returncode, done.stdout

    def _ref_cli(self, index):
        entry = self.commands[index]
        return entry["exit"], entry["stdout"].encode()

    def _check_cli(self, op, result):
        return result == op.expected

    def layer_probes(self, tr):
        metrics = {}
        for name, code in (("cli.startup_s", "import qproduct"), ("cli.bare_python_s", "pass")):
            times = [wall_time([sys.executable, "-c", code])[0] for _ in range(self.PROBE_REPEATS)]
            metrics[name] = sorted(times)[len(times) // 2]
        _, done = wall_time([sys.executable, "-X", "importtime", "-c", "import qproduct"])
        metrics["cli.import.scipy_s"] = scipy_import_s(done.stderr.decode())
        wrong = 0
        for entry in self.commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                with tr.span("cli.inproc." + entry["argv"][0]):
                    code = cli.main(list(entry["argv"]))
            wrong += (code, out.getvalue()) != (entry["exit"], entry["stdout"])
        return metrics, wrong


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative seconds of the outermost scipy imports in a -X importtime log."""
    rows = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        module = name.strip()
        if not cumulative.strip().isdigit():  # the column header
            continue
        if module == "scipy" or module.startswith("scipy."):
            depth = len(name) - len(name.lstrip())
            rows.append((depth, int(cumulative)))
    if not rows:
        return 0.0
    top = min(depth for depth, _ in rows)
    return sum(us for depth, us in rows if depth == top) / 1e6


WORKLOADS = {w.name: w for w in (Expand, Progsum, Rows, Cli)}
