"""One fresh interpreter that sets up one workload, runs it and checks it.

``run.py`` starts this file as a child process.  The worker imports the
program from ``src/`` of the checkout it lives in, makes the workload's
inputs from the seed and prints ``READY`` once set-up is done.  With
``--setup-only`` it stops there.  Otherwise it repeats the workload's
operation until ``--seconds`` are used, checks every output outside the
timed interval and prints one ``RESULT <json>`` line.  With ``--trace 1``
the program's public functions are wrapped by :mod:`tracer` first and the
result carries per-layer numbers instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracer as tracing  # noqa: E402

# |w|, modulus of the dominant subunit characteristic root of the fair
# six-sided die (acceptance criterion 2 pins it to ten digits).
MODULUS_W = 0.7302499667
# Guard digits the program adds to every working precision by default.
GUARD_DIGITS = 15


def import_program():
    """The program's modules, imported from this checkout's ``src/`` only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"hittime.{name}")
            for name in ("certify", "cli", "hitprob", "numerics", "oracle", "walkmodel")}
    origin = Path(mods["cli"].__file__).resolve()
    if origin.parent != src / "hittime":
        raise ImportError(f"hittime was imported from {origin}, not from {src}")
    return mods


def gap_share(members: list[int], n: int, internal_digits: int) -> tuple[float, float]:
    """(g*, share of states 0..n lying in member-free gaps longer than g*).

    g* = b ln2 / ln(1/|w|) with b = internal digits * log2(10) is the gap
    length beyond which the window's non-unit modes fall below one unit in
    the last place, so a gap-jumping sweep could cross the gap in O(M).
    """
    g_star = internal_digits * math.log(10) / math.log(1 / MODULUS_W)
    jumpable = 0
    prev = -1
    for m in members + [n + 1]:
        gap = m - prev - 1
        if gap > g_star:
            jumpable += gap
        prev = m
    return g_star, jumpable / (n + 1)


# Host probes: fixed pieces of work of the same kinds as a workload's
# operation, built from the standard library and numpy only.  They use
# nothing from ``src/``, so a change to the program cannot change them.
# During an untraced operation the workload's probe runs once every this
# many seconds.
PROBE_INTERVAL_S = 0.5


def decimal_window(digits: int, states: int) -> None:
    """A rolling-window Decimal recurrence of the sweep's shape: window 7,
    add and divide by 6, a generator consumed by a loop."""
    def states_of(ctx: Context):
        add = ctx.add
        div = ctx.divide
        zero = Decimal(0)
        one = Decimal(1)
        six = Decimal(6)
        window = [zero] * 7
        for s in range(states, 0, -1):
            i = s % 7
            if s % 97 == 0:
                window[i] = zero
            else:
                acc = window[(i + 1) % 7]
                for j in range(2, 7):
                    acc = add(acc, window[(i + j) % 7])
                window[i] = add(one, div(acc, six))
            yield s, window[i]

    for _ in states_of(Context(prec=digits)):
        pass


def fraction_window(states: int) -> None:
    """The exact DP's kind of work: sums of Fractions divided by 6."""
    values = [Fraction(0)] * 6
    for s in range(states, 0, -1):
        value = Fraction(0) if s % 7 == 0 else 1 + Fraction(sum(values[-6:]), 6)
        values.append(value)


class NumpyWalks:
    """The Monte Carlo's kind of work: one block of vectorised die rolls,
    running sums and table look-ups over arrays of a few megabytes."""

    def __init__(self) -> None:
        self.gen = np.random.Generator(np.random.Philox(key=0))
        self.table = np.zeros(4096, dtype=bool)
        self.table[::20] = True

    def __call__(self, trials: int, rolls: int) -> None:
        steps = 1 + np.floor(6 * self.gen.random((trials, rolls))).astype(np.int64)
        hits = self.table[np.cumsum(steps, axis=1)]
        hits.any(axis=1)
        np.argmax(hits, axis=1)


def timed(work: Callable[[], None]) -> float:
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


class CertifyWorkload:
    """``hittime certify --K k [--precision p]`` through ``cli.main``.

    The seed moves K by up to ``spread`` around ``base_k``; ``floors`` holds
    the baseline certified digit count at each such K.
    """

    # The probe is the sweep's recurrence at certify-wide's internal
    # precision; probe_ref_s is about its median time on the 2-vCPU Xeon
    # host where the benchmark was defined.
    probe_ref_s = 0.007

    def __init__(self, base_k: int, precision: int | None, spread: int,
                 floors: dict[int, int]):
        self.base_k = base_k
        self.precision = precision
        self.spread = spread
        self.floors = floors

    def probe(self) -> float:
        return timed(lambda: decimal_window(255, 1500))

    def setup(self, seed: int) -> dict:
        k = self.base_k + random.Random(seed).randint(-self.spread, self.spread)
        argv = ["certify", "--K", str(k)]
        if self.precision is not None:
            argv += ["--precision", str(self.precision)]
        return {"K": k, "argv": argv}

    def run(self, inputs: dict, mods):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = mods["cli"].main(inputs["argv"])
        return code, buf.getvalue()

    def check(self, inputs: dict, output) -> tuple[list[str], dict]:
        code, text = output
        if code != 0:
            return [f"exit code {code}"], {}
        rep = json.loads(text)
        digits = rep["certified_digits"]
        shown = {"certified_digits": digits, "precision_digits": rep["precision_digits"]}
        failures = []
        if rep["K"] != inputs["K"]:
            failures.append(f"report K {rep['K']} != {inputs['K']}")
        depth = 2 + min(digits, len(reference.SQUARES_E0) - 2)
        if rep["point_value"][:depth] != reference.SQUARES_E0[:depth]:
            failures.append("certified digits differ from the reference")
        floor = self.floors[inputs["K"]]
        if digits < floor:
            failures.append(f"certified_digits {digits} < baseline {floor}")
        return failures, shown

    def properties(self, inputs: dict) -> dict:
        k = inputs["K"]
        n = k * k
        # The CLI's documented default precision is ceil(0.15 K) + 60.
        working = self.precision or math.ceil(0.15 * k) + 60
        g_star, share = gap_share([j * j for j in range(1, k + 1)], n,
                                  working + GUARD_DIGITS)
        return {"walkmodel.states": n + 1, "walkmodel.target_states": k,
                "walkmodel.jumpable_share": share, "g_star": g_star,
                "internal_digits": working + GUARD_DIGITS}

    def cleanup(self, inputs: dict) -> None:
        pass


class CrosscheckWorkload:
    """The independent-check path on a seeded random sparse target file.

    Below ``BLOCK_START`` each run of ``STRIDE`` integers holds one member
    at a random offset, so the hitting time (about 20 rolls) and hence the
    Monte Carlo cost vary little from seed to seed.  The file ends with
    M = 6 consecutive members, which no walk can jump over: every walk
    hits, P_0 at the large cutoff is exactly 0 and the truncated
    expectation there is the true one.
    """

    STRIDE = 20
    BLOCK_START = 199_994
    BIG_N = BLOCK_START + 5
    EXACT_N = 2000
    WORKING = 60
    SQUARES_TRIALS = 10**6
    FILE_TRIALS = 2 * 10**5
    # The probe mixes the operation's three kinds of work in about its
    # shares of time: Monte Carlo, then the decimal solve, then the exact
    # DP.  probe_ref_s is about its median time on the host where the
    # benchmark was defined.
    probe_ref_s = 0.016

    walks: NumpyWalks | None = None

    def probe(self) -> float:
        # Made on first use: numpy.random would otherwise be loaded, and
        # counted in set-up time and memory, by every workload.
        if self.walks is None:
            self.walks = NumpyWalks()

        def work() -> None:
            self.walks(65536, 4)
            decimal_window(self.WORKING + GUARD_DIGITS, 1000)
            fraction_window(90)
        return timed(work)

    def setup(self, seed: int) -> dict:
        rng = random.Random(seed)
        members = [b + rng.randrange(self.STRIDE)
                   for b in range(1, self.BLOCK_START - self.STRIDE + 1, self.STRIDE)]
        members += range(self.BLOCK_START, self.BLOCK_START + 6)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"target-{os.getpid()}.txt"
        path.write_text("".join(f"{m}\n" for m in members))
        return {"path": path, "members": members, "mc_seed": rng.randrange(2**63)}

    def run(self, inputs: dict, mods):
        walkmodel, oracle = mods["walkmodel"], mods["oracle"]
        ctx = mods["numerics"].make_context(self.WORKING)
        die = walkmodel.DieModel(6)
        target = walkmodel.TargetSet.from_file(inputs["path"])
        big = walkmodel.solve_pair(target, die, self.BIG_N, 0, ctx)
        small = walkmodel.solve_pair(target, die, self.EXACT_N, 0, ctx)
        exact = oracle.exact_dp(target, self.EXACT_N, 0)
        seed = inputs["mc_seed"]
        mc_squares = oracle.simulate_hitting(
            oracle.McConfig(trials=self.SQUARES_TRIALS, seed=seed))
        mc_file = oracle.simulate_hitting(
            oracle.McConfig(trials=self.FILE_TRIALS, seed=seed + 1, target=target))
        return big, small, exact, mc_squares, mc_file

    def check(self, inputs: dict, output) -> tuple[list[str], dict]:
        big, small, (e_exact, p_exact), mc_squares, mc_file = output
        failures = []
        tolerance = Fraction(1, 10 ** (self.WORKING - 5))
        for label, dec, exact in (("E", small.e_n_value, e_exact),
                                  ("P", small.overshoot_prob, p_exact)):
            if abs(Fraction(dec) - exact) > tolerance * abs(exact):
                failures.append(f"decimal {label}_{self.EXACT_N}(0) differs from exact_dp")
        if not big.overshoot_prob <= Decimal("1e-40"):
            failures.append(f"P_0 at N={self.BIG_N} is {big.overshoot_prob}, expected 0")
        squares_ref = float(reference.SQUARES_E0[:20])
        for label, res, ref, trials in (
                ("squares", mc_squares, squares_ref, self.SQUARES_TRIALS),
                ("file", mc_file, float(big.e_n_value), self.FILE_TRIALS)):
            if res.trials_completed != trials or res.capped_trials:
                failures.append(f"MC {label}: {res.capped_trials} capped trials")
            if not abs(res.mean - ref) < 5 * res.std_error:
                failures.append(f"MC {label}: mean {res.mean} not within 5 s.e. of {ref}")
        shown = {"E_big": str(big.e_n_value)[:20], "mc_squares_mean": mc_squares.mean,
                 "mc_file_mean": mc_file.mean}
        return failures, shown

    def properties(self, inputs: dict) -> dict:
        members = inputs["members"]
        internal = self.WORKING + GUARD_DIGITS
        g_star, share = gap_share(members, self.BIG_N, internal)
        return {"walkmodel.states": (self.BIG_N + 1) + (self.EXACT_N + 1),
                "walkmodel.target_states": len(members),
                "walkmodel.jumpable_share": share, "g_star": g_star,
                "internal_digits": internal}

    def cleanup(self, inputs: dict) -> None:
        inputs["path"].unlink(missing_ok=True)


# Certified digit counts the program reached when this benchmark was defined,
# for every K a seed can pick; a run certifying fewer digits fails its check.
WIDE_FLOORS = {1198: 170, 1199: 171, 1200: 171, 1201: 171, 1202: 171}
DEEP_FLOORS = {698: 97, 699: 98, 700: 98, 701: 98, 702: 98}

WORKLOADS = {
    # Default precision (about 0.15 K + 60 digits): the state count
    # dominates and 39% of states lie in gaps a gap-jumping sweep could skip.
    "certify-wide": CertifyWorkload(1200, None, 2, WIDE_FLOORS),
    # North-star precision on fewer states: per-state cost at 1215 internal
    # digits dominates and no gap is long enough to jump.  Run on request;
    # not listed in BENCHMARK.json, to leave each listed workload longer runs.
    "certify-deep": CertifyWorkload(700, 1200, 2, DEEP_FLOORS),
    # Exact DP, Monte Carlo and non-square membership; the squares sweep is
    # barely used.
    "crosscheck": CrosscheckWorkload(),
    # Full-scale reference point, run on request only; not a benchmark
    # workload.
    "northstar": CertifyWorkload(7000, 1200, 0, {7000: 1017}),
}

# Public functions the traced run wraps, as (module, attribute path, counts).
TRACED = [
    ("cli", "main", None),
    ("cli", "certification_report", None),
    ("certify", "certify_squares", None),
    ("certify", "overshoot_bounds", None),
    ("certify", "compose_estimate", None),
    ("certify", "certified_digit_count", None),
    ("hitprob", "compute_roots", None),
    ("hitprob", "epsilon", None),
    ("walkmodel", "solve_pair",
     lambda a, r: {"states": max(a.arguments["n"] - a.arguments["s_min"] + 1, 0)}),
    ("walkmodel", "TargetSet.from_file", None),
    ("oracle", "exact_dp",
     lambda a, r: {"states": max(a.arguments["n"] - a.arguments["s"] + 1, 0)}),
    ("oracle", "simulate_hitting",
     lambda a, r: {"trials": a.arguments["cfg"].trials,
                   "completed": r.trials_completed}),
]


def install_tracer(mods) -> tracing.Tracer:
    tracer = tracing.Tracer()
    for module, attr, count in TRACED:
        owner = mods[module]
        *outer, leaf = attr.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        name = f"{module}.{attr}"
        if owner is None:
            tracer.absent.append(name)
        else:
            tracer.wrap(owner, leaf, name, count)
    return tracer


class HostClock:
    """Samples the host's speed while an operation runs.

    The CPU speed of the shared host was seen to change by up to 1.9x over
    seconds to minutes, with CPU time equal to wall time, so it cannot be
    told apart from the program's own cost by timing alone.  A SIGALRM
    handler runs the workload's probe every ``PROBE_INTERVAL_S`` seconds of
    an operation; :meth:`adjust` scales the operation's time (probe time
    taken out) by the workload's ``probe_ref_s`` times the mean probe speed
    during it, which is the time the operation would have taken on a host
    where the probe takes ``probe_ref_s``.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.samples: list[float] = []
        self.active = False
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def _tick(self, signum, frame) -> None:
        if self.active:
            self.samples.append(self.workload.probe())

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def adjust(self, seconds: float, probes: list[float]) -> float:
        speed = statistics.fmean(1 / p for p in probes)
        return seconds * self.workload.probe_ref_s * speed


def environment() -> dict:
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    numpy = sys.modules.get("numpy")
    return {"python": platform.python_version(),
            "numpy": getattr(numpy, "__version__", None),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model,
            "loadavg": list(os.getloadavg())}


def layer_metrics(tracer: tracing.Tracer, ops: list[dict], span_cost: float) -> dict:
    """Per-layer numbers for each operation, then their median over operations."""
    own = tracer.self_times()
    per_op = []
    for run_id, op in enumerate(ops):
        self_s: dict[str, float] = {}
        incl_s: dict[str, float] = {}
        counts: dict[str, float] = {}
        spans = 0
        for i, s in enumerate(tracer.spans):
            if s[tracing.RUN] != run_id:
                continue
            spans += 1
            name = s[tracing.NAME]
            self_s[name] = self_s.get(name, 0.0) + own[i]
            incl_s[name] = incl_s.get(name, 0.0) + s[tracing.END] - s[tracing.START]
            for key, value in (s[tracing.COUNTS] or {}).items():
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value

        def rate(count_key: str, span_name: str) -> float:
            busy = incl_s.get(span_name, 0.0)
            return counts.get(count_key, 0) / busy if busy else 0.0

        m = {f"{module}.{attr}_s": self_s.get(f"{module}.{attr}", 0.0)
             for module, attr, _ in TRACED}
        trials = counts.get("oracle.simulate_hitting.trials", 0)
        m.update({
            "walkmodel.states_per_s": rate("walkmodel.solve_pair.states", "walkmodel.solve_pair"),
            "oracle.exact_dp_states_per_s": rate("oracle.exact_dp.states", "oracle.exact_dp"),
            "oracle.mc_trials_per_s": rate("oracle.simulate_hitting.trials",
                                           "oracle.simulate_hitting"),
            "oracle.mc_completed_ratio": (
                counts.get("oracle.simulate_hitting.completed", 0) / trials if trials else 0.0),
            "trace.wall_s": incl_s["bench.op"],
            "trace.unaccounted_s": self_s["bench.op"],
            # The op span itself is the benchmark's, not an extra wrapper call.
            "trace.overhead_s": (spans - 1) * span_cost,
            "process.cpu_s": op["cpu_s"],
        })
        per_op.append(m)
    return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    mods = import_program()
    inputs = workload.setup(args.seed)
    print("READY", flush=True)
    try:
        if args.setup_only:
            return 0
        return measure(args, workload, mods, inputs)
    finally:
        workload.cleanup(inputs)


def measure(args, workload, mods, inputs) -> int:
    tracer = install_tracer(mods) if args.trace else None
    probes_before = [workload.probe() for _ in range(5)]
    clock = None if tracer else HostClock(workload)
    ops: list[dict] = []
    start = time.perf_counter()
    try:
        while True:
            span = tracer.open_run(len(ops), "bench.op") if tracer else None
            first_probe = len(clock.samples) if clock else 0
            if clock:
                clock.active = True
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                output = workload.run(inputs, mods)
                error = None
            except Exception as exc:  # a failing operation is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            c1 = time.process_time()
            op = {"wall_s": t1 - t0, "cpu_s": c1 - c0}
            if clock:
                clock.active = False
                probes = clock.samples[first_probe:]
                # The probes ran inside the operation; their time is not its.
                op["wall_s"] -= sum(probes)
                op["probes_s"] = probes
            if tracer:
                tracer.close_run(span)
            if error is None:
                failures, shown = workload.check(inputs, output)
            else:
                failures, shown = [error], {}
            ops.append({**op, "failures": failures, **shown})
            elapsed = time.perf_counter() - start
            typical = statistics.median(op["wall_s"] for op in ops)
            if elapsed + typical > args.seconds:
                break
    finally:
        if clock:
            clock.stop()
    probes_after = [workload.probe() for _ in range(5)]

    if clock:
        # An operation too short to hold a probe takes the run's mean speed.
        every_probe = clock.samples or probes_before + probes_after
        for op in ops:
            op["wall_adj_s"] = clock.adjust(op["wall_s"], op["probes_s"] or every_probe)

    failed = sum(1 for op in ops if op["failures"])
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": len(ops),
        "failed": failed,
        "failed_frac": failed / len(ops),
        "ops": ops,
        "computed": workload.properties(inputs),
        "environment": environment(),
        "host_probe_before_s": probes_before,
        "host_probe_after_s": probes_after,
    }
    # Operation time summed over the run, per operation: the inverse of
    # throughput, averaged over the whole run.
    values = {
        "wall_s": sum(op["wall_s"] for op in ops) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if clock:
        values["wall_adj_s"] = sum(op["wall_adj_s"] for op in ops) / len(ops)
    if tracer:
        values.update(layer_metrics(tracer, ops, tracing.span_cost()))
        values["host.probe_s"] = statistics.median(probes_before + probes_after)
        for key in ("walkmodel.states", "walkmodel.target_states", "walkmodel.jumpable_share"):
            values[key] = result["computed"][key]
        result["absent"] = tracer.absent
        result["count_errors"] = tracer.count_errors
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    result["values"] = values
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
