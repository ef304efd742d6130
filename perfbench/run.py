"""hittime benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload certify-wide --seed 1 --seconds 58 --trace 0

Each workload runs in fresh interpreters started by this script (see
``worker.py``): one that measures, and two before and two after it that
only set up.  Set-up is timed from an interpreter's start to its first
operation.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end metrics named in
``BENCHMARK.json`` and with ``--trace 1`` its per-layer metrics.  The line
before it holds the details: every operation's time and check result, the
computed input properties, the environment and the host probe.  The
script exits non-zero without a result line if the program cannot be
imported or run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# Set-up is timed in this many fresh interpreters; the median is reported.
SETUP_SAMPLES = 5
# Wall-clock limit for a whole run; the full-scale reference run gets longer.
DEADLINE_S = 170
DEADLINE_LONG_S = {"northstar": 3600}


class BenchError(RuntimeError):
    pass


def run_worker(argv: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return (seconds until it was READY, rest of its output)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first != "READY\n" or code != 0:
        raise BenchError(f"worker {' '.join(argv)} exited with code {code}")
    return ready, rest


def main() -> int:
    parser = argparse.ArgumentParser(description="hittime benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_LONG_S.get(args.workload, DEADLINE_S)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    # Half the set-up-only samples run before the measuring worker and half
    # after it, so that the median spans the whole run, not one moment of it.
    extra = SETUP_SAMPLES - 1
    try:
        setups = [run_worker(common + ["--setup-only"], deadline)[0]
                  for _ in range(extra // 2)]
        ready, out = run_worker(common + ["--seconds", str(args.seconds),
                                          "--trace", str(args.trace)], deadline)
        setups.append(ready)
        setups += [run_worker(common + ["--setup-only"], deadline)[0]
                   for _ in range(extra - extra // 2)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if len(lines) != 1:
        print("error: worker printed no result", file=sys.stderr)
        return 1
    result = json.loads(lines[0][len("RESULT "):])
    values = result.pop("values")
    values["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1

    result["setup_samples_s"] = setups
    result["failed_frac"] = {"value": result["failed_frac"], "unit": "ratio"}
    result["all_values"] = values
    print("detail: " + json.dumps(result))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
