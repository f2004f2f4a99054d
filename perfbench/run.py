"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sections2d --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each call spawns fresh child processes
(perfbench/child.py), one at a time: the one that runs the workload and,
without --trace, SETUP_SAMPLES - 1 more that only set up. A child imports
tropehrhart from this checkout's `src/` and calls
`tropehrhart.cli.main(argv)` in-process on generated input files, one op at
a time (a closed loop, one client).

With --trace 0 the last line holds the end-to-end metrics, with --trace 1
the per-layer metrics of a traced run. The lines before it print every
metric by name, unit and workload, and each op with its stated size.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# set-up time is the median over this many fresh processes, spread before
# and after the measured one so that one slow spell of the machine cannot
# cover them all
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
TAIL_PCT = 90


def child_env():
    env = dict(os.environ)
    # the program's only runtime knob, pinned to its default (one thread)
    env.pop("TROPEHRHART_THREADS", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args, mode, n):
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}-{n}"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--workdir", str(workdir)]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"perfbench: {mode} child timed out")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {mode} child exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(res, setups):
    """End-to-end metrics and a note on how each was taken.

    Every op of the cycle ran once per cycle. The machine's cores are
    shared with other tenants, whose load slows a single run by up to 1.7x
    for spells of 0.1 s to minutes, so an op's latency is the fastest of its
    runs. Latency quantiles are taken over the ops of the cycle, each op
    counted once (nearest rank), so they do not depend on how many cycles
    fitted.
    """
    ops = res["ops"]
    best = sorted(min(op["samples_s"]) for op in ops)
    cycle_s = sum(best)
    n_runs = len(ops) * res["cycles"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(ops) / cycle_s, "1/s"),
        "op_p50_ms": (1000 * statistics.median(best), "ms"),
        "op_tail_ms": (1000 * best[math.ceil(TAIL_PCT / 100 * len(best)) - 1], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "ops_per_s": f"{len(ops)} ops per cycle in {cycle_s:.3f} s; "
                     f"{res['cycles']} cycles in {res['wall']:.2f} s",
        "op_p50_ms": f"{len(ops)} ops, {n_runs} runs",
        "op_tail_ms": f"p{TAIL_PCT}, {len(ops)} ops, {n_runs} runs",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    return metrics, notes


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "tropehrhart" / "cli.py").is_file():
        sys.exit(f"perfbench: no tropehrhart sources under {ROOT / 'src'}")

    w = args.workload
    if args.trace:
        res = spawn(args, "trace", 0)
        metrics, notes = res["layers"], {}
        print(f"{w}  traced {res['cycles']} cycle(s); {res['spans']} spans in {res['spans_file']}")
    else:
        before = (SETUP_SAMPLES - 1) // 2
        setups = [spawn(args, "setup", n)["setup_s"] for n in range(before)]
        res = spawn(args, "run", before)
        setups.append(res["setup_s"])
        setups += [spawn(args, "setup", n)["setup_s"]
                   for n in range(before + 1, SETUP_SAMPLES)]
        metrics, notes = end_to_end(res, setups)
    for op in res["ops"]:
        best = f"  fastest {1000 * min(op['samples_s']):.1f} ms" if "samples_s" in op else ""
        print(f"{w}  op  {op['label']:<40} {op['size']}{best}")
    for err in res["errors"]:
        print(f"{w}  FAILED  {err}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{w}  {name:<30} {value:14.6f} {unit}{note}")
    print(f"{w}  failed_frac {res['failed'] / res['attempted']:.4f} "
          f"({res['failed']} of {res['attempted']} ops)")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
