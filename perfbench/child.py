"""One workload in a fresh process: set up, run ops in-process, report JSON.

Started by run.py, never by hand. The process imports tropehrhart from the
checkout's `src/`, generates the workload's input files, and then, by mode:

  setup  exit right away (a set-up time sample);
  run    run the op cycle, timed, until --seconds have passed;
  trace  run the cycle for a quarter of --seconds without the tracer, then
         exactly the same ops with it and once more without it (the mean of
         the two plain passes is the base of trace.overhead_frac, so a drift
         in machine speed cancels to first order), and write the spans to
         .bench_build/spans-<workload>-<seed>.jsonl
         ([name, start, end, parent span index, op id] per line).

Loops run whole cycles, so every op of the workload is measured equally
often. The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--workdir", required=True)
    return p.parse_args()


def run_op(cli, op):
    """Run one op in-process; (seconds, error or None)."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code
    seconds = time.perf_counter() - start
    if rc != 0:
        return seconds, f"exit {rc}: {buf.getvalue().strip()[:200]}"
    try:
        return seconds, op.check(json.loads(buf.getvalue()))
    except (ValueError, KeyError, TypeError) as exc:
        return seconds, f"unreadable report: {exc!r}"


def run_cycles(cli, ops, seconds=None, cycles=None, on_op=None):
    """Whole cycles until `seconds` have passed, or exactly `cycles` of them.

    Returns the op latencies, the errors, the wall time and the cycle count.
    """
    latencies, errors = [], []
    start = time.perf_counter()
    done = 0
    while True:
        for op in ops:
            if on_op:
                on_op()
            dt, err = run_op(cli, op)
            latencies.append(dt)
            if err:
                errors.append(f"{op.label}: {err}")
        done += 1
        wall = time.perf_counter() - start
        if (cycles is not None and done >= cycles) or (cycles is None and wall >= seconds):
            return SimpleNamespace(latencies=latencies, errors=errors, wall=wall, cycles=done)


def main():
    args = parse_args()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tropehrhart
    from tropehrhart import cli

    if not Path(tropehrhart.__file__).resolve().is_relative_to(SRC):
        print(f"tropehrhart imported from {tropehrhart.__file__}, not {SRC}", file=sys.stderr)
        return 3
    import workloads

    os.makedirs(args.workdir)
    try:
        w = workloads.build(args.workload, args.seed, args.workdir)
        result = {"setup_s": time.monotonic() - args.spawned_at}
        if args.mode != "setup":
            result.update(measure(cli, w, args))
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def measure(cli, w, args):
    errors = []
    for op in w.reference_ops:
        err = run_op(cli, op)[1]
        if err:
            errors.append(f"{op.label}: {err}")
    attempted = len(w.reference_ops)
    ops = {"ops": [{"label": op.label, "size": op.size} for op in w.ops]}
    if args.mode == "run":
        run = run_cycles(cli, w.ops, seconds=args.seconds)
        for i, entry in enumerate(ops["ops"]):
            entry["samples_s"] = run.latencies[i::len(w.ops)]
        errors += run.errors
        return {"wall": run.wall, "cycles": run.cycles,
                "attempted": attempted + len(run.latencies), "failed": len(errors),
                "errors": errors[:20], **ops}

    import layertrace

    before = run_cycles(cli, w.ops, seconds=args.seconds / 4)
    tracer = layertrace.Tracer()

    def next_op():
        tracer.op_id += 1

    restore = tracer.install()
    try:
        traced = run_cycles(cli, w.ops, cycles=before.cycles, on_op=next_op)
    finally:
        restore()
    after = run_cycles(cli, w.ops, cycles=before.cycles)
    errors += before.errors + traced.errors + after.errors
    spans_file = Path(args.workdir).parent / f"spans-{args.workload}-{args.seed}.jsonl"
    with open(spans_file, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    layer = tracer.metrics(len(traced.latencies), sum(traced.latencies))
    plain_s = (sum(before.latencies) + sum(after.latencies)) / 2
    layer["trace.overhead_frac"] = (sum(traced.latencies) / plain_s - 1, "ratio")
    return {"layers": layer, "spans": len(tracer.spans), "spans_file": str(spans_file),
            "cycles": before.cycles,
            "attempted": attempted + 3 * len(traced.latencies),
            "failed": len(errors), "errors": errors[:20], **ops}


if __name__ == "__main__":
    sys.exit(main())
