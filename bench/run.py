"""The masseykit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload cli-jobs --seed 1 --seconds 30 --trace 0

Workloads: finite-status, presentation-lifts, cohomology-basis, cli-jobs
(see bench/README.md).  The run sets up several times and keeps the
median as ``setup_s``, then repeats whole rounds of the workload's
operations, one at a time in this process, until ``--seconds`` have
passed, then checks every distinct output apart from the program.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 1`` the
metrics are the per-layer figures instead: untraced rounds for half the
time, then traced rounds, whose spans go to ``.bench_out/``.
``--quick`` runs one set-up and one round of one operation per cost class.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import statistics
import sys
import time
import traceback

import workloads as wl
from oracle import CheckFailed
from tracer import Tracer, install, per_layer_metrics

SETUPS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description="masseykit benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="one set-up, one round of one operation per class")
    return ap.parse_args(argv)


def op_ms_p50(times) -> float:
    """The median over a round's operations of each one's mean time.

    Every operation runs once per round, so each has the same number of
    samples.  The machine's speed flips between a fast and a slow state
    that last from a tenth of a second to seconds; the median of single
    millisecond samples then jumps from one state to the other as their
    shares cross one half, while a mean over rounds seconds apart moves
    with the shares smoothly.
    """
    return statistics.median(
        statistics.fmean(ts) for ts in times if ts) * 1000.0


class Run:
    """Timed rounds of one workload, with the bookkeeping for checks."""

    def __init__(self, workload, tracer):
        self.w = workload
        self.tracer = tracer
        ops = workload.ops
        self.first = [None] * len(ops)
        self.signatures = [None] * len(ops)
        self.failed_ops = set()
        self.attempted = 0
        self.failed = 0
        self.times = [[] for _ in ops]
        self.mismatches = []

    def round(self, traced: bool) -> float:
        """One round; returns the seconds its operations took.

        A full collection first, untimed: the program's objects form
        reference cycles that hold large arrays, and without it their
        garbage piles up over rounds, so the peak memory grew with the
        number of rounds (82 to 117 MB over five rounds of
        cohomology-basis).  Garbage made within a round still counts."""
        gc.collect()
        tr = self.tracer
        spent = 0.0
        for k, op in enumerate(self.w.ops):
            if tr is not None:
                tr.op = self.attempted
                tr.active = traced
            t0 = time.perf_counter()
            try:
                result = self.w.run_op(op, traced)
                ok = True
            except Exception:
                ok = False
                traceback.print_exc(file=sys.stderr)
            dt = time.perf_counter() - t0
            spent += dt
            if tr is not None:
                tr.active = False
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failed_ops.add(k)
                continue
            self.times[k].append(dt)
            sig = self.w.signature(result)
            if self.signatures[k] is None:
                self.first[k], self.signatures[k] = result, sig
            elif sig != self.signatures[k]:
                self.mismatches.append(k)
        return spent

    def rounds_until(self, deadline: float, traced: bool):
        """Whole rounds, at least one, until ``deadline``; returns the
        operations attempted and the seconds they took."""
        before, spent = self.attempted, 0.0
        while True:
            spent += self.round(traced)
            if time.perf_counter() >= deadline:
                return self.attempted - before, spent

    def check(self, seed: int):
        keep = [k for k in range(len(self.w.ops)) if k not in self.failed_ops]
        if self.mismatches:
            raise CheckFailed(f"operations {sorted(set(self.mismatches))} "
                              "gave different outputs in different rounds")
        self.w.check([self.w.ops[k] for k in keep],
                     [self.first[k] for k in keep], random.Random(seed))


def run(args) -> dict:
    pool = wl.load_pool()
    workload = wl.WORKLOADS[args.workload](args.quick, pool)
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
        workload.tracer = tracer
    setups = 1 if args.quick else SETUPS
    setup_times = []
    for _ in range(setups):
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        workload.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
    setup_totals = {}
    if tracer is not None:
        setup_totals = dict(tracer.totals)
        tracer.totals.clear()

    r = Run(workload, tracer)
    start = time.perf_counter()
    phases = {"setup": sum(setup_times)}
    if args.quick:
        ops, spent = r.rounds_until(start, bool(args.trace))
        traced_ops, traced_spent, spans0 = ops, spent, 0
    elif not args.trace:
        ops, spent = r.rounds_until(start + args.seconds, False)
    else:
        ops, spent = r.rounds_until(start + args.seconds / 2, False)
        spans0 = tracer.span_count()
        traced_ops, traced_spent = r.rounds_until(start + args.seconds, True)
    peak = workload.peak_rss_mb()
    phases["timed"] = time.perf_counter() - start

    correct = True
    t0 = time.perf_counter()
    try:
        r.check(args.seed)
    except CheckFailed as exc:
        correct = False
        print(f"check failed: {exc}", file=sys.stderr)
    phases["check"] = time.perf_counter() - t0

    os.makedirs(wl.OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": (ops - r.failed) / spent, "unit": "1/s"},
            "op_ms_p50": {"value": op_ms_p50(r.times), "unit": "ms"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    else:
        if args.quick:
            overhead = 0.0
        else:
            overhead = ((traced_spent / traced_ops) / (spent / ops) - 1) * 100
        metrics = per_layer_metrics(
            tracer.totals, traced_ops, setup_totals, setups,
            tracer.span_count() - spans0, overhead)
        tracer.dump(os.path.join(wl.OUT_DIR, f"trace-{tag}.npz"))
    workdir = getattr(workload, "workdir", None)
    if workdir:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": correct, "attempted": r.attempted,
              "failed": r.failed, "metrics": metrics}
    with open(os.path.join(wl.OUT_DIR, f"run-{tag}.json"), "w") as fh:
        json.dump({**result, "setup_times": setup_times, "phases": phases,
                   "op_times": r.times}, fh)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        wl.load_program()
    except ImportError as exc:
        print(f"cannot import masseykit from {wl.SRC}: {exc}",
              file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
