"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload in quick mode (one set-up, one operation per cost
class, every check on), one quick traced run, and then confirms that the
checks catch a corrupted verdict, witness, lift and CLI report.  Exits 0
when everything holds.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys

import run as bench
import workloads as wl
from oracle import CheckFailed
from tracer import metric_catalog


def quick(workload: str, trace: int = 0) -> dict:
    args = bench.parse_args(["--workload", workload, "--seed", "7",
                             "--seconds", "0", "--trace", str(trace),
                             "--quick"])
    return bench.run(args)


def caught(w, ops, results) -> bool:
    try:
        w.check(ops, results, random.Random(0))
    except CheckFailed as exc:
        print(f"    caught: {exc}")
        return True
    return False


def corrupt_finite(pool) -> list[str]:
    from masseykit import massey
    w = wl.FiniteStatus(True, pool)
    w.setup(3)
    results = [w.run_op(op, False) for op in w.ops]
    failures = []
    k = next(i for i, r in enumerate(results) if r.status.value == "Vanishes")
    bad = list(results)
    bad[k] = dataclasses.replace(
        results[k], status=massey.MasseyStatus.DEFINED_NOT_VANISHING)
    print("  verdict Vanishes -> DefinedNotVanishing")
    if not caught(w, [w.ops[k]], [bad[k]]):
        failures.append("finite-status: corrupted verdict not caught")
    witness = results[k].witness
    entries = dict(witness.entries)
    a13 = entries[(1, 3)]
    vals = a13.values.copy()
    j = next(e for e in range(len(vals)) if e != witness.group.identity)
    vals[j] = (vals[j] + 1) % witness.prime
    entries[(1, 3)] = type(a13)(a13.group, 1, a13.modulus, vals)
    bad_report = dataclasses.replace(
        results[k], witness=dataclasses.replace(witness, entries=entries))
    print("  witness entry a[1][3] shifted at one element")
    if not caught(w, [w.ops[k]], [bad_report]):
        failures.append("finite-status: corrupted witness not caught")
    return failures


def corrupt_lifts(pool) -> list[str]:
    from masseykit import unitriangular as ut
    w = wl.PresentationLifts(True, pool)
    w.setup(3)
    results = [w.run_op(op, False) for op in w.ops]
    def share(lifts):
        shape, gens = lifts[0].shape, len(lifts[0].images)
        free = sum(1 for (i, j) in shape.positions if j != i + 1)
        return len(lifts) / shape.prime ** (free * gens)

    # the search whose lifts are the smallest share of its candidates
    k = min((i for i, r in enumerate(results) if r[1]),
            key=lambda i: share(results[i][1]))
    ubar, u = results[k]

    # lift_search returns every lift, so an image tuple outside its list
    # is, by the program's own account, no homomorphism
    known = {tuple(m.entries for m in lift.images) for lift in u}

    def forged(lift):
        for g, m in enumerate(lift.images):
            for pos in m.shape.positions:
                if pos[1] == pos[0] + 1:
                    continue
                entries = dict(zip(m.shape.positions, m.entries))
                entries[pos] = (entries[pos] + 1) % m.shape.prime
                images = list(lift.images)
                images[g] = ut.from_entries(m.shape, entries)
                images = tuple(images)
                if tuple(x.entries for x in images) in known:
                    continue
                # UniLift checks its relators on construction, so the
                # corrupted one is assembled field by field
                clone = object.__new__(type(lift))
                for f in dataclasses.fields(lift):
                    object.__setattr__(clone, f.name,
                                       getattr(lift, f.name))
                object.__setattr__(clone, "images", images)
                return clone
        raise AssertionError("no corruption leaves the lift set")

    bad = [forged(lift) for lift in u]
    print(f"  every unbarred lift of {w.ops[k][0]} moved off the lift set")
    if not caught(w, [w.ops[k]], [(ubar, bad)]):
        return ["presentation-lifts: corrupted lifts not caught"]
    return []


def corrupt_cli(pool) -> list[str]:
    w = wl.CliJobs(True, pool)
    w.setup(3)
    try:
        results = [w.run_op(op, False) for op in w.ops]
        ok = not caught(w, w.ops, results)
        k = next(i for i, op in enumerate(w.ops) if op["kind"] == "paper-g")
        rep = json.loads(results[k]["report"])
        rep["verdicts"]["u_lift_count"] = 1
        bad = list(results)
        bad[k] = dict(results[k], report=json.dumps(rep).encode())
        print("  paper-g report with one unbarred lift")
        if ok and caught(w, w.ops, bad):
            return []
        return ["cli-jobs: corrupted report not caught"]
    finally:
        import shutil
        shutil.rmtree(w.workdir, ignore_errors=True)


def main() -> int:
    wl.load_program()
    failures = []
    for name in wl.WORKLOADS:
        res = quick(name)
        print(f"{name}: attempted {res['attempted']}, failed "
              f"{res['failed']}, correct {res['correct']}")
        if not res["correct"] or res["failed"]:
            failures.append(f"{name}: quick run not clean")
    res = quick("cli-jobs", trace=1)
    want = {m["name"] for m in metric_catalog()}
    if set(res["metrics"]) != want:
        failures.append("traced run does not report the per-layer list")
    nonzero = [k for k, v in res["metrics"].items() if v["value"]]
    print(f"cli-jobs traced: {len(nonzero)} of {len(want)} per-layer "
          "figures nonzero")
    pool = wl.load_pool()
    for corrupt in (corrupt_finite, corrupt_lifts, corrupt_cli):
        print(corrupt.__name__)
        failures += corrupt(pool)
    for f in failures:
        print("FAIL", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
