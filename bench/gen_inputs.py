"""Regenerate the pinned tuple pools in ``inputs.json``.

    python3 bench/gen_inputs.py --seed 20261018

Every candidate tuple of each case is drawn in an order fixed by the
seed, run once through masseykit, and filed under its cost class: for
``finite-status`` whether the tuple is undefined by an adjacent cup
product (only d1 solves) or defined; for ``presentation-lifts`` its
(barred, unbarred) lift counts.  A run then picks, with its own
``--seed``, tuples from fixed classes in fixed numbers, so the cost make-up
of a round does not depend on the run's seed.  The pools store character
values on the generators only.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys

import workloads as wl

CAP = 40                    # tuples kept per class
EXAMINED = 400              # tuples run through masseykit per case


def _candidate_tuples(group, p, n, rng):
    pres = group.known_presentation
    rows = wl.oracle.hom_rows(pres.relators, pres.generator_count, p)
    tuples = list(itertools.product(range(len(rows)), repeat=n))
    rng.shuffle(tuples)
    return [[list(rows[k]) for k in t] for t in tuples]


def _classified(name, p, n, rng, classify):
    """Tuples of one case filed by class.  A tuple with an adjacent cup
    product that is not a coboundary is undefined (the benchmark's own
    elimination says so); once its class is full it is skipped without
    running masseykit, so rare classes are reached."""
    from masseykit import groups
    g = groups.catalog(name)
    table = wl.oracle.Table(g.mul, p)
    undefined_key = None
    pool, runs = {}, 0
    for tup in _candidate_tuples(g, p, n, rng):
        if runs == EXAMINED:
            break
        vals = [wl.char_values(g, row, p) for row in tup]
        cups_bound = all(
            table.is_coboundary(table.cup(vals[i], vals[i + 1]))
            for i in range(n - 1))
        if not cups_bound and len(pool.get(undefined_key, ())) >= CAP:
            continue
        runs += 1
        key = wl.pool_key(name, n, classify(g, p, tup, cups_bound))
        if not cups_bound:
            undefined_key = key
        if len(pool.setdefault(key, [])) < CAP:
            pool[key].append(tup)
    print(name, n, {k: len(v) for k, v in pool.items()}, flush=True)
    return pool


def finite_pool(rng):
    """Classes: undefined by a cup (d1 solves only), defined, or layer3
    (every cup bounds but no defining system exists, n = 4)."""
    from masseykit import massey

    def classify(g, p, tup, cups_bound):
        if not cups_bound:
            return "undefined"
        if len(tup) == 3:          # both cups bound: a system exists
            return "defined"
        report = massey.massey_status_finite(g, wl.characters(g, tup, p))
        return "defined" if report.defined else "layer3"

    pool = {}
    for (name, p, n) in wl.FINITE_CASES:
        pool.update(_classified(name, p, n, rng, classify))
    return pool


def lift_pool(rng):
    """Classes: the barred and unbarred lift counts."""
    from masseykit import massey, unitriangular as ut

    def classify(g, p, tup, cups_bound):
        pres = g.known_presentation
        shape = ut.UniShape(len(tup) + 1, p)
        barred = len(massey.lift_search(pres, tup, shape.barred_shape()))
        return f"{barred},{len(massey.lift_search(pres, tup, shape))}"

    pool = {}
    for (name, p, n) in wl.LIFT_CASES:
        pool.update(_classified(name, p, n, rng, classify))
    return pool


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=wl.POOL_SEED)
    ap.add_argument("--output", default=wl.POOL_PATH)
    args = ap.parse_args(argv)
    wl.load_program()
    rng = random.Random(args.seed)
    doc = {"seed": args.seed,
           "finite-status": finite_pool(rng),
           "presentation-lifts": lift_pool(rng)}
    tmp = args.output + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
