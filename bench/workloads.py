"""The benchmark's four workloads.

Each workload has a set-up (program work done before the first timed
operation), a round (a fixed list of operations whose cost classes come
in fixed numbers; the run's seed picks the members of each class and
their order), one timed call per operation, and checks made apart from
the program on every distinct operation after the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time

import numpy as np

import oracle
from oracle import require

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
POOL_PATH = os.path.join(BENCH, "inputs.json")
POOL_SEED = 20261018

# (group, p, n) cases whose tuples are pooled by gen_inputs.py
FINITE_CASES = [
    ("product(4,4)", 2, 3), ("product(4,4)", 2, 4),
    ("dihedral(16)", 2, 3), ("dihedral(16)", 2, 4),
    ("product(3,9)", 3, 3),
    ("product(4,8)", 2, 3), ("product(4,8)", 2, 4),
]
LIFT_CASES = [
    ("elementary(2,4)", 2, 2), ("elementary(2,4)", 2, 3),
    ("u3(3)", 3, 2), ("u3(3)", 3, 3), ("product(3,9)", 3, 3),
    ("dihedral(8)", 2, 4), ("quaternion8", 2, 4),
    ("product(4,4)", 2, 4), ("dihedral(16)", 2, 4), ("product(4,8)", 2, 4),
]
PRIME = {name: p for (name, p, _) in FINITE_CASES + LIFT_CASES}


def load_program():
    """Import masseykit from the checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "masseykit", "__init__.py")):
        raise ImportError(f"no masseykit package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import masseykit
    if not os.path.abspath(masseykit.__file__).startswith(SRC + os.sep):
        raise ImportError(f"masseykit imported from {masseykit.__file__}")


def pool_key(name: str, n: int, cls: str) -> str:
    return f"{name}|{n}|{cls}"


def char_values(group, row, p: int):
    """Character values on every element, from generator values, read
    off the group's element words by the benchmark itself."""
    return oracle.character_values(group.element_words, row, p)


def characters(group, rows, p: int):
    from masseykit import cohomology as chm
    return [chm.character(group, char_values(group, row, p), p)
            for row in rows]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pick(pool: dict, key: str, count: int, rng: random.Random):
    """``count`` distinct tuples of one class, chosen by the run's seed."""
    members = pool[key]
    if len(members) < count:
        raise ValueError(f"pool class {key} has {len(members)} tuples, "
                         f"the round needs {count}")
    return rng.sample(members, count)


def _pool_blocks(pool: dict, counts, rng: random.Random):
    """Per class, the seeded (group, n, generator rows) tuples."""
    return [[(key.split("|")[0], int(key.split("|")[1]), rows)
             for rows in _pick(pool, key, count, rng)]
            for key, count in counts]


def interleave(blocks):
    """One round from per-class lists: each class spread evenly over the
    round, in a pattern fixed by the class sizes alone.

    On a shared machine the speed drifts by tens of percent over seconds;
    a class run as one block samples it at a single instant, and the
    median of three such blocks moved 21% between runs.
    """
    keyed = [((k + 0.5) / len(items), c, item)
             for c, items in enumerate(blocks)
             for k, item in enumerate(items)]
    keyed.sort(key=lambda x: x[:2])
    return [item for *_, item in keyed]


def _build_groups(names, p_of):
    """Set-up shared by every workload: each group from the catalog, its
    cochain complex with the d1 solver and character basis, and its
    character list.  Returns the groups and the character lists."""
    from masseykit import cohomology as chm
    from masseykit import groups
    built, chars = {}, {}
    for name in names:
        g = groups.catalog(name)
        cx = chm.cochain_complex(g, p_of[name])
        cx.d1_solver
        cx.z1
        chars[name] = chm.characters_of(g, p_of[name])
        built[name] = g
    return built, chars


class Workload:
    """One workload: set-up, a seeded round of operations, checks."""

    name = ""
    # (pool key or label, count) per cost class; the quick mode keeps one
    # operation of each class
    slots: list = []

    def __init__(self, quick: bool, pool: dict):
        self.quick = quick
        self.pool = pool

    def counts(self):
        return [(key, 1 if self.quick else count)
                for key, count in self.slots]

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run_op(self, op, traced: bool):
        raise NotImplementedError

    def signature(self, result):
        """What must repeat exactly when the operation runs again."""
        raise NotImplementedError

    def check(self, ops, results, rng: random.Random) -> None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# finite-status: massey_status_finite on seeded character tuples
# ---------------------------------------------------------------------------

class FiniteStatus(Workload):
    name = "finite-status"
    # Undefined tuples (adjacent cup not a coboundary: d1 solves only)
    # around the median, defined ones (one identity-augmented value-space
    # solver build each) carrying most of the time.  The median sits in
    # the middle of the 30 order-27 undefined tuples.
    slots = [
        ("product(4,4)|3|undefined", 3), ("product(4,4)|4|undefined", 3),
        ("dihedral(16)|3|undefined", 3), ("dihedral(16)|4|undefined", 3),
        ("product(3,9)|3|undefined", 30),
        ("product(4,8)|3|undefined", 3), ("product(4,8)|4|undefined", 3),
        ("product(4,4)|4|defined", 1), ("dihedral(16)|3|defined", 1),
        ("product(3,9)|3|defined", 2),
        ("product(4,8)|3|defined", 1), ("product(4,8)|4|defined", 1),
    ]

    def setup(self, seed):
        names = sorted({key.split("|")[0] for key, _ in self.slots})
        self.groups, _ = _build_groups(names, PRIME)
        blocks = _pool_blocks(self.pool[self.name], self.counts(),
                              random.Random(seed))
        self.ops = interleave([
            [(name, n, rows, characters(self.groups[name], rows, PRIME[name]))
             for (name, n, rows) in block] for block in blocks])

    def run_op(self, op, traced):
        from masseykit import massey
        name, n, rows, chars = op
        return massey.massey_status_finite(self.groups[name], chars)

    def signature(self, report):
        w = report.witness
        return (report.status.value, None if w is None else tuple(
            (key, w.entries[key].values.tobytes())
            for key in sorted(w.entries)))

    def check(self, ops, results, rng):
        from masseykit import massey, unitriangular as ut
        for (name, n, rows, chars), report in zip(ops, results):
            g = self.groups[name]
            p = PRIME[name]
            t = oracle.Table(g.mul, p)
            vals = [char_values(g, row, p) for row in rows]
            for v in vals:
                require(t.is_character(v), f"{name}: {v} is no character")
            status = report.status.value
            cups_bound = all(t.is_coboundary(t.cup(vals[i], vals[i + 1]))
                             for i in range(n - 1))
            if not cups_bound:
                require(status == "Undefined",
                        f"{name} {rows}: an adjacent cup is not a "
                        f"coboundary, yet the verdict is {status}")
            if status == "Undefined":
                require(report.witness is None,
                        f"{name} {rows}: Undefined verdict with a witness")
            else:
                w = report.witness
                require(w is not None, f"{name} {rows}: {status} without "
                                       "a witness")
                entries = {k: w.entry(*k).values for k in w.entries}
                oracle.check_defining_system(
                    t, vals, entries, n, want_zero_value=status == "Vanishes")
            pres = g.known_presentation
            shape = ut.UniShape(n + 1, p)
            barred = len(massey.lift_search(pres, rows, shape.barred_shape()))
            unbarred = (len(massey.lift_search(pres, rows, shape))
                        if barred else 0)
            require(oracle.lift_verdict(barred, unbarred) == status,
                    f"{name} {rows}: status route says {status}, lifts "
                    f"({barred} barred, {unbarred} unbarred) disagree")


# ---------------------------------------------------------------------------
# presentation-lifts: lift_search into U(n+1, p) and its quotient
# ---------------------------------------------------------------------------

class PresentationLifts(Workload):
    name = "presentation-lifts"
    # Lift-free triples on elementary(2,4) (4 generators, 10 relators:
    # 256 + 4096 candidates swept, none kept) around the median; cheap n = 2
    # and order-27 searches below it; searches that return hundreds to
    # thousands of lifts above it, carrying most of the time.  Twelve
    # operations on each side of the 24 central ones.
    slots = [
        ("elementary(2,4)|2|1,0", 3), ("elementary(2,4)|2|1,16", 3),
        ("u3(3)|2|1,9", 3), ("product(3,9)|3|0,0", 3),
        ("elementary(2,4)|3|0,0", 24),
        ("elementary(2,4)|3|256,4096", 1), ("elementary(2,4)|3|256,32", 1),
        ("u3(3)|3|81,729", 2), ("u3(3)|3|81,0", 2),
        ("product(3,9)|3|81,243", 1),
        ("dihedral(8)|4|256,512", 1), ("quaternion8|4|256,256", 1),
        ("dihedral(16)|4|512,768", 1), ("product(4,4)|4|512,1024", 1),
        ("product(4,8)|4|256,512", 1),
    ]

    def setup(self, seed):
        names = sorted({key.split("|")[0] for key, _ in self.slots})
        self.groups, _ = _build_groups(names, PRIME)
        self.ops = interleave(_pool_blocks(
            self.pool[self.name], self.counts(), random.Random(seed)))

    def run_op(self, op, traced):
        from masseykit import massey, unitriangular as ut
        name, n, rows = op
        pres = self.groups[name].known_presentation
        shape = ut.UniShape(n + 1, PRIME[name])
        return (massey.lift_search(pres, rows, shape.barred_shape()),
                massey.lift_search(pres, rows, shape))

    def signature(self, result):
        return tuple(hash(tuple(m.entries for lift in lifts
                                for m in lift.images)) for lifts in result)

    def check(self, ops, results, rng):
        from masseykit import massey
        for (name, n, rows), (ubar, u) in zip(ops, results):
            g = self.groups[name]
            p = PRIME[name]
            pres = g.known_presentation
            h = oracle.hom_dimension(pres.relators, pres.generator_count, p)
            oracle.check_lift_counts(n, p, h, len(ubar), len(u))
            for lifts, barred in ((ubar, True), (u, False)):
                seen = {tuple(m.entries for m in lift.images)
                        for lift in lifts}
                require(len(seen) == len(lifts),
                        f"{name} {rows}: repeated lifts")
                for lift in rng.sample(lifts, min(4, len(lifts))):
                    images = [oracle.dense(m) for m in lift.images]
                    for gi, img in enumerate(images):
                        for i in range(n):
                            require(img[i][i + 1] == rows[i][gi] % p,
                                    f"{name} {rows}: superdiagonal of "
                                    f"generator {gi + 1} is off")
                        if barred:
                            require(img[0][n] == 0, "barred corner set")
                    require(oracle.satisfies_relators(
                        images, pres.relators, p, barred),
                        f"{name} {rows}: a lift breaks a relator")
            chars = characters(g, rows, p)
            status = massey.massey_status_finite(g, chars).status.value
            require(oracle.lift_verdict(len(ubar), len(u)) == status,
                    f"{name} {rows}: lifts ({len(ubar)}, {len(u)}) disagree "
                    f"with the status route's {status}")


# ---------------------------------------------------------------------------
# cohomology-basis: what `masseykit cohomology` computes, on fresh groups
# ---------------------------------------------------------------------------

# (group, p, kind, cyclic factors or order) -- kind picks the standard
# dimensions in oracle.standard_dims
COHOMOLOGY_GROUPS = [
    ("dihedral(20)", 2, "dihedral", (20,)),
    ("product(3,6)", 3, "abelian", (3, 6)),
    ("product(2,8)", 2, "abelian", (2, 8)),
    ("product(4,4)", 2, "abelian", (4, 4)),
    ("dihedral(16)", 2, "dihedral", (16,)),
    ("elementary(2,4)", 2, "abelian", (2, 2, 2, 2)),
    ("cyclic(16)", 2, "abelian", (16,)),
    ("dihedral(12)", 2, "dihedral", (12,)),
    ("product(2,6)", 2, "abelian", (2, 6)),
]
ORDER16 = COHOMOLOGY_GROUPS[2:7]


class CohomologyBasis(Workload):
    name = "cohomology-basis"
    # A round: the order-20 group (about 1.4 s, the peak memory), the
    # order-18 one at p = 3 (0.8 s), each order-16 group twice (about 0.3
    # s each) and the two of order 12 (0.06 s).  The median of the
    # fourteen falls in the middle of the ten order-16 operations.  The
    # order-20 one runs first, right after the collection that starts
    # every round, so its peak memory does not depend on what ran before.
    # Relabelling the elements would change the elimination cost by up
    # to 1.6x, so the tables stay canonical and the seed only orders the
    # order-16 and order-12 operations.

    def setup(self, seed):
        info = {name: tuple(rest) for (name, *rest) in COHOMOLOGY_GROUPS}
        names = list(info)
        # the set-up's character lists give the checks |Hom(G, Z/p)|
        _, self.characters = _build_groups(
            names, {n: info[n][0] for n in names})
        rng = random.Random(seed)
        if self.quick:
            # one each of order 18 at p = 3, order 16 and order 12
            self.ops = [COHOMOLOGY_GROUPS[k] for k in (1, 2, 7)]
            return
        order16 = ORDER16 * 2
        rng.shuffle(order16)
        small = COHOMOLOGY_GROUPS[7:]
        rng.shuffle(small)
        self.ops = COHOMOLOGY_GROUPS[:2] + order16 + small

    def run_op(self, op, traced):
        from masseykit import cohomology as chm
        from masseykit import groups
        name, p = op[0], op[1]
        g = groups.catalog(name)
        h1 = chm.h_basis(g, 1, p)
        h2 = chm.h_basis(g, 2, p)
        cx = chm.cochain_complex(g, p)
        bock = []
        for c in h1:
            chi = chm.character(g, c.representative.values, p)
            beta = chm.bockstein(chi)
            bock.append(cx.h2_coordinates(cx.flatten(beta.representative)))
        four = []
        if p == 2:
            for c in h1:
                chi = chm.character(g, c.representative.values, p)
                if chi.values.any():
                    rep = chm.four_term_exactness(g, chi)
                    four.append((rep.exact_at_h1, rep.exact_at_h2))
        return {"mul": g.mul,
                "h1": [c.representative.values for c in h1],
                "h2": [c.representative.values for c in h2],
                "bockstein": np.array(bock, dtype=np.int64).reshape(
                    len(h1), len(h2)),
                "four_term": four}

    def signature(self, r):
        return (len(r["h1"]), len(r["h2"]), tuple(r["four_term"]),
                r["bockstein"].tobytes())

    def check(self, ops, results, rng):
        for (name, p, kind, params), r in zip(ops, results):
            t = oracle.Table(r["mul"], p)
            d1, d2 = oracle.standard_dims(kind, params, p)
            require((len(r["h1"]), len(r["h2"])) == (d1, d2),
                    f"{name}: dims {(len(r['h1']), len(r['h2']))}, "
                    f"standard {(d1, d2)}")
            require(len(self.characters[name]) == p ** d1,
                    f"{name}: {len(self.characters[name])} characters in "
                    f"the set-up, not p^{d1}")
            for v in r["h1"]:
                require(t.is_character(v) and t.normalized(v),
                        f"{name}: an H^1 representative is no character")
            require(oracle.rank_mod_p(np.array(r["h1"]).reshape(d1, -1), p)
                    == d1, f"{name}: H^1 representatives are dependent")
            for z in r["h2"]:
                require(t.normalized(z) and not t.d(z).any(),
                        f"{name}: an H^2 representative is no cocycle")
            if d2:
                b2 = t.d1_matrix().T
                stacked = np.vstack([b2, np.array(r["h2"]).reshape(d2, -1)])
                require(oracle.rank_mod_p(stacked, p)
                        == oracle.rank_mod_p(b2, p) + d2,
                        f"{name}: H^2 representatives are dependent "
                        "modulo coboundaries")
            if kind == "abelian":
                want = oracle.bockstein_rank_abelian(params, p)
                got = oracle.rank_mod_p(r["bockstein"], p)
                require(got == want, f"{name}: Bockstein rank {got}, "
                                     f"expected {want}")
            if p == 2:
                require(len(r["four_term"]) == d1 and all(
                    a and b for a, b in r["four_term"]),
                    f"{name}: a four-term sequence is not exact")


# ---------------------------------------------------------------------------
# cli-jobs: one `masseykit` process per job
# ---------------------------------------------------------------------------

INLINE_GROUPS = ("dihedral(8)", "quaternion8", "product(2,4)")
COHOMOLOGY_JOBS = (("dihedral(8)", "dihedral", (8,)),
                   ("product(4,4)", "abelian", (4, 4)))
SCENARIOS = ("paper-example", "lemma-i+n", "u3-resolution",
             "exactness-sweep", "formal-h90")
PAPER_G = "1,1;1,0;1,0"


def _rows_arg(rows) -> str:
    return ";".join(",".join(str(v) for v in row) for row in rows)


class CliJobs(Workload):
    name = "cli-jobs"
    # Jobs that cost an interpreter start, the import and a small job
    # (about 0.35 s) are ten of the fifteen, so the median is one of them;
    # the order-32 document (d1 solver built in the process) and the
    # exactness sweep are the slow ones.
    slots = [("paper-g", 2), ("paper-h", 1), ("inline", 3),
             ("finite-16", 1), ("finite-32", 1), ("cohomology", 2),
             ("verify", 5)]

    def counts(self):
        if self.quick:
            return [("paper-g", 2), ("paper-h", 1), ("inline", 1),
                    ("finite-16", 1), ("cohomology", 1), ("verify", 1)]
        return self.slots

    def setup(self, seed):
        from masseykit import massey
        rng = random.Random(seed)
        p2 = {name: 2 for name in INLINE_GROUPS + ("product(4,4)",
                                                   "product(4,8)")}
        self.groups, _ = _build_groups(sorted(p2), p2)
        self.paper_h = massey.example_subgroup_presentation()
        self.workdir = os.path.join(OUT_DIR, f"cli-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.documents = 0
        jobs = interleave([[self._job(kind, k, rng) for k in range(count)]
                           for kind, count in self.counts()])
        for k, job in enumerate(jobs):
            job["report"] = os.path.join(self.workdir, f"report{k}.json")
        self.ops = jobs

    def _document(self, doc) -> str:
        path = os.path.join(self.workdir, f"job{self.documents}.json")
        self.documents += 1
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def _job(self, kind, k, rng):
        if kind == "paper-g":
            return {"kind": kind, "args": ["massey", "--presentation",
                                           "paper-g", "--characters",
                                           PAPER_G]}
        if kind == "paper-h":
            pres = self.paper_h
            homs = oracle.hom_rows(pres.relators, pres.generator_count, 2)
            rows = [list(rng.choice(homs)) for _ in range(3)]
            return {"kind": kind, "rows": rows,
                    "args": ["massey", "--presentation", "paper-h",
                             "--characters", _rows_arg(rows)]}
        if kind == "inline":
            name = INLINE_GROUPS[k % len(INLINE_GROUPS)]
            pres = self.groups[name].known_presentation
            homs = oracle.hom_rows(pres.relators, pres.generator_count, 2)
            rows = [list(rng.choice(homs)) for _ in range(3)]
            doc = {"type": "presentation", "generators": pres.generator_count,
                   "relators": [list(r) for r in pres.relators],
                   "label": name, "characters": rows}
            return {"kind": kind, "group": name, "rows": rows,
                    "args": ["massey", "--input", self._document(doc)]}
        if kind in ("finite-16", "finite-32"):
            name, key = (("product(4,4)", "product(4,4)|3|defined")
                         if kind == "finite-16" else
                         ("product(4,8)", "product(4,8)|3|undefined"))
            rows = _pick(self.pool["finite-status"], key, 1, rng)[0]
            g = self.groups[name]
            doc = {"type": "finite-group", "group": name, "prime": 2,
                   "characters": [char_values(g, row, 2).tolist()
                                  for row in rows]}
            return {"kind": "finite", "group": name, "rows": rows,
                    "args": ["massey", "--input", self._document(doc)]}
        if kind == "cohomology":
            name, gkind, params = COHOMOLOGY_JOBS[k]
            return {"kind": kind, "group": name, "gkind": gkind,
                    "params": params, "args": ["cohomology", "--group", name]}
        return {"kind": kind, "scenario": SCENARIOS[k],
                "args": ["verify", "--scenario", SCENARIOS[k]]}

    def run_op(self, op, traced):
        args = op["args"] + ["--output", op["report"]]
        if os.path.exists(op["report"]):
            os.unlink(op["report"])
        env = dict(os.environ, PYTHONPATH=SRC)
        if traced:
            side = op["report"] + ".trace.json"
            cmd = [sys.executable, os.path.join(BENCH, "child.py"), side]
        else:
            cmd = [sys.executable, "-m", "masseykit.cli"]
        start = time.perf_counter()
        proc = subprocess.run(cmd + args, env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE)
        wall = time.perf_counter() - start
        data = b""
        if os.path.exists(op["report"]):
            with open(op["report"], "rb") as fh:
                data = fh.read()
        if traced:
            with open(side) as fh:
                exported = json.load(fh)
            tr = self.tracer
            tr.absorb(exported, tr.op)
            tr.add("cli.process_s",
                   wall - exported["totals"].get("cli.main#s", 0.0))
            tr.add("cli.report_bytes", len(data))
        return {"code": proc.returncode, "report": data,
                "stderr": proc.stderr.decode(errors="replace")[-400:]}

    def signature(self, r):
        return (r["code"], _digest(r["report"]))

    def peak_rss_mb(self) -> float:
        import resource
        return resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def check(self, ops, results, rng):
        from masseykit import massey, unitriangular as ut
        paper_g = set()
        for job, r in zip(ops, results):
            require(r["code"] == 0, f"{job['args']} exited {r['code']}: "
                                    f"{r['stderr']}")
            rep = json.loads(r["report"])
            verdicts = rep["verdicts"]
            kind = job["kind"]
            if kind == "paper-g":
                paper_g.add(r["report"])
                require(verdicts == {"status": "DefinedNotVanishing",
                                     "ubar_lift_count": 16,
                                     "u_lift_count": 0}
                        and rep["search_stats"] == {"ubar_candidates": 16,
                                                    "u_candidates": 64},
                        f"paper-g report differs from the worked example: "
                        f"{verdicts} {rep['search_stats']}")
            elif kind == "paper-h":
                # an infinite group: no finite route; counting laws and the
                # same search made in this process
                pres = self.paper_h
                h = oracle.hom_dimension(pres.relators,
                                         pres.generator_count, 2)
                barred, unbarred = (verdicts["ubar_lift_count"],
                                    verdicts["u_lift_count"])
                oracle.check_lift_counts(3, 2, h, barred, unbarred)
                shape = ut.UniShape(4, 2)
                mine = (len(massey.lift_search(pres, job["rows"],
                                               shape.barred_shape())),
                        len(massey.lift_search(pres, job["rows"], shape)))
                require(mine == (barred, unbarred),
                        f"paper-h counts {(barred, unbarred)} vs {mine}")
                require(verdicts["status"]
                        == oracle.lift_verdict(barred, unbarred),
                        "paper-h verdict does not follow its counts")
            elif kind == "inline":
                g = self.groups[job["group"]]
                status = massey.massey_status_finite(
                    g, characters(g, job["rows"], 2)).status.value
                require(verdicts["status"] == status,
                        f"inline {job['group']}: {verdicts['status']} vs "
                        f"status route {status}")
                require(verdicts["status"] == oracle.lift_verdict(
                    verdicts["ubar_lift_count"], verdicts["u_lift_count"]),
                    "inline verdict does not follow its counts")
            elif kind == "finite":
                g = self.groups[job["group"]]
                pres = g.known_presentation
                shape = ut.UniShape(4, 2)
                barred = len(massey.lift_search(pres, job["rows"],
                                                shape.barred_shape()))
                unbarred = (len(massey.lift_search(pres, job["rows"], shape))
                            if barred else 0)
                require(verdicts["status"]
                        == oracle.lift_verdict(barred, unbarred),
                        f"finite {job['group']}: {verdicts['status']} vs "
                        f"lifts ({barred}, {unbarred})")
                system = rep["witnesses"]["defining_system"]
                if system is not None:
                    t = oracle.Table(g.mul, 2)
                    vals = [char_values(g, row, 2) for row in job["rows"]]
                    entries = {tuple(int(x) for x in k.split(",")):
                               np.array(v) for k, v in system.items()}
                    oracle.check_defining_system(
                        t, vals, entries, 3,
                        want_zero_value=verdicts["status"] == "Vanishes")
            elif kind == "cohomology":
                dims = oracle.standard_dims(job["gkind"], job["params"], 2)
                require((verdicts["h1_dim"], verdicts["h2_dim"]) == dims,
                        f"cohomology {job['group']}: dims differ from {dims}")
                require(len(verdicts["four_term"]) == dims[0] and all(
                    v["exact_at_h1"] and v["exact_at_h2"]
                    for v in verdicts["four_term"].values()),
                    f"cohomology {job['group']}: four-term not exact")
            else:
                require(verdicts == {"scenario": job["scenario"],
                                     "pass": True},
                        f"verify {job['scenario']}: {verdicts}")
        require(len(paper_g) == 1, "repeated paper-g jobs differ in bytes")


WORKLOADS = {w.name: w for w in (FiniteStatus, PresentationLifts,
                                 CohomologyBasis, CliJobs)}


def load_pool() -> dict:
    with open(POOL_PATH) as fh:
        return json.load(fh)
