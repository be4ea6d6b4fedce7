"""Outside-in tracing of masseykit's six layers.

The benchmark wraps public functions of each module at every place the
name is looked up (``cohomology`` and ``massey`` bind some ``gf_core``,
``groups`` and ``unitriangular`` names at import), and wraps class methods
such as ``PrimeSolver.__init__`` on the class.  Each call records a span
(operation id, name, parent span, start, end) in memory; counters are
updated at the same boundaries.  A span's self time is its duration minus
the time its child spans cover.  Nothing here changes what the program
computes: wrappers pass arguments and results through untouched.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("gf_core", "groups", "unitriangular", "cohomology", "massey", "cli")


def _free_positions(shape) -> int:
    return sum(1 for (i, j) in shape.positions if j != i + 1)


class Tracer:
    """Span store and counters for one process."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_op = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.totals: dict[str, float] = defaultdict(float)

    # -- recording ---------------------------------------------------------

    def add(self, key: str, value: float = 1.0) -> None:
        if self.active:
            self.totals[key] += value

    def wrap(self, name: str, fn, after=None):
        """``fn`` with a span named ``name`` (``layer.function``) around
        each call; ``after(tracer, args, kwargs, result)`` adds counts."""
        tracer = self
        layer = name.split(".", 1)[0]
        calls_key, time_key = name + "#calls", name + "#s"
        self_key = layer + ".self_s"
        nid = self._name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack, child = tracer._stack, tracer._child
            idx = len(tracer.span_start)
            tracer.span_op.append(tracer.op)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                covered = child.pop()
                if child:
                    child[-1] += t1 - t0
                tracer.span_start[idx] = t0
                tracer.span_end[idx] = t1
                totals = tracer.totals
                totals[calls_key] += 1
                totals[time_key] += t1 - t0
                totals[self_key] += (t1 - t0) - covered
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- output ------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_start)

    def dump(self, path: str) -> None:
        """Write every span as compressed columns: operation id, name id
        (into ``names``), parent span index (-1 for none), start, end."""
        np.savez_compressed(
            path, names=np.array(self.names), op=np.array(self.span_op),
            name=np.array(self.span_name), parent=np.array(self.span_parent),
            start=np.array(self.span_start), end=np.array(self.span_end))

    def export(self) -> dict:
        """Totals and spans as plain data, for a child process to hand to
        the benchmark."""
        return {"totals": dict(self.totals), "names": self.names,
                "spans": [[self.span_op[k], self.span_name[k],
                           self.span_parent[k], self.span_start[k],
                           self.span_end[k]]
                          for k in range(len(self.span_start))]}

    def absorb(self, exported: dict, op: int) -> None:
        """Merge a child's totals and spans under operation ``op``."""
        for key, value in exported["totals"].items():
            self.totals[key] += value
        base = len(self.span_start)
        remap = []
        for name in exported["names"]:
            nid = self._name_id.setdefault(name, len(self.names))
            if nid == len(self.names):
                self.names.append(name)
            remap.append(nid)
        for (_, nid, parent, t0, t1) in exported["spans"]:
            self.span_op.append(op)
            self.span_name.append(remap[nid])
            self.span_parent.append(parent + base if parent >= 0 else -1)
            self.span_start.append(t0)
            self.span_end.append(t1)


# ---------------------------------------------------------------------------
# counters that need the call's arguments or result
# ---------------------------------------------------------------------------

def _after_rref(tr, args, kwargs, result):
    rows, cols = np.shape(args[0])
    tr.add("gf_core.rref_cells", rows * cols)


def _after_solver_init(tr, args, kwargs, result):
    self = args[0]
    tr.add("gf_core.solver_rows", self.rows)


def _after_status(tr, args, kwargs, report):
    stats = report.search_stats
    tr.add("massey.status_solves", stats.get("solves", 0))
    tr.add("massey.layer2_combos", stats.get("layer2_combos", 0))
    tr.add("massey.combos_examined", stats.get("examined", 0))


def _after_lift_search(tr, args, kwargs, lifts):
    pres, shape = args[0], args[2] if len(args) > 2 else kwargs["shape"]
    tr.add("massey.lift_candidates",
           shape.prime ** (_free_positions(shape) * pres.generator_count))
    tr.add("massey.lifts_found", len(lifts))


def install(tracer: Tracer) -> None:
    """Wrap the six layers' public entry points wherever they are bound."""
    import masseykit
    from masseykit import cli, cohomology, gf_core, groups, massey
    from masseykit import unitriangular

    def patch(name, after=None, homes=()):
        layer, attr = name.split(".")
        owner = {"gf_core": gf_core, "groups": groups,
                 "unitriangular": unitriangular, "cohomology": cohomology,
                 "massey": massey, "cli": cli}[layer]
        fn = getattr(owner, attr)
        wrapped = tracer.wrap(name, fn, after)
        for module in (owner, masseykit) + tuple(homes):
            if getattr(module, attr, None) is fn:
                setattr(module, attr, wrapped)

    def patch_method(name, cls, attr, after=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), after))

    patch("gf_core.rref_array", _after_rref, (cohomology,))
    patch("gf_core.nullspace_array", None, (cohomology,))
    patch("gf_core.solve_array")
    patch_method("gf_core.solver_build", gf_core.PrimeSolver, "__init__",
                 _after_solver_init)
    patch_method("gf_core.solve", gf_core.PrimeSolver, "solve")
    patch("groups.catalog")
    patch("groups.evaluate_word", None, (massey,))
    patch("unitriangular.uni_mul")
    patch_method("cohomology.complex_build", cohomology._Complex, "__init__")
    patch("cohomology.characters_of", None, (massey,))
    patch("cohomology.h_basis", None, (massey,))
    patch("cohomology.bockstein")
    patch("cohomology.four_term_exactness")
    patch("massey.massey_status_finite", _after_status)
    patch("massey.lift_search", _after_lift_search)
    patch("cli.main")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> (source total, unit); every figure is divided by the operations
# of the traced rounds, so it repeats exactly whatever the run length.
PER_OP = {
    "gf_core.rref_calls": ("gf_core.rref_array#calls", "count"),
    "gf_core.rref_cells": ("gf_core.rref_cells", "count"),
    "gf_core.rref_s": ("gf_core.rref_array#s", "s"),
    "gf_core.solver_builds": ("gf_core.solver_build#calls", "count"),
    "gf_core.solver_rows": ("gf_core.solver_rows", "count"),
    "gf_core.solver_build_s": ("gf_core.solver_build#s", "s"),
    "gf_core.solves": ("gf_core.solve#calls", "count"),
    "gf_core.solve_s": ("gf_core.solve#s", "s"),
    "groups.catalog_s": ("groups.catalog#s", "s"),
    "groups.evaluate_word_calls": ("groups.evaluate_word#calls", "count"),
    "groups.evaluate_word_s": ("groups.evaluate_word#s", "s"),
    "unitriangular.uni_mul_calls": ("unitriangular.uni_mul#calls", "count"),
    "unitriangular.uni_mul_s": ("unitriangular.uni_mul#s", "s"),
    "cohomology.complexes_built": ("cohomology.complex_build#calls", "count"),
    "cohomology.characters_of_s": ("cohomology.characters_of#s", "s"),
    "cohomology.h_basis_s": ("cohomology.h_basis#s", "s"),
    "cohomology.bockstein_s": ("cohomology.bockstein#s", "s"),
    "cohomology.four_term_s": ("cohomology.four_term_exactness#s", "s"),
    "massey.status_calls": ("massey.massey_status_finite#calls", "count"),
    "massey.status_s": ("massey.massey_status_finite#s", "s"),
    "massey.status_solves": ("massey.status_solves", "count"),
    "massey.layer2_combos": ("massey.layer2_combos", "count"),
    "massey.combos_examined": ("massey.combos_examined", "count"),
    "massey.lift_searches": ("massey.lift_search#calls", "count"),
    "massey.lift_search_s": ("massey.lift_search#s", "s"),
    "massey.lift_candidates": ("massey.lift_candidates", "count"),
    "massey.lifts_found": ("massey.lifts_found", "count"),
    "cli.import_s": ("cli.import_s", "s"),
    "cli.main_s": ("cli.main#s", "s"),
    "cli.process_s": ("cli.process_s", "s"),
    "cli.report_bytes": ("cli.report_bytes", "bytes"),
}
PER_OP.update({f"{layer}.self_s": (f"{layer}.self_s", "s")
               for layer in LAYERS})

# set-up figures, divided by the number of set-ups
PER_SETUP = {
    "setup.gf_core.rref_s": ("gf_core.rref_array#s", "s"),
    "setup.cohomology.complexes_built": ("cohomology.complex_build#calls",
                                         "count"),
    "setup.groups.catalog_s": ("groups.catalog#s", "s"),
}

OTHER = {
    "massey.lift_yield": "ratio",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


def per_layer_metrics(op_totals: dict, ops: int, setup_totals: dict,
                      setups: int, spans: int, overhead_pct: float) -> dict:
    out = {}
    for name, (key, unit) in PER_OP.items():
        out[name] = {"value": op_totals.get(key, 0.0) / ops, "unit": unit}
    for name, (key, unit) in PER_SETUP.items():
        out[name] = {"value": setup_totals.get(key, 0.0) / setups,
                     "unit": unit}
    cand = op_totals.get("massey.lift_candidates", 0.0)
    out["massey.lift_yield"] = {
        "value": op_totals.get("massey.lifts_found", 0.0) / cand if cand
        else 0.0, "unit": "ratio"}
    out["trace.spans"] = {"value": spans / ops, "unit": "count"}
    out["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    return out


def metric_catalog() -> list[dict]:
    """The per-layer entries of BENCHMARK.json, in print order."""
    rows = [(n, u) for n, (_, u) in PER_OP.items()]
    rows += [(n, u) for n, (_, u) in PER_SETUP.items()]
    rows += list(OTHER.items())
    # less work and less time are better; a higher share of candidates
    # that are lifts means less wasted search
    return [{"name": n, "unit": u,
             "better": "higher" if n == "massey.lift_yield" else "lower"}
            for n, u in rows]
