import collections
import copy
import hashlib
import itertools
import json
import os
import random

import numpy as np
import pytest

from masseykit import cli
from masseykit import cohomology as chm
from masseykit import gf_core as gf
from masseykit import groups as gr
from masseykit import massey as msy
from masseykit import unitriangular as ut
from masseykit.errors import (
    BudgetExceeded,
    InternalInconsistency,
    InvalidSystem,
    MasseykitError,
)

from helpers import (
    char_rows_for,
    coordinate_character,
    dense_d1,
    dense_validate_defining_system,
    layered_search,
)


def chars_of(g):
    return chm.characters_of(g, 2)


# ---------------------------------------------------------------------------
# defining systems
# ---------------------------------------------------------------------------

def test_validate_pair_system():
    g = gr.catalog("cyclic(2)")
    chi = chm.character(g, [0, 1], 2)
    ds = msy.DefiningSystem(g, 2, 2, {
        (1, 2): chm.cochain(g, 1, 2, chi.values),
        (2, 3): chm.cochain(g, 1, 2, chi.values)})
    assert msy.validate_defining_system(ds, [chi, chi])


def test_validate_rejects_perturbation():
    g = gr.catalog("u3(2)")
    u12 = coordinate_character(g, 1, 2, 2)
    u23 = coordinate_character(g, 2, 3, 2)
    rep = msy.massey_status_finite(g, [u12, u23, u12])
    ds = rep.witness
    assert msy.validate_defining_system(ds, [u12, u23, u12])
    # perturb one inner entry by a non-cocycle
    bad = dict(ds.entries)
    vals = bad[(1, 3)].values.copy()
    vals[1] = (vals[1] + 1) % 2
    cand = chm.cochain(g, 1, 2, vals)
    if chm.coboundary(cand).is_zero():
        vals[2] = (vals[2] + 1) % 2
        cand = chm.cochain(g, 1, 2, vals)
    bad[(1, 3)] = cand
    ds_bad = msy.DefiningSystem(g, 2, 3, bad)
    assert not msy.validate_defining_system(ds_bad, [u12, u23, u12])


def test_validate_lift_extracted_system():
    g = gr.catalog("u3(2)")
    u12 = coordinate_character(g, 1, 2, 2)
    u23 = coordinate_character(g, 2, 3, 2)
    tup = [u12, u23, u12]
    rows = char_rows_for(g, tup)
    sh = ut.UniShape(4, 2, True)
    lifts = msy.lift_search(g.known_presentation, rows, sh)
    assert lifts
    for lift in lifts[:4]:
        ds = msy.defining_system_from_lift(lift, g)
        assert msy.validate_defining_system(ds, tup)


def test_value_of_pair_system_is_cup():
    g = gr.catalog("cyclic(2)")
    chi = chm.character(g, [0, 1], 2)
    ds = msy.DefiningSystem(g, 2, 2, {
        (1, 2): chm.cochain(g, 1, 2, chi.values),
        (2, 3): chm.cochain(g, 1, 2, chi.values)})
    val = msy.defining_system_value(ds)
    assert chm.is_coboundary(
        val.representative - chm.cup(chi, chi).scale(-1)) is not None


def test_value_zero_system():
    g = gr.catalog("cyclic(2)")
    zero = chm.zero_cochain(g, 1, 2)
    ds = msy.DefiningSystem(g, 2, 3, {
        (1, 2): zero, (2, 3): zero, (3, 4): zero,
        (1, 3): zero, (2, 4): zero})
    assert msy.defining_system_value(ds).is_zero_class()


# ---------------------------------------------------------------------------
# finite status decisions
# ---------------------------------------------------------------------------

def test_status_pairs_match_cup_oracle():
    for name in ("cyclic(4)", "product(2,2)", "quaternion8", "u3(2)"):
        g = gr.catalog(name)
        for c1, c2 in itertools.product(chars_of(g), repeat=2):
            rep = msy.massey_status_finite(g, [c1, c2])
            assert rep.defined
            want = chm.is_coboundary(chm.cup(c1, c2)) is not None
            assert rep.vanishes == want


def test_status_triple_with_zero_factor_vanishes():
    g = gr.catalog("quaternion8")
    cs = chars_of(g)
    zero = cs[0]
    rep = msy.massey_status_finite(g, [cs[1], zero, cs[2]])
    assert rep.status is msy.MasseyStatus.VANISHES


# (group, p, n, seeded tuples, or None for every tuple); the exhaustive
# layered_search decides every value with dense d1 solves alone, sharing
# no code with the generating-set coordinates or the cokernel test of
# massey_status_finite.  At n = 5 dim H^1 = 1 leaves at most p^9 systems
# per tuple
ORACLE_CASES = [
    ("cyclic(4)", 2, 3, 6), ("product(2,2)", 2, 3, 6), ("u3(2)", 2, 3, 6),
    ("quaternion8", 2, 3, 6),
    ("u3(3)", 3, 3, 20), ("product(3,9)", 3, 3, 20),
    ("product(4,4)", 2, 4, 20), ("dihedral(16)", 2, 4, 20),
    ("cyclic(3)", 2, 4, 1),     # H^1 = 0: an empty middle layer
    ("cyclic(4)", 2, 5, None), ("cyclic(2)", 2, 5, None),
    ("cyclic(3)", 3, 5, None),
]


def test_status_matches_layered_search():
    rng = random.Random(7)
    seen = set()
    for name, p, n, count in ORACLE_CASES:
        g = gr.catalog(name)
        cs = chm.characters_of(g, p)
        dense = gf.PrimeSolver(dense_d1(g, p), p)
        tuples = ([list(t) for t in itertools.product(cs, repeat=n)]
                  if count is None else
                  [[rng.choice(cs) for _ in range(n)] for _ in range(count)])
        if name == "product(4,4)":
            # a fourfold DefinedNotVanishing tuple the seed does not reach
            tuples.append([cs[1]] * 4)
        for tup in tuples:
            fast = msy.massey_status_finite(g, tup)
            slow = layered_search(g, tup, dense)
            assert fast.status == slow.status, (name, fast.status)
            seen.add((n, fast.status))
            if fast.witness is not None:
                assert msy.validate_defining_system(fast.witness, tup)
            if fast.vanishes:
                assert msy.defining_system_value(
                    fast.witness).is_zero_class()
    assert {s for _, s in seen} == set(msy.MasseyStatus)
    assert (4, msy.MasseyStatus.DEFINED_NOT_VANISHING) in seen
    assert {(5, msy.MasseyStatus.UNDEFINED), (5, msy.MasseyStatus.VANISHES)} \
        <= seen


def test_status_matches_lift_search_at_n5():
    # n = 5 against lift_search into U(6, 2) and its corner-free quotient,
    # on a seeded sample per group and on the tuples whose offset-3
    # feasibility holds while every feasible middle layer fails at offset
    # 4.  Exhaustive n = 5 scans at p = 2 of the catalog groups of order
    # <= 32 (all but elementary(2,5)) find no DefinedNotVanishing tuple,
    # so that verdict waits for the corner-free quotient of U(6, 2),
    # above the order cap
    rng = random.Random(5)
    shape = ut.UniShape(6, 2)
    late = {"dihedral(8)": [(0, 1, 2, 1, 2), (1, 2, 1, 2, 1)],
            "product(2,4)": [(0, 1, 1, 1, 1), (1, 1, 1, 1, 1)]}
    counts = collections.Counter()
    for name in ("dihedral(8)", "quaternion8", "product(2,4)"):
        g = gr.catalog(name)
        cs = chars_of(g)
        tuples = [[rng.choice(cs) for _ in range(5)] for _ in range(60)]
        tuples += [[cs[i] for i in idx] for idx in late.get(name, [])]
        for tup in tuples:
            rep = msy.massey_status_finite(g, tup)
            rows = char_rows_for(g, tup)
            ubar = msy.lift_search(g.known_presentation, rows,
                                   shape.barred_shape(), budget=2 ** 60)
            u = msy.lift_search(g.known_presentation, rows, shape,
                                budget=2 ** 60)
            assert rep.defined == bool(ubar), (name, rep.search_stats)
            assert rep.vanishes == bool(u), (name, rep.search_stats)
            counts[rep.status] += 1
            if rep.witness is not None:
                assert msy.validate_defining_system(rep.witness, tup)
            for lift in ubar[:1]:
                ds = msy.defining_system_from_lift(lift, g)
                assert msy.validate_defining_system(ds, tup)
            for lift in u[:1]:
                ds = msy.defining_system_from_lift(lift, g)
                assert msy.validate_defining_system(ds, tup)
                assert msy.defining_system_value(ds).is_zero_class()
    assert counts == {msy.MasseyStatus.UNDEFINED: 166,
                      msy.MasseyStatus.VANISHES: 18}


def test_value_split_matches_dense_rank():
    # the sampled tuples above are all decided before the cup columns of
    # the value test matter, so drive that test directly against a dense
    # rank computation over [cups | d1 | value] in the full bar-complex
    # coordinates.  value_split reads only the G x S entries of a value,
    # which decide membership for cocycles, the only values it is given;
    # so every value here is a cocycle: a span member, plus a random
    # 2-cocycle every other time, which may or may not leave the span
    rng = random.Random(21)
    needed = misses = 0
    for name, p in (("product(4,4)", 2), ("product(3,9)", 3)):
        g = gr.catalog(name)
        cs = [c for c in chm.characters_of(g, p) if c.values.any()]
        cx = chm.cochain_complex(g, p)
        d1 = dense_d1(g, p)
        for row in cx.z2:
            assert chm.coboundary(cx.unflatten(row, 2)).is_zero()
        for _ in range(4):
            first, last = (cx.char_vec(rng.choice(cs)) for _ in range(2))
            full = np.array([np.multiply.outer(first, psi).ravel()
                             for psi in cx.z1]
                            + [np.multiply.outer(psi, last).ravel()
                               for psi in cx.z1]).T % p
            span = np.concatenate([full, d1], axis=1)
            rank = gf.rref_array(span, p)[2]
            cups = msy._value_cups(cx, first, last)
            for k in range(6):
                coeffs = np.array([rng.randrange(p) for _ in full.T])
                u = np.array([rng.randrange(p) for _ in range(cx.ne)])
                value = (full @ coeffs + d1 @ u) % p
                if k % 2:
                    z = np.array([rng.randrange(p) for _ in cx.z2])
                    value = (value + z @ cx.z2) % p
                aug = np.concatenate([span, value[:, None]], axis=1)
                member = gf.rref_array(aug, p)[2] == rank
                misses += not member
                sol = msy._value_split(cx, cups, cx.gs_entries(value))
                assert (sol is not None) == member, (name, k)
                if sol is not None:
                    rest = (value - full @ np.concatenate(sol)) % p
                    assert gf.solve_array(d1, rest, p) is not None
                    needed += gf.solve_array(d1, value, p) is None
    assert needed
    assert misses


# (group, p, character indices) of every status at n = 2, 3 and 4, and
# of both statuses seen at n = 5 (an Undefined one decided above offset 3)
STATUS_TUPLES = [
    ("quaternion8", 2, (0, 0)), ("quaternion8", 2, (1, 1)),
    ("quaternion8", 2, (0, 1, 1)), ("cyclic(3)", 3, (1, 1, 1)),
    ("quaternion8", 2, (0, 0, 0)), ("quaternion8", 2, (0, 0, 1, 1)),
    ("u3(2)", 2, (1, 2, 1, 2)), ("quaternion8", 2, (0, 0, 0, 0)),
    ("u3(2)", 2, (1, 2, 1, 2, 1)), ("quaternion8", 2, (0, 0, 0, 0, 0)),
]


def test_status_builds_no_full_bar_cochain(monkeypatch):
    # the finite route decides and checks everything on the G x S rows of
    # its complex: no full degree-2 coboundary or cup is ever formed
    def refuse(*args):
        raise AssertionError("full bar-complex arithmetic")

    for name in ("coboundary", "cup"):
        monkeypatch.setattr(chm, name, refuse)
        if hasattr(msy, name):
            monkeypatch.setattr(msy, name, refuse)
    seen = set()
    for name, p, idx in STATUS_TUPLES:
        g = gr.catalog(name)
        cs = chm.characters_of(g, p)
        rep = msy.massey_status_finite(g, [cs[i] for i in idx])
        seen.add((len(idx), rep.status))
    assert seen == {(n, s) for n in (2, 3, 4) for s in msy.MasseyStatus} \
        - {(2, msy.MasseyStatus.UNDEFINED)} \
        | {(5, msy.MasseyStatus.UNDEFINED), (5, msy.MasseyStatus.VANISHES)}


def _non_cocycle(rng, g, p):
    while True:
        c = chm.cochain(g, 1, p, [rng.randrange(p) for _ in range(g.order)])
        if not chm.coboundary(c).is_zero():
            return c


def test_validate_matches_full_bar_reference():
    # the witnesses of STATUS_TUPLES and of seeded tuples at p = 2, 3 and
    # n = 2, 3, 4, and every single-position perturbation of each: a
    # superdiagonal entry made a non-homomorphism, an inner entry shifted
    # by a non-cocycle or by a character
    rng = random.Random(9)
    outcomes = set()
    witnesses = collections.Counter()
    for name, p in (("quaternion8", 2), ("u3(2)", 2), ("product(4,4)", 2),
                    ("cyclic(3)", 3), ("u3(3)", 3), ("product(3,3)", 3)):
        g = gr.catalog(name)
        cs = chm.characters_of(g, p)
        shifts = [c for c in cs if c.values.any()][:1]
        tuples = [[cs[i] for i in idx]
                  for other, _, idx in STATUS_TUPLES if other == name]
        tuples += [[rng.choice(cs) for _ in range(n)]
                   for n in (2, 3, 4) for _ in range(6)]
        for tup in tuples:
            ds = msy.massey_status_finite(g, tup).witness
            if ds is None:
                continue
            witnesses[(len(tup), p)] += 1
            systems = [ds]
            for key, entry in ds.entries.items():
                moves = [_non_cocycle(rng, g, p)]
                if key[1] - key[0] > 1:
                    moves += shifts
                for move in moves:
                    entries = dict(ds.entries)
                    entries[key] = entry + chm.cochain(g, 1, p, move.values)
                    systems.append(msy.DefiningSystem(g, p, len(tup),
                                                      entries))
            for system in systems:
                want = dense_validate_defining_system(system, tup)
                assert msy.validate_defining_system(system, tup) == want
                outcomes.add(want)
    assert outcomes == {True, False}
    assert min(witnesses[(n, p)] for n in (2, 3, 4) for p in (2, 3)) >= 3


def test_status_fourfold_matches_layered_search_small():
    g = gr.catalog("cyclic(4)")
    cs = chars_of(g)
    dense = gf.PrimeSolver(dense_d1(g, 2), 2)
    for tup in itertools.product(cs, repeat=4):
        fast = msy.massey_status_finite(g, list(tup))
        slow = layered_search(g, list(tup), dense)
        assert fast.status == slow.status


def test_status_witness_revalidates():
    g = gr.catalog("u3(2)")
    cs = chars_of(g)
    rng = random.Random(8)
    for _ in range(8):
        tup = [rng.choice(cs) for _ in range(3)]
        rep = msy.massey_status_finite(g, tup)
        if rep.witness is not None:
            assert msy.validate_defining_system(rep.witness, tup)
            if rep.vanishes:
                assert msy.defining_system_value(rep.witness).is_zero_class()


BENCH_INPUTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "inputs.json")


def test_status_output_is_pinned():
    # verdict, search_stats and witness bytes of every finite-status pool
    # tuple of the benchmark (n = 3, 4 at orders 16, 27 and 32), hashed in
    # pool order; the dense bar-complex route gave the same digest
    with open(BENCH_INPUTS) as fh:
        pool = json.load(fh)["finite-status"]
    h = hashlib.sha256()
    count = 0
    for key in sorted(pool):
        name = key.split("|")[0]
        g = gr.catalog(name)
        p = 3 if name == "product(3,9)" else 2
        for rows in pool[key]:
            chars = [chm.character(g, [sum(row[abs(x) - 1] * (1 if x > 0
                                                              else -1)
                                           for x in w) % p
                                       for w in g.element_words], p)
                     for row in rows]
            rep = msy.massey_status_finite(g, chars)
            h.update(rep.status.value.encode())
            h.update(json.dumps(rep.search_stats, sort_keys=True).encode())
            if rep.witness is not None:
                for k in sorted(rep.witness.entries):
                    h.update(repr(k).encode())
                    h.update(rep.witness.entries[k].values.tobytes())
            count += 1
    assert count == 512
    assert h.hexdigest() == ("6395d90da5d8e9f1213d209217064d2d"
                             "409e3f19f504753f37c3fd0c8fadff89")


def test_status_on_trivial_and_character_free_groups():
    # cyclic(1) has an empty generating set and cyclic(3) no character
    # at p = 2: every tuple is the zero tuple, and vanishes
    for name in ("cyclic(1)", "cyclic(3)"):
        g = gr.catalog(name)
        zero, = chars_of(g)
        for n in (2, 3, 4):
            rep = msy.massey_status_finite(g, [zero] * n)
            assert rep.status is msy.MasseyStatus.VANISHES
            assert layered_search(g, [zero] * n).status is rep.status
            assert msy.validate_defining_system(rep.witness, [zero] * n)


def test_status_budget():
    # the all-zero fourfold tuple leaves the full middle layer feasible
    g = gr.catalog("elementary(2,4)")
    zero = chars_of(g)[0]
    with pytest.raises(BudgetExceeded):
        msy.massey_status_finite(g, [zero] * 4, budget=16)


def test_status_budget_sums_every_swept_offset():
    # the all-zero fivefold tuple of Z/2: offset 2 has 2^4 feasible
    # combinations, within a budget of 16, and the first offset-3 sweep
    # adds 2^3 more
    g = gr.catalog("cyclic(2)")
    zero = chars_of(g)[0]
    with pytest.raises(BudgetExceeded) as info:
        msy.massey_status_finite(g, [zero] * 5, budget=16)
    assert str(info.value) == "24 feasible middle layers exceed budget 16"
    assert info.value.stats == {"method": "layered-linear", "solves": 4,
                                "layer2_combos": 16, "layer3_combos": 8}
    rep = msy.massey_status_finite(g, [zero] * 5, budget=24)
    assert rep.vanishes
    assert rep.search_stats["examined"] == 1


# ---------------------------------------------------------------------------
# lift search
# ---------------------------------------------------------------------------

def test_lift_search_example_counts():
    pres = msy.example_group_presentation()
    rows = [(1, 1), (1, 0), (1, 0)]
    sh = ut.UniShape(4, 2)
    ubar = msy.lift_search(pres, rows, sh.barred_shape())
    u = msy.lift_search(pres, rows, sh)
    assert len(ubar) >= 1
    assert len(u) == 0
    # the bundled corner-free lift: a -> full superdiagonal, b -> (1,2) only
    ta = ut.i_plus_n(sh.barred_shape())
    tb = ut.from_entries(sh.barred_shape(), {(1, 2): 1})
    assert any(L.images == (ta, tb) for L in ubar)


def test_lift_search_ubar3_unique():
    g = gr.catalog("product(2,2)")
    pres = g.known_presentation
    sh = ut.UniShape(3, 2, True)
    for c1, c2 in itertools.product(chars_of(g), repeat=2):
        rows = char_rows_for(g, [c1, c2])
        lifts = msy.lift_search(pres, rows, sh)
        assert len(lifts) == 1


def test_lift_search_rejects_degenerate_size():
    with pytest.raises(ValueError):
        ut.UniShape(2, 2)


def test_lift_search_validates_characters():
    pres = gr.Presentation(1, ((1, 1),))
    with pytest.raises(ValueError):
        # the nontrivial character of Z/2 squared is not a relator-killer
        # for x^2 when asked mod 3
        msy.lift_search(pres, [(1,), (0,)], ut.UniShape(3, 3))


def test_lift_search_budget():
    pres = msy.example_group_presentation()
    with pytest.raises(BudgetExceeded):
        msy.lift_search(pres, [(1, 1), (1, 0), (1, 0)], ut.UniShape(4, 2),
                        budget=4)


def test_lift_images_respect_relators_and_superdiagonal():
    pres = msy.example_group_presentation()
    rows = [(1, 1), (1, 0), (1, 0)]
    sh = ut.UniShape(4, 2, True)
    for lift in msy.lift_search(pres, rows, sh):
        assert gr.evaluate_word(pres.relators[0], lift.images).is_identity()
        for gidx, img in enumerate(lift.images):
            for i in range(1, 4):
                assert img.entry(i, i + 1) == rows[i - 1][gidx]


# Digests of the full lift_search output, generated before lift checking
# was batched: per lift, in order, repr((shape, entries of every image,
# characters)).  The rows are the first pool tuple of each class in the
# benchmark's inputs.
PINNED_LIFTS = [
    ("elementary(2,4)", 2, [[0, 0, 0, 0], [1, 1, 1, 0], [0, 0, 0, 0]],
     (256, "75b4b40990c34ea63a3b26a31cb661c0003b3b3ddf8bed34c466b7a51e920efb"),
     (4096, "625c4ee3a34394ce1c531655d5bffc486014d063fc0a8f3eb250fb659a8cc533")),
    ("u3(3)", 3, [[1, 1], [0, 0], [1, 1]],
     (81, "ef1ec80e992baa8f07f3552cff37702c589781d578dfdf5cfa14a85b8812c475"),
     (729, "b0d84a066f2ecb850fb5421a4c91f1a4e918158cc32983cfbe73d60c8a1b067f")),
    ("dihedral(16)", 2, [[1, 1], [0, 0], [1, 1], [0, 0]],
     (512, "c1a3edd2eeff409de06a9a3d14d0c58f1f34cede01eb92c04450563a70a06fa3"),
     (768, "cbcaacdb1894cfb93320ec5c9d77390aec6b597caa6902660c8875559fc5c3d5")),
    ("elementary(2,4)", 2, [[0, 1, 1, 0], [0, 0, 0, 0]],
     (1, "300cad1791db1c922db5cc276469698af0f08a07b1b48d2fd9eae42efd0eaa6a"),
     (16, "5e52feab760a18709de437478e47e6560fa7d44052a7cea3b26445f17a83a293")),
]


def _lift_digest(lifts):
    h = hashlib.sha256()
    for lift in lifts:
        h.update(repr((lift.shape, tuple(m.entries for m in lift.images),
                       lift.characters)).encode())
    return len(lifts), h.hexdigest()


@pytest.mark.parametrize("name,p,rows,barred,unbarred", PINNED_LIFTS)
def test_lift_search_output_is_pinned(name, p, rows, barred, unbarred):
    pres = gr.catalog(name).known_presentation
    sh = ut.UniShape(len(rows) + 1, p)
    assert _lift_digest(msy.lift_search(pres, rows, sh.barred_shape())) \
        == barred
    assert _lift_digest(msy.lift_search(pres, rows, sh)) == unbarred


def _relators_hold(pres, images):
    return all(gr.evaluate_word(r, images).is_identity()
               for r in pres.relators)


def _brute_force_lifts(pres, rows, shape):
    """Every candidate in (generator, free position) order, kept when each
    relator evaluates to the identity under the tuple arithmetic of
    ``uni_mul``."""
    free = [(i, j) for (i, j) in shape.positions if j != i + 1]
    options = []
    for g in range(pres.generator_count):
        diagonal = {(i, i + 1): rows[i - 1][g] for i in range(1, shape.size)}
        options.append([
            ut.from_entries(shape, {**diagonal, **dict(zip(free, digits))})
            for digits in itertools.product(range(shape.prime),
                                            repeat=len(free))])
    return [tuple(m.entries for m in images)
            for images in itertools.product(*options)
            if _relators_hold(pres, images)]


def _oracle_cases():
    u33 = gr.catalog("u3(3)")
    for tup in itertools.product(chm.characters_of(u33, 3), repeat=2):
        yield u33.known_presentation, char_rows_for(u33, tup), 3
    d8 = gr.catalog("dihedral(8)")
    cs = chars_of(d8)
    for idx in ((0, 0, 0, 0), (1, 0, 2, 1), (0, 1, 1, 0)):
        yield d8.known_presentation, char_rows_for(d8, [cs[i] for i in idx]), 2
    c3 = gr.catalog("cyclic(3)").known_presentation    # Hom(G, Z/2) = 0
    for n in (2, 3):
        yield c3, [[0]] * n, 2


def test_lift_search_matches_brute_force_sweep():
    seen = set()
    for pres, rows, p in _oracle_cases():
        sh = ut.UniShape(len(rows) + 1, p)
        for shape in (sh.barred_shape(), sh):
            want = _brute_force_lifts(pres, rows, shape)
            got = msy.lift_search(pres, rows, shape)
            assert [tuple(m.entries for m in lift.images)
                    for lift in got] == want, (pres.label, rows, shape)
            seen.add(len(want))
    # empty, single and branching (not a power of p) lift sets all occur
    assert {0, 1, 2304} <= seen


def _entries(lifts):
    return [tuple(m.entries for m in lift.images) for lift in lifts]


def test_lift_set_reads_follow_the_list_order():
    # every way of reading a LiftSet gives the lifts of list(...), which
    # the brute-force oracle fixes here and the sha256 pins below
    cases = list(_oracle_cases())
    # every tenth u3(3) pair, the branching dihedral(8) case and Z/3
    for pres, rows, p in cases[:81:10] + cases[81:82] + cases[84:]:
        sh = ut.UniShape(len(rows) + 1, p)
        for shape in (sh.barred_shape(), sh):
            lifts = msy.lift_search(pres, rows, shape)
            whole = list(lifts)
            want = _brute_force_lifts(pres, rows, shape)
            assert isinstance(lifts, collections.abc.Sequence)
            assert len(lifts) == len(whole) == len(want)
            assert _entries(whole) == want
            _assert_reads_match(lifts, whole)
    for name, p, rows, barred, unbarred in PINNED_LIFTS:
        pres = gr.catalog(name).known_presentation
        sh = ut.UniShape(len(rows) + 1, p)
        for shape, pin in ((sh.barred_shape(), barred), (sh, unbarred)):
            lifts = msy.lift_search(pres, rows, shape)
            assert _lift_digest(lifts[:]) == _lift_digest(lifts) == pin
            _assert_reads_match(lifts, list(lifts))


def _assert_reads_match(lifts, whole):
    count = len(whole)
    for i in sorted({0, 1, count // 2, count - 1} & set(range(count))):
        assert lifts[i] == whole[i] == lifts[i - count]
        assert lifts[np.int64(i)] == whole[i]
    for sl in (slice(None, 5), slice(-5, None), slice(3, None, 7),
               slice(None, None, -3), slice(count, None)):
        assert lifts[sl] == whole[sl]
    assert list(reversed(lifts)) == whole[::-1]
    for i in (count, -count - 1):
        with pytest.raises(IndexError):
            lifts[i]


def test_lift_set_length_and_truth_build_nothing(monkeypatch):
    pres = gr.catalog("elementary(2,4)").known_presentation
    rows = [[0, 0, 0, 0], [1, 1, 1, 0], [0, 0, 0, 0]]
    sh = ut.UniShape(4, 2)
    barred = msy.lift_search(pres, rows, sh.barred_shape())
    lifts = msy.lift_search(pres, rows, sh)

    def refuse(*args):
        raise AssertionError("expanded or built")

    monkeypatch.setattr(ut.UniMatrix, "__post_init__", refuse)
    monkeypatch.setattr(msy, "_shifts", refuse)
    monkeypatch.setattr(msy, "_completions", refuse)
    assert (len(barred), len(lifts)) == (256, 4096)
    assert barred and lifts
    with pytest.raises(AssertionError, match="expanded or built"):
        lifts[0]


def test_lift_set_builds_only_the_lifts_read(monkeypatch):
    pres = gr.catalog("elementary(2,4)").known_presentation
    rows = [[0, 0, 0, 0], [1, 1, 1, 0], [0, 0, 0, 0]]
    lifts = msy.lift_search(pres, rows, ut.UniShape(4, 2))
    whole = list(lifts)
    built = []
    post_init = ut.UniMatrix.__post_init__

    def counting(self):
        built.append(self.entries)
        post_init(self)

    monkeypatch.setattr(ut.UniMatrix, "__post_init__", counting)
    # one matrix per distinct image of the lifts read
    for index in (0, slice(-3, None)):
        built.clear()
        read = lifts[index]
        assert read == whole[index]
        read = read if isinstance(index, slice) else [read]
        assert sorted(built) == sorted({m.entries for lift in read
                                        for m in lift.images})


def test_lift_set_samples_like_its_list():
    pres = gr.catalog("elementary(2,4)").known_presentation
    rows = [[0, 0, 0, 0], [1, 1, 1, 0], [0, 0, 0, 0]]
    sh = ut.UniShape(4, 2)
    # 4096 lifts are sampled by index, 16 from a copy of the whole set
    for lifts in (msy.lift_search(pres, rows, sh),
                  msy.lift_search(pres, [[0, 1, 1, 0], [0, 0, 0, 0]],
                                  ut.UniShape(3, 2))):
        for seed in range(3):
            assert random.Random(seed).sample(lifts, 4) \
                == random.Random(seed).sample(list(lifts), 4)


def test_empty_lift_set_behaves_like_an_empty_list():
    # no partial lift extends at offset 2: the search's early exit
    pres = gr.catalog("elementary(2,4)").known_presentation
    rows = [[0, 1, 0, 0], [1, 0, 1, 0], [1, 1, 0, 0]]
    lifts = msy.lift_search(pres, rows, ut.UniShape(4, 2))
    assert not lifts and len(lifts) == 0
    assert list(lifts) == lifts[:] == lifts[::-1] == list(reversed(lifts)) \
        == random.Random(1).sample(lifts, 0) == []
    for i in (0, -1):
        with pytest.raises(IndexError):
            lifts[i]


def test_unilift_rejects_corrupted_lifts():
    pres = gr.catalog("dihedral(16)").known_presentation
    sh = ut.UniShape(5, 2)
    lift = msy.lift_search(pres, [[1, 1], [0, 0], [1, 1], [0, 0]], sh)[5]
    # every single-entry change off the superdiagonal: rejected exactly
    # when a relator fails, by the tuple arithmetic of evaluate_word
    inner = [k for k, (i, j) in enumerate(sh.positions) if j != i + 1]
    broken = kept = 0
    for g, k in itertools.product(range(len(lift.images)), inner):
        images = list(lift.images)
        e = list(images[g].entries)
        e[k] ^= 1
        images[g] = ut.UniMatrix(sh, tuple(e))
        if _relators_hold(pres, images):
            kept += 1
            msy.UniLift(pres, sh, tuple(images), lift.characters)
        else:
            broken += 1
            with pytest.raises(InvalidSystem, match="relator"):
                msy.UniLift(pres, sh, tuple(images), lift.characters)
    assert broken and kept
    # a wrong superdiagonal entry: every assignment satisfies the relators
    # of an abelian target, so only the superdiagonal check can catch it
    bsh = ut.UniShape(3, 2, True)
    e24 = gr.catalog("elementary(2,4)").known_presentation
    (one,) = msy.lift_search(e24, [[0, 1, 1, 0], [0, 0, 0, 0]], bsh)
    images = list(one.images)
    images[0] = ut.UniMatrix(bsh, (1, images[0].entries[1]))
    assert _relators_hold(e24, images)
    with pytest.raises(InvalidSystem, match="superdiagonal"):
        msy.UniLift(e24, bsh, tuple(images), one.characters)
    # a wrong character count
    for chars in (lift.characters[:-1], lift.characters + lift.characters[:1]):
        with pytest.raises(InvalidSystem, match="character count"):
            msy.UniLift(pres, sh, lift.images, chars)


def test_batched_check_rejects_a_corrupted_last_lift():
    pres = gr.catalog("dihedral(16)").known_presentation
    rows = [[1, 1], [0, 0], [1, 1], [0, 0]]
    sh = ut.UniShape(5, 2)
    lifts = msy.lift_search(pres, rows, sh)[:6]
    packed = np.array([[m.entries for m in lift.images] for lift in lifts],
                      dtype=np.int64)
    msy._check_lifts(pres, sh, packed, lifts[0].characters)
    broken = 0
    for g, k in itertools.product(range(2), range(len(sh.positions))):
        bad = packed.copy()
        bad[-1, g, k] ^= 1
        images = [ut.UniMatrix(sh, tuple(e)) for e in bad[-1].tolist()]
        if _relators_hold(pres, images):
            continue
        broken += 1
        with pytest.raises(InvalidSystem):
            msy._check_lifts(pres, sh, bad, lifts[0].characters)
    assert broken


def test_lifts_share_one_matrix_per_distinct_image():
    pres = gr.catalog("elementary(2,4)").known_presentation
    rows = [[0, 0, 0, 0], [1, 1, 1, 0], [0, 0, 0, 0]]
    lifts = msy.lift_search(pres, rows, ut.UniShape(4, 2))
    images = [m for lift in lifts for m in lift.images]
    first = {}
    for m in images:
        assert first.setdefault(m.entries, m) is m
    assert len({id(m) for m in images}) == len(first) < len(images)


def test_barred_and_unbarred_searches_build_one_solver(monkeypatch):
    builds = []
    init = gf.PrimeSolver.__init__

    def counting_init(self, a, p):
        builds.append(p)
        init(self, a, p)

    monkeypatch.setattr(gf.PrimeSolver, "__init__", counting_init)
    # a label of its own keeps earlier searches out of the solver cache
    base = gr.catalog("u3(3)").known_presentation
    pres = gr.Presentation(base.generator_count, base.relators,
                           label="one-solver-test")
    sh = ut.UniShape(4, 3)
    for shape in (sh.barred_shape(), sh, sh.barred_shape()):
        msy.lift_search(pres, [[1, 1], [0, 0], [1, 1]], shape)
    assert builds == [3]


def test_cached_solver_arrays_are_read_only():
    # exponent sums (3, 1): rank 1 and a one-dimensional kernel mod 2
    pres = gr.Presentation(2, ((1, 1, 1, 2),))
    msy.lift_search(pres, [[1, 1], [0, 0]], ut.UniShape(3, 2))
    solver, kernel = msy._exponent_solver(pres, 2)
    for a in (solver.transform, solver.echelon, kernel):
        assert a.size
        with pytest.raises(ValueError):
            a[...] = 0


# x y x: exponent sums (2, 1), so mod 2 the kernel is (1, 0) and every
# character vanishes on y.  In U(3, 2) the corner of x y x is c_y + 1 with
# these characters, so the lifts are c_y = 1 and c_x free.  The corner is
# the only free offset, so the check's particular completion and its
# direction probe are all that guard what the solver returns.
XYX = gr.Presentation(2, ((1, 2, 1),), label="xyx")
XYX_ROWS = [[1, 0], [1, 0]]


def _patch_solver(monkeypatch, corrupt):
    solver, kernel = msy._exponent_solver(XYX, 2)
    monkeypatch.setattr(msy, "_exponent_solver",
                        lambda pres, p: corrupt(solver, kernel))


def test_lift_search_finds_the_xyx_lifts():
    lifts = msy.lift_search(XYX, XYX_ROWS, ut.UniShape(3, 2))
    assert [tuple(m.entries for m in lift.images) for lift in lifts] \
        == _brute_force_lifts(XYX, XYX_ROWS, ut.UniShape(3, 2)) \
        == [((1, 0, 1), (0, 1, 0)), ((1, 1, 1), (0, 1, 0))]


def test_lift_check_refuses_a_kernel_row_outside_the_kernel(monkeypatch):
    # (1, 1) moves the relator's corner: every particular completion still
    # passes, so only the direction probe can see it
    _patch_solver(monkeypatch, lambda solver, kernel: (
        solver, np.array([[1, 1]], dtype=np.int64)))
    with pytest.raises(InvalidSystem, match="relator"):
        msy.lift_search(XYX, XYX_ROWS, ut.UniShape(3, 2))


def test_lift_check_refuses_a_corrupted_particular_solution(monkeypatch):
    # a transform that reads the particular corner off as 0, not 1
    def corrupt(solver, kernel):
        bad = copy.copy(solver)
        bad.transform = (solver.transform + 1) % 2
        return bad, kernel

    _patch_solver(monkeypatch, corrupt)
    with pytest.raises(InvalidSystem, match="relator"):
        msy.lift_search(XYX, XYX_ROWS, ut.UniShape(3, 2))


# The same corruptions in U(4, 2), whose top offset is 3: offsets 2 and 3
# are solved as one affine system, and the check moves the first partial
# lift along each kernel vector of that system and each top direction.
XYX_ROWS_4 = [[1, 0], [1, 0], [1, 0]]


def test_lift_check_refuses_a_kernel_row_outside_the_kernel_at_offset_3(
        monkeypatch):
    sh = ut.UniShape(4, 2)
    assert _entries(msy.lift_search(XYX, XYX_ROWS_4, sh)) \
        == _brute_force_lifts(XYX, XYX_ROWS_4, sh)
    assert len(_brute_force_lifts(XYX, XYX_ROWS_4, sh)) == 8
    # the partial lift still passes; the probes along the joint system's
    # kernel, which carry (1, 1) at offset 2, do not
    _patch_solver(monkeypatch, lambda solver, kernel: (
        solver, np.array([[1, 1]], dtype=np.int64)))
    with pytest.raises(InvalidSystem, match="relator"):
        msy.lift_search(XYX, XYX_ROWS_4, sh)


def test_lift_check_refuses_a_corrupted_particular_solution_at_offset_3(
        monkeypatch):
    # with XYX_ROWS_4 the partial lift itself breaks the relator; with the
    # second rows it passes, and so does the top probe, so only the probes
    # along the joint system's kernel directions, whose top change the
    # transform also reads off, can see it
    sh = ut.UniShape(4, 2)
    rows = [XYX_ROWS_4, [[1, 0], [0, 0], [1, 0]]]
    assert [len(msy.lift_search(XYX, r, sh)) for r in rows] == [8, 8]

    def corrupt(solver, kernel):
        bad = copy.copy(solver)
        bad.transform = (solver.transform + 1) % 2
        return bad, kernel

    _patch_solver(monkeypatch, corrupt)
    for r in rows:
        with pytest.raises(InvalidSystem, match="relator"):
            msy.lift_search(XYX, r, sh)


def test_lift_search_stops_at_the_first_infeasible_offset(monkeypatch):
    # no partial lift of this triple extends at offset 2, so each search
    # evaluates the relators once and checks nothing
    pres = gr.catalog("elementary(2,4)").known_presentation
    rows = [[0, 1, 0, 0], [1, 0, 1, 0], [1, 1, 0, 0]]
    calls = []
    relator_values = msy._relator_values

    def counting(*args):
        calls.append(args[1])
        return relator_values(*args)

    monkeypatch.setattr(msy, "_relator_values", counting)
    sh = ut.UniShape(4, 2)
    for shape in (sh.barred_shape(), sh):
        calls.clear()
        assert not msy.lift_search(pres, rows, shape)
        assert calls == [shape]


def test_lift_search_at_a_large_prime():
    # p^3 > 2^63: distinct images are told apart by sorting, not by codes.
    # Every search that needs a raised budget here has at least p
    # candidates, too many to enumerate, so the answers are worked out by
    # hand and each lift re-checked by the tuple arithmetic of uni_mul
    p = 2147483647
    sh = ut.UniShape(3, p)
    # Z/2: Hom(Z/2, Z/p) = 0, and x^2 has corner 2c, so only c = 0 lifts
    z2 = gr.Presentation(1, ((1, 1),))
    (lift,) = msy.lift_search(z2, [[0], [0]], sh, budget=p)
    assert lift.images == (ut.identity(sh),)
    assert _relators_hold(z2, lift.images)
    # [x, y] has corner 1 under these characters: no lift, and the only
    # barred candidate is a lift
    comm = gr.Presentation(2, ((1, 2, -1, -2),))
    rows = [[1, 0], [0, 1]]
    with pytest.raises(BudgetExceeded):
        msy.lift_search(comm, rows, sh)
    assert not msy.lift_search(comm, rows, sh, budget=p ** 2)
    (barred,) = msy.lift_search(comm, rows, sh.barred_shape())
    assert [tuple(m.entries for m in barred.images)] \
        == _brute_force_lifts(comm, rows, sh.barred_shape())
    # images whose base-p codes agree mod 2^64: 4p^2 + 8p + 4 = 2^64
    packed = np.array([[[0, 0, 0], [4, 8, 4]], [[4, 8, 4], [p - 1] * 3]],
                      dtype=np.int64)
    assert 4 * p ** 2 + 8 * p + 4 == 2 ** 64
    lifts = msy._lifts_from_packed(comm, sh, packed, ((1, 0), (0, 1)))
    assert [[list(m.entries) for m in lift.images] for lift in lifts] \
        == packed.tolist()
    assert lifts[0].images[1] is lifts[1].images[0]
    assert len({id(m) for lift in lifts for m in lift.images}) == 3


def test_lift_search_solves_the_top_two_offsets_at_a_large_prime():
    # [x, y] into U(4, p): the top offset is 3, solved with offset 2 as one
    # affine system, so none of the p^4 completions at offset 2 is
    # evaluated.  Proportional rows have lifts, the others none.  The
    # p = 5 digests are those of a search that expanded offset 2, and
    # equal _brute_force_lifts; at p = 2^31 - 1 the sums over the joint
    # system's unknowns pass 2^63 unless bounded
    comm = gr.Presentation(2, ((1, 2, -1, -2),))
    cases = [
        ([[1, 0], [2, 0], [3, 0]], (3125, "9100696c0fba4822a866d2e459f9bdcc"
                                          "efe822547eb24f1677db62074ef56d31")),
        ([[1, 2], [2, 4], [3, 6]], (3125, "a76554184b1727bf0e5db973a21cb5bd"
                                          "d5325e789b1d347a923325a44b1ff037")),
        ([[1, 0], [0, 1], [1, 0]], _lift_digest([])),
        ([[1, 0], [1, 0], [0, 1]], _lift_digest([])),
    ]
    for p in (5, 2147483647):
        sh = ut.UniShape(4, p)
        for rows, pin in cases:
            lifts = msy.lift_search(comm, rows, sh, budget=p ** 6)
            assert bool(lifts) == (pin[0] > 0), (p, rows)
            if p == 5:
                assert _lift_digest(lifts) == pin, rows
                if lifts:
                    assert _relators_hold(comm, lifts[1234].images)
    # zero characters: p^6 lifts, more than sys.maxsize, so len raises
    # while bool answers from the partial lifts
    lifts = msy.lift_search(comm, [[0, 0]] * 3, sh, budget=p ** 6)
    assert lifts
    with pytest.raises(OverflowError):
        len(lifts)
    # x y x: exponent sums (2, 1) of rank 1 mod every p, so the top
    # particular solutions and the kernel directions carry top changes
    # (every catalog presentation has rank 0 mod its p)
    for p in (3, 2147483647):
        sh = ut.UniShape(4, p)
        rows = [[1, p - 2], [2, p - 4], [p - 1, 2]]
        lifts = msy.lift_search(XYX, rows, sh, budget=p ** 6)
        assert lifts
        if p == 3:
            assert _entries(lifts) == _brute_force_lifts(XYX, rows, sh)
            assert len(lifts) == 27


def test_lift_search_refuses_solves_that_would_wrap():
    # each offset's solve sums one product below p^2 per relator: with
    # three relators at p = 2^31 - 1 that passes 2^63, and the search
    # refuses before any sum is taken
    p = 2147483647
    pres = gr.Presentation(1, ((1, 1), (1, 1, 1), (1,) * 5))
    with pytest.raises(MasseykitError, match="overflow int64"):
        msy.lift_search(pres, [[0], [0]], ut.UniShape(3, p), budget=p)
    two = gr.Presentation(1, ((1, 1), (1, 1, 1)))
    (lift,) = msy.lift_search(two, [[0], [0]], ut.UniShape(3, p), budget=p)
    assert lift.images == (ut.identity(ut.UniShape(3, p)),)


def test_value_formula_against_obstruction():
    # a corner-free lift's coordinate functions form a defining system,
    # and its value, the negative of the obstruction to raising that lift
    # through the center, vanishes iff some lift to U(4, 2) projects onto
    # it
    g = gr.catalog("u3(2)")
    pres = g.known_presentation
    cs = chars_of(g)
    rng = random.Random(10)
    sh = ut.UniShape(4, 2)
    shb = sh.barred_shape()
    seen = set()
    for _ in range(6):
        tup = [rng.choice(cs) for _ in range(3)]
        rows = char_rows_for(g, tup)
        raised = {tuple(tuple(m.entry(*ij) for ij in shb.positions)
                        for m in lift.images)
                  for lift in msy.lift_search(pres, rows, sh)}
        for lift in msy.lift_search(pres, rows, shb)[:4]:
            ds = msy.defining_system_from_lift(lift, g)
            assert msy.validate_defining_system(ds, tup)
            zero = msy.defining_system_value(ds).is_zero_class()
            assert zero == (tuple(m.entries for m in lift.images) in raised)
            seen.add(zero)
    assert seen == {True, False}


def test_generator_free_lifts():
    # the presentation with no generators presents the trivial group:
    # the one lift is the empty tuple of images, in either shape
    pres = gr.Presentation(0, ())
    g = gr.catalog("cyclic(1)")
    sh = ut.UniShape(4, 2)
    for shape in (sh.barred_shape(), sh):
        lift, = msy.lift_search(pres, [(), (), ()], shape)
        ds = msy.defining_system_from_lift(lift, g)
        assert all(c.is_zero() for c in ds.entries.values())
        assert msy.defining_system_value(ds).is_zero_class()


def test_lift_that_does_not_descend_is_refused():
    # a lift of the free group on one generator with chi = 1 has an
    # image of order 2 or 4, so it does not factor through Z/3
    pres = gr.Presentation(1, ())
    g = gr.catalog("cyclic(3)")
    for lift in msy.lift_search(pres, [(1,), (1,)], ut.UniShape(3, 2)):
        with pytest.raises(InternalInconsistency):
            msy.defining_system_from_lift(lift, g)


# ---------------------------------------------------------------------------
# Dwyer-type agreement between the two decision routes
# ---------------------------------------------------------------------------

def test_agreement_triples_u3():
    g = gr.catalog("u3(2)")
    pres = g.known_presentation
    cs = chars_of(g)
    sh = ut.UniShape(4, 2)
    rng = random.Random(11)
    for _ in range(10):
        tup = [rng.choice(cs) for _ in range(3)]
        rows = char_rows_for(g, tup)
        status = msy.massey_status_finite(g, tup)
        ubar = msy.lift_search(pres, rows, sh.barred_shape())
        u = msy.lift_search(pres, rows, sh)
        assert status.defined == (len(ubar) >= 1)
        assert status.vanishes == (len(u) >= 1)


# ---------------------------------------------------------------------------
# degenerate fourfold criterion
# ---------------------------------------------------------------------------

def test_fourfold_zero_tail():
    g = gr.catalog("product(2,2)")
    chi1 = chm.character(g, [0, 0, 1, 1], 2)
    zero = chm.character(g, [0, 0, 0, 0], 2)
    rep = msy.degenerate_fourfold_criterion(g, chi1, zero, zero)
    assert rep.lhs_defined and rep.lhs_vanishes
    assert rep.rhs_vanishing_witness is not None
    assert rep.agree


def test_fourfold_klein_instance():
    g = gr.catalog("product(2,2)")
    chi1 = chm.character(g, [0, 0, 1, 1], 2)
    chi2 = chm.character(g, [0, 1, 0, 1], 2)
    rep = msy.degenerate_fourfold_criterion(g, chi1, chi2, chi2)
    assert rep.agree


def test_fourfold_sweep_order8():
    for name in ("cyclic(8)", "product(2,4)", "dihedral(8)",
                 "quaternion8", "u3(2)"):
        g = gr.catalog(name)
        cs = chars_of(g)
        rng = random.Random(12)
        triples = [tuple(rng.choice(cs) for _ in range(3)) for _ in range(6)]
        for chi1, chi2, chi3 in triples:
            if not chi1.values.any():
                continue
            rep = msy.degenerate_fourfold_criterion(g, chi1, chi2, chi3)
            assert rep.agree, (name, rep)


def test_fourfold_sweep_exhaustive_elementary8():
    g = gr.catalog("elementary(2,3)")
    cs = chars_of(g)
    for chi1 in cs:
        if not chi1.values.any():
            continue
        for chi2, chi3 in itertools.product(cs, repeat=2):
            rep = msy.degenerate_fourfold_criterion(g, chi1, chi2, chi3)
            assert rep.agree


DEGREE_TWO_PINNED_GROUPS = (
    "cyclic(1)", "cyclic(2)", "cyclic(3)", "cyclic(4)", "cyclic(8)",
    "cyclic(9)", "cyclic(16)", "product(2,2)", "product(2,4)",
    "product(3,3)", "product(2,8)", "product(4,4)", "product(3,6)",
    "product(4,8)", "elementary(2,3)", "elementary(2,4)", "elementary(2,5)",
    "elementary(3,3)", "dihedral(6)", "dihedral(8)", "dihedral(12)",
    "dihedral(16)", "dihedral(32)", "quaternion8", "u3(2)", "u3(3)")


def test_degree_two_class_decisions_are_pinned():
    # every answer that tests a 2-cocycle against span(X) + B^2: the
    # fourfold reports with their witnesses on 336 seeded triples over
    # the sweep groups (all three verdict patterns occur), and on the
    # catalog groups of order <= 32 the H^2 basis and Bockstein
    # coordinates at p = 2 and 3 and every four-term report
    h = hashlib.sha256()
    rng = random.Random(2023)
    for name in cli.SWEEP_2GROUPS:
        g = gr.catalog(name)
        cs = chars_of(g)
        for _ in range(24):
            triple = (rng.choice(cs[1:]), rng.choice(cs), rng.choice(cs))
            r = msy.degenerate_fourfold_criterion(g, *triple)
            h.update(repr((name, [c.values.tolist() for c in triple],
                           r.lhs_defined, r.lhs_vanishes,
                           r.rhs_defined_witness, r.rhs_vanishing_witness,
                           r.agree)).encode())
    for name in DEGREE_TWO_PINNED_GROUPS:
        g = gr.catalog(name)
        for p in (2, 3):
            cx = chm.cochain_complex(g, p)
            h.update(repr((name, p, cx.h2.shape)).encode() + cx.h2.tobytes())
            for row in cx.z1:
                beta = chm.bockstein(chm.character(
                    g, cx.unflatten(row, 1).values, p))
                h.update(repr(cx.h2_coordinates(
                    cx.flatten(beta.representative)).tolist()).encode())
        for chi in chars_of(g)[1:]:
            r = chm.four_term_exactness(g, chi)
            h.update(repr((r.exact_at_h1, r.exact_at_h2)).encode())
    assert h.hexdigest() == (
        "3ae24ff8e45171db5f0aa1c9939fc4efbe409e3ce5ebdd67abe6cebee1ff9c35")


def test_degree_two_decisions_build_only_d1_solvers(monkeypatch):
    # class questions read the d1 solver's cokernel coordinates: once G's
    # complex is built, h2 coordinates need no solver and a fourfold call
    # builds only the d1 solver of its kernel H, from H's Cayley tree
    g = gr.catalog("dihedral(8)")
    cx = chm.cochain_complex(g, 2)
    cx.h2
    builds, row_reductions = [], []
    tree_build = chm._tree_d1_solver
    init = gf.PrimeSolver.__init__

    def counting_tree_build(complex_):
        solver, z1 = tree_build(complex_)
        builds.append((solver.rows, solver.cols))
        return solver, z1

    def counting_init(self, a, p):
        row_reductions.append(np.shape(a))
        init(self, a, p)

    monkeypatch.setattr(chm, "_tree_d1_solver", counting_tree_build)
    monkeypatch.setattr(gf.PrimeSolver, "__init__", counting_init)
    assert cx.h2_coordinates(cx.h2[0]).tolist()[0] == 1
    assert builds == [] and row_reductions == []
    cs = chars_of(g)
    for chi1, chi2, chi3 in [(cs[1], cs[2], cs[3]), (cs[2], cs[0], cs[1])]:
        builds.clear()
        rep = msy.degenerate_fourfold_criterion(g, chi1, chi2, chi3)
        assert rep.agree
        h = gr.kernel_of_character(g, chi1)
        assert builds == [chm.cochain_complex(h.as_group, 2).d1.shape]
        assert row_reductions == []


# ---------------------------------------------------------------------------
# the bundled worked example
# ---------------------------------------------------------------------------

def test_worked_example_report():
    rep = msy.verify_worked_example()
    assert rep.reduction_surjective == {2: True, 3: True, 4: True}
    assert rep.subgroup_free_rank == 2
    assert rep.subgroup_torsion == (2,)
    assert rep.chi_values == (0, 1, 0)
    assert rep.chi_on_commutator == 1
    assert not rep.chi_lifts_mod4
    assert rep.ubar_lift_count >= 1
    assert rep.u_lift_count == 0
    assert rep.all_pass


def test_example_subgroup_presentation_label():
    pres = msy.example_subgroup_presentation()
    assert pres.generator_count == 3
    ab = gr.abelianization(pres)
    assert ab.free_rank == 2 and ab.torsion == (2,)
