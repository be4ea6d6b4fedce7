import collections
import hashlib
import itertools
import json
import os
import random

import numpy as np
import pytest

from masseykit import cohomology as chm
from masseykit import gf_core as gf
from masseykit import groups as gr
from masseykit import massey as msy
from masseykit import unitriangular as ut
from masseykit.errors import (
    BudgetExceeded,
    InternalInconsistency,
    InvalidSystem,
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
    assert chm.class_equal(val.representative,
                           chm.cup(chi, chi).scale(-1))


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


# (group, p, n, seeded tuples); the exhaustive layered_search decides
# every value with dense d1 solves alone, sharing no code with the
# generating-set coordinates or the cokernel test of massey_status_finite
ORACLE_CASES = [
    ("cyclic(4)", 2, 3, 6), ("product(2,2)", 2, 3, 6), ("u3(2)", 2, 3, 6),
    ("quaternion8", 2, 3, 6),
    ("u3(3)", 3, 3, 20), ("product(3,9)", 3, 3, 20),
    ("product(4,4)", 2, 4, 20), ("dihedral(16)", 2, 4, 20),
    ("cyclic(3)", 2, 4, 1),     # H^1 = 0: an empty middle layer
]


def test_status_matches_layered_search():
    rng = random.Random(7)
    seen = set()
    for name, p, n, count in ORACLE_CASES:
        g = gr.catalog(name)
        cs = chm.characters_of(g, p)
        dense = gf.PrimeSolver(dense_d1(g, p), p)
        tuples = [[rng.choice(cs) for _ in range(n)] for _ in range(count)]
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


# (group, p, character indices) of every status at n = 2, 3 and 4
STATUS_TUPLES = [
    ("quaternion8", 2, (0, 0)), ("quaternion8", 2, (1, 1)),
    ("quaternion8", 2, (0, 1, 1)), ("cyclic(3)", 3, (1, 1, 1)),
    ("quaternion8", 2, (0, 0, 0)), ("quaternion8", 2, (0, 0, 1, 1)),
    ("u3(2)", 2, (1, 2, 1, 2)), ("quaternion8", 2, (0, 0, 0, 0)),
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
        - {(2, msy.MasseyStatus.UNDEFINED)}


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
    ta = ut.project_bar(ut.i_plus_n(sh))
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


# ---------------------------------------------------------------------------
# obstruction classes
# ---------------------------------------------------------------------------

def test_obstruction_of_example_lift_does_not_vanish():
    pres = msy.example_group_presentation()
    sh = ut.UniShape(4, 2)
    ta = ut.project_bar(ut.i_plus_n(sh))
    tb = ut.from_entries(sh.barred_shape(), {(1, 2): 1})
    lifts = msy.lift_search(pres, [(1, 1), (1, 0), (1, 0)],
                            sh.barred_shape())
    special = [L for L in lifts if L.images == (ta, tb)]
    assert len(special) == 1
    obs = msy.lift_obstruction(special[0])
    assert not obs.is_zero_class()


def test_obstruction_of_extendable_lift_vanishes():
    # commuting diagonal triple on the Klein group: an actual unbarred
    # lift exists, so its projection has trivial obstruction
    g = gr.catalog("product(2,2)")
    pres = g.known_presentation
    rows = [(1, 0), (0, 0), (0, 1)]
    sh = ut.UniShape(4, 2)
    u_lifts = msy.lift_search(pres, rows, sh)
    assert u_lifts
    proj = msy.UniLift(pres, sh.barred_shape(),
                       tuple(ut.project_bar(m) for m in u_lifts[0].images),
                       u_lifts[0].characters)
    assert msy.lift_obstruction(proj).is_zero_class()


def test_obstruction_zero_tuple():
    g = gr.catalog("cyclic(2)")
    pres = g.known_presentation
    rows = [(0,), (0,), (0,)]
    sh = ut.UniShape(4, 2, True)
    lifts = msy.lift_search(pres, rows, sh)
    zero_lift = [L for L in lifts
                 if all(not any(m.entries) for m in L.images)]
    assert len(zero_lift) == 1
    assert msy.lift_obstruction(zero_lift[0]).is_zero_class()


def test_obstruction_requires_barred():
    g = gr.catalog("cyclic(2)")
    pres = g.known_presentation
    lifts = msy.lift_search(pres, [(0,), (0,), (0,)], ut.UniShape(4, 2))
    with pytest.raises(InvalidSystem):
        msy.lift_obstruction(lifts[0])


def test_value_formula_against_obstruction():
    # for every corner-free lift found, the extracted system's value is
    # the negative of the obstruction class, compared on the group
    g = gr.catalog("u3(2)")
    pres = g.known_presentation
    cs = chars_of(g)
    rng = random.Random(10)
    sh = ut.UniShape(4, 2, True)
    for _ in range(6):
        tup = [rng.choice(cs) for _ in range(3)]
        rows = char_rows_for(g, tup)
        for lift in msy.lift_search(pres, rows, sh)[:4]:
            ds = msy.defining_system_from_lift(lift, g)
            val = msy.defining_system_value(ds)
            imgs = msy.induced_images(lift, g)
            obs = msy.obstruction_cochain_on(g, imgs, 2)
            assert chm.class_equal(val.representative, obs.scale(-1))


def test_generator_free_lifts():
    # the presentation with no generators presents the trivial group:
    # the one lift is the empty tuple of images, in either shape
    pres = gr.Presentation(0, ())
    g = gr.catalog("cyclic(1)")
    sh = ut.UniShape(4, 2)
    for shape in (sh.barred_shape(), sh):
        lift, = msy.lift_search(pres, [(), (), ()], shape)
        assert msy.induced_images(lift, g) == [ut.identity(shape)]
        ds = msy.defining_system_from_lift(lift, g)
        assert all(c.is_zero() for c in ds.entries.values())
        assert msy.defining_system_value(ds).is_zero_class()
    lift, = msy.lift_search(pres, [(), (), ()], sh.barred_shape())
    assert msy.lift_obstruction(lift).is_zero_class()


def test_lift_that_does_not_descend_is_refused():
    # a lift of the free group on one generator with chi = 1 has an
    # image of order 2 or 4, so it does not factor through Z/3
    pres = gr.Presentation(1, ())
    g = gr.catalog("cyclic(3)")
    for lift in msy.lift_search(pres, [(1,), (1,)], ut.UniShape(3, 2)):
        with pytest.raises(InternalInconsistency):
            msy.induced_images(lift, g)
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
