"""Acceptance criteria, one test per criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 5 runs
its smoke subset (complete sweep over the order-<=8 catalog), the full
order-<=16 sweep, and the fourfold sweep of (chi1, chi2, chi3, chi1)
against the degenerate fourfold criterion.  The ``slow`` marker only
labels the full sweep; nothing deselects it by default, and
``-m "not slow"`` leaves it out.
"""

import itertools
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from masseykit import cli
from masseykit import cohomology as chm
from masseykit import groups as gr
from masseykit import massey as msy
from masseykit import unitriangular as ut
from masseykit.errors import BudgetExceeded

from helpers import char_rows_for


@contextmanager
def criterion(num, desc, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({desc}): FAIL")
        raise
    dt = time.perf_counter() - t0
    print(f"criterion {num} ({desc}): PASS in {dt:.2f}s (limit {limit_s}s)")
    assert dt < limit_s, f"criterion {num} exceeded its {limit_s}s budget"


def test_criterion_1_worked_example_reproduction():
    with criterion(1, "worked-example reproduction", 1.0):
        rep = msy.verify_worked_example()
        assert rep.reduction_surjective == {2: True, 3: True, 4: True}
        assert rep.subgroup_free_rank == 2
        assert rep.subgroup_torsion == (2,)
        assert not rep.chi_lifts_mod4
        assert rep.chi_on_commutator == 1
        assert rep.ubar_lift_count >= 1
        assert rep.u_lift_count == 0
        assert rep.u_candidates == 64
        detail, ok = cli._scenario_paper_example()
        assert ok


def test_criterion_2_centralizer_and_class_of_full_superdiagonal():
    with criterion(2, "centralizer/class structure", 5.0):
        for n, p in ((3, 2), (3, 3), (4, 2)):
            shape = ut.UniShape(n + 1, p)
            a = ut.i_plus_n(shape)
            cent = ut.centralizer_of(a)
            assert len(cent) == p ** n
            for m in cent:
                offsets = {}
                for (i, j) in shape.positions:
                    offsets.setdefault(j - i, set()).add(m.entry(i, j))
                assert all(len(s) == 1 for s in offsets.values())
            cls = ut.conjugacy_class_of(a)
            assert len(cls) == p ** (n * (n - 1) // 2)
            expect = sorted(
                m.entries for m in ut.enumerate_group(shape)
                if all(m.entry(i, i + 1) == 1 for i in range(1, n + 1)))
            assert sorted(m.entries for m in cls) == expect


def test_criterion_3_integral_resolution():
    with criterion(3, "length-four integral resolution", 1.0):
        rep = ut.verify_u3_resolution()
        assert rep.ranks == (2, 6, 5, 1)
        assert rep.exact
        assert rep.squares_commute


def test_criterion_4_four_term_exactness_sweep():
    with criterion(4, "four-term exactness sweep", 60.0):
        for name in cli.SWEEP_2GROUPS:
            g = gr.catalog(name)
            chars = [c for c in chm.characters_of(g, 2) if c.values.any()]
            assert chars, name
            for chi in chars:
                rep = chm.four_term_exactness(g, chi)
                assert rep.exact_at_h1, (name, chi.values)
                assert rep.exact_at_h2, (name, chi.values)


SMOKE_GROUPS = ("cyclic(2)", "cyclic(4)", "cyclic(8)", "product(2,2)",
                "product(2,4)", "elementary(2,3)", "dihedral(8)",
                "quaternion8", "u3(2)")
FULL_EXTRA_GROUPS = ("cyclic(16)", "product(2,8)", "product(4,4)",
                     "dihedral(16)", "elementary(2,4)")


def _agreement_sweep(names, lift_cap=None):
    checked = {"pairs": 0, "triples": 0, "lifts": 0}
    for name in names:
        g = gr.catalog(name)
        pres = g.known_presentation
        cs = chm.characters_of(g, 2)
        sh3 = ut.UniShape(3, 2)
        sh4 = ut.UniShape(4, 2)
        for tup in itertools.product(cs, repeat=2):
            rows = char_rows_for(g, tup)
            status = msy.massey_status_finite(g, list(tup))
            ubar = msy.lift_search(pres, rows, sh3.barred_shape())
            u = msy.lift_search(pres, rows, sh3)
            assert status.defined == bool(ubar), (name, "pair")
            assert status.vanishes == bool(u), (name, "pair")
            checked["pairs"] += 1
        for tup in itertools.product(cs, repeat=3):
            rows = char_rows_for(g, tup)
            status = msy.massey_status_finite(g, list(tup))
            ubar = msy.lift_search(pres, rows, sh4.barred_shape())
            u = msy.lift_search(pres, rows, sh4)
            assert status.defined == bool(ubar), (name, "triple")
            assert status.vanishes == bool(u), (name, "triple")
            sample = ubar if lift_cap is None else ubar[:lift_cap]
            for lift in sample:
                ds = msy.defining_system_from_lift(lift, g)
                val = msy.defining_system_value(ds)
                imgs = msy.induced_images(lift, g)
                obs = msy.obstruction_cochain_on(g, imgs, 2)
                assert chm.class_equal(val.representative, obs.scale(-1))
                checked["lifts"] += 1
            checked["triples"] += 1
    return checked


def test_criterion_5_correspondence_smoke():
    with criterion(5, "status/lift correspondence (smoke)", 30.0):
        checked = _agreement_sweep(SMOKE_GROUPS)
        print(f"  [smoke: {checked}]", end=" ")
        assert checked["pairs"] >= 150
        assert checked["triples"] >= 800
        assert checked["lifts"] >= 1000


@pytest.mark.slow
def test_criterion_5_correspondence_full():
    with criterion(5, "status/lift correspondence (full)", 600.0):
        checked = _agreement_sweep(SMOKE_GROUPS + FULL_EXTRA_GROUPS,
                                   lift_cap=8)
        print(f"  [full: {checked}]", end=" ")
        assert checked["triples"] >= 5000


def test_criterion_5_fourfold_correspondence():
    # every (chi1, chi2, chi3, chi1), chi1 != 0, at p = 2: the finite
    # route, the lift route into U(5, 2) and its corner-free quotient, and
    # the degenerate fourfold criterion must give one verdict
    with criterion(5, "fourfold status/lift/criterion correspondence", 30.0):
        sh5 = ut.UniShape(5, 2)
        counts = {}
        names = [n for n in SMOKE_GROUPS + FULL_EXTRA_GROUPS
                 if n != "elementary(2,4)"]
        for name in names:
            g = gr.catalog(name)
            pres = g.known_presentation
            cs = chm.characters_of(g, 2)
            nonzero = [c for c in cs if c.values.any()]
            for chi1, chi2, chi3 in itertools.product(nonzero, cs, cs):
                tup = [chi1, chi2, chi3, chi1]
                rows = char_rows_for(g, tup)
                status = msy.massey_status_finite(g, tup)
                ubar = msy.lift_search(pres, rows, sh5.barred_shape())
                u = msy.lift_search(pres, rows, sh5)
                rep = msy.degenerate_fourfold_criterion(g, chi1, chi2, chi3)
                where = (name, [c.values.tolist() for c in tup])
                assert status.defined == bool(ubar) == rep.lhs_defined, where
                assert status.vanishes == bool(u) == rep.lhs_vanishes, where
                assert rep.agree, where
                counts[status.status.value] = (
                    counts.get(status.status.value, 0) + 1)
        print(f"  [fourfold: {counts}]", end=" ")
        assert counts == {"Vanishes": 66, "Undefined": 777,
                          "DefinedNotVanishing": 5}
        # four generators: 2^24 unbarred candidates exceed the default
        # lift budget of 2^20
        g = gr.catalog("elementary(2,4)")
        chi1 = chm.characters_of(g, 2)[1]
        with pytest.raises(BudgetExceeded):
            msy.lift_search(g.known_presentation,
                            char_rows_for(g, [chi1] * 4), sh5)


def test_criterion_6_operator_identities():
    with criterion(6, "operator identities", 10.0):
        # (t-1) weighted-norm identity, p in {2, 3}
        cases = []
        for name in ("cyclic(4)", "product(2,4)", "dihedral(8)",
                     "quaternion8", "u3(2)"):
            g = gr.catalog(name)
            for chi in chm.characters_of(g, 2):
                if chi.values.any():
                    cases.append((g, chi, 2))
        for name in ("cyclic(9)", "product(3,3)", "u3(3)"):
            g = gr.catalog(name)
            for chi in chm.characters_of(g, 3):
                if chi.values.any() and 1 in chi.values:
                    cases.append((g, chi, 3))
        assert cases
        for g, chi, p in cases:
            h = gr.kernel_of_character(g, chi)
            t = h.transversal[1]
            for psi in chm.characters_of(h.as_group, p):
                tilde, norm = chm.norm_operators(g, chi, psi)
                lhs = (chm.conjugate_character(h, t, tilde).values
                       - tilde.values) % p
                rhs = (norm.values - p * psi.values) % p
                assert np.array_equal(lhs, rhs)
                if p == 2:
                    assert np.array_equal(tilde.values, psi.values)

        # transfer then restriction multiplies by the index
        for name in ("cyclic(4)", "product(2,2)", "product(2,4)",
                     "dihedral(8)", "quaternion8", "elementary(2,3)",
                     "dihedral(16)", "cyclic(6)"):
            g = gr.catalog(name)
            p = 2
            for h in gr.enumerate_subgroups(g):
                if h.index > 4 or h.order == 1:
                    continue
                for chi in chm.characters_of(g, p):
                    res = chm.restriction(chi, h)
                    psi = chm.character(h.as_group, res.values, p)
                    cor = chm.corestriction_deg1(psi, h)
                    assert np.array_equal(
                        cor.values, (h.index * chi.values) % p)

        # degree-0 transfer is the norm
        g = gr.catalog("cyclic(4)")
        h = gr.kernel_of_character(g, [0, 1, 0, 1], modulus=2)
        assert chm.corestriction_deg0(5, h, modulus=16) == 10
        theta = chm.Orientation(g, 4, (1, 3, 1, 3))
        want = sum(theta.unit_values[r] for r in h.transversal) % 4
        assert chm.corestriction_deg0(1, h, twist=theta) == want


def test_criterion_7_trivial_factor_lemma_randomized():
    with criterion(7, "trivial-factor vanishing", 30.0):
        rng = random.Random(20)
        defined_seen = 0
        names = ("cyclic(4)", "product(2,2)", "product(2,4)", "dihedral(8)",
                 "quaternion8", "u3(2)", "elementary(2,3)", "cyclic(16)",
                 "product(4,4)")
        for _ in range(80):
            g = gr.catalog(rng.choice(names))
            cs = chm.characters_of(g, 2)
            n = rng.choice((3, 3, 4))
            tup = [rng.choice(cs) for _ in range(n)]
            tup[rng.randrange(n)] = cs[0]          # force a zero factor
            rep = msy.massey_status_finite(g, tup)
            if rep.defined:
                defined_seen += 1
                assert rep.vanishes, (g.label, [c.values for c in tup])
        assert defined_seen >= 40


def test_criterion_8_reduction_surjectivity_probes():
    with criterion(8, "reduction-surjectivity probes", 30.0):
        triv = gr.catalog("cyclic(1)")
        reports = chm.formal_h90_check(triv, chm.Orientation(triv, 16, (1,)), 4)
        assert all(r.reduction_surjective and r.consecutive_surjective
                   for r in reports)

        z2 = gr.catalog("cyclic(2)")
        reports = chm.formal_h90_check(z2, chm.Orientation(z2, 4, (1, 1)), 2)
        whole = {r.level: r for r in reports if len(r.subgroup_members) == 2}
        assert whole[1].reduction_surjective
        assert not whole[2].reduction_surjective

        probes = [
            (triv, (1,), 16, 4),
            (z2, (1, 1), 8, 3),
            (z2, (1, 3), 4, 2),
            (gr.catalog("cyclic(4)"), (1, 3, 1, 3), 4, 2),
            (gr.catalog("product(2,2)"), (1, 1, 1, 1), 4, 2),
            (gr.catalog("cyclic(3)"), (1, 1, 1), 9, 2),
            (gr.catalog("quaternion8"), (1,) * 8, 4, 2),
        ]
        for g, units, modulus, n_max in probes:
            theta = chm.Orientation(g, modulus, units)
            by_subgroup = {}
            for r in chm.formal_h90_check(g, theta, n_max):
                by_subgroup.setdefault(r.subgroup_members, {})[r.level] = r
            for levels in by_subgroup.values():
                for n, r in levels.items():
                    if all(levels[m].reduction_surjective
                           for m in range(1, n + 1)):
                        assert r.consecutive_surjective, (g.label, n)
