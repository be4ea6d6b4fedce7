import gc
import hashlib
import itertools
import random
import time
import weakref

import numpy as np
import pytest

from masseykit import cohomology as chm
from masseykit import gf_core as gf
from masseykit import groups as gr
from masseykit.errors import (
    BudgetExceeded,
    DegreeTooHigh,
    NotACocycle,
    NotNormal,
    NotSurjective,
)

from helpers import (
    _CrossedHomCounter,
    coordinate_character,
    dense_d1,
    dense_d2,
    h90_orientations,
    random_cochain,
    row_reduced_d1_solver,
    watchdog,
)

CATALOG_SAMPLE = ("cyclic(2)", "cyclic(4)", "product(2,2)", "dihedral(8)",
                  "quaternion8", "u3(2)", "cyclic(3)", "dihedral(6)")


# ---------------------------------------------------------------------------
# differential
# ---------------------------------------------------------------------------

def test_coboundary_of_zero():
    g = gr.catalog("cyclic(4)")
    assert chm.coboundary(chm.zero_cochain(g, 1, 2)).is_zero()


def test_degree_one_cocycle_on_z2_forced():
    g = gr.catalog("cyclic(2)")
    f = chm.cochain(g, 1, 2, [0, 1])
    assert chm.coboundary(f).is_zero()


def _d3_oracle(c):
    """Test-side differential of a degree-3 cochain, by the raw formula."""
    g = c.group
    m = c.modulus
    mul = g.mul
    v = c.values
    if c.twist is None:
        theta = np.ones(g.order, dtype=np.int64)
    else:
        theta = np.array(c.twist.unit_values, dtype=np.int64)
    out = (theta[:, None, None, None] * v[None, :, :, :]
           - v[mul]                      # f(g1 g2, g3, g4)
           + v[:, mul]                   # f(g1, g2 g3, g4)
           - v[:, :, mul]                # f(g1, g2, g3 g4)
           + v[:, :, :, None]) % m
    return out


def test_dd_zero_random():
    rng = random.Random(0)
    for name in CATALOG_SAMPLE:
        g = gr.catalog(name)
        for degree in (0, 1):
            c = random_cochain(rng, g, degree, 2)
            assert chm.coboundary(chm.coboundary(c)).is_zero()
        c2 = random_cochain(rng, g, 2, 2)
        assert not _d3_oracle(chm.coboundary(c2)).any()


def test_dd_zero_twisted():
    rng = random.Random(1)
    for g, theta in [
            (gr.catalog("cyclic(2)"), None),
            (gr.catalog("cyclic(4)"), None)]:
        units = tuple(3 if i % 2 else 1 for i in range(g.order))
        theta = chm.Orientation(g, 4, units)
        for degree in (0, 1):
            c = random_cochain(rng, g, degree, 4, twist=theta)
            assert chm.coboundary(chm.coboundary(c)).is_zero()
        c2 = random_cochain(rng, g, 2, 4, twist=theta)
        assert not _d3_oracle(chm.coboundary(c2)).any()


def test_coboundary_degree_cap():
    g = gr.catalog("cyclic(2)")
    with pytest.raises(DegreeTooHigh):
        chm.coboundary(random_cochain(random.Random(2), g, 3, 2))


def test_normalization_enforced():
    g = gr.catalog("cyclic(4)")
    c = chm.cochain(g, 1, 2, [1, 1, 1, 1])
    assert c.values[g.identity] == 0


def _reference_d(c):
    """dc in Python integers, by the raw formula, on every tuple of
    elements; untwisted."""
    g, d, m = c.group, c.degree, c.modulus

    def f(t):
        return int(c.values[t])

    out = {}
    for t in itertools.product(range(g.order), repeat=d + 1):
        total = f(t[1:]) + (-1) ** (d + 1) * f(t[:-1])
        for i in range(d):
            total += (-1) ** (i + 1) * f(
                t[:i] + (g.mul_idx(t[i], t[i + 1]),) + t[i + 2:])
        out[t] = total % m
    return out


def test_coboundary_is_exact_past_2_62():
    # a partial sum of the differential's terms reaches 2 (m - 1), past
    # int64 for 2^62 < m < 2^63
    rng = random.Random(62)
    for name in ("cyclic(4)", "dihedral(6)"):
        g = gr.catalog(name)
        for degree in (0, 1, 2):
            for _ in range(4):
                m = rng.randrange(2 ** 62 + 1, 2 ** 63)
                c = random_cochain(rng, g, degree, m)
                dc = chm.coboundary(c).values
                assert all(int(dc[t]) == v
                           for t, v in _reference_d(c).items()), (name, m)
    # a true homomorphism Z/4 -> Z/4k, and one value off
    k = 2 ** 61 - 1
    z4 = gr.catalog("cyclic(4)")
    chi = chm.character(z4, [0, 3 * k, 2 * k, k], 4 * k)
    chm.CohomClass(chi)
    with pytest.raises(ValueError, match="homomorphism law"):
        chm.character(z4, [0, 3 * k, 2 * k, k + 1], 4 * k)


def test_cochain_arithmetic_is_exact_at_large_moduli():
    # products of values pass int64 once (m - 1)^2 >= 2^63, sums once
    # 2 (m - 1) >= 2^63
    rng = random.Random(32)
    g = gr.catalog("dihedral(6)")
    for _ in range(12):
        m = rng.randrange(2 ** 32, 2 ** 63)
        a = random_cochain(rng, g, 1, m)
        b = random_cochain(rng, g, 1, m)
        x, y = a.values.tolist(), b.values.tolist()
        assert chm.cup(a, b).values.tolist() == [
            [u * v % m for v in y] for u in x]
        assert (a + b).values.tolist() == [(u + v) % m for u, v in zip(x, y)]
        assert (a - b).values.tolist() == [(u - v) % m for u, v in zip(x, y)]
        c = rng.randrange(-2 ** 64, 2 ** 64)
        assert a.scale(c).values.tolist() == [u * c % m for u in x]
    z4 = gr.catalog("cyclic(4)")
    assert chm.cochain(z4, 1, 5, [0, 1, 2, 3]).scale(
        2 ** 62).values.tolist() == [0, 4, 3, 2]


# ---------------------------------------------------------------------------
# cup product
# ---------------------------------------------------------------------------

def test_cup_with_zero():
    g = gr.catalog("cyclic(2)")
    chi = chm.character(g, [0, 1], 2)
    assert chm.cup(chi, chm.zero_cochain(g, 1, 2)).is_zero()


def test_cup_square_not_coboundary_on_z2():
    # exhaustive oracle: only two normalized 1-cochains on Z/2
    g = gr.catalog("cyclic(2)")
    chi = chm.character(g, [0, 1], 2)
    square = chm.cup(chi, chi)
    assert square.values[1, 1] == 1
    for val in (0, 1):
        f = chm.cochain(g, 1, 2, [0, val])
        assert not (chm.coboundary(f) == square)
    assert chm.is_coboundary(square) is None


def test_cup_leibniz_random():
    rng = random.Random(3)
    g = gr.catalog("dihedral(8)")
    for di, dj in ((1, 1), (0, 1), (0, 2), (2, 0), (0, 0)):
        for _ in range(4):
            a = random_cochain(rng, g, di, 2)
            b = random_cochain(rng, g, dj, 2)
            lhs = chm.coboundary(chm.cup(a, b))
            rhs = chm.cup(chm.coboundary(a), b) \
                + chm.cup(a, chm.coboundary(b)).scale((-1) ** di)
            assert lhs == rhs


def test_cup_leibniz_mod3():
    rng = random.Random(13)
    g = gr.catalog("cyclic(3)")
    for di, dj in ((1, 1), (0, 2), (2, 0)):
        for _ in range(5):
            a = random_cochain(rng, g, di, 3)
            b = random_cochain(rng, g, dj, 3)
            lhs = chm.coboundary(chm.cup(a, b))
            rhs = chm.cup(chm.coboundary(a), b) \
                + chm.cup(a, chm.coboundary(b)).scale((-1) ** di)
            assert lhs == rhs


def test_cup_degree_cap():
    g = gr.catalog("cyclic(2)")
    rng = random.Random(4)
    with pytest.raises(DegreeTooHigh):
        chm.cup(random_cochain(rng, g, 2, 2), random_cochain(rng, g, 2, 2))


def test_graded_commutativity_classes():
    # p = 2: [a cup b] = [b cup a]; odd p: [chi cup chi] = 0
    g = gr.catalog("dihedral(8)")
    chars = [c for c in chm.characters_of(g, 2) if c.values.any()]
    for a, b in itertools.product(chars[:3], repeat=2):
        assert chm.is_coboundary(chm.cup(a, b) - chm.cup(b, a)) is not None
    g3 = gr.catalog("u3(3)")
    for c in chm.characters_of(g3, 3)[:5]:
        assert chm.is_coboundary(chm.cup(c, c)) is not None


# ---------------------------------------------------------------------------
# coboundary decisions and bases
# ---------------------------------------------------------------------------

def test_is_coboundary_resubstitution():
    rng = random.Random(5)
    for name in ("cyclic(4)", "quaternion8"):
        g = gr.catalog(name)
        for _ in range(5):
            f = random_cochain(rng, g, 1, 2)
            z = chm.coboundary(f)
            back = chm.is_coboundary(z)
            assert back is not None
            assert chm.coboundary(back) == z


def test_is_coboundary_zero():
    g = gr.catalog("cyclic(4)")
    prim = chm.is_coboundary(chm.zero_cochain(g, 2, 2))
    assert prim is not None and prim.is_zero()


def test_is_coboundary_rejects_non_cocycle():
    g = gr.catalog("cyclic(4)")
    rng = random.Random(6)
    while True:
        c = random_cochain(rng, g, 2, 2)
        if not chm.coboundary(c).is_zero():
            break
    with pytest.raises(NotACocycle):
        chm.is_coboundary(c)


def test_h_basis_dims():
    # brute-force coboundary-matrix ranks; product case rechecked by the
    # Kunneth count dim H^2 = 3 for Z/2 x Z/2
    expected = {
        "product(2,2)": (2, 3),
        "cyclic(2)": (1, 1),
        "cyclic(4)": (1, 1),
        "quaternion8": (2, 2),
        "dihedral(8)": (2, 3),
        "elementary(2,3)": (3, 6),
    }
    for name, (d1, d2) in expected.items():
        g = gr.catalog(name)
        assert len(chm.h_basis(g, 1, 2)) == d1, name
        assert len(chm.h_basis(g, 2, 2)) == d2, name


def test_h_basis_no_characters_to_wrong_prime():
    assert len(chm.h_basis(gr.catalog("cyclic(3)"), 1, 2)) == 0


def test_h_basis_budget():
    with pytest.raises(BudgetExceeded):
        chm.h_basis(gr.catalog("u4(2)"), 2, 2)


def test_h_basis_representatives_are_cocycles():
    g = gr.catalog("dihedral(8)")
    for cls in chm.h_basis(g, 2, 2):
        assert chm.coboundary(cls.representative).is_zero()
        assert chm.is_coboundary(cls.representative) is None


# one table per catalog family and order up to 16
DENSE_GROUPS = tuple(
    [f"cyclic({m})" for m in range(1, 17)]
    + [f"product({a},{b})" for a in range(2, 5) for b in range(a, 9)
       if a * b <= 16]
    + [f"dihedral({m})" for m in range(4, 17, 2)]
    + ["elementary(2,2)", "elementary(2,3)", "elementary(2,4)",
       "elementary(3,2)", "quaternion8", "u3(2)"])


@pytest.mark.parametrize("p", [2, 3])
def test_generating_set_complex_matches_dense_bar_complex(p):
    # the G x S rows must give what the full bar complex gives: the same
    # d1 pivots, characters, particular solutions and refusals, cocycles
    # and H^2 representatives, byte for byte
    rng = random.Random(p)
    for name in DENSE_GROUPS:
        g = gr.catalog(name)
        cx = chm.cochain_complex(g, p)
        d1 = dense_d1(g, p)
        solver = gf.PrimeSolver(d1, p)
        assert cx.d1_solver.pivots == solver.pivots, name
        z1 = solver.kernel_basis()
        assert cx.z1.shape == z1.shape and cx.z1.tobytes() == z1.tobytes()
        z2 = gf.nullspace_array(dense_d2(g, p), p)
        assert cx.z2.shape == z2.shape and cx.z2.tobytes() == z2.tobytes()
        # H^2 representatives: the z2 rows at pivots of [d1 | z2^T]
        _, pivots, _ = gf.rref_array(np.concatenate([d1, z2.T], axis=1), p)
        h2 = z2[[c - cx.ne for c in pivots if c >= cx.ne]]
        assert cx.h2.shape == h2.shape and cx.h2.tobytes() == h2.tobytes()
        for degree, rows in ((1, z1), (2, h2)):
            assert [c.representative for c in chm.h_basis(g, degree, p)] \
                == [cx.unflatten(row, degree) for row in rows], name
        for _ in range(8):
            b = d1 @ np.array([rng.randrange(p) for _ in range(cx.ne)]) % p
            fast = cx.d1_solver.solve(cx.gs_entries(b))
            assert np.array_equal(fast, solver.solve(b)), name
        for row in h2:
            assert cx.d1_solver.solve(cx.gs_entries(row)) is None, name
            assert solver.solve(row) is None, name


# the order-27 and order-32 groups the benchmark builds, at their primes
TREE_EXTRA = {2: ("product(4,8)",), 3: ("u3(3)", "product(3,9)")}


@pytest.mark.parametrize("p", [2, 3])
def test_tree_d1_solver_matches_row_reduced_d1(p):
    # the solver read off the Cayley tree against the row reduction of
    # [d1 | I] it replaced: the same pivots, echelon form, characters,
    # solutions and refusals, a transform of the same shape with
    # T.d1 = [E; 0], and cokernel rows spanning the same space
    rng = random.Random(10 + p)
    for name in DENSE_GROUPS + TREE_EXTRA[p]:
        g = gr.catalog(name)
        cx = chm.cochain_complex(g, p)
        tree, dense = cx.d1_solver, row_reduced_d1_solver(g, p)
        d1 = chm._gs_d1(g, cx.gens) % p
        assert tree.pivots == dense.pivots, name
        assert np.array_equal(tree.echelon, dense.echelon), name
        z1 = dense.kernel_basis()
        assert cx.z1.shape == z1.shape and cx.z1.tobytes() == z1.tobytes()
        assert tree.transform.shape == dense.transform.shape, name
        back = tree.transform @ d1 % p
        assert np.array_equal(back[:tree.rank], tree.echelon), name
        assert not back[tree.rank:].any(), name
        for _ in range(20):
            x = np.array([rng.randrange(p) for _ in range(cx.ne)])
            b = d1 @ x % p
            assert np.array_equal(tree.solve(b), dense.solve(b)), name
        refused = 0
        for _ in range(20):
            b = np.array([rng.randrange(p) for _ in range(tree.rows)])
            sol = dense.solve(b)
            if sol is None:
                assert tree.solve(b) is None, name
                refused += 1
            else:
                assert np.array_equal(tree.solve(b), sol), name
        assert refused or tree.rank == tree.rows, name
        coker = tree.transform[tree.rank:]
        assert gf.rref_array(coker, p)[2] == len(coker), name
        assert gf.rref_array(np.concatenate(
            [coker, dense.transform[dense.rank:]]), p)[2] == len(coker)


def _full_law_holds(g, v, m, theta=None):
    th = np.ones(g.order, dtype=np.int64) if theta is None \
        else np.array(theta, dtype=np.int64)
    return np.array_equal(v[g.mul] % m,
                          (v[:, None] + th[:, None] * v[None, :]) % m)


def test_character_law_on_generators_matches_full_law():
    # Character checks the (crossed) homomorphism law on G x S only; a
    # value vector must pass exactly when the law holds on all of G x G
    rng = random.Random(11)
    verdicts = set()
    for name in DENSE_GROUPS:
        g = gr.catalog(name)
        cases = []
        for p in (2, 3):
            z1 = chm.cochain_complex(g, p).z1
            for _ in range(6):
                v = np.zeros(g.order, dtype=np.int64)
                v[chm.cochain_complex(g, p).nonid] = \
                    np.array([rng.randrange(p) for _ in z1]) @ z1 % p
                cases.append((v, p, None))
                bent = v.copy()
                bent[rng.randrange(g.order)] += rng.randrange(1, p)
                cases.append((bent, p, None))
                cases.append((np.array([rng.randrange(p)
                                        for _ in range(g.order)]), p, None))
        # principal crossed homomorphisms g -> theta(g) a - a, bent too
        for p, m in ((2, 4), (3, 9)):
            for units in h90_orientations(g, p, m)[1:]:
                theta = chm.Orientation(g, m, units)
                for _ in range(3):
                    a = rng.randrange(m)
                    v = (np.array(units, dtype=np.int64) * a - a) % m
                    cases.append((v, m, theta))
                    bent = v.copy()
                    bent[rng.randrange(g.order)] += rng.randrange(1, m)
                    cases.append((bent, m, theta))
        for v, m, theta in cases:
            # the identity's value is zeroed, as Cochain does
            v = v.copy()
            v[g.identity] = 0
            units = None if theta is None else theta.unit_values
            want = _full_law_holds(g, v, m, units)
            try:
                chm.Character(g, m, v, twist=theta)
                got = True
            except ValueError:
                got = False
            assert got == want, (name, v.tolist(), m)
            verdicts.add((want, theta is None))
    assert verdicts == {(True, True), (False, True), (True, False),
                        (False, False)}


@pytest.mark.parametrize("name, dim_z1", [
    ("cyclic(1024)", 1), ("product(32,32)", 2), ("dihedral(1024)", 2)])
def test_degree_one_at_order_1024_within_budget(name, dim_z1):
    # the row reduction of [d1 | I] took about 9 s at order 1024; the
    # Cayley-tree build takes about 0.1 s
    g = gr.catalog(name)
    with watchdog(30):
        start = time.perf_counter()
        cx = chm.cochain_complex(g, 2)
        built = time.perf_counter()
        solver = cx.d1_solver
        solved = time.perf_counter()
        z1 = cx.z1
        done = time.perf_counter()
    assert built - start < 0.5
    assert solved - built < 0.5
    assert done - solved < 0.5
    assert len(z1) == dim_z1
    rng = np.random.default_rng(1024)
    d1 = chm._gs_d1(g, cx.gens) % 2
    spent = []
    for _ in range(3):
        b = d1 @ rng.integers(0, 2, cx.ne) % 2
        start = time.perf_counter()
        x = solver.solve(b)
        spent.append(time.perf_counter() - start)
        assert np.array_equal(d1 @ x % 2, b)
    # the best of three, so that one preempted solve does not fail it
    assert min(spent) < 0.020


def test_degree_one_refuses_a_transform_past_the_byte_bound(monkeypatch):
    # elementary(2,10) has ten generators: a 10230 x 10230 int64
    # transform (837 MB), refused before the Cayley tree is walked
    g = gr.catalog("elementary(2,10)")

    def refuse(*args):
        raise AssertionError("the degree-1 solver started building")

    monkeypatch.setattr(gr, "_cayley_tree", refuse)
    monkeypatch.setattr(chm, "_cayley_tree", refuse)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="10230 x 10230"):
        chm.characters_of(g, 2)
    with pytest.raises(BudgetExceeded):
        chm.h_basis(g, 1, 2)
    assert time.perf_counter() - start < 1.0


def test_z2_matches_gs_kernel_at_orders_27_and_32():
    # the dense d2 is too large here, but its G x G x S rows (a cochain
    # is a cocycle iff these vanish) still give Z^2 from the definition
    for name, p in (("u3(3)", 3), ("product(4,8)", 2)):
        g = gr.catalog(name)
        cx = chm.cochain_complex(g, p)
        z2 = gf.nullspace_array(dense_d2(g, p, last=cx.gens.tolist()), p)
        assert cx.z2.shape == z2.shape and cx.z2.tobytes() == z2.tobytes()


def test_degree_two_basis_at_order_32_within_budget():
    # the dense d2 took about 29 s here; the G x S walk takes milliseconds
    g = gr.catalog("product(4,8)")
    t0 = time.perf_counter()
    basis = chm.h_basis(g, 2, 2)
    assert time.perf_counter() - t0 < 1.0
    assert len(basis) == 3


def test_h2_coordinates_rejects_a_change_outside_gs():
    # a change off the G x S entries leaves the restricted solve
    # untouched; only the cocycle test on the G x G x S rows sees it
    for name in ("dihedral(8)", "product(4,4)"):
        g = gr.catalog(name)
        cx = chm.cochain_complex(g, 2)
        rep = cx.h2[0].copy()
        assert cx.h2_coordinates(rep).tolist() == [1] + [0] * (len(cx.h2) - 1)
        # the entry (second non-identity element, a non-generator)
        outside = next(x for x in range(cx.ne) if x not in cx.gens_col)
        rep[cx.ne + outside] ^= 1
        with pytest.raises(NotACocycle):
            cx.h2_coordinates(rep)


# ---------------------------------------------------------------------------
# Bockstein
# ---------------------------------------------------------------------------

def test_bockstein_zero_character():
    g = gr.catalog("cyclic(4)")
    assert chm.bockstein(chm.character(g, [0] * 4, 2)).is_zero_class()


def test_bockstein_z2_matches_cup_square():
    g = gr.catalog("cyclic(2)")
    chi = chm.character(g, [0, 1], 2)
    beta = chm.bockstein(chi)
    assert not beta.is_zero_class()
    assert chm.is_coboundary(
        beta.representative - chm.cup(chi, chi)) is not None


def test_bockstein_vanishes_when_character_lifts():
    g = gr.catalog("cyclic(4)")
    chi = chm.character(g, [0, 1, 0, 1], 2)
    # chi lifts to the identity hom Z/4 -> Z/4, so the class dies
    assert chm.bockstein(chi).is_zero_class()


def test_bockstein_mod3():
    g = gr.catalog("cyclic(3)")
    chi = chm.character(g, [0, 1, 2], 3)
    assert not chm.bockstein(chi).is_zero_class()


# ---------------------------------------------------------------------------
# restriction / transfer / conjugation
# ---------------------------------------------------------------------------

def test_restriction_of_zero_and_full():
    g = gr.catalog("dihedral(8)")
    subs = gr.enumerate_subgroups(g)
    whole = [s for s in subs if s.order == 8][0]
    chi = chm.h_basis(g, 1, 2)[0]
    assert chm.restriction(chm.CohomClass(chm.zero_cochain(g, 2, 2)),
                           subs[1]).representative.is_zero()
    res = chm.restriction(chi, whole)
    assert np.array_equal(res.representative.values,
                          chi.representative.values)


def test_restriction_u3_example():
    g = gr.catalog("u3(2)")
    u12 = coordinate_character(g, 1, 2, 2)
    h = gr.kernel_of_character(g, [m.entry(2, 3) for m in g.elements],
                               modulus=2)
    res = chm.restriction(u12, h)
    for pos, parent_idx in enumerate(h.member_indices):
        elem = g.elements[parent_idx]
        assert res.values[pos] == elem.entry(1, 2)
    # sigma1 maps to 1, the commutator tau to 0
    by_entries = {g.elements[i].entries: pos
                  for pos, i in enumerate(h.member_indices)}
    from masseykit import unitriangular as ut
    sh = ut.UniShape(3, 2)
    assert res.values[by_entries[ut.sigma(sh, 1).entries]] == 1
    assert res.values[by_entries[ut.from_entries(sh, {(1, 3): 1}).entries]] == 0


def test_corestriction_zero():
    g = gr.catalog("product(2,2)")
    h = gr.kernel_of_character(g, [0, 0, 1, 1], modulus=2)
    psi = chm.character(h.as_group, [0, 0], 2)
    assert not chm.corestriction_deg1(psi, h).values.any()


def test_corestriction_product_hand_computation():
    # G = <u> x <v>, H = <v>, psi(v) = 1: both coset summands cancel,
    # frozen from the two-term hand evaluation
    g = gr.catalog("product(2,2)")
    h = gr.kernel_of_character(g, [0, 0, 1, 1], modulus=2)
    psi = chm.character(h.as_group, [0, 1], 2)
    cor = chm.corestriction_deg1(psi, h)
    assert cor.values.tolist() == [0, 0, 0, 0]


def test_cor_res_composite_is_index():
    for name in ("dihedral(8)", "quaternion8", "product(2,4)",
                 "elementary(2,3)"):
        g = gr.catalog(name)
        subs = [s for s in gr.enumerate_subgroups(g)
                if 1 < s.order < g.order and s.index <= 4]
        chars = [c for c in chm.characters_of(g, 2)]
        for h in subs:
            for chi in chars:
                res = chm.restriction(chi, h)
                psi = chm.character(h.as_group, res.values, 2)
                cor = chm.corestriction_deg1(psi, h)
                assert np.array_equal(cor.values,
                                      (h.index * chi.values) % 2)


def test_cor_res_nonzero_mod3():
    g = gr.catalog("cyclic(6)")
    chi = chm.character(g, [(2 * i) % 3 for i in range(6)], 3)
    h = [s for s in gr.enumerate_subgroups(g) if s.order == 3][0]
    psi = chm.character(h.as_group, chm.restriction(chi, h).values, 3)
    cor = chm.corestriction_deg1(psi, h)
    assert np.array_equal(cor.values, (2 * chi.values) % 3)
    assert cor.values.any()


def test_corestriction_transversal_independence():
    g = gr.catalog("dihedral(8)")
    h = gr.kernel_of_character(
        g, [1 if g.element_names[i].startswith("s") else 0
            for i in range(8)], modulus=2)
    psi_vals = chm.characters_of(h.as_group, 2)[1]
    cor1 = chm.corestriction_deg1(psi_vals, h)
    # replace the transversal by different coset representatives
    other = gr.SubgroupData(h.parent, h.member_indices,
                            (h.transversal[0],
                             g.mul_idx(h.transversal[1], h.member_indices[1])),
                            h.as_group, h.parent_to_sub)
    cor2 = chm.corestriction_deg1(psi_vals, other)
    assert np.array_equal(cor1.values, cor2.values)


def test_corestriction_deg0_is_norm():
    g = gr.catalog("cyclic(4)")
    h = gr.kernel_of_character(g, [0, 1, 0, 1], modulus=2)
    assert chm.corestriction_deg0(3, h, modulus=8) == 6
    theta = chm.Orientation(g, 4, (1, 3, 1, 3))
    expect = sum(theta.unit_values[r] for r in h.transversal) % 4
    assert chm.corestriction_deg0(1, h, twist=theta) == expect


def test_conjugate_character_examples():
    g = gr.catalog("u3(2)")
    vals23 = [m.entry(2, 3) for m in g.elements]
    h = gr.kernel_of_character(g, vals23, modulus=2)
    # tau-detecting character on the abelian kernel
    tau_pos = None
    from masseykit import unitriangular as ut
    sh = ut.UniShape(3, 2)
    psi_vals = [g.elements[i].entry(1, 3) for i in h.member_indices]
    psi = chm.character(h.as_group, psi_vals, 2)
    e_conj = chm.conjugate_character(h, g.identity, psi)
    assert np.array_equal(e_conj.values, psi.values)
    inner = chm.conjugate_character(h, h.member_indices[1], psi)
    assert np.array_equal(inner.values, psi.values)   # abelian kernel
    s2 = [i for i, m in enumerate(g.elements)
          if m.entries == ut.sigma(sh, 2).entries][0]
    moved = chm.conjugate_character(h, s2, psi)
    tau_sub = [pos for pos, i in enumerate(h.member_indices)
               if g.elements[i].entries == ut.from_entries(
                   sh, {(1, 3): 1}).entries][0]
    assert moved.values[tau_sub] == psi.values[tau_sub]  # central element


def test_conjugate_character_not_normal():
    g = gr.catalog("dihedral(8)")
    h = [s for s in gr.enumerate_subgroups(g)
         if s.order == 2 and not s.is_normal()][0]
    psi = chm.characters_of(h.as_group, 2)[1]
    with pytest.raises(NotNormal):
        chm.conjugate_character(h, g.generator_map[0], psi)


# ---------------------------------------------------------------------------
# the weighted norm pair
# ---------------------------------------------------------------------------

def _norm_identity_holds(g, chi, psi, p):
    h = gr.kernel_of_character(g, chi)
    tilde, norm = chm.norm_operators(g, chi, psi)
    t = h.transversal[1]
    lhs = (chm.conjugate_character(h, t, tilde).values - tilde.values) % p
    rhs = (norm.values - p * psi.values) % p
    return np.array_equal(lhs, rhs)


def test_norm_operators_p2_weighted_is_psi():
    g = gr.catalog("cyclic(4)")
    chi = chm.character(g, [0, 1, 0, 1], 2)
    h = gr.kernel_of_character(g, chi)
    psi = chm.characters_of(h.as_group, 2)[1]
    tilde, norm = chm.norm_operators(g, chi, psi)
    assert np.array_equal(tilde.values, psi.values)
    assert _norm_identity_holds(g, chi, psi, 2)


def test_norm_operators_zero():
    g = gr.catalog("cyclic(4)")
    chi = chm.character(g, [0, 1, 0, 1], 2)
    h = gr.kernel_of_character(g, chi)
    zero = chm.character(h.as_group, [0, 0], 2)
    tilde, norm = chm.norm_operators(g, chi, zero)
    assert not tilde.values.any() and not norm.values.any()


def test_norm_operators_identity_sweep():
    cases = []
    g = gr.catalog("u3(3)")
    cases.append((g, chm.character(
        g, [m.entry(1, 2) for m in g.elements], 3), 3))
    g9 = gr.catalog("cyclic(9)")
    cases.append((g9, chm.character(g9, [i % 3 for i in [0, 1, 2] * 3], 3), 3))
    d8 = gr.catalog("dihedral(8)")
    cases.append((d8, chm.character(
        d8, [1 if d8.element_names[i].startswith("s") else 0
             for i in range(8)], 2), 2))
    for g, chi, p in cases:
        h = gr.kernel_of_character(g, chi)
        for psi in chm.characters_of(h.as_group, p)[:6]:
            assert _norm_identity_holds(g, chi, psi, p)


def test_norm_operators_requires_surjective():
    g = gr.catalog("cyclic(4)")
    zero = chm.character(g, [0] * 4, 2)
    h = gr.kernel_of_character(g, [0, 1, 0, 1], modulus=2)
    psi = chm.characters_of(h.as_group, 2)[0]
    with pytest.raises(NotSurjective):
        chm.norm_operators(g, zero, psi)


# ---------------------------------------------------------------------------
# four-term exactness
# ---------------------------------------------------------------------------

def test_four_term_cyclic4():
    g = gr.catalog("cyclic(4)")
    rep = chm.four_term_exactness(g, chm.character(g, [0, 1, 0, 1], 2))
    assert rep.exact_at_h1 and rep.exact_at_h2


def test_four_term_quaternion_all_characters():
    g = gr.catalog("quaternion8")
    for chi in chm.characters_of(g, 2):
        if chi.values.any():
            rep = chm.four_term_exactness(g, chi)
            assert rep.exact


def test_four_term_z2_hand_check():
    g = gr.catalog("cyclic(2)")
    rep = chm.four_term_exactness(g, chm.character(g, [0, 1], 2))
    assert rep.exact_at_h1 and rep.exact_at_h2


def test_four_term_rejects_zero():
    g = gr.catalog("cyclic(2)")
    with pytest.raises(NotSurjective):
        chm.four_term_exactness(g, chm.character(g, [0, 0], 2))


# ---------------------------------------------------------------------------
# reduction-surjectivity probes
# ---------------------------------------------------------------------------

def _crossed_hom_oracle(group, units, modulus):
    """Exhaustive enumeration of twisted 1-cocycles; test-side oracle."""
    n = group.order
    out = []
    for vals in itertools.product(range(modulus), repeat=n - 1):
        full = [0] * n
        k = 0
        for i in range(n):
            if i != group.identity:
                full[i] = vals[k]
                k += 1
        ok = True
        for a in range(n):
            for b in range(n):
                if full[group.mul_idx(a, b)] % modulus \
                        != (full[a] + units[a] * full[b]) % modulus:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(full))
    return out


def _oracle_reduction_surjective(group, units, p, n):
    m = p ** n
    units_n = [u % m for u in units]
    units_1 = [u % p for u in units]
    zn = _crossed_hom_oracle(group, units_n, m)
    z1 = _crossed_hom_oracle(group, units_1, p)
    b1 = {tuple((a * (units_1[i] - 1)) % p for i in range(group.order))
          for a in range(p)}
    image = {tuple(v % p for v in x) for x in zn}
    for target in z1:
        if not any(tuple((image_el[i] + b[i]) % p
                         for i in range(group.order)) == target
                   for image_el in image for b in b1):
            return False
    return True


def test_formal_h90_trivial_group():
    g = gr.catalog("cyclic(1)")
    theta = chm.Orientation(g, 8, (1,))
    reports = chm.formal_h90_check(g, theta, 3)
    assert all(r.reduction_surjective for r in reports)
    assert all(r.consecutive_surjective for r in reports)


def test_formal_h90_z2_trivial_fails_at_2():
    g = gr.catalog("cyclic(2)")
    theta = chm.Orientation(g, 4, (1, 1))
    reports = chm.formal_h90_check(g, theta, 2)
    whole = [r for r in reports if len(r.subgroup_members) == 2]
    by_level = {r.level: r.reduction_surjective for r in whole}
    assert by_level[1] is True
    assert by_level[2] is False
    # matches the exhaustive oracle
    assert _oracle_reduction_surjective(g, (1, 1), 2, 2) is False


def test_formal_h90_z2_twisted_matches_oracle():
    g = gr.catalog("cyclic(2)")
    units = (1, 3)
    theta = chm.Orientation(g, 4, units)
    reports = chm.formal_h90_check(g, theta, 2)
    whole = [r for r in reports if len(r.subgroup_members) == 2]
    computed = {r.level: r.reduction_surjective for r in whole}[2]
    assert computed == _oracle_reduction_surjective(g, units, 2, 2)
    assert computed is True


def test_formal_h90_oracle_sweep_small():
    # exhaustive cross-check of every reported flag on small probes
    probes = [("cyclic(2)", 2, (1, 1), 4, 2), ("cyclic(2)", 2, (1, 3), 4, 2),
              ("cyclic(4)", 2, (1, 1, 1, 1), 4, 2),
              ("cyclic(4)", 2, (1, 3, 1, 3), 4, 2),
              ("cyclic(3)", 3, (1, 1, 1), 9, 2),
              ("cyclic(3)", 3, (1, 4, 7), 9, 2)]
    for name, p, units, modulus, n_max in probes:
        g = gr.catalog(name)
        theta = chm.Orientation(g, modulus, units)
        for r in chm.formal_h90_check(g, theta, n_max):
            sub = gr.subgroup_from_members(g, r.subgroup_members)
            sub_units = tuple(units[i] for i in r.subgroup_members)
            want = _oracle_reduction_surjective(
                sub.as_group, sub_units, p, r.level)
            assert r.reduction_surjective == want, (name, r)


# (p, modulus, n_max, groups) swept with ``h90_orientations``
H90_PINNED_CASES = [
    (2, 8, 3, ("cyclic(2)", "cyclic(4)", "product(2,2)", "quaternion8",
               "dihedral(8)", "dihedral(16)", "product(2,4)")),
    (3, 27, 3, ("cyclic(3)", "cyclic(9)", "product(3,3)", "dihedral(6)",
                "product(3,9)", "u3(3)")),
    (2, 16, 4, ("cyclic(8)", "u3(2)", "product(2,8)")),
    (5, 25, 2, ("cyclic(5)", "cyclic(25)", "product(5,5)", "dihedral(10)")),
]


def test_formal_h90_reports_are_pinned():
    # sha256 over 2326 reports, trivial and twisted orientations at
    # p = 2, 3 and 5; a change of method must keep every flag
    digest = hashlib.sha256()
    for p, modulus, n_max, names in H90_PINNED_CASES:
        for name in names:
            g = gr.catalog(name)
            for units in h90_orientations(g, p, modulus):
                theta = chm.Orientation(g, modulus, units)
                for r in chm.formal_h90_check(g, theta, n_max):
                    digest.update(repr((
                        name, units, r.subgroup_members, r.level,
                        r.reduction_surjective,
                        r.consecutive_surjective)).encode())
    assert digest.hexdigest() == (
        "9b6bb27f55ccfd41c1db9561388a083006bb5014e4a34d1362b6978e00818273")


def test_formal_h90_matches_crossed_hom_counter():
    # the long-exact-sequence verdicts against the reference that counts
    # the image of each reduction map with its own congruence system
    cases = [(2, 8, ("cyclic(16)", "product(2,8)", "product(4,4)",
                     "dihedral(16)", "product(4,8)")),
             (3, 27, ("product(3,9)", "u3(3)", "elementary(3,3)"))]
    for p, modulus, names in cases:
        for name in names:
            g = gr.catalog(name)
            for units in h90_orientations(g, p, modulus, limit=1):
                theta = chm.Orientation(g, modulus, units)
                reports = iter(chm.formal_h90_check(g, theta, 3))
                for sub in gr.enumerate_subgroups(g):
                    ref = _CrossedHomCounter(
                        sub.as_group,
                        [units[i] for i in sub.member_indices], p)
                    for n in range(1, 4):
                        r = next(reports)
                        assert r.subgroup_members == sub.member_indices
                        assert r.level == n
                        want = (ref.reduction_surjective(n, 1),
                                ref.reduction_surjective(n, n - 1)
                                if n >= 2 else True)
                        assert (r.reduction_surjective,
                                r.consecutive_surjective) == want, (
                            name, units, r)
                assert next(reports, None) is None


def test_formal_h90_one_smith_form_per_subgroup(monkeypatch):
    calls = []

    def counting(matrix):
        calls.append(1)
        return gf.smith_normal_form(matrix)

    monkeypatch.setattr(chm, "smith_normal_form", counting)
    g = gr.catalog("dihedral(16)")
    theta = chm.Orientation(g, 16, h90_orientations(g, 2, 16)[1])
    chm.formal_h90_check(g, theta, 4)
    assert 0 < len(calls) <= len(gr.enumerate_subgroups(g))


def test_formal_h90_monotonicity():
    probes = [("cyclic(2)", (1, 1), 8, 3), ("cyclic(2)", (1, 3), 4, 2),
              ("cyclic(4)", (1, 3, 1, 3), 4, 2),
              ("product(2,2)", (1, 1, 1, 1), 4, 2)]
    for name, units, modulus, n_max in probes:
        g = gr.catalog(name)
        theta = chm.Orientation(g, modulus, units)
        by_subgroup = {}
        for r in chm.formal_h90_check(g, theta, n_max):
            by_subgroup.setdefault(r.subgroup_members, {})[r.level] = r
        for levels in by_subgroup.values():
            for n, r in levels.items():
                if all(levels[m].reduction_surjective
                       for m in range(1, n + 1)):
                    assert r.consecutive_surjective


def test_formal_h90_reads_the_prime_off_the_modulus():
    # the modulus's prime and exponent come from integer roots, so a large
    # prime costs a primality test, not a scan up to it
    g = gr.catalog("cyclic(2)")
    big = 2147483647
    for modulus, n_max in ((big, 1), (big ** 2, 2), (2 ** 63, 63),
                           (3 ** 39, 39), (5, 1), (49, 2)):
        reports = chm.formal_h90_check(
            g, chm.Orientation(g, modulus, (1, 1)), n_max)
        assert len(reports) == 2 * n_max, modulus
    for modulus in (36, 12, 2 * big, big * 3 ** 2):
        with pytest.raises(ValueError, match="prime power"):
            chm.formal_h90_check(g, chm.Orientation(g, modulus, (1, 1)), 1)
    with pytest.raises(ValueError, match="n_max exceeds"):
        chm.formal_h90_check(g, chm.Orientation(g, big ** 2, (1, 1)), 3)


def test_formal_h90_budget():
    # the subgroup sweep is bounded by enumerate_subgroups' order cap (64)
    g = gr.catalog("cyclic(128)")
    with pytest.raises(BudgetExceeded):
        chm.formal_h90_check(g, chm.Orientation(g, 4, (1,) * 128), 2)
    # order 32 is within it: 36 subgroups of D16, three levels each
    g = gr.catalog("dihedral(32)")
    assert len(chm.formal_h90_check(g, chm.Orientation(g, 8, (1,) * 32),
                                    3)) == 108


def test_orientation_validation():
    g = gr.catalog("cyclic(2)")
    with pytest.raises(ValueError):
        chm.Orientation(g, 4, (1, 2))        # 2 is not a unit mod 4
    with pytest.raises(ValueError):
        chm.Orientation(g, 4, (3, 3))        # not multiplicative
    with pytest.raises(ValueError):         # theta(1) theta(1) != theta(2)
        chm.Orientation(gr.catalog("cyclic(4)"), 4, (1, 3, 3, 1))
    # the law is checked in Python integers: (3^20 - 1)^2 and
    # (2^63 - 1)^2 overflow int64, but -1 squares to 1
    for modulus in (3 ** 20, 2 ** 63):
        theta = chm.Orientation(g, modulus, (1, -1))
        assert theta.unit_values == (1, modulus - 1)
    with pytest.raises(ValueError):         # units past int64
        chm.Orientation(g, 2 ** 70, (1, 1))


def test_character_validation():
    g = gr.catalog("cyclic(4)")
    with pytest.raises(ValueError):
        chm.character(g, [0, 1, 1, 0], 2)     # not additive
    chm.character(g, [0, 1, 2, 3], 4)
    # crossed-homomorphism law with a twist
    z2 = gr.catalog("cyclic(2)")
    theta = chm.Orientation(z2, 4, (1, 3))
    chm.Character(z2, 4, [0, 1], twist=theta)  # 1 + 3*1 = 0 mod 4
    with pytest.raises(ValueError):
        chm.Character(z2, 4, [0, 1])           # untwisted: 1+1 != 0 mod 4


def test_twisted_characters_multiply_exactly():
    # theta(g) chi(h) is (m - 1)(m - 2) here, past int64 at m = 3^20
    m = 3 ** 20
    z2 = gr.catalog("cyclic(2)")
    chi = chm.Character(z2, m, [0, m - 2],
                        twist=chm.Orientation(z2, m, (1, -1)))
    assert chm.coboundary(chi).is_zero()
    # on Z/4 with theta(x) = -1 the crossed homomorphisms are (0, a, 0, a)
    z4 = gr.catalog("cyclic(4)")
    theta = chm.Orientation(z4, m, (1, -1, 1, -1))
    chi = chm.Character(z4, m, [0, m - 2, 0, m - 2], twist=theta)
    chm.CohomClass(chi)                       # its coboundary is zero
    with pytest.raises(ValueError, match="homomorphism law"):
        chm.Character(z4, m, [0, m - 2, 1, m - 2], twist=theta)
    f = chm.cochain(z4, 1, m, [0, m - 2, 1, m - 2], twist=theta)
    assert not chm.coboundary(f).is_zero()
    # degree 0: (d c)(g) = theta(g) c - c
    c = chm.cochain(z4, 0, m, m - 2, twist=theta)
    assert chm.coboundary(c).values.tolist() == [0, 4, 0, 4]


def test_dropped_group_frees_its_complex_without_gc():
    # the cached complex must not point back at its group strongly, or a
    # dropped group keeps its matrices until the cyclic collector runs
    g = gr.catalog("dihedral(8)")
    cx = chm.cochain_complex(g, 2)
    cx.d1_solver
    ref = weakref.ref(cx)
    del cx
    gc.disable()
    try:
        del g
        assert ref() is None
    finally:
        gc.enable()
