import itertools
import random

import numpy as np
import pytest

from masseykit import unitriangular as ut
from masseykit.errors import BudgetExceeded, ShapeMismatch

from helpers import from_dense


def dense_mul_oracle(a, b):
    """Independent product: plain numpy matrix multiply mod p."""
    p = a.shape.prime
    prod = (np.array(a.dense()) @ np.array(b.dense())) % p
    return from_dense(a.shape, prod.tolist())


def test_identity_product():
    sh = ut.UniShape(4, 2)
    e = ut.identity(sh)
    assert ut.uni_mul(e, e) == e


def test_square_of_full_superdiagonal():
    sh = ut.UniShape(4, 2)
    a = ut.i_plus_n(sh)
    sq = ut.uni_mul(a, a)
    expect = ut.from_entries(sh, {(1, 3): 1, (2, 4): 1})
    assert sq == expect


def test_generators_commute_only_up_to_corner():
    sh = ut.UniShape(3, 2)
    s1, s2 = ut.sigma(sh, 1), ut.sigma(sh, 2)
    ab = ut.uni_mul(s1, s2)
    ba = ut.uni_mul(s2, s1)
    assert ab == dense_mul_oracle(s1, s2)
    assert ba == dense_mul_oracle(s2, s1)
    diff = {(i, j) for (i, j) in sh.positions
            if ab.entry(i, j) != ba.entry(i, j)}
    assert diff == {(1, 3)}


def test_mul_against_dense_oracle_random():
    rng = random.Random(2)
    for sh in (ut.UniShape(3, 3), ut.UniShape(4, 2), ut.UniShape(5, 2, True)):
        for _ in range(15):
            a = ut.UniMatrix(sh, tuple(rng.randrange(sh.prime)
                                       for _ in sh.positions))
            b = ut.UniMatrix(sh, tuple(rng.randrange(sh.prime)
                                       for _ in sh.positions))
            assert ut.uni_mul(a, b) == dense_mul_oracle(a, b)


def test_inverse_identity_and_involution():
    sh = ut.UniShape(3, 2)
    e = ut.identity(sh)
    assert ut.uni_inv(e) == e
    s1 = ut.sigma(sh, 1)
    assert ut.uni_inv(s1) == s1
    assert ut.uni_mul(s1, s1) == e


def test_inverse_geometric_series_oracle():
    sh = ut.UniShape(4, 2)
    a = ut.i_plus_n(sh)
    # (I+N)^-1 = I + N + N^2 + N^3 mod 2
    n = np.array(a.dense()) - np.eye(4, dtype=np.int64)
    acc = np.eye(4, dtype=np.int64)
    term = np.eye(4, dtype=np.int64)
    for _ in range(3):
        term = (term @ -n)
        acc = acc + term
    expect = from_dense(sh, (acc % 2).tolist())
    assert ut.uni_inv(a) == expect
    assert ut.uni_mul(a, ut.uni_inv(a)) == ut.identity(sh)


def test_inverse_random():
    rng = random.Random(9)
    for sh in (ut.UniShape(4, 3), ut.UniShape(5, 2), ut.UniShape(4, 2, True)):
        for _ in range(10):
            a = ut.UniMatrix(sh, tuple(rng.randrange(sh.prime)
                                       for _ in sh.positions))
            assert ut.uni_mul(a, ut.uni_inv(a)) == ut.identity(sh)


def test_packed_products_and_inverses_match_tuple_arithmetic():
    rng = random.Random(4)
    for sh in (ut.UniShape(3, 5), ut.UniShape(3, 2, True), ut.UniShape(4, 3),
               ut.UniShape(4, 2, True), ut.UniShape(5, 2),
               ut.UniShape(5, 3, True)):
        mats = [ut.UniMatrix(sh, tuple(rng.randrange(sh.prime)
                                       for _ in sh.positions))
                for _ in range(24)]
        packed = np.array([m.entries for m in mats], dtype=np.int64)
        shifted = np.roll(packed, 1, axis=0)
        prods = ut._packed_mul(packed, shifted, sh)
        invs = ut._packed_inv(packed, sh)
        for k, m in enumerate(mats):
            assert tuple(prods[k]) == ut.uni_mul(m, mats[k - 1]).entries
            assert tuple(invs[k]) == ut.uni_inv(m).entries


def test_packed_arithmetic_is_exact_at_large_primes():
    # every entry p - 1: a product slot of U(5, p) adds two entries and
    # three products near 2^62, which wrapped int64 (squaring gave corner
    # 2147483644, not 1); past 2^32 one product alone passes 2^63
    for p, size, barred in ((2147483647, 3, False), (2147483647, 4, False),
                            (2147483647, 5, False), (2147483647, 5, True),
                            (4294967311, 3, False)):
        sh = ut.UniShape(size, p, barred)
        m = ut.UniMatrix(sh, (p - 1,) * len(sh.positions))
        a = np.array([m.entries], dtype=np.int64)
        assert tuple(ut._packed_mul(a, a, sh)[0]) \
            == ut.uni_mul(m, m).entries, sh
        assert tuple(ut._packed_inv(a, sh)[0]) == ut.uni_inv(m).entries, sh


def test_top_offset_is_central_and_additive():
    # the top offset carrying entries (the corner, or the offset below it
    # in the barred quotient) multiplies by adding entries, from either
    # side; lift_search's factored check rests on this
    rng = random.Random(7)
    for size, p, barred in itertools.product((3, 4, 5), (2, 3),
                                             (False, True)):
        sh = ut.UniShape(size, p, barred)
        top = max(j - i for (i, j) in sh.positions)
        cols = [c for c, (i, j) in enumerate(sh.positions) if j - i == top]
        a = np.array([[rng.randrange(p) for _ in sh.positions]
                      for _ in range(16)], dtype=np.int64)
        t = np.zeros_like(a)
        t[:, cols] = [[rng.randrange(p) for _ in cols] for _ in range(16)]
        assert (ut._packed_mul(a, t, sh) == (a + t) % p).all(), sh
        assert (ut._packed_mul(t, a, sh) == (a + t) % p).all(), sh


def test_commutator_examples():
    sh = ut.UniShape(3, 2)
    s1, s2 = ut.sigma(sh, 1), ut.sigma(sh, 2)
    tau = ut.commutator(s1, s2)
    assert tau == ut.from_entries(sh, {(1, 3): 1})
    e = ut.identity(sh)
    for x in (s1, s2, tau):
        assert ut.commutator(e, x) == e
    a = ut.i_plus_n(ut.UniShape(4, 2))
    assert ut.commutator(a, a) == ut.identity(a.shape)


def test_enumerate_counts():
    assert len(ut.enumerate_group(ut.UniShape(3, 2))) == 8
    assert len(ut.enumerate_group(ut.UniShape(4, 2))) == 64
    assert len(ut.enumerate_group(ut.UniShape(4, 2, True))) == 32


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded):
        ut.enumerate_group(ut.UniShape(4, 3), budget=100)


def test_enumerate_deterministic_order():
    elems = ut.enumerate_group(ut.UniShape(3, 2))
    assert [m.entries for m in elems] == sorted(m.entries for m in elems)


def test_group_axioms_random():
    rng = random.Random(4)
    for sh in (ut.UniShape(3, 2), ut.UniShape(3, 3), ut.UniShape(4, 2, True)):
        elems = ut.enumerate_group(sh)
        for _ in range(20):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert ut.uni_mul(ut.uni_mul(a, b), c) \
                == ut.uni_mul(a, ut.uni_mul(b, c))
            assert ut.uni_mul(a, ut.uni_inv(a)) == ut.identity(sh)


def test_centralizer_of_identity_is_whole_group():
    sh = ut.UniShape(4, 2)
    assert len(ut.centralizer_of(ut.identity(sh))) == 64


def test_centralizer_constant_diagonals():
    def constant_on_diagonals(m):
        offsets = {}
        for (i, j) in m.shape.positions:
            offsets.setdefault(j - i, set()).add(m.entry(i, j))
        return all(len(s) == 1 for s in offsets.values())

    for p, size in ((2, 4), (3, 4)):
        sh = ut.UniShape(size, p)
        cent = ut.centralizer_of(ut.i_plus_n(sh))
        assert len(cent) == p ** (size - 1)
        assert all(constant_on_diagonals(m) for m in cent)


def test_conjugacy_class_sizes_and_shape():
    sh = ut.UniShape(4, 2)
    cls = ut.conjugacy_class_of(ut.i_plus_n(sh))
    assert len(cls) == 8
    super_ones = [m for m in ut.enumerate_group(sh)
                  if all(m.entry(i, i + 1) == 1 for i in range(1, 4))]
    assert sorted(m.entries for m in cls) == sorted(m.entries for m in super_ones)
    assert ut.conjugacy_class_of(ut.identity(sh)) == [ut.identity(sh)]
    big = ut.conjugacy_class_of(ut.i_plus_n(ut.UniShape(5, 2)))
    assert len(big) == 64


def test_class_times_centralizer_is_group_order():
    # the packed batches against tuple arithmetic one element at a time
    for sh in (ut.UniShape(3, 2), ut.UniShape(4, 2), ut.UniShape(4, 3),
               ut.UniShape(4, 3, barred=True)):
        elems = ut.enumerate_group(sh)
        sample = elems if len(elems) <= 32 else elems[:8] + elems[-8:]
        for g in sample:
            cls = ut.conjugacy_class_of(g)
            cent = ut.centralizer_of(g)
            assert len(cls) * len(cent) == len(elems)
            assert cent == [x for x in elems
                            if ut.uni_mul(x, g) == ut.uni_mul(g, x)]
            conj = {ut.uni_mul(ut.uni_mul(x, g), ut.uni_inv(x)).entries
                    for x in elems}
            assert [m.entries for m in cls] == sorted(conj)


def test_shape_mismatch():
    a = ut.identity(ut.UniShape(3, 2))
    b = ut.identity(ut.UniShape(4, 2))
    with pytest.raises(ShapeMismatch):
        ut.uni_mul(a, b)


# ---------------------------------------------------------------------------
# projection, section, and the extension cocycle
# ---------------------------------------------------------------------------

def _project(m):
    """The quotient map U -> U-bar dropping the corner entry."""
    shb = m.shape.barred_shape()
    return ut.from_entries(shb, {ij: m.entry(*ij) for ij in shb.positions})


def test_extension_cocycle_coordinate_formula():
    # the corner of s(g)s(h)s(gh)^-1, s the section with corner entry 0,
    # against +sum_l u[1][l](g) u[l][4](h), the sign convention's
    # obstruction cocycle, cross-checked as classes by an exhaustive
    # linear coboundary search
    from masseykit import cohomology as chm
    from masseykit import groups as gr

    sh = ut.UniShape(4, 2)
    shb = sh.barred_shape()

    def section(m):
        return ut.from_entries(sh, {ij: m.entry(*ij) for ij in shb.positions})

    elems = ut.enumerate_group(shb)
    q = gr.closure_group([m for m in elems if sum(m.entries) == 1],
                         label="ubar4")
    assert q.order == 32
    vals = np.zeros((32, 32), dtype=np.int64)
    formula = np.zeros((32, 32), dtype=np.int64)
    for a, ga in enumerate(q.elements):
        for b, gb in enumerate(q.elements):
            diff = ut.uni_mul(ut.uni_mul(section(ga), section(gb)),
                              ut.uni_inv(section(ut.uni_mul(ga, gb))))
            assert _project(diff).is_identity()
            vals[a, b] = diff.entry(1, 4)
            formula[a, b] = sum(ga.entry(1, l) * gb.entry(l, 4)
                                for l in (2, 3)) % 2
    assert np.array_equal(vals, formula)
    diff = chm.cochain(q, 2, 2, (vals - formula) % 2)
    assert chm.is_coboundary(diff) is not None


def test_projection_is_homomorphism_with_central_kernel():
    sh = ut.UniShape(4, 2)
    elems = ut.enumerate_group(sh)
    images = {m.entries for m in map(_project, elems)}
    assert len(images) == 32
    rng = random.Random(6)
    for _ in range(25):
        a, b = rng.choice(elems), rng.choice(elems)
        assert _project(ut.uni_mul(a, b)) \
            == ut.uni_mul(_project(a), _project(b))
    kernel = [m for m in elems if _project(m).is_identity()]
    assert len(kernel) == 2
    assert all(all(m.entry(i, j) == 0 for (i, j) in sh.positions
                   if (i, j) != (1, 4)) for m in kernel)


# ---------------------------------------------------------------------------
# the integral resolution report
# ---------------------------------------------------------------------------

def test_u3_resolution():
    rep = ut.verify_u3_resolution()
    assert rep.ranks == (2, 6, 5, 1)
    assert 2 - 6 + 5 - 1 == 0
    assert rep.exact
    assert rep.squares_commute


@pytest.mark.parametrize("scale", [2, 0])
def test_u3_resolution_refuses_a_broken_first_map(monkeypatch, scale):
    # doubling the first map keeps g f = 0 and every rank but leaves
    # ker g / im f = (Z/2)^2; zeroing it loses injectivity and the rank
    # at the middle spot
    build = ut._map_matrix

    def broken(*args):
        m = build(*args)
        if (len(m), len(m[0])) == (6, 2):  # m_f: Z^2 -> Z^6
            m = scale * m
        return m

    monkeypatch.setattr(ut, "_map_matrix", broken)
    assert not ut.verify_u3_resolution().exact
