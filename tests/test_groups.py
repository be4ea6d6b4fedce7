import hashlib
import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest

from masseykit import cohomology as chm
from masseykit import groups as gr
from masseykit import unitriangular as ut
from masseykit.errors import (
    BudgetExceeded,
    NotHomomorphism,
    NotSurjective,
    UnknownName,
)

from helpers import certify_max_p_quotient, reference_table_check

EXAMPLE_RELATOR = (1, 1, 2, -1, -1, -2)


def example_presentation():
    return gr.Presentation(2, (EXAMPLE_RELATOR,), label="example")


# ---------------------------------------------------------------------------
# closure and evaluation
# ---------------------------------------------------------------------------

def test_closure_u3_generators():
    sh = ut.UniShape(3, 2)
    g = gr.closure_group([ut.sigma(sh, 1), ut.sigma(sh, 2)])
    assert g.order == 8
    assert {m.entries for m in g.elements} \
        == {m.entries for m in ut.enumerate_group(sh)}


def test_closure_empty_is_trivial():
    g = gr.closure_group([])
    assert g.order == 1


def test_closure_cyclic_from_repeated_multiplication():
    sh = ut.UniShape(4, 2)
    a = ut.i_plus_n(sh)
    g = gr.closure_group([a])
    powers = [ut.identity(sh)]
    while True:
        nxt = ut.uni_mul(powers[-1], a)
        if nxt == powers[0]:
            break
        powers.append(nxt)
    assert g.order == len(powers) == 4
    sq = ut.uni_mul(a, a)
    assert sq != ut.identity(sh)
    assert ut.uni_mul(sq, sq) == ut.identity(sh)


def test_closure_budget():
    sh = ut.UniShape(4, 2)
    with pytest.raises(BudgetExceeded):
        gr.closure_group([ut.sigma(sh, 1), ut.sigma(sh, 2), ut.sigma(sh, 3)],
                         budget=10)


def test_closure_table_consistent_with_elements():
    sh = ut.UniShape(3, 3)
    g = gr.closure_group([ut.sigma(sh, 1), ut.sigma(sh, 2)])
    assert g.order == 27
    rng = random.Random(0)
    for _ in range(40):
        a, b = rng.randrange(27), rng.randrange(27)
        assert g.elements[g.mul_idx(a, b)] \
            == ut.uni_mul(g.elements[a], g.elements[b])


def test_closure_redundant_and_identity_generators():
    sh = ut.UniShape(4, 2)
    a = ut.i_plus_n(sh)
    for gens in ([a, ut.uni_mul(a, a)], [ut.identity(sh), a]):
        g = gr.closure_group(gens)
        assert g.order == 4
        for i in range(4):
            for j in range(4):
                assert g.elements[g.mul_idx(i, j)] \
                    == ut.uni_mul(g.elements[i], g.elements[j])


def test_closure_words_evaluate_to_elements():
    sh = ut.UniShape(3, 2)
    gens = [ut.sigma(sh, 1), ut.sigma(sh, 2)]
    g = gr.closure_group(gens)
    for i, w in enumerate(g.element_words):
        if w:
            assert gr.evaluate_word(w, gens) == g.elements[i]


def test_evaluate_word_basics():
    g = gr.catalog("cyclic(4)")
    x = g.generator_map[0]
    assert gr.evaluate_word((1, -1), [x], g) == g.identity
    assert gr.evaluate_word((1, 1, 1, 1), [x], g) == g.identity
    assert gr.evaluate_word((1, 1), [x], g) == g.power(x, 2)


def test_evaluate_word_example_relator():
    sh = ut.UniShape(3, 2)
    images = [ut.sigma(sh, 1), ut.sigma(sh, 2)]
    assert gr.evaluate_word(EXAMPLE_RELATOR, images).is_identity()


def test_evaluate_word_permutations():
    r3 = (1, 2, 0)
    flip = (1, 0, 2)
    g = gr.closure_group([r3, flip])
    assert g.order == 6
    assert gr.evaluate_word((1, 1, 1), [r3, flip]) == (0, 1, 2)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_finite_group_rejects_bad_tables():
    with pytest.raises(ValueError):
        gr.FiniteGroup([[0, 1], [1, 1]])          # not a Latin square
    with pytest.raises(ValueError):
        gr.FiniteGroup([[1, 0], [0, 0]])          # no identity row/column
    # a non-associative Latin square (order 5 quasigroup)
    bad = [[0, 1, 2, 3, 4],
           [1, 0, 3, 4, 2],
           [2, 4, 0, 1, 3],
           [3, 2, 4, 0, 1],
           [4, 3, 1, 2, 0]]
    with pytest.raises(ValueError):
        gr.FiniteGroup(bad)


def test_associativity_check_stays_small_and_still_rejects():
    # U(3,5) has order 125: the check runs over several row blocks and
    # never builds the two order^3 arrays (32 MiB together)
    sh = ut.UniShape(3, 5)
    tracemalloc.start()
    try:
        g = gr.closure_group([ut.sigma(sh, 1), ut.sigma(sh, 2)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.order == 125
    assert peak < 8 * 2 ** 20
    # swapping two products in the last row keeps the identity row and
    # column but breaks associativity
    bad = g.mul.copy()
    a = g.order - 1 if g.identity != g.order - 1 else g.order - 2
    x, y = [k for k in range(g.order) if k != g.identity][:2]
    bad[a, x], bad[a, y] = bad[a, y], bad[a, x]
    with pytest.raises(ValueError, match="not associative"):
        gr.FiniteGroup(bad)


# every catalog name of order <= 12 (several give the same table)
SMALL_CATALOG = (
    [f"cyclic({m})" for m in range(1, 13)]
    + [f"product({a},{b})" for a in range(2, 7) for b in range(a, 7)
       if a * b <= 12]
    + ["elementary(2,2)", "elementary(2,3)", "elementary(3,2)"]
    + [f"dihedral({o})" for o in range(2, 13, 2)]
    + ["quaternion8", "u3(2)"])


def test_light_test_matches_cubic_check_on_single_entry_changes():
    # every single-entry change of every small catalog table: the table
    # is refused exactly when the all-triples check refuses it, with the
    # same message
    tables = {}
    for name in SMALL_CATALOG:
        mul = gr.catalog(name).mul
        tables.setdefault(mul.tobytes(), mul)
    for mul in tables.values():
        n = len(mul)
        for a, b, v in itertools.product(range(n), repeat=3):
            if v == mul[a, b]:
                continue
            bad = mul.copy()
            bad[a, b] = v
            try:
                reference_table_check(bad)
                want = None
            except ValueError as exc:
                want = str(exc)
            try:
                gr.FiniteGroup(bad)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == want, (bad.tolist(), got, want)


def test_large_catalog_tables_build_fast():
    # the all-triples check took 6.8 s on cyclic(1024) and 3.2 s on u4(3);
    # tables filled one entry at a time in Python took 1.5-2.0 s on
    # elementary(2,10) and about 0.5 s on dihedral(1024)
    for name, limit in (("cyclic(1024)", 1.0), ("u4(3)", 1.0),
                        ("elementary(2,10)", 0.75),
                        ("dihedral(1024)", 0.25)):
        start = time.perf_counter()
        g = gr.catalog(name)
        assert time.perf_counter() - start < limit, name
        assert g.order in (1024, 729)


def test_catalog_table_memory_stays_order_squared():
    # a few order^2 int64 arrays (8 MiB each at order 1024), never one
    # with a factor per digit
    tracemalloc.start()
    try:
        gr.catalog("elementary(2,10)")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def test_light_test_makes_no_order_squared_temporaries():
    # at order 2048 a table is 32 MiB: the builder's and the group's copy
    # are all that should coexist (Light's test on whole tables added two
    # more, 133 MiB at the peak)
    for name in ("product(32,64)", "dihedral(2048)"):
        tracemalloc.start()
        try:
            g = gr.catalog(name)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.order == 2048
        assert peak < 70 * 2 ** 20, name


# the abelian and dihedral families at many sizes, names with leading
# zeros, and the one other hand-built table
TABLE_CATALOG = (
    [f"cyclic({m})" for m in (*range(1, 17), 25, 27, 32, 64, 100, 128, 243,
                              256)]
    + [f"product({a},{b})" for a, b in (
        (1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (2, 4), (4, 2),
        (3, 3), (4, 4), (2, 8), (3, 9), (5, 7), (6, 4), (8, 8), (16, 16))]
    + [f"elementary({p},{k})" for p, k in (
        (2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
        (2, 8), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2))]
    + [f"dihedral({o})" for o in (2, 4, 6, 8, 10, 12, 16, 18, 32, 64, 128,
                                  256)]
    + ["cyclic(04)", "product(02,3)", "elementary(2,03)", "dihedral(010)",
       "quaternion8"])


def test_catalog_tables_are_pinned():
    # every field a catalog table group carries: tables, names, labels,
    # presentations, generator maps, elements, words and the greedy
    # generating sequence
    h = hashlib.sha256()
    for name in TABLE_CATALOG:
        g = gr.catalog(name)
        pres = g.known_presentation
        h.update(g.mul.astype("<i8").tobytes()
                 + g.inv.astype("<i8").tobytes())
        h.update(repr((name, g.element_names, g.label, pres.generator_count,
                       pres.relators, pres.label, g.generator_map,
                       g.elements, g.element_words, g._gens)).encode())
    assert h.hexdigest() == ("50e228508022188ef83b7b7478c2deb4"
                             "a318959a28198c73f51a35aa6536184a")


def test_grouphom_validation():
    pres = example_presentation()
    z2 = gr.catalog("cyclic(2)")
    gr.GroupHom(pres, z2, (0, 1))
    z4 = gr.catalog("cyclic(4)")
    with pytest.raises(NotHomomorphism):
        # a -> x breaks a^2 b = b a^2 ... it does not; use a relator
        # violation instead: x^2 != e in Z/4 for the presentation <x|x^2>
        gr.GroupHom(gr.Presentation(1, ((1, 1),)), z4, (1,))
    # finite source: element images must be multiplicative
    with pytest.raises(NotHomomorphism):
        gr.GroupHom(z2, z4, (0, 1))
    gr.GroupHom(z2, z4, (0, 2))


def test_catalog_cyclic():
    g = gr.catalog("cyclic(4)")
    assert g.order == 4
    assert g.known_presentation.relators == ((1, 1, 1, 1),)


def test_catalog_quaternion():
    q8 = gr.catalog("quaternion8")
    assert q8.order == 8
    assert any(q8.mul_idx(a, b) != q8.mul_idx(b, a)
               for a in range(8) for b in range(8))
    assert sum(1 for a in range(8) if q8.order_of(a) == 2) == 1


def test_catalog_u3_is_dihedral8():
    assert gr.are_isomorphic(gr.catalog("u3(2)"), gr.catalog("dihedral(8)"))
    assert not gr.are_isomorphic(gr.catalog("u3(2)"),
                                 gr.catalog("quaternion8"))


def test_catalog_unknown():
    with pytest.raises(UnknownName):
        gr.catalog("sporadic(1)")
    with pytest.raises(UnknownName):
        gr.catalog("dihedral(7)")


def test_catalog_generators_generate():
    for name in ("cyclic(8)", "product(2,4)", "dihedral(8)", "quaternion8",
                 "u3(2)", "elementary(2,3)"):
        g = gr.catalog(name)
        reached = gr._generated_members(g, g.generator_map)
        assert len(reached) == g.order


def test_catalog_presentations_hold_in_group():
    for name in ("cyclic(8)", "product(2,4)", "dihedral(16)", "quaternion8",
                 "u3(2)", "u3(3)", "u4(2)", "elementary(2,4)", "dihedral(6)"):
        g = gr.catalog(name)
        pres = g.known_presentation
        for r in pres.relators:
            assert gr.evaluate_word(r, g.generator_map, g) == g.identity


def test_catalog_presentations_present_max_p_quotient():
    cases = [("cyclic(8)", 2, 3), ("cyclic(16)", 2, 4), ("product(2,4)", 2, 3),
             ("product(4,4)", 2, 4), ("elementary(2,3)", 2, 3),
             ("elementary(2,4)", 2, 4), ("dihedral(8)", 2, 3),
             ("dihedral(16)", 2, 4), ("quaternion8", 2, 3),
             ("u3(2)", 2, 3), ("u3(3)", 3, 3), ("u4(2)", 2, 6)]
    for name, p, e in cases:
        g = gr.catalog(name)
        assert g.order == p ** e
        assert certify_max_p_quotient(g.known_presentation, p, e), name


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

def test_kernel_of_character_cyclic4():
    g = gr.catalog("cyclic(4)")
    h = gr.kernel_of_character(g, [0, 1, 0, 1], modulus=2)
    assert h.member_indices == (0, 2)
    assert h.index == 2
    assert h.transversal[0] == g.identity


def test_kernel_of_character_product():
    g = gr.catalog("product(2,2)")
    # first projection: elements (0,0),(0,1),(1,0),(1,1)
    h = gr.kernel_of_character(g, [0, 0, 1, 1], modulus=2)
    assert [g.elements[i] for i in h.member_indices] == [(0, 0), (0, 1)]


def test_kernel_of_character_u3():
    g = gr.catalog("u3(2)")
    vals = [m.entry(2, 3) for m in g.elements]
    h = gr.kernel_of_character(g, vals, modulus=2)
    assert h.order == 4
    sh = ut.UniShape(3, 2)
    members = {g.elements[i].entries for i in h.member_indices}
    assert ut.sigma(sh, 1).entries in members
    assert ut.from_entries(sh, {(1, 3): 1}).entries in members


def test_kernel_errors():
    g = gr.catalog("cyclic(4)")
    with pytest.raises(NotSurjective):
        gr.kernel_of_character(g, [0, 0, 0, 0], modulus=2)
    with pytest.raises(NotHomomorphism):
        gr.kernel_of_character(g, [0, 1, 1, 0], modulus=2)


def test_kernel_checks_the_law_on_every_pair():
    # additivity is tested on G x S and at e; on cyclic(1), where S is
    # empty, only the second sees the nonzero value at e
    with pytest.raises(NotHomomorphism):
        gr.kernel_of_character(gr.catalog("cyclic(1)"), [1], modulus=2)
    # every 0/1 list on dihedral(8) against the law on the full table
    g = gr.catalog("dihedral(8)")
    refused = 0
    for vals in itertools.product(range(2), repeat=g.order):
        v = np.array(vals)
        if not np.array_equal(v[g.mul], (v[:, None] + v[None, :]) % 2):
            refused += 1
            with pytest.raises(NotHomomorphism):
                gr.kernel_of_character(g, vals, modulus=2)
        elif v.any():
            assert gr.kernel_of_character(g, vals, modulus=2).index == 2
    assert refused == 2 ** 8 - 4


def test_kernel_transversal_covers():
    for name, chi in [("cyclic(4)", [0, 1, 0, 1]),
                      ("dihedral(8)", None), ("u3(3)", None)]:
        g = gr.catalog(name)
        if chi is None:
            p = 3 if name == "u3(3)" else 2
            if name == "u3(3)":
                chi = [m.entry(1, 2) for m in g.elements]
            else:
                h0 = None
                chi = [0] * g.order
                # reflection-detecting character of the dihedral group
                for i in range(g.order):
                    chi[i] = 1 if g.element_names[i].startswith("s") else 0
        else:
            p = 2
        h = gr.kernel_of_character(g, chi, modulus=p)
        assert h.order * p == g.order
        seen = set()
        for r in h.transversal:
            for m in h.member_indices:
                seen.add(g.mul_idx(r, m))
        assert len(seen) == g.order


def test_enumerate_subgroups_counts():
    assert len(gr.enumerate_subgroups(gr.catalog("cyclic(4)"))) == 3
    assert len(gr.enumerate_subgroups(gr.catalog("product(2,2)"))) == 5
    assert len(gr.enumerate_subgroups(gr.catalog("quaternion8"))) == 6
    assert len(gr.enumerate_subgroups(gr.catalog("elementary(2,5)"))) == 374


def test_enumerate_subgroups_elementary16():
    # (Z/2)^4: Gaussian binomial count 1+15+35+15+1
    subs = gr.enumerate_subgroups(gr.catalog("elementary(2,4)"))
    assert len(subs) == 67


TRAVERSAL_GROUPS = (
    "cyclic(1)", "cyclic(2)", "cyclic(3)", "cyclic(4)", "cyclic(8)",
    "cyclic(9)", "cyclic(16)", "product(2,2)", "product(2,4)",
    "product(3,3)", "product(2,8)", "product(4,4)", "product(3,6)",
    "product(4,8)", "elementary(2,3)", "elementary(2,4)", "elementary(2,5)",
    "elementary(3,3)", "dihedral(6)", "dihedral(8)", "dihedral(12)",
    "dihedral(16)", "dihedral(32)", "quaternion8", "u3(2)", "u3(3)")


def test_cayley_graph_traversals_are_pinned():
    # every output that walks a table group's Cayley graph, on the
    # catalog groups of order <= 32: the greedy generating sequence, the
    # subgroups with their transversals, the 2-cocycle bases at p = 2 and
    # 3, and the Reidemeister-Schreier rewriting of every surjection of
    # the shipped presentation onto Z/2 and Z/3
    h = hashlib.sha256()
    quotients = (gr.catalog("cyclic(2)"), gr.catalog("cyclic(3)"))
    for name in TRAVERSAL_GROUPS:
        g = gr.catalog(name)
        h.update(repr((name, gr._generating_sequence(g))).encode())
        for s in gr.enumerate_subgroups(g):
            h.update(repr((s.member_indices, s.transversal)).encode())
        for p in (2, 3):
            z2 = chm.cochain_complex(g, p).z2
            h.update(repr(z2.shape).encode() + z2.tobytes())
        pres = g.known_presentation
        for q in quotients:
            for images in itertools.product(range(q.order),
                                            repeat=pres.generator_count):
                if not any(images):
                    continue
                try:
                    hom = gr.GroupHom(pres, q, images)
                except NotHomomorphism:
                    continue
                rs = gr.reidemeister_schreier(pres, hom)
                h.update(repr((images, rs.kernel.generator_count,
                               rs.kernel.relators, rs.generator_words,
                               rs.transversal_words)).encode())
    assert h.hexdigest() == ("758babb9cbf3d2bbd7e7318dcca59d73"
                             "5e266aeb8744cfb50405c051c907b2b7")


def test_subgroup_from_members_rejects_non_subgroups():
    z4 = gr.catalog("cyclic(4)")
    with pytest.raises(ValueError, match="contain the identity"):
        gr.subgroup_from_members(z4, [1, 3])
    # {e, x}: x^-1 = x^3 is missing
    with pytest.raises(ValueError, match="not closed under inverse"):
        gr.subgroup_from_members(z4, [0, 1])
    # {e, x, x^3} holds every inverse but not x^2
    with pytest.raises(ValueError, match="not closed under product"):
        gr.subgroup_from_members(z4, [0, 1, 3])
    sub = gr.subgroup_from_members(z4, [2, 0])
    assert sub.member_indices == (0, 2)
    assert sub.transversal == (0, 1)
    # every sub-table against the entry-by-entry one
    g = gr.catalog("dihedral(12)")
    for sub in gr.enumerate_subgroups(g):
        members = sub.member_indices
        assert sub.as_group.mul.tolist() == [
            [sub.parent_to_sub[g.mul_idx(a, b)] for b in members]
            for a in members]


def test_subgroup_normality():
    q8 = gr.catalog("quaternion8")
    assert all(s.is_normal() for s in gr.enumerate_subgroups(q8))
    d8 = gr.catalog("dihedral(8)")
    assert not all(s.is_normal() for s in gr.enumerate_subgroups(d8))


# ---------------------------------------------------------------------------
# abelianization and character lifting
# ---------------------------------------------------------------------------

def test_abelianization_example_group():
    ab = gr.abelianization(example_presentation())
    assert ab.free_rank == 2
    assert ab.torsion == ()


def test_abelianization_cyclic():
    ab = gr.abelianization(gr.Presentation(1, ((1, 1, 1, 1),)))
    assert ab.free_rank == 0
    assert ab.torsion == (4,)


def test_abelianization_free():
    ab = gr.abelianization(gr.Presentation(2, ()))
    assert ab.free_rank == 2
    assert ab.torsion == ()


def test_hom_lift_free_always():
    pres = example_presentation()
    for row in itertools.product(range(2), repeat=2):
        for n in (1, 2, 3, 4):
            lifted = gr.hom_lift_to_Zmod(pres, row, 2, n)
            assert lifted is not None
            assert tuple(v % 2 for v in lifted) == row


def test_hom_lift_zero():
    pres = gr.Presentation(1, ((1, 1),))
    assert gr.hom_lift_to_Zmod(pres, (0,), 2, 3) == (0,)


def test_hom_lift_torsion_obstruction():
    # Z/2 generator cannot lift to Z/4 as a character of Z/2
    pres = gr.Presentation(1, ((1, 1),))
    assert gr.hom_lift_to_Zmod(pres, (1,), 2, 2) is None
    # but a Z/4 presentation lifts its mod-2 reduction to level 2
    pres4 = gr.Presentation(1, ((1, 1, 1, 1),))
    assert gr.hom_lift_to_Zmod(pres4, (1,), 2, 2) is not None
    assert gr.hom_lift_to_Zmod(pres4, (1,), 2, 3) is None


def test_hom_lift_monotone():
    rng = random.Random(1)
    presentations = [example_presentation(),
                     gr.Presentation(1, ((1,) * 8,)),
                     gr.Presentation(2, ((1, 1), (2, 2, 2, 2),
                                         gr.commutator_word((1,), (2,))))]
    for pres in presentations:
        for _ in range(6):
            row = tuple(rng.randrange(2) for _ in range(pres.generator_count))
            try:
                levels = [n for n in (1, 2, 3)
                          if gr.hom_lift_to_Zmod(pres, row, 2, n) is not None]
            except NotHomomorphism:
                continue
            # lifting to level n forces all lower levels
            for n in levels:
                assert all(m in levels for m in range(1, n))


def test_hom_lift_rejects_non_character():
    pres = gr.Presentation(1, ((1, 1, 1),))
    with pytest.raises(NotHomomorphism):
        gr.hom_lift_to_Zmod(pres, (1,), 2, 1)


def _exponent_sums(pres):
    return [[sum((x > 0) - (x < 0) for x in r if abs(x) == k + 1)
             for k in range(pres.generator_count)] for r in pres.relators]


def test_hom_lift_matches_brute_force():
    # every character of seeded presentations against every assignment
    # of generator values mod p^n: into an abelian target a relator
    # dies iff its exponent sums pair to zero with the values
    rng = random.Random(7)
    presentations = [gr.Presentation(0, ())]
    for _ in range(40):
        gens = rng.randint(1, 2)
        letters = [x for k in range(1, gens + 1) for x in (k, -k)]
        rels = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.5:
                rels.append((rng.choice(letters),) * rng.randint(1, 9))
            else:
                rels.append(tuple(rng.choice(letters)
                                  for _ in range(rng.randint(1, 8))))
        presentations.append(gr.Presentation(gens, tuple(rels)))
    for pres in presentations:
        sums = _exponent_sums(pres)
        g = pres.generator_count

        def kills(values, m):
            return all(sum(e * v for e, v in zip(row, values)) % m == 0
                       for row in sums)

        for p in (2, 3):
            for chi in itertools.product(range(p), repeat=g):
                for n in (1, 2, 3):
                    m = p ** n
                    lifts = [vals for vals in itertools.product(range(m),
                                                                repeat=g)
                             if kills(vals, m) and all(
                                 v % p == c for v, c in zip(vals, chi))]
                    if not kills(chi, p):
                        with pytest.raises(NotHomomorphism):
                            gr.hom_lift_to_Zmod(pres, chi, p, n)
                        continue
                    got = gr.hom_lift_to_Zmod(pres, chi, p, n)
                    assert (got is None) == (not lifts), (pres, chi, p, n)
                    if got is not None:
                        assert tuple(got) in lifts, (pres, chi, p, n, got)
    assert gr.hom_lift_to_Zmod(gr.Presentation(0, ()), (), 2, 3) == ()


# ---------------------------------------------------------------------------
# Reidemeister-Schreier
# ---------------------------------------------------------------------------

def test_rs_identity_quotient():
    pres = example_presentation()
    triv = gr.catalog("cyclic(1)")
    rs = gr.reidemeister_schreier(pres, gr.GroupHom(pres, triv, (0, 0)))
    assert rs.kernel.generator_count == 2
    assert rs.generator_words == ((1,), (2,))
    assert rs.kernel.relators == (EXAMPLE_RELATOR,)


def test_rs_example_group_golden():
    pres = example_presentation()
    z2 = gr.catalog("cyclic(2)")
    rs = gr.reidemeister_schreier(pres, gr.GroupHom(pres, z2, (0, 1)))
    # Schreier generators a, b a b^-1, b^2 over the transversal {e, b}
    assert rs.kernel.generator_count == 3
    assert rs.generator_words == ((1,), (2, 1, -2), (2, 2))
    assert rs.kernel.relators == ((1, 1, -2, -2), (2, 2, 3, -1, -1, -3))
    ab = gr.abelianization(rs.kernel)
    assert ab.free_rank == 2
    assert ab.torsion == (2,)


def test_rs_free_group_rank_formula():
    pres = gr.Presentation(2, (), label="free2")
    z2 = gr.catalog("cyclic(2)")
    rs = gr.reidemeister_schreier(pres, gr.GroupHom(pres, z2, (0, 1)))
    assert rs.kernel.generator_count == 3
    assert rs.kernel.relators == ()


def test_rs_not_surjective():
    pres = gr.Presentation(2, ())
    z2 = gr.catalog("cyclic(2)")
    with pytest.raises(NotSurjective):
        gr.reidemeister_schreier(pres, gr.GroupHom(pres, z2, (0, 0)))


def test_rs_rewrite_word():
    pres = example_presentation()
    z2 = gr.catalog("cyclic(2)")
    rs = gr.reidemeister_schreier(pres, gr.GroupHom(pres, z2, (0, 1)))
    assert rs.rewrite_word((1, 2, -1, -2)) == (1, -2)
    with pytest.raises(ValueError):
        rs.rewrite_word((2,))


def test_rs_kernel_relators_die_in_quotients():
    # push every kernel relator through the rewrite into words of the
    # parent, then evaluate under homomorphisms of the parent
    pres = example_presentation()
    z2 = gr.catalog("cyclic(2)")
    rs = gr.reidemeister_schreier(pres, gr.GroupHom(pres, z2, (0, 1)))

    def expand(word):
        out = []
        for x in word:
            piece = rs.generator_words[abs(x) - 1]
            out.extend(piece if x > 0 else gr.inverse_word(piece))
        return tuple(out)

    sh = ut.UniShape(3, 2)
    images = [ut.sigma(sh, 1), ut.sigma(sh, 2)]           # respects a^2b=ba^2
    d16 = gr.catalog("dihedral(16)")
    r, s = d16.generator_map
    # (s, r) respects the relator since s^2 = e is central
    gr.GroupHom(pres, d16, (s, r))
    for rel in rs.kernel.relators:
        word = expand(rel)
        assert gr.evaluate_word(word, images).is_identity()
        assert gr.evaluate_word(word, (s, r), d16) == d16.identity


def test_rs_abelianization_matches_finite_kernel():
    # kernel of u3(2) -> Z/2 along a coordinate character: compare the
    # rewritten presentation's invariants with the concrete subgroup
    g = gr.catalog("u3(2)")
    pres = g.known_presentation
    z2 = gr.catalog("cyclic(2)")
    hom = gr.GroupHom(pres, z2, (0, 1))
    rs = gr.reidemeister_schreier(pres, hom)
    ab = gr.abelianization(rs.kernel)
    vals = [m.entry(2, 3) for m in g.elements]
    sub = gr.kernel_of_character(g, vals, modulus=2).as_group
    # the concrete kernel is Z/2 x Z/2
    assert sorted(sub.element_orders()) == [1, 2, 2, 2]
    invariants = tuple(d for d in ab.torsion) + (0,) * ab.free_rank
    # the presented kernel's maximal 2-elementary quotient has rank 2
    mod2 = [d for d in invariants if d == 0 or d % 2 == 0]
    assert len(mod2) == 2
