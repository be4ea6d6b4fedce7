"""Shared test utilities: independent oracles and certifications."""

from __future__ import annotations

import itertools
import math
import signal
from contextlib import contextmanager
from fractions import Fraction
from typing import Sequence

import numpy as np

from masseykit import cohomology as chm
from masseykit import gf_core as gf
from masseykit import groups as gr
from masseykit import massey as msy
from masseykit import unitriangular as ut
from masseykit.errors import BudgetExceeded
from masseykit.gf_core import smith_normal_form
from masseykit.groups import FiniteGroup, _generating_sequence


@contextmanager
def watchdog(seconds):
    """Fail with TimeoutError after ``seconds`` rather than hang."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def bareiss_det(matrix) -> int:
    """Exact integer determinant, fraction-free; test-side oracle."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    sign = 1
    for k in range(n):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    det = sign
    for k in range(n):
        det *= m[k][k]
    assert det.denominator == 1
    return int(det)


def descend_once(pres: gr.Presentation, p: int):
    """Kernel presentation along some surjective character to Z/p."""
    ab = gr.abelianization(pres)
    n_tor = len(ab.torsion)
    chi = None
    for cand in range(n_tor + ab.free_rank):
        if cand < n_tor and ab.torsion[cand] % p:
            continue
        vals = []
        for (tor, free) in ab.generator_images:
            v = tor[cand] if cand < n_tor else free[cand - n_tor]
            vals.append(v % p)
        if any(vals):
            chi = vals
            break
    if chi is None:
        return None
    zp = gr.catalog(f"cyclic({p})")
    hom = gr.GroupHom(pres, zp, tuple((v * 1) % p for v in chi))
    return gr.reidemeister_schreier(pres, hom).kernel


def certify_max_p_quotient(pres: gr.Presentation, p: int, exponent: int) -> bool:
    """True when the presented group's maximal p-quotient has order
    p^exponent: descend through index-p kernels that many times and check
    the final abelianization admits no Z/p quotient."""
    cur = pres
    for _ in range(exponent):
        nxt = descend_once(cur, p)
        if nxt is None:
            return False
        cur = nxt
    ab = gr.abelianization(cur)
    return ab.free_rank == 0 and all(d % p for d in ab.torsion)


def reference_table_check(mul_table) -> None:
    """Validate a square multiplication table with entries in range the
    brute-force way: a two-sided identity, (ab)c = a(bc) on all order^3
    triples, and unique two-sided inverses, in that order.  Raises
    ValueError with the message ``FiniteGroup`` gives; reference for
    Light's test."""
    mul = np.array(mul_table, dtype=np.int64)
    n = mul.shape[0]
    idx = np.arange(n)
    identity = next((e for e in range(n) if np.array_equal(mul[e], idx)
                     and np.array_equal(mul[:, e], idx)), None)
    if identity is None:
        raise ValueError("table has no two-sided identity")
    if not np.array_equal(mul[mul], mul[:, mul]):
        raise ValueError("table is not associative")
    for a in range(n):
        hits = np.nonzero(mul[a] == identity)[0]
        if hits.size != 1 or mul[hits[0], a] != identity:
            raise ValueError("table has no unique two-sided inverse")


def from_dense(shape: ut.UniShape, m) -> ut.UniMatrix:
    """The unitriangular matrix with the entries of a dense matrix m."""
    return ut.UniMatrix(shape, tuple(m[i - 1][j - 1] % shape.prime
                                     for (i, j) in shape.positions))


def char_rows_for(group: gr.FiniteGroup, chars) -> list[list[int]]:
    """Per-generator value rows of finite-group characters, for lifting."""
    assert group.generator_map is not None
    return [[int(c.values[g]) for g in group.generator_map] for c in chars]


def character_from_function(group: gr.FiniteGroup, fn,
                            modulus: int) -> chm.Character:
    """Character from a function on the raw elements behind the indices."""
    if group.elements is None:
        raise ValueError("group does not carry raw elements")
    return chm.Character(group, modulus, [fn(e) for e in group.elements])


def coordinate_character(group: gr.FiniteGroup, i: int, j: int,
                         p: int) -> chm.Character:
    return character_from_function(group, lambda m: m.entry(i, j), p)


def random_cochain(rng, group, degree, modulus, twist=None):
    shape = (group.order,) * degree
    vals = np.array([rng.randrange(modulus)
                     for _ in range(group.order ** degree)]).reshape(shape)
    return chm.cochain(group, degree, modulus, vals, twist)


# ---------------------------------------------------------------------------
# the dense normalized bar complex: an oracle for the generating-set
# coordinates of the library, built from the definition of the
# differential over every tuple of non-identity elements
# ---------------------------------------------------------------------------

def _nonid(group: gr.FiniteGroup) -> list[int]:
    return [x for x in range(group.order) if x != group.identity]


def dense_d1(group: gr.FiniteGroup, p: int) -> np.ndarray:
    """C^1 -> C^2 on every pair (g, h), row g (|G|-1) + h:
    (df)(g, h) = f(g) + f(h) - f(gh)."""
    nonid = _nonid(group)
    col = {x: k for k, x in enumerate(nonid)}
    mat = np.zeros((len(nonid) ** 2, len(nonid)), dtype=np.int64)
    for row, (g, h) in enumerate(itertools.product(nonid, repeat=2)):
        mat[row, col[g]] += 1
        mat[row, col[h]] += 1
        gh = group.mul_idx(g, h)
        if gh != group.identity:
            mat[row, col[gh]] -= 1
    return mat % p


def row_reduced_d1_solver(group: gr.FiniteGroup, p: int) -> gf.PrimeSolver:
    """The solver of the G x S rows of d1 found by row reducing
    [d1 | I], independently of the Cayley-tree walk that
    ``cochain_complex(group, p).d1_solver`` uses."""
    return gf.PrimeSolver(chm._gs_d1(group, _generating_sequence(group)) % p,
                          p)


def dense_d2(group: gr.FiniteGroup, p: int, last=None) -> np.ndarray:
    """C^2 -> C^3 on every triple (g, h, k), or on those with k in
    ``last``, over the flattened C^2 coordinates:
    (dc)(g, h, k) = c(h, k) - c(gh, k) + c(g, hk) - c(g, h)."""
    nonid = _nonid(group)
    col = {x: k for k, x in enumerate(nonid)}
    ne = len(nonid)

    def pair(x, y):
        if group.identity in (x, y):
            return None
        return col[x] * ne + col[y]

    triples = [(g, h, k) for g in nonid for h in nonid
               for k in (nonid if last is None else last)]
    mat = np.zeros((len(triples), ne * ne), dtype=np.int64)
    for row, (g, h, k) in enumerate(triples):
        for sign, x, y in ((1, h, k), (-1, group.mul_idx(g, h), k),
                           (1, g, group.mul_idx(h, k)), (-1, g, h)):
            c = pair(x, y)
            if c is not None:
                mat[row, c] += sign
    return mat % p


def dense_validate_defining_system(ds: msy.DefiningSystem, chars) -> bool:
    """Both defining-system conditions from the definition, on the full
    bar complex: every superdiagonal entry is a cocycle equal to its
    character, and d(a[i][j]) = -sum_l a[i][l] cup a[l][j] as full
    2-cochains; the reference for ``validate_defining_system``."""
    n = ds.n
    if len(chars) != n:
        return False
    want = {(i, j) for i in range(1, n + 2) for j in range(i + 1, n + 2)
            if (i, j) != (1, n + 1)}
    if set(ds.entries) != want:
        return False
    for i in range(1, n + 1):
        a = ds.entry(i, i + 1)
        if not chm.coboundary(a).is_zero() or a != chars[i - 1]:
            return False
    for (i, j) in want:
        if j - i < 2:
            continue
        rhs = chm.zero_cochain(ds.group, 2, ds.prime)
        for l in range(i + 1, j):
            rhs = rhs + chm.cup(ds.entry(i, l), ds.entry(l, j))
        if chm.coboundary(ds.entry(i, j)) != rhs.scale(-1):
            return False
    return True


def layered_search(group: gr.FiniteGroup, chars, solver=None,
                   budget: int = 2 ** 20) -> msy.MasseyReport:
    """Plain exhaustive layer-by-layer sweep; the oracle for
    ``massey_status_finite``, any n >= 2.

    Enumerates every defining system outright, depth first over the inner
    positions offset by offset (each entry over its full particular +
    character coset), and tests every value with a solver of the dense d1
    (built here unless one is passed), so it shares neither the
    generating-set coordinates nor the cokernel test of the library.
    """
    p = chars[0].modulus
    n = len(chars)
    solver = solver or gf.PrimeSolver(dense_d1(group, p), p)
    nonid = _nonid(group)
    z1 = solver.kernel_basis()
    combos = [np.array(c, dtype=np.int64)
              for c in itertools.product(range(p), repeat=len(z1))]
    stats = {"method": "layered-exhaustive", "examined": 0}
    superdiagonal = {(i, i + 1): c.values[nonid]
                     for i, c in enumerate(chars, 1)}
    inner = [(i, i + m) for m in range(2, n) for i in range(1, n + 2 - m)]

    def rhs(a, i, j):
        """-sum_l a[i][l] cup a[l][j] on every pair, which d(a[i][j])
        must equal; at (1, n + 1) the value of the system."""
        return -sum(np.multiply.outer(a[(i, l)], a[(l, j)]).ravel()
                    for l in range(i + 1, j)) % p

    def solutions(target):
        f = solver.solve(target)
        if f is None:
            return []
        return [(f + c @ z1) % p for c in combos]

    def witness(a):
        entries = {(i, i + 1): chm.cochain(group, 1, p, chars[i - 1].values)
                   for i in range(1, n + 1)}
        for key, vec in a.items():
            if key[1] - key[0] > 1:
                vals = np.zeros(group.order, dtype=np.int64)
                vals[nonid] = vec
                entries[key] = chm.cochain(group, 1, p, vals)
        ds = msy.DefiningSystem(group, p, n, entries)
        assert dense_validate_defining_system(ds, chars)
        return ds

    def systems():
        """Every defining system: (entries, value) pairs.  The stack holds,
        per inner position set so far, the choices left for it."""
        stack = [iter([superdiagonal])]
        while stack:
            a = next(stack[-1], None)
            if a is None:
                stack.pop()
            elif len(stack) > len(inner):
                yield a, rhs(a, 1, n + 1)
            else:
                key = inner[len(stack) - 1]
                stack.append(iter([{**a, key: x}
                                   for x in solutions(rhs(a, *key))]))

    found_defined = None
    total = 0
    for a, value in systems():
        total += 1
        if total > budget:
            raise BudgetExceeded("layered sweep over budget", stats)
        if found_defined is None:
            found_defined = a
        if solver.solve(value) is not None:
            stats["examined"] = total
            return msy.MasseyReport(msy.MasseyStatus.VANISHES,
                                    witness(a), stats)
    stats["examined"] = total
    if found_defined is None:
        return msy.MasseyReport(msy.MasseyStatus.UNDEFINED, None, stats)
    return msy.MasseyReport(msy.MasseyStatus.DEFINED_NOT_VANISHING,
                            witness(found_defined), stats)


# ---------------------------------------------------------------------------
# formal Hilbert 90: the reference counter of twisted H^1 orders, and the
# orientations the tests sweep
# ---------------------------------------------------------------------------

def h90_orientations(group: gr.FiniteGroup, p: int, modulus: int,
                     limit: int = 3) -> list[tuple[int, ...]]:
    """The trivial orientation mod ``modulus`` (a power of p), then
    u^chi for the first ``limit`` nonzero characters chi of G to Z/q and
    each unit u of order q: q = p with u = 1 + modulus/p, and q = 2 with
    u = -1.  All are multiplicative, so ``Orientation`` accepts them."""
    out = [(1,) * group.order]
    twists = [(p, 1 + modulus // p)] if modulus > p else []
    if modulus > 2:
        twists.append((2, modulus - 1))
    for q, u in twists:
        chars = [c for c in chm.characters_of(group, q) if c.values.any()]
        for chi in chars[:limit]:
            units = tuple(pow(u, int(v), modulus) for v in chi.values)
            if units not in out:
                out.append(units)
    return out


class _CrossedHomCounter:
    """Counts of twisted H^1 data of one subgroup at prime-power levels.

    Crossed homomorphisms are cut out by integer congruences on the
    values over non-identity elements; all group orders come from Smith
    normal forms, so no enumeration of cochains happens.
    """

    def __init__(self, sub: FiniteGroup, theta_units: Sequence[int], p: int):
        self.sub = sub
        self.p = p
        self.theta = [int(t) for t in theta_units]
        self.ne = sub.order - 1
        self.nonid = [i for i in range(sub.order) if i != sub.identity]
        self.col = {e: k for k, e in enumerate(self.nonid)}
        gens = _generating_sequence(sub)
        rows = []
        for s in gens:
            for x in range(sub.order):
                row = [0] * self.ne
                prod = sub.mul_idx(s, x)
                if prod != sub.identity:
                    row[self.col[prod]] += 1
                if s != sub.identity:
                    row[self.col[s]] -= 1
                if x != sub.identity:
                    row[self.col[x]] -= self.theta[s]
                if any(row):
                    rows.append(row)
        self.rows = rows

    @staticmethod
    def _count(rows, m: int, cols: int) -> int:
        """Number of solutions of rows . x = 0 (mod m) in (Z/m)^cols."""
        if not rows or cols == 0:
            return m ** cols
        snf = smith_normal_form(rows)
        total = 1
        for j in range(cols):
            d = snf.diag[j] if j < snf.rank else 0
            total *= math.gcd(d, m) if d else m
        return total

    def _scaled_rows(self, n: int):
        # crossed-hom conditions use theta mod p^n
        m = self.p ** n
        return [[x % m for x in row] for row in self.rows], m

    def coboundary_vector(self, n: int) -> list[int]:
        m = self.p ** n
        return [(self.theta[e] - 1) % m for e in self.nonid]

    def z1_order(self, n: int) -> int:
        rows, m = self._scaled_rows(n)
        return self._count(rows, m, self.ne)

    def b1_order(self, n: int) -> int:
        # order of the cyclic group of principal crossed homs a -> a*(theta-1)
        m = self.p ** n
        v = self.coboundary_vector(n)
        if self.ne == 0:
            return 1
        c = 0
        for x in v:
            c = math.gcd(c, x)
        c = math.gcd(c, m)
        return m // c if c else 1

    def h1_order(self, n: int) -> int:
        return self.z1_order(n) // self.b1_order(n)

    def image_order(self, n: int, t: int) -> int:
        """Order of the image of H^1(mod p^n) -> H^1(mod p^t), t < n."""
        m = self.p ** n
        scale = self.p ** (n - t)
        rows_n, _ = self._scaled_rows(n)
        v_t = self.coboundary_vector(t)
        # pairs (x, a) with x crossed mod p^n and x = a v_t mod p^t
        pair_rows = [row + [0] for row in rows_n]
        for k in range(self.ne):
            row = [0] * (self.ne + 1)
            row[k] = scale
            row[self.ne] = (-scale * v_t[k]) % m
            pair_rows.append(row)
        n_pairs = self._count(pair_rows, m, self.ne + 1)
        mult_rows = [[(scale * x) % m] for x in v_t]
        t_mult = self._count(mult_rows, m, 1)
        n_kernel_cocycles = n_pairs // t_mult
        ker = n_kernel_cocycles // self.b1_order(n)
        return self.h1_order(n) // ker

    def reduction_surjective(self, n: int, t: int) -> bool:
        if n == t:
            return True
        return self.image_order(n, t) == self.h1_order(t)
