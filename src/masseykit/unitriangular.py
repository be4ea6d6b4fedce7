"""Unitriangular matrix groups over prime fields.

U(size, p) is the group of size-by-size upper triangular matrices over
Z/p with ones on the diagonal.  The barred variant drops the top-right
corner entry, i.e. is the quotient by the one-parameter center; the
kernel of the projection is identified with Z/p through the corner
entry.  Elements are stored sparsely as the tuple of strictly-upper
entries in the fixed order (1,2), (1,3), ..., (size-1, size).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetExceeded, InternalInconsistency, ShapeMismatch
from .gf_core import integer_kernel_basis, is_prime, solve_integer
from .groups import closure_group

__all__ = [
    "UniShape",
    "UniMatrix",
    "uni_mul",
    "uni_inv",
    "commutator",
    "identity",
    "sigma",
    "i_plus_n",
    "enumerate_group",
    "centralizer_of",
    "conjugacy_class_of",
    "project_bar",
    "section_lift",
    "extension_cocycle",
    "ResolutionReport",
    "verify_u3_resolution",
]

DEFAULT_ENUM_BUDGET = 2 ** 20


@dataclass(frozen=True)
class UniShape:
    """Shape descriptor: matrix dimension, prime, and barred flag."""

    size: int
    prime: int
    barred: bool = False

    def __post_init__(self):
        if self.size < 3:
            raise ValueError("size must be at least 3")
        if not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")

    @property
    def positions(self) -> tuple[tuple[int, int], ...]:
        return _positions(self.size, self.barred)

    @property
    def corner(self) -> tuple[int, int]:
        return (1, self.size)

    def unbarred(self) -> "UniShape":
        return UniShape(self.size, self.prime, False)

    def barred_shape(self) -> "UniShape":
        return UniShape(self.size, self.prime, True)

    def group_order(self) -> int:
        return self.prime ** len(self.positions)


@lru_cache(maxsize=None)
def _positions(size: int, barred: bool) -> tuple[tuple[int, int], ...]:
    pos = [(i, j) for i in range(1, size) for j in range(i + 1, size + 1)]
    if barred:
        pos.remove((1, size))
    return tuple(pos)


@lru_cache(maxsize=None)
def _position_index(size: int, barred: bool) -> dict:
    return {ij: k for k, ij in enumerate(_positions(size, barred))}


@dataclass(frozen=True)
class UniMatrix:
    """Element of U(size, p) or of its barred quotient."""

    shape: UniShape
    entries: tuple[int, ...]

    def __post_init__(self):
        entries = self.entries
        if len(entries) != len(self.shape.positions):
            raise ShapeMismatch("entry tuple does not match shape positions")
        p = self.shape.prime
        if min(entries) < 0 or max(entries) >= p:
            object.__setattr__(self, "entries", tuple(e % p for e in entries))

    def entry(self, i: int, j: int) -> int:
        """The (i, j) entry, 1-based; diagonal is 1, lower triangle 0."""
        if i == j:
            return 1
        if i > j:
            return 0
        idx = _position_index(self.shape.size, self.shape.barred).get((i, j))
        if idx is None:
            raise ShapeMismatch(f"entry {(i, j)} is not carried by this shape")
        return self.entries[idx]

    def dense(self) -> list[list[int]]:
        """Full matrix as lists; a barred element gets corner 0."""
        s = self.shape.size
        m = [[int(i == j) for j in range(s)] for i in range(s)]
        for (i, j), e in zip(self.shape.positions, self.entries):
            m[i - 1][j - 1] = e
        return m

    def is_identity(self) -> bool:
        return not any(self.entries)

    def __mul__(self, other: "UniMatrix") -> "UniMatrix":
        return uni_mul(self, other)

    def inverse(self) -> "UniMatrix":
        return uni_inv(self)

    def identity_like(self) -> "UniMatrix":
        return identity(self.shape)


def from_dense(shape: UniShape, m) -> UniMatrix:
    return UniMatrix(shape, tuple(m[i - 1][j - 1] % shape.prime
                                  for (i, j) in shape.positions))


def from_entries(shape: UniShape, entries: dict) -> UniMatrix:
    """Build from a {(i, j): value} mapping; missing positions are 0."""
    vals = [entries.get(ij, 0) for ij in shape.positions]
    return UniMatrix(shape, tuple(v % shape.prime for v in vals))


def identity(shape: UniShape) -> UniMatrix:
    return UniMatrix(shape, (0,) * len(shape.positions))


def sigma(shape: UniShape, i: int) -> UniMatrix:
    """Superdiagonal generator with a single 1 in entry (i, i+1)."""
    return from_entries(shape, {(i, i + 1): 1})


def i_plus_n(shape: UniShape) -> UniMatrix:
    """The matrix with every superdiagonal entry equal to 1."""
    return from_entries(shape, {(i, i + 1): 1 for i in range(1, shape.size)})


@lru_cache(maxsize=None)
def _mul_plan(size: int, barred: bool):
    """Per output slot: the index pairs of the strictly-inner products.

    The (i, j) entry of a product is a[i,j] + b[i,j] plus the sum of
    a[i,l] b[l,j] over i < l < j; all those positions exist even in a
    barred shape, so the quotient product needs no corner bookkeeping.
    """
    pidx = _position_index(size, barred)
    plan = []
    for (i, j) in _positions(size, barred):
        plan.append(tuple((pidx[(i, l)], pidx[(l, j)])
                          for l in range(i + 1, j)))
    return tuple(plan)


@lru_cache(maxsize=None)
def _mul_index(size: int, barred: bool):
    """``_mul_plan`` as index arrays for products of packed entry arrays:
    the left and right slot of every inner pair, and a 0/1 matrix that
    sums each pair's product into its output slot."""
    plan = _mul_plan(size, barred)
    pairs = [(k, ka, kb) for k, inner in enumerate(plan)
             for (ka, kb) in inner]
    left = np.array([ka for _, ka, _ in pairs], dtype=np.intp)
    right = np.array([kb for _, _, kb in pairs], dtype=np.intp)
    scatter = np.zeros((len(pairs), len(plan)), dtype=np.int64)
    scatter[np.arange(len(pairs)), [k for k, _, _ in pairs]] = 1
    return left, right, scatter


def _packed_mul(a, b, shape: UniShape):
    """``uni_mul`` over int64 arrays whose last axis holds packed entries."""
    left, right, scatter = _mul_index(shape.size, shape.barred)
    return (a + b + (a[..., left] * b[..., right]) @ scatter) % shape.prime


def _packed_inv(a, shape: UniShape):
    """``uni_inv`` over packed entry arrays, by the iteration of
    ``_inv_entries``."""
    left, right, scatter = _mul_index(shape.size, shape.barred)
    x = np.zeros_like(a)
    for _ in range(shape.size - 1):
        x = -(a + (a[..., left] * x[..., right]) @ scatter) % shape.prime
    return x


def uni_mul(a: UniMatrix, b: UniMatrix) -> UniMatrix:
    """Group product; in a barred shape this is the quotient product."""
    if a.shape != b.shape:
        raise ShapeMismatch("operands have different shapes")
    p = a.shape.prime
    ea, eb = a.entries, b.entries
    plan = _mul_plan(a.shape.size, a.shape.barred)
    out = tuple(
        (ea[k] + eb[k] + sum(ea[ka] * eb[kb] for (ka, kb) in inner)) % p
        for k, inner in enumerate(plan))
    return UniMatrix(a.shape, out)


@lru_cache(maxsize=1 << 16)
def _inv_entries(size: int, prime: int, barred: bool,
                 entries: tuple) -> tuple:
    plan = _mul_plan(size, barred)
    # iterate x <- I - N x with N the strictly-upper part; exact after
    # size - 1 steps by nilpotency
    x = (0,) * len(entries)
    for _ in range(size - 1):
        x = tuple(
            (-(entries[k] + sum(entries[ka] * x[kb] for (ka, kb) in inner)))
            % prime
            for k, inner in enumerate(plan))
    return x


def uni_inv(a: UniMatrix) -> UniMatrix:
    """Inverse via the nilpotent geometric series (I+N)^-1 = sum (-N)^k."""
    sh = a.shape
    return UniMatrix(sh, _inv_entries(sh.size, sh.prime, sh.barred, a.entries))


def commutator(a: UniMatrix, b: UniMatrix) -> UniMatrix:
    if a.shape != b.shape:
        raise ShapeMismatch("operands have different shapes")
    return uni_mul(uni_mul(a, b), uni_mul(uni_inv(a), uni_inv(b)))


def enumerate_group(shape: UniShape,
                    budget: int = DEFAULT_ENUM_BUDGET) -> list[UniMatrix]:
    """All elements in lexicographic order of their entry tuples."""
    order = shape.group_order()
    if order > budget:
        raise BudgetExceeded(
            f"group order {order} exceeds budget {budget}",
            {"order": order})
    return [UniMatrix(shape, entries)
            for entries in itertools.product(range(shape.prime),
                                             repeat=len(shape.positions))]


def centralizer_of(g: UniMatrix,
                   budget: int = DEFAULT_ENUM_BUDGET) -> list[UniMatrix]:
    return [x for x in enumerate_group(g.shape, budget)
            if uni_mul(x, g) == uni_mul(g, x)]


def conjugacy_class_of(g: UniMatrix,
                       budget: int = DEFAULT_ENUM_BUDGET) -> list[UniMatrix]:
    seen = {}
    for x in enumerate_group(g.shape, budget):
        y = uni_mul(uni_mul(x, g), uni_inv(x))
        if y.entries not in seen:
            seen[y.entries] = y
    return [seen[e] for e in sorted(seen)]


def project_bar(g: UniMatrix) -> UniMatrix:
    """Quotient map U -> U-bar dropping the corner entry."""
    if g.shape.barred:
        raise ShapeMismatch("element already lives in the barred quotient")
    tgt = g.shape.barred_shape()
    return from_entries(tgt, {ij: g.entry(*ij) for ij in tgt.positions})


def section_lift(g: UniMatrix) -> UniMatrix:
    """The normalized set-section U-bar -> U with corner entry 0."""
    if not g.shape.barred:
        raise ShapeMismatch("element does not live in the barred quotient")
    tgt = g.shape.unbarred()
    vals = {ij: g.entry(*ij) for ij in g.shape.positions}
    return from_entries(tgt, vals)


def extension_cocycle(gbar: UniMatrix, hbar: UniMatrix) -> int:
    """Corner entry of s(g)s(h)s(gh)^-1 for the normalized section s.

    This normalized 2-cocycle on the barred group represents the class of
    the central extension U -> U-bar.
    """
    if gbar.shape != hbar.shape or not gbar.shape.barred:
        raise ShapeMismatch("arguments must share one barred shape")
    prod = uni_mul(section_lift(gbar), section_lift(hbar))
    lifted = section_lift(uni_mul(gbar, hbar))
    diff = uni_mul(prod, uni_inv(lifted))
    return diff.entry(1, gbar.shape.size)


# ---------------------------------------------------------------------------
# the rank-[2,6,5,1] integral resolution over U3(F2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResolutionReport:
    ranks: tuple[int, ...]
    exact: bool
    squares_commute: bool


class _CosetModule:
    """Free Z-module on the left cosets g*K of a subgroup K of U3."""

    def __init__(self, elements, subgroup_members):
        self.elements = elements
        coset_of = {}
        reps = []
        for g in elements:
            if g.entries in coset_of:
                continue
            idx = len(reps)
            reps.append(g)
            for h in subgroup_members:
                coset_of[uni_mul(g, h).entries] = idx
        self.reps = reps
        self.coset_of = coset_of
        self.rank = len(reps)

    def coset(self, g: UniMatrix) -> int:
        return self.coset_of[g.entries]


class _TrivialModule:
    rank = 1


def _map_matrix(elements, src, dst_blocks, images):
    """Integer matrix of an equivariant map between permutation modules.

    ``images`` gives, per destination block, the formal sum (coeff, w)
    describing where the generator coset of ``src`` goes.  Equivariance
    determines every column; the construction is re-checked on every
    coset representative so a non-well-defined map cannot slip through.
    """
    if isinstance(src, _TrivialModule):
        src_cosets = [[identity(elements[0].shape)]]
    else:
        src_cosets = [[g for g in elements if src.coset(g) == c]
                      for c in range(src.rank)]
    n_rows = sum(b.rank for b in dst_blocks)
    offsets = []
    off = 0
    for b in dst_blocks:
        offsets.append(off)
        off += b.rank
    cols = []
    for members in src_cosets:
        col_candidates = []
        for rep in members:
            col = [0] * n_rows
            for block, offset, summands in zip(dst_blocks, offsets, images):
                for coeff, w in summands:
                    if isinstance(block, _TrivialModule):
                        col[offset] += coeff
                    else:
                        col[offset + block.coset(uni_mul(rep, w))] += coeff
            col_candidates.append(tuple(col))
        if len(set(col_candidates)) != 1:
            raise InternalInconsistency(
                "module map is not constant on a source coset")
        cols.append(list(col_candidates[0]))
    return [[cols[c][r] for c in range(len(cols))] for r in range(n_rows)]


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _is_zero(m):
    return all(all(x == 0 for x in row) for row in m)


def _image_contains_kernel(m_outer, m_inner):
    """ker(m_outer) contained in the integral column span of m_inner."""
    for vec in integer_kernel_basis(m_outer):
        if solve_integer(m_inner, vec) is None:
            return False
    return True


def verify_u3_resolution() -> ResolutionReport:
    """Check the length-four integral resolution of Z over Z[U3(F2)].

    Builds the four permutation modules on cosets of the subgroups
    generated by s2 and t, s2, s1 and t, s1 (t the commutator [s1, s2]),
    the three connecting maps, and the comparison ladder down to the
    resolution induced from the order-2 quotient.  Exactness at every
    spot is decided integrally through Smith normal forms.
    """
    shape = UniShape(3, 2)
    s1, s2 = sigma(shape, 1), sigma(shape, 2)
    t = commutator(s1, s2)
    elements = enumerate_group(shape)

    mod_s2t = _CosetModule(elements, closure_group([s2, t]).elements)
    mod_s2 = _CosetModule(elements, closure_group([s2]).elements)
    mod_s1t = _CosetModule(elements, closure_group([s1, t]).elements)
    mod_s1 = _CosetModule(elements, closure_group([s1]).elements)
    triv = _TrivialModule()
    e = identity(shape)

    m_f = _map_matrix(elements, mod_s2t, [mod_s2, mod_s1t],
                      [[(1, e), (1, t)], [(-1, e), (-1, s2)]])
    # maps out of a direct sum: one matrix per summand, stacked side by side
    m_g_1 = _map_matrix(elements, mod_s2, [mod_s1, triv],
                        [[(1, e), (1, s2)], [(-1, e)]])
    m_g_2 = _map_matrix(elements, mod_s1t, [mod_s1, triv],
                        [[(1, e), (1, t)], [(-1, e)]])
    m_g = [r1 + r2 for r1, r2 in zip(m_g_1, m_g_2)]
    m_k_1 = _map_matrix(elements, mod_s1, [triv], [[(1, e)]])
    m_k_2 = _map_matrix(elements, triv, [triv], [[(2, e)]])
    m_k = [r1 + r2 for r1, r2 in zip(m_k_1, m_k_2)]

    ranks = (mod_s2t.rank, mod_s2.rank + mod_s1t.rank,
             mod_s1.rank + triv.rank, triv.rank)

    exact = (
        not integer_kernel_basis(m_f)              # injective on the left
        and _is_zero(_mat_mul(m_g, m_f))
        and _image_contains_kernel(m_g, m_f)
        and _is_zero(_mat_mul(m_k, m_g))
        and _image_contains_kernel(m_k, m_g)
        and solve_integer(m_k, [1]) is not None    # surjectivity onto Z
    )

    # comparison ladder onto the resolution induced from the s2-quotient
    m_b1 = _map_matrix(elements, mod_s2t, [mod_s2], [[(1, e), (1, t)]])
    m_b2 = _map_matrix(elements, mod_s2, [mod_s2], [[(1, e), (-1, t)]])
    m_b3 = _map_matrix(elements, mod_s2, [mod_s2t], [[(1, e)]])
    m_v1 = [[int(i == j) for j in range(mod_s2t.rank)]
            for i in range(mod_s2t.rank)]
    m_v2_1 = _map_matrix(elements, mod_s2, [mod_s2], [[(1, e)]])
    m_v2_2 = [[0] * mod_s1t.rank for _ in range(mod_s2.rank)]
    m_v2 = [r1 + r2 for r1, r2 in zip(m_v2_1, m_v2_2)]
    m_v3_1 = _map_matrix(elements, mod_s1, [mod_s2], [[(1, e), (1, s1)]])
    m_v3_2 = _map_matrix(elements, triv, [mod_s2],
                         [[(1, e), (1, s1), (1, t), (1, uni_mul(s1, t))]])
    m_v3 = [r1 + r2 for r1, r2 in zip(m_v3_1, m_v3_2)]
    m_v4 = _map_matrix(elements, triv, [mod_s2t], [[(1, e), (1, s1)]])

    def commutes(left, bottom, top, right):
        return _mat_mul(left, top) == _mat_mul(bottom, right)

    squares = (
        commutes(m_v2, m_b1, m_f, m_v1)
        and commutes(m_v3, m_b2, m_g, m_v2)
        and commutes(m_v4, m_b3, m_k, m_v3)
    )

    return ResolutionReport(ranks=ranks, exact=exact, squares_commute=squares)
