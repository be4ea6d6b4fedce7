"""Normalized cochain complexes for finite groups with Z/p^k coefficients.

Conventions, fixed once here and relied on everywhere downstream:

* Cochains are non-homogeneous and normalized: a degree-d cochain is a
  function on d-tuples of group elements vanishing whenever some entry is
  the identity.  Values live in Z/p^k, optionally twisted by an
  orientation (a homomorphism to the units of Z/p^k) acting on the
  leading slot of the differential.
* The differential of a degree-d cochain f is
      (df)(g_1,...,g_{d+1}) = theta(g_1) f(g_2,...,g_{d+1})
          + sum_i (-1)^i f(..., g_i g_{i+1}, ...)
          + (-1)^{d+1} f(g_1,...,g_d).
* The cup product of untwisted cochains is
      (a cup b)(g_1,...,g_{i+j}) = a(g_1,...,g_i) * b(g_{i+1},...,g_{i+j}).
* Degree-1 transfer along a finite-index subgroup H with left transversal
  r_0=e, r_1, ... sends psi to g -> sum_i psi(r_{j(i)}^-1 g r_i) where
  g r_i lies in r_{j(i)} H; in degree 0 the same construction is the norm
  sum_i theta(r_i) a.

With trivial coefficients every normalized 1-cocycle is a homomorphism,
so degree-1 classes have canonical representatives; all indeterminacy
bookkeeping for Massey products exploits this.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BudgetExceeded,
    DegreeTooHigh,
    InternalInconsistency,
    NonPrimeModulus,
    NotACocycle,
    NotNormal,
    NotSurjective,
)
from .gf_core import (
    PrimeSolver,
    is_prime,
    nullspace_array,
    rref_array,
    smith_normal_form,
    solve_array,
)
from .groups import (
    FiniteGroup,
    SubgroupData,
    _cayley_tree,
    _generating_sequence,
    enumerate_subgroups,
    kernel_of_character,
)

__all__ = [
    "Orientation",
    "Cochain",
    "CohomClass",
    "Character",
    "zero_cochain",
    "cochain",
    "character",
    "character_from_function",
    "coboundary",
    "cup",
    "is_coboundary",
    "class_equal",
    "h_basis",
    "characters_of",
    "bockstein",
    "restriction",
    "corestriction_deg0",
    "corestriction_deg1",
    "conjugate_character",
    "norm_operators",
    "FourTermReport",
    "four_term_exactness",
    "ReductionReport",
    "formal_h90_check",
    "cochain_complex",
]

H2_ORDER_LIMIT = 32


# ---------------------------------------------------------------------------
# coefficient twists
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Orientation:
    """Multiplicative unit character into (Z/p^k)^* twisting coefficients."""

    group: FiniteGroup
    modulus: int
    unit_values: tuple[int, ...]

    def __post_init__(self):
        m = self.modulus
        if m > 2 ** 63:
            # the units enter the int64 matrix of ``_gs_d1``
            raise ValueError(f"orientation modulus {m} is above 2^63")
        vals = tuple(int(v) % m for v in self.unit_values)
        object.__setattr__(self, "unit_values", vals)
        g = self.group
        if len(vals) != g.order:
            raise ValueError("one unit per element required")
        if any(math.gcd(v, m) != 1 for v in vals):
            raise ValueError("orientation values must be units")
        # theta(xs) = theta(x) theta(s) on G x S, S a generating set, gives
        # the law on all of G x G by induction on word length, as in fact
        # (a) of ``_Complex``; Python integers keep it exact at any modulus
        gens = _generating_sequence(g)
        if vals[g.identity] != 1 or any(
                vals[xs] != vals[x] * vals[s] % m
                for x, row in enumerate(g.mul[:, gens].tolist())
                for s, xs in zip(gens, row)):
            raise ValueError("orientation is not multiplicative")

    def restrict(self, h: SubgroupData) -> "Orientation":
        return Orientation(h.as_group, self.modulus,
                           tuple(self.unit_values[m] for m in h.member_indices))


# ---------------------------------------------------------------------------
# cochains
# ---------------------------------------------------------------------------

class Cochain:
    """Normalized non-homogeneous cochain of degree 0..3."""

    __slots__ = ("group", "degree", "modulus", "values", "twist")

    def __init__(self, group: FiniteGroup, degree: int, modulus: int,
                 values, twist: Optional[Orientation] = None):
        if not 0 <= degree <= 3:
            raise DegreeTooHigh("cochain degrees 0..3 only")
        vals = np.array(values, dtype=np.int64) % modulus
        if vals.shape != (group.order,) * degree:
            raise ValueError("value array shape does not match the degree")
        if degree and group.order:
            for axis in range(degree):
                sl = [slice(None)] * degree
                sl[axis] = group.identity
                vals[tuple(sl)] = 0
        vals.setflags(write=False)
        if twist is not None and (twist.group is not group
                                  or twist.modulus != modulus):
            raise ValueError("twist does not match group/modulus")
        self.group = group
        self.degree = degree
        self.modulus = modulus
        self.values = vals
        self.twist = twist

    def __eq__(self, other):
        return (isinstance(other, Cochain) and self.group is other.group
                and self.degree == other.degree
                and self.modulus == other.modulus
                and np.array_equal(self.values, other.values))

    def __repr__(self):
        return (f"Cochain(deg={self.degree}, mod={self.modulus}, "
                f"group={self.group.label})")

    def is_zero(self) -> bool:
        return not self.values.any()

    def __add__(self, other: "Cochain") -> "Cochain":
        self._compat(other)
        return Cochain(self.group, self.degree, self.modulus,
                       (self.values + other.values) % self.modulus, self.twist)

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._compat(other)
        return Cochain(self.group, self.degree, self.modulus,
                       (self.values - other.values) % self.modulus, self.twist)

    def scale(self, c: int) -> "Cochain":
        return Cochain(self.group, self.degree, self.modulus,
                       (self.values * int(c)) % self.modulus, self.twist)

    def _compat(self, other: "Cochain"):
        if (self.group is not other.group or self.degree != other.degree
                or self.modulus != other.modulus):
            raise ValueError("cochains are not compatible")


def zero_cochain(group: FiniteGroup, degree: int, modulus: int,
                 twist: Optional[Orientation] = None) -> Cochain:
    return Cochain(group, degree, modulus,
                   np.zeros((group.order,) * degree, dtype=np.int64), twist)


def cochain(group: FiniteGroup, degree: int, modulus: int, values,
            twist: Optional[Orientation] = None) -> Cochain:
    return Cochain(group, degree, modulus, values, twist)


@dataclass(frozen=True)
class CohomClass:
    """Cohomology class held by a cocycle representative."""

    representative: Cochain

    def __post_init__(self):
        rep = self.representative
        if rep.degree <= 2 and not coboundary(rep).is_zero():
            raise NotACocycle("representative has nonzero coboundary")

    @property
    def degree(self) -> int:
        return self.representative.degree

    @property
    def group(self) -> FiniteGroup:
        return self.representative.group

    @property
    def modulus(self) -> int:
        return self.representative.modulus

    def is_zero_class(self) -> bool:
        return is_coboundary(self.representative) is not None


class Character(Cochain):
    """Degree-1 special case: a (crossed) homomorphism to Z/m.

    With a twist theta the defining law is chi(gh) = chi(g) +
    theta(g) chi(h); trivial twist is plain additivity.
    """

    def __init__(self, group: FiniteGroup, modulus: int, values,
                 twist: Optional[Orientation] = None):
        super().__init__(group, 1, modulus, values, twist)
        v = self.values
        if twist is None:
            expect = (v[:, None] + v[None, :]) % modulus
        else:
            th = np.array(twist.unit_values, dtype=np.int64)
            expect = (v[:, None] + th[:, None] * v[None, :]) % modulus
        if not np.array_equal(v[group.mul], expect):
            raise ValueError("values do not satisfy the (crossed) "
                             "homomorphism law")

    def __call__(self, g: int) -> int:
        return int(self.values[g])

    def is_surjective_mod_p(self) -> bool:
        return bool(self.values.any())


def character(group: FiniteGroup, values, modulus: int,
              twist: Optional[Orientation] = None) -> Character:
    return Character(group, modulus, values, twist)


def character_from_function(group: FiniteGroup, fn, modulus: int) -> Character:
    """Character from a function on the raw elements behind the indices."""
    if group.elements is None:
        raise ValueError("group does not carry raw elements")
    return Character(group, modulus, [fn(e) for e in group.elements])


# ---------------------------------------------------------------------------
# differential and cup product
# ---------------------------------------------------------------------------

def coboundary(c: Cochain) -> Cochain:
    """The differential; raises DegreeTooHigh above degree 2."""
    if c.degree > 2:
        raise DegreeTooHigh("coboundary supports degrees 0..2")
    g = c.group
    mul = g.mul
    m = c.modulus
    if c.twist is None:
        theta = np.ones(g.order, dtype=np.int64)
    else:
        theta = np.array(c.twist.unit_values, dtype=np.int64)
    v = c.values
    if c.degree == 0:
        out = (theta * v - v) % m
    elif c.degree == 1:
        out = (theta[:, None] * v[None, :] - v[mul] + v[:, None]) % m
    else:
        out = (theta[:, None, None] * v[None, :, :]
               - v[mul]                       # f(g h, k)
               + v[:, mul]                    # f(g, h k)
               - v[:, :, None]) % m
    return Cochain(g, c.degree + 1, m, out, c.twist)


def cup(a: Cochain, b: Cochain) -> Cochain:
    """Cup product of untwisted cochains of total degree at most 3."""
    if a.group is not b.group or a.modulus != b.modulus:
        raise ValueError("cochains are not compatible")
    if a.twist is not None or b.twist is not None:
        raise ValueError("twisted cup products are not supported")
    if a.degree + b.degree > 3:
        raise DegreeTooHigh("cup supports total degree at most 3")
    vals = np.multiply.outer(a.values, b.values) % a.modulus
    return Cochain(a.group, a.degree + b.degree, a.modulus, vals)


# ---------------------------------------------------------------------------
# the cached complex of one group mod p
# ---------------------------------------------------------------------------

def _gs_d1(group: FiniteGroup, gens, theta=None) -> np.ndarray:
    """Integer matrix of C^1 -> C^2 on the rows (g, s), g non-identity and
    s in ``gens``, at row g |S| + s, over the non-identity elements:
    (df)(g, s) = f(g) + theta(g) f(s) - f(gs), theta one integer unit per
    element (1 when not given).  For a multiplicative theta, a normalized
    1-cochain is a crossed homomorphism iff it vanishes on these rows, by
    induction on word length as in fact (a) of ``_Complex``."""
    n = group.order
    nonid = np.array([i for i in range(n) if i != group.identity],
                     dtype=np.int64)
    col = np.full(n, -1, dtype=np.int64)
    col[nonid] = np.arange(n - 1)
    gens = np.asarray(gens, dtype=np.int64)
    ns = len(gens)
    twist = np.ones(n, dtype=np.int64) if theta is None \
        else np.asarray(theta, dtype=np.int64)
    rows = np.arange((n - 1) * ns)
    mat = np.zeros((len(rows), n - 1), dtype=np.int64)
    np.add.at(mat, (rows, rows // ns), 1)
    np.add.at(mat, (rows, np.tile(col[gens], n - 1)),
              np.repeat(twist[nonid], ns))
    prods = col[group.mul[np.ix_(nonid, gens)]].ravel()
    keep = prods >= 0
    np.add.at(mat, (rows[keep], prods[keep]), -1)
    return mat


class _Complex:
    """Coboundary matrices and solvers of one finite group mod p, in
    generating-set coordinates.

    Cochains are coordinatized over tuples of non-identity elements (the
    normalized ones), in the element order of the group with the
    identity removed; ``flatten`` and ``unflatten`` use these
    coordinates.  The matrices and solvers on C^2, though, keep only the
    rows (g, s), g non-identity and s in a generating set S read off the
    table (``groups._generating_sequence``), at row g |S| + s;
    ``gs_entries`` picks them out of a flattened 2-cochain and ``cup_gs``
    computes them for a cup of two 1-cochains.  Nothing a
    cocycle needs is lost (Brown, Cohomology of Groups, for the bar
    complex; Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, ch. 7, for cohomology through generators):

    (a) from d(dc) = 0, dc(g, h, ks) = dc(h, k, s) - dc(gh, k, s)
        + dc(g, hk, s) + dc(g, h, k), so by induction on word length a
        normalized 2-cochain c is a cocycle iff dc(g, h, s) = 0 for every
        s in S;
    (b) a cocycle e vanishing on G x S has e(g, hs) = e(g, h) + e(gh, s)
        - e(h, s) = e(g, h), so e = 0.

    By (b), a linear relation among cocycles holds iff it holds on their
    G x S entries, so pivots, kernels and free-variables-zero solutions
    on these rows equal those of the full bar complex.  Every 2-cochain
    handed to ``d1_solver`` or ``cokernel_coords`` must therefore be a
    cocycle; ``h2_coordinates`` checks this by (a).  The cokernel
    coordinates then answer every question about degree-2 classes: a
    cocycle is a coboundary iff its coordinates vanish, and it lies in
    span(X) + B^2 iff its coordinates lie in the span of X's.
    """

    def __init__(self, group: FiniteGroup, p: int):
        if not is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        # the group caches its complexes; a strong reference back would
        # form a cycle that keeps a dropped group's matrices alive until
        # the cyclic garbage collector happens to run
        self._group = weakref.ref(group)
        self.p = p
        n = group.order
        self.nonid = np.array([i for i in range(n) if i != group.identity],
                              dtype=np.int64)
        self.ne = n - 1
        col = np.full(n, -1, dtype=np.int64)
        col[self.nonid] = np.arange(self.ne)
        self.col_of = col
        self.gens = np.array(_generating_sequence(group), dtype=np.int64)
        self.gens_col = col[self.gens]
        self._d1 = None
        self._d1_solver = None
        self._z1 = None
        self._z2 = None
        self._h2 = None
        self._h2_coords = None

    @property
    def group(self) -> FiniteGroup:
        return self._group()

    # -- flattening ---------------------------------------------------------

    def flatten(self, c: Cochain) -> np.ndarray:
        idx = np.ix_(*([self.nonid] * c.degree))
        return c.values[idx].ravel().copy()

    def unflatten(self, vec, degree: int) -> Cochain:
        vals = np.zeros((self.group.order,) * degree, dtype=np.int64)
        idx = np.ix_(*([self.nonid] * degree))
        vals[idx] = np.asarray(vec).reshape((self.ne,) * degree)
        return Cochain(self.group, degree, self.p, vals)

    def gs_entries(self, flat) -> np.ndarray:
        """The G x S entries of a flattened 2-cochain, or of each row of a
        matrix of them."""
        flat = np.asarray(flat)
        lead = flat.shape[:-1]
        square = flat.reshape(lead + (self.ne, self.ne))
        return square[..., self.gens_col].reshape(
            lead + (self.ne * len(self.gens),))

    def char_vec(self, c: Cochain) -> np.ndarray:
        return c.values[self.nonid].copy()

    def cup_gs(self, u, w) -> np.ndarray:
        """The G x S entries u(g) w(s) of u cup w, for 1-cochains given
        on the non-identity elements; leading axes broadcast."""
        cups = u[..., None] * w.take(self.gens_col, axis=-1)[..., None, :]
        return cups.reshape(cups.shape[:-2] + (self.ne * len(self.gens),)
                            ) % self.p

    # -- degree 1 -----------------------------------------------------------

    @property
    def d1(self) -> np.ndarray:
        """Matrix of C^1 -> C^2 on the G x S rows:
        (df)(g, s) = f(g) + f(s) - f(gs)."""
        if self._d1 is None:
            self._d1 = _gs_d1(self.group, self.gens) % self.p
        return self._d1

    @property
    def d1_solver(self) -> PrimeSolver:
        if self._d1_solver is None:
            self._d1_solver = PrimeSolver(self.d1, self.p)
        return self._d1_solver

    def cokernel_coords(self, x) -> np.ndarray:
        """Coordinates in C^2 / im(d1) of the G x S entries of a 2-cocycle,
        or of each column of a matrix of them: the rows of the d1
        solver's transform past its rank, which annihilate im(d1)."""
        solver = self.d1_solver
        return (solver.transform[solver.rank:] @ np.asarray(x)) % self.p

    @property
    def z1(self) -> np.ndarray:
        """Rows: value vectors (over non-identity elements) of a basis of
        the characters Hom(G, Z/p)."""
        if self._z1 is None:
            self._z1 = self.d1_solver.kernel_basis()
        return self._z1

    # -- degree 2 -----------------------------------------------------------

    def _cocycle_rows(self, c) -> np.ndarray:
        """The G x G x S rows of d2: dc(g, h, s) = c(h, s) - c(gh, s)
        + c(g, hs) - c(g, h) at [g, h, s], for c given on every pair of
        elements as ``c[x, y]`` (zero where x or y is the identity), with
        values or, along trailing axes, linear forms in unknowns."""
        mul = self.group.mul
        gens = self.gens
        g = np.arange(self.group.order)[:, None, None]
        at_s = c[:, gens]
        return (at_s[None] - at_s[mul]
                + c[g, mul[:, gens][None]] - c[:, :, None]) % self.p

    def is_cocycle(self, flat) -> bool:
        """Whether a flattened 2-cochain is a cocycle, by (a): only the
        G x G x S entries of its coboundary are computed."""
        n = self.group.order
        c = np.zeros((n, n), dtype=np.int64)
        c[np.ix_(self.nonid, self.nonid)] = np.asarray(flat).reshape(
            self.ne, self.ne)
        return not self._cocycle_rows(c).any()

    @property
    def z2(self) -> np.ndarray:
        """Rows: a basis of the 2-cocycles, flattened, in the form that
        ``nullspace_array`` gives a kernel (identity on the free columns).

        A cocycle is determined by its G x S values v: walking a BFS tree
        of the Cayley graph (edges x -> xs) from the identity,
        c(g, xs) = c(g, x) + c(gx, s) - c(x, s) gives every c(g, x) as a
        linear function of v.  By (a), the v whose walk is a cocycle are
        the kernel of the G x G x S rows of d2 on those functions.
        """
        if self._z2 is None:
            g = self.group
            if g.order > H2_ORDER_LIMIT:
                raise BudgetExceeded(
                    f"degree-2 cohomology capped at order {H2_ORDER_LIMIT}")
            p, n, ne, ns = self.p, g.order, self.ne, len(self.gens)
            unknowns = ne * ns
            # on_gs[x, k]: c(x, s_k) as a vector over the unknowns
            on_gs = np.zeros((n, ns, unknowns), dtype=np.int64)
            on_gs[self.nonid[:, None], np.arange(ns),
                  np.arange(unknowns).reshape(ne, ns)] = 1
            # walk[h, x]: c(h, x) as a vector over the unknowns
            walk = np.zeros((n, n, unknowns), dtype=np.int64)
            order, parent = _cayley_tree(g, self.gens)
            for y in order[1:]:
                x, k = parent[y]
                walk[:, y] = (walk[:, x] + on_gs[g.mul[:, x], k]
                              - on_gs[x, k]) % p
            rows = self._cocycle_rows(walk).reshape(n * n * ns, unknowns)
            kernel = nullspace_array(rows[rows.any(axis=1)], p)
            cocycles = np.einsum(
                "kj,hxj->khx", kernel,
                walk[np.ix_(self.nonid, self.nonid)]).reshape(
                    len(kernel), ne * ne) % p
            # the canonical basis of a subspace with identity on its free
            # columns is its reduced echelon form taken from the last
            # column backwards
            ech, _, rank = rref_array(cocycles[:, ::-1], p)
            self._z2 = np.ascontiguousarray(ech[:rank][::-1, ::-1])
        return self._z2

    @property
    def h2(self) -> np.ndarray:
        """Rows: flattened 2-cocycles representing a basis of H^2."""
        if self._h2 is None:
            # a z2 row is kept when it leaves the span of the coboundaries
            # and of the rows before it, i.e. when its column is a pivot
            # of the z2 rows' cokernel coordinates
            coords = self.cokernel_coords(self.gs_entries(self.z2).T)
            _, pivots, _ = rref_array(coords, self.p)
            self._h2 = self.z2[pivots]
            self._h2_coords = coords[:, pivots]
        return self._h2

    def h2_coordinates(self, flat: np.ndarray) -> np.ndarray:
        """Coordinates of a flattened 2-cocycle's class over the h2 basis:
        the unique c with sum c_i coords(h2[i]) = coords(flat)."""
        if not self.is_cocycle(flat):
            raise NotACocycle("vector is not a 2-cocycle")
        self.h2  # fills _h2_coords
        sol = solve_array(self._h2_coords,
                          self.cokernel_coords(self.gs_entries(flat)), self.p)
        if sol is None:
            raise InternalInconsistency(
                "a cocycle left the span of the h2 basis and the coboundaries")
        return sol[0]


def cochain_complex(group: FiniteGroup, p: int) -> _Complex:
    """The cached normalized-cochain complex of a group mod p."""
    cache = getattr(group, "_cochain_complexes", None)
    if cache is None:
        cache = {}
        group._cochain_complexes = cache
    if p not in cache:
        cache[p] = _Complex(group, p)
    return cache[p]


# ---------------------------------------------------------------------------
# cocycle decisions and bases
# ---------------------------------------------------------------------------

def is_coboundary(z: Cochain) -> Optional[Cochain]:
    """A primitive f with df = z, or None; degrees 1 and 2 only.  The
    cocycle test reads the rows of the generating-set complex: d1 on
    G x S in degree 1 (dz is a cocycle, zero iff zero there) and the
    G x G x S rows in degree 2."""
    if z.degree not in (1, 2):
        raise DegreeTooHigh("coboundary decisions for degrees 1 and 2 only")
    if z.twist is not None:
        raise ValueError("twisted coboundary decisions are not supported")
    if not is_prime(z.modulus):
        raise NonPrimeModulus("prime modulus required")
    cx = cochain_complex(z.group, z.modulus)
    flat = cx.flatten(z)
    if z.degree == 1:
        if ((cx.d1 @ flat) % cx.p).any():
            raise NotACocycle("input is not a cocycle")
        # primitives are constants; untwisted constants have zero boundary
        return zero_cochain(z.group, 0, z.modulus) if z.is_zero() else None
    if not cx.is_cocycle(flat):
        raise NotACocycle("input is not a cocycle")
    sol = cx.d1_solver.solve(cx.gs_entries(flat))
    return None if sol is None else cx.unflatten(sol, 1)


def class_equal(a: Cochain | CohomClass, b: Cochain | CohomClass) -> bool:
    ra = a.representative if isinstance(a, CohomClass) else a
    rb = b.representative if isinstance(b, CohomClass) else b
    return is_coboundary(ra - rb) is not None


def h_basis(group: FiniteGroup, degree: int, modulus: int) -> list[CohomClass]:
    """Representatives of a basis of H^degree(G, Z/p), degree 1 or 2."""
    if degree not in (1, 2):
        raise ValueError("h_basis supports degrees 1 and 2")
    if not is_prime(modulus):
        raise NonPrimeModulus(f"{modulus} is not prime")
    cx = cochain_complex(group, modulus)
    if degree == 1:
        return [CohomClass(cx.unflatten(row, 1)) for row in cx.z1]
    return [CohomClass(cx.unflatten(row, 2)) for row in cx.h2]


def characters_of(group: FiniteGroup, modulus: int) -> list[Character]:
    """All of Hom(G, Z/p), the zero character first, in the deterministic
    order induced by the coefficient sweep over the canonical basis."""
    cx = cochain_complex(group, modulus)
    z = len(cx.z1)
    coeffs = np.array(list(itertools.product(range(modulus), repeat=z)),
                      dtype=np.int64).reshape(modulus ** z, z)
    vals = np.zeros((len(coeffs), group.order), dtype=np.int64)
    vals[:, cx.nonid] = (coeffs @ cx.z1) % modulus
    return [Character(group, modulus, row) for row in vals]


def bockstein(chi: Character) -> CohomClass:
    """Connecting class of 0 -> Z/p -> Z/p^2 -> Z/p -> 0 on a character.

    Values are lifted by the canonical set section {0..p-1}; the cocycle
    (chi~(g) + chi~(h) - chi~(gh)) / p is exact in integers before the
    final reduction.
    """
    if chi.twist is not None:
        raise ValueError("untwisted characters only")
    p = chi.modulus
    if not is_prime(p):
        raise NonPrimeModulus(f"{p} is not prime")
    v = chi.values
    g = chi.group
    t = v[:, None] + v[None, :] - v[g.mul]
    if np.any(t % p):
        raise NotACocycle("character values are not additive")
    return CohomClass(Cochain(g, 2, p, (t // p) % p))


# ---------------------------------------------------------------------------
# restriction, transfer, conjugation
# ---------------------------------------------------------------------------

def restriction(x: CohomClass | Cochain, h: SubgroupData):
    """Restrict a class or cochain on G to the subgroup's own indexing."""
    c = x.representative if isinstance(x, CohomClass) else x
    members = np.array(h.member_indices, dtype=np.int64)
    if c.degree == 0:
        vals = c.values
    else:
        vals = c.values[np.ix_(*([members] * c.degree))]
    tw = c.twist.restrict(h) if c.twist is not None else None
    out = Cochain(h.as_group, c.degree, c.modulus, vals, tw)
    if isinstance(x, CohomClass):
        return CohomClass(out)
    return out


def corestriction_deg0(value: int, h: SubgroupData,
                       twist: Optional[Orientation] = None,
                       modulus: Optional[int] = None) -> int:
    """Degree-0 transfer: the norm sum over the coset transversal."""
    if twist is not None:
        m = twist.modulus
        return sum(twist.unit_values[r] * value for r in h.transversal) % m
    if modulus is None:
        raise ValueError("modulus required without a twist")
    return (len(h.transversal) * value) % modulus


def corestriction_deg1(psi: Character, h: SubgroupData) -> Character:
    """Degree-1 transfer from the subgroup up to the parent group.

    The result is independent of the transversal; trivial coefficients.
    """
    if psi.twist is not None:
        raise ValueError("trivial coefficients only")
    g = h.parent
    p = psi.modulus
    coset = h.coset_lookup()
    trans = h.transversal
    vals = np.zeros(g.order, dtype=np.int64)
    for x in range(g.order):
        acc = 0
        for r in trans:
            y = g.mul_idx(x, r)
            rj = trans[coset[y]]
            elt = g.mul_idx(g.inv_idx(rj), y)
            acc += psi.values[h.parent_to_sub[elt]]
        vals[x] = acc % p
    return Character(g, p, vals)


def conjugate_character(h: SubgroupData, g: int, psi: Character) -> Character:
    """(g . psi)(x) = psi(g^-1 x g) on a normal subgroup."""
    if not h.is_normal():
        raise NotNormal("conjugation action needs a normal subgroup")
    parent = h.parent
    ginv = parent.inv_idx(g)
    vals = [psi.values[h.parent_to_sub[parent.mul_idx(parent.mul_idx(ginv, m), g)]]
            for m in h.member_indices]
    out = np.zeros(h.as_group.order, dtype=np.int64)
    for pos, v in enumerate(vals):
        out[pos] = v
    return Character(h.as_group, psi.modulus, out)


def norm_operators(group: FiniteGroup, chi: Character, psi: Character):
    """The weighted partial norm and the full norm of psi along ker(chi).

    With t the canonical transversal generator (chi(t) = 1) and p the
    modulus, returns (sum_{l=0}^{p-2} (p-1-l) t^l.psi,
    sum_{l=0}^{p-1} t^l.psi); the pair satisfies
    (t-1).weighted = norm - p.psi pointwise.
    """
    if not chi.is_surjective_mod_p():
        raise NotSurjective("chi must be onto Z/p")
    p = chi.modulus
    h = kernel_of_character(group, chi)
    t = h.transversal[1]
    conj = [psi]
    for _ in range(p - 1):
        conj.append(conjugate_character(h, t, conj[-1]))
    weighted = np.zeros(h.as_group.order, dtype=np.int64)
    for l in range(p - 1):
        weighted = (weighted + (p - 1 - l) * conj[l].values) % p
    norm = np.zeros(h.as_group.order, dtype=np.int64)
    for l in range(p):
        norm = (norm + conj[l].values) % p
    return (Character(h.as_group, p, weighted), Character(h.as_group, p, norm))


# ---------------------------------------------------------------------------
# the four-term sequence at p = 2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourTermReport:
    exact_at_h1: bool
    exact_at_h2: bool

    @property
    def exact(self) -> bool:
        return self.exact_at_h1 and self.exact_at_h2


def _row_space_equal(a_rows, b_rows, p: int, ambient: int) -> bool:
    a = np.asarray(a_rows, dtype=np.int64).reshape(-1, ambient)
    b = np.asarray(b_rows, dtype=np.int64).reshape(-1, ambient)
    if ambient == 0:
        return True
    ra = rref_array(a, p)[2] if a.shape[0] else 0
    rb = rref_array(b, p)[2] if b.shape[0] else 0
    if ra != rb:
        return False
    if ra == 0:
        return True
    return rref_array(np.vstack([a, b]), p)[2] == ra


def _restriction_matrix(cx: _Complex, h: SubgroupData) -> np.ndarray:
    """Cokernel coordinates in the complex of the subgroup H of the
    restrictions of the H^2(G) basis, one column each, for the complex cx
    of G: a cocycle on H is a restricted class plus a coboundary iff its
    coordinates lie in their span, and the kernel of the matrix is the
    kernel of restriction in h2 coordinates."""
    hx = cochain_complex(h.as_group, cx.p)
    members = np.array(h.member_indices, dtype=np.int64)
    rows = cx.col_of[members[hx.nonid]]
    cols = cx.col_of[members[hx.gens]]
    res = cx.h2.reshape(len(cx.h2), cx.ne, cx.ne)[:, rows][:, :, cols]
    return hx.cokernel_coords(res.reshape(len(res), len(rows) * len(cols)).T)


def four_term_exactness(group: FiniteGroup, chi: Character) -> FourTermReport:
    """Exactness of H1(H) -cor-> H1(G) -cup chi-> H2(G) -res-> H2(H)
    at the two middle spots, for p = 2 and H = ker(chi).  Classes in
    H^2(G) are compared in the cokernel coordinates of G's complex, into
    which the h2 basis maps injectively."""
    if chi.modulus != 2:
        raise NonPrimeModulus("the four-term check runs at p = 2")
    if not chi.is_surjective_mod_p():
        raise NotSurjective("chi = 0 is rejected")
    p = 2
    cx = cochain_complex(group, p)
    h = kernel_of_character(group, chi)
    hx = cochain_complex(h.as_group, p)

    # image of the transfer inside the character space
    cor_rows = []
    for row in hx.z1:
        psi = Character(h.as_group, p, hx.unflatten(row, 1).values)
        cor_rows.append(cx.char_vec(corestriction_deg1(psi, h)))
    # classes of xi cup chi, one column per z1 basis vector xi, and the
    # kernel of cup-with-chi on H^1(G) in character-value coordinates
    cups = cx.cokernel_coords(cx.cup_gs(cx.z1, cx.char_vec(chi)).T)
    ker_rows = (nullspace_array(cups, p) @ cx.z1) % p
    exact_h1 = _row_space_equal(cor_rows, ker_rows, p, cx.ne)

    # the kernel of restriction H^2(G) -> H^2(H), carried from h2
    # coordinates into cokernel coordinates
    ker_res = nullspace_array(_restriction_matrix(cx, h), p)
    ker_res = (ker_res @ cx._h2_coords.T) % p
    exact_h2 = _row_space_equal(cups.T, ker_res, p, len(cups))
    return FourTermReport(exact_at_h1=exact_h1, exact_at_h2=exact_h2)


# ---------------------------------------------------------------------------
# formal reduction-surjectivity probes (twisted coefficients)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionReport:
    subgroup_members: tuple[int, ...]
    level: int
    reduction_surjective: bool
    consecutive_surjective: bool


def formal_h90_check(group: FiniteGroup, theta: Orientation,
                     n_max: int) -> list[ReductionReport]:
    """Surjectivity of twisted H^1 reduction maps, per subgroup per level.

    For every subgroup H and 1 <= n <= n_max, decides whether
    H^1(H, Z/p^n twisted) -> H^1(H, Z/p twisted) is onto, and likewise
    for the consecutive level-(n-1) map.  Requires the orientation
    modulus to be at least p^n_max; the group order is bounded by
    ``enumerate_subgroups``.

    All levels come from one Smith normal form per subgroup.  With d_i
    its diagonal on ``_gs_d1`` of H (theta lifted to integers, d_i = 0
    past the rank) and c = gcd over h of theta(h) - 1, the unimodular
    SNF transforms stay invertible mod p^k, so
        |Z^1(k)| = prod_i gcd(d_i, p^k),  |H^0(k)| = gcd(c, p^k),
        |B^1(k)| = p^k / |H^0(k)|,        |H^1(k)| = |Z^1(k)| / |B^1(k)|.
    For t <= n, 0 -> Z/p^(n-t) -> Z/p^n -> Z/p^t -> 0 (times p^t, then
    reduction) gives the exact sequence (Brown, Cohomology of Groups,
    III.6) H^0(n) -> H^0(t) -> H^1(n-t) -> H^1(n) -r-> H^1(t).  If i is
    the order of the image of H^0(n) in H^0(t), the kernel of r has order
    |H^1(n-t)| i / |H^0(t)|, so r is onto iff
    |H^1(n)| |H^0(t)| = |H^1(t)| |H^1(n-t)| i.  H^0(n) is cyclic,
    generated by p^n / |H^0(n)|, so i = p^t / gcd(p^n / |H^0(n)|, p^t).
    """
    m = theta.modulus
    p = next((q for q in range(2, m + 1) if m % q == 0), 0)
    k = 1
    while p and p ** k < m:
        k += 1
    if not p or p ** k != m:
        raise ValueError("orientation modulus must be a prime power")
    if n_max > k:
        raise ValueError("n_max exceeds the orientation modulus exponent")
    reports = []
    for sub in enumerate_subgroups(group):
        h = sub.as_group
        units = [theta.unit_values[i] for i in sub.member_indices]
        diag = smith_normal_form(
            _gs_d1(h, _generating_sequence(h), units)).diag
        free = h.order - 1 - len(diag)
        c = math.gcd(*(u - 1 for u in units))

        def h0(j):
            return math.gcd(c, p ** j)

        def h1(j):
            z1 = math.prod(math.gcd(d, p ** j) for d in diag) * p ** (j * free)
            return z1 * h0(j) // p ** j

        def onto(n, t):
            i = p ** t // math.gcd(p ** n // h0(n), p ** t)
            return h1(n) * h0(t) == h1(t) * h1(n - t) * i

        for n in range(1, n_max + 1):
            reports.append(ReductionReport(
                subgroup_members=sub.member_indices,
                level=n,
                reduction_surjective=onto(n, 1),
                consecutive_surjective=onto(n, n - 1)))
    return reports
