"""Defining systems and Massey-product status decisions.

Two independent decision routes are implemented.

Finite groups: the entries a[i][i+1] of a defining system are the given
characters themselves (normalized degree-1 cocycles with trivial
coefficients are exactly the homomorphisms, so there is no coboundary
slack), and each inner entry a[i][j] ranges over an affine coset
(particular solution) + (space of characters) of the linear system
d(a[i][j]) = -sum_l a[i][l] cup a[l][j].  The status search sweeps those
cosets layer by layer in j - i; at the final layer the reachable value
set is an affine subspace, so vanishing reduces to one linear solve per
surviving combination.  Every 2-cochain of the search is a cocycle and
is held by its entries on G x S alone, S a generating set (the
complex's generating-set coordinates), which decide membership in
im(d1) and in any span of cocycles.  The final solve runs in
coordinates on C^2 / im(d1) read off the cached d1 solver's transform,
so its matrix has only the 2 dim H^1 cup columns and no solver is built
per decision.  The route's own checks, ``validate_defining_system`` on
every witness and the zero value of a vanishing one, read the same rows,
so the route never builds a full bar-complex cochain in degree 2.  The
sweep is exhaustive over all defining systems, which makes the outcome a
decision, not a heuristic.

Presented groups: a character tuple lifts to the unitriangular group
U(n+1, p), or its corner-free quotient, exactly when a defining system
exists with value zero (resp. at all); the search freezes the
superdiagonal entries of every generator image to the character values
and solves for the remaining entries one offset j - i at a time: with
the lower offsets fixed, every relator coordinate at offset k is affine
in the offset-k entries, with the exponent-sum matrix as linear part.

Sign convention: the value of a defining system is the class of
-sum_{l=2..n} a[1][l] cup a[l][n+1]; the obstruction to lifting a
corner-free homomorphism through the central extension is the class of
+sum_{l=2..n} (coordinate 1,l) cup (coordinate l,n+1), so value =
-(obstruction) on the nose for lift-extracted systems.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    InternalInconsistency,
    InvalidSystem,
    NotACocycle,
)
from . import gf_core
from .cohomology import (
    Character,
    Cochain,
    CohomClass,
    _restriction_matrix,
    characters_of,
    cochain_complex,
    corestriction_deg1,
    cup,
    restriction,
)
from .groups import (
    FiniteGroup,
    Presentation,
    GroupHom,
    closure_group,
    evaluate_word,
    kernel_of_character,
    reidemeister_schreier,
    relator_exponent_matrix,
)
from .unitriangular import (
    UniMatrix,
    UniShape,
    _packed_inv,
    _packed_mul,
    _position_index,
    identity,
)

__all__ = [
    "MasseyStatus",
    "MasseyReport",
    "DefiningSystem",
    "validate_defining_system",
    "defining_system_value",
    "massey_status_finite",
    "UniLift",
    "lift_search",
    "lift_candidate_count",
    "induced_images",
    "defining_system_from_lift",
    "lift_obstruction",
    "obstruction_cochain_on",
    "FourfoldReport",
    "degenerate_fourfold_criterion",
    "example_group_presentation",
    "example_subgroup_rewriting",
    "example_subgroup_presentation",
    "WorkedExampleReport",
    "verify_worked_example",
]

DEFAULT_STATUS_BUDGET = 2 ** 20
DEFAULT_LIFT_BUDGET = 2 ** 20
STATUS_ORDER_LIMIT = 32


class MasseyStatus(enum.Enum):
    UNDEFINED = "Undefined"
    DEFINED_NOT_VANISHING = "DefinedNotVanishing"
    VANISHES = "Vanishes"


@dataclass(frozen=True)
class DefiningSystem:
    """Triangular array of degree-1 cochains indexed by (i, j),
    1 <= i < j <= n+1, without the (1, n+1) corner."""

    group: FiniteGroup
    prime: int
    n: int
    entries: dict = field(hash=False)

    def entry(self, i: int, j: int) -> Cochain:
        return self.entries[(i, j)]


def _system_positions(n: int):
    return [(i, j) for i in range(1, n + 2) for j in range(i + 1, n + 2)
            if (i, j) != (1, n + 1)]


def _cup_rhs(cx, a: dict, i: int, j: int) -> np.ndarray:
    """The G x S entries of -sum_{i<l<j} a[i][l] cup a[l][j], which
    d(a[i][j]) must equal, for entries given as vectors over the
    non-identity elements."""
    rhs = cx.cup_gs(-a[(i, i + 1)], a[(i + 1, j)])
    for l in range(i + 2, j):
        rhs = (rhs - cx.cup_gs(a[(i, l)], a[(l, j)])) % cx.p
    return rhs


def validate_defining_system(ds: DefiningSystem,
                             chars: Sequence[Character]) -> bool:
    """Both defining-system conditions, checked exactly on the G x S rows
    of the group's generating-set complex (``cochain_complex``).

    Each superdiagonal entry must equal its character and have d1 a = 0
    on G x S; da is a cocycle, so it then vanishes by fact (b) of the
    complex, and a is a homomorphism.  Each inner entry must make the
    G x S entries of d(a[i][j]) + sum_l a[i][l] cup a[l][j] vanish.  By
    induction on j - i, once the lower layers hold that residual is a
    normalized 2-cocycle, which (b) makes zero when it vanishes on G x S;
    so the check is exact.  Entries or characters on another group or
    modulus, and twisted or non-degree-1 entries, raise ValueError.
    """
    n = ds.n
    if len(chars) != n:
        return False
    want = set(_system_positions(n))
    if set(ds.entries) != want:
        return False
    for c in [*ds.entries.values(), *chars]:
        if c.group is not ds.group or c.modulus != ds.prime:
            raise ValueError("entries and characters must live on the "
                             "system's group mod p")
    if any(c.degree != 1 or c.twist is not None
           for c in ds.entries.values()):
        raise ValueError("entries must be untwisted 1-cochains")
    cx = cochain_complex(ds.group, ds.prime)
    a = {key: cx.char_vec(c) for key, c in ds.entries.items()}
    for i in range(1, n + 1):
        if not np.array_equal(ds.entry(i, i + 1).values, chars[i - 1].values):
            return False
        if ((cx.d1 @ a[(i, i + 1)]) % cx.p).any():
            return False
    return not any(((cx.d1 @ a[(i, j)] - _cup_rhs(cx, a, i, j)) % cx.p).any()
                   for (i, j) in want if j - i >= 2)


def defining_system_value(ds: DefiningSystem) -> CohomClass:
    """Class of -sum_{l=2..n} a[1][l] cup a[l][n+1]."""
    n = ds.n
    acc = None
    for l in range(2, n + 1):
        term = cup(ds.entry(1, l), ds.entry(l, n + 1))
        acc = term if acc is None else acc + term
    try:
        return CohomClass(acc.scale(-1))
    except NotACocycle:
        raise InvalidSystem(
            "value cochain is not a cocycle; the system does not satisfy "
            "its conditions") from None


@dataclass
class MasseyReport:
    status: MasseyStatus
    witness: Optional[DefiningSystem]
    search_stats: dict

    @property
    def defined(self) -> bool:
        return self.status is not MasseyStatus.UNDEFINED

    @property
    def vanishes(self) -> bool:
        return self.status is MasseyStatus.VANISHES


# ---------------------------------------------------------------------------
# finite-group status decisions
# ---------------------------------------------------------------------------
#
# The entries of a defining system are held as vectors over the
# non-identity elements, in a dict keyed by position (i, j).  A value
# lies in span(cup columns) + im(d1) iff its coordinates on C^2 / im(d1)
# lie in the span of the cup columns' coordinates: one solve on a matrix
# with 2 dim H^1 columns, which builds no solver.

def _check_char_tuple(group: FiniteGroup, chars: Sequence[Character]) -> int:
    if len(chars) < 2:
        raise ValueError("need at least two characters")
    p = chars[0].modulus
    for c in chars:
        if not isinstance(c, Character) or c.twist is not None:
            raise ValueError("untwisted characters required")
        if c.group is not group or c.modulus != p:
            raise ValueError("characters must live on the given group mod p")
    return p


def _value_cups(cx, first, last) -> np.ndarray:
    """Coordinates of chi_first cup psi_b, then of psi_b cup chi_last,
    one column per character basis vector psi_b."""
    return cx.cokernel_coords(np.concatenate(
        [cx.cup_gs(first, cx.z1), cx.cup_gs(cx.z1, last)]).T)


def _value_split(cx, cups, value):
    """Coefficients (s, t) with value - sum_b s_b (chi_first cup psi_b)
    - sum_b t_b (psi_b cup chi_last) in im(d1), or None.

    ``value`` holds the G x S entries of a 2-cocycle, as every value of
    a defining system is; on a non-cocycle the answer means nothing,
    since only G x S entries are read."""
    sol = gf_core.solve_array(cups, cx.cokernel_coords(value), cx.p)
    if sol is None:
        return None
    z = len(cx.z1)
    return sol[0][:z], sol[0][z:]


def massey_status_finite(group: FiniteGroup, chars: Sequence[Character],
                         budget: int = DEFAULT_STATUS_BUDGET) -> MasseyReport:
    """Decide Undefined / DefinedNotVanishing / Vanishes for 2 <= n <= 4.

    n = 2 is the cup product; n = 3 is fully linear (the value coset is an
    affine subspace); n = 4 sweeps the middle layer over the feasible
    affine subspace of character coefficients and solves the final layer
    linearly for each surviving combination.
    """
    p = _check_char_tuple(group, chars)
    n = len(chars)
    if n > 4:
        raise ValueError("products of length at most 4 are supported")
    if group.order > STATUS_ORDER_LIMIT:
        raise BudgetExceeded(
            f"status decisions capped at order {STATUS_ORDER_LIMIT}")
    cx = cochain_complex(group, p)
    a = {(i, i + 1): cx.char_vec(c) for i, c in enumerate(chars, 1)}
    if n == 2:
        return _status_n2(cx, chars, a)
    if n == 3:
        return _status_n3(cx, chars, a)
    return _status_n4(cx, chars, a, budget)


def _witness(cx, chars, a: dict, zero_value: bool = False
             ) -> DefiningSystem:
    """The defining system with entry vectors ``a``, validated; with
    ``zero_value`` its value, a cocycle, is also required to be a
    coboundary on G x S."""
    n = len(chars)
    ds = DefiningSystem(cx.group, cx.p, n,
                        {key: cx.unflatten(vec, 1) for key, vec in a.items()})
    if not validate_defining_system(ds, chars):
        raise InternalInconsistency("constructed witness fails validation")
    if zero_value and cx.d1_solver.solve(_cup_rhs(cx, a, 1, n + 1)) is None:
        raise InternalInconsistency("vanishing witness has nonzero value")
    return ds


def _status_n2(cx, chars, a) -> MasseyReport:
    stats = {"method": "cup", "solves": 1}
    vanish = cx.d1_solver.solve(_cup_rhs(cx, a, 1, 3)) is not None
    status = MasseyStatus.VANISHES if vanish \
        else MasseyStatus.DEFINED_NOT_VANISHING
    return MasseyReport(status, _witness(cx, chars, a), stats)


def _status_n3(cx, chars, a) -> MasseyReport:
    p, z1 = cx.p, cx.z1
    f13 = cx.d1_solver.solve(_cup_rhs(cx, a, 1, 3))
    f24 = cx.d1_solver.solve(_cup_rhs(cx, a, 2, 4))
    stats = {"method": "linear", "solves": 2}
    if f13 is None or f24 is None:
        return MasseyReport(MasseyStatus.UNDEFINED, None, stats)
    a.update({(1, 3): f13, (2, 4): f24})
    sol = _value_split(cx, _value_cups(cx, a[(1, 2)], a[(3, 4)]),
                       _cup_rhs(cx, a, 1, 4))
    stats["solves"] += 1
    if sol is None:
        witness = _witness(cx, chars, a)
        stats["certificate"] = ("value coset misses the coboundaries: "
                                "one inconsistent linear system")
        return MasseyReport(MasseyStatus.DEFINED_NOT_VANISHING, witness, stats)
    s_coeffs, t_coeffs = sol
    a[(2, 4)] = (f24 + s_coeffs @ z1) % p
    a[(1, 3)] = (f13 + t_coeffs @ z1) % p
    witness = _witness(cx, chars, a, zero_value=True)
    return MasseyReport(MasseyStatus.VANISHES, witness, stats)


def _status_n4(cx, chars, a, budget: int) -> MasseyReport:
    p, z1, solve = cx.p, cx.z1, cx.d1_solver.solve
    middle = ((1, 3), (2, 4), (3, 5))
    f13, f24, f35 = (solve(_cup_rhs(cx, a, i, j)) for i, j in middle)
    stats = {"method": "layered-linear", "solves": 3}
    if f13 is None or f24 is None or f35 is None:
        return MasseyReport(MasseyStatus.UNDEFINED, None, stats)
    a.update({(1, 3): f13, (2, 4): f24, (3, 5): f35})
    v1, v2, v3, v4 = (a[(i, i + 1)] for i in range(1, 5))
    z = len(z1)
    coords = cx.cokernel_coords

    # feasibility of the third layer is linear in the middle-layer
    # coefficients (beta for a13, gamma for a24, delta for a35):
    #   c14 = -(chi1 cup a24 + a13 cup chi3), c25 = -(chi2 cup a35 + a24 cup chi4)
    # unknown order: beta (a13), gamma (a24), delta (a35)
    nrows = cx.d1_solver.rows - cx.d1_solver.rank
    lin = np.zeros((2 * nrows, 3 * z), dtype=np.int64)
    rhs = np.zeros(2 * nrows, dtype=np.int64)
    lin[:nrows, z:2 * z] = (-coords(cx.cup_gs(v1, z1).T)) % p
    lin[:nrows, :z] = (-coords(cx.cup_gs(z1, v3).T)) % p
    rhs[:nrows] = (-coords(_cup_rhs(cx, a, 1, 4))) % p
    lin[nrows:, 2 * z:] = (-coords(cx.cup_gs(v2, z1).T)) % p
    lin[nrows:, z:2 * z] = (-coords(cx.cup_gs(z1, v4).T)) % p
    rhs[nrows:] = (-coords(_cup_rhs(cx, a, 2, 5))) % p
    feas = gf_core.solve_array(lin, rhs, p)
    if feas is None:
        stats["certificate"] = "third-layer feasibility system inconsistent"
        return MasseyReport(MasseyStatus.UNDEFINED, None, stats)
    part, kernel = feas
    kernel = np.asarray(kernel, dtype=np.int64).reshape(len(kernel), 3 * z)
    n_combos = p ** len(kernel)
    stats["layer2_combos"] = n_combos
    if n_combos > budget:
        raise BudgetExceeded(
            f"{n_combos} feasible middle layers exceed budget {budget}",
            stats)

    cups = _value_cups(cx, v1, v4)
    examined = 0
    first_defined = None
    for coeffs in itertools.product(range(p), repeat=len(kernel)):
        combo = (part + np.array(coeffs, dtype=np.int64) @ kernel) % p
        b = dict(a)
        for k, key in enumerate(middle):
            b[key] = (a[key] + combo[k * z:(k + 1) * z] @ z1) % p
        f14 = solve(_cup_rhs(cx, b, 1, 4))
        f25 = solve(_cup_rhs(cx, b, 2, 5))
        if f14 is None or f25 is None:
            raise InternalInconsistency(
                "feasible middle layer failed the third-layer solve")
        examined += 1
        b.update({(1, 4): f14, (2, 5): f25})
        if first_defined is None:
            first_defined = dict(b)
        sol = _value_split(cx, cups, _cup_rhs(cx, b, 1, 5))
        if sol is not None:
            s_coeffs, t_coeffs = sol
            b[(2, 5)] = (f25 + s_coeffs @ z1) % p
            b[(1, 4)] = (f14 + t_coeffs @ z1) % p
            stats["examined"] = examined
            witness = _witness(cx, chars, b, zero_value=True)
            return MasseyReport(MasseyStatus.VANISHES, witness, stats)
    stats["examined"] = examined
    witness = _witness(cx, chars, first_defined)
    stats["certificate"] = (
        "all feasible middle layers swept; every final-layer value coset "
        "misses the coboundaries")
    return MasseyReport(MasseyStatus.DEFINED_NOT_VANISHING, witness, stats)


# ---------------------------------------------------------------------------
# unitriangular lifts of presented groups
# ---------------------------------------------------------------------------

def _relator_values(pres: Presentation, shape: UniShape, packed):
    """Each relator in turn, evaluated on a batch of lifts given as a
    (lifts, generators, positions) int64 array of packed ``UniMatrix``
    entries: a (lifts, positions) array of packed entries, zero exactly
    where the relator holds.  Products follow the plan of ``uni_mul`` and
    inverses the iteration of ``uni_inv``.
    """
    inverses = _packed_inv(packed, shape)
    for r in pres.relators:
        acc = np.zeros((packed.shape[0], packed.shape[2]), dtype=np.int64)
        for x in r:
            g = abs(x) - 1
            acc = _packed_mul(acc, packed[:, g] if x > 0 else inverses[:, g],
                              shape)
        yield acc


def _check_lifts(pres: Presentation, shape: UniShape, packed,
                 characters) -> None:
    """Check a batch of packed lifts (see ``_relator_values``): there is
    one character per superdiagonal entry, every relator evaluates to the
    identity, and the superdiagonal carries the characters."""
    n = shape.size - 1
    if len(characters) != n:
        raise InvalidSystem("character count must match the shape")
    gens = packed.shape[1]
    for r, value in zip(pres.relators, _relator_values(pres, shape, packed)):
        if value.any():
            raise InvalidSystem(f"relator {r} not satisfied by images")
    index = _position_index(shape.size, shape.barred)
    diagonal = [index[(i, i + 1)] for i in range(1, n + 1)]
    values = np.array([[characters[i][g] % shape.prime for g in range(gens)]
                       for i in range(n)], dtype=np.int64)
    if (packed[:, :, diagonal] != values.T).any():
        raise InvalidSystem(
            "superdiagonal entries disagree with the characters")


@dataclass(frozen=True)
class UniLift:
    """A homomorphism from a presentation into a unitriangular shape,
    lifting a tuple of characters along the superdiagonal coordinates."""

    presentation: Presentation
    shape: UniShape
    images: tuple[UniMatrix, ...]
    characters: tuple[tuple[int, ...], ...]   # per character: generator values

    def __post_init__(self):
        if any(m.shape != self.shape for m in self.images):
            raise InvalidSystem("images do not live in the lift's shape")
        packed = np.array([m.entries for m in self.images], dtype=np.int64)
        _check_lifts(self.presentation, self.shape,
                     packed.reshape(1, len(self.images),
                                    len(self.shape.positions)),
                     self.characters)


def _lifts_from_packed(pres: Presentation, shape: UniShape, packed,
                       characters) -> list[UniLift]:
    """UniLift objects for a batch of packed lifts, checked once as a
    batch instead of once per object.  One ``UniMatrix`` is built per
    distinct image in the batch, and every lift carrying that image
    shares it (the matrices are frozen): lifts differ from their
    neighbours in a few kernel coordinates, so most images repeat."""
    _check_lifts(pres, shape, packed, characters)
    matrices = {}
    lifts = []
    for row in packed:
        # one row at a time: a whole-batch tolist() would hold a nested
        # list of every entry next to the objects built from it
        images = []
        for e in map(tuple, row.tolist()):
            m = matrices.get(e)
            if m is None:
                m = matrices[e] = UniMatrix(shape, e)
            images.append(m)
        images = tuple(images)
        lift = object.__new__(UniLift)
        object.__setattr__(lift, "presentation", pres)
        object.__setattr__(lift, "shape", shape)
        object.__setattr__(lift, "images", images)
        object.__setattr__(lift, "characters", characters)
        lifts.append(lift)
    return lifts


def _validate_char_rows(pres: Presentation, char_rows, p: int):
    rows = [tuple(int(v) % p for v in row) for row in char_rows]
    for row in rows:
        if len(row) != pres.generator_count:
            raise ValueError("one value per generator required")
        for r in pres.relators:
            acc = 0
            for x in r:
                acc += row[abs(x) - 1] if x > 0 else -row[abs(x) - 1]
            if acc % p:
                raise ValueError(
                    "character values do not vanish on a relator")
    return rows


@lru_cache(maxsize=64)
def _exponent_solver(pres: Presentation, p: int):
    """The solver of the relators' exponent-sum system mod p, and its
    kernel basis (Hom(G, Z/p) on the generators), built once per
    (presentation, p) and shared by every search; the cached arrays are
    read-only."""
    gens = pres.generator_count
    exponents = np.array(relator_exponent_matrix(pres), dtype=np.int64)
    solver = gf_core.PrimeSolver(
        exponents.reshape(gens, len(pres.relators)).T, p)
    kernel = solver.kernel_basis()
    for a in (solver.transform, solver.echelon, kernel):
        a.flags.writeable = False
    return solver, kernel


def lift_candidate_count(pres: Presentation, shape: UniShape) -> int:
    """Size of the space lift_search searches, which its budget bounds:
    every entry off the superdiagonal is free, for every generator."""
    free = sum(1 for (i, j) in shape.positions if j != i + 1)
    return shape.prime ** (free * pres.generator_count)


def lift_search(pres: Presentation, char_rows, shape: UniShape,
                budget: int = DEFAULT_LIFT_BUDGET) -> list[UniLift]:
    """All homomorphisms into the shape lifting the character tuple.

    Per generator the superdiagonal is frozen to the character values;
    the other entries are solved for one offset k = j - i at a time.
    With the lower offsets fixed, the offset-k coordinates of a relator
    are the exponent-sum matrix applied to the offset-k entries, position
    by position, plus a constant read off by evaluating the relators with
    those entries at 0.  So every partial lift extends by one particular
    solution plus Hom(G, Z/p) (the kernel of that matrix) at each
    offset-k position, or not at all.  That matrix's solver and kernel
    are built once per (presentation, p) and reused by later searches.
    The lifts are returned lexicographically ordered over (generator,
    free position) and are re-verified in one batched pass over their
    packed entries (relators, superdiagonal, character count).  Lifts
    with an image in common share its ``UniMatrix``.
    """
    p = shape.prime
    n = shape.size - 1
    rows = _validate_char_rows(pres, char_rows, p)
    if len(rows) != n:
        raise ValueError(f"need {n} characters for size {shape.size}")
    total = lift_candidate_count(pres, shape)
    if total > budget:
        raise BudgetExceeded(
            f"{total} candidates exceed budget {budget}",
            {"candidates": total})
    gens = pres.generator_count
    positions = shape.positions
    solver, kernel = _exponent_solver(pres, p)

    lifts = np.zeros((1, gens, len(positions)), dtype=np.int64)
    for i in range(1, n + 1):
        lifts[0, :, positions.index((i, i + 1))] = rows[i - 1]
    for k in range(2, n + 1):
        cols = [c for c, (i, j) in enumerate(positions) if j - i == k]
        if not cols:
            continue
        # the constants: relator coordinates with the offset-k entries 0
        const = np.array(
            [value[:, cols] for value in _relator_values(pres, shape, lifts)],
            dtype=np.int64).reshape(len(pres.relators), len(lifts), len(cols))
        # solver.transform applied to -const, position by position: the
        # system is solvable iff the rows past the rank vanish, and the
        # first rows are then the pivot entries of a particular solution
        y = np.einsum("st,tlc->lsc", solver.transform, -const) % p
        solvable = ~y[:, solver.rank:].any(axis=(1, 2))
        lifts, y = lifts[solvable], y[solvable]
        part = np.zeros((len(lifts), gens, len(cols)), dtype=np.int64)
        part[:, solver.pivots] = y[:, :solver.rank]
        dims = len(kernel) * len(cols)
        coeffs = np.array(list(itertools.product(range(p), repeat=dims)),
                          dtype=np.int64).reshape(p ** dims, len(kernel),
                                                  len(cols))
        shifts = np.einsum("mdc,dg->mgc", coeffs, kernel)
        lifts = np.repeat(lifts, len(shifts), axis=0)
        lifts[:, :, cols] = ((part[:, None] + shifts) % p).reshape(
            len(lifts), gens, len(cols))
    if len(lifts) > 1:
        # the superdiagonal is constant, so this is the order over
        # (generator, free position)
        keys = lifts.reshape(len(lifts), -1).T[::-1]
        lifts = lifts[np.lexsort(keys)]
    return _lifts_from_packed(pres, shape, lifts, tuple(rows))


def _element_images(group: FiniteGroup, lift: UniLift, shape: UniShape):
    """Packed images in ``shape`` (the lift's own shape or its corner-free
    quotient), one row per element, of every element word of a finite
    realization of the presentation; all words advance one letter per
    step, in one batch.  The induced map is checked to be multiplicative
    on the full table."""
    if group.element_words is None:
        raise ValueError("group does not carry element words")
    words = group.element_words
    cols = [lift.shape.positions.index(ij) for ij in shape.positions]
    gens = np.array([[m.entries[c] for c in cols] for m in lift.images],
                    dtype=np.int64).reshape(len(lift.images), len(cols))
    factors = np.concatenate([gens, _packed_inv(gens, shape)])
    imgs = np.zeros((group.order, len(cols)), dtype=np.int64)
    for step in range(max(map(len, words))):
        rows = [a for a, w in enumerate(words) if len(w) > step]
        letters = np.array([words[a][step] for a in rows], dtype=np.int64)
        # letter k picks generator k - 1, letter -k its inverse
        picks = np.where(letters > 0, letters - 1, len(gens) - letters - 1)
        imgs[rows] = _packed_mul(imgs[rows], factors[picks], shape)
    if not np.array_equal(imgs[group.mul],
                          _packed_mul(imgs[:, None], imgs[None, :], shape)):
        raise InternalInconsistency(
            "lift does not descend to the finite group")
    return imgs


def induced_images(lift: UniLift, group: FiniteGroup) -> list[UniMatrix]:
    """Image of every element of a finite realization of the presentation.

    The group must carry element words in the presentation's generators.
    The induced map is checked to be multiplicative on the full table.
    """
    imgs = _element_images(group, lift, lift.shape)
    return [UniMatrix(lift.shape, tuple(row)) for row in imgs.tolist()]


def defining_system_from_lift(lift: UniLift,
                              group: FiniteGroup) -> DefiningSystem:
    """The defining system of coordinate functions of a corner-free lift,
    pushed onto a finite realization of the presentation.  An unbarred
    lift is first projected to the corner-free quotient."""
    shape = lift.shape.barred_shape()
    imgs = _element_images(group, lift, shape)
    entries = {ij: Cochain(group, 1, shape.prime, imgs[:, c])
               for c, ij in enumerate(shape.positions)}
    return DefiningSystem(group, shape.prime, shape.size - 1, entries)


def obstruction_cochain_on(group: FiniteGroup, imgs: Sequence[UniMatrix],
                           p: int) -> Cochain:
    """sum_{l=2..n} u[1][l] cup u[l][n+1] evaluated through given images."""
    s = imgs[0].shape.size
    n = s - 1
    vals = np.zeros((group.order, group.order), dtype=np.int64)
    for l in range(2, n + 1):
        u1l = np.array([m.entry(1, l) for m in imgs], dtype=np.int64)
        uln = np.array([m.entry(l, s) for m in imgs], dtype=np.int64)
        vals = (vals + np.multiply.outer(u1l, uln)) % p
    return Cochain(group, 2, p, vals)


def lift_obstruction(lift: UniLift) -> CohomClass:
    """Obstruction class to raising a corner-free lift through the center.

    The class lives on the finite image group generated by the lift's
    images; it is the pullback of the central extension class, i.e. the
    cocycle sum_{l} (coordinate 1,l) cup (coordinate l,n+1).  Its
    vanishing there certifies a cover of this particular lift; deciding
    lift existence for the character tuple as a whole goes through
    lift_search on the unbarred shape.
    """
    shape = lift.shape
    if not shape.barred:
        raise InvalidSystem("obstructions are taken for corner-free lifts")
    # the identity among the generators gives the closure its elements
    # even when the presentation has no generators
    q = closure_group([*lift.images, identity(shape)], label="lift-image")
    coc = obstruction_cochain_on(q, q.elements, shape.prime)
    return CohomClass(coc)


# ---------------------------------------------------------------------------
# the degenerate fourfold criterion at p = 2
# ---------------------------------------------------------------------------

@dataclass
class FourfoldReport:
    lhs_defined: bool
    lhs_vanishes: bool
    rhs_defined_witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]]
    rhs_vanishing_witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]]
    agree: bool


def degenerate_fourfold_criterion(group: FiniteGroup, chi1: Character,
                                  chi2: Character, chi3: Character
                                  ) -> FourfoldReport:
    """Compare the fourfold product (chi1, chi2, chi3, chi1) against the
    subgroup-side criterion over H = ker(chi1).

    The right side looks for phi, psi in Hom(H, Z/2) with transfers chi2
    and chi3, phi cup res(chi3) zero, and phi cup psi either zero
    (vanishing clause) or in the image of restriction (definedness
    clause); both sides are computed independently and compared.
    """
    p = 2
    for c in (chi1, chi2, chi3):
        if c.modulus != p:
            raise ValueError("mod-2 characters required")
    if not chi1.is_surjective_mod_p():
        raise ValueError("chi1 must be nonzero")
    if group.order > 16:
        raise BudgetExceeded("fourfold criterion capped at order 16")
    lhs = massey_status_finite(group, [chi1, chi2, chi3, chi1])
    h = kernel_of_character(group, chi1)
    hchars = characters_of(h.as_group, p)
    hx = cochain_complex(h.as_group, p)
    res3 = hx.char_vec(restriction(chi3, h))
    # every solve below has a cup of characters, a cocycle, on its right
    # side, so the G x S entries of H decide it
    res_solver = gf_core.PrimeSolver(
        _restriction_matrix(cochain_complex(group, p), h), p)

    cor_cache = {c.values.tobytes(): corestriction_deg1(c, h) for c in hchars}

    def cor(c):
        return cor_cache[c.values.tobytes()]

    defined_wit = None
    vanish_wit = None
    for phi in hchars:
        if cor(phi) != chi2:
            continue
        phi_vec = hx.char_vec(phi)
        if hx.d1_solver.solve(hx.cup_gs(phi_vec, res3)) is None:
            continue
        for psi in hchars:
            if cor(psi) != chi3:
                continue
            pp = hx.cup_gs(phi_vec, hx.char_vec(psi))
            if vanish_wit is None and hx.d1_solver.solve(pp) is not None:
                vanish_wit = (tuple(phi.values.tolist()),
                              tuple(psi.values.tolist()))
            if defined_wit is None and res_solver.solve(pp) is not None:
                defined_wit = (tuple(phi.values.tolist()),
                               tuple(psi.values.tolist()))
        if defined_wit and vanish_wit:
            break
    agree = ((lhs.vanishes == (vanish_wit is not None))
             and (lhs.defined == (defined_wit is not None)))
    return FourfoldReport(
        lhs_defined=lhs.defined, lhs_vanishes=lhs.vanishes,
        rhs_defined_witness=defined_wit, rhs_vanishing_witness=vanish_wit,
        agree=agree)


# ---------------------------------------------------------------------------
# the bundled worked example
# ---------------------------------------------------------------------------

def example_group_presentation() -> Presentation:
    """The two-generator one-relator group with a^2 b = b a^2."""
    return Presentation(2, ((1, 1, 2, -1, -1, -2),), label="paper-g")


def example_subgroup_rewriting():
    """Index-2 kernel rewriting of the example group: a -> 0, b -> 1."""
    from .groups import catalog
    pres = example_group_presentation()
    z2 = catalog("cyclic(2)")
    hom = GroupHom(pres, z2, (0, 1))
    return reidemeister_schreier(pres, hom)


def example_subgroup_presentation() -> Presentation:
    rs = example_subgroup_rewriting()
    return Presentation(rs.kernel.generator_count, rs.kernel.relators,
                        label="paper-h")


@dataclass
class WorkedExampleReport:
    reduction_surjective: dict            # n -> bool, on the example group
    subgroup_free_rank: int
    subgroup_torsion: tuple[int, ...]
    chi_values: tuple[int, ...]
    chi_on_commutator: int
    chi_lifts_mod4: bool
    ubar_lift_count: int
    u_lift_count: int
    u_candidates: int

    @property
    def part1_pass(self) -> bool:
        return all(self.reduction_surjective.values())

    @property
    def part2_pass(self) -> bool:
        return (self.subgroup_free_rank == 2
                and self.subgroup_torsion == (2,)
                and self.chi_on_commutator == 1
                and not self.chi_lifts_mod4)

    @property
    def part3_pass(self) -> bool:
        return self.ubar_lift_count >= 1 and self.u_lift_count == 0

    @property
    def all_pass(self) -> bool:
        return self.part1_pass and self.part2_pass and self.part3_pass


def verify_worked_example() -> WorkedExampleReport:
    """One-shot reproduction of the bundled example computations.

    (1) every mod-2 character of the example group lifts through Z/2^n
    for n = 2, 3, 4; (2) the index-2 kernel has abelianization of free
    rank 2 with one invariant factor 2 and its top-corner coordinate
    character does not lift to Z/4; (3) the character triple lifts to the
    corner-free quotient of U(4, 2) but not to U(4, 2) itself.
    """
    from .groups import abelianization, hom_lift_to_Zmod
    from .unitriangular import UniShape as _Shape, sigma

    pres = example_group_presentation()
    reduction = {}
    for n in (2, 3, 4):
        reduction[n] = all(
            hom_lift_to_Zmod(pres, row, 2, n) is not None
            for row in itertools.product(range(2), repeat=2))

    rs = example_subgroup_rewriting()
    ab = abelianization(rs.kernel)
    sh3 = _Shape(3, 2)
    mats = [sigma(sh3, 1), sigma(sh3, 2)]
    chi = tuple(evaluate_word(w, mats).entry(1, 3) if w else 0
                for w in rs.generator_words)
    h_word = rs.rewrite_word((1, 2, -1, -2))
    chi_h = sum(chi[abs(x) - 1] * (1 if x > 0 else -1) for x in h_word) % 2
    lift4 = hom_lift_to_Zmod(rs.kernel, chi, 2, 2)

    char_rows = [(1, 1), (1, 0), (1, 0)]
    sh4 = _Shape(4, 2)
    ubar = lift_search(pres, char_rows, sh4.barred_shape())
    u = lift_search(pres, char_rows, sh4)
    return WorkedExampleReport(
        reduction_surjective=reduction,
        subgroup_free_rank=ab.free_rank,
        subgroup_torsion=ab.torsion,
        chi_values=chi,
        chi_on_commutator=chi_h,
        chi_lifts_mod4=lift4 is not None,
        ubar_lift_count=len(ubar),
        u_lift_count=len(u),
        u_candidates=lift_candidate_count(pres, sh4),
    )
