"""Defining systems and Massey-product status decisions.

Two independent decision routes are implemented.

Finite groups: the entries a[i][i+1] of a defining system are the given
characters themselves (normalized degree-1 cocycles with trivial
coefficients are exactly the homomorphisms, so there is no coboundary
slack), and each inner entry a[i][j] ranges over an affine coset
(particular solution) + (space of characters) of the linear system
d(a[i][j]) = -sum_l a[i][l] cup a[l][j].  One layered routine, the same
for every n, sets those cosets one offset j - i at a time: offset-m
entries meet only superdiagonal ones at offset m + 1 and in the value,
so one solve gives the coefficients under which offset m + 1 is
solvable, and these are swept; at the top offset the reachable value
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
One pairwise routine serves every offset, as the layered routine does
on the finite route: offsets m and m + 1 are solved as one affine
system, since offset-m entries reach offset m + 1 only through the
fixed superdiagonal, so one row reduction decides which partial lifts
extend and gives their feasible moves at offset m.  Below the top only
those moves are expanded, and the search stops at the first offset
where no partial lift extends; at the top they are kept as directions,
with the top offset's Hom(G, Z/p) shifts among them.  Relators are
evaluated all at once, in log-depth pairwise products.  The lifts are
checked by a factored, exact test: every direction is at offset t - 1
or t, where the relators are affine with one linear part for every
partial lift, so it suffices to check each partial lift and one move
along each direction, not every lift.  The search returns its lifts in
that factored form, a ``LiftSet``: its length and truth value (the
verdicts of the lift route) cost no expansion, and ``UniLift`` objects
are built only for the lifts a caller reads.

Sign convention: the value of a defining system is the class of
-sum_{l=2..n} a[1][l] cup a[l][n+1]; the obstruction to lifting a
corner-free homomorphism through the central extension is the class of
+sum_{l=2..n} (coordinate 1,l) cup (coordinate l,n+1), so value =
-(obstruction) on the nose for lift-extracted systems.
"""

from __future__ import annotations

import collections.abc
import enum
import itertools
import math
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
    _BYTE_BOUND,
    Character,
    Cochain,
    CohomClass,
    _dc,
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
)

__all__ = [
    "MasseyStatus",
    "MasseyReport",
    "DefiningSystem",
    "validate_defining_system",
    "defining_system_value",
    "massey_status_finite",
    "UniLift",
    "LiftSet",
    "lift_search",
    "lift_candidate_count",
    "defining_system_from_lift",
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


def _about(count: int) -> str:
    """A count in full up to 20 digits, else as about 10^k."""
    if count < 10 ** 20:
        return str(count)
    return f"about 10^{round(math.log10(count))}"


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
    """Both defining-system conditions, checked exactly on G x S, S the
    generating set of the group's complex, for all entries at once.

    Each superdiagonal entry must equal its character and have da = 0
    on G x S; da is a cocycle, so it then vanishes by fact (b) of the
    complex, and a is a homomorphism.  Each inner entry must make the
    G x S entries of d(a[i][j]) + sum_l a[i][l] cup a[l][j] vanish.  By
    induction on j - i, once the lower layers hold that residual is a
    normalized 2-cocycle, which (b) makes zero when it vanishes on G x S;
    so the check is exact.  With A(g) the matrix of the entries at g, the
    residuals are the entries of dA(g, s) + A(g) A(s).  Entries or
    characters on another group or modulus, and twisted or non-degree-1
    entries, raise ValueError.
    """
    n = ds.n
    if len(chars) != n:
        return False
    if set(ds.entries) != set(_system_positions(n)):
        return False
    for c in [*ds.entries.values(), *chars]:
        if c.group is not ds.group or c.modulus != ds.prime:
            raise ValueError("entries and characters must live on the "
                             "system's group mod p")
    if any(c.degree != 1 or c.twist is not None
           for c in ds.entries.values()):
        raise ValueError("entries must be untwisted 1-cochains")
    if any(not np.array_equal(ds.entry(i, i + 1).values, c.values)
           for i, c in enumerate(chars, 1)):
        return False
    cx = cochain_complex(ds.group, ds.prime)
    a = np.zeros((ds.group.order, n + 1, n + 1), dtype=np.int64)
    for (i, j), c in ds.entries.items():
        a[:, i - 1, j - 1] = c.values
    # dA = -A(g) A(s) off the corner (not an entry), with no int64 sum
    cups = _mod_matmul(a[:, None], a[cx.gens], cx.p)
    residual = _dc(ds.group, a, 1, cx.p, cx.gens) != -cups % cx.p
    residual[..., 0, n] = False
    return not residual.any()


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
    """Decide Undefined / DefinedNotVanishing / Vanishes for any n >= 2.

    n = 2 is the cup product.  Otherwise the offsets m = j - i = 2 .. n - 1
    are set one at a time, each entry to its d1 particular solution plus
    a combination of the characters.  Offset-m entries meet only
    superdiagonal ones in the offset-(m + 1) right-hand sides and in the
    value, so for m < n - 1 one linear solve gives the coefficients under
    which offset m + 1 is solvable, swept depth first in
    ``itertools.product`` order; at m = n - 1 the value coset is an affine
    subspace, which one solve decides (n = 3 sweeps nothing).  ``budget``
    bounds the combinations enumerated, summed over the swept offsets and
    checked before each is enumerated; ``BudgetExceeded`` carries the
    statistics gathered so far.  No order is capped: the d1 solver and
    each feasibility matrix refuse past 2^28 bytes, before they are built.
    """
    n = len(chars)
    if n < 2:
        raise ValueError("need at least two characters")
    p = chars[0].modulus
    for c in chars:
        if not isinstance(c, Character) or c.twist is not None:
            raise ValueError("untwisted characters required")
        if c.group is not group or c.modulus != p:
            raise ValueError("characters must live on the given group mod p")
    cx = cochain_complex(group, p)
    z1, z, solve = cx.z1, len(cx.z1), cx.d1_solver.solve
    a = {(i, i + 1): cx.char_vec(c) for i, c in enumerate(chars, 1)}
    if n == 2:
        status = MasseyStatus.DEFINED_NOT_VANISHING if cx.cokernel_coords(
            _cup_rhs(cx, a, 1, 3)).any() else MasseyStatus.VANISHES
        return MasseyReport(status, _witness(cx, chars, a),
                            {"method": "cup", "solves": 1})
    swept = n > 3
    stats = {"method": "layered-linear" if swept else "linear",
             "solves": n - 1}
    keys = _offset_keys(n, 2)
    parts = [solve(_cup_rhs(cx, a, i, j)) for i, j in keys]
    if any(f is None for f in parts):
        return MasseyReport(MasseyStatus.UNDEFINED, None, stats)
    a.update(zip(keys, parts))

    def children(base, m, part, kernel):
        # every feasible combination's system, particular at offset m + 1
        for coeffs in itertools.product(range(p), repeat=len(kernel)):
            combo = (part + np.array(coeffs, dtype=np.int64) @ kernel) % p
            b = dict(base)
            for k, key in enumerate(_offset_keys(n, m)):
                b[key] = (base[key] + combo[k * z:(k + 1) * z] @ z1) % p
            for key in _offset_keys(n, m + 1):
                b[key] = solve(_cup_rhs(cx, b, *key))
                if b[key] is None:
                    raise InternalInconsistency(
                        f"feasible offset-{m} layer failed a solve above it")
            yield b, m + 1

    lins, first, combos = {}, None, 0
    # one iterator per swept offset; no recursion, whatever n is
    stack = [iter([(a, 2)])]
    while stack:
        b, m = next(stack[-1], (None, None))
        if b is None:
            stack.pop()
        elif m < n - 1:
            if m not in lins:
                lins[m] = _feasibility_matrix(cx, a, n, m, stats)
            rhs = [-cx.cokernel_coords(_cup_rhs(cx, b, i, j)) % p
                   for i, j in _offset_keys(n, m + 1)]
            feas = gf_core.solve_array(lins[m], np.concatenate(rhs), p)
            if feas is None and m == 2:
                stats["certificate"] = \
                    "third-layer feasibility system inconsistent"
                return MasseyReport(MasseyStatus.UNDEFINED, None, stats)
            if feas is None:
                continue
            part, kernel = feas
            key = f"layer{m}_combos"
            stats[key] = stats.get(key, 0) + p ** len(kernel)
            combos += p ** len(kernel)
            if combos > budget:
                raise BudgetExceeded(f"{_about(combos)} feasible middle "
                                     f"layers exceed budget {_about(budget)}",
                                     stats)
            stack.append(children(b, m, part, kernel))
        else:
            # "solves" counts the solves before any sweep, "examined" the
            # values tested inside one
            key = "examined" if swept else "solves"
            stats[key] = stats.get(key, 0) + 1
            if first is None:
                first, cups = b, _value_cups(cx, a[(1, 2)], a[(n, n + 1)])
            sol = _value_split(cx, cups, _cup_rhs(cx, b, 1, n + 1))
            if sol is not None:
                b[(2, n + 1)] = (b[(2, n + 1)] + sol[0] @ z1) % p
                b[(1, n)] = (b[(1, n)] + sol[1] @ z1) % p
                witness = _witness(cx, chars, b, zero_value=True)
                return MasseyReport(MasseyStatus.VANISHES, witness, stats)
    if first is None:
        stats["certificate"] = ("every feasible middle layer fails the "
                                "feasibility system of a higher layer")
        return MasseyReport(MasseyStatus.UNDEFINED, None, stats)
    stats["certificate"] = (
        "all feasible middle layers swept; every final-layer value coset "
        "misses the coboundaries" if swept else
        "value coset misses the coboundaries: one inconsistent linear system")
    return MasseyReport(MasseyStatus.DEFINED_NOT_VANISHING,
                        _witness(cx, chars, first), stats)


def _offset_keys(n: int, m: int) -> list:
    return [(i, i + m) for i in range(1, n + 2 - m)]


def _feasibility_matrix(cx, a: dict, n: int, m: int,
                        stats: dict) -> np.ndarray:
    """The offset-(m + 1) right-hand sides' cokernel coordinates as a
    linear map of the offset-m character coefficients, a row block per
    target a[i][j] and a column block per offset-m entry: a[i][j-1] enters
    through a[i][j-1] cup a[j-1][j], a[i+1][j] through a[i][i+1] cup it.
    Past ``_BYTE_BOUND`` bytes it raises ``BudgetExceeded`` unbuilt."""
    p, z1, coords = cx.p, cx.z1, cx.cokernel_coords
    z = len(z1)
    nrows = cx.d1_solver.rows - cx.d1_solver.rank
    targets = _offset_keys(n, m + 1)
    shape = (len(targets) * nrows, (len(targets) + 1) * z)
    if shape[0] * shape[1] * 8 > _BYTE_BOUND:
        raise BudgetExceeded(f"a {shape[0]} x {shape[1]} feasibility matrix "
                             f"exceeds {_BYTE_BOUND >> 20} MiB", stats)
    lin = np.zeros(shape, dtype=np.int64)
    for t, (i, j) in enumerate(targets):
        rows = slice(t * nrows, (t + 1) * nrows)
        lin[rows, (t + 1) * z:(t + 2) * z] = (
            -coords(cx.cup_gs(a[(i, i + 1)], z1).T)) % p
        lin[rows, t * z:(t + 1) * z] = (
            -coords(cx.cup_gs(z1, a[(j - 1, j)]).T)) % p
    return lin


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
    if zero_value and cx.cokernel_coords(_cup_rhs(cx, a, 1, n + 1)).any():
        raise InternalInconsistency("vanishing witness has nonzero value")
    return ds


# ---------------------------------------------------------------------------
# unitriangular lifts of presented groups
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _letter_index(pres: Presentation):
    """The relators as a read-only (relators, width) array of factor
    indices into [generators, their inverses, the identity], each padded
    with the identity to ``width``, the least power of two holding every
    relator."""
    gens = pres.generator_count
    longest = max(map(len, pres.relators), default=0)
    width = 1 << max(longest - 1, 0).bit_length()
    index = np.full((len(pres.relators), width), 2 * gens, dtype=np.intp)
    for row, r in zip(index, pres.relators):
        # letter k picks generator k - 1, letter -k its inverse
        row[:len(r)] = [x - 1 if x > 0 else gens - x - 1 for x in r]
    index.flags.writeable = False
    return index


def _relator_values(pres: Presentation, shape: UniShape, packed):
    """Every relator evaluated on a batch of lifts given as a
    (lifts, generators, positions) int64 array of packed ``UniMatrix``
    entries: a (lifts, relators, positions) array of packed entries, zero
    exactly where the relator holds.

    The words are padded with the identity, whose packed entries are
    zeros, to a common power-of-two width, and adjacent factors are
    multiplied pairwise until one is left: log2(width) batched products
    for all relators at once, exact since the product is associative.
    Products follow the plan of ``uni_mul`` and inverses the iteration of
    ``uni_inv``.
    """
    factors = np.concatenate([packed, _packed_inv(packed, shape),
                              np.zeros_like(packed[:, :1])], axis=1)
    f = factors[:, _letter_index(pres)]
    while f.shape[2] > 1:
        f = _packed_mul(f[:, :, 0::2], f[:, :, 1::2], shape)
    return f[:, :, 0]


def _check_lifts(pres: Presentation, shape: UniShape, packed,
                 characters) -> None:
    """Check a batch of packed lifts (see ``_relator_values``): there is
    one character per superdiagonal entry, every relator evaluates to the
    identity, and the superdiagonal carries the characters."""
    n = shape.size - 1
    if len(characters) != n:
        raise InvalidSystem("character count must match the shape")
    gens = packed.shape[1]
    failing = _relator_values(pres, shape, packed).any(axis=(0, 2))
    if failing.any():
        raise InvalidSystem(
            f"relator {pres.relators[failing.argmax()]} not satisfied by "
            "images")
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
    """UniLift objects for a batch of checked packed lifts.  One
    ``UniMatrix`` is built per distinct image, found in one pass over the
    batch, and every lift carrying that image shares it (the matrices are
    frozen): lifts differ from their neighbours in a few kernel
    coordinates, so most images repeat.  Images are told apart by their
    base-p codes while those fit in int64, else by sorting the rows."""
    p = shape.prime
    flat = packed.reshape(-1, packed.shape[2])
    if p ** flat.shape[1] < 2 ** 63:
        codes = flat @ p ** np.arange(flat.shape[1] - 1, -1, -1,
                                      dtype=np.int64)
        _, first, inverse = np.unique(codes, return_index=True,
                                      return_inverse=True)
    else:
        _, first, inverse = np.unique(flat, axis=0, return_index=True,
                                      return_inverse=True)
    matrices = np.fromiter(
        (UniMatrix(shape, e) for e in map(tuple, flat[first].tolist())),
        dtype=object, count=len(first))
    lifts = []
    for images in matrices[inverse.reshape(packed.shape[:2])].tolist():
        lift = object.__new__(UniLift)
        object.__setattr__(lift, "presentation", pres)
        object.__setattr__(lift, "shape", shape)
        object.__setattr__(lift, "images", tuple(images))
        object.__setattr__(lift, "characters", characters)
        lifts.append(lift)
    return lifts


def _placed(moves, kernel, cols, width: int, p: int):
    """Moves given by their coefficients over (Hom(G, Z/p) basis vector,
    position) pairs, as a (moves, generators, width) array of full-width
    packed shifts: each basis vector's combination at each of the
    positions ``cols``, zero elsewhere."""
    shifts = np.zeros((len(moves), kernel.shape[1], width), dtype=np.int64)
    shifts[:, :, cols] = _mod_matmul(
        kernel.T, moves.reshape(len(moves), len(kernel), len(cols)), p)
    return shifts


def _expand(lifts, directions, p: int):
    """Every row of a packed batch moved by every combination of the
    full-width packed ``directions``, one direction at a time."""
    for b in directions:
        moved = lifts[:, None] + np.arange(p)[:, None, None] * b
        moved %= p
        lifts = moved.reshape(-1, *lifts.shape[1:])
    return lifts


def _mod_matmul(a, b, p: int):
    """``a @ b`` mod p for integer arrays with entries below p in absolute
    value.  Each sum has a.shape[-1] products below p^2; when that can
    reach 2^63 the products are taken in Python integers."""
    if a.shape[-1] * (p - 1) ** 2 < 2 ** 63:
        return a @ b % p
    return (np.matmul(a.astype(object), b.astype(object)) % p).astype(
        np.int64)


class LiftSet(collections.abc.Sequence):
    """The lifts ``lift_search`` found, kept packed and factored.  Every
    lift is one of the partial lifts, which carry particular solutions up
    to the top offset with free entries, plus a combination of the
    ``directions``: full-width packed moves, each a kernel vector of the
    pairwise solve of the top two offsets (its offset t - 1 entries with
    the top change they force), or one Hom(G, Z/p) basis vector at one
    top position.

    ``len`` (rows x p^directions) and ``bool`` (rows > 0) expand nothing;
    past ``sys.maxsize``, ``len`` raises ``OverflowError`` as for any
    Python sequence, and ``bool`` still answers.  Indexing, negative
    indices, slicing and iteration give ``UniLift`` objects in the
    search's lexicographic order over (generator, free position): each
    read expands the rows along one direction at a time, sorts them in
    numpy and builds the lifts it returns, one ``UniMatrix`` per distinct
    image among them.  Nothing built is kept, so a lift read twice is
    built twice.
    """

    def __init__(self, presentation: Presentation, shape: UniShape,
                 characters, partials, directions):
        self.presentation = presentation
        self.shape = shape
        self.characters = characters
        self._partials = partials
        self._directions = directions

    def _count(self) -> int:
        return len(self._partials) * self.shape.prime ** len(self._directions)

    def __len__(self) -> int:
        return self._count()

    def __bool__(self) -> bool:
        return len(self._partials) > 0

    def __repr__(self) -> str:
        return (f"LiftSet({self.presentation.label!r}, {self.shape}, "
                f"{self._count()} lifts)")

    def _packed(self):
        """Every lift's packed entries, in order."""
        if not self:
            return self._partials
        lifts = _expand(self._partials, self._directions, self.shape.prime)
        if len(lifts) > 1:
            # the superdiagonal is constant, so this is the order over
            # (generator, free position)
            lifts = lifts[np.lexsort(lifts.reshape(len(lifts), -1).T[::-1])]
        return lifts

    def _build(self, packed) -> list[UniLift]:
        return _lifts_from_packed(self.presentation, self.shape, packed,
                                  self.characters)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._build(self._packed()[index])
        i = range(len(self))[index]
        return self._build(self._packed()[i:i + 1])[0]

    def __iter__(self):
        return iter(self[:])

    def __reversed__(self):
        return reversed(self[:])


@lru_cache(maxsize=64)
def _exponent_matrix(pres: Presentation):
    """The generators x relators exponent-sum matrix, read-only."""
    exponents = np.array(relator_exponent_matrix(pres), dtype=np.int64)
    exponents = exponents.reshape(pres.generator_count, len(pres.relators))
    exponents.flags.writeable = False
    return exponents


def _validate_char_rows(pres: Presentation, char_rows, p: int):
    gens = pres.generator_count
    rows = [tuple(int(v) % p for v in row) for row in char_rows]
    # the rows before the first of a wrong length, against every relator
    # at once in Python integers (exact at any p); a relator error there
    # comes first, as it would row by row
    sized = list(itertools.takewhile(lambda row: len(row) == gens, rows))
    sums = (np.array(sized, dtype=object).reshape(len(sized), gens)
            @ _exponent_matrix(pres))
    if (sums % p).any():
        raise ValueError("character values do not vanish on a relator")
    if len(sized) < len(rows):
        raise ValueError("one value per generator required")
    return rows


@lru_cache(maxsize=64)
def _exponent_solver(pres: Presentation, p: int):
    """The solver of the relators' exponent-sum system mod p, and its
    kernel basis (Hom(G, Z/p) on the generators), built once per
    (presentation, p) and shared by every search; the cached arrays are
    read-only."""
    solver = gf_core.PrimeSolver(_exponent_matrix(pres).T, p)
    kernel = solver.kernel_basis()
    for a in (solver.transform, solver.echelon, kernel):
        a.flags.writeable = False
    return solver, kernel


def lift_candidate_count(pres: Presentation, shape: UniShape) -> int:
    """Size of the space lift_search searches, which its budget bounds:
    every entry off the superdiagonal is free, for every generator."""
    free = sum(1 for (i, j) in shape.positions if j != i + 1)
    return shape.prime ** (free * pres.generator_count)


def _extend(pres: Presentation, shape: UniShape, lifts, low, top, solver,
            kernel):
    """Offsets m and m + 1 solved as one affine system, on partial lifts
    that are fixed below offset m, carry particular solutions at offset m
    (positions ``low``, none for m = 1: the superdiagonal is fixed) and
    zeros at offset m + 1 (positions ``top``).

    With the offsets below m + 1 fixed, the offset-(m+1) relator
    coordinates are the exponent-sum matrix applied to the offset-(m+1)
    entries, position by position, plus constants c read off with those
    entries at 0.  Moving the offset-m entries by s in Hom(G, Z/p)^low
    leaves every relator coordinate below offset m + 1 alone and moves
    those at m + 1 by L s, with one linear map L for every partial lift:
    since 2m > m + 1, offset-m entries reach offset m + 1 only through
    products with superdiagonal entries, which the characters fix, and
    the same holds in inverses.  L is read off the relators on the first
    partial lift moved along each unit direction, in the same pass that
    gives every partial lift's c.  With R the exponent solver's transform
    rows past its rank, a partial lift extends iff R(c + L s) = 0 has a
    solution s; one row reduction of [RL | every partial lift's -Rc]
    decides them all and gives each a particular s, with ker(RL) the
    further moves.  With nothing to move (m = 1, or Hom(G, Z/p) = 0) a
    partial lift extends iff Rc = 0, and nothing is row reduced.

    Returns the partial lifts that extend, with s applied and their
    offset-(m+1) particular solutions set, and one full-width packed
    direction per ker(RL) basis vector k: k at the offset-m positions,
    with the offset-(m+1) particular solution of -L k.
    """
    p, rank = shape.prime, solver.rank
    count, gens, width = lifts.shape
    dims = len(kernel) * len(low)
    batch = lifts
    if dims:
        # the first partial lift moved along each unit move
        batch = np.concatenate([lifts, (lifts[:1] + _placed(
            np.eye(dims, dtype=np.int64), kernel, low, width, p)) % p])
    # the transform applied to -c and to minus the probes' coordinates,
    # position by position: each sum has one product below p^2 per
    # relator, which the solver, built on those rows, keeps below 2^63
    y = solver.transform @ -_relator_values(pres, shape, batch)[:, :, top] % p
    past = (len(pres.relators) - rank) * len(top)
    rhs = y[:count, rank:].reshape(count, past).T
    if dims:
        tl = (y[:1] - y[count:]) % p   # T L, a row per unit move
        rl = tl[:, rank:].reshape(dims, past).T
        ech, pivots, _ = gf_core.rref_array(np.concatenate([rl, rhs], axis=1),
                                            p)
        pivots = [c for c in pivots if c < dims]
    else:
        ech, pivots = rhs, []
    # rows past RL's rank hold the rows of the left kernel of RL applied
    # to the right-hand sides
    solvable = ~ech[len(pivots):, dims:].any(axis=0)
    lifts, y = lifts[solvable], y[:count][solvable]
    # the offset-(m+1) particular solutions before any move
    part = np.zeros((len(lifts), gens, len(top)), dtype=np.int64)
    part[:, solver.pivots] = y[:, :rank]
    lifts[:, :, top] = part
    if not dims:
        return lifts, lifts[:0]
    moves = np.zeros((len(lifts), dims), dtype=np.int64)
    moves[:, pivots] = ech[:len(pivots), dims:][:, solvable].T
    moves = np.concatenate(
        [moves, gf_core._kernel_from_echelon(ech, pivots, dims, p)])
    # each move as offset-m entries and as its change -T L s of the
    # offset-(m+1) solve's pivot entries
    shifts = _placed(moves, kernel, low, width, p)
    change = _mod_matmul(moves, tl[:, :rank].reshape(dims, rank * len(top)),
                         p).reshape(len(moves), rank, len(top))
    part = np.zeros((len(moves), gens, len(top)), dtype=np.int64)
    part[:, solver.pivots] = -change % p
    shifts[:, :, top] = part
    return (lifts + shifts[:len(lifts)]) % p, shifts[len(lifts):]


def lift_search(pres: Presentation, char_rows, shape: UniShape,
                budget: int = DEFAULT_LIFT_BUDGET) -> LiftSet:
    """All homomorphisms into the shape lifting the character tuple, as a
    ``LiftSet``.

    Per generator the superdiagonal is frozen to the character values;
    the other entries are solved for one offset j - i at a time, up to
    the top offset t with free entries (n, or n - 1 in the barred
    quotient).  With the lower offsets fixed, the offset-k coordinates of
    a relator are the exponent-sum matrix applied to the offset-k
    entries, position by position, plus a constant read off by evaluating
    the relators with those entries at 0.  So each partial lift extends
    at offset k by one particular solution plus Hom(G, Z/p) (the kernel
    of that matrix) at each offset-k position, or not at all.  That
    matrix's solver and kernel are built once per (presentation, p) and
    reused by later searches.

    One routine, ``_extend``, solves offsets m and m + 1 as one affine
    system for every m = 1 .. t - 1: it keeps the partial lifts for which
    some move of their offset-m entries along Hom(G, Z/p) makes offset
    m + 1 solvable, and returns the feasible moves as a particular move
    per partial lift plus directions.  Below the top only those feasible
    moves are expanded, so no completion that fails the next offset is
    ever evaluated; the search returns an empty set at the first offset
    where no partial lift extends.  At the top the directions are kept,
    with one Hom(G, Z/p) basis vector at each top position among them,
    and expanding them is left to the ``LiftSet``.

    The lifts are verified from their packed entries (relators,
    superdiagonal, character count) by one factored check before the
    set is returned.  Every direction the ``LiftSet`` moves along is at
    offset t - 1 or t, so it changes no relator coordinate below t - 1;
    those at t - 1 and t are affine in the move, with a linear part that
    depends only on the superdiagonal, the same for every partial lift
    (the top offset is central: an element z carried by it multiplies as
    a z = z a = a + z).  The check runs on every partial lift and on the
    first of them moved along each direction: if those pass, every lift
    does.  With no free offset the one candidate is checked.

    ``len`` and ``bool`` of the result cost nothing more; indexing,
    slicing and iteration build ``UniLift`` objects for the lifts read,
    in lexicographic order over (generator, free position), and lifts
    built together share the ``UniMatrix`` of an image they have in
    common.
    """
    p = shape.prime
    n = shape.size - 1
    rows = _validate_char_rows(pres, char_rows, p)
    if len(rows) != n:
        raise ValueError(f"need {n} characters for size {shape.size}")
    total = lift_candidate_count(pres, shape)
    if total > budget:
        raise BudgetExceeded(
            f"{_about(total)} candidates exceed budget {_about(budget)}",
            {"candidates": total})
    gens = pres.generator_count
    positions = shape.positions
    solver, kernel = _exponent_solver(pres, p)

    chars = tuple(rows)
    lifts = np.zeros((1, gens, len(positions)), dtype=np.int64)
    for i in range(1, n + 1):
        lifts[0, :, positions.index((i, i + 1))] = rows[i - 1]
    offset_cols = [[c for c, (i, j) in enumerate(positions) if j - i == k]
                   for k in sorted({j - i for (i, j) in positions} - {1})]
    low, directions = [], lifts[:0]
    for top in offset_cols:
        lifts, directions = _extend(pres, shape,
                                    _expand(lifts, directions, p), low, top,
                                    solver, kernel)
        if not len(lifts):
            return LiftSet(pres, shape, chars, lifts, directions)
        low = top
    # and one Hom(G, Z/p) basis vector at each top position
    directions = np.concatenate([directions, _placed(
        np.eye(len(kernel) * len(low), dtype=np.int64), kernel, low,
        len(positions), p)])
    # the factored check (see the docstring)
    _check_lifts(pres, shape,
                 np.concatenate([lifts, (lifts[:1] + directions) % p]), chars)
    return LiftSet(pres, shape, chars, lifts, directions)


def defining_system_from_lift(lift: UniLift,
                              group: FiniteGroup) -> DefiningSystem:
    """The defining system of coordinate functions of a corner-free lift,
    pushed onto a finite realization of the presentation.  An unbarred
    lift is first projected to the corner-free quotient.

    The group must carry element words in the presentation's generators;
    all words advance one letter per step, in one batch of packed
    products, and the induced map is checked to be multiplicative on the
    full table."""
    if group.element_words is None:
        raise ValueError("group does not carry element words")
    shape = lift.shape.barred_shape()
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
    entries = {ij: Cochain(group, 1, shape.prime, imgs[:, c])
               for c, ij in enumerate(shape.positions)}
    return DefiningSystem(group, shape.prime, shape.size - 1, entries)


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
    clause); both sides are computed independently and compared.  The
    one order cap is that of G's H^2 basis (``H2_ORDER_LIMIT``).
    """
    p = 2
    for c in (chi1, chi2, chi3):
        if c.modulus != p:
            raise ValueError("mod-2 characters required")
    if not chi1.is_surjective_mod_p():
        raise ValueError("chi1 must be nonzero")
    lhs = massey_status_finite(group, [chi1, chi2, chi3, chi1])
    h = kernel_of_character(group, chi1)
    hchars = characters_of(h.as_group, p)
    hx = cochain_complex(h.as_group, p)
    res3 = hx.char_vec(restriction(chi3, h))
    # every test below reads the cokernel coordinates of a cup of
    # characters, a cocycle, on H: zero iff the cup is a coboundary, and
    # annihilated by ``res_ann`` iff it is a restricted class plus one
    res_ann = gf_core.nullspace_array(
        _restriction_matrix(cochain_complex(group, p), h).T, p)

    cor_cache = {c.values.tobytes(): corestriction_deg1(c, h) for c in hchars}

    def cor(c):
        return cor_cache[c.values.tobytes()]

    defined_wit = None
    vanish_wit = None
    for phi in hchars:
        if cor(phi) != chi2:
            continue
        phi_vec = hx.char_vec(phi)
        if hx.cokernel_coords(hx.cup_gs(phi_vec, res3)).any():
            continue
        for psi in hchars:
            if cor(psi) != chi3:
                continue
            pp = hx.cokernel_coords(hx.cup_gs(phi_vec, hx.char_vec(psi)))
            if vanish_wit is None and not pp.any():
                vanish_wit = (tuple(phi.values.tolist()),
                              tuple(psi.values.tolist()))
            if defined_wit is None and not (res_ann @ pp % p).any():
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
