"""Finite groups as tables, finitely presented groups as relators.

Words over a presentation are tuples of nonzero integers: letter k > 0 is
generator k, letter -k the inverse of generator k (1-based).  Finite
groups carry dense multiplication and inverse tables validated at
construction, an optional shipped presentation with a generator-to-element
map, and, for groups built by closure, the breadth-first word of every
element in those generators.  On top of that live subgroup data with
canonical transversals, abelianization through Smith normal form,
Reidemeister-Schreier rewriting for kernels of maps onto finite quotients,
and lifting of characters through prime-power moduli.

Every walk over a table group's Cayley graph x -> x s is the one
breadth-first search ``_cayley_tree``: generated subgroups, subgroup
enumeration by one-element joins, Reidemeister-Schreier coset trees,
isomorphism words and the Z^2 walk of the cochain complex.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    NotHomomorphism,
    NotSurjective,
    UnknownName,
)
from .gf_core import is_prime, smith_normal_form, solve_array

__all__ = [
    "Word",
    "inverse_word",
    "commutator_word",
    "Presentation",
    "FiniteGroup",
    "GroupHom",
    "SubgroupData",
    "AbelianStructure",
    "closure_group",
    "catalog",
    "evaluate_word",
    "kernel_of_character",
    "subgroup_from_members",
    "enumerate_subgroups",
    "abelianization",
    "reidemeister_schreier",
    "RSResult",
    "hom_lift_to_Zmod",
    "are_isomorphic",
]

Word = tuple[int, ...]

DEFAULT_CLOSURE_BUDGET = 4096
SUBGROUP_ORDER_LIMIT = 64


def _check_word(w: Sequence[int]) -> Word:
    w = tuple(int(x) for x in w)
    if any(x == 0 for x in w):
        raise ValueError("words cannot contain zero letters")
    return w


def inverse_word(w: Sequence[int]) -> Word:
    return tuple(-x for x in reversed(tuple(w)))


def free_reduce(w: Sequence[int]) -> Word:
    out: list[int] = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def commutator_word(a: Sequence[int], b: Sequence[int]) -> Word:
    a, b = tuple(a), tuple(b)
    return free_reduce(a + b + inverse_word(a) + inverse_word(b))


@dataclass(frozen=True)
class Presentation:
    """Finitely presented group: generator count plus relator words."""

    generator_count: int
    relators: tuple[Word, ...]
    label: str = ""

    def __post_init__(self):
        rel = tuple(_check_word(r) for r in self.relators)
        object.__setattr__(self, "relators", rel)
        for r in rel:
            if any(abs(x) > self.generator_count for x in r):
                raise ValueError("relator letter exceeds generator count")


class FiniteGroup:
    """Finite group as a validated multiplication table.

    Elements are indices 0..order-1.  ``elements`` optionally keeps the
    raw objects (matrices, permutations, tuples) behind the indices, and
    ``element_words`` a word in the shipped generators for each element.
    """

    def __init__(self, mul_table, names=None, label="",
                 known_presentation: Optional[Presentation] = None,
                 generator_map: Optional[Sequence[int]] = None,
                 elements=None, element_words=None):
        mul = np.array(mul_table, dtype=np.int64)
        n = mul.shape[0]
        if mul.shape != (n, n):
            raise ValueError("multiplication table must be square")
        if mul.min() < 0 or mul.max() >= n:
            raise ValueError("table entries out of range")
        idx = np.arange(n)
        identity = None
        for e in range(n):
            if np.array_equal(mul[e], idx) and np.array_equal(mul[:, e], idx):
                identity = e
                break
        if identity is None:
            raise ValueError("table has no two-sided identity")
        mul.setflags(write=False)
        self.order = n
        self.mul = mul
        self.identity = identity
        # Light's test: the a with (xa)y = x(ay) for all x, y contain e and
        # are closed under products, and the greedy sequence reaches every
        # element as a product e s_1 ... s_k, so checking its members
        # decides associativity.  It runs over row blocks of about 2^16
        # entries, so no order^2 temporary is made
        gens: list[int] = []
        reached = {identity}
        while len(reached) < n:
            gens.append(next(i for i in range(n) if i not in reached))
            reached = _generated_members(self, gens)
        step = max(1, 2 ** 16 // n)
        for s in gens:
            for lo in range(0, n, step):
                rows = mul[lo:lo + step]
                if not np.array_equal(mul[rows[:, s]], rows[:, mul[s]]):
                    raise ValueError("table is not associative")
        self._gens = tuple(gens)
        inv = np.full(n, -1, dtype=np.int64)
        for a in range(n):
            hits = np.nonzero(mul[a] == identity)[0]
            if hits.size != 1 or mul[hits[0], a] != identity:
                raise ValueError("table has no unique two-sided inverse")
            inv[a] = hits[0]
        inv.setflags(write=False)
        self.inv = inv
        self.element_names = tuple(names) if names else tuple(
            f"g{i}" for i in range(n))
        self.label = label or "group"
        self.known_presentation = known_presentation
        self.generator_map = tuple(generator_map) if generator_map else None
        self.elements = tuple(elements) if elements is not None else None
        self.element_words = (tuple(tuple(w) for w in element_words)
                              if element_words is not None else None)

    def __repr__(self):
        return f"FiniteGroup({self.label!r}, order={self.order})"

    def mul_idx(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inv_idx(self, a: int) -> int:
        return int(self.inv[a])

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return int(self.mul[self.mul[g, x], self.inv[g]])

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv_idx(a), -k)
        acc = self.identity
        for _ in range(k):
            acc = int(self.mul[acc, a])
        return acc

    def order_of(self, a: int) -> int:
        k, acc = 1, a
        while acc != self.identity:
            acc = int(self.mul[acc, a])
            k += 1
        return k

    def element_orders(self) -> list[int]:
        return [self.order_of(a) for a in range(self.order)]


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism given by generator images (presentation source) or
    element images (finite source); validated at construction."""

    source: object
    target: FiniteGroup
    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(int(i) for i in self.images))
        if isinstance(self.source, Presentation):
            if len(self.images) != self.source.generator_count:
                raise NotHomomorphism("one image per generator required")
            for r in self.source.relators:
                if evaluate_word(r, self.images, self.target) \
                        != self.target.identity:
                    raise NotHomomorphism(f"relator {r} not satisfied")
        elif isinstance(self.source, FiniteGroup):
            src = self.source
            if len(self.images) != src.order:
                raise NotHomomorphism("one image per element required")
            im = np.array(self.images)
            if not np.array_equal(im[src.mul],
                                  self.target.mul[im[:, None], im[None, :]]):
                raise NotHomomorphism("images are not multiplicative")
        else:
            raise TypeError("source must be a Presentation or FiniteGroup")


# ---------------------------------------------------------------------------
# building groups
# ---------------------------------------------------------------------------

_GEN_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _element_ops(gen):
    """(identity, mul, inv) for raw closure elements."""
    if isinstance(gen, tuple):  # permutation: i -> gen[i]
        n = len(gen)
        ident = tuple(range(n))

        def mul(a, b):
            return tuple(a[b[i]] for i in range(n))

        def inv(a):
            out = [0] * n
            for i, v in enumerate(a):
                out[v] = i
            return tuple(out)

        return ident, mul, inv
    # anything with * and .inverse(), e.g. UniMatrix
    if hasattr(gen, "identity_like"):
        ident = gen.identity_like()
    else:
        ident = gen * gen.inverse()
    return ident, (lambda a, b: a * b), (lambda a: a.inverse())


def closure_group(generators, budget: int = DEFAULT_CLOSURE_BUDGET,
                  label: str = "", names=None) -> FiniteGroup:
    """Smallest group containing the generators, as a table group.

    Elements are discovered breadth-first from the identity with the
    generators applied on the right in the given order, which fixes the
    indexing; each element keeps its discovery word.
    """
    generators = list(generators)
    if not generators:
        triv = FiniteGroup([[0]], names=["e"], label=label or "trivial",
                           elements=None, element_words=[()])
        return triv
    ident, mul, inv = _element_ops(generators[0])
    elems = [ident]
    index = {ident: 0}
    words: list[Word] = [()]
    parent: list[Optional[tuple[int, int]]] = [None]
    # successors[a][k]: index of elems[a] * generators[k]
    successors: list[list[int]] = []
    head = 0
    while head < len(elems):
        x = elems[head]
        row = []
        for k, g in enumerate(generators):
            y = mul(x, g)
            if y not in index:
                if len(elems) >= budget:
                    raise BudgetExceeded(
                        f"closure exceeds budget {budget}",
                        {"discovered": len(elems)})
                index[y] = len(elems)
                elems.append(y)
                words.append(words[head] + (k + 1,))
                parent.append((head, k))
            row.append(index[y])
        successors.append(row)
        head += 1
    n = len(elems)
    gen_idx = [index[g] for g in generators]
    table = np.zeros((n, n), dtype=np.int64)
    table[:, 0] = np.arange(n)
    table[:, gen_idx] = successors
    # fill columns in discovery order: col(x*g) follows from col(x)
    for j in range(1, n):
        pj = parent[j]
        if pj is None:
            continue
        x, k = pj
        if j in gen_idx and x == 0:
            continue  # generator column already filled directly
        table[:, j] = table[table[:, x], gen_idx[k]]
    if names is None:
        names = ["e"] + ["".join(_GEN_LETTERS[l - 1] for l in w)
                         for w in words[1:]]
    return FiniteGroup(table, names=names, label=label or "closure",
                       generator_map=gen_idx, elements=elems,
                       element_words=words)


def evaluate_word(w: Sequence[int], images, group: FiniteGroup | None = None):
    """Product of images along a word; inverses for negative letters.

    With ``group`` given, images are element indices in it; without, the
    images must support ``*`` and ``.inverse()`` (or be permutation
    tuples) and at least one image is required.
    """
    w = _check_word(w)
    if group is not None:
        acc = group.identity
        for x in w:
            g = images[abs(x) - 1]
            acc = group.mul_idx(acc, g if x > 0 else group.inv_idx(g))
        return acc
    if not images:
        raise ValueError("need at least one image to infer the identity")
    ident, mul, inv = _element_ops(images[0])
    acc = ident
    for x in w:
        g = images[abs(x) - 1]
        acc = mul(acc, g if x > 0 else inv(g))
    return acc


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _abelian(moduli: Sequence[int], label: str, name: Callable,
             keep_elements: bool = True) -> FiniteGroup:
    """Z/m_1 x ... x Z/m_k on the digit tuples in ``itertools.product``
    order, so an element's index is its mixed-radix value, first digit
    most significant.  Presented by each generator's power and the
    commutators of the pairs; ``name`` labels an element from its digits."""
    # one factor Z/m at a time: (a, x), a in the product so far, sits at
    # index a m + x, and (a, x)(b, y) = (ab, x + y)
    table = np.zeros((1, 1), dtype=np.int64)
    for m in moduli:
        n, r = len(table), np.arange(m)
        table = (table[:, None, :, None] * m
                 + ((r[:, None] + r) % m)[:, None, :]).reshape(n * m, n * m)
    k = len(moduli)
    gen_map = [math.prod(moduli[i + 1:]) * (1 % m)
               for i, m in enumerate(moduli)]
    rel = [(i + 1,) * m for i, m in enumerate(moduli)]
    rel += [commutator_word((i + 1,), (j + 1,))
            for i in range(k) for j in range(i + 1, k)]
    tuples = list(itertools.product(*map(range, moduli)))
    words = [sum(((i + 1,) * t for i, t in enumerate(digits)), ())
             for digits in tuples]
    return FiniteGroup(
        table, names=[name(t) for t in tuples], label=label,
        known_presentation=Presentation(k, tuple(rel), label=label),
        generator_map=gen_map, elements=tuples if keep_elements else None,
        element_words=words)


def _dihedral(order: int) -> FiniteGroup:
    if order % 2 or order < 2:
        raise UnknownName(f"dihedral({order}): order must be even")
    m = order // 2
    # indices: r^i at i, s*r^i at m+i; since r^i s = s r^-i, the
    # rotation of a product is j - i when the right factor carries s.
    # Each m x m quadrant is filled in place, so no order^2 temporary is
    # made, and in int32, which FiniteGroup widens in the copy it keeps
    r = np.arange(m, dtype=np.int32)
    table = np.empty((order, order), dtype=np.int32)
    rot, refl = table[:m, :m], table[m:, m:]
    np.remainder(np.add.outer(r, r, out=rot), m, out=rot)
    np.remainder(np.subtract.outer(m - r, m - r, out=refl), m, out=refl)
    np.add(rot, m, out=table[m:, :m])
    np.add(refl, m, out=table[:m, m:])
    rel = ((1,) * m, (2, 2), (2, 1, -2, 1))
    pres = Presentation(2, rel, label=f"dihedral({order})")
    names = [f"r{i}" if i else "e" for i in range(m)]
    names += [f"sr{i}" if i else "s" for i in range(m)]
    words = [(1,) * i for i in range(m)] + [(2,) + (1,) * i for i in range(m)]
    return FiniteGroup(
        table, names=names, label=f"dihedral({order})",
        known_presentation=pres, generator_map=[1 % m, m],
        element_words=words)


_Q8_AXES = "1ijk"


def _quaternion8() -> FiniteGroup:
    # elements: (sign, axis) with axis in {1, i, j, k}
    elems = [(1, 0), (-1, 0), (1, 1), (-1, 1), (1, 2), (-1, 2), (1, 3), (-1, 3)]
    idx = {e: k for k, e in enumerate(elems)}
    mul_axis = {}
    for a in range(1, 4):
        mul_axis[(0, a)] = (1, a)
        mul_axis[(a, 0)] = (1, a)
        mul_axis[(a, a)] = (-1, 0)
    mul_axis[(0, 0)] = (1, 0)
    for (a, b, c) in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
        mul_axis[(a, b)] = (1, c)
        mul_axis[(b, a)] = (-1, c)

    def mul(x, y):
        s1, a1 = elems[x]
        s2, a2 = elems[y]
        s3, a3 = mul_axis[(a1, a2)]
        return idx[(s1 * s2 * s3, a3)]

    table = [[mul(x, y) for y in range(8)] for x in range(8)]
    rel = ((1, 1, 1, 1), (1, 1, -2, -2), (2, 1, -2, 1))
    pres = Presentation(2, rel, label="quaternion8")
    names = [("" if s > 0 else "-") + _Q8_AXES[a] for (s, a) in elems]
    words = [(), (1, 1), (1,), (1, 1, 1), (2,), (1, 1, 2), (1, 2), (2, 1)]
    return FiniteGroup(table, names=names, label="quaternion8",
                       known_presentation=pres,
                       generator_map=[idx[(1, 1)], idx[(1, 2)]],
                       element_words=words)


def _unitriangular_catalog(size: int, p: int) -> FiniteGroup:
    from . import unitriangular as ut
    shape = ut.UniShape(size, p)
    gens = [ut.sigma(shape, i) for i in range(1, size)]
    g = closure_group(gens, label=f"u{size}({p})")
    k = size - 1
    rel: list[Word] = [(i + 1,) * p for i in range(k)]
    rel += [commutator_word((i + 1,), (j + 1,))
            for i in range(k) for j in range(i + 1, k) if j - i >= 2]
    for i in range(k - 1):
        y = commutator_word((i + 1,), (i + 2,))
        rel.append(commutator_word(y, (i + 1,)))
        rel.append(commutator_word(y, (i + 2,)))
    if size == 4:
        y12 = commutator_word((1,), (2,))
        y23 = commutator_word((2,), (3,))
        rel.append(commutator_word(y12, y23))
        w = commutator_word(y12, (3,))
        rel.append(free_reduce(w + inverse_word(commutator_word((1,), y23))))
        for i in range(k):
            rel.append(commutator_word(w, (i + 1,)))
    g.known_presentation = Presentation(k, tuple(rel), label=f"u{size}({p})")
    return g


_CATALOG_RE = re.compile(r"^([a-z]+[0-9]*)(?:\((\d+(?:,\d+)*)\))?$")


def catalog(name: str) -> FiniteGroup:
    """Named groups: cyclic(m), product(a,b), dihedral(2m), quaternion8,
    u3(p), u4(p), elementary(p,k).  Each ships a presentation.  A name
    whose group has more than ``DEFAULT_CLOSURE_BUDGET`` elements raises
    BudgetExceeded before anything is built."""
    m = _CATALOG_RE.match(name.strip())
    if not m:
        raise UnknownName(f"cannot parse group name {name!r}")
    base, args = m.group(1), m.group(2)
    try:
        args = [int(x) for x in args.split(",")] if args else []
    except ValueError:  # more digits than int() converts
        raise UnknownName(f"cannot parse group name {name!r}")
    arity = {"cyclic": 1, "product": 2, "elementary": 2, "dihedral": 1,
             "quaternion8": 0, "u3": 1, "u4": 1}
    if arity.get(base) != len(args):
        raise UnknownName(f"unknown catalog group {name!r}")
    # the order from the name alone, with p^k's exponent cut where any
    # p >= 2 already passes the budget
    if base == "elementary":
        order = args[0] ** min(args[1], DEFAULT_CLOSURE_BUDGET.bit_length())
    else:
        order = math.prod(args) ** {"u3": 3, "u4": 6}.get(base, 1)
    if order > DEFAULT_CLOSURE_BUDGET:
        raise BudgetExceeded(f"{name.strip()} has more than "
                             f"{DEFAULT_CLOSURE_BUDGET} elements")
    if base == "cyclic" and args[0] >= 1:
        return _abelian(args, f"cyclic({args[0]})",
                        lambda t: f"x{t[0]}" if t[0] else "e",
                        keep_elements=False)
    if base == "product" and min(args) >= 1:
        return _abelian(args, "product({},{})".format(*args),
                        lambda t: "({},{})".format(*t))
    if base == "elementary" and args[1] >= 1:
        p, k = args
        if not is_prime(p):
            raise UnknownName(f"elementary({p},{k}): {p} is not prime")
        return _abelian([p] * k, f"elementary({p},{k})", str)
    if base == "dihedral":
        return _dihedral(args[0])
    if base == "quaternion8":
        return _quaternion8()
    if base in ("u3", "u4") and is_prime(args[0]):
        return _unitriangular_catalog(int(base[1]), args[0])
    raise UnknownName(f"unknown catalog group {name!r}")


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

@dataclass
class SubgroupData:
    """A subgroup with a canonical left-coset transversal (identity first)."""

    parent: FiniteGroup
    member_indices: tuple[int, ...]
    transversal: tuple[int, ...]
    as_group: FiniteGroup
    parent_to_sub: dict = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.member_indices)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def is_normal(self) -> bool:
        g = self.parent
        members = set(self.member_indices)
        return all(g.conj(x, h) in members
                   for x in range(g.order) for h in self.member_indices)

    def coset_lookup(self) -> np.ndarray:
        """coset_of[x] = position in the transversal with x in r*H."""
        g = self.parent
        out = np.full(g.order, -1, dtype=np.int64)
        for pos, r in enumerate(self.transversal):
            for h in self.member_indices:
                out[g.mul_idx(r, h)] = pos
        return out


def subgroup_from_members(parent: FiniteGroup,
                          members: Sequence[int]) -> SubgroupData:
    members = tuple(sorted(set(int(x) for x in members)))
    m = np.array(members, dtype=np.int64)
    inside = np.zeros(parent.order, dtype=bool)
    inside[m] = True
    if not inside[parent.identity]:
        raise ValueError("subgroup must contain the identity")
    if not inside[parent.inv[m]].all():
        raise ValueError("member set not closed under inverse")
    products = parent.mul[np.ix_(m, m)]
    if not inside[products].all():
        raise ValueError("member set not closed under product")
    pos = {x: i for i, x in enumerate(members)}
    sub_index = np.zeros(parent.order, dtype=np.int64)
    sub_index[m] = np.arange(len(members))
    sub = FiniteGroup(sub_index[products],
                      names=[parent.element_names[x] for x in members],
                      label=f"{parent.label}-sub{len(members)}")
    covered = np.zeros(parent.order, dtype=bool)
    transversal = []
    for x in [parent.identity] + [i for i in range(parent.order)
                                  if i != parent.identity]:
        if covered[x]:
            continue
        transversal.append(x)
        covered[parent.mul[x, m]] = True
    return SubgroupData(parent, members, tuple(transversal), sub, pos)


def _cayley_tree(g: FiniteGroup, gens: Sequence[int]):
    """Breadth-first spanning tree of the Cayley graph x -> x s, s in
    ``gens``, from the identity: the elements of the subgroup generated
    by ``gens`` in discovery order, with generators tried in the given
    order, and a dict sending each element to the (parent, generator
    position) edge that first reached it (None for the identity)."""
    columns = [g.mul[:, s].tolist() for s in gens]
    order = [g.identity]
    parent: dict[int, Optional[tuple[int, int]]] = {g.identity: None}
    for x in order:
        for k, col in enumerate(columns):
            y = col[x]
            if y not in parent:
                parent[y] = (x, k)
                order.append(y)
    return order, parent


def _generated_members(g: FiniteGroup, seed) -> frozenset:
    return frozenset(_cayley_tree(g, seed)[0])


def kernel_of_character(g: FiniteGroup, chi, modulus: int | None = None
                        ) -> SubgroupData:
    """Kernel of a surjective character to Z/p with its cyclic transversal.

    The transversal is e, t, t^2, ..., t^(p-1) for the smallest-index t
    with chi(t) = 1.
    """
    values = list(chi.values) if hasattr(chi, "values") else list(chi)
    p = modulus or getattr(chi, "modulus", None)
    if p is None:
        raise ValueError("modulus required when chi is a bare value list")
    if not is_prime(p):
        raise NotSurjective(f"target modulus {p} must be prime")
    if len(values) != g.order:
        raise NotHomomorphism("need one value per element")
    v = np.array(values, dtype=np.int64) % p
    # additive on G x S, S the generating sequence, and zero at e: then
    # additive on G x G by induction on word length (see ``Character``);
    # with S empty only the second test sees anything
    gens = _generating_sequence(g)
    if v[g.identity] or not np.array_equal(
            v[g.mul[:, gens]], (v[:, None] + v[gens][None, :]) % p):
        raise NotHomomorphism("values are not additive on the table")
    if not v.any():
        raise NotSurjective("character is zero")
    ones = np.nonzero(v == 1)[0]
    t = int(ones[0])
    sub = subgroup_from_members(g, [i for i in range(g.order) if v[i] == 0])
    transversal = tuple(g.power(t, k) for k in range(p))
    return SubgroupData(sub.parent, sub.member_indices, transversal,
                        sub.as_group, sub.parent_to_sub)


def enumerate_subgroups(g: FiniteGroup) -> list[SubgroupData]:
    """All subgroups, found by joining one element at a time to the
    subgroups already found, from the trivial one up."""
    if g.order > SUBGROUP_ORDER_LIMIT:
        raise BudgetExceeded(
            f"subgroup enumeration capped at order {SUBGROUP_ORDER_LIMIT}")
    # every subgroup found, with a generating list of it
    found = {frozenset([g.identity]): ()}
    pending = list(found)
    while pending:
        members = pending.pop()
        gens = found[members]
        for x in range(g.order):
            if x in members:
                continue
            join = _generated_members(g, gens + (x,))
            if join not in found:
                found[join] = gens + (x,)
                pending.append(join)
    ordered = sorted(found, key=lambda s: (len(s), sorted(s)))
    return [subgroup_from_members(g, sorted(s)) for s in ordered]


# ---------------------------------------------------------------------------
# abelianization and character lifting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbelianStructure:
    """Z^free_rank + sum Z/d_i with the image of every generator."""

    free_rank: int
    torsion: tuple[int, ...]
    generator_images: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    # each image is (torsion coordinates mod d_i, free coordinates)


def relator_exponent_matrix(p: Presentation) -> list[list[int]]:
    """generators x relators matrix of letter-exponent sums."""
    mat = [[0] * len(p.relators) for _ in range(p.generator_count)]
    for j, r in enumerate(p.relators):
        for x in r:
            mat[abs(x) - 1][j] += 1 if x > 0 else -1
    return mat


def abelianization(p: Presentation) -> AbelianStructure:
    mat = relator_exponent_matrix(p)
    g = p.generator_count
    if not p.relators:
        images = tuple(((), tuple(int(i == j) for i in range(g)))
                       for j in range(g))
        return AbelianStructure(g, (), images)
    snf = smith_normal_form(mat)
    torsion_pos = [i for i, d in enumerate(snf.diag) if d >= 2]
    torsion = tuple(snf.diag[i] for i in torsion_pos)
    free_rows = list(range(snf.rank, g))
    images = []
    for j in range(g):
        col = [snf.left[i][j] for i in range(g)]
        tor = tuple(col[i] % snf.diag[i] for i in torsion_pos)
        free = tuple(col[i] for i in free_rows)
        images.append((tor, free))
    return AbelianStructure(g - snf.rank, torsion, tuple(images))


def hom_lift_to_Zmod(source, chi_values: Sequence[int], prime: int,
                     exponent: int) -> Optional[tuple[int, ...]]:
    """Lift a character to Z/p through Z/p^exponent, if possible.

    ``source`` is a Presentation or AbelianStructure, with abelianization
    Z^free_rank + sum Z/d_i.  One solve mod p gives the character's values
    on the free factors and on the torsion factors with p | d_i (it
    vanishes on the others); NotHomomorphism when there is none.  A
    homomorphism to Z/p^n sends Z/d_i into the multiples of
    p^n / gcd(d_i, p^n), so the character lifts iff it vanishes on every
    factor with p^n not dividing d_i.  Returns the per-generator values
    mod p^exponent of the canonical lift, which takes the character's
    values in 0..p-1 on the factors, or None when no lift exists.
    """
    ab = abelianization(source) if isinstance(source, Presentation) else source
    if not is_prime(prime):
        raise ValueError(f"{prime} is not prime")
    if exponent < 1:
        raise ValueError("exponent must be >= 1")
    n_tor = len(ab.torsion)
    gens = len(ab.generator_images)
    chi = [int(c) % prime for c in chi_values]
    if len(chi) != gens:
        raise ValueError("one character value per generator required")
    images = [tor + free for tor, free in ab.generator_images]
    factors = [i for i, d in enumerate(ab.torsion) if d % prime == 0]
    factors += range(n_tor, n_tor + ab.free_rank)
    a = np.array([[img[i] % prime for i in factors] for img in images],
                 dtype=np.int64).reshape(gens, len(factors))
    sol = solve_array(a, np.array(chi, dtype=np.int64), prime)
    if sol is None:
        raise NotHomomorphism(
            "input values are not a character of the abelianization")
    values = sol[0].tolist()
    m = prime ** exponent
    if any(v and i < n_tor and ab.torsion[i] % m
           for i, v in zip(factors, values)):
        return None
    return tuple(sum(img[i] * v for i, v in zip(factors, values)) % m
                 for img in images)


# ---------------------------------------------------------------------------
# Reidemeister-Schreier
# ---------------------------------------------------------------------------

@dataclass
class RSResult:
    """Kernel presentation with the rewriting data that produced it."""

    kernel: Presentation
    generator_words: tuple[Word, ...]   # kernel generator -> word of P
    transversal_words: tuple[Word, ...]
    _scan: Callable = field(repr=False)

    def rewrite_word(self, w: Sequence[int]) -> Word:
        """Rewrite a word of P lying in the kernel into kernel generators."""
        return self._scan(_check_word(w), check_closed=True)


def reidemeister_schreier(p: Presentation, f: GroupHom) -> RSResult:
    """Present the kernel of a surjection onto a finite group.

    Schreier generators are w_q g_i w_(q.f(g_i))^-1 over the breadth-first
    transversal; relators are the scans of every relator of ``p`` from
    every coset.
    """
    if not isinstance(f.source, Presentation):
        raise TypeError("hom source must be the presentation")
    q = f.target
    images = f.images
    # cosets are elements of q, explored breadth-first
    order, parent = _cayley_tree(q, images)
    if len(order) != q.order:
        raise NotSurjective("generator images do not reach every coset")
    tree = set(parent.values())
    trans_word: dict[int, Word] = {q.identity: ()}
    for c in order[1:]:
        c0, i = parent[c]
        trans_word[c] = trans_word[c0] + (i + 1,)

    gen_of_pair: dict[tuple[int, int], int] = {}
    gen_words: list[Word] = []
    for c in order:
        for i in range(p.generator_count):
            if (c, i) in tree:
                continue
            c2 = q.mul_idx(c, images[i])
            gen_of_pair[(c, i)] = len(gen_words)
            gen_words.append(free_reduce(
                trans_word[c] + (i + 1,) + inverse_word(trans_word[c2])))

    def scan(word: Word, start: int = None, check_closed: bool = False) -> Word:
        c = q.identity if start is None else start
        start_c = c
        out: list[int] = []
        for x in word:
            i = abs(x) - 1
            if x > 0:
                pair = (c, i)
                c = q.mul_idx(c, images[i])
                if pair not in tree:
                    out.append(gen_of_pair[pair] + 1)
            else:
                c = q.mul_idx(c, q.inv_idx(images[i]))
                pair = (c, i)
                if pair not in tree:
                    out.append(-(gen_of_pair[pair] + 1))
        if check_closed and c != start_c:
            raise ValueError("word does not lie in the kernel")
        return free_reduce(tuple(out))

    relators = []
    for c in order:
        for r in p.relators:
            rw = scan(r, start=c)
            if rw:
                relators.append(rw)
    kernel = Presentation(len(gen_words), tuple(relators),
                          label=f"ker({p.label or 'P'})")
    return RSResult(kernel, tuple(gen_words),
                    tuple(trans_word[c] for c in order), scan)


# ---------------------------------------------------------------------------
# brute-force isomorphism (small orders)
# ---------------------------------------------------------------------------

def _generating_sequence(g: FiniteGroup) -> list[int]:
    """Greedy generating set, found when the table was validated: each
    generator is the smallest element outside the subgroup generated by
    the ones before it."""
    return list(g._gens)


def are_isomorphic(a: FiniteGroup, b: FiniteGroup) -> bool:
    """Table isomorphism by brute-force relabeling; meant for order <= 16."""
    if a.order != b.order:
        return False
    if sorted(a.element_orders()) != sorted(b.element_orders()):
        return False
    gens = _generating_sequence(a)
    if not gens:
        return True
    # words of every element of a in those generators
    order, parent = _cayley_tree(a, gens)
    words: dict[int, Word] = {a.identity: ()}
    for y in order[1:]:
        x, k = parent[y]
        words[y] = words[x] + (k + 1,)
    orders_a = [a.order_of(s) for s in gens]
    b_orders = b.element_orders()
    candidates = [[i for i in range(b.order) if b_orders[i] == o]
                  for o in orders_a]

    for choice in itertools.product(*candidates):
        fmap = np.empty(a.order, dtype=np.int64)
        for x, w in words.items():
            fmap[x] = evaluate_word(w, choice, b) if w else b.identity
        if len(set(fmap.tolist())) != a.order:
            continue
        if np.array_equal(fmap[a.mul], b.mul[fmap[:, None], fmap[None, :]]):
            return True
    return False
