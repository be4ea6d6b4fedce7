"""Checks made apart from masseykit.

Everything here is the benchmark's own arithmetic: mod-p elimination,
cochain coboundaries and cups over a multiplication table, homomorphism
counts from relator exponent sums, and dense matrix products in plain
Python.  It imports nothing from masseykit, so a fault in the program
cannot hide behind the same fault in its checker.
"""

from __future__ import annotations

import itertools

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with an independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# mod-p elimination
# ---------------------------------------------------------------------------

def echelon(a, p: int):
    """Row echelon form of ``a`` mod p; returns (rows, pivot columns)."""
    m = np.array(a, dtype=np.int64) % p
    if m.ndim != 2:
        m = m.reshape(1, -1) if m.size else np.zeros((0, 0), dtype=np.int64)
    pivots = []
    r = 0
    for c in range(m.shape[1]):
        if r == m.shape[0]:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        m[[r, k]] = m[[k, r]]
        m[r] = (m[r] * pow(int(m[r, c]), p - 2, p)) % p
        below = r + 1 + np.flatnonzero(m[r + 1:, c])
        if below.size:
            m[below] = (m[below] - np.outer(m[below, c], m[r])) % p
        pivots.append(c)
        r += 1
    return m[:r], pivots


def rank_mod_p(a, p: int) -> int:
    a = np.asarray(a)
    if a.size == 0:
        return 0
    return len(echelon(a, p)[1])


def in_column_space(a, b, p: int) -> bool:
    """Whether a.x = b has a solution mod p."""
    a = np.asarray(a, dtype=np.int64).reshape(len(b), -1)
    aug = np.concatenate([a, np.asarray(b, dtype=np.int64).reshape(-1, 1)],
                         axis=1)
    return rank_mod_p(aug, p) == rank_mod_p(a, p)


# ---------------------------------------------------------------------------
# cochains over a multiplication table
# ---------------------------------------------------------------------------

class Table:
    """A finite group given only by its multiplication table."""

    def __init__(self, mul, p: int):
        self.mul = np.asarray(mul, dtype=np.int64)
        self.order = self.mul.shape[0]
        idx = np.arange(self.order)
        self.identity = int(next(e for e in range(self.order)
                                 if np.array_equal(self.mul[e], idx)))
        self.p = p
        self._d1 = None

    def d(self, f):
        """Coboundary of a degree-1 or degree-2 cochain (trivial action)."""
        f = np.asarray(f, dtype=np.int64)
        m = self.mul
        if f.ndim == 1:
            return (f[None, :] - f[m] + f[:, None]) % self.p
        return (f[None, :, :] - f[m] + f[:, m] - f[:, :, None]) % self.p

    def cup(self, a, b):
        return np.multiply.outer(np.asarray(a), np.asarray(b)) % self.p

    def normalized(self, f) -> bool:
        f = np.asarray(f)
        e = self.identity
        return not any(np.take(f, e, axis=k).any() for k in range(f.ndim))

    def d1_matrix(self):
        """Matrix of d on all degree-1 cochains; columns index elements."""
        if self._d1 is None:
            n = self.order
            rows = np.arange(n * n)
            g, h = rows // n, rows % n
            mat = np.zeros((n * n, n), dtype=np.int64)
            np.add.at(mat, (rows, h), 1)
            np.add.at(mat, (rows, self.mul[g, h]), -1)
            np.add.at(mat, (rows, g), 1)
            self._d1 = mat % self.p
        return self._d1

    def is_coboundary(self, z) -> bool:
        """Whether a degree-2 cochain is d of some degree-1 cochain."""
        return in_column_space(self.d1_matrix(), np.ravel(z) % self.p, self.p)

    def is_character(self, v) -> bool:
        v = np.asarray(v, dtype=np.int64)
        return not ((v[:, None] + v[None, :] - v[self.mul]) % self.p).any()


def check_defining_system(t: Table, chars, entries: dict, n: int,
                          want_zero_value: bool) -> None:
    """Re-check a witness: d(a[i][j]) = -sum_l a[i][l] cup a[l][j] for
    every inner entry, superdiagonal entries equal to the characters, and,
    for a vanishing verdict, a value -sum_l a[1][l] cup a[l][n+1] that is
    a coboundary."""
    p = t.p
    want = {(i, j) for i in range(1, n + 2) for j in range(i + 1, n + 2)
            if (i, j) != (1, n + 1)}
    require(set(entries) == want, "witness has the wrong positions")
    for key, a in entries.items():
        require(np.asarray(a).shape == (t.order,), f"entry {key} is not 1-d")
        require(t.normalized(a), f"entry {key} is not normalized")
    for i in range(1, n + 1):
        require(np.array_equal(np.asarray(entries[(i, i + 1)]) % p,
                               np.asarray(chars[i - 1]) % p),
                 f"entry {(i, i + 1)} is not character {i}")
    for (i, j) in want:
        if j - i < 2:
            continue
        rhs = sum(t.cup(entries[(i, l)], entries[(l, j)])
                  for l in range(i + 1, j))
        require(np.array_equal(t.d(entries[(i, j)]), (-rhs) % p),
                f"defining equation fails at {(i, j)}")
    value = (-sum(t.cup(entries[(1, l)], entries[(l, n + 1)])
                  for l in range(2, n + 1))) % p
    require(not t.d(value).any(), "witness value is not a cocycle")
    if want_zero_value:
        require(t.is_coboundary(value),
                "Vanishes witness has a value that is not a coboundary")


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

def exponent_sums(relator, gens: int):
    v = [0] * gens
    for x in relator:
        v[abs(x) - 1] += 1 if x > 0 else -1
    return v


def hom_rows(relators, gens: int, p: int):
    """All homomorphisms to Z/p, as generator value rows, by brute force."""
    sums = [exponent_sums(r, gens) for r in relators]
    return [row for row in itertools.product(range(p), repeat=gens)
            if all(sum(a * b for a, b in zip(s, row)) % p == 0 for s in sums)]


def hom_dimension(relators, gens: int, p: int) -> int:
    """h with p^h = |Hom(G, Z/p)|, by brute force."""
    count = len(hom_rows(relators, gens, p))
    h = 0
    while p ** h < count:
        h += 1
    require(p ** h == count, f"{count} homomorphisms is not a power of {p}")
    return h


def dense(matrix) -> list:
    """A UniMatrix as a dense list of rows (corner 0 when barred)."""
    s = matrix.shape.size
    m = [[int(i == j) for j in range(s)] for i in range(s)]
    for (i, j), e in zip(matrix.shape.positions, matrix.entries):
        m[i - 1][j - 1] = e
    return m


def word_value(word, row, p: int) -> int:
    return sum(row[abs(x) - 1] if x > 0 else -row[abs(x) - 1]
               for x in word) % p


def character_values(element_words, row, p: int):
    """Values of the character with generator values ``row`` on every
    element, read off the element words."""
    return np.array([word_value(w, row, p) for w in element_words],
                    dtype=np.int64)


def _mat_mul(a, b, p):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n)]
            for i in range(n)]


def _mat_inv(a, p):
    # (I + N)^-1 = I - N + N^2 - ... for strictly upper N
    n = len(a)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    nil = [[(a[i][j] - eye[i][j]) % p for j in range(n)] for i in range(n)]
    acc, term = eye, eye
    for k in range(1, n):
        term = _mat_mul(term, nil, p)
        sign = -1 if k % 2 else 1
        acc = [[(acc[i][j] + sign * term[i][j]) % p for j in range(n)]
               for i in range(n)]
    return acc


def satisfies_relators(images, relators, p: int, barred: bool) -> bool:
    """Relators evaluated by dense products; the corner entry is ignored
    when the images live in the corner-free quotient (it is central)."""
    n = len(images[0])
    inverses = [_mat_inv(m, p) for m in images]
    for r in relators:
        acc = [[int(i == j) for j in range(n)] for i in range(n)]
        for x in r:
            acc = _mat_mul(acc, images[x - 1] if x > 0 else inverses[-x - 1],
                           p)
        if barred:
            acc[0][n - 1] = 0
        if acc != [[int(i == j) for j in range(n)] for i in range(n)]:
            return False
    return True


def check_lift_counts(n: int, p: int, h: int, barred: int,
                      unbarred: int) -> None:
    """Counting laws of lifts into U(n+1, p) and its corner-free quotient.

    Unbarred lifts over one barred lift form a torsor under Hom(G, Z/p)
    (the corner column), so their count is a multiple of p^h and at most
    barred * p^h.  For n = 2 the quotient is abelian on the superdiagonal
    and has one lift; for n = 3 the two offset-2 positions are each a
    torsor under Hom(G, Z/p) or empty.
    """
    ph = p ** h
    require(unbarred % ph == 0,
            f"unbarred count {unbarred} is not a multiple of p^h = {ph}")
    require(unbarred <= barred * ph,
            f"unbarred count {unbarred} exceeds barred {barred} * p^h")
    if n == 2:
        require(barred == 1, f"n = 2 barred count {barred} is not 1")
    if n == 3:
        require(barred in (0, p ** (2 * h)),
                f"n = 3 barred count {barred} is not 0 or p^(2h)")


def lift_verdict(barred: int, unbarred: int) -> str:
    """Dwyer: a defining system exists iff a corner-free lift does, and
    one with value zero iff a lift into U(n+1, p) does."""
    if not barred:
        return "Undefined"
    return "Vanishes" if unbarred else "DefinedNotVanishing"


# ---------------------------------------------------------------------------
# standard cohomology dimensions
# ---------------------------------------------------------------------------

def standard_dims(kind: str, params, p: int):
    """(dim H^1, dim H^2) of G with F_p coefficients.

    By the universal coefficient theorem dim H^2 = d_p(G^ab) + d_p(M(G))
    with M the Schur multiplier; d_p counts cyclic factors of order
    divisible by p.
    """
    if kind == "abelian":
        r = sum(1 for m in params if m % p == 0)
        return r, r * (r + 1) // 2                 # Kunneth
    if kind == "dihedral" and p == 2 and params[0] % 4 == 0:
        # H^*(D_2m; F_2), m even, has Poincare series 1/(1-t)^2
        return 2, 3
    raise ValueError(f"no standard dimensions for {kind}")


def bockstein_rank_abelian(params, p: int) -> int:
    """Rank of the Bockstein H^1 -> H^2 of an abelian group: the number of
    cyclic factors whose p-part has order exactly p."""
    return sum(1 for m in params if m % p == 0 and m // p % p != 0)
