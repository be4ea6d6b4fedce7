"""Exact linear algebra over Z/p and over the integers.

Prime fields are handled on numpy integer arrays, the one mod-p API of
the package: row reduction, nullspaces, single solves, and a solver
that reuses one echelon transform across many right-hand sides.
Integer matrices get a Smith normal form with unimodular transforms in
exact (arbitrary-precision) arithmetic; that decomposition backs
abelianization invariants, integral kernels, and solvability of linear
congruences mod prime powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, NonPrimeModulus

__all__ = [
    "SmithDecomposition",
    "smith_normal_form",
    "rref_array",
    "nullspace_array",
    "solve_array",
    "PrimeSolver",
    "integer_kernel_basis",
    "solve_integer",
    "solve_congruence",
    "is_prime",
]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _pick_dtype(p: int):
    # Row updates compute r - c*pivot with entries in [0, p); keep headroom.
    return np.int16 if p < 128 else np.int64


# ---------------------------------------------------------------------------
# array layer (prime modulus)
# ---------------------------------------------------------------------------

def rref_array(a: np.ndarray, p: int):
    """Reduced row-echelon form mod prime p.

    Returns ``(echelon, pivots, rank)``.  The input is not modified.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise DimensionMismatch("expected a 2-d array")
    work = np.array(a % p, dtype=_pick_dtype(p))
    rows, cols = work.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(work[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            work[[r, piv]] = work[[piv, r]]
        inv = pow(int(work[r, c]), -1, p)
        work[r] = (work[r] * inv) % p
        hit = np.nonzero(work[:, c])[0]
        hit = hit[hit != r]
        if hit.size:
            work[hit] = (work[hit] - np.outer(work[hit, c], work[r])) % p
        pivots.append(c)
        r += 1
    return work.astype(np.int64), pivots, r


def _kernel_from_echelon(ech: np.ndarray, pivots, cols: int,
                         p: int) -> np.ndarray:
    """Right-kernel basis, one vector per free column, read off a reduced
    echelon form whose leading rows carry ``pivots``; only the first
    ``cols`` columns are read."""
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-ech[:len(pivots), free].T) % p
    return basis


def nullspace_array(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel mod p, one vector per row."""
    ech, pivots, _ = rref_array(a, p)
    return _kernel_from_echelon(ech, pivots, ech.shape[1], p)


def solve_array(a: np.ndarray, b: np.ndarray, p: int):
    """Solve a.x = b mod p.  Returns (particular, kernel_basis) or None.

    One row reduction of [a | b] gives both: when the system is
    consistent every pivot lies in the a-block, and that block of the
    echelon form is the reduced echelon form of a.
    """
    a = np.asarray(a) % p
    b = np.asarray(b) % p
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch("matrix and right-hand side disagree")
    cols = a.shape[1]
    aug = np.concatenate([a, b.reshape(-1, 1)], axis=1)
    ech, pivots, rank = rref_array(aug, p)
    if pivots and pivots[-1] == cols:
        return None
    x = np.zeros(cols, dtype=np.int64)
    x[pivots] = ech[:rank, cols]
    return x, _kernel_from_echelon(ech, pivots, cols, p)


class PrimeSolver:
    """Echelon machinery for one matrix A mod p, reused across many solves.

    Precomputes a transform T with T.A in reduced echelon form, so that
    solvability and particular solutions for many right-hand sides reduce
    to matrix products.
    """

    def __init__(self, a: np.ndarray, p: int):
        if not is_prime(p):
            raise NonPrimeModulus(f"modulus {p} is not prime")
        a = np.asarray(a) % p
        self.p = p
        self.rows, self.cols = a.shape
        aug = np.concatenate(
            [a, np.eye(self.rows, dtype=np.int64)], axis=1)
        ech, pivots, rank = rref_array(aug, p)
        # Pivots inside the A-block are genuine pivots of A; later ones come
        # from the identity block and index the cokernel rows.
        self.pivots = [c for c in pivots if c < self.cols]
        self.rank = len(self.pivots)
        self.transform = ech[:, self.cols:]
        self.echelon = ech[: self.rank, : self.cols]

    def solve(self, b: np.ndarray) -> Optional[np.ndarray]:
        # b is reduced here: public callers may pass any integers
        y = (self.transform @ (np.asarray(b) % self.p)) % self.p
        if y[self.rank:].any():
            return None
        x = np.zeros(self.cols, dtype=np.int64)
        x[self.pivots] = y[: self.rank]
        return x

    def kernel_basis(self) -> np.ndarray:
        return _kernel_from_echelon(self.echelon, self.pivots, self.cols,
                                    self.p)


# ---------------------------------------------------------------------------
# integers: Smith normal form and congruences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmithDecomposition:
    """U.A.V = diag(diag) with U, V unimodular over Z.

    ``diag`` lists the nonzero elementary divisors d_1 | d_2 | ... ; the
    diagonal is padded with zeros to the matrix shape.
    """

    left: tuple[tuple[int, ...], ...]
    diag: tuple[int, ...]
    right: tuple[tuple[int, ...], ...]
    source: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.diag)


def smith_normal_form(matrix) -> SmithDecomposition:
    """Smith normal form over Z with minimal-absolute-value pivoting.

    Arithmetic is plain Python integers, so relator matrices with large
    intermediate coefficients cannot overflow.
    """
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    m = len(a[0]) if n else 0
    if any(len(row) != m for row in a):
        raise DimensionMismatch("ragged rows")
    source = tuple(tuple(row) for row in a)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(m)] for i in range(m)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        arow, srow = a[dst], a[src]
        for j in range(m):
            arow[j] += c * srow[j]
        urow, usrc = u[dst], u[src]
        for j in range(n):
            urow[j] += c * usrc[j]

    def add_col(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(n, m)
    while t < limit:
        best = None
        for i in range(t, n):
            for j in range(t, m):
                x = a[i][j]
                if x and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            swap_rows(t, best[0])
        if best[1] != t:
            swap_cols(t, best[1])
        while True:
            # clear column t then row t; restart if a smaller pivot shows up
            dirty = False
            for i in range(t + 1, n):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, m):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # pivot must divide the rest of the submatrix
        need_restart = False
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if a[i][j] % a[t][t]:
                    add_row(t, i, 1)
                    need_restart = True
                    break
            if need_restart:
                break
        if need_restart:
            continue
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    diag = tuple(a[i][i] for i in range(t))
    return SmithDecomposition(
        left=tuple(tuple(row) for row in u),
        diag=diag,
        right=tuple(tuple(row) for row in v),
        source=source,
    )


def integer_kernel_basis(matrix) -> list[list[int]]:
    """Basis of {x in Z^cols : A.x = 0} as a direct summand of Z^cols."""
    snf = smith_normal_form(matrix)
    m = len(snf.right)
    cols = []
    for j in range(m):
        if j >= snf.rank or snf.diag[j] == 0:
            cols.append([snf.right[i][j] for i in range(m)])
    return cols


def solve_integer(matrix, b) -> Optional[list[int]]:
    """One integral solution of A.x = b, or None."""
    snf = smith_normal_form(matrix)
    n = len(snf.left)
    m = len(snf.right)
    b = [int(x) for x in b]
    if len(b) != n:
        raise DimensionMismatch("right-hand side length != row count")
    c = [sum(snf.left[i][k] * b[k] for k in range(n)) for i in range(n)]
    y = [0] * m
    for i in range(n):
        if i < snf.rank:
            d = snf.diag[i]
            if c[i] % d:
                return None
            y[i] = c[i] // d
        elif c[i]:
            return None
    return [sum(snf.right[i][k] * y[k] for k in range(m)) for i in range(m)]


def solve_congruence(matrix, b, modulus: int) -> Optional[list[int]]:
    """One solution of A.x = b (mod modulus), or None.

    Mixed-modulus conditions can be encoded by pre-scaling rows: a row
    meant mod p^j inside a system mod p^n is multiplied through by
    p^(n-j) first.
    """
    snf = smith_normal_form(matrix)
    n = len(snf.left)
    m = len(snf.right)
    b = [int(x) for x in b]
    if len(b) != n:
        raise DimensionMismatch("right-hand side length != row count")
    c = [sum(snf.left[i][k] * b[k] for k in range(n)) % modulus for i in range(n)]
    y = [0] * m
    for i in range(n):
        d = snf.diag[i] if i < snf.rank else 0
        if d == 0:
            if c[i] % modulus:
                return None
            continue
        g = math.gcd(d, modulus)
        if c[i] % g:
            return None
        md = modulus // g
        y[i] = (c[i] // g) * pow((d // g) % md, -1, md) % md if md > 1 else 0
    return [sum(snf.right[i][k] * y[k] for k in range(m)) % modulus
            for i in range(m)]

