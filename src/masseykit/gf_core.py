"""Exact linear algebra over Z/p and over the integers.

Prime fields are handled on numpy integer arrays, the one mod-p API of
the package: row reduction, nullspaces, single solves, and a solver
that reuses one echelon transform across many right-hand sides.
Integer matrices get a Smith normal form with unimodular transforms in
exact (arbitrary-precision) arithmetic, one clearing pass per pivot
pick; its diagonal and transforms give abelianization invariants, and
its diagonal alone decides formal Hilbert 90 per subgroup and the
exactness of the integral resolution over U(3, F_2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, MasseykitError, NonPrimeModulus

__all__ = [
    "SmithDecomposition",
    "smith_normal_form",
    "rref_array",
    "nullspace_array",
    "solve_array",
    "PrimeSolver",
    "is_prime",
]


# the first twelve primes: as Miller-Rabin bases they decide primality
# exactly for every n below _MR_BOUND, about 3.18e23 (Sorenson and
# Webster, Math. Comp. 86, 2017), which covers every int64 modulus
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Exact primality: division by the bases, then deterministic
    Miller-Rabin below ``_MR_BOUND`` and trial division above it."""
    if n <= 3:
        return n >= 2
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:
        return True
    n = int(n)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n < _MR_BOUND:
        return True
    d = 41
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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
    if (p - 1) ** 2 >= 2 ** 63:
        raise MasseykitError(f"products mod {p} overflow int64")
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


def _check_sums(rows: int, p: int):
    if rows * (p - 1) ** 2 >= 2 ** 63:
        raise MasseykitError(
            f"sums of {rows} products mod {p} overflow int64")


class PrimeSolver:
    """Echelon machinery for one matrix A mod p, reused across many solves.

    Holds a transform T, rows x rows, with T.A = [E; 0] for E the reduced
    echelon form of A: the first ``rank`` rows of T give the pivot values
    of the free-variables-zero solution, and the rows past the rank
    annihilate im(A).  So solvability and particular solutions for many
    right-hand sides reduce to matrix products, each a sum of ``rows``
    products below p^2.  The constructor finds T by row reducing [A | I];
    ``from_transform`` takes a T found another way.
    """

    def __init__(self, a: np.ndarray, p: int):
        if not is_prime(p):
            raise NonPrimeModulus(f"modulus {p} is not prime")
        a = np.asarray(a) % p
        rows, cols = a.shape
        _check_sums(rows, p)
        aug = np.concatenate(
            [a, np.eye(rows, dtype=np.int64)], axis=1)
        ech, pivots, _ = rref_array(aug, p)
        # Pivots inside the A-block are genuine pivots of A; later ones come
        # from the identity block and index the cokernel rows.
        pivots = [c for c in pivots if c < cols]
        self._hold(ech[:, cols:], ech[:len(pivots), :cols], pivots, p)

    @classmethod
    def from_transform(cls, transform: np.ndarray, echelon: np.ndarray,
                       pivots, p: int) -> "PrimeSolver":
        """The solver of a matrix A whose T (``transform``, rows x rows,
        entries in [0, p)) and reduced echelon form E (``echelon``, with
        its leading columns ``pivots``) are already known, T.A = [E; 0]."""
        if not is_prime(p):
            raise NonPrimeModulus(f"modulus {p} is not prime")
        _check_sums(transform.shape[0], p)
        solver = cls.__new__(cls)
        solver._hold(transform, echelon, list(pivots), p)
        return solver

    def _hold(self, transform, echelon, pivots, p):
        self.p = p
        self.rows, self.cols = transform.shape[0], echelon.shape[1]
        self.pivots = pivots
        self.rank = len(pivots)
        self.transform = transform
        self.echelon = echelon

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
# integers: Smith normal form
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

    @property
    def rank(self) -> int:
        return len(self.diag)


def smith_normal_form(matrix) -> SmithDecomposition:
    """Smith normal form over Z with minimal-absolute-value pivoting.

    Each pass moves an entry of least absolute value in the remaining
    block to the pivot and clears its column and row once by floor
    division.  A remainder, or a row added to the pivot row because the
    pivot does not divide one of its entries, makes the next pick
    smaller, so the loop ends.  Plain Python integers cannot overflow.
    """
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    m = len(a[0]) if n else 0
    if any(len(row) != m for row in a):
        raise DimensionMismatch("ragged rows")
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(m)] for i in range(m)]

    def add_row(dst, src, c):
        for mat in (a, u):
            drow = mat[dst]
            for j, x in enumerate(mat[src]):
                if x:
                    drow[j] += c * x

    t = 0
    while t < min(n, m):
        best = min(((abs(a[i][j]), i, j) for i in range(t, n)
                    for j in range(t, m) if a[i][j]), default=None)
        if best is None:
            break
        _, bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        u[t], u[bi] = u[bi], u[t]
        for row in a + v:
            row[t], row[bj] = row[bj], row[t]
        piv = a[t][t]
        for i in range(t + 1, n):
            if a[i][t]:
                add_row(i, t, -(a[i][t] // piv))
        for j in range(t + 1, m):
            q = a[t][j] // piv
            if q:
                for row in a + v:
                    if row[t]:
                        row[j] -= q * row[t]
        # a unit pivot leaves no remainder and divides every entry
        if abs(piv) > 1:
            if any(a[i][t] for i in range(t + 1, n)) or any(a[t][t + 1:]):
                continue
            bad = next((i for i in range(t + 1, n)
                        if any(x % piv for x in a[i][t + 1:])), None)
            if bad is not None:
                add_row(t, bad, 1)
                continue
        if piv < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    return SmithDecomposition(tuple(map(tuple, u)),
                              tuple(a[i][i] for i in range(t)),
                              tuple(map(tuple, v)))
