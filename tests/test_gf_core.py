import itertools
import math
import random
import signal
import time
from contextlib import contextmanager

import numpy as np
import pytest

from masseykit import gf_core as gf
from masseykit import groups as gr
from masseykit.errors import DimensionMismatch, MasseykitError

from helpers import bareiss_det


def test_rref_identity_mod_2():
    ech, pivots, rank = gf.rref_array(np.array([[1, 0], [0, 1]]), 2)
    assert ech.tolist() == [[1, 0], [0, 1]]
    assert pivots == [0, 1]
    assert rank == 2


def test_rref_zero_mod_3():
    ech, pivots, rank = gf.rref_array(np.zeros((3, 3), dtype=np.int64), 3)
    assert ech.tolist() == [[0, 0, 0]] * 3
    assert pivots == []
    assert rank == 0


def test_rref_hand_reduction():
    # hand row-reduction: subtract row 1 from row 2
    ech, pivots, rank = gf.rref_array(np.array([[1, 1], [1, 1]]), 2)
    assert ech.tolist() == [[1, 1], [0, 0]]
    assert rank == 1


def test_rref_preserves_row_space():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(10):
            rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
            a = np.array([[rng.randrange(p) for _ in range(cols)]
                          for _ in range(rows)])
            ech, pivots, rank = gf.rref_array(a, p)
            stacked = np.vstack([a, ech])
            assert gf.rref_array(stacked, p)[2] == rank


def test_solve_identity():
    res = gf.solve_array(np.array([[1, 0], [0, 1]]), np.array([2, 1]), 3)
    assert res is not None
    particular, kernel = res
    assert particular.tolist() == [2, 1]
    assert kernel.tolist() == []


def test_solve_zero_map():
    particular, kernel = gf.solve_array(np.zeros((2, 2), dtype=np.int64),
                                        np.array([0, 0]), 2)
    assert particular.tolist() == [0, 0]
    assert sorted(kernel.tolist()) == [[0, 1], [1, 0]]


def test_solve_exhaustive_oracle():
    # A = [[1,1]] mod 2, b = [1]: brute force over all four vectors
    a = np.array([[1, 1]])
    solutions = {tuple(v) for v in itertools.product(range(2), repeat=2)
                 if (a @ v) % 2 == 1}
    particular, kernel = gf.solve_array(a, np.array([1]), 2)
    assert tuple(particular) in solutions
    assert len(kernel) == 1
    reached = {tuple((particular + c * kernel[0]) % 2) for c in range(2)}
    assert reached == solutions


def test_solve_inconsistent():
    assert gf.solve_array(np.array([[0, 0]]), np.array([1]), 2) is None


def test_solve_resubstitution_random():
    rng = random.Random(3)
    for p in (2, 3):
        for _ in range(20):
            rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
            a = np.array([[rng.randrange(p) for _ in range(cols)]
                          for _ in range(rows)])
            x = np.array([rng.randrange(p) for _ in range(cols)])
            b = (a @ x) % p
            res = gf.solve_array(a, b, p)
            assert res is not None
            particular, kernel = res
            assert np.array_equal((a @ particular) % p, b)
            for k in kernel:
                assert not ((a @ k) % p).any()


def test_rank_nullity_exhaustive_kernel():
    rng = random.Random(11)
    cases = [(2, 12), (2, 8), (3, 7), (3, 5)]
    for p, cols in cases:
        rows = rng.randrange(1, 6)
        a = np.array([[rng.randrange(p) for _ in range(cols)]
                      for _ in range(rows)])
        _, _, rank = gf.rref_array(a, p)
        vectors = np.array(list(itertools.product(range(p), repeat=cols)))
        in_kernel = ~np.any((vectors @ a.T) % p, axis=1)
        assert int(in_kernel.sum()) == p ** (cols - rank)


def test_solve_kernel_is_the_nullspace():
    # the kernel read off the echelon of [a | b] is the basis that
    # nullspace_array and PrimeSolver give for a alone
    rng = random.Random(17)
    for p in (2, 3, 5):
        for _ in range(40):
            rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
            a = np.array([[rng.randrange(p) for _ in range(cols)]
                          for _ in range(rows)])
            b = (a @ np.array([rng.randrange(p) for _ in range(cols)])) % p
            particular, kernel = gf.solve_array(a, b, p)
            assert np.array_equal((a @ particular) % p, b)
            assert np.array_equal(kernel, gf.nullspace_array(a, p))
            assert np.array_equal(kernel, gf.PrimeSolver(a, p).kernel_basis())


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        gf.solve_array(np.array([[1, 0]]), np.array([1, 0]), 2)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def test_moduli_past_int64_products_are_refused():
    # at p = 4294967311 the products wrap around int64: the solve used to
    # return an x with A x - b = (478281325, 478281100) mod p
    p = 4294967311
    a = [[p - 1, p - 2], [p - 3, p - 5]]
    with pytest.raises(MasseykitError):
        gf.PrimeSolver(a, p)
    with pytest.raises(MasseykitError):
        gf.rref_array(a, p)
    # a solver's products are sums over its rows: 2 (p - 1)^2 < 2^63 here
    p = 2 ** 31 - 1
    a = np.array([[p - 1, p - 2], [p - 3, p - 5]], dtype=object)
    x = gf.PrimeSolver(a, p).solve([1, 2])
    assert ((a @ x.astype(object) - [1, 2]) % p == 0).all()
    with pytest.raises(MasseykitError):
        gf.PrimeSolver(np.ones((3, 1), dtype=np.int64), p)


def test_snf_identity():
    snf = gf.smith_normal_form([[1, 0], [0, 1]])
    assert snf.diag == (1, 1)


def test_snf_twos():
    snf = gf.smith_normal_form([[2, 0], [0, 2]])
    assert snf.diag == (2, 2)


def test_snf_example_subgroup_relators():
    # relator exponent matrix of the index-2 kernel of the bundled
    # two-generator example group, frozen from a hand Schreier rewriting:
    # relators a a b^-1 b^-1 and b b c a^-1 a^-1 c^-1 on generators a, b, c
    mat = [[2, -2, 0], [-2, 2, 0]]
    snf = gf.smith_normal_form(mat)
    assert snf.diag == (2,)
    # free rank of the quotient on 3 generators
    assert 3 - snf.rank == 2


def _check_decomposition(a):
    snf = gf.smith_normal_form(a)
    u = np.array(snf.left)
    v = np.array(snf.right)
    d = u @ np.array(a) @ v
    expect = np.zeros_like(d)
    for i, x in enumerate(snf.diag):
        expect[i, i] = x
    assert np.array_equal(d, expect)
    for i in range(len(snf.diag) - 1):
        assert snf.diag[i + 1] % snf.diag[i] == 0
        assert snf.diag[i] > 0
    assert abs(bareiss_det(snf.left)) == 1
    assert abs(bareiss_det(snf.right)) == 1
    return snf


def test_snf_random_small():
    rng = random.Random(5)
    for _ in range(30):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        a = [[rng.randrange(-9, 10) for _ in range(cols)]
             for _ in range(rows)]
        _check_decomposition(a)


def test_snf_large_entries():
    _check_decomposition([[2 ** 40, 3 ** 25], [5 ** 18, 7 ** 14]])


@contextmanager
def _watchdog(seconds):
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


def _determinantal_quotients(a):
    """D_k / D_(k-1), D_k the gcd of the k x k minors, while D_k != 0."""
    rows, cols = len(a), len(a[0])
    quotients, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        d = 0
        for r in itertools.combinations(range(rows), k):
            for c in itertools.combinations(range(cols), k):
                d = math.gcd(d, bareiss_det([[a[i][j] for j in c]
                                             for i in r]))
        if d == 0:
            break
        quotients.append(d // prev)
        prev = d
    return tuple(quotients)


def test_snf_dense_sweep():
    # small dense matrices on which a clear/swap/restart loop let the
    # coefficients grow: seconds per matrix, transform entries of
    # 400,000 bits
    rng = random.Random(1)
    mats = []
    for _ in range(300):
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
        mats.append([[rng.randrange(-9, 10) for _ in range(cols)]
                     for _ in range(rows)])
    with _watchdog(10):
        start = time.perf_counter()
        for a in mats:
            snf = _check_decomposition(a)
            if len(a) <= 5 and len(a[0]) <= 5:
                assert snf.diag == _determinantal_quotients(a), a
        elapsed = time.perf_counter() - start
    assert elapsed < 2.0


def test_abelianization_of_dense_relators():
    # exponent sums, generators x relators, that a clear/swap/restart
    # loop did not reduce within 20 s
    sums = [[9, 8, 0, 7, 4], [8, 7, 4, 9, 0], [5, 0, -5, 7, 5],
            [9, -5, 8, -4, -1], [-9, 4, 9, -8, 2], [4, 3, 0, -9, -7],
            [-7, -9, 3, -1, 5]]
    relators = tuple(
        tuple(x for i, row in enumerate(sums)
              for x in [i + 1 if row[j] > 0 else -(i + 1)] * abs(row[j]))
        for j in range(5))
    pres = gr.Presentation(7, relators)
    assert gr.relator_exponent_matrix(pres) == sums
    with _watchdog(10):
        ab = gr.abelianization(pres)
    assert (ab.free_rank, ab.torsion) == (2, ())
