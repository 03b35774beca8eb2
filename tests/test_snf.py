import random

from hypothesis import given, settings
from hypothesis import strategies as st

from posetmorse.homology import smith_diagonal
from posetmorse.intmatrix import IntMatrix
from posetmorse.snf import diagonal_form, smith_normal_form

from helpers import determinant, kernel_basis, matrix_rank, mul_vec, solve


def mat(rows):
    return IntMatrix(len(rows), len(rows[0]) if rows else 0, rows)


def test_single_entry():
    assert smith_normal_form(mat([[2]])).diagonal == (2,)


def test_diag_one_zero():
    snf = smith_normal_form(mat([[1, 0], [0, 0]]))
    assert snf.diagonal == (1, 0)


def test_known_torsion():
    # boundary-like matrix with invariant factors 1, 2
    snf = smith_normal_form(mat([[2, 4], [0, 2]]))
    assert snf.diagonal == (2, 2) or snf.diagonal == (1, 4)
    # the actual Smith form of [[2,4],[0,2]]: det = 4, gcd of entries 2 -> (2, 2)
    assert snf.diagonal == (2, 2)


def test_divisibility_enforced():
    snf = smith_normal_form(mat([[2, 0], [0, 3]]))
    assert snf.diagonal == (1, 6)


matrices = st.integers(min_value=1, max_value=12).flatmap(
    lambda m: st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=m, max_size=m,
        )
    )
)


@settings(max_examples=120, deadline=None)
@given(rows=matrices)
def test_snf_round_trip(rows):
    A = mat(rows)
    snf = smith_normal_form(A)
    assert snf.U @ snf.D @ snf.V == A
    # unimodularity: integer inverses exist, so det U * det U^-1 = 1
    assert snf.U @ snf.U_inv == IntMatrix.identity(A.rows)
    assert snf.V @ snf.V_inv == IntMatrix.identity(A.cols)
    assert abs(determinant(snf.U)) == 1
    assert abs(determinant(snf.V)) == 1
    d = snf.diagonal
    assert all(v >= 0 for v in d)
    for i in range(len(d) - 1):
        if d[i] == 0:
            assert d[i + 1] == 0
        elif d[i + 1] != 0:
            assert d[i + 1] % d[i] == 0
    for i in range(A.rows):
        for j in range(A.cols):
            if i != j:
                assert snf.D[i, j] == 0
    assert diagonal_form(A) == d


@settings(max_examples=80, deadline=None)
@given(rows=matrices)
def test_kernel_vectors_annihilate(rows):
    A = mat(rows)
    basis = kernel_basis(A)
    assert len(basis) == A.cols - matrix_rank(A)
    for vec in basis:
        assert all(v == 0 for v in mul_vec(A, vec))


@settings(max_examples=80, deadline=None)
@given(rows=matrices, data=st.data())
def test_solve_constructed_system(rows, data):
    A = mat(rows)
    z = data.draw(st.lists(st.integers(min_value=-5, max_value=5),
                           min_size=A.cols, max_size=A.cols))
    b = mul_vec(A, z)
    x = solve(A, b)
    assert x is not None
    assert mul_vec(A, x) == b


def test_solve_unsolvable():
    A = mat([[2]])
    assert solve(A, [1]) is None
    assert solve(A, [4]) == [2]


def test_rank():
    assert matrix_rank(mat([[1, 2], [2, 4]])) == 1
    assert matrix_rank(mat([[1, 0], [0, 1]])) == 2
    assert matrix_rank(mat([[0, 0], [0, 0]])) == 0


def _random_matrix(rng):
    m, n = rng.randint(0, 9), rng.randint(0, 9)
    density = rng.choice([0.15, 0.4, 1.0])
    bound = rng.choice([1, 2, 5, 9])
    rows = [[rng.randint(-bound, bound) if rng.random() < density else 0
             for _ in range(n)] for _ in range(m)]
    if m and n and rng.random() < 0.3:  # force a zero row and a zero column
        rows[rng.randrange(m)] = [0] * n
        j = rng.randrange(n)
        for row in rows:
            row[j] = 0
    return IntMatrix(m, n, rows)


def test_sparse_engine_matches_dense_core():
    rng = random.Random(20010701)
    shapes = set()
    for _ in range(600):
        A = _random_matrix(rng)
        columns = A.sparse_columns()
        snapshot = [dict(c) for c in columns]
        expected = smith_normal_form(A).diagonal
        assert smith_diagonal(columns, A.rows) == expected
        assert columns == snapshot
        assert diagonal_form(A) == expected
        shapes.add((A.rows == 0 or A.cols == 0, A.rows == A.cols))
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


def test_sparse_engine_leftover_block():
    # no unit anywhere: the dense core does all the work
    A = mat([[2, 4, 0], [6, 8, 0], [0, 0, 0]])
    assert smith_diagonal(A.sparse_columns(), 3) == (2, 4, 0) == diagonal_form(A)
    # one unit pivot, then a torsion block: 1 first, then the chain 2 | 6
    B = mat([[1, 1, 1], [0, 2, 0], [0, 0, 3]])
    assert smith_diagonal(B.sparse_columns(), 3) == (1, 1, 6) == diagonal_form(B)
    assert smith_diagonal([], 4) == ()
    assert smith_diagonal([{}, {}], 0) == ()
