import random

from hypothesis import given, settings, strategies as st

from perfectcover.snf import diagonal_of, identity_matrix, smith_normal_form, solve_left


def mat_mul(A, B):
    """The integer matrix product, entry by entry."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def check_form(A):
    D, U, Uinv, V = smith_normal_form(A)
    rows, cols = len(A), len(A[0])
    assert mat_mul(mat_mul(U, A), V) == D
    assert mat_mul(U, Uinv) == identity_matrix(rows)
    diag = diagonal_of(D)
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert D[i][j] == 0
    nonzero = [x for x in diag if x]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert all(x >= 0 for x in diag)


def test_small_examples():
    check_form([[2, 4], [6, 8]])
    check_form([[0, 0], [0, 0]])
    check_form([[1]])
    check_form([[6, 0], [0, 4]])
    D, *_ = smith_normal_form([[6, 0], [0, 4]])
    assert diagonal_of(D) == [2, 12]


matrix_strategy = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(matrix_strategy)
def test_smith_form_properties(A):
    check_form(A)


def test_solve_left_roundtrip():
    rng = random.Random(3)
    for _ in range(200):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        B = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        x0 = [rng.randrange(-4, 5) for _ in range(rows)]
        t = [sum(x0[i] * B[i][j] for i in range(rows)) for j in range(cols)]
        x = solve_left(B, t)
        assert x is not None
        assert [sum(x[i] * B[i][j] for i in range(rows)) for j in range(cols)] == t


def test_solve_left_unsolvable():
    assert solve_left([[2]], [1]) is None
    assert solve_left([[2, 0]], [1, 1]) is None
    assert solve_left([[0]], [0]) == [0]
