import random

from hypothesis import given, settings, strategies as st

from perfectcover.snf import (
    determinant,
    diagonal_of,
    identity_matrix,
    mat_mul,
    smith_normal_form,
    solve_left,
)


def check_form(A):
    D, U, Uinv, V, Vinv = smith_normal_form(A)
    rows, cols = len(A), len(A[0])
    assert mat_mul(mat_mul(U, A), V) == D
    assert mat_mul(U, Uinv) == identity_matrix(rows)
    assert mat_mul(V, Vinv) == identity_matrix(cols)
    assert abs(determinant(U)) == 1
    assert abs(determinant(V)) == 1
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


def cofactor_determinant(A) -> int:
    """Laplace expansion along the first row: no elimination, no division."""
    if not A:
        return 1
    total = 0
    for j, a in enumerate(A[0]):
        if a:
            minor = [row[:j] + row[j + 1:] for row in A[1:]]
            total += (-1) ** j * a * cofactor_determinant(minor)
    return total


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(11)
    cases = []
    for n in range(7):
        for _ in range(30):
            cases.append([[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)])
        # sparse entries make zero pivots, and so row swaps, common
        for _ in range(30):
            cases.append(
                [[rng.choice((0, 0, 0, 1, -2, 3)) for _ in range(n)] for _ in range(n)]
            )
        if n >= 2:
            # singular: the last row is a combination of two others
            A = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n - 1)]
            a, b = rng.randrange(-3, 4), rng.randrange(-3, 4)
            A.append([a * x + b * y for x, y in zip(A[0], A[-1])])
            cases.append(A)
    for A in cases:
        assert determinant(A) == cofactor_determinant(A), A
    assert any(A and A[0][0] == 0 and determinant(A) for A in cases)
    assert sum(1 for A in cases if A and not determinant(A)) >= 20


def test_determinant_with_a_pivot_swap():
    # a zero in the leading entry forces a swap, which flips the sign
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[0, 2, 1], [3, 0, 0], [0, 0, 5]]) == -30
    assert determinant([[0, 0], [0, 7]]) == 0
    assert determinant([]) == 1
