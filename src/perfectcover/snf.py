"""Exact integer matrix normal forms and linear system solving.

Everything uses Python integers, so there is no overflow; matrices are
lists of lists.  The Smith form routine tracks both transformation
matrices and their inverses, which the abelian-group decomposition needs.
"""

from __future__ import annotations

from .errors import InternalError


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


class _SmithState:
    """Work matrix plus the four transformation accumulators."""

    def __init__(self, A):
        self.M = [list(row) for row in A]
        self.rows = len(self.M)
        self.cols = len(self.M[0]) if self.M else 0
        self.U = identity_matrix(self.rows)
        self.Uinv = identity_matrix(self.rows)
        self.V = identity_matrix(self.cols)
        self.Vinv = identity_matrix(self.cols)

    def swap_rows(self, i, j):
        if i == j:
            return
        self.M[i], self.M[j] = self.M[j], self.M[i]
        self.U[i], self.U[j] = self.U[j], self.U[i]
        for row in self.Uinv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(self, i, j):
        if i == j:
            return
        for row in self.M:
            row[i], row[j] = row[j], row[i]
        for row in self.V:
            row[i], row[j] = row[j], row[i]
        self.Vinv[i], self.Vinv[j] = self.Vinv[j], self.Vinv[i]

    def add_row(self, dst, src, c):
        """row dst += c * row src."""
        if c == 0:
            return
        self.M[dst] = [a + c * b for a, b in zip(self.M[dst], self.M[src])]
        self.U[dst] = [a + c * b for a, b in zip(self.U[dst], self.U[src])]
        for row in self.Uinv:
            row[src] -= c * row[dst]

    def add_col(self, dst, src, c):
        """col dst += c * col src."""
        if c == 0:
            return
        for row in self.M:
            row[dst] += c * row[src]
        for row in self.V:
            row[dst] += c * row[src]
        self.Vinv[src] = [a - c * b for a, b in zip(self.Vinv[src], self.Vinv[dst])]

    def negate_row(self, i):
        self.M[i] = [-a for a in self.M[i]]
        self.U[i] = [-a for a in self.U[i]]
        for row in self.Uinv:
            row[i] = -row[i]


def smith_normal_form(A):
    """Return (D, U, Uinv, V, Vinv) with U*A*V = D diagonal, d_i | d_{i+1}.

    U and V are unimodular; Uinv and Vinv are their exact inverses.
    """
    st = _SmithState(A)
    n = min(st.rows, st.cols)
    for s in range(n):
        while True:
            pivot = None
            best = None
            for i in range(s, st.rows):
                for j in range(s, st.cols):
                    a = abs(st.M[i][j])
                    if a and (best is None or a < best):
                        best = a
                        pivot = (i, j)
            if pivot is None:
                break
            st.swap_rows(s, pivot[0])
            st.swap_cols(s, pivot[1])
            if st.M[s][s] < 0:
                st.negate_row(s)
            p = st.M[s][s]
            clean = True
            for i in range(s + 1, st.rows):
                q = st.M[i][s] // p
                st.add_row(i, s, -q)
                if st.M[i][s]:
                    clean = False
            for j in range(s + 1, st.cols):
                q = st.M[s][j] // p
                st.add_col(j, s, -q)
                if st.M[s][j]:
                    clean = False
            if not clean:
                continue
            # force divisibility of the remaining block by the pivot
            offender = None
            for i in range(s + 1, st.rows):
                for j in range(s + 1, st.cols):
                    if st.M[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            st.add_row(s, offender, 1)
    D = [[st.M[i][j] if i == j else 0 for j in range(st.cols)] for i in range(st.rows)]
    for i in range(st.rows):
        for j in range(st.cols):
            if i != j and st.M[i][j]:
                raise InternalError("Smith reduction left an off-diagonal entry")
    return D, st.U, st.Uinv, st.V, st.Vinv


def diagonal_of(D) -> list[int]:
    n = min(len(D), len(D[0]) if D else 0)
    return [D[i][i] for i in range(n)]


def solve_left(B, t):
    """One integer solution x of x * B = t, or None.

    B has shape (rows x cols) and t has length cols; x has length rows.
    """
    rows = len(B)
    cols = len(B[0]) if rows else 0
    if len(t) != cols:
        raise InternalError("dimension mismatch in solve_left")
    if rows == 0:
        return [] if all(v == 0 for v in t) else None
    # Transpose to the column form A z = b with A = B^T.
    A = [[B[r][c] for r in range(rows)] for c in range(cols)]
    D, U, _, V, _ = smith_normal_form(A)
    b = mat_vec(U, list(t))
    diag = diagonal_of(D)
    z = [0] * rows
    for i in range(cols):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if b[i] != 0:
                return None
        else:
            if b[i] % d:
                return None
            z[i] = b[i] // d
    return mat_vec(V, z)
