"""Dense Smith normal form over the integers, with unimodular transforms.

`_snf_core` reduces a dense matrix in place, with its transforms as row
lists when asked.  Sparse matrices do not come here whole: the Smith
step of `homology`, `_Reducer.smith`, eliminates their +-1 pivots first
and hands only the block of nonzero columns and the rows they touch to
`_snf_core`, tracked for `minimal_model`'s change to the Smith basis
(Dumas, Saunders and Villard, "On efficient sparse integer matrix Smith
normal form computations", J. Symb. Comput. 2001).  No library code
calls `smith_normal_form` or `diagonal_form`, the `IntMatrix` wrappers:
they are the tests' dense oracle and names the benchmark's trace reads.

The decomposition is A = U * D * V with U, V unimodular and D diagonal
whose nonzero entries form a divisibility chain d1 | d2 | ...  Row and
column operations applied to the working copy of A are mirrored by the
inverse operations on U and V, so the identity A = U*D*V holds at every
step; the forward operations accumulate into U_inv and V_inv, whose
columns are then a basis adapted to A (the kernel is spanned by the
columns of V_inv at the zero positions of D).

Dense pivoting picks the smallest nonzero entry in absolute value, which
keeps intermediate entries small.
"""

from __future__ import annotations

from typing import NamedTuple
from .intmatrix import IntMatrix


class SmithDecomposition(NamedTuple):
    """A = U * D * V with the divisibility chain along D's diagonal."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    U_inv: IntMatrix
    V_inv: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D[i, i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _snf_core(data: list[list[int]], m: int, n: int, want_transforms: bool):
    """Reduce `data` in place; return (U, Ui, V, Vi) rows when tracked."""
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if want_transforms else None
    Ui = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if want_transforms else None
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if want_transforms else None
    Vi = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if want_transforms else None

    def swap_rows(i, j):
        data[i], data[j] = data[j], data[i]
        if want_transforms:
            for r in U:
                r[i], r[j] = r[j], r[i]
            Ui[i], Ui[j] = Ui[j], Ui[i]

    def swap_cols(i, j):
        for r in data:
            r[i], r[j] = r[j], r[i]
        if want_transforms:
            V[i], V[j] = V[j], V[i]
            for r in Vi:
                r[i], r[j] = r[j], r[i]

    def add_row(src, dst, q):
        # data[dst] += q * data[src]
        row_s, row_d = data[src], data[dst]
        for k in range(n):
            row_d[k] += q * row_s[k]
        if want_transforms:
            for r in U:
                r[src] -= q * r[dst]
            row_s, row_d = Ui[src], Ui[dst]
            for k in range(m):
                row_d[k] += q * row_s[k]

    def add_col(src, dst, q):
        # column dst += q * column src
        for r in data:
            r[dst] += q * r[src]
        if want_transforms:
            vs, vd = V[src], V[dst]
            for k in range(n):
                vs[k] -= q * vd[k]
            for r in Vi:
                r[dst] += q * r[src]

    def negate_row(i):
        data[i] = [-v for v in data[i]]
        if want_transforms:
            for r in U:
                r[i] = -r[i]
            Ui[i] = [-v for v in Ui[i]]

    t = 0
    limit = min(m, n)
    while t < limit:
        # locate the smallest nonzero entry of the trailing block
        best = None
        for i in range(t, m):
            row = data[i]
            for j in range(t, n):
                v = row[j]
                if v != 0 and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
                    if best[0] == 1:
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)

        while True:
            pivot = data[t][t]
            # clear the pivot column
            col_dirty = False
            for i in range(t + 1, m):
                v = data[i][t]
                if v != 0:
                    q = v // pivot
                    if q:
                        add_row(t, i, -q)
                    if data[i][t] != 0:
                        col_dirty = True
            if col_dirty:
                # a remainder smaller than the pivot appeared: make it the pivot
                for i in range(t + 1, m):
                    if data[i][t] != 0:
                        swap_rows(t, i)
                        break
                continue
            # clear the pivot row
            row_dirty = False
            for j in range(t + 1, n):
                v = data[t][j]
                if v != 0:
                    q = v // pivot
                    if q:
                        add_col(t, j, -q)
                    if data[t][j] != 0:
                        row_dirty = True
            if row_dirty:
                for j in range(t + 1, n):
                    if data[t][j] != 0:
                        swap_cols(t, j)
                        break
                continue
            # enforce that the pivot divides the rest of the block
            offender = None
            for i in range(t + 1, m):
                row = data[i]
                for j in range(t + 1, n):
                    if row[j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)

        if data[t][t] < 0:
            negate_row(t)
        t += 1

    return U, Ui, V, Vi


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Full decomposition with transforms; see diagonal_form for a fast path."""
    m, n = A.rows, A.cols
    data = A.to_lists()
    U, Ui, V, Vi = _snf_core(data, m, n, want_transforms=True)
    return SmithDecomposition(
        U=IntMatrix(m, m, U),
        D=IntMatrix(m, n, data),
        V=IntMatrix(n, n, V),
        U_inv=IntMatrix(m, m, Ui),
        V_inv=IntMatrix(n, n, Vi),
    )


def diagonal_form(A: IntMatrix) -> tuple[int, ...]:
    """Just the diagonal of the Smith form, without transform bookkeeping."""
    data = A.to_lists()
    _snf_core(data, A.rows, A.cols, want_transforms=False)
    return tuple(data[t][t] for t in range(min(A.rows, A.cols)))

