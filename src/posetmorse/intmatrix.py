"""Exact integer matrices, dense and sparse.

A sparse column is a dict {row: value} holding only the nonzero entries.
Chain complexes store their boundaries as lists of them, and the chain
maps that reductions track (the hccat witness, the flow's Morse complex)
are lists of them too, because boundary matrices have at most p+1
nonzeros (all +-1) per column.  `IntMatrix` is the dense, immutable form
that the Smith core, its transforms and kernel bases, and the
`ChainComplex.boundary` view use.

Python ints are arbitrary precision, so every computation here is exact by
construction; no floating point is used anywhere in the library.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Column = dict[int, int]


class IntMatrix:
    """An immutable dense matrix with integer entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Iterable[Sequence[int]]):
        table = tuple(tuple(int(v) for v in row) for row in data)
        if len(table) != rows or any(len(r) != cols for r in table):
            raise ValueError(f"shape mismatch: expected {rows}x{cols}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", table)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_sparse_columns(cls, columns: Sequence[Column], rows: int) -> "IntMatrix":
        data = [[0] * len(columns) for _ in range(rows)]
        for j, col in enumerate(columns):
            for i, v in col.items():
                data[i][j] = v
        return cls(rows, len(columns), data)

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        ot = other.data
        out = []
        for row in self.data:
            out.append([
                sum(row[k] * ot[k][j] for k in range(self.cols))
                for j in range(other.cols)
            ])
        return IntMatrix(self.rows, other.cols, out)

    def column(self, j: int) -> list[int]:
        return [row[j] for row in self.data]

    def columns(self) -> list[list[int]]:
        return [self.column(j) for j in range(self.cols)]

    def sparse_columns(self) -> list[Column]:
        out: list[Column] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, v in enumerate(row):
                if v:
                    out[j][i] = v
        return out

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.data]
