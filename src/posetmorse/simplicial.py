"""Simplicial complexes and the two functors linking them to posets:
the face poset of a complex and the order complex of a poset.

Simplices are stored as vertex-id tuples sorted lexicographically; that
sorted order is the canonical orientation used by every boundary
operator.  Face-poset element identifiers join the sorted vertex list
with "|" so reports diff cleanly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import EmptyComplex, MalformedLine
from .posets import Poset, _Core

Simplex = tuple[str, ...]


class SimplicialComplex:
    """An abstract simplicial complex, closed under faces on construction."""

    def __init__(self, simplices: Iterable[Sequence[str]]):
        closed: set[Simplex] = set()
        for s in simplices:
            s = tuple(sorted(str(v) for v in s))
            if len(set(s)) != len(s):
                raise MalformedLine(f"repeated vertex in simplex {s}")
            if s:
                closed.add(s)
        # close under codimension-1 faces; every simplex is expanded once
        faces: set[Simplex] = set()
        todo = list(closed)
        while todo:
            s = todo.pop()
            if len(s) == 1:
                continue
            for i in range(len(s)):
                f = s[:i] + s[i + 1:]
                if f not in faces:
                    faces.add(f)
                    if f not in closed:
                        closed.add(f)
                        todo.append(f)
        by_dim: dict[int, list[Simplex]] = {}
        for s in closed:
            by_dim.setdefault(len(s) - 1, []).append(s)
        self.simplices: dict[int, tuple[Simplex, ...]] = {
            d: tuple(sorted(by_dim[d])) for d in sorted(by_dim)}
        self.vertices: tuple[str, ...] = tuple(v for (v,) in self.simplices.get(0, ()))
        # a simplex is a proper face of another exactly when it is a
        # codimension-1 face of one, because the complex is closed
        self.maximal: tuple[Simplex, ...] = tuple(
            sorted(closed - faces, key=lambda s: (len(s), s)))

    # -- queries ----------------------------------------------------------

    def dimension(self) -> int:
        if not self.simplices:
            raise EmptyComplex("the empty complex has no dimension")
        return max(self.simplices)

    def __contains__(self, simplex: Sequence[str]) -> bool:
        s = tuple(sorted(simplex))
        return s in set(self.simplices.get(len(s) - 1, ()))

    def contains_complex(self, other: "SimplicialComplex") -> bool:
        for d, sims in other.simplices.items():
            mine = set(self.simplices.get(d, ()))
            if not set(sims) <= mine:
                return False
        return True

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self.simplices == other.simplices

    def __hash__(self):
        return hash(tuple(sorted(self.simplices.items())))

    def __repr__(self):
        counts = [len(self.simplices[d]) for d in sorted(self.simplices)]
        return f"SimplicialComplex(f-vector {counts})"

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(s) for d, s in self.simplices.items())


def simplex_id(simplex: Sequence[str]) -> str:
    return "|".join(sorted(simplex))


def parse_simplicial_complex(text: str) -> SimplicialComplex:
    """One maximal simplex per nonempty line, vertices whitespace-separated."""
    maximal = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        vertices = line.split()
        if len(set(vertices)) != len(vertices):
            raise MalformedLine(f"line {lineno}: repeated vertex in {line!r}")
        maximal.append(vertices)
    if not maximal:
        raise EmptyComplex("no simplices found in input")
    return SimplicialComplex(maximal)


def serialize_simplicial_complex(complex: SimplicialComplex) -> str:
    return "\n".join(" ".join(s) for s in complex.maximal) + "\n"


def face_poset(complex: SimplicialComplex) -> Poset:
    """The poset of simplices ordered by inclusion; degree = dimension.
    Simplices are declared by dimension, then in sorted order, which is
    already the order of the poset's ids, so the core is handed over as
    it is: the codimension-1 faces are the covers, the dimensions the
    heights."""
    simplices = [s for d in sorted(complex.simplices) for s in complex.simplices[d]]
    ids = {s: i for i, s in enumerate(simplices)}
    lower = [[ids[s[:i] + s[i + 1:]] for i in range(len(s))] if len(s) > 1 else ()
             for s in simplices]
    return Poset([simplex_id(s) for s in simplices],
                 _Core(None, [len(s) - 1 for s in simplices], lower))


def order_complex(poset: Poset) -> SimplicialComplex:
    """The complex of nonempty chains of the poset: the paper's definition,
    which the tests check `homology.subposet_chain_complex` against."""
    return SimplicialComplex(poset.chains())


def subdivision(poset: Poset) -> Poset:
    """First subdivision: the face poset of the order complex."""
    return face_poset(order_complex(poset))
