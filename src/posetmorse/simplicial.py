"""Simplicial complexes and the two functors linking them to posets:
the face poset of a complex and the order complex of a poset.

Simplices are stored as vertex-id tuples sorted lexicographically; that
sorted order is the canonical orientation used by every boundary
operator.  Face-poset element identifiers join the sorted vertex list
with "|" so reports diff cleanly.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .errors import EmptyComplex, MalformedLine
from .posets import Poset, _Core

Simplex = tuple[str, ...]


class SimplicialComplex:
    """An abstract simplicial complex, closed under faces on construction."""

    def __init__(self, simplices: Iterable[Sequence[str]]):
        given: dict[int, set[Simplex]] = {}
        for s in simplices:
            s = tuple(sorted(map(str, s)))
            if len(set(s)) != len(s):
                raise MalformedLine(f"repeated vertex in simplex {s}")
            if s:
                given.setdefault(len(s) - 1, set()).add(s)
        # close by dimension, from the top down: each simplex's codimension-1
        # faces are sliced once; a simplex no face reached is maximal
        closed: dict[int, set[Simplex]] = {}
        maximal: list[Simplex] = []
        for d in range(max(given, default=-1), -1, -1):
            here = closed.setdefault(d, set())
            maximal += given.get(d, set()) - here
            here |= given.pop(d, set())
            if d:
                below = closed[d - 1] = set()
                for t in here:
                    below.update(combinations(t, d))
        self.simplices: dict[int, tuple[Simplex, ...]] = {
            d: tuple(sorted(closed[d])) for d in sorted(closed)}
        self.vertices: tuple[str, ...] = tuple(v for (v,) in self.simplices.get(0, ()))
        # by dimension, then in sorted order: two plain sorts, the second
        # stable, are cheaper than one with a key
        maximal.sort()
        maximal.sort(key=len)
        self.maximal: tuple[Simplex, ...] = tuple(maximal)

    # -- queries ----------------------------------------------------------

    def dimension(self) -> int:
        if not self.simplices:
            raise EmptyComplex("the empty complex has no dimension")
        return max(self.simplices)

    def __contains__(self, simplex: Sequence[str]) -> bool:
        s = tuple(sorted(map(str, simplex)))
        return s in self.simplices.get(len(s) - 1, ())

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
    it is: the codimension-1 faces are the covers, looked up in an index
    of the dimension below alone, and the dimensions the heights.  Each
    simplex is already sorted, and its name is its vertices joined by
    `|`."""
    simplices, lower = [], []
    index: dict[Simplex, int] = {}
    for d in sorted(complex.simplices):
        here = complex.simplices[d]
        lower += ([[index[f] for f in combinations(t, d)] for t in here] if d
                  else [()] * len(here))
        index = {t: k for k, t in enumerate(here, len(simplices))}
        simplices += here
    return Poset(["|".join(s) for s in simplices],
                 _Core(None, [len(s) - 1 for s in simplices], lower))


def order_complex(poset: Poset) -> SimplicialComplex:
    """The complex of nonempty chains of the poset: the paper's definition,
    which the tests check `poset_homology` and `subposet_chain_complex` against."""
    return SimplicialComplex(poset.chains())


def subdivision(poset: Poset) -> Poset:
    """First subdivision: the face poset of the order complex."""
    return face_poset(order_complex(poset))
