"""Finite posets stored by their cover relations (Hasse diagram).

Element identifiers are opaque strings.  The declared element order fixes
every iteration order in the library, which keeps matrix layouts and
reports deterministic.  Poset values are immutable after construction and
all derived data (down-sets, heights, homology) is cached lazily on the
instance.  The order is worked out once per poset: one topological walk,
cached, which the heights and the one transitive closure (the down-sets)
both read.  `build_poset` hands the poset the walk and the closure it
made of its raw relation, which has the same order as its covers, and
one helper, `_cover_reduction`, reduces an order to covers for both
`build_poset` and `induced`.  The up-sets are built only when
`strictly_above` first asks for them, which in the library only
`beat_point_core` does.  A graded poset is the same value: an element's
degree is its height, and the degree queries raise NotGraded otherwise.

The chains of a subposet, grouped by their maximum, are the source of
the order complexes in the library: the order complex of an induced
subposet on S is the full subcomplex of K(P) spanned by S, so the
homology front ends read its simplices off `chains_within(S)` and never
build the induced subposet.  Nothing caches chains.  The paper's
definitions list them, and so does `category.ls_theorem_check` for the
hccat of each basic set.  `induced` stays as the paper's definition
too, and `beat_point_core` serves the random generators.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Sequence

from .errors import (
    CycleDetected,
    DuplicateElement,
    EmptyPoset,
    NotGraded,
    UnknownElement,
)


class Poset:
    """A finite poset; `covers` holds pairs (w, x) meaning w is covered by x.

    The constructor trusts its arguments to already be a transitive
    reduction of string identifiers; use :func:`build_poset` for raw
    input.  It builds the sorted cover lists once.  The heights are
    computed on first use, and so are the topological order and the
    down-sets unless :func:`build_poset` has handed them over.  Empty
    posets are legal values (they arise as strict down-sets) but are
    rejected as top-level inputs by :func:`build_poset`.
    """

    def __init__(self, elements: Sequence[str], covers: Iterable[tuple[str, str]]):
        self.elements = tuple(elements)
        self.covers = frozenset(covers)
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise DuplicateElement("duplicate element identifiers")
        up: dict[str, list[str]] = {e: [] for e in self.elements}
        dn: dict[str, list[str]] = {e: [] for e in self.elements}
        for w, x in self.covers:
            if w not in self.index or x not in self.index:
                raise UnknownElement(f"cover ({w}, {x}) references undeclared element")
            up[w].append(x)
            dn[x].append(w)
        key = self.index.__getitem__
        self._upper = {e: tuple(sorted(up[e], key=key)) for e in self.elements}
        self._lower = {e: tuple(sorted(dn[e], key=key)) for e in self.elements}
        self._order: list[str] | None = None
        self._below: dict[str, frozenset[str]] | None = None
        self._above: dict[str, frozenset[str]] | None = None
        self._heights: dict[str, int] | None = None
        self._by_height: dict[str, int] | None = None
        self._graded: bool | None = None
        # derived analyses (homology, cellular structure)
        self.analysis_cache: dict = {}

    # -- basic queries --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, element: str) -> bool:
        return element in self.index

    def __eq__(self, other):
        return (isinstance(other, Poset) and self.elements == other.elements
                and self.covers == other.covers)

    def __hash__(self):
        return hash((self.elements, self.covers))

    def __repr__(self):
        return f"Poset({len(self.elements)} elements, {len(self.covers)} covers)"

    def require(self, element: str) -> None:
        if element not in self.index:
            raise UnknownElement(f"unknown element {element!r}")

    def upper_covers(self, element: str) -> tuple[str, ...]:
        self.require(element)
        return self._upper[element]

    def lower_covers(self, element: str) -> tuple[str, ...]:
        self.require(element)
        return self._lower[element]

    # -- reachability ----------------------------------------------------------

    def _topo_order(self) -> list[str]:
        if self._order is None:
            self._order = _topological_order(self.elements, self._lower, self._upper)
        return self._order

    def _reach(self) -> dict[str, frozenset[str]]:
        if self._below is None:
            self._below = _strictly_below(self._topo_order(), self._lower)
        return self._below

    def _up_sets(self) -> dict[str, frozenset[str]]:
        if self._above is None:
            above: dict[str, set[str]] = {e: set() for e in self.elements}
            for e, s in self._reach().items():
                for w in s:
                    above[w].add(e)
            self._above = {e: frozenset(s) for e, s in above.items()}
        return self._above

    def strictly_below(self, element: str) -> frozenset[str]:
        self.require(element)
        return self._reach()[element]

    def strictly_above(self, element: str) -> frozenset[str]:
        self.require(element)
        return self._up_sets()[element]

    def less(self, a: str, b: str) -> bool:
        """True iff a < b in the partial order."""
        return a in self.strictly_below(b)

    # -- heights and grading ---------------------------------------------------

    def heights(self) -> dict[str, int]:
        """height(x) = length of the longest chain ending at x."""
        if self._heights is None:
            h: dict[str, int] = {}
            for e in self._topo_order():
                lows = self._lower[e]
                h[e] = 1 + max(h[w] for w in lows) if lows else 0
            self._heights = h
        return self._heights

    def height_order(self) -> dict[str, int]:
        """Each element's place in the order by height, then declared
        index, in that order: a topological order, cached, which the
        cellularity pass walks and the chain lists sort by."""
        if self._by_height is None:
            self._by_height = {e: i for i, e in enumerate(
                sorted(self.elements, key=self.heights().__getitem__))}
        return self._by_height

    def height(self, element: str | None = None) -> int:
        if element is None:
            if not self.elements:
                raise EmptyPoset("height of the empty poset is undefined")
            return max(self.heights().values())
        self.require(element)
        return self.heights()[element]

    def is_graded(self) -> bool:
        """Graded means every U_x is homogeneous; equivalently the height
        increases by exactly one along every cover."""
        if self._graded is None:
            h = self.heights()
            self._graded = all(h[x] == h[w] + 1 for w, x in self.covers)
        return self._graded

    def _degrees(self) -> dict[str, int]:
        if not self.is_graded():
            raise NotGraded("degrees are only defined on graded posets")
        return self.heights()

    def degree(self, element: str) -> int:
        """deg x = height x, on a graded poset."""
        self.require(element)
        return self._degrees()[element]

    def max_degree(self) -> int:
        return max(self._degrees().values(), default=0)

    def level(self, p: int) -> tuple[str, ...]:
        """The elements of degree exactly p."""
        degrees = self._degrees()
        return tuple(e for e in self.elements if degrees[e] == p)

    # -- subposets ---------------------------------------------------------

    def induced(self, subset: Iterable[str]) -> "Poset":
        """The induced subposet: covers are recomputed from the restricted
        order, so skipped levels become covers."""
        keep = set(subset)
        for e in keep:
            self.require(e)
        elements = [e for e in self.elements if e in keep]
        below = self._reach()
        return Poset(elements, _cover_reduction({x: below[x] & keep for x in elements}, below))

    def down_closure(self, subset: Iterable[str]) -> tuple[str, ...]:
        """The union of the minimal open sets U_x for x in the subset, in
        poset order."""
        closed: set[str] = set()
        for x in subset:
            if x not in closed:
                closed.add(x)
                closed |= self.strictly_below(x)
        return tuple(sorted(closed, key=self.index.__getitem__))

    def chains_within(self, members: Iterable[str]) -> dict[str, list[tuple[str, ...]]]:
        """All nonempty chains of the subposet on `members`, grouped by
        maximum element, each listed in increasing order; not cached."""
        below, order = self._reach(), self.index
        keep = set(members)
        ending: dict[str, list[tuple[str, ...]]] = {}
        for x in sorted(keep, key=self.height_order().__getitem__):
            local: list[tuple[str, ...]] = [(x,)]
            for y in sorted(below[x] & keep, key=order.__getitem__):
                local.extend(c + (x,) for c in ending[y])
            ending[x] = local
        return ending

    def beat_point_core(self) -> tuple[str, ...]:
        """The core of the poset, in poset order: sweeps in poset order
        remove beat points until none is left, an element being one when
        its strict down-set in what is left has a maximum or its strict
        up-set a minimum.  Each removal is a strong deformation retract,
        so the order complexes of the poset and of its core are homotopy
        equivalent, and the core of a contractible space is a point
        (Stong, Trans. AMS 123, 1966)."""
        below, above = self._reach(), self._up_sets()
        heights, order = self.heights(), self.index
        core = set(self.elements)

        def has_extremum(part: frozenset[str], reach: dict[str, frozenset[str]], pick) -> bool:
            # only the element of extreme height can be the extremum
            return bool(part) and len(
                reach[pick(part, key=heights.__getitem__)] & part) == len(part) - 1

        removed = True
        while removed:
            removed = False
            for a in sorted(core, key=order.__getitem__):
                if (has_extremum(below[a] & core, below, max)
                        or has_extremum(above[a] & core, above, min)):
                    core.remove(a)
                    removed = True
        return tuple(sorted(core, key=order.__getitem__))

    def chains(self) -> list[tuple[str, ...]]:
        """All nonempty chains, each listed in increasing order."""
        return [c for local in self.chains_within(self.elements).values() for c in local]


def _topological_order(elements: Sequence[str], lower: dict[str, Sequence[str]],
                       upper: dict[str, Sequence[str]]) -> list[str]:
    """The elements, each after everything in its `lower` list (Kahn's
    algorithm); a cycle raises CycleDetected."""
    pending = {e: len(lower[e]) for e in elements}
    queue = [e for e in elements if pending[e] == 0]
    i = 0
    while i < len(queue):
        for x in upper[queue[i]]:
            pending[x] -= 1
            if pending[x] == 0:
                queue.append(x)
        i += 1
    if len(queue) != len(elements):
        raise CycleDetected("cover relation contains a cycle")
    return queue


def _strictly_below(order: Sequence[str],
                    lower: dict[str, Sequence[str]]) -> dict[str, frozenset[str]]:
    """The transitive closure of `lower`, read along a topological order."""
    below: dict[str, frozenset[str]] = {}
    for e in order:
        acc = set(lower[e])
        for w in lower[e]:
            acc |= below[w]
        below[e] = frozenset(acc)
    return below


def _cover_reduction(under: dict[str, AbstractSet[str]],
                     below: dict[str, AbstractSet[str]]) -> list[tuple[str, str]]:
    """The pairs (w, x) with w in under[x] and w below no other element of
    under[x]: the covers of an order, given for each x a set of elements
    below it that holds its lower covers and the closure `below` of that
    order.  Each intersection walks the smaller of its two sets."""
    covers = []
    for x, lows in under.items():
        redundant = set().union(*(below[y] & lows for y in lows))
        covers += [(w, x) for w in lows - redundant]
    return covers


def build_poset(elements: Sequence[str], relations: Iterable[tuple[str, str]]) -> Poset:
    """Build a poset from declared elements and any generating relation.

    The relation is closed transitively and then reduced to covers; cyclic
    input raises CycleDetected, empty input raises EmptyPoset.  Returns the
    canonical Hasse-diagram representation, holding the relation's
    topological order and closure: the covers generate the same order.
    """
    elements = [str(e) for e in elements]
    if not elements:
        raise EmptyPoset("empty posets are rejected as inputs")
    lower: dict[str, list[str]] = {}
    for e in elements:
        if e in lower:
            raise DuplicateElement(f"duplicate element {e!r}")
        lower[e] = []
    upper: dict[str, list[str]] = {e: [] for e in elements}
    for w, x in relations:
        w, x = str(w), str(x)
        if w not in lower:
            raise UnknownElement(f"unknown element {w!r}")
        if x not in lower:
            raise UnknownElement(f"unknown element {x!r}")
        if w == x:
            raise CycleDetected(f"reflexive pair ({w}, {x}) is not allowed")
        lower[x].append(w)
        upper[w].append(x)
    try:
        order = _topological_order(elements, lower, upper)
    except CycleDetected:
        raise CycleDetected("input relation is not a partial order") from None
    below = _strictly_below(order, lower)
    poset = Poset(elements, _cover_reduction({x: set(lower[x]) for x in elements}, below))
    poset._order, poset._below = order, below
    return poset
