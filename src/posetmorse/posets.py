"""Finite posets stored by their cover relations (Hasse diagram).

Element identifiers are opaque strings.  The declared element order fixes
every iteration order in the library, which keeps matrix layouts and
reports deterministic.  Poset values are immutable after construction and
all derived data (down-sets, homology) is cached lazily on the instance.

Each element is interned once, as an int id, and ids run in (height,
declared index) order: sorting ids with no key puts them in a
topological order, and each height is a run of consecutive ids in
declared order.  The poset keeps this int core: per id its name, its
height, its lower and upper covers as int tuples in declared order, and,
once asked for, its strict down-set as a frozenset of ids.  Only the
interning walks the order: one topological walk (`_height_ids`) gives
the heights and so the ids, and from then on counting the ids up is a
topological order, so the poset caches none.  The one transitive
closure (the down-sets) is read counting up.  `build_poset` and the text
loader make both in `_build`, which closes the raw relation and reduces
it to covers with `_cover_reduction`, the one cover reduction, which
`induced` shares.  `simplicial.face_poset` hands its core over
directly: its covers are already reduced and its heights are the
dimensions, so a face poset takes no walk at all.  The up-sets are
built only when `strictly_above` first asks for them, which in the
library only `beat_point_core` does.  A graded poset is the same value:
an element's degree is its height, and the degree queries raise
NotGraded otherwise.

The public queries speak names (`elements`, `index`, `covers`,
`lower_covers`, `strictly_below`, `heights`, `height_order`), through
views built when asked for: `covers` reads the int covers on demand, and
`heights` and `index` are built once, on first use; the loaders keep
no name index of their own.  The cellularity pass and the dynamics read
the int core itself.

The order complex is built by `_chain_cones`, the one function that
lists chains, and only ever of a whole poset: the order complex of a
subset A is that of the induced subposet, `induced(A)`.  It walks the
ids counting up, a linear extension, and builds the chains with maximum
x as the cone x * K(U.x) (Quillen 1978), each boundary column read off
the column of the chain it extends.  `poset_homology` and `is_acyclic`
read the columns, oriented by the poset's order, and reduce them in
place; `chains` names the chains, which `simplicial.order_complex`
sorts.  Nothing caches chains.
Only the paper's definitions list them; no theorem check does.
`induced` stays as the paper's definition too, and `beat_point_core`
serves the random generators.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Set
from typing import AbstractSet, Iterable, Iterator, NamedTuple, Sequence

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
    input.  It walks the covers once for the heights and the ids; the
    down-sets are computed on first use.  The library's loaders hand it
    their int core (`_Core`) in place of the covers.  Empty posets are
    legal values (they arise as strict down-sets) but are rejected as
    top-level inputs by :func:`build_poset`.
    """

    def __init__(self, elements: Sequence[str],
                 covers: Iterable[tuple[str, str]] | "_Core"):
        elements = tuple(elements)
        core = covers if isinstance(covers, _Core) else _name_core(elements, covers)
        n = len(elements)
        self.elements = elements
        self._declared = declared = core.declared
        self._names = elements if declared is None else tuple(elements[j] for j in declared)
        self._id = {e: i for i, e in enumerate(self._names)}
        if len(self._id) != n:
            raise DuplicateElement("duplicate element identifiers")
        self._index: dict[str, int] | None = None
        self._height = core.heights
        key = None if declared is None else declared.__getitem__
        self._lower = [tuple(sorted(lows, key=key)) for lows in core.lower]
        upper: list[list[int]] = [[] for _ in range(n)]
        for x in self._declared_ids():
            for w in self._lower[x]:
                upper[w].append(x)
        self._upper = [tuple(ups) for ups in upper]
        self._below = core.below
        self._above: list[frozenset[int]] | None = None
        self._heights: dict[str, int] | None = None
        self._graded: bool | None = None
        # derived analyses (homology, cellular structure)
        self.analysis_cache: dict = {}

    # -- the int core ----------------------------------------------------------

    def _ident(self, element: str) -> int:
        """The id of a name; an unknown name raises UnknownElement."""
        try:
            return self._id[element]
        except KeyError:
            raise UnknownElement(f"unknown element {element!r}") from None

    def _declared_ids(self) -> Iterable[int]:
        """Every id, in declared order."""
        if self._declared is None:
            return range(len(self._names))
        return map(self._id.__getitem__, self.elements)

    def _by_declared(self, ids: Iterable[int]) -> list[int]:
        """The ids sorted by declared index."""
        key = None if self._declared is None else self._declared.__getitem__
        return sorted(ids, key=key)

    # -- basic queries --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, element: str) -> bool:
        return element in self._id

    def __eq__(self, other):
        # equal elements and covers give equal heights, so equal ids
        return (isinstance(other, Poset) and self.elements == other.elements
                and self._names == other._names and self._lower == other._lower)

    def __hash__(self):
        return hash((self.elements, frozenset(self.covers)))

    def __repr__(self):
        return f"Poset({len(self.elements)} elements, {len(self.covers)} covers)"

    @property
    def covers(self) -> "CoverView":
        return CoverView(self)

    @property
    def index(self) -> dict[str, int]:
        """Each name's declared index."""
        if self._index is None:
            self._index = (self._id if self._declared is None
                           else {e: j for j, e in enumerate(self.elements)})
        return self._index

    def require(self, element: str) -> None:
        if element not in self._id:
            raise UnknownElement(f"unknown element {element!r}")

    def upper_covers(self, element: str) -> tuple[str, ...]:
        return tuple(map(self._names.__getitem__, self._upper[self._ident(element)]))

    def lower_covers(self, element: str) -> tuple[str, ...]:
        return tuple(map(self._names.__getitem__, self._lower[self._ident(element)]))

    # -- reachability ----------------------------------------------------------

    def _reach(self) -> list[frozenset[int]]:
        """The strict down-set of each id, as ids."""
        if self._below is None:
            self._below = _strictly_below(self._lower)
        return self._below

    def _up_sets(self) -> list[frozenset[int]]:
        if self._above is None:
            above: list[set[int]] = [set() for _ in self._names]
            for e, s in enumerate(self._reach()):
                for w in s:
                    above[w].add(e)
            self._above = [frozenset(s) for s in above]
        return self._above

    def strictly_below(self, element: str) -> frozenset[str]:
        return frozenset(map(self._names.__getitem__, self._reach()[self._ident(element)]))

    def strictly_above(self, element: str) -> frozenset[str]:
        return frozenset(map(self._names.__getitem__, self._up_sets()[self._ident(element)]))

    def less(self, a: str, b: str) -> bool:
        """True iff a < b in the partial order."""
        return self._id.get(a) in self._reach()[self._ident(b)]

    # -- heights and grading ---------------------------------------------------

    def heights(self) -> dict[str, int]:
        """height(x) = length of the longest chain ending at x."""
        if self._heights is None:
            self._heights = dict(zip(self._names, self._height))
        return self._heights

    def height_order(self) -> dict[str, int]:
        """Each element's place in the order by height, then declared
        index: its id, which the cellularity pass walks and the chain
        lists sort by."""
        return self._id

    def height(self, element: str | None = None) -> int:
        if element is None:
            if not self.elements:
                raise EmptyPoset("height of the empty poset is undefined")
            return self._height[-1]
        return self._height[self._ident(element)]

    def is_graded(self) -> bool:
        """Graded means every U_x is homogeneous; equivalently the height
        increases by exactly one along every cover."""
        if self._graded is None:
            h = self._height
            self._graded = all(h[w] == h[x] - 1 for x, lows in enumerate(self._lower)
                               for w in lows)
        return self._graded

    def _degrees(self) -> list[int]:
        if not self.is_graded():
            raise NotGraded("degrees are only defined on graded posets")
        return self._height

    def degree(self, element: str) -> int:
        """deg x = height x, on a graded poset."""
        i = self._ident(element)
        return self._degrees()[i]

    def max_degree(self) -> int:
        return max(self._degrees(), default=0)

    def level(self, p: int) -> tuple[str, ...]:
        """The elements of degree exactly p: a run of ids, in declared order."""
        degrees = self._degrees()
        return self._names[bisect_left(degrees, p):bisect_right(degrees, p)]

    # -- subposets ---------------------------------------------------------

    def induced(self, subset: Iterable[str]) -> "Poset":
        """The induced subposet: covers are recomputed from the restricted
        order, so skipped levels become covers."""
        keep = {self._ident(e) for e in subset}
        below, names = self._reach(), self._names
        ids = self._by_declared(keep)
        covers = _cover_reduction([below[x] & keep for x in ids], below)
        return Poset([names[x] for x in ids],
                     [(names[w], names[x]) for x, lows in zip(ids, covers) for w in lows])

    def down_closure(self, subset: Iterable[str]) -> tuple[str, ...]:
        """The union of the minimal open sets U_x for x in the subset, in
        poset order."""
        closed = self._closure(map(self._ident, subset))
        return tuple(map(self._names.__getitem__, self._by_declared(closed)))

    def _closure(self, ids: Iterable[int], closed: AbstractSet[int] = frozenset()) -> set[int]:
        """The down-closure of the ids, less `closed`, a down-closed set of
        ids: an id in `closed` brings nothing new."""
        below = self._reach()
        new: set[int] = set()
        for x in ids:
            if x not in new and x not in closed:
                new.add(x)
                new |= below[x]
        # iterates `new`, not `closed`
        return new - closed if closed else new

    def _chain_cones(self) -> tuple[list[list[dict[int, int]]], list[list[range]]]:
        """The order complex of the poset, built as iterated cones: counting
        the ids up is a linear extension, and the chains with maximum x
        are x itself and c.x for each chain c of U.x, built before it.
        Returns the augmented boundary columns of the chains, oriented by
        the poset's order, and where each id's chains lie among them.

        `columns[d][j]` is the column of the j-th d-chain, its rows the
        (d-1)-chains; a 0-chain x has {0: 1}, on the empty chain.  Since
        d(c.x) = (dc).x + (-1)^(dim c + 1) c, the column of c.x is that of
        c with each face f moved to f.x, by one map per cone, and then the
        entry on c, its last key.  `spans[x][d]` is the range of x's
        d-chains among them: c.x for each (d-1)-chain c of each id below
        x, the ids in declared order.  This is the one function that lists
        chains; nothing caches them."""
        below = self._reach()
        columns: list[list[dict[int, int]]] = []
        spans: list[list[range]] = []
        for x in range(len(self._names)):
            under = self._by_declared(below[x])
            here: list[range] = []
            spans.append(here)
            bases: Sequence[int] = (0,)  # the (d-1)-chains below x; d = 0: the empty chain
            d = 0
            while bases:
                if d == len(columns):
                    columns.append([])
                cols = columns[d]
                start = len(cols)
                if d:
                    # the sign (-1)^(dim c + 1) of the entry on c, dim c = d - 1
                    lower, moved, sign = columns[d - 1], cone.__getitem__, -1 if d % 2 else 1
                    for c in bases:
                        col = lower[c]
                        new = dict(zip(map(moved, col), col.values()))
                        new[c] = sign
                        cols.append(new)
                else:
                    cols.append({0: 1})
                here.append(range(start, len(cols)))
                cone = dict(zip(bases, here[d]))  # each chain c below x to c.x
                bases = [c for y in under if d < len(spans[y]) for c in spans[y][d]]
                d += 1
        return columns, spans

    def beat_point_core(self) -> tuple[str, ...]:
        """The core of the poset, in poset order: sweeps in poset order
        remove beat points until none is left, an element being one when
        its strict down-set in what is left has a maximum or its strict
        up-set a minimum.  Each removal is a strong deformation retract,
        so the order complexes of the poset and of its core are homotopy
        equivalent, and the core of a contractible space is a point
        (Stong, Trans. AMS 123, 1966)."""
        below, above, heights = self._reach(), self._up_sets(), self._height
        core = set(range(len(self._names)))

        def has_extremum(part: set[int], reach: list[frozenset[int]], pick) -> bool:
            # only the element of extreme height can be the extremum
            return bool(part) and len(
                reach[pick(part, key=heights.__getitem__)] & part) == len(part) - 1

        removed = True
        while removed:
            removed = False
            for a in self._by_declared(core):
                if (has_extremum(below[a] & core, below, max)
                        or has_extremum(above[a] & core, above, min)):
                    core.remove(a)
                    removed = True
        return tuple(map(self._names.__getitem__, self._by_declared(core)))

    def chains(self) -> list[tuple[str, ...]]:
        """All nonempty chains, each listed in increasing order, grouped by
        maximum element in poset order, and each group by dimension.  They
        are the chains of `_chain_cones`, named: the chain c.x of a column
        is the chain c of its last key, then x.  Not cached."""
        columns, spans = self._chain_cones()
        named: list[list[tuple[str, ...]]] = [[()]]  # the (d-1)-chains by d; d = 0: the empty chain
        chains: list[tuple[str, ...]] = []
        for x, ranges in enumerate(spans):
            top = (self._names[x],)
            for d, span in enumerate(ranges):
                if d + 1 == len(named):
                    named.append([])
                faces, cols = named[d], columns[d]
                here = [faces[next(reversed(cols[j]))] + top for j in span]
                named[d + 1] += here
                chains += here
        return chains


class CoverView(Set):
    """The covers of a poset as (w, x) name pairs, read off its int
    covers when asked: x in declared order, then w in declared order."""

    __slots__ = ("_poset",)

    def __init__(self, poset: Poset):
        self._poset = poset

    def __len__(self) -> int:
        return sum(map(len, self._poset._lower))

    def __contains__(self, pair) -> bool:
        if not isinstance(pair, tuple) or len(pair) != 2:
            return False
        ident = self._poset._id
        w, x = ident.get(pair[0]), ident.get(pair[1])
        return w is not None and x is not None and w in self._poset._lower[x]

    def __iter__(self) -> Iterator[tuple[str, str]]:
        names, lower = self._poset._names, self._poset._lower
        for x in self._poset._declared_ids():
            for w in lower[x]:
                yield names[w], names[x]

    @classmethod
    def _from_iterable(cls, pairs):
        return frozenset(pairs)

    def __repr__(self):
        return f"CoverView({list(self)!r})"


class _Core(NamedTuple):
    """The int core a loader hands to `Poset` in place of name covers:
    `declared[i]` is the declared index of id i (None when every id is its
    declared index), `heights[i]` its height and `lower[i]` its lower
    covers as ids, in any order.  `below` holds the down-sets, where the
    loader already has them."""

    declared: list[int] | None
    heights: list[int]
    lower: Sequence[Iterable[int]]
    below: list[frozenset[int]] | None = None


def _name_core(elements: tuple[str, ...], covers: Iterable[tuple[str, str]]) -> _Core:
    """The core of covers given as name pairs, which are trusted to be
    reduced: one walk gives the heights and the ids."""
    index = {e: j for j, e in enumerate(elements)}
    if len(index) != len(elements):
        raise DuplicateElement("duplicate element identifiers")
    lower: list[set[int]] = [set() for _ in elements]
    for w, x in covers:
        if w not in index or x not in index:
            raise UnknownElement(f"cover ({w}, {x}) references undeclared element")
        lower[index[x]].add(index[w])
    return _Core(*_height_ids(lower))


def _topological_order(n: int, lower: Sequence[Sequence[int]],
                       upper: Sequence[Sequence[int]]) -> list[int]:
    """The ints 0..n-1, each after everything in its `lower` list (Kahn's
    algorithm); a cycle raises CycleDetected."""
    pending = [len(lows) for lows in lower]
    queue = [e for e in range(n) if not pending[e]]
    for e in queue:
        for x in upper[e]:
            pending[x] -= 1
            if not pending[x]:
                queue.append(x)
    if len(queue) != n:
        raise CycleDetected("cover relation contains a cycle")
    return queue


def _strictly_below(lower: Sequence[Iterable[int]]) -> list[frozenset[int]]:
    """The transitive closure of `lower`, given by ids, read counting up:
    ids run in height order, so that is a topological order."""
    below: list[frozenset[int]] = [frozenset()] * len(lower)
    for e, lows in enumerate(lower):
        acc = set(lows)
        for w in lows:
            acc |= below[w]
        below[e] = frozenset(acc)
    return below


def _cover_reduction(under: Sequence[AbstractSet[int]],
                     below: Sequence[AbstractSet[int]]) -> list[AbstractSet[int]]:
    """For each set under[i] of elements below some x, holding x's lower
    covers, the w in it below no other element of it: the lower covers of
    x, given the closure `below` of the order.  Each intersection walks
    the smaller of its two sets."""
    covers: list[AbstractSet[int]] = []
    for lows in under:
        redundant = [w for y in lows for w in below[y] & lows] if len(lows) > 1 else ()
        covers.append(lows - set(redundant) if redundant else lows)
    return covers


def _height_ids(lower: Sequence[Iterable[int]]) -> tuple[list[int] | None, list[int],
                                                          list[set[int]]]:
    """The one walk over a relation given by declared index, `lower[j]`
    holding what lies under element j: the heights along it, and the ids in
    (height, declared index) order.  Returns each id's declared index (None
    when that is the id), the heights by id and `lower` relabelled to ids."""
    n = len(lower)
    upper: list[list[int]] = [[] for _ in range(n)]
    for x, lows in enumerate(lower):
        for w in lows:
            upper[w].append(x)
    height = [0] * n
    for x in _topological_order(n, lower, upper):
        if lower[x]:
            height[x] = 1 + max([height[w] for w in lower[x]])
    levels: list[list[int]] = [[] for _ in range(max(height, default=-1) + 1)]
    for j, h in enumerate(height):
        levels[h].append(j)
    declared = [j for level in levels for j in level]
    ident = [0] * n
    for i, j in enumerate(declared):
        ident[j] = i
    under = [set(map(ident.__getitem__, lower[j])) for j in declared]
    heights = [height[j] for j in declared]
    return (None if declared == list(range(n)) else declared), heights, under


def _declare(elements: Iterable[str], relations: Iterable[tuple[str, str]]
             ) -> tuple[list[str], list[list[int]]]:
    """The declared elements and the relation as lists of declared indices
    under each element, checked: an empty, duplicate, unknown or reflexive
    input raises."""
    elements = [str(e) for e in elements]
    if not elements:
        raise EmptyPoset("empty posets are rejected as inputs")
    index: dict[str, int] = {}
    for e in elements:
        if e in index:
            raise DuplicateElement(f"duplicate element {e!r}")
        index[e] = len(index)
    lower: list[list[int]] = [[] for _ in elements]
    for w, x in relations:
        w, x = str(w), str(x)
        if w not in index:
            raise UnknownElement(f"unknown element {w!r}")
        if x not in index:
            raise UnknownElement(f"unknown element {x!r}")
        if w == x:
            raise CycleDetected(f"reflexive pair ({w}, {x}) is not allowed")
        lower[index[x]].append(index[w])
    return elements, lower


def _build(elements: list[str], lower: list[list[int]]) -> tuple[Poset, bool]:
    """The poset of a generating relation without reflexive pairs, given
    by declared index, and whether reducing it to covers dropped a pair:
    the one walk interns the elements, the one closure, of the relation,
    is handed to the poset, and `_cover_reduction` gives the covers."""
    if not elements:
        raise EmptyPoset("empty posets are rejected as inputs")
    try:
        declared, heights, under = _height_ids(lower)
    except CycleDetected:
        raise CycleDetected("input relation is not a partial order") from None
    below = _strictly_below(under)
    covers = _cover_reduction(under, below)
    poset = Poset(elements, _Core(declared, heights, covers, below))
    return poset, sum(map(len, covers)) != sum(map(len, under))


def build_poset(elements: Sequence[str], relations: Iterable[tuple[str, str]]) -> Poset:
    """Build a poset from declared elements and any generating relation.

    The relation is closed transitively and then reduced to covers; cyclic
    input raises CycleDetected, empty input raises EmptyPoset.  Returns the
    canonical Hasse-diagram representation, holding the relation's
    closure: the covers generate the same order.
    """
    return _build(*_declare(elements, relations))[0]
