"""Matchings on Hasse diagrams and the induced dynamics.

A matching orients its covers upward and every other cover downward; the
chain recurrent set is the critical elements together with everything on
a directed cycle, and the nontrivial strongly connected components are
the orbit classes.  The basic sets form one list, the critical points as
one-element classes in poset order and then the orbit classes, and every
theorem check walks that list.

On a graded poset an arc up is always followed by an arc down (a matched
upper element has no match above), so a closed walk alternates between
matched lower elements and their partners in degrees p and p+1, and the
class's index is p.  The classes are read off the band graph alone: its
nodes are the matched lower elements, with an arc w -> v for each lower
cover v != w of w's partner that is matched upward, and each nontrivial
strongly connected component (Tarjan, SIAM J. Comput. 1, 1972), with its
partners, is one orbit class.  Inside a class a lower element's one arc
goes up to its partner, whose arcs go down to the lower element's band
successors there, so the class is a prime orbit, one simple cycle,
exactly when each of its lower elements has one band successor in it.
On an ungraded poset a closed walk can pass an unmatched element or span
three heights, so the dynamics raise `NotGraded` there.

`_recurrence` records, once per matching, the pairs as two id arrays and
each class as the band pass finds it: its members in declared order, its
index and its cycle or None, the classes ordered by first declared
member.  Basic sets, orbits and the Morse-Smale verdict only name these
records.  Arcs of the matched digraph are listed, in declared order
(`_arcs_from`), only where an arc is named: `matched_digraph` and
`morse.require_morse_bott`.  Declared order, not id order, fixes the
order of what reaches output.
"""

from __future__ import annotations

from bisect import insort
from itertools import count
from typing import Iterator, NamedTuple, Sequence

from .cellular import CellularComplexOfPoset, require_admissible
from .errors import (
    ConsistencyError,
    ElementMatchedTwice,
    NotACover,
    NotGraded,
    NotMorseSmale,
)
from .posets import Poset


class Matching:
    """A set of covers, each poset element in at most one pair.  It is
    immutable, and not a NamedTuple: its length is its number of pairs."""

    __slots__ = ("pairs",)

    pairs: frozenset[tuple[str, str]]

    def __init__(self, pairs: frozenset[tuple[str, str]]):
        object.__setattr__(self, "pairs", pairs)

    def __setattr__(self, name, value):
        raise AttributeError("Matching is immutable")

    def __delattr__(self, name):
        raise AttributeError("Matching is immutable")

    def __reduce__(self):
        return Matching, (self.pairs,)

    def __eq__(self, other):
        return self.pairs == other.pairs if type(other) is Matching else NotImplemented

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"Matching(pairs={self.pairs!r})"

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return tuple(pair) in self.pairs

    def matched_elements(self) -> frozenset[str]:
        return frozenset(e for pair in self.pairs for e in pair)

    def without(self, removed: frozenset[tuple[str, str]]) -> "Matching":
        return Matching(self.pairs - removed)

    def sorted_pairs(self) -> list[tuple[str, str]]:
        return sorted(self.pairs)


def validate_matching(poset: Poset, pairs) -> Matching:
    """Check the pairs are covers and no element is used twice."""
    seen: set[str] = set()
    out = []
    ident, lower = poset._id, poset._lower
    for w, x in pairs:
        w, x = str(w), str(x)
        i, j = ident.get(w), ident.get(x)
        # read off the poset's int covers
        if i is None or j is None or i not in lower[j]:
            raise NotACover(f"({w}, {x}) is not a cover of the poset")
        for e in (w, x):
            if e in seen:
                raise ElementMatchedTwice(f"element {e!r} is matched twice")
            seen.add(e)
        out.append((w, x))
    return Matching(frozenset(out))


class MatchedDigraph(NamedTuple):
    """The Hasse diagram with matched covers pointing up, the rest down."""

    nodes: tuple[str, ...]
    arcs: tuple[tuple[str, str], ...]
    successors: dict[str, tuple[str, ...]]


def matched_digraph(poset: Poset, matching: Matching) -> MatchedDigraph:
    """The name view of the matched digraph, in declared order."""
    names, (up, down) = poset._names, _pair_ids(poset, matching)
    named = {names[e]: tuple([names[w] for w in _arcs_from(poset, up, down, e)])
             for e in poset._declared_ids()}
    return MatchedDigraph(poset.elements, tuple((x, t) for x in named for t in named[x]), named)


def _pair_ids(poset: Poset, matching: Matching) -> tuple[list[int], list[int]]:
    """Each id's match above and match below, -1 where it has none."""
    ident = poset._id
    up, down = [-1] * len(ident), [-1] * len(ident)
    for w, x in matching.pairs:
        i, j = ident[w], ident[x]
        up[i], down[j] = j, i
    return up, down


def _arcs_from(poset: Poset, up: list[int], down: list[int], e: int) -> list[int]:
    """The ids `e` points to in the matched digraph, read off the int
    covers in declared order: its lower covers but a matched one, and its
    match above."""
    targets = [w for w in poset._lower[e] if w != down[e]]
    if up[e] >= 0:
        insort(targets, up[e], key=None if poset._declared is None else poset._declared.__getitem__)
    return targets


class _OrbitRecord(NamedTuple):
    """One orbit class on ids: its members in declared order, its index
    (the degree of its lower ids), and its cycle from its least lower id,
    lower ids and partners alternating, or None if it is not one."""

    members: list[int]
    index: int
    cycle: tuple[int, ...] | None


def _orbit_classes(poset: Poset, up: list[int]) -> list[_OrbitRecord]:
    """The orbit classes of a matching on a graded poset, in the order of
    their first declared members: each nontrivial strongly connected
    component of the band graph, with the partners.  The band graph's
    nodes are the ids matched upward, and w points to each lower cover
    v != w of `up[w]` that is matched upward too."""
    band = [w for w, x in enumerate(up) if x >= 0]
    at = [-1] * len(up)
    for k, w in enumerate(band):
        at[w] = k
    successors = [[at[v] for v in poset._lower[up[w]] if at[v] >= 0 and v != w] for w in band]
    found = {}
    for comp in _strongly_connected_components(successors):
        if len(comp) < 2:
            continue
        inside = set(comp)
        step = {k: [s for s in successors[k] if s in inside] for k in comp}
        cycle = []
        if all(len(s) == 1 for s in step.values()):
            # a strongly connected digraph with one arc out of each node is one cycle;
            # band nodes come in id order, and the ids of one degree in declared order
            k = min(comp)
            for _ in comp:
                cycle += (band[k], up[band[k]])
                k = step[k][0]
        lower = [band[k] for k in comp]
        members = poset._by_declared(lower + [up[w] for w in lower])
        found[members[0]] = _OrbitRecord(members, poset._height[lower[0]], tuple(cycle) or None)
    return [found[first] for first in poset._by_declared(found)]


def _strongly_connected_components(successors: Sequence[Sequence[int]]) -> list[list[int]]:
    """Iterative Tarjan over the nodes 0..n-1, `successors[i]` the nodes i
    points to: the components, in reverse topological order.  A visited
    node is on the stack until it has a component."""
    n = len(successors)
    index, low, component = [-1] * n, [0] * n, [-1] * n
    stack: list[int] = []
    components: list[list[int]] = []
    work: list[tuple[int, Iterator[int]]] = []
    counter = count()

    def visit(node: int) -> None:
        index[node] = low[node] = next(counter)
        stack.append(node)
        work.append((node, iter(successors[node])))

    for root in range(n):
        if index[root] < 0:
            visit(root)
        while work:
            node, children = work[-1]
            for child in children:
                if index[child] < 0:
                    visit(child)
                    break
                if component[child] < 0 and index[child] < low[node]:
                    low[node] = index[child]
            else:
                work.pop()
                if low[node] == index[node]:
                    comp, top = [], None
                    while top != node:
                        top = stack.pop()
                        component[top] = len(components)
                        comp.append(top)
                    components.append(comp)
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
    return components


class OrbitClass(NamedTuple):
    """A nontrivial strongly connected component of the matched digraph."""

    elements: tuple[str, ...]
    index: int


class BasicSetDecomposition(NamedTuple):
    """The basic sets: `classes` lists each critical point as a one-element
    tuple, in poset order, then the elements of each orbit class (at least
    two) in the order of `orbit_classes`."""

    critical: tuple[str, ...]
    orbit_classes: tuple[OrbitClass, ...]
    recurrent_set: frozenset[str]
    transient: tuple[str, ...]
    classes: tuple[tuple[str, ...], ...]

    def class_elements(self, element: str) -> tuple[str, ...]:
        """[x]: the orbit class, or the singleton for anything else."""
        for cls in self.orbit_classes:
            if element in cls.elements:
                return cls.elements
        return (element,)

    def to_doc(self) -> dict:
        return {
            "critical": list(self.critical),
            "orbit_classes": [
                {"elements": list(c.elements), "index": c.index}
                for c in self.orbit_classes
            ],
            "recurrent": sorted(self.recurrent_set),
        }


class _Recurrence:
    """One matching's pairs on ids, `up` and `down` from `_pair_ids`, its
    orbit classes from `_orbit_classes`, each id's class named by the
    class's first declared member (an id in no class names itself), and
    the basic sets and Morse-Smale verdict once asked for."""

    __slots__ = ("matching", "up", "down", "classes", "component", "decomposition", "verdict")

    def __init__(self, matching: Matching, up: list[int], down: list[int],
                 classes: list[_OrbitRecord]):
        self.matching, self.up, self.down, self.classes = matching, up, down, classes
        self.component = component = list(range(len(up)))
        for cls in classes:
            for e in cls.members:
                component[e] = cls.members[0]
        self.decomposition: BasicSetDecomposition | None = None
        self.verdict: MorseSmaleVerdict | None = None


def _recurrence(poset: Poset, matching: Matching) -> _Recurrence:
    """The poset keeps the last matching's record only (theorem checks reuse
    one matching; a search over many must not keep one entry per
    candidate).  The orbit classes come from the band graph, which sees
    every closed walk only on a graded poset, so an ungraded one raises
    `NotGraded`."""
    if not poset.is_graded():
        raise NotGraded("the matched dynamics need a graded poset")
    cached = poset.analysis_cache.get("recurrence")
    if cached is None or cached.matching != matching:
        up, down = _pair_ids(poset, matching)
        cached = _Recurrence(matching, up, down, _orbit_classes(poset, up))
        poset.analysis_cache["recurrence"] = cached
    return cached


def basic_sets(poset: Poset, matching: Matching) -> BasicSetDecomposition:
    """Chain recurrent set split into critical points and orbit classes."""
    record = _recurrence(poset, matching)
    if record.decomposition is not None:
        return record.decomposition
    matched = matching.matched_elements()
    critical = tuple(e for e in poset.elements if e not in matched)
    names = poset._names
    orbit_classes = [OrbitClass(tuple([names[e] for e in cls.members]), cls.index)
                     for cls in record.classes]
    classes = tuple((e,) for e in critical) + tuple(c.elements for c in orbit_classes)
    recurrent = frozenset(e for members in classes for e in members)
    transient = tuple(e for e in poset.elements if e not in recurrent)
    record.decomposition = BasicSetDecomposition(
        critical=critical,
        orbit_classes=tuple(orbit_classes),
        recurrent_set=recurrent,
        transient=transient,
        classes=classes,
    )
    return record.decomposition


def is_morse_matching(poset: Poset, matching: Matching) -> bool:
    """True iff the matched digraph is acyclic.  The poset must be graded
    (else `NotGraded`): only there is every cycle one of the band graph."""
    return not _recurrence(poset, matching).classes


class ClosedOrbit(NamedTuple):
    """A prime closed orbit: a simple directed cycle alternating between
    degrees p and p+1, rotated to start at its smallest lower element."""

    nodes: tuple[str, ...]
    index: int

    def pairs(self) -> tuple[tuple[str, str], ...]:
        """The matched pairs (x_i, y_i) traversed by the orbit."""
        n = self.nodes
        return tuple((n[i], n[i + 1]) for i in range(0, len(n), 2))

    def steps(self) -> tuple[tuple[str, str, str], ...]:
        """Triples (x_i, y_i, x_{i+1}) around the orbit."""
        n = self.nodes
        out = []
        for i in range(0, len(n), 2):
            out.append((n[i], n[i + 1], n[(i + 2) % len(n)]))
        return tuple(out)


class MorseSmaleVerdict(NamedTuple):
    is_morse_smale: bool
    orbits: tuple[ClosedOrbit, ...]
    offender: str | None = None


def is_morse_smale(poset: Poset, matching: Matching) -> MorseSmaleVerdict:
    """Morse-Smale: every orbit class is one simple cycle, i.e. the
    recurrent set is critical points plus disjoint prime orbits, named off
    the recorded cycles; the offender is the first declared member of the
    first class that is not one.  The verdict is kept with the matching's
    recurrence record."""
    require_admissible(poset)
    record = _recurrence(poset, matching)
    if record.verdict is None:
        names = poset._names
        broken = [cls.members[0] for cls in record.classes if cls.cycle is None]
        if broken:
            record.verdict = MorseSmaleVerdict(False, (), offender=names[broken[0]])
        else:
            record.verdict = MorseSmaleVerdict(True, tuple(
                ClosedOrbit(tuple([names[e] for e in cls.cycle]), cls.index) for cls in record.classes))
    return record.verdict


def prime_orbits(poset: Poset, matching: Matching) -> tuple[ClosedOrbit, ...]:
    verdict = is_morse_smale(poset, matching)
    if not verdict.is_morse_smale:
        raise NotMorseSmale(f"recurrence near {verdict.offender!r} is not a simple orbit")
    return verdict.orbits


def orbit_multiplicity(orbit: ClosedOrbit, cell: CellularComplexOfPoset) -> int:
    """Product of -<d y_i, x_i><d y_i, x_{i+1}> around the orbit.

    Always +-1 on homologically admissible posets, and invariant both
    under generator sign flips (each interior element appears in exactly
    two factors) and under rotation of the starting point.
    """
    value = 1
    for x_i, y_i, x_next in orbit.steps():
        value *= -cell.epsilon(y_i, x_i) * cell.epsilon(y_i, x_next)
    if value not in (1, -1):
        raise ConsistencyError("orbit multiplicity must be a unit")
    return value


def perturb_to_morse(poset: Poset, matching: Matching) -> tuple[Matching, tuple[tuple[str, str], ...]]:
    """Break every prime orbit by dropping its first matched pair.

    The resulting matching is acyclic: the freed lower element keeps only
    downward arcs out of its band, so no closed walk survives.  Critical
    counts satisfy m*_p = c_p + A_p + A_{p-1}.
    """
    removed = tuple(orbit.nodes[:2] for orbit in prime_orbits(poset, matching))
    perturbed = matching.without(frozenset(removed))
    if not is_morse_matching(poset, perturbed):
        raise ConsistencyError("perturbed matching is not acyclic; this is a bug")
    return perturbed, removed


def critical_counts(poset: Poset, matching: Matching) -> dict[int, int]:
    """c_p: the number of critical elements in each degree."""
    matched = matching.matched_elements()
    counts: dict[int, int] = {}
    for e in poset.elements:
        if e not in matched:
            p = poset.degree(e)
            counts[p] = counts.get(p, 0) + 1
    return counts


def orbit_counts(orbits: tuple[ClosedOrbit, ...]) -> dict[int, int]:
    """A_p: the number of prime closed orbits of each index."""
    counts: dict[int, int] = {}
    for orbit in orbits:
        counts[orbit.index] = counts.get(orbit.index, 0) + 1
    return counts
