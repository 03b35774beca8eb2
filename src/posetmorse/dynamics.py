"""Matchings on Hasse diagrams and the induced dynamics.

A matching orients its covers upward and every other cover downward; the
chain recurrent set is the critical elements together with everything on
a directed cycle, and the nontrivial strongly connected components are
the orbit classes.  Closed walks can never leave a band of two adjacent
degrees, so every orbit class alternates between degrees p and p+1; its
index is p.  The basic sets form one list, the critical points as
one-element classes in poset order and then the orbit classes, and every
theorem check walks that list.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

from .cellular import CellularComplexOfPoset, require_admissible
from .errors import (
    ConsistencyError,
    ElementMatchedTwice,
    NotACover,
    NotGraded,
    NotMorseSmale,
)
from .posets import Poset


@dataclass(frozen=True)
class Matching:
    """A set of covers, each poset element in at most one pair."""

    pairs: frozenset[tuple[str, str]]
    _up: dict[str, str] = field(init=False, repr=False, compare=False)
    _down: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_up", dict(self.pairs))
        object.__setattr__(self, "_down", {x: w for w, x in self.pairs})

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return tuple(pair) in self.pairs

    def matched_elements(self) -> frozenset[str]:
        return frozenset(e for pair in self.pairs for e in pair)

    def target(self, x: str) -> str | None:
        """t(x): the upper partner of a matched source, else None."""
        return self._up.get(x)

    def source(self, y: str) -> str | None:
        return self._down.get(y)

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


@dataclass(frozen=True)
class MatchedDigraph:
    """The Hasse diagram with matched covers pointing up, the rest down."""

    nodes: tuple[str, ...]
    arcs: tuple[tuple[str, str], ...]
    successors: dict[str, tuple[str, ...]]


def matched_digraph(poset: Poset, matching: Matching) -> MatchedDigraph:
    """Read off the poset's int covers: each element points to its lower
    covers but a matched one, and up to its match above, in declared order."""
    names, ident, lower = poset._names, poset._id, poset._lower
    up = {ident[w]: ident[x] for w, x in matching.pairs}
    down = {x: w for w, x in up.items()}
    key = None if poset._declared is None else poset._declared.__getitem__
    successors = {}
    arcs = []
    for e in poset._declared_ids():
        matched = down.get(e)
        targets = [w for w in lower[e] if w != matched]
        if e in up:
            insort(targets, up[e], key=key)
        name = names[e]
        successors[name] = targets = tuple([names[w] for w in targets])
        arcs += [(name, t) for t in targets]
    return MatchedDigraph(nodes=poset.elements, arcs=tuple(arcs), successors=successors)


def _strongly_connected_components(nodes, successors) -> list[list[str]]:
    """Iterative Tarjan; components come out in reverse topological order."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(successors[child])))
                    break
                if child in on_stack and index[child] < low[node]:
                    low[node] = index[child]
            else:
                work.pop()
                if low[node] == index[node]:
                    comp = []
                    while True:
                        top = stack.pop()
                        on_stack.discard(top)
                        comp.append(top)
                        if top == node:
                            break
                    components.append(comp)
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
    return components


@dataclass(frozen=True)
class OrbitClass:
    """A nontrivial strongly connected component of the matched digraph."""

    elements: tuple[str, ...]
    index: int


@dataclass(frozen=True)
class BasicSetDecomposition:
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


@dataclass
class _Recurrence:
    """One matching's digraph, strongly connected components and each element's
    component index, with the basic sets and Morse-Smale verdict once asked for."""

    matching: Matching
    digraph: MatchedDigraph
    components: list[list[str]]
    component: dict[str, int]
    decomposition: BasicSetDecomposition | None = None
    verdict: MorseSmaleVerdict | None = None


def _recurrence(poset: Poset, matching: Matching) -> _Recurrence:
    """The poset keeps the last matching's record only (theorem checks reuse
    one matching; a search over many must not keep one entry per
    candidate)."""
    cached = poset.analysis_cache.get("recurrence")
    if cached is None or cached.matching != matching:
        digraph = matched_digraph(poset, matching)
        components = _strongly_connected_components(digraph.nodes, digraph.successors)
        cached = _Recurrence(matching, digraph, components, {
            e: i for i, members in enumerate(components) for e in members})
        poset.analysis_cache["recurrence"] = cached
    return cached


def basic_sets(poset: Poset, matching: Matching) -> BasicSetDecomposition:
    """Chain recurrent set split into critical points and orbit classes."""
    if not poset.is_graded():
        raise NotGraded("orbit indices need a graded poset")
    record = _recurrence(poset, matching)
    if record.decomposition is not None:
        return record.decomposition
    matched = matching.matched_elements()
    critical = tuple(e for e in poset.elements if e not in matched)
    order = poset.index
    orbit_classes = []
    for comp in record.components:
        if len(comp) < 2:
            continue
        elems = tuple(sorted(comp, key=order.__getitem__))
        degs = sorted({poset.degree(e) for e in elems})
        if len(degs) != 2 or degs[1] != degs[0] + 1:
            raise ConsistencyError("orbit class does not alternate two adjacent degrees")
        orbit_classes.append(OrbitClass(elements=elems, index=degs[0]))
    orbit_classes.sort(key=lambda c: order[c.elements[0]])
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
    """True iff the matched digraph is acyclic."""
    return all(len(c) == 1 for c in _recurrence(poset, matching).components)


@dataclass(frozen=True)
class ClosedOrbit:
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


@dataclass(frozen=True)
class MorseSmaleVerdict:
    is_morse_smale: bool
    orbits: tuple[ClosedOrbit, ...]
    offender: str | None = None


def _orbit_from_component(poset: Poset, digraph: MatchedDigraph,
                          comp: tuple[str, ...], index: int) -> ClosedOrbit | None:
    """The component as a simple cycle, or None if it is not one."""
    members = set(comp)
    inner_succ = {}
    for e in comp:
        inside = [s for s in digraph.successors[e] if s in members]
        if len(inside) != 1:
            return None
        inner_succ[e] = inside[0]
    lows = [e for e in comp if poset.degree(e) == index]
    start = min(lows, key=poset.index.__getitem__)
    nodes = [start]
    cur = inner_succ[start]
    while cur != start:
        nodes.append(cur)
        cur = inner_succ[cur]
    if len(nodes) != len(comp):
        return None
    return ClosedOrbit(tuple(nodes), index)


def is_morse_smale(poset: Poset, matching: Matching) -> MorseSmaleVerdict:
    """Morse-Smale: every nontrivial component is one simple cycle, i.e.
    the recurrent set is critical points plus disjoint prime orbits.  The
    verdict is kept with the matching's recurrence record."""
    require_admissible(poset)
    record = _recurrence(poset, matching)
    if record.verdict is None:
        orbits = []
        for cls in basic_sets(poset, matching).orbit_classes:
            orbit = _orbit_from_component(poset, record.digraph, cls.elements, cls.index)
            if orbit is None:
                record.verdict = MorseSmaleVerdict(False, (), offender=cls.elements[0])
                return record.verdict
            orbits.append(orbit)
        record.verdict = MorseSmaleVerdict(True, tuple(orbits))
    return record.verdict


def prime_orbits(poset: Poset, matching: Matching) -> tuple[ClosedOrbit, ...]:
    verdict = _recurrence(poset, matching).verdict or is_morse_smale(poset, matching)
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
    orbits = prime_orbits(poset, matching)
    removed = []
    for orbit in orbits:
        x0, y0 = orbit.nodes[0], orbit.nodes[1]
        removed.append((x0, y0))
    perturbed = matching.without(frozenset(removed))
    if not is_morse_matching(poset, perturbed):
        raise ConsistencyError("perturbed matching is not acyclic; this is a bug")
    return perturbed, tuple(removed)


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
