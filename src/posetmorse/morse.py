"""Morse and Morse-Bott functions on posets.

Integration turns any matching into a Morse-Bott function by condensing
the matched digraph into its strongly connected components, ordering the
condensation topologically, and assigning the reverse rank as the value:
constant on each basic set, strictly decreasing along every arc between
distinct classes.  Matched pairs outside the recurrent set then satisfy
f(x) > f(y), which realizes the weak inequality the integration theorem
allows.

The two verification operations implement the fundamental theorems as
exact computations: a regular interval must leave relative homology of
the sublevel pair trivial, and crossing a single critical value must
attach exactly the class [x] along its lower boundary.  Both read the
basic sets of the matching the function carries, as one list; the
sweep makes both checks in one walk over the filtration, growing one
sublevel set and handing each collapse check what its gap added.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .cellular import _pair_homology, cellular_pair_homology, require_admissible
from .dynamics import (
    BasicSetDecomposition,
    Matching,
    _recurrence,
    basic_sets,
    validate_matching,
)
from .errors import (
    ConsistencyError,
    CriticalValueInInterval,
    NotGraded,
    NotMorse,
    NotMorseBott,
    WrongCriticalCount,
)
from .posets import Poset


@dataclass(frozen=True)
class MorseVerdict:
    is_morse: bool
    critical: tuple[str, ...]
    violations: tuple[str, ...] = ()


def is_morse_function(poset: Poset, values: dict[str, Fraction]) -> MorseVerdict:
    """At most one exceptional cover on each side of every element."""
    for e in poset.elements:
        if e not in values:
            raise NotMorse(f"function has no value at {e!r}")
    critical, violations = [], []
    for x in poset.elements:
        up = [y for y in poset.upper_covers(x) if values[x] >= values[y]]
        down = [z for z in poset.lower_covers(x) if values[z] >= values[x]]
        if len(up) > 1 or len(down) > 1:
            violations.append(x)
        if not up and not down:
            critical.append(x)
    return MorseVerdict(not violations, tuple(critical), tuple(violations))


def morse_function_to_matching(poset: Poset, values: dict[str, Fraction]) -> Matching:
    """The matching of exceptional pairs {(x, y): x < y covers, f(x) >= f(y)}.

    On homologically admissible posets a Morse function never has both an
    exceptional face and an exceptional coface at one element (between a
    chain w < x < y with a two-step degree gap there are at least two
    intermediate elements, which forces contradictory strict
    inequalities), so the pair set really is a matching; validation still
    runs and surfaces any violation on exotic inputs.
    """
    verdict = is_morse_function(poset, values)
    if not verdict.is_morse:
        raise NotMorse(f"function is not Morse at {verdict.violations[:3]}")
    pairs = [(x, y) for (x, y) in sorted(poset.covers) if values[x] >= values[y]]
    return validate_matching(poset, pairs)


@dataclass(frozen=True)
class MorseBottFunction:
    """A function constant on basic sets and Morse away from them."""

    poset: Poset
    values: dict[str, Fraction]
    matching: Matching | None = None

    def decomposition(self) -> BasicSetDecomposition:
        if self.matching is None:
            raise NotMorse("no matching attached to this function")
        return basic_sets(self.poset, self.matching)

    def critical_values(self) -> tuple[Fraction, ...]:
        """Images of the basic sets, sorted increasingly."""
        return tuple(sorted({self.values[members[0]]
                             for members in self.decomposition().classes}))


def require_morse_bott(function: MorseBottFunction) -> None:
    """Raise NotMorseBott unless the function is Morse-Bott for its
    matching: constant on each basic set, and nowhere increasing along an
    arc of the matched digraph between two of its strongly connected
    components, along which `integrate_matching` strictly decreases."""
    values = function.values
    for members in function.decomposition().classes:
        if len({values[e] for e in members}) > 1:
            raise NotMorseBott(f"function is not constant on the basic set {list(members)}")
    record = _recurrence(function.poset, function.matching)
    component = {e: i for i, members in enumerate(record.components) for e in members}
    for a, b in record.digraph.arcs:
        if values[a] < values[b] and component[a] != component[b]:
            raise NotMorseBott(f"function increases along the arc {a} -> {b} "
                               f"of the matched digraph, from {values[a]} to {values[b]}")


def integrate_matching(poset: Poset, matching: Matching) -> MorseBottFunction:
    """A Morse-Bott function integrating the matching (canonical witness).

    Values are the reverse topological ranks of the condensation of the
    matched digraph, as plain ints.
    """
    if not poset.is_graded():
        raise NotGraded("integration needs a graded poset")
    record = _recurrence(poset, matching)
    digraph, components = record.digraph, record.components
    comp_id = {}
    for i, comp in enumerate(components):
        for e in comp:
            comp_id[e] = i
    n = len(components)
    succ: dict[int, set[int]] = {i: set() for i in range(n)}
    indeg = {i: 0 for i in range(n)}
    for a, b in digraph.arcs:
        ca, cb = comp_id[a], comp_id[b]
        if ca != cb and cb not in succ[ca]:
            succ[ca].add(cb)
            indeg[cb] += 1
    # deterministic Kahn order: the ready component with the earliest
    # element comes first (components are disjoint, so keys are distinct)
    key = [min(poset.index[e] for e in comp) for comp in components]
    ready = [(key[i], i) for i in range(n) if indeg[i] == 0]
    heapq.heapify(ready)
    rank: dict[int, int] = {}
    processed = 0
    while ready:
        _, i = heapq.heappop(ready)
        rank[i] = n - processed
        processed += 1
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, (key[j], j))
    if processed != n:
        raise ConsistencyError("condensation of the matched digraph has a cycle")
    values = {e: rank[comp_id[e]] for e in poset.elements}
    return MorseBottFunction(poset=poset, values=values, matching=matching)


def sublevel(poset: Poset, values: dict[str, Fraction], level) -> tuple[str, ...]:
    """The elements of X_a, the union of the minimal open sets U_x with
    f(x) <= a, in poset order (the subposet itself is never built)."""
    level = Fraction(level)
    return poset.down_closure(x for x in poset.elements if values[x] <= level)


def _leaving_covers(poset: Poset, members: tuple[str, ...]) -> frozenset[str]:
    """The lower covers of the class `members` that lie outside it."""
    inside = set(members)
    return frozenset(w for x in members for w in poset.lower_covers(x) if w not in inside)


def boundary_of_class(poset: Poset, matching: Matching, element: str) -> frozenset[str]:
    """The lower boundary of [x]: covers leaving the class downward."""
    return _leaving_covers(poset, basic_sets(poset, matching).class_elements(element))


def verify_collapse(poset: Poset, function: MorseBottFunction, a, b) -> bool:
    """A critical-value-free interval leaves sublevel homology unchanged:
    relative homology of the sublevel pair must vanish entirely."""
    a, b = Fraction(a), Fraction(b)
    if a > b:
        raise ValueError("interval is empty")
    require_admissible(poset)
    for c in function.critical_values():
        if a <= c <= b:
            raise CriticalValueInInterval(f"critical value {c} lies in [{a}, {b}]")
    lower = sublevel(poset, function.values, a)
    upper = sublevel(poset, function.values, b)
    return cellular_pair_homology(poset, upper, lower).is_trivial()


@dataclass(frozen=True)
class AttachmentReport:
    interval: tuple[Fraction, Fraction]
    kind: str
    class_elements: tuple[str, ...] = ()
    boundary: tuple[str, ...] = ()
    new_elements: tuple[str, ...] = ()
    identities: dict[str, bool] | None = None
    ok: bool = True

    def to_doc(self) -> dict:
        return {
            "interval": [str(self.interval[0]), str(self.interval[1])],
            "kind": self.kind,
            "class": list(self.class_elements),
            "boundary": list(self.boundary),
            "new_elements": list(self.new_elements),
            "identities": dict(self.identities or {}),
            "ok": self.ok,
        }


def verify_attachment(poset: Poset, function: MorseBottFunction, a, b) -> AttachmentReport:
    """Crossing one critical value attaches exactly the class [x].

    Checks the set identities X_b \\ X_a = [x], boundary([x]) inside X_a,
    and [x] disjoint from X_a.  They are guaranteed when [a, b] contains
    no other value of the function besides the critical one.
    """
    a, b = Fraction(a), Fraction(b)
    crit = [c for c in function.critical_values() if a <= c <= b]
    if len(crit) != 1:
        raise WrongCriticalCount(f"[{a}, {b}] contains {len(crit)} critical values")
    classes = [members for members in function.decomposition().classes
               if function.values[members[0]] == crit[0]]
    if len(classes) != 1:
        raise WrongCriticalCount(
            f"critical value {crit[0]} is shared by {len(classes)} basic sets")
    lower, upper = (set(sublevel(poset, function.values, t)) for t in (a, b))
    return _attachment(poset, classes[0], lower, upper - lower, a, b)


def _attachment(poset: Poset, members: tuple[str, ...], lower: set[str], new: set[str],
                a: Fraction, b: Fraction) -> AttachmentReport:
    """The identities of attaching `members` to `lower` = X_a, `new` = X_b - X_a."""
    boundary = _leaving_covers(poset, members)
    identities = {
        "new_elements_equal_class": new == set(members),
        "boundary_inside_lower": boundary <= lower,
        "class_misses_lower": lower.isdisjoint(members),
    }
    return AttachmentReport(
        interval=(a, b), kind="critical-attachment", class_elements=members,
        boundary=tuple(sorted(boundary)), new_elements=tuple(sorted(new)),
        identities=identities, ok=all(identities.values()))


def filtration_sweep(poset: Poset,
                     function: MorseBottFunction) -> tuple[list[AttachmentReport], bool]:
    """Walk the filtration of the function's matching once, in value
    order: tight attachment checks around every critical value, then
    collapse checks across every maximal regular gap.  The cuts lie one
    below the least value, halfway between consecutive values and one
    above the greatest.  One sublevel set grows by the down-closure of
    the elements between cuts; a gap's check reads only what it added."""
    if function.matching is None:
        raise NotMorse("sweep needs the matching behind the function")
    require_admissible(poset)
    classes: dict[Fraction, list[tuple[str, ...]]] = {}
    for members in function.decomposition().classes:
        classes.setdefault(function.values[members[0]], []).append(members)
    for v in sorted(classes):
        if len(classes[v]) != 1:
            raise WrongCriticalCount(
                f"critical value {v} is shared by {len(classes[v])} basic sets")
    level: dict[Fraction, list[str]] = {}
    for x in poset.elements:
        level.setdefault(function.values[x], []).append(x)
    values = sorted(level)
    if not values:
        return [], True
    cuts = [Fraction(values[0] - 1), *(Fraction(lo + hi, 2) for lo, hi in zip(values, values[1:])),
            Fraction(values[-1] + 1)]
    attachments, gaps = [], []
    # the sublevel set at the cut, and what the regular gap open since cut `start` added
    start, lower, added = 0, set(), []
    for i, v in enumerate(values):
        new = {x for x in poset.down_closure(level[v]) if x not in lower}
        if v in classes:
            gaps.append((start, i, _pair_homology(poset, added)))
            attachments.append(
                _attachment(poset, classes[v][0], lower, new, cuts[i], cuts[i + 1]))
            start, added = i + 1, []
        else:
            added += new
        lower.update(new)
    gaps.append((start, len(values), _pair_homology(poset, added)))
    reports = attachments + [
        AttachmentReport(interval=(cuts[lo], cuts[hi]), kind="regular-interval", ok=h.is_trivial())
        for lo, hi, h in gaps]
    return reports, all(r.ok for r in reports)
