"""Morse and Morse-Bott functions on posets.

Integration turns any matching into a Morse-Bott function by ordering
the condensation of the matched digraph topologically and assigning the
reverse rank as the value: constant on each basic set, strictly
decreasing along every arc between distinct classes.  Matched pairs
outside the recurrent set then satisfy f(x) > f(y), which realizes the
weak inequality the integration theorem allows.  The order is one Kahn
walk over the ids, each orbit class collapsed to one node, with the arcs
read off the covers and the matched pairs as each node is processed; the
matched digraph itself is never built.

The two verification operations implement the fundamental theorems as
exact computations: a regular interval must leave relative homology of
the sublevel pair trivial, and crossing a single critical value must
attach exactly the class [x] along its lower boundary, the covers that
leave the class downward, which the attachment report lists.  Both read
the basic sets of the matching the function carries, as one list; the
sweep makes both checks in one walk over the filtration, growing one
sublevel set and handing each collapse check what its gap added.

A Morse function carries the matching `morse_function_to_matching`
reads off it, whose unmatched elements are its critical points; the
Lusternik-Schnirelmann corollary for Morse functions is
`category.ls_theorem_check` on that matching, with no entry point of
its own.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import NamedTuple

from .cellular import _pair_homology, cellular_pair_homology, require_admissible
from .dynamics import (
    BasicSetDecomposition,
    Matching,
    _arcs_from,
    _recurrence,
    basic_sets,
    validate_matching,
)
from .errors import (
    ConsistencyError,
    CriticalValueInInterval,
    NotMorse,
    NotMorseBott,
    WrongCriticalCount,
)
from .posets import Poset


class MorseVerdict(NamedTuple):
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


class MorseBottFunction(NamedTuple):
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
    matching, i.e. meets the conditions `integrate_matching` realizes:
    constant on each basic set, and along an arc of the matched digraph
    between two of its strongly connected components, strictly decreasing
    when the arc is an unmatched cover read downward and nowhere
    increasing when it is a matched pair read upward.  Such a function is
    Morse away from the basic sets."""
    values = function.values
    for members in function.decomposition().classes:
        if len({values[e] for e in members}) > 1:
            raise NotMorseBott(f"function is not constant on the basic set {list(members)}")
    poset = function.poset
    record, names = _recurrence(poset, function.matching), poset._names
    component = record.component
    # the arcs in declared order, so the first one rejected is the first declared
    for i in poset._declared_ids():
        for j in _arcs_from(poset, record.up, record.down, i):
            if component[i] == component[j]:
                continue
            a, b = names[i], names[j]
            if values[a] < values[b]:
                raise NotMorseBott(f"function increases along the arc {a} -> {b} "
                                   f"of the matched digraph, from {values[a]} to {values[b]}")
            if values[a] == values[b] and (a, b) not in function.matching:
                raise NotMorseBott(
                    f"function does not decrease along the unmatched arc {a} -> {b} "
                    f"of the matched digraph: both ends take the value {values[a]}")


def integrate_matching(poset: Poset, matching: Matching) -> MorseBottFunction:
    """A Morse-Bott function integrating the matching (canonical witness).

    Values are the reverse topological ranks of the condensation of the
    matched digraph, as plain ints, from one Kahn walk over the ids with
    each orbit class collapsed to one node.  In-degrees count parallel arcs
    between two nodes each time, so a node is ready exactly when all its
    predecessors are processed; of the ready nodes the one with the
    earliest declared element comes first (nodes are disjoint, so keys are
    distinct).
    """
    record = _recurrence(poset, matching)
    up, down, component, lower = record.up, record.down, record.component, poset._lower
    n = len(poset)
    declared = poset._declared or range(n)
    key = list(declared)
    # an id's in-arcs come from its upper covers but its match above, and from its match below
    indeg = [len(ups) - (u >= 0) + (d >= 0) for ups, u, d in zip(poset._upper, up, down)]
    members: dict[int, list[int]] = {}
    for cls in record.classes:
        c = cls[0]
        members[c] = cls
        key[c] = min(map(declared.__getitem__, cls))
        # less the arcs inside the class: each lower id's arc up, and the arcs down between members
        inside = sum(component[v] == c and v != down[x] for x in cls if down[x] >= 0
                     for v in lower[x])
        indeg[c] = sum(map(indeg.__getitem__, cls)) - len(cls) // 2 - inside
    nodes = n - sum(len(cls) - 1 for cls in record.classes)
    ready = [(key[c], c) for c in range(n) if component[c] == c and not indeg[c]]
    heapq.heapify(ready)
    rank = [0] * n
    processed = 0
    while ready:
        _, c = heapq.heappop(ready)
        rank[c] = nodes - processed
        processed += 1
        for e in members.get(c, (c,)):
            d, u = down[e], up[e]
            for t in (*lower[e], u) if u >= 0 else lower[e]:
                if t == d:
                    continue
                t = component[t]
                if t != c:
                    indeg[t] -= 1
                    if not indeg[t]:
                        heapq.heappush(ready, (key[t], t))
    # a node never processed lies on a cycle between nodes, which the band graph missed
    if processed != nodes:
        raise ConsistencyError("condensation of the matched digraph has a cycle")
    values = {e: rank[component[i]] for e, i in zip(poset.elements, poset._declared_ids())}
    return MorseBottFunction(poset=poset, values=values, matching=matching)


def sublevel(poset: Poset, values: dict[str, Fraction], level) -> tuple[str, ...]:
    """The elements of X_a, the union of the minimal open sets U_x with
    f(x) <= a, in poset order (the subposet itself is never built)."""
    level = Fraction(level)
    return poset.down_closure(x for x in poset.elements if values[x] <= level)


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


class AttachmentReport(NamedTuple):
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
    values = function.values
    lower, upper = (poset._closure(x for x, e in enumerate(poset._names) if values[e] <= t)
                    for t in (a, b))
    return _attachment(poset, classes[0], lower, upper - lower, a, b)


def _attachment(poset: Poset, members: tuple[str, ...], lower: set[int], new: set[int],
                a: Fraction, b: Fraction) -> AttachmentReport:
    """The identities of attaching `members` to `lower` = X_a, `new` =
    X_b - X_a, both sets of ids; only the reported lists are named."""
    ident, names, lowers = poset._id, poset._names, poset._lower
    inside = {ident[e] for e in members}
    # the lower boundary of the class: its lower covers outside it
    boundary = {w for x in inside for w in lowers[x] if w not in inside}
    identities = {
        "new_elements_equal_class": new == inside,
        "boundary_inside_lower": boundary <= lower,
        "class_misses_lower": lower.isdisjoint(inside),
    }
    return AttachmentReport(
        interval=(a, b), kind="critical-attachment", class_elements=members,
        boundary=tuple(sorted(map(names.__getitem__, boundary))),
        new_elements=tuple(sorted(map(names.__getitem__, new))),
        identities=identities, ok=all(identities.values()))


def filtration_sweep(poset: Poset,
                     function: MorseBottFunction) -> tuple[list[AttachmentReport], bool]:
    """Walk the filtration of the function's matching once, in value
    order: tight attachment checks around every critical value, then
    collapse checks across every maximal regular gap.  The cuts lie one
    below the least value, halfway between consecutive values and one
    above the greatest.  One sublevel set of ids grows by the down-sets
    of the elements between cuts; a gap's check reads only what it added,
    and names are made only for the lists an attachment report shows."""
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
    # the ids at each value
    level: dict[Fraction, list[int]] = {}
    for x, e in enumerate(poset._names):
        level.setdefault(function.values[e], []).append(x)
    values = sorted(level)
    if not values:
        return [], True
    cuts = [Fraction(values[0] - 1), *(Fraction(lo + hi, 2) for lo, hi in zip(values, values[1:])),
            Fraction(values[-1] + 1)]
    attachments, gaps = [], []
    # the sublevel set at the cut, and what the regular gap open since cut `start` added
    start, lower, added = 0, set(), []
    for i, v in enumerate(values):
        new = poset._closure(level[v], lower)
        if v in classes:
            gaps.append((start, i, _pair_homology(poset, added)))
            attachments.append(
                _attachment(poset, classes[v][0], lower, new, cuts[i], cuts[i + 1]))
            start, added = i + 1, []
        else:
            added += new
        lower |= new
    gaps.append((start, len(values), _pair_homology(poset, added)))
    reports = attachments + [
        AttachmentReport(interval=(cuts[lo], cuts[hi]), kind="regular-interval", ok=h.is_trivial())
        for lo, hi, h in gaps]
    return reports, all(r.ok for r in reports)
