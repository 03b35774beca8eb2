"""Punctured down-sets decided by the exact sequence of the pair.

w is maximal in U.x, so (U.x, U.x - {w}) has the homology of (U_w, U.w),
H~(U.w) one degree up.  The cellularity pass marks the cover (w, x) as
not admissible when that differs from H~(U.x), as admissible when both
are trivial, and reads the homology of U.x - {w} off its chain model
only when both agree and are not trivial.  These tests hold the pass to
the order-complex definition on dense posets, where most non-cellular
elements have ten or more lower covers, and count the punctured homology
it still computes."""

from collections import Counter

from posetmorse import Poset, check_cellularity, poset_homology
from posetmorse.randgen import XorShift64Star

from helpers import order_complex_cellularity


def dense_poset(rng: XorShift64Star, widths: list[int], covers) -> Poset:
    """Levels of the given widths; each element above the bottom covers
    `covers(rng, width below)` elements one level down."""
    names = [[f"d{p}_{i}" for i in range(n)] for p, n in enumerate(widths)]
    return Poset([e for level in names for e in level],
                 [(w, x) for lower, upper in zip(names, names[1:]) for x in upper
                  for w in rng.sample(lower, covers(rng, len(lower)))])


def many_covers(rng: XorShift64Star, below: int) -> int:
    """Two covers (a 0-sphere below, when they are points) one time in
    four, else 10 up to all of the level below."""
    return 2 if rng.chance(1, 4) else rng.randint(10, below)


def edges_then_many(rng: XorShift64Star, below: int) -> int:
    """Edges, some of them with 1 or 3 ends, below elements on many edges."""
    return rng.randint(1, 3) if below < 10 else many_covers(rng, below)


def dense_posets(seed: int):
    rng = XorShift64Star(seed)
    for _ in range(4):
        yield dense_poset(rng, [rng.randint(10, 16), rng.randint(8, 14)], many_covers)
    for _ in range(4):
        yield dense_poset(rng, [rng.randint(6, 8), rng.randint(10, 14), rng.randint(6, 10)],
                          edges_then_many)


def test_pass_matches_definition_on_dense_posets():
    crowded = 0
    for poset in dense_posets(10):
        report = check_cellularity(poset)
        assert report == order_complex_cellularity(poset)
        assert not report.is_cellular
        bad = [w[1] for w in report.witnesses if w[0] == "not-cellular"]
        crowded += sum(1 for x in bad if len(poset.lower_covers(x)) >= 10)
    assert crowded >= 40


def suspended_whiskered_circle(times: int) -> Poset:
    """The circle a, b < c, d with a whisker t over a alone, which is not
    cellular and keeps the homotopy type, suspended `times` times: each
    suspension adds two cellular elements over a non-cellular one."""
    elements = ["a", "b", "c", "d", "t"]
    covers = [("a", "c"), ("b", "c"), ("a", "d"), ("b", "d"), ("a", "t")]
    top = ["c", "d", "t"]
    for i in range(times):
        new = [f"n{i}", f"s{i}"]
        covers += [(e, x) for e in top for x in new]
        elements, top = elements + new, new
    return Poset(elements, covers)


def test_pass_computes_only_the_punctured_homology_it_needs(monkeypatch):
    import sys

    cellular = sys.modules["posetmorse.cellular"]
    # dense posets, and spheres over a non-cellular element, where H~(U.x)
    # and H(U_w, U.w) agree without being trivial
    posets = list(dense_posets(11)) + [suspended_whiskered_circle(n) for n in (1, 2, 3)]
    reports = [order_complex_cellularity(poset) for poset in posets]
    listed = []
    cells = cellular._cells

    def counted_cells(eps, degrees, members, reduced=False):
        listed.append((frozenset(members), reduced))
        return cells(eps, degrees, members, reduced)

    monkeypatch.setattr(cellular, "_cells", counted_cells)
    decided = computed = 0
    for poset, report in zip(posets, reports):
        listed.clear()
        assert check_cellularity(poset) == report
        # the pass lists cells by id
        names = sorted(poset.elements, key=poset.height_order().__getitem__)
        complexes = [frozenset(names[i] for i in members) for members, reduced in listed if reduced]
        # d*d is checked on the rows: no listing of every cell of the pass
        assert frozenset(poset.elements) not in complexes
        below = {x: poset.strictly_below(x) for x in poset.elements}
        # the pair (U.x, U_w) of a maximal x, at most once each, w a lower
        # cover with the largest down-set: the only listings without C_{-1}
        excised = Counter(frozenset(names[i] for i in members)
                          for members, reduced in listed if not reduced)
        cones = Counter(below[x] - below[w] - {w} for x in poset.elements
                        if not poset.upper_covers(x) for w in poset.lower_covers(x)
                        if len(below[w]) == max(len(below[v]) for v in poset.lower_covers(x)))
        assert all(n <= cones[members] for members, n in excised.items())
        # a down-set's complex is built at most once per element
        owners = Counter(below[x] for x in poset.elements)
        strict = {members: n for members, n in Counter(complexes).items() if members in owners}
        assert all(n <= owners[members] for members, n in strict.items())
        # the punctured ones, once per cover where both summaries agree and
        # are not trivial
        punctured = Counter(members for members in complexes if members not in owners)
        reduced = {x: poset_homology(poset.induced(below[x]), reduced=True).nontrivial()
                   for x in poset.elements}
        needed = Counter(below[x] - {w} for w, x in poset.covers if reduced[x] and {
            k + 1: group for k, group in reduced[w].items()} == reduced[x])
        assert all(n <= needed[members] for members, n in punctured.items())
        decided += len(poset.covers) - sum(punctured.values())
        computed += sum(punctured.values())
    assert decided >= 700 and computed >= 20, (decided, computed)
