"""Punctured down-sets decided by the exact sequence of the pair.

Below a non-cellular x, the cellularity pass marks every cover (w, x)
with w cellular as not admissible without computing homology: w is
maximal in U.x, so (U.x, U.x - {w}) has the homology of (U_w, U.w), Z in
degree deg x - 1, and U.x - {w} could only be acyclic if U.x were a
homology sphere.  These tests hold the pass to the order-complex
definition on dense posets, where most non-cellular elements have ten or
more lower covers, and count the homology it still computes."""

from collections import Counter

from posetmorse import Poset, check_cellularity
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


def test_pass_computes_only_the_punctured_homology_it_needs(monkeypatch):
    import sys

    cellular = sys.modules["posetmorse.cellular"]
    posets = list(dense_posets(11))
    reports = [order_complex_cellularity(poset) for poset in posets]
    cores, complexes = [], []
    core_homology, cellular_complex = cellular.core_homology, cellular._cellular_complex

    def counted_core(poset, members):
        cores.append(frozenset(members))
        return core_homology(poset, members)

    def counted_complex(poset, eps, members, *args, **kwargs):
        complexes.append(frozenset(members))
        return cellular_complex(poset, eps, members, *args, **kwargs)

    monkeypatch.setattr(cellular, "core_homology", counted_core)
    monkeypatch.setattr(cellular, "_cellular_complex", counted_complex)
    skipped = punctured = 0
    for poset, report in zip(posets, reports):
        cores.clear()
        complexes.clear()
        assert check_cellularity(poset) == report
        bad = {w[1] for w in report.witnesses if w[0] == "not-cellular"}
        below = {x: poset.strictly_below(x) for x in poset.elements}
        # a down-set's cellular complex is built at most once per element
        owners = Counter(below[x] for x in poset.elements)
        assert all(n <= owners[members] for members, n in Counter(complexes).items())
        # the punctured cores left: w non-cellular, or x cellular
        needed = {below[x] - {w} for w, x in poset.covers if w in bad or x not in bad}
        down_sets = {below[x] for x in poset.elements if below[x] & bad}
        assert set(cores) <= needed | down_sets
        skipped += sum(1 for w, x in poset.covers if x in bad and w not in bad)
        punctured += sum(1 for members in cores if members not in down_sets)
    assert skipped >= 300 and punctured >= 10, (skipped, punctured)
