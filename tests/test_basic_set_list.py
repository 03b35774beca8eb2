"""The basic sets as one list, and what reads it: `classes` partitions the
recurrent set (critical points first, in poset order, then the orbit
classes), the filtration checks read the function's own matching, and
`integrate_matching` orders the condensation as the definition does, on
the fixtures and on seeded matchings of admissible posets, orbits
included."""

from fractions import Fraction
from pathlib import Path

import pytest

from posetmorse import (
    MorseBottFunction,
    basic_sets,
    face_poset,
    filtration_sweep,
    integrate_matching,
    parse_simplicial_complex,
    subdivision,
    verify_attachment,
)
from posetmorse.errors import NotMorse
from posetmorse.formats import parse_matching_text
from posetmorse.randgen import (
    XorShift64Star,
    random_graded_poset,
    random_matching,
    random_simplicial_complex,
)

from helpers import brute_force_recurrent, digraph_arcs, reachable_from

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="module")
def fixture_runs(t3, t3_m1, t3_m2, t3_empty_matching, mobius_poset, mobius_ring_matching,
                 rp2_poset, rp2_star5_matching):
    sphere = face_poset(parse_simplicial_complex((DATA / "boundary_6simplex.txt").read_text()))
    cone = parse_matching_text(
        sphere, (DATA / "boundary_6simplex_cone_matching.txt").read_text())
    return [(t3, t3_m1), (t3, t3_m2), (t3, t3_empty_matching),
            (mobius_poset, mobius_ring_matching), (rp2_poset, rp2_star5_matching),
            (sphere, cone)]


def _seeded_runs(seed: int):
    """Random matchings of face posets of random complexes and of
    subdivisions of random graded posets, all admissible."""
    rng = XorShift64Star(seed)
    for i in range(200):
        poset = (face_poset(random_simplicial_complex(rng, max_vertices=6)) if i % 3
                 else subdivision(random_graded_poset(rng, max_elements=6, max_levels=3)))
        yield poset, random_matching(rng, poset)


def _mutual_classes(poset, matching) -> dict[str, frozenset[str]]:
    """Each element's class under mutual reachability in the matched digraph."""
    succ = digraph_arcs(poset, matching)
    reach = {e: reachable_from(succ, e) | {e} for e in poset.elements}
    return {e: frozenset(x for x in reach[e] if e in reach[x]) for e in poset.elements}


def _kahn_oracle(poset, matching) -> dict[str, Fraction]:
    """Repeatedly remove the source component (no arc enters it from the
    elements left) that holds the earliest element; the k-th removed gets
    the number of components minus k.  O(n) per removal."""
    succ = digraph_arcs(poset, matching)
    comp = _mutual_classes(poset, matching)
    left = list(poset.elements)
    taken = []
    while left:
        entered = {y for x in left for y in succ[x] if y not in comp[x]}
        first = next(e for e in left if not comp[e] & entered)
        taken.append(comp[first])
        left = [x for x in left if x not in comp[first]]
    return {e: Fraction(len(taken) - k) for k, members in enumerate(taken) for e in members}


def _check_classes(poset, matching) -> int:
    dec = basic_sets(poset, matching)
    n_critical = len(dec.critical)
    singles, orbits = dec.classes[:n_critical], dec.classes[n_critical:]
    matched = matching.matched_elements()
    assert singles == tuple((e,) for e in poset.elements if e not in matched)
    assert orbits == tuple(c.elements for c in dec.orbit_classes)
    assert all(len(members) >= 2 for members in orbits)
    flat = [e for members in dec.classes for e in members]
    assert len(flat) == len(set(flat))
    assert set(flat) == dec.recurrent_set == brute_force_recurrent(poset, matching)
    mutual = _mutual_classes(poset, matching)
    for members in orbits:
        assert mutual[members[0]] == frozenset(members)
    for e in dec.transient:
        assert dec.class_elements(e) == (e,)
    for members in dec.classes:
        assert all(dec.class_elements(e) == members for e in members)
    return len(orbits)


def test_classes_partition_recurrent_set_on_fixtures(fixture_runs):
    assert sum(_check_classes(poset, matching) for poset, matching in fixture_runs) >= 3


def test_classes_partition_recurrent_set_on_seeded_matchings():
    assert sum(_check_classes(poset, matching) for poset, matching in _seeded_runs(14)) >= 10


def test_class_elements_of_transient_element_is_itself(t3, t3_m1):
    dec = basic_sets(t3, t3_m1)
    assert dec.transient
    for e in dec.transient:
        assert dec.class_elements(e) == (e,)


def test_filtration_checks_need_the_functions_matching(t3, t3_m1):
    bare = MorseBottFunction(poset=t3, values=integrate_matching(t3, t3_m1).values)
    with pytest.raises(NotMorse):
        filtration_sweep(t3, bare)
    with pytest.raises(NotMorse):
        verify_attachment(t3, bare, Fraction(11, 2), Fraction(13, 2))


def test_integration_order_matches_kahn_oracle(fixture_runs):
    runs = list(fixture_runs) + list(_seeded_runs(15))
    orbits = 0
    for poset, matching in runs:
        assert integrate_matching(poset, matching).values == _kahn_oracle(poset, matching)
        orbits += len(basic_sets(poset, matching).orbit_classes)
    assert orbits >= 10
