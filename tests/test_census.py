"""Every poset up to 7 elements, one per isomorphism class
(`helpers.poset_census`), as a test oracle.  There are 1, 2, 5, 16, 63,
318 and 2045 of them on 1..7 elements (OEIS A000112; Brinkmann and McKay,
"Posets on up to 16 points", Order 19, 2002).

Up to 6 elements the cellularity pass on every one is the per-down-set
reference's (7 would add about 1.4 s).  On every graded one the cellular
homology is the order complex's, and every matching of its covers gives the basic sets, the cycle of each
orbit class and the integrated values of the name-keyed matched digraph
(`helpers.name_keyed_dynamics`).  On the admissible ones the Morse-Smale
verdict is the oracle's too, and where it holds the strong Morse-Bott
inequalities and the Lusternik-Schnirelmann theorem hold, with each basic
set's hccat that of its order-complex pair."""

import functools

import pytest

from posetmorse import (
    basic_sets,
    hccat,
    integrate_matching,
    is_morse_smale,
    ls_theorem_check,
    poset_homology,
    space_homology,
    strong_morse_bott,
)
from posetmorse.cellular import is_admissible

from helpers import (
    all_matchings,
    census_poset,
    name_keyed_dynamics,
    named_pass,
    order_complex_pair_homology,
    plain_rows,
    poset_census,
    recorded_cycles,
    reference_cellular_pass,
)

SIZES = range(1, 8)


def test_the_census_counts_the_posets_up_to_isomorphism():
    assert [len(poset_census(n)) for n in SIZES] == [1, 2, 5, 16, 63, 318, 2045]


@pytest.mark.parametrize("n", range(1, 7))
def test_the_pass_is_the_per_down_set_references_on_every_poset(n):
    for relation in poset_census(n):
        poset = census_poset(n, relation)
        report, rows = named_pass(poset)
        expected_report, expected_rows = reference_cellular_pass(poset)
        assert report == expected_report
        assert plain_rows(rows) == plain_rows(expected_rows)


@functools.cache
def _graded(n: int) -> list:
    posets = (census_poset(n, relation) for relation in poset_census(n))
    return [poset for poset in posets if poset.is_graded()]


@pytest.mark.parametrize("n", SIZES)
def test_space_homology_is_the_order_complexs_on_every_graded_poset(n):
    for poset in _graded(n):
        assert space_homology(poset) == poset_homology(poset)


# per size: graded posets, admissible ones, matchings, orbit classes, and
# those classes that are one simple cycle
TOTALS = {
    1: (1, 1, 1, 0, 0),
    2: (2, 1, 3, 0, 0),
    3: (5, 2, 12, 0, 0),
    4: (15, 3, 61, 2, 2),
    5: (51, 6, 361, 24, 24),
    6: (201, 12, 2543, 267, 254),
    7: (909, 26, 21210, 3103, 2826),
}


@pytest.mark.parametrize("n", SIZES)
def test_every_matching_of_every_graded_poset_is_the_oracles(n):
    totals = [len(_graded(n)), 0, 0, 0, 0]
    for poset in _graded(n):
        admissible = is_admissible(poset)
        totals[1] += admissible
        for matching in all_matchings(poset):
            totals[2] += 1
            oracle = name_keyed_dynamics(poset, matching)
            dec = basic_sets(poset, matching)
            assert dec.critical == oracle.critical
            assert tuple((c.elements, c.index) for c in dec.orbit_classes) == oracle.orbit_classes
            cycles = recorded_cycles(poset, matching)
            assert cycles == oracle.cycles
            totals[3] += len(cycles)
            totals[4] += sum(c is not None for c in cycles)
            function = integrate_matching(poset, matching)
            assert list(function.values.items()) == list(oracle.values.items())
            if admissible:
                _theorems(poset, matching, oracle)
    assert tuple(totals) == TOTALS[n]


def _theorems(poset, matching, oracle) -> None:
    """The Morse-Smale verdict against the oracle's cycles, and where it
    holds the theorems, each class value against the order complex."""
    verdict = is_morse_smale(poset, matching)
    if not verdict.is_morse_smale:
        first = oracle.cycles.index(None)
        assert verdict.offender == oracle.orbit_classes[first][0][0]
        return
    assert tuple(orbit.nodes for orbit in verdict.orbits) == oracle.cycles
    assert strong_morse_bott(poset, matching).holds
    report = ls_theorem_check(poset, matching)
    assert (report.holds, report.intermediate_holds, report.counts_match_formula,
            report.warnings) == (True, True, True, ())
    dec = basic_sets(poset, matching)
    for (first, expected, recomputed), members in zip(report.class_values, dec.classes):
        assert first == members[0]
        closure = poset.down_closure(members)
        value = hccat(order_complex_pair_homology(poset, closure, set(closure) - set(members)))
        assert expected == recomputed == value
