from fractions import Fraction

import pytest

from posetmorse import (
    MorseBottFunction,
    basic_sets,
    boundary_of_class,
    build_poset,
    face_poset,
    filtration_sweep,
    integrate_matching,
    is_morse_function,
    morse_function_to_matching,
    parse_simplicial_complex,
    require_morse_bott,
    sublevel,
    validate_matching,
    verify_attachment,
    verify_collapse,
)
from posetmorse.errors import (
    CriticalValueInInterval,
    NotGraded,
    NotMorse,
    NotMorseBott,
    WrongCriticalCount,
)
from posetmorse.randgen import XorShift64Star, random_graded_poset, random_matching

from helpers import check_integration_conditions


def degree_function(poset):
    return {e: Fraction(poset.heights()[e]) for e in poset.elements}


def test_degree_is_morse_everything_critical(t3):
    verdict = is_morse_function(t3, degree_function(t3))
    assert verdict.is_morse
    assert verdict.critical == t3.elements


def test_integrated_m1_is_morse(t3, t3_m1):
    f = integrate_matching(t3, t3_m1)
    verdict = is_morse_function(t3, f.values)
    assert verdict.is_morse
    assert set(verdict.critical) == {"v3", "e13"}


def test_constant_function_not_morse(t3):
    constant = {e: Fraction(1) for e in t3.elements}
    assert not is_morse_function(t3, constant).is_morse


def test_matching_round_trips(t3, t3_m1, t3_empty_matching):
    f = integrate_matching(t3, t3_m1)
    assert morse_function_to_matching(t3, f.values).pairs == t3_m1.pairs
    assert morse_function_to_matching(t3, degree_function(t3)).pairs == frozenset()


def test_morse_bott_rejected_as_morse(t3, t3_m2):
    f = integrate_matching(t3, t3_m2)
    with pytest.raises(NotMorse):
        morse_function_to_matching(t3, f.values)


def test_integration_m1_values(t3, t3_m1):
    f = integrate_matching(t3, t3_m1)
    expected_order = ["e13", "v1", "e12", "v2", "e23", "v3"]
    values = [f.values[e] for e in expected_order]
    assert values == sorted(values, reverse=True)
    assert len(set(values)) == 6
    # canonical witness: reverse topological ranks 6..1
    assert values == [Fraction(k) for k in range(6, 0, -1)]


def test_integration_m2_constant(t3, t3_m2):
    f = integrate_matching(t3, t3_m2)
    assert set(f.values.values()) == {Fraction(1)}


def test_integration_empty_matching_increases_along_covers(t3, t3_empty_matching):
    f = integrate_matching(t3, t3_empty_matching)
    for w, x in t3.covers:
        assert f.values[w] < f.values[x]


def test_integration_needs_grading():
    p = build_poset(["a", "b", "c", "d"], [("a", "b"), ("b", "d"), ("c", "d")])
    with pytest.raises(NotGraded):
        integrate_matching(p, validate_matching(p, []))


def test_integration_conditions_independent_checker(t3, t3_m1, t3_m2, t3_empty_matching):
    for matching in (t3_m1, t3_m2, t3_empty_matching):
        f = integrate_matching(t3, matching)
        assert check_integration_conditions(t3, matching, f.values) == []


def test_integration_random_instances():
    rng = XorShift64Star(515)
    for _ in range(60):
        poset = random_graded_poset(rng, max_elements=12)
        matching = random_matching(rng, poset)
        f = integrate_matching(poset, matching)
        assert check_integration_conditions(poset, matching, f.values) == []
        require_morse_bott(f)


def test_a_function_must_be_constant_on_basic_sets(t3, t3_m2):
    # under m2 all six elements form one orbit class
    values = {e: Fraction(i) for i, e in enumerate(t3.elements)}
    with pytest.raises(NotMorseBott, match="not constant on the basic set"):
        require_morse_bott(MorseBottFunction(t3, values, t3_m2))


def test_a_function_must_not_increase_between_classes(t3, t3_m1):
    f = integrate_matching(t3, t3_m1)
    # constant on every class still, and increasing along every arc between two
    upside_down = MorseBottFunction(t3, {e: -v for e, v in f.values.items()}, t3_m1)
    with pytest.raises(NotMorseBott, match="increases along the arc"):
        require_morse_bott(upside_down)


def test_morse_matching_round_trip_random():
    from posetmorse import is_morse_matching
    rng = XorShift64Star(516)
    done = 0
    while done < 25:
        poset = random_graded_poset(rng, max_elements=10)
        matching = random_matching(rng, poset)
        if not is_morse_matching(poset, matching):
            continue
        f = integrate_matching(poset, matching)
        assert morse_function_to_matching(poset, f.values).pairs == matching.pairs
        done += 1


def test_sublevels_m1(t3, t3_m1):
    f = integrate_matching(t3, t3_m1)
    assert set(sublevel(t3, f.values, 1)) == {"v3"}
    assert set(sublevel(t3, f.values, 2)) == {"v2", "v3", "e23"}
    assert set(sublevel(t3, f.values, 6)) == set(t3.elements)
    assert sublevel(t3, f.values, 0) == ()


def test_sublevels_nested_and_down_closed(t3, t3_m1):
    f = integrate_matching(t3, t3_m1)
    previous: set[str] = set()
    for a in range(0, 7):
        current = set(sublevel(t3, f.values, a))
        assert previous <= current
        for x in current:
            assert set(t3.strictly_below(x)) <= current
        previous = current


def test_boundary_of_class(t3, t3_m1, t3_m2):
    assert boundary_of_class(t3, t3_m2, "v1") == frozenset()
    assert boundary_of_class(t3, t3_m1, "e13") == {"v1", "v3"}
    # transient matched element: singleton class, boundary = lower covers
    assert boundary_of_class(t3, t3_m1, "e12") == {"v1", "v2"}


def test_boundary_of_orbit_in_glued_triangles():
    complex = parse_simplicial_complex("1 2 3\n2 3 4\n")
    poset = face_poset(complex)
    # index-0 orbit around the boundary of the first triangle
    matching = validate_matching(poset, [("1", "1|2"), ("2", "2|3"), ("3", "1|3")])
    dec = basic_sets(poset, matching)
    assert len(dec.orbit_classes) == 1
    members = set(dec.orbit_classes[0].elements)
    expected = set()
    for x in members:
        for w in poset.lower_covers(x):
            if w not in members:
                expected.add(w)
    assert boundary_of_class(poset, matching, "1") == expected == set()


def test_collapse_regular_interval(t3, t3_m1):
    f = integrate_matching(t3, t3_m1)
    assert verify_collapse(t3, f, 2, 5)
    assert verify_collapse(t3, f, -10, 0)  # both sublevels empty


def test_collapse_rejects_critical_value(t3, t3_m1):
    f = integrate_matching(t3, t3_m1)
    with pytest.raises(CriticalValueInInterval):
        verify_collapse(t3, f, Fraction(1, 2), Fraction(3, 2))


def test_attachment_e13(t3, t3_m1):
    f = integrate_matching(t3, t3_m1)
    report = verify_attachment(t3, f, Fraction(11, 2), Fraction(13, 2))
    assert report.ok
    assert report.new_elements == ("e13",)
    assert set(report.boundary) == {"v1", "v3"}
    assert set(report.boundary) <= set(sublevel(t3, f.values, Fraction(11, 2)))


def test_attachment_orbit(t3, t3_m2):
    f = integrate_matching(t3, t3_m2)
    report = verify_attachment(t3, f, Fraction(1, 2), Fraction(3, 2))
    assert report.ok
    assert set(report.new_elements) == set(t3.elements)
    assert report.boundary == ()


def test_attachment_wrong_count(t3, t3_m1):
    f = integrate_matching(t3, t3_m1)
    with pytest.raises(WrongCriticalCount):
        verify_attachment(t3, f, 0, 10)  # two critical values
    with pytest.raises(WrongCriticalCount):
        verify_attachment(t3, f, 2, 5)  # none


def test_sweep_t3(t3, t3_m1, t3_m2):
    for matching in (t3_m1, t3_m2):
        f = integrate_matching(t3, matching)
        reports, ok = filtration_sweep(t3, f)
        assert ok
        kinds = {r.kind for r in reports}
        assert "critical-attachment" in kinds
        assert "regular-interval" in kinds


def test_sweep_mobius(mobius_poset, mobius_ring_matching):
    f = integrate_matching(mobius_poset, mobius_ring_matching)
    reports, ok = filtration_sweep(mobius_poset, f)
    assert ok


def test_sweep_rp2_star(rp2_poset, rp2_star5_matching):
    f = integrate_matching(rp2_poset, rp2_star5_matching)
    reports, ok = filtration_sweep(rp2_poset, f)
    assert ok
