import pytest

from posetmorse import (
    basic_sets,
    build_poset,
    cellular_chain_complex,
    face_poset,
    is_morse_matching,
    is_morse_smale,
    matched_digraph,
    orbit_multiplicity,
    parse_simplicial_complex,
    perturb_to_morse,
    validate_matching,
)
from posetmorse.dynamics import critical_counts, orbit_counts, prime_orbits
from posetmorse.errors import ElementMatchedTwice, NotACover, NotGraded, NotMorseSmale
from posetmorse.randgen import XorShift64Star, random_graded_poset, random_matching

from helpers import brute_force_equivalent, brute_force_recurrent, gauge_flip, rotated_to


def test_validate_matching(t3):
    m = validate_matching(t3, [("v1", "e12"), ("v2", "e23")])
    assert len(m) == 2
    up = dict(m.pairs)
    assert up["v1"] == "e12"
    assert {x: w for w, x in m.pairs}["e12"] == "v1"
    assert "v3" not in up


def test_validate_matching_errors(t3):
    with pytest.raises(ElementMatchedTwice):
        validate_matching(t3, [("v1", "e12"), ("v1", "e13")])
    with pytest.raises(NotACover):
        validate_matching(t3, [("v1", "e23")])
    with pytest.raises(NotACover):
        validate_matching(t3, [("e12", "v1")])


def test_empty_matching_everything_critical(t3, t3_empty_matching):
    dec = basic_sets(t3, t3_empty_matching)
    assert dec.critical == t3.elements
    assert not dec.orbit_classes
    assert dec.recurrent_set == frozenset(t3.elements)


def test_m2_digraph_is_six_cycle(t3, t3_m2):
    digraph = matched_digraph(t3, t3_m2)
    assert len(digraph.arcs) == 6
    succ = digraph.successors
    cycle = ["v1"]
    while True:
        nxt = succ[cycle[-1]]
        assert len(nxt) == 1
        if nxt[0] == "v1":
            break
        cycle.append(nxt[0])
    assert cycle == ["v1", "e12", "v2", "e23", "v3", "e13"]


def test_empty_matching_arcs_point_down(t3, t3_empty_matching):
    digraph = matched_digraph(t3, t3_empty_matching)
    heights = t3.heights()
    assert all(heights[a] > heights[b] for a, b in digraph.arcs)


def test_basic_sets_m2(t3, t3_m2):
    dec = basic_sets(t3, t3_m2)
    assert dec.critical == ()
    assert len(dec.orbit_classes) == 1
    cls = dec.orbit_classes[0]
    assert set(cls.elements) == set(t3.elements)
    assert cls.index == 0


def test_basic_sets_m1(t3, t3_m1):
    dec = basic_sets(t3, t3_m1)
    assert dec.critical == ("v3", "e13")
    assert not dec.orbit_classes
    assert set(dec.transient) == {"v1", "v2", "e12", "e23"}
    assert dec.class_elements("v1") == ("v1",)


def test_basic_sets_needs_grading():
    p = build_poset(["a", "b", "c", "d"], [("a", "b"), ("b", "d"), ("c", "d")])
    with pytest.raises(NotGraded):
        basic_sets(p, validate_matching(p, []))


def test_dynamics_refuse_an_ungraded_poset_whose_cycle_leaves_the_band():
    """On a graded poset every closed walk alternates between matched pairs
    in two adjacent degrees, which is all the band graph sees.  Here the
    cover a < b skips a height, and the closed walk a b c d e a spans
    heights 0-2 through the unmatched c, so the dynamics refuse the poset
    rather than answer from the band graph."""
    from posetmorse import integrate_matching

    poset = build_poset(list("abcde"),
                        [("a", "b"), ("c", "b"), ("d", "c"), ("d", "e"), ("a", "e")])
    matching = validate_matching(poset, [("a", "b"), ("d", "e")])
    assert poset.heights() == {"a": 0, "d": 0, "c": 1, "e": 1, "b": 2}
    digraph = matched_digraph(poset, matching)
    assert [arc for arc in digraph.arcs if arc[0] in "ab"] == [("a", "b"), ("b", "c")]
    for dynamics in (is_morse_matching, basic_sets, integrate_matching):
        with pytest.raises(NotGraded):
            dynamics(poset, matching)


def test_morse_matching_flags(t3, t3_m1, t3_m2, t3_empty_matching):
    assert is_morse_matching(t3, t3_m1)
    assert not is_morse_matching(t3, t3_m2)
    assert is_morse_matching(t3, t3_empty_matching)


def test_morse_iff_no_orbit_classes(t3):
    rng = XorShift64Star(11)
    for _ in range(40):
        m = random_matching(rng, t3)
        assert is_morse_matching(t3, m) == (not basic_sets(t3, m).orbit_classes)


def test_recurrent_set_matches_brute_force():
    rng = XorShift64Star(23)
    for _ in range(40):
        poset = random_graded_poset(rng, max_elements=10)
        matching = random_matching(rng, poset)
        dec = basic_sets(poset, matching)
        assert set(dec.recurrent_set) == brute_force_recurrent(poset, matching)


def test_orbit_classes_are_mutual_cycle_classes(t3, t3_m2):
    dec = basic_sets(t3, t3_m2)
    cls = dec.orbit_classes[0].elements
    for a in cls:
        for b in cls:
            assert brute_force_equivalent(t3, t3_m2, a, b)


def test_morse_smale_t3(t3, t3_m1, t3_m2):
    verdict = is_morse_smale(t3, t3_m2)
    assert verdict.is_morse_smale
    assert len(verdict.orbits) == 1
    orbit = verdict.orbits[0]
    assert orbit.nodes == ("v1", "e12", "v2", "e23", "v3", "e13")
    assert orbit.index == 0
    assert orbit.pairs() == (("v1", "e12"), ("v2", "e23"), ("v3", "e13"))
    # vacuously Morse-Smale: no orbits at all
    assert is_morse_smale(t3, t3_m1).is_morse_smale


def test_morse_smale_false_fixture():
    # edge 1|3 sits in three triangles; two matched cycles share 1|3 -> 1|2|3,
    # so that component is not a simple cycle
    complex = parse_simplicial_complex("1 2 3\n1 2 5\n1 3 5\n2 3 5\n3 4 5\n1 3 4\n")
    poset = face_poset(complex)
    matching = validate_matching(poset, [
        ("1|3", "1|2|3"), ("1|2", "1|2|5"), ("1|5", "1|3|5"),
        ("2|3", "2|3|5"), ("3|5", "3|4|5"), ("3|4", "1|3|4"),
    ])
    verdict = is_morse_smale(poset, matching)
    assert not verdict.is_morse_smale
    assert len(basic_sets(poset, matching).orbit_classes) == 1
    with pytest.raises(NotMorseSmale):
        prime_orbits(poset, matching)


def test_two_triangle_poset_never_fails_morse_smale():
    # on the face poset of two triangles glued along an edge every
    # component is forced simple: lower elements have at most one
    # outgoing arc inside a band, and no edge-triangle cycles exist
    complex = parse_simplicial_complex("1 2 3\n2 3 4\n")
    poset = face_poset(complex)
    covers = sorted(poset.covers)

    def all_matchings(start, used):
        yield []
        for i in range(start, len(covers)):
            w, x = covers[i]
            if w in used or x in used:
                continue
            for rest in all_matchings(i + 1, used | {w, x}):
                yield [(w, x)] + rest

    count = 0
    for pairs in all_matchings(0, frozenset()):
        matching = validate_matching(poset, pairs)
        assert is_morse_smale(poset, matching).is_morse_smale
        count += 1
    assert count > 100  # exhaustive enumeration really ran


def test_multiplicity_t3(t3, t3_m2):
    cell = cellular_chain_complex(t3)
    orbit = prime_orbits(t3, t3_m2)[0]
    assert orbit_multiplicity(orbit, cell) == 1


def test_multiplicity_gauge_invariance(t3, t3_m2):
    cell = cellular_chain_complex(t3)
    orbit = prime_orbits(t3, t3_m2)[0]
    base = orbit_multiplicity(orbit, cell)
    rng = XorShift64Star(3)
    for _ in range(8):
        signs = {e: -1 for e in t3.elements if rng.chance(1, 2)}
        flipped = gauge_flip(cell, signs)
        assert orbit_multiplicity(orbit, flipped) == base
    # single flip too
    assert orbit_multiplicity(orbit, gauge_flip(cell, {"e12": -1})) == base


def test_multiplicity_rotation_invariance(t3, t3_m2):
    cell = cellular_chain_complex(t3)
    orbit = prime_orbits(t3, t3_m2)[0]
    base = orbit_multiplicity(orbit, cell)
    for start in ("v2", "v3"):
        rotated = rotated_to(orbit, start)
        assert orbit_multiplicity(rotated, cell) == base


def test_mobius_orbit_has_multiplicity_minus_one(mobius_poset, mobius_ring_matching):
    verdict = is_morse_smale(mobius_poset, mobius_ring_matching)
    assert verdict.is_morse_smale
    assert len(verdict.orbits) == 1
    orbit = verdict.orbits[0]
    assert orbit.index == 1
    cell = cellular_chain_complex(mobius_poset)
    assert orbit_multiplicity(orbit, cell) == -1


def test_rp2_star_orbit(rp2_poset, rp2_star5_matching):
    verdict = is_morse_smale(rp2_poset, rp2_star5_matching)
    assert verdict.is_morse_smale
    assert len(verdict.orbits) == 1
    assert verdict.orbits[0].index == 1
    cell = cellular_chain_complex(rp2_poset)
    assert orbit_multiplicity(verdict.orbits[0], cell) in (1, -1)


def test_matching_partner_stays_outside_orbit(t3, t3_m2, mobius_poset, mobius_ring_matching):
    # matched elements outside a cycle have partners outside it
    for poset, matching in ((t3, t3_m2), (mobius_poset, mobius_ring_matching)):
        for orbit in prime_orbits(poset, matching):
            members = set(orbit.nodes)
            for w, x in matching.pairs:
                if w not in members and x not in members:
                    continue
                assert w in members and x in members


def test_perturb_t3(t3, t3_m1, t3_m2):
    perturbed, removed = perturb_to_morse(t3, t3_m2)
    assert removed == (("v1", "e12"),)
    assert is_morse_matching(t3, perturbed)
    assert critical_counts(t3, perturbed) == {0: 1, 1: 1}
    # no orbits: nothing removed
    same, removed1 = perturb_to_morse(t3, t3_m1)
    assert removed1 == ()
    assert same.pairs == t3_m1.pairs


def test_perturb_formula(t3, t3_m2):
    orbits = prime_orbits(t3, t3_m2)
    perturbed, _ = perturb_to_morse(t3, t3_m2)
    mstar = critical_counts(t3, perturbed)
    c = critical_counts(t3, t3_m2)
    A = orbit_counts(orbits)
    for p in range(2):
        assert mstar.get(p, 0) == c.get(p, 0) + A.get(p, 0) + A.get(p - 1, 0)


def test_perturb_two_disjoint_orbits():
    # disjoint union of two copies of T3, each with the full cyclic matching
    elements = []
    covers = []
    for tag in ("a", "b"):
        vs = [f"{tag}v1", f"{tag}v2", f"{tag}v3"]
        es = [f"{tag}e12", f"{tag}e13", f"{tag}e23"]
        elements += vs + es
        covers += [(vs[0], es[0]), (vs[1], es[0]), (vs[0], es[1]),
                   (vs[2], es[1]), (vs[1], es[2]), (vs[2], es[2])]
    poset = build_poset(elements, covers)
    pairs = [(f"{tag}v1", f"{tag}e12") for tag in ("a", "b")]
    pairs += [(f"{tag}v2", f"{tag}e23") for tag in ("a", "b")]
    pairs += [(f"{tag}v3", f"{tag}e13") for tag in ("a", "b")]
    matching = validate_matching(poset, pairs)
    orbits = prime_orbits(poset, matching)
    assert len(orbits) == 2
    perturbed, removed = perturb_to_morse(poset, matching)
    assert len(removed) == 2
    assert is_morse_matching(poset, perturbed)


def test_not_morse_smale_error_on_perturb():
    complex = parse_simplicial_complex("1 2 3\n1 2 5\n1 3 5\n2 3 5\n3 4 5\n1 3 4\n")
    poset = face_poset(complex)
    matching = validate_matching(poset, [
        ("1|3", "1|2|3"), ("1|2", "1|2|5"), ("1|5", "1|3|5"),
        ("2|3", "2|3|5"), ("3|5", "3|4|5"), ("3|4", "1|3|4"),
    ])
    with pytest.raises(NotMorseSmale):
        perturb_to_morse(poset, matching)


def test_orbit_alternates_two_degrees(mobius_poset, mobius_ring_matching):
    dec = basic_sets(mobius_poset, mobius_ring_matching)
    for cls in dec.orbit_classes:
        degrees = {mobius_poset.degree(e) for e in cls.elements}
        assert degrees == {cls.index, cls.index + 1}


DYNAMICS_JOBS = [
    # (subcommand, band graphs built: the matching, and for ls-check the
    # perturbed one, once each; Morse-Smale verdicts computed)
    ("ls-check", 2, 1),
    ("inequalities", 1, 1),
    ("matching", 1, 1),
    ("sweep", 1, 0),
    ("integrate", 1, 0),
]


@pytest.mark.parametrize("command,bands,verdicts", DYNAMICS_JOBS)
def test_one_digraph_per_matching_and_one_verdict_per_job(command, bands, verdicts,
                                                          monkeypatch, capsys):
    import sys
    from pathlib import Path

    from posetmorse.cli import run

    dynamics = sys.modules["posetmorse.dynamics"]
    calls = {"_orbit_classes": 0, "MorseSmaleVerdict": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    # the band graph and its orbit classes on ids, which `_recurrence`
    # builds once per matching; no whole-poset digraph is built
    monkeypatch.setattr(dynamics, "_orbit_classes",
                        counted("_orbit_classes", dynamics._orbit_classes))
    # a verdict is computed where `is_morse_smale` builds one; a later call
    # returns the one kept with the matching's recurrence record
    monkeypatch.setattr(dynamics, "MorseSmaleVerdict",
                        counted("MorseSmaleVerdict", dynamics.MorseSmaleVerdict))
    data = Path(__file__).resolve().parent.parent / "data"
    assert run([command, "--input", str(data / "rp2_6.txt"), "--kind", "simplicial",
                "--matching", str(data / "rp2_star5_matching.txt")]) == 0
    capsys.readouterr()
    assert calls == {"_orbit_classes": bands, "MorseSmaleVerdict": verdicts}
