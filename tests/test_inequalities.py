import json
from pathlib import Path

import pytest

from posetmorse import (
    build_poset,
    cellular_chain_complex,
    euler_characteristics,
    face_poset,
    morse_bott_numbers,
    orbit_inequalities_multiplicity,
    orbit_inequalities_torsion,
    poset_homology,
    strong_morse_bott,
    validate_matching,
)
from posetmorse.dynamics import critical_counts, is_morse_smale, orbit_multiplicity
from posetmorse.cli import run
from posetmorse.errors import NotAdmissible, NotMorseSmale
from posetmorse.randgen import (
    XorShift64Star,
    dismantlable_to_point,
    find_euler_gap_poset,
    random_matching,
    random_simplicial_complex,
)

from helpers import assert_basic_set_window, basic_set_relative_homology, find_morse_smale_matching

DATA = Path(__file__).resolve().parent.parent / "data"


def test_morse_bott_numbers_t3(t3, t3_m1, t3_m2, t3_empty_matching):
    assert morse_bott_numbers(t3, t3_m1)[0] == [1, 1]
    assert morse_bott_numbers(t3, t3_m2)[0] == [1, 1]
    assert morse_bott_numbers(t3, t3_empty_matching)[0] == [3, 3]


def test_morse_matching_m_equals_critical_counts(t3, t3_m1, t3_empty_matching):
    from posetmorse.dynamics import critical_counts
    for matching in (t3_m1, t3_empty_matching):
        m, _ = morse_bott_numbers(t3, matching)
        counts = critical_counts(t3, matching)
        for k, value in enumerate(m):
            assert value == counts.get(k, 0)


def test_critical_point_relative_homology(t3):
    # (U_x, strict U_x) for a critical edge: one unit in degree 1
    summary = basic_set_relative_homology(t3, ("e13",))
    assert summary.nontrivial() == {1: (1, ())}
    summary0 = basic_set_relative_homology(t3, ("v3",))
    assert summary0.nontrivial() == {0: (1, ())}


def test_orbit_relative_homology_window(rp2_poset, rp2_star5_matching):
    from posetmorse.dynamics import basic_sets
    dec = basic_sets(rp2_poset, rp2_star5_matching)
    orbit = [c for c in dec.orbit_classes][0]
    summary = basic_set_relative_homology(rp2_poset, orbit.elements)
    assert set(summary.nontrivial()) <= {orbit.index, orbit.index + 1}
    assert_basic_set_window(rp2_poset, rp2_star5_matching)


def test_window_lemma_t3(t3, t3_m1, t3_m2):
    assert_basic_set_window(t3, t3_m1)
    assert_basic_set_window(t3, t3_m2)


def test_strong_morse_bott_t3(t3, t3_m1, t3_m2, t3_empty_matching):
    r1 = strong_morse_bott(t3, t3_m1)
    assert r1.holds
    assert [(row.k, row.lhs, row.rhs) for row in r1.rows] == [(0, 1, 1), (1, 0, 0)]
    r2 = strong_morse_bott(t3, t3_m2)
    assert r2.holds
    assert [(row.lhs, row.rhs) for row in r2.rows] == [(1, 1), (0, 0)]
    r0 = strong_morse_bott(t3, t3_empty_matching)
    assert r0.holds
    assert [(row.k, row.lhs, row.rhs) for row in r0.rows] == [(0, 3, 1), (1, 0, 0)]
    assert r0.data["euler_m"] == r0.data["euler_b"] == 0


def test_strong_morse_bott_names_its_ring(mobius_poset, mobius_ring_matching, capsys):
    """m and the Betti numbers are the same free ranks in both rings; the
    orientation-reversing orbit's Z/2 is noted over Z only.  The library
    reads everything over Z; `inequalities --coeff rat` drops the notes
    and names the ring, and a ring other than int or rat is rejected."""
    integral = strong_morse_bott(mobius_poset, mobius_ring_matching)
    assert integral.data["torsion_notes"] == ["orbit at 1|2: torsion (2,) in degree 1"]
    assert integral.data["coefficients"] == "int"
    argv = ["inequalities", "--input", str(DATA / "mobius_5.txt"), "--kind", "simplicial",
            "--matching", str(DATA / "mobius_ring_matching.txt"), "--format", "doc"]
    docs = {}
    for ring in ("int", "rat"):
        assert run([*argv, "--coeff", ring]) == 0
        docs[ring] = json.loads(capsys.readouterr().out)["results"]["strong-morse-bott"]
    assert docs["int"] == integral.to_doc()
    rational = docs["rat"]
    assert rational["data"] == integral.to_doc()["data"] | {"torsion_notes": [],
                                                              "coefficients": "rat"}
    assert rational["rows"] == docs["int"]["rows"]
    for ring in ("Z", "integers"):
        with pytest.raises(SystemExit):
            run([*argv, "--coeff", ring])
    capsys.readouterr()


def test_strong_implies_weak(t3, t3_m1):
    report = strong_morse_bott(t3, t3_m1)
    assert all(row["ok"] for row in report.data["weak"])


def test_inequalities_need_admissible():
    chain = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    matching = validate_matching(chain, [])
    with pytest.raises(NotAdmissible):
        strong_morse_bott(chain, matching)


def test_torsion_inequality_t3(t3, t3_m1, t3_m2):
    r2 = orbit_inequalities_torsion(t3, t3_m2)
    assert r2.holds
    assert [(row.k, row.lhs, row.rhs) for row in r2.rows] == [(0, 1, 1), (1, 0, 0)]
    r1 = orbit_inequalities_torsion(t3, t3_m1)
    assert r1.holds
    assert [(row.k, row.lhs, row.rhs) for row in r1.rows] == [(0, 1, 1), (1, 0, 0)]


def test_torsion_inequality_rp2(rp2_poset, rp2_star5_matching):
    report = orbit_inequalities_torsion(rp2_poset, rp2_star5_matching)
    assert report.holds
    assert report.data["mu"] == [0, 1, 0]
    k1 = report.rows[1]
    assert k1.lhs == 1 + 10 - 6 and k1.rhs == 1 + 0 - 1


def test_torsion_inequality_needs_morse_smale():
    from posetmorse import parse_simplicial_complex
    complex = parse_simplicial_complex("1 2 3\n1 2 5\n1 3 5\n2 3 5\n3 4 5\n1 3 4\n")
    poset = face_poset(complex)
    matching = validate_matching(poset, [
        ("1|3", "1|2|3"), ("1|2", "1|2|5"), ("1|5", "1|3|5"),
        ("2|3", "2|3|5"), ("3|5", "3|4|5"), ("3|4", "1|3|4"),
    ])
    with pytest.raises(NotMorseSmale):
        orbit_inequalities_torsion(poset, matching)


def test_multiplicity_inequality_t3(t3, t3_m1, t3_m2):
    r2 = orbit_inequalities_multiplicity(t3, t3_m2)
    assert r2.holds
    assert r2.data["A1"] == [1, 0]
    assert r2.rows[0].lhs == 1 and r2.rows[0].rhs == 1
    r1 = orbit_inequalities_multiplicity(t3, t3_m1)
    assert r1.holds  # reduces to the classical Morse inequalities


def test_multiplicity_inequality_excludes_negative_orbit(mobius_poset, mobius_ring_matching):
    report = orbit_inequalities_multiplicity(mobius_poset, mobius_ring_matching)
    assert report.holds
    mults = report.data["multiplicities"]
    assert len(mults) == 1 and mults[0]["multiplicity"] == -1
    assert report.data["A1"] == [0, 0, 0]
    # the torsion-count inequality still counts the orbit itself
    torsion_report = orbit_inequalities_torsion(mobius_poset, mobius_ring_matching)
    assert torsion_report.holds
    assert torsion_report.data["A"] == [0, 1, 0]


def test_euler_characteristics_fixtures(t3, rp2_poset, tetra_boundary):
    assert euler_characteristics(t3) == (0, 0)
    assert euler_characteristics(rp2_poset) == (1, 1)
    tetra = face_poset(tetra_boundary)
    assert euler_characteristics(tetra) == (2, 2)


def test_euler_gap_poset_hand_example():
    gap = build_poset(["a", "b", "c", "d", "e", "t"],
                      [("a", "d"), ("b", "d"), ("b", "e"), ("c", "e"),
                       ("d", "t"), ("e", "t")])
    chi_g, chi = euler_characteristics(gap)
    assert chi_g == 2 and chi == 1
    assert dismantlable_to_point(gap)
    from posetmorse import check_cellularity
    assert not check_cellularity(gap).is_cellular
    assert poset_homology(gap, reduced=True).is_trivial()


def test_euler_gap_search():
    rng = XorShift64Star(2024)
    found = find_euler_gap_poset(rng, max_elements=8)
    assert found is not None
    chi_g, chi = euler_characteristics(found)
    assert chi_g != 1
    assert chi == 1  # contractible
    assert dismantlable_to_point(found)
    from posetmorse import check_cellularity
    assert not check_cellularity(found).is_cellular


def test_alternating_sum_of_m_is_graded_euler(t3, t3_m1, t3_m2, rp2_poset, rp2_star5_matching):
    cases = [(t3, t3_m1), (t3, t3_m2), (rp2_poset, rp2_star5_matching)]
    for poset, matching in cases:
        m, _ = morse_bott_numbers(poset, matching)
        chi_g, _ = euler_characteristics(poset)
        assert sum((-1) ** k * v for k, v in enumerate(m)) == chi_g


def test_mu0_zero_on_fixtures(t3, rp2_poset):
    for poset in (t3, rp2_poset):
        assert poset_homology(poset).mu(0) == 0


def test_random_inequality_suite_small():
    rng = XorShift64Star(808)
    done = 0
    while done < 25:
        complex = random_simplicial_complex(rng, max_vertices=5, max_triangles=3)
        poset = face_poset(complex)
        matching = random_matching(rng, poset)
        report = strong_morse_bott(poset, matching)
        assert report.holds
        done += 1


def test_orbit_rows_equal_the_paper_inequalities(t3, t3_m2, rp2_poset, rp2_star5_matching,
                                                 mobius_poset, mobius_ring_matching):
    """The rows of both orbit reports equal the paper's inequalities, each
    side evaluated here from the critical counts, the orbits and their
    multiplicities, and the order-complex homology, on the fixtures'
    orbit matchings and on seeded Morse-Smale matchings with orbits."""
    cases = [(t3, t3_m2), (rp2_poset, rp2_star5_matching), (mobius_poset, mobius_ring_matching)]
    rng = XorShift64Star(1207)
    while len(cases) < 15:
        poset = face_poset(random_simplicial_complex(rng, max_vertices=6, max_triangles=5))
        matching = find_morse_smale_matching(rng, poset, tries=20, want_orbit=True)
        if matching is not None:
            cases.append((poset, matching))
    alt = lambda seq, k: sum((-1) ** i * seq[k - i] for i in range(k + 1))
    multiplicities, torsion = set(), 0
    for poset, matching in cases:
        degrees = range(poset.max_degree() + 1)
        orbits = is_morse_smale(poset, matching).orbits
        mult = {o: orbit_multiplicity(o, cellular_chain_complex(poset)) for o in orbits}
        counts = critical_counts(poset, matching)
        c = [counts.get(k, 0) for k in degrees]
        A = [sum(o.index == k for o in orbits) for k in degrees]
        A1 = [sum(o.index == k and mult[o] == 1 for o in orbits) for k in degrees]
        integral = poset_homology(poset)
        rational = integral.rational()
        b, b_rat = [integral.b(k) for k in degrees], [rational.b(k) for k in degrees]
        mu = [integral.mu(k) for k in degrees]
        sides = {
            "orbit-torsion": [(A[k] + alt(c, k), mu[k] + alt(b, k)) for k in degrees],
            "orbit-multiplicity-one": [(A1[k] + alt(c, k), alt(b_rat, k)) for k in degrees],
        }
        for report in (orbit_inequalities_torsion(poset, matching),
                       orbit_inequalities_multiplicity(poset, matching)):
            expected = [(k, lhs, rhs, lhs >= rhs) for k, (lhs, rhs) in enumerate(sides[report.name])]
            assert [(r.k, r.lhs, r.rhs, r.ok) for r in report.rows] == expected
            assert report.holds
        multiplicities |= set(mult.values())
        torsion += sum(mu)
    assert multiplicities == {1, -1} and torsion
