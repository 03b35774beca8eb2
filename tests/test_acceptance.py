"""Acceptance suite: one test per criterion, exact tolerances throughout.

All homology assertions are exact integer comparisons (zero tolerance).
Each test prints a single PASS line on success; run with -s to see them.
"""

from fractions import Fraction

from posetmorse import (
    cellular_chain_complex,
    check_cellularity,
    euler_characteristics,
    face_poset,
    filtration_sweep,
    hccat,
    homology,
    integrate_matching,
    is_morse_smale,
    ls_theorem_check,
    orbit_inequalities_multiplicity,
    orbit_inequalities_torsion,
    orbit_multiplicity,
    perturb_to_morse,
    minimal_subcomplex,
    poset_homology,
    simplicial_chain_complex,
    strong_morse_bott,
    verify_cellular_agreement,
)
from posetmorse.dynamics import critical_counts, orbit_counts, prime_orbits
from posetmorse.randgen import (
    XorShift64Star,
    dismantlable_to_point,
    find_euler_gap_poset,
    random_graded_poset,
    random_matching,
    random_simplicial_complex,
)

from helpers import (boundary_or_empty, check_integration_conditions, dense_inclusion, gauge_flip,
                     ls_corollary)


def _random_admissible_posets(seed: int, count: int, max_vertices: int = 6,
                              max_triangles: int = 4):
    rng = XorShift64Star(seed)
    out = []
    while len(out) < count:
        complex = random_simplicial_complex(rng, max_vertices=max_vertices,
                                            max_triangles=max_triangles)
        out.append((complex, face_poset(complex)))
    return rng, out


def test_criterion_1_exact_homology(triangle_boundary, tetra_boundary, rp2):
    fixtures = [
        (triangle_boundary, {0: (1, ()), 1: (1, ())}),
        (tetra_boundary, {0: (1, ()), 2: (1, ())}),
        (rp2, {0: (1, ()), 1: (0, (2,))}),
    ]
    for complex, expected in fixtures:
        simplicial = homology(simplicial_chain_complex(complex))
        assert simplicial.nontrivial() == expected
        poset = face_poset(complex)
        via_order = poset_homology(poset)
        cell = cellular_chain_complex(poset)
        via_cellular = homology(cell.complex)
        assert via_order.nontrivial() == expected
        assert via_cellular.nontrivial() == expected
        assert verify_cellular_agreement(poset)
    _, random_fixtures = _random_admissible_posets(101, 50, max_vertices=7)
    for _complex, poset in random_fixtures:
        assert verify_cellular_agreement(poset)
    print("\nACCEPTANCE 1 PASS: exact homology on the three fixtures and "
          "pipeline agreement on 50 random face posets")


def test_criterion_2_incidence_soundness(t3, rp2_poset, mobius_poset, tetra_boundary,
                                         t3_m2, mobius_ring_matching):
    rng = XorShift64Star(202)
    named = [t3, rp2_poset, mobius_poset, face_poset(tetra_boundary)]
    _, random_fixtures = _random_admissible_posets(203, 12)
    posets = named + [p for _, p in random_fixtures]
    for poset in posets:
        assert check_cellularity(poset).is_homologically_admissible
        cell = cellular_chain_complex(poset)
        # d*d = 0, recomputed directly from the assembled matrices
        chain = cell.complex
        for p in chain.degrees():
            upper = chain.boundary.get(p + 1)
            if upper is not None and p in chain.boundary:
                assert not any(map(any, (chain.boundary[p] @ upper).data))
        assert all(eps in (1, -1) for eps in cell.incidence.values())
        base = homology(chain)
        for _ in range(3):
            signs = {e: -1 for e in poset.elements if rng.chance(1, 2)}
            assert homology(gauge_flip(cell, signs).complex) == base
    # multiplicity outputs are gauge invariant
    for poset, matching in ((t3, t3_m2), (mobius_poset, mobius_ring_matching)):
        cell = cellular_chain_complex(poset)
        for orbit in prime_orbits(poset, matching):
            base_mult = orbit_multiplicity(orbit, cell)
            for _ in range(5):
                signs = {e: -1 for e in poset.elements if rng.chance(1, 2)}
                flipped = gauge_flip(cell, signs)
                assert orbit_multiplicity(orbit, flipped) == base_mult
    print("\nACCEPTANCE 2 PASS: d*d=0, unit incidence numbers, and gauge "
          "invariance of homology and multiplicities")


def test_criterion_3_integration_theorem():
    rng = XorShift64Star(303)
    instances = 0
    while instances < 200:
        poset = random_graded_poset(rng, max_elements=12)
        matching = random_matching(rng, poset)
        function = integrate_matching(poset, matching)
        failures = check_integration_conditions(poset, matching, function.values)
        assert failures == [], f"instance {instances}: {failures}"
        instances += 1
    print("\nACCEPTANCE 3 PASS: 200/200 integrated functions satisfy the "
          "independently checked conditions (1) and (2)")


def test_criterion_4_fundamental_theorems_sweep(t3, t3_m1, t3_m2,
                                                mobius_poset, mobius_ring_matching,
                                                rp2_poset, rp2_star5_matching):
    cases = [(t3, t3_m1), (t3, t3_m2),
             (mobius_poset, mobius_ring_matching),
             (rp2_poset, rp2_star5_matching)]
    rng, fixtures = _random_admissible_posets(404, 30, max_vertices=5, max_triangles=3)
    random_cases = 0
    for _complex, poset in fixtures:
        if random_cases >= 20:
            break
        matching = random_matching(rng, poset)
        if not is_morse_smale(poset, matching).is_morse_smale:
            continue
        cases.append((poset, matching))
        random_cases += 1
    assert random_cases >= 20
    for poset, matching in cases:
        function = integrate_matching(poset, matching)
        reports, ok = filtration_sweep(poset, function)
        assert ok, f"sweep failed: {[r.to_doc() for r in reports if not r.ok]}"
        kinds = {r.kind for r in reports}
        assert "critical-attachment" in kinds
    print(f"\nACCEPTANCE 4 PASS: full filtration sweeps on T3/M1, T3/M2 and "
          f"{random_cases} random Morse-Smale fixtures, 100% collapse and "
          f"attachment checks")


def test_criterion_5_inequalities(t3, t3_m2, mobius_poset, mobius_ring_matching):
    rng = XorShift64Star(505)
    _, fixtures = _random_admissible_posets(506, 40)
    strong_checked = 0
    orbit_checked = 0
    for _complex, poset in fixtures:
        for _ in range(5):
            matching = random_matching(rng, poset)
            report = strong_morse_bott(poset, matching)
            assert report.holds, f"strong inequality failed: {report.to_doc()}"
            strong_checked += 1
            if is_morse_smale(poset, matching).is_morse_smale:
                torsion = orbit_inequalities_torsion(poset, matching)
                assert torsion.holds, torsion.to_doc()
                mult = orbit_inequalities_multiplicity(poset, matching)
                assert mult.holds, mult.to_doc()
                orbit_checked += 1
    assert strong_checked >= 200
    assert orbit_checked >= 100
    # orbit-ful fixtures exercise the orbit-count sides
    for poset, matching in ((t3, t3_m2), (mobius_poset, mobius_ring_matching)):
        assert strong_morse_bott(poset, matching).holds
        assert orbit_inequalities_torsion(poset, matching).holds
        assert orbit_inequalities_multiplicity(poset, matching).holds
    # spot values for T3 with the cyclic matching
    from posetmorse import morse_bott_numbers
    assert morse_bott_numbers(t3, t3_m2)[0] == [1, 1]
    orbits = prime_orbits(t3, t3_m2)
    assert orbit_counts(orbits) == {0: 1}
    cell = cellular_chain_complex(t3)
    assert orbit_multiplicity(orbits[0], cell) == 1
    torsion = orbit_inequalities_torsion(t3, t3_m2)
    assert torsion.rows[0].lhs == torsion.rows[0].rhs == 1
    mult = orbit_inequalities_multiplicity(t3, t3_m2)
    assert mult.rows[0].lhs == mult.rows[0].rhs == 1
    print(f"\nACCEPTANCE 5 PASS: {strong_checked} strong/weak/Euler and "
          f"{orbit_checked} orbit inequality checks, zero exceptions; "
          f"T3/M2 spot values match")


def test_criterion_6_hccat_exactness(t3, rp2_poset, full_triangle):
    acyclic = face_poset(full_triangle)
    assert hccat(acyclic) == 1
    assert hccat(t3) == 2
    summary = poset_homology(rp2_poset)
    assert hccat(rp2_poset) == 3 == summary.total_betti() + 2 * summary.total_mu()
    for poset in (acyclic, t3, rp2_poset):
        cell = cellular_chain_complex(poset)
        witness = minimal_subcomplex(cell.complex)
        s = homology(cell.complex)
        for k, rank in witness.rank_profile.items():
            assert rank == s.b(k) + s.mu(k) + s.mu(k - 1)
        inclusion = dense_inclusion(witness.inclusion, cell.complex)
        for p in witness.complex.degrees():
            if p - 1 in witness.complex.ranks:
                left = boundary_or_empty(cell.complex, p) @ inclusion[p]
                right = inclusion[p - 1] @ boundary_or_empty(witness.complex, p)
                assert left == right
        assert witness.quasi_isomorphism_verified
        assert sum(witness.rank_profile.values()) == hccat(poset)
    print("\nACCEPTANCE 6 PASS: hccat exact on acyclic/T3/RP2 fixtures with "
          "verified minimal subcomplex witnesses")


def test_criterion_7_ls_theorem(t3, t3_m1, t3_m2, rp2_poset, rp2_star5_matching,
                                mobius_poset, mobius_ring_matching):
    rng = XorShift64Star(707)
    cases = [(t3, t3_m1), (t3, t3_m2),
             (rp2_poset, rp2_star5_matching),
             (mobius_poset, mobius_ring_matching)]
    _, fixtures = _random_admissible_posets(708, 25, max_vertices=5, max_triangles=3)
    added = 0
    for _complex, poset in fixtures:
        if added >= 15:
            break
        matching = random_matching(rng, poset)
        if is_morse_smale(poset, matching).is_morse_smale:
            cases.append((poset, matching))
            added += 1
    assert added >= 15
    for poset, matching in cases:
        report = ls_theorem_check(poset, matching)
        assert report.holds
        assert report.intermediate_holds
        assert report.counts_match_formula
        # flow ranks equal the perturbed critical counts exactly
        perturbed, _ = perturb_to_morse(poset, matching)
        mstar = critical_counts(poset, perturbed)
        orbits = prime_orbits(poset, matching)
        c = critical_counts(poset, matching)
        A = orbit_counts(orbits)
        for p, rank in report.flow_ranks.items():
            assert rank == mstar.get(p, 0) == c.get(p, 0) + A.get(p, 0) + A.get(p - 1, 0)
    equality = ls_theorem_check(t3, t3_m2)
    assert equality.hccat_value == 2 and equality.basic_set_bound == 2
    dim_function = {e: Fraction(rp2_poset.heights()[e]) for e in rp2_poset.elements}
    corollary = ls_corollary(rp2_poset, dim_function)
    assert corollary.hccat_value == 3 and corollary.basic_set_bound == 31
    assert corollary.holds
    print(f"\nACCEPTANCE 7 PASS: LS theorem with exact flow ranks on "
          f"{len(cases)} Morse-Smale fixtures; T3/M2 equality 2=2; RP2 "
          f"all-critical bound 3<=31")


def test_criterion_8_euler_characteristics(t3, rp2_poset, tetra_boundary, mobius_poset):
    cellular_fixtures = [t3, rp2_poset, face_poset(tetra_boundary), mobius_poset]
    _, random_fixtures = _random_admissible_posets(809, 15)
    cellular_fixtures += [p for _, p in random_fixtures]
    for poset in cellular_fixtures:
        assert check_cellularity(poset).is_cellular
        chi_g, chi = euler_characteristics(poset)
        assert chi_g == chi
    rng = XorShift64Star(810)
    found = find_euler_gap_poset(rng, max_elements=8)
    assert found is not None
    chi_g, chi = euler_characteristics(found)
    assert chi_g != 1
    assert dismantlable_to_point(found)
    assert chi == 1
    assert poset_homology(found, reduced=True).is_trivial()
    assert not check_cellularity(found).is_cellular
    print(f"\nACCEPTANCE 8 PASS: chi_g = chi on all cellular fixtures; search "
          f"found a contractible graded poset with chi_g = {chi_g} != 1, "
          f"certified by beat-point reduction")
