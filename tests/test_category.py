import json
from fractions import Fraction
from pathlib import Path

import pytest

from posetmorse import (
    build_poset,
    cellular_chain_complex,
    face_poset,
    flow_operator,
    hccat,
    homology,
    integrate_matching,
    is_morse_function,
    morse_function_to_matching,
    ls_theorem_check,
    parse_simplicial_complex,
    perturb_to_morse,
    minimal_subcomplex,
    poset_homology,
    simplicial_chain_complex,
    validate_matching,
)
from posetmorse.category import verify_quasi_isomorphism
from posetmorse.cli import run
from posetmorse.errors import NotMorse, NotMorseMatching, NotMorseSmale
from posetmorse.homology import HomologySummary
from posetmorse.intmatrix import IntMatrix
from posetmorse.randgen import XorShift64Star, random_matching, random_simplicial_complex

from helpers import (boundary_or_empty, dense_inclusion, gauge_flip, hccat_face_poset_consistency,
                     ls_corollary, tracked_smith_blocks)

DATA = Path(__file__).resolve().parent.parent / "data"


def test_hccat_values(t3, rp2_poset, full_triangle):
    assert hccat(t3) == 2
    assert hccat(rp2_poset) == 3
    assert hccat(face_poset(full_triangle)) == 1
    assert hccat(build_poset(["a"], [])) == 1


def test_hccat_acyclic_iff_one():
    cone = build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
    assert hccat(cone) == 1
    assert poset_homology(cone, reduced=True).is_trivial()


def test_hccat_formula(rp2_poset):
    summary = poset_homology(rp2_poset)
    assert hccat(rp2_poset) == summary.total_betti() + 2 * summary.total_mu()
    assert hccat(summary) == hccat(rp2_poset)


def test_minimal_subcomplex_t3(t3):
    cell = cellular_chain_complex(t3)
    witness = minimal_subcomplex(cell.complex)
    assert witness.rank_profile == {0: 1, 1: 1}
    assert witness.quasi_isomorphism_verified
    assert sum(witness.rank_profile.values()) == hccat(t3)


def test_minimal_subcomplex_rp2(rp2_poset):
    cell = cellular_chain_complex(rp2_poset)
    witness = minimal_subcomplex(cell.complex)
    assert witness.rank_profile == {0: 1, 1: 1, 2: 1}
    assert witness.quasi_isomorphism_verified
    assert sum(witness.rank_profile.values()) == 3 == hccat(rp2_poset)
    # rank profile matches b_k + mu_k + mu_(k-1)
    summary = poset_homology(rp2_poset)
    for k, rank in witness.rank_profile.items():
        assert rank == summary.b(k) + summary.mu(k) + summary.mu(k - 1)


def test_minimal_subcomplex_point():
    point = build_poset(["a"], [])
    cell = cellular_chain_complex(point)
    witness = minimal_subcomplex(cell.complex)
    assert witness.rank_profile == {0: 1}
    (column,) = witness.inclusion[0]
    assert list(column) == [0] and abs(column[0]) == 1


def test_minimal_subcomplex_is_chain_subcomplex(rp2_poset):
    cell = cellular_chain_complex(rp2_poset)
    witness = minimal_subcomplex(cell.complex)
    inclusion = dense_inclusion(witness.inclusion, cell.complex)
    for p in witness.complex.degrees():
        if p - 1 not in witness.complex.ranks:
            continue
        left = boundary_or_empty(cell.complex, p) @ inclusion[p]
        right = inclusion[p - 1] @ boundary_or_empty(witness.complex, p)
        assert left == right


def test_minimal_subcomplex_simplicial_fixtures(tetra_boundary, rp2):
    from posetmorse import simplicial_chain_complex
    for complex in (tetra_boundary, rp2):
        chain = simplicial_chain_complex(complex)
        witness = minimal_subcomplex(chain)
        assert witness.quasi_isomorphism_verified
        summary = homology(chain)
        total = summary.total_betti() + 2 * summary.total_mu()
        assert sum(witness.rank_profile.values()) == total


def test_quasi_isomorphism_rejects_wrong_subcomplex(t3):
    cell = cellular_chain_complex(t3)
    from posetmorse.homology import ChainComplex
    # a single vertex is not quasi-isomorphic to the circle
    sub = ChainComplex({0: 1}, {})
    inclusion = {0: [{0: 1}]}
    assert dense_inclusion(inclusion, cell.complex)[0] == IntMatrix(3, 1, [[1], [0], [0]])
    assert not verify_quasi_isomorphism(sub, inclusion, cell.complex)


def test_flow_operator_t3_m1(t3, t3_m1):
    flow = flow_operator(t3, t3_m1)
    assert flow.invariant_ranks == {0: 1, 1: 1}
    assert flow.rank_matches_critical
    assert flow.quasi_isomorphism_verified
    assert homology(flow.invariant_complex) == poset_homology(t3)


def test_flow_operator_identity_on_empty_matching(t3, t3_empty_matching):
    flow = flow_operator(t3, t3_empty_matching)
    assert flow.invariant_ranks == {0: 3, 1: 3}
    assert set(flow.inclusion) == {0, 1}
    for p, mat in dense_inclusion(flow.inclusion, cellular_chain_complex(t3).complex).items():
        assert mat == IntMatrix.identity(mat.rows)
    assert flow.invariant_complex.boundary == cellular_chain_complex(t3).complex.boundary
    assert flow.quasi_isomorphism_verified


def test_flow_operator_perturbed_orbit(t3, t3_m2):
    perturbed, _ = perturb_to_morse(t3, t3_m2)
    flow = flow_operator(t3, perturbed)
    assert flow.invariant_ranks == {0: 1, 1: 1}
    assert flow.rank_matches_critical
    assert flow.quasi_isomorphism_verified


def test_flow_operator_rejects_cyclic_matching(t3, t3_m2):
    with pytest.raises(NotMorseMatching):
        flow_operator(t3, t3_m2)


def test_flow_operator_gauge_invariant_ranks(monkeypatch, t3, t3_m1):
    import posetmorse.category

    flipped = gauge_flip(cellular_chain_complex(t3), {"e12": -1, "v3": -1})
    monkeypatch.setattr(posetmorse.category, "cellular_chain_complex", lambda poset: flipped)
    monkeypatch.setattr(posetmorse.category, "space_complex", lambda poset: flipped.complex)
    flow = flow_operator(t3, t3_m1)
    assert flow.invariant_ranks == {0: 1, 1: 1}
    assert flow.quasi_isomorphism_verified


def test_flow_ranks_on_mobius(mobius_poset, mobius_ring_matching):
    perturbed, _ = perturb_to_morse(mobius_poset, mobius_ring_matching)
    flow = flow_operator(mobius_poset, perturbed)
    assert flow.rank_matches_critical
    assert flow.quasi_isomorphism_verified
    assert homology(flow.invariant_complex) == poset_homology(mobius_poset)


def test_ls_theorem_t3(t3, t3_m1, t3_m2):
    report2 = ls_theorem_check(t3, t3_m2)
    assert report2.hccat_value == 2
    assert report2.basic_set_bound == 2  # one orbit counts 2
    assert report2.holds and report2.intermediate_holds and report2.counts_match_formula
    assert report2.warnings == ()
    report1 = ls_theorem_check(t3, t3_m1)
    assert report1.basic_set_bound == 2  # two critical points
    assert report1.holds and report1.counts_match_formula


def test_ls_counts_need_the_flow_verdicts(monkeypatch, t3, t3_m2, rp2_poset, rp2_star5_matching):
    """counts_match_formula carries the flow operator's own checks: a
    failed quasi-isomorphism (or rank) check turns it false."""
    import posetmorse.category

    monkeypatch.setattr(posetmorse.category, "verify_quasi_isomorphism", lambda *args: False)
    for poset, matching in ((t3, t3_m2), (rp2_poset, rp2_star5_matching)):
        report = ls_theorem_check(poset, matching)
        assert report.holds and report.intermediate_holds
        assert not report.counts_match_formula


def test_flow_ranks_count_the_morse_complex(monkeypatch, t3, t3_m2, rp2_poset,
                                            rp2_star5_matching):
    """flow_ranks are the ranks of the Morse complex the flow operator
    builds, not a second count of critical elements: with a cell dropped
    from that complex they differ from perturbed_counts, and the counts no
    longer match."""
    import posetmorse.category
    from posetmorse.homology import ChainComplex, Reduction

    reduce = posetmorse.category.morse_reduction

    def dropped(*args):
        # the Morse complex less its last cell of degree 0, whose rows leave d_1
        morse = reduce(*args)
        ranks, columns = dict(morse.complex.ranks), dict(morse.complex.columns)
        last = ranks[0] = ranks[0] - 1
        if 1 in columns:
            columns[1] = [{i: v for i, v in col.items() if i != last} for col in columns[1]]
        return Reduction(ChainComplex(ranks, columns),
                         {**morse.inclusion, 0: morse.inclusion[0][:last]})

    monkeypatch.setattr(posetmorse.category, "morse_reduction", dropped)
    for poset, matching in ((t3, t3_m2), (rp2_poset, rp2_star5_matching)):
        report = ls_theorem_check(poset, matching)
        assert report.flow_ranks == {**report.perturbed_counts, 0: report.perturbed_counts[0] - 1}
        assert report.holds and report.intermediate_holds
        assert not report.counts_match_formula


def test_ls_theorem_rp2_star(rp2_poset, rp2_star5_matching):
    report = ls_theorem_check(rp2_poset, rp2_star5_matching)
    assert report.hccat_value == 3
    assert report.basic_set_bound == 21 + 2
    assert report.holds and report.intermediate_holds and report.counts_match_formula
    assert report.warnings == ()


def test_ls_theorem_needs_morse_smale():
    complex = parse_simplicial_complex("1 2 3\n1 2 5\n1 3 5\n2 3 5\n3 4 5\n1 3 4\n")
    poset = face_poset(complex)
    matching = validate_matching(poset, [
        ("1|3", "1|2|3"), ("1|2", "1|2|5"), ("1|5", "1|3|5"),
        ("2|3", "2|3|5"), ("3|5", "3|4|5"), ("3|4", "1|3|4"),
    ])
    with pytest.raises(NotMorseSmale):
        ls_theorem_check(poset, matching)


def test_ls_corollary(t3, t3_m1, rp2_poset):
    f = integrate_matching(t3, t3_m1)
    result = ls_corollary(t3, f.values)
    assert (result.hccat_value, result.basic_set_bound, result.holds) == (2, 2, True)
    assert is_morse_function(t3, f.values).critical == ("v3", "e13")
    degree = {e: Fraction(t3.heights()[e]) for e in t3.elements}
    assert ls_corollary(t3, degree).basic_set_bound == 6
    dim = {e: Fraction(rp2_poset.heights()[e]) for e in rp2_poset.elements}
    result = ls_corollary(rp2_poset, dim)
    assert result.hccat_value == 3 and result.basic_set_bound == 31 and result.holds


def test_ls_corollary_rejects_non_morse(t3, t3_m2):
    f = integrate_matching(t3, t3_m2)
    with pytest.raises(NotMorse):
        morse_function_to_matching(t3, f.values)


def test_face_poset_consistency(triangle_boundary, rp2, full_triangle):
    assert hccat_face_poset_consistency(triangle_boundary)
    assert hccat_face_poset_consistency(rp2)
    assert hccat_face_poset_consistency(full_triangle)


def test_chi_bounded_by_hccat_on_fixtures(t3, rp2_poset, tetra_boundary):
    from posetmorse import euler_characteristics
    for poset in (t3, rp2_poset, face_poset(tetra_boundary)):
        chi_g, chi = euler_characteristics(poset)
        assert chi <= hccat(poset)


def test_minimal_subcomplex_random_complexes():
    rng = XorShift64Star(909)
    from posetmorse import simplicial_chain_complex
    for _ in range(10):
        complex = random_simplicial_complex(rng, max_vertices=6, max_triangles=5)
        chain = simplicial_chain_complex(complex)
        witness = minimal_subcomplex(chain)
        assert witness.quasi_isomorphism_verified
        summary = homology(chain)
        for k, rank in witness.rank_profile.items():
            assert rank == summary.b(k) + summary.mu(k) + summary.mu(k - 1)


def test_flow_random_morse_matchings(t3):
    rng = XorShift64Star(606)
    from posetmorse import is_morse_matching
    done = 0
    while done < 10:
        matching = random_matching(rng, t3)
        if not is_morse_matching(t3, matching):
            continue
        flow = flow_operator(t3, matching)
        assert flow.rank_matches_critical
        assert flow.quasi_isomorphism_verified
        done += 1


def test_flow_random_face_posets():
    rng = XorShift64Star(607)
    from posetmorse import is_morse_matching
    done = 0
    while done < 8:
        complex = random_simplicial_complex(rng, max_vertices=5, max_triangles=3)
        poset = face_poset(complex)
        matching = random_matching(rng, poset)
        if not is_morse_matching(poset, matching):
            continue
        flow = flow_operator(poset, matching)
        assert flow.rank_matches_critical
        assert flow.quasi_isomorphism_verified
        assert homology(flow.invariant_complex) == poset_homology(poset)
        done += 1


def test_minimal_subcomplex_smith_forms_only_on_the_reduced_complex(monkeypatch, rp2_poset):
    from posetmorse.homology import morse_reduction
    blocks = tracked_smith_blocks(monkeypatch)
    cellular = cellular_chain_complex(rp2_poset).complex
    simplicial = simplicial_chain_complex(random_simplicial_complex(XorShift64Star(9), 6, 5))
    for chain in (cellular, simplicial):
        blocks.clear()
        witness = minimal_subcomplex(chain)
        shapes = [(rows, cols) for rows, cols, _ in blocks]
        assert witness.quasi_isomorphism_verified
        reduced = morse_reduction(chain).complex
        # at most one per degree, each within a boundary of the reduced complex
        assert len(shapes) <= len(reduced.degrees())
        for rows, cols in shapes:
            assert any(rows <= reduced.rank(p - 1) and cols <= reduced.rank(p)
                       for p in reduced.degrees())
        if chain is cellular:
            assert all(shape == (1, 1) for shape in shapes)


def test_minimal_subcomplex_rank_profile_and_dense_oracle(rp2_poset):
    from helpers import snf_quasi_isomorphism
    rng = XorShift64Star(31)
    chains = [cellular_chain_complex(rp2_poset).complex]
    for _ in range(15):
        complex = random_simplicial_complex(rng, max_vertices=6, max_triangles=5)
        chains += [simplicial_chain_complex(complex), simplicial_chain_complex(complex, True)]
    for chain in chains:
        witness = minimal_subcomplex(chain)
        summary = homology(chain)
        for k in chain.degrees():
            assert witness.complex.rank(k) == summary.b(k) + summary.mu(k) + summary.mu(k - 1)
        assert snf_quasi_isomorphism(witness.complex, witness.inclusion, chain)


def test_ls_check_warns_when_a_class_recomputes_otherwise(monkeypatch, t3, t3_m1, capsys):
    """The cross-check that reads each basic set's hccat off its cells
    warns, and does not err, when it disagrees with the value the proof
    counts: here the critical edge e13 of t3 with t3_matching_m1, whose
    pair homology is made trivial."""
    import posetmorse.category as category

    real = category._pair_homology

    def trivial_at_e13(poset, cells):
        cells = list(cells)
        return HomologySummary() if cells == [poset._id["e13"]] else real(poset, cells)

    monkeypatch.setattr(category, "_pair_homology", trivial_at_e13)
    report = ls_theorem_check(t3, t3_m1)
    warning = "critical point e13 recomputed hccat 0 != 1"
    assert report.warnings == (warning,)
    assert ("e13", 1, 0) in report.class_values and ("v3", 1, 1) in report.class_values
    assert report.holds and report.basic_set_bound == 2
    argv = ["ls-check", "--input", str(DATA / "t3_poset.txt"),
            "--matching", str(DATA / "t3_matching_m1.txt")]
    assert run([*argv, "--format", "doc"]) == 0
    doc = json.loads(capsys.readouterr().out)["results"]
    assert doc["warnings"] == [warning]
    assert ["e13", 1, 0] in doc["class_values"]
    assert run(argv) == 0
    assert f"warning: {warning}\n" in capsys.readouterr().out
