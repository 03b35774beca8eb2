from itertools import combinations

import pytest

from posetmorse import (
    ChainComplex,
    build_poset,
    face_poset,
    homology,
    is_acyclic,
    order_complex,
    poset_homology,
    relative_homology,
    simplicial_chain_complex,
)
from posetmorse.errors import EmptyPoset, NotAChainComplex, NotASubcomplex
from posetmorse.homology import HomologySummary, relative_chain_complex, sphere_summary
from posetmorse.posets import Poset
from posetmorse.randgen import XorShift64Star, random_graded_poset, random_simplicial_complex
from posetmorse.simplicial import SimplicialComplex
from posetmorse.snf import diagonal_form

from helpers import invariant_factors, scrambled_complex


def test_circle(triangle_boundary):
    summary = homology(simplicial_chain_complex(triangle_boundary))
    assert summary.betti == {0: 1, 1: 1}
    assert not summary.torsion


def test_two_sphere(tetra_boundary):
    summary = homology(simplicial_chain_complex(tetra_boundary))
    assert (summary.b(0), summary.b(1), summary.b(2)) == (1, 0, 1)
    assert not summary.torsion


def test_projective_plane(rp2):
    summary = homology(simplicial_chain_complex(rp2))
    assert (summary.b(0), summary.b(1), summary.b(2)) == (1, 0, 0)
    assert summary.t(1) == (2,)
    assert summary.mu(1) == 1


def test_rp2_torsion_has_single_even_factor(rp2):
    # the degree-2 simplicial boundary of RP2-6 has exactly one invariant
    # factor equal to 2; that is what produces the Z/2
    from posetmorse.snf import smith_normal_form
    chain = simplicial_chain_complex(rp2)
    factors = invariant_factors(smith_normal_form(chain.boundary[2]))
    assert [f for f in factors if f > 1] == [2]


def test_full_triangle_contractible(full_triangle):
    chain = simplicial_chain_complex(full_triangle)
    assert [chain.rank(d) for d in range(3)] == [3, 3, 1]
    summary = homology(chain)
    assert summary.nontrivial() == {0: (1, ())}


def test_rationals_drop_torsion(rp2):
    summary = homology(simplicial_chain_complex(rp2)).rational()
    assert summary.b(0) == 1 and summary.b(1) == 0 and summary.b(2) == 0
    assert not summary.torsion


def test_betti_agree_between_coefficients(rp2, tetra_boundary):
    for complex in (rp2, tetra_boundary):
        chain = simplicial_chain_complex(complex)
        integral = homology(chain)
        rational = integral.rational()
        assert all(integral.b(k) == rational.b(k) for k in range(4))


def test_poset_homology_examples(t3):
    single = build_poset(["a"], [])
    assert poset_homology(single).nontrivial() == {0: (1, ())}
    assert poset_homology(single, reduced=True).is_trivial()
    summary = poset_homology(t3)
    assert summary.betti == {0: 1, 1: 1}


def test_empty_poset_conventions():
    empty = Poset([], [])
    with pytest.raises(EmptyPoset):
        poset_homology(empty)
    reduced = poset_homology(empty, reduced=True)
    assert reduced.nontrivial() == {-1: (1, ())}
    assert reduced == sphere_summary(-1)
    assert not is_acyclic(empty)


def test_is_acyclic_cases(t3):
    assert is_acyclic(build_poset(["a"], []))
    assert not is_acyclic(build_poset(["a", "b"], []))  # reduced b_0 = 1
    assert not is_acyclic(t3)


def test_coreductions_pair_only_unit_entries():
    """A column whose one entry is 2 is no free coreduction: the cell
    complex of RP^2 with one cell in each degree keeps its 1-cell and its
    2-cell, and so its Z/2, once the vertex has gone with the
    augmentation."""
    from posetmorse.homology import _coreduce, _homology

    ranks, columns = _coreduce([[{}], [{0: 1}], [{}], [{0: 2}]])
    assert (ranks, columns) == ({1: 1, 2: 1}, {2: [{0: 2}]})
    assert _homology(ranks, columns).nontrivial() == {1: (0, (2,))}


def test_relative_same_complex(rp2):
    assert relative_homology(rp2, rp2).is_trivial()


def test_relative_disk_mod_boundary(full_triangle, triangle_boundary):
    summary = relative_homology(full_triangle, triangle_boundary)
    assert summary.nontrivial() == {2: (1, ())}


def test_relative_empty_subcomplex(rp2):
    empty = SimplicialComplex([])
    assert relative_homology(rp2, empty) == homology(simplicial_chain_complex(rp2))


def test_relative_not_a_subcomplex(triangle_boundary, full_triangle):
    with pytest.raises(NotASubcomplex):
        relative_homology(triangle_boundary, full_triangle)


def test_not_a_chain_complex():
    # the triangle with every face entered positively: d1 d2 = (2, 0, -2)
    d1 = [{0: -1, 1: 1}, {0: -1, 2: 1}, {1: -1, 2: 1}]  # edges 01, 02, 12
    d2 = [{0: 1, 1: 1, 2: 1}]
    with pytest.raises(NotAChainComplex):
        ChainComplex({0: 3, 1: 3, 2: 1}, {1: d1, 2: d2})
    d2 = [{0: 1, 1: -1, 2: 1}]  # the alternating signs make it a complex
    assert homology(ChainComplex({0: 3, 1: 3, 2: 1}, {1: d1, 2: d2})).betti == {0: 1, 1: 0, 2: 0}


def test_euler_identity_random():
    rng = XorShift64Star(17)
    for _ in range(20):
        complex = random_simplicial_complex(rng, max_vertices=6)
        chain = simplicial_chain_complex(complex)
        summary = homology(chain)
        chain_euler = sum((-1) ** d * chain.rank(d) for d in chain.degrees())
        assert chain_euler == summary.euler_characteristic()


def test_summary_equality_ignores_padding():
    a = HomologySummary(betti={0: 1, 1: 0})
    b = HomologySummary(betti={0: 1})
    assert a == b
    assert hash(a) == hash(b)


def test_reduced_subtracts_one_component():
    two_points = build_poset(["a", "b"], [])
    plain = poset_homology(two_points)
    reduced = poset_homology(two_points, reduced=True)
    assert plain.b(0) == 2
    assert reduced.b(0) == 1


def test_sphere_generator_convention_matches_check(t3):
    # strict down-sets of degree-1 elements look like the 0-sphere
    strict = t3.induced(t3.strictly_below("e12"))
    assert poset_homology(strict, reduced=True) == sphere_summary(0)


def test_not_a_chain_complex_sparse():
    # the same composite as above, given as sparse columns {row: value}
    with pytest.raises(NotAChainComplex):
        ChainComplex({0: 2, 1: 1, 2: 1}, {1: [{0: 1, 1: 1}], 2: [{0: 1}]})
    with pytest.raises(ValueError):
        ChainComplex({0: 2, 1: 1}, {1: [{2: 1}]})


def _dense_homology(chain):
    """Betti numbers and torsion from the dense Smith core's diagonal of
    each boundary's dense view; no unit pivot is eliminated sparsely."""
    factors = {p: [d for d in diagonal_form(m) if d] for p, m in chain.boundary.items()}
    rank = lambda p: len(factors.get(p, ()))
    betti = {p: chain.rank(p) - rank(p) - rank(p + 1) for p in chain.degrees()}
    torsion = {p: tuple(d for d in factors.get(p + 1, ()) if d > 1) for p in chain.degrees()}
    return HomologySummary(betti=betti, torsion={p: t for p, t in torsion.items() if t})


def test_sparse_engine_matches_dense_homology(rp2):
    rng = XorShift64Star(2001)
    chains = [simplicial_chain_complex(rp2), simplicial_chain_complex(rp2, reduced=True),
              relative_chain_complex(rp2, SimplicialComplex(rp2.maximal[:3]))]
    for _ in range(25):
        complex = random_simplicial_complex(rng, max_vertices=7)
        chains.append(simplicial_chain_complex(complex, reduced=True))
    for _ in range(10):  # order complexes of seeded random posets
        poset = random_graded_poset(rng, max_elements=14, max_levels=4)
        chains.append(simplicial_chain_complex(order_complex(poset), reduced=True))
    for chain in chains:
        assert homology(chain) == _dense_homology(chain)
    # Smith factors from {1, 2, 3, 4, 6} hidden by unimodular changes of basis
    rng = XorShift64Star(1998)
    for _ in range(1000):
        chain, free, mu = scrambled_complex(rng)
        summary = homology(chain)
        assert summary == _dense_homology(chain)
        assert all(summary.b(k) == b and summary.mu(k) == mu[k] for k, b in free.items())


def test_boundary_of_five_simplex_is_reduced_four_sphere():
    # face poset of the boundary of the 5-simplex: 2^6 - 2 = 62 faces
    sphere = SimplicialComplex(combinations("abcdef", 5))
    poset = face_poset(sphere)
    assert len(poset) == 62
    assert sum(len(s) for s in order_complex(poset).simplices.values()) == 4682
    assert poset_homology(poset, reduced=True) == sphere_summary(4)
