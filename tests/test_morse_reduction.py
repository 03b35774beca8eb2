"""The one sparse elimination, `morse_reduction`, and `minimal_model`.

Scrambled complexes (`helpers.scrambled_complex`) are direct sums of
known pieces, Z in one degree and Z --t--> Z with t in {1, 2, 3, 4, 6},
seen through random unimodular changes of basis in every degree, so
their homology and minimal rank profile b_k + mu_k + mu_{k-1} are known
while their boundaries hide both.  Every model is checked by the
mapping-cone criterion and by the dense oracle
`helpers.snf_quasi_isomorphism`.
"""

import sys

import pytest

from posetmorse import (
    ChainComplex,
    cellular_chain_complex,
    check_cellularity,
    face_poset,
    homology,
    simplicial_chain_complex,
)
from posetmorse.category import verify_quasi_isomorphism
from posetmorse.errors import ConsistencyError
from posetmorse.homology import minimal_model, morse_reduction
from posetmorse.randgen import XorShift64Star, random_graded_poset, random_simplicial_complex
from posetmorse.simplicial import SimplicialComplex
from posetmorse.snf import kernel_basis

from helpers import scramble, scrambled_complex, snf_quasi_isomorphism


def test_minimal_model_of_scrambled_complexes(monkeypatch):
    module = sys.modules["posetmorse.homology"]
    real, unit_factors = module.smith_normal_form, []

    def recorded(matrix):
        snf = real(matrix)
        unit_factors.append(1 in snf.diagonal)
        return snf

    monkeypatch.setattr(module, "smith_normal_form", recorded)
    rng = XorShift64Star(1998)
    smith_steps = 0
    for _ in range(1000):
        chain, free, mu = scrambled_complex(rng)
        summary = homology(chain)
        assert {k: summary.b(k) for k in free} == free
        assert {k: summary.mu(k) for k in mu} == mu
        unit_factors.clear()
        model = minimal_model(chain)
        smith_steps += any(unit_factors)
        for k in free:
            assert model.complex.rank(k) == free[k] + mu[k] + mu.get(k - 1, 0)
            # the cycles are spanned by the cells with empty columns
            columns = model.complex.columns.get(k, ())
            assert model.complex.rank(k) - sum(map(bool, columns)) == free[k] + mu[k]
        assert verify_quasi_isomorphism(model.complex, model.inclusion, chain)
        assert snf_quasi_isomorphism(model.complex, model.inclusion, chain)
    assert smith_steps >= 300


def test_given_pairs_need_unit_pivots():
    chain = ChainComplex({0: 1, 1: 1}, {1: [{0: 2}]})
    with pytest.raises(ConsistencyError):
        morse_reduction(chain, {1: [(0, 0)]})
    # <d b1, a1> = 1 until (a0, b0) is eliminated, which leaves it 0
    chain = ChainComplex({0: 2, 1: 2}, {1: [{0: 1, 1: 1}, {0: 1, 1: 1}]})
    with pytest.raises(ConsistencyError):
        morse_reduction(chain, {1: [(0, 0), (1, 1)]})
    assert morse_reduction(chain, {1: [(0, 0)]}).complex.ranks == {0: 1, 1: 1}


def _boundary_sphere(n: int) -> ChainComplex:
    """The reduced chain complex of the boundary of the n-simplex."""
    vertices = [str(i) for i in range(n + 1)]
    facets = [tuple(v for v in vertices if v != skip) for skip in vertices]
    return simplicial_chain_complex(SimplicialComplex(facets), reduced=True)


def test_scrambled_spheres_reduce_to_their_generator():
    rng = XorShift64Star(2006)
    for n in range(1, 5):
        for _ in range(20):
            chain = scramble(rng, _boundary_sphere(n))
            model = minimal_model(chain)
            assert model.complex.ranks == {n - 1: 1}
            (generator,) = kernel_basis(chain.boundary[n - 1])
            cycle = [model.inclusion[n - 1][0].get(i, 0) for i in range(chain.rank(n - 1))]
            assert cycle in (generator, [-v for v in generator])


def test_reduction_keeps_homology():
    rng = XorShift64Star(1098)
    chains = []
    for _ in range(40):
        complex = random_simplicial_complex(rng, max_vertices=7, max_triangles=6)
        chains += [simplicial_chain_complex(complex), simplicial_chain_complex(complex, True)]
    cellular = 0
    while cellular < 40:
        poset = random_graded_poset(rng, max_elements=14, max_levels=4)
        if check_cellularity(poset).is_cellular:
            chains.append(cellular_chain_complex(poset).complex)
            cellular += 1
    chains.append(cellular_chain_complex(face_poset(random_simplicial_complex(rng))).complex)
    for chain in chains:
        reduction = morse_reduction(chain)
        assert homology(reduction.complex) == homology(chain)
        # no +-1 entry is left to eliminate
        assert all(abs(v) != 1 for cols in reduction.complex.columns.values()
                   for col in cols for v in col.values())
        assert verify_quasi_isomorphism(reduction.complex, reduction.inclusion, chain)
