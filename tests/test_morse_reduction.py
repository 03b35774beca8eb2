"""The one sparse elimination, `morse_reduction`, and `minimal_model`.

Scrambled complexes are direct sums of known pieces, Z in one degree
and Z --t--> Z with t in {1, 2, 3, 4, 6}, seen through random unimodular
changes of basis in every degree, so their homology and minimal rank
profile b_k + mu_k + mu_{k-1} are known while their boundaries hide both.
Every model is checked by the mapping-cone criterion and by the dense
oracle `helpers.snf_quasi_isomorphism`.
"""

import sys

import pytest

from posetmorse import (
    ChainComplex,
    IntMatrix,
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

from helpers import snf_quasi_isomorphism

FACTORS = (1, 2, 3, 4, 6)


def _unimodular(rng: XorShift64Star, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """A random unimodular n x n matrix and its inverse, as products of
    elementary row operations."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Pi = [row[:] for row in P]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        # P <- E P with E adding c times row j to row i; P^-1 <- P^-1 E^-1
        P[i] = [a + c * b for a, b in zip(P[i], P[j])]
        for row in Pi:
            row[j] -= c * row[i]
        if rng.chance(1, 3):
            P[i] = [-a for a in P[i]]
            for row in Pi:
                row[i] = -row[i]
    return P, Pi


def _scramble(rng: XorShift64Star, complex: ChainComplex) -> ChainComplex:
    """d_k -> P_{k-1} d_k P_k^-1 for random unimodular P_k."""
    changes = {p: _unimodular(rng, n) for p, n in complex.ranks.items()}
    boundary = {}
    for p, d in complex.boundary.items():
        P = IntMatrix(d.rows, d.rows, changes[p - 1][0])
        Pi = IntMatrix(d.cols, d.cols, changes[p][1])
        boundary[p] = P @ d @ Pi
    return ChainComplex(complex.ranks, boundary)


def _scrambled_complex(rng: XorShift64Star):
    """A scrambled complex of 3 to 5 degrees with its known homology."""
    top = rng.randint(2, 4)
    free = {k: rng.randint(0, 2) for k in range(top + 1)}
    pieces = [(k, rng.choice(FACTORS)) for k in range(1, top + 1)
              for _ in range(rng.randint(0, 3))]
    cells = {k: [("free", None)] * free[k] for k in range(top + 1)}
    for i, (k, t) in enumerate(pieces):
        cells[k].append(("top", i))
        cells[k - 1].append(("bottom", i))
    for k in cells:
        rng.shuffle(cells[k])
    boundary = {}
    for k in range(1, top + 1):
        rows = {cell: r for r, cell in enumerate(cells[k - 1]) if cell[0] == "bottom"}
        boundary[k] = [{rows[("bottom", cell[1])]: pieces[cell[1]][1]} if cell[0] == "top" else {}
                       for cell in cells[k]]
    known = ChainComplex({k: len(c) for k, c in cells.items()}, boundary)
    # invariant factors of diag(t): as many as the prime 2 or 3 divides most
    mu = {k: max(sum(1 for j, t in pieces if j == k + 1 and t % prime == 0) for prime in (2, 3))
          for k in range(top + 1)}
    return _scramble(rng, known), free, mu


def _dense(model, complex: ChainComplex) -> dict[int, IntMatrix]:
    return {p: IntMatrix.from_sparse_columns(cols, complex.rank(p))
            for p, cols in model.inclusion.items()}


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
        chain, free, mu = _scrambled_complex(rng)
        summary = homology(chain)
        assert {k: summary.b(k) for k in free} == free
        assert {k: summary.mu(k) for k in mu} == mu
        unit_factors.clear()
        model = minimal_model(chain)
        smith_steps += any(unit_factors)
        for k in free:
            assert model.complex.rank(k) == free[k] + mu[k] + mu.get(k - 1, 0)
        inclusion = _dense(model, chain)
        assert verify_quasi_isomorphism(model.complex, inclusion, chain)
        assert snf_quasi_isomorphism(model.complex, inclusion, chain)
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
            chain = _scramble(rng, _boundary_sphere(n))
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
        assert verify_quasi_isomorphism(reduction.complex, _dense(reduction, chain), chain)
