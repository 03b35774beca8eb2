"""The order complexes built as iterated cones (`Poset._chain_cones`)
against the paper's definition: `subposet_chain_complex` against the
order complexes of induced subposets, built one by one, and
`poset_homology` and `is_acyclic` against the homology of the simplicial
complex of chains.  Pairs of subposets are checked in
`test_cellular_pairs.py`, against the cellular route that replaced the
order-complex one."""

from pathlib import Path

import pytest

import posetmorse.snf
from posetmorse import (
    CellularityReport,
    ChainComplex,
    SimplicialComplex,
    build_poset,
    check_cellularity,
    face_poset,
    homology,
    is_acyclic,
    order_complex,
    poset_homology,
    simplicial_chain_complex,
    sphere_generator,
)
from posetmorse.errors import NotAChainComplex, NotCellular, UnknownElement
from posetmorse.formats import load_complex
from posetmorse.homology import sphere_summary, subposet_chain_complex
from posetmorse.randgen import XorShift64Star, random_graded_poset, random_simplicial_complex
from posetmorse.snf import kernel_basis

from helpers import brute_force_maximal_chains

DATA = Path(__file__).resolve().parent.parent / "data"


def random_poset(rng: XorShift64Star, n: int):
    """A random poset, graded or not, from random relations i < j."""
    names = [f"p{i}" for i in range(n)]
    relations = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.chance(1, 3)]
    return build_poset(rng.shuffle(names), relations)


def random_posets(seed: int, count: int):
    rng = XorShift64Star(seed)
    for k in range(count):
        if k % 3 == 0:
            yield rng, random_graded_poset(rng, max_elements=10)
        elif k % 3 == 1:
            yield rng, random_poset(rng, rng.randint(4, 9))
        else:
            yield rng, face_poset(random_simplicial_complex(rng, max_vertices=5))


def test_reduced_subposets_match_induced_order_complexes():
    for rng, poset in random_posets(909, 60):
        members = [e for e in poset.elements if rng.chance(1, 2)]
        got = subposet_chain_complex(poset, members, reduced=True)
        want = simplicial_chain_complex(order_complex(poset.induced(members)), reduced=True)
        assert got.labels == want.labels
        assert got.ranks == want.ranks and got.columns == want.columns
        assert homology(got) == homology(want)


def induced_route_cellularity(poset) -> CellularityReport:
    """The cellularity report computed as the paper states it, on the
    order complex of each induced strict and punctured down-set."""
    if not poset.is_graded():
        h = poset.heights()
        witnesses = tuple(("not-graded", f"{w}<{x}", "cover skips a height level")
                          for w, x in sorted(poset.covers) if h[x] != h[w] + 1)
        return CellularityReport(False, False, False, witnesses)

    def reduced_homology(members):
        complex = order_complex(poset.induced(members))
        return homology(simplicial_chain_complex(complex, reduced=True))

    witnesses = []
    cellular = admissible = True
    for x in poset.elements:
        summary = reduced_homology(poset.strictly_below(x))
        if summary != sphere_summary(poset.heights()[x] - 1):
            cellular = False
            witnesses.append(("not-cellular", x, f"strict down-set has {summary}"))
    for w, x in sorted(poset.covers):
        if not reduced_homology(poset.strictly_below(x) - {w}).is_trivial():
            admissible = False
            witnesses.append(("not-admissible", f"{w}<{x}",
                              "punctured down-set is not acyclic"))
    return CellularityReport(True, cellular, admissible, tuple(witnesses))


def test_cellularity_matches_induced_route():
    kinds = set()
    for _, poset in random_posets(4711, 75):
        report = check_cellularity(poset)
        assert report == induced_route_cellularity(poset)
        kinds.update(kind for kind, _, _ in report.witnesses)
    assert kinds == {"not-graded", "not-cellular", "not-admissible"}


def induced_route_generator(poset, element) -> dict:
    """The sphere generator below `element`, from the order complex of the
    induced strict down-set."""
    p = poset.heights()[element]
    complex = order_complex(poset.induced(poset.strictly_below(element)))
    chain = simplicial_chain_complex(complex, reduced=True)
    (vec,) = kernel_basis(chain.boundary[p - 1])
    sign = next(1 if v > 0 else -1 for v in vec if v)
    return {s: sign * c for s, c in zip(complex.simplices.get(p - 1, ()), vec) if c}


def with_top(complex: SimplicialComplex):
    """The face poset of the complex with one element over its maximal simplices."""
    faces = face_poset(complex)
    tops = ["|".join(s) for s in complex.maximal]
    return build_poset([*faces.elements, "top"], [*faces.covers, *((t, "top") for t in tops)])


def rp2_with_h2():
    """RP^2 wedged at a vertex with the boundary of the tetrahedron, and
    two copies of RP^2 glued along the loop 1-2-3, a generator of H_1: both
    have H_2 = Z beside H_1 = Z/2."""
    rp2 = (DATA / "rp2_6.txt").read_text()
    copy = rp2.translate(str.maketrans("456", "789"))
    return (load_complex(rp2 + "1 10 11\n1 10 12\n1 11 12\n10 11 12\n"),
            load_complex(rp2 + copy))


def test_sphere_generators_match_induced_route(t3, rp2, mobius, tetra_boundary):
    wedge, double = rp2_with_h2()
    for complex in (wedge, double):
        summary = homology(simplicial_chain_complex(complex))
        assert summary.b(2) == 1 and summary.t(1) == (2,)
    # the minimal models below "top" keep a 2-cell that is not a cycle
    for poset in (t3, face_poset(rp2), face_poset(mobius), face_poset(tetra_boundary),
                  with_top(wedge), with_top(double)):
        for x in poset.elements:
            if poset.heights()[x] >= 1:
                assert sphere_generator(poset, x).cycle == induced_route_generator(poset, x)


def test_sphere_generator_needs_top_homology_of_rank_one():
    # H_2 = 0 beside H_1 = Z/2
    rp2 = with_top(load_complex((DATA / "rp2_6.txt").read_text()))
    with pytest.raises(NotCellular, match="below 'top' has rank 0, expected 1"):
        sphere_generator(rp2, "top")
    two_circles = with_top(SimplicialComplex([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]))
    with pytest.raises(NotCellular, match="below 'top' has rank 2, expected 1"):
        sphere_generator(two_circles, "top")


def test_unknown_elements_and_non_subsets_rejected(t3):
    with pytest.raises(UnknownElement):
        subposet_chain_complex(t3, ["v1", "zz"])
    with pytest.raises(UnknownElement):
        t3.chains_within(["v1", "zz"])


def test_empty_members():
    p = build_poset(["a", "b"], [("a", "b")])
    assert p._chain_cones([]) == ([], {})
    assert homology(subposet_chain_complex(p, [], reduced=True)) == sphere_summary(-1)
    assert homology(subposet_chain_complex(p, [])).is_trivial()


def test_production_route_builds_no_induced_poset(monkeypatch, rp2):
    from posetmorse import Poset, SimplicialComplex, euler_characteristics
    from posetmorse.randgen import find_euler_gap_poset

    spaces = [face_poset(rp2), find_euler_gap_poset(XorShift64Star(5))]

    def forbidden(*args, **kwargs):
        raise AssertionError("induced poset or order complex built")

    monkeypatch.setattr(Poset, "induced", forbidden)
    monkeypatch.setattr(SimplicialComplex, "__init__", forbidden)
    for poset in spaces:
        check_cellularity(poset)
        euler_characteristics(poset)

    def dense(*args, **kwargs):
        raise AssertionError("dense boundary or kernel basis built")

    # sphere generators read their cycle off the sparse reducer
    monkeypatch.setattr(ChainComplex, "boundary", property(dense))
    monkeypatch.setattr(posetmorse.snf, "kernel_basis", dense)
    for x in spaces[0].elements:
        if spaces[0].heights()[x] >= 1:
            sphere_generator(spaces[0], x)


def whole_posets(rng: XorShift64Star):
    """Graded random posets, cellular or not, ungraded ones, face posets,
    a disconnected poset and a single point."""
    for k in range(45):
        if k % 3 == 0:
            yield random_graded_poset(rng, max_elements=12, max_levels=4)
        elif k % 3 == 1:
            yield random_poset(rng, rng.randint(3, 9))
        else:
            yield face_poset(random_simplicial_complex(rng, max_vertices=6))
    yield build_poset(["a", "b", "c", "d", "e", "f", "g"],
                      [("a", "c"), ("b", "c"), ("a", "d"), ("b", "d"), ("e", "f")])
    yield build_poset(["a"], [])


def test_poset_homology_is_the_homology_of_the_order_complex(rp2):
    posets = [face_poset(rp2), *whole_posets(XorShift64Star(2026))]
    kinds, acyclic = set(), set()
    for poset in posets:
        chains = order_complex(poset)
        # the chains listed by exhaustive extension, not by the cones
        assert chains == SimplicialComplex(
            brute_force_maximal_chains(poset, set(poset.elements)))
        for reduced in (False, True):
            want = homology(simplicial_chain_complex(chains, reduced=reduced))
            assert poset_homology(poset, reduced=reduced) == want
        assert is_acyclic(poset) == want.is_trivial()
        kinds.add((poset.is_graded(), check_cellularity(poset).is_cellular))
        acyclic.add(want.is_trivial())
    assert kinds == {(True, True), (True, False), (False, False)} and acyclic == {True, False}
    assert poset_homology(posets[0]).t(1) == (2,)
    assert poset_homology(posets[-2]).b(0) == 3


def test_flipped_cone_signs_are_not_a_chain_complex(rp2, tetra_boundary):
    """The entry (-1)^(dim c + 1) on c in the column of c.x is what makes
    d*d vanish: flipping it in one dimension, or in every dimension above
    the augmentation, makes `ChainComplex` raise."""
    for complex in (rp2, tetra_boundary):
        poset = face_poset(complex)
        columns = poset._chain_cones(poset.elements)[0]
        ranks = {-1: 1, **{d: len(cols) for d, cols in enumerate(columns)}}
        ChainComplex(ranks, dict(enumerate(columns)))

        def flipped(cols):
            return [{**col, next(reversed(col)): -col[next(reversed(col))]} for col in cols]

        for d in range(1, len(columns)):
            with pytest.raises(NotAChainComplex):
                ChainComplex(ranks, {**dict(enumerate(columns)), d: flipped(columns[d])})
        with pytest.raises(NotAChainComplex):
            ChainComplex(ranks, {0: columns[0], **{d: flipped(cols) for d, cols
                                                   in enumerate(columns) if d}})
