import random
from itertools import combinations

import pytest

from posetmorse import (
    build_poset,
    face_poset,
    homology,
    order_complex,
    parse_simplicial_complex,
    poset_homology,
    simplicial_chain_complex,
    subdivision,
)
from posetmorse.errors import EmptyComplex, MalformedLine
from posetmorse.randgen import XorShift64Star, random_graded_poset
from posetmorse.simplicial import SimplicialComplex, serialize_simplicial_complex

from helpers import maximal_elements, simplex_id


def test_parse_triangle_boundary(triangle_boundary):
    assert len(triangle_boundary.simplices.get(0, ())) == 3
    assert len(triangle_boundary.simplices.get(1, ())) == 3
    assert triangle_boundary.dimension() == 1


def test_parse_full_triangle(full_triangle):
    assert [len(full_triangle.simplices.get(d, ())) for d in range(3)] == [3, 3, 1]


def test_parse_rp2(rp2):
    counts = [len(rp2.simplices.get(d, ())) for d in range(3)]
    assert counts == [6, 15, 10]
    assert rp2.euler_characteristic() == 6 - 15 + 10 == 1


def test_membership_names_vertices_as_the_constructor_does():
    k = SimplicialComplex([[1, 2, 10]])
    assert k.simplices[2] == (("1", "10", "2"),)
    for face in ([1, 2], [10, 2], [2, 10, 1], (10,), ["1", "10"], [1, "2"]):
        assert face in k
    for other in ([3], [1, 3], [1, 2, 3], [1, 2, 10, 3]):
        assert other not in k


def test_parse_errors():
    with pytest.raises(EmptyComplex):
        parse_simplicial_complex("\n# nothing here\n")
    with pytest.raises(MalformedLine):
        parse_simplicial_complex("1 2 1\n")


def test_redundant_lines_absorbed():
    k = parse_simplicial_complex("1 2 3\n1 2\n3\n")
    assert k.maximal == (("1", "2", "3"),)


def test_face_poset_triangle(triangle_boundary, t3):
    poset = face_poset(triangle_boundary)
    assert len(poset) == 6
    assert poset.degree("1|2") == 1
    # isomorphic to the hand-built T3: same homology
    assert poset_homology(poset) == poset_homology(t3)


def test_face_poset_full_triangle(full_triangle):
    poset = face_poset(full_triangle)
    assert len(poset) == 7
    assert poset.height() == 2


def test_face_poset_rp2(rp2):
    assert len(face_poset(rp2)) == 31


def test_order_complex_antichain():
    p = build_poset(["a", "b", "c", "d"], [])
    k = order_complex(p)
    assert len(k.simplices.get(0, ())) == 4
    assert not k.simplices.get(1, ())


def test_order_complex_t3_is_hexagon(t3):
    # oracle: enumerate the chains of T3 directly
    chains = t3.chains()
    singletons = [c for c in chains if len(c) == 1]
    pairs = [c for c in chains if len(c) == 2]
    assert len(singletons) == 6 and len(pairs) == 6
    assert not [c for c in chains if len(c) > 2]
    k = order_complex(t3)
    assert len(k.simplices.get(0, ())) == 6
    assert len(k.simplices.get(1, ())) == 6
    assert k.dimension() == 1


def test_order_complex_of_face_poset_is_subdivision(triangle_boundary):
    sd = order_complex(face_poset(triangle_boundary))
    assert len(sd.simplices.get(0, ())) == 6
    assert len(sd.simplices.get(1, ())) == 6
    # same homotopy type as the circle
    assert homology(simplicial_chain_complex(sd)).b(1) == 1


def test_subdivision_examples(t3):
    single = build_poset(["a"], [])
    assert len(subdivision(single)) == 1
    chain2 = build_poset(["a", "b"], [("a", "b")])
    assert len(subdivision(chain2)) == 3
    assert len(subdivision(t3)) == 12


def test_homology_invariance_under_functors(rp2, triangle_boundary, tetra_boundary):
    for complex in (rp2, triangle_boundary, tetra_boundary):
        direct = homology(simplicial_chain_complex(complex))
        via = poset_homology(face_poset(complex))
        assert direct == via


def test_cone_has_trivial_homology():
    rng = XorShift64Star(5)
    for _ in range(10):
        p = random_graded_poset(rng, max_elements=8)
        elements = list(p.elements) + ["TOP"]
        covers = sorted(p.covers) + [(m, "TOP") for m in maximal_elements(p)]
        coned = build_poset(elements, covers)
        summary = poset_homology(coned, reduced=True)
        assert summary.is_trivial()


def test_degree_equals_dimension(rp2):
    poset = face_poset(rp2)
    for e in poset.elements:
        assert poset.degree(e) == e.count("|")


def test_serialization_round_trip(rp2):
    text = serialize_simplicial_complex(rp2)
    again = parse_simplicial_complex(text)
    assert again == rp2
    assert serialize_simplicial_complex(again) == text


def test_simplex_id():
    assert simplex_id(("2", "10", "1")) == "1|10|2"


def test_closure_and_maximal_match_brute_force():
    rng = random.Random(7)
    for _ in range(150):
        vertices = [str(v) for v in range(rng.randint(1, 7))]
        inputs = [rng.sample(vertices, rng.randint(1, min(5, len(vertices))))
                  for _ in range(rng.randint(1, 6))]
        closed = {face for s in inputs for k in range(1, len(s) + 1)
                  for face in combinations(sorted(s), k)}
        maximal = sorted((s for s in closed
                          if not any(s != t and set(s) <= set(t) for t in closed)),
                         key=lambda s: (len(s), s))
        k = SimplicialComplex(inputs)
        assert k.simplices == {d: tuple(sorted(s for s in closed if len(s) == d + 1))
                               for d in range(max(map(len, closed)))}
        assert k.maximal == tuple(maximal)
