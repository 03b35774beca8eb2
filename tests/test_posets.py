import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetmorse import build_poset, face_poset, posets
from posetmorse.errors import (
    CycleDetected,
    DuplicateElement,
    EmptyPoset,
    NotGraded,
    UnknownElement,
)
from posetmorse.formats import load_complex, load_poset
from posetmorse.posets import Poset
from posetmorse.randgen import XorShift64Star, random_graded_poset

from helpers import (
    brute_force_is_graded,
    brute_force_relation,
    comprehension_covers,
    maximal_elements,
)


def test_singleton():
    p = build_poset(["a"], [])
    assert p.height() == 0
    assert p.elements == ("a",)


def test_single_edge_face_poset():
    p = build_poset(["v1", "v2", "e"], [("v1", "e"), ("v2", "e")])
    assert p.height() == 1
    assert p.is_graded()


def test_two_cycle_rejected():
    with pytest.raises(CycleDetected):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_three_cycle_rejected():
    with pytest.raises(CycleDetected):
        build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])


def test_reflexive_pair_rejected():
    with pytest.raises(CycleDetected):
        build_poset(["a"], [("a", "a")])


def test_unknown_and_duplicate_elements():
    with pytest.raises(UnknownElement):
        build_poset(["a"], [("a", "b")])
    with pytest.raises(DuplicateElement):
        build_poset(["a", "a"], [])


def test_empty_input_rejected():
    with pytest.raises(EmptyPoset):
        build_poset([], [])


def test_transitive_input_is_reduced():
    p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert p.covers == {("a", "b"), ("b", "c")}


def test_down_sets(t3):
    strict = t3.induced(t3.strictly_below("e12"))
    assert set(strict.elements) == {"v1", "v2"}
    assert set(t3.down_closure(["e12"])) == {"v1", "v2", "e12"}
    assert t3.induced(t3.strictly_below("v1")).elements == ()


def test_up_sets(t3):
    up = t3.induced(t3.strictly_above("v1"))
    assert set(up.elements) == {"e12", "e13"}
    assert up.covers == frozenset()


def test_down_set_unknown_element(t3):
    with pytest.raises(UnknownElement):
        t3.strictly_below("nope")


def test_heights_and_grading(t3):
    assert t3.is_graded()
    assert t3.heights() == {"v1": 0, "v2": 0, "v3": 0, "e12": 1, "e13": 1, "e23": 1}
    assert t3.degree("e13") == 1


def test_grading_definition_example():
    # a<c, b<c, c<d, a<e: e only above a
    p = build_poset(["a", "b", "c", "d", "e"],
                    [("a", "c"), ("b", "c"), ("c", "d"), ("a", "e")])
    assert p.is_graded() == brute_force_is_graded(p)
    assert p.is_graded()


def test_non_graded_mixed_chain_lengths():
    # U_d has maximal chains a<b<d and c<d of different lengths
    p = build_poset(["a", "b", "c", "d"],
                    [("a", "b"), ("b", "d"), ("c", "d")])
    assert not p.is_graded()
    assert brute_force_is_graded(p) is False


def test_tetrahedron_face_poset_grading(tetra_boundary):
    poset = face_poset(tetra_boundary)
    degs = {poset.degree(e) for e in poset.elements}
    assert degs == {0, 1, 2}
    assert poset.is_graded()
    # homogeneous of degree 2: every maximal element sits at the top level
    assert all(poset.degree(e) == 2 for e in maximal_elements(poset))


def test_levels(t3, tetra_boundary):
    assert t3.level(0) == ("v1", "v2", "v3")
    tetra = face_poset(tetra_boundary)
    assert tetra.max_degree() == 2 and len(tetra.level(2)) == 4


def test_degree_queries_need_a_graded_poset():
    p = build_poset(["a", "b", "c", "d"], [("a", "b"), ("b", "d"), ("c", "d")])
    for query in (lambda: p.degree("a"), p.max_degree, lambda: p.level(0)):
        with pytest.raises(NotGraded):
            query()


def test_degree_of_unknown_element(t3):
    with pytest.raises(UnknownElement):
        t3.degree("nope")


def test_strict_vs_nonstrict_union(t3):
    for x in t3.elements:
        strict = set(t3.strictly_below(x))
        closed = set(t3.down_closure([x]))
        assert closed == strict | {x}


def test_induced_recovers_skipped_covers():
    p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    sub = p.induced(["a", "c"])
    assert sub.covers == {("a", "c")}


def test_build_poset_idempotent_on_covers():
    rng = XorShift64Star(99)
    for _ in range(25):
        p = random_graded_poset(rng, max_elements=10)
        again = build_poset(p.elements, sorted(p.covers))
        assert again == Poset(p.elements, p.covers)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_gradedness_matches_brute_force(seed):
    rng = XorShift64Star(seed)
    p = random_graded_poset(rng, max_elements=12)
    assert p.is_graded()
    assert brute_force_is_graded(p)
    # sprinkle extra relations to sometimes break gradedness
    extra = []
    elements = list(p.elements)
    for _ in range(rng.randint(0, 2)):
        a = rng.choice(elements)
        b = rng.choice(elements)
        if a != b and not p.less(b, a):
            extra.append((a, b))
    try:
        q = build_poset(elements, sorted(p.covers) + extra)
    except CycleDetected:
        return
    assert q.is_graded() == brute_force_is_graded(q)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_reachability_matches_brute_force(seed):
    rng = XorShift64Star(seed)
    p = random_graded_poset(rng, max_elements=10)
    oracle = brute_force_relation(p)
    for x in p.elements:
        assert set(p.strictly_below(x)) == oracle[x]


def test_cover_reduction_matches_the_comprehension():
    rng = XorShift64Star(1966)
    for trial in range(200):
        size = rng.randint(1, 14)
        elements = rng.shuffle([f"e{i}" for i in range(size)])
        # any acyclic relation: pairs oriented along the shuffled order
        pairs = [(elements[i], elements[j]) for i in range(size) for j in range(i + 1, size)
                 if rng.chance(1, rng.randint(2, 5))]
        if trial % 4 == 0:  # a chain through every element
            pairs += list(zip(elements, elements[1:]))
        if trial % 4 == 1:  # the transitive closure of what is there
            below = build_poset(elements, pairs)
            pairs += [(w, x) for x in elements for w in below.strictly_below(x)]
        pairs += rng.sample(pairs, rng.randint(0, len(pairs)))  # duplicate pairs
        rng.shuffle(pairs)
        assert build_poset(elements, pairs).covers == comprehension_covers(elements, pairs)


def test_induced_covers_match_the_comprehension():
    rng = XorShift64Star(1972)
    for trial in range(120):
        if trial % 2:
            p = random_graded_poset(rng, max_elements=14, max_levels=4)
        else:  # ungraded: any acyclic relation, pairs oriented along a shuffled order
            size = rng.randint(1, 14)
            elements = rng.shuffle([f"e{i}" for i in range(size)])
            p = build_poset(elements, [(elements[i], elements[j]) for i in range(size)
                                       for j in range(i + 1, size) if rng.chance(1, 3)])
        keep = rng.sample(list(p.elements), rng.randint(0, len(p)))
        relation = [(w, x) for x in keep for w in p.strictly_below(x) if w in keep]
        assert p.induced(keep).covers == comprehension_covers(keep, relation)


@pytest.mark.parametrize("load,walks", [
    (lambda: load_poset("a < b\nb < c\na < c\nd < c\n")[0], 1),
    # a face poset's ids come in dimension order: it takes no walk
    (lambda: face_poset(load_complex("a b c\nc d\n")), 0),
], ids=["loaded", "face"])
def test_one_walk_and_one_closure_per_poset(load, walks, monkeypatch):
    calls = {"_topological_order": 0, "_strictly_below": 0}
    for name in calls:
        def counted(*args, _inner=getattr(posets, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(posets, name, counted)
    poset = load()
    poset.heights()
    for x in poset.elements:
        poset.strictly_below(x)
    assert calls == {"_topological_order": walks, "_strictly_below": 1}


def test_graded_cover_degree_gap(t3):
    for w, x in t3.covers:
        assert t3.degree(x) - t3.degree(w) == 1
