"""The interned poset core against the name-keyed construction it
replaced, kept in `helpers`: on fixtures, JSON documents, face posets,
levelled posets and random relations, every name view, the grading,
equality and the loader's reduced flag agree, and bad input raises the
same error with the same message."""

import json
from pathlib import Path

import pytest

from posetmorse import Poset, build_poset, face_poset
from posetmorse.errors import CycleDetected
from posetmorse.formats import load_complex, load_poset, serialize_poset
from posetmorse.posets import _height_ids
from posetmorse.randgen import XorShift64Star, random_simplicial_complex

from helpers import (
    NameKeyedPoset,
    name_keyed_build_poset,
    name_keyed_face_poset,
    name_keyed_load_poset,
    poset_document,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def assert_same(poset: Poset, oracle: NameKeyedPoset) -> None:
    assert poset.elements == oracle.elements
    assert poset.covers == oracle.covers
    assert sorted(poset.covers) == sorted(oracle.covers)
    assert poset.index == oracle.index
    assert poset.heights() == oracle.heights()
    assert list(poset.height_order().items()) == list(oracle.height_order().items())
    assert poset.is_graded() == oracle.is_graded()
    for e in poset.elements:
        assert poset.lower_covers(e) == oracle.lower_covers(e)
        assert poset.upper_covers(e) == oracle.upper_covers(e)
        assert poset.strictly_below(e) == oracle.strictly_below(e)
        assert poset.strictly_above(e) == oracle.strictly_above(e)
        assert poset.height(e) == oracle.height(e)
    if poset.elements:
        assert poset.height() == oracle.height()
    if poset.is_graded():
        assert poset.max_degree() == oracle.max_degree()
        for p in range(poset.max_degree() + 2):
            assert poset.level(p) == oracle.level(p)
    assert hash(poset) == hash(oracle)
    assert poset == Poset(oracle.elements, oracle.covers)
    assert poset == build_poset(oracle.elements, sorted(oracle.covers))
    # the walks that read the order: closures, chains and the core
    some = poset.elements[::3]
    assert poset.down_closure(some) == oracle.down_closure(some)
    sub = oracle.induced(some)
    assert poset.induced(some) == Poset(sub.elements, sub.covers)
    assert poset.beat_point_core() == oracle.beat_point_core()
    if len(poset) <= 40:
        assert poset.induced(some).chains() == oracle.induced(some).chains()


FIXTURES = {path.name: path.read_text() for path in sorted(DATA.glob("*.txt"))
            if "matching" not in path.name}


# each case is named by its file, not its text
@pytest.mark.parametrize("name,text", list(FIXTURES.items()), ids=list(FIXTURES))
def test_fixtures_and_their_documents(name, text):
    if "poset" in name:
        poset, reduced = load_poset(text)
        oracle, expected = name_keyed_load_poset(text)
        assert reduced == expected
    else:
        complex = load_complex(text)
        poset, oracle = face_poset(complex), name_keyed_face_poset(complex)
    assert_same(poset, oracle)
    # as poset text, whose order of first mention is not the order of the ids
    again = serialize_poset(poset)
    assert_same(load_poset(again)[0], name_keyed_load_poset(again)[0])
    document = json.dumps(poset_document(poset))
    loaded, reduced = load_poset(document)
    oracle, expected = name_keyed_load_poset(document)
    assert_same(loaded, oracle)
    assert reduced == expected is False


def test_face_posets_of_random_complexes():
    rng = XorShift64Star(2024)
    for _ in range(40):
        complex = random_simplicial_complex(rng)
        assert_same(face_poset(complex), name_keyed_face_poset(complex))


def test_levelled_posets():
    rng = XorShift64Star(2025)
    for trial in range(12):
        levels, width = rng.randint(1, 5), rng.randint(1, 12)
        names = [[f"l{lvl}_{i}" for i in range(width)] for lvl in range(levels)]
        covers = [(w, x) for lower, upper in zip(names, names[1:]) for x in upper
                  for w in rng.sample(lower, rng.randint(1, min(3, width)))]
        # declared top level first, so that declared order is not height order
        elements = [e for level in (names[::-1] if trial % 2 else names) for e in level]
        assert_same(Poset(elements, covers), NameKeyedPoset(elements, covers))
        assert_same(build_poset(elements, covers), name_keyed_build_poset(elements, covers))


def test_random_relations_with_duplicate_and_implied_pairs():
    rng = XorShift64Star(2026)
    for trial in range(150):
        size = rng.randint(1, 14)
        elements = rng.shuffle([f"e{i}" for i in range(size)])
        pairs = [(elements[i], elements[j]) for i in range(size) for j in range(i + 1, size)
                 if rng.chance(1, rng.randint(2, 5))]
        if trial % 3 == 0:  # the transitive closure of what is there
            closed = name_keyed_build_poset(elements, pairs)
            pairs += [(w, x) for x in elements for w in closed.strictly_below(x)]
        pairs += rng.sample(pairs, rng.randint(0, len(pairs)))  # duplicate pairs
        rng.shuffle(pairs)
        assert_same(build_poset(elements, pairs), name_keyed_build_poset(elements, pairs))
        isolated = [e for e in elements if not any(e in pair for pair in pairs)]
        text = "".join(f"{w} < {x}\n" for w, x in pairs) + "".join(f"{e}\n" for e in isolated)
        poset, reduced = load_poset(text)
        oracle, expected = name_keyed_load_poset(text)
        assert_same(poset, oracle)
        assert reduced == expected


def _longest_chains(lower: list[list[int]]) -> tuple[list[int] | None, list[int],
                                                     list[set[int]]]:
    """`_height_ids` by the definition: each height the length of the
    longest chain under the element, by recursion, and the ids sorted by
    (height, declared index)."""
    height: dict[int, int] = {}

    def h(j: int) -> int:
        if j not in height:
            height[j] = 1 + max(map(h, lower[j])) if lower[j] else 0
        return height[j]

    declared = sorted(range(len(lower)), key=lambda j: (h(j), j))
    ident = {j: i for i, j in enumerate(declared)}
    under = [{ident[w] for w in lower[j]} for j in declared]
    heights = [h(j) for j in declared]
    return (None if declared == list(range(len(lower))) else declared), heights, under


def test_the_one_walk_gives_the_heights_and_ids_of_the_definition():
    rng = XorShift64Star(2031)
    for trial in range(200):
        size = rng.randint(1, 16)
        # a hidden linear extension, so that declared order is not one
        extension = rng.shuffle(list(range(size)))
        lower: list[list[int]] = [[] for _ in range(size)]
        for b in range(size):
            lows = lower[extension[b]]
            lows += [extension[a] for a in range(b) if rng.chance(1, rng.randint(2, 5))]
            if lows and rng.chance(1, 2):  # a duplicate pair
                lows.append(rng.choice(lows))
        assert _height_ids(lower) == _longest_chains(lower), trial
        if any(lower):
            # a pair back from an element to one under it closes a cycle
            top = next(j for j in range(size) if lower[j])
            lower[lower[top][0]].append(top)
            with pytest.raises(CycleDetected, match="^cover relation contains a cycle$"):
                _height_ids(lower)


def test_equality_follows_the_names():
    rng = XorShift64Star(2027)
    posets = [random_simplicial_complex(rng) for _ in range(12)]
    pairs = [(face_poset(a), face_poset(b), name_keyed_face_poset(a), name_keyed_face_poset(b))
             for a in posets for b in posets]
    for p, q, p0, q0 in pairs:
        assert (p == q) == (p0 == q0)
        if p == q:
            assert hash(p) == hash(q)


@pytest.mark.parametrize("elements,relations", [
    (["a", "b"], [("a", "b"), ("b", "a")]),
    (["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")]),
    (["a", "b"], [("a", "b"), ("b", "b")]),
    (["a", "b", "a"], [("a", "b")]),
    (["a"], [("a", "zz")]),
    (["a"], [("zz", "a")]),
    ([], []),
    ([], [("a", "b")]),
], ids=["2-cycle", "3-cycle", "reflexive", "duplicate", "undeclared upper",
        "undeclared lower", "empty", "empty with pairs"])
def test_bad_relations_raise_as_before(elements, relations):
    with pytest.raises(Exception) as expected:
        name_keyed_build_poset(elements, relations)
    with pytest.raises(type(expected.value)) as raised:
        build_poset(elements, relations)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("text", [
    "a < b\nb < a\n", "a < b\nb < c\nc < a\n", "a < b\nb < b\n", "a\nb < c\nc < c\na < a\n",
    "", "\n# only a comment\n",
], ids=["2-cycle", "3-cycle", "reflexive", "first reflexive", "empty", "comment"])
def test_bad_text_raises_as_before(text):
    with pytest.raises(Exception) as expected:
        name_keyed_load_poset(text)
    with pytest.raises(type(expected.value)) as raised:
        load_poset(text)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("elements,covers", [
    (["a", "a"], []), (["a"], [("a", "b")]), (["b"], [("a", "b")]),
], ids=["duplicate", "undeclared upper", "undeclared lower"])
def test_bad_covers_raise_as_before(elements, covers):
    with pytest.raises(Exception) as expected:
        NameKeyedPoset(elements, covers)
    with pytest.raises(type(expected.value)) as raised:
        Poset(elements, covers)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("text", [
    "b < a\nc < a\nd\n",  # declared order is not height order
    "x\ny\nx < z\n",  # declared order is height order: the ids are the index
    json.dumps({"elements": ["top", "p", "q"], "covers": [["p", "top"], ["q", "top"]]}),
])
def test_index_is_built_on_first_use(text):
    poset, _ = load_poset(text)
    assert poset._index is None
    assert poset.index == {e: j for j, e in enumerate(poset.elements)}
    assert poset._index is not None
