"""The chain model of the cellularity pass against the order-complex
definition: the cells of any down-set A are a model of A, so their
reduced homology is that of `poset_homology(poset.induced(A))`, torsion
included.  Checked on seeded graded, ungraded and torsion-bearing
posets, among them sd RP^2 with extra relations, graded or not."""

from pathlib import Path

from posetmorse import Poset, build_poset, face_poset, poset_homology, subdivision
from posetmorse.cellular import check_cellularity
from posetmorse.formats import load_complex
from posetmorse.homology import homology
from posetmorse.randgen import XorShift64Star, random_graded_poset, random_simplicial_complex

from helpers import levelled_poset, name_keyed_cellular_complex, named_pass, ungraded_poset

DATA = Path(__file__).resolve().parent.parent / "data"


def sd_rp2() -> Poset:
    return subdivision(face_poset(load_complex((DATA / "rp2_6.txt").read_text())))


def with_extra_relations(rng: XorShift64Star, poset: Poset, count: int, graded: bool) -> Poset:
    """The poset with `count` new relations a < b between elements of lower
    and higher height: one height apart, which keeps the grading, or any
    distance apart, which mostly breaks it."""
    heights = poset.heights()
    relations = list(poset.covers)
    while len(relations) < len(poset.covers) + count:
        a, b = rng.sample(poset.elements, 2)
        gap = heights[b] - heights[a]
        if (gap == 1 if graded else gap >= 1) and not poset.less(a, b):
            relations.append((a, b))
    return build_poset(poset.elements, relations)


def suspension(poset: Poset) -> Poset:
    """The poset with two new elements over all its maximal elements: their
    strict down-sets are the whole poset, torsion included, so their
    cells carry the boundaries d_M of its model."""
    tops = [e for e in poset.elements if not poset.upper_covers(e)]
    return Poset(list(poset.elements) + ["n", "s"],
                 list(poset.covers) + [(e, x) for e in tops for x in ("n", "s")])


def sample_posets(seed: int):
    rng = XorShift64Star(seed)
    base = sd_rp2()
    yield suspension(base)
    yield suspension(with_extra_relations(rng, base, 3, graded=False))
    for _ in range(6):
        yield with_extra_relations(rng, base, rng.randint(1, 4), graded=True)
    for _ in range(12):
        yield with_extra_relations(rng, base, rng.randint(2, 3), graded=False)
    for _ in range(8):
        yield random_graded_poset(rng, max_elements=14, max_levels=4)
    for _ in range(8):
        yield ungraded_poset(rng, rng.randint(6, 11))
    for _ in range(4):
        yield face_poset(random_simplicial_complex(rng, max_vertices=6))
    yield levelled_poset(rng, 4, 10)


def down_sets(poset: Poset, rng: XorShift64Star):
    """The whole poset, every strict down-set U.x, every punctured one
    U.x - {w}, and the down-closures of a few random subsets."""
    yield frozenset(poset.elements)
    for x in poset.elements:
        below = poset.strictly_below(x)
        yield below
        yield from (below - {w} for w in poset.lower_covers(x))
    for _ in range(4):
        yield frozenset(poset.down_closure(e for e in poset.elements if rng.chance(1, 3)))


def test_model_of_down_sets_matches_order_complex():
    rng = XorShift64Star(91)
    checked, torsion, kinds = 0, {True: 0, False: 0}, {"ungraded": 0, "non-cellular": 0}
    for poset in sample_posets(17):
        cells = named_pass(poset)[1]
        if not poset.is_graded():
            kinds["ungraded"] += 1
        elif not check_cellularity(poset).is_cellular:
            kinds["non-cellular"] += 1
        for members in set(down_sets(poset, rng)):
            expected = poset_homology(poset.induced(members), reduced=True)
            model = name_keyed_cellular_complex(poset, cells, members, reduced=True)
            assert homology(model) == expected, sorted(members)
            torsion[poset.is_graded()] += expected.total_mu() > 0
            checked += 1
    assert checked >= 1000 and min(torsion.values()) >= 3, (checked, torsion)
    assert min(kinds.values()) >= 10, kinds

