"""The one homology route of a space, `space_homology`, against the
order-complex definition `poset_homology`: reduced and unreduced, over
the integers and the rationals, with the same degrees listed, on the
`data/` fixtures, on random face posets (cellular) and on random graded,
ungraded and Euler-gap posets (mostly not cellular, read off the chain
model of the cellularity pass).  The Euler characteristics are checked
against the definition here too."""

import functools
from pathlib import Path

import pytest

from posetmorse import (
    build_poset,
    check_cellularity,
    euler_characteristics,
    face_poset,
    hccat,
    order_complex,
    poset_homology,
    simplicial_chain_complex,
)
from posetmorse.cellular import cellular_chain_complex, space_complex, space_homology
from posetmorse.errors import EmptyPoset
from posetmorse.formats import load_complex, load_poset, parse_matching_text
from posetmorse.homology import homology
from posetmorse.inequalities import (
    orbit_inequalities_multiplicity,
    orbit_inequalities_torsion,
    strong_morse_bott,
)
from posetmorse.posets import Poset
from posetmorse.randgen import (
    XorShift64Star,
    find_euler_gap_poset,
    random_graded_poset,
    random_simplicial_complex,
)

from helpers import (guard_whole_poset_chains, levelled_poset, name_keyed_cellular_complex,
                     named_pass, ungraded_poset)

DATA = Path(__file__).resolve().parent.parent / "data"
FIXTURES = {"t3_poset.txt": "poset", "mobius_5.txt": "simplicial", "rp2_6.txt": "simplicial",
            "boundary_6simplex.txt": "simplicial"}


@functools.cache
def fixture_posets() -> tuple[Poset, ...]:
    """One parse per session: the order complex of the 6-simplex's
    boundary, 47,292 chains, is then built once per homology kind."""
    out = []
    for name, kind in FIXTURES.items():
        text = (DATA / name).read_text()
        out.append(face_poset(load_complex(text)) if kind == "simplicial" else load_poset(text)[0])
    return tuple(out)


def random_face_posets(seed: int, count: int) -> list[Poset]:
    rng = XorShift64Star(seed)
    return [face_poset(random_simplicial_complex(rng, max_vertices=7)) for _ in range(count)]


def random_other_posets(seed: int) -> list[Poset]:
    rng = XorShift64Star(seed)
    posets = [random_graded_poset(rng, max_elements=14, max_levels=4) for _ in range(12)]
    posets += [ungraded_poset(rng, rng.randint(5, 10)) for _ in range(12)]
    posets += [levelled_poset(rng, 3, 8), levelled_poset(rng, 4, 10)]
    posets += [find_euler_gap_poset(XorShift64Star(s), max_elements=8) for s in (5, 810, 2024)]
    return posets


def assert_routes_agree(poset: Poset) -> None:
    for reduced in (False, True):
        fast = space_homology(poset, reduced=reduced)
        slow = poset_homology(poset, reduced=reduced)
        # to_doc lists every degree and the ring, as the CLI prints them
        assert fast.to_doc() == slow.to_doc(), (poset, reduced)
        assert fast.rational().to_doc() == slow.rational().to_doc(), (poset, reduced)
        assert fast == slow


def test_routes_agree_on_the_fixtures():
    for poset in fixture_posets():
        assert check_cellularity(poset).is_cellular
        assert_routes_agree(poset)


def test_routes_agree_on_random_face_posets():
    posets = random_face_posets(1101, 24)
    assert all(check_cellularity(p).is_cellular for p in posets)
    # disconnected spaces too, so reduced H_0 is not always trivial
    assert any(poset_homology(p).b(0) > 1 for p in posets)
    for poset in posets:
        assert_routes_agree(poset)


def test_routes_agree_on_non_cellular_and_ungraded_posets():
    posets = random_other_posets(1103)
    assert all(p is not None for p in posets)
    non_cellular = [p for p in posets if not check_cellularity(p).is_cellular]
    assert len(non_cellular) >= 15
    assert sum(not p.is_graded() for p in posets) >= 5
    # models of lower dimension than the poset, whose summaries are padded
    assert sum(space_complex(p).max_degree() < p.height() for p in non_cellular) >= 10
    for poset in posets:
        assert_routes_agree(poset)


def test_routes_agree_on_the_empty_and_one_point_posets():
    empty = Poset([], [])
    assert space_homology(empty, reduced=True) == poset_homology(empty, reduced=True)
    assert space_homology(empty, reduced=True).rational().coefficients == "rat"
    with pytest.raises(EmptyPoset):
        space_homology(empty)
    assert_routes_agree(build_poset(["a"], []))
    assert_routes_agree(build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")]))


def test_one_model_gives_both_summaries_of_each_route(monkeypatch):
    # each route reduces its model once, whichever summary is asked first,
    # and caches the reduced summary as it caches the unreduced one
    import sys

    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    spy(sys.modules["posetmorse.cellular"], "homology")
    spy(sys.modules["posetmorse.homology"], "_coreduce")
    for route, model in ((space_homology, "homology"), (poset_homology, "_coreduce")):
        for first in (True, False):
            poset = build_poset(["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("a", "d"),
                                                       ("b", "d")])
            calls.clear()
            summaries = {r: route(poset, reduced=r) for r in (first, not first)}
            assert calls == [model]
            assert all(route(poset, reduced=r) is summaries[r] for r in (True, False))
            assert summaries[True].to_doc()["betti"] == [0, 0, 1]
            assert summaries[False].to_doc()["betti"] == [1, 1]


def test_the_witness_shares_the_model():
    cellular = fixture_posets()[0]
    assert space_complex(cellular) is cellular_chain_complex(cellular).complex
    gap = find_euler_gap_poset(XorShift64Star(5), max_elements=8)
    assert not check_cellularity(gap).is_cellular
    model = space_complex(gap)
    assert model is space_complex(gap)
    # the cells of the pass, an element or (element, degree, index), without
    # the augmentation: not the order complex of the beat-point core
    assert model.labels == name_keyed_cellular_complex(gap, named_pass(gap)[1],
                                                       gap.elements).labels
    core = order_complex(gap.induced(gap.beat_point_core()))
    assert model.labels != simplicial_chain_complex(core).labels
    assert -1 not in model.ranks
    assert hccat(gap) == hccat(model) == hccat(poset_homology(gap))


def test_cellular_posets_never_enumerate_the_chains_of_the_poset(monkeypatch):
    def load():
        return face_poset(load_complex((DATA / "rp2_6.txt").read_text()))

    expected = (hccat(poset_homology(load())), euler_characteristics(load()))
    rp2 = load()
    matching = parse_matching_text(rp2, (DATA / "rp2_star5_matching.txt").read_text())
    guard_whole_poset_chains(monkeypatch)
    assert (hccat(rp2), euler_characteristics(rp2)) == expected
    assert strong_morse_bott(rp2, matching).holds
    assert orbit_inequalities_torsion(rp2, matching).holds
    assert orbit_inequalities_multiplicity(rp2, matching).holds
    assert space_homology(rp2, reduced=True).nontrivial() == {1: (0, (2,))}


def test_euler_characteristics_equal_the_definition_on_cellular_posets():
    """On a cellular poset chi_g, the alternating count of the levels,
    equals chi of the order complex (the check that used to run inside
    `euler_characteristics`, where chi now comes off the cellular complex
    and the equality holds by construction)."""
    posets = [*fixture_posets(), *random_face_posets(1105, 24)]
    for poset in posets:
        assert check_cellularity(poset).is_cellular
        chi_g, chi = euler_characteristics(poset)
        assert chi_g == chi == poset_homology(poset).euler_characteristic()
        assert chi == homology(cellular_chain_complex(poset).complex).euler_characteristic()


def test_euler_characteristics_of_other_posets_read_the_core():
    for poset in random_other_posets(1107):
        chi_g, chi = euler_characteristics(poset)
        assert chi == poset_homology(poset).euler_characteristic()
        assert (chi_g is None) == (not poset.is_graded())
