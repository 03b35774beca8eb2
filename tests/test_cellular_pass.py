"""The cellularity pass by degree induction against the order-complex
definition: equal reports (witnesses and their order included) and equal
incidence numbers (sign gauge included), on the bundled fixtures, on
hand-made cellular posets that are not admissible, and on seeded random
posets of every kind the pass distinguishes."""

from pathlib import Path

import pytest

from posetmorse import (
    Poset,
    SimplicialComplex,
    build_poset,
    cellular_chain_complex,
    check_cellularity,
    face_poset,
    parse_simplicial_complex,
    subdivision,
)
from posetmorse.cellular import _cellular_pass
from posetmorse.formats import load_poset
from posetmorse.randgen import XorShift64Star, random_graded_poset, random_simplicial_complex

from helpers import (
    guard_whole_poset_chains,
    incidence_from_generators,
    maximal_elements,
    order_complex_cellularity,
    reference_cellular_pass,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def _sphere(n: int) -> SimplicialComplex:
    """The boundary of the n-simplex."""
    vertices = [str(i) for i in range(n + 1)]
    return SimplicialComplex([vertices[:i] + vertices[i + 1:] for i in range(n + 1)])


def _agrees(poset: Poset) -> tuple[bool, bool]:
    """Assert the pass equals the definition; return (cellular, admissible)."""
    report = check_cellularity(poset)
    assert report == order_complex_cellularity(poset)
    if report.is_cellular:
        assert cellular_chain_complex(poset).incidence == incidence_from_generators(poset)
    return report.is_cellular, report.is_homologically_admissible


def _capped(poset: Poset, name: str = "cap") -> Poset:
    """The poset with one new element covering every maximal element of
    top degree."""
    top = max(poset.heights().values())
    tops = [e for e in maximal_elements(poset) if poset.heights()[e] == top]
    return build_poset(list(poset.elements) + [name],
                       list(poset.covers) + [(e, name) for e in tops])


def pendant_two_cell() -> Poset:
    """A 2-cell on a circle with a pendant edge: its incidence on the
    pendant edge is 0, so it is cellular but not admissible.  The pendant
    edge and vertex have the smallest names, so a sign gauge that ignored
    the support would pick them."""
    edges = {"e0": ("v0", "v1"), "e1": ("v1", "v2"), "e2": ("v2", "v3"), "e3": ("v1", "v3")}
    covers = [(v, e) for e, pair in edges.items() for v in pair]
    return build_poset(["v0", "v1", "v2", "v3", *edges, "x"],
                       covers + [(e, "x") for e in edges])


def pendant_three_cell() -> Poset:
    """Two copies x, y of the pendant 2-cell and a 3-cell z on both: U.z is
    a 2-sphere with an edge attached, and z's flags avoid the pendant."""
    base = pendant_two_cell()
    extra = [(w, "y") for w in base.lower_covers("x")]
    return build_poset(list(base.elements) + ["y", "z"],
                       list(base.covers) + extra + [("x", "z"), ("y", "z")])


def mobius_with_two_disks() -> Poset:
    """A Moebius band with one disk on its boundary circle and one on its
    core circle, under a 3-cell.  The band's triangles sum to its boundary
    plus twice its core, so the 3-cell's incidence on the core disk is +-2:
    cellular, and not admissible although no incidence is 0."""
    t, m, b = [f"t{i}" for i in range(3)], [f"m{i}" for i in range(3)], [f"b{i}" for i in range(3)]
    top, mid, bot = t + [b[0]], m + [m[0]], b + [t[0]]  # the strip closes with a flip
    triangles = []
    for i in range(3):
        triangles += [[top[i], top[i + 1], mid[i + 1]], [top[i], mid[i], mid[i + 1]],
                      [mid[i], mid[i + 1], bot[i + 1]], [mid[i], bot[i], bot[i + 1]]]
    band = face_poset(SimplicialComplex(triangles))
    boundary = [f"{u}|{v}" for u, v in zip(t, t[1:])] + ["b0|t2", "b0|b1", "b1|b2", "b2|t0"]
    core = ["m0|m1", "m1|m2", "m0|m2"]
    band_top = [e for e in band.elements if e.count("|") == 2]
    covers = list(band.covers) + [(e, "disk") for e in boundary] + [(e, "core") for e in core]
    covers += [(e, "x") for e in band_top + ["disk", "core"]]
    return build_poset(list(band.elements) + ["disk", "core", "x"], covers)


def _random_complex(rng: XorShift64Star, dim: int) -> SimplicialComplex:
    vertices = [str(i) for i in range(rng.randint(dim + 1, dim + 3))]
    return SimplicialComplex([rng.sample(vertices, dim + 1) for _ in range(rng.randint(1, 3))]
                             + [rng.sample(vertices, 2)])


def _unicyclic_graph(rng: XorShift64Star) -> SimplicialComplex:
    """A cycle with pendant trees: with a 2-cell on it, cellular and, once
    a pendant edge exists, not admissible."""
    k = rng.randint(3, 5)
    edges = [[f"c{i}", f"c{(i + 1) % k}"] for i in range(k)]
    vertices = [f"c{i}" for i in range(k)]
    for i in range(rng.randint(1, 3)):
        edges.append([rng.choice(vertices), f"p{i}"])
        vertices.append(f"p{i}")
    return SimplicialComplex(edges)


def _join_of_levels(rng: XorShift64Star) -> Poset:
    """Levels of 2 or 3 points, each covering the whole level below: a
    sphere model where every level has 2 points, otherwise not cellular
    from the first level of 3 on."""
    levels = [[f"l{p}_{i}" for i in range(rng.randint(2, 3))] for p in range(rng.randint(2, 4))]
    covers = [(w, x) for lo, hi in zip(levels, levels[1:]) for w in lo for x in hi]
    return build_poset([e for level in levels for e in level], covers)


def random_posets(seed: int):
    """(kind, poset) pairs: face posets of random complexes of dimension
    up to 3, subdivisions of random graded posets, random graphs with a
    2-cell on them, random graded posets, and joins of small levels."""
    rng = XorShift64Star(seed)
    for _ in range(100):
        yield "face", face_poset(random_simplicial_complex(rng, max_vertices=7))
    for _ in range(40):
        yield "face", face_poset(_random_complex(rng, rng.randint(2, 3)))
    for _ in range(50):
        yield "subdivision", subdivision(random_graded_poset(rng, max_elements=7, max_levels=3))
    for _ in range(60):
        graph = random_simplicial_complex(rng, max_vertices=5, max_triangles=0,
                                          max_extra_edges=6)
        yield "capped graph", _capped(face_poset(graph))
    for _ in range(30):
        yield "capped graph", _capped(face_poset(_unicyclic_graph(rng)))
    for _ in range(30):
        yield "capped surface", _capped(face_poset(random_simplicial_complex(rng, 5, 6, 2)))
    for _ in range(80):
        yield "graded", random_graded_poset(rng, max_elements=14, max_levels=4)
    for _ in range(30):
        yield "join", _join_of_levels(rng)


FIXTURES = ["rp2_6.txt", "mobius_5.txt"]


@pytest.mark.parametrize("name", FIXTURES + ["t3_poset.txt"])
def test_pass_matches_definition_on_fixtures(name):
    text = (DATA / name).read_text()
    poset = (load_poset(text)[0] if name.endswith("poset.txt")
             else face_poset(parse_simplicial_complex(text)))
    assert _agrees(poset) == (True, True)


def test_pass_matches_definition_on_spheres():
    for n in range(1, 5):
        assert _agrees(face_poset(_sphere(n))) == (True, True)


@pytest.mark.parametrize("make", [pendant_two_cell, pendant_three_cell, mobius_with_two_disks])
def test_pass_matches_definition_on_cellular_non_admissible(make):
    assert _agrees(make()) == (True, False)


def _relabelled(poset: Poset, order: str) -> Poset:
    """The poset under new names whose sorted order is not the order of
    its ids: the reverse of it, or a seeded shuffle of it."""
    ids = poset.height_order()
    places = list(range(len(poset)))[::-1]
    if order == "shuffled":
        places = XorShift64Star(1966).shuffle(places)
    new = {e: f"n{places[ids[e]]:05d}" for e in poset.elements}
    return Poset([new[e] for e in poset.elements], [(new[w], new[x]) for w, x in poset.covers])


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
@pytest.mark.parametrize("make", [
    lambda: subdivision(subdivision(face_poset(parse_simplicial_complex(
        (DATA / "rp2_6.txt").read_text())))),
    lambda: face_poset(_sphere(4)),
    pendant_three_cell,
    mobius_with_two_disks,
], ids=["sd2 RP^2", "boundary of the 4-simplex", "pendant 3-cell", "two disks"])
def test_gauges_read_names_not_ids(make, order):
    # the pass walks ids but gauges by names: with names sorted against the
    # ids, both gauges must still pick the definition's signs
    poset = _relabelled(make(), order)
    ids = poset.height_order()
    assert [ids[e] for e in sorted(poset.elements)] != sorted(ids.values())
    report, rows = reference_cellular_pass(poset)
    assert check_cellularity(poset) == report
    assert _cellular_pass(poset)[1] == rows
    assert cellular_chain_complex(poset).incidence == incidence_from_generators(poset)


def test_pendant_incidence_is_zero():
    cell = cellular_chain_complex(pendant_two_cell())
    assert cell.epsilon("x", "e0") == 0
    assert {abs(cell.epsilon("x", e)) for e in ("e1", "e2", "e3")} == {1}
    witnesses = check_cellularity(pendant_two_cell()).witnesses
    assert witnesses == (("not-admissible", "e0<x", "punctured down-set is not acyclic"),)


def test_core_disk_incidence_is_two():
    poset = mobius_with_two_disks()
    assert abs(cellular_chain_complex(poset).epsilon("x", "core")) == 2
    assert [w for _, w, _ in check_cellularity(poset).witnesses] == ["core<x"]


def test_pass_matches_definition_on_random_posets():
    kinds: dict[tuple[str, bool, bool], int] = {}
    fallback = inductive_non_cellular = 0
    for kind, poset in random_posets(2024):
        verdict = _agrees(poset)
        kinds[(kind, *verdict)] = kinds.get((kind, *verdict), 0) + 1
        report = check_cellularity(poset)
        bad = {w[1] for w in report.witnesses if w[0] == "not-cellular"}
        for x in poset.elements:
            below = poset.strictly_below(x)
            if below & bad:
                fallback += 1
            elif x in bad:
                inductive_non_cellular += 1
    assert sum(kinds.values()) >= 300
    admissible = sum(n for (kind, cellular, adm), n in kinds.items() if adm)
    non_admissible_cellular = sum(n for (kind, cellular, adm), n in kinds.items()
                                  if cellular and not adm)
    non_cellular = sum(n for (kind, cellular, adm), n in kinds.items() if not cellular)
    assert admissible >= 150 and non_admissible_cellular >= 30 and non_cellular >= 80, kinds
    # both ways of deciding a non-cellular element are exercised
    assert fallback >= 100 and inductive_non_cellular >= 100
    # admissible posets of degree >= 2 that are not simplicial face posets
    assert kinds.get(("join", True, True), 0) >= 3


def test_cellular_inputs_never_enumerate_chains(monkeypatch):
    import sys

    def forbidden(*args, **kwargs):
        raise RuntimeError("the order-complex path was taken")

    guard_whole_poset_chains(monkeypatch)
    cellular, homology, snf = (sys.modules[f"posetmorse.{m}"]
                               for m in ("cellular", "homology", "snf"))
    for module in (cellular, homology):
        monkeypatch.setattr(module, "subposet_chain_complex", forbidden)
    monkeypatch.setattr(cellular, "sphere_generator", forbidden)
    for module in (snf, homology):
        monkeypatch.setattr(module, "smith_normal_form", forbidden)
    spaces = [face_poset(_sphere(n)) for n in range(2, 7)]
    spaces += [face_poset(parse_simplicial_complex((DATA / n).read_text())) for n in FIXTURES]
    spaces += [pendant_three_cell(), mobius_with_two_disks()]
    for poset in spaces:
        assert check_cellularity(poset).is_cellular
        assert cellular_chain_complex(poset).incidence
