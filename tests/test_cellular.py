import json
from pathlib import Path

import pytest

from posetmorse import (
    ChainComplex,
    build_poset,
    cellular_chain_complex,
    check_cellularity,
    face_poset,
    homology,
    poset_homology,
    simplicial_chain_complex,
    sphere_generator,
    verify_cellular_agreement,
)
from posetmorse.cellular import _walked, require_admissible, require_cellular, space_complex
from posetmorse.cli import run
from posetmorse.errors import (NonUnitIncidenceOnAdmissible, NotACover, NotAdmissible,
                               NotCellular, PosetMorseError, UnknownElement)
from posetmorse.formats import load_complex, load_poset, serialize_poset
from posetmorse.randgen import XorShift64Star, random_graded_poset, random_simplicial_complex

from helpers import gauge_flip, invariant_factors, simplicial_incidence

DATA = Path(__file__).resolve().parent.parent / "data"


def test_t3_report(t3):
    report = check_cellularity(t3)
    assert report.is_graded and report.is_cellular and report.is_homologically_admissible
    assert report.witnesses == ()


def test_rp2_report(rp2_poset):
    report = check_cellularity(rp2_poset)
    assert report.is_cellular and report.is_homologically_admissible


def test_non_unit_incidence_on_an_admissible_poset_raises(rp2):
    """The safety check of `cellular_chain_complex`: an incidence number
    other than +-1 on an admissible poset, here planted in a cached row
    of the pass, raises before any complex is built."""
    poset = face_poset(rp2)
    assert check_cellularity(poset).is_homologically_admissible
    rows = _walked(poset)[1]
    row = next(row for row in rows.values() if row)
    row[next(iter(row))] = 2
    with pytest.raises(NonUnitIncidenceOnAdmissible, match="non-unit incidence") as raised:
        cellular_chain_complex(poset)
    assert isinstance(raised.value, PosetMorseError)
    assert "space_complex" not in poset.analysis_cache


def test_diamond_poset_cellular():
    # two bottoms under two tops: every strict down-set is a 0-sphere
    p = build_poset(["a", "b", "c", "d"],
                    [("a", "c"), ("b", "c"), ("a", "d"), ("b", "d")])
    report = check_cellularity(p)
    assert report.is_cellular and report.is_homologically_admissible
    # it is a finite model of the circle
    assert poset_homology(p).betti == {0: 1, 1: 1}
    assert verify_cellular_agreement(p)


def test_chain_not_cellular():
    chain = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    report = check_cellularity(chain)
    assert report.is_graded
    assert not report.is_cellular
    assert not report.is_homologically_admissible  # punctured down-set is empty
    assert any(kind == "not-cellular" for kind, _, _ in report.witnesses)
    with pytest.raises(NotCellular):
        require_cellular(chain)
    with pytest.raises(NotAdmissible):
        require_admissible(chain)


def test_admissible_implies_cellular_on_random_fixtures():
    rng = XorShift64Star(31)
    for _ in range(15):
        poset = face_poset(random_simplicial_complex(rng, max_vertices=5))
        report = check_cellularity(poset)
        assert report.is_homologically_admissible
        assert report.is_cellular


def test_non_graded_report_stops():
    p = build_poset(["a", "b", "c", "d"], [("a", "b"), ("b", "d"), ("c", "d")])
    report = check_cellularity(p)
    assert not report.is_graded
    assert not report.is_cellular and not report.is_homologically_admissible


def test_sphere_generator_edge(t3):
    gen = sphere_generator(t3, "e12")
    assert gen.cycle == {("v1",): 1, ("v2",): -1}


def test_sphere_generator_degree_zero_rejected(t3):
    with pytest.raises(NotCellular):
        sphere_generator(t3, "v1")


def test_sphere_generator_triangle(rp2_poset):
    gen = sphere_generator(rp2_poset, "1|2|5")
    # a 1-cycle on the hexagonal circle of chains below the triangle
    assert all(len(simplex) == 2 for simplex in gen.cycle)
    assert len(gen.cycle) == 6
    assert all(coeff in (1, -1) for coeff in gen.cycle.values())
    first = sorted(gen.cycle)[0]
    assert gen.cycle[first] > 0  # canonical sign


def test_s0_generator_shape_everywhere(rp2_poset):
    for x in rp2_poset.level(1):
        gen = sphere_generator(rp2_poset, x)
        values = sorted(gen.cycle.values())
        assert values == [-1, 1]


def test_t3_incidence(t3):
    cell = cellular_chain_complex(t3)
    assert cell.incidence == {
        ("e12", "v1"): 1, ("e12", "v2"): -1,
        ("e13", "v1"): 1, ("e13", "v3"): -1,
        ("e23", "v2"): 1, ("e23", "v3"): -1,
    }
    assert homology(cell.complex).betti == {0: 1, 1: 1}


def test_tetra_cellular_homology(tetra_boundary):
    poset = face_poset(tetra_boundary)
    cell = cellular_chain_complex(poset)
    summary = homology(cell.complex)
    assert (summary.b(0), summary.b(1), summary.b(2)) == (1, 0, 1)
    assert verify_cellular_agreement(poset)


def test_rp2_cellular_torsion(rp2_poset):
    cell = cellular_chain_complex(rp2_poset)
    summary = homology(cell.complex)
    assert summary.t(1) == (2,)
    assert verify_cellular_agreement(rp2_poset)


def test_rp2_cellular_differential_single_even_factor(rp2_poset):
    # the degree-2 cellular differential carries exactly one invariant
    # factor equal to 2: the source of the Z/2 in degree 1
    from posetmorse.snf import smith_normal_form
    cell = cellular_chain_complex(rp2_poset)
    factors = invariant_factors(smith_normal_form(cell.complex.boundary[2]))
    assert [f for f in factors if f > 1] == [2]


def test_incidence_units_on_admissible(rp2_poset, t3):
    for poset in (rp2_poset, t3):
        cell = cellular_chain_complex(poset)
        assert all(eps in (1, -1) for eps in cell.incidence.values())


def test_diamond_identity(tetra_boundary, rp2_poset):
    for poset in (face_poset(tetra_boundary), rp2_poset):
        cell = cellular_chain_complex(poset)
        for x in poset.elements:
            if poset.degree(x) < 2:
                continue
            for w in poset.elements:
                if poset.degree(w) != poset.degree(x) - 2 or not poset.less(w, x):
                    continue
                between = [z for z in poset.elements
                           if poset.less(w, z) and poset.less(z, x)]
                assert len(between) == 2  # face posets are diamonds
                total = sum(cell.epsilon(x, z) * cell.epsilon(z, w) for z in between)
                assert total == 0


def test_gauge_flip_preserves_homology(rp2_poset):
    rng = XorShift64Star(77)
    cell = cellular_chain_complex(rp2_poset)
    base = homology(cell.complex)
    for _ in range(5):
        signs = {e: -1 for e in rp2_poset.elements if rng.chance(1, 2)}
        flipped = gauge_flip(cell, signs)
        assert homology(flipped.complex) == base
        for (x, w), eps in flipped.incidence.items():
            assert eps == signs.get(x, 1) * cell.epsilon(x, w) * signs.get(w, 1)


def test_single_gauge_flip_flips_row_and_column(t3):
    cell = cellular_chain_complex(t3)
    flipped = gauge_flip(cell, {"e12": -1})
    for (x, w), eps in cell.incidence.items():
        expected = -eps if x == "e12" or w == "e12" else eps
        assert flipped.incidence[(x, w)] == expected


def test_fast_path_matches_general_method(rp2, tetra_boundary, triangle_boundary):
    """The generator incidences of a face poset agree, up to one gauge,
    with the simplicial signs (-1)^i of the sorted-vertex orientation."""
    for complex in (triangle_boundary, tetra_boundary, rp2):
        poset = face_poset(complex)
        general = cellular_chain_complex(poset)
        fast = simplicial_incidence(complex)
        assert set(fast) == set(general.incidence)
        for key in fast:
            assert abs(fast[key]) == abs(general.incidence[key])
        # the two sign systems differ by one gauge: eps_f/eps_g = s_x * s_w
        # must admit a consistent assignment, found by propagation
        signs: dict[str, int] = {}
        for e in poset.level(0):
            signs[e] = 1
        for p in range(1, poset.max_degree() + 1):
            for x in poset.level(p):
                w = poset.lower_covers(x)[0]
                ratio = fast[(x, w)] * general.incidence[(x, w)]
                signs[x] = ratio * signs[w]
        for (x, w), eps in fast.items():
            assert eps == signs[x] * general.incidence[(x, w)] * signs[w]
        flipped = gauge_flip(general, signs)
        assert flipped.incidence == fast
        assert homology(flipped.complex) == homology(simplicial_chain_complex(complex))


def test_cellular_agreement_random_face_posets():
    rng = XorShift64Star(4242)
    done = 0
    while done < 15:
        complex = random_simplicial_complex(rng, max_vertices=6, max_triangles=4)
        poset = face_poset(complex)
        assert verify_cellular_agreement(poset)
        done += 1


def test_printed_incidence_rebuilds_the_space_complex(tmp_path, capsys, monkeypatch):
    """`cellular --format doc` prints no boundary matrices and never reads
    the dense view; its (x, w, eps) triples, placed by the labels of
    `space_complex`, rebuild every boundary column of it, on random face
    posets and cellular random posets."""
    rng = XorShift64Star(2030)
    cases = []
    for _ in range(12):
        complex = random_simplicial_complex(rng, max_vertices=6, max_triangles=5)
        cases.append(("simplicial", "".join(" ".join(s) + "\n"
                                            for sims in complex.simplices.values() for s in sims)))
    while len(cases) < 24:
        poset = random_graded_poset(rng, max_elements=14, max_levels=4)
        if check_cellularity(poset).is_cellular:
            cases.append(("poset", serialize_poset(poset)))
    degrees = set()
    for i, (kind, text) in enumerate(cases):
        path = tmp_path / f"space{i}.txt"
        path.write_text(text)
        with monkeypatch.context() as patch:
            patch.setattr(ChainComplex, "boundary",
                          property(lambda self: pytest.fail("the dense view was read")))
            assert run(["cellular", "--input", str(path), "--kind", kind, "--format", "doc"]) == 0
        printed = json.loads(capsys.readouterr().out)["results"]
        assert "boundaries" not in printed
        poset = face_poset(load_complex(text)) if kind == "simplicial" else load_poset(text)[0]
        space = space_complex(poset)
        at = {p: {x: i for i, x in enumerate(cells)} for p, cells in space.labels.items()}
        rebuilt = {p: [{} for _ in space.labels[p]] for p in space.columns}
        for x, w, e in printed["incidence"]:
            p = poset.degree(x)
            if e:
                rebuilt[p][at[p][x]][at[p - 1][w]] = e
            degrees.add(p)
        assert rebuilt == space.columns, text
    assert degrees == {1, 2}


def test_the_complex_keeps_the_one_copy_of_the_pass_rows(t3):
    """`CellularComplexOfPoset.rows` is the pass's rows object, which
    `gauge_flip` leaves alone, and `epsilon` names it: it agrees with
    `incidence` on every cover, raises NotACover on any other pair and
    UnknownElement on a name outside the poset."""
    rng = XorShift64Star(515)
    rp2_6 = face_poset(load_complex((DATA / "rp2_6.txt").read_text()))
    drawn = face_poset(random_simplicial_complex(rng, max_vertices=6, max_triangles=5))
    for poset in (t3, rp2_6, drawn):
        cell = cellular_chain_complex(poset)
        assert cell.rows is _walked(poset)[1]
        rows, incidence = {x: dict(row) for x, row in cell.rows.items()}, cell.incidence
        signs = {e: -1 for e in poset.elements if rng.chance(1, 2)}
        flipped = gauge_flip(cell, signs)
        assert flipped.incidence == {(x, w): signs.get(x, 1) * e * signs.get(w, 1)
                                     for (x, w), e in incidence.items()}
        assert cell.rows == rows and cell.incidence == incidence
        assert set(incidence) == {(x, w) for w, x in poset.covers}
        for x, w in incidence:
            assert cell.epsilon(x, w) == incidence[(x, w)]
        top = poset.level(poset.max_degree())[0]
        for w in poset.elements:
            if w not in poset.lower_covers(top):
                with pytest.raises(NotACover):
                    cell.epsilon(top, w)
        for x, w in ((top, "zz"), ("zz", top)):
            with pytest.raises(UnknownElement):
                cell.epsilon(x, w)


def test_epsilon_names_an_unknown_element_or_a_non_cover():
    cell = cellular_chain_complex(face_poset(load_complex((DATA / "rp2_6.txt").read_text())))
    with pytest.raises(UnknownElement, match="'zz'"):
        cell.epsilon("zz", "1")
    with pytest.raises(NotACover, match=r"\(3, 1\|2\)"):
        cell.epsilon("1|2", "3")
    # a vertex has no lower covers, and a triangle's are its edges alone
    with pytest.raises(NotACover):
        cell.epsilon("1", "2")
    with pytest.raises(NotACover):
        cell.epsilon("1|2|5", "1")
    assert abs(cell.epsilon("1|2", "1")) == 1
