"""Beat-point cores, which the random generators use to certify
contractible posets: a core keeps no beat point, a poset with a maximum
reduces to a point, and a circle is its own core.  The cellularity pass
decides non-cellular posets on its chain model alone, with the reports
of the order-complex definition and without listing a single chain."""

import json

from posetmorse import (
    Poset,
    check_cellularity,
    face_poset,
    hccat,
    poset_homology,
    space_homology,
    subdivision,
)
from posetmorse.cli import run
from posetmorse.formats import serialize_poset
from posetmorse.randgen import XorShift64Star, random_graded_poset, random_simplicial_complex

from helpers import levelled_poset, order_complex_cellularity, ungraded_poset


def join_of_levels(widths: list[int]) -> Poset:
    """Levels of the given widths, each element covering the whole level
    below; with a level of 3 points the down-sets above it have cores that
    are no antichain."""
    levels = [[f"l{p}_{i}" for i in range(n)] for p, n in enumerate(widths)]
    return Poset([e for level in levels for e in level],
                 [(w, x) for lo, hi in zip(levels, levels[1:]) for w in lo for x in hi])


def sample_posets(seed: int):
    rng = XorShift64Star(seed)
    yield levelled_poset(rng, 4, 12)
    yield levelled_poset(rng, 4, 20)
    for _ in range(6):
        yield random_graded_poset(rng, max_elements=14, max_levels=4)
    for _ in range(6):
        yield ungraded_poset(rng, rng.randint(5, 10))
    for _ in range(6):
        yield face_poset(random_simplicial_complex(rng, max_vertices=6))
    for _ in range(3):
        yield subdivision(random_graded_poset(rng, max_elements=7, max_levels=3))
    yield join_of_levels([3, 3, 2])


def down_closed_sets(poset: Poset, rng: XorShift64Star):
    """U.x and U.x - {w} for every lower cover w (both down-closed), and
    the down-closure of a random subset."""
    for x in poset.elements:
        below = poset.strictly_below(x)
        yield below
        for w in poset.lower_covers(x):
            yield below - {w}
    yield frozenset(poset.down_closure(e for e in poset.elements if rng.chance(1, 3)))


def beat_points(poset: Poset) -> list[str]:
    """The beat points of the poset, straight from the definition."""
    def has_maximum(part):
        return any(all(y == m or poset.less(y, m) for y in part) for m in part)

    def has_minimum(part):
        return any(all(y == m or poset.less(m, y) for y in part) for m in part)

    return [e for e in poset.elements
            if has_maximum(poset.strictly_below(e)) or has_minimum(poset.strictly_above(e))]


def test_cores_keep_no_beat_point():
    rng = XorShift64Star(5)
    for poset in sample_posets(23):
        for members in down_closed_sets(poset, rng):
            core = poset.induced(members).beat_point_core()
            assert set(core) <= set(members)
            assert beat_points(poset.induced(core)) == []
        assert beat_points(poset.induced(poset.beat_point_core())) == []


def test_poset_with_a_maximum_reduces_to_a_point():
    for poset in sample_posets(29):
        for x in poset.elements:
            assert len(poset.induced(poset.strictly_below(x) | {x}).beat_point_core()) == 1


def test_core_of_a_circle_is_the_circle():
    circle = join_of_levels([2, 2])
    assert circle.beat_point_core() == circle.elements
    assert circle.induced(()).beat_point_core() == ()
    assert space_homology(circle, reduced=True) == poset_homology(circle, reduced=True)


def test_pass_matches_definition_on_large_non_cellular_posets():
    rng = XorShift64Star(4)
    for width in (130, 140):
        poset = levelled_poset(rng, 4, width)
        assert len(poset) >= 500
        report = check_cellularity(poset)
        assert not report.is_cellular
        assert report == order_complex_cellularity(poset)


def test_non_cellular_posets_never_enumerate_the_chains_of_the_poset(monkeypatch, tmp_path,
                                                                     capsys):
    """validate, homology --kind poset and hccat, on non-cellular and
    ungraded posets, with `Poset._chain_cones`, the one chain
    enumerator, raising on every call."""
    rng = XorShift64Star(8)
    spaces = [levelled_poset(rng, 4, 60), levelled_poset(rng, 4, 150),
              join_of_levels([3, 3, 2, 2]), join_of_levels([2, 3, 3]),
              ungraded_poset(rng, 9), ungraded_poset(rng, 12)]
    expected = [(order_complex_cellularity(poset), poset_homology(poset)) for poset in spaces]

    def forbidden(self):
        raise RuntimeError("chains were enumerated")

    monkeypatch.setattr(Poset, "_chain_cones", forbidden)
    for i, (poset, (report, summary)) in enumerate(zip(spaces, expected)):
        assert not report.is_cellular
        assert check_cellularity(poset) == report
        path = tmp_path / f"space{i}.txt"
        path.write_text(serialize_poset(poset))
        results = {}
        for command in ("validate", "homology", "hccat"):
            assert run([command, "--input", str(path), "--kind", "poset", "--format", "doc"]) == 0
            results[command] = json.loads(capsys.readouterr().out)["results"]
        assert results["validate"]["cellularity"] == report.to_doc()
        assert results["homology"]["homology"] == summary.to_doc()
        assert results["hccat"]["hccat"] == hccat(summary)
        assert results["hccat"]["minimal_subcomplex_quasi_isomorphism"] is True
    assert sum(not poset.is_graded() for poset in spaces) == 2
