"""Elements of degree 1 over k > 2 points, whose strict down-set is discrete.

The pass writes their mapping-cone cells directly: x owns (x, 1, j) with
row v_{j+1} - v_0, v_0 < ... < v_{k-1} its lower covers by id, which is
what the reducer leaves of k points, entry order included.  These tests
hold the rows, the report and `space_complex` to the per-down-set
reference and to the order-complex definition, with and without the
deferral of maximal elements and in a walk that stops at its first
failure, and check that no element of degree 1 reaches the assembler, the
reducer or the homology engine."""

import sys
from collections import Counter

from posetmorse import Poset, check_cellularity, poset_homology, space_homology
from posetmorse.cellular import _degree_induction, _walked, is_admissible, space_complex
from posetmorse.randgen import XorShift64Star

from helpers import (
    name_keyed_cellular_complex,
    named_rows,
    order_complex_cellularity,
    plain_rows,
    reference_cellular_pass,
)


def discrete_poset(rng: XorShift64Star) -> Poset:
    """Points; edges over 2 to 8 of them, two points being a 0-sphere;
    2-cells over 2 or 3 edges; and a few 3-cells over 2 of the 2-cells.
    Some elements of each level are left maximal, and the names are
    shuffled, so that their order is not that of the ids."""
    points = [f"p{i}" for i in range(rng.randint(6, 10))]
    edges = [f"e{i}" for i in range(rng.randint(6, 10))]
    faces = [f"f{i}" for i in range(rng.randint(3, 6))]
    tops = [f"t{i}" for i in range(rng.randint(0, 2))]
    covers = [(w, x) for x in edges for w in rng.sample(points, rng.randint(2, 8))]
    covers += [(w, x) for x in faces for w in rng.sample(edges, rng.randint(2, 3))]
    covers += [(w, x) for x in tops for w in rng.sample(faces, 2)]
    rename = dict(zip(points + edges + faces + tops,
                      rng.shuffle(points + edges + faces + tops)))
    elements = rng.shuffle(points + edges + faces + tops)
    return Poset([rename[e] for e in elements], [(rename[w], rename[x]) for w, x in covers])


def discrete_posets():
    rng = XorShift64Star(47)
    for _ in range(25):
        yield discrete_poset(rng)


def _discrete(poset: Poset) -> list[int]:
    """The ids of degree 1 over three points or more."""
    return [x for x, lower in enumerate(poset._lower)
            if poset._height[x] == 1 and len(lower) > 2]


def test_the_family_covers_every_case():
    cases = Counter()
    for poset in discrete_posets():
        report = check_cellularity(poset)
        not_cellular = {poset._id[w[1]] for w in report.witnesses if w[0] == "not-cellular"}
        discrete = set(_discrete(poset))
        for x in discrete:
            cases["k", len(poset._lower[x])] += 1
            cases["maximal" if not poset._upper[x] else "covered"] += 1
        for x, lower in enumerate(poset._lower):
            if poset._height[x] == 2 and discrete.intersection(lower):
                cases["cellular 2-cell" if x not in not_cellular else "non-cellular 2-cell"] += 1
    assert all(cases["k", k] for k in range(3, 9)), cases
    assert min(cases[c] for c in ("maximal", "covered", "cellular 2-cell",
                                  "non-cellular 2-cell")) >= 5, cases


def test_rows_report_and_space_equal_the_reference():
    deferred_discrete = 0
    for poset in discrete_posets():
        expected_report, expected_rows = reference_cellular_pass(poset)
        assert expected_report == order_complex_cellularity(poset)
        discrete = _discrete(poset)
        report, rows, deferred = _degree_induction(poset)
        assert report == expected_report and not deferred
        assert plain_rows(named_rows(poset, rows)) == plain_rows(expected_rows)
        for x in discrete:
            first, *rest = sorted(poset._lower[x])
            assert rows[x] == [(x, 1, j) for j in range(len(rest))]
            assert [list(rows[c].items()) for c in rows[x]] == [[(v, 1), (first, -1)]
                                                                 for v in rest]
        # the deferring pass leaves out the rows of the maximal ones
        report, rows, deferred = _degree_induction(poset, defer=True)
        assert report == expected_report
        assert {x for x in discrete if not poset._upper[x]} <= set(deferred)
        deferred_discrete += sum(x in deferred for x in discrete)
        assert plain_rows(named_rows(poset, rows)) == plain_rows(
            {c: row for c, row in expected_rows.items()
             if poset._id[c if isinstance(c, str) else c[0]] not in deferred})
        # and `space_complex` walks again, building them
        poset.analysis_cache["cellularity"] = report, rows, deferred
        space = space_complex(poset)
        assert plain_rows(named_rows(poset, _walked(poset)[1])) == plain_rows(expected_rows)
        expected = name_keyed_cellular_complex(poset, expected_rows, poset.elements)
        assert (space.ranks, space.labels) == (expected.ranks, expected.labels)
        assert {p: [list(c.items()) for c in cells] for p, cells in space.columns.items()} == {
            p: [list(c.items()) for c in cells] for p, cells in expected.columns.items()}
        assert space_homology(poset) == poset_homology(poset)
    assert deferred_discrete >= 5


def test_the_stopping_walk_ends_after_the_first_discrete_element(monkeypatch):
    cellular = sys.modules["posetmorse.cellular"]
    checked: list[int] = []
    check = cellular._check_rows

    def recording(eps, degrees, members):
        members = list(members)
        checked.extend(members)
        check(eps, degrees, members)

    monkeypatch.setattr(cellular, "_check_rows", recording)
    for poset in discrete_posets():
        checked.clear()
        assert not is_admissible(poset)
        assert "cellularity" not in poset.analysis_cache
        # points and 0-spheres come first and fail nothing: the first failure
        # is the first element over three points, after which the walk ends
        first = _discrete(poset)[0]
        assert checked == [x for x in range(first + 1) if x != first or poset._upper[x]]


def test_no_element_of_degree_1_is_listed_reduced_or_summarised(monkeypatch):
    cellular = sys.modules["posetmorse.cellular"]
    calls: list[tuple[str, tuple]] = []

    def spy(name):
        real = getattr(cellular, name)

        def counted(*args, **kwargs):
            calls.append((name, args))
            return real(*args, **kwargs)

        monkeypatch.setattr(cellular, name, counted)

    for name in ("_cells", "_minimal_reducer", "_homology"):
        spy(name)
    seen = Counter()
    for poset in discrete_posets():
        degrees = poset._height
        for defer in (False, True):
            calls.clear()
            _degree_induction(poset, defer=defer)
            # a down-set of degree 1 holds points only, and every listing
            # above degree 1 holds a cell of degree 1 or more: a lower cover
            # over two points or more, or a cell it owns
            for name, args in calls:
                if name == "_cells":
                    assert any(degrees[e] for e in args[2]), (name, args[2])
                else:
                    assert any(r for p, r in args[0].items() if p > 0), (name, args[0])
                seen[name] += 1
        calls.clear()
        _degree_induction(poset, defer=True, stop=True)
        assert not calls
    assert all(seen[name] for name in ("_cells", "_minimal_reducer", "_homology")), seen
