"""Maximal elements decided by excision, their rows built on demand.

A maximal x that reaches the reduction without a sphere-memo key (over a
non-cellular element, or with an Euler characteristic no sphere has) is
decided without its cells: U_w, w the lower cover with the largest
down-set, has a maximum, so it is a contractible cone (Stong, Trans. AMS
123, 1966), and the exact sequence of the pair gives H~(U.x) = H(U.x, U_w).
No down-set reads x's rows, so a pass that `check_cellularity` starts
leaves them out, and `space_complex`, which needs them, walks again,
building every row directly.  These tests hold the excision to the
order-complex definition, the pass that walked again to one that
`space_complex` starts, and the CLI to one walk per report: no report
takes the order that walks twice.  `test_lean_reducer` holds the second
walk to its check.  `matching` reads only the verdict, from a walk that
stops at its first failure: these tests hold it to the pass's reports
and to the check of the rows it built, and the CLI to the stop."""

import json
from pathlib import Path

import pytest

from posetmorse import Poset, check_cellularity, face_poset, poset_homology, subdivision
from posetmorse.cellular import _cells, _walked, is_admissible, require_admissible, space_complex
from posetmorse.errors import InconsistentIncidence, NotAdmissible
from posetmorse.formats import load_complex, load_poset, poset_text_lines, serialize_matching
from posetmorse.homology import _homology
from posetmorse.randgen import (
    XorShift64Star,
    random_graded_poset,
    random_matching,
    random_simplicial_complex,
)

from helpers import levelled_poset, ungraded_poset, whiskered_disk

DATA = Path(__file__).resolve().parent.parent / "data"


def non_cellular_posets():
    rng = XorShift64Star(2012)
    # levels of 60, about a third of the elements above the bottom over one
    yield "rand-like", levelled_poset(rng, 4, 60)
    for _ in range(6):
        yield "levelled", levelled_poset(rng, 4, 8)
    # `gen --kind poset --seed 2 --size 60`
    yield "gen seed 2", random_graded_poset(XorShift64Star(2), max_elements=60)
    yield "whiskered disk", whiskered_disk()


def test_excision_equals_the_definition():
    checked, spheres = 0, 0
    for name, poset in non_cellular_posets():
        report = check_cellularity(poset)
        assert not report.is_cellular, name
        not_cellular = {w[1] for w in report.witnesses if w[0] == "not-cellular"}
        rows, degrees, down = _walked(poset)[1], poset._height, poset._reach()
        for x, lower in enumerate(poset._lower):
            if poset._upper[x] or len(lower) < 2:
                continue
            element = poset._names[x]
            expected = poset_homology(poset.induced(poset.strictly_below(element)), reduced=True)
            # any lower cover's down-set is a cone; the pass takes the largest
            for w in lower:
                pair = _homology(*_cells(rows, degrees, down[x] - down[w] - {w})[:2])
                assert pair == expected, (name, element, poset._names[w])
                checked += 1
            sphere = expected.nontrivial() == {degrees[x] - 1: (1, ())}
            assert (element not in not_cellular) == sphere, (name, element)
            spheres += sphere
    assert checked >= 250 and spheres >= 1, (checked, spheres)


def test_a_cell_over_a_non_cellular_element_keeps_its_verdict():
    poset = whiskered_disk()
    report = check_cellularity(poset)
    witnesses = (("not-cellular", "t", "strict down-set has trivial"),
                 ("not-admissible", "a<t", "punctured down-set is not acyclic"),
                 ("not-admissible", "t<x", "punctured down-set is not acyclic"))
    assert (report.is_graded, report.is_cellular, report.is_homologically_admissible) == (
        True, False, False)
    assert report.witnesses == witnesses
    with pytest.raises(NotAdmissible) as raised:
        require_admissible(poset)
    assert str(raised.value) == f"poset is not homologically admissible: {witnesses}"
    # x's row waits for `space_complex`, where x is its own 2-cell
    x = poset._id["x"]
    assert x not in _walked(poset)[1]
    space = space_complex(poset)
    assert space.labels == {0: ("a", "b"), 1: ("c", "d"), 2: ("x",)}
    assert space.columns == {1: [{0: 1, 1: -1}, {0: 1, 1: -1}], 2: [{0: -1, 1: 1}]}
    assert _walked(poset)[1][x] == {poset._id["c"]: -1, poset._id["d"]: 1}


def twin_posets():
    """Each poset twice, built the same way: one for each order of calls."""
    def build():
        rng = XorShift64Star(2031)
        for path in sorted(DATA.glob("*.txt")):
            text = path.read_text()
            if "matching" not in path.name:
                yield (load_poset(text)[0] if "poset" in path.name
                       else face_poset(load_complex(text)))
        yield subdivision(subdivision(face_poset(load_complex((DATA / "rp2_6.txt").read_text()))))
        yield from (name_and_poset[1] for name_and_poset in non_cellular_posets())
        for _ in range(20):
            yield random_graded_poset(rng, max_elements=16, max_levels=4)
        for _ in range(5):
            yield face_poset(random_simplicial_complex(rng, max_vertices=7))
            yield ungraded_poset(rng, rng.randint(5, 11))
        yield random_graded_poset(XorShift64Star(5), max_elements=200)

    return zip(build(), build())


def _bits(poset):
    report, rows = _walked(poset)
    space = space_complex(poset)
    plain = {c: list(row.items()) if isinstance(row, dict) else row for c, row in rows.items()}
    columns = {p: [list(column.items()) for column in cells] for p, cells in space.columns.items()}
    return report, plain, space.ranks, columns, space.labels


def _deferred(poset) -> list[int]:
    """The ids whose rows the cached pass has not built yet."""
    return poset.analysis_cache["cellularity"][2]


def test_completion_does_not_depend_on_the_order_of_calls():
    deferred = 0
    for checked_first, fresh in twin_posets():
        report = check_cellularity(checked_first)
        # an ungraded poset's report starts no pass
        deferred += len(_deferred(checked_first)) if checked_first.is_graded() else 0
        space_complex(checked_first)
        assert not _deferred(checked_first)
        # a pass that `space_complex` starts builds every row directly
        space_complex(fresh)
        assert not _deferred(fresh)
        assert check_cellularity(fresh) == report
        assert _bits(checked_first) == _bits(fresh)
    assert deferred >= 100, deferred


def test_every_row_is_checked_once_before_it_is_read(monkeypatch):
    import posetmorse.cellular as cellular

    checked: list[int] = []
    check = cellular._check_rows

    def recording(eps, degrees, members):
        members = list(members)
        checked.extend(members)
        check(eps, degrees, members)

    monkeypatch.setattr(cellular, "_check_rows", recording)
    for name, poset in non_cellular_posets():
        checked.clear()
        check_cellularity(poset)
        deferred = list(_deferred(poset))
        # the walk checks every id but the deferred ones, whose rows it lacks
        assert deferred and sorted(checked) == sorted(set(range(len(poset))) - set(deferred)), name
        assert all(x not in _walked(poset)[1] for x in deferred), name
        checked.clear()
        space_complex(poset)
        # the second walk builds every row and checks each id exactly once
        assert sorted(checked) == list(range(len(poset))), name
        assert not _deferred(poset) and all(x in _walked(poset)[1] for x in deferred), name


def test_the_walk_check_skips_only_the_deferred_rows(monkeypatch):
    import posetmorse.cellular as cellular

    poset = whiskered_disk()
    c, check = poset._id["c"], cellular._check_rows

    def dropping(eps, degrees, members):
        # c is an edge, so the walk built its row: a row lost by mistake
        del eps[c]
        check(eps, degrees, members)

    monkeypatch.setattr(cellular, "_check_rows", dropping)
    with pytest.raises(KeyError):
        check_cellularity(poset)


# every report subcommand, and the options that change what it computes
REPORTS = (["validate"], ["homology"], ["homology", "--reduced"], ["homology", "--via-poset"],
           ["homology", "--coeff", "rat"], ["cellular"], ["cellular", "--coeff", "rat"],
           ["hccat"], ["matching"], ["integrate"], ["sweep"], ["inequalities"],
           ["inequalities", "--coeff", "rat"], ["ls-check"])
MATCHED = {"matching", "integrate", "sweep", "inequalities", "ls-check"}


def test_no_report_walks_a_poset_twice(monkeypatch, tmp_path, capsys):
    import posetmorse.cellular as cellular
    from posetmorse.cli import run

    # a non-cellular poset, whose report defers rows, and an admissible one
    poset, matching = tmp_path / "poset.txt", tmp_path / "matching.txt"
    assert run(["gen", "--kind", "poset", "--seed", "2", "--size", "60"]) == 0
    poset.write_text(capsys.readouterr().out)
    assert run(["gen", "--kind", "matching", "--seed", "3", "--input", str(poset)]) == 0
    matching.write_text(capsys.readouterr().out)
    assert not check_cellularity(load_poset(poset.read_text())[0]).is_cellular
    inputs = ((poset, matching), (DATA / "t3_poset.txt", DATA / "t3_matching_m2.txt"))

    walks, walk = [], cellular._degree_induction

    def counted(*args, **kwargs):
        walks.append(1)
        return walk(*args, **kwargs)

    monkeypatch.setattr(cellular, "_degree_induction", counted)
    runs = 0
    for poset_path, matching_path in inputs:
        for report in REPORTS:
            argv = [*report, "--input", str(poset_path)]
            if report[0] in MATCHED:
                argv += ["--matching", str(matching_path)]
            for fmt in ("table", "doc"):
                walks.clear()
                run([*argv, "--format", fmt])
                capsys.readouterr()
                assert len(walks) <= 1, (argv, fmt, len(walks))
                runs += bool(walks)
    assert runs >= 40, runs


def test_the_verdict_does_not_change_what_the_pass_reports():
    stopped = 0
    for verdict_first, fresh in twin_posets():
        is_admissible(verdict_first)
        stopped += verdict_first.is_graded() and "cellularity" not in verdict_first.analysis_cache
        assert check_cellularity(verdict_first) == check_cellularity(fresh)
        if fresh.is_graded():
            assert _deferred(verdict_first) == _deferred(fresh)
            assert _bits(verdict_first) == _bits(fresh)
    assert stopped >= 10, stopped


def test_matching_stops_at_a_low_element_over_one_point(monkeypatch, tmp_path, capsys):
    import posetmorse.cellular as cellular
    from posetmorse.cli import run

    rng = XorShift64Star(33)
    poset_path, matching_path = tmp_path / "poset.txt", tmp_path / "matching.txt"
    poset_path.write_text("".join(poset_text_lines(levelled_poset(rng, 4, 60))))
    poset = load_poset(poset_path.read_text())[0]
    matching_path.write_text(serialize_matching(random_matching(rng, poset)))
    # the first element of degree 1 covers one point, so the poset is not
    # cellular; its later elements of degree 1 over three points need reductions
    assert len(poset._lower[poset._height.index(1)]) == 1
    assert any(len(poset._lower[x]) == 3 for x, p in enumerate(poset._height) if p == 1)

    def refuse(*args, **kwargs):
        raise RuntimeError("the walk went past its first failure")

    monkeypatch.setattr(cellular, "_minimal_reducer", refuse)
    argv = ["matching", "--input", str(poset_path), "--matching", str(matching_path)]
    assert run([*argv, "--format", "doc"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert "basic_sets" in results and "morse_smale" not in results


def test_a_bad_row_before_the_first_failure_fails_the_verdict(monkeypatch):
    import posetmorse.cellular as cellular

    # a circle of three edges, a whisker t over a alone, which is the first
    # failure, and a disk x over the circle, which the walk never reaches
    poset = Poset(["a", "b", "c", "ab", "bc", "ac", "t", "x"],
                  [("a", "ab"), ("b", "ab"), ("b", "bc"), ("c", "bc"), ("a", "ac"),
                   ("c", "ac"), ("a", "t"), ("ab", "x"), ("bc", "x"), ("ac", "x")])
    edge, x, check = poset._id["ab"], poset._id["x"], cellular._check_rows
    checked: list[int] = []

    def corrupting(eps, degrees, members):
        members = list(members)
        checked.extend(members)
        # both ends of the edge get the same sign: d*d = 0 fails in degree 1
        eps[edge] = dict.fromkeys(eps[edge], 1)
        check(eps, degrees, members)

    monkeypatch.setattr(cellular, "_check_rows", corrupting)
    with pytest.raises(InconsistentIncidence):
        is_admissible(poset)
    assert edge in checked and x not in checked
    assert "cellularity" not in poset.analysis_cache
