"""The filtration sweep walks the filtration once; these tests hold it to
the sweep made one interval at a time (`helpers.per_interval_sweep`):
the same reports, verdict, error type and error message, on the bundled
fixtures and on seeded matchings of admissible posets, with integrated
functions, random Fraction-valued functions and functions where two
basic sets share a value."""

from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from posetmorse import (
    MorseBottFunction,
    Poset,
    face_poset,
    filtration_sweep,
    integrate_matching,
    parse_simplicial_complex,
    subdivision,
)
from posetmorse.errors import PosetMorseError, WrongCriticalCount
from posetmorse.formats import load_poset, parse_matching_text
from posetmorse.randgen import (
    XorShift64Star,
    random_graded_poset,
    random_matching,
    random_simplicial_complex,
)

from helpers import per_interval_sweep

DATA = Path(__file__).resolve().parent.parent / "data"
FIXTURES = [
    ("t3_poset.txt", "poset", ["t3_matching_m1.txt", "t3_matching_m2.txt"]),
    ("mobius_5.txt", "simplicial", ["mobius_ring_matching.txt"]),
    ("rp2_6.txt", "simplicial", ["rp2_star5_matching.txt"]),
    ("boundary_6simplex.txt", "simplicial", ["boundary_6simplex_cone_matching.txt"]),
]


def _fixture_runs():
    for name, kind, matchings in FIXTURES:
        text = (DATA / name).read_text()
        if kind == "simplicial":
            poset = face_poset(parse_simplicial_complex(text))
        else:
            poset = load_poset(text)[0]
        for matching in matchings:
            yield poset, parse_matching_text(poset, (DATA / matching).read_text())


def _admissible_posets(seed: int):
    """Seeded admissible posets: face posets of random complexes and
    subdivisions of random graded posets."""
    rng = XorShift64Star(seed)
    for _ in range(150):
        yield rng, face_poset(random_simplicial_complex(rng, max_vertices=6))
    for _ in range(60):
        yield rng, subdivision(random_graded_poset(rng, max_elements=6, max_levels=3))


def _functions(rng: XorShift64Star, poset: Poset, matching):
    """The integrated function, random thirds-valued functions with
    distinct values and with few values, and, when the matching has two
    basic sets, the integrated function with one moved onto the other's
    value."""
    integrated = integrate_matching(poset, matching)
    yield integrated
    levels = rng.shuffle(list(range(len(poset))))
    yield MorseBottFunction(poset, {e: Fraction(k, 3) for e, k in zip(poset.elements, levels)},
                            matching)
    yield MorseBottFunction(poset, {e: Fraction(rng.randint(0, 9), 3) for e in poset.elements},
                            matching)
    classes = integrated.decomposition().classes
    if len(classes) >= 2:
        first, second = rng.sample(classes, 2)
        values = dict(integrated.values)
        values.update((e, integrated.values[second[0]]) for e in first)
        yield MorseBottFunction(poset, values, matching)


def _outcome(sweep, poset: Poset, function: MorseBottFunction):
    try:
        return sweep(poset, function)
    except PosetMorseError as exc:
        return type(exc), str(exc)


def _compare(poset: Poset, function: MorseBottFunction) -> str:
    """Assert that both sweeps agree; return "ok", "failed" or the error."""
    got = _outcome(filtration_sweep, poset, function)
    assert got == _outcome(per_interval_sweep, poset, function)
    if isinstance(got[0], type):
        return got[0].__name__
    return "ok" if got[1] else "failed"


def test_walk_matches_per_interval_sweep_on_fixtures():
    rng = XorShift64Star(1501)
    seen = set()
    for poset, matching in _fixture_runs():
        for function in _functions(rng, poset, matching):
            seen.add(_compare(poset, function))
        assert filtration_sweep(poset, integrate_matching(poset, matching))[1]
    assert {"ok", "failed", "WrongCriticalCount"} <= seen, seen


def test_walk_matches_per_interval_sweep_on_seeded_matchings():
    counts: dict[str, int] = {}
    matchings = 0
    for rng, poset in _admissible_posets(1502):
        matching = random_matching(rng, poset)
        matchings += 1
        for i, function in enumerate(_functions(rng, poset, matching)):
            verdict = _compare(poset, function)
            if i == 0:
                assert verdict == "ok"
            counts[verdict] = counts.get(verdict, 0) + 1
    assert matchings >= 200
    assert counts["ok"] >= 250 and counts["failed"] >= 200, counts
    assert counts["WrongCriticalCount"] >= 200, counts


def test_shared_critical_value_raises_before_any_collapse_check(t3, t3_m1, monkeypatch):
    f = integrate_matching(t3, t3_m1)
    values = dict(f.values, v3=f.values["e13"])

    def forbidden(*args, **kwargs):
        raise RuntimeError("a collapse check ran")

    monkeypatch.setattr("posetmorse.morse._pair_homology", forbidden)
    with pytest.raises(WrongCriticalCount, match="critical value 6 is shared by 2 basic sets"):
        filtration_sweep(t3, MorseBottFunction(t3, values, t3_m1))


def test_int_valued_functions_get_exact_cut_points(t3, t3_m1):
    f = integrate_matching(t3, t3_m1)
    ints = MorseBottFunction(t3, {e: int(v) for e, v in f.values.items()}, t3_m1)
    reports, ok = filtration_sweep(t3, ints)
    assert ok and (reports, ok) == filtration_sweep(t3, f)
    assert all(type(end) is Fraction for r in reports for end in r.interval)
    assert [r.to_doc()["interval"] for r in reports] == [
        ["0", "3/2"], ["11/2", "7"], ["0", "0"], ["3/2", "11/2"], ["7", "7"]]


def test_each_element_reaches_one_collapse_check_or_one_attachment(monkeypatch):
    """The cells handed to the collapse checks add up to |P| less the
    attached classes: a gap's check reads only the elements it added."""
    import sys

    morse = sys.modules["posetmorse.morse"]
    pair_homology, handed = morse._pair_homology, []

    def counted(poset, cells, *args):
        cells = list(cells)
        handed.append([poset._names[x] for x in cells])
        return pair_homology(poset, cells, *args)

    monkeypatch.setattr(morse, "_pair_homology", counted)
    rp2 = face_poset(parse_simplicial_complex((DATA / "rp2_6.txt").read_text()))
    sd2 = subdivision(subdivision(rp2))
    runs = [*_fixture_runs(), (sd2, random_matching(XorShift64Star(3), sd2))]
    orbits = 0
    for poset, matching in runs:
        handed.clear()
        reports, ok = filtration_sweep(poset, integrate_matching(poset, matching))
        attached = [e for r in reports for e in r.class_elements]
        orbits += sum(len(r.class_elements) > 1 for r in reports)
        assert ok
        assert sum(map(len, handed)) == len(poset) - len(attached)
        assert Counter(e for cells in handed for e in cells) + Counter(attached) == Counter(
            poset.elements)
    assert orbits >= 2


def test_walk_makes_no_per_interval_call(monkeypatch):
    def forbidden(*args, **kwargs):
        raise RuntimeError("the sweep went through a per-interval route")

    for name in ("sublevel", "verify_attachment", "verify_collapse"):
        monkeypatch.setattr(f"posetmorse.morse.{name}", forbidden)
    monkeypatch.setattr(MorseBottFunction, "critical_values", forbidden)
    for poset, matching in _fixture_runs():
        assert filtration_sweep(poset, integrate_matching(poset, matching))[1]


def test_walk_runs_on_ids(monkeypatch):
    """The sublevel sets grow from the poset's down-sets of ids, and the
    attachment boundaries come off its id covers: the walk asks the poset
    for no down-closure and no lower covers by name."""
    def forbidden(*args, **kwargs):
        raise RuntimeError("the sweep went through a name route")

    for name in ("down_closure", "lower_covers"):
        monkeypatch.setattr(Poset, name, forbidden)
    for poset, matching in _fixture_runs():
        assert filtration_sweep(poset, integrate_matching(poset, matching))[1]
