"""The reducer builds inclusions only for the cells that survive, and the
cellularity pass reduces each strict down-set straight from its rows,
lists the cells only of the down-sets it reduces, and checks d*d once, on
the rows of the whole reduced complex.

Both are checked bit for bit, dict order included, against the forms
they replace, kept in `helpers`: `EagerReducer`, which updates every
cell's inclusion on every elimination, and `reference_cellular_pass`,
which builds, checks and reduces a chain complex per strict down-set.
Pivots follow the order of the columns' entries, so equal order is what
keeps the mapping-cone cells of non-cellular posets the same.  A pass
that defers the rows of maximal elements is held to the same reference
on the rows it built, and on every row once `space_complex` has walked
again."""

import sys
from bisect import bisect_left
from collections import Counter
from pathlib import Path

import pytest

from posetmorse import (
    ChainComplex,
    Poset,
    cellular_chain_complex,
    check_cellularity,
    face_poset,
    simplicial_chain_complex,
    space_homology,
    subdivision,
)
from posetmorse.cellular import (
    _cells,
    _check_rows,
    _degree_induction,
    _sphere_key,
    _walked,
    space_complex,
)
from posetmorse.dynamics import is_morse_matching
from posetmorse.errors import InconsistentIncidence, NotAChainComplex
from posetmorse.formats import load_complex, load_poset
from posetmorse.homology import _Reducer, minimal_model, morse_reduction
from posetmorse.randgen import (
    XorShift64Star,
    random_graded_poset,
    random_matching,
    random_simplicial_complex,
)
from posetmorse.simplicial import SimplicialComplex

from helpers import (
    eager_minimal_model,
    eager_morse_reduction,
    levelled_poset,
    named_rows,
    reference_cellular_pass,
    scrambled_complex,
    sphere_memo_pairs,
    tracked_smith_blocks,
    ungraded_poset,
    whiskered_disk,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def _bits(reduction):
    """A reduction as plain data, every dict as its list of items."""
    complex = reduction.complex
    return (complex.ranks,
            {p: [list(col.items()) for col in cols] for p, cols in complex.columns.items()},
            {p: [list(chain.items()) for chain in chains]
             for p, chains in reduction.inclusion.items()})


def _is_chain_map(reduction, chain: ChainComplex) -> bool:
    """d g = g d_M on every cell of the reduced complex."""
    model, g = reduction.complex, reduction.inclusion
    for k, chains in g.items():
        for j, cell in enumerate(chains):
            left: dict[int, int] = {}
            for i, v in cell.items():
                for r, w in chain.columns.get(k, [{}] * chain.rank(k))[i].items():
                    left[r] = left.get(r, 0) + v * w
            right: dict[int, int] = {}
            for t, v in model.columns.get(k, [{}] * model.rank(k))[j].items():
                for r, w in g[k - 1][t].items():
                    right[r] = right.get(r, 0) + v * w
            if {r: v for r, v in left.items() if v} != {r: v for r, v in right.items() if v}:
                return False
    return True


def _complexes(rng: XorShift64Star):
    for _ in range(30):
        complex = random_simplicial_complex(rng, max_vertices=7, max_triangles=6)
        yield simplicial_chain_complex(complex)
        yield simplicial_chain_complex(complex, reduced=True)
    for _ in range(20):
        poset = random_graded_poset(rng, max_elements=14, max_levels=4)
        yield space_complex(poset)


def test_lazy_inclusions_equal_eager_tracking_without_pairs():
    for chain in _complexes(XorShift64Star(2014)):
        reduction = morse_reduction(chain)
        assert _bits(reduction) == _bits(eager_morse_reduction(chain))
        assert _is_chain_map(reduction, chain)


def test_lazy_inclusions_equal_eager_tracking_along_matchings():
    rng = XorShift64Star(1998)
    checked = 0
    while checked < 25:
        poset = face_poset(random_simplicial_complex(rng, max_vertices=7))
        matching = random_matching(rng, poset, 2, 3)
        if not is_morse_matching(poset, matching):
            continue
        position = {e: poset.level(poset.degree(e)).index(e) for e in poset.elements}
        pairs: dict[int, list[tuple[int, int]]] = {}
        up = dict(matching.pairs)
        for x in poset.elements:
            y = up.get(x)
            if y is not None:
                pairs.setdefault(poset.degree(y), []).append((position[x], position[y]))
        chain = cellular_chain_complex(poset).complex
        reduction = morse_reduction(chain, pairs)
        assert _bits(reduction) == _bits(eager_morse_reduction(chain, pairs))
        assert _is_chain_map(reduction, chain)
        checked += 1


def test_lazy_inclusions_equal_eager_tracking_through_the_smith_step(monkeypatch):
    blocks = tracked_smith_blocks(monkeypatch)
    rng = XorShift64Star(2006)
    for _ in range(300):
        chain, _, _ = scrambled_complex(rng)
        model = minimal_model(chain)
        assert _bits(model) == _bits(eager_minimal_model(chain))
    # the Smith steps whose block has a unit factor
    assert sum(1 in diagonal for _, _, diagonal in blocks) >= 100


def test_lazy_inclusions_where_most_cells_survive():
    # a dense graded poset of height 1: its 1-cells are mostly cycles
    poset = random_graded_poset(XorShift64Star(6), max_elements=200, max_levels=2)
    chain = space_complex(poset)
    model = minimal_model(chain)
    assert sum(model.complex.ranks.values()) * 2 > sum(chain.ranks.values())
    assert _bits(model) == _bits(eager_minimal_model(chain))
    assert _is_chain_map(model, chain)


def test_reducer_keeps_no_inclusion_per_cell():
    chain = simplicial_chain_complex(SimplicialComplex([("a", "b", "c"), ("c", "d")]))
    reducer = _Reducer(chain.ranks, chain.columns)
    for p in sorted(chain.columns, reverse=True):
        reducer.reach(p)
        reducer.reduce(p)
    assert not hasattr(reducer, "g")
    # a survivor with no edge is its own cell
    (survivor,) = reducer.survivors()[0]
    assert reducer.inclusions(0, [survivor]) == [{survivor: 1}]


def sphere(n: int) -> SimplicialComplex:
    """The boundary of the n-simplex."""
    vertices = [str(i) for i in range(n + 1)]
    return SimplicialComplex([vertices[:i] + vertices[i + 1:] for i in range(n + 1)])


def sd2_rp2() -> Poset:
    return subdivision(subdivision(face_poset(load_complex((DATA / "rp2_6.txt").read_text()))))


def fixtures():
    for path in sorted(DATA.glob("*.txt")):
        text = path.read_text()
        if "matching" in path.name:
            continue
        yield path.name, (load_poset(text)[0] if "poset" in path.name
                          else face_poset(load_complex(text)))


def relabelled(rng: XorShift64Star, poset: Poset) -> Poset:
    """The poset with its names shuffled: the gauges compare names, so the
    signs of equal-shaped down-sets' rows then differ in local indices."""
    rename = dict(zip(poset.elements, rng.shuffle(list(poset.elements))))
    return Poset([rename[e] for e in poset.elements],
                 [(rename[w], rename[x]) for w, x in poset.covers])


def sample_posets():
    yield from fixtures()
    yield "sd2 RP^2", sd2_rp2()
    yield "boundary of the 5-simplex", face_poset(sphere(5))
    yield "relabelled sd2 RP^2", relabelled(XorShift64Star(2013), sd2_rp2())
    yield "relabelled boundary of the 5-simplex", relabelled(XorShift64Star(2014),
                                                             face_poset(sphere(5)))
    rng = XorShift64Star(2012)
    # levels of 60, each element covering 1 to 3 one level down: about a
    # third of the elements above the bottom cover only one
    yield "rand-like", levelled_poset(rng, 4, 60)
    kinds = {"cellular": 0, "non-cellular": 0}
    while min(kinds.values()) < 15:
        poset = random_graded_poset(rng, max_elements=16, max_levels=4)
        kind = "cellular" if check_cellularity(poset).is_cellular else "non-cellular"
        kinds[kind] += 1
        yield kind, poset
    for i in range(4):
        yield "levelled", levelled_poset(rng, 4, 8)
    for i in range(15):
        yield "ungraded", ungraded_poset(rng, rng.randint(5, 11))


def _plain(rows):
    return {x: list(row.items()) if isinstance(row, dict) else row for x, row in rows.items()}


def _steps_reach(rows, x: int) -> set[int]:
    """The ids below x along covers of nonzero incidence."""
    seen, stack = set(), [x]
    while stack:
        for w, e in rows[stack.pop()].items():
            if e and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _memo_keys(poset, rows, walked: list[int]) -> tuple[set[int], set[int], set[int]]:
    """The walked ids whose down-set has a memo key (`sphere_memo_pairs`),
    those of them that take a stored gauged row, whose key and name order
    an earlier cellular element had whose row is all +-1 and whose steps
    reach all of its down-set, and those that take a stored sphere
    generator, whose key alone an earlier cellular element had."""
    pairs, down = sphere_memo_pairs(poset, rows), poset._reach()
    gauged, hits, spheres, signed = set(), set(), set(), set()
    for x in walked:
        if x not in pairs:
            continue
        if pairs[x] in signed:
            gauged.add(x)
        elif pairs[x][0] in spheres:
            hits.add(x)
        if isinstance(rows[x], dict):
            spheres.add(pairs[x][0])
            if {abs(e) for e in rows[x].values()} == {1} and _steps_reach(rows, x) == down[x]:
                signed.add(pairs[x])
    return pairs.keys() & set(walked), gauged, hits


def _listings(calls):
    """The `_cells` calls among the spied ones: the ids listed, whether with
    the augmentation slot, and whether a reduction of them follows."""
    called = [fn for fn, _, _ in calls]
    return [(frozenset(args[2]), kwargs.get("reduced", False), then == "_minimal_reducer")
            for (fn, args, kwargs), then in zip(calls, called[1:] + [None]) if fn == "_cells"]


def test_pass_equals_the_per_down_set_reference(monkeypatch):
    cellular = sys.modules["posetmorse.cellular"]
    calls = []

    def spy(name):
        real = getattr(cellular, name)

        def counted(*args, **kwargs):
            calls.append((name, args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(cellular, name, counted)

    for name in ("_cells", "_minimal_reducer", "_cone_cells", "_gauge_sign"):
        spy(name)
    seen = set()
    branches = {"contractible": 0, "0-sphere": 0, "gauged-row hit": 0, "generator hit": 0,
                "mapping cone": 0, "deferred sphere": 0, "deferred mapping cone": 0}
    for name, poset in sample_posets():
        expected_report, expected_rows = reference_cellular_pass(poset)
        walked, down = [], poset._reach()
        for x, lower in enumerate(poset._lower):
            if len(lower) == 1:
                branches["contractible"] += 1
            elif len(lower) == 2 and poset.is_graded() and poset._height[x] == 1:
                branches["0-sphere"] += 1
            elif lower:
                walked.append(x)
        # a pass that `space_complex` starts builds every row; one that
        # `check_cellularity` starts defers those of maximal elements
        # without a memo key, on graded posets, until `space_complex`
        # walks again
        for defer in (False, True):
            calls.clear()
            report, id_rows, deferred = _degree_induction(poset, defer=defer)
            assert report == expected_report, name
            walk, postponed = list(calls), list(deferred)
            calls.clear()
            if defer:
                assert all(x not in id_rows for x in postponed), name
                # the rows it built are the reference's
                assert _plain(named_rows(poset, id_rows)) == _plain(
                    {c: row for c, row in expected_rows.items()
                     if poset._id[c if isinstance(c, str) else c[0]] not in postponed}), name
                poset.analysis_cache["cellularity"] = report, id_rows, deferred
                assert _walked(poset, complete=True)[0] == expected_report, name
                id_rows = _walked(poset)[1]
                assert not poset.analysis_cache["cellularity"][2], name
            else:
                direct = _listings(walk)
            seen.add(name)
            # the pass keys its rows by id
            assert _plain(named_rows(poset, id_rows)) == _plain(expected_rows), name
            keyed, gauged, hits = _memo_keys(poset, id_rows, walked)
            assert postponed == [x for x in walked if defer and poset.is_graded()
                                 and not poset._upper[x] and x not in keyed], name
            # every reduction lists its down-set's cells just before; a
            # deferred element lists U.x - U_w, w a lower cover with the
            # largest down-set, and reduces nothing; every other listing is a
            # punctured down-set: a shortcut and both kinds of memo hit list nothing
            listed = _listings(walk)
            reduced = [members for members, _, reduces in listed if reduces]
            assert len(reduced) == sum(fn == "_minimal_reducer" for fn, _, _ in walk), name
            assert Counter(reduced) == Counter(
                down[x] for x in walked if x not in gauged | hits and x not in postponed), name
            excised = [members for members, augmented, _ in listed if not augmented]
            assert len(excised) == len(postponed), name
            for x, members in zip(postponed, excised):
                largest = max(len(down[w]) for w in poset._lower[x])
                assert any(members == down[x] - down[w] - {w} for w in poset._lower[x]
                           if len(down[w]) == largest), (name, x)
            punctured = {down[x] - {w} for x in walked for w in poset._lower[x]}
            assert all(members in punctured
                       for members, augmented, reduces in listed if augmented and not reduces), name
            # the gauge walks once per cellular element over cellular ones
            # that takes no stored gauged row
            assert [args[0] for fn, args, _ in walk if fn == "_gauge_sign"] == [
                x for x in walked if x not in gauged and isinstance(id_rows[x], dict)
                and all(isinstance(id_rows[w], dict) for w in down[x])], name
            # a second walk, where rows were deferred, lists what the direct walk lists
            assert _listings(calls) == (direct if postponed else []), name
            branches["gauged-row hit"] += len(gauged)
            branches["generator hit"] += len(hits)
            branches["mapping cone"] += sum(fn == "_cone_cells" for fn, _, _ in walk)
            for x in postponed:
                branches["deferred sphere" if isinstance(id_rows[x], dict)
                         else "deferred mapping cone"] += 1
    assert {"cellular", "non-cellular", "levelled", "ungraded", "sd2 RP^2", "rand-like",
            "boundary of the 5-simplex"} <= seen
    assert all(branches.values()), branches


def _corrupted(rng: XorShift64Star, row: dict, kind: str, lower: tuple) -> dict:
    """`row` with one entry flipped, doubled or zeroed, or with a spurious
    entry on a cell of `lower`, the cells one degree down."""
    row = dict(row)
    w = rng.choice(list(row))
    if kind == "flip":
        row[w] = -row[w]
    elif kind == "double":
        row[w] *= 2
    elif kind == "zero":
        row[w] = 0
    else:
        row[rng.choice([u for u in lower if u not in row] or [w])] = rng.choice((1, -1, 2))
    return row


def test_the_row_check_agrees_with_the_complex_check():
    rng = XorShift64Star(2029)
    outcomes = Counter()
    for name, poset in sample_posets():
        _, rows, _ = _degree_induction(poset)
        degrees, ids = poset._height, range(len(poset))
        labels = _cells(rows, degrees, ids, reduced=True)[2]
        cells = [(p, c) for p, level in labels.items() if p > 0 for c in level if rows[c]]
        for kind in ["none"] + [rng.choice(("flip", "double", "zero", "spurious"))
                                for _ in range(min(8, len(cells)))]:
            if kind == "none":
                row = c = None
            else:
                p, c = rng.choice(cells)
                row, rows[c] = rows[c], _corrupted(rng, rows[c], kind, labels[p - 1])
            try:
                ChainComplex(*_cells(rows, degrees, ids, reduced=True))
                expected = False
            except NotAChainComplex:
                expected = True
            try:
                _check_rows(rows, degrees, ids)
                raised = False
            except InconsistentIncidence:
                raised = True
            assert raised == expected, (name, kind, c)
            outcomes[kind, raised] += 1
            if row is not None:
                rows[c] = row
        # equal memo keys stand for equal complexes, laid out as `_cells` lays
        # them, and with equal name orders for equal gauged rows
        if poset.is_graded():
            complexes, gauged, keyed = {}, {}, 0
            names = poset._names
            rank = [0] * len(names)
            for r, i in enumerate(sorted(ids, key=names.__getitem__)):
                rank[i] = r
            starts = [bisect_left(degrees, k) for k in range(max(degrees, default=-1) + 1)]
            for x, below in enumerate(poset._reach()):
                if degrees[x] < 1 or not all(isinstance(rows[w], dict) for w in below):
                    continue
                members, key, order, top = _sphere_key(rows, starts, rank, below, degrees[x])
                ranks, columns, layout = _cells(rows, degrees, below, reduced=True)
                assert members == sorted(below)
                if key is None:
                    continue
                assert [members[i] for i in order] == sorted(below, key=names.__getitem__)
                assert top == list(layout[degrees[x] - 1]), (name, x)
                if isinstance(rows[x], dict):
                    row = list(rows[x].values())
                    assert gauged.setdefault((key, order), row) == row, (name, x)
                bits = (list(ranks.items()),
                        [(k, [list(column.items()) for column in cells])
                         for k, cells in columns.items()])
                assert complexes.setdefault(key, bits) == bits, (name, x)
                keyed += 1
            outcomes["shared keys"] += keyed - len(complexes)
    assert outcomes["none", False] >= 50 and not outcomes["none", True], outcomes
    assert all(outcomes[kind, True] >= 20 for kind in ("flip", "double", "zero", "spurious"))
    # some corruptions keep d*d = 0, and both checks pass them
    assert sum(outcomes[kind, False] for kind in ("flip", "double", "zero", "spurious"))
    assert outcomes["shared keys"] >= 500, outcomes


def test_check_cellularity_builds_few_chain_complexes(monkeypatch):
    built = []
    real = ChainComplex.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(ChainComplex, "__init__", counted)
    kinds = Counter()
    for name, poset in sample_posets():
        built.clear()
        report = check_cellularity(poset)
        # the pass itself, uncached, which the report of an ungraded poset skips
        _degree_induction(poset)
        # none, not one or two per element nor one per punctured down-set:
        # d*d is checked on the rows, and every cut of them goes to the engine
        assert not built, (name, len(built))
        kinds[report.is_graded, report.is_cellular, report.is_homologically_admissible] += 1
    # admissible, cellular but not admissible (the twin fixtures), non-cellular
    # (so not admissible) and ungraded posets all ran
    assert kinds.keys() == {(True, True, True), (True, True, False), (True, False, False),
                            (False, False, False)}, kinds


def test_check_cellularity_reduces_each_distinct_sphere_once(monkeypatch):
    cellular = sys.modules["posetmorse.cellular"]
    real, calls = cellular._minimal_reducer, []

    def counted(ranks, columns):
        calls.append(1)
        return real(ranks, columns)

    monkeypatch.setattr(cellular, "_minimal_reducer", counted)
    # every triangle of sd2 RP^2 has the same down-set; each degree p = 2..4
    # of the boundary of the 5-simplex has one (degree 1 needs no reduction)
    for poset, distinct in ((sd2_rp2(), 1), (face_poset(sphere(5)), 3)):
        calls.clear()
        assert check_cellularity(poset).is_homologically_admissible
        assert len(calls) == distinct, len(calls)


def test_the_pass_and_the_chain_model_build_no_up_sets():
    rng = XorShift64Star(2019)
    for poset in (sd2_rp2(), random_graded_poset(rng, max_elements=40, max_levels=5)):
        check_cellularity(poset)
        space_homology(poset)
        poset.chains()
        poset.down_closure(poset.elements[-5:])
        assert poset._above is None


def test_up_sets_are_the_transposed_down_sets():
    rng = XorShift64Star(2020)
    posets = [poset for _, poset in fixtures()]
    posets += [random_graded_poset(rng, max_elements=16, max_levels=4) for _ in range(10)]
    posets += [ungraded_poset(rng, rng.randint(5, 11)) for _ in range(10)]
    for poset in posets:
        for e in poset.elements:
            assert poset.strictly_above(e) == {
                x for x in poset.elements if e in poset.strictly_below(x)}


def _corrupting(monkeypatch, poset, element: str, corrupt, hook: str = "_check_rows") -> list[str]:
    """Make the pass corrupt the row of `element` once it is computed: at
    the next call of `hook`, `_check_rows` (the check of d*d on the rows,
    after the walk or on the rows so far) or `_cells` (the listing of a
    later down-set's cells), both of which take the rows first.  The pass
    keys its rows by id.  Returns the elements corrupted."""
    cellular = sys.modules["posetmorse.cellular"]
    real, done = getattr(cellular, hook), []
    key = poset.height_order()[element]

    def hooked(eps, degrees, members, *args, **kwargs):
        if key in eps and not done:
            corrupt(eps[key])
            done.append(element)
        return real(eps, degrees, members, *args, **kwargs)

    monkeypatch.setattr(cellular, hook, hooked)
    return done


def _flip_one(row):
    w = next(iter(row))
    row[w] = -row[w]


def test_a_corrupted_row_fails_the_once_check(monkeypatch):
    # the boundary of the 3-simplex: a triangle is maximal, so only the
    # check on the whole complex reads its row
    poset = face_poset(sphere(3))
    triangle = next(e for e in poset.elements if poset.degree(e) == 2)
    done = _corrupting(monkeypatch, poset, triangle, _flip_one)
    with pytest.raises(InconsistentIncidence):
        check_cellularity(poset)
    assert done == [triangle]


def test_a_corrupted_edge_row_under_a_cone_fails_the_once_check(monkeypatch):
    # a circle of three edges with a point over one edge: the point's
    # down-set is that edge's, a cone, whose rows the walk never reads
    circle = face_poset(SimplicialComplex([("a", "b"), ("b", "c"), ("a", "c")]))
    edge = next(e for e in circle.elements if circle.degree(e) == 1)
    poset = Poset([*circle.elements, "top"], [*circle.covers, (edge, "top")])
    done = _corrupting(monkeypatch, poset, edge, _flip_one)
    with pytest.raises(InconsistentIncidence):
        check_cellularity(poset)
    assert done == [edge]


def test_a_degree_one_row_must_sum_to_zero(monkeypatch):
    # a circle of three edges: each edge is maximal, and its row only meets
    # the augmentation slot
    poset = face_poset(SimplicialComplex([("a", "b"), ("b", "c"), ("a", "c")]))
    edge = next(e for e in poset.elements if poset.degree(e) == 1)

    def same_signs(row):
        for w in row:
            row[w] = 1

    done = _corrupting(monkeypatch, poset, edge, same_signs)
    with pytest.raises(InconsistentIncidence):
        check_cellularity(poset)
    assert done == [edge]


@pytest.mark.parametrize("corrupt", ["flip", "double"])
def test_a_corrupted_row_read_by_later_down_sets_fails_the_check(monkeypatch, corrupt):
    # an edge of the boundary of the 3-simplex lies in two triangles' down-sets,
    # whose reduction meets the bad row before the check after the walk
    poset = face_poset(sphere(3))
    edge = next(e for e in poset.elements if poset.degree(e) == 1)

    def bad(row):
        w = next(iter(row))
        row[w] = -row[w] if corrupt == "flip" else 2 * row[w]

    done = _corrupting(monkeypatch, poset, edge, bad, hook="_cells")
    with pytest.raises(InconsistentIncidence):
        check_cellularity(poset)
    assert done == [edge]


def test_a_corrupted_row_a_deferred_element_reads_fails_the_check(monkeypatch):
    # x is decided by excision, over the non-cellular whisker t: the edge d
    # lies only in x's down-set, and x's pair (U.x, U_c) lists it
    poset = whiskered_disk()
    done = _corrupting(monkeypatch, poset, "d", _flip_one, hook="_cells")
    with pytest.raises(InconsistentIncidence):
        check_cellularity(poset)
    assert done == ["d"]


def test_a_corrupted_deferred_row_fails_the_check_of_the_completion(monkeypatch):
    poset = whiskered_disk()
    report, x = check_cellularity(poset), poset._id["x"]
    # `space_complex` walks again, building x's row, and checks it after the walk
    done = _corrupting(monkeypatch, poset, "x", _flip_one)
    with pytest.raises(InconsistentIncidence):
        space_complex(poset)
    assert done == ["x"]
    # no reader sees the unchecked rows: the failed walk is not cached, and
    # the deferring pass stays
    assert x not in _walked(poset)[1]
    assert poset.analysis_cache["cellularity"][2] == [x]
    assert "space_complex" not in poset.analysis_cache
    assert check_cellularity(poset) is report
    monkeypatch.undo()
    assert space_complex(poset).labels[2] == ("x",)
