"""The reducer builds inclusions only for the cells that survive, and the
cellularity pass reduces each strict down-set straight from its rows and
checks d*d once, on the whole reduced complex.

Both are checked bit for bit, dict order included, against the forms
they replace, kept in `helpers`: `EagerReducer`, which updates every
cell's inclusion on every elimination, and `reference_cellular_pass`,
which builds, checks and reduces a chain complex per strict down-set.
Pivots follow the order of the columns' entries, so equal order is what
keeps the mapping-cone cells of non-cellular posets the same."""

import sys
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
from posetmorse.cellular import _degree_induction, _named_rows, space_complex
from posetmorse.dynamics import is_morse_matching
from posetmorse.errors import InconsistentIncidence
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
    reference_cellular_pass,
    scrambled_complex,
    ungraded_poset,
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
        for x in poset.elements:
            y = matching.target(x)
            if y is not None:
                pairs.setdefault(poset.degree(y), []).append((position[x], position[y]))
        chain = cellular_chain_complex(poset).complex
        reduction = morse_reduction(chain, pairs)
        assert _bits(reduction) == _bits(eager_morse_reduction(chain, pairs))
        assert _is_chain_map(reduction, chain)
        checked += 1


def test_lazy_inclusions_equal_eager_tracking_through_the_smith_step(monkeypatch):
    module = sys.modules["posetmorse.homology"]
    real, steps = module._Reducer.smith_step, []

    def recorded(self, p):
        units = real(self, p)
        steps.append(bool(units))
        return units

    monkeypatch.setattr(module._Reducer, "smith_step", recorded)
    rng = XorShift64Star(2006)
    for _ in range(300):
        chain, _, _ = scrambled_complex(rng)
        model = minimal_model(chain)
        assert _bits(model) == _bits(eager_minimal_model(chain))
    assert sum(steps) >= 100


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


def sample_posets():
    yield from fixtures()
    yield "sd2 RP^2", sd2_rp2()
    yield "boundary of the 5-simplex", face_poset(sphere(5))
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


def test_pass_equals_the_per_down_set_reference(monkeypatch):
    cellular = sys.modules["posetmorse.cellular"]
    listed, reduced, cones = [], [], []

    def spy(name, calls):
        real = getattr(cellular, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cellular, name, counted)

    spy("_cells", listed)
    spy("_minimal_reducer", reduced)
    spy("_cone_cells", cones)
    seen, branches = set(), {"contractible": 0, "0-sphere": 0, "memo hit": 0, "mapping cone": 0}
    for name, poset in sample_posets():
        for calls in (listed, reduced, cones):
            calls.clear()
        report, rows = _degree_induction(poset)
        # the pass keys its rows by id
        rows = _named_rows(poset._names, rows, False)
        # the down-sets the walk listed, by identity: the pass lists ids
        down_sets = {id(args[2]) for args in listed}
        expected_report, expected_rows = reference_cellular_pass(poset)
        assert report == expected_report, name
        assert _plain(rows) == _plain(expected_rows), name
        seen.add(name)
        walked = 0
        for x in poset.elements:
            lower = poset.lower_covers(x)
            if len(lower) == 1:
                kind = "contractible"
            elif len(lower) == 2 and poset.is_graded() and poset.height(x) == 1:
                kind = "0-sphere"
            elif lower:
                kind, walked = None, walked + 1
            else:
                continue
            # a shortcut lists no cells of its down-set; every other element does
            below = poset._reach()[poset.height_order()[x]]
            assert (id(below) in down_sets) == (kind is None), (name, x)
            if kind:
                branches[kind] += 1
        branches["memo hit"] += walked - len(reduced)
        branches["mapping cone"] += len(cones)
    assert {"cellular", "non-cellular", "levelled", "ungraded", "sd2 RP^2", "rand-like",
            "boundary of the 5-simplex"} <= seen
    assert all(branches.values()), branches


def test_check_cellularity_builds_few_chain_complexes(monkeypatch):
    built = []
    real = ChainComplex.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(ChainComplex, "__init__", counted)
    for poset in (sd2_rp2(), face_poset(sphere(5))):
        built.clear()
        assert check_cellularity(poset).is_cellular
        # O(1), not one or two per element: only the check of d*d
        assert len(built) == 1, len(built)


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
        poset.chains_within(poset.elements[:10])
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


def _corrupting(monkeypatch, poset, element: str, corrupt) -> list[str]:
    """Make the pass corrupt the row of `element` once it is computed: at
    the next listing of cells, which reads every row, in a later down-set
    or in the check after the walk.  The pass keys its rows by id.
    Returns the elements corrupted."""
    cellular = sys.modules["posetmorse.cellular"]
    real, done = cellular._cells, []
    key = poset.height_order()[element]

    def cells(eps, degrees, members, *args, **kwargs):
        if key in eps and not done:
            corrupt(eps[key])
            done.append(element)
        return real(eps, degrees, members, *args, **kwargs)

    monkeypatch.setattr(cellular, "_cells", cells)
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

    done = _corrupting(monkeypatch, poset, edge, bad)
    with pytest.raises(InconsistentIncidence):
        check_cellularity(poset)
    assert done == [edge]
