"""Cellularity, homological admissibility, and the cellular chain complex
of a poset with explicitly computed incidence numbers.

One pass over the elements by height builds a reduced chain model of
the poset and decides all three, as Massey builds incidences for regular
CW complexes (for posets: Minian, Topology Appl. 159, 2012).  The new
element x is maximal, so K(X u {x}) = K(X) u cone(K(U.x)) and the
reduced chains of the union are a mapping cone (Quillen, Adv. Math. 28,
1978; Barmak, LNM 2032): with M the `minimal_model` of the cells of
U.x and g its inclusion, x adds a cell (x, m) in degree k+1 for each
cell m of M in degree k, with boundary g(m) - (x, d_M m).  This is
exact over Z, and by induction the cells of any down-set model it.  On
a graded poset U.x is a homology (p-1)-sphere, p = deg x, exactly when
M is one cell in degree p-1: x is then cellular and its own cell, whose
boundary, a generator of ker d_{p-1} on U.x, is eps(x, .).  Three kinds
of U.x need no cells listed and no reduction.  An x with one lower cover w
has U.x = U_w, a cone with apex w, contractible (Stong, Trans. AMS 123,
1966): M has no cells, so x owns none and is not cellular.  In degree 1
U.x of two points is a 0-sphere, whose difference, gauged, is +1 on the
smaller name.  In degree 1 U.x of k > 2 points v_0 < ... < v_{k-1}, in id
order, is discrete, H~_0 = Z^(k-1): the reducer would pair v_0 with the
augmentation and leave the other points, so x owns the cells (x, 1, j)
with rows v_{j+1} - v_0, in that entry order, which sets the pivots of
every later down-set.  x is not cellular, and no cover (w, x) is
admissible, as cone(w) is a 0-sphere.  An ungraded poset gets its model
from the same walk, which decides nothing there.  The reducer takes the
raw cells of U.x, unchecked, and builds only the inclusions it is asked
for: the generator, or on the mapping-cone branch those of its surviving
cells, whose cone cells and H~(U.x) are read straight off it.  d*d = 0 is
checked once, after the walk, on the rows it built, and no complex of
the whole pass is built: each cell's row, every cone cell included,
times the rows of its cells, degree-0 cells mapping onto the
augmentation as in the reduced complex.  Restricted to the cells of a
down-set this is that down-set's check, and a failure raises
InconsistentIncidence.  A bad row that a later down-set reads can stop
the walk before the check, in the reducer or the model; the same check
then runs on the rows so far.

On face posets and subdivisions every element of a degree hands the
reducer the same local complex, and the pass keeps one memo: the gauged
row of x, in local indices, under the whole input of the sphere decision
and the gauge.  A key is built only where it can hit: on a graded poset,
in degree 2 and up (in degree 1 only two points are a sphere), over
cellular elements only, and where the reduced Euler characteristic is
(-1)^(p-1), as on every homology (p-1)-sphere.  It is read off the rows
(`_sphere_key`): U.x is sorted once, each degree's run of sorted ids is
its cells in `_cells` order, found from the level starts, the first id
of each degree, taken once per pass, and the key is p, where each run
starts, and each member's row in local indices, its place among the
sorted ids, zero entries kept.  p is in the key because the verdict
reads it.  The gauge reads the reach of the members of U.x, which their
rows fix, their degrees, which the run starts fix, x's row, which the
reduction of that complex fixes, and the order of their names: so x's
gauged row is stored under the key and the local order of U.x by name,
where every entry is +-1 and the steps reach all of U.x.  A later
down-set with both takes it with no reduction and no gauge walk, at the
cost of the key, one lookup, the row and the reach, which is U.x: every
lower cover is a step and admissible, and cone(x) is that of a sphere.
Any other keyed down-set, with a new name order or a row that was not
stored, as one with a 0 or +-2 entry, is reduced and gauged, and its
steps, its reach and the admissibility test are read off the row.  The
models of other down-sets are freed per element, as they would pin far
more memory.

w is maximal in U.x, so by excision (U.x, U.x - {w}) has the homology
of (U_w, U.w), H~(U.w) one degree up.  Where x and all of U.x are
cellular, that is Z in degree p-1 and the cover (w, x) is admissible
exactly when eps(x, w) = +-1.  Elsewhere U.x - {w} is not acyclic when
H~(U.x) differs from H~(U.w) one degree up, acyclic when both are
trivial, and only when both agree and are not does its model decide.
The sign gauge is that of `sphere_generator`: the first sorted full flag
of U.x whose steps all have nonzero incidence, found greedily in one
walk over the sorted names, has a positive coefficient,
(-1)^(names before w) * eps(x, w) times the coefficient of the rest of
the flag in w's generator, w its top element.

A maximal x without a key, over a non-cellular element or with an
Euler characteristic no sphere has, is decided by excision too: the
down-set U_w of the lower cover w with the largest down-set has the
maximum w, so it is a cone, and the exact sequence of the pair (U.x,
U_w) gives H~(U.x) = H(U.x, U_w), read off the cells of U.x - U_w alone.
x is its own cell exactly when that is Z in degree p-1 and nothing
else, and its covers' admissibility follows as above.  No down-set
reads the rows of x, so a pass that `check_cellularity` starts defers
them (`_walked`), as it does those of a maximal x of degree 1 over
k > 2 points, whose verdict needs no rows.  `space_complex` needs them:
a pass it starts builds every row directly, and where the cached pass
deferred rows it walks again, building and checking every row, and
replaces the cached pass.

Every x but a point, a 0-sphere and a sphere's own cell over cellular
elements goes through one tail, which records H~(U.x), cone(x), whether
x is cellular and the exact-sequence admissibility of its covers; each
distinct witness text is worded once, after the walk.

`matching` reads only the verdict, whether the poset is admissible
(`is_admissible`).  Its walk stops at the first failure, a non-cellular
element or a cover that is not admissible, which nothing after it can
undo, and checks d*d on every row it built before it answers.  A walk
that stops lists no witnesses and is not cached; one that runs to the
end is the pass `check_cellularity` starts, and is cached as that.
`validate` and `require_admissible` / `require_cellular`, whose texts
list witnesses, take the whole pass.

The pass walks the poset's int core (`posets`): ids run in height
order, so a down-set lists its cells by sorting its ids with no key, and
the rows of the pass are keyed by ids, the only keying of the chain
model.  The two gauges compare names, through each id's rank among the
sorted names, taken once per pass.  Names are made only for output: the
report speaks them, `space_complex` names its labels, and `epsilon` and
`incidence` name the pass's rows, which the `cellular_chain_complex`
record holds; `matching` reads its orbit multiplicities off them and
builds no chain complex.

One assembler, `_cells`, lists the cells of A - B for a down-closed pair
(A, B), given the ids of A - B alone: the down-sets the pass reduces,
its memo misses and those off the memo, its punctured down-sets, the
pairs (U.x, U_w) of the maximal elements it decides by excision, the
theorem checks' sublevel and basic-set pairs (`_pair_homology`, whose
callers hand it ids), and `space_complex`, the model of the space
without its augmentation cell, which `space_homology` and the hccat
witness read.  The rows are checked once, by `_check_rows`: the pairs
and punctured down-sets go to the homology engine as ranks and columns,
and only the space's complex, which callers keep, is a ChainComplex.
The order complex (`poset_homology`) stays the definition that
`verify_cellular_agreement` checks it against.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Hashable, Iterable, NamedTuple, Sequence

from .errors import (
    ConsistencyError,
    InconsistentIncidence,
    NonUnitIncidenceOnAdmissible,
    NotACover,
    NotAdmissible,
    NotASubcomplex,
    NotCellular,
    NotGraded,
)
from .homology import (
    ChainComplex,
    HomologySummary,
    _Reducer,
    _homology,
    _is_cycle,
    _minimal_reducer,
    _model,
    _space_summary,
    homology,
    poset_homology,
    simplicial_chain_complex,
)
from .intmatrix import Column
from .posets import Poset
from .simplicial import Simplex, order_complex


class CellularityReport(NamedTuple):
    is_graded: bool
    is_cellular: bool
    is_homologically_admissible: bool
    witnesses: tuple[tuple[str, str, str], ...] = ()

    def to_doc(self) -> dict:
        return {
            "graded": self.is_graded,
            "cellular": self.is_cellular,
            "homologically_admissible": self.is_homologically_admissible,
            "witnesses": [list(w) for w in self.witnesses],
        }


class SphereGenerator(NamedTuple):
    """An integer cycle generating the top reduced homology of a strict
    down-set; coefficients are indexed by order-complex simplices."""

    element: str
    cycle: dict[Simplex, int]


# the boundary row of each cell of the pass, keyed by ids: a cellular x is its
# own cell, with row eps(x, .); any other x owns a list of cells (x, k, j), the
# j-th in degree k; on a cellular poset, `CellularComplexOfPoset.rows`
Rows = dict[Hashable, "dict[Hashable, int] | list[tuple[int, int, int]]"]


class CellularComplexOfPoset(NamedTuple):
    """A cellular poset's incidence numbers, eps(x, .): `rows`, keyed by ids,
    which `epsilon` and `incidence` name; on the record that
    `cellular_chain_complex` returns, the pass's own rows."""

    poset: Poset
    rows: dict[int, dict[int, int]]

    @property
    def complex(self) -> ChainComplex:
        """The chain complex of these rows, its labels named, built when
        read: `space_complex`, the same object, for the pass's own rows."""
        if self.rows is _walked(self.poset)[1]:
            return space_complex(self.poset)
        return _space(self.poset, self.rows)

    @property
    def incidence(self) -> dict[tuple[str, str], int]:
        names = self.poset._names
        return {(names[x], names[w]): e for x, row in self.rows.items() for w, e in row.items()}

    def epsilon(self, x: str, w: str) -> int:
        """eps(x, w) for a cover w < x; an unknown name raises
        UnknownElement, and a pair that is not a cover NotACover."""
        poset = self.poset
        row = self.rows[poset._ident(x)]
        try:
            return row[poset._ident(w)]
        except KeyError:
            raise NotACover(f"({w}, {x}) is not a cover of the poset") from None

    def incidence_table(self) -> list[list]:
        return [[x, w, e] for (x, w), e in sorted(self.incidence.items())]


def check_cellularity(poset: Poset) -> CellularityReport:
    """Verify gradedness, sphere down-sets, and punctured acyclicity."""
    if poset.is_graded():
        return _walked(poset)[0]
    # an ungraded poset's report reads only the heights
    bad = [(w, x) for w, x in poset.covers if poset.heights()[x] != poset.heights()[w] + 1]
    return CellularityReport(False, False, False, tuple(
        ("not-graded", f"{w}<{x}", "cover skips a height level") for w, x in sorted(bad)))


def _walked(poset: Poset, complete: bool = False, stop: bool = False
            ) -> tuple[CellularityReport | None, Rows] | None:
    """The pass, cached, and the only code that caches it: its report
    (graded posets only) and its rows, keyed by ids.  A pass that
    `check_cellularity` starts defers the rows of the maximal elements it
    decides by excision, and of those of degree 1 over k > 2 points, which
    no other element's down-set reads.
    complete=True, which `space_complex` asks for, needs every row: a pass
    it starts builds them all directly, and a cached pass that deferred
    some is replaced by a second walk that builds them all; a walk that
    fails raises before it is cached, so the deferring pass stays.  The
    walk is the only code that builds and checks rows.  A pass that always
    deferred, its rows built afterwards, would spend more: the excision
    adds its pair homology to the reductions, about a fifth more time on
    the pass of `gen --kind poset --seed 5 --size 1000`.  With stop=True,
    which `is_admissible` asks for, an uncached walk stops at its first
    non-cellular element or non-admissible cover, checks the rows it built
    and returns None, caching nothing, as it lists no witnesses."""
    cached = poset.analysis_cache.get("cellularity")
    if cached is None or complete and cached[2]:
        cached = _degree_induction(poset, defer=not complete, stop=stop)
        if cached is None:
            return None
        poset.analysis_cache["cellularity"] = cached
    return cached[0], cached[1]


def is_admissible(poset: Poset) -> bool:
    """Whether the poset is homologically admissible, the one verdict that
    `matching` reads: False on an ungraded poset, else that of the cached
    pass, or of a walk that stops at its first failure (`_walked`)."""
    walked = poset.is_graded() and _walked(poset, stop=True)
    return bool(walked) and walked[0].is_homologically_admissible


def _degree_induction(poset: Poset, defer: bool = False, stop: bool = False
                      ) -> tuple[CellularityReport | None, Rows, list[int]] | None:
    """The pass, on the poset's ids: the report, in names, the rows, keyed
    by ids, and the maximal elements whose rows it deferred (defer=True).
    A keyed down-set takes its gauged row from the memo or is reduced and
    gauged; every other verdict is recorded in one tail.
    With stop=True the walk ends at its first failure, a non-cellular
    element or a cover that is not admissible, checks the rows it built
    and returns None: what follows cannot make the poset admissible."""
    graded, degrees, names = poset.is_graded(), poset._height, poset._names
    lower_covers, upper_covers, down = poset._lower, poset._upper, poset._reach()
    # each id's place among the sorted names, which the two gauges compare
    # and the gauged-row memo keys by
    rank = [0] * len(names)
    for r, i in enumerate(sorted(range(len(names)), key=names.__getitem__)):
        rank[i] = r
    eps: Rows = {}
    deferred: list[int] = []
    # where each degree's ids start, as ids run in height order: the memo
    # keys read them
    starts = [bisect_left(degrees, k) for k in range(degrees[-1] + 1)] if degrees else []
    # H~ of a homology k-sphere, which is H(U_x, U.x) of a cellular x of degree k
    sphere = [((k, (1, ())),) for k in range(len(starts))]
    # reach[x]: the elements below x along covers of nonzero incidence, on
    # the cellular x over cellular elements only, which take the gauge
    reach: dict[int, frozenset[int]] = {}
    # H(U_x, U.x), the nontrivial degrees of H~(U.x) one degree up, by id;
    # each distinct value, as each H~(U.x) the verdict reads, is one object
    # in `interned`, so that the exact-sequence test compares by identity
    cone: list[tuple | None] = [None] * len(names)
    interned = {s: s for s in sphere}
    # the nontrivial degrees of H~(U.x) of each non-cellular x
    not_cellular: dict[int, tuple] = {}
    not_admissible: list[tuple[int, int]] = []
    # the gauged row of each (sphere complex, local name order) so far whose
    # entries are all +-1 and whose steps reach all of U.x
    gauged: dict[tuple, tuple[int, ...]] = {}
    walked = len(names)
    try:
        for x, lower in enumerate(lower_covers):
            if stop and (not_cellular or not_admissible):
                walked = x
                break
            p, below = degrees[x], down[x]
            if p == 0:
                eps[x], reach[x], cone[x] = {}, below, sphere[0]
                continue
            # found: the nontrivial degrees of H~(U.x), which the verdict reads
            if len(lower) == 1:
                # U.x has a maximum, so it is a cone: its model has no cells
                eps[x], found = [], ()
            elif graded and p == 1:
                if len(lower) == 2:
                    # U.x is two points, a 0-sphere: their difference, gauged
                    # to +1 on the smaller name
                    a, b = lower
                    eps[x] = {a: 1, b: -1} if rank[a] < rank[b] else {a: -1, b: 1}
                    reach[x], cone[x] = below, sphere[1]
                    continue
                # U.x is k > 2 points, H~_0 = Z^(k-1): the reducer would pair
                # the first with the augmentation and leave the other k - 1,
                # each included as itself less the first, with no differential
                first, *rest = sorted(lower)
                if defer and not upper_covers[x]:
                    # no down-set reads x's rows
                    deferred.append(x)
                else:
                    eps[x] = cells = [(x, 1, j) for j in range(len(rest))]
                    for cell, v in zip(cells, rest):
                        eps[cell] = {v: 1, first: -1}
                found = ((0, (len(rest), ())),)
            else:
                # every graded x of degree 1 took a branch above
                members, key = below, None
                if graded and not_cellular.keys().isdisjoint(below):
                    members, key, order, top = _sphere_key(eps, starts, rank, below, p)
                    row = key and gauged.get((key, order))
                    if row:
                        # every lower cover is a step of incidence +-1, so
                        # admissible, and the steps reach all of U.x
                        eps[x], reach[x], cone[x] = dict(zip(top, row)), below, sphere[p]
                        continue
                if key is None and defer and graded and not upper_covers[x]:
                    # no down-set reads x's rows: H~(U.x) = H(U.x, U_w), U_w a cone
                    deferred.append(x)
                    w = max(lower, key=lambda v: len(down[v]))
                    found = tuple(_homology(*_cells(eps, degrees, below - down[w] - {w})[:2])
                                  .nontrivial().items())
                else:
                    ranks, columns, labels = _cells(eps, degrees, members, reduced=True)
                    reducer = _minimal_reducer(ranks, columns)
                    live = reducer.survivors()
                    if graded and live.keys() == {p - 1} and len(live[p - 1]) == 1:
                        # the one cell's inclusion: a generator of the top cycles of U.x
                        (cycle,) = reducer.inclusions(p - 1, live[p - 1])
                        eps[x] = {w: cycle.get(i, 0) for i, w in enumerate(labels[p - 1])}
                        found = sphere[p - 1]
                    else:
                        eps[x], model = _cone_cells(x, labels, reducer, live, eps)
                        if not graded:
                            continue
                        # a model with no differential is its own homology
                        summary = (_homology(*model) if any(map(any, model[1].values()))
                                   else HomologySummary(model[0]))
                        found = tuple(summary.nontrivial().items())
                if key is not None and found == sphere[p - 1]:
                    # x is its own cell over cellular ones: its row takes the gauge
                    steps = [w for w in lower if eps[x][w]]
                    reach[x] = frozenset(steps).union(*(reach[w] for w in steps))
                    cone[x] = sphere[p]
                    non_unit = [(w, x) for w in lower if abs(eps[x][w]) != 1]
                    not_admissible += non_unit
                    if _gauge_sign(x, p, eps, reach, degrees, rank, names) < 0:
                        eps[x] = {w: -e for w, e in eps[x].items()}
                    if not non_unit and len(reach[x]) == len(below):
                        gauged[key, order] = tuple(eps[x].values())
                    continue
            if not graded:
                continue
            # the verdict of every other x, the one place it is recorded: a
            # sphere over a non-cellular element is a cell, anything else is not
            found = interned.setdefault(found, found)
            if found is not sphere[p - 1]:
                not_cellular[x] = found
            shifted = tuple((k + 1, group) for k, group in found)
            cone[x] = interned.setdefault(shifted, shifted)
            # the exact sequence of (U.x, U.x - {w}), as the module docstring says;
            # where it reduces, x has another lower cover, so U.x - {w} keeps a point
            not_admissible += [
                (w, x) for w in lower if cone[w] is not found or found and not _homology(
                    *_cells(eps, degrees, below - {w}, reduced=True)[:2]).is_trivial()]
    except Exception:
        # a bad row that a later down-set read can stop the walk first: the
        # check on the rows so far names it, or the walk's own error stands
        _check_rows(eps, degrees, filter(eps.__contains__, range(len(names))))
        raise
    # d*d = 0 once, on every cell the walk built, all but the deferred ones,
    # read off the rows themselves
    skipped = set(deferred)
    _check_rows(eps, degrees, (x for x in range(walked) if x not in skipped))
    if walked < len(names):
        return None
    if not graded:
        return None, eps, deferred
    # each distinct H~(U.x) worded once
    wording = {found: "strict down-set has " + str(HomologySummary(
        {k: b for k, (b, _) in found}, {k: t for k, (_, t) in found}))
        for found in set(not_cellular.values())}
    witnesses = [("not-cellular", names[x], wording[not_cellular[x]])
                 for x in poset._by_declared(not_cellular)]
    witnesses += [("not-admissible", f"{w}<{x}", "punctured down-set is not acyclic")
                  for w, x in sorted((names[w], names[x]) for w, x in not_admissible)]
    cellular, admissible = not not_cellular, not not_admissible
    # admissibility forces cellularity (with the empty set not acyclic)
    if admissible and not cellular:
        raise ConsistencyError("admissible but non-cellular: check bug")
    return CellularityReport(True, cellular, admissible, tuple(witnesses)), eps, deferred


def _named(names: Sequence[str], cell: int | tuple[int, int, int]):
    """The name of a cell: an element's, or (name, k, j) for a cell (x, k, j)."""
    return names[cell] if type(cell) is int else (names[cell[0]], cell[1], cell[2])


def _cone_cells(x: int, labels: dict[int, tuple], reducer: _Reducer, live: dict[int, list[int]],
                eps: Rows) -> tuple[list[tuple], tuple[dict[int, int], dict[int, list[Column]]]]:
    """Put x's cells (x, k + 1, j) in `eps`: one over the j-th cell m in degree
    k of the minimal model M that `reducer` left of the cells with these
    labels, `live` its surviving cells, bounded by g(m) - (x, d_M m), g M's
    inclusion.  Returns the cells, and M's ranks and boundary columns (`_model`)."""
    model = _model(reducer.cols, live)
    cells = []
    for k in sorted(live):
        columns = model[1].get(k)
        for j, chain in enumerate(reducer.inclusions(k, live[k])):
            row = eps[x, k + 1, j] = {labels[k][i]: v for i, v in chain.items()}
            if columns:
                row.update(((x, k, i), -v) for i, v in columns[j].items())
            cells.append((x, k + 1, j))
    return cells, model


def _sphere_key(eps: Rows, starts: Sequence[int], rank: Sequence[int], below: frozenset[int],
                p: int) -> tuple[list[int], tuple | None, tuple[int, ...], list[int]]:
    """The ids of U.x, sorted, for an x of degree p over cellular elements,
    its key in the gauged-row memo, its members in name `rank` order as
    local indices (their places among the sorted ids), and its cells in
    degree p-1.
    `starts` holds the level starts, the first id of each degree, which
    the pass takes once: ids run in height order, so each degree's run of
    sorted ids begins where its level start falls among them.  Each member
    is a cell, and each run lists its cells in `_cells` order, so the key,
    p, where each run starts and each member's row in local indices, is
    the input of the sphere decision; with the order it is the input of
    the gauge too, which reads those rows and compares those names.  A
    zero entry is no boundary, so a key that keeps it is only finer, as
    is one that reads each degree's ids in declared order.  The key is
    None unless the reduced Euler characteristic is (-1)^(p-1), as on
    every homology (p-1)-sphere."""
    members = sorted(below)
    cuts = [bisect_left(members, start) for start in starts[:p + 1]]
    # the cells in each degree: the Euler characteristic, one more than
    # the reduced one, (-1)^(p-1), is 2 for odd p and 0 for even p
    sizes = [b - a for a, b in zip(cuts, cuts[1:])]
    if sum(sizes[::2]) - sum(sizes[1::2]) != (2 if p % 2 else 0):
        return members, None, (), []
    index = dict(zip(members, range(len(members)))).__getitem__
    # each row in local indices, then entries
    rows = [(*map(index, row), *row.values()) for row in map(eps.__getitem__, members[cuts[1]:])]
    order = tuple(map(index, sorted(members, key=rank.__getitem__)))
    return members, (p, tuple(cuts), tuple(rows)), order, members[cuts[p - 1]:]


def _check_rows(eps: Rows, degrees: Sequence[int], members: Iterable[int]) -> None:
    """d*d = 0 on the cells of the ids `members`, each row times its cells'
    rows, with the kernel (`_is_cycle`) that the ChainComplex constructor
    runs on `_cells(eps, degrees, members, reduced=True)`, degree-0 cells
    mapping onto the augmentation: a failure raises InconsistentIncidence,
    the only place that does."""
    for e in members:
        owned = eps[e]
        for p, row in ([(degrees[e], owned)] if isinstance(owned, dict)
                       else [(cell[1], eps[cell]) for cell in owned]):
            if p == 1 and sum(row.values()) or p > 1 and not _is_cycle(row, eps):
                raise InconsistentIncidence(
                    f"cellular differential fails d*d=0: d_{p - 1} . d_{p} != 0")


def _cells(eps: Rows, degrees: Sequence[int], members: Iterable[int],
           reduced: bool = False) -> tuple[dict[int, int], dict[int, list[dict]], dict[int, tuple]]:
    """The ranks, boundary columns and labels of the cells of the ids
    `members`, A - B for a down-closed pair (A, B), unchecked: by degree,
    in id order, each with its nonzero row of `eps`, less the cells
    outside, as boundary.  With reduced=True (B empty) an augmentation
    slot C_{-1} = Z is added, onto which every degree-0 cell maps.  The
    pass's memo key (`_sphere_key`) and its check of d*d (`_check_rows`)
    read the rows in this layout without listing them."""
    levels: dict[int, list[Hashable]] = {}
    for e in sorted(members):
        if isinstance(eps[e], dict):
            levels.setdefault(degrees[e], []).append(e)
        else:  # an element that is not a cell owns a list of them
            for cell in eps[e]:
                levels.setdefault(cell[1], []).append(cell)
    at = {c: i for cells in levels.values() for i, c in enumerate(cells)}
    ranks = {p: len(cells) for p, cells in levels.items()}
    boundary = {p: [{at[w]: e for w, e in eps[c].items() if e and w in at}
                    for c in levels[p]] for p in levels if p - 1 in levels}
    if reduced:
        ranks[-1] = 1
        boundary[0] = [{0: 1} for _ in levels.get(0, ())]
    return ranks, boundary, {p: tuple(cells) for p, cells in levels.items()}


def cellular_pair_homology(poset: Poset, members: Iterable[str],
                           dropped: Iterable[str] = ()) -> HomologySummary:
    """Homology of the down-closed pair (A, B) = (members, dropped) of
    a cellular poset, read off the cells of A - B.  It equals that of the
    order-complex pair (K(A), K(B)) of the induced subposets."""
    require_cellular(poset)
    keep, drop = set(members), set(dropped)
    if not drop <= keep or any(w not in part for part in (keep, drop)
                               for x in part for w in poset.lower_covers(x)):
        raise NotASubcomplex("cellular pair homology needs down-closed sets A containing B")
    return _pair_homology(poset, map(poset._id.__getitem__, keep - drop))


def _pair_homology(poset: Poset, cells: Iterable[int]) -> HomologySummary:
    """`cellular_pair_homology` of a pair down-closed by construction, from
    A - B, a locally closed set of ids: its cells' ranks and columns,
    read off the pass's checked rows, go to the engine unchecked.  Its
    callers require a cellular poset, whose pass defers no row."""
    return _homology(*_cells(_walked(poset)[1], poset._height, cells)[:2])


def _gauge_sign(x: int, p: int, eps: Rows, reach: dict[int, frozenset[int]],
                degrees: list[int], rank: list[int], names: Sequence[str]) -> int:
    """The sign, in x's sphere generator, of the first sorted full flag of
    U.x along nonzero incidences, names compared by their `rank`: one walk
    over the sorted names takes each name that extends the flag so far,
    which holds one name per degree, as the new element of a chain from x:
    x or the flag's next name above steps to it, and it steps to the
    flag's next name below."""
    flag: list[int | None] = [None] * p
    # the flag's nearest name above and below each open degree
    up: list[int] = [x] * p
    down: list[int | None] = [None] * p
    found = odd = 0
    for v in sorted(reach[x], key=rank.__getitem__):
        d = degrees[v]
        if flag[d] is not None:
            continue
        top, bottom = up[d], down[d]
        if v in reach[top] and (bottom is None or bottom in reach[v]):
            flag[d] = v
            # the names below v in the flag so far all sort before it
            odd ^= (d - flag[:d].count(None)) & 1
            lo = -1 if bottom is None else degrees[bottom]
            up[lo + 1:d] = [v] * (d - lo - 1)
            down[d + 1:degrees[top]] = [v] * (degrees[top] - d - 1)
            found += 1
            if found == p:
                break
    else:
        raise ConsistencyError(f"no full flag below {names[x]!r} along nonzero incidences")
    # each name's sign is (-1)^(names before it among those still below)
    coeff, top = -1 if odd else 1, x
    for w in reversed(flag):
        coeff *= eps[top][w]
        top = w
    return 1 if coeff > 0 else -1


def require_cellular(poset: Poset) -> None:
    report = check_cellularity(poset)
    if not report.is_graded:
        raise NotGraded("poset is not graded")
    if not report.is_cellular:
        raise NotCellular(f"poset is not cellular: {report.witnesses[:3]}")


def require_admissible(poset: Poset) -> None:
    report = check_cellularity(poset)
    if not (report.is_graded and report.is_cellular and report.is_homologically_admissible):
        raise NotAdmissible(f"poset is not homologically admissible: {report.witnesses[:3]}")


def sphere_generator(poset: Poset, element: str) -> SphereGenerator:
    """Canonical generator of the top reduced homology of the strict
    down-set of `element`, read off the paper's definition: the order
    complex of the induced strict down-set.

    That complex has dimension p-1, so its top reduced cycles are exactly
    its top reduced homology, which cellularity makes infinite cyclic.
    Its minimal model spans those cycles by its (p-1)-cells with empty
    columns; there must be one, and the cycle is that cell's inclusion.
    The sign is fixed by making the coefficient of the lexicographically
    first simplex in the support positive: the gauge of the incidence
    numbers, which never build these cycles.  Nothing is cached: no
    theorem check reads these cycles.
    """
    p = poset.degree(element)
    if p < 1:
        raise NotCellular("sphere generators exist only in degree >= 1")
    below = poset.induced(poset.strictly_below(element))
    chain = simplicial_chain_complex(order_complex(below), reduced=True)
    reducer = _minimal_reducer(chain.ranks, chain.columns)
    cycles = [c for c in reducer.survivors().get(p - 1, ()) if not reducer.cols[p - 1][c]]
    if len(cycles) != 1:
        raise NotCellular(
            f"top homology below {element!r} has rank {len(cycles)}, expected 1")
    (cycle,) = reducer.inclusions(p - 1, cycles)
    sign = 1 if cycle[min(cycle)] > 0 else -1
    top = chain.labels[p - 1]
    return SphereGenerator(element, {top[i]: sign * cycle[i] for i in sorted(cycle)})


def cellular_chain_complex(poset: Poset) -> CellularComplexOfPoset:
    """The incidence numbers of the cellularity pass, as the record of
    the poset's cellular chain complex, whose `complex` is `space_complex`.

    The pass has checked d*d = 0 on its rows.  On homologically admissible
    posets the scan of the rows here checks that every incidence number
    is +-1.  No chain complex is built.
    """
    require_cellular(poset)
    report, rows = _walked(poset)
    if report.is_homologically_admissible:
        bad = [(x, w) for x, row in rows.items() for w, e in row.items() if abs(e) != 1]
        if bad:
            named = sorted((poset._names[x], poset._names[w]) for x, w in bad)
            raise NonUnitIncidenceOnAdmissible(
                f"admissible poset produced non-unit incidence at {named[:3]}")
    return CellularComplexOfPoset(poset, rows)


def space_complex(poset: Poset) -> ChainComplex:
    """The chain model of the space, built once per poset: the cells of the
    pass without the augmentation cell, the cellular complex if cellular.
    Where the cached pass, started by `check_cellularity`, deferred the
    rows of maximal elements, the pass walks again and builds them all
    (`_walked`).  The pass has checked d*d = 0 on its rows, and the
    ChainComplex constructor checks it again."""
    cached = poset.analysis_cache.get("space_complex")
    if cached is None:
        cached = poset.analysis_cache["space_complex"] = _space(
            poset, _walked(poset, complete=True)[1])
    return cached


def _space(poset: Poset, eps: Rows) -> ChainComplex:
    """The chain complex of every cell of the rows `eps`, its labels named."""
    ranks, columns, labels = _cells(eps, poset._height, range(len(poset)))
    names = poset._names
    return ChainComplex(ranks, columns, {
        p: tuple([_named(names, c) for c in cells]) for p, cells in labels.items()})


def space_homology(poset: Poset, reduced: bool = False) -> HomologySummary:
    """Homology of the finite space, read off `space_complex`; it equals
    `poset_homology` and lists the same degrees, 0 (or -1 when reduced)
    up to the height of the poset.  Both summaries are cached
    (`_space_summary`)."""
    return _space_summary(poset, reduced, "space_homology",
                          lambda: homology(space_complex(poset)), augmented=False)


def verify_cellular_agreement(poset: Poset) -> bool:
    """Cellular homology agrees with order-complex homology (betti and
    torsion in every degree), once `cellular_chain_complex` has checked
    that the poset is cellular."""
    cellular_chain_complex(poset)
    return space_homology(poset) == poset_homology(poset)
