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
boundary, a generator of ker d_{p-1} on U.x, is eps(x, .).  Two kinds of
U.x need no cells listed and no reduction.  An x with one lower cover w
has U.x = U_w, a cone with apex w, contractible (Stong, Trans. AMS 123,
1966): M has no cells, so x owns none and is not cellular.  In degree 1
U.x of two points is a 0-sphere, whose difference, gauged, is +1 on the
smaller name.  An ungraded poset gets its model from the same walk,
which decides nothing there.  The reducer takes the raw cells of U.x,
unchecked, and builds only the inclusions it is asked for: the
generator, or on the mapping-cone branch those of its surviving cells,
whose cone cells and H~(U.x) are read straight off it.  d*d = 0 is
checked once, after the walk, on the whole reduced complex, every cone
cell included, whose check restricted to the columns of a down-set is
that down-set's, and a failure raises InconsistentIncidence.  A bad row
that a later down-set reads can stop the walk before the check, in the
reducer or the model; the same check then runs on the rows so far.

On face posets and subdivisions every element of a degree hands the
reducer the same local complex, so the pass reduces each distinct
sphere complex once: its generator, in local indices, is stored under
the whole input of the sphere decision, p with the ranks and boundary
columns of the cells in `_cells` order, and a later down-set with that
key maps it onto its own cells.  p is in the key because the verdict
reads it.  A key is built only where it can hit: on a graded poset,
over cellular elements only, and where the reduced Euler characteristic
is (-1)^(p-1), as on every homology (p-1)-sphere.  The gauge, the
admissibility test and the mapping-cone branch still run per element,
and only generators are stored: the models of other down-sets are freed
per element, as they would pin far more memory.

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

The pass walks the poset's int core (`posets`): ids run in height
order, so a down-set lists its cells by sorting its ids with no key, and
the rows of the pass are keyed by ids.  The two gauges compare names,
through each id's rank among the sorted names, taken once per pass.  The
report speaks names, and the rows are turned into names once, when
`_cellular_pass` first hands them out; a report alone never names them.

One assembler, `_cells`, lists the cells of A - B for a down-closed pair
(A, B), given A - B alone: on ids, the pass's down-sets, its punctured
down-sets and its once-check, which `_checked` turns into chain
complexes; on names, through `_cellular_complex`, the theorem checks'
sublevel and basic-set pairs, and `space_complex`, the model of the
space without its augmentation cell, which `space_homology` and the
hccat witness read.
The order complex (`poset_homology`) stays the definition that
`verify_cellular_agreement` checks it against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .errors import (
    ConsistencyError,
    EmptyPoset,
    NotAChainComplex,
    InconsistentIncidence,
    NonUnitIncidenceOnAdmissible,
    NotAdmissible,
    NotASubcomplex,
    NotCellular,
    NotGraded,
)
from .homology import (
    ChainComplex,
    Coefficients,
    HomologySummary,
    _Reducer,
    _homology,
    _minimal_reducer,
    homology,
    poset_homology,
    sphere_summary,
    subposet_chain_complex,
)
from .intmatrix import Column
from .posets import Poset
from .simplicial import Simplex
from .snf import kernel_basis


@dataclass(frozen=True)
class CellularityReport:
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


@dataclass(frozen=True)
class SphereGenerator:
    """An integer cycle generating the top reduced homology of a strict
    down-set; coefficients are indexed by order-complex simplices."""

    element: str
    cycle: dict[Simplex, int]


# the boundary row of each cell of the pass: a cellular x is its own cell, with
# row eps(x, .); any other x owns a list of cells (x, k, j), the j-th in degree k;
# x is an id in the pass and a name once the rows are handed out
Rows = dict[Hashable, "dict[Hashable, int] | list[tuple[Hashable, int, int]]"]


@dataclass(frozen=True)
class CellularComplexOfPoset:
    poset: Poset
    complex: ChainComplex
    rows: Rows
    admissible: bool

    @property
    def incidence(self) -> dict[tuple[str, str], int]:
        return {(x, w): e for x, row in self.rows.items() for w, e in row.items()}

    def epsilon(self, x: str, w: str) -> int:
        return self.rows[x][w]

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


def _walked(poset: Poset) -> tuple[CellularityReport | None, Rows, bool]:
    """The pass, cached: its report, its rows and whether they are keyed by
    names yet.  They stay keyed by ids, as the pass made them, until
    `_cellular_pass` asks for them."""
    cached = poset.analysis_cache.get("cellularity")
    if cached is None:
        cached = poset.analysis_cache["cellularity"] = (*_degree_induction(poset), False)
    return cached


def _cellular_pass(poset: Poset) -> tuple[CellularityReport | None, Rows]:
    """The report (graded posets only) and the cells of the pass keyed by
    names, cached: the ids are turned into names once, on the first call."""
    report, rows, named = _walked(poset)
    if not named:
        rows = _named_rows(poset._names, rows, report is not None and report.is_cellular)
        poset.analysis_cache["cellularity"] = (report, rows, True)
    return report, rows


def _degree_induction(poset: Poset) -> tuple[CellularityReport | None, Rows]:
    """The pass, on the poset's ids: the report, in names, and the rows,
    keyed by ids."""
    graded, degrees, names = poset.is_graded(), poset._height, poset._names
    lower_covers, down = poset._lower, poset._reach()
    # each id's place among the sorted names, which the two gauges compare
    rank = [0] * len(names)
    for r, i in enumerate(sorted(range(len(names)), key=names.__getitem__)):
        rank[i] = r
    eps: Rows = {}
    # reach[x]: the elements below x along covers of nonzero incidence, on
    # the cellular x over cellular elements only, which take the gauge
    reach: dict[int, frozenset[int]] = {}
    # H(U_x, U.x), the nontrivial degrees of H~(U.x) one degree up
    cone: dict[int, tuple] = {}
    not_cellular: dict[int, HomologySummary] = {}
    not_admissible: list[tuple[int, int]] = []
    # the generator, in local indices, of each sphere complex reduced so far
    spheres: dict[tuple, tuple[int, ...]] = {}
    try:
        for x, lower in enumerate(lower_covers):
            p, below = degrees[x], down[x]
            if p == 0:
                eps[x], reach[x], cone[x] = {}, below, ((0, (1, ())),)
                continue
            if len(lower) == 1:
                # U.x has a maximum, so it is a cone: its model has no cells
                eps[x] = []
                if graded:
                    not_cellular[x], cone[x] = HomologySummary(), ()
                    # the exact sequence of (U.x, U.x - {w}) with H~(U.x) = 0
                    not_admissible += [(w, x) for w in lower if cone[w]]
                continue
            if graded and p == 1 and len(lower) == 2:
                # U.x is two points, a 0-sphere: their difference, gauged
                # to +1 on the smaller name
                a, b = lower
                eps[x] = {a: 1, b: -1} if rank[a] < rank[b] else {a: -1, b: 1}
                reach[x], cone[x] = below, ((1, (1, ())),)
                continue
            over_cellular = not_cellular.keys().isdisjoint(below)
            ranks, columns, labels = _cells(eps, degrees, below, reduced=True)
            key = generator = None
            if graded and over_cellular and sum(
                    r if k % 2 == 0 else -r for k, r in ranks.items()) == (-1) ** (p - 1):
                # the reduced Euler characteristic of a homology (p-1)-sphere
                key = (p, tuple(ranks.items()), tuple(
                    (k, tuple(tuple(column.items()) for column in cells))
                    for k, cells in columns.items()))
                generator = spheres.get(key)
            if generator is None:
                reducer = _minimal_reducer(ranks, columns)
                live = reducer.survivors()
                if graded and live.keys() == {p - 1} and len(live[p - 1]) == 1:
                    # the one cell's inclusion: a generator of the top cycles of U.x
                    (chain,) = reducer.inclusions(p - 1, live[p - 1])
                    generator = tuple(chain.get(i, 0) for i in range(ranks[p - 1]))
                    if key is not None:
                        spheres[key] = generator
            if generator is not None:
                eps[x], here = dict(zip(labels[p - 1], generator)), ((p - 1, (1, ())),)
            else:
                eps[x], (model_ranks, model_columns) = _cone_cells(x, labels, reducer, live, eps)
                if not graded:
                    continue
                # a model with no differential is its own homology
                not_cellular[x] = (_homology(model_ranks, model_columns)
                                   if any(map(any, model_columns.values()))
                                   else HomologySummary(model_ranks))
                here = tuple(not_cellular[x].nontrivial().items())
            cone[x] = tuple((k + 1, group) for k, group in here)
            if x in not_cellular or not over_cellular:
                # the exact sequence of (U.x, U.x - {w}), as the module docstring says
                not_admissible += [
                    (w, x) for w in lower if cone[w] != here or here and not homology(
                        _checked(_cells(eps, degrees, below - {w}, reduced=True))
                    ).is_trivial()]
                continue
            steps = [w for w in lower if eps[x][w]]
            # shares the down-set where every step has nonzero incidence, as on
            # every admissible poset
            shared = len(steps) == len(lower) and all(reach[w] is down[w] for w in steps)
            reach[x] = below if shared else frozenset(steps).union(*(reach[w] for w in steps))
            if _gauge_sign(x, p, eps, reach, degrees, rank, names) < 0:
                eps[x] = {w: -e for w, e in eps[x].items()}
            not_admissible += [(w, x) for w in lower if abs(eps[x][w]) != 1]
    except Exception:
        # a bad row that a later down-set read can stop the walk first: the
        # check on the rows so far names it, or the walk's own error stands
        _checked(_cells(eps, degrees, eps.keys() & range(len(names)), reduced=True))
        raise
    # d*d = 0 once, on every cell of the pass; the complex is not kept (peak RSS)
    _checked(_cells(eps, degrees, range(len(names)), reduced=True))
    if not graded:
        return None, eps
    witnesses = [("not-cellular", names[x], f"strict down-set has {not_cellular[x]}")
                 for x in poset._by_declared(not_cellular)]
    witnesses += [("not-admissible", f"{w}<{x}", "punctured down-set is not acyclic")
                  for w, x in sorted((names[w], names[x]) for w, x in not_admissible)]
    cellular, admissible = not not_cellular, not not_admissible
    # admissibility forces cellularity (with the empty set not acyclic)
    if admissible and not cellular:
        raise ConsistencyError("admissible but non-cellular: check bug")
    return CellularityReport(True, cellular, admissible, tuple(witnesses)), eps


def _named_rows(names: Sequence[str], eps: Rows, cellular: bool) -> Rows:
    """The pass's rows with each id turned into its name, in one go, which
    also pins none of the memory the pass freed (peak RSS).  On a cellular
    poset every row is an element's, over elements."""
    if cellular:
        return {names[x]: {names[w]: e for w, e in row.items()} for x, row in eps.items()}

    def name(cell):
        return names[cell] if type(cell) is int else (names[cell[0]], cell[1], cell[2])

    return {name(c): [name(cell) for cell in row] if isinstance(row, list)
            else {name(w): e for w, e in row.items()} for c, row in eps.items()}


def _cone_cells(x: int, labels: dict[int, tuple], reducer: _Reducer, live: dict[int, list[int]],
                eps: Rows) -> tuple[list[tuple], tuple[dict[int, int], dict[int, list[Column]]]]:
    """Put x's cells (x, k + 1, j) in `eps`: one over the j-th cell m in degree
    k of the minimal model M that `reducer` left of the cells with these
    labels, `live` its surviving cells, bounded by g(m) - (x, d_M m), g M's
    inclusion.  Returns the cells, and M's ranks and boundary columns from `_Reducer.model`."""
    model = reducer.model(live)
    cells = []
    for k in sorted(live):
        columns = model[1].get(k)
        for j, chain in enumerate(reducer.inclusions(k, live[k])):
            row = eps[x, k + 1, j] = {labels[k][i]: v for i, v in chain.items()}
            if columns:
                row.update(((x, k, i), -v) for i, v in columns[j].items())
            cells.append((x, k + 1, j))
    return cells, model


def _cellular_complex(poset: Poset, eps: Rows, members: Iterable[str],
                      reduced: bool = False) -> ChainComplex:
    """The chain complex of the elements `members`, A - B for a
    down-closed pair (A, B), from their `_cells`, with the rows of `eps`
    keyed by names."""
    return _checked(_cells(eps, poset.heights(), members, reduced,
                           key=poset.height_order().__getitem__))


def _checked(cells: tuple[dict[int, int], dict[int, list[dict]], dict[int, tuple]]) -> ChainComplex:
    """The chain complex of `_cells`; a d*d failure can only come from the
    incidences, so it raises InconsistentIncidence."""
    try:
        return ChainComplex(*cells)
    except NotAChainComplex as exc:
        raise InconsistentIncidence(f"cellular differential fails d*d=0: {exc}") from exc


def _cells(eps: Rows, degrees, members: Iterable[Hashable], reduced: bool = False,
           key=None) -> tuple[dict[int, int], dict[int, list[dict]], dict[int, tuple]]:
    """The ranks, boundary columns and labels of the cells of `members`,
    A - B for a down-closed pair (A, B), unchecked: by degree, in
    `Poset.height_order`, which `key` reads off a name and an id is,
    each with its row of `eps`, less the cells outside, as boundary.
    With reduced=True (B empty) an augmentation slot C_{-1} = Z is added,
    onto which every degree-0 cell maps."""
    levels: dict[int, list[Hashable]] = {}
    for e in sorted(members, key=key):
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


def cellular_pair_homology(poset: Poset, members: Iterable[str], dropped: Iterable[str] = (),
                           coefficients: Coefficients = "int") -> HomologySummary:
    """Homology of the down-closed pair (A, B) = (members, dropped) of
    a cellular poset, read off the cells of A - B.  It equals that of the
    order-complex pair (K(A), K(B)) of the induced subposets."""
    require_cellular(poset)
    keep, drop = set(members), set(dropped)
    if not drop <= keep or any(w not in part for part in (keep, drop)
                               for x in part for w in poset.lower_covers(x)):
        raise NotASubcomplex("cellular pair homology needs down-closed sets A containing B")
    return _pair_homology(poset, keep - drop, coefficients)


def _pair_homology(poset: Poset, cells: Iterable[str],
                   coefficients: Coefficients = "int") -> HomologySummary:
    """`cellular_pair_homology` of a pair down-closed by construction, from A - B."""
    return homology(_cellular_complex(poset, _cellular_pass(poset)[1], cells), coefficients)


def _gauge_sign(x: int, p: int, eps: Rows, reach: dict[int, frozenset[int]],
                degrees: list[int], rank: list[int], names: Sequence[str]) -> int:
    """The sign, in x's sphere generator, of the first sorted full flag of
    U.x along nonzero incidences, names compared by their `rank`: one walk
    over the sorted names takes each name that extends the flag so far,
    which holds one name per degree, as the new element of a chain from x:
    x or the flag's next name above steps to it, and it steps to the
    flag's next name below."""
    flag: list[int | None] = [None] * p
    found = 0
    for v in sorted(reach[x], key=rank.__getitem__):
        d = degrees[v]
        if flag[d] is not None:
            continue
        top = next((w for w in flag[d + 1:] if w is not None), x)
        bottom = next((w for w in reversed(flag[:d]) if w is not None), None)
        if v in reach[top] and (bottom is None or bottom in reach[v]):
            flag[d] = v
            found += 1
            if found == p:
                break
    else:
        raise ConsistencyError(f"no full flag below {names[x]!r} along nonzero incidences")
    # each name's sign is (-1)^(names before it among those still below)
    coeff, top = 1, x
    for d in range(p - 1, -1, -1):
        w = flag[d]
        coeff *= (-1) ** sum(rank[v] < rank[w] for v in flag[:d]) * eps[top][w]
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
    down-set of `element`.

    The order complex of the strict down-set has dimension p-1, so its
    top reduced cycles are exactly its top reduced homology; cellularity
    makes that group infinite cyclic and the kernel of the boundary has
    rank one.  The sign is fixed by making the coefficient of the
    lexicographically first simplex in the support positive: the gauge of
    the incidence numbers, which never build these cycles.
    """
    p = poset.degree(element)
    if p < 1:
        raise NotCellular("sphere generators exist only in degree >= 1")
    cached = poset.analysis_cache.setdefault("sphere_generators", {})
    if element in cached:
        return cached[element]
    chain = subposet_chain_complex(poset, poset.strictly_below(element), reduced=True)
    top = chain.labels.get(p - 1, ())
    mat = chain.boundary.get(p - 1)
    if mat is None or chain.rank(p) != 0:
        raise NotCellular(f"strict down-set of {element!r} has wrong dimension")
    basis = kernel_basis(mat)
    if len(basis) != 1:
        raise NotCellular(
            f"top homology below {element!r} has rank {len(basis)}, expected 1")
    vec = basis[0]
    for v in vec:
        if v != 0:
            if v < 0:
                vec = [-c for c in vec]
            break
    gen = SphereGenerator(element, {s: c for s, c in zip(top, vec) if c != 0})
    cached[element] = gen
    return gen


def cellular_chain_complex(poset: Poset) -> CellularComplexOfPoset:
    """The cellular chain complex of the poset, with the incidence numbers
    of the cellularity pass.

    Validates d*d = 0 and, on homologically admissible posets, that every
    incidence number is +-1.
    """
    cached = poset.analysis_cache.get("cellular_complex")
    if cached is not None:
        return cached
    require_cellular(poset)
    report, eps = _cellular_pass(poset)
    if report.is_homologically_admissible:
        bad = [(x, w) for x, row in eps.items() for w, e in row.items() if abs(e) != 1]
        if bad:
            raise NonUnitIncidenceOnAdmissible(
                f"admissible poset produced non-unit incidence at {sorted(bad)[:3]}")
    cell = CellularComplexOfPoset(poset=poset, complex=space_complex(poset), rows=eps,
                                  admissible=report.is_homologically_admissible)
    poset.analysis_cache["cellular_complex"] = cell
    return cell


def space_complex(poset: Poset) -> ChainComplex:
    """The chain model of the space, built once per poset: the cells of the
    pass without the augmentation cell, the cellular complex if cellular."""
    cached = poset.analysis_cache.get("space_complex")
    if cached is None:
        cached = poset.analysis_cache["space_complex"] = _cellular_complex(
            poset, _cellular_pass(poset)[1], poset.elements)
    return cached


def space_homology(poset: Poset, reduced: bool = False,
                   coefficients: Coefficients = "int") -> HomologySummary:
    """Homology of the finite space, read off `space_complex`; it equals
    `poset_homology` and lists the same degrees, 0 (or -1 when reduced)
    up to the height of the poset.  The integral summary is cached; the
    reduced one takes a free summand off H_0, the rational one drops the
    torsion."""
    if not poset.elements:
        if not reduced:
            raise EmptyPoset("unreduced homology of the empty poset is undefined")
        summary = sphere_summary(-1)
    else:
        cached = poset.analysis_cache.get("space_homology")
        if cached is None:
            found = homology(space_complex(poset))
            # the model may stop below the height of the poset
            cached = poset.analysis_cache["space_homology"] = HomologySummary(
                {k: found.b(k) for k in range(poset.height() + 1)}, found.torsion)
        summary = cached if not reduced else HomologySummary(
            {-1: 0, **cached.betti, 0: cached.b(0) - 1}, cached.torsion)
    return summary if coefficients == "int" else summary.rational()


def gauge_flip(cell: CellularComplexOfPoset, signs: dict[str, int]) -> CellularComplexOfPoset:
    """Flip the canonical sign of selected generators: the incidence row
    and column of each flipped element change sign, homology does not."""
    sign = lambda e: signs.get(e, 1)
    eps = {x: {w: sign(x) * e * sign(w) for w, e in row.items()} for x, row in cell.rows.items()}
    chain = _cellular_complex(cell.poset, eps, cell.poset.elements)
    return CellularComplexOfPoset(poset=cell.poset, complex=chain, rows=eps,
                                  admissible=cell.admissible)


def verify_cellular_agreement(poset: Poset) -> bool:
    """Cellular homology agrees with order-complex homology (betti and
    torsion in every degree)."""
    cell = cellular_chain_complex(poset)
    return homology(cell.complex) == poset_homology(poset)
