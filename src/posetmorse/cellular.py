"""Cellularity, homological admissibility, and the cellular chain complex
of a poset with explicitly computed incidence numbers.

One pass over the elements by degree decides all three, as Massey builds
incidences for regular CW complexes (for posets: Minian, Topology Appl.
159, 2012).  Once every element of U.x is cellular, H(U.x) is that of the
cellular complex restricted to U.x, |U.x| cells instead of its chains,
and its `minimal_model` decides it: U.x is a homology (p-1)-sphere, p =
deg x, exactly when the model is one cell in degree p-1.  The chain that
cell stands for generates ker d_{p-1} on U.x, whose columns are x's
lower covers, so it is eps(x, .), and by the exact sequence of
(U.x, U.x - {w}) the cover (w, x) is admissible exactly when
eps(x, w) = +-1.  The same sequence decides the covers of a
non-cellular x with no homology at all: w is maximal in U.x, so by
excision the pair has the homology of (U_w, U.w), Z in degree p-1 when w
is cellular, and then U.x - {w} is acyclic only if U.x has the homology
of S^{p-1}.  Where U.x holds a non-cellular element, the beat-point
cores of U.x and of the remaining U.x - {w} decide x and its covers
(`core_homology`): removing a beat point is a strong deformation
retract, so a core has the homology of its order complex, and most cores
are antichains, whose homology is their size.  The sign gauge is that of
`sphere_generator`: the first sorted full flag of U.x whose steps all
have nonzero incidence, found greedily, has a positive coefficient,
(-1)^(names before w) * eps(x, w) times the coefficient of the rest of
the flag in w's generator, w its top element.

One assembler builds every cellular complex from the pass's incidence
rows: the complex of a down-closed pair (A, B) has the cells of A - B.
It gives the pass its down-sets, the whole complex, and the homology of
the theorem checks' sublevel and basic-set pairs in |A - B| cells.

The homology of the space itself has one route, `space_homology`: it
reads `space_complex`, the cellular complex of a cellular poset, else
the order complex of the poset's beat-point core, a strong deformation
retract.  Both are built once per poset and shared with the hccat
witness.  The order complex of the whole poset (`poset_homology`) stays
the definition that `verify_cellular_agreement` checks this against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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
    core_homology,
    homology,
    minimal_model,
    poset_homology,
    sphere_summary,
    subposet_chain_complex,
)
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


Rows = dict[str, dict[str, int]]  # eps[x][w] for every lower cover w of x


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
    return _cellular_pass(poset)[0]


def _cellular_pass(poset: Poset) -> tuple[CellularityReport, Rows | None]:
    """The cellularity report and, on cellular posets, the incidence
    rows, from one pass over the elements by degree; cached per poset."""
    cached = poset.analysis_cache.get("cellularity")
    if cached is None:
        cached = poset.analysis_cache["cellularity"] = (
            _degree_induction(poset) if poset.is_graded() else (_ungraded_report(poset), None))
    return cached


def _ungraded_report(poset: Poset) -> CellularityReport:
    bad = [(w, x) for w, x in poset.covers if poset.heights()[x] != poset.heights()[w] + 1]
    return CellularityReport(False, False, False, tuple(
        ("not-graded", f"{w}<{x}", "cover skips a height level") for w, x in sorted(bad)))


def _degree_induction(poset: Poset) -> tuple[CellularityReport, Rows | None]:
    degrees = poset.heights()
    # eps[x] once every element of U_x is cellular; reach[x]: the elements
    # below x along covers of nonzero incidence
    eps: Rows = {}
    reach: dict[str, frozenset[str]] = {}
    not_cellular: dict[str, HomologySummary] = {}
    not_admissible: list[tuple[str, str]] = []
    for x in sorted(poset.elements, key=degrees.__getitem__):
        p, lower, below = degrees[x], poset.lower_covers(x), poset.strictly_below(x)
        if p == 0:
            eps[x], reach[x] = {}, below
            continue
        if all(w in eps for w in lower):
            model = minimal_model(_cellular_complex(poset, eps, below, reduced=True))
            if model.complex.ranks != {p - 1: 1}:
                not_cellular[x] = homology(model.complex)
        else:
            # U.x holds a non-cellular element: beat-point cores decide
            model, summary = None, core_homology(poset, below)
            if summary != sphere_summary(p - 1):
                not_cellular[x] = summary
        if model is None or x in not_cellular:
            # exact sequence of the pair: below a non-cellular x, U.x - {w}
            # is not acyclic when w is cellular
            not_admissible += [(w, x) for w in lower
                               if x in not_cellular and w not in not_cellular
                               or not core_homology(poset, below - {w}).is_trivial()]
            continue
        # the one cell's inclusion: a generator of the top cycles of U.x
        generator = model.inclusion[p - 1][0]
        eps[x] = {w: generator.get(i, 0) for i, w in enumerate(lower)}
        steps = [w for w in lower if eps[x][w]]
        # shares the down-set where every step has nonzero incidence, as on
        # every admissible poset
        shared = len(steps) == len(lower) and all(
            reach[w] is poset.strictly_below(w) for w in steps)
        reach[x] = below if shared else frozenset(steps).union(*(reach[w] for w in steps))
        if _gauge_sign(x, p, eps, reach, degrees) < 0:
            eps[x] = {w: -e for w, e in eps[x].items()}
        not_admissible += [(w, x) for w in lower if abs(eps[x][w]) != 1]
    witnesses = [("not-cellular", x, f"strict down-set has {not_cellular[x]}")
                 for x in poset.elements if x in not_cellular]
    witnesses += [("not-admissible", f"{w}<{x}", "punctured down-set is not acyclic")
                  for w, x in sorted(not_admissible)]
    cellular, admissible = not not_cellular, not not_admissible
    # admissibility forces cellularity (with the empty set not acyclic)
    if admissible and not cellular:
        raise ConsistencyError("admissible but non-cellular: check bug")
    # kept rows copied in one go pin none of the memory the pass freed (peak RSS)
    return CellularityReport(True, cellular, admissible, tuple(witnesses)), (
        {x: dict(row) for x, row in eps.items()} if cellular else None)


def _cellular_complex(poset: Poset, eps: Rows, members: Iterable[str],
                      dropped: Iterable[str] = (), reduced: bool = False) -> ChainComplex:
    """The cellular chain complex of a down-closed pair (A, B) = (members,
    dropped): the cells of A - B by degree, in poset order, each with
    its row of `eps`, less the cells of B, as boundary.  With
    reduced=True and B empty an augmentation slot C_{-1} = Z is added,
    onto which every degree-0 cell maps.  A d*d failure can only come
    from the incidences, so it raises InconsistentIncidence."""
    degrees, index, drop = poset.heights(), poset.index, set(dropped)
    levels: dict[int, list[str]] = {}
    for e in sorted(set(members) - drop, key=lambda e: (degrees[e], index[e])):
        levels.setdefault(degrees[e], []).append(e)
    rows = {e: i for cells in levels.values() for i, e in enumerate(cells)}
    ranks = {p: len(cells) for p, cells in levels.items()}
    boundary = {p: [{rows[w]: e for w, e in eps[x].items() if e and w in rows}
                    for x in levels[p]] for p in levels if p - 1 in levels}
    if reduced and not drop:
        ranks[-1] = 1
        boundary[0] = [{0: 1} for _ in levels.get(0, ())]
    try:
        return ChainComplex(ranks, boundary, {p: tuple(cells) for p, cells in levels.items()})
    except NotAChainComplex as exc:
        raise InconsistentIncidence(f"cellular differential fails d*d=0: {exc}") from exc


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
    return homology(_cellular_complex(poset, _cellular_pass(poset)[1], keep, drop), coefficients)


def _gauge_sign(x: str, p: int, eps: dict[str, dict[str, int]],
                reach: dict[str, frozenset[str]], degrees: dict[str, int]) -> int:
    """The sign, in x's sphere generator, of the first sorted full flag of
    U.x along nonzero incidences: p times the smallest name still on such
    a flag with those taken so far."""
    names, flag = sorted(reach[x]), []
    while len(flag) < p:
        start = names.index(flag[-1]) + 1 if flag else 0
        for name in names[start:]:
            chain = sorted(flag + [name], key=degrees.__getitem__, reverse=True)
            if all(e in reach[top] for top, e in zip([x] + chain, chain)):
                flag.append(name)
                break
        else:
            raise ConsistencyError(f"no full flag below {x!r} along nonzero incidences")
    coeff, top = 1, x
    for w in sorted(flag, key=degrees.__getitem__, reverse=True):
        coeff *= (-1) ** flag.index(w) * eps[top][w]
        flag.remove(w)
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
    chain = _cellular_complex(poset, eps, poset.elements)
    if report.is_homologically_admissible:
        bad = [(x, w) for x, row in eps.items() for w, e in row.items() if abs(e) != 1]
        if bad:
            raise NonUnitIncidenceOnAdmissible(
                f"admissible poset produced non-unit incidence at {sorted(bad)[:3]}")
    cell = CellularComplexOfPoset(poset=poset, complex=chain, rows=eps,
                                  admissible=report.is_homologically_admissible)
    poset.analysis_cache["cellular_complex"] = cell
    return cell


def space_complex(poset: Poset) -> ChainComplex:
    """A chain model of the space, built once per poset: the cellular
    complex of a cellular poset, |P| cells, and otherwise the order
    complex of the beat-point core, which has the homotopy type of the
    poset (Stong, Trans. AMS 123, 1966)."""
    if check_cellularity(poset).is_cellular:
        return cellular_chain_complex(poset).complex
    cached = poset.analysis_cache.get("core_complex")
    if cached is None:
        cached = poset.analysis_cache["core_complex"] = subposet_chain_complex(
            poset, poset.beat_point_core())
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
            # a core's order complex may stop below the height of the poset
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
