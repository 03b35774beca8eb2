"""Cellularity, homological admissibility, and the cellular chain complex
of a poset with explicitly computed incidence numbers.

The incidence number of a cover (w, x) with deg x = p is the coefficient
of the basis class of w when the connecting image of the basis class of x
is written in the relative homology of the skeleton pair below.  Degree-p
basis classes are represented by cones x * g_x over explicit sphere
generators g_x, and the top-dimensional simplices of the order complex of
a skeleton are full flags, so the relative cycle group in which we expand
is freely spanned by the cones w * g_w.  That turns the expansion into an
exact componentwise division: group the flags of g_x by their maximal
element w, un-cone, and divide by g_w.  Boundaries of higher chains and
chains of the lower skeleton contribute nothing because the relevant
order complexes have no simplices in those dimensions.

Every order complex here is that of a subposet (a strict or punctured
down-set) and is read off the poset's cached chains by
`subposet_chain_complex`; no induced subposet is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ConsistencyError,
    NotAChainComplex,
    InconsistentIncidence,
    NonUnitIncidenceOnAdmissible,
    NotAdmissible,
    NotCellular,
    NotGraded,
)
from .homology import (
    ChainComplex,
    homology,
    poset_homology,
    sphere_summary,
    subposet_chain_complex,
)
from .posets import GradedPoset, Poset
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

    def scaled(self, sign: int) -> "SphereGenerator":
        return SphereGenerator(self.element, {s: sign * c for s, c in self.cycle.items()})


@dataclass(frozen=True)
class CellularComplexOfPoset:
    poset: GradedPoset
    complex: ChainComplex
    incidence: dict[tuple[str, str], int]
    generators: dict[str, SphereGenerator]
    admissible: bool

    def epsilon(self, x: str, w: str) -> int:
        return self.incidence[(x, w)]

    def incidence_table(self) -> list[list]:
        return [[x, w, e] for (x, w), e in sorted(self.incidence.items())]


def check_cellularity(poset: Poset) -> CellularityReport:
    """Verify gradedness, sphere down-sets, and punctured acyclicity."""
    cached = poset.analysis_cache.get("cellularity")
    if cached is not None:
        return cached
    if not poset.is_graded():
        bad = [(w, x) for w, x in poset.covers
               if poset.heights()[x] != poset.heights()[w] + 1]
        witnesses = tuple(("not-graded", f"{w}<{x}", "cover skips a height level")
                          for w, x in sorted(bad))
        report = CellularityReport(False, False, False, witnesses)
        poset.analysis_cache["cellularity"] = report
        return report
    witnesses: list[tuple[str, str, str]] = []
    cellular = True
    degrees = poset.heights()
    below = {e: poset.strictly_below(e) for e in poset.elements}
    for x in poset.elements:
        p = degrees[x]
        summary = homology(subposet_chain_complex(poset, below[x], reduced=True))
        if summary != sphere_summary(p - 1):
            cellular = False
            witnesses.append(("not-cellular", x, f"strict down-set has {summary}"))
    admissible = True
    for w, x in sorted(poset.covers):
        punctured = subposet_chain_complex(poset, below[x] - {w}, reduced=True)
        if not homology(punctured).is_trivial():
            admissible = False
            witnesses.append(("not-admissible", f"{w}<{x}",
                              "punctured down-set is not acyclic"))
    # admissibility forces cellularity (with the empty set not acyclic)
    if admissible and not cellular:
        raise ConsistencyError("admissible but non-cellular: check bug")
    report = CellularityReport(True, cellular, admissible, tuple(witnesses))
    poset.analysis_cache["cellularity"] = report
    return report


def require_cellular(poset: Poset) -> GradedPoset:
    report = check_cellularity(poset)
    if not report.is_graded:
        raise NotGraded("poset is not graded")
    if not report.is_cellular:
        raise NotCellular(f"poset is not cellular: {report.witnesses[:3]}")
    return poset.as_graded()


def require_admissible(poset: Poset) -> GradedPoset:
    report = check_cellularity(poset)
    if not (report.is_graded and report.is_cellular and report.is_homologically_admissible):
        raise NotAdmissible(f"poset is not homologically admissible: {report.witnesses[:3]}")
    return poset.as_graded()


def _cone_sign(member: str, simplex: Simplex) -> int:
    """Sign of prepending `member` to the chain `simplex` in sorted order."""
    return (-1) ** sorted(simplex + (member,)).index(member)


def sphere_generator(poset: Poset, element: str) -> SphereGenerator:
    """Canonical generator of the top reduced homology of the strict
    down-set of `element`.

    The order complex of the strict down-set has dimension p-1, so its
    top reduced cycles are exactly its top reduced homology; cellularity
    makes that group infinite cyclic and the kernel of the boundary has
    rank one.  The sign is fixed by making the coefficient of the
    lexicographically first simplex in the support positive.
    """
    graded = poset.as_graded()
    p = graded.degree(element)
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


def _incidence_from_generators(poset: GradedPoset) -> tuple[dict, dict]:
    """Incidence numbers via cone decomposition of the sphere generators."""
    incidence: dict[tuple[str, str], int] = {}
    generators: dict[str, SphereGenerator] = {}
    degrees = poset.degrees
    for x in poset.elements:
        if degrees[x] >= 1:
            generators[x] = sphere_generator(poset, x)
    for x in poset.elements:
        p = degrees[x]
        if p < 1:
            continue
        g_x = generators[x]
        # group the flags of g_x by their order-maximal element
        parts: dict[str, dict[Simplex, int]] = {}
        for simplex, coeff in g_x.cycle.items():
            w = max(simplex, key=degrees.__getitem__)
            tail = tuple(v for v in simplex if v != w)
            parts.setdefault(w, {})[tail] = _cone_sign(w, tail) * coeff
        for w in poset.lower_covers(x):
            h_w = parts.pop(w, None)
            if h_w is None:
                incidence[(x, w)] = 0
                continue
            if p == 1:
                # flags below x are bare vertices; the cone basis is {[w]}
                if set(h_w) != {()}:
                    raise InconsistentIncidence("degree-1 flag decomposition broke")
                incidence[(x, w)] = h_w[()]
                continue
            g_w = generators[w]
            ratio = None
            for tail, coeff in g_w.cycle.items():
                got = h_w.get(tail, 0)
                if got % coeff != 0:
                    raise InconsistentIncidence(
                        f"flag component over {w!r} is not a multiple of its generator")
                r = got // coeff
                if ratio is None:
                    ratio = r
                elif r != ratio:
                    raise InconsistentIncidence(
                        f"flag component over {w!r} is not proportional to its generator")
            if set(h_w) - set(g_w.cycle):
                raise InconsistentIncidence(
                    f"flag component over {w!r} has stray support")
            incidence[(x, w)] = ratio if ratio is not None else 0
        if parts:
            raise InconsistentIncidence(
                f"generator of {x!r} has flags over non-covers {sorted(parts)}")
    return incidence, generators


def _incidence_complex(graded: GradedPoset, incidence: dict[tuple[str, str], int]) -> ChainComplex:
    """The chain complex with one generator per element, graded by degree,
    whose boundary sends x to the sum of incidence[(x, w)] * w over its
    lower covers w."""
    levels = {p: graded.level(p) for p in range(graded.max_degree() + 1)}
    boundary = {}
    for p in range(1, graded.max_degree() + 1):
        rows = {w: i for i, w in enumerate(levels[p - 1])}
        boundary[p] = [{rows[w]: incidence[(x, w)] for w in graded.lower_covers(x)
                        if incidence[(x, w)]} for x in levels[p]]
    try:
        return ChainComplex({p: len(names) for p, names in levels.items()}, boundary,
                            {p: tuple(names) for p, names in levels.items()})
    except NotAChainComplex as exc:
        raise InconsistentIncidence(f"cellular differential fails d*d=0: {exc}") from exc


def cellular_chain_complex(poset: Poset) -> CellularComplexOfPoset:
    """The cellular chain complex of the poset, with incidence numbers
    computed from sphere generators expanded through the skeleton pair.

    Validates d*d = 0 and, on homologically admissible posets, that every
    incidence number is +-1.
    """
    cached = poset.analysis_cache.get("cellular_complex")
    if cached is not None:
        return cached
    graded = require_cellular(poset)
    report = check_cellularity(poset)
    incidence, generators = _incidence_from_generators(graded)
    chain = _incidence_complex(graded, incidence)
    if report.is_homologically_admissible:
        bad = [(x, w) for (x, w), e in incidence.items() if abs(e) != 1]
        if bad:
            raise NonUnitIncidenceOnAdmissible(
                f"admissible poset produced non-unit incidence at {sorted(bad)[:3]}")
    cell = CellularComplexOfPoset(
        poset=graded, complex=chain, incidence=incidence,
        generators=generators, admissible=report.is_homologically_admissible)
    poset.analysis_cache["cellular_complex"] = cell
    return cell


def gauge_flip(cell: CellularComplexOfPoset, signs: dict[str, int]) -> CellularComplexOfPoset:
    """Flip the canonical sign of selected generators: the incidence row
    and column of each flipped element change sign, homology does not."""
    sign = lambda e: signs.get(e, 1)
    incidence = {(x, w): sign(x) * eps * sign(w)
                 for (x, w), eps in cell.incidence.items()}
    generators = {x: g.scaled(sign(x)) for x, g in cell.generators.items()}
    chain = _incidence_complex(cell.poset, incidence)
    return CellularComplexOfPoset(
        poset=cell.poset, complex=chain, incidence=incidence,
        generators=generators, admissible=cell.admissible)


def verify_cellular_agreement(poset: Poset) -> bool:
    """Cellular homology agrees with order-complex homology (betti and
    torsion in every degree)."""
    cell = cellular_chain_complex(poset)
    return homology(cell.complex) == poset_homology(poset)
