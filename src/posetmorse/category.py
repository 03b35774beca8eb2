"""Homological chain category, its minimal subcomplex witness, the algebraic
gradient flow, and the Lusternik-Schnirelmann bound.

hccat of a space or complex is total Betti number plus twice the total
count of torsion generators; the minimal subcomplex realizes that value
as an honest quasi-isomorphic subcomplex, with rank b_k + mu_k + mu_{k-1}
in each degree: cycle representatives for the free classes, cycle
representatives for the torsion classes, and chains whose boundaries are
the torsion multiples one degree down.  The Smith form of each boundary
gives the cycles and the bounding chains; one more per degree aligns the
cycles with the boundaries.

The flow-invariant complex of a Morse matching is its Morse complex: one
basis chain Phi^inf(c) per critical element c, got by iterating the flow
phi = Id + dV + Vd on sparse chains.  Both the witness inclusion and the
flow-invariant complex are verified quasi-isomorphisms by the
mapping-cone criterion: an injective chain map induces isomorphisms on
all homology exactly when its mapping cone is acyclic, which the sparse
homology engine decides.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cellular import (CellularComplexOfPoset, cellular_chain_complex, require_admissible,
                       space_homology)
from .dynamics import (
    Matching,
    basic_sets,
    critical_counts,
    is_morse_matching,
    orbit_counts,
    perturb_to_morse,
    prime_orbits,
)
from .errors import ConsistencyError, NotAChainComplex, NotMorse, NotMorseMatching
from .homology import ChainComplex, HomologySummary, homology, subposet_chain_complex
from .intmatrix import Column, IntMatrix
from .morse import is_morse_function, morse_function_to_matching
from .posets import Poset
from .snf import SmithDecomposition, matrix_rank, smith_normal_form, solve, sparse_diagonal_form


def hccat_of_summary(summary: HomologySummary) -> int:
    return summary.total_betti() + 2 * summary.total_mu()


def hccat(space) -> int:
    """Homological chain category of a poset, chain complex, or summary.

    The value only sees homology, so homology-equivalent spaces score the
    same: any integral homology 3-sphere gets 2 just like the 3-sphere,
    even when finer invariants of the space differ.  An acyclic space
    scores exactly 1.  A poset's homology is `space_homology`: that of
    its cellular complex, or of the order complex of its beat-point core.
    """
    if isinstance(space, HomologySummary):
        return hccat_of_summary(space)
    if isinstance(space, ChainComplex):
        return hccat_of_summary(homology(space))
    if isinstance(space, Poset):
        return hccat_of_summary(space_homology(space))
    raise TypeError(f"cannot take hccat of {type(space).__name__}")


# -- quasi-isomorphism verification -------------------------------------------


def verify_quasi_isomorphism(sub: ChainComplex, inclusion: dict[int, IntMatrix],
                             ambient: ChainComplex) -> bool:
    """Inclusion is an injective chain map inducing isomorphisms on all
    homology.

    After the shape and injectivity checks, the map i is a
    quasi-isomorphism exactly when its mapping cone, Cone_p = S_{p-1} + A_p
    with d(s, a) = (-ds, i(s) + da), is acyclic (Weibel, Cor. 1.5.4).  The
    cone's d*d vanishes exactly when i commutes with the boundaries, so a
    map that is not a chain map fails the cone's own d*d check.
    """
    for p in sub.degrees():
        inc = inclusion.get(p)
        if inc is None or inc.cols != sub.rank(p) or inc.rows != ambient.rank(p):
            return False
        if matrix_rank(inc) != sub.rank(p):
            return False
    degrees = sorted({p + 1 for p in sub.ranks} | set(ambient.ranks))
    columns: dict[int, list[Column]] = {}
    for p in degrees:
        shift = sub.rank(p - 2)  # the S_{p-2} rows come first in Cone_{p-1}
        cone: list[Column] = []
        if sub.rank(p - 1):
            s_cols = sub.columns.get(p - 1, [{}] * sub.rank(p - 1))
            for s_col, i_col in zip(s_cols, inclusion[p - 1].sparse_columns()):
                col = {i: -v for i, v in s_col.items()}
                col.update((shift + i, v) for i, v in i_col.items())
                cone.append(col)
        for a_col in ambient.columns.get(p, [{}] * ambient.rank(p)):
            cone.append({shift + i: v for i, v in a_col.items()})
        columns[p] = cone
    try:
        cone_complex = ChainComplex({p: sub.rank(p - 1) + ambient.rank(p) for p in degrees},
                                    columns)
    except NotAChainComplex:
        return False
    return homology(cone_complex).is_trivial()


# -- minimal quasi-isomorphic subcomplex ---------------------------------------


@dataclass(frozen=True)
class MinimalSubcomplex:
    complex: ChainComplex
    inclusion: dict[int, IntMatrix]
    rank_profile: dict[int, int]
    quasi_isomorphism_verified: bool


def _homology_coordinates(complex: ChainComplex, degree: int,
                          snf_here: SmithDecomposition | None):
    """SNF-aligned coordinates for H_degree of the complex, given the Smith
    form d = U*D*V of the boundary out of this degree (None: no boundary).

    Returns (Zprime, factors): the columns of Zprime form a basis of the
    cycle lattice in which the boundary lattice is spanned by
    factors[i] * column_i (factor 0 marks a free position).  The cycles
    are the columns of V^-1 at the zero positions of D, and V sends a
    cycle to its coordinates there.
    """
    n = complex.rank(degree)
    d_up = complex.boundary.get(degree + 1)
    if snf_here is None:
        Z, Y = IntMatrix.identity(n), d_up
    else:
        diag = snf_here.diagonal
        free = [j for j in range(n) if j >= len(diag) or diag[j] == 0]
        Z = IntMatrix.from_columns([snf_here.V_inv.column(j) for j in free], n)
        Y = None
        if d_up is not None and free:
            image = snf_here.V @ d_up
            if any(any(image.data[j]) for j in range(len(diag)) if diag[j]):
                raise ConsistencyError("boundary image escaped the cycle lattice")
            Y = IntMatrix(len(free), d_up.cols, [image.data[j] for j in free])
    if Y is None:
        return Z, [0] * Z.cols
    snf_y = smith_normal_form(Y)
    return Z @ snf_y.U, list(snf_y.diagonal) + [0] * (Z.cols - len(snf_y.diagonal))


def minimal_subcomplex(ambient: ChainComplex) -> MinimalSubcomplex:
    """The minimal-rank quasi-isomorphic subcomplex built from SNF data.

    In degree k the basis is: free homology representatives, torsion
    representatives (factor >= 2), and for every degree-(k-1) torsion
    class a chain whose boundary is its torsion multiple.  The boundary
    is diagonal by construction: the extra chains map onto t_j times the
    torsion representatives below, everything else is a cycle.
    """
    degrees = ambient.degrees()
    snf = {p: smith_normal_form(d) for p, d in ambient.boundary.items()}
    basis: dict[int, list[list[int]]] = {p: [] for p in degrees}
    kinds: dict[int, list[tuple[str, int]]] = {p: [] for p in degrees}
    torsion_reps: dict[int, list[tuple[list[int], int]]] = {}
    for p in degrees:
        Zprime, factors = _homology_coordinates(ambient, p, snf.get(p))
        reps: list[tuple[list[int], int]] = []
        for i, t in enumerate(factors):
            col = Zprime.column(i)
            if t == 0:
                basis[p].append(col)
                kinds[p].append(("free", 0))
            elif t >= 2:
                basis[p].append(col)
                kinds[p].append(("torsion", t))
                reps.append((col, t))
        torsion_reps[p] = reps
    for p in degrees:
        lower = torsion_reps.get(p - 1, [])
        if not lower:
            continue
        if p not in snf:
            raise ConsistencyError("torsion below with no boundary above")
        for rep, t in lower:
            chain = solve(ambient.boundary[p], [t * v for v in rep], snf[p])
            if chain is None:
                raise ConsistencyError("torsion multiple is not a boundary")
            basis[p].append(chain)
            kinds[p].append(("bounding", t))

    ranks = {p: len(basis[p]) for p in degrees if basis[p]}
    inclusion = {p: IntMatrix.from_columns(basis[p], ambient.rank(p))
                 for p in degrees if basis[p]}
    boundary: dict[int, IntMatrix] = {}
    for p in degrees:
        if not basis[p] or not basis.get(p - 1):
            continue
        rows = len(basis[p - 1])
        cols = len(basis[p])
        data = [[0] * cols for _ in range(rows)]
        torsion_positions = [i for i, (kind, _) in enumerate(kinds[p - 1]) if kind == "torsion"]
        bounding_positions = [j for j, (kind, _) in enumerate(kinds[p]) if kind == "bounding"]
        if len(torsion_positions) != len(bounding_positions):
            raise ConsistencyError("torsion classes and bounding chains do not pair up")
        for i, j in zip(torsion_positions, bounding_positions):
            data[i][j] = kinds[p][j][1]
        boundary[p] = IntMatrix(rows, cols, data)
    sub = ChainComplex(ranks, boundary)
    verified = verify_quasi_isomorphism(sub, inclusion, ambient)
    return MinimalSubcomplex(
        complex=sub,
        inclusion=inclusion,
        rank_profile={p: sub.rank(p) for p in sub.degrees()},
        quasi_isomorphism_verified=verified,
    )


# -- flow operator --------------------------------------------------------------


@dataclass(frozen=True)
class FlowData:
    """The flow-invariant complex, that is the Morse complex: `inclusion[p]`
    has one column Phi^inf(c) per critical element c of degree p, in
    level order, and `invariant_complex` is the boundary in that basis."""

    invariant_ranks: dict[int, int]
    invariant_complex: ChainComplex
    inclusion: dict[int, IntMatrix]
    rank_matches_critical: bool
    quasi_isomorphism_verified: bool


def _apply(columns: list[Column], chain: Column, start: Column | None = None) -> Column:
    """start + the image of a sparse chain under the map with these columns."""
    out = dict(start or {})
    for j, a in chain.items():
        for i, v in columns[j].items():
            out[i] = out.get(i, 0) + a * v
    return {i: v for i, v in out.items() if v}


def flow_operator(poset: Poset, matching: Matching,
                  cell: CellularComplexOfPoset | None = None) -> FlowData:
    """phi = Id + dV + Vd for a Morse matching, with its invariant complex.

    V sends a matched lower element x to -<d t(x), x> t(x).  phi is
    iterated on each critical element c until it stops changing (a
    gradient path visits distinct p-cells, so n_p + 1 steps suffice).  The
    limits Phi^inf(c) have critical coordinates e_c and form a basis of
    the phi-invariant chains (Forman, "Morse theory for cell complexes",
    Adv. Math. 1998, sections 6-8), so the boundary in that basis is the
    critical part of d Phi^inf(c); the rest is checked against it.  The
    rank check counts the invariant chains apart, as n_p - rank(dV + Vd).
    """
    require_admissible(poset)
    if not is_morse_matching(poset, matching):
        raise NotMorseMatching("the flow operator needs an acyclic matching")
    if cell is None:
        cell = cellular_chain_complex(poset)
    top = poset.max_degree()
    levels = {p: poset.level(p) for p in range(top + 1)}
    position = {p: {e: i for i, e in enumerate(levels[p])} for p in levels}
    d = {p: cell.complex.columns.get(p, [{}] * len(levels[p])) for p in levels}
    V: dict[int, list[Column]] = {p: [] for p in levels}
    for p, names in levels.items():
        for x in names:
            y = matching.target(x)
            V[p].append({} if y is None else {position[p + 1][y]: -cell.epsilon(y, x)})
    matched = matching.matched_elements()
    critical = {p: [position[p][e] for e in levels[p] if e not in matched] for p in levels}
    limits: dict[int, list[Column]] = {}
    rank_ok = True
    for p, names in levels.items():
        deviation = [_apply(V.get(p - 1, []), d[p][j], _apply(d.get(p + 1, []), V[p][j]))
                     for j in range(len(names))]  # the columns of dV + Vd
        rank = sum(1 for f in sparse_diagonal_form(deviation, len(names)) if f)
        rank_ok = rank_ok and len(names) - rank == len(critical[p])
        limits[p] = []
        for c in critical[p]:
            chain = {c: 1}
            for _ in range(len(names) + 1):
                image = _apply(deviation, chain, chain)  # phi(chain)
                if image == chain:
                    break
                chain = image
            else:
                raise ConsistencyError("the flow does not stabilize on a critical element")
            limits[p].append(chain)
    boundary: dict[int, list[Column]] = {}
    for p in range(1, top + 1):
        below = {i: k for k, i in enumerate(critical[p - 1])}
        boundary[p] = []
        for chain in limits[p]:
            image = _apply(d[p], chain)
            coordinates = {below[i]: v for i, v in image.items() if i in below}
            if image != _apply(limits[p - 1], coordinates):
                raise ConsistencyError("flow-invariant chains are not closed under d")
            boundary[p].append(coordinates)
    ranks = {p: len(critical[p]) for p in levels}
    invariant = ChainComplex(ranks, boundary)
    inclusion = {p: IntMatrix.from_sparse_columns(limits[p], len(levels[p]))
                 for p in levels if limits[p]}
    return FlowData(
        invariant_ranks=ranks,
        invariant_complex=invariant,
        inclusion=inclusion,
        rank_matches_critical=rank_ok,
        quasi_isomorphism_verified=verify_quasi_isomorphism(invariant, inclusion, cell.complex),
    )


# -- Lusternik-Schnirelmann ------------------------------------------------------


@dataclass(frozen=True)
class LSReport:
    hccat_value: int
    basic_set_bound: int
    perturbed_counts: dict[int, int]
    flow_ranks: dict[int, int]
    holds: bool
    intermediate_holds: bool
    counts_match_formula: bool
    class_values: list[tuple[str, int, int]]
    warnings: tuple[str, ...] = ()

    def to_doc(self) -> dict:
        return {
            "hccat": self.hccat_value,
            "basic_set_bound": self.basic_set_bound,
            "perturbed_counts": {str(k): v for k, v in sorted(self.perturbed_counts.items())},
            "flow_ranks": {str(k): v for k, v in sorted(self.flow_ranks.items())},
            "holds": self.holds,
            "intermediate_holds": self.intermediate_holds,
            "counts_match_formula": self.counts_match_formula,
            "class_values": [list(v) for v in self.class_values],
            "warnings": list(self.warnings),
        }


def ls_theorem_check(poset: Poset, matching: Matching) -> LSReport:
    """hccat(X) <= sum over basic sets of hccat(basic set).

    Critical points count 1 and closed orbits 2, exactly as the theorem's
    proof evaluates them; a cross-check recomputes each orbit class as a
    subspace and warns (not errs) on disagreement.  The intermediate
    bound sum_p m*_p = sum_p (c_p + A_p + A_{p-1}) counts the critical
    elements of the perturbed matching; its flow operator must confirm
    them, with as many invariant chains as critical elements per degree
    and an invariant complex quasi-isomorphic to the cellular one.
    """
    require_admissible(poset)
    orbits = prime_orbits(poset, matching)
    dec = basic_sets(poset, matching)
    value = hccat(poset)
    rhs = len(dec.critical) + 2 * len(dec.orbit_classes)
    warnings: list[str] = []
    class_values: list[tuple[str, int, int]] = []
    for e in dec.critical:
        recomputed = hccat(subposet_chain_complex(poset, (e,)))
        class_values.append((e, 1, recomputed))
        if recomputed != 1:
            warnings.append(f"critical point {e} recomputed hccat {recomputed} != 1")
    for cls in dec.orbit_classes:
        recomputed = hccat(subposet_chain_complex(poset, cls.elements))
        class_values.append((cls.elements[0], 2, recomputed))
        if recomputed != 2:
            warnings.append(
                f"orbit class at {cls.elements[0]} recomputed hccat {recomputed} != 2")
    perturbed, _removed = perturb_to_morse(poset, matching)
    mstar = critical_counts(poset, perturbed)
    c = critical_counts(poset, matching)
    A = orbit_counts(orbits)
    top = poset.max_degree()
    formula_ok = all(
        mstar.get(p, 0) == c.get(p, 0) + A.get(p, 0) + A.get(p - 1, 0)
        for p in range(top + 1)
    )
    flow = flow_operator(poset, perturbed)
    intermediate = sum(mstar.values())
    return LSReport(
        hccat_value=value,
        basic_set_bound=rhs,
        perturbed_counts={p: mstar.get(p, 0) for p in range(top + 1)},
        flow_ranks=flow.invariant_ranks,
        holds=value <= rhs,
        intermediate_holds=value <= intermediate and intermediate == rhs,
        counts_match_formula=(formula_ok and flow.rank_matches_critical
                              and flow.quasi_isomorphism_verified),
        class_values=class_values,
        warnings=tuple(warnings),
    )


def ls_corollary_morse_function(poset: Poset, values) -> dict:
    """hccat(X) is a lower bound for the number of critical points of a
    Morse function."""
    require_admissible(poset)
    verdict = is_morse_function(poset, values)
    if not verdict.is_morse:
        raise NotMorse(f"function is not Morse at {verdict.violations[:3]}")
    matching = morse_function_to_matching(poset, values)
    matched = matching.matched_elements()
    crit = [e for e in poset.elements if e not in matched]
    if tuple(crit) != verdict.critical:
        raise ConsistencyError("matching leaves other elements unmatched than the "
                               "Morse function's critical points")
    value = hccat(poset)
    return {
        "hccat": value,
        "critical_count": len(crit),
        "holds": value <= len(crit),
        "critical": list(verdict.critical),
    }
