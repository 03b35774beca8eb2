"""Homological chain category, its minimal subcomplex witness, the algebraic
gradient flow, and the Lusternik-Schnirelmann bound.

hccat of a space or complex is total Betti number plus twice the total
count of torsion generators; the minimal subcomplex realizes that value
as an honest quasi-isomorphic subcomplex, with rank b_k + mu_k + mu_{k-1}
in each degree: cycle representatives for the free classes, cycle
representatives for the torsion classes, and chains whose boundaries are
the torsion multiples one degree down.

Both the witness inclusion and the flow-invariant complex are verified
quasi-isomorphisms by the mapping-cone criterion: an injective chain map
induces isomorphisms on all homology exactly when its mapping cone is
acyclic, which the sparse homology engine decides.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cellular import CellularComplexOfPoset, cellular_chain_complex, require_admissible
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
from .homology import ChainComplex, HomologySummary, homology, poset_homology, subposet_chain_complex
from .intmatrix import Column, IntMatrix
from .morse import is_morse_function, morse_function_to_matching
from .posets import Poset
from .simplicial import SimplicialComplex, face_poset
from .snf import kernel_basis, matrix_rank, smith_normal_form, solve


def hccat_of_summary(summary: HomologySummary) -> int:
    return summary.total_betti() + 2 * summary.total_mu()


def hccat(space) -> int:
    """Homological chain category of a poset, chain complex, or summary.

    The value only sees homology, so homology-equivalent spaces score the
    same: any integral homology 3-sphere gets 2 just like the 3-sphere,
    even when finer invariants of the space differ.  An acyclic space
    scores exactly 1.
    """
    if isinstance(space, HomologySummary):
        return hccat_of_summary(space)
    if isinstance(space, ChainComplex):
        return hccat_of_summary(homology(space))
    if isinstance(space, Poset):
        return hccat_of_summary(poset_homology(space))
    raise TypeError(f"cannot take hccat of {type(space).__name__}")


# -- quasi-isomorphism verification -------------------------------------------


def _homology_coordinates(complex: ChainComplex, degree: int):
    """SNF-aligned coordinates for H_degree of the complex.

    Returns (Zprime, factors): the columns of Zprime form a basis of the
    cycle lattice in which the boundary lattice is spanned by
    factors[i] * column_i (factor 0 marks a free position).
    """
    n = complex.rank(degree)
    d_here = complex.boundary.get(degree)
    if d_here is None:
        # no boundary out of this degree: every chain is a cycle
        kernel = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    else:
        kernel = kernel_basis(d_here)
    z = len(kernel)
    Z = IntMatrix.from_columns(kernel, n) if z else IntMatrix.zeros(n, 0)
    d_up = complex.boundary.get(degree + 1)
    if d_up is None or z == 0:
        Y = IntMatrix.zeros(z, 0)
    else:
        snf_z = smith_normal_form(Z)
        cols = []
        for j in range(d_up.cols):
            sol = solve(Z, d_up.column(j), snf_z)
            if sol is None:
                raise ConsistencyError("boundary image escaped the cycle lattice")
            cols.append(sol)
        Y = IntMatrix.from_columns(cols, z) if cols else IntMatrix.zeros(z, 0)
    snf_y = smith_normal_form(Y)
    diag = snf_y.diagonal
    factors = [diag[i] if i < len(diag) else 0 for i in range(z)]
    Zprime = Z @ snf_y.U if z else Z
    return Zprime, factors


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


def minimal_subcomplex(ambient: ChainComplex) -> MinimalSubcomplex:
    """The minimal-rank quasi-isomorphic subcomplex built from SNF data.

    In degree k the basis is: free homology representatives, torsion
    representatives (factor >= 2), and for every degree-(k-1) torsion
    class a chain whose boundary is its torsion multiple.  The boundary
    is diagonal by construction: the extra chains map onto t_j times the
    torsion representatives below, everything else is a cycle.
    """
    degrees = ambient.degrees()
    basis: dict[int, list[list[int]]] = {p: [] for p in degrees}
    kinds: dict[int, list[tuple[str, int]]] = {p: [] for p in degrees}
    torsion_reps: dict[int, list[tuple[list[int], int]]] = {}
    for p in degrees:
        Zprime, factors = _homology_coordinates(ambient, p)
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
        d_here = ambient.boundary.get(p)
        if d_here is None:
            raise ConsistencyError("torsion below with no boundary above")
        snf_d = smith_normal_form(d_here)
        for rep, t in lower:
            target = [t * v for v in rep]
            chain = solve(d_here, target, snf_d)
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
    V: dict[int, IntMatrix]
    phi: dict[int, IntMatrix]
    invariant_ranks: dict[int, int]
    invariant_complex: ChainComplex
    inclusion: dict[int, IntMatrix]
    rank_matches_critical: bool
    quasi_isomorphism_verified: bool


def flow_operator(poset: Poset, matching: Matching,
                  cell: CellularComplexOfPoset | None = None) -> FlowData:
    """phi = Id + dV + Vd for a Morse matching, with its invariant complex.

    V sends a matched lower element to minus-incidence times its partner;
    the phi-fixed chains form a subcomplex whose rank per degree is the
    number of critical elements and whose homology is that of the poset.
    """
    graded = require_admissible(poset)
    if not is_morse_matching(poset, matching):
        raise NotMorseMatching("the flow operator needs an acyclic matching")
    if cell is None:
        cell = cellular_chain_complex(poset)
    chain = cell.complex
    top = graded.max_degree()
    levels = {p: graded.level(p) for p in range(top + 1)}
    position = {p: {e: i for i, e in enumerate(levels[p])} for p in levels}
    V: dict[int, IntMatrix] = {}
    for p in range(top):
        rows = len(levels[p + 1])
        cols = len(levels[p])
        data = [[0] * cols for _ in range(rows)]
        for j, x in enumerate(levels[p]):
            y = matching.target(x)
            if y is not None:
                data[position[p + 1][y]][j] = -cell.epsilon(y, x)
        V[p] = IntMatrix(rows, cols, data)
    phi: dict[int, IntMatrix] = {}
    deviation: dict[int, IntMatrix] = {}
    for p in range(top + 1):
        n = len(levels[p])
        acc = IntMatrix.zeros(n, n)
        if p in V:
            acc = acc + chain.boundary_or_empty(p + 1) @ V[p]
        if p - 1 in V:
            acc = acc + V[p - 1] @ chain.boundary_or_empty(p)
        deviation[p] = acc
        phi[p] = IntMatrix.identity(n) + acc
    invariant_basis: dict[int, list[list[int]]] = {}
    for p in range(top + 1):
        invariant_basis[p] = kernel_basis(deviation[p]) if levels[p] else []
    inclusion = {p: IntMatrix.from_columns(cols, len(levels[p]))
                 for p, cols in invariant_basis.items() if cols}
    ranks = {p: len(cols) for p, cols in invariant_basis.items() if cols}
    boundary: dict[int, IntMatrix] = {}
    for p in sorted(ranks):
        d_p = chain.boundary_or_empty(p)
        images = [d_p.mul_vec(vec) for vec in invariant_basis[p]]
        if p - 1 not in ranks:
            if any(any(v) for v in images):
                raise ConsistencyError("flow-invariant chains are not closed under d")
            continue
        K_low = inclusion[p - 1]
        snf_low = smith_normal_form(K_low)
        cols = []
        for image in images:
            sol = solve(K_low, image, snf_low)
            if sol is None:
                raise ConsistencyError("flow-invariant chains are not closed under d")
            cols.append(sol)
        boundary[p] = IntMatrix.from_columns(cols, ranks[p - 1])
    invariant = ChainComplex(ranks, boundary)
    crit = critical_counts(poset, matching)
    rank_ok = all(ranks.get(p, 0) == crit.get(p, 0) for p in range(top + 1))
    quasi = verify_quasi_isomorphism(invariant, inclusion, chain)
    return FlowData(
        V=V,
        phi=phi,
        invariant_ranks={p: ranks.get(p, 0) for p in range(top + 1)},
        invariant_complex=invariant,
        inclusion=inclusion,
        rank_matches_critical=rank_ok,
        quasi_isomorphism_verified=quasi,
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
    bound sum_p m*_p = sum_p (c_p + A_p + A_{p-1}) is compared against
    the flow-operator invariant ranks of the perturbed matching.
    """
    graded = require_admissible(poset)
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
    top = graded.max_degree()
    formula_ok = all(
        mstar.get(p, 0) == c.get(p, 0) + A.get(p, 0) + A.get(p - 1, 0)
        for p in range(top + 1)
    )
    flow = flow_operator(poset, perturbed)
    ranks_match = all(flow.invariant_ranks.get(p, 0) == mstar.get(p, 0)
                      for p in range(top + 1))
    intermediate = sum(mstar.values())
    return LSReport(
        hccat_value=value,
        basic_set_bound=rhs,
        perturbed_counts={p: mstar.get(p, 0) for p in range(top + 1)},
        flow_ranks=flow.invariant_ranks,
        holds=value <= rhs,
        intermediate_holds=value <= intermediate and intermediate == rhs,
        counts_match_formula=formula_ok and ranks_match,
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


def hccat_face_poset_consistency(complex: SimplicialComplex) -> bool:
    """hccat through the simplicial chain complex equals hccat through
    the face-poset pipeline."""
    from .homology import simplicial_chain_complex
    direct = hccat(simplicial_chain_complex(complex))
    via_poset = hccat(face_poset(complex))
    return direct == via_poset
