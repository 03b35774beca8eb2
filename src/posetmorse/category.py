"""Homological chain category, its minimal subcomplex witness, the algebraic
gradient flow, and the Lusternik-Schnirelmann bound.

hccat of a space or complex is total Betti number plus twice the total
count of torsion generators; the minimal subcomplex realizes that value
as an honest quasi-isomorphic subcomplex, with rank b_k + mu_k + mu_{k-1}
in each degree.  It is `homology.minimal_model`: the sparse elimination
of +-1 pairs, then a Smith basis for the few boundaries of the reduced
complex that still have unit factors.  The Lusternik-Schnirelmann check
reads each basic set's hccat off its cells, and lists no chains.  It is
the paper's theorem for a general matching, and so also for a Morse-Bott
or Morse function, through the matching the function carries
(`morse.morse_function_to_matching`); there the bound is the number of
critical points.

The flow-invariant complex of a Morse matching is its Morse complex: the
same elimination, along the matched pairs, leaves one cell per critical
element c, and the chain it stands for is Phi^inf(c), the limit of
phi = Id + dV + Vd, on the cells in the order of the cellular complex's
labels, the poset's ids of each degree in order.  Both the witness
inclusion and the flow-invariant complex are verified quasi-isomorphisms:
each map is checked to commute with d, and an injective chain map induces
isomorphisms on all homology exactly when its mapping cone is acyclic,
which the sparse homology engine decides on the ambient's own columns.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .cellular import (_pair_homology, cellular_chain_complex, require_admissible, space_complex,
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
from .errors import ConsistencyError, NotMorseMatching
from .homology import (ChainComplex, HomologySummary, _apply, _homology, homology,
                       minimal_model, morse_reduction, smith_diagonal)
from .intmatrix import Column
from .posets import Poset


def hccat_of_summary(summary: HomologySummary) -> int:
    return summary.total_betti() + 2 * summary.total_mu()


def hccat(space) -> int:
    """Homological chain category of a poset, chain complex, or summary.

    The value only sees homology, so homology-equivalent spaces score the
    same: any integral homology 3-sphere gets 2 just like the 3-sphere,
    even when finer invariants of the space differ.  An acyclic space
    scores exactly 1.  A poset's homology is `space_homology`, read off
    the chain model of the cellularity pass.
    """
    if isinstance(space, HomologySummary):
        return hccat_of_summary(space)
    if isinstance(space, ChainComplex):
        return hccat_of_summary(homology(space))
    if isinstance(space, Poset):
        return hccat_of_summary(space_homology(space))
    raise TypeError(f"cannot take hccat of {type(space).__name__}")


# -- quasi-isomorphism verification -------------------------------------------


def verify_quasi_isomorphism(sub: ChainComplex, inclusion: dict[int, list[Column]],
                             ambient: ChainComplex) -> bool:
    """Inclusion is an injective chain map inducing isomorphisms on all
    homology.  `inclusion[p]` holds the image of each cell of C_p(sub) as
    a sparse column of C_p(ambient).

    The map needs a column per cell in every degree of `sub`, rows inside
    the ambient rank, full rank, read off `smith_diagonal`, and
    d(i(s)) = i(d(s)) for every cell s.  Then i is a quasi-isomorphism
    exactly when its mapping cone, Cone_p = A_p + S_{p-1} with
    d(a, s) = (da + i(s), -ds), is acyclic (Weibel, Cor. 1.5.4).  The
    rows of S_{p-2} follow those of A_{p-1}, so the ambient's own columns
    enter the cone as they are.  Both complexes were checked when built,
    and a chain map makes the cone's d*d vanish, so its ranks and columns
    go to `_homology` unchecked.
    """
    for p in sub.degrees():
        inc, rows = inclusion.get(p), ambient.rank(p)
        if inc is None or len(inc) != sub.rank(p) or any(
                not 0 <= i < rows for col in inc for i in col):
            return False
        if sum(1 for f in smith_diagonal(inc, rows) if f) != sub.rank(p):
            return False
        d_a, d_s = ambient.columns.get(p, [{}] * rows), sub.columns.get(p, [{}] * len(inc))
        if any(_apply(d_a, a) != _apply(inclusion.get(p - 1), s) for a, s in zip(inc, d_s)):
            return False
    ranks = {p: ambient.rank(p) + sub.rank(p - 1)
             for p in sorted({p + 1 for p in sub.ranks} | set(ambient.ranks))}
    columns: dict[int, list[Column]] = {}
    for p in ranks:
        if p - 1 in ranks:  # the S_{p-2} rows follow the A_{p-1} rows
            shift, d_s = ambient.rank(p - 1), sub.columns.get(p - 1, [{}] * sub.rank(p - 1))
            columns[p] = ambient.columns.get(p, [{}] * ambient.rank(p)) + [
                {**a, **{shift + i: -v for i, v in s.items()}}
                for a, s in zip(inclusion.get(p - 1, ()), d_s)]
    return _homology(ranks, columns).is_trivial()


# -- minimal quasi-isomorphic subcomplex ---------------------------------------


class MinimalSubcomplex(NamedTuple):
    complex: ChainComplex
    inclusion: dict[int, list[Column]]
    rank_profile: dict[int, int]
    quasi_isomorphism_verified: bool


def minimal_subcomplex(ambient: ChainComplex) -> MinimalSubcomplex:
    """The minimal-rank quasi-isomorphic subcomplex: the `minimal_model`
    of the complex, of rank b_k + mu_k + mu_{k-1} in degree k, with its
    inclusion checked by the mapping-cone criterion."""
    model = minimal_model(ambient)
    sub = model.complex
    return MinimalSubcomplex(
        complex=sub,
        inclusion=model.inclusion,
        rank_profile={p: sub.rank(p) for p in sub.degrees()},
        quasi_isomorphism_verified=verify_quasi_isomorphism(sub, model.inclusion, ambient),
    )


# -- flow operator --------------------------------------------------------------


class FlowData(NamedTuple):
    """The flow-invariant complex, that is the Morse complex: `inclusion[p]`
    has one sparse column Phi^inf(c) per critical element c of degree p,
    in the order of the cellular complex's labels, `invariant_complex`
    is the boundary in that basis and `invariant_ranks` its ranks."""

    invariant_ranks: dict[int, int]
    invariant_complex: ChainComplex
    inclusion: dict[int, list[Column]]
    rank_matches_critical: bool
    quasi_isomorphism_verified: bool


def flow_operator(poset: Poset, matching: Matching) -> FlowData:
    """phi = Id + dV + Vd for a Morse matching, with its invariant complex.

    V sends a matched lower element x to -<d t(x), x> t(x).  The
    invariant complex is the Morse complex: `morse_reduction` eliminates
    the matched pairs of the cellular complex, and the inclusion it
    tracks is Phi^inf, one phi-invariant chain per critical element c
    with critical coordinates e_c (Forman, "Morse theory for cell
    complexes", Adv. Math. 1998, sections 6-8).  The invariant ranks are
    the Morse complex's; the rank check counts the invariant chains apart,
    as n_p - rank(dV + Vd), and requires both to be c_p.  Cells are read
    by id: the cells of degree p are its ids in order, column j the id
    `bisect_left(poset._height, p) + j`, so V and the pairs come from the
    matching's pairs, as ids, and the pass's rows; every unmatched cell
    shares one empty column of V.
    """
    require_admissible(poset)
    if not is_morse_matching(poset, matching):
        raise NotMorseMatching("the flow operator needs an acyclic matching")
    rows, space, heights = cellular_chain_complex(poset).rows, space_complex(poset), poset._height
    ranks = space.ranks
    first = {p: bisect_left(heights, p) for p in ranks}  # the id of column 0
    d = {p: space.columns.get(p, [{}] * n) for p, n in ranks.items()}
    V: dict[int, list[Column]] = {p: [{}] * n for p, n in ranks.items()}
    pairs: dict[int, list[tuple[int, int]]] = {p: [] for p in ranks}
    for x, y in sorted((poset._id[w], poset._id[v]) for w, v in matching.pairs):
        a, b = x - first[heights[x]], y - first[heights[y]]
        V[heights[x]][a] = {b: -rows[y][x]}
        pairs[heights[y]].append((a, b))
    morse = morse_reduction(space, pairs)
    invariant = {p: morse.complex.rank(p) for p in ranks}
    critical = critical_counts(poset, matching)
    rank_ok = True
    for p, n in ranks.items():
        deviation = [_apply(V.get(p - 1, []), d[p][j], _apply(d.get(p + 1, []), V[p][j]))
                     for j in range(n)]  # the columns of dV + Vd
        rank = sum(1 for f in smith_diagonal(deviation, n) if f)
        rank_ok = rank_ok and n - rank == invariant[p] == critical.get(p, 0)
    return FlowData(
        invariant_ranks=invariant,
        invariant_complex=morse.complex,
        inclusion=morse.inclusion,
        rank_matches_critical=rank_ok,
        quasi_isomorphism_verified=verify_quasi_isomorphism(morse.complex, morse.inclusion, space),
    )


# -- Lusternik-Schnirelmann ------------------------------------------------------


class LSReport(NamedTuple):
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
    proof evaluates them; a cross-check reads each basic set's hccat off
    its cells (`_pair_homology`) and warns (not errs) on disagreement.  A
    critical cell of degree p gives Z in degree p.  On a Morse-Smale orbit
    x_1 < y_1 > x_2 < ... > x_1 of index p, y_i matched with x_i, d on the
    class is bidiagonal up to a cyclic shift, with determinant
    prod eps(y_i, x_i) * (1 - multiplicity): Z in p and p+1, or Z/2 in p,
    hccat 2 either way, as for the class as a subspace, a circle.  The
    intermediate bound sum_p m*_p = sum_p (c_p + A_p + A_{p-1}) counts the
    critical elements of the perturbed matching; its flow operator must
    confirm them, with as many invariant chains as critical elements per
    degree and an invariant complex quasi-isomorphic to the cellular one.
    """
    require_admissible(poset)
    orbits = prime_orbits(poset, matching)
    value = hccat(poset)
    warnings: list[str] = []
    class_values: list[tuple[str, int, int]] = []
    ident = poset._id
    for members in basic_sets(poset, matching).classes:
        expected = 1 if len(members) == 1 else 2
        recomputed = hccat(_pair_homology(poset, [ident[e] for e in members]))
        class_values.append((members[0], expected, recomputed))
        if recomputed != expected:
            what = "critical point" if expected == 1 else "orbit class at"
            warnings.append(f"{what} {members[0]} recomputed hccat {recomputed} != {expected}")
    rhs = sum(expected for _, expected, _ in class_values)
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

