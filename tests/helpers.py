"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive and shares no code path with the
implementations under test.  The dense Smith-form oracles (homology
coordinates, quasi-isomorphism, flow) call only the library's dense
`snf` routines, `homology` and the cellular complex they are given, and
`solve` and `matrix_rank`, the exact linear solve and the rank on a
dense Smith form that only they use, with `from_columns` and `mul_vec`,
which build a dense matrix and apply it, and `kernel_basis`, a kernel
read off the same Smith form.  `gauge_flip` changes the signs of a
cellular complex's generators, and `basic_set_relative_homology` reads a
basic set's pair homology through its closure.  The
cellularity oracles are the order-complex definitions the library's
cellularity pass replaced; they call `Poset.induced`, `order_complex`,
`simplicial_chain_complex`, `sphere_generator` and `homology`.  The pair
and face-poset oracles build induced subposets, face posets and their
order complexes as the paper defines them.  The per-interval sweep is
the filtration sweep as one call of the public single-interval checks
per interval, each of which rebuilds its sublevel sets from the
function's values.

Five references are earlier forms of library code kept as oracles for
the faster forms that replaced them: the cover reduction as one
comprehension, the reducer that updates every cell's inclusion on every
elimination (`EagerReducer`), the cellularity pass that builds,
checks and reduces a chain complex per strict down-set, contractible
ones and 0-spheres too (`reference_cellular_pass`, which keys its rows
by names, shares the assembler `_cells` with the library through the
adapter `name_keyed_cellular_complex` and takes its gauge from the
brute-force first-flag search `first_flag_sign`), the name-keyed
poset construction (`NameKeyedPoset`, `name_keyed_build_poset` and
`name_keyed_load_poset`), which shares only the JSON document reader
with the library, and the name-keyed matched digraph and its Tarjan
(`name_keyed_dynamics`), which read the basic sets, orbits, integrated
values and rejected arcs off names in declared order.
`sphere_memo_pairs` reads which down-sets the pass may key in its
sphere memo, and under what, off `_cells` and names, not off the
library's key.
"""

from __future__ import annotations

import sys
from bisect import insort
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Sequence

from posetmorse import (
    ChainComplex,
    ClosedOrbit,
    Matching,
    Poset,
    SimplicialComplex,
    basic_sets,
    build_poset,
    face_poset,
    hccat,
    homology,
    order_complex,
    relative_homology,
    simplicial_chain_complex,
    is_morse_smale,
)
from posetmorse.cellular import (
    CellularComplexOfPoset,
    CellularityReport,
    _cells,
    _named,
    _pair_homology,
    _walked,
    cellular_chain_complex,
    cellular_pair_homology,
    require_admissible,
    sphere_generator,
)
from posetmorse.category import LSReport, ls_theorem_check
from posetmorse.dynamics import MatchedDigraph, critical_counts, is_morse_matching
from posetmorse.errors import (
    ConsistencyError,
    CycleDetected,
    DuplicateElement,
    EmptyPoset,
    InconsistentIncidence,
    MalformedLine,
    NotGraded,
    NotMorse,
    NotMorseMatching,
    UnknownElement,
)
from posetmorse.formats import _poset_document
from posetmorse.homology import Reduction, sphere_summary
from posetmorse.morse import (
    AttachmentReport,
    MorseBottFunction,
    is_morse_function,
    morse_function_to_matching,
    verify_attachment,
    verify_collapse,
)
from posetmorse.randgen import XorShift64Star, random_matching
from posetmorse.intmatrix import Column, IntMatrix
from posetmorse.simplicial import Simplex
from posetmorse.snf import SmithDecomposition, diagonal_form, smith_normal_form


def brute_force_relation(poset: Poset) -> dict[str, set[str]]:
    """below[x] computed by naive repeated expansion of the covers."""
    below = {e: set() for e in poset.elements}
    for w, x in poset.covers:
        below[x].add(w)
    changed = True
    while changed:
        changed = False
        for x in poset.elements:
            extra = set()
            for w in below[x]:
                extra |= below[w]
            if not extra <= below[x]:
                below[x] |= extra
                changed = True
    return below


def brute_force_maximal_chains(poset: Poset, members: set[str]) -> list[list[str]]:
    """All maximal chains of the induced subposet, by exhaustive extension."""
    below = brute_force_relation(poset)

    def less(a, b):
        return a in below[b]

    minimal = [e for e in members if not any(less(w, e) for w in members)]
    chains = []
    stack = [[m] for m in minimal]
    while stack:
        chain = stack.pop()
        top = chain[-1]
        extensions = [y for y in members
                      if less(top, y)
                      and not any(less(top, z) and less(z, y) for z in members)]
        if not extensions:
            chains.append(chain)
        else:
            for y in extensions:
                stack.append(chain + [y])
    return chains


def brute_force_is_graded(poset: Poset) -> bool:
    """Definition check: all maximal chains in every U_x share one length."""
    below = brute_force_relation(poset)
    for x in poset.elements:
        members = below[x] | {x}
        lengths = {len(c) for c in brute_force_maximal_chains(poset, members)}
        if len(lengths) > 1:
            return False
    return True


def digraph_arcs(poset: Poset, matching: Matching) -> dict[str, list[str]]:
    succ: dict[str, list[str]] = {e: [] for e in poset.elements}
    for w, x in sorted(poset.covers):
        if (w, x) in matching.pairs:
            succ[w].append(x)
        else:
            succ[x].append(w)
    return succ


def reachable_from(succ: dict[str, list[str]], start: str) -> set[str]:
    seen: set[str] = set()
    stack = list(succ[start])
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(succ[node])
    return seen


def brute_force_recurrent(poset: Poset, matching: Matching) -> set[str]:
    """Critical elements plus every node lying on some directed cycle."""
    succ = digraph_arcs(poset, matching)
    matched = matching.matched_elements()
    recurrent = {e for e in poset.elements if e not in matched}
    for e in poset.elements:
        if e in reachable_from(succ, e):
            recurrent.add(e)
    return recurrent


def brute_force_equivalent(poset: Poset, matching: Matching, a: str, b: str) -> bool:
    """a ~ b: a cycle passes through both, i.e. mutual reachability."""
    if a == b:
        return True
    succ = digraph_arcs(poset, matching)
    return b in reachable_from(succ, a) and a in reachable_from(succ, b)


def check_integration_conditions(poset: Poset, matching: Matching, values) -> list[str]:
    """Independent check of the two conditions the integration theorem
    promises, with recurrence recomputed from scratch.  Returns the list
    of violations (empty = pass)."""
    succ = digraph_arcs(poset, matching)
    matched = matching.matched_elements()
    on_cycle = {e for e in poset.elements if e in reachable_from(succ, e)}
    recurrent = {e for e in poset.elements if e not in matched} | on_cycle

    def equivalent(a, b):
        if a == b:
            return True
        if a not in on_cycle or b not in on_cycle:
            return False
        return b in reachable_from(succ, a) and a in reachable_from(succ, b)

    failures = []
    for w, x in sorted(poset.covers):
        fw, fx = values[w], values[x]
        if w not in recurrent:
            if (w, x) in matching.pairs:
                if not fw >= fx:
                    failures.append(f"matched pair ({w},{x}) needs f({w}) >= f({x})")
            elif not fw < fx:
                failures.append(f"unmatched cover ({w},{x}) needs f({w}) < f({x})")
        else:
            if equivalent(w, x):
                if fw != fx:
                    failures.append(f"equivalent cover ({w},{x}) needs equality")
            elif not fw < fx:
                failures.append(f"recurrent cover ({w},{x}) needs f({w}) < f({x})")
    # Morse away from the recurrent set
    for x in poset.elements:
        if x in recurrent:
            continue
        up = [y for y in poset.upper_covers(x) if values[x] >= values[y]]
        down = [z for z in poset.lower_covers(x) if values[z] >= values[x]]
        if len(up) > 1 or len(down) > 1:
            failures.append(f"{x} violates the Morse conditions away from recurrence")
    # constant on basic sets
    for x in poset.elements:
        for y in poset.elements:
            if x < y and equivalent(x, y) and values[x] != values[y]:
                failures.append(f"class of {x} is not constant")
    return failures


def from_columns(columns: Sequence[Sequence[int]], rows: int) -> IntMatrix:
    """The rows x len(columns) matrix with these dense columns."""
    return IntMatrix(rows, len(columns), [[col[i] for col in columns] for i in range(rows)])


def mul_vec(matrix: IntMatrix, vec: Sequence[int]) -> list[int]:
    """The product of the matrix and a dense vector."""
    if len(vec) != matrix.cols:
        raise ValueError("vector length does not match column count")
    return [sum(a * v for a, v in zip(row, vec)) for row in matrix.data]


def determinant(matrix: IntMatrix) -> int:
    """Exact determinant via the fraction-free Bareiss elimination."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant needs a square matrix")
    n = matrix.rows
    if n == 0:
        return 1
    a = matrix.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def matrix_rank(A: IntMatrix) -> int:
    return sum(1 for d in diagonal_form(A) if d != 0)


def solve(A: IntMatrix, b: list[int], snf: SmithDecomposition | None = None) -> list[int] | None:
    """One integer solution of A x = b, or None if none exists, read off
    the Smith form A = U D V: x = V^-1 w where D w = U^-1 b."""
    if snf is None:
        snf = smith_normal_form(A)
    y = mul_vec(snf.U_inv, list(b))
    diag = snf.diagonal
    w = [0] * A.cols
    for i in range(A.rows):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if y[i] != 0:
                return None
        else:
            if y[i] % d != 0:
                return None
            w[i] = y[i] // d
    return mul_vec(snf.V_inv, w)


def kernel_basis(A: IntMatrix) -> list[list[int]]:
    """A basis of the saturated lattice {x : A x = 0}, as column vectors:
    the columns of V^-1 at the zero positions of the Smith form."""
    snf = smith_normal_form(A)
    diag = snf.diagonal
    # zero diagonal positions plus columns beyond the diagonal
    free = [j for j in range(A.cols) if j >= len(diag) or diag[j] == 0]
    if len(free) != A.cols - snf.rank:
        raise ConsistencyError("kernel size disagrees with the rank of the Smith form")
    return [snf.V_inv.column(j) for j in free]


def simplicial_incidence(complex: SimplicialComplex) -> dict[tuple[str, str], int]:
    """Incidence numbers of the face poset read off the sorted-vertex
    orientation: the i-th face of a simplex enters with sign (-1)^i."""
    incidence = {}
    for d, simplices in complex.simplices.items():
        if d == 0:
            continue
        for s in simplices:
            for i in range(len(s)):
                incidence[("|".join(s), "|".join(s[:i] + s[i + 1:]))] = (-1) ** i
    return incidence


def boundary_or_empty(complex: ChainComplex, p: int) -> IntMatrix:
    """The dense boundary C_p -> C_{p-1}, or the zero matrix of that shape
    where the complex stores none."""
    mat = complex.boundary.get(p)
    if mat is None:
        return IntMatrix.zeros(complex.rank(p - 1), complex.rank(p))
    return mat


def dense_inclusion(inclusion: dict[int, list[Column]],
                    ambient: ChainComplex) -> dict[int, IntMatrix]:
    """The dense matrices of a chain map given, as the library gives its
    inclusions, by sparse columns into `ambient`."""
    return {p: IntMatrix.from_sparse_columns(cols, ambient.rank(p))
            for p, cols in inclusion.items()}


def order_complex_cellularity(poset: Poset) -> CellularityReport:
    """Cellularity and admissibility by the definition: the order-complex
    homology of every strict down-set, and of every punctured one.  The
    witnesses and their order are those of `check_cellularity`."""
    if not poset.is_graded():
        bad = [(w, x) for w, x in poset.covers
               if poset.heights()[x] != poset.heights()[w] + 1]
        witnesses = tuple(("not-graded", f"{w}<{x}", "cover skips a height level")
                          for w, x in sorted(bad))
        return CellularityReport(False, False, False, witnesses)
    witnesses: list[tuple[str, str, str]] = []
    cellular = True
    degrees = poset.heights()
    below = {e: poset.strictly_below(e) for e in poset.elements}

    def reduced_homology(members):
        complex = order_complex(poset.induced(members))
        return homology(simplicial_chain_complex(complex, reduced=True))

    for x in poset.elements:
        p = degrees[x]
        summary = reduced_homology(below[x])
        if summary != sphere_summary(p - 1):
            cellular = False
            witnesses.append(("not-cellular", x, f"strict down-set has {summary}"))
    admissible = True
    for w, x in sorted(poset.covers):
        if not reduced_homology(below[x] - {w}).is_trivial():
            admissible = False
            witnesses.append(("not-admissible", f"{w}<{x}",
                              "punctured down-set is not acyclic"))
    return CellularityReport(True, cellular, admissible, tuple(witnesses))


def cone_sign(member: str, simplex: Simplex) -> int:
    """Sign of prepending `member` to the chain `simplex` in sorted order."""
    return (-1) ** sorted(simplex + (member,)).index(member)


def incidence_from_generators(poset: Poset) -> dict[tuple[str, str], int]:
    """Incidence numbers by cone decomposition of the order-complex sphere
    generators: group the flags of g_x by their top element w, un-cone,
    and divide by g_w.  Needs a cellular poset."""
    incidence: dict[tuple[str, str], int] = {}
    degrees = poset.heights()
    generators = {x: sphere_generator(poset, x) for x in poset.elements if degrees[x] >= 1}
    for x in poset.elements:
        p = degrees[x]
        if p < 1:
            continue
        parts: dict[str, dict[Simplex, int]] = {}
        for simplex, coeff in generators[x].cycle.items():
            w = max(simplex, key=degrees.__getitem__)
            tail = tuple(v for v in simplex if v != w)
            parts.setdefault(w, {})[tail] = cone_sign(w, tail) * coeff
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
                raise InconsistentIncidence(f"flag component over {w!r} has stray support")
            incidence[(x, w)] = ratio if ratio is not None else 0
        if parts:
            raise InconsistentIncidence(
                f"generator of {x!r} has flags over non-covers {sorted(parts)}")
    return incidence


def snf_homology_coordinates(complex: ChainComplex, degree: int):
    """SNF-aligned coordinates for H_degree of the complex.

    Returns (Zprime, factors): the columns of Zprime form a basis of the
    cycle lattice in which the boundary lattice is spanned by
    factors[i] * column_i (factor 0 marks a free position).  The cycles
    are a kernel basis, and each boundary column is solved for in it.
    """
    n = complex.rank(degree)
    d_here = complex.boundary.get(degree)
    if d_here is None:
        # no boundary out of this degree: every chain is a cycle
        kernel = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    else:
        kernel = kernel_basis(d_here)
    z = len(kernel)
    Z = from_columns(kernel, n) if z else IntMatrix.zeros(n, 0)
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
        Y = from_columns(cols, z) if cols else IntMatrix.zeros(z, 0)
    snf_y = smith_normal_form(Y)
    diag = snf_y.diagonal
    factors = [diag[i] if i < len(diag) else 0 for i in range(z)]
    Zprime = Z @ snf_y.U if z else Z
    return Zprime, factors


def snf_quasi_isomorphism(sub: ChainComplex, inclusion: dict[int, list[Column]],
                          ambient: ChainComplex) -> bool:
    """Inclusion is a chain map inducing isomorphisms on all homology,
    decided with dense Smith-normal-form coordinates.

    Checks: commutation with boundaries, injectivity, equal homology
    summaries, and surjectivity of the induced map in every degree (a
    surjection between isomorphic finitely generated abelian groups is an
    isomorphism).  The reference for the library's mapping-cone test; the
    two share only `homology`.  The inclusion comes as sparse columns, as
    the library's do, and is read densely once its shape checks out.
    """
    degrees = sorted(set(sub.degrees()) | set(ambient.degrees()))
    for p in sub.degrees():
        cols = inclusion.get(p)
        if cols is None or len(cols) != sub.rank(p) or any(
                not 0 <= i < ambient.rank(p) for col in cols for i in col):
            return False
    inclusion = dense_inclusion({p: inclusion[p] for p in sub.degrees()}, ambient)
    for p in degrees:
        ns = sub.rank(p)
        if ns == 0:
            continue
        inc = inclusion[p]
        if matrix_rank(inc) != ns:
            return False
        if ambient.rank(p - 1):
            left = boundary_or_empty(ambient, p) @ inc
            if sub.rank(p - 1):
                if left != inclusion[p - 1] @ boundary_or_empty(sub, p):
                    return False
            elif any(map(any, left.data)):
                return False
    if homology(sub) != homology(ambient):
        return False
    for p in degrees:
        Zprime, factors = snf_homology_coordinates(ambient, p)
        z = Zprime.cols
        if z == 0:
            continue  # ambient has no cycles here; summaries already matched
        snf_zp = smith_normal_form(Zprime)
        inc = inclusion.get(p)
        image_cols = []
        if inc is not None and sub.rank(p):
            sub_coords, sub_factors = snf_homology_coordinates(sub, p)
            for j in range(sub_coords.cols):
                if sub_factors[j] == 1:
                    continue  # trivial class
                ambient_cycle = mul_vec(inc, sub_coords.column(j))
                alpha = solve(Zprime, ambient_cycle, snf_zp)
                if alpha is None:
                    return False
                image_cols.append(alpha)
        relation_cols = [[factors[i] if r == i else 0 for r in range(z)]
                         for i in range(z) if factors[i] != 0]
        all_cols = image_cols + relation_cols
        if not all_cols:
            return False
        combined = from_columns(all_cols, z)
        diag = smith_normal_form(combined).diagonal
        if sum(1 for d in diag if d == 1) != z:
            return False
    return True


def _matrix_sum(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return IntMatrix(a.rows, a.cols, [[x + y for x, y in zip(ra, rb)]
                                      for ra, rb in zip(a.data, b.data)])


@dataclass(frozen=True)
class DenseFlow:
    V: dict[int, IntMatrix]
    phi: dict[int, IntMatrix]
    invariant_ranks: dict[int, int]
    invariant_complex: ChainComplex
    inclusion: dict[int, IntMatrix]
    rank_matches_critical: bool
    quasi_isomorphism_verified: bool


def dense_flow_operator(poset: Poset, matching: Matching,
                        cell: CellularComplexOfPoset | None = None) -> DenseFlow:
    """phi = Id + dV + Vd as dense matrices, and its invariant chains as
    the kernel of dV + Vd, with a Smith-form solve for their boundary.

    The reference for the library's flow on sparse chains; the verdict on
    the invariant complex comes from `snf_quasi_isomorphism`.
    """
    require_admissible(poset)
    if not is_morse_matching(poset, matching):
        raise NotMorseMatching("the flow operator needs an acyclic matching")
    if cell is None:
        cell = cellular_chain_complex(poset)
    chain = cell.complex
    top = poset.max_degree()
    levels = {p: poset.level(p) for p in range(top + 1)}
    position = {p: {e: i for i, e in enumerate(levels[p])} for p in levels}
    up = dict(matching.pairs)
    V: dict[int, IntMatrix] = {}
    for p in range(top):
        rows = len(levels[p + 1])
        cols = len(levels[p])
        data = [[0] * cols for _ in range(rows)]
        for j, x in enumerate(levels[p]):
            y = up.get(x)
            if y is not None:
                data[position[p + 1][y]][j] = -cell.epsilon(y, x)
        V[p] = IntMatrix(rows, cols, data)
    phi: dict[int, IntMatrix] = {}
    deviation: dict[int, IntMatrix] = {}
    for p in range(top + 1):
        n = len(levels[p])
        acc = IntMatrix.zeros(n, n)
        if p in V:
            acc = _matrix_sum(acc, boundary_or_empty(chain, p + 1) @ V[p])
        if p - 1 in V:
            acc = _matrix_sum(acc, V[p - 1] @ boundary_or_empty(chain, p))
        deviation[p] = acc
        phi[p] = _matrix_sum(IntMatrix.identity(n), acc)
    invariant_basis: dict[int, list[list[int]]] = {}
    for p in range(top + 1):
        invariant_basis[p] = kernel_basis(deviation[p]) if levels[p] else []
    inclusion = {p: from_columns(cols, len(levels[p]))
                 for p, cols in invariant_basis.items() if cols}
    ranks = {p: len(cols) for p, cols in invariant_basis.items() if cols}
    boundary: dict[int, list[Column]] = {}
    for p in sorted(ranks):
        d_p = boundary_or_empty(chain, p)
        images = [mul_vec(d_p, vec) for vec in invariant_basis[p]]
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
        boundary[p] = from_columns(cols, ranks[p - 1]).sparse_columns()
    invariant = ChainComplex(ranks, boundary)
    crit = critical_counts(poset, matching)
    rank_ok = all(ranks.get(p, 0) == crit.get(p, 0) for p in range(top + 1))
    quasi = snf_quasi_isomorphism(
        invariant, {p: m.sparse_columns() for p, m in inclusion.items()}, chain)
    return DenseFlow(
        V=V,
        phi=phi,
        invariant_ranks={p: ranks.get(p, 0) for p in range(top + 1)},
        invariant_complex=invariant,
        inclusion=inclusion,
        rank_matches_critical=rank_ok,
        quasi_isomorphism_verified=quasi,
    )


def basic_set_relative_homology(poset: Poset, members):
    """Homology of the closure of a basic set (the union of its minimal
    open sets) relative to the closure minus the set, checked down-closed:
    the closure route the library's cells-of-the-set reading replaced."""
    bar = poset.down_closure(members)
    return cellular_pair_homology(poset, bar, set(bar) - set(members))


def assert_basic_set_window(poset: Poset, matching: Matching, pair_homology=_pair_homology):
    """The paper's basic-set window lemma, asserted on `pair_homology` of
    the ids of each basic set (its cells alone, by default): the relative
    homology of a critical point of degree p is one copy of Z in degree p,
    that of an orbit class of least degree p sits in degrees p and p+1."""
    for members in basic_sets(poset, matching).classes:
        p = min(poset.degree(e) for e in members)
        nontrivial = pair_homology(poset, [poset._id[e] for e in members]).nontrivial()
        if len(members) == 1:
            assert nontrivial == {p: (1, ())}, members
        else:
            assert set(nontrivial) <= {p, p + 1}, members


def gauge_flip(cell: CellularComplexOfPoset, signs: dict[str, int]) -> CellularComplexOfPoset:
    """Flip the canonical sign of selected generators: the incidence row
    and column of each flipped element change sign, homology does not."""
    sign = [signs.get(e, 1) for e in cell.poset._names]
    rows = {x: {w: sign[x] * e * sign[w] for w, e in row.items()} for x, row in cell.rows.items()}
    return CellularComplexOfPoset(cell.poset, rows)


def order_complex_pair_homology(poset: Poset, members, sub_members):
    """Relative homology of the pair of order complexes of the induced
    subposets on `members` and `sub_members`: the paper's definition."""
    return relative_homology(order_complex(poset.induced(members)),
                             order_complex(poset.induced(sub_members)))


def ls_corollary(poset: Poset, values) -> LSReport:
    """The Lusternik-Schnirelmann corollary for a Morse function: the
    theorem on the function's own matching, whose unmatched elements are
    the function's critical points, so that the bound counts them."""
    matching = morse_function_to_matching(poset, values)
    report = ls_theorem_check(poset, matching)
    critical = is_morse_function(poset, values).critical
    matched = matching.matched_elements()
    assert tuple(e for e in poset.elements if e not in matched) == critical
    assert report.basic_set_bound == len(critical)
    return report


def per_interval_sweep(poset: Poset,
                       function: MorseBottFunction) -> tuple[list[AttachmentReport], bool]:
    """The filtration sweep one interval at a time: `verify_attachment`
    on the tight interval around each critical value, then
    `verify_collapse` across each maximal gap between them, with the cuts
    halfway between consecutive values and one beyond either end."""
    if function.matching is None:
        raise NotMorse("sweep needs the matching behind the function")
    require_admissible(poset)
    values = sorted(set(function.values.values()))
    critical = function.critical_values()
    if not values:
        return [], True
    cuts = [values[0] - 1, *((lo + hi) / 2 for lo, hi in zip(values, values[1:])),
            values[-1] + 1]
    reports = [verify_attachment(poset, function, cuts[i], cuts[i + 1])
               for i, v in enumerate(values) if v in critical]
    anchors = [cuts[0]]
    for v in critical:
        i = values.index(v)
        anchors += [cuts[i], cuts[i + 1]]
    anchors.append(cuts[-1])
    for lo, hi in zip(anchors[::2], anchors[1::2]):
        reports.append(AttachmentReport(interval=(lo, hi), kind="regular-interval",
                                        ok=verify_collapse(poset, function, lo, hi)))
    return reports, all(r.ok for r in reports)


def hccat_face_poset_consistency(complex: SimplicialComplex) -> bool:
    """hccat through the simplicial chain complex equals hccat through
    the order complex of the face poset."""
    return hccat(simplicial_chain_complex(complex)) == hccat(face_poset(complex))


def patch_where_bound(monkeypatch, modules, names, replacement) -> None:
    """Replace each of `names` in every one of `modules` that binds it.  A
    name that none of them binds fails here, so that a guard built on this
    never watches nothing."""
    for name in names:
        holders = [module for module in modules if hasattr(module, name)]
        assert holders, f"no module binds {name}"
        for module in holders:
            monkeypatch.setattr(module, name, replacement)


def tracked_smith_blocks(monkeypatch) -> list[tuple[int, int, tuple[int, ...]]]:
    """Wrap the dense core where `posetmorse.homology` binds it; the list
    returned gains (rows, columns, diagonal) for each block that a tracked
    `_Reducer.smith` brings to Smith form, the minimal model's step."""
    module = sys.modules["posetmorse.homology"]
    real, blocks = module._snf_core, []

    def recorded(data, m, n, want_transforms):
        transforms = real(data, m, n, want_transforms)
        if want_transforms:
            blocks.append((m, n, tuple(data[t][t] for t in range(min(m, n)))))
        return transforms

    monkeypatch.setattr(module, "_snf_core", recorded)
    return blocks


def guard_whole_poset_chains(monkeypatch) -> None:
    """Patch `Poset._chain_cones`, the one chain enumerator, to raise on
    every call.  It only ever lists the chains of a whole poset, so this
    guards the order complexes of induced posets too."""
    def guarded(self):
        raise RuntimeError("the chains of a poset were enumerated")

    monkeypatch.setattr(Poset, "_chain_cones", guarded)


def levelled_poset(rng: XorShift64Star, levels: int, width: int) -> Poset:
    """Levels of `width` elements, each above the bottom covering 1 to 3
    elements one level down: graded and, at this density, not cellular."""
    names = [[f"r{lvl}_{i}" for i in range(width)] for lvl in range(levels)]
    covers = [(w, x) for lower, upper in zip(names, names[1:]) for x in upper
              for w in rng.sample(lower, rng.randint(1, 3))]
    return Poset([e for level in names for e in level], covers)


def whiskered_disk() -> Poset:
    """A circle of two edges c, d over the points a, b, a whisker t over a
    alone, which is not cellular, and a disk x over all three: x is its
    own cell over a non-cellular element, and maximal."""
    return Poset(["a", "b", "c", "d", "t", "x"],
                 [("a", "c"), ("b", "c"), ("a", "d"), ("b", "d"), ("a", "t"),
                  ("c", "x"), ("d", "x"), ("t", "x")])


def ungraded_poset(rng: XorShift64Star, size: int) -> Poset:
    """A random order on `size` elements: i < j with chance 1/4 for i < j."""
    elements = [f"u{i}" for i in range(size)]
    return build_poset(elements, [(elements[i], elements[j]) for i in range(size)
                                  for j in range(i + 1, size) if rng.chance(1, 4)])


def maximal_elements(poset: Poset) -> tuple[str, ...]:
    return tuple(e for e in poset.elements if not poset.upper_covers(e))


def invariant_factors(snf: SmithDecomposition) -> tuple[int, ...]:
    return tuple(d for d in snf.diagonal if d != 0)


def rotated_to(orbit: ClosedOrbit, start: str) -> ClosedOrbit:
    """The same orbit listed from `start`."""
    i = orbit.nodes.index(start)
    return ClosedOrbit(orbit.nodes[i:] + orbit.nodes[:i], orbit.index)


def poset_document(poset: Poset) -> dict:
    """The JSON document form of a poset that `load_poset` reads."""
    return {
        "elements": list(poset.elements),
        "covers": [[w, x] for w, x in sorted(poset.covers,
                                             key=lambda c: (poset.index[c[1]], poset.index[c[0]]))],
    }


def find_morse_smale_matching(rng: XorShift64Star, poset: Poset, tries: int = 200,
                              want_orbit: bool = False) -> Matching | None:
    """Random search for a Morse-Smale matching, optionally with at
    least one closed orbit."""
    for _ in range(tries):
        matching = random_matching(rng, poset, 2, 3)
        verdict = is_morse_smale(poset, matching)
        if verdict.is_morse_smale and (verdict.orbits or not want_orbit):
            return matching
    return None


SCRAMBLE_FACTORS = (1, 2, 3, 4, 6)


def _unimodular(rng: XorShift64Star, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """A random unimodular n x n matrix and its inverse, as products of
    elementary row operations."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Pi = [row[:] for row in P]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        # P <- E P with E adding c times row j to row i; P^-1 <- P^-1 E^-1
        P[i] = [a + c * b for a, b in zip(P[i], P[j])]
        for row in Pi:
            row[j] -= c * row[i]
        if rng.chance(1, 3):
            P[i] = [-a for a in P[i]]
            for row in Pi:
                row[i] = -row[i]
    return P, Pi


def scramble(rng: XorShift64Star, complex: ChainComplex) -> ChainComplex:
    """d_k -> P_{k-1} d_k P_k^-1 for random unimodular P_k."""
    changes = {p: _unimodular(rng, n) for p, n in complex.ranks.items()}
    boundary = {}
    for p, d in complex.boundary.items():
        P = IntMatrix(d.rows, d.rows, changes[p - 1][0])
        Pi = IntMatrix(d.cols, d.cols, changes[p][1])
        boundary[p] = (P @ d @ Pi).sparse_columns()
    return ChainComplex(complex.ranks, boundary)


def scrambled_complex(rng: XorShift64Star):
    """A scrambled complex of 3 to 5 degrees with its known homology: a
    direct sum of Z in one degree and Z --t--> Z with t in
    SCRAMBLE_FACTORS, seen through `scramble`.  Returns the complex, its
    free ranks and its torsion counts mu per degree."""
    top = rng.randint(2, 4)
    free = {k: rng.randint(0, 2) for k in range(top + 1)}
    pieces = [(k, rng.choice(SCRAMBLE_FACTORS)) for k in range(1, top + 1)
              for _ in range(rng.randint(0, 3))]
    cells = {k: [("free", None)] * free[k] for k in range(top + 1)}
    for i, (k, t) in enumerate(pieces):
        cells[k].append(("top", i))
        cells[k - 1].append(("bottom", i))
    for k in cells:
        rng.shuffle(cells[k])
    boundary = {}
    for k in range(1, top + 1):
        rows = {cell: r for r, cell in enumerate(cells[k - 1]) if cell[0] == "bottom"}
        boundary[k] = [{rows[("bottom", cell[1])]: pieces[cell[1]][1]} if cell[0] == "top" else {}
                       for cell in cells[k]]
    known = ChainComplex({k: len(c) for k, c in cells.items()}, boundary)
    # invariant factors of diag(t): as many as the prime 2 or 3 divides most
    mu = {k: max(sum(1 for j, t in pieces if j == k + 1 and t % prime == 0) for prime in (2, 3))
          for k in range(top + 1)}
    return scramble(rng, known), free, mu


def comprehension_covers(elements, relations) -> frozenset[tuple[str, str]]:
    """The cover reduction of a generating relation as one comprehension:
    (w, x) is a cover unless w lies below another lower neighbour of x,
    with the transitive closure found by a search from each element."""
    lower: dict[str, list[str]] = {e: [] for e in elements}
    for w, x in relations:
        lower[x].append(w)
    below: dict[str, set[str]] = {}
    for e in elements:
        seen, stack = set(), list(lower[e])
        while stack:
            w = stack.pop()
            if w not in seen:
                seen.add(w)
                stack += lower[w]
        below[e] = seen
    return frozenset((w, x) for x in elements for w in lower[x]
                     if not any(w in below[y] for y in lower[x]))


class EagerReducer:
    """The unit-pivot elimination with the inclusion g of every cell
    updated on every elimination, g(c) <- g(c) - <dc, a> u g(b): the eager
    form the library's reducer replaces by edges and builds only for the
    cells that survive.  Pivots are picked by the same rule."""

    def __init__(self, ranks, columns):
        self.ranks, self.columns = ranks, columns
        self.cols, self.g, self.rows, self.loaded = {}, {}, {}, set()

    def reach(self, p):
        for q in (p, p - 1):
            if q not in self.loaded:
                self._load(q)

    def _load(self, p):
        self.loaded.add(p)
        self.cols[p] = (dict(enumerate(map(dict, self.columns[p]))) if p in self.columns
                        else {j: {} for j in range(self.ranks[p])})
        self.g[p] = {j: {j: 1} for j in range(self.ranks[p])}
        self._index(p)

    def _index(self, p):
        rows = self.rows[p] = {}
        for j, col in self.cols.get(p, {}).items():
            for i in col:
                rows.setdefault(i, set()).add(j)

    def eliminate(self, p, a, b):
        u = self.cols[p].get(b, {}).get(a, 0)
        if u != 1 and u != -1:
            raise ConsistencyError(f"pivot <d b, a> = {u} in degree {p} is not a unit")
        col = self.cols[p].pop(b)
        del col[a]
        rows, gb = self.rows[p], self.g[p].pop(b)
        for i in col:
            rows[i].discard(b)
        others = rows.pop(a)
        others.discard(b)
        for c in others:
            other = self.cols[p][c]
            q = other.pop(a) * u
            for i, v in col.items():
                new = other.get(i, 0) - q * v
                if new:
                    if i not in other:
                        rows[i].add(c)
                    other[i] = new
                else:
                    del other[i]
                    rows[i].discard(c)
            chain = self.g[p][c]
            for i, v in gb.items():
                new = chain.get(i, 0) - q * v
                if new:
                    chain[i] = new
                else:
                    del chain[i]
        for i in self.cols[p - 1].pop(a):
            self.rows[p - 1][i].discard(a)
        del self.g[p - 1][a]
        for c in self.rows.get(p + 1, {}).pop(b, ()):
            del self.cols[p + 1][c][b]

    def reduce(self, p):
        cols, rows = self.cols[p], self.rows[p]
        progress = True
        while progress:
            progress = False
            for b in sorted((j for j in cols if cols[j]), key=lambda j: len(cols[j])):
                pivot, fewest = None, 0
                for i, v in cols[b].items():
                    if v == 1 or v == -1:
                        count = len(rows[i])
                        if pivot is None or count < fewest:
                            pivot, fewest = i, count
                            if count == 1:
                                break
                if pivot is not None:
                    self.eliminate(p, pivot, b)
                    progress = True

    def smith(self, p):
        """`_Reducer.smith`, tracked, on the dense oracle: `reduce`, then the
        Smith form of the block of d_p's nonzero columns and the rows they
        touch, both in live order, and, if it has a 1 or dependent columns,
        the block's change of basis and the elimination of its 1s."""
        self.reach(p)
        self.reduce(p)
        cols = self.cols[p]
        upper = [b for b, col in cols.items() if col]
        if not upper:
            return
        lower = sorted({a for b in upper for a in cols[b]})
        at = {a: r for r, a in enumerate(lower)}
        snf = smith_normal_form(IntMatrix.from_sparse_columns(
            [{at[a]: v for a, v in cols[b].items()} for b in upper], len(lower)))
        factors = [f for f in snf.diagonal if f]
        if 1 in factors or len(factors) < len(upper):
            self._rebase(p, upper, snf.V_inv, snf.V)
            self._rebase(p - 1, lower, snf.U, snf.U_inv)
            for t in range(factors.count(1)):
                self.eliminate(p, lower[t], upper[t])

    def _rebase(self, p, old, B, B_inv):
        def combine(chains, coefficients, start=()):
            out = dict(start)
            for chain, c in zip(chains, coefficients):
                for k, v in chain.items():
                    out[k] = out.get(k, 0) + c * v
            return {k: v for k, v in out.items() if v}

        g, cols = [self.g[p][c] for c in old], [self.cols[p][c] for c in old]
        for t, c in enumerate(old):
            self.g[p][c] = combine(g, B.column(t))
            self.cols[p][c] = combine(cols, B.column(t))
        at = {c: i for i, c in enumerate(old)}
        columns = [{old[t]: v for t, v in col.items()} for col in B_inv.sparse_columns()]
        for c, col in self.cols.get(p + 1, {}).items():
            touched = [b for b in col if b in at]
            if touched:
                self.cols[p + 1][c] = combine((columns[at[b]] for b in touched),
                                              (col[b] for b in touched),
                                              {b: v for b, v in col.items() if b not in at})
        self._index(p)
        self._index(p + 1)

    def result(self) -> Reduction:
        for p in self.ranks.keys() - self.loaded:
            self._load(p)
        live = {p: self.cols[p] for p in self.ranks}
        at = {p: {j: k for k, j in enumerate(cols)} for p, cols in live.items()}
        boundary = {p: [{at[p - 1][i]: v for i, v in col.items()} for col in cols.values()]
                    for p, cols in live.items() if at.get(p - 1)}
        return Reduction(ChainComplex({p: len(cols) for p, cols in live.items()}, boundary),
                         {p: [self.g[p][j] for j in cols] for p, cols in live.items() if cols})


def eager_morse_reduction(complex: ChainComplex, pairs=None) -> Reduction:
    """`morse_reduction` with the inclusion tracked eagerly."""
    reducer = EagerReducer(complex.ranks, complex.columns)
    for p in sorted(complex.columns, reverse=True):
        reducer.reach(p)
        if pairs is None:
            reducer.reduce(p)
        for a, b in (pairs or {}).get(p, ()):
            reducer.eliminate(p, a, b)
    return reducer.result()


def eager_minimal_model(complex: ChainComplex) -> Reduction:
    """`minimal_model` with the inclusion tracked eagerly."""
    reducer = EagerReducer(complex.ranks, complex.columns)
    for p in sorted(complex.columns, reverse=True):
        reducer.reach(p)
        reducer.reduce(p)
    for p in sorted(complex.columns, reverse=True):
        reducer.smith(p)
    return reducer.result()


def first_flag_sign(x: str, p: int, eps: dict[str, dict[str, int]],
                    reach: dict[str, frozenset[str]], degrees: dict[str, int]) -> int:
    """The sign, in x's sphere generator, of the first sorted full flag of
    U.x along nonzero incidences, searched by brute force: p times the
    smallest name, after the last one taken, that forms such a chain with
    those taken so far, each chain sorted and checked step by step."""
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


def reference_cellular_pass(poset: Poset):
    """The cellularity pass one down-set at a time: at each element the
    checked complex of its strict down-set (`name_keyed_cellular_complex`,
    which checks d*d), its `eager_minimal_model`, and the mapping-cone
    cells read off that model's complex and labels; the gauge is
    `first_flag_sign`.  Returns (report or None, rows) as `named_pass`
    does."""
    graded, degrees = poset.is_graded(), poset.heights()
    eps, reach, cone, not_cellular, not_admissible = {}, {}, {}, {}, []
    for x in sorted(poset.elements, key=degrees.__getitem__):
        p, lower, below = degrees[x], poset.lower_covers(x), poset.strictly_below(x)
        if p == 0:
            eps[x], reach[x], cone[x] = {}, below, ((0, (1, ())),)
            continue
        down = name_keyed_cellular_complex(poset, eps, below, reduced=True)
        model = eager_minimal_model(down)
        if graded and model.complex.ranks == {p - 1: 1}:
            generator = model.inclusion[p - 1][0]
            eps[x] = {w: generator.get(i, 0) for i, w in enumerate(down.labels[p - 1])}
            here = ((p - 1, (1, ())),)
        else:
            cells = []
            for k in sorted(model.inclusion):
                columns, labels = model.complex.columns.get(k), down.labels[k]
                for j, chain in enumerate(model.inclusion[k]):
                    row = eps[x, k + 1, j] = {labels[i]: v for i, v in chain.items()}
                    if columns:
                        row.update(((x, k, i), -v) for i, v in columns[j].items())
                    cells.append((x, k + 1, j))
            eps[x] = cells
            if not graded:
                continue
            not_cellular[x] = homology(model.complex)
            here = tuple(not_cellular[x].nontrivial().items())
        cone[x] = tuple((k + 1, group) for k, group in here)
        if x in not_cellular or not not_cellular.keys().isdisjoint(below):
            not_admissible += [
                (w, x) for w in lower if cone[w] != here or here and not homology(
                    name_keyed_cellular_complex(poset, eps, below - {w}, reduced=True)
                ).is_trivial()]
            continue
        steps = [w for w in lower if eps[x][w]]
        shared = len(steps) == len(lower) and all(
            reach[w] is poset.strictly_below(w) for w in steps)
        reach[x] = below if shared else frozenset(steps).union(*(reach[w] for w in steps))
        if first_flag_sign(x, p, eps, reach, degrees) < 0:
            eps[x] = {w: -e for w, e in eps[x].items()}
        not_admissible += [(w, x) for w in lower if abs(eps[x][w]) != 1]
    if not graded:
        return None, eps
    witnesses = [("not-cellular", x, f"strict down-set has {not_cellular[x]}")
                 for x in poset.elements if x in not_cellular]
    witnesses += [("not-admissible", f"{w}<{x}", "punctured down-set is not acyclic")
                  for w, x in sorted(not_admissible)]
    return CellularityReport(True, not not_cellular, not not_admissible, tuple(witnesses)), eps


def named_rows(poset: Poset, rows: dict) -> dict:
    """Rows of the cellularity pass, keyed by ids, with every element's id
    turned into its name and every cell (x, k, j) into (name, k, j)."""
    names = poset._names
    return {_named(names, c): [_named(names, cell) for cell in row] if isinstance(row, list)
            else {_named(names, w): e for w, e in row.items()} for c, row in rows.items()}


def sphere_memo_pairs(poset: Poset, rows: dict) -> dict[int, tuple]:
    """The ids whose strict down-set the cellularity pass keys in its
    sphere memo, each with its (key, name order), from the pass's final
    rows, keyed by ids (each row is final once its element is walked): on
    a graded poset, an x of degree p >= 1 with two lower covers or more,
    not two points, over cellular elements only, whose reduced Euler
    characteristic is (-1)^(p-1).  The key is p and the ranks and boundary
    columns of the cells of U.x as `_cells` lists them; the order lists
    those cells, as (degree, place), by name."""
    pairs: dict[int, tuple] = {}
    if not poset.is_graded():
        return pairs
    degrees, down, names = poset._height, poset._reach(), poset._names
    for x, lower in enumerate(poset._lower):
        p, below = degrees[x], down[x]
        if len(lower) < 2 or p == 1 and len(lower) == 2:
            continue
        if not all(isinstance(rows[w], dict) for w in below):
            continue
        ranks, columns, labels = _cells(rows, degrees, below, reduced=True)
        if sum(r if k % 2 == 0 else -r for k, r in ranks.items()) != (-1) ** (p - 1):
            continue
        key = (p, tuple(ranks.items()), tuple(
            (k, tuple(tuple(column.items()) for column in cells)) for k, cells in columns.items()))
        at = {c: (k, i) for k, cells in labels.items() for i, c in enumerate(cells)}
        pairs[x] = key, tuple(at[c] for c in sorted(below, key=names.__getitem__))
    return pairs


def named_pass(poset: Poset):
    """The cached cellularity pass (`cellular._walked`), walked again where
    it deferred rows: its report and every row, named by `named_rows`."""
    report, rows = _walked(poset, complete=True)
    return report, named_rows(poset, rows)


def name_keyed_cellular_complex(poset: Poset, eps: dict, members,
                                reduced: bool = False) -> ChainComplex:
    """The checked chain complex of the cells of the names `members`,
    A - B for a down-closed pair (A, B), from rows keyed by names: the
    library's assembler `_cells` on the rows it reads, turned to ids, with
    the labels named back."""
    ident, names = poset._id, poset._names

    def to_id(cell):
        return ident[cell] if isinstance(cell, str) else (ident[cell[0]], cell[1], cell[2])

    rows = {}
    for e in members:
        owned = eps[e] if isinstance(eps[e], list) else []
        for cell in [e, *owned]:
            row = eps[cell]
            rows[to_id(cell)] = ([to_id(c) for c in row] if isinstance(row, list)
                                 else {to_id(w): v for w, v in row.items()})
    ranks, columns, labels = _cells(rows, poset._height, [ident[e] for e in members], reduced)
    return ChainComplex(ranks, columns, {
        p: tuple(_named(names, c) for c in cells) for p, cells in labels.items()})


# -- The name-keyed poset construction: the library's `Poset`, `build_poset`
# and text reader as they were before elements were interned as ints, kept
# verbatim up to their names, as the oracle the interned core is checked
# against.  Every structure is keyed by element names.

class NameKeyedPoset:
    """A finite poset; `covers` holds pairs (w, x) meaning w is covered by x.

    The constructor trusts its arguments to already be a transitive
    reduction of string identifiers; use :func:`build_poset` for raw
    input.  It builds the sorted cover lists once.  The heights are
    computed on first use, and so are the topological order and the
    down-sets unless :func:`build_poset` has handed them over.  Empty
    posets are legal values (they arise as strict down-sets) but are
    rejected as top-level inputs by :func:`build_poset`.
    """

    def __init__(self, elements: Sequence[str], covers: Iterable[tuple[str, str]]):
        self.elements = tuple(elements)
        self.covers = frozenset(covers)
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise DuplicateElement("duplicate element identifiers")
        up: dict[str, list[str]] = {e: [] for e in self.elements}
        dn: dict[str, list[str]] = {e: [] for e in self.elements}
        for w, x in self.covers:
            if w not in self.index or x not in self.index:
                raise UnknownElement(f"cover ({w}, {x}) references undeclared element")
            up[w].append(x)
            dn[x].append(w)
        key = self.index.__getitem__
        self._upper = {e: tuple(sorted(up[e], key=key)) for e in self.elements}
        self._lower = {e: tuple(sorted(dn[e], key=key)) for e in self.elements}
        self._order: list[str] | None = None
        self._below: dict[str, frozenset[str]] | None = None
        self._above: dict[str, frozenset[str]] | None = None
        self._heights: dict[str, int] | None = None
        self._by_height: dict[str, int] | None = None
        self._graded: bool | None = None
        # derived analyses (homology, cellular structure)
        self.analysis_cache: dict = {}

    # -- basic queries --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, element: str) -> bool:
        return element in self.index

    def __eq__(self, other):
        return (isinstance(other, NameKeyedPoset) and self.elements == other.elements
                and self.covers == other.covers)

    def __hash__(self):
        return hash((self.elements, self.covers))

    def __repr__(self):
        return f"NameKeyedPoset({len(self.elements)} elements, {len(self.covers)} covers)"

    def require(self, element: str) -> None:
        if element not in self.index:
            raise UnknownElement(f"unknown element {element!r}")

    def upper_covers(self, element: str) -> tuple[str, ...]:
        self.require(element)
        return self._upper[element]

    def lower_covers(self, element: str) -> tuple[str, ...]:
        self.require(element)
        return self._lower[element]

    # -- reachability ----------------------------------------------------------

    def _topo_order(self) -> list[str]:
        if self._order is None:
            self._order = _name_keyed_topological_order(self.elements, self._lower, self._upper)
        return self._order

    def _reach(self) -> dict[str, frozenset[str]]:
        if self._below is None:
            self._below = _name_keyed_strictly_below(self._topo_order(), self._lower)
        return self._below

    def _up_sets(self) -> dict[str, frozenset[str]]:
        if self._above is None:
            above: dict[str, set[str]] = {e: set() for e in self.elements}
            for e, s in self._reach().items():
                for w in s:
                    above[w].add(e)
            self._above = {e: frozenset(s) for e, s in above.items()}
        return self._above

    def strictly_below(self, element: str) -> frozenset[str]:
        self.require(element)
        return self._reach()[element]

    def strictly_above(self, element: str) -> frozenset[str]:
        self.require(element)
        return self._up_sets()[element]

    def less(self, a: str, b: str) -> bool:
        """True iff a < b in the partial order."""
        return a in self.strictly_below(b)

    # -- heights and grading ---------------------------------------------------

    def heights(self) -> dict[str, int]:
        """height(x) = length of the longest chain ending at x."""
        if self._heights is None:
            h: dict[str, int] = {}
            for e in self._topo_order():
                lows = self._lower[e]
                h[e] = 1 + max(h[w] for w in lows) if lows else 0
            self._heights = h
        return self._heights

    def height_order(self) -> dict[str, int]:
        """Each element's place in the order by height, then declared
        index, in that order: a topological order, cached, which the
        cellularity pass walks and the chain lists sort by."""
        if self._by_height is None:
            self._by_height = {e: i for i, e in enumerate(
                sorted(self.elements, key=self.heights().__getitem__))}
        return self._by_height

    def height(self, element: str | None = None) -> int:
        if element is None:
            if not self.elements:
                raise EmptyPoset("height of the empty poset is undefined")
            return max(self.heights().values())
        self.require(element)
        return self.heights()[element]

    def is_graded(self) -> bool:
        """Graded means every U_x is homogeneous; equivalently the height
        increases by exactly one along every cover."""
        if self._graded is None:
            h = self.heights()
            self._graded = all(h[x] == h[w] + 1 for w, x in self.covers)
        return self._graded

    def _degrees(self) -> dict[str, int]:
        if not self.is_graded():
            raise NotGraded("degrees are only defined on graded posets")
        return self.heights()

    def degree(self, element: str) -> int:
        """deg x = height x, on a graded poset."""
        self.require(element)
        return self._degrees()[element]

    def max_degree(self) -> int:
        return max(self._degrees().values(), default=0)

    def level(self, p: int) -> tuple[str, ...]:
        """The elements of degree exactly p."""
        degrees = self._degrees()
        return tuple(e for e in self.elements if degrees[e] == p)

    # -- subposets ---------------------------------------------------------

    def induced(self, subset: Iterable[str]) -> "NameKeyedPoset":
        """The induced subposet: covers are recomputed from the restricted
        order, so skipped levels become covers."""
        keep = set(subset)
        for e in keep:
            self.require(e)
        elements = [e for e in self.elements if e in keep]
        below = self._reach()
        return NameKeyedPoset(elements, _name_keyed_cover_reduction({x: below[x] & keep for x in elements}, below))

    def down_closure(self, subset: Iterable[str]) -> tuple[str, ...]:
        """The union of the minimal open sets U_x for x in the subset, in
        poset order."""
        closed: set[str] = set()
        for x in subset:
            if x not in closed:
                closed.add(x)
                closed |= self.strictly_below(x)
        return tuple(sorted(closed, key=self.index.__getitem__))

    def beat_point_core(self) -> tuple[str, ...]:
        """The core of the poset, in poset order: sweeps in poset order
        remove beat points until none is left, an element being one when
        its strict down-set in what is left has a maximum or its strict
        up-set a minimum.  Each removal is a strong deformation retract,
        so the order complexes of the poset and of its core are homotopy
        equivalent, and the core of a contractible space is a point
        (Stong, Trans. AMS 123, 1966)."""
        below, above = self._reach(), self._up_sets()
        heights, order = self.heights(), self.index
        core = set(self.elements)

        def has_extremum(part: frozenset[str], reach: dict[str, frozenset[str]], pick) -> bool:
            # only the element of extreme height can be the extremum
            return bool(part) and len(
                reach[pick(part, key=heights.__getitem__)] & part) == len(part) - 1

        removed = True
        while removed:
            removed = False
            for a in sorted(core, key=order.__getitem__):
                if (has_extremum(below[a] & core, below, max)
                        or has_extremum(above[a] & core, above, min)):
                    core.remove(a)
                    removed = True
        return tuple(sorted(core, key=order.__getitem__))

    def chains(self) -> list[tuple[str, ...]]:
        """All nonempty chains, grouped by maximum element, each group by
        dimension, each listed in increasing order; not cached."""
        below, order = self._reach(), self.index
        ending: dict[str, list[tuple[str, ...]]] = {}
        for x in self.height_order():
            local: list[tuple[str, ...]] = [(x,)]
            for y in sorted(below[x], key=order.__getitem__):
                local.extend(c + (x,) for c in ending[y])
            ending[x] = sorted(local, key=len)
        return [c for local in ending.values() for c in local]


def _name_keyed_topological_order(elements: Sequence[str], lower: dict[str, Sequence[str]],
                       upper: dict[str, Sequence[str]]) -> list[str]:
    """The elements, each after everything in its `lower` list (Kahn's
    algorithm); a cycle raises CycleDetected."""
    pending = {e: len(lower[e]) for e in elements}
    queue = [e for e in elements if pending[e] == 0]
    i = 0
    while i < len(queue):
        for x in upper[queue[i]]:
            pending[x] -= 1
            if pending[x] == 0:
                queue.append(x)
        i += 1
    if len(queue) != len(elements):
        raise CycleDetected("cover relation contains a cycle")
    return queue


def _name_keyed_strictly_below(order: Sequence[str],
                    lower: dict[str, Sequence[str]]) -> dict[str, frozenset[str]]:
    """The transitive closure of `lower`, read along a topological order."""
    below: dict[str, frozenset[str]] = {}
    for e in order:
        acc = set(lower[e])
        for w in lower[e]:
            acc |= below[w]
        below[e] = frozenset(acc)
    return below


def _name_keyed_cover_reduction(under: dict[str, AbstractSet[str]],
                     below: dict[str, AbstractSet[str]]) -> list[tuple[str, str]]:
    """The pairs (w, x) with w in under[x] and w below no other element of
    under[x]: the covers of an order, given for each x a set of elements
    below it that holds its lower covers and the closure `below` of that
    order.  Each intersection walks the smaller of its two sets."""
    covers = []
    for x, lows in under.items():
        redundant = set().union(*(below[y] & lows for y in lows))
        covers += [(w, x) for w in lows - redundant]
    return covers


def name_keyed_build_poset(elements: Sequence[str], relations: Iterable[tuple[str, str]]) -> NameKeyedPoset:
    """Build a poset from declared elements and any generating relation.

    The relation is closed transitively and then reduced to covers; cyclic
    input raises CycleDetected, empty input raises EmptyPoset.  Returns the
    canonical Hasse-diagram representation, holding the relation's
    topological order and closure: the covers generate the same order.
    """
    elements = [str(e) for e in elements]
    if not elements:
        raise EmptyPoset("empty posets are rejected as inputs")
    lower: dict[str, list[str]] = {}
    for e in elements:
        if e in lower:
            raise DuplicateElement(f"duplicate element {e!r}")
        lower[e] = []
    upper: dict[str, list[str]] = {e: [] for e in elements}
    for w, x in relations:
        w, x = str(w), str(x)
        if w not in lower:
            raise UnknownElement(f"unknown element {w!r}")
        if x not in lower:
            raise UnknownElement(f"unknown element {x!r}")
        if w == x:
            raise CycleDetected(f"reflexive pair ({w}, {x}) is not allowed")
        lower[x].append(w)
        upper[w].append(x)
    try:
        order = _name_keyed_topological_order(elements, lower, upper)
    except CycleDetected:
        raise CycleDetected("input relation is not a partial order") from None
    below = _name_keyed_strictly_below(order, lower)
    poset = NameKeyedPoset(elements, _name_keyed_cover_reduction({x: set(lower[x]) for x in elements}, below))
    poset._order, poset._below = order, below
    return poset


def name_keyed_poset_lines(text: str) -> tuple[list[str], list[tuple[str, str]]]:
    """Declared elements, in order of first mention, and the relations."""
    elements: list[str] = []
    seen: set[str] = set()
    relations: list[tuple[str, str]] = []

    def declare(name: str):
        if name not in seen:
            seen.add(name)
            elements.append(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "<" in line:
            parts = [p.strip() for p in line.split("<")]
            if len(parts) != 2 or not all(parts):
                raise MalformedLine(f"line {lineno}: expected 'w < x', got {line!r}")
            w, x = parts
            declare(w)
            declare(x)
            relations.append((w, x))
        else:
            tokens = line.split()
            if len(tokens) != 1:
                raise MalformedLine(f"line {lineno}: expected one identifier, got {line!r}")
            declare(tokens[0])
    return elements, relations


def name_keyed_load_poset(text: str) -> tuple[NameKeyedPoset, bool]:
    """Parse either format; also report whether input covers got reduced."""
    if text.lstrip().startswith("{"):
        elements, relations = _poset_document(text)
    else:
        elements, relations = name_keyed_poset_lines(text)
    poset = name_keyed_build_poset(elements, relations)
    return poset, not set(relations) <= poset.covers


def simplex_id(simplex: Sequence[str]) -> str:
    """The name `face_poset` gives a simplex: its sorted vertices joined by `|`."""
    return "|".join(sorted(simplex))


def name_keyed_face_poset(complex: SimplicialComplex) -> NameKeyedPoset:
    """The poset of simplices ordered by inclusion; degree = dimension."""
    ids = {s: simplex_id(s) for d in sorted(complex.simplices) for s in complex.simplices[d]}
    covers = [(ids[s[:i] + s[i + 1:]], sid) for s, sid in ids.items() if len(s) > 1
              for i in range(len(s))]
    return NameKeyedPoset(list(ids.values()), covers)


# -- The name-keyed matched digraph: `dynamics.matched_digraph` and
# `dynamics._strongly_connected_components` as they were before the dynamics
# ran on ids, kept verbatim up to their names, with the basic sets, the orbits,
# the integrated function and the first arc `require_morse_bott` rejects read
# off them by name, as the oracle the id-keyed dynamics are checked against.

def name_keyed_matched_digraph(poset: Poset, matching: Matching) -> MatchedDigraph:
    """Read off the poset's int covers: each element points to its lower
    covers but a matched one, and up to its match above, in declared order."""
    names, ident, lower = poset._names, poset._id, poset._lower
    up = {ident[w]: ident[x] for w, x in matching.pairs}
    down = {x: w for w, x in up.items()}
    key = None if poset._declared is None else poset._declared.__getitem__
    successors = {}
    arcs = []
    for e in poset._declared_ids():
        matched = down.get(e)
        targets = [w for w in lower[e] if w != matched]
        if e in up:
            insort(targets, up[e], key=key)
        name = names[e]
        successors[name] = targets = tuple([names[w] for w in targets])
        arcs += [(name, t) for t in targets]
    return MatchedDigraph(nodes=poset.elements, arcs=tuple(arcs), successors=successors)


def name_keyed_components(nodes, successors) -> list[list[str]]:
    """Iterative Tarjan; components come out in reverse topological order."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(successors[child])))
                    break
                if child in on_stack and index[child] < low[node]:
                    low[node] = index[child]
            else:
                work.pop()
                if low[node] == index[node]:
                    comp = []
                    while True:
                        top = stack.pop()
                        on_stack.discard(top)
                        comp.append(top)
                        if top == node:
                            break
                    components.append(comp)
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
    return components


@dataclass(frozen=True)
class NameKeyedDynamics:
    """What the name-keyed digraph gives: the critical elements and the
    orbit classes (elements, index) in declared order, each class's cycle
    from its first declared lower element or None where it is not one
    simple cycle, and the values of the integrated function."""

    digraph: MatchedDigraph
    critical: tuple[str, ...]
    orbit_classes: tuple[tuple[tuple[str, ...], int], ...]
    cycles: tuple[tuple[str, ...] | None, ...]
    values: dict[str, int]
    component: dict[str, int]


def name_keyed_dynamics(poset: Poset, matching: Matching) -> NameKeyedDynamics:
    digraph = name_keyed_matched_digraph(poset, matching)
    components = name_keyed_components(digraph.nodes, digraph.successors)
    component = {e: i for i, members in enumerate(components) for e in members}
    order, degrees = poset.index, poset.heights()
    matched = matching.matched_elements()
    classes = sorted((tuple(sorted(comp, key=order.__getitem__)) for comp in components
                      if len(comp) > 1), key=lambda c: order[c[0]])
    orbit_classes, cycles = [], []
    for elements in classes:
        index = min(degrees[e] for e in elements)
        orbit_classes.append((elements, index))
        inner = {e: [s for s in digraph.successors[e] if s in elements] for e in elements}
        start = min((e for e in elements if degrees[e] == index), key=order.__getitem__)
        simple, nodes = all(len(s) == 1 for s in inner.values()), [start]
        while simple and inner[nodes[-1]][0] != start:
            nodes.append(inner[nodes[-1]][0])
        cycles.append(tuple(nodes) if simple and len(nodes) == len(elements) else None)
    # the condensation ranked by Kahn's algorithm, the earliest declared first
    n = len(components)
    succ = [set() for _ in range(n)]
    for a, b in digraph.arcs:
        if component[a] != component[b]:
            succ[component[a]].add(component[b])
    indeg = [0] * n
    for targets in succ:
        for j in targets:
            indeg[j] += 1
    key = [min(order[e] for e in comp) for comp in components]
    ready, rank = sorted((key[i], i) for i in range(n) if not indeg[i]), {}
    while ready:
        _, i = ready.pop(0)
        rank[i] = n - len(rank)
        for j in succ[i]:
            indeg[j] -= 1
            if not indeg[j]:
                insort(ready, (key[j], j))
    return NameKeyedDynamics(
        digraph=digraph,
        critical=tuple(e for e in poset.elements if e not in matched),
        orbit_classes=tuple(orbit_classes),
        cycles=tuple(cycles),
        values={e: rank[component[e]] for e in poset.elements},
        component=component,
    )


def name_keyed_first_rejection(dynamics: NameKeyedDynamics, matching: Matching,
                               values) -> str | None:
    """The message of the NotMorseBott that `require_morse_bott` raises
    first on `values`, read off the name-keyed digraph, or None."""
    for members in [(e,) for e in dynamics.critical] + [c for c, _ in dynamics.orbit_classes]:
        if len({values[e] for e in members}) > 1:
            return f"function is not constant on the basic set {list(members)}"
    component = dynamics.component
    for a, b in dynamics.digraph.arcs:
        if component[a] == component[b]:
            continue
        if values[a] < values[b]:
            return (f"function increases along the arc {a} -> {b} "
                    f"of the matched digraph, from {values[a]} to {values[b]}")
        if values[a] == values[b] and (a, b) not in matching:
            return (f"function does not decrease along the unmatched arc {a} -> {b} "
                    f"of the matched digraph: both ends take the value {values[a]}")
    return None
