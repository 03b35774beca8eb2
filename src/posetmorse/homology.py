"""Exact homology of finitely generated free chain complexes over the
integers, plus the simplicial and poset front ends; a rational answer is
the integral one without its torsion (`HomologySummary.rational`).

Chain complexes store each boundary map as sparse integer columns
{row: value}; d*d = 0 is checked column by column.  One sparse
elimination serves every computation here (algebraic Morse theory):
`_Reducer` eliminates pairs of cells joined by a +-1 entry of d, from
the top degree down, by the Schur complement, and it is the only code
that picks unit pivots.  Each pair splits a Smith factor 1 off its
boundary without changing homology, so `homology` counts the pairs and
hands only the block without units that is left to the dense Smith core
for the rest of the rank and the torsion; `smith_diagonal` does the same
for one matrix.  Betti numbers come from boundary ranks, torsion from
the invariant factors of the next boundary.  A formal degree -1 slot
holds the augmentation of reduced complexes, so the empty poset has
reduced homology Z in degree -1 and the cellularity check is uniform at
degree 0.

`morse_reduction` runs the same elimination, `_Reducer.sweep`, on given
pairs or on every one it finds.  Each elimination records an edge from
every cell it changes to the cell it removes, and the inclusion of what
is left is built from those edges only for the cells that survive, as
the sum over gradient paths (Forman 1998, section 8; Harker, Mischaikow,
Mrozek and Nanda, Found. Comput. Math. 2014).  `minimal_model` then
brings the few boundaries that still have unit Smith factors or
dependent columns to their Smith form, on the inclusions of the cells
left, and eliminates the units too, leaving rank b_k + mu_k + mu_{k-1}
in degree k, whose cycles are spanned by the cells with empty columns.
The cellularity pass runs it on the raw cells of each down-set
(`_minimal_reducer`), once per distinct sphere complex, and reads the
sphere verdict and the generator, or the mapping cone of its chain model
over the other models, straight off the survivors, numbered by
`_Reducer.model`; `cellular.sphere_generator` reads its cycle off the
same survivors, the flow a matching's Morse complex, and the hccat
witness is the minimal model.

One assembler, `_assemble`, turns sorted simplices into sparse columns
for the front ends that label their cells.  `Poset._chain_cones` builds
the order complex of a poset as iterated cones, K(U_x) = x * K(U.x)
(Quillen 1978), where d(c.x) = (dc).x + (-1)^(dim c + 1) c gives the
column of each chain c.x from the column of c.  `poset_homology` and
`is_acyclic` take those columns as built, unlabelled and oriented by the
poset's order.  `subposet_chain_complex`, for `sphere_generator` and the
tests, takes the same chains by name (`Poset.chains_within`), sorts each
and hands them to `_assemble`: the simplicial chain complex of the order
complex of the induced subposet.  Only these definitions list chains; no
theorem check does.  With `order_complex`, `Poset.induced` and
`relative_homology`, the tests check the chain model against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Literal, Sequence

from .errors import ConsistencyError, EmptyPoset, NotAChainComplex, NotASubcomplex
from .intmatrix import Column, IntMatrix
from .simplicial import SimplicialComplex, Simplex
from .posets import Poset
from .snf import _snf_core, smith_normal_form

Coefficients = Literal["int", "rat"]


class ChainComplex:
    """Free chain complex with integer boundary maps.

    `ranks[p]` is the rank of C_p; `columns[p]` holds the boundary
    C_p -> C_{p-1} as ranks[p] sparse columns with row indices below
    ranks[p-1]; the constructor takes each boundary in that form.
    `labels[p]` names the basis of C_p: elements for cellular complexes,
    sorted vertex tuples for simplicial ones.  Degrees may start at -1
    (reduced complexes).  d*d = 0 is validated on construction.
    `boundary` is the dense view, built on first use, which only the
    tests and the benchmark read.
    """

    def __init__(self, ranks: dict[int, int], boundary: dict[int, list[Column]],
                 labels: dict[int, tuple] | None = None):
        self.ranks = {p: r for p, r in ranks.items() if r > 0}
        self.columns: dict[int, list[Column]] = {}
        for p, cols in boundary.items():
            rows = self.rank(p - 1)
            if len(cols) != self.rank(p) or any(not 0 <= i < rows for col in cols for i in col):
                raise ValueError(f"boundary in degree {p} has wrong shape")
            if rows and cols:
                self.columns[p] = cols
        self.labels = dict(labels or {})
        self._dense: dict[int, IntMatrix] | None = None
        for p, upper in self.columns.items():
            lower = self.columns.get(p - 1)
            if lower is None:
                continue
            for col in upper:
                image: dict[int, int] = {}
                for i, v in col.items():
                    for k, w in lower[i].items():
                        image[k] = image.get(k, 0) + v * w
                if any(image.values()):
                    raise NotAChainComplex(f"d_{p - 1} . d_{p} != 0")

    @property
    def boundary(self) -> dict[int, IntMatrix]:
        if self._dense is None:
            self._dense = {p: IntMatrix.from_sparse_columns(cols, self.rank(p - 1))
                           for p, cols in self.columns.items()}
        return self._dense

    def rank(self, p: int) -> int:
        return self.ranks.get(p, 0)

    def degrees(self) -> list[int]:
        return sorted(self.ranks)

    def min_degree(self) -> int:
        return min(self.ranks, default=0)

    def max_degree(self) -> int:
        return max(self.ranks, default=0)

    def __repr__(self):
        ranks = [f"{p}:{self.ranks[p]}" for p in self.degrees()]
        return f"ChainComplex({', '.join(ranks)})"


@dataclass(frozen=True)
class HomologySummary:
    """Betti numbers and torsion invariant factors per degree.

    Over the integers `betti[k]` is the free rank and `torsion[k]` the
    invariant-factor chain (entries >= 2); over the rationals torsion is
    empty and betti are dimensions.  `mu[k]` counts torsion factors.
    """

    betti: dict[int, int] = field(default_factory=dict)
    torsion: dict[int, tuple[int, ...]] = field(default_factory=dict)
    coefficients: Coefficients = "int"

    def b(self, k: int) -> int:
        return self.betti.get(k, 0)

    def t(self, k: int) -> tuple[int, ...]:
        return self.torsion.get(k, ())

    def mu(self, k: int) -> int:
        return len(self.t(k))

    def degrees(self) -> list[int]:
        return sorted(set(self.betti) | set(self.torsion))

    def nontrivial(self) -> dict[int, tuple[int, tuple[int, ...]]]:
        return {k: (self.b(k), self.t(k)) for k in self.degrees() if self.b(k) or self.t(k)}

    def is_trivial(self) -> bool:
        return not self.nontrivial()

    def total_betti(self) -> int:
        return sum(self.betti.values())

    def total_mu(self) -> int:
        return sum(len(t) for t in self.torsion.values())

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * b for k, b in self.betti.items() if k >= 0)

    def rational(self) -> HomologySummary:
        """The same space over the rationals: free ranks stay, torsion goes."""
        return HomologySummary(betti=dict(self.betti), coefficients="rat")

    def __eq__(self, other):
        if not isinstance(other, HomologySummary):
            return NotImplemented
        return self.nontrivial() == other.nontrivial()

    def __hash__(self):
        return hash(tuple(sorted(self.nontrivial().items())))

    def __str__(self):
        parts = []
        for k, (b, tor) in sorted(self.nontrivial().items()):
            term = []
            if b:
                term.append("Z" if b == 1 else f"Z^{b}")
            term.extend(f"Z/{t}" for t in tor)
            parts.append(f"H_{k}={'+'.join(term)}")
        return "; ".join(parts) if parts else "trivial"

    def to_doc(self) -> dict:
        degrees = self.degrees()
        lo = min(degrees, default=0)
        hi = max(degrees, default=-1)
        return {
            "min_degree": lo,
            "betti": [self.b(k) for k in range(lo, hi + 1)],
            "torsion": [list(self.t(k)) for k in range(lo, hi + 1)],
            "mu": [self.mu(k) for k in range(lo, hi + 1)],
            "coefficients": self.coefficients,
        }


def sphere_summary(dim: int) -> HomologySummary:
    """Reduced homology of the dim-sphere; dim = -1 is the empty space."""
    return HomologySummary(betti={dim: 1})


def homology(complex: ChainComplex) -> HomologySummary:
    """Integral homology of the complex, exact."""
    return _homology(complex.ranks, complex.columns)


def _homology(ranks: dict[int, int], columns: dict[int, Sequence[Column]]) -> HomologySummary:
    """The integral homology of the complex with these ranks, all positive,
    and boundary columns, each d_p listed only where C_{p-1} has a rank;
    d*d = 0 is not checked."""
    if not ranks:
        return HomologySummary()
    factors = _smith_factors(ranks, columns)
    betti: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}
    for p in range(min(ranks), max(ranks) + 1):
        up = factors.get(p + 1, ())
        betti[p] = ranks.get(p, 0) - len(factors.get(p, ())) - len(up)
        if betti[p] < 0:
            raise ConsistencyError("negative betti number: rank bookkeeping bug")
        tor = tuple(d for d in up if d > 1)
        if tor:
            torsion[p] = tor
    # Euler characteristic must agree between chain ranks and homology
    chain_euler = sum((-1) ** p * r for p, r in ranks.items())
    hom_euler = sum((-1) ** p * b for p, b in betti.items())
    if chain_euler != hom_euler:
        raise ConsistencyError("Euler characteristic mismatch")
    return HomologySummary(betti=betti, torsion=torsion)


def smith_diagonal(columns: Sequence[Column], rows: int) -> tuple[int, ...]:
    """The Smith diagonal of the rows x len(columns) matrix with these
    sparse columns: its 1s, then the rest of the divisibility chain, then
    zeros, min(rows, len(columns)) entries in all.  `columns` is not
    modified."""
    factors = _smith_factors({0: rows, 1: len(columns)}, {1: columns}).get(1, [])
    return tuple(factors + [0] * (min(rows, len(columns)) - len(factors)))


def _smith_factors(ranks: dict[int, int],
                   columns: dict[int, Sequence[Column]]) -> dict[int, list[int]]:
    """The nonzero Smith factors of each boundary d_p, in divisibility
    order.  From the top degree down, each pair that `_Reducer.reduce`
    eliminates from d_p is a factor 1, and the dense core gives those of
    the block without units that is left.  A pair of the degree above
    only drops a column of d_p that the other columns span, which keeps
    its Smith form.  Once read, d_p is dropped from the reducer, so later
    pairs do not update it."""
    reducer = _Reducer(ranks, columns, track=False)
    factors: dict[int, list[int]] = {}
    for p in sorted(columns, reverse=True):
        reducer.reach(p)
        ones = reducer.reduce(p)
        factors[p] = [1] * ones + _dense_factors(reducer.cols.pop(p).values())
        del reducer.rows[p]
    return factors


def _dense_factors(columns: Iterable[Column]) -> list[int]:
    """The nonzero Smith factors of the matrix with these sparse columns,
    from the dense core on its nonzero rows and columns."""
    columns = [col for col in columns if col]
    if not columns:
        return []
    at = {i: r for r, i in enumerate(sorted({i for col in columns for i in col}))}
    data = [[0] * len(columns) for _ in at]
    for c, col in enumerate(columns):
        for i, v in col.items():
            data[at[i]][c] = v
    _snf_core(data, len(at), len(columns), want_transforms=False)
    return [data[t][t] for t in range(min(len(at), len(columns))) if data[t][t]]


@dataclass(frozen=True)
class Reduction:
    """A complex with the homology of the one it was reduced from, and the
    chain map back: `inclusion[p][j]` is the chain of the input that the
    j-th cell of degree p stands for."""

    complex: ChainComplex
    inclusion: dict[int, list[Column]]


def _apply(columns, chain: Column, start: Column | None = None) -> Column:
    """start + the image of a sparse chain under the map whose column j is
    columns[j], a list or a dict keyed like the chain: the one sparse sum of
    the Smith step's change of basis and of the flow's dV + Vd."""
    out = dict(start or {})
    for j, a in chain.items():
        for i, v in columns[j].items():
            out[i] = out.get(i, 0) + a * v
    return {i: v for i, v in out.items() if v}


class _Reducer:
    """A complex under elimination: per degree p, the boundary column of
    each live cell of C_p (rows are cells of C_{p-1}) and the live columns
    with an entry in each row.  It is the one place that picks and
    eliminates unit pivots, orders the eliminations (`sweep`) and numbers
    the cells left (`model`).  When tracked, eliminating b records an edge
    c -> b of weight -<dc, a> u for each column c it changes, the multiple
    of g(b) that g(c) gains; g is built from the edges only for the cells
    asked for (`inclusions`).  A degree is copied from the input when it
    is first reached, so the top-down sweeps hold few degrees at once."""

    def __init__(self, ranks: dict[int, int], columns: dict[int, Sequence[Column]],
                 track: bool = True):
        self.ranks, self.columns = ranks, columns
        self.cols: dict[int, dict[int, Column]] = {}
        self.rows: dict[int, dict[int, set[int]]] = {}
        self.loaded: set[int] = set()
        # edges[p][c]: the (b, weight) pairs recorded on c, in order
        self.edges: dict[int, dict[int, list[tuple[int, int]]]] | None = {} if track else None
        # base[p][c]: the chain of c once a Smith step has changed the basis of C_p
        self.base: dict[int, dict[int, Column]] = {}

    def reach(self, p: int) -> None:
        """Load C_p and C_{p-1}, each only the first time it is reached."""
        for q in (p, p - 1):
            if q not in self.loaded:
                self._load(q)

    def _load(self, p: int) -> None:
        """Copy the columns of C_p and index its rows."""
        self.loaded.add(p)
        n = self.ranks[p]
        self.cols[p] = (dict(enumerate(map(dict, self.columns[p]))) if p in self.columns
                        else {j: {} for j in range(n)})
        if self.edges is not None:
            self.edges[p] = {}
        self._index(p)

    def _index(self, p: int) -> None:
        rows = self.rows[p] = {}
        for j, col in self.cols.get(p, {}).items():
            for i in col:
                if i in rows:
                    rows[i].add(j)
                else:
                    rows[i] = {j}

    def eliminate(self, p: int, a: int, b: int) -> None:
        """Eliminate a in C_{p-1} with b in C_p, <db, a> = u = +-1: each other
        column c of d_p loses <dc, a> u db (the Schur complement), and, when
        tracked, c gets the edge c -> b of weight -<dc, a> u."""
        u = self.cols[p].get(b, {}).get(a, 0)
        if u != 1 and u != -1:
            raise ConsistencyError(f"pivot <d b, a> = {u} in degree {p} is not a unit")
        col = self.cols[p].pop(b)
        del col[a]
        rows = self.rows[p]
        edges = self.edges[p] if self.edges is not None else None
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
            if edges is not None:
                if c in edges:
                    edges[c].append((b, -q))
                else:
                    edges[c] = [(b, -q)]
        for i in self.cols[p - 1].pop(a):
            self.rows[p - 1][i].discard(a)
        for c in self.rows.get(p + 1, {}).pop(b, ()):
            del self.cols[p + 1][c][b]

    def reduce(self, p: int) -> int:
        """Eliminate +-1 entries of d_p until none is left; return how many
        pairs that took.  Each pass visits the columns shortest first, and
        each takes the +-1 whose row has the fewest entries (a
        Markowitz-style choice that keeps fill-in low): the first whose row
        it alone occupies, else the first of the fewest."""
        cols, rows = self.cols[p], self.rows[p]
        pairs, progress = 0, True
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
                    pairs += 1
                    progress = True
        return pairs

    def sweep(self, pairs: dict[int, Iterable[tuple[int, int]]] | None = None) -> _Reducer:
        """The top-down elimination of `morse_reduction`: per degree the given
        pairs, in order, or without them every +-1 that `reduce` finds."""
        for p in sorted(self.columns, reverse=True):
            self.reach(p)
            if pairs is None:
                self.reduce(p)
            for a, b in (pairs or {}).get(p, ()):
                self.eliminate(p, a, b)
        return self

    def inclusions(self, p: int, cells: Sequence[int]) -> list[Column]:
        """g of each of these live cells of C_p: its own cell (its chain after
        a Smith step) plus the weight times g(b) over each edge c -> b, in
        the order the edges were recorded.  That is the sum over the
        gradient paths from the cell (Forman 1998, section 8).  Edges
        only lead to dead cells, so the cells they reach form a DAG; each
        reached cell's g is built once, after those it leads to, and
        dropped once every edge into it has been read."""
        edges, base = self.edges[p], self.base.get(p, {})
        # each reached cell, with the number of edges into it not yet read
        waiting: dict[int, int] = {}
        order: list[int] = []
        for cell in cells:
            waiting[cell] = 0
            stack = [(cell, iter(edges.get(cell, ())))]
            while stack:
                c, out = stack[-1]
                for b, _ in out:
                    if b in waiting:
                        waiting[b] += 1
                    else:
                        waiting[b] = 1
                        stack.append((b, iter(edges.get(b, ()))))
                        break
                else:
                    stack.pop()
                    order.append(c)
        memo: dict[int, Column] = {}
        for c in order:
            chain = dict(base[c]) if c in base else {c: 1}
            for b, w in edges.get(c, ()):
                for i, v in memo[b].items():
                    new = chain.get(i, 0) + w * v
                    if new:
                        chain[i] = new
                    else:
                        del chain[i]
                waiting[b] -= 1
                if not waiting[b]:
                    del memo[b]
            memo[c] = chain
        return [memo[c] for c in cells]

    def survivors(self) -> dict[int, list[int]]:
        """The live cells of each degree that has any, loading those never reached."""
        for p in self.ranks.keys() - self.loaded:
            self._load(p)
        return {p: list(self.cols[p]) for p in self.ranks if self.cols[p]}

    def model(self, live: dict[int, list[int]]) -> tuple[dict[int, int], dict[int, list[Column]]]:
        """The ranks and boundary columns of the complex spanned by the live
        cells of `survivors()`, numbered in their order there."""
        at = {p: {c: j for j, c in enumerate(cells)} for p, cells in live.items()}
        boundary = {p: [{at[p - 1][i]: v for i, v in self.cols[p][c].items()} for c in cells]
                    for p, cells in live.items() if p - 1 in at}
        return {p: len(cells) for p, cells in live.items()}, boundary

    def _rebase(self, p: int, old: list[int], B: IntMatrix, B_inv: IntMatrix) -> None:
        """Make the t-th cell of C_p the chain sum_i B[i, t] old[i]; its
        inclusion, built for the old cells, becomes its base chain."""
        # every old cell, zero coefficients too: pivots follow the entries' order
        new = lambda chains: {t: _apply(chains, dict(enumerate(B.column(t))))
                              for t in range(len(old))}
        self.base[p] = new(self.inclusions(p, old))
        self.edges[p] = {}
        self.cols[p] = new([self.cols[p][c] for c in old])
        # coordinates x in the old cells are B^-1 x in the new ones
        columns = dict(zip(old, B_inv.sparse_columns()))
        for c, col in self.cols.get(p + 1, {}).items():
            self.cols[p + 1][c] = _apply(columns, col)
        self._index(p)
        self._index(p + 1)

    def smith_step(self, p: int) -> list[int]:
        """Bring d_p = U D V to D, C_p by V^-1 and C_{p-1} by U, if D has a 1
        or d_p has dependent nonzero columns, so that the cells with empty
        columns span the cycles of C_p; return the positions of its 1s."""
        upper, lower = list(self.cols[p]), list(self.cols[p - 1])
        at = {a: t for t, a in enumerate(lower)}
        snf = smith_normal_form(IntMatrix.from_sparse_columns(
            [{at[a]: v for a, v in self.cols[p][b].items()} for b in upper], len(lower)))
        units = [t for t, f in enumerate(snf.diagonal) if f == 1]
        if units or sum(map(bool, snf.diagonal)) < sum(map(bool, self.cols[p].values())):
            self._rebase(p, upper, snf.V_inv, snf.V)
            self._rebase(p - 1, lower, snf.U, snf.U_inv)
        return units

    def result(self) -> Reduction:
        live = self.survivors()
        return Reduction(ChainComplex(*self.model(live)),
                         {p: self.inclusions(p, cells) for p, cells in live.items()})


def morse_reduction(complex: ChainComplex,
                    pairs: dict[int, Iterable[tuple[int, int]]] | None = None) -> Reduction:
    """Eliminate pairs of cells a in C_{p-1}, b in C_p with <db, a> = +-1,
    from the top degree down (Kaczynski, Mrozek and Slusarek, Comput.
    Math. Appl. 1998).  The Schur complement keeps what is left a complex
    homotopy equivalent to the input, and the inclusion g, built for the
    cells that survive, a chain map; the pairs of an acyclic matching
    leave its algebraic Morse complex (Skoldberg, Trans. AMS 2006).
    `pairs` maps a degree p to index pairs (a, b), eliminated in order,
    and one whose pivot is not +-1 when it is reached raises
    ConsistencyError; without them, no +-1 entry is left in any
    boundary."""
    return _Reducer(complex.ranks, complex.columns).sweep(pairs).result()


def _minimal_reducer(ranks: dict[int, int], columns: dict[int, Sequence[Column]]) -> _Reducer:
    """The reducer of `minimal_model` on these cells, before the result is
    built, so a caller can read the survivors and build only the
    inclusions it needs.  `columns` is not modified."""
    reducer = _Reducer(ranks, columns).sweep()
    for p in sorted(columns, reverse=True):
        if any(reducer.cols[p].values()):
            for t in reducer.smith_step(p):
                reducer.eliminate(p, t, t)
    return reducer


def minimal_model(complex: ChainComplex) -> Reduction:
    """A reduction of rank b_k + mu_k + mu_{k-1} in degree k, the fewest
    cells a complex with this homology has: `morse_reduction` without
    pairs, then, from the top degree down, each boundary whose Smith form
    has a unit factor or whose nonzero columns are dependent changes basis
    to that form, and its 1s are eliminated as pairs.  So the cycles of
    each degree are spanned by its cells with empty columns.  The Smith
    forms run only on the reduced complex, and on the inclusions of its
    cells."""
    return _minimal_reducer(complex.ranks, complex.columns).result()


def _boundary_column(simplex: Simplex, index: dict[Simplex, int]) -> Column:
    """Sparse boundary of a sorted simplex; faces missing from `index`
    (those of a subcomplex that is quotiented out) are dropped."""
    col: Column = {}
    for i in range(len(simplex)):
        row = index.get(simplex[:i] + simplex[i + 1:])
        if row is not None:
            col[row] = -1 if i % 2 else 1
    return col


def _assemble(simplices: dict[int, Sequence[Simplex]], reduced: bool) -> ChainComplex:
    """The chain complex spanned by the given sorted simplices, per
    dimension, with sorted-vertex orientation; faces not listed are
    quotiented out.  The simplices are the labels.  With reduced=True the
    empty simplex spans an augmentation slot C_{-1} = Z."""
    if reduced:
        simplices = {-1: [()], **simplices}
    boundary: dict[int, list[Column]] = {}
    for d, sims in simplices.items():
        if d - 1 in simplices:
            index = {s: i for i, s in enumerate(simplices[d - 1])}
            boundary[d] = [_boundary_column(s, index) for s in sims]
    return ChainComplex({d: len(sims) for d, sims in simplices.items()}, boundary,
                        {d: tuple(sims) for d, sims in simplices.items()})


def simplicial_chain_complex(complex: SimplicialComplex, reduced: bool = False) -> ChainComplex:
    """The simplicial chain complex with sorted-vertex orientation.

    With reduced=True an augmentation slot C_{-1} = Z is added; the empty
    complex then has homology Z in degree -1.
    """
    return _assemble(complex.simplices, reduced)


def relative_chain_complex(complex: SimplicialComplex,
                           subcomplex: SimplicialComplex) -> ChainComplex:
    """The quotient complex C(K)/C(L) for a subcomplex L of K."""
    if not complex.contains_complex(subcomplex):
        raise NotASubcomplex("second complex is not contained in the first")
    excluded = {s for sims in subcomplex.simplices.values() for s in sims}
    return _assemble({d: [s for s in sims if s not in excluded]
                      for d, sims in complex.simplices.items()}, reduced=False)


def subposet_chain_complex(poset: Poset, members: Iterable[str],
                           reduced: bool = False) -> ChainComplex:
    """The chain complex of the order complex K(A) of the subposet on
    A = `members`.

    K(A) is the full subcomplex of K(P) spanned by A, so its simplices are
    the chains of the poset that lie inside A (`Poset.chains_within`).
    Simplices, their order and their orientation are those of
    `simplicial_chain_complex(order_complex(poset.induced(A)))`.  With
    reduced=True the augmentation slot is added.
    """
    simplices: dict[int, list[Simplex]] = {}
    for local in poset.chains_within(members).values():
        for c in local:
            simplices.setdefault(len(c) - 1, []).append(tuple(sorted(c)))
    return _assemble({d: sorted(simplices[d]) for d in sorted(simplices)}, reduced)


def relative_homology(complex: SimplicialComplex, subcomplex: SimplicialComplex) -> HomologySummary:
    return homology(relative_chain_complex(complex, subcomplex))


def poset_homology(poset: Poset, reduced: bool = False) -> HomologySummary:
    """Homology of the finite space via the order complex of the whole
    poset, the definition, which `cellular.space_homology` reads off a
    smaller model; the summary is cached.  The complex is
    `Poset._chain_cones` as built: unlabelled, oriented by the poset's
    order, and checked for d*d = 0 by `ChainComplex`."""
    if not poset.elements and not reduced:
        raise EmptyPoset("unreduced homology of the empty poset is undefined")
    key = ("poset_homology", reduced)
    cached = poset.analysis_cache.get(key)
    if cached is None:
        boundary = dict(enumerate(poset._chain_cones(poset.elements)[0]))
        ranks = {d: len(cols) for d, cols in boundary.items()}
        if reduced:
            ranks[-1] = 1
        else:
            del boundary[0]
        cached = poset.analysis_cache[key] = homology(ChainComplex(ranks, boundary))
    return cached


def is_acyclic(poset: Poset) -> bool:
    """Reduced homology vanishes everywhere; the empty poset is not acyclic."""
    return poset_homology(poset, reduced=True).is_trivial()
