"""Exact homology of finitely generated free chain complexes over the
integers, plus the simplicial and poset front ends; a rational answer is
the integral one without its torsion (`HomologySummary.rational`).

Chain complexes store each boundary map as sparse integer columns
{row: value}; d*d = 0 is checked column by column (`_is_cycle`).
One sparse elimination serves every computation here (algebraic Morse
theory): `_Reducer` eliminates pairs of cells joined by a +-1 entry of
d, from the top degree down, by the Schur complement, and it is the
only code that picks unit pivots, but for the free coreductions of the
order complex (below), whose Schur complements are pure deletions.
Each pair splits a Smith factor 1 off its boundary without changing
homology.  One Smith step, `_Reducer.smith`, counts the pairs of d_p and
hands the dense Smith core (`snf._snf_core`) only the block left, the
nonzero columns and the rows they touch, for the rest of the rank and
the torsion; `homology` and `smith_diagonal` run it untracked.  It is
the only Smith form the library takes.
Betti numbers come from boundary ranks, torsion from the invariant
factors of the next boundary.  A formal degree -1 slot holds the
augmentation of reduced complexes, so the empty poset has reduced
homology Z in degree -1 and the cellularity check is uniform at degree
0.

`morse_reduction` runs the same elimination, `_Reducer.sweep`, on given
pairs or on every one it finds.  Each elimination records an edge from
every cell it changes to the cell it removes, and the inclusion of what
is left is built from those edges only for the cells that survive, as
the sum over gradient paths (Forman 1998, section 8; Harker, Mischaikow,
Mrozek and Nanda, Found. Comput. Math. 2014).  `minimal_model` then
runs the tracked Smith step on each degree: a block with a unit factor
or dependent columns changes basis to its Smith form, on its own cells
and their inclusions alone, and its units are eliminated too, leaving
rank b_k + mu_k + mu_{k-1} in degree k, whose cycles are spanned by the
cells with empty columns.
The cellularity pass runs it on the raw cells of each down-set
(`_minimal_reducer`), once per distinct sphere complex, and reads the
sphere verdict and the generator, or the mapping cone of its chain model
over the other models, straight off the survivors, numbered by
`_model`; `cellular.sphere_generator` reads its cycle off the
same survivors, the flow a matching's Morse complex, and the hccat
witness is the minimal model.

One assembler, `_assemble`, turns sorted simplices into sparse columns
for the front ends that label their cells.  `Poset._chain_cones` builds
the order complex of a poset as iterated cones, K(U_x) = x * K(U.x)
(Quillen 1978), where d(c.x) = (dc).x + (-1)^(dim c + 1) c gives the
column of each chain c.x from the column of c.  `poset_homology` and
`is_acyclic` take those columns as built, unlabelled and oriented by the
poset's order, without a `ChainComplex`: one walk checks d*d = 0 on
them and lists each under its rows, and free coreductions (`_coreduce`),
each an elimination whose Schur complement only deletes cells, leave a
small complex for `_homology`.  The order complex of a subposet is that
of the induced poset,
`simplicial_chain_complex(order_complex(poset.induced(A)))`,
which `sphere_generator` and the tests build: `Poset.chains` names the
chains, `order_complex` sorts them and `_assemble` makes the columns.
Only these definitions list chains; no theorem check does.  With
`relative_homology`, the tests check the chain model against them.
"""

from __future__ import annotations

from typing import Callable, Iterable, Literal, NamedTuple, Sequence

from .errors import ConsistencyError, EmptyPoset, NotAChainComplex, NotASubcomplex
from .intmatrix import Column, IntMatrix
from .simplicial import SimplicialComplex, Simplex
from .posets import Poset
from .snf import _snf_core

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
        self._dense = None
        for p, upper in self.columns.items():
            lower = self.columns.get(p - 1)
            if lower is not None:
                for col in upper:
                    _check_column(p, col, lower)

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


def _is_cycle(col: Column, lower: Sequence[Column] | dict) -> bool:
    """Whether d_{p-1}, whose columns `lower` are indexed by the rows of
    `col`, takes this column of d_p to zero: the one d*d kernel, which the
    cellularity pass runs on its rows too."""
    image: dict = {}
    for i, v in col.items():
        for k, w in lower[i].items():
            image[k] = image.get(k, 0) + v * w
    return not any(image.values())


def _check_column(p: int, col: Column, lower: Sequence[Column]) -> None:
    """Raise NotAChainComplex unless `_is_cycle(col, lower)`."""
    if not _is_cycle(col, lower):
        raise NotAChainComplex(f"d_{p - 1} . d_{p} != 0")


class HomologySummary(NamedTuple):
    """Betti numbers and torsion invariant factors per degree.

    Over the integers `betti[k]` is the free rank and `torsion[k]` the
    invariant-factor chain (entries >= 2); over the rationals torsion is
    empty and betti are dimensions.  `mu[k]` counts torsion factors.  Every
    summary built without betti or torsion shares one empty dict as its
    default, so a summary's dicts are never mutated.
    """

    betti: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}
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

    def __ne__(self, other):
        # tuple's own != would compare the fields
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

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


def _space_summary(poset: Poset, reduced: bool, name: str,
                   model: Callable[[], HomologySummary], augmented: bool) -> HomologySummary:
    """The homology of the finite space, H over degrees 0..height, or with
    reduced=True H~ over -1..height, H~_0 = H_0 - Z, cached under (name,
    reduced).  One model gives both: `model()` is the homology of a chain
    model of the space, which may stop below the height, H~ where the
    model is augmented and H where it is not."""
    if not poset.elements:
        if not reduced:
            raise EmptyPoset("unreduced homology of the empty poset is undefined")
        return sphere_summary(-1)
    cache = poset.analysis_cache
    if (name, reduced) not in cache:
        found = model()
        tilde = {k: found.b(k) for k in range(-1, poset.height() + 1)}
        tilde[0] -= not augmented
        cache[name, True] = HomologySummary(tilde, found.torsion)
        cache[name, False] = HomologySummary(
            {k: b + (k == 0) for k, b in tilde.items() if k >= 0}, found.torsion)
    return cache[name, reduced]


def homology(complex: ChainComplex) -> HomologySummary:
    """Integral homology of the complex, exact."""
    return _homology(complex.ranks, complex.columns)


def _homology(ranks: dict[int, int], columns: dict[int, Sequence[Column]]) -> HomologySummary:
    """The integral homology of the complex with these ranks, all positive,
    and boundary columns, each d_p listed only where C_{p-1} has a rank;
    d*d = 0 is not checked.  The untracked Smith step reads each d_p's
    factors, top degree down: a pair of the degree above only drops a
    column of d_p that the other columns span, which keeps its Smith form.
    Once read, d_p is dropped, so later pairs do not update it."""
    if not ranks:
        return HomologySummary()
    reducer, factors = _Reducer(ranks, columns, track=False), {}
    for p in sorted(columns, reverse=True):
        factors[p] = reducer.smith(p)
        del reducer.cols[p], reducer.rows[p]
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
    factors = _Reducer({0: rows, 1: len(columns)}, {1: columns}, track=False).smith(1)
    return tuple(factors + [0] * (min(rows, len(columns)) - len(factors)))


class Reduction(NamedTuple):
    """A complex with the homology of the one it was reduced from, and the
    chain map back: `inclusion[p][j]` is the chain of the input that the
    j-th cell of degree p stands for."""

    complex: ChainComplex
    inclusion: dict[int, list[Column]]


def _model(cols, live: dict[int, list[int]]) -> tuple[dict[int, int], dict[int, list[Column]]]:
    """The ranks and boundary columns of the complex spanned by the live
    cells, per degree that has any, numbered in their order there;
    `cols[p][c]` is the column of the cell c of degree p."""
    at = {p: {c: j for j, c in enumerate(cells)} for p, cells in live.items()}
    boundary = {p: [{at[p - 1][i]: v for i, v in cols[p][c].items()} for c in cells]
                for p, cells in live.items() if p - 1 in at}
    return {p: len(cells) for p, cells in live.items()}, boundary


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

    def smith(self, p: int) -> list[int]:
        """The nonzero Smith factors of d_p, in divisibility order: a 1 per
        pair that `reduce` eliminates, then the dense core's on the block
        left, d_p's nonzero columns and the rows they touch, both in live
        order (ids ascend in it).  When tracked, a block whose form A = U D V
        has a 1 or dependent columns changes basis to D on its cells alone,
        C_p by V^-1 and C_{p-1} by U, and its 1s are eliminated, so that the
        cells with empty columns span the cycles of C_p."""
        self.reach(p)
        ones, cols = self.reduce(p), self.cols[p]
        upper = [b for b, col in cols.items() if col]
        if not upper:
            return [1] * ones
        lower = sorted({a for b in upper for a in cols[b]})
        at = {a: r for r, a in enumerate(lower)}
        data = [[0] * len(upper) for _ in lower]
        for j, b in enumerate(upper):
            for a, v in cols[b].items():
                data[at[a]][j] = v
        U, U_inv, V, V_inv = _snf_core(data, len(lower), len(upper), self.edges is not None)
        factors = [data[t][t] for t in range(min(len(lower), len(upper))) if data[t][t]]
        if self.edges is not None and (1 in factors or len(factors) < len(upper)):
            self._rebase(p, upper, V_inv, V)
            self._rebase(p - 1, lower, U, U_inv)
            for t in range(factors.count(1)):
                self.eliminate(p, lower[t], upper[t])
        return [1] * ones + factors

    def _rebase(self, p: int, old: list[int], B: list[list[int]], B_inv: list[list[int]]) -> None:
        """Make the cell old[t] of C_p the chain sum_i B[i][t] old[i]; its
        inclusion, built for the old cells, becomes its base chain in place
        of its edges.  The columns of d_{p+1} change coordinates by B_inv
        where they touch these cells, their other entries kept first."""
        chains, cols = self.inclusions(p, old), [self.cols[p][c] for c in old]
        base = self.base.setdefault(p, {})
        for t, c in enumerate(old):
            # every old cell, zero coefficients too: pivots follow the entries' order
            column = {i: row[t] for i, row in enumerate(B)}
            base[c], self.cols[p][c] = _apply(chains, column), _apply(cols, column)
            self.edges[p].pop(c, None)
        # coordinates x in the old cells are B^-1 x in the new ones
        columns = {b: {c: row[i] for c, row in zip(old, B_inv) if row[i]}
                   for i, b in enumerate(old)}
        above, rows = self.cols.get(p + 1, {}), self.rows.get(p + 1, {})
        for c in {c for b in old for c in rows.get(b, ())}:
            col = above[c]
            above[c] = _apply(columns, {b: v for b, v in col.items() if b in columns},
                              {b: v for b, v in col.items() if b not in columns})
        self._index(p)
        self._index(p + 1)

    def result(self) -> Reduction:
        live = self.survivors()
        return Reduction(ChainComplex(*_model(self.cols, live)),
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
        reducer.smith(p)
    return reducer


def minimal_model(complex: ChainComplex) -> Reduction:
    """A reduction of rank b_k + mu_k + mu_{k-1} in degree k, the fewest
    cells a complex with this homology has: `morse_reduction` without
    pairs, then the tracked `_Reducer.smith` from the top degree down, so
    the cycles of each degree are spanned by its cells with empty columns.
    The Smith forms run only on blocks of the reduced complex, and on the
    inclusions of their cells."""
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


def relative_homology(complex: SimplicialComplex, subcomplex: SimplicialComplex) -> HomologySummary:
    return homology(relative_chain_complex(complex, subcomplex))


def poset_homology(poset: Poset, reduced: bool = False) -> HomologySummary:
    """Homology of the finite space via the order complex of the whole
    poset, the definition, which `cellular.space_homology` reads off a
    smaller model; the summary is cached.  The complex is the augmented
    one of `Poset._chain_cones`, unlabelled and oriented by the poset's
    order, and `_coreduce` checks it for d*d = 0 and reduces it in place.
    One reduction gives both summaries (`_space_summary`)."""
    return _space_summary(poset, reduced, "poset_homology", lambda: _homology(
        *_coreduce([[{}], *poset._chain_cones()[0]])), augmented=True)


def _coreduce(levels: list[list[Column | None]]) -> tuple[dict[int, int], dict[int, list[Column]]]:
    """The ranks and boundary columns left of a complex by its free
    coreductions (Mrozek and Batko, Discrete Comput. Geom. 2009).
    `levels[k]` holds the columns of the cells of degree k - 1, their rows
    the cells of `levels[k - 1]`; `levels[0]` is one cell without a
    boundary.  One walk checks d*d = 0 on each column and lists it under
    each row it names.  Then a column whose only entry is +-1 pairs with
    that row: both cells die, which is an elimination whose Schur
    complement only deletes them (Kaczynski, Mrozek and Slusarek 1998),
    so each other column just loses its entry on them, and one left with
    a single entry is paired in turn.  A pair of degree k only shortens
    columns of degrees k and k + 1, so the degrees are worked through from
    the bottom up.  The columns are reduced in place, a dead cell's
    column becoming None, and the cells left are numbered in order."""
    # cofaces[k][i]: the columns of levels[k + 1] with an entry on row i
    cofaces: list[list[list[int]]] = []
    # singles[k]: the columns of levels[k] to pair, when they still have one entry
    singles: list[list[int]] = [[]]
    for k in range(1, len(levels)):
        lower = levels[k - 1]
        rows: list[list[int]] = [[] for _ in lower]
        single: list[int] = []
        cofaces.append(rows)
        singles.append(single)
        for j, col in enumerate(levels[k]):
            if k > 1:  # d_{-1} is zero
                _check_column(k - 1, col, lower)
            for i in col:
                rows[i].append(j)
            if len(col) == 1:
                single.append(j)
    for k in range(1, len(levels)):
        cols, lower, rows, stack = levels[k], levels[k - 1], cofaces[k - 1], singles[k]
        above, up, pushed = ((levels[k + 1], cofaces[k], singles[k + 1])
                             if k + 1 < len(levels) else ((), (), []))
        while stack:
            b = stack.pop()
            col = cols[b]
            if col is None or len(col) != 1:
                continue
            (a, u), = col.items()
            if u != 1 and u != -1:
                continue
            cols[b] = lower[a] = None
            for c in rows[a]:
                other = cols[c]
                if other is not None:
                    del other[a]
                    if len(other) == 1:
                        stack.append(c)
            if above:
                for c in up[b]:
                    other = above[c]
                    if other is not None:
                        del other[b]
                        if len(other) == 1:
                            pushed.append(c)
    live = {p: [j for j, col in enumerate(cols) if col is not None]
            for p, cols in enumerate(levels, -1)}
    return _model(dict(enumerate(levels, -1)), {p: cells for p, cells in live.items() if cells})


def is_acyclic(poset: Poset) -> bool:
    """Reduced homology vanishes everywhere; the empty poset is not acyclic."""
    return poset_homology(poset, reduced=True).is_trivial()
