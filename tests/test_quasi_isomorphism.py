"""The mapping-cone quasi-isomorphism test against the dense SNF oracle.

Every case runs `verify_quasi_isomorphism` and `helpers.snf_quasi_isomorphism`
on the same (sub, inclusion, ambient) triple and requires equal verdicts.
The triples are the minimal subcomplexes and flow-invariant complexes of
the bundled fixtures and of seeded random simplicial complexes (reduced
ones start in degree -1), each also with perturbed inclusions.  The
inclusions are sparse columns, as the library gives them; the
perturbations are built on their dense matrices (`helpers.dense_inclusion`).
"""

from pathlib import Path

from posetmorse import (
    ChainComplex,
    cellular_chain_complex,
    face_poset,
    flow_operator,
    homology,
    minimal_subcomplex,
    perturb_to_morse,
    simplicial_chain_complex,
    subdivision,
)
from posetmorse.category import verify_quasi_isomorphism
from posetmorse.formats import load_complex, load_poset, parse_matching_text
from posetmorse.randgen import XorShift64Star, random_simplicial_complex

from helpers import (boundary_or_empty, dense_inclusion, matrix_rank, mul_vec,
                     snf_quasi_isomorphism)

DATA = Path(__file__).resolve().parent.parent / "data"

FIXTURES = [  # (space, kind, matchings)
    ("t3_poset.txt", "poset", ["t3_matching_m1.txt", "t3_matching_m2.txt"]),
    ("mobius_5.txt", "simplicial", ["mobius_ring_matching.txt"]),
    ("rp2_6.txt", "simplicial", ["rp2_star5_matching.txt"]),
]


def _fixture_triples():
    for name, kind, matchings in FIXTURES:
        text = (DATA / name).read_text()
        if kind == "simplicial":
            complex = load_complex(text)
            poset = face_poset(complex)
            chains = [simplicial_chain_complex(complex),
                      simplicial_chain_complex(complex, reduced=True)]
        else:
            poset, _ = load_poset(text)
            chains = []
        chains.append(cellular_chain_complex(poset).complex)
        for chain in chains:
            witness = minimal_subcomplex(chain)
            yield f"{name} minimal", witness.complex, witness.inclusion, chain
        for matching_name in matchings:
            matching = parse_matching_text(poset, (DATA / matching_name).read_text())
            perturbed, _ = perturb_to_morse(poset, matching)
            flow = flow_operator(poset, perturbed)
            yield (f"{name} flow {matching_name}", flow.invariant_complex, flow.inclusion,
                   cellular_chain_complex(poset).complex)


def _random_triples():
    rng = XorShift64Star(4141)
    for i in range(20):
        complex = random_simplicial_complex(rng, max_vertices=6, max_triangles=5)
        for reduced in (False, True):
            chain = simplicial_chain_complex(complex, reduced=reduced)
            witness = minimal_subcomplex(chain)
            yield f"random {i} reduced={reduced}", witness.complex, witness.inclusion, chain


def _with_column(inclusion, p, j, column):
    """The inclusion with its j-th column of degree p set to a dense one."""
    cols = list(inclusion[p])
    cols[j] = {i: v for i, v in enumerate(column) if v}
    return {**inclusion, p: cols}


def _is_free_cycle(sub, p, j):
    """e_j is a cycle that no boundary touches: it spans a free summand
    of H_p(sub), so doubling it keeps a chain map that is not onto."""
    if sub.columns.get(p, [{}] * sub.rank(p))[j]:
        return False
    return all(j not in col for col in sub.columns.get(p + 1, []))


def _perturbations(sub, inclusion, ambient, rng):
    """(kind, inclusion) pairs built from a valid quasi-isomorphism."""
    dense = dense_inclusion(inclusion, ambient)
    for p in sub.degrees():
        inc = dense[p]
        free = [j for j in range(inc.cols) if _is_free_cycle(sub, p, j)]
        if free:
            j = free[0]
            yield "doubled", _with_column(inclusion, p, j, [2 * v for v in inc.column(j)])
            # adding a boundary to a free cycle keeps the induced map
            c = [rng.randint(-1, 1) for _ in range(ambient.rank(p + 1))]
            if c:
                image = mul_vec(boundary_or_empty(ambient, p + 1), c)
                moved = [v + w for v, w in zip(inc.column(j), image)]
                yield "plus-boundary", _with_column(inclusion, p, j, moved)
        cycles = [j for j in range(inc.cols) if not sub.columns.get(p, [{}] * inc.cols)[j]]
        non_cycles = [k for k, col in enumerate(ambient.columns.get(p, [])) if col]
        if cycles and non_cycles:
            # a sub cycle sent to a chain with nonzero boundary, kept injective
            j = cycles[0]
            for k in non_cycles:
                moved = [v + (i == k) for i, v in enumerate(inc.column(j))]
                changed = _with_column(inclusion, p, j, moved)
                if matrix_rank(dense_inclusion(changed, ambient)[p]) == inc.cols:
                    yield "non-chain-map", changed
                    break
        twin = inc.column(0) if inc.cols > 1 else [0] * inc.rows
        yield "non-injective", _with_column(inclusion, p, inc.cols - 1, twin)
        yield "wrong-count", {**inclusion, p: inclusion[p][1:]}
        yield "wrong-count", {**inclusion, p: inclusion[p] + [{}]}
        yield "row-out-of-range", {**inclusion, p: [{**inclusion[p][0], inc.rows: 1},
                                                    *inclusion[p][1:]]}
        yield "missing-degree", {q: m for q, m in inclusion.items() if q != p}
        # one entry changed at random: mostly not a chain map, sometimes harmless
        j, i = rng.randint(0, inc.cols - 1), rng.randint(0, inc.rows - 1)
        column = inc.column(j)
        column[i] += rng.choice([-2, -1, 1, 2])
        yield "random-entry", _with_column(inclusion, p, j, column)


def test_cone_verifier_matches_snf_oracle():
    rng = XorShift64Star(77)
    verdicts: dict[str, list[bool]] = {}
    for label, sub, inclusion, ambient in [*_fixture_triples(), *_random_triples()]:
        assert verify_quasi_isomorphism(sub, inclusion, ambient), label
        assert snf_quasi_isomorphism(sub, inclusion, ambient), label
        verdicts.setdefault("unperturbed", []).append(True)
        for kind, changed in _perturbations(sub, inclusion, ambient, rng):
            verdict = verify_quasi_isomorphism(sub, changed, ambient)
            assert verdict == snf_quasi_isomorphism(sub, changed, ambient), (label, kind)
            verdicts.setdefault(kind, []).append(verdict)
            if kind == "doubled":
                assert homology(sub) == homology(ambient)
    for kind in ("doubled", "non-chain-map", "non-injective", "wrong-count", "row-out-of-range",
                 "missing-degree"):
        assert verdicts[kind] and not any(verdicts[kind]), kind
    assert all(verdicts["plus-boundary"])
    assert False in verdicts["random-entry"]
    assert sum(map(len, verdicts.values())) > 350


def test_reduced_complex_from_degree_minus_one():
    complex = load_complex((DATA / "mobius_5.txt").read_text())
    chain = simplicial_chain_complex(complex, reduced=True)
    witness = minimal_subcomplex(chain)
    assert chain.min_degree() == -1
    assert witness.quasi_isomorphism_verified
    # the augmentation class alone is not quasi-isomorphic to the band
    inclusion = {-1: [{0: 1}]}
    sub = ChainComplex({-1: 1}, {})
    assert not verify_quasi_isomorphism(sub, inclusion, chain)
    assert not snf_quasi_isomorphism(sub, inclusion, chain)


def test_non_injective_quasi_isomorphism_is_rejected():
    """S = A + (Z -1-> Z), mapped by the identity on A and by zero on the
    acyclic summand, induces isomorphisms on homology (its cone is
    acyclic) but is no inclusion, so only the injectivity check fails."""
    poset, _ = load_poset((DATA / "t3_poset.txt").read_text())
    ambient = cellular_chain_complex(poset).complex
    n0, n1 = ambient.rank(0), ambient.rank(1)
    sub = ChainComplex({0: n0 + 1, 1: n1 + 1}, {1: ambient.columns[1] + [{n0: 1}]})
    inclusion = {p: [{i: 1} for i in range(n)] + [{}] for p, n in ((0, n0), (1, n1))}
    assert homology(sub) == homology(ambient)
    assert not verify_quasi_isomorphism(sub, inclusion, ambient)
    assert not snf_quasi_isomorphism(sub, inclusion, ambient)


def test_cone_borrows_the_ambient_columns(monkeypatch):
    """The cone lists A_p before S_{p-1}, so each degree of the cone starts
    with the ambient's own column objects, and it goes to the homology
    engine as ranks and columns: no ChainComplex is built, so nothing is
    copied or checked again."""
    import posetmorse.category as category

    rp2 = face_poset(load_complex((DATA / "rp2_6.txt").read_text()))
    spaces = [load_poset((DATA / "t3_poset.txt").read_text())[0],
              face_poset(load_complex((DATA / "mobius_5.txt").read_text())),
              subdivision(subdivision(rp2))]
    triples = []
    for poset in spaces:
        ambient = cellular_chain_complex(poset).complex
        witness = minimal_subcomplex(ambient)
        triples.append((witness.complex, witness.inclusion, ambient))
    matching = parse_matching_text(rp2, (DATA / "rp2_star5_matching.txt").read_text())
    flow = flow_operator(rp2, perturb_to_morse(rp2, matching)[0])
    triples.append((flow.invariant_complex, flow.inclusion, cellular_chain_complex(rp2).complex))

    calls, built = [], []
    homology_engine, init = category._homology, ChainComplex.__init__

    def record(ranks, columns):
        calls.append((ranks, columns))
        return homology_engine(ranks, columns)

    def build(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(category, "_homology", record)
    monkeypatch.setattr(ChainComplex, "__init__", build)
    for sub, inclusion, ambient in triples:
        calls.clear()
        assert verify_quasi_isomorphism(sub, inclusion, ambient)
        assert not built
        [(ranks, columns)] = calls
        assert ranks == {p: ambient.rank(p) + sub.rank(p - 1)
                         for p in {*ambient.ranks, *(p + 1 for p in sub.ranks)}}
        assert ambient.columns and set(ambient.columns) <= set(columns)
        for p, cols in ambient.columns.items():
            assert len(columns[p]) == ranks[p]
            assert all(cone is own for cone, own in zip(columns[p], cols))
