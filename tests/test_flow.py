"""The flow on sparse chains against the dense flow oracle.

`flow_operator` iterates phi = Id + dV + Vd on each critical element until
it stops changing; `helpers.dense_flow_operator` multiplies the dense
matrices and takes the kernel of dV + Vd.  Both run on the `data/`
fixtures and on seeded random Morse matchings of face posets and of
admissible random graded posets, and must agree: equal invariant ranks,
both verdicts True, inclusion columns that span the same lattice, and
columns that the dense phi fixes, with critical coordinates e_c.
"""

from pathlib import Path

import pytest

from posetmorse import (
    Poset,
    cellular_chain_complex,
    check_cellularity,
    face_poset,
    flow_operator,
    homology,
    is_morse_matching,
    ls_theorem_check,
    perturb_to_morse,
    poset_homology,
    validate_matching,
)
from posetmorse.formats import load_complex, load_poset, parse_matching_text
from posetmorse.randgen import (
    XorShift64Star,
    random_graded_poset,
    random_simplicial_complex,
)
from posetmorse.intmatrix import IntMatrix
from posetmorse.snf import smith_normal_form

from helpers import dense_flow_operator, dense_inclusion, mul_vec, patch_where_bound, solve

DATA = Path(__file__).resolve().parent.parent / "data"

FIXTURES = [  # (space, kind, matching)
    ("t3_poset.txt", "poset", "t3_matching_m1.txt"),
    ("t3_poset.txt", "poset", "t3_matching_m2.txt"),
    ("mobius_5.txt", "simplicial", "mobius_ring_matching.txt"),
    ("rp2_6.txt", "simplicial", "rp2_star5_matching.txt"),
]


def _fixture_case(space, kind, matching_name):
    text = (DATA / space).read_text()
    poset = face_poset(load_complex(text)) if kind == "simplicial" else load_poset(text)[0]
    matching = parse_matching_text(poset, (DATA / matching_name).read_text())
    perturbed, _ = perturb_to_morse(poset, matching)
    return poset, perturbed


def _random_morse_matching(rng, poset):
    """Walk the covers in random order and keep each free one, with
    probability 3/4, whenever the matching stays acyclic."""
    pairs = []
    used = set()
    covers = sorted(poset.covers)
    rng.shuffle(covers)
    for w, x in covers:
        if w in used or x in used or not rng.chance(3, 4):
            continue
        if is_morse_matching(poset, validate_matching(poset, pairs + [(w, x)])):
            pairs.append((w, x))
            used |= {w, x}
    return validate_matching(poset, pairs)


def _random_cases(count):
    """`count` Morse matchings, alternating face posets of random complexes
    and admissible random graded posets of degree at least 1."""
    rng = XorShift64Star(2718)
    cases = []
    while len(cases) < count:
        if len(cases) % 2:
            poset = face_poset(random_simplicial_complex(rng, max_vertices=6, max_triangles=5))
        else:
            poset = random_graded_poset(rng, max_elements=12, max_levels=3)
            if (poset.max_degree() == 0
                    or not check_cellularity(poset).is_homologically_admissible):
                continue
        cases.append((poset, _random_morse_matching(rng, poset)))
    return cases


def _solves_in(columns: IntMatrix, lattice: IntMatrix) -> bool:
    snf = smith_normal_form(lattice)
    return all(solve(lattice, col, snf) is not None for col in columns.columns())


def _check_against_oracle(poset, matching):
    flow = flow_operator(poset, matching)
    dense = dense_flow_operator(poset, matching)
    assert flow.invariant_ranks == dense.invariant_ranks
    assert flow.rank_matches_critical and dense.rank_matches_critical
    assert flow.quasi_isomorphism_verified and dense.quasi_isomorphism_verified
    assert set(flow.inclusion) == set(dense.inclusion)
    matched = matching.matched_elements()
    longest = 0
    for p, inc in dense_inclusion(flow.inclusion, cellular_chain_complex(poset).complex).items():
        assert _solves_in(inc, dense.inclusion[p])
        assert _solves_in(dense.inclusion[p], inc)
        assert dense.phi[p] @ inc == inc
        critical = [i for i, e in enumerate(poset.level(p)) if e not in matched]
        assert [[inc[i, j] for j in range(inc.cols)] for i in critical] == \
            IntMatrix.identity(len(critical)).to_lists()
        # phi^k(c) for k = 1, 2, ... until it is fixed: the gradient path length
        for j in range(inc.cols):
            col = [1 if i == critical[j] else 0 for i in range(inc.rows)]
            steps = 0
            while mul_vec(dense.phi[p], col) != col:
                col = mul_vec(dense.phi[p], col)
                steps += 1
            longest = max(longest, steps)
    assert homology(flow.invariant_complex) == homology(dense.invariant_complex)
    return longest


@pytest.mark.parametrize("space,kind,matching_name", FIXTURES)
def test_flow_matches_dense_oracle_on_fixtures(space, kind, matching_name):
    poset, matching = _fixture_case(space, kind, matching_name)
    _check_against_oracle(poset, matching)
    assert homology(flow_operator(poset, matching).invariant_complex) == poset_homology(poset)


def test_flow_matches_dense_oracle_on_random_morse_matchings():
    longest = [_check_against_oracle(poset, matching) for poset, matching in _random_cases(120)]
    # the cases include flows that need more than one phi step to settle
    assert max(longest) >= 2
    assert sum(1 for k in longest if k >= 2) >= 10


def test_flow_takes_no_dense_smith_form(monkeypatch):
    import sys

    import posetmorse.category as category
    import posetmorse.snf as snf

    # `posetmorse.homology` is the function; the module binds smith_normal_form
    # at import, where the reducer's Smith step calls it
    homology_module = sys.modules["posetmorse.homology"]
    cases = [_fixture_case(*fixture) for fixture in FIXTURES]
    for poset, _ in cases:
        cellular_chain_complex(poset)  # cached first: the guard below watches the flow alone

    def refuse(*args, **kwargs):
        raise AssertionError("the flow reached a dense Smith-form routine")

    patch_where_bound(monkeypatch, (category, snf, homology_module), ["smith_normal_form"], refuse)
    for poset, matching in cases:
        flow = flow_operator(poset, matching)
        assert flow.rank_matches_critical and flow.quasi_isomorphism_verified


def _redeclared(poset, order):
    """The same poset with its elements declared in reverse, or in a
    seeded shuffle: the same names, other ids in each degree."""
    elements = list(poset.elements)
    elements = elements[::-1] if order == "reversed" else XorShift64Star(1966).shuffle(elements)
    return Poset(elements, list(poset.covers))


def _named_flow(poset, matching, flow):
    """The flow in names: each critical element's invariant chain and its
    Morse boundary.  The cells of the Morse complex are the critical
    elements in column order, each with critical coordinate 1."""
    labels = cellular_chain_complex(poset).complex.labels
    matched = matching.matched_elements()
    critical = {p: [e for e in cells if e not in matched] for p, cells in labels.items()}
    chains, boundary = {}, {}
    for p, cols in flow.inclusion.items():
        for c, col in zip(critical[p], cols, strict=True):
            chains[c] = {labels[p][i]: v for i, v in col.items()}
            assert chains[c][c] == 1
    for p, cols in flow.invariant_complex.columns.items():
        for c, col in zip(critical[p], cols, strict=True):
            boundary[c] = {critical[p - 1][i]: v for i, v in col.items()}
    return (flow.invariant_ranks, chains, boundary, flow.rank_matches_critical,
            flow.quasi_isomorphism_verified)


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
@pytest.mark.parametrize("space,kind,matching_name", FIXTURES)
def test_flow_reads_cells_by_id_in_any_declared_order(space, kind, matching_name, order):
    # the flow reads cells by id; with the ids of each degree in another
    # order, it must give the same chains, named, and the same verdicts
    poset, matching = _fixture_case(space, kind, matching_name)
    again = _redeclared(poset, order)
    assert again.level(1) != poset.level(1)
    moved = validate_matching(again, matching.pairs)
    named = _named_flow(poset, matching, flow_operator(poset, matching))
    assert named[3] and named[4]
    assert _named_flow(again, moved, flow_operator(again, moved)) == named
    _check_against_oracle(again, moved)
    # the theorem check perturbs the fixture's own matching itself
    original = (DATA / matching_name).read_text()
    report = ls_theorem_check(poset, parse_matching_text(poset, original))
    moved_report = ls_theorem_check(again, parse_matching_text(again, original))
    assert moved_report.holds and moved_report.counts_match_formula
    assert moved_report.warnings == ()
    for field in ("hccat_value", "basic_set_bound", "perturbed_counts", "flow_ranks", "holds",
                  "intermediate_holds", "counts_match_formula"):
        assert getattr(moved_report, field) == getattr(report, field), field
    # a class is named by its first declared member, so only the values compare
    assert (sorted(v[1:] for v in moved_report.class_values)
            == sorted(v[1:] for v in report.class_values))
