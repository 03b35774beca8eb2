"""Homology of down-closed pairs read off the cellular complex, against the
paper's definition: relative homology of the order complexes of the
induced subposets.  Covers `cellular_pair_homology` and the theorem
checks routed through it (collapse checks, basic-set homology,
Morse-Bott numbers and the basic-set window lemma) on the bundled
fixtures and on seeded admissible posets with random sublevel pairs and
random matchings, and shows that no theorem check enumerates chains."""

import importlib
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from posetmorse import (
    ChainComplex,
    MorseBottFunction,
    Poset,
    SimplicialComplex,
    basic_sets,
    build_poset,
    check_cellularity,
    face_poset,
    filtration_sweep,
    integrate_matching,
    ls_theorem_check,
    morse_bott_numbers,
    parse_simplicial_complex,
    subdivision,
    sublevel,
    validate_matching,
    verify_collapse,
)
from posetmorse.cellular import _pair_homology, cellular_pair_homology
from posetmorse.cli import run
from posetmorse.errors import NotASubcomplex, NotCellular, UnknownElement
from posetmorse.formats import load_poset, parse_matching_text
from posetmorse.randgen import (
    XorShift64Star,
    random_graded_poset,
    random_matching,
    random_simplicial_complex,
)

from helpers import (assert_basic_set_window, basic_set_relative_homology,
                     order_complex_pair_homology, per_interval_sweep)

DATA = Path(__file__).resolve().parent.parent / "data"
FIXTURES = [
    ("t3_poset.txt", "poset", ["t3_matching_m1.txt", "t3_matching_m2.txt"]),
    ("mobius_5.txt", "simplicial", ["mobius_ring_matching.txt"]),
    ("rp2_6.txt", "simplicial", ["rp2_star5_matching.txt"]),
    ("boundary_6simplex.txt", "simplicial", ["boundary_6simplex_cone_matching.txt"]),
]


def _load(name: str, kind: str) -> Poset:
    text = (DATA / name).read_text()
    if kind == "simplicial":
        return face_poset(parse_simplicial_complex(text))
    return load_poset(text)[0]


def _fixture_runs():
    for name, kind, matchings in FIXTURES:
        poset = _load(name, kind)
        for matching in matchings:
            yield poset, parse_matching_text(poset, (DATA / matching).read_text())


def _sphere_with_cone_matching(n: int):
    """The boundary of the n-simplex on vertices 1..n+1, with every face
    missing vertex 1 matched to its union with 1, up to the (n-1)-faces."""
    vertices = [str(i) for i in range(1, n + 2)]
    poset = face_poset(SimplicialComplex(
        [vertices[:i] + vertices[i + 1:] for i in range(n + 1)]))
    pairs = [(e, "|".join(sorted(["1", *e.split("|")])))
             for e in poset.elements if "1" not in e.split("|") and e.count("|") < n - 1]
    return poset, validate_matching(poset, pairs)


def _admissible_posets(seed: int):
    """Seeded homologically admissible posets: face posets of random
    complexes of dimension up to 3, subdivisions of random graded posets,
    and the random graded posets of degree >= 1 that are admissible."""
    rng = XorShift64Star(seed)
    for _ in range(45):
        yield rng, face_poset(random_simplicial_complex(rng, max_vertices=6))
    for _ in range(15):
        vertices = [str(i) for i in range(rng.randint(4, 5))]
        yield rng, face_poset(SimplicialComplex(
            [rng.sample(vertices, 4) for _ in range(rng.randint(1, 2))]
            + [rng.sample(vertices, 3)]))
    for _ in range(30):
        yield rng, subdivision(random_graded_poset(rng, max_elements=6, max_levels=3))
    graded = 0
    while graded < 15:
        poset = random_graded_poset(rng, max_elements=10, max_levels=2)
        if poset.max_degree() >= 1 and check_cellularity(poset).is_homologically_admissible:
            graded += 1
            yield rng, poset


def _oracle_cells(poset: Poset, cells):
    """The pair (A, A - cells), A the down-closure of the locally closed set
    of ids `cells`, by the order-complex definition."""
    cells = [poset._names[x] for x in cells]
    bar = poset.down_closure(cells)
    return order_complex_pair_homology(poset, bar, set(bar) - set(cells))


def _with_oracle(monkeypatch, module: str, fn, *args):
    """fn(*args) with the named module's `cellular_pair_homology` and
    `_pair_homology`, those of the two it binds, replaced by the
    order-complex definition."""
    owner = importlib.import_module(f"posetmorse.{module}")
    oracles = {"cellular_pair_homology": order_complex_pair_homology,
               "_pair_homology": _oracle_cells}
    bound = [name for name in oracles if hasattr(owner, name)]
    assert bound, module
    with monkeypatch.context() as m:
        for name in bound:
            m.setattr(owner, name, oracles[name])
        return fn(*args)


def _random_values(rng: XorShift64Star, poset: Poset) -> dict[str, Fraction]:
    return {e: Fraction(rng.randint(0, 6)) for e in poset.elements}


def _check_pairs(poset, matching, values, monkeypatch) -> tuple[int, int]:
    """Compare every route on one poset; return the (trivial, nontrivial)
    counts of the collapse checks on the free intervals of `values`."""
    levels = sorted(set(values.values()))
    for a, b in zip(levels, levels[1:]):
        lower, upper = sublevel(poset, values, a), sublevel(poset, values, b)
        got = cellular_pair_homology(poset, upper, lower)
        expected = order_complex_pair_homology(poset, upper, lower)
        assert got == expected and got.rational() == expected.rational()
    dec = basic_sets(poset, matching)
    for members in [(e,) for e in dec.critical] + [c.elements for c in dec.orbit_classes]:
        bar = poset.down_closure(members)
        got = basic_set_relative_homology(poset, members)
        expected = order_complex_pair_homology(poset, bar, set(bar) - set(members))
        assert got == expected and got.rational() == expected.rational()
    assert morse_bott_numbers(poset, matching) == _with_oracle(
        monkeypatch, "inequalities", morse_bott_numbers, poset, matching)
    assert_basic_set_window(poset, matching)
    assert_basic_set_window(poset, matching, _oracle_cells)
    # a function that does not integrate the matching: its critical-value-free
    # intervals may change homology, so collapse checks can come out either way
    function = MorseBottFunction(poset, values, matching)
    free = [v for v in sorted(set(values.values())) if v not in function.critical_values()]
    verdicts = [0, 0]
    for a, b in combinations(free, 2):
        if not any(a <= c <= b for c in function.critical_values()):
            got = verify_collapse(poset, function, a, b)
            assert got == _with_oracle(monkeypatch, "morse", verify_collapse, poset, function, a, b)
            verdicts[got] += 1
    return verdicts[1], verdicts[0]


def test_pairs_match_definition_on_fixtures(monkeypatch):
    for poset, matching in _fixture_runs():
        function = integrate_matching(poset, matching)
        if len(poset) < 100:
            _check_pairs(poset, matching, function.values, monkeypatch)
        reports, ok = filtration_sweep(poset, function)
        assert ok
        # the sweep one interval at a time, every gap and attachment judged
        # by the order-complex pair
        assert (reports, ok) == _with_oracle(monkeypatch, "morse", per_interval_sweep, poset,
                                             function)
        assert morse_bott_numbers(poset, matching) == _with_oracle(
            monkeypatch, "inequalities", morse_bott_numbers, poset, matching)
        assert_basic_set_window(poset, matching)
        assert_basic_set_window(poset, matching, _oracle_cells)


def test_pairs_match_definition_on_random_admissible_posets(monkeypatch):
    posets = trivial = nontrivial = orbits = 0
    for rng, poset in _admissible_posets(3301):
        posets += 1
        matching = random_matching(rng, poset)
        orbits += len(basic_sets(poset, matching).orbit_classes)
        t, n = _check_pairs(poset, matching, _random_values(rng, poset), monkeypatch)
        trivial, nontrivial = trivial + t, nontrivial + n
        function = integrate_matching(poset, matching)
        assert filtration_sweep(poset, function)[1]
    assert posets >= 100
    assert trivial >= 20 and nontrivial >= 20 and orbits >= 10, (trivial, nontrivial, orbits)


def test_basic_sets_read_off_their_cells_alone():
    """A basic set spans at most two adjacent degrees, so it is locally
    closed: the homology of its cells alone, which the Morse-Bott numbers
    and the window lemma read, is that of its closure relative to the
    closure less the set, in both coefficient rings."""
    classes = orbits = 0
    for rng, poset in _admissible_posets(4127):
        dec = basic_sets(poset, random_matching(rng, poset))
        orbits += len(dec.orbit_classes)
        for members in dec.classes:
            classes += 1
            got = _pair_homology(poset, [poset._id[e] for e in members])
            expected = basic_set_relative_homology(poset, members)
            assert got == expected and got.rational() == expected.rational(), members
    assert classes >= 300 and orbits >= 10, (classes, orbits)


def test_pair_homology_rejects_bad_pairs(t3):
    with pytest.raises(NotASubcomplex):
        cellular_pair_homology(t3, ["v1", "v2", "e12"], ["v1", "v3"])
    with pytest.raises(NotASubcomplex):
        cellular_pair_homology(t3, ["v1", "e12"])
    with pytest.raises(NotASubcomplex):
        cellular_pair_homology(t3, ["v1", "v2", "e12"], ["e12"])
    with pytest.raises(UnknownElement):
        cellular_pair_homology(t3, ["v1", "zz"])
    chain = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    with pytest.raises(NotCellular):
        cellular_pair_homology(chain, ["a", "b", "c"])
    assert cellular_pair_homology(t3, ["v1", "v2", "e12"], ["v1", "v2"]).nontrivial() == {
        1: (1, ())}
    assert cellular_pair_homology(t3, []).is_trivial()


@pytest.mark.parametrize("space", ["t3", "sd2 RP^2"])
def test_theorem_checks_build_no_complex_per_pair(space, monkeypatch):
    """The Morse-Bott numbers, the window lemma and the sweep build no
    ChainComplex: each basic set and each gap goes from the pass's checked
    rows straight to the engine.  The Lusternik-Schnirelmann check builds
    two, the space complex and the flow's Morse complex."""
    def runs():
        # a fresh poset per check, so that no check reads another's cache
        if space == "t3":
            poset = _load("t3_poset.txt", "poset")
            return poset, parse_matching_text(poset, (DATA / "t3_matching_m2.txt").read_text())
        poset = subdivision(subdivision(_load("rp2_6.txt", "simplicial")))
        # the matching of `gen --kind matching --seed 3` on it
        return poset, random_matching(XorShift64Star(3), poset)

    built = []
    real = ChainComplex.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(ChainComplex, "__init__", counted)
    checks = [
        (morse_bott_numbers, 0),
        (assert_basic_set_window, 0),
        (lambda poset, matching: filtration_sweep(poset, integrate_matching(poset, matching)), 0),
        (ls_theorem_check, 2),
    ]
    for check, expected in checks:
        poset, matching = runs()
        built.clear()
        check(poset, matching)
        assert len(built) == expected, (check, len(built))


def test_theorem_checks_never_enumerate_chains(monkeypatch, capsys):
    """The sweep, the Morse-Bott numbers, the window lemma and the
    Lusternik-Schnirelmann check, and the ls-check, hccat and rational
    inequalities reports, with `Poset._chain_cones`, the one chain
    enumerator, raising on every call."""
    def forbidden(self):
        raise RuntimeError("chains were enumerated")

    runs = [_sphere_with_cone_matching(n) for n in range(1, 7)] + list(_fixture_runs())
    monkeypatch.setattr(Poset, "_chain_cones", forbidden)
    for poset, matching in runs:
        assert filtration_sweep(poset, integrate_matching(poset, matching))[1]
        morse_bott_numbers(poset, matching)
        assert_basic_set_window(poset, matching)
        report = ls_theorem_check(poset, matching)
        assert report.holds and not report.warnings
        assert all(expected == recomputed for _, expected, recomputed in report.class_values)
    sphere = ["--input", str(DATA / "boundary_6simplex.txt"), "--kind", "simplicial"]
    cone = ["--matching", str(DATA / "boundary_6simplex_cone_matching.txt")]
    assert run(["sweep", *sphere, *cone]) == 0
    assert capsys.readouterr().out.endswith("sweep: ok\n")
    for argv in (["ls-check", *sphere, *cone], ["hccat", *sphere],
                 ["inequalities", *sphere, *cone, "--coeff", "rat"]):
        assert run(argv) == 0, argv
    assert "hccat: 2\n" in capsys.readouterr().out
