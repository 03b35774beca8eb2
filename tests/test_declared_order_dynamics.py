"""The dynamics run on the poset's ids, which come in height order, while
declared order fixes what reaches output.  On poset texts whose order of
first mention is not height order, the basic sets, the orbit classes and
where each orbit starts, the integrated values, `matched_digraph` and the
first `NotMorseBott` message equal those read off the name-keyed matched
digraph and its Tarjan (`helpers.name_keyed_dynamics`)."""

from pathlib import Path

import pytest

from posetmorse import (
    MorseBottFunction,
    Poset,
    basic_sets,
    face_poset,
    integrate_matching,
    is_morse_smale,
    matched_digraph,
    subdivision,
)
from posetmorse.errors import NotMorseBott
from posetmorse.formats import load_complex, load_poset, parse_matching_text, serialize_poset
from posetmorse.morse import require_morse_bott
from posetmorse.randgen import XorShift64Star, random_matching

from helpers import find_morse_smale_matching, name_keyed_dynamics, name_keyed_first_rejection

DATA = Path(__file__).resolve().parent.parent / "data"


def _reordered(text: str, order: str) -> Poset:
    """The poset of `text` with its lines as they are, reversed, or in a
    seeded shuffle; each declares its elements against height order."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if order == "reversed":
        lines.reverse()
    elif order == "shuffled":
        lines = XorShift64Star(1972).shuffle(lines)
    poset = load_poset("\n".join(lines) + "\n")[0]
    assert poset._declared is not None
    return poset


def _t3(order: str):
    poset = _reordered((DATA / "t3_poset.txt").read_text(), order)
    fixtures = [parse_matching_text(poset, (DATA / name).read_text())
                for name in ("t3_matching_m1.txt", "t3_matching_m2.txt")]
    rng = XorShift64Star(7)
    return poset, fixtures + [random_matching(rng, poset) for _ in range(6)]


def _sd2_rp2(order: str):
    rp2 = face_poset(load_complex((DATA / "rp2_6.txt").read_text()))
    poset = _reordered(serialize_poset(subdivision(subdivision(rp2))), order)
    rng = XorShift64Star(11)
    orbits = [find_morse_smale_matching(rng, poset, want_orbit=True) for _ in range(2)]
    return poset, [random_matching(XorShift64Star(3), poset), *orbits,
                   random_matching(rng, poset, 2, 3)]


def _rejected(rng: XorShift64Star, poset, function: MorseBottFunction, dec) -> dict:
    """The integrated values with one to three elements changed, each to a
    random value or to the value of one of its covers, each basic set then
    made constant again, and now and then an orbit class broken."""
    values = dict(function.values)
    for _ in range(rng.randint(1, 3)):
        e = rng.choice(poset.elements)
        covers = poset.lower_covers(e) + poset.upper_covers(e)
        values[e] = (values[rng.choice(covers)] if rng.chance(1, 2)
                     else rng.randint(0, max(values.values())))
    for members in dec.classes:
        for e in members:
            values[e] = values[members[0]]
    if dec.orbit_classes and rng.chance(1, 4):
        values[rng.choice(dec.orbit_classes).elements[-1]] += 1
    return values


@pytest.mark.parametrize("order", ["as given", "reversed", "shuffled"])
@pytest.mark.parametrize("make", [_t3, _sd2_rp2], ids=["t3", "sd2 RP^2"])
def test_id_keyed_dynamics_equal_the_name_keyed_oracle(make, order):
    poset, matchings = make(order)
    rng = XorShift64Star(25)
    orbits, messages = 0, {"constant": 0, "increases": 0, "decrease": 0, None: 0}
    for matching in matchings:
        assert matching is not None
        oracle = name_keyed_dynamics(poset, matching)
        digraph = matched_digraph(poset, matching)
        assert digraph == oracle.digraph
        assert list(digraph.successors.items()) == list(oracle.digraph.successors.items())
        dec = basic_sets(poset, matching)
        assert dec.critical == oracle.critical
        assert tuple((c.elements, c.index) for c in dec.orbit_classes) == oracle.orbit_classes
        verdict = is_morse_smale(poset, matching)
        if verdict.is_morse_smale:
            # each orbit starts at its first declared lower element
            assert tuple(orbit.nodes for orbit in verdict.orbits) == oracle.cycles
            orbits += len(verdict.orbits)
        else:
            first = oracle.cycles.index(None)
            assert verdict.offender == oracle.orbit_classes[first][0][0]
        function = integrate_matching(poset, matching)
        assert list(function.values.items()) == list(oracle.values.items())
        require_morse_bott(function)
        for _ in range(12):
            values = _rejected(rng, poset, function, dec)
            expected = name_keyed_first_rejection(oracle, matching, values)
            candidate = MorseBottFunction(poset, values, matching)
            if expected is None:
                require_morse_bott(candidate)
                messages[None] += 1
                continue
            with pytest.raises(NotMorseBott) as info:
                require_morse_bott(candidate)
            assert str(info.value) == expected
            messages[next(k for k in ("constant", "increases", "decrease") if k in expected)] += 1
    assert orbits >= 2, orbits
    assert min(messages[k] for k in ("constant", "increases", "decrease")) >= 1, messages
