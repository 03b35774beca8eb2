"""The dynamics run on the poset's ids, which come in height order, while
declared order fixes what reaches output.  On poset texts whose order of
first mention is not height order, the basic sets, the orbit classes and
the cycle of each (where each orbit starts), the integrated values,
`matched_digraph` and the first `NotMorseBott` message equal those read
off the name-keyed matched digraph and its Tarjan over the whole poset
(`helpers.name_keyed_dynamics`), while the library finds the orbit classes
and their cycles on the band graph alone."""

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
from posetmorse.cellular import is_admissible
from posetmorse.errors import NotMorseBott
from posetmorse.formats import load_complex, load_poset, parse_matching_text, serialize_poset
from posetmorse.morse import require_morse_bott
from posetmorse.randgen import XorShift64Star, random_graded_poset, random_matching

from helpers import (
    find_morse_smale_matching,
    name_keyed_dynamics,
    name_keyed_first_rejection,
    recorded_cycles,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def _reordered(text: str, order: str) -> Poset:
    """The poset of `text` with its lines as they are, reversed, or in a
    seeded shuffle."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if order == "reversed":
        lines.reverse()
    elif order == "shuffled":
        lines = XorShift64Star(1972).shuffle(lines)
    return load_poset("\n".join(lines) + "\n")[0]


def _t3(order: str):
    poset = _reordered((DATA / "t3_poset.txt").read_text(), order)
    # each order declares the elements against height order
    assert poset._declared is not None
    fixtures = [parse_matching_text(poset, (DATA / name).read_text())
                for name in ("t3_matching_m1.txt", "t3_matching_m2.txt")]
    rng = XorShift64Star(7)
    return [(poset, fixtures + [random_matching(rng, poset) for _ in range(6)])]


def _sd2_rp2(order: str):
    rp2 = face_poset(load_complex((DATA / "rp2_6.txt").read_text()))
    poset = _reordered(serialize_poset(subdivision(subdivision(rp2))), order)
    assert poset._declared is not None
    rng = XorShift64Star(11)
    orbits = [find_morse_smale_matching(rng, poset, want_orbit=True) for _ in range(2)]
    return [(poset, [random_matching(XorShift64Star(3), poset), *orbits,
                     random_matching(rng, poset, 2, 3)])]


def _random_graded(order: str):
    """Sixteen seeded random graded posets of up to three levels, 14 of
    them not admissible, each with two random matchings at density 1/2 and
    two at 1/1.  Some declare their elements in height order in every
    order of their lines, so the ids' own order is checked too."""
    rng = XorShift64Star(46)
    cases = []
    for _ in range(16):
        poset = _reordered(serialize_poset(random_graded_poset(rng, 30, 3)), order)
        cases.append((poset, [random_matching(rng, poset, 1, den) for den in (2, 2, 1, 1)]))
    return cases


def _rejected(rng: XorShift64Star, poset, function: MorseBottFunction, dec) -> dict:
    """The integrated values with one to three elements changed, each to a
    random value or to the value of one of its covers, each basic set then
    made constant again, and now and then an orbit class broken."""
    values = dict(function.values)
    for _ in range(rng.randint(1, 3)):
        e = rng.choice(poset.elements)
        covers = poset.lower_covers(e) + poset.upper_covers(e)
        values[e] = (values[rng.choice(covers)] if covers and rng.chance(1, 2)
                     else rng.randint(0, max(values.values())))
    for members in dec.classes:
        for e in members:
            values[e] = values[members[0]]
    if dec.orbit_classes and rng.chance(1, 4):
        values[rng.choice(dec.orbit_classes).elements[-1]] += 1
    return values


@pytest.mark.parametrize("order", ["as given", "reversed", "shuffled"])
@pytest.mark.parametrize("make", [_t3, _sd2_rp2, _random_graded],
                         ids=["t3", "sd2 RP^2", "random graded"])
def test_id_keyed_dynamics_equal_the_name_keyed_oracle(make, order):
    rng = XorShift64Star(25)
    orbits, messages = 0, {"constant": 0, "increases": 0, "decrease": 0, None: 0}
    for poset, matchings in make(order):
        for matching in matchings:
            assert matching is not None
            orbits += _agrees_with_the_oracle(rng, poset, matching, messages)
    assert orbits >= 2, orbits
    assert min(messages[k] for k in ("constant", "increases", "decrease")) >= 1, messages


def _agrees_with_the_oracle(rng: XorShift64Star, poset, matching, messages: dict) -> int:
    """Check one matching against the oracle, count the first `NotMorseBott`
    messages in `messages`, and return the number of prime orbits."""
    oracle = name_keyed_dynamics(poset, matching)
    digraph = matched_digraph(poset, matching)
    assert digraph == oracle.digraph
    assert list(digraph.successors.items()) == list(oracle.digraph.successors.items())
    dec = basic_sets(poset, matching)
    assert dec.critical == oracle.critical
    assert tuple((c.elements, c.index) for c in dec.orbit_classes) == oracle.orbit_classes
    orbits = 0
    if is_admissible(poset):
        verdict = is_morse_smale(poset, matching)
        if verdict.is_morse_smale:
            # each orbit starts at its first declared lower element
            assert tuple(orbit.nodes for orbit in verdict.orbits) == oracle.cycles
            orbits = len(verdict.orbits)
        else:
            first = oracle.cycles.index(None)
            assert verdict.offender == oracle.orbit_classes[first][0][0]
    else:
        # the Morse-Smale verdict needs an admissible poset; the recorded cycles do not
        cycles = recorded_cycles(poset, matching)
        assert cycles == oracle.cycles
        orbits = sum(c is not None for c in cycles)
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
    return orbits
