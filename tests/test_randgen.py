from posetmorse.dynamics import validate_matching
from posetmorse.randgen import (
    XorShift64Star,
    dismantlable_to_point,
    random_graded_poset,
    random_matching,
    random_simplicial_complex,
)

from helpers import find_morse_smale_matching


def test_xorshift_reference_sequence():
    # frozen first outputs of the documented update equations for seed 1:
    # s ^= s>>12; s ^= (s<<25) & mask; s ^= s>>27; out = s * 2685821657736338717
    rng = XorShift64Star(1)
    words = [rng.next_word() for _ in range(4)]
    # values recomputed by evaluating the update equations independently
    assert words == [
        5180492295206395165,
        12380297144915551517,
        13389498078930870103,
        5599127315341312413,
    ]


def test_xorshift_zero_seed_is_usable():
    rng = XorShift64Star(0)
    assert rng.state != 0
    assert rng.next_word() != 0


def test_randrange_bounds():
    rng = XorShift64Star(9)
    seen = {rng.randrange(5) for _ in range(200)}
    assert seen == {0, 1, 2, 3, 4}
    values = [rng.randint(3, 6) for _ in range(100)]
    assert min(values) >= 3 and max(values) <= 6


def test_shuffle_and_sample_are_permutations():
    rng = XorShift64Star(13)
    items = list(range(10))
    shuffled = rng.shuffle(items[:])
    assert sorted(shuffled) == items
    sample = rng.sample(items, 4)
    assert len(sample) == 4 and len(set(sample)) == 4


def test_random_graded_posets_are_graded_and_bounded():
    rng = XorShift64Star(21)
    for _ in range(30):
        p = random_graded_poset(rng, max_elements=12)
        assert p.is_graded()
        assert 1 <= len(p) <= 12


def test_random_complexes_valid():
    rng = XorShift64Star(22)
    for _ in range(20):
        k = random_simplicial_complex(rng, max_vertices=7)
        assert k.simplices
        assert k.dimension() <= 2


def test_random_matchings_valid():
    rng = XorShift64Star(23)
    for _ in range(20):
        p = random_graded_poset(rng, max_elements=10)
        m = random_matching(rng, p)
        validate_matching(p, m.pairs)  # must not raise


def test_beat_reduction_known_cases(t3):
    from posetmorse import build_poset
    assert dismantlable_to_point(build_poset(["a"], []))
    assert dismantlable_to_point(build_poset(["a", "b"], [("a", "b")]))
    assert not dismantlable_to_point(t3)  # the circle has no beat points
    assert not dismantlable_to_point(build_poset(["a", "b"], []))


def test_find_morse_smale_matching(t3):
    rng = XorShift64Star(31)
    m = find_morse_smale_matching(rng, t3, tries=100)
    assert m is not None
    from posetmorse import is_morse_smale
    assert is_morse_smale(t3, m).is_morse_smale
