"""Deterministic random fixtures for the property suites and the CLI.

The generator is xorshift64*, chosen because its update is three shifts
and one multiply on 64-bit words and therefore reproduces bit-for-bit on
any platform:

    s ^= s >> 12;  s ^= (s << 25) & MASK64;  s ^= s >> 27
    output = (s * 2685821657736338717) & MASK64

Fixture builders: level-structured random graded posets, random
simplicial complexes of dimension <= 2, random matchings, and the search
for a contractible graded poset whose graded Euler characteristic is not
1 (contractibility certified by beat-point reduction, which exists here
purely as a search oracle).
"""

from __future__ import annotations

from .dynamics import Matching, validate_matching
from .errors import PosetMorseError
from .posets import Poset, build_poset
from .simplicial import SimplicialComplex

MASK64 = (1 << 64) - 1


class XorShift64Star:
    """xorshift64* with the update equations documented above."""

    def __init__(self, seed: int):
        self.state = (seed & MASK64) or 0x9E3779B97F4A7C15

    def next_word(self) -> int:
        s = self.state
        s ^= s >> 12
        s ^= (s << 25) & MASK64
        s ^= s >> 27
        self.state = s
        return (s * 2685821657736338717) & MASK64

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        # rejection sampling keeps the distribution exactly uniform
        limit = (MASK64 + 1) - ((MASK64 + 1) % n)
        while True:
            w = self.next_word()
            if w < limit:
                return w % n

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.randrange(hi - lo + 1)

    def chance(self, num: int, den: int) -> bool:
        return self.randrange(den) < num

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def shuffle(self, items: list) -> list:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def sample(self, seq, k: int) -> list:
        pool = list(seq)
        self.shuffle(pool)
        return pool[:k]


def random_graded_poset(rng: XorShift64Star, max_elements: int = 12,
                        max_levels: int = 3) -> Poset:
    """A random graded poset built level by level.

    Every element above the bottom covers only elements one level down
    and has at least one lower cover, so height equals level and the
    result is graded by construction.
    """
    if max_elements < 1:
        raise PosetMorseError(f"a random poset needs a size of at least 1, not {max_elements}")
    # every level holds at least one element
    levels = min(rng.randint(1, max_levels), max_elements)
    remaining = rng.randint(max(1, levels), max_elements)
    sizes = []
    for lvl in range(levels):
        left = levels - lvl - 1
        hi = remaining - left
        size = rng.randint(1, max(1, hi)) if lvl < levels - 1 else max(1, hi)
        size = min(size, remaining - left)
        sizes.append(size)
        remaining -= size
    names: list[list[str]] = []
    counter = 0
    for lvl, size in enumerate(sizes):
        row = []
        for _ in range(size):
            row.append(f"x{counter}")
            counter += 1
        names.append(row)
    covers = []
    for lvl in range(1, len(sizes)):
        for x in names[lvl]:
            lower = names[lvl - 1]
            first = rng.choice(lower)
            covers.append((first, x))
            for w in lower:
                if w != first and rng.chance(1, 3):
                    covers.append((w, x))
    return build_poset([e for row in names for e in row], covers)


def random_simplicial_complex(rng: XorShift64Star, max_vertices: int = 7,
                              max_triangles: int = 6, max_extra_edges: int = 4) -> SimplicialComplex:
    """A random complex of dimension at most 2, never empty."""
    n = rng.randint(2, max_vertices)
    vertices = [str(i + 1) for i in range(n)]
    maximal: list[list[str]] = []
    if n >= 3:
        triangles = rng.randint(0, max_triangles)
        for _ in range(triangles):
            maximal.append(rng.sample(vertices, 3))
    edges = rng.randint(1, max_extra_edges)
    for _ in range(edges):
        maximal.append(rng.sample(vertices, 2))
    if rng.chance(1, 4):
        maximal.append([rng.choice(vertices)])
    return SimplicialComplex(maximal)


def random_matching(rng: XorShift64Star, poset: Poset, num: int = 1, den: int = 2) -> Matching:
    """Greedy random matching: walk the covers in random order, take each
    free one with probability num/den."""
    used: set[str] = set()
    pairs = []
    covers = sorted(poset.covers)
    rng.shuffle(covers)
    for w, x in covers:
        if w in used or x in used:
            continue
        if rng.chance(num, den):
            pairs.append((w, x))
            used.add(w)
            used.add(x)
    return validate_matching(poset, pairs)


def dismantlable_to_point(poset: Poset) -> bool:
    """The beat-point core is a single point: the finite space is
    contractible."""
    return len(poset.beat_point_core()) == 1


def find_euler_gap_poset(rng: XorShift64Star, max_elements: int = 8,
                         max_tries: int = 20000) -> Poset | None:
    """Search for a graded contractible poset with graded Euler
    characteristic different from 1 (hence not cellular)."""
    from .inequalities import euler_characteristics

    for _ in range(max_tries):
        poset = random_graded_poset(rng, max_elements=max_elements, max_levels=3)
        chi_g, _chi = euler_characteristics(poset)
        if chi_g == 1 or chi_g is None:
            continue
        if dismantlable_to_point(poset):
            return poset
    return None

