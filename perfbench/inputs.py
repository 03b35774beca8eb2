"""Seeded input generators for the benchmark, in stdlib Python only.

Nothing here imports posetmorse, so a change to the library cannot change
the inputs a workload feeds it.  Complexes are lists of maximal simplices
(tuples of vertex names); the seed decides vertex names and matchings.
Face-poset element names follow the documented input format: the sorted
vertex names of a simplex joined with "|".
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations, permutations

# Standard minimal triangulations (vertex numbers 0..n-1).
RP2_6 = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
         (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]
MOBIUS_5 = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)]


def boundary_simplex(n: int) -> list[tuple[int, ...]]:
    """Maximal faces of the boundary of the n-simplex: an (n-1)-sphere."""
    return list(combinations(range(n + 1), n))


def relabel(maximal, rng: random.Random) -> list[tuple[str, ...]]:
    """Give the vertices seeded names, so sort orders depend on the seed."""
    vertices = sorted({v for s in maximal for v in s})
    codes = list(range(len(vertices)))
    rng.shuffle(codes)
    name = {v: f"v{c}" for v, c in zip(vertices, codes)}
    return [tuple(name[v] for v in s) for s in maximal]


def closure(maximal) -> set[tuple[str, ...]]:
    """Every nonempty face of every maximal simplex, as sorted tuples."""
    faces: set[tuple[str, ...]] = set()
    for s in maximal:
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            faces.update(combinations(s, k))
    return faces


def f_vector(maximal) -> tuple[int, ...]:
    faces = closure(maximal)
    top = max(len(s) for s in faces)
    return tuple(sum(1 for s in faces if len(s) == d + 1) for d in range(top))


def face_id(simplex) -> str:
    return "|".join(sorted(simplex))


def subdivide(maximal, rng: random.Random, prefix: str) -> list[tuple[str, ...]]:
    """Barycentric subdivision of a pure complex: one maximal simplex per
    full flag of faces of each maximal simplex, one new vertex per face."""
    faces = sorted(closure(maximal), key=lambda s: (len(s), s))
    codes = list(range(len(faces)))
    rng.shuffle(codes)
    barycentre = {s: f"{prefix}{c}" for s, c in zip(faces, codes)}
    out = []
    for s in maximal:
        for order in permutations(sorted(s)):
            flag = [tuple(sorted(order[:k])) for k in range(1, len(order) + 1)]
            out.append(tuple(barycentre[f] for f in flag))
    return out


def complex_text(maximal) -> str:
    return "".join(" ".join(s) + "\n" for s in maximal)


def face_poset_covers(maximal) -> tuple[list[str], list[tuple[str, str]]]:
    """Elements (by dimension, then name) and covers of the face poset."""
    faces = sorted(closure(maximal), key=lambda s: (len(s), s))
    covers = []
    for s in faces:
        if len(s) > 1:
            for i in range(len(s)):
                covers.append((face_id(s[:i] + s[i + 1:]), face_id(s)))
    return [face_id(s) for s in faces], covers


def poset_text(elements, covers) -> str:
    """Declare every element, then one `w < x` line per cover."""
    return "".join(e + "\n" for e in elements) + "".join(f"{w} < {x}\n" for w, x in covers)


def random_graded_poset(rng: random.Random, levels: int = 4, width: int = 250,
                        ) -> tuple[list[list[str]], list[tuple[str, str]]]:
    """Levels of `width` elements; each element above the bottom covers
    1-3 distinct elements one level down.  The first element of level 1
    covers exactly one element, so its strict down-set is a point rather
    than a 0-sphere and the poset is never cellular."""
    codes = list(range(levels * width))
    rng.shuffle(codes)
    names = [[f"r{codes[lvl * width + i]}" for i in range(width)] for lvl in range(levels)]
    covers = []
    for lvl in range(1, levels):
        for i, x in enumerate(names[lvl]):
            k = 1 if (lvl == 1 and i == 0) else rng.randint(1, 3)
            for w in rng.sample(names[lvl - 1], k):
                covers.append((w, x))
    return names, covers


def hasse(covers) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    up: dict[str, list[str]] = {}
    down: dict[str, list[str]] = {}
    for w, x in covers:
        up.setdefault(w, []).append(x)
        down.setdefault(x, []).append(w)
    return up, down


def greedy_matching(rng: random.Random, covers, num: int = 1, den: int = 2,
                    taken: frozenset[str] = frozenset()) -> list[tuple[str, str]]:
    """Walk the covers in seeded order, taking each free one with
    probability num/den."""
    used = set(taken)
    pairs = []
    order = sorted(covers)
    rng.shuffle(order)
    for w, x in order:
        if w in used or x in used or rng.randrange(den) >= num:
            continue
        pairs.append((w, x))
        used.update((w, x))
    return pairs


def element_matching(rng: random.Random, maximal) -> list[tuple[str, str]]:
    """Greedy acyclic matching of a face poset: for each vertex v in seeded
    order, pair every still-free simplex s without v with s + v when that
    is a still-free simplex.  A sequence of such element matchings has no
    closed orbit (Jonsson, Simplicial Complexes of Graphs, Lemma 4.1)."""
    free = closure(maximal)
    vertices = sorted({v for s in maximal for v in s})
    rng.shuffle(vertices)
    pairs = []
    for v in vertices:
        for s in sorted(free):
            if v in s or s not in free:
                continue
            t = tuple(sorted(s + (v,)))
            if t in free:
                free -= {s, t}
                pairs.append((face_id(s), face_id(t)))
    return pairs


def planted_orbit(rng: random.Random, elements, covers, degree: dict[str, int],
                  ) -> list[tuple[str, str]]:
    """Matched pairs (x_i, y_i) of a closed walk x_0 < y_0 > x_1 < ... > x_0
    between two adjacent degrees with no chords: each y_i covers no x_j
    other than x_i and x_{i+1}.  Matching only these pairs makes the walk
    a prime closed orbit.  Found from a seeded start by breadth-first
    search for a shortest cycle in the bipartite cover graph."""
    up, down = hasse(covers)
    starts = [e for e in elements if len(up.get(e, ())) >= 2]
    rng.shuffle(starts)
    for x0 in starts:
        p = degree[x0]
        # BFS over the bipartite graph of degrees p and p+1 from x0
        parent = {x0: None}
        branch = {}
        queue = [x0]
        for y in up[x0]:
            parent[y] = x0
            branch[y] = y
            queue.append(y)
        i = 1
        while i < len(queue):
            node = queue[i]
            i += 1
            nbrs = down[node] if degree[node] == p + 1 else up.get(node, [])
            for nxt in nbrs:
                if nxt == parent[node] or degree[nxt] not in (p, p + 1):
                    continue
                if nxt in parent:
                    if nxt != x0 and branch.get(nxt) != branch[node]:
                        cycle = _join(parent, node, nxt)
                        pairs = _orbit_pairs(cycle, down)
                        if pairs:
                            return pairs
                    continue
                parent[nxt] = node
                branch[nxt] = branch[node]
                queue.append(nxt)
    raise ValueError("no chordless orbit found")


def _join(parent, a, b) -> list[str]:
    """The cycle through the root closed by the edge a-b of the BFS tree."""
    def path(n):
        out = []
        while n is not None:
            out.append(n)
            n = parent[n]
        return out[::-1]
    pa, pb = path(a), path(b)
    return pa + pb[:0:-1]


def _orbit_pairs(cycle, down) -> list[tuple[str, str]] | None:
    """Pairs (x_i, y_i) of an alternating cycle starting at a lower
    element, or None when a chord would let the orbit branch."""
    if len(cycle) < 4 or len(cycle) % 2 or len(set(cycle)) != len(cycle):
        return None
    lows = set(cycle[0::2])
    n = len(cycle)
    for i in range(1, n, 2):
        touched = lows.intersection(down[cycle[i]])
        if touched != {cycle[i - 1], cycle[(i + 1) % n]}:
            return None
    return [(cycle[i], cycle[i + 1]) for i in range(0, n, 2)]


def matching_text(pairs) -> str:
    return "".join(f"{w} {x}\n" for w, x in sorted(pairs))


def fingerprint(files: dict[str, str]) -> str:
    """Short digest of every generated file, in name order."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode())
        h.update(b"\0")
        h.update(files[name].encode())
        h.update(b"\0")
    return h.hexdigest()[:16]
