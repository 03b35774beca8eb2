#!/usr/bin/env python3
"""Print the Bruhat order of the symmetric group S_N without its bottom e
and its top w0 as poset text.

Each open interval of a Bruhat order is a sphere (Bjoerner and Wachs,
Adv. Math. 43, 1982), so S_N without e is the face poset of a regular CW
ball, and without w0 too that of the sphere of dimension N(N-1)/2 - 2:
the poset is cellular and homologically admissible, and its homology is
that sphere's.  An element is a permutation in one-line notation, its
digits the images of 1..N, and v covers u when v is u with the values
in two places i < j swapped, u(i) < u(j), and no place between them holds
a value between those two.  The lines list each cover u < v, ordered by
the length of v, then by v, then by u.  N runs from 3 to 9, where the
one-line names stay single digits; S_6 has 718 elements and S_7 5038.

Left multiplication by the simple reflection s1, which swaps the values
1 and 2, is a special matching of the Bruhat order (Brenti, Caselli and
Marietti, Adv. Math. 202, 2006).  Without e and w0 it is a Morse
matching whose critical elements are s1 = 21... and s1 w0, two cells on
the sphere: the Lusternik-Schnirelmann bound's equality case.
`special_matching_lines` gives its matching text; the script prints the
poset text only.

    PYTHONPATH=src python scripts/bruhat.py 6 > bruhat6.txt
"""

import argparse
import sys
from itertools import permutations


def _lengths(n: int) -> dict[tuple[int, ...], int]:
    """Each permutation of S_n in one-line notation with its length, its
    number of inversions."""
    if not 3 <= n <= 9:
        raise ValueError(f"N runs from 3 to 9, not {n}")
    return {u: sum(a > b for i, a in enumerate(u) for b in u[i + 1:])
            for u in permutations(range(1, n + 1))}


def _name(u: tuple[int, ...]) -> str:
    return "".join(map(str, u))


def bruhat_lines(n: int) -> list[str]:
    """The lines of the poset text of the Bruhat order of S_n without e
    and w0, each cover u < v with its newline."""
    length = _lengths(n)
    bottom, top = tuple(range(1, n + 1)), tuple(range(n, 0, -1))
    lower: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for u in length:
        if u == bottom:
            continue
        for i in range(n):
            for j in range(i + 1, n):
                if u[i] < u[j] and not any(u[i] < u[k] < u[j] for k in range(i + 1, j)):
                    v = (*u[:i], u[j], *u[i + 1:j], u[i], *u[j + 1:])
                    if v != top:
                        lower.setdefault(v, []).append(u)
    return [f"{_name(u)} < {_name(v)}\n"
            for v in sorted(lower, key=lambda v: (length[v], v)) for u in sorted(lower[v])]


def special_matching_lines(n: int) -> list[str]:
    """The lines of the matching text of x <-> s1 x on the Bruhat order of
    S_n without e and w0, each pair `u v` with its newline, u = s1 v the
    shorter, ordered by the length of u, then by u.  s1 x has the values
    1 and 2 of x swapped, and covers x when 1 comes before 2 in x.  The
    partners of e and w0 are left unmatched."""
    length = _lengths(n)
    top = tuple(range(n, 0, -1))
    pairs = []
    for u in sorted(length, key=lambda u: (length[u], u)):
        v = tuple(3 - a if a <= 2 else a for a in u)
        if 0 < length[u] < length[v] and v != top:
            pairs.append(f"{_name(u)} {_name(v)}\n")
    return pairs


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("n", type=int, help="the size N of the permuted set")
    args = parser.parse_args()
    try:
        lines = bruhat_lines(args.n)
    except ValueError as error:
        parser.error(str(error))
    sys.stdout.writelines(lines)


if __name__ == "__main__":
    main()
