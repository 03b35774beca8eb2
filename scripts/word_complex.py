#!/usr/bin/env python3
"""Print, as complex text, a triangulation of the 2-complex of a boundary
word: one vertex, one loop per letter and one disk glued along WORD.

A lowercase letter is a generator and its uppercase letter the inverse,
so `abAB` is the torus, `abaB` the Klein bottle, `aaa` has H_1 = Z/3 and
`aaA` is the dunce hat.  The disk is a polygon with one side per letter
of the word, triangulated as a cone, apex `c`, over an inner ring of
vertices `0`, `1`, ...; each side is cut in three, so that letter x runs
v, x1, x2, v (and X runs v, x2, x1, v), and every corner is the one
vertex `v`.  Sides with the same letter share their edges, which glues
the polygon by the word.

    PYTHONPATH=src python scripts/word_complex.py aaa > aaa.txt
"""

import argparse
import sys


def word_triangles(word: str) -> list[tuple[str, str, str]]:
    """The triangles of the 2-complex of `word`, a nonempty string of
    ASCII letters, an uppercase letter standing for the inverse."""
    if not word or not (word.isascii() and word.isalpha()):
        raise ValueError(f"a word is a nonempty string of ASCII letters, not {word!r}")
    rim = []
    for letter in word:
        x = letter.lower()
        rim += ["v", f"{x}1", f"{x}2"] if letter.islower() else ["v", f"{x}2", f"{x}1"]
    ring = [str(i) for i in range(len(rim))]
    triangles = []
    for i in range(len(rim)):
        j = (i + 1) % len(rim)
        triangles += [(rim[i], rim[j], ring[i]), (rim[j], ring[i], ring[j]),
                      ("c", ring[i], ring[j])]
    return triangles


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("word", help="letters of the boundary word, uppercase for inverses")
    args = parser.parse_args()
    try:
        triangles = word_triangles(args.word)
    except ValueError as error:
        parser.error(str(error))
    sys.stdout.writelines(" ".join(t) + "\n" for t in triangles)


if __name__ == "__main__":
    main()
