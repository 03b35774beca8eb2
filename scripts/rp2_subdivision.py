#!/usr/bin/env python3
"""Print the DEPTH-th subdivision of the face poset of RP^2 (the
6-vertex triangulation in data/rp2_6.txt) as poset text.

Depth 0 is the face poset itself (31 elements); each subdivision takes
the face poset of the order complex, so depths 2, 3 and 4 give 1081,
6481 and 38881 elements.

    PYTHONPATH=src python scripts/rp2_subdivision.py 2 > sd2_rp2.txt
"""

import argparse
import sys
from pathlib import Path

from posetmorse import face_poset, subdivision
from posetmorse.formats import load_complex, poset_text_lines

DATA = Path(__file__).resolve().parent.parent / "data"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("depth", type=int, help="how many times to subdivide")
    args = parser.parse_args()
    if args.depth < 0:
        parser.error(f"depth must be at least 0, not {args.depth}")

    poset = face_poset(load_complex((DATA / "rp2_6.txt").read_text()))
    for _ in range(args.depth):
        poset = subdivision(poset)
    # line by line: the joined text of sd^5 would outweigh the poset
    sys.stdout.writelines(poset_text_lines(poset))


if __name__ == "__main__":
    main()
