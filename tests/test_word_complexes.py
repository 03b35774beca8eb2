"""Torsion beyond Z/2: the 2-complexes of boundary words, triangulated by
`scripts/word_complex.py`, against homology computed by hand from the
word.  The complex has one vertex, one loop per letter and one disk, so
d_1 = 0 and d_2 is the vector s of the letters' exponent sums: with g
letters, H_1 = Z^(g-1) + Z/gcd(s) and H_2 = 0 where s is nonzero, and
H_1 = Z^g, H_2 = Z where it is zero.  No Smith form is taken here."""

import hashlib
import importlib.util
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

from posetmorse import (
    SimplicialComplex,
    check_cellularity,
    face_poset,
    hccat,
    poset_homology,
)
from posetmorse.cellular import space_complex, space_homology
from posetmorse.cli import run
from posetmorse.homology import minimal_model

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "word_complex.py"
_spec = importlib.util.spec_from_file_location("word_complex", SCRIPT)
word_complex = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(word_complex)

WORDS = [*("a" * n for n in range(2, 8)), "abAB", "abaB", "abABcdCD", "abABcdCDefEF", "aaA"]


def word_poset(word: str):
    return face_poset(SimplicialComplex([list(t) for t in word_complex.word_triangles(word)]))


def hand_homology(word: str) -> dict[int, tuple[int, tuple[int, ...]]]:
    """The nontrivial degrees of H, as `HomologySummary.nontrivial` lists
    them, from the word's exponent sums."""
    sums: dict[str, int] = {}
    for letter in word:
        sums[letter.lower()] = sums.get(letter.lower(), 0) + (1 if letter.islower() else -1)
    g, divisor = len(sums), gcd(*sums.values())
    if divisor == 0:
        return {0: (1, ()), 1: (g, ()), 2: (1, ())}
    torsion = (divisor,) if divisor > 1 else ()
    found = {0: (1, ()), 1: (g - 1, torsion)}
    return {k: group for k, group in found.items() if group != (0, ())}


@pytest.mark.parametrize("word", WORDS)
def test_word_complex_homology_is_the_hand_computed_one(word):
    poset = word_poset(word)
    report = check_cellularity(poset)
    assert report.is_cellular and report.is_homologically_admissible
    want = hand_homology(word)
    assert space_homology(poset).nontrivial() == want
    b1, torsion = want.get(1, (0, ()))
    b2, mu1 = want.get(2, (0, ()))[0], len(torsion)
    assert hccat(poset) == 1 + b1 + b2 + 2 * mu1
    # rank b_k + mu_k + mu_{k-1} in degree k, torsion only in degree 1
    model = minimal_model(space_complex(poset)).complex
    assert [model.rank(k) for k in range(4)] == [1, b1 + mu1, b2 + mu1, 0]


def test_the_hand_computed_homology_reaches_every_kind_of_group():
    assert hand_homology("aaaaaaa") == {0: (1, ()), 1: (0, (7,))}
    assert hand_homology("abaB") == {0: (1, ()), 1: (1, (2,))}
    assert hand_homology("abABcdCD") == {0: (1, ()), 1: (4, ()), 2: (1, ())}
    assert hand_homology("abABcdCDefEF") == {0: (1, ()), 1: (6, ()), 2: (1, ())}
    assert hand_homology("aaA") == {0: (1, ())}


def test_genus_three_has_hccat_eight():
    assert hccat(word_poset("abABcdCDefEF")) == 8


@pytest.mark.parametrize("word,digest", [
    ("aaa", "b7ebe9200583b69352dc396ba97cd5b6990861e0845799f246bc407c1011ec67"),
    ("aaA", "a117a8e39d609468eab79f4e9fd0c895a4c799e14d9832fa7b9ee3bc30b8da4e"),
])
def test_the_script_output_is_pinned(word, digest):
    text = subprocess.run([sys.executable, str(SCRIPT), word], capture_output=True,
                          check=True).stdout
    assert hashlib.sha256(text).hexdigest() == digest


def test_complex_text_read_as_a_poset_names_the_simplicial_kind(tmp_path, capsys):
    path = tmp_path / "aaa.txt"
    path.write_text("".join(" ".join(t) + "\n" for t in word_complex.word_triangles("aaa")))
    assert run(["homology", "--input", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "--kind simplicial" in lines[0]


def test_the_order_complex_agrees_on_z3():
    poset = word_poset("aaa")
    assert poset_homology(poset) == space_homology(poset)
    assert poset_homology(poset).nontrivial() == {0: (1, ()), 1: (0, (3,))}


@pytest.mark.parametrize("word", ["", "ab1", "a b", "é"])
def test_a_word_is_letters_only(word):
    with pytest.raises(ValueError):
        word_complex.word_triangles(word)
