"""Every verdict can fail.  The theorems hold on every valid input, so a
verdict computed on valid input cannot be told from a constant `True`;
these tests feed each verdict an input where its statement fails: a
class and sublevel set that break an attachment identity, row numbers
that break an inequality, patched Morse-Bott numbers that break only the
Euler identity, and a patched hccat one above the basic-set bound."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from posetmorse import face_poset, ls_theorem_check, strong_morse_bott, validate_matching
from posetmorse.cli import run
from posetmorse.inequalities import _rows
from posetmorse.morse import _attachment
from posetmorse.posets import Poset

DATA = Path(__file__).resolve().parent.parent / "data"


def _ids(poset, *names) -> set[int]:
    return {poset._id[e] for e in names}


def test_an_attached_class_that_meets_the_lower_set_fails(t3):
    # v1 is attached to a sublevel set that already holds it
    report = _attachment(t3, ("v1",), _ids(t3, "v1"), _ids(t3, "v1"),
                         Fraction(0), Fraction(1))
    assert report.identities == {"new_elements_equal_class": True,
                                 "boundary_inside_lower": True,
                                 "class_misses_lower": False}
    assert report.ok is False


def test_an_attached_class_whose_boundary_leaves_the_lower_set_fails(t3):
    # e12 is attached to {v1}, without its other vertex v2
    report = _attachment(t3, ("e12",), _ids(t3, "v1"), _ids(t3, "e12"),
                         Fraction(0), Fraction(1))
    assert report.identities == {"new_elements_equal_class": True,
                                 "boundary_inside_lower": False,
                                 "class_misses_lower": True}
    assert report.boundary == ("v1", "v2")
    assert report.ok is False


def test_an_inequality_row_that_fails_reads_false():
    rows = _rows([0, 1], [1, 1])
    assert [(r.k, r.lhs, r.rhs, r.ok) for r in rows] == [(0, 0, 1, False), (1, 1, 1, True)]


def test_strong_morse_bott_fails_on_an_euler_mismatch_alone(monkeypatch, tetra_boundary):
    """m = [1, 0, 2] against the 2-sphere's b = [1, 0, 1]: every strong and
    weak row holds, and only the Euler identity (3 against 2) fails."""
    import posetmorse.inequalities as inequalities

    poset = face_poset(tetra_boundary)
    monkeypatch.setattr(inequalities, "morse_bott_numbers", lambda *args: ([1, 0, 2], []))
    report = strong_morse_bott(poset, validate_matching(poset, []))
    assert report.data["betti"] == [1, 0, 1]
    assert all(r.ok for r in report.rows)
    assert all(row["ok"] for row in report.data["weak"])
    assert (report.data["euler_m"], report.data["euler_b"]) == (3, 2)
    assert report.holds is False


def _hccat_one_above_the_bound(monkeypatch, poset, matching):
    """Patch the poset's hccat to one above the basic-set bound, and leave
    the hccat of each basic set's homology alone; return the unpatched
    report."""
    import posetmorse.category as category

    honest = ls_theorem_check(poset, matching)
    hccat = category.hccat
    monkeypatch.setattr(category, "hccat", lambda space: honest.basic_set_bound + 1
                        if isinstance(space, Poset) else hccat(space))
    return honest


def test_ls_check_fails_when_hccat_exceeds_the_basic_set_bound(monkeypatch, rp2_poset,
                                                               rp2_star5_matching):
    honest = _hccat_one_above_the_bound(monkeypatch, rp2_poset, rp2_star5_matching)
    report = ls_theorem_check(rp2_poset, rp2_star5_matching)
    assert report.hccat_value == honest.basic_set_bound + 1
    assert report.class_values == honest.class_values
    assert report.holds is False
    assert report.intermediate_holds is False


@pytest.mark.parametrize("form", ["doc", "table"])
def test_the_ls_check_command_exits_2_and_still_writes_its_report(monkeypatch, capsys, form,
                                                                  rp2_poset, rp2_star5_matching):
    bound = _hccat_one_above_the_bound(monkeypatch, rp2_poset, rp2_star5_matching).basic_set_bound
    code = run(["ls-check", "--input", str(DATA / "rp2_6.txt"), "--kind", "simplicial",
                "--matching", str(DATA / "rp2_star5_matching.txt"), "--format", form])
    out = capsys.readouterr().out
    assert code == 2
    if form == "doc":
        results = json.loads(out)["results"]
        assert (results["hccat"], results["holds"], results["intermediate_holds"],
                results["ok"]) == (bound + 1, False, False, False)
    else:
        assert f"hccat: {bound + 1}\n" in out
        assert "theorem holds: False\n" in out
