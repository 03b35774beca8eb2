"""Every verdict can fail.  The theorems hold on every valid input, so a
verdict computed on valid input cannot be told from a constant `True`;
these tests feed each verdict an input where its statement fails: a
class and sublevel set that break an attachment identity, row numbers
that break an inequality, alternating sums that break a strong row,
patched Morse-Bott numbers that break only the Euler identity or that
stop short of the top degree, a patched hccat one above the basic-set
bound, a patched perturbed count off the bound, and a patched orbit count
off the critical-count formula.  The CLI exits 2 on each failing verdict
and still writes its report."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from posetmorse import face_poset, ls_theorem_check, strong_morse_bott, validate_matching
from posetmorse.cli import run
from posetmorse.inequalities import _alternating, _rows
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


def test_alternating_sums_that_fail_a_strong_row_read_false():
    # m = [1, 1, 0] against b = [1, 0, 1]: the sums 1, 0, 0 against 1, -1, 2
    m, b = _alternating([1, 1, 0], 2), _alternating([1, 0, 1], 2)
    assert (m, b) == ([1, 0, 0], [1, -1, 2])
    assert [(r.k, r.lhs, r.rhs, r.ok) for r in _rows(m, b)] == [
        (0, 1, 1, True), (1, 0, -1, True), (2, 0, 2, False)]
    # a short sequence counts its missing entries as zero
    assert _alternating([3], 3) == [3, -3, 3, -3]


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


def test_strong_morse_bott_reads_a_short_m_as_zeros_up_to_the_top_degree(monkeypatch,
                                                                         tetra_boundary):
    """m = [1], its zeros above degree 0 dropped, against the 2-sphere's
    b = [1, 0, 1]: the strong and weak rows of degree 2 fail, and so does
    the Euler identity."""
    import posetmorse.inequalities as inequalities

    poset = face_poset(tetra_boundary)
    monkeypatch.setattr(inequalities, "morse_bott_numbers", lambda *args: ([1], []))
    report = strong_morse_bott(poset, validate_matching(poset, []))
    assert report.data["m"] == [1]
    assert [(r.k, r.lhs, r.rhs, r.ok) for r in report.rows] == [
        (0, 1, 1, True), (1, -1, -1, True), (2, 1, 2, False)]
    assert report.data["weak"] == [{"k": 0, "lhs": 1, "rhs": 1, "ok": True},
                                   {"k": 1, "lhs": 0, "rhs": 0, "ok": True},
                                   {"k": 2, "lhs": 0, "rhs": 1, "ok": False}]
    assert (report.data["euler_m"], report.data["euler_b"]) == (1, 2)
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


def test_ls_check_fails_the_intermediate_bound_on_a_patched_perturbed_count(
        monkeypatch, rp2_poset, rp2_star5_matching):
    """One critical element of degree 0 too many in the perturbed matching:
    hccat stays under the bound, but the sum of m* is no longer the bound."""
    import posetmorse.category as category

    honest = ls_theorem_check(rp2_poset, rp2_star5_matching)
    counts = category.critical_counts

    def counting(poset, matching):
        # every other matching counted is the perturbed one
        found = counts(poset, matching)
        return found if matching is rp2_star5_matching else found | {0: found.get(0, 0) + 1}

    monkeypatch.setattr(category, "critical_counts", counting)
    report = ls_theorem_check(rp2_poset, rp2_star5_matching)
    assert report.perturbed_counts == honest.perturbed_counts | {
        0: honest.perturbed_counts[0] + 1}
    assert report.hccat_value <= sum(report.perturbed_counts.values())
    assert report.basic_set_bound == honest.basic_set_bound
    assert report.holds is True
    assert report.intermediate_holds is False


def test_ls_check_fails_the_count_formula_on_a_patched_orbit_count(
        monkeypatch, rp2_poset, rp2_star5_matching):
    """One prime orbit of index 0 too many: m*_0 = c_0 + A_0 fails, while
    the flow operator, which reads no orbit count, still confirms m*."""
    import posetmorse.category as category

    counts = category.orbit_counts
    monkeypatch.setattr(category, "orbit_counts", lambda orbits: counts(orbits) | {
        0: counts(orbits).get(0, 0) + 1})
    report = ls_theorem_check(rp2_poset, rp2_star5_matching)
    assert (report.holds, report.intermediate_holds) == (True, True)
    assert report.counts_match_formula is False


def test_the_sweep_command_exits_2_on_a_failing_attachment(monkeypatch, capsys):
    """Each attachment is handed a sublevel set that already holds its
    class, so `class_misses_lower` fails at every critical value."""
    import posetmorse.morse as morse

    attachment = morse._attachment

    def meeting(poset, members, lower, new, a, b):
        return attachment(poset, members, lower | {poset._id[members[0]]}, new, a, b)

    monkeypatch.setattr(morse, "_attachment", meeting)
    code = run(["sweep", "--input", str(DATA / "t3_poset.txt"),
                "--matching", str(DATA / "t3_matching_m1.txt"), "--format", "doc"])
    results = json.loads(capsys.readouterr().out)["results"]
    assert code == 2
    attached = [r for r in results["intervals"] if r["kind"] == "critical-attachment"]
    assert attached and all(r["identities"]["class_misses_lower"] is False
                            and r["ok"] is False for r in attached)
    assert results["ok"] is False


@pytest.mark.parametrize("form", ["doc", "table"])
def test_the_inequalities_command_exits_2_on_a_failing_row(monkeypatch, capsys, form):
    """m = [0, 1, 2] against RP^2's b = [1, 0, 0] over Z: the Euler
    characteristics agree, 1 each, and only the rows of degree 0 fail."""
    import posetmorse.inequalities as inequalities

    monkeypatch.setattr(inequalities, "morse_bott_numbers", lambda *args: ([0, 1, 2], []))
    code = run(["inequalities", "--input", str(DATA / "rp2_6.txt"), "--kind", "simplicial",
                "--matching", str(DATA / "rp2_star5_matching.txt"), "--format", form])
    out = capsys.readouterr().out
    assert code == 2
    if form == "doc":
        strong = json.loads(out)["results"]["strong-morse-bott"]
        assert [row["ok"] for row in strong["rows"]] == [False, True, True]
        assert [row["ok"] for row in strong["data"]["weak"]] == [False, True, True]
        assert (strong["data"]["euler_m"], strong["data"]["euler_b"]) == (1, 1)
        assert strong["holds"] is False
    else:
        assert "  0 | 0 | 1 | NO\n" in out
        assert "  holds: False\n" in out
