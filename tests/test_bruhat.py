"""The Bruhat order of S_n without e and w0, as `scripts/bruhat.py` writes
it.  Every open interval of a Bruhat order is a sphere (Bjoerner and
Wachs, Adv. Math. 43, 1982), so the poset is the face poset of a regular
CW sphere of dimension n(n-1)/2 - 2 (Bjoerner, Europ. J. Combin. 5,
1984): cellular, homologically admissible, with that sphere's homology.
On S_4 the pass is held to the per-down-set reference, and the cellular
homology to the order complex's.  The special matching x <-> s1 x leaves
two critical cells, s1 and s1 w0, and meets every bound with equality."""

import subprocess
import sys
from math import factorial

import pytest

from posetmorse import (
    check_cellularity,
    filtration_sweep,
    integrate_matching,
    is_morse_matching,
    ls_theorem_check,
    poset_homology,
    space_homology,
    strong_morse_bott,
)
from posetmorse.dynamics import critical_counts
from posetmorse.formats import parse_matching_text

from helpers import (
    BRUHAT_SCRIPT,
    bruhat,
    bruhat_poset,
    named_pass,
    plain_rows,
    reference_cellular_pass,
)


@pytest.mark.parametrize("n", [4, 5])
def test_the_bruhat_order_is_an_admissible_sphere(n):
    poset = bruhat_poset(n)
    assert len(poset) == factorial(n) - 2
    report = check_cellularity(poset)
    assert (report.is_graded, report.is_cellular, report.is_homologically_admissible,
            report.witnesses) == (True, True, True, ())
    assert space_homology(poset).nontrivial() == {0: (1, ()), n * (n - 1) // 2 - 2: (1, ())}


def test_the_pass_on_s4_is_the_reference_and_its_homology_the_order_complexs():
    poset = bruhat_poset(4)
    report, rows = named_pass(poset)
    expected_report, expected_rows = reference_cellular_pass(poset)
    assert report == expected_report
    assert plain_rows(rows) == plain_rows(expected_rows)
    assert space_homology(poset) == poset_homology(poset)


@pytest.mark.parametrize("n", [4, 5])
def test_the_special_matching_is_tight(n):
    poset = bruhat_poset(n)
    matching = parse_matching_text(poset, "".join(bruhat.special_matching_lines(n)))
    assert is_morse_matching(poset, matching)
    matched = matching.matched_elements()
    s1 = "21" + "".join(map(str, range(3, n + 1)))
    s1_w0 = "".join(map(str, range(n, 2, -1))) + "12"
    assert [e for e in poset.elements if e not in matched] == [s1, s1_w0]
    dim = n * (n - 1) // 2 - 2
    assert critical_counts(poset, matching) == {0: 1, dim: 1}
    report = ls_theorem_check(poset, matching)
    assert (report.hccat_value, report.basic_set_bound) == (2, 2)
    assert (report.holds, report.intermediate_holds, report.counts_match_formula,
            report.warnings) == (True, True, True, ())
    assert all(expected == recomputed for _, expected, recomputed in report.class_values)
    strong = strong_morse_bott(poset, matching)
    assert strong.holds and all(row.lhs == row.rhs for row in strong.rows)
    assert filtration_sweep(poset, integrate_matching(poset, matching))[1]


def test_s3_is_a_circle_of_four_elements():
    assert bruhat.bruhat_lines(3) == ["132 < 231\n", "213 < 231\n", "132 < 312\n",
                                      "213 < 312\n"]
    assert bruhat.special_matching_lines(3) == ["132 231\n"]


@pytest.mark.parametrize("n", ["2", "10"])
def test_the_script_refuses_n_out_of_range(n):
    done = subprocess.run([sys.executable, str(BRUHAT_SCRIPT), n], capture_output=True,
                          text=True)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.splitlines()[-1] == f"bruhat.py: error: N runs from 3 to 9, not {n}"
