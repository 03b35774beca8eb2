"""Every subcommand on the bundled `data/` fixtures, compared byte for
byte with committed reports: stdout, stderr and exit code, in both
output formats.

The reports under `tests/golden/` (`--format doc`) and `tests/golden/table/`
(`--format table`) pin the library's output, so a change that is meant to
compute the same answers faster must leave them as they are.  Regenerate
both (only on purpose) from the repository root with

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from posetmorse.cli import run
from posetmorse.formats import load_poset

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
TABLE_GOLDEN = GOLDEN / "table"

SPACES = {
    "t3": ["--input", "data/t3_poset.txt", "--kind", "poset"],
    "mobius": ["--input", "data/mobius_5.txt", "--kind", "simplicial"],
    "rp2": ["--input", "data/rp2_6.txt", "--kind", "simplicial"],
    "sphere6": ["--input", "data/boundary_6simplex.txt", "--kind", "simplicial"],
    # cellular, not admissible: twin cells whose rows have a +-2 entry, or a 0
    # entry and +-1 rows whose steps miss part of the down-set
    "mobius_twins": ["--input", "data/mobius_twins_poset.txt", "--kind", "poset"],
    "pendant_twins_capped": ["--input", "data/pendant_twins_capped_poset.txt",
                             "--kind", "poset"],
    # not cellular: a cone, a degree-1 element over three points, a torsion
    # down-set decided by excision and a non-maximal element's mapping cone
    "noncellular_rp2": ["--input", "data/noncellular_rp2_poset.txt", "--kind", "poset"],
    # the 2-complex of the word aaa, with torsion Z/3 in H_1
    "moore_z3": ["--input", "data/moore_z3.txt", "--kind", "simplicial"],
}
MATCHINGS = {
    "t3_m1": ("t3", "data/t3_matching_m1.txt"),
    "t3_m2": ("t3", "data/t3_matching_m2.txt"),
    "mobius_ring": ("mobius", "data/mobius_ring_matching.txt"),
    "rp2_star": ("rp2", "data/rp2_star5_matching.txt"),
    "sphere6_cone": ("sphere6", "data/boundary_6simplex_cone_matching.txt"),
    "moore_z3_orbits": ("moore_z3", "data/moore_z3_matching.txt"),
}


def _cases(output_format: str) -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for name, space in SPACES.items():
        cases[f"validate-{name}"] = ["validate", *space]
        cases[f"cellular-{name}"] = ["cellular", *space]
        cases[f"cellular-rat-{name}"] = ["cellular", *space, "--coeff", "rat"]
        cases[f"hccat-{name}"] = ["hccat", *space]
        cases[f"homology-{name}"] = ["homology", *space]
        cases[f"homology-rat-{name}"] = ["homology", *space, "--coeff", "rat"]
        cases[f"homology-reduced-{name}"] = ["homology", *space, "--reduced"]
        if space[-1] == "simplicial" and name != "sphere6":
            cases[f"homology-via-poset-{name}"] = ["homology", *space, "--via-poset"]
    for name, (space, path) in MATCHINGS.items():
        with_matching = [*SPACES[space], "--matching", path]
        for sub in ("matching", "integrate", "sweep", "inequalities", "ls-check"):
            cases[f"{sub}-{name}"] = [sub, *with_matching]
        cases[f"inequalities-rat-{name}"] = ["inequalities", *with_matching, "--coeff", "rat"]
    cases["gen-poset"] = ["gen", "--kind", "poset", "--seed", "7", "--size", "12"]
    cases["gen-simplicial"] = ["gen", "--kind", "simplicial", "--seed", "7"]
    cases["gen-matching"] = ["gen", "--kind", "matching", "--seed", "7", *SPACES["t3"][:2]]
    return {name: argv + ["--format", output_format] for name, argv in cases.items()}


CASES = _cases("doc")
TABLE_CASES = _cases("table")


def _run(argv: list[str], out: io.StringIO | None = None) -> dict:
    out, err = out or io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stderr": err.getvalue(), "stdout": out.getvalue()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden_report(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert want["argv"] == CASES[name]
    assert _run(CASES[name]) == want


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_cli_matches_golden_table(name):
    want = json.loads((TABLE_GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert want["argv"] == TABLE_CASES[name]
    assert _run(TABLE_CASES[name]) == want


@pytest.mark.parametrize("name", sorted(MATCHINGS))
def test_integrated_function_sweeps_as_its_golden_report(name, tmp_path):
    space, path = MATCHINGS[name]
    with_matching = [*SPACES[space], "--matching", path]
    function = tmp_path / "function.txt"
    function.write_text(_run(["integrate", *with_matching])["stdout"])
    got = _run(["sweep", *with_matching, "--function", str(function), "--format", "doc"])
    want = json.loads((GOLDEN / f"sweep-{name}.json").read_text(encoding="utf-8"))
    assert got["exit"] == 0
    assert json.loads(got["stdout"])["results"] == json.loads(want["stdout"])["results"]


def test_sweep_rejects_a_function_that_is_not_morse_bott(tmp_path):
    # under m2 all six elements of t3 form one orbit class: only a constant fits
    t3 = load_poset((ROOT / "data" / "t3_poset.txt").read_text())[0]
    function = tmp_path / "function.txt"
    function.write_text("".join(f"{e} {i}\n" for i, e in enumerate(t3.elements)))
    got = _run(["sweep", *SPACES["t3"], "--matching", "data/t3_matching_m2.txt",
                "--function", str(function)])
    assert got["exit"] == 1 and got["stdout"] == ""
    assert got["stderr"].startswith("error: function is not constant on the basic set")
    assert got["stderr"].count("\n") == 1


def test_sweep_rejects_a_tie_along_an_unmatched_arc(tmp_path):
    # e23 -> v3 is unmatched under m1, so f(e23) = f(v3) leaves e23 two
    # exceptional lower covers
    function = tmp_path / "function.txt"
    function.write_text("v3 1\ne23 1\nv2 3\ne12 4\nv1 5\ne13 6\n")
    got = _run(["sweep", *SPACES["t3"], "--matching", "data/t3_matching_m1.txt",
                "--function", str(function)])
    assert got["exit"] == 1 and got["stdout"] == ""
    assert got["stderr"].startswith("error: function does not decrease along the unmatched arc")
    assert got["stderr"].count("\n") == 1


class _BrokenPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [CASES["sweep-t3_m1"], TABLE_CASES["validate-t3"]])
def test_a_failed_report_write_is_an_error_line(argv):
    got = _run(argv, _BrokenPipe())
    assert got["exit"] == 1
    assert got["stderr"] == "error: [Errno 32] Broken pipe\n"


def test_golden_directory_has_no_stale_reports():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)
    assert sorted(p.stem for p in TABLE_GOLDEN.glob("*.json")) == sorted(TABLE_CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_cli.py --write")
    for folder, cases in ((GOLDEN, CASES), (TABLE_GOLDEN, TABLE_CASES)):
        folder.mkdir(exist_ok=True)
        for name, argv in cases.items():
            got = _run(argv)
            (folder / f"{name}.json").write_text(json.dumps(got, indent=1) + "\n",
                                                 encoding="utf-8")
            print(f"{folder.name}/{name}: exit {got['exit']}")
