import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from posetmorse import formats
from posetmorse.cli import run
from posetmorse.errors import MalformedLine
from posetmorse.formats import (
    load_poset,
    parse_function_text,
    parse_matching_text,
    parse_poset_text,
    report_document,
    serialize_function,
    serialize_matching,
    serialize_poset,
)

from helpers import maximal_elements, poset_document

T3_TEXT = """\
# circle model
v1 < e12
v2 < e12
v1 < e13
v3 < e13
v2 < e23
v3 < e23
"""


def test_poset_text_round_trip():
    poset = parse_poset_text(T3_TEXT)
    assert len(poset) == 6
    text = serialize_poset(poset)
    again = parse_poset_text(text)
    assert again == poset
    assert serialize_poset(again) == text


def test_poset_text_isolated_elements():
    poset = parse_poset_text("a\nb\n")
    assert poset.elements == ("a", "b")
    assert not poset.covers
    assert "a" in serialize_poset(poset)


def test_poset_text_malformed():
    with pytest.raises(MalformedLine):
        parse_poset_text("a < b < c\n")
    with pytest.raises(MalformedLine):
        parse_poset_text("a b\n")


@pytest.mark.parametrize("text,line", [
    ("a b < c\n", "line 1: expected 'w < x', got 'a b < c'"),
    ("x < y\na < b  # note\n", "line 2: expected 'w < x', got 'a < b  # note'"),
    ("a < b\nb <\tc d\n", "line 2: expected 'w < x', got 'b <\\tc d'"),
    ("a\n# a comment line\nb c\n",
     "line 3: expected one identifier, got 'b c' (complex text needs --kind simplicial)"),
], ids=["lower", "comment", "tab", "bare"])
def test_identifiers_hold_no_whitespace(text, line, tmp_path, capsys):
    # identifiers are single tokens everywhere, so a relation line may not
    # declare `a b` or `b  # note`, which no matching or function file could name
    with pytest.raises(MalformedLine) as raised:
        load_poset(text)
    assert str(raised.value) == line
    path = tmp_path / "p.txt"
    path.write_text(text)
    _fails_cleanly(capsys, path)


def test_poset_json_document():
    poset = parse_poset_text(T3_TEXT)
    doc = poset_document(poset)
    loaded, reduced = load_poset(json.dumps(doc))
    assert loaded == poset
    assert not reduced


def test_load_poset_reports_reduction():
    _, reduced = load_poset("a < b\nb < c\na < c\n")
    assert reduced
    _, reduced = load_poset("a < b\nb < c\n")
    assert not reduced


def test_matching_round_trip(t3, t3_m1):
    text = serialize_matching(t3_m1)
    again = parse_matching_text(t3, text)
    assert again.pairs == t3_m1.pairs


def test_function_round_trip(t3):
    values = {e: Fraction(i, 2) for i, e in enumerate(t3.elements)}
    text = serialize_function(t3, values)
    again = parse_function_text(t3, text)
    assert again == values


def test_function_missing_values(t3):
    with pytest.raises(MalformedLine):
        parse_function_text(t3, "v1 1\n")


def test_function_second_value_for_an_element(t3, tmp_path, capsys):
    text = serialize_function(t3, {e: Fraction(i) for i, e in enumerate(t3.elements)})
    with pytest.raises(MalformedLine, match="line 7: second value for element 'v1'"):
        parse_function_text(t3, text + "v1 999\n")
    data = Path(__file__).resolve().parent.parent / "data"
    space = ["--input", str(data / "t3_poset.txt"), "--matching", str(data / "t3_matching_m1.txt")]
    assert run(["integrate", *space]) == 0
    function = tmp_path / "f.txt"
    function.write_text(capsys.readouterr().out + "v1 999\n")
    assert run(["sweep", *space, "--function", str(function)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_report_document_deterministic():
    a = report_document("demo", {"x": 1, "y": [1, 2]}, {"input": "f"})
    b = report_document("demo", {"y": [1, 2], "x": 1}, {"input": "f"})
    assert a == b
    doc = json.loads(a)
    assert doc["schema_version"] == 2


# -- CLI ------------------------------------------------------------------


@pytest.fixture()
def files(tmp_path):
    poset = tmp_path / "t3.txt"
    poset.write_text(T3_TEXT)
    m1 = tmp_path / "m1.txt"
    m1.write_text("v1 e12\nv2 e23\n")
    m2 = tmp_path / "m2.txt"
    m2.write_text("v1 e12\nv2 e23\nv3 e13\n")
    rp2 = tmp_path / "rp2.txt"
    rp2.write_text("\n".join(["1 2 5", "1 2 6", "1 3 4", "1 3 5", "1 4 6",
                              "2 3 4", "2 3 6", "2 4 5", "3 5 6", "4 5 6"]) + "\n")
    return {"poset": str(poset), "m1": str(m1), "m2": str(m2), "rp2": str(rp2),
            "tmp": tmp_path}


def test_cli_validate(files, capsys):
    assert run(["validate", "--input", files["poset"]]) == 0
    out = capsys.readouterr().out
    assert "graded: True" in out
    assert "homologically admissible: True" in out


def test_cli_homology_doc(files, capsys):
    assert run(["homology", "--input", files["rp2"], "--kind", "simplicial",
                "--format", "doc"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["homology"]["betti"] == [1, 0, 0]
    assert doc["results"]["homology"]["torsion"] == [[], [2], []]


def test_cli_homology_reduced(files, capsys):
    assert run(["homology", "--input", files["poset"], "--reduced",
                "--format", "doc"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # reduced homology of the circle: one class in degree 1, none below
    assert doc["results"]["homology"]["min_degree"] == -1
    assert doc["results"]["homology"]["betti"] == [0, 0, 1]


def test_cli_cellular(files, capsys):
    assert run(["cellular", "--input", files["poset"], "--format", "doc"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["pipelines_agree"] is True
    assert len(doc["results"]["incidence"]) == 6


def test_cli_matching(files, capsys):
    assert run(["matching", "--input", files["poset"],
                "--matching", files["m2"], "--format", "doc"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["morse"] is False
    assert doc["results"]["morse_smale"] is True
    assert doc["results"]["orbit_multiplicities"][0]["multiplicity"] == 1


def test_cli_integrate_and_sweep(files, capsys, tmp_path):
    assert run(["integrate", "--input", files["poset"],
                "--matching", files["m1"]]) == 0
    function_text = capsys.readouterr().out
    assert "v3 1" in function_text
    ffile = tmp_path / "f.txt"
    ffile.write_text(function_text)
    assert run(["sweep", "--input", files["poset"], "--matching", files["m1"],
                "--function", str(ffile)]) == 0
    out = capsys.readouterr().out
    assert "sweep: ok" in out


def test_cli_sweep_integrated(files, capsys):
    assert run(["sweep", "--input", files["poset"], "--matching", files["m2"],
                "--format", "doc"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["ok"] is True


def test_cli_inequalities(files, capsys):
    assert run(["inequalities", "--input", files["poset"],
                "--matching", files["m2"], "--format", "doc"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["strong-morse-bott"]["holds"] is True
    assert doc["results"]["orbit-torsion"]["holds"] is True
    assert doc["results"]["orbit-multiplicity-one"]["holds"] is True


def test_cli_hccat(files, capsys):
    assert run(["hccat", "--input", files["rp2"], "--kind", "simplicial",
                "--format", "doc"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["hccat"] == 3
    assert doc["results"]["face_poset_consistent"] is True
    assert doc["results"]["minimal_subcomplex_quasi_isomorphism"] is True


def test_cli_ls_check(files, capsys):
    assert run(["ls-check", "--input", files["poset"],
                "--matching", files["m2"], "--format", "doc"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["holds"] is True
    assert doc["results"]["hccat"] == 2


def test_cli_gen_deterministic(capsys):
    assert run(["gen", "--kind", "poset", "--seed", "7", "--size", "8"]) == 0
    first = capsys.readouterr().out
    assert run(["gen", "--kind", "poset", "--seed", "7", "--size", "8"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert run(["gen", "--kind", "poset", "--seed", "8", "--size", "8"]) == 0
    third = capsys.readouterr().out
    assert third != first


def test_cli_gen_matching(files, capsys):
    assert run(["gen", "--kind", "matching", "--seed", "3",
                "--input", files["poset"]]) == 0
    out = capsys.readouterr().out
    poset = parse_poset_text(T3_TEXT)
    parse_matching_text(poset, out)  # parses and validates


def test_cli_gen_complex(capsys):
    assert run(["gen", "--kind", "simplicial", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    from posetmorse import parse_simplicial_complex
    parse_simplicial_complex(out)


def test_cli_doc_reports_identical(files, capsys):
    run(["homology", "--input", files["poset"], "--format", "doc"])
    a = capsys.readouterr().out
    run(["homology", "--input", files["poset"], "--format", "doc"])
    b = capsys.readouterr().out
    assert a == b


def test_cli_input_errors(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    assert run(["homology", "--input", str(empty)]) == 1
    assert run(["homology", "--input", str(tmp_path / "missing.txt")]) == 1
    bad = tmp_path / "cycle.txt"
    bad.write_text("a < b\nb < a\n")
    assert run(["validate", "--input", str(bad)]) == 1


def _fails_cleanly(capsys, path) -> None:
    """The CLI rejects the input with exit code 1 and one error line."""
    assert run(["validate", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_truncated_json(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text('{"elements": ["a", "b"], "covers": [["a", "b"]')
    with pytest.raises(MalformedLine):
        load_poset(f.read_text())
    _fails_cleanly(capsys, f)


def test_cli_json_cover_of_one_element(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text('{"elements": ["a", "b"], "covers": [["a"]]}')
    _fails_cleanly(capsys, f)


def test_cli_json_covers_not_a_list(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text('{"elements": ["a", "b"], "covers": 5}')
    _fails_cleanly(capsys, f)


@pytest.mark.parametrize("bad", ["null", "true", "false", "[]", '["a"]', "{}", '{"a": 1}'])
@pytest.mark.parametrize("where", ["element", "lower", "upper"])
def test_cli_json_ids_must_be_strings_or_numbers(bad, where, tmp_path, capsys):
    elements = {"element": f'["a", {bad}]', "lower": '["a", "b"]', "upper": '["a", "b"]'}
    cover = {"element": '["a", "b"]', "lower": f'[{bad}, "b"]', "upper": f'["a", {bad}]'}
    f = tmp_path / "p.json"
    f.write_text(f'{{"elements": {elements[where]}, "covers": [{cover[where]}]}}')
    with pytest.raises(MalformedLine, match="strings or numbers"):
        load_poset(f.read_text())
    _fails_cleanly(capsys, f)


def _int_digit_limit() -> int:
    """The interpreter's limit on the digits of an int it converts from or
    to text; a test of what lies beyond it needs one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter sets no limit on int digits")
    return limit


def test_cli_json_nested_too_deeply(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text('{"elements": ' + "[" * 200000)
    with pytest.raises(MalformedLine, match="malformed JSON: nested too deeply"):
        load_poset(f.read_text())
    _fails_cleanly(capsys, f)


def test_cli_json_number_with_too_many_digits(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text('{"elements": [' + "1" * (_int_digit_limit() + 1) + "]}")
    with pytest.raises(MalformedLine, match="malformed JSON: a number has too many digits"):
        load_poset(f.read_text())
    _fails_cleanly(capsys, f)


def test_json_ids_may_be_numbers():
    poset, _ = load_poset('{"elements": ["a", 1, 2.5], "covers": [[1, "a"], ["a", 2.5]]}')
    assert poset.elements == ("a", "1", "2.5")
    assert poset.covers == {("1", "a"), ("a", "2.5")}


def test_cli_non_utf8_input(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_bytes(b"a < b\n\xff\xfe < c\n")
    _fails_cleanly(capsys, f)


def test_cli_inputs_may_start_with_a_byte_order_mark(files, tmp_path, capsys):
    """A UTF-8 byte-order mark, which some editors write at the start of a
    file, is not part of the first identifier of any input: poset text, a
    JSON poset, a complex, a matching or a function.  With a mark on any
    one of its files, each report is the one without it."""
    text_poset = tmp_path / "t3_bare.txt"
    text_poset.write_text(T3_TEXT.split("\n", 1)[1])
    json_poset = tmp_path / "t3.json"
    json_poset.write_text(json.dumps({"elements": ["a", "b", "c"],
                                      "covers": [["a", "b"], ["a", "c"]]}))
    assert run(["integrate", "--input", files["poset"], "--matching", files["m1"]]) == 0
    function = tmp_path / "f.txt"
    function.write_text(capsys.readouterr().out)
    runs = [
        ["matching", "--input", str(text_poset), "--matching", files["m2"]],
        ["homology", "--input", str(json_poset), "--reduced"],
        ["cellular", "--input", files["rp2"], "--kind", "simplicial"],
        ["sweep", "--input", files["poset"], "--matching", files["m1"],
         "--function", str(function)],
    ]
    for argv in runs:
        assert run(argv) == 0
        want = capsys.readouterr()
        for k, arg in enumerate(argv):
            if argv[k - 1] in ("--input", "--matching", "--function"):
                copy = tmp_path / f"bom-{Path(arg).name}"
                copy.write_bytes(b"\xef\xbb\xbf" + Path(arg).read_bytes())
                marked = [*argv[:k], str(copy), *argv[k + 1:]]
                assert (run(marked), capsys.readouterr()) == (0, want), marked


def test_cli_directory_as_input(tmp_path, capsys):
    _fails_cleanly(capsys, tmp_path)


def test_load_poset_reports_reduction_in_json():
    _, reduced = load_poset('{"elements": ["a", "b", "c"], '
                            '"covers": [["a", "b"], ["b", "c"], ["a", "c"]]}')
    assert reduced


def test_cli_warns_on_unreduced_covers(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("a < b\nb < c\na < c\n")
    assert run(["validate", "--input", str(f)]) == 0
    err = capsys.readouterr().err
    assert "not transitively reduced" in err


def test_bundled_data_files():
    from pathlib import Path
    from posetmorse import face_poset, parse_simplicial_complex, poset_homology

    data = Path(__file__).resolve().parent.parent / "data"
    t3 = parse_poset_text((data / "t3_poset.txt").read_text())
    assert len(t3) == 6
    m1 = parse_matching_text(t3, (data / "t3_matching_m1.txt").read_text())
    m2 = parse_matching_text(t3, (data / "t3_matching_m2.txt").read_text())
    assert len(m1) == 2 and len(m2) == 3
    rp2 = parse_simplicial_complex((data / "rp2_6.txt").read_text())
    assert poset_homology(face_poset(rp2)).t(1) == (2,)
    mobius = parse_simplicial_complex((data / "mobius_5.txt").read_text())
    mobius_poset = face_poset(mobius)
    parse_matching_text(mobius_poset, (data / "mobius_ring_matching.txt").read_text())
    parse_matching_text(face_poset(rp2), (data / "rp2_star5_matching.txt").read_text())


@pytest.mark.parametrize("argv", [
    ["validate", "--input", "data/t3_poset.txt", "--reduced"],
    ["sweep", "--input", "data/t3_poset.txt", "--matching", "data/t3_matching_m1.txt",
     "--coeff", "rat"],
])
def test_cli_rejects_flags_the_subcommand_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_parser_is_built_once(capsys):
    from posetmorse import __version__
    from posetmorse.cli import build_parser

    assert build_parser() is build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"posetmorse {__version__}\n"
        with pytest.raises(SystemExit) as exc:
            run(["validate"])
        assert exc.value.code == 2
        assert "--input" in capsys.readouterr().err
        assert run(["gen", "--kind", "poset", "--seed", "3"]) == 0
        assert capsys.readouterr().out


def test_cli_consistency_error_is_an_error_line(monkeypatch, capsys):
    import posetmorse.dynamics

    monkeypatch.setattr(posetmorse.dynamics, "is_morse_matching", lambda *args: False)
    data = Path(__file__).resolve().parent.parent / "data"
    code = run(["ls-check", "--input", str(data / "t3_poset.txt"),
                "--matching", str(data / "t3_matching_m2.txt")])
    assert code == 1
    assert capsys.readouterr().err == "error: perturbed matching is not acyclic; this is a bug\n"


THEOREM_RUNS = [
    ["t3_poset.txt", "poset", "t3_matching_m1.txt"],
    ["t3_poset.txt", "poset", "t3_matching_m2.txt"],
    ["mobius_5.txt", "simplicial", "mobius_ring_matching.txt"],
    ["rp2_6.txt", "simplicial", "rp2_star5_matching.txt"],
]


@pytest.mark.parametrize("space,kind,matching", THEOREM_RUNS)
def test_theorem_checks_build_no_induced_poset(space, kind, matching, monkeypatch, capsys):
    from posetmorse import Poset

    data = Path(__file__).resolve().parent.parent / "data"
    base = ["--input", str(data / space), "--kind", kind, "--format", "doc"]
    with_matching = base + ["--matching", str(data / matching)]
    argvs = [["sweep", *with_matching], ["inequalities", *with_matching],
             ["ls-check", *with_matching], ["hccat", *base]]
    expected = []
    for argv in argvs:
        code = run(argv)
        expected.append((code, capsys.readouterr()))

    def forbidden(*args, **kwargs):
        raise RuntimeError("Poset.induced was called")

    monkeypatch.setattr(Poset, "induced", forbidden)
    for argv, (code, captured) in zip(argvs, expected):
        assert (run(argv), capsys.readouterr()) == (code, captured), argv


@pytest.mark.parametrize("argv", [
    ["hccat"],
    ["cellular", "--coeff", "rat"],
    ["inequalities", "--matching", "rp2_star5_matching.txt"],
    ["inequalities", "--matching", "rp2_star5_matching.txt", "--coeff", "rat"],
    ["ls-check", "--matching", "rp2_star5_matching.txt"],
])
def test_cli_builds_the_whole_order_complex_once(argv, monkeypatch, capsys):
    """Only `cellular`, which checks the cellular complex against the
    definition, builds the order complex of the whole poset, once for its
    integral and rational homology.  hccat, the inequalities and ls-check
    read the space's homology off the cellular complex and build none.
    Every order complex is built by `Poset._chain_cones`, which this
    counts."""
    from posetmorse import Poset

    data = Path(__file__).resolve().parent.parent / "data"
    argv = [argv[0], "--input", str(data / "rp2_6.txt"), "--kind", "simplicial",
            "--format", "doc"] + [str(data / a) if a.endswith(".txt") else a for a in argv[1:]]
    original = Poset._chain_cones
    builds = []

    def counted(poset):
        builds.append(len(poset))
        return original(poset)

    monkeypatch.setattr(Poset, "_chain_cones", counted)
    assert run(argv) == 0
    capsys.readouterr()
    assert builds == ([31] if argv[0] == "cellular" else [])


@pytest.mark.parametrize("size", ["0", "-3"])
def test_cli_gen_rejects_sizes_below_one(size, capsys):
    assert run(["gen", "--kind", "poset", "--seed", "1", "--size", size]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_gen_posets_smaller_than_the_level_count(capsys):
    for seed in range(1, 9):
        for size in (1, 2):
            assert run(["gen", "--kind", "poset", "--seed", str(seed),
                        "--size", str(size)]) == 0
            assert 1 <= len(parse_poset_text(capsys.readouterr().out)) <= size


def test_cli_input_under_a_file(capsys):
    data = Path(__file__).resolve().parent.parent / "data"
    _fails_cleanly(capsys, data / "t3_poset.txt" / "x")


SUBCOMMANDS = [
    ["validate"], ["homology"], ["homology", "--coeff", "rat"], ["cellular"],
    ["matching", "--matching", "M"], ["integrate", "--matching", "M"],
    ["sweep", "--matching", "M"], ["inequalities", "--matching", "M"], ["hccat"],
    ["ls-check", "--matching", "M"],
]


def _job_id(space: str, argv: list[str]) -> str:
    return " ".join([space] + [a for a in argv if not a.startswith("-") and a != "M"])


@pytest.mark.parametrize("space,kind,matching,argv", [
    *[pytest.param("t3_poset.txt", "poset", "t3_matching_m2.txt", argv,
                   id=_job_id("t3", argv))
      for argv in SUBCOMMANDS + [["gen", "--seed", "3"]]],
    *[pytest.param("rp2_6.txt", "simplicial", "rp2_star5_matching.txt", argv,
                   id=_job_id("rp2", argv))
      for argv in SUBCOMMANDS],
])
def test_cli_builds_one_poset_per_run(space, kind, matching, argv, monkeypatch, capsys):
    """Every subcommand works on the poset it loads: graded queries need
    no second copy of it."""
    from posetmorse import Poset

    data = Path(__file__).resolve().parent.parent / "data"
    kind = "matching" if argv[0] == "gen" else kind
    argv = [argv[0], "--input", str(data / space), "--kind", kind, "--format", "doc"] + [
        str(data / matching) if a == "M" else a for a in argv[1:]]
    original = Poset.__init__
    builds = []

    def counted(self, *args, **kwargs):
        builds.append(len(args[0]))
        original(self, *args, **kwargs)

    monkeypatch.setattr(Poset, "__init__", counted)
    assert run(argv) == 0
    capsys.readouterr()
    assert len(builds) == 1


@pytest.mark.parametrize("case", ["matching-t3_m2", "matching-mobius_ring", "matching-rp2_star"])
@pytest.mark.parametrize("folder", ["", "table"])
def test_matching_reads_multiplicities_without_a_chain_complex(case, folder, monkeypatch, capsys):
    """`matching` reads each orbit's multiplicity off the incidence numbers
    of the cellularity pass, and builds no chain complex for it: its
    reports on the three golden cases with orbits keep their bytes while
    the ChainComplex constructor raises."""
    from posetmorse.homology import ChainComplex

    root = Path(__file__).resolve().parent.parent
    golden = root / "tests" / "golden" / folder / f"{case}.json"
    want = json.loads(golden.read_text(encoding="utf-8"))
    assert "multiplicity" in want["stdout"]

    def forbidden(*args, **kwargs):
        raise RuntimeError("a ChainComplex was built")

    monkeypatch.setattr(ChainComplex, "__init__", forbidden)
    monkeypatch.chdir(root)
    assert run(want["argv"]) == want["exit"] == 0
    assert capsys.readouterr() == (want["stdout"], want["stderr"])


@pytest.mark.parametrize("text", ["a < b\nb < c\n", "a\nb\nc\nd\na < b\nb < d\nc < d\n"],
                         ids=["chain", "ungraded"])
def test_cli_hccat_without_a_cellular_complex(text, tmp_path, capsys):
    """On a non-cellular or ungraded poset the witness comes from the
    chain model of the cellularity pass."""
    path = tmp_path / "space.txt"
    path.write_text(text)
    assert run(["hccat", "--input", str(path), "--format", "doc"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["hccat"] == 1
    assert results["minimal_subcomplex_ranks"] == {"0": 1}
    assert results["minimal_subcomplex_quasi_isomorphism"] is True


def _with_tail(poset, top: str):
    """The poset with a new element covering `top` alone: a beat point
    whose strict down-set is contractible, so the result is not cellular."""
    from posetmorse import build_poset

    return build_poset(list(poset.elements) + ["tail"], list(poset.covers) + [(top, "tail")])


@pytest.mark.parametrize("space", ["circle", "rp2"])
def test_cli_hccat_witness_of_the_core(space, rp2_poset, tmp_path, capsys):
    """A beat point keeps the homotopy type, so the witness of the model
    of the poset with one added has the rank profile of the whole
    poset's order complex."""
    from posetmorse import (check_cellularity, minimal_subcomplex, order_complex,
                            simplicial_chain_complex)

    base = parse_poset_text("a < c\nb < c\na < d\nb < d\n") if space == "circle" else rp2_poset
    poset = _with_tail(base, maximal_elements(base)[0])
    assert not check_cellularity(poset).is_cellular
    assert len(poset.beat_point_core()) < len(poset)
    path = tmp_path / "space.txt"
    path.write_text(serialize_poset(poset))
    assert run(["hccat", "--input", str(path), "--format", "doc"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    whole = minimal_subcomplex(simplicial_chain_complex(order_complex(poset)))
    assert results["minimal_subcomplex_ranks"] == {
        str(k): v for k, v in sorted(whole.rank_profile.items())}
    assert results["minimal_subcomplex_quasi_isomorphism"] is True
    assert results["hccat"] == sum(whole.rank_profile.values()) == (2 if space == "circle" else 3)


@pytest.mark.parametrize("size", ["-1", "0", "1", "10", "50"])
def test_cli_gen_rejects_simplicial_sizes_outside_two_to_nine(size, capsys):
    assert run(["gen", "--kind", "simplicial", "--seed", "1", "--size", size]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_gen_simplicial_default_size_is_nine(capsys):
    assert run(["gen", "--kind", "simplicial", "--seed", "5"]) == 0
    default = capsys.readouterr().out
    assert run(["gen", "--kind", "simplicial", "--seed", "5", "--size", "9"]) == 0
    assert capsys.readouterr().out == default
    assert run(["gen", "--kind", "simplicial", "--seed", "5", "--size", "2"]) == 0
    from posetmorse import parse_simplicial_complex
    assert len(parse_simplicial_complex(capsys.readouterr().out).simplices.get(0, ())) <= 2


DATA = Path(__file__).resolve().parent.parent / "data"
T3_MATCHED = ["--input", str(DATA / "t3_poset.txt"), "--matching",
              str(DATA / "t3_matching_m1.txt")]
T3_VALUES = "".join(f"{e} {i}\n" for i, e in enumerate(["v1", "v2", "v3", "e12", "e13", "e23"]))


def _one_error_line(capsys, argv) -> str:
    """run(argv) exits 1 with exactly one `error:` line and no traceback;
    returns that line."""
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err + captured.out
    return captured.err


@pytest.mark.parametrize("document", ['{"covers": []}', '{"elements": "a b"}'])
def test_cli_json_document_without_an_elements_list(document, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(document)
    err = _one_error_line(capsys, ["validate", "--input", str(path)])
    assert "'elements' list" in err


def test_cli_face_name_clash_names_both_faces(tmp_path, capsys):
    """A face is named by its vertices joined with `|`, so the vertex 1|2
    and the edge of 1 and 2 share a name: the error says which faces."""
    path = tmp_path / "k.txt"
    path.write_text("1 2\n1|2 3\n")
    err = _one_error_line(capsys, ["validate", "--kind", "simplicial", "--input", str(path)])
    assert "'1|2'" in err and "('1|2',)" in err and "('1', '2')" in err


def test_subdivision_name_clash_names_both_chains():
    from posetmorse import build_poset, subdivision
    from posetmorse.errors import DuplicateElement

    poset = build_poset(["a", "b", "a|b"], [("a", "b")])
    with pytest.raises(DuplicateElement, match=r"\('a\|b',\) and \('a', 'b'\) share the name 'a\|b'"):
        subdivision(poset)


@pytest.mark.parametrize("line", ["v1", "v1 e12 e13"])
def test_cli_matching_line_that_is_not_a_pair(line, tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(f"# one pair per line\nv2 e23\n{line}\n")
    err = _one_error_line(capsys, ["matching", "--input", str(DATA / "t3_poset.txt"),
                                   "--matching", str(path)])
    assert f"line 3: expected 'x y', got {line!r}" in err


def _sweep_with(tmp_path, text: str) -> list[str]:
    path = tmp_path / "f.txt"
    path.write_text(text)
    return ["sweep", *T3_MATCHED, "--function", str(path)]


def test_cli_function_file_skips_comment_lines(tmp_path, capsys):
    """A comment line is skipped and still counted: the error names the
    line after it, and the same values with the comment are accepted."""
    err = _one_error_line(capsys, _sweep_with(tmp_path, "# values\nv1 1 2\n"))
    assert "line 2: expected 'element value'" in err
    assert run(["integrate", *T3_MATCHED]) == 0
    integrated = capsys.readouterr().out
    assert run(_sweep_with(tmp_path, f"# integrated\n{integrated}")) == 0
    assert capsys.readouterr().out.endswith("sweep: ok\n")


def test_cli_function_line_with_three_tokens(tmp_path, capsys):
    err = _one_error_line(capsys, _sweep_with(tmp_path, T3_VALUES + "e23 1 2\n"))
    assert "line 7: expected 'element value', got 'e23 1 2'" in err


@pytest.mark.parametrize("value", ["1/0", "nan", "inf", "one", "1/2/3"])
def test_cli_function_bad_rational(value, tmp_path, capsys):
    text = T3_VALUES.replace("v2 1\n", f"v2 {value}\n")
    err = _one_error_line(capsys, _sweep_with(tmp_path, text))
    assert f"line 2: bad rational {value!r}" in err


def _function_digits() -> int:
    """The digits a numerator or denominator of a function value may have."""
    return (_int_digit_limit() - 1) // 2


@pytest.mark.parametrize("value", ["1e{0}", "-1e-{0}", "{1}", "1/{1}", "{1}/3"])
def test_cli_function_value_with_too_many_digits(value, tmp_path, capsys):
    """A value past the digit bound is rejected with its line number, not
    a traceback from printing it in an error message or report."""
    digits = _function_digits()
    value = value.format(digits, 10 ** digits)
    text = T3_VALUES.replace("v2 1\n", f"v2 {value}\n")
    err = _one_error_line(capsys, _sweep_with(tmp_path, text))
    assert f"line 2: the value of 'v2' has more than {digits} digits" in err


def test_function_exponent_past_the_bound_is_not_raised_to(t3, monkeypatch):
    """1e999999999999 is rejected before 10 ** 999999999999 is computed."""
    def no_exponent(value):
        assert "e" not in value, f"Fraction({value!r}) was called"
        return Fraction(value)

    monkeypatch.setattr(formats, "Fraction", no_exponent)
    with pytest.raises(MalformedLine, match="line 2: the value of 'v2' has more than"):
        parse_function_text(t3, T3_VALUES.replace("v2 1\n", "v2 1e999999999999\n"))


def test_cli_function_values_at_the_digit_bound(tmp_path, capsys):
    """Values whose denominators have as many digits as the bound allows:
    the cut between the two critical values next to them has twice as many
    and is printed in full."""
    digits = _function_digits()
    b, d = 10 ** digits - 1, 10 ** digits - 3
    x, y = 7 * 10 ** (digits - 1) + 1, 8 * 10 ** (digits - 1) + 1  # x/b, y/d in lowest terms
    text = f"v3 1/7\ne23 2/7\nv2 3/7\ne12 4/7\nv1 {x}/{b}\ne13 {y}/{d}\n"
    assert run(_sweep_with(tmp_path, text) + ["--format", "doc"]) == 0
    intervals = json.loads(capsys.readouterr().out)["results"]["intervals"]
    cut = (Fraction(x, b) + Fraction(y, d)) / 2
    assert len(str(cut.denominator)) > 2 * digits - 2
    assert str(cut) in {end for r in intervals for end in r["interval"]}


def test_cli_gen_matching_needs_an_input(capsys):
    err = _one_error_line(capsys, ["gen", "--kind", "matching", "--seed", "1"])
    assert "needs --input" in err
