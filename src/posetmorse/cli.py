"""Command-line front end.

Every run emits a single deterministic report: a JSON document with a
schema_version (--format doc) or a human table derived from the same
data (--format table).  Exit codes: 0 when every verdict holds, 1 for
input or precondition errors, 2 when a theorem verdict comes back false,
which the theorems say cannot happen on valid input and therefore flags
a bug.

Each report subcommand's handler, bound to its subparser, loads its
inputs and returns (results, table lines, ok) without writing anything.
`run` is the one place that writes a report, echoing the command name
and its inputs (the matching file, else the kind) into the document, and
that sets the exit code: 0 or 2 from ok, and 1 when loading, computing
or writing raises a PosetMorseError or an OSError.  `gen` writes its
fixture text itself and returns None.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import __version__
from .cellular import cellular_chain_complex, check_cellularity, space_complex, space_homology
from .category import hccat, ls_theorem_check, minimal_subcomplex
from .dynamics import basic_sets, is_morse_matching, is_morse_smale, orbit_multiplicity
from .errors import MalformedLine, PosetMorseError
from .formats import (
    load_complex,
    load_poset,
    parse_function_text,
    parse_matching_text,
    report_document,
    serialize_function,
    serialize_matching,
    serialize_poset,
)
from .homology import homology, poset_homology, simplicial_chain_complex
from .inequalities import (
    euler_characteristics,
    orbit_inequalities_multiplicity,
    orbit_inequalities_torsion,
    strong_morse_bott,
)
from .morse import MorseBottFunction, filtration_sweep, integrate_matching, require_morse_bott
from .randgen import XorShift64Star, random_graded_poset, random_matching, random_simplicial_complex
from .simplicial import face_poset, serialize_simplicial_complex


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedLine(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def _load_space(args):
    """The poset under analysis, plus the raw complex when kind=simplicial.
    No text is kept while the poset is built from it (peak RSS)."""
    if args.kind == "simplicial":
        complex = load_complex(_read(args.input))
        return face_poset(complex), complex, False
    poset, reduced = load_poset(_read(args.input))
    return poset, None, reduced


def _load_matched(args):
    """The poset and the matching of the subcommands that take --matching."""
    poset, _, _ = _load_space(args)
    return poset, parse_matching_text(poset, _read(args.matching))


# what a report subcommand returns: results, table lines, every verdict holds
Report = tuple[dict, list[str], bool]


def _rows_table(report) -> list[str]:
    lines = [f"{report.name}:"]
    lines.append("  k | lhs | rhs | ok")
    for row in report.rows:
        lines.append(f"  {row.k} | {row.lhs} | {row.rhs} | {'yes' if row.ok else 'NO'}")
    lines.append(f"  holds: {report.holds}")
    return lines


def cmd_validate(args) -> Report:
    poset, complex, reduced = _load_space(args)
    if reduced:
        print("warning: input covers were not transitively reduced; "
              "redundant pairs dropped", file=sys.stderr)
    report = check_cellularity(poset)
    results = {"cellularity": report.to_doc(), "elements": len(poset.elements),
               "covers": len(poset.covers)}
    lines = [f"elements: {len(poset.elements)}  covers: {len(poset.covers)}",
             f"graded: {report.is_graded}",
             f"cellular: {report.is_cellular}",
             f"homologically admissible: {report.is_homologically_admissible}"]
    if complex is not None:
        counts = {d: len(s) for d, s in complex.simplices.items()}
        results["f_vector"] = {str(d): c for d, c in sorted(counts.items())}
        lines.insert(0, "f-vector: " + " ".join(f"{d}:{c}" for d, c in sorted(counts.items())))
    for w in report.witnesses[:10]:
        lines.append(f"  witness: {w}")
    return results, lines, True


def cmd_homology(args) -> Report:
    poset, complex, _ = _load_space(args)
    if args.via_poset:
        summary = poset_homology(poset, reduced=args.reduced, coefficients=args.coeff)
    elif args.kind == "simplicial":
        summary = homology(simplicial_chain_complex(complex, reduced=args.reduced),
                           args.coeff)
    else:
        summary = space_homology(poset, reduced=args.reduced, coefficients=args.coeff)
    return {"homology": summary.to_doc(), "pretty": str(summary)}, [str(summary)], True


def cmd_cellular(args) -> Report:
    poset, _, _ = _load_space(args)
    cell = cellular_chain_complex(poset)
    integral = homology(cell.complex)
    agrees = integral == poset_homology(poset)
    summary = integral if args.coeff == "int" else integral.rational()
    results = {
        "incidence": cell.incidence_table(),
        "boundaries": {str(p): [[col.get(i, 0) for col in cols]
                                for i in range(cell.complex.rank(p - 1))]
                       for p, cols in sorted(cell.complex.columns.items())},
        "cellular_homology": summary.to_doc(),
        "order_complex_homology": poset_homology(poset, coefficients=args.coeff).to_doc(),
        "pipelines_agree": agrees,
    }
    lines = [f"cellular homology: {summary}", f"pipelines agree: {agrees}"]
    lines += [f"  eps({x}, {w}) = {e}" for x, w, e in cell.incidence_table()]
    return results, lines, agrees


def cmd_matching(args) -> Report:
    poset, matching = _load_matched(args)
    dec = basic_sets(poset, matching)
    morse = is_morse_matching(poset, matching)
    results = {"basic_sets": dec.to_doc(), "morse": morse}
    lines = [f"critical: {', '.join(dec.critical) or '(none)'}"]
    for cls in dec.orbit_classes:
        lines.append(f"orbit class (index {cls.index}): {', '.join(cls.elements)}")
    lines.append(f"Morse matching: {morse}")
    report = check_cellularity(poset)
    if report.is_homologically_admissible:
        verdict = is_morse_smale(poset, matching)
        results["morse_smale"] = verdict.is_morse_smale
        lines.append(f"Morse-Smale: {verdict.is_morse_smale}")
        if verdict.is_morse_smale and verdict.orbits:
            cell = cellular_chain_complex(poset)
            mults = [{"start": o.nodes[0], "index": o.index,
                      "multiplicity": orbit_multiplicity(o, cell)}
                     for o in verdict.orbits]
            results["orbit_multiplicities"] = mults
            for m in mults:
                lines.append(f"orbit at {m['start']}: index {m['index']}, "
                             f"multiplicity {m['multiplicity']:+d}")
    return results, lines, True


def cmd_integrate(args) -> Report:
    poset, matching = _load_matched(args)
    function = integrate_matching(poset, matching)
    results = {"function": {e: str(v) for e, v in function.values.items()}}
    # the table is the function file itself, whose text ends with a newline
    return results, serialize_function(poset, function.values).split("\n")[:-1], True


def cmd_sweep(args) -> Report:
    poset, matching = _load_matched(args)
    if args.function:
        values = parse_function_text(poset, _read(args.function))
        function = MorseBottFunction(poset=poset, values=values, matching=matching)
        require_morse_bott(function)
    else:
        function = integrate_matching(poset, matching)
    reports, ok = filtration_sweep(poset, function)
    results = {"ok": ok, "intervals": [r.to_doc() for r in reports]}
    lines = []
    for r in reports:
        lo, hi = r.interval
        lines.append(f"[{lo}, {hi}] {r.kind}: {'ok' if r.ok else 'FAILED'}")
    lines.append(f"sweep: {'ok' if ok else 'FAILED'}")
    return results, lines, ok


def cmd_inequalities(args) -> Report:
    poset, matching = _load_matched(args)
    reports = [strong_morse_bott(poset, matching, args.coeff)]
    verdict = is_morse_smale(poset, matching)
    if verdict.is_morse_smale:
        reports.append(orbit_inequalities_torsion(poset, matching))
        reports.append(orbit_inequalities_multiplicity(poset, matching))
    results = {r.name: r.to_doc() for r in reports}
    results["morse_smale"] = verdict.is_morse_smale
    lines = [line for r in reports for line in _rows_table(r)]
    return results, lines, all(r.holds for r in reports)


def cmd_hccat(args) -> Report:
    poset, complex, _ = _load_space(args)
    value = hccat(poset)
    # the model hccat's homology was read off
    witness = minimal_subcomplex(space_complex(poset))
    ranks = sorted(witness.rank_profile.items())
    results = {"hccat": value, "minimal_subcomplex_ranks": {str(k): v for k, v in ranks},
               "minimal_subcomplex_quasi_isomorphism": witness.quasi_isomorphism_verified}
    lines = [f"hccat: {value}",
             "minimal subcomplex ranks: " + " ".join(f"{k}:{v}" for k, v in ranks)]
    ok = witness.quasi_isomorphism_verified and sum(witness.rank_profile.values()) == value
    if complex is not None:
        consistent = hccat(simplicial_chain_complex(complex)) == value
        results["face_poset_consistent"] = consistent
        lines.append(f"face-poset consistency: {consistent}")
        ok = ok and consistent
    chi_g, chi = euler_characteristics(poset)
    results |= {"chi_g": chi_g, "chi": chi}
    lines.append(f"chi_g: {chi_g}  chi: {chi}")
    return results, lines, ok


def cmd_ls_check(args) -> Report:
    poset, matching = _load_matched(args)
    report = ls_theorem_check(poset, matching)
    ok = report.holds and report.intermediate_holds and report.counts_match_formula
    lines = [
        f"hccat: {report.hccat_value}",
        f"sum over basic sets: {report.basic_set_bound}",
        f"theorem holds: {report.holds}",
        f"intermediate bound (sum m*): {report.intermediate_holds}",
        f"m* matches c_p + A_p + A_(p-1) and flow ranks: {report.counts_match_formula}",
    ]
    lines += [f"warning: {w}" for w in report.warnings]
    return report.to_doc() | {"ok": ok}, lines, ok


def cmd_gen(args) -> None:
    """Write the fixture text itself; there is no report to write."""
    rng = XorShift64Star(args.seed)
    if args.kind == "poset":
        poset = random_graded_poset(rng, max_elements=10 if args.size is None else args.size)
        text = serialize_poset(poset)
    elif args.kind == "simplicial":
        vertices = 9 if args.size is None else args.size
        if not 2 <= vertices <= 9:
            raise PosetMorseError(
                f"a random simplicial complex needs 2 to 9 vertices, not {vertices}")
        text = serialize_simplicial_complex(random_simplicial_complex(rng, max_vertices=vertices))
    elif args.kind == "matching":
        if not args.input:
            raise PosetMorseError("gen --kind matching needs --input POSET")
        poset, _, _ = _load_space(args)
        text = serialize_matching(random_matching(rng, poset))
    else:
        raise PosetMorseError(f"cannot generate kind {args.kind!r}")
    sys.stdout.write(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="posetmorse",
        description="Morse-Bott theory on finite posets: exact homology, "
                    "matching dynamics, inequality theorems, and the "
                    "homological Lusternik-Schnirelmann bound.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, matching=False, function=False, coeff=False,
                needs_input=True, kinds=None):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--input", required=needs_input, help="input file")
        p.add_argument("--kind", choices=kinds or ["poset", "simplicial"],
                       default="poset")
        p.add_argument("--format", choices=["table", "doc"], default="table")
        if matching:
            p.add_argument("--matching", required=True, help="matching file")
        if function:
            p.add_argument("--function", help="function file (element value lines)")
        if coeff:
            p.add_argument("--coeff", choices=["int", "rat"], default="int")
        return p

    command("validate", cmd_validate, "poset/complex checks and cellularity report")
    p = command("homology", cmd_homology, "homology of a poset or complex", coeff=True)
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--via-poset", action="store_true",
                   help="take homology from the order complex of the poset (or of "
                        "the face poset), the definition, for either --kind")
    command("cellular", cmd_cellular, "incidence table and pipeline agreement", coeff=True)
    command("matching", cmd_matching, "basic sets and matching verdicts", matching=True)
    command("integrate", cmd_integrate, "emit an integrated Morse-Bott function",
            matching=True)
    command("sweep", cmd_sweep, "collapse/attachment checks over the filtration",
            matching=True, function=True)
    command("inequalities", cmd_inequalities, "all applicable inequality theorems",
            matching=True, coeff=True)
    command("hccat", cmd_hccat, "homological chain category and its subcomplex witness")
    command("ls-check", cmd_ls_check, "Lusternik-Schnirelmann theorem verdicts",
            matching=True)
    p = command("gen", cmd_gen, "deterministic random fixtures", needs_input=False,
                kinds=["poset", "simplicial", "matching"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, help="elements (poset, default 10) or vertices "
                   "(simplicial, 2 to 9, default 9)")
    return parser


def run(argv=None) -> int:
    """Run one subcommand; write its report and return its exit code."""
    args = build_parser().parse_args(argv)
    try:
        outcome = args.handler(args)
        if outcome is None:  # gen wrote its fixture
            return 0
        results, lines, ok = outcome
        if args.format == "doc":
            echoed = "matching" if "matching" in vars(args) else "kind"
            inputs = {"input": args.input, echoed: getattr(args, echoed)}
            sys.stdout.write(report_document(args.command, results, inputs))
        else:
            sys.stdout.write("".join(f"{line}\n" for line in lines))
        return 0 if ok else 2
    except (PosetMorseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
