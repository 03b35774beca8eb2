"""Source-level gates on the library: theorem checks must survive
`python -O`, which strips `assert` statements, and an internal
inconsistency must surface as a `PosetMorseError` (an `error:` line and
exit code 1 from the CLI), never as a bare AssertionError traceback.
The package's public surface is a literal list, so that it changes only
on purpose, and no library function takes a coefficient ring: every
count is read over the integers, and the command line drops torsion.
Importing the CLI loads none of the modules that made most of its
start-up time."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import posetmorse

SRC = Path(__file__).resolve().parent.parent / "src" / "posetmorse"


def _raises_assertion_error(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_assert_gates():
    files = sorted(SRC.glob("*.py"))
    assert files
    offenders = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or _raises_assertion_error(node):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


PUBLIC = [
    "BasicSetDecomposition", "CellularComplexOfPoset", "CellularityReport", "ChainComplex",
    "ClosedOrbit", "FlowData", "HomologySummary", "InequalityReport", "Matching",
    "MinimalSubcomplex", "MorseBottFunction", "Poset", "SimplicialComplex",
    "SphereGenerator", "basic_sets", "build_poset", "cellular_chain_complex",
    "check_cellularity", "euler_characteristics", "face_poset", "filtration_sweep",
    "flow_operator", "hccat", "homology", "integrate_matching", "is_acyclic",
    "is_morse_function", "is_morse_matching", "is_morse_smale", "ls_theorem_check",
    "matched_digraph", "minimal_subcomplex", "morse_bott_numbers",
    "morse_function_to_matching", "orbit_inequalities_multiplicity",
    "orbit_inequalities_torsion", "orbit_multiplicity", "order_complex",
    "parse_simplicial_complex", "perturb_to_morse", "poset_homology", "relative_homology",
    "require_morse_bott", "simplicial_chain_complex", "space_complex", "space_homology",
    "sphere_generator", "strong_morse_bott", "subdivision", "sublevel",
    "validate_matching", "verify_attachment", "verify_cellular_agreement",
    "verify_collapse",
]


def test_public_surface_is_the_listed_names():
    """The public names of `import posetmorse`; its submodules, which
    importing them binds on the package, are not names it exports."""
    names = sorted(name for name, value in vars(posetmorse).items()
                   if not name.startswith("_") and not isinstance(value, ModuleType))
    assert names == PUBLIC


def test_no_library_function_takes_a_ring():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
                if any(a.arg == "coefficients" for a in params):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_cli_import_loads_no_slow_modules():
    """A fresh interpreter without `site` that imports the CLI loads neither
    `dataclasses`, whose import pulls in `inspect`, `ast`, `dis` and
    `tokenize`, nor `pathlib`.  The gate reads module names, not times."""
    code = "import sys, posetmorse.cli; print(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    loaded = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    assert "posetmorse.cli" in loaded
    slow = {"dataclasses", "inspect", "ast", "dis", "tokenize", "pathlib"}
    assert sorted(slow.intersection(loaded)) == []
