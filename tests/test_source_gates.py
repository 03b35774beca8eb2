"""Source-level gates on the library: theorem checks must survive
`python -O`, which strips `assert` statements, and an internal
inconsistency must surface as a `PosetMorseError` (an `error:` line and
exit code 1 from the CLI), never as a bare AssertionError traceback."""

import ast
from pathlib import Path

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
