"""Text and JSON formats for posets, complexes, matchings, functions,
and the structured report document.

Poset text: one `w < x` line per cover, a bare identifier declares an
isolated element, and a line whose first character is `#` is a comment.
Identifiers hold no whitespace, as in matching and function files, so a
`#` comment takes a whole line: `a b < c` and `a < b  # note` are
rejected with their line number.  The text is read once, each
identifier interned as it is first mentioned, and the relation goes to
`posets._build` as ints.  The JSON alternative is a document with
"elements" and "covers" fields.  Matchings are `x y` lines (x covered by
y); functions are `element value` lines with integer or p/q rational
values.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .dynamics import Matching, validate_matching
from .errors import CycleDetected, MalformedLine
from .posets import Poset, _build, _declare
from .simplicial import SimplicialComplex, parse_simplicial_complex

SCHEMA_VERSION = 1


def _poset_lines(text: str) -> tuple[list[str], dict[str, int], list[list[int]]]:
    """Declared elements, in order of first mention, each name's declared
    index, and the relation as the declared indices under each element,
    in one pass over the lines.  A name is checked once, when it is first
    mentioned: it must be one token with no `<`."""
    elements: list[str] = []
    index: dict[str, int] = {}
    lower: list[list[int]] = []
    reflexive = None

    def declare(name: str, lineno: int, line: str, relation: bool) -> int:
        if name.split() != [name] or "<" in name:
            expected = "'w < x'" if relation else "one identifier"
            raise MalformedLine(f"line {lineno}: expected {expected}, got {line!r}")
        index[name] = len(elements)
        elements.append(name)
        lower.append([])
        return index[name]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        w, lt, x = line.partition("<")
        if not lt:
            if line not in index:
                declare(line, lineno, line, False)
            continue
        w, x = w.rstrip(), x.lstrip()
        i = index.get(w)
        if i is None:
            i = declare(w, lineno, line, True)
        j = index.get(x)
        if j is None:
            j = declare(x, lineno, line, True)
        lower[j].append(i)
        if i == j and reflexive is None:
            reflexive = w
    if reflexive is not None:
        raise CycleDetected(f"reflexive pair ({reflexive}, {reflexive}) is not allowed")
    return elements, index, lower


def _poset_document(text: str) -> tuple[list[str], list[tuple[str, str]]]:
    """Elements and covers of a JSON poset document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedLine(f"line {exc.lineno}: malformed JSON: {exc.msg}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("elements"), list):
        raise MalformedLine("poset document needs an 'elements' list")
    covers = doc.get("covers", [])
    if not isinstance(covers, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in covers):
        raise MalformedLine("poset document 'covers' must be a list of [w, x] pairs")
    for value in [*doc["elements"], *(v for pair in covers for v in pair)]:
        # a JSON boolean is a Python int
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise MalformedLine(f"element ids must be strings or numbers, not {json.dumps(value)}")
    return [str(e) for e in doc["elements"]], [(str(w), str(x)) for w, x in covers]


def parse_poset_text(text: str) -> Poset:
    return _build(*_poset_lines(text))[0]


def load_poset(text: str) -> tuple[Poset, bool]:
    """Parse either format; also report whether input covers got reduced."""
    if text.lstrip().startswith("{"):
        parsed = _declare(*_poset_document(text))
    else:
        parsed = _poset_lines(text)
    # the text is not kept while the poset is built (peak RSS)
    del text
    return _build(*parsed)


def serialize_poset(poset: Poset) -> str:
    # the covers come ordered by their upper, then their lower element
    lines = [f"{w} < {x}" for w, x in poset.covers]
    isolated = [e for e in poset.elements
                if not poset.upper_covers(e) and not poset.lower_covers(e)]
    lines.extend(isolated)
    return "\n".join(lines) + "\n"


def parse_matching_text(poset: Poset, text: str) -> Matching:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise MalformedLine(f"line {lineno}: expected 'x y', got {line!r}")
        pairs.append((tokens[0], tokens[1]))
    return validate_matching(poset, pairs)


def serialize_matching(matching: Matching) -> str:
    return "\n".join(f"{w} {x}" for w, x in matching.sorted_pairs()) + "\n"


def parse_function_text(poset: Poset, text: str) -> dict[str, Fraction]:
    values: dict[str, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise MalformedLine(f"line {lineno}: expected 'element value', got {line!r}")
        name, value = tokens
        poset.require(name)
        if name in values:
            raise MalformedLine(f"line {lineno}: second value for element {name!r}")
        try:
            values[name] = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedLine(f"line {lineno}: bad rational {value!r}") from exc
    missing = [e for e in poset.elements if e not in values]
    if missing:
        raise MalformedLine(f"function is missing values for {missing[:5]}")
    return values


def serialize_function(poset: Poset, values: dict[str, Fraction]) -> str:
    return "\n".join(f"{e} {values[e]}" for e in poset.elements) + "\n"


def load_complex(text: str) -> SimplicialComplex:
    return parse_simplicial_complex(text)


def report_document(command: str, results: dict, inputs: dict | None = None) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs or {},
        "results": results,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
