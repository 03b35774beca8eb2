"""Text and JSON formats for posets, complexes, matchings, functions,
and the structured report document.

Poset text: one `w < x` line per cover, a bare identifier declares an
isolated element, `#` starts a comment.  The JSON alternative is a
document with "elements" and "covers" fields.  Matchings are `x y` lines
(x covered by y); functions are `element value` lines with integer or
p/q rational values.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .dynamics import Matching, validate_matching
from .errors import MalformedLine
from .posets import Poset, build_poset
from .simplicial import SimplicialComplex, parse_simplicial_complex

SCHEMA_VERSION = 1


def _poset_lines(text: str) -> tuple[list[str], list[tuple[str, str]]]:
    """Declared elements, in order of first mention, and the relations."""
    elements: list[str] = []
    seen: set[str] = set()
    relations: list[tuple[str, str]] = []

    def declare(name: str):
        if name not in seen:
            seen.add(name)
            elements.append(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "<" in line:
            parts = [p.strip() for p in line.split("<")]
            if len(parts) != 2 or not all(parts):
                raise MalformedLine(f"line {lineno}: expected 'w < x', got {line!r}")
            w, x = parts
            declare(w)
            declare(x)
            relations.append((w, x))
        else:
            tokens = line.split()
            if len(tokens) != 1:
                raise MalformedLine(f"line {lineno}: expected one identifier, got {line!r}")
            declare(tokens[0])
    return elements, relations


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
    return build_poset(*_poset_lines(text))


def load_poset(text: str) -> tuple[Poset, bool]:
    """Parse either format; also report whether input covers got reduced."""
    if text.lstrip().startswith("{"):
        elements, relations = _poset_document(text)
    else:
        elements, relations = _poset_lines(text)
    poset = build_poset(elements, relations)
    return poset, not set(relations) <= poset.covers


def serialize_poset(poset: Poset) -> str:
    lines = [f"{w} < {x}" for w, x in sorted(poset.covers,
                                             key=lambda c: (poset.index[c[1]], poset.index[c[0]]))]
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
