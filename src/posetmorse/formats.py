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
values, whose numerators and denominators have at most
`(sys.get_int_max_str_digits() - 1) // 2` digits when that limit is set.

The report document is written by `write_json`: its text is exactly
that of `json.dumps(doc, sort_keys=True, indent=2)` plus a newline, handed
on in joined blocks of pieces, so that no report is held whole.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Callable, Iterator

from .dynamics import Matching, validate_matching
from .errors import CycleDetected, MalformedLine
from .posets import Poset, _build, _declare
from .simplicial import SimplicialComplex, parse_simplicial_complex

SCHEMA_VERSION = 2


def _poset_lines(text: str) -> tuple[list[str], list[list[int]]]:
    """Declared elements, in order of first mention, and the relation as
    the declared indices under each element, in one pass over the lines.
    A name is checked once, when it is first mentioned: it must be one
    token with no `<`.  A bare line of several tokens is most likely
    complex text, so its error names `--kind simplicial`."""
    elements: list[str] = []
    index: dict[str, int] = {}
    lower: list[list[int]] = []
    reflexive = None

    def declare(name: str, lineno: int, line: str, relation: bool) -> int:
        if name.split() != [name] or "<" in name:
            expected = "'w < x'" if relation else "one identifier"
            hint = "" if relation else " (complex text needs --kind simplicial)"
            raise MalformedLine(f"line {lineno}: expected {expected}, got {line!r}{hint}")
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
    return elements, lower


def _poset_document(text: str) -> tuple[list[str], list[tuple[str, str]]]:
    """Elements and covers of a JSON poset document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedLine(f"line {exc.lineno}: malformed JSON: {exc.msg}") from exc
    except ValueError as exc:
        # an int literal longer than the interpreter converts
        raise MalformedLine("malformed JSON: a number has too many digits") from exc
    except RecursionError as exc:
        raise MalformedLine("malformed JSON: nested too deeply") from exc
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


def poset_text_lines(poset: Poset) -> Iterator[str]:
    """The lines of the poset text, each with its newline, made one at a
    time so that a writer holds no copy of the text: the covers, ordered
    by their upper, then their lower element, then the isolated elements."""
    for w, x in poset.covers:
        yield f"{w} < {x}\n"
    for e in poset.elements:
        if not poset.upper_covers(e) and not poset.lower_covers(e):
            yield f"{e}\n"


def serialize_poset(poset: Poset) -> str:
    # the empty poset's text is one empty line
    return "".join(poset_text_lines(poset)) or "\n"


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
    """The value of each element.  When the interpreter limits the digits
    of an int it converts to text, a numerator or denominator may have at
    most (limit - 1) // 2 digits: a sweep's cut (a/b + c/d) / 2 then has
    at most twice as many and one more, so every value and cut prints.  An
    exponent too large to meet the bound is rejected before its power is
    taken."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = (limit - 1) // 2
    bound = 10 ** digits if limit else None
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
            _, sep, exponent = value.lower().partition("e")
            q = (None if bound and sep and abs(int(exponent)) > digits + len(value)
                 else Fraction(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedLine(f"line {lineno}: bad rational {value!r}") from exc
        if bound and (q is None or max(abs(q.numerator), q.denominator) >= bound):
            raise MalformedLine(f"line {lineno}: the value of {name!r} has more than "
                                f"{digits} digits")
        values[name] = q
    missing = [e for e in poset.elements if e not in values]
    if missing:
        raise MalformedLine(f"function is missing values for {missing[:5]}")
    return values


def serialize_function(poset: Poset, values: dict[str, Fraction]) -> str:
    return "\n".join(f"{e} {values[e]}" for e in poset.elements) + "\n"


def load_complex(text: str) -> SimplicialComplex:
    return parse_simplicial_complex(text)


# pieces a writer joins into one block before it hands them on
_BLOCK = 4096

_escape = json.encoder.encode_basestring_ascii


def _scalar(o) -> str:
    """A value that is no container, as json.dumps writes it, tested in
    its order, so that a subclass of str or int is written as one."""
    if isinstance(o, str):
        return _escape(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not written in a report")


def write_json(value, write: Callable[[str], object]) -> None:
    """Write `value` as exactly the text of
    `json.dumps(value, sort_keys=True, indent=2) + "\n"`, handing `write`
    joined blocks of pieces, so that no caller holds the whole text.

    That text has its string keys sorted, each string escaped to ASCII by
    `json.encoder.encode_basestring_ascii`, ints as `int.__repr__` gives
    them, `true`, `false` and `null`, and each item of a nonempty list,
    tuple or dict on its own line, two spaces deeper than the container;
    empty containers are `[]` and `{}`.  A non-str key, a float (every
    number the library reports is exact) or a value of a type json.dumps
    rejects raises TypeError.
    """
    parts: list[str] = []
    append = parts.append

    def encode(o, nl: str) -> None:
        # no type is both a container and a scalar, so containers go first
        if isinstance(o, dict):
            if not o:
                append("{}")
                return
            inner = nl + "  "
            sep = "," + inner
            head = "{" + inner
            for key in sorted(o):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                item = o[key]
                # the common scalars without a call
                kind = type(item)
                if kind is str:
                    append(head + _escape(key) + ": " + _escape(item))
                elif kind is int:
                    append(head + _escape(key) + ": " + int.__repr__(item))
                elif kind is bool:
                    append(head + _escape(key) + (": true" if item else ": false"))
                else:
                    append(head + _escape(key) + ": ")
                    encode(item, inner)
                head = sep
                if len(parts) >= _BLOCK:
                    flush()
            append(nl + "}")
        elif isinstance(o, (list, tuple)):
            if not o:
                append("[]")
                return
            inner = nl + "  "
            sep = "," + inner
            if type(o[0]) is str and type(o[-1]) is str:
                # a list of names, in one piece; _escape rejects any other item
                try:
                    append("[" + inner + sep.join(map(_escape, o)) + nl + "]")
                    return
                except TypeError:
                    pass
            head = "[" + inner
            for item in o:
                kind = type(item)
                if kind is str:
                    append(head + _escape(item))
                elif kind is int:
                    append(head + int.__repr__(item))
                elif kind is bool:
                    append(head + ("true" if item else "false"))
                else:
                    append(head)
                    encode(item, inner)
                head = sep
                if len(parts) >= _BLOCK:
                    flush()
            append(nl + "]")
        else:
            append(_scalar(o))

    def flush() -> None:
        write("".join(parts))
        parts.clear()

    encode(value, "\n")
    append("\n")
    flush()


def write_report(write: Callable[[str], object], command: str, results: dict,
                 inputs: dict | None = None) -> None:
    """The report document, written by `write_json` in blocks."""
    write_json({
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs or {},
        "results": results,
    }, write)


def report_document(command: str, results: dict, inputs: dict | None = None) -> str:
    """The text `write_report` writes, whole."""
    blocks: list[str] = []
    write_report(blocks.append, command, results, inputs)
    return "".join(blocks)
