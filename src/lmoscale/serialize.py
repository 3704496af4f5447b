"""Deterministic output formats: versioned CSV and JSON writers.

Floats are serialized in scientific notation with 17 significant digits,
which round-trips 64-bit values exactly; identical inputs therefore
produce byte-identical files.  Every file carries a schema version string
in its header (a ``# schema=...`` comment line for CSV, a ``"schema"``
field for JSON).  JSON renders a dataclass as an object of its fields in
order and an enum as its value; CSV writes a tuple cell ``|``-joined.

The JSON writer emits the same bytes as ``json.dumps`` would for each
string, None and bool under its defaults (ASCII only, ``\\uXXXX`` escapes),
taking the string escaper straight from ``json.encoder``.  Floats, the
most common values, are tested first, and each dataclass's quoted keys and
separators are built once per class.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from enum import Enum
from json.encoder import encode_basestring_ascii

from .errors import DomainError

__all__ = ["fmt_float", "dumps_json", "write_csv", "read_csv", "SCHEMA_PREFIX"]

SCHEMA_PREFIX = "lmoscale"


def fmt_float(x: float) -> str:
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)  # inf / -inf / nan; json cannot carry these anyway
    return f"{x:.16e}"


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _fields(record) -> dict:
    """A dataclass instance's fields in order, one level deep."""
    return {name: getattr(record, name) for name in _field_names(type(record))}


_LITERALS = {None: "null", True: "true", False: "false"}


@functools.cache
def _field_keys(cls) -> tuple[tuple[str, str], ...]:
    """Each field's name and the text before its value: separator, quoted key, colon."""
    return tuple((name, f"{', ' if i else ''}{encode_basestring_ascii(name)}: ")
                 for i, name in enumerate(_field_names(cls)))


def _json_fragments(obj, out: list[str]) -> None:
    # Floats, the most common values, are tested first.  No float is None, a
    # bool or an int, so every value takes the branch it took with floats third.
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise DomainError(f"cannot serialize non-finite float {obj!r} to JSON")
        out.append(f"{obj:.16e}")
    elif obj is None or obj is True or obj is False:
        out.append(_LITERALS[obj])
    elif isinstance(obj, int):
        try:
            out.append(str(obj))
        except ValueError:  # more digits than int-to-str conversion allows
            raise DomainError(f"cannot serialize an int of more than "
                              f"{sys.get_int_max_str_digits()} digits to JSON") from None
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(obj):
            if not isinstance(key, str):
                raise DomainError(f"JSON object keys must be strings, got {key!r}")
            if i:
                out.append(", ")
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _json_fragments(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _json_fragments(item, out)
        out.append("]")
    elif isinstance(obj, Enum):
        _json_fragments(obj.value, out)
    elif dataclasses.is_dataclass(obj):
        out.append("{")
        for name, key in _field_keys(type(obj)):
            out.append(key)
            _json_fragments(getattr(obj, name), out)
        out.append("}")
    else:
        raise DomainError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_json(obj) -> str:
    """Serialize with full-precision floats; insertion order is preserved."""
    out: list[str] = []
    _json_fragments(obj, out)
    out.append("\n")
    return "".join(out)


def write_csv(schema: str, header: list[str], rows, meta: dict | None = None) -> str:
    """Render a versioned CSV document as a string.

    The first line is ``# schema=... [key=value ...]``; floats are written
    at full precision, tuples ``|``-joined, other cells via str().
    """
    parts = [f"# schema={SCHEMA_PREFIX}/{schema}"]
    for key, value in (meta or {}).items():
        parts.append(f"{key}={fmt_float(value) if isinstance(value, float) else value}")
    lines = [" ".join(parts), ",".join(header)]
    for row in rows:
        cells = [fmt_float(c) if isinstance(c, float) else "|".join(c) if isinstance(c, tuple)
                 else str(c) for c in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def read_csv(text: str) -> tuple[str, dict, list[str], list[list[str]]]:
    """Parse a document produced by ``write_csv``.

    Returns (schema, meta, header, rows-as-strings); numeric conversion is
    the caller's job since the schema fixes the column types.
    """
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# schema="):
        raise DomainError("missing schema line or column header")
    head = lines[0][2:].split()
    schema = head[0].split("=", 1)[1]
    meta = dict(part.split("=", 1) for part in head[1:])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if line]
    return schema, meta, header, rows
