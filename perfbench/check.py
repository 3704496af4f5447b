"""Output checks: the exit-code contract, digests and golden outputs.

Every request's output is reduced to an ``Outcome``: its exit code, its
output text (CLI stdout, or a canonical JSON rendering of a library call's
return value) and its error text (CLI stderr, or the exception raised).
The digest is the SHA-256 of all three.  Golden files store, per request of
a pass, the expected exit code, the SHA-256 of the output text and the
parsed values of the output, so a change can be judged either byte for byte
or value by value.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math

__all__ = ["RTOL", "ATOL", "Outcome", "canonical_text", "values_of", "contract_problems",
           "golden_entry", "golden_problems", "inputs_sha256"]

# Agreement of floats with the golden value: a numerically equivalent
# change (a batched SVD in place of the polar iteration, say) moves the
# simulator's metrics by far less than this, a change of formula far more.
RTOL = 1e-6
ATOL = 1e-12


@dataclasses.dataclass
class Outcome:
    exit: int  # CLI exit code; library call: 0 returned, 1 raised
    text: str  # CLI stdout, or canonical JSON of the returned value
    err: str  # CLI stderr, or "ExceptionType: message"
    raised: bool = False  # an exception escaped the call

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for part in (str(self.exit), self.text, self.err):
            h.update(part.encode())
            h.update(b"\0")
        return h.hexdigest()

    @property
    def text_sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def _plain(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return float(obj)  # numpy scalars


def canonical_text(value) -> str:
    """Deterministic rendering of a library return value (floats round-trip exactly)."""
    return json.dumps(_plain(value))


def _flatten(obj, out: list) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            out.append(key)
            _flatten(value, out)
    elif isinstance(obj, list):
        out.append(len(obj))
        for value in obj:
            _flatten(value, out)
    else:
        out.append(obj)


def _token(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _csv_values(text: str) -> list:
    lines = text.splitlines()
    out: list = []
    for part in lines[0][2:].split():
        out.extend(_token(x) for x in part.split("=", 1))
    for line in lines[1:]:
        out.extend(_token(x) for x in line.split(","))
    return out


def values_of(o: Outcome) -> list:
    """Parsed leaves of the output (keys and list lengths included), in document order."""
    out: list = []
    if o.raised:
        return [o.err]
    if o.exit != 0:
        try:
            _flatten(json.loads(o.err), out)
        except ValueError:
            return [o.err]
        return out
    if o.text.startswith("# schema="):
        return _csv_values(o.text)
    _flatten(json.loads(o.text), out)
    return out


def contract_problems(kind: str, expect: int, o: Outcome) -> list[str]:
    """Ways the outcome breaks the exit-code contract (empty when it keeps it)."""
    if o.raised:
        return [f"uncaught exception: {o.err}"]
    problems = []
    if o.exit != expect:
        problems.append(f"exit {o.exit}, expected {expect}")
    if kind == "lib":
        return problems
    if o.exit == 0:
        if o.err:
            problems.append(f"stderr on success: {o.err[:200]!r}")
        try:
            values_of(o)
        except (ValueError, IndexError) as exc:
            problems.append(f"unparseable stdout: {exc}")
    else:
        lines = o.err.splitlines()
        try:
            doc = json.loads(lines[0]) if len(lines) == 1 else None
        except ValueError:
            doc = None
        if not (isinstance(doc, dict) and doc.get("exit_code") == o.exit
                and isinstance(doc.get("error"), str)):
            problems.append(f"stderr is not one JSON error line: {o.err[:200]!r}")
        if o.text:
            problems.append("stdout written on an error exit")
    return problems


def golden_entry(o: Outcome) -> dict:
    return {"exit": o.exit, "sha256": o.text_sha256, "values": values_of(o)}


def _agree(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or isinstance(b, str):
        return type(a) is type(b) and a == b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b or math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)
    return a == b


def golden_problems(entry: dict, o: Outcome) -> tuple[bool, list[str]]:
    """(bytes equal, problems) of an outcome against its golden entry."""
    if o.exit != entry["exit"]:
        return False, [f"golden: exit {o.exit}, golden {entry['exit']}"]
    if o.text_sha256 == entry["sha256"]:
        return True, []
    try:
        got = values_of(o)
    except (ValueError, IndexError) as exc:
        return False, [f"golden: output does not parse: {exc}"]
    want = entry["values"]
    if len(got) != len(want):
        return False, [f"golden: {len(got)} output values, golden has {len(want)}"]
    for i, (a, b) in enumerate(zip(got, want)):
        if not _agree(a, b):
            return False, [f"golden: value {i} is {a!r}, golden {b!r} (rtol {RTOL})"]
    return False, []


def inputs_sha256(requests) -> str:
    """Fingerprint of a generated pass, stored with its goldens."""
    h = hashlib.sha256()
    for req in requests:
        h.update(req.describe().encode())
        h.update(b"\n")
    return h.hexdigest()
