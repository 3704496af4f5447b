"""JSON writer: byte-for-byte agreement with the writer as first written."""

import math
from dataclasses import dataclass
from enum import Enum

from hypothesis import given, settings
from hypothesis import strategies as st

from lmoscale.errors import DomainError
from lmoscale.serialize import dumps_json
from oracles import reference_dumps_json


class Tag(str, Enum):
    PLAIN = "plain"
    ODD = "q\"\\\n\x00é\U0001f600"


class Level(int, Enum):
    LOW = 1
    NEGATIVE = -7


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Pair:
    first: object
    second: object


_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf,
                           math.nan]) | st.floats()
# control characters, quotes, non-ASCII, an astral character and a lone
# surrogate, mixed with any other character
_TEXT = st.text(st.sampled_from("\x00\x1f\x7f\n\t\"\\/é \U0001f600\ud800a")
                | st.characters(), max_size=8)
_LEAVES = (_FLOATS | st.integers() | st.integers(-2, 2) | st.booleans() | st.none() | _TEXT
           | st.sampled_from([*Tag, *Level, Empty(), b"bytes", {1, 2}, 1j]))
# str keys, str-mixin enum keys and keys the writer rejects
_KEYS = _TEXT | st.sampled_from([*Tag, 0, Level.LOW, True, None, 0.5])
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(_KEYS, inner, max_size=4) | st.builds(Pair, inner, inner)),
    max_leaves=12,
)


def _outcome(write, doc):
    try:
        return write(doc)
    except DomainError as exc:
        return f"DomainError: {exc}"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_DOCUMENTS)
def test_dumps_json_matches_the_reference_writer(doc):
    assert _outcome(dumps_json, doc) == _outcome(reference_dumps_json, doc)


def test_dumps_json_writes_dataclasses_as_objects_of_their_fields():
    doc = Pair(first=Empty(), second=Pair(first=[-0.0, Tag.PLAIN], second=(True, "\U0001f600")))
    assert dumps_json(doc) == reference_dumps_json(doc) == (
        '{"first": {}, "second": {"first": [-0.0000000000000000e+00, "plain"], '
        '"second": [true, "\\ud83d\\ude00"]}}\n')
