"""Damage to a saved index: what the loader may do with it.

Hypothesis damages a small saved index of each kind (fallback sums, float
rows, no vectors) once: a truncation; one byte flipped, inserted or deleted;
one JSON value of the header, an entry line or the key line replaced by a
value of another JSON type or by JSON nested past the recursion limit; the
key line given an entry id twice, two arrays of unequal length, another
shape than two arrays of strings, or a hash key that is not 16 lowercase
hex digits; the deflated text, which stores every raw source, replaced by a stream that
does not inflate to UTF-8 text within the bound; or, in an embedded index,
the deflated vector block replaced by a stream that does not inflate to
exactly the block, or the block stream's length, the file's last 8 bytes,
set to another value. Each damaged file is tried twice, with its digest as saved and with one
recomputed over the damaged bytes, and put through one exercise: loading,
building every entry, a clone lookup and a top-k query of each probe, and a
`scan` on the command line.

- The exercise gives what the undamaged index gives, or raises FileCorrupt
  or FormatVersionMismatch, and never another exception.
- Under the saved digest, which covers the whole file, header included,
  damage anywhere is always caught: `scan` exits 3 and writes no report.
- Under a recomputed digest, a damaged value that is still well-typed loads
  with its damaged value. Such an index may give other results (another
  dimension is a DimensionMismatch at the query) and its scan may exit 0, 3
  or 4, with a report only on 0.
- A value replaced by one of a type its field cannot hold, a text or a
  block that does not inflate, or another block length, is FileCorrupt
  under either digest.
- Such a key line is refused at load, so under either digest `scan` exits
  3 and writes no report.
"""

from __future__ import annotations

import functools
import json
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BLOCK_DAMAGE,
    DEEP_JSON,
    FIXTURES,
    TEXT_DAMAGE,
    damage_block,
    damage_text,
    join_index,
    restamp,
    split_index,
)
from simaudit.cli import main
from simaudit.corpus import Label, load_index, new_index, save_index
from simaudit.errors import DimensionMismatch, FileCorrupt, FormatVersionMismatch
from simaudit.extract import extract_units
from simaudit.simindex import FallbackEmbedder, embed_index, query_top_k

REFERENCE_SOL = """\
contract Ref {
    function leaf() public pure returns (uint256) { return 1; }
    function mid() public pure returns (uint256) { return leaf() + 1; }
    function top(uint256 a) public pure returns (uint256) { return mid() * a; }
}
"""

# leaf is a clone of a reference; mid is debated against its top-k matches.
TARGET_SOL = """\
contract Target {
    function leaf() public pure returns (uint256) { return 1; }
    function mid() public pure returns (uint256) { return leaf() + 2; }
}
"""

PROBES = extract_units(TARGET_SOL, "target.sol") + extract_units(REFERENCE_SOL, "ref.sol")

KINDS = ("fallback_sums", "float_rows", "unembedded")
EMBEDDED = KINDS[:2]


def _saved(kind: str) -> bytes:
    index = new_index()
    for unit in extract_units(REFERENCE_SOL, "ref.sol"):
        index.insert(unit, "refs", "1.0")
    index.entries[1].label, index.entries[1].vuln_note = Label.VULNERABLE, "off by one"
    if kind != "unembedded":
        embed_index(index, FallbackEmbedder())
    if kind == "float_rows":
        index.vectors = index.rows()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "idx.jsonl"
        save_index(index, path)
        return path.read_bytes()


SAVED = {kind: _saved(kind) for kind in KINDS}


def _exercise(path: Path):
    """What an index file gives: its meta, stats, rows and entries, the
    clone of each probe and the top-k matches of each probe's embedding."""
    index = load_index(path)
    entries = list(index.entries)
    clones = [index.find_clone(unit.normalized_source, unit.content_hash) for unit in PROBES]
    rows = top = None
    if index.vectors is not None:
        rows = index.rows().tobytes()
        top = query_top_k(FallbackEmbedder().embed_many([u.normalized_source for u in PROBES]),
                          index)
    return index.meta, index.stats, entries, clones, rows, top


def _scan(tmp: Path, path: Path) -> tuple[int, dict | None]:
    """The exit code of `scan` on the index at path, and its report minus
    timing if it wrote one."""
    report = tmp / "report.json"
    report.unlink(missing_ok=True)
    target = tmp / "target.sol"
    target.write_text(TARGET_SOL, encoding="utf-8")
    code = main(["scan", "--input", str(target), "--index", str(path), "--provider", "mock",
                 "--mock-fixture", str(FIXTURES / "mock_debate.json"), "--report", str(report)])
    if not report.exists():
        return code, None
    written = json.loads(report.read_text(encoding="utf-8"))
    written.pop("timing")
    return code, written


def _outcome(tmp: Path, data: bytes):
    """(exercise result or the error it raised, scan exit code, report)."""
    path = tmp / "idx.jsonl"
    path.write_bytes(data)
    try:
        result = _exercise(path)
    except (FileCorrupt, FormatVersionMismatch, DimensionMismatch) as exc:
        result = exc
    return (result, *_scan(tmp, path))


def _lines(data: bytes) -> tuple[list, bytes]:
    """The JSON values of data's header, entry and key lines, and its vector
    block."""
    header, lines, block = split_index(data)
    return [header, *map(json.loads, lines)], block


_DEEP = "\0deep"    # stands for DEEP_JSON until the line is encoded


def _encode(values: list, block: bytes) -> bytes:
    def line(value, compact):
        text = json.dumps(value, separators=(",", ":") if compact else None)
        return text.replace(json.dumps(_DEEP), DEEP_JSON)
    return join_index([line(values[0], False), *(line(v, True) for v in values[1:])], block)


def _paths(value, path=()):
    """The path of value and of every value inside it, as keys and indices."""
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from _paths(inner, (*path, key))


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    return {int: "number", float: "number", str: "string",
            list: "array", dict: "object"}[type(value)]


_VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "number": st.one_of(st.integers(-2**70, 2**70), st.floats()),
    "string": st.text(max_size=4),
    "array": st.lists(st.one_of(st.none(), st.integers(), st.text(max_size=2)), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    "deep": st.just(_DEEP),
}

# The JSON types each value may hold, by line and path, where "*" stands for
# every key or index below the first (on the key line, for every one).
# "deep" is in none of them.
_HEADER_TYPES = {
    (): {"object"}, ("format_version",): {"number"}, ("embedder_id",): {"string", "null"},
    ("delta",): {"number"}, ("created_at",): {"string"}, ("stats",): {"object"},
    ("stats", "*"): {"number"}, ("dimension",): {"number", "null"},
    ("dtype",): {"string", "null"}, ("digest",): {"string"},
}
_ENTRY_TYPES = {
    (): {"array"}, **{(pos,): {"string"} for pos in range(6)}, (3,): {"string", "null"},
}
_KEY_TYPES = {(): {"array"}, ("*",): {"array"}, ("*", "*"): {"string"}}


def _may_hold(line: int, lines: int, path: tuple, kind: str) -> bool:
    """Whether a value of JSON type kind is well-typed at path of a line."""
    table = _HEADER_TYPES if line == 0 else _KEY_TYPES if line == lines - 1 else _ENTRY_TYPES
    named = 0 if table is _KEY_TYPES else 1
    return kind in table.get(path[:named] + ("*",) * len(path[named:]), set())


@dataclass
class Damage:
    data: bytes
    # A value was replaced by one its field cannot hold: of a type it
    # cannot, a text or a block that does not inflate, or another length.
    mistyped: bool
    what: str
    # The load refuses it, so `scan` exits 3 under either digest.
    at_load: bool = False

    def __repr__(self) -> str:
        return self.what


@st.composite
def damaged_bytes(draw, data: bytes) -> Damage:
    """data truncated, or with one byte flipped, inserted or deleted."""
    how = draw(st.sampled_from(["truncate", "flip", "insert", "delete"]))
    pos = draw(st.integers(0, len(data) - 1))
    damaged = {
        "truncate": lambda: data[:pos],
        "flip": lambda: data[:pos] + bytes([data[pos] ^ draw(st.integers(1, 255))])
        + data[pos + 1:],
        "insert": lambda: data[:pos] + bytes([draw(st.integers(0, 255))]) + data[pos:],
        "delete": lambda: data[:pos] + data[pos + 1:],
    }[how]()
    return Damage(damaged, False, f"{how} at {pos}: {damaged[pos:pos + 1]!r}")


@st.composite
def swapped_values(draw, data: bytes) -> Damage:
    """data with one JSON value of the header, an entry line or the key line
    replaced by a value of another JSON type or by DEEP_JSON."""
    values, block = _lines(data)
    line = draw(st.sampled_from([0, len(values) - 1, st.integers(1, len(values) - 2)]))
    if not isinstance(line, int):
        line = draw(line)
    path = draw(st.sampled_from(list(_paths(values[line]))))
    old = values[line]
    for key in path:
        old = old[key]
    kind = draw(st.sampled_from(sorted(set(_VALUES) - {_json_type(old)})))
    new = draw(_VALUES[kind])
    if path:
        parent = values[line]
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = new
    else:
        values[line] = new
    return Damage(_encode(values, block), not _may_hold(line, len(values), path, kind),
                  f"line {line + 1} value {list(path)} set to {kind} {new!r:.40}")


_KEY_DAMAGE = ("duplicate_id", "unequal_lengths", "not_two_arrays", "bad_hash_key")


def _is_hash_key(value) -> bool:
    return re.fullmatch("[0-9a-f]{16}", value) is not None


@st.composite
def damaged_keys(draw, data: bytes) -> Damage:
    """data with its key line, [[entry ids], [hash keys]], still well-typed
    JSON but refused by the loader: an entry id there twice, the two arrays
    of unequal length, the line not two arrays of strings, or a hash key
    that is not 16 lowercase hex digits."""
    values, block = _lines(data)
    ids, keys = values[-1]
    how = draw(st.sampled_from(_KEY_DAMAGE))
    pos = draw(st.integers(0, len(ids) - 1))
    if how == "duplicate_id":
        ids[pos] = ids[(pos + draw(st.integers(1, len(ids) - 1))) % len(ids)]
    elif how == "unequal_lengths":
        array = draw(st.sampled_from([ids, keys]))
        if draw(st.booleans()):
            del array[pos]
        else:
            array.insert(pos, draw(st.sampled_from(array)))
    elif how == "not_two_arrays":
        values[-1] = draw(st.sampled_from([
            [ids], [ids, keys, []], [keys, ids, keys], list(map(list, zip(ids, keys))),
            {"ids": ids, "keys": keys}, [ids, "".join(keys)], [ids, [*keys[:-1], None]],
        ]))
    else:
        keys[pos] = draw(st.one_of(
            st.sampled_from([keys[pos][:-1], keys[pos] + "0", keys[pos].upper(),
                             keys[pos] * 4, "g" + keys[pos][1:]]),
            st.text(max_size=20)).filter(lambda key: not _is_hash_key(key)))
    return Damage(_encode(values, block), True, f"key line {how}: {values[-1]!r:.80}",
                  at_load=True)


@st.composite
def damaged_text(draw, data: bytes) -> Damage:
    """data with its deflated text replaced by a stream that does not
    inflate, in one of the ways of helpers.TEXT_DAMAGE."""
    damage = draw(st.sampled_from(sorted(TEXT_DAMAGE)))
    return Damage(damage_text(data, damage), True, f"entry text {damage}")


@st.composite
def damaged_block(draw, data: bytes) -> Damage:
    """data, an embedded index, with its block stream and length replaced in
    one of the ways of helpers.BLOCK_DAMAGE."""
    damage = draw(st.sampled_from(sorted(BLOCK_DAMAGE)))
    return Damage(damage_block(data, damage), True, f"vector block {damage}")


@st.composite
def changed_length(draw, data: bytes) -> Damage:
    """data, an embedded index, with the block stream's length, its last 8
    bytes, set to another value: near it, or anywhere up to 2**64 - 1."""
    length = int.from_bytes(data[-8:], "little")
    new = draw(st.one_of(st.integers(0, 2 * length), st.integers(0, 2**64 - 1))
               .filter(lambda value: value != length))
    return Damage(data[:-8] + new.to_bytes(8, "little"), True, f"block length set to {new}")


@functools.cache
def _undamaged(kind: str):
    with tempfile.TemporaryDirectory() as tmp:
        return _outcome(Path(tmp), SAVED[kind])


def _check(kind: str, damaged: Damage) -> None:
    undamaged = _undamaged(kind)[0]
    with tempfile.TemporaryDirectory() as tmp:
        for data, stale in ((damaged.data, True), (restamp(damaged.data), False)):
            result, code, report = _outcome(Path(tmp), data)
            assert (report is not None) == (code == 0)
            if damaged.mistyped:
                assert isinstance(result, (FileCorrupt, FormatVersionMismatch)), type(result)
            if stale:
                assert isinstance(result, (FileCorrupt, FormatVersionMismatch)) \
                    or result == undamaged
            assert code == 3 if stale or damaged.at_load else code in (0, 3, 4)


@pytest.mark.parametrize("kind", KINDS)
def test_lines_and_encode_rebuild_the_saved_bytes(kind):
    """The property test swaps values through _lines and _encode, so every
    byte it does not swap stays as save_index wrote it."""
    assert _encode(*_lines(SAVED[kind])) == SAVED[kind]


@pytest.mark.parametrize("kind", KINDS)
def test_undamaged_index_loads_and_scans(kind):
    """An unembedded index cannot serve the retrieval that mid needs, so its
    scan is refused (exit 4)."""
    result, code, report = _undamaged(kind)
    assert not isinstance(result, Exception)
    if kind == "unembedded":
        assert (code, report) == (4, None)
    else:
        assert (code, report["summary"]["units"], report["summary"]["errors"]) == (0, 2, 0)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_bytes_are_refused_or_load_from_the_header(kind, data):
    _check(kind, data.draw(damaged_bytes(SAVED[kind])))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_swapped_values_are_refused_unless_well_typed(kind, data):
    _check(kind, data.draw(swapped_values(SAVED[kind])))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_key_lines_of_the_wrong_content_are_refused(kind, data):
    _check(kind, data.draw(damaged_keys(SAVED[kind])))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_sources_that_do_not_inflate_are_refused(kind, data):
    _check(kind, data.draw(damaged_text(SAVED[kind])))


@pytest.mark.parametrize("kind", EMBEDDED)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_blocks_that_do_not_inflate_are_refused(kind, data):
    _check(kind, data.draw(damaged_block(SAVED[kind])))


@pytest.mark.parametrize("kind", EMBEDDED)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_another_block_length_is_refused(kind, data):
    _check(kind, data.draw(changed_length(SAVED[kind])))
