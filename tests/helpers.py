"""Shared test plumbing: fixture paths, archive building, synthetic units,
saved-index tampering, and a tiny local HTTP server for wire-format tests."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import random
import re
import shutil
import socket
import tarfile
import threading
import time
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

import simaudit
from simaudit import corpus
from simaudit.extract import FunctionUnit, UnitKind, content_hash, normalize

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def bad_templates(path: Path) -> Path:
    """Copy the built-in templates to path, with a critic.txt that asks for
    a slot no prompt fills."""
    shutil.copytree(Path(simaudit.__file__).parent / "templates", path)
    with open(path / "critic.txt", "a", encoding="utf-8") as f:
        f.write("\n$no_such_slot\n")
    return path


# The fields of an index entry line, in order.
ENTRY_FIELDS = ("package", "version", "label", "vuln_note", "name", "raw_source")


def index_text(lines: list[str]) -> bytes:
    """The UTF-8 text of lines, each ended by a newline: an index's text,
    inflated, whose lines are its entry lines and its key line."""
    return "".join(line + "\n" for line in lines).encode("utf-8")


def deflate_text(text: bytes) -> bytes:
    """The raw DEFLATE stream that save_index writes for an index's text."""
    packer = zlib.compressobj(6, zlib.DEFLATED, -13, 4)
    return packer.compress(text) + packer.flush()


def dimension_major(*arrays) -> bytes:
    """The vector block of an index whose matrix and norms are arrays: each
    (rows, dimension) matrix column by column, each vector as it is, in the
    arrays' own dtypes."""
    return b"".join(np.asarray(array).T.tobytes() for array in arrays)


def deflate_block(block: bytes) -> bytes:
    """The raw DEFLATE stream, Huffman codes only, that save_index writes for
    an index's vector block, inflated."""
    packer = zlib.compressobj(6, zlib.DEFLATED, -9, 4, zlib.Z_HUFFMAN_ONLY)
    return packer.compress(block) + packer.flush()


def framed(stream: bytes, length: int | None = None) -> bytes:
    """A block stream as the end of an index holds it: followed by its length
    (or length, if given) as 8 little-endian bytes."""
    return stream + (len(stream) if length is None else length).to_bytes(8, "little")


@functools.cache
def _past_the_bound(bound: int) -> bytes:
    """A stream that inflates to bound + 1 spaces: about 16 KB at the floor,
    so that the bound of a file that holds it is the floor."""
    return deflate_text(b" " * (bound + 1))


# For each way the loader must refuse an index's stream (FileCorrupt), the
# stream that replaces the deflated text, made from the text's bytes, and
# the message after "entry text ".
TEXT_DAMAGE = {
    # A first byte of 0xff starts a final block of the reserved type 3.
    "not_deflate": (lambda text: b"\xff" + deflate_text(text), "is not a raw DEFLATE stream"),
    "truncated_stream": (lambda text: deflate_text(text)[:-1], "ends inside its DEFLATE stream"),
    "bytes_after_stream": (lambda text: deflate_text(text) + b"\0",
                           "has bytes after its DEFLATE stream"),
    "not_utf8": (lambda text: deflate_text(b"\xff" + text), "is not UTF-8"),
    "past_the_bound": (lambda text: _past_the_bound(corpus.TEXT_BOUND_FLOOR), "inflates past"),
}


def damage_text(data: bytes, damage: str) -> bytes:
    """data, the bytes of a saved index, with its deflated text replaced as
    TEXT_DAMAGE[damage] replaces it; the digest is left as it is."""
    head, _, block = _streams(data)
    return head + TEXT_DAMAGE[damage][0](index_text(split_index(data)[1])) + block


# For each way the loader must refuse an embedded index's block stream
# (FileCorrupt), what replaces the stream and its length, made from the
# inflated block, and the message after "vector block ".
BLOCK_DAMAGE = {
    "not_deflate": (lambda block: framed(b"\xff" + deflate_block(block)),
                    "is not a raw DEFLATE stream"),
    "truncated_stream": (lambda block: framed(deflate_block(block)[:-1]),
                         "ends inside its DEFLATE stream"),
    "bytes_after_stream": (lambda block: framed(deflate_block(block) + b"\0"),
                           "has bytes after its DEFLATE stream"),
    "inflates_short": (lambda block: framed(deflate_block(block[:-1])), "is too short for its "),
    "inflates_long": (lambda block: framed(deflate_block(block + b"\0")), "inflates past its "),
    "length_before_the_text": (lambda block: framed(deflate_block(block), 1 << 40),
                               f"length {1 << 40} leaves no room for its entry text"),
}


def damage_block(data: bytes, damage: str) -> bytes:
    """data, the bytes of a saved embedded index, with its block stream and
    length replaced as BLOCK_DAMAGE[damage] replaces them; the digest is
    left as it is."""
    head, text, _ = _streams(data)
    return head + text + BLOCK_DAMAGE[damage][0](split_index(data)[2])


def entry_record(fields: list) -> dict:
    """The object that format 7 and earlier wrote for an entry line's fields:
    package, version, label and vuln_note, then the unit's fields under "unit".
    The unit fields that formats 10 and later no longer store get fixed
    placeholders."""
    package, version, label, vuln_note, name, raw_source = fields
    return {"package": package, "version": version, "label": label, "vuln_note": vuln_note,
            "unit": {"unit_id": f"f.sol::C::{name}#0", "kind": "function", "name": name,
                     "contract": "C", "file_path": "f.sol", "raw_source": raw_source,
                     "declared_calls": [], "source_span": [0, len(raw_source)]}}


# JSON nested past the interpreter's recursion limit: json.loads raises
# RecursionError on it, not ValueError, and json.dumps cannot write it.
DEEP_JSON = "[" * 100_000 + "]" * 100_000
# The message of that RecursionError.
TOO_DEEP = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"


class RawJSON(str):
    """JSON text that rewrite_index writes as it is, for a value that
    json.dumps cannot write, such as DEEP_JSON."""


def mistype(values: list, pos: int) -> list:
    """values with values[pos] replaced by a JSON value of another type."""
    other = 5 if values[pos] is None or isinstance(values[pos], str) else "x"
    return [*values[:pos], other, *values[pos + 1:]]


# Well-formed edits of a saved index's header, by name: each maps the
# header to the items that replace its own.
HEADER_EDITS = {
    "delta": lambda header: {"delta": 0.05},
    "functions_seen": lambda header: {"stats": {
        **header["stats"], "functions_seen": header["stats"]["functions_seen"] + 10}},
    "created_at": lambda header: {"created_at": "2001-02-03T04:05:06+00:00"},
    "embedder_id": lambda header: {"embedder_id": "other-embedder-v1"},
}


def _streams(data: bytes) -> tuple[bytes, bytes, bytes]:
    """The bytes of a saved index in three parts: its header line, its text
    stream, and what follows: the block stream and its length, if the
    header has a dimension, else nothing."""
    head_end = data.index(b"\n") + 1
    cut = len(data)
    if json.loads(data[:head_end])["dimension"] is not None:
        cut -= 8 + int.from_bytes(data[-8:], "little")
    return data[:head_end], data[head_end:cut], data[cut:]


def split_index(index: Path | bytes) -> tuple[dict, list[str], bytes | None]:
    """(header, text lines, vector block) of a saved index, given as its
    path or its bytes; the text and the block are inflated, the text's last
    line is the key line, [[entry ids], [hash keys]], and the block, which
    is dimension-major (dimension_major), is None if the index has no
    vectors."""
    data = index if isinstance(index, bytes) else index.read_bytes()
    head, text, block = _streams(data)
    lines = zlib.decompress(text, -15).decode("utf-8").splitlines()
    return json.loads(head), lines, zlib.decompress(block[:-8], -15) if block else None


def join_index(lines: list[str], block: bytes | None = None) -> bytes:
    """The bytes of an index whose header line is lines[0], whose text is
    the other lines, deflated as save_index deflates it, and whose vector
    block is block, deflated and framed as save_index writes it, unless it
    is None. join_index([json.dumps(header), *lines], block) gives back the
    bytes that split_index took apart."""
    head, *text = lines
    return ((head + "\n").encode("utf-8") + deflate_text(index_text(text))
            + (b"" if block is None else framed(deflate_block(block))))


def restamp(data: bytes) -> bytes:
    """data, the bytes of an index, with the header's digest recomputed:
    the SHA-256 of the whole file with the digest's own value written as 64
    zeros, which is the loader's digest where `digest` is the header's last
    value, as save_index writes it. data is returned as it is if its header
    holds no digest string."""
    head_end = data.find(b"\n")
    if head_end < 0:
        return data

    def stamp(digest: str) -> bytes:
        return re.sub(rb'"digest": "[^"]*"', lambda _: f'"digest": "{digest}"'.encode(),
                      data[:head_end], count=1) + data[head_end:]
    return stamp(hashlib.sha256(stamp("0" * 64)).hexdigest())


def rewrite_index(path: Path, entry=None, keys=None, **header) -> None:
    """Edit the saved index at path and restamp its digest, so that only the
    loader's checks of the edited values can refuse it. Entry line i + 2
    becomes entry(i, its list of fields), the key line keys([its entry ids,
    its hash keys]), and header's items update the header; the result of an
    edit is written as compact JSON, or as it is if it is RawJSON."""
    def encode(value) -> str:
        return value if isinstance(value, RawJSON) else json.dumps(value, separators=(",", ":"))

    head, lines, block = split_index(path)
    *lines, key_line = lines
    if entry is not None:
        lines = [encode(entry(pos, json.loads(line))) for pos, line in enumerate(lines)]
    if keys is not None:
        key_line = encode(keys(json.loads(key_line)))
    path.write_bytes(restamp(join_index([json.dumps({**head, **header}), *lines, key_line],
                                        block)))


def keyed(entry: corpus.CorpusEntry) -> corpus.CorpusEntry:
    """entry as an index file gives it back: its content hash cut to its
    hash key."""
    return dataclasses.replace(entry, content_hash=entry.content_hash[:corpus.HASH_KEY_CHARS])


def as_loaded(index: corpus.CorpusIndex) -> corpus.CorpusIndex:
    """index as load_index gives it back from the file that save_index
    wrote: a copy whose entries are keyed."""
    entries = corpus.EntryList()
    for entry in index.entries:
        entries.append(keyed(entry))
    return dataclasses.replace(index, entries=entries)


def make_archive(path: Path, files: dict[str, str]) -> Path:
    """Write a gzip tar whose members appear in dict order, metadata pinned
    so repeated builds ingest identically."""
    with tarfile.open(path, "w:gz") as tf:
        for name, text in files.items():
            data = text.encode("utf-8")
            info = tarfile.TarInfo(name=name)
            info.size = len(data)
            info.mtime = 0
            tf.addfile(info, io.BytesIO(data))
    return path


def mk_unit(unit_id: str, *, name: str | None = None, contract: str = "C",
            file_path: str = "f.sol", calls: tuple[str, ...] = (),
            body: str | None = None, kind: UnitKind = UnitKind.FUNCTION) -> FunctionUnit:
    """A structurally valid unit without going through the extractor.

    The raw source is synthesized from the body (or the unit id, so distinct
    ids get distinct content by default) and normalized/hashed for real.
    """
    if name is None:
        name = unit_id.rsplit("::", 1)[-1].split("#", 1)[0]
    raw = body if body is not None else f"function {name}() public {{ /* {unit_id} */ }}"
    norm = normalize(raw)
    return FunctionUnit(
        unit_id=unit_id,
        kind=kind,
        name=name,
        contract=contract,
        file_path=file_path,
        raw_source=raw,
        normalized_source=norm,
        content_hash=content_hash(norm),
        declared_calls=tuple(calls),
        source_span=(0, len(raw)),
    )



def function_texts(n: int, seed: int = 0) -> list[str]:
    """n normalized Solidity functions of about 700 characters each, built by
    a seeded generator from a few names and statement shapes, so a batch
    shares most of its trigrams as a real corpus does."""
    rng = random.Random(seed)
    words = ["amount", "shares", "fee", "limit", "rate", "price", "supply", "debt", "owner"]
    texts = []
    for i in range(n):
        a, b, c = rng.sample(words, 3)
        stmts = []
        while sum(map(len, stmts)) < 560:
            v, k = rng.choice((a, b, c)), rng.randrange(2, 10_000)
            stmts.append(rng.choice([
                f"{v} = {v} * {k} / {rng.randrange(2, 100)};",
                f"balances[who] = balances[who] + {v};",
                f'require({v} > {k}, "too {rng.choice(words)}");',
                f"if ({v} >= {k}) {{ total += {v} - {k}; }}",
                f"emit Moved(who, {v} + {k});"]))
        texts.append(f"function f{i}(uint256 {a}, uint256 {b}, address who) public "
                     f"returns (uint256) {{ uint256 {c} = {a} + {b}; {' '.join(stmts)} "
                     f"return {c}; }}")
    return texts

class CannedHTTPServer:
    """One-endpoint HTTP server that records each request's method, path,
    body (decoded and raw) and headers, and replies with a fixed status, any
    extra response headers, and a JSON payload (or a callable on the body).
    A payload of bytes is sent as it is. A GET is answered as a POST with an
    empty body.
    """

    def __init__(self, payload, status: int = 200, headers: dict[str, str] | None = None):
        self.payload = payload
        self.status = status
        self.headers = dict(headers or {})
        self.requests: list[dict] = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                body = json.loads(raw or b"{}")
                outer.requests.append({
                    "method": self.command,
                    "path": self.path,
                    "body": body,
                    "raw": raw,
                    "headers": self.headers,  # names match in any case
                })
                reply = outer.payload(body) if callable(outer.payload) else outer.payload
                data = reply if isinstance(reply, bytes) else json.dumps(reply).encode("utf-8")
                try:
                    self.send_response(outer.status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(data)))
                    for name, value in outer.headers.items():
                        self.send_header(name, value)
                    self.end_headers()
                    self.wfile.write(data)
                except ConnectionError:
                    pass  # the client stopped waiting, as a timeout test means it to

            do_GET = do_POST

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self._server.server_port}/"
        # A short poll keeps shutdown() in __exit__ from waiting out the
        # default half-second poll of serve_forever.
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.01}, daemon=True)

    def __enter__(self) -> "CannedHTTPServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()


TRANSPORT_FAILURES = ("refused", "not_json", "slow")


@contextlib.contextmanager
def failing_endpoint(kind: str):
    """Yield the URL of an endpoint whose POST fails in the named way:
    "refused" (nothing listens on the port), "not_json" (a 200 whose body is
    not JSON) or "slow" (the reply comes after 0.5 s)."""
    if kind == "refused":
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        yield f"http://127.0.0.1:{port}/"
        return
    payload = {"not_json": b"<html>busy</html>",
               "slow": lambda body: time.sleep(0.5) or {}}[kind]
    with CannedHTTPServer(payload) as server:
        yield server.url
