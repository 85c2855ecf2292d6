"""Reference corpus: archive ingestion, vulnerability labels, persistence.

An index (format 14) is a JSON header line and a raw DEFLATE stream, and,
if it is embedded, a second raw DEFLATE stream and that stream's length.
Line one is a JSON header carrying the format version, the embedder id, the
similarity threshold the index was built for, a creation timestamp,
ingestion stats, the embedding `dimension` and vector block `dtype` (both
null before embedding) and, last, `digest`: the SHA-256 hex of the whole
file, header and both streams and length included, with the digest's own
64 digits taken as zeros. After the header's newline comes one raw DEFLATE
stream (no zlib header or trailer) of the index's text, its UTF-8 lines: n
entry lines, each a compact JSON array of its 6 fields in the order of
_ENTRY_FIELDS (package, version, label, vuln_note, name and raw_source),
and then the key line, two compact JSON arrays in one, [[entry_id, ...],
[hash_key, ...]], in entry order. The entry id keeps the unit's
provenance, its file, contract and ordinal. The hash key is the first
HASH_KEY_CHARS (16) hex digits of the content hash: it only finds the
candidates of a clone lookup, which compares their normalized sources byte
for byte, so the full hash need not be stored, and an entry read back from
the file carries its hash key as its content_hash. The normalized source
is not stored either; it is derived from the raw source where it is read
(CorpusIndex.normalized_source): for each find_clone candidate, and for
every entry when a loaded index is embedded. In an embedded index the
text's stream is followed by the vector block's, deflated with Huffman
codes alone, and then by that stream's byte length as 8 little-endian
bytes, which end the file. Inflated, the block is little-endian and
dimension-major, column j holding value j of every row in entry order. It
is the matrix as CorpusIndex keeps it: the fallback embedder's integer sums
as `dimension` x `stats.functions_kept` values of the narrowest signed type
that holds them, which `dtype` names (int8 to int64), then one float64 norm
per row; or float64 rows, `dtype` float64.

The loader first checks the header: its format version, then each field of
_HEADER_FIELDS and _STATS_FIELDS present and of its type, by the one loop
that checks an entry line against _ENTRY_FIELDS. It finds where the block
stream starts from the length at the end of the file, and inflates each
stream once, on the calling thread: the text, which it decodes and splits
into lines, and then the block, from whose bytes it keeps a row-major copy
of the (dimension, rows) columns and a copy of the norms. A length that
leaves no room for the text, a block larger than _text_bound of the file's
length, a stream that is not raw DEFLATE, ends inside itself or has bytes
after it, text that inflates past that bound or is not UTF-8, a block that
does not inflate to exactly its size, a missing line, a norm that is not
positive and finite, or a row that is not finite (for sums: whose largest
magnitude over its norm is not) makes the file corrupt. The block's
arrays keep their stored types, so no float64 matrix is built from sums.
It then checks the hash of the file and parses only the key line, which
must be two arrays of strings, as long as each other and as there are
entry lines, with no entry id twice and every hash key 16 lowercase hex
digits; the maps of ids and of hash keys are built from the arrays
whole. An entry line is parsed the first time a scan touches its entry (a
find_clone candidate, entry_by_id or reading entries), and one that is
not a list of the 6 fields, each of its type, is corrupt. If the hash
does not match the digest, every entry line is parsed at load instead, so
a damaged line is reported by its number; if they all parse, the
mismatch itself is reported. Either way the load fails with FileCorrupt, as does raw source
that no longer normalizes, once it is read. Saving is deterministic, so
load-then-save reproduces the file byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import os
import sys
import tarfile
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import (
    ArchiveCorrupt,
    FileCorrupt,
    FormatVersionMismatch,
    IndexTooLarge,
    LabelFileMalformed,
    NotUtf8Text,
    SourceError,
    decode_json,
)
from .extract import FunctionUnit, extract_units, normalize
from .simindex import DEFAULT_DELTA, narrowest_int

log = logging.getLogger(__name__)

FORMAT_VERSION = 14
# A hash key, which finds an entry by its content, is the first this many
# hex digits of the entry's content hash.
HASH_KEY_CHARS = 16
_HEX_DIGITS = "0123456789abcdef"
# An index's text may inflate to this many UTF-8 bytes per byte of its file,
# or to TEXT_BOUND_FLOOR if that is more (_text_bound): so a crafted file
# holds no more than this multiple of its own size once loaded.
TEXT_BYTES_PER_FILE_BYTE = 16
TEXT_BOUND_FLOOR = 1 << 24
# The element types a vector block may name in the header's dtype.
VECTOR_DTYPES = ("int8", "int16", "int32", "int64", "float64")
# Encodes entry and key lines: JSON with no space after "," or ":".
_compact_json = json.JSONEncoder(separators=(",", ":")).encode
# The bytes of a vector block that save_index transposes and deflates at a
# time.
_SLICE = 1 << 14

LABEL_CSV_COLUMNS = ("package", "version", "match_kind", "match_value", "note")


class Label(str, Enum):
    CLEAN = "clean"
    VULNERABLE = "vulnerable"


@dataclass
class CorpusEntry:
    """One function of the reference corpus, as much of it as a scan reads.

    entry_id is `<package>@<version>/<file>::<contract>::<name>#<ordinal>`,
    the unit's provenance. normalized_source is normalize(raw_source). An
    index file does not store it, so it is None on an entry read back from
    one; it takes no part in == or repr, and CorpusIndex.normalized_source
    derives it where it is read.
    """

    entry_id: str
    package: str
    version: str
    name: str
    raw_source: str
    content_hash: str
    label: Label = Label.CLEAN
    vuln_note: str | None = None
    normalized_source: str | None = field(default=None, compare=False, repr=False)


@dataclass
class IndexMeta:
    created_at: str
    embedder_id: str | None = None
    delta: float = DEFAULT_DELTA


@dataclass
class IndexStats:
    files_seen: int = 0
    functions_seen: int = 0
    functions_kept: int = 0


class EntryList:
    """A list of CorpusEntry, as far as len, iteration, indexing, slicing
    (to a list), append and == go, whose slots may start unbuilt: an unbuilt
    slot is built by build(position) the first time it is read, and kept."""

    def __init__(self, size: int = 0,
                 build: Callable[[int], CorpusEntry] | None = None) -> None:
        self._slots: list[CorpusEntry | None] = [None] * size
        self._build = build

    def __len__(self) -> int:
        return len(self._slots)

    def __getitem__(self, pos):
        if isinstance(pos, slice):
            return [self[i] for i in range(len(self._slots))[pos]]
        entry = self._slots[pos]
        if entry is None:
            entry = self._slots[pos] = self._build(pos % len(self._slots))
        return entry

    def __iter__(self):
        return map(self.__getitem__, range(len(self._slots)))

    def append(self, entry: CorpusEntry) -> None:
        self._slots.append(entry)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, EntryList)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class CorpusIndex:
    meta: IndexMeta
    stats: IndexStats = field(default_factory=IndexStats)
    entries: EntryList = field(default_factory=EntryList)
    # Row i embeds entries[i], all by meta.embedder_id; None until embedded.
    # Either integer sums over one float64 norm per row (norms), as the
    # fallback embedder makes them, or float64 rows, with norms None. This
    # is the form save_index stores; rows() reads it as float64.
    vectors: np.ndarray | None = field(default=None, compare=False)
    norms: np.ndarray | None = field(default=None, repr=False, compare=False)
    # entries[i].entry_id, readable without building entries[i].
    entry_ids: list[str] = field(default_factory=list, repr=False, compare=False)
    # The positions of the entries whose content hash starts with each
    # hash key, and the position of each entry id.
    _by_hash: dict[str, tuple[int, ...]] = field(default_factory=dict, repr=False, compare=False)
    _by_id: dict[str, int] = field(default_factory=dict, repr=False, compare=False)
    # The file load_index read this index from; None for a built index.
    _path: str | Path | None = field(default=None, repr=False, compare=False)

    def insert(self, unit: FunctionUnit, package: str, version: str) -> bool:
        """Insert unless an entry with the same hash and byte-equal normalized
        source already exists. First occurrence wins; returns True if kept."""
        if self.find_clone(unit.normalized_source, unit.content_hash) is not None:
            return False
        entry_id = f"{package}@{version}/{unit.unit_id}"
        if entry_id in self._by_id:
            # Same id but different content: disambiguate rather than clobber.
            suffix = 2
            while f"{entry_id}~{suffix}" in self._by_id:
                suffix += 1
            log.warning("entry id collision for %s, keeping both", entry_id)
            entry_id = f"{entry_id}~{suffix}"
        self._add_key(entry_id, unit.content_hash)
        self.entries.append(CorpusEntry(
            entry_id=entry_id, package=package, version=version, name=unit.name,
            raw_source=unit.raw_source, content_hash=unit.content_hash,
            normalized_source=unit.normalized_source))
        self.stats.functions_kept = len(self.entries)
        return True

    def _add_key(self, entry_id: str, content_hash: str) -> None:
        """Make the next entry position findable by id and by hash key."""
        pos = len(self.entry_ids)
        key = content_hash[:HASH_KEY_CHARS]
        self._by_hash[key] = self._by_hash.get(key, ()) + (pos,)
        self._by_id.setdefault(entry_id, pos)
        self.entry_ids.append(entry_id)

    def find_clone(self, normalized_source: str, hash_hex: str) -> CorpusEntry | None:
        """Exact-content lookup: the hash key of hash_hex finds the
        candidates, and only a byte-equal normalized source is a clone, so
        two functions whose hashes share a key are never merged."""
        for pos in self._by_hash.get(hash_hex[:HASH_KEY_CHARS], ()):
            if self.normalized_source(pos) == normalized_source:
                return self.entries[pos]
        return None

    def normalized_source(self, pos: int) -> str:
        """The normalized source of entries[pos]. An entry read from an index
        file carries none, so it is derived from its raw source on each call;
        raw source that does not normalize makes the file corrupt."""
        entry = self.entries[pos]
        if entry.normalized_source is not None:
            return entry.normalized_source
        try:
            return normalize(entry.raw_source)
        except SourceError as exc:
            raise FileCorrupt(f"index {self._path} line {pos + 2}: {exc}") from exc

    def entry_by_id(self, entry_id: str) -> CorpusEntry | None:
        pos = self._by_id.get(entry_id)
        return None if pos is None else self.entries[pos]

    def rows(self, sel=slice(None)) -> np.ndarray:
        """The float64 rows vectors[sel], integer sums each divided by their
        row's norm: an exact elementwise division."""
        if self.norms is None:
            return self.vectors[sel]
        return self.vectors[sel] / self.norms[sel, None]


def new_index(delta: float = DEFAULT_DELTA) -> CorpusIndex:
    created = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return CorpusIndex(meta=IndexMeta(created_at=created, delta=delta))


def ingest_archive(index: CorpusIndex, archive_path: str | Path,
                   package: str, version: str) -> CorpusIndex:
    """Feed every .sol member of a gzip tar archive through extraction.

    Member order is the archive's own, so ingestion is deterministic for a
    fixed archive. Files that are not UTF-8 or fail extraction are counted
    in files_seen and skipped with a warning; an archive with no .sol
    members logs a warning but is not an error.
    """
    try:
        tf = tarfile.open(archive_path, mode="r:gz")
    except (tarfile.TarError, OSError, EOFError) as exc:
        raise ArchiveCorrupt(f"cannot open {archive_path}: {exc}") from exc
    saw_sol = False
    try:
        with tf:
            for member in tf:
                if not member.isfile() or not member.name.endswith(".sol"):
                    continue
                saw_sol = True
                index.stats.files_seen += 1
                fh = tf.extractfile(member)
                data = fh.read() if fh is not None else b""
                try:
                    units = extract_units(data.decode("utf-8"), member.name)
                except UnicodeDecodeError as exc:
                    log.warning("skipping %s from %s: not UTF-8 text: %s at byte %d",
                                member.name, archive_path, exc.reason, exc.start)
                    continue
                except SourceError as exc:
                    log.warning("skipping %s from %s: %s",
                                member.name, archive_path, exc)
                    continue
                for unit in units:
                    index.stats.functions_seen += 1
                    index.insert(unit, package, version)
    except (tarfile.TarError, EOFError, zlib.error) as exc:
        # Truncated or garbled mid-stream; member iteration itself can throw.
        raise ArchiveCorrupt(f"cannot read {archive_path}: {exc}") from exc
    if not saw_sol:
        log.warning("archive %s contains no .sol members", archive_path)
    return index


@dataclass(frozen=True)
class LabelRow:
    package: str
    version: str
    match_kind: str  # "name" | "hash"
    match_value: str
    note: str
    line: int = field(default=0, compare=False)  # where the label file holds it


@dataclass
class LabelReport:
    applied: list[tuple[LabelRow, list[str]]] = field(default_factory=list)
    unmatched: list[LabelRow] = field(default_factory=list)


def read_label_csv(path: str | Path, what: str,
                   columns: tuple[str, ...]) -> list[tuple[int, dict]]:
    """(line, record) for every record of the label CSV at path, line being
    the one the record ends on, as a quoted field may span lines. A header
    that lacks one of columns (the message names the file as what) or a
    record the csv module cannot read is LabelFileMalformed."""
    reader = csv.DictReader(io.StringIO(read_text(path, "labels")))
    try:
        if reader.fieldnames is None or not set(columns) <= set(reader.fieldnames):
            raise LabelFileMalformed(f"{what} must have columns {','.join(columns)}")
        return [(reader.line_num, rec) for rec in reader]
    except csv.Error as exc:   # the DictReader's own count lags a failed record
        raise LabelFileMalformed(f"line {reader.reader.line_num}: {exc}") from exc


def apply_labels(index: CorpusIndex, labels_path: str | Path) -> LabelReport:
    """Mark entries vulnerable from a CSV of (package, version, match, note).

    Rows match entries by unit name or content hash within the given package
    and version. Labeled entries stay in the index; they become the known-bad
    references that make exact clones of them reportable without any model
    call. Rows that match nothing are collected, not fatal.
    """
    records = read_label_csv(labels_path, "label file", LABEL_CSV_COLUMNS)
    releases: dict[tuple[str, str], list[CorpusEntry]] = {}
    for entry in index.entries:
        releases.setdefault((entry.package, entry.version), []).append(entry)
    report = LabelReport()
    for lineno, rec in records:
        values = [rec.get(c) for c in LABEL_CSV_COLUMNS]
        if any(v is None for v in values):
            raise LabelFileMalformed(f"line {lineno}: short row")
        row = LabelRow(*[v.strip() for v in values], line=lineno)
        if row.match_kind not in ("name", "hash"):
            raise LabelFileMalformed(
                f"line {lineno}: match_kind must be name or hash, got {row.match_kind!r}")
        if not row.note:
            raise LabelFileMalformed(f"line {lineno}: vulnerable rows need a note")
        hits = []
        for entry in releases.get((row.package, row.version), ()):
            if row.match_kind == "name" and entry.name != row.match_value:
                continue
            if row.match_kind == "hash" and entry.content_hash != row.match_value:
                continue
            entry.label = Label.VULNERABLE
            entry.vuln_note = row.note
            hits.append(entry.entry_id)
        if hits:
            report.applied.append((row, hits))
        else:
            report.unmatched.append(row)
    return report


def _is_str(value) -> bool:
    return type(value) is str


_STRING = (_is_str, "a string")
_STRING_OR_NULL = (lambda v: v is None or type(v) is str, "a string or null")
_LABELS = frozenset(label.value for label in Label)
# The fields of a header, of its stats and of an entry line, in the order
# save_index writes them, each with the test its value must pass and, for
# the message when it does not, what that test asks for.
# A count is an int, not a float or a bool, and not negative.
_STATS_FIELDS = dict.fromkeys(vars(IndexStats()), (lambda v: type(v) is int and v >= 0, "a count"))
_HEADER_FIELDS = {
    "format_version": (lambda v: type(v) is int, "an integer"),  # 4.0 is not 4
    "embedder_id": _STRING_OR_NULL,
    # Finite, and an int only within float range; NaN fails the comparison.
    "delta": (lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
              "a finite number"),
    "created_at": _STRING,
    "stats": (lambda v: type(v) is dict and v.keys() <= _STATS_FIELDS.keys(),
              f"an object of {', '.join(_STATS_FIELDS)}"),
    "dimension": (lambda v: v is None or type(v) is int and v >= 1, "a positive integer or null"),
    "dtype": (lambda v: v in (None, *VECTOR_DTYPES), f"one of {', '.join(VECTOR_DTYPES)} or null"),
    "digest": (lambda v: type(v) is str and len(v) == 64 and not v.strip("0123456789abcdef"),
               "64 lowercase hex digits"),
}
_ENTRY_FIELDS = {
    "package": _STRING,
    "version": _STRING,
    "label": (lambda v: type(v) is str and v in _LABELS, "a label"),
    "vuln_note": _STRING_OR_NULL,
    "name": _STRING,
    "raw_source": _STRING,
}


def _check_fields(where: str, record: dict, fields: dict) -> None:
    """FileCorrupt, its message starting with where, unless record holds
    every key of fields with a value that passes that key's test."""
    for key, (holds, what) in fields.items():
        if key not in record:
            raise FileCorrupt(f"{where}: no {key!r}")
        if not holds(record[key]):
            raise FileCorrupt(f"{where}: {key} {record[key]!r:.60} is not {what}")


def _text_bound(file_size: int) -> int:
    """The most UTF-8 bytes that the text of an index file of file_size
    bytes may inflate to."""
    return max(TEXT_BOUND_FLOOR, TEXT_BYTES_PER_FILE_BYTE * file_size)


def _entry_from_line(path, lineno: int, line: str, entry_id: str,
                     content_hash: str) -> CorpusEntry:
    """The entry on line lineno of index path, with the id and the hash key,
    as its content hash, that the key line gives it; FileCorrupt naming the
    line if the line is not a JSON list of _ENTRY_FIELDS, each of its type."""
    where = f"index {path} line {lineno}"
    fields = decode_json(line, lambda exc: FileCorrupt(f"{where}: {exc}"))
    if type(fields) is not list or len(fields) != len(_ENTRY_FIELDS):
        raise FileCorrupt(f"{where}: not a list of the {len(_ENTRY_FIELDS)} entry fields")
    record = dict(zip(_ENTRY_FIELDS, fields))
    _check_fields(where, record, _ENTRY_FIELDS)
    record["label"] = Label(record["label"])
    return CorpusEntry(entry_id=entry_id, content_hash=content_hash, **record)


def read_text(path: str | Path, what: str) -> str:
    """The text of a UTF-8 file, newlines translated as Path.read_text does.
    Bytes that are not UTF-8 are malformed input (NotUtf8Text, exit 3) whose
    message names the file as what and path; OSError passes through."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise NotUtf8Text(f"{what} {path} is not UTF-8 text: {exc.reason} "
                          f"at byte {exc.start}") from exc


def write_atomic(path: str | Path, data: str | bytes | Callable[[BinaryIO], None]) -> None:
    """Write data (a str as UTF-8, bytes, or a function that writes to the
    open binary file) to path through a synced temp file in the same
    directory and os.replace, so the path holds the old bytes or the new,
    never a mix."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            if callable(data):
                data(f)
            else:
                f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _vector_block(index: CorpusIndex) -> tuple[str | None, list[np.ndarray]]:
    """The header's dtype and the arrays of index's vector block, in file
    order and little-endian: integer sums, narrowed, and then their norms;
    or, unless vectors holds integers with norms, the float64 rows()."""
    if index.vectors is None:
        return None, []
    if index.norms is None or not np.issubdtype(index.vectors.dtype, np.integer):
        return "float64", [index.rows().astype("<f8", copy=False)]
    sums = narrowest_int(index.vectors)
    return sums.dtype.name, [sums.astype(sums.dtype.newbyteorder("<"), copy=False),
                             index.norms.astype("<f8", copy=False)]


def _dimension_major(array: np.ndarray):
    """The values of array, a (rows, dimension) matrix or a vector, which is
    one column, in dimension-major order: C-contiguous slices of at most
    _SLICE bytes, each a transposed copy of a few columns or of part of
    one, so the whole matrix is never transposed at once."""
    columns = array.T if array.ndim == 2 else array[None]
    rows = columns.shape[1]
    per = _SLICE // array.itemsize  # values in a slice
    step = max(1, per // max(1, rows))  # columns in a slice
    for at in range(0, len(columns), step):
        for start in range(0, rows, per):
            yield np.ascontiguousarray(columns[at:at + step, start:start + per])


def save_index(index: CorpusIndex, path: str | Path) -> None:
    """Write index to path in format FORMAT_VERSION. The text is encoded and
    deflated piece by piece, an entry line, an entry id or a hash key at a
    time, and the vector block deflated a transposed slice at a time
    (_dimension_major), each part hashed and written as it comes, so
    neither the file nor its text, its key line or a transposed matrix is
    ever held in memory. The header goes first with a placeholder digest of
    64 zeros, and is written again once it, the streams and the block
    stream's length are hashed. IndexTooLarge, and no file written, if the
    text is longer than the _text_bound of the file: the loader would
    refuse it."""
    vectors = index.vectors
    dtype, block = _vector_block(index)

    def header(digest: str) -> bytes:
        return json.dumps({
            "format_version": FORMAT_VERSION,
            "embedder_id": index.meta.embedder_id,
            "delta": index.meta.delta,
            "created_at": index.meta.created_at,
            "stats": vars(index.stats),
            "dimension": None if vectors is None else vectors.shape[1],
            "dtype": dtype,
            "digest": digest,
        }).encode("utf-8") + b"\n"

    def text():
        """The index's entry lines, then its key line an id or a hash key at
        a time, in the bytes of _compact_json([entry ids, hash keys])."""
        for entry in index.entries:
            # The hash key goes to the key line, and the normalized source
            # is not stored; a Label encodes as its value.
            yield _compact_json([getattr(entry, key) for key in _ENTRY_FIELDS]) + "\n"
        yield "[["
        for pos, entry in enumerate(index.entries):
            yield "," * (pos > 0) + _compact_json(entry.entry_id)
        yield "],["
        for pos, entry in enumerate(index.entries):
            yield "," * (pos > 0) + _compact_json(entry.content_hash[:HASH_KEY_CHARS])
        yield "]]\n"

    def write(f: BinaryIO) -> None:
        placeholder = header("0" * 64)
        digest = hashlib.sha256(placeholder)
        f.write(placeholder)

        def put(part: bytes) -> int:
            digest.update(part)
            return f.write(part)

        # Level 6 in an 8 KiB window with a small hash table: about 40 KB of
        # zlib state, where the defaults take 268 KB.
        packer = zlib.compressobj(6, zlib.DEFLATED, -13, 4)
        size = 0
        for piece in text():
            piece = piece.encode("utf-8")
            size += len(piece)
            put(packer.compress(piece))
        put(packer.flush())
        if block:
            # Huffman codes alone: the sums repeat values, not strings.
            packer = zlib.compressobj(6, zlib.DEFLATED, -9, 4, zlib.Z_HUFFMAN_ONLY)
            length = 0
            for array in block:
                for part in _dimension_major(array):
                    length += put(packer.compress(part))
            length += put(packer.flush())
            put(length.to_bytes(8, "little"))
        bound = _text_bound(f.tell())
        if size > bound:
            raise IndexTooLarge(f"the index's {size} bytes of text are more than the {bound} "
                                f"that its {f.tell()}-byte file may hold")
        f.seek(0)
        f.write(header(digest.hexdigest()))

    write_atomic(path, write)


def _inflate(path, what: str, stream, limit: int) -> bytes:
    """The bytes that stream, the raw DEFLATE stream of the index at path
    that holds what, inflates to, but at most limit + 1 of them: a stream
    that inflates past limit is told by its length and inflated no further.
    FileCorrupt if the stream is not raw DEFLATE or, unless it inflates
    past limit, ends inside itself or has bytes after it."""
    unpacker = zlib.decompressobj(-15)
    try:
        out = unpacker.decompress(stream, limit + 1)
    except zlib.error as exc:
        raise FileCorrupt(f"index {path} {what} is not a raw DEFLATE stream: {exc}") from exc
    if len(out) <= limit:
        if not unpacker.eof:
            raise FileCorrupt(f"index {path} {what} ends inside its DEFLATE stream")
        if unpacker.unused_data:
            raise FileCorrupt(f"index {path} {what} has bytes after its DEFLATE stream")
    return out


def load_index(path: str | Path) -> CorpusIndex:
    with open(path, "rb") as f:
        data = f.read()
    head_end = data.find(b"\n")
    if head_end < 0:
        raise FileCorrupt(f"index {path} has no complete header line")
    try:
        head = data[:head_end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileCorrupt(f"index {path} line 1: {exc}") from exc
    header = decode_json(head, lambda exc: FileCorrupt(f"index {path} line 1: {exc}"))
    if type(header) is not dict:
        raise FileCorrupt(f"index {path} has no header line")
    version = header.get("format_version")
    if type(version) is int and version != FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"index {path} is format {version}, "
            f"this build reads format {FORMAT_VERSION}; rebuild it with `simaudit index`")
    malformed = f"index {path} header is malformed"
    _check_fields(malformed, header, _HEADER_FIELDS)
    _check_fields(f"{malformed}: stats", header["stats"], _STATS_FIELDS)
    dimension, dtype = header["dimension"], header["dtype"]
    if (dimension is None) != (dtype is None):  # a vector block needs both
        raise FileCorrupt(f"{malformed}: dtype {dtype!r} is not " + (
            f"one of {', '.join(VECTOR_DTYPES)}" if dtype is None else "null, as dimension is"))
    index = CorpusIndex(meta=IndexMeta(header["created_at"], header["embedder_id"],
                                       float(header["delta"])),
                        stats=IndexStats(**header["stats"]), _path=path)
    rows = index.stats.functions_kept
    bound = _text_bound(len(data))
    view = memoryview(data)
    text_end = len(data)
    if dimension is not None:
        block_dtype = np.dtype(dtype).newbyteorder("<")
        norms_size = 8 * rows if block_dtype.kind == "i" else 0
        size = block_dtype.itemsize * dimension * rows + norms_size
        length = int.from_bytes(data[-8:], "little")
        text_end = len(data) - 8 - length
        if text_end <= head_end:
            raise FileCorrupt(f"index {path} vector block length {length} leaves no room "
                              f"for its entry text")
        if size > bound:
            raise FileCorrupt(f"index {path} vector block of {size} bytes is more than the "
                              f"{bound} that its {len(data)}-byte file may hold")
    text = _inflate(path, "entry text", view[head_end + 1:text_end], bound)
    if len(text) > bound:
        raise FileCorrupt(f"index {path} entry text inflates past the {bound} bytes "
                          f"that its {len(data)}-byte file may hold")
    # The digest, the header's last value, is of the file with its own 64
    # digits, which end 2 bytes before the header line does, as zeros.
    digest = hashlib.sha256(data[:head_end - 66] + b"0" * 64)
    digest.update(view[head_end - 2:])
    try:
        text = text.decode("utf-8")  # frees the inflated bytes
    except UnicodeDecodeError as exc:
        raise FileCorrupt(f"index {path} entry text is not UTF-8: {exc}") from exc
    *lines, tail = text.split("\n")
    del text  # only the lines are kept
    if tail:
        raise FileCorrupt(f"index {path} entry text does not end with a line break")
    if len(lines) != rows + 1:
        raise FileCorrupt(
            f"index {path} says functions_kept={rows} but holds {len(lines)} lines "
            f"after its header, not that many entry lines and a key line")
    vectors = norms = None
    if dimension is not None:
        block = _inflate(path, "vector block", view[text_end:-8], size)
        if len(block) > size:
            raise FileCorrupt(f"index {path} vector block inflates past its {size} bytes")
        if len(block) < size:
            raise FileCorrupt(f"index {path} vector block is too short for its {rows} rows of "
                              f"{dimension} {dtype}" + (" and their norms" if norms_size else ""))
        columns = np.frombuffer(block, block_dtype, dimension * rows).reshape(dimension, rows)
        # Row-major, row i for entry i, and in native byte order: one copy,
        # which a query's row-major tiles read faster than a view.
        vectors = columns.T.astype(dtype, order="C")
        if norms_size:
            # A copy of its own, which keeps no view of the block alive.
            norms = np.frombuffer(block, "<f8", rows, columns.nbytes).astype(float)
            if not ((norms > 0.0) & (norms < np.inf)).all():
                raise FileCorrupt(
                    f"index {path} holds a vector norm that is not positive and finite")
            # A row's quotients are finite iff its largest |sum| over its norm
            # is: division is monotone. No np.abs: it maps int8 -128 to -128.
            largest = np.maximum(vectors.max(axis=1), -vectors.min(axis=1).astype(float))
            with np.errstate(over="ignore"):  # a tiny norm, reported below
                finite = np.isfinite(largest / norms).all()
        else:
            finite = np.isfinite(vectors).all()
        if not finite:
            raise FileCorrupt(f"index {path} vectors hold non-finite values")
    if digest.hexdigest() != header["digest"]:
        # Damage: report the first line that holds no entry, if there is one.
        for lineno, line in enumerate(lines[:-1], start=2):
            _entry_from_line(path, lineno, line, "", "")
        raise FileCorrupt(f"index {path} does not match the header's digest")
    key_line = f"index {path} line {len(lines) + 1}:"
    keys = decode_json(lines.pop(), lambda exc: FileCorrupt(f"{key_line} {exc}"))
    if (type(keys) is not list or len(keys) != 2
            or not all(type(array) is list and all(map(_is_str, array)) for array in keys)):
        raise FileCorrupt(f"{key_line} not two arrays of strings, entry ids and hash keys")
    ids, hash_keys = keys
    if len(ids) != len(hash_keys):
        raise FileCorrupt(f"{key_line} {len(ids)} entry ids for {len(hash_keys)} hash keys")
    if len(ids) != len(lines):
        raise FileCorrupt(f"{key_line} {len(ids)} keys for {len(lines)} entry lines")
    # Whole arrays at once: a key of another length, or a character that is
    # not a lowercase hex digit, is then looked for one key at a time.
    if {*map(len, hash_keys)} - {HASH_KEY_CHARS} or "".join(hash_keys).strip(_HEX_DIGITS):
        bad = next(key for key in hash_keys
                   if len(key) != HASH_KEY_CHARS or key.strip(_HEX_DIGITS))
        raise FileCorrupt(f"{key_line} hash key {bad!r:.60} is not "
                          f"{HASH_KEY_CHARS} lowercase hex digits")
    index._by_id = dict(zip(ids, range(len(ids))))
    if len(index._by_id) < len(ids):
        # dict keeps the last position of an id: the first one it does not
        # keep is there twice.
        twice = next(entry_id for pos, entry_id in enumerate(ids)
                     if index._by_id[entry_id] != pos)
        raise FileCorrupt(f"{key_line} entry id {twice!r:.60} is there twice")
    index.entry_ids = ids
    index._by_hash = dict(zip(hash_keys, zip(range(len(ids)))))
    if len(index._by_hash) < len(ids):  # a key that two entries share
        index._by_hash = {}
        for pos, key in enumerate(hash_keys):
            index._by_hash[key] = index._by_hash.get(key, ()) + (pos,)

    def build(pos: int) -> CorpusEntry:
        return _entry_from_line(path, pos + 2, lines[pos], ids[pos], hash_keys[pos])

    index.entries = EntryList(len(lines), build)
    index.vectors, index.norms = vectors, norms
    return index
