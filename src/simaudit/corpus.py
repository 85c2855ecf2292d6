"""Reference corpus: archive ingestion, vulnerability labels, persistence.

An index is a JSON Lines file. Line one is a header carrying the format
version, the embedder id, the similarity threshold the index was built for,
a creation timestamp, and ingestion stats; every following line is one entry,
with its row of the embedding matrix (null before embedding). Saving is
deterministic, so load-then-save reproduces the file byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import tarfile
import zlib
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    ArchiveCorrupt,
    FileCorrupt,
    FormatVersionMismatch,
    LabelFileMalformed,
    SourceError,
)
from .extract import FunctionUnit, UnitKind, extract_units
from .simindex import DEFAULT_DELTA

log = logging.getLogger(__name__)

FORMAT_VERSION = 1

LABEL_CSV_COLUMNS = ("package", "version", "match_kind", "match_value", "note")


class Label(str, Enum):
    CLEAN = "clean"
    VULNERABLE = "vulnerable"


@dataclass
class CorpusEntry:
    entry_id: str
    unit: FunctionUnit
    package: str
    version: str
    label: Label = Label.CLEAN
    vuln_note: str | None = None


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


@dataclass
class CorpusIndex:
    meta: IndexMeta
    stats: IndexStats = field(default_factory=IndexStats)
    entries: list[CorpusEntry] = field(default_factory=list)
    # Row i embeds entries[i], all by meta.embedder_id; None until embedded.
    vectors: np.ndarray | None = field(default=None, compare=False)
    _by_hash: dict[str, list[int]] = field(default_factory=dict, repr=False, compare=False)
    _by_id: dict[str, CorpusEntry] = field(default_factory=dict, repr=False, compare=False)

    def insert(self, unit: FunctionUnit, package: str, version: str) -> bool:
        """Insert unless an entry with the same hash and byte-equal normalized
        source already exists. First occurrence wins; returns True if kept."""
        for pos in self._by_hash.get(unit.content_hash, []):
            if self.entries[pos].unit.normalized_source == unit.normalized_source:
                return False
        entry_id = f"{package}@{version}/{unit.unit_id}"
        if entry_id in self._by_id:
            # Same id but different content: disambiguate rather than clobber.
            suffix = 2
            while f"{entry_id}~{suffix}" in self._by_id:
                suffix += 1
            log.warning("entry id collision for %s, keeping both", entry_id)
            entry_id = f"{entry_id}~{suffix}"
        self._append(CorpusEntry(entry_id=entry_id, unit=unit,
                                 package=package, version=version))
        self.stats.functions_kept = len(self.entries)
        return True

    def _append(self, entry: CorpusEntry) -> None:
        self._by_hash.setdefault(entry.unit.content_hash, []).append(len(self.entries))
        self._by_id.setdefault(entry.entry_id, entry)
        self.entries.append(entry)

    def find_clone(self, normalized_source: str, hash_hex: str) -> CorpusEntry | None:
        """Exact-content lookup: hash equality plus a byte comparison, so a
        hash collision can never silently merge two different functions."""
        for pos in self._by_hash.get(hash_hex, []):
            entry = self.entries[pos]
            if entry.unit.normalized_source == normalized_source:
                return entry
        return None

    def entry_by_id(self, entry_id: str) -> CorpusEntry | None:
        return self._by_id.get(entry_id)


def new_index(delta: float = DEFAULT_DELTA) -> CorpusIndex:
    created = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return CorpusIndex(meta=IndexMeta(created_at=created, delta=delta))


def ingest_archive(index: CorpusIndex, archive_path: str | Path,
                   package: str, version: str) -> CorpusIndex:
    """Feed every .sol member of a gzip tar archive through extraction.

    Member order is the archive's own, so ingestion is deterministic for a
    fixed archive. Files that fail extraction are skipped with a warning; an
    archive with no .sol members logs a warning but is not an error.
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
                text = data.decode("utf-8", errors="replace")
                try:
                    units = extract_units(text, member.name)
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


@dataclass
class LabelReport:
    applied: list[tuple[LabelRow, list[str]]] = field(default_factory=list)
    unmatched: list[LabelRow] = field(default_factory=list)


def apply_labels(index: CorpusIndex, labels_path: str | Path) -> LabelReport:
    """Mark entries vulnerable from a CSV of (package, version, match, note).

    Rows match entries by unit name or content hash within the given package
    and version. Labeled entries stay in the index; they become the known-bad
    references that make exact clones of them reportable without any model
    call. Rows that match nothing are collected, not fatal.
    """
    raw = Path(labels_path).read_text(encoding="utf-8")
    reader = csv.DictReader(io.StringIO(raw))
    if reader.fieldnames is None or not set(LABEL_CSV_COLUMNS) <= set(reader.fieldnames):
        raise LabelFileMalformed(
            f"label file must have columns {','.join(LABEL_CSV_COLUMNS)}")
    report = LabelReport()
    for lineno, rec in enumerate(reader, start=2):
        values = [rec.get(c) for c in LABEL_CSV_COLUMNS]
        if any(v is None for v in values):
            raise LabelFileMalformed(f"line {lineno}: short row")
        row = LabelRow(*[v.strip() for v in values])
        if row.match_kind not in ("name", "hash"):
            raise LabelFileMalformed(
                f"line {lineno}: match_kind must be name or hash, got {row.match_kind!r}")
        if not row.note:
            raise LabelFileMalformed(f"line {lineno}: vulnerable rows need a note")
        hits = []
        for entry in index.entries:
            if entry.package != row.package or entry.version != row.version:
                continue
            if row.match_kind == "name" and entry.unit.name != row.match_value:
                continue
            if row.match_kind == "hash" and entry.unit.content_hash != row.match_value:
                continue
            entry.label = Label.VULNERABLE
            entry.vuln_note = row.note
            hits.append(entry.entry_id)
        if hits:
            report.applied.append((row, hits))
        else:
            report.unmatched.append(row)
    return report


def _unit_to_dict(unit: FunctionUnit) -> dict:
    return {
        "unit_id": unit.unit_id,
        "kind": unit.kind.value,
        "name": unit.name,
        "contract": unit.contract,
        "file_path": unit.file_path,
        "raw_source": unit.raw_source,
        "normalized_source": unit.normalized_source,
        "content_hash": unit.content_hash,
        "declared_calls": list(unit.declared_calls),
        "source_span": list(unit.source_span),
    }


def _unit_from_dict(d: dict) -> FunctionUnit:
    return FunctionUnit(
        unit_id=d["unit_id"],
        kind=UnitKind(d["kind"]),
        name=d["name"],
        contract=d["contract"],
        file_path=d["file_path"],
        raw_source=d["raw_source"],
        normalized_source=d["normalized_source"],
        content_hash=d["content_hash"],
        declared_calls=tuple(d["declared_calls"]),
        source_span=(int(d["source_span"][0]), int(d["source_span"][1])),
    )


def save_index(index: CorpusIndex, path: str | Path) -> None:
    lines = [json.dumps({
        "format_version": FORMAT_VERSION,
        "embedder_id": index.meta.embedder_id,
        "delta": index.meta.delta,
        "created_at": index.meta.created_at,
        "stats": {
            "files_seen": index.stats.files_seen,
            "functions_seen": index.stats.functions_seen,
            "functions_kept": index.stats.functions_kept,
        },
    })]
    for i, entry in enumerate(index.entries):
        lines.append(json.dumps({
            "entry_id": entry.entry_id,
            "package": entry.package,
            "version": entry.version,
            "label": entry.label.value,
            "vuln_note": entry.vuln_note,
            "embedding": None if index.vectors is None else index.vectors[i].tolist(),
            "unit": _unit_to_dict(entry.unit),
        }))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_index(path: str | Path) -> CorpusIndex:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise FileCorrupt(f"index {path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FileCorrupt(f"index {path} line 1: {exc}") from exc
    if not isinstance(header, dict) or "format_version" not in header:
        raise FileCorrupt(f"index {path} has no header line")
    if header["format_version"] != FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"index {path} is format {header['format_version']}, "
            f"this build reads format {FORMAT_VERSION}")
    try:
        stats_d = header.get("stats", {})
        index = CorpusIndex(
            meta=IndexMeta(created_at=header["created_at"],
                           embedder_id=header["embedder_id"],
                           delta=float(header["delta"])),
            stats=IndexStats(files_seen=int(stats_d.get("files_seen", 0)),
                             functions_seen=int(stats_d.get("functions_seen", 0)),
                             functions_kept=int(stats_d.get("functions_kept", 0))),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FileCorrupt(f"index {path} header is malformed: {exc}") from exc
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            rows.append(rec["embedding"])
            entry = CorpusEntry(
                entry_id=rec["entry_id"],
                unit=_unit_from_dict(rec["unit"]),
                package=rec["package"],
                version=rec["version"],
                label=Label(rec["label"]),
                vuln_note=rec["vuln_note"],
            )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise FileCorrupt(f"index {path} line {lineno}: {exc}") from exc
        index._append(entry)
    if index.stats.functions_kept != len(index.entries):
        raise FileCorrupt(
            f"index {path} says functions_kept={index.stats.functions_kept} "
            f"but holds {len(index.entries)} entries")
    if any(row is not None for row in rows):
        try:
            index.vectors = np.array(rows, dtype=float)
        except (TypeError, ValueError) as exc:
            raise FileCorrupt(f"index {path} embeddings are malformed: {exc}") from exc
        if index.vectors.ndim != 2:
            raise FileCorrupt(f"index {path} embeddings are not one vector per entry")
    return index
