"""Archive ingestion, dedup, labels, and index persistence."""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import io
import json
import logging
import re
import tarfile
import threading
import tracemalloc
import zlib
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from helpers import (
    BLOCK_DAMAGE,
    DEEP_JSON,
    ENTRY_FIELDS,
    FIXTURES,
    HEADER_EDITS,
    TEXT_DAMAGE,
    TOO_DEEP,
    CannedHTTPServer,
    RawJSON,
    as_loaded,
    damage_block,
    damage_text,
    deflate_block,
    deflate_text,
    dimension_major,
    entry_record,
    framed,
    function_texts,
    index_text,
    join_index,
    keyed,
    make_archive,
    mistype,
    mk_unit,
    restamp,
    rewrite_index,
    split_index,
)
from simaudit import corpus
from simaudit.corpus import (
    FORMAT_VERSION,
    HASH_KEY_CHARS,
    CorpusIndex,
    Label,
    LabelRow,
    apply_labels,
    ingest_archive,
    load_index,
    new_index,
    save_index,
)
from simaudit.errors import (
    ArchiveCorrupt,
    FileCorrupt,
    FormatVersionMismatch,
    IndexTooLarge,
    LabelFileMalformed,
)
from simaudit.extract import extract_units
from simaudit.simindex import FallbackEmbedder, RemoteEmbedder, embed_index, query_top_k
from test_extract import generated_contracts
from test_simindex import _bit_exact_cases


def _fn(name, body="return 1;"):
    return f"function {name}() public pure returns (uint) {{ {body} }}\n"


class TestInsert:
    def test_entry_id_format(self):
        index = new_index()
        assert index.insert(mk_unit("a.sol::C::f#0"), "tokenlib", "1.2.0")
        assert index.entries[0].entry_id == "tokenlib@1.2.0/a.sol::C::f#0"
        assert index.entries[0].label is Label.CLEAN
        assert index.stats.functions_kept == 1

    def test_duplicate_normalized_text_not_inserted(self):
        index = new_index()
        original = mk_unit("a.sol::C::f#0", body="function f() public { x = 1; }")
        variant = mk_unit("b.sol::C::f#0", file_path="b.sol",
                          body="function f()  public {\n  x = 1; // same\n}")
        assert original.content_hash == variant.content_hash
        assert index.insert(original, "pkgA", "1")
        assert not index.insert(variant, "pkgB", "2")
        assert len(index.entries) == 1
        assert index.entries[0].package == "pkgA"  # first occurrence wins

    def test_same_unit_id_different_content_gets_suffix(self):
        index = new_index()
        assert index.insert(mk_unit("a.sol::C::f#0", body="function f() public { }"),
                            "pkg", "1")
        assert index.insert(mk_unit("a.sol::C::f#0", body="function f() public { y; }"),
                            "pkg", "1")
        assert index.insert(mk_unit("a.sol::C::f#0", body="function f() public { z; }"),
                            "pkg", "1")
        ids = [e.entry_id for e in index.entries]
        assert ids == ["pkg@1/a.sol::C::f#0", "pkg@1/a.sol::C::f#0~2",
                       "pkg@1/a.sol::C::f#0~3"]
        assert [index.entry_by_id(i) for i in ids] == index.entries

    def test_find_clone_needs_byte_equality_not_just_hash(self):
        index = new_index()
        unit = mk_unit("a.sol::C::f#0")
        index.insert(unit, "pkg", "1")
        assert index.find_clone(unit.normalized_source, unit.content_hash) is not None
        # Same (hypothetical colliding) hash, different bytes: must miss.
        assert index.find_clone("something else", unit.content_hash) is None
        assert index.find_clone(unit.normalized_source, "0" * 64) is None

    def test_entry_by_id(self):
        index = new_index()
        index.insert(mk_unit("a.sol::C::f#0"), "pkg", "1")
        assert index.entry_by_id("pkg@1/a.sol::C::f#0") is index.entries[0]
        assert index.entry_by_id("missing") is None


class TestIngest:
    def test_stats_and_dedup(self, tmp_path):
        arch = make_archive(tmp_path / "lib-1.0.tgz", {
            "contracts/a.sol": "contract A { " + _fn("f") + " }",
            "contracts/b.sol": ("contract B { "
                                + _fn("f", body="return 1; /* restated */")
                                + _fn("g", body="return 2;") + " }"),
        })
        index = new_index()
        ingest_archive(index, arch, "lib", "1.0")
        assert index.stats.files_seen == 2
        assert index.stats.functions_seen == 3
        assert index.stats.functions_kept == 2  # f's comment variant deduped

    def test_kept_matches_distinct_normalized_oracle(self, tmp_path):
        bodies = [_fn(f"f{i}", body=f"return {i % 4};") for i in range(10)]
        arch = make_archive(tmp_path / "lib-1.0.tgz", {
            f"src/m{i}.sol": f"contract M{{ {body} }}" for i, body in enumerate(bodies)
        })
        index = new_index()
        ingest_archive(index, arch, "lib", "1.0")
        # Same contract wrapper, bodies collide on i % 4: oracle counts texts.
        sources = [f"function f{i}() public pure returns (uint) {{ return {i % 4}; }}"
                   for i in range(10)]
        assert index.stats.functions_kept == oracles.count_distinct_normalized(sources)

    def test_reingest_changes_nothing(self, tmp_path):
        arch = make_archive(tmp_path / "lib-1.0.tgz", {
            "a.sol": "contract A { " + _fn("f") + _fn("g") + " }",
        })
        index = new_index()
        ingest_archive(index, arch, "lib", "1.0")
        before = [(e.entry_id, e.content_hash, e.package) for e in index.entries]
        ingest_archive(index, arch, "lib", "1.0")
        after = [(e.entry_id, e.content_hash, e.package) for e in index.entries]
        assert before == after
        assert index.stats.functions_kept == len(before)

    def test_first_archive_wins_across_packages(self, tmp_path):
        a1 = make_archive(tmp_path / "first-1.tgz",
                          {"a.sol": "contract A { " + _fn("f") + " }"})
        a2 = make_archive(tmp_path / "second-2.tgz",
                          {"z.sol": "contract A { " + _fn("f") + " }"})
        index = new_index()
        ingest_archive(index, a1, "first", "1")
        ingest_archive(index, a2, "second", "2")
        assert len(index.entries) == 1
        assert index.entries[0].package == "first"

    def test_non_sol_members_ignored(self, tmp_path):
        arch = make_archive(tmp_path / "lib-1.tgz", {
            "README.md": "# docs",
            "a.sol": "contract A { " + _fn("f") + " }",
        })
        index = new_index()
        ingest_archive(index, arch, "lib", "1")
        assert index.stats.files_seen == 1
        assert len(index.entries) == 1

    def test_bad_file_skipped_with_warning(self, tmp_path, caplog):
        arch = make_archive(tmp_path / "lib-1.tgz", {
            "bad.sol": "contract Broken { function f() public {",
            "good.sol": "contract A { " + _fn("f") + " }",
        })
        index = new_index()
        with caplog.at_level(logging.WARNING):
            ingest_archive(index, arch, "lib", "1")
        assert [e.entry_id for e in index.entries] == ["lib@1/good.sol::A::f#0"]
        assert any("bad.sol" in r.message for r in caplog.records)

    def test_file_that_is_not_utf8_skipped_with_warning(self, tmp_path, caplog):
        arch = tmp_path / "lib-1.tgz"
        with tarfile.open(arch, "w:gz") as tf:
            for name, data in [("latin1.sol", 'contract L { function f() public { s = "caf\xe9"; } }'
                                .encode("latin-1")),
                               ("good.sol", ("contract A { " + _fn("f") + " }").encode())]:
                info = tarfile.TarInfo(name=name)
                info.size = len(data)
                tf.addfile(info, io.BytesIO(data))
        index = new_index()
        with caplog.at_level(logging.WARNING):
            ingest_archive(index, arch, "lib", "1")
        assert [e.entry_id for e in index.entries] == ["lib@1/good.sol::A::f#0"]
        assert index.stats.files_seen == 2
        assert index.stats.functions_seen == 1
        offset = len(b'contract L { function f() public { s = "caf')
        assert [r.getMessage() for r in caplog.records] == [
            f"skipping latin1.sol from {arch}: not UTF-8 text: invalid continuation byte "
            f"at byte {offset}"]

    def test_archive_without_sol_warns(self, tmp_path, caplog):
        arch = make_archive(tmp_path / "empty-1.tgz", {"notes.txt": "nothing"})
        index = new_index()
        with caplog.at_level(logging.WARNING):
            ingest_archive(index, arch, "empty", "1")
        assert index.entries == []
        assert any("no .sol members" in r.message for r in caplog.records)

    def test_not_an_archive(self, tmp_path):
        bogus = tmp_path / "junk.tgz"
        bogus.write_text("this is not a tarball")
        with pytest.raises(ArchiveCorrupt):
            ingest_archive(new_index(), bogus, "junk", "0")

    def test_truncated_archive(self, tmp_path):
        arch = make_archive(tmp_path / "lib-1.tgz", {
            "a.sol": "contract A { " + _fn("f", body="return 42;") * 50 + " }",
        })
        data = arch.read_bytes()
        cut = tmp_path / "cut.tgz"
        cut.write_bytes(data[: len(data) // 2])
        with pytest.raises(ArchiveCorrupt):
            ingest_archive(new_index(), cut, "cut", "0")

    def test_archive_cut_mid_stream_is_unreadable(self, tmp_path):
        arch = make_archive(tmp_path / "lib-1.tgz", {
            "a.sol": "contract A { " + _fn("f", body="return 42;") * 50 + " }",
        })
        data = arch.read_bytes()
        cut = tmp_path / "cut.tgz"
        cut.write_bytes(data[: len(data) * 2 // 3])  # opens, then fails inside the member
        with pytest.raises(ArchiveCorrupt, match=f"^cannot read {re.escape(str(cut))}: ") as exc:
            ingest_archive(new_index(), cut, "cut", "0")
        assert exc.value.exit_code == 2

    def test_missing_archive(self, tmp_path):
        with pytest.raises(ArchiveCorrupt):
            ingest_archive(new_index(), tmp_path / "nope.tgz", "nope", "0")


def _labeled_index():
    index = new_index()
    index.insert(mk_unit("a.sol::Token::mint#0", name="mint", contract="Token",
                         file_path="a.sol"), "tok", "1.0")
    index.insert(mk_unit("a.sol::Token::burn#0", name="burn", contract="Token",
                         file_path="a.sol"), "tok", "1.0")
    index.insert(mk_unit("b.sol::Token::mint#0", name="mint", contract="Token",
                         file_path="b.sol", body="function mint() public { x; }"),
                 "tok", "2.0")
    return index


def _write_index(path, header, lines, block=None):
    path.write_bytes(join_index([json.dumps(header), *lines], block))


def _tiny_embedded_index(first_value=1.0):
    """Three entries with 2-dim rows whose first stored byte is that of
    first_value, so a test can choose whether the block starts with b"\\n"."""
    index = _labeled_index()
    index.vectors = np.array([[first_value, -2.0], [0.5, 0.25], [-0.0, 3.0]])
    index.meta.embedder_id = "tiny"
    return index


def _fallback_index():
    """_labeled_index embedded by the fallback embedder: an int8 block."""
    index = _labeled_index()
    embed_index(index, FallbackEmbedder())
    return index


def _repetitive_index():
    """Eight entries of about 4 KB of source each that deflate to a few
    dozen bytes: together they inflate to more than 16 times their file."""
    index = new_index()
    for i in range(8):
        index.insert(mk_unit(f"f.sol::C::g{i}#0", body=f"function g{i}() {{ {f'x{i}++; ' * 700}}}"),
                     "pkg", "1.0")
    return index


# 1 + 2**-50: little-endian, its first byte is 0x0A, a newline.
_NEWLINE_FIRST = float(np.frombuffer(bytes([0x0A, 0, 0, 0, 0, 0, 0xF0, 0x3F]), "<f8")[0])


def _write_labels(tmp_path, rows):
    path = tmp_path / "labels.csv"
    lines = ["package,version,match_kind,match_value,note"] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLabels:
    def test_name_match_marks_only_that_version(self, tmp_path):
        index = _labeled_index()
        path = _write_labels(tmp_path, ["tok,1.0,name,mint,reentrant mint"])
        report = apply_labels(index, path)
        assert len(report.applied) == 1
        assert report.applied[0][1] == ["tok@1.0/a.sol::Token::mint#0"]
        assert report.unmatched == []
        flagged = index.entry_by_id("tok@1.0/a.sol::Token::mint#0")
        assert flagged.label is Label.VULNERABLE
        assert flagged.vuln_note == "reentrant mint"
        assert index.entry_by_id("tok@2.0/b.sol::Token::mint#0").label is Label.CLEAN

    def test_hash_match(self, tmp_path):
        index = _labeled_index()
        target = index.entries[1]
        path = _write_labels(tmp_path, [
            f"tok,1.0,hash,{target.content_hash},burn skips allowance"])
        report = apply_labels(index, path)
        assert report.applied[0][1] == [target.entry_id]
        assert target.label is Label.VULNERABLE

    def test_vulnerable_entries_stay_in_the_index(self, tmp_path):
        index = _labeled_index()
        _ = apply_labels(index, _write_labels(tmp_path, ["tok,1.0,name,mint,bad"]))
        entry = index.entries[0]
        assert entry.label is Label.VULNERABLE
        assert index.find_clone(entry.normalized_source, entry.content_hash) is entry

    def test_unmatched_rows_reported_not_fatal(self, tmp_path):
        index = _labeled_index()
        path = _write_labels(tmp_path, [
            "tok,9.9,name,mint,wrong version",
            "other,1.0,name,mint,wrong package",
            "tok,1.0,name,missing,no such unit",
        ])
        report = apply_labels(index, path)
        assert report.applied == []
        assert len(report.unmatched) == 3
        assert all(e.label is Label.CLEAN for e in index.entries)

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("package,note\nx,y\n")
        with pytest.raises(LabelFileMalformed):
            apply_labels(_labeled_index(), path)

    def test_bad_match_kind(self, tmp_path):
        path = _write_labels(tmp_path, ["tok,1.0,regex,mint,bad kind"])
        with pytest.raises(LabelFileMalformed) as exc:
            apply_labels(_labeled_index(), path)
        assert "match_kind" in str(exc.value)

    def test_empty_note_rejected(self, tmp_path):
        path = _write_labels(tmp_path, ["tok,1.0,name,mint,"])
        with pytest.raises(LabelFileMalformed):
            apply_labels(_labeled_index(), path)

    def test_short_row_rejected(self, tmp_path):
        path = _write_labels(tmp_path, ["tok,1.0,name"])
        with pytest.raises(LabelFileMalformed):
            apply_labels(_labeled_index(), path)

    def test_unreadable_file_propagates_oserror(self, tmp_path):
        with pytest.raises(OSError):
            apply_labels(_labeled_index(), tmp_path / "absent.csv")

    def test_hits_match_a_scan_of_every_entry(self, tmp_path):
        """Two packages x two versions, inserted interleaved: each row marks
        what scanning every entry for it finds, in entry order."""
        index = new_index()
        for i, (file, name) in enumerate([("a.sol", "mint"), ("b.sol", "mint"),
                                          ("a.sol", "burn")]):
            for package in ("tok", "vault"):
                for version in ("1.0", "2.0"):
                    index.insert(mk_unit(f"{file}::T::{name}#0", name=name, contract="T",
                                         file_path=file,
                                         body=f"function {name}() public {{ {package}{version}{i}; }}"),
                                 package, version)
        burn = index.entry_by_id("vault@2.0/a.sol::T::burn#0")
        rows = ["tok,1.0,name,mint,m1", "vault,2.0,name,mint,m2", "tok,2.0,name,burn,b",
                f"vault,2.0,hash,{burn.content_hash},h", f"tok,1.0,hash,{burn.content_hash},x",
                "tok,3.0,name,mint,no such version", "vault,1.0,name,missing,no such unit"]
        want = [(row, oracles.reference_label_hits(index.entries, row))
                for row in (LabelRow(*line.split(",")) for line in rows)]
        report = apply_labels(index, _write_labels(tmp_path, rows))
        assert report.applied == [(row, hits) for row, hits in want if hits]
        assert report.unmatched == [row for row, hits in want if not hits]
        assert [len(hits) for _, hits in report.applied] == [2, 2, 1, 1]


class TestPersistence:
    def test_round_trip_unembedded(self, tmp_path):
        index = _labeled_index()
        apply_labels(index, _write_labels(tmp_path, ["tok,1.0,name,mint,overmint"]))
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        assert load_index(path) == as_loaded(index)

    def test_round_trip_embedded(self, tmp_path):
        index = _labeled_index()
        embed_index(index, FallbackEmbedder())
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded == as_loaded(index)
        assert loaded.meta.embedder_id == "fallback-trigram-v1"
        assert np.array_equal(loaded.vectors, index.vectors)
        assert np.array_equal(loaded.norms, index.norms)

    def test_failed_save_keeps_the_old_index(self, tmp_path, monkeypatch):
        path = tmp_path / "idx.jsonl"
        save_index(_labeled_index(), path)
        before = path.read_bytes()
        index = _labeled_index()
        embed_index(index, FallbackEmbedder())

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("os.replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            save_index(index, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["idx.jsonl"]

    def test_resave_is_byte_identical(self, tmp_path):
        index = _labeled_index()
        embed_index(index, FallbackEmbedder())
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        save_index(index, p1)
        save_index(load_index(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_line_shape(self, tmp_path):
        index = _labeled_index()
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        header = split_index(path)[0]
        assert header["format_version"] == FORMAT_VERSION == 14
        assert list(header) == ["format_version", "embedder_id", "delta",
                                "created_at", "stats", "dimension", "dtype", "digest"]
        assert header["stats"]["functions_kept"] == len(index.entries)
        assert header["dimension"] is None and header["dtype"] is None
        embed_index(index, FallbackEmbedder())
        save_index(index, path)
        data = path.read_bytes()
        header = json.loads(data.split(b"\n", 1)[0])
        assert header["dimension"] == 384 and header["dtype"] == "int8"
        block = dimension_major(index.vectors.astype("<i1"), index.norms.astype("<f8"))
        assert len(block) == (384 + 8) * len(index.entries)
        head, rest = data.split(b"\n", 1)
        # The text stream, the block stream, and the block stream's length.
        cut = len(rest) - 8 - int.from_bytes(rest[-8:], "little")
        assert rest[cut:-8] == deflate_block(block)
        assert zlib.decompress(rest[cut:-8], -15) == block
        text = zlib.decompress(rest[:cut], -15).decode("utf-8")
        assert text.count("\n") == 1 + len(index.entries) and text.endswith("]\n")
        stored = np.frombuffer(block, "<i1", count=384 * len(index.entries)).reshape(384, -1)
        stored_norms = np.frombuffer(block, "<f8", offset=stored.nbytes)
        assert (stored[:, 1] / stored_norms[1]).tobytes() == index.rows(1).tobytes()
        # dimension-major, column j holding value j of every row, then the norms

    def test_entry_line_shape(self, tmp_path):
        """After the header comes one raw DEFLATE stream, at level 6, of the
        entry lines and the key line; each raw_source is its entry's source
        as a JSON string."""
        index = _labeled_index()
        index.insert(mk_unit("c.sol::C::wide#0", body="function wide() { \"é\u2028\"; }"),
                     "tok", "3.0")
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        stream = path.read_bytes().split(b"\n", 1)[1]
        header, [*lines, keys], _ = split_index(path)
        assert stream == deflate_text(index_text([*lines, keys]))
        assert list(header["stats"]) == ["files_seen", "functions_seen", "functions_kept"]
        assert lines[0] == '["tok","1.0","clean",null,"mint","function mint() public { ' \
            '/* a.sol::Token::mint#0 */ }"]'
        assert lines[3].endswith(r'"function wide() { \"\u00e9\u2028\"; }"]')
        assert [json.loads(line)[5] for line in lines] == [e.raw_source for e in index.entries]
        assert keys == json.dumps([[e.entry_id for e in index.entries],
                                   [e.content_hash[:16] for e in index.entries]],
                                  separators=(",", ":"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "idx.jsonl"
        path.write_text("")
        with pytest.raises(FileCorrupt):
            load_index(path)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "idx.jsonl"
        path.write_text("not json\n")
        with pytest.raises(FileCorrupt):
            load_index(path)

    def test_header_missing_format_version(self, tmp_path):
        path = tmp_path / "idx.jsonl"
        path.write_text('{"delta": 0.65}\n')
        with pytest.raises(FileCorrupt):
            load_index(path)

    @pytest.mark.parametrize("stats", [[1, 2], "x", 3], ids=["list", "string", "number"])
    def test_non_object_stats_is_file_corrupt(self, tmp_path, stats):
        path = tmp_path / "idx.jsonl"
        save_index(_labeled_index(), path)
        header, lines, _ = split_index(path)
        _write_index(path, {**header, "stats": stats}, lines)
        with pytest.raises(FileCorrupt, match="header is malformed"):
            load_index(path)

    @pytest.mark.parametrize("field,value", [
        ("delta", True), ("delta", "0.5"), ("delta", None), ("delta", [0.5]),
        ("delta", 10**400), ("delta", float("nan")), ("delta", float("inf")),
        ("delta", float("-inf")),
        ("created_at", 5), ("created_at", None), ("created_at", ["t"]),
        ("stats", {"functions_kept": "3"}), ("stats", {"functions_kept": True}),
        ("stats", {"functions_kept": 3.0}), ("stats", {"functions_kept": 3.9}),
        ("stats", {"functions_kept": 3, "files_seen": -1}),
        ("stats", {"functions_kept": 3, "functions_seen": None}),
        ("embedder_id", 5), ("embedder_id", ["fallback-trigram-v1"]), ("embedder_id", True),
        ("format_version", float(FORMAT_VERSION)), ("format_version", 3.0),
        ("format_version", str(FORMAT_VERSION)),
        *(("stats", {"files_seen": 1, "functions_seen": 3, **count})
          for count in ({"functions_kept": "3"}, {"functions_kept": True},
                        {"functions_kept": 3.0}, {"functions_kept": -3},
                        {"functions_kept": 3, "extra": 0})),
        ("digest", "0" * 63), ("digest", "0" * 65), ("digest", "A" * 64),
        ("digest", "g" * 64), ("digest", 5),
    ], ids=["delta_true", "delta_string", "delta_null", "delta_list", "delta_huge",
            "delta_nan", "delta_inf", "delta_minus_inf",
            "created_at_number", "created_at_null", "created_at_list",
            "kept_string", "kept_true", "kept_float", "kept_fraction", "files_negative",
            "seen_null", "embedder_number", "embedder_list", "embedder_true",
            "version_float", "version_3_float", "version_string",
            "all_counts_kept_string", "all_counts_kept_true", "all_counts_kept_float",
            "all_counts_kept_negative", "all_counts_and_another_key",
            "digest_short", "digest_long", "digest_upper", "digest_not_hex", "digest_number"])
    def test_mistyped_header_field_is_file_corrupt(self, tmp_path, field, value):
        path = tmp_path / "idx.jsonl"
        save_index(_labeled_index(), path)
        header, lines, _ = split_index(path)
        _write_index(path, {**header, field: value}, lines)
        with pytest.raises(FileCorrupt, match="header is malformed"):
            load_index(path)

    def test_integer_delta_loads_as_float(self, tmp_path):
        path = tmp_path / "idx.jsonl"
        save_index(_labeled_index(), path)
        rewrite_index(path, delta=1)
        delta = load_index(path).meta.delta
        assert delta == 1.0 and type(delta) is float

    @pytest.mark.parametrize("edit", HEADER_EDITS.values(), ids=HEADER_EDITS)
    def test_changed_header_value_is_a_digest_mismatch(self, tmp_path, edit):
        """The digest covers the header: a well-formed value changed under
        the saved digest is refused."""
        path = tmp_path / "idx.jsonl"
        save_index(_fallback_index(), path)
        header, entries, block = split_index(path)
        assert header["delta"] == 0.65
        _write_index(path, {**header, **edit(header)}, entries, block)
        with pytest.raises(FileCorrupt, match="does not match the header's digest"):
            load_index(path)

    @pytest.mark.parametrize("edit", HEADER_EDITS.values(), ids=HEADER_EDITS)
    def test_restamped_header_edit_loads_with_its_value(self, tmp_path, edit):
        path = tmp_path / "idx.jsonl"
        save_index(_fallback_index(), path)
        header = split_index(path)[0]
        items = edit(header)
        rewrite_index(path, **items)
        header = {**header, **items}
        index = load_index(path)
        assert (index.meta.delta, index.meta.created_at, index.meta.embedder_id,
                vars(index.stats)) == (header["delta"], header["created_at"],
                                       header["embedder_id"], header["stats"])

    @pytest.mark.parametrize("key", [*corpus._HEADER_FIELDS,
                                     *(f"stats.{name}" for name in corpus._STATS_FIELDS)])
    def test_header_without_a_key_is_file_corrupt(self, tmp_path, key):
        path = tmp_path / "idx.jsonl"
        save_index(_fallback_index(), path)
        header, entries, block = split_index(path)
        *inner, name = key.split(".")
        del (header["stats"] if inner else header)[name]
        _write_index(path, header, entries, block)
        with pytest.raises(FileCorrupt, match=re.escape(
                f"header is malformed: {'stats: ' if inner else ''}no '{name}'")):
            load_index(path)

    @pytest.mark.parametrize("kind", ["unembedded", "fallback"])
    def test_header_keys_are_the_header_table_in_order(self, tmp_path, kind):
        """save_index writes, and load_index checks, the same header keys."""
        path = tmp_path / "idx.jsonl"
        save_index(_labeled_index() if kind == "unembedded" else _fallback_index(), path)
        header = split_index(path)[0]
        assert list(header) == list(corpus._HEADER_FIELDS)
        assert list(header["stats"]) == list(corpus._STATS_FIELDS)

    def test_format_8_index_is_refused_with_a_rebuild_hint(self, tmp_path):
        path = tmp_path / "idx.jsonl"
        save_index(_fallback_index(), path)
        head, rest = path.read_bytes().split(b"\n", 1)
        # Format 8 wrote the same header, its digest over all after the header line.
        header = {**json.loads(head), "format_version": 8,
                  "digest": hashlib.sha256(rest).hexdigest()}
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + rest)
        with pytest.raises(FormatVersionMismatch,
                           match="is format 8, this build reads format 14; "
                                 "rebuild it with `simaudit index`"):
            load_index(path)

    def test_format_9_index_is_refused_with_a_rebuild_hint(self, tmp_path):
        path = tmp_path / "idx.jsonl"
        save_index(_fallback_index(), path)
        # Format 9 wrote the unit's id, kind, contract, file path, declared
        # calls and source span on each entry line as well.
        rewrite_index(path, lambda pos, fields: [
            *fields[:4], *entry_record(fields)["unit"].values()], format_version=9)
        assert len(json.loads(split_index(path)[1][0])) == 12
        with pytest.raises(FormatVersionMismatch,
                           match="is format 9, this build reads format 14; "
                                 "rebuild it with `simaudit index`"):
            load_index(path)

    def test_format_10_index_is_refused_with_a_rebuild_hint(self, tmp_path):
        path = tmp_path / "idx.jsonl"
        save_index(_fallback_index(), path)
        # Format 10 wrote the text as it is, not deflated.
        header, lines, block = split_index(path)
        path.write_bytes(restamp(json.dumps({**header, "format_version": 10}).encode("utf-8")
                                 + b"\n" + index_text(lines) + block))
        assert json.loads(path.read_bytes().split(b"\n")[3])[5] == "function mint() public { x; }"
        with pytest.raises(FormatVersionMismatch,
                           match="is format 10, this build reads format 14; "
                                 "rebuild it with `simaudit index`"):
            load_index(path)

    def test_format_11_index_is_refused_with_a_rebuild_hint(self, tmp_path):
        path = tmp_path / "idx.jsonl"
        save_index(_fallback_index(), path)
        # Format 11 wrote the text as it is, each raw source as the base64
        # text of its own raw DEFLATE stream.
        header, lines, block = split_index(path)
        *entries, keys = map(json.loads, lines)
        lines = [json.dumps([*fields[:5], base64.b64encode(zlib.compress(
            fields[5].encode("utf-8"), wbits=-15)).decode("ascii")], separators=(",", ":"))
            for fields in entries] + [json.dumps(keys, separators=(",", ":"))]
        path.write_bytes(restamp(json.dumps({**header, "format_version": 11}).encode("utf-8")
                                 + b"\n" + index_text(lines) + block))
        with pytest.raises(FormatVersionMismatch,
                           match="is format 11, this build reads format 14; "
                                 "rebuild it with `simaudit index`"):
            load_index(path)

    def test_format_13_index_is_refused_with_a_rebuild_hint(self, tmp_path):
        index = _fallback_index()
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        # Format 13 wrote the key line as [entry_id, content_hash] pairs, each
        # with the whole hash, and the vector block row-major.
        header, lines, _ = split_index(path)
        lines[-1] = json.dumps([[e.entry_id, e.content_hash] for e in index.entries],
                               separators=(",", ":"))
        block = index.vectors.astype("<i1").tobytes() + index.norms.astype("<f8").tobytes()
        path.write_bytes(restamp(join_index(
            [json.dumps({**header, "format_version": 13}), *lines], block)))
        with pytest.raises(FormatVersionMismatch,
                           match="is format 13, this build reads format 14; "
                                 "rebuild it with `simaudit index`"):
            load_index(path)

    def test_future_format_version(self, tmp_path):
        path = tmp_path / "idx.jsonl"
        path.write_text('{"format_version": 99, "embedder_id": null, '
                        '"delta": 0.65, "created_at": "t", "stats": {}}\n')
        with pytest.raises(FormatVersionMismatch):
            load_index(path)

    def test_corrupt_entry_line_reports_line_number(self, tmp_path):
        index = _labeled_index()
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        header, lines, block = split_index(path)
        lines[1] = lines[1][: len(lines[1]) // 2]  # chop the entry on line 3
        _write_index(path, header, lines, block)
        with pytest.raises(FileCorrupt) as exc:
            load_index(path)
        assert "line 3" in str(exc.value)

    @pytest.mark.parametrize("rewrite", [
        lambda h, b: (h, b[:-16]),
        lambda h, b: (h, b + b"\0"),
        lambda h, b: (h, b""),
        lambda h, b: ({**h, "dimension": None}, b),
        lambda h, b: ({k: v for k, v in h.items() if k != "dimension"}, b),
        lambda h, b: ({**h, "dimension": 0}, b),
        lambda h, b: ({**h, "dimension": 1}, b),
        lambda h, b: ({**h, "dimension": True}, b),
        lambda h, b: ({**h, "dimension": "2"}, b),
        lambda h, b: (h, np.array([[np.nan, 1.0]] + [[1.0, 1.0]] * 2, "<f8").tobytes()),
        lambda h, b: (h, np.array([[1.0, 1.0]] * 2 + [[1.0, -np.inf]], "<f8").tobytes()),
    ], ids=["row_short", "stray_byte", "dimension_without_block", "block_without_dimension",
            "no_dimension", "zero_dimension", "smaller_dimension", "bool_dimension",
            "string_dimension", "nan_row", "inf_row"])
    def test_malformed_embeddings_are_file_corrupt(self, tmp_path, rewrite):
        path = tmp_path / "idx.jsonl"
        save_index(_tiny_embedded_index(), path)
        header, entries, block = split_index(path)
        header, block = rewrite(header, block)
        _write_index(path, header, entries, block)
        with pytest.raises(FileCorrupt):
            load_index(path)

    @pytest.mark.parametrize("make", [_labeled_index, _tiny_embedded_index, _fallback_index],
                             ids=["unembedded", "embedded", "int8"])
    def test_every_proper_prefix_is_file_corrupt(self, tmp_path, make):
        path = tmp_path / "idx.jsonl"
        save_index(make(), path)
        data = path.read_bytes()
        load_index(path)
        for size in range(len(data)):
            path.write_bytes(data[:size])
            with pytest.raises(FileCorrupt):
                load_index(path)

    @pytest.mark.parametrize("first_value", [None, 1.0, _NEWLINE_FIRST],
                             ids=["unembedded", "block_starts_0x00", "block_starts_0x0a"])
    def test_any_appended_byte_is_file_corrupt(self, tmp_path, first_value):
        index = _labeled_index() if first_value is None else _tiny_embedded_index(first_value)
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        data = path.read_bytes()
        if first_value is not None:
            block = dimension_major(index.vectors.astype("<f8"))
            assert split_index(data)[2] == block
            assert (block[0] == 0x0A) == (first_value == _NEWLINE_FIRST)
        for byte in range(256):
            path.write_bytes(data + bytes([byte]))
            with pytest.raises(FileCorrupt):
                load_index(path)

    def test_blank_entry_line_is_file_corrupt(self, tmp_path):
        path = tmp_path / "idx.jsonl"
        save_index(_labeled_index(), path)
        header, lines, _ = split_index(path)
        _write_index(path, header, [lines[0], "", *lines[2:]])
        with pytest.raises(FileCorrupt, match="line 3"):
            load_index(path)

    def test_format_2_index_is_refused_with_a_rebuild_hint(self, tmp_path):
        index = _tiny_embedded_index()
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        header, entries, _ = split_index(path)
        header = {**header, "format_version": 2, "vectors": base64.b64encode(
            index.vectors.astype("<f8").tobytes()).decode("ascii")}
        _write_index(path, header, entries)
        with pytest.raises(FormatVersionMismatch,
                           match="is format 2, this build reads format 14; "
                                 "rebuild it with `simaudit index`"):
            load_index(path)

    def test_format_6_index_is_refused_with_a_rebuild_hint(self, tmp_path):
        path = tmp_path / "idx.jsonl"
        save_index(_fallback_index(), path)
        header, entries, block = split_index(path)
        text = ("\n".join(entries) + "\n").encode("utf-8")
        # Format 6 hashed the text alone.
        _write_index(path, {**header, "format_version": 6,
                            "digest": hashlib.sha256(text).hexdigest()}, entries, block)
        with pytest.raises(FormatVersionMismatch,
                           match="is format 6, this build reads format 14; "
                                 "rebuild it with `simaudit index`"):
            load_index(path)

    def test_format_5_index_is_refused_with_a_rebuild_hint(self, tmp_path):
        index = _fallback_index()
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        header, entries, _ = split_index(path)
        del header["dtype"]      # format 5 stored the float64 matrix itself
        _write_index(path, {**header, "format_version": 5}, entries,
                     index.rows().astype("<f8").tobytes())
        with pytest.raises(FormatVersionMismatch,
                           match="is format 5, this build reads format 14; "
                                 "rebuild it with `simaudit index`"):
            load_index(path)

    @pytest.mark.parametrize("where", ["header", "entry"])
    def test_text_that_is_not_utf8_is_file_corrupt(self, tmp_path, where):
        path = tmp_path / "idx.jsonl"
        save_index(_labeled_index(), path)
        data = path.read_bytes()
        if where == "entry":
            head, stream = data.split(b"\n", 1)
            text = zlib.decompress(stream, -15).replace(b"tok", b"\xff\xfek", 1)
            data = head + b"\n" + deflate_text(text)
        else:
            at = data.index(b"created_at")
            data = data[:at] + b"\xff\xfe" + data[at + 2:]
        path.write_bytes(data)
        with pytest.raises(FileCorrupt):
            load_index(path)

    @pytest.mark.parametrize("rows", [rows for rows, _ in _bit_exact_cases()],
                             ids=["d2", "d8", "d384", "fallback"])
    def test_vectors_round_trip_bit_exact(self, tmp_path, rows):
        dim = len(rows[0])
        vectors = np.vstack([*rows, np.full(dim, 5e-324), np.full(dim, -0.0)])
        index = new_index()
        for i in range(len(vectors)):
            index.insert(mk_unit(f"f.sol::C::g{i}#0"), "pkg", "1.0")
        index.vectors, index.meta.embedder_id = vectors, "edge-rows"
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        save_index(index, p1)
        loaded = load_index(p1).vectors
        assert loaded.tobytes() == vectors.tobytes()
        assert loaded.dtype == np.float64 and loaded.dtype.isnative
        assert loaded.flags.c_contiguous and loaded.flags.writeable
        assert loaded.base is None and loaded.flags.aligned  # not a view of the file's buffer
        save_index(load_index(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("embedded", [False, True], ids=["unembedded", "embedded"])
    def test_any_changed_text_byte_is_file_corrupt(self, tmp_path, embedded):
        index = _tiny_embedded_index() if embedded else _labeled_index()
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        data = path.read_bytes()
        load_index(path)
        start = data.index(b"\n") + 1
        end = len(data) - (index.vectors.nbytes if embedded else 0)
        for at in range(start, end):
            for flip in {0x01, 0x80, at % 255 + 1}:
                path.write_bytes(data[:at] + bytes([data[at] ^ flip]) + data[at + 1:])
                with pytest.raises(FileCorrupt):
                    load_index(path)

    @pytest.mark.parametrize("line", [2, 5], ids=["entry_line", "key_line"])
    def test_text_changed_but_well_formed_is_a_digest_mismatch(self, tmp_path, line):
        path = tmp_path / "idx.jsonl"
        save_index(_labeled_index(), path)
        header, lines, _ = split_index(path)
        lines[line - 2] = lines[line - 2].replace("tok@1.0", "tok@9.9").replace(
            '"tok","1.0"', '"tok","9.9"')
        _write_index(path, header, lines)
        with pytest.raises(FileCorrupt, match="does not match the header's digest"):
            load_index(path)

    def test_key_line_with_the_wrong_pair_count_is_file_corrupt(self, tmp_path):
        index = new_index()
        for name in ("f", "g"):
            index.insert(mk_unit(f"a.sol::C::{name}#0"), "pkg", "1.0")
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        rewrite_index(path, keys=lambda keys: [array[:1] for array in keys])
        with pytest.raises(FileCorrupt) as exc:
            load_index(path)
        assert str(exc.value) == f"index {path} line 4: 1 keys for 2 entry lines"

    @pytest.mark.parametrize("keys", [
        [1, 2], [["a", "b"]], [["a", "b"], ["c", "d"], []], ["ab", "cd"], {"ab": 0, "cd": 0},
        [["a", "b"], ["c", None]],
    ], ids=["numbers", "one_array", "three_arrays", "two_strings", "object", "null_key"])
    def test_key_line_not_two_arrays_of_strings_is_file_corrupt(self, tmp_path, keys):
        index = new_index()
        for name in ("f", "g"):
            index.insert(mk_unit(f"a.sol::C::{name}#0"), "pkg", "1.0")
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        rewrite_index(path, keys=lambda _: keys)
        with pytest.raises(FileCorrupt) as exc:
            load_index(path)
        assert str(exc.value) == (f"index {path} line 4: not two arrays of strings, "
                                  f"entry ids and hash keys")

    @pytest.mark.parametrize("edit", [
        lambda ids, keys: ([[ids[0], ids[1], ids[0]], keys], f"entry id {ids[0]!r} is there twice"),
        lambda ids, keys: ([ids, keys[:2]], "3 entry ids for 2 hash keys"),
        lambda ids, keys: ([ids[:2], keys], "2 entry ids for 3 hash keys"),
        lambda ids, keys: ([ids, [*keys[:2], keys[2][:15]]], f"hash key {keys[2][:15]!r} is not"),
        lambda ids, keys: ([ids, [keys[0] + "0", *keys[1:]]], f"hash key {keys[0] + '0'!r} is not"),
        lambda ids, keys: ([ids, [keys[0], "ABCDEF0123456789", keys[2]]],
                           "hash key 'ABCDEF0123456789' is not"),
        lambda ids, keys: ([ids, [keys[0], keys[1], "g" * 16]], f"hash key {'g' * 16!r} is not"),
        lambda ids, keys: ([ids, [keys[0], keys[1] + "0" * 48, keys[2]]],
                           f"hash key {keys[1] + '0' * 48!r:.60} is not"),
    ], ids=["duplicate_id", "fewer_hash_keys", "fewer_ids", "short_key", "long_key",
            "uppercase_key", "non_hex_key", "whole_hash"])
    def test_key_line_of_the_wrong_content_is_file_corrupt(self, tmp_path, edit):
        """Each is found at load, under a digest that matches, and named by
        the key line's number."""
        index = _labeled_index()
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        ids = [entry.entry_id for entry in index.entries]
        keys = [entry.content_hash[:HASH_KEY_CHARS] for entry in index.entries]
        assert json.loads(split_index(path)[1][-1]) == [ids, keys]
        keys_line, message = edit(ids, keys)
        rewrite_index(path, keys=lambda _: keys_line)
        with pytest.raises(FileCorrupt) as exc:
            load_index(path)
        assert str(exc.value).startswith(f"index {path} line 5: {message}")
        if " is not" in message:
            assert str(exc.value).endswith(" is not 16 lowercase hex digits")

    @pytest.mark.parametrize("pos", range(len(ENTRY_FIELDS)), ids=ENTRY_FIELDS)
    def test_mistyped_entry_field_is_file_corrupt(self, tmp_path, pos):
        """A field of another JSON type under a matching digest is FileCorrupt
        naming its line wherever the entry is read, and never another error."""
        index = _labeled_index()
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        rewrite_index(path, lambda _, fields: mistype(fields, pos))
        where = f"^index {re.escape(str(path))} line 2: {ENTRY_FIELDS[pos]} "
        entry = index.entries[0]
        with pytest.raises(FileCorrupt, match=where):
            load_index(path).entry_by_id(entry.entry_id)
        with pytest.raises(FileCorrupt, match=where):
            load_index(path).find_clone(entry.normalized_source, entry.content_hash)

    @pytest.mark.parametrize("edit, message", [
        (entry_record, "not a list of the 6 entry fields"),
        (lambda f: f[:5], "not a list of the 6 entry fields"),
        (lambda f: [*f[:2], "bogus", *f[3:]], "label 'bogus' is not a label"),
    ], ids=["format_7_object", "five_fields", "unknown_label"])
    def test_entry_line_of_the_wrong_shape_is_file_corrupt(self, tmp_path, edit, message):
        path = tmp_path / "idx.jsonl"
        save_index(_labeled_index(), path)
        rewrite_index(path, lambda _, fields: edit(fields))
        loaded = load_index(path)
        with pytest.raises(FileCorrupt) as exc:
            loaded.entries[0]
        assert str(exc.value) == f"index {path} line 2: {message}"

    @pytest.mark.parametrize("pos", [0, 1], ids=["entry_id", "hash_key"])
    def test_mistyped_key_is_file_corrupt(self, tmp_path, pos):
        path = tmp_path / "idx.jsonl"
        save_index(_labeled_index(), path)
        rewrite_index(path, keys=lambda keys: [mistype(array, 1) if at == pos else array
                                               for at, array in enumerate(keys)])
        with pytest.raises(FileCorrupt) as exc:
            load_index(path)
        assert str(exc.value) == (f"index {path} line 5: not two arrays of strings, "
                                  f"entry ids and hash keys")

    @pytest.mark.parametrize("line", ["header", "entry", "entry_stale_digest", "key"])
    def test_line_nested_too_deep_is_file_corrupt(self, tmp_path, line):
        """json.loads raises RecursionError on a line nested past the
        recursion limit; the header, an entry line (read when its entry is,
        or at load when the digest does not match) and the key line each
        make it FileCorrupt naming the line."""
        path = tmp_path / "idx.jsonl"
        save_index(_labeled_index(), path)
        if line == "header":
            text = path.read_bytes()
            path.write_bytes(DEEP_JSON.encode("utf-8") + text[text.index(b"\n"):])
        elif line == "entry":
            rewrite_index(path, lambda pos, fields: RawJSON(DEEP_JSON) if pos == 1 else fields)
        elif line == "entry_stale_digest":
            header, entries, _ = split_index(path)
            entries[1] = DEEP_JSON
            _write_index(path, header, entries)
        else:
            rewrite_index(path, keys=lambda pairs: RawJSON(DEEP_JSON))
        with pytest.raises(FileCorrupt) as exc:
            load_index(path).entries[1]
        number = {"header": 1, "key": 5}.get(line, 3)
        assert str(exc.value) == f"index {path} line {number}: {TOO_DEEP}"

    def test_raw_source_that_does_not_normalize_is_file_corrupt(self, tmp_path):
        index = _labeled_index()
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        rewrite_index(path, lambda pos, fields: fields if pos != 1 else [
            *fields[:5], 'function f() { "x }'])
        loaded = load_index(path)
        entry = index.entries[1]
        where = f"^index {re.escape(str(path))} line 3: "
        with pytest.raises(FileCorrupt, match=where):
            loaded.find_clone(entry.normalized_source, entry.content_hash)
        with pytest.raises(FileCorrupt, match=where):
            embed_index(loaded, FallbackEmbedder())

    @pytest.mark.parametrize("damage", TEXT_DAMAGE)
    @pytest.mark.parametrize("digest", ["restamped", "saved"])
    def test_stored_source_that_does_not_inflate_is_file_corrupt(self, tmp_path, damage,
                                                                 digest):
        """The raw sources are stored in the one deflated text: a stream
        that is not raw DEFLATE of UTF-8 text within the bound makes the
        load FileCorrupt, under a matching digest or the saved one."""
        path = tmp_path / "idx.jsonl"
        save_index(_fallback_index(), path)
        data = damage_text(path.read_bytes(), damage)
        path.write_bytes(restamp(data) if digest == "restamped" else data)
        message = f"index {path} entry text {TEXT_DAMAGE[damage][1]}"
        with pytest.raises(FileCorrupt, match=f"^{re.escape(message)}"):
            load_index(path)

    @pytest.mark.parametrize("damage", BLOCK_DAMAGE)
    @pytest.mark.parametrize("digest", ["restamped", "saved"])
    @pytest.mark.parametrize("make", [_fallback_index, _tiny_embedded_index],
                             ids=["int8", "float64"])
    def test_a_block_stream_that_does_not_inflate_is_file_corrupt(self, tmp_path, damage,
                                                                   digest, make):
        """The vector block is a raw DEFLATE stream that must inflate to
        exactly the block's size, and the 8 bytes after it give its length:
        damage to either makes the load FileCorrupt, under a matching digest
        or the saved one."""
        path = tmp_path / "idx.jsonl"
        save_index(make(), path)
        data = damage_block(path.read_bytes(), damage)
        path.write_bytes(restamp(data) if digest == "restamped" else data)
        message = f"index {path} vector block {BLOCK_DAMAGE[damage][1]}"
        with pytest.raises(FileCorrupt, match=f"^{re.escape(message)}"):
            load_index(path)

    def test_a_block_past_the_bound_is_not_inflated(self, tmp_path, monkeypatch):
        """A header whose rows and dimension ask for a block larger than the
        text bound of the file is FileCorrupt before the block is inflated."""
        path = tmp_path / "idx.jsonl"
        save_index(_fallback_index(), path)
        monkeypatch.setattr(corpus, "TEXT_BOUND_FLOOR", 3 * (384 + 8) - 1)
        monkeypatch.setattr(corpus, "TEXT_BYTES_PER_FILE_BYTE", 0)
        with patch.object(zlib, "decompressobj", wraps=zlib.decompressobj) as inflaters:
            with pytest.raises(FileCorrupt, match=re.escape(
                    f"vector block of 1176 bytes is more than the 1175 that its "
                    f"{path.stat().st_size}-byte file may hold")):
                load_index(path)
            assert inflaters.call_count == 0

    def test_source_just_within_the_bound_round_trips(self, tmp_path, monkeypatch):
        """Text of exactly the bound saves and loads; with a bound one byte
        smaller, save_index refuses it and load_index stops at the bound."""
        index = _labeled_index()
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        data = path.read_bytes()
        size = len(index_text(split_index(data)[1]))
        monkeypatch.setattr(corpus, "TEXT_BYTES_PER_FILE_BYTE", 0)
        monkeypatch.setattr(corpus, "TEXT_BOUND_FLOOR", size)
        save_index(index, path)
        assert path.read_bytes() == data and load_index(path) == as_loaded(index)
        monkeypatch.setattr(corpus, "TEXT_BOUND_FLOOR", size - 1)
        with pytest.raises(IndexTooLarge, match=f"^the index's {size} bytes of text are more "
                                                f"than the {size - 1} that its {len(data)}-"):
            save_index(index, tmp_path / "other.jsonl")
        with pytest.raises(FileCorrupt, match=f"^{re.escape(f'index {path} entry text')} "
                                              f"inflates past the {size - 1} bytes that its "
                                              f"{len(data)}-byte file may hold$"):
            load_index(path)

    def test_a_source_past_the_floor_round_trips(self, tmp_path, monkeypatch):
        """No raw source has a cap of its own: one longer than the floor
        saves and loads, since the text is within 16 times the file."""
        index = _labeled_index()
        monkeypatch.setattr(corpus, "TEXT_BOUND_FLOOR", 30)
        assert len(index.entries[0].raw_source) > 30
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        assert load_index(path) == as_loaded(index)

    @pytest.mark.parametrize("stream", ["text", "block"])
    def test_inflating_stops_at_the_bound(self, tmp_path, monkeypatch, stream):
        """A digest-valid index whose text would inflate to 4 MiB, or whose
        vector block would inflate to 4 MiB past its size, is refused at
        load, with no more than the bound, or the size, inflated."""
        path = tmp_path / "idx.jsonl"
        if stream == "text":
            save_index(_labeled_index(), path)
            rewrite_index(path, lambda pos, fields: [*fields[:5], " " * (4 << 20)] if pos == 0
                          else fields)
            monkeypatch.setattr(corpus, "TEXT_BOUND_FLOOR", 1000)
            bound = 16 * path.stat().st_size
            assert 1000 < bound < 1 << 18
            refused = f"entry text inflates past the {bound} bytes "
        else:
            save_index(_fallback_index(), path)
            data = path.read_bytes()
            block = split_index(data)[2]
            # Deflated as the text is, the 4 MiB of zeros take a few KB.
            block_start = len(data) - 8 - int.from_bytes(data[-8:], "little")
            path.write_bytes(restamp(
                data[:block_start] + framed(deflate_text(block + bytes(4 << 20)))))
            assert path.stat().st_size < 1 << 16
            refused = f"vector block inflates past its {len(block)} bytes$"
        tracemalloc.start()
        try:
            with pytest.raises(FileCorrupt, match=refused):
                load_index(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_sources_read_from_one_file_stay_within_its_budget(self, tmp_path, monkeypatch):
        """Sources that deflate well together inflate to more than
        TEXT_BYTES_PER_FILE_BYTE times their file, with a floor below that:
        the load is FileCorrupt before any line is parsed, under the saved
        digest and under a stale one."""
        index = _repetitive_index()
        monkeypatch.setattr(corpus, "TEXT_BOUND_FLOOR", 1000)
        path = tmp_path / "idx.jsonl"
        with monkeypatch.context() as unbounded:
            unbounded.setattr(corpus, "TEXT_BYTES_PER_FILE_BYTE", 1 << 20)
            save_index(index, path)
        size = path.stat().st_size
        refused = (f"^{re.escape(f'index {path} entry text inflates past')} the {16 * size} "
                   f"bytes that its {size}-byte file may hold$")
        with pytest.raises(FileCorrupt, match=refused):
            load_index(path)
        header, lines, block = split_index(path)
        # A stale digest; the file keeps its length, and so its bound.
        _write_index(path, {**header, "created_at": "2009-02-03T04:05:06+00:00"}, lines, block)
        assert path.stat().st_size == size
        with pytest.raises(FileCorrupt, match=refused):
            load_index(path)

    def test_save_refuses_sources_past_the_file_budget(self, tmp_path, monkeypatch):
        """Text that would inflate past 16 times the file, and the floor, is
        refused, so no file is written."""
        index = _repetitive_index()
        monkeypatch.setattr(corpus, "TEXT_BOUND_FLOOR", 1000)
        path = tmp_path / "idx.jsonl"
        with pytest.raises(IndexTooLarge, match="^the index's [0-9]+ bytes of text are more "
                                                "than the [0-9]+ that its [0-9]+-byte file "
                                                "may hold$"):
            save_index(index, path)
        assert list(tmp_path.iterdir()) == []

    def test_text_without_a_final_line_break_is_file_corrupt(self, tmp_path):
        path = tmp_path / "idx.jsonl"
        save_index(_fallback_index(), path)
        data = path.read_bytes()
        _, lines, block = split_index(data)
        text = "\n".join(lines).encode("utf-8")
        path.write_bytes(restamp(data[:data.index(b"\n") + 1] + deflate_text(text)
                                 + framed(deflate_block(block))))
        message = f"index {path} entry text does not end with a line break"
        with pytest.raises(FileCorrupt, match=f"^{re.escape(message)}$"):
            load_index(path)

    def test_a_load_inflates_the_text_once(self, tmp_path):
        """The whole text is inflated at load, by one inflater, and the vector
        block by another; reading entries afterwards inflates nothing."""
        index = _fallback_index()
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        with patch.object(zlib, "decompressobj", wraps=zlib.decompressobj) as inflaters:
            loaded = load_index(path)
            assert inflaters.call_count == 2
            target = index.entries[2]
            assert loaded.find_clone(target.normalized_source, target.content_hash) == (
                keyed(target))
            assert loaded == as_loaded(index) and inflaters.call_count == 2

    def test_each_stream_inflates_within_its_bound(self, tmp_path):
        """The text may inflate to one byte past its bound, and the block to
        one byte past its exact size, and no further."""
        decompressobj = zlib.decompressobj

        class Inflater:
            def __init__(self, wbits):
                self._inflater = decompressobj(wbits)

            def decompress(self, data, max_length=0):
                limits.append(max_length)
                return self._inflater.decompress(data, max_length)

            def __getattr__(self, name):
                return getattr(self._inflater, name)

        limits = []
        path = tmp_path / "idx.jsonl"
        save_index(_fallback_index(), path)
        with patch.object(zlib, "decompressobj", Inflater):
            load_index(path)
        assert sorted(limits) == [3 * (384 + 8) + 1, corpus.TEXT_BOUND_FLOOR + 1]

    @pytest.mark.parametrize("kind", ["unembedded", "int8", "float64"])
    def test_a_load_starts_no_thread(self, tmp_path, kind):
        """The text and the vector block are inflated on the calling thread:
        a load succeeds even where no thread can be started."""
        index = {"unembedded": _labeled_index, "int8": _fallback_index,
                 "float64": _tiny_embedded_index}[kind]()
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        refused = AssertionError("load_index started a thread")
        with patch.object(threading.Thread, "start", side_effect=refused) as start:
            loaded = load_index(path)
        assert start.call_count == 0
        assert loaded == as_loaded(index)
        if kind != "unembedded":
            assert loaded.vectors.tobytes() == index.vectors.tobytes()

    def test_save_peaks_below_the_file_size(self, tmp_path):
        index = new_index()
        for i, text in enumerate(function_texts(256)):
            index.insert(mk_unit(f"f.sol::C::f{i}#0", body=text), "pkg", "1.0")
        embed_index(index, FallbackEmbedder())
        path = tmp_path / "idx.jsonl"
        tracemalloc.start()
        try:
            save_index(index, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size

    def test_a_scan_builds_only_the_entries_it_touches(self, tmp_path):
        index = new_index()
        for i in range(6):
            index.insert(mk_unit(f"f.sol::C::g{i}#0", body=f"function g() {{ r{i}; }}"),
                         "pkg", "1.0")
        embed_index(index, FallbackEmbedder())
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        with patch.object(corpus, "_entry_from_line",
                          wraps=corpus._entry_from_line) as parse:
            loaded = load_index(path)
            built = lambda: [c.args[1] for c in parse.call_args_list]  # noqa: E731
            assert query_top_k(index.rows([4, 1]), loaded, k=3)[0][0].entry_id == (
                index.entries[4].entry_id)
            assert loaded.find_clone("function g() { r9; }", "0" * 64) is None
            assert built() == []
            target = index.entries[3]
            hit = loaded.find_clone(target.normalized_source, target.content_hash)
            assert hit == keyed(target) and built() == [5]
            assert loaded.entry_by_id(index.entries[0].entry_id) == keyed(index.entries[0])
            assert loaded.entry_by_id("pkg@1.0/missing") is None
            assert loaded.entry_by_id(target.entry_id) is hit
            assert built() == [5, 2]
            assert loaded == as_loaded(index) and built() == [5, 2, 3, 4, 6, 7]

    def test_a_scan_normalizes_only_its_hash_hit_candidates(self, tmp_path):
        index = new_index()
        for i in range(4):
            index.insert(mk_unit(f"f.sol::C::g{i}#0", body=f"function g() {{ r{i}; }}"),
                         "pkg", "1.0")
        # A second entry in entry 1's hash bucket, as a hash collision makes.
        twin = dataclasses.replace(mk_unit("f.sol::C::h#0", body="function h() { s; }"),
                                   content_hash=index.entries[1].content_hash)
        assert index.insert(twin, "pkg", "1.0")
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        with patch.object(corpus, "normalize", wraps=corpus.normalize) as norm:
            loaded = load_index(path)
            derived = lambda: [c.args[0] for c in norm.call_args_list]  # noqa: E731
            for entry in index.entries:
                assert loaded.entry_by_id(entry.entry_id) == keyed(entry)
            assert loaded.find_clone("function g() { r9; }", "0" * 64) is None
            assert derived() == []
            assert loaded.find_clone(twin.normalized_source, twin.content_hash) == (
                keyed(index.entries[4]))
            assert derived() == [index.entries[1].raw_source, twin.raw_source]
            target = index.entries[2]
            assert loaded.find_clone(target.normalized_source, target.content_hash) == (
                keyed(index.entries[2]))
            assert derived()[2:] == [target.raw_source]

    @pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
    def test_a_hash_key_finds_candidates_and_only_bytes_make_a_clone(self, tmp_path, loaded):
        """Three units whose content hashes share their hash key, the first
        16 hex digits, but whose normalized sources differ: an index built
        from two of them, or loaded from their saved file, keeps both and
        finds each by its own text, and the third text finds none of them,
        until it is inserted as a third entry."""
        units = [mk_unit(f"a.sol::C::{name}#0") for name in ("f", "g", "h")]
        key = units[0].content_hash[:HASH_KEY_CHARS]
        units[1:] = [dataclasses.replace(unit, content_hash=key + unit.content_hash[len(key):])
                     for unit in units[1:]]
        assert len({unit.content_hash for unit in units}) == 3
        assert len({unit.normalized_source for unit in units}) == 3
        index = new_index()
        assert index.insert(units[0], "pkg", "1.0") and index.insert(units[1], "pkg", "1.0")
        if loaded:
            path = tmp_path / "idx.jsonl"
            save_index(index, path)
            assert json.loads(split_index(path)[1][-1])[1] == [key, key]
            index = load_index(path)
        assert len(index.entries) == 2
        for unit, entry in zip(units, index.entries):
            assert index.find_clone(unit.normalized_source, unit.content_hash) is entry
            assert entry.raw_source == unit.raw_source
        assert index.find_clone(units[2].normalized_source, units[2].content_hash) is None
        assert index.insert(units[2], "pkg", "1.0") and len(index.entries) == 3
        for unit, entry in zip(units, index.entries):
            assert index.find_clone(unit.normalized_source, unit.content_hash) is entry

    def test_entry_list_compares_and_prints_as_its_list(self, tmp_path):
        index = _labeled_index()
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        entries = load_index(path).entries
        assert (entries == 5) is False
        assert entries.__eq__(5) is NotImplemented
        assert entries == list(as_loaded(index).entries)
        assert repr(entries) == repr(list(as_loaded(index).entries))

    def test_entry_list_slices_to_a_list_of_built_entries(self, tmp_path):
        index = _labeled_index()
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        entries = load_index(path).entries
        expected = list(as_loaded(index).entries)
        assert len(expected) == 3
        assert entries[0:2] == expected[0:2] and type(entries[0:2]) is list
        assert entries[::-1] == expected[::-1]
        assert entries[-2:] == expected[-2:]
        assert entries[5:] == []
        assert entries[1:2][0] is entries[1]

    def test_kept_count_mismatch_detected(self, tmp_path):
        index = _labeled_index()
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        header, lines, _ = split_index(path)
        del lines[0]  # drop an entry but keep the header's count
        _write_index(path, header, lines)
        with pytest.raises(FileCorrupt):
            load_index(path)

    def test_missing_file_propagates_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_index(tmp_path / "absent.jsonl")


def _norm(row, value, sums=None):
    """A rewrite of a saved _fallback_index that sets the norm of row, and
    its int8 sums if given."""
    def rewrite(header, block):
        norms = np.frombuffer(block, "<f8", offset=len(block) - 8 * 3).copy()
        norms[row] = value
        block = bytearray(block[:-8 * 3])
        if sums is not None:  # a row's sums are every third value: the block has 3 rows
            block[row::3] = np.asarray(sums, "<i1").tobytes()
        return header, bytes(block) + norms.tobytes()
    return rewrite


class TestIntegerVectorBlock:
    """A fallback-embedded matrix is stored as its integer tap sums, in the
    narrowest signed type that holds them, and one float64 norm per row."""

    @pytest.mark.parametrize("texts, dtype", [
        (["function f() { return 1; }", "x"], "int8"),
        (["function f() { return 1; }", "a" * 200], "int16"),
        (["a" * 40_000, "function f() { }"], "int32"),
    ], ids=["int8", "int16", "int32"])
    def test_narrowest_dtype_round_trips_bit_exact(self, tmp_path, texts, dtype):
        index = new_index()
        for i, text in enumerate(texts):
            index.insert(mk_unit(f"f.sol::C::g{i}#0", body=text), "pkg", "1.0")
        embed_index(index, FallbackEmbedder())
        assert index.rows().tobytes() == oracles.reference_embed_many(texts).tobytes()
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        save_index(index, p1)
        header, _, block = split_index(p1)
        assert header["dtype"] == dtype
        sums = np.frombuffer(block, dtype, count=len(texts) * 384).astype(np.int64)
        largest = max(-int(sums.min()) - 1, int(sums.max()))  # the width's bound is 2**k - 1
        assert largest > 127 if dtype != "int8" else largest <= 127
        assert largest > 32767 if dtype == "int32" else largest <= 32767
        loaded = load_index(p1)
        assert loaded.vectors.tobytes() == index.vectors.tobytes()
        assert loaded.norms.tobytes() == index.norms.tobytes()
        # The norms own their data: no read-only view that keeps the
        # inflated block alive.
        assert loaded.norms.dtype == np.float64 and loaded.norms.dtype.isnative
        assert loaded.norms.flags.c_contiguous and loaded.norms.flags.writeable
        assert loaded.norms.base is None
        assert loaded.vectors.dtype == dtype and loaded.vectors.flags.c_contiguous
        assert loaded.rows().tobytes() == index.rows().tobytes()
        save_index(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_cancelling_taps_round_trip_bit_exact(self, tmp_path):
        class TwoTaps(FallbackEmbedder):
            _TAPS = 2

        index = new_index()
        index.insert(mk_unit("f.sol::C::j#0", body="J"), "pkg", "1.0")
        embed_index(index, TwoTaps())
        want = oracles.reference_fallback_embedding("J", taps=2)
        assert index.rows(0).tobytes() == want.tobytes()
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        assert split_index(path)[0]["dtype"] == "int8"
        assert load_index(path).rows(0).tobytes() == want.tobytes()

    def test_sums_past_int32_are_stored_as_int64(self, tmp_path):
        index = _labeled_index()
        sums = np.array([[2**40, -3], [0, 1], [-(2**35), 7]])
        norms = np.array([2.0**40, 1.0, 3.5])
        index.vectors, index.norms = sums, norms
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        save_index(index, p1)
        assert split_index(p1)[0]["dtype"] == "int64"
        assert load_index(p1).rows().tobytes() == (sums / norms[:, None]).tobytes()
        save_index(load_index(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_a_remote_matrix_is_stored_as_float64(self, tmp_path):
        def reply(body):
            return {"vectors": [[len(t) / 7, 0.1] for t in body["texts"]]}

        index = _labeled_index()
        with CannedHTTPServer(reply) as server:
            embed_index(index, RemoteEmbedder(server.url))
        assert index.norms is None
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        header, _, block = split_index(path)
        assert header["dtype"] == "float64"
        assert block == dimension_major(index.vectors.astype("<f8"))
        assert load_index(path).vectors.tobytes() == index.vectors.tobytes()

    def test_float64_rows_stored_over_sums_leave_no_norms(self, tmp_path):
        def reply(body):
            return {"vectors": [[len(t) / 7, -0.0] for t in body["texts"]]}

        index = _fallback_index()
        with CannedHTTPServer(reply) as server:
            embed_index(index, RemoteEmbedder(server.url))
        assert index.norms is None and index.vectors.dtype == np.float64
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        header, _, block = split_index(path)
        assert header["dtype"] == "float64"
        assert block == dimension_major(index.vectors.astype("<f8"))
        loaded = load_index(path)
        assert loaded.norms is None
        assert loaded.rows().tobytes() == index.vectors.tobytes()

    def test_float_rows_assigned_over_sums_are_not_truncated(self, tmp_path):
        index = _fallback_index()
        index.vectors = index.rows() * 0.5     # norms left as they were
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        header, _, block = split_index(path)
        assert header["dtype"] == "float64"
        assert block == dimension_major(index.rows().astype("<f8"))
        assert load_index(path).rows().tobytes() == index.rows().tobytes()

    @pytest.mark.parametrize("make, at", [
        (_fallback_index, 0), (_fallback_index, 3 * 384 - 1), (_fallback_index, 3 * 384 + 8),
        (_tiny_embedded_index, 0), (_tiny_embedded_index, 6 * 8 - 1),
    ], ids=["first_sum", "last_sum", "norm", "first_float", "last_float"])
    def test_a_changed_block_byte_is_a_digest_mismatch(self, tmp_path, make, at):
        """A flipped low bit leaves every value valid, so only the digest,
        which covers the block, can tell."""
        path = tmp_path / "idx.jsonl"
        save_index(make(), path)
        header, entries, block = split_index(path)
        load_index(path)
        block = block[:at] + bytes([block[at] ^ 0x01]) + block[at + 1:]
        _write_index(path, header, entries, block)
        with pytest.raises(FileCorrupt, match="does not match the header's digest"):
            load_index(path)

    @pytest.mark.parametrize("rewrite, message", [
        (_norm(0, 0.0), "norm that is not positive and finite"),
        (_norm(1, -2.5), "norm that is not positive and finite"),
        (_norm(2, np.nan), "norm that is not positive and finite"),
        (_norm(0, np.inf), "norm that is not positive and finite"),
        (_norm(1, 5e-324), "non-finite values"),
        # 1 / 5e-307 is finite, -128 / 5e-307 is not; np.abs(int8 -128) is -128.
        (_norm(2, 5e-307, [-128] + [1] * 383), "non-finite values"),
        (lambda h, b: (h, b[:-1]), "vector block is too short for its 3 rows of 384 int8 and "
                                   "their norms"),
        (lambda h, b: (h, b + b"\0"), "vector block inflates past its 1176 bytes"),
        (lambda h, b: (h, b[:-8 * 3]), "vector block is too short for its 3 rows of 384 int8"),
        (lambda h, b: ({**h, "dtype": "int12"}, b), "dtype 'int12' is not one of int8, "),
        (lambda h, b: ({**h, "dtype": "uint8"}, b), "dtype 'uint8' is not one of"),
        (lambda h, b: ({**h, "dtype": "|i1"}, b), "dtype '|i1' is not one of"),
        (lambda h, b: ({**h, "dtype": 8}, b), "dtype 8 is not one of"),
        (lambda h, b: ({**h, "dtype": ["int8"]}, b), "dtype ['int8'] is not one of"),
        (lambda h, b: ({**h, "dtype": None}, b), "dtype None is not one of"),
        (lambda h, b: ({k: v for k, v in h.items() if k != "dtype"}, b), "no 'dtype'"),
        (lambda h, b: ({**h, "dtype": "int16"}, b), "too short for its 3 rows of 384 int16"),
        (lambda h, b: ({**h, "dtype": "float64"}, b), "too short for its 3 rows of 384 float64"),
        (lambda h, b: ({**h, "dimension": None}, b), "dtype 'int8' is not null"),
    ], ids=["norm_zero", "norm_negative", "norm_nan", "norm_inf", "norm_tiny",
            "sum_minus_128_norm_tiny",
            "one_byte_short", "one_byte_long", "no_norms", "unknown_dtype", "unsigned_dtype",
            "numpy_dtype_string", "number_dtype", "list_dtype", "null_dtype", "no_dtype",
            "wider_dtype", "float_dtype", "dtype_without_dimension"])
    def test_malformed_integer_blocks_are_file_corrupt(self, tmp_path, rewrite, message):
        path = tmp_path / "idx.jsonl"
        save_index(_fallback_index(), path)
        header, entries, block = split_index(path)
        assert header["dtype"] == "int8"
        header, block = rewrite(header, block)
        _write_index(path, header, entries, block)
        with pytest.raises(FileCorrupt, match=f"^index {re.escape(str(path))} .*{re.escape(message)}"):
            load_index(path)

    def test_any_appended_byte_is_file_corrupt(self, tmp_path):
        path = tmp_path / "idx.jsonl"
        save_index(_fallback_index(), path)
        data = path.read_bytes()
        for byte in range(256):
            path.write_bytes(data + bytes([byte]))
            with pytest.raises(FileCorrupt):
                load_index(path)


_notes = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=20
).filter(lambda s: s.strip())


@st.composite
def random_indices(draw):
    index = new_index(delta=draw(st.floats(0.1, 0.9, allow_nan=False)))
    n = draw(st.integers(0, 8))
    for i in range(n):
        marker = draw(st.integers(0, 10 ** 6))
        unit = mk_unit(
            f"f{i}.sol::C::g#0", name="g", file_path=f"f{i}.sol",
            body=f"function g() public pure returns (uint) {{ return {marker}; }}")
        kept = index.insert(unit, f"pkg{draw(st.integers(0, 2))}", "1.0")
        if kept and draw(st.booleans()):
            index.entries[-1].label = Label.VULNERABLE
            index.entries[-1].vuln_note = draw(_notes)
    if draw(st.booleans()):
        embed_index(index, FallbackEmbedder())
    index.stats.files_seen = draw(st.integers(0, 50))
    index.stats.functions_seen = draw(st.integers(0, 500))
    return index


class TestPersistenceProperties:
    @settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow])
    @given(index=random_indices())
    def test_round_trip_identity(self, tmp_path_factory, index):
        path = tmp_path_factory.getbasetemp() / "prop_idx.jsonl"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.entry_ids == [e.entry_id for e in index.entries]
        for entry in reversed(index.entries):  # built one at a time, out of order
            assert loaded.find_clone(entry.normalized_source,
                                     entry.content_hash) == keyed(entry)
            assert loaded.entry_by_id(entry.entry_id) == keyed(entry)
        assert loaded == as_loaded(index)
        if index.vectors is None:
            assert loaded.vectors is None and loaded.norms is None
        else:
            assert np.array_equal(loaded.vectors, index.vectors)
            assert np.array_equal(loaded.norms, index.norms)
        save_index(loaded, path)
        assert load_index(path) == as_loaded(index)

    @given(case=generated_contracts())
    def test_generated_units_are_clones_after_a_round_trip(self, tmp_path_factory, case):
        units = extract_units(case[2], "gen.sol")
        index = new_index()
        for unit in units:
            index.insert(unit, "gen", "1.0")
        path = tmp_path_factory.getbasetemp() / "gen_idx.jsonl"
        save_index(index, path)
        loaded = load_index(path)
        for unit in units:
            hit = loaded.find_clone(unit.normalized_source, unit.content_hash)
            assert hit is not None and hit.content_hash == unit.content_hash[:16]
        assert loaded.entries == as_loaded(index).entries
        assert repr(loaded.entries) == repr(as_loaded(index).entries)
