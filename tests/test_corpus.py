"""Archive ingestion, dedup, labels, and index persistence."""

from __future__ import annotations

import json
import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from helpers import FIXTURES, make_archive, mk_unit
from simaudit.corpus import (
    FORMAT_VERSION,
    CorpusIndex,
    Label,
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
    LabelFileMalformed,
)
from simaudit.simindex import FallbackEmbedder, embed_index


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
        before = [(e.entry_id, e.unit.content_hash, e.package) for e in index.entries]
        ingest_archive(index, arch, "lib", "1.0")
        after = [(e.entry_id, e.unit.content_hash, e.package) for e in index.entries]
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
        assert [e.unit.file_path for e in index.entries] == ["good.sol"]
        assert any("bad.sol" in r.message for r in caplog.records)

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
            f"tok,1.0,hash,{target.unit.content_hash},burn skips allowance"])
        report = apply_labels(index, path)
        assert report.applied[0][1] == [target.entry_id]
        assert target.label is Label.VULNERABLE

    def test_vulnerable_entries_stay_in_the_index(self, tmp_path):
        index = _labeled_index()
        _ = apply_labels(index, _write_labels(tmp_path, ["tok,1.0,name,mint,bad"]))
        entry = index.entries[0]
        assert entry.label is Label.VULNERABLE
        assert index.find_clone(entry.unit.normalized_source,
                                entry.unit.content_hash) is entry

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


class TestPersistence:
    def test_round_trip_unembedded(self, tmp_path):
        index = _labeled_index()
        apply_labels(index, _write_labels(tmp_path, ["tok,1.0,name,mint,overmint"]))
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        assert load_index(path) == index

    def test_round_trip_embedded(self, tmp_path):
        index = _labeled_index()
        embed_index(index, FallbackEmbedder())
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded == index
        assert loaded.meta.embedder_id == "fallback-trigram-v1"
        assert np.array_equal(loaded.vectors, index.vectors)

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
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format_version"] == FORMAT_VERSION == 1
        assert set(header) == {"format_version", "embedder_id", "delta",
                               "created_at", "stats"}
        assert header["stats"]["functions_kept"] == len(index.entries)

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
        lines = path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # chop an entry line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileCorrupt) as exc:
            load_index(path)
        assert "line 3" in str(exc.value)

    @pytest.mark.parametrize("rewrite", [
        lambda i, emb: None if i == 0 else emb,         # partial
        lambda i, emb: emb[:-1] if i == 0 else emb,     # ragged
        lambda i, emb: ["x", *emb[1:]],                 # non-numeric
        lambda i, emb: emb[0],                          # scalar rows
    ], ids=["partial", "ragged", "non_numeric", "scalar"])
    def test_malformed_embeddings_are_file_corrupt(self, tmp_path, rewrite):
        index = _labeled_index()
        embed_index(index, FallbackEmbedder())
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        header, *entries = path.read_text().splitlines()
        recs = [json.loads(line) for line in entries]
        for i, rec in enumerate(recs):
            rec["embedding"] = rewrite(i, rec["embedding"])
        path.write_text("\n".join([header, *map(json.dumps, recs)]) + "\n")
        with pytest.raises(FileCorrupt):
            load_index(path)

    def test_kept_count_mismatch_detected(self, tmp_path):
        index = _labeled_index()
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        lines = path.read_text().splitlines()
        del lines[1]  # drop an entry but keep the header's count
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileCorrupt):
            load_index(path)

    def test_missing_file_propagates_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_index(tmp_path / "absent.jsonl")


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
        assert loaded == index
        if index.vectors is None:
            assert loaded.vectors is None
        else:
            assert np.array_equal(loaded.vectors, index.vectors)
        save_index(loaded, path)
        assert load_index(path) == index
