"""End-to-end command line runs: index, scan, eval, exit codes, metrics."""

from __future__ import annotations

import json
import re
import shutil
import threading
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given
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
    bad_templates,
    damage_block,
    damage_text,
    deflate_text,
    entry_record,
    index_text,
    make_archive,
    mistype,
    restamp,
    rewrite_index,
    split_index,
)
from simaudit import cli, corpus, simindex
from simaudit.agents import CallLog
from simaudit.cli import _package_version, main
from simaudit.corpus import Label, load_index
from simaudit.errors import ProviderError
from simaudit.metrics import EvalMetrics

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "simaudit" / "schemas"
     / "scan_report.v1.schema.json").read_text(encoding="utf-8"))

REFERENCE = (FIXTURES / "reference_erc20.sol").read_text(encoding="utf-8")
TARGET = (FIXTURES / "target_token.sol").read_text(encoding="utf-8")
MOCK_FIXTURE = str(FIXTURES / "mock_debate.json")


def _build_index(tmp_path, *extra, labels=False):
    """Index the reference token package; optionally label transferFrom."""
    archives = tmp_path / "archives"
    archives.mkdir(exist_ok=True)
    make_archive(archives / "tokenlib-1.0.0.tgz", {"erc20.sol": REFERENCE})
    out = tmp_path / "index.jsonl"
    argv = ["index", "--archives", str(archives), "--out", str(out), *extra]
    if labels:
        labels_path = tmp_path / "labels.csv"
        labels_path.write_text(
            "package,version,match_kind,match_value,note\n"
            "tokenlib,1.0.0,name,transferFrom,allowance handling is delicate here\n",
            encoding="utf-8")
        argv += ["--labels", str(labels_path)]
    assert main(argv) == 0
    return out


def _target_dir(tmp_path):
    d = tmp_path / "audit"
    d.mkdir(exist_ok=True)
    (d / "token.sol").write_text(TARGET, encoding="utf-8")
    return d



def _scan(tmp_path, *extra, index=None, report_name="report.json"):
    index = index or _build_index(tmp_path, labels=True)
    report = tmp_path / report_name
    code = main(["scan", "--input", str(_target_dir(tmp_path)),
                 "--index", str(index), "--provider", "mock",
                 "--mock-fixture", MOCK_FIXTURE,
                 "--report", str(report), *extra])
    return code, report


class TestIndexCommand:
    def test_stats_line_and_saved_index(self, tmp_path, capsys):
        out = _build_index(tmp_path)
        assert capsys.readouterr().out == "files=1 functions_seen=3 functions_kept=3\n"
        index = load_index(out)
        names = sorted(e.name for e in index.entries)
        assert names == ["_approve", "_transfer", "transferFrom"]
        assert index.meta.embedder_id == "fallback-trigram-v1"
        assert index.vectors.shape == (len(index.entries), 384)

    def test_unit_past_the_floor_is_kept(self, tmp_path, capsys, caplog, monkeypatch):
        """A unit has no cap of its own: one longer than the floor of the
        bound on an index's text is kept, with no warning, as long as the
        whole text is within 16 times the file."""
        monkeypatch.setattr(corpus, "TEXT_BOUND_FLOOR", 400)
        out = _build_index(tmp_path)
        assert capsys.readouterr().out == "files=1 functions_seen=3 functions_kept=3\n"
        kept = {e.name: e for e in load_index(out).entries}
        assert sorted(kept) == ["_approve", "_transfer", "transferFrom"]
        assert len(kept["_transfer"].raw_source.encode("utf-8")) == 482
        assert caplog.records == []

    def test_directory_named_like_an_archive_is_skipped(self, tmp_path, capsys):
        (tmp_path / "archives" / "weird-1.0.tgz").mkdir(parents=True)
        out = _build_index(tmp_path)
        assert capsys.readouterr().out == "files=1 functions_seen=3 functions_kept=3\n"
        assert {e.package for e in load_index(out).entries} == {"tokenlib"}

    def test_labels_are_applied(self, tmp_path):
        out = _build_index(tmp_path, labels=True)
        index = load_index(out)
        by_name = {e.name: e for e in index.entries}
        assert by_name["transferFrom"].label is Label.VULNERABLE
        assert by_name["transferFrom"].vuln_note == "allowance handling is delicate here"
        assert by_name["_transfer"].label is Label.CLEAN

    def test_unmatched_label_rows_warn_but_do_not_fail(self, tmp_path, capsys):
        archives = tmp_path / "archives"
        archives.mkdir()
        make_archive(archives / "tokenlib-1.0.0.tgz", {"erc20.sol": REFERENCE})
        labels = tmp_path / "labels.csv"
        labels.write_text(
            "package,version,match_kind,match_value,note\n"
            "ghostlib,9.9.9,name,transferFrom,never shipped\n",
            encoding="utf-8")
        code = main(["index", "--archives", str(archives),
                     "--out", str(tmp_path / "idx.jsonl"), "--labels", str(labels)])
        assert code == 0
        assert "label row matched nothing" in capsys.readouterr().err

    def test_unmatched_label_row_names_its_line(self, tmp_path, capsys):
        archives = tmp_path / "archives"
        archives.mkdir()
        make_archive(archives / "tokenlib-1.0.0.tgz", {"erc20.sol": REFERENCE})
        labels = tmp_path / "labels.csv"
        labels.write_text(
            "package,version,match_kind,match_value,note\n"
            'tokenlib,1.0.0,name,transferFrom,"a note\non two lines"\n'
            "ghostlib,9.9.9,name,transferFrom,never shipped\n",
            encoding="utf-8")
        code = main(["index", "--archives", str(archives),
                     "--out", str(tmp_path / "idx.jsonl"), "--labels", str(labels)])
        assert code == 0
        assert capsys.readouterr().err == (
            "simaudit: line 4: label row matched nothing: ghostlib@9.9.9 name 'transferFrom'\n")

    def test_bad_label_row_names_its_line_after_a_two_line_field(self, tmp_path, capsys):
        archives = tmp_path / "archives"
        archives.mkdir()
        make_archive(archives / "tokenlib-1.0.0.tgz", {"erc20.sol": REFERENCE})
        labels = tmp_path / "labels.csv"
        labels.write_text(
            "package,version,match_kind,match_value,note\n"
            'tokenlib,1.0.0,name,transferFrom,"a note\non two lines"\n'
            "tokenlib,1.0.0,bogus,x,note\n",
            encoding="utf-8")
        code = main(["index", "--archives", str(archives),
                     "--out", str(tmp_path / "idx.jsonl"), "--labels", str(labels)])
        assert code == 3
        assert capsys.readouterr().err == (
            "simaudit: line 4: match_kind must be name or hash, got 'bogus'\n")

    def test_non_numeric_remote_embeddings_exit_provider(self, tmp_path, capsys):
        archives = tmp_path / "archives"
        archives.mkdir()
        make_archive(archives / "tokenlib-1.0.0.tgz", {"erc20.sol": REFERENCE})
        config = tmp_path / "config.json"
        out = tmp_path / "idx.jsonl"
        with CannedHTTPServer(lambda body: {"vectors": [["x", 1.0] for _ in body["texts"]]}
                              ) as server:
            config.write_text(json.dumps({"embedding": {"endpoint": server.url}}),
                              encoding="utf-8")
            code = main(["index", "--archives", str(archives), "--out", str(out),
                         "--embedder", "remote", "--config", str(config)])
        assert code == 4
        assert capsys.readouterr().err.startswith("simaudit: ")
        assert not out.exists()

    def test_remote_embeddings_nested_too_deep_exit_provider(self, tmp_path, capsys):
        archives = tmp_path / "archives"
        archives.mkdir()
        make_archive(archives / "tokenlib-1.0.0.tgz", {"erc20.sol": REFERENCE})
        config = tmp_path / "config.json"
        out = tmp_path / "idx.jsonl"
        with CannedHTTPServer(DEEP_JSON.encode("utf-8")) as server:
            config.write_text(json.dumps({"embedding": {"endpoint": server.url}}),
                              encoding="utf-8")
            code = main(["index", "--archives", str(archives), "--out", str(out),
                         "--embedder", "remote", "--config", str(config)])
        assert code == 4
        assert capsys.readouterr().err == f"simaudit: embedding endpoint failed: {TOO_DEEP}\n"
        assert len(server.requests) == 2    # tried once more, then final
        assert not out.exists()

    def test_a_wider_remote_request_exits_provider(self, tmp_path, monkeypatch, capsys):
        """Every request of one index build must be as wide as its first."""
        monkeypatch.delenv("SIMAUDIT_EMBED_ENDPOINT", raising=False)
        monkeypatch.setattr(simindex, "EMBED_CHUNK", 1)
        archives = tmp_path / "archives"
        archives.mkdir()
        make_archive(archives / "tokenlib-1.0.0.tgz", {"erc20.sol": REFERENCE})
        config = tmp_path / "config.json"
        out = tmp_path / "idx.jsonl"
        posts = []

        def reply(body):
            posts.append(body)
            return {"vectors": [[1.0, 0.5, 0.25] + [0.0] * (len(posts) == 2)]}

        with CannedHTTPServer(reply) as server:
            config.write_text(json.dumps({"embedding": {"endpoint": server.url}}),
                              encoding="utf-8")
            code = main(["index", "--archives", str(archives), "--out", str(out),
                         "--embedder", "remote", "--config", str(config)])
        assert code == 4
        assert capsys.readouterr().err == (
            "simaudit: embedding endpoint returned 4 dims, expected 3\n")
        assert len(server.requests) == 2    # no retry, and no request after it
        assert not out.exists()

    def test_labels_that_are_not_utf8_are_format_error(self, tmp_path, capsys):
        archives = tmp_path / "archives"
        archives.mkdir()
        make_archive(archives / "tokenlib-1.0.0.tgz", {"erc20.sol": REFERENCE})
        labels = tmp_path / "labels.csv"
        labels.write_bytes(b"package,version,match_kind,match_value,note\n"
                           b"tokenlib,1.0.0,name,transferFrom,caf\xe9\n")
        out = tmp_path / "index.jsonl"
        code = main(["index", "--archives", str(archives), "--out", str(out),
                     "--labels", str(labels)])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            f"simaudit: labels {labels} is not UTF-8 text: invalid continuation byte at byte ")
        assert not out.exists()

    def test_missing_archive_dir_is_io_error(self, tmp_path, capsys):
        code = main(["index", "--archives", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "idx.jsonl")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_package_version_parsing(self):
        assert _package_version(Path("tokenlib-1.0.0.tgz")) == ("tokenlib", "1.0.0")
        assert _package_version(Path("multi-part-2.3.tar.gz")) == ("multi-part", "2.3")
        assert _package_version(Path("noversion.tgz")) == ("noversion", "0")
        assert _package_version(Path("trailing-x.tgz")) == ("trailing-x", "0")


class TestScanCommand:
    def test_golden_flow(self, tmp_path, capsys):
        code, report_path = _scan(tmp_path)
        assert code == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        jsonschema.validate(instance=report, schema=SCHEMA)

        out = capsys.readouterr().out.splitlines()[-1]
        assert out == f"units=3 vulnerable=1 errors=0 report={report_path}"

        by_name = {r["name"]: r for r in report["units"]}
        tf = by_name["transferFrom"]
        assert tf["category"] == "similar"
        assert tf["verdict"]["is_vulnerable"] is True
        assert tf["verdict"]["vuln_type"] == "logic error"
        assert tf["verdict"]["decided_by"] == "Judge"
        assert tf["provider_calls"] == 4
        assert len(tf["matches"]) == 3
        assert [e["role"] for e in report["transcripts"][tf["unit_id"]]] == [
            "Detector", "Critic", "Supporter", "Judge"]
        for helper in ("_transfer", "_approve"):
            rec = by_name[helper]
            assert rec["category"] == "clone"
            assert rec["provider_calls"] == 0
            assert rec["verdict"]["is_vulnerable"] is False
        assert report["summary"]["provider_calls"] == 4

    def test_report_matches_the_golden_fixture(self, tmp_path, monkeypatch):
        """Every report byte but the timing block is pinned. Relative paths
        keep the temporary directory out of the report."""
        monkeypatch.chdir(tmp_path)
        Path("archives").mkdir()
        make_archive(Path("archives/tokenlib-1.0.0.tgz"), {"erc20.sol": REFERENCE})
        shutil.copy(FIXTURES / "target_token.sol", "target_token.sol")
        shutil.copy(MOCK_FIXTURE, "mock_debate.json")
        assert main(["index", "--archives", "archives", "--out", "index.jsonl"]) == 0
        assert main(["scan", "--input", "target_token.sol", "--index", "index.jsonl",
                     "--provider", "mock", "--mock-fixture", "mock_debate.json",
                     "--report", "report.json"]) == 0
        report = json.loads(Path("report.json").read_text(encoding="utf-8"))
        report.pop("timing")
        golden = (FIXTURES / "golden_scan_report.json").read_text(encoding="utf-8")
        assert json.dumps(report, indent=2, sort_keys=True) + "\n" == golden

    def test_k_sets_the_matches_per_unit(self, tmp_path):
        code, report_path = _scan(tmp_path, "--k", "1")
        assert code == 0
        units = json.loads(report_path.read_text(encoding="utf-8"))["units"]
        debated = [r for r in units if r["category"] != "clone"]
        assert [r["name"] for r in debated] == ["transferFrom"]
        assert all(len(r["matches"]) == 1 for r in debated)

    def test_report_identical_across_runs_apart_from_timing(self, tmp_path):
        index = _build_index(tmp_path, labels=True)
        _, first = _scan(tmp_path, index=index, report_name="r1.json")
        _, second = _scan(tmp_path, index=index, report_name="r2.json")
        a = json.loads(first.read_text())
        b = json.loads(second.read_text())
        a.pop("timing")
        b.pop("timing")
        a["inputs"].pop("index")  # differs only when index paths differ
        b["inputs"].pop("index")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_records_carry_exactly_the_schema_keys(self, tmp_path, monkeypatch):
        """The schema names required keys but forbids no others, so a field
        added to a record's dataclass must show here."""
        class FailsOnBroken:
            def __init__(self, provider):
                self.provider = provider

            def complete(self, messages, config):
                if "function broken(" in messages[0]["content"]:
                    raise ProviderError("endpoint down")
                return self.provider.complete(messages, config)

        real = cli._make_llm_provider
        monkeypatch.setattr(cli, "_make_llm_provider",
                            lambda args, config: FailsOnBroken(real(args, config)))
        (_target_dir(tmp_path) / "broken.sol").write_text(
            "contract B {\n    function broken() public { }\n}\n", encoding="utf-8")
        code, report_path = _scan(tmp_path)
        assert code == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        unit_schema = SCHEMA["properties"]["units"]["items"]
        keys = {
            "unit": set(unit_schema["required"]),
            "match": set(unit_schema["properties"]["matches"]["items"]["required"]),
            "verdict": set(unit_schema["properties"]["verdict"]["oneOf"][1]["required"]),
            "entry": set(SCHEMA["properties"]["transcripts"]["additionalProperties"]
                         ["items"]["required"]),
        }
        units = report["units"]
        assert any(r["category"] == "clone" for r in units)
        assert [r["name"] for r in units if r["verdict"] == "error"] == ["broken"]
        assert any(r["transcript_ref"] for r in units)
        for record in units:
            assert set(record) == keys["unit"]
            assert all(set(match) == keys["match"] for match in record["matches"])
            if record["verdict"] != "error":
                assert set(record["verdict"]) == keys["verdict"]
        for transcript in report["transcripts"].values():
            assert all(set(entry) == keys["entry"] for entry in transcript)
        assert set(EvalMetrics.from_counts(1, 2, 3, 4).to_dict()) == {
            "tp", "tn", "fp", "fn", "unscored", "precision", "recall", "f1", "accuracy"}

    def test_delta_defaults_to_the_index_value(self, tmp_path):
        index = _build_index(tmp_path, "--delta", "0.9", labels=True)
        code, report_path = _scan(tmp_path, index=index)
        assert code == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["inputs"]["delta"] == 0.9
        tf = next(r for r in report["units"] if r["name"] == "transferFrom")
        assert tf["category"] == "dissimilar"    # "similar" at the default 0.65
        for m in tf["matches"]:
            assert m["category"] == ("similar" if m["similarity"] > 0.9 else "dissimilar")

    def test_fail_on_findings(self, tmp_path):
        code, _ = _scan(tmp_path, "--fail-on-findings")
        assert code == 1

    def test_markdown_and_callgraph_outputs(self, tmp_path):
        md = tmp_path / "report.md"
        dot = tmp_path / "graph.dot"
        code, report = _scan(tmp_path, "--report-md", str(md),
                             "--emit-callgraph", str(dot))
        assert code == 0
        md_text = md.read_text(encoding="utf-8")
        assert "VULNERABLE (logic error)" in md_text
        assert "transferFrom" in md_text
        dot_text = dot.read_text(encoding="utf-8")
        assert dot_text.startswith("digraph")
        assert "transferFrom" in dot_text and "_transfer" in dot_text
        edges = json.loads(report.read_text(encoding="utf-8"))["callgraph"]["edges"]
        assert edges
        for caller, callee in edges:
            assert f'  "{caller}" -> "{callee}";\n' in dot_text

    def test_unit_error_does_not_fail_the_run(self, tmp_path, capsys):
        index = _build_index(tmp_path, labels=True)
        report = tmp_path / "report.json"
        code = main(["scan", "--input", str(_target_dir(tmp_path)),
                     "--index", str(index), "--provider", "mock",
                     "--report", str(report)])   # mock with no canned responses
        assert code == 0
        data = json.loads(report.read_text())
        assert data["summary"] == dict(data["summary"],
                                       vulnerable=0, errors=1, units=3)
        out = capsys.readouterr().out.splitlines()[-1]
        assert "vulnerable=0 errors=1" in out


    def test_directory_named_like_a_source_is_skipped(self, tmp_path):
        (_target_dir(tmp_path) / "lib.sol").mkdir()
        code, report = _scan(tmp_path)
        assert code == 0
        files = json.loads(report.read_text(encoding="utf-8"))["inputs"]["files"]
        assert files == [str(tmp_path / "audit" / "token.sol")]

    def test_failed_report_write_keeps_the_old_report(self, tmp_path, monkeypatch, capsys):
        index = _build_index(tmp_path, labels=True)
        report = tmp_path / "report.json"
        report.write_text("old report\n", encoding="utf-8")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("os.replace", refuse)
        code, _ = _scan(tmp_path, index=index)
        assert code == 2
        assert "disk full" in capsys.readouterr().err
        assert report.read_text(encoding="utf-8") == "old report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "archives", "audit", "index.jsonl", "labels.csv", "report.json"]

    def test_config_model_is_sent_in_every_request(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SIMAUDIT_LLM_ENDPOINT", raising=False)
        monkeypatch.delenv("SIMAUDIT_LLM_KEY", raising=False)
        index = _build_index(tmp_path, labels=True)
        # One block that carries the keys of every role.
        reply = ('```json\n{"findings": [], "rebuttals": [], "assessment": "none", '
                 '"is_vulnerable": false, "vuln_type": "", "explanation": "", '
                 '"confidence": "Low"}\n```')
        config = tmp_path / "config.json"
        with CannedHTTPServer({"choices": [{"message": {"content": reply}}]}) as server:
            config.write_text(json.dumps({"llm": {"model": "m2", "endpoint": server.url}}),
                              encoding="utf-8")
            code = main(["scan", "--input", str(_target_dir(tmp_path)),
                         "--index", str(index), "--provider", "remote",
                         "--config", str(config), "--report", str(tmp_path / "r.json")])
        assert code == 0
        bodies = [req["body"] for req in server.requests]
        assert [body["model"] for body in bodies] == ["m2"] * 4   # one debate
        assert [body["temperature"] for body in bodies] == [0.8, 0.0, 0.0, 0.0]


class TestScanExitCodes:
    def test_missing_index_is_io(self, tmp_path, capsys):
        code = main(["scan", "--input", str(_target_dir(tmp_path)),
                     "--index", str(tmp_path / "absent.jsonl"), "--provider", "mock",
                     "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert "simaudit:" in capsys.readouterr().err

    def test_null_model_content_is_an_error_verdict(self, tmp_path, monkeypatch):
        index = _build_index(tmp_path, labels=True)
        report_path = tmp_path / "r.json"
        with CannedHTTPServer({"choices": [{"message": {"content": None}}]}) as server:
            monkeypatch.setenv("SIMAUDIT_LLM_ENDPOINT", server.url)
            code = main(["scan", "--input", str(_target_dir(tmp_path)),
                         "--index", str(index), "--report", str(report_path)])
        assert code == 0
        by_name = {r["name"]: r for r in
                   json.loads(report_path.read_text(encoding="utf-8"))["units"]}
        tf = by_name["transferFrom"]
        assert tf["verdict"] == "error"
        assert "not a string" in tf["error_message"]
        assert tf["provider_calls"] == 2  # the Detector's call and its one retry
        assert len(server.requests) == 2
        for helper in ("_transfer", "_approve"):
            assert by_name[helper]["category"] == "clone"
            assert by_name[helper]["verdict"]["decided_by"] == "CloneShortCircuit"

    def test_bad_template_is_format_error_without_a_report(self, tmp_path, capsys):
        index = _build_index(tmp_path, labels=True)
        templates = bad_templates(tmp_path / "templates")
        threads_before = set(threading.enumerate())
        code, report = _scan(tmp_path, "--templates", str(templates), index=index)
        assert code == 3
        assert capsys.readouterr().err.startswith("simaudit: Critic template needs slot")
        assert not report.exists()
        assert set(threading.enumerate()) == threads_before

    def test_source_that_is_not_utf8_is_format_error(self, tmp_path, capsys):
        index = _build_index(tmp_path, labels=True)
        capsys.readouterr()
        source = _target_dir(tmp_path) / "latin1.sol"
        data = b'contract L { function f() public { s = "caf\xe9"; } }\n'
        source.write_bytes(data)
        code, report = _scan(tmp_path, index=index)
        assert code == 3
        assert capsys.readouterr().err == (f"simaudit: source {source} is not UTF-8 text: "
                                           f"invalid continuation byte at byte {data.index(0xE9)}\n")
        assert not report.exists()

    @pytest.mark.parametrize("data, message", [
        (b'{"defaults": {"Judge": "caf\xe9"}}', "is not UTF-8 text"),
        (b'{"defaults": ', "is malformed: JSONDecodeError"),
        (b'["Judge"]', "is malformed: AttributeError"),
        (b'{"responses": [{"role": "Auditor"}]}', "is malformed: ValueError"),
        (DEEP_JSON.encode("utf-8"), f"is malformed: RecursionError('{TOO_DEEP}')\n"),
        (b'{"defaults": {"Detector": 5}}',
         "is malformed: TypeError('response 5 is not a string')\n"),
        (b'{"defaults": {"Judge": null}}',
         "is malformed: TypeError('response None is not a string')\n"),
        (b'{"responses": [{"role": "Critic", "prompt_sha256": "ab", "response": ["x"]}]}',
         "is malformed: TypeError(\"response ['x'] is not a string\")\n"),
    ], ids=["not_utf8", "truncated_json", "not_an_object", "unknown_role", "nested_too_deep",
            "int_default", "null_default", "list_response"])
    def test_bad_mock_fixture_is_format_error(self, tmp_path, capsys, data, message):
        index = _build_index(tmp_path, labels=True)
        capsys.readouterr()
        fixture = tmp_path / "fixture.json"
        fixture.write_bytes(data)
        report = tmp_path / "report.json"
        code = main(["scan", "--input", str(_target_dir(tmp_path)), "--index", str(index),
                     "--provider", "mock", "--mock-fixture", str(fixture),
                     "--report", str(report)])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"simaudit: mock fixture {fixture} {message}")
        assert not report.exists()

    def test_template_that_is_not_utf8_is_format_error(self, tmp_path, capsys):
        index = _build_index(tmp_path, labels=True)
        capsys.readouterr()
        templates = bad_templates(tmp_path / "templates")
        (templates / "judge.txt").write_bytes(b"Judge $target \xff\n")
        code, report = _scan(tmp_path, "--templates", str(templates), index=index)
        assert code == 3
        assert capsys.readouterr().err.startswith(
            f"simaudit: template {templates / 'judge.txt'} is not UTF-8 text: ")
        assert not report.exists()

    def test_corrupt_index_is_format_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not an index\n", encoding="utf-8")
        code = main(["scan", "--input", str(_target_dir(tmp_path)),
                     "--index", str(bad), "--provider", "mock",
                     "--report", str(tmp_path / "r.json")])
        assert code == 3

    def test_newer_format_version_is_refused(self, tmp_path):
        index_path = _build_index(tmp_path)
        head, rest = index_path.read_bytes().split(b"\n", 1)
        header = {**json.loads(head), "format_version": 99}
        index_path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + rest)
        code = main(["scan", "--input", str(_target_dir(tmp_path)),
                     "--index", str(index_path), "--provider", "mock",
                     "--report", str(tmp_path / "r.json")])
        assert code == 3

    @pytest.mark.parametrize("embedder_id", [5, ["fallback-trigram-v1"], True],
                             ids=["number", "list", "true"])
    def test_mistyped_embedder_id_is_format_error_not_provider(self, tmp_path, capsys,
                                                                embedder_id):
        index_path = _build_index(tmp_path)
        head, rest = index_path.read_bytes().split(b"\n", 1)
        header = {**json.loads(head), "embedder_id": embedder_id}
        index_path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + rest)
        code = main(["scan", "--input", str(_target_dir(tmp_path)),
                     "--index", str(index_path), "--provider", "mock",
                     "--report", str(tmp_path / "r.json")])
        assert code == 3
        assert "header is malformed: embedder_id" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("edit", HEADER_EDITS.values(), ids=HEADER_EDITS)
    def test_changed_header_value_is_format_error(self, tmp_path, capsys, edit):
        """A well-formed header value changed under the saved digest stops
        the scan with exit 3 and writes no report."""
        index_path = _build_index(tmp_path, labels=True)
        head, rest = index_path.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        index_path.write_bytes(json.dumps({**header, **edit(header)}).encode("utf-8")
                               + b"\n" + rest)
        capsys.readouterr()
        code, report = _scan(tmp_path, index=index_path)
        assert code == 3
        assert capsys.readouterr().err == (
            f"simaudit: index {index_path} does not match the header's digest\n")
        assert not report.exists()

    def test_format_1_index_is_refused_with_a_rebuild_hint(self, tmp_path, capsys):
        index_path = _build_index(tmp_path)
        vectors = load_index(index_path).rows()
        header, lines, _ = split_index(index_path)
        entries = map(json.loads, lines[:-1])
        del header["dimension"], header["dtype"]
        header["format_version"] = 1
        lines = [json.dumps(header)]
        for rec, row in zip(entries, vectors.tolist()):
            rec = {**entry_record(rec), "embedding": row}
            rec["unit"] = rec.pop("unit")       # format 1 put the row before the unit
            lines.append(json.dumps(rec))
        index_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["scan", "--input", str(_target_dir(tmp_path)),
                     "--index", str(index_path), "--provider", "mock",
                     "--report", str(tmp_path / "r.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert "is format 1, this build reads format 14" in err
        assert "rebuild it with `simaudit index`" in err
        assert not (tmp_path / "r.json").exists()

    def test_format_4_index_is_refused_with_a_rebuild_hint(self, tmp_path, capsys):
        index_path = _build_index(tmp_path)
        index = load_index(index_path)

        def add_normalized(pos, fields):  # format 4 stored it after raw_source
            rec = entry_record(fields)
            *head, calls, span = rec["unit"].items()
            rec["unit"] = dict([*head, ("normalized_source", index.normalized_source(pos)),
                                calls, span])
            return rec

        rewrite_index(index_path, add_normalized, format_version=4)
        code = main(["scan", "--input", str(_target_dir(tmp_path)),
                     "--index", str(index_path), "--provider", "mock",
                     "--report", str(tmp_path / "r.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert "is format 4, this build reads format 14" in err
        assert "rebuild it with `simaudit index`" in err
        assert not (tmp_path / "r.json").exists()

    def test_format_5_index_is_refused_with_a_rebuild_hint(self, tmp_path, capsys):
        index_path = _build_index(tmp_path)
        vectors = load_index(index_path).rows()
        header, lines, _ = split_index(index_path)
        text = index_text(lines)  # not deflated
        del header["dtype"]      # format 5 stored the float64 matrix itself
        header["format_version"] = 5
        index_path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + text
                               + vectors.astype("<f8").tobytes())
        code = main(["scan", "--input", str(_target_dir(tmp_path)),
                     "--index", str(index_path), "--provider", "mock",
                     "--report", str(tmp_path / "r.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert "is format 5, this build reads format 14" in err
        assert "rebuild it with `simaudit index`" in err
        assert not (tmp_path / "r.json").exists()

    def test_indexed_source_that_does_not_normalize_is_format_error(self, tmp_path, capsys):
        index_path = _build_index(tmp_path)
        rewrite_index(index_path, lambda pos, fields: [*fields[:5], 'function f() { "x }'])
        code = main(["scan", "--input", str(_target_dir(tmp_path)),
                     "--index", str(index_path), "--provider", "mock",
                     "--report", str(tmp_path / "r.json")])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"simaudit: index {index_path} line ")
        assert not (tmp_path / "r.json").exists()

    def test_format_7_index_is_refused_with_a_rebuild_hint(self, tmp_path, capsys):
        index_path = _build_index(tmp_path)
        # Format 7 wrote each entry line as an object.
        rewrite_index(index_path, lambda pos, fields: entry_record(fields), format_version=7)
        code = main(["scan", "--input", str(_target_dir(tmp_path)),
                     "--index", str(index_path), "--provider", "mock",
                     "--report", str(tmp_path / "r.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert "is format 7, this build reads format 14" in err
        assert "rebuild it with `simaudit index`" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("damage", TEXT_DAMAGE)
    def test_stored_source_that_does_not_inflate_is_format_error(self, tmp_path, capsys,
                                                                 damage):
        """The deflated text that stores the raw sources damaged, under a
        matching digest: the scan stops with exit 3 and writes no report."""
        index_path = _build_index(tmp_path, labels=True)
        index_path.write_bytes(restamp(damage_text(index_path.read_bytes(), damage)))
        capsys.readouterr()
        code, report = _scan(tmp_path, index=index_path)
        assert code == 3
        assert capsys.readouterr().err.startswith(
            f"simaudit: index {index_path} entry text {TEXT_DAMAGE[damage][1]}")
        assert not report.exists()

    @pytest.mark.parametrize("damage", BLOCK_DAMAGE)
    def test_vector_block_that_does_not_inflate_is_format_error(self, tmp_path, capsys,
                                                                damage):
        """The deflated vector block or its length damaged, under a matching
        digest: the scan stops with exit 3 and writes no report."""
        index_path = _build_index(tmp_path, labels=True)
        index_path.write_bytes(restamp(damage_block(index_path.read_bytes(), damage)))
        capsys.readouterr()
        code, report = _scan(tmp_path, index=index_path)
        assert code == 3
        assert capsys.readouterr().err.startswith(
            f"simaudit: index {index_path} vector block {BLOCK_DAMAGE[damage][1]}")
        assert not report.exists()

    @pytest.mark.parametrize("line, pos", [
        *(("entry", pos) for pos in range(len(ENTRY_FIELDS))), ("key", 0), ("key", 1),
    ], ids=[*ENTRY_FIELDS, "entry_id", "content_hash"])
    def test_mistyped_index_field_is_format_error(self, tmp_path, capsys, line, pos):
        """A field of another JSON type in an index whose digest matches stops
        the scan with exit 3, naming the line, and writes no report."""
        index_path = _build_index(tmp_path, labels=True)
        if line == "entry":
            rewrite_index(index_path, lambda _, fields: mistype(fields, pos))
        else:
            rewrite_index(index_path, keys=lambda pairs: [mistype(p, pos) for p in pairs])
        capsys.readouterr()
        code, report = _scan(tmp_path, index=index_path)
        assert code == 3
        assert re.match(rf"simaudit: index {re.escape(str(index_path))} line \d+: ",
                        capsys.readouterr().err)
        assert not report.exists()

    @pytest.mark.parametrize("line, number", [("header", "1"), ("entry", r"\d"), ("key", "5")],
                             ids=["header", "entry", "key"])
    def test_index_line_nested_too_deep_is_format_error(self, tmp_path, capsys, line, number):
        """A line nested past the recursion limit, under a matching digest
        where the line is under it, stops the scan with exit 3."""
        index_path = _build_index(tmp_path, labels=True)
        if line == "header":
            text = index_path.read_bytes()
            index_path.write_bytes(DEEP_JSON.encode("utf-8") + text[text.index(b"\n"):])
        elif line == "entry":
            rewrite_index(index_path, lambda pos, fields: RawJSON(DEEP_JSON))
        else:
            rewrite_index(index_path, keys=lambda pairs: RawJSON(DEEP_JSON))
        capsys.readouterr()
        code, report = _scan(tmp_path, index=index_path)
        assert code == 3
        assert re.fullmatch(rf"simaudit: index {re.escape(str(index_path))} line {number}: "
                            rf"{re.escape(TOO_DEEP)}\n", capsys.readouterr().err)
        assert not report.exists()

    @pytest.mark.parametrize("data", [
        b'{"format_version": 2}\n\xff\xfe\n',
        b'{"format_version": 14, "embedder_id": null, "delta": 0.65, "created_at": "t", '
        b'"stats": {"files_seen": 1, "functions_seen": 1, "functions_kept": 1}, '
        b'"dimension": null, "dtype": null, "digest": "' + b"0" * 64 + b'"}'
        b'\n' + deflate_text(b'\xff\xfe\n[]\n'),
        b'{"format_version": 14, "created_at": "\xff\xfe"}\n',
    ], ids=["format_2_header", "format_4_entry", "format_4_header"])
    def test_index_that_is_not_utf8_is_format_error(self, tmp_path, capsys, data):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(data)
        code = main(["scan", "--input", str(_target_dir(tmp_path)),
                     "--index", str(bad), "--provider", "mock",
                     "--report", str(tmp_path / "r.json")])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"simaudit: index {bad} ")
        assert not (tmp_path / "r.json").exists()

    def test_remote_provider_without_endpoint(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SIMAUDIT_LLM_ENDPOINT", raising=False)
        monkeypatch.delenv("SIMAUDIT_LLM_KEY", raising=False)
        index = _build_index(tmp_path)
        code = main(["scan", "--input", str(_target_dir(tmp_path)),
                     "--index", str(index),
                     "--report", str(tmp_path / "r.json")])   # default: remote
        assert code == 4
        assert "endpoint" in capsys.readouterr().err

    def test_remote_embedded_index_without_endpoint(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SIMAUDIT_EMBED_ENDPOINT", raising=False)
        archives = tmp_path / "archives"
        archives.mkdir()
        make_archive(archives / "tokenlib-1.0.0.tgz", {"erc20.sol": REFERENCE})
        config = tmp_path / "config.json"
        index = tmp_path / "idx.jsonl"
        with CannedHTTPServer(lambda body: {"vectors": [[1.0, 0.5] for _ in body["texts"]]}
                              ) as server:
            config.write_text(json.dumps({"embedding": {"endpoint": server.url}}),
                              encoding="utf-8")
            assert main(["index", "--archives", str(archives), "--out", str(index),
                         "--embedder", "remote", "--config", str(config)]) == 0
        capsys.readouterr()
        code = main(["scan", "--input", str(_target_dir(tmp_path)), "--index", str(index),
                     "--provider", "mock", "--report", str(tmp_path / "r.json")])
        assert code == 4
        assert capsys.readouterr().err == ("simaudit: remote embedder needs an endpoint "
                                           "(config file or SIMAUDIT_EMBED_ENDPOINT)\n")
        assert not (tmp_path / "r.json").exists()

    @staticmethod
    def _remote_index_then_scan(tmp_path, index_embedding, scan_embedding):
        """Index through endpoint A and scan through endpoint B, each with its
        own config's embedding section; returns the scan's exit code, the
        report path and both servers."""
        archives = tmp_path / "archives"
        archives.mkdir()
        make_archive(archives / "tokenlib-1.0.0.tgz", {"erc20.sol": REFERENCE})
        index, report = tmp_path / "idx.jsonl", tmp_path / "r.json"

        def reply(body):
            return {"vectors": [[1.0, 0.5] for _ in body["texts"]]}

        with CannedHTTPServer(reply) as a, CannedHTTPServer(reply) as b:
            config = tmp_path / "index.json"
            config.write_text(json.dumps({"embedding": {**index_embedding, "endpoint": a.url}}),
                              encoding="utf-8")
            assert main(["index", "--archives", str(archives), "--out", str(index),
                         "--embedder", "remote", "--config", str(config)]) == 0
            config = tmp_path / "scan.json"
            config.write_text(json.dumps({"embedding": {**scan_embedding, "endpoint": b.url}}),
                              encoding="utf-8")
            code = main(["scan", "--input", str(_target_dir(tmp_path)), "--index", str(index),
                         "--provider", "mock", "--mock-fixture", MOCK_FIXTURE,
                         "--config", str(config), "--report", str(report)])
        return code, report, a, b

    def test_remote_index_refuses_an_embedder_of_another_endpoint(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SIMAUDIT_EMBED_ENDPOINT", raising=False)
        code, report, a, b = self._remote_index_then_scan(tmp_path, {}, {})
        assert code == 4
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"simaudit: index was embedded by remote:{a.url}, scan provider is remote:{b.url}")
        assert not report.exists()
        assert b.requests == []

    def test_remote_index_is_scanned_by_an_embedder_of_its_id(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SIMAUDIT_EMBED_ENDPOINT", raising=False)
        named = {"provider_id": "remote-emb-v2"}
        code, report, a, b = self._remote_index_then_scan(tmp_path, named, named)
        assert code == 0
        assert json.loads(report.read_text(encoding="utf-8"))["summary"]["units"] > 0
        assert len(a.requests) == 1 and len(b.requests) == 1    # the index's, the scan's


    def test_a_wider_scan_request_fails_only_its_own_units(self, tmp_path, monkeypatch):
        """The scan's own requests share one width: its second request, one
        column wider, is the error of its unit alone."""
        monkeypatch.delenv("SIMAUDIT_EMBED_ENDPOINT", raising=False)
        archives = tmp_path / "archives"
        archives.mkdir()
        make_archive(archives / "tokenlib-1.0.0.tgz", {"erc20.sol": REFERENCE})
        target = tmp_path / "audit"
        target.mkdir()
        (target / "fresh.sol").write_text("contract Fresh {\n" + "".join(
            f"    function f{i}() public pure returns (uint256) {{ return {i}; }}\n"
            for i in range(3)) + "}\n", encoding="utf-8")
        index, report = tmp_path / "idx.jsonl", tmp_path / "r.json"
        posts = []

        def reply(body):
            posts.append(body)
            wider = len(posts) == 3    # the index's request, then the scan's second
            return {"vectors": [[float(len(t)), 0.5, 0.25] + [0.0] * wider
                                for t in body["texts"]]}

        with CannedHTTPServer(reply) as server:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"embedding": {"endpoint": server.url}}),
                              encoding="utf-8")
            assert main(["index", "--archives", str(archives), "--out", str(index),
                         "--embedder", "remote", "--config", str(config)]) == 0
            monkeypatch.setattr(simindex, "EMBED_CHUNK", 1)
            code = main(["scan", "--input", str(target), "--index", str(index),
                         "--provider", "mock", "--mock-fixture", MOCK_FIXTURE,
                         "--config", str(config), "--report", str(report)])
        assert code == 0
        assert len(server.requests) == 4
        units = json.loads(report.read_text(encoding="utf-8"))["units"]
        assert [r["verdict"] == "error" for r in units] == [False, True, False]
        assert units[1]["error_message"] == "embedding endpoint returned 4 dims, expected 3"
        assert units[1]["provider_calls"] == 0
        assert [r["provider_calls"] for r in units[::2]] == [4, 4]
        assert all(len(r["matches"]) == 3 for r in units[::2])


class TestBadArguments:
    @pytest.mark.parametrize("command", ["scan", "eval"])
    @pytest.mark.parametrize("k", ["0", "-1", "two"])
    def test_k_must_be_a_positive_integer(self, tmp_path, capsys, command, k):
        argv = ([command, "--input", "a.sol", "--index", "i.jsonl", "--report", "r.json"]
                if command == "scan" else [command, "--dataset", "d", "--labels", "l.csv"])
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--k", k])
        assert exc.value.code == 2
        assert f"argument --k: must be a positive integer, got '{k}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["index", "scan", "eval"])
    @pytest.mark.parametrize("delta", ["nan", "inf", "-inf", "1e400", "high"])
    def test_delta_must_be_finite(self, tmp_path, capsys, command, delta):
        argv = {"index": ["index", "--archives", str(tmp_path), "--out", "i.jsonl"],
                "scan": ["scan", "--input", "a.sol", "--index", "i.jsonl", "--report", "r.json"],
                "eval": ["eval", "--dataset", "d", "--labels", "l.csv"]}[command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--delta={delta}"])  # "-inf" alone would read as an option
        assert exc.value.code == 2
        assert f"argument --delta: must be a finite number, got '{delta}'" in \
            capsys.readouterr().err
        assert not (tmp_path / "i.jsonl").exists()

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", "\xff", '{"llm": ["x"]}',
                                      '{"embedding": "x"}', '{"llm": {"model": 5}}',
                                      '{"llm": {"endpoint": 5}}', '{"llm": {"api_key": null}}',
                                      '{"embedding": {"endpoint": 5}}',
                                      '{"embedding": {"api_key": ["k"]}}',
                                      '{"embedding": {"provider_id": true}}'])
    def test_malformed_config_is_format_error(self, tmp_path, capsys, text):
        config = tmp_path / "bad.json"
        config.write_bytes(text.encode("latin-1"))
        code = main(["index", "--archives", str(tmp_path), "--out", str(tmp_path / "i.jsonl"),
                     "--config", str(config)])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"simaudit: config {config} ")
        assert not (tmp_path / "i.jsonl").exists()


    @pytest.mark.parametrize("command", ["index", "scan"])
    def test_config_nested_too_deep_is_format_error(self, tmp_path, capsys, command):
        config = tmp_path / "deep.json"
        config.write_text(DEEP_JSON, encoding="utf-8")
        if command == "index":
            code = main(["index", "--archives", str(tmp_path), "--out", str(tmp_path / "i.jsonl"),
                         "--config", str(config)])
            written = tmp_path / "i.jsonl"
        else:
            code, written = _scan(tmp_path, "--config", str(config))
        assert code == 3
        assert capsys.readouterr().err.endswith(
            f"simaudit: config {config} is not valid JSON: {TOO_DEEP}\n")
        assert not written.exists()

    def test_scan_refuses_a_non_string_model(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"llm": {"model": 5}}', encoding="utf-8")
        code, report = _scan(tmp_path, "--config", str(config))
        assert code == 3
        assert "value llm.model must be a string" in capsys.readouterr().err
        assert not report.exists()

    def test_remote_index_refuses_a_non_string_endpoint(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"embedding": {"endpoint": 5}}', encoding="utf-8")
        code = main(["index", "--archives", str(tmp_path), "--out", str(tmp_path / "i.jsonl"),
                     "--embedder", "remote", "--config", str(config)])
        assert code == 3
        assert "value embedding.endpoint must be a string" in capsys.readouterr().err


class TestEvalCommand:
    def _dataset(self, tmp_path):
        d = tmp_path / "dataset"
        d.mkdir(exist_ok=True)
        (d / "clean.sol").write_text(REFERENCE, encoding="utf-8")
        (d / "vuln.sol").write_text(TARGET, encoding="utf-8")
        labels = tmp_path / "eval_labels.csv"
        labels.write_text("sample,label\nclean.sol,negative\nvuln.sol,positive\n",
                          encoding="utf-8")
        return d, labels

    def test_simcheck_suppresses_the_false_positive(self, tmp_path, capsys):
        dataset, labels = self._dataset(tmp_path)
        index = _build_index(tmp_path)   # unlabeled: clones resolve to clean
        metrics_out = tmp_path / "metrics.json"
        code = main(["eval", "--dataset", str(dataset), "--labels", str(labels),
                     "--index", str(index), "--mock-fixture", MOCK_FIXTURE,
                     "--metrics-out", str(metrics_out)])
        assert code == 0
        metrics = json.loads(metrics_out.read_text())
        assert metrics == {"tp": 1, "tn": 1, "fp": 0, "fn": 0, "unscored": 0,
                           "precision": 1.0, "recall": 1.0, "f1": 1.0,
                           "accuracy": 1.0}
        out = capsys.readouterr().out
        assert "precision" in out and "1.0000" in out
        assert "{" not in out          # JSON went to the file, not stdout

    def test_no_simcheck_ablation_flags_everything(self, tmp_path, capsys):
        dataset, labels = self._dataset(tmp_path)
        code = main(["eval", "--dataset", str(dataset), "--labels", str(labels),
                     "--no-simcheck", "--mock-fixture", MOCK_FIXTURE])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["tp"] == 1 and payload["fp"] == 1
        assert payload["precision"] == 0.5
        assert payload["recall"] == 1.0
        assert payload["accuracy"] == 0.5

    @pytest.mark.parametrize("simcheck,want", [
        (True, {"tp": 1, "tn": 1, "fp": 0, "fn": 0}),
        (False, {"tp": 1, "tn": 0, "fp": 1, "fn": 0}),
    ], ids=["simcheck", "no_simcheck"])
    def test_provider_is_built_once_for_all_samples(self, tmp_path, monkeypatch, simcheck, want):
        dataset, labels = self._dataset(tmp_path)
        built = []

        def make_llm_provider(args, config):
            built.append(CallLog(real(args, config)))
            return built[-1]

        real = cli._make_llm_provider
        monkeypatch.setattr(cli, "_make_llm_provider", make_llm_provider)
        metrics_out = tmp_path / "metrics.json"
        index = ["--index", str(_build_index(tmp_path))] if simcheck else ["--no-simcheck"]
        code = main(["eval", "--dataset", str(dataset), "--labels", str(labels), *index,
                     "--mock-fixture", MOCK_FIXTURE, "--metrics-out", str(metrics_out)])
        assert code == 0
        assert len(built) == 1
        assert built[0].calls
        metrics = json.loads(metrics_out.read_text())
        assert {key: metrics[key] for key in want} == want

    def test_missed_positive_is_a_false_negative(self, tmp_path):
        dataset, labels = self._dataset(tmp_path)
        labels.write_text("sample,label\nclean.sol,positive\nvuln.sol,positive\n",
                          encoding="utf-8")
        metrics_out = tmp_path / "metrics.json"
        code = main(["eval", "--dataset", str(dataset), "--labels", str(labels),
                     "--index", str(_build_index(tmp_path)), "--mock-fixture", MOCK_FIXTURE,
                     "--metrics-out", str(metrics_out)])
        assert code == 0
        metrics = json.loads(metrics_out.read_text())
        assert {key: metrics[key] for key in ("tp", "tn", "fp", "fn", "recall")} == {
            "tp": 1, "tn": 0, "fp": 0, "fn": 1, "recall": 0.5}

    def test_sample_whose_model_calls_fail_is_unscored(self, tmp_path, monkeypatch, capsys):
        """Its unit's verdict is error, so the sample is neither a positive
        nor a negative; the other samples score as before."""
        dataset, labels = self._dataset(tmp_path)
        (dataset / "flaky.sol").write_text(
            "contract Flaky { function flakyPing(uint256 n) public returns (uint256) "
            "{ return n + 1; } }\n", encoding="utf-8")
        with open(labels, "a", encoding="utf-8") as f:
            f.write("flaky.sol,negative\n")

        class FailsOnFlaky:
            def __init__(self, provider):
                self.provider = provider

            def complete(self, messages, role):
                if "flakyPing" in messages[-1]["content"]:
                    raise ProviderError("LLM endpoint failed: connection refused")
                return self.provider.complete(messages, role)

        real = cli._make_llm_provider
        monkeypatch.setattr(cli, "_make_llm_provider",
                            lambda args, config: FailsOnFlaky(real(args, config)))
        metrics_out = tmp_path / "metrics.json"
        code = main(["eval", "--dataset", str(dataset), "--labels", str(labels),
                     "--index", str(_build_index(tmp_path)), "--mock-fixture", MOCK_FIXTURE,
                     "--metrics-out", str(metrics_out)])
        assert code == 0
        assert capsys.readouterr().err == (
            "simaudit: sample flaky.sol unscored: 1 of 1 units failed analysis\n")
        assert json.loads(metrics_out.read_text()) == {
            "tp": 1, "tn": 1, "fp": 0, "fn": 0, "unscored": 1,
            "precision": 1.0, "recall": 1.0, "f1": 1.0, "accuracy": 1.0}

    @pytest.mark.parametrize("data, reason", [
        (b"contract C { function f() public {", "unclosed brace in {} at offset 33"),
        (b"contract C { /* caf\xe9 */ }\n",
         "source {} is not UTF-8 text: invalid continuation byte at byte 19"),
    ], ids=["unclosed_brace", "not_utf8"])
    def test_sample_that_does_not_extract_is_unscored(self, tmp_path, capsys, data, reason):
        """eval goes on past it, names it, and scores the other samples."""
        dataset, labels = self._dataset(tmp_path)
        (dataset / "bad.sol").write_bytes(data)
        with open(labels, "a", encoding="utf-8") as f:
            f.write("bad.sol,positive\n")
        metrics_out = tmp_path / "metrics.json"
        code = main(["eval", "--dataset", str(dataset), "--labels", str(labels),
                     "--index", str(_build_index(tmp_path)), "--mock-fixture", MOCK_FIXTURE,
                     "--metrics-out", str(metrics_out)])
        assert code == 0
        reason = reason.format(dataset / "bad.sol")
        assert capsys.readouterr().err == f"simaudit: sample bad.sol unscored: {reason}\n"
        metrics = json.loads(metrics_out.read_text())
        assert {key: metrics[key] for key in ("tp", "tn", "fp", "fn", "unscored", "recall")} == {
            "tp": 1, "tn": 1, "fp": 0, "fn": 0, "unscored": 1, "recall": 1.0}

    def test_unscored_count_is_in_the_table(self, tmp_path, capsys):
        dataset, labels = self._dataset(tmp_path)
        (dataset / "bad.sol").write_text("contract C {", encoding="utf-8")
        with open(labels, "a", encoding="utf-8") as f:
            f.write("bad.sol,negative\n")
        code = main(["eval", "--dataset", str(dataset), "--labels", str(labels),
                     "--no-simcheck", "--mock-fixture", MOCK_FIXTURE])
        assert code == 0
        out = capsys.readouterr().out
        assert re.search(r"^unscored +1$", out, re.M)
        assert json.loads(out[out.index("{"):])["unscored"] == 1

    def test_simcheck_without_index_is_malformed_usage(self, tmp_path):
        dataset, labels = self._dataset(tmp_path)
        code = main(["eval", "--dataset", str(dataset), "--labels", str(labels),
                     "--mock-fixture", MOCK_FIXTURE])
        assert code == 3

    def test_unlabeled_sample_is_malformed(self, tmp_path, monkeypatch, capsys):
        dataset, labels = self._dataset(tmp_path)
        labels.write_text("sample,label\nclean.sol,negative\n", encoding="utf-8")
        built = []

        def make_llm_provider(args, config):
            built.append(CallLog(real(args, config)))
            return built[-1]

        real = cli._make_llm_provider
        monkeypatch.setattr(cli, "_make_llm_provider", make_llm_provider)
        code = main(["eval", "--dataset", str(dataset), "--labels", str(labels),
                     "--no-simcheck", "--mock-fixture", MOCK_FIXTURE])
        assert code == 3
        assert "no label for sample vuln.sol" in capsys.readouterr().err
        assert not any(provider.calls for provider in built)   # checked before any scan

    def test_label_rows_without_a_sample_are_reported(self, tmp_path, capsys):
        dataset = tmp_path / "dataset"
        dataset.mkdir()
        (dataset / "a.sol").write_text(TARGET, encoding="utf-8")
        labels = tmp_path / "eval_labels.csv"
        labels.write_text("sample,label\na.sol,positive\nmissing.sol,negative\n,positive\n",
                          encoding="utf-8")
        metrics_out = tmp_path / "metrics.json"
        code = main(["eval", "--dataset", str(dataset), "--labels", str(labels),
                     "--no-simcheck", "--mock-fixture", MOCK_FIXTURE,
                     "--metrics-out", str(metrics_out)])
        assert code == 0
        assert capsys.readouterr().err == (
            "simaudit: line 3: label row matched no sample: 'missing.sol'\n"
            "simaudit: line 4: label row matched no sample: ''\n")
        metrics = json.loads(metrics_out.read_text())
        assert sum(metrics[key] for key in ("tp", "tn", "fp", "fn")) == 1

    def test_sample_labeled_twice_is_malformed(self, tmp_path, capsys):
        """Otherwise the last row would win, and the metrics would depend on
        the row order."""
        dataset, labels = self._dataset(tmp_path)
        labels.write_text("sample,label\nclean.sol,negative\nvuln.sol,positive\n"
                          "clean.sol,positive\n", encoding="utf-8")
        code = main(["eval", "--dataset", str(dataset), "--labels", str(labels),
                     "--no-simcheck", "--mock-fixture", MOCK_FIXTURE])
        assert code == 3
        assert "line 4: sample clean.sol is labeled twice" in capsys.readouterr().err

    def test_labels_without_a_label_column_are_malformed(self, tmp_path, capsys):
        dataset, labels = self._dataset(tmp_path)
        labels.write_text("sample,verdict\nclean.sol,negative\nvuln.sol,positive\n",
                          encoding="utf-8")
        code = main(["eval", "--dataset", str(dataset), "--labels", str(labels),
                     "--no-simcheck", "--mock-fixture", MOCK_FIXTURE])
        assert code == 3
        assert "eval label file must have columns sample,label" in capsys.readouterr().err

    def test_bad_label_value_is_malformed(self, tmp_path):
        dataset, labels = self._dataset(tmp_path)
        labels.write_text("sample,label\nclean.sol,maybe\nvuln.sol,positive\n",
                          encoding="utf-8")
        code = main(["eval", "--dataset", str(dataset), "--labels", str(labels),
                     "--no-simcheck", "--mock-fixture", MOCK_FIXTURE])
        assert code == 3

    def test_bad_label_names_its_line_after_a_two_line_field(self, tmp_path, capsys):
        dataset, labels = self._dataset(tmp_path)
        labels.write_text('sample,label\n"a\n.sol",negative\na.sol,maybe\n',
                          encoding="utf-8")
        code = main(["eval", "--dataset", str(dataset), "--labels", str(labels),
                     "--no-simcheck", "--mock-fixture", MOCK_FIXTURE])
        assert code == 3
        assert capsys.readouterr().err == (
            "simaudit: line 4: label must be positive or negative, got 'maybe'\n")

    def test_label_too_long_for_the_csv_reader_is_malformed(self, tmp_path, capsys):
        dataset, labels = self._dataset(tmp_path)
        labels.write_text(f"sample,label\n{'x' * 200_000},negative\n", encoding="utf-8")
        code = main(["eval", "--dataset", str(dataset), "--labels", str(labels),
                     "--no-simcheck", "--mock-fixture", MOCK_FIXTURE])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "simaudit: line 2: field larger than field limit")

    def test_directory_named_like_a_sample_is_skipped(self, tmp_path):
        dataset, labels = self._dataset(tmp_path)
        (dataset / "lib.sol").mkdir()
        metrics_out = tmp_path / "metrics.json"
        code = main(["eval", "--dataset", str(dataset), "--labels", str(labels),
                     "--no-simcheck", "--mock-fixture", MOCK_FIXTURE,
                     "--metrics-out", str(metrics_out)])
        assert code == 0
        metrics = json.loads(metrics_out.read_text())
        assert {key: metrics[key] for key in ("tp", "tn", "fp", "fn")} == {
            "tp": 1, "tn": 0, "fp": 1, "fn": 0}

    def test_labels_that_are_not_utf8_are_format_error(self, tmp_path, capsys):
        dataset, labels = self._dataset(tmp_path)
        labels.write_bytes(b"sample,label\nclean.sol,negative\nvuln\xff.sol,positive\n")
        metrics_out = tmp_path / "metrics.json"
        code = main(["eval", "--dataset", str(dataset), "--labels", str(labels),
                     "--no-simcheck", "--mock-fixture", MOCK_FIXTURE,
                     "--metrics-out", str(metrics_out)])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"simaudit: labels {labels} is not UTF-8 text")
        assert not metrics_out.exists()

    def test_missing_labels_file_is_io(self, tmp_path):
        dataset, _ = self._dataset(tmp_path)
        code = main(["eval", "--dataset", str(dataset),
                     "--labels", str(tmp_path / "absent.csv"), "--no-simcheck"])
        assert code == 2

    def test_missing_dataset_dir_is_io(self, tmp_path):
        _, labels = self._dataset(tmp_path)
        shutil.rmtree(tmp_path / "dataset")
        code = main(["eval", "--dataset", str(tmp_path / "dataset"),
                     "--labels", str(labels), "--no-simcheck"])
        assert code == 2


class TestVersionFlag:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("simaudit ")


class TestMetrics:
    def test_worked_example(self):
        m = EvalMetrics.from_counts(tp=38, tn=63, fp=12, fn=30)
        assert m.precision == pytest.approx(38 / 50)
        assert m.recall == pytest.approx(38 / 68)
        assert m.accuracy == pytest.approx(101 / 143)
        assert m.f1 == pytest.approx(2 * (38 / 50) * (38 / 68) / (38 / 50 + 38 / 68))
        assert (round(m.precision, 2), round(m.recall, 2),
                round(m.accuracy, 2), round(m.f1, 2)) == (0.76, 0.56, 0.71, 0.64)

    def test_division_by_zero_is_undefined_not_zero(self):
        m = EvalMetrics.from_counts(tp=0, tn=5, fp=0, fn=0)
        assert m.precision is None and m.recall is None and m.f1 is None
        assert m.accuracy == 1.0
        assert EvalMetrics.from_counts(0, 0, 0, 0).accuracy is None
        # defined but zero precision and recall: f1 is undefined, not 0/0
        z = EvalMetrics.from_counts(tp=0, tn=0, fp=3, fn=4)
        assert z.precision == 0.0 and z.recall == 0.0 and z.f1 is None

    def test_render_table(self):
        table = EvalMetrics.from_counts(1, 1, 0, 0).render_table()
        assert "precision  1.0000" in table
        na = EvalMetrics.from_counts(0, 1, 0, 0).render_table()
        assert "n/a" in na

    @given(tp=st.integers(0, 500), tn=st.integers(0, 500),
           fp=st.integers(0, 500), fn=st.integers(0, 500))
    def test_matches_rational_oracle(self, tp, tn, fp, fn):
        m = EvalMetrics.from_counts(tp, tn, fp, fn)
        expected = oracles.reference_metrics(tp, tn, fp, fn)
        for key in ("precision", "recall", "f1", "accuracy"):
            got = getattr(m, key)
            want = expected[key]
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-12)
