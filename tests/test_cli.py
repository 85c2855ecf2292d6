"""End-to-end command line runs: index, scan, eval, exit codes, metrics."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from helpers import FIXTURES, make_archive
from simaudit.cli import _package_version, main
from simaudit.corpus import Label, load_index
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
        names = sorted(e.unit.name for e in index.entries)
        assert names == ["_approve", "_transfer", "transferFrom"]
        assert index.meta.embedder_id == "fallback-trigram-v1"
        assert index.vectors.shape == (len(index.entries), 384)

    def test_labels_are_applied(self, tmp_path):
        out = _build_index(tmp_path, labels=True)
        index = load_index(out)
        by_name = {e.unit.name: e for e in index.entries}
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


class TestScanExitCodes:
    def test_missing_index_is_io(self, tmp_path, capsys):
        code = main(["scan", "--input", str(_target_dir(tmp_path)),
                     "--index", str(tmp_path / "absent.jsonl"), "--provider", "mock",
                     "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert "simaudit:" in capsys.readouterr().err

    def test_corrupt_index_is_format_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not an index\n", encoding="utf-8")
        code = main(["scan", "--input", str(_target_dir(tmp_path)),
                     "--index", str(bad), "--provider", "mock",
                     "--report", str(tmp_path / "r.json")])
        assert code == 3

    def test_newer_format_version_is_refused(self, tmp_path):
        index_path = _build_index(tmp_path)
        lines = index_path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["format_version"] = 99
        lines[0] = json.dumps(header)
        index_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["scan", "--input", str(_target_dir(tmp_path)),
                     "--index", str(index_path), "--provider", "mock",
                     "--report", str(tmp_path / "r.json")])
        assert code == 3

    def test_remote_provider_without_endpoint(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SIMAUDIT_LLM_ENDPOINT", raising=False)
        monkeypatch.delenv("SIMAUDIT_LLM_KEY", raising=False)
        index = _build_index(tmp_path)
        code = main(["scan", "--input", str(_target_dir(tmp_path)),
                     "--index", str(index),
                     "--report", str(tmp_path / "r.json")])   # default: remote
        assert code == 4
        assert "endpoint" in capsys.readouterr().err


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
        assert metrics == {"tp": 1, "tn": 1, "fp": 0, "fn": 0,
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

    def test_simcheck_without_index_is_malformed_usage(self, tmp_path):
        dataset, labels = self._dataset(tmp_path)
        code = main(["eval", "--dataset", str(dataset), "--labels", str(labels),
                     "--mock-fixture", MOCK_FIXTURE])
        assert code == 3

    def test_unlabeled_sample_is_malformed(self, tmp_path):
        dataset, labels = self._dataset(tmp_path)
        labels.write_text("sample,label\nclean.sol,negative\n", encoding="utf-8")
        code = main(["eval", "--dataset", str(dataset), "--labels", str(labels),
                     "--no-simcheck", "--mock-fixture", MOCK_FIXTURE])
        assert code == 3

    def test_bad_label_value_is_malformed(self, tmp_path):
        dataset, labels = self._dataset(tmp_path)
        labels.write_text("sample,label\nclean.sol,maybe\nvuln.sol,positive\n",
                          encoding="utf-8")
        code = main(["eval", "--dataset", str(dataset), "--labels", str(labels),
                     "--no-simcheck", "--mock-fixture", MOCK_FIXTURE])
        assert code == 3

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
