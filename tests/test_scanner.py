"""Scan pipeline: ordering, context passing, error isolation, report shape."""

from __future__ import annotations

import json

import pytest

from helpers import CannedHTTPServer, mk_unit
from simaudit.agents import MockLLMProvider, Role
from simaudit.corpus import Label, new_index
from simaudit.errors import (
    DimensionMismatch,
    ProviderError,
    ProviderMismatch,
    ProviderUnavailable,
)
from simaudit.extract import extract_units
from simaudit.scanner import render_markdown, run_scan
from simaudit.simindex import FallbackEmbedder, RemoteEmbedder, embed_index, query_top_k
from test_agents import CRI, DET, GOOD_DEFAULTS, SUP

CLEAN_JUD = ('```json\n{"is_vulnerable": false, "vuln_type": "", '
             '"explanation": "", "confidence": "Medium"}\n```')
CLEAN_DEFAULTS = {Role.DETECTOR: DET, Role.CRITIC: CRI,
                  Role.SUPPORTER: SUP, Role.JUDGE: CLEAN_JUD}

CHAIN_SOL = """\
contract Chain {
    function leaf() public pure returns (uint256) { return 1; }
    function mid() public pure returns (uint256) { return leaf() + 1; }
    function top() public pure returns (uint256) { return mid() + 1; }
}
"""

LOOP_SOL = """\
contract Loop {
    function ping() public { pong(); }
    function pong() public { ping(); }
}
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _ids(path, contract, *names):
    return [f"{path}::{contract}::{name}#0" for name in names]


class PoisonProvider:
    """Good defaults, except prompts containing a marker always fail."""

    def __init__(self, marker, defaults):
        self.calls = []
        self._marker = marker
        self._defaults = defaults

    def complete(self, messages, config):
        self.calls.append((config.role, messages))
        if self._marker in messages[0]["content"]:
            raise ProviderError("poisoned")
        return self._defaults[config.role]


class TestScheduling:
    def test_records_follow_schedule_order(self, tmp_path):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL)
        report = run_scan([path], None, MockLLMProvider(defaults=CLEAN_DEFAULTS),
                          simcheck=False)
        leaf, mid, top = _ids(path, "Chain", "leaf", "mid", "top")
        assert report["schedule"]["order"] == [leaf, mid, top]
        assert [r["unit_id"] for r in report["units"]] == [leaf, mid, top]
        assert [r["position"] for r in report["units"]] == [0, 1, 2]
        assert report["schedule"]["scc_groups"] == []
        assert report["callgraph"]["edges"] == [[mid, leaf], [top, mid]]

    def test_every_unit_gets_exactly_one_record(self, tmp_path):
        _write(tmp_path, "chain.sol", CHAIN_SOL)
        _write(tmp_path, "loop.sol", LOOP_SOL)
        report = run_scan([tmp_path], None, MockLLMProvider(defaults=CLEAN_DEFAULTS),
                          simcheck=False)
        ids = [r["unit_id"] for r in report["units"]]
        assert sorted(ids) == sorted(set(ids))
        assert len(ids) == 5
        assert report["summary"]["units"] == 5

    def test_callee_summaries_cover_already_scanned_callees(self, tmp_path):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL)
        report = run_scan([path], None, MockLLMProvider(defaults=GOOD_DEFAULTS),
                          simcheck=False)
        leaf, mid, top = _ids(path, "Chain", "leaf", "mid", "top")
        by_id = {r["unit_id"]: r for r in report["units"]}
        assert by_id[leaf]["callee_summaries"] == []
        assert by_id[mid]["callee_summaries"] == [[leaf, "vulnerable: logic error"]]
        assert by_id[top]["callee_summaries"] == [[mid, "vulnerable: logic error"]]

    def test_cycle_second_member_sees_first(self, tmp_path):
        path = _write(tmp_path, "loop.sol", LOOP_SOL)
        report = run_scan([path], None, MockLLMProvider(defaults=CLEAN_DEFAULTS),
                          simcheck=False)
        ping, pong = _ids(path, "Loop", "ping", "pong")
        assert report["schedule"]["scc_groups"] == [[ping, pong]]
        by_id = {r["unit_id"]: r for r in report["units"]}
        assert by_id[ping]["callee_summaries"] == []   # pong not yet analyzed
        assert by_id[pong]["callee_summaries"] == [[ping, "no vulnerability found"]]


class TestErrorIsolation:
    def test_one_bad_unit_does_not_stop_the_scan(self, tmp_path):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL)
        provider = PoisonProvider("function mid()", CLEAN_DEFAULTS)
        report = run_scan([path], None, provider, simcheck=False)
        leaf, mid, top = _ids(path, "Chain", "leaf", "mid", "top")
        by_id = {r["unit_id"]: r for r in report["units"]}
        assert by_id[leaf]["verdict"] != "error"
        assert by_id[mid]["verdict"] == "error"
        assert by_id[mid]["error_message"] == "poisoned"
        assert by_id[mid]["transcript_ref"] is None
        assert by_id[top]["verdict"] != "error"
        # a caller of the failed unit still learns that its callee failed
        assert by_id[top]["callee_summaries"] == [[mid, "analysis failed"]]
        assert report["summary"] == {
            "units": 3, "vulnerable": 0, "not_vulnerable": 2, "errors": 1,
            "by_category": {"clone": 0, "similar": 0, "dissimilar": 3},
            "provider_calls": 10,   # 4 + 4, plus detector tried twice for mid
        }

    def test_all_units_failing_still_produces_a_report(self, tmp_path):
        path = _write(tmp_path, "loop.sol", LOOP_SOL)
        report = run_scan([path], None, MockLLMProvider(), simcheck=False)
        assert report["summary"]["errors"] == 2
        assert all(r["verdict"] == "error" for r in report["units"])
        assert report["transcripts"] == {}


class TestProviderAccounting:
    def test_four_calls_per_debated_unit(self, tmp_path):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL)
        provider = MockLLMProvider(defaults=CLEAN_DEFAULTS)
        report = run_scan([path], None, provider, simcheck=False)
        assert all(r["provider_calls"] == 4 for r in report["units"])
        assert report["summary"]["provider_calls"] == 12 == len(provider.calls)

    def test_provider_without_call_log_is_counted(self, tmp_path):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL)
        defaults = dict(CLEAN_DEFAULTS)

        class Silent:
            def complete(self, messages, config):
                return defaults[config.role]

        report = run_scan([path], None, Silent(), simcheck=False)
        assert all(r["provider_calls"] == 4 for r in report["units"])
        assert report["summary"]["provider_calls"] == 12


class TestSimcheck:
    def _indexed(self, text, *, vulnerable=()):
        index = new_index(delta=0.65)
        for unit in extract_units(text, "ref.sol"):
            index.insert(unit, "refs", "1.0")
        for entry in index.entries:
            if entry.unit.name in vulnerable:
                entry.label = Label.VULNERABLE
                entry.vuln_note = "seeded issue"
        embed_index(index, FallbackEmbedder())
        return index

    def test_exact_clones_skip_the_model(self, tmp_path):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL)
        index = self._indexed(CHAIN_SOL, vulnerable=("mid",))
        provider = MockLLMProvider()    # raises if consulted
        report = run_scan([path], index, provider, FallbackEmbedder())
        leaf, mid, top = _ids(path, "Chain", "leaf", "mid", "top")
        by_id = {r["unit_id"]: r for r in report["units"]}
        for unit_id in (leaf, mid, top):
            rec = by_id[unit_id]
            assert rec["category"] == "clone"
            assert rec["provider_calls"] == 0
            assert rec["transcript_ref"] is None
            assert len(rec["matches"]) == 1
            assert rec["matches"][0]["similarity"] == 1.0
            assert rec["verdict"]["decided_by"] == "CloneShortCircuit"
        assert by_id[mid]["verdict"]["is_vulnerable"] is True
        assert by_id[leaf]["verdict"]["is_vulnerable"] is False
        assert report["summary"]["provider_calls"] == 0
        assert report["summary"]["by_category"]["clone"] == 3

    def test_modified_unit_is_retrieved_and_debated(self, tmp_path):
        modified = CHAIN_SOL.replace("return mid() + 1;",
                                     "uint256 v = mid(); return v + 2;")
        path = _write(tmp_path, "chain.sol", modified)
        index = self._indexed(CHAIN_SOL)
        provider = MockLLMProvider(defaults=GOOD_DEFAULTS)
        report = run_scan([path], index, provider, FallbackEmbedder(), k=2)
        by_id = {r["unit_id"]: r for r in report["units"]}
        top = f"{path}::Chain::top#0"
        rec = by_id[top]
        assert rec["category"] in ("similar", "dissimilar")
        assert len(rec["matches"]) == 2         # k nearest, whatever the band
        assert rec["provider_calls"] == 4
        assert rec["transcript_ref"] == top
        assert [e["role"] for e in report["transcripts"][top]] == [
            "Detector", "Critic", "Supporter", "Judge"]
        assert rec["verdict"]["is_vulnerable"] is True
        for other in _ids(path, "Chain", "leaf", "mid"):
            assert by_id[other]["category"] == "clone"
        assert report["summary"]["provider_calls"] == 4

    def test_simcheck_requires_index_and_embedder(self, tmp_path):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL)
        with pytest.raises(ValueError):
            run_scan([path], None, MockLLMProvider(), FallbackEmbedder())
        with pytest.raises(ValueError):
            run_scan([path], self._indexed(CHAIN_SOL), MockLLMProvider(), None)

    def test_embedder_mismatch_fails_before_any_work(self, tmp_path):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL)
        index = self._indexed(CHAIN_SOL)

        class OtherEmbedder(FallbackEmbedder):
            provider_id = "someone-else-v9"

        provider = MockLLMProvider()
        with pytest.raises(ProviderMismatch):
            run_scan([path], index, provider, OtherEmbedder())
        assert provider.calls == []

    def test_embedding_failure_is_a_unit_error(self, tmp_path):
        modified = CHAIN_SOL.replace("return mid() + 1;",
                                     "uint256 v = mid(); return v + 2;")
        path = _write(tmp_path, "chain.sol", modified)
        loop = _write(tmp_path, "loop.sol", LOOP_SOL)
        index = self._indexed(CHAIN_SOL, vulnerable=("mid",))

        class DownEmbedder(FallbackEmbedder):
            def embed_many(self, texts):
                raise ProviderUnavailable("embedder down")

        provider = MockLLMProvider(defaults=GOOD_DEFAULTS)
        report = run_scan([tmp_path], index, provider, DownEmbedder())
        by_id = {r["unit_id"]: r for r in report["units"]}
        leaf, mid, top = _ids(path, "Chain", "leaf", "mid", "top")
        for unit_id in [top, *_ids(loop, "Loop", "ping", "pong")]:
            assert by_id[unit_id]["verdict"] == "error"
            assert by_id[unit_id]["error_message"] == "embedder down"
            assert by_id[unit_id]["provider_calls"] == 0
        assert by_id[leaf]["verdict"]["is_vulnerable"] is False
        assert by_id[mid]["verdict"]["is_vulnerable"] is True
        assert by_id[top]["callee_summaries"] == [[mid, "vulnerable: seeded issue"]]
        assert report["summary"]["errors"] == 3
        assert provider.calls == []

    @pytest.mark.parametrize("vector", [["x", 1.0], [None, 1.0]], ids=["string", "null"])
    def test_non_numeric_remote_reply_is_a_unit_error(self, tmp_path, vector):
        modified = CHAIN_SOL.replace("return mid() + 1;",
                                     "uint256 v = mid(); return v + 2;")
        path = _write(tmp_path, "chain.sol", modified)
        loop = _write(tmp_path, "loop.sol", LOOP_SOL)
        index = self._indexed(CHAIN_SOL)
        index.meta.embedder_id = "model-x"
        provider = MockLLMProvider(defaults=GOOD_DEFAULTS)
        with CannedHTTPServer(lambda body: {"vectors": [vector] * len(body["texts"])}) as server:
            embedder = RemoteEmbedder(server.url, provider_id="model-x")
            report = run_scan([tmp_path], index, provider, embedder)
        by_id = {r["unit_id"]: r for r in report["units"]}
        leaf, mid, top = _ids(path, "Chain", "leaf", "mid", "top")
        for unit_id in [top, *_ids(loop, "Loop", "ping", "pong")]:
            assert by_id[unit_id]["verdict"] == "error"
            assert by_id[unit_id]["error_message"].startswith("provider returned non-")
        for unit_id in (leaf, mid):
            assert by_id[unit_id]["category"] == "clone"
            assert by_id[unit_id]["verdict"]["is_vulnerable"] is False
        assert report["summary"]["errors"] == 3
        assert len(server.requests) == 1    # one batch for all non-clone units, no retry
        assert provider.calls == []

    def test_remote_embedder_gets_one_batch_per_scan(self, tmp_path):
        modified = CHAIN_SOL.replace("return mid() + 1;",
                                     "uint256 v = mid(); return v + 2;")
        _write(tmp_path, "chain.sol", modified)
        _write(tmp_path, "loop.sol", LOOP_SOL)
        _write(tmp_path, "fresh.sol", "contract Fresh {\n" + "".join(
            f"    function f{i}() public pure returns (uint256) {{ return {i}; }}\n"
            for i in range(3)) + "}\n")
        index = self._indexed(CHAIN_SOL)
        index.meta.embedder_id = "model-x"
        fallback = FallbackEmbedder()

        def reply(body):
            return {"vectors": fallback.embed_many(body["texts"]).tolist()}

        with CannedHTTPServer(reply) as server:
            embedder = RemoteEmbedder(server.url, provider_id="model-x")
            report = run_scan([tmp_path], index,
                              MockLLMProvider(defaults=GOOD_DEFAULTS), embedder)
        debated = [r for r in report["units"] if r["category"] != "clone"]
        assert len(debated) == 6
        assert len(server.requests) == 1
        sources = {u.unit_id: u.normalized_source
                   for f in sorted(tmp_path.glob("*.sol"))
                   for u in extract_units(f.read_text(encoding="utf-8"), str(f))}
        assert server.requests[0]["body"]["texts"] == [
            sources[r["unit_id"]] for r in debated]     # schedule order
        for rec in debated:     # each unit is retrieved with its own row
            want = query_top_k(fallback.embed_many([sources[rec["unit_id"]]])[0], index)
            assert [(m["entry_id"], m["similarity"]) for m in rec["matches"]] == [
                (m.entry_id, m.similarity) for m in want]

    def test_index_mismatch_found_in_retrieval_still_fails_the_scan(self, tmp_path):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL.replace("+ 1", "+ 7"))
        unembedded = self._indexed(CHAIN_SOL)
        unembedded.vectors = None
        unembedded.meta.embedder_id = None
        provider = MockLLMProvider()
        with pytest.raises(ProviderMismatch):
            run_scan([path], unembedded, provider, FallbackEmbedder())
        assert provider.calls == []

        class TwoDims(FallbackEmbedder):
            dimension = 2

            def embed_many(self, texts):
                return [[1.0, 0.0] for _ in texts]

        with pytest.raises(DimensionMismatch):
            run_scan([path], self._indexed(CHAIN_SOL), MockLLMProvider(), TwoDims())


class TestReportShape:
    def test_deterministic_apart_from_timing(self, tmp_path):
        _write(tmp_path, "chain.sol", CHAIN_SOL)
        _write(tmp_path, "loop.sol", LOOP_SOL)

        def once():
            report = run_scan([tmp_path], None,
                              MockLLMProvider(defaults=CLEAN_DEFAULTS),
                              simcheck=False, provider_name="mock")
            timing = report.pop("timing")
            assert set(timing) == {"started_at", "finished_at", "seconds"}
            return json.dumps(report, sort_keys=True)

        assert once() == once()

    def test_inputs_block(self, tmp_path):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL)
        report = run_scan([path], None, MockLLMProvider(defaults=CLEAN_DEFAULTS),
                          simcheck=False, k=5, delta=0.7, provider_name="mock",
                          index_path="/some/index.jsonl")
        assert report["inputs"] == {
            "files": [str(path)],
            "index": "/some/index.jsonl",
            "k": 5,
            "delta": 0.7,
            "simcheck": False,
            "provider": "mock",
        }
        assert report["schema_version"] == 1

    def test_directory_and_file_inputs_deduplicate(self, tmp_path):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL)
        (tmp_path / "notes.txt").write_text("not solidity")
        report = run_scan([tmp_path, path], None,
                          MockLLMProvider(defaults=CLEAN_DEFAULTS), simcheck=False)
        assert report["inputs"]["files"] == [str(path)]


class TestMarkdown:
    def test_renders_verdicts_and_errors(self, tmp_path):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL)
        provider = PoisonProvider("function mid()", GOOD_DEFAULTS)
        report = run_scan([path], None, provider, simcheck=False)
        text = render_markdown(report)
        assert "VULNERABLE (logic error)" in text
        assert "error: poisoned" in text
        assert text.count("| ") >= 4    # header plus one row per unit
        for r in report["units"]:
            assert r["unit_id"] in text
