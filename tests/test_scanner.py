"""Scan pipeline: ordering, context passing, error isolation, report shape."""

from __future__ import annotations

import hashlib
import json
import random
import re
import signal
import threading
import time

import jsonschema
import pytest

from helpers import DEEP_JSON, TOO_DEEP, CannedHTTPServer, bad_templates, mk_unit
from simaudit import scanner, simindex
from simaudit.agents import CallLog, MockLLMProvider, Role, TemplateSet
from simaudit.corpus import Label, new_index
from simaudit.errors import (
    DimensionMismatch,
    MissingTemplateSlot,
    ProviderError,
    ProviderMismatch,
)
from simaudit.extract import extract_units
from simaudit.scanner import render_markdown, run_scan
from simaudit.simindex import FallbackEmbedder, RemoteEmbedder, embed_index, query_top_k
from test_agents import CRI, DEEP_REPLY, DET, GOOD_DEFAULTS, SUP
from test_cli import SCHEMA

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


# Six independent leaves, a chain of three, and a two-unit cycle that also
# calls a leaf; `top` calls into the chain and the cycle.
MIX_SOL = """\
contract Mix {
""" + "".join(f"    function l{i}() public pure returns (uint256) {{ return {i}; }}\n"
              for i in range(6)) + """\
    function c1() public pure returns (uint256) { return l0() + 1; }
    function c2() public pure returns (uint256) { return c1() + 1; }
    function c3() public pure returns (uint256) { return c2() + 1; }
    function ping() public { l1(); pong(); }
    function pong() public { ping(); }
    function top() public { c3(); ping(); }
}
"""

# A self-recursive function, a call to a name no unit declares, and a call
# to a name that two other contracts declare.
CALLS_SOL = """\
contract A {
    function loop(uint256 n) public { if (n > 0) { loop(n - 1); } }
    function call() public { missing(); twice(); }
}
contract B { function twice() public { } }
contract C { function twice() public { } }
"""


def _many_sol(n):
    return "contract Many {\n" + "".join(
        f"    function f{i}() public pure returns (uint256) {{ return {i}; }}\n"
        for i in range(n)) + "}\n"


def _target_name(messages):
    """The function a debate prompt is about: only its code declares one."""
    return re.search(r"function (\w+)\(", messages[-1]["content"]).group(1)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _ids(path, contract, *names):
    return [f"{path}::{contract}::{name}#0" for name in names]


class PoisonProvider:
    """Good defaults, except prompts containing a marker always fail."""

    def __init__(self, marker, defaults):
        self._marker = marker
        self._defaults = defaults

    def complete(self, messages, role):
        if self._marker in messages[0]["content"]:
            raise ProviderError("poisoned")
        return self._defaults[role]


class TestScheduling:
    def test_records_follow_schedule_order(self, tmp_path):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL)
        report = run_scan([path], None, MockLLMProvider(defaults=CLEAN_DEFAULTS))
        leaf, mid, top = _ids(path, "Chain", "leaf", "mid", "top")
        assert report["schedule"]["order"] == [leaf, mid, top]
        assert [r["unit_id"] for r in report["units"]] == [leaf, mid, top]
        assert [r["position"] for r in report["units"]] == [0, 1, 2]
        assert report["schedule"]["scc_groups"] == []
        assert report["callgraph"]["edges"] == [[mid, leaf], [top, mid]]

    def test_every_unit_gets_exactly_one_record(self, tmp_path):
        _write(tmp_path, "chain.sol", CHAIN_SOL)
        _write(tmp_path, "loop.sol", LOOP_SOL)
        report = run_scan([tmp_path], None, MockLLMProvider(defaults=CLEAN_DEFAULTS))
        ids = [r["unit_id"] for r in report["units"]]
        assert sorted(ids) == sorted(set(ids))
        assert len(ids) == 5
        assert report["summary"]["units"] == 5

    def test_callee_summaries_cover_already_scanned_callees(self, tmp_path):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL)
        report = run_scan([path], None, MockLLMProvider(defaults=GOOD_DEFAULTS))
        leaf, mid, top = _ids(path, "Chain", "leaf", "mid", "top")
        by_id = {r["unit_id"]: r for r in report["units"]}
        assert by_id[leaf]["callee_summaries"] == []
        assert by_id[mid]["callee_summaries"] == [[leaf, "vulnerable: logic error"]]
        assert by_id[top]["callee_summaries"] == [[mid, "vulnerable: logic error"]]

    def test_cycle_second_member_sees_first(self, tmp_path):
        path = _write(tmp_path, "loop.sol", LOOP_SOL)
        report = run_scan([path], None, MockLLMProvider(defaults=CLEAN_DEFAULTS))
        ping, pong = _ids(path, "Loop", "ping", "pong")
        assert report["schedule"]["scc_groups"] == [[ping, pong]]
        by_id = {r["unit_id"]: r for r in report["units"]}
        assert by_id[ping]["callee_summaries"] == []   # pong not yet analyzed
        assert by_id[pong]["callee_summaries"] == [[ping, "no vulnerability found"]]


class TestErrorIsolation:
    def test_one_bad_unit_does_not_stop_the_scan(self, tmp_path):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL)
        provider = PoisonProvider("function mid()", CLEAN_DEFAULTS)
        report = run_scan([path], None, provider)
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

    def test_reply_nested_too_deep_fails_only_its_unit(self, tmp_path):
        """A Detector reply nested past the recursion limit is a parse
        failure: one re-prompt, then that unit alone is an error."""
        path = _write(tmp_path, "chain.sol", CHAIN_SOL)

        class DeepForMid:
            def complete(self, messages, role):
                if role is Role.DETECTOR and "function mid()" in messages[0]["content"]:
                    return DEEP_REPLY
                return GOOD_DEFAULTS[role]

        report = run_scan([path], None, DeepForMid())
        before = run_scan([path], None, MockLLMProvider(defaults=GOOD_DEFAULTS))
        leaf, mid, top = _ids(path, "Chain", "leaf", "mid", "top")
        by_id = {r["unit_id"]: r for r in report["units"]}
        want = {r["unit_id"]: r for r in before["units"]}
        assert by_id[mid]["verdict"] == "error"
        assert by_id[mid]["error_message"] == f"Detector response is not valid JSON: {TOO_DEEP}"
        assert by_id[mid]["provider_calls"] == 2
        assert by_id[leaf] == want[leaf]
        assert by_id[top]["callee_summaries"] == [[mid, "analysis failed"]]
        assert (by_id[top]["verdict"], by_id[top]["provider_calls"]) == (
            want[top]["verdict"], 4)
        assert report["summary"]["errors"] == 1

    def test_all_units_failing_still_produces_a_report(self, tmp_path):
        path = _write(tmp_path, "loop.sol", LOOP_SOL)
        report = run_scan([path], None, MockLLMProvider())
        assert report["summary"]["errors"] == 2
        assert all(r["verdict"] == "error" for r in report["units"])
        assert report["transcripts"] == {}


class TestProviderAccounting:
    def test_four_calls_per_debated_unit(self, tmp_path):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL)
        provider = CallLog(MockLLMProvider(defaults=CLEAN_DEFAULTS))
        report = run_scan([path], None, provider)
        assert all(r["provider_calls"] == 4 for r in report["units"])
        assert report["summary"]["provider_calls"] == 12 == len(provider.calls)

    def test_provider_without_call_log_is_counted(self, tmp_path):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL)
        defaults = dict(CLEAN_DEFAULTS)

        class Silent:
            def complete(self, messages, role):
                return defaults[role]

        report = run_scan([path], None, Silent())
        assert all(r["provider_calls"] == 4 for r in report["units"])
        assert report["summary"]["provider_calls"] == 12


class TestSimcheck:
    def _indexed(self, text, *, vulnerable=()):
        index = new_index(delta=0.65)
        for unit in extract_units(text, "ref.sol"):
            index.insert(unit, "refs", "1.0")
        for entry in index.entries:
            if entry.name in vulnerable:
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

    def test_all_clone_scan_retrieves_nothing(self, tmp_path, monkeypatch):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL)
        index = self._indexed(CHAIN_SOL, vulnerable=("mid",))
        want = run_scan([path], index, MockLLMProvider(), FallbackEmbedder())
        batches = []

        def recording_query_top_k(queries, *args, **kwargs):
            batches.append(len(queries))
            return query_top_k(queries, *args, **kwargs)

        class NoEmbedding(FallbackEmbedder):
            def embed_many(self, texts):
                raise AssertionError("embedded a clone")

        monkeypatch.setattr(scanner, "query_top_k", recording_query_top_k)
        index.vectors = None    # retrieving from this index would raise
        report = run_scan([path], index, MockLLMProvider(), NoEmbedding())
        assert batches == [0]
        assert {**report, "timing": None} == {**want, "timing": None}
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

    def test_equal_embedding_of_other_code_is_debated(self, tmp_path):
        # Swapping the two updates keeps every character trigram, so the
        # fallback embeddings are equal while the code is not.
        reference = """\
contract Bank {
    mapping(address => uint256) balances;
    function pay(address to, uint256 amount) public {
        balances[msg.sender] -= amount;
        balances[to] += amount;
    }
}
"""
        swapped = reference.replace(
            "balances[msg.sender] -= amount;\n        balances[to] += amount;",
            "balances[to] += amount;\n        balances[msg.sender] -= amount;")
        assert swapped != reference
        path = _write(tmp_path, "bank.sol", swapped)
        provider = MockLLMProvider(defaults=CLEAN_DEFAULTS)
        report = run_scan([path], self._indexed(reference), provider, FallbackEmbedder())
        [rec] = report["units"]
        assert rec["category"] == "similar"
        assert rec["matches"][0]["similarity"] == 1.0
        assert rec["verdict"]["decided_by"] == "Judge"
        assert rec["provider_calls"] == 4

    def test_simcheck_requires_index_and_embedder(self, tmp_path):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL)
        with pytest.raises(ValueError):
            run_scan([path], self._indexed(CHAIN_SOL), MockLLMProvider(), None)

    def test_embedder_mismatch_fails_before_any_work(self, tmp_path):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL)
        index = self._indexed(CHAIN_SOL)

        class OtherEmbedder(FallbackEmbedder):
            provider_id = "someone-else-v9"

        provider = CallLog(MockLLMProvider())
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
                raise ProviderError("embedder down")

        provider = CallLog(MockLLMProvider(defaults=GOOD_DEFAULTS))
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
        provider = CallLog(MockLLMProvider(defaults=GOOD_DEFAULTS))
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
            want = query_top_k(fallback.embed_many([sources[rec["unit_id"]]]), index)[0]
            assert [(m["entry_id"], m["similarity"]) for m in rec["matches"]] == [
                (m.entry_id, m.similarity) for m in want]

    def _remote_scan(self, tmp_path, reply):
        path = _write(tmp_path, "many.sol", _many_sol(300))
        index = self._indexed(CHAIN_SOL)
        index.meta.embedder_id = "model-x"
        with CannedHTTPServer(reply) as server:
            embedder = RemoteEmbedder(server.url, provider_id="model-x")
            report = run_scan([path], index, MockLLMProvider(defaults=CLEAN_DEFAULTS),
                              embedder)
        sources = {u.unit_id: u.normalized_source
                   for u in extract_units(path.read_text(encoding="utf-8"), str(path))}
        return report, server.requests, sources

    def test_scan_embeds_in_chunks_in_schedule_order(self, tmp_path):
        fallback = FallbackEmbedder()

        def reply(body):
            return {"vectors": fallback.embed_many(body["texts"]).tolist()}

        report, requests, sources = self._remote_scan(tmp_path, reply)
        assert all(r["category"] != "clone" for r in report["units"])
        chunks = [r["body"]["texts"] for r in requests]
        assert [len(c) for c in chunks] == [256, 44]
        assert [t for c in chunks for t in c] == [
            sources[unit_id] for unit_id in report["schedule"]["order"]]
        assert report["summary"]["errors"] == 0

    def test_failed_chunk_is_the_error_of_its_units_only(self, tmp_path):
        fallback = FallbackEmbedder()
        posts = []

        def reply(body):
            posts.append(len(body["texts"]))
            if len(posts) == 2:
                return {"vectors": [["x"] * 384] * len(body["texts"])}
            return {"vectors": fallback.embed_many(body["texts"]).tolist()}

        report, requests, _ = self._remote_scan(tmp_path, reply)
        assert len(requests) == 2
        failed = [r["unit_id"] for r in report["units"] if r["verdict"] == "error"]
        assert failed == report["schedule"]["order"][-44:]
        for rec in report["units"][-44:]:
            assert rec["error_message"].startswith("provider returned non-")
            assert rec["provider_calls"] == 0
            assert rec["matches"] == []
        for rec in report["units"][:256]:
            assert rec["provider_calls"] == 4
            assert len(rec["matches"]) == 3
        assert report["summary"]["errors"] == 44

    def test_reply_nested_too_deep_is_the_error_of_its_chunk_only(self, tmp_path):
        fallback = FallbackEmbedder()

        def reply(body):
            if len(body["texts"]) == 44:
                return b'{"vectors": ' + DEEP_JSON.encode("utf-8") + b"}"
            return {"vectors": fallback.embed_many(body["texts"]).tolist()}

        report, requests, _ = self._remote_scan(tmp_path, reply)
        assert [len(r["body"]["texts"]) for r in requests] == [256, 44, 44]
        failed = [r["unit_id"] for r in report["units"] if r["verdict"] == "error"]
        assert failed == report["schedule"]["order"][-44:]
        for rec in report["units"][-44:]:
            assert rec["error_message"] == f"embedding endpoint failed: {TOO_DEEP}"
            assert rec["provider_calls"] == 0
        for rec in report["units"][:256]:
            assert rec["provider_calls"] == 4
            assert len(rec["matches"]) == 3

    def test_index_mismatch_found_in_retrieval_still_fails_the_scan(self, tmp_path):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL.replace("+ 1", "+ 7"))
        unembedded = self._indexed(CHAIN_SOL)
        unembedded.vectors = None
        unembedded.meta.embedder_id = None
        provider = CallLog(MockLLMProvider())
        with pytest.raises(ProviderMismatch):
            run_scan([path], unembedded, provider, FallbackEmbedder())
        assert provider.calls == []

        class TwoDims(FallbackEmbedder):
            def embed_many(self, texts):
                return [[1.0, 0.0] for _ in texts]

        with pytest.raises(DimensionMismatch):
            run_scan([path], self._indexed(CHAIN_SOL), MockLLMProvider(), TwoDims())


class DigestProvider:
    """Every role answers well after a random wait of up to max_wait seconds,
    drawn from rng. The Detector's finding and the Judge's verdict come from
    the prompt's digest, so a unit's outcome depends on its callees'
    summaries. Records each call's (start, end) under the target function's
    name."""

    def __init__(self, rng=random, max_wait=0.005):
        self.spans: dict[str, list[tuple[float, float]]] = {}
        self._lock = threading.Lock()
        self._rng, self._max_wait = rng, max_wait

    def complete(self, messages, role):
        start = time.perf_counter()
        time.sleep(self._rng.uniform(0, self._max_wait))
        digest = hashlib.sha256(messages[-1]["content"].encode("utf-8")).hexdigest()
        if role is Role.DETECTOR:
            reply = ('```json\n{"findings": [{"vuln_type": "%s", "description": "x"}]}\n```'
                     % digest[:12])
        elif role is Role.JUDGE:
            reply = ('```json\n{"is_vulnerable": %s, "vuln_type": "%s", '
                     '"explanation": "from the digest", "confidence": "Low"}\n```'
                     % ("true" if int(digest, 16) % 2 else "false", digest[:8]))
        else:
            reply = CLEAN_DEFAULTS[role]
        with self._lock:
            self.spans.setdefault(_target_name(messages), []).append(
                (start, time.perf_counter()))
        return reply


class TestConcurrentDebate:
    def test_report_matches_a_serial_run(self, tmp_path, monkeypatch):
        _write(tmp_path, "mix.sol", MIX_SOL)
        _write(tmp_path, "loop.sol", LOOP_SOL)
        monkeypatch.chdir(tmp_path)     # unit ids, and so prompts, without tmp_path

        def once():
            report = run_scan(["."], None, DigestProvider())
            report.pop("timing")
            return report

        concurrent = once()
        monkeypatch.setattr(scanner, "DEBATE_WORKERS", 1)
        serial = once()
        assert json.dumps(concurrent, sort_keys=True) == json.dumps(serial, sort_keys=True)
        summaries = {line for r in concurrent["units"] for _, line in r["callee_summaries"]}
        assert "no vulnerability found" in summaries
        assert any(line.startswith("vulnerable: ") for line in summaries)
        assert concurrent["summary"]["provider_calls"] == 4 * 14

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_report_matches_a_serial_run_in_any_completion_order(
            self, tmp_path, monkeypatch, seed):
        _write(tmp_path, "mix.sol", MIX_SOL)
        _write(tmp_path, "loop.sol", LOOP_SOL)
        monkeypatch.chdir(tmp_path)     # unit ids, and so prompts, without tmp_path

        def once():
            provider = DigestProvider(random.Random(seed), max_wait=0.003)
            report = run_scan(["."], None, provider)
            report.pop("timing")
            return json.dumps(report, sort_keys=True)

        concurrent = once()
        monkeypatch.setattr(scanner, "DEBATE_WORKERS", 1)
        assert concurrent == once()

    @staticmethod
    def _detector_order(paths, index=None, embedder=None):
        """Scan on one debate thread; the functions in Detector call order."""
        order = []

        class Recording:
            def complete(self, messages, role):
                if role is Role.DETECTOR:
                    order.append(_target_name(messages))
                return CLEAN_DEFAULTS[role]

        report = run_scan(paths, index, Recording(), embedder)
        return order, {r["name"]: r for r in report["units"]}

    def test_the_ready_unit_heading_the_longest_chain_goes_first(
            self, tmp_path, monkeypatch):
        # Leaves a0..a4 come first in schedule order; z0 heads z2 -> z1 -> z0.
        path = _write(tmp_path, "pick.sol", """\
contract Pick {
""" + "".join(f"    function a{i}() public pure returns (uint256) {{ return {i}; }}\n"
              for i in range(5)) + """\
    function z0() public pure returns (uint256) { return 9; }
    function z1() public pure returns (uint256) { return z0() + 1; }
    function z2() public pure returns (uint256) { return z1() + 1; }
}
""")
        monkeypatch.setattr(scanner, "DEBATE_WORKERS", 1)
        order, _ = self._detector_order([path])
        assert order == ["z0", "z1", "a0", "a1", "a2", "a3", "a4", "z2"]

    @pytest.mark.parametrize("skipped", ["clone", "embedding error"])
    def test_units_not_debated_do_not_lengthen_a_chain(self, tmp_path, monkeypatch,
                                                       skipped):
        # a0 heads a chain of four, but only a0 itself is debated; b0 heads a
        # chain of two debated units and comes later in schedule order.
        chained = "".join(
            f"    function a{i}() public pure returns (uint256) {{ return a{i - 1}() + 1; }}\n"
            for i in range(1, 4))
        path = _write(tmp_path, "pick.sol", """\
contract Pick {
    function a0() public pure returns (uint256) { return 7; }
""" + chained + """\
    function b0() public pure returns (uint256) { return 5; }
    function b1() public pure returns (uint256) { return b0() + 2; }
}
""")
        monkeypatch.setattr(scanner, "DEBATE_WORKERS", 1)
        if skipped == "clone":
            index = TestSimcheck()._indexed("contract Pick {\n" + chained + "}\n")
            embedder = FallbackEmbedder()
        else:
            index = TestSimcheck()._indexed(CHAIN_SOL)

            class FailingChained(FallbackEmbedder):
                def embed_many(self, texts):
                    if "() + 1;" in texts[0]:
                        raise ProviderError("embedder down")
                    return super().embed_many(texts)

            monkeypatch.setattr(simindex, "EMBED_CHUNK", 1)
            embedder = FailingChained()
        order, by_name = self._detector_order([path], index, embedder)
        assert order == ["b0", "a0", "b1"]
        for name in ("a1", "a2", "a3"):
            if skipped == "clone":
                assert by_name[name]["category"] == "clone"
            else:
                assert by_name[name]["verdict"] == "error"

    def test_independent_leaves_are_debated_at_once(self, tmp_path):
        path = _write(tmp_path, "two.sol", _many_sol(2))
        barrier = threading.Barrier(2, timeout=5)

        class Meeting:
            def complete(self, messages, role):
                if role is Role.DETECTOR:
                    barrier.wait()
                return CLEAN_DEFAULTS[role]

        report = run_scan([path], None, Meeting())
        assert [r["provider_calls"] for r in report["units"]] == [4, 4]
        assert report["summary"]["errors"] == 0

    def test_cycle_members_with_no_earlier_callee_are_debated_at_once(self, tmp_path):
        # In a -> b -> c -> a, scheduled (a, b, c), only c calls a unit
        # scheduled before it, so a and b wait on nothing.
        path = _write(tmp_path, "ring.sol", """\
contract Ring {
    function a() public { b(); }
    function b() public { c(); }
    function c() public { a(); }
}
""")
        barrier = threading.Barrier(2, timeout=3)

        class Meeting:
            def complete(self, messages, role):
                if role is Role.DETECTOR and _target_name(messages) in ("a", "b"):
                    barrier.wait()
                return CLEAN_DEFAULTS[role]

        report = run_scan([path], None, Meeting())
        assert report["summary"]["errors"] == 0
        assert [r["name"] for r in report["units"]] == ["a", "b", "c"]
        assert [len(r["callee_summaries"]) for r in report["units"]] == [0, 0, 1]

    @pytest.mark.parametrize("workers", [3, scanner.DEBATE_WORKERS])
    def test_calls_in_flight_stay_within_the_pool(self, tmp_path, monkeypatch, workers):
        path = _write(tmp_path, "many.sol", _many_sol(20))
        monkeypatch.setattr(scanner, "DEBATE_WORKERS", workers)
        lock = threading.Lock()
        in_flight = [0, 0]     # now, peak

        class Counting:
            def complete(self, messages, role):
                with lock:
                    in_flight[0] += 1
                    in_flight[1] = max(in_flight)
                time.sleep(0.002)
                with lock:
                    in_flight[0] -= 1
                return CLEAN_DEFAULTS[role]

        report = run_scan([path], None, Counting())
        assert report["summary"]["provider_calls"] == 80
        assert 1 <= in_flight[1] <= workers

    def test_callers_start_after_their_callees_return(self, tmp_path):
        path = _write(tmp_path, "mix.sol", MIX_SOL)
        provider = DigestProvider()
        report = run_scan([path], None, provider)
        position = {u: p for p, u in enumerate(report["schedule"]["order"])}
        name = {r["unit_id"]: r["name"] for r in report["units"]}
        edges = [(caller, callee) for caller, callee in report["callgraph"]["edges"]
                 if position[callee] < position[caller]]
        assert len(edges) == 7      # all 8 but ping -> pong, scheduled after ping
        for caller, callee in edges:
            first_start = min(start for start, _ in provider.spans[name[caller]])
            last_end = max(end for _, end in provider.spans[name[callee]])
            assert first_start >= last_end, (caller, callee)


class TestUnexpectedErrors:
    def test_bad_template_stops_the_scan_and_its_threads(self, tmp_path):
        path = _write(tmp_path, "many.sol", _many_sol(12))
        templates = TemplateSet.from_dir(bad_templates(tmp_path / "templates"))
        threads_before = set(threading.enumerate())
        provider = CallLog(MockLLMProvider(defaults=CLEAN_DEFAULTS))
        with pytest.raises(MissingTemplateSlot, match="no_such_slot"):
            run_scan([path], None, provider, templates=templates)
        assert set(threading.enumerate()) == threads_before
        assert all(role is Role.DETECTOR for role, _ in provider.calls)
        assert len(provider.calls) <= scanner.DEBATE_WORKERS    # one unit per thread

    def test_interrupt_while_waiting_stops_the_scan(self, tmp_path):
        path = _write(tmp_path, "many.sol", _many_sol(20))
        threads_before = set(threading.enumerate())
        started = threading.local()

        def interrupt():
            time.sleep(0.02)    # let the caller get from starting threads to waiting
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

        # Every debate thread is in its first call when Ctrl-C reaches the caller.
        all_running = threading.Barrier(scanner.DEBATE_WORKERS, action=interrupt, timeout=5)

        class Interrupting:
            def complete(self, messages, role):
                if not getattr(started, "yes", False):
                    started.yes = True
                    all_running.wait()
                time.sleep(0.01)
                return CLEAN_DEFAULTS[role]

        provider = CallLog(Interrupting())
        with pytest.raises(KeyboardInterrupt):
            run_scan([path], None, provider)
        assert set(threading.enumerate()) == threads_before
        assert len(provider.calls) < 4 * 20      # the units not yet started never ran


class TestReportShape:
    def test_deterministic_apart_from_timing(self, tmp_path):
        _write(tmp_path, "chain.sol", CHAIN_SOL)
        _write(tmp_path, "loop.sol", LOOP_SOL)

        def once():
            report = run_scan([tmp_path], None,
                              MockLLMProvider(defaults=CLEAN_DEFAULTS),
                              provider_name="mock")
            timing = report.pop("timing")
            assert set(timing) == {"started_at", "finished_at", "seconds"}
            return json.dumps(report, sort_keys=True)

        assert once() == once()

    def test_inputs_block(self, tmp_path):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL)
        report = run_scan([path], None, MockLLMProvider(defaults=CLEAN_DEFAULTS),
                          k=5, delta=0.7, provider_name="mock",
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

    def test_callgraph_block_reports_unresolved_and_self_recursive_calls(self, tmp_path):
        path = _write(tmp_path, "calls.sol", CALLS_SOL)
        report = run_scan([path], None, MockLLMProvider(defaults=CLEAN_DEFAULTS))
        jsonschema.validate(instance=report, schema=SCHEMA)
        loop, call = _ids(path, "A", "loop", "call")
        assert report["callgraph"] == {
            "edges": [],
            "unresolved": [
                {"caller_id": call, "name": "missing", "reason": "not_found"},
                {"caller_id": call, "name": "twice", "reason": "ambiguous"},
            ],
            "self_recursive": [loop],
        }

    def test_directory_and_file_inputs_deduplicate(self, tmp_path):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL)
        (tmp_path / "notes.txt").write_text("not solidity")
        report = run_scan([tmp_path, path], None,
                          MockLLMProvider(defaults=CLEAN_DEFAULTS))
        assert report["inputs"]["files"] == [str(path)]


class TestMarkdown:
    def test_renders_verdicts_and_errors(self, tmp_path):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL)
        provider = PoisonProvider("function mid()", GOOD_DEFAULTS)
        report = run_scan([path], None, provider)
        text = render_markdown(report)
        assert "VULNERABLE (logic error)" in text
        assert "error: poisoned" in text
        assert text.count("| ") >= 4    # header plus one row per unit
        for r in report["units"]:
            assert r["unit_id"] in text

    def test_cells_escape_pipes_and_line_breaks(self, tmp_path):
        path = _write(tmp_path, "chain.sol", CHAIN_SOL)
        judge = "```json\n" + json.dumps({
            "is_vulnerable": True, "vuln_type": "reentrancy | access\ncontrol",
            "explanation": "state written after the call", "confidence": "High"}) + "\n```"
        provider = MockLLMProvider(defaults={**GOOD_DEFAULTS, Role.JUDGE: judge})
        report = run_scan([path], None, provider)
        text = render_markdown(report)
        assert "| VULNERABLE (reentrancy \\| access control) |" in text
        table = text[text.index("| # |"):].splitlines()
        assert len(table) == 2 + len(report["units"])
        assert all(len(re.findall(r"(?<!\\)\|", row)) == 5 for row in table)
