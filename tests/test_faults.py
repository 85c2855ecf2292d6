"""Fault injection: the scan's failure contracts over drawn call graphs.

A drawn graph of functions is scanned against a model whose every answer is
drawn from (seed, prompt, attempt): a good reply, ProviderError, a reply with
no fenced block, a fenced block nested past the recursion limit, or a
payload missing a key, after a drawn wait. The report must equal a
one-thread run's, validate against the schema, count each unit's attempts,
and make a unit an error exactly when one of its calls ran out of attempts:
two ProviderErrors in a row, or a malformed reply to the format re-prompt.
"""

from __future__ import annotations

import hashlib
import json
import re
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import TOO_DEEP
from simaudit import scanner, simindex
from simaudit.agents import FORMAT_REMINDER, Role
from simaudit.corpus import new_index
from simaudit.errors import ProviderError
from simaudit.extract import extract_units
from simaudit.scanner import run_scan
from simaudit.simindex import FallbackEmbedder, embed_index
from test_agents import DEEP_REPLY

_SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "simaudit" / "schemas"
     / "scan_report.v1.schema.json").read_text(encoding="utf-8"))
REPORT_VALIDATOR = jsonschema.validators.validator_for(_SCHEMA)(_SCHEMA)

REFERENCE_SOL = """\
contract Ref {
    function leaf() public pure returns (uint256) { return 1; }
    function mid() public pure returns (uint256) { return leaf() + 1; }
}
"""

_NAME_RE = re.compile(r"function (u\d+)\(")


def _draw(*parts) -> int:
    return int.from_bytes(hashlib.sha256("|".join(map(str, parts)).encode()).digest()[:8],
                          "big")


def _good_payload(role: Role, prompt: str) -> dict:
    if role is Role.DETECTOR:
        return {"findings": []}
    if role is Role.CRITIC:
        return {"rebuttals": []}
    if role is Role.SUPPORTER:
        return {"assessment": "none"}
    digest = _draw("judge", prompt)
    return {"is_vulnerable": bool(digest % 2), "vuln_type": f"t{digest % 97}",
            "explanation": "drawn", "confidence": "Low"}


def _fence(payload: dict) -> str:
    return "```json\n" + json.dumps(payload) + "\n```"


class FaultyModel:
    """Answers each call with a draw from (seed, prompt, attempt), the
    attempt counted per prompt, after waiting up to max_wait seconds.
    seen[prompt] holds (outcome, message) per attempt, message being what
    the scan must record if that attempt ends the unit."""

    def __init__(self, seed: int, fail_pct: int, max_wait: float):
        self.seed, self.fail_pct, self.max_wait = seed, fail_pct, max_wait
        self.seen: dict[str, list[tuple[str, str]]] = {}
        self._lock = threading.Lock()

    def complete(self, messages, role):
        prompt = messages[-1]["content"]
        with self._lock:
            attempt = len(self.seen.setdefault(prompt, [])) + 1
            draw = _draw(self.seed, prompt, attempt)
            payload = _good_payload(role, prompt)
            share = draw % 100
            if share < self.fail_pct // 2:
                outcome, message = "down", f"injected outage {draw % 10007}"
            elif share < self.fail_pct * 5 // 8:
                outcome, message = "unfenced", f"{role.value} response has no fenced JSON block"
            elif share < self.fail_pct * 3 // 4:
                outcome, message = "deep", f"{role.value} response is not valid JSON: {TOO_DEEP}"
            elif share < self.fail_pct:
                key = list(payload)[draw // 100 % len(payload)]
                del payload[key]
                outcome, message = "missing", f"{role.value} response is missing {key!r}"
            else:
                outcome, message = "good", ""
            self.seen[prompt].append((outcome, message))
        time.sleep(self.max_wait * (draw % 1000) / 1000)
        if outcome == "down":
            raise ProviderError(message)
        if outcome == "deep":
            return DEEP_REPLY
        return "no block here" if outcome == "unfenced" else _fence(payload)

    def attempts(self, name: str) -> int:
        return sum(len(outcomes) for prompt, outcomes in self.seen.items()
                   if _NAME_RE.search(prompt).group(1) == name)

    def ran_out(self, name: str) -> list[str]:
        """The message of every call of the named unit that ran out of
        attempts: a second ProviderError, or a malformed reply to the
        re-prompt."""
        out = []
        for prompt, outcomes in self.seen.items():
            if _NAME_RE.search(prompt).group(1) != name:
                continue
            downs = [message for outcome, message in outcomes if outcome == "down"]
            if len(downs) >= 2:
                out.append(downs[1])
            elif prompt.endswith(FORMAT_REMINDER) and outcomes[-1][0] in (
                    "unfenced", "deep", "missing"):
                out.append(outcomes[-1][1])
        return out


class FaultyEmbedder(FallbackEmbedder):
    """The fallback embedder, except that each chunk attempt fails with a
    ProviderError drawn from (seed, texts, attempt). seen[texts] holds the
    message of each failed attempt, or None for a good one."""

    def __init__(self, seed: int, fail_pct: int):
        super().__init__()
        self.seed, self.fail_pct = seed, fail_pct
        self.seen: dict[tuple[str, ...], list[str | None]] = {}

    def embed_many(self, texts):
        key = tuple(texts)
        attempt = len(self.seen.setdefault(key, [])) + 1
        draw = _draw(self.seed, "embed", *key, attempt)
        if draw % 100 < self.fail_pct:
            self.seen[key].append(f"injected embedding outage {draw % 10007}")
            raise ProviderError(self.seen[key][-1])
        self.seen[key].append(None)
        return super().embed_many(texts)

    def dead_chunks(self) -> dict[str, str]:
        """{text: message} for every text of a chunk that failed twice."""
        return {text: outcomes[1] for key, outcomes in self.seen.items()
                if len(outcomes) >= 2 and outcomes[1] is not None for text in key}


@st.composite
def call_graphs(draw):
    """Callee lists of u0..u{n-1}, cycles and self-calls included."""
    n = draw(st.integers(1, 8))
    return [draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)) for _ in range(n)]


def _source(graph) -> str:
    return "contract Drawn {\n" + "".join(
        f"    function u{i}() public {{ {' '.join(f'u{c}();' for c in callees)} }}\n"
        for i, callees in enumerate(graph)) + "}\n"


def _scan(path, model, index=None, embedder=None):
    before = set(threading.enumerate())
    report = run_scan([path], index, model, embedder)
    assert set(threading.enumerate()) == before     # no thread outlives the scan
    REPORT_VALIDATOR.validate(report)
    report.pop("timing")
    return report


def _check_contracts(report, model, dead=None):
    """Each unit's calls, error and callee summaries against what the model
    (and the embedder's dead chunks, if given) saw."""
    by_id = {r["unit_id"]: r for r in report["units"]}
    sources = {}
    if dead is not None:
        path = report["inputs"]["files"][0]
        sources = {u.unit_id: u.normalized_source
                   for u in extract_units(Path(path).read_text(encoding="utf-8"), path)}
    for rec in report["units"]:
        assert rec["provider_calls"] == model.attempts(rec["name"]), rec["unit_id"]
        if dead is not None and sources[rec["unit_id"]] in dead:
            assert rec["provider_calls"] == 0 and rec["matches"] == []
            want = [dead[sources[rec["unit_id"]]]]
        else:
            want = model.ran_out(rec["name"])
        assert len(want) <= 1, (rec["unit_id"], want)    # a failure ends the debate
        got = [rec["error_message"]] if rec["verdict"] == "error" else []
        assert got == want, rec["unit_id"]
        for callee, line in rec["callee_summaries"]:
            assert (line == "analysis failed") == (by_id[callee]["verdict"] == "error")
    position = {r["unit_id"]: r["position"] for r in report["units"]}
    for caller, callee in report["callgraph"]["edges"]:
        summarized = [c for c, _ in by_id[caller]["callee_summaries"]]
        assert (callee in summarized) == (position[callee] < position[caller])


_faults = dict(graph=call_graphs(), seed=st.integers(0, 2**32),
               fail_pct=st.sampled_from([0, 20, 45, 80]),
               max_wait=st.sampled_from([0.0, 0.001]))


@settings(max_examples=30, deadline=None)
@given(**_faults)
def test_model_failures_keep_the_scan_contracts(graph, seed, fail_pct, max_wait):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.sol"
        path.write_text(_source(graph), encoding="utf-8")
        model = FaultyModel(seed, fail_pct, max_wait)
        report = _scan(path, model)
        _check_contracts(report, model)
        assert report["summary"]["provider_calls"] == sum(
            len(outcomes) for outcomes in model.seen.values())
        with mock.patch.object(scanner, "DEBATE_WORKERS", 1):
            serial = _scan(path, FaultyModel(seed, fail_pct, 0.0))
    assert json.dumps(report, sort_keys=True) == json.dumps(serial, sort_keys=True)


@settings(max_examples=20, deadline=None)
@given(**_faults, embed_fail_pct=st.sampled_from([0, 35, 70]))
def test_embedding_failures_are_the_errors_of_their_chunks(graph, seed, fail_pct, max_wait,
                                                           embed_fail_pct):
    index = new_index(delta=0.5)
    for unit in extract_units(REFERENCE_SOL, "ref.sol"):
        index.insert(unit, "refs", "1.0")
    embed_index(index, FallbackEmbedder())
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(simindex, "EMBED_CHUNK", 3):
        path = Path(tmp) / "drawn.sol"
        path.write_text(_source(graph), encoding="utf-8")
        model = FaultyModel(seed, fail_pct, max_wait)
        embedder = FaultyEmbedder(seed, embed_fail_pct)
        report = _scan(path, model, index, embedder)
        _check_contracts(report, model, embedder.dead_chunks())
        with mock.patch.object(scanner, "DEBATE_WORKERS", 1):
            serial = _scan(path, FaultyModel(seed, fail_pct, 0.0), index,
                           FaultyEmbedder(seed, embed_fail_pct))
    assert json.dumps(report, sort_keys=True) == json.dumps(serial, sort_keys=True)
