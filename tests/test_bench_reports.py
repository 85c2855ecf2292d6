"""The benchmark's two seed-1 workloads, indexed and scanned in-process: each
report, read back from its JSON, hashes to the `report_sha256` that
`bench/run.py --seed 1` prints for it, and each index file is as long as
the one the benchmark measures as `index_mb`.

The inputs come from `bench/workloads.py`, and the commands run through
`simaudit.cli.main` with the arguments `bench/run.py` gives them, from the
workload's directory. The retrieval workload uses the mock model, as the
benchmark does. The llm workload's model is `bench/endpoint.answer` called
in-process, the reply the stand-in endpoint sends, in place of the HTTP
provider, so no endpoint is started. A change meant to alter reports edits
these digests in the open, and one meant to alter the index file edits
its length.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from simaudit import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"

DIGESTS = {
    "retrieval": "94d4b292d4fd5799eb986c0e1ef7ea20d8abab8dfa4dff572c936e4ca0bd194e",
    "llm": "47b54996ce033769d69d766f4a591c27971a84bab88a38a13bd6596dd48c6492",
}
# The byte length of each workload's seed-1 index.jsonl.
INDEX_BYTES = {"retrieval": 229_154, "llm": 15_910}


def _bench(name: str, monkeypatch):
    """bench/<name>.py as a module; its own imports of its sibling modules
    resolve in bench/."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", DIGESTS)
def test_seed_1_report_digest(workload, tmp_path, monkeypatch):
    workloads = _bench("workloads", monkeypatch)
    run = _bench("run", monkeypatch)
    monkeypatch.chdir(tmp_path)
    workloads.generate(workload, 1, Path("."))
    assert cli.main(["index", "--archives", "archives", "--labels", "labels.csv",
                     "--out", "index.jsonl"]) == 0
    assert Path("index.jsonl").stat().st_size == INDEX_BYTES[workload]
    scan = ["scan", "--input", "target", "--index", "index.jsonl", "--report", "report.json"]
    if workloads.WORKLOADS[workload]["model_delay_s"] is None:
        scan += ["--provider", "mock", "--mock-fixture", "mock.json"]
    else:
        answer = _bench("endpoint", monkeypatch).answer   # the endpoint's reply, no HTTP
        model = SimpleNamespace(complete=lambda messages, role: answer(messages[-1]["content"]))
        monkeypatch.setattr(cli, "_make_llm_provider", lambda args, config: model)
        scan += ["--provider", "remote"]
    assert cli.main(scan) == 0
    report = json.loads(Path("report.json").read_text(encoding="utf-8"))
    assert report["summary"]["errors"] == 0
    text = run.deterministic_text(report)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[workload]
