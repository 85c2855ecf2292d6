"""Outside-in tracing of simaudit's layers and the per-layer metrics.

The traced run installs timing wrappers on the module-level names that
`cli`, `scanner` and `corpus` import, on three `CorpusIndex` methods and on
the injected providers. Nothing in the package itself changes; the wrappers
are removed again after each traced call. A name that a later version of the
package no longer has is skipped, so its metrics read as zero.

Each span is a dict: id, name, start, end, parent id, workload, and for some
names a `note` (a size or outcome taken from the call's arguments or result)
and `error` when the call raised.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import threading
import time
from contextlib import contextmanager


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


# (module, class or None, attribute, span name, note(args, kwargs, result)).
# Span names are <defining module>.<function>, whatever module imported them.
TARGETS = [
    ("simaudit.cli", None, "cmd_index", "cli.cmd_index", None),
    ("simaudit.cli", None, "cmd_scan", "cli.cmd_scan", None),
    ("simaudit.cli", None, "ingest_archive", "corpus.ingest_archive", None),
    ("simaudit.cli", None, "apply_labels", "corpus.apply_labels", None),
    ("simaudit.cli", None, "embed_index", "simindex.embed_index",
     lambda a, k, r: len(_arg(a, k, 0, "index").entries)),
    ("simaudit.cli", None, "save_index", "corpus.save_index", None),
    ("simaudit.cli", None, "load_index", "corpus.load_index",
     lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))),
    ("simaudit.cli", None, "run_scan", "scanner.run_scan", None),
    ("simaudit.corpus", None, "extract_units", "extract.extract_units",
     lambda a, k, r: len(_arg(a, k, 0, "source").encode("utf-8"))),
    ("simaudit.scanner", None, "extract_units", "extract.extract_units",
     lambda a, k, r: len(_arg(a, k, 0, "source").encode("utf-8"))),
    ("simaudit.scanner", None, "build_graph", "callgraph.build_graph", None),
    ("simaudit.scanner", None, "topo_order", "callgraph.topo_order", None),
    ("simaudit.scanner", None, "embed", "simindex.embed", None),
    ("simaudit.scanner", None, "query_top_k", "simindex.query_top_k",
     lambda a, k, r: len(_arg(a, k, 1, "index").entries)),
    ("simaudit.scanner", None, "run_debate", "agents.run_debate",
     lambda a, k, r: _arg(a, k, 0, "task").category.value),
    ("simaudit.agents", None, "parse_verdict", "agents.parse_verdict", None),
    ("simaudit.corpus", "CorpusIndex", "insert", "corpus.insert",
     lambda a, k, r: bool(r)),
    ("simaudit.corpus", "CorpusIndex", "find_clone", "corpus.find_clone",
     lambda a, k, r: r is not None),
    ("simaudit.corpus", "CorpusIndex", "entry_by_id", "corpus.entry_by_id", None),
    ("simaudit.agents", "MockLLMProvider", "complete", "provider.complete",
     lambda a, k, r: len(_arg(a, k, 1, "messages")[-1]["content"])),
    ("simaudit.agents", "HttpLLMProvider", "complete", "provider.complete",
     lambda a, k, r: len(_arg(a, k, 1, "messages")[-1]["content"])),
    ("simaudit.simindex", "FallbackEmbedder", "embed_many", "provider.embed_many",
     lambda a, k, r: len(_arg(a, k, 1, "texts"))),
]


class Tracer:
    """Keeps spans in memory. Parents come from a per-thread stack; a span
    opened on a thread with an empty stack is parented to the innermost span
    open on the thread that created the tracer."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> dict:
        stack = self._stack()
        outer = stack[-1:] or self._main[-1:]
        span = {"name": name, "parent": outer[0]["id"] if outer else None,
                "workload": self.workload, "end": None}
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()

    def _wrapper(self, original, name, note):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                self._close(span)
            if note is not None:
                try:
                    span["note"] = note(args, kwargs, result)
                except Exception:  # a changed signature loses the note, not the run
                    span["note"] = None
            return result
        return traced

    @contextmanager
    def installed(self):
        """Install every wrapper in TARGETS for the duration of the block."""
        undo = []
        try:
            for module, cls, attr, name, note in TARGETS:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    continue
                setattr(owner, attr, self._wrapper(original, name, note))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _named(spans, name):
    return [s for s in spans if s["name"] == name]


def _total(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def _notes(spans) -> list:
    return [s["note"] for s in spans if s.get("note") is not None]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def index_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced `simaudit index` call."""
    extract = _named(spans, "extract.extract_units")
    inserts = _named(spans, "corpus.insert")
    ingest_s = _total(_named(spans, "corpus.ingest_archive"))
    embed = _named(spans, "simindex.embed_index")
    return {
        "extract.calls": len(extract),
        "extract.mb_per_s": _ratio(sum(_notes(extract)) / 1e6, _total(extract)),
        "corpus.ingest_s": ingest_s,
        "corpus.ingest_us_per_fn": _ratio(ingest_s * 1e6, len(inserts)),
        "corpus.kept_ratio": _ratio(sum(_notes(inserts)), len(inserts)),
        "corpus.save_s": _total(_named(spans, "corpus.save_index")),
        "simindex.embed_index_ms_per_entry": _ratio(_total(embed) * 1e3,
                                                    sum(_notes(embed))),
    }


def scan_metrics(spans: list[dict], wall_s: float, report: dict,
                 connections: int) -> dict[str, float]:
    """Per-layer metrics of one traced `simaudit scan` call that took wall_s
    and wrote `report`; `connections` is what the model endpoint counted."""
    own = self_times(spans)
    load = _named(spans, "corpus.load_index")
    clones = _named(spans, "corpus.find_clone")
    by_id = _named(spans, "corpus.entry_by_id")
    embeds = _named(spans, "provider.embed_many")
    queries = _named(spans, "simindex.query_top_k")
    query_ms = [(s["end"] - s["start"]) * 1e3 for s in queries]
    debates = [s for s in _named(spans, "agents.run_debate") if s.get("note") != "clone"]
    debate_ms = [(s["end"] - s["start"]) * 1e3 for s in debates]
    calls = _named(spans, "provider.complete")
    llm_wait = _total(calls)
    run_scan = _named(spans, "scanner.run_scan")
    units = report["summary"]["units"]
    n_clone = sum(1 for r in report["units"] if r["category"] == "clone")
    return {
        "corpus.load_s": _total(load),
        "corpus.load_mb_per_s": _ratio(sum(_notes(load)) / 1e6, _total(load)),
        "corpus.find_clone_us": _ratio(_total(clones) * 1e6, len(clones)),
        "corpus.clone_lookups": len(clones),
        "corpus.clone_hit_ratio": _ratio(sum(_notes(clones)), len(clones)),
        "corpus.entry_by_id_us": _ratio(_total(by_id) * 1e6, len(by_id)),
        "corpus.entry_by_id_calls": len(by_id),
        "simindex.embed_calls": len(embeds),
        "simindex.embed_ms": _total(embeds) * 1e3,
        "simindex.query_ms.p50": _percentile(query_ms, 0.5),
        "simindex.query_ms.p95": _percentile(query_ms, 0.95),
        "simindex.queries": len(queries),
        "simindex.query_us_per_entry": _ratio(sum(query_ms) * 1e3, sum(_notes(queries))),
        "simindex.query_share": _ratio(sum(own[s["id"]] for s in queries), wall_s),
        "callgraph.build_ms": _total(_named(spans, "callgraph.build_graph")) * 1e3,
        "callgraph.topo_ms": _total(_named(spans, "callgraph.topo_order")) * 1e3,
        **schedule_shape(report),
        "agents.debate_ms.p50": _percentile(debate_ms, 0.5),
        "agents.debate_ms.p95": _percentile(debate_ms, 0.95),
        "agents.llm_wait_s": llm_wait,
        "agents.self_ms_per_unit": _ratio((_total(debates) - llm_wait) * 1e3, len(debates)),
        "agents.in_flight": _ratio(llm_wait, wall_s),
        "agents.reprompts": sum(1 for s in _named(spans, "agents.parse_verdict")
                                if s.get("error")),
        "agents.failed_calls": sum(1 for s in calls if s.get("error")),
        "agents.prompt_kchars": sum(_notes(calls)) / 1e3,
        "agents.http_connections": connections,
        "scanner.run_scan_s": _total(run_scan),
        "scanner.self_s": sum(own[s["id"]] for s in run_scan),
        "scanner.clone_ratio": _ratio(n_clone, units),
        "cli.report_write_s": sum(own[s["id"]] for s in _named(spans, "cli.cmd_scan")),
    }


def schedule_shape(report: dict) -> dict[str, int]:
    """Parallelism available to the debate, from the report's schedule.

    Each call-graph cycle is one group that runs its members in turn; clone
    units cost nothing. Starting every group as soon as its callee groups
    finish, `critical_path` is the longest chain of non-clone units and
    `max_wavefront` the most non-clone groups running at once.
    """
    category = {r["unit_id"]: r["category"] for r in report["units"]}
    group_of = {}
    for group in report["schedule"]["scc_groups"]:
        for unit in group:
            group_of[unit] = tuple(group)
    for unit in report["schedule"]["order"]:
        group_of.setdefault(unit, (unit,))
    deps: dict[tuple, set] = {g: set() for g in group_of.values()}
    for caller, callee in report["callgraph"]["edges"]:
        if group_of[caller] != group_of[callee]:
            deps[group_of[caller]].add(group_of[callee])
    finish: dict[tuple, int] = {}
    busy: list[tuple[int, int]] = []
    for unit in report["schedule"]["order"]:
        group = group_of[unit]
        if group in finish:
            continue
        start = max((finish.get(d, 0) for d in deps[group]), default=0)
        weight = sum(1 for u in group if category[u] != "clone")
        finish[group] = start + weight
        if weight:
            busy.append((start, start + weight))
    return {
        "callgraph.critical_path": max(finish.values(), default=0),
        "callgraph.max_wavefront": max((sum(1 for s, e in busy if s <= t < e)
                                        for t, _ in busy), default=0),
    }
