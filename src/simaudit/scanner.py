"""Scan pipeline: extract, schedule, check the corpus, debate, report.

A scan runs in two phases. Classify, on the calling thread: every unit gets
an exact-content clone check against the corpus (no model involved), the
units that are not clones are embedded EMBED_CHUNK texts per request, and
one top-k retrieval call scores all of them, in schedule order. Debate: the
call graph's groups (a cycle, or a single unit) run on up to DEBATE_WORKERS
threads, a group as soon as all the groups it calls are done, the members of
a cycle one after another. Of the ready groups, a free thread takes the one
that heads the longest chain of units still to debate, the first in schedule
order on a tie. Every unit thus sees the same callee outcomes as in a
serial run. Results land in a report dictionary, assembled in schedule
order, whose JSON form is stable across runs except for the timing block;
its schedule.order is that callee-first order, not the order in which the
debates started.
"""

from __future__ import annotations

import heapq
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .agents import (
    DebateTranscript,
    DetectionTask,
    TaskMatch,
    TemplateSet,
    Verdict,
    _record,
    run_debate,
)
from .callgraph import build_graph, topo_order
from .corpus import CorpusIndex, read_text
from .errors import ParseError, ProviderError, ProviderMismatch
from .extract import FunctionUnit, extract_units
from .simindex import DEFAULT_DELTA, Category, SimilarityMatch, embed_chunks, query_top_k

REPORT_SCHEMA_VERSION = 1
DEBATE_WORKERS = 8  # threads debating call-graph groups, one model request each


def collect_sol_files(paths: list[str | Path]) -> list[str]:
    """Expand files and directories into a sorted, deduplicated .sol list."""
    found: set[str] = set()
    for p in paths:
        path = Path(p)
        if path.is_dir():
            found.update(str(f) for f in path.rglob("*.sol"))
        else:
            found.add(str(path))
    return sorted(found)


def load_units(files: list[str]) -> list[FunctionUnit]:
    units: list[FunctionUnit] = []
    for f in files:
        text = read_text(f, "source")
        units.extend(extract_units(text, f))
    return units


def _summary_line(verdict: Verdict | None, error: str | None) -> str:
    if error is not None:
        return "analysis failed"
    if verdict.is_vulnerable:
        return f"vulnerable: {verdict.vuln_type or 'unspecified'}"
    return "no vulnerability found"


class _CallCounter:
    """Forwards complete() to the provider, counting every attempt."""

    def __init__(self, provider):
        self.provider, self.count = provider, 0

    def complete(self, messages, config):
        self.count += 1
        return self.provider.complete(messages, config)


def _classify(schedule_order, by_id, index, embed_provider, k, delta):
    """Clone check, chunked embedding and one batched top-k retrieval of
    every embedded unit.

    Returns {unit_id: (category, matches, error)}; error is the message of a
    failed embedding chunk, the unit's only outcome then. Retrieval errors
    (an index that does not match the embedder) propagate.
    """
    classified = {}
    for unit_id, unit in by_id.items():
        clone = index.find_clone(unit.normalized_source, unit.content_hash)
        if clone is not None:
            classified[unit_id] = (Category.CLONE, [TaskMatch(
                match=SimilarityMatch(entry_id=clone.entry_id, distance=0.0,
                                      similarity=1.0, category=Category.CLONE),
                entry=clone)], None)
    pending = [unit_id for unit_id in schedule_order if unit_id not in classified]
    embedded: list[str] = []
    queries: list[np.ndarray] = []
    for span, result in embed_chunks([by_id[u].normalized_source for u in pending],
                                     embed_provider):
        if isinstance(result, ProviderError):
            classified.update(dict.fromkeys(
                pending[span], (Category.DISSIMILAR, [], str(result))))
        else:
            embedded += pending[span]
            queries.extend(result)
    for unit_id, top in zip(embedded, query_top_k(queries, index, k=k, delta=delta)):
        matches = [TaskMatch(match=m, entry=index.entry_by_id(m.entry_id)) for m in top]
        classified[unit_id] = (top[0].category if top else Category.DISSIMILAR,
                               matches, None)
    return classified


def _run_groups(groups, callee_groups, weights, run_group) -> None:
    """Run run_group(groups[g]) for every group on up to DEBATE_WORKERS
    threads, each once the groups at the positions callee_groups[g] finish.

    groups and callee_groups are a ScanSchedule's, callees first. A group's
    height is its weight (weights[g], the units it will really debate) plus
    the largest height among the groups that call it: the debating still
    ahead on the longest chain the group heads. A free thread takes the
    highest ready group, the first in schedule order on a tie, so the chain
    that bounds the scan does not queue behind groups that nothing waits for.

    The threads take ready groups from one shared heap; an idle thread is
    woken only when a group becomes ready. The calling thread waits for the
    count of live threads to reach 0, and joins them only then: a Ctrl-C
    that lands in Thread.join marks a still-running thread as stopped on
    CPython 3.11 (bpo-45274), so join could not be relied on to wait. (One
    future per group, which wakes the calling thread after every group,
    made a whole scan about 12 % slower than a serial one when the model
    answers at once.) An exception from run_group, or one that interrupts
    the calling thread, stops the threads from starting further groups and
    propagates once the running groups have ended.
    """
    waiting = [len(called) for called in callee_groups]
    callers: list[list[int]] = [[] for _ in groups]
    for g, called in enumerate(callee_groups):
        for callee in called:
            callers[callee].append(g)
    height = list(weights)
    for g in reversed(range(len(groups))):
        height[g] += max((height[c] for c in callers[g]), default=0)
    ready = [(-height[g], g) for g in range(len(groups)) if not waiting[g]]
    heapq.heapify(ready)
    left = len(groups)
    live = 0
    failures: list[BaseException] = []
    lock = threading.Lock()
    cond = threading.Condition(lock)        # a group is ready, or the run ends
    exited = threading.Condition(lock)      # no thread is left running

    def work():
        nonlocal left, live
        try:
            while True:
                with cond:
                    while not ready and left and not failures:
                        cond.wait()
                    if failures or not ready:
                        return
                    _, group = heapq.heappop(ready)
                try:
                    run_group(groups[group])
                except BaseException as exc:
                    with cond:
                        failures.append(exc)
                        cond.notify_all()
                    return
                with cond:
                    left -= 1
                    for caller in callers[group]:
                        waiting[caller] -= 1
                        if not waiting[caller]:
                            heapq.heappush(ready, (-height[caller], caller))
                            cond.notify()
                    if not left:
                        cond.notify_all()
        finally:
            with exited:
                live -= 1
                if live <= 0:
                    exited.notify()

    threads = []
    try:
        for _ in range(min(DEBATE_WORKERS, len(groups))):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
            with exited:    # counted once started; it may already have ended
                live += 1
        with exited:
            while live > 0:
                exited.wait()
    except BaseException as exc:
        with cond:
            failures.append(exc)
            cond.notify_all()
            while live > 0:
                exited.wait()
        raise
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]


def run_scan(paths: list[str | Path], index: CorpusIndex | None, llm_provider,
             embed_provider=None, *, k: int = 3, delta: float | None = None,
             simcheck: bool = True, configs=None,
             templates: TemplateSet | None = None,
             provider_name: str = "", index_path: str | None = None) -> dict:
    """Scan the given paths and return the report dictionary.

    Classify runs on the calling thread: clone checks, embedding of the
    non-clone units in EMBED_CHUNK batches and one top-k retrieval call for
    all of them. Debate then runs the call graph's groups (a cycle or a
    single unit) on up to DEBATE_WORKERS threads, each group once its callee
    groups are done, the members of a cycle in schedule order. Of the ready
    groups, a free thread takes the one with the most units to debate (not
    clones, no embedding error) on the longest chain from it through its
    callers, the first in schedule order on a tie. A unit's callee summaries
    thus see the same outcomes as in a serial run, and records are
    assembled in schedule order, so the report does not depend on the
    threads; the report's schedule.order is the callee-first order, not the
    order in which debates started.

    delta defaults to the index's threshold (DEFAULT_DELTA without an index).
    Per-unit provider and parse failures become verdict "error" records and
    the scan keeps going; a failed embedding chunk is the error of each of
    its units. Anything wrong with reading inputs, an index that does not
    match the embedder, or any other exception (a bad template, say)
    propagates, the latter once the debates already running have ended.
    index_path is only recorded, as the report's inputs.index.
    """
    started = time.perf_counter()
    started_at = datetime.now(timezone.utc).isoformat(timespec="seconds")

    if simcheck:
        if index is None:
            raise ValueError("similarity checking requires an index")
        if embed_provider is None:
            raise ValueError("similarity checking requires an embedding provider")
        if index.meta.embedder_id != embed_provider.provider_id:
            raise ProviderMismatch(
                f"index was embedded by {index.meta.embedder_id}, "
                f"scan provider is {embed_provider.provider_id}")
    if delta is None:
        delta = index.meta.delta if index is not None else DEFAULT_DELTA

    files = collect_sol_files(paths)
    units = load_units(files)
    graph = build_graph(units)
    schedule = topo_order(graph)
    by_id = {u.unit_id: u for u in units}
    callees: dict[str, list[str]] = {u.unit_id: [] for u in units}
    for caller, callee in sorted(graph.edges):
        callees[caller].append(callee)

    if simcheck:
        classified = _classify(schedule.order, by_id, index, embed_provider, k, delta)
    else:
        classified = dict.fromkeys(schedule.order, (Category.DISSIMILAR, [], None))

    templates = templates or TemplateSet.builtin()
    outcomes: dict[str, tuple[Verdict | None, str | None]] = {}
    debated: dict[str, tuple] = {}

    def debate_group(members):
        for unit_id in members:
            category, matches, error = classified[unit_id]
            summaries = tuple(
                (callee, _summary_line(*outcomes[callee]))
                for callee in callees[unit_id] if callee in outcomes
            )
            llm = _CallCounter(llm_provider)
            verdict: Verdict | None = None
            transcript = DebateTranscript(())
            if error is None:
                task = DetectionTask(unit=by_id[unit_id], callee_summaries=summaries,
                                     matches=tuple(matches), category=category)
                try:
                    verdict, transcript = run_debate(task, llm, configs, templates)
                except (ProviderError, ParseError) as exc:
                    error = str(exc)
            outcomes[unit_id] = (verdict, error)
            debated[unit_id] = (summaries, verdict, transcript, error, llm.count)

    debated_units = [sum(classified[u][0] is not Category.CLONE and classified[u][2] is None
                         for u in g) for g in schedule.groups]
    _run_groups(schedule.groups, schedule.group_callees, debated_units, debate_group)

    records: list[dict] = []
    transcripts: dict[str, list[dict]] = {}
    for position, unit_id in enumerate(schedule.order):
        unit = by_id[unit_id]
        category, matches, _ = classified[unit_id]
        summaries, verdict, transcript, error, calls = debated[unit_id]
        records.append({
            "unit_id": unit_id,
            "position": position,
            "name": unit.name,
            "kind": unit.kind.value,
            "contract": unit.contract,
            "file": unit.file_path,
            "category": category.value,
            "matches": [_record(tm.match) for tm in matches],
            "callee_summaries": [list(s) for s in summaries],
            "verdict": "error" if error is not None else verdict.to_dict(),
            "error_message": error,
            "provider_calls": calls,
            "transcript_ref": unit_id if transcript.entries else None,
        })
        if transcript.entries:
            transcripts[unit_id] = transcript.to_list()

    vulnerable = sum(1 for r in records
                     if r["verdict"] != "error" and r["verdict"]["is_vulnerable"])
    errors = sum(1 for r in records if r["verdict"] == "error")
    by_category = {c.value: sum(1 for r in records if r["category"] == c.value)
                   for c in Category}

    finished = time.perf_counter()
    inputs = {
        "files": files,
        "index": index_path,
        "k": k,
        "delta": delta,
        "simcheck": simcheck,
        "provider": provider_name,
    }
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool_version": __version__,
        "inputs": inputs,
        "schedule": {
            "order": list(schedule.order),
            "scc_groups": [list(g) for g in schedule.groups if len(g) > 1],
        },
        "callgraph": {
            "edges": sorted([caller, callee] for caller, callee in graph.edges),
            "unresolved": [
                {"caller_id": u.caller_id, "name": u.name, "reason": u.reason}
                for u in graph.unresolved
            ],
            "self_recursive": list(graph.self_recursive),
        },
        "units": records,
        "transcripts": transcripts,
        "summary": {
            "units": len(records),
            "vulnerable": vulnerable,
            "not_vulnerable": len(records) - vulnerable - errors,
            "errors": errors,
            "by_category": by_category,
            "provider_calls": sum(r["provider_calls"] for r in records),
        },
        "timing": {
            "started_at": started_at,
            "finished_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "seconds": finished - started,
        },
    }


def render_markdown(report: dict) -> str:
    """Secondary human-readable view of a report; same data, no new fields."""
    s = report["summary"]
    lines = [
        "# Scan report",
        "",
        f"Tool version {report['tool_version']}, schema {report['schema_version']}.",
        "",
        f"- units scanned: {s['units']}",
        f"- vulnerable: {s['vulnerable']}",
        f"- not vulnerable: {s['not_vulnerable']}",
        f"- errors: {s['errors']}",
        f"- categories: {s['by_category']}",
        "",
        "| # | unit | category | verdict |",
        "|---|------|----------|---------|",
    ]
    for r in report["units"]:
        if r["verdict"] == "error":
            verdict = f"error: {r['error_message']}"
        elif r["verdict"]["is_vulnerable"]:
            verdict = f"VULNERABLE ({r['verdict']['vuln_type']})"
        else:
            verdict = "ok"
        lines.append(f"| {r['position']} | {r['unit_id']} | {r['category']} | {verdict} |")
    lines.append("")
    return "\n".join(lines)
