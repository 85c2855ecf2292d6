"""Scan pipeline: extract, schedule, check the corpus, debate, report.

run_scan is four stages, each a function of its arguments: _prepare reads
the units and puts them in callee-first schedule order over the call graph,
_classify checks them against the corpus on the calling thread, _debate
runs the model debates on worker threads, each unit once its callees
scheduled before it are done (_run_units states the order), and _assemble
builds the report in schedule order. The report's JSON form is stable
across runs except for the timing block that run_scan adds.
"""

from __future__ import annotations

import heapq
import threading
import time
from datetime import datetime, timezone
from graphlib import TopologicalSorter
from pathlib import Path

import numpy as np

from . import __version__
from .agents import CallLog, DetectionTask, TaskMatch, TemplateSet, _record, run_debate
from .callgraph import build_graph, topo_order
from .corpus import CorpusIndex, read_text
from .errors import ParseError, ProviderError, ProviderMismatch
from .extract import extract_units
from .simindex import DEFAULT_DELTA, Category, SimilarityMatch, embed_chunks, query_top_k

REPORT_SCHEMA_VERSION = 1
DEBATE_WORKERS = 8  # threads debating units, one model request each


def collect_sol_files(paths: list[str | Path]) -> list[str]:
    """Expand files and directories into a sorted, deduplicated .sol list;
    a directory contributes the files under it named *.sol, not directories."""
    found: set[str] = set()
    for p in paths:
        path = Path(p)
        if path.is_dir():
            found.update(str(f) for f in path.rglob("*.sol") if f.is_file())
        else:
            found.add(str(path))
    return sorted(found)


def _summary_line(record: dict) -> str:
    verdict = record["verdict"]
    if verdict == "error":
        return "analysis failed"
    if verdict["is_vulnerable"]:
        return f"vulnerable: {verdict['vuln_type'] or 'unspecified'}"
    return "no vulnerability found"


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


def _run_units(deps, weights, run_unit) -> None:
    """Run run_unit(p) for every position p on up to DEBATE_WORKERS threads,
    each once the positions deps[p] have finished.

    deps[p] lists only positions before p, so the run is a DAG walk, driven
    by one graphlib.TopologicalSorter under the threads' lock. A position's
    height is its weight (weights[p], 1 if its unit will really be debated)
    plus the largest height among the positions that wait on it: the
    debating still ahead on the longest chain it heads. A free thread takes
    the highest ready position, the first in schedule order on a tie, so the
    chain that bounds the scan does not queue behind units that nothing
    waits for.

    The threads take ready positions from one shared heap; an idle thread is
    woken only when a position becomes ready. The calling thread waits for
    the count of live threads to reach 0, and joins them only then: a Ctrl-C
    that lands in Thread.join marks a still-running thread as stopped on
    CPython 3.11 (bpo-45274), so join could not be relied on to wait. (One
    future per task, which woke the calling thread after each, made a whole
    scan about 12 % slower than a serial one when the model answers at
    once.) An exception from run_unit, or one that interrupts the calling
    thread, stops the threads from starting further units and propagates
    once the running units have ended.
    """
    height = list(weights)
    for p in reversed(range(len(deps))):
        for d in deps[p]:
            height[d] = max(height[d], weights[d] + height[p])
    sorter = TopologicalSorter(dict(enumerate(deps)))
    sorter.prepare()
    ready = [(-height[p], p) for p in sorter.get_ready()]
    heapq.heapify(ready)
    live = 0
    failures: list[BaseException] = []
    lock = threading.Lock()
    cond = threading.Condition(lock)        # a unit is ready, or the run ends
    exited = threading.Condition(lock)      # no thread is left running

    def work():
        nonlocal live
        try:
            while True:
                with cond:
                    while not ready and sorter.is_active() and not failures:
                        cond.wait()
                    if failures or not ready:
                        return
                    _, p = heapq.heappop(ready)
                try:
                    run_unit(p)
                except BaseException as exc:
                    with cond:
                        failures.append(exc)
                        cond.notify_all()
                    return
                with cond:
                    sorter.done(p)
                    for q in sorter.get_ready():
                        heapq.heappush(ready, (-height[q], q))
                        cond.notify()
                    if not sorter.is_active():
                        cond.notify_all()
        finally:
            with exited:
                live -= 1
                if live <= 0:
                    exited.notify()

    threads = []
    try:
        for _ in range(min(DEBATE_WORKERS, len(deps))):
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


def _prepare(paths: list[str | Path]):
    """The input files, their units by id, the call graph and its schedule."""
    files = collect_sol_files(paths)
    units = [unit for f in files for unit in extract_units(read_text(f, "source"), f)]
    graph = build_graph(units)
    return files, {u.unit_id: u for u in units}, graph, topo_order(graph)


def _debate(schedule, graph, by_id, classified, llm_provider, templates):
    """Debate every unit that is not a clone and has no embedding error,
    each through _run_units once its callees scheduled before it are done.

    Returns the report record of every unit, without its position, and the
    transcripts of the units whose debate has entries. A unit's callee
    summaries come from the records of exactly those callees: every callee
    outside its cycle and the earlier members inside it, as in a serial run.
    """
    position = {unit_id: p for p, unit_id in enumerate(schedule.order)}
    earlier: list[list[str]] = [[] for _ in schedule.order]
    for caller, callee in sorted(graph.edges):
        if position[callee] < position[caller]:
            earlier[position[caller]].append(callee)
    records: dict[str, dict] = {}
    transcripts: dict[str, list[dict]] = {}

    def debate_unit(p):
        unit_id = schedule.order[p]
        unit = by_id[unit_id]
        category, matches, error = classified[unit_id]
        summaries = tuple((callee, _summary_line(records[callee]))
                          for callee in earlier[p])
        llm = CallLog(llm_provider)
        if error is None:
            task = DetectionTask(unit=unit, callee_summaries=summaries,
                                 matches=tuple(matches), category=category)
            try:
                verdict, transcript = run_debate(task, llm, templates)
            except (ProviderError, ParseError) as exc:
                error = str(exc)
            else:
                if transcript.entries:
                    transcripts[unit_id] = transcript.to_list()
        records[unit_id] = {
            "unit_id": unit_id,
            "name": unit.name,
            "kind": unit.kind.value,
            "contract": unit.contract,
            "file": unit.file_path,
            "category": category.value,
            "matches": [_record(tm.match) for tm in matches],
            "callee_summaries": [list(s) for s in summaries],
            "verdict": "error" if error is not None else verdict.to_dict(),
            "error_message": error,
            "provider_calls": len(llm.calls),
            "transcript_ref": unit_id if unit_id in transcripts else None,
        }

    weights = [classified[u][0] is not Category.CLONE and classified[u][2] is None
               for u in schedule.order]
    _run_units([[position[c] for c in callees] for callees in earlier], weights,
               debate_unit)
    return records, transcripts


def _assemble(inputs, graph, schedule, records, transcripts) -> dict:
    """The report without its timing block, its records in schedule order."""
    units = [dict(records[u], position=p) for p, u in enumerate(schedule.order)]
    verdicts = [r["verdict"] for r in units]
    errors = verdicts.count("error")
    vulnerable = sum(v != "error" and v["is_vulnerable"] for v in verdicts)
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
            "unresolved": [_record(u) for u in graph.unresolved],
            "self_recursive": list(graph.self_recursive),
        },
        "units": units,
        "transcripts": {u: transcripts[u] for u in schedule.order if u in transcripts},
        "summary": {
            "units": len(units),
            "vulnerable": vulnerable,
            "not_vulnerable": len(units) - vulnerable - errors,
            "errors": errors,
            "by_category": {c.value: sum(r["category"] == c.value for r in units)
                            for c in Category},
            "provider_calls": sum(r["provider_calls"] for r in units),
        },
    }


def run_scan(paths: list[str | Path], index: CorpusIndex | None, llm_provider,
             embed_provider=None, *, k: int = 3, delta: float | None = None,
             templates: TemplateSet | None = None, provider_name: str = "",
             index_path: str | None = None) -> dict:
    """Scan the given paths and return the report dictionary.

    Units are checked against the index, through embed_provider, when an
    index is given (the report's inputs.simcheck); without one, every unit
    is debated as dissimilar. delta defaults to the index's threshold
    (DEFAULT_DELTA without an index).
    Per-unit provider and parse failures become verdict "error" records and
    the scan keeps going; a failed embedding chunk is the error of each of
    its units. Anything wrong with reading inputs, an index that does not
    match the embedder, or any other exception (a bad template, say)
    propagates, the latter once the debates already running have ended.
    index_path is only recorded, as the report's inputs.index.
    """
    started = time.perf_counter()
    started_at = datetime.now(timezone.utc).isoformat(timespec="seconds")

    simcheck = index is not None
    if simcheck:
        if embed_provider is None:
            raise ValueError("similarity checking requires an embedding provider")
        if index.meta.embedder_id != embed_provider.provider_id:
            raise ProviderMismatch(
                f"index was embedded by {index.meta.embedder_id}, "
                f"scan provider is {embed_provider.provider_id}")
    if delta is None:
        delta = index.meta.delta if simcheck else DEFAULT_DELTA

    files, by_id, graph, schedule = _prepare(paths)
    if simcheck:
        classified = _classify(schedule.order, by_id, index, embed_provider, k, delta)
    else:
        classified = dict.fromkeys(schedule.order, (Category.DISSIMILAR, [], None))
    records, transcripts = _debate(schedule, graph, by_id, classified, llm_provider,
                                   templates or TemplateSet.builtin())
    inputs = {"files": files, "index": index_path, "k": k, "delta": delta,
              "simcheck": simcheck, "provider": provider_name}
    report = _assemble(inputs, graph, schedule, records, transcripts)
    report["timing"] = {
        "started_at": started_at,
        "finished_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seconds": time.perf_counter() - started,
    }
    return report


def _cell(value) -> str:
    """A Markdown table cell: pipes escaped, each line break a space."""
    return " ".join(str(value).splitlines()).replace("|", "\\|")


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
        cells = (r["position"], r["unit_id"], r["category"], verdict)
        lines.append("| " + " | ".join(map(_cell, cells)) + " |")
    lines.append("")
    return "\n".join(lines)
