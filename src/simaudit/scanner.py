"""Scan pipeline: extract, schedule, check the corpus, debate, report.

Every unit first gets an exact-content clone check against the corpus (no
model involved), and the units that are not clones are embedded in one batch.
Then, in schedule order, each non-clone unit gets top-k retrieval, and every
unit the debate. Results land in a report dictionary whose JSON form is
stable across runs except for the timing block.
"""

from __future__ import annotations

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
    run_debate,
)
from .callgraph import build_graph, topo_order
from .corpus import CorpusEntry, CorpusIndex
from .errors import ParseError, ProviderError, ProviderMismatch, ProviderUnavailable
from .extract import FunctionUnit, extract_units
from .simindex import DEFAULT_DELTA, Category, SimilarityMatch, embed_texts, query_top_k

REPORT_SCHEMA_VERSION = 1


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
        text = Path(f).read_text(encoding="utf-8")
        units.extend(extract_units(text, f))
    return units


def _summary_line(verdict: Verdict | None, error: str | None) -> str:
    if error is not None:
        return "analysis failed"
    if verdict.is_vulnerable:
        return f"vulnerable: {verdict.vuln_type or 'unspecified'}"
    return "no vulnerability found"


def _match_dict(m: SimilarityMatch) -> dict:
    return {
        "entry_id": m.entry_id,
        "distance": m.distance,
        "similarity": m.similarity,
        "category": m.category.value,
    }


class _CallCounter:
    """Forwards complete() to the provider, counting every attempt."""

    def __init__(self, provider):
        self.provider, self.count = provider, 0

    def complete(self, messages, config):
        self.count += 1
        return self.provider.complete(messages, config)


def run_scan(paths: list[str | Path], index: CorpusIndex | None, llm_provider,
             embed_provider=None, *, k: int = 3, delta: float | None = None,
             simcheck: bool = True, configs=None,
             templates: TemplateSet | None = None,
             provider_name: str = "", index_path: str | None = None) -> dict:
    """Scan the given paths and return the report dictionary.

    delta defaults to the index's threshold (DEFAULT_DELTA without an index).
    Per-unit provider and parse failures become verdict "error" records and
    the scan keeps going; a failed batch embedding is the error of every
    non-clone unit. Anything wrong with reading inputs, or an index that does
    not match the embedder, propagates.
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
    callees = {u.unit_id: graph.callees_of(u.unit_id) for u in units}

    clones: dict[str, CorpusEntry] = {}
    queries: dict[str, np.ndarray] = {}
    embed_error: str | None = None
    if simcheck:
        for unit in units:
            clone = index.find_clone(unit.normalized_source, unit.content_hash)
            if clone is not None:
                clones[unit.unit_id] = clone
        pending = [unit_id for unit_id in schedule.order if unit_id not in clones]
        if pending:
            try:
                vectors = embed_texts([by_id[u].normalized_source for u in pending],
                                      embed_provider)
                queries = dict(zip(pending, vectors))
            except ProviderUnavailable as exc:
                embed_error = str(exc)

    templates = templates or TemplateSet.builtin()
    llm = _CallCounter(llm_provider)

    records: list[dict] = []
    transcripts: dict[str, list[dict]] = {}
    outcomes: dict[str, tuple[Verdict | None, str | None]] = {}

    for position, unit_id in enumerate(schedule.order):
        unit = by_id[unit_id]
        summaries = tuple(
            (callee, _summary_line(*outcomes[callee]))
            for callee in callees[unit_id] if callee in outcomes
        )
        category = Category.DISSIMILAR
        matches: list[TaskMatch] = []
        calls_before = llm.count
        verdict: Verdict | None = None
        transcript = DebateTranscript(())
        error: str | None = None
        try:
            if unit_id in clones:
                clone = clones[unit_id]
                category = Category.CLONE
                matches = [TaskMatch(
                    match=SimilarityMatch(entry_id=clone.entry_id, distance=0.0,
                                          similarity=1.0, category=Category.CLONE),
                    entry=clone)]
            elif simcheck:
                if embed_error is not None:
                    raise ProviderUnavailable(embed_error)
                top = query_top_k(queries[unit_id], index, k=k, delta=delta)
                matches = [TaskMatch(match=m, entry=index.entry_by_id(m.entry_id))
                           for m in top]
                category = top[0].category if top else Category.DISSIMILAR
            task = DetectionTask(unit=unit, callee_summaries=summaries,
                                 matches=tuple(matches), category=category)
            verdict, transcript = run_debate(task, llm, configs, templates)
        except (ProviderError, ProviderUnavailable, ParseError) as exc:
            error = str(exc)

        outcomes[unit_id] = (verdict, error)
        record = {
            "unit_id": unit_id,
            "position": position,
            "name": unit.name,
            "kind": unit.kind.value,
            "contract": unit.contract,
            "file": unit.file_path,
            "category": category.value,
            "matches": [_match_dict(tm.match) for tm in matches],
            "callee_summaries": [list(s) for s in summaries],
            "verdict": "error" if error is not None else verdict.to_dict(),
            "error_message": error,
            "provider_calls": llm.count - calls_before,
            "transcript_ref": unit_id if transcript.entries else None,
        }
        if transcript.entries:
            transcripts[unit_id] = transcript.to_list()
        records.append(record)

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
            "scc_groups": [list(g) for g in schedule.scc_groups],
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
            "provider_calls": llm.count,
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
