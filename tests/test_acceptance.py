"""Acceptance gate: one test per shipped guarantee, each timed against its
budget and reporting a single [PASS]/[FAIL] line (run with -s to see them)."""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager

import numpy as np

import oracles
from helpers import FIXTURES, make_archive
from simaudit.callgraph import CallGraph, topo_order
from simaudit.cli import main
from simaudit.corpus import ingest_archive, new_index
from simaudit.metrics import EvalMetrics
from simaudit.simindex import similarity

REFERENCE = (FIXTURES / "reference_erc20.sol").read_text(encoding="utf-8")
TARGET = (FIXTURES / "target_token.sol").read_text(encoding="utf-8")
MOCK_FIXTURE = str(FIXTURES / "mock_debate.json")


@contextmanager
def criterion(name: str, limit_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if limit_seconds is not None:
            assert elapsed < limit_seconds, (
                f"{elapsed:.2f}s exceeded the {limit_seconds}s budget")
    except BaseException:
        print(f"[FAIL] {name}", flush=True)
        raise
    if limit_seconds is None:
        print(f"[PASS] {name} ({elapsed:.2f}s)", flush=True)
    else:
        print(f"[PASS] {name} ({elapsed:.2f}s < {limit_seconds:g}s)", flush=True)


def test_metrics_cross_check():
    with criterion("metrics cross-check", 1.0):
        m = EvalMetrics.from_counts(tp=38, tn=63, fp=12, fn=30)
        rounded = (round(m.precision, 2), round(m.recall, 2),
                   round(m.accuracy, 2), round(m.f1, 2))
        assert rounded == (0.76, 0.56, 0.71, 0.64)


def test_ablation_precision_check():
    with criterion("ablation precision check", 1.0):
        m = EvalMetrics.from_counts(tp=20, tn=0, fp=10, fn=0)
        assert abs(m.precision - 0.67) <= 0.005


def test_similarity_math_oracle():
    with criterion("similarity math oracle (10,000 pairs)", 5.0):
        dims = random.Random(20260817)
        values = np.random.default_rng(20260817)
        for _ in range(10_000):
            dim = dims.randint(2, 384)
            a = values.uniform(-1000, 1000, dim)
            b = values.uniform(-1000, 1000, dim)
            d_ab, s_ab = similarity(a, b)
            assert 0.0 <= d_ab <= 1.0
            assert (d_ab, s_ab) == similarity(b, a)
            assert similarity(a, a) == (0.0, 1.0)   # nonzero a
        _, s = similarity((3.0, 4.0), (6.0, 8.0))
        assert abs(s - 2 / 3) <= 1e-12
        _, s = similarity((1.0, 0.0), (-1.0, 0.0))
        assert abs(s - 0.0) <= 1e-12


def test_topological_order_oracle():
    with criterion("topological-order oracle (1,000 graphs)", 10.0):
        rng = random.Random(41)
        names = [f"u{i:02d}" for i in range(12)]
        for trial in range(1_000):
            n = rng.randint(1, 12)
            vertices = names[:n]
            possible = [(a, b) for a in vertices for b in vertices if a != b]
            wanted = min(len(possible), rng.randint(0, 2 * n))
            edges = rng.sample(possible, k=wanted) if possible else []
            if trial % 2:   # force a DAG: calls only point at earlier names
                edges = [(a, b) for a, b in edges if a > b]
            graph = CallGraph(vertices=frozenset(vertices),
                              edges=frozenset(edges),
                              unresolved=(), self_recursive=())
            schedule = topo_order(graph)
            assert schedule == topo_order(graph)    # deterministic re-run
            oracles.check_schedule(schedule.order, vertices, edges)
            got_groups = {frozenset(g) for g in schedule.groups if len(g) > 1}
            assert got_groups == oracles.cyclic_groups(vertices, edges)


def _dedup_archives(tmp_path):
    """Three archives holding 200 functions of which 80 are normalization
    variants of the first 80 distinct ones."""

    def original(i):
        return (f"function fn{i:03d}() public pure returns (uint256) "
                f"{{ return {i} + 1; }}")

    def variant(i):
        return (f"function   fn{i:03d}()   public\n"
                f"    pure /* vendored copy */ returns (uint256) {{\n"
                f"        return {i} + 1; // same math\n"
                f"    }}")

    def contract(name, bodies):
        return "contract " + name + " {\n" + "\n".join(bodies) + "\n}\n"

    archives_dir = tmp_path / "dedup_archives"
    archives_dir.mkdir()

    originals = {f"orig{f}.sol": contract(f"O{f}", [original(i) for i in
                                                    range(f * 30, (f + 1) * 30)])
                 for f in range(4)}    # fn000..fn119 across four files
    dupes_a = {"copyA.sol": contract("CA", [variant(i) for i in range(0, 40)])}
    dupes_b = {"copyB.sol": contract("CB", [variant(i) for i in range(40, 80)])}

    plan = [
        (archives_dir / "basepkg-1.0.tgz", "basepkg", "1.0", originals),
        (archives_dir / "forkpkg-1.1.tgz", "forkpkg", "1.1", dupes_a),
        (archives_dir / "mirrorpkg-2.0.tgz", "mirrorpkg", "2.0", dupes_b),
    ]
    for path, _, _, files in plan:
        make_archive(path, files)
    return [(path, package, version) for path, package, version, _ in plan]


def _entry_snapshot(index):
    return [(e.entry_id, e.content_hash, e.package, e.version, e.label)
            for e in index.entries]


def test_dedup_property(tmp_path):
    with criterion("dedup property (200 functions, 80 duplicates)", 5.0):
        archives = _dedup_archives(tmp_path)
        index = new_index()
        for path, package, version in archives:
            ingest_archive(index, path, package, version)
        assert index.stats.functions_seen == 200
        assert index.stats.functions_kept == 120
        assert len(index.entries) == 120

        before = _entry_snapshot(index)
        for path, package, version in archives:
            ingest_archive(index, path, package, version)
        assert index.stats.functions_kept == 120
        assert _entry_snapshot(index) == before


def _build_golden_index(tmp_path):
    archives = tmp_path / "archives"
    archives.mkdir(exist_ok=True)
    make_archive(archives / "tokenlib-1.0.0.tgz", {"erc20.sol": REFERENCE})
    index = tmp_path / "index.jsonl"
    assert main(["index", "--archives", str(archives), "--out", str(index)]) == 0
    return index


def _run_scan(tmp_path, index, target_dir, report_name):
    report = tmp_path / report_name
    code = main(["scan", "--input", str(target_dir), "--index", str(index),
                 "--provider", "mock", "--mock-fixture", MOCK_FIXTURE,
                 "--report", str(report)])
    assert code == 0
    return json.loads(report.read_text(encoding="utf-8"))


def test_end_to_end_golden_run(tmp_path):
    with criterion("end-to-end golden run", 10.0):
        index = _build_golden_index(tmp_path)
        target_dir = tmp_path / "audit"
        target_dir.mkdir()
        (target_dir / "token.sol").write_text(TARGET, encoding="utf-8")

        first = _run_scan(tmp_path, index, target_dir, "r1.json")
        second = _run_scan(tmp_path, index, target_dir, "r2.json")

        by_name = {r["name"]: r for r in first["units"]}
        flagged = by_name["transferFrom"]
        assert flagged["verdict"]["is_vulnerable"] is True
        assert flagged["provider_calls"] == 4
        roles = [e["role"] for e in first["transcripts"][flagged["unit_id"]]]
        assert roles == ["Detector", "Critic", "Supporter", "Judge"]
        for helper in ("_transfer", "_approve"):
            assert by_name[helper]["category"] == "clone"
            assert by_name[helper]["provider_calls"] == 0
            assert by_name[helper]["verdict"]["is_vulnerable"] is False

        first.pop("timing")
        second.pop("timing")
        assert (json.dumps(first, sort_keys=True)
                == json.dumps(second, sort_keys=True))


def test_statelessness_across_file_orderings(tmp_path):
    with criterion("statelessness across file orderings", 10.0):
        index = _build_golden_index(tmp_path)

        def scan_tree(tree_name, files):
            tree = tmp_path / tree_name
            tree.mkdir()
            for name, text in files.items():
                (tree / name).write_text(text, encoding="utf-8")
            report = _run_scan(tmp_path, index, tree, f"{tree_name}.json")
            verdicts = {(r["contract"], r["name"]): r["verdict"]
                        for r in report["units"]}
            return verdicts, report["units"][0]["contract"]

        forward, first_a = scan_tree("tree_a", {"1_ref.sol": REFERENCE,
                                                "2_tgt.sol": TARGET})
        reversed_, first_b = scan_tree("tree_b", {"z_ref.sol": REFERENCE,
                                                  "a_tgt.sol": TARGET})
        assert first_a != first_b      # the orderings genuinely differ
        assert len(forward) == 6
        assert forward == reversed_
