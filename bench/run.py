"""Benchmark of `simaudit index` + `simaudit scan` on seeded workloads.

    python3 bench/run.py --workload retrieval --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --seed 1            # every workload, one after another

Run from the repository root. One run generates the workload's inputs from
the seed (see workloads.py), builds the index several times (`setup_s` is the
median), then scans the target repeatedly for `--seconds` seconds after one
warm-up scan (`scan_s` is the median). Both commands run in-process through
`simaudit.cli.main`, with the fallback embedder and either the mock model or
the stand-in endpoint of endpoint.py.

Every scan's report is checked: planted exact clones must be decided as
clones with their label's verdict, the schedule must be callee-first over the
planted call edges, and the report must equal the first scan's once `timing`
is removed. Each failed check and each unit with verdict `error` counts as a
failure.

With `--trace 0` the last line of output is a JSON object with the
end-to-end metrics named in BENCHMARK.json; with `--trace 1` it carries the
per-layer metrics, taken from timing wrappers installed around the package's
functions (layers.py), and the spans are written to `.bench_runs/`. The exit
code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"
SETUP_REPS = 5
MIN_SCANS = 3


class BenchError(Exception):
    pass


def import_cli():
    """Import simaudit from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "simaudit" / "__init__.py").is_file():
        raise BenchError(f"no simaudit sources under {src}")
    sys.path.insert(0, str(src))
    from simaudit import cli
    return cli


def run_cli(cli, argv: list[str]) -> float:
    """Run one simaudit command in-process; return its wall time. Garbage
    left by earlier commands is collected first, as a fresh process would
    start without it."""
    out = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    wall = time.perf_counter() - start
    if code != 0:
        raise BenchError(f"simaudit {argv[0]} exited {code}: {out.getvalue().strip()}")
    return wall


@contextlib.contextmanager
def model_endpoint(delay: float):
    """Start the stand-in model endpoint; yield its base URL."""
    proc = subprocess.Popen([sys.executable, str(BENCH / "endpoint.py"), "--delay", repr(delay)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        if not line.strip().isdigit():
            raise BenchError("model endpoint did not start")
        yield f"http://127.0.0.1:{line.strip()}"
    finally:
        proc.stdin.close()  # the endpoint exits when its input closes
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


class Counters:
    """Model calls and endpoint connections so far, whichever model is in use."""

    def __init__(self, endpoint: str | None):
        self.endpoint = endpoint
        self.mock_calls = 0
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def read(self) -> tuple[int, int]:
        if self.endpoint is None:
            return self.mock_calls, 0
        with self._opener.open(self.endpoint + "/stats", timeout=10) as resp:
            stats = json.load(resp)
        return stats["requests"], stats["connections"]

    @contextlib.contextmanager
    def counting_mock(self):
        from simaudit import agents
        cls = getattr(agents, "MockLLMProvider", None)
        original = getattr(cls, "complete", None)
        if original is None:  # no mock model in this version: nothing to count
            yield
            return

        def complete(provider, *args, **kwargs):
            self.mock_calls += 1
            return original(provider, *args, **kwargs)

        cls.complete = complete
        try:
            yield
        finally:
            cls.complete = original


def deterministic_text(report: dict) -> str:
    """The report without `timing`, with any absolute input path made relative."""
    body = {key: value for key, value in report.items() if key != "timing"}
    return json.dumps(body, sort_keys=True).replace(os.getcwd() + os.sep, "")


def check_report(report: dict, manifest: dict, reference: str) -> list[str]:
    """Output checks against what the generator planted; one line per failure."""
    problems = []
    records = {r["unit_id"]: r for r in report["units"]}
    if len(records) != manifest["units"]:
        problems.append(f"{len(records)} units reported, {manifest['units']} planted")
    for clone in manifest["exact_clones"]:
        r = records.get(clone["unit"])
        verdict = r["verdict"] if r else "error"
        if (r is None or r["category"] != "clone" or verdict == "error"
                or [m["entry_id"] for m in r["matches"][:1]] != [clone["entry_id"]]
                or verdict["is_vulnerable"] != clone["vulnerable"]
                or (clone["vulnerable"] and verdict["vuln_type"] != clone["note"])):
            problems.append(f"exact clone {clone['unit']} not decided from {clone['entry_id']}")
    position = {u: i for i, u in enumerate(report["schedule"]["order"])}
    edges = {tuple(e) for e in report["callgraph"]["edges"]}
    cycle = manifest["cycle"]
    for caller, callee in manifest["edges"]:
        if (caller, callee) not in edges:
            problems.append(f"call edge {caller} -> {callee} missing")
        elif not (caller in cycle and callee in cycle) and position[callee] > position[caller]:
            problems.append(f"{caller} scheduled before its callee {callee}")
    if cycle:
        spots = sorted(position[u] for u in cycle)
        if (cycle not in [sorted(g) for g in report["schedule"]["scc_groups"]]
                or spots[-1] - spots[0] != len(cycle) - 1):
            problems.append("planted cycle not scheduled as one consecutive group")
    if reference and deterministic_text(report) != reference:
        problems.append("report differs from the first scan's")
    return problems


def recall_at_k(report: dict, manifest: dict) -> float:
    records = {r["unit_id"]: r for r in report["units"]}
    hits = sum(1 for near in manifest["near_clones"]
               if near["entry_id"] in [m["entry_id"] for m in records[near["unit"]]["matches"]])
    return hits / len(manifest["near_clones"])


class Run:
    """One workload's inputs, commands and output checks."""

    def __init__(self, cli, manifest: dict, endpoint: str | None):
        self.cli = cli
        self.manifest = manifest
        self.counters = Counters(endpoint)
        self.index_argv = ["index", "--archives", "archives", "--labels", "labels.csv",
                           "--out", "index.jsonl"]
        self.scan_argv = ["scan", "--input", "target", "--index", "index.jsonl",
                          "--report", "report.json", "--report-md", "report.md"]
        if endpoint is None:
            self.scan_argv += ["--provider", "mock", "--mock-fixture", "mock.json"]
        else:
            Path("config.json").write_text(json.dumps({"llm": {"endpoint": endpoint + "/v1/chat"}}),
                                           encoding="utf-8")
            self.scan_argv += ["--provider", "remote", "--config", "config.json"]
        self.reference = ""
        self.attempted = 0
        self.problems: list[str] = []
        self.errors = 0
        self.report: dict = {}

    def index(self) -> float:
        return run_cli(self.cli, self.index_argv)

    def scan(self) -> tuple[float, int, int]:
        """Scan and check; return (wall seconds, model calls, connections)."""
        calls0, conns0 = self.counters.read()
        wall = run_cli(self.cli, self.scan_argv)
        calls1, conns1 = self.counters.read()
        report = json.loads(Path("report.json").read_text(encoding="utf-8"))
        self.problems += check_report(report, self.manifest, self.reference)
        self.reference = self.reference or deterministic_text(report)
        self.attempted += report["summary"]["units"]
        self.errors += report["summary"]["errors"]
        self.report = report
        return wall, calls1 - calls0, conns1 - conns0

    @property
    def failed(self) -> int:
        return self.errors + len(self.problems)


def interleave(run: Run, seconds: float, index, scan) -> None:
    """One index() and an untimed warm-up scan, then back-to-back scan()
    calls until `seconds` of scanning are done, with the remaining index()
    calls spread evenly among them, so set-up and scan timings sample the
    same stretch of a shared machine's time."""
    index()
    run.scan()  # warm-up, checked but not timed
    reps, scans, scanned = 1, 0, 0.0
    while scanned < seconds or reps < SETUP_REPS or scans < MIN_SCANS:
        if reps < SETUP_REPS and scanned >= reps * seconds / SETUP_REPS:
            index()
            reps += 1
            continue
        start = time.perf_counter()
        scan()
        scanned += time.perf_counter() - start
        scans += 1


def measure(run: Run, seconds: float) -> dict[str, float]:
    """End-to-end metrics, with no tracing installed."""
    setup, walls, calls = [], [], []

    def scan():
        wall, n_calls, _ = run.scan()
        walls.append(wall)
        calls.append(n_calls)

    interleave(run, seconds, lambda: setup.append(run.index()), scan)
    return {
        "setup_s": statistics.median(setup),
        "scan_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "index_mb": Path("index.jsonl").stat().st_size / 1e6,
        "llm_calls": statistics.median(calls),
        "unit_ok_ratio": max(0.0, 1 - run.failed / run.attempted),
        "recall_at_k": recall_at_k(run.report, run.manifest),
    }


def measure_traced(run: Run, seconds: float, tracer: layers.Tracer) -> dict[str, float]:
    """Per-layer metrics: medians over traced index and scan calls. Traced
    and untraced scans alternate, which gives the tracing overhead."""
    rows, plain, traced = [], [], []

    def index():
        mark = len(tracer.spans)
        with tracer.installed():
            run.index()
        rows.append(layers.index_metrics(tracer.spans[mark:]))

    def scan():
        plain.append(run.scan()[0])
        mark = len(tracer.spans)
        with tracer.installed():
            wall, _, connections = run.scan()
        traced.append(wall)
        rows.append(layers.scan_metrics(tracer.spans[mark:], wall, run.report, connections))

    interleave(run, seconds, index, scan)
    values = {key: statistics.median([row[key] for row in rows if key in row])
              for key in dict.fromkeys(key for row in rows for key in row)}
    values["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    return values


def write_spans(tracer: layers.Tracer, path: Path) -> None:
    own = layers.self_times(tracer.spans)
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps({**span, "self": own[span["id"]]}) + "\n")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if trace else "end_to_end"]
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {workload!r}")
    cli = import_cli()
    for var in ("SIMAUDIT_LLM_ENDPOINT", "SIMAUDIT_LLM_KEY", "SIMAUDIT_EMBED_ENDPOINT"):
        os.environ.pop(var, None)
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"

    work = RUNS / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        manifest = workloads.generate(workload, seed, Path("."))
        delay = workloads.WORKLOADS[workload]["model_delay_s"]
        with contextlib.ExitStack() as stack:
            endpoint = stack.enter_context(model_endpoint(delay)) if delay is not None else None
            run = Run(cli, manifest, endpoint)
            stack.enter_context(run.counters.counting_mock())
            if trace:
                tracer = layers.Tracer(workload)
                values = measure_traced(run, seconds, tracer)
            else:
                values = measure(run, seconds)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    digest = hashlib.sha256(run.reference.encode("utf-8")).hexdigest()
    tag = f"{workload}-s{seed}-t{int(trace)}"
    if trace:
        write_spans(tracer, RUNS / f"spans-{tag}.jsonl")
    (RUNS / f"result-{tag}.json").write_text(json.dumps(
        {"report_sha256": digest, "problems": run.problems, "values": values},
        indent=1, sort_keys=True), encoding="utf-8")
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = run.failed == 0
    print(f"report_sha256 {workload} seed={seed} {digest}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; print every metric, then one JSON line."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", w["name"],
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{w['name']}: no result (exit {proc.returncode})")
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            print(f"{w['name']:<12} {name:<36} {metric['value']:>14.6g} {metric['unit']}")
            combined["metrics"][f"{w['name']}/{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload to run (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long to keep scanning after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if args.workload is None:
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
