"""Command line interface: simaudit index | scan | eval.

Exit codes: 0 success, 1 findings (only with --fail-on-findings), 2 I/O
problem, 3 malformed input or index format, 4 provider failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import __version__
from .agents import (
    DEFAULT_MODEL,
    HttpLLMProvider,
    MockLLMProvider,
    TemplateSet,
    default_configs,
)
from .callgraph import to_dot
from .corpus import apply_labels, ingest_archive, load_index, new_index, save_index
from .errors import (
    EXIT_FINDINGS,
    EXIT_IO,
    EXIT_OK,
    LabelFileMalformed,
    ProviderUnavailable,
    SimauditError,
)
from .metrics import EvalMetrics
from .scanner import render_markdown, run_scan
from .simindex import DEFAULT_DELTA, FallbackEmbedder, RemoteEmbedder, embed_index


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _package_version(archive: Path) -> tuple[str, str]:
    """Derive (package, version) from an archive filename like name-1.2.3.tgz."""
    stem = archive.name
    for suffix in (".tar.gz", ".tgz"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
            break
    if "-" in stem:
        package, version = stem.rsplit("-", 1)
        if version and version[0].isdigit():
            return package, version
    return stem, "0"


def _make_embed_provider(kind: str, config: dict, provider_id: str | None = None):
    if kind == "fallback":
        return FallbackEmbedder()
    emb = config.get("embedding", {})
    endpoint = emb.get("endpoint", "")
    provider = RemoteEmbedder(endpoint, api_key=emb.get("api_key"),
                              provider_id=provider_id or emb.get("provider_id"))
    if not provider.endpoint:
        raise ProviderUnavailable(
            "remote embedder needs an endpoint (config file or SIMAUDIT_EMBED_ENDPOINT)")
    return provider


def _embed_provider_for_index(index, config: dict):
    embedder_id = index.meta.embedder_id
    if embedder_id in (None, "", FallbackEmbedder.provider_id):
        return FallbackEmbedder()
    return _make_embed_provider("remote", config, provider_id=embedder_id)


def _make_llm_provider(args, config: dict):
    if args.provider == "mock":
        if args.mock_fixture:
            return MockLLMProvider.from_file(args.mock_fixture)
        return MockLLMProvider()
    llm = config.get("llm", {})
    provider = HttpLLMProvider(llm.get("endpoint", ""), api_key=llm.get("api_key"))
    if not provider.endpoint:
        raise ProviderUnavailable(
            "remote provider needs an endpoint (config file or SIMAUDIT_LLM_ENDPOINT)")
    return provider


def cmd_index(args) -> int:
    config = _load_config(args.config)
    archives_dir = Path(args.archives)
    if not archives_dir.is_dir():
        print(f"simaudit: archive directory not found: {archives_dir}", file=sys.stderr)
        return EXIT_IO
    archives = sorted(p for p in archives_dir.iterdir()
                      if p.name.endswith((".tgz", ".tar.gz")))
    index = new_index(delta=args.delta)
    for archive in archives:
        package, version = _package_version(archive)
        ingest_archive(index, archive, package, version)
    if args.labels:
        report = apply_labels(index, args.labels)
        for row in report.unmatched:
            print(f"simaudit: label row matched nothing: {row}", file=sys.stderr)
    provider = _make_embed_provider(args.embedder, config)
    embed_index(index, provider)
    save_index(index, args.out)
    stats = index.stats
    print(f"files={stats.files_seen} functions_seen={stats.functions_seen} "
          f"functions_kept={stats.functions_kept}")
    return EXIT_OK


def cmd_scan(args) -> int:
    config = _load_config(args.config)
    index = load_index(args.index)
    llm = _make_llm_provider(args, config)
    embedder = _embed_provider_for_index(index, config)
    templates = TemplateSet.from_dir(args.templates) if args.templates else None
    model = config.get("llm", {}).get("model", DEFAULT_MODEL)
    report = run_scan(
        args.input, index, llm, embedder,
        k=args.k, delta=args.delta, simcheck=True,
        configs=default_configs(model), templates=templates,
        provider_name=args.provider,
        extra_inputs={"index": str(args.index)},
    )
    Path(args.report).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if args.report_md:
        Path(args.report_md).write_text(render_markdown(report), encoding="utf-8")
    if args.emit_callgraph:
        dot = to_dot(report["schedule"]["order"], report["callgraph"]["edges"])
        Path(args.emit_callgraph).write_text(dot, encoding="utf-8")
    s = report["summary"]
    print(f"units={s['units']} vulnerable={s['vulnerable']} errors={s['errors']} "
          f"report={args.report}")
    if args.fail_on_findings and s["vulnerable"] > 0:
        return EXIT_FINDINGS
    return EXIT_OK


def _read_eval_labels(path: str) -> dict[str, bool]:
    text = Path(path).read_text(encoding="utf-8")
    reader = csv.DictReader(text.splitlines())
    if reader.fieldnames is None or not {"sample", "label"} <= set(reader.fieldnames):
        raise LabelFileMalformed("eval label file must have columns sample,label")
    labels: dict[str, bool] = {}
    for lineno, rec in enumerate(reader, start=2):
        value = (rec.get("label") or "").strip().lower()
        if value not in ("positive", "negative"):
            raise LabelFileMalformed(
                f"line {lineno}: label must be positive or negative, got {value!r}")
        labels[(rec.get("sample") or "").strip()] = value == "positive"
    return labels


def cmd_eval(args) -> int:
    config = _load_config(args.config)
    simcheck = not args.no_simcheck
    index = None
    embedder = None
    if simcheck:
        if not args.index:
            raise LabelFileMalformed("eval needs --index unless --no-simcheck is given")
        index = load_index(args.index)
        embedder = _embed_provider_for_index(index, config)
    labels = _read_eval_labels(args.labels)
    dataset = Path(args.dataset)
    if not dataset.is_dir():
        print(f"simaudit: dataset directory not found: {dataset}", file=sys.stderr)
        return EXIT_IO
    samples = sorted(dataset.rglob("*.sol"))
    model = config.get("llm", {}).get("model", DEFAULT_MODEL)

    tp = tn = fp = fn = 0
    for sample in samples:
        name = sample.relative_to(dataset).as_posix()
        if name not in labels:
            raise LabelFileMalformed(f"no label for sample {name}")
        llm = _make_llm_provider(args, config)
        report = run_scan(
            [sample], index, llm, embedder,
            k=args.k, delta=args.delta, simcheck=simcheck,
            configs=default_configs(model), provider_name=args.provider,
        )
        predicted = report["summary"]["vulnerable"] > 0
        actual = labels[name]
        if predicted and actual:
            tp += 1
        elif predicted and not actual:
            fp += 1
        elif not predicted and actual:
            fn += 1
        else:
            tn += 1
    metrics = EvalMetrics.from_counts(tp, tn, fp, fn)
    print(metrics.render_table())
    payload = json.dumps(metrics.to_dict(), indent=2, sort_keys=True) + "\n"
    if args.metrics_out:
        Path(args.metrics_out).write_text(payload, encoding="utf-8")
    else:
        print(payload, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simaudit",
        description="Audit Solidity functions with similarity checking and a "
                    "four-role LLM debate.")
    parser.add_argument("--version", action="version", version=f"simaudit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build a reference index from package archives")
    p_index.add_argument("--archives", required=True,
                         help="directory of .tgz/.tar.gz package archives")
    p_index.add_argument("--labels", help="CSV of vulnerability labels "
                                          "(package,version,match_kind,match_value,note)")
    p_index.add_argument("--out", required=True, help="index file to write")
    p_index.add_argument("--embedder", choices=("fallback", "remote"), default="fallback")
    p_index.add_argument("--delta", type=float, default=DEFAULT_DELTA,
                         help="similarity threshold recorded in the index")
    p_index.add_argument("--config", help="JSON config file for endpoints and keys")
    p_index.set_defaults(func=cmd_index)

    p_scan = sub.add_parser("scan", help="scan Solidity sources against an index")
    p_scan.add_argument("--input", required=True, nargs="+",
                        help=".sol files or directories to scan")
    p_scan.add_argument("--index", required=True, help="reference index file")
    p_scan.add_argument("--provider", choices=("mock", "remote"), default="remote")
    p_scan.add_argument("--mock-fixture", help="canned responses for the mock provider")
    p_scan.add_argument("--k", type=int, default=3, help="references per unit")
    p_scan.add_argument("--delta", type=float,
                        help="similarity threshold (default: the index's)")
    p_scan.add_argument("--report", required=True, help="JSON report to write")
    p_scan.add_argument("--report-md", help="also write a Markdown rendering")
    p_scan.add_argument("--emit-callgraph", help="write the call graph as DOT")
    p_scan.add_argument("--fail-on-findings", action="store_true",
                        help="exit 1 if any unit is judged vulnerable")
    p_scan.add_argument("--templates", help="directory of prompt template overrides")
    p_scan.add_argument("--config", help="JSON config file for endpoints and keys")
    p_scan.set_defaults(func=cmd_scan)

    p_eval = sub.add_parser("eval", help="score the scanner on a labeled dataset")
    p_eval.add_argument("--dataset", required=True, help="directory of .sol samples")
    p_eval.add_argument("--labels", required=True, help="CSV with columns sample,label")
    p_eval.add_argument("--index", help="reference index file")
    p_eval.add_argument("--provider", choices=("mock", "remote"), default="mock")
    p_eval.add_argument("--mock-fixture", help="canned responses for the mock provider")
    p_eval.add_argument("--no-simcheck", action="store_true",
                        help="ablation: skip similarity checking entirely")
    p_eval.add_argument("--k", type=int, default=3)
    p_eval.add_argument("--delta", type=float, help="similarity threshold (default: the index's)")
    p_eval.add_argument("--metrics-out", help="write metrics JSON here instead of stdout")
    p_eval.add_argument("--config", help="JSON config file for endpoints and keys")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SimauditError as exc:
        print(f"simaudit: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"simaudit: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
