"""Command line interface: simaudit index | scan | eval.

Exit codes: 0 success, 1 findings (only with --fail-on-findings), 2 I/O
problem, 3 malformed input or index format, 4 provider failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from pathlib import Path

from . import __version__
from .agents import DEFAULT_MODEL, HttpLLMProvider, MockLLMProvider, TemplateSet
from .callgraph import to_dot
from .corpus import (
    apply_labels,
    ingest_archive,
    load_index,
    new_index,
    read_label_csv,
    read_text,
    save_index,
    write_atomic,
)
from .errors import (
    EXIT_FINDINGS,
    EXIT_IO,
    EXIT_OK,
    FileCorrupt,
    LabelFileMalformed,
    NotUtf8Text,
    ProviderError,
    SimauditError,
    SourceError,
    decode_json,
)
from .metrics import EvalMetrics
from .scanner import collect_sol_files, render_markdown, run_scan
from .simindex import DEFAULT_DELTA, FallbackEmbedder, RemoteEmbedder, embed_index


_CONFIG_STRINGS = {"llm": ("model", "endpoint", "api_key"),
                   "embedding": ("endpoint", "api_key", "provider_id")}


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    config = decode_json(read_text(path, "config"),
                         lambda exc: FileCorrupt(f"config {path} is not valid JSON: {exc}"))
    if not isinstance(config, dict):
        raise FileCorrupt(f"config {path} must hold a JSON object")
    for section, keys in _CONFIG_STRINGS.items():
        values = config.get(section, {})
        if not isinstance(values, dict):
            raise FileCorrupt(f"config {path} section {section!r} must hold a JSON object")
        for key in keys:
            if not isinstance(values.get(key, ""), str):
                raise FileCorrupt(f"config {path} value {section}.{key} must be a string")
    return config


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


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


def _make_embed_provider(kind: str, config: dict):
    if kind == "fallback":
        return FallbackEmbedder()
    emb = config.get("embedding", {})
    provider = RemoteEmbedder(emb.get("endpoint", ""), api_key=emb.get("api_key"),
                              provider_id=emb.get("provider_id"))
    if not provider.endpoint:
        raise ProviderError(
            "remote embedder needs an endpoint (config file or SIMAUDIT_EMBED_ENDPOINT)")
    return provider


def _embed_provider_for_index(index, config: dict):
    """An embedder of the index's kind, built from config as `index` builds
    one; run_scan refuses it unless its id is the one the index records."""
    fallback = index.meta.embedder_id in (None, "", FallbackEmbedder.provider_id)
    return _make_embed_provider("fallback" if fallback else "remote", config)


def _make_llm_provider(args, config: dict):
    if args.provider == "mock":
        if args.mock_fixture:
            return MockLLMProvider.from_file(args.mock_fixture)
        return MockLLMProvider()
    llm = config.get("llm", {})
    provider = HttpLLMProvider(llm.get("endpoint", ""), api_key=llm.get("api_key"),
                               model=llm.get("model", DEFAULT_MODEL))
    if not provider.endpoint:
        raise ProviderError(
            "remote provider needs an endpoint (config file or SIMAUDIT_LLM_ENDPOINT)")
    return provider


def cmd_index(args) -> int:
    config = _load_config(args.config)
    archives_dir = Path(args.archives)
    if not archives_dir.is_dir():
        print(f"simaudit: archive directory not found: {archives_dir}", file=sys.stderr)
        return EXIT_IO
    archives = sorted(p for p in archives_dir.iterdir()
                      if p.name.endswith((".tgz", ".tar.gz")) and p.is_file())
    index = new_index(delta=args.delta)
    for archive in archives:
        package, version = _package_version(archive)
        ingest_archive(index, archive, package, version)
    if args.labels:
        report = apply_labels(index, args.labels)
        for row in report.unmatched:
            print(f"simaudit: line {row.line}: label row matched nothing: "
                  f"{row.package}@{row.version} {row.match_kind} {row.match_value!r}",
                  file=sys.stderr)
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
    report = run_scan(
        args.input, index, llm, embedder,
        k=args.k, delta=args.delta, templates=templates, provider_name=args.provider,
        index_path=str(args.index),
    )
    write_atomic(args.report, json.dumps(report, indent=2, sort_keys=True) + "\n")
    if args.report_md:
        write_atomic(args.report_md, render_markdown(report))
    if args.emit_callgraph:
        write_atomic(args.emit_callgraph,
                     to_dot(report["schedule"]["order"], report["callgraph"]["edges"]))
    s = report["summary"]
    print(f"units={s['units']} vulnerable={s['vulnerable']} errors={s['errors']} "
          f"report={args.report}")
    if args.fail_on_findings and s["vulnerable"] > 0:
        return EXIT_FINDINGS
    return EXIT_OK


def _read_eval_labels(path: str) -> dict[str, tuple[int, bool]]:
    """{sample: (line, positive)} for every row of the eval label file."""
    labels: dict[str, tuple[int, bool]] = {}
    for lineno, rec in read_label_csv(path, "eval label file", ("sample", "label")):
        value = (rec.get("label") or "").strip().lower()
        if value not in ("positive", "negative"):
            raise LabelFileMalformed(
                f"line {lineno}: label must be positive or negative, got {value!r}")
        sample = (rec.get("sample") or "").strip()
        if sample in labels:
            raise LabelFileMalformed(f"line {lineno}: sample {sample} is labeled twice")
        labels[sample] = lineno, value == "positive"
    return labels


def cmd_eval(args) -> int:
    config = _load_config(args.config)
    index = None
    embedder = None
    if not args.no_simcheck:
        if not args.index:
            raise LabelFileMalformed("eval needs --index unless --no-simcheck is given")
        index = load_index(args.index)
        embedder = _embed_provider_for_index(index, config)
    labels = _read_eval_labels(args.labels)
    dataset = Path(args.dataset)
    if not dataset.is_dir():
        print(f"simaudit: dataset directory not found: {dataset}", file=sys.stderr)
        return EXIT_IO
    samples = collect_sol_files([dataset])
    names = [Path(sample).relative_to(dataset).as_posix() for sample in samples]
    for name in names:
        if name not in labels:
            raise LabelFileMalformed(f"no label for sample {name}")
    named = set(names)
    for sample, (lineno, _) in labels.items():
        if sample not in named:
            print(f"simaudit: line {lineno}: label row matched no sample: {sample!r}",
                  file=sys.stderr)
    llm = _make_llm_provider(args, config)

    outcomes = Counter()    # scored samples by (predicted, actual)
    unscored = 0
    for sample, name in zip(samples, names):
        # A sample that does not read or extract, or with a unit that ended
        # in an error, is left out of the counts: it is neither a positive
        # nor a negative.
        try:
            report = run_scan(
                [sample], index, llm, embedder,
                k=args.k, delta=args.delta, provider_name=args.provider,
            )
        except (SourceError, NotUtf8Text) as exc:
            reason = str(exc)
        else:
            summary = report["summary"]
            if not summary["errors"]:
                outcomes[summary["vulnerable"] > 0, labels[name][1]] += 1
                continue
            reason = f"{summary['errors']} of {summary['units']} units failed analysis"
        unscored += 1
        print(f"simaudit: sample {name} unscored: {reason}", file=sys.stderr)
    metrics = EvalMetrics.from_counts(tp=outcomes[True, True], tn=outcomes[False, False],
                                      fp=outcomes[True, False], fn=outcomes[False, True],
                                      unscored=unscored)
    print(metrics.render_table())
    payload = json.dumps(metrics.to_dict(), indent=2, sort_keys=True) + "\n"
    if args.metrics_out:
        write_atomic(args.metrics_out, payload)
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
    p_index.add_argument("--delta", type=_finite_float, default=DEFAULT_DELTA,
                         help="similarity threshold recorded in the index")
    p_index.add_argument("--config", help="JSON config file for endpoints and keys")
    p_index.set_defaults(func=cmd_index)

    p_scan = sub.add_parser("scan", help="scan Solidity sources against an index")
    p_scan.add_argument("--input", required=True, nargs="+",
                        help=".sol files or directories to scan")
    p_scan.add_argument("--index", required=True, help="reference index file")
    p_scan.add_argument("--provider", choices=("mock", "remote"), default="remote")
    p_scan.add_argument("--mock-fixture", help="canned responses for the mock provider")
    p_scan.add_argument("--k", type=_positive_int, default=3, help="references per unit")
    p_scan.add_argument("--delta", type=_finite_float,
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
    p_eval.add_argument("--k", type=_positive_int, default=3)
    p_eval.add_argument("--delta", type=_finite_float,
                        help="similarity threshold (default: the index's)")
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
