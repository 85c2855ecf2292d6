"""Solidity auditing by reference-code similarity plus a four-role LLM debate."""

__version__ = "0.1.0"

from .agents import (  # noqa: E402
    Confidence,
    DebateTranscript,
    DecidedBy,
    DetectionTask,
    HttpLLMProvider,
    MockLLMProvider,
    Role,
    TaskMatch,
    TemplateSet,
    Verdict,
    assemble_prompt,
    parse_verdict,
    run_debate,
)
from .callgraph import (
    CallGraph,
    ScanSchedule,
    UnresolvedCall,
    build_graph,
    to_dot,
    topo_order,
)
from .corpus import (
    CorpusEntry,
    CorpusIndex,
    Label,
    LabelReport,
    apply_labels,
    ingest_archive,
    load_index,
    new_index,
    save_index,
)
from .extract import (
    BUILTIN_DENYLIST,
    FunctionUnit,
    UnitKind,
    content_hash,
    extract_units,
    normalize,
)
from .metrics import EvalMetrics
from .scanner import render_markdown, run_scan
from .simindex import (
    Category,
    FallbackEmbedder,
    RemoteEmbedder,
    SimilarityMatch,
    classify,
    embed_index,
    embed_texts,
    query_top_k,
    similarity,
)

__all__ = [
    "BUILTIN_DENYLIST", "CallGraph", "Category", "Confidence", "CorpusEntry",
    "CorpusIndex", "DebateTranscript", "DecidedBy", "DetectionTask",
    "EvalMetrics", "FallbackEmbedder", "FunctionUnit", "HttpLLMProvider",
    "Label", "LabelReport", "MockLLMProvider", "RemoteEmbedder", "Role",
    "ScanSchedule", "SimilarityMatch", "TaskMatch", "TemplateSet", "UnitKind",
    "UnresolvedCall", "Verdict", "__version__", "apply_labels",
    "assemble_prompt", "build_graph", "classify", "content_hash",
    "embed_index", "embed_texts", "extract_units", "ingest_archive",
    "load_index", "new_index", "normalize", "parse_verdict", "query_top_k",
    "render_markdown", "run_debate", "run_scan", "save_index", "similarity",
    "to_dot", "topo_order",
]
