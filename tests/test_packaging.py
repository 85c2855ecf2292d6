"""The declared runtime dependencies are exactly what the package imports."""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from helpers import FIXTURES, make_archive
from simaudit.corpus import FORMAT_VERSION, new_index, save_index

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "simaudit"


def _top_level_imports(path: Path) -> set[str]:
    """Top-level names of every absolute import in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _imported_distributions() -> set[str]:
    """Top-level names of every absolute import in the package, minus the
    standard library and the package itself."""
    names = set().union(*map(_top_level_imports, PACKAGE.glob("*.py")))
    return names - set(sys.stdlib_module_names) - {"simaudit"}


def test_declared_dependencies_match_the_imports():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}
    assert _imported_distributions() == declared


def test_every_module_parses_at_the_declared_python_floor():
    """Only 3.11 runs the suite, so syntax newer than requires-python would
    go unseen; ast.parse with feature_version rejects it."""
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert floor, "pyproject.toml declares no requires-python floor"
    version = (int(floor.group(1)), int(floor.group(2)))
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)


def test_cli_import_loads_no_third_party_http_client():
    code = "import sys, simaudit.cli; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "[]\n"


def test_offline_index_and_scan_load_no_http_stack(tmp_path):
    """Only a remote provider loads transport, and with it the HTTP stack:
    an index with the fallback embedder and a scan with the mock model leave
    urllib.request, http.client, ssl and email unloaded."""
    archives = tmp_path / "archives"
    archives.mkdir()
    make_archive(archives / "tokenlib-1.0.0.tgz",
                 {"erc20.sol": (FIXTURES / "reference_erc20.sol").read_text(encoding="utf-8")})
    index, report = tmp_path / "index.jsonl", tmp_path / "report.json"
    code = textwrap.dedent("""\
        import sys, simaudit.cli
        archives, index, target, fixture, report = sys.argv[1:]
        assert simaudit.cli.main(["index", "--archives", archives, "--out", index]) == 0
        assert simaudit.cli.main(["scan", "--input", target, "--index", index, "--provider",
                                  "mock", "--mock-fixture", fixture, "--report", report]) == 0
        stack = {"urllib.request", "http.client", "ssl", "email", "simaudit.transport"}
        print(sorted(stack & set(sys.modules)))
        """)
    argv = [archives, index, FIXTURES / "target_token.sol", FIXTURES / "mock_debate.json", report]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.splitlines()[-1] == "[]"
    assert json.loads(report.read_text(encoding="utf-8"))["summary"]["units"] == 3


def test_only_transport_speaks_http():
    """Every provider call goes through transport.JsonEndpoint, so no other
    module imports urllib or http.client."""
    speakers = {path.name for path in PACKAGE.glob("*.py")
                if _top_level_imports(path) & {"urllib", "http"}}
    assert speakers == {"transport.py"}


def test_only_the_decode_helper_parses_json():
    """Untrusted JSON is decoded in one place, errors.decode_json, which
    turns each way a decode fails, RecursionError included, into its
    caller's error: no other code in the package calls json.loads or
    json.load, or imports either by name."""
    parsers, helper = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "errors.py":
            helper = {id(node) for fn in tree.body if isinstance(fn, ast.FunctionDef)
                      and fn.name == "decode_json" for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"
                    and id(node) not in helper) or (
                    isinstance(node, ast.ImportFrom) and node.module == "json"
                    and {alias.name for alias in node.names} & {"load", "loads"}):
                parsers.append(f"{path.name}:{node.lineno}")
    assert helper, "errors.decode_json is gone"
    assert parsers == []


def test_retrieval_never_decides_a_clone():
    """Only CorpusIndex.find_clone, an exact text match, makes a unit a clone,
    so simindex names Category.CLONE (or its value) nowhere outside the enum."""
    tree = ast.parse((PACKAGE / "simindex.py").read_text(encoding="utf-8"))
    enum = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "Category")
    outside = [node for node in ast.walk(tree)
               if (isinstance(node, ast.Attribute) and node.attr == "CLONE")
               or (isinstance(node, ast.Constant) and node.value == "clone")]
    inside = {id(node) for node in ast.walk(enum)}
    assert [ast.unparse(node) for node in outside if id(node) not in inside] == []


def test_all_names_exactly_the_public_imports():
    """A name left in __all__ after its import is gone would surface only on
    `from simaudit import *`."""
    simaudit = importlib.import_module("simaudit")
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert [name for name in simaudit.__all__ if not hasattr(simaudit, name)] == []
    assert sorted(simaudit.__all__) == sorted(
        {name for name in imported if not name.startswith("_")} | {"__version__"})


def test_readme_names_the_index_format_version(tmp_path):
    """The README's Index paragraph names the format version and every
    header key that save_index writes."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("**Index** (`--out`)"):].split("\n\n", 1)[0]
    assert f"format {FORMAT_VERSION}," in paragraph
    path = tmp_path / "idx.jsonl"
    save_index(new_index(), path)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert [key for key in header if f"`{key}`" not in paragraph] == []


# bench/layers.py targets that name nothing, each with the reason it may.
STALE_LAYER_TARGETS = {
    # embed() was removed when embeddings became arrays; the benchmark's
    # next change drops this target, whose metrics have read 0 since.
    ("simaudit.scanner", None, "embed"),
}


def test_every_traced_layer_target_exists():
    """bench/layers.py wraps its TARGETS by module attribute and skips a name
    the package lacks, so a renamed function would read 0 without a failure.
    Only the file's text is read; nothing of bench/ is imported."""
    tree = ast.parse((ROOT / "bench" / "layers.py").read_text(encoding="utf-8"))
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    missing = []
    for target in targets.elts:
        module, cls, attr = map(ast.literal_eval, target.elts[:3])
        owner = importlib.import_module(module)
        if not hasattr(owner if cls is None else getattr(owner, cls, None), attr):
            missing.append((module, cls, attr))
    assert len(targets.elts) > 20
    assert set(missing) <= STALE_LAYER_TARGETS, missing


def test_only_the_call_log_keeps_calls():
    """Model calls are logged in one place, agents.CallLog: no other class in
    the package assigns a `calls` attribute, on its instances or itself."""
    keepers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef) or cls.name == "CallLog":
                continue
            own = [stmt for stmt in cls.body
                   if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
            stored = [node for node in ast.walk(cls)
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)]
            stored += [node for stmt in own for node in ast.walk(stmt)
                       if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
            if any(getattr(node, "attr", getattr(node, "id", None)) == "calls" for node in stored):
                keepers.append(f"{path.name}:{cls.name}")
    assert keepers == []


def test_providers_keep_no_state():
    """One provider serves every request of a run, chunks and debate threads
    alike, so a provider sets its attributes in __init__ alone: what a run
    must remember, such as its embedding width, is the run's own."""
    providers = {"simindex.py": {"FallbackEmbedder", "RemoteEmbedder"},
                 "agents.py": {"HttpLLMProvider", "MockLLMProvider"}}
    found, stores = set(), []
    for module, names in providers.items():
        for cls in ast.parse((PACKAGE / module).read_text(encoding="utf-8")).body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in names):
                continue
            found.add(cls.name)
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name == "__init__":
                    continue
                stores += [f"{cls.name}.{method.name}: self.{node.attr}"
                           for node in ast.walk(method)
                           if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                           and isinstance(node.value, ast.Name) and node.value.id == "self"]
    assert found == set().union(*providers.values())
    assert stores == []
