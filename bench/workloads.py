"""Seeded generator for the benchmark's inputs.

`generate(workload, seed, out_dir)` writes, under `out_dir`:

- `archives/<package>-<version>.tgz`: package archives of Solidity sources;
- `labels.csv`: vulnerability labels for some kept corpus entries;
- `target/*.sol`: the tree to scan;
- `mock.json`: the mock model's fixture, one reply for every role;
- `manifest.json`: what was planted (exact clones with their expected
  verdict, near-clones with their source entry id, call edges, the cycle).

The same (workload, seed) always gives byte-identical sources. The program
under test only ever sees the archives, the labels, the target tree and
the mock fixture.
"""

from __future__ import annotations

import csv
import io
import json
import random
import tarfile
from dataclasses import dataclass
from pathlib import Path

# Shape of each workload. Corpus: packages x versions x files x functions,
# with `changed` functions rewritten per package in each later version.
# Target: exact clones (some of labeled entries), near-clones, and fresh
# functions wired into a call graph of leaves, mids, chains and a cycle.
# Model: the mock (model_delay_s None) or the stand-in endpoint, which waits
# model_delay_s per call.
WORKLOADS = {
    # Two versions of each package, so ingest also drops duplicates; a target
    # of mostly near-clones, so nearly every unit goes through embedding and
    # top-k retrieval.
    "retrieval": dict(packages=6, versions=2, files=4, functions=25, changed=8,
                      vulnerable_share=0.05, exact=3, exact_vulnerable=2, near=16,
                      leaves=2, mids=1, fanin=2, chains=1, chain_len=2, cycle=0,
                      model_delay_s=None),
    # Small corpus; a mostly fresh target whose call graph has wide
    # wavefronts, two chains and one cycle, scanned against a remote model.
    "llm": dict(packages=2, versions=1, files=2, functions=10, changed=0,
                vulnerable_share=0.1, exact=6, exact_vulnerable=2, near=2,
                leaves=10, mids=3, fanin=3, chains=2, chain_len=2, cycle=3,
                model_delay_s=0.030),
}

# One fenced JSON object with the keys of all four roles, so the mock's reply
# parses for every role.
MOCK_REPLY = "```json\n" + json.dumps({
    "findings": [], "rebuttals": [], "assessment": "no finding survives review",
    "is_vulnerable": False, "vuln_type": "", "explanation": "nothing to report",
    "confidence": "Medium"}, sort_keys=True) + "\n```"

_PACKAGES = ["aurora", "beacon", "cobalt", "delta", "ember", "falcon", "garnet",
             "harbor", "indigo", "juniper", "kestrel", "lumen"]
_VERBS = ["settle", "claim", "stake", "sweep", "mint", "burn", "accrue", "rebase",
          "vest", "lock", "bridge", "quote", "swap", "repay", "borrow", "harvest"]
_NOUNS = ["Rewards", "Shares", "Fees", "Debt", "Vault", "Pool", "Oracle", "Epoch",
          "Position", "Credit", "Stream", "Bond", "Ticket", "Market", "Round", "Slot"]
_VARS = ["amount", "value", "shares", "delta", "fee", "limit", "rate", "price",
         "count", "supply", "reward", "debt", "quota", "margin", "weight", "bonus"]
_MAPS = ["balances", "allowed", "stakes", "credits"]
_WORDS = ["low", "high", "zero", "cap", "paused", "owner", "limit", "stale",
          "late", "bad", "small", "big", "locked", "expired"]
_ISSUES = ["reentrancy before state update", "missing access control",
           "unchecked return value", "rounding error favours caller",
           "stale oracle price accepted", "allowance never decreased"]


@dataclass
class _Function:
    name: str
    params: tuple[str, str]
    local: str
    lines: list[str]  # statements between the local declaration and return

    def source(self) -> str:
        p0, p1 = self.params
        body = "\n".join(f"        {line}" for line in self.lines)
        return (f"    function {self.name}(uint256 {p0}, uint256 {p1}, address who) "
                f"public returns (uint256) {{\n"
                f"        uint256 {self.local} = {p0} + {p1};\n"
                f"{body}\n"
                f"        return {self.local};\n"
                f"    }}\n")


def _statement(rng: random.Random, names: list[str]) -> str:
    v = rng.choice(names)
    c = rng.randrange(2, 10_000)
    kind = rng.randrange(6)
    if kind == 0:
        return f"{v} = {v} * {c} / {rng.randrange(2, 100)};"
    if kind == 1:
        m = rng.choice(_MAPS)
        return f"{m}[who] = {m}[who] + {v};"
    if kind == 2:
        return f'require({v} > {c}, "{rng.choice(_WORDS)} {rng.choice(_WORDS)}");'
    if kind == 3:
        return f"if ({v} >= {c}) {{ total += {v} - {c}; }} else {{ total -= {c % 97}; }}"
    if kind == 4:
        return f"{v} = uint256(keccak256(abi.encodePacked({v}, who, {c})));"
    return f"emit Moved(who, {v} + {c});"


def _new_function(rng: random.Random, name: str, calls: list[str] = ()) -> _Function:
    p0, p1, local = rng.sample(_VARS, 3)
    names = [p0, p1, local]
    lines = [_statement(rng, names) for _ in range(rng.randrange(7, 11))]
    for callee in calls:
        lines.insert(rng.randrange(len(lines) + 1),
                     f"{local} += {callee}({local}, {p1}, who);")
    return _Function(name, (p0, p1), local, lines)


def _mutate(rng: random.Random, fn: _Function, edits: int) -> _Function:
    """Copy of fn with `edits` statements replaced by fresh ones."""
    lines = list(fn.lines)
    for pos in rng.sample(range(len(lines)), edits):
        old = lines[pos]
        while lines[pos] == old:
            lines[pos] = _statement(rng, [*fn.params, fn.local])
    return _Function(fn.name, fn.params, fn.local, lines)


def _contract(name: str, functions: list[_Function]) -> str:
    return ("// SPDX-License-Identifier: MIT\npragma solidity ^0.8.0;\n\n"
            f"contract {name} {{\n"
            "    mapping(address => uint256) balances;\n"
            "    mapping(address => uint256) allowed;\n"
            "    mapping(address => uint256) stakes;\n"
            "    mapping(address => uint256) credits;\n"
            "    uint256 total;\n"
            "    event Moved(address who, uint256 value);\n\n"
            + "\n".join(f.source() for f in functions)
            + "}\n")


def _write_archive(path: Path, files: dict[str, str]) -> None:
    with tarfile.open(path, "w:gz") as tf:
        for name, text in files.items():
            data = text.encode("utf-8")
            info = tarfile.TarInfo(name=name)
            info.size = len(data)
            info.mtime = 0
            tf.addfile(info, io.BytesIO(data))


class _Names:
    """Unique function names drawn from the seeded generator."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._used: set[str] = set()

    def take(self) -> str:
        while True:
            name = (f"{self._rng.choice(_VERBS)}{self._rng.choice(_NOUNS)}"
                    f"{self._rng.randrange(1000)}")
            if name not in self._used:
                self._used.add(name)
                return name


def _build_corpus(rng, names, spec, out_dir: Path):
    """Write the archives; return the kept entries in ingest order as
    (entry_id, package, version, function)."""
    (out_dir / "archives").mkdir(parents=True)
    kept: list[tuple[str, str, str, _Function]] = []
    seen: set[str] = set()
    for package in sorted(rng.sample(_PACKAGES, spec["packages"])):
        files = [[_new_function(rng, names.take()) for _ in range(spec["functions"])]
                 for _ in range(spec["files"])]
        for v in range(spec["versions"]):
            version = f"1.{v}.0"
            if v:
                slots = rng.sample([(f, i) for f in range(len(files))
                                    for i in range(len(files[f]))], spec["changed"])
                for f, i in slots:
                    files[f][i] = _mutate(rng, files[f][i], 1)
            members = {}
            for f, fns in enumerate(files):
                member = f"contracts/{package.title()}{f}.sol"
                contract = f"{package.title()}{f}"
                members[member] = _contract(contract, fns)
                for fn in fns:
                    # The first occurrence of a body is the one the index keeps.
                    src = fn.source()
                    if src not in seen:
                        seen.add(src)
                        kept.append((f"{package}@{version}/{member}::{contract}::{fn.name}#0",
                                     package, version, fn))
            _write_archive(out_dir / "archives" / f"{package}-{version}.tgz", members)
    return kept


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's inputs under out_dir and return the manifest."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    names = _Names(rng)
    kept = _build_corpus(rng, names, spec, out_dir)

    vulnerable = rng.sample(range(len(kept)), max(spec["exact_vulnerable"],
                                                  round(spec["vulnerable_share"] * len(kept))))
    notes = {i: f"{rng.choice(_ISSUES)} in {kept[i][3].name}" for i in vulnerable}
    with open(out_dir / "labels.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["package", "version", "match_kind", "match_value", "note"])
        for i in sorted(vulnerable):
            _, package, version, fn = kept[i]
            writer.writerow([package, version, "name", fn.name, notes[i]])

    # Target names must be unique across the target, so take each corpus
    # function name at most once.
    taken: set[str] = set()

    def pick(pool: list[int], n: int) -> list[int]:
        out = []
        for i in rng.sample(pool, len(pool)):
            if len(out) == n:
                break
            if kept[i][3].name not in taken:
                taken.add(kept[i][3].name)
                out.append(i)
        if len(out) < n:
            raise ValueError(f"{workload}: corpus too small for the target")
        return out

    clean = [i for i in range(len(kept)) if i not in notes]
    exact = (pick(sorted(vulnerable), spec["exact_vulnerable"])
             + pick(clean, spec["exact"] - spec["exact_vulnerable"]))
    near = pick(clean, spec["near"])

    # Fresh functions: leaves call nothing, mids call `fanin` leaves, each
    # chain runs down to a mid (or a leaf), and the cycle closes on itself.
    # Some fresh functions also call an exact clone.
    exact_names = [kept[i][3].name for i in exact]
    calls: dict[str, list[str]] = {}
    leaves = [names.take() for _ in range(spec["leaves"])]
    for leaf in leaves:
        calls[leaf] = []
    mids = [names.take() for _ in range(spec["mids"])]
    for mid in mids:
        calls[mid] = rng.sample(leaves, spec["fanin"])
    for _ in range(spec["chains"]):
        chain = [names.take() for _ in range(spec["chain_len"])]
        for caller, callee in zip(chain, chain[1:]):
            calls[caller] = [callee]
        calls[chain[-1]] = [rng.choice(mids or leaves)]
    cycle = [names.take() for _ in range(spec["cycle"])]
    for j, member in enumerate(cycle):
        calls[member] = [cycle[(j + 1) % len(cycle)]]
    if cycle:
        calls[cycle[0]].append(rng.choice(leaves))
    for caller in calls:
        if exact_names and rng.random() < 0.3:
            calls[caller].append(rng.choice(exact_names))

    target: list[tuple[_Function, str, dict | None]] = []
    for i in exact:
        target.append((kept[i][3], "exact", {"entry_id": kept[i][0],
                                             "vulnerable": i in notes,
                                             "note": notes.get(i, "")}))
    for i in near:
        target.append((_mutate(rng, kept[i][3], rng.randrange(1, 3)), "near",
                       {"entry_id": kept[i][0]}))
    for name, callees in calls.items():
        target.append((_new_function(rng, name, callees), "fresh", None))
    rng.shuffle(target)

    (out_dir / "target").mkdir()
    manifest = {"workload": workload, "seed": seed, "units": len(target),
                "entries": len(kept), "exact_clones": [], "near_clones": [],
                "edges": [], "cycle": []}
    unit_of: dict[str, str] = {}
    per_file = 10
    for f in range(0, len(target), per_file):
        chunk = target[f : f + per_file]
        contract = f"Target{f // per_file}"
        path = f"target/{contract}.sol"
        (out_dir / path).write_text(_contract(contract, [fn for fn, _, _ in chunk]),
                                    encoding="utf-8")
        for fn, kind, info in chunk:
            unit_id = f"{path}::{contract}::{fn.name}#0"
            unit_of[fn.name] = unit_id
            if kind == "exact":
                manifest["exact_clones"].append({"unit": unit_id, **info})
            elif kind == "near":
                manifest["near_clones"].append({"unit": unit_id, **info})
    manifest["edges"] = sorted([unit_of[caller], unit_of[callee]]
                               for caller, callees in calls.items() for callee in callees)
    manifest["cycle"] = sorted(unit_of[name] for name in cycle)
    (out_dir / "mock.json").write_text(json.dumps({"defaults": {
        role: MOCK_REPLY for role in ("Detector", "Critic", "Supporter", "Judge")}}),
        encoding="utf-8")
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True),
                                           encoding="utf-8")
    return manifest
