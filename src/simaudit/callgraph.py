"""Call graph over extracted units and the bottom-up scan schedule.

Callees are analyzed before their callers so that every debate can see
one-line verdict summaries for the functions it calls. Cycles are collapsed
into strongly connected components first; members of a cycle group are
scheduled consecutively since no order inside a cycle is callee-first.
A ScanSchedule is that order and its groups; the scan derives which units
each one waits for from the order and the edges.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from graphlib import TopologicalSorter

from .errors import DuplicateUnitId
from .extract import FunctionUnit

REASON_NOT_FOUND = "not_found"
REASON_AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class UnresolvedCall:
    caller_id: str
    name: str
    reason: str  # REASON_NOT_FOUND | REASON_AMBIGUOUS


@dataclass(frozen=True)
class CallGraph:
    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]  # (caller_id, callee_id)
    unresolved: tuple[UnresolvedCall, ...]
    self_recursive: tuple[str, ...]


@dataclass(frozen=True)
class ScanSchedule:
    order: tuple[str, ...]
    groups: tuple[tuple[str, ...], ...]  # every group, in schedule order


def build_graph(units: list[FunctionUnit]) -> CallGraph:
    """Resolve declared call names against the unit set.

    Resolution order: a matching name in the same contract wins; otherwise a
    globally unique name wins; otherwise the call is recorded as unresolved,
    with the reason saying whether the name was unknown or ambiguous. A name
    resolving to its own caller is kept out of the edge set and listed in
    self_recursive instead, so downstream ordering never sees self-loops.
    """
    ids = [u.unit_id for u in units]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise DuplicateUnitId(f"duplicate unit ids: {', '.join(dupes)}")

    by_scope: dict[tuple[str, str, str], list[str]] = {}
    by_name: dict[str, list[str]] = {}
    for u in sorted(units, key=lambda u: u.unit_id):
        by_scope.setdefault((u.file_path, u.contract, u.name), []).append(u.unit_id)
        by_name.setdefault(u.name, []).append(u.unit_id)

    edges: set[tuple[str, str]] = set()
    unresolved: list[UnresolvedCall] = []
    self_recursive: set[str] = set()
    for u in sorted(units, key=lambda u: u.unit_id):
        for name in u.declared_calls:
            local = by_scope.get((u.file_path, u.contract, name))
            if local:
                target = local[0]  # overloads: lowest ordinal, deterministically
            else:
                candidates = by_name.get(name, [])
                if len(candidates) == 1:
                    target = candidates[0]
                elif not candidates:
                    unresolved.append(UnresolvedCall(u.unit_id, name, REASON_NOT_FOUND))
                    continue
                else:
                    unresolved.append(UnresolvedCall(u.unit_id, name, REASON_AMBIGUOUS))
                    continue
            if target == u.unit_id:
                self_recursive.add(u.unit_id)
            else:
                edges.add((u.unit_id, target))

    return CallGraph(
        vertices=frozenset(ids),
        edges=frozenset(edges),
        unresolved=tuple(unresolved),
        self_recursive=tuple(sorted(self_recursive)),
    )


def _tarjan_scc(vertices: list[str], adj: dict[str, list[str]]) -> list[tuple[str, ...]]:
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[tuple[str, ...]] = []
    counter = 0

    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(tuple(sorted(comp)))
    return sccs


def topo_order(graph: CallGraph) -> ScanSchedule:
    """Schedule units callee-first over the SCC condensation.

    Whenever several groups are ready, the one whose smallest member id sorts
    first is emitted next; members of a group are emitted consecutively in
    ascending unit id. groups holds every group (a cycle or a single unit) in
    that order. The result is a pure function of the graph, so two runs over
    the same input produce the same schedule.
    """
    vertices = sorted(graph.vertices)
    adj: dict[str, list[str]] = {v: [] for v in vertices}
    for caller, callee in sorted(graph.edges):
        adj[caller].append(callee)

    sccs = _tarjan_scc(vertices, adj)
    comp_of = {v: comp for comp in sccs for v in comp}
    # Groups are disjoint and sorted, so comparing two compares their first ids.
    sorter = TopologicalSorter({comp: {comp_of[w] for v in comp for w in adj[v]} - {comp}
                                for comp in sccs})
    sorter.prepare()
    ready: list[tuple[str, ...]] = []
    groups: list[tuple[str, ...]] = []
    while sorter.is_active():
        for comp in sorter.get_ready():
            heapq.heappush(ready, comp)
        groups.append(heapq.heappop(ready))
        sorter.done(groups[-1])

    return ScanSchedule(order=tuple(v for group in groups for v in group),
                        groups=tuple(groups))


def _dot_escape(name: str) -> str:
    return name.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(vertices, edges) -> str:
    """Render a call graph's vertex ids and (caller, callee) edges as Graphviz
    DOT text, vertices and edges sorted."""
    lines = ["digraph callgraph {"]
    for v in sorted(vertices):
        lines.append(f'  "{_dot_escape(v)}";')
    for caller, callee in sorted(edges):
        lines.append(f'  "{_dot_escape(caller)}" -> "{_dot_escape(callee)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
