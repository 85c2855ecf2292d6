"""Call resolution, SCC condensation, and the bottom-up schedule."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from helpers import fixture_text, mk_unit
from simaudit.callgraph import (
    REASON_AMBIGUOUS,
    REASON_NOT_FOUND,
    CallGraph,
    build_graph,
    to_dot,
    topo_order,
)
from simaudit.errors import DuplicateUnitId
from simaudit.extract import extract_units


def _graph(edges, vertices=None):
    vs = set(vertices or [])
    for a, b in edges:
        vs.update((a, b))
    return CallGraph(vertices=frozenset(vs), edges=frozenset(edges),
                     unresolved=(), self_recursive=())


def _cycles(schedule):
    """The schedule's cycle groups, as the report's schedule.scc_groups
    lists them: the groups of more than one unit, in schedule order."""
    return tuple(grp for grp in schedule.groups if len(grp) > 1)


class TestResolution:
    def test_same_contract_name_wins_over_global(self):
        units = [
            mk_unit("f.sol::A::helper#0", contract="A"),
            mk_unit("f.sol::B::helper#0", contract="B"),
            mk_unit("f.sol::A::work#0", contract="A", calls=("helper",)),
        ]
        g = build_graph(units)
        assert ("f.sol::A::work#0", "f.sol::A::helper#0") in g.edges
        assert ("f.sol::A::work#0", "f.sol::B::helper#0") not in g.edges
        assert g.unresolved == ()

    def test_globally_unique_name_resolves_across_contracts(self):
        units = [
            mk_unit("f.sol::Lib::clamp#0", contract="Lib"),
            mk_unit("f.sol::App::run#0", contract="App", calls=("clamp",)),
        ]
        g = build_graph(units)
        assert g.edges == frozenset({("f.sol::App::run#0", "f.sol::Lib::clamp#0")})

    def test_unknown_name_is_unresolved_not_found(self):
        units = [mk_unit("f.sol::A::run#0", contract="A", calls=("nothere",))]
        g = build_graph(units)
        assert g.edges == frozenset()
        assert len(g.unresolved) == 1
        u = g.unresolved[0]
        assert (u.caller_id, u.name, u.reason) == ("f.sol::A::run#0", "nothere",
                                                   REASON_NOT_FOUND)

    def test_name_in_two_other_contracts_is_ambiguous(self):
        units = [
            mk_unit("f.sol::A::helper#0", contract="A"),
            mk_unit("f.sol::B::helper#0", contract="B"),
            mk_unit("f.sol::C::run#0", contract="C", calls=("helper",)),
        ]
        g = build_graph(units)
        assert g.edges == frozenset()
        assert g.unresolved[0].reason == REASON_AMBIGUOUS

    def test_overload_resolves_to_lowest_ordinal(self):
        units = [
            mk_unit("f.sol::A::f#0", name="f", contract="A", body="function f(uint a) public { }"),
            mk_unit("f.sol::A::f#1", name="f", contract="A", body="function f(uint a, uint b) public { }"),
            mk_unit("f.sol::A::run#0", contract="A", calls=("f",)),
        ]
        g = build_graph(units)
        assert ("f.sol::A::run#0", "f.sol::A::f#0") in g.edges
        assert ("f.sol::A::run#0", "f.sol::A::f#1") not in g.edges

    def test_self_call_goes_to_side_list_not_edges(self):
        units = [mk_unit("f.sol::A::loop#0", name="loop", contract="A", calls=("loop",))]
        g = build_graph(units)
        assert g.edges == frozenset()
        assert g.self_recursive == ("f.sol::A::loop#0",)

    def test_duplicate_unit_ids_rejected(self):
        units = [
            mk_unit("f.sol::A::f#0", body="function f() public { }"),
            mk_unit("f.sol::A::f#0", body="function f() public { x; }"),
        ]
        with pytest.raises(DuplicateUnitId) as exc:
            build_graph(units)
        assert "f.sol::A::f#0" in str(exc.value)


class TestLabeledFixtureGraph:
    def test_edges_and_side_lists(self):
        src = fixture_text("labeled_calls.sol")
        g = build_graph(extract_units(src, "labeled_calls.sol"))
        f = "labeled_calls.sol"
        assert (f + "::MathLib::clamp#0", f + "::MathLib::min#0") in g.edges
        assert (f + "::Vault::credit#0", f + "::MathLib::clamp#0") in g.edges
        assert (f + "::Vault::quote#0", f + "::IPriceOracle::price#0") in g.edges
        assert (f + "::Vault::sweep#0", f + "::Base::onlyOwner#0") in g.edges
        assert (f + "::Vault::sweep#0", f + "::Vault::quote#0") in g.edges
        assert (f + "::Child::ping#0", f + "::Child::tock#0") in g.edges
        # burn's MathLib.min resolves globally; sweep's to.transfer does not.
        assert (f + "::Vault::burn#0", f + "::MathLib::min#0") in g.edges
        assert any(u.name == "transfer" and u.reason == REASON_NOT_FOUND
                   for u in g.unresolved)
        assert g.self_recursive == (f + "::Vault::mirror#0",)

    def test_schedule_is_callee_first(self):
        src = fixture_text("labeled_calls.sol")
        g = build_graph(extract_units(src, "labeled_calls.sol"))
        s = topo_order(g)
        oracles.check_schedule(s.order, g.vertices, g.edges)
        assert _cycles(s) == ()


class TestSchedule:
    def test_chain_is_scheduled_bottom_up(self):
        g = _graph([("a", "b"), ("b", "c")])
        assert topo_order(g).order == ("c", "b", "a")

    def test_isolated_vertices_sort_by_id(self):
        g = _graph([], vertices=["m", "a", "z"])
        assert topo_order(g).order == ("a", "m", "z")

    def test_ready_tie_broken_by_smallest_member_id(self):
        # Both x and b are ready from the start; b wins the tie, and y only
        # becomes ready after x.
        g = _graph([("y", "x")], vertices=["b"])
        assert topo_order(g).order == ("b", "x", "y")

    def test_cycle_members_consecutive_and_ascending(self):
        g = _graph([("a", "b"), ("b", "a"), ("c", "a")])
        s = topo_order(g)
        assert s.order == ("a", "b", "c")
        assert _cycles(s) == (("a", "b"),)

    def test_two_cycles_and_a_bridge(self):
        edges = [("p", "q"), ("q", "p"),      # cycle 1
                 ("x", "y"), ("y", "x"),      # cycle 2
                 ("x", "p")]                  # cycle 2 depends on cycle 1
        g = _graph(edges)
        s = topo_order(g)
        assert s.order == ("p", "q", "x", "y")
        assert _cycles(s) == (("p", "q"), ("x", "y"))
        oracles.check_schedule(s.order, g.vertices, g.edges)

    def test_position_lookup(self):
        s = topo_order(_graph([("a", "b")]))
        assert s.order.index("b") == 0
        assert s.order.index("a") == 1


_vertex_names = [f"u{i:02d}" for i in range(10)]


@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 10))
    vs = _vertex_names[:n]
    pairs = [(a, b) for a in vs for b in vs if a != b]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=min(len(pairs), 25))) if pairs else set()
    return _graph(edges, vertices=vs)


class TestScheduleProperties:
    @given(random_graphs())
    def test_schedule_satisfies_edge_scan_oracle(self, g):
        s = topo_order(g)
        oracles.check_schedule(s.order, g.vertices, g.edges)

    @given(random_graphs())
    def test_order_matches_the_reference_schedule(self, g):
        assert topo_order(g).order == oracles.reference_schedule(g.vertices, g.edges)

    @given(random_graphs())
    def test_scc_groups_match_transitive_closure_oracle(self, g):
        s = topo_order(g)
        assert {frozenset(grp) for grp in _cycles(s)} == oracles.cyclic_groups(
            g.vertices, g.edges)
        for grp in _cycles(s):
            assert list(grp) == sorted(grp)

    @given(random_graphs())
    def test_groups_are_the_condensation_in_schedule_order(self, g):
        s = topo_order(g)
        assert tuple(v for grp in s.groups for v in grp) == s.order
        assert hash(s) == hash(topo_order(g))

    @given(random_graphs())
    def test_deterministic(self, g):
        assert topo_order(g) == topo_order(g)

    @given(st.permutations(list(range(6))), st.data())
    def test_build_graph_is_input_order_invariant(self, perm, data):
        names = [f"fn{i}" for i in range(6)]
        calls = {
            i: data.draw(st.lists(st.sampled_from(names), max_size=2), label=f"calls{i}")
            for i in range(6)
        }
        units = [
            mk_unit(f"f.sol::C::{names[i]}#0", name=names[i],
                    calls=tuple(calls[i]))
            for i in range(6)
        ]
        shuffled = [units[i] for i in perm]
        assert build_graph(shuffled) == build_graph(units)
        assert topo_order(build_graph(shuffled)) == topo_order(build_graph(units))


class TestDot:
    def test_renders_sorted_vertices_and_edges(self):
        g = _graph([("b", "a")], vertices=["c"])
        assert to_dot(g.vertices, g.edges) == (
            "digraph callgraph {\n"
            '  "a";\n'
            '  "b";\n'
            '  "c";\n'
            '  "b" -> "a";\n'
            "}\n"
        )

    def test_escapes_quotes_and_backslashes(self):
        g = _graph([], vertices=['a"b', "c\\d"])
        out = to_dot(g.vertices, g.edges)
        assert '"a\\"b";' in out
        assert '"c\\\\d";' in out
