"""Path enumeration against a recursive DFS oracle, plus indexing and
lazy-fill contracts."""

import gc
import hashlib
import random

import pytest

from oracles import random_multigraph, simple_paths_dfs, random_switch_graph
from vdcembed.errors import InvalidParameterError, PathLookupError
from vdcembed.metrics import serialize_trace
from vdcembed.paths import enumerate_paths
from vdcembed.scheduler import PolicyConfig, run_simulation
from vdcembed.topology import (
    Link, ResourceVector, SubstrateNetwork, Switch, WorkloadConfig, build_fat_tree,
)


def filled(table, order=sorted):
    """The table with every ordered node pair looked up, sources and then
    destinations in `order`; a table enumerates a pair only when it is
    looked up, so a check of the whole table needs every pair filled."""
    ids = order(table.net.adjacency)
    for a in ids:
        for b in ids:
            table.get(a, b)
    return table


def held(table):
    """pair -> paths of every pair the table holds paths for."""
    return {pair: table.get(*pair) for pair in table.pairs()}


def table_digest(table):
    """sha256 over every record of a table, pairs sorted: pair, index,
    nodes, edges and delay."""
    digest = hashlib.sha256()
    for pair in sorted(table.pairs()):
        for n, (nodes, edges, delay) in enumerate(table.get(*pair)):
            digest.update(f"{pair} {n} {nodes} {edges} {delay}\n".encode())
    return digest.hexdigest()


def line_net():
    switches = {
        n: Switch(n, "edge", ResourceVector(switch_memory=10)) for n in ("a", "b", "c")
    }
    links = {
        "ab": Link("ab", "a", "b", 100, 2),
        "bc": Link("bc", "b", "c", 50, 3),
    }
    return SubstrateNetwork(servers={}, switches=switches, links=links)


class TestEnumerate:
    def test_line_has_single_path(self):
        table = enumerate_paths(line_net(), 4, pair_filter=lambda a, b: True)
        recs = table.get("a", "c")
        assert recs == [(("a", "b", "c"), ("ab", "bc"), 5)]

    def test_k4_interpod_edge_pair_has_four_paths(self, k4_net, k4_table):
        recs = k4_table.get("e0_0", "e1_0")
        assert len(recs) == 4
        for _, edges, _ in recs:
            assert len(edges) == 4
            # one core switch per path, all distinct
        cores = {nodes[2] for nodes, _, _ in recs}
        assert len(cores) == 4
        assert all(c.startswith("c") for c in cores)

    def test_k4_same_pod_edge_pair(self, k4_table):
        recs = k4_table.get("e0_0", "e0_1")
        assert [len(edges) for _, edges, _ in recs] == [2, 2]

    def test_switch_server_pairs_are_single_edge(self, k4_net, k4_table):
        for sid in k4_net.servers:
            edge = k4_net.edge_switch_of(sid)
            recs = k4_table.get(edge, sid)
            assert len(recs) == 1 and len(recs[0][1]) == 1
            # and no longer switch-server paths are recorded anywhere
            for other in k4_net.switches:
                if other != edge:
                    assert k4_table.get(other, sid) == []

    def test_max_len_zero_rejected(self, k4_net):
        with pytest.raises(InvalidParameterError):
            enumerate_paths(k4_net, 0)

    def test_matches_dfs_oracle_on_random_graphs(self):
        rng = random.Random(1234)
        for trial in range(12):
            n = rng.randint(3, 12)
            net = random_switch_graph(rng, n)
            max_len = rng.randint(1, 4)
            table = enumerate_paths(net, max_len, pair_filter=lambda a, b: True)
            ids = sorted(net.switches)
            for src in ids:
                for dst in ids:
                    if src == dst:
                        continue
                    expect = simple_paths_dfs(net, src, dst, max_len)
                    got = [edges for _, edges, _ in table.get(src, dst)]
                    assert got == expect

    def test_matches_dfs_oracle_with_parallel_links_leaves_and_a_filter(self):
        rng = random.Random(4321)
        for trial in range(60):
            net = random_multigraph(rng, rng.randint(1, 7), rng.randint(0, 4), rng.randint(0, 8))
            max_len = rng.randint(1, 5)
            ids = sorted(net.adjacency)
            # each ordered pair on its own, so (a, b) and (b, a) may differ
            admitted = {(a, b) for a in ids for b in ids if a != b and rng.random() < 0.5}
            table = filled(
                enumerate_paths(net, max_len, pair_filter=lambda a, b: (a, b) in admitted)
            )
            expect = {}
            for a, b in sorted(admitted):
                paths = simple_paths_dfs(net, a, b, max_len)
                if paths:
                    expect[(a, b)] = paths
            assert table.pairs() == list(expect)
            for (a, b), recs in held(table).items():
                assert [edges for _, edges, _ in recs] == expect[(a, b)]
                for nodes, edges, delay in recs:
                    assert nodes[0] == a and nodes[-1] == b
                    assert len(nodes) == len(edges) + 1
                    assert delay == sum(net.links[e].delay for e in edges)

    @pytest.mark.parametrize(
        "k, pairs, records, digest",
        [
            (4, 412, 1440, "1de98e2befd2ab291ed9d895f29432a3e222d6dad8b2f551decd7cb808f4bff4"),
            (8, 6576, 120576, "a55209b9bb9d0dfa016be6206dbfb507de0342593629b465cfe64019efb42ea4"),
        ],
        ids=["k4", "k8"],
    )
    def test_default_fat_tree_table_pinned(self, k, pairs, records, digest):
        table = filled(enumerate_paths(build_fat_tree(k)))
        assert len(table.pairs()) == pairs
        assert sum(len(recs) for recs in held(table).values()) == records
        assert table_digest(table) == digest

    def test_leaf_destinations_are_kept_and_inner_nodes_grown(self):
        # a-b-c triangle with two parallel b-c links and a leaf d off c, plus
        # a leaf e off b that no admitted pair names. d is kept at two hops,
        # though a leaf is never grown, and b, which no pair admits, is grown.
        switches = {n: Switch(n, "edge", ResourceVector(switch_memory=10)) for n in "abcde"}
        links = [
            Link("ab", "a", "b", 100, 1), Link("bc", "b", "c", 100, 2),
            Link("bc2", "b", "c", 100, 3), Link("be", "b", "e", 100, 1),
            Link("ca", "c", "a", 100, 4), Link("cd", "c", "d", 100, 5),
        ]
        net = SubstrateNetwork(servers={}, switches=switches, links={l.id: l for l in links})
        admitted = {("a", "c"), ("a", "d"), ("d", "a")}
        table = filled(enumerate_paths(net, 3, pair_filter=lambda a, b: (a, b) in admitted))
        assert held(table) == {
            ("a", "c"): [
                (("a", "c"), ("ca",), 4),
                (("a", "b", "c"), ("ab", "bc"), 3),
                (("a", "b", "c"), ("ab", "bc2"), 4),
            ],
            ("a", "d"): [
                (("a", "c", "d"), ("ca", "cd"), 9),
                (("a", "b", "c", "d"), ("ab", "bc", "cd"), 8),
                (("a", "b", "c", "d"), ("ab", "bc2", "cd"), 9),
            ],
            ("d", "a"): [
                (("d", "c", "a"), ("cd", "ca"), 9),
                (("d", "c", "b", "a"), ("cd", "bc", "ab"), 8),
                (("d", "c", "b", "a"), ("cd", "bc2", "ab"), 9),
            ],
        }
        assert table.pairs() == sorted(admitted)

    def test_records_are_untracked_by_the_collector(self, k4_net):
        # a tuple is untracked once its members are, so the second collection
        # untracks the records whose node and edge tuples the first did; a
        # tuple subclass would stay tracked
        table = filled(enumerate_paths(k4_net))
        gc.collect()
        gc.collect()
        recs = [rec for recs in held(table).values() for rec in recs]
        assert len(recs) == 1440
        assert not any(gc.is_tracked(rec) for rec in recs)

    def test_index_stability(self, k4_net):
        # the same indices whichever order the pairs are looked up in
        t1 = filled(enumerate_paths(k4_net))
        t2 = filled(enumerate_paths(k4_net), order=lambda ids: sorted(ids, reverse=True))
        assert len(t1.pairs()) == 412
        assert held(t1) == held(t2)

    def test_cached_delay(self, k4_net):
        recs = [rec for recs in held(filled(enumerate_paths(k4_net))).values() for rec in recs]
        assert len(recs) == 1440
        for _, edges, delay in recs:
            assert delay == sum(k4_net.links[e].delay for e in edges)


class TestIndicator:
    def test_line_membership(self):
        table = enumerate_paths(line_net(), 4, pair_filter=lambda a, b: True)
        _, edges, _ = table.path("a", "c", 0)
        assert "ab" in edges
        assert "bc" in edges
        assert "zz" not in edges

    def test_unknown_lookups(self):
        table = enumerate_paths(line_net(), 4, pair_filter=lambda a, b: True)
        with pytest.raises(PathLookupError):
            table.path("a", "c", 5)
        with pytest.raises(PathLookupError):
            table.path("a", "z", 0)


class TestLazyFill:
    def counted(self, calls, admit=lambda a, b: True):
        def pair_filter(a, b):
            calls.append((a, b))
            return admit(a, b)

        return pair_filter

    def test_fresh_table_holds_no_pairs(self, k4_net):
        table = enumerate_paths(k4_net)
        assert table.pairs() == [] and table.paths == {}

    def test_lookup_fills_exactly_its_pair_and_calls_the_filter_once(self):
        calls = []
        table = enumerate_paths(line_net(), 4, pair_filter=self.counted(calls))
        expect = [(("a", "b", "c"), ("ab", "bc"), 5)]
        assert table.get("a", "c") == expect
        assert table.path("a", "c", 0) == expect[0]
        assert table.get("a", "c") is table.get("a", "c")
        assert calls == [("a", "c")]
        assert table.pairs() == [("a", "c")] and list(table.paths) == [("a", "c")]

    @pytest.mark.parametrize(
        "a, b", [("c", "a"), ("a", "z"), ("z", "a"), ("b", "b")],
        ids=["unadmitted", "unknown-destination", "unknown-source", "same-node"],
    )
    def test_pair_without_paths_gives_nothing(self, a, b):
        calls = []
        admitted = self.counted(calls, lambda a, b: (a, b) != ("c", "a"))
        table = enumerate_paths(line_net(), 4, pair_filter=admitted)
        assert table.get(a, b) == []
        with pytest.raises(PathLookupError):
            table.path(a, b, 0)
        assert table.pairs() == []
        # the filter is asked only of two distinct known nodes, once
        assert calls == ([("c", "a")] if (a, b) == ("c", "a") else [])

    def test_a_filled_table_gives_a_fresh_tables_trace(self, k4_net):
        # simulations share a table (the benchmark, run --lambdas), so one
        # looks up pairs another filled; its decisions may not depend on that
        policy = PolicyConfig(batch_width=3, solver_node_limit=500, remap_limit=4)

        def trace(table, mode, seed):
            cfg = WorkloadConfig(
                vm_count=(4, 10), vswitch_count=(2, 4), arrival_rate=5, horizon=40.0, seed=seed
            )
            return serialize_trace(
                run_simulation(k4_net, cfg, policy, run_mode=mode, table=table, audit_every=1)
            )

        for mode in ("hybrid", "online-only", "batch-only"):
            fresh = enumerate_paths(k4_net)
            expect = trace(fresh, mode, 2)
            shared = enumerate_paths(k4_net)
            trace(shared, mode, 1)
            before = set(shared.pairs())
            assert before and set(fresh.pairs()) - before
            assert trace(shared, mode, 2) == expect
            assert trace(filled(enumerate_paths(k4_net)), mode, 2) == expect
