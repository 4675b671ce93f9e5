"""Path enumeration against a recursive DFS oracle, plus indexing contracts."""

import gc
import hashlib
import random

import pytest

from oracles import random_multigraph, simple_paths_dfs, random_switch_graph
from vdcembed.errors import InvalidParameterError, PathLookupError
from vdcembed.paths import enumerate_paths
from vdcembed.topology import Link, ResourceVector, SubstrateNetwork, Switch, build_fat_tree


def table_digest(table):
    """sha256 over every record of a table, pairs sorted: pair, index,
    nodes, edges and delay."""
    digest = hashlib.sha256()
    for pair in sorted(table.paths):
        for n, (nodes, edges, delay) in enumerate(table.paths[pair]):
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
            table = enumerate_paths(net, max_len, pair_filter=lambda a, b: (a, b) in admitted)
            expect = {}
            for a, b in sorted(admitted):
                paths = simple_paths_dfs(net, a, b, max_len)
                if paths:
                    expect[(a, b)] = paths
            assert list(table.paths) == list(expect)
            for (a, b), recs in table.paths.items():
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
        table = enumerate_paths(build_fat_tree(k))
        assert len(table.paths) == pairs
        assert sum(len(recs) for recs in table.paths.values()) == records
        assert list(table.paths) == sorted(table.paths)
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
        table = enumerate_paths(net, 3, pair_filter=lambda a, b: (a, b) in admitted)
        assert table.paths == {
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
        assert list(table.paths) == sorted(admitted)

    def test_records_are_untracked_by_the_collector(self, k4_net):
        # a tuple is untracked once its members are, so the second collection
        # untracks the records whose node and edge tuples the first did; a
        # tuple subclass would stay tracked
        table = enumerate_paths(k4_net)
        gc.collect()
        gc.collect()
        recs = [rec for recs in table.paths.values() for rec in recs]
        assert len(recs) == 1440
        assert not any(gc.is_tracked(rec) for rec in recs)

    def test_index_stability(self, k4_net):
        t1 = enumerate_paths(k4_net)
        t2 = enumerate_paths(k4_net)
        assert t1.paths == t2.paths
        assert list(t1.paths) == list(t2.paths)

    def test_cached_delay(self, k4_net, k4_table):
        for recs in k4_table.paths.values():
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
