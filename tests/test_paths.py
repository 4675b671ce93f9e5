"""Path enumeration against a recursive DFS oracle, plus indexing contracts."""

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
        for n, rec in enumerate(table.paths[pair]):
            digest.update(f"{pair} {n} {rec.nodes} {rec.edges} {rec.delay}\n".encode())
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
        assert len(recs) == 1
        assert recs[0].edges == ("ab", "bc")
        assert recs[0].delay == 5

    def test_k4_interpod_edge_pair_has_four_paths(self, k4_net, k4_table):
        recs = k4_table.get("e0_0", "e1_0")
        assert len(recs) == 4
        for rec in recs:
            assert len(rec.edges) == 4
            # one core switch per path, all distinct
        cores = {rec.nodes[2] for rec in recs}
        assert len(cores) == 4
        assert all(c.startswith("c") for c in cores)

    def test_k4_same_pod_edge_pair(self, k4_table):
        recs = k4_table.get("e0_0", "e0_1")
        assert [len(r.edges) for r in recs] == [2, 2]

    def test_switch_server_pairs_are_single_edge(self, k4_net, k4_table):
        for sid in k4_net.servers:
            edge = k4_net.edge_switch_of(sid)
            recs = k4_table.get(edge, sid)
            assert len(recs) == 1 and len(recs[0].edges) == 1
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
                    got = [rec.edges for rec in table.get(src, dst)]
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
                assert [rec.edges for rec in recs] == expect[(a, b)]
                for rec in recs:
                    assert rec.nodes[0] == a and rec.nodes[-1] == b
                    assert len(rec.nodes) == len(rec.edges) + 1
                    assert rec.delay == sum(net.links[e].delay for e in rec.edges)

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

    def test_index_stability(self, k4_net):
        t1 = enumerate_paths(k4_net)
        t2 = enumerate_paths(k4_net)
        assert t1.paths == t2.paths
        assert list(t1.paths) == list(t2.paths)

    def test_cached_delay(self, k4_net, k4_table):
        for recs in k4_table.paths.values():
            for rec in recs:
                assert rec.delay == sum(k4_net.links[e].delay for e in rec.edges)


class TestIndicator:
    def test_line_membership(self):
        table = enumerate_paths(line_net(), 4, pair_filter=lambda a, b: True)
        assert "ab" in table.path("a", "c", 0).edges
        assert "bc" in table.path("a", "c", 0).edges
        assert "zz" not in table.path("a", "c", 0).edges

    def test_unknown_lookups(self):
        table = enumerate_paths(line_net(), 4, pair_filter=lambda a, b: True)
        with pytest.raises(PathLookupError):
            table.path("a", "c", 5)
        with pytest.raises(PathLookupError):
            table.path("a", "z", 0)
