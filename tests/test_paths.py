"""Path enumeration against a recursive DFS oracle, plus indexing contracts."""

import random

import pytest

from oracles import simple_paths_dfs, random_switch_graph
from vdcembed.errors import InvalidParameterError, PathLookupError
from vdcembed.paths import enumerate_paths
from vdcembed.topology import Link, ResourceVector, SubstrateNetwork, Switch


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
