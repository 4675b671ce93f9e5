"""Fat-tree construction, request generation, validation, and text formats."""

import operator
import random
from dataclasses import replace

import pytest

from conftest import chain_request, star_request
from vdcembed.errors import ConfigError, FormatError, InvalidParameterError
from vdcembed.topology import (
    Link,
    ResourceVector,
    Server,
    SubstrateNetwork,
    Switch,
    VLink,
    VSwitch,
    WorkloadConfig,
    build_fat_tree,
    dump_requests,
    dump_substrate,
    generate_vdc_request,
    load_requests,
    load_substrate,
    parse_workload_config,
    poisson_arrivals,
    sum_vectors,
    validate_request,
    validate_substrate,
)
from vdcembed.state import Violation


def switch_tier_counts(net):
    counts = {"core": 0, "aggregation": 0, "edge": 0}
    for sw in net.switches.values():
        counts[sw.tier] += 1
    return counts


class TestBuildFatTree:
    def test_k4_counts_and_profile(self):
        net = build_fat_tree(4)
        assert len(net.servers) == 16
        assert len(net.switches) == 20
        assert len(net.links) == 48
        assert switch_tier_counts(net) == {"core": 4, "aggregation": 8, "edge": 8}
        for link in net.links.values():
            tiers = set()
            for end in (link.a, link.b):
                if end in net.servers:
                    tiers.add("server")
                else:
                    tiers.add(net.switches[end].tier)
            if tiers == {"core", "aggregation"}:
                assert link.bandwidth == 10000
            else:
                assert link.bandwidth == 1000

    def test_k2_counts(self):
        net = build_fat_tree(2)
        assert len(net.servers) == 2
        assert len(net.switches) == 5
        assert len(net.links) == 6

    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    def test_closed_forms_and_connectivity(self, k):
        net = build_fat_tree(k)
        assert len(net.servers) == k**3 // 4
        assert len(net.switches) == 5 * k**2 // 4
        assert len(net.links) == 3 * k**3 // 4
        start = next(iter(net.adjacency))
        assert len(net.hop_distances_from(start)) == len(net.adjacency)
        assert validate_substrate(net) == []

    @pytest.mark.parametrize("k", [3, 0, -2, 1])
    def test_bad_arity_rejected(self, k):
        with pytest.raises(InvalidParameterError):
            build_fat_tree(k)

    def test_every_server_has_one_edge_switch(self):
        net = build_fat_tree(4)
        for sid in net.servers:
            assert net.edge_switch_of(sid) is not None

    def test_deterministic_construction(self):
        assert dump_substrate(build_fat_tree(4)) == dump_substrate(build_fat_tree(4))


class TestSwitchesByHopSum:
    """The walk order of greedy's vSwitches without a VM group against
    sorting every switch by (summed hops, id) afresh."""

    @pytest.mark.parametrize("k", [4, 6])
    @pytest.mark.parametrize("n_hosts", [0, 1, 2, 3])
    def test_equals_every_switch_sorted_by_hop_sum_then_id(self, k, n_hosts):
        net = build_fat_tree(k)
        rng = random.Random(k * 10 + n_hosts)
        switches = sorted(net.switches)
        # repeated draws read the kept orders and hop columns again
        for _ in range(6):
            hosts = rng.sample(switches, n_hosts)
            expected = sorted(
                (sum(net.hop_distance(h, s) for h in hosts), s) for s in net.switches
            )
            assert list(net.switches_by_hop_sum(hosts)) == expected


class TestValidateSubstrate:
    def test_doubly_homed_server_flagged(self):
        servers = {"s0": Server("s0", ResourceVector(cpu_cores=8, memory_mb=16384))}
        switches = {
            "e0": Switch("e0", "edge", ResourceVector(switch_memory=100)),
            "e1": Switch("e1", "edge", ResourceVector(switch_memory=100)),
        }
        links = {
            "l0": Link("l0", "e0", "s0", 1000, 1),
            "l1": Link("l1", "e1", "s0", 1000, 1),
            "l2": Link("l2", "e0", "e1", 1000, 1),
        }
        net = SubstrateNetwork(servers=servers, switches=switches, links=links)
        findings = validate_substrate(net)
        assert [f.rule for f in findings] == ["server-edge-adjacency"]
        assert net.edge_switch_of("s0") is None

    def test_zero_bandwidth_link_flagged(self):
        net = build_fat_tree(2)
        lid = next(iter(net.links))
        bad = dict(net.links)
        bad[lid] = Link(lid, net.links[lid].a, net.links[lid].b, 0, 1)
        net2 = SubstrateNetwork(servers=net.servers, switches=net.switches, links=bad, k_arity=2)
        findings = validate_substrate(net2)
        assert [f.rule for f in findings] == ["link-bandwidth-positive"]

    def test_link_to_undeclared_node_rejected(self):
        switches = {"e0": Switch("e0", "edge", ResourceVector(switch_memory=100))}
        links = {"l0": Link("l0", "e0", "s9", 1000, 1)}
        with pytest.raises(InvalidParameterError, match="undeclared node 's9'"):
            SubstrateNetwork(servers={}, switches=switches, links=links)

    def test_disconnected_flagged(self):
        switches = {
            "e0": Switch("e0", "edge", ResourceVector(switch_memory=100)),
            "e1": Switch("e1", "edge", ResourceVector(switch_memory=100)),
        }
        net = SubstrateNetwork(servers={}, switches=switches, links={})
        assert any(f.rule == "connectivity" for f in validate_substrate(net))


def with_parts(req, vswitches=(), vlinks=()):
    """req plus extra vSwitches and vlinks."""
    return replace(
        req,
        vswitches={**req.vswitches, **{vs.id: vs for vs in vswitches}},
        vlinks={**req.vlinks, **{vl.id: vl for vl in vlinks}},
    )


def vswitch(vs_id, is_edge):
    return VSwitch(vs_id, is_edge, ResourceVector(switch_memory=10))


# one small request per finding: (request builder, every finding as (rule, element))
REQUEST_FINDINGS = {
    "duration-positive": (
        lambda: replace(star_request("r0"), duration=0.0),
        [("duration-positive", "r0")],
    ),
    "vm-demand-positive": (
        lambda: star_request("r0", cores=0),
        [("vm-demand-positive", "vm0")],
    ),
    "vswitch-demand-positive": (
        lambda: star_request("r0", vswitch_mem=0),
        [("vswitch-demand-positive", "vs0")],
    ),
    "vlink-demand-positive": (
        lambda: star_request("r0", vlink_bw=0),
        [("vlink-demand-positive", "vl0")],
    ),
    # the unknown end adds no node, so the extra vlink also breaks the tree shape
    "vlink-endpoint-unknown": (
        lambda: with_parts(star_request("r0"), vlinks=[VLink("vl1", "vs0", "ghost", 10)]),
        [("vlink-endpoint-unknown", "vl1"), ("request-tree-shape", "r0")],
    ),
    # vm0 bridges two edge vSwitches: connected and a tree, but degree 2
    "vm-degree": (
        lambda: with_parts(
            star_request("r0"),
            vswitches=[vswitch("vs1", True)],
            vlinks=[VLink("vl1", "vm0", "vs1", 10)],
        ),
        [("vm-degree", "vm0")],
    ),
    # n - 1 vlinks, but vs1 and vs2 only reach each other
    "request-connectivity": (
        lambda: with_parts(
            star_request("r0"),
            vswitches=[vswitch("vs1", False), vswitch("vs2", False)],
            vlinks=[VLink("vl1", "vs1", "vs2", 10), VLink("vl2", "vs2", "vs1", 10)],
        ),
        [("request-connectivity", "r0")],
    ),
    "request-tree-shape": (
        lambda: with_parts(chain_request("r0"), vlinks=[VLink("vl9", "vs0", "vs1", 10)]),
        [("request-tree-shape", "r0")],
    ),
    "locality-empty": (
        lambda: star_request("r0", locality={"vm0": frozenset()}),
        [("locality-empty", "vm0")],
    ),
    "locality-unknown-vm": (
        lambda: star_request("r0", locality={"ghost": frozenset({"s0"})}),
        [("locality-unknown-vm", "ghost")],
    ),
    "locality-unknown-server": (
        lambda: star_request("r0", locality={"vm0": frozenset({"s0", "nosuch"})}),
        [("locality-unknown-server", "vm0")],
    ),
}


class TestValidateRequest:
    def test_well_formed_requests_pass(self, k2_net):
        for req in (star_request("r0", n_vms=2), chain_request("r1", n_vswitches=3)):
            assert validate_request(req, k2_net) == []

    @pytest.mark.parametrize("rule", list(REQUEST_FINDINGS))
    def test_each_finding(self, rule, k2_net):
        build, expected = REQUEST_FINDINGS[rule]
        found = validate_request(build(), k2_net)
        assert [(f.rule, f.element) for f in found] == expected

    def test_vm_parent_of_a_vm_without_a_vlink_raises(self):
        req = star_request("r0", n_vms=2)
        req = replace(req, vlinks={v: vl for v, vl in req.vlinks.items() if vl.b != "vm1"})
        assert req.vm_parent("vm0") == "vs0"
        with pytest.raises(FormatError, match="request r0: vm vm1 has no attaching vlink"):
            req.vm_parent("vm1")


class TestGenerateRequest:
    def table2_cfg(self):
        return WorkloadConfig()

    def test_table2_ranges(self):
        cfg = self.table2_cfg()
        for seed in range(20):
            req = generate_vdc_request(cfg, 0.0, seed)
            assert 40 <= len(req.vms) <= 100
            assert 5 <= len(req.vswitches) <= 20
            for vm in req.vms.values():
                assert 1 <= vm.demand.cpu_cores <= 2
                assert 256 <= vm.demand.memory_mb <= 512
            for vs in req.vswitches.values():
                assert 10 <= vs.demand.switch_memory <= 25
            for vl in req.vlinks.values():
                assert 5 <= vl.bandwidth <= 200
            assert 10 <= req.duration <= 90
            assert validate_request(req) == []

    def test_degenerate_ranges_give_star(self):
        cfg = WorkloadConfig(
            vm_count=(1, 1),
            vm_cores=(1, 1),
            vm_memory_mb=(256, 256),
            vswitch_count=(1, 1),
            vswitch_memory=(10, 10),
            vlink_bandwidth=(5, 5),
            duration=(10, 10),
        )
        req = generate_vdc_request(cfg, 3.5, 7)
        assert len(req.vms) == 1
        assert len(req.vswitches) == 1
        assert len(req.vlinks) == 1
        vl = next(iter(req.vlinks.values()))
        assert {vl.a, vl.b} == {"vs0", "vm0"}

    def test_same_seed_identical(self):
        cfg = self.table2_cfg()
        a = generate_vdc_request(cfg, 1.0, 42)
        b = generate_vdc_request(cfg, 1.0, 42)
        assert dump_requests([a]) == dump_requests([b])

    def test_vms_attach_to_edge_vswitches_balanced(self):
        cfg = self.table2_cfg()
        for seed in range(10):
            req = generate_vdc_request(cfg, 0.0, seed)
            edge_ids = {vs.id for vs in req.vswitches.values() if vs.is_edge}
            group = {e: 0 for e in edge_ids}
            for vm_id in req.vms:
                parent = req.vm_parent(vm_id)
                assert parent in edge_ids
                group[parent] += 1
            sizes = sorted(group.values())
            assert sizes[-1] - sizes[0] <= 1


class TestWorkloadConfig:
    def test_parse_and_defaults(self):
        text = "vm_count=4:10\nvswitch_count = 2:4\narrival_rate=3\nhorizon=200\nseed=9\n"
        cfg = parse_workload_config(text)
        assert cfg.vm_count == (4, 10)
        assert cfg.vswitch_count == (2, 4)
        assert cfg.arrival_rate == 3.0
        assert cfg.vm_cores == (1, 2)  # untouched default

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_workload_config("vm_cunt=1:2\n")

    def test_bad_range_rejected(self):
        with pytest.raises(ConfigError):
            parse_workload_config("vm_count=10:4\n")
        with pytest.raises(ConfigError):
            parse_workload_config("arrival_rate=99\n")

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf", "-1"])
    def test_horizon_must_be_finite(self, value):
        with pytest.raises(ConfigError, match="horizon must be finite"):
            parse_workload_config(f"horizon={value}\n")

    def test_single_value_range(self):
        cfg = parse_workload_config("vm_count=6\n")
        assert cfg.vm_count == (6, 6)

    def test_bad_numbers_rejected(self):
        for text in ("horizon=soon\n", "seed=1.5\n", "vm_count=1:2:3\n", "vm_count=\n"):
            with pytest.raises(ConfigError):
                parse_workload_config(text)

    def test_readme_examples_parse(self):
        from vdcembed.scheduler import PolicyConfig, parse_policy_config

        workload = """\
vm_count=40:100
vm_cores=1:2
vm_memory_mb=256:512
vswitch_count=5:20
vswitch_memory=10:25
vlink_bandwidth=5:200
duration=10:90
arrival_rate=5        # requests per 100 time units, 0..10
horizon=1000
seed=0
"""
        policy = """\
f=2                   # switch-move penalty divisor (rational, e.g. 1/2)
swap_ceiling=8        # online repair budget cap
batch_width=8         # max requests per batch solve
patience=50           # pending requests expire after this many time units
batch_min_pending=2   # below this, hybrid handles singletons online
solver_node_limit=20000
solver_wall_ms=0      # 0 disables the wall clock safety valve
remap_limit=0         # actives a batch may re-place; 0 = all
vm_move_weighting=true
"""
        assert parse_workload_config(workload) == WorkloadConfig()
        assert parse_policy_config(policy) == PolicyConfig()

    def test_poisson_arrivals(self):
        cfg = WorkloadConfig(vm_count=(2, 4), vswitch_count=(2, 3), horizon=300)
        reqs = poisson_arrivals(cfg, 5, seed=7)
        assert reqs == poisson_arrivals(cfg, 5, seed=7)
        assert [r.id for r in reqs] == [f"r{i}" for i in range(len(reqs))]
        times = [r.arrival_time for r in reqs]
        assert times == sorted(times) and 0 < times[0] and times[-1] <= 300
        assert poisson_arrivals(cfg, 0, seed=7) == []


class TestTextFormats:
    def test_substrate_round_trip(self):
        net = build_fat_tree(4)
        text = dump_substrate(net)
        again = load_substrate(text)
        assert dump_substrate(again) == text
        assert again.k_arity == 4

    def test_requests_round_trip_with_options(self):
        cfg = WorkloadConfig()
        reqs = []
        for i in range(3):
            req = generate_vdc_request(cfg, float(i), i)
            object.__setattr__(req, "id", f"r{i}")
            reqs.append(req)
        pinned = reqs[0]
        object.__setattr__(pinned, "latency_bound", 3)
        object.__setattr__(pinned, "locality", {"vm0": frozenset({"s0", "s1"})})
        text = dump_requests(reqs)
        again = load_requests(text)
        assert dump_requests(again) == text
        assert again[0].latency_bound == 3
        assert again[0].locality == {"vm0": frozenset({"s0", "s1"})}

    def test_bad_header_rejected(self):
        with pytest.raises(FormatError):
            load_substrate("nonsense 1 2\n")
        with pytest.raises(FormatError):
            load_requests("requests 99\n")


class TestResourceVector:
    def test_componentwise_comparison_only(self):
        a = ResourceVector(cpu_cores=2, memory_mb=100)
        b = ResourceVector(cpu_cores=3, memory_mb=50)
        assert not a.le(b) and not b.le(a)  # incomparable, not lexicographic

    def test_overflow_clamps(self):
        load = ResourceVector(cpu_cores=4, memory_mb=100)
        limit = ResourceVector(cpu_cores=3, memory_mb=200)
        assert load.overflow_over(limit) == ResourceVector(cpu_cores=1)

    # (a, b, a + b, a - b, a.le(b), a.overflow_over(b)), the results the
    # vector gave as a frozen dataclass, negative components included
    CASES = [
        ((2, 100, 0, 0), (3, 50, 0, 0), (5, 150, 0, 0), (-1, 50, 0, 0), False, (0, 50, 0, 0)),
        ((-1, 0, 5, -7), (1, -2, 5, 3), (0, -2, 10, -4), (-2, 2, 0, -10), False, (0, 2, 0, 0)),
        ((0, 0, 0, 10), (0, 0, 0, 10), (0, 0, 0, 20), (0, 0, 0, 0), True, (0, 0, 0, 0)),
        ((0, 0, 0, 0), (4, 8, 1, 2), (4, 8, 1, 2), (-4, -8, -1, -2), True, (0, 0, 0, 0)),
        ((-3, -3, -3, -3), (-4, -2, -3, 0), (-7, -5, -6, -3), (1, -1, 0, -3), False, (1, 0, 0, 0)),
    ]

    @pytest.mark.parametrize("a, b, total, diff, le, overflow", CASES)
    def test_arithmetic_table(self, a, b, total, diff, le, overflow):
        va, vb = ResourceVector(*a), ResourceVector(*b)
        for result, expected in ((va + vb, total), (va - vb, diff), (va.overflow_over(vb), overflow)):
            assert type(result) is ResourceVector and result == ResourceVector(*expected)
        assert va.le(vb) is le
        assert va.nonnegative is all(x >= 0 for x in a)
        assert sum_vectors([va, vb]) == ResourceVector(*total)
        assert sum_vectors([va, vb, va]) == va + vb + va

    def test_empty_sum_is_zero(self):
        assert sum_vectors([]) == ResourceVector() and type(sum_vectors([])) is ResourceVector

    def test_repr_unchanged(self):
        # the overflow of a capacity finding prints through Violation.__str__
        v = Violation("server-capacity", "s0", False, overflow=ResourceVector(cpu_cores=1))
        text = "ResourceVector(cpu_cores=1, memory_mb=0, switch_memory=0, bandwidth=0)"
        assert repr(v.overflow) == text
        assert str(v) == f"[server-capacity] s0 over={text}"

    def test_equal_vectors_are_one_key(self):
        # up_counts keeps the distinct server capacities with dict.fromkeys
        a = ResourceVector(cpu_cores=8, memory_mb=16384)
        b = ResourceVector(8, 16384, 0, 0)
        assert a == b and hash(a) == hash(b) and a is not b
        assert list(dict.fromkeys([a, b, a + ResourceVector()])) == [a]
        assert {a: "x"}[b] == "x"
        assert a != ResourceVector(cpu_cores=8)
        assert a == (8, 16384, 0, 0)  # a named tuple equals its plain tuple

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_no_total_order(self, op):
        a, b = ResourceVector(cpu_cores=1), ResourceVector(memory_mb=1)
        for left, right in ((a, b), (a, a), (a, (0, 0, 0, 0)), ((0, 0, 0, 0), a)):
            with pytest.raises(TypeError):
                op(left, right)
