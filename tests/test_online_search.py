"""Online embedder: greedy mapping, swap repair, and the composed attempt."""

import hashlib
import random
from collections import Counter
from dataclasses import replace

import pytest

from conftest import chain_request, make_rack_net, star_request, vm_first
from oracles import greedy_full_scan
from vdcembed.batch_solver import build_mip, solve_exact
from vdcembed.online_search import (
    OnlineResult,
    RepairFailure,
    StructuralFailure,
    SwapMove,
    TempMapping,
    compute_fragments,
    greedy_temp_map,
    plan_batch,
    swap_repair,
    try_online_embed,
)
from vdcembed.paths import enumerate_paths
from vdcembed.state import Assignment, EmbeddingState
from vdcembed.topology import (
    Link,
    ResourceVector,
    SubstrateNetwork,
    VdcRequest,
    VLink,
    Vm,
    VSwitch,
    WorkloadConfig,
    build_fat_tree,
    generate_vdc_request,
)


def fresh_state(net):
    return EmbeddingState(net, enumerate_paths(net))


def apply_online(state, req, result):
    for rid, update in result.incumbent_updates.items():
        req_obj = state.requests[rid]
        state.release(rid)
        state.commit(req_obj, update)
    state.commit(req, result.assignment)


class TestGreedy:
    def test_clean_when_fits(self, k4_state):
        req = star_request("r0", n_vms=3, cores=2)
        temp = greedy_temp_map(k4_state, req)
        assert isinstance(temp, TempMapping)
        assert temp.clean
        assert k4_state.check_assignment(req, temp.assignment) == []

    def test_overflow_quantified(self):
        net = make_rack_net(n_servers=1, cores=8)
        state = fresh_state(net)
        req = star_request("r0", n_vms=1, cores=9)
        temp = greedy_temp_map(state, req)
        assert isinstance(temp, TempMapping)
        assert len(temp.ledger) == 1
        assert temp.ledger[0].overflow == ResourceVector(cpu_cores=1)

    def test_deterministic(self, k4_state):
        req = chain_request("r0", n_vswitches=3, vms_per_switch=2)
        t1 = greedy_temp_map(k4_state, req)
        t2 = greedy_temp_map(k4_state, req)
        assert t1.assignment == t2.assignment
        assert t1.ledger == t2.ledger

    def test_structural_failure_when_no_rack(self, k2_state):
        # three edge vswitch groups but only two edge switches on k=2
        req = chain_request("r0", n_vswitches=3, vms_per_switch=1)
        vsw = dict(req.vswitches)
        from vdcembed.topology import VSwitch

        vsw["vs1"] = VSwitch("vs1", True, vsw["vs1"].demand)
        object.__setattr__(req, "vswitches", vsw)
        # force a vm onto vs1 so three racks are needed
        from vdcembed.topology import VLink, Vm

        vms = dict(req.vms)
        vms["vm9"] = Vm("vm9", ResourceVector(cpu_cores=1, memory_mb=256))
        vlinks = dict(req.vlinks)
        vlinks["vl9"] = VLink("vl9", "vs1", "vm9", 5)
        object.__setattr__(req, "vms", vms)
        object.__setattr__(req, "vlinks", vlinks)
        out = greedy_temp_map(k2_state, req)
        assert isinstance(out, StructuralFailure)

    def test_respects_locality_and_latency(self, k4_state):
        req = star_request("r0", n_vms=2, locality={"vm0": frozenset({"s5"})})
        temp = greedy_temp_map(k4_state, req)
        assert isinstance(temp, TempMapping)
        assert temp.assignment.vm_map["vm0"] == "s5"

        tight = chain_request("r1", n_vswitches=2, vms_per_switch=1, latency_bound=2)
        temp2 = greedy_temp_map(k4_state, tight)
        assert isinstance(temp2, TempMapping)
        for key in temp2.assignment.vlink_map.values():
            _, _, delay = k4_state.table.path(*key)
            assert delay <= 2


    def test_avoids_a_server_whose_uplink_is_down(self, k4_state):
        k4_state.mark_down(["l2"])  # e0_0 - s0
        temp = greedy_temp_map(k4_state, star_request("r0"))
        assert isinstance(temp, TempMapping) and temp.clean
        assert temp.assignment.vm_map["vm0"] != "s0"
        assert k4_state.check_assignment(star_request("r0"), temp.assignment) == []

    def test_groupless_edge_vswitch_goes_next_to_its_neighbour(self, k4_state):
        # pod 0's servers are full, so vm0's group takes e1_0, the first rack
        # by free share; vs0 has no VMs and takes the nearest free edge switch
        for sid in ("s0", "s1", "s2", "s3"):
            k4_state.residual[sid] = ResourceVector()
        req = VdcRequest(
            id="r0",
            vms={"vm0": Vm("vm0", ResourceVector(cpu_cores=1, memory_mb=256))},
            vswitches={
                vs: VSwitch(vs, True, ResourceVector(switch_memory=10)) for vs in ("vs0", "vs1")
            },
            vlinks={"vl0": VLink("vl0", "vs0", "vs1", 10), "vl1": VLink("vl1", "vs1", "vm0", 10)},
            arrival_time=0.0,
            duration=10.0,
        )
        temp = greedy_temp_map(k4_state, req)
        assert isinstance(temp, TempMapping) and temp.clean
        a = temp.assignment
        assert (a.vswitch_map, a.vm_map) == ({"vs1": "e1_0", "vs0": "e1_1"}, {"vm0": "s4"})
        _, edges, _ = k4_state.table.path(*a.vlink_map["vl0"])
        assert len(edges) == 2

    def test_groupless_vswitch_without_a_placed_neighbour_takes_least_id_with_room(
        self, k4_state, scored_switches
    ):
        # vs1 comes before vs2, its one neighbour, so every hop sum would be
        # 0; a0_0 is the least switch id but short of memory
        k4_state.residual["a0_0"] = ResourceVector(switch_memory=5)
        internal = {
            vs: VSwitch(vs, False, ResourceVector(switch_memory=10)) for vs in ("vs1", "vs2")
        }
        req = VdcRequest(
            id="r0",
            vms={"vm0": Vm("vm0", ResourceVector(cpu_cores=1, memory_mb=256))},
            vswitches={"vs0": VSwitch("vs0", True, ResourceVector(switch_memory=10)), **internal},
            vlinks={
                "vl0": VLink("vl0", "vs0", "vm0", 10),
                "vl1": VLink("vl1", "vs0", "vs2", 10),
                "vl2": VLink("vl2", "vs2", "vs1", 10),
            },
            arrival_time=0.0,
            duration=10.0,
        )
        temp = greedy_temp_map(k4_state, req)
        assert isinstance(temp, TempMapping) and temp.clean
        assert temp.assignment.vswitch_map["vs1"] == "a0_1"
        # vs1's scan goes by id and stops at the first switch with room: no
        # switch after a0_1 is scored for it
        assert [sid for placed, sid in scored_switches if not placed] == ["a0_0", "a0_1"]
        assert (2, temp.assignment.vswitch_map["vs2"]) in scored_switches

    @staticmethod
    def one_vm_request(vswitches, vlinks):
        """Request r0: VM vm0 and the given vSwitches (id -> is_edge) and
        vlinks (id -> (a, b)), every vSwitch asking 10 memory."""
        return VdcRequest(
            id="r0",
            vms={"vm0": Vm("vm0", ResourceVector(cpu_cores=1, memory_mb=256))},
            vswitches={
                vs: VSwitch(vs, edge, ResourceVector(switch_memory=10))
                for vs, edge in vswitches.items()
            },
            vlinks={vl: VLink(vl, a, b, 10) for vl, (a, b) in vlinks.items()},
            arrival_time=0.0,
            duration=10.0,
        )

    def test_no_edge_switch_left_for_a_groupless_edge_vswitch(self, k4_state):
        # vm0's group takes e0_0, the one edge switch up, so vs1 finds none
        k4_state.mark_down([s for s in k4_state.net.switches if s[0] == "e" and s != "e0_0"])
        req = self.one_vm_request(
            {"vs0": True, "vs1": True}, {"vl0": ("vs0", "vm0"), "vl1": ("vs0", "vs1")}
        )
        assert greedy_temp_map(k4_state, req) == StructuralFailure("no switch left for vs1")

    def test_a_vm_with_two_vswitches_is_an_unexpected_structural_finding(self, k4_state):
        # validate_request refuses a VM of degree 2; greedy gives both of its
        # vlinks the one uplink key, which cannot join vs1's switch
        req = self.one_vm_request(
            {"vs0": True, "vs1": False}, {"vl0": ("vs0", "vm0"), "vl1": ("vs1", "vm0")}
        )
        out = greedy_temp_map(k4_state, req)
        assert isinstance(out, StructuralFailure)
        assert out.reason.startswith("unexpected structural finding: [endpoint-mismatch] vl1")

    def test_a_fragment_ranks_a_rack_by_the_servers_it_holds(self, k4_state):
        # every server has 3/4 free, so each rack's share is 3, but e1_0's
        # are all free; s4's uplink has none, so the fragment of e1_0 holds
        # s5 alone, a share of 2: e1_0 ranks first on the whole substrate,
        # last inside that fragment
        for sid in k4_state.net.servers:
            if sid not in ("s4", "s5"):
                k4_state.residual[sid] = ResourceVector(cpu_cores=6, memory_mb=12288)
        k4_state.residual["l14"] = ResourceVector()
        nodes, links, _ = next(f for f in compute_fragments(k4_state) if "e1_0" in f[0])
        assert "s4" not in nodes
        whole = greedy_temp_map(k4_state, star_request("r0"))
        assert (whole.assignment.vswitch_map, whole.assignment.vm_map) == (
            {"vs0": "e1_0"}, {"vm0": "s5"}
        )
        inside = greedy_temp_map(k4_state, star_request("r0"), allowed=(nodes, links))
        assert inside.clean and inside.assignment.vswitch_map == {"vs0": "e0_0"}

    def test_skips_the_largest_share_rack_short_of_switch_memory(
        self, k4_state, scored_server_pairs
    ):
        # free share order: e2_0, then e3_1, then the rest; e2_0 cannot hold vs0
        for sid in k4_state.net.servers:
            if sid not in ("s8", "s9", "s14", "s15"):
                k4_state.residual[sid] -= ResourceVector(cpu_cores=2)
        k4_state.residual["s14"] -= ResourceVector(cpu_cores=1)
        k4_state.residual["e2_0"] = ResourceVector(switch_memory=5)
        temp = greedy_temp_map(k4_state, star_request("r0", vswitch_mem=10))
        assert isinstance(temp, TempMapping) and temp.clean
        assert temp.assignment.vswitch_map["vs0"] == "e3_1"
        # one VM on the two servers of e2_0 and of e3_1, then stop
        assert len(scored_server_pairs) == 4

    def test_cheapest_rack_when_every_rack_overflows(self, k4_state):
        # equal free shares, so e0_0 is scanned first; e3_1 overflows least
        for rack in k4_state.net.switches:
            if k4_state.net.switches[rack].tier == "edge":
                k4_state.residual[rack] = ResourceVector(switch_memory=10)
        k4_state.residual["e3_1"] = ResourceVector(switch_memory=40)
        temp = greedy_temp_map(k4_state, star_request("r0", vswitch_mem=50))
        assert isinstance(temp, TempMapping)
        assert temp.assignment.vswitch_map["vs0"] == "e3_1"
        assert [(v.element, v.overflow) for v in temp.ledger] == [
            ("e3_1", ResourceVector(switch_memory=10))
        ]

    def _cross_pod_pair(self, state):
        # with e0_1 down, vs0 takes e0_0 and vs1 takes e1_0; their four paths
        # run over l8, l9, l10 and l11 in turn
        state.mark_down(["e0_1"])
        temp = greedy_temp_map(state, chain_request("r0", vlink_bw=10))
        assert isinstance(temp, TempMapping)
        assert temp.assignment.vswitch_map == {"vs0": "e0_0", "vs1": "e1_0"}
        return temp

    def test_vlink_takes_first_path_with_no_overflow(self, k4_state):
        k4_state.residual["l8"] = ResourceVector(bandwidth=5)
        temp = self._cross_pod_pair(k4_state)
        assert temp.clean
        assert temp.assignment.vlink_map["vl0"] == ("e0_0", "e1_0", 1)

    def test_vlink_takes_least_overflowing_path(self, k4_state):
        for lid, free in (("l8", 0), ("l9", 0), ("l10", 5), ("l11", 0)):
            k4_state.residual[lid] = ResourceVector(bandwidth=free)
        temp = self._cross_pod_pair(k4_state)
        assert temp.assignment.vlink_map["vl0"] == ("e0_0", "e1_0", 2)
        assert [(v.element, v.overflow) for v in temp.ledger] == [
            ("l10", ResourceVector(bandwidth=5))
        ]


class TestGreedyMatchesFullScan:
    """greedy_temp_map reads racks, server shares and hop orders the state
    and the substrate cache; the full-scan oracle derives them again on
    every call. Both must agree on random tight states."""

    @staticmethod
    def substrate(k, rng):
        """A tight k-ary fat tree whose uplinks take 1-3 time units, so
        latency bounds cut some of them, and whose server s0 also hangs off
        its pod's second edge switch, so it has no single edge switch."""
        base = build_fat_tree(
            k, server_capacity=ResourceVector(cpu_cores=8, memory_mb=4000), switch_memory=30
        )
        links = {
            lid: replace(link, delay=rng.choice([1, 1, 2, 3])) if link.b in base.servers else link
            for lid, link in base.links.items()
        }
        links["l-dual"] = Link("l-dual", "e0_1", "s0", 1000, 1)
        return SubstrateNetwork(dict(base.servers), dict(base.switches), links)

    @staticmethod
    def cut_racks(state, req, allowed):
        """(racks the fragment cuts, racks the latency bound cuts) among the
        state's racks that keep a server, whose shares greedy sums afresh."""
        nodes = allowed[0] if allowed else None
        bound = req.latency_bound
        by_fragment = by_bound = 0
        for rack, servers, ids in state.racks():
            if nodes is not None:
                if rack not in nodes:
                    continue
                if not ids <= nodes:
                    servers = [e for e in servers if e.server in nodes]
                    by_fragment += bool(servers)
            if bound is not None and any(e.delay > bound for e in servers):
                by_bound += any(e.delay <= bound for e in servers)
        return by_fragment, by_bound

    @classmethod
    def compare(cls, state, req, seen):
        """Both greedy versions on the whole substrate and on the first two
        fragments; returns the first mapping."""
        groupless = set(req.vswitches) - {req.vm_parent(vm) for vm in req.vms}
        outputs = []
        for allowed in [None] + [(n, l) for n, l, _ in compute_fragments(state)[:2]]:
            by_fragment, by_bound = cls.cut_racks(state, req, allowed)
            seen["rack-cut-by-fragment"] += by_fragment
            seen["rack-cut-by-latency-bound"] += by_bound
            out = greedy_temp_map(state, req, allowed)
            assert repr(out) == repr(greedy_full_scan(state, req, allowed))
            outputs.append(out)
            if isinstance(out, StructuralFailure):
                seen["structural"] += 1
                continue
            seen["overflow" if out.ledger else "clean"] += 1
            on_groupless = {out.assignment.vswitch_map[vs] for vs in groupless}
            # a groupless vSwitch overflows its switch only when none has room
            seen["no-switch-with-room"] += any(v.element in on_groupless for v in out.ledger)
        return outputs[0]

    @staticmethod
    def used_by(state, req, out, rng, elements):
        """An element a mapping uses (a VM's server or uplink, a vSwitch's
        switch), so its failure changes what greedy sees; else any."""
        if not isinstance(out, TempMapping):
            return rng.choice(elements)
        a = out.assignment
        uplinks = [state.table.path(*a.vlink_map[vl.id])[1][0] for vl in req.uplinks.values()]
        return rng.choice([*a.vm_map.values(), *a.vswitch_map.values(), *uplinks])

    @pytest.mark.parametrize("k", [4, 6])
    def test_same_mapping_as_the_full_scan(self, k):
        rng = random.Random(k)
        net = self.substrate(k, rng)
        table = enumerate_paths(net)
        servers = sorted(net.servers)
        elements = servers + sorted(net.switches) + sorted(net.links)
        cfg = WorkloadConfig(vm_count=(2, 12), vswitch_count=(2, 8), vswitch_memory=(16, 30))
        seen = Counter()
        for _ in range(5):
            state = EmbeddingState(net, table)
            assert all(e[0] != "s0" for _, rack, _ in state.racks() for e in rack)
            for i in range(14):
                req = generate_vdc_request(cfg, 0.0, rng.randrange(10**9))
                locality = {
                    vm: frozenset(rng.sample(servers, 4)) for vm in req.vms if rng.random() < 0.2
                }
                req = replace(
                    req, id=f"r{i}", latency_bound=rng.choice([None, None, 2, 3, 4]),
                    locality=locality or None,
                )
                if i % 4 >= 2:
                    req = vm_first(req)
                # every third call plans on a copy, which shares the caches
                probe = state.copy() if i % 3 == 1 else state
                out = self.compare(probe, req, seen)
                if i % 2:
                    # a failure between calls; on a copy it must not reach the state
                    probe.mark_down([self.used_by(probe, req, out, rng, elements)])
                    self.compare(probe, req, seen)
                    if probe is not state:
                        self.compare(state, req, seen)
                result = try_online_embed(state, req)
                if isinstance(result, OnlineResult):
                    apply_online(state, req, result)
        # a server with no free core leaves its rack up but outside every
        # fragment, so inside one greedy sums that rack's share afresh
        state = EmbeddingState(net, table)
        rack, servers, _ = state.racks()[1]
        full, host = star_request("full", cores=8), servers[0].server
        state.commit(
            full, Assignment("full", {"vm0": host}, {"vs0": rack}, {"vl0": (rack, host, 0)})
        )
        for i in range(3):
            req = replace(generate_vdc_request(cfg, 0.0, rng.randrange(10**9)), id=f"f{i}")
            self.compare(state, req, seen)
        cases = ("clean", "overflow", "structural", "no-switch-with-room")
        for case in cases + ("rack-cut-by-fragment", "rack-cut-by-latency-bound"):
            assert seen[case], case


class TestSwapRepair:
    def test_clean_temp_returned_unchanged(self, k4_state):
        req = star_request("r0")
        temp = greedy_temp_map(k4_state, req)
        result = swap_repair(k4_state, req, temp, max_swaps=4)
        assert isinstance(result, OnlineResult)
        assert result.assignment == temp.assignment
        assert result.moves == ()

    def test_two_server_swap_scenario(self):
        # A hosts an incumbent 4-core vm with 4 free; B has 6 free.
        # The incoming 6-core vm is mapped on A; moving the incumbent to B clears it.
        net = make_rack_net(n_servers=2, cores=8)
        state = fresh_state(net)
        incumbent = star_request("inc", n_vms=1, cores=4)
        state.commit(
            incumbent,
            Assignment("inc", {"vm0": "s0"}, {"vs0": "e0"}, {"vl0": ("e0", "s0", 0)}),
        )
        filler = star_request("fill", n_vms=1, cores=2)
        state.commit(
            filler,
            Assignment("fill", {"vm0": "s1"}, {"vs0": "e0"}, {"vl0": ("e0", "s1", 0)}),
        )
        incoming = star_request("new", n_vms=1, cores=6, vswitch_mem=10)
        temp_assignment = Assignment(
            "new", {"vm0": "s0"}, {"vs0": "e0"}, {"vl0": ("e0", "s0", 0)}
        )
        ledger = tuple(
            v
            for v in state.check_assignment(incoming, temp_assignment)
            if not v.structural
        )
        temp = TempMapping(temp_assignment, ledger)
        assert len(ledger) == 1
        result = swap_repair(state, incoming, temp, max_swaps=2)
        assert isinstance(result, OnlineResult)
        assert len(result.moves) == 1
        move = result.moves[0]
        assert move.kind == "vm-swap"
        assert (move.old_host, move.new_host) == ("s0", "s1")
        assert result.incumbent_updates["inc"].vm_map["vm0"] == "s1"

    def test_incumbent_on_failed_link_restored_when_its_move_is_refused(self, k4_net, k4_table):
        # the incumbent's vSwitch-vSwitch vlink crosses a link that fails while
        # it is still active; moving its VM keeps that vlink, so the move is
        # refused and the old placement, failed link included, is put back
        state = EmbeddingState(k4_net, k4_table)
        inc = VdcRequest(
            "inc",
            vms={"vm0": Vm("vm0", ResourceVector(cpu_cores=4, memory_mb=256))},
            vswitches={
                "vs0": VSwitch("vs0", True, ResourceVector(switch_memory=10)),
                "vs1": VSwitch("vs1", False, ResourceVector(switch_memory=10)),
            },
            vlinks={"vl0": VLink("vl0", "vs0", "vs1", 10), "vl1": VLink("vl1", "vs0", "vm0", 10)},
            arrival_time=0.0,
            duration=10.0,
        )
        recs = k4_table.get("e0_0", "a0_0")
        hop = next(n for n, (_, edges, _) in enumerate(recs) if len(edges) == 1)
        state.commit(
            inc,
            Assignment(
                "inc",
                {"vm0": "s0"},
                {"vs0": "e0_0", "vs1": "a0_0"},
                {"vl0": ("e0_0", "a0_0", hop), "vl1": ("e0_0", "s0", 0)},
            ),
        )
        state.mark_down([k4_net.link_between("e0_0", "a0_0")])
        before = (dict(state.active), dict(state.residual))
        # pinned to s0, so the incoming VM cannot leave the overflow itself
        incoming = star_request("new", cores=6, locality={"vm0": frozenset({"s0"})})
        a = Assignment("new", {"vm0": "s0"}, {"vs0": "e0_0"}, {"vl0": ("e0_0", "s0", 0)})
        temp = TempMapping(a, tuple(state.check_assignment(incoming, a)))
        result = swap_repair(state, incoming, temp, max_swaps=2)
        assert isinstance(result, RepairFailure)
        assert (state.active, state.residual) == before

    def test_server_overflow_moves_the_incoming_vm_when_no_incumbent_can_move(self):
        # the incumbent is pinned to s0 by its locality, so the incoming VM
        # moves to s1 and its uplink follows it
        net = make_rack_net(n_servers=2, cores=8)
        state = fresh_state(net)
        incumbent = star_request("inc", cores=4, locality={"vm0": frozenset({"s0"})})
        state.commit(
            incumbent,
            Assignment("inc", {"vm0": "s0"}, {"vs0": "e0"}, {"vl0": ("e0", "s0", 0)}),
        )
        incoming = star_request("new", cores=6)
        a = Assignment("new", {"vm0": "s0"}, {"vs0": "e0"}, {"vl0": ("e0", "s0", 0)})
        temp = TempMapping(a, tuple(state.check_assignment(incoming, a)))
        assert [v.element for v in temp.ledger] == ["s0"]
        result = swap_repair(state, incoming, temp, max_swaps=2)
        assert isinstance(result, OnlineResult)
        assert result.moves == (SwapMove("vm-swap", "new", "vm0", "s0", "s1"),)
        assert result.incumbent_updates == {}
        assert result.assignment == Assignment(
            "new", {"vm0": "s1"}, {"vs0": "e0"}, {"vl0": ("e0", "s1", 0)}
        )
        apply_online(state, incoming, result)
        state.audit()

    def test_switch_overflow_moves_largest_partial_relief_first(self, k4_net, k4_table):
        # neither incumbent vSwitch alone clears the 40-unit overflow on a0_0,
        # so the larger one moves first, as for servers and links
        state = EmbeddingState(k4_net, k4_table)

        def internal(rid, mem):
            vsw = {"vs0": VSwitch("vs0", False, ResourceVector(switch_memory=mem))}
            return VdcRequest(rid, {}, vsw, {}, 0.0, 10.0)

        for rid, mem in (("small", 20), ("big", 30)):
            state.commit(internal(rid, mem), Assignment(rid, {}, {"vs0": "a0_0"}, {}))
        incoming = internal("new", 90)
        a = Assignment("new", {}, {"vs0": "a0_0"}, {})
        temp = TempMapping(a, tuple(state.check_assignment(incoming, a)))
        result = swap_repair(state, incoming, temp, max_swaps=2)
        assert isinstance(result, OnlineResult)
        assert [(m.kind, m.moved_request) for m in result.moves] == [
            ("vswitch-swap", "big"),
            ("vswitch-swap", "small"),
        ]

    @staticmethod
    def one_vlink(rid, to="e1_0", latency_bound=None):
        """A request with no VMs: vs0 on e0_0 and vs1 on `to`, joined by a
        600-wide vlink on the first e0_0->to path."""
        mem = ResourceVector(switch_memory=10)
        req = VdcRequest(
            rid,
            vms={},
            vswitches={"vs0": VSwitch("vs0", True, mem), "vs1": VSwitch("vs1", to[0] == "e", mem)},
            vlinks={"vl0": VLink("vl0", "vs0", "vs1", 600)},
            arrival_time=0.0,
            duration=10.0,
            latency_bound=latency_bound,
        )
        return req, Assignment(rid, {}, {"vs0": "e0_0", "vs1": to}, {"vl0": ("e0_0", to, 0)})

    def test_link_overflow_reroutes_an_incumbent_vlink(self, k4_net, k4_table):
        # both vlinks take path 0 over the 1000-wide agg-edge links l0 and
        # l12; the incumbent's moves to path 2, the first that skips l0
        state = EmbeddingState(k4_net, k4_table)
        state.commit(*self.one_vlink("inc"))
        incoming, a = self.one_vlink("new")
        temp = TempMapping(a, tuple(state.check_assignment(incoming, a)))
        assert [v.element for v in temp.ledger] == ["l0", "l12"]
        result = swap_repair(state, incoming, temp, max_swaps=2)
        assert isinstance(result, OnlineResult)
        assert result.moves == (SwapMove("vlink-reroute", "inc", "vl0", "l0", "l0"),)
        assert result.assignment == a
        assert result.incumbent_updates["inc"].vlink_map == {"vl0": ("e0_0", "e1_0", 2)}
        apply_online(state, incoming, result)
        state.audit()

    def test_link_overflow_reroutes_the_incoming_vlink(self, k4_net, k4_table):
        # the incumbent's vlink has one path within its latency bound, so the
        # incoming request's own vlink leaves the congested link instead
        state = EmbeddingState(k4_net, k4_table)
        state.commit(*self.one_vlink("inc", to="a0_0", latency_bound=1))
        incoming, a = self.one_vlink("new")
        temp = TempMapping(a, tuple(state.check_assignment(incoming, a)))
        assert [v.element for v in temp.ledger] == ["l0"]
        result = swap_repair(state, incoming, temp, max_swaps=2)
        assert isinstance(result, OnlineResult)
        assert result.moves == (SwapMove("vlink-reroute", "new", "vl0", "l0", "l0"),)
        assert result.incumbent_updates == {}
        assert result.assignment.vlink_map == {"vl0": ("e0_0", "e1_0", 2)}
        apply_online(state, incoming, result)
        state.audit()

    @pytest.mark.parametrize("core_bw, vl1_path", [(10000, 0), (600, 1)])
    def test_switch_overflow_reroutes_both_vlinks_of_a_moved_vswitch(self, core_bw, vl1_path):
        # vs1 moves from a0_0 to c0_0 and both its vlinks follow it; both
        # shortest paths cross the core-agg link l8, which holds one 400 vlink
        # when thin, so there the second vlink takes its next path
        net = build_fat_tree(4, bandwidth_profile=(core_bw, 1000, 1000))
        state = EmbeddingState(net, enumerate_paths(net))
        mem = ResourceVector(switch_memory=30)
        inc = VdcRequest(
            "inc",
            vms={},
            vswitches={
                "vs0": VSwitch("vs0", True, mem),
                "vs1": VSwitch("vs1", False, mem),
                "vs2": VSwitch("vs2", True, mem),
            },
            vlinks={"vl0": VLink("vl0", "vs0", "vs1", 400), "vl1": VLink("vl1", "vs1", "vs2", 400)},
            arrival_time=0.0,
            duration=10.0,
        )
        state.commit(
            inc,
            Assignment(
                "inc",
                {},
                {"vs0": "e0_0", "vs1": "a0_0", "vs2": "e0_1"},
                {"vl0": ("e0_0", "a0_0", 0), "vl1": ("a0_0", "e0_1", 0)},
            ),
        )
        vsw = {"vs0": VSwitch("vs0", False, ResourceVector(switch_memory=90))}
        incoming = VdcRequest("new", {}, vsw, {}, 0.0, 10.0)
        a = Assignment("new", {}, {"vs0": "a0_0"}, {})
        temp = TempMapping(a, tuple(state.check_assignment(incoming, a)))
        result = swap_repair(state, incoming, temp, max_swaps=2)
        assert isinstance(result, OnlineResult)
        assert result.moves == (SwapMove("vswitch-swap", "inc", "vs1", "a0_0", "c0_0"),)
        assert result.incumbent_updates["inc"].vlink_map == {
            "vl0": ("e0_0", "c0_0", 0),
            "vl1": ("c0_0", "e0_1", vl1_path),
        }
        apply_online(state, incoming, result)
        state.audit()

    @pytest.mark.parametrize("max_swaps", [0, 1, 2])
    def test_the_budget_bounds_the_moves(self, max_swaps):
        # two 2-core incumbents and an incoming 8-core VM on s0 of two
        # 8-core servers: each move relieves 2 of the 4 cores over, so
        # clearing them takes both incumbents off s0 to s1
        net = make_rack_net(n_servers=2, cores=8)
        state = fresh_state(net)
        for rid in ("inc1", "inc2"):
            req = star_request(rid, n_vms=1, cores=2)
            a = Assignment(rid, {"vm0": "s0"}, {"vs0": "e0"}, {"vl0": ("e0", "s0", 0)})
            state.commit(req, a)
        incoming = star_request("new", n_vms=1, cores=8)
        a = Assignment("new", {"vm0": "s0"}, {"vs0": "e0"}, {"vl0": ("e0", "s0", 0)})
        temp = TempMapping(a, tuple(state.check_assignment(incoming, a)))
        assert [v.rule for v in temp.ledger] == ["server-capacity"]
        before = dict(state.residual)
        result = swap_repair(state, incoming, temp, max_swaps=max_swaps)
        if max_swaps < 2:
            assert result == RepairFailure("swap budget exhausted")
        else:
            assert [(m.moved_request, m.new_host) for m in result.moves] == [
                ("inc1", "s1"), ("inc2", "s1")
            ]
        assert state.residual == before

    def test_a_structural_finding_fails_the_final_check(self, k4_state):
        # a caller's temp mapping that breaks the request's locality set and
        # overflows nothing: the repair loop has nothing to clear, and the
        # commit that ends it refuses the mapping
        req = star_request("r0", n_vms=2)
        temp = greedy_temp_map(k4_state, req)
        assert temp.clean and temp.assignment.vm_map["vm0"] == "s0"
        pinned = replace(req, locality={"vm0": frozenset({"s15"})})
        before = dict(k4_state.residual)
        result = swap_repair(k4_state, pinned, temp, max_swaps=4)
        assert result == RepairFailure(
            "final feasibility check failed: commit rejected: [locality] vm0 (on s0)"
        )
        assert k4_state.residual == before and not k4_state.active

    def test_dead_end_fails_within_budget(self):
        # single server, incumbent fills it, nowhere to move
        net = make_rack_net(n_servers=1, cores=8)
        state = fresh_state(net)
        incumbent = star_request("inc", n_vms=1, cores=8)
        state.commit(
            incumbent,
            Assignment("inc", {"vm0": "s0"}, {"vs0": "e0"}, {"vl0": ("e0", "s0", 0)}),
        )
        incoming = star_request("new", n_vms=1, cores=4, vswitch_mem=100)
        temp = greedy_temp_map(state, incoming)
        assert isinstance(temp, TempMapping) and not temp.clean
        result = swap_repair(state, incoming, temp, max_swaps=3)
        assert result == RepairFailure("no incumbent relocation clears the overflow")


class TestTryOnlineEmbed:
    def test_scaled_table2_requests_succeed_on_empty_k4(self, k4_net, k4_table):
        cfg = WorkloadConfig(vm_count=(1, 16), vswitch_count=(2, 4))
        for seed in range(15):
            state = EmbeddingState(k4_net, k4_table)
            req = generate_vdc_request(cfg, 0.0, seed)
            object.__setattr__(req, "id", f"r{seed}")
            result = try_online_embed(state, req)
            assert isinstance(result, OnlineResult), f"seed {seed}: {result}"
            assert result.moves == ()
            apply_online(state, req, result)
            state.audit()

    def test_saturated_substrate_fails(self):
        net = make_rack_net(n_servers=1, cores=2)
        state = fresh_state(net)
        req0 = star_request("r0", n_vms=1, cores=2)
        state.commit(
            req0, Assignment("r0", {"vm0": "s0"}, {"vs0": "e0"}, {"vl0": ("e0", "s0", 0)})
        )
        before = dict(state.residual)
        result = try_online_embed(state, star_request("r1", cores=1))
        assert not isinstance(result, OnlineResult)
        assert state.residual == before  # untouched on failure

    def test_moves_bounded_by_policy(self, k4_net, k4_table):
        rng = random.Random(4242)
        state = EmbeddingState(k4_net, k4_table)
        cfg = WorkloadConfig(vm_count=(2, 8), vswitch_count=(2, 3))
        placed = 0
        for i in range(60):
            req = generate_vdc_request(cfg, 0.0, rng.randrange(10**9))
            object.__setattr__(req, "id", f"r{i}")
            result = try_online_embed(state, req, swap_ceiling=3)
            if isinstance(result, OnlineResult):
                migrations = [m for m in result.moves if m.kind != "vlink-reroute"]
                assert len(migrations) <= 3
                apply_online(state, req, result)
                placed += 1
            if placed and placed % 7 == 0:
                victim = sorted(state.active)[placed % len(state.active)]
                state.release(victim)
            state.audit()
        assert placed > 10

    def test_online_succeeds_where_solver_proves_feasible_on_empty(self, k4_net, k4_table):
        cfg = WorkloadConfig(vm_count=(1, 12), vswitch_count=(2, 4))
        agree = 0
        for seed in range(12):
            req = generate_vdc_request(cfg, 0.0, 1000 + seed)
            object.__setattr__(req, "id", f"r{seed}")
            state = EmbeddingState(k4_net, k4_table)
            sol = solve_exact(build_mip(state, [req]))
            if sol.embedded[f"r{seed}"] is None:
                continue
            result = try_online_embed(state, req)
            assert isinstance(result, OnlineResult), f"seed {seed}: {result}"
            agree += 1
        assert agree >= 8


class TestPlanMemo:
    """plan_batch recalls a request's greedy result from the state's plan
    memo only for the very request object on equal residuals; mark_down
    drops the memo of the state it is called on."""

    @pytest.mark.parametrize("mode", ["batch-only", "hybrid"])
    def test_a_hit_is_what_greedy_gives_afresh(self, mode, sweep_runs):
        # the acceptance sweep's simulations: batch-only re-places the
        # remappables, the hybrid keeps them in place; each hit was compared
        # with a fresh greedy_temp_map on a copy of the state that recalled it
        hits = sweep_runs.hits[mode]
        for fresh, recalled, same_usage, kept in hits:
            assert fresh == recalled
            assert same_usage
            # the recalled check is kept as if just made
            assert kept
        # 1,896 hits in batch-only, 22 in the hybrid, counting the recalls
        # of live commits
        assert len(hits) >= (1000 if mode == "batch-only" else 1)

    def test_a_skipped_replay_is_the_round_trip(self, sweep_runs):
        # wherever a pass of the sweep skipped re-placing its remappables, a
        # copy that released and recalled them gives back the same state;
        # only batch-only re-places them
        replays = sweep_runs.replays
        assert len(replays["batch-only"]) >= 400  # 449
        assert all(mismatches == [] for mismatches in replays["batch-only"])
        assert replays["hybrid"] == replays["online-only"] == []

    @staticmethod
    def planned(k4_state):
        """k4_state with r0 active and r1 planned alone, so the memo's r1
        entry was made on the state's own residuals."""
        r0, r1 = star_request("r0", n_vms=3, cores=4), star_request("r1", n_vms=2, cores=4)
        k4_state.commit(r0, greedy_temp_map(k4_state, r0).assignment)
        plan = plan_batch(k4_state, [r1], [], re_place=False)
        assert plan["r1"] is not None
        return r1

    def test_an_unchanged_state_recalls(self, k4_state):
        r1 = self.planned(k4_state)
        entry = k4_state.copy().recall(r1)
        assert entry is not None and entry.request is r1

    @pytest.mark.parametrize("element", ["s15", "e3_1", "l47"])
    def test_one_unit_of_residual_misses(self, k4_state, element):
        r1 = self.planned(k4_state)
        probe = k4_state.copy()
        rv = probe.residual[element]
        dim = next(d for d in rv._fields if getattr(rv, d))
        probe.residual[element] = rv._replace(**{dim: getattr(rv, dim) - 1})
        assert probe.recall(r1) is None

    def test_an_element_marked_down_misses(self, k4_state):
        r1 = self.planned(k4_state)
        probe = k4_state.copy()
        probe.mark_down(["c1_1"])
        # c1_1 carries no load, so the residuals are still those r1 was
        # planned on: the miss is mark_down dropping the probe's memo, while
        # the state the probe was copied from keeps its own
        assert probe.residual == k4_state.residual
        assert probe.recall(r1) is None
        assert k4_state.recall(r1).request is r1

    def test_another_request_object_under_the_same_id_misses(self, k4_state):
        r1 = self.planned(k4_state)
        twin = replace(r1)
        assert twin == r1 and k4_state.recall(twin) is None

    @staticmethod
    def replayable(k4_state):
        """k4_state with r0, r1 and r2 committed from one re-placing plan,
        which left big unplaced after them, so the memo ends on this state."""
        reqs = [star_request(f"r{i}", n_vms=2, cores=3) for i in range(3)]
        big = star_request("big", n_vms=3, cores=6)  # three servers of one rack
        plan = plan_batch(k4_state, [*reqs, big], [], re_place=True)
        assert plan["big"] is None
        for req in reqs:
            k4_state.commit(req, plan[req.id])
        return reqs

    def test_the_trailing_committed_entries_replay(self, k4_state):
        self.replayable(k4_state)
        entries = k4_state.replay(["r1", "r2"])
        assert [e.request.id for e in entries] == ["r1", "r2"]
        assert all(k4_state.active[e.request.id] is e.result.assignment for e in entries)
        assert k4_state.replay([]) == []

    @pytest.mark.parametrize("remappable", [["r0", "r1"], ["r2", "r1"], ["r0", "r1", "r2", "big"]])
    def test_entries_that_are_not_the_trailing_committed_ones_do_not_replay(
        self, k4_state, remappable
    ):
        self.replayable(k4_state)
        if "big" in remappable:
            # as when a search placed what the plan could not
            big = star_request("big", n_vms=1)
            k4_state.commit(big, greedy_temp_map(k4_state, big).assignment)
        assert k4_state.replay(remappable) is None

    @pytest.mark.parametrize("element", ["s15", "e3_1", "l47"])
    def test_one_unit_of_residual_drift_declines_a_replay(self, k4_state, element):
        self.replayable(k4_state)
        probe = k4_state.copy()
        rv = probe.residual[element]
        dim = next(d for d in rv._fields if getattr(rv, d))
        probe.residual[element] = rv._replace(**{dim: getattr(rv, dim) - 1})
        assert probe.replay(["r1", "r2"]) is None

    def test_an_element_marked_down_declines_a_replay(self, k4_state):
        self.replayable(k4_state)
        k4_state.mark_down(["c1_1"])
        assert k4_state.replay(["r1", "r2"]) is None

    @pytest.mark.parametrize("twin", ["request", "assignment"])
    def test_a_twin_under_the_same_id_declines_a_replay(self, k4_state, twin):
        # an equal assignment built anew is what a search's decision commits
        r2 = self.replayable(k4_state)[2]
        a = k4_state.release("r2")
        if twin == "request":
            k4_state.commit(replace(r2), a)
        else:
            k4_state.commit(r2, replace(a))
        assert k4_state.residual == k4_state._plan_end
        assert k4_state.replay(["r1", "r2"]) is None

    def test_a_live_commit_of_the_plan_takes_its_check(self, k4_state, state_calls):
        reqs = [star_request("r0", n_vms=3, cores=4), star_request("r1", n_vms=2, cores=4)]
        plan = plan_batch(k4_state, reqs, [], re_place=False)
        state_calls.clear()
        for req in reqs:
            k4_state.commit(req, plan[req.id])
        assert (state_calls["commit"], state_calls["check_assignment"]) == (2, 0)
        k4_state.audit()

    def test_a_live_commit_after_one_unit_of_drift_checks(self, k4_state, state_calls):
        r0 = star_request("r0", n_vms=3, cores=4)
        plan = plan_batch(k4_state, [r0], [], re_place=False)
        rv = k4_state.residual["l47"]
        k4_state.residual["l47"] = rv._replace(bandwidth=rv.bandwidth - 1)
        state_calls.clear()
        k4_state.commit(r0, plan["r0"])
        assert (state_calls["commit"], state_calls["check_assignment"]) == (1, 1)

    def test_the_memo_holds_only_the_last_plan(self, k4_state, greedy_calls):
        reqs = [star_request(f"r{i}", n_vms=2) for i in range(4)]
        for req in reqs[:2]:
            k4_state.commit(req, greedy_temp_map(k4_state, req).assignment)
        greedy_calls.clear()
        plan_batch(k4_state, reqs[2:3], ["r0", "r1"], re_place=True)
        assert set(k4_state._plans) == {"r0", "r1", "r2"}
        assert greedy_calls == ["r0", "r1", "r2"]
        plan_batch(k4_state, reqs[2:3], ["r0", "r1"], re_place=True)
        assert greedy_calls == ["r0", "r1", "r2"]  # all three recalled
        plan_batch(k4_state, reqs[3:], ["r0", "r1"], re_place=False)
        assert set(k4_state._plans) == {"r3"}
        assert k4_state.recall(reqs[2]) is None


class TestFragments:
    def test_fragments_split_by_exhausted_elements(self, k4_net, k4_table):
        state = EmbeddingState(k4_net, k4_table)
        frags = compute_fragments(state)
        assert len(frags) == 1  # empty substrate is one fragment
        nodes, links, free = frags[0]
        assert free == state.residual_vectors()
        assert (free.cpu_cores, free.memory_mb, free.switch_memory) == (128, 262144, 2000)

    def test_a_fragment_rescues_what_whole_substrate_greedy_strands(self, k4_state):
        # with both aggregation switches of pod 1 down, its racks are a
        # fragment of their own, and the emptiest: whole-substrate greedy puts
        # both edge vSwitches there, where no path joins them, while greedy
        # inside the main fragment maps the request cleanly
        for s in k4_state.net.servers:
            edge = k4_state.net.edge_switch_of(s)
            if not edge.startswith("e1_"):
                req = star_request(f"x{s}")
                key = k4_state.uplink(req, "vm0", s)
                k4_state.commit(req, Assignment(req.id, {"vm0": s}, {"vs0": edge}, {"vl0": key}))
        k4_state.mark_down(["a1_0", "a1_1"])
        req = chain_request("r0")
        assert greedy_temp_map(k4_state, req) == StructuralFailure(
            "no admissible path for vl0 (e1_0->e1_1)"
        )
        result = try_online_embed(k4_state, req)
        assert isinstance(result, OnlineResult) and result.moves == ()
        assert result.assignment.vswitch_map == {"vs0": "e0_0", "vs1": "e0_1"}

    def test_fragment_ordering_deterministic(self, k4_state):
        a = compute_fragments(k4_state)
        b = compute_fragments(k4_state)
        assert [sorted(f[0]) for f in a] == [sorted(f[0]) for f in b]


# sha256 of TestPinnedOutputs' outputs: a change to greedy or swap repair that
# alters any placement, overflow ledger or failure reason shows here
PINNED_OUTPUTS_SHA256 = "83d956e99158e5482ced5792281816e0bd9c51af9708e3b825577bf3ab7bd78d"


class TestPinnedOutputs:
    def outputs(self):
        """reprs of greedy_temp_map on the whole substrate and on the first
        two fragments, then of try_online_embed, for each request of 20
        random tight k=4 states (6-core/3000 MB servers, switch memory 60,
        a failed link and server in every third state, latency bounds of
        2-4 and locality sets), committing accepted results."""
        rng = random.Random(2024)
        net = build_fat_tree(
            4, server_capacity=ResourceVector(cpu_cores=6, memory_mb=3000), switch_memory=60
        )
        table = enumerate_paths(net)
        servers = sorted(net.servers)
        cfg = WorkloadConfig(vm_count=(2, 12), vswitch_count=(2, 4))
        for n in range(20):
            state = EmbeddingState(net, table)
            if n % 3 == 0:
                state.mark_down([rng.choice(sorted(net.links)), rng.choice(servers)])
            for i in range(12):
                req = generate_vdc_request(cfg, 0.0, rng.randrange(10**9))
                locality = {
                    vm: frozenset(rng.sample(servers, 4)) for vm in req.vms if rng.random() < 0.2
                }
                req = replace(
                    req, id=f"r{i}", latency_bound=rng.choice([None, 2, 3, 4]),
                    locality=locality or None,
                )
                yield repr(greedy_temp_map(state, req))
                for nodes, links, _ in compute_fragments(state)[:2]:
                    yield repr(greedy_temp_map(state, req, allowed=(nodes, links)))
                result = try_online_embed(state, req)
                yield repr(result)
                if isinstance(result, OnlineResult):
                    apply_online(state, req, result)

    def test_outputs_unchanged(self):
        outputs = list(self.outputs())
        # the states are tight: placements overflow, fail and get repaired
        assert any("TempMapping" in o and "ledger=()" not in o for o in outputs)
        assert any(o.startswith("StructuralFailure") for o in outputs)
        assert any("SwapMove(" in o for o in outputs)
        digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
        assert digest == PINNED_OUTPUTS_SHA256


# sha256 of TestPinnedSwaps' outputs: a change to swap repair that alters
# any candidate order, relocation or failure reason shows here
PINNED_SWAPS_SHA256 = "57f20f972c2b3839ac3426b7dbe4243ef91f2c75ba0129d73d827bbc41c0c1a9"


class TestPinnedSwaps:
    def outputs(self):
        """reprs of try_online_embed for each of 10 requests on 80 random
        tight k=4 states (4-8 cores, 2,000-6,000 MB, switch memory 30-60,
        thin or wide links, a failed link and server in every third state),
        committing accepted results; states alternate between few large
        VM groups and many small vSwitches, so VMs, vSwitches and vlinks
        all get moved."""
        rng = random.Random(5)
        cfgs = (
            WorkloadConfig(vm_count=(2, 12), vswitch_count=(2, 4)),
            WorkloadConfig(vm_count=(2, 6), vswitch_count=(4, 8)),
        )
        for n in range(80):
            cores, mem = rng.randint(4, 8), rng.randint(2000, 6000)
            net = build_fat_tree(
                4, server_capacity=ResourceVector(cpu_cores=cores, memory_mb=mem),
                switch_memory=rng.randint(30, 60),
                bandwidth_profile=rng.choice([(300, 150, 200), (10000, 1000, 1000)]),
            )
            state = fresh_state(net)
            if n % 3 == 0:
                state.mark_down([rng.choice(sorted(net.links)), rng.choice(sorted(net.servers))])
            for i in range(10):
                req = replace(generate_vdc_request(cfgs[n % 2], 0.0, rng.randrange(10**9)), id=f"r{i}")
                result = try_online_embed(state, req)
                yield repr(result)
                if isinstance(result, OnlineResult):
                    apply_online(state, req, result)

    def test_outputs_unchanged(self):
        outputs = list(self.outputs())
        for kind in ("vm-swap", "vswitch-swap", "vlink-reroute"):
            assert any(f"kind='{kind}'" in o for o in outputs), kind
        digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
        assert digest == PINNED_SWAPS_SHA256
