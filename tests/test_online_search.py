"""Online embedder: greedy mapping, swap repair, and the composed attempt."""

import hashlib
import random
from dataclasses import replace

import pytest

from conftest import chain_request, make_rack_net, star_request
from vdcembed.batch_solver import build_mip, solve_exact
from vdcembed.online_search import (
    OnlineResult,
    RepairFailure,
    StructuralFailure,
    SwapMove,
    TempMapping,
    compute_fragments,
    greedy_temp_map,
    swap_repair,
    try_online_embed,
)
from vdcembed.paths import enumerate_paths
from vdcembed.state import Assignment, EmbeddingState
from vdcembed.topology import (
    ResourceVector,
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
            assert k4_state.table.path(*key).delay <= 2


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
        assert len(k4_state.table.path(*a.vlink_map["vl0"]).edges) == 2

    def test_skips_the_largest_share_rack_short_of_switch_memory(
        self, k4_state, overflow_over_calls
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
        assert len(overflow_over_calls) == 4

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
        hop = next(n for n, r in enumerate(k4_table.get("e0_0", "a0_0")) if len(r.edges) == 1)
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
        incoming = star_request("new", cores=6)
        a = Assignment("new", {"vm0": "s0"}, {"vs0": "e0_0"}, {"vl0": ("e0_0", "s0", 0)})
        temp = TempMapping(a, tuple(state.check_assignment(incoming, a)))
        result = swap_repair(state, incoming, temp, max_swaps=2)
        assert isinstance(result, RepairFailure)
        assert (state.active, state.residual) == before

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


class TestFragments:
    def test_fragments_split_by_exhausted_elements(self, k4_net, k4_table):
        state = EmbeddingState(k4_net, k4_table)
        frags = compute_fragments(state)
        assert len(frags) == 1  # empty substrate is one fragment
        nodes, links, free = frags[0]
        assert free == state.residual_vectors()
        assert (free.cpu_cores, free.memory_mb, free.switch_memory) == (128, 262144, 2000)

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
