"""Thresholds, mode selection, event handling, and full simulation runs."""

import hashlib
import random
from dataclasses import replace

import pytest

from conftest import chain_request, make_rack_net, star_request
from vdcembed.errors import ConfigError
from vdcembed.metrics import aggregate, serialize_trace
from vdcembed.online_search import OnlineResult, SwapMove
from vdcembed.paths import enumerate_paths
from vdcembed.scheduler import (
    MODE_BATCH,
    MODE_DEFER,
    MODE_ONLINE,
    PendingEntry,
    PendingQueue,
    PolicyConfig,
    SimEvent,
    Simulation,
    compute_thresholds,
    parse_policy_config,
    request_size,
    run_simulation,
    select_mode,
)
from vdcembed.state import Assignment
from vdcembed.topology import (
    ResourceVector,
    SubstrateNetwork,
    VLink,
    WorkloadConfig,
    build_fat_tree,
    poisson_arrivals,
    validate_substrate,
)


def pend(req, seq=0, expiry=100.0):
    return PendingEntry(req, arrival_seq=seq, expiry=expiry)


class TestThresholds:
    def test_single_request_collapses(self):
        q = PendingQueue()
        q.add(pend(star_request("r0", n_vms=2)))
        thr = compute_thresholds(q)
        assert thr.smallest == thr.largest

    def test_two_requests_split(self):
        q = PendingQueue()
        q.add(pend(star_request("small", n_vms=5, cores=2), seq=0))
        q.add(pend(star_request("large", n_vms=20, cores=2), seq=1))
        thr = compute_thresholds(q)
        assert thr.smallest.cpu_cores == 10
        assert thr.largest.cpu_cores == 40

    def test_empty_queue_signals_idle(self):
        assert compute_thresholds(PendingQueue()) is None


class TestSelectMode:
    def residuals(self, cpu, mem=10**6, swm=10**6, bw=10**6):
        return ResourceVector(cpu, mem, swm, bw)

    def thresholds(self, small_cpu, large_cpu):
        q = PendingQueue()
        q.add(pend(star_request("s", n_vms=small_cpu, cores=1, mem=1, vlink_bw=5), 0))
        q.add(pend(star_request("l", n_vms=large_cpu, cores=1, mem=1, vlink_bw=5), 1))
        return compute_thresholds(q)

    def test_branches(self):
        thr = self.thresholds(10, 40)
        assert select_mode(self.residuals(100), thr) == MODE_BATCH
        assert select_mode(self.residuals(39), thr) == MODE_ONLINE
        assert select_mode(self.residuals(9), thr) == MODE_DEFER

    def test_boundary_at_smallest_is_online(self):
        q = PendingQueue()
        small = star_request("s", n_vms=2, cores=5, mem=100, vlink_bw=10)
        big = star_request("l", n_vms=20, cores=5, mem=100, vlink_bw=10)
        q.add(pend(small, 0))
        q.add(pend(big, 1))
        thr = compute_thresholds(q)
        assert select_mode(thr.smallest, thr) == MODE_ONLINE

    def test_matches_branch_conditions_on_fuzz(self):
        rng = random.Random(808)
        from vdcembed.scheduler import Thresholds

        def covers(res, need):
            return (
                res.cpu_cores >= need.cpu_cores
                and res.memory_mb >= need.memory_mb
                and res.switch_memory >= need.switch_memory
                and res.bandwidth >= need.bandwidth
            )

        def vector():
            return ResourceVector(*(rng.randint(0, 50) for _ in range(4)))

        for _ in range(400):
            small, large = sorted(
                [vector(), vector()],
                key=lambda t: t.cpu_cores + t.memory_mb + t.switch_memory + t.bandwidth,
            )
            res = vector()
            got = select_mode(res, Thresholds(small, large))
            if covers(res, large):
                assert got == MODE_BATCH
            elif covers(res, small):
                assert got == MODE_ONLINE
            else:
                assert got == MODE_DEFER


class TestPriorityOrder:
    def test_ordering_key(self):
        q = PendingQueue()
        urgent = star_request("urgent", n_vms=1, duration=10.0)
        big = star_request("big", n_vms=9, duration=10.0)
        long_lived = star_request("long", n_vms=1, duration=99.0)
        q.add(PendingEntry(urgent, arrival_seq=2, expiry=5.0))
        q.add(PendingEntry(big, arrival_seq=1, expiry=50.0))
        q.add(PendingEntry(long_lived, arrival_seq=0, expiry=50.0))
        ordered = [e.request.id for e in q.ordered()]
        assert ordered[0] == "urgent"  # soonest expiry first
        assert ordered[1] == "big"  # then larger size
        assert ordered[2] == "long"


class TestSimulationSteps:
    def make_sim(self, policy=None, mode="hybrid"):
        net = build_fat_tree(4)
        table = enumerate_paths(net)
        return Simulation(net, table, policy or PolicyConfig(), run_mode=mode)

    def test_departure_restores_capacity(self):
        sim = self.make_sim()
        req = star_request("r0", n_vms=2, duration=5.0)
        sim.process(SimEvent(0.0, 0, "arrival", request=req))
        assert "r0" in sim.state.active
        before = sim.state.residual_vectors()
        sim.process(SimEvent(5.0, 1, "departure", request_id="r0"))
        after = sim.state.residual_vectors()
        assert after == sim._capacity
        assert before != after

    def test_batch_invoked_once_with_prefix(self):
        policy = PolicyConfig(batch_width=8, batch_min_pending=2)
        sim = self.make_sim(policy)
        for i in range(3):
            req = star_request(f"r{i}", n_vms=2)
            sim.queue.add(PendingEntry(req, arrival_seq=i, expiry=100.0))
            sim.status[req.id] = "pending"
        sim._drain(0.0)
        batch_decisions = [r for r in sim.records if r.kind == "decision" and r.get("mode") == "batch"]
        assert len(batch_decisions) == 1
        assert batch_decisions[0].get("batch") == "3"
        assert len(sim.state.active) == 3

    def test_unembeddable_stays_pending(self):
        policy = PolicyConfig(batch_min_pending=1)
        sim = self.make_sim(policy)
        # 9-core vms cannot fit an 8-core server: structurally impossible, rejected on arrival
        impossible = star_request("big", n_vms=1, cores=9)
        sim.process(SimEvent(0.0, 0, "arrival", request=impossible))
        assert sim.status["big"] == "rejected"

    def test_vm_fitting_a_smaller_server_not_rejected(self):
        # mixed sizes: no server has the most of every dimension, and the VM
        # fits only the one with fewer cores
        net = build_fat_tree(2)
        sizes = {"s0": (8, 1024), "s1": (4, 16384)}
        servers = {
            sid: replace(srv, capacity=ResourceVector(cpu_cores=sizes[sid][0], memory_mb=sizes[sid][1]))
            for sid, srv in net.servers.items()
        }
        net = SubstrateNetwork(servers, net.switches, net.links, k_arity=2)
        assert validate_substrate(net) == []
        sim = Simulation(net, enumerate_paths(net), PolicyConfig())
        sim.process(SimEvent(0.0, 0, "arrival", request=star_request("r0", cores=2, mem=8000)))
        assert sim.status["r0"] == "accepted"
        assert sim.state.active["r0"].vm_map == {"vm0": "s1"}

    def test_batch_leftover_remains_pending(self):
        # two pending, room for one: batch embeds one, the other stays queued
        from conftest import make_rack_net

        net = make_rack_net(n_servers=1, cores=8)
        table = enumerate_paths(net)
        sim = Simulation(net, table, PolicyConfig(batch_min_pending=1), run_mode="batch-only")
        for i, cores in enumerate((5, 5)):
            req = star_request(f"r{i}", cores=cores, duration=40.0)
            sim.queue.add(PendingEntry(req, arrival_seq=i, expiry=60.0))
            sim.status[req.id] = "pending"
        sim._drain(0.0)
        assert len(sim.state.active) == 1
        assert len(sim.queue) == 1
        leftover = next(iter(sim.queue.entries))
        assert sim.status[leftover] == "pending"

    def test_departure_triggers_pending_reattempt(self):
        from conftest import make_rack_net

        net = make_rack_net(n_servers=1, cores=8)
        table = enumerate_paths(net)
        sim = Simulation(net, table, PolicyConfig(), run_mode="online-only")
        first = star_request("first", cores=8, duration=10.0)
        sim.process(SimEvent(0.0, 0, "arrival", request=first))
        assert "first" in sim.state.active
        blocked = star_request("blocked", cores=8, duration=10.0)
        sim.process(SimEvent(1.0, 1, "arrival", request=blocked))
        assert sim.status["blocked"] == "pending"
        sim.process(SimEvent(10.0, 2, "departure", request_id="first"))
        assert "blocked" in sim.state.active
        assert sim.status["blocked"] == "accepted"

    def test_failure_displaces_exactly_hosted_vms(self):
        sim = self.make_sim()
        req = star_request("r0", n_vms=2, duration=90.0)
        sim.state.commit(
            req,
            Assignment(
                "r0",
                {"vm0": "s0", "vm1": "s0"},
                {"vs0": "e0_0"},
                {"vl0": ("e0_0", "s0", 0), "vl1": ("e0_0", "s0", 0)},
            ),
        )
        sim.status["r0"] = "accepted"
        sim.accept_order.append("r0")
        sim.process(SimEvent(1.0, 0, "failure", elements=("s0",)))
        migrations = [r for r in sim.records if r.kind == "migration"]
        vm_moves = [r for r in migrations if r.get("kind") == "vm"]
        assert sorted(m.get("element") for m in vm_moves) == ["vm0", "vm1"]
        assert all(m.get("old") == "s0" and m.get("new") == "s1" for m in vm_moves)
        vlink_moves = [r for r in migrations if r.get("kind") == "vlink"]
        assert len(vlink_moves) == 2
        sim.state.audit()

    def test_failures_on_a_cross_pod_path_reroute_its_vlink(self):
        sim = self.make_sim()
        req = chain_request("r0", duration=90.0)
        sim.state.commit(
            req,
            Assignment(
                "r0",
                {"vm0": "s0", "vm1": "s4"},
                {"vs0": "e0_0", "vs1": "e1_0"},
                {
                    "vl0": ("e0_0", "e1_0", 0),  # e0_0 a0_0 c0_0 a1_0 e1_0
                    "vl1": ("e0_0", "s0", 0),
                    "vl2": ("e1_0", "s4", 0),
                },
            ),
        )
        sim.status["r0"] = "accepted"
        sim.accept_order.append("r0")
        # the core switch, then the agg-core link of the next path
        for t, element, new_path in ((1.0, "c0_0", 1), (2.0, "l9", 2)):
            start = len(sim.records)
            sim.process(SimEvent(t, 0, "failure", elements=(element,)))
            records = sim.records[start:]
            outcomes = [r.get("outcome") for r in records if r.kind == "displaced"]
            assert outcomes == ["repaired"]
            moved = [(r.get("kind"), r.get("element")) for r in records if r.kind == "migration"]
            assert moved == [("vlink", "vl0")]
            key = sim.state.active["r0"].vlink_map["vl0"]
            assert key == ("e0_0", "e1_0", new_path)
            rec = sim.state.table.path(*key)
            assert element not in rec.nodes + rec.edges
            sim.state.audit()

    def test_failed_switch_moves_its_internal_vswitch(self):
        sim = self.make_sim()
        req = chain_request("r0", n_vswitches=3, duration=90.0)
        sim.state.commit(
            req,
            Assignment(
                "r0",
                {"vm0": "s0", "vm1": "s2"},
                {"vs0": "e0_0", "vs1": "a0_0", "vs2": "e0_1"},
                {
                    "vl0": ("e0_0", "a0_0", 0),
                    "vl1": ("a0_0", "e0_1", 0),
                    "vl2": ("e0_0", "s0", 0),
                    "vl3": ("e0_1", "s2", 0),
                },
            ),
        )
        sim.status["r0"] = "accepted"
        sim.accept_order.append("r0")
        sim.process(SimEvent(1.0, 0, "failure", elements=("a0_0",)))
        outcomes = [r.get("outcome") for r in sim.records if r.kind == "displaced"]
        assert outcomes == ["repaired"]
        moved = [
            (r.get("kind"), r.get("element"), r.get("old"), r.get("new"))
            for r in sim.records
            if r.kind == "migration"
        ]
        # no path of at most four links joins e0_0 to a core switch of column
        # 0 without a0_0, so vs1 goes to the other aggregation switch
        assert moved == [
            ("vswitch", "vs1", "a0_0", "a0_1"),
            ("vlink", "vl0", "-", "-"),
            ("vlink", "vl1", "-", "-"),
        ]
        a = sim.state.active["r0"]
        assert (a.vlink_map["vl0"], a.vlink_map["vl1"]) == (("e0_0", "a0_1", 0), ("a0_1", "e0_1", 0))
        sim.state.audit()

    def test_failed_switch_under_an_edge_vswitch_requeues(self):
        # vs1 is an edge vSwitch with no VMs; only its switch fails, and an
        # edge vSwitch is not moved, so the request is requeued
        sim = self.make_sim()
        req = star_request("r0", duration=90.0)
        req = replace(
            req,
            vswitches={**req.vswitches, "vs1": replace(req.vswitches["vs0"], id="vs1")},
            vlinks={**req.vlinks, "vl1": VLink("vl1", "vs0", "vs1", 10)},
        )
        sim.state.commit(
            req,
            Assignment(
                "r0",
                {"vm0": "s0"},
                {"vs0": "e0_0", "vs1": "e0_1"},
                {"vl0": ("e0_0", "s0", 0), "vl1": ("e0_0", "e0_1", 0)},
            ),
        )
        sim.status["r0"] = "accepted"
        sim.accept_order.append("r0")
        sim.process(SimEvent(1.0, 0, "failure", elements=("e0_1",)))
        outcomes = [r.get("outcome") for r in sim.records if r.kind == "displaced"]
        assert outcomes == ["requeued"]
        assert not [r for r in sim.records if r.kind == "migration"]
        sim.state.audit()

    def rack_sim(self, n_servers, cores):
        net = make_rack_net(n_servers, cores=cores)
        return Simulation(net, enumerate_paths(net), PolicyConfig())

    def place(self, sim, req, hosts):
        """Commit a star request with vm<i> on hosts[i] as an accepted incumbent."""
        vm_map = {f"vm{i}": h for i, h in enumerate(hosts)}
        vl_map = {f"vl{i}": ("e0", h, 0) for i, h in enumerate(hosts)}
        sim.state.commit(req, Assignment(req.id, vm_map, {"vs0": "e0"}, vl_map))
        sim.status[req.id] = "accepted"
        sim.accept_order.append(req.id)

    def test_swap_cycle_applies_cleanly(self):
        sim = self.rack_sim(2, cores=4)
        x = star_request("x", cores=3, duration=90.0)
        y = star_request("y", cores=3, duration=90.0)
        self.place(sim, x, ["s0"])
        self.place(sim, y, ["s1"])
        new = star_request("new", cores=1)
        moves = (
            SwapMove("vm-swap", "x", "vm0", "s0", "s1"),
            SwapMove("vm-swap", "y", "vm0", "s1", "s0"),
        )
        updates = {
            "x": Assignment("x", {"vm0": "s1"}, {"vs0": "e0"}, {"vl0": ("e0", "s1", 0)}),
            "y": Assignment("y", {"vm0": "s0"}, {"vs0": "e0"}, {"vl0": ("e0", "s0", 0)}),
        }
        a = Assignment("new", {"vm0": "s0"}, {"vs0": "e0"}, {"vl0": ("e0", "s0", 0)})
        sim._apply_online(new, OnlineResult(a, moves, updates), 1.0)
        assert sim.state.active == {**updates, "new": a}
        assert list(sim.state.active) == ["x", "y", "new"]
        moved = [
            tuple(r.get(f) for f in ("request", "kind", "element", "old", "new"))
            for r in sim.records
            if r.kind == "migration"
        ]
        assert moved == [
            ("x", "vm", "vm0", "s0", "s1"),
            ("x", "vlink", "vl0", "-", "-"),
            ("y", "vm", "vm0", "s1", "s0"),
            ("y", "vlink", "vl0", "-", "-"),
        ]
        sim.state.audit()

    def test_incumbent_moved_twice_recorded_once(self):
        sim = self.rack_sim(3, cores=8)
        x = star_request("x", cores=4, duration=90.0)
        self.place(sim, x, ["s0"])
        new = star_request("new", cores=4)
        moves = (
            SwapMove("vm-swap", "x", "vm0", "s0", "s1"),
            SwapMove("vm-swap", "x", "vm0", "s1", "s2"),
        )
        final = Assignment("x", {"vm0": "s2"}, {"vs0": "e0"}, {"vl0": ("e0", "s2", 0)})
        a = Assignment("new", {"vm0": "s0"}, {"vs0": "e0"}, {"vl0": ("e0", "s0", 0)})
        sim._apply_online(new, OnlineResult(a, moves, {"x": final}), 1.0)
        moved = [
            tuple(r.get(f) for f in ("request", "kind", "element", "old", "new"))
            for r in sim.records
            if r.kind == "migration"
        ]
        assert moved == [("x", "vm", "vm0", "s0", "s2"), ("x", "vlink", "vl0", "-", "-")]
        sim.state.audit()

    def test_displaced_vm_honours_locality(self):
        sim = self.rack_sim(3, cores=8)
        req = star_request("r0", n_vms=2, duration=90.0, locality={"vm0": frozenset({"s0", "s2"})})
        self.place(sim, req, ["s0", "s1"])
        sim.process(SimEvent(1.0, 0, "failure", elements=("s0",)))
        assert sim.state.active["r0"].vm_map == {"vm0": "s2", "vm1": "s1"}
        outcome = next(r for r in sim.records if r.kind == "displaced")
        assert outcome.get("outcome") == "repaired"
        sim.state.audit()

    def test_displaced_vm_sees_unmoved_siblings_once(self):
        # s1 has exactly the room vm0 needs once vm1's usage is counted once
        sim = self.rack_sim(2, cores=4)
        req = star_request("r0", n_vms=2, cores=2, duration=90.0)
        self.place(sim, req, ["s0", "s1"])
        sim.process(SimEvent(1.0, 0, "failure", elements=("s0",)))
        assert sim.state.active["r0"].vm_map == {"vm0": "s1", "vm1": "s1"}
        outcome = next(r for r in sim.records if r.kind == "displaced")
        assert outcome.get("outcome") == "repaired"
        sim.state.audit()

    def test_scale_up_in_place_then_relocation(self):
        sim = self.make_sim()
        req = star_request("r0", n_vms=1, cores=4, duration=90.0)
        sim.state.commit(
            req, Assignment("r0", {"vm0": "s0"}, {"vs0": "e0_0"}, {"vl0": ("e0_0", "s0", 0)})
        )
        sim.status["r0"] = "accepted"
        sim.accept_order.append("r0")
        filler = star_request("fill", n_vms=1, cores=3, duration=90.0)
        sim.state.commit(
            filler, Assignment("fill", {"vm0": "s0"}, {"vs0": "e0_0"}, {"vl0": ("e0_0", "s0", 0)})
        )
        # +1 core still fits on s0 (4 + 1 + 3 = 8)
        sim.process(
            SimEvent(
                1.0, 1, "scale_up", request_id="r0",
                deltas=(("vm0", ResourceVector(cpu_cores=1)),),
            )
        )
        assert sim.records[-2].kind == "scale_up"
        assert sim.records[-2].get("outcome") == "in-place"
        assert sim.state.requests["r0"].vms["vm0"].demand.cpu_cores == 5
        # another +1 overflows s0; the vm must move to the rack sibling s1
        sim.process(
            SimEvent(
                2.0, 2, "scale_up", request_id="r0",
                deltas=(("vm0", ResourceVector(cpu_cores=1)),),
            )
        )
        outcome = next(r for r in reversed(sim.records) if r.kind == "scale_up")
        assert outcome.get("outcome") == "relocated"
        assert sim.state.active["r0"].vm_map["vm0"] == "s1"
        assert sim.state.requests["r0"].vms["vm0"].demand.cpu_cores == 6
        assert sim.state.requests["r0"].locality is None  # pins were synthetic
        sim.state.audit()

    def test_rejected_scale_up_leaves_state_untouched(self):
        # s0 lacks the extra core and the rack sibling s1 is full
        sim = self.rack_sim(2, cores=8)
        self.place(sim, star_request("r0", cores=4, duration=90.0), ["s0"])
        self.place(sim, star_request("fill", cores=4, duration=90.0), ["s0"])
        self.place(sim, star_request("full", cores=8, duration=90.0), ["s1"])
        state = sim.state
        active, requests = list(state.active.items()), list(state.requests.items())
        residual, version = dict(state.residual), state.version
        sim.handle_scale_up("r0", (("vm0", ResourceVector(cpu_cores=1)),), 1.0)
        assert sim.records[-1].get("outcome") == "rejected"
        assert list(state.active.items()) == active
        assert list(state.requests.items()) == requests
        assert state.residual == residual
        assert state.version == version

    def test_scale_up_relocation_keeps_locality(self):
        # vm0 may live on s0 or s2 only; s0 lacks the extra core, s2 is full
        sim = self.rack_sim(3, cores=8)
        locality = {"vm0": frozenset({"s0", "s2"})}
        req = star_request("r0", cores=4, duration=90.0, locality=locality)
        self.place(sim, req, ["s0"])
        self.place(sim, star_request("fill", cores=4, duration=90.0), ["s0"])
        self.place(sim, star_request("full", cores=8, duration=90.0), ["s2"])
        sim.process(
            SimEvent(
                1.0, 0, "scale_up", request_id="r0",
                deltas=(("vm0", ResourceVector(cpu_cores=1)),),
            )
        )
        outcome = next(r for r in reversed(sim.records) if r.kind == "scale_up")
        assert outcome.get("outcome") == "relocated"
        assert sim.state.active["r0"].vm_map["vm0"] in locality["vm0"]
        assert sim.state.requests["r0"].locality == locality
        assert sim.state.requests["r0"].vms["vm0"].demand.cpu_cores == 5
        sim.state.audit()

    def test_vm_moves_within_its_rack_when_its_uplink_fails(self):
        sim = self.make_sim(mode="online-only")
        sim.process(SimEvent(0.0, 0, "arrival", request=star_request("r0", duration=90.0)))
        a = sim.state.active["r0"]
        assert (a.vm_map, a.vswitch_map) == ({"vm0": "s0"}, {"vs0": "e0_0"})
        sim.process(SimEvent(1.0, 1, "failure", elements=("l2",)))  # e0_0 - s0
        outcome = next(r for r in sim.records if r.kind == "displaced")
        assert outcome.get("outcome") == "repaired"
        assert "reembed" not in [r.kind for r in sim.records]
        assert sim.state.active["r0"].vswitch_map == {"vs0": "e0_0"}
        moved = [
            tuple(r.get(f) for f in ("kind", "element", "old", "new"))
            for r in sim.records
            if r.kind == "migration"
        ]
        assert moved == [("vm", "vm0", "s0", "s1"), ("vlink", "vl0", "-", "-")]
        sim.state.audit()

    def test_invalid_request_rejected_before_clock_moves(self):
        sim = self.make_sim()
        sim.process(SimEvent(5.0, 0, "arrival", request=star_request("r0")))
        # vm0 hangs off an internal vSwitch
        bad = chain_request("bad", n_vswitches=3)
        bad = replace(bad, vlinks={**bad.vlinks, "vl2": VLink("vl2", "vs1", "vm0", 10)})
        from vdcembed.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="vm-parent-edge"):
            sim.process(SimEvent(9.0, 1, "arrival", request=bad))
        assert sim.clock == 5.0
        assert "bad" not in sim.status

    def test_clock_rejects_past_events(self):
        sim = self.make_sim()
        sim.process(SimEvent(5.0, 0, "arrival", request=star_request("r0")))
        from vdcembed.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            sim.process(SimEvent(1.0, 1, "arrival", request=star_request("r1")))

    def test_malformed_event_leaves_clock_unchanged(self):
        sim = self.make_sim()
        sim.process(SimEvent(5.0, 0, "arrival", request=star_request("r0")))
        from vdcembed.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            sim.process(SimEvent(9.0, 1, "eclipse"))
        assert sim.clock == 5.0

    def test_repeated_arrival_id_rejected_before_clock_moves(self):
        sim = self.make_sim()
        sim.process(SimEvent(5.0, 0, "arrival", request=star_request("r0")))
        assert sim.status["r0"] == "accepted"
        from vdcembed.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            sim.process(SimEvent(9.0, 1, "arrival", request=star_request("r0", cores=2)))
        assert sim.clock == 5.0
        assert [r.kind for r in sim.records].count("accept") == 1
        assert sim.state.requests["r0"].vms["vm0"].demand.cpu_cores == 1

    def test_pending_expires_into_rejection(self):
        from conftest import make_rack_net

        net = make_rack_net(n_servers=1, cores=8)
        table = enumerate_paths(net)
        sim = Simulation(net, table, PolicyConfig(patience=20.0), run_mode="online-only")
        sim.process(SimEvent(0.0, 0, "arrival", request=star_request("r0", cores=8, duration=90.0)))
        sim.process(SimEvent(1.0, 1, "arrival", request=star_request("r1", cores=8, duration=90.0)))
        assert sim.status["r1"] == "pending"
        # any later wake-up past the deadline expires it
        sim.process(SimEvent(30.0, 2, "arrival", request=star_request("r2", cores=1, duration=5.0)))
        assert sim.status["r1"] == "expired"
        rejects = [r for r in sim.records if r.kind == "reject"]
        assert any(r.get("request") == "r1" and r.get("reason") == "expired" for r in rejects)


class TestRun:
    def setup_method(self):
        self.net = build_fat_tree(4)
        self.table = enumerate_paths(self.net)
        self.policy = PolicyConfig(batch_width=3, solver_node_limit=400, remap_limit=3)

    def workload(self, lam=4.0, horizon=200.0, seed=11):
        return WorkloadConfig(
            vm_count=(2, 8),
            vswitch_count=(2, 3),
            arrival_rate=lam,
            horizon=horizon,
            seed=seed,
        )

    def test_zero_arrivals(self):
        rec = run_simulation(
            self.net, self.workload(lam=0.0), self.policy, table=self.table
        )
        rep = aggregate(rec)
        assert rep.rows[0].arrivals == 0
        assert rep.rows[0].rate is None
        assert rep.rows[0].vm_migrations == 0

    def test_single_tiny_request_accepted(self):
        cfg = self.workload(lam=1.0, horizon=120.0, seed=5)
        rec = run_simulation(self.net, cfg, self.policy, table=self.table)
        rep = aggregate(rec)
        assert rep.rows[0].arrivals >= 1
        assert rep.rows[0].rate == 1.0

    def test_same_seed_identical_trace(self):
        cfg = self.workload()
        a = run_simulation(self.net, cfg, self.policy, table=self.table)
        b = run_simulation(self.net, cfg, self.policy, table=self.table)
        assert serialize_trace(a) == serialize_trace(b)

    def test_clock_monotone_and_identity(self):
        for mode in ("hybrid", "batch-only", "online-only"):
            rec = run_simulation(
                self.net,
                self.workload(lam=8.0, horizon=250.0, seed=23),
                self.policy,
                run_mode=mode,
                table=self.table,
                audit_every=25,
            )
            times = [r.time for r in rec]
            assert times == sorted(times)
            arrivals = {r.get("request") for r in rec if r.kind == "arrival"}
            accepted = {r.get("request") for r in rec if r.kind == "accept"}
            rejected = {r.get("request") for r in rec if r.kind == "reject"}
            assert accepted.isdisjoint(rejected)
            assert accepted | rejected <= arrivals
            # everything else is still pending at the horizon: fine, but the
            # three disjoint outcome bins plus pending must cover all arrivals
            pending = arrivals - accepted - rejected
            assert len(arrivals) == len(accepted) + len(rejected) + len(pending)

    def test_failure_event_inside_full_run(self):
        from vdcembed.scheduler import SimEvent

        cfg = self.workload(lam=6.0, horizon=200.0, seed=51)
        failure = SimEvent(time=80.0, seq=0, kind="failure", elements=("s0", "l1"))
        rec = run_simulation(
            self.net,
            cfg,
            self.policy,
            table=self.table,
            extra_events=(failure,),
            audit_every=1,
        )
        kinds = {r.kind for r in rec}
        assert "failure" in kinds
        # after the failure no later acceptance may touch the dead elements
        failed_at = next(r.seq for r in rec if r.kind == "failure")
        for r in rec:
            if r.kind == "migration" and r.seq > failed_at:
                assert r.get("new") not in ("s0", "l1")

    def test_migrations_match_state_history(self):
        rec = run_simulation(
            self.net,
            self.workload(lam=9.0, horizon=300.0, seed=37),
            self.policy,
            run_mode="batch-only",
            table=self.table,
            audit_every=20,
        )
        migs = [r for r in rec if r.kind == "migration" and r.get("kind") == "vm"]
        for m in migs:
            assert m.get("old") != m.get("new")


# sha256 of TestPinnedEvents' traces: a change to failure repair or scale-up
# that alters any repair, requeue, relocation or migration shows here
PINNED_EVENTS_SHA256 = "1c5302099cb4398bf1875bd97af35a4a586e92c781db8eb8c0775336d9811716"


class TestPinnedEvents:
    def traces(self):
        """Traces of 16 online-only runs (seeds 0-15) on a tight k=4 tree
        (8-core/6,000 MB servers, switch memory 60, thin links), each with 8
        extra events alternating a failure (of a random switch, or of a random
        server, switch or link) and a scale-up of vm0 by 2-5 cores and
        500-3,000 MB on a request that arrived at least 5 time units earlier,
        under the sweep policy with an audit after every event."""
        net = build_fat_tree(
            4, server_capacity=ResourceVector(cpu_cores=8, memory_mb=6000), switch_memory=60,
            bandwidth_profile=(1000, 300, 400),
        )
        table = enumerate_paths(net)
        policy = PolicyConfig(batch_width=3, solver_node_limit=500, remap_limit=4)
        switches, elements = sorted(net.switches), sorted(net.capacity)
        for seed in range(16):
            cfg = WorkloadConfig(
                vm_count=(4, 10), vswitch_count=(2, 5), duration=(100, 300), arrival_rate=6,
                horizon=200, seed=seed,
            )
            rng = random.Random(seed)
            arrivals = poisson_arrivals(cfg, cfg.arrival_rate, seed)
            early = [r for r in arrivals if r.arrival_time <= 195]
            events = []
            for i in range(8):
                if i % 2 == 0:
                    element = rng.choice(switches if rng.random() < 0.5 else elements)
                    events.append(SimEvent(rng.uniform(0, 200), i, "failure", elements=(element,)))
                else:
                    req = rng.choice(early)
                    delta = ResourceVector(
                        cpu_cores=rng.randint(2, 5), memory_mb=rng.randint(500, 3000)
                    )
                    events.append(
                        SimEvent(
                            rng.uniform(req.arrival_time + 5, 200), i, "scale_up",
                            request_id=req.id, deltas=(("vm0", delta),),
                        )
                    )
            yield run_simulation(
                net, cfg, policy, run_mode="online-only", table=table, extra_events=tuple(events),
                audit_every=1,
            )

    def test_traces_unchanged(self):
        traces = list(self.traces())
        records = [r for trace in traces for r in trace]
        displaced = {r.get("outcome") for r in records if r.kind == "displaced"}
        assert {"repaired", "requeued"} <= displaced
        scale_ups = {r.get("outcome") for r in records if r.kind == "scale_up"}
        assert {"in-place", "relocated", "rejected"} <= scale_ups
        kinds = {r.get("kind") for r in records if r.kind == "migration"}
        assert kinds == {"vm", "vswitch", "vlink"}
        text = "".join(serialize_trace(trace) for trace in traces)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_EVENTS_SHA256


class TestPolicyConfig:
    def test_parse_round_trip(self):
        text = "f=1/2\nswap_ceiling=4\nbatch_width=6\npatience=30\nvm_move_weighting=false\n"
        pol = parse_policy_config(text)
        from fractions import Fraction

        assert pol.switch_penalty_divisor == Fraction(1, 2)
        assert pol.swap_ceiling == 4
        assert pol.batch_width == 6
        assert pol.patience == 30.0
        assert pol.vm_move_weighting is False

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_policy_config("nonsense=1\n")

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            parse_policy_config("f=0\n")
        with pytest.raises(ConfigError):
            parse_policy_config("patience=-1\n")

    @pytest.mark.parametrize(
        "line",
        [
            "patience=0",
            "patience=nan",
            "batch_width=0",
            "swap_ceiling=-1",
            "solver_node_limit=-1",
            "solver_wall_ms=-1",
            "remap_limit=-1",
            "batch_min_pending=-1",
        ],
    )
    def test_out_of_range_rejected(self, line):
        with pytest.raises(ConfigError):
            parse_policy_config(line + "\n")

    def test_unbounded_patience_and_zero_limits_allowed(self):
        text = "patience=inf\nswap_ceiling=0\nsolver_wall_ms=0\nremap_limit=0\n"
        pol = parse_policy_config(text)
        assert pol.patience == float("inf") and pol.swap_ceiling == 0

    def test_hash_stable(self):
        assert PolicyConfig().policy_hash() == PolicyConfig().policy_hash()
        assert PolicyConfig().policy_hash() != PolicyConfig(batch_width=2).policy_hash()
