"""Embedding state: feasibility checks, commit/release, residuals, audit."""

import random
from dataclasses import replace

import pytest

from conftest import SWEEP_MODES, chain_request, fresh_rack_share, make_rack_net, star_request
from oracles import fragments_bfs, recheck_embedding, residual_fold
from vdcembed.errors import (
    AuditError,
    CommitRejectedError,
    InvalidParameterError,
    UnknownElementError,
)
from vdcembed.online_search import (
    OnlineResult,
    _swap_in,
    compute_fragments,
    greedy_temp_map,
    try_online_embed,
)
from vdcembed.paths import enumerate_paths
from vdcembed.state import Assignment, EmbeddingState
from vdcembed.topology import ResourceVector, WorkloadConfig, build_fat_tree, generate_vdc_request


def assign_star(net, table, req, edge_switch, server):
    """Hand-build the obvious assignment of a star request onto one rack."""
    vm_map = {vm_id: server for vm_id in req.vms}
    vs_map = {"vs0": edge_switch}
    vl_map = {vl_id: (edge_switch, server, 0) for vl_id in req.vlinks}
    return Assignment(req.id, vm_map, vs_map, vl_map)


class TestCheckAssignment:
    def test_feasible_on_empty_substrate(self, k2_state):
        req = star_request("r0", n_vms=1)
        a = assign_star(k2_state.net, k2_state.table, req, "e0_0", "s0")
        assert k2_state.check_assignment(req, a) == []

    def test_vswitch_collision_named(self, k2_state):
        req = chain_request("r0", n_vswitches=2, vms_per_switch=1)
        a = Assignment(
            "r0",
            {"vm0": "s0", "vm1": "s0"},
            {"vs0": "e0_0", "vs1": "e0_0"},
            {
                "vl0": ("e0_0", "e0_0", 0),
                "vl1": ("e0_0", "s0", 0),
                "vl2": ("e0_0", "s0", 0),
            },
        )
        rules = [v.rule for v in k2_state.check_assignment(req, a)]
        assert "vswitch-collision" in rules

    def test_capacity_overflow_quantified(self):
        net = make_rack_net(n_servers=1, cores=3)
        table = enumerate_paths(net)
        state = EmbeddingState(net, table)
        req = star_request("r0", n_vms=2, cores=2)
        a = assign_star(net, table, req, "e0", "s0")
        found = state.check_assignment(req, a)
        assert len(found) == 1
        v = found[0]
        assert v.rule == "server-capacity" and not v.structural
        assert v.overflow == ResourceVector(cpu_cores=1, memory_mb=0)

    def test_overflow_on_every_kind_listed_in_order(self):
        net = make_rack_net(n_servers=1, cores=3, switch_mem=5, link_bw=50)
        table = enumerate_paths(net)
        state = EmbeddingState(net, table)
        req = star_request("r0", n_vms=2, cores=2, vswitch_mem=10, vlink_bw=30)
        a = assign_star(net, table, req, "e0", "s0")
        found = [(v.rule, v.element, v.overflow) for v in state.check_assignment(req, a)]
        assert found == [
            ("server-capacity", "s0", ResourceVector(cpu_cores=1)),
            ("switch-capacity", "e0", ResourceVector(switch_memory=5)),
            ("link-capacity", "l0", ResourceVector(bandwidth=10)),
        ]

    def test_dangling_reference_raises(self, k2_state):
        req = star_request("r0")
        a = Assignment("r0", {"vm0": "nosuch"}, {"vs0": "e0_0"}, {"vl0": ("e0_0", "s0", 0)})
        with pytest.raises(UnknownElementError):
            k2_state.check_assignment(req, a)

    @pytest.mark.parametrize(
        "field, key, host, message",
        [
            ("vswitch_map", "vs9", "e0_1", "vswitch vs9 not in request r0"),
            ("vswitch_map", "vs0", "nosuch", "switch nosuch not in substrate"),
            ("vlink_map", "vl9", ("e0_0", "s0", 0), "vlink vl9 not in request r0"),
        ],
        ids=["unknown-vswitch", "unknown-switch", "unknown-vlink"],
    )
    def test_unknown_ids_raise(self, k2_state, field, key, host, message):
        req = star_request("r0")
        a = assign_star(k2_state.net, k2_state.table, req, "e0_0", "s0")
        a = replace(a, **{field: {**getattr(a, field), key: host}})
        with pytest.raises(UnknownElementError, match=message):
            k2_state.structural_findings(req, a)

    def test_edge_tier_enforced(self, k2_state):
        req = star_request("r0")
        a = Assignment("r0", {"vm0": "s0"}, {"vs0": "c0_0"}, {"vl0": ("c0_0", "s0", 0)})
        rules = {v.rule for v in k2_state.check_assignment(req, a)}
        assert "edge-tier" in rules

    def test_matches_independent_recheck_on_fuzz(self, k2_net, k2_table):
        rng = random.Random(555)
        edge_ids = sorted(s for s in k2_net.switches if k2_net.switches[s].tier == "edge")
        for trial in range(60):
            state = EmbeddingState(k2_net, k2_table)
            placed = []
            for i in range(rng.randint(1, 3)):
                req = star_request(f"r{i}", n_vms=rng.randint(1, 2), cores=rng.randint(1, 6))
                edge = rng.choice(edge_ids)
                server = k2_net.servers_under(edge)[0]
                a = assign_star(k2_net, k2_table, req, edge, server)
                strict = state.check_assignment(req, a)
                independent = recheck_embedding(
                    k2_net, k2_table, [(r, x) for r, x in placed] + [(req, a)]
                )
                assert (strict == []) == (independent == [])
                if not strict:
                    state.commit(req, a)
                    placed.append((req, a))

    def cross_pod_chain(self, **options):
        """A chain request from the s0 rack to the s14 rack over core c0_0."""
        req = chain_request("r0", n_vswitches=2, vms_per_switch=1, **options)
        a = Assignment(
            "r0",
            {"vm0": "s0", "vm1": "s14"},
            {"vs0": "e0_0", "vs1": "e3_1"},
            {
                "vl0": ("e0_0", "e3_1", 0),  # e0_0-a0_0-c0_0-a3_0-e3_1, delay 4
                "vl1": ("e0_0", "s0", 0),
                "vl2": ("e3_1", "s14", 0),
            },
        )
        return req, a

    def assert_rejected_with(self, state, req, a, expected):
        found = [(v.rule, v.element, v.structural) for v in state.check_assignment(req, a)]
        assert found == [(rule, element, True) for rule, element in expected]
        residual = dict(state.residual)
        with pytest.raises(CommitRejectedError):
            state.commit(req, a)
        assert state.residual == residual and not state.active

    def test_path_through_down_switch_is_element_down(self, k4_state):
        req, a = self.cross_pod_chain()
        k4_state.mark_down(["c0_0"])
        found = k4_state.check_assignment(req, a)
        assert [(v.rule, v.element) for v in found] == [("element-down", "c0_0")]
        with pytest.raises(CommitRejectedError):
            k4_state.commit(req, a)

    def test_path_between_other_hosts_is_endpoint_mismatch(self, k4_state):
        # vl0's path ends at s1, but vm0 sits on s0
        req = star_request("r0")
        a = Assignment("r0", {"vm0": "s0"}, {"vs0": "e0_0"}, {"vl0": ("e0_0", "s1", 0)})
        self.assert_rejected_with(k4_state, req, a, [("endpoint-mismatch", "vl0")])

    def test_path_over_the_latency_bound(self, k4_state):
        req, a = self.cross_pod_chain(latency_bound=3)
        self.assert_rejected_with(k4_state, req, a, [("latency-bound", "vl0")])
        req, a = self.cross_pod_chain(latency_bound=4)
        assert k4_state.check_assignment(req, a) == []

    def test_vm_outside_its_locality_set(self, k4_state):
        req, a = self.cross_pod_chain(locality={"vm0": frozenset({"s1"}), "vm1": frozenset({"s14"})})
        self.assert_rejected_with(k4_state, req, a, [("locality", "vm0")])

    @pytest.mark.parametrize(
        "key",
        [("e0_0", "s0", 7), ("e0_0", "s0", -1), ("e0_0", "s1", 0)],
        ids=["index-past-the-list", "negative-index", "unrecorded-pair"],
    )
    def test_unknown_path_key(self, k2_state, key):
        # (e0_0, s0) has one path, and no path is recorded for (e0_0, s1):
        # s1 hangs off e1_0. An index of -1 must not wrap to the last path.
        req = star_request("r0")
        a = Assignment("r0", {"vm0": "s0"}, {"vs0": "e0_0"}, {"vl0": key})
        found = k2_state.check_assignment(req, a)
        assert [str(v) for v in found] == [f"[unknown-path] vl0 ({','.join(map(str, key))})"]
        assert list(k2_state.usage(req, a)) == ["s0", "e0_0"]
        self.assert_rejected_with(k2_state, req, a, [("unknown-path", "vl0")])


def summed_loads(state, req, a):
    """The per-element sum of loads(req, a), keys in first-occurrence order."""
    out = {}
    for _, eid, load in state.loads(req, a):
        out[eid] = out[eid] + load if eid in out else load
    return out


class TestUsage:
    """usage(req, a) is the per-element sum of loads(req, a): the same keys
    in the same order, each value a ResourceVector."""

    @staticmethod
    def assert_sums_loads(state, req, a):
        usage, expected = state.usage(req, a), summed_loads(state, req, a)
        assert list(usage.items()) == list(expected.items())
        assert {type(v) for v in usage.values()} <= {ResourceVector}

    def test_every_assignment_the_sweep_commits(self, sweep_runs, k4_net, k4_table):
        state = EmbeddingState(k4_net, k4_table)
        assert len(sweep_runs.committed) > 1000
        for req, a in sweep_runs.committed:
            self.assert_sums_loads(state, req, a)

    @pytest.mark.parametrize(
        "key",
        [("e0_0", "s0", 7), ("e0_0", "s0", -1), ("e0_0", "s1", 0)],
        ids=["index-past-the-list", "negative-index", "unrecorded-pair"],
    )
    def test_unknown_path_key_adds_nothing(self, k2_state, key):
        req = star_request("r0", n_vms=2)
        a = Assignment(
            "r0", {"vm0": "s0", "vm1": "s0"}, {"vs0": "e0_0"},
            {"vl0": key, "vl1": ("e0_0", "s0", 0)},
        )
        self.assert_sums_loads(k2_state, req, a)
        assert list(k2_state.usage(req, a)) == ["s0", "e0_0", "l1"]


class TestCommitRelease:
    def test_commit_release_identity(self, k2_state):
        before = dict(k2_state.residual)
        req = star_request("r0", n_vms=2)
        a = assign_star(k2_state.net, k2_state.table, req, "e0_0", "s0")
        k2_state.commit(req, a)
        assert k2_state.residual != before
        k2_state.release("r0")
        assert k2_state.residual == before

    def test_overcommit_rejected_and_unchanged(self):
        net = make_rack_net(n_servers=1, cores=4, link_bw=50)
        table = enumerate_paths(net)
        state = EmbeddingState(net, table)
        req = star_request("r0", n_vms=1, vlink_bw=100)
        a = assign_star(net, table, req, "e0", "s0")
        before = dict(state.residual)
        with pytest.raises(CommitRejectedError) as err:
            state.commit(req, a)
        assert any(v.rule == "link-capacity" for v in err.value.violations)
        assert state.residual == before
        assert state.active == {}

    def test_residual_after_single_vm(self, k2_state):
        req = star_request("r0", n_vms=1, cores=1, mem=256)
        a = assign_star(k2_state.net, k2_state.table, req, "e0_0", "s0")
        k2_state.commit(req, a)
        assert k2_state.residual["s0"] == ResourceVector(cpu_cores=7, memory_mb=16128)

    def test_commit_of_an_active_id_rejected_and_unchanged(self, k2_state):
        req = star_request("r0", n_vms=1)
        a = assign_star(k2_state.net, k2_state.table, req, "e0_0", "s0")
        k2_state.commit(req, a)
        before = dict(k2_state.residual)
        with pytest.raises(InvalidParameterError):
            k2_state.commit(req, a)
        assert k2_state.residual == before
        k2_state.audit()

    def test_release_unknown(self, k2_state):
        with pytest.raises(UnknownElementError):
            k2_state.release("ghost")


class TestResidualVectors:
    def test_empty_k4_totals(self, k4_state):
        # 16 core-agg links at 10000 plus 32 lower-tier links at 1000
        assert k4_state.residual_vectors() == ResourceVector(
            cpu_cores=128, memory_mb=262144, switch_memory=2000, bandwidth=16 * 10000 + 32 * 1000
        )

    def test_commit_decreases_by_demand_sum(self, k4_state):
        req = star_request("r0", n_vms=3, cores=2, mem=300)
        a = assign_star(k4_state.net, k4_state.table, req, "e0_0", "s0")
        before = k4_state.residual_vectors()
        k4_state.commit(req, a)
        after = k4_state.residual_vectors()
        # each of the three vlinks crosses one server link
        bw = sum(vl.bandwidth for vl in req.vlinks.values())
        assert before - after == ResourceVector(
            cpu_cores=6, memory_mb=900, switch_memory=10, bandwidth=bw
        )


class TestConservation:
    def test_random_commit_release_sequences(self, k2_net, k2_table):
        rng = random.Random(99)
        state = EmbeddingState(k2_net, k2_table)
        live = []
        edge_ids = sorted(s for s in k2_net.switches if k2_net.switches[s].tier == "edge")
        for step in range(200):
            if live and rng.random() < 0.4:
                rid = live.pop(rng.randrange(len(live)))
                state.release(rid)
            else:
                rid = f"r{step}"
                req = star_request(rid, n_vms=rng.randint(1, 2))
                edge = rng.choice(edge_ids)
                server = k2_net.servers_under(edge)[0]
                a = assign_star(k2_net, k2_table, req, edge, server)
                try:
                    state.commit(req, a)
                    live.append(rid)
                except CommitRejectedError:
                    pass
            state.audit()  # fold-from-scratch residuals must match exactly


class TestAudit:
    def test_structural_break_detected(self, k4_state):
        req = chain_request("r0", n_vswitches=2, vms_per_switch=1)
        a = Assignment(
            "r0",
            {"vm0": "s0", "vm1": "s14"},
            {"vs0": "e0_0", "vs1": "e3_1"},
            {"vl0": ("e0_0", "e3_1", 0), "vl1": ("e0_0", "s0", 0), "vl2": ("e3_1", "s14", 0)},
        )
        k4_state.commit(req, a)
        k4_state.audit()
        k4_state.mark_down(["c0_0"])  # an intermediate node of vl0's path
        with pytest.raises(AuditError, match="r0"):
            k4_state.audit()

    @pytest.mark.parametrize(
        "element, delta",
        [
            ("s0", ResourceVector(cpu_cores=1)),
            ("e0_0", ResourceVector(switch_memory=1)),
            ("l0", ResourceVector(bandwidth=1)),
            ("s0", ResourceVector(memory_mb=1)),
            ("c0_0", ResourceVector(switch_memory=1)),
            ("l1", ResourceVector(cpu_cores=1)),
        ],
        ids=["server", "switch", "link", "server-memory", "untouched", "off-kind"],
    )
    def test_residual_drift_detected(self, k2_state, element, delta):
        req = star_request("r0", n_vms=1)
        k2_state.commit(req, assign_star(k2_state.net, k2_state.table, req, "e0_0", "s0"))
        k2_state.residual[element] += delta
        with pytest.raises(AuditError, match="residuals drifted"):
            k2_state.audit()

    @pytest.mark.parametrize("drift", ["missing", "extra", "unknown-host"])
    def test_residual_ids_drift_detected(self, k2_state, drift):
        # the residual map lacks a substrate element, holds one the
        # substrate lacks, or an active loads one the substrate lacks
        req = star_request("r0", n_vms=1)
        k2_state.commit(req, assign_star(k2_state.net, k2_state.table, req, "e0_0", "s0"))
        if drift == "missing":
            del k2_state.residual["l0"]
        elif drift == "extra":
            k2_state.residual["s9"] = ResourceVector(cpu_cores=1)
        else:  # its one load is on s9, so every substrate element matches
            k2_state.active["g0"] = Assignment("g0", {"vm0": "s9"}, {}, {})
            k2_state.requests["g0"] = req
        with pytest.raises(AuditError, match="residuals drifted"):
            k2_state.audit()

    def test_negative_residual_detected(self, k2_state):
        # charged unchecked, as a refused swap's rollback charges: the
        # residuals equal the fold but s0 holds more than its capacity
        cores = k2_state.net.capacity["s0"].cpu_cores + 1
        req = star_request("r0", n_vms=1, cores=cores)
        a = assign_star(k2_state.net, k2_state.table, req, "e0_0", "s0")
        k2_state.charge(req, a, -1)
        k2_state.active["r0"], k2_state.requests["r0"] = a, req
        with pytest.raises(AuditError, match="negative residual on s0"):
            k2_state.audit()

    def test_free_total_drift_detected(self, k2_state):
        req = star_request("r0", n_vms=1)
        k2_state.commit(req, assign_star(k2_state.net, k2_state.table, req, "e0_0", "s0"))
        k2_state.free += ResourceVector(cpu_cores=1)
        with pytest.raises(AuditError, match="free total drifted"):
            k2_state.audit()


class TestApplyAndCopy:
    def test_swap_cycle_applies_in_any_order(self):
        net = make_rack_net(2, cores=4)
        table = enumerate_paths(net)
        state = EmbeddingState(net, table)
        x = star_request("x", cores=3)
        y = star_request("y", cores=3)
        state.commit(x, assign_star(net, table, x, "e0", "s0"))
        state.commit(y, assign_star(net, table, y, "e0", "s1"))
        order = list(state.active)
        state.apply(
            ["x", "y"],
            [
                (x, assign_star(net, table, x, "e0", "s1")),
                (y, assign_star(net, table, y, "e0", "s0")),
            ],
        )
        assert state.active["x"].vm_map["vm0"] == "s1"
        assert state.active["y"].vm_map["vm0"] == "s0"
        assert list(state.active) == order
        state.audit()

    def test_copy_is_independent(self, k2_state):
        req = star_request("r0", n_vms=1)
        k2_state.commit(req, assign_star(k2_state.net, k2_state.table, req, "e0_0", "s0"))
        clone = k2_state.copy()
        clone.release("r0")
        clone.mark_down(["s1"])
        assert "r0" in k2_state.active and "r0" not in clone.active
        assert k2_state.residual != clone.residual
        assert k2_state.down == set()
        clone.audit()
        k2_state.audit()

    def test_mark_down_checks_every_id_before_marking_any(self, k2_state):
        with pytest.raises(UnknownElementError, match="bogus"):
            k2_state.mark_down(["s0", "bogus"])
        assert (k2_state.down, k2_state.version) == (set(), 0)
        k2_state.mark_down(iter(["s0", "l0"]))
        assert (k2_state.down, k2_state.version) == ({"s0", "l0"}, 1)


class TestRackShares:
    """The share the state keeps per rack, minus its listed servers' summed
    free share, equals the sum taken afresh from the residuals, float for
    float: charge drops the share of each rack it loads, mark_down drops
    them all, and a copy keeps its own."""

    @staticmethod
    def kept(state):
        return {rack: state.rack_share(rack, servers) for rack, servers, _ in state.racks()}

    @staticmethod
    def fresh(state):
        return {rack: fresh_rack_share(state, rack) for rack, _, _ in state.racks()}

    def test_commit_and_release_drop_the_share_of_the_rack_they_load(self, k4_state):
        empty = self.kept(k4_state)
        req = star_request("r0", n_vms=2, cores=3)
        a = greedy_temp_map(k4_state, req).assignment
        k4_state.commit(req, a)
        loaded = self.kept(k4_state)
        assert loaded == self.fresh(k4_state)
        assert loaded[a.vswitch_map["vs0"]] > empty[a.vswitch_map["vs0"]]
        k4_state.release("r0")
        assert self.kept(k4_state) == self.fresh(k4_state) == empty

    def test_mark_down_drops_every_share(self, k4_state):
        full = self.kept(k4_state)
        k4_state.mark_down(["s0"])  # e0_0 now lists s1 alone
        assert self.kept(k4_state) == self.fresh(k4_state)
        assert self.kept(k4_state)["e0_0"] == full["e0_0"] / 2

    def test_a_probe_copys_charge_leaves_the_state_alone(self, k4_state):
        empty = self.kept(k4_state)
        req, other = star_request("r0", n_vms=2, cores=3), star_request("r1")
        first = repr(greedy_temp_map(k4_state, other))
        probe = k4_state.copy()
        probe.commit(req, greedy_temp_map(probe, req).assignment)
        assert self.kept(probe) == self.fresh(probe) != empty
        # the probe loaded the first rack by id, which the state still ranks first
        assert self.kept(k4_state) == self.fresh(k4_state) == empty
        assert repr(greedy_temp_map(k4_state, other)) == first

    @pytest.mark.parametrize("mode", SWEEP_MODES)
    def test_every_share_greedy_reads_in_the_sweep_is_the_fresh_sum(self, mode, sweep_runs):
        # 8,042 reads in online-only, 8,417 in the hybrid and 30,072 in
        # batch-only, whose plan probes run greedy on copies
        reads = sweep_runs.shares[mode]
        assert reads[False] == 0
        assert reads[True] > 1000


class TestLastCleanCheck:
    """commit takes the state's last clean check of the same request and
    assignment objects for its own, and charge the usage that check
    computed; any change to the residuals or to down makes commit check
    again."""

    @staticmethod
    def rack(n_servers=1):
        """A state on one rack of 3-core servers, and a 2-core star request
        placed on s0 with its assignment."""
        net = make_rack_net(n_servers, cores=3)
        table = enumerate_paths(net)
        req = star_request("r0", cores=2)
        return EmbeddingState(net, table), req, assign_star(net, table, req, "e0", "s0")

    def test_commit_after_a_clean_check_checks_and_folds_once(self, state_calls):
        state, req, a = self.rack()
        assert state.check_assignment(req, a) == []
        state.commit(req, a)
        assert (state_calls["check_assignment"], state_calls["usage"]) == (1, 1)
        state.audit()

    def test_another_commit_takes_the_room(self, state_calls):
        state, req, a = self.rack()
        other = star_request("r1", cores=2)
        assert state.check_assignment(req, a) == []
        state.commit(other, assign_star(state.net, state.table, other, "e0", "s0"))
        state_calls.clear()
        with pytest.raises(CommitRejectedError, match="server-capacity"):
            state.commit(req, a)
        assert state_calls["check_assignment"] == 1

    def test_mark_down_of_a_used_host(self, state_calls):
        state, req, a = self.rack()
        assert state.check_assignment(req, a) == []
        state.mark_down(["s0"])
        with pytest.raises(CommitRejectedError, match="element-down"):
            state.commit(req, a)
        assert state_calls["check_assignment"] == 2

    def test_swap_in_rollback(self, state_calls):
        # x and y take 2 of 3 cores on s0 and s1; x cannot move onto s1
        state, _, _ = self.rack(n_servers=2)
        x, y = star_request("x", cores=2), star_request("y", cores=2)
        state.commit(x, assign_star(state.net, state.table, x, "e0", "s0"))
        state.commit(y, assign_star(state.net, state.table, y, "e0", "s1"))
        small = star_request("r0", cores=1)
        a = assign_star(state.net, state.table, small, "e0", "s0")
        assert state.check_assignment(small, a) == []
        assert not _swap_in(state, assign_star(state.net, state.table, x, "e0", "s1"))
        state_calls.clear()
        state.commit(small, a)
        assert state_calls["check_assignment"] == 1
        state.audit()

    def test_rollback_charge_takes_the_room(self, state_calls):
        # the room a release freed is checked, then charged back unchecked,
        # as _swap_in's rollback does
        state, req, a = self.rack()
        x = star_request("x", cores=2)
        state.commit(x, assign_star(state.net, state.table, x, "e0", "s0"))
        old = state.release("x")
        assert state.check_assignment(req, a) == []
        state.charge(x, old, -1)
        state_calls.clear()
        with pytest.raises(CommitRejectedError, match="server-capacity"):
            state.commit(req, a)
        assert state_calls["check_assignment"] == 1

    @pytest.mark.parametrize("change", ["commit", "mark_down"])
    def test_change_on_a_copy(self, state_calls, change):
        state, req, a = self.rack()
        assert state.check_assignment(req, a) == []
        clone = state.copy()
        if change == "commit":
            other = star_request("r1", cores=2)
            clone.commit(other, assign_star(state.net, state.table, other, "e0", "s0"))
        else:
            clone.mark_down(["s0"])
        state_calls.clear()
        with pytest.raises(CommitRejectedError):
            clone.commit(req, a)
        assert state_calls["check_assignment"] == 1
        # the original's residuals did not change, so its check stands
        state.commit(req, a)
        assert state_calls["check_assignment"] == 1
        state.audit()

    def test_equal_but_distinct_assignment_is_checked(self, state_calls):
        state, req, a = self.rack()
        assert state.check_assignment(req, a) == []
        twin = replace(a)
        assert twin == a and twin is not a
        state.commit(req, twin)
        assert state_calls["check_assignment"] == 2


class TestChargedUsage:
    """A release credits back the usage its commit charged, which the state
    keeps per active request; audit folds every load afresh and never reads
    that store."""

    @staticmethod
    def cross_pod():
        """A chain request across two pods and its assignment on the k=4 tree."""
        req = chain_request("r0", n_vswitches=2, vms_per_switch=1, vlink_bw=30)
        a = Assignment(
            "r0",
            {"vm0": "s0", "vm1": "s14"},
            {"vs0": "e0_0", "vs1": "e3_1"},
            {"vl0": ("e0_0", "e3_1", 0), "vl1": ("e0_0", "s0", 0), "vl2": ("e3_1", "s14", 0)},
        )
        return req, a

    @staticmethod
    def sums(state):
        return dict(state.residual), state.free

    def test_release_restores_residuals_and_free(self, k4_state):
        empty = self.sums(k4_state)
        req, a = self.cross_pod()
        k4_state.commit(req, a)
        loaded = self.sums(k4_state)
        assert loaded != empty
        clone = k4_state.copy()
        clone.release("r0")
        assert self.sums(clone) == empty
        assert self.sums(k4_state) == loaded  # the copy's release left it alone
        # a refused swap puts the old placement and its usage back
        assert not _swap_in(k4_state, Assignment("r0", {}, {}, {}))
        assert self.sums(k4_state) == loaded
        k4_state.audit()
        k4_state.release("r0")
        assert self.sums(k4_state) == empty
        k4_state.audit()
        clone.audit()

    def test_charged_is_the_usage_the_commit_took(self, k4_state):
        req, a = self.cross_pod()
        k4_state.commit(req, a)
        assert k4_state.charged("r0") == k4_state.usage(req, a)
        k4_state.release("r0")
        with pytest.raises(KeyError):
            k4_state.charged("r0")

    def test_wrong_stored_usage_fails_the_audit(self, k2_state):
        req = star_request("r0", n_vms=1)
        k2_state.commit(req, assign_star(k2_state.net, k2_state.table, req, "e0_0", "s0"))
        stored = k2_state._charged["r0"]
        k2_state._charged["r0"] = {**stored, "s0": stored["s0"] + ResourceVector(cpu_cores=1)}
        k2_state.audit()  # the loads folded afresh still match the residuals
        k2_state.release("r0")
        with pytest.raises(AuditError, match="drifted"):
            k2_state.audit()


class TestRunningSums:
    """The state's running free and fragments against the oracles' folds
    from scratch, on the tight k=4 tree of TestPinnedOutputs. The largest
    fragment's free vector is what the running free leaves after every
    other fragment and every up element in none, so the counts show
    states with both."""

    def assert_sums(self, state, counts):
        assert state.residual_vectors() == residual_fold(state)
        fragments = compute_fragments(state)
        assert [(set(n), set(l), free) for n, l, free in fragments] == fragments_bfs(state)
        counts["split"] += len(fragments) >= 2
        counts["outside"] += bool(state._fragments[1])  # the up elements in no fragment

    def step(self, rng, state, cfg, rid, counts):
        """One random change to state: an arrival embedded online, a
        release, a failure (with an element already down when there is
        one) or a refused swap whose release is rolled back."""
        roll = rng.random()
        if roll < 0.5 or not state.active:
            req = replace(generate_vdc_request(cfg, 0.0, rng.randrange(10**9)), id=rid)
            result = try_online_embed(state, req)
            if isinstance(result, OnlineResult):
                updates = result.incumbent_updates
                commits = [(state.requests[r], a) for r, a in updates.items()]
                state.apply(list(updates), commits + [(req, result.assignment)])
                counts["commit"] += 1
        elif roll < 0.7:
            state.release(rng.choice(sorted(state.active)))
            counts["release"] += 1
        elif roll < 0.85:
            failed = [rng.choice(sorted(state.net.capacity))]
            if state.down:
                failed.append(rng.choice(sorted(state.down)))
                counts["down again"] += 1
            state.mark_down(failed)
        else:
            # an empty assignment leaves every element unmapped, so commit refuses it
            assert not _swap_in(state, Assignment(rng.choice(sorted(state.active)), {}, {}, {}))
            counts["rollback"] += 1

    SEEDS = range(4)

    @pytest.fixture(scope="class")
    def walks(self):
        return {}  # seed -> its walk's counts, so each seed is walked once

    def walk(self, walks, seed):
        """60 random steps from an empty state, each checked against the
        oracles, with a copy taking three steps of its own now and then;
        the counts of what the steps did and what the checks saw."""
        if seed in walks:
            return walks[seed]
        rng = random.Random(seed)
        net = build_fat_tree(
            4, server_capacity=ResourceVector(cpu_cores=6, memory_mb=3000), switch_memory=60
        )
        state = EmbeddingState(net, enumerate_paths(net))
        cfg = WorkloadConfig(vm_count=(2, 12), vswitch_count=(2, 4))
        counts = dict.fromkeys(
            ("commit", "release", "down again", "rollback", "copy", "split", "outside"), 0
        )
        for n in range(60):
            if rng.random() < 0.2:
                # a copy takes three steps, and the original keeps its sums
                before = (state.residual_vectors(), compute_fragments(state))
                clone = state.copy()
                for i in range(3):
                    self.step(rng, clone, cfg, f"c{n}_{i}", counts)
                    self.assert_sums(clone, counts)
                assert (state.residual_vectors(), compute_fragments(state)) == before
                counts["copy"] += 1
            else:
                self.step(rng, state, cfg, f"r{n}", counts)
            self.assert_sums(state, counts)
        walks[seed] = counts
        return counts

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_steps_match_the_oracles(self, walks, seed):
        counts = self.walk(walks, seed)
        # seed 3's walk never splits the substrate: the next test sums them
        assert all(n for step, n in counts.items() if step != "split"), counts

    def test_the_walks_check_split_states(self, walks):
        assert sum(self.walk(walks, seed)["split"] for seed in self.SEEDS) > 0


class TestMovesTo:
    def test_vm_vswitch_and_vlink_changes_in_kind_order(self):
        old = Assignment(
            "r",
            {"vm0": "s0", "vm1": "s1"},
            {"vs0": "e0", "vs1": "a0"},
            {"vl0": ("e0", "s0", 0), "vl1": ("e0", "s1", 0), "vl2": ("e0", "a0", 0)},
        )
        new = Assignment(
            "r",
            {"vm0": "s2", "vm1": "s1"},
            {"vs0": "e0", "vs1": "a1"},
            {"vl0": ("e0", "s2", 0), "vl1": ("e0", "s1", 0), "vl2": ("e0", "a1", 1)},
        )
        assert old.moves_to(new) == [
            ("vm", "vm0", "s0", "s2"),
            ("vswitch", "vs1", "a0", "a1"),
            ("vlink", "vl0", "-", "-"),
            ("vlink", "vl2", "-", "-"),
        ]
        assert old.moves_to(old) == []

    def test_vm_moved_away_and_back_gives_no_record(self):
        def on(server):
            return Assignment("r", {"vm0": server}, {"vs0": "e0"}, {"vl0": ("e0", server, 0)})

        first, away, back = on("s0"), on("s1"), on("s0")
        assert first.moves_to(away) == [("vm", "vm0", "s0", "s1"), ("vlink", "vl0", "-", "-")]
        assert away.moves_to(back) == [("vm", "vm0", "s1", "s0"), ("vlink", "vl0", "-", "-")]
        assert first.moves_to(back) == []


class TestFreePath:
    def test_credit_extra_avoid_and_down(self, k4_state):
        # four e0_0 -> e3_1 paths; 0 and 1 share a0_0 and a3_0
        table = k4_state.table
        recs = table.get("e0_0", "e3_1")
        _, edges0, _ = recs[0]
        first_link = edges0[0]  # e0_0-a0_0, on paths 0 and 1
        assert k4_state.free_path("e0_0", "e3_1", 1000) == 0
        assert k4_state.free_path("e0_0", "e3_1", 1000, avoid=first_link) == 2
        extra = {first_link: ResourceVector(bandwidth=500)}
        assert k4_state.free_path("e0_0", "e3_1", 600, extra=extra) == 2
        assert k4_state.free_path("e0_0", "e3_1", 600, credit=edges0, extra=extra) == 0
        k4_state.mark_down(["c0_0"])
        assert k4_state.free_path("e0_0", "e3_1", 10) == 1
        assert k4_state.free_path("e0_0", "e3_1", 10, latency_bound=3) is None
