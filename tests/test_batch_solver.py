"""Batch solver: model shape, exactness against exhaustive enumeration, plans."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import chain_request, exactness_instances, make_rack_net, star_request, vm_first
from oracles import best_joint_objective, hop_distance_bfs, recheck_embedding
from vdcembed.batch_solver import (
    KIND_W,
    KIND_X,
    KIND_Z,
    SolveBudget,
    _Search,
    build_mip,
    extract_assignments,
    solve_exact,
)
from vdcembed.errors import InvalidParameterError, StaleSnapshotError
from vdcembed.online_search import greedy_temp_map, plan_batch
from vdcembed.paths import admissible, enumerate_paths
from vdcembed.state import Assignment, EmbeddingState
from vdcembed.topology import (
    ResourceVector,
    SubstrateNetwork,
    WorkloadConfig,
    build_fat_tree,
    generate_vdc_request,
)


def fresh_state(net):
    return EmbeddingState(net, enumerate_paths(net))


def tight_k4(racks=("e0_0",)):
    """k=4 with 4-core servers where only the edge switches in racks have the
    memory to host a vSwitch, so requests contend for their servers; the
    topology, and so the path table, is that of build_fat_tree(4)."""
    net = build_fat_tree(4, server_capacity=ResourceVector(cpu_cores=4, memory_mb=8192))
    switches = {
        sid: replace(sw, capacity=ResourceVector(switch_memory=2))
        if sw.tier == "edge" and sid not in racks
        else sw
        for sid, sw in net.switches.items()
    }
    return SubstrateNetwork(net.servers, switches, net.links, k_arity=4)


def apply_plan(state, plan):
    state.apply(plan.releases, plan.commits)


def plan_of(sol, state):
    """The commit plan of a solution against the state its model was built on."""
    return extract_assignments(sol.model.requests, sol.embedded, state, sol.model.state_version)


def plan_for(state, model, re_place=False):
    """plan_batch's answer to the pass a model encodes."""
    n = len(model.remappable)
    return plan_batch(state, model.requests[n:], list(model.remappable), re_place)


def rescanned_bound(search):
    """_Search.upper_bound recomputed by a full rescan of every penalized
    var: a request not ruled out adds, per element not yet placed, the best
    coefficient among its free vars; an undecided one only when it gains."""
    m, values = search.m, search.values
    ub = search.obj_acc
    for u, zi in enumerate(m.z_of_request):
        if values[zi] == 0:
            continue
        pend = sum(
            max((m.obj_coef[v] for v in vis if values[v] == -1), default=0)
            for vis in m.penalized[u]
            if all(values[v] != 1 for v in vis)
        )
        ub += pend if values[zi] == 1 else max(0, m.obj_scale + pend)
    return ub


@pytest.fixture
def bound_checks(monkeypatch):
    """Check the incremental bound against the rescan after every decision
    and every undo; the list returned grows by one per check."""
    checks = []

    def checked(method):
        def run(search, *args):
            out = method(search, *args)
            assert search.upper_bound() == rescanned_bound(search)
            checks.append(search.nodes)
            return out

        return run

    monkeypatch.setattr(_Search, "decide", checked(_Search.decide))
    monkeypatch.setattr(_Search, "undo_to", checked(_Search.undo_to))
    return checks


def vars_of_kind(model, kind):
    return [i for i, v in enumerate(model.vars) if v.kind == kind]


class TestBuildMip:
    def test_variable_counts_single_star_on_k2(self, k2_state):
        req = star_request("r0", n_vms=1)
        model = build_mip(k2_state, [req])
        assert len(vars_of_kind(model, KIND_Z)) == 1
        assert len(vars_of_kind(model, KIND_W)) == 2  # every server
        assert len(vars_of_kind(model, KIND_X)) == 2  # edge switches only
        # one tie row per w: w[vm, s] - x[vs0, edge(s)] <= 0
        x_of = {model.vars[i].host: i for i in vars_of_kind(model, KIND_X)}
        for wi in vars_of_kind(model, KIND_W):
            ties = [r for r, _ in model.var_rows[wi] if len(model.row_vars[r]) == 2
                    and not model.row_eq[r]]
            assert len(ties) == 1
            edge = k2_state.net.edge_switch_of(model.vars[wi].host)
            assert model.row_vars[ties[0]] == [wi, x_of[edge]]
            assert model.row_coefs[ties[0]] == [1, -1] and model.row_rhs[ties[0]] == 0
        # rows: placement of z's elements (2), ties (2), capacity rows:
        # 2 servers x 2 dimensions, 2 switches, 2 server links
        assert model.num_constraints == 2 + 2 + 4 + 2 + 2

    def test_zero_latency_bound_forces_unembedded(self, k2_state):
        req = chain_request("r0", n_vswitches=2, vms_per_switch=1, latency_bound=0)
        model = build_mip(k2_state, [req])
        sol = solve_exact(model)
        assert sol.optimal
        assert sol.embedded["r0"] is None
        assert sol.objective == 0

    def test_pinning_constraint_verbatim(self, k2_state):
        req = star_request("r0", locality={"vm0": frozenset({"s1"})})
        model = build_mip(k2_state, [req])
        w_vars = vars_of_kind(model, KIND_W)
        assert len(w_vars) == 1
        assert model.vars[w_vars[0]].host == "s1"
        # the placement row degenerates to w - z = 0
        rows = [
            r for r in range(model.num_constraints)
            if model.row_eq[r] and w_vars[0] in model.row_vars[r]
        ]
        assert len(rows) == 1
        row = rows[0]
        assert model.row_vars[row] == [w_vars[0], model.z_of_request[0]]
        assert model.row_coefs[row] == [1, -1]
        assert model.row_rhs[row] == 0
        sol = solve_exact(model)
        assert sol.embedded["r0"].vm_map["vm0"] == "s1"

    def test_empty_candidates_rejected(self, k2_state):
        with pytest.raises(InvalidParameterError):
            build_mip(k2_state, [])

    def test_remappable_that_is_not_active_rejected(self, k2_state):
        req = star_request("r0")
        k2_state.commit(req, greedy_temp_map(k2_state, req).assignment)
        build_mip(k2_state, [star_request("r1")], remappable=["r0"])
        with pytest.raises(InvalidParameterError, match="remappable request r9 is not active"):
            build_mip(k2_state, [star_request("r1")], remappable=["r0", "r9"])

    def test_nonpositive_divisor_rejected(self, k2_state):
        with pytest.raises(InvalidParameterError):
            build_mip(k2_state, [star_request("r0")], switch_penalty_divisor=0)

    @pytest.mark.parametrize("remap", [False, True], ids=["fresh", "remap"])
    def test_rows_hold_at_solved_point(self, k2_state, remap):
        remappable = []
        if remap:
            r0 = star_request("r0", n_vms=2, cores=2, mem=4096)
            apply_plan(k2_state, plan_of(solve_exact(build_mip(k2_state, [r0])), k2_state))
            remappable = ["r0"]
        req = star_request("r1", n_vms=2, cores=3)
        model = build_mip(k2_state, [req], remappable=remappable)
        sol = solve_exact(model)
        assert sol.optimal
        x = [_var_value(model, sol, i) for i in range(model.num_vars)]
        for r in range(model.num_constraints):
            total = sum(c * x[v] for v, c in zip(model.row_vars[r], model.row_coefs[r]))
            if model.row_eq[r]:
                assert total == model.row_rhs[r], r
            else:
                assert total <= model.row_rhs[r], r
        scaled = sum(c * xi for c, xi in zip(model.obj_coef, x))
        assert sol.objective == Fraction(scaled, model.obj_scale)

    def test_remappable_usage_is_credited_from_the_commit(self, k2_state, state_calls):
        r0 = star_request("r0", n_vms=2, cores=2, vlink_bw=30)
        k2_state.commit(r0, Assignment(
            "r0", {"vm0": "s0", "vm1": "s0"}, {"vs0": "e0_0"},
            {"vl0": ("e0_0", "s0", 0), "vl1": ("e0_0", "s0", 0)},
        ))
        assert k2_state.residual["l1"].bandwidth < k2_state.net.links["l1"].bandwidth
        state_calls.clear()
        model = build_mip(k2_state, [star_request("r1")], remappable=["r0"])
        # r0's stored usage comes back whole, with no fold of its loads
        assert state_calls["usage"] == 0
        assert model.room == {lid: link.bandwidth for lid, link in k2_state.net.links.items()}

    def test_tie_rows_fix_off_rack_servers(self, k4_state):
        model = build_mip(k4_state, [star_request("r0", n_vms=2)])
        w_vars = vars_of_kind(model, KIND_W)
        assert len(w_vars) == 32  # 2 VMs x 16 servers
        x_e00 = next(
            i for i in vars_of_kind(model, KIND_X) if model.vars[i].host == "e0_0"
        )
        search = _Search(model)
        assert search.decide(model.z_of_request[0], 1)
        assert search.decide(x_e00, 1)
        rack = set(k4_state.net.servers_under("e0_0"))
        off_rack = [i for i in w_vars if model.vars[i].host not in rack]
        assert len(off_rack) == 28
        assert all(search.values[i] == 0 for i in off_rack)
        assert all(search.values[i] == -1 for i in w_vars if i not in off_rack)

    def test_no_w_where_the_uplink_fails_the_rule(self, k4_state):
        k4_state.mark_down(["l2"])  # e0_0 - s0
        model = build_mip(k4_state, [star_request("r0"), star_request("r1", latency_bound=0)])
        hosts = {(model.vars[i].request_id, model.vars[i].host) for i in vars_of_kind(model, KIND_W)}
        assert ("r0", "s0") not in hosts and len(hosts) == 15
        sol = solve_exact(model)
        assert sol.embedded["r0"] is not None and sol.embedded["r1"] is None

    def test_vm_first_uplinks_take_server_first_keys(self, k4_state):
        # every uplink lists its VM first, so its key runs server -> edge switch
        req = vm_first(chain_request("r0", n_vswitches=3, vms_per_switch=2))
        temp = greedy_temp_map(k4_state, req)
        sol = solve_exact(build_mip(k4_state, [req]))
        edge_of = k4_state.net.edge_switch_of
        for a in (temp.assignment, sol.embedded["r0"]):
            keys = {vm: a.vlink_map[vl.id] for vm, vl in req.uplinks.items()}
            assert keys == {vm: (s, edge_of(s), 0) for vm, s in a.vm_map.items()}
            assert k4_state.check_assignment(req, a) == []

    @pytest.mark.parametrize("k", [2, 4])
    def test_var_rows_is_transpose_of_rows(self, k):
        rng = random.Random(500 + k)
        net = build_fat_tree(k)
        state = fresh_state(net)
        cfg = WorkloadConfig(vm_count=(1, 4), vswitch_count=(1, 3))
        reqs = [
            replace(generate_vdc_request(cfg, 0.0, f"vr/{k}/{i}"), id=f"r{i}") for i in range(6)
        ]
        for req in reqs[:3]:
            apply_plan(state, plan_of(solve_exact(build_mip(state, [req])), state))
        assert state.active
        state.mark_down([rng.choice(sorted(net.servers)), rng.choice(sorted(net.links))])
        model = build_mip(state, reqs[3:], remappable=sorted(state.active))
        assert model.penalized and any(model.penalized)
        transpose = [[] for _ in range(model.num_vars)]
        for r in range(model.num_constraints):
            for v, c in zip(model.row_vars[r], model.row_coefs[r]):
                transpose[v].append((r, c))
        assert model.var_rows == transpose


def _var_value(model, sol, idx):
    info = model.vars[idx]
    a = sol.embedded.get(info.request_id)
    if info.kind == KIND_Z:
        return 1 if a is not None else 0
    if a is None:
        return 0
    if info.kind == KIND_W:
        return 1 if a.vm_map.get(info.element_id) == info.host else 0
    return 1 if a.vswitch_map.get(info.element_id) == info.host else 0


class TestSolveExact:
    def test_trivial_fit(self, k2_state):
        req = star_request("r0")
        sol = solve_exact(build_mip(k2_state, [req]))
        assert sol.status == "optimal" and sol.optimal
        assert sol.objective == 1
        plan = plan_of(sol, k2_state)
        apply_plan(k2_state, plan)
        k2_state.audit()

    def test_two_requests_one_server(self):
        net = make_rack_net(n_servers=1, cores=8)
        state = fresh_state(net)
        reqs = [star_request("r0", cores=5), star_request("r1", cores=5)]
        sol = solve_exact(build_mip(state, reqs))
        assert sol.optimal
        assert sol.objective == 1
        placed = [rid for rid, a in sol.embedded.items() if a is not None]
        assert len(placed) == 1

    def test_budget_zero_gives_no_solution(self, k2_state):
        model = build_mip(k2_state, [star_request("r0")])
        sol = solve_exact(model, SolveBudget(node_limit=0))
        assert sol.status == "no-solution"
        assert sol.objective is None and not sol.optimal

    def test_budget_zero_returns_the_start_incumbent(self):
        net = make_rack_net(n_servers=1, cores=8)
        state = fresh_state(net)
        reqs = [star_request("r0", cores=5), star_request("r1", cores=5)]
        model = build_mip(state, reqs)
        plan = plan_for(state, model)
        assert plan["r0"] is not None and plan["r1"] is None
        sol = solve_exact(model, SolveBudget(node_limit=0), incumbent=plan)
        assert sol.status == "incumbent" and sol.embedded is plan
        assert (sol.objective, sol.nodes) == (1, 0)

    def test_start_incumbent_at_the_root_bound_is_optimal(self, k2_state):
        reqs = [star_request("r0"), star_request("r1", cores=2)]
        model = build_mip(k2_state, reqs)
        plan = plan_for(k2_state, model)
        sol = solve_exact(model, incumbent=plan)
        assert (sol.status, sol.nodes, sol.objective) == ("optimal", 0, 2)
        assert sol.embedded is plan

    def test_incremental_bound_matches_a_rescan(self, k2_net, k2_table, k4_table, bound_checks):
        """The search's bound equals a full rescan of the penalized vars after
        every decision and undo, on the exactness instances that re-decide an
        active (from scratch and from the plan, the active kept or re-placed)
        and on the thin-link trials, whose actives may sit on failed
        hardware (from scratch and from the plan that re-places them)."""
        for state, _, model, migration in exactness_instances(k2_net, k2_table):
            if migration:
                for plan in (None, plan_for(state, model), plan_for(state, model, True)):
                    solve_exact(model, incumbent=plan)
        for state, model in thin_link_models(k4_table):
            for plan in (None, plan_for(state, model, True)):
                solve_exact(model, incumbent=plan)
        assert len(bound_checks) > 10_000

    def test_deterministic(self, k2_state):
        reqs = [star_request("r0", n_vms=2), star_request("r1", n_vms=2, cores=2)]
        sols = [solve_exact(build_mip(k2_state, reqs)) for _ in range(2)]
        assert sols[0].embedded == sols[1].embedded
        assert sols[0].nodes == sols[1].nodes
        assert sols[0].objective == sols[1].objective

    def _random_tiny_request(self, rng, rid):
        shape = rng.choice(["star", "star", "chain"])
        if shape == "star":
            return star_request(
                rid,
                n_vms=rng.randint(1, 2),
                cores=rng.randint(1, 5),
                mem=rng.choice([256, 8000, 12000]),
                vswitch_mem=rng.randint(5, 60),
                vlink_bw=rng.choice([10, 400, 800]),
            )
        return chain_request(
            rid,
            n_vswitches=2,
            vms_per_switch=1,
            cores=rng.randint(1, 5),
            vswitch_mem=rng.randint(5, 60),
            vlink_bw=rng.choice([10, 400, 800]),
            latency_bound=rng.choice([None, None, 4, 2]),
        )

    def _random_k4_stars(self, rng):
        """Two stars of one or two VMs, or three of one: few enough joint
        options for the oracle on k=4."""
        n_vms = rng.choice([[1, 1, 1], [1, 2], [2, 2], [2, 1]])
        return [
            star_request(
                f"r{i}",
                n_vms=n,
                cores=rng.randint(1, 4),
                mem=rng.choice([256, 6000]),
                vswitch_mem=rng.randint(5, 60),
                vlink_bw=rng.choice([10, 400, 800]),
            )
            for i, n in enumerate(n_vms)
        ]

    def test_matches_enumeration_oracle(self, k2_net, k2_table, k4_table):
        rng = random.Random(20240)
        # k=2 with mixed shapes, then stars on a tight k=4, where the tie rows
        # rule out every w off the parent's rack
        k4_net = tight_k4()
        inputs = [
            (k2_net, k2_table, [
                [self._random_tiny_request(rng, f"r{i}") for i in range(rng.randint(1, 3))]
                for _ in range(40)
            ]),
            (k4_net, k4_table, [self._random_k4_stars(rng) for _ in range(10)]),
        ]
        for net, table, trials in inputs:
            for trial, reqs in enumerate(trials):
                state = EmbeddingState(net, table)
                model = build_mip(state, reqs)
                sol = solve_exact(model)
                assert sol.optimal, f"trial {trial} not exhausted"
                expect = best_joint_objective(net, table, reqs)
                assert sol.objective == expect, f"trial {trial}"
                plan = plan_of(sol, state)
                apply_plan(state, plan)
                placed = [(state.requests[r], state.active[r]) for r in state.active]
                assert recheck_embedding(net, table, placed) == []

    def test_monotone_in_candidates(self, k2_net, k2_table):
        rng = random.Random(77)
        for trial in range(10):
            state = EmbeddingState(k2_net, k2_table)
            reqs = [self._random_tiny_request(rng, f"r{i}") for i in range(3)]
            prev = None
            for upto in range(1, 4):
                sol = solve_exact(build_mip(state, reqs[:upto]))
                assert sol.optimal
                if prev is not None:
                    assert sol.objective >= prev
                prev = sol.objective


class TestLeafRouting:
    """vSwitch-vSwitch vlinks are routed at the search's leaves."""

    def two_chains(self, k4_table, thin):
        """Chains r0 (400) then r1 (700) whose vSwitches can only sit on
        e0_0 and e0_1. With thin, the links of path 1 of (e0_0, e0_1) carry
        500: r0 on path 0 leaves r1 no room on either path."""
        tight = tight_k4(racks=("e0_0", "e0_1"))
        _, path1, _ = k4_table.get("e0_0", "e0_1")[1]
        thin_links = set(path1) if thin else set()
        links = {
            lid: replace(link, bandwidth=500) if lid in thin_links else link
            for lid, link in tight.links.items()
        }
        net = SubstrateNetwork(tight.servers, tight.switches, links, k_arity=4)
        state = EmbeddingState(net, k4_table)
        reqs = [chain_request("r0", vlink_bw=400), chain_request("r1", vlink_bw=700)]
        return state, build_mip(state, reqs)

    def test_backtracks_over_earlier_vlinks(self, k4_table):
        state, model = self.two_chains(k4_table, thin=True)
        sol = solve_exact(model)
        assert sol.optimal and sol.objective == 2
        # r0 gave up path 0 so that r1 fits there
        assert sol.embedded["r0"].vlink_map["vl0"] == ("e0_0", "e0_1", 1)
        assert sol.embedded["r1"].vlink_map["vl0"] == ("e0_0", "e0_1", 0)
        apply_plan(state, plan_of(sol, state))
        placed = [(state.requests[r], state.active[r]) for r in state.active]
        assert recheck_embedding(state.net, k4_table, placed) == []

    def test_budget_runs_out_mid_leaf(self, k4_table):
        _, wide = self.two_chains(k4_table, thin=False)
        _, model = self.two_chains(k4_table, thin=True)
        # the first leaf is the same in both; its routing tries 3 paths in
        # the wide model (r0 0, r1 0, r1 1) and 5 in the thin one
        # (r0 0, r1 0, r1 1, r0 1, r1 0)
        first_leaf = solve_exact(wide).nodes - 3
        assert solve_exact(model).nodes == first_leaf + 5
        for limit in range(first_leaf + 5):
            sol = solve_exact(model, SolveBudget(node_limit=limit))
            assert sol.status == "no-solution" and sol.nodes == limit, limit
        sol = solve_exact(model, SolveBudget(node_limit=first_leaf + 5))
        assert sol.status == "incumbent" and sol.objective == 2

    def test_first_leg_out_of_paths_means_no_routing(self, k4_table):
        """Chains r0 (600) then r1 (700) on e0_0 and e0_1, whose path 0
        carries 1000 and whose other switch-switch links carry 300. Each
        fits path 0 alone, so no pair row rules either out; with both
        embedded r1 finds no room, r0's leg then runs out of paths, and
        the leaf has no routing: only one of them is embedded."""
        tight = tight_k4(racks=("e0_0", "e0_1"))
        _, path0, _ = k4_table.get("e0_0", "e0_1")[0]
        links = {
            lid: replace(link, bandwidth=300)
            if link.a in tight.switches and link.b in tight.switches and lid not in path0
            else link
            for lid, link in tight.links.items()
        }
        net = SubstrateNetwork(tight.servers, tight.switches, links, k_arity=4)
        state = EmbeddingState(net, k4_table)
        reqs = [chain_request("r0", vlink_bw=600), chain_request("r1", vlink_bw=700)]
        sol = solve_exact(build_mip(state, reqs))
        assert (sol.status, sol.objective, sol.nodes) == ("optimal", 1, 125)
        assert sol.embedded["r0"].vlink_map["vl0"][2] == 0 and sol.embedded["r1"] is None

    def test_binding_wall_clock_stops_the_search(self):
        # nine stars whose two 5-core VMs each need a whole 16-core rack of
        # their own, on eight racks: 90 of 128 cores, so no row sees that one
        # must stay out, and the search does not prove it within 200,000
        # nodes (about 4.4 s on a 2-core VM; eight stars take 79 nodes)
        state = fresh_state(build_fat_tree(4))
        model = build_mip(state, [star_request(f"r{i}", n_vms=2, cores=5) for i in range(9)])
        sol = solve_exact(model, SolveBudget(node_limit=10**9, wall_ms=20))
        assert sol.status in ("incumbent", "no-solution")
        assert sol.wall_ms < 1000


class TestMigrationAwareness:
    def test_stay_put_when_room(self, k2_net, k2_table):
        state = EmbeddingState(k2_net, k2_table)
        r0 = star_request("r0", cores=2)
        sol0 = solve_exact(build_mip(state, [r0]))
        apply_plan(state, plan_of(sol0, state))
        old = state.active["r0"]

        r1 = star_request("r1", cores=2)
        sol = solve_exact(build_mip(state, [r1], remappable=["r0"]))
        assert sol.objective == 2  # both embedded, nobody moved
        assert old.moves_to(sol.embedded["r0"]) == []
        assert sol.embedded["r0"] == old

    def test_migration_unlocks_placement_and_is_priced(self):
        # two servers under one switch; r0 splits across both, r1 needs a full server
        net = make_rack_net(n_servers=2, cores=4)
        state = fresh_state(net)
        # heterogeneous memories make the light vm cheap to move, so migrating
        # it is strictly better than leaving the newcomer out
        from vdcembed.topology import ResourceVector, Vm

        r0 = star_request(
            "r0",
            n_vms=2,
            cores=2,
            locality={"vm0": frozenset({"s0"}), "vm1": frozenset({"s1"})},
        )
        vms = dict(r0.vms)
        vms["vm0"] = Vm("vm0", ResourceVector(cpu_cores=2, memory_mb=128))
        vms["vm1"] = Vm("vm1", ResourceVector(cpu_cores=2, memory_mb=8192))
        object.__setattr__(r0, "vms", vms)
        sol0 = solve_exact(build_mip(state, [r0]))
        apply_plan(state, plan_of(sol0, state))
        assert len(set(state.active["r0"].vm_map.values())) == 2
        # drop the pins so the re-solve may consolidate r0
        unpinned = star_request("r0", n_vms=2, cores=2)
        object.__setattr__(unpinned, "vms", vms)
        state.requests["r0"] = unpinned
        r1 = star_request("r1", n_vms=1, cores=4)
        sol = solve_exact(build_mip(state, [r1], remappable=["r0"]))
        assert sol.embedded["r1"] is not None
        moves = state.active["r0"].moves_to(sol.embedded["r0"])
        hosts = [m for m in moves if m[0] != "vlink"]
        assert len(hosts) == 1
        kind, element, old_host, new_host = hosts[0]
        assert (kind, element) == ("vm", "vm0")  # the light one moves
        assert moves[1:] == [("vlink", "vl0", "-", "-")]  # its uplink follows
        # objective identity: embedded count minus the priced move
        weight = Fraction(
            state.requests["r0"].vms[element].demand.memory_mb,
            max(vm.demand.memory_mb for vm in state.requests["r0"].vms.values()),
        )
        hops = hop_distance_bfs(net, old_host, new_host)
        assert sol.objective == 2 - weight * Fraction(hops, net.diameter())

    def test_matches_oracle_with_migration_context(self, k2_net, k2_table):
        rng = random.Random(3999)
        for trial in range(12):
            state = EmbeddingState(k2_net, k2_table)
            r0 = star_request("r0", n_vms=rng.randint(1, 2), cores=rng.randint(1, 4))
            sol0 = solve_exact(build_mip(state, [r0]))
            if sol0.embedded["r0"] is None:
                continue
            apply_plan(state, plan_of(sol0, state))
            old = state.active["r0"]
            r1 = star_request("r1", n_vms=1, cores=rng.randint(1, 6))
            f = Fraction(2)
            model = build_mip(state, [r1], remappable=["r0"], switch_penalty_divisor=f)
            sol = solve_exact(model)
            assert sol.optimal
            max_mem = max(vm.demand.memory_mb for vm in r0.vms.values())
            weights = {
                vm_id: Fraction(vm.demand.memory_mb, max_mem)
                for vm_id, vm in r0.vms.items()
            }
            expect = best_joint_objective(
                k2_net, k2_table, [r1, r0], migration={"r0": (old, weights)}, f=f
            )
            assert sol.objective == expect, f"trial {trial}"

    def test_unembedded_active_requeued(self):
        # one server; with the 5-core active in place neither 4-core candidate
        # fits, without it both do, so dropping it strictly wins
        net = make_rack_net(n_servers=1, cores=8)
        state = fresh_state(net)
        r0 = star_request("r0", cores=5)
        apply_plan(state, plan_of(solve_exact(build_mip(state, [r0])), state))
        r1 = star_request("r1", cores=4)
        r2 = star_request("r2", cores=4)
        sol = solve_exact(build_mip(state, [r1, r2], remappable=["r0"]))
        assert sol.optimal
        assert sol.embedded["r0"] is None  # dropping one to embed two wins
        plan = plan_of(sol, state)
        assert plan.requeue == ["r0"]
        apply_plan(state, plan)
        assert set(state.active) == {"r1", "r2"}
        state.audit()

    def test_stale_snapshot_detected(self, k2_state):
        model = build_mip(k2_state, [star_request("r0")])
        sol = solve_exact(model)
        k2_state.commit(
            star_request("other"),
            sol.embedded["r0"].__class__(
                "other", {"vm0": "s1"}, {"vs0": "e1_0"}, {"vl0": ("e1_0", "s1", 0)}
            ),
        )
        with pytest.raises(StaleSnapshotError):
            plan_of(sol, k2_state)


def highs_objective(model):
    """The scaled optimum of the full batch program, solved by scipy's HiGHS MILP.

    The model routes vSwitch-vSwitch vlinks in its search, so this adds the
    program's path variables as a reference: one column y per such vlink,
    endpoint host pair and admissible path; per pair, sum(y) <= x_a,
    sum(y) <= x_b and x_a + x_b - sum(y) <= 1; per vlink, sum(y) = z; and
    per switch-switch link a path crosses, its bandwidth row with the link's
    room as right-hand side (on a fat tree such a path crosses no server
    link, the only links with rows in the model).
    """
    scipy_optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    import numpy as np

    rows = [list(row) for row in zip(model.row_vars, model.row_coefs, model.row_rhs, model.row_eq)]
    hosts = {}  # (request, vSwitch) -> [(host, x)]
    for i, info in enumerate(model.vars):
        if info.kind == KIND_X:
            hosts.setdefault((info.request_id, info.element_id), []).append((info.host, i))
    uplink_links = {model.table.path(*key)[1][0] for _, key in model.uplinks.values()}
    cols = model.num_vars
    link_terms = {}  # switch-switch link -> ([y], [bandwidth])
    for req, zi in zip(model.requests, model.z_of_request):
        for vl in req.vlinks.values():
            if vl.a in req.vms or vl.b in req.vms:
                continue
            y_all = []
            for host_a, xa in hosts[req.id, vl.a]:
                for host_b, xb in hosts[req.id, vl.b]:
                    pair = []
                    for rec in model.table.get(host_a, host_b):
                        if admissible(rec, model.down, req.latency_bound):
                            pair.append(cols)
                            for e in rec[1]:
                                assert e not in uplink_links
                                ys, bws = link_terms.setdefault(e, ([], []))
                                ys.append(cols)
                                bws.append(vl.bandwidth)
                            cols += 1
                    if pair:
                        ones = [1] * len(pair)
                        rows.append([pair + [xa], ones + [-1], 0, False])
                        rows.append([pair + [xb], ones + [-1], 0, False])
                        rows.append([[xa, xb] + pair, [1, 1] + [-1] * len(pair), 1, False])
                        y_all += pair
            rows.append([y_all + [zi], [1] * len(y_all) + [-1], 0, True])
    rows += [[ys, bws, model.room[e], False] for e, (ys, bws) in link_terms.items()]

    r_idx, c_idx, coefs = [], [], []
    for r, (vs, cs, _, _) in enumerate(rows):
        r_idx += [r] * len(vs)
        c_idx += vs
        coefs += cs
    a = sparse.csr_array((coefs, (r_idx, c_idx)), shape=(len(rows), cols))
    ub = np.array([row[2] for row in rows], dtype=float)
    lb = np.where([row[3] for row in rows], ub, -np.inf)
    obj = np.zeros(cols)
    obj[: model.num_vars] = model.obj_coef
    res = scipy_optimize.milp(
        -obj,
        constraints=scipy_optimize.LinearConstraint(a, lb, ub),
        integrality=np.ones(cols),
        bounds=scipy_optimize.Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    assert res.success, res.message
    return round(-res.fun)


def thin_link_models(k4_table, wide=False):
    """The (state, model) pairs of eight trials of a few hundred vars on a
    tight k=4, beyond brute force: remappable actives, a failed server and link,
    latency bounds, locality and thin (300 or 1000) switch-switch links.
    With wide, each trial's model is rebuilt on the same state with every
    switch-switch link widened to 10**6."""
    rng = random.Random(8080)
    tight = tight_k4(racks=("e0_0", "e0_1", "e1_0"))
    servers = sorted(tight.servers)
    for _ in range(8):
        links = {
            lid: replace(link, bandwidth=rng.choice([300, 1000]))
            if link.a in tight.switches and link.b in tight.switches else link
            for lid, link in tight.links.items()
        }
        net = SubstrateNetwork(tight.servers, tight.switches, links, k_arity=4)
        state = EmbeddingState(net, k4_table)
        actives = [
            star_request(f"a{i}", n_vms=rng.randint(1, 2), cores=rng.randint(1, 3),
                         vswitch_mem=rng.randint(5, 30), vlink_bw=rng.choice([10, 300]))
            for i in range(2)
        ]
        apply_plan(state, plan_of(solve_exact(build_mip(state, actives)), state))
        assert state.active
        state.mark_down([rng.choice(servers[2:]), rng.choice(sorted(net.links))])
        candidates = [
            chain_request(f"c{i}", cores=rng.randint(1, 2), vswitch_mem=rng.randint(5, 30),
                          vlink_bw=rng.choice([10, 400]), latency_bound=rng.choice([2, 4, None]))
            for i in range(3)
        ] + [
            star_request("s0", n_vms=2, cores=rng.randint(2, 4), vlink_bw=rng.choice([10, 600]),
                         locality={"vm0": frozenset(rng.sample(servers, 8))}),
        ]
        if wide:
            links = {
                lid: replace(link, bandwidth=10**6)
                if link.a in tight.switches and link.b in tight.switches else link
                for lid, link in links.items()
            }
            net = SubstrateNetwork(tight.servers, tight.switches, links, k_arity=4)
            widened = EmbeddingState(net, k4_table)
            for rid, a in state.active.items():
                widened.commit(state.requests[rid], a)
            widened.mark_down(state.down)
            state = widened
        yield state, build_mip(state, candidates, remappable=sorted(state.active))


class TestSecondOracle:
    def test_objective_matches_highs(self, k4_table):
        """solve_exact and HiGHS agree on the optimum of the full program of
        each thin-link trial, and in some trial widening the switch-switch
        links changes the optimum."""
        pytest.importorskip("scipy")
        sizes, binding = [], 0
        trials = zip(thin_link_models(k4_table), thin_link_models(k4_table, wide=True))
        for trial, ((state, model), (_, wide)) in enumerate(trials):
            sizes.append(model.num_vars)
            sol = solve_exact(model)
            assert sol.optimal, f"trial {trial} not exhausted"
            optimum = highs_objective(model)
            assert sol.objective * model.obj_scale == optimum, f"trial {trial}"
            # the actives may sit on failed hardware: the plan re-places them
            started = solve_exact(model, incumbent=plan_for(state, model, True))
            assert started.optimal and started.objective == sol.objective, f"trial {trial}"
            binding += highs_objective(wide) > optimum
        assert min(sizes) > 100
        assert binding > 0

    def test_pair_rows_keep_thin_link_search_small(self, k4_table):
        """Host pairs that no path with room joins are ruled out in the
        model, so the search does not re-place VMs below them: the eight
        thin-link trials take under 20,000 nodes in all."""
        nodes = [solve_exact(model).nodes for _, model in thin_link_models(k4_table)]
        assert sum(nodes) < 20_000, nodes
