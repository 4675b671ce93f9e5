"""Acceptance criteria, one test per criterion; each records a PASS/FAIL line.

Run with plain `pytest`; the criterion verdicts are printed in the terminal
summary. The arrival-rate sweep (criteria 2-4) takes about ten seconds.
"""

import random
import time
from dataclasses import replace

import pytest

from conftest import (
    SWEEP_LAMBDAS,
    SWEEP_MODES,
    SWEEP_SEEDS,
    exactness_instances,
    record_criterion,
)
from oracles import best_joint_objective, simple_paths_dfs, random_switch_graph
from vdcembed.batch_solver import build_mip, extract_assignments, solve_exact
from vdcembed.cli import main as cli_main
from vdcembed.metrics import aggregate
from vdcembed.online_search import OnlineResult, plan_batch, try_online_embed
from vdcembed.paths import enumerate_paths
from vdcembed.scheduler import PolicyConfig, run_simulation
from vdcembed.state import EmbeddingState
from vdcembed.topology import WorkloadConfig, build_fat_tree, generate_vdc_request


def _verdict(name, ok):
    record_criterion(name, ok)
    assert ok, f"criterion failed: {name}"


# --- criterion 1: exactness against exhaustive enumeration --------------------


def test_exactness_oracle(k2_net, k2_table):
    started = time.perf_counter()
    checked = 0
    for state, requests, model, migration in exactness_instances(k2_net, k2_table):
        sol = solve_exact(model)
        assert sol.optimal, "search must exhaust on tiny instances"
        oracle_requests = requests + ([state.requests["act"]] if migration else [])
        expect = best_joint_objective(
            k2_net, k2_table, oracle_requests, migration=migration
        )
        assert sol.objective == expect, f"instance {checked}: {sol.objective} != {expect}"
        # the same optimum from the greedy plan a scheduler pass starts from,
        # the active kept in place or re-placed
        plan = plan_batch(state, requests, list(model.remappable), re_place=checked % 2 == 1)
        from_plan = solve_exact(model, incumbent=plan)
        assert from_plan.objective == expect, f"instance {checked} from the plan"
        checked += 1
    elapsed = time.perf_counter() - started
    _verdict(
        f"exactness: 200 fuzzed <=30-var instances match enumeration exactly ({elapsed:.1f}s)",
        elapsed < 60,
    )


# --- criteria 2-4: ordinal sweep with feasibility audits ----------------------

@pytest.fixture(scope="module")
def sweep_results(sweep_runs):
    traces = sweep_runs.traces
    results = {}
    for mode in SWEEP_MODES:
        per_lambda = {}
        for lam in SWEEP_LAMBDAS:
            rates, pcts = [], []
            for seed in SWEEP_SEEDS:
                row = aggregate(traces[mode, lam, seed]).rows[0]
                if row.arrivals:
                    rates.append(row.rate)
                    pcts.append(row.migration_pct if row.placed_vms else 0.0)
            per_lambda[lam] = (
                sum(rates) / len(rates) if rates else None,
                sum(pcts) / len(pcts) if pcts else 0.0,
            )
        results[mode] = per_lambda
    return results


def test_ordinal_acceptance_rates(sweep_results):
    ok = True
    for lam in SWEEP_LAMBDAS:
        hybrid = sweep_results["hybrid"][lam][0]
        batch = sweep_results["batch-only"][lam][0]
        online = sweep_results["online-only"][lam][0]
        if hybrid is None:
            continue
        if hybrid < batch or hybrid < online:
            ok = False
    _verdict(
        "acceptance ordering: mean hybrid rate >= batch-only and >= online-only at every lambda",
        ok,
    )


def test_ordinal_migration_rates(sweep_results):
    ok = True
    for lam in SWEEP_LAMBDAS:
        hybrid = sweep_results["hybrid"][lam][1]
        batch = sweep_results["batch-only"][lam][1]
        if hybrid > batch:
            ok = False
    _verdict(
        "migration ordering: mean hybrid migration pct <= batch-only at every lambda",
        ok,
    )


def test_feasibility_under_simulation(sweep_results):
    # the sweep already re-audits every 100 events (audit raises on drift);
    # here a denser audit cadence covers every event of contended runs
    net = build_fat_tree(4)
    table = enumerate_paths(net)
    policy = PolicyConfig(batch_width=3, solver_node_limit=500, remap_limit=4)
    for mode in ("hybrid", "batch-only", "online-only"):
        cfg = WorkloadConfig(
            vm_count=(4, 10),
            vswitch_count=(2, 4),
            arrival_rate=10.0,
            horizon=200.0,
            seed=777,
        )
        run_simulation(net, cfg, policy, run_mode=mode, table=table, audit_every=1)
    _verdict(
        "feasibility: zero strict violations and exact residual conservation in audited runs",
        True,
    )


# --- criterion 5: structural counts and path oracle ----------------------------


def test_structural_counts_and_paths():
    counts_ok = True
    for k in (2, 4, 6, 8):
        net = build_fat_tree(k)
        if len(net.servers) != k**3 // 4 or len(net.switches) != 5 * k**2 // 4:
            counts_ok = False
        start = next(iter(net.adjacency))
        if len(net.hop_distances_from(start)) != len(net.adjacency):
            counts_ok = False

    rng = random.Random(321321)
    paths_ok = True
    for _ in range(50):
        n = rng.randint(3, 12)
        net = random_switch_graph(rng, n)
        max_len = rng.randint(1, 4)
        table = enumerate_paths(net, max_len, pair_filter=lambda a, b: True)
        ids = sorted(net.switches)
        for src in ids:
            for dst in ids:
                if src == dst:
                    continue
                if [edges for _, edges, _ in table.get(src, dst)] != simple_paths_dfs(
                    net, src, dst, max_len
                ):
                    paths_ok = False
    _verdict(
        "structure: fat-tree closed-form counts for k in {2,4,6,8}; paths match DFS oracle on 50 graphs",
        counts_ok and paths_ok,
    )


# --- criterion 6: byte-identical reruns ----------------------------------------


def test_determinism_byte_identical(tmp_path):
    (tmp_path / "wl.cfg").write_text(
        "vm_count=2:6\nvswitch_count=2:3\narrival_rate=4\nhorizon=150\nseed=12\n"
    )
    (tmp_path / "pol.cfg").write_text("batch_width=3\nsolver_node_limit=400\nremap_limit=3\n")
    assert cli_main(["gen-topology", "--k", "4", "--out", str(tmp_path / "dc.txt")]) == 0
    base = [
        "run",
        "--substrate", str(tmp_path / "dc.txt"),
        "--workload", str(tmp_path / "wl.cfg"),
        "--policy", str(tmp_path / "pol.cfg"),
        "--mode", "hybrid",
        "--seed", "12",
        "--lambdas", "1:3",
    ]
    assert cli_main(base + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(base + ["--out", str(tmp_path / "b")]) == 0
    same = True
    for name in ("acceptance.csv", "migrations.csv", "utilization.csv", "trace.log"):
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes():
            same = False
    _verdict("determinism: identical manifest and seed give byte-identical CSVs and trace", same)


# --- criterion 7: latency and locality honored ----------------------------------


def test_optional_constraints_honored(k4_net, k4_table):
    rng = random.Random(606060)
    cfg = WorkloadConfig(vm_count=(2, 8), vswitch_count=(2, 3))
    state = EmbeddingState(k4_net, k4_table)
    servers = sorted(k4_net.servers)
    accepted = 0
    violations = 0
    for i in range(100):
        req = generate_vdc_request(cfg, 0.0, f"oc/{i}")
        req = replace(req, id=f"r{i}")
        bound = rng.choice([4, 4, 6, 6])
        locality = {}
        vm_ids = sorted(req.vms)
        for vm_id in rng.sample(vm_ids, k=min(2, len(vm_ids))):
            k = rng.randint(6, 10)
            locality[vm_id] = frozenset(rng.sample(servers, k=k))
        req = replace(req, latency_bound=bound, locality=locality)

        if i % 2 == 0:
            result = try_online_embed(state, req)
            assignment = result.assignment if isinstance(result, OnlineResult) else None
            if assignment is not None:
                for rid, update in result.incumbent_updates.items():
                    obj = state.requests[rid]
                    state.release(rid)
                    state.commit(obj, update)
                state.commit(req, assignment)
        else:
            sol = solve_exact(build_mip(state, [req]))
            assignment = sol.embedded.get(req.id)
            if assignment is not None:
                plan = extract_assignments(
                    sol.model.requests, sol.embedded, state, sol.model.state_version
                )
                for rel in plan.releases:
                    state.release(rel)
                for obj, a in plan.commits:
                    state.commit(obj, a)

        if assignment is None:
            continue
        accepted += 1
        # independent re-verification straight from the raw link records
        for vl_id, (pa, pb, n) in assignment.vlink_map.items():
            _, edges, _ = k4_table.get(pa, pb)[n]
            delay = sum(k4_net.links[e].delay for e in edges)
            if delay > bound:
                violations += 1
        for vm_id, allowed in locality.items():
            if assignment.vm_map[vm_id] not in allowed:
                violations += 1
        # keep some load resident so later instances face contention
        if accepted % 2 == 0 and state.active:
            state.release(sorted(state.active)[0])

    _verdict(
        f"optional constraints: {accepted} accepted constrained requests, all within "
        "latency bound and locality sets",
        accepted >= 30 and violations == 0,
    )
