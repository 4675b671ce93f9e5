"""The library names the benchmark harness under perfbench/ wraps or imports.

perfbench/ is loaded from outside the package, so a rename under src/ would
only show when the benchmark runs; this test makes it show in the suite.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from vdcembed.metrics import resequence, serialize_trace
from vdcembed.paths import PathTable, enumerate_paths
from vdcembed.scheduler import PolicyConfig, SimEvent, run_simulation
from vdcembed.state import EmbeddingState
from vdcembed.topology import ResourceVector, WorkloadConfig, build_fat_tree

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# sha256 of the trace of each workload's first simulation at seed 1; a change
# that alters decisions on purpose updates these and says so in CHANGES.md
FIRST_TRACE_SHA256 = {
    "batch-k4": "36914e265eed5164b2ce67604d59a61688b6c93b284d8bd473ee54bca273698b",
    "online-k8": "e7626e2813449005d42bbdf90e6f407c46571b2d32dae951afdce1382682e53b",
}


@pytest.fixture(scope="module")
def perfbench_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
        import workloads

        yield tracer, workloads
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_target_resolves(perfbench_modules):
    tracer, _ = perfbench_modules
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracer.TARGETS
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_sweep_policy_builds(perfbench_modules):
    _, workloads = perfbench_modules
    assert isinstance(workloads.SWEEP_POLICY, PolicyConfig)


def test_path_table_pairs_resolves():
    # perfbench/run.py counts, outside the traced targets and through it, the
    # path records enumerated so far (paths.records, per layer, not gated)
    assert "pairs" in PathTable.__dict__


def first_simulation(workloads, name, index=0, table=None):
    """The records of a workload's first simulation at seed 1, or of the one
    at another index, on a fresh path table or the one given."""
    wl = workloads.WORKLOADS[name]
    net = build_fat_tree(wl.k) if table is None else table.net
    seed = workloads.sub_seeds(1, wl)[index]
    return run_simulation(
        net,
        wl.config,
        workloads.SWEEP_POLICY,
        run_mode=wl.run_mode,
        lam=0.0,
        seed=seed,
        table=enumerate_paths(net) if table is None else table,
        extra_events=workloads.simulation_events(wl, seed),
        audit_every=wl.audit_every,
    )


@pytest.mark.parametrize("name", sorted(FIRST_TRACE_SHA256))
def test_first_simulation_trace_unchanged(perfbench_modules, name):
    _, workloads = perfbench_modules
    text = serialize_trace(resequence(first_simulation(workloads, name)))
    assert hashlib.sha256(text.encode()).hexdigest() == FIRST_TRACE_SHA256[name]


# the pairs online-k8's first simulation at seed 1 looks up and so has its
# path table enumerate, and their records: 187 and 1,294 when each pair is
# enumerated on its first lookup, 6,576 and 120,576 when the whole table was
# built before the first arrival
ONLINE_K8_FILLED = (187, 1294)


def test_online_k8_enumerates_only_the_pairs_it_reads(perfbench_modules):
    _, workloads = perfbench_modules
    table = enumerate_paths(build_fat_tree(workloads.WORKLOADS["online-k8"].k))
    first_simulation(workloads, "online-k8", table=table)
    pairs = table.pairs()
    assert (len(pairs), sum(len(table.get(*pair)) for pair in pairs)) == ONLINE_K8_FILLED


# (via, status, nodes) of each batch pass of batch-k4's simulations at seed
# 1, by index: traces show decisions, not search cost. The plan answers every
# pass of the first; in the sixth two passes search from it. A change to the
# plan or the search that alters these on purpose updates them and says so
# in CHANGES.md
PLAN = ("plan", "optimal", 0)
FIRST_BATCH_SOLVES = {
    0: [PLAN] * 10,
    5: [PLAN] * 7 + [("search", "optimal", 92), ("search", "optimal", 107), PLAN],
}


def test_first_simulation_search_cost_unchanged(perfbench_modules):
    _, workloads = perfbench_modules
    for index, expected in FIRST_BATCH_SOLVES.items():
        passes = [
            (
                r.get("via"),
                "no-solution" if r.get("outcome") == "no-solution"
                else "optimal" if r.get("optimal") == "true" else "incumbent",
                int(r.get("nodes")),
            )
            for r in first_simulation(workloads, "batch-k4", index)
            if r.kind == "decision" and r.get("mode") == "batch"
        ]
        assert passes == expected, index


def test_records_carry_the_fields_perfbench_reads(perfbench_modules):
    """perfbench/run.py folds a batch decision's outcome and optimal and an
    accept's via into its quality block; it cannot change along with the
    library, so a renamed field would show only when the benchmark runs."""
    _, workloads = perfbench_modules
    import run

    records = first_simulation(workloads, "batch-k4", 5)
    summary = run.TraceSummary()
    summary.add(records)
    assert summary.status == {"optimal": 10}
    accepted = sum(r.kind == "accept" for r in records)
    assert accepted and summary.accepts == {"batch": accepted}


# the VM-server pairs greedy scores in online-k8's first simulation at seed 1
# measure its work without timing it: 1,200 when each VM group stops at the
# first rack whose plan costs nothing, 37,528 when it planned every free rack
GREEDY_OVERFLOW_CALLS_MAX = 2000


def test_greedy_scores_few_server_pairs(perfbench_modules, scored_server_pairs):
    _, workloads = perfbench_modules
    first_simulation(workloads, "online-k8")
    assert 0 < len(scored_server_pairs) < GREEDY_OVERFLOW_CALLS_MAX


# state.uplink calls in the same simulation: 300 when greedy reads the
# state's racks and asks uplink only for each placed VM's key, 2,220 when it
# asked uplink again for every server of every usable rack on each call
UPLINK_CALLS_MAX = 600


def test_greedy_reads_racks_from_the_state(perfbench_modules, uplink_calls):
    _, workloads = perfbench_modules
    first_simulation(workloads, "online-k8")
    assert 0 < len(uplink_calls) < UPLINK_CALLS_MAX


# switches the walk for vSwitches without a VM group reads in the same
# simulation: 98 when it goes by (hop sum to the placed neighbours, id) and
# stops at the first switch it takes that has room; 734 hop sums when it
# walked by hops from the first placed neighbour and stopped at a triangle
# bound, 3,426 when every free switch was scored
GROUPLESS_SWITCHES_SCORED_MAX = 300


def test_groupless_vswitches_score_few_switches(perfbench_modules, scored_switches):
    _, workloads = perfbench_modules
    first_simulation(workloads, "online-k8")
    assert 0 < len(scored_switches) < GROUPLESS_SWITCHES_SCORED_MAX


# server_share calls in the same simulation: 268 when a rack the fragment
# and the latency bound leave whole reads the share the state keeps, 1,920
# when every greedy call summed every rack's server shares again
SERVER_SHARE_CALLS_MAX = 500


def test_greedy_reads_rack_shares_from_the_state(perfbench_modules, server_share_calls):
    _, workloads = perfbench_modules
    first_simulation(workloads, "online-k8")
    assert 0 < len(server_share_calls) < SERVER_SHARE_CALLS_MAX


# the vectors sum_vectors folds in online-k8's first simulation at seed 1
# measure the upkeep of the state's sums without timing it: 2,102 when a
# commit or release folds only its own usage, 44,992 when every arrival
# summed the residuals of the whole substrate and of every fragment again
SUM_VECTORS_FOLDS_MAX = 5000


def test_state_sums_fold_few_vectors(perfbench_modules, sum_vectors_folds):
    _, workloads = perfbench_modules
    first_simulation(workloads, "online-k8")
    assert 0 < len(sum_vectors_folds) < SUM_VECTORS_FOLDS_MAX


# EmbeddingState._alive calls in the same simulation, which builds the
# fragments once: 592, one per substrate element, when charge sees an
# element die or come alive from its residual's signs alone, 1,051 when
# every charge asked _alive of each element it loaded
ONLINE_K8_ALIVE_CALLS_MAX = 700


def test_fragments_are_built_once_and_charges_ask_no_element(perfbench_modules, monkeypatch):
    _, workloads = perfbench_modules
    calls, rebuilds = [], []
    alive, fragments = EmbeddingState._alive, EmbeddingState.fragments

    def counted_alive(self, eid):
        calls.append(eid)
        return alive(self, eid)

    def counted_fragments(self):
        rebuilds.append(self._fragments is None)
        return fragments(self)

    monkeypatch.setattr(EmbeddingState, "_alive", counted_alive)
    monkeypatch.setattr(EmbeddingState, "fragments", counted_fragments)
    first_simulation(workloads, "online-k8")
    assert sum(rebuilds) == 1
    assert 0 < len(calls) < ONLINE_K8_ALIVE_CALLS_MAX


def test_an_admission_checks_its_assignment_once(perfbench_modules, state_calls):
    # the same simulation makes 15 commits: 15 checks and 15 usage folds
    # when commit takes the state's last clean check and charge the usage
    # that check computed, 30 and 45 when commit checked again and charge
    # folded the usage once more
    _, workloads = perfbench_modules
    first_simulation(workloads, "online-k8")
    commits = state_calls["commit"]
    assert 0 < state_calls["check_assignment"] <= commits
    assert 0 < state_calls["usage"] <= commits


def test_usage_folds_once_per_check(perfbench_modules, state_calls):
    # batch-k4's first simulation at seed 1 makes 10 checks and 10 audits
    # (and 30 releases when its passes re-placed their remappables on the
    # probe): a usage fold per check when a release credits back the usage
    # its commit charged and audit folds loads into its own scratch map,
    # 105 when every release and every audited active folded usage again
    _, workloads = perfbench_modules
    first_simulation(workloads, "batch-k4")
    assert 0 < state_calls["usage"] <= state_calls["check_assignment"]


# ResourceVector additions and subtractions in batch-k4's first simulation at
# seed 1: 20, all in the scheduler, when the state folds, charges and audits
# loads on plain ints, 2,707 when each load was one vector + or -
VECTOR_ARITHMETIC_MAX = 200


def test_state_accounting_makes_no_vector_per_load(perfbench_modules, monkeypatch):
    _, workloads = perfbench_modules
    calls = []
    for name in ("__add__", "__sub__"):

        def counted(self, other, method=getattr(ResourceVector, name)):
            calls.append(self)
            return method(self, other)

        monkeypatch.setattr(ResourceVector, name, counted)
    first_simulation(workloads, "batch-k4")
    assert 0 < len(calls) < VECTOR_ARITHMETIC_MAX


# greedy_temp_map calls in batch-k4's first simulation at seed 1: 10 when a
# batch pass recalls a re-placed request's mapping from the last plan while
# the state it plans on is unchanged, 40 when every pass mapped each of its
# requests again. A recalled clean mapping keeps its check, so the probe's
# commit does not check again, nor does the live commit of the plan's
# mapping: 10 checks, 20 when the live commit checked again, 50 without the
# memo and 50 when a hit's commit on the probe checked again
BATCH_K4_GREEDY_CALLS_MAX = 10
BATCH_K4_CHECKS_MAX = 15


def test_batch_passes_recall_unchanged_plans(perfbench_modules, greedy_calls, state_calls):
    _, workloads = perfbench_modules
    first_simulation(workloads, "batch-k4")
    assert 0 < len(greedy_calls) <= BATCH_K4_GREEDY_CALLS_MAX
    assert 0 < state_calls["check_assignment"] <= BATCH_K4_CHECKS_MAX


# EmbeddingState.charge calls in the same simulation: 20 when a re-placing
# pass skips releasing and re-committing the remappables that the plan memo
# proves unchanged (EmbeddingState.replay), 80 when every pass released and
# re-committed them on its probe
BATCH_K4_CHARGES_MAX = 40


def test_batch_passes_skip_unchanged_replays(perfbench_modules, monkeypatch):
    _, workloads = perfbench_modules
    charges = []
    charge = EmbeddingState.charge

    def counted(self, req, a, sign):
        charges.append(sign)
        return charge(self, req, a, sign)

    monkeypatch.setattr(EmbeddingState, "charge", counted)
    first_simulation(workloads, "batch-k4")
    assert 0 < len(charges) <= BATCH_K4_CHARGES_MAX


def test_a_skipped_replay_is_the_round_trip(perfbench_modules, checked_replays):
    # each skipped release-and-recall chain, taken on a copy, gives back the
    # same assignment objects, residuals, free sum and charged usage
    _, workloads = perfbench_modules
    first_simulation(workloads, "batch-k4")
    assert checked_replays and all(mismatches == [] for mismatches in checked_replays)


# Neither workload's pinned trace holds a migration record, so this short
# batch-only run on k=4 pins the paths that emit them: batch re-placements,
# a failure (displaced requests repaired, one requeued) and a scale-up that
# moves an incumbent; sha256 of its trace, under the same rule as above. The
# failure takes a server and an aggregation switch: where greedy re-places
# the actives, a lone server failure strands no request
MIGRATION_TRACE_SHA256 = "c151846c41e7d2bafb21d615909f014f84f890f987a5bcabff94c2cfc856c778"


def migration_run(k4_net, k4_table):
    events = (
        SimEvent(30.0, 0, "failure", elements=("s4", "a2_0")),
        SimEvent(
            40.0, 1, "scale_up", request_id="r1", deltas=(("vm0", ResourceVector(cpu_cores=2)),)
        ),
    )
    cfg = WorkloadConfig(
        vm_count=(4, 10), vswitch_count=(2, 4), arrival_rate=5, horizon=60.0, seed=5
    )
    policy = PolicyConfig(batch_width=3, solver_node_limit=500, remap_limit=4)
    return run_simulation(
        k4_net, cfg, policy, run_mode="batch-only", table=k4_table, extra_events=events,
        audit_every=1,
    )


def test_migration_trace_unchanged(k4_net, k4_table):
    records = migration_run(k4_net, k4_table)
    kinds = {r.get("kind") for r in records if r.kind == "migration"}
    assert kinds == {"vm", "vswitch", "vlink"}
    assert {r.get("outcome") for r in records if r.kind == "displaced"} == {"repaired", "requeued"}
    assert [r.get("outcome") for r in records if r.kind == "scale_up"] == ["relocated"]
    text = serialize_trace(records)
    assert hashlib.sha256(text.encode()).hexdigest() == MIGRATION_TRACE_SHA256


def test_tracer_sees_a_scale_up_repair(perfbench_modules, k4_net, k4_table):
    # the run's one swap repair is its relocating scale-up, which the tracer
    # sees only when the scheduler reaches swap_repair through online_search
    tracer, _ = perfbench_modules
    with tracer.Tracer().active() as t:
        migration_run(k4_net, k4_table)
    assert [name for _, name, *_ in t.spans].count("online_search.swap_repair") == 1
