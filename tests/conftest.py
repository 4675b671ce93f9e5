"""Shared builders for hand-made substrates and requests."""

from __future__ import annotations

import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from typing import NamedTuple

import pytest

ACCEPTANCE_RESULTS: list[tuple[str, bool]] = []


def record_criterion(name: str, ok: bool):
    ACCEPTANCE_RESULTS.append((name, bool(ok)))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, ok in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(("PASS  " if ok else "FAIL  ") + name)

from vdcembed import online_search, topology
from vdcembed.batch_solver import build_mip, extract_assignments, solve_exact
from vdcembed.online_search import TempMapping, greedy_temp_map
from vdcembed.paths import enumerate_paths
from vdcembed.scheduler import PolicyConfig, run_simulation
from vdcembed.state import EmbeddingState, norm
from vdcembed.topology import (
    Link,
    ResourceVector,
    Server,
    SubstrateNetwork,
    Switch,
    VLink,
    VSwitch,
    VdcRequest,
    Vm,
    WorkloadConfig,
    build_fat_tree,
)


def read_csv(text, header):
    """The rows of one metrics CSV as lists of fields, after checking its header."""
    lines = text.strip().splitlines()
    assert lines[0] == header
    return [raw.split(",") for raw in lines[1:]]


def make_rack_net(n_servers=2, cores=8, mem=16384, switch_mem=100, link_bw=1000):
    """One edge switch with n servers under it; the smallest viable substrate."""
    switches = {"e0": Switch("e0", "edge", ResourceVector(switch_memory=switch_mem))}
    servers = {}
    links = {}
    for i in range(n_servers):
        sid = f"s{i}"
        servers[sid] = Server(sid, ResourceVector(cpu_cores=cores, memory_mb=mem))
        links[f"l{i}"] = Link(f"l{i}", "e0", sid, link_bw, 1)
    return SubstrateNetwork(servers=servers, switches=switches, links=links, k_arity=0)


def star_request(
    rid,
    n_vms=1,
    cores=1,
    mem=256,
    vswitch_mem=10,
    vlink_bw=10,
    arrival=0.0,
    duration=10.0,
    latency_bound=None,
    locality=None,
):
    """One edge vSwitch with n VMs hanging off it."""
    vms = {f"vm{i}": Vm(f"vm{i}", ResourceVector(cpu_cores=cores, memory_mb=mem)) for i in range(n_vms)}
    vswitches = {"vs0": VSwitch("vs0", True, ResourceVector(switch_memory=vswitch_mem))}
    vlinks = {
        f"vl{i}": VLink(f"vl{i}", "vs0", f"vm{i}", vlink_bw) for i in range(n_vms)
    }
    return VdcRequest(
        id=rid,
        vms=vms,
        vswitches=vswitches,
        vlinks=vlinks,
        arrival_time=arrival,
        duration=duration,
        latency_bound=latency_bound,
        locality=locality,
    )


def chain_request(rid, n_vswitches=2, vms_per_switch=1, cores=1, mem=256,
                  vswitch_mem=10, vlink_bw=10, arrival=0.0, duration=10.0,
                  latency_bound=None, locality=None):
    """A path of vSwitches; the two endpoint vSwitches are edge and carry VMs."""
    assert n_vswitches >= 2
    vswitches = {}
    vlinks = {}
    vms = {}
    for i in range(n_vswitches):
        is_edge = i in (0, n_vswitches - 1)
        vswitches[f"vs{i}"] = VSwitch(f"vs{i}", is_edge, ResourceVector(switch_memory=vswitch_mem))
    ln = 0
    for i in range(n_vswitches - 1):
        vlinks[f"vl{ln}"] = VLink(f"vl{ln}", f"vs{i}", f"vs{i + 1}", vlink_bw)
        ln += 1
    vm_no = 0
    for vs in ("vs0", f"vs{n_vswitches - 1}"):
        for _ in range(vms_per_switch):
            vid = f"vm{vm_no}"
            vms[vid] = Vm(vid, ResourceVector(cpu_cores=cores, memory_mb=mem))
            vlinks[f"vl{ln}"] = VLink(f"vl{ln}", vs, vid, vlink_bw)
            ln += 1
            vm_no += 1
    return VdcRequest(
        id=rid,
        vms=vms,
        vswitches=vswitches,
        vlinks=vlinks,
        arrival_time=arrival,
        duration=duration,
        latency_bound=latency_bound,
        locality=locality,
    )


def vm_first(req):
    """req with every uplink vlink listing its VM first."""
    vlinks = {
        vid: VLink(vid, vl.b, vl.a, vl.bandwidth) if vl.b in req.vms else vl
        for vid, vl in req.vlinks.items()
    }
    return replace(req, vlinks=vlinks)


def _tiny_request(rng, rid):
    kind = rng.choice(["star1", "star1", "star2", "chain"])
    if kind == "star1":
        return star_request(
            rid,
            n_vms=1,
            cores=rng.randint(1, 5),
            mem=rng.choice([256, 6000, 12000]),
            vswitch_mem=rng.randint(5, 60),
            vlink_bw=rng.choice([10, 300, 800]),
        )
    if kind == "star2":
        return star_request(
            rid,
            n_vms=2,
            cores=rng.randint(1, 4),
            mem=rng.choice([256, 6000]),
            vswitch_mem=rng.randint(5, 60),
            vlink_bw=rng.choice([10, 300]),
        )
    return chain_request(
        rid,
        n_vswitches=2,
        vms_per_switch=1,
        cores=rng.randint(1, 4),
        vswitch_mem=rng.randint(5, 60),
        vlink_bw=rng.choice([10, 300, 800]),
        latency_bound=rng.choice([None, None, 4, 2]),
    )


def exactness_instances(net, table):
    """The 200 fuzzed batch instances of at most 30 vars that the exactness
    criterion checks against enumeration: (state, candidates, model,
    migration). About a third re-decide an active "act" that the state
    holds; migration then maps it to its placement and VM weights, else it
    is None."""
    rng = random.Random(909090)
    checked = 0
    while checked < 200:
        state = EmbeddingState(net, table)
        migration = None
        remappable = []
        if rng.random() < 0.35:
            active = _tiny_request(rng, "act")
            sol0 = solve_exact(build_mip(state, [active]))
            if sol0.embedded["act"] is not None:
                plan = extract_assignments([active], sol0.embedded, state, state.version)
                state.apply(plan.releases, plan.commits)
                remappable = ["act"]
                max_mem = max(vm.demand.memory_mb for vm in active.vms.values())
                weights = {
                    vm_id: Fraction(vm.demand.memory_mb, max_mem)
                    for vm_id, vm in active.vms.items()
                }
                migration = {"act": (state.active["act"], weights)}

        requests = [_tiny_request(rng, f"r{i}") for i in range(rng.randint(1, 3))]
        model = build_mip(state, requests, remappable=remappable)
        while model.num_vars > 30 and len(requests) > 1:
            requests = requests[:-1]
            model = build_mip(state, requests, remappable=remappable)
        if model.num_vars > 30:
            continue
        yield state, requests, model, migration
        checked += 1


@pytest.fixture(scope="session")
def k2_net():
    return build_fat_tree(2)


@pytest.fixture(scope="session")
def k2_table(k2_net):
    return enumerate_paths(k2_net)


@pytest.fixture(scope="session")
def k4_net():
    return build_fat_tree(4)


@pytest.fixture(scope="session")
def k4_table(k4_net):
    return enumerate_paths(k4_net)


# the acceptance sweep: every mode at each arrival rate and seed on k=4
SWEEP_MODES = ("hybrid", "batch-only", "online-only")
SWEEP_LAMBDAS = list(range(1, 11))
SWEEP_SEEDS = [101, 202, 303, 404, 505]


def recalled_as_fresh(state, req, entry):
    """(repr of a fresh greedy_temp_map on a copy of state, repr of the
    recalled result, whether the fresh check's usage equals the recalled
    one, whether state keeps the recalled check as if just made) for one
    plan memo hit: the first two are equal and the last two true when the
    hit is what greedy gives afresh."""
    fresh_state = state.copy()
    fresh = greedy_temp_map(fresh_state, req)
    clean = isinstance(fresh, TempMapping) and fresh.clean
    usage = fresh_state.kept(req, fresh.assignment) if clean else None
    kept = not clean or state.kept(req, entry.result.assignment) is entry.usage
    return repr(fresh), repr(entry.result), usage == entry.usage, kept


def replay_mismatches(
    state, remappable, entries, recall=EmbeddingState.recall, commit=EmbeddingState.commit
):
    """What differs when a copy of state takes the round trip a replay skips:
    each remappable released, then recalled from the plan memo and committed
    in turn, as plan_batch does without replay. Empty when every recall hits
    the entry replay gave, with the active assignment object, and the
    residuals, free sum and every active's charged usage come out equal.
    Calls the unwrapped recall and commit."""
    chain = state.copy()
    for rid in remappable:
        chain.release(rid)
    out = []
    for rid, given in zip(remappable, entries):
        entry = recall(chain, state.requests[rid])
        if entry is not given or entry.result.assignment is not state.active[rid]:
            return [f"{rid}: recalled {entry}"]
        commit(chain, state.requests[rid], entry.result.assignment)
    if chain.residual != state.residual:
        out.append("residual")
    if chain.free != state.free:
        out.append("free")
    out += [rid for rid in state.active if chain.charged(rid) != state.charged(rid)]
    return out


@pytest.fixture
def checked_replays(monkeypatch):
    """replay_mismatches of every replay that fires from here on, one list
    per replay."""
    checked = []
    replay = EmbeddingState.replay

    def wrapped(state, remappable):
        entries = replay(state, remappable)
        if entries is not None:
            checked.append(replay_mismatches(state, remappable, entries))
        return entries

    monkeypatch.setattr(EmbeddingState, "replay", wrapped)
    return checked


def fresh_rack_share(state, rack):
    """Minus the summed norm of the free share of each server state.racks()
    lists under rack, in that order, taken from the residuals afresh: what
    EmbeddingState.rack_share must equal, float for float."""
    servers = next(servers for r, servers, _ in state.racks() if r == rack)
    return -sum(norm(state.residual[e.server], state.net.capacity[e.server]) for e in servers)


class SweepRuns(NamedTuple):
    traces: dict  # (mode, lambda, seed) -> trace
    committed: list  # (request, assignment) per commit, in commit order
    hits: dict  # mode -> recalled_as_fresh of each plan memo hit
    replays: dict  # mode -> replay_mismatches of each replay that fired
    shares: dict  # mode -> Counter of rack_share reads by fresh_rack_share equality


@pytest.fixture(scope="session")
def sweep_runs():
    """The acceptance sweep's simulations, run once per session: the trace of
    each by (mode, lambda, seed), every (request, assignment) pair they
    committed, in commit order, and per mode the checks of every plan memo
    hit, of every replay that fired and of every rack share greedy read."""
    net = build_fat_tree(4)
    table = enumerate_paths(net)
    policy = PolicyConfig(batch_width=3, solver_node_limit=500, remap_limit=4)
    runs = SweepRuns(
        {}, [], {m: [] for m in SWEEP_MODES}, {m: [] for m in SWEEP_MODES},
        {m: Counter() for m in SWEEP_MODES},
    )
    commit, recall, replay = EmbeddingState.commit, EmbeddingState.recall, EmbeddingState.replay
    rack_share = EmbeddingState.rack_share

    def recorded(state, req, a):
        commit(state, req, a)
        runs.committed.append((req, a))

    def checked_recall(state, req):
        entry = recall(state, req)
        if entry is not None:
            runs.hits[mode].append(recalled_as_fresh(state, req, entry))
        return entry

    def checked_replay(state, remappable):
        entries = replay(state, remappable)
        if entries is not None:
            runs.replays[mode].append(replay_mismatches(state, remappable, entries))
        return entries

    def checked_share(state, rack, servers):
        share = rack_share(state, rack, servers)
        runs.shares[mode][share == fresh_rack_share(state, rack)] += 1
        return share

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(EmbeddingState, "commit", recorded)
        mp.setattr(EmbeddingState, "recall", checked_recall)
        mp.setattr(EmbeddingState, "replay", checked_replay)
        mp.setattr(EmbeddingState, "rack_share", checked_share)
        for mode in SWEEP_MODES:
            for lam in SWEEP_LAMBDAS:
                for seed in SWEEP_SEEDS:
                    cfg = WorkloadConfig(
                        vm_count=(4, 10),
                        vswitch_count=(2, 4),
                        arrival_rate=lam,
                        horizon=300.0,
                        seed=seed,
                    )
                    runs.traces[mode, lam, seed] = run_simulation(
                        net, cfg, policy, run_mode=mode, table=table, audit_every=100
                    )
    return runs


@pytest.fixture
def k2_state(k2_net, k2_table):
    return EmbeddingState(k2_net, k2_table)


@pytest.fixture
def k4_state(k4_net, k4_table):
    return EmbeddingState(k4_net, k4_table)


@pytest.fixture
def scored_server_pairs(monkeypatch):
    """One (VM demand, server) entry per VM-server pair greedy scores from
    here on: each server of every rack pool it ranks for a VM."""
    pairs = []
    best_server = online_search._best_server

    def counted(residual, demand, bandwidth, pool, *loads):
        pairs.extend((demand, entry[0]) for entry in pool)
        return best_server(residual, demand, bandwidth, pool, *loads)

    monkeypatch.setattr(online_search, "_best_server", counted)
    return pairs


@pytest.fixture
def greedy_calls(monkeypatch):
    """One request id per greedy_temp_map call from here on, through every
    caller in online_search."""
    calls = []
    greedy_temp_map = online_search.greedy_temp_map

    def counted(state, req, allowed=None):
        calls.append(req.id)
        return greedy_temp_map(state, req, allowed)

    monkeypatch.setattr(online_search, "greedy_temp_map", counted)
    return calls


@pytest.fixture
def scored_switches(monkeypatch):
    """One (placed neighbours, switch) entry per switch greedy's walk for a
    vSwitch without a VM group reads, from here on."""
    scored = []
    by_hop_sum = SubstrateNetwork.switches_by_hop_sum

    def counted(net, hosts):
        for entry in by_hop_sum(net, hosts):
            scored.append((len(hosts), entry[1]))
            yield entry

    monkeypatch.setattr(SubstrateNetwork, "switches_by_hop_sum", counted)
    return scored


@pytest.fixture
def server_share_calls(monkeypatch):
    """One server id per EmbeddingState.server_share call from here on."""
    calls = []
    server_share = EmbeddingState.server_share

    def counted(self, server):
        calls.append(server)
        return server_share(self, server)

    monkeypatch.setattr(EmbeddingState, "server_share", counted)
    return calls


@pytest.fixture
def uplink_calls(monkeypatch):
    """One (request id, VM, server) entry per EmbeddingState.uplink call
    from here on."""
    calls = []
    uplink = EmbeddingState.uplink

    def counted(self, req, vm_id, server):
        calls.append((req.id, vm_id, server))
        return uplink(self, req, vm_id, server)

    monkeypatch.setattr(EmbeddingState, "uplink", counted)
    return calls


@pytest.fixture
def state_calls(monkeypatch):
    """Calls of EmbeddingState.commit, check_assignment and usage from here
    on, counted by method name."""
    calls = Counter()

    def counting(name):
        method = getattr(EmbeddingState, name)

        def counted(self, req, a):
            calls[name] += 1
            return method(self, req, a)

        return counted

    for name in ("commit", "check_assignment", "usage"):
        monkeypatch.setattr(EmbeddingState, name, counting(name))
    return calls


@pytest.fixture
def sum_vectors_folds(monkeypatch):
    """One entry per vector sum_vectors folds from here on, through every
    package module that imports it."""
    folded = []
    sum_vectors = topology.sum_vectors

    def counted(vectors):
        vectors = list(vectors)
        folded.extend(vectors)
        return sum_vectors(vectors)

    for name, module in list(sys.modules.items()):
        package = name.partition(".")[0]
        if package == "vdcembed" and getattr(module, "sum_vectors", None) is sum_vectors:
            monkeypatch.setattr(module, "sum_vectors", counted)
    return folded
