"""Online embedding: greedy placement that may overflow, then bounded swap repair.

The greedy stage places elements in the order VMs, switches, links. VM groups
(the VMs under one edge vSwitch) must land inside a single rack because a
switch-VM virtual link always maps onto the one physical edge between a server
and its edge switch, so the greedy unit for VMs is the rack choice per group.
Capacity overflows are allowed and recorded; the repair stage then relocates
already-mapped elements away from the overflowing hosts, a bounded number of
times, preferring the cheapest sufficient incumbent and the nearest target.
The same relocation routines repair an active request that a failure hit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial

from .errors import CommitRejectedError
from .paths import admissible
from .state import Assignment, EmbeddingState, Violation
from .topology import DIMENSIONS, ZERO, ResourceVector, VdcRequest, sum_vectors

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TempMapping:
    """A structurally valid but possibly overflowing placement of one request."""

    assignment: Assignment
    ledger: tuple[Violation, ...]

    @property
    def clean(self) -> bool:
        return not self.ledger


@dataclass(frozen=True)
class SwapMove:
    """One relocation of an already-mapped element to make room for another."""

    kind: str  # vm-swap | vswitch-swap | vlink-reroute
    moved_request: str
    moved_element: str
    old_host: str
    new_host: str


@dataclass(frozen=True)
class StructuralFailure:
    reason: str


@dataclass(frozen=True)
class RepairFailure:
    reason: str


@dataclass(frozen=True)
class OnlineResult:
    assignment: Assignment
    moves: tuple[SwapMove, ...]
    incumbent_updates: dict[str, Assignment]


def _norm(load: ResourceVector, cap: ResourceVector) -> float:
    """Scalar size of a load relative to a capacity, for deterministic ranking."""
    total = 0.0
    if cap.cpu_cores:
        total += load.cpu_cores / cap.cpu_cores
    if cap.memory_mb:
        total += load.memory_mb / cap.memory_mb
    if cap.switch_memory:
        total += load.switch_memory / cap.switch_memory
    if cap.bandwidth:
        total += load.bandwidth / cap.bandwidth
    return total


def _violation_total(state: EmbeddingState, ledger) -> float:
    capacity = state.net.capacity
    return sum((_norm(v.overflow, capacity[v.element]) for v in ledger), 0.0)


def compute_fragments(state: EmbeddingState):
    """Connected components of the substrate restricted to elements with
    strictly positive residual on every capacity dimension they carry.

    Returns a list of (node id set, link id set, free ResourceVector) ordered
    by descending free cores, memory, bandwidth and switch memory, then
    smallest member id.
    """
    net = state.net
    down = state.down
    alive = set()
    for eid, rv in state.residual.items():
        if eid in down:
            continue
        for dim in DIMENSIONS[net.kind(eid)]:
            if getattr(rv, dim) <= 0:
                break
        else:
            alive.add(eid)
    seen: set[str] = set()
    fragments = []
    for start in sorted(alive & net.adjacency.keys()):
        if start in seen:
            continue
        nodes = {start}
        links = set()
        frontier = [start]
        seen.add(start)
        while frontier:
            cur = frontier.pop()
            for nxt, lid in net.adjacency[cur]:
                if lid not in alive or nxt not in alive:
                    continue
                links.add(lid)
                if nxt not in seen:
                    seen.add(nxt)
                    nodes.add(nxt)
                    frontier.append(nxt)
        free = sum_vectors(state.residual[eid] for eid in (*nodes, *links))
        fragments.append((nodes, links, free))
    fragments.sort(
        key=lambda f: (
            -f[2].cpu_cores,
            -f[2].memory_mb,
            -f[2].bandwidth,
            -f[2].switch_memory,
            min(f[0]),
        )
    )
    return fragments


def _vm_groups(req: VdcRequest) -> dict[str, list[str]]:
    groups: dict[str, list[str]] = {}
    for vm_id in req.vms:
        groups.setdefault(req.vm_parent(vm_id), []).append(vm_id)
    return groups


def greedy_temp_map(
    state: EmbeddingState, req: VdcRequest, allowed: tuple[set, set] | None = None
) -> TempMapping | StructuralFailure:
    """Place every element of a request, tolerating capacity overflows.

    allowed optionally restricts placement to a (node ids, link ids) fragment.
    Each VM group takes the first rack, by most free share then id, whose
    plan costs nothing, else the cheapest; a vSwitch-vSwitch vlink takes its
    first path with no overflow, else the least overflowing.
    Deterministic: all choices resolve ties by element id.
    """
    net = state.net
    table = state.table
    allowed_nodes, allowed_links = allowed if allowed else (None, None)

    def node_ok(nid):
        if nid in state.down:
            return False
        return allowed_nodes is None or nid in allowed_nodes

    groups = _vm_groups(req)
    group_order = sorted(
        groups,
        key=lambda g: (
            not any(req.locality and vm in req.locality for vm in groups[g]),
            -sum(req.vms[v].demand.cpu_cores for v in groups[g]),
            -sum(req.vms[v].demand.memory_mb for v in groups[g]),
            g,
        ),
    )
    edge_switches = sorted(
        s for s in net.switches if net.switches[s].tier == "edge" and node_ok(s)
    )
    # usable racks in tie-break order: (minus the servers' summed free share,
    # id, servers whose uplink qualifies with that uplink edge, alike per VM)
    racks = []
    for vm in list(req.vms)[:1]:
        for rack in edge_switches:
            servers = [
                (s, table.path(*key).edges[0]) for s in net.servers_under(rack)
                if node_ok(s) and (key := state.uplink(req, vm, s))
            ]
            if servers:
                share = sum(_norm(state.residual[s], net.servers[s].capacity) for s, _ in servers)
                racks.append((-share, rack, servers))
    racks.sort()  # rack ids are distinct, so no two server lists are compared

    vm_map: dict[str, str] = {}
    vswitch_map: dict[str, str] = {}
    used_switches: set[str] = set()

    def place_group(vm_ids, servers):
        """Greedy placement on one rack's (server, uplink edge) pairs:
        (overflow scalar, VM -> server), or None if impossible. A request's
        groups take distinct racks, so the loads are local to this plan."""
        server_load: dict[str, ResourceVector] = {}
        link_load: dict[str, int] = {}
        placement = {}
        total_overflow = 0.0
        order = sorted(
            vm_ids,
            key=lambda v: (-req.vms[v].demand.cpu_cores, -req.vms[v].demand.memory_mb, v),
        )
        for vm_id in order:
            demand = req.vms[vm_id].demand
            pool = servers
            if req.locality and vm_id in req.locality:
                pool = [(s, lid) for s, lid in servers if s in req.locality[vm_id]]
                if not pool:
                    return None
            vlink = req.uplinks[vm_id]
            best = None
            for sid, lid in pool:
                cap = net.servers[sid].capacity
                free = state.residual[sid] - server_load.get(sid, ZERO)
                score = _norm(demand.overflow_over(free), cap)
                link_free = state.residual[lid].bandwidth - link_load.get(lid, 0)
                score += max(0, vlink.bandwidth - link_free) / net.links[lid].bandwidth
                # keys end in the server id, so the scan order does not matter
                key = (score, -_norm(free - demand, cap), sid)
                if best is None or key < best[0]:
                    best = (key, sid, lid)
            key, sid, lid = best
            placement[vm_id] = sid
            server_load[sid] = server_load.get(sid, ZERO) + demand
            link_load[lid] = link_load.get(lid, 0) + vlink.bandwidth
            total_overflow += key[0]
        return total_overflow, placement

    for vs_id in group_order:
        vs_demand = req.vswitches[vs_id].demand.switch_memory
        best = None
        # costs are >= 0, so the first rack whose plan costs nothing wins
        for _, rack, servers in racks:
            if rack in used_switches:
                continue
            plan = place_group(groups[vs_id], servers)
            if plan is None:
                continue
            mem_free = state.residual[rack].switch_memory
            mem_over = max(0, vs_demand - mem_free) / net.switches[rack].capacity.switch_memory
            cost = plan[0] + mem_over
            if best is None or cost < best[0]:
                best = (cost, rack, plan[1])
                if cost == 0:
                    break
        if best is None:
            return StructuralFailure(f"no rack can host vm group of {vs_id}")
        _, rack, placement = best
        vm_map.update(placement)
        vswitch_map[vs_id] = rack
        used_switches.add(rack)

    # edge vswitches without VMs still need an edge-tier home
    for vs_id in sorted(req.vswitches):
        vs = req.vswitches[vs_id]
        if vs.is_edge and vs_id not in vswitch_map:
            candidates = [s for s in edge_switches if s not in used_switches]
            if not candidates:
                return StructuralFailure(f"no edge switch left for {vs_id}")
            best = min(
                candidates,
                key=lambda s: (
                    max(0, vs.demand.switch_memory - state.residual[s].switch_memory),
                    s,
                ),
            )
            vswitch_map[vs_id] = best
            used_switches.add(best)

    neighbor_map: dict[str, list[str]] = {vs: [] for vs in req.vswitches}
    for vl in req.vlinks.values():
        if vl.a in req.vswitches and vl.b in req.vswitches:
            neighbor_map[vl.a].append(vl.b)
            neighbor_map[vl.b].append(vl.a)

    for vs_id in sorted(req.vswitches):
        if vs_id in vswitch_map:
            continue
        vs = req.vswitches[vs_id]
        candidates = [
            s for s in sorted(net.switches) if node_ok(s) and s not in used_switches
        ]
        if not candidates:
            return StructuralFailure(f"no switch left for {vs_id}")
        scored = []
        for sid in candidates:
            mem_free = state.residual[sid].switch_memory
            over = max(0, vs.demand.switch_memory - mem_free)
            over_norm = over / net.switches[sid].capacity.switch_memory
            hop_sum = sum(
                net.hop_distance(sid, vswitch_map[nb])
                for nb in neighbor_map[vs_id]
                if nb in vswitch_map
            )
            scored.append((over_norm, hop_sum, sid))
        scored.sort()
        vswitch_map[vs_id] = scored[0][2]
        used_switches.add(scored[0][2])

    vlink_map: dict[str, tuple[str, str, int]] = {}
    path_load: dict[str, int] = {}  # no switch-switch path crosses a server
    for vl_id in sorted(req.vlinks):
        vl = req.vlinks[vl_id]
        vm_id = vl.a if vl.a in req.vms else vl.b
        if vm_id in req.vms:
            vlink_map[vl_id] = state.uplink(req, vm_id, vm_map[vm_id])
            continue
        img_a, img_b = vswitch_map[vl.a], vswitch_map[vl.b]
        best = None
        for n, rec in enumerate(table.get(img_a, img_b)):
            if not admissible(rec, state.down, req.latency_bound):
                continue
            if allowed_links is not None and any(e not in allowed_links for e in rec.edges):
                continue
            over = 0.0
            for eid in rec.edges:
                free = state.residual[eid].bandwidth - path_load.get(eid, 0)
                over += max(0, vl.bandwidth - free) / net.links[eid].bandwidth
            # paths come in ascending n: keep the first least overflow
            if best is None or over < best[0]:
                best = (over, n, rec)
                if over == 0:
                    break
        if best is None:
            return StructuralFailure(f"no admissible path for {vl_id} ({img_a}->{img_b})")
        _, n, rec = best
        vlink_map[vl_id] = (img_a, img_b, n)
        for eid in rec.edges:
            path_load[eid] = path_load.get(eid, 0) + vl.bandwidth

    assignment = Assignment(req.id, vm_map, vswitch_map, vlink_map)
    findings = state.check_assignment(req, assignment)
    structural = [v for v in findings if v.structural]
    if structural:
        return StructuralFailure(f"unexpected structural finding: {structural[0]}")
    return TempMapping(assignment, tuple(findings))


def _reroute_vlink(probe, req, a, vl_id, extra, avoid=None):
    """Assignment a with vlink vl_id moved, between its ends' hosts in a, to
    the first admissible path with room that skips the link avoid, or None.
    Its path in a counts as free again; extra is the usage map planned on top
    of the probe's residuals."""
    vl = req.vlinks[vl_id]
    pa, pb = a.host_of(vl.a), a.host_of(vl.b)
    n = probe.free_path(
        pa,
        pb,
        vl.bandwidth,
        req.latency_bound,
        credit=probe.table.path(*a.vlink_map[vl_id]).edges,
        extra=extra,
        avoid=avoid,
    )
    if n is None:
        return None
    return Assignment(a.request_id, a.vm_map, a.vswitch_map, {**a.vlink_map, vl_id: (pa, pb, n)})


def _relocate_vm(probe, req, a, vm_id, extra):
    """Assignment a with one VM moved to another server of its rack, nearest
    first; None when no server has room.

    The parent vSwitch stays put, so only servers under the same edge switch
    qualify; locality and the server link's bandwidth are honoured. extra is
    the usage map planned on top of the probe's residuals.
    """
    old_server = a.vm_map[vm_id]
    demand = req.vms[vm_id].demand
    vlink = req.uplinks[vm_id]
    options = []
    for sid in sorted(probe.net.servers_under(probe.net.edge_switch_of(old_server))):
        key = probe.uplink(req, vm_id, sid)
        if sid == old_server or key is None:
            continue
        if req.locality and vm_id in req.locality and sid not in req.locality[vm_id]:
            continue
        free = probe.residual[sid] - extra.get(sid, ZERO)
        lid = probe.table.path(*key).edges[0]
        link_free = probe.residual[lid].bandwidth - extra.get(lid, ZERO).bandwidth
        if demand.le(free) and vlink.bandwidth <= link_free:
            options.append((probe.net.hop_distance(old_server, sid), sid, key))
    if not options:
        return None
    _, sid, key = min(options)
    return Assignment(
        a.request_id, {**a.vm_map, vm_id: sid}, a.vswitch_map, {**a.vlink_map, vlink.id: key}
    )


def repair_displaced(state: EmbeddingState, req: VdcRequest) -> Assignment | None:
    """A new placement for an active request hit by a failure with only
    the elements on failed hardware moved, or None when that is impossible.

    A VM whose server or uplink failed moves within its rack, a vlink
    over a failed link or switch takes the first admissible path with
    room. Plans on a copy of the state with the request released; planned
    loads are the request's own usage, so unmoved VMs count once.
    """
    probe = state.copy()
    a = probe.release(req.id)
    down = probe.down
    if any(host in down for host in a.vswitch_map.values()):
        return None  # switch loss relocates the vswitch; fall back to requeue
    for vm_id, host in a.vm_map.items():
        if probe.uplink(req, vm_id, host) is None:
            a = _relocate_vm(probe, req, a, vm_id, probe.usage(req, a))
            if a is None:
                return None
    for vl_id, key in a.vlink_map.items():
        if not admissible(probe.table.path(*key), down, None):
            a = _reroute_vlink(probe, req, a, vl_id, probe.usage(req, a))
            if a is None:
                return None
    return None if probe.check_assignment(req, a) else a


def swap_repair(
    state: EmbeddingState, req: VdcRequest, temp: TempMapping, max_swaps: int
):
    """Clear a temp mapping's capacity overflows by relocating incumbents.

    Works on a scratch copy; on success returns (assignment, moves,
    incumbent_updates) that are jointly strictly feasible against the input
    state. On failure the input state is untouched.
    """
    probe = state.copy()
    assignment = temp.assignment
    moves: list[SwapMove] = []
    incumbent_updates: dict[str, Assignment] = {}

    for _ in range(max(max_swaps, 0) + 1):
        findings = [v for v in probe.check_assignment(req, assignment) if not v.structural]
        if not findings:
            try:
                probe.commit(req, assignment)
            except CommitRejectedError as err:
                return RepairFailure(f"final feasibility check failed: {err}")
            return OnlineResult(assignment, tuple(moves), incumbent_updates)
        if len(moves) >= max_swaps:
            return RepairFailure("swap budget exhausted")

        extra = probe.usage(req, assignment)
        findings.sort(key=lambda v: (_violation_total(probe, [v]), v.element))
        for violation in findings:
            host = violation.element
            need = violation.overflow
            if host in probe.net.servers:
                options = _repair_server(probe, req, host, need, extra)
            elif host in probe.net.switches:
                options = _repair_switch(probe, req, host, need, extra)
            else:
                options = _repair_link(probe, req, assignment, host, need, extra)
            # the incoming request's own re-routes need no incumbent swapped in
            step = next(
                (
                    (new, move)
                    for new, move in options
                    if move.moved_request == req.id or _swap_in(probe, new)
                ),
                None,
            )
            if step is not None:
                break
        else:
            return RepairFailure("no incumbent relocation clears the overflow")
        new, move = step
        moves.append(move)
        if move.moved_request == req.id:
            assignment = new
        else:
            incumbent_updates[move.moved_request] = new
        logger.debug(
            "swap: %s %s/%s %s -> %s",
            move.kind, move.moved_request, move.moved_element, move.old_host, move.new_host,
        )
    return RepairFailure("swap budget exhausted")


def _incumbents_on(probe, kind, host, exclude_request):
    out = []
    for rid, a in probe.active.items():
        if rid == exclude_request:
            continue
        mapping = a.vm_map if kind == "vm" else a.vswitch_map
        for elem, where in mapping.items():
            if where == host:
                out.append((rid, elem))
    return out


def _swap_in(probe, new_assignment) -> bool:
    """Replace one incumbent's assignment on the probe; on rejection put the
    old one back and return False."""
    rid = new_assignment.request_id
    req_obj = probe.requests[rid]
    old = probe.release(rid)
    try:
        probe.commit(req_obj, new_assignment)
        return True
    except CommitRejectedError:
        # unchecked: the old placement held these resources a moment ago, but
        # it may touch an element marked down since, which commit would refuse
        probe.add_usage(probe.residual, req_obj, old, -1)
        probe.active[rid] = old
        probe.requests[rid] = req_obj
        return False


def _relocations(probe, candidates, relocate, kind, host, extra):
    """Yield (assignment, move) for each (covers, size, request id, element)
    candidate that relocate can move off host: the cheapest sufficient one
    first, else the largest partial relief, ties by request and element."""
    candidates.sort(key=lambda c: (not c[0], c[1] if c[0] else -c[1], c[2], c[3]))
    for _, _, rid, element in candidates:
        new = relocate(probe, probe.requests[rid], probe.active[rid], element, extra)
        if new is not None:
            # a vlink has no host of its own; its move names the congested link
            yield new, SwapMove(kind, rid, element, host, new.host_of(element) or host)


def _repair_server(probe, req, host, need, extra):
    """Candidate relocations of incumbent VMs off an overflowing server."""
    candidates = []
    for rid, vm_id in _incumbents_on(probe, "vm", host, req.id):
        demand = probe.requests[rid].vms[vm_id].demand
        covers = demand.cpu_cores >= need.cpu_cores and demand.memory_mb >= need.memory_mb
        size = _norm(demand, probe.net.servers[host].capacity)
        candidates.append((covers, size, rid, vm_id))
    return _relocations(probe, candidates, _relocate_vm, "vm-swap", host, extra)


def _repair_switch(probe, req, host, need, extra):
    """Candidate relocations of incumbent vSwitches off an overflowing switch."""
    candidates = []
    for rid, vs_id in _incumbents_on(probe, "vswitch", host, req.id):
        size = probe.requests[rid].vswitches[vs_id].demand.switch_memory
        candidates.append((size >= need.switch_memory, size, rid, vs_id))
    return _relocations(probe, candidates, _relocate_vswitch, "vswitch-swap", host, extra)


def _relocate_vswitch(probe, req, a, vs_id, extra):
    """Assignment a with one internal vSwitch moved to the nearest switch
    with room, its vlinks re-routed, or None; edge vSwitch moves would drag
    their whole VM group along and are not attempted."""
    vs = req.vswitches[vs_id]
    if vs.is_edge:
        return None
    old_host = a.vswitch_map[vs_id]
    used = set(a.vswitch_map.values())
    options = []
    for sid in sorted(probe.net.switches):
        if sid in used or sid in probe.down:
            continue
        if not vs.demand.le(probe.residual[sid] - extra.get(sid, ZERO)):
            continue
        options.append((probe.net.hop_distance(old_host, sid), sid))
    options.sort()
    for _, sid in options:
        moved = Assignment(a.request_id, a.vm_map, {**a.vswitch_map, vs_id: sid}, a.vlink_map)
        planned = dict(extra)
        for vl in req.vlinks.values():
            if vs_id not in (vl.a, vl.b):
                continue
            moved = _reroute_vlink(probe, req, moved, vl.id, planned)
            if moved is None:
                break
            load = ResourceVector(bandwidth=vl.bandwidth)
            for eid in probe.table.path(*moved.vlink_map[vl.id]).edges:
                planned[eid] = planned.get(eid, ZERO) + load
        else:
            return moved
    return None


def _repair_link(probe, req, assignment, host, need, extra):
    """Yield (assignment, move) re-routes of incumbent vlinks off a congested
    link, then of the incoming request's own tentative vlinks, largest
    first."""
    candidates = []
    for rid, a in probe.active.items():
        if rid == req.id:
            continue
        for vl_id, key in a.vlink_map.items():
            recs = probe.table.get(key[0], key[1])
            if host in recs[key[2]].edges:
                bw = probe.requests[rid].vlinks[vl_id].bandwidth
                candidates.append((bw >= need.bandwidth, bw, rid, vl_id))
    reroute = partial(_reroute_vlink, avoid=host)
    yield from _relocations(probe, candidates, reroute, "vlink-reroute", host, extra)

    own = []
    for vl_id, key in assignment.vlink_map.items():
        if host in probe.table.path(*key).edges:
            own.append((req.vlinks[vl_id].bandwidth, vl_id))
    own.sort(reverse=True)
    for _, vl_id in own:
        rerouted = _reroute_vlink(probe, req, assignment, vl_id, extra, avoid=host)
        if rerouted is not None:
            yield rerouted, SwapMove("vlink-reroute", req.id, vl_id, host, host)


def try_online_embed(state: EmbeddingState, req: VdcRequest, swap_ceiling: int = 8):
    """Greedy-then-repair online embedding against a read-only state.

    Fragments with enough free capacity are tried first (largest first); a
    clean fragment placement needs no swaps. Otherwise the whole substrate is
    mapped greedily and repaired within the swap budget. Failure leaves the
    state untouched.
    """
    need = req.demand_totals()
    if not need.le(state.residual_vectors()):
        return RepairFailure("aggregate residual below request demand")

    # a clean greedy mapping already passed check_assignment on this state
    for nodes, links, free in compute_fragments(state):
        if not need.le(free):
            continue
        temp = greedy_temp_map(state, req, allowed=(nodes, links))
        if isinstance(temp, TempMapping) and temp.clean:
            return OnlineResult(temp.assignment, (), {})

    temp = greedy_temp_map(state, req)
    if isinstance(temp, StructuralFailure):
        return temp
    if temp.clean:
        return OnlineResult(temp.assignment, (), {})
    return swap_repair(state, req, temp, min(len(temp.ledger), swap_ceiling))
