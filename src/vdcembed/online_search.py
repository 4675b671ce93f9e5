"""Online embedding: greedy placement that may overflow, then bounded swap repair.

The greedy stage places elements in the order VMs, switches, links. VM groups
(the VMs under one edge vSwitch) must land inside a single rack because a
switch-VM virtual link always maps onto the one physical edge between a server
and its edge switch, so the greedy unit for VMs is the rack choice per group.
Capacity overflows are allowed and recorded; the repair stage then relocates
already-mapped elements away from the overflowing hosts, a bounded number of
times, preferring the cheapest sufficient incumbent and the nearest target.
The same relocation routine repairs an active request that a failure hit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
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

    neighbor_map: dict[str, list[str]] = {vs: [] for vs in req.vswitches}
    for vl in req.vlinks.values():
        if vl.a in req.vswitches and vl.b in req.vswitches:
            neighbor_map[vl.a].append(vl.b)
            neighbor_map[vl.b].append(vl.a)

    # vSwitches without a VM group, edge ones (on the edge tier) first, then
    # internal ones, each by id: least overflow, fewest hops to placed
    # neighbours, then switch id
    for vs_id in sorted(req.vswitches, key=lambda v: (not req.vswitches[v].is_edge, v)):
        if vs_id in vswitch_map:
            continue
        vs = req.vswitches[vs_id]
        placed = [vswitch_map[nb] for nb in neighbor_map[vs_id] if nb in vswitch_map]
        scored = [
            (
                max(0, vs.demand.switch_memory - state.residual[sid].switch_memory)
                / net.switches[sid].capacity.switch_memory,
                sum(net.hop_distance(sid, host) for host in placed),
                sid,
            )
            for sid in (edge_switches if vs.is_edge else net.switches)
            if node_ok(sid) and sid not in used_switches
        ]
        if not scored:
            return StructuralFailure(f"no switch left for {vs_id}")
        sid = min(scored)[2]
        vswitch_map[vs_id] = sid
        used_switches.add(sid)

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


def _relocate(probe, req, a, element, extra):
    """Assignment a with one VM or internal vSwitch moved to the nearest
    host that is up and has room, ties by id, whose incident vlinks all
    re-route; None when no host does.

    A VM stays among the servers of its rack inside its locality, since its
    parent vSwitch stays put; an internal vSwitch takes a switch its request
    does not use; an edge vSwitch would drag its whole VM group along and is
    not moved. extra is the usage map planned on top of the probe's residuals.
    """
    net = probe.net
    old = a.host_of(element)
    if element in req.vms:
        node = req.vms[element]
        pool = net.servers_under(net.edge_switch_of(old))
        allowed = (req.locality or {}).get(element)
        pool = pool if allowed is None else [s for s in pool if s in allowed]
        field = "vm_map"
    else:
        node = req.vswitches[element]
        if node.is_edge:
            return None
        used = set(a.vswitch_map.values())
        pool = [s for s in net.switches if s not in used]
        field = "vswitch_map"
    options = sorted(
        (net.hop_distance(old, host), host)
        for host in pool
        if host != old
        and host not in probe.down
        and node.demand.le(probe.residual[host] - extra.get(host, ZERO))
    )
    vlinks = [vl for vl in req.vlinks.values() if element in (vl.a, vl.b)]
    for _, host in options:
        moved = replace(a, **{field: {**getattr(a, field), element: host}})
        planned = dict(extra)
        for vl in vlinks:
            # a VM's uplink has one path, the one state.uplink names
            moved = _reroute_vlink(probe, req, moved, vl.id, planned)
            if moved is None:
                break
            load = ResourceVector(bandwidth=vl.bandwidth)
            for eid in probe.table.path(*moved.vlink_map[vl.id]).edges:
                planned[eid] = planned.get(eid, ZERO) + load
        else:
            return moved
    return None


def repair_displaced(state: EmbeddingState, req: VdcRequest) -> Assignment | None:
    """A new placement for an active request hit by a failure with only
    the elements on failed hardware moved, or None when that is impossible.

    A vSwitch on a failed switch and a VM whose server or uplink failed are
    moved by _relocate (an edge vSwitch there gives up), then a vlink over
    a failed link or switch takes the first admissible path with room.
    Plans on a copy of the state with the request released; planned loads
    are the request's own usage, so unmoved elements count once.
    """
    probe = state.copy()
    a = probe.release(req.id)
    down = probe.down
    for element, host in [*a.vswitch_map.items(), *a.vm_map.items()]:
        if host in down or (element in req.vms and probe.uplink(req, element, host) is None):
            a = _relocate(probe, req, a, element, probe.usage(req, a))
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
        findings.sort(key=lambda v: (_norm(v.overflow, probe.net.capacity[v.element]), v.element))
        for violation in findings:
            options = _relief(probe, req, assignment, violation.element, violation.overflow, extra)
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


def _relief(probe, req, assignment, host, need, extra):
    """Yield (assignment, move) relocations that take load off an
    overflowing host: first each incumbent element that loads it, moved by
    the routine for the host's kind, the cheapest one that covers need
    first, else the largest partial relief, ties by request and element;
    then the incoming request's own vlinks over it, largest first."""
    kind, relocate = {
        "server": ("vm-swap", _relocate),
        "switch": ("vswitch-swap", _relocate),
        "link": ("vlink-reroute", partial(_reroute_vlink, avoid=host)),
    }[probe.net.kind(host)]
    cap = probe.net.capacity[host]
    candidates = [
        (need.le(load), _norm(load, cap), rid, element)
        for rid, a in probe.active.items()
        for element, eid, load in probe.loads(probe.requests[rid], a) if eid == host
    ]
    candidates.sort(key=lambda c: (not c[0], c[1] if c[0] else -c[1], c[2], c[3]))
    for _, _, rid, element in candidates:
        new = relocate(probe, probe.requests[rid], probe.active[rid], element, extra)
        if new is not None:
            # a vlink has no host of its own; its move names the congested link
            yield new, SwapMove(kind, rid, element, host, new.host_of(element) or host)

    own = [
        (load.bandwidth, vl_id)
        for vl_id, eid, load in probe.loads(req, assignment)
        if eid == host and vl_id in req.vlinks
    ]
    for _, vl_id in sorted(own, reverse=True):
        new = _reroute_vlink(probe, req, assignment, vl_id, extra, avoid=host)
        if new is not None:
            yield new, SwapMove("vlink-reroute", req.id, vl_id, host, host)


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
