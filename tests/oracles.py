"""Independent reference implementations the tests check the package against.

Everything here recomputes results from first principles (recursive DFS,
plain load accumulation, exhaustive enumeration) and deliberately avoids the
package's own data structures beyond reading their public fields.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from vdcembed.online_search import StructuralFailure, TempMapping
from vdcembed.paths import admissible
from vdcembed.state import Assignment, EmbeddingState
from vdcembed.topology import (
    DIMENSIONS,
    ZERO,
    Link,
    ResourceVector,
    Server,
    SubstrateNetwork,
    Switch,
    VdcRequest,
)


def simple_paths_dfs(net, src, dst, max_len):
    """All simple paths src->dst with <= max_len edges, as edge-id tuples."""
    results = []

    def walk(node, visited, edges):
        if node == dst and edges:
            results.append(tuple(edges))
            return
        if len(edges) >= max_len:
            return
        for nxt, lid in net.adjacency[node]:
            if nxt in visited:
                continue
            walk(nxt, visited | {nxt}, edges + [lid])

    walk(src, {src}, [])
    return sorted(results, key=lambda e: (len(e), e))


def random_switch_graph(rng, n_nodes, edge_prob=0.4):
    """A random connected graph of plain switches for path-count comparisons."""
    switches = {
        f"n{i}": Switch(f"n{i}", "edge", ResourceVector(switch_memory=10))
        for i in range(n_nodes)
    }
    links = {}
    ln = 0
    ids = sorted(switches)
    # random spanning tree first so the graph is connected
    for i in range(1, n_nodes):
        j = rng.randrange(i)
        links[f"l{ln}"] = Link(f"l{ln}", ids[j], ids[i], rng.randint(1, 100), rng.randint(0, 3))
        ln += 1
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < edge_prob and not any(
                {l.a, l.b} == {ids[i], ids[j]} for l in links.values()
            ):
                links[f"l{ln}"] = Link(
                    f"l{ln}", ids[i], ids[j], rng.randint(1, 100), rng.randint(0, 3)
                )
                ln += 1
    return SubstrateNetwork(servers={}, switches=switches, links=links, k_arity=0)


def random_multigraph(rng, n_switches, n_servers, extra_links):
    """A random connected graph of switches, with parallel links allowed and
    one leaf link per server. Link ids are shuffled, so id order is not the
    order in which links join the adjacency."""
    switches = {
        f"n{i}": Switch(f"n{i}", "edge", ResourceVector(switch_memory=10))
        for i in range(n_switches)
    }
    servers = {f"s{i}": Server(f"s{i}", ResourceVector(1, 1)) for i in range(n_servers)}
    ids = sorted(switches)
    ends = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n_switches)]
    ends += [tuple(rng.sample(ids, 2)) for _ in range(extra_links if n_switches > 1 else 0)]
    ends += [(rng.choice(ids), sid) for sid in servers]
    numbers = rng.sample(range(100), len(ends))
    links = {
        f"l{n}": Link(f"l{n}", a, b, rng.randint(1, 100), rng.randint(0, 3))
        for n, (a, b) in zip(numbers, ends)
    }
    return SubstrateNetwork(servers=servers, switches=switches, links=links, k_arity=0)


def recheck_embedding(net, table, placed):
    """Re-evaluate the mapping conditions for a set of committed requests.

    placed: list of (VdcRequest, Assignment). Returns a list of problem
    strings; empty means every condition holds. Loads are re-accumulated from
    scratch and paths re-walked against the raw link records.
    """
    problems = []
    server_load = {sid: ResourceVector() for sid in net.servers}
    switch_load = {sid: 0 for sid in net.switches}
    link_load = {lid: 0 for lid in net.links}

    for req, a in placed:
        for vm_id, vm in req.vms.items():
            pm = a.vm_map.get(vm_id)
            if pm is None or pm not in net.servers:
                problems.append(f"{req.id}/{vm_id}: not on a server")
                continue
            server_load[pm] = server_load[pm] + vm.demand
            if req.locality and vm_id in req.locality and pm not in req.locality[vm_id]:
                problems.append(f"{req.id}/{vm_id}: outside locality set")
        seen_switches = set()
        for vs_id, vs in req.vswitches.items():
            ps = a.vswitch_map.get(vs_id)
            if ps is None or ps not in net.switches:
                problems.append(f"{req.id}/{vs_id}: not on a switch")
                continue
            if ps in seen_switches:
                problems.append(f"{req.id}/{vs_id}: switch {ps} reused within request")
            seen_switches.add(ps)
            if vs.is_edge and net.switches[ps].tier != "edge":
                problems.append(f"{req.id}/{vs_id}: edge vswitch on tier {net.switches[ps].tier}")
            switch_load[ps] += vs.demand.switch_memory
        for vl_id, vl in req.vlinks.items():
            key = a.vlink_map.get(vl_id)
            if key is None:
                problems.append(f"{req.id}/{vl_id}: unmapped")
                continue
            pa, pb, n = key
            img_a = a.vm_map.get(vl.a) or a.vswitch_map.get(vl.a)
            img_b = a.vm_map.get(vl.b) or a.vswitch_map.get(vl.b)
            if (img_a, img_b) != (pa, pb):
                problems.append(f"{req.id}/{vl_id}: path endpoints disagree with node images")
                continue
            recs = table.get(pa, pb)
            if not 0 <= n < len(recs):
                problems.append(f"{req.id}/{vl_id}: no such path index")
                continue
            _, edges, _ = recs[n]
            # re-walk the edge sequence against the raw links
            here = pa
            delay = 0
            for eid in edges:
                link = net.links[eid]
                if link.a == here:
                    here = link.b
                elif link.b == here:
                    here = link.a
                else:
                    problems.append(f"{req.id}/{vl_id}: edge {eid} does not continue the path")
                    break
                delay += link.delay
                link_load[eid] += vl.bandwidth
            else:
                if here != pb:
                    problems.append(f"{req.id}/{vl_id}: path does not end at {pb}")
                if req.latency_bound is not None and delay > req.latency_bound:
                    problems.append(f"{req.id}/{vl_id}: delay {delay} over bound")

    for sid, load in server_load.items():
        if not load.le(net.servers[sid].capacity):
            problems.append(f"server {sid} overloaded: {load}")
    for sid, load in switch_load.items():
        if load > net.switches[sid].capacity.switch_memory:
            problems.append(f"switch {sid} overloaded: {load}")
    for lid, load in link_load.items():
        if load > net.links[lid].bandwidth:
            problems.append(f"link {lid} overloaded: {load}")
    return problems


def residual_fold(state):
    """The residuals of a state's up elements, added one by one."""
    total = ResourceVector()
    for eid, rv in state.residual.items():
        if eid not in state.down:
            total = total + rv
    return total


def fragments_bfs(state):
    """A state's fragments recomputed from its residuals: (node ids, link
    ids, free vector) per connected component of the up elements positive
    on every capacity dimension of their kind, by descending free cores,
    memory, bandwidth and switch memory, then smallest node id."""
    net = state.net
    alive = {
        eid
        for eid, rv in state.residual.items()
        if eid not in state.down
        and all(getattr(rv, dim) > 0 for dim in DIMENSIONS[net.kind(eid)])
    }
    seen = set()
    fragments = []
    for start in sorted(alive & net.adjacency.keys()):
        if start in seen:
            continue
        nodes, links, frontier = {start}, set(), [start]
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
        free = ResourceVector()
        for eid in (*nodes, *links):
            free = free + state.residual[eid]
        fragments.append((nodes, links, free))
    fragments.sort(
        key=lambda f: (
            -f[2].cpu_cores, -f[2].memory_mb, -f[2].bandwidth, -f[2].switch_memory, min(f[0])
        )
    )
    return fragments


def hop_distance_bfs(net, a, b):
    """Shortest hop count between two substrate nodes, by plain BFS."""
    frontier = [a]
    dist = {a: 0}
    while frontier:
        nxt = []
        for node in frontier:
            for neigh, _ in net.adjacency[node]:
                if neigh not in dist:
                    dist[neigh] = dist[node] + 1
                    nxt.append(neigh)
        frontier = nxt
    return dist[b]


def enumerate_structural_assignments(net, table, req):
    """Every structurally valid assignment of one request, capacities ignored.

    Returns a list of Assignment. vSwitch maps are injective with edge
    vSwitches restricted to edge-tier switches; each VM sits on a server
    adjacent to its parent vSwitch image; vLinks take any admissible path.
    """
    switch_ids = sorted(net.switches)
    edge_ids = [s for s in switch_ids if net.switches[s].tier == "edge"]
    vs_ids = sorted(req.vswitches)
    vm_ids = sorted(req.vms)
    parents = {vm_id: req.vm_parent(vm_id) for vm_id in vm_ids}

    candidates = []
    for vs_id in vs_ids:
        pool = edge_ids if req.vswitches[vs_id].is_edge else switch_ids
        candidates.append(pool)

    out = []
    for combo in itertools.product(*candidates):
        if len(set(combo)) != len(combo):
            continue
        vswitch_map = dict(zip(vs_ids, combo))
        vm_pools = []
        ok = True
        for vm_id in vm_ids:
            rack = sorted(net.servers_under(vswitch_map[parents[vm_id]]))
            if req.locality and vm_id in req.locality:
                rack = [s for s in rack if s in req.locality[vm_id]]
            if not rack:
                ok = False
                break
            vm_pools.append(rack)
        if not ok:
            continue
        for vm_combo in itertools.product(*vm_pools):
            vm_map = dict(zip(vm_ids, vm_combo))
            images = dict(vswitch_map)
            images.update(vm_map)
            vl_pools = []
            ok2 = True
            for vl_id in sorted(req.vlinks):
                vl = req.vlinks[vl_id]
                pa, pb = images[vl.a], images[vl.b]
                recs = table.get(pa, pb)
                choices = [
                    (vl_id, (pa, pb, n))
                    for n, (_, _, delay) in enumerate(recs)
                    if req.latency_bound is None or delay <= req.latency_bound
                ]
                if not choices:
                    ok2 = False
                    break
                vl_pools.append(choices)
            if not ok2:
                continue
            for vl_combo in itertools.product(*vl_pools):
                out.append(
                    Assignment(req.id, dict(vm_map), dict(vswitch_map), dict(vl_combo))
                )
    return out


def best_joint_objective(net, table, requests, migration=None, f=Fraction(2)):
    """Exhaustive optimum of the batch model over small instances.

    migration: optional dict request_id -> (old Assignment, vm weight map)
    giving the previous placement of remappable requests; penalties are
    hop(old,new)/diameter, VM terms scaled by the weight map, vSwitch terms
    divided by f. Returns the best objective as a Fraction.
    """
    per_request = []
    for req in requests:
        options = [None] + enumerate_structural_assignments(net, table, req)
        per_request.append(options)
    diameter = net.diameter()

    def capacity_ok(chosen):
        server_load = {sid: ResourceVector() for sid in net.servers}
        switch_load = {sid: 0 for sid in net.switches}
        link_load = {lid: 0 for lid in net.links}
        for req, a in chosen:
            for vm_id, pm in a.vm_map.items():
                server_load[pm] = server_load[pm] + req.vms[vm_id].demand
            for vs_id, ps in a.vswitch_map.items():
                switch_load[ps] += req.vswitches[vs_id].demand.switch_memory
            for vl_id, (pa, pb, n) in a.vlink_map.items():
                _, edges, _ = table.get(pa, pb)[n]
                for eid in edges:
                    link_load[eid] += req.vlinks[vl_id].bandwidth
        return (
            all(server_load[s].le(net.servers[s].capacity) for s in server_load)
            and all(switch_load[s] <= net.switches[s].capacity.switch_memory for s in switch_load)
            and all(link_load[l] <= net.links[l].bandwidth for l in link_load)
        )

    best = None
    for combo in itertools.product(*per_request):
        chosen = [(req, a) for req, a in zip(requests, combo) if a is not None]
        if not capacity_ok(chosen):
            continue
        value = Fraction(len(chosen))
        if migration:
            for req, a in chosen:
                if req.id not in migration:
                    continue
                old, weights = migration[req.id]
                for vm_id, pm in a.vm_map.items():
                    hops = hop_distance_bfs(net, old.vm_map[vm_id], pm)
                    value -= Fraction(weights[vm_id]) * Fraction(hops, diameter)
                for vs_id, ps in a.vswitch_map.items():
                    hops = hop_distance_bfs(net, old.vswitch_map[vs_id], ps)
                    value -= Fraction(hops, diameter) / f
        if best is None or value > best:
            best = value
    return best if best is not None else Fraction(0)


def _norm_of(load: ResourceVector, cap: ResourceVector) -> float:
    """Scalar size of a load relative to a capacity, as greedy ranks it."""
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


def _vm_groups_of(req: VdcRequest) -> dict[str, list[str]]:
    groups: dict[str, list[str]] = {}
    for vm_id in req.vms:
        groups.setdefault(req.vm_parent(vm_id), []).append(vm_id)
    return groups


def uplink_from_paths(state: EmbeddingState, req: VdcRequest, vm_id: str, server: str):
    """EmbeddingState.uplink read off the path table: path 0 of (edge
    switch, server) in the vlink's own direction, where the edge switch is
    the server's one edge-tier neighbour, and None when it has no single
    one or that path is not admissible under the request's latency bound."""
    net = state.net
    edges = [
        n for n, _ in net.adjacency[server] if n in net.switches and net.switches[n].tier == "edge"
    ]
    if len(edges) != 1:
        return None
    pa, pb = (server, edges[0]) if req.uplinks[vm_id].a == vm_id else (edges[0], server)
    recs = state.table.get(pa, pb)
    if not recs or not admissible(recs[0], state.down, req.latency_bound):
        return None
    return pa, pb, 0


def greedy_full_scan(
    state: EmbeddingState, req: VdcRequest, allowed: tuple[set, set] | None = None
) -> TempMapping | StructuralFailure:
    """online_search.greedy_temp_map as it stood before it cached its racks
    and server shares on the state, walked switches by hops and scored
    servers on ints: every usable rack described again on each call, every
    free switch scored for a vSwitch without a VM group, vectors built for
    every VM-server pair. It should return the same mapping or failure.

    Place every element of a request, tolerating capacity overflows.

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

    groups = _vm_groups_of(req)
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
                (s, table.path(*key)[1][0]) for s in net.servers_under(rack)
                if node_ok(s) and (key := uplink_from_paths(state, req, vm, s))
            ]
            if servers:
                share = sum(_norm_of(state.residual[s], net.servers[s].capacity) for s, _ in servers)
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
                score = _norm_of(demand.overflow_over(free), cap)
                link_free = state.residual[lid].bandwidth - link_load.get(lid, 0)
                score += max(0, vlink.bandwidth - link_free) / net.links[lid].bandwidth
                # keys end in the server id, so the scan order does not matter
                key = (score, -_norm_of(free - demand, cap), sid)
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
        hops = [net.hop_distances_from(host) for host in placed]
        scored = [
            (
                max(0, vs.demand.switch_memory - state.residual[sid].switch_memory)
                / net.switches[sid].capacity.switch_memory,
                sum(row[sid] for row in hops),
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
            vlink_map[vl_id] = uplink_from_paths(state, req, vm_id, vm_map[vm_id])
            continue
        img_a, img_b = vswitch_map[vl.a], vswitch_map[vl.b]
        best = None
        for n, rec in enumerate(table.get(img_a, img_b)):
            if not admissible(rec, state.down, req.latency_bound):
                continue
            _, edges, _ = rec
            if allowed_links is not None and any(e not in allowed_links for e in edges):
                continue
            over = 0.0
            for eid in edges:
                free = state.residual[eid].bandwidth - path_load.get(eid, 0)
                over += max(0, vl.bandwidth - free) / net.links[eid].bandwidth
            # paths come in ascending n: keep the first least overflow
            if best is None or over < best[0]:
                best = (over, n, edges)
                if over == 0:
                    break
        if best is None:
            return StructuralFailure(f"no admissible path for {vl_id} ({img_a}->{img_b})")
        _, n, edges = best
        vlink_map[vl_id] = (img_a, img_b, n)
        for eid in edges:
            path_load[eid] = path_load.get(eid, 0) + vl.bandwidth

    assignment = Assignment(req.id, vm_map, vswitch_map, vlink_map)
    findings = state.check_assignment(req, assignment)
    structural = [v for v in findings if v.structural]
    if structural:
        return StructuralFailure(f"unexpected structural finding: {structural[0]}")
    return TempMapping(assignment, tuple(findings))
