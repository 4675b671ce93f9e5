"""Independent reference implementations the tests check the package against.

Everything here recomputes results from first principles (recursive DFS,
plain load accumulation, exhaustive enumeration) and deliberately avoids the
package's own data structures beyond reading their public fields.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from vdcembed.state import Assignment
from vdcembed.topology import DIMENSIONS, ResourceVector, SubstrateNetwork, Switch, Link


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
            rec = recs[n]
            # re-walk the edge sequence against the raw links
            here = pa
            delay = 0
            for eid in rec.edges:
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
                    for n, rec in enumerate(recs)
                    if req.latency_bound is None or rec.delay <= req.latency_bound
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
                for eid in table.get(pa, pb)[n].edges:
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
