"""Batch embedding as a pure binary program, solved exactly by branch-and-bound.

The model places a set of requests (optionally re-deciding already-active
ones) with an objective of embedded-request count minus normalized migration
distances. Its variables are the embed flags and the vSwitch and VM
placements; a VM's uplink rides its placement variable. vSwitch-vSwitch
vlinks have no variables: the search routes them at its leaves, within each
link's room. The search needs no LP machinery: bounds are combinatorial,
feasibility is kept by incremental row-interval propagation with trail-based
undo.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .errors import InvalidParameterError, StaleSnapshotError
from .paths import admissible
from .state import Assignment, EmbeddingState
from .topology import DIMENSIONS, ResourceVector, VdcRequest, VLink

KIND_Z = "z"
KIND_X = "x"
KIND_W = "w"


@dataclass(frozen=True)
class VarInfo:
    """Decision variable metadata; maps model indices back to domain objects."""

    kind: str
    request_id: str
    element_id: str = ""
    host: str = ""


@dataclass
class SolveBudget:
    """Search limits; node_limit bounds decisions and paths tried, wall_ms is a safety valve.

    Determinism is guaranteed for node-limited solves; a binding wall-clock
    limit can stop at run-dependent points.
    """

    node_limit: int = 200_000
    wall_ms: int = 0  # 0 disables the clock check


class MipModel:
    """Binary variables, linear rows, and an exact scaled-integer objective.

    Rows are kept both ways: `row_vars`/`row_coefs` per row, and `var_rows`
    with the (row, coefficient) pairs of each variable in row order.
    """

    def __init__(self, snapshot: EmbeddingState):
        self.state_version = snapshot.version
        self.table = snapshot.table  # with down and room: routing at the search's leaves
        self.down = frozenset(snapshot.down)
        self.room: dict[str, int] = {}  # link -> bandwidth right-hand side
        self.vars: list[VarInfo] = []
        self.var_rows: list[list[tuple[int, int]]] = []
        self.row_vars: list[list[int]] = []
        self.row_coefs: list[list[int]] = []
        self.row_rhs: list[int] = []
        self.row_eq: list[bool] = []
        self.obj_coef: list[int] = []  # scaled by obj_scale
        self.obj_scale: int = 1
        self.requests: list[VdcRequest] = []
        self.z_of_request: list[int] = []
        self.remappable: dict[str, Assignment] = {}
        self.penalized: list[list[list[int]]] = []  # per request: per element: var idxs
        self.uplinks: dict[int, tuple[VLink, tuple[str, str, int]]] = {}  # w -> (vlink, path key)
        self.branch_order: list[int] = []

    # -- construction helpers -------------------------------------------------

    def _new_var(self, info: VarInfo, obj: int = 0) -> int:
        idx = len(self.vars)
        self.vars.append(info)
        self.var_rows.append([])
        self.obj_coef.append(obj)
        return idx

    def _new_row(self, vars_: list[int], coefs: list[int], rhs: int, eq: bool = False):
        row = len(self.row_rhs)
        for v, c in zip(vars_, coefs):
            self.var_rows[v].append((row, c))
        self.row_vars.append(vars_)
        self.row_coefs.append(coefs)
        self.row_rhs.append(rhs)
        self.row_eq.append(eq)

    @property
    def num_vars(self) -> int:
        return len(self.vars)

    @property
    def num_constraints(self) -> int:
        return len(self.row_rhs)


def build_mip(
    snapshot: EmbeddingState,
    candidates: list[VdcRequest],
    remappable: list[str] | None = None,
    switch_penalty_divisor: Fraction | float | int = Fraction(2),
    vm_move_weighting: bool = True,
    migration_aware: bool = True,
) -> MipModel:
    """Encode batch embedding of candidates (plus re-decided actives) as a 0/1 program.

    Capacities consumed by active requests outside the remappable set are
    pre-subtracted from the right-hand sides; remappable requests' usage is
    credited back because their placement is being re-decided.

    migration_aware=False drops the move-distance penalty terms and the
    keep-current-host search preference; it models a plain maximize-embeddings
    program that re-places actives with no regard for their previous hosts.
    """
    if not candidates:
        raise InvalidParameterError("candidate set must be nonempty")
    f = Fraction(switch_penalty_divisor)
    if f <= 0:
        raise InvalidParameterError(f"switch penalty divisor must be > 0, got {f}")
    net = snapshot.net
    down = snapshot.down
    remappable = list(remappable or [])
    for rid in remappable:
        if rid not in snapshot.active:
            raise InvalidParameterError(f"remappable request {rid} is not active")

    model = MipModel(snapshot)
    model.remappable = {rid: snapshot.active[rid] for rid in remappable}
    # actives branch first so the initial dive keeps them put and only then
    # slots the new candidates into the remaining room
    requests = [snapshot.requests[rid] for rid in remappable] + list(candidates)
    model.requests = requests

    # rhs: residuals plus credited-back usage of remappable actives
    rhs: dict[str, ResourceVector] = dict(snapshot.residual)
    for rid in remappable:
        for eid, load in snapshot.charged(rid).items():
            rhs[eid] += load

    # objective scaling: S = diameter * max-remappable-vm-memory * numerator(f)
    diameter = net.diameter()
    max_mem = 1
    if vm_move_weighting and migration_aware:
        for rid in remappable:
            for vm in snapshot.requests[rid].vms.values():
                max_mem = max(max_mem, vm.demand.memory_mb)
    scale = diameter * max_mem * f.numerator
    model.obj_scale = scale

    model.room = {lid: rhs[lid].bandwidth for lid in net.links}
    switch_room = min(
        (model.room[lid] for lid, link in net.links.items()
         if link.a in net.switches and link.b in net.switches),
        default=0,
    )

    @cache
    def widest(a, b, bound):
        """The most room an admissible a->b path has on all its links; -1 if none."""
        paths = [rec for rec in snapshot.table.get(a, b) if admissible(rec, down, bound)]
        return max((min(model.room[e] for e in edges) for _, edges, _ in paths), default=-1)

    servers_alive = [s for s in net.servers if s not in down]
    switches_alive = [s for s in net.switches if s not in down]
    edge_alive = [s for s in switches_alive if net.switches[s].tier == "edge"]

    # capacity-row terms, gathered as the variables are made: element -> [(var, demand)]
    terms: dict[str, list[tuple[int, ResourceVector]]] = defaultdict(list)

    def place(req_id, kind, elem_id, pool, cur, move_cost, demand):
        """One placement var per host in pool plus the element's placement row
        (sum = z of the request being encoded); returns [(host, var)].

        cur is the element's current host when its request is remappable.
        When migration-aware, cur comes first and a move costs hops * move_cost.
        """
        priced = migration_aware and cur is not None
        hosts = sorted(pool)
        if priced and cur in hosts:
            hosts.remove(cur)
            hosts.insert(0, cur)
        cands = []
        for host in hosts:
            obj = -net.hop_distance(cur, host) * move_cost if priced else 0
            vi = model._new_var(VarInfo(kind, req_id, elem_id, host), obj)
            terms[host].append((vi, demand))
            cands.append((host, vi))
        vis = [vi for _, vi in cands]
        model._new_row(vis + [model.z_of_request[-1]], [1] * len(vis) + [-1], 0, True)
        model.branch_order.extend(vis)
        if priced:
            model.penalized[-1].append(vis)
        return cands

    for req in requests:
        old = model.remappable.get(req.id)
        zi = model._new_var(VarInfo(KIND_Z, req.id), scale)
        model.z_of_request.append(zi)
        model.branch_order.append(zi)
        model.penalized.append([])

        cands: dict[str, list[tuple[str, int]]] = {}  # element id -> [(host, var)]
        per_switch: dict[str, list[int]] = {}
        for vs_id, vs in req.vswitches.items():
            # vswitch move: hops/(diameter*f) scaled by S
            cands[vs_id] = place(
                req.id, KIND_X, vs_id,
                edge_alive if vs.is_edge else switches_alive,
                old.vswitch_map.get(vs_id) if old else None,
                f.denominator * max_mem, vs.demand,
            )
            for host, vi in cands[vs_id]:
                per_switch.setdefault(host, []).append(vi)
        for vm_id, vm in req.vms.items():
            # w for each server under a host of the parent whose uplink
            # qualifies: server -> (uplink key, the parent's x on its rack)
            allowed = (req.locality or {}).get(vm_id, net.servers)
            ties = {
                s: (key, xi)
                for edge, xi in cands[req.vm_parent(vm_id)]
                for s in net.servers_under(edge)
                if s in allowed and (key := snapshot.uplink(req, vm_id, s))
            }
            # vm move: (mem/maxmem)*(hops/diameter) scaled by S
            weight = vm.demand.memory_mb if vm_move_weighting else max_mem
            cands[vm_id] = place(
                req.id, KIND_W, vm_id, ties,
                old.vm_map.get(vm_id) if old else None,
                weight * f.numerator, vm.demand,
            )
            # w carries the uplink's bandwidth, and its tie row w - x <= 0
            vl = req.uplinks[vm_id]
            for host, wi in cands[vm_id]:
                key, xi = ties[host]
                model.uplinks[wi] = (vl, key)
                model._new_row([wi, xi], [1, -1], 0)
                _, edges, _ = snapshot.table.path(*key)
                terms[edges[0]].append((wi, ResourceVector(bandwidth=vl.bandwidth)))

        # one vswitch of a request per physical switch
        for host in sorted(per_switch):
            vis = per_switch[host]
            if len(vis) > 1:
                model._new_row(vis, [1] * len(vis), 1)

        # a vSwitch-vSwitch vlink's host pair that no admissible path with room
        # joins is ruled out, and the leaf router still decides the rest. With
        # nothing down, no latency bound and every switch-switch link's room
        # at least the vlink's bandwidth, each pair the table joins has one.
        bound = req.latency_bound
        for vl in req.vlinks.values():
            if vl.a in req.vms or vl.b in req.vms:
                continue
            if not down and bound is None and vl.bandwidth <= switch_room:
                continue
            for host_a, xa in cands[vl.a]:
                for host_b, xb in cands[vl.b]:
                    if host_a != host_b and widest(host_a, host_b, bound) < vl.bandwidth:
                        model._new_row([xa, xb], [1, 1], 1)

    # capacity rows: servers, switches, then links by id; one per dimension
    links_used = sorted(eid for eid in terms if eid in net.links)
    for eid in [*servers_alive, *switches_alive, *links_used]:
        if eid in terms:
            vis = [vi for vi, _ in terms[eid]]
            for dim in DIMENSIONS[net.kind(eid)]:
                coefs = [getattr(demand, dim) for _, demand in terms[eid]]
                model._new_row(vis, coefs, getattr(rhs[eid], dim))
    return model


@dataclass
class BatchSolution:
    """Result of one batch decision: per-request placements plus search stats."""

    model: MipModel | None  # None when a plan answered without a model
    embedded: dict[str, Assignment | None]
    objective: Fraction | None
    nodes: int
    wall_ms: float
    optimal: bool
    status: str  # optimal | incumbent | no-solution
    via: str = "search"  # plan | search

    def stats_lines(self) -> list[str]:
        return [
            f"status={self.status}",
            f"via={self.via}",
            f"objective={self.objective if self.objective is not None else 'none'}",
            f"embedded={sum(1 for a in self.embedded.values() if a is not None)}",
            f"nodes={self.nodes}",
            f"wall_ms={self.wall_ms:.1f}",
            f"optimal={str(self.optimal).lower()}",
            f"vars={self.model.num_vars if self.model else 0}",
            f"constraints={self.model.num_constraints if self.model else 0}",
        ]


class _Search:
    """Iterative DFS over binary variables with row-interval propagation.

    Row state keeps [lo, hi] achievable sums given current fixings; a fix
    updates touched rows in O(1) each and conflicts are detected immediately.
    Forcing scans run only when a row gets tight enough to possibly force.
    """

    def __init__(self, model: MipModel):
        self.m = model
        self.values = [-1] * model.num_vars
        self.var_rows = model.var_rows
        # [lo, hi] reachable by each row's sum with every variable still free
        self.row_lo = [sum(c for c in coefs if c < 0) for coefs in model.row_coefs]
        self.row_hi = [sum(c for c in coefs if c > 0) for coefs in model.row_coefs]
        self.row_maxabs = [max(map(abs, coefs)) for coefs in model.row_coefs]
        self.trail: list[int] = []
        self.obj_acc = 0
        self.nodes = 0  # decisions and paths tried
        # the bound's pending move penalty: per penalized element its vars by
        # descending coefficient, their costs then 0, and a pointer to its
        # first free var (past the end once placed); per request the sum of
        # the pointed costs
        coef = model.obj_coef
        self.elem_req = [u for u, per in enumerate(model.penalized) for _ in per]
        self.elem_vars = [
            sorted(vis, key=lambda v: -coef[v]) for per in model.penalized for vis in per
        ]
        self.elem_cost = [[coef[v] for v in vis] + [0] for vis in self.elem_vars]
        self.elem_of = [-1] * model.num_vars
        for e, vis in enumerate(self.elem_vars):
            for v in vis:
                self.elem_of[v] = e
        self.ptr = [0] * len(self.elem_vars)
        self.pend = [0] * len(model.requests)
        for e, u in enumerate(self.elem_req):
            self.pend[u] += self.elem_cost[e][0]
        self.ptr_trail: list[tuple[int, int, int]] = []  # (trail position, element, old pointer)

    def _fix(self, v: int, val: int) -> bool:
        """Fix the free variable v to val; False when a row it is in
        breaks."""
        values = self.values
        values[v] = val
        self.trail.append(v)
        self.obj_acc += self.m.obj_coef[v] * val
        e = self.elem_of[v]
        if e >= 0:
            vis, p = self.elem_vars[e], self.ptr[e]
            if p < len(vis) and (val or vis[p] == v):
                self.ptr_trail.append((len(self.trail) - 1, e, p))
                p = len(vis) if val else p
                while p < len(vis) and values[vis[p]] != -1:
                    p += 1
                self._point(e, p)
        lo, hi, rhs, eq = self.row_lo, self.row_hi, self.m.row_rhs, self.m.row_eq
        ok = True
        for r, c in self.var_rows[v]:
            if c > 0:
                hi[r] -= c
            else:
                lo[r] -= c
            if val:
                lo[r] += c
                hi[r] += c
            if lo[r] > rhs[r] or (eq[r] and hi[r] < rhs[r]):
                ok = False
        return ok

    def _propagate(self, queue: list[int]) -> bool:
        """Forcing pass; queue holds rows to scan. Returns False on conflict.
        A row is queued tight and conflict-free; later fixes only tighten it,
        and a conflict they cause fails their own _fix first."""
        values = self.values
        m = self.m
        lo, hi, rhs, eq = self.row_lo, self.row_hi, m.row_rhs, m.row_eq
        while queue:
            r = queue.pop()
            for v, c in zip(m.row_vars[r], m.row_coefs[r]):
                if values[v] != -1:
                    continue
                if c > 0:
                    bad1 = lo[r] + c > rhs[r]
                    bad0 = eq[r] and hi[r] - c < rhs[r]
                else:
                    bad1 = eq[r] and hi[r] + c < rhs[r]
                    bad0 = lo[r] - c > rhs[r]
                # were both set, the fix to 0 would break this row itself
                if bad1 or bad0:
                    if not self._fix(v, 0 if bad1 else 1):
                        return False
                    for r2, _ in self.var_rows[v]:
                        if (rhs[r2] - lo[r2]) < self.row_maxabs[r2] or (
                            eq[r2] and (hi[r2] - rhs[r2]) < self.row_maxabs[r2]
                        ):
                            queue.append(r2)
        return True

    def decide(self, v: int, val: int) -> bool:
        mark = len(self.trail)
        if not self._fix(v, val):
            self.undo_to(mark)
            return False
        queue = []
        lo, hi, rhs, eq = self.row_lo, self.row_hi, self.m.row_rhs, self.m.row_eq
        for r, _ in self.var_rows[v]:
            if (rhs[r] - lo[r]) < self.row_maxabs[r] or (
                eq[r] and (hi[r] - rhs[r]) < self.row_maxabs[r]
            ):
                queue.append(r)
        if not self._propagate(queue):
            self.undo_to(mark)
            return False
        return True

    def undo_to(self, mark: int):
        values = self.values
        lo, hi = self.row_lo, self.row_hi
        while len(self.trail) > mark:
            v = self.trail.pop()
            val = values[v]
            values[v] = -1
            self.obj_acc -= self.m.obj_coef[v] * val
            for r, c in self.var_rows[v]:
                if val:
                    lo[r] -= c
                    hi[r] -= c
                if c > 0:
                    hi[r] += c
                else:
                    lo[r] += c
        ptr_trail = self.ptr_trail
        while ptr_trail and ptr_trail[-1][0] >= mark:
            _, e, p = ptr_trail.pop()
            self._point(e, p)

    def _point(self, e: int, p: int):
        """Move element e's pointer to p and its request's pending sum along."""
        cost = self.elem_cost[e]
        self.pend[self.elem_req[e]] += cost[p] - cost[self.ptr[e]]
        self.ptr[e] = p

    def leaf(self, out_of_budget) -> dict[str, Assignment | None] | None:
        """Every request's assignment at a leaf, or None when its vlinks admit
        no routing or the budget runs out.

        The embedded requests' vSwitch-vSwitch vlinks, in request then vlink
        order, each take the first admissible path in table order that fits
        the links' room net of the leaf's uplinks, backtracking over earlier
        vlinks. Each path tried is a node.
        """
        m = self.m
        image: dict[tuple[str, str], object] = {}  # (request, element) -> host or path key
        room = dict(m.room)
        for i, val in enumerate(self.values):
            info = m.vars[i]
            if val == 1 and info.kind != KIND_Z:
                image[info.request_id, info.element_id] = info.host
            if val == 1 and info.kind == KIND_W:
                vl, key = m.uplinks[i]
                image[info.request_id, vl.id] = key
                _, edges, _ = m.table.path(*key)
                room[edges[0]] -= vl.bandwidth
        # the embedded requests' vlinks that no w placed: the vSwitch-vSwitch ones
        legs = [(req, vl) for req, z in zip(m.requests, m.z_of_request) if self.values[z]
                for vl in req.vlinks.values() if (req.id, vl.id) not in image]

        tried = [0] * len(legs)  # per leg: table paths tried since the leg was last reached
        k = 0
        while k < len(legs):
            req, vl = legs[k]
            a, b = image[req.id, vl.a], image[req.id, vl.b]
            paths = m.table.get(a, b)
            if tried[k] == len(paths):  # no path fits: move the leg before on
                if k == 0:
                    return None
                tried[k] = 0
                k -= 1
                req, vl = legs[k]
                _, edges, _ = m.table.path(*image[req.id, vl.id])
                for e in edges:
                    room[e] += vl.bandwidth
                continue
            rec = paths[tried[k]]
            tried[k] += 1
            if not admissible(rec, m.down, req.latency_bound):
                continue
            if out_of_budget():
                return None
            self.nodes += 1
            _, edges, _ = rec
            if all(room[e] >= vl.bandwidth for e in edges):
                for e in edges:
                    room[e] -= vl.bandwidth
                image[req.id, vl.id] = (a, b, tried[k] - 1)
                k += 1
        return {
            req.id: Assignment(
                req.id,
                {e: image[req.id, e] for e in req.vms},
                {e: image[req.id, e] for e in req.vswitches},
                {e: image[req.id, e] for e in req.vlinks},
            )
            if self.values[z] else None
            for req, z in zip(m.requests, m.z_of_request)
        }

    def upper_bound(self) -> int:
        """Scaled objective bound for any completion of the current fixing:
        each request not ruled out adds its best pending move penalty, an
        undecided one only when embedding it still gains."""
        ub = self.obj_acc
        values, pend, scale = self.values, self.pend, self.m.obj_scale
        for u, zi in enumerate(self.m.z_of_request):
            zv = values[zi]
            if zv == 1:
                ub += pend[u]
            elif zv == -1:
                ub += max(0, scale + pend[u])
        return ub


def solve_exact(
    model: MipModel,
    budget: SolveBudget | None = None,
    incumbent: dict[str, Assignment | None] | None = None,
) -> BatchSolution:
    """Depth-first branch-and-bound; provably optimal when the search finishes.

    Variable order is static (per request: embed flag, then vSwitch and VM
    variables, each with its preferred host first), value 1 is tried before
    0, and bounds no better than the incumbent are pruned. At each leaf that
    beats the incumbent the embedded requests' vSwitch-vSwitch vlinks are
    routed (`_Search.leaf`); a leaf with no routing is infeasible. Each
    decision and each path tried counts as one node, so the search is
    deterministic for a given model and node budget.

    incumbent, a feasible {request id: Assignment | None} that embeds some
    request, starts the search: its objective, summed from the model's own
    coefficients, prunes from the first node, and it is the result when no
    leaf beats it.
    """
    budget = budget or SolveBudget()
    start = time.perf_counter()
    search = _Search(model)
    order = model.branch_order
    values = search.values

    best: tuple[int, dict[str, Assignment | None]] | None = None  # (scaled objective, maps)
    if incumbent and any(a is not None for a in incumbent.values()):
        chosen = (
            coef
            for info, coef in zip(model.vars, model.obj_coef)
            if (a := incumbent.get(info.request_id)) is not None
            and (info.kind == KIND_Z or a.host_of(info.element_id) == info.host)
        )
        best = (sum(chosen), incumbent)

    def out_of_budget() -> bool:
        return search.nodes >= budget.node_limit or (
            budget.wall_ms > 0 and (time.perf_counter() - start) * 1000.0 > budget.wall_ms
        )

    def find_free(p: int) -> int:
        while p < len(order) and values[order[p]] != -1:
            p += 1
        return p

    # frames: [order position, values left to try, trail mark before the decision]
    stack: list[list] = [[0, [1, 0], 0]]
    while stack:
        if out_of_budget():
            break
        pos, vals, mark = stack[-1]
        search.undo_to(mark)
        if not vals or (best is not None and search.upper_bound() <= best[0]):
            stack.pop()
            continue
        val = vals.pop(0)
        search.nodes += 1
        if search.decide(order[pos], val):
            nxt = find_free(pos + 1)
            if nxt < len(order):
                stack.append([nxt, [1, 0], len(search.trail)])
            elif best is None or search.obj_acc > best[0]:
                embedded = search.leaf(out_of_budget)
                if embedded is not None:
                    best = (search.obj_acc, embedded)

    wall = (time.perf_counter() - start) * 1000.0
    if best is None:
        return BatchSolution(model, {}, None, search.nodes, wall, False, "no-solution")
    status = "incumbent" if stack else "optimal"
    objective = Fraction(best[0], model.obj_scale)
    return BatchSolution(model, best[1], objective, search.nodes, wall, not stack, status)


@dataclass
class CommitPlan:
    """Releases and commits that realize a batch decision on the live state."""

    releases: list[str]
    commits: list[tuple[VdcRequest, Assignment]]
    requeue: list[str]  # actives the decision un-embedded


def extract_assignments(
    requests: list[VdcRequest],
    embedded: dict[str, Assignment | None],
    state: EmbeddingState,
    version: int,
) -> CommitPlan:
    """Turn a batch decision, {request id: Assignment | None} for requests
    decided on the state at version, into an apply-able plan: a request
    active there is kept, re-placed or released and requeued, and any other
    placed request is committed."""
    if version != state.version:
        raise StaleSnapshotError(f"state version {state.version} != decision version {version}")
    releases: list[str] = []
    commits: list[tuple[VdcRequest, Assignment]] = []
    requeue: list[str] = []
    for req in requests:
        old, new = state.active.get(req.id), embedded.get(req.id)
        if new == old:
            continue
        if old is not None:
            releases.append(req.id)
            if new is None:
                requeue.append(req.id)
        if new is not None:
            commits.append((req, new))
    return CommitPlan(releases, commits, requeue)
