"""Batch embedding as a pure binary program, solved exactly by branch-and-bound.

The model places a set of requests (optionally re-deciding already-active
ones) with an objective of embedded-request count minus normalized migration
distances. Products of placement variables are linearized with the standard
binary product relaxation, so the model stays a pure 0/1 program and the
search needs no LP machinery: bounds are combinatorial, feasibility is kept
by incremental row-interval propagation with trail-based undo.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameterError, StaleSnapshotError
from .paths import admissible
from .state import Assignment, EmbeddingState
from .topology import DIMENSIONS, ResourceVector, VdcRequest

KIND_Z = "z"
KIND_X = "x"
KIND_W = "w"
KIND_Y = "y"


@dataclass(frozen=True)
class VarInfo:
    """Decision variable metadata; maps model indices back to domain objects."""

    kind: str
    request_id: str
    element_id: str = ""
    host_a: str = ""
    host_b: str = ""
    path_n: int = -1


@dataclass
class SolveBudget:
    """Search limits; node_limit bounds decisions, wall_ms is a safety valve.

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

    def __init__(self, state_version: int):
        self.state_version = state_version
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
        self.uplinks: dict[int, tuple[str, tuple[str, str, int]]] = {}  # w -> (vlink, path key)
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

    model = MipModel(snapshot.version)
    model.remappable = {rid: snapshot.active[rid] for rid in remappable}
    # actives branch first so the initial dive keeps them put and only then
    # slots the new candidates into the remaining room
    requests = [snapshot.requests[rid] for rid in remappable] + list(candidates)
    model.requests = requests

    # rhs: residuals plus credited-back usage of remappable actives
    rhs: dict[str, ResourceVector] = dict(snapshot.residual)
    for rid in remappable:
        snapshot.add_usage(rhs, snapshot.requests[rid], snapshot.active[rid], 1)

    # objective scaling: S = diameter * max-remappable-vm-memory * numerator(f)
    diameter = net.diameter()
    max_mem = 1
    if vm_move_weighting and migration_aware:
        for rid in remappable:
            for vm in snapshot.requests[rid].vms.values():
                max_mem = max(max_mem, vm.demand.memory_mb)
    scale = diameter * max_mem * f.numerator
    model.obj_scale = scale

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
                model.uplinks[wi] = (vl.id, key)
                model._new_row([wi, xi], [1, -1], 0)
                lid = snapshot.table.path(*key).edges[0]
                terms[lid].append((wi, ResourceVector(bandwidth=vl.bandwidth)))

        # one vswitch of a request per physical switch
        for host in sorted(per_switch):
            vis = per_switch[host]
            if len(vis) > 1:
                model._new_row(vis, [1] * len(vis), 1)

        for vl_id, vl in req.vlinks.items():
            if vl.a in req.vms or vl.b in req.vms:
                continue  # an uplink, carried by its VM's w
            load = ResourceVector(bandwidth=vl.bandwidth)
            y_all: list[int] = []
            for host_a, va in cands[vl.a]:
                for host_b, vb in cands[vl.b]:
                    if host_a == host_b:
                        continue
                    pair_y: list[int] = []
                    for n, rec in enumerate(snapshot.table.get(host_a, host_b)):
                        if not admissible(rec, down, req.latency_bound):
                            continue
                        yi = model._new_var(VarInfo(KIND_Y, req.id, vl_id, host_a, host_b, n))
                        pair_y.append(yi)
                        for eid in rec.edges:
                            terms[eid].append((yi, load))
                    if pair_y:
                        y_all.extend(pair_y)
                        ones = [1] * len(pair_y)
                        model._new_row(pair_y + [va], ones + [-1], 0)
                        model._new_row(pair_y + [vb], ones + [-1], 0)
                        model._new_row([va, vb] + pair_y, [1, 1] + [-1] * len(pair_y), 1)
            model._new_row(y_all + [zi], [1] * len(y_all) + [-1], 0, True)
            model.branch_order.extend(y_all)

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
    """Result of one batch solve: per-request placements plus search stats."""

    model: MipModel
    embedded: dict[str, Assignment | None]
    objective: Fraction | None
    nodes: int
    wall_ms: float
    optimal: bool
    status: str  # optimal | incumbent | no-solution

    def stats_lines(self) -> list[str]:
        return [
            f"status={self.status}",
            f"objective={self.objective if self.objective is not None else 'none'}",
            f"embedded={sum(1 for a in self.embedded.values() if a is not None)}",
            f"nodes={self.nodes}",
            f"wall_ms={self.wall_ms:.1f}",
            f"optimal={str(self.optimal).lower()}",
            f"vars={self.model.num_vars}",
            f"constraints={self.model.num_constraints}",
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

    def _fix(self, v: int, val: int) -> bool:
        values = self.values
        if values[v] != -1:
            return values[v] == val
        values[v] = val
        self.trail.append(v)
        self.obj_acc += self.m.obj_coef[v] * val
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
        """Forcing pass; queue holds rows to scan. Returns False on conflict."""
        values = self.values
        m = self.m
        lo, hi, rhs, eq = self.row_lo, self.row_hi, m.row_rhs, m.row_eq
        while queue:
            r = queue.pop()
            if lo[r] > rhs[r] or (eq[r] and hi[r] < rhs[r]):
                return False
            if (rhs[r] - lo[r]) >= self.row_maxabs[r] and not (
                eq[r] and (hi[r] - rhs[r]) < self.row_maxabs[r]
            ):
                continue
            for v, c in zip(m.row_vars[r], m.row_coefs[r]):
                if values[v] != -1:
                    continue
                if c > 0:
                    bad1 = lo[r] + c > rhs[r]
                    bad0 = eq[r] and hi[r] - c < rhs[r]
                else:
                    bad1 = eq[r] and hi[r] + c < rhs[r]
                    bad0 = lo[r] - c > rhs[r]
                if bad1 and bad0:
                    return False
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

    def upper_bound(self) -> int:
        """Scaled objective bound for any completion of the current fixing."""
        ub = self.obj_acc
        values = self.values
        coef = self.m.obj_coef
        scale = self.m.obj_scale
        for u, zi in enumerate(self.m.z_of_request):
            zv = values[zi]
            if zv == 0:
                continue
            pend = 0
            for elem_vars in self.m.penalized[u]:
                placed = False
                best = None
                for vi in elem_vars:
                    s = values[vi]
                    if s == 1:
                        placed = True
                        break
                    if s == -1 and (best is None or coef[vi] > best):
                        best = coef[vi]
                if not placed and best is not None:
                    pend += best
            if zv == 1:
                ub += pend
            else:
                ub += max(0, scale + pend)
        return ub


def solve_exact(model: MipModel, budget: SolveBudget | None = None) -> BatchSolution:
    """Depth-first branch-and-bound; provably optimal when the search finishes.

    Variable order is static (per request: embed flag, then vSwitch, VM, and
    path variables, each with its preferred host first), value 1 is tried
    before 0, and bounds no better than the incumbent are pruned, so the
    search is deterministic for a given model and node budget.
    """
    budget = budget or SolveBudget()
    start = time.perf_counter()
    search = _Search(model)
    order = model.branch_order
    values = search.values

    best_values: list[int] | None = None
    best_scaled: int | None = None
    nodes = 0
    exhausted = True

    def find_free(p: int) -> int:
        while p < len(order) and values[order[p]] != -1:
            p += 1
        return p

    # frames: [order position, values left to try, trail mark before the decision]
    stack: list[list] = []
    p0 = find_free(0)
    if p0 == len(order):
        best_scaled = search.obj_acc
        best_values = list(values)
    else:
        stack.append([p0, [1, 0], len(search.trail)])

    while stack:
        if nodes >= budget.node_limit:
            exhausted = False
            break
        if budget.wall_ms and nodes % 128 == 0:
            if (time.perf_counter() - start) * 1000.0 > budget.wall_ms:
                exhausted = False
                break
        frame = stack[-1]
        pos, vals, mark = frame
        search.undo_to(mark)
        if not vals:
            stack.pop()
            continue
        if best_scaled is not None and search.upper_bound() <= best_scaled:
            stack.pop()
            continue
        val = vals.pop(0)
        nodes += 1
        if search.decide(order[pos], val):
            nxt = find_free(pos + 1)
            if nxt == len(order):
                scaled = search.obj_acc
                if best_scaled is None or scaled > best_scaled:
                    best_scaled = scaled
                    best_values = list(values)
            else:
                stack.append([nxt, [1, 0], len(search.trail)])

    wall = (time.perf_counter() - start) * 1000.0

    if best_values is None:
        return BatchSolution(model, {}, None, nodes, wall, False, "no-solution")

    embedded: dict[str, Assignment | None] = {}
    for req in model.requests:
        embedded[req.id] = None
    one_vars = [i for i, v in enumerate(best_values) if v == 1]
    by_request: dict[str, dict] = {
        req.id: {"vm": {}, "vs": {}, "vl": {}, "z": False} for req in model.requests
    }
    for i in one_vars:
        info = model.vars[i]
        slot = by_request[info.request_id]
        if info.kind == KIND_Z:
            slot["z"] = True
        elif info.kind == KIND_W:
            slot["vm"][info.element_id] = info.host_a
            vl_id, key = model.uplinks[i]
            slot["vl"][vl_id] = key
        elif info.kind == KIND_X:
            slot["vs"][info.element_id] = info.host_a
        elif info.kind == KIND_Y:
            slot["vl"][info.element_id] = (info.host_a, info.host_b, info.path_n)
    for req in model.requests:
        slot = by_request[req.id]
        if slot["z"]:
            vlink_map = {vl_id: slot["vl"][vl_id] for vl_id in req.vlinks}
            embedded[req.id] = Assignment(req.id, slot["vm"], slot["vs"], vlink_map)

    objective = Fraction(best_scaled, model.obj_scale)
    status = "optimal" if exhausted else "incumbent"
    return BatchSolution(model, embedded, objective, nodes, wall, exhausted, status)


@dataclass
class CommitPlan:
    """Releases and commits that realize a batch solution on the live state."""

    releases: list[str]
    commits: list[tuple[VdcRequest, Assignment]]
    requeue: list[str]  # remappable actives the solution un-embedded


def extract_assignments(sol: BatchSolution, state: EmbeddingState) -> CommitPlan:
    """Turn a solution into an apply-able plan against the state it was built from."""
    if sol.model.state_version != state.version:
        raise StaleSnapshotError(
            f"state version {state.version} != model version {sol.model.state_version}"
        )
    releases: list[str] = []
    commits: list[tuple[VdcRequest, Assignment]] = []
    requeue: list[str] = []
    by_id = {req.id: req for req in sol.model.requests}
    for rid, old in sol.model.remappable.items():
        new = sol.embedded.get(rid)
        if new is None:
            releases.append(rid)
            requeue.append(rid)
        elif new != old:
            releases.append(rid)
            commits.append((by_id[rid], new))
    for req in sol.model.requests:
        if req.id in sol.model.remappable:
            continue
        a = sol.embedded.get(req.id)
        if a is not None:
            commits.append((req, a))
    return CommitPlan(releases, commits, requeue)
