"""Event-driven orchestration: pending queue, thresholds, mode pick, simulation.

The drain loop realizes the outer embedding procedure: at every wake-up the
thresholds are recomputed from the smallest and largest pending request,
resources at or above the large threshold trigger a batch solve, the band
between the two thresholds is handled by the online embedder, and anything
below the small threshold waits for departures. Pending requests expire after
a configurable patience and count as rejected.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, fields, replace
from fractions import Fraction

from .batch_solver import SolveBudget, build_mip, extract_assignments, solve_exact
from .errors import ConfigError, InvalidParameterError
from .metrics import TraceRecord
from .online_search import OnlineResult, compute_fragments, repair_displaced, try_online_embed
from .paths import PathTable, enumerate_paths
from .state import EmbeddingState
from .topology import (
    ResourceVector,
    SubstrateNetwork,
    VdcRequest,
    WorkloadConfig,
    config_items,
    poisson_arrivals,
    sum_vectors,
    validate_request,
)

MODE_BATCH = "batch"
MODE_ONLINE = "online"
MODE_DEFER = "defer"

RUN_HYBRID = "hybrid"
RUN_BATCH_ONLY = "batch-only"
RUN_ONLINE_ONLY = "online-only"
RUN_MODES = (RUN_HYBRID, RUN_BATCH_ONLY, RUN_ONLINE_ONLY)

# order of queued events at equal times; within a rank, the order queued
RANK_DEPARTURE, RANK_ARRIVAL, RANK_OTHER = 0, 1, 2


@dataclass(frozen=True)
class Thresholds:
    """Total demands of the smallest and largest pending request."""

    smallest: ResourceVector
    largest: ResourceVector


def request_size(req: VdcRequest) -> float:
    """Scalar size used for priority and smallest/largest ranking:
    total VM cores plus total bandwidth demand in Gbps."""
    total = req.demand_totals()
    return total.cpu_cores + total.bandwidth / 1000.0


@dataclass
class PendingEntry:
    request: VdcRequest
    arrival_seq: int
    expiry: float

    @property
    def size(self) -> float:
        return request_size(self.request)


class PendingQueue:
    """Deterministically prioritized waiting requests."""

    def __init__(self):
        self.entries: dict[str, PendingEntry] = {}

    def __len__(self):
        return len(self.entries)

    def add(self, entry: PendingEntry):
        self.entries[entry.request.id] = entry

    def remove(self, request_id: str) -> PendingEntry | None:
        return self.entries.pop(request_id, None)

    def ordered(self) -> list[PendingEntry]:
        # soonest expiry first, then biggest, then longest incumbency, then arrival
        return sorted(
            self.entries.values(),
            key=lambda e: (e.expiry, -e.size, -e.request.duration, e.arrival_seq),
        )

    def expired(self, now: float) -> list[PendingEntry]:
        return [e for e in self.ordered() if e.expiry <= now]


def compute_thresholds(queue: PendingQueue) -> Thresholds | None:
    """Total demands of the smallest and largest pending request, or None
    (the no-pending signal) on an empty queue."""
    if not len(queue):
        return None
    by_size = sorted(queue.entries.values(), key=lambda e: (e.size, e.request.id))
    return Thresholds(
        smallest=by_size[0].request.demand_totals(),
        largest=by_size[-1].request.demand_totals(),
    )


def select_mode(residuals: ResourceVector, thresholds: Thresholds) -> str:
    """Batch when residuals cover the largest pending request on every
    component; online when they cover at least the smallest; defer otherwise."""
    if thresholds.largest.le(residuals):
        return MODE_BATCH
    if thresholds.smallest.le(residuals):
        return MODE_ONLINE
    return MODE_DEFER


@dataclass(frozen=True)
class SimEvent:
    """One event. A simulation runs queued events in time order, ties by
    rank (RANK_DEPARTURE first) and then in the order queued; seq is a
    label that no ordering reads."""

    time: float
    seq: int
    kind: str  # arrival | departure | failure | scale_up
    request: VdcRequest | None = None
    request_id: str = ""
    elements: tuple[str, ...] = ()
    deltas: tuple[tuple[str, ResourceVector], ...] = ()


@dataclass(frozen=True)
class PolicyConfig:
    """Tunables for the scheduler and the two embedders."""

    switch_penalty_divisor: Fraction = Fraction(2)
    swap_ceiling: int = 8
    batch_width: int = 8
    patience: float = 50.0
    batch_min_pending: int = 2
    solver_node_limit: int = 20000
    solver_wall_ms: int = 0
    remap_limit: int = 0  # how many recent actives a batch may remap; 0 = all
    vm_move_weighting: bool = True

    def policy_hash(self) -> str:
        # every field in declaration order, the leading Fraction as text
        first, *rest = (getattr(self, f.name) for f in fields(self))
        blob = repr((str(first), *rest))
        return hashlib.sha1(blob.encode()).hexdigest()[:12]


# the integer policy keys and the least value each accepts
_POLICY_INT_MIN = {
    "swap_ceiling": 0,
    "batch_width": 1,
    "batch_min_pending": 0,
    "solver_node_limit": 0,
    "solver_wall_ms": 0,
    "remap_limit": 0,
}


def parse_policy_config(text: str) -> PolicyConfig:
    """Flat key=value policy file; unknown keys and out-of-range values are errors."""
    values = {}
    for lineno, key, val in config_items(text):
        try:
            if key == "f":
                values["switch_penalty_divisor"] = Fraction(val)
            elif key in _POLICY_INT_MIN:
                values[key] = int(val)
                if values[key] < _POLICY_INT_MIN[key]:
                    raise ConfigError(f"line {lineno}: {key} must be >= {_POLICY_INT_MIN[key]}")
            elif key == "patience":
                values[key] = float(val)
                if not values[key] > 0:  # also rejects nan
                    raise ConfigError(f"line {lineno}: patience must be positive")
            elif key == "vm_move_weighting":
                if val not in ("true", "false"):
                    raise ValueError(val)
                values[key] = val == "true"
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"line {lineno}: bad value {val!r} for {key}") from None
    policy = PolicyConfig(**values)
    if policy.switch_penalty_divisor <= 0:
        raise ConfigError("f must be positive")
    return policy


class Simulation:
    """Single-writer event loop around one EmbeddingState."""

    def __init__(
        self,
        net: SubstrateNetwork,
        table: PathTable,
        policy: PolicyConfig,
        run_mode: str = RUN_HYBRID,
        audit_every: int = 0,
    ):
        if run_mode not in RUN_MODES:
            raise InvalidParameterError(f"unknown run mode {run_mode!r}")
        self.state = EmbeddingState(net, table)
        self.policy = policy
        self.run_mode = run_mode
        self.audit_every = audit_every
        self.queue = PendingQueue()
        self.records: list[TraceRecord] = []
        self.seq = 0
        self.clock = 0.0
        self.status: dict[str, str] = {}  # pending | accepted | rejected | expired
        self.accept_order: list[str] = []
        # (time, rank, order queued, event)
        self.events: list[tuple[float, int, int, SimEvent]] = []
        self.queued = 0
        self.events_processed = 0
        self._capacity = self.state.residual_vectors()

    # -- trace ----------------------------------------------------------------

    def emit(self, kind: str, time: float, /, **fields):
        rec = TraceRecord(
            time,
            self.seq,
            kind,
            tuple((k, str(v)) for k, v in fields.items()),
        )
        self.seq += 1
        self.records.append(rec)
        return rec

    def _sample_utilization(self, now: float):
        agg = self.state.residual_vectors()
        cap = self._capacity
        cpu = 1.0 - agg.cpu_cores / cap.cpu_cores
        sw = 1.0 - agg.switch_memory / cap.switch_memory
        bw = 1.0 - agg.bandwidth / cap.bandwidth
        self.emit("util", now, cpu=f"{cpu:.6f}", switch=f"{sw:.6f}", bw=f"{bw:.6f}")

    # -- bookkeeping ----------------------------------------------------------

    def schedule(self, event: SimEvent, rank: int):
        """Queue an event for run_simulation's loop."""
        heapq.heappush(self.events, (event.time, rank, self.queued, event))
        self.queued += 1

    def _schedule_departure(self, req: VdcRequest, now: float):
        departure = SimEvent(now + req.duration, self.seq, "departure", request_id=req.id)
        self.schedule(departure, RANK_DEPARTURE)

    def _accept(self, req: VdcRequest, now: float, via: str):
        self.queue.remove(req.id)
        first_time = self.status.get(req.id) != "accepted"
        self.status[req.id] = "accepted"
        if first_time:
            self.accept_order.append(req.id)
            self.emit("accept", now, request=req.id, vms=len(req.vms), via=via)
            self._schedule_departure(req, now)
        else:
            self.emit("reembed", now, request=req.id, via=via)

    def _requeue(self, req: VdcRequest, now: float):
        """Send an incumbent that lost its placement back to the queue."""
        self.queue.add(PendingEntry(req, arrival_seq=self.seq, expiry=now + self.policy.patience))

    def _expire_due(self, now: float):
        for entry in self.queue.expired(now):
            rid = entry.request.id
            self.queue.remove(rid)
            # status stays "accepted" once set: a requeued incumbent is dropped
            if self.status.get(rid) == "accepted":
                self.emit("dropped", now, request=rid)
            else:
                self.status[rid] = "expired"
                self.emit("reject", now, request=rid, reason="expired")

    def _structurally_impossible(self, req: VdcRequest) -> str | None:
        net = self.state.net
        down = self.state.down
        alive_edge = [
            s for s in net.switches if net.switches[s].tier == "edge" and s not in down
        ]
        edge_needed = sum(1 for vs in req.vswitches.values() if vs.is_edge)
        if edge_needed > len(alive_edge):
            return "more-edge-vswitches-than-edge-switches"
        if len(req.vswitches) > len(net.switches) - len(down & set(net.switches)):
            return "more-vswitches-than-switches"
        total = sum_vectors(cap for eid, cap in net.capacity.items() if eid not in down)
        if not req.demand_totals().le(total):
            return "demand-exceeds-substrate"
        servers_up = [net.capacity[s] for s in net.servers if s not in down]
        for vm in req.vms.values():
            if not any(vm.demand.le(cap) for cap in servers_up):
                return "vm-exceeds-any-server"
        return None

    # -- embedding passes -------------------------------------------------------

    def _carry_out(self, releases, commits, now: float):
        """Apply one decision to the live state: release the listed request
        ids, then commit the (request, assignment) pairs. Every committed
        request that was active before is a re-placement, and each of its
        elements whose placement changed gets one migration record."""
        before = {rid: self.state.active[rid] for rid in releases}
        self.state.apply(releases, commits)
        for req, a in commits:
            if req.id in before:
                for kind, element, old, new in before[req.id].moves_to(a):
                    self.emit(
                        "migration", now, kind=kind, request=req.id, element=element,
                        old=old, new=new,
                    )

    def _apply_online(self, req: VdcRequest, result: OnlineResult, now: float):
        updates = result.incumbent_updates
        commits = [(self.state.requests[rid], a) for rid, a in updates.items()]
        # a scaled-up request is active and is re-placed along with the incumbents
        releases = [req.id, *updates] if req.id in self.state.active else list(updates)
        self._carry_out(releases, commits + [(req, result.assignment)], now)

    def _online_pass(self, now: float) -> bool:
        for entry in self.queue.ordered():
            req = entry.request
            result = try_online_embed(self.state, req, self.policy.swap_ceiling)
            if isinstance(result, OnlineResult):
                self._apply_online(req, result, now)
                self._accept(req, now, via=MODE_ONLINE)
                self.emit("decision", now, mode=MODE_ONLINE, request=req.id, outcome="accept")
                return True
            self.emit("decision", now, mode=MODE_ONLINE, request=req.id, outcome="fail")
        return False

    def _batch_candidates(self) -> list[VdcRequest]:
        budget = self.state.residual_vectors()
        spent = ResourceVector()
        out = []
        for entry in self.queue.ordered():
            merged = spent + entry.request.demand_totals()
            if not merged.le(budget):
                break
            out.append(entry.request)
            spent = merged
            if len(out) >= self.policy.batch_width:
                break
        return out

    def _remappable(self) -> list[str]:
        active = [rid for rid in self.accept_order if rid in self.state.active]
        if self.policy.remap_limit > 0:
            active = active[-self.policy.remap_limit :]
        return active

    def _batch_pass(self, now: float) -> bool:
        candidates = self._batch_candidates()
        if not candidates:
            return False
        # the stand-alone MIP baseline re-places actives with no regard for
        # their previous hosts; the hybrid's batch calls stay migration-aware
        model = build_mip(
            self.state,
            candidates,
            remappable=self._remappable(),
            switch_penalty_divisor=self.policy.switch_penalty_divisor,
            vm_move_weighting=self.policy.vm_move_weighting,
            migration_aware=self.run_mode != RUN_BATCH_ONLY,
        )
        budget = SolveBudget(self.policy.solver_node_limit, self.policy.solver_wall_ms)
        sol = solve_exact(model, budget)
        if sol.status == "no-solution":
            self.emit("decision", now, mode=MODE_BATCH, batch=len(candidates), outcome="no-solution")
            return False
        plan = extract_assignments(sol, self.state)
        by_id = {req.id: req for req in model.requests}
        self._carry_out(plan.releases, plan.commits, now)
        accepted = 0
        for req in candidates:
            if sol.embedded.get(req.id) is not None:
                self._accept(req, now, via=MODE_BATCH)
                accepted += 1
        for rid in plan.requeue:
            # the solver un-embedded an active request: back to the queue
            self._requeue(by_id[rid], now)
            self.emit("unembedded", now, request=rid)
        self.emit(
            "decision",
            now,
            mode=MODE_BATCH,
            batch=len(candidates),
            outcome=f"accepted-{accepted}",
            objective=str(sol.objective),
            optimal=str(sol.optimal).lower(),
        )
        return accepted > 0

    def _fragmented_above(self, thresholds: Thresholds) -> bool:
        """True when no single fragment covers the largest pending request
        even though the aggregate does (the compaction trigger)."""
        return not any(
            thresholds.largest.le(free) for _, _, free in compute_fragments(self.state)
        )

    def _effective_mode(self, thresholds: Thresholds) -> str:
        agg = self.state.residual_vectors()
        mode = select_mode(agg, thresholds)
        if self.run_mode == RUN_ONLINE_ONLY:
            return MODE_ONLINE if mode != MODE_DEFER else MODE_DEFER
        if self.run_mode == RUN_BATCH_ONLY:
            return MODE_BATCH if mode == MODE_BATCH else MODE_DEFER
        if (
            mode == MODE_BATCH
            and len(self.queue) < max(1, self.policy.batch_min_pending)
            and not self._fragmented_above(thresholds)
        ):
            return MODE_ONLINE
        return mode

    def _drain(self, now: float):
        rounds = 2 * len(self.queue) + 4  # hard stop against requeue ping-pong
        while rounds > 0:
            rounds -= 1
            self._expire_due(now)
            if not len(self.queue):
                return
            thresholds = compute_thresholds(self.queue)
            mode = self._effective_mode(thresholds)
            if mode == MODE_DEFER:
                self.emit("decision", now, mode=MODE_DEFER, pending=len(self.queue))
                return
            if mode == MODE_ONLINE:
                if not self._online_pass(now):
                    return
            else:
                progressed = self._batch_pass(now)
                if not progressed:
                    if self.run_mode == RUN_HYBRID and self._online_pass(now):
                        continue
                    return

    # -- event handlers ---------------------------------------------------------

    def handle_arrival(self, req: VdcRequest, now: float):
        self.emit("arrival", now, request=req.id, vms=len(req.vms), size=f"{request_size(req):.3f}")
        reason = self._structurally_impossible(req)
        if reason is not None:
            self.status[req.id] = "rejected"
            self.emit("reject", now, request=req.id, reason=reason)
            return
        self.status[req.id] = "pending"
        self.queue.add(
            PendingEntry(req, arrival_seq=self.seq, expiry=req.arrival_time + self.policy.patience)
        )
        self._drain(now)

    def handle_departure(self, request_id: str, now: float):
        if request_id in self.state.active:
            self.state.release(request_id)
            self.emit("departure", now, request=request_id)
            self._drain(now)
        else:
            # the request was un-embedded and still waiting; its incumbency is over
            if self.queue.remove(request_id) is not None:
                self.emit("dropped", now, request=request_id)

    def handle_failure(self, elements: tuple[str, ...], now: float):
        state = self.state
        state.mark_down(elements)
        self.emit("failure", now, elements=",".join(sorted(elements)))
        displaced = [
            rid
            for rid, a in state.active.items()
            if any(v.rule == "element-down" for v in state.structural_findings(state.requests[rid], a))
        ]
        for rid in displaced:
            req = state.requests[rid]
            repaired = repair_displaced(state, req)
            if repaired is None:
                self._carry_out([rid], [], now)
                self._requeue(req, now)
                self.emit("displaced", now, request=rid, outcome="requeued")
                continue
            self._carry_out([rid], [(req, repaired)], now)
            self.emit("displaced", now, request=rid, outcome="repaired")
        self._drain(now)

    def handle_scale_up(self, request_id: str, deltas, now: float):
        if request_id not in self.state.active:
            self.emit("scale_up", now, request=request_id, outcome="not-active")
            return
        state = self.state
        req = state.requests[request_id]
        new_vms = dict(req.vms)
        for vm_id, extra in deltas:
            if vm_id not in new_vms:
                self.emit("scale_up", now, request=request_id, outcome="unknown-vm")
                return
            new_vms[vm_id] = replace(new_vms[vm_id], demand=new_vms[vm_id].demand + extra)
        scaled = replace(req, vms=new_vms)
        probe = state.copy()
        a = probe.release(request_id)
        if not probe.check_assignment(scaled, a):
            self._carry_out([request_id], [(scaled, a)], now)
            self.emit("scale_up", now, request=request_id, outcome="in-place")
            return
        # pin each unscaled VM to its server, let the scaled VMs move within
        # their racks, all inside the request's own locality; vSwitches
        # without VMs and vSwitch-vSwitch vlinks are not pinned, so greedy
        # may re-place them
        scaled_ids = {vm_id for vm_id, _ in deltas}
        locality = {}
        for vm_id in scaled.vms:
            host = a.vm_map[vm_id]
            pins = frozenset(
                state.net.servers_under(state.net.edge_switch_of(host))
                if vm_id in scaled_ids
                else {host}
            )
            allowed = (req.locality or {}).get(vm_id)
            locality[vm_id] = pins if allowed is None else pins & allowed
        pinned = replace(scaled, locality=locality)
        result = try_online_embed(probe, pinned, self.policy.swap_ceiling)
        if isinstance(result, OnlineResult):
            self._apply_online(scaled, result, now)
            self.emit("scale_up", now, request=request_id, outcome="relocated")
        else:
            self.emit("scale_up", now, request=request_id, outcome="rejected")

    # -- event loop --------------------------------------------------------------

    def process(self, event: SimEvent):
        # malformed events are rejected before the clock moves
        if event.kind not in ("arrival", "departure", "failure", "scale_up"):
            raise InvalidParameterError(f"unknown event kind {event.kind!r}")
        if event.time < self.clock:
            raise InvalidParameterError(
                f"event at {event.time} behind clock {self.clock}"
            )
        if event.kind == "arrival":
            if event.request is None:
                raise InvalidParameterError("arrival event carries no request")
            if event.request.id in self.status:
                raise InvalidParameterError(f"request id {event.request.id!r} arrived before")
            findings = validate_request(event.request, self.state.net)
            if findings:
                raise InvalidParameterError(f"request {event.request.id!r}: {findings[0]}")
        self.clock = event.time
        if event.kind == "arrival":
            self.handle_arrival(event.request, event.time)
        elif event.kind == "departure":
            self.handle_departure(event.request_id, event.time)
        elif event.kind == "failure":
            self.handle_failure(event.elements, event.time)
        else:
            self.handle_scale_up(event.request_id, event.deltas, event.time)
        self._sample_utilization(event.time)
        self.events_processed += 1
        if self.audit_every and self.events_processed % self.audit_every == 0:
            self.state.audit()


def run_simulation(
    net: SubstrateNetwork,
    workload: WorkloadConfig,
    policy: PolicyConfig,
    run_mode: str = RUN_HYBRID,
    lam: float | None = None,
    seed: int | None = None,
    table: PathTable | None = None,
    extra_events: tuple[SimEvent, ...] = (),
    audit_every: int = 0,
) -> list[TraceRecord]:
    """One full event-driven run; returns the trace (aggregate() folds it)."""
    workload.validate()
    lam = workload.arrival_rate if lam is None else lam
    seed = workload.seed if seed is None else seed
    horizon = workload.horizon
    table = table if table is not None else enumerate_paths(net)

    sim = Simulation(net, table, policy, run_mode, audit_every=audit_every)
    sim.emit(
        "run_start",
        0.0,
        lam=f"{lam:g}",
        seed=seed,
        k=net.k_arity,
        policy=policy.policy_hash(),
        mode=run_mode,
    )

    for i, req in enumerate(poisson_arrivals(workload, lam, seed)):
        sim.schedule(SimEvent(req.arrival_time, i, "arrival", request=req), RANK_ARRIVAL)
    for ev in extra_events:
        sim.schedule(ev, RANK_OTHER)
    while sim.events and sim.events[0][0] <= horizon:
        sim.process(heapq.heappop(sim.events)[-1])

    sim.emit("run_end", horizon, events=sim.events_processed)
    return sim.records
