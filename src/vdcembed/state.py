"""Authoritative embedding state: mappings, residual tracking, feasibility checks."""

from __future__ import annotations

import copy
from dataclasses import dataclass

from .errors import (
    AuditError,
    CommitRejectedError,
    InvalidParameterError,
    PathLookupError,
    UnknownElementError,
)
from .paths import PathTable, admissible
from .topology import ZERO, ResourceVector, SubstrateNetwork, VdcRequest, sum_vectors


@dataclass(frozen=True)
class Violation:
    """One broken rule; capacity breaches carry the overflow amount."""

    rule: str
    element: str
    structural: bool
    overflow: ResourceVector = ResourceVector()
    detail: str = ""

    def __str__(self):
        extra = f" over={self.overflow}" if not self.structural else ""
        note = f" ({self.detail})" if self.detail else ""
        return f"[{self.rule}] {self.element}{extra}{note}"


@dataclass(frozen=True)
class Assignment:
    """Where one request's elements live on the substrate.

    vlink_map values are (node_a_image, node_b_image, path_index) keys into
    the path table; a VM's uplink takes the key `EmbeddingState.uplink` gives.
    """

    request_id: str
    vm_map: dict[str, str]
    vswitch_map: dict[str, str]
    vlink_map: dict[str, tuple[str, str, int]]

    def host_of(self, element_id: str) -> str | None:
        if element_id in self.vm_map:
            return self.vm_map[element_id]
        return self.vswitch_map.get(element_id)

    def moves_to(self, new: "Assignment") -> list[tuple[str, str, str, str]]:
        """(kind, element, old, new) for every element of the same request
        placed differently in new: VMs, then vSwitches, then vlinks whose
        path changed; a vlink's old and new read "-"."""
        maps = (
            ("vm", self.vm_map, new.vm_map),
            ("vswitch", self.vswitch_map, new.vswitch_map),
            ("vlink", self.vlink_map, new.vlink_map),
        )
        return [
            (kind, e, "-", "-") if kind == "vlink" else (kind, e, was[e], now[e])
            for kind, was, now in maps
            for e in was
            if now[e] != was[e]
        ]


class EmbeddingState:
    """Single-writer record of all active assignments plus residual resources."""

    def __init__(self, net: SubstrateNetwork, table: PathTable):
        self.net = net
        self.table = table
        self.active: dict[str, Assignment] = {}
        self.requests: dict[str, VdcRequest] = {}
        # server, switch and link ids alike -> free capacity
        self.residual: dict[str, ResourceVector] = dict(net.capacity)
        self.down: set[str] = set()
        self.version = 0

    # -- usage accounting ---------------------------------------------------

    def usage(self, req: VdcRequest, a: Assignment) -> dict[str, ResourceVector]:
        """Per-element load one assignment adds, keyed by server, switch and
        link id; servers come first, then switches, then links."""
        loads = [(pm, req.vms[vm_id].demand) for vm_id, pm in a.vm_map.items()]
        loads += [(ps, req.vswitches[vs_id].demand) for vs_id, ps in a.vswitch_map.items()]
        for vl_id, (pa, pb, n) in a.vlink_map.items():
            recs = self.table.get(pa, pb)
            if not 0 <= n < len(recs):
                continue  # reported as unknown-path by check_assignment
            load = ResourceVector(bandwidth=req.vlinks[vl_id].bandwidth)
            loads += [(eid, load) for eid in recs[n].edges]
        out: dict[str, ResourceVector] = {}
        for eid, load in loads:
            prev = out.get(eid)
            out[eid] = load if prev is None else prev + load
        return out

    def add_usage(self, residual, req: VdcRequest, a: Assignment, sign: int):
        """Add sign (+1 or -1) times one assignment's per-element usage to a
        residual map."""
        for eid, load in self.usage(req, a).items():
            residual[eid] = residual[eid] + load if sign > 0 else residual[eid] - load

    def residual_vectors(self) -> ResourceVector:
        """Componentwise sum of per-element residuals (down elements excluded)."""
        down = self.down
        return sum_vectors(v for eid, v in self.residual.items() if eid not in down)

    # -- feasibility --------------------------------------------------------

    def structural_findings(self, req: VdcRequest, a: Assignment) -> list[Violation]:
        """Every finding of check_assignment that does not depend on residuals:
        unknown ids raise, the rest (unmapped elements, collisions, tiers,
        paths, latency, locality, failed hosts, links or path nodes) is listed."""
        out: list[Violation] = []

        for vm_id, pm in a.vm_map.items():
            if vm_id not in req.vms:
                raise UnknownElementError(f"vm {vm_id} not in request {req.id}")
            if pm not in self.net.servers:
                raise UnknownElementError(f"server {pm} not in substrate")
        for vs_id, ps in a.vswitch_map.items():
            if vs_id not in req.vswitches:
                raise UnknownElementError(f"vswitch {vs_id} not in request {req.id}")
            if ps not in self.net.switches:
                raise UnknownElementError(f"switch {ps} not in substrate")
        for vl_id in a.vlink_map:
            if vl_id not in req.vlinks:
                raise UnknownElementError(f"vlink {vl_id} not in request {req.id}")

        for vm_id in req.vms:
            if vm_id not in a.vm_map:
                out.append(Violation("unmapped-element", vm_id, True))
        for vs_id in req.vswitches:
            if vs_id not in a.vswitch_map:
                out.append(Violation("unmapped-element", vs_id, True))
        for vl_id in req.vlinks:
            if vl_id not in a.vlink_map:
                out.append(Violation("unmapped-element", vl_id, True))

        used_switches: dict[str, str] = {}
        for vs_id, ps in a.vswitch_map.items():
            if ps in used_switches:
                out.append(
                    Violation(
                        "vswitch-collision",
                        ps,
                        True,
                        detail=f"{used_switches[ps]} and {vs_id}",
                    )
                )
            used_switches[ps] = vs_id
            vs = req.vswitches[vs_id]
            if vs.is_edge and self.net.switches[ps].tier != "edge":
                out.append(Violation("edge-tier", vs_id, True, detail=f"on {ps}"))

        down_on_paths: set[str] = set()
        for vl_id, (pa, pb, n) in a.vlink_map.items():
            vl = req.vlinks[vl_id]
            img_a = a.host_of(vl.a)
            img_b = a.host_of(vl.b)
            try:
                rec = self.table.path(pa, pb, n)
            except PathLookupError:
                out.append(Violation("unknown-path", vl_id, True, detail=f"({pa},{pb},{n})"))
                continue
            down_on_paths.update(eid for eid in rec.edges if eid in self.down)
            down_on_paths.update(nid for nid in rec.nodes[1:-1] if nid in self.down)
            if (img_a, img_b) != (pa, pb):
                out.append(
                    Violation(
                        "endpoint-mismatch",
                        vl_id,
                        True,
                        detail=f"path ({pa},{pb}) vs images ({img_a},{img_b})",
                    )
                )
            if req.latency_bound is not None and rec.delay > req.latency_bound:
                out.append(
                    Violation(
                        "latency-bound",
                        vl_id,
                        True,
                        detail=f"delay {rec.delay} > {req.latency_bound}",
                    )
                )

        if req.locality:
            for vm_id, allowed in req.locality.items():
                pm = a.vm_map.get(vm_id)
                if pm is not None and pm not in allowed:
                    out.append(Violation("locality", vm_id, True, detail=f"on {pm}"))

        for element in list(a.vm_map.values()) + list(a.vswitch_map.values()):
            if element in self.down:
                out.append(Violation("element-down", element, True))
        for eid in sorted(down_on_paths):
            out.append(Violation("element-down", eid, True))
        return out

    def check_assignment(self, req: VdcRequest, a: Assignment) -> list[Violation]:
        """Check one proposed assignment against this state.

        Structural breaches and capacity breaches, the latter with quantified
        overflow amounts, are listed; any finding blocks a commit, while the
        online embedder carries capacity findings forward as a violation
        ledger to repair.
        """
        out = self.structural_findings(req, a)

        for eid, load in self.usage(req, a).items():
            limit = self.residual[eid] if eid not in self.down else ZERO
            if not load.le(limit):
                rule = f"{self.net.kind(eid)}-capacity"
                out.append(Violation(rule, eid, False, overflow=load.overflow_over(limit)))
        return out

    def uplink(self, req: VdcRequest, vm_id: str, server: str) -> tuple[str, str, int] | None:
        """Path key of a VM's uplink when the VM sits on server: path 0 of
        (server's edge switch, server) in the vlink's own direction. None when
        server does not qualify: that edge is down or over the latency bound."""
        edge = self.net.edge_switch_of(server)
        pa, pb = (server, edge) if req.uplinks[vm_id].a == vm_id else (edge, server)
        recs = self.table.get(pa, pb)
        return (pa, pb, 0) if recs and admissible(recs[0], self.down, req.latency_bound) else None

    def free_path(
        self, pa, pb, bandwidth, latency_bound=None, credit=(), extra=None, avoid=None
    ) -> int | None:
        """Index of the first admissible pa->pb path with `bandwidth` free on
        every link, or None.

        Links in credit (the path being replaced) count `bandwidth` as free
        again, extra is a usage map of load already planned on top of the
        residuals, and paths through the link `avoid` are skipped.
        """
        extra = extra or {}
        for n, rec in enumerate(self.table.get(pa, pb)):
            if avoid in rec.edges or not admissible(rec, self.down, latency_bound):
                continue
            if all(
                self.residual[e].bandwidth
                + (bandwidth if e in credit else 0)
                - extra.get(e, ZERO).bandwidth
                >= bandwidth
                for e in rec.edges
            ):
                return n
        return None

    # -- mutation -------------------------------------------------------------

    def commit(self, req: VdcRequest, a: Assignment):
        """Admit an assignment; strict violations reject it and leave state unchanged."""
        if req.id in self.active:
            raise InvalidParameterError(f"request {req.id} is already active")
        violations = self.check_assignment(req, a)
        if violations:
            raise CommitRejectedError(violations)
        self.add_usage(self.residual, req, a, -1)
        self.active[req.id] = a
        self.requests[req.id] = req
        self.version += 1

    def release(self, request_id: str):
        """Drop an active request and credit its resources back."""
        if request_id not in self.active:
            raise UnknownElementError(f"request {request_id} is not active")
        a = self.active.pop(request_id)
        req = self.requests.pop(request_id)
        self.add_usage(self.residual, req, a, 1)
        self.version += 1
        return a

    def apply(self, releases, commits):
        """Release every listed request id, then commit every (request,
        assignment) pair.

        Releasing first lets a jointly feasible set of moves apply in any
        order, two requests swapping servers included. A rejected commit
        raises CommitRejectedError with the earlier steps kept.
        """
        for rid in releases:
            self.release(rid)
        for req, a in commits:
            self.commit(req, a)

    def copy(self) -> "EmbeddingState":
        """An independent state sharing the read-only substrate and path table."""
        clone = copy.copy(self)
        clone.active = dict(self.active)
        clone.requests = dict(self.requests)
        clone.residual = dict(self.residual)
        clone.down = set(self.down)
        return clone

    def mark_down(self, element_ids) -> None:
        """Strip failed elements from the usable substrate."""
        for eid in element_ids:
            if eid not in self.net.capacity:
                raise UnknownElementError(f"unknown substrate element {eid}")
            self.down.add(eid)
        self.version += 1

    # -- consistency --------------------------------------------------------

    def audit(self):
        """Prove the state consistent in time linear in the active requests.

        Residuals folded from scratch must equal the stored ones and be
        nonnegative, which proves the actives fit jointly; each active
        assignment must also pass the structural checks. Raises AuditError;
        used by simulation self-checks and tests.
        """
        scratch = dict(self.net.capacity)
        for rid, a in self.active.items():
            self.add_usage(scratch, self.requests[rid], a, -1)
        if scratch != self.residual:
            raise AuditError("residuals drifted from fold-from-scratch values")
        for eid, rv in scratch.items():
            if not rv.nonnegative:
                raise AuditError(f"negative residual on {eid}: {rv}")
        for rid, a in self.active.items():
            bad = self.structural_findings(self.requests[rid], a)
            if bad:
                raise AuditError(f"active request {rid} fails re-check: {bad[0]}")
