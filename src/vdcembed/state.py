"""Authoritative embedding state: mappings, residual tracking, feasibility checks."""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    AuditError,
    CommitRejectedError,
    InvalidParameterError,
    UnknownElementError,
)
from .paths import PathTable, admissible
from .topology import (
    DIMENSIONS,
    TIER_EDGE,
    ZERO,
    ResourceVector,
    SubstrateNetwork,
    VdcRequest,
    _new,
    sum_vectors,
)


def norm(load: ResourceVector, cap: ResourceVector) -> float:
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


class RackServer(NamedTuple):
    """A server whose uplink is up, as EmbeddingState.racks lists it. Greedy
    divides by its capacities, which validate_substrate requires positive."""

    server: str
    link: str  # the uplink's link id
    delay: int  # the uplink's path-0 delay
    cores: int  # the server's capacity
    memory_mb: int
    link_bandwidth: int  # the uplink's capacity


# (edge switch, its servers, their server ids), as EmbeddingState.racks lists it
Rack = tuple[str, list[RackServer], frozenset]


class PlanEntry(NamedTuple):
    """One request's greedy result in a batch plan, with what it was made
    on: a copy of the residuals just before the call."""

    request: VdcRequest
    residual: dict[str, ResourceVector]
    result: object  # online_search.TempMapping | StructuralFailure
    usage: dict[str, ResourceVector] | None  # a clean mapping's check's


class EmbeddingState:
    """Single-writer record of all active assignments plus residual resources.

    Residuals change only through charge, which commit, release and a
    refused swap's rollback call, and elements go down only through
    mark_down. Every other value the state keeps follows one rule: the
    routine that changes what it was taken of updates or drops it, and a
    dropped value is rebuilt when next read. The plan memo alone outlives a
    charge: it compares residuals instead, since a release and a re-commit
    give them back. Kept, and updated or dropped by:
    - free, the residuals summed over up elements: kept current by charge
      and mark_down;
    - the fragments' shape (their node and link sets, and the up elements
      in none): mark_down, and a charge that moves a field of an up
      element's residual across zero; their free vectors are summed when
      read;
    - the uplink table and the up counts: mark_down;
    - each rack's share, minus the summed share of its listed servers:
      a charge that touches one of those servers, and mark_down;
    - the last clean check, (request, assignment, usage): charge and
      mark_down. commit skips the re-check of those very objects and charge
      takes that usage. check_assignment reads only the residuals, down and
      the assignment's maps, and no routine writes to an Assignment's maps
      after it is built (a move builds a new one);
    - the usage each commit charged, per active request: the release that
      credits it back. A usage reads only an assignment's maps, its request
      and the path table; audit folds every load afresh and never reads the
      stored usage, so a wrong one shows there;
    - the plan memo, the last batch plan's greedy result per request with
      the residuals it was made on, and the residuals the plan ended on:
      remember replaces it and mark_down drops it, so every entry was made
      under the current down set. recall gives an entry only for the very request
      object on equal residuals, where greedy and check_assignment would
      give the same mapping, findings and usage afresh; commit recalls
      before it re-checks, so a live commit of the plan's clean mapping
      takes the plan's check. replay proves, on the residuals the plan
      ended on, that releasing and re-placing the plan's own recently
      placed actives would recall and commit each one as it stands, so a
      re-placing batch pass skips that round trip.

    Loads are summed on plain ints: one fold adds an assignment's loads
    into a map of (cores, memory, switch memory, bandwidth) tuples per
    element, which usage wraps in one ResourceVector per element and audit
    fills with every active's loads; charge adds a usage to the residuals
    and free field by field. No load gets a vector of its own.
    """

    def __init__(self, net: SubstrateNetwork, table: PathTable):
        self.net = net
        self.table = table
        self.active: dict[str, Assignment] = {}
        self.requests: dict[str, VdcRequest] = {}
        # server, switch and link ids alike -> free capacity
        self.residual: dict[str, ResourceVector] = dict(net.capacity)
        self.down: set[str] = set()
        self.free = sum_vectors(self.residual.values())
        # ([(node ids, link ids)] by smallest node id, the up elements in
        # none, the index of the one with most elements); shared by copies,
        # None while stale
        self._fragments: tuple[list, list[str], int] | None = None
        # the uplink table and the up counts, each built on first use;
        # shared by copies, so mark_down replaces the dict, never clears it
        self._standing: dict = {}
        # up edge switch -> rack_share, each dropped when charge touches one
        # of its servers and all by mark_down; copies copy it
        self._rack_shares: dict[str, float] = {}
        # (request, assignment, usage) of the last check that found nothing;
        # a copy starts with equal residuals, so it may share it
        self._checked: tuple[VdcRequest, Assignment, dict[str, ResourceVector]] | None = None
        # active request id -> the usage its commit charged; copies share
        # the usage maps, which no routine writes to after they are built
        self._charged: dict[str, dict[str, ResourceVector]] = {}
        # request id -> PlanEntry of the last batch plan, in plan order, and
        # the residuals that plan ended on; remember and mark_down replace
        # both, never write to them, so copies share them
        self._plans: dict[str, PlanEntry] = {}
        self._plan_end: dict[str, ResourceVector] | None = None
        self.version = 0

    # -- usage accounting ---------------------------------------------------

    def loads(self, req: VdcRequest, a: Assignment) -> list[tuple[str, str, ResourceVector]]:
        """(request element, substrate element, load) for every load one
        assignment adds: VMs, then vSwitches, then each link of every vlink's
        path."""
        out = [(vm_id, pm, req.vms[vm_id].demand) for vm_id, pm in a.vm_map.items()]
        out += [(vs_id, ps, req.vswitches[vs_id].demand) for vs_id, ps in a.vswitch_map.items()]
        for vl_id, (pa, pb, n) in a.vlink_map.items():
            recs = self.table.get(pa, pb)
            if not 0 <= n < len(recs):
                continue  # reported as unknown-path by check_assignment
            _, edges, _ = recs[n]
            load = ResourceVector(0, 0, 0, req.vlinks[vl_id].bandwidth)
            out += [(vl_id, eid, load) for eid in edges]
        return out

    def _fold(self, req: VdcRequest, a: Assignment, into: dict[str, tuple]):
        """Add one assignment's loads into `into`, substrate element -> plain
        (cores, memory, switch memory, bandwidth) ints, walking them in loads
        order so keys first appear in that order. A path index the table
        does not hold adds nothing, as in loads."""
        get = into.get
        for placed, parts in ((a.vm_map, req.vms), (a.vswitch_map, req.vswitches)):
            for part, host in placed.items():
                w, x, y, z = parts[part].demand
                prev = get(host)
                if prev is None:
                    into[host] = (w, x, y, z)
                else:
                    into[host] = (prev[0] + w, prev[1] + x, prev[2] + y, prev[3] + z)
        paths, vlinks = self.table.get, req.vlinks
        for vl_id, (pa, pb, n) in a.vlink_map.items():
            recs = paths(pa, pb)
            if not 0 <= n < len(recs):
                continue  # reported as unknown-path by check_assignment
            bw = vlinks[vl_id].bandwidth
            for eid in recs[n][1]:
                prev = get(eid)
                if prev is None:
                    into[eid] = (0, 0, 0, bw)
                else:
                    into[eid] = (prev[0], prev[1], prev[2], prev[3] + bw)

    def usage(self, req: VdcRequest, a: Assignment) -> dict[str, ResourceVector]:
        """Per-element load one assignment adds, keyed by server, switch and
        link id; servers come first, then switches, then links."""
        folded: dict[str, tuple] = {}
        self._fold(req, a, folded)
        return {eid: _new(ResourceVector, load) for eid, load in folded.items()}

    def charged(self, request_id: str) -> dict[str, ResourceVector]:
        """The per-element usage an active request's commit charged, which
        its release credits back. Read-only: copies share it."""
        return self._charged[request_id]

    def charge(self, req: VdcRequest, a: Assignment, sign: int):
        """Add sign (+1 or -1) times one assignment's usage to the residuals
        and to free. Unchecked: commit checks first, and a rollback puts
        back what a release took. A charge (-1) stores the
        usage it takes as req's, the kept check's when that check was of req
        and a; a credit (+1) gives back req's stored usage and drops it.
        Either way the kept check is dropped, since the residuals change,
        and so is the share of each rack whose servers a's VMs load."""
        if sign < 0:
            usage = self.kept(req, a)
            if usage is None:
                usage = self.usage(req, a)
            self._charged[req.id] = usage
        else:
            usage = self._charged.pop(req.id)
        self._checked = None
        shares = self._rack_shares
        if shares:
            edge_of = self.net.edge_switch_of
            for server in a.vm_map.values():  # only VMs load servers
                shares.pop(edge_of(server), None)
        residual, down = self.residual, self.down
        shaped = self._fragments is not None
        fc, fm, fs, fb = self.free
        for eid, (w, x, y, z) in usage.items():
            if sign < 0:
                w, x, y, z = -w, -x, -y, -z
            c, m, s, b = residual[eid]
            residual[eid] = _new(ResourceVector, (c + w, m + x, s + y, b + z))
            if eid not in down:
                fc, fm, fs, fb = fc + w, fm + x, fs + y, fb + z
                # an element dies or comes alive only when a field crosses zero
                if shaped and (c > 0, m > 0, s > 0, b > 0) != (c > -w, m > -x, s > -y, b > -z):
                    shaped = self._fragments = None  # they change shape: rebuilt when read
        self.free = _new(ResourceVector, (fc, fm, fs, fb))

    def residual_vectors(self) -> ResourceVector:
        """Componentwise sum of per-element residuals (down elements excluded):
        the running sum free."""
        return self.free

    def _alive(self, eid: str) -> bool:
        """Up, and positive on every capacity dimension of its kind."""
        if eid in self.down:
            return False
        rv = self.residual[eid]
        return all(getattr(rv, dim) > 0 for dim in DIMENSIONS[self.net.kind(eid)])

    def fragments(self) -> list[tuple[frozenset, frozenset, ResourceVector]]:
        """(node ids, link ids, free vector) per connected component of the
        alive elements, in order of smallest node id. The components, and
        the up elements in none, are rebuilt only after an element died,
        came alive or was marked down. Each free vector is summed when read,
        but the largest component's is free less all the others and less
        the up elements in none, which are exactly the up elements left."""
        if self._fragments is None:
            net = self.net
            alive = {eid for eid in self.residual if self._alive(eid)}
            seen: set[str] = set()
            parts = []
            # a component's first node is its smallest, since every smaller
            # alive node started an earlier component
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
                parts.append((frozenset(nodes), frozenset(links)))
            inside = seen.union(*(links for _, links in parts))
            outside = [e for e in self.residual if e not in self.down and e not in inside]
            sizes = [len(nodes) + len(links) for nodes, links in parts]
            largest = max(range(len(parts)), key=sizes.__getitem__, default=0)
            self._fragments = (parts, outside, largest)
        parts, outside, largest = self._fragments
        residual = self.residual
        frees = [
            sum_vectors(residual[eid] for eid in (*nodes, *links))
            for i, (nodes, links) in enumerate(parts)
            if i != largest
        ]
        frees.insert(largest, self.free - sum_vectors([*frees, *(residual[e] for e in outside)]))
        return [(nodes, links, free) for (nodes, links), free in zip(parts, frees)]

    # -- feasibility --------------------------------------------------------

    def structural_findings(self, req: VdcRequest, a: Assignment) -> list[Violation]:
        """Every finding of check_assignment that does not depend on residuals:
        unknown ids raise, the rest (unmapped elements, collisions, tiers,
        paths, latency, locality, failed hosts, links or path nodes) is listed."""
        out: list[Violation] = []
        vm_map, vswitch_map, vlink_map = a.vm_map, a.vswitch_map, a.vlink_map
        servers, switches = self.net.servers, self.net.switches

        for vm_id, pm in vm_map.items():
            if vm_id not in req.vms:
                raise UnknownElementError(f"vm {vm_id} not in request {req.id}")
            if pm not in servers:
                raise UnknownElementError(f"server {pm} not in substrate")
        for vs_id, ps in vswitch_map.items():
            if vs_id not in req.vswitches:
                raise UnknownElementError(f"vswitch {vs_id} not in request {req.id}")
            if ps not in switches:
                raise UnknownElementError(f"switch {ps} not in substrate")
        for vl_id in vlink_map:
            if vl_id not in req.vlinks:
                raise UnknownElementError(f"vlink {vl_id} not in request {req.id}")

        # each map's keys are the request's own, so equal counts mean all mapped
        for parts, placed in (
            (req.vms, vm_map), (req.vswitches, vswitch_map), (req.vlinks, vlink_map)
        ):
            if len(placed) != len(parts):
                out.extend(
                    Violation("unmapped-element", p, True) for p in parts if p not in placed
                )

        used_switches: dict[str, str] = {}
        for vs_id, ps in vswitch_map.items():
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
            if vs.is_edge and switches[ps].tier != TIER_EDGE:
                out.append(Violation("edge-tier", vs_id, True, detail=f"on {ps}"))

        down = self.down
        down_on_paths: set[str] = set()
        paths, bound = self.table.get, req.latency_bound
        for vl_id, (pa, pb, n) in vlink_map.items():
            recs = paths(pa, pb)
            if not 0 <= n < len(recs):
                out.append(Violation("unknown-path", vl_id, True, detail=f"{pa},{pb},{n}"))
                continue
            nodes, edges, delay = recs[n]
            if down:
                down_on_paths.update(eid for eid in edges if eid in down)
                down_on_paths.update(nid for nid in nodes[1:-1] if nid in down)
            vl = req.vlinks[vl_id]
            img_a = vm_map[vl.a] if vl.a in vm_map else vswitch_map.get(vl.a)
            img_b = vm_map[vl.b] if vl.b in vm_map else vswitch_map.get(vl.b)
            if (img_a, img_b) != (pa, pb):
                out.append(
                    Violation(
                        "endpoint-mismatch",
                        vl_id,
                        True,
                        detail=f"path ({pa},{pb}) vs images ({img_a},{img_b})",
                    )
                )
            if bound is not None and delay > bound:
                detail = f"delay {delay} > {bound}"
                out.append(Violation("latency-bound", vl_id, True, detail=detail))

        if req.locality:
            for vm_id, allowed in req.locality.items():
                pm = vm_map.get(vm_id)
                if pm is not None and pm not in allowed:
                    out.append(Violation("locality", vm_id, True, detail=f"on {pm}"))

        if down:
            for element in (*vm_map.values(), *vswitch_map.values()):
                if element in down:
                    out.append(Violation("element-down", element, True))
            for eid in sorted(down_on_paths):
                out.append(Violation("element-down", eid, True))
        return out

    def check_assignment(self, req: VdcRequest, a: Assignment) -> list[Violation]:
        """Check one proposed assignment against this state.

        Structural breaches and capacity breaches, the latter with quantified
        overflow amounts, are listed; any finding blocks a commit, while the
        online embedder carries capacity findings forward as a violation
        ledger to repair. A check that finds nothing is kept for commit.
        """
        out = self.structural_findings(req, a)
        usage = self.usage(req, a)
        for eid, load in usage.items():
            limit = self.residual[eid] if eid not in self.down else ZERO
            if not load.le(limit):
                rule = f"{self.net.kind(eid)}-capacity"
                out.append(Violation(rule, eid, False, overflow=load.overflow_over(limit)))
        if not out:
            self._checked = (req, a, usage)
        return out

    def kept(self, req: VdcRequest, a: Assignment) -> dict[str, ResourceVector] | None:
        """The usage of the kept clean check when it was of these very
        objects, else None."""
        checked = self._checked
        return checked[2] if checked and checked[0] is req and checked[1] is a else None

    def recall(self, req: VdcRequest) -> PlanEntry | None:
        """The last plan's entry for req when it was made for this very
        request object on residuals equal to this state's, else None; it was
        made under this state's down set, since mark_down drops the memo. A
        clean mapping's check is kept again, as if just made."""
        entry = self._plans.get(req.id)
        if entry is None or entry.request is not req or entry.residual != self.residual:
            return None
        if entry.usage is not None:
            self._checked = (req, entry.result.assignment, entry.usage)
        return entry

    def remember(self, entries: dict[str, PlanEntry], residual: dict[str, ResourceVector]):
        """Make entries, in plan order, this state's plan memo, and residual
        the residuals the plan ended on, in place of the last plan's; copies
        taken before keep theirs. The memo keeps both as given, so no
        routine may write to them afterwards."""
        self._plans, self._plan_end = entries, residual

    def replay(self, remappable: list[str]) -> list[PlanEntry] | None:
        """The plan memo's entries for remappable, in order, when releasing
        those actives and re-placing each in turn from the memo would give
        back this very state, else None.

        That holds when the remappables are, in order, the last plan's
        trailing committed entries (those with a usage), each active with
        the very request and assignment its entry holds, and the residuals
        are those the plan ended on. Loads are exact integers, so releasing
        them gives back the residuals the first was planned on; each recall
        then hits, and its commit leaves the residuals the next was planned
        on, and the last leaves this state's."""
        committed = [e for e in self._plans.values() if e.usage is not None]
        tail = committed[len(committed) - len(remappable):]
        if self._plan_end is None or len(tail) != len(remappable):
            return None
        for rid, entry in zip(remappable, tail):
            a = entry.result.assignment
            if self.requests[rid] is not entry.request or self.active[rid] is not a:
                return None
        return tail if self.residual == self._plan_end else None

    def _uplinks(self) -> tuple[list[Rack], dict[str, RackServer]]:
        """The up uplinks: (edge switch, servers, their ids) per up edge
        switch in id order, and each listed server's entry by its id. A
        server is listed under the one edge switch it hangs off when path 0
        between them (the link itself, alike either way) is admissible with
        no latency bound. Built on first use after each mark_down."""
        uplinks = self._standing.get("uplinks")
        if uplinks is None:
            net = self.net
            racks, by_server = [], {}
            edges = (s for s, sw in net.switches.items() if sw.tier == TIER_EDGE)
            for rack in sorted(s for s in edges if s not in self.down):
                servers = []
                for s in net.servers_under(rack):
                    recs = self.table.get(rack, s)
                    if net.edge_switch_of(s) == rack and recs and admissible(recs[0], self.down, None):
                        _, edges, delay = recs[0]
                        cap, lid = net.capacity[s], edges[0]
                        by_server[s] = RackServer(
                            s, lid, delay, cap.cpu_cores, cap.memory_mb,
                            net.links[lid].bandwidth,
                        )
                        servers.append(by_server[s])
                racks.append((rack, servers, frozenset(e.server for e in servers)))
            uplinks = self._standing["uplinks"] = (racks, by_server)
        return uplinks

    def racks(self) -> list[Rack]:
        """(edge switch, servers, their ids) per up edge switch, in id
        order: the servers under it, in servers_under order, whose uplink is
        up."""
        return self._uplinks()[0]

    def rack_share(self, rack: str, servers: list[RackServer]) -> float:
        """Minus the summed server_share of a rack's servers, its whole
        list as racks() gives it, summed in that order; kept until charge
        touches one of them or mark_down."""
        share = self._rack_shares.get(rack)
        if share is None:
            share = self._rack_shares[rack] = -sum(self.server_share(e.server) for e in servers)
        return share

    def uplink(self, req: VdcRequest, vm_id: str, server: str) -> tuple[str, str, int] | None:
        """Path key of a VM's uplink when the VM sits on server: path 0
        between server and its edge switch, in the vlink's own direction.
        None when server does not qualify: its uplink is down or over the
        latency bound."""
        entry = self._uplinks()[1].get(server)
        if entry is None or (req.latency_bound is not None and entry.delay > req.latency_bound):
            return None
        edge = self.net.edge_switch_of(server)
        return (server, edge, 0) if req.uplinks[vm_id].a == vm_id else (edge, server, 0)

    def up_counts(self) -> tuple[int, int, tuple[ResourceVector, ...]]:
        """(up edge switches, up switches, the distinct capacities of the up
        servers, first seen first). Built on first use after each mark_down."""
        counts = self._standing.get("up")
        if counts is None:
            net, down = self.net, self.down
            up = [s for s in net.switches if s not in down]
            counts = self._standing["up"] = (
                sum(net.switches[s].tier == TIER_EDGE for s in up),
                len(up),
                tuple(dict.fromkeys(net.capacity[s] for s in net.servers if s not in down)),
            )
        return counts

    def server_share(self, server: str) -> float:
        """norm of a server's residual over its capacity."""
        return norm(self.residual[server], self.net.capacity[server])

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
            _, edges, _ = rec
            if avoid in edges or not admissible(rec, self.down, latency_bound):
                continue
            if all(
                self.residual[e].bandwidth
                + (bandwidth if e in credit else 0)
                - extra.get(e, ZERO).bandwidth
                >= bandwidth
                for e in edges
            ):
                return n
        return None

    # -- mutation -------------------------------------------------------------

    def commit(self, req: VdcRequest, a: Assignment):
        """Admit an assignment; strict violations reject it and leave state
        unchanged. The kept clean check, when it was of req and a, stands in
        for a re-check, as does the plan memo's when recall finds a clean
        mapping that is a."""
        if req.id in self.active:
            raise InvalidParameterError(f"request {req.id} is already active")
        if self.kept(req, a) is None:
            self.recall(req)  # keeps the plan's clean check when it holds here
            if self.kept(req, a) is None:
                violations = self.check_assignment(req, a)
                if violations:
                    raise CommitRejectedError(violations)
        self.charge(req, a, -1)
        self.active[req.id] = a
        self.requests[req.id] = req
        self.version += 1

    def release(self, request_id: str):
        """Drop an active request and credit its resources back."""
        if request_id not in self.active:
            raise UnknownElementError(f"request {request_id} is not active")
        a = self.active.pop(request_id)
        req = self.requests.pop(request_id)
        self.charge(req, a, 1)
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
        """An independent state with its own actives, residuals, down set
        and charged usages, sharing the read-only substrate and path table,
        and every other kept value until either side drops it; the rack
        shares, which charge drops one by one, are copied."""
        clone = copy.copy(self)
        clone.active = dict(self.active)
        clone.requests = dict(self.requests)
        clone.residual = dict(self.residual)
        clone.down = set(self.down)
        clone._charged = dict(self._charged)
        clone._rack_shares = dict(self._rack_shares)
        return clone

    def mark_down(self, element_ids) -> None:
        """Strip failed elements from the usable substrate; an unknown id
        raises before any element is marked."""
        element_ids = list(element_ids)
        for eid in element_ids:
            if eid not in self.net.capacity:
                raise UnknownElementError(f"unknown substrate element {eid}")
        newly = set(element_ids) - self.down
        self.free = self.free - sum_vectors(self.residual[eid] for eid in newly)
        self.down.update(newly)
        self._fragments = None
        self._standing = {}
        self._rack_shares = {}
        self._checked = None
        self._plans, self._plan_end = {}, None
        self.version += 1

    # -- consistency --------------------------------------------------------

    def audit(self):
        """Prove the state consistent, in time linear in the active
        requests' loads plus the substrate's elements: each call also
        compares and sums every element (84 at k=4, 592 at k=8).

        Residuals folded from scratch, every load of every active taken off
        its capacity, must equal the stored ones on every element, touched
        or not, and be nonnegative, which proves the actives fit jointly;
        the running free must equal the residuals it sums, and each active
        assignment must pass the structural checks. The stored charged usage
        is not read, so a wrong one shows as drift once it is credited back.
        Raises AuditError; used by simulation self-checks and tests.
        """
        scratch: dict[str, tuple] = {}
        for rid, a in self.active.items():
            self._fold(self.requests[rid], a, scratch)
        capacity, residual, down = self.net.capacity, self.residual, self.down
        if len(residual) != len(capacity) or not scratch.keys() <= capacity.keys():
            raise AuditError("residuals drifted from fold-from-scratch values")
        negative = None
        fc = fm = fs = fb = 0
        for eid, (c, m, s, b) in capacity.items():
            used = scratch.get(eid)
            if used is not None:
                w, x, y, z = used
                c, m, s, b = c - w, m - x, s - y, b - z
            left = (c, m, s, b)
            if residual.get(eid) != left:
                raise AuditError("residuals drifted from fold-from-scratch values")
            if negative is None and min(left) < 0:
                negative = eid, left
            if eid not in down:
                fc, fm, fs, fb = fc + c, fm + m, fs + s, fb + b
        if negative is not None:
            eid, left = negative
            raise AuditError(f"negative residual on {eid}: {_new(ResourceVector, left)}")
        if self.free != (fc, fm, fs, fb):
            raise AuditError("running free total drifted from the fold over up elements")
        for rid, a in self.active.items():
            bad = self.structural_findings(self.requests[rid], a)
            if bad:
                raise AuditError(f"active request {rid} fails re-check: {bad[0]}")
