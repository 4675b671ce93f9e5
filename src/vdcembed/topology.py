"""Substrate fat-tree construction, VDC request generation, and text formats."""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property

from .errors import ConfigError, FormatError, InvalidParameterError

TIER_CORE = "core"
TIER_AGG = "aggregation"
TIER_EDGE = "edge"
TIERS = (TIER_CORE, TIER_AGG, TIER_EDGE)

SUBSTRATE_FORMAT_VERSION = 1
REQUESTS_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ResourceVector:
    """Per-element resource amounts; dimensions that do not apply stay zero.

    Comparison is componentwise only (le); there is deliberately no total
    order on vectors.
    """

    cpu_cores: int = 0
    memory_mb: int = 0
    switch_memory: int = 0
    bandwidth: int = 0

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cpu_cores + other.cpu_cores,
            self.memory_mb + other.memory_mb,
            self.switch_memory + other.switch_memory,
            self.bandwidth + other.bandwidth,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cpu_cores - other.cpu_cores,
            self.memory_mb - other.memory_mb,
            self.switch_memory - other.switch_memory,
            self.bandwidth - other.bandwidth,
        )

    def le(self, other: "ResourceVector") -> bool:
        """Componentwise self <= other."""
        return (
            self.cpu_cores <= other.cpu_cores
            and self.memory_mb <= other.memory_mb
            and self.switch_memory <= other.switch_memory
            and self.bandwidth <= other.bandwidth
        )

    @property
    def nonnegative(self) -> bool:
        return (
            self.cpu_cores >= 0
            and self.memory_mb >= 0
            and self.switch_memory >= 0
            and self.bandwidth >= 0
        )

    def overflow_over(self, limit: "ResourceVector") -> "ResourceVector":
        """Amount by which self exceeds limit, clamped at zero per component."""
        d = self - limit
        return ResourceVector(
            max(0, d.cpu_cores),
            max(0, d.memory_mb),
            max(0, d.switch_memory),
            max(0, d.bandwidth),
        )


ZERO = ResourceVector()


def sum_vectors(vectors) -> ResourceVector:
    """Componentwise sum, accumulated per component rather than one vector
    per addition (it runs over every substrate element)."""
    cores = memory = switch_memory = bandwidth = 0
    for v in vectors:
        cores += v.cpu_cores
        memory += v.memory_mb
        switch_memory += v.switch_memory
        bandwidth += v.bandwidth
    return ResourceVector(cores, memory, switch_memory, bandwidth)


# the capacity dimensions each kind of substrate element carries
DIMENSIONS = {
    "server": ("cpu_cores", "memory_mb"),
    "switch": ("switch_memory",),
    "link": ("bandwidth",),
}


@dataclass(frozen=True)
class Server:
    id: str
    capacity: ResourceVector


@dataclass(frozen=True)
class Switch:
    id: str
    tier: str
    capacity: ResourceVector


@dataclass(frozen=True)
class Link:
    id: str
    a: str
    b: str
    bandwidth: int
    delay: int


@dataclass
class SubstrateNetwork:
    """Physical data center: servers, tiered switches, capacitated links.

    Servers, switches and links share one id space; `capacity` maps every
    element id to its capacity vector (a link's is its bandwidth).
    k_arity records the fat-tree parameter used at construction time; 0
    marks a hand-built network (structural count checks are skipped). A
    link naming an undeclared node raises InvalidParameterError.
    """

    servers: dict[str, Server]
    switches: dict[str, Switch]
    links: dict[str, Link]
    k_arity: int = 0

    def __post_init__(self):
        self._rebuild_index()

    def _rebuild_index(self):
        adj: dict[str, list[tuple[str, str]]] = {
            n: [] for n in list(self.servers) + list(self.switches)
        }
        for link in self.links.values():
            for end in (link.a, link.b):
                if end not in adj:
                    raise InvalidParameterError(f"link {link.id} names undeclared node {end!r}")
            adj[link.a].append((link.b, link.id))
            adj[link.b].append((link.a, link.id))
        self.adjacency = adj
        self.capacity: dict[str, ResourceVector] = {
            **{s.id: s.capacity for s in self.servers.values()},
            **{s.id: s.capacity for s in self.switches.values()},
            **{l.id: ResourceVector(bandwidth=l.bandwidth) for l in self.links.values()},
        }
        self._hop_cache: dict[str, dict[str, int]] = {}
        self._diameter: int | None = None

    def kind(self, element_id: str) -> str:
        """The element's kind, a key of DIMENSIONS: server, switch or link."""
        if element_id in self.servers:
            return "server"
        return "switch" if element_id in self.switches else "link"

    def edge_switch_of(self, server_id: str) -> str | None:
        """The edge-tier switch adjacent to a server, if exactly one exists."""
        found = [
            n
            for n, _ in self.adjacency.get(server_id, [])
            if n in self.switches and self.switches[n].tier == TIER_EDGE
        ]
        return found[0] if len(found) == 1 else None

    def servers_under(self, switch_id: str) -> list[str]:
        return [n for n, _ in self.adjacency.get(switch_id, []) if n in self.servers]

    def link_between(self, a: str, b: str) -> str | None:
        for n, lid in self.adjacency.get(a, []):
            if n == b:
                return lid
        return None

    def hop_distances_from(self, src: str) -> dict[str, int]:
        cached = self._hop_cache.get(src)
        if cached is not None:
            return cached
        dist = {src: 0}
        frontier = deque([src])
        while frontier:
            cur = frontier.popleft()
            for nxt, _ in self.adjacency[cur]:
                if nxt not in dist:
                    dist[nxt] = dist[cur] + 1
                    frontier.append(nxt)
        self._hop_cache[src] = dist
        return dist

    def hop_distance(self, a: str, b: str) -> int:
        return self.hop_distances_from(a)[b]

    def diameter(self) -> int:
        if self._diameter is None:
            worst = 0
            for node in self.adjacency:
                dist = self.hop_distances_from(node)
                if len(dist) == len(self.adjacency):
                    worst = max(worst, max(dist.values()))
            self._diameter = max(worst, 1)
        return self._diameter


@dataclass(frozen=True)
class Vm:
    id: str
    demand: ResourceVector


@dataclass(frozen=True)
class VSwitch:
    id: str
    is_edge: bool
    demand: ResourceVector


@dataclass(frozen=True)
class VLink:
    id: str
    a: str
    b: str
    bandwidth: int


@dataclass(frozen=True)
class VdcRequest:
    """A tenant topology of VMs, vSwitches and vLinks plus timing metadata."""

    id: str
    vms: dict[str, Vm]
    vswitches: dict[str, VSwitch]
    vlinks: dict[str, VLink]
    arrival_time: float
    duration: float
    latency_bound: int | None = None
    locality: dict[str, frozenset[str]] | None = None

    @cached_property
    def uplinks(self) -> dict[str, VLink]:
        """VM id -> the vlink it hangs off; the first attaching vlink wins."""
        out: dict[str, VLink] = {}
        for vl in self.vlinks.values():
            for end in self.vms.keys() & {vl.a, vl.b}:
                out.setdefault(end, vl)
        return out

    def vm_parent(self, vm_id: str) -> str:
        """The unique vSwitch a VM hangs off (VMs have degree one)."""
        vl = self.uplinks.get(vm_id)
        if vl is None:
            raise FormatError(f"request {self.id}: vm {vm_id} has no attaching vlink")
        return vl.b if vl.a == vm_id else vl.a

    def demand_totals(self) -> ResourceVector:
        """Total VM cores and memory, vSwitch memory and vlink bandwidth."""
        return ResourceVector(
            sum(vm.demand.cpu_cores for vm in self.vms.values()),
            sum(vm.demand.memory_mb for vm in self.vms.values()),
            sum(vs.demand.switch_memory for vs in self.vswitches.values()),
            sum(vl.bandwidth for vl in self.vlinks.values()),
        )


# the (low, high) draw ranges of WorkloadConfig, in the order validate checks them
_WORKLOAD_RANGE_KEYS = (
    "vm_count",
    "vm_cores",
    "vm_memory_mb",
    "vswitch_count",
    "vswitch_memory",
    "vlink_bandwidth",
    "duration",
)


@dataclass(frozen=True)
class WorkloadConfig:
    """Uniform draw ranges for random VDC requests plus arrival process knobs."""

    vm_count: tuple[int, int] = (40, 100)
    vm_cores: tuple[int, int] = (1, 2)
    vm_memory_mb: tuple[int, int] = (256, 512)
    vswitch_count: tuple[int, int] = (5, 20)
    vswitch_memory: tuple[int, int] = (10, 25)
    vlink_bandwidth: tuple[int, int] = (5, 200)
    duration: tuple[int, int] = (10, 90)
    arrival_rate: float = 5.0  # requests per 100 time units
    horizon: float = 1000.0
    seed: int = 0

    def validate(self):
        for name in _WORKLOAD_RANGE_KEYS:
            lo, hi = getattr(self, name)
            if lo < 1 or lo > hi:
                raise ConfigError(f"{name}: need 1 <= low <= high, got {lo}:{hi}")
        check_rate("arrival_rate", self.arrival_rate)
        if not 0 <= self.horizon < math.inf:  # also rejects nan
            raise ConfigError(f"horizon must be finite and >= 0: {self.horizon}")


def check_rate(name: str, rate: float) -> float:
    """rate, when it is an arrival rate the generator accepts: finite and in
    [0, 10] requests per 100 time units; ConfigError otherwise."""
    if not 0 <= rate <= 10:  # also rejects nan
        raise ConfigError(f"{name} out of range [0, 10]: {rate}")
    return rate


def config_items(text: str):
    """Yield (line number, key, value) per `key=value` line of a flat config
    file; `#` starts a comment, and lines left blank are skipped."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        yield lineno, key.strip(), val.strip()


def parse_workload_config(text: str) -> WorkloadConfig:
    """Parse a flat key=value workload config; unknown keys are errors."""
    values = {}
    for lineno, key, val in config_items(text):
        try:
            if key in _WORKLOAD_RANGE_KEYS:
                bounds = [int(v) for v in val.split(":")]
                if len(bounds) > 2:
                    raise ValueError
                values[key] = (bounds[0], bounds[-1])
            elif key in ("arrival_rate", "horizon"):
                values[key] = float(val)
            elif key == "seed":
                values[key] = int(val)
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value {val!r} for {key}") from None
    cfg = WorkloadConfig(**values)
    cfg.validate()
    return cfg


def poisson_arrivals(cfg: WorkloadConfig, lam: float, seed) -> list[VdcRequest]:
    """Requests arriving as a Poisson process of `lam` per 100 time units up
    to the horizon; request i is drawn from its own stream and named r<i>."""
    requests = []
    if lam > 0:
        rng = random.Random(f"{seed}/arrivals")
        t = 0.0
        while True:
            t += rng.expovariate(lam / 100.0)
            if t > cfg.horizon:
                break
            i = len(requests)
            requests.append(replace(generate_vdc_request(cfg, t, f"{seed}/req/{i}"), id=f"r{i}"))
    return requests


def build_fat_tree(
    k: int,
    server_capacity: ResourceVector = ResourceVector(cpu_cores=8, memory_mb=16384),
    switch_memory: int = 100,
    bandwidth_profile: tuple[int, int, int] = (10000, 1000, 1000),
    delay_profile: tuple[int, int, int] = (1, 1, 1),
) -> SubstrateNetwork:
    """Build a standard k-ary fat tree substrate.

    bandwidth_profile / delay_profile are (core-agg, agg-edge, edge-server)
    per-tier values. Yields k^3/4 servers, 5k^2/4 switches, 3k^3/4 links.
    """
    if k < 2 or k % 2 != 0:
        raise InvalidParameterError(f"fat-tree arity must be a positive even integer, got {k}")
    half = k // 2
    sw_cap = ResourceVector(switch_memory=switch_memory)
    bw_ca, bw_ae, bw_es = bandwidth_profile
    dl_ca, dl_ae, dl_es = delay_profile

    switches: dict[str, Switch] = {}
    servers: dict[str, Server] = {}
    links: dict[str, Link] = {}
    link_no = 0

    def add_link(a: str, b: str, bw: int, delay: int):
        nonlocal link_no
        lid = f"l{link_no}"
        links[lid] = Link(lid, a, b, bw, delay)
        link_no += 1

    # core switches c<column>_<m>: column j serves aggregation index j in every pod
    for j in range(half):
        for m in range(half):
            sid = f"c{j}_{m}"
            switches[sid] = Switch(sid, TIER_CORE, sw_cap)

    for pod in range(k):
        aggs = []
        for j in range(half):
            sid = f"a{pod}_{j}"
            switches[sid] = Switch(sid, TIER_AGG, sw_cap)
            aggs.append(sid)
        for i in range(half):
            eid = f"e{pod}_{i}"
            switches[eid] = Switch(eid, TIER_EDGE, sw_cap)
            for agg in aggs:
                add_link(agg, eid, bw_ae, dl_ae)
            for h in range(half):
                srv = f"s{pod * half * half + i * half + h}"
                servers[srv] = Server(srv, server_capacity)
                add_link(eid, srv, bw_es, dl_es)
        for j in range(half):
            for m in range(half):
                add_link(f"c{j}_{m}", aggs[j], bw_ca, dl_ca)

    return SubstrateNetwork(servers=servers, switches=switches, links=links, k_arity=k)


def _decode_pruefer(seq: list[int], n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree on n nodes encoded by a Pruefer sequence."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    # smallest-leaf elimination; leaf_heap is consumed in ascending order
    leaf_heap = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaf_heap)
    for v in seq:
        leaf = heapq.heappop(leaf_heap)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaf_heap, v)
    u = heapq.heappop(leaf_heap)
    w = heapq.heappop(leaf_heap)
    edges.append((u, w))
    return edges


def generate_vdc_request(cfg: WorkloadConfig, arrival: float, rng_state: int | str) -> VdcRequest:
    """Draw one random VDC request; a pure function of (cfg, arrival, rng_state).

    The virtual topology is a uniform random tree over vSwitches whose leaves
    are edge vSwitches; VMs are spread round-robin over a shuffled order so
    group sizes stay within one of balanced.
    """
    cfg.validate()
    rng = random.Random(rng_state)
    n_vs = rng.randint(*cfg.vswitch_count)
    n_vm = rng.randint(*cfg.vm_count)

    vswitch_ids = [f"vs{i}" for i in range(n_vs)]
    tree_edges: list[tuple[int, int]] = []
    if n_vs == 1:
        edge_flags = [True]
    elif n_vs == 2:
        tree_edges = [(0, 1)]
        edge_flags = [True, True]
    else:
        seq = [rng.randrange(n_vs) for _ in range(n_vs - 2)]
        tree_edges = _decode_pruefer(seq, n_vs)
        degree = [0] * n_vs
        for u, w in tree_edges:
            degree[u] += 1
            degree[w] += 1
        edge_flags = [degree[i] == 1 for i in range(n_vs)]

    vswitches = {}
    for i, vsid in enumerate(vswitch_ids):
        mem = rng.randint(*cfg.vswitch_memory)
        vswitches[vsid] = VSwitch(vsid, edge_flags[i], ResourceVector(switch_memory=mem))

    vms = {}
    for i in range(n_vm):
        cores = rng.randint(*cfg.vm_cores)
        mem = rng.randint(*cfg.vm_memory_mb)
        vms[f"vm{i}"] = Vm(f"vm{i}", ResourceVector(cpu_cores=cores, memory_mb=mem))

    edge_vswitches = [vsid for i, vsid in enumerate(vswitch_ids) if edge_flags[i]]
    order = list(vms)
    rng.shuffle(order)
    parent = {
        vm_id: edge_vswitches[i % len(edge_vswitches)] for i, vm_id in enumerate(order)
    }

    vlinks = {}
    ln = 0
    for u, w in tree_edges:
        bw = rng.randint(*cfg.vlink_bandwidth)
        vlinks[f"vl{ln}"] = VLink(f"vl{ln}", vswitch_ids[u], vswitch_ids[w], bw)
        ln += 1
    for vm_id in vms:
        bw = rng.randint(*cfg.vlink_bandwidth)
        vlinks[f"vl{ln}"] = VLink(f"vl{ln}", parent[vm_id], vm_id, bw)
        ln += 1

    duration = rng.randint(*cfg.duration)
    return VdcRequest(
        id="",
        vms=vms,
        vswitches=vswitches,
        vlinks=vlinks,
        arrival_time=arrival,
        duration=float(duration),
    )


@dataclass(frozen=True)
class Finding:
    """One violated invariant, named by the rule it breaks."""

    rule: str
    element: str
    detail: str = ""

    def __str__(self):
        extra = f": {self.detail}" if self.detail else ""
        return f"[{self.rule}] {self.element}{extra}"


def validate_substrate(net: SubstrateNetwork) -> list[Finding]:
    """Report every violated substrate invariant; empty list means valid."""
    findings: list[Finding] = []
    for sw in net.switches.values():
        if sw.tier not in TIERS:
            findings.append(Finding("switch-tier", sw.id, f"unknown tier {sw.tier!r}"))
        if sw.capacity.switch_memory <= 0:
            findings.append(Finding("switch-capacity-positive", sw.id))
    for srv in net.servers.values():
        if srv.capacity.cpu_cores <= 0 or srv.capacity.memory_mb <= 0:
            findings.append(Finding("server-capacity-positive", srv.id))
    for link in net.links.values():
        if link.bandwidth <= 0:
            findings.append(Finding("link-bandwidth-positive", link.id))
        if link.delay < 0:
            findings.append(Finding("link-delay-negative", link.id))

    for srv_id in net.servers:
        edge_neighbors = [
            n
            for n, _ in net.adjacency[srv_id]
            if n in net.switches and net.switches[n].tier == TIER_EDGE
        ]
        other = [n for n, _ in net.adjacency[srv_id] if n not in edge_neighbors]
        if len(edge_neighbors) != 1 or other:
            findings.append(
                Finding(
                    "server-edge-adjacency",
                    srv_id,
                    f"{len(edge_neighbors)} edge switches, {len(other)} other neighbors",
                )
            )

    if net.adjacency:
        start = next(iter(net.adjacency))
        seen = set(net.hop_distances_from(start))
        if len(seen) != len(net.adjacency):
            findings.append(
                Finding("connectivity", start, f"reached {len(seen)}/{len(net.adjacency)} nodes")
            )

    k = net.k_arity
    if k >= 2 and k % 2 == 0:
        if len(net.servers) != k**3 // 4:
            findings.append(
                Finding("fat-tree-server-count", f"k={k}", f"{len(net.servers)} != {k**3 // 4}")
            )
        if len(net.switches) != 5 * k**2 // 4:
            findings.append(
                Finding("fat-tree-switch-count", f"k={k}", f"{len(net.switches)} != {5 * k**2 // 4}")
            )
    return findings


def validate_request(req: VdcRequest, net: SubstrateNetwork | None = None) -> list[Finding]:
    """Report violated request invariants (topology shape, demands, locality)."""
    findings: list[Finding] = []
    if req.duration <= 0:
        findings.append(Finding("duration-positive", req.id, str(req.duration)))
    for vm in req.vms.values():
        if vm.demand.cpu_cores <= 0 or vm.demand.memory_mb <= 0:
            findings.append(Finding("vm-demand-positive", vm.id))
    for vs in req.vswitches.values():
        if vs.demand.switch_memory <= 0:
            findings.append(Finding("vswitch-demand-positive", vs.id))
    adj: dict[str, list[str]] = {n: [] for n in list(req.vms) + list(req.vswitches)}
    for vl in req.vlinks.values():
        if vl.bandwidth <= 0:
            findings.append(Finding("vlink-demand-positive", vl.id))
        for end in (vl.a, vl.b):
            if end not in adj:
                findings.append(Finding("vlink-endpoint-unknown", vl.id, end))
        if vl.a in adj and vl.b in adj:
            adj[vl.a].append(vl.b)
            adj[vl.b].append(vl.a)

    for vm_id in req.vms:
        neighbors = adj[vm_id]
        if len(neighbors) != 1:
            findings.append(Finding("vm-degree", vm_id, f"degree {len(neighbors)}"))
        elif neighbors[0] not in req.vswitches or not req.vswitches[neighbors[0]].is_edge:
            findings.append(Finding("vm-parent-edge", vm_id, str(neighbors[0])))

    if adj:
        start = next(iter(adj))
        seen = {start}
        stack = [start]
        while stack:
            for n in adj[stack.pop()]:
                if n not in seen:
                    seen.add(n)
                    stack.append(n)
        if len(seen) != len(adj):
            findings.append(Finding("request-connectivity", req.id))
    n_nodes = len(req.vms) + len(req.vswitches)
    if len(req.vlinks) != max(0, n_nodes - 1):
        findings.append(
            Finding("request-tree-shape", req.id, f"{len(req.vlinks)} links over {n_nodes} nodes")
        )

    if req.locality:
        for vm_id, allowed in req.locality.items():
            if vm_id not in req.vms:
                findings.append(Finding("locality-unknown-vm", vm_id))
            if not allowed:
                findings.append(Finding("locality-empty", vm_id))
            elif net is not None:
                for pm in allowed:
                    if pm not in net.servers:
                        findings.append(Finding("locality-unknown-server", vm_id, pm))
    return findings


# --- line-oriented text formats -------------------------------------------------


def dump_substrate(net: SubstrateNetwork) -> str:
    lines = [f"substrate {SUBSTRATE_FORMAT_VERSION} {net.k_arity}"]
    for srv in net.servers.values():
        lines.append(f"server {srv.id} {srv.capacity.cpu_cores} {srv.capacity.memory_mb}")
    for sw in net.switches.values():
        lines.append(f"switch {sw.id} {sw.tier} {sw.capacity.switch_memory}")
    for link in net.links.values():
        lines.append(f"link {link.id} {link.a} {link.b} {link.bandwidth} {link.delay}")
    return "\n".join(lines) + "\n"


def load_substrate(text: str) -> SubstrateNetwork:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty substrate file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "substrate":
        raise FormatError(f"bad substrate header: {lines[0]!r}")
    try:
        version, k = int(head[1]), int(head[2])
    except ValueError:
        raise FormatError(f"bad substrate header: {lines[0]!r}") from None
    if version != SUBSTRATE_FORMAT_VERSION:
        raise FormatError(f"unsupported substrate format version {head[1]}")
    servers, switches, links = {}, {}, {}
    for raw in lines[1:]:
        parts = raw.split()
        try:
            # servers, switches and links share one id space
            if parts[0] in ("server", "switch", "link") and (
                parts[1] in servers or parts[1] in switches or parts[1] in links
            ):
                raise FormatError(f"duplicate element id {parts[1]!r}")
            if parts[0] == "server":
                _, sid, cores, mem = parts
                servers[sid] = Server(sid, ResourceVector(cpu_cores=int(cores), memory_mb=int(mem)))
            elif parts[0] == "switch":
                _, sid, tier, mem = parts
                switches[sid] = Switch(sid, tier, ResourceVector(switch_memory=int(mem)))
            elif parts[0] == "link":
                _, lid, a, b, bw, delay = parts
                links[lid] = Link(lid, a, b, int(bw), int(delay))
            else:
                raise FormatError(f"unknown substrate record {parts[0]!r}")
        except (ValueError, IndexError):
            raise FormatError(f"bad substrate line: {raw!r}") from None
    try:
        return SubstrateNetwork(servers=servers, switches=switches, links=links, k_arity=k)
    except InvalidParameterError as err:  # a link to an undeclared node
        raise FormatError(str(err)) from None


def dump_requests(requests) -> str:
    lines = [f"requests {REQUESTS_FORMAT_VERSION}"]
    for req in requests:
        lines.append(f"request {req.id}")
        for vm in req.vms.values():
            lines.append(f"vm {vm.id} {vm.demand.cpu_cores} {vm.demand.memory_mb}")
        for vs in req.vswitches.values():
            kind = "edge" if vs.is_edge else "internal"
            lines.append(f"vswitch {vs.id} {kind} {vs.demand.switch_memory}")
        for vl in req.vlinks.values():
            lines.append(f"vlink {vl.id} {vl.a} {vl.b} {vl.bandwidth}")
        lat = "-" if req.latency_bound is None else str(req.latency_bound)
        meta = f"meta {req.arrival_time!r} {req.duration!r} {lat}"
        if req.locality:
            for vm_id in sorted(req.locality):
                meta += f" {vm_id}={','.join(sorted(req.locality[vm_id]))}"
        lines.append(meta)
    return "\n".join(lines) + "\n"


def load_requests(text: str) -> list[VdcRequest]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty requests file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "requests" or head[1] != str(REQUESTS_FORMAT_VERSION):
        raise FormatError(f"bad requests header: {lines[0]!r}")

    requests: list[VdcRequest] = []
    request_ids: set[str] = set()
    cur_id = None
    vms: dict[str, Vm] = {}
    vswitches: dict[str, VSwitch] = {}
    vlinks: dict[str, VLink] = {}

    def flush(meta_parts: list[str]):
        nonlocal cur_id, vms, vswitches, vlinks
        arrival = float(meta_parts[1])
        duration = float(meta_parts[2])
        if math.isnan(arrival) or math.isnan(duration):
            raise FormatError(f"request {cur_id!r}: nan arrival or duration")
        latency = None if meta_parts[3] == "-" else int(meta_parts[3])
        if latency is not None and latency < 0:
            raise FormatError(f"request {cur_id!r}: negative latency bound")
        locality = None
        if len(meta_parts) > 4:
            locality = {}
            for token in meta_parts[4:]:
                # <vm>=<server>[,<server>...], each VM once
                vm_id, _, pms = token.partition("=")
                servers = pms.split(",")
                if not vm_id or vm_id in locality or "" in servers:
                    raise FormatError(f"request {cur_id!r}: bad locality entry {token!r}")
                locality[vm_id] = frozenset(servers)
        requests.append(
            VdcRequest(
                id=cur_id,
                vms=vms,
                vswitches=vswitches,
                vlinks=vlinks,
                arrival_time=arrival,
                duration=duration,
                latency_bound=latency,
                locality=locality,
            )
        )
        cur_id, vms, vswitches, vlinks = None, {}, {}, {}

    fields = {"request": 2, "vm": 4, "vswitch": 4, "vlink": 5}  # as dump_requests writes them
    for raw in lines[1:]:
        parts = raw.split()
        try:
            if len(parts) != fields.get(parts[0], len(parts)):
                raise ValueError(raw)
            if parts[0] == "request":
                if cur_id is not None:
                    raise FormatError(f"request {cur_id!r} missing meta line")
                if parts[1] in request_ids:
                    raise FormatError(f"duplicate request id {parts[1]!r}")
                cur_id = parts[1]
                request_ids.add(cur_id)
            elif parts[0] in ("vm", "vswitch", "vlink") and cur_id is None:
                raise FormatError(f"{parts[0]} line outside a request block")
            elif parts[0] in ("vm", "vswitch", "vlink") and (
                parts[1] in vms or parts[1] in vswitches or parts[1] in vlinks
            ):
                # vms, vswitches and vlinks of a request share one id space
                raise FormatError(f"duplicate element id {parts[1]!r} in request {cur_id!r}")
            elif parts[0] == "vm":
                vms[parts[1]] = Vm(
                    parts[1], ResourceVector(cpu_cores=int(parts[2]), memory_mb=int(parts[3]))
                )
            elif parts[0] == "vswitch":
                if parts[2] not in ("edge", "internal"):
                    raise ValueError(parts[2])
                vswitches[parts[1]] = VSwitch(
                    parts[1], parts[2] == "edge", ResourceVector(switch_memory=int(parts[3]))
                )
            elif parts[0] == "vlink":
                vlinks[parts[1]] = VLink(parts[1], parts[2], parts[3], int(parts[4]))
            elif parts[0] == "meta":
                if cur_id is None:
                    raise FormatError("meta line outside a request block")
                flush(parts)
            else:
                raise FormatError(f"unknown request record {parts[0]!r}")
        except (ValueError, IndexError):
            raise FormatError(f"bad requests line: {raw!r}") from None
    if cur_id is not None:
        raise FormatError(f"request {cur_id!r} missing meta line")
    return requests
