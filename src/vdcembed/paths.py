"""Candidate substrate paths between node pairs, with stable indexing."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameterError, PathLookupError
from .topology import SubstrateNetwork

DEFAULT_MAX_HOPS = 4


@dataclass(frozen=True)
class PathRecord:
    """One simple path: node sequence, edge ids and cached delay."""

    nodes: tuple[str, ...]
    edges: tuple[str, ...]
    delay: int

    def __len__(self):
        return len(self.edges)


class PathTable:
    """All simple paths of length <= max_len per admitted ordered node pair.

    Paths per pair are sorted by (hop count, edge-id sequence) so the index
    of a path is stable across identically built tables.
    """

    def __init__(self):
        self.paths: dict[tuple[str, str], list[PathRecord]] = {}

    def pairs(self):
        return self.paths.keys()

    def get(self, a: str, b: str) -> list[PathRecord]:
        return self.paths.get((a, b), [])

    def path(self, a: str, b: str, n: int) -> PathRecord:
        recs = self.paths.get((a, b))
        if recs is None:
            raise PathLookupError(f"no paths recorded for pair ({a}, {b})")
        if not 0 <= n < len(recs):
            raise PathLookupError(f"pair ({a}, {b}) has {len(recs)} paths, index {n} unknown")
        return recs[n]


def admissible(rec: PathRecord, down, latency_bound: int | None) -> bool:
    """A path is usable when no link or node on it is down and its delay is
    within the request's latency bound (None means unbounded)."""
    if latency_bound is not None and rec.delay > latency_bound:
        return False
    return not down or not (
        any(e in down for e in rec.edges) or any(n in down for n in rec.nodes)
    )


def default_pair_filter(net: SubstrateNetwork):
    """Admit switch-switch pairs plus physically adjacent (switch, server) pairs.

    Longer switch-server walks are never referenced: a switch-VM virtual link
    always maps onto the single physical edge below the chosen switch.
    """

    def admit(a: str, b: str) -> bool:
        if a in net.switches and b in net.switches:
            return True
        if a in net.switches and b in net.servers:
            return net.link_between(a, b) is not None
        if a in net.servers and b in net.switches:
            return net.link_between(a, b) is not None
        return False

    return admit


def enumerate_paths(
    net: SubstrateNetwork,
    max_len: int = DEFAULT_MAX_HOPS,
    pair_filter=None,
) -> PathTable:
    """Enumerate every simple path of length <= max_len per admitted pair."""
    if max_len < 1:
        raise InvalidParameterError(f"max_len must be >= 1, got {max_len}")
    admit = pair_filter if pair_filter is not None else default_pair_filter(net)

    table = PathTable()
    bucket: dict[tuple[str, str], list[PathRecord]] = {}
    link_by_id = net.links

    nodes = sorted(net.adjacency)
    for src in nodes:
        # one bounded DFS per source; record a path whenever the head is admitted
        stack = [(src, [src], [], 0)]
        while stack:
            cur, node_seq, edge_seq, delay = stack.pop()
            if cur != src and admit(src, cur):
                bucket.setdefault((src, cur), []).append(
                    PathRecord(tuple(node_seq), tuple(edge_seq), delay)
                )
            if len(edge_seq) >= max_len:
                continue
            for nxt, lid in net.adjacency[cur]:
                if nxt in node_seq:
                    continue
                hop_delay = link_by_id[lid].delay
                stack.append((nxt, node_seq + [nxt], edge_seq + [lid], delay + hop_delay))

    for pair, recs in bucket.items():
        recs.sort(key=lambda r: (len(r.edges), r.edges))
        table.paths[pair] = recs
    return table
