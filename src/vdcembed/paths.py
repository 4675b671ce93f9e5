"""Candidate substrate paths between node pairs, with stable indexing."""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidParameterError, PathLookupError
from .topology import SubstrateNetwork

DEFAULT_MAX_HOPS = 4


class PathRecord(NamedTuple):
    """One simple path: node sequence, edge ids and cached delay."""

    nodes: tuple[str, ...]
    edges: tuple[str, ...]
    delay: int


class PathTable:
    """All simple paths of length <= max_len per admitted ordered node pair.

    Paths per pair are in index order, (hop count, edge-id sequence), so the
    index of a path is stable across identically built tables.
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
    """Enumerate every simple path of length <= max_len per admitted pair.

    Paths grow one hop per level from each source: a level's parents are in
    edge-id order and each extends over its links in id order, so every
    pair's list comes out in index order. Pairs go in sorted.
    """
    if max_len < 1:
        raise InvalidParameterError(f"max_len must be >= 1, got {max_len}")
    admit = pair_filter if pair_filter is not None else default_pair_filter(net)
    new = tuple.__new__  # about half the cost of PathRecord(...) per record
    hops = {
        node: sorted((lid, nxt, net.links[lid].delay) for nxt, lid in adj)
        for node, adj in net.adjacency.items()
    }

    table = PathTable()
    order = sorted(hops)
    for src in order:
        found = {dst: [] for dst in order if dst != src and admit(src, dst)}
        level = [((src,), (), 0)]
        for _ in range(max_len):
            grown = []
            for nodes, edges, delay in level:
                for lid, nxt, hop_delay in hops[nodes[-1]]:
                    if nxt not in nodes:
                        rec = new(PathRecord, (nodes + (nxt,), edges + (lid,), delay + hop_delay))
                        grown.append(rec)
                        if nxt in found:
                            found[nxt].append(rec)
            level = grown
        table.paths.update(((src, dst), recs) for dst, recs in found.items() if recs)
    return table
