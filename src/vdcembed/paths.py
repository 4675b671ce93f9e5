"""Candidate substrate paths between node pairs, with stable indexing."""

from __future__ import annotations

from .errors import InvalidParameterError, PathLookupError
from .topology import SubstrateNetwork

DEFAULT_MAX_HOPS = 4


# One simple path as a plain tuple: (node sequence, edge ids, cached delay).
# A tuple of strings and ints is untracked by the garbage collector at its
# first collection, which a tuple subclass never is, so a large table costs
# full collections nothing once built.
PathRecord = tuple[tuple[str, ...], tuple[str, ...], int]


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
    nodes, edges, delay = rec
    if latency_bound is not None and delay > latency_bound:
        return False
    return not down or not (any(e in down for e in edges) or any(n in down for n in nodes))


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

    A path is built only when it is kept, its end being an admitted
    destination of the source, or grown, levels remaining and its end having
    more than one link: a node with one link was reached over it, so no
    simple path goes on from there.
    """
    if max_len < 1:
        raise InvalidParameterError(f"max_len must be >= 1, got {max_len}")
    admit = pair_filter if pair_filter is not None else default_pair_filter(net)
    # node -> (link id, far end, delay, whether the far end has another link)
    hops = {
        node: sorted(
            (lid, nxt, net.links[lid].delay, len(net.adjacency[nxt]) > 1) for nxt, lid in adj
        )
        for node, adj in net.adjacency.items()
    }

    table = PathTable()
    order = sorted(hops)
    for src in order:
        found = {dst: [] for dst in order if dst != src and admit(src, dst)}
        level = [((src,), (), 0)]
        for remaining in range(max_len - 1, -1, -1):
            grown = []
            for nodes, edges, delay in level:
                for lid, nxt, hop_delay, forks in hops[nodes[-1]]:
                    if nxt in nodes:
                        continue
                    kept = found.get(nxt)
                    grow = forks and remaining
                    if kept is None and not grow:
                        continue
                    rec = (nodes + (nxt,), edges + (lid,), delay + hop_delay)
                    if kept is not None:
                        kept.append(rec)
                    if grow:
                        grown.append(rec)
            level = grown
        table.paths.update(((src, dst), recs) for dst, recs in found.items() if recs)
    return table
