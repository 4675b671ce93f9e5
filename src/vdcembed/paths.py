"""Candidate substrate paths between node pairs, with stable indexing."""

from __future__ import annotations

from .errors import InvalidParameterError, PathLookupError
from .topology import SubstrateNetwork

DEFAULT_MAX_HOPS = 4


# One simple path as a plain tuple: (node sequence, edge ids, cached delay).
# A tuple of strings and ints is untracked by the garbage collector at its
# first collection, which a tuple subclass never is, so a large table costs
# full collections nothing once filled.
PathRecord = tuple[tuple[str, ...], tuple[str, ...], int]


class PathTable:
    """All simple paths of length <= max_len per admitted ordered node pair,
    each pair enumerated on its first lookup and kept.

    Paths per pair are in index order, (hop count, edge-id sequence), so the
    index of a path is stable across identically built tables, whichever
    pairs were looked up before.
    """

    def __init__(self, net: SubstrateNetwork, max_len: int, pair_filter):
        self.net, self.max_len, self.admit = net, max_len, pair_filter
        # node -> (link id, far end, delay, whether the far end has another link)
        self.hops = {
            node: sorted(
                (lid, nxt, net.links[lid].delay, len(net.adjacency[nxt]) > 1) for nxt, lid in adj
            )
            for node, adj in net.adjacency.items()
        }
        # every pair looked up so far, those without paths too
        self.paths: dict[tuple[str, str], list[PathRecord]] = {}

    def pairs(self) -> list[tuple[str, str]]:
        """The pairs looked up so far that hold at least one path, in lookup
        order; a pair never looked up is not listed, admitted or not."""
        return [pair for pair, recs in self.paths.items() if recs]

    def get(self, a: str, b: str) -> list[PathRecord]:
        """a->b's paths in index order, enumerated on the first lookup; []
        for a pair the filter does not admit, an unknown node or a == b."""
        recs = self.paths.get((a, b))
        if recs is None:
            recs = self.paths[a, b] = self._enumerate(a, b)
        return recs

    def path(self, a: str, b: str, n: int) -> PathRecord:
        recs = self.get(a, b)
        if not recs:
            raise PathLookupError(f"no paths recorded for pair ({a}, {b})")
        if not 0 <= n < len(recs):
            raise PathLookupError(f"pair ({a}, {b}) has {len(recs)} paths, index {n} unknown")
        return recs[n]

    def _enumerate(self, a: str, b: str) -> list[PathRecord]:
        """Paths grow one hop per level from a: a level's parents are in
        creation order and each extends over its links in id order, so the
        list comes out in index order. A path is kept when it ends at b and
        grown when its end has another link and is at most the levels left
        from b; dropping the others reorders none of those kept."""
        hops = self.hops
        if a == b or a not in hops or b not in hops or not self.admit(a, b):
            return []
        to_b = self.net.hop_distances_from(b)
        found = []
        level = [((a,), (), 0)]
        for remaining in range(self.max_len - 1, -1, -1):
            grown = []
            for nodes, edges, delay in level:
                for lid, nxt, hop_delay, forks in hops[nodes[-1]]:
                    if nxt == b:
                        found.append((nodes + (nxt,), edges + (lid,), delay + hop_delay))
                    elif forks and to_b.get(nxt, remaining + 1) <= remaining and nxt not in nodes:
                        grown.append((nodes + (nxt,), edges + (lid,), delay + hop_delay))
            level = grown
        return found


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
    """A table of every simple path of length <= max_len per admitted pair.

    No pair is enumerated here: the table enumerates a pair when it is first
    looked up. So pair_filter, called then, once per pair, must be pure: its
    answer for a pair may not depend on when it is asked.
    """
    if max_len < 1:
        raise InvalidParameterError(f"max_len must be >= 1, got {max_len}")
    return PathTable(net, max_len, pair_filter or default_pair_filter(net))
