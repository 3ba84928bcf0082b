"""Unit-capacity max-flow from a network's source.

Every cut is one flow from the source into a set of channels: a sink's cut is
the flow into its in-channels, an edge-set cut the flow into the set itself.
Flows explore channels in declaration order so that every derived quantity is
deterministic, and every flow grows along a path from one residual search over
arc arrays built once per network (`Network._arcs`).  `walk` reuses that
search for the topology wiretap collection.  Of the CLI commands, `verify`,
`refute`, `simulate` and `hancheck` never load this module.
"""

from __future__ import annotations

from typing import Iterable

from .errors import SlncError
from .network import Network


class _Arcs:
    """A network's flow arcs, built once.

    Nodes are their indices in `Network.nodes`, and the target that flows
    end at is one more node after them.  Channel i is the i-th channel id in
    sorted order, so a bit mask by channel index lists channels in
    lexicographic order; it is arc 2i (capacity 1, in its tail's list) and
    reverse arc 2i + 1 (in its head's list).  The lists follow declaration
    order, so BFS finds the same augmenting paths on every run.  A flow owns
    a copy of `to` in which the channels it sends to the target have to[2i]
    set to it; their reverse arcs stay in the head's list, where `_search`
    skips them.
    """

    __slots__ = ("adj", "to", "source", "target", "ids", "channel")

    def __init__(self, net: Network):
        node = {v: k for k, v in enumerate(net.nodes)}
        self.ids = tuple(sorted(e.id for e in net.edges))
        self.channel = {eid: i for i, eid in enumerate(self.ids)}
        adj: list[list[int]] = [[] for _ in net.nodes]
        to = [0] * (2 * len(self.ids))
        for e in net.edges:
            i = self.channel[e.id]
            adj[node[e.tail]].append(2 * i)
            adj[node[e.head]].append(2 * i + 1)
            to[2 * i : 2 * i + 2] = node[e.head], node[e.tail]
        self.adj = tuple(map(tuple, adj))
        self.to = tuple(to)
        self.source = node[net.source]
        self.target = len(net.nodes)


def _search(arcs: _Arcs, to: list[int], cap: list[int]) -> list[int | None]:
    """Each node's parent arc in the BFS of the residual graph from the source
    (-1 at the source, None where unreached), stopping at the target.

    An arc is usable when it has residual capacity and starts at the node
    being expanded: the reverse arc of a channel redirected to the target
    starts at the target, which is never expanded.
    """
    adj, source, target = arcs.adj, arcs.source, arcs.target
    parent: list[int | None] = [None] * (target + 1)
    parent[source] = -1
    queue = [source]
    for u in queue:
        for arc in adj[u]:
            v = to[arc]
            if cap[arc] and parent[v] is None and to[arc ^ 1] == u:
                parent[v] = arc
                if v == target:
                    return parent
                queue.append(v)
    return parent


def _push(to: list[int], cap: list[int], parent: list[int | None], arc: int) -> int:
    """Send one unit along `arc` and the search-tree path to its start; the
    channels whose flow this changes, as a bit mask by channel index."""
    moved = 0
    while arc != -1:
        cap[arc] -= 1
        cap[arc ^ 1] += 1
        moved ^= 1 << (arc >> 1)
        arc = parent[to[arc ^ 1]]
    return moved


def _augment(arcs: _Arcs, to: list[int], cap: list[int]) -> int:
    """Push one unit along the first BFS path to the target; the channels
    whose flow changed, as `_push` gives them, or 0, changing nothing, if none."""
    parent = _search(arcs, to, cap)
    if parent[arcs.target] is None:
        return 0
    return _push(to, cap, parent, parent[arcs.target])


def _flow_path(arcs: _Arcs, to: list[int], cap: list[int], node: int) -> list[int]:
    """The arcs of a flow-carrying path from `node` to the target, each its
    tail's first flow-carrying out-channel (the graph is acyclic)."""
    path = []
    while node != arcs.target:
        arc = next(a for a in arcs.adj[node] if not (a & 1 or cap[a]))
        path.append(arc)
        node = to[arc]
    return path


def _unit_flow(net: Network, into: set[str], limit: int | None = None) -> tuple[int, list[int], list[int]]:
    """Max-flow from the source when every channel in `into` ends at one target.

    The flow stops at `limit`, and at len(into), which no flow can pass.
    Returns the flow value, the arc heads and the residual capacities:
    channel i carries flow exactly when arc 2i reads 0.
    """
    arcs = net._arcs
    to = list(arcs.to)
    for eid in into:
        to[2 * arcs.channel[eid]] = arcs.target
    cap = [1, 0] * len(net.edges)
    goal = len(into) if limit is None else min(limit, len(into))
    value = 0
    while value < goal and _augment(arcs, to, cap):
        value += 1
    return value, to, cap


def _sink_in_ids(net: Network, t: str) -> set[str]:
    if t not in net.sinks:
        raise SlncError(f"{t} is not a declared sink")
    return {e.id for e in net.in_edges(t)}


def min_cut_to_sink(net: Network, t: str) -> int:
    """Maximum number of edge-disjoint source-to-sink paths (= min cut size)."""
    return _unit_flow(net, _sink_in_ids(net, t))[0]


def c_min(net: Network) -> int:
    """Multicast capacity: the smallest sink min-cut."""
    return min(min_cut_to_sink(net, t) for t in net.sinks)


def edge_disjoint_paths(net: Network, t: str, count: int) -> list[list[str]]:
    """The first `count` edge-disjoint source-to-t paths of the deterministic flow.

    Paths are extracted by walking flow-carrying channels in declaration
    order, so repeated runs yield identical path lists.
    """
    reached, to, cap = _unit_flow(net, _sink_in_ids(net, t), limit=count)
    if reached < count:
        raise SlncError(f"only {reached} edge-disjoint paths to {t}, need {count}")
    arcs = net._arcs
    paths: list[list[str]] = []
    for _ in range(count):
        path = _flow_path(arcs, to, cap, arcs.source)
        for arc in path:
            cap[arc] = 1  # walked: its capacity returns, so the next path takes another
        paths.append([arcs.ids[arc >> 1] for arc in path])
    return paths


def min_cut_to_edges(net: Network, edge_ids: Iterable[str]) -> int:
    """Min cut between the source and a channel set.

    The value is the max-flow from the source when every channel in the set
    ends at one target instead of at its head.  That is exact: cutting each
    flow path at its first channel in the set keeps the paths disjoint, so
    letting a flow pass through a wiretapped channel would add nothing.
    """
    ids = list(edge_ids)
    if not ids:
        raise SlncError("the wiretapped channel set must be nonempty")
    for eid in ids:
        net.edge(eid)  # raises SlncError for an unknown id
    return _unit_flow(net, set(ids))[0]
