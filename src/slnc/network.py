"""Acyclic single-source multicast multigraphs with named channels.

Covers the line-oriented text format and unit-capacity max-flow, whose
residual search `walk` reuses for the topology wiretap collection.  Every cut is one
flow from the source into a set of channels: a sink's cut is the flow into
its in-channels, an edge-set cut the flow into the set itself.  Flows
explore channels in declaration order so that every derived quantity is
deterministic, and every flow grows along a path from one residual search
over arc arrays built once per network.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    CycleDetected,
    DuplicateEdgeId,
    EmptySet,
    ParseError,
    UnknownEdge,
    UnknownSink,
    UnreachableSink,
)
from .field import FieldSpec


class Edge(NamedTuple):
    id: str
    tail: str
    head: str


class WiretapCollection:
    """A family of same-size channel sets, in lexicographic order of sorted ids.

    kind is "cut" for the topology collection (size-r sets whose min cut
    from the source equals r) and "rank" for the code collection (size-r
    sets whose kernel matrix has rank r).  Equal fields make equal collections.
    """

    def __init__(self, r: int, kind: str, sets: tuple[tuple[str, ...], ...]):
        self.r = r
        self.kind = kind
        self.sets = sets

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.r, self.kind, self.sets) == (other.r, other.kind, other.sets)

    def __hash__(self) -> int:
        return hash((self.r, self.kind, self.sets))

    def __contains__(self, item: Sequence[str]) -> bool:
        return tuple(sorted(item)) in self.sets

    def __len__(self) -> int:
        return len(self.sets)


class Network:
    """Validated acyclic single-source multicast network over GF(q)."""

    def __init__(self, field: FieldSpec, edges: Sequence[Edge], source: str, sinks: Sequence[str]):
        self.field = field
        self.edges: tuple[Edge, ...] = tuple(edges)
        self.source = source
        self.sinks: tuple[str, ...] = tuple(sinks)
        # Nodes in order of first mention: the source, edge endpoints, then sinks.
        ends = (v for e in self.edges for v in (e.tail, e.head))
        self.nodes: tuple[str, ...] = tuple(dict.fromkeys([source, *ends, *self.sinks]))
        self._edge_by_id: dict[str, Edge] = {}
        out: dict[str, list[Edge]] = {v: [] for v in self.nodes}
        into: dict[str, list[Edge]] = {v: [] for v in self.nodes}
        for e in self.edges:
            if e.id in self._edge_by_id:
                raise DuplicateEdgeId(f"channel id {e.id} declared twice")
            if e.id.startswith("__"):
                raise ParseError(f"channel id {e.id} uses the reserved '__' prefix")
            if e.head == source:
                raise ParseError(f"channel {e.id} enters the source node")
            self._edge_by_id[e.id] = e
            out[e.tail].append(e)
            into[e.head].append(e)
        if not self.sinks:
            raise ParseError("at least one sink is required")
        if len(set(self.sinks)) != len(self.sinks):
            raise ParseError("duplicate sink declaration")
        if source in self.sinks:
            raise ParseError("the source cannot be a sink")
        self._in = {v: tuple(es) for v, es in into.items()}

        # One Kahn walk: a node's out-channels leave, in declaration order, when
        # the node does, after every channel into it, so whether the source
        # reaches the node is already known.  A cycle holds channels back.
        waiting = {v: len(es) for v, es in into.items()}
        ready = [v for v in self.nodes if not waiting[v]]
        reached = {source}
        topo: list[Edge] = []
        for v in ready:
            for e in out[v]:
                topo.append(e)
                if v in reached:
                    reached.add(e.head)
                waiting[e.head] -= 1
                if not waiting[e.head]:
                    ready.append(e.head)
        if len(topo) != len(self.edges):
            raise CycleDetected("the channel graph contains a directed cycle")
        for t in self.sinks:
            if t not in reached:
                raise UnreachableSink(f"sink {t} is unreachable from {source}")
        self._topo = tuple(topo)

    # -- access --------------------------------------------------------------

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise UnknownEdge(f"no channel named {edge_id}") from None

    def in_edges(self, node: str) -> tuple[Edge, ...]:
        return self._in.get(node, ())

    @cached_property
    def _arcs(self) -> _Arcs:
        return _Arcs(self)

    def topo_edges(self) -> list[Edge]:
        """Edges by topological position of the tail, then declaration."""
        return list(self._topo)

    def __repr__(self) -> str:
        return (
            f"Network({self.field}, |E|={len(self.edges)}, source={self.source}, "
            f"sinks={list(self.sinks)})"
        )


# -- text format ---------------------------------------------------------------

def text_lines(text: str) -> list[tuple[int, str]]:
    """(line number, content) of each line that holds more than a '#' comment
    and whitespace; the content has its comment and outer whitespace removed."""
    lines = ((lineno, raw.split("#", 1)[0].strip()) for lineno, raw in enumerate(text.splitlines(), 1))
    return [(lineno, line) for lineno, line in lines if line]


def integers(tokens: Sequence[str], error: str) -> tuple[int, ...]:
    """The tokens as integers; ParseError(error) unless each is the text `str`
    writes for its integer, so `+1`, `01`, `-0`, `0_0` and non-ASCII digits fail."""
    try:
        values = tuple(map(int, tokens))
        if tuple(map(str, values)) == tuple(tokens):
            return values
    except ValueError:
        pass
    raise ParseError(error)


# Each keyword of the network format: its argument count, and whether at most
# one line may use it.
NETWORK_KEYWORDS = {"field": (1, True), "source": (1, True), "sink": (1, False), "edge": (3, False)}


def parse_network(text: str) -> Network:
    """Parse the line-oriented network format.

    Lines hold whitespace-separated tokens; '#' starts a comment.  Exactly
    one `field q` and one `source s` line are required, plus at least one
    `sink t` line and any number of `edge id tail head` lines.
    """
    found: dict[str, list[Sequence]] = {keyword: [] for keyword in NETWORK_KEYWORDS}
    for lineno, line in text_lines(text):
        keyword, *args = line.split()
        if keyword not in NETWORK_KEYWORDS:
            raise ParseError(f"line {lineno}: unknown keyword {keyword!r}")
        count, once = NETWORK_KEYWORDS[keyword]
        if len(args) != count:
            takes = "id, tail, head" if keyword == "edge" else "one argument"
            raise ParseError(f"line {lineno}: {keyword} takes {takes}")
        if once and found[keyword]:
            raise ParseError(f"line {lineno}: duplicate {keyword} line")
        if keyword == "field":
            args = integers(args, f"line {lineno}: field size must be an integer")
        found[keyword].append(args)
    for keyword in ("field", "source", "sink"):
        if not found[keyword]:
            raise ParseError(f"missing {keyword} line")
    try:
        field = FieldSpec(found["field"][0][0])
    except ValueError as exc:
        raise ParseError(f"bad field size: {exc}") from None
    sinks = [t for (t,) in found["sink"]]
    return Network(field, [Edge(*args) for args in found["edge"]], found["source"][0][0], sinks)


def serialize_network(net: Network) -> str:
    lines = [f"field {net.field.q}", f"source {net.source}"]
    lines += [f"sink {t}" for t in net.sinks]
    lines += [f"edge {e.id} {e.tail} {e.head}" for e in net.edges]
    return "\n".join(lines) + "\n"


# -- unit-capacity max-flow ------------------------------------------------------

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
        raise UnknownSink(f"{t} is not a declared sink")
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
        raise ValueError(f"only {reached} edge-disjoint paths to {t}, need {count}")
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
        raise EmptySet("the wiretapped channel set must be nonempty")
    for eid in ids:
        net.edge(eid)  # raises UnknownEdge
    return _unit_flow(net, set(ids))[0]
