"""Acyclic single-source multicast multigraphs with named channels.

Covers the validated network and its line-oriented text format.  The
unit-capacity max-flow lives in `flow`; a network builds its flow arcs
(`Network._arcs`) only when a flow first runs, so commands that run none
never load `flow`.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import ParseError, SlncError
from .field import FieldSpec

if TYPE_CHECKING:
    from .flow import _Arcs


class Edge(NamedTuple):
    id: str
    tail: str
    head: str


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
                raise ParseError(f"channel id {e.id} declared twice")
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
            raise ParseError("the channel graph contains a directed cycle")
        for t in self.sinks:
            if t not in reached:
                raise ParseError(f"sink {t} is unreachable from {source}")
        self._topo = tuple(topo)

    # -- access --------------------------------------------------------------

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise SlncError(f"no channel named {edge_id}") from None

    def in_edges(self, node: str) -> tuple[Edge, ...]:
        return self._in.get(node, ())

    @cached_property
    def _arcs(self) -> _Arcs:
        from .flow import _Arcs

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
    except SlncError as exc:
        raise ParseError(f"bad field size: {exc}") from None
    sinks = [t for (t,) in found["sink"]]
    return Network(field, [Edge(*args) for args in found["edge"]], found["source"][0][0], sinks)


def serialize_network(net: Network) -> str:
    lines = [f"field {net.field.q}", f"source {net.source}"]
    lines += [f"sink {t}" for t in net.sinks]
    lines += [f"edge {e.id} {e.tail} {e.head}" for e in net.edges]
    return "\n".join(lines) + "\n"
