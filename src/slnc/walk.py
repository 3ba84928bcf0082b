"""The wiretap-set walk: both wiretap collections and the subset check.

Both wiretap families are downward closed, so their r-sets are walked one
prefix at a time: a prefix of the topology family (sets whose source
min-cut is their size) carries a max-flow, one of the code family (sets
whose kernels are independent) a reduced span.  Of the CLI commands,
only `enumerate` loads this module.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar

from .errors import SecurityLevelTooLarge
from .field import Echelon, FieldSpec
from .flow import _augment, _flow_path, _push, _search, c_min
from .lnc import GlobalCode
from .network import Network

State = TypeVar("State")
Item = TypeVar("Item")
Step = Callable[[State, int], tuple[int, Callable[[int], State]]]


def bit_indices(mask: int) -> list[int]:
    """The indices of the set bits of a nonnegative mask, ascending."""
    indices = []
    while mask:
        low = mask & -mask
        indices.append(low.bit_length() - 1)
        mask ^= low
    return indices


def downward_closed_prefixes(
    items: Sequence[Item], r: int, root: State, step: Step
) -> Iterator[tuple[int, tuple[Item, ...], State]]:
    """(k, prefix, state) per (r-1)-prefix of a downward-closed family, in
    lexicographic order; items[k:] are the prefix's candidate last items.

    The walk is depth-first on one stack.  `step(state, k)` runs once per
    shorter prefix (`root` is the empty one's state) and returns (mask,
    child): bit j of mask is set when items[j], j >= k, extends the prefix
    inside the family, and child(j) builds that set's state.  Every subset of
    a member is a member, so a clear bit skips every set that extends it.
    Only children that still leave room for r - 1 items are built.
    """
    stack = [(0, (), root)]
    while stack:
        start, prefix, state = stack.pop()
        if len(prefix) == r - 1:
            yield start, prefix, state
            continue
        mask, child = step(state, start)
        room = max(len(items) - r + len(prefix) + 1, 0)
        children = [(j + 1, (*prefix, items[j]), child(j)) for j in bit_indices(mask & ((1 << room) - 1))]
        stack += reversed(children)


def downward_closed_subsets(items: Sequence[Item], r: int, family: tuple) -> Iterator[tuple]:
    """The r-subsets of `items` in the family (root, step), in lexicographic
    order.  Each (r-1)-prefix's mask from `step` decides all its last items
    at once, and their states are never built.
    """
    root, step = family
    for k, prefix, state in downward_closed_prefixes(items, r, root, step):
        for j in bit_indices(step(state, k)[0]):
            yield (*prefix, items[j])


def cut_family(net: Network, r: int) -> tuple:
    """Root and `step` of the channel sets whose source min-cut is their size,
    as masks over the channel ids in sorted order.

    The family is downward closed: sending more channels to the target adds
    no path into a prefix P, so mincut(A) <= mincut(P) + |A - P|.  A prefix's
    state is its max-flow of value |P|: arc heads, residual capacities and
    the mask of channels that carry flow.  Adding a channel e leaves a flow
    of value |P| and a cut of at most |P| + 1, so one augmenting path decides,
    and `step` decides every e from one scan of P's residual graph.

    If e carries no flow, mincut(P + e) = |P| + 1 exactly when tail(e) is
    reachable, since every P channel is saturated (an augmenting path must
    end with e), e's reverse arc has no capacity, and a shortest path to
    tail(e) never uses e.  The scan's tree also builds that child: the BFS
    of P + e is P's up to the expansion of tail(e), where only e reaches
    the target, so `_augment` would push e and the tree path to tail(e).

    If e carries flow, its unit now ends at the target, which frees the rest
    of its path.  Every arc that changes starts on that rest, and from any
    of its nodes the freed channels lead to the target, so P + e has an
    augmenting path exactly when the scan reached one of those nodes; the
    child drops the rest and runs `_augment`.
    """
    capacity = c_min(net)
    if not 1 <= r < capacity:
        raise SecurityLevelTooLarge(
            f"security level must satisfy 1 <= r < C_min = {capacity}, got {r}"
        )
    arcs = net._arcs
    target = arcs.target
    out = [sum(1 << (arc >> 1) for arc in node if not arc & 1) for node in arcs.adj]
    out.append(0)  # the target has no channel out

    def step(flow: tuple[list[int], list[int], int], k: int) -> tuple[int, Callable]:
        to, cap, busy = flow
        parent = _search(arcs, to, cap)
        later = -1 << k
        mask = sum(bits for bits, arc in zip(out, parent) if arc is not None) & ~busy & later
        for i in bit_indices(busy & later):
            if any(parent[to[arc ^ 1]] is not None for arc in _flow_path(arcs, to, cap, to[2 * i])):
                mask |= 1 << i

        def child(i: int) -> tuple[list[int], list[int], int]:
            to_i, cap_i = to[:], cap[:]
            to_i[2 * i] = target
            if not busy >> i & 1:
                return to_i, cap_i, busy ^ _push(to_i, cap_i, parent, 2 * i)
            moved = 0
            for arc in _flow_path(arcs, to, cap, to[2 * i]):
                cap_i[arc], cap_i[arc + 1] = 1, 0
                moved ^= 1 << (arc >> 1)
            return to_i, cap_i, busy ^ moved ^ _augment(arcs, to_i, cap_i)

        return mask, child

    return (list(arcs.to), [1, 0] * len(net.edges), 0), step


def enumerate_topology_wiretap_sets(net: Network, r: int) -> tuple[tuple[str, ...], ...]:
    """All size-r channel sets whose source min-cut equals r (topology only),
    as sorted-id tuples in lexicographic order."""
    ids = sorted(e.id for e in net.edges)
    return tuple(downward_closed_subsets(ids, r, cut_family(net, r)))


def enumerate_code_wiretap_sets(code: GlobalCode, r: int) -> tuple[tuple[str, ...], ...]:
    """All size-r channel sets whose kernel matrix has full rank r, as
    sorted-id tuples in lexicographic order."""
    ids = sorted(e.id for e in code.network.edges)
    family = span_family(code.field, code.n, r, [code.kernels[eid] for eid in ids])
    return tuple(downward_closed_subsets(ids, r, family))


def span_family(field: FieldSpec, n: int, r: int, vectors: Sequence[tuple[int, ...]]) -> tuple:
    """Root and `step` of the item sets whose vectors (item j's is vectors[j])
    are independent in GF(q)^n, for walks to size r (checked at once).

    A prefix's state is the reduced basis of its span, and an item extends
    it when its vector reduces to nonzero.  Many prefixes share a span and
    many items a vector (a relay copies its kernel onto every out-channel),
    so each distinct vector is reduced once per distinct span, whose mask is
    kept; a child's basis is built only when the walk asks for it, once per
    (span, vector).
    """
    if not 1 <= r < n:
        raise SecurityLevelTooLarge(f"need 1 <= r < n = {n}, got {r}")
    bits_of: dict[tuple[int, ...], int] = {}  # the mask of the items whose vector is v
    for j, v in enumerate(vectors):
        bits_of[v] = bits_of.get(v, 0) | 1 << j
    spans = {(): Echelon(field, n)}
    masks: dict[tuple[tuple[int, ...], ...], int] = {}
    grown: dict[tuple, tuple[tuple[int, ...], ...]] = {}

    def step(span: tuple[tuple[int, ...], ...], k: int) -> tuple[int, Callable]:
        if span not in masks:
            masks[span] = sum(bits for v, bits in bits_of.items() if any(spans[span].reduce(v)))

        def child(j: int) -> tuple[tuple[int, ...], ...]:
            key = (span, vectors[j])
            if key not in grown:
                echelon = spans[span].copy()
                echelon.add(vectors[j])
                grown[key] = echelon.basis()
                spans.setdefault(grown[key], echelon)
            return grown[key]

        return masks[span] & -1 << k, child

    return (), step


class SubsetBoundReport(NamedTuple):
    """Cross-check of the code collection against the topology collection."""

    subset_holds: bool
    code_count: int
    cut_count: int
    binomial: int

    def serialize(self) -> str:
        flag = "true" if self.subset_holds else "false"
        return f"subset={flag} code={self.code_count} cut={self.cut_count} binom={self.binomial}"


def verify_subset_bound(code: GlobalCode, r: int) -> SubsetBoundReport:
    """Check that the code collection sits inside the topology collection,
    in one walk over both families: a prefix carries its flow and its span,
    each None once the prefix leaves that family, and at each (r-1)-prefix
    the two families' masks of last channels are only counted.  A false
    subset flag signals an implementation bug, never a property of the inputs.
    """
    ids = sorted(e.id for e in code.network.edges)
    span_root, span_step = span_family(code.field, code.n, r, [code.kernels[eid] for eid in ids])
    flow_root, flow_step = cut_family(code.network, r)
    nothing = (0, None)

    def step(state: tuple, k: int) -> tuple[int, Callable]:
        flow, span = state
        cut, flow_child = nothing if flow is None else flow_step(flow, k)
        rank, span_child = nothing if span is None else span_step(span, k)

        def child(j: int) -> tuple:
            return (flow_child(j) if cut >> j & 1 else None, span_child(j) if rank >> j & 1 else None)

        return cut | rank, child

    both = code_only = cut_only = 0
    for k, _, (flow, span) in downward_closed_prefixes(ids, r, (flow_root, span_root), step):
        cut = 0 if flow is None else flow_step(flow, k)[0]
        rank = 0 if span is None else span_step(span, k)[0]
        both += (rank & cut).bit_count()
        code_only += (rank & ~cut).bit_count()
        cut_only += (cut & ~rank).bit_count()
    return SubsetBoundReport(
        subset_holds=not code_only,
        code_count=both + code_only,
        cut_count=both + cut_only,
        binomial=math.comb(len(code.network.edges), r),
    )
