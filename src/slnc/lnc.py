"""Linear network codes: global kernels, local coefficients, and their checks.

The construction follows the deterministic flow-path method: fix edge-disjoint
source-to-sink paths per sink, walk edges in topological order, and give each
coded edge the lexicographically smallest local-coefficient assignment that
keeps every sink's frontier kernels at full rank.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

from .errors import (
    DimensionExceedsCapacity,
    FieldTooSmallForSinks,
    ParseError,
    SecurityLevelTooLarge,
)
from .field import Echelon, FieldSpec, combine, first_outside, rank_of_rows, standard_basis
from .network import (
    Network,
    WiretapCollection,
    c_min,
    cut_family,
    downward_closed_prefixes,
    downward_closed_subsets,
    edge_disjoint_paths,
    integers,
    text_lines,
)

IMAGINARY_PREFIX = "__s_"


def imaginary_ids(n: int) -> list[str]:
    """Ids of the n imaginary source-input channels (never serialized)."""
    return [f"{IMAGINARY_PREFIX}{j + 1}" for j in range(n)]


def imaginary_kernels(n: int) -> dict[str, tuple[int, ...]]:
    """The imaginary input channels' kernels: the standard basis, in order."""
    return {d: standard_basis(n, j) for j, d in enumerate(imaginary_ids(n))}


def in_channel_ids(net: Network, n: int, node: str) -> list[str]:
    """Incoming channel ids at a node; the source sees the n imaginary inputs."""
    if node == net.source:
        return imaginary_ids(n)
    return [e.id for e in net.in_edges(node)]


class GlobalCode(NamedTuple):
    """An n-dimensional linear code: kernel f_e per channel plus local coefficients.

    `kernels` holds the real channels only; the imaginary input channels'
    kernels are the standard basis, which `imaginary_kernels(n)` supplies.
    """

    n: int
    kernels: dict[str, tuple[int, ...]]
    local_coeffs: dict[tuple[str, str], int]
    network: Network

    @property
    def field(self) -> FieldSpec:
        return self.network.field


def construct_lnc(net: Network, n: int) -> GlobalCode:
    """Build an n-dimensional decodable code on the network, deterministically.

    Requires n <= C_min and q >= |T|.  Every edge takes the lexicographic
    coefficient search; an edge on no flow path meets no constraint, so it
    gets the all-zero tuple and kernel.  Identical inputs reproduce identical
    codes byte for byte.
    """
    if n < 1:
        raise ValueError("code dimension must be at least 1")
    capacity = c_min(net)
    if n > capacity:
        raise DimensionExceedsCapacity(f"dimension {n} exceeds C_min = {capacity}")
    field = net.field
    if field.q < len(net.sinks):
        raise FieldTooSmallForSinks(
            f"flow-path construction needs q >= |T|; q={field.q}, |T|={len(net.sinks)}"
        )

    kernels = imaginary_kernels(n)
    on_path: dict[str, list[tuple[str, int]]] = {}
    for t in net.sinks:
        for j, path in enumerate(edge_disjoint_paths(net, t, n)):
            for eid in path:
                on_path.setdefault(eid, []).append((t, j))
    frontier: dict[str, list[str]] = {t: imaginary_ids(n) for t in net.sinks}

    local_coeffs: dict[tuple[str, str], int] = {}
    for edge in net.topo_edges():
        tail_in = in_channel_ids(net, n, edge.tail)
        uses = on_path.get(edge.id, ())
        tail_kernels = [kernels[d] for d in tail_in]
        # Each frontier has rank n, so f may take slot j exactly when it lies
        # outside the hyperplane spanned by the slot's n - 1 other kernels.
        # An edge on no flow path avoids no space, so it gets the all-zero tuple.
        others = [
            Echelon(field, n, [kernels[d] for idx, d in enumerate(frontier[t]) if idx != j])
            for t, j in uses
        ]
        assignment = first_outside(field, tail_kernels, others)
        if assignment is None:  # q >= |T| rules this out (the flow-path feasibility argument)
            raise FieldTooSmallForSinks(
                f"the flow-path construction found no coefficients for channel {edge.id} "
                f"over GF({field.q}); this does not show that no code exists"
            )
        f = combine(field, assignment, tail_kernels, n)
        for coeff, d in zip(assignment, tail_in):
            local_coeffs[(d, edge.id)] = coeff
        kernels[edge.id] = f
        for t, j in uses:
            frontier[t][j] = edge.id

    real_kernels = {e.id: kernels[e.id] for e in net.edges}
    return GlobalCode(n=n, kernels=real_kernels, local_coeffs=local_coeffs, network=net)


# -- validity -------------------------------------------------------------------

class CodeValidityReport(NamedTuple):
    """Every violated code invariant; empty report means the code is valid."""

    recursion_violations: dict[str, tuple[int, ...]]
    sink_rank_deficits: dict[str, int]

    @property
    def ok(self) -> bool:
        return not self.recursion_violations and not self.sink_rank_deficits


def _recursion_violations(code: GlobalCode) -> dict[str, tuple[int, ...]]:
    """Stored kernel minus the local-coefficient combination, per offending edge."""
    field = code.field
    kernels = imaginary_kernels(code.n) | code.kernels
    violations: dict[str, tuple[int, ...]] = {}
    for edge in code.network.edges:
        ins = in_channel_ids(code.network, code.n, edge.tail)
        expected = combine(
            field,
            [code.local_coeffs.get((d, edge.id), 0) for d in ins],
            [kernels[d] for d in ins],
            code.n,
        )
        actual = code.kernels[edge.id]
        if actual != expected:
            violations[edge.id] = tuple(field.sub(a, b) for a, b in zip(actual, expected))
    return violations


def check_code_validity(code: GlobalCode) -> CodeValidityReport:
    """Recompute every kernel from the local coefficients and rank every sink.

    Violations are reported as data, not raised: the recursion residual
    (stored kernel minus the local-coefficient combination) per offending
    edge, and the rank deficit per undecodable sink.
    """
    net = code.network
    deficits: dict[str, int] = {}
    for t in net.sinks:
        rank = rank_of_rows(code.field, [code.kernels[e.id] for e in net.in_edges(t)])
        if rank < code.n:
            deficits[t] = code.n - rank
    return CodeValidityReport(_recursion_violations(code), deficits)


# -- wiretap collections ----------------------------------------------------------

def enumerate_code_wiretap_sets(code: GlobalCode, r: int) -> WiretapCollection:
    """All size-r channel sets whose kernel matrix has full rank r."""
    ids = sorted(e.id for e in code.network.edges)
    family = span_family(code.field, code.n, r, [code.kernels[eid] for eid in ids])
    return WiretapCollection(r=r, kind="rank", sets=tuple(downward_closed_subsets(ids, r, family)))


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


# -- text format ------------------------------------------------------------------

def write_code(code: GlobalCode) -> str:
    """The `code n= q=` header, then kernel and local lines in network declaration order."""
    net = code.network
    lines = [f"code n={code.n} q={code.field.q}"]
    lines += [" ".join(["kernel", e.id, *map(str, code.kernels[e.id])]) for e in net.edges]
    for e in net.edges:
        if e.tail == net.source:
            continue  # imaginary-channel coefficients are implied by the kernel
        for d in net.in_edges(e.tail):
            lines.append(f"local {d.id} {e.id} {code.local_coeffs.get((d.id, e.id), 0)}")
    return "\n".join(lines) + "\n"


def _parse_header(line: str, keyword: str, keys: tuple[str, ...]) -> tuple[int, ...]:
    """The values, in the order of `keys`, of a `keyword key=value ...` line
    that gives each key exactly once, as a nonnegative integer."""
    tokens = line.split()
    values: dict[str, int] = {}
    for tok in tokens[1:]:
        key, _, val = tok.partition("=")
        (values[key],) = integers([val], f"bad {keyword} header token {tok!r}")
    if (
        len(tokens) != 1 + len(keys)
        or set(values) != set(keys)
        or min(values.values()) < 0
    ):
        spec = ", ".join(f"{key}=" for key in keys)
        raise ParseError(f"{keyword} header needs {spec} each once and none negative: {line!r}")
    return tuple(values[key] for key in keys)


# The keywords of a code file's lines: its one header, then the body.
CODE_KEYWORDS = ("code", "kernel", "local")


def parse_code(text: str, net: Network) -> GlobalCode:
    """Parse a code file for a known network; every kernel must match its local coefficients."""
    lines = [line for _, line in text_lines(text)]
    headers = [line for line in lines if line.split()[0] == "code"]
    if len(headers) != 1:
        raise ParseError("duplicate code header" if headers else "missing code header")
    n, q = _parse_header(headers[0], "code", ("n", "q"))
    if n < 1:
        raise ParseError(f"bad code dimension {n}")
    if q != net.field.q:
        raise ParseError(f"code field q={q} does not match network field q={net.field.q}")
    field = net.field
    kernels: dict[str, tuple[int, ...]] = {}
    local_coeffs: dict[tuple[str, str], int] = {}
    for line in lines:
        tokens = line.split()
        if tokens[0] not in CODE_KEYWORDS:
            raise ParseError(f"unexpected line in code body: {line!r}")
        if tokens[0] == "kernel":
            if len(tokens) != 2 + n:
                raise ParseError(f"kernel line needs {n} entries: {line!r}")
            eid = tokens[1]
            net.edge(eid)
            if eid in kernels:
                raise ParseError(f"duplicate kernel for {eid}")
            entries = integers(tokens[2:], f"non-integer kernel entry: {line!r}")
            kernels[eid] = tuple(field.check(x) for x in entries)
        elif tokens[0] == "local":
            if len(tokens) != 4:
                raise ParseError(f"local line needs d, e, k: {line!r}")
            d_id, e_id = tokens[1], tokens[2]
            if d_id.startswith(IMAGINARY_PREFIX):
                raise ParseError("imaginary-channel coefficients are never serialized")
            d, e = net.edge(d_id), net.edge(e_id)
            if d.head != e.tail:
                raise ParseError(f"channels {d_id} and {e_id} are not adjacent")
            if (d_id, e_id) in local_coeffs:
                raise ParseError(f"duplicate local line for {d_id} {e_id}")
            (coeff,) = integers(tokens[3:], f"non-integer coefficient: {line!r}")
            local_coeffs[(d_id, e_id)] = field.check(coeff)
    missing = [e.id for e in net.edges if e.id not in kernels]
    if missing:
        raise ParseError(f"missing kernel lines for: {', '.join(missing)}")
    for e in net.edges:
        if e.tail == net.source:
            for j, d in enumerate(imaginary_ids(n)):
                local_coeffs[(d, e.id)] = kernels[e.id][j]
    code = GlobalCode(n=n, kernels=kernels, local_coeffs=local_coeffs, network=net)
    violations = _recursion_violations(code)
    if violations:
        raise ParseError(
            f"kernels disagree with the local coefficients on: {', '.join(violations)}"
        )
    return code
