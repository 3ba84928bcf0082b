"""Linear network codes: global kernels, local coefficients, and their checks.

A channel's kernel is its local coefficients times its tail's in-kernels.
The source has no in-channels; its n unit vectors stand in for them, so a
channel out of the source has its coefficient vector as its kernel and no
local coefficients.

The construction follows the deterministic flow-path method: fix edge-disjoint
source-to-sink paths per sink, walk edges in topological order, and give each
coded edge the lexicographically smallest local-coefficient assignment that
keeps every sink's frontier kernels at full rank.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import FieldTooSmall, ParseError, SlncError
from .field import Echelon, FieldSpec, combine, first_outside, rank_of_rows, standard_basis
from .network import Network, integers, text_lines

class GlobalCode(NamedTuple):
    """An n-dimensional linear code: kernel f_e per channel plus local coefficients.

    `local_coeffs` maps a pair (d, e) of adjacent channels, d into the tail
    of e, to e's coefficient on d.  A channel out of the source has none:
    its kernel is its coefficient vector.
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
    from .flow import c_min, edge_disjoint_paths

    if n < 1:
        raise SlncError("code dimension must be at least 1")
    capacity = c_min(net)
    if n > capacity:
        raise SlncError(f"dimension {n} exceeds C_min = {capacity}")
    field = net.field
    if field.q < len(net.sinks):
        raise FieldTooSmall(
            f"flow-path construction needs q >= |T|; q={field.q}, |T|={len(net.sinks)}"
        )

    units = [standard_basis(n, j) for j in range(n)]
    kernels: dict[str, tuple[int, ...]] = {}
    on_path: dict[str, list[tuple[str, int]]] = {}
    for t in net.sinks:
        for j, path in enumerate(edge_disjoint_paths(net, t, n)):
            for eid in path:
                on_path.setdefault(eid, []).append((t, j))
    frontier = {t: list(units) for t in net.sinks}

    local_coeffs: dict[tuple[str, str], int] = {}
    for edge in net.topo_edges():
        tail_in = [d.id for d in net.in_edges(edge.tail)]
        uses = on_path.get(edge.id, ())
        tail_kernels = units if edge.tail == net.source else [kernels[d] for d in tail_in]
        # Each frontier has rank n, so f may take slot j exactly when it lies
        # outside the hyperplane spanned by the slot's n - 1 other kernels.
        # An edge on no flow path avoids no space, so it gets the all-zero tuple.
        others = [
            Echelon(field, n, [f for idx, f in enumerate(frontier[t]) if idx != j])
            for t, j in uses
        ]
        assignment = first_outside(field, tail_kernels, others)
        if assignment is None:  # q >= |T| rules this out (the flow-path feasibility argument)
            raise FieldTooSmall(
                f"the flow-path construction found no coefficients for channel {edge.id} "
                f"over GF({field.q}); this does not show that no code exists"
            )
        f = combine(field, assignment, tail_kernels, n)
        for coeff, d in zip(assignment, tail_in):
            local_coeffs[(d, edge.id)] = coeff
        kernels[edge.id] = f
        for t, j in uses:
            frontier[t][j] = f

    real_kernels = {e.id: kernels[e.id] for e in net.edges}  # declaration order
    return GlobalCode(n=n, kernels=real_kernels, local_coeffs=local_coeffs, network=net)


# -- validity -------------------------------------------------------------------

class CodeValidityReport(NamedTuple):
    """Every violated code invariant; empty report means the code is valid."""

    recursion_violations: dict[str, tuple[int, ...]]
    sink_rank_deficits: dict[str, int]


def _recursion_violations(code: GlobalCode) -> dict[str, tuple[int, ...]]:
    """Stored kernel minus the local-coefficient combination, per offending
    edge out of a non-source node."""
    field = code.field
    net = code.network
    violations: dict[str, tuple[int, ...]] = {}
    for edge in net.edges:
        if edge.tail == net.source:
            continue  # its kernel is its coefficient vector
        ins = [d.id for d in net.in_edges(edge.tail)]
        expected = combine(
            field,
            [code.local_coeffs.get((d, edge.id), 0) for d in ins],
            [code.kernels[d] for d in ins],
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
    edge, and the rank deficit per undecodable sink.  A channel out of the
    source is never reported, since its kernel is its coefficient vector.
    """
    net = code.network
    deficits: dict[str, int] = {}
    for t in net.sinks:
        rank = rank_of_rows(code.field, [code.kernels[e.id] for e in net.in_edges(t)])
        if rank < code.n:
            deficits[t] = code.n - rank
    return CodeValidityReport(_recursion_violations(code), deficits)


# -- text format ------------------------------------------------------------------

def write_code(code: GlobalCode) -> str:
    """The `code n= q=` header, then kernel and local lines in network declaration order."""
    net = code.network
    lines = [f"code n={code.n} q={code.field.q}"]
    lines += [" ".join(["kernel", e.id, *map(str, code.kernels[e.id])]) for e in net.edges]
    for e in net.edges:
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


def _code_header(line: str) -> tuple[int, int]:
    """The n and q of a `code n= q=` line; n must be at least 1."""
    n, q = _parse_header(line, "code", ("n", "q"))
    if n < 1:
        raise ParseError(f"bad code dimension {n}")
    return n, q


# The keywords of a code file's lines: its one header, then the body.
CODE_KEYWORDS = ("code", "kernel", "local")


def parse_code(text: str, net: Network) -> GlobalCode:
    """Parse a code file for a known network; every kernel must match its local coefficients."""
    lines = [line for _, line in text_lines(text)]
    headers = [line for line in lines if line.split()[0] == "code"]
    if len(headers) != 1:
        raise ParseError("duplicate code header" if headers else "missing code header")
    n, q = _code_header(headers[0])
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
    code = GlobalCode(n=n, kernels=kernels, local_coeffs=local_coeffs, network=net)
    violations = _recursion_violations(code)
    if violations:
        raise ParseError(
            f"kernels disagree with the local coefficients on: {', '.join(violations)}"
        )
    return code
