"""Exhaustive search for a secure code with a smaller key.

The converse of the secure construction says that no linear code with fewer
than r key symbols keeps every set of at most r channels from leaking.
`refute_key_rate` corroborates that on a given network: it exhausts every
linear code of dimension omega + key_dim, checking leakage as the rank gap
`_leakage` computes, and either returns the first secure decodable code or
covers the whole space.  The rank gap and the input-space budget check
`_exhaustive_space` are shared with `oracle`, which imports them from here,
so the search loads neither the oracle's counting nor the secure layer.
"""

from __future__ import annotations

import functools
import itertools
from typing import Hashable, NamedTuple, Sequence

from .errors import BudgetExceeded, SlncError
from .field import Echelon, FieldSpec, combine, in_span, standard_basis
from .lnc import GlobalCode, write_code
from .network import Network

DEFAULT_SEARCH_BUDGET = 10**8


def _exhaustive_space(what: str, q: int, exponent: int, budget: int) -> int:
    """q^exponent, the size of an exhaustive space; BudgetExceeded if that
    passes the budget.  budget < 2^b for b = budget.bit_length(), so every q^k
    with k >= b passes it: at most b factors decide, however large exponent is."""
    space = q ** min(exponent, budget.bit_length())
    if space > budget:
        raise BudgetExceeded(f"{what} {q}^{exponent} exceeds the budget {budget}")
    return space


def _leakage(field: FieldSpec, cols: Sequence[Sequence[int]], omega: int, dim: int) -> int:
    """I(M; Y_A) in log-q units for a channel set whose columns over the
    (message | key) coordinates are cols: with uniform message and key,
    H(Y_A) = rank(F_A) and H(Y_A | M) = rank of its key rows, so the leakage
    is their gap (zero exactly when the message rows lie in the key rows'
    span: the rank form of the Cai-Yeung condition).  One echelon of cols with
    the key coordinates first has rank(key rows) pivots in the key block, so
    the gap is its number of pivots in the message block."""
    echelon = Echelon(field, dim, [col[omega:] + col[:omega] for col in cols])
    return sum(p >= dim - omega for p in echelon.rows)


# -- key-rate refutation -------------------------------------------------------------

class RefutationResult(NamedTuple):
    """Outcome of the exhaustive linear-code search for a smaller key.

    `searched` counts the full assignments covered, pruned subtrees included;
    `visited` counts the channel coefficient tuples explored, one per class.
    """

    searched: int
    witness: GlobalCode | None
    visited: int = 0

    @property
    def verdict(self) -> str:
        return "refuted" if self.witness is None else "counterexample"

    def serialize(self) -> str:
        out = f"searched={self.searched} verdict={self.verdict}\n"
        if self.witness is not None:
            out += write_code(self.witness)
        return out


class _SearchLevel(NamedTuple):
    """One channel of the depth-first search, in topological order: its tail's
    in-channels, the sinks whose last in-channel it is, and its tuple width,
    dim out of the source (the tuple is the kernel) and len(ins) elsewhere."""

    edge_id: str
    ins: list[str]
    sinks: list[list[str]]
    source: bool
    width: int


def _orbit_class(sources: Echelon, kernel: tuple[int, ...], omega: int) -> Hashable:
    """The class of a source kernel f after the source kernels S, spanned key first
    by `sources`: [S|f] and [S|f'] lie in one orbit of G = {[[A, B], [0, D]]}, the
    stabiliser of the message subspace, exactly when f and f' have equal classes.
    As in `_leakage`, the residue's key block is zero iff P.f lies in span(P.S)."""
    residue = sources.reduce(kernel[omega:] + kernel[:omega])
    if not any(residue):
        return (0, kernel)
    return (1, kernel[omega:]) if not any(residue[:len(kernel) - omega]) else (2,)


def refute_key_rate(
    net: Network,
    omega: int,
    r: int,
    key_dim: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> RefutationResult:
    """Exhaust every linear code of dimension omega + key_dim over the network.

    A counterexample is a local-coefficient assignment whose code lets every
    sink recover the message while no channel set of size up to r leaks: each
    has a zero rank gap between its kernels and their key parts.  Returning
    `refuted` means the full assignment space was covered and no such code
    exists, corroborating that key_dim symbols of key are insufficient at
    security level r.

    The search is depth-first over the channels in topological order, trying
    each channel's coefficient tuples in lexicographic order, so the witness
    returned is the first in lexicographic order of the full assignments.  A
    sink is checked once its last in-channel is assigned, each distinct tuple
    of its in-kernels once per search, and a channel whose kernel adds a
    direction (its Echelon.basis() form) to the D before it checks it with
    each min(r - 1, D) of them: leakage depends only on the span and only
    grows with it, so a prefix passes exactly when every set of at most r
    channels in it does.  When a check fails, no completion of the prefix can
    pass, and the subtree is skipped.  Under one prefix, only the first tuple
    of each class is explored: out of a non-source node the class is the
    kernel, and out of the source `_orbit_class`, whose g in G fixes the
    earlier kernels and keeps every check's outcome.  Two tuples of one class
    have subtrees with the same outcomes, so the first passing code is never
    skipped.  `visited` counts the tuples explored; `searched` the full
    assignments covered, skipped subtrees included: q^slots when the search
    refutes, and otherwise the witness's rank in lexicographic order, its
    chained coefficient tuples read as a base-q number, plus 1.
    """
    if omega < 1:
        raise SlncError(f"information rate must be at least 1, got {omega}")
    if key_dim < 0 or key_dim >= r:
        raise SlncError(f"need 0 <= key_dim < r = {r}, got {key_dim}")
    field = net.field
    q = field.q
    dim = omega + key_dim

    # A huge omega or key_dim is refused before anything dim-sized is built.
    topo = net.topo_edges()
    levels = []
    for e in topo:
        ins = [d.id for d in net.in_edges(e.tail)]
        source = e.tail == net.source
        levels.append(_SearchLevel(e.id, ins, [], source, dim if source else len(ins)))
    space = _exhaustive_space("search space", q, sum(level.width for level in levels), budget)

    position = {e.id: j for j, e in enumerate(topo)}
    for t in net.sinks:
        ins = [e.id for e in net.in_edges(t)]
        levels[max(position[eid] for eid in ins)].sinks.append(ins)

    kernels: dict[str, tuple[int, ...]] = {}
    # A sink recovers the message iff e_1..e_omega lie in the span of its kernels;
    # otherwise two inputs differing in M share all its observations.
    message_units = [standard_basis(dim, j) for j in range(omega)]
    direction = functools.cache(lambda kernel: Echelon(field, dim, [kernel]).basis())
    decodes = functools.cache(lambda in_kernels: in_span(field, in_kernels, message_units))
    elements = field.elements()
    visited = 0
    # tries[j] = (channel j's untried tuples, classes tried, earlier directions, source echelon,
    # path: the tuples chosen for channels 0..j-1).
    tries = [(itertools.product(elements, repeat=levels[0].width), set(), (), Echelon(field, dim), ())]
    while tries:
        options, seen, known, sources, path = tries[-1]
        coeffs = next(options, None)
        if coeffs is None:
            tries.pop()
            continue
        level = levels[len(path)]
        kernel = coeffs if level.source else combine(field, coeffs, [kernels[d] for d in level.ins], dim)
        cls = _orbit_class(sources, kernel, omega) if level.source else kernel
        if cls in seen:
            continue
        seen.add(cls)
        visited += 1
        kernels[level.edge_id] = kernel
        new = tuple(line for line in direction(kernel) if line not in known)
        passed = all(decodes(tuple(kernels[eid] for eid in ins)) for ins in level.sinks) and all(
            _leakage(field, [*rest, *new], omega, dim) == 0
            for rest in (itertools.combinations(known, min(r - 1, len(known))) if new else ())
        )
        if not passed:
            continue
        path += (coeffs,)
        if len(path) < len(levels):
            if level.source:
                sources = sources.copy()
                sources.add(kernel[omega:] + kernel[:omega])
            options = itertools.product(elements, repeat=levels[len(path)].width)
            tries.append((options, set(), known + new, sources, path))
            continue

        real_kernels = {e.id: kernels[e.id] for e in net.edges}
        local_coeffs = {
            (d, lv.edge_id): coeff
            for lv, tup in zip(levels, path)
            for d, coeff in zip(lv.ins, tup)
        }
        witness = GlobalCode(
            n=dim, kernels=real_kernels, local_coeffs=local_coeffs, network=net
        )
        rank = functools.reduce(lambda value, coeff: value * q + coeff, itertools.chain(*path), 0)
        return RefutationResult(searched=rank + 1, witness=witness, visited=visited)
    return RefutationResult(searched=space, witness=None, visited=visited)
