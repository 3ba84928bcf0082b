"""Independent brute-force verification of secure bundles.

Nothing here trusts the construction: wiretap observation distributions are
enumerated exactly over all message/key inputs, perfect security is decided
by exact count-table equality (never floating point), and the algebraic
rank criterion provides a second, independent route to the same verdict.
The refutation search exhausts every linear code of a given dimension to
corroborate that smaller key rates cannot work.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import (
    BudgetExceeded,
    EmptySet,
    InconsistentObservation,
    InvalidKeyDim,
    MonotonicityViolated,
    NotADistribution,
    Singular,
)
from .field import combine, in_span
from .lnc import GlobalCode, imaginary_ids, standard_basis
from .network import Network
from .secure import SecureCodeBundle, decode_at_sink, encode_source

_MI_TOLERANCE = 1e-9
DEFAULT_ENUM_BUDGET = 10**7
DEFAULT_SEARCH_BUDGET = 10**8


# -- exact observation distributions ---------------------------------------------

@dataclass(frozen=True)
class JointDistribution:
    """Exact joint counts of (message, wiretap observation) over all inputs."""

    q: int
    omega: int
    key_dim: int
    edge_ids: tuple[str, ...]
    counts: Mapping[tuple[tuple[int, ...], tuple[int, ...]], int]

    @property
    def message_alphabet(self) -> int:
        return self.q**self.omega

    @property
    def arity(self) -> int:
        return len(self.edge_ids)

    def total(self) -> int:
        return sum(self.counts.values())


def _input_space(bundle: SecureCodeBundle) -> Iterable[tuple[tuple[int, ...], tuple[int, ...]]]:
    elems = bundle.field.elements()
    for m in itertools.product(elems, repeat=bundle.omega):
        for k in itertools.product(elems, repeat=bundle.key_dim):
            yield m, k


def _check_enum_budget(bundle: SecureCodeBundle, budget: int) -> None:
    space = bundle.field.q ** (bundle.omega + bundle.key_dim)
    if space > budget:
        raise BudgetExceeded(f"input space {space} exceeds the budget {budget}")


def observation_distribution(
    bundle: SecureCodeBundle, edge_ids: Sequence[str], budget: int = DEFAULT_ENUM_BUDGET
) -> JointDistribution:
    """Enumerate every (message, key) input and count wiretap observations."""
    _check_enum_budget(bundle, budget)
    ids = tuple(sorted(edge_ids))
    for eid in ids:
        bundle.network.edge(eid)
    counts: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for m, k in _input_space(bundle):
        symbols = encode_source(bundle, m, k)
        y = tuple(symbols[eid] for eid in ids)
        counts[(m, y)] = counts.get((m, y), 0) + 1
    return JointDistribution(
        q=bundle.field.q,
        omega=bundle.omega,
        key_dim=bundle.key_dim,
        edge_ids=ids,
        counts=counts,
    )


def _entropy_from_counts(counts: Iterable[int], total: int) -> float:
    # H = log(total) - (1/total) * sum c log c, in nats.
    acc = 0.0
    for c in counts:
        if c:
            acc += c * math.log(c)
    return math.log(total) - acc / total


def mutual_information(dist: JointDistribution) -> float:
    """I(M; Y) in log-q units, computed from exact counts."""
    total = dist.total()
    if total == 0:
        raise NotADistribution("empty count table")
    m_counts: dict[tuple[int, ...], int] = {}
    y_counts: dict[tuple[int, ...], int] = {}
    for (m, y), c in dist.counts.items():
        m_counts[m] = m_counts.get(m, 0) + c
        y_counts[y] = y_counts.get(y, 0) + c
    h_m = _entropy_from_counts(m_counts.values(), total)
    h_y = _entropy_from_counts(y_counts.values(), total)
    h_my = _entropy_from_counts(dist.counts.values(), total)
    return (h_m + h_y - h_my) / math.log(dist.q)


def _conditional_tables(
    dist: JointDistribution,
) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    tables: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for (m, y), c in dist.counts.items():
        tables.setdefault(m, {})[y] = c
    return tables


def perfectly_secure(dist: JointDistribution) -> bool:
    """Exact test: the observation count table is identical for every message."""
    tables = _conditional_tables(dist)
    reference: dict[tuple[int, ...], int] | None = None
    for table in tables.values():
        if reference is None:
            reference = table
        elif table != reference:
            return False
    return True


# -- security reports --------------------------------------------------------------

@dataclass
class SecurityReport:
    """Per-wiretap-set leakage results plus the decode round-trip outcome."""

    r: int
    i: int
    results: list[tuple[tuple[str, ...], float, bool]]
    worst_set: tuple[str, ...]
    max_mi: float
    secure: bool
    decode_ok: bool
    decode_detail: str = ""

    def serialize(self) -> str:
        lines = [
            f"set {','.join(A)} mi={mi:.9f} {'pass' if ok else 'fail'}"
            for A, mi, ok in self.results
        ]
        verdict = "pass" if self.secure else "fail"
        lines.append(
            f"verdict {verdict} worst={','.join(self.worst_set)} maxmi={self.max_mi:.9f}"
        )
        return "\n".join(lines) + "\n"


def _all_symbol_tables(
    bundle: SecureCodeBundle,
) -> list[tuple[tuple[int, ...], tuple[int, ...], dict[str, int]]]:
    return [(m, k, encode_source(bundle, m, k)) for m, k in _input_space(bundle)]


def _decode_roundtrip(
    bundle: SecureCodeBundle,
    tables: list[tuple[tuple[int, ...], tuple[int, ...], dict[str, int]]],
) -> tuple[bool, str]:
    for t in bundle.network.sinks:
        in_ids = [e.id for e in bundle.network.in_edges(t)]
        for m, k, symbols in tables:
            observed = {eid: symbols[eid] for eid in in_ids}
            try:
                got = decode_at_sink(bundle, t, observed)
            except (InconsistentObservation, Singular) as exc:
                return False, f"sink {t} failed on input {m}, {k}: {exc}"
            if got != (m, k):
                return False, f"sink {t} decoded {got} instead of {(m, k)}"
    return True, ""


def verify_security(
    bundle: SecureCodeBundle, fast: bool = False, budget: int = DEFAULT_ENUM_BUDGET
) -> SecurityReport:
    """Scan every wiretap set of size up to r and decide the leakage verdict.

    Perfect security (i = 0) is decided by exact conditional count-table
    equality; the imperfect case compares mutual information in log-q units
    against i with a 1e-9 tolerance.  The decode round-trip over all inputs
    is checked as well.  With fast=True only the size-r sets are scanned,
    justified by monotonicity of leakage under set inclusion.
    """
    _check_enum_budget(bundle, budget)
    tables = _all_symbol_tables(bundle)
    decode_ok, decode_detail = _decode_roundtrip(bundle, tables)

    ids = sorted(e.id for e in bundle.network.edges)
    top = min(bundle.r, len(ids))
    sizes = [top] if fast else list(range(1, top + 1))
    results: list[tuple[tuple[str, ...], float, bool]] = []
    worst: tuple[str, ...] | None = None
    max_mi = -1.0
    all_pass = True
    for size in sizes:
        for combo in itertools.combinations(ids, size):
            counts: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
            for m, _k, symbols in tables:
                y = tuple(symbols[eid] for eid in combo)
                counts[(m, y)] = counts.get((m, y), 0) + 1
            dist = JointDistribution(
                q=bundle.field.q,
                omega=bundle.omega,
                key_dim=bundle.key_dim,
                edge_ids=combo,
                counts=counts,
            )
            mi = mutual_information(dist)
            if bundle.i == 0:
                ok = perfectly_secure(dist)
            else:
                ok = mi <= bundle.i + _MI_TOLERANCE
            results.append((combo, mi, ok))
            all_pass = all_pass and ok
            if mi > max_mi:
                max_mi = mi
                worst = combo
    if worst is None:
        raise EmptySet("the bundle has no channel set of size up to r to scan")
    return SecurityReport(
        r=bundle.r,
        i=bundle.i,
        results=results,
        worst_set=worst,
        max_mi=max_mi,
        secure=all_pass,
        decode_ok=decode_ok,
        decode_detail=decode_detail,
    )


def rank_security_criterion(bundle: SecureCodeBundle, edge_ids: Sequence[str]) -> bool:
    """Algebraic cross-check: zero leakage iff the message rows of Q^{-1} F_A
    lie in the row space of its key rows."""
    ids = sorted(edge_ids)
    for eid in ids:
        bundle.network.edge(eid)
    cols = [bundle.gain[eid] for eid in ids]
    omega, const_len = bundle.omega, len(bundle.constant)
    message_rows = [tuple(col[idx] for col in cols) for idx in range(omega)]
    key_rows = [tuple(col[idx] for col in cols) for idx in range(omega + const_len, bundle.n)]
    return in_span(bundle.field, key_rows, message_rows)


# -- key-rate refutation -------------------------------------------------------------

@dataclass
class RefutationResult:
    """Outcome of the exhaustive linear-code search for a smaller key."""

    searched: int
    witness: GlobalCode | None

    @property
    def verdict(self) -> str:
        return "refuted" if self.witness is None else "counterexample"

    def serialize(self) -> str:
        out = f"searched={self.searched} verdict={self.verdict}\n"
        if self.witness is not None:
            from .lnc import write_code

            out += write_code(self.witness)
        return out


def refute_key_rate(
    net: Network,
    omega: int,
    r: int,
    key_dim: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> RefutationResult:
    """Exhaust every linear code of dimension omega + key_dim over the network.

    A counterexample is a local-coefficient assignment whose code lets every
    sink recover the message while the rank criterion holds on every channel
    set of size up to r.  Returning `refuted` means the full assignment space
    was enumerated and no such code exists, corroborating that key_dim
    symbols of key are insufficient at security level r.
    """
    if omega < 1:
        raise ValueError(f"information rate must be at least 1, got {omega}")
    if key_dim < 0 or key_dim >= r:
        raise InvalidKeyDim(f"need 0 <= key_dim < r = {r}, got {key_dim}")
    field = net.field
    dim = omega + key_dim
    imag = imaginary_ids(dim)

    topo = net.topo_edges()
    in_channels: dict[str, list[str]] = {}
    slots: list[tuple[str, str]] = []
    for edge in topo:
        ins = imag if edge.tail == net.source else [d.id for d in net.in_edges(edge.tail)]
        in_channels[edge.id] = ins
        slots.extend((edge.id, d) for d in ins)
    space = field.q ** len(slots)
    if space > budget:
        raise BudgetExceeded(f"search space {space} exceeds the budget {budget}")

    sink_in_ids = {t: [e.id for e in net.in_edges(t)] for t in net.sinks}
    edge_ids_sorted = sorted(e.id for e in net.edges)
    wiretap_combos = [
        combo
        for size in range(1, min(r, len(edge_ids_sorted)) + 1)
        for combo in itertools.combinations(edge_ids_sorted, size)
    ]

    basis = {d: standard_basis(dim, j) for j, d in enumerate(imag)}
    # A sink recovers the message iff e_1..e_omega lie in the span of its kernels;
    # otherwise two inputs differing in M share all its observations.
    message_units = [standard_basis(dim, j) for j in range(omega)]
    searched = 0
    for assignment in itertools.product(field.elements(), repeat=len(slots)):
        searched += 1
        kernels: dict[str, tuple[int, ...]] = dict(basis)
        cursor = 0
        for edge in topo:
            ins = in_channels[edge.id]
            coeffs = assignment[cursor:cursor + len(ins)]
            cursor += len(ins)
            kernels[edge.id] = combine(field, coeffs, [kernels[d] for d in ins], dim)

        if not all(
            in_span(field, [kernels[eid] for eid in sink_in_ids[t]], message_units)
            for t in net.sinks
        ):
            continue

        if not all(
            in_span(
                field,
                [tuple(kernels[eid][row] for eid in combo) for row in range(omega, dim)],
                [tuple(kernels[eid][row] for eid in combo) for row in range(omega)],
            )
            for combo in wiretap_combos
        ):
            continue

        real_kernels = {e.id: kernels[e.id] for e in net.edges}
        local_coeffs: dict[tuple[str, str], int] = {}
        cursor = 0
        for edge in topo:
            ins = in_channels[edge.id]
            for coeff, d in zip(assignment[cursor:cursor + len(ins)], ins):
                local_coeffs[(d, edge.id)] = coeff
            cursor += len(ins)
        witness = GlobalCode(
            n=dim, kernels=real_kernels, local_coeffs=local_coeffs, network=net
        )
        return RefutationResult(searched=searched, witness=witness)
    return RefutationResult(searched=searched, witness=None)


# -- entropy profile (conditional-entropy averages) -----------------------------------

def han_profile(
    table: Mapping[tuple[Hashable, ...], float], base: float = 2.0
) -> list[float]:
    """Averaged conditional entropies h_1 <= ... <= h_n of a joint distribution.

    h_r averages H(X_a | X_rest) over all coordinate subsets a of size r,
    normalized by C(n-1, r-1).  Entropies use natural logs internally and
    are reported in log-base units.  The profile is provably nondecreasing;
    a decrease beyond 1e-9 raises MonotonicityViolated because it can only
    come from an arithmetic bug.
    """
    if not table:
        raise NotADistribution("empty probability table")
    items = list(table.items())
    n = len(items[0][0])
    if n < 1:
        raise NotADistribution("joint outcomes must have at least one coordinate")
    if n > 12:
        raise ValueError(f"at most 12 variables supported, got {n}")
    if any(len(key) != n for key, _ in items):
        raise NotADistribution("inconsistent outcome arity in the table")
    total = 0.0
    for _, p in items:
        if p < 0:
            raise NotADistribution(f"negative probability {p}")
        total += p
    if abs(total - 1.0) > 1e-12:
        raise NotADistribution(f"probabilities sum to {total!r}, not 1")

    def marginal_entropy(coords: tuple[int, ...]) -> float:
        if not coords:
            return 0.0
        acc: dict[tuple[Hashable, ...], float] = {}
        for key, p in items:
            if p:
                proj = tuple(key[c] for c in coords)
                acc[proj] = acc.get(proj, 0.0) + p
        return -sum(p * math.log(p) for p in acc.values() if p > 0)

    h_full = marginal_entropy(tuple(range(n)))
    profile: list[float] = []
    for r in range(1, n + 1):
        acc = 0.0
        for alpha in itertools.combinations(range(n), r):
            rest = tuple(c for c in range(n) if c not in alpha)
            acc += h_full - marginal_entropy(rest)
        profile.append(acc / math.comb(n - 1, r - 1) / math.log(base))
    for lo, hi in zip(profile, profile[1:]):
        if hi < lo - 1e-9:
            raise MonotonicityViolated(f"profile decreased: {lo} -> {hi}")
    return profile
