"""Secure coding layer: mixing basis selection, source encoding, sink decoding.

A secure bundle wraps a base code of dimension n = C_min with an invertible
mixing matrix Q whose leading n - r columns avoid every wiretappable kernel
span.  The source input is the row vector X = [message, constant, key]; the
constant block is all zeros and pads any message rate up to the capacity.
Channel e carries X Q^{-1} f_e.  Q is a `Matrix`, a record of its columns,
defined here because a bundle is the only thing that holds one.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Collection, Mapping, NamedTuple, Sequence

from .errors import (
    DimensionMismatch,
    FieldTooSmall,
    InconsistentObservation,
    ParseError,
    RateTooHigh,
    SecurityLevelTooLarge,
    Singular,
    UnknownSink,
)
from .field import Echelon, FieldSpec, combine, dot, first_outside, standard_basis
from .lnc import CODE_KEYWORDS, GlobalCode, _code_header, _parse_header, construct_lnc, parse_code, write_code
from .network import NETWORK_KEYWORDS, Network, integers, parse_network, serialize_network, text_lines


class Matrix(NamedTuple):
    """A matrix over GF(q) held as its columns, as Q is built and its inverses are read."""

    field: FieldSpec
    columns: tuple[tuple[int, ...], ...]

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        return cls(field, tuple(standard_basis(n, j) for j in range(n)))

    @property
    def cols(self) -> int:
        return len(self.columns)

    def col(self, j: int) -> tuple[int, ...]:
        return self.columns[j]

    def inverse(self) -> "Matrix":
        """Inverse of a square matrix; raises Singular when rank < dimension."""
        n = self.cols
        if any(len(col) != n for col in self.columns):
            raise DimensionMismatch("only square matrices have inverses")
        # [A | I] reduces to [I | A^-1] exactly when A's own columns hold n pivots.
        rows = [row + standard_basis(n, i) for i, row in enumerate(zip(*self.columns))]
        echelon = Echelon(self.field, 2 * n, rows)
        rank = sum(p < n for p in echelon.rows)
        if rank < n:
            raise Singular(f"matrix of rank {rank} < {n} has no inverse")
        return Matrix(self.field, tuple(zip(*(row[n:] for row in echelon.basis()))))

    def serialize(self) -> str:
        """Row-major, space-separated, one row per line."""
        return "\n".join(" ".join(map(str, row)) for row in zip(*self.columns))


def _basis_level(omega: int, r: int, key_dim: int, n: int) -> int:
    # The span-avoidance condition is built at level r whenever omega + r fits
    # the dimension, and at r - i otherwise.  Then no set A' of at most r - i
    # channels leaks, and the chain rule bounds any set A of at most r channels:
    # with A' in A of size min(|A|, r - i), I(M; Y_A) <= I(M; Y_A') + |A - A'| <= i.
    return r if omega + r <= n else key_dim


class SinkDecoder(NamedTuple):
    """How one sink recovers the input X from the symbols on its in-channels.

    `channels` are the first in-channels whose gain columns are independent.
    When there are n of them, `inverse` holds the columns of the inverse of
    their n x n gain matrix, so X_j = y_channels . inverse[j]; otherwise it
    is None and the sink cannot decode.
    """

    channels: tuple[str, ...]
    inverse: tuple[tuple[int, ...], ...] | None


def _sink_decoder(field: FieldSpec, n: int, gain: Mapping[str, tuple[int, ...]]) -> SinkDecoder:
    span = Echelon(field, n)
    channels = [eid for eid, col in gain.items() if span.add(col)]
    inverse = None
    if len(channels) == n:
        inverse = Matrix(field, tuple(gain[c] for c in channels)).inverse().columns
    return SinkDecoder(channels=tuple(channels), inverse=inverse)


class SecureCodeBundle:
    """A base code plus mixing matrix and rate bookkeeping.

    basis_level is the level at which the span-avoidance condition was built.
    """

    def __init__(
        self,
        base: GlobalCode,
        mixing: Matrix,
        omega: int,
        r: int,
        i: int,
        constant: tuple[int, ...],
    ):
        self.base = base
        self.mixing = mixing
        self.omega = omega
        self.r = r
        self.i = i
        self.constant = constant

    @property
    def key_dim(self) -> int:
        """r - i uniform key symbols, which is exactly the key rate."""
        return self.r - self.i

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def field(self) -> FieldSpec:
        return self.base.field

    @property
    def network(self) -> Network:
        return self.base.network

    @property
    def basis_level(self) -> int:
        return _basis_level(self.omega, self.r, self.key_dim, self.n)

    @property
    def constructively_certified(self) -> bool:
        return self.basis_level == self.r

    @cached_property
    def gain(self) -> dict[str, tuple[int, ...]]:
        """The column Q^{-1} f_e per channel; raises Singular if Q has no inverse."""
        cols = self.mixing.inverse().columns
        return {
            e.id: combine(self.field, self.base.kernels[e.id], cols, self.n)
            for e in self.network.edges
        }

    @cached_property
    def decoders(self) -> dict[str, SinkDecoder]:
        """Each sink's decoder, built once from gain."""
        return {
            t: _sink_decoder(
                self.field, self.n, {e.id: self.gain[e.id] for e in self.network.in_edges(t)}
            )
            for t in self.network.sinks
        }


def choose_secure_basis(code: GlobalCode, r: int) -> Matrix:
    """Greedy deterministic choice of the mixing matrix Q.

    Vectors of GF(q)^n are ordered by their base-q integer index (first
    coordinate least significant).  Each of the first n - r columns is the
    smallest vector that keeps the prefix independent and its span disjoint
    from every wiretappable kernel span; the remaining columns just extend
    independence.  Raises FieldTooSmall if no vector qualifies for a column.
    """
    n, field = code.n, code.field
    if not 1 <= r < n:
        raise SecurityLevelTooLarge(f"need 1 <= r < n = {n}, got {r}")
    # cols are independent and meet no span(F_A), and F_A has rank r, so column
    # j <= n - r may be vec exactly when vec lies outside span(cols + F_A). That
    # depends on A only through span(F_A).  A code set's r independent kernels,
    # each scaled to a leading 1, are r distinct directions, and one channel per
    # direction realises every independent r-set of directions: so the spans
    # are those of the independent r-sets of distinct nonzero directions.
    directions = sorted(
        {row for k in code.kernels.values() for row in Echelon(field, n, [k]).basis()}
    )
    wiretap_spans: dict[tuple[tuple[int, ...], ...], Echelon] = {}
    for A in combinations(directions, r):
        echelon = Echelon(field, n, A)
        if len(echelon) == r:
            wiretap_spans.setdefault(echelon.basis(), echelon)
    # Index order is lexicographic with the last coordinate slowest: search over
    # the unit vectors, last first, and reverse.  The zero vector (index 0) lies
    # in every space, so the search never returns it.
    units = [standard_basis(n, c) for c in reversed(range(n))]
    span = Echelon(field, n)
    cols: list[tuple[int, ...]] = []
    for j in range(1, n + 1):
        avoid = [span, *wiretap_spans.values()] if j <= n - r else [span]
        found = first_outside(field, units, avoid)
        if found is None:
            raise FieldTooSmall(
                f"no column {j} of {n} exists over GF({field.q}); retry with a larger field"
            )
        vec = found[::-1]
        for echelon in avoid:
            echelon.add(vec)
        cols.append(vec)
    return Matrix(field, tuple(cols))


def build_secure_bundle(net: Network, omega: int, r: int, i: int = 0) -> SecureCodeBundle:
    """Run the full pipeline: base code, mixing basis, rate bookkeeping.

    Accepts any omega >= 1 with omega + (r - i) <= C_min; the constant block
    absorbs the slack so the key stays at exactly r - i symbols.  When
    omega + r exceeds the dimension (possible only for i > 0), the basis is
    built at level r - i and the bundle is flagged as not constructively
    certified.  Its leakage is still at most i on every set of at most r
    channels: no r - i of them leak, and by the chain rule each further
    channel adds at most one symbol.
    """
    from .flow import c_min

    if omega < 1:
        raise RateTooHigh(f"information rate must be at least 1, got {omega}")
    if r < 1:
        raise SecurityLevelTooLarge(f"security level must be at least 1, got {r}")
    if not 0 <= i <= r:
        raise SecurityLevelTooLarge(f"imperfect level must satisfy 0 <= i <= r, got {i}")
    n = c_min(net)
    if r >= n:
        raise SecurityLevelTooLarge(f"security level {r} must be below C_min = {n}")
    key_dim = r - i
    if omega + key_dim > n:
        raise RateTooHigh(
            f"omega + key_dim = {omega + key_dim} exceeds C_min = {n}"
        )
    base = construct_lnc(net, n)
    basis_level = _basis_level(omega, r, key_dim, n)
    if basis_level >= 1:
        mixing = choose_secure_basis(base, basis_level)
    else:
        # i = r leaves no wiretap constraint to build against (key_dim = 0);
        # the independence-only greedy degenerates to the standard basis.
        mixing = Matrix.identity(net.field, n)
    constant = (0,) * (n - omega - key_dim)
    return SecureCodeBundle(
        base=base,
        mixing=mixing,
        omega=omega,
        r=r,
        i=i,
        constant=constant,
    )


def _check_block(field: FieldSpec, name: str, values: Sequence[int], length: int) -> tuple[int, ...]:
    if len(values) != length:
        raise DimensionMismatch(f"{name} must have {length} symbols, got {len(values)}")
    return tuple(field.check(v) for v in values)


def encode_source(
    bundle: SecureCodeBundle, message: Sequence[int], key: Sequence[int]
) -> dict[str, int]:
    """Per-channel symbols X Q^{-1} f_e for the input X = [message, constant, key].

    Each symbol is x . gain[e], one dot product with the bundle's cached
    column Q^{-1} f_e, in network declaration order.
    """
    field = bundle.field
    m = _check_block(field, "message", message, bundle.omega)
    k = _check_block(field, "key", key, bundle.key_dim)
    x = m + bundle.constant + k
    return {eid: dot(field, x, col) for eid, col in bundle.gain.items()}


def decode_at_sink(
    bundle: SecureCodeBundle, t: str, observed: Mapping[str, int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Recover (message, key) from the symbols on a sink's incoming channels.

    Uses the sink's cached decoder: n dot products, then a consistency check
    on every in-channel.  Raises InconsistentObservation when the sink's
    channels have rank below n, when the symbols fit no input, or when the
    recovered constant block differs from the bundle constant (corruption).
    """
    net = bundle.network
    if t not in net.sinks:
        raise UnknownSink(f"{t} is not a declared sink")
    in_ids = [e.id for e in net.in_edges(t)]
    missing = [eid for eid in in_ids if eid not in observed]
    if missing:
        raise DimensionMismatch(f"missing symbols for: {', '.join(missing)}")
    field = bundle.field
    y = {eid: field.check(observed[eid]) for eid in in_ids}
    decoder = bundle.decoders[t]
    if decoder.inverse is None:
        rank, n = len(decoder.channels), bundle.n
        raise InconsistentObservation(f"sink {t} cannot isolate the input: rank {rank} < {n}")
    basis_symbols = [y[eid] for eid in decoder.channels]
    x = tuple(dot(field, basis_symbols, col) for col in decoder.inverse)
    # The basis channels fit x by construction, so only the others can fail.
    if any(dot(field, x, bundle.gain[eid]) != y[eid] for eid in in_ids):
        raise InconsistentObservation(f"symbols at sink {t} match no input")
    omega, const_len = bundle.omega, len(bundle.constant)
    m = x[:omega]
    c = x[omega:omega + const_len]
    k = x[omega + const_len:]
    if c != bundle.constant:
        raise InconsistentObservation(
            f"constant block mismatch at sink {t}: expected {bundle.constant}, got {c}"
        )
    return m, k


# -- text format -----------------------------------------------------------------

def write_bundle(bundle: SecureCodeBundle) -> str:
    """Self-contained bundle file: code header, rates, Q, constant, network, code body."""
    header, *body = write_code(bundle.base).splitlines()
    rates = f"secure omega={bundle.omega} r={bundle.r} i={bundle.i} keydim={bundle.key_dim}"
    const = " ".join(["const", *map(str, bundle.constant)])
    lines = [header, rates, "Q", *bundle.mixing.serialize().splitlines(), const]
    return "\n".join(lines + serialize_network(bundle.network).splitlines() + body) + "\n"


def parse_bundle(text: str) -> SecureCodeBundle:
    """Parse a bundle file written by write_bundle.

    The bundle's own lines are `secure`, `const` and `Q` with the n rows after
    it, n read from the first code header.  parse_network and parse_code read
    the network and code lines from the bundle text with every other line
    blanked, so their errors give the bundle's own line numbers.
    """
    lines = text_lines(text)
    own: dict[str, tuple] = {}
    pos = 0
    while pos < len(lines):
        line = lines[pos][1]
        keyword = line.split()[0]
        pos += 1
        if keyword == "code" and keyword not in own:
            # Its n ends the Q block, which is read in file order; parse_code checks the rest.
            own[keyword] = _code_header(line)
        elif keyword in NETWORK_KEYWORDS or keyword in CODE_KEYWORDS:
            continue
        elif keyword not in ("secure", "Q", "const"):
            raise ParseError(f"unexpected line in bundle: {line!r}")
        elif keyword in own:
            raise ParseError(f"duplicate {keyword} line")
        elif keyword == "secure":
            own[keyword] = _parse_header(line, "secure", ("omega", "r", "i", "keydim"))
        elif keyword == "const":
            own[keyword] = integers(line.split()[1:], f"bad const line: {line!r}")
        elif "code" not in own:
            raise ParseError("Q block must follow the code header")
        else:
            rows = lines[pos:pos + own["code"][0]]
            if len(rows) < own["code"][0]:
                raise ParseError("Q block is truncated")
            pos += len(rows)
            own[keyword] = tuple(integers(row.split(), f"bad Q row: {row!r}") for _, row in rows)
    for what in ("code header", "secure header", "Q block", "const line"):
        if what.split()[0] not in own:
            raise ParseError(f"missing {what}")

    def only(words: Collection[str]) -> str:
        kept = [""] * len(text.splitlines())
        for lineno, line in lines:
            if line.split()[0] in words:
                kept[lineno - 1] = line
        return "\n".join(kept)

    net = parse_network(only(NETWORK_KEYWORDS))
    base = parse_code(only(CODE_KEYWORDS), net)
    n, field = base.n, net.field
    (omega, r, i, key_dim), q_rows, constant = own["secure"], own["Q"], own["const"]
    if any(len(row) != n for row in q_rows):
        raise ParseError("Q rows must all have n entries")
    # Entries are checked in file order, then the rows are read as columns.
    mixing = Matrix(field, tuple(zip(*(tuple(map(field.check, row)) for row in q_rows))))
    if key_dim != r - i:
        raise ParseError(f"keydim={key_dim} is inconsistent with r={r}, i={i}")
    if not (omega >= 1 and 1 <= r < n and 0 <= i <= r and omega + key_dim <= n):
        raise ParseError("secure header rates are out of range")
    if len(constant) != n - omega - key_dim:
        raise ParseError(
            f"constant block must have {n - omega - key_dim} symbols, got {len(constant)}"
        )
    constant = tuple(field.check(c) for c in constant)
    bundle = SecureCodeBundle(
        base=base,
        mixing=mixing,
        omega=omega,
        r=r,
        i=i,
        constant=constant,
    )
    try:
        bundle.gain
    except Singular:
        raise ParseError("Q is not invertible") from None
    return bundle
