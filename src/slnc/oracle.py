"""Independent brute-force verification of secure bundles.

Nothing here trusts the construction: wiretap observation distributions are
enumerated exactly over all message/key inputs, and every leakage verdict is
an integer comparison (never floating point).  With uniform message and key,
a linear code gives every wiretap set a uniform count table, so its leakage
is a whole number of q-ary symbols, read off exact support sizes.  Count-table
equality and the algebraic rank criterion are two further, independent routes
to the zero-leakage verdict.  The rank criterion reads leakage as a rank gap,
rank(F_A) minus the rank of F_A's key rows, by the rule `_leakage` that the
key-rate refutation search in `refute` also uses; the input-space budget
check comes from there too.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import TYPE_CHECKING, Collection, Mapping, NamedTuple, Sequence

from .errors import EmptySet, InconsistentObservation, NotADistribution
from .field import Echelon, combine
# DEFAULT_SEARCH_BUDGET is only re-exported: bench/run.py's `set_up` reads it
# off this module for the `refute` workload, and tests/test_source.py checks it
# stays here.  `verify` loads `refute` for `_leakage` and `_exhaustive_space`.
from .refute import DEFAULT_SEARCH_BUDGET, _exhaustive_space, _leakage  # noqa: F401

if TYPE_CHECKING:
    from .secure import SecureCodeBundle

DEFAULT_ENUM_BUDGET = 10**7


# -- exact observation distributions ---------------------------------------------

class JointDistribution(NamedTuple):
    """Exact joint counts of (message, wiretap observation) over all inputs."""

    q: int
    counts: Mapping[tuple[tuple[int, ...], tuple[int, ...]], int]

    def total(self) -> int:
        return sum(self.counts.values())


def _input_columns(bundle: SecureCodeBundle) -> list[Sequence[int]]:
    """Each coordinate X_j of X = [message, constant, key] as a column
    (`FieldSpec.column`) over every input, the (message, key) inputs listed
    as itertools.product lists them."""
    field, free = bundle.field, bundle.omega + bundle.key_dim
    q = field.q
    # Free coordinate d repeats each element q^(free-1-d) times, q^d times over:
    # the last coordinate varies fastest, as in itertools.product.
    digits = [
        field.column(itertools.chain.from_iterable(itertools.repeat(x, q ** (free - 1 - d)) for x in range(q)))
        * q**d
        for d in range(free)
    ]
    constants = [field.column([c]) * q**free for c in bundle.constant]
    return digits[:bundle.omega] + constants + digits[bundle.omega:]


def _symbol_columns(
    bundle: SecureCodeBundle, inputs: Sequence[Sequence[int]], edge_ids: Collection[str]
) -> dict[str, Sequence[int]]:
    """Channel e's symbol on every input: the column sum of gain[e][j] * X_j,
    built once per distinct gain and shared by every channel that carries it."""
    size, gain = len(inputs[0]), bundle.gain
    column = {g: combine(bundle.field, g, inputs, size) for g in {gain[eid] for eid in edge_ids}}
    return {eid: column[gain[eid]] for eid in edge_ids}


def observation_distribution(
    bundle: SecureCodeBundle, edge_ids: Sequence[str], budget: int = DEFAULT_ENUM_BUDGET
) -> JointDistribution:
    """Enumerate every (message, key) input and count its (message, observation) pair."""
    _exhaustive_space("input space", bundle.field.q, bundle.omega + bundle.key_dim, budget)
    ids = tuple(sorted(edge_ids))
    for eid in ids:
        bundle.network.edge(eid)
    inputs = _input_columns(bundle)
    columns = _symbol_columns(bundle, inputs, ids)
    messages = list(zip(*inputs[:bundle.omega]))
    observations = zip(*(columns[eid] for eid in ids)) if ids else itertools.repeat((), len(messages))
    return JointDistribution(q=bundle.field.q, counts=Counter(zip(messages, observations)))


def mutual_information(dist: JointDistribution) -> int:
    """I(M; Y) in log-q units, exactly: log_q(|supp Y| / |supp Y given M|).

    A linear code with uniform message and key gives every (m, y) in the
    support the same count, every m the same number of y and every y the
    same number of m.  Then the joint law and both marginals are uniform,
    so I(M; Y) = log_q(|supp M| |supp Y| / |supp (M, Y)|), a whole number.
    A table of any other shape raises NotADistribution.
    """
    if dist.total() <= 0:
        raise NotADistribution("empty count table")
    per_m = Counter(m for m, _y in dist.counts)
    per_y = Counter(y for _m, y in dist.counts)
    return _support_leakage(dist.q, len(per_m), dist.counts, per_y, per_m)


def _support_leakage(q: int, supp_m: int, joint: Mapping, per_y: Mapping, *more: Mapping) -> int:
    """log_q(supp_m |supp Y| / |supp (M, Y)|) from a count table of (m, y)
    and its support pairs counted per y; NotADistribution unless these and
    any `more` tables are uniform and the ratio is a power of q."""
    if any(len(set(table.values())) != 1 for table in (joint, per_y, *more)):
        raise NotADistribution("counts are not uniform on their support, as a linear code's are")
    ratio, rest = divmod(supp_m * len(per_y), len(joint))
    leak, power = 0, 1
    while power < ratio:
        power *= q
        leak += 1
    if rest or power != ratio:
        raise NotADistribution(f"the support ratio is not a power of q = {q}")
    return leak


def _coded_leakage(q: int, size: int, codes: Sequence[int], messages: int) -> int:
    """mutual_information of a set of `size` channels whose inputs are coded
    m * q^size + y, the observation y read as a base-q number, where each of
    the `messages` messages codes equally many inputs: a uniform joint table
    then makes the per-message table uniform with `messages` keys."""
    joint = Counter(codes)
    shift = q**size
    return _support_leakage(q, messages, joint, Counter(k % shift for k in joint))


def perfectly_secure(dist: JointDistribution) -> bool:
    """Exact reference test: the observation count table is identical for every message.

    It shares no code with mutual_information, which the tests check it against.
    """
    by_message: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for (m, y), c in dist.counts.items():
        by_message.setdefault(m, {})[y] = c
    tables = list(by_message.values())
    return all(table == tables[0] for table in tables[1:])


# -- security reports --------------------------------------------------------------

class SecurityReport(NamedTuple):
    """Each scanned set's exact leakage, the level i and the decode round-trip's failure
    text ("" when every sink decodes).  A set passes when its leakage is at most i:
    that one rule decides each set's line, `secure` and, with decode_ok, `passed`."""

    i: int
    results: list[tuple[tuple[str, ...], int]]
    decode_detail: str = ""

    @property
    def secure(self) -> bool:
        return all(mi <= self.i for _A, mi in self.results)

    @property
    def decode_ok(self) -> bool:
        return not self.decode_detail

    @property
    def passed(self) -> bool:
        return self.secure and self.decode_ok

    @property
    def worst_set(self) -> tuple[str, ...]:
        return max(self.results, key=lambda res: res[1])[0]

    @property
    def max_mi(self) -> int:
        return max(mi for _A, mi in self.results)

    def serialize(self) -> str:
        lines = [f"set {','.join(A)} mi={mi:.9f} {'pass' if mi <= self.i else 'fail'}" for A, mi in self.results]
        verdict = "pass" if self.passed else "fail"
        lines.append(f"verdict {verdict} worst={','.join(self.worst_set)} maxmi={self.max_mi:.9f}")
        return "\n".join(lines) + "\n"


def _decode_roundtrip(
    bundle: SecureCodeBundle,
    inputs: list[Sequence[int]],
    columns: Mapping[str, Sequence[int]],
) -> str:
    """The empty text when every sink recovers every input.  A sink passes when
    its decoder, applied to whole symbol columns, gives back every input column
    (message, constant and key); any other sink is walked input by input with
    decode_at_sink, and the text naming its first failure is returned."""
    from .secure import decode_at_sink

    field, size = bundle.field, len(inputs[0])
    for t in bundle.network.sinks:
        decoder = bundle.decoders[t]
        if decoder.inverse is not None:
            basis = [columns[eid] for eid in decoder.channels]
            # Each check column is combine(gain[e], inputs), so it fits once these do.
            if [combine(field, col, basis, size) for col in decoder.inverse] == inputs:
                continue
        ids = [e.id for e in bundle.network.in_edges(t)]
        # Every sink has an in-channel, so each row holds at least one symbol.
        rows = zip(*[columns[eid] for eid in ids])
        for x, row in zip(zip(*inputs), rows):
            m, k = x[:bundle.omega], x[bundle.n - bundle.key_dim:]
            try:
                got = decode_at_sink(bundle, t, dict(zip(ids, row)))
            except InconsistentObservation as exc:
                return f"sink {t} failed on input {m}, {k}: {exc}"
            if got != (m, k):
                return f"sink {t} decoded {got} instead of {(m, k)}"
    return ""


def _free_gain(bundle: SecureCodeBundle, eid: str) -> tuple[int, ...]:
    """Channel eid's gain on the message and key rows, its constant rows dropped."""
    gain = bundle.gain[eid]
    return gain[:bundle.omega] + gain[bundle.n - bundle.key_dim:]


def verify_security(
    bundle: SecureCodeBundle, fast: bool = False, budget: int = DEFAULT_ENUM_BUDGET
) -> SecurityReport:
    """Scan every wiretap set of size up to r and report its exact leakage.

    Each set's leakage is the integer I(M; Y_A) in log-q units, which the
    report compares with i.  The decode round-trip over all inputs is checked
    as well.
    With fast=True only the size-r sets are scanned, justified by
    monotonicity of leakage under set inclusion.

    A channel splits the inputs into the level sets of its free gain, a linear
    form on the message and key coordinates (the constant rows only shift the
    column); two forms split them alike exactly when they are proportional or
    both zero, so the gain's line in Echelon.basis() form names the split.  A
    set splits the inputs into the common refinement of its channels' splits,
    so sets with the same lines have count tables equal up to renaming the
    observations, which leaves mutual_information unchanged.  The first set
    with each collection of lines is counted; later ones reuse its leakage.

    A counted set A codes each input's (m, y_A) as the integer m * q^|A| + y_A,
    and `_coded_leakage` counts the codes; input j's m is j // q^keydim, as the
    inputs come message first.  The counted sets are taken in lexicographic
    order, so each shares its longest common prefix with the one before: a
    set's codes extend its prefix's by one digit, and only the codes along
    that prefix are kept.
    """
    _exhaustive_space("input space", bundle.field.q, bundle.omega + bundle.key_dim, budget)
    inputs = _input_columns(bundle)
    columns = _symbol_columns(bundle, inputs, bundle.gain)
    decode_detail = _decode_roundtrip(bundle, inputs, columns)

    q, dim = bundle.field.q, bundle.omega + bundle.key_dim
    line = {eid: Echelon(bundle.field, dim, [_free_gain(bundle, eid)]).basis() for eid in columns}
    ids = sorted(columns)
    top = min(bundle.r, len(ids))
    # Each scanned set with the first set of its collection of lines.
    first: dict[frozenset[tuple[tuple[int, ...], ...]], tuple[str, ...]] = {}
    scanned = [
        (combo, first.setdefault(frozenset([line[eid] for eid in combo]), combo))
        for size in ([top] if fast else range(1, top + 1))
        for combo in itertools.combinations(ids, size)
    ]
    if not scanned:
        raise EmptySet("the bundle has no channel set of size up to r to scan")
    # chain[k] holds the codes of prefix[:k]; chain[0] codes input j's message, j // q^keydim.
    prefix: tuple[str, ...] = ()
    chain = [[m for m in range(q**bundle.omega) for _ in range(q**bundle.key_dim)]]
    leakage: dict[tuple[str, ...], int] = {}
    for combo in sorted(first.values()):
        keep = 0
        while keep < min(len(prefix), len(combo)) and prefix[keep] == combo[keep]:
            keep += 1
        del chain[keep + 1:]
        for eid in combo[keep:]:
            chain.append([c * q + y for c, y in zip(chain[-1], columns[eid])])
        prefix = combo
        leakage[combo] = _coded_leakage(q, len(combo), chain[-1], q**bundle.omega)
    return SecurityReport(bundle.i, [(combo, leakage[counted]) for combo, counted in scanned], decode_detail)


def rank_security_criterion(bundle: SecureCodeBundle, edge_ids: Sequence[str]) -> bool:
    """Algebraic cross-check: zero leakage iff Q^{-1} F_A, its constant rows
    dropped, has no rank gap between all its rows and its key rows."""
    ids = sorted(edge_ids)
    for eid in ids:
        bundle.network.edge(eid)
    cols = [_free_gain(bundle, eid) for eid in ids]
    return not _leakage(bundle.field, cols, bundle.omega, bundle.omega + bundle.key_dim)
