import collections
import functools
import itertools
import math
import random
import re
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from slnc.errors import (
    BudgetExceeded,
    FieldTooSmall,
    InconsistentObservation,
    NotADistribution,
    SlncError,
)
from slnc.field import Echelon, FieldSpec, combine, dot, in_span, rank_of_rows, standard_basis
from slnc.lnc import GlobalCode, construct_lnc, parse_code, write_code
from slnc.network import Network, parse_network
from slnc.oracle import (
    DEFAULT_SEARCH_BUDGET,
    JointDistribution,
    SecurityReport,
    mutual_information,
    observation_distribution,
    perfectly_secure,
    rank_security_criterion,
    verify_security,
)
from slnc import RefutationResult, c_min, han_profile, oracle, refute, refute_key_rate
from slnc.secure import SecureCodeBundle, build_secure_bundle, decode_at_sink, encode_source
from conftest import FIXTURES, combination_network, dag_networks, identity, load_network, matrix_from_rows, random_invertible


def _identity_mixing_bundle(net, omega, r, i=0):
    """A deliberately insecure bundle: no mixing at all."""
    n = c_min(net)
    base = construct_lnc(net, n)
    return SecureCodeBundle(
        base=base,
        mixing=identity(net.field, n),
        omega=omega,
        r=r,
        i=i,
        constant=(0,) * (n - omega - r + i),
    )


# -- observation distributions -----------------------------------------------------

def test_observation_distribution_parallel_gf2(parallel3_gf2):
    bundle = build_secure_bundle(parallel3_gf2, omega=1, r=1)
    dist = observation_distribution(bundle, ["e1"])
    assert dist.total() == 4
    # frozen 4-row enumeration: e1 carries the key alone
    assert dist.counts == {
        ((0,), (0,)): 1,
        ((0,), (1,)): 1,
        ((1,), (0,)): 1,
        ((1,), (1,)): 1,
    }
    assert perfectly_secure(dist)
    for m in ((0,), (1,)):
        assert sum(c for (mm, _y), c in dist.counts.items() if mm == m) == 2


def test_observation_distribution_identity_leak(parallel3_gf2):
    bundle = _identity_mixing_bundle(parallel3_gf2, omega=1, r=1)
    dist = observation_distribution(bundle, ["e1"])
    # e1 carries the message verbatim: counts(m, y) = q^key * [y == m]
    for m in ((0,), (1,)):
        for y in ((0,), (1,)):
            expected = 2 if y == m else 0
            assert dist.counts.get((m, y), 0) == expected
    assert not perfectly_secure(dist)


def test_observation_distribution_budget(parallel3_gf5):
    bundle = build_secure_bundle(parallel3_gf5, omega=2, r=1)
    with pytest.raises(BudgetExceeded):
        observation_distribution(bundle, ["e1"], budget=10)
    with pytest.raises(BudgetExceeded):
        verify_security(bundle, budget=10)


@pytest.mark.parametrize("slack", [0, -1, -125, -200])
def test_each_exhaustive_space_meets_the_budget_at_its_size(parallel3_gf5, parallel3_gf2, slack):
    # 5^3 inputs for the omega=2, r=1 bundle; 2^6 codes for omega=2, keydim=0
    # on three parallel channels.  A budget of 0 or below refuses every space.
    bundle = build_secure_bundle(parallel3_gf5, omega=2, r=1)
    checks = [
        (lambda b: observation_distribution(bundle, ["e1"], budget=b), "input space 5^3", 125),
        (lambda b: verify_security(bundle, budget=b), "input space 5^3", 125),
        (lambda b: refute_key_rate(parallel3_gf2, omega=2, r=1, key_dim=0, budget=b), "search space 2^6", 64),
    ]
    for run, space, size in checks:
        budget = size + slack
        if slack == 0:
            run(budget)
        else:
            with pytest.raises(BudgetExceeded, match=rf"^{re.escape(space)} exceeds the budget {budget}$"):
                run(budget)


# -- mutual information ---------------------------------------------------------------

def _dist_from_table(q, rows):
    counts = {}
    for m, y, c in rows:
        counts[(m, y)] = c
    return JointDistribution(q=q, counts=counts)


def test_mutual_information_independent_is_zero():
    dist = _dist_from_table(
        2, [((0,), (0,), 1), ((0,), (1,), 1), ((1,), (0,), 1), ((1,), (1,), 1)]
    )
    assert mutual_information(dist) == 0


def test_mutual_information_identity_leak_is_omega():
    dist = _dist_from_table(2, [((0,), (0,), 2), ((1,), (1,), 2)])
    assert mutual_information(dist) == 1


def test_mutual_information_pair_determines_message():
    # Y = (M + K, K) over GF(2): four equally likely outcomes reveal M
    rows = [
        ((0,), (0, 0), 1),
        ((0,), (1, 1), 1),
        ((1,), (1, 0), 1),
        ((1,), (0, 1), 1),
    ]
    dist = JointDistribution(q=2, counts=dict(
        ((m, y), c) for m, y, c in rows
    ))
    assert mutual_information(dist) == 1


def test_mutual_information_rejects_tables_no_linear_code_gives():
    skewed = _dist_from_table(2, [((0,), (0,), 2), ((1,), (0,), 1), ((1,), (1,), 1)])
    # uniform joint and marginals, but |supp M| |supp Y| / |supp (M, Y)| = 2 over GF(3)
    no_power = _dist_from_table(3, [((0,), (0,), 1), ((1,), (1,), 1)])
    empty = _dist_from_table(2, [])
    for dist in (skewed, no_power, empty):
        with pytest.raises(NotADistribution):
            mutual_information(dist)


@pytest.mark.parametrize(
    "q, codes, error",
    [
        (2, [0, 0, 2, 3], "not uniform"),  # (0, 0) twice, (1, 0) and (1, 1) once
        (3, [0, 1, 3, 5], "not uniform"),  # y = 0 under both messages, y = 1 and y = 2 under one
        (3, [0, 4], "not a power of q = 3"),  # |supp M| |supp Y| / |supp (M, Y)| = 2 * 2 / 2
    ],
    ids=["joint", "per-observation", "ratio"],
)
def test_coded_leakage_rejects_code_lists_no_linear_code_gives(q, codes, error):
    # One channel, two messages with equally many inputs each, (m, y) coded m * q + y.
    with pytest.raises(NotADistribution, match=error):
        oracle._coded_leakage(q, 1, codes, 2)


def test_mutual_information_bounds_on_random_bundles(parallel3_gf5):
    bundle = build_secure_bundle(parallel3_gf5, omega=2, r=2, i=1)
    ids = [e.id for e in parallel3_gf5.edges]
    for size in (1, 2):
        for combo in itertools.combinations(ids, size):
            mi = mutual_information(observation_distribution(bundle, combo))
            assert -1e-9 <= mi <= bundle.omega + 1e-9


# -- verify_security -------------------------------------------------------------------

def test_verify_butterfly_pass(butterfly):
    bundle = build_secure_bundle(butterfly, omega=1, r=1)
    report = verify_security(bundle)
    assert report.secure and report.decode_ok
    assert report.max_mi == pytest.approx(0.0, abs=1e-12)
    assert len(report.results) == 9
    assert all(mi <= bundle.i for _A, mi in report.results)


def test_verify_refuses_a_bundle_with_no_set_to_scan(parallel3_gf2):
    # build_secure_bundle refuses r = 0, so the bundle is built by hand.
    with pytest.raises(SlncError, match="^the bundle has no channel set of size up to r to scan$"):
        verify_security(_identity_mixing_bundle(parallel3_gf2, omega=1, r=0))


def test_verify_padding_regime(parallel3_gf5):
    report = verify_security(build_secure_bundle(parallel3_gf5, omega=1, r=1))
    assert report.secure and report.decode_ok


def test_verify_identity_mixing_fails(parallel3_gf2):
    report = verify_security(_identity_mixing_bundle(parallel3_gf2, omega=1, r=1))
    assert not report.secure
    failing = {A for A, mi in report.results if mi > report.i}
    assert ("e1",) in failing
    by_set = dict(report.results)
    assert by_set[("e1",)] == pytest.approx(1.0, abs=1e-12)


def test_leakage_monotone_under_set_inclusion(parallel3_gf5):
    """I(M; Y_A) <= I(M; Y_B) for A within B, the fact behind --fast."""
    bundle = _identity_mixing_bundle(parallel3_gf5, omega=1, r=2)
    ids = [e.id for e in parallel3_gf5.edges]
    mi = {}
    for size in (1, 2, 3):
        for combo in itertools.combinations(ids, size):
            mi[combo] = mutual_information(observation_distribution(bundle, combo))
    for small, value in mi.items():
        for big, big_value in mi.items():
            if set(small) < set(big):
                assert value <= big_value + 1e-9


def test_verify_fast_agrees_with_full(parallel3_gf5):
    bundle = build_secure_bundle(parallel3_gf5, omega=2, r=2, i=1)
    full = verify_security(bundle)
    fast = verify_security(bundle, fast=True)
    assert full.secure == fast.secure
    assert full.max_mi == pytest.approx(fast.max_mi, abs=1e-12)
    assert all(len(A) == 2 for A, _mi in fast.results)


def test_verify_report_serialization(butterfly):
    report = verify_security(build_secure_bundle(butterfly, omega=1, r=1))
    text = report.serialize()
    lines = text.strip().splitlines()
    assert lines[0] == "set e1 mi=0.000000000 pass"
    assert lines[-1] == "verdict pass worst=e1 maxmi=0.000000000"


def test_report_verdict_is_read_off_its_results():
    """A report stores only causes: each set's leakage, the level i and the
    decode detail.  A set fails when its leakage passes i, and so does the
    verdict; a decode detail fails it too.  The worst set is the first of
    largest leakage."""
    assert SecurityReport._fields == ("i", "results", "decode_detail")
    results = [(("e1",), 0), (("e2",), 1), (("e3",), 0)]
    report = SecurityReport(i=0, results=results)
    assert not report.secure and not report.passed and report.decode_ok
    assert (report.worst_set, report.max_mi) == (("e2",), 1)
    assert report.serialize().splitlines() == [
        "set e1 mi=0.000000000 pass",
        "set e2 mi=1.000000000 fail",
        "set e3 mi=0.000000000 pass",
        "verdict fail worst=e2 maxmi=1.000000000",
    ]
    lifted = report._replace(i=1)
    assert lifted.secure and lifted.passed
    assert lifted.serialize().splitlines()[1::2] == [
        "set e2 mi=1.000000000 pass",
        "verdict pass worst=e2 maxmi=1.000000000",
    ]
    undecoded = lifted._replace(decode_detail="sink t decoded (1,) instead of (0,)")
    assert undecoded.secure and not undecoded.decode_ok and not undecoded.passed
    assert undecoded.serialize().splitlines()[-1] == "verdict fail worst=e2 maxmi=1.000000000"


def _leakage_by_rank(bundle, combo):
    """rank(message and key rows of G_A) - rank(key rows of G_A), from gain."""
    cols = [bundle.gain[eid] for eid in combo]
    rows = [tuple(col[idx] for col in cols) for idx in range(bundle.n)]
    message, key = rows[:bundle.omega], rows[bundle.n - bundle.key_dim:]
    return rank_of_rows(bundle.field, message + key) - rank_of_rows(bundle.field, key)


def test_exact_leakage_equals_rank_gap(butterfly, parallel3_gf2, parallel3_gf5):
    """On every scanned set, the integer leakage is the rank gap of G_A; the
    worst set is the first one, in scan order, with the largest leakage."""
    bundles = [
        build_secure_bundle(butterfly, omega=1, r=1),
        build_secure_bundle(parallel3_gf2, omega=1, r=2),
        build_secure_bundle(parallel3_gf5, omega=1, r=1),
        build_secure_bundle(parallel3_gf5, omega=2, r=2, i=1),
        build_secure_bundle(parallel3_gf5, omega=1, r=2, i=2),
        build_secure_bundle(parallel3_gf5, omega=2, r=2, i=2),
        _identity_mixing_bundle(butterfly, omega=1, r=1),
        _identity_mixing_bundle(parallel3_gf2, omega=1, r=2),
        _identity_mixing_bundle(parallel3_gf5, omega=1, r=2),
    ]
    seen = set()
    for bundle in bundles:
        report = verify_security(bundle)
        lines = report.serialize().splitlines()
        for (combo, mi), line in zip(report.results, lines[:-1], strict=True):
            assert type(mi) is int
            assert mi == _leakage_by_rank(bundle, combo)
            assert line.endswith(" pass") == (mi <= bundle.i)
            seen.add(mi)
        assert report.max_mi == max(mi for _A, mi in report.results)
        assert report.worst_set == next(A for A, mi in report.results if mi == report.max_mi)
    assert seen == {0, 1, 2}


def reference_verify(bundle, fast=False):
    """The per-input, per-set oracle, kept as the reference the column-wise
    verify_security is checked against: every input encoded with
    encode_source and decoded at every sink with decode_at_sink, and every
    set's count table built from those symbols and passed to
    mutual_information.  It also returns the count tables by set."""
    elems = bundle.field.elements()
    rows = [
        (m, k, encode_source(bundle, m, k))
        for m in itertools.product(elems, repeat=bundle.omega)
        for k in itertools.product(elems, repeat=bundle.key_dim)
    ]
    net = bundle.network
    detail = ""
    for t in net.sinks:
        for m, k, symbols in rows:
            observed = {e.id: symbols[e.id] for e in net.in_edges(t)}
            try:
                got = decode_at_sink(bundle, t, observed)
            except InconsistentObservation as exc:
                detail = f"sink {t} failed on input {m}, {k}: {exc}"
                break
            if got != (m, k):
                detail = f"sink {t} decoded {got} instead of {(m, k)}"
                break
        if detail:
            break
    ids = sorted(e.id for e in net.edges)
    top = min(bundle.r, len(ids))
    results, tables = [], {}
    for size in [top] if fast else range(1, top + 1):
        for combo in itertools.combinations(ids, size):
            counts = collections.Counter((m, tuple(s[e] for e in combo)) for m, _k, s in rows)
            tables[combo] = counts
            mi = mutual_information(
                JointDistribution(bundle.field.q, counts)
            )
            results.append((combo, mi))
    report = SecurityReport(i=bundle.i, results=results, decode_detail=detail)
    return report, tables


def _partition_bundle():
    """Five parallel channels over GF(5) carrying X = [m, c, k1, k2] with c = 3:
    e1 = m + k1 and e2 = 2(m + k1) split the inputs alike, yet {e1, e3} with
    e3 = k1 reveals m while {e1, e2} does not.  e2 is sink t's check channel."""
    net = parse_network("field 5\nsource s\nsink t\n" + "".join(f"edge e{j} s t\n" for j in range(1, 6)))
    base = construct_lnc(net, 4)
    base.kernels.update(
        e1=(1, 0, 1, 0), e2=(2, 0, 2, 0), e3=(0, 0, 1, 0), e4=(0, 1, 0, 0), e5=(0, 0, 0, 1)
    )
    mixing = identity(net.field, 4)
    return SecureCodeBundle(base=base, mixing=mixing, omega=1, r=2, i=0, constant=(3,))


PARTITION_BUNDLE = _partition_bundle()


# Most drawn networks have C_min = 1, so these two (C_min 2 and 3) join them.
WIDER_NETWORKS = [
    (FIXTURES / name).read_text(encoding="utf-8").split("\n", 1)[1]
    for name in ("butterfly.net", "parallel3_gf5.net")
]


@st.composite
def verify_cases(draw):
    """A bundle over GF(p) or GF(2^m), on a drawn network or a wider fixture:
    built by the secure construction, or leaky with identity mixing; at any i,
    sometimes with one channel's kernel zeroed so that a sink may lose rank;
    and whether to scan fast."""
    q = draw(st.sampled_from([2, 3, 4, 5, 8]))
    wider = draw(st.sampled_from([None, *WIDER_NETWORKS]))
    net = draw(dag_networks(q=q, max_extra=5)) if wider is None else parse_network(f"field {q}\n{wider}")
    n = c_min(net)
    r = draw(st.integers(1, max(1, n - 1)))
    i = draw(st.integers(max(0, r - n + 1), r))
    omega = draw(st.integers(1, n - r + i))
    assume(q ** (omega + r - i) <= 256)
    try:
        # The construction needs r < C_min; identity mixing takes any r.
        if r < n and draw(st.booleans()):
            bundle = build_secure_bundle(net, omega, r, i)
        else:
            bundle = _identity_mixing_bundle(net, omega, r, i)
    except FieldTooSmall:
        assume(False)
    if draw(st.booleans()):
        bundle.base.kernels[draw(st.sampled_from([e.id for e in net.edges]))] = (0,) * n
    return bundle, draw(st.booleans())


@settings(max_examples=150, derandomize=True, deadline=None)
@given(verify_cases())
@example((PARTITION_BUNDLE, False))
@example((PARTITION_BUNDLE, True))
def test_verify_matches_the_per_input_reference(case):
    bundle, fast = case
    got = verify_security(bundle, fast=fast)
    want, tables = reference_verify(bundle, fast=fast)
    assert got.serialize() == want.serialize()
    assert (got.decode_ok, got.decode_detail) == (want.decode_ok, want.decode_detail)
    for combo, counts in tables.items():
        assert observation_distribution(bundle, combo).counts == counts


def test_partition_bundle_shares_counts_only_between_equal_partitions():
    got = verify_security(PARTITION_BUNDLE)
    by_set = dict(got.results)
    assert by_set[("e1", "e2")] == 0
    assert by_set[("e1", "e3")] == by_set[("e2", "e3")] == 1
    assert got.worst_set == ("e1", "e3") and got.decode_ok


def first_occurrence(column):
    """The column relabelled by first occurrence, kept as the reference
    partition: two columns give the same tuple exactly when they split the
    inputs into the same classes."""
    labels = {x: label for label, x in enumerate(dict.fromkeys(column))}
    return tuple(map(labels.__getitem__, column))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(verify_cases())
@example((PARTITION_BUNDLE, False))
@example((PARTITION_BUNDLE, True))
def test_gain_lines_group_channels_as_their_partitions_do(case):
    """Two channels have the same gain line exactly when their columns split
    the inputs alike, and verify_security counts one table per distinct
    collection of partitions: that of the first set, in scan order, with it,
    the counted sets taken in lexicographic order.  Each count gets the set's
    size, every input's (m, y) as the digits of one base-q integer, the
    message first, and the number of messages, q^omega."""
    bundle, fast = case
    inputs = oracle._input_columns(bundle)
    columns = oracle._symbol_columns(bundle, inputs, bundle.gain)
    partition = {eid: first_occurrence(col) for eid, col in columns.items()}
    dim = bundle.omega + bundle.key_dim
    line = {eid: Echelon(bundle.field, dim, [oracle._free_gain(bundle, eid)]).basis() for eid in columns}
    for a, b in itertools.combinations(sorted(columns), 2):
        assert (line[a] == line[b]) == (partition[a] == partition[b]), (a, b)
    ids = sorted(columns)
    top = min(bundle.r, len(ids))
    first = {}
    for size in [top] if fast else range(1, top + 1):
        for combo in itertools.combinations(ids, size):
            first.setdefault(frozenset(partition[eid] for eid in combo), combo)

    def codes(combo):
        digits = zip(*inputs[:bundle.omega], *[columns[eid] for eid in combo])
        return [functools.reduce(lambda code, x: code * bundle.field.q + x, row, 0) for row in digits]

    with mock.patch.object(oracle, "_coded_leakage", wraps=oracle._coded_leakage) as count:
        verify_security(bundle, fast=fast)
    messages = bundle.field.q**bundle.omega
    assert [call.args[1:] for call in count.call_args_list] == [
        (len(A), codes(A), messages) for A in sorted(first.values())
    ]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(verify_cases())
@example((PARTITION_BUNDLE, False))
def test_each_message_codes_q_to_the_keydim_inputs(case):
    """The rule _coded_leakage rests on.  Inputs come message first, so input
    j's message, read off the input columns as a base-q number, is
    j // q^keydim; every counted set's codes carry it; and the joint keys of
    each counted set give every one of the q^omega messages equally many
    observations, so the per-message table is uniform with q^omega keys."""
    bundle, fast = case
    q, omega, key_dim = bundle.field.q, bundle.omega, bundle.key_dim
    inputs = oracle._input_columns(bundle)
    messages = [functools.reduce(lambda code, x: code * q + x, m, 0) for m in zip(*inputs[:omega])]
    assert messages == [j // q**key_dim for j in range(q ** (omega + key_dim))]
    with mock.patch.object(oracle, "_coded_leakage", wraps=oracle._coded_leakage) as count:
        verify_security(bundle, fast=fast)
    assert count.call_args_list
    for call in count.call_args_list:
        _q, size, codes, supp_m = call.args
        assert supp_m == q**omega
        assert [code // q**size for code in codes] == messages
        per_m = collections.Counter(code // q**size for code in set(codes))
        assert len(per_m) == q**omega and len(set(per_m.values())) == 1


def counted_sets(bundle):
    """The sets verify_security counts, in the order it counts them: the
    first with each collection of gain lines, sorted."""
    dim = bundle.omega + bundle.key_dim
    line = {eid: Echelon(bundle.field, dim, [oracle._free_gain(bundle, eid)]).basis() for eid in bundle.gain}
    ids = sorted(line)
    first = {}
    for size in range(1, min(bundle.r, len(ids)) + 1):
        for combo in itertools.combinations(ids, size):
            first.setdefault(frozenset(line[eid] for eid in combo), combo)
    return sorted(first.values())


PARALLEL3_GF131 = "field 131\nsource s\nsink t\nedge e1 s t\nedge e2 s t\nedge e3 s t\n"


@pytest.mark.parametrize(
    "net, omega, r, i",
    [
        (combination_network(5, 3, 11), 1, 2, 0),  # perfect, on byte lanes
        (combination_network(5, 3, 11), 2, 2, 1),  # bounded: some pairs leak one symbol
        (parse_network(PARALLEL3_GF131), 1, 2, 1),  # bounded, on tuple columns
    ],
    ids=["perfect", "bounded", "gf131"],
)
def test_coded_leakage_is_the_mutual_information_of_each_counted_set(monkeypatch, net, omega, r, i):
    # Each leakage verify_security reads off integer codes is the one
    # mutual_information reads off the set's tuple-keyed count table.
    bundle = build_secure_bundle(net, omega, r, i)
    coded, got = oracle._coded_leakage, []

    def recorded(*args):
        got.append(coded(*args))
        return got[-1]

    monkeypatch.setattr(oracle, "_coded_leakage", recorded)
    report = verify_security(bundle)
    sets = counted_sets(bundle)
    assert got == [mutual_information(observation_distribution(bundle, A)) for A in sets]
    assert set(got) == ({0, 1} if i else {0})
    by_set = dict(report.results)
    assert [by_set[A] for A in sets] == got


@pytest.mark.parametrize(
    "field, sink, detail",
    [
        (7, "t3", "sink t3 failed on input (0,), (0,): sink t3 cannot isolate the input: rank 1 < 2"),
        (131, "t", "sink t failed on input (0,), (0,): sink t cannot isolate the input: rank 2 < 3"),
    ],
    ids=["gf7", "gf131"],
)
def test_a_sink_that_loses_rank_fails_the_round_trip_by_name(field, sink, detail):
    # Over GF(7) (byte lanes) sinks t1 and t2 pass on whole columns first;
    # over GF(131) (tuple columns) the only sink fails.
    if field == 7:
        bundle = build_secure_bundle(combination_network(4, 2, 7), omega=1, r=1)
        bundle.base.kernels["e10"] = bundle.base.kernels["e9"]  # both of t3's channels alike
    else:
        bundle = build_secure_bundle(parse_network(PARALLEL3_GF131), omega=1, r=1)
        bundle.base.kernels["e3"] = (5, 7, 0)  # in the span of e1 and e2
    report = verify_security(bundle)
    assert (report.decode_ok, report.decode_detail) == (False, detail)
    assert report.decode_detail.startswith(f"sink {sink} ")


def test_a_wrong_cached_decoder_fails_the_round_trip(butterfly):
    # The round trip checks each sink's decoder against the inputs instead of
    # trusting that one exists, so a decoder with its two columns swapped fails.
    bundle = build_secure_bundle(butterfly, omega=1, r=1)
    decoder = bundle.decoders["t1"]
    bundle.decoders["t1"] = decoder._replace(inverse=(decoder.inverse[1], decoder.inverse[0]))
    report = verify_security(bundle)
    assert not report.passed
    assert report.decode_detail == "sink t1 failed on input (0,), (1,): symbols at sink t1 match no input"


def test_verify_builds_one_column_per_distinct_gain():
    # The `verify` workload's bundle: relays copy their kernel, so its 35
    # channels carry only 5 distinct gains.
    bundle = build_secure_bundle(combination_network(5, 3, 11), omega=1, r=2)
    columns = oracle._symbol_columns(bundle, oracle._input_columns(bundle), bundle.gain)
    assert len(columns) == 35
    assert len({id(col) for col in columns.values()}) == len(set(bundle.gain.values())) == 5
    for a, b in itertools.combinations(columns, 2):
        assert (columns[a] is columns[b]) == (bundle.gain[a] == bundle.gain[b])


@st.composite
def leakage_cases(draw):
    """A field, omega >= 1, key_dim >= 0, and columns over (message | key)
    drawn with zero and repeated vectors among them."""
    q = draw(st.sampled_from([2, 3, 4, 5, 8]))
    omega, key_dim = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    vector = st.tuples(*[st.integers(0, q - 1)] * (omega + key_dim))
    pool = draw(st.lists(vector, min_size=1, max_size=3))
    cols = draw(st.lists(st.sampled_from([(0,) * (omega + key_dim), *pool]) | vector, max_size=6))
    return q, cols, omega, omega + key_dim


@settings(max_examples=300, derandomize=True, deadline=None)
@given(leakage_cases())
@example((2, [], 1, 1))
@example((3, [], 2, 3))
@example((5, [(0, 0), (0, 0)], 2, 2))
@example((4, [(1, 2, 3), (1, 2, 3), (2, 3, 1)], 1, 3))
@example((8, [(5, 7), (7, 5)], 2, 2))
def test_leakage_is_the_rank_gap(case):
    q, cols, omega, dim = case
    field = FieldSpec(q)
    want = rank_of_rows(field, cols) - rank_of_rows(field, [col[omega:] for col in cols])
    assert refute._leakage(field, cols, omega, dim) == want


# -- rank criterion ---------------------------------------------------------------------

def _manual_bundle(net, kernels, mixing_rows, omega, r, key_dim, const_len):
    base = construct_lnc(net, omega + key_dim + const_len)
    base.kernels.update(kernels)
    field = net.field
    return SecureCodeBundle(
        base=base,
        mixing=matrix_from_rows(field, mixing_rows),
        omega=omega,
        r=r,
        i=0,
        constant=(0,) * const_len,
    )


def test_rank_criterion_trivial_cases(parallel3_gf2):
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # X layout is [m, k1, k2]; kernels select which rows reach the channel
    no_message = _manual_bundle(
        parallel3_gf2,
        {"e1": (0, 1, 0), "e2": (0, 0, 1), "e3": (0, 1, 1)},
        eye,
        omega=1,
        r=2,
        key_dim=2,
        const_len=0,
    )
    assert rank_security_criterion(no_message, ["e1"])

    equal_rows = _manual_bundle(
        parallel3_gf2,
        {"e1": (1, 1, 0), "e2": (0, 0, 1), "e3": (1, 1, 1)},
        eye,
        omega=1,
        r=2,
        key_dim=2,
        const_len=0,
    )
    # message row equals a key row on e1: still hidden
    assert rank_security_criterion(equal_rows, ["e1"])

    naked = _manual_bundle(
        parallel3_gf2,
        {"e1": (1, 0, 0), "e2": (0, 1, 0), "e3": (0, 0, 1)},
        eye,
        omega=1,
        r=2,
        key_dim=2,
        const_len=0,
    )
    assert not rank_security_criterion(naked, ["e1"])
    # the empty set observes nothing, so it leaks nothing
    assert rank_security_criterion(naked, [])


def test_rank_criterion_agrees_with_enumeration(butterfly, parallel3_gf5, parallel3_gf2):
    """Randomized mixing matrices: exact zero MI must coincide with the
    algebraic criterion on every wiretap set."""
    rng = random.Random(991)
    configs = [
        (butterfly, 1, 1, 0),
        (parallel3_gf5, 1, 1, 0),
        (parallel3_gf5, 2, 2, 1),
        (parallel3_gf2, 1, 1, 0),
    ]
    for net, omega, r, i in configs:
        n = c_min(net)
        base = construct_lnc(net, n)
        key_dim = r - i
        for _ in range(10):
            bundle = SecureCodeBundle(
                base=base,
                mixing=random_invertible(net.field, n, rng),
                omega=omega,
                r=r,
                i=i,
                constant=(0,) * (n - omega - key_dim),
            )
            ids = sorted(e.id for e in net.edges)
            for size in range(1, r + 1):
                for combo in itertools.combinations(ids, size):
                    dist = observation_distribution(bundle, combo)
                    mi_zero = perfectly_secure(dist)
                    assert mi_zero == (mutual_information(dist) < 1e-9)
                    assert rank_security_criterion(bundle, combo) == mi_zero


# -- refutation ---------------------------------------------------------------------------

def message_in_key_span(field, cols, message_rows, key_rows):
    """The row-span form of the security criterion on one channel set, kept
    as the refutation references' own: the set's message rows lie in the row
    space of its key rows."""

    def rows(idx):
        return [tuple(col[i] for col in cols) for i in idx]

    return in_span(field, rows(key_rows), rows(message_rows))


def flat_refute(
    net: Network,
    omega: int,
    r: int,
    key_dim: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> RefutationResult:
    """The flat search over every assignment, kept as the reference the
    depth-first search is checked against."""
    if omega < 1:
        raise SlncError(f"information rate must be at least 1, got {omega}")
    if key_dim < 0 or key_dim >= r:
        raise SlncError(f"need 0 <= key_dim < r = {r}, got {key_dim}")
    field = net.field
    dim = omega + key_dim

    # A channel out of the source takes dim coefficients, its kernel; any
    # other takes one per in-channel of its tail.
    topo = net.topo_edges()
    in_channels = {edge.id: [d.id for d in net.in_edges(edge.tail)] for edge in topo}
    widths = [dim if edge.tail == net.source else len(in_channels[edge.id]) for edge in topo]
    space = field.q ** sum(widths)
    if space > budget:
        raise BudgetExceeded(f"search space {space} exceeds the budget {budget}")

    sink_in_ids = {t: [e.id for e in net.in_edges(t)] for t in net.sinks}
    edge_ids_sorted = sorted(e.id for e in net.edges)
    wiretap_combos = [
        combo
        for size in range(1, min(r, len(edge_ids_sorted)) + 1)
        for combo in itertools.combinations(edge_ids_sorted, size)
    ]

    # A sink recovers the message iff e_1..e_omega lie in the span of its kernels;
    # otherwise two inputs differing in M share all its observations.
    message_units = [standard_basis(dim, j) for j in range(omega)]
    searched = 0
    for assignment in itertools.product(field.elements(), repeat=sum(widths)):
        searched += 1
        kernels: dict[str, tuple[int, ...]] = {}
        chosen: dict[str, tuple[int, ...]] = {}
        cursor = 0
        for edge, width in zip(topo, widths):
            coeffs = chosen[edge.id] = assignment[cursor:cursor + width]
            cursor += width
            ins = in_channels[edge.id]
            kernels[edge.id] = (
                coeffs if edge.tail == net.source
                else combine(field, coeffs, [kernels[d] for d in ins], dim)
            )

        if not all(
            in_span(field, [kernels[eid] for eid in sink_in_ids[t]], message_units)
            for t in net.sinks
        ):
            continue

        if not all(
            message_in_key_span(
                field, [kernels[eid] for eid in combo], range(omega), range(omega, dim)
            )
            for combo in wiretap_combos
        ):
            continue

        real_kernels = {e.id: kernels[e.id] for e in net.edges}
        local_coeffs = {
            (d, edge.id): coeff
            for edge in topo
            for d, coeff in zip(in_channels[edge.id], chosen[edge.id])
        }
        witness = GlobalCode(
            n=dim, kernels=real_kernels, local_coeffs=local_coeffs, network=net
        )
        return RefutationResult(searched=searched, witness=witness)
    return RefutationResult(searched=searched, witness=None)


def test_refute_parallel2(parallel2_gf2):
    result = refute_key_rate(parallel2_gf2, omega=1, r=1, key_dim=0)
    assert result.verdict == "refuted"
    assert result.searched == 4  # q^(#coefficients) = 2^2


def test_refute_parallel3_both_rates(parallel3_gf2):
    one = refute_key_rate(parallel3_gf2, omega=1, r=1, key_dim=0)
    assert (one.verdict, one.searched) == ("refuted", 8)
    two = refute_key_rate(parallel3_gf2, omega=2, r=1, key_dim=0)
    assert (two.verdict, two.searched) == ("refuted", 64)


def test_refute_validation(parallel3_gf2):
    with pytest.raises(SlncError, match=r"^information rate must be at least 1, got 0$"):
        refute_key_rate(parallel3_gf2, omega=0, r=1, key_dim=0)
    with pytest.raises(SlncError, match="^need 0 <= key_dim < r = 1, got 1$"):
        refute_key_rate(parallel3_gf2, omega=1, r=1, key_dim=1)
    with pytest.raises(SlncError, match="^need 0 <= key_dim < r = 1, got -1$"):
        refute_key_rate(parallel3_gf2, omega=1, r=1, key_dim=-1)
    with pytest.raises(BudgetExceeded):
        refute_key_rate(parallel3_gf2, omega=2, r=1, key_dim=0, budget=10)


def test_refute_stays_refuted_above_capacity_security(parallel3_gf2):
    """Even r beyond the sink cut cannot admit a smaller key: an eavesdropper
    covering a decoding cut inherits the sink's knowledge."""
    result = refute_key_rate(parallel3_gf2, omega=1, r=3, key_dim=1)
    assert result.verdict == "refuted"


def test_refutation_result_serialization(parallel3_gf2):
    from slnc.lnc import parse_code

    refuted = RefutationResult(searched=8, witness=None)
    assert refuted.serialize() == "searched=8 verdict=refuted\n"

    # The counterexample branch is unreachable for valid linear-code inputs
    # (that is the point of the refutation), so exercise the serializer with
    # a hand-made witness.
    witness = construct_lnc(parallel3_gf2, 2)
    result = RefutationResult(searched=5, witness=witness)
    text = result.serialize()
    assert text.startswith("searched=5 verdict=counterexample\n")
    reparsed = parse_code("\n".join(text.splitlines()[1:]), parallel3_gf2)
    assert reparsed.kernels == witness.kernels


def test_refute_corroborates_optimal_key_rate(
    butterfly, parallel2_gf2, parallel3_gf2, parallel3_gf5
):
    """Wherever a bundle with key_dim = r builds and verifies, searching one
    key symbol below must come back refuted, having covered all q^slots codes."""
    butterfly_text = (FIXTURES / "butterfly.net").read_text(encoding="utf-8")
    butterfly_gf4, butterfly_gf5 = (
        parse_network(butterfly_text.replace("field 3", f"field {q}")) for q in (4, 5)
    )
    # (network, omega, r, q^slots); the butterfly has 10 slots at dimension 1,
    # and each of parallel3's 3 source channels has one slot per dimension.
    cases = [
        (butterfly, 1, 1, 3**10),
        (butterfly_gf4, 1, 1, 4**10),
        (butterfly_gf5, 1, 1, 5**10),
        (parallel2_gf2, 1, 1, 2**2),
        (parallel3_gf2, 1, 1, 2**3),
        (parallel3_gf5, 1, 1, 5**3),
        (parallel3_gf5, 2, 1, 5**6),
        (parallel3_gf5, 1, 2, 5**6),
    ]
    for net, omega, r, space in cases:
        bundle = build_secure_bundle(net, omega=omega, r=r)
        assert bundle.key_dim == r
        assert verify_security(bundle).secure
        result = refute_key_rate(net, omega=omega, r=r, key_dim=r - 1)
        assert (result.verdict, result.searched) == ("refuted", space)


@pytest.mark.parametrize(
    "fixture, omega, r, key_dim, searched, visited",
    [
        ("butterfly", 1, 1, 0, 3**10, 10),
        ("butterfly_gf2", 1, 5, 3, 2**16, 287),
        ("butterfly_gf2", 2, 4, 2, 2**16, 287),
    ],
    ids=["butterfly-1-1-0", "butterfly_gf2-1-5-3", "butterfly_gf2-2-4-2"],
)
def test_refute_prunes_the_butterfly_search(fixture, omega, r, key_dim, searched, visited):
    # The flat search tried 3,042, 47,098 and 29,750 tuples here.
    net = load_network(f"{fixture}.net")
    result = refute_key_rate(net, omega, r, key_dim)
    assert (result.verdict, result.searched, result.visited) == ("refuted", searched, visited)
    assert len(quotient_tuples(net, omega, r, key_dim)) == visited
    assert result.serialize() == f"searched={searched} verdict=refuted\n"


def tried_tuples(net, omega, r, key_dim):
    """The channel coefficient tuples a depth-first search in topological
    order tries when it drops a prefix as soon as a sink, or a channel set of
    size up to r, that lies wholly inside the prefix fails its check.

    Counted prefix by prefix, with no notion of which channel owns a check."""
    field = net.field
    dim = omega + key_dim
    topo = net.topo_edges()
    tail_ins = [[d.id for d in net.in_edges(e.tail)] for e in topo]
    widths = [dim if e.tail == net.source else len(x) for e, x in zip(topo, tail_ins)]
    sinks = [[e.id for e in net.in_edges(t)] for t in net.sinks]
    ids = sorted(e.id for e in net.edges)
    sets = [A for size in range(1, min(r, len(ids)) + 1) for A in itertools.combinations(ids, size)]
    units = [standard_basis(dim, j) for j in range(omega)]
    tried = 0
    for depth in range(len(topo)):
        inside = {e.id for e in topo[:depth]}
        done_sinks = [sink_ins for sink_ins in sinks if inside.issuperset(sink_ins)]
        done_sets = [A for A in sets if inside.issuperset(A)]
        tuples = [list(itertools.product(field.elements(), repeat=w)) for w in widths[:depth + 1]]
        for prefix in itertools.product(*tuples):
            kernels = {}
            for edge, x, coeffs in zip(topo, tail_ins, prefix):
                kernels[edge.id] = (
                    coeffs if edge.tail == net.source
                    else combine(field, coeffs, [kernels[d] for d in x], dim)
                )
            tried += all(
                in_span(field, [kernels[e] for e in sink_ins], units) for sink_ins in done_sinks
            ) and all(
                message_in_key_span(
                    field, [kernels[e] for e in A], range(omega), range(omega, dim)
                )
                for A in done_sets
            )
    return tried


def relations(field, cols, n):
    """Every coefficient vector v with sum_i v_i * cols[i] = 0 in GF(q)^n: the
    kernel of the matrix whose columns are cols, found by listing."""
    return frozenset(
        v for v in itertools.product(field.elements(), repeat=len(cols))
        if not any(combine(field, v, cols, n))
    )


def quotient_tuples(net, omega, r, key_dim):
    """The prefixes a depth-first search explores when, dropping prefixes as
    `tried_tuples` does, it tries under one prefix only the first tuple of
    each class among a channel's tuples: each prefix is explored once every
    tuple in it is the first of its class among its siblings and every check
    inside its parent passes.

    Out of a non-source node two tuples share a class when they give the same
    kernel.  Out of the source, with F and F' the source kernels so far as
    columns, they share one when ker F = ker F' and ker PF = ker PF', P keeping
    the key coordinates.  Counted level by level, with no notion of which
    channel owns a check; returns the kernels of every prefix explored."""
    field = net.field
    dim = omega + key_dim
    topo = net.topo_edges()
    tail_ins = [[d.id for d in net.in_edges(e.tail)] for e in topo]
    sinks = [[e.id for e in net.in_edges(t)] for t in net.sinks]
    ids = sorted(e.id for e in net.edges)
    sets = [A for size in range(1, min(r, len(ids)) + 1) for A in itertools.combinations(ids, size)]
    units = [standard_basis(dim, j) for j in range(omega)]
    sources = [e.id for e in topo if e.tail == net.source]
    explored = [{}]
    prefixes = []
    for depth, edge in enumerate(topo):
        inside = {e.id for e in topo[:depth]}
        children = []
        for kernels in explored:
            if not all(
                in_span(field, [kernels[e] for e in sink_ins], units)
                for sink_ins in sinks if inside.issuperset(sink_ins)
            ) or not all(
                message_in_key_span(field, [kernels[e] for e in A], range(omega), range(omega, dim))
                for A in sets if inside.issuperset(A)
            ):
                continue
            classes = set()
            width = dim if edge.id in sources else len(tail_ins[depth])
            for coeffs in itertools.product(field.elements(), repeat=width):
                child = {**kernels, edge.id: coeffs}
                if edge.id not in sources:
                    child[edge.id] = combine(field, coeffs, [kernels[d] for d in tail_ins[depth]], dim)
                cols = [child[e] for e in sources if e in child]
                cls = (
                    (relations(field, cols, dim), relations(field, [c[omega:] for c in cols], key_dim))
                    if edge.id in sources else child[edge.id]
                )
                if cls not in classes:
                    classes.add(cls)
                    children.append(child)
        prefixes += children
        explored = children
    return prefixes


def _always_secure(*_args):
    return True


def _no_leakage(*_args):
    return 0


@st.composite
def refutation_cases(draw):
    """A drawn network with (omega, r, key_dim) and a small q^slots, and
    whether the security check runs: without it the first decodable code is
    a witness, so the witness branch runs too."""
    q = draw(st.sampled_from([2, 3, 4]))
    net = draw(dag_networks(q=q, max_extra=4))
    key_dim = draw(st.integers(0, 1))
    omega = draw(st.integers(1, 2))
    r = draw(st.integers(key_dim + 1, 3))
    slots = sum(
        omega + key_dim if e.tail == net.source else len(net.in_edges(e.tail)) for e in net.edges
    )
    assume(q**slots <= 512)
    return net, omega, r, key_dim, draw(st.booleans())


# Node u has no in-channels, so c2 has no coefficient to choose and carries
# zero; it is also the last channel in topological order, owning the sink.
ZERO_SLOT_CHANNEL = parse_network("field 3\nsource s\nsink t\nedge c1 s t\nedge c2 u t\n")

# Three parallel channels at r = 3: the second and third levels own sets of
# several sizes, of which the search checks only the largest.
PARALLEL3_GF2 = load_network("parallel3_gf2.net")

# b and c copy a or carry zero, so their levels add no kernel direction while
# the security check runs.
COPIED_CHANNELS = parse_network(
    "field 2\nsource s\nsink t\nedge a s v\nedge b v t\nedge c v t\nedge d s t\n"
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(refutation_cases())
@example((ZERO_SLOT_CHANNEL, 1, 1, 0, True))
@example((ZERO_SLOT_CHANNEL, 1, 2, 1, False))
@example((PARALLEL3_GF2, 1, 3, 1, True))
@example((COPIED_CHANNELS, 1, 2, 1, True))
@example((COPIED_CHANNELS, 2, 3, 1, True))
def test_pruned_refutation_matches_the_flat_search(case):
    net, omega, r, key_dim, check_security = case
    reference = {} if check_security else {"message_in_key_span": _always_secure}
    searched = {} if check_security else {"_leakage": _no_leakage}
    with mock.patch.dict(globals(), reference), mock.patch.dict(vars(refute), searched):
        got = refute_key_rate(net, omega, r, key_dim)
        want = flat_refute(net, omega, r, key_dim)
        assert (got.searched, got.verdict) == (want.searched, want.verdict)
        if want.witness is None:
            assert got.witness is None
            assert got.visited == len(quotient_tuples(net, omega, r, key_dim)) <= tried_tuples(net, omega, r, key_dim)
        else:
            assert list(got.witness.local_coeffs.items()) == list(want.witness.local_coeffs.items())
            assert got.witness.kernels == want.witness.kernels


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.net")), ids=lambda path: path.stem)
def test_local_coefficients_join_real_adjacent_channels(path):
    # A channel out of the source has no local coefficients, so every key
    # (d, e) names two real channels with d entering the tail of e.
    net = load_network(path.name)
    heads = {e.id: e.head for e in net.edges}
    tails = {e.id: e.tail for e in net.edges}
    code = construct_lnc(net, c_min(net))
    with mock.patch.dict(vars(refute), {"_leakage": _no_leakage}):
        witness = refute_key_rate(net, 1, 1, 0).witness
    for found in (code, parse_code(write_code(code), net), witness):
        assert all(d in heads and e in tails and heads[d] == tails[e] for d, e in found.local_coeffs)


# s-t beside 20 channels out of u, which has no in-channel: two codes over
# GF(2), yet at r = 10 the channel in position j is the last of C(j, 9) sets
# of size 10, C(20, 9) = 167,960 for the last channel.
WIDE_ZERO_SLOTS = parse_network(
    "field 2\nsource s\nsink t\nedge c s t\n" + "".join(f"edge u{k} u t\n" for k in range(20))
)


def test_refutation_walks_its_wiretap_sets_as_it_checks_them():
    # With every set leaking, c = 1 fails the first set it checks and c = 0
    # fails the sink.  A search that listed each level's sets up front held
    # 43 MiB before it started; one that walks them holds almost nothing.
    tracemalloc.start()
    try:
        with mock.patch.object(refute, "_leakage", lambda *args: 1):
            result = refute_key_rate(WIDE_ZERO_SLOTS, 1, 10, 0)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.serialize() == "searched=2 verdict=refuted\n"
    assert peak < 2**20


def test_refutation_checks_only_new_kernel_directions():
    # s-t beside 26 channels out of u, over GF(2) at r = 12.  The u channels
    # carry zero and c = 0 does too, so only c = 1 adds a kernel direction:
    # one wiretap check, where a search by channel sets checks C(j, min(j, 11))
    # sets at the channel in position j, 9,657,712 in all.
    net = parse_network(
        "field 2\nsource s\nsink t\nedge c s t\n" + "".join(f"edge u{k} u t\n" for k in range(26))
    )
    leakage = mock.Mock(wraps=refute._leakage)
    with mock.patch.object(refute, "_leakage", leakage):
        result = refute_key_rate(net, 1, 12, 0, budget=10)
    assert result.serialize() == "searched=2 verdict=refuted\n"
    assert leakage.call_count == 1


def test_refutation_decides_each_sink_kernel_tuple_once(butterfly):
    # The sink check depends only on the tuple of the sink's in-kernels: 9
    # distinct tuples among the sink checks of the 1,910 tuples explored, each
    # of which an unmemoised search decides with a fresh echelon.  (The flat
    # search tried 75,972 tuples and reached 25 distinct sink tuples.)
    span = mock.Mock(wraps=refute.in_span)
    with mock.patch.object(refute, "in_span", span):
        result = refute_key_rate(butterfly, 1, 2, 1)
    prefixes = quotient_tuples(butterfly, 1, 2, 1)
    sink_ins = [[e.id for e in butterfly.in_edges(t)] for t in butterfly.sinks]
    reached = {tuple(k[e] for e in ins) for k in prefixes for ins in sink_ins if all(e in k for e in ins)}
    assert span.call_count == len(reached) == 9
    assert (result.verdict, result.searched) == ("refuted", 3**12)
    assert result.visited == len(prefixes) == 1910


@functools.cache
def message_stabiliser(q, omega, key_dim):
    """Every g = [[A, B], [0, D]] over GF(q), A in GL(omega), D in GL(key_dim),
    B any omega x key_dim block, as a tuple of rows: listed by brute force."""
    field = FieldSpec(q)

    def invertible(n):
        squares = itertools.product(field.elements(), repeat=n * n)
        return [rows for rows in ([e[i * n:(i + 1) * n] for i in range(n)] for e in squares)
                if rank_of_rows(field, rows) == n]

    blocks = itertools.product(field.elements(), repeat=omega * key_dim)
    return [
        tuple(A[i] + B[i * key_dim:(i + 1) * key_dim] for i in range(omega))
        + tuple((0,) * omega + row for row in D)
        for A, B, D in itertools.product(invertible(omega), list(blocks), invertible(key_dim))
    ]


@st.composite
def source_prefix_pairs(draw):
    """Source kernels S over GF(2) or GF(3) at dim <= 3, and two kernels f, f'
    for the next source channel; f' is half the time g.f for a drawn g in G."""
    q = draw(st.sampled_from([2, 3]))
    omega = draw(st.integers(1, 2))
    dim = draw(st.integers(omega, 3))
    vector = st.tuples(*[st.integers(0, q - 1)] * dim)
    prefix, f = draw(st.lists(vector, max_size=3)), draw(vector)
    group = message_stabiliser(q, omega, dim - omega)
    image = st.sampled_from(group).map(lambda g: tuple(dot(FieldSpec(q), row, f) for row in g))
    return FieldSpec(q), omega, prefix, f, draw(st.one_of(vector, image))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(source_prefix_pairs())
def test_source_orbit_classes_match_the_group(case):
    # [S|f] and [S|f'] lie in one orbit of G exactly when the search's class
    # rule puts f and f' together, and exactly when the kernel test of
    # `quotient_tuples` does.
    field, omega, prefix, f, g_f = case
    dim = len(f)
    one_orbit = any(
        all(tuple(dot(field, row, v) for row in g) == w for v, w in zip([*prefix, f], [*prefix, g_f]))
        for g in message_stabiliser(field.q, omega, dim - omega)
    )
    sources = Echelon(field, dim, [v[omega:] + v[:omega] for v in prefix])
    same_class = refute._orbit_class(sources, f, omega) == refute._orbit_class(sources, g_f, omega)

    def kernels(last):
        cols = [*prefix, last]
        return relations(field, cols, dim), relations(field, [c[omega:] for c in cols], dim - omega)

    assert one_orbit == same_class == (kernels(f) == kernels(g_f))


@pytest.mark.parametrize(
    "net, omega, r, key_dim, budget, searched",
    [
        (load_network("butterfly.net"), 1, 3, 2, DEFAULT_SEARCH_BUDGET, 3**14),
        (combination_network(5, 3, 4), 1, 1, 0, 4**35, 4**35),
    ],
    ids=["butterfly-1-3-2", "c5_3_gf4-1-1-0"],
)
def test_refute_covers_deep_spaces_quickly(net, omega, r, key_dim, budget, searched):
    # The flat search tried 1,606,746 tuples in 8 to 10 s on the butterfly, and
    # on C(5,3) walked identical subtrees for over 120 s: one per kernel, and
    # one per orbit of source kernels, leave a few thousand and a few dozen.
    start = time.perf_counter()
    result = refute_key_rate(net, omega, r, key_dim, budget=budget)
    assert time.perf_counter() - start < 1.0
    assert result.serialize() == f"searched={searched} verdict=refuted\n"


# -- entropy profile -----------------------------------------------------------------------

def test_han_profile_two_independent_bits():
    table = {(a, b): 0.25 for a in (0, 1) for b in (0, 1)}
    assert han_profile(table) == pytest.approx([2.0, 2.0], abs=1e-12)


def test_han_profile_two_identical_bits():
    table = {(0, 0): 0.5, (1, 1): 0.5}
    assert han_profile(table) == pytest.approx([0.0, 1.0], abs=1e-12)


def test_han_profile_point_mass():
    table = {(0, 1, 0): 1.0}
    assert han_profile(table) == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


def test_han_profile_base_conversion():
    table = {(a, b): 0.25 for a in (0, 1) for b in (0, 1)}
    nats = han_profile(table, base=math.e)
    assert nats == pytest.approx([2 * math.log(2), 2 * math.log(2)], abs=1e-12)
    base4 = han_profile(table, base=4.0)
    assert base4 == pytest.approx([1.0, 1.0], abs=1e-12)


def test_han_profile_validation():
    with pytest.raises(NotADistribution):
        han_profile({})
    with pytest.raises(NotADistribution):
        han_profile({(0,): 0.4, (1,): 0.4})
    with pytest.raises(NotADistribution):
        han_profile({(0,): 1.5, (1,): -0.5})
    with pytest.raises(NotADistribution):
        han_profile({(0, 0): 0.5, (1,): 0.5})
    with pytest.raises(SlncError, match="^at most 12 variables supported, got 13$"):
        han_profile({tuple(range(13)): 1.0})
    with pytest.raises(NotADistribution, match="^joint outcomes must have at least one coordinate$"):
        han_profile({(): 1.0})


def test_han_profile_monotone_on_random_functions_of_uniforms():
    """Distributions arising as functions of independent uniforms stay
    monotone; the bound is a theorem, so violations mean arithmetic bugs."""
    rng = random.Random(12321)
    for _ in range(1000):
        n = rng.randint(2, 4)
        alphabet = rng.randint(2, 3)
        source_size = rng.randint(2, 8)
        mapping = [
            tuple(rng.randrange(alphabet) for _ in range(n)) for _ in range(source_size)
        ]
        table = {}
        for outcome in mapping:
            table[outcome] = table.get(outcome, 0.0) + 1.0 / source_size
        han_profile(table)  # raises on violation
