import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from slnc.errors import (
    DimensionMismatch,
    FieldMismatch,
    FieldTooSmall,
    InconsistentObservation,
    RateTooHigh,
    SecurityLevelTooLarge,
    UnknownSink,
)
from slnc import Matrix, c_min
from slnc.field import Echelon, rank_of_rows
from slnc.lnc import GlobalCode, construct_lnc
from slnc.network import parse_network
from slnc.oracle import verify_security
from slnc.secure import (
    SecureCodeBundle,
    build_secure_bundle,
    choose_secure_basis,
    decode_at_sink,
    encode_source,
    write_bundle,
)
from slnc.walk import enumerate_code_wiretap_sets
from conftest import (
    FIXTURES,
    SCAN_MAX_DIM,
    SEARCH_FIELDS,
    combination_network,
    load_network,
    matmul,
    matrix_from_rows,
    outcome,
    small_networks,
    vector_from_index,
)


# -- independent oracle for the greedy basis ----------------------------------

def _span(field, cols):
    vectors = set()
    for coeffs in itertools.product(field.elements(), repeat=len(cols)):
        vec = tuple(
            _combo_entry(field, coeffs, cols, i) for i in range(len(cols[0]))
        )
        vectors.add(vec)
    return vectors


def _combo_entry(field, coeffs, cols, i):
    acc = 0
    for c, col in zip(coeffs, cols):
        acc = field.add(acc, field.mul(c, col[i]))
    return acc


def greedy_basis_oracle(field, n, r, wiretap_kernel_sets):
    """Re-derive the greedy scan with brute-force span arithmetic only."""
    zero = (0,) * n
    cols = []
    for j in range(1, n + 1):
        for index in range(1, field.q**n):
            vec = vector_from_index(field, index, n)
            cand = cols + [vec]
            if len(_span(field, cand)) != field.q**j:
                continue  # not independent
            if j <= n - r:
                cand_span = _span(field, cand)
                if any(
                    (cand_span & _span(field, list(fa))) != {zero}
                    for fa in wiretap_kernel_sets
                ):
                    continue
            cols.append(vec)
            break
        else:
            raise AssertionError("oracle scan exhausted the field")
    return cols


def test_choose_secure_basis_matches_oracle_parallel_gf2(parallel3_gf2):
    code = construct_lnc(parallel3_gf2, 3)
    q_mat = choose_secure_basis(code, 1)
    kernel_sets = [
        tuple(code.kernels[eid] for eid in A)
        for A in enumerate_code_wiretap_sets(code, 1)
    ]
    oracle_cols = greedy_basis_oracle(code.field, 3, 1, kernel_sets)
    assert [q_mat.col(j) for j in range(3)] == oracle_cols
    # frozen values from the oracle run
    assert oracle_cols == [(1, 1, 0), (1, 0, 1), (1, 0, 0)]


def test_choose_secure_basis_matches_oracle_butterfly(butterfly):
    code = construct_lnc(butterfly, 2)
    q_mat = choose_secure_basis(code, 1)
    kernel_sets = [
        tuple(code.kernels[eid] for eid in A)
        for A in enumerate_code_wiretap_sets(code, 1)
    ]
    oracle_cols = greedy_basis_oracle(code.field, 2, 1, kernel_sets)
    assert [q_mat.col(j) for j in range(2)] == oracle_cols
    assert oracle_cols == [(2, 1), (1, 0)]


@pytest.mark.parametrize(
    "net_name, r, q_cols",
    [
        pytest.param("butterfly", 1, [(2, 1), (1, 0)], id="butterfly-r1"),
        pytest.param("parallel3_gf5", 2, [(1, 1, 1), (1, 0, 0), (0, 1, 0)], id="parallel3_gf5-r2"),
        # n - r = 2: the second column must avoid every span(F_A) together with the first
        pytest.param(
            "C(5,4)/GF(5)", 2, [(1, 0, 1, 0), (2, 1, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)], id="C54_gf5-r2"
        ),
    ],
)
def test_choose_secure_basis_condition(request, net_name, r, q_cols):
    if net_name == "C(5,4)/GF(5)":
        net = combination_network(5, 4, 5)
    else:
        net = request.getfixturevalue(net_name)
    n = c_min(net)
    code = construct_lnc(net, n)
    q_mat = choose_secure_basis(code, r)
    assert [q_mat.col(j) for j in range(n)] == q_cols  # the greedy scan's exact choice
    for A in enumerate_code_wiretap_sets(code, r):
        # Q's leading n - r columns and the r kernels of A span the whole space,
        # so their spans meet only at zero.
        assert rank_of_rows(code.field, [*q_cols[:n - r], *(code.kernels[eid] for eid in A)]) == n
    assert rank_of_rows(code.field, q_mat.columns) == n


def scan_choose_secure_basis(code: GlobalCode, r: int) -> Matrix:
    """The scan over every code wiretap set and every candidate column, kept as
    the reference the linear-form search of `choose_secure_basis` is checked against.

    Vectors of GF(q)^n are scanned in base-q integer order (first coordinate
    least significant).  Each of the first n - r columns is the smallest
    vector that keeps the prefix independent and its span disjoint from
    every wiretappable kernel span; the remaining columns just extend
    independence.  Raises FieldTooSmall if a column scan exhausts the field.
    """
    n = code.n
    field = code.field
    if not 1 <= r < n:
        raise SecurityLevelTooLarge(f"need 1 <= r < n = {n}, got {r}")
    # cols are independent and meet no span(F_A), and F_A has rank r, so column
    # j <= n - r may be vec exactly when vec lies outside span(cols + F_A). That
    # depends on A only through span(F_A): keep one echelon per distinct span,
    # keyed by its reduced basis, and extend it by each accepted column.
    # The r kernels of a code set are independent, so sets whose kernels agree
    # up to scaling span the same space; only a new such collection needs an
    # echelon.  Each kernel is scaled once, to a leading 1, by a one-row echelon.
    scaled = {eid: Echelon(field, n, [k]).basis() for eid, k in code.kernels.items()}
    seen: set[frozenset[tuple[tuple[int, ...], ...]]] = set()
    wiretap_spans: dict[tuple[tuple[int, ...], ...], Echelon] = {}
    for A in enumerate_code_wiretap_sets(code, r):
        key = frozenset([scaled[eid] for eid in A])
        if key in seen:
            continue
        seen.add(key)
        echelon = Echelon(field, n, [code.kernels[eid] for eid in A])
        wiretap_spans.setdefault(echelon.basis(), echelon)
    span = Echelon(field, n)
    cols: list[tuple[int, ...]] = []
    for j in range(1, n + 1):
        avoid = [span, *wiretap_spans.values()] if j <= n - r else [span]
        for index in range(1, field.q ** n):
            vec = vector_from_index(field, index, n)
            if all(any(echelon.reduce(vec)) for echelon in avoid):
                break
        else:
            raise FieldTooSmall(
                f"no column {j} of {n} exists over GF({field.q}); retry with a larger field"
            )
        for echelon in avoid:
            echelon.add(vec)
        cols.append(vec)
    return Matrix(field, tuple(cols))


def constructed_codes(net):
    """The network's constructed codes of every dimension from 2 up to
    SCAN_MAX_DIM; none when q < |T|."""
    dims = range(2, min(c_min(net), SCAN_MAX_DIM) + 1)
    return [construct_lnc(net, d) for d in dims] if net.field.q >= len(net.sinks) else []


@st.composite
def arbitrary_codes(draw):
    """One code with arbitrary kernels on parallel channels: the basis search
    reads only the kernels, and over small fields many kernels leave no column."""
    q = draw(st.sampled_from(SEARCH_FIELDS))
    n = draw(st.integers(2, SCAN_MAX_DIM))
    kernels = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * n), min_size=1, max_size=10))
    ids = [f"c{i}" for i in range(len(kernels))]
    net = parse_network("\n".join([f"field {q}", "source s", "sink t"] + [f"edge {c} s t" for c in ids]))
    return [GlobalCode(n=n, kernels=dict(zip(ids, kernels)), local_coeffs={}, network=net)]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.one_of(small_networks.map(constructed_codes), arbitrary_codes()))
def test_choose_secure_basis_matches_the_candidate_scan(codes):
    for code in codes:
        for r in range(1, code.n):
            assert outcome(lambda: choose_secure_basis(code, r)) == outcome(
                lambda: scan_choose_secure_basis(code, r)
            )


def test_choose_secure_basis_rejects_bad_level(butterfly):
    code = construct_lnc(butterfly, 2)
    with pytest.raises(SecurityLevelTooLarge):
        choose_secure_basis(code, 2)  # r = n
    with pytest.raises(SecurityLevelTooLarge):
        choose_secure_basis(code, 0)


def test_choose_secure_basis_field_too_small(butterfly_gf2):
    # over GF(2) every nonzero vector is some butterfly kernel, so no
    # secrecy-preserving column exists
    code = construct_lnc(butterfly_gf2, 2)
    with pytest.raises(FieldTooSmall):
        choose_secure_basis(code, 1)


# -- bundle building ------------------------------------------------------------

def test_benchmark_bundle_pinned():
    # The benchmark's secure workload: C(6,4)/GF(16) at omega=1, r=3.  Its
    # bundle must stay byte-identical across versions, not only across runs.
    bundle = build_secure_bundle(combination_network(6, 4, 16), 1, 3)
    digest = hashlib.sha256(write_bundle(bundle).encode()).hexdigest()
    assert digest == "124dd8c323abdb888ca5190fe89e8504ebccc3aa84d71d83079bcc111a54c38c"


def test_build_bundle_with_padding(parallel3_gf5):
    bundle = build_secure_bundle(parallel3_gf5, omega=1, r=1)
    assert (bundle.n, bundle.key_dim, len(bundle.constant)) == (3, 1, 1)
    assert bundle.constant == (0,)
    assert bundle.key_dim == 1
    assert bundle.constructively_certified


def test_build_bundle_at_capacity_boundary(butterfly):
    bundle = build_secure_bundle(butterfly, omega=1, r=1)
    assert (bundle.n, bundle.key_dim, len(bundle.constant)) == (2, 1, 0)


def test_build_bundle_imperfect(parallel3_gf5):
    bundle = build_secure_bundle(parallel3_gf5, omega=2, r=2, i=1)
    assert (bundle.key_dim, len(bundle.constant)) == (1, 0)
    assert bundle.basis_level == 1
    assert not bundle.constructively_certified


def test_bundles_built_below_level_r_leak_at_most_i():
    # With omega + r > n the basis is built at level r - i.  No set of r - i
    # channels leaks, and the chain rule bounds any larger set A of at most r
    # by its extra channels: I(M; Y_A) <= |A| - (r - i) <= i.
    nets = [load_network(path.name) for path in sorted(FIXTURES.glob("*.net"))]
    nets += [combination_network(4, 2, 7), combination_network(5, 3, 11)]
    built = 0
    for net in nets:
        n = c_min(net)
        for omega, r in itertools.product(range(1, n + 1), range(1, n)):
            for i in range(max(0, omega + r - n), r + 1):
                if omega + r <= n:
                    continue
                bundle = build_secure_bundle(net, omega, r, i)
                assert (bundle.basis_level, bundle.constructively_certified) == (r - i, False)
                report = verify_security(bundle)
                assert report.secure and report.decode_ok and report.max_mi <= i
                built += 1
    assert built == 16  # 11 on the fixtures


def test_build_bundle_validation(parallel3_gf5, butterfly):
    with pytest.raises(SecurityLevelTooLarge):
        build_secure_bundle(parallel3_gf5, omega=1, r=3)  # r = C_min
    with pytest.raises(SecurityLevelTooLarge):
        build_secure_bundle(parallel3_gf5, omega=1, r=0)
    with pytest.raises(SecurityLevelTooLarge):
        build_secure_bundle(parallel3_gf5, omega=1, r=1, i=2)
    with pytest.raises(RateTooHigh):
        build_secure_bundle(parallel3_gf5, omega=3, r=1)
    with pytest.raises(RateTooHigh):
        build_secure_bundle(butterfly, omega=2, r=1)
    with pytest.raises(RateTooHigh):
        build_secure_bundle(parallel3_gf5, omega=0, r=1)


def test_pipeline_over_extension_fields(butterfly):
    """The whole stack runs on binary extension fields, not just prime ones."""
    from slnc.network import parse_network, serialize_network
    from slnc.oracle import verify_security
    from slnc.secure import parse_bundle, write_bundle

    gf4_butterfly = parse_network(serialize_network(butterfly).replace("field 3", "field 4"))
    bundle = build_secure_bundle(gf4_butterfly, omega=1, r=1)
    report = verify_security(bundle)
    assert report.secure and report.decode_ok
    assert write_bundle(parse_bundle(write_bundle(bundle))) == write_bundle(bundle)

    net8 = parse_network(
        "field 8\nsource s\nsink t\n"
        + "".join(f"edge e{i} s t\n" for i in range(1, 5))
    )
    wide = build_secure_bundle(net8, omega=2, r=2)
    assert wide.key_dim == 2
    report8 = verify_security(wide)
    assert report8.secure and report8.decode_ok


# -- encoding ----------------------------------------------------------------------

def _brute_force_inverse_gf2(mat):
    """Search all 512 GF(2) 3x3 matrices for the inverse."""
    field = mat.field
    eye = Matrix.identity(field, 3)
    for bits in itertools.product((0, 1), repeat=9):
        cand = matrix_from_rows(field, [bits[0:3], bits[3:6], bits[6:9]])
        if matmul(mat, cand) == eye:
            return cand
    raise AssertionError("no inverse found")


def test_encode_frozen_symbols_parallel_gf2(parallel3_gf2):
    bundle = build_secure_bundle(parallel3_gf2, omega=1, r=1)
    symbols = encode_source(bundle, (1,), (1,))
    assert symbols == {"e1": 1, "e2": 0, "e3": 1}
    # independent recomputation via exhaustive matrix inversion
    field = bundle.field
    inv = _brute_force_inverse_gf2(bundle.mixing)
    x = (1, 0, 1)  # [message, constant, key]
    w = tuple(
        sum(x[i] * inv.col(j)[i] for i in range(3)) % 2 for j in range(3)
    )
    for j, eid in enumerate(["e1", "e2", "e3"]):
        expected = sum(w[i] * bundle.base.kernels[eid][i] for i in range(3)) % 2
        assert symbols[eid] == expected


def test_encode_zero_input_gives_zero_symbols(butterfly):
    bundle = build_secure_bundle(butterfly, omega=1, r=1)
    symbols = encode_source(bundle, (0,), (0,))
    assert set(symbols.values()) == {0}


def test_encode_is_linear(butterfly):
    bundle = build_secure_bundle(butterfly, omega=1, r=1)
    field = bundle.field
    base = encode_source(bundle, (1,), (2,))
    for alpha in field.elements():
        scaled = encode_source(bundle, (field.mul(alpha, 1),), (field.mul(alpha, 2),))
        assert scaled == {eid: field.mul(alpha, v) for eid, v in base.items()}


def test_encode_validation(butterfly):
    bundle = build_secure_bundle(butterfly, omega=1, r=1)
    with pytest.raises(DimensionMismatch):
        encode_source(bundle, (1, 2), (0,))
    with pytest.raises(DimensionMismatch):
        encode_source(bundle, (1,), ())
    with pytest.raises(FieldMismatch):
        encode_source(bundle, (3,), (0,))


# -- decoding ------------------------------------------------------------------------

def test_decode_round_trip_exhaustive(parallel3_gf2, butterfly):
    for net, omega in ((parallel3_gf2, 1), (butterfly, 1)):
        bundle = build_secure_bundle(net, omega=omega, r=1)
        field = bundle.field
        inputs = itertools.product(
            itertools.product(field.elements(), repeat=bundle.omega),
            itertools.product(field.elements(), repeat=bundle.key_dim),
        )
        for m, k in inputs:
            symbols = encode_source(bundle, m, k)
            for t in net.sinks:
                observed = {e.id: symbols[e.id] for e in net.in_edges(t)}
                assert decode_at_sink(bundle, t, observed) == (m, k)


def test_decode_zero_observation(butterfly):
    bundle = build_secure_bundle(butterfly, omega=1, r=1)
    observed = {e.id: 0 for e in butterfly.in_edges("t1")}
    assert decode_at_sink(bundle, "t1", observed) == ((0,), (0,))


def test_decode_validation(butterfly):
    bundle = build_secure_bundle(butterfly, omega=1, r=1)
    with pytest.raises(UnknownSink):
        decode_at_sink(bundle, "n4", {})
    with pytest.raises(DimensionMismatch):
        decode_at_sink(bundle, "t1", {"e6": 0})


def test_decode_rank_deficient_sink_is_inconsistent(parallel3_gf2):
    """A sink whose gain columns have rank below n cannot isolate the input,
    whatever symbols it sees."""
    base = construct_lnc(parallel3_gf2, 3)
    base.kernels.update({"e1": (1, 0, 0), "e2": (0, 1, 0), "e3": (1, 1, 0)})
    bundle = SecureCodeBundle(
        base=base,
        mixing=Matrix.identity(parallel3_gf2.field, 3),
        omega=1,
        r=1,
        i=0,
        constant=(0,),
    )
    assert bundle.decoders["t"].channels == ("e1", "e2")
    for symbols in itertools.product((0, 1), repeat=3):
        with pytest.raises(InconsistentObservation):
            decode_at_sink(bundle, "t", dict(zip(("e1", "e2", "e3"), symbols)))


def test_decode_overdetermined_sink_detects_inconsistency():
    """A sink with more inputs than the code dimension pins extra equations;
    corrupting the off-path channel breaks solvability outright."""
    from slnc.network import parse_network

    net = parse_network(
        "field 5\nsource s\nsink t\n"
        "edge e1 s a\nedge e2 s a\n"
        "edge e3 a t\nedge e4 a t\nedge e5 s t\nedge e6 a t\n"
    )
    bundle = build_secure_bundle(net, omega=1, r=1)
    assert bundle.base.kernels["e6"] == (0, 0, 0)  # off every flow path
    symbols = encode_source(bundle, (2,), (4,))
    in_ids = [e.id for e in net.in_edges("t")]
    assert len(in_ids) == 4 > bundle.n
    observed = {eid: symbols[eid] for eid in in_ids}
    assert decode_at_sink(bundle, "t", observed) == ((2,), (4,))
    corrupted = dict(observed)
    corrupted["e6"] = 1  # honest value is always 0
    with pytest.raises(InconsistentObservation):
        decode_at_sink(bundle, "t", corrupted)


def test_decode_detects_corruption_behind_padding(parallel3_gf5):
    """With a nonzero-length constant block, corrupted symbols either break
    consistency or decode to a different input; detections must occur."""
    bundle = build_secure_bundle(parallel3_gf5, omega=1, r=1)
    assert len(bundle.constant) == 1
    field = bundle.field
    m, k = (2,), (3,)
    symbols = encode_source(bundle, m, k)
    detections = 0
    trials = 0
    for eid in symbols:
        for delta in range(1, field.q):
            corrupted = dict(symbols)
            corrupted[eid] = field.add(corrupted[eid], delta)
            trials += 1
            try:
                got = decode_at_sink(bundle, "t", corrupted)
            except InconsistentObservation:
                detections += 1
            else:
                assert got != (m, k)
    assert trials == 12
    assert detections > 0
