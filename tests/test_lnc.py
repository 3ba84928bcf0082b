import hashlib
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from slnc import c_min
from slnc.errors import DimensionExceedsCapacity, FieldTooSmallForSinks, SecurityLevelTooLarge
from slnc.field import Echelon, combine, rank_of_rows
from slnc.lnc import (
    CodeValidityReport,
    GlobalCode,
    check_code_validity,
    construct_lnc,
    imaginary_ids,
    in_channel_ids,
    standard_basis,
    write_code,
)
from slnc.flow import edge_disjoint_paths
from slnc.network import Network, parse_network
from slnc.walk import enumerate_code_wiretap_sets, verify_subset_bound
from conftest import (
    FIXTURES,
    SCAN_MAX_DIM,
    brute_force_edge_set_cut,
    combination_network,
    dag_networks,
    kernel_rank,
    outcome,
    small_networks,
)


def sink_input_rank(code, t):
    net = code.network
    return kernel_rank(code, (e.id for e in net.in_edges(t)))


# -- construction -----------------------------------------------------------------

def test_construct_butterfly_gf3(butterfly):
    code = construct_lnc(butterfly, 2)
    assert kernel_rank(code, ["e8", "e6"]) == 2
    assert kernel_rank(code, ["e9", "e7"]) == 2
    assert check_code_validity(code) == CodeValidityReport({}, {})


def test_construct_parallel_identity(parallel3_gf2):
    code = construct_lnc(parallel3_gf2, 3)
    for j, eid in enumerate(["e1", "e2", "e3"]):
        assert code.kernels[eid] == standard_basis(3, j)


def test_construct_butterfly_gf2_boundary_field(butterfly_gf2):
    # q = |T| = 2 is the smallest field the flow-path method accepts
    code = construct_lnc(butterfly_gf2, 2)
    assert check_code_validity(code) == CodeValidityReport({}, {})
    for t in butterfly_gf2.sinks:
        assert sink_input_rank(code, t) == 2
    f = code.kernels
    assert f["e5"] == tuple(
        code.field.add(a, b) for a, b in zip(f["e3"], f["e4"])
    )


def test_construct_rejects_bad_dimension(butterfly):
    with pytest.raises(DimensionExceedsCapacity):
        construct_lnc(butterfly, 3)
    with pytest.raises(ValueError):
        construct_lnc(butterfly, 0)


def test_construct_rejects_small_field():
    from slnc.network import parse_network

    net = parse_network(
        "field 2\nsource s\nsink t1\nsink t2\nsink t3\n"
        "edge a s t1\nedge b s t2\nedge c s t3\n"
    )
    with pytest.raises(FieldTooSmallForSinks):
        construct_lnc(net, 1)


def test_construct_failure_is_a_typed_error(monkeypatch, butterfly, tmp_path, capsys):
    # q >= |T| rules the failure out, so the search is made to find nothing.
    from slnc.cli import main

    monkeypatch.setattr("slnc.lnc.first_outside", lambda *args: None)
    message = (
        "the flow-path construction found no coefficients for channel e1 over GF(3); "
        "this does not show that no code exists"
    )
    with pytest.raises(FieldTooSmallForSinks) as excinfo:
        construct_lnc(butterfly, 2)
    assert str(excinfo.value) == message
    path = tmp_path / "b.code"
    assert main(["construct", str(FIXTURES / "butterfly.net"), "--dim", "2", "-o", str(path)]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not path.exists()


def test_construct_is_deterministic(butterfly):
    a = write_code(construct_lnc(butterfly, 2))
    b = write_code(construct_lnc(butterfly, 2))
    assert a == b


@pytest.mark.parametrize(
    "net_name, dim, digest",
    [
        ("butterfly", 2, "9aa7e232152af19ebbb740af7f76d0a39989a32d59eab3eb63334c99d7197922"),
        ("parallel3_gf5", 3, "cac2cdde4a45a0d3184eb810a7f410112ed242f5029ae50bd6362c5e40373945"),
        ((5, 4, 5), 4, "46ffbfdca2adcab4559ed52ccdc72ab1f2428685f6c05208c90d2ab2295d2c23"),
        ((4, 3, 4), 3, "d7f5c7ee559c49bdc70665922338df50fb2d6e820d1941b2b7fb02e0c41dd493"),
        ((5, 3, 11), 3, "7c9c6201ec1cf688bd24e895d0825f88c24ce2eb3cb3307a4d034b2ce5dd889a"),
    ],
    ids=["butterfly", "parallel3_gf5", "C54_gf5", "C43_gf4", "C53_gf11"],
)
def test_construct_pinned(request, net_name, dim, digest):
    # The written code must stay byte-identical across versions, not only across runs.
    if isinstance(net_name, tuple):
        net = combination_network(*net_name)
    else:
        net = request.getfixturevalue(net_name)
    text = write_code(construct_lnc(net, dim))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def scan_construct_lnc(net: Network, n: int) -> GlobalCode:
    """The candidate scan over every coefficient tuple in product order, kept
    as the reference the linear-form search of `construct_lnc` is checked against.

    Requires n <= C_min and q >= |T|.  Edges on no flow path carry all-zero
    kernels; everything else follows the lexicographic coefficient search,
    so identical inputs reproduce identical codes byte for byte.
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

    imag = imaginary_ids(n)
    kernels: dict[str, tuple[int, ...]] = {
        d: standard_basis(n, j) for j, d in enumerate(imag)
    }
    zero = (0,) * n

    on_path: dict[str, list[tuple[str, int]]] = {}
    for t in net.sinks:
        for j, path in enumerate(edge_disjoint_paths(net, t, n)):
            for eid in path:
                on_path.setdefault(eid, []).append((t, j))
    frontier: dict[str, list[str]] = {t: list(imag) for t in net.sinks}

    local_coeffs: dict[tuple[str, str], int] = {}
    for edge in net.topo_edges():
        tail_in = in_channel_ids(net, n, edge.tail)
        uses = on_path.get(edge.id, ())
        if not uses:
            for d in tail_in:
                local_coeffs[(d, edge.id)] = 0
            kernels[edge.id] = zero
            continue
        tail_kernels = [kernels[d] for d in tail_in]
        # Each frontier has rank n, so f may take slot j exactly when it lies
        # outside the span of the slot's n - 1 other kernels.
        others = [
            Echelon(field, n, [kernels[d] for idx, d in enumerate(frontier[t]) if idx != j])
            for t, j in uses
        ]
        for assignment in itertools.product(field.elements(), repeat=len(tail_in)):
            f = combine(field, assignment, tail_kernels, n)
            if all(any(echelon.reduce(f)) for echelon in others):
                break
        else:
            # Unreachable for q >= |T|; the flow-path feasibility argument
            # guarantees a valid assignment exists.
            raise AssertionError(f"no feasible coefficients for channel {edge.id}")
        for coeff, d in zip(assignment, tail_in):
            local_coeffs[(d, edge.id)] = coeff
        kernels[edge.id] = f
        for t, j in uses:
            frontier[t][j] = edge.id

    real_kernels = {e.id: kernels[e.id] for e in net.edges}
    return GlobalCode(n=n, kernels=real_kernels, local_coeffs=local_coeffs, network=net)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(small_networks)
def test_construct_matches_the_candidate_scan(net):
    for d in range(1, min(c_min(net), SCAN_MAX_DIM) + 1):
        assert outcome(lambda: write_code(construct_lnc(net, d))) == outcome(
            lambda: write_code(scan_construct_lnc(net, d))
        )


def test_kernels_recompute_from_locals(butterfly):
    """Recomputing every kernel from the local coefficients in topological
    order reproduces the stored kernels exactly."""
    code = construct_lnc(butterfly, 2)
    field = code.field
    values = {d: standard_basis(2, j) for j, d in enumerate(["__s_1", "__s_2"])}
    for edge in butterfly.topo_edges():
        acc = (0, 0)
        for d in in_channel_ids(code.network, code.n, edge.tail):
            k = code.local_coeffs[(d, edge.id)]
            acc = tuple(
                field.add(x, field.mul(k, y)) for x, y in zip(acc, values[d])
            )
        values[edge.id] = acc
        assert acc == code.kernels[edge.id]


# -- validity reports ---------------------------------------------------------------

def test_validity_flags_corrupted_kernel(butterfly):
    code = construct_lnc(butterfly, 2)
    field = code.field
    bad = dict(code.kernels)
    kx, ky = bad["e8"]
    bad["e8"] = (field.add(kx, 1), ky)
    mutated = GlobalCode(
        n=2, kernels=bad, local_coeffs=code.local_coeffs, network=butterfly
    )
    report = check_code_validity(mutated)
    assert set(report.recursion_violations) == {"e8"}
    assert report.recursion_violations["e8"] != (0, 0)
    assert report != CodeValidityReport({}, {})


def test_validity_cascade_from_mid_graph_corruption(butterfly):
    # corrupting e5 also invalidates the recursion at its consumers e6, e7
    code = construct_lnc(butterfly, 2)
    field = code.field
    bad = dict(code.kernels)
    kx, ky = bad["e5"]
    bad["e5"] = (field.add(kx, 1), ky)
    mutated = GlobalCode(
        n=2, kernels=bad, local_coeffs=code.local_coeffs, network=butterfly
    )
    report = check_code_validity(mutated)
    assert set(report.recursion_violations) == {"e5", "e6", "e7"}


def test_validity_reports_sink_deficit(parallel3_gf2):
    # a repetition code: every channel carries the same coordinate
    kernels = {eid: standard_basis(2, 0) for eid in ("e1", "e2", "e3")}
    locals_ = {}
    for eid in kernels:
        locals_[("__s_1", eid)] = 1
        locals_[("__s_2", eid)] = 0
    code = GlobalCode(n=2, kernels=kernels, local_coeffs=locals_, network=parallel3_gf2)
    report = check_code_validity(code)
    assert report.sink_rank_deficits == {"t": 1}
    assert not report.recursion_violations


def test_code_and_report_are_read_only_records(butterfly):
    code = construct_lnc(butterfly, 2)
    report = check_code_validity(code)
    assert report == CodeValidityReport({}, {})
    with pytest.raises(AttributeError):
        code.kernels = {}
    with pytest.raises(AttributeError):
        report.sink_rank_deficits = {"t1": 1}
    assert code == construct_lnc(butterfly, 2)


def test_validity_accepts_zero_kernel_edges(butterfly):
    # an all-zero kernel with all-zero locals is consistent by convention
    code = construct_lnc(butterfly, 2)
    kernels = dict(code.kernels)
    kernels["e5"] = (0, 0)
    locals_ = dict(code.local_coeffs)
    locals_[("e3", "e5")] = 0
    locals_[("e4", "e5")] = 0
    locals_[("e5", "e6")] = 0
    locals_[("e5", "e7")] = 0
    kernels["e6"] = (0, 0)
    kernels["e7"] = (0, 0)
    mutated = GlobalCode(n=2, kernels=kernels, local_coeffs=locals_, network=butterfly)
    assert not check_code_validity(mutated).recursion_violations


# -- wiretap collections ---------------------------------------------------------------

def test_code_wiretap_sets_butterfly(butterfly):
    code = construct_lnc(butterfly, 2)
    coll = enumerate_code_wiretap_sets(code, 1)
    assert coll == tuple((f"e{i}",) for i in range(1, 10))


def zero_kernel_code(butterfly):
    """The butterfly's 2-dimensional code with channel e8's kernel zeroed."""
    code = construct_lnc(butterfly, 2)
    kernels = dict(code.kernels)
    kernels["e8"] = (0, 0)
    return GlobalCode(n=2, kernels=kernels, local_coeffs=code.local_coeffs, network=butterfly)


def test_code_wiretap_sets_exclude_zero_kernels(butterfly):
    coll = enumerate_code_wiretap_sets(zero_kernel_code(butterfly), 1)
    assert ("e8",) not in coll
    assert len(coll) == 8


def test_code_wiretap_sets_match_the_rank_filter(
    butterfly, butterfly_gf2, parallel2_gf2, parallel3_gf2, parallel3_gf5
):
    # The prefix walk must list exactly the full-rank r-sets, in the order of
    # itertools.combinations over the sorted ids.
    nets = (butterfly, butterfly_gf2, parallel2_gf2, parallel3_gf2, parallel3_gf5, combination_network(5, 3, 11))
    codes = [construct_lnc(net, n) for net in nets for n in range(1, c_min(net) + 1)]
    codes.append(zero_kernel_code(butterfly))
    for code in codes:
        ids = sorted(e.id for e in code.network.edges)
        for r in range(1, code.n):
            expected = tuple(
                combo
                for combo in itertools.combinations(ids, r)
                if rank_of_rows(code.field, [code.kernels[eid] for eid in combo]) == r
            )
            assert enumerate_code_wiretap_sets(code, r) == expected


def test_code_wiretap_sets_parallel_pairs(parallel3_gf2):
    code = construct_lnc(parallel3_gf2, 3)
    coll = enumerate_code_wiretap_sets(code, 2)
    assert coll == (("e1", "e2"), ("e1", "e3"), ("e2", "e3"))


def test_code_wiretap_sets_rejects_large_r(butterfly):
    code = construct_lnc(butterfly, 2)
    with pytest.raises(SecurityLevelTooLarge):
        enumerate_code_wiretap_sets(code, 2)


# -- subset bound -------------------------------------------------------------------

def test_subset_bound_butterfly(butterfly):
    code = construct_lnc(butterfly, 2)
    report = verify_subset_bound(code, 1)
    assert (report.subset_holds, report.code_count, report.cut_count, report.binomial) == (True, 9, 9, 9)


def test_subset_bound_parallel(parallel3_gf2):
    code = construct_lnc(parallel3_gf2, 3)
    report = verify_subset_bound(code, 2)
    assert (report.subset_holds, report.code_count, report.cut_count, report.binomial) == (True, 3, 3, 3)


def test_subset_bound_across_fixtures(
    butterfly, butterfly_gf2, parallel2_gf2, parallel3_gf2, parallel3_gf5
):
    for net in (butterfly, butterfly_gf2, parallel2_gf2, parallel3_gf2, parallel3_gf5):
        n = c_min(net)
        code = construct_lnc(net, n)
        for r in (1, 2):
            if r >= n:
                continue
            report = verify_subset_bound(code, r)
            assert report.subset_holds
            assert report.code_count <= report.cut_count <= report.binomial


def test_subset_bound_decides_the_last_channel_per_prefix(monkeypatch):
    # Each prefix state runs one residual scan, which decides every channel
    # and builds every child (a channel carrying no flow from the scan's tree,
    # with no search of its own), and each distinct span reduces each distinct
    # kernel once.  Deciding each candidate on its own took 40,943 augmenting
    # paths and 40,883 reductions here; one scan per (r-1)-prefix, with a
    # search per child, 4,766 scans, 3,006 augmenting paths and 2,234
    # reductions; one scan per state, 1,885 scans, of which 60 are the
    # augmenting paths of C_min, and 168 reductions.
    from slnc import flow, walk

    code = construct_lnc(combination_network(6, 4, 16), 4)
    calls = {"search": 0, "augment": 0, "reduce": 0}
    search, augment, reduce = flow._search, flow._augment, Echelon.reduce

    def counted_search(*args):
        calls["search"] += 1
        return search(*args)

    def counted_augment(*args):
        calls["augment"] += 1
        return augment(*args)

    def counted_reduce(self, v):
        calls["reduce"] += 1
        return reduce(self, v)

    for module in (flow, walk):  # walk's bindings are its own
        monkeypatch.setattr(module, "_search", counted_search)
        monkeypatch.setattr(module, "_augment", counted_augment)
    monkeypatch.setattr(Echelon, "reduce", counted_reduce)
    report = verify_subset_bound(code, 3)
    assert report.serialize() == "subset=true code=26620 cut=26620 binom=45760"
    assert calls["search"] <= 2_000
    assert 0 < calls["augment"] <= 200
    assert 0 < calls["reduce"] <= 400


@st.composite
def codes_on_dags(draw):
    """A code on a drawn DAG over GF(5): either `construct_lnc`'s, at a drawn
    dimension, or drawn kernels with no local coefficients, so that a rank-r
    set can fall outside the topology collection."""
    net = draw(dag_networks())
    if draw(st.booleans()):
        return construct_lnc(net, draw(st.integers(1, c_min(net))))
    n = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(0, net.field.q - 1)] * n)
    return GlobalCode(n=n, kernels={e.id: draw(vector) for e in net.edges}, local_coeffs={}, network=net)


# Channel c3 leaves a node with no in-channel, so its min cut is 0; a nonzero
# kernel still puts it in the code collection at r = 1.
UNREACHABLE_TAIL = GlobalCode(
    n=2,
    kernels={"c1": (1, 0), "c2": (0, 1), "c3": (1, 1)},
    local_coeffs={},
    network=parse_network("field 5\nsource n0\nsink n1\nedge c1 n0 n1\nedge c2 n0 n1\nedge c3 n2 n1\n"),
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(codes_on_dags())
@example(UNREACHABLE_TAIL)
def test_subset_bound_matches_brute_force(code):
    # The report is set inclusion of the rank-r sets in the min-cut-r sets,
    # each collection counted from itertools.combinations; the code-side r
    # check comes before the C_min one.
    net, cmin = code.network, c_min(code.network)
    ids = sorted(e.id for e in net.edges)
    for r in range(max(code.n, cmin) + 1):
        if not 1 <= r < code.n:
            expected = (SecurityLevelTooLarge, f"need 1 <= r < n = {code.n}, got {r}")
        elif r >= cmin:
            expected = (SecurityLevelTooLarge, f"security level must satisfy 1 <= r < C_min = {cmin}, got {r}")
        else:
            combos = list(itertools.combinations(ids, r))
            rank_sets = {A for A in combos if rank_of_rows(code.field, [code.kernels[e] for e in A]) == r}
            cut_sets = {A for A in combos if brute_force_edge_set_cut(net, A) == r}
            expected = (rank_sets <= cut_sets, len(rank_sets), len(cut_sets), len(combos))
        assert outcome(lambda: verify_subset_bound(code, r)) == expected
    if code is UNREACHABLE_TAIL:
        assert verify_subset_bound(code, 1).serialize() == "subset=false code=3 cut=2 binom=3"


def test_rank_bounded_by_cut(butterfly):
    """rank(F_A) never exceeds min(|A|, mincut(s, A))."""
    import itertools as it

    from slnc import min_cut_to_edges

    code = construct_lnc(butterfly, 2)
    ids = sorted(e.id for e in butterfly.edges)
    for size in (1, 2):
        for combo in it.combinations(ids, size):
            rank = kernel_rank(code, combo)
            assert rank <= min(len(combo), min_cut_to_edges(butterfly, combo))
