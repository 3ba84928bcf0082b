import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from slnc.errors import (
    CycleDetected,
    DuplicateEdgeId,
    EmptySet,
    ParseError,
    SecurityLevelTooLarge,
    UnknownEdge,
    UnknownSink,
    UnreachableSink,
)
from slnc import c_min, flow, min_cut_to_edges, min_cut_to_sink, refute_key_rate
from slnc.field import FieldSpec
from slnc.flow import _augment, _search, edge_disjoint_paths
from slnc.network import (
    Edge,
    Network,
    integers,
    parse_network,
    serialize_network,
)
from slnc.oracle import verify_security
from slnc.secure import build_secure_bundle, parse_bundle, write_bundle
from slnc.walk import (
    bit_indices,
    cut_family,
    downward_closed_prefixes,
    downward_closed_subsets,
    enumerate_topology_wiretap_sets,
    span_family,
)
from conftest import FIXTURES, brute_force_edge_set_cut, combination_network, dag_networks, reachable


# -- brute-force oracles -------------------------------------------------------

def brute_force_sink_cut(net, t):
    """Smallest edge set whose removal disconnects the source from t."""
    ids = [e.id for e in net.edges]
    for size in range(len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            if t not in reachable(net, set(combo), net.source):
                return size
    return len(ids)


# -- parsing --------------------------------------------------------------------

def test_parse_butterfly_fixture(butterfly):
    assert len(butterfly.edges) == 9
    assert butterfly.sinks == ("t1", "t2")
    assert butterfly.source == "s"
    assert butterfly.field.q == 3


def test_parse_round_trip(butterfly):
    text = serialize_network(butterfly)
    again = parse_network(text)
    assert serialize_network(again) == text


def test_parse_allows_comments_and_blank_lines():
    net = parse_network(
        """
        # tiny network
        field 2
        source s
        sink t   # the only sink
        edge a s t
        """
    )
    assert [e.id for e in net.edges] == ["a"]


def test_parse_rejects_two_cycle():
    text = "field 2\nsource s\nsink t\nedge a s x\nedge b x y\nedge c y x\nedge d x t\n"
    with pytest.raises(CycleDetected):
        parse_network(text)


def test_parse_rejects_missing_sinks():
    with pytest.raises(ParseError):
        parse_network("field 2\nsource s\nedge a s t\n")
    with pytest.raises(ParseError, match="^at least one sink is required$"):
        Network(FieldSpec(2), [Edge("a", "s", "t")], "s", [])


def test_parse_rejects_duplicate_edge_ids():
    with pytest.raises(DuplicateEdgeId):
        parse_network("field 2\nsource s\nsink t\nedge a s t\nedge a s t\n")


def test_parse_rejects_unreachable_sink():
    with pytest.raises(UnreachableSink):
        parse_network("field 2\nsource s\nsink t\nsink u\nedge a s t\n")


@st.composite
def sinks_anywhere(draw):
    """(text, sinks, reached) for a dag_networks-style draw whose one to three
    sinks are any nodes but the source, reached or not; `reached` is what
    conftest.reachable finds from n0 on the same channels."""
    size = draw(st.integers(2, 6))
    pair = st.integers(0, size - 2).flatmap(lambda a: st.tuples(st.just(a), st.integers(a + 1, size - 1)))
    first = draw(st.integers(1, size - 1))
    pairs = [(0, first)] + draw(st.lists(pair, max_size=7))
    edges = [f"edge c{i} n{a} n{b}" for i, (a, b) in enumerate(pairs, 1)]
    sinks = draw(st.lists(st.integers(1, size - 1), min_size=1, max_size=3, unique=True))
    probe = parse_network("\n".join(["field 5", "source n0", f"sink n{first}", *edges]))
    text = "\n".join(["field 5", "source n0", *[f"sink n{t}" for t in sinks], *edges])
    return text, sinks, reachable(probe, set(), "n0")


@settings(max_examples=200, derandomize=True, deadline=None)
@given(sinks_anywhere())
def test_parse_rejects_exactly_the_unreachable_sinks(case):
    text, sinks, reached = case
    missed = [f"n{t}" for t in sinks if f"n{t}" not in reached]
    if missed:
        with pytest.raises(UnreachableSink, match=f"sink {missed[0]} is unreachable from n0"):
            parse_network(text)
    else:
        assert parse_network(text).sinks == tuple(f"n{t}" for t in sinks)


def test_parse_rejects_incoming_source_edge():
    with pytest.raises(ParseError):
        parse_network("field 2\nsource s\nsink t\nedge a s t\nedge b t s\n")


def test_parse_rejects_unknown_keyword_and_bad_field():
    with pytest.raises(ParseError):
        parse_network("field 2\nsource s\nsink t\nedge a s t\nnoise x\n")
    with pytest.raises(ParseError):
        parse_network("field 6\nsource s\nsink t\nedge a s t\n")


@pytest.mark.parametrize("token", ["+3", "03", "-0", "3_0", "\u0663", "\uff13", "3.0"])
def test_field_size_must_be_a_canonical_decimal(token):
    # int() reads all but the last; each would be written back differently.
    with pytest.raises(ParseError, match=r"^line 1: field size must be an integer$"):
        parse_network(f"field {token}\nsource s\nsink t\nedge a s t\n")


@given(st.one_of(st.integers(-10**30, 10**30).map(str), st.text(alphabet="+-_0123456789\u0663 ", max_size=5)))
def test_integers_accept_exactly_the_text_they_write_back(token):
    try:
        canonical = str(int(token)) == token
    except ValueError:
        canonical = False
    if canonical:
        assert integers([token], "bad") == (int(token),)
    else:
        with pytest.raises(ParseError, match="^bad$"):
            integers(["1", token], "bad")


def test_parse_rejects_reserved_edge_prefix():
    with pytest.raises(ParseError):
        parse_network("field 2\nsource s\nsink t\nedge __s_1 s t\n")


@st.composite
def shuffled_dag_texts(draw):
    """A dag_networks draw written out with its sink and edge lines shuffled,
    so neither the node order of first mention nor the declaration order
    follows the topological order."""
    lines = serialize_network(draw(dag_networks())).splitlines()
    return "\n".join(lines[:2] + draw(st.permutations(lines[2:])))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(shuffled_dag_texts())
def test_construction_walk_orders_the_channels_and_builds_no_flow_arcs(text):
    net = parse_network(text)
    # Reference: Kahn's node order, ready nodes first in order of first
    # mention, then channels by (tail's position, declaration index).
    waiting = {v: sum(e.head == v for e in net.edges) for v in net.nodes}
    order = [v for v in net.nodes if not waiting[v]]
    for v in order:
        for e in net.edges:
            if e.tail == v:
                waiting[e.head] -= 1
                if not waiting[e.head]:
                    order.append(e.head)
    decl = {e.id: i for i, e in enumerate(net.edges)}
    assert net.topo_edges() == sorted(net.edges, key=lambda e: (order.index(e.tail), decl[e.id]))
    # Only a flow builds the arcs: parsing, refuting and verifying run none.
    assert "_arcs" not in net.__dict__
    refute_key_rate(net, omega=1, r=1, key_dim=0, budget=10**40)
    assert "_arcs" not in net.__dict__
    with mock.patch.object(flow, "_Arcs", wraps=flow._Arcs) as built:
        capacity = c_min(net)
        assert c_min(net) == capacity and built.call_count == 1
    if capacity >= 2:
        bundle = parse_bundle(write_bundle(build_secure_bundle(net, omega=1, r=1)))
        verify_security(bundle)
        assert "_arcs" not in bundle.network.__dict__


# -- min cuts ---------------------------------------------------------------------

def test_min_cut_to_sink_butterfly(butterfly):
    for t in butterfly.sinks:
        assert min_cut_to_sink(butterfly, t) == 2
        assert brute_force_sink_cut(butterfly, t) == 2


def test_min_cut_to_sink_parallel_and_chain(parallel3_gf2):
    assert min_cut_to_sink(parallel3_gf2, "t") == 3
    chain = parse_network("field 2\nsource s\nsink t\nedge a s x\nedge b x t\n")
    assert min_cut_to_sink(chain, "t") == 1


def test_min_cut_unknown_sink(butterfly):
    with pytest.raises(UnknownSink):
        min_cut_to_sink(butterfly, "n1")


def test_c_min_examples(butterfly, parallel3_gf2):
    assert c_min(butterfly) == 2
    assert c_min(parallel3_gf2) == 3
    mixed = parse_network(
        "field 2\nsource s\nsink t1\nsink t2\n"
        "edge a s t1\nedge b s t1\nedge c s t1\n"
        "edge d s t2\nedge e s t2\n"
    )
    assert min_cut_to_sink(mixed, "t1") == 3
    assert min_cut_to_sink(mixed, "t2") == 2
    assert c_min(mixed) == 2


def test_min_cut_to_edges_butterfly(butterfly):
    assert min_cut_to_edges(butterfly, ["e5"]) == 1
    assert min_cut_to_edges(butterfly, ["e1", "e2"]) == 2
    # e3 and e5 admit two edge-disjoint access paths (via e1 and via e2-e4),
    # confirmed by the exhaustive cut oracle
    assert min_cut_to_edges(butterfly, ["e3", "e5"]) == 2
    for ids in (["e5"], ["e1", "e2"], ["e3", "e5"], ["e6", "e7"], ["e8", "e9"]):
        assert min_cut_to_edges(butterfly, ids) == brute_force_edge_set_cut(butterfly, ids)


def test_min_cut_to_edges_validation(butterfly):
    with pytest.raises(EmptySet):
        min_cut_to_edges(butterfly, [])
    with pytest.raises(UnknownEdge):
        min_cut_to_edges(butterfly, ["zz"])


def test_min_cut_to_edges_agrees_with_oracle_on_random_sets(butterfly):
    rng = random.Random(7)
    ids = [e.id for e in butterfly.edges]
    for _ in range(25):
        sample = rng.sample(ids, rng.randint(1, 3))
        assert min_cut_to_edges(butterfly, sample) == brute_force_edge_set_cut(
            butterfly, sample
        )


def test_min_cut_to_edges_of_sink_inputs_matches_sink_cut(butterfly):
    for t in butterfly.sinks:
        in_ids = [e.id for e in butterfly.in_edges(t)]
        assert min_cut_to_edges(butterfly, in_ids) == min_cut_to_sink(butterfly, t)


def test_min_cut_to_edges_monotone_and_bounded(butterfly):
    rng = random.Random(11)
    ids = [e.id for e in butterfly.edges]
    for _ in range(25):
        small = rng.sample(ids, rng.randint(1, 2))
        extra = rng.sample([i for i in ids if i not in small], rng.randint(1, 2))
        big = small + extra
        assert min_cut_to_edges(butterfly, small) <= min_cut_to_edges(butterfly, big)
        assert min_cut_to_edges(butterfly, big) <= len(big)


def test_edge_disjoint_paths_are_disjoint_and_deterministic(butterfly):
    first = edge_disjoint_paths(butterfly, "t1", 2)
    second = edge_disjoint_paths(butterfly, "t1", 2)
    assert first == second
    used = [eid for path in first for eid in path]
    assert len(used) == len(set(used))
    for path in first:
        assert butterfly.edge(path[0]).tail == "s"
        assert butterfly.edge(path[-1]).head == "t1"


# construct_lnc and every bundle are built on these exact paths, so a change in
# the order the flow explores arcs must show up here.
PINNED_PATHS = {
    "butterfly": {
        ("t1", 1): [["e1", "e8"]],
        ("t1", 2): [["e1", "e8"], ["e2", "e4", "e5", "e6"]],
        ("t2", 1): [["e2", "e9"]],
        ("t2", 2): [["e1", "e3", "e5", "e7"], ["e2", "e9"]],
    },
    "C(4,2)/GF(5)": {
        ("t1", 1): [["e1", "e5"]],
        ("t1", 2): [["e1", "e5"], ["e2", "e6"]],
        ("t2", 1): [["e1", "e7"]],
        ("t2", 2): [["e1", "e7"], ["e3", "e8"]],
        ("t3", 1): [["e1", "e9"]],
        ("t3", 2): [["e1", "e9"], ["e4", "e10"]],
        ("t4", 1): [["e2", "e11"]],
        ("t4", 2): [["e2", "e11"], ["e3", "e12"]],
        ("t5", 1): [["e2", "e13"]],
        ("t5", 2): [["e2", "e13"], ["e4", "e14"]],
        ("t6", 1): [["e3", "e15"]],
        ("t6", 2): [["e3", "e15"], ["e4", "e16"]],
    },
}


def test_edge_disjoint_paths_pinned(butterfly):
    nets = {"butterfly": butterfly, "C(4,2)/GF(5)": combination_network(4, 2, 5)}
    for name, net in nets.items():
        got = {
            (t, count): edge_disjoint_paths(net, t, count)
            for t in net.sinks
            for count in range(1, min_cut_to_sink(net, t) + 1)
        }
        assert got == PINNED_PATHS[name], name


@st.composite
def small_dags(draw):
    """A drawn network (see conftest.dag_networks) with up to 4 nonempty channel sets."""
    net = draw(dag_networks())
    edge_sets = st.lists(st.sampled_from([e.id for e in net.edges]), min_size=1, unique=True)
    return net, draw(st.lists(edge_sets, min_size=1, max_size=4))


# The first augmenting path s-a-b-t takes c1 and c3, and only undoing c3
# lets the second path s-e-b-a-d-t through: a flow with no reverse arcs stops at 1.
NEEDS_REVERSE_ARC = parse_network(
    "field 5\nsource s\nsink t\nedge c1 s a\nedge c2 s e\nedge c3 a b\n"
    "edge c4 a d\nedge c5 e b\nedge c6 b t\nedge c7 d t\n"
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(small_dags())
@example((NEEDS_REVERSE_ARC, [["c6", "c7"]]))
def test_flows_agree_with_brute_force_on_random_dags(case):
    net, edge_sets = case
    for t in net.sinks:
        cut = min_cut_to_sink(net, t)
        assert cut == brute_force_sink_cut(net, t)
        paths = edge_disjoint_paths(net, t, cut)
        used = [eid for path in paths for eid in path]
        assert len(paths) == cut and len(used) == len(set(used))
        for path in paths:
            nodes = [net.source] + [net.edge(eid).head for eid in path]
            assert [net.edge(eid).tail for eid in path] == nodes[:-1]
            assert nodes[-1] == t
        with pytest.raises(ValueError):
            edge_disjoint_paths(net, t, cut + 1)
    assert c_min(net) == min(brute_force_sink_cut(net, t) for t in net.sinks)
    for wiretapped in edge_sets:
        assert min_cut_to_edges(net, wiretapped) == brute_force_edge_set_cut(net, wiretapped)


# -- wiretap enumeration ------------------------------------------------------------

def test_enumerate_topology_butterfly_singletons(butterfly):
    coll = enumerate_topology_wiretap_sets(butterfly, 1)
    assert coll == tuple((f"e{i}",) for i in range(1, 10))


def test_enumerate_topology_parallel_pairs(parallel3_gf2):
    coll = enumerate_topology_wiretap_sets(parallel3_gf2, 2)
    assert coll == (("e1", "e2"), ("e1", "e3"), ("e2", "e3"))


# Three parallel paths s-a-b-t whose ids sort against the flow: a prefix's
# flow runs through the upstream channels the walk adds later, so extending
# {c1} by c4 must first drop the rest of c4's path.
AGAINST_TOPOLOGICAL_ORDER = parse_network(
    "field 5\nsource s\nsink t\n"
    + "".join(f"edge c{i} s a\n" for i in (7, 8, 9))
    + "".join(f"edge c{i} a b\n" for i in (4, 5, 6))
    + "".join(f"edge c{i} b t\n" for i in (1, 2, 3))
)


# The prefix {c3}'s flow takes the shortest path s-a-b-c, through c1 and c2, so
# the last candidate c6 (a to c, carrying no flow) has its tail a reachable only
# along s-d-b and then back over c2's reverse arc: {c3, c6} has min cut 2.
TAIL_BEHIND_REVERSE_ARC = parse_network(
    "field 5\nsource s\nsink c\nedge c1 s a\nedge c2 a b\nedge c3 b c\n"
    "edge c4 s d\nedge c5 d b\nedge c6 a c\nedge c7 s c\n"
)

# The prefix {c1} saturates the only channel into u, so the tail of c2 is
# unreachable in its residual graph: {c1, c2} has min cut 1.
TAIL_UNREACHABLE = parse_network(
    "field 5\nsource s\nsink t\nedge c1 s u\nedge c2 u t\nedge c3 s t\nedge c4 s t\n"
)

# The prefix {c3}'s flow runs through c4, whose tail s is always reachable, yet
# c4 feeds only c3: {c3, c4} has min cut 1, so a channel carrying flow is not
# decided by reachability.
IN_SERIES_WITH_PREFIX = parse_network(
    "field 5\nsource s\nsink t\nedge c1 s t\nedge c2 s t\nedge c3 u t\nedge c4 s u\n"
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(dag_networks())
@example(AGAINST_TOPOLOGICAL_ORDER)
@example(TAIL_BEHIND_REVERSE_ARC)
@example(TAIL_UNREACHABLE)
@example(IN_SERIES_WITH_PREFIX)
def test_topology_wiretap_sets_match_brute_force(net):
    ids = sorted(e.id for e in net.edges)
    for r in range(1, c_min(net)):
        expected = tuple(
            combo for combo in itertools.combinations(ids, r) if brute_force_edge_set_cut(net, combo) == r
        )
        assert enumerate_topology_wiretap_sets(net, r) == expected


@settings(max_examples=150, derandomize=True, deadline=None)
@given(dag_networks())
@example(AGAINST_TOPOLOGICAL_ORDER)  # at r = 2, {c1}'s flow runs through c4 and c7, which both extend it
@example(TAIL_BEHIND_REVERSE_ARC)
def test_cut_children_are_the_flows_augment_builds(net):
    # A child that adds a channel carrying no flow is built from the prefix's
    # search tree, with no BFS of its own: it must equal the prefix's flow
    # redirected and pushed by `_augment`.  Every child, the ones adding a
    # flow-carrying channel too, is a maximum flow that saturates each of its
    # channels, and its mask names exactly the channels that carry flow.
    arcs = net._arcs
    ids = sorted(e.id for e in net.edges)
    for r in range(1, c_min(net)):
        root, step = cut_family(net, r)
        for k, prefix, (to, cap, busy) in downward_closed_prefixes(ids, r, root, step):
            mask, child = step((to, cap, busy), k)
            for j in bit_indices(mask):
                to_j, cap_j, busy_j = child(j)
                if not busy >> j & 1:
                    pushed_to, pushed_cap = to[:], cap[:]
                    pushed_to[2 * j] = arcs.target
                    assert _augment(arcs, pushed_to, pushed_cap)
                    assert (to_j, cap_j) == (pushed_to, pushed_cap)
                assert busy_j == sum(1 << i for i in range(len(ids)) if not cap_j[2 * i])
                assert all(to_j[2 * arcs.channel[eid]] == arcs.target for eid in (*prefix, ids[j]))
                assert all(busy_j >> arcs.channel[eid] & 1 for eid in (*prefix, ids[j]))
                assert _search(arcs, to_j, cap_j)[arcs.target] is None


def test_cut_step_extends_a_prefix_by_a_channel_that_carries_its_flow():
    ids = sorted(e.id for e in AGAINST_TOPOLOGICAL_ORDER.edges)
    root, step = cut_family(AGAINST_TOPOLOGICAL_ORDER, 2)
    k, prefix, state = next(downward_closed_prefixes(ids, 2, root, step))
    assert prefix == ("c1",)
    flowing = [ids[j] for j in bit_indices(state[2] & step(state, k)[0])]
    assert flowing == ["c4", "c7"]


@pytest.mark.parametrize("r", [1, 2, 3])
def test_fewer_items_than_r_give_no_subset(r):
    # The room left for the rest of a set goes negative here; the walk must
    # still end with nothing, for a family that takes every set and for
    # independent vectors (the basis search walks its directions this way).
    for count in range(r):
        items = list(range(count))
        every = (None, lambda state, k: ((1 << count) - 1 & -1 << k, lambda j: state))
        assert list(downward_closed_subsets(items, r, every)) == []
        vectors = [tuple(int(i == j) for i in range(r + 1)) for j in items]
        assert list(downward_closed_subsets(items, r, span_family(FieldSpec(5), r + 1, r, vectors))) == []


def test_enumerate_topology_rejects_large_r(butterfly, parallel3_gf2):
    with pytest.raises(SecurityLevelTooLarge):
        enumerate_topology_wiretap_sets(butterfly, 2)  # r = c_min
    with pytest.raises(SecurityLevelTooLarge):
        enumerate_topology_wiretap_sets(parallel3_gf2, 0)


def test_enumeration_independent_of_declaration_order():
    base = (FIXTURES / "butterfly.net").read_text().splitlines()
    header = [ln for ln in base if not ln.startswith("edge")]
    edges = [ln for ln in base if ln.startswith("edge")]
    rng = random.Random(3)
    for _ in range(5):
        rng.shuffle(edges)
        net = parse_network("\n".join(header + edges) + "\n")
        coll = enumerate_topology_wiretap_sets(net, 1)
        assert coll == tuple((f"e{i}",) for i in range(1, 10))


def test_cardinality_bound(butterfly):
    import math

    coll = enumerate_topology_wiretap_sets(butterfly, 1)
    assert len(coll) <= math.comb(len(butterfly.edges), 1)
