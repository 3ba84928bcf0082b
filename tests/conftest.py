import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import strategies as st

from slnc.errors import SlncError
from slnc import Matrix
from slnc.field import dot, rank_of_rows, standard_basis
from slnc.network import Network, parse_network

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
SWEEP_STEMS = ("butterfly", "butterfly_gf2", "parallel2_gf2", "parallel3_gf2", "parallel3_gf5")


def load_network(name: str) -> Network:
    return parse_network((FIXTURES / name).read_text(encoding="utf-8"))


def combination_network(n: int, k: int, q: int) -> Network:
    """C(n, k): source s, relays v1..vn, one sink per k-subset of relays,
    source channels declared first."""
    subsets = list(itertools.combinations(range(1, n + 1), k))
    lines = [f"field {q}", "source s"] + [f"sink t{i}" for i in range(1, len(subsets) + 1)]
    lines += [f"edge e{v} s v{v}" for v in range(1, n + 1)]
    eid = n
    for i, subset in enumerate(subsets, 1):
        for v in subset:
            eid += 1
            lines.append(f"edge e{eid} v{v} t{i}")
    return parse_network("\n".join(lines) + "\n")


@st.composite
def dag_networks(draw, q=5, max_extra=7):
    """Acyclic networks over GF(q) on nodes n0 (the source) .. n5, with a
    channel out of n0 and up to max_extra more.

    Channels run from a lower to a higher node, so parallel channels, sinks
    with out-channels and nodes with no in-channels all occur; sinks are
    drawn from the reachable nodes.

    With max_extra >= 6, half the draws on five or more nodes start instead
    from a path n0-a-b-c, the shortcut a-c beside it, a two-step detour
    n0-d-b around a and the channel n0-c, declared in a drawn order, with c
    the one sink.  Once a flow into b-c runs through a-b, the tail of a-c is
    reachable only over the reverse arc of a-b.
    """
    size = draw(st.integers(2, 6))
    pair = st.integers(0, size - 2).flatmap(lambda a: st.tuples(st.just(a), st.integers(a + 1, size - 1)))
    if max_extra >= 6 and size >= 5 and draw(st.booleans()):
        low, high, b, c = sorted(draw(st.sets(st.integers(1, size - 1), min_size=4, max_size=4)))
        a, d = draw(st.permutations([low, high]))
        pairs = draw(st.permutations([(0, a), (a, b), (b, c), (a, c), (0, d), (d, b), (0, c)]))
        pairs += draw(st.lists(pair, max_size=max_extra - 6))
        sinks = [c]
    else:
        first = draw(st.integers(1, size - 1))
        pairs = [(0, first)] + draw(st.lists(pair, max_size=max_extra))
        reached = {0}
        for a, b in sorted(pairs):
            if a in reached:
                reached.add(b)
        sinks = draw(st.lists(st.sampled_from(sorted(reached - {0})), min_size=1, max_size=3, unique=True))
    lines = [f"field {q}", "source n0"] + [f"sink n{t}" for t in sinks]
    lines += [f"edge c{i} n{a} n{b}" for i, (a, b) in enumerate(pairs, 1)]
    return parse_network("\n".join(lines) + "\n")


def reachable(net, removed, start):
    """The nodes reachable from start over the channels not in removed."""
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for e in net.edges:
            if e.tail != v or e.id in removed or e.head in seen:
                continue
            seen.add(e.head)
            stack.append(e.head)
    return seen


def brute_force_edge_set_cut(net, wiretapped):
    """Smallest edge set S protecting every member: a is protected when a is
    in S or its tail became unreachable."""
    ids = [e.id for e in net.edges]
    for size in range(len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            removed = set(combo)
            seen = reachable(net, removed, net.source)
            if all(
                a in removed or net.edge(a).tail not in seen
                for a in wiretapped
            ):
                return size
    return len(ids)


# Small networks on which the linear-form searches are held to their
# candidate-scan references: random DAGs, whose off-path channels and nodes
# with several in-channels vary the search, and combination networks, whose
# source channels search the whole of GF(q)^n.
SEARCH_FIELDS = (2, 3, 4, 5, 7, 8)
# The candidate scans try up to q^d tuples per channel or column, so the tests
# that compare against them stop at dimension 4 (at most 8^4 = 4,096 tuples);
# eight parallel channels over GF(8) would otherwise ask for 8^7 at the first.
SCAN_MAX_DIM = 4
small_networks = st.one_of(
    st.sampled_from(SEARCH_FIELDS).flatmap(lambda q: dag_networks(q=q)),
    st.builds(
        lambda n, k, q: combination_network(n, min(k, n - 1), q),
        st.integers(2, 5), st.integers(1, 4), st.sampled_from(SEARCH_FIELDS),
    ),
)


def vector_from_index(field, index: int, n: int) -> tuple[int, ...]:
    """Decode a base-q integer into a length-n vector, first coordinate least
    significant: the index order of the candidate-scan references."""
    digits = []
    for _ in range(n):
        index, rem = divmod(index, field.q)
        digits.append(rem)
    if index:
        raise ValueError("index out of range for the requested vector length")
    return tuple(digits)


def kernel_rank(code, edge_ids) -> int:
    """The rank of the kernels f_e of the given channels."""
    return rank_of_rows(code.field, [code.kernels[eid] for eid in edge_ids])


def identity(field, n: int) -> Matrix:
    """The n x n identity matrix over the field."""
    return Matrix(field, tuple(standard_basis(n, j) for j in range(n)))


def matrix_from_rows(field, rows) -> Matrix:
    """The matrix with the given rows, held as its columns."""
    return Matrix(field, tuple(zip(*rows)))


def random_invertible(field, n: int, rng) -> Matrix:
    """A uniformly drawn invertible n x n matrix: rows of rng draws, row-major,
    redrawn until the rank is n."""
    while True:
        m = matrix_from_rows(field, [[rng.randrange(field.q) for _ in range(n)] for _ in range(n)])
        if rank_of_rows(field, m.columns) == n:
            return m


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The product a b, column by column; mixed fields raise SlncError."""
    if a.field != b.field:
        raise SlncError(f"mixed fields {a.field} and {b.field}")
    rows = list(zip(*a.columns))
    return Matrix(a.field, tuple(tuple(dot(a.field, row, col) for row in rows) for col in b.columns))


def outcome(build):
    """What build() returns, or the type and message of the SlncError it raises."""
    try:
        return build()
    except SlncError as exc:
        return type(exc), str(exc)


def run_python(*args: str, timeout: float = 60.0) -> subprocess.CompletedProcess:
    """Run `python args` in a fresh interpreter that imports slnc from this tree.

    A command still running after `timeout` seconds raises TimeoutExpired,
    which fails the calling test instead of hanging the suite.
    """
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout)


def run_cli_process(*argv: str, optimize: bool = False, timeout: float = 60.0) -> subprocess.CompletedProcess:
    """Run `python [-O] -m slnc.cli argv` in a fresh interpreter."""
    flags = ["-O"] if optimize else []
    return run_python(*flags, "-m", "slnc.cli", *argv, timeout=timeout)


@pytest.fixture(scope="session")
def butterfly() -> Network:
    return load_network("butterfly.net")


@pytest.fixture(scope="session")
def butterfly_gf2() -> Network:
    return load_network("butterfly_gf2.net")


@pytest.fixture(scope="session")
def parallel2_gf2() -> Network:
    return load_network("parallel2_gf2.net")


@pytest.fixture(scope="session")
def parallel3_gf2() -> Network:
    return load_network("parallel3_gf2.net")


@pytest.fixture(scope="session")
def parallel3_gf5() -> Network:
    return load_network("parallel3_gf5.net")


@pytest.fixture(scope="session")
def fixture_sweep() -> tuple[subprocess.CompletedProcess, float]:
    """One run of `tools/cli_sweep.py` on the five fixtures in a fresh
    interpreter, shared by the tests that read its lines: the completed
    process and its wall time in seconds."""
    start = time.perf_counter()
    done = run_python(str(ROOT / "tools" / "cli_sweep.py"), str(ROOT), *SWEEP_STEMS)
    return done, time.perf_counter() - start
