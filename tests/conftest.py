import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from slnc.network import Network, parse_network

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


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


def run_cli_process(*argv: str, optimize: bool = False, timeout: float = 60.0) -> subprocess.CompletedProcess:
    """Run `python [-O] -m slnc.cli argv` in a fresh interpreter.

    A command still running after `timeout` seconds raises TimeoutExpired,
    which fails the calling test instead of hanging the suite.
    """
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, "-m", "slnc.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


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
