"""Workload definitions: generated inputs, seeded relabelling, output checks.

Every workload is one `slnc` CLI command on one network.  The networks are
either combination networks C(n, k) built here (a source, n relays, one sink
per k-subset of relays) or fixture files.  A seed picks fresh names for
every node and channel; seed 0 keeps the canonical names.

The relabelling is order-preserving: the i-th smallest canonical name gets
the i-th smallest fresh name.  It therefore keeps the declaration order and
the order of every sorted channel set, so every seed does exactly the same
work and the program's output maps back to the canonical output byte for
byte.  This matters: `choose_secure_basis` stops scanning wiretap sets at
the first one that rejects a candidate, and on C(6,4)/GF(16) an arbitrary
permutation of the sorted set order moves its span-test count anywhere
between 5e4 and 1e7.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))

_NAME_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"
_WORD = re.compile(r"[A-Za-z0-9_]+")


def combination_network(n: int, k: int, q: int) -> str:
    """C(n, k) over GF(q) in the network text format, with canonical names.

    Channels are declared source edges first, then each sink's in-edges in
    turn.  Names are zero-padded so that sorted order equals declaration order.
    """
    subsets = list(itertools.combinations(range(1, n + 1), k))
    width = len(str(n + k * len(subsets)))
    sink_width = len(str(len(subsets)))
    lines = [f"field {q}", "source s"]
    lines += [f"sink t{i:0{sink_width}d}" for i in range(1, len(subsets) + 1)]
    edge = 0
    for relay in range(1, n + 1):
        edge += 1
        lines.append(f"edge e{edge:0{width}d} s v{relay}")
    for i, subset in enumerate(subsets, 1):
        for relay in subset:
            edge += 1
            lines.append(f"edge e{edge:0{width}d} v{relay} t{i:0{sink_width}d}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class NetworkShape:
    """The facts about a network text that the benchmark computes itself."""

    q: int
    source: str
    sinks: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]

    @classmethod
    def parse(cls, text: str) -> "NetworkShape":
        q, source, sinks, edges = 0, "", [], []
        for raw in text.splitlines():
            tokens = raw.split("#", 1)[0].split()
            if not tokens:
                continue
            if tokens[0] == "field":
                q = int(tokens[1])
            elif tokens[0] == "source":
                source = tokens[1]
            elif tokens[0] == "sink":
                sinks.append(tokens[1])
            elif tokens[0] == "edge":
                edges.append((tokens[1], tokens[2], tokens[3]))
        return cls(q, source, tuple(sinks), tuple(edges))

    def search_slots(self, dim: int) -> int:
        """Local-coefficient slots that `refute` enumerates for a code of dimension dim."""
        indegree: dict[str, int] = {}
        for _, _, head in self.edges:
            indegree[head] = indegree.get(head, 0) + 1
        return sum(dim if tail == self.source else indegree.get(tail, 0) for _, tail, _ in self.edges)


class Relabelling:
    """Seeded order-preserving renaming of every node and channel name."""

    def __init__(self, shape: NetworkShape, seed: int):
        names = sorted(
            {shape.source, *shape.sinks}
            | {node for _, tail, head in shape.edges for node in (tail, head)}
            | {eid for eid, _, _ in shape.edges}
        )
        if seed == 0:
            fresh = list(names)
        else:
            rng = random.Random(seed)
            drawn: set[str] = set()
            while len(drawn) < len(names):
                name = rng.choice(_NAME_ALPHABET[:26]) + "".join(
                    rng.choice(_NAME_ALPHABET) for _ in range(5)
                )
                # A digit keeps a name apart from every keyword of the formats.
                if any(c.isdigit() for c in name):
                    drawn.add(name)
            fresh = sorted(drawn)
        self.forward = dict(zip(names, fresh))
        self.inverse = {v: k for k, v in self.forward.items()}

    def apply(self, network_text: str) -> str:
        out = []
        for raw in network_text.splitlines():
            tokens = raw.split("#", 1)[0].split()
            if tokens and tokens[0] in ("source", "sink", "edge"):
                tokens = [tokens[0]] + [self.forward[t] for t in tokens[1:]]
            out.append(" ".join(tokens))
        return "\n".join(out) + "\n"

    def undo(self, text: str) -> str:
        """Map every name in a program output back to its canonical name."""
        return _WORD.sub(lambda m: self.inverse.get(m.group(0), m.group(0)), text)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Paths:
    network: Path
    artefact: Path  # bundle or code built in set-up
    output: Path  # file written by the timed command


@dataclass(frozen=True)
class Workload:
    """One CLI command on one network, with the facts its output must show."""

    name: str
    network: Callable[[Path], str]  # canonical network text, given the checkout root
    c_min: int
    omega: int
    r: int
    key_dim: int
    prepare: Callable[[Paths], list[list[str]]]  # CLI commands run in set-up
    command: Callable[[Paths], list[str]]
    check: Callable[["Workload", int, str, Paths, Relabelling], bool]
    budget: str | None  # oracle budget constant that bounds the enumeration, if any
    expected: dict = field(default_factory=dict)

    def facts(self, shape: NetworkShape) -> dict:
        """Instance facts computed from the generated network alone.

        input_space is what the command enumerates under `budget`: all
        q^(omega + key) inputs of the bundle for `secure` and `verify`, all
        q^slots local-coefficient assignments for `refute`.
        """
        facts = {
            "q": shape.q,
            "edges": len(shape.edges),
            "sinks": len(shape.sinks),
            "c_min": self.c_min,
            "binom": math.comb(len(shape.edges), self.r),
        }
        if self.budget == "DEFAULT_SEARCH_BUDGET":
            facts["input_space"] = shape.q ** shape.search_slots(self.omega + self.key_dim)
        elif self.budget == "DEFAULT_ENUM_BUDGET":
            facts["input_space"] = shape.q ** (self.omega + self.key_dim)
        return facts


def _fixture(name: str) -> Callable[[Path], str]:
    return lambda root: (root / "fixtures" / name).read_text(encoding="utf-8")


def _generated(n: int, k: int, q: int) -> Callable[[Path], str]:
    return lambda root: combination_network(n, k, q)


def _check_bundle(wl: Workload, returncode: int, stdout: str, paths: Paths, rl: Relabelling) -> bool:
    if returncode != 0 or stdout or not paths.output.is_file():
        return False
    bundle = rl.undo(paths.output.read_text(encoding="utf-8"))
    return sha256(bundle) == wl.expected["output_sha256"]


# Floating-point noise prints some zero leakages as `mi=-0.000000000`, and
# the same noise picks the `worst=` set among equal zeros.  Both are read as
# values, not bytes, so an exact leakage computation still passes the check.
_NEGATIVE_ZERO = re.compile(r"=-(0\.0+)(?=\s|$)")


def _check_verify(wl: Workload, returncode: int, stdout: str, paths: Paths, rl: Relabelling) -> bool:
    if returncode != 0 or not stdout:
        return False
    *sets, verdict = _NEGATIVE_ZERO.sub(r"=\1", rl.undo(stdout)).splitlines()
    return (
        len(sets) == wl.expected["set_lines"]
        and all(re.fullmatch(r"set \S+ mi=0\.000000000 pass", line) for line in sets)
        and sha256("\n".join(sets) + "\n") == wl.expected["set_lines_sha256"]
        and re.fullmatch(r"verdict pass worst=\S+ maxmi=0\.000000000", verdict) is not None
    )


def _check_stdout(wl: Workload, returncode: int, stdout: str, paths: Paths, rl: Relabelling) -> bool:
    return returncode == 0 and rl.undo(stdout) == wl.expected["stdout"] + "\n"


def _secure(p: Paths, r: int, out: Path) -> list[str]:
    return ["secure", str(p.network), "--omega", "1", "--r", str(r), "-o", str(out)]


def _build_workloads(size: str) -> dict[str, Workload]:
    full = size == "full"
    big = _generated(6, 4, 16) if full else _fixture("butterfly.net")
    big_cmin, big_r, big_dim = (4, 3, 4) if full else (2, 1, 2)
    small = _generated(5, 3, 11) if full else _fixture("butterfly.net")
    small_cmin, small_r = (3, 2) if full else (2, 1)
    refute_net = _fixture("butterfly.net" if full else "parallel3_gf2.net")
    refute_cmin = 2 if full else 3
    specs = [
        Workload(
            "secure", big, big_cmin, 1, big_r, big_r,
            prepare=lambda p: [],
            command=lambda p: _secure(p, big_r, p.output),
            check=_check_bundle,
            budget="DEFAULT_ENUM_BUDGET",
        ),
        Workload(
            "verify", small, small_cmin, 1, small_r, small_r,
            prepare=lambda p: [_secure(p, small_r, p.artefact)],
            command=lambda p: ["verify", str(p.artefact)],
            check=_check_verify,
            budget="DEFAULT_ENUM_BUDGET",
        ),
        Workload(
            "refute", refute_net, refute_cmin, 1, 1, 0,
            prepare=lambda p: [],
            command=lambda p: ["refute", str(p.network), "--omega", "1", "--r", "1", "--keydim", "0"],
            check=_check_stdout,
            budget="DEFAULT_SEARCH_BUDGET",
        ),
        Workload(
            "subset", big, big_cmin, 1, big_r, big_r,
            prepare=lambda p: [["construct", str(p.network), "--dim", str(big_dim), "-o", str(p.artefact)]],
            command=lambda p: [
                "enumerate", str(p.network), "--r", str(big_r), "--code", str(p.artefact), "--prop1"
            ],
            check=_check_stdout,
            budget=None,
        ),
    ]
    return {wl.name: replace(wl, expected=EXPECTED[size][wl.name]) for wl in specs}


WORKLOADS = _build_workloads("full")
SMOKE_WORKLOADS = _build_workloads("smoke")
