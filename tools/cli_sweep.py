"""Run a fixed list of slnc CLI cases in-process and print one hash per case.

    PYTHONPATH=/path/to/tree-a/src python tools/cli_sweep.py ROOT > a.txt
    PYTHONPATH=/path/to/tree-b/src python tools/cli_sweep.py ROOT > b.txt
    diff a.txt b.txt

ROOT is a checkout whose `fixtures/` directory supplies the fixture
networks; the package under test is whichever `slnc` is importable.  Name
networks after ROOT (fixture stems such as `butterfly`, `c5_3_gf8`,
`dag07`) to run only those.

The networks are the fixtures, eight combination networks C(n,k) over GF(q)
(C(3,2)/GF(131) keeps the oracle's tuple columns, and C(4,2)/GF(256) takes
its widest byte lanes), 40 seeded random DAGs over GF(2..5) whose channel ids and edge lines
are shuffled against the topological order, and 10 denser seeded DAGs
(7 or 8 nodes, up to 14 channels, C_min >= 4) whose source channels share
relays, so the wiretap walks reach r = 3 with prefixes whose flows carry
the later channels.  The commands on each are
`mincut` (overall, per sink, and `--edges` with the first channel and with
all of them), `construct` at dimension 0..5, topology-only `enumerate` at
every r from 0 to C_min + 1, `enumerate --code` and `--prop1` with the code
of C_min and of every dimension constructed, at the same r (so r also falls
between the code's dimension and C_min), `secure`
for every omega up to C_min + 1, r <= 3 and every i, with `verify`, `verify --fast`,
`simulate --seed 7` and, when the key is not empty, `simulate --key` on each
bundle built, and `refute` at omega <= 2,
r <= 3 (r <= 5 on the fixtures) and every keydim < r with budget 200,000;
on the fixtures also `refute --omega 1 --r 1 --keydim 0` with the default
budget, `refute --omega 0`, and the usage errors (`mincut --sink` with
`--edges`, `enumerate --prop1` without `--code`, `refute --budget 0`,
`simulate` with neither `--key` nor `--seed`), and on `butterfly`
`refute --omega 1` at r=2, keydim=1 and at r=3, keydim=2 with budget
5,000,000, whose spaces the smaller budget refuses.
Each fixture's C_min code and its omega=1, r=1 bundle are also written with
one fault at a time (a dropped `kernel` line, an unknown
keyword, a `+`-signed kernel entry, a stray `codex` line, a `local` line
from a channel to itself, `code n=0`, a repeated `local` line where the file
has one, a repeated `secure` line, a Q block one row short, a non-integer Q
row, a zero-padded Q entry, no `const` line, a Q row one entry short, a
`const` line one symbol long, a `keydim` one above r - i, Q replaced by the
identity, a sink whose last in-channel carries the zero kernel) and passed
to `enumerate --code`, and to `verify` and `simulate`, and each fixture
network is written with one fault per error that `parse_network` and
`Network` raise (see `network_faults`) and passed to `mincut`, so the
parsers' error texts are compared too.  Once per sweep, `hancheck` runs on
two valid tables at bases 2 and 3 and on five faulty ones (see
`Sweep.hancheck`).  The list
depends on the tree only through the C_min that `mincut`
prints and the `construct` and `secure` cases that succeed, and all of those
are compared too.

Each line is `slnc <args> <hash>`, the temporary directory masked as
`<tmp>`.  The hash covers the exit code, stdout, stderr and the file the
case writes (or its absence), so two trees agree on a case exactly when
their lines are equal.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

from slnc.cli import main as slnc_main

COMBINATIONS = [(3, 2, 5), (4, 2, 5), (4, 3, 7), (5, 3, 8), (5, 4, 16), (6, 4, 16), (3, 2, 131), (4, 2, 256)]
RANDOM_DAGS = 40
DENSE_DAGS = 10
REFUTE_BUDGET = 200_000
DEEP_REFUTE_BUDGET = 5_000_000


def combination_network(n: int, k: int, q: int) -> str:
    """C(n, k): relays v1..vn off the source, one sink per k-subset of relays."""
    subsets = list(itertools.combinations(range(1, n + 1), k))
    lines = [f"field {q}", "source s"] + [f"sink t{i}" for i in range(1, len(subsets) + 1)]
    lines += [f"edge e{v} s v{v}" for v in range(1, n + 1)]
    eid = n
    for i, subset in enumerate(subsets, 1):
        for v in subset:
            eid += 1
            lines.append(f"edge e{eid} v{v} t{i}")
    return "\n".join(lines) + "\n"


def random_dag(seed: int) -> str:
    """An acyclic network on nodes n0 (the source) .. n5 over GF(2..5).

    Channels run from a lower to a higher node, the first one to three out
    of n0; one or two sinks are drawn from the nodes the source reaches.  Channel ids are
    a shuffled numbering and the edge lines are shuffled too, so neither id
    order nor declaration order follows the topological order.
    """
    rng = random.Random(seed)
    q = rng.choice([2, 3, 4, 5])
    size = rng.randint(3, 6)
    pairs = [(0, rng.randint(1, size - 1)) for _ in range(rng.randint(1, 3))]
    for _ in range(rng.randint(2, 7)):
        a = rng.randint(0, size - 2)
        pairs.append((a, rng.randint(a + 1, size - 1)))
    reached = {0}
    for a, b in sorted(pairs):
        if a in reached:
            reached.add(b)
    sinks = rng.sample(sorted(reached - {0}), min(len(reached) - 1, rng.randint(1, 2)))
    ids = rng.sample(range(1, 100), len(pairs))
    edges = [f"edge c{i} n{a} n{b}" for i, (a, b) in zip(ids, pairs)]
    rng.shuffle(edges)
    return "\n".join([f"field {q}", "source n0", *[f"sink n{t}" for t in sinks], *edges]) + "\n"


def max_flow(pairs: list[tuple[int, int]], sink: int) -> int:
    """Edge-disjoint paths from node 0 to sink over the channels (a, b)."""
    flow = [0] * len(pairs)
    value = 0
    while True:
        back: dict[int, tuple[int, int] | None] = {0: None}  # node -> (channel, direction)
        queue = [0]
        for u in queue:
            for i, (a, b) in enumerate(pairs):
                for start, end, way in ((a, b, 1), (b, a, -1)):
                    if start == u and end not in back and flow[i] == (way < 0):
                        back[end] = (i, way)
                        queue.append(end)
        if sink not in back:
            return value
        node = sink
        while back[node] is not None:
            i, way = back[node]
            flow[i] += way
            node = pairs[i][0] if way > 0 else pairs[i][1]
        value += 1


def dense_dag(seed: int) -> str:
    """An acyclic network on nodes n0 (the source) .. n6 or n7 over GF(3..5).

    Four channels leave n0 for the relays n1..n3 and 8 to 10 more run from a
    lower to a higher node; draws repeat until a node past the relays has a
    min cut of at least 4, and up to two such nodes are the sinks (for seeds
    0..9 one qualifies each time).  Ids and edge lines are shuffled as in
    `random_dag`.
    """
    rng = random.Random(1000 + seed)
    while True:
        q = rng.choice([3, 4, 5])
        size = rng.randint(7, 8)
        pairs = [(0, rng.randint(1, 3)) for _ in range(4)]
        for _ in range(rng.randint(8, 10)):
            a = rng.randint(1, size - 2)
            pairs.append((a, rng.randint(a + 1, size - 1)))
        deep = [t for t in range(4, size) if max_flow(pairs, t) >= 4]
        if deep:
            break
    sinks = rng.sample(deep, min(len(deep), rng.randint(1, 2)))
    ids = rng.sample(range(1, 100), len(pairs))
    edges = [f"edge c{i} n{a} n{b}" for i, (a, b) in zip(ids, pairs)]
    rng.shuffle(edges)
    return "\n".join([f"field {q}", "source n0", *[f"sink n{t}" for t in sinks], *edges]) + "\n"


def fixtures(root: Path) -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted((root / "fixtures").glob("*.net"))}


def networks(root: Path) -> dict[str, str]:
    nets = fixtures(root)
    for n, k, q in COMBINATIONS:
        nets[f"c{n}_{k}_gf{q}"] = combination_network(n, k, q)
    for seed in range(RANDOM_DAGS):
        nets[f"dag{seed:02d}"] = random_dag(seed)
    for seed in range(DENSE_DAGS):
        nets[f"dense{seed:02d}"] = dense_dag(seed)
    return nets


class Sweep:
    """Runs cases in one temporary directory and prints a line for each."""

    def __init__(self, tmp: Path):
        self.tmp = tmp

    def run(self, *args: str, output: str | None = None) -> tuple[object, str]:
        """Run `slnc args`, print its line, and return (exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code: object = slnc_main(list(args))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception as exc:  # an escape is a result to compare too
                code = f"raised {type(exc).__name__}: {exc}"
        written = None
        if output is not None and Path(output).exists():
            written = Path(output).read_text(encoding="utf-8")
        mask = str(self.tmp)
        record = [str(code), out.getvalue(), err.getvalue(), written]
        record = [None if x is None else x.replace(mask, "<tmp>") for x in record]
        digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()[:16]
        print("slnc " + " ".join(args).replace(mask, "<tmp>"), digest)
        return code, out.getvalue()

    def network(self, name: str, text: str, fixture: bool) -> None:
        net = str(self.tmp / f"{name}.net")
        Path(net).write_text(text, encoding="utf-8")
        q = int(text.split("field", 1)[1].split()[0])
        code, out = self.run("mincut", net)
        cmin = int(out) if code == 0 else 0
        for line in text.splitlines():
            if line.startswith("sink "):
                self.run("mincut", net, "--sink", line.split()[1])
        channels = [line.split()[1] for line in text.splitlines() if line.startswith("edge ")]
        self.run("mincut", net, "--edges", channels[0])
        self.run("mincut", net, "--edges", ",".join(channels))
        built = {cmin}
        for dim in range(6):
            path = str(self.tmp / f"{name}.d{dim}.code")
            code, _out = self.run("construct", net, "--dim", str(dim), "-o", path, output=path)
            if code == 0:
                built.add(dim)
        for r in range(cmin + 2):
            self.run("enumerate", net, "--r", str(r))
        for dim, r in itertools.product(sorted(built), range(cmin + 2)):
            code_file = str(self.tmp / f"{name}.d{dim}.code")
            self.run("enumerate", net, "--r", str(r), "--code", code_file)
            self.run("enumerate", net, "--r", str(r), "--code", code_file, "--prop1")
        for omega, r in itertools.product(range(1, cmin + 2), range(1, 4)):
            for i in range(r + 1):
                bundle = str(self.tmp / f"{name}.w{omega}r{r}i{i}.bundle")
                args = ("--omega", str(omega), "--r", str(r), "--i", str(i))
                code, _out = self.run("secure", net, *args, "-o", bundle, output=bundle)
                if code != 0:
                    continue
                self.run("verify", bundle)
                self.run("verify", bundle, "--fast")
                message = ",".join(str((j + 1) % q) for j in range(omega))
                self.run("simulate", bundle, "--message", message, "--seed", "7")
                if r > i:
                    key = ",".join(str((j + 2) % q) for j in range(r - i))
                    self.run("simulate", bundle, "--message", message, "--key", key)
        # The fixtures are small enough to refute at higher security levels too.
        for omega, r in itertools.product(range(1, 3), range(1, 6 if fixture else 4)):
            for keydim in range(r):
                args = ("--omega", str(omega), "--r", str(r), "--keydim", str(keydim))
                self.run("refute", net, *args, "--budget", str(REFUTE_BUDGET))
        if fixture:
            self.run("refute", net, "--omega", "1", "--r", "1", "--keydim", "0")
            self.misused(name, net, text)
            self.malformed(name, net, cmin)
        if name == "butterfly":
            for r in (2, 3):
                args = ("--omega", "1", "--r", str(r), "--keydim", str(r - 1))
                self.run("refute", net, *args, "--budget", str(DEEP_REFUTE_BUDGET))

    def misused(self, name: str, net: str, text: str) -> None:
        """Run the usage errors, and `refute` at a zero information rate."""
        sink = next(line.split()[1] for line in text.splitlines() if line.startswith("sink "))
        channel = next(line.split()[1] for line in text.splitlines() if line.startswith("edge "))
        self.run("mincut", net, "--sink", sink, "--edges", channel)
        self.run("enumerate", net, "--r", "1", "--prop1")
        self.run("refute", net, "--omega", "1", "--r", "1", "--keydim", "0", "--budget", "0")
        self.run("refute", net, "--omega", "0", "--r", "1", "--keydim", "0")
        bundle = self.tmp / f"{name}.w1r1i0.bundle"
        if bundle.exists():
            self.run("simulate", str(bundle), "--message", "1")

    def hancheck(self) -> None:
        """Run `hancheck` on two valid tables at two bases and on each table fault."""
        tables = {
            "xor": "0 0 0 0.25\n0 1 1 0.25\n1 0 1 0.25\n1 1 0 0.25\n",
            "skew": "a x 0.5\nb x 0.125\nb y 0.375\n",
            "bad-probability": "0 0 half\n",
            "one-token": "0 0.5\n0.5\n",
            "sum-0.9": "0 0.5\n1 0.4\n",
            "empty": "# no outcomes\n",
            "13-variables": " ".join(["0"] * 13) + " 1.0\n",
        }
        for name, text in tables.items():
            table = self.tmp / f"{name}.table"
            table.write_text(text, encoding="utf-8")
            for base in ("2", "3") if name in ("xor", "skew") else ("2",):
                self.run("hancheck", "--table", str(table), "--base", base)

    def malformed(self, name: str, net: str, cmin: int) -> None:
        """Run each single fault of the C_min code, of the omega=1, r=1 bundle
    and of the network."""
        for built, commands in (
            (f"{name}.d{cmin}.code", lambda bad: [("enumerate", net, "--r", "1", "--code", bad)]),
            (f"{name}.w1r1i0.bundle", lambda bad: [
                ("verify", bad), ("simulate", bad, "--message", "1", "--seed", "7"),
            ]),
        ):
            path = self.tmp / built
            if not path.exists():
                continue
            for fault, text in faults(path.read_text(encoding="utf-8")).items():
                bad = self.tmp / f"{name}.{fault}{path.suffix}"
                bad.write_text(text, encoding="utf-8")
                for args in commands(str(bad)):
                    self.run(*args)
        for fault, text in network_faults(Path(net).read_text(encoding="utf-8")).items():
            bad = self.tmp / f"{name}.{fault}.net"
            bad.write_text(text, encoding="utf-8")
            self.run("mincut", str(bad))


def faults(text: str) -> dict[str, str]:
    """Copies of a written code or bundle file with one fault each, by name.

    Network-line faults and a repeated code header are left out: a bundle
    reports those with the network and code parsers' texts, and
    `network_faults` covers the network parser.  A code file has no secure,
    Q, const or network line, so it gets only the first seven faults,
    and only a network with a channel out of a relay has a `local` line
    to repeat (among the fixtures, the butterflies).  The last two bundle
    faults still parse: with Q the identity the base code carries X
    unmixed, so some channel sets leak the message; and the first sink's last
    in-channel carries the zero kernel, with zero `local` coefficients, so
    the sink cannot decode.
    """
    lines = text.splitlines()
    keywords = [line.split()[0] for line in lines]

    def without(k: int) -> list[str]:
        return lines[:k] + lines[k + 1:]

    def replaced(k: int, line: str) -> list[str]:
        return lines[:k] + [line] + lines[k + 1:]

    kernel, header = keywords.index("kernel"), keywords.index("code")
    head, last = lines[kernel].rsplit(" ", 1)
    channel = lines[kernel].split()[1]
    edits = {
        "no-kernel": without(kernel),
        "unknown-keyword": lines[:1] + ["bogus 1"] + lines[1:],
        "plus-kernel": replaced(kernel, f"{head} +{last}"),
        "codex-line": lines + ["codex 1"],
        "self-local": lines + [f"local {channel} {channel} 0"],  # no channel feeds itself
        "code-n0": replaced(header, " ".join("n=0" if t.startswith("n=") else t for t in lines[header].split())),
    }
    if "local" in keywords:
        k = keywords.index("local")
        edits["two-local"] = lines[:k + 1] + lines[k:]
    if "secure" in keywords:
        s, q = keywords.index("secure"), keywords.index("Q")
        n = len(lines[q + 1].split())
        edits |= {
            "two-secure": lines[:s + 1] + lines[s:],
            "short-q": without(q + n),  # the block then takes the line after it as its last row
            "text-q-row": replaced(q + 1, "x" + lines[q + 1][1:]),
            "padded-q": replaced(q + 1, "0" + lines[q + 1]),
            "no-const": without(keywords.index("const")),
            "short-q-row": replaced(q + 1, lines[q + 1].rsplit(" ", 1)[0]),
            "long-const": replaced(keywords.index("const"), lines[keywords.index("const")] + " 0"),
            "keydim-plus-1": replaced(s, " ".join(
                f"keydim={int(t[7:]) + 1}" if t.startswith("keydim=") else t for t in lines[s].split()
            )),
            "identity-q": lines[:q + 1] + [
                " ".join("1" if col == row else "0" for col in range(n)) for row in range(n)
            ] + lines[q + 1 + n:],
        }
        sink = lines[keywords.index("sink")].split()[1]
        dead = [line.split()[1] for line in lines if line.startswith("edge ") and line.split()[3] == sink][-1]

        def silenced(tokens: list[str]) -> list[str]:
            if tokens[:2] == ["kernel", dead]:
                return tokens[:2] + ["0"] * n
            if tokens[0] == "local" and tokens[2] == dead:
                return tokens[:3] + ["0"]
            return tokens

        edits["dead-sink-channel"] = [" ".join(silenced(line.split())) for line in lines]
    return {fault: "\n".join(edited) + "\n" for fault, edited in edits.items()}


def network_faults(text: str) -> dict[str, str]:
    """Copies of a network file with one fault each, by name: an unknown
    keyword, each keyword with one argument too many or too few, a repeated
    `field`, `source` or `sink` line, a signed and a non-field size, each
    required line left out, the source as a sink, a repeated and a reserved
    channel id, a channel into the source, a two-cycle, an unreachable sink."""
    lines = text.splitlines()
    keywords = [line.split()[0] for line in lines]
    field, source, sink, edge = (keywords.index(k) for k in ("field", "source", "sink", "edge"))
    src = lines[source].split()[1]
    eid, tail, head = lines[edge].split()[1:]

    def replaced(k: int, line: str) -> list[str]:
        return lines[:k] + [line] + lines[k + 1:]

    def dropped(keyword: str) -> list[str]:
        return [line for line, word in zip(lines, keywords) if word != keyword]

    edits = {
        "unknown-keyword": lines + ["bogus 1"],
        "field-arity": replaced(field, lines[field] + " 1"),
        "source-arity": replaced(source, "source"),
        "sink-arity": replaced(sink, lines[sink] + " x"),
        "edge-arity": replaced(edge, f"edge {eid} {tail}"),
        "two-field": lines + [lines[field]],
        "two-source": lines + [lines[source]],
        "two-sink": lines + [lines[sink]],
        "plus-field": replaced(field, "field +3"),
        "field-6": replaced(field, "field 6"),
        "no-field": dropped("field"),
        "no-source": dropped("source"),
        "no-sink": dropped("sink"),
        "source-sink": lines + [f"sink {src}"],
        "two-id": lines + [lines[edge]],
        "reserved-id": replaced(edge, f"edge __{eid} {tail} {head}"),
        "into-source": lines + [f"edge x1 {head} {src}"],
        "two-cycle": lines + [f"edge x1 {head} x", f"edge x2 x {head}"],
        "unreachable-sink": lines + ["sink lost"],
    }
    return {fault: "\n".join(edited) + "\n" for fault, edited in edits.items()}


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    nets, stems = networks(Path(argv[0])), set(fixtures(Path(argv[0])))
    chosen = argv[1:] or list(nets)
    unknown = [name for name in chosen if name not in nets]
    if unknown:
        print(f"unknown networks: {', '.join(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="cli_sweep_") as tmp:
        sweep = Sweep(Path(tmp))
        for name in chosen:
            sweep.network(name, nets[name], fixture=name in stems)
        sweep.hancheck()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
