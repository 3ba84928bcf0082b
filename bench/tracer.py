"""Traced run of one `slnc` CLI command, made in-process.

Run as a script, this calls `slnc.cli.main` on the given arguments after
wrapping, at run time, every binding of the functions in TRACED in every
`slnc` module namespace.  Calls from one module into another, and the
module-internal calls that go through a module global (such as `Matrix.rank`
calling `rank_of_rows`), therefore each leave one span.  No source file is
touched, and only this process is affected.

Spans (name, start, end, parent span, operation id) stay in memory until
the command returns.  The script then writes them as a tab-separated dump,
plus a JSON summary with per-name call counts, total and self times, counts
read from return values, and a microbenchmark of the field's `mul` and
`inv`.  The summary records how long that post-processing took, so the
caller can leave it out of the traced time.

    python3 bench/tracer.py --op 3 --q 11 --summary S.json --dump S.tsv -- verify b.slnc
"""

from __future__ import annotations

import argparse
import array
import functools
import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Functions timed at their boundary, by defining module.  Per-element helpers
# (field ops, dot, vector builders) stay untraced: they run millions of times
# and the rank, null-space and solve calls above them carry their cost.
TRACED = {
    "slnc.field": [
        "rank_of_rows", "left_null_space", "solve_unique", "spans_intersect_trivially",
        "Matrix.__matmul__", "Matrix.inverse",
    ],
    "slnc.network": [
        "parse_network", "serialize_network", "c_min", "min_cut_to_sink", "min_cut_to_edges",
        "edge_disjoint_paths", "enumerate_topology_wiretap_sets",
    ],
    "slnc.lnc": [
        "construct_lnc", "check_code_validity", "enumerate_code_wiretap_sets",
        "verify_subset_bound", "code_body_lines", "write_code", "parse_code", "parse_code_lines",
    ],
    "slnc.secure": [
        "build_secure_bundle", "choose_secure_basis", "encode_source", "decode_at_sink",
        "write_bundle", "parse_bundle",
    ],
    "slnc.oracle": [
        "verify_security", "mutual_information", "perfectly_secure", "refute_key_rate",
        "rank_security_criterion", "observation_distribution", "han_profile",
    ],
}
NAMESPACES = ["slnc", "slnc.cli", "slnc.secure", "slnc.oracle", "slnc.lnc", "slnc.network", "slnc.field"]


def _column_index(q: int, col: tuple[int, ...]) -> int:
    return sum(v * q**i for i, v in enumerate(col))


# Counts read from return values, keyed by span name.
NOTES = {
    "lnc.enumerate_code_wiretap_sets": lambda res: {"code_sets": len(res)},
    "network.enumerate_topology_wiretap_sets": lambda res: {"cut_sets": len(res)},
    "secure.choose_secure_basis": lambda res: {
        "basis_columns": res.cols,
        # The greedy scan tries indices 1..index for each column, so the
        # indices of Q's columns sum to the candidates it examined.
        "basis_candidates": sum(
            _column_index(res.field.q, res.col(j)) for j in range(res.cols)
        ),
    },
    "oracle.verify_security": lambda res: {"sets_scanned": len(res.results)},
    "oracle.refute_key_rate": lambda res: {"assignments_searched": res.searched},
}


class Tracer:
    """Spans in flat arrays: name id, parent span index, start and end in ns."""

    def __init__(self, op: int):
        self.op = op
        self.names: list[str] = []
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.stack = [-1]
        self.notes: dict[str, int] = {}
        self.missing: list[str] = []  # TRACED names the program no longer has

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        note = NOTES.get(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if note is not None:
                for key, value in note(result).items():
                    self.notes[key] = self.notes.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        modules = {name: importlib.import_module(name) for name in NAMESPACES}
        replacements = {}
        for modname, quals in TRACED.items():
            layer = modname.split(".")[1]
            for qual in quals:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(modules[modname], owner_name, None) if owner_name else modules[modname]
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append(f"{layer}.{qual}")
                    continue
                wrapped = self.wrap(f"{layer}.{qual}", original)
                if owner_name:
                    setattr(owner, attr, wrapped)
                else:
                    replacements[id(original)] = (original, wrapped)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def summary(self) -> dict:
        """Per span name: [calls, total ns, self ns]; per parent>child name pair: calls."""
        n = len(self.start)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        calls: dict[str, list[int]] = {}
        pairs: dict[str, int] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            row = calls.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child_ns[i]
            p = self.parent[i]
            if p >= 0:
                key = f"{self.names[self.name_id[p]]}>{name}"
                pairs[key] = pairs.get(key, 0) + 1
        return {"spans": n, "calls": calls, "pairs": pairs, "notes": self.notes, "missing": self.missing}

    def write_dump(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            out.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
            names, op = self.names, self.op
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{op}\t{names[self.name_id[i]]}\t"
                    f"{self.start[i]}\t{self.end[i]}\n"
                )


def layer_metrics(summary: dict) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced operation: (exact counts, times)."""
    calls, pairs, notes = summary["calls"], summary["pairs"], summary["notes"]

    def count(name: str) -> int:
        return calls.get(name, (0, 0, 0))[0]

    def total_s(name: str) -> float:
        return calls.get(name, (0, 0, 0))[1] / 1e9

    def self_s(name: str) -> float:
        return calls.get(name, (0, 0, 0))[2] / 1e9

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    counts = {
        "field.rank_calls": count("field.rank_of_rows"),
        "field.null_space_calls": count("field.left_null_space"),
        "field.matmul_calls": count("field.Matrix.__matmul__"),
        "field.solve_calls": count("field.solve_unique"),
        "network.min_cut_calls": count("network.min_cut_to_edges"),
        # Every size-r channel set is one min-cut attempt, so the attempts
        # under the enumeration are C(|E|, r).
        "network.cut_hit_ratio": ratio(
            notes.get("cut_sets", 0),
            pairs.get("network.enumerate_topology_wiretap_sets>network.min_cut_to_edges", 0),
        ),
        "lnc.code_sets": notes.get("code_sets", 0),
        "secure.span_tests": count("field.spans_intersect_trivially"),
        "secure.basis_candidates": notes.get("basis_candidates", 0),
        "secure.basis_accept_ratio": ratio(
            notes.get("basis_columns", 0), notes.get("basis_candidates", 0)
        ),
        "secure.encode_calls": count("secure.encode_source"),
        "secure.decode_calls": count("secure.decode_at_sink"),
        "oracle.inputs": pairs.get("oracle.verify_security>secure.encode_source", 0),
        "oracle.sets_scanned": notes.get("sets_scanned", 0),
        "oracle.decodes": pairs.get("oracle.verify_security>secure.decode_at_sink", 0),
        "oracle.assignments_searched": notes.get("assignments_searched", 0),
    }
    times = {
        "field.rank_s": total_s("field.rank_of_rows"),
        "field.null_space_s": total_s("field.left_null_space"),
        "field.solve_s": total_s("field.solve_unique"),
        "network.parse_s": total_s("network.parse_network"),
        "network.c_min_s": total_s("network.c_min"),
        "network.min_cut_s": total_s("network.min_cut_to_edges"),
        "network.min_cut_us": ratio(
            total_s("network.min_cut_to_edges") * 1e6, count("network.min_cut_to_edges")
        ),
        "lnc.construct_s": total_s("lnc.construct_lnc"),
        "lnc.code_sets_s": total_s("lnc.enumerate_code_wiretap_sets"),
        "secure.basis_s": total_s("secure.choose_secure_basis"),
        "secure.basis_self_s": self_s("secure.choose_secure_basis"),
        "secure.encode_s": total_s("secure.encode_source"),
        "secure.decode_s": total_s("secure.decode_at_sink"),
        "secure.write_bundle_s": total_s("secure.write_bundle"),
        "secure.parse_bundle_s": total_s("secure.parse_bundle"),
        "oracle.verify_s": total_s("oracle.verify_security"),
        "oracle.verify_self_s": self_s("oracle.verify_security"),
        "oracle.refute_s": total_s("oracle.refute_key_rate"),
        "oracle.refute_self_s": self_s("oracle.refute_key_rate"),
        "oracle.assignments_per_s": ratio(
            notes.get("assignments_searched", 0), total_s("oracle.refute_key_rate")
        ),
        "cli.main_s": total_s("cli.main"),
        "cli.self_s": self_s("cli.main"),
    }
    return counts, times


def layer_self_times(summary: dict) -> dict[str, float]:
    """Self time in seconds per layer (module), summed over its spans."""
    out: dict[str, float] = {}
    for name, (_, _, self_ns) in summary["calls"].items():
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + self_ns / 1e9
    return out


def field_microbench(q: int) -> dict[str, float]:
    """ns per `mul` over every operand pair and per `inv` over every nonzero element.

    Each figure is the median of five passes of about 20,000 calls, loop
    overhead included.
    """
    from slnc.field import FieldSpec

    f = FieldSpec(q)
    pairs = [(a, b) for a in range(q) for b in range(q)]
    units = [(a,) for a in range(1, q)]

    def per_call(fn, arg_list) -> float:
        reps = max(1, 20_000 // len(arg_list))
        samples = []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            for _ in range(reps):
                for args in arg_list:
                    fn(*args)
            samples.append((time.perf_counter_ns() - t0) / (reps * len(arg_list)))
        return sorted(samples)[2]

    return {"field.mul_ns": per_call(f.mul, pairs), "field.inv_ns": per_call(f.inv, units)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--op", type=int, required=True, help="operation id stored in every span")
    parser.add_argument("--q", type=int, required=True, help="field size for the microbenchmark")
    parser.add_argument("--summary", type=Path, required=True)
    parser.add_argument("--dump", type=Path, required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, str(ROOT / "src"))
    import slnc.cli

    tracer = Tracer(args.op)
    tracer.install()
    if tracer.missing:
        print(f"tracer: not found, so not traced: {', '.join(tracer.missing)}", file=sys.stderr)
    returncode = tracer.wrap("cli.main", slnc.cli.main)(cli_args)
    sys.stdout.flush()

    post_start = time.perf_counter_ns()
    summary = tracer.summary()
    tracer.write_dump(args.dump)
    summary["returncode"] = returncode
    summary["microbench"] = field_microbench(args.q)
    summary["post_ns"] = time.perf_counter_ns() - post_start
    args.summary.write_text(json.dumps(summary), encoding="utf-8")
    return returncode


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
