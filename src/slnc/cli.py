"""Command-line front end for the whole pipeline.

Exit codes: 0 success or passing check, 1 failed check (insecure bundle,
counterexample found), 2 usage error, 3 input error, 4 budget exceeded.
Machine-readable results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import BudgetExceeded, ParseError, SlncError

if TYPE_CHECKING:
    from .network import Network

_LCG_MULTIPLIER = 6364136223846793005
_LCG_INCREMENT = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def sample_key_symbols(seed: int, count: int, q: int) -> tuple[int, ...]:
    """Seeded 64-bit linear congruential generator; one symbol per step.

    Each step advances state = state * 6364136223846793005 +
    1442695040888963407 (mod 2^64) and emits the high 32 bits reduced mod q,
    so transcripts replay identically everywhere.
    """
    state = seed & _LCG_MASK
    out = []
    for _ in range(count):
        state = (state * _LCG_MULTIPLIER + _LCG_INCREMENT) & _LCG_MASK
        out.append((state >> 32) % q)
    return tuple(out)


class _UsageError(Exception):
    pass


def _load_network(path: str) -> Network:
    from .network import parse_network

    return parse_network(Path(path).read_text(encoding="utf-8"))


def _parse_symbols(raw: str, what: str) -> tuple[int, ...]:
    from .network import integers

    error = f"{what} must be a comma-separated list of integers"
    try:
        return integers(raw.split(",") if raw else [], error)
    except ParseError:
        raise _UsageError(error) from None


def _cmd_mincut(args: argparse.Namespace) -> int:
    from .flow import c_min, min_cut_to_edges, min_cut_to_sink

    net = _load_network(args.network)
    if args.sink is not None and args.edges is not None:
        raise _UsageError("--sink and --edges are mutually exclusive")
    if args.sink is not None:
        print(min_cut_to_sink(net, args.sink))
    elif args.edges is not None:
        ids = args.edges.split(",") if args.edges else []
        if "" in ids:
            raise _UsageError("--edges must be a comma-separated list of channel ids")
        print(min_cut_to_edges(net, ids))
    else:
        print(c_min(net))
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    from .lnc import construct_lnc, write_code

    net = _load_network(args.network)
    code = construct_lnc(net, args.dim)
    Path(args.output).write_text(write_code(code), encoding="utf-8")
    return 0


def _cmd_secure(args: argparse.Namespace) -> int:
    from .secure import build_secure_bundle, write_bundle

    net = _load_network(args.network)
    bundle = build_secure_bundle(net, args.omega, args.r, args.i)
    if not bundle.constructively_certified:
        print(
            f"note: mixing basis built at level {bundle.basis_level} < r={bundle.r}; "
            "run `verify` to establish the leakage bound",
            file=sys.stderr,
        )
    Path(args.output).write_text(write_bundle(bundle), encoding="utf-8")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .lnc import parse_code
    from .walk import enumerate_code_wiretap_sets, enumerate_topology_wiretap_sets, verify_subset_bound

    net = _load_network(args.network)
    if args.prop1 and args.code is None:
        raise _UsageError("--prop1 needs --code")
    code = None if args.code is None else parse_code(Path(args.code).read_text(encoding="utf-8"), net)
    if args.prop1:
        print(verify_subset_bound(code, args.r).serialize())
        return 0
    if code is not None:
        sets = enumerate_code_wiretap_sets(code, args.r)
    else:
        sets = enumerate_topology_wiretap_sets(net, args.r)
    for members in sets:
        print(",".join(members))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .oracle import verify_security
    from .secure import parse_bundle

    bundle = parse_bundle(Path(args.bundle).read_text(encoding="utf-8"))
    report = verify_security(bundle, fast=args.fast)
    sys.stdout.write(report.serialize())
    if not report.decode_ok:
        print(f"decode check failed: {report.decode_detail}", file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_refute(args: argparse.Namespace) -> int:
    from .refute import DEFAULT_SEARCH_BUDGET, refute_key_rate

    budget = DEFAULT_SEARCH_BUDGET if args.budget is None else args.budget
    if budget < 1:
        raise _UsageError(f"--budget must be at least 1, got {budget}")
    net = _load_network(args.network)
    result = refute_key_rate(net, args.omega, args.r, args.keydim, budget=budget)
    sys.stdout.write(result.serialize())
    return 0 if result.witness is None else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .secure import decode_at_sink, encode_source, parse_bundle

    bundle = parse_bundle(Path(args.bundle).read_text(encoding="utf-8"))
    message = _parse_symbols(args.message, "--message")
    if args.key is not None:
        key = _parse_symbols(args.key, "--key")
    elif args.seed is not None:
        key = list(sample_key_symbols(args.seed, bundle.key_dim, bundle.field.q))
    else:
        raise _UsageError("provide --key or --seed to fix the key symbols")
    symbols = encode_source(bundle, message, key)
    print(("key " + ",".join(str(v) for v in key)).rstrip())
    for edge in bundle.network.edges:
        print(f"edge {edge.id} {symbols[edge.id]}")
    for t in bundle.network.sinks:
        observed = {e.id: symbols[e.id] for e in bundle.network.in_edges(t)}
        m, k = decode_at_sink(bundle, t, observed)
        m_txt = ",".join(str(v) for v in m)
        k_txt = ",".join(str(v) for v in k)
        print(f"sink {t} m={m_txt} k={k_txt}")
    return 0


def _cmd_hancheck(args: argparse.Namespace) -> int:
    from .entropy import han_profile, parse_table

    table = parse_table(Path(args.table).read_text(encoding="utf-8"))
    profile = han_profile(table, base=args.base)
    print(" ".join(f"{h:.9f}" for h in profile))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slnc",
        description="Construct and verify secure linear network codes on multicast DAGs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mincut", help="min-cut values of a network")
    p.add_argument("network")
    p.add_argument("--sink")
    p.add_argument("--edges")
    p.set_defaults(func=_cmd_mincut)

    p = sub.add_parser("construct", help="build a plain linear code")
    p.add_argument("network")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("secure", help="build a secure code bundle")
    p.add_argument("network")
    p.add_argument("--omega", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--i", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_secure)

    p = sub.add_parser("enumerate", help="wiretap-set collections")
    p.add_argument("network")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--code")
    p.add_argument("--prop1", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="exhaustively verify a bundle")
    p.add_argument("bundle")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("refute", help="exhaustive search for smaller-key codes")
    p.add_argument("network")
    p.add_argument("--omega", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--keydim", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_refute)

    p = sub.add_parser("simulate", help="encode one input and decode at every sink")
    p.add_argument("bundle")
    p.add_argument("--message", required=True)
    p.add_argument("--key")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("hancheck", help="entropy profile of a joint distribution")
    p.add_argument("--table", required=True)
    p.add_argument("--base", type=float, default=2.0)
    p.set_defaults(func=_cmd_hancheck)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except (SlncError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
