"""Command-level benchmark of the `slnc` CLI.

One workload is one CLI command on one generated network, run as a closed
loop with a single client: each operation is a fresh
`python -m slnc.cli ...` process, started only after the previous one has
exited, so interpreter start-up, imports and file parsing stay inside the
timing.  Times are calibrated against a fixed loop timed around each one.
See bench/README.md for the workloads, metrics and layers.

    python3 bench/run.py --workload secure --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --report --seed 0 --seconds 25   # every workload, both runs
    python3 bench/run.py --smoke                          # tiny instances, all checks

The last line of a single-workload run is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it carries
the instance facts, quartiles, sample counts and raw wall times.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import layer_metrics, layer_self_times
from workloads import SMOKE_WORKLOADS, WORKLOADS, NetworkShape, Paths, Relabelling, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 3
# Seconds calibrate() takes on the baseline machine (README.md) when its host
# is quiet; times are reported as if every loop had taken this long.
CALIBRATION_REF_S = 0.125
RUN_LIMIT_S = 170.0  # every run ends within 180 s, even if a command hangs


class SetupError(Exception):
    """The workload's inputs could not be built or failed their checks."""


@dataclass
class OpResult:
    returncode: int
    wall_s: float
    rss_mib: float
    stdout: str


@dataclass
class Context:
    """Generated inputs of one workload at one seed."""

    workload: Workload
    relabelling: Relabelling
    paths: Paths
    facts: dict


@dataclass
class Measurement:
    context: Context
    setup_s: list[float] = field(default_factory=list)
    setup_cal_s: list[float] = field(default_factory=list)  # calibration around each set-up
    untraced: list[OpResult] = field(default_factory=list)
    op_cal_s: list[float] = field(default_factory=list)  # calibration around each untraced op
    traced_wall_s: list[float] = field(default_factory=list)
    summaries: list[dict] = field(default_factory=list)
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.untraced) + len(self.traced_wall_s)


def _child_env() -> dict[str, str]:
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


class Spawner:
    """Runs commands one at a time through spawner.py, which times them.

    A command still running at its deadline (time.monotonic) is killed; its
    exit code then reads as -9.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH_DIR / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.running: int | None = None

    def run(self, argv: list[str], workdir: Path, deadline: float) -> OpResult:
        stdout_path = workdir / "stdout.txt"
        request = {
            "argv": argv, "env": _child_env(), "cwd": str(workdir),
            "stdout": str(stdout_path), "stderr": str(workdir / "stderr.txt"),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        self.running = json.loads(self.proc.stdout.readline())["pid"]
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), self._kill_running)
        watchdog.start()
        try:
            reply = json.loads(self.proc.stdout.readline())
        finally:
            watchdog.cancel()
        self.running = None
        return OpResult(
            returncode=reply["returncode"],
            wall_s=reply["wall_ns"] / 1e9,
            rss_mib=reply["maxrss_kib"] / 1024.0,
            stdout=stdout_path.read_text(encoding="utf-8", errors="replace"),
        )

    def _kill_running(self) -> None:
        pid = self.running
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def close(self) -> None:
        """Stop the running command, if any, and wait for the helper to exit."""
        self._kill_running()
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def _cli(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "slnc.cli", *args]


def set_up(wl: Workload, seed: int, sp: Spawner, workdir: Path, deadline: float) -> Context:
    """Generate the inputs, check C_min through the CLI, build prerequisites."""
    from slnc import oracle

    canonical = wl.network(ROOT)
    shape = NetworkShape.parse(canonical)
    relabelling = Relabelling(shape, seed)
    paths = Paths(workdir / "network.net", workdir / "artefact", workdir / "output")
    paths.network.write_text(relabelling.apply(canonical), encoding="utf-8")

    facts = wl.facts(shape)
    pinned = wl.expected["facts"]
    wrong = {k: (v, pinned[k]) for k, v in facts.items() if pinned.get(k) != v}
    if wrong:
        raise SetupError(f"{wl.name}: generated instance differs from the pinned facts: {wrong}")
    if wl.budget is not None and facts["input_space"] > getattr(oracle, wl.budget):
        raise SetupError(f"{wl.name}: input space {facts['input_space']} exceeds {wl.budget}")

    res = sp.run(_cli(["mincut", str(paths.network)]), workdir, deadline)
    if res.returncode != 0 or res.stdout.strip() != str(wl.c_min):
        raise SetupError(f"{wl.name}: mincut gave {res.stdout.strip()!r}, expected {wl.c_min}")
    for command in wl.prepare(paths):
        res = sp.run(_cli(command), workdir, deadline)
        if res.returncode != 0:
            raise SetupError(f"{wl.name}: set-up command {command[0]} exited {res.returncode}")
    return Context(wl, relabelling, paths, {**pinned, **facts})


def _check(ctx: Context, res: OpResult) -> bool:
    return ctx.workload.check(ctx.workload, res.returncode, res.stdout, ctx.paths, ctx.relabelling)


def run_untraced_op(ctx: Context, m: Measurement, sp: Spawner, deadline: float) -> None:
    ctx.paths.output.unlink(missing_ok=True)
    res = sp.run(_cli(ctx.workload.command(ctx.paths)), ctx.paths.network.parent, deadline)
    m.untraced.append(res)
    m.failed += not _check(ctx, res)


def run_traced_op(ctx: Context, m: Measurement, sp: Spawner, deadline: float, dump: Path) -> None:
    workdir = ctx.paths.network.parent
    summary_path = workdir / "summary.json"
    summary_path.unlink(missing_ok=True)
    ctx.paths.output.unlink(missing_ok=True)
    argv = [
        sys.executable, str(BENCH_DIR / "tracer.py"), "--op", str(m.attempted),
        "--q", str(ctx.facts["q"]),
        "--summary", str(summary_path), "--dump", str(dump), "--",
        *ctx.workload.command(ctx.paths),
    ]
    res = sp.run(argv, workdir, deadline)
    ok = _check(ctx, res) and summary_path.is_file()
    if ok:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        m.summaries.append(summary)
        # The dump and summary are written after the command returns.
        m.traced_wall_s.append(res.wall_s - summary["post_ns"] / 1e9)
        notes = summary["notes"]
        ok = all(notes[k] == v for k, v in ctx.facts.items() if k in notes)
    else:
        m.traced_wall_s.append(res.wall_s)
    m.failed += not ok


def calibrate(reps: int = 1500) -> float:
    """Wall time of a fixed pure-Python loop: all GF(16) products, bit by bit, 1,500 times.

    On a shared host, other tenants change how fast a guest runs Python by
    half or more, over seconds to minutes.  The loop, timed right before and
    right after an operation, measures that speed where the operation ran.
    With fewer `reps` the loop is shorter and its time is scaled up to 1,500.
    """
    start = time.perf_counter()
    acc = 0
    for _ in range(reps):
        for a in range(16):
            for b in range(16):
                x, y, r = a, b, 0
                while y:
                    if y & 1:
                        r ^= x
                    y >>= 1
                    x <<= 1
                    if x & 16:
                        x ^= 19
                acc ^= r
    return (time.perf_counter() - start) * 1500 / reps


def measure(
    wl: Workload, seed: int, seconds: float, trace: bool, setup_repeats: int, calibration_reps: int = 1500
) -> Measurement:
    """Set up `setup_repeats` times, then run operations for `seconds`.

    Untraced runs time one operation after another.  Traced runs alternate
    an untraced and a traced operation, so the two see the same machine state.
    At least one operation of each kind runs, whatever `seconds` is.  The
    calibration loop runs before the first set-up and after every set-up and
    untraced operation; each of those records the mean of the two loop times
    around it.
    """
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_DIR))
    sp = Spawner()
    try:
        setup_s, setup_cal_s = [], []
        cal = calibrate(calibration_reps)
        for _ in range(setup_repeats):
            t0 = time.perf_counter()
            ctx = set_up(wl, seed, sp, workdir, deadline)
            setup_s.append(time.perf_counter() - t0)
            cal, before = calibrate(calibration_reps), cal
            setup_cal_s.append((before + cal) / 2)
        m = Measurement(ctx, setup_s=setup_s, setup_cal_s=setup_cal_s)
        window_end = time.monotonic() + seconds
        if trace:
            OUT_DIR.mkdir(exist_ok=True)
            dump = OUT_DIR / f"{wl.name}-seed{seed}.spans.tsv"
        while True:
            run_untraced_op(ctx, m, sp, deadline)
            cal, before = calibrate(calibration_reps), cal
            m.op_cal_s.append((before + cal) / 2)
            if trace:
                run_traced_op(ctx, m, sp, deadline, dump)
            now = time.monotonic()
            if now >= window_end or now >= deadline:
                break
        return m
    finally:
        sp.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _scaled(times: list[float], cal_s: list[float]) -> list[float]:
    """Wall times rescaled to the speed at which calibrate() takes CALIBRATION_REF_S."""
    return [t * CALIBRATION_REF_S / c for t, c in zip(times, cal_s)]


def op_s(m: Measurement) -> list[float]:
    return _scaled([r.wall_s for r in m.untraced], m.op_cal_s)


def end_to_end_metrics(m: Measurement) -> dict[str, float]:
    return {
        "op_s_p50": _median(op_s(m)),
        "setup_s": _median(_scaled(m.setup_s, m.setup_cal_s)),
        "peak_rss_mb": max(r.rss_mib for r in m.untraced),
    }


def per_layer_metrics(m: Measurement) -> tuple[dict[str, float], bool]:
    """Medians of the traced runs' times; counts must repeat exactly."""
    summaries = m.summaries or [{"calls": {}, "pairs": {}, "notes": {}, "microbench": {}}]
    per_op = [layer_metrics(s) for s in summaries]
    counts_repeat = all(c == per_op[0][0] for c, _ in per_op)
    metrics: dict[str, float] = dict(per_op[0][0])
    for name in per_op[0][1]:
        metrics[name] = _median([t[name] for _, t in per_op])
    for name in ("field.mul_ns", "field.inv_ns"):
        metrics[name] = _median([s["microbench"].get(name, 0.0) for s in summaries])
    untraced = _median([r.wall_s for r in m.untraced])
    metrics["trace.overhead_frac"] = _median(m.traced_wall_s) / untraced - 1.0 if untraced else 0.0
    return metrics, counts_repeat and bool(m.summaries)


def self_time_table(m: Measurement) -> str:
    """Per-layer self time of the last traced operation, largest first."""
    summary = m.summaries[-1]
    layers = layer_self_times(summary)
    main_s = summary["calls"]["cli.main"][1] / 1e9
    layers["(process start, import, exit)"] = m.traced_wall_s[-1] - main_s
    total = sum(layers.values())
    rows = [f"{'layer':<32}{'self_s':>10}{'share':>8}"]
    for layer, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
        rows.append(f"{layer:<32}{secs:>10.4f}{secs / total:>8.1%}")
    return "\n".join(rows) + "\n"


def metric_specs() -> dict[str, list[dict]]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def result_object(values: dict[str, float], specs: list[dict], correct: bool, m: Measurement) -> dict:
    return {
        "correct": correct and m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }


def info(m: Measurement) -> dict:
    """Facts and figures printed beside the metrics but not gated."""
    walls = [r.wall_s for r in m.untraced]
    p25, p75 = _quartiles(op_s(m))
    return {
        "workload": m.context.workload.name,
        "facts": m.context.facts,
        "op_samples": len(walls),
        "op_s_p25": p25,
        "op_s_p75": p75,
        "op_s_all": op_s(m),
        "wall_op_s_all": walls,
        "wall_op_s_p50": _median(walls),
        "wall_setup_s_all": m.setup_s,
        "calibration_s_p50": _median(m.op_cal_s + m.setup_cal_s),
        "fail_frac": m.failed / m.attempted,
    }


def run_one(args: argparse.Namespace) -> int:
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    m = measure(wl, args.seed, args.seconds, trace, 1 if trace else SETUP_REPEATS)
    specs = metric_specs()
    if trace:
        values, counts_repeat = per_layer_metrics(m)
        table = OUT_DIR / f"{wl.name}-seed{args.seed}.selftime.txt"
        if m.summaries:
            table.write_text(self_time_table(m), encoding="utf-8")
        result = result_object(values, specs["per_layer"], counts_repeat, m)
    else:
        result = result_object(end_to_end_metrics(m), specs["end_to_end"], True, m)
    print("info " + json.dumps(info(m)))
    print(json.dumps(result))
    return 0


def _format(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"


def print_tables(rows: dict[str, dict[str, float]], specs: list[dict], group: bool) -> None:
    """One row per workload; per-layer metrics are split into one table per layer."""
    groups: dict[str, list[dict]] = {}
    for s in specs:
        groups.setdefault(s["name"].split(".")[0] if group else "", []).append(s)
    for name, members in groups.items():
        heads = [f"{s['name'].split('.', 1)[-1] if group else s['name']} [{s['unit']}]" for s in members]
        widths = [max(len(h), 10) for h in heads]
        if group:
            print(f"\n{name}")
        print(f"{'workload':<10}" + "".join(f"  {h:>{w}}" for h, w in zip(heads, widths)))
        for wl, values in rows.items():
            cells = [_format(values[s["name"]]) for s in members]
            print(f"{wl:<10}" + "".join(f"  {c:>{w}}" for c, w in zip(cells, widths)))


def run_all(workloads: dict[str, Workload], seed: int, seconds: float, smoke: bool) -> int:
    """Every workload, untraced and traced; print every metric and check every name."""
    specs = metric_specs()
    e2e_rows: dict[str, dict[str, float]] = {}
    layer_rows: dict[str, dict[str, float]] = {}
    ok = True
    OUT_DIR.mkdir(exist_ok=True)
    for name, wl in workloads.items():
        if smoke:
            # One set-up, one untraced and one traced operation give both metric
            # sets; the smoke run checks names and outputs, not speed.
            traced = untraced = measure(wl, seed, 0, True, 1, calibration_reps=15)
        else:
            untraced = measure(wl, seed, seconds, False, SETUP_REPEATS)
            traced = measure(wl, seed, seconds, True, 1)
        e2e = end_to_end_metrics(untraced)
        e2e.update(info(untraced))
        layers, counts_repeat = per_layer_metrics(traced)
        e2e_rows[name], layer_rows[name] = e2e, layers
        table = self_time_table(traced) if traced.summaries else "(no traced operation)\n"
        (OUT_DIR / f"{name}-seed{seed}.selftime.txt").write_text(table, encoding="utf-8")
        failed = untraced.failed + (traced.failed if traced is not untraced else 0)
        print(f"== {name}: facts {json.dumps(untraced.context.facts)}")
        print(f"   checks: {'ok' if failed == 0 else f'{failed} FAILED'}; counts repeat: {counts_repeat}")
        print("   self time by layer (last traced operation):")
        print("".join(f"     {line}\n" for line in table.splitlines()), end="")
        ok = ok and failed == 0 and counts_repeat
        for kind, values in (("end_to_end", e2e), ("per_layer", layers)):
            missing = [s["name"] for s in specs[kind] if s["name"] not in values]
            if missing:
                print(f"   missing {kind} metrics: {missing}")
                ok = False
    e2e_specs = specs["end_to_end"] + [
        {"name": "op_s_p25", "unit": "s"}, {"name": "op_s_p75", "unit": "s"},
        {"name": "op_samples", "unit": "count"}, {"name": "wall_op_s_p50", "unit": "s"},
        {"name": "calibration_s_p50", "unit": "s"}, {"name": "fail_frac", "unit": "ratio"},
    ]
    print("\nend-to-end (untraced)")
    print_tables(e2e_rows, e2e_specs, group=False)
    print("\nper layer (traced)")
    print_tables(layer_rows, specs["per_layer"], group=True)
    print(f"\nspan dumps and self-time tables: {OUT_DIR}")
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


def _terminate(signum, frame):
    # Unwind through the finally blocks, which stop and reap every child.
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--report", action="store_true", help="run every workload, untraced and traced")
    mode.add_argument("--smoke", action="store_true", help="every command path once, on fixtures")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "slnc" / "cli.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: no slnc source tree (src/slnc, fixtures) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if args.smoke:
            return run_all(SMOKE_WORKLOADS, args.seed, 0, smoke=True)
        if args.report:
            return run_all(WORKLOADS, args.seed, args.seconds, smoke=False)
        if args.workload is None:
            parser.error("--workload is required unless --report or --smoke is given")
        return run_one(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
