"""Starts and times the benchmark's commands from a small helper process.

On Linux a child's ru_maxrss also covers the resident memory of the process
it was spawned from, because exec carries the old address space's
high-water mark over.  run.py is larger than some of the commands it
times, so it runs this script with `python3 -S` (about 9 MiB) and lets it
start every command; each command's peak RSS is then its own.

Protocol, one JSON object per line: a request on stdin
    {"argv": [...], "env": {...}, "cwd": ..., "stdout": path, "stderr": path}
is answered on stdout with {"pid": n} once the command has started, then
with {"returncode": n, "wall_ns": n, "maxrss_kib": n} once it has exited.
The helper exits at end of input.  On SIGTERM it kills the running command,
waits for it and exits.
"""

import json
import os
import signal
import sys
import time


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> None:
    signal.signal(signal.SIGTERM, _terminate)
    for line in sys.stdin:
        req = json.loads(line)
        os.chdir(req["cwd"])
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = time.perf_counter_ns()
        pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
        try:
            print(json.dumps({"pid": pid}), flush=True)
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall_ns = time.perf_counter_ns() - start
        reply = {
            "returncode": os.waitstatus_to_exitcode(status),
            "wall_ns": wall_ns,
            "maxrss_kib": usage.ru_maxrss,
        }
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
