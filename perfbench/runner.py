"""Run fia CLI jobs as child processes and measure them.

A child's peak RSS as reported by wait4 starts from the peak RSS of the
process that started it, so children are not started by the benchmark
process, which grows while it checks large outputs and runs the traced
passes.  They are started by a launcher: this file run as a script, a
small process that stays small.  It takes one job per line on stdin and
answers one line per job on stdout, both JSON.

The children get a copy of the environment without FIA_THREADS, so every
job runs with fia's default single worker, and PYTHONPATH pointing at
the checkout's src/.  Wall time covers process start to reaping; wait4
gives the child's peak RSS.  A job still running at its deadline is
killed and reported as timed out.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass


@dataclass
class Measured:
    """One finished job: how it ended, what it printed, what it cost."""

    exit_code: int | None
    timed_out: bool
    stdout: bytes
    stderr: bytes
    wall_s: float = 0.0
    maxrss_mb: float = 0.0


def _run_child(argv, cwd, timeout, out_path, err_path) -> dict:
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit_code": proc.returncode,
        "timed_out": not ready,
        "wall_s": wall,
        "maxrss_kb": usage.ru_maxrss,
    }


def _serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        reply = _run_child(req["argv"], req["cwd"], req["timeout"],
                           req["out"], req["err"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


class Launcher:
    """Handle on the launcher process; close() stops it and waits for it."""

    def __init__(self, src_dir: str, scratch: str):
        env = {k: v for k, v in os.environ.items() if k != "FIA_THREADS"}
        env["PYTHONPATH"] = src_dir
        self.scratch = scratch
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, args, cwd: str, timeout: float) -> Measured:
        """Run ``python -m fia.cli *args`` in cwd, for at most timeout seconds."""
        out_path = os.path.join(self.scratch, "job.stdout")
        err_path = os.path.join(self.scratch, "job.stderr")
        req = {"argv": [sys.executable, "-m", "fia.cli", *args], "cwd": cwd,
               "timeout": timeout, "out": out_path, "err": err_path}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return Measured(
            None if reply["timed_out"] else reply["exit_code"], reply["timed_out"],
            stdout, stderr, reply["wall_s"], reply["maxrss_kb"] / 1024.0,
        )

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    _serve()
