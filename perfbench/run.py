#!/usr/bin/env python3
"""Benchmark the fia CLI on one seeded workload.

    python3 perfbench/run.py --workload prime-exhaustive --seed 1 \
        --seconds 36 --trace 0

With --trace 0 it runs the workload's job list through the CLI, one
child process at a time, in shuffled rounds until --seconds is spent
(at least two full rounds), and reports the end-to-end metrics: sums
over the job list of each job's fastest run.  With --trace 1 it runs every job
three ways -- CLI, in-process, in-process under spans -- and reports the
per-layer metrics instead.  Every answer is checked by oracle.py.  The
last line of stdout is one JSON object; the lines before it are a
readable report.  --workload all runs every workload in turn.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", ".work")
sys.path.insert(0, ROOT)

from perfbench import oracle, runner, trace, workloads  # noqa: E402

SETUP_REPEATS = 5
MIN_ROUNDS = 2
JOB_TIMEOUT_S = 60.0
# Start no job this long after a workload's run began, so the run ends
# well before the 180 s it must fit in; jobs left unrun count as failed.
RUN_DEADLINE_S = 150.0

E2E_UNITS = {"setup_s": "s", "total_s": "s", "peak_rss_mb": "MB"}
VERB_METRICS = ("verify_pass_s", "verify_reject_s", "enumerate_s",
                "campaign_s", "basis_s", "check_s")


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """State of one benchmark run: deadline, failures, work directory."""

    def __init__(self, workload: str, seed: int, seconds: int, import_s: float):
        self.start = time.perf_counter()
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.import_s = import_s
        self.work = os.path.join(WORK, workload)
        scratch = os.path.join(WORK, "scratch")
        os.makedirs(scratch, exist_ok=True)
        self.launcher = runner.Launcher(SRC, scratch)
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def timeout(self) -> float:
        return min(JOB_TIMEOUT_S, RUN_DEADLINE_S - (time.perf_counter() - self.start))

    def cli(self, args):
        return self.launcher.run(args, self.work, self.timeout())

    def record(self, job_id: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{job_id}: {'; '.join(problems)}")

    def run_job(self, job):
        """Run a job through the CLI, check it, and return the measurement."""
        if self.timeout() <= 0:
            self.record(job.id, ["not started: run deadline reached"])
            return None
        m = self.cli(job.argv())
        problems = oracle.check_outcome(job.verb, job.exit_code, dict(job.expect), m)
        digest = hashlib.sha256(m.stdout).hexdigest()
        if self.digests.setdefault(job.id, digest) != digest:
            problems.append("stdout bytes differ from the first repetition")
        self.record(job.id, problems)
        return m

    def setup(self):
        """Generate the inputs and warm the CLI; returns (catalogue, seconds)."""
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            trace.clear_fia_caches()
            cat = workloads.build(self.workload, self.seed)
            shutil.rmtree(self.work, ignore_errors=True)
            os.makedirs(self.work)
            for name, text in cat.files.items():
                with open(os.path.join(self.work, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
            self.cli(["poset", "check", cat.jobs[0].poset])
            times.append(self.import_s + time.perf_counter() - t0)
        for problem in cat.problems:
            self.record("setup", [problem])
        return cat, statistics.median(times)


def measure_e2e(run: Run, cat) -> tuple[dict, dict, int]:
    """Rounds of the job list; returns gated metrics, per-verb times, rounds.

    Each job's time is its fastest run.  The jobs are deterministic and
    CPU-bound, and on a shared machine interference only ever adds time,
    so the minimum is the steadiest estimate of what the job costs.  Each
    round runs the jobs in its own seeded order, so that interference
    that recurs at a fixed period cannot hit the same job every round.
    After MIN_ROUNDS full rounds, a round skips the jobs whose last run
    would not fit in the time left; the run ends when none fits.
    """
    walls: dict[str, list[float]] = {}
    peak = 0.0
    rounds = 0
    begin = time.perf_counter()
    while run.timeout() > 0:
        order = list(cat.jobs)
        random.Random(f"order:{run.seed}:{rounds}").shuffle(order)
        ran = 0
        for job in order:
            left = run.seconds - (time.perf_counter() - begin)
            if rounds >= MIN_ROUNDS and walls.get(job.id, [0.0])[-1] > left:
                continue
            m = run.run_job(job)
            if m is None:
                continue
            walls.setdefault(job.id, []).append(m.wall_s)
            peak = max(peak, m.maxrss_mb)
            ran += 1
        rounds += 1
        if not ran:
            break
    verbs = dict.fromkeys(VERB_METRICS, 0.0)
    for job in cat.jobs:
        if job.id in walls:
            verbs[job.metric] += min(walls[job.id])
    gated = {
        "total_s": sum(min(v) for v in walls.values()),
        "peak_rss_mb": peak,
    }
    for job in cat.jobs:
        if job.id in walls:
            print(f"job {job.id:<46} {min(walls[job.id]):>10.6f} s")
    return gated, {k: v for k, v in verbs.items() if v > 0}, rounds


def run_workload(workload: str, seed: int, seconds: int, traced: bool,
                 import_s: float) -> dict:
    run = Run(workload, seed, seconds, import_s)
    try:
        cat, setup_s = run.setup()
        print(f"# workload {workload}: {len(cat.jobs)} jobs, {len(cat.files)} files")
        if traced:
            metrics = trace.measure_layers(run, cat)
            units = trace.UNITS
        else:
            gated, verbs, rounds = measure_e2e(run, cat)
            metrics = {"setup_s": setup_s, **gated}
            units = E2E_UNITS
            for name, value in verbs.items():
                print(f"{name:<34} {value:>14.6f} s")
            print(f"{'rounds':<34} {rounds:>14d}")
    finally:
        run.launcher.close()
    for name in units:
        print(f"{name:<34} {metrics[name]:>14.6f} {units[name]}")
    ratio = len(run.failures) / max(run.attempted, 1)
    print(f"{'fail_ratio':<34} {ratio:>14.6f} ratio"
          f" ({len(run.failures)} of {run.attempted})")
    for failure in run.failures:
        print(f"FAILED {failure}")
    return {
        "correct": not run.failures,
        "attempted": max(run.attempted, 1),
        "failed": len(run.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fia", "cli.py")):
        print(f"error: no fia sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("FIA_THREADS", None)
    import fia  # noqa: F401  (its import is part of set-up time)

    import_s = time.perf_counter() - _START

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}", file=sys.stderr)
        return 2
    print(f"# python {platform.python_version()}, cpu_count {os.cpu_count()},"
          f" seed {args.seed}, commit {_commit()}, seconds {args.seconds},"
          f" trace {args.trace}")
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), import_s)
               for n in names]
    if len(results) == 1:
        result = results[0]
    else:
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
