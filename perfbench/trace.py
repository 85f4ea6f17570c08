"""The traced run: per-layer metrics from spans around fia's public calls.

Each job runs three times per round: through the CLI (for its wall
time), in-process without tracing, and in-process with a span around
every call the CLI handler would make -- poset.parse, deriv.*,
locder.* -- under one top-level cli.<verb> span.  fia.deriv's lru
caches are cleared before each in-process job, as a fresh CLI process
starts with them empty.  Layer probes then time what the jobs only reach
from inside fia: scalar arithmetic, convolution, is_derivation,
decompose and the per-probe witness solve.  Spans stay in memory and are
written to perfbench/.work/ when the run ends.

A layer's time is the sum of its spans' self times (duration minus the
time covered by child spans).  A metric whose layer the workload's jobs
never reach reads 0.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from contextlib import contextmanager, nullcontext

from . import oracle
from .workloads import TRIALS

UNITS = {
    "poset.parse_s": "s",
    "scalars.zp_op_ns": "ns",
    "scalars.q_op_ns": "ns",
    "fialg.convolve_s": "s",
    "deriv.derivation_basis_s": "s",
    "deriv.inner_basis_s": "s",
    "deriv.is_derivation_s": "s",
    "deriv.decompose_s": "s",
    "deriv.endo_from_json_s": "s",
    "deriv.basis_dim": "count",
    "deriv.basis_cache_hits": "count",
    "deriv.basis_cache_misses": "count",
    "locder.witness_for_us": "us",
    "locder.check_local_exhaustive_s": "s",
    "locder.probes_checked": "count",
    "locder.probes_per_s": "1/s",
    "locder.theorem_verify_enumerate_s": "s",
    "locder.endos_checked": "count",
    "locder.check_local_spanning_s": "s",
    "locder.theorem_verify_random_s": "s",
    "locder.lemma_conformance_s": "s",
    "cli.startup_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}
COUNTS = [name for name, unit in UNITS.items() if unit == "count"]
BASIS_VERBS = ("verify", "enumerate", "random", "h1", "basis")
STARTUP_RUNS = 5
WITNESS_PROBES = 4
SCALAR_PAIRS = 256
SCALAR_REPEATS = 20
SCALAR_OPS = SCALAR_PAIRS * SCALAR_REPEATS * 3


class Tracer:
    """Spans in memory: name, job id, parent index, start and end times."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, job: str):
        rec = {"name": name, "job": job,
               "parent": self._open[-1] if self._open else None}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def nesting_problems(self) -> list[str]:
        """Children that leave their parent's interval or outlast it."""
        problems = []
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            p = s["parent"]
            if p is None:
                continue
            parent = self.spans[p]
            covered[p] += s["end"] - s["start"]
            if s["start"] < parent["start"] or s["end"] > parent["end"]:
                problems.append(f"{s['job']}: {s['name']} outside {parent['name']}")
        for i, s in enumerate(self.spans):
            if covered[i] > s["end"] - s["start"]:
                problems.append(f"{s['job']}: children of {s['name']} outlast it")
        return problems


def clear_fia_caches() -> dict:
    """Empty every lru cache in fia.deriv; returns them by name."""
    from fia import deriv

    caches = {
        name: fn for name, fn in vars(deriv).items()
        if callable(getattr(fn, "cache_info", None))
    }
    for fn in caches.values():
        fn.cache_clear()
    return caches


def _untraced(name, job):
    return nullcontext()


def _cache_counts(caches) -> tuple[int, int]:
    infos = [fn.cache_info() for fn in caches.values()]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def run_inprocess(job, inputs: dict, span) -> tuple[dict, dict]:
    """Make the library calls the CLI handler makes; returns (payload, counts)."""
    from fia import deriv, locder, parse_poset, parse_ring

    counts = {}
    with span("cli." + job.verb, job.id):
        with span("poset.parse", job.id):
            poset = parse_poset(inputs[job.poset])
        if job.map is not None:
            with span("deriv.endo_from_json", job.id):
                d = deriv.endo_from_json(poset, inputs[job.map])
            ring = d.ring
        else:
            ring = parse_ring(job.ring)
        if job.verb in BASIS_VERBS:
            with span("deriv.derivation_basis", job.id):
                basis = deriv.derivation_basis(poset, ring)
            counts["deriv.basis_dim"] = len(basis)
        if job.verb == "verify" and job.mode == "spanning":
            with span("locder.check_local_spanning", job.id):
                result = locder.check_local_spanning(d, seed=job.seed)
        elif job.verb == "verify":
            with span("locder.check_local_exhaustive", job.id):
                result = locder.check_local_exhaustive(d)
            counts["locder.probes_checked"] = result.probes_checked
        elif job.verb == "lemmas":
            with span("locder.lemma_conformance", job.id):
                result = locder.lemma_conformance(d, seed=job.seed)
        elif job.verb == "enumerate":
            with span("locder.theorem_verify_enumerate", job.id):
                result = locder.theorem_verify_enumerate(poset, ring.p)
            counts["locder.endos_checked"] = result.probes_checked
        elif job.verb == "random":
            with span("locder.theorem_verify_random", job.id):
                result = locder.theorem_verify_random(
                    poset, ring, trials=TRIALS, seed=job.seed)
        elif job.verb == "decompose":
            with span("deriv.decompose", job.id):
                result = deriv.decompose(d)
        elif job.verb == "h1":
            with span("deriv.inner_basis", job.id):
                inner = deriv.inner_basis(poset, ring)
    if job.verb == "h1":
        payload = {"dim_derivations": len(basis), "dim_inner": len(inner),
                   "h1": len(basis) - len(inner)}
    elif job.verb == "basis":
        payload = {"dimension": len(basis), "basis": basis}
    else:
        payload = result.to_json()
    return payload, counts


def layer_probes(cat, inputs: dict, tracer: Tracer) -> None:
    """Time the layers that jobs reach only from inside fia."""
    from fia import deriv, fialg, locder, parse_poset, parse_ring

    rng = random.Random(f"probes:{cat.workload}:{cat.seed}")
    rings = {job.ring for job in cat.jobs if job.ring}
    rings |= {inputs[job.map]["ring"] for job in cat.jobs if job.map}
    kinds = {}
    for designator in sorted(rings):
        kinds.setdefault("q" if designator == "q" else "zp", parse_ring(designator))
    for kind, ring in sorted(kinds.items()):
        pairs = [(ring.sample_nonzero(rng), ring.sample_nonzero(rng))
                 for _ in range(SCALAR_PAIRS)]
        with tracer.span(f"scalars.{kind}_ops", "probe"):
            for _ in range(SCALAR_REPEATS):
                for a, b in pairs:
                    ring.add(a, b)
                    ring.mul(a, b)
                    ring.inv(b)
    seen = set()
    for job in cat.jobs:
        ring = parse_ring(inputs[job.map]["ring"] if job.map else job.ring)
        if (job.poset, ring) in seen:
            continue
        seen.add((job.poset, ring))
        poset = parse_poset(inputs[job.poset])
        z, m = fialg.zeta(poset, ring), fialg.moebius(poset, ring)
        with tracer.span("fialg.convolve", "probe"):
            fialg.convolve(z, m)
    decomposed = {job.map for job in cat.jobs if job.verb == "decompose"}
    for name in sorted({job.map for job in cat.jobs if job.map}):
        job = next(j for j in cat.jobs if j.map == name)
        poset = parse_poset(inputs[job.poset])
        d = deriv.endo_from_json(poset, inputs[name])
        with tracer.span("deriv.is_derivation", "probe"):
            deriv.is_derivation(d)
        if name not in decomposed:
            with tracer.span("deriv.decompose", "probe"):
                deriv.decompose(d)
        basis = deriv.derivation_basis(poset, d.ring)
        for _ in range(WITNESS_PROBES):
            entries = {}
            for x, y in poset.pairs():
                v = d.ring.sample(rng)
                if v != d.ring.zero:
                    entries[(x, y)] = v
            a = fialg.element(poset, d.ring, entries)
            with tracer.span("locder.witness_for", "probe"):
                locder.witness_for(d, a, basis)


def _round(run, cat, inputs) -> tuple[dict, list]:
    """One traced round over the job list, then the layer probes."""
    tracer = Tracer()
    counts = dict.fromkeys(COUNTS, 0)
    cli_s = untraced_s = traced_s = 0.0
    for index, job in enumerate(cat.jobs):
        m = run.run_job(job)
        if m is None:
            continue
        cli_s += m.wall_s
        # Alternate which in-process pass goes first, so that neither
        # always runs right after the CLI job.
        for traced in (index % 2 == 1, index % 2 == 0):
            caches = clear_fia_caches()
            if traced:
                first = len(tracer.spans)
                payload, job_counts = run_inprocess(job, inputs, tracer.span)
                top = tracer.spans[first]
                traced_s += top["end"] - top["start"]
                hits, misses = _cache_counts(caches)
            else:
                t0 = time.perf_counter()
                payload, _ = run_inprocess(job, inputs, _untraced)
                untraced_s += time.perf_counter() - t0
            run.record(f"{job.id} ({'traced' if traced else 'in-process'})",
                       oracle.check_payload(job.verb, dict(job.expect), payload))
        job_counts["deriv.basis_cache_hits"] = hits
        job_counts["deriv.basis_cache_misses"] = misses
        for name, value in job_counts.items():
            counts[name] += value
    layer_probes(cat, inputs, tracer)
    for problem in tracer.nesting_problems():
        run.record("trace", [problem])

    own = tracer.self_times()
    by_name: dict[str, list[float]] = {}
    for s, t in zip(tracer.spans, own):
        by_name.setdefault(s["name"], []).append(t)
    metrics = dict.fromkeys(UNITS, 0.0)
    for name, times in by_name.items():
        if name + "_s" in UNITS:
            metrics[name + "_s"] = sum(times)
    for kind in ("zp", "q"):
        if f"scalars.{kind}_ops" in by_name:
            metrics[f"scalars.{kind}_op_ns"] = (
                by_name[f"scalars.{kind}_ops"][0] / SCALAR_OPS * 1e9)
    witness = by_name.get("locder.witness_for")
    if witness:
        metrics["locder.witness_for_us"] = statistics.mean(witness) * 1e6
    metrics.update(counts)
    if metrics["locder.check_local_exhaustive_s"] > 0:
        metrics["locder.probes_per_s"] = (
            counts["locder.probes_checked"] / metrics["locder.check_local_exhaustive_s"])
    metrics["cli.overhead_s"] = cli_s - traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    return metrics, tracer.spans


def measure_layers(run, cat) -> dict:
    """Rounds of the traced run until the time is spent; medians of rounds."""
    inputs = {}
    for name, text in cat.files.items():
        inputs[name] = json.loads(text) if name.endswith(".json") else text
    with open(os.path.join(run.work, "startup.poset"), "w", encoding="utf-8") as fh:
        fh.write("elements: s\n")
    startup = []
    for _ in range(STARTUP_RUNS):
        m = run.cli(["poset", "check", "startup.poset"])
        run.record("startup", [] if m.exit_code == 0 else ["poset check failed"])
        startup.append(m.wall_s)

    rounds, spans = [], []
    begin = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        metrics, round_spans = _round(run, cat, inputs)
        rounds.append(metrics)
        spans.append(round_spans)
        spent = time.perf_counter() - begin
        if spent + (time.perf_counter() - r0) > run.seconds or run.timeout() <= 0:
            break
    for name in COUNTS:
        if len({r[name] for r in rounds}) > 1:
            run.record("trace", [f"count {name} differs between rounds"])
    out = {name: statistics.median(r[name] for r in rounds) for name in UNITS}
    out["cli.startup_s"] = statistics.median(startup)
    path = os.path.join(os.path.dirname(run.work),
                        f"trace-{cat.workload}-seed{cat.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": cat.workload, "seed": cat.seed, "rounds": spans}, fh)
    return out
