"""Tests of the benchmark itself: generator, oracle and trace bookkeeping.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import pytest  # noqa: E402

from perfbench import oracle, posets, workloads  # noqa: E402
from perfbench.runner import Measured  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_in_the_seed(name):
    first = workloads.build(name, 7)
    again = workloads.build(name, 7)
    other = workloads.build(name, 8)
    assert first.files == again.files
    assert first.jobs == again.jobs
    assert first.files != other.files
    assert not first.problems


def _verify_job():
    cat = workloads.build("prime-exhaustive", 3)
    return next(j for j in cat.jobs if j.metric == "verify_reject_s")


def _outcome(job, verdict="rejected", exit_code=1, timed_out=False):
    payload = dict(job.expect, verdict=verdict)
    return Measured(None if timed_out else exit_code, timed_out,
                    json.dumps(payload).encode(), b"")


def test_oracle_accepts_the_expected_answer():
    job = _verify_job()
    assert oracle.check_outcome(job.verb, job.exit_code, dict(job.expect),
                                _outcome(job)) == []


def test_oracle_flags_wrong_verdict_exit_code_and_timeout():
    job = _verify_job()
    expect = dict(job.expect)
    wrong_verdict = _outcome(job, verdict="local_derivation")
    wrong_exit = _outcome(job, exit_code=0)
    timed_out = _outcome(job, timed_out=True)
    assert any("verdict" in p for p in
               oracle.check_outcome(job.verb, 1, expect, wrong_verdict))
    assert any("exit code" in p for p in
               oracle.check_outcome(job.verb, 1, expect, wrong_exit))
    assert oracle.check_outcome(job.verb, 1, expect, timed_out) == ["timed out"]
    crashed = Measured(1, False, b"", b"Traceback (most recent call last):\n")
    assert "traceback on stderr" in oracle.check_outcome(job.verb, 1, expect, crashed)


@pytest.mark.parametrize("spec, npairs, components, h1", [
    (posets.crown(), 8, 1, 1),
    (posets.complete_bipartite(3), 15, 1, 4),
    (posets.chain(3), 6, 1, 0),
    (posets.chain2_point(), 4, 2, 0),
])
def test_components_and_cycle_rank_match_hand_values(spec, npairs, components, h1):
    assert spec.npairs == npairs
    assert spec.components() == components
    assert spec.h1() == h1


def test_near_miss_and_patchwork_break_the_leibniz_rule():
    spec = posets.crown()
    rng = random.Random(1)
    der = workloads.random_derivation(spec, "zp:3", rng)
    pairs = spec.pairs()
    assert oracle.leibniz_holds(pairs, der, 3)
    assert oracle.split_residual(pairs, der, 3) == 0
    assert not oracle.leibniz_holds(pairs, workloads.near_miss(der, 3), 3)
    qder = workloads.random_derivation(spec, "q", rng)
    bad, residual = workloads.patchwork(spec, "q", rng, qder)
    assert residual > 0 and not oracle.leibniz_holds(pairs, bad)


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("cli.verify", "j"):
        with tracer.span("poset.parse", "j"):
            pass
        with tracer.span("locder.check_local_exhaustive", "j"):
            sum(range(10000))
    own = tracer.self_times()
    spans = tracer.spans
    top = spans[0]["end"] - spans[0]["start"]
    children = sum(s["end"] - s["start"] for s in spans[1:])
    assert own[0] == pytest.approx(top - children)
    assert own[2] == pytest.approx(spans[2]["end"] - spans[2]["start"])
    assert tracer.nesting_problems() == []
