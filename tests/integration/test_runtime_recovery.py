"""Integration tests for the crash-fault-tolerant runtime session.

The contracts under test are the ISSUE's acceptance criteria: a crash
scenario completes with the lost load re-allocated over survivors
(allocations still sum to the total workload, the makespan stays
finite), honest survivors are never fined, corrupt deliveries are
rejected through ordinary signature verification and feed a grievance,
and the whole runtime layer is byte-deterministic across worker counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.runner import run_scenario
from repro.network.generators import random_linear_network
from repro.obs.metrics import collecting
from repro.obs.tracer import Tracer, events_to_jsonl
from repro.runtime import RetryPolicy, run_resilient

W = [1.0, 0.8, 1.2, 0.9, 1.1]
Z = [0.2, 0.3, 0.25, 0.15]


class TestCleanSession:
    def test_no_faults_no_penalty(self):
        outcome = run_resilient(W, Z, seed=0)
        assert outcome.completed
        assert outcome.dead == () and outcome.unresponsive == ()
        assert outcome.retries == 0 and outcome.reallocations == 0
        assert outcome.total_computed == pytest.approx(1.0)
        assert outcome.makespan_penalty == pytest.approx(0.0)
        assert abs(outcome.ledger.total_balance()) < 1e-9


class TestCrashRecovery:
    def test_crash_reallocates_over_survivors(self):
        faults = [{"kind": "crash_exec", "target": 2, "param": 0.5}]
        outcome = run_resilient(W, Z, faults, seed=0)
        assert outcome.completed
        assert outcome.dead == (2,)
        assert outcome.reallocations == 1 and outcome.crashes == 1
        # Conservation: the re-allocated loads still sum to the workload.
        assert outcome.total_computed == pytest.approx(1.0, abs=1e-9)
        # The crashed processor computed only its pre-crash fraction;
        # the remainder shows up as the epoch's lost load.
        assert outcome.computed[2] > 0
        assert outcome.epochs[0]["crashed"] == 2
        assert outcome.epochs[0]["lost"] > 0
        # Recovery costs time, never gains it.
        assert np.isfinite(outcome.makespan)
        assert outcome.makespan >= outcome.baseline_makespan - 1e-12

    def test_survivors_never_fined_and_forfeit_visible(self):
        faults = [{"kind": "crash_exec", "target": 2, "param": 0.5}]
        outcome = run_resilient(W, Z, faults, seed=0)
        assert abs(outcome.ledger.total_balance()) < 1e-9
        assert set(outcome.forfeits) == {2}
        assert outcome.forfeits[2] > 0
        for i in range(1, outcome.m + 1):
            if i in outcome.dead:
                continue
            debits = [e for e in outcome.ledger.entries_for(i) if e.debtor == i]
            assert debits == [], f"honest survivor P{i} was debited"

    def test_cascading_crashes_two_epochs(self):
        faults = [
            {"kind": "crash_exec", "target": 1, "param": 0.4},
            {"kind": "crash_exec", "target": 3, "param": 0.6},
        ]
        outcome = run_resilient(W, Z, faults, seed=0)
        assert outcome.completed
        assert set(outcome.dead) == {1, 3}
        assert outcome.reallocations == 2
        assert outcome.total_computed == pytest.approx(1.0, abs=1e-9)
        assert set(outcome.forfeits) == {1, 3}

    def test_crash_events_in_trace(self):
        tracer = Tracer()
        faults = [{"kind": "crash_exec", "target": 2, "param": 0.5}]
        run_resilient(W, Z, faults, seed=0, tracer=tracer)
        kinds = [e.kind for e in tracer.events]
        assert "crash_detected" in kinds
        assert "reallocation" in kinds
        assert "forfeit" in kinds

    def test_random_networks_conserve_workload(self):
        for case in range(5):
            rng = np.random.default_rng([99, case])
            network = random_linear_network(5, rng)
            faults = [{"kind": "crash_exec", "target": 1 + case % 5, "param": 0.3}]
            outcome = run_resilient(network.w, network.z, faults, seed=case)
            assert outcome.completed
            assert outcome.total_computed == pytest.approx(1.0, abs=1e-9)


class TestRetryAndExclusion:
    def test_drops_within_budget_are_retried(self):
        faults = [{"kind": "net_drop", "target": 2, "param": 2}]
        outcome = run_resilient(W, Z, faults, seed=0)
        assert outcome.completed
        assert outcome.retries == 2
        assert outcome.unresponsive == ()
        assert outcome.total_computed == pytest.approx(1.0, abs=1e-9)

    def test_dead_link_excludes_processor_before_allocation(self):
        faults = [{"kind": "net_drop", "target": 2, "param": 99}]
        outcome = run_resilient(W, Z, faults, seed=0)
        assert outcome.completed
        assert outcome.unresponsive == (2,)
        assert outcome.computed[2] == 0.0
        assert outcome.total_computed == pytest.approx(1.0, abs=1e-9)

    def test_retry_budget_respects_policy(self):
        policy = RetryPolicy(max_attempts=2)
        faults = [{"kind": "net_drop", "target": 2, "param": 2}]
        outcome = run_resilient(W, Z, faults, seed=0, retry=policy)
        # Two drops exhaust a two-attempt budget: excluded, not retried in.
        assert outcome.unresponsive == (2,)

    @pytest.mark.parametrize("kind", ["net_drop", "byz_suppress"])
    def test_give_up_is_not_a_retry(self, kind):
        # P2's every attempt is lost (byz_suppress on P1 swallows P2's
        # sends): the last timeout is the give-up, not a retransmission,
        # so the counter, the histogram and the trace agree with the
        # outcome's count.
        target = 2 if kind == "net_drop" else 1
        faults = [{"kind": kind, "target": target, "param": 50}]
        tracer = Tracer()
        with collecting(merge=False) as registry:
            outcome = run_resilient(
                [1.0, 1.2, 0.9, 1.1, 1.3], [0.1, 0.2, 0.15, 0.1], faults, seed=0, tracer=tracer
            )
            snapshot = registry.snapshot()
        attempts = RetryPolicy().max_attempts
        assert outcome.unresponsive == (2,)
        assert outcome.retries == attempts - 1
        assert snapshot["counters"]["runtime.retries"] == outcome.retries
        assert snapshot["histograms"]["runtime.retry_wait_sim"]["count"] == outcome.retries
        assert sum(e.kind == "retry" for e in tracer.events) == outcome.retries


class TestCorruptRejection:
    def test_corrupt_delivery_rejected_with_grievance(self):
        tracer = Tracer()
        faults = [{"kind": "msg_corrupt", "target": 3, "param": 1}]
        with collecting() as registry:
            outcome = run_resilient(W, Z, faults, seed=0, tracer=tracer)
        assert outcome.completed
        assert outcome.rejections == 1
        grievance = outcome.grievances[0]
        assert grievance["kind"] == "corrupt-message"
        assert grievance["against"] == 3
        counters = registry.snapshot()["counters"]
        assert counters["runtime.corrupt_rejected"] == 1
        assert any(e.kind == "msg_rejected" for e in tracer.events)
        # The retransmission then succeeds: work still conserved.
        assert outcome.total_computed == pytest.approx(1.0, abs=1e-9)


class TestDeterminism:
    def test_byte_identical_traces_same_args(self):
        faults = [{"kind": "crash_exec", "target": 2, "param": 0.5}]
        blobs = []
        for _ in range(2):
            tracer = Tracer()
            run_resilient(W, Z, faults, seed=0, tracer=tracer)
            blobs.append(events_to_jsonl(tracer.events))
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("name", ["crash_midrun", "net_corrupt", "net_dead_link"])
    def test_scenario_jobs_one_vs_two_byte_identical(self, name):
        serial = run_scenario(name, seed=5, jobs=1, trace=True)
        pooled = run_scenario(name, seed=5, jobs=2, trace=True)
        assert serial.runs == pooled.runs
        assert events_to_jsonl(serial.events) == events_to_jsonl(pooled.events)

    def test_runtime_counters_merge_across_jobs(self):
        serial = run_scenario("crash_midrun", seed=5, jobs=1)
        pooled = run_scenario("crash_midrun", seed=5, jobs=2)
        assert serial.metrics["counters"] == pooled.metrics["counters"]
