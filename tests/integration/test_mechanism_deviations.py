"""Integration tests: every deviation class against the mechanism.

Each test checks the three facts the paper proves: the deviation is
*detected*, the deviator ends up *worse off* than its truthful baseline
(Theorem 5.1), and no honest processor is ever fined (Lemma 5.2).
"""

import numpy as np
import pytest

from repro.agents.strategies import (
    ContradictoryBidAgent,
    FalseAccuserAgent,
    LoadSheddingAgent,
    MisbiddingAgent,
    MiscomputingAgent,
    OverchargingAgent,
    RelayTamperingAgent,
    SilentVictimAgent,
    SlowExecutionAgent,
    TruthfulAgent,
)
from repro.mechanism.dls_lbl import DLSLBLMechanism
from repro.mechanism.properties import run_truthful
from repro.protocol.messages import GrievanceKind

Z = [0.5, 0.3, 0.7, 0.2]
ROOT = 2.0
TRUE = [3.0, 2.5, 4.0, 1.5]


@pytest.fixture
def baseline():
    return run_truthful(Z, ROOT, TRUE)


def run_with(deviant, *, seed=7, q=1.0, extra=None):
    agents = [TruthfulAgent(i, t) for i, t in enumerate(TRUE, start=1)]
    agents[deviant.index - 1] = deviant
    if extra is not None:
        agents[extra.index - 1] = extra
    mech = DLSLBLMechanism(Z, ROOT, agents, audit_probability=q, rng=np.random.default_rng(seed))
    return mech.run()


def honest_never_fined(outcome, *deviant_indices):
    return all(
        r.fines == 0.0 for i, r in outcome.reports.items() if i not in deviant_indices
    )


class TestContradictoryMessages:
    def test_detected_and_aborted(self, baseline):
        outcome = run_with(ContradictoryBidAgent(2, TRUE[1]))
        assert not outcome.completed
        assert outcome.aborted_phase == 1
        [verdict] = outcome.adjudications
        assert verdict.substantiated
        assert verdict.grievance.kind is GrievanceKind.CONTRADICTORY_MESSAGES
        assert verdict.fined == 2

    def test_cheater_loses_reporter_gains(self, baseline):
        outcome = run_with(ContradictoryBidAgent(2, TRUE[1]))
        assert outcome.utility(2) < baseline.utility(2)
        assert outcome.utility(1) > 0  # the reporting predecessor's reward
        assert honest_never_fined(outcome, 2)

    def test_detected_when_recipient_is_root(self, baseline):
        outcome = run_with(ContradictoryBidAgent(1, TRUE[0]))
        assert not outcome.completed
        assert outcome.adjudications[0].fined == 1
        # The root needs no reward; its account only reflects the retained
        # fine (utility convention keeps U_0 = 0).
        assert outcome.utility(0) == 0.0


class TestMiscomputation:
    def test_phase1_miscompute_detected_by_successor(self, baseline):
        outcome = run_with(MiscomputingAgent(2, TRUE[1], w_bar_factor=0.8))
        assert not outcome.completed
        assert outcome.aborted_phase == 2
        [verdict] = outcome.adjudications
        assert verdict.substantiated
        assert verdict.fined == 2 and verdict.rewarded == 3
        assert outcome.utility(2) < baseline.utility(2)
        assert honest_never_fined(outcome, 2)

    def test_phase2_relay_tamper_detected(self, baseline):
        outcome = run_with(RelayTamperingAgent(2, TRUE[1], d_factor=0.7))
        assert not outcome.completed
        [verdict] = outcome.adjudications
        assert verdict.substantiated and verdict.fined == 2
        assert outcome.utility(2) < baseline.utility(2)

    def test_miscompute_at_terminal_is_just_a_bid(self, baseline):
        # The terminal's w_bar IS its bid, so "miscomputing" cannot be
        # caught — and, being a bid change, cannot profit (Theorem 5.3).
        outcome = run_with(MiscomputingAgent(4, TRUE[3], w_bar_factor=0.8))
        assert outcome.completed
        assert outcome.utility(4) <= baseline.utility(4) + 1e-9


class TestLoadShedding:
    def test_victim_reports_and_is_made_whole(self, baseline):
        outcome = run_with(LoadSheddingAgent(2, TRUE[1], shed_fraction=0.5))
        assert outcome.completed  # Phase III grievances do not abort
        [verdict] = outcome.adjudications
        assert verdict.substantiated
        assert verdict.grievance.kind is GrievanceKind.OVERLOAD
        assert verdict.fined == 2 and verdict.rewarded == 3
        # The victim is strictly better off than baseline (reward F).
        assert outcome.utility(3) > baseline.utility(3)
        assert honest_never_fined(outcome, 2)

    def test_shedder_net_loses(self, baseline):
        outcome = run_with(LoadSheddingAgent(2, TRUE[1], shed_fraction=0.5))
        assert outcome.utility(2) < baseline.utility(2)

    def test_surcharge_covers_recompense(self):
        outcome = run_with(LoadSheddingAgent(2, TRUE[1], shed_fraction=0.5))
        [verdict] = outcome.adjudications
        victim = outcome.reports[3]
        extra_work_cost = (victim.computed - victim.assigned) * victim.actual_rate
        assert verdict.surcharge == pytest.approx(extra_work_cost, rel=1e-3)

    def test_victim_recompensed_via_E(self):
        outcome = run_with(LoadSheddingAgent(2, TRUE[1], shed_fraction=0.5))
        victim = outcome.reports[3]
        assert victim.computed > victim.assigned
        # Payment covers assigned + extra at the metered rate.
        assert victim.payment_correct >= victim.computed * victim.actual_rate

    def test_silent_victim_forgoes_reward_but_not_recompense(self, baseline):
        shedder = LoadSheddingAgent(2, TRUE[1], shed_fraction=0.5)
        silent = SilentVictimAgent(3, TRUE[2])
        outcome = run_with(shedder, extra=silent)
        assert not outcome.adjudications  # nothing reported
        # The silent victim is exactly at baseline: E pays for the extra
        # work, but the reward F is lost — reporting dominates.
        assert outcome.utility(3) == pytest.approx(baseline.utility(3))
        # And the shedder profits unpunished — quantifying why the
        # reporting reward matters.
        assert outcome.utility(2) > baseline.utility(2)

    def test_cascade_of_shedders(self, baseline):
        # Two consecutive shedders: each victim grieves against its own
        # predecessor.
        a = LoadSheddingAgent(1, TRUE[0], shed_fraction=0.4)
        b = LoadSheddingAgent(2, TRUE[1], shed_fraction=0.4)
        outcome = run_with(a, extra=b)
        assert outcome.completed
        fined = sorted(v.fined for v in outcome.adjudications if v.substantiated)
        assert fined == [1, 2]
        assert outcome.utility(1) < baseline.utility(1)
        assert outcome.utility(2) < baseline.utility(2)
        assert honest_never_fined(outcome, 1, 2)

    @pytest.mark.parametrize("excess", [1.5e-7, 3e-7, 4.9e-7, 7e-7, 1.2e-6])
    def test_sub_block_shed_never_fines_the_victim(self, baseline, excess):
        # A shed just above the raw tolerance: the victim grieves only
        # when its Λ certificate proves the overload on the block grid,
        # so every grievance is substantiated and no honest processor
        # pays F for an overload the court cannot see.
        fraction = excess / baseline.reports[2].assigned
        outcome = run_with(LoadSheddingAgent(2, TRUE[1], shed_fraction=fraction))
        assert all(v.substantiated and v.fined == 2 for v in outcome.adjudications)
        assert honest_never_fined(outcome, 2)

    def test_sub_block_shed_population_files_only_provable_overloads(self):
        from repro.mechanism.population import run_population

        result = run_population(2, 20, seed=7, deviant="1:shed:1e-6")
        counters = result.metrics["counters"]
        assert counters.get("mechanism.grievances", 0) == counters.get(
            "mechanism.grievances_substantiated", 0
        )


class TestOvercharging:
    def test_caught_at_q1(self, baseline):
        outcome = run_with(OverchargingAgent(3, TRUE[2], overcharge=1.0), q=1.0)
        [audit] = [a for a in outcome.audits if a.fine > 0]
        assert audit.proc == 3
        assert outcome.utility(3) < baseline.utility(3)
        assert honest_never_fined(outcome, 3)

    def test_expected_loss_at_low_q(self, baseline):
        # At q = 0.25 the penalty is 4F; averaged over audit draws the
        # overcharger loses.
        rng = np.random.default_rng(11)
        agents_proto = lambda: [TruthfulAgent(i, t) for i, t in enumerate(TRUE, start=1)]
        gains = []
        for _ in range(200):
            agents = agents_proto()
            agents[2] = OverchargingAgent(3, TRUE[2], overcharge=1.0)
            mech = DLSLBLMechanism(Z, ROOT, agents, audit_probability=0.25, rng=rng)
            outcome = mech.run()
            gains.append(outcome.utility(3) - baseline.utility(3))
        assert np.mean(gains) < 0

    def test_undercharging_is_not_fined(self):
        class Undercharger(OverchargingAgent):
            def phase4_bill(self, correct_payment):
                return correct_payment - 0.5

        outcome = run_with(Undercharger(3, TRUE[2], overcharge=0.0), q=1.0)
        assert all(a.fine == 0.0 for a in outcome.audits)


class TestFalseAccusation:
    def test_accuser_fined_accused_rewarded(self, baseline):
        outcome = run_with(FalseAccuserAgent(3, TRUE[2]))
        [verdict] = outcome.adjudications
        assert not verdict.substantiated
        assert verdict.fined == 3 and verdict.rewarded == 2
        assert outcome.utility(3) < baseline.utility(3)
        assert outcome.utility(2) > baseline.utility(2)

    def test_real_victim_is_not_a_false_accuser(self):
        # A FalseAccuser that actually IS overloaded reports legitimately.
        shedder = LoadSheddingAgent(2, TRUE[1], shed_fraction=0.5)
        accuser = FalseAccuserAgent(3, TRUE[2])
        outcome = run_with(shedder, extra=accuser)
        substantiated = [v for v in outcome.adjudications if v.substantiated]
        assert len(substantiated) == 1
        assert substantiated[0].fined == 2

    def test_accuses_when_the_overload_is_unprovable(self, baseline):
        # Overloaded by less than the raw tolerance, the accuser holds no
        # provable overload, so its grievance is a fabrication and fails.
        fraction = 5e-8 / baseline.reports[2].assigned
        shedder = LoadSheddingAgent(2, TRUE[1], shed_fraction=fraction)
        outcome = run_with(shedder, extra=FalseAccuserAgent(3, TRUE[2]))
        [verdict] = outcome.adjudications
        assert not verdict.substantiated
        assert verdict.fined == 3 and verdict.rewarded == 2


class TestMalformedMessages:
    def test_protocol_terminates_without_fines(self, baseline):
        from repro.agents.strategies import MalformedBidAgent

        outcome = run_with(MalformedBidAgent(2, TRUE[1]))
        assert not outcome.completed
        assert outcome.aborted_phase == 1
        # No attributable evidence -> no adjudication, no fines, zero
        # utilities all around (pure self-sabotage).
        assert not outcome.adjudications
        for i in range(1, 5):
            assert outcome.reports[i].fines == 0.0
            assert outcome.utility(i) == 0.0
        # Sending garbage forfeits the saboteur's own positive utility.
        assert outcome.utility(2) < baseline.utility(2)


class TestMisreportingAndSlowExecution:
    @pytest.mark.parametrize("factor", [0.5, 0.8, 1.25, 2.0])
    def test_misbidding_never_beats_truth(self, baseline, factor):
        outcome = run_with(MisbiddingAgent(2, TRUE[1], bid_factor=factor))
        assert outcome.completed
        assert not outcome.adjudications  # misbidding is legal, not a deviation
        assert outcome.utility(2) <= baseline.utility(2) + 1e-9

    @pytest.mark.parametrize("slowdown", [1.2, 1.5, 3.0])
    def test_slow_execution_never_beats_full_speed(self, baseline, slowdown):
        outcome = run_with(SlowExecutionAgent(2, TRUE[1], slowdown=slowdown))
        assert outcome.utility(2) <= baseline.utility(2) + 1e-9

    def test_slow_execution_with_matching_overbid(self, baseline):
        # Bid high AND run at the bid: still no better than truth.
        agent = SlowExecutionAgent(2, TRUE[1], slowdown=1.5, bid_factor=1.5)
        outcome = run_with(agent)
        assert outcome.utility(2) <= baseline.utility(2) + 1e-9
