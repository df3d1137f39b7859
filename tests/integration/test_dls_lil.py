"""Integration tests for the interior-origination mechanism (DLS-LIL).

DLS-LIL is the extension realizing the paper's Section 6 future work;
these tests mirror the DLS-LBL suite: honest runs match the closed-form
interior schedule, the theorems' properties carry over, and deviations
inside arms are detected.
"""

from collections import Counter

import numpy as np
import pytest

from repro.agents.strategies import (
    ContradictoryBidAgent,
    LoadSheddingAgent,
    MisbiddingAgent,
    MiscomputingAgent,
    OverchargingAgent,
    SlowExecutionAgent,
    TruthfulAgent,
)
from repro.dlt.linear_interior import solve_linear_interior
from repro.exceptions import InvalidNetworkError
from repro.mechanism.dls_lil import DLSLILMechanism, verify_split
from repro.mechanism.ledger import MECHANISM
from repro.obs.metrics import collecting
from repro.obs.tracer import Tracer

W = [2.0, 3.0, 2.5, 4.0, 1.5, 2.2]
Z = [0.5, 0.3, 0.7, 0.2, 0.4]
ROOT = 2


def make_agents(overrides=None):
    overrides = overrides or {}
    agents = []
    for i, rate in enumerate(W):
        if i == ROOT:
            continue
        agents.append(overrides.get(i, TruthfulAgent(i, rate)))
    return agents


def run(agents=None, *, root=ROOT, q=1.0, seed=0):
    agents = agents if agents is not None else make_agents()
    mech = DLSLILMechanism(
        Z, root, W[root], agents,
        audit_probability=q, rng=np.random.default_rng(seed),
    )
    return mech.run()


@pytest.fixture(scope="module")
def baseline():
    return run()


class TestHonestRun:
    def test_completes(self, baseline):
        assert baseline.completed
        assert not baseline.adjudications

    def test_matches_closed_form(self, baseline):
        sched = solve_linear_interior(W, Z, ROOT)
        assert np.allclose(baseline.assigned, sched.alpha)
        assert baseline.makespan == pytest.approx(sched.makespan)
        assert baseline.order == sched.order

    def test_everyone_finishes_together(self, baseline):
        finish = baseline.sim_result.finish_times
        assert np.allclose(finish, baseline.makespan)

    def test_trace_valid(self, baseline):
        baseline.sim_result.trace.validate()

    def test_root_utility_zero(self, baseline):
        assert baseline.utility(ROOT) == 0.0

    def test_voluntary_participation(self, baseline):
        for i in range(len(W)):
            assert baseline.utility(i) >= 0

    def test_arm_head_utility_is_root_bonus(self, baseline):
        # The head's utility is w_r - evaluated pair reduction, > 0.
        for head in (ROOT - 1, ROOT + 1):
            assert 0 < baseline.utility(head) < W[ROOT] if head == ROOT - 1 else True

    def test_ledger_conserved(self, baseline):
        assert abs(baseline.ledger.total_balance()) < 1e-9

    def test_audits_pass(self, baseline):
        assert all(a.fine == 0.0 for a in baseline.audits)
        assert all(a.challenged for a in baseline.audits)

    def test_load_conserved(self, baseline):
        assert baseline.computed.sum() == pytest.approx(1.0)

    def test_boundary_root_degenerates_to_single_arm(self):
        outcome = run(
            [TruthfulAgent(i, W[i]) for i in range(1, len(W))], root=0
        )
        assert outcome.completed
        sched = solve_linear_interior(W, Z, 0)
        assert np.allclose(outcome.assigned, sched.alpha)


class TestStrategyproofnessCarriesOver:
    @pytest.mark.parametrize("position", [0, 1, 3, 5])
    def test_truth_dominates_misbids(self, baseline, position):
        for factor in (0.4, 0.7, 1.3, 2.5):
            deviant = MisbiddingAgent(position, W[position], bid_factor=factor)
            outcome = run(make_agents({position: deviant}))
            assert outcome.utility(position) <= baseline.utility(position) + 1e-9

    @pytest.mark.parametrize("position", [1, 3])
    def test_slow_execution_loses(self, baseline, position):
        deviant = SlowExecutionAgent(position, W[position], slowdown=1.5)
        outcome = run(make_agents({position: deviant}))
        assert outcome.utility(position) < baseline.utility(position)


class TestDeviationsInArms:
    def test_shedding_detected_in_right_arm(self, baseline):
        deviant = LoadSheddingAgent(3, W[3], shed_fraction=0.5)
        outcome = run(make_agents({3: deviant}))
        [verdict] = outcome.adjudications
        assert verdict.substantiated
        assert verdict.fined == 3 and verdict.rewarded == 4
        assert outcome.utility(3) < baseline.utility(3)
        assert outcome.utility(4) > baseline.utility(4)

    def test_shedding_detected_in_left_arm(self, baseline):
        # Left arm relays outward toward P0: the head P1 sheds onto P0.
        deviant = LoadSheddingAgent(1, W[1], shed_fraction=0.5)
        outcome = run(make_agents({1: deviant}))
        [verdict] = outcome.adjudications
        assert verdict.substantiated
        assert verdict.fined == 1 and verdict.rewarded == 0
        assert outcome.utility(1) < baseline.utility(1)

    @pytest.mark.parametrize("excess", [1.5e-7, 3e-7, 4.9e-7, 7e-7, 1.2e-6])
    def test_sub_block_shed_never_fines_the_victim(self, baseline, excess):
        # Only a certificate-provable overload is grieved: the honest
        # victim is never fined for a shed under the block grid.
        fraction = excess / baseline.assigned[4]
        deviant = LoadSheddingAgent(4, W[4], shed_fraction=fraction)
        outcome = run(make_agents({4: deviant}))
        assert all(v.substantiated and v.fined == 4 for v in outcome.adjudications)
        assert outcome.reports[5].fines == 0.0

    def test_contradictory_bid_aborts(self, baseline):
        deviant = ContradictoryBidAgent(3, W[3])
        outcome = run(make_agents({3: deviant}))
        assert not outcome.completed
        assert outcome.aborted_phase == 1
        [verdict] = outcome.adjudications
        assert verdict.fined == 3

    def test_miscompute_detected_by_arm_successor(self, baseline):
        deviant = MiscomputingAgent(3, W[3], w_bar_factor=0.8)
        outcome = run(make_agents({3: deviant}))
        assert not outcome.completed
        [verdict] = outcome.adjudications
        assert verdict.substantiated
        assert verdict.fined == 3 and verdict.rewarded == 4

    def test_overcharge_audited(self, baseline):
        deviant = OverchargingAgent(4, W[4], overcharge=1.0)
        outcome = run(make_agents({4: deviant}), q=1.0)
        fined = [a for a in outcome.audits if a.fine > 0]
        assert [a.proc for a in fined] == [4]
        assert outcome.utility(4) < baseline.utility(4)

    def test_false_accusation_backfires(self, baseline):
        from repro.agents.strategies import FalseAccuserAgent

        deviant = FalseAccuserAgent(4, W[4])
        outcome = run(make_agents({4: deviant}))
        [verdict] = outcome.adjudications
        assert not verdict.substantiated
        assert verdict.fined == 4 and verdict.rewarded == 3
        assert outcome.utility(4) < baseline.utility(4)
        assert outcome.utility(3) > baseline.utility(3)

    def test_false_accusation_against_the_root(self, baseline):
        # An arm head accusing the (obedient) root: exculpated; the
        # root keeps its zero utility, the accuser pays.
        from repro.agents.strategies import FalseAccuserAgent

        deviant = FalseAccuserAgent(3, W[3])
        outcome = run(make_agents({3: deviant}))
        [verdict] = outcome.adjudications
        assert not verdict.substantiated
        assert verdict.fined == 3
        assert outcome.utility(ROOT) == 0.0
        assert outcome.utility(3) < baseline.utility(3)


class TestCountersAndEvents:
    """Grievances, fines, audits and aborts reach the same ``mechanism.*``
    counters and trace events as DLS-LBL's; the run counter stays
    ``mechanism.lil_runs``."""

    ROSTERS = {
        "shed": {3: LoadSheddingAgent(3, W[3], shed_fraction=0.5)},
        "contradict": {1: ContradictoryBidAgent(1, W[1])},
        "overcharge": {5: OverchargingAgent(5, W[5], overcharge=1.0)},
        # P1 sheds onto P0, the left arm's terminal: position 0 is a
        # strategic agent here, so its reward is paid.
        "both-arms": {
            1: LoadSheddingAgent(1, W[1], shed_fraction=0.5),
            3: LoadSheddingAgent(3, W[3], shed_fraction=0.5),
            5: OverchargingAgent(5, W[5], overcharge=1.0),
        },
    }

    @pytest.mark.parametrize("name", sorted(ROSTERS))
    def test_counters_match_outcome(self, name):
        tracer = Tracer()
        mech = DLSLILMechanism(
            Z, ROOT, W[ROOT], make_agents(self.ROSTERS[name]),
            audit_probability=1.0, rng=np.random.default_rng(0), tracer=tracer,
        )
        with collecting(merge=False) as registry:
            outcome = mech.run()
        counters = registry.snapshot()["counters"]

        def count(counter: str) -> float:
            return counters.get(counter, 0.0)

        verdicts, audits = outcome.adjudications, outcome.audits
        penalties = [
            e.amount
            for e in outcome.ledger.entries
            if e.creditor == MECHANISM
            and e.memo.startswith(("grievance fine", "audit penalty"))
            and e.amount > 0
        ]
        assert penalties, "every roster here is fined"
        assert count("mechanism.lil_runs") == 1 and count("mechanism.runs") == 0
        assert count("mechanism.grievances") == len(verdicts)
        assert count("mechanism.grievances_substantiated") == sum(v.substantiated for v in verdicts)
        assert count("mechanism.fines") == len(penalties)
        assert count("mechanism.fine_volume") == sum(penalties)
        assert count("mechanism.audits") == len(audits)
        assert count("mechanism.audits_challenged") == sum(a.challenged for a in audits)
        phase = outcome.aborted_phase
        assert count("mechanism.aborts") == (0 if phase is None else 1)
        if phase is not None:
            assert count(f"mechanism.aborts.phase_{phase}") == 1
        kinds = Counter(e.kind for e in tracer.events)
        assert kinds["grievance"] == len(verdicts)
        assert kinds["audit"] == len(audits)
        assert kinds["fine"] == len(penalties)

    def test_malformed_bid_aborts_with_nobody_fined(self):
        # The shared Phase I helper: as on the boundary chain, a
        # malformed message ends the run with no evidence to fine on.
        from repro.agents.strategies import MalformedBidAgent

        with collecting(merge=False) as registry:
            outcome = run(make_agents({4: MalformedBidAgent(4, W[4])}))
        assert not outcome.completed and outcome.aborted_phase == 1
        assert outcome.adjudications == [] and not outcome.ledger.entries
        assert registry.snapshot()["counters"]["mechanism.aborts.phase_1"] == 1

    def test_reward_to_position_zero_is_paid(self):
        outcome = run(make_agents({1: LoadSheddingAgent(1, W[1], shed_fraction=0.5)}))
        [verdict] = outcome.adjudications
        assert verdict.rewarded == 0
        assert outcome.reports[0].rewards == verdict.reward_amount > 0


class TestSplitVerification:
    ARGS = dict(
        root_rate=2.5,
        arm_links={"left": 0.7, "right": 0.2},
        arm_w_bars={"left": 1.2, "right": 0.9},
        order=("left", "right"),
        total_load=1.0,
    )

    def _claimed(self, side):
        from repro.dlt.star import solve_star
        from repro.network.topology import StarNetwork

        star = solve_star(
            StarNetwork([2.5, 1.2, 0.9], [0.7, 0.2]), order=(1, 2)
        )
        return float(star.alpha[1 if side == "left" else 2])

    def test_honest_split_passes(self):
        for side in ("left", "right"):
            assert verify_split(claimed_share=self._claimed(side), side=side, **self.ARGS)

    def test_tampered_split_fails(self):
        assert not verify_split(
            claimed_share=self._claimed("left") * 1.1, side="left", **self.ARGS
        )


class TestConstruction:
    def test_agent_coverage_enforced(self):
        with pytest.raises(InvalidNetworkError):
            DLSLILMechanism(Z, ROOT, W[ROOT], make_agents()[:-1])

    def test_root_out_of_range(self):
        with pytest.raises(InvalidNetworkError):
            DLSLILMechanism(Z, 99, 2.0, make_agents())

    def test_duplicate_root_agent_rejected(self):
        bad = make_agents() + [TruthfulAgent(ROOT, W[ROOT])]
        with pytest.raises(InvalidNetworkError):
            DLSLILMechanism(Z, ROOT, W[ROOT], bad)
