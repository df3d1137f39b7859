"""Integration tests for the star/bus mechanism (DLS-SL extension)."""

import numpy as np
import pytest

from repro.agents.strategies import (
    ContradictoryBidAgent,
    LoadSheddingAgent,
    MisbiddingAgent,
    OverchargingAgent,
    SlowExecutionAgent,
    TruthfulAgent,
)
from repro.dlt.star import solve_star
from repro.exceptions import InvalidNetworkError
from repro.mechanism.star_mechanism import StarMechanism, star_bonus
from repro.network.topology import BusNetwork, StarNetwork

Z = [0.5, 0.2, 0.9, 0.4]
ROOT = 2.0
TRUE = [3.0, 2.5, 4.0, 1.5]


def run(overrides=None, *, q=1.0, seed=0):
    overrides = overrides or {}
    agents = [
        overrides.get(i, TruthfulAgent(i, t)) for i, t in enumerate(TRUE, start=1)
    ]
    mech = StarMechanism(
        Z, ROOT, agents, audit_probability=q, rng=np.random.default_rng(seed)
    )
    return mech.run()


@pytest.fixture(scope="module")
def baseline():
    return run()


class TestHonestRun:
    def test_matches_star_solver(self, baseline):
        sched = solve_star(StarNetwork([ROOT] + TRUE, Z), order="by-link")
        assert np.allclose(baseline.assigned, sched.alpha)
        assert baseline.order == sched.order
        assert baseline.makespan == pytest.approx(sched.makespan)

    def test_voluntary_participation(self, baseline):
        assert all(baseline.utility(i) >= 0 for i in range(1, 5))

    def test_root_utility_zero(self, baseline):
        assert baseline.utility(0) == 0.0

    def test_ledger_conserved(self, baseline):
        assert abs(baseline.ledger.total_balance()) < 1e-9

    def test_audits_pass(self, baseline):
        assert all(a.fine == 0.0 for a in baseline.audits)

    def test_utility_is_marginal_contribution(self, baseline):
        # U_i = T(without i) - T(with i) for truthful full-speed agents.
        star = StarNetwork([ROOT] + TRUE, Z)
        schedule = solve_star(star)
        for i in range(1, 5):
            expected = star_bonus(star, i, actual_rate=TRUE[i - 1], schedule=schedule)
            assert baseline.utility(i) == pytest.approx(expected)
            assert expected > 0  # every child strictly helps here

    def test_bus_constructor(self):
        bus = BusNetwork([ROOT] + TRUE, 0.5)
        agents = [TruthfulAgent(i, t) for i, t in enumerate(TRUE, start=1)]
        outcome = StarMechanism.for_bus(bus, agents, rng=np.random.default_rng(0)).run()
        assert outcome.completed
        assert all(outcome.utility(i) >= 0 for i in range(1, 5))


class TestStrategyproofness:
    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    def test_misbids_never_beat_truth(self, baseline, index):
        for factor in (0.3, 0.7, 1.3, 3.0):
            outcome = run({index: MisbiddingAgent(index, TRUE[index - 1], bid_factor=factor)})
            assert outcome.utility(index) <= baseline.utility(index) + 1e-9

    @pytest.mark.parametrize("index", [1, 3])
    def test_slow_execution_loses(self, baseline, index):
        outcome = run({index: SlowExecutionAgent(index, TRUE[index - 1], slowdown=2.0)})
        assert outcome.utility(index) < baseline.utility(index)


class TestDeviations:
    def test_contradictory_bids_abort(self, baseline):
        outcome = run({2: ContradictoryBidAgent(2, TRUE[1])})
        assert not outcome.completed
        assert outcome.reports[2].fines > 0
        assert outcome.utility(2) < baseline.utility(2)

    def test_root_detected_abort_has_no_phase_and_no_abort_counter(self):
        # The wire contract batch_run.contradiction_aborts(star=True)
        # reproduces: the root fines the child itself, with no
        # grievance, no aborted phase and no mechanism.aborts count.
        from repro.obs.metrics import collecting

        with collecting(merge=False) as registry:
            outcome = run({2: ContradictoryBidAgent(2, TRUE[1])})
        assert outcome.aborted_phase is None
        assert outcome.adjudications == [] and outcome.audits == []
        counters = registry.snapshot()["counters"]
        assert not [name for name in counters if name.startswith("mechanism.aborts")]
        assert counters["mechanism.fines"] == 1

    def test_abandoning_work_is_meter_detected(self, baseline):
        # There is no successor to dump on; the shedding hook abandons
        # work instead, and the meter exposes it.
        outcome = run({2: LoadSheddingAgent(2, TRUE[1], shed_fraction=0.5)})
        assert outcome.completed
        assert outcome.reports[2].fines > 0
        assert outcome.utility(2) < baseline.utility(2)
        # Nobody else is harmed or fined.
        for i in (1, 3, 4):
            assert outcome.reports[i].fines == 0.0

    def test_overcharging_audited(self, baseline):
        outcome = run({3: OverchargingAgent(3, TRUE[2], overcharge=1.0)}, q=1.0)
        assert any(a.fine > 0 and a.proc == 3 for a in outcome.audits)
        assert outcome.utility(3) < baseline.utility(3)


class TestStarBonus:
    def test_specializes_to_pairwise_reduction(self):
        # One child: B = w_0 - w_bar_0(eval), the DLS-LBL terminal bonus.
        from repro.mechanism.payments import bonus as chain_bonus

        star = StarNetwork([2.0, 3.0], [0.5])
        for actual in (2.0, 3.0, 4.5):
            b_star = star_bonus(star, 1, actual_rate=actual, schedule=solve_star(star, order=(1,)))
            b_chain = chain_bonus(
                predecessor_bid=2.0, z_link=0.5, w_bar=3.0, w_hat=actual
            )
            assert b_star == pytest.approx(b_chain)

    def test_useless_child_has_near_zero_bonus(self):
        star = StarNetwork([2.0, 3.0, 1e6], [0.5, 1e6])
        b = star_bonus(star, 2, actual_rate=1e6, schedule=solve_star(star, order=(1, 2)))
        assert 0 <= b < 1e-3


class TestConstruction:
    def test_scalar_link_is_bus(self):
        agents = [TruthfulAgent(i, t) for i, t in enumerate(TRUE, start=1)]
        mech = StarMechanism(0.5, ROOT, agents)
        assert np.allclose(mech.z, 0.5)

    def test_index_coverage(self):
        with pytest.raises(InvalidNetworkError):
            StarMechanism(Z, ROOT, [TruthfulAgent(1, 2.0)])

    def test_needs_children(self):
        with pytest.raises(InvalidNetworkError):
            StarMechanism([], ROOT, [])
