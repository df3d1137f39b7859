"""Differential tests: the batched Phase I–IV mechanism engine.

:mod:`repro.mechanism.batch_run` claims *bitwise* equality with the
scalar protocol — not approximate agreement.  These tests replay
randomized populations (honest and with bid/rate/bill deviants) through
both paths and compare every observable with ``==`` / ``array_equal``:
allocations, payments, audit challenges and fines, valuations,
utilities, ledger totals, makespans, and the protocol counter subset of
the metrics.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.strategies import (
    MiscomputingAgent,
    MisbiddingAgent,
    OverchargingAgent,
    RelayTamperingAgent,
    SlowExecutionAgent,
    TruthfulAgent,
)
from repro.experiments.runner import task_seed
from repro.mechanism.batch_run import run_chain_batch, run_star_batch
from repro.mechanism.dls_lbl import DLSLBLMechanism
from repro.mechanism.population import make_deviant, run_population
from repro.mechanism.rows import _draw_stack, _solo_delta, draw_network, run_rows
from repro.mechanism.star_mechanism import StarMechanism
from repro.network.generators import random_linear_network, random_star_network
from repro.obs.metrics import collecting


def _protocol_counters(snapshot):
    """The counters both paths must agree on (``crypto.*`` counters and
    wall-clock timers have no batched analogue)."""
    return {
        k: v
        for k, v in snapshot.get("counters", {}).items()
        if k.startswith(("mechanism.", "ledger."))
    }


class _FixedDraws:
    """An rng stub replaying a fixed sequence of challenge draws."""

    def __init__(self, values):
        self.values = [float(v) for v in values]
        self.cursor = 0

    def random(self):
        value = self.values[self.cursor]
        self.cursor += 1
        return value


def _scalar_agents(true_rates, kind):
    agents = [TruthfulAgent(i, float(t)) for i, t in enumerate(true_rates, start=1)]
    m = len(agents)
    if kind == 1:
        agents[0] = MisbiddingAgent(1, float(true_rates[0]), bid_factor=1.6)
    elif kind == 2:
        agents[1 % m] = SlowExecutionAgent(
            (1 % m) + 1, float(true_rates[1 % m]), slowdown=2.5
        )
    elif kind == 3:
        agents[m - 1] = OverchargingAgent(m, float(true_rates[m - 1]), overcharge=3.0)
    return agents


class TestChainEngineDifferential:
    """Randomized chains, heterogeneous deviants, q = 0.5 audits."""

    N, M, SEED = 24, 5, 9

    @pytest.fixture(scope="class")
    def paired(self):
        N, m = self.N, self.M
        w = np.empty((N, m + 1))
        z = np.empty((N, m))
        draws = np.empty((N, m))
        for i in range(N):
            rng = np.random.default_rng(task_seed(f"diff/{i}", self.SEED))
            net = random_linear_network(m, rng)
            w[i], z[i], draws[i] = net.w, net.z, rng.random(m)
        bids = w[:, 1:].copy()
        rates = w[:, 1:].copy()
        over = np.zeros((N, m))
        for i in range(N):
            kind = i % 4
            if kind == 1:
                bids[i, 0] = 1.6 * w[i, 1]
            elif kind == 2:
                bids[i, 1 % m] = w[i, (1 % m) + 1]
                rates[i, 1 % m] = 2.5 * w[i, (1 % m) + 1]
            elif kind == 3:
                over[i, m - 1] = 3.0
        batch = run_chain_batch(
            w,
            z,
            bids=bids,
            execution_rates=rates,
            bill_overcharge=over,
            audit_probability=0.5,
            audit_draws=draws,
        )
        scalars = []
        for i in range(N):
            rng = np.random.default_rng(task_seed(f"diff/{i}", self.SEED))
            net = random_linear_network(m, rng)
            mech = DLSLBLMechanism(
                net.z,
                float(net.w[0]),
                _scalar_agents(net.w[1:], i % 4),
                audit_probability=0.5,
                rng=rng,
            )
            scalars.append((mech, mech.run()))
        return batch, scalars

    def test_allocation_bitwise(self, paired):
        batch, scalars = paired
        for i, (_mech, outcome) in enumerate(scalars):
            assert np.array_equal(outcome.bids, batch.bids[i])
            assert np.array_equal(outcome.w_bar, batch.w_bar[i])
            assert np.array_equal(outcome.assigned, batch.assigned[i])
            assert np.array_equal(outcome.computed, batch.computed[i])
            assert np.array_equal(outcome.actual_rates, batch.actual_rates[i])
            assert float(outcome.makespan) == float(batch.makespan[i])

    def test_payments_and_audits_bitwise(self, paired):
        batch, scalars = paired
        fined_rows = 0
        for i, (mech, outcome) in enumerate(scalars):
            assert mech.fine == batch.fine[i]
            for j in range(1, self.M + 1):
                report = outcome.reports[j]
                audit = outcome.audits[j - 1]
                assert report.payment_correct == batch.correct_q[i, j - 1]
                assert report.payment_billed == batch.billed_q[i, j - 1]
                assert report.valuation == batch.valuations[i, j - 1]
                assert report.utility == batch.utilities[i, j - 1]
                assert report.utility == batch.utility(i, j)
                assert report.fines == batch.audit_fines[i, j - 1]
                assert audit.challenged == bool(batch.challenged[i, j - 1])
                assert audit.fine == batch.audit_fines[i, j - 1]
                if audit.challenged and audit.recomputed is not None:
                    assert audit.recomputed == batch.recomputed_q[i, j - 1]
            fined_rows += int((batch.audit_fines[i] > 0).any())
        # The population must actually exercise the fine path.
        assert fined_rows > 0

    def test_ledger_mirrors_bitwise(self, paired):
        from repro.mechanism.ledger import MECHANISM

        batch, scalars = paired
        for i, (_mech, outcome) in enumerate(scalars):
            fines = sum(
                e.amount for e in outcome.ledger.entries if e.creditor == MECHANISM
            )
            assert fines == batch.fines_total[i]
            assert outcome.ledger.mechanism_outlay() == batch.mechanism_outlay[i]
            # The per-run counter deltas: a fresh registry's left fold
            # of every entry amount, and of the audit fines alone.
            volume = fine_volume = 0.0
            for entry in outcome.ledger.entries:
                volume += entry.amount
            for audit in outcome.audits:
                if audit.fine > 0:
                    fine_volume += audit.fine
            assert volume == batch.volume[i]
            assert fine_volume == batch.fine_volume[i]


class TestStarEngineDifferential:
    """Randomized stars of widths 1..9 against ``StarMechanism.run``."""

    def test_rows_bitwise(self):
        for trial in range(10):
            rng = np.random.default_rng(500 + trial)
            n = [1, 2, 3, 5, 8][trial % 5]
            star = random_star_network(n, rng)
            w = np.tile(star.w, (4, 1))
            z = np.tile(star.z, (4, 1))
            bids = w[:, 1:].copy()
            rates = w[:, 1:].copy()
            over = np.zeros((4, n))
            slow_col = min(1, n - 1)
            bids[1, 0] = 0.6 * w[1, 1]
            rates[2, slow_col] = 1.9 * w[2, slow_col + 1]
            over[3, n - 1] = 2.0
            draws = rng.random((4, n))
            batch = run_star_batch(
                w,
                z,
                bids=bids,
                execution_rates=rates,
                bill_overcharge=over,
                audit_probability=0.7,
                audit_draws=draws,
            )
            for row in range(4):
                agents = [
                    TruthfulAgent(i, float(t))
                    for i, t in enumerate(star.w[1:], start=1)
                ]
                if row == 1:
                    agents[0] = MisbiddingAgent(1, float(star.w[1]), bid_factor=0.6)
                elif row == 2:
                    agents[slow_col] = SlowExecutionAgent(
                        slow_col + 1, float(star.w[slow_col + 1]), slowdown=1.9
                    )
                elif row == 3:
                    agents[n - 1] = OverchargingAgent(
                        n, float(star.w[n]), overcharge=2.0
                    )
                mech = StarMechanism(
                    star.z,
                    float(star.w[0]),
                    agents,
                    audit_probability=0.7,
                    rng=_FixedDraws(draws[row]),
                )
                outcome = mech.run()
                assert mech.fine == batch.fine[row]
                assert outcome.order == tuple(batch.orders[row])
                assert np.array_equal(outcome.assigned, batch.assigned[row])
                assert float(outcome.makespan) == float(batch.makespan[row])
                for j in range(1, n + 1):
                    report = outcome.reports[j]
                    assert report.payment_correct == batch.correct_q[row, j - 1]
                    assert report.payment_billed == batch.billed_q[row, j - 1]
                    assert report.utility == batch.utilities[row, j - 1]
                    assert report.fines == batch.audit_fines[row, j - 1]


class TestStackedDraw:
    """The array path's stacked ``w`` / ``z`` / audit-draw rows are the
    solo recipe's stream: ``draw_network`` then ``rng.random(m)``."""

    @settings(max_examples=60, deadline=None)
    @given(
        topology=st.sampled_from(["chain", "star"]),
        m=st.integers(min_value=1, max_value=16),
        seeds=st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=6),
    )
    def test_rows_equal_solo_draws(self, topology, m, seeds):
        w, z, draws = _draw_stack(m, seeds)
        for k, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            network = draw_network(topology, m, rng)
            assert np.array_equal(w[k], network.w)
            assert np.array_equal(z[k], network.z)
            assert np.array_equal(draws[k], rng.random(m))


class TestChainPhase2Checks:
    """Miscomputed ``w_bar``, tampered ``D`` and an extreme misbid through
    :func:`run_chain_batch` against :class:`DLSLBLMechanism`, per agent:
    which runs abort in Phase II, who pays the grievance fine and who
    collects the reward (the row fields alone cannot tell)."""

    M = 4
    SPECS = [
        f"{i}:{kind}:{factor}"
        for i in (1, 2, 4)
        for kind in ("miscompute", "tamper")
        for factor in ("0.8", "1e3", "1.0000000001")
    ] + ["1:misbid:1e7", "2:misbid:1e7"] * 6

    def test_per_agent_outcomes_equal_scalar(self):
        m, n = self.M, len(self.SPECS)
        seeds = list(range(700, 700 + n))
        w, z, draws = _draw_stack(m, seeds)
        bids = w[:, 1:].copy()
        w_bar_factor = np.full((n, m), np.nan)
        d_factor = np.full((n, m), np.nan)
        for k, spec in enumerate(self.SPECS):
            agent = make_deviant(spec, list(w[k, 1:]))
            bids[k, agent.index - 1] = agent.choose_bid()
            if isinstance(agent, MiscomputingAgent):
                w_bar_factor[k, agent.index - 1] = agent.w_bar_factor
            elif isinstance(agent, RelayTamperingAgent):
                d_factor[k, agent.index - 1] = agent.d_factor
        batch = run_chain_batch(
            w,
            z,
            bids=bids,
            w_bar_factor=w_bar_factor,
            d_factor=d_factor,
            audit_probability=0.25,
            audit_draws=draws,
        )
        aborted = 0
        for k, (seed, spec) in enumerate(zip(seeds, self.SPECS)):
            rng = np.random.default_rng(seed)
            net = draw_network("chain", m, rng)
            agents = [TruthfulAgent(i, float(t)) for i, t in enumerate(net.w[1:], start=1)]
            deviant = make_deviant(spec, list(net.w[1:]))
            agents[deviant.index - 1] = deviant
            outcome = DLSLBLMechanism(
                net.z, float(net.w[0]), agents, audit_probability=0.25, rng=rng
            ).run()
            assert bool(batch.aborted[k]) == (not outcome.completed), spec
            assert np.array_equal(outcome.bids, batch.bids[k])
            assert np.array_equal(outcome.w_bar, batch.w_bar[k])
            assert [outcome.utility(j) for j in range(1, m + 1)] == batch.utilities[k].tolist()
            assert outcome.ledger.mechanism_outlay() == batch.mechanism_outlay[k]
            assert len(outcome.adjudications) == batch.grievances[k]
            aborted += not outcome.completed
        assert 0 < aborted < n


class TestStarRowsDifferential:
    """Star ``run_rows`` (every row stacked, the contradiction settled
    from the draw) against the scalar :class:`StarMechanism` solo
    recipe, row by row."""

    SPECS = (
        None,
        "1:overcharge:3.0",
        "2:misbid:1.5",
        None,
        "1:slow:2.0",
        "2:shed:0.5",
        "1:contradict",
        None,
        "2:tamper",
        "1:accuse",
        "2:miscompute",
    )

    @pytest.mark.parametrize("m", [2, 3, 6])
    def test_rows_equal_scalar_solo(self, m):
        seeds = [task_seed(f"star/{i}", m) for i in range(len(self.SPECS))]
        rows = run_rows("star", m, 0.5, seeds, self.SPECS)
        assert rows.engines == ["array"] * len(self.SPECS)
        for i, (seed, spec) in enumerate(zip(seeds, self.SPECS)):
            fields, _events, snapshot = _solo_delta("star", m, seed, 0.5, spec, "scalar", False)
            assert rows.fields[i] == fields
            assert _protocol_counters(rows.snapshots[i]) == _protocol_counters(snapshot)


class TestPopulationBatchPath:
    """``run_population(use_batch=True)`` against the scalar loop."""

    CASES = (None, "2:misbid:1.7", "3:slow:2.0", "2:overcharge:4.0")

    @pytest.mark.parametrize("deviant", CASES)
    def test_summaries_and_counters_equal(self, deviant):
        kwargs = dict(m=4, count=20, seed=11, audit_probability=0.4, deviant=deviant)
        with collecting() as registry:
            scalar = run_population(**kwargs)
            scalar_counters = _protocol_counters(registry.snapshot())
        with collecting() as registry:
            batched = run_population(use_batch=True, **kwargs)
            batch_counters = _protocol_counters(registry.snapshot())
        assert scalar.runs == batched.runs
        assert scalar_counters == batch_counters
        assert batched.events == []

    @pytest.mark.parametrize("seed", range(20))
    def test_back_to_back_populations_fold_like_the_scalar_loop(self, seed):
        """Two populations in one scope: every stacked row folds into the
        live counters in run order, as the scalar loop's runs do (a
        stack merged as one total drifts by an ulp from the second call
        on)."""

        def counters(use_batch):
            with collecting() as registry:
                for population_seed in (seed, seed + 100):
                    run_population(
                        m=4,
                        count=20,
                        seed=population_seed,
                        audit_probability=0.4,
                        use_batch=use_batch,
                    )
                return _protocol_counters(registry.snapshot())

        assert counters(True) == counters(False)

    def test_non_batchable_deviant_runs_batch_native(self):
        kwargs = dict(m=4, count=3, seed=2, deviant="2:shed:0.5")
        with collecting() as registry:
            scalar = run_population(**kwargs)
            scalar_counters = _protocol_counters(registry.snapshot())
        with collecting() as registry:
            batched = run_population(use_batch=True, **kwargs)
            batch_counters = _protocol_counters(registry.snapshot())
        assert scalar.runs == batched.runs
        assert scalar_counters == batch_counters
        assert batch_counters.get("mechanism.scalar_fallbacks", 0) == 0

    def test_trace_runs_batch_native_byte_equal(self):
        from repro.obs.tracer import events_to_jsonl

        kwargs = dict(m=3, count=2, seed=5, trace=True)
        scalar = run_population(**kwargs)
        batched = run_population(use_batch=True, **kwargs)
        assert batched.events  # the lane path traces natively
        assert events_to_jsonl(batched.events) == events_to_jsonl(scalar.events)


class TestRngPreShaping:
    """The engine's pre-shaped draw block is the scalar stream."""

    def test_block_equals_sequential_draws(self):
        for seed in (0, 7, 123):
            rng_a = np.random.default_rng(seed)
            rng_b = np.random.default_rng(seed)
            random_linear_network(6, rng_a)
            random_linear_network(6, rng_b)
            block = rng_a.random(6)
            singles = np.array([rng_b.random() for _ in range(6)])
            assert np.array_equal(block, singles)
