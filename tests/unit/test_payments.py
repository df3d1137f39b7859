"""Unit tests for the Phase IV payment structure (eqs. 4.3-4.11)."""

import numpy as np
import pytest

from repro.dlt.batch import solve_linear_batch
from repro.mechanism.payments import (
    BatchPaymentBreakdown,
    adjusted_equivalent_time,
    bonus,
    compensation,
    payment_breakdown,
    payment_breakdown_batch,
    recommended_fine,
    recompense,
    valuation,
)


class TestValuation:
    def test_cost_of_work(self):
        assert valuation(0.4, 3.0) == pytest.approx(-1.2)

    def test_idle_is_free(self):
        assert valuation(0.0, 3.0) == 0.0


class TestRecompense:
    def test_zero_when_underperforming(self):
        assert recompense(assigned=0.5, computed_amount=0.3, actual_rate=2.0) == 0.0

    def test_pays_for_overload(self):
        assert recompense(assigned=0.5, computed_amount=0.7, actual_rate=2.0) == pytest.approx(0.4)

    def test_exact_assignment_is_zero(self):
        assert recompense(0.5, 0.5, 2.0) == 0.0


class TestCompensation:
    def test_covers_full_assignment_even_if_shirked(self):
        # C_j = alpha_j * w~_j regardless of alpha~_j < alpha_j — the
        # shirker is paid, then fined via the grievance channel.
        assert compensation(assigned=0.5, computed_amount=0.2, actual_rate=2.0) == pytest.approx(1.0)

    def test_overload_adds_recompense(self):
        assert compensation(0.5, 0.7, 2.0) == pytest.approx(1.0 + 0.4)


class TestAdjustedEquivalentTime:
    def test_terminal_uses_actual_rate(self):
        assert adjusted_equivalent_time(
            is_terminal=True, bid=3.0, w_bar=3.0, alpha_hat=1.0, actual_rate=4.0
        ) == 4.0

    def test_interior_slow_runner_dominates(self):
        # w~ >= w: the segment slows to alpha_hat * w~.
        out = adjusted_equivalent_time(
            is_terminal=False, bid=3.0, w_bar=1.5, alpha_hat=0.5, actual_rate=4.0
        )
        assert out == pytest.approx(2.0)

    def test_interior_fast_runner_unchanged(self):
        # w~ < w: running faster than bid does not shrink the segment time.
        out = adjusted_equivalent_time(
            is_terminal=False, bid=3.0, w_bar=1.5, alpha_hat=0.5, actual_rate=2.0
        )
        assert out == pytest.approx(1.5)

    def test_exactly_at_bid(self):
        out = adjusted_equivalent_time(
            is_terminal=False, bid=3.0, w_bar=1.5, alpha_hat=0.5, actual_rate=3.0
        )
        assert out == pytest.approx(1.5)


class TestBonus:
    def test_truthful_full_speed_balances_branches(self):
        # When w_hat equals the bid-derived w_bar, the max's two branches
        # coincide and B = w_prev - alpha_hat_prev * w_prev > 0.
        w_prev, z, w_bar = 3.0, 0.5, 2.0
        b = bonus(predecessor_bid=w_prev, z_link=z, w_bar=w_bar, w_hat=w_bar)
        alpha_hat_prev = (w_bar + z) / (w_prev + w_bar + z)
        assert b == pytest.approx(w_prev - alpha_hat_prev * w_prev)
        assert b > 0

    def test_bonus_maximized_at_consistent_w_hat(self):
        # For fixed bids, the evaluated segment time is minimized (bonus
        # maximized) when actual performance matches the bid.
        w_prev, z, w_bar = 3.0, 0.5, 2.0
        best = bonus(predecessor_bid=w_prev, z_link=z, w_bar=w_bar, w_hat=w_bar)
        for w_hat in (0.5, 1.0, 1.5, 2.5, 3.0, 10.0):
            assert bonus(predecessor_bid=w_prev, z_link=z, w_bar=w_bar, w_hat=w_hat) <= best + 1e-12

    def test_slower_actual_shrinks_bonus_strictly(self):
        w_prev, z, w_bar = 3.0, 0.5, 2.0
        honest = bonus(predecessor_bid=w_prev, z_link=z, w_bar=w_bar, w_hat=w_bar)
        slow = bonus(predecessor_bid=w_prev, z_link=z, w_bar=w_bar, w_hat=3.0)
        assert slow < honest


class TestPaymentBreakdown:
    def _kwargs(self, **overrides):
        base = dict(
            proc=2, is_terminal=False, assigned=0.3, computed=0.3,
            actual_rate=2.5, own_bid=2.5, own_w_bar=1.2, own_alpha_hat=0.48,
            predecessor_bid=3.0, z_link=0.5,
        )
        base.update(overrides)
        return base

    def test_zero_computed_zero_payment(self):
        b = payment_breakdown(**self._kwargs(computed=0.0))
        assert b.payment == 0.0
        assert b.compensation == 0.0
        assert b.utility_before_transfers == 0.0

    def test_honest_utility_is_bonus(self):
        # V + Q = -aw + aw + B = B for an honest agent.
        b = payment_breakdown(**self._kwargs())
        assert b.utility_before_transfers == pytest.approx(b.bonus)

    def test_payment_sums_components(self):
        b = payment_breakdown(**self._kwargs(computed=0.4))
        assert b.payment == pytest.approx(b.compensation + b.bonus)
        assert b.recompense == pytest.approx((0.4 - 0.3) * 2.5)

    def test_terminal_flag_changes_w_hat_path(self):
        interior = payment_breakdown(**self._kwargs(actual_rate=5.0))
        terminal = payment_breakdown(**self._kwargs(is_terminal=True, actual_rate=5.0))
        assert interior.bonus != terminal.bonus


class TestPaymentBreakdownBatchSides:
    """Overrides stacked along a leading axis settle in one call exactly
    as the separate calls do, field by field."""

    def test_stacked_sides_equal_separate_calls(self):
        rng = np.random.default_rng(11)
        n, m = 7, 4
        schedule = solve_linear_batch(
            rng.uniform(0.5, 4.0, (n, m + 1)), rng.uniform(0.1, 1.0, (n, m))
        )
        bids = schedule.w[:, 1:]
        # Slow, fast and exact rates; idle, short and overloaded agents.
        rates = bids * rng.choice([0.5, 1.0, 2.0], (n, m))
        computed = schedule.alpha[:, 1:] * rng.choice([0.0, 0.5, 1.0, 1.5], (n, m))
        sides = [
            dict(
                assigned=schedule.alpha[:, 1:] * scale,
                alpha_hat=schedule.alpha_hat[:, 1:] * scale,
                w_bar=schedule.w_eq[:, 1:] * scale,
            )
            for scale in (1.0, 1.0 + 1e-12)
        ]
        stacked = payment_breakdown_batch(
            schedule,
            computed=computed,
            actual_rates=rates,
            **{key: np.stack([side[key] for side in sides]) for key in sides[0]},
        )
        assert stacked.payment.shape == (2, n, m)
        for k, side in enumerate(sides):
            single = payment_breakdown_batch(
                schedule, computed=computed, actual_rates=rates, **side
            )
            for field in BatchPaymentBreakdown.__dataclass_fields__:
                got = np.broadcast_to(getattr(stacked, field), stacked.payment.shape)[k]
                want = getattr(single, field)
                assert got.tobytes() == want.tobytes(), field

    def test_unbroadcastable_override_rejected(self):
        schedule = solve_linear_batch([[2.0, 2.0, 3.0]], [[1.0, 0.5]])
        with pytest.raises(ValueError, match="broadcast"):
            payment_breakdown_batch(schedule, assigned=np.ones((2, 1, 3)))


class TestRecommendedFine:
    def test_exceeds_max_extractable_payment(self):
        bids = np.array([2.0, 3.0, 5.0])
        fine = recommended_fine(bids, total_load=1.0, margin=2.0)
        # Larger than computing the entire load at the slowest rate plus
        # the largest possible bonus.
        assert fine > 1.0 * 5.0 + 5.0

    def test_scales_with_load(self):
        bids = np.array([2.0, 3.0])
        assert recommended_fine(bids, total_load=10.0) > recommended_fine(bids, total_load=1.0)

    def test_overcharge_allowance(self):
        bids = np.array([2.0])
        assert recommended_fine(bids, max_overcharge=50.0) > recommended_fine(bids) + 50.0

    def test_rejects_non_positive_margin(self):
        bids = np.array([2.0, 3.0])
        with pytest.raises(ValueError, match="margin must be positive"):
            recommended_fine(bids, margin=0.0)
        with pytest.raises(ValueError, match="margin must be positive"):
            recommended_fine(bids, margin=-1.5)

    def test_rejects_empty_bids(self):
        with pytest.raises(ValueError, match="bids must be non-empty"):
            recommended_fine(np.array([]))
