"""DLS-LIL: the interior-origination mechanism (paper Section 6 future
work, built as an extension).

The paper's DLS-LBL handles linear networks whose root is a *terminal*
processor; its conclusion announces mechanisms "for different network
architectures" as future work, the interior-rooted chain being the one
its own Section 2 defines.  DLS-LIL realizes it:

- the obedient root ``P_r`` sits mid-chain between a left and a right
  arm; each arm runs Phase I bottom-up exactly as in DLS-LBL;
- the root solves the two-child *star* over the arms' equivalent bids
  (the Fig. 3 reduction applied to whole arms) to fix its own share and
  the per-arm shares, trying both one-port service orders;
- each arm head verifies the root's split (recomputing the star from the
  signed bids) instead of the eq. 2.7 identity; all deeper processors
  run the standard ``G`` checks with arm-relative sender/attestor roles;
- Phase III distributes over the
  :func:`~repro.sim.interior_sim.simulate_interior_chain` model; Λ
  certificates, overload grievances and audits work per-arm;
- Phase IV reuses the DLS-LBL payment structure verbatim with arm-local
  predecessors (the head's predecessor is the root).

Why the payments carry over: an agent's utility at full speed is
``V + Q = B`` — the bonus — and the bonus (eq. 4.9) depends only on the
agent's pairwise reduction with its predecessor, *not* on the allocation
rule upstream.  Changing how the root splits load between arms therefore
cannot create an incentive to misreport; the empirical strategyproofness
sweeps in ``tests/integration/test_dls_lil.py`` confirm it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.agents.base import ProcessorAgent
from repro.dlt.star import solve_star
from repro.exceptions import InvalidNetworkError
from repro.mechanism.protocol import ChainArm, ChainProtocol, ChainRun, ProtocolOutcome
from repro.network.topology import StarNetwork
from repro.obs.perf import span as perf_span
from repro.obs.tracer import Tracer
from repro.sim.interior_sim import InteriorChainResult, simulate_interior_chain

__all__ = ["DLSLILMechanism", "InteriorOutcome", "verify_split"]


def verify_split(
    *,
    root_rate: float,
    arm_links: dict[str, float],
    arm_w_bars: dict[str, float],
    order: tuple[str, ...],
    claimed_share: float,
    side: str,
    total_load: float,
    rtol: float = 1e-9,
) -> bool:
    """The arm head's check of the root's star split.

    Recomputes the two-child star allocation from the signed arm bids and
    compares the claimed share for ``side``.  (The root is obedient, so
    in honest runs this always passes; it exists because the protocol
    verifies rather than trusts.)
    """
    sides = [s for s in ("left", "right") if s in arm_w_bars]
    w = np.array([root_rate] + [arm_w_bars[s] for s in sides])
    z = np.array([arm_links[s] for s in sides])
    star_order = tuple(sides.index(s) + 1 for s in order if s in arm_w_bars)
    schedule = solve_star(StarNetwork(w, z), order=star_order)
    expected = float(schedule.alpha[sides.index(side) + 1]) * total_load
    scale = max(abs(expected), 1.0)
    return abs(expected - claimed_share) <= rtol * scale


@dataclass(kw_only=True)
class InteriorOutcome(ProtocolOutcome):
    """Everything a DLS-LIL run produced (chain-position indexing; the
    root position's ``bids`` entry is ``w_r`` and its ``w_bar`` the star
    makespan), plus the arms' service order and the Phase III
    simulation."""

    order: tuple[str, ...] = ()
    sim_result: InteriorChainResult | None = None


class DLSLILMechanism(ChainProtocol):
    """One configured instance of the interior-origination mechanism.

    Parameters
    ----------
    link_rates:
        Public link times ``z_1 .. z_n`` in chain order.
    root_index:
        Chain position ``r`` of the obedient root (``0 < r < n`` for a
        genuinely interior root; boundary values degenerate to one arm).
    root_rate:
        The root's true unit processing time.
    agents:
        Strategic agents for every chain position except ``root_index``;
        each agent's ``index`` must be its chain position.

    The remaining options are DLS-LBL's.  When a tracer is attached the
    run is wrapped in a ``run`` span (``topology="linear-interior"``,
    with the root position as ``root``); grievances, fines, audits and
    aborts record DLS-LBL's counters and events.  Interior runs count
    under ``mechanism.lil_runs`` to keep the boundary-chain run counter
    untouched.
    """

    outcome_type = InteriorOutcome
    runs_counter = "mechanism.lil_runs"
    perf_name = "mechanism_lil"
    head_checks_g = False

    def __init__(
        self,
        link_rates: Sequence[float],
        root_index: int,
        root_rate: float,
        agents: Sequence[ProcessorAgent],
        *,
        fine: float | None = None,
        audit_probability: float = 0.25,
        total_load: float = 1.0,
        rng: np.random.Generator | None = None,
        key_seed: bytes | None = b"dls-lil",
        tracer: Tracer | None = None,
    ) -> None:
        self.z = np.asarray(link_rates, dtype=np.float64)
        n = self.z.size
        if n == 0:
            raise InvalidNetworkError("need at least one link")
        if not 0 <= root_index <= n:
            raise InvalidNetworkError(f"root_index {root_index} out of range")
        self.n = n
        self.root_index = r = root_index
        expected = sorted(set(range(n + 1)) - {r})
        self._configure(
            agents, expected, root_rate, fine=fine, total_load=total_load, tracer=tracer
        )
        self._configure_audits(audit_probability, rng, key_seed)
        # Each arm runs outward from the root: the left arm toward P_0
        # over links z_r, z_{r-1}, ...; the right arm toward P_n.
        self.arms: list[ChainArm] = []
        if r >= 1:
            self.arms.append(ChainArm("left", r, range(r - 1, -1, -1), self.z[:r][::-1]))
        if r <= n - 1:
            self.arms.append(ChainArm("right", r, range(r + 1, n + 1), self.z[r:]))

    def _run_attrs(self) -> dict[str, Any]:
        return {
            "topology": "linear-interior",
            "n": self.n,
            "root": self.root_index,
            "fine": self.fine,
            "audit_probability": self.audit_probability,
            "total_load": self.total_load,
        }

    def _run_protocol(self, metrics) -> InteriorOutcome:
        n = self.n
        r = self.root_index
        run = ChainRun(self, metrics, n + 1)
        w_bar = run.w_bar

        # ---------------- Phase I: per-arm bottom-up bids -----------------
        with perf_span("phase_1"):
            for arm in self.arms:
                if self._phase_1(run, arm):
                    return self._aborted(1, run)

        # ---------------- Root: the star split ----------------------------
        arm_links = {arm.side: arm.links[0] for arm in self.arms}
        arm_w_bars = {arm.side: float(w_bar[arm.members[0]]) for arm in self.arms}
        sides = [arm.side for arm in self.arms]
        star_w = np.array([self.root_rate] + [arm_w_bars[s] for s in sides])
        star_z = np.array([arm_links[s] for s in sides])
        star_net = StarNetwork(star_w, star_z)
        best = None
        orders = [(1,)] if len(sides) == 1 else [(1, 2), (2, 1)]
        for order in orders:
            sched = solve_star(star_net, order=order)
            if best is None or sched.makespan < best.makespan - 1e-15:
                best = sched
        assert best is not None
        order_names = tuple(sides[i - 1] for i in best.order)
        root_share = float(best.alpha[0]) * self.total_load
        arm_shares = {
            side: float(best.alpha[i + 1]) * self.total_load for i, side in enumerate(sides)
        }
        w_bar[r] = best.makespan
        run.alpha_hat[r] = float(best.alpha[0])

        # Heads verify the split against the signed bids (the root is
        # obedient, so this always passes in-protocol; the function itself
        # is unit-tested against tampered splits).
        for arm in self.arms:
            head = arm.members[0]
            if self.agents[head].phase2_validates():
                ok = verify_split(
                    root_rate=self.root_rate,
                    arm_links=arm_links,
                    arm_w_bars=arm_w_bars,
                    order=order_names,
                    claimed_share=arm_shares[arm.side],
                    side=arm.side,
                    total_load=self.total_load,
                )
                assert ok, "obedient root produced an inconsistent split"

        # ---------------- Phase II: per-arm G cascades --------------------
        # D values travel as fractions of the total load (the paper's
        # convention; the court and the audit recomputation scale by
        # total_load).
        with perf_span("phase_2"):
            for arm in self.arms:
                if self._phase_2(run, arm, arm_shares[arm.side] / self.total_load):
                    return self._aborted(2, run)

        assigned = run.received_share * run.alpha_hat * self.total_load
        assigned[r] = root_share

        # ---------------- Phase III: distribution & computation ----------
        with perf_span("phase_3"):
            actual_rates = self._execution_rates(n + 1)
            arm_retained = {
                arm.side: np.array(self._flow(run, arm, arm_shares[arm.side], assigned))
                for arm in self.arms
            }
            chain_w = np.where(actual_rates > 0, actual_rates, 1.0)
            sim_result = simulate_interior_chain(
                chain_w,
                self.z,
                r,
                root_share,
                arm_shares,
                arm_retained,
                order=order_names,
                speeds=chain_w,
                total_load=self.total_load,
            )
            computed = sim_result.computed
            # Disjoint Λ block ranges per arm, laid out in arm order.
            block_ends: list[int] = []
            cursor = 0
            for arm in self.arms:
                cursor += int(round(arm_shares[arm.side] * run.lambda_device.blocks_per_unit))
                block_ends.append(cursor)
            self._phase_3_evidence(run, self.arms, block_ends, actual_rates, computed)

        # ---------------- Phase IV: payments ------------------------------
        # The DLS-LBL payment structure with arm-local predecessors (the
        # head's predecessor is the root).
        with perf_span("phase_4"):
            correct_q, billed_q = self._phase_4(run, self.arms, assigned, computed, actual_rates)
        return self._completed(
            run, assigned, computed, actual_rates, correct_q, billed_q, sim_result.makespan,
            order=order_names, sim_result=sim_result,
        )
