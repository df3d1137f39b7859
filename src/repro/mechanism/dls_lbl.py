"""The DLS-LBL mechanism orchestrator (paper Section 4).

Runs the four phases over a chain of strategic agents:

- **Phase I** — each processor computes its equivalent bid
  :math:`\\bar w_i` bottom-up and sends it, signed, to its predecessor;
  contradictory bids are reported and fined.
- **Phase II** — the root computes the schedule head and the ``G_i``
  bundles cascade down; every processor re-verifies its predecessor's
  arithmetic (eq. 2.7 identities) against the signed evidence; failures
  are reported, fined, and abort the run.
- **Phase III** — the load flows down the chain (simulated on the
  one-port/front-end discrete-event model); Λ certificates expose
  load-shedding; victims grieve and offenders are fined
  :math:`F + (\\tilde\\alpha_{i+1}-\\alpha_{i+1})\\tilde w_{i+1}`.
- **Phase IV** — each processor bills its own payment
  (:func:`~repro.mechanism.payments.payment_breakdown`); the root audits
  with probability ``q`` and fines invalid bills ``F/q``.

The run is deterministic given the agents, the network and the RNG; all
money movements go through the :class:`~repro.mechanism.ledger.PaymentLedger`
so the conservation invariant is checkable afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.agents.base import ProcessorAgent
from repro.dlt.allocation import LinearSchedule
from repro.exceptions import InvalidNetworkError
from repro.mechanism.protocol import ChainArm, ChainProtocol, ChainRun, ProtocolOutcome
from repro.network.topology import LinearNetwork
from repro.obs.perf import span as perf_span
from repro.obs.tracer import Tracer
from repro.sim.linear_sim import LinearChainResult, simulate_linear_chain

__all__ = ["DLSLBLMechanism", "MechanismOutcome"]


@dataclass(kw_only=True)
class MechanismOutcome(ProtocolOutcome):
    """Everything a run produced, plus the bid-derived schedule and the
    Phase III simulation (``None`` when the run aborted)."""

    schedule: LinearSchedule | None = None
    sim_result: LinearChainResult | None = None


class DLSLBLMechanism(ChainProtocol):
    """One configured instance of the mechanism.

    Parameters
    ----------
    link_rates:
        Public unit communication times ``z_1 .. z_m`` (links and their
        protocols are obedient/tamper-proof by assumption).
    root_rate:
        The obedient root's true unit processing time ``w_0``.
    agents:
        Strategic agents for positions ``1 .. m`` (any order; indices
        must be exactly ``1..m``).
    fine:
        The fine ``F``; defaults to
        :func:`~repro.mechanism.payments.recommended_fine` over the
        *true* rates with a safety margin.
    audit_probability:
        The Phase IV challenge probability ``q``.
    total_load:
        Load units originating at the root.
    rng:
        Randomness for audit draws (and nothing else — the protocol is
        deterministic).
    key_seed:
        Optional deterministic seed for the simulated PKI.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; when given, the run
        emits ``run``/``phase_*`` spans plus ``grievance``, ``fine``,
        ``audit``, ``ledger_transfer`` and ``sim_interval`` events.
        ``None`` (the default) records nothing and costs nothing.

    Runs count under ``mechanism.runs``; per-phase wall-clock goes to
    the perf spans (``perf.….mechanism.phase_*``), never into the trace.
    """

    outcome_type = MechanismOutcome
    run_results = ("completed", "aborted_phase", "makespan")

    def __init__(
        self,
        link_rates: Sequence[float],
        root_rate: float,
        agents: Sequence[ProcessorAgent],
        *,
        fine: float | None = None,
        audit_probability: float = 0.25,
        total_load: float = 1.0,
        rng: np.random.Generator | None = None,
        key_seed: bytes | None = b"dls-lbl",
        enforcement: bool = True,
        tracer: Tracer | None = None,
    ) -> None:
        self.z = np.asarray(link_rates, dtype=np.float64)
        if self.z.ndim != 1 or self.z.size == 0:
            raise InvalidNetworkError("need at least one link (m >= 1)")
        self.m = self.z.size
        expected = list(range(1, self.m + 1))
        self._configure(
            agents, expected, root_rate, fine=fine, total_load=total_load, tracer=tracer
        )
        self._configure_audits(audit_probability, rng, key_seed)
        #: Ablation switch: when ``False``, the verification machinery is
        #: disabled — no Phase I/II checks, no Λ grievances, no audits.
        #: Exists only so experiment A1 can quantify what each enforcement
        #: component is worth; a deployment would never disable it.
        self.enforcement = bool(enforcement)
        self.arm = ChainArm("chain", 0, expected, self.z)

    def _run_attrs(self) -> dict[str, Any]:
        return {
            "m": self.m,
            "fine": self.fine,
            "audit_probability": self.audit_probability,
            "total_load": self.total_load,
            "enforcement": self.enforcement,
        }

    def _run_protocol(self, metrics) -> MechanismOutcome:
        m, arm = self.m, self.arm
        # Raw bids w_i.  The terminal's Phase I "computation" is its bid.
        with perf_span("bidding"):
            run = ChainRun(self, metrics, m + 1)
        bids, w_bar, alpha_hat = run.bids, run.w_bar, run.alpha_hat

        # ---------------- Phase I: bottom-up equivalent bids -------------
        with perf_span("phase_1"), self._span("phase_1", m=m):
            if self._phase_1(run, arm):
                return self._aborted(1, run)
            # Root-side head of the reduction (the root is obedient).
            tail0 = w_bar[1] + self.z[0]
            alpha_hat[0] = tail0 / (bids[0] + tail0)
            w_bar[0] = alpha_hat[0] * bids[0]

        # ---------------- Phase II: top-down G cascade --------------------
        with perf_span("phase_2"), self._span("phase_2"):
            # The root hands P_1 everything it does not keep.
            if self._phase_2(run, arm, 1.0 - alpha_hat[0]):
                return self._aborted(2, run)

        # The bid-derived schedule (what an outside observer would compute
        # from the reported values).
        received_share = run.received_share
        assigned = received_share * alpha_hat * self.total_load
        schedule = LinearSchedule(
            network=LinearNetwork(bids, self.z),
            alpha=received_share * alpha_hat,
            alpha_hat=alpha_hat.copy(),
            received=received_share.copy(),
            w_eq=w_bar.copy(),
            makespan=float(w_bar[0]),
        )

        # ---------------- Phase III: distribution & computation ----------
        with perf_span("phase_3"), self._span("phase_3") as phase3_span:
            actual_rates = self._execution_rates(m + 1)
            delays = np.zeros(m + 1)
            for i in range(1, m + 1):
                delays[i] = max(self.agents[i].phase3_forward_delay(), 0.0)
            retained = np.array(
                [assigned[0], *self._flow(run, arm, self.total_load - assigned[0], assigned)]
            )
            network = LinearNetwork(actual_rates, self.z)
            with perf_span("simulate"):
                sim_result = simulate_linear_chain(
                    network,
                    retained,
                    speeds=network.w,
                    total_load=self.total_load,
                    # Only pass the delays when somebody actually delays:
                    # the honest path must stay byte-identical to older traces.
                    send_delays=delays if np.any(delays > 0.0) else None,
                )
            computed = sim_result.computed
            if self.tracer is not None:
                sim_result.trace.record_to(self.tracer)
            if phase3_span is not None:
                phase3_span.set(makespan=sim_result.makespan)
            block_ends = [run.lambda_device.total_blocks]
            self._phase_3_evidence(run, [arm], block_ends, actual_rates, computed)

        # ---------------- Phase IV: payments ------------------------------
        with perf_span("phase_4"), self._span("phase_4"):
            correct_q, billed_q = self._phase_4(run, [arm], assigned, computed, actual_rates)

        return self._completed(
            run, assigned, computed, actual_rates, correct_q, billed_q, sim_result.makespan,
            schedule=schedule, sim_result=sim_result,
        )
