"""Wiring fault specs into the mechanism's existing hook seams.

One agent class, :class:`FaultyAgent`, carries the *active* faults for
its position and applies each effect inside the corresponding
:class:`~repro.agents.base.ProcessorAgent` hook; every hook without an
active fault falls through to the inherited honest behaviour.  The
honest code paths are never forked — a :class:`FaultyAgent` with no
active faults is behaviourally identical to a
:class:`~repro.agents.strategies.TruthfulAgent` (differentially tested),
which is what makes the zero-fault scenario bit-identical to the plain
mechanism run.

:func:`build_agents` performs the deterministic activation draws
(probability, target selection) from a seed-derived stream and returns
the agent population plus the record of what was actually injected.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Sequence

import numpy as np

from repro.agents.base import ProcessorAgent
from repro.agents.strategies import TruthfulAgent
from repro.faults.spec import FaultSpec, ScenarioSpec
from repro.protocol.messages import GrievanceKind, PaymentProof

__all__ = ["FaultyAgent", "activate_faults", "build_agents", "fault_records", "faulty_population"]


class FaultyAgent(ProcessorAgent):
    """A processor executing the active faults at its position.

    Parameters
    ----------
    faults:
        The :class:`~repro.faults.spec.FaultSpec` list active for this
        run at this index (one per kind; later specs of the same kind
        override earlier ones).
    z_next:
        The public link time to the successor (needed only by
        ``misreport_z``; ``None`` at the terminal).
    """

    def __init__(
        self,
        index: int,
        true_rate: float,
        faults: Sequence[FaultSpec] = (),
        *,
        z_next: float | None = None,
    ) -> None:
        super().__init__(index, true_rate)
        self.faults: dict[str, FaultSpec] = {f.kind: f for f in faults}
        self.z_next = None if z_next is None else float(z_next)

    @property
    def strategy_name(self) -> str:  # type: ignore[override]
        if not self.faults:
            return "truthful"
        return "fault:" + "+".join(sorted(self.faults))

    def _param(self, kind: str) -> float:
        value = self.faults[kind].effective_param
        assert value is not None, f"fault {kind!r} requires a parameter"
        return float(value)

    def _crash_phase(self) -> int | None:
        spec = self.faults.get("crash")
        if spec is None:
            return None
        return int(spec.effective_param or 3)

    # -- Phase I -------------------------------------------------------

    def choose_bid(self) -> float:
        if "misbid" in self.faults:
            return self._param("misbid") * self.true_rate
        return super().choose_bid()

    def phase1_w_bar(self, honest_w_bar: float) -> float:
        if "miscompute" in self.faults:
            return honest_w_bar * self._param("miscompute")
        if "misreport_z" in self.faults and self.z_next is not None:
            # Recompute the recurrence with a misreported successor link:
            # recover tail = w_bar_{i+1} + z from honest = tail/(b+tail)*b,
            # scale the z component, and re-fold.  The successor's signed
            # bid pins the true tail, so the Phase II identity check fails.
            b = self.choose_bid()
            if honest_w_bar < b:
                tail = honest_w_bar * b / (b - honest_w_bar)
                tail_forged = tail + (self._param("misreport_z") - 1.0) * self.z_next
                return tail_forged / (b + tail_forged) * b
        return super().phase1_w_bar(honest_w_bar)

    def phase1_second_bid(self, reported_w_bar: float) -> float | None:
        if "contradict" in self.faults:
            return reported_w_bar * self._param("contradict")
        return super().phase1_second_bid(reported_w_bar)

    def phase1_sends_malformed(self) -> bool:
        if "msg_drop" in self.faults or "sig_corrupt" in self.faults:
            return True
        if self._crash_phase() == 1:
            return True
        return super().phase1_sends_malformed()

    # -- Phase II ------------------------------------------------------

    def phase2_validates(self) -> bool:
        if "no_validate" in self.faults:
            return False
        return super().phase2_validates()

    def phase2_d_next(self, honest_d_next: float) -> float:
        if "relay_tamper" in self.faults:
            return honest_d_next * self._param("relay_tamper")
        return super().phase2_d_next(honest_d_next)

    def phase2_echo_bid(self, successor_w_bar: float) -> float:
        if "echo_tamper" in self.faults:
            return successor_w_bar * self._param("echo_tamper")
        return super().phase2_echo_bid(successor_w_bar)

    # -- Phase III -----------------------------------------------------

    def choose_execution_rate(self) -> float:
        if "slow" in self.faults:
            return self._param("slow") * self.true_rate
        return super().choose_execution_rate()

    def choose_retention(self, assigned: float, received: float, expected_forward: float) -> float:
        if self._crash_phase() == 3:
            return 0.0
        if "shed" in self.faults:
            honest = max(received - expected_forward, 0.0)
            return (1.0 - self._param("shed")) * min(assigned, honest)
        return super().choose_retention(assigned, received, expected_forward)

    def reports_overload(self) -> bool:
        if "silent_victim" in self.faults:
            return False
        return super().reports_overload()

    def phase3_forward_delay(self) -> float:
        if "msg_delay" in self.faults:
            return self._param("msg_delay")
        return super().phase3_forward_delay()

    def fabricates_accusation(self) -> GrievanceKind | None:
        if "false_accuse" in self.faults:
            return GrievanceKind.OVERLOAD
        return super().fabricates_accusation()

    # -- Phase IV ------------------------------------------------------

    def phase4_bill(self, correct_payment: float) -> float:
        if self._crash_phase() == 4:
            return 0.0
        if "overcharge" in self.faults:
            return correct_payment + self._param("overcharge")
        return super().phase4_bill(correct_payment)

    def phase4_proof(self, proof: PaymentProof) -> PaymentProof:
        if "meter_tamper" in self.faults:
            # Rewrite the reading inside the root-signed meter message;
            # the stale signature no longer covers the payload, so the
            # audit's component verification rejects the proof.
            payload = dict(proof.meter.payload)
            payload["actual_rate"] = float(payload["actual_rate"]) * self._param("meter_tamper")
            proof = dataclasses.replace(
                proof, meter=dataclasses.replace(proof.meter, payload=payload)
            )
        if "lambda_tamper" in self.faults:
            # Claim more blocks than the device issued; range containment
            # fails Lambda verification during the audit recomputation.
            cert = proof.certificate
            proof = dataclasses.replace(
                proof,
                certificate=dataclasses.replace(
                    cert, n_blocks=cert.n_blocks + int(self._param("lambda_tamper"))
                ),
            )
        return super().phase4_proof(proof)


def activate_faults(
    scenario: ScenarioSpec, rng: np.random.Generator, m: int | None = None
) -> list[tuple[FaultSpec, int]]:
    """Draw this run's fault activations from the activation stream.

    ``rng`` is the scenario's *activation stream* for one run — every
    fault consumes exactly one Bernoulli draw (plus one target draw when
    ``target is None``), so the activation pattern is a pure function of
    the stream's seed, independent of worker layout.

    Returns ``(spec, resolved_target)`` pairs in spec order.
    """
    m = scenario.m if m is None else m
    chosen: list[tuple[FaultSpec, int]] = []
    for spec in scenario.faults:
        if float(rng.random()) >= spec.probability:
            continue
        target = spec.target
        if target is None:
            hi = m - 1 if (spec.info.needs_successor and m > 1) else m
            target = int(rng.integers(1, hi + 1))
        chosen.append((spec, target))
    return chosen


def fault_records(chosen: Sequence[tuple[FaultSpec, int]]) -> list[dict[str, Any]]:
    """JSON-ready records of activated faults (kind, target, parameter,
    expectation) — the payload of ``fault_injected`` trace events and the
    runner's ``active`` summary field."""
    return [
        {
            "kind": spec.kind,
            "target": target,
            "param": spec.effective_param,
            "probability": spec.probability,
            "expected": spec.info.expected,
            "theorem": spec.info.theorem,
        }
        for spec, target in chosen
    ]


def build_agents(
    scenario: ScenarioSpec,
    rng: np.random.Generator,
    true_rates: Sequence[float],
    link_rates: np.ndarray,
) -> tuple[list[ProcessorAgent], list[dict[str, Any]]]:
    """Draw fault activations and build the agent population.

    The activation draws come from :func:`activate_faults` (one stream
    position per fault, regardless of outcome).  Returns ``(agents,
    active)`` where ``active`` records each injected fault in spec order.
    """
    chosen = activate_faults(scenario, rng, len(true_rates))
    return faulty_population(chosen, true_rates, link_rates), fault_records(chosen)


def faulty_population(
    chosen: Sequence[tuple[FaultSpec, int]],
    true_rates: Sequence[float],
    link_rates: np.ndarray,
) -> list[ProcessorAgent]:
    """Agents ``1 .. m``: a :class:`FaultyAgent` carrying its activated
    faults at each target of ``chosen``, a truthful agent elsewhere."""
    m = len(true_rates)
    per_target: dict[int, list[FaultSpec]] = {}
    for spec, target in chosen:
        per_target.setdefault(target, []).append(spec)
    agents: list[ProcessorAgent] = []
    for i in range(1, m + 1):
        t = float(true_rates[i - 1])
        faults = per_target.get(i)
        if faults:
            z_next = float(link_rates[i]) if i < m else None
            agents.append(FaultyAgent(i, t, faults, z_next=z_next))
        else:
            agents.append(TruthfulAgent(i, t))
    return agents
