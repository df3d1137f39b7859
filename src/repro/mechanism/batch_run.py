"""Batched Phase I–IV mechanism engine.

Executes whole *populations* of mechanism runs in stacked numpy passes —
the vectorized counterpart of :class:`~repro.mechanism.dls_lbl.DLSLBLMechanism`
(:func:`run_chain_batch`) and :class:`~repro.mechanism.star_mechanism.StarMechanism`
(:func:`run_star_batch`).  The Monte-Carlo experiments (population runs,
T5.x sweeps, X3, X5) spend their time looping the scalar mechanisms;
this module runs every row of a ``(runs, n)`` rate matrix through bid
collection, the stacked Algorithm-1 solve, verification/metering
comparisons, and Phase IV settlement at once.

**Bitwise contract.**  For protocol-compliant populations (truthful,
misbidding, slow-executing, and overcharging agents — anything that
never triggers a grievance or an abort) every produced quantity —
allocations, payments, fines, audit outcomes, utilities, ledger
aggregates, protocol counters — is bitwise-identical to running the
scalar mechanism row by row.  That requires transcribing the scalar
arithmetic *verbatim*, not just equivalently:

- the mechanism's interior ``alpha_hat`` is the division
  ``w_bar[i] / bids[i]`` (dls_lbl Phase I), which differs in the last
  ulp from the solver's backward-pass ``tail / (w + tail)``;
- the audit recomputation builds its own ``alpha_hat`` with the
  *left-associative* denominator ``own_bid + w_bar_next + z_next``
  (audit.recompute_payment_from_proof), again ulp-different from the
  backward pass;
- the star normalization is a per-row ``math.fsum``, not ``ndarray.sum``
  (dlt.star._alpha_for_order);
- ledger aggregates replay the entry-order float accumulation of
  :class:`~repro.mechanism.ledger.PaymentLedger`.

Audit randomness comes in as a pre-shaped ``(runs, n)`` draw block —
``Generator.random((runs, n))`` consumes the PCG64 stream exactly like
``runs * n`` sequential scalar draws, so callers can hand the engine the
same stream the scalar loop would have used.

**Masked deviant lanes.**  Behaviours the stacked arrays cannot express
(load-shedding, contradictory bids, relay tampering, fabricated
accusations, proof forgery — anything that triggers a grievance, an
abort, or a failed audit proof, plus any traced run) execute on the
*lane engine*: :class:`LaneChainMechanism` / :class:`LaneStarMechanism`
subclass the scalar mechanisms and swap only their infrastructure seams
— HMAC signing becomes the fingerprint stand-in :class:`_PlainSigned`,
the tamper-proof meter a plain recorder, and the event-heap Phase III
simulator a closed-form chain replay.  Every protocol branch (grievance
adjudication, aborts, audit recomputation, settlement, tracing) is the
inherited scalar code operating on identical values, so lane outcomes —
including trace bytes — are bitwise-equal by construction while skipping
the crypto that dominates scalar runtime.
:func:`repro.mechanism.rows.run_rows` routes a mixed population:
conforming lanes ride the stacked arrays, divergent lanes take the lane
engine, and results zip back in lane order.  There is no scalar
fallback; :func:`run_chain_batch` still raises
:class:`~repro.exceptions.ProtocolViolation` if a caller feeds it an
overloading row directly, as an internal-invariant guard.

Metrics: the engine emits the same protocol counters as the scalar runs
(``mechanism.runs``/``star_runs``, ``mechanism.audits``,
``audits_challenged``, ``fines``, ``fine_volume``, ``ledger.transfers``,
``ledger.volume``) with bitwise-identical totals.  Implementation-cost
metrics (``crypto.*`` counters) have no batched analogue; batch solves
add ``dlt.batch.*`` counters, and the ``mech_batch`` / ``mech_batch_star``
perf spans time the stacked call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.dlt.batch import _validate_stack, solve_linear_batch
from repro.exceptions import InvalidNetworkError, ProtocolViolation
from repro.mechanism.audit import BILL_TOL
from repro.mechanism.dls_lbl import DLSLBLMechanism
from repro.mechanism.payments import payment_breakdown_batch
from repro.mechanism.star_mechanism import StarMechanism
from repro.network.topology import LinearNetwork
from repro.obs.metrics import get_registry
from repro.obs.perf import span as perf_span
from repro.protocol.meter import MeterReading, TamperProofMeter
from repro.sim.linear_sim import LinearChainResult
from repro.sim.trace import GanttTrace, Interval

__all__ = [
    "BatchChainOutcome",
    "BatchStarOutcome",
    "LaneChainMechanism",
    "LaneStarMechanism",
    "chain_row_snapshots",
    "run_chain_batch",
    "run_star_batch",
    "star_row_snapshots",
]

#: Mirror of :data:`repro.sim.linear_sim._EPS_LOAD` (sub-threshold loads
#: are neither transmitted nor computed).
_EPS_LOAD = 1e-12

#: Mirror of :data:`repro.mechanism.dls_lbl._LOAD_TOL` (overload slack).
_LOAD_TOL = 1e-7

#: Mirror of :data:`repro.mechanism.star_mechanism._WORK_TOL`.
_WORK_TOL = 1e-9


def _as_matrix(name: str, value, shape: tuple[int, int]) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != shape:
        raise InvalidNetworkError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


def _default_fine(w: np.ndarray, total_load: float) -> np.ndarray:
    """Vectorized :func:`~repro.mechanism.payments.recommended_fine` with
    the mechanisms' standard arguments (``margin=2.0``,
    ``max_overcharge=10 * max(true rates)``) — same association order, so
    bitwise-equal per row."""
    mx = w.max(axis=1)
    return 2.0 * (total_load * mx + mx + 10.0 * mx)


def _fine_vector(fine, w: np.ndarray, total_load: float) -> np.ndarray:
    if fine is None:
        return _default_fine(w, total_load)
    arr = np.asarray(fine, dtype=np.float64)
    if arr.ndim == 0:
        return np.full(w.shape[0], float(arr))
    if arr.shape != (w.shape[0],):
        raise InvalidNetworkError(f"fine must be scalar or shape ({w.shape[0]},), got {arr.shape}")
    return arr


def _challenges(audit_draws, q: float, shape: tuple[int, int]) -> np.ndarray:
    """Bernoulli challenge outcomes from a pre-shaped draw block.

    ``None`` means "no audit randomness": nothing is challenged, which
    is the right model for compliant sweeps whose utilities are
    challenge-independent (verified bills are never fined)."""
    if audit_draws is None:
        return np.zeros(shape, dtype=bool)
    draws = np.asarray(audit_draws, dtype=np.float64)
    if draws.shape != shape:
        raise InvalidNetworkError(f"audit_draws must have shape {shape}, got {draws.shape}")
    return draws < q


def _ledger_mirrors(
    root_pay: np.ndarray, billed: np.ndarray, audit_fines: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Replay the per-run ledger arithmetic of the scalar mechanisms.

    Entry order per run is: root reimbursement, then for each agent its
    Phase IV bill followed by its audit fine (if any).  Every aggregate
    accumulates in exactly that order so the floats match the scalar
    :class:`~repro.mechanism.ledger.PaymentLedger` bitwise (``a - b`` is
    IEEE-identical to ``a + (-b)``, which covers the negative-bill
    direction flip).  The one column fold also yields each run's
    ``ledger.volume`` and ``mechanism.fine_volume`` counter deltas.

    Returns ``(balances, fines_total, mechanism_outlay, volume,
    fine_volume)``, all per run.
    """
    n_agents = billed.shape[1]
    # The scalar ledger's entry amount: the bill, or -bill when the
    # direction flips (a -0.0 bill stays -0.0, unlike np.abs).
    abs_bill = np.where(billed >= 0.0, billed, -billed)
    balances = 0.0 + billed
    balances = np.where(audit_fines > 0.0, balances - audit_fines, balances)
    volume = root_pay.copy()
    fine_volume = np.zeros_like(root_pay)
    fines_total = np.zeros_like(root_pay)
    outlay_balance = 0.0 - root_pay
    for i in range(n_agents):
        bill = billed[:, i]
        volume = volume + abs_bill[:, i]
        fines_total = np.where(bill < 0.0, fines_total + (-bill), fines_total)
        outlay_balance = outlay_balance - bill
        f = audit_fines[:, i]
        fined = f > 0.0
        volume = np.where(fined, volume + f, volume)
        fine_volume = np.where(fined, fine_volume + f, fine_volume)
        fines_total = np.where(fined, fines_total + f, fines_total)
        outlay_balance = np.where(fined, outlay_balance + f, outlay_balance)
    return balances, fines_total, -outlay_balance, volume, fine_volume


def _fold(values: np.ndarray) -> float:
    """Left fold in run order — how per-run counter deltas merge."""
    total = 0.0
    for v in values:
        total = total + float(v)
    return total


def _emit_counters(
    registry, outcome: BatchChainOutcome | BatchStarOutcome, runs_counter: str
) -> None:
    """Emit the scalar mechanisms' protocol counters with identical totals.

    Scalar runs increment once per event; summed over a population the
    counts are exact integers and the float volumes are per-run
    sequential sums folded in run order — replicated here (keys that a
    scalar population would never create stay absent)."""
    n_runs, m = outcome.audit_fines.shape
    registry.inc(runs_counter, n_runs)
    registry.inc("mechanism.audits", n_runs * m)
    n_challenged = int(np.count_nonzero(outcome.challenged))
    if n_challenged:
        registry.inc("mechanism.audits_challenged", n_challenged)
    n_fine_entries = int(np.count_nonzero(outcome.audit_fines > 0.0))
    if n_fine_entries:
        registry.inc("mechanism.fines", n_fine_entries)
        registry.inc("mechanism.fine_volume", _fold(outcome.fine_volume))
    registry.inc("ledger.transfers", n_runs * (1 + m) + n_fine_entries)
    registry.inc("ledger.volume", _fold(outcome.volume))


@dataclass(frozen=True)
class BatchChainOutcome:
    """Stacked outcome of ``N`` chain-mechanism runs (row = run).

    Column layout follows the scalar mechanism: full-chain arrays have
    ``m + 1`` columns (root first), per-agent arrays have ``m`` columns
    for processors ``1 .. m``.
    """

    bids: np.ndarray            # (N, m+1) — root column is the obedient root rate
    w_bar: np.ndarray           # (N, m+1) equivalent bids
    alpha_hat: np.ndarray       # (N, m+1) mechanism-faithful local fractions
    received_share: np.ndarray  # (N, m+1) D_i per unit load
    assigned: np.ndarray        # (N, m+1) absolute load units
    retained: np.ndarray        # (N, m+1) Phase III retention plan
    received_actual: np.ndarray  # (N, m+1) what actually flowed
    computed: np.ndarray        # (N, m+1) sim-metered computation
    actual_rates: np.ndarray    # (N, m+1) metered rates (root included)
    arrival_times: np.ndarray   # (N, m+1)
    makespan: np.ndarray        # (N,)
    fine: np.ndarray            # (N,)
    correct_q: np.ndarray       # (N, m) provable Phase IV payments
    billed_q: np.ndarray        # (N, m)
    recomputed_q: np.ndarray    # (N, m) audit-recomputed payments
    challenged: np.ndarray      # (N, m) bool
    audit_fines: np.ndarray     # (N, m) F/q where levied, else 0
    valuations: np.ndarray      # (N, m)
    balances: np.ndarray        # (N, m) per-agent ledger balances
    utilities: np.ndarray       # (N, m)
    fines_total: np.ndarray     # (N,) total credited to the mechanism
    mechanism_outlay: np.ndarray  # (N,)
    volume: np.ndarray          # (N,) per-run ledger.volume delta
    fine_volume: np.ndarray     # (N,) per-run mechanism.fine_volume delta

    @property
    def n_runs(self) -> int:
        return self.bids.shape[0]

    @property
    def n_agents(self) -> int:
        return self.bids.shape[1] - 1

    def utility(self, run: int, index: int) -> float:
        """Utility of processor ``index`` in ``run`` (0 for the root)."""
        if index == 0:
            return 0.0
        return float(self.utilities[run, index - 1])


@dataclass(frozen=True)
class BatchStarOutcome:
    """Stacked outcome of ``N`` star-mechanism runs (row = run)."""

    bids: np.ndarray            # (N, n+1)
    orders: np.ndarray          # (N, n) service order (child indices)
    alpha: np.ndarray           # (N, n+1)
    assigned: np.ndarray        # (N, n+1)
    computed: np.ndarray        # (N, n+1)
    actual_rates: np.ndarray    # (N, n+1)
    makespan: np.ndarray        # (N,)
    fine: np.ndarray            # (N,)
    correct_q: np.ndarray       # (N, n)
    billed_q: np.ndarray        # (N, n)
    recomputed_q: np.ndarray    # (N, n)
    challenged: np.ndarray      # (N, n) bool
    audit_fines: np.ndarray     # (N, n)
    valuations: np.ndarray      # (N, n)
    balances: np.ndarray        # (N, n)
    utilities: np.ndarray       # (N, n)
    fines_total: np.ndarray     # (N,)
    mechanism_outlay: np.ndarray  # (N,)
    volume: np.ndarray          # (N,)
    fine_volume: np.ndarray     # (N,)

    @property
    def n_runs(self) -> int:
        return self.bids.shape[0]

    @property
    def n_children(self) -> int:
        return self.bids.shape[1] - 1

    def utility(self, run: int, index: int) -> float:
        if index == 0:
            return 0.0
        return float(self.utilities[run, index - 1])


def run_chain_batch(
    w: np.ndarray,
    z: np.ndarray,
    *,
    bids: np.ndarray | None = None,
    execution_rates: np.ndarray | None = None,
    bill_overcharge: np.ndarray | None = None,
    audit_probability: float = 0.25,
    total_load: float = 1.0,
    fine: float | np.ndarray | None = None,
    audit_draws: np.ndarray | None = None,
    emit_metrics: bool = True,
) -> BatchChainOutcome:
    """Run Phases I–IV of DLS-LBL over ``N`` stacked chains at once.

    Parameters
    ----------
    w:
        True unit processing rates, shape ``(N, m+1)`` — column 0 is the
        obedient root.
    z:
        Link rates, shape ``(N, m)``.
    bids:
        Agent bids, shape ``(N, m)``; defaults to ``w[:, 1:]`` (truthful).
        This is the vectorized bid collection: apply any strategy
        function over the rate matrix and pass the result here.
    execution_rates:
        Chosen execution rates, shape ``(N, m)``; the mechanism meters
        ``max(execution_rate, true_rate)``.  Defaults to truthful.
    bill_overcharge:
        Additive Phase IV bill inflation per agent, shape ``(N, m)``;
        zero models a truthful biller.
    audit_probability / total_load / fine:
        As in the scalar mechanism; ``fine=None`` applies the scalar
        default (:func:`~repro.mechanism.payments.recommended_fine` over
        the true rates) per row.
    audit_draws:
        Pre-shaped uniform draws, shape ``(N, m)`` — one per (run, agent)
        in the order the scalar auditor consumes them.  ``None`` disables
        challenges (compliant-sweep mode).

    Returns
    -------
    BatchChainOutcome — every field bitwise-equal to the scalar runs.

    Raises
    ------
    InvalidNetworkError
        If the stacked bids or links hold a non-finite or non-positive
        rate, or the shapes disagree (one check over the whole stack, in
        the stacked solve).
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] < 2:
        raise InvalidNetworkError(f"w must be (N, m+1) with m >= 1, got {w.shape}")
    n_runs, m = w.shape[0], w.shape[1] - 1
    z = _as_matrix("z", z, (n_runs, m))
    q = float(audit_probability)
    if not 0.0 < q <= 1.0:
        raise ValueError("audit probability q must be in (0, 1]")
    load = float(total_load)
    fine_arr = _fine_vector(fine, w, load)

    true_rates = w[:, 1:]
    bid_arr = true_rates if bids is None else _as_matrix("bids", bids, (n_runs, m))
    full_bids = np.concatenate((w[:, :1], bid_arr), axis=1)

    with perf_span("mech_batch"):
        # ---- Phase I: stacked Algorithm-1 solve + mechanism-faithful
        # local fractions.  The solver's w_eq IS the scalar w_bar; the
        # interior alpha_hat must be re-derived by the mechanism's
        # division (ulp-different from the solver's backward-pass form).
        with perf_span("phase_1"):
            schedule = solve_linear_batch(full_bids, z)
            w_bar = schedule.w_eq
            alpha_hat = np.empty_like(w_bar)
            alpha_hat[:, m] = 1.0
            if m > 1:
                alpha_hat[:, 1:m] = w_bar[:, 1:m] / full_bids[:, 1:m]
            alpha_hat[:, 0] = schedule.alpha_hat[:, 0]

        # ---- Phase II: the D_i cascade (sequential in the chain axis —
        # each share multiplies the previous one, like the G messages).
        with perf_span("phase_2"):
            received = np.empty_like(w_bar)
            received[:, 0] = 1.0
            received[:, 1] = 1.0 - alpha_hat[:, 0]
            for i in range(1, m):
                received[:, i + 1] = received[:, i] * (1.0 - alpha_hat[:, i])
            assigned = received * alpha_hat * load

        # ---- Phase III: honest retention plan, then the event-driven
        # cascade (store-and-forward with the simulator's load threshold).
        with perf_span("phase_3"):
            exec_arr = (
                true_rates
                if execution_rates is None
                else _as_matrix("execution_rates", execution_rates, (n_runs, m))
            )
            actual = np.maximum(exec_arr, true_rates)
            rates_full = np.concatenate((w[:, :1], actual), axis=1)

            retained = np.zeros_like(w_bar)
            received_actual = np.zeros_like(w_bar)
            received_actual[:, 0] = load
            retained[:, 0] = assigned[:, 0]
            for i in range(1, m + 1):
                received_actual[:, i] = received_actual[:, i - 1] - retained[:, i - 1]
                if i == m:
                    retained[:, i] = received_actual[:, i]
                else:
                    expected_forward = received[:, i + 1] * load
                    choice = np.maximum(received_actual[:, i] - expected_forward, 0.0)
                    retained[:, i] = np.clip(choice, 0.0, received_actual[:, i])

            # Batched metering comparison: any overload would trigger scalar
            # grievance adjudication, which has no vectorized path.
            if np.any(received_actual[:, 1:] > received[:, 1:] * load + _LOAD_TOL):
                raise ProtocolViolation(
                    "batched runs must be grievance-free: a row's actual flow "
                    "exceeds its Phase II expectation"
                )

            computed = np.zeros_like(w_bar)
            arrival = np.zeros_like(w_bar)
            flowing = np.full(n_runs, load)
            now = np.zeros(n_runs)
            alive = np.ones(n_runs, dtype=bool)
            for p in range(m + 1):
                keep = flowing if p == m else np.minimum(retained[:, p], flowing)
                computed[:, p] = np.where(alive & (keep > _EPS_LOAD), keep, 0.0)
                arrival[:, p] = np.where(alive, now, 0.0)
                if p < m:
                    forward = flowing - keep
                    sent = alive & (forward > _EPS_LOAD)
                    now = np.where(sent, now + forward * z[:, p], 0.0)
                    flowing = np.where(sent, forward, 0.0)
                    alive = sent
            ends = np.where(computed > 0.0, arrival + computed * rates_full, 0.0)
            makespan = ends.max(axis=1)

        # ---- Phase IV: provable payments from the mechanism's own
        # arrays, then the audit recomputation with the proof-side
        # alpha_hat (left-associative denominator, verbatim).
        with perf_span("phase_4"):
            correct_bd = payment_breakdown_batch(
                schedule,
                computed=computed[:, 1:],
                actual_rates=actual,
                assigned=assigned[:, 1:],
                alpha_hat=alpha_hat[:, 1:],
            )
            correct_q = correct_bd.payment
            if bill_overcharge is None:
                billed = correct_q
            else:
                over = _as_matrix("bill_overcharge", bill_overcharge, (n_runs, m))
                billed = np.where(over != 0.0, correct_q + over, correct_q)

            audit_alpha_hat = np.empty((n_runs, m))
            audit_alpha_hat[:, m - 1] = 1.0
            audit_w_bar = np.empty((n_runs, m))
            audit_w_bar[:, m - 1] = full_bids[:, m]
            if m > 1:
                w_bar_next = w_bar[:, 2:]
                z_next = z[:, 1:]
                own_bid = full_bids[:, 1:m]
                hat = (w_bar_next + z_next) / (own_bid + w_bar_next + z_next)
                audit_alpha_hat[:, : m - 1] = hat
                audit_w_bar[:, : m - 1] = hat * own_bid
            audit_assigned = received[:, 1:] * audit_alpha_hat * load
            recomputed_q = payment_breakdown_batch(
                schedule,
                computed=computed[:, 1:],
                actual_rates=actual,
                assigned=audit_assigned,
                alpha_hat=audit_alpha_hat,
                w_bar=audit_w_bar,
            ).payment

            challenged = _challenges(audit_draws, q, (n_runs, m))
            audit_fines = np.where(
                challenged & (billed > recomputed_q + BILL_TOL),
                fine_arr[:, None] / q,
                0.0,
            )

            root_pay = assigned[:, 0] * w[:, 0]
            balances, fines_total, outlay, volume, fine_volume = _ledger_mirrors(
                root_pay, billed, audit_fines
            )
            valuations = -computed[:, 1:] * actual
            utilities = valuations + balances

        outcome = BatchChainOutcome(
            bids=full_bids,
            w_bar=w_bar,
            alpha_hat=alpha_hat,
            received_share=received,
            assigned=assigned,
            retained=retained,
            received_actual=received_actual,
            computed=computed,
            actual_rates=rates_full,
            arrival_times=arrival,
            makespan=makespan,
            fine=fine_arr,
            correct_q=correct_q,
            billed_q=billed,
            recomputed_q=recomputed_q,
            challenged=challenged,
            audit_fines=audit_fines,
            valuations=valuations,
            balances=balances,
            utilities=utilities,
            fines_total=fines_total,
            mechanism_outlay=outlay,
            volume=volume,
            fine_volume=fine_volume,
        )
        if emit_metrics:
            _emit_counters(get_registry(), outcome, "mechanism.runs")
    return outcome


def _star_alpha_batch(w: np.ndarray, z: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Per-row equal-finish star allocation, bitwise-equal to
    :func:`~repro.dlt.star._alpha_for_order`.

    Identical to :func:`~repro.dlt.star.star_alpha_kernel` except for the
    normalization, which must be a per-row ``math.fsum`` to match the
    scalar solver (``ndarray.sum`` pairs differently for n >= 8)."""
    served_w = np.take_along_axis(w, cols, axis=1)
    prev_w = np.concatenate((w[:, :1], served_w[:, :-1]), axis=1)
    denom = np.take_along_axis(z, cols - 1, axis=1) + served_w
    ratios = np.cumprod(prev_w / denom, axis=1)
    alpha = np.empty_like(w)
    alpha0 = np.empty(w.shape[0])
    for r in range(w.shape[0]):
        alpha0[r] = 1.0 / (1.0 + math.fsum(ratios[r]))
    alpha[:, 0] = alpha0
    np.put_along_axis(alpha, cols, alpha0[:, None] * ratios, axis=1)
    return alpha


def run_star_batch(
    w: np.ndarray,
    z: np.ndarray,
    *,
    bids: np.ndarray | None = None,
    execution_rates: np.ndarray | None = None,
    bill_overcharge: np.ndarray | None = None,
    audit_probability: float = 0.25,
    total_load: float = 1.0,
    fine: float | np.ndarray | None = None,
    audit_draws: np.ndarray | None = None,
    emit_metrics: bool = True,
) -> BatchStarOutcome:
    """Run the star/bus mechanism over ``N`` stacked stars at once.

    Same contract and parameter layout as :func:`run_chain_batch` with
    ``n`` children per row.  The batchable behaviours are bids, slow
    execution, and bill overcharges; every such row completes its full
    assignment, so the meter's abandoned-work check is identically
    satisfied and the audit recomputation (from the root's own records)
    reproduces the provable payment exactly.  Invalid stacks raise
    :class:`~repro.exceptions.InvalidNetworkError` as in the chain engine.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] < 2:
        raise InvalidNetworkError(f"w must be (N, n+1) with n >= 1, got {w.shape}")
    # The one check of the whole stack (the chain engine's runs in its
    # stacked solve).
    w, z = _validate_stack(w, z)
    n_runs, n = w.shape[0], w.shape[1] - 1
    q = float(audit_probability)
    if not 0.0 < q <= 1.0:
        raise ValueError("audit probability q must be in (0, 1]")
    load = float(total_load)
    fine_arr = _fine_vector(fine, w, load)

    true_rates = w[:, 1:]
    bid_arr = true_rates if bids is None else _as_matrix("bids", bids, (n_runs, n))
    full_bids = np.concatenate((w[:, :1], bid_arr), axis=1)

    with perf_span("mech_batch_star"):
        # Service order: non-decreasing link time, stable per row — the
        # public bid-independent optimum the scalar mechanism uses.
        orders = np.argsort(z, axis=1, kind="stable") + 1
        alpha = _star_alpha_batch(full_bids, z, orders)
        assigned = alpha * load

        exec_arr = (
            true_rates
            if execution_rates is None
            else _as_matrix("execution_rates", execution_rates, (n_runs, n))
        )
        actual = np.maximum(exec_arr, true_rates)
        rates_full = np.concatenate((w[:, :1], actual), axis=1)
        # Batchable children complete their whole assignment: the scalar
        # clip(max(assigned - 0, 0), 0, assigned) is the identity here,
        # and the meter's abandoned-work comparison never fires.
        computed = assigned.copy()

        # Marginal-contribution bonus, one reduced solve per child:
        # T(w_{-i}) minus the bid-derived allocation re-timed at the
        # child's actual rate.
        alpha_served = np.take_along_axis(alpha, orders, axis=1)
        z_served = np.take_along_axis(z, orders - 1, axis=1)
        clock = np.cumsum(alpha_served * z_served, axis=1)
        t_served_bid = clock + alpha_served * np.take_along_axis(full_bids, orders, axis=1)
        t_root = alpha[:, 0] * full_bids[:, 0]

        if n == 1:
            t_without = full_bids[:, :1].copy()
        else:
            # All n reduced stars in one call: block c - 1 of the N * n
            # stacked rows drops child c.  Every step is row-wise, so
            # this is bitwise-equal to n separate calls.
            keep = np.array([[c for c in range(n) if c != child] for child in range(n)])
            z_red = z[:, keep].transpose(1, 0, 2).reshape(n * n_runs, n - 1)
            w_red = np.concatenate(
                (
                    np.tile(full_bids[:, :1], (n, 1)),
                    full_bids[:, 1:][:, keep].transpose(1, 0, 2).reshape(n * n_runs, n - 1),
                ),
                axis=1,
            )
            orders_red = np.argsort(z_red, axis=1, kind="stable") + 1
            alpha_red = _star_alpha_batch(w_red, z_red, orders_red)
            t_without = (alpha_red[:, 0] * w_red[:, 0]).reshape(n, n_runs).T
        # Axis 1 picks the child re-timed at its actual rate, axis 2 the
        # service slot: only that child's own slot changes.
        slot = orders[:, None, :] == np.arange(1, n + 1)[None, :, None]
        t_child = clock[:, None, :] + (alpha[:, 1:] * actual)[:, :, None]
        t_eval = np.maximum(
            t_root[:, None],
            np.where(slot, t_child, t_served_bid[:, None, :]).max(axis=2),
        )
        bonus = t_without - t_eval
        correct_q = assigned[:, 1:] * actual + bonus
        if bill_overcharge is None:
            billed = correct_q
        else:
            over = _as_matrix("bill_overcharge", bill_overcharge, (n_runs, n))
            billed = np.where(over != 0.0, correct_q + over, correct_q)
        # The root recomputes from its own records with the very same
        # expression and inputs, so the recomputed payment IS correct_q.
        recomputed_q = correct_q

        challenged = _challenges(audit_draws, q, (n_runs, n))
        audit_fines = np.where(
            challenged & (billed > recomputed_q + BILL_TOL),
            fine_arr[:, None] / q,
            0.0,
        )

        t_served_actual = clock + alpha_served * np.take_along_axis(rates_full, orders, axis=1)
        t_root_actual = alpha[:, 0] * rates_full[:, 0]
        makespan = np.maximum(t_root_actual, t_served_actual.max(axis=1)) * load

        root_pay = assigned[:, 0] * w[:, 0]
        balances, fines_total, outlay, volume, fine_volume = _ledger_mirrors(
            root_pay, billed, audit_fines
        )
        valuations = -computed[:, 1:] * actual
        utilities = valuations + balances

        outcome = BatchStarOutcome(
            bids=full_bids,
            orders=orders,
            alpha=alpha,
            assigned=assigned,
            computed=computed,
            actual_rates=rates_full,
            makespan=makespan,
            fine=fine_arr,
            correct_q=correct_q,
            billed_q=billed,
            recomputed_q=recomputed_q,
            challenged=challenged,
            audit_fines=audit_fines,
            valuations=valuations,
            balances=balances,
            utilities=utilities,
            fines_total=fines_total,
            mechanism_outlay=outlay,
            volume=volume,
            fine_volume=fine_volume,
        )
        if emit_metrics:
            _emit_counters(get_registry(), outcome, "mechanism.star_runs")
    return outcome


# ---------------------------------------------------------------------------
# Masked deviant lanes
#
# The scalar mechanisms reach every piece of environment machinery — the
# PKI, message signing, the tamper-proof meter, the Phase III simulator —
# through overridable seams.  The lane engine subclasses swap those seams
# for crypto-free stand-ins, so a lane whose agents shed load, contradict
# themselves, tamper with proofs, or accuse falsely runs the *inherited*
# protocol code (grievances, aborts, audits, settlement, tracing) on
# identical values, bitwise-equal to the scalar run but without the HMAC
# signing/verification and event-heap costs that dominate its runtime.
# ---------------------------------------------------------------------------


def _lane_fingerprint(payload: Any) -> tuple:
    """A cheap canonical form of a message payload.

    Protocol payloads are flat ``str -> int/float/str`` dicts, so the
    sorted item tuple is a faithful stand-in for the scalar path's
    canonical-bytes digest: equal payloads fingerprint equal, and digests
    are only ever compared for equality."""
    if isinstance(payload, dict):
        return tuple(sorted(payload.items()))
    return (repr(payload),)


@dataclass(frozen=True)
class _PlainSigned:
    """Stand-in for :class:`~repro.crypto.signing.SignedMessage`.

    Same ``signer``/``payload`` surface, but the HMAC signature is
    replaced by a payload fingerprint taken at construction time.
    ``verify`` recomputes the fingerprint, so a payload swapped in via
    ``dataclasses.replace`` (how the fault injector tampers with meter
    readings) carries the stale fingerprint and fails verification —
    exactly when the real signature would.  The ``registry`` argument is
    accepted and ignored, keeping every duck-typed consumer (G-message
    verification, the grievance court, the audit recomputation)
    unchanged."""

    signer: int
    payload: Any
    fingerprint: tuple | None = None

    def __post_init__(self) -> None:
        if self.fingerprint is None:
            object.__setattr__(self, "fingerprint", _lane_fingerprint(self.payload))

    def verify(self, registry) -> bool:
        return self.fingerprint == _lane_fingerprint(self.payload)

    def content_digest(self) -> tuple:
        return self.fingerprint


class _LaneMeter:
    """Duck-typed :class:`~repro.protocol.meter.TamperProofMeter` storing
    plain readings and emitting fingerprint-signed messages."""

    def __init__(self) -> None:
        self._readings: dict[int, MeterReading] = {}

    def record(self, proc: int, actual_rate: float, computed_amount: float) -> _PlainSigned:
        reading = MeterReading(
            proc=proc,
            actual_rate=float(actual_rate),
            computed_amount=float(computed_amount),
        )
        self._readings[proc] = reading
        return _PlainSigned(signer=0, payload=reading.as_payload())

    def reading_for(self, proc: int) -> MeterReading | None:
        return self._readings.get(proc)

    parse = staticmethod(TamperProofMeter.parse)


def _replay_chain(
    network: LinearNetwork,
    retained: np.ndarray,
    total_load: float,
    delays: np.ndarray,
) -> LinearChainResult:
    """Closed-form replay of :func:`~repro.sim.linear_sim.simulate_linear_chain`.

    The chain cascade is strictly sequential — the arrival at ``i + 1``
    is a pure function of the arrival at ``i`` — so the event heap adds
    nothing but overhead.  Every float operation keeps the simulator's
    association order (arrivals advance by ``now + (delay + duration)``),
    so times, interval bounds, and the recorded trace are
    bitwise-identical to the event-driven run."""
    n = network.size
    w = network.w
    z = network.z
    retained_arr = np.asarray(retained, dtype=np.float64)
    use_delays = bool(np.any(delays > 0.0))
    trace = GanttTrace()
    received = np.zeros(n)
    computed = np.zeros(n)
    arrival = np.zeros(n)
    now = 0.0
    load = float(total_load)
    proc = 0
    while True:
        received[proc] = load
        arrival[proc] = now
        keep = load if proc == n - 1 else min(retained_arr[proc], load)
        forward = load - keep
        if keep > _EPS_LOAD:
            computed[proc] = keep
            duration = keep * w[proc]
            trace.add(Interval("compute", proc, now, now + duration, keep))
        if proc < n - 1 and forward > _EPS_LOAD:
            duration = forward * z[proc]
            delay = delays[proc] if use_delays else 0.0
            start = now + delay
            trace.add(Interval("send", proc, start, start + duration, forward, peer=proc + 1))
            trace.add(Interval("recv", proc + 1, start, start + duration, forward, peer=proc))
            now = now + (delay + duration)
            load = forward
            proc += 1
        else:
            break
    return LinearChainResult(
        trace=trace,
        received=received,
        computed=computed,
        arrival_times=arrival,
        finish_times=trace.finish_times(n),
        makespan=trace.makespan,
    )


class LaneChainMechanism(DLSLBLMechanism):
    """A divergent batch lane on the chain: the full scalar protocol with
    the infrastructure seams swapped for batch-native stand-ins.

    Covers everything the stacked arrays cannot express — grievances
    (shedding, contradictory bids, relay tampering, false accusations),
    aborts, proof forgery, and traced runs — with outcomes, counters and
    trace bytes bitwise-equal to :class:`DLSLBLMechanism`."""

    def _make_crypto(self, key_seed: bytes | None) -> None:
        self._keys = None
        return None

    def _sign(self, signer: int, payload: dict) -> _PlainSigned:
        return _PlainSigned(signer, payload)

    def _make_meter(self) -> _LaneMeter:
        return _LaneMeter()

    def _simulate(
        self, network: LinearNetwork, retained: np.ndarray, delays: np.ndarray
    ) -> LinearChainResult:
        return _replay_chain(network, retained, self.total_load, delays)


class LaneStarMechanism(StarMechanism):
    """A divergent batch lane on the star — :class:`StarMechanism` with
    the crypto seams swapped, bitwise-equal outcomes."""

    def _make_crypto(self, key_seed: bytes | None) -> None:
        self._keys = None
        return None

    def _sign(self, signer: int, payload: dict) -> _PlainSigned:
        return _PlainSigned(signer, payload)

    def _make_meter(self) -> _LaneMeter:
        return _LaneMeter()


def chain_row_snapshots(outcome: BatchChainOutcome) -> list[dict[str, Any]]:
    """Per-row protocol-counter snapshots for a stacked chain outcome.

    The row engine (:mod:`repro.mechanism.rows`) merges counters in
    *lane order* — interleaving array lanes with lane-engine runs — so
    the float accumulation order matches a scalar loop exactly.  That
    requires the stacked pass's counters at per-row granularity: each
    snapshot holds what one scalar run would have contributed, with the
    same left-fold entry order (root reimbursement, then per agent its
    bill and audit fine)."""
    return _row_snapshots(outcome, "mechanism.runs")


def star_row_snapshots(outcome: BatchStarOutcome) -> list[dict[str, Any]]:
    """Per-row protocol-counter snapshots for a stacked star outcome.

    Same contract as :func:`chain_row_snapshots` with the star run
    counter (``mechanism.star_runs``); the scalar star's ledger entry
    order for batchable rows is identical (root reimbursement, then per
    child its bill and audit fine)."""
    return _row_snapshots(outcome, "mechanism.star_runs")


def _row_snapshots(
    outcome: BatchChainOutcome | BatchStarOutcome, runs_counter: str
) -> list[dict[str, Any]]:
    m = outcome.bids.shape[1] - 1
    n_fines = np.count_nonzero(outcome.audit_fines > 0.0, axis=1).tolist()
    n_challenged = np.count_nonzero(outcome.challenged, axis=1).tolist()
    # The per-row volumes are the engine's one ledger fold.
    fine_volume = outcome.fine_volume.tolist()
    volume = outcome.volume.tolist()
    snapshots: list[dict[str, Any]] = []
    for k in range(len(volume)):
        counters: dict[str, float] = {runs_counter: 1.0, "mechanism.audits": float(m)}
        if n_challenged[k]:
            counters["mechanism.audits_challenged"] = float(n_challenged[k])
        if n_fines[k]:
            counters["mechanism.fines"] = float(n_fines[k])
            counters["mechanism.fine_volume"] = fine_volume[k]
        counters["ledger.transfers"] = float(1 + m + n_fines[k])
        counters["ledger.volume"] = volume[k]
        snapshots.append({"counters": counters})
    return snapshots
