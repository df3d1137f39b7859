"""Batched Phase I–IV mechanism engine.

Executes whole *populations* of mechanism runs in stacked numpy passes —
the vectorized counterpart of :class:`~repro.mechanism.dls_lbl.DLSLBLMechanism`
(:func:`run_chain_batch`) and :class:`~repro.mechanism.star_mechanism.StarMechanism`
(:func:`run_star_batch`).  The Monte-Carlo experiments (population runs,
T5.x sweeps, X3, X5) spend their time looping the scalar mechanisms;
this module runs every row of a ``(runs, n)`` rate matrix through bid
collection, the stacked Algorithm-1 solve, verification/metering
comparisons, and Phase IV settlement at once.

**Bitwise contract.**  For populations of truthful, misbidding,
slow-executing, overcharging, load-shedding, falsely accusing,
miscomputing and relay-tampering agents (with at most one grievance per
run) every produced quantity — allocations, payments, fines, grievance
verdicts, Phase II aborts, audit outcomes, utilities, ledger
aggregates, protocol counters — is bitwise-identical to running the
scalar mechanism row by row; contradictory Phase I bids settle from the
drawn rates alone (:func:`contradiction_aborts`).  That requires
transcribing the scalar arithmetic *verbatim*, not just equivalently:

- the mechanism's interior ``alpha_hat`` is the division
  ``w_bar[i] / bids[i]`` (dls_lbl Phase I), which differs in the last
  ulp from the solver's backward-pass ``tail / (w + tail)``;
- the audit recomputation builds its own ``alpha_hat`` with the
  *left-associative* denominator ``own_bid + w_bar_next + z_next``
  (audit.recompute_payment_from_proof), again ulp-different from the
  backward pass;
- the star normalization is a per-row ``math.fsum``, not ``ndarray.sum``
  (dlt.star._alpha_for_order);
- a miscomputed ``w_bar`` feeds the predecessors' recurrence and a
  tampered ``D`` the rest of the cascade, and every run takes the
  successors' Phase II checks on those same floats (the guard, the
  ``alpha_hat`` reconstruction and eqs. 2.4/2.7 under ``CHECK_RTOL``):
  a run fails exactly when the scalar run does, float cancellation
  under extreme bids included;
- a shedder retains ``(1 - f) * min(assigned, honest)``, the
  :class:`~repro.agents.strategies.LoadSheddingAgent` expression;
- grievance verdicts repeat the court's arithmetic rather than assume
  an outcome: the filing predicate
  :func:`~repro.protocol.grievance.provable_overload`, the Λ
  certificate's block count, ``OVERLOAD_TOL`` and the victim's metered
  rate for the surcharge;
- ledger aggregates replay the entry-order float accumulation of
  :class:`~repro.mechanism.ledger.PaymentLedger`, Phase III grievance
  and meter fines first.

Audit randomness comes in as a pre-shaped ``(runs, n)`` draw block —
``Generator.random((runs, n))`` consumes the PCG64 stream exactly like
``runs * n`` sequential scalar draws, so callers can hand the engine the
same stream the scalar loop would have used.

**Routing.**  :func:`repro.mechanism.rows.run_rows` routes by one rule:
every untraced chain or star row — all eight deviant kinds — takes the
stacked path, and every other row (traced, tree) runs the scalar
mechanism.  Runs that need the protocol's own code — traced runs (their
events), fault-injected scenarios (proof forgery, meter tampering,
crashes) and the X8 coalition replay — never reach this module.
:func:`run_chain_batch` raises :class:`~repro.exceptions.ProtocolViolation`
if a caller feeds it a row that files more than one grievance, as an
internal-invariant guard.

Metrics: the engine emits the same protocol counters as the scalar runs
(``mechanism.runs``/``star_runs``, ``mechanism.grievances``,
``grievances_substantiated``, ``mechanism.aborts`` and
``mechanism.aborts.phase_2``, ``mechanism.audits``,
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
from repro.mechanism.payments import payment_breakdown_batch
from repro.obs.metrics import get_registry
from repro.obs.perf import span as perf_span
from repro.protocol.grievance import LOAD_TOL, OVERLOAD_TOL
from repro.protocol.lambda_device import DEFAULT_BLOCKS_PER_UNIT
from repro.protocol.verification import CHECK_RTOL

__all__ = [
    "BatchChainOutcome",
    "BatchStarOutcome",
    "chain_row_snapshots",
    "contradiction_aborts",
    "run_chain_batch",
    "run_star_batch",
    "star_row_snapshots",
]

#: Mirror of :data:`repro.sim.linear_sim._EPS_LOAD` (sub-threshold loads
#: are neither transmitted nor computed).
_EPS_LOAD = 1e-12

#: Mirror of :data:`repro.mechanism.star_mechanism._WORK_TOL`.
_WORK_TOL = 1e-9


def _as_matrix(name: str, value, shape: tuple[int, int], dtype=np.float64) -> np.ndarray:
    arr = np.asarray(value, dtype=dtype)
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


@dataclass(frozen=True)
class _Transfer:
    """One Phase III ledger entry for each run in ``rows``, entered ahead
    of the root reimbursement: ``party`` (a processor index, 0 = the
    root) pays ``amount`` to the mechanism (``to_mechanism``; the
    ``counted`` runs also count it in ``mechanism.fines``), or the
    mechanism pays it to ``party``."""

    rows: np.ndarray
    party: np.ndarray
    amount: np.ndarray
    to_mechanism: bool
    counted: np.ndarray | None = None


def _ledger_mirrors(
    root_pay: np.ndarray,
    billed: np.ndarray,
    audit_fines: np.ndarray,
    phase3: tuple[_Transfer, ...] = (),
    aborted: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Replay the per-run ledger arithmetic of the scalar mechanisms.

    Entry order per run is: the ``phase3`` transfers (grievance fines
    and rewards, meter-detected abandonment fines) in order, the root
    reimbursement, then for each agent its Phase IV bill followed by its
    audit fine (if any).  Every aggregate accumulates in exactly that
    order so the floats match the scalar
    :class:`~repro.mechanism.ledger.PaymentLedger` bitwise (``a - b`` is
    IEEE-identical to ``a + (-b)``, which covers the negative-bill
    direction flip).  The one column fold also yields each run's
    ``ledger.volume`` and ``mechanism.fine_volume`` counter deltas.
    ``aborted`` runs never reach Phase IV: the caller zeroes their root
    pay, bills and audit fines, and they count only their ``phase3``
    entries as transfers.

    Returns the outcome fields ``balances``, ``fines_total``,
    ``mechanism_outlay``, ``volume``, ``fine_volume``, ``fine_entries``
    (``mechanism.fines`` per run) and ``transfers`` (``ledger.transfers``
    per run).
    """
    n_agents = billed.shape[1]
    # The scalar ledger's entry amount: the bill, or -bill when the
    # direction flips (a -0.0 bill stays -0.0, unlike np.abs).
    abs_bill = np.where(billed >= 0.0, billed, -billed)
    fine_entries = np.count_nonzero(audit_fines > 0.0, axis=1)
    transfers = 1 + n_agents + fine_entries
    if aborted is not None:
        transfers[aborted] = 0
    opening = np.zeros(billed.shape) if phase3 else 0.0
    volume = np.zeros_like(root_pay)
    fine_volume = np.zeros_like(root_pay)
    fines_total = np.zeros_like(root_pay)
    outlay_balance = np.zeros_like(root_pay)
    for entry in phase3:
        rows, amount = entry.rows, entry.amount
        agent = entry.party > 0  # the root has no agent column
        cells = (rows[agent], entry.party[agent] - 1)
        volume[rows] = volume[rows] + amount
        transfers[rows] += 1
        if entry.to_mechanism:
            fines_total[rows] = fines_total[rows] + amount
            outlay_balance[rows] = outlay_balance[rows] + amount
            opening[cells] = opening[cells] - amount[agent]
            counted = entry.counted
            fine_volume[rows[counted]] = fine_volume[rows[counted]] + amount[counted]
            fine_entries[rows[counted]] += 1
        else:
            outlay_balance[rows] = outlay_balance[rows] - amount
            opening[cells] = opening[cells] + amount[agent]
    balances = opening + billed
    balances = np.where(audit_fines > 0.0, balances - audit_fines, balances)
    volume = volume + root_pay
    outlay_balance = outlay_balance - root_pay
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
    return {
        "balances": balances,
        "fines_total": fines_total,
        "mechanism_outlay": -outlay_balance,
        "volume": volume,
        "fine_volume": fine_volume,
        "fine_entries": fine_entries,
        "transfers": transfers,
    }


def _quantize(amount: np.ndarray) -> np.ndarray:
    """:meth:`~repro.protocol.lambda_device.LambdaDevice.quantize` over an
    array (``np.round`` rounds half to even, as ``round`` does)."""
    return np.round(amount * DEFAULT_BLOCKS_PER_UNIT) / DEFAULT_BLOCKS_PER_UNIT


def _chain_grievances(
    received_actual: np.ndarray,
    expected: np.ndarray,
    actual: np.ndarray,
    fine: np.ndarray,
    accuse: np.ndarray | None,
    aborted: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, tuple[_Transfer, ...]]:
    """The chain's Phase III grievances, decided as the scalar court
    decides them (``aborted`` runs never reach Phase III and file none).

    ``received_actual`` / ``expected`` / ``actual`` are the agents'
    ``(N, m)`` received loads, assignments and metered rates.  Agent ``i``
    files an overload grievance against ``i - 1`` exactly when
    :func:`~repro.protocol.grievance.provable_overload` holds, and an
    ``accuse`` agent fabricates one exactly when it does not.  The court
    substantiates a grievance when the Λ certificate (the received load
    quantized to the block grid) exceeds the quantized assignment by
    :data:`~repro.protocol.grievance.OVERLOAD_TOL`: the accused then
    pays ``F`` plus the surcharge (certified excess times the victim's
    metered rate) and the accuser collects ``F``; otherwise the accuser
    pays ``F`` and the accused collects it (the root keeps a reward
    addressed to it).  Certificates are read only for runs whose raw
    excess clears :data:`~repro.protocol.grievance.LOAD_TOL` or that hold
    an accuser.

    Returns per run the grievance count and whether it was
    substantiated, plus the ledger entries.

    Raises
    ------
    ProtocolViolation
        If a run files more than one grievance.
    """
    n_runs = received_actual.shape[0]
    grievances = np.zeros(n_runs, dtype=np.int64)
    substantiated = np.zeros(n_runs, dtype=bool)
    over = received_actual > expected + LOAD_TOL
    suspect = over.any(axis=1)
    if accuse is not None:
        suspect |= accuse.any(axis=1)
    rows = np.flatnonzero(suspect & ~aborted)
    if rows.size == 0:
        return grievances, substantiated, ()

    # The certificate re-rounds the quantized amount to a block count.
    certified = np.round(_quantize(received_actual[rows]) * DEFAULT_BLOCKS_PER_UNIT)
    certified = certified / DEFAULT_BLOCKS_PER_UNIT
    assignment = _quantize(expected[rows])
    proven = certified > assignment + OVERLOAD_TOL
    filed = over[rows] & proven
    if accuse is not None:
        # An accuser files its provable overload, or else fabricates one.
        filed = filed | accuse[rows]
    count = filed.sum(axis=1)
    if np.any(count > 1):
        raise ProtocolViolation("batched runs hold at most one grievance per row")
    keep = count == 1
    rows = rows[keep]
    col = filed[keep].argmax(axis=1)  # the accuser is agent col + 1
    pick = (np.flatnonzero(keep), col)
    ok = proven[pick]
    surcharge = np.maximum(certified[pick] - assignment[pick], 0.0) * actual[rows, col]
    amount = np.where(ok, fine[rows] + surcharge, fine[rows])
    rewarded = np.where(ok, col + 1, col)
    paid = rewarded != 0
    grievances[rows] = 1
    substantiated[rows] = ok
    entries = (
        _Transfer(rows, np.where(ok, col, col + 1), amount, True, counted=amount > 0.0),
        _Transfer(rows[paid], rewarded[paid], fine[rows][paid], False),
    )
    return grievances, substantiated, entries


def _miscomputed_phase1(
    bids: np.ndarray, z: np.ndarray, w_bar_factor: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The scalar Phase I loop for runs holding a miscomputing interior
    agent: each agent folds its successor's *reported* ``w_bar`` into
    ``hat * bid`` and reports that times its factor (NaN: honest), and
    its local fraction is ``reported / bid``.  Returns ``(w_bar,
    alpha_hat)`` with the root head computed from the reports, exactly
    as :class:`~repro.mechanism.dls_lbl.DLSLBLMechanism` does."""
    m = z.shape[1]
    w_bar = np.empty_like(bids)
    alpha_hat = np.empty_like(bids)
    w_bar[:, m] = bids[:, m]
    alpha_hat[:, m] = 1.0
    for i in range(m - 1, 0, -1):
        tail = w_bar[:, i + 1] + z[:, i]
        honest = tail / (bids[:, i] + tail) * bids[:, i]
        f = w_bar_factor[:, i - 1]
        w_bar[:, i] = np.where(np.isnan(f), honest, honest * f)
        alpha_hat[:, i] = w_bar[:, i] / bids[:, i]
    tail = w_bar[:, 1] + z[:, 0]
    alpha_hat[:, 0] = tail / (bids[:, 0] + tail)
    w_bar[:, 0] = alpha_hat[:, 0] * bids[:, 0]
    return w_bar, alpha_hat


def _close(a: np.ndarray, b: np.ndarray, rtol: float) -> np.ndarray:
    """:func:`repro.protocol.verification._close` over arrays."""
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return np.abs(a - b) <= rtol * scale


def _phase2_checks(
    received: np.ndarray, w_bar: np.ndarray, bids: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Every recipient's :func:`~repro.protocol.verification.verify_g_message`
    at once: ``(N, m)``, True where recipient ``j``'s check of ``G_j``
    passes (column ``j - 1``).

    ``G_j`` carries ``D_{j-1}``, ``D_j``, ``w_bar_{j-1}`` and ``w_{j-1}``
    and echoes ``w_bar_j``; the checks are the scalar ones on the same
    floats — the ``0 < D_j < D_{j-1} <= 1 + rtol`` guard,
    ``alpha_hat_{j-1} = (D_{j-1} - D_j) / D_{j-1}``, then eqs. 2.4 and
    2.7 under ``CHECK_RTOL``.  The echo check always passes here (no
    stacked agent alters the echo), so it is not repeated.
    """
    d_prev, d_self = received[:, :-1], received[:, 1:]
    w_prev = bids[:, :-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha_prev = (d_prev - d_self) / d_prev
        lhs = alpha_prev * w_prev
        rhs = (1.0 - alpha_prev) * (w_bar[:, 1:] + z)
        ok = (0.0 < d_self) & (d_self < d_prev) & (d_prev <= 1.0 + CHECK_RTOL)
        ok &= _close(w_bar[:, :-1], lhs, CHECK_RTOL) & _close(lhs, rhs, CHECK_RTOL)
    return ok


def contradiction_aborts(
    w: np.ndarray, contradictor: np.ndarray, *, star: bool, total_load: float = 1.0
) -> tuple[np.ndarray, np.ndarray, list[dict[str, Any]]]:
    """Deviation (i), contradictory Phase I bids, settled from the drawn
    rates alone: no solve, no later phase.

    ``w`` are the runs' ``(N, m+1)`` true rates and ``contradictor`` the
    1-based agent signing two bids in each run.  The fine ``F`` is the
    default fine over ``w``.  On the chain the predecessor submits both
    bids: the court fines the contradictor ``F`` and rewards the
    predecessor ``F`` (the root keeps a reward addressed to it), and the
    run aborts in Phase I.  The star's root detects the contradiction
    itself: one fine entry, no grievance, no abort counter — as
    :class:`~repro.mechanism.star_mechanism.StarMechanism` does.

    Returns per run the fine, the mechanism outlay and the counter
    snapshot the scalar run would produce.
    """
    fine = _default_fine(w, total_load)
    if star:
        outlay = -fine
        snapshots = [
            {
                "counters": {
                    "mechanism.star_runs": 1.0,
                    "ledger.transfers": 1.0,
                    "ledger.volume": f,
                    "mechanism.fines": 1.0,
                    "mechanism.fine_volume": f,
                }
            }
            for f in fine.tolist()
        ]
        return fine, outlay, snapshots
    rewarded = contradictor > 1
    # The mechanism's balance replays the ledger: F in, then F out to a
    # rewarded predecessor (outlay -0.0, as the scalar ledger reports).
    outlay = -np.where(rewarded, fine - fine, fine)
    volume = np.where(rewarded, fine + fine, fine).tolist()
    snapshots = [
        {
            "counters": {
                "mechanism.runs": 1.0,
                "mechanism.grievances": 1.0,
                "mechanism.grievances_substantiated": 1.0,
                "ledger.transfers": 2.0 if paid else 1.0,
                "ledger.volume": v,
                "mechanism.fines": 1.0,
                "mechanism.fine_volume": f,
                "mechanism.aborts": 1.0,
                "mechanism.aborts.phase_1": 1.0,
            }
        }
        for f, v, paid in zip(fine.tolist(), volume, rewarded.tolist())
    ]
    return fine, outlay, snapshots


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
    n_grievances = int(outcome.grievances.sum())
    if n_grievances:
        registry.inc("mechanism.grievances", n_grievances)
        n_substantiated = int(np.count_nonzero(outcome.substantiated))
        if n_substantiated:
            registry.inc("mechanism.grievances_substantiated", n_substantiated)
    n_aborted = int(np.count_nonzero(outcome.aborted))
    registry.inc("mechanism.audits", (n_runs - n_aborted) * m)
    if n_aborted:
        registry.inc("mechanism.aborts", n_aborted)
        registry.inc("mechanism.aborts.phase_2", n_aborted)
    n_challenged = int(np.count_nonzero(outcome.challenged))
    if n_challenged:
        registry.inc("mechanism.audits_challenged", n_challenged)
    n_fine_entries = int(outcome.fine_entries.sum())
    if n_fine_entries:
        registry.inc("mechanism.fines", n_fine_entries)
        registry.inc("mechanism.fine_volume", _fold(outcome.fine_volume))
    registry.inc("ledger.transfers", int(outcome.transfers.sum()))
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
    fine_entries: np.ndarray    # (N,) per-run mechanism.fines delta
    transfers: np.ndarray       # (N,) per-run ledger.transfers delta
    grievances: np.ndarray      # (N,) Phase II/III grievances filed (0 or 1)
    substantiated: np.ndarray   # (N,) bool — the court upheld the grievance
    aborted: np.ndarray         # (N,) bool — a G-message check failed (Phase II abort)

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
    fine_entries: np.ndarray    # (N,)
    transfers: np.ndarray       # (N,)
    grievances: np.ndarray      # (N,) always 0: the star files none
    substantiated: np.ndarray   # (N,) always False
    aborted: np.ndarray         # (N,) always False: no stacked star run aborts

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
    shed: np.ndarray | None = None,
    accuse: np.ndarray | None = None,
    w_bar_factor: np.ndarray | None = None,
    d_factor: np.ndarray | None = None,
    audit_probability: float = 0.25,
    total_load: float = 1.0,
    fine: float | np.ndarray | None = None,
    audit_draws: np.ndarray | None = None,
    emit_metrics: bool = True,
) -> BatchChainOutcome:
    """Run Phases I–IV of DLS-LBL over ``N`` stacked chains at once.

    Every run goes through the successors' Phase II checks (the stacked
    :func:`~repro.protocol.verification.verify_g_message`).  A run whose
    check fails at recipient ``j`` aborts in Phase II as the scalar run
    does: ``j - 1`` is fined ``F``, ``j`` collects ``F``, and nothing
    else reaches the ledger (no root reimbursement, bills or audits;
    ``aborted`` is set and ``makespan`` is NaN).

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
    shed:
        Load-shedding (deviation (iii)), shape ``(N, m)``: the fraction of
        its honest retention each agent gives up, so it retains
        ``(1 - f) * min(assigned, honest)`` as
        :class:`~repro.agents.strategies.LoadSheddingAgent` does.  NaN
        marks an agent that does not shed (a shedder with ``f = 0``
        still takes the ``min``, which can differ from honest retention
        in the last ulp).  The successor's grievance is decided as the
        scalar court decides it.
    accuse:
        False accusers (deviation (v)), boolean shape ``(N, m)``: the agent
        files an overload grievance against its predecessor whenever it
        holds no provable overload.
    w_bar_factor:
        Miscomputed equivalent bids (deviation (ii), Phase I), shape
        ``(N, m)``: the agent reports its honest ``w_bar`` times the
        factor, as :class:`~repro.agents.strategies.MiscomputingAgent`
        does, and the report feeds the predecessors' recurrence.  A
        terminal's report becomes its bid.  NaN marks an honest agent.
    d_factor:
        Relay tampering (deviation (ii), Phase II), shape ``(N, m)``: the
        agent signs its honest ``D_{i+1}`` times the factor into
        ``G_{i+1}``, as :class:`~repro.agents.strategies.RelayTamperingAgent`
        does; the terminal relays nothing.  NaN marks an honest agent.
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
    ProtocolViolation
        If a row files more than one Phase III grievance.
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
    miscompute = (
        None if w_bar_factor is None else _as_matrix("w_bar_factor", w_bar_factor, (n_runs, m))
    )
    if miscompute is not None:
        # The terminal's equivalent bid IS its bid, so its miscomputed
        # report is simply a different bid.
        f = miscompute[:, m - 1]
        full_bids[:, m] = np.where(np.isnan(f), full_bids[:, m], full_bids[:, m] * f)

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
            if miscompute is not None:
                # Runs with a miscomputing interior agent re-run the
                # recurrence on the reports (in place: the schedule's
                # w_eq is the reported w_bar Phase IV settles with).
                rows = np.flatnonzero(~np.isnan(miscompute[:, : m - 1]).all(axis=1))
                if rows.size:
                    w_bar[rows], alpha_hat[rows] = _miscomputed_phase1(
                        full_bids[rows], z[rows], miscompute[rows]
                    )

        # ---- Phase II: the D_i cascade (sequential in the chain axis —
        # each share multiplies the previous one, like the G messages),
        # then every recipient's G-message check.
        with perf_span("phase_2"):
            tamper = None if d_factor is None else _as_matrix("d_factor", d_factor, (n_runs, m))
            received = np.empty_like(w_bar)
            received[:, 0] = 1.0
            received[:, 1] = 1.0 - alpha_hat[:, 0]
            for i in range(1, m):
                d_next = received[:, i] * (1.0 - alpha_hat[:, i])
                if tamper is not None:
                    f = tamper[:, i - 1]
                    d_next = np.where(np.isnan(f), d_next, d_next * f)
                received[:, i + 1] = d_next
            checks = _phase2_checks(received, w_bar, full_bids, z)
            any_aborted = not checks.all()
            aborted = ~checks.all(axis=1) if any_aborted else np.zeros(n_runs, dtype=bool)
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
            shed_arr = None if shed is None else _as_matrix("shed", shed, (n_runs, m))
            accuse_arr = None if accuse is None else _as_matrix("accuse", accuse, (n_runs, m), bool)

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
                    if shed_arr is not None:
                        f = shed_arr[:, i - 1]
                        choice = np.where(
                            np.isnan(f), choice, (1.0 - f) * np.minimum(assigned[:, i], choice)
                        )
                    retained[:, i] = np.clip(choice, 0.0, received_actual[:, i])

            grievances, substantiated, phase3 = _chain_grievances(
                received_actual[:, 1:], received[:, 1:] * load, actual, fine_arr, accuse_arr, aborted
            )
            if any_aborted:
                # The failed check's grievance, upheld on re-check: the
                # sender (possibly the root) pays F, the recipient
                # collects F, and these runs stop here.
                rows = np.flatnonzero(aborted)
                j = np.argmin(checks[rows], axis=1) + 1  # the first failing recipient
                counted = fine_arr[rows] > 0.0
                phase3 = (
                    _Transfer(rows, j - 1, fine_arr[rows], True, counted=counted),
                    _Transfer(rows, j, fine_arr[rows], False),
                ) + phase3
                grievances[rows] = 1
                substantiated[rows] = True

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
            if any_aborted:
                # An aborted run computes nothing and has no makespan.
                computed[aborted] = 0.0
                makespan[aborted] = np.nan

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
            root_pay = assigned[:, 0] * w[:, 0]
            if any_aborted:
                # Aborted runs bill, audit and reimburse nothing.
                live = ~aborted
                billed = np.where(live[:, None], billed, 0.0)
                challenged = challenged & live[:, None]
                root_pay = np.where(live, root_pay, 0.0)
            audit_fines = np.where(
                challenged & (billed > recomputed_q + BILL_TOL),
                fine_arr[:, None] / q,
                0.0,
            )
            ledger = _ledger_mirrors(
                root_pay, billed, audit_fines, phase3, aborted if any_aborted else None
            )
            valuations = -computed[:, 1:] * actual
            utilities = valuations + ledger["balances"]

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
            utilities=utilities,
            grievances=grievances,
            substantiated=substantiated,
            aborted=aborted,
            **ledger,
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
    shed: np.ndarray | None = None,
    accuse: np.ndarray | None = None,
    audit_probability: float = 0.25,
    total_load: float = 1.0,
    fine: float | np.ndarray | None = None,
    audit_draws: np.ndarray | None = None,
    emit_metrics: bool = True,
) -> BatchStarOutcome:
    """Run the star/bus mechanism over ``N`` stacked stars at once.

    Same contract and parameter layout as :func:`run_chain_batch` with
    ``n`` children per row.  The batchable behaviours are bids, slow
    execution, bill overcharges and shedding.  A child has nobody to shed
    onto, so a ``shed`` child computes ``(1 - f)`` of its assignment and
    the meter itself detects the abandoned work: the child is fined
    ``F`` ahead of the root reimbursement, and a child that computes
    nothing is paid nothing.  The star mechanism never consults the
    accusation hook, so ``accuse`` is accepted for a uniform call and
    changes nothing.  The audit recomputation (from the root's own
    records) reproduces the provable payment exactly.  Invalid stacks
    raise :class:`~repro.exceptions.InvalidNetworkError` as in the chain
    engine.
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
        # An honest child completes its whole assignment: the scalar
        # clip(max(assigned - 0, 0), 0, assigned) is the identity here.
        # A shedder keeps (1 - f) * min(assigned, assigned) of it, and
        # the meter fines each abandonment in child order.
        computed = assigned.copy()
        phase3: tuple[_Transfer, ...] = ()
        if shed is not None:
            f = _as_matrix("shed", shed, (n_runs, n))
            own = assigned[:, 1:]
            sheds = ~np.isnan(f)
            computed[:, 1:] = np.where(sheds, np.clip((1.0 - f) * own, 0.0, own), own)
            abandoned = computed[:, 1:] < own - _WORK_TOL
            for c in range(n):
                rows = np.flatnonzero(abandoned[:, c])
                if rows.size:
                    counted = np.ones(rows.size, dtype=bool)
                    entry = _Transfer(rows, np.full(rows.size, c + 1), fine_arr[rows], True, counted)
                    phase3 += (entry,)

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
        if shed is not None:
            # A child that computed nothing is paid nothing.
            correct_q = np.where(computed[:, 1:] <= 0.0, 0.0, correct_q)
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
        ledger = _ledger_mirrors(root_pay, billed, audit_fines, phase3)
        valuations = -computed[:, 1:] * actual
        utilities = valuations + ledger["balances"]

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
            utilities=utilities,
            grievances=np.zeros(n_runs, dtype=np.int64),
            substantiated=np.zeros(n_runs, dtype=bool),
            aborted=np.zeros(n_runs, dtype=bool),
            **ledger,
        )
        if emit_metrics:
            _emit_counters(get_registry(), outcome, "mechanism.star_runs")
    return outcome


def chain_row_snapshots(outcome: BatchChainOutcome) -> list[dict[str, Any]]:
    """Per-row protocol-counter snapshots for a stacked chain outcome.

    The row engine (:mod:`repro.mechanism.rows`) merges counters in
    row order, so the float accumulation order matches a scalar loop
    exactly.  That
    requires the stacked pass's counters at per-row granularity: each
    snapshot holds what one scalar run would have contributed, with the
    same left-fold entry order (the grievance fine and reward, root
    reimbursement, then per agent its bill and audit fine).  A run that
    aborted in Phase II holds only its grievance entries, no audits,
    and the ``mechanism.aborts`` / ``mechanism.aborts.phase_2`` counts."""
    return _row_snapshots(outcome, "mechanism.runs")


def star_row_snapshots(outcome: BatchStarOutcome) -> list[dict[str, Any]]:
    """Per-row protocol-counter snapshots for a stacked star outcome.

    Same contract as :func:`chain_row_snapshots` with the star run
    counter (``mechanism.star_runs``); the scalar star's ledger entry
    order for batchable rows is the same (meter-detected abandonment
    fines, root reimbursement, then per child its bill and audit
    fine)."""
    return _row_snapshots(outcome, "mechanism.star_runs")


def _row_snapshots(
    outcome: BatchChainOutcome | BatchStarOutcome, runs_counter: str
) -> list[dict[str, Any]]:
    m = outcome.bids.shape[1] - 1
    grievances = outcome.grievances.tolist()
    substantiated = outcome.substantiated.tolist()
    n_challenged = np.count_nonzero(outcome.challenged, axis=1).tolist()
    # The per-row counts and volumes are the engine's one ledger fold.
    n_fines = outcome.fine_entries.tolist()
    transfers = outcome.transfers.tolist()
    fine_volume = outcome.fine_volume.tolist()
    volume = outcome.volume.tolist()
    aborted = outcome.aborted.tolist()
    snapshots: list[dict[str, Any]] = []
    for k in range(len(volume)):
        counters: dict[str, float] = {runs_counter: 1.0}
        if not aborted[k]:
            counters["mechanism.audits"] = float(m)
        if grievances[k]:
            counters["mechanism.grievances"] = float(grievances[k])
            if substantiated[k]:
                counters["mechanism.grievances_substantiated"] = 1.0
        if n_challenged[k]:
            counters["mechanism.audits_challenged"] = float(n_challenged[k])
        if n_fines[k]:
            counters["mechanism.fines"] = float(n_fines[k])
            counters["mechanism.fine_volume"] = fine_volume[k]
        counters["ledger.transfers"] = float(transfers[k])
        counters["ledger.volume"] = volume[k]
        if aborted[k]:
            counters["mechanism.aborts"] = 1.0
            counters["mechanism.aborts.phase_2"] = 1.0
        snapshots.append({"counters": counters})
    return snapshots
