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

**Fixed cost.**  A call's cost is a count of small whole-stack NumPy
operations, paid once however many rows share the stack, so one
implementation serves a one-row serve flush and a 1024-row population
alike.  The operations loop over the chain axis only where the protocol
is sequential: the backward solve, the ``D_i`` cascade, the retention
plan and the ledger fold's row adds.  The chain's Phase III flow is
closed-form (retentions never exceed arrivals, so the flowing load is
``received_actual`` until the load threshold cuts it), Phase IV settles
the provable payment and the audit recomputation in one
:func:`~repro.mechanism.payments.payment_breakdown_batch` call over a
leading sides axis, and the ledger folds one ``(2m+1, 4, N)`` entry
buffer (:func:`_ledger_mirrors`).

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

**Shared shape.**  The two engines keep only their own topology's
Phases I–III.  They share one input preamble (:func:`_stack`), one
Phase IV settlement (:func:`_settle`: bills, challenges, ``F/q`` audit
fines, the ledger fold, valuations and utilities, with the chain's
Phase II aborts masked out) and one outcome base (:class:`BatchOutcome`).

Metrics: every stacked row's counter delta — a chain row, a star row,
or a contradiction settled from the draw — comes from one builder
(:func:`_counter_columns`), as one
:class:`~repro.obs.metrics.CounterColumns` block per call (an outcome's
``counters``): the scalar run's ``mechanism.runs`` / ``star_runs``,
``mechanism.grievances``, ``grievances_substantiated``,
``mechanism.aborts`` and ``mechanism.aborts.phase_<k>``,
``mechanism.audits``, ``audits_challenged``, ``fines``, ``fine_volume``,
``ledger.transfers`` and ``ledger.volume`` as columns over the rows,
with a mask of the keys each row's scalar run creates, bitwise.  With
``emit_metrics=True`` the engine folds the columns into the active
registry through :func:`~repro.obs.metrics.fold_snapshots`, one
sequential accumulate per counter in row order, so its totals are the
scalar loop's per-run fold also in a registry that already holds these
counters; :func:`row_snapshots` builds per-row dicts from the columns
for callers that need them.
Implementation-cost metrics (``crypto.*`` counters) have no batched
analogue; batch solves add ``dlt.batch.*`` counters, and the
``mech_batch`` / ``mech_batch_star`` perf spans time the stacked call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, ClassVar, TypeVar

import numpy as np

from repro.dlt.batch import _validate_stack, solve_linear_batch
from repro.exceptions import InvalidNetworkError, ProtocolViolation
from repro.mechanism.audit import BILL_TOL
from repro.mechanism.payments import payment_breakdown_batch
from repro.obs.metrics import CounterColumns, fold_snapshots, get_registry
from repro.obs.perf import span as perf_span
from repro.protocol.grievance import LOAD_TOL, OVERLOAD_TOL
from repro.protocol.lambda_device import DEFAULT_BLOCKS_PER_UNIT
from repro.protocol.verification import CHECK_RTOL

__all__ = [
    "BatchChainOutcome",
    "BatchOutcome",
    "BatchStarOutcome",
    "chain_row_snapshots",
    "contradiction_aborts",
    "row_snapshots",
    "run_chain_batch",
    "run_star_batch",
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
    direction flip).  The one fold also yields each run's
    ``ledger.volume`` and ``mechanism.fine_volume`` counter deltas.
    ``aborted`` runs never reach Phase IV: the caller zeroes their root
    pay, bills and audit fines, and they count only their ``phase3``
    entries as transfers.

    The four aggregates (``volume``, ``fines_total``, the mechanism's
    balance and ``fine_volume``) fold as one ``(2m+1, 4, N)`` buffer:
    row 0 holds their opening values (the ``phase3`` entries and the
    root reimbursement), then per agent its bill entry and its audit
    fine, added row by row (``acc += row``) over contiguous ``N``-long
    rows.  An entry an aggregate skips — an unfined agent, a
    non-negative bill's ``fines_total`` share — folds in as ``+0.0``,
    the identity here: every aggregate starts at ``+0.0``, and an IEEE
    sum is ``-0.0`` only when both terms are, so none is ever ``-0.0``.

    Returns the outcome fields ``balances``, ``fines_total``,
    ``mechanism_outlay``, ``volume``, ``fine_volume``, ``fine_entries``
    (``mechanism.fines`` per run) and ``transfers`` (``ledger.transfers``
    per run).
    """
    n_runs, n_agents = billed.shape
    fined = audit_fines > 0.0
    fine_entries = fined.sum(axis=1)
    transfers = 1 + n_agents + fine_entries
    if aborted is not None:
        transfers[aborted] = 0
    entries = np.empty((2 * n_agents + 1, 4, n_runs))
    acc = entries[0]
    acc.fill(0.0)
    volume, fines_total, outlay_balance, fine_volume = acc[0], acc[1], acc[2], acc[3]
    opening = np.zeros(billed.shape) if phase3 else 0.0
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
    np.subtract(balances, audit_fines, out=balances, where=fined)
    volume += root_pay
    outlay_balance -= root_pay
    # Per agent, the bill entry: the scalar ledger's amount (the bill, or
    # -bill when the direction flips; a -0.0 bill stays -0.0, unlike
    # np.abs), a negative bill's credit to the mechanism, the outlay.
    bills = billed.T
    bill_rows = entries[1::2]
    negated = np.negative(bills, out=bill_rows[:, 2])
    bill_rows[:, 0] = np.where(bills >= 0.0, bills, negated)
    bill_rows[:, 1] = np.where(bills < 0.0, negated, 0.0)
    bill_rows[:, 3] = 0.0
    # Then its audit fine, credited to every aggregate.
    entries[2::2] = np.where(fined, audit_fines, 0.0).T[:, None, :]
    for row in entries[1:]:
        acc += row
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
    rows = (suspect & ~aborted).nonzero()[0]
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
) -> tuple[np.ndarray, np.ndarray, CounterColumns]:
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

    Returns per run the fine and the mechanism outlay, and the counter
    columns of the scalar runs' deltas.
    """
    fine = _default_fine(w, total_load)
    n_runs = fine.shape[0]
    rewarded = np.zeros(n_runs, dtype=bool) if star else contradictor > 1
    # The mechanism's balance replays the ledger: F in, then F out to a
    # rewarded predecessor (outlay -0.0, as the scalar ledger reports).
    outlay = -np.where(rewarded, fine - fine, fine)
    court = np.full(n_runs, not star)
    counters = _counter_columns(
        (BatchStarOutcome if star else BatchChainOutcome).runs_counter,
        None if star else 1,
        aborted=np.ones(n_runs, dtype=bool),
        grievances=court.astype(np.int64),
        substantiated=court,
        challenged=np.zeros(w[:, 1:].shape, dtype=bool),
        fine_entries=np.ones(n_runs, dtype=np.int64),
        fine_volume=fine,
        transfers=1 + rewarded,
        volume=np.where(rewarded, fine + fine, fine),
    )
    return fine, outlay, counters


@functools.cache
def _counter_names(runs_counter: str, aborts: bool) -> tuple[str, ...]:
    """A stacked row's counters in the scalar run's key order; the
    chain's abort columns cover both abort phases, so its contradiction
    and engine blocks share one set of names."""
    names = (
        runs_counter,
        "mechanism.audits",
        "mechanism.grievances",
        "mechanism.grievances_substantiated",
        "mechanism.audits_challenged",
        "mechanism.fines",
        "mechanism.fine_volume",
        "ledger.transfers",
        "ledger.volume",
    )
    if not aborts:
        return names
    return names + ("mechanism.aborts", "mechanism.aborts.phase_1", "mechanism.aborts.phase_2")


def _counter_columns(
    runs_counter: str,
    abort_phase: int | None,
    *,
    aborted: np.ndarray,
    grievances: np.ndarray,
    substantiated: np.ndarray,
    challenged: np.ndarray,
    fine_entries: np.ndarray,
    fine_volume: np.ndarray,
    transfers: np.ndarray,
    volume: np.ndarray,
) -> CounterColumns:
    """The rows' counter columns: what each row's scalar run adds to the
    ``mechanism.*`` / ``ledger.*`` counters — the one place a stacked
    row's counters are written.

    Every row bumps ``runs_counter``.  A completed row counts one audit
    per agent (the columns of ``challenged``, an ``(N, m)`` bool
    matrix); an ``aborted`` row counts none, and counts under
    ``mechanism.aborts`` / ``mechanism.aborts.phase_<abort_phase>``
    (phase 1 or 2) unless ``abort_phase`` is None (the star's
    root-detected abort).  The volumes are the per-row left folds of the
    ledger entries (:func:`_ledger_mirrors`); keys a scalar run would
    not create are absent.
    """
    names = _counter_names(runs_counter, abort_phase is not None)
    n_runs, agents = challenged.shape
    # One row per counter, written whole and handed out transposed.
    values = np.empty((len(names), n_runs))
    values[0] = 1.0
    np.multiply(~aborted, float(agents), out=values[1])
    values[2] = grievances
    values[3] = substantiated  # only a filed grievance is substantiated
    np.add.reduce(challenged, axis=1, dtype=np.float64, out=values[4])
    values[5] = fine_entries
    values[6] = fine_volume  # 0.0 where no fine entry was counted
    values[7] = transfers
    values[8] = volume
    if abort_phase is not None:
        values[9:] = aborted
        values[10 if abort_phase == 2 else 11] = 0.0  # the other phase
    # A key is present where it is nonzero, except that a counted fine
    # entry counts its volume and every run counts its ledger.
    present = values != 0.0
    present[6] = present[5]
    present[7:9] = True
    return CounterColumns(names, values.T, present.T)


@dataclass(frozen=True)
class BatchOutcome:
    """What both stacked engines produce for ``N`` runs (row = run).

    Full-network arrays have ``m + 1`` columns (root first), per-agent
    arrays ``m`` columns for agents ``1 .. m``.  Subclasses name the
    run counter and the phase their aborted rows count under.
    """

    runs_counter: ClassVar[str]
    abort_phase: ClassVar[int | None]

    bids: np.ndarray            # (N, m+1) — root column is the obedient root rate
    assigned: np.ndarray        # (N, m+1) absolute load units
    computed: np.ndarray        # (N, m+1) sim-metered computation
    actual_rates: np.ndarray    # (N, m+1) metered rates (root included)
    makespan: np.ndarray        # (N,) NaN for an aborted run
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
    grievances: np.ndarray      # (N,) grievances filed (0 or 1)
    substantiated: np.ndarray   # (N,) bool — the court upheld the grievance
    aborted: np.ndarray         # (N,) bool — the run stopped before Phase IV
    counters: CounterColumns    # (N rows) per-run mechanism.* / ledger.* deltas

    @property
    def n_runs(self) -> int:
        return self.bids.shape[0]

    def utility(self, run: int, index: int) -> float:
        """Utility of processor ``index`` in ``run`` (0 for the root)."""
        if index == 0:
            return 0.0
        return float(self.utilities[run, index - 1])


@dataclass(frozen=True)
class BatchChainOutcome(BatchOutcome):
    """Stacked outcome of ``N`` chain-mechanism runs; a run whose
    G-message check fails aborts in Phase II."""

    runs_counter = "mechanism.runs"
    abort_phase = 2

    w_bar: np.ndarray           # (N, m+1) equivalent bids
    alpha_hat: np.ndarray       # (N, m+1) mechanism-faithful local fractions
    received_share: np.ndarray  # (N, m+1) D_i per unit load
    retained: np.ndarray        # (N, m+1) Phase III retention plan
    received_actual: np.ndarray  # (N, m+1) what actually flowed (0 past a stop)
    arrival_times: np.ndarray   # (N, m+1)


@dataclass(frozen=True)
class BatchStarOutcome(BatchOutcome):
    """Stacked outcome of ``N`` star-mechanism runs: no grievances, and
    no stacked star run aborts."""

    runs_counter = "mechanism.star_runs"
    abort_phase = None

    orders: np.ndarray          # (N, n) service order (child indices)
    alpha: np.ndarray           # (N, n+1)


def row_snapshots(outcome: BatchOutcome) -> list[dict[str, Any]]:
    """Per-row protocol-counter snapshots of a stacked outcome, built
    from its counter columns (``outcome.counters``).

    Each snapshot holds what one scalar run would have contributed, with
    the same left-fold entry order: the Phase III entries (the chain's
    grievance fine and reward, the star's meter-detected abandonment
    fines), the root reimbursement, then per agent its bill and audit
    fine.  A chain run that aborted in Phase II holds only its grievance
    entries, no audits, and the ``mechanism.aborts`` /
    ``mechanism.aborts.phase_2`` counts.  Merging them in row order
    makes the same float additions as folding the columns."""
    return outcome.counters.snapshots()


#: The name the population trace of ``perfbench`` imports.
chain_row_snapshots = row_snapshots


@dataclass(frozen=True)
class _Stack:
    """A stacked call's checked inputs, shared by both engines: the
    ``(N, m+1)`` true rates ``w`` and ``(N, m)`` links ``z``, the audit
    probability ``q``, the load, the per-row fine, the full bid matrix
    (root column first), and the metered rates
    ``max(execution_rate, true_rate)`` — per agent (``actual``) and root
    first (``rates_full``)."""

    w: np.ndarray
    z: np.ndarray
    q: float
    load: float
    fine: np.ndarray
    bids: np.ndarray
    actual: np.ndarray
    rates_full: np.ndarray


def _stack(w, z, bids, execution_rates, audit_probability, total_load, fine) -> _Stack:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] < 2:
        raise InvalidNetworkError(f"w must be (N, m+1) with m >= 1, got {w.shape}")
    shape = (w.shape[0], w.shape[1] - 1)
    z = _as_matrix("z", z, shape)
    q = float(audit_probability)
    if not 0.0 < q <= 1.0:
        raise ValueError("audit probability q must be in (0, 1]")
    load = float(total_load)
    true_rates = w[:, 1:]
    bid_arr = true_rates if bids is None else _as_matrix("bids", bids, shape)
    exec_arr = true_rates
    if execution_rates is not None:
        exec_arr = _as_matrix("execution_rates", execution_rates, shape)
    actual = np.maximum(exec_arr, true_rates)
    return _Stack(
        w=w,
        z=z,
        q=q,
        load=load,
        fine=_fine_vector(fine, w, load),
        bids=np.concatenate((w[:, :1], bid_arr), axis=1),
        actual=actual,
        rates_full=np.concatenate((w[:, :1], actual), axis=1),
    )


_O = TypeVar("_O", bound=BatchOutcome)


def _settle(
    cls: type[_O],
    stack: _Stack,
    *,
    assigned: np.ndarray,
    computed: np.ndarray,
    makespan: np.ndarray,
    correct_q: np.ndarray,
    recomputed_q: np.ndarray,
    bill_overcharge: np.ndarray | None,
    audit_draws: np.ndarray | None,
    phase3: tuple[_Transfer, ...],
    emit_metrics: bool,
    grievances: np.ndarray | None = None,
    substantiated: np.ndarray | None = None,
    aborted: np.ndarray | None = None,
    **own: np.ndarray,
) -> _O:
    """Phase IV settlement, the same for the chain and the star: the
    bills (correct payment plus any markup), the Bernoulli challenges,
    the ``F/q`` fine on a challenged bill above its recomputation, the
    ledger fold behind the ``phase3`` entries, valuations and utilities.

    ``aborted`` (the chain's Phase II aborts, None when no row aborted)
    rows bill, audit and reimburse nothing.  Builds the ``cls`` outcome
    from those fields, its counter columns and the engine's ``own``;
    with ``emit_metrics`` the columns fold into the active registry in
    row order, as a scalar loop's per-run deltas do.
    """
    n_runs, m = correct_q.shape
    if bill_overcharge is None:
        billed = correct_q
    else:
        over = _as_matrix("bill_overcharge", bill_overcharge, (n_runs, m))
        billed = np.where(over != 0.0, correct_q + over, correct_q)
    challenged = _challenges(audit_draws, stack.q, (n_runs, m))
    root_pay = assigned[:, 0] * stack.w[:, 0]
    if aborted is not None:
        live = ~aborted
        billed = np.where(live[:, None], billed, 0.0)
        challenged = challenged & live[:, None]
        root_pay = np.where(live, root_pay, 0.0)
    audit_fines = np.where(
        challenged & (billed > recomputed_q + BILL_TOL),
        stack.fine[:, None] / stack.q,
        0.0,
    )
    ledger = _ledger_mirrors(root_pay, billed, audit_fines, phase3, aborted)
    valuations = -computed[:, 1:] * stack.actual
    if grievances is None:
        grievances = np.zeros(n_runs, dtype=np.int64)
    if substantiated is None:
        substantiated = np.zeros(n_runs, dtype=bool)
    if aborted is None:
        aborted = np.zeros(n_runs, dtype=bool)
    counters = _counter_columns(
        cls.runs_counter,
        cls.abort_phase,
        aborted=aborted,
        grievances=grievances,
        substantiated=substantiated,
        challenged=challenged,
        fine_entries=ledger["fine_entries"],
        fine_volume=ledger["fine_volume"],
        transfers=ledger["transfers"],
        volume=ledger["volume"],
    )
    outcome = cls(
        bids=stack.bids,
        assigned=assigned,
        computed=computed,
        actual_rates=stack.rates_full,
        makespan=makespan,
        fine=stack.fine,
        correct_q=correct_q,
        billed_q=billed,
        recomputed_q=recomputed_q,
        challenged=challenged,
        audit_fines=audit_fines,
        valuations=valuations,
        utilities=valuations + ledger["balances"],
        grievances=grievances,
        substantiated=substantiated,
        aborted=aborted,
        counters=counters,
        **ledger,
        **own,
    )
    if emit_metrics:
        fold_snapshots([counters], get_registry())
    return outcome


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
    stack = _stack(w, z, bids, execution_rates, audit_probability, total_load, fine)
    z, load, fine_arr, full_bids = stack.z, stack.load, stack.fine, stack.bids
    n_runs, m = stack.actual.shape
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
            # The terminal's w_bar is its bid, so its column divides to 1.0.
            alpha_hat = w_bar / full_bids
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

        # ---- Phase III: honest retention plan, then the store-and-forward
        # cascade with the simulator's load threshold.
        with perf_span("phase_3"):
            actual = stack.actual
            if shed is not None:
                shed_arr = _as_matrix("shed", shed, (n_runs, m))
                honest = np.isnan(shed_arr)
                kept = 1.0 - shed_arr
            accuse_arr = None if accuse is None else _as_matrix("accuse", accuse, (n_runs, m), bool)

            expected = received * load
            retained = np.empty_like(w_bar)
            received_actual = np.empty_like(w_bar)
            # Column i of each (N, m+1) matrix is row i of its transpose.
            flow, kept_load, ahead = received_actual.T, retained.T, expected.T
            flow[0] = load
            kept_load[0] = assigned[:, 0]
            for i in range(1, m):
                arrived = np.subtract(flow[i - 1], kept_load[i - 1], out=flow[i])
                choice = np.maximum(arrived - ahead[i + 1], 0.0)
                if shed is not None:
                    choice = np.where(
                        honest[:, i - 1],
                        choice,
                        kept[:, i - 1] * np.minimum(assigned[:, i], choice),
                    )
                choice.clip(0.0, arrived, out=kept_load[i])
            np.subtract(flow[m - 1], kept_load[m - 1], out=flow[m])
            kept_load[m] = flow[m]

            grievances, substantiated, phase3 = _chain_grievances(
                received_actual[:, 1:], expected[:, 1:], actual, fine_arr, accuse_arr, aborted
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

            # Every retention is clipped to what arrived and the root keeps
            # alpha_hat_0 * load <= load, so while a run's load still flows
            # it is exactly received_actual: the load reaches P_i iff every
            # hop before it carried more than the threshold, each processor
            # computes its retention, and the arrival times are the running
            # sums of the hops' transfer times.
            alive = np.empty((n_runs, m + 1), dtype=bool)
            alive[:, 0] = True
            np.logical_and.accumulate(received_actual[:, 1:] > _EPS_LOAD, axis=1, out=alive[:, 1:])
            computed = np.where(alive & (retained > _EPS_LOAD), retained, 0.0)
            # Past a stop nothing flows on (the grievances above saw the
            # plan's residue, as the scalar run's evidence does).
            flowed = np.where(alive, received_actual, 0.0)
            arrival = np.zeros(w_bar.shape)
            np.multiply(received_actual[:, 1:], z, out=arrival[:, 1:])
            arrival = np.where(alive, np.cumsum(arrival, axis=1, out=arrival), 0.0)
            ends = np.where(computed > 0.0, arrival + computed * stack.rates_full, 0.0)
            makespan = ends.max(axis=1)
            if any_aborted:
                # An aborted run computes nothing and has no makespan.
                computed[aborted] = 0.0
                makespan[aborted] = np.nan

        # ---- Phase IV: one payment pass over two sides — the provable
        # payments from the mechanism's own arrays, and the audit
        # recomputation with the proof-side alpha_hat (left-associative
        # denominator, verbatim).
        with perf_span("phase_4"):
            sides = np.empty((3, 2, n_runs, m))
            side_assigned, side_alpha_hat, side_w_bar = sides
            side_alpha_hat[0] = alpha_hat[:, 1:]
            side_w_bar[0] = w_bar[:, 1:]
            audit_alpha_hat, audit_w_bar = side_alpha_hat[1], side_w_bar[1]
            audit_alpha_hat[:, m - 1] = 1.0
            audit_w_bar[:, m - 1] = full_bids[:, m]
            if m > 1:
                w_bar_next = w_bar[:, 2:]
                z_next = z[:, 1:]
                own_bid = full_bids[:, 1:m]
                hat = np.divide(
                    w_bar_next + z_next,
                    own_bid + w_bar_next + z_next,
                    out=audit_alpha_hat[:, : m - 1],
                )
                np.multiply(hat, own_bid, out=audit_w_bar[:, : m - 1])
            side_assigned[0] = assigned[:, 1:]
            np.multiply(received[:, 1:] * audit_alpha_hat, load, out=side_assigned[1])
            correct_q, recomputed_q = payment_breakdown_batch(
                schedule,
                computed=computed[:, 1:],
                actual_rates=actual,
                assigned=side_assigned,
                alpha_hat=side_alpha_hat,
                w_bar=side_w_bar,
            ).payment
            return _settle(
                BatchChainOutcome,
                stack,
                assigned=assigned,
                computed=computed,
                makespan=makespan,
                correct_q=correct_q,
                recomputed_q=recomputed_q,
                bill_overcharge=bill_overcharge,
                audit_draws=audit_draws,
                phase3=phase3,
                emit_metrics=emit_metrics,
                grievances=grievances,
                substantiated=substantiated,
                aborted=aborted if any_aborted else None,
                w_bar=w_bar,
                alpha_hat=alpha_hat,
                received_share=received,
                retained=retained,
                received_actual=flowed,
                arrival_times=arrival,
            )


def _star_shares(
    root_w: np.ndarray, served_w: np.ndarray, served_z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row equal-finish star allocation, bitwise-equal to
    :func:`~repro.dlt.star._alpha_for_order`: from the root's rate and
    the children's rates and links in service order, the root's share
    ``alpha_0`` and the served children's ratios to it (the ``k``-th
    served child gets ``alpha_0 * ratios[:, k]``).

    Identical to :func:`~repro.dlt.star.star_alpha_kernel` except for the
    normalization, which must be a per-row ``math.fsum`` to match the
    scalar solver (``ndarray.sum`` pairs differently for n >= 8)."""
    prev_w = np.concatenate((root_w[:, None], served_w[:, :-1]), axis=1)
    ratios = np.cumprod(prev_w / (served_z + served_w), axis=1)
    alpha0 = 1.0 / (1.0 + np.array([math.fsum(r) for r in ratios.tolist()]))
    return alpha0, ratios


@functools.lru_cache(maxsize=64)
def _drop_one(n: int) -> np.ndarray:
    """``(n, n-1)`` column indices: row ``s`` lists ``0 .. n-1`` without ``s``."""
    keep = np.arange(1, n)
    drop = keep - (keep <= np.arange(n)[:, None])
    drop.flags.writeable = False
    return drop


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
    # The one check of the whole stack (the chain engine's runs in its
    # stacked solve).
    w, z = _validate_stack(w, z)
    stack = _stack(w, z, bids, execution_rates, audit_probability, total_load, fine)
    load, fine_arr, full_bids, actual = stack.load, stack.fine, stack.bids, stack.actual
    n_runs, n = actual.shape

    with perf_span("mech_batch_star"):
        # Service order: non-decreasing link time, stable per row — the
        # public bid-independent optimum the scalar mechanism uses.
        orders = np.argsort(z, axis=1, kind="stable") + 1
        runs = np.arange(n_runs)[:, None]
        served_w = full_bids[runs, orders]
        served_z = z[runs, orders - 1]
        alpha0, ratios = _star_shares(full_bids[:, 0], served_w, served_z)
        alpha_served = alpha0[:, None] * ratios
        alpha = np.empty_like(full_bids)
        alpha[:, 0] = alpha0
        alpha[runs, orders] = alpha_served
        assigned = alpha * load

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
        clock = np.cumsum(alpha_served * served_z, axis=1)
        t_served_bid = clock + alpha_served * served_w
        t_root = alpha[:, 0] * full_bids[:, 0]

        if n == 1:
            t_without = full_bids[:, :1].copy()
        else:
            # All n reduced stars in one call: row k * n + s of the
            # N * n stacked rows is run k without the child it serves in
            # slot s.  The stable order of the others stays the order
            # minus that slot, and every step is row-wise, so this is
            # bitwise-equal to n separate solves.
            drop = _drop_one(n)
            alpha0_red, _ = _star_shares(
                np.repeat(full_bids[:, 0], n),
                served_w[:, drop].reshape(n_runs * n, n - 1),
                served_z[:, drop].reshape(n_runs * n, n - 1),
            )
            t_without = np.empty((n_runs, n))
            t_without[runs, orders - 1] = alpha0_red.reshape(n_runs, n) * full_bids[:, :1]
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
        t_served_actual = clock + alpha_served * stack.rates_full[runs, orders]
        t_root_actual = alpha[:, 0] * stack.rates_full[:, 0]
        makespan = np.maximum(t_root_actual, t_served_actual.max(axis=1)) * load
        # The root recomputes from its own records with the very same
        # expression and inputs, so the recomputed payment IS correct_q.
        return _settle(
            BatchStarOutcome,
            stack,
            assigned=assigned,
            computed=computed,
            makespan=makespan,
            correct_q=correct_q,
            recomputed_q=correct_q,
            bill_overcharge=bill_overcharge,
            audit_draws=audit_draws,
            phase3=phase3,
            emit_metrics=emit_metrics,
            orders=orders,
            alpha=alpha,
        )
