"""The stacked engines' ledger fold against a plain per-entry left fold.

:func:`repro.mechanism.batch_run._ledger_mirrors` folds every run's
ledger entries as whole-stack rows.  The reference below walks each run
entry by entry in the order its docstring states — the Phase III
transfers, the root reimbursement, then per agent its bill and its audit
fine — the way :class:`~repro.mechanism.ledger.PaymentLedger` books
them.  Zero signs are compared too, so a fold that turns a ``-0.0``
into ``+0.0`` (or back) fails.
"""

import numpy as np

from repro.mechanism.batch_run import _ledger_mirrors, _Transfer

FIELDS = (
    "balances",
    "fines_total",
    "mechanism_outlay",
    "volume",
    "fine_volume",
    "fine_entries",
    "transfers",
)


def _reference(root_pay, billed, audit_fines, phase3, aborted):
    """One run at a time, one entry at a time, in Python floats."""
    n_runs, m = billed.shape
    out = {name: [] for name in FIELDS}
    for r in range(n_runs):
        balances = [0.0] * m
        volume = fines_total = outlay = fine_volume = 0.0
        fine_entries = transfers = 0
        for entry in phase3:
            for k, row in enumerate(entry.rows.tolist()):
                if row != r:
                    continue
                party, amount = int(entry.party[k]), float(entry.amount[k])
                volume += amount
                transfers += 1
                if entry.to_mechanism:
                    fines_total += amount
                    outlay += amount
                    if party > 0:
                        balances[party - 1] -= amount
                    if entry.counted[k]:
                        fine_volume += amount
                        fine_entries += 1
                else:
                    outlay -= amount
                    if party > 0:
                        balances[party - 1] += amount
        if not aborted[r]:
            volume += float(root_pay[r])
            outlay -= float(root_pay[r])
            transfers += 1
            for i in range(m):
                bill = float(billed[r, i])
                if bill >= 0.0:
                    # The mechanism pays the agent its bill.
                    volume += bill
                    outlay -= bill
                else:
                    # A negative bill flips the direction: the agent pays.
                    volume += -bill
                    fines_total += -bill
                    outlay += -bill
                balances[i] += bill
                transfers += 1
                fine = float(audit_fines[r, i])
                if fine > 0.0:
                    volume += fine
                    fines_total += fine
                    outlay += fine
                    fine_volume += fine
                    balances[i] -= fine
                    fine_entries += 1
                    transfers += 1
        for name, value in zip(
            FIELDS,
            (balances, fines_total, -outlay, volume, fine_volume, fine_entries, transfers),
        ):
            out[name].append(value)
    return {name: np.array(values) for name, values in out.items()}


def _assert_same(got, want):
    for name in FIELDS:
        assert np.array_equal(got[name], want[name]), name
        assert np.array_equal(np.signbit(got[name]), np.signbit(want[name])), name


class TestLedgerFold:
    # Row 0: a -0.0 and a 0.0 bill, zero root pay, the -0.0 biller fined.
    # Row 1: negative bills (the -2.0 biller fined, the -0.0 one not), a
    #        Phase III fine and reward between agents.
    # Row 2: all-zero bills and root pay (outlay -0.0); the root pays a
    #        fine and agent 1 collects it.
    # Row 3: aborted in Phase II; only its two Phase III entries count.
    # Row 4: the mechanism pays the root; a zero fine entry, uncounted.
    ROOT_PAY = np.array([0.0, 1.25, 0.0, 0.0, 0.5])
    BILLED = np.array(
        [
            [1.5, -0.0, 0.0],
            [-2.0, 0.75, -0.0],
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
            [0.1, 0.2, -0.3],
        ]
    )
    AUDIT_FINES = np.array(
        [
            [0.0, 2.0, 0.0],
            [3.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
            [0.7, 0.0, 0.0],
        ]
    )
    ABORTED = np.array([False, False, False, True, False])
    PHASE3 = (
        _Transfer(
            np.array([1, 2, 3]),
            np.array([1, 0, 2]),
            np.array([0.5, 0.25, 4.0]),
            True,
            counted=np.array([True, True, True]),
        ),
        _Transfer(
            np.array([1, 2, 3, 4]), np.array([2, 1, 3, 0]), np.array([0.5, 0.25, 4.0, 0.125]), False
        ),
        _Transfer(np.array([4]), np.array([3]), np.array([0.0]), True, counted=np.array([False])),
    )

    def test_fold_equals_per_entry_ledger(self):
        args = (self.ROOT_PAY, self.BILLED, self.AUDIT_FINES, self.PHASE3, self.ABORTED)
        got = _ledger_mirrors(*args)
        want = _reference(*args)
        _assert_same(got, want)
        # The crafted rows reach the zero signs the fold must keep.
        assert np.signbit(got["mechanism_outlay"][2])
        assert got["transfers"][3] == 2

    def test_fold_without_phase3_entries(self):
        live = ~self.ABORTED
        args = (self.ROOT_PAY[live], self.BILLED[live], self.AUDIT_FINES[live], ())
        got = _ledger_mirrors(*args)
        _assert_same(got, _reference(*args, np.zeros(int(live.sum()), dtype=bool)))
        # 0.0 + (-0.0) is +0.0: an unfined -0.0 bill leaves a +0.0 balance.
        assert not np.signbit(got["balances"][1, 2])
