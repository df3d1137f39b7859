"""The DLS-LBL mechanism — the paper's primary contribution.

- :mod:`repro.mechanism.payments` — the payment structure of Phase IV
  (valuation, compensation, recompense, bonus, utility; eqs. 4.3–4.11).
- :mod:`repro.mechanism.protocol` — the scalar protocol skeleton the
  four mechanisms share (outcome, run wrapper, settlement, Phase I–IV
  arm helpers).
- :mod:`repro.mechanism.dls_lbl` — the four-phase mechanism orchestrator
  over strategic agents.
- :mod:`repro.mechanism.audit` — probabilistic payment audits (fine
  ``F/q``).
- :mod:`repro.mechanism.solution_bonus` — the eq. 4.13 variant for
  selfish-and-annoying agents.
- :mod:`repro.mechanism.properties` — empirical checkers for the paper's
  theorems (strategyproofness, voluntary participation, compliance).
"""

from repro.mechanism.ledger import LedgerEntry, PaymentLedger
from repro.mechanism.payments import (
    BatchPaymentBreakdown,
    PaymentBreakdown,
    adjusted_equivalent_time,
    bonus,
    compensation,
    payment_breakdown,
    payment_breakdown_batch,
    recommended_fine,
    recompense,
    valuation,
)
from repro.mechanism.audit import AuditRecord, Auditor
from repro.mechanism.protocol import AgentReport
from repro.mechanism.dls_lbl import DLSLBLMechanism, MechanismOutcome
from repro.mechanism.dls_lil import DLSLILMechanism, InteriorOutcome, verify_split
from repro.mechanism.star_mechanism import StarMechanism, StarOutcome, star_bonus
from repro.mechanism.tree_mechanism import TreeMechanism, TreeOutcome
from repro.mechanism.solution_bonus import SolutionBonusConfig, expected_solution_utility
from repro.mechanism.properties import (
    StrategyproofnessReport,
    check_voluntary_participation,
    sweep_bids,
    utility_of_bid,
)

__all__ = [
    "AgentReport",
    "AuditRecord",
    "Auditor",
    "BatchPaymentBreakdown",
    "DLSLBLMechanism",
    "DLSLILMechanism",
    "InteriorOutcome",
    "LedgerEntry",
    "MechanismOutcome",
    "PaymentBreakdown",
    "PaymentLedger",
    "SolutionBonusConfig",
    "StarMechanism",
    "StarOutcome",
    "TreeMechanism",
    "TreeOutcome",
    "star_bonus",
    "StrategyproofnessReport",
    "adjusted_equivalent_time",
    "bonus",
    "check_voluntary_participation",
    "compensation",
    "expected_solution_utility",
    "payment_breakdown",
    "payment_breakdown_batch",
    "recommended_fine",
    "recompense",
    "sweep_bids",
    "utility_of_bid",
    "valuation",
    "verify_split",
]
