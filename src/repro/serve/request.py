"""Wire types for the mechanism service: requests, responses, batch keys.

A :class:`MechanismRequest` names one mechanism run the way a solo
caller would make it: draw a random network of the requested topology
and size from ``numpy.random.default_rng(seed)``, build truthful agents
(plus at most one deviant from an ``INDEX:KIND[:PARAM]`` spec), and run
the scalar mechanism.  The service's whole contract is that the
micro-batched answer to a request is **bitwise-equal** to that solo
scalar run — the request therefore carries everything the scalar recipe
consumes, plus two pure *serving* fields (``tenant``/``priority``) that
steer admission fairness but never touch the recipe.

Requests are *compatible* (stackable into one
:func:`~repro.mechanism.batch_run.run_chain_batch` /
:func:`~repro.mechanism.batch_run.run_star_batch` call) when they share
a :attr:`~MechanismRequest.batch_key`: topology, size and audit
probability.  Seeds and deviant specs vary freely within a stacked
call, every deviant kind included (see :mod:`repro.serve.engine`).
Tree requests have
no batch engine; they group like any other key but each row runs the
scalar tree mechanism (counted under ``mechanism.scalar_fallbacks``).

The wire format is JSON-lines: one JSON object per line, ``request_id``
echoed back so pipelined responses can complete out of order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

__all__ = [
    "MechanismRequest",
    "MechanismResponse",
    "RequestError",
    "DEFAULT_TENANT",
    "DEVIANT_PARAM_RANGE",
    "MAX_M",
    "PRIORITY_RANGE",
    "SUMMARY_FIELDS",
    "TOPOLOGIES",
]

#: Topologies the service runs.  Chains and stars stack into the batch
#: engine; trees run the scalar tree mechanism per row (an honest
#: ``mechanism.scalar_fallbacks`` increment, never a silent rejection).
TOPOLOGIES = ("chain", "star", "tree")

#: Largest network the service will schedule in one request.  The bound
#: exists so a single wire message cannot make the engine allocate
#: arbitrarily large arrays; batch work should go through the population
#: runner, not the service.
MAX_M = 512

#: Inclusive bounds for the ``priority`` wire field.
PRIORITY_RANGE = (-100, 100)

#: Tenant assumed when the wire message carries none.
DEFAULT_TENANT = "default"

#: Characters allowed in a tenant name (kept tight: tenant names become
#: metric label suffixes and queue keys).
_TENANT_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_."
)
_TENANT_MAX_LEN = 64

#: Magnitude bounds for a nonzero deviant parameter.  Far outside them
#: the scalar protocol's float tolerances start to misfire (a chain
#: misbid by a factor of ~3e6 or more raises a spurious Phase II
#: grievance, which the array path does not model), so the service
#: refuses such specs at the wire.
DEVIANT_PARAM_RANGE = (1e-3, 1e3)

#: The tree mechanism models the tamper-proof level: only rate and
#: execution-speed deviations exist there (mirror of
#: ``repro.faults.spec.TOPOLOGY_KINDS["tree"]``).
_TREE_DEVIANT_KINDS = frozenset({"misbid", "slow"})

#: The summary fields a response carries, in a fixed order.  These are
#: exactly the observables a solo scalar run produces; the bitwise
#: contract is stated over this dict.
SUMMARY_FIELDS = (
    "topology",
    "m",
    "seed",
    "completed",
    "aborted_phase",
    "makespan",
    "fines_total",
    "n_grievances",
    "n_audits",
    "mechanism_outlay",
)


class RequestError(ValueError):
    """A malformed or unservable request (never enqueued)."""


def _require_int(value: Any, name: str) -> int:
    """A strict integer: rejects bools (``isinstance(True, int)`` is
    true, so ``{"m": true}`` would otherwise silently serve an m=1 run)
    and anything not already integral."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{name} must be an integer, got {value!r}")
    return value


def _require_real(value: Any, name: str) -> float:
    """A strict int or float: no bools (JSON ``true``), no strings."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(f"{name} must be a number, got {value!r}")
    return value


@dataclass(frozen=True)
class MechanismRequest:
    """One mechanism run as a service request.

    Attributes
    ----------
    topology:
        ``"chain"`` (DLS-LBL on a boundary-origination linear network),
        ``"star"`` (the star/bus mechanism) or ``"tree"`` (DLS-T on a
        random rooted tree of ``m + 1`` nodes).
    m:
        Links per chain (``m + 1`` processors) / children per star /
        strategic nodes per tree.
    seed:
        The solo recipe's rng seed: the network draw and the mechanism's
        audit randomness both come from ``default_rng(seed)``.
    audit_probability:
        Phase IV challenge probability ``q`` (unused by the tree
        mechanism, which models the tamper-proof level).
    deviant:
        Optional ``INDEX:KIND[:PARAM]`` spec injecting one deviant agent
        (same grammar as ``python -m repro run --deviant``).  Trees only
        accept ``misbid``/``slow``; a nonzero ``PARAM`` must have a
        magnitude within :data:`DEVIANT_PARAM_RANGE`.
    request_id:
        Caller-assigned correlation id (an integer), echoed in the
        response.
    tenant:
        Admission-fairness key: the weighted deficit-round-robin queue
        schedules across tenants and bounds each tenant's backlog
        separately.  Never part of the execution recipe.
    priority:
        Within-tenant ordering hint (higher drains first; FIFO within a
        priority level).  Never part of the execution recipe.
    """

    topology: str = "chain"
    m: int = 4
    seed: int = 0
    audit_probability: float = 0.25
    deviant: str | None = None
    request_id: int | None = None
    tenant: str = DEFAULT_TENANT
    priority: int = 0

    def validate(self) -> "MechanismRequest":
        """Raise :class:`RequestError` on anything the service cannot run."""
        if self.topology not in TOPOLOGIES:
            raise RequestError(
                f"unknown topology {self.topology!r}; choose from {TOPOLOGIES}"
            )
        _require_int(self.m, "m")
        if self.m < 1:
            raise RequestError(f"m must be a positive integer, got {self.m!r}")
        if self.m > MAX_M:
            raise RequestError(f"m must be at most {MAX_M}, got {self.m!r}")
        _require_int(self.seed, "seed")
        if self.seed < 0:
            raise RequestError(f"seed must be non-negative, got {self.seed!r}")
        if self.request_id is not None:
            _require_int(self.request_id, "request_id")
        _require_int(self.priority, "priority")
        if not PRIORITY_RANGE[0] <= self.priority <= PRIORITY_RANGE[1]:
            raise RequestError(
                f"priority must be in [{PRIORITY_RANGE[0]}, {PRIORITY_RANGE[1]}], "
                f"got {self.priority!r}"
            )
        if not isinstance(self.tenant, str) or not self.tenant:
            raise RequestError(f"tenant must be a non-empty string, got {self.tenant!r}")
        if len(self.tenant) > _TENANT_MAX_LEN or not set(self.tenant) <= _TENANT_CHARS:
            raise RequestError(
                f"tenant must be 1..{_TENANT_MAX_LEN} chars of [A-Za-z0-9._-], "
                f"got {self.tenant!r}"
            )
        if not 0.0 < _require_real(self.audit_probability, "audit_probability") <= 1.0:
            raise RequestError(
                f"audit probability must be in (0, 1], got {self.audit_probability!r}"
            )
        if self.deviant is not None:
            self._validate_deviant()
        return self

    def _validate_deviant(self) -> None:
        """Build the deviant agent the way the engine will, so a spec
        the engine would refuse mid-flush is refused here instead."""
        from repro.mechanism.population import make_deviant

        if not isinstance(self.deviant, str):
            raise RequestError(f"deviant must be a string, got {self.deviant!r}")
        try:
            make_deviant(self.deviant, [1.0] * self.m)
        except ValueError as exc:
            raise RequestError(str(exc)) from None
        _index, kind, *param = self.deviant.split(":")
        low, high = DEVIANT_PARAM_RANGE
        if param and float(param[0]) != 0 and not low <= abs(float(param[0])) <= high:
            raise RequestError(
                f"deviant param must be 0 or of magnitude {low:g}..{high:g} "
                f"in {self.deviant!r}"
            )
        if self.topology == "tree" and kind not in _TREE_DEVIANT_KINDS:
            raise RequestError(
                f"deviant kind {kind!r} unsupported on trees "
                f"(tamper-proof level); choose from {sorted(_TREE_DEVIANT_KINDS)}"
            )

    @property
    def batch_key(self) -> tuple[str, int, float]:
        """Requests sharing this key stack into one batch-engine call.

        Tenant and priority are deliberately absent: they steer
        *admission*, not execution, so requests from different tenants
        coalesce into one stacked call.
        """
        return (self.topology, self.m, float(self.audit_probability))

    def with_id(self, request_id: int) -> "MechanismRequest":
        return replace(self, request_id=request_id)

    # -- wire format ---------------------------------------------------

    def to_wire(self) -> dict[str, Any]:
        msg: dict[str, Any] = {
            "op": "run",
            "topology": self.topology,
            "m": self.m,
            "seed": self.seed,
            "audit_probability": self.audit_probability,
        }
        if self.deviant is not None:
            msg["deviant"] = self.deviant
        if self.request_id is not None:
            msg["request_id"] = self.request_id
        if self.tenant != DEFAULT_TENANT:
            msg["tenant"] = self.tenant
        if self.priority != 0:
            msg["priority"] = self.priority
        return msg

    @classmethod
    def from_wire(cls, msg: Mapping[str, Any]) -> "MechanismRequest":
        """Parse (and validate) a wire message; raises :class:`RequestError`.

        Numeric fields are validated on the *raw* JSON values: a JSON
        ``true`` never silently becomes 1, a string is never parsed as a
        number, and ``request_id`` must be an integer or null — the service
        echoes it back, so arbitrary JSON is refused rather than reflected.
        """
        m = _require_int(msg.get("m", 4), "m")
        seed = _require_int(msg.get("seed", 0), "seed")
        priority = _require_int(msg.get("priority", 0), "priority")
        request_id = msg.get("request_id")
        if request_id is not None:
            _require_int(request_id, "request_id")
        tenant = msg.get("tenant", DEFAULT_TENANT)
        try:
            request = cls(
                topology=msg.get("topology", "chain"),
                m=m,
                seed=seed,
                audit_probability=msg.get("audit_probability", 0.25),
                deviant=msg.get("deviant"),
                request_id=request_id,
                tenant=tenant,
                priority=priority,
            )
        except (TypeError, ValueError) as exc:
            raise RequestError(f"malformed request: {exc}") from None
        return request.validate()


@dataclass(frozen=True)
class MechanismResponse:
    """The service's answer to one request.

    ``summary`` is the bitwise-contracted payload (see
    :data:`SUMMARY_FIELDS`); ``served`` carries serving metadata —
    whether the run rode a stacked array lane, the lane engine or the
    scalar tree mechanism, and the size of the flush it was coalesced
    into — which is *not* part of the equality contract (a solo run has
    no batch to describe).
    """

    ok: bool
    summary: dict[str, Any] | None = None
    error: str | None = None
    request_id: int | None = None
    served: dict[str, Any] = field(default_factory=dict)

    def to_wire(self) -> dict[str, Any]:
        msg: dict[str, Any] = {"ok": self.ok}
        if self.summary is not None:
            msg["summary"] = self.summary
        if self.error is not None:
            msg["error"] = self.error
        if self.request_id is not None:
            msg["request_id"] = self.request_id
        if self.served:
            msg["served"] = self.served
        return msg

    @classmethod
    def from_wire(cls, msg: Mapping[str, Any]) -> "MechanismResponse":
        return cls(
            ok=bool(msg.get("ok")),
            summary=msg.get("summary"),
            error=msg.get("error"),
            request_id=msg.get("request_id"),
            served=dict(msg.get("served") or {}),
        )
