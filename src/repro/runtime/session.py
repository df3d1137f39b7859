"""Crash-fault-tolerant protocol runtime: lossy setup, crash detection,
mid-run re-allocation over survivors.

The mechanism layer (:mod:`repro.mechanism.dls_lbl`) assumes the
infrastructure works: messages arrive, processors stay up.  A
:func:`run_resilient` session re-runs the same DLT schedule under
*infrastructure* faults — the strategic incentive machinery is untouched
(all agents here are honest); what breaks is the network and the
hardware:

1. **Setup (Phase I analogue).**  Every processor's signed bid must
   reach the root over a :class:`~repro.runtime.transport.LossyTransport`.
   The root retries each exchange on a
   :class:`~repro.runtime.retry.RetryPolicy` deadline schedule
   (exponential backoff, jitter from the run's own rng stream).
   Corrupted copies fail ordinary signature verification and are
   rejected — each rejection files a grievance record (the root cannot
   distinguish line noise from tampering, so the evidence is kept) and
   the exchange continues to the retransmission.  A processor whose
   every attempt is lost is declared *unresponsive* and excluded before
   allocation.

2. **Allocation.**  The DLT program is solved over the *live* chain by
   :func:`~repro.dlt.linear.solve_linear_boundary` with dead interior
   positions bridged: the paper's front-end model puts relaying in
   obedient network hardware, so a dead CPU still forwards — the link
   time past it is the sum of the two links it sat between, and its load
   share is zero.

3. **Execution epochs.**  Phase III is simulated by
   :func:`~repro.sim.linear_sim.simulate_linear_chain`.  A ``crash_exec``
   fault kills its target partway through the target's compute window;
   the root detects the silence after ``detection_timeout`` sim-time
   units, marks the processor dead, re-solves the allocation of the
   *unfinished* load over the survivors, and distributes it in a new
   epoch.  Epochs repeat until no live processor crashes.  The makespan
   penalty relative to the fault-free allocation and every forfeited
   payment is recorded in the ledger and the trace.

4. **Settlement.**  Work-based compensation per processor (the runtime
   layer pays for metered work; the game-theoretic bonus structure lives
   one layer down and is unaffected).  A crashed processor cannot submit
   a Phase IV bill: its pre-crash work is paid and immediately forfeited
   back — both movements are explicit ledger entries, so conservation
   stays checkable and honest survivors are never fined.

**Byzantine faults.**  Beyond crashing, nodes can *lie*
(:data:`BYZANTINE_KINDS`), and lying composes freely with the
infrastructure faults above — the liar's control messages travel on its
own out-of-band channel (the adversary makes sure its lie arrives), so
detection never depends on the lossy transport's mood:

- ``byz_equivocate`` — two authentic Phase I bids with different
  values.  The root holds both signed messages, the contradiction is
  self-proving (Lemma 5.1 i), the liar is fined ``F`` and excluded
  before allocation.
- ``byz_replay`` — a relay message whose payload names another
  processor as originator but is signed by the liar.  Channel
  attribution convicts the signer (Lemma 5.1 ii): fined ``F``,
  excluded.
- ``byz_false_crash`` — an accusation that a live peer crashed.  The
  root checks its own liveness records
  (:func:`~repro.protocol.grievance.adjudicate_liveness`): the accuser
  is fined ``F`` and the framed processor rewarded ``F`` — the
  Section 4 symmetric scheme.  The accuser stays in the chain (lying
  about others does not impugn its own capacity).
- ``byz_meter`` — an inflated Phase IV billing claim.  The root's own
  meter is authoritative (Lemma 5.1 iv): the bill is rejected, the
  metered amount is paid, and the liar is fined ``F``.  Pre-empted only
  when the liar crashed before billing (the crash forfeit path already
  covers it).
- ``byz_suppress`` — a lying network element swallows its downstream
  neighbour's next sends.  Indistinguishable from a drop by design, so
  never *detected*: absorbed by retries (``tolerated``) or the victim
  is excluded (``degraded``).

Every detected lie produces explicit ledger entries through the same
:func:`~repro.protocol.grievance.apply_adjudication` path the mechanism
court uses, so a composed Byzantine × crash run still ends with a
balanced ledger, fines on detected liars only, and computation
compensation only to processors that verifiably worked.

Determinism: all randomness comes from rng streams derived from the
session seed, deadlines and arrivals are simulated time, and the trace
carries logical ids only — byte-identical output at any ``--jobs``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.crypto.keys import KeyPair, KeyRegistry
from repro.crypto.signing import sign
from repro.dlt.linear import solve_linear_boundary
from repro.mechanism.ledger import PaymentLedger
from repro.network.topology import LinearNetwork
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.perf import span as perf_span
from repro.obs.tracer import Tracer
from repro.protocol.grievance import (
    Adjudication,
    adjudicate_forgery,
    adjudicate_liveness,
    apply_adjudication,
    levy,
)
from repro.protocol.messages import Grievance, GrievanceKind, bid_payload
from repro.runtime.retry import RetryPolicy, backoff_schedule
from repro.runtime.transport import LossyTransport, TransportPolicy, TransportScript

__all__ = [
    "BYZANTINE_KINDS",
    "INFRASTRUCTURE_KINDS",
    "ResilientOutcome",
    "run_resilient",
]

#: The exported kind tuples and their catalog layers:
#: ``INFRASTRUCTURE_KINDS`` (the network or hardware fails) and
#: ``BYZANTINE_KINDS`` (nodes that *lie* rather than crash; they run on
#: this runtime and compose freely with the infrastructure kinds).
_KIND_LAYERS = {"INFRASTRUCTURE_KINDS": "infrastructure", "BYZANTINE_KINDS": "byzantine"}

#: Load below this is not worth a re-allocation epoch.
_EPS_LOAD = 1e-12


def _layer_kinds(layer: str) -> tuple[str, ...]:
    """One layer's kinds, in :data:`repro.faults.spec.FAULT_KINDS` order.

    The catalog is imported on first use: it loads all of
    :mod:`repro.faults`, which importing :mod:`repro.runtime` (as the
    serving client does) must not pay for.
    """
    from repro.faults.spec import FAULT_KINDS

    return tuple(name for name, kind in FAULT_KINDS.items() if kind.layer == layer)


def __getattr__(name: str) -> tuple[str, ...]:
    if name in _KIND_LAYERS:
        return _layer_kinds(_KIND_LAYERS[name])
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class ResilientOutcome:
    """Everything a resilient session produced.

    ``verdicts`` classifies every injected fault as the runtime handled
    it: ``tolerated`` (absorbed with no loss of capacity), ``degraded``
    (completed, but over fewer processors / with a makespan penalty) or
    ``detected`` (rejected with evidence); ``failed`` marks a fault the
    runtime could not recover from, and ``pre-empted`` a Byzantine lie
    whose liar died (or whose victim already had) before the lying
    moment — there was nothing left to detect.

    ``completed`` holds by construction: the root never fails and can
    always finish the load alone, so every session completes.

    ``liars`` are the processors convicted of a Byzantine lie this
    session; ``excluded`` the subset dropped from the chain before
    allocation (they also appear in ``dead`` for scheduling purposes);
    ``fines`` the per-processor adjudication fines the runtime levied
    (forfeits excluded — those live in ``forfeits``).
    """

    completed: bool
    m: int
    dead: tuple[int, ...]
    unresponsive: tuple[int, ...]
    setup_time: float
    computed: np.ndarray
    makespan: float
    baseline_makespan: float
    retries: int
    crashes: int
    reallocations: int
    rejections: int
    grievances: list[dict[str, Any]] = field(default_factory=list)
    forfeits: dict[int, float] = field(default_factory=dict)
    epochs: list[dict[str, Any]] = field(default_factory=list)
    verdicts: list[dict[str, Any]] = field(default_factory=list)
    ledger: PaymentLedger = field(default_factory=PaymentLedger)
    liars: tuple[int, ...] = ()
    excluded: tuple[int, ...] = ()
    fines: dict[int, float] = field(default_factory=dict)

    @property
    def makespan_penalty(self) -> float:
        """Extra simulated time versus the fault-free allocation."""
        return self.makespan - self.baseline_makespan

    @property
    def total_computed(self) -> float:
        """Load units computed across all epochs (== W when recovered)."""
        return float(self.computed.sum())


def _fault_fields(fault: Any) -> tuple[str, int, float | None]:
    """Accept :class:`~repro.faults.spec.FaultSpec` or a plain dict."""
    if isinstance(fault, dict):
        return str(fault["kind"]), int(fault["target"]), fault.get("param")
    param = getattr(fault, "effective_param", getattr(fault, "param", None))
    return str(fault.kind), int(fault.target), param


@dataclass
class _FaultPlan:
    """Compiled faults for one session: the transport scripts pinned on
    senders, the crash points, and the Byzantine lies.

    ``setdefault`` semantics for the lies: the first fault of a kind
    against a target wins (a processor tells one lie per kind).
    """

    fine: float = 1.0
    scripts: dict[int, TransportScript] = field(default_factory=dict)
    crashes: dict[int, float] = field(default_factory=dict)
    equivocators: dict[int, float] = field(default_factory=dict)
    replayers: dict[int, float] = field(default_factory=dict)
    accusers: set[int] = field(default_factory=set)
    meter_liars: dict[int, float] = field(default_factory=dict)
    suppress_victims: dict[int, int] = field(default_factory=dict)

    @classmethod
    def compile(
        cls, parsed: list[tuple[str, int, float | None]], m: int, fine: float
    ) -> "_FaultPlan":
        """Validate faults against an ``m``-link chain and compile them;
        a fault without a parameter takes its catalog default."""
        from repro.faults.spec import FAULT_KINDS

        runtime_kinds = _layer_kinds("infrastructure") + _layer_kinds("byzantine")
        for kind, target, _ in parsed:
            if kind not in runtime_kinds:
                raise ValueError(f"fault kind {kind!r} is not a runtime kind {runtime_kinds}")
            if not 1 <= target <= m:
                raise ValueError(f"fault target {target} outside 1..{m}")

        plan = cls(fine=fine)
        for kind, target, param in parsed:
            value = param if param is not None else FAULT_KINDS[kind].default_param
            if kind == "net_drop":
                plan.script(target).drop_next += int(value)
            elif kind == "msg_corrupt":
                plan.script(target).corrupt_next += int(value)
            elif kind == "net_dup":
                plan.script(target).duplicate_next += int(value)
            elif kind == "net_delay":
                plan.script(target).delay_each += float(value)
            elif kind == "crash_exec":
                plan.crashes[target] = float(np.clip(value, 0.0, 1.0))
            elif kind == "byz_equivocate":
                plan.equivocators.setdefault(target, float(value))
            elif kind == "byz_replay":
                plan.replayers.setdefault(target, float(value))
            elif kind == "byz_false_crash":
                plan.accusers.add(target)
            elif kind == "byz_meter":
                plan.meter_liars.setdefault(target, float(value))
            else:  # byz_suppress
                # The liar controls the network element on its downstream
                # link: its neighbour's sends are the ones that vanish.
                victim = target + 1 if target < m else max(target - 1, 1)
                plan.suppress_victims[target] = victim
                if victim != target:
                    plan.script(victim).suppress_next += int(value)
        return plan

    def script(self, sender: int) -> TransportScript:
        return self.scripts.setdefault(sender, TransportScript())


def _bridged_chain(
    w: np.ndarray, z: np.ndarray, live: list[int]
) -> tuple[LinearNetwork, list[int]]:
    """The survivor chain: dead positions bridged by summing link times."""
    w_red = w[live]
    z_red = np.array(
        [float(z[a:b].sum()) for a, b in zip(live[:-1], live[1:])], dtype=np.float64
    )
    return LinearNetwork(w_red, z_red), live


def run_resilient(
    w: Sequence[float],
    z: Sequence[float],
    faults: Sequence[Any] = (),
    *,
    retry: RetryPolicy | None = None,
    policy: TransportPolicy | None = None,
    seed: int = 0,
    total_load: float = 1.0,
    tracer: Tracer | None = None,
    key_seed: bytes | None = b"runtime",
    fine: float = 1.0,
) -> ResilientOutcome:
    """Execute one resilient session on the chain ``(w, z)``.

    Parameters
    ----------
    w, z:
        True unit processing times ``w_0..w_m`` (the root is ``w_0``) and
        link times ``z_1..z_m``.
    faults:
        Infrastructure fault specs (:data:`INFRASTRUCTURE_KINDS`):
        ``net_drop`` (param: sends lost before one gets through),
        ``net_delay`` (param: latency added to each delivery),
        ``net_dup`` (param: sends delivered twice),
        ``msg_corrupt`` (param: sends delivered with a damaged
        signature), ``crash_exec`` (param: fraction of the target's
        compute window after which it dies) — and Byzantine specs
        (:data:`BYZANTINE_KINDS`, see the module docstring):
        ``byz_equivocate`` (param: second-bid factor), ``byz_replay``
        (param: forged-value factor), ``byz_false_crash`` (no param),
        ``byz_meter`` (param: billing inflation factor > 1),
        ``byz_suppress`` (param: neighbour sends swallowed).  A missing
        param takes the kind's :data:`~repro.faults.spec.FAULT_KINDS`
        default.
    retry, policy:
        Deadline/backoff policy and background transport loss rates.
    seed:
        Derives the transport and jitter rng streams; the session is a
        pure function of ``(w, z, faults, retry, policy, seed)``.
    fine:
        The quantity ``F`` levied on each detected Byzantine lie.
    """
    w = np.asarray(w, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    m = z.size
    if w.size != m + 1:
        raise ValueError(f"w has length {w.size}, expected {m + 1}")
    retry = retry if retry is not None else RetryPolicy()
    policy = policy if policy is not None else TransportPolicy()
    parsed = [_fault_fields(f) for f in faults]
    plan = _FaultPlan.compile(parsed, m, float(fine))
    key_registry, keys = KeyRegistry.for_processors(m + 1, seed=key_seed)
    session = _Session(
        w=w,
        z=z,
        parsed=parsed,
        plan=plan,
        retry=retry,
        transport=LossyTransport(
            policy, np.random.default_rng([seed, 1]), scripts=plan.scripts, tracer=tracer
        ),
        jitter_rng=np.random.default_rng([seed, 2]),
        key_registry=key_registry,
        keys={pair.owner: pair for pair in keys},
        total_load=total_load,
        tracer=tracer,
        registry=get_registry(),
    )

    cm = nullcontext(None) if tracer is None else tracer.span(
        "resilient_run", m=m, total_load=total_load, faults=len(parsed)
    )
    with perf_span("runtime"), cm as run_span:
        session.setup()
        session.adjudicate()
        session.baseline()
        while session.load_remaining > _EPS_LOAD:
            session.epoch()
        outcome = session.settle()
        if run_span is not None:
            run_span.set(
                completed=outcome.completed,
                makespan=outcome.makespan,
                dead=list(outcome.dead),
                reallocations=outcome.reallocations,
            )
    return outcome


@dataclass
class _Session:
    """One resilient session: its inputs, and the state each stage
    hands to the next."""

    w: np.ndarray
    z: np.ndarray
    parsed: list[tuple[str, int, float | None]]
    plan: _FaultPlan
    retry: RetryPolicy
    transport: LossyTransport
    jitter_rng: np.random.Generator
    key_registry: KeyRegistry
    keys: dict[int, KeyPair]
    total_load: float
    tracer: Tracer | None
    registry: MetricsRegistry
    # Setup.
    retries: int = 0
    rejections: int = 0
    grievances: list[dict[str, Any]] = field(default_factory=list)
    unresponsive: list[int] = field(default_factory=list)
    setup_time: float = 0.0
    # Byzantine adjudication.
    liars: set[int] = field(default_factory=set)
    excluded: set[int] = field(default_factory=set)
    fines: dict[int, float] = field(default_factory=dict)
    byz_verdicts: dict[tuple[str, int], str] = field(default_factory=dict)
    # Execution epochs.
    baseline_makespan: float = 0.0
    dead: list[int] = field(default_factory=list)
    crashed: set[int] = field(default_factory=set)
    crashes: int = 0
    reallocations: int = 0
    epochs: list[dict[str, Any]] = field(default_factory=list)
    clock: float = 0.0
    makespan: float = 0.0

    def __post_init__(self) -> None:
        self.m = self.z.size
        self.ledger = PaymentLedger(tracer=self.tracer)
        self.pending_crashes = dict(self.plan.crashes)
        self.computed = np.zeros(self.m + 1)
        self.load_remaining = float(self.total_load)

    # ---------------- Setup: collect bids over the lossy transport -------

    def setup(self) -> None:
        """Collect every processor's signed bid at the root."""
        with perf_span("setup"):
            ready = np.zeros(self.m + 1)
            for i in range(1, self.m + 1):
                arrived = self._exchange_bid(i)
                if arrived is not None:
                    ready[i] = arrived
            self.setup_time = float(ready.max())
        self.clock = self.makespan = self.setup_time

    def _exchange_bid(self, i: int) -> float | None:
        """Send ``P_i``'s bid on the backoff schedule until a verified
        copy beats its deadline: that copy's arrival time, or ``None``
        once every attempt is lost and ``P_i`` is unresponsive."""
        registry, tracer = self.registry, self.tracer
        message = sign(self.keys[i], bid_payload(i, float(self.w[i])))
        timeouts = backoff_schedule(self.retry, self.jitter_rng)
        seen: set[str] = set()
        t = 0.0
        for attempt, timeout in enumerate(timeouts):
            deadline = t + timeout
            for delivery in self.transport.send(message, sender=i, receiver=0, at=t, kind="bid"):
                if delivery.arrival > deadline:
                    continue  # the root has already given up on this attempt
                digest = delivery.message.content_digest() + delivery.message.signature
                if digest in seen:
                    continue  # duplicate copy, discarded silently
                seen.add(digest)
                if delivery.message.verify(self.key_registry):
                    return delivery.arrival
                self.rejections += 1
                registry.inc("runtime.corrupt_rejected")
                self.grievances.append({"kind": "corrupt-message", "accuser": 0, "against": i,
                                        "attempt": attempt, "at": delivery.arrival})
                if tracer is not None:
                    tracer.event("msg_rejected", t0=delivery.arrival, proc=i, attempt=attempt,
                                 reason="signature verification failed")
            t = deadline
            if attempt == len(timeouts) - 1:
                break  # out of attempts: the give-up, not a retransmission
            self.retries += 1
            registry.inc("runtime.retries")
            # Simulated seconds waited before this retransmit; a
            # histogram (not the trace) so backoff growth is visible
            # in perf reports without touching determinism.
            registry.observe("runtime.retry_wait_sim", float(timeout))
            if tracer is not None:
                tracer.event("retry", t0=deadline, proc=i, attempt=attempt, timeout=timeout)
        self.unresponsive.append(i)
        registry.inc("runtime.unresponsive")
        if tracer is not None:
            tracer.event("unresponsive", t0=t, proc=i, attempts=len(timeouts))
        return None

    # ---------------- Byzantine adjudication at the epoch-0 boundary ------

    def adjudicate(self) -> None:
        """Convict the equivocators, forgers and false accusers, and
        drop the first two from the chain before allocation.

        Lies travel on the liar's own out-of-band channel (see the module
        docstring), so none of this consumes transport or jitter draws —
        the rng streams stay aligned with the byzantine-free run.
        """
        plan, m, verdicts = self.plan, self.m, self.byz_verdicts
        with perf_span("byzantine"):
            for i in sorted(plan.equivocators):
                factor = plan.equivocators[i]
                first = sign(self.keys[i], bid_payload(i, float(self.w[i])))
                second = sign(self.keys[i], bid_payload(i, float(self.w[i]) * factor))
                # Self-proving contradiction: two authentic bids, different
                # digests, same protocol slot (Lemma 5.1 i) — the same check
                # GrievanceCourt._check_contradictory runs on evidence.
                contradiction = (
                    first.verify(self.key_registry)
                    and second.verify(self.key_registry)
                    and first.content_digest() != second.content_digest()
                )
                if not contradiction:
                    verdicts[("byz_equivocate", i)] = "tolerated"
                    continue
                verdict = Adjudication(
                    grievance=Grievance(
                        kind=GrievanceKind.CONTRADICTORY_MESSAGES,
                        accuser=0,
                        accused=i,
                        conflicting=(first, second),
                    ),
                    substantiated=True,
                    fined=i,
                    rewarded=0,  # the root keeps the reward (eq. 4.3)
                    fine_amount=plan.fine,
                    reward_amount=plan.fine,
                    reason="two authentic Phase I bids with contradictory content",
                )
                self._convict(
                    verdict,
                    {"kind": "equivocating-bid", "accuser": 0, "against": i,
                     "factor": factor},
                )
                self.excluded.add(i)
                verdicts[("byz_equivocate", i)] = "detected"

            for i in sorted(plan.replayers):
                factor = plan.replayers[i]
                claimed = i + 1 if i < m else (i - 1 if i > 1 else 0)
                forged = sign(self.keys[i], bid_payload(claimed, float(self.w[claimed]) * factor))
                if forged.payload["proc"] == forged.signer:  # pragma: no cover
                    verdicts[("byz_replay", i)] = "tolerated"
                    continue
                self._convict(
                    adjudicate_forgery(i, claimed, plan.fine),
                    {"kind": "forged-relay", "accuser": 0, "against": i,
                     "claimed": claimed},
                )
                self.excluded.add(i)
                verdicts[("byz_replay", i)] = "detected"

            dead_now = set(self.unresponsive) | self.excluded
            for a in sorted(plan.accusers):
                candidates = [j for j in range(1, m + 1) if j != a and j not in dead_now]
                if not candidates:
                    # Everyone else already failed: framing a dead processor
                    # gains nothing, so the adversary stays silent.
                    verdicts[("byz_false_crash", a)] = "pre-empted"
                    continue
                victim = min(candidates, key=lambda j: (abs(j - a), j))
                self._convict(
                    adjudicate_liveness(a, victim, True, plan.fine),
                    {"kind": "crash-accusation", "accuser": a, "against": victim,
                     "substantiated": False},
                )
                verdicts[("byz_false_crash", a)] = "detected"

        if self.excluded:
            self.registry.inc("runtime.byz_excluded", len(self.excluded))
            if self.tracer is not None:
                for i in sorted(self.excluded):
                    self.tracer.event(
                        "excluded", t0=self.setup_time, proc=i, reason="detected liar"
                    )
        self.dead = sorted(set(self.unresponsive) | self.excluded)
        self.reallocations = 1 if self.dead else 0  # chain already shrunk before epoch 0

    def _convict(self, verdict: Adjudication, grievance_record: dict[str, Any]) -> None:
        apply_adjudication(verdict, self.ledger, tracer=self.tracer)
        self._record_liar(verdict.fined, verdict.fine_amount, grievance_record)

    def _record_liar(self, proc: int, amount: float, grievance_record: dict[str, Any]) -> None:
        self.liars.add(proc)
        self.fines[proc] = self.fines.get(proc, 0.0) + amount
        self.grievances.append(grievance_record)
        self.registry.inc("runtime.byz_detected")

    # ---------------- Baseline: the fault-free allocation -----------------

    def baseline(self) -> None:
        """The makespan the whole chain would take with no faults."""
        baseline = solve_linear_boundary(LinearNetwork(self.w, self.z))
        self.baseline_makespan = float(baseline.makespan) * self.total_load

    # ---------------- Execution epochs with crash recovery ----------------

    def epoch(self) -> None:
        """Allocate the unfinished load over the live chain and simulate
        it.  The earliest pending crash ends the epoch: the root detects
        it, and the crashed processor's unfinished share becomes the
        next epoch's load."""
        tracer = self.tracer
        live = [0] + [i for i in range(1, self.m + 1) if i not in self.dead]
        network, mapping = _bridged_chain(self.w, self.z, live)
        alloc = solve_linear_boundary(network).alpha * self.load_remaining
        index = len(self.epochs)
        cm = nullcontext(None) if tracer is None else tracer.span(
            "epoch", t0=self.clock, index=index, load=self.load_remaining, live=list(mapping)
        )
        with perf_span("epoch"), cm as epoch_span:
            if network.size > 1:
                from repro.sim.linear_sim import simulate_linear_chain

                sim = simulate_linear_chain(
                    network, alloc, speeds=network.w, total_load=self.load_remaining
                )
                computed_local = sim.computed
                epoch_makespan = float(sim.makespan)
                crash = self._first_crash(sim, mapping, alloc)
            else:
                # Only the root survives: it computes everything itself.
                computed_local = np.array([self.load_remaining])
                epoch_makespan = self.load_remaining * float(self.w[0])
                crash = None

            target = done = None
            if crash is not None:
                crash_time, target, fraction, share = crash
                del self.pending_crashes[target]
                self.dead.append(target)
                self.dead.sort()
                self.crashed.add(target)
                self.crashes += 1
                self.registry.inc("runtime.crashes")
                done = fraction * share
                lost = share - done
                detect_time = crash_time + self.retry.detection_timeout
                if tracer is not None:
                    tracer.event("crash_detected", t0=crash_time, t1=detect_time, proc=target,
                                 completed=done, lost=lost)

            # Everyone else finishes this epoch's work; a crashed target's
            # completed fraction stands.
            for local, proc in enumerate(mapping):
                self.computed[proc] += done if proc == target else float(computed_local[local])
            end = self.clock + epoch_makespan
            self.makespan = max(self.makespan, end)
            record = {"index": index, "start": self.clock, "load": self.load_remaining,
                      "live": list(mapping), "crashed": target}
            if crash is not None:
                record.update(crash_time=crash_time, detect_time=detect_time, lost=lost)
            record["makespan"] = end
            self.epochs.append(record)
            if epoch_span is not None:
                epoch_span.set(makespan=end, crashed=target)

        if crash is None:
            self.load_remaining = 0.0
            return
        self.load_remaining = lost
        self.clock = detect_time
        if self.load_remaining > _EPS_LOAD:
            self.reallocations += 1
            self.registry.inc("runtime.reallocations")
            if tracer is not None:
                tracer.event("reallocation", t0=detect_time, load=self.load_remaining,
                             survivors=[proc for proc in live if proc != target])

    def _first_crash(
        self, sim, mapping: list[int], alloc: np.ndarray
    ) -> tuple[float, int, float, float] | None:
        """The earliest pending crash on this epoch's chain:
        ``(time, target, fraction, share)``, or ``None``."""
        crashes = []
        for target, fraction in self.pending_crashes.items():
            if target not in mapping:
                continue
            local = mapping.index(target)
            share = float(alloc[local])
            if share <= _EPS_LOAD:
                # Nothing assigned; the crash costs nothing to recover.
                crashes.append((self.clock, target, fraction, 0.0))
                continue
            start, duration = _compute_window(sim, local, share, self.w[target])
            crashes.append((self.clock + start + fraction * duration, target, fraction, share))
        return min(crashes, default=None)

    # ---------------- Settlement ------------------------------------------

    def settle(self) -> ResilientOutcome:
        """Pay for metered work, forfeit the crashed processors' pay,
        audit the meter liars' bills, and classify every fault."""
        plan, computed, w, ledger = self.plan, self.computed, self.w, self.ledger
        with perf_span("settlement"):
            forfeits: dict[int, float] = {}
            ledger.pay(0, float(computed[0]) * float(w[0]), "root reimbursement")
            for i in range(1, self.m + 1):
                amount = float(computed[i]) * float(w[i])
                if i in self.dead:
                    if amount > 0:
                        ledger.pay(i, amount, "compensation (pre-crash work)")
                        ledger.fine(i, amount, "forfeited: crashed before billing")
                    forfeits[i] = amount
                    if self.tracer is not None:
                        self.tracer.event("forfeit", proc=i, amount=amount)
                elif amount > 0:
                    ledger.pay(i, amount, "computation compensation")

            # Phase IV billing audit for the meter liars: the root's own
            # meter (``computed``) is authoritative; the inflated bill is
            # rejected — the metered amount was already paid above — and
            # the fraudulent excess costs the flat fine F.  A liar that
            # crashed never bills (the forfeit path above covered it).
            for i in sorted(plan.meter_liars):
                if i in self.crashed:
                    self.byz_verdicts[("byz_meter", i)] = "pre-empted"
                    continue
                # A liar with no metered work fabricates an average-share
                # claim from whole cloth; either way the claim exceeds the
                # meter (spec validation pins factor > 1).
                claimed_units = (
                    float(computed[i])
                    if computed[i] > _EPS_LOAD
                    else self.total_load / (self.m + 1)
                )
                self._record_liar(
                    i,
                    plan.fine,
                    {"kind": "inflated-meter", "accuser": 0, "against": i,
                     "claimed": claimed_units * float(w[i]) * plan.meter_liars[i],
                     "metered": float(computed[i]) * float(w[i])},
                )
                levy(
                    ledger, self.registry, i, plan.fine,
                    "meter-detected: inflated billing claim",
                    source="meter-audit", reason="inflated-meter", tracer=self.tracer,
                )
                self.byz_verdicts[("byz_meter", i)] = "detected"

            verdicts = self._classify()
        return ResilientOutcome(
            completed=True,
            m=self.m,
            dead=tuple(self.dead),
            unresponsive=tuple(sorted(self.unresponsive)),
            setup_time=self.setup_time,
            computed=computed,
            makespan=self.makespan,
            baseline_makespan=self.baseline_makespan,
            retries=self.retries,
            crashes=self.crashes,
            reallocations=self.reallocations,
            rejections=self.rejections,
            grievances=self.grievances,
            forfeits=forfeits,
            epochs=self.epochs,
            verdicts=verdicts,
            ledger=ledger,
            liars=tuple(sorted(self.liars)),
            excluded=tuple(sorted(self.excluded)),
            fines=self.fines,
        )

    def _classify(self) -> list[dict[str, Any]]:
        """Per-fault runtime verdicts:
        tolerated / degraded / detected / failed / pre-empted."""
        verdicts = []
        byzantine = _layer_kinds("byzantine")
        rejected_against = {
            g["against"] for g in self.grievances if g["kind"] == "corrupt-message"
        }
        for kind, target, param in self.parsed:
            if kind == "byz_suppress":
                victim = self.plan.suppress_victims.get(target)
                verdict = "degraded" if victim in self.unresponsive else "tolerated"
            elif kind in byzantine:
                verdict = self.byz_verdicts.get((kind, target), "pre-empted")
            elif kind == "crash_exec":
                verdict = "degraded" if target in self.dead else "tolerated"
            elif kind == "msg_corrupt":
                if param is not None and int(param) == 0:
                    verdict = "tolerated"  # nothing was actually corrupted
                elif target in rejected_against:
                    verdict = "detected"
                else:
                    verdict = "failed"
            elif kind == "net_drop":
                verdict = "degraded" if target in self.unresponsive else "tolerated"
            else:  # net_delay / net_dup: absorbed by dedup and deadlines
                verdict = "tolerated" if target not in self.unresponsive else "degraded"
            verdicts.append(
                {"kind": kind, "target": target, "param": param, "verdict": verdict}
            )
        return verdicts


def _compute_window(sim, local: int, share: float, rate: float) -> tuple[float, float]:
    """(start, duration) of ``local``'s compute interval in this epoch."""
    for interval in sim.trace.intervals:
        if interval.kind == "compute" and interval.proc == local:
            return float(interval.start), float(interval.end - interval.start)
    # A dust share the simulator never computed: approximate from the rate.
    return 0.0, share * rate
