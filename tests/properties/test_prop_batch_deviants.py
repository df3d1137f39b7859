"""Differential harness: masked deviant lanes in the batch engine.

:mod:`repro.mechanism.batch_run` claims the batched path — stacked
arrays for conforming lanes plus masked lane mechanisms for divergent
ones — is *bitwise* equal to the scalar protocol with **no scalar
fallback**.  This module is the proof: reusable differential helpers
(``assert_population_equivalent`` / ``assert_scenario_equivalent``)
replay identical seeded workloads through both paths and compare every
observable with ``==`` — run summaries (payments, fines, verdicts),
protocol counters, and trace *bytes* (via
:func:`repro.obs.tracer.first_divergence`, which names the first
mismatching event on failure) — then sweep them across the full
:data:`~repro.faults.FAULT_KINDS` catalog on chains and stars, the
population deviant catalog, and the X8 coalition replay.  The stacked
engines' ``shed``/``accuse`` verdict columns are swept against the lane
engine row by row (``assert_rows_equal_lane_runs``).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FAULT_KINDS, FaultSpec, ScenarioSpec
from repro.faults.runner import run_scenario
from repro.faults.spec import TOPOLOGY_KINDS
from repro.mechanism.population import _DEVIANT_KINDS, run_population
from repro.mechanism.rows import _solo_delta, run_rows
from repro.obs.metrics import collecting
from repro.obs.tracer import events_to_jsonl, first_divergence

# -- the reusable harness --------------------------------------------------


def protocol_counters(snapshot):
    """The counters both paths must agree on.  ``crypto.*`` counters,
    ``sim.*`` counters and wall-clock timers have no batched analogue;
    ``mechanism.scalar_fallbacks`` only exists on the batched path (the
    dedicated tests below pin it to zero)."""
    return {
        k: v
        for k, v in snapshot.get("counters", {}).items()
        if k.startswith(("mechanism.", "ledger."))
        and k != "mechanism.scalar_fallbacks"
    }


def assert_traces_byte_equal(scalar_events, batch_events):
    """Byte-level trace equality with a readable first-divergence report."""
    divergence = first_divergence(scalar_events, batch_events)
    assert divergence is None, (
        f"trace divergence at event {divergence[0]}:\n"
        f"  scalar: {divergence[1]}\n"
        f"  batch:  {divergence[2]}"
    )
    assert events_to_jsonl(scalar_events) == events_to_jsonl(batch_events)


def assert_population_equivalent(**kwargs):
    """Run a population scalar and batched; assert bitwise equality of
    summaries, protocol counters and trace bytes.  Returns both results
    for extra assertions."""
    with collecting() as registry:
        scalar = run_population(**kwargs)
        scalar_counters = protocol_counters(registry.snapshot())
    with collecting() as registry:
        batched = run_population(use_batch=True, **kwargs)
        batch_snapshot = registry.snapshot()
    assert scalar.runs == batched.runs
    assert scalar_counters == protocol_counters(batch_snapshot)
    assert (
        batch_snapshot.get("counters", {}).get("mechanism.scalar_fallbacks", 0) == 0
    )
    assert_traces_byte_equal(scalar.events, batched.events)
    return scalar, batched


def assert_scenario_equivalent(spec, *, seed=1, trace=False, runs=None):
    """Run a fault scenario scalar and batched; assert bitwise equality
    of run summaries (deviator verdicts, gains, fines), protocol
    counters and trace bytes.  Returns both results."""
    with collecting() as registry:
        scalar = run_scenario(spec, seed=seed, trace=trace, runs=runs)
        scalar_counters = protocol_counters(registry.snapshot())
    with collecting() as registry:
        batched = run_scenario(
            spec, seed=seed, trace=trace, runs=runs, use_batch=True
        )
        batch_snapshot = registry.snapshot()
    assert scalar.runs == batched.runs
    assert scalar_counters == protocol_counters(batch_snapshot)
    assert (
        batch_snapshot.get("counters", {}).get("mechanism.scalar_fallbacks", 0) == 0
    )
    assert_traces_byte_equal(scalar.events, batched.events)
    return scalar, batched


def _catalog_cases():
    """Every strategic fault kind x every batched topology."""
    cases = []
    for topology in ("linear", "star"):
        for kind, info in FAULT_KINDS.items():
            if info.layer != "strategic" or kind not in TOPOLOGY_KINDS[topology]:
                continue
            cases.append(pytest.param(topology, kind, id=f"{topology}-{kind}"))
    return cases


def _kind_scenario(topology, kind, m=3, runs=2):
    target = 1 if FAULT_KINDS[kind].needs_successor else None
    return ScenarioSpec(
        name=f"diff-{topology}-{kind}",
        faults=(FaultSpec(kind=kind, target=target),),
        m=m,
        runs=runs,
        topology=topology,
    )


# -- the sweeps ------------------------------------------------------------


class TestFaultCatalogDifferential:
    """Every ``FAULT_KINDS`` strategic entry x {chain, star}: batched
    runs bitwise-equal the scalar ones in payments, fines, verdicts and
    metrics counters."""

    @pytest.mark.parametrize("topology,kind", _catalog_cases())
    def test_kind_bitwise_equal(self, topology, kind):
        assert_scenario_equivalent(_kind_scenario(topology, kind))

    @pytest.mark.parametrize(
        "topology,kind",
        [("linear", "shed"), ("linear", "meter_tamper"), ("star", "contradict")],
    )
    def test_traced_kind_byte_equal(self, topology, kind):
        assert_scenario_equivalent(_kind_scenario(topology, kind), trace=True)


class TestPopulationDeviantLanes:
    """The population deviant catalog through the masked lane router."""

    @pytest.mark.parametrize("kind", _DEVIANT_KINDS)
    def test_uniform_deviant_bitwise_equal(self, kind):
        assert_population_equivalent(m=4, count=3, seed=2, deviant=f"2:{kind}")

    @pytest.mark.parametrize("kind", ("shed", "contradict", "accuse"))
    def test_traced_deviant_byte_equal(self, kind):
        scalar, batched = assert_population_equivalent(
            m=4, count=2, seed=3, deviant=f"2:{kind}", trace=True
        )
        assert batched.events  # lanes trace natively, never a stub

    def test_mixed_deviants_rotate_all_kinds(self):
        specs = [None, None] + [f"2:{kind}" for kind in _DEVIANT_KINDS]
        assert_population_equivalent(m=4, count=len(specs), seed=7, deviants=specs)

    def test_jobs_do_not_change_batched_output(self):
        specs = [None, "2:shed:0.5", "3:contradict", None, "1:accuse", "2:misbid:1.7"]
        kwargs = dict(m=4, count=len(specs), seed=5, deviants=specs, use_batch=True)
        serial = run_population(jobs=1, **kwargs)
        pooled = run_population(jobs=2, **kwargs)
        assert serial.runs == pooled.runs
        assert protocol_counters(serial.metrics) == protocol_counters(pooled.metrics)
        assert_traces_byte_equal(serial.events, pooled.events)


#: Shed fractions: none given up, a sub-block excess, half, everything.
SHED_FRACTIONS = ("0", "1e-6", "0.5", "1.0")

VERDICT_KINDS = tuple(f"shed:{f}" for f in SHED_FRACTIONS) + ("accuse",)


def _specs(m, kinds):
    """Row specs: a kind from ``kinds`` on agent ``1..m``, or truthful."""
    spec = st.builds(
        lambda index, kind: f"{index}:{kind}",
        st.integers(min_value=1, max_value=m),
        st.sampled_from(kinds),
    )
    return st.lists(st.one_of(st.none(), spec), min_size=1, max_size=8)


def assert_rows_equal_lane_runs(topology, m, q, seeds, specs):
    """``run_rows`` against the lane engine's solo run of every row:
    outcome fields, per-row counter snapshots and the grievance counters
    compared with ``==``.  Returns the rows."""
    rows = run_rows(topology, m, q, seeds, specs)
    for i, (seed, spec) in enumerate(zip(seeds, specs)):
        fields, _events, snapshot = _solo_delta(topology, m, seed, q, spec, "lane", False)
        assert rows.fields[i] == fields, (topology, m, q, seed, spec)
        got, want = protocol_counters(rows.snapshots[i]), protocol_counters(snapshot)
        assert got == want, (topology, m, q, seed, spec)
        for key in ("mechanism.grievances", "mechanism.grievances_substantiated"):
            assert got.get(key) == want.get(key)
    return rows


class TestArrayVerdictsDifferential:
    """The stacked engines' ``shed``/``accuse`` verdict columns against
    the lane engine, row by row: a terminal shed is a no-op, ``1:accuse``
    accuses the root, a sub-block shed is grieved only when its Λ
    certificate proves it."""

    @settings(max_examples=60, deadline=None)
    @given(
        topology=st.sampled_from(["chain", "star"]),
        m=st.integers(min_value=1, max_value=8),
        q=st.sampled_from([0.25, 1.0]),
        seed=st.integers(min_value=0, max_value=2**32),
        data=st.data(),
    )
    def test_shed_and_accuse_rows_equal_lane_runs(self, topology, m, q, seed, data):
        specs = data.draw(_specs(m, VERDICT_KINDS))
        seeds = [seed + k for k in range(len(specs))]
        rows = assert_rows_equal_lane_runs(topology, m, q, seeds, specs)
        assert rows.engines == ["array"] * len(specs)

    @settings(max_examples=40, deadline=None)
    @given(
        topology=st.sampled_from(["chain", "star"]),
        m=st.integers(min_value=1, max_value=8),
        q=st.sampled_from([0.25, 1.0]),
        seed=st.integers(min_value=0, max_value=2**32),
        data=st.data(),
    )
    def test_mixed_stacks_of_all_kinds_equal_lane_runs(self, topology, m, q, seed, data):
        specs = data.draw(_specs(m, _DEVIANT_KINDS + VERDICT_KINDS))
        seeds = [seed + k for k in range(len(specs))]
        assert_rows_equal_lane_runs(topology, m, q, seeds, specs)

    @pytest.mark.parametrize("topology", ["chain", "star"])
    def test_every_index_and_fraction(self, topology):
        # Deterministic coverage: each agent of an m-4 and an m-8 chain
        # sheds every fraction and accuses, at both audit probabilities.
        for m in (4, 8):
            specs = [f"{i}:{kind}" for i in range(1, m + 1) for kind in VERDICT_KINDS]
            seeds = list(range(100 * m, 100 * m + len(specs)))
            for q in (0.25, 1.0):
                rows = assert_rows_equal_lane_runs(topology, m, q, seeds, specs)
                assert rows.engines == ["array"] * len(specs)

    def test_chain_sweep_exercises_both_verdicts(self):
        specs = [f"{i}:{kind}" for i in (1, 2, 3) for kind in VERDICT_KINDS] * 4
        rows = run_rows("chain", 3, 0.25, list(range(len(specs))), specs)
        verdicts = {
            snapshot["counters"].get("mechanism.grievances_substantiated", 0.0)
            for snapshot, fields in zip(rows.snapshots, rows.fields)
            if fields["n_grievances"]
        }
        assert verdicts == {0.0, 1.0}
        # A terminal shed is a no-op: no grievance.
        terminal = [f for f, spec in zip(rows.fields, specs) if spec.startswith("3:shed")]
        assert all(f["n_grievances"] == 0 for f in terminal)


class TestScalarFallbackCounter:
    """``mechanism.scalar_fallbacks`` reads 0 for everything the engine
    covers and counts the genuine gaps (trees, infrastructure runs)."""

    def test_full_deviant_suite_reads_zero(self):
        specs = [f"{1 + (i % 3)}:{kind}" for i, kind in enumerate(_DEVIANT_KINDS)]
        with collecting() as registry:
            run_population(
                m=4, count=len(specs), seed=4, deviants=specs, use_batch=True
            )
            run_population(m=3, count=2, seed=6, trace=True, use_batch=True)
            counters = registry.snapshot().get("counters", {})
        assert counters.get("mechanism.scalar_fallbacks", 0) == 0

    def test_fault_catalog_suite_reads_zero(self):
        with collecting() as registry:
            for topology in ("linear", "star"):
                for kind in ("misbid", "shed", "contradict"):
                    run_scenario(
                        _kind_scenario(topology, kind, runs=1),
                        seed=1,
                        use_batch=True,
                    )
            counters = registry.snapshot().get("counters", {})
        assert counters.get("mechanism.scalar_fallbacks", 0) == 0

    def test_tree_topology_counts_fallbacks(self):
        spec = ScenarioSpec(
            name="diff-tree-fallback",
            faults=(FaultSpec(kind="misbid"),),
            m=3,
            runs=1,
            topology="tree",
        )
        with collecting() as registry:
            run_scenario(spec, seed=1, use_batch=True)
            counters = registry.snapshot().get("counters", {})
        assert counters.get("mechanism.scalar_fallbacks", 0) > 0

    def test_infrastructure_counts_fallbacks(self):
        spec = ScenarioSpec(
            name="diff-infra-fallback",
            faults=(FaultSpec(kind="net_drop"),),
            m=3,
            runs=1,
            topology="linear",
        )
        with collecting() as registry:
            run_scenario(spec, seed=1, use_batch=True)
            counters = registry.snapshot().get("counters", {})
        assert counters.get("mechanism.scalar_fallbacks", 0) > 0

    def test_scalar_paths_never_emit_the_counter(self):
        with collecting() as registry:
            run_population(m=4, count=2, seed=2, deviant="2:shed:0.5")
            run_scenario(_kind_scenario("linear", "shed", runs=1), seed=1)
            counters = registry.snapshot().get("counters", {})
        assert "mechanism.scalar_fallbacks" not in counters


class TestGoldenDeviantTrace:
    """The deviant-heavy population's batched trace against the frozen
    golden bytes in ``tests/data/`` — grievances, aborts, tampered
    proofs and all."""

    GOLDEN = os.path.join(
        os.path.dirname(__file__),
        "..",
        "data",
        "golden_trace_deviant_population.jsonl",
    )
    SPECS = [
        "1:shed:0.5",
        "2:contradict",
        "3:miscompute:0.8",
        "2:tamper:0.7",
        "1:accuse",
        "3:overcharge:2.0",
    ]

    def _golden(self):
        with open(self.GOLDEN, encoding="utf-8") as fh:
            return fh.read()

    def test_batched_trace_matches_golden_bytes(self):
        batched = run_population(
            4, 6, seed=11, deviants=self.SPECS, trace=True, use_batch=True
        )
        assert events_to_jsonl(batched.events) == self._golden()

    def test_golden_bytes_jobs_independent(self):
        golden = self._golden()
        for jobs in (1, 2):
            result = run_population(
                4,
                6,
                seed=11,
                deviants=self.SPECS,
                trace=True,
                use_batch=True,
                jobs=jobs,
            )
            assert events_to_jsonl(result.events) == golden

    def test_golden_trace_is_deviant_heavy(self):
        from repro.obs.tracer import read_trace

        events = read_trace(self.GOLDEN)
        kinds = {e.kind for e in events}
        assert {"grievance", "fine", "audit", "ledger_transfer"} <= kinds
        assert sum(1 for e in events if e.kind == "grievance") >= 5


class TestX8CoalitionReplay:
    """The X8 shedder/silent-victim coalition replays identically on the
    lane engine — surpluses, betrayal payoffs, verdicts, all bitwise."""

    def test_x8_bitwise_equal(self):
        from repro.experiments.exp_x8_collusion import run_x8_collusion

        scalar = run_x8_collusion()
        batched = run_x8_collusion(use_batch=True)
        assert scalar.passed and batched.passed
        assert [t.rows for t in scalar.tables] == [t.rows for t in batched.tables]
