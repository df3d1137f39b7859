"""Integration tests for the observability layer: trace determinism
across jobs counts, the golden DLS-LBL, DLS-LIL, star and tree traces,
worker metrics merging, and the ``run`` / ``trace summarize`` CLI."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.cli import main
from repro.mechanism.population import run_population
from repro.obs.metrics import get_registry
from repro.obs.tracer import Tracer, events_to_jsonl, read_trace

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
GOLDEN = os.path.join(DATA, "golden_trace_m2_shed.jsonl")

#: Golden file -> the traced solo row that wrote it
#: (topology, m, seed, audit probability, deviant).
GOLDEN_ROWS = {
    # An overcharging star child, audited with certainty and fined.
    "golden_trace_star_overcharge.jsonl": ("star", 4, 3, 1.0, "2:overcharge"),
    # A misbidding tree node: the tree's "payment" memos, no audits.
    "golden_trace_tree_misbid.jsonl": ("tree", 4, 1, 1.0, "2:misbid"),
}


@pytest.fixture(autouse=True)
def _clean_registry():
    get_registry().reset()
    yield
    get_registry().reset()


def _shed_run_events() -> list:
    from repro.agents import LoadSheddingAgent, TruthfulAgent
    from repro.mechanism.dls_lbl import DLSLBLMechanism

    tracer = Tracer()
    agents = [LoadSheddingAgent(1, 2.0, shed_fraction=0.5), TruthfulAgent(2, 3.0)]
    mech = DLSLBLMechanism(
        [0.5, 0.7],
        1.5,
        agents,
        audit_probability=0.5,
        rng=np.random.default_rng(2024),
        tracer=tracer,
    )
    outcome = mech.run()
    assert outcome.completed
    return tracer.events


class TestGoldenTrace:
    def test_three_processor_shed_run_matches_golden(self):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = fh.read()
        assert events_to_jsonl(_shed_run_events()) == golden

    def test_golden_trace_fines_the_shedding_agent(self):
        events = read_trace(GOLDEN)
        fines = [e for e in events if e.kind == "fine"]
        assert len(fines) == 1
        assert fines[0].attrs["proc"] == 1
        assert fines[0].attrs["source"] == "grievance"
        assert fines[0].attrs["amount"] > 0
        grievances = [e for e in events if e.kind == "grievance"]
        assert grievances and grievances[0].attrs["substantiated"] is True
        # Ledger transfers mirror the court's fine and reward.
        memos = {e.attrs["memo"] for e in events if e.kind == "ledger_transfer"}
        assert "grievance fine (overload)" in memos
        assert "grievance reward (overload)" in memos


def _lil_shed_events() -> list:
    """DLS-LIL with the root at chain position 2 of 0..5 and the right
    arm's head shedding half its forward load onto its successor."""
    from repro.agents import LoadSheddingAgent, TruthfulAgent
    from repro.mechanism.dls_lil import DLSLILMechanism

    w = [2.0, 3.0, 2.5, 4.0, 1.5, 2.2]
    agents = [TruthfulAgent(i, rate) for i, rate in enumerate(w) if i != 2]
    agents[2] = LoadSheddingAgent(3, w[3], shed_fraction=0.5)
    tracer = Tracer()
    outcome = DLSLILMechanism(
        [0.5, 0.3, 0.7, 0.2, 0.4], 2, w[2], agents,
        audit_probability=0.5, rng=np.random.default_rng(2024), tracer=tracer,
    ).run()
    assert outcome.completed
    return tracer.events


class TestGoldenRowTraces:
    def test_interior_shed_run_matches_golden(self):
        with open(os.path.join(DATA, "golden_trace_lil_shed.jsonl"), encoding="utf-8") as fh:
            assert events_to_jsonl(_lil_shed_events()) == fh.read()

    def test_lil_golden_fines_the_shedder_by_grievance(self):
        events = read_trace(os.path.join(DATA, "golden_trace_lil_shed.jsonl"))
        [grievance] = [e for e in events if e.kind == "grievance"]
        assert grievance.attrs["accused"] == 3 and grievance.attrs["substantiated"]
        assert [(f.attrs["proc"], f.attrs["source"]) for f in events if f.kind == "fine"] == [
            (3, "grievance")
        ]
        assert sum(e.kind == "audit" for e in events) == 5


    @pytest.mark.parametrize("name", sorted(GOLDEN_ROWS))
    def test_row_trace_matches_golden(self, name):
        from repro.mechanism.rows import solo_row

        _fields, events = solo_row(*GOLDEN_ROWS[name], trace=True)
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            assert events_to_jsonl(events) == fh.read()

    def test_star_golden_fines_the_overcharger_by_audit(self):
        events = read_trace(os.path.join(DATA, "golden_trace_star_overcharge.jsonl"))
        fines = [e for e in events if e.kind == "fine"]
        assert [(f.attrs["proc"], f.attrs["source"]) for f in fines] == [(2, "audit")]
        assert sum(e.kind == "audit" for e in events) == 4

    def test_tree_golden_pays_through_payment_memos(self):
        events = read_trace(os.path.join(DATA, "golden_trace_tree_misbid.jsonl"))
        memos = {e.attrs["memo"] for e in events if e.kind == "ledger_transfer"}
        assert memos <= {"root reimbursement", "payment", "payment (negative)"}
        assert not [e for e in events if e.kind in ("audit", "fine", "grievance")]


class TestTraceDeterminism:
    def test_repeated_invocations_are_byte_identical(self):
        first = run_population(3, 4, seed=11, deviant="2:shed:0.5", trace=True)
        second = run_population(3, 4, seed=11, deviant="2:shed:0.5", trace=True)
        assert events_to_jsonl(first.events) == events_to_jsonl(second.events)

    def test_jobs_1_vs_jobs_2_traces_match(self):
        serial = run_population(3, 4, seed=11, jobs=1, deviant="2:shed:0.5", trace=True)
        pooled = run_population(3, 4, seed=11, jobs=2, deviant="2:shed:0.5", trace=True)
        assert events_to_jsonl(serial.events) == events_to_jsonl(pooled.events)
        assert serial.runs == pooled.runs

    def test_wall_clock_never_enters_the_trace(self):
        result = run_population(2, 2, seed=0, trace=True)
        for event in result.events:
            for bound in (event.t0, event.t1):
                # Simulated makespans are tiny; a perf_counter leak would
                # show up as a huge timestamp.
                assert bound is None or 0.0 <= bound < 1e3


class TestWorkerMetricsMerge:
    def test_pool_counters_match_serial(self):
        get_registry().reset()
        run_population(3, 4, seed=5, jobs=1)
        serial = get_registry().snapshot()["counters"]
        get_registry().reset()
        run_population(3, 4, seed=5, jobs=2)
        pooled = get_registry().snapshot()["counters"]
        for name in ("crypto.signatures_created", "crypto.verifications_performed",
                     "mechanism.runs", "ledger.transfers", "sim.events_executed"):
            assert serial[name] == pooled[name] > 0, name

    def test_experiment_runner_pool_counters_match_serial(self):
        from repro.experiments.runner import run_experiments

        get_registry().reset()
        run_experiments(["P2"], jobs=1)
        serial = get_registry().counter("crypto.signatures_created")
        get_registry().reset()
        runs = run_experiments(["P2"], jobs=2)
        pooled = get_registry().counter("crypto.signatures_created")
        assert serial == pooled > 0
        assert runs[0].metrics["counters"]["crypto.signatures_created"] == serial


class TestCli:
    def test_run_and_summarize(self, tmp_path, capsys):
        trace_path = str(tmp_path / "out.jsonl")
        metrics_path = str(tmp_path / "metrics.json")
        rc = main(
            [
                "run", "--m", "3", "--count", "3", "--seed", "9",
                "--deviant", "2:shed:0.5",
                "--trace", trace_path, "--metrics", metrics_path,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 runs" in out

        report = json.loads(open(metrics_path).read())
        assert report["counters"]["mechanism.runs"] == 3
        assert "perf.mechanism" in report["histograms"]

        rc = main(["trace", "summarize", trace_path, "--metrics", metrics_path])
        assert rc == 0
        out = capsys.readouterr().out
        # The summary covers phases, fines, ledger and crypto sections.
        for needle in ("phase_1", "phase_4", "fines", "ledger:", "crypto:", "mechanism wall-clock"):
            assert needle in out, needle

    def test_run_trace_is_deterministic_across_cli_jobs(self, tmp_path, capsys):
        paths = []
        for jobs in ("1", "2"):
            path = str(tmp_path / f"out{jobs}.jsonl")
            rc = main(["run", "--m", "2", "--count", "3", "--seed", "4", "--jobs", jobs, "--trace", path])
            assert rc == 0
            paths.append(path)
        capsys.readouterr()
        with open(paths[0]) as a, open(paths[1]) as b:
            assert a.read() == b.read()

    def test_run_rejects_bad_deviant(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--m", "2", "--count", "1", "--deviant", "1:warp"])


class TestTopologyTracing:
    """Tracer support on the star/tree mechanisms and the multiround sim."""

    def _star(self, tracer=None):
        from repro.agents import TruthfulAgent
        from repro.mechanism.star_mechanism import StarMechanism

        agents = [TruthfulAgent(i, r) for i, r in enumerate([2.0, 3.0, 2.5], start=1)]
        return StarMechanism(
            [0.5, 0.7, 0.6], 1.5, agents,
            audit_probability=1.0, rng=np.random.default_rng(0), tracer=tracer,
        )

    def test_star_run_span_and_events(self):
        tracer = Tracer()
        outcome = self._star(tracer).run()
        assert outcome.completed
        kinds = [e.kind for e in tracer.events]
        run_span = tracer.events[0]
        assert run_span.kind == "run"
        assert run_span.attrs["topology"] == "star"
        assert run_span.attrs["completed"] is True
        assert "audit" in kinds and "ledger_transfer" in kinds
        # nested under the run span
        assert all(e.parent == run_span.id for e in tracer.events[1:])

    def test_star_traced_run_identical_to_untraced(self):
        traced = self._star(Tracer()).run()
        plain = self._star().run()
        assert np.array_equal(traced.assigned, plain.assigned)
        assert traced.makespan == plain.makespan
        assert traced.ledger.entries == plain.ledger.entries

    def test_star_counter_is_distinct_from_chain_runs(self):
        registry = get_registry()
        self._star().run()
        snapshot = registry.snapshot()
        assert snapshot["counters"].get("mechanism.star_runs") == 1.0
        assert "mechanism.runs" not in snapshot["counters"]

    def test_star_abort_emits_fine_event(self):
        from repro.agents import ContradictoryBidAgent, TruthfulAgent
        from repro.mechanism.star_mechanism import StarMechanism

        tracer = Tracer()
        agents = [ContradictoryBidAgent(1, 2.0), TruthfulAgent(2, 3.0)]
        mech = StarMechanism(
            [0.5, 0.7], 1.5, agents, rng=np.random.default_rng(0), tracer=tracer
        )
        outcome = mech.run()
        assert not outcome.completed
        fines = [e for e in tracer.events if e.kind == "fine"]
        assert fines and fines[0].attrs["source"] == "root"
        assert tracer.events[0].attrs["completed"] is False

    def test_tree_run_span_and_ledger_events(self):
        from repro.agents import TruthfulAgent
        from repro.mechanism.tree_mechanism import TreeMechanism
        from repro.network.topology import TreeNetwork, TreeNode

        tracer = Tracer()
        tree = TreeNetwork(
            TreeNode(1.5, children=[TreeNode(2.0, link=0.5), TreeNode(2.5, link=0.6)])
        )
        agents = [TruthfulAgent(1, 2.0), TruthfulAgent(2, 2.5)]
        outcome = TreeMechanism(tree, agents, tracer=tracer).run()
        run_span = tracer.events[0]
        assert run_span.attrs["topology"] == "tree"
        assert run_span.attrs["makespan"] == outcome.makespan
        assert any(e.kind == "ledger_transfer" for e in tracer.events)
        assert get_registry().snapshot()["counters"].get("mechanism.tree_runs") == 1.0

    def test_multiround_bridges_sim_intervals(self):
        from repro.dlt.multiround import multiround_makespan
        from repro.network.topology import StarNetwork

        net = StarNetwork(np.array([1.5, 2.0, 3.0]), np.array([0.4, 0.6]))
        tracer = Tracer()
        makespan, _result = multiround_makespan(net, 3, startup=0.01, tracer=tracer)
        plain_makespan, _ = multiround_makespan(net, 3, startup=0.01)
        assert makespan == plain_makespan
        span = tracer.events[0]
        assert span.kind == "multiround"
        assert span.attrs["rounds"] == 3
        assert span.attrs["makespan"] == makespan
        intervals = [e for e in tracer.events if e.kind == "sim_interval"]
        assert intervals and all(e.parent == span.id for e in intervals)
