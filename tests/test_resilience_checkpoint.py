"""Tests for the checkpoint journal and ICL kill-and-resume behaviour."""

import json

import pytest

from repro.core.datasets import train_test_split_9_1
from repro.delivery import DeliveryBackend, DeliveryEngine
from repro.llm.client import ChatClient, ChatClientError, EchoClient
from repro.llm.icl import (
    ICLConfig,
    build_icl_queries,
    run_icl_experiment,
)
from repro.llm.prompts import PromptVariant
from repro.llm.simulated import GPT4_PROFILE, SimulatedChatModel, truth_table
from repro.obs.manifest import build_manifest, clear_context
from repro.resilience.checkpoint import CheckpointAbort, Journal
from repro.resilience.faults import FaultClock, FaultPlan, FaultyClient
from repro.resilience.retry import RetryPolicy

SMALL = ICLConfig(
    n_positive_queries=15,
    n_negative_queries=15,
    n_repeats=3,
    seed=0,
)


@pytest.fixture(autouse=True)
def _clean_run_context():
    """Resume runs write process-global manifest context; isolate tests."""
    clear_context()
    yield
    clear_context()


class CountingClient(ChatClient):
    """Echoes 'True'; records every (prompt, repeat) it is asked for."""

    def __init__(self):
        self.deliveries = []

    @property
    def completions(self) -> int:
        return len(self.deliveries)

    def complete_indexed(self, prompt, repeat, *, timeout_s=None):
        self.deliveries.append((prompt, repeat))
        return "True"


class FailingClient(ChatClient):
    """An endpoint that is down until ``healthy`` is flipped."""

    def __init__(self, healthy: bool = False):
        self.healthy = healthy

    def complete_indexed(self, prompt, repeat, *, timeout_s=None):
        if self.healthy:
            return "True"
        raise ChatClientError("endpoint is down", status=503, retryable=True,
                              kind="http")


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.record("0:0", "true")
            journal.record("0:1", "false")
            journal.record("__meta__", {"model": "m"})
        assert Journal(path).load() == {
            "0:0": "true", "0:1": "false", "__meta__": {"model": "m"},
        }

    def test_missing_file_loads_empty(self, tmp_path):
        assert Journal(tmp_path / "absent.jsonl").load() == {}

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.record("a", "true")
            journal.record("b", "false")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "c", "val')  # crash mid-append
        assert Journal(path).load() == {"a": "true", "b": "false"}

    def test_non_record_line_stops_load(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"key": "a", "value": 1}) + "\n")
            handle.write(json.dumps(["not", "a", "record"]) + "\n")
            handle.write(json.dumps({"key": "b", "value": 2}) + "\n")
        assert Journal(path).load() == {"a": 1}

    def test_wipe(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.record("a", 1)
        journal.wipe()
        assert not path.exists()
        assert journal.load() == {}
        journal.wipe()  # idempotent

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "j.jsonl"
        with Journal(path) as journal:
            journal.record("a", 1)
        assert Journal(path).load() == {"a": 1}


class TestICLCheckpointResume:
    def run(self, client, dataset, **kwargs):
        split = train_test_split_9_1(dataset, seed=0)
        queries = build_icl_queries(dataset, SMALL)
        return run_icl_experiment(
            client, list(split.train), queries, PromptVariant.BASE, SMALL,
            **kwargs,
        )

    def test_completed_journal_skips_every_delivery(self, tmp_path, task1_dataset):
        journal = tmp_path / "icl.jsonl"
        first = CountingClient()
        self.run(first, task1_dataset, journal=journal)
        assert first.completions == 90
        # 30 prompts, each asked for at repeats 0, 1 and 2 exactly once.
        assert len(set(first.deliveries)) == 90
        assert sorted(r for _, r in first.deliveries) == [0] * 30 + [1] * 30 + [2] * 30

        second = CountingClient()
        result = self.run(second, task1_dataset, journal=journal)
        assert second.completions == 0
        assert result.n_resumed == 90

    def test_kill_and_resume_matches_uninterrupted(self, tmp_path, task1_dataset):
        client = SimulatedChatModel(
            GPT4_PROFILE, truth_table(task1_dataset), 1, seed=0
        )
        baseline = self.run(client, task1_dataset)

        journal = tmp_path / "icl.jsonl"
        killed = SimulatedChatModel(
            GPT4_PROFILE, truth_table(task1_dataset), 1, seed=0
        )
        with pytest.raises(CheckpointAbort) as exc:
            self.run(killed, task1_dataset, journal=journal, max_deliveries=37)
        assert exc.value.delivered == 37
        assert exc.value.journal_path == str(journal)

        resumed_client = SimulatedChatModel(
            GPT4_PROFILE, truth_table(task1_dataset), 1, seed=0
        )
        resumed = self.run(resumed_client, task1_dataset, journal=journal)
        assert resumed.n_resumed == 37
        assert resumed.accuracy_mean == baseline.accuracy_mean
        assert resumed.kappa == baseline.kappa
        assert resumed.f1_mean == baseline.f1_mean
        assert resumed.n_unclassified == baseline.n_unclassified

    def test_mismatched_journal_rejected(self, tmp_path, task1_dataset):
        journal = tmp_path / "icl.jsonl"
        self.run(EchoClient("True"), task1_dataset, journal=journal)
        with pytest.raises(ValueError, match="different experiment"):
            self.run(CountingClient(), task1_dataset, journal=journal)

    def test_resume_recorded_in_manifest_context(self, tmp_path, task1_dataset):
        journal = tmp_path / "icl.jsonl"
        with pytest.raises(CheckpointAbort):
            self.run(CountingClient(), task1_dataset, journal=journal,
                     max_deliveries=10)
        self.run(CountingClient(), task1_dataset, journal=journal)
        context = build_manifest()["context"]
        assert context["resumed"] is True
        assert context["resumed_deliveries"] == 10
        assert context["resume_journal"] == str(journal)

    def test_fresh_run_leaves_no_resume_context(self, tmp_path, task1_dataset):
        self.run(CountingClient(), task1_dataset,
                 journal=tmp_path / "icl.jsonl")
        assert "resumed" not in build_manifest()["context"]


class TestGracefulDegradation:
    def run(self, client, dataset, **kwargs):
        split = train_test_split_9_1(dataset, seed=0)
        queries = build_icl_queries(dataset, SMALL)
        return run_icl_experiment(
            client, list(split.train), queries, PromptVariant.BASE, SMALL,
            **kwargs,
        )

    def test_dead_endpoint_degrades_not_crashes(self, task1_dataset):
        result = self.run(FailingClient(), task1_dataset)
        assert result.n_failed == 90
        assert result.n_unclassified == 90
        assert result.accuracy_mean == 0.0

    def test_failed_outcomes_survive_resume(self, tmp_path, task1_dataset):
        journal = tmp_path / "icl.jsonl"
        with pytest.raises(CheckpointAbort):
            self.run(FailingClient(), task1_dataset, journal=journal,
                     max_deliveries=20)
        # The healed endpoint answers the rest; journaled failures persist.
        result = self.run(FailingClient(healthy=True), task1_dataset,
                          journal=journal)
        assert result.n_resumed == 20
        assert result.n_failed == 20

    def test_error_faults_with_retry_are_invisible(self, task1_dataset):
        """Retryable injected faults leave the table byte-identical."""
        baseline_client = SimulatedChatModel(
            GPT4_PROFILE, truth_table(task1_dataset), 1, seed=0
        )
        baseline = self.run(baseline_client, task1_dataset)

        inner = SimulatedChatModel(
            GPT4_PROFILE, truth_table(task1_dataset), 1, seed=0
        )
        plan = FaultPlan.parse("timeout:0.1,http500:0.05,malformed:0.05", seed=4)
        faulty = FaultyClient(inner, plan)
        retry = RetryPolicy(base_delay=0.01, clock=FaultClock(), seed=0)
        with DeliveryEngine(
            [DeliveryBackend(faulty.name, faulty, retry=retry)]
        ) as engine:
            result = self.run(faulty, task1_dataset, engine=engine)

        assert sum(faulty.injected.values()) > 0  # faults actually fired
        assert result.n_failed == 0
        assert result.accuracy_mean == baseline.accuracy_mean
        assert result.kappa == baseline.kappa
        assert result.f1_mean == baseline.f1_mean
        assert result.precision_mean == baseline.precision_mean
        assert result.recall_mean == baseline.recall_mean

    def test_corruption_faults_degrade_gracefully(self, task1_dataset):
        inner = EchoClient("True")
        faulty = FaultyClient(inner, FaultPlan.parse("garbage:0.2", seed=1))
        result = self.run(faulty, task1_dataset)
        # Garbage completions parse as unclassified, not crashes.
        assert result.n_unclassified > 0
        assert result.n_failed == 0
