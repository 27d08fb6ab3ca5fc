"""Tests for the concurrent delivery engine and its ICL integration.

The load-bearing property throughout: with interchangeable backends the
outcome map — and therefore the ICL table — is a pure function of the
request set, whatever the thread schedule, fault schedule, hedge winners,
or resume point.
"""

import threading

import pytest

from repro.core.datasets import build_task_dataset
from repro.delivery import (
    DeliveryBackend,
    DeliveryConfig,
    DeliveryEngine,
    DeliveryError,
    DeliveryRequest,
    ResponseCache,
    simulated_backends,
)
from repro.llm.client import ChatClientError, EchoClient
from repro.llm.icl import (
    ICLConfig,
    _draw_examples,
    build_icl_queries,
    parse_response,
    run_icl_experiment,
)
from repro.llm.prompts import PromptVariant, render_prompt
from repro.llm.simulated import (
    GPT4_PROFILE,
    GPT35_PROFILE,
    SimulatedChatModel,
    truth_table,
)
from repro.ontology.synthesis import SynthesisConfig, synthesize_chebi_like
from repro.obs.manifest import clear_context
from repro.resilience.checkpoint import CheckpointAbort, Journal
from repro.resilience.faults import FaultClock
from repro.resilience.retry import CircuitBreaker, RetryPolicy
from repro.utils.rng import derive_rng


@pytest.fixture(scope="module")
def icl_setup():
    ontology = synthesize_chebi_like(
        SynthesisConfig(n_chemical_entities=120, seed=0)
    )
    dataset = build_task_dataset(ontology, 1, seed=0)
    config = ICLConfig(
        n_positive_queries=4, n_negative_queries=4, n_repeats=2, seed=0
    )
    return {
        "dataset": dataset,
        "truth": truth_table(dataset),
        "pool": list(dataset)[:100],
        "queries": build_icl_queries(dataset, config),
        "config": config,
    }


@pytest.fixture(autouse=True)
def _clean_run_context():
    """Resumed runs write process-global manifest context; isolate tests."""
    clear_context()
    yield
    clear_context()


@pytest.fixture
def oracle(icl_setup, tmp_path):
    """The table of the old sequential loop, as the reference.

    Repeat ``r`` of every prompt is asked for with ``complete_indexed`` in
    repeat-major order, outside any engine.  The parsed answers are
    journaled, so ``run_icl_experiment`` resumes all of them and only
    scores the table.
    """
    client = SimulatedChatModel(GPT35_PROFILE, icl_setup["truth"], 1, seed=0)
    config, pool = icl_setup["config"], icl_setup["pool"]
    pos = [t for t in pool if t.label == 1]
    neg = [t for t in pool if t.label == 0]
    journal = tmp_path / "oracle.journal"
    with Journal(journal) as answers:
        for q, query in enumerate(icl_setup["queries"]):
            examples = _draw_examples(
                pos, neg, query, config.n_examples_per_class,
                derive_rng(config.seed, "icl-examples", q),
            )
            prompt = render_prompt(
                *examples, query, variant=PromptVariant.BASE,
                seed=derive_rng(config.seed, "icl-order", q),
            )
            for r in range(config.n_repeats):
                text = client.complete_indexed(prompt, r)
                answers.record(f"{r}:{q}", parse_response(text))
    result = run_icl_experiment(
        client, pool, icl_setup["queries"], PromptVariant.BASE, config,
        journal=journal,
    )
    assert result.n_resumed == config.n_repeats * len(icl_setup["queries"])
    clear_context()
    return result


def _engine_result(icl_setup, engine, **kwargs):
    client = SimulatedChatModel(GPT35_PROFILE, icl_setup["truth"], 1, seed=0)
    return run_icl_experiment(
        client,
        icl_setup["pool"],
        icl_setup["queries"],
        PromptVariant.BASE,
        icl_setup["config"],
        engine=engine,
        **kwargs,
    )


def _backends(icl_setup, n=3, **kwargs):
    return simulated_backends(
        GPT35_PROFILE, icl_setup["truth"], 1, n_backends=n, seed=0, **kwargs
    )


class _AlwaysFailing(EchoClient):
    def complete_indexed(self, prompt, repeat, *, timeout_s=None):
        raise ChatClientError("down", retryable=True, kind="network")


class TestEngineBasics:
    def test_requires_backends_with_unique_names(self):
        with pytest.raises(ValueError):
            DeliveryEngine([])
        pair = [
            DeliveryBackend("dup", EchoClient()),
            DeliveryBackend("dup", EchoClient()),
        ]
        with pytest.raises(ValueError):
            DeliveryEngine(pair)

    def test_complete_returns_text(self):
        with DeliveryEngine([DeliveryBackend("b0", EchoClient())]) as engine:
            assert engine.complete("any prompt") == "True"

    def test_complete_raises_typed_error_on_failure(self):
        with DeliveryEngine(
            [DeliveryBackend("b0", _AlwaysFailing())]
        ) as engine:
            with pytest.raises(DeliveryError) as exc:
                engine.complete("any prompt")
        assert exc.value.outcome.status == "failed"
        assert exc.value.retryable is False

    def test_shed_when_every_breaker_is_open(self):
        clock = FaultClock()
        breaker = CircuitBreaker(failure_threshold=1, clock=clock)
        breaker.record_failure()
        engine = DeliveryEngine(
            [DeliveryBackend("b0", EchoClient(), breaker=breaker, clock=clock)]
        )
        outcome = engine.deliver(DeliveryRequest(key="k", prompt="p"))
        assert outcome.status == "shed"
        assert engine.counters().get("shed") == 1

    def test_deadline_outcome_without_burning_the_schedule(self):
        clock = FaultClock()
        backend = DeliveryBackend(
            "b0",
            _AlwaysFailing(),
            retry=RetryPolicy(
                max_attempts=5, base_delay=10.0, clock=clock, seed=0
            ),
            clock=clock,
        )
        engine = DeliveryEngine(
            [backend], DeliveryConfig(deadline_s=0.5)
        )
        outcome = engine.deliver(DeliveryRequest(key="k", prompt="p"))
        assert outcome.status == "deadline"
        assert engine.counters() == {"deliveries": 1, "deadline": 1}

    def test_hedge_delay_is_seeded_and_jittered(self):
        engine = DeliveryEngine(
            [DeliveryBackend("b0", EchoClient())],
            DeliveryConfig(hedge_s=0.1, hedge_jitter=0.5, seed=7),
        )
        delays = [engine.hedge_delay_s(i) for i in range(20)]
        assert delays == [engine.hedge_delay_s(i) for i in range(20)]
        assert all(0.05 <= d <= 0.15 for d in delays)
        assert len(set(delays)) > 1


class _BlockingClient(EchoClient):
    """Blocks indexed calls on an event — a controllable straggler."""

    def __init__(self, release: threading.Event):
        super().__init__("primary answer")
        self.release = release

    def complete_indexed(self, prompt, repeat, *, timeout_s=None):
        assert self.release.wait(timeout=30), "test straggler never released"
        return super().complete_indexed(prompt, repeat)


class TestHedging:
    def test_hedge_wins_and_counts_once(self):
        release = threading.Event()
        primary = DeliveryBackend("slow", _BlockingClient(release))
        secondary = DeliveryBackend("fast", EchoClient("hedge answer"))
        engine = DeliveryEngine(
            [primary, secondary],
            DeliveryConfig(hedge_s=0.02, hedge_jitter=0.0),
        )
        try:
            outcome = engine.deliver(DeliveryRequest(key="k", prompt="p"))
            assert outcome.ok
            assert outcome.text == "hedge answer"
            assert outcome.backend == "fast"
            assert outcome.hedged
            counters = engine.counters()
            assert counters["hedged"] == 1
            assert counters["deliveries"] == 1
            assert counters["completions"] == 1
        finally:
            release.set()
            engine.close()

    def test_hedged_failure_surfaces_last_error(self):
        engine = DeliveryEngine(
            [
                DeliveryBackend("a", _AlwaysFailing()),
                DeliveryBackend("b", _AlwaysFailing()),
            ],
            DeliveryConfig(hedge_s=0.0, hedge_jitter=0.0),
        )
        try:
            outcome = engine.deliver(DeliveryRequest(key="k", prompt="p"))
            assert outcome.status == "failed"
        finally:
            engine.close()


class TestResponseCaching:
    def test_run_serves_warm_requests_from_cache(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        requests = [
            DeliveryRequest(key=str(i), prompt=f"prompt {i}", index=i)
            for i in range(6)
        ]
        with DeliveryEngine(
            [DeliveryBackend("b0", EchoClient())], cache=cache
        ) as engine:
            first = engine.run(requests)
        assert first.delivered == 6 and first.cache_hits == 0
        with DeliveryEngine(
            [DeliveryBackend("b0", EchoClient())], cache=cache
        ) as engine:
            second = engine.run(requests)
        assert second.delivered == 0 and second.cache_hits == 6
        assert {key: o.text for key, o in second.outcomes.items()} == {
            key: o.text for key, o in first.outcomes.items()
        }

    def test_failures_are_not_cached(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        with DeliveryEngine(
            [DeliveryBackend("b0", _AlwaysFailing())], cache=cache
        ) as engine:
            engine.run([DeliveryRequest(key="k", prompt="p")])
        assert cache.get(EchoClient().name, "p", 0) is None
        assert cache.get("EchoClient", "p", 0) is None

    def test_cache_hits_do_not_consume_the_budget(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        requests = [
            DeliveryRequest(key=str(i), prompt=f"prompt {i}", index=i)
            for i in range(4)
        ]
        with DeliveryEngine(
            [DeliveryBackend("b0", EchoClient())], cache=cache
        ) as engine:
            engine.run(requests[:2])
        with DeliveryEngine(
            [DeliveryBackend("b0", EchoClient())], cache=cache
        ) as engine:
            report = engine.run(requests, max_deliveries=2)
        assert report.cache_hits == 2
        assert report.delivered == 2
        assert report.skipped == 0


class TestEngineMatchesSequential:
    def test_concurrent_table_is_byte_identical(self, icl_setup, oracle):
        with DeliveryEngine(
            _backends(icl_setup, n=3), DeliveryConfig(jobs=4)
        ) as engine:
            concurrent = _engine_result(icl_setup, engine)
        assert concurrent.as_row() == oracle.as_row()

    def test_faulted_concurrent_table_is_byte_identical(self, icl_setup, oracle):
        retry = RetryPolicy(base_delay=0.01, clock=FaultClock(), seed=0)
        backends = _backends(
            icl_setup,
            n=3,
            fault_plan_text="timeout:0.15,http500:0.1,malformed:0.05",
            retry=retry,
        )
        with DeliveryEngine(
            backends, DeliveryConfig(jobs=4, hedge_s=0.05)
        ) as engine:
            faulted = _engine_result(icl_setup, engine)
        assert faulted.as_row() == oracle.as_row()

    def test_kill_and_resume_matches_sequential(
        self, icl_setup, tmp_path, oracle
    ):
        journal = tmp_path / "icl.journal"
        with DeliveryEngine(
            _backends(icl_setup, n=3), DeliveryConfig(jobs=4)
        ) as engine:
            with pytest.raises(CheckpointAbort) as abort:
                _engine_result(
                    icl_setup, engine, journal=journal, max_deliveries=5
                )
        assert abort.value.delivered == 5
        assert len(Journal(journal).load()) == 5 + 1  # + __meta__
        with DeliveryEngine(
            _backends(icl_setup, n=3), DeliveryConfig(jobs=4)
        ) as engine:
            resumed = _engine_result(icl_setup, engine, journal=journal)
        assert resumed.n_resumed == 5
        assert resumed.as_row() == oracle.as_row()

    def test_warm_cache_rerun_rebuilds_nothing(
        self, icl_setup, tmp_path, oracle
    ):
        cache = ResponseCache(tmp_path / "cache")
        with DeliveryEngine(
            _backends(icl_setup, n=2), DeliveryConfig(jobs=4), cache=cache
        ) as engine:
            cold = _engine_result(icl_setup, engine)
            cold_counters = engine.counters()
        with DeliveryEngine(
            _backends(icl_setup, n=2), DeliveryConfig(jobs=4), cache=cache
        ) as engine:
            warm = _engine_result(icl_setup, engine)
            warm_counters = engine.counters()
        n_deliveries = cold_counters["deliveries"]
        assert warm_counters == {"cache_hit": n_deliveries}
        assert "completions" not in warm_counters
        assert warm.as_row() == oracle.as_row()
        assert cold.as_row() == oracle.as_row()


class TestEngineIdentity:
    def test_engine_for_another_model_is_rejected(self, icl_setup, tmp_path):
        journal = tmp_path / "icl.journal"
        gpt4 = simulated_backends(GPT4_PROFILE, icl_setup["truth"], 1, seed=0)
        with DeliveryEngine(gpt4) as engine:
            assert engine.model == "gpt-4"
            with pytest.raises(ValueError, match="gpt-4.*gpt-3.5-turbo"):
                _engine_result(icl_setup, engine, journal=journal)
            assert engine.counters() == {}
        assert not journal.exists()

    def test_engine_model_is_the_client_name_by_default(self, icl_setup):
        client = SimulatedChatModel(GPT35_PROFILE, icl_setup["truth"], 1)
        for backends in (
            _backends(icl_setup, n=2, latency_s=0.0),
            _backends(icl_setup, n=1, fault_plan_text="timeout:0.1"),
            _backends(icl_setup, n=1, latency_s=0.001),
        ):
            with DeliveryEngine(backends) as engine:
                assert engine.model == client.name


class TestJournalUnderConcurrency:
    def test_concurrent_appends_replay_to_one_map(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl", sync=False)
        entries = {f"{r}:{q}": "true" for r in range(4) for q in range(25)}

        def write(keys):
            for key in keys:
                journal.record(key, entries[key])

        keys = sorted(entries)
        chunks = [keys[i::8] for i in range(8)]
        threads = [
            threading.Thread(target=write, args=(chunk,)) for chunk in chunks
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        journal.close()
        assert journal.load() == entries

    @pytest.mark.parametrize("seed", range(5))
    def test_append_order_never_changes_the_replay(self, tmp_path, seed):
        # Property over seeded schedules: any permutation of the appends a
        # worker pool could produce loads to the same state.
        entries = {f"0:{q}": ("true" if q % 3 else "failed") for q in range(30)}
        order = list(entries)
        derive_rng(seed, "journal-order").shuffle(order)
        journal = Journal(tmp_path / f"j{seed}.jsonl", sync=False)
        for key in order:
            journal.record(key, entries[key])
        journal.close()
        assert journal.load() == entries


class TestICLParadigmEngine:
    def test_engine_path_matches_client_path(self, icl_setup):
        from repro.core.paradigms import ICLParadigm

        triples = icl_setup["pool"][:6]
        train = icl_setup["pool"][6:60]
        direct = ICLParadigm(
            SimulatedChatModel(GPT35_PROFILE, icl_setup["truth"], 1, seed=0),
            seed=0,
        ).fit(train)
        expected = direct.classify(triples)
        with DeliveryEngine(_backends(icl_setup, n=2)) as engine:
            routed = ICLParadigm(
                SimulatedChatModel(
                    GPT35_PROFILE, icl_setup["truth"], 1, seed=0
                ),
                seed=0,
                engine=engine,
            ).fit(train)
            assert routed.classify(triples) == expected

    def test_engine_failure_degrades_to_none(self, icl_setup):
        from repro.core.paradigms import ICLParadigm

        train = icl_setup["pool"][6:60]
        with DeliveryEngine([DeliveryBackend("b0", _AlwaysFailing())]) as engine:
            paradigm = ICLParadigm(
                _AlwaysFailing(), seed=0, engine=engine
            ).fit(train)
            labels = paradigm.classify(icl_setup["pool"][:3])
        assert labels == [None, None, None]
