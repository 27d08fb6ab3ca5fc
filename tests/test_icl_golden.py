"""Golden digests of a micro Table 5 grid.

Every ICL completion is delivered through ``DeliveryEngine``.  These digests
pin the table rows (``ICLResult.as_row()``) of a 3 tasks x 3 models x 3
prompt variants grid, 30 queries x 5 repeats each, seed 1.  The fault-free
and error-fault digests were computed before the engine became the only
delivery path, by the earlier sequential loop (each simulator counting the
repeats of a prompt itself, ``RetryPolicy`` applied around the client).
They must stay equal: the repeat index assignment, and therefore Table 5's
Fleiss' kappa, did not move.

The corruption-fault digest was computed by the one-backend ``jobs=1``
engine.  The sequential loop drew corruption faults from a global call
index, so its tables differed; the engine draws them per delivery.
"""

import hashlib
import json

import pytest

from repro.core.datasets import build_task_dataset, train_test_split_9_1
from repro.delivery import DeliveryBackend, DeliveryConfig, DeliveryEngine
from repro.llm.icl import ICLConfig, build_icl_queries, run_icl_experiment
from repro.llm.prompts import PromptVariant
from repro.llm.simulated import (
    BIOGPT_PROFILE,
    GPT35_PROFILE,
    GPT4_PROFILE,
    SimulatedChatModel,
    truth_table,
)
from repro.ontology.synthesis import SynthesisConfig, synthesize_chebi_like
from repro.resilience.faults import FaultClock, FaultPlan, FaultyClient
from repro.resilience.retry import RetryPolicy

SEED = 1

#: sha256 over the grid's rows, fault-free and under retried error faults.
GOLDEN_ROWS = "739f61bfd463e696e23cab3af68c999609c08f13ade2580d8491b812c3d01f53"
#: sha256 over the grid's rows under ``garbage:0.05,truncated:0.05``.
GOLDEN_CORRUPTION_ROWS = (
    "256f7bfc44a0e6d07038b77215d4f0c8562b9d683cee09d1d292d5b42507cf68"
)


@pytest.fixture(scope="module")
def grid():
    ontology = synthesize_chebi_like(
        SynthesisConfig(n_chemical_entities=300, seed=SEED)
    )
    config = ICLConfig(
        n_positive_queries=15, n_negative_queries=15, n_repeats=5, seed=SEED
    )
    tasks = {}
    for task in (1, 2, 3):
        dataset = build_task_dataset(ontology, task, seed=SEED)
        tasks[task] = (
            list(train_test_split_9_1(dataset, seed=SEED).train),
            build_icl_queries(dataset, config),
            truth_table(dataset),
        )
    return config, tasks


def _digest(grid, fault_spec=None):
    config, tasks = grid
    rows = []
    for task, (pool, queries, truth) in tasks.items():
        for profile in (GPT4_PROFILE, GPT35_PROFILE, BIOGPT_PROFILE):
            for variant in PromptVariant:
                client = SimulatedChatModel(profile, truth, task, seed=SEED)
                if fault_spec is None:
                    result = run_icl_experiment(
                        client, pool, queries, variant, config
                    )
                else:
                    faulty = FaultyClient(
                        client, FaultPlan.parse(fault_spec, seed=SEED)
                    )
                    backend = DeliveryBackend(
                        client.name,
                        faulty,
                        retry=RetryPolicy(seed=SEED, clock=FaultClock()),
                    )
                    with DeliveryEngine(
                        [backend], DeliveryConfig(jobs=1)
                    ) as engine:
                        result = run_icl_experiment(
                            client, pool, queries, variant, config,
                            engine=engine,
                        )
                    assert sum(faulty.injected.values()) > 0
                rows.append(result.as_row())
    payload = json.dumps(rows, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def test_fault_free_grid_matches_the_golden_digest(grid):
    assert _digest(grid) == GOLDEN_ROWS


def test_retried_error_faults_leave_the_golden_digest(grid):
    spec = "timeout:0.1,http500:0.05,malformed:0.05"
    assert _digest(grid, spec) == GOLDEN_ROWS


def test_corruption_faults_match_their_golden_digest(grid):
    spec = "garbage:0.05,truncated:0.05"
    assert _digest(grid, spec) == GOLDEN_CORRUPTION_ROWS
