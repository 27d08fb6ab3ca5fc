"""The program side of the four workloads: inputs from the seed, units of work,
and the digests their output checks compare.

Everything here runs inside a worker process (``worker.py``) and imports
``repro``.  A *unit* is the piece of work a workload repeats for the length
of a run; the benchmark reports the median unit wall time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: The bench LabConfig of ``benchmarks/conftest.py``; :func:`lab_config`
#: scales it down and reseeds it.
BENCH_LAB = dict(
    n_chemical_entities=2_000,
    corpus_documents=250,
    corpus_sentences=25,
    statement_coverage=0.55,
    embedding_dim=64,
    embedding_epochs=3,
    glove_epochs=10,
    wordpiece_vocab=900,
    bert_d_model=64,
    bert_layers=4,
    bert_heads=4,
    bert_d_ff=128,
    pretrain_epochs=3,
    pretrain_sentences=2_500,
    max_train=3_000,
    max_test=800,
    rf_estimators=30,
    rf_max_depth=16,
    lstm_hidden=32,
    lstm_epochs=5,
    ft_epochs=6,
    ft_learning_rate=1e-3,
)

#: 1/32 scale: the five size fields of the bench LabConfig divided by 32, so
#: that one cold build takes a few seconds and a run holds several.
LAB_SCALE = dict(
    n_chemical_entities=62,
    corpus_documents=8,
    pretrain_sentences=78,
    max_train=93,
    max_test=25,
)

#: cells-warm: task-1 cells evaluated on a fresh Lab over a warm store.
RF_CELLS = (
    ("W2V-Chem", "naive"),
    ("BioWordVec", "task-oriented"),
    ("GloVe-Chem", "none"),
    ("PubmedBERT", "none"),
)
LSTM_CELLS = (("W2V-Chem", "naive"), ("BioWordVec", "none"))

#: icl-remote: the Table 5 grid at a reduced query count and repeat count.
ICL_ENTITIES = 500
ICL_QUERIES_PER_CLASS = 10
ICL_REPEATS = 3
ICL_BACKENDS = 2
ICL_LATENCY_S = 0.002
ICL_JITTER = 0.2
ICL_FAULTS = "timeout:0.02,http500:0.02"

#: serve-open: the ``repro serve`` defaults and the pooled backends.
SERVE_BACKENDS = ("rf", "lstm", "ft", "icl")
SERVE_MAX_BATCH = 32
SERVE_MAX_WAIT_S = 0.002
SERVE_QUEUE = 1024


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def seeds(seed: int) -> Dict[str, int]:
    """The LabConfig seed fields a workload seed drives."""
    return {
        "ontology_seed": seed,
        "corpus_seed": seed + 1_000,
        "dataset_seed": seed + 2_000,
        "seed": seed,
    }


def lab_config(seed: int, store: Optional[str] = None):
    from repro.core import LabConfig

    return LabConfig(**{**BENCH_LAB, **LAB_SCALE}, **seeds(seed), artifact_dir=store)


def store_digest(root: str) -> Tuple[str, int]:
    """sha256 over (stage, key, file name, file bytes) of every entry, skipping
    ``meta.json`` (it records a timestamp and a pid); plus the entry count."""
    digest = hashlib.sha256()
    entries = 0
    for stage_dir in sorted(Path(root).iterdir()):
        if not stage_dir.is_dir():
            continue
        for entry in sorted(p for p in stage_dir.iterdir() if p.is_dir()):
            if entry.name.startswith(".tmp-"):
                continue
            entries += 1
            for path in sorted(entry.iterdir()):
                if path.name == "meta.json" or not path.is_file():
                    continue
                digest.update(f"{stage_dir.name}/{entry.name}/{path.name}\0".encode())
                digest.update(path.read_bytes())
    return digest.hexdigest(), entries


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


# -- lab-cold ------------------------------------------------------------------


class LabCold:
    """Unit: cold ``Lab.warm(jobs=nproc)`` into an empty artifact store."""

    def __init__(self, seed: int, scratch: str):
        from repro.core import Lab

        self.Lab = Lab
        self.seed = seed
        self.scratch = scratch
        self.jobs = nproc()

    def unit(self) -> dict:
        store = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        try:
            lab = self.Lab(lab_config(self.seed, store))
            started = time.perf_counter()
            results = lab.warm(jobs=self.jobs)
            ended = time.perf_counter()
            digest, entries = store_digest(store)
        finally:
            shutil.rmtree(store, ignore_errors=True)
        failed = sum(1 for r in results.values() if r.status != "ok")
        return {
            "wall_s": ended - started,
            "window": [started, ended],
            "attempted": len(results),
            "failed": failed,
            "digest": f"{digest}:{entries}",
        }


def build_fixture(seed: int, store: str) -> dict:
    """The cells-warm input: one cold build into ``store``."""
    from repro.core import Lab

    results = Lab(lab_config(seed, store)).warm(jobs=nproc())
    digest, entries = store_digest(store)
    return {
        "stages": len(results),
        "failed": sum(1 for r in results.values() if r.status != "ok"),
        "digest": f"{digest}:{entries}",
    }


# -- cells-warm ----------------------------------------------------------------


class CellsWarm:
    """Unit: a fresh Lab on the warm store evaluates the fixed task-1 cells."""

    def __init__(self, seed: int, store: str):
        from repro.core import Lab

        self.Lab = Lab
        self.seed = seed
        self.store = store
        self.jobs = 1

    def unit(self) -> dict:
        started = time.perf_counter()
        lab = self.Lab(lab_config(self.seed, self.store))
        rows = []
        for embedding, adaptation in RF_CELLS:
            report, _ = lab.evaluate_random_forest(1, embedding, adaptation)
            rows.append(["rf", embedding, adaptation, report])
        rows.append(["ft", "MiniBERT", "none", lab.evaluate_fine_tuned(1)])
        for embedding, adaptation in LSTM_CELLS:
            report, _ = lab.evaluate_lstm(1, embedding, adaptation)
            rows.append(["lstm", embedding, adaptation, report])
        ended = time.perf_counter()
        cells = [
            [kind, emb, adapt, round(r.precision, 6), round(r.recall, 6), round(r.f1, 6)]
            for kind, emb, adapt, r in rows
        ]
        bad = sum(1 for c in cells if not all(0.0 <= v <= 1.0 for v in c[3:]))
        return {
            "wall_s": ended - started,
            "window": [started, ended],
            "attempted": len(cells),
            "failed": bad,
            "digest": _digest(cells),
        }


# -- icl-remote ----------------------------------------------------------------


class ICLRemote:
    """Unit: the Table 5 grid (3 tasks x 3 models x 3 variants) delivered
    through ``DeliveryEngine`` to simulated remote backends."""

    def __init__(self, seed: int):
        from repro.core.datasets import build_task_dataset, train_test_split_9_1
        from repro.llm.icl import ICLConfig, build_icl_queries
        from repro.llm.simulated import truth_table
        from repro.ontology.synthesis import SynthesisConfig, synthesize_chebi_like

        self.seed = seed
        self.jobs = nproc()
        ontology = synthesize_chebi_like(
            SynthesisConfig(n_chemical_entities=ICL_ENTITIES, seed=seed)
        )
        self.config = ICLConfig(
            n_positive_queries=ICL_QUERIES_PER_CLASS,
            n_negative_queries=ICL_QUERIES_PER_CLASS,
            n_repeats=ICL_REPEATS,
            seed=seed,
        )
        self.tasks = {}
        for task in (1, 2, 3):
            dataset = build_task_dataset(ontology, task, seed=seeds(seed)["dataset_seed"])
            self.tasks[task] = (
                list(train_test_split_9_1(dataset, seed=seed).train),
                build_icl_queries(dataset, self.config),
                truth_table(dataset),
            )

    def run(self, jobs: int, latency_s: float) -> dict:
        from repro.delivery import DeliveryConfig, DeliveryEngine, simulated_backends
        from repro.llm import icl
        from repro.llm.prompts import PromptVariant
        from repro.llm.simulated import (
            BIOGPT_PROFILE,
            GPT35_PROFILE,
            GPT4_PROFILE,
            SimulatedChatModel,
        )
        from repro.resilience.retry import RetryPolicy

        rows = []
        counters: Dict[str, int] = {}
        attempted = failed = 0
        started = time.perf_counter()
        for task, (pool, queries, truth) in self.tasks.items():
            for profile in (GPT4_PROFILE, GPT35_PROFILE, BIOGPT_PROFILE):
                for variant in PromptVariant:
                    backends = simulated_backends(
                        profile, truth, task,
                        n_backends=ICL_BACKENDS,
                        seed=self.seed,
                        latency_s=latency_s,
                        latency_jitter=ICL_JITTER,
                        fault_plan_text=ICL_FAULTS,
                        fault_seed=self.seed,
                        retry=RetryPolicy(base_delay=0.001, max_delay=0.004, seed=self.seed),
                    )
                    with DeliveryEngine(
                        backends, DeliveryConfig(jobs=jobs, seed=self.seed)
                    ) as engine:
                        result = icl.run_icl_experiment(
                            SimulatedChatModel(profile, truth, task, seed=self.seed),
                            pool, queries, variant, self.config, engine=engine,
                        )
                        for name, value in engine.counters().items():
                            counters[name] = counters.get(name, 0) + value
                    attempted += len(queries) * self.config.n_repeats
                    failed += result.n_failed
                    rows.append([
                        task, profile.name, variant.value,
                        round(result.accuracy_mean, 6),
                        result.n_unclassified,
                        round(result.kappa, 6),
                    ])
        ended = time.perf_counter()
        return {
            "wall_s": ended - started,
            "window": [started, ended],
            "attempted": attempted,
            "failed": failed,
            "digest": _digest(rows),
            "counters": counters,
        }

    def unit(self) -> dict:
        return self.run(self.jobs, ICL_LATENCY_S)

    def reference_digest(self) -> str:
        """The same grid at ``jobs=1``; latency only sleeps, so it is off."""
        return self.run(1, 0.0)["digest"]


# -- serve-open (server side) --------------------------------------------------


class ServePool:
    """The micro-lab curator pool behind a real HTTP server."""

    def __init__(self, seed: int):
        from repro.core import Lab
        from repro.serve.bench import bench_lab_config
        from repro.serve.curator import build_pool
        from repro.serve.schemas import triple_payload
        from repro.serve.server import start_server
        from repro.serve.service import CurationService

        config = dataclasses.replace(bench_lab_config(seed=seed), **seeds(seed))
        lab = Lab(config)
        self.curators = build_pool(lab, SERVE_BACKENDS, task=1, seed=seed)
        self.service = CurationService.from_curators(
            self.curators,
            max_batch=SERVE_MAX_BATCH,
            max_wait_s=SERVE_MAX_WAIT_S,
            max_queue=SERVE_QUEUE,
        ).start()
        self.server, self.thread, self.port = start_server(self.service)
        self.candidates = list(lab.ml_split(1).test)
        self.payloads = [triple_payload(t) for t in self.candidates]

    def offline_labels(self) -> Dict[str, List[Optional[int]]]:
        """Each curator's labels for every candidate, called directly."""
        return {
            name: list(curator.classify_batch(self.candidates))
            for name, curator in self.curators.items()
        }

    def stop(self) -> None:
        from repro.serve.server import stop_server

        stop_server(self.server, self.thread)


def fingerprint() -> dict:
    """Environment facts recorded with every run."""
    from repro.perf.baseline import FINGERPRINT_FIELDS, environment_fingerprint

    facts = environment_fingerprint()
    record = {name: facts.get(name) for name in FINGERPRINT_FIELDS}
    record["nproc"] = nproc()
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        record[var] = os.environ.get(var)
    return record
