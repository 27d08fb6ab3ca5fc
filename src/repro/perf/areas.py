"""The registry of named perf areas — the apparatus's real hot paths.

Each :class:`PerfArea` wraps one library hot path (OBO parsing, WordPiece
training, GloVe co-occurrence counting, SGNS updates, a mini-BERT MLM
pretraining pass, mini-BERT fine-tuning, Algorithm 2 stop-token selection,
random-forest fitting, simulated-ICL delivery, artifact store round-trips)
in a :class:`~repro.perf.harness.Benchmark` with a fixed, seeded workload,
so its timing is comparable run-over-run and a committed ``BENCH_<area>.json``
baseline can gate regressions.

Workload sizes are deliberately small (each repeat well under a second on a
laptop) so the full registry can run in CI; ``--quick`` shrinks only the
*protocol* (warmup/repeats), never the workload, keeping quick numbers
comparable to full baselines.
"""

from __future__ import annotations

import io
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.perf.harness import Benchmark, PerfError
from repro.utils.rng import derive_rng

#: Master seed for every perf workload; one knob, deliberately frozen.
WORKLOAD_SEED = 0

#: Syllables composing the synthetic chemistry-ish corpus vocabulary.
_SYLLABLES = (
    "chlo", "ro", "ben", "zene", "meth", "yl", "ox", "ide",
    "am", "ine", "sul", "fate", "phos", "pho", "car", "box",
)


@dataclass(frozen=True)
class PerfArea:
    """One registered benchmarkable hot path."""

    name: str
    title: str
    #: Zero-argument factory returning ``(benchmark, workload_params)``.
    #: Workload construction is deferred so listing areas stays free.
    factory: Callable[[], Tuple[Benchmark, dict]]

    def build(self) -> Tuple[Benchmark, dict]:
        """Materialise the benchmark and its workload-parameter record."""
        return self.factory()


def _corpus(
    n_sentences: int, sentence_len: int, vocab_size: int
) -> List[List[str]]:
    """A seeded synthetic token corpus with a zipf-ish frequency profile."""
    rng = derive_rng(
        WORKLOAD_SEED, "perf-corpus", n_sentences, sentence_len, vocab_size
    )
    words = []
    for _ in range(vocab_size):
        n_parts = 2 + int(rng.integers(0, 3))
        picks = rng.integers(0, len(_SYLLABLES), size=n_parts)
        words.append("".join(_SYLLABLES[int(p)] for p in picks))
    weights = 1.0 / np.arange(1.0, vocab_size + 1.0)
    weights /= weights.sum()
    return [
        [words[int(w)] for w in rng.choice(vocab_size, size=sentence_len, p=weights)]
        for _ in range(n_sentences)
    ]


# -- area factories -----------------------------------------------------------


def _obo_parse() -> Tuple[Benchmark, dict]:
    from repro.ontology.obo import dumps_obo, load_obo
    from repro.ontology.synthesis import SynthesisConfig, synthesize_chebi_like

    params = {"n_chemical_entities": 400, "seed": WORKLOAD_SEED}

    def setup() -> str:
        ontology = synthesize_chebi_like(
            SynthesisConfig(
                n_chemical_entities=params["n_chemical_entities"],
                seed=params["seed"],
            )
        )
        return dumps_obo(ontology)

    def run(text: object) -> object:
        ontology = load_obo(io.StringIO(str(text)), name="perf")
        return sum(1 for _ in ontology.entities())

    return Benchmark("obo_parse", run, setup=setup), params


def _wordpiece() -> Tuple[Benchmark, dict]:
    from repro.bert.wordpiece import train_wordpiece

    params = {
        "n_sentences": 200,
        "sentence_len": 12,
        "corpus_vocab": 160,
        "vocab_size": 300,
        "seed": WORKLOAD_SEED,
    }

    def setup() -> List[List[str]]:
        return _corpus(
            params["n_sentences"], params["sentence_len"], params["corpus_vocab"]
        )

    def run(sentences: object) -> object:
        corpus = list(sentences)  # type: ignore[arg-type]
        tokenizer = train_wordpiece(
            corpus, vocab_size=params["vocab_size"], min_pair_frequency=2
        )
        encoded = sum(len(tokenizer.encode(s)) for s in corpus[:50])
        return (len(tokenizer), encoded)

    return Benchmark("wordpiece", run, setup=setup), params


def _glove_cooccur() -> Tuple[Benchmark, dict]:
    from repro.embeddings.glove import cooccurrence_arrays
    from repro.text.vocab import build_vocabulary

    params = {
        "n_sentences": 500,
        "sentence_len": 16,
        "corpus_vocab": 250,
        "window": 6,
        "seed": WORKLOAD_SEED,
    }

    def setup() -> dict:
        sentences = _corpus(
            params["n_sentences"], params["sentence_len"], params["corpus_vocab"]
        )
        return {
            "sentences": sentences,
            "vocabulary": build_vocabulary(sentences, min_count=1),
        }

    def run(state: object) -> object:
        # Measures the COO-array path the trainers and pipeline consume; the
        # checksum (entry count, rounded total mass) is order-insensitive and
        # matches what the legacy dict API produced for the same corpus.
        _, _, values = cooccurrence_arrays(
            state["sentences"], state["vocabulary"], params["window"]
        )
        return (int(values.size), round(float(values.sum()), 3))

    return Benchmark("glove_cooccur", run, setup=setup), params


def _word2vec_neg() -> Tuple[Benchmark, dict]:
    from repro.embeddings.word2vec import Word2Vec, Word2VecConfig

    params = {
        "n_sentences": 160,
        "sentence_len": 12,
        "corpus_vocab": 120,
        "dim": 32,
        "negative": 5,
        "epochs": 1,
        "seed": WORKLOAD_SEED,
    }

    def setup() -> List[List[str]]:
        return _corpus(
            params["n_sentences"], params["sentence_len"], params["corpus_vocab"]
        )

    def run(sentences: object) -> object:
        model = Word2Vec.train(
            list(sentences),  # type: ignore[arg-type]
            Word2VecConfig(
                dim=params["dim"],
                negative=params["negative"],
                epochs=params["epochs"],
                min_count=1,
                seed=params["seed"],
            ),
            name="perf",
        )
        probe = state_probe(sentences)
        return round(float(np.sum(model.vector(probe))), 5)

    def state_probe(sentences: object) -> str:
        # the corpus's first token always survives min_count=1
        return sentences[0][0]  # type: ignore[index]

    return Benchmark("word2vec_neg", run, setup=setup), params


def _bert_pretrain_step() -> Tuple[Benchmark, dict]:
    from repro.bert.model import BertConfig
    from repro.bert.pretrain import PretrainConfig, pretrain_mlm
    from repro.bert.wordpiece import train_wordpiece

    params = {
        "n_sentences": 48,
        "sentence_len": 10,
        "corpus_vocab": 90,
        "vocab_size": 220,
        "d_model": 32,
        "n_layers": 2,
        "epochs": 1,
        "batch_size": 16,
        "seed": WORKLOAD_SEED,
    }

    def setup() -> dict:
        sentences = _corpus(
            params["n_sentences"], params["sentence_len"], params["corpus_vocab"]
        )
        tokenizer = train_wordpiece(
            sentences, vocab_size=params["vocab_size"], min_pair_frequency=2
        )
        return {"sentences": sentences, "tokenizer": tokenizer}

    def run(state: object) -> object:
        model = pretrain_mlm(
            state["sentences"],
            state["tokenizer"],
            BertConfig(
                d_model=params["d_model"],
                n_heads=2,
                n_layers=params["n_layers"],
                d_ff=64,
                max_len=32,
                seed=params["seed"],
            ),
            PretrainConfig(
                epochs=params["epochs"],
                batch_size=params["batch_size"],
                seed=params["seed"],
            ),
        )
        return round(float(model.pretrain_losses[-1]), 4)

    return Benchmark("bert_pretrain_step", run, setup=setup), params


def _bert_finetune() -> Tuple[Benchmark, dict]:
    """Fine-tuning at the bench cell's shape: the bench lab's mini-BERT
    (d_model 64, 4 layers, 4 heads, d_ff 128), batch 32, on triples whose
    WordPiece lengths vary like real ones (about 40% of each padded batch
    is padding).  The checksum is the rounded held-out probabilities.
    """
    from repro.bert.finetune import FineTuneConfig, fine_tune
    from repro.bert.model import BertConfig, MiniBert
    from repro.bert.wordpiece import train_wordpiece
    from repro.core.triples import LabeledTriple
    from repro.ontology.relations import IS_A

    params = {
        "n_train": 128,
        "n_test": 64,
        "corpus_vocab": 120,
        "vocab_size": 400,
        "d_model": 64,
        "n_layers": 4,
        "n_heads": 4,
        "d_ff": 128,
        "epochs": 3,
        "batch_size": 32,
        "seed": WORKLOAD_SEED,
    }

    def setup() -> dict:
        sentences = _corpus(200, 12, params["corpus_vocab"])
        tokenizer = train_wordpiece(
            sentences, vocab_size=params["vocab_size"], min_pair_frequency=2
        )
        words = sorted({word for sentence in sentences for word in sentence})
        rng = derive_rng(params["seed"], "perf-bert-finetune")

        def name(p: float, most: int) -> np.ndarray:
            """Word ids of one name: geometric length, so most names are short
            and a few long, like ChEBI names."""
            size = min(int(rng.geometric(p)), most)
            return rng.integers(0, len(words), size=size)

        triples = []
        for i in range(params["n_train"] + params["n_test"]):
            subject, obj = name(0.3, 12), name(0.6, 4)
            triples.append(LabeledTriple(
                f"s{i}", " ".join(words[int(w)] for w in subject), IS_A,
                f"o{i}", " ".join(words[int(w)] for w in obj),
                int(subject[0] < len(words) // 2),
            ))
        model = MiniBert(tokenizer, BertConfig(
            d_model=params["d_model"],
            n_heads=params["n_heads"],
            n_layers=params["n_layers"],
            d_ff=params["d_ff"],
            seed=params["seed"],
        ))
        train = params["n_train"]
        return {"model": model, "train": triples[:train], "test": triples[train:]}

    def run(state: object) -> object:
        classifier = fine_tune(
            state["model"],
            state["train"],
            FineTuneConfig(
                epochs=params["epochs"],
                batch_size=params["batch_size"],
                learning_rate=1e-3,
                seed=params["seed"],
            ),
        )
        return np.round(classifier.predict_proba(state["test"]), 6).tolist()

    return Benchmark("bert_finetune", run, setup=setup), params


def _stop_tokens() -> Tuple[Benchmark, dict]:
    """Algorithm 2 at the bench lab's shape: the positives of a 2,000-entity
    ontology, a 64-dimensional fastText model with 20k n-gram buckets, and
    the :class:`TaskOrientedConfig` defaults (300 sampled entities, 10
    iterations).  The table is seeded noise rather than trained vectors,
    so set-up stays cheap.  The checksum covers the sorted stop set and
    every variance list.
    """
    from repro.adaptation.task_oriented import (
        TaskOrientedConfig,
        analyse_stop_tokens,
    )
    from repro.core.tasks import positive_triples
    from repro.embeddings.fasttext import FastText, FastTextConfig
    from repro.ontology.synthesis import SynthesisConfig, synthesize_chebi_like
    from repro.text.tokenizer import ChemTokenizer
    from repro.text.vocab import build_vocabulary

    params = {
        "n_chemical_entities": 2_000,
        "ontology_seed": 7,
        "dim": 64,
        "bucket": 20_000,
        "min_count": 2,
        "n_entities": TaskOrientedConfig().n_entities,
        "n_iterations": TaskOrientedConfig().n_iterations,
        "seed": WORKLOAD_SEED,
    }

    def setup() -> dict:
        positives = positive_triples(synthesize_chebi_like(SynthesisConfig(
            n_chemical_entities=params["n_chemical_entities"],
            seed=params["ontology_seed"],
        )))
        tokenizer = ChemTokenizer()
        names = [
            tokenizer(t.subject_name) + tokenizer(t.object_name) for t in positives
        ]
        config = FastTextConfig(
            dim=params["dim"], bucket=params["bucket"], min_count=params["min_count"]
        )
        vocabulary = build_vocabulary(names, min_count=config.min_count)
        rng = derive_rng(params["seed"], "perf-stop-tokens")
        table = rng.normal(
            0.0, 0.1, size=(len(vocabulary) + config.bucket, config.dim)
        )
        return {"positives": positives, "vocabulary": vocabulary,
                "table": table, "config": config}

    def run(state: object) -> object:
        # A fresh model each repeat: a cold build meets empty subword caches.
        model = FastText(
            state["vocabulary"], state["table"], state["config"], name="BioWordVec"
        )
        analysis = analyse_stop_tokens(
            state["positives"], model, TaskOrientedConfig(seed=params["seed"])
        )
        return (
            sorted(analysis.stop_tokens),
            [np.round(v, 12).tolist() for v in analysis.baseline_vars.values()],
            [np.round(v, 12).tolist() for v in analysis.ablated_vars.values()],
        )

    return Benchmark("stop_tokens", run, setup=setup), params


def _rf_fit() -> Tuple[Benchmark, dict]:
    """One bench-cell forest: a 3 x 64 triple feature vector, 30 trees, depth 16.

    The checksum covers the rounded held-out probabilities and the whole
    importance vector, so any change to a single split shows up; the sum of
    the (normalised) importances alone would always read ~1.0.
    """
    from repro.ml.forest import RandomForest, RandomForestConfig

    params = {
        "n_samples": 750,
        "n_test": 250,
        "n_features": 192,
        "n_estimators": 30,
        "max_depth": 16,
        "seed": WORKLOAD_SEED,
    }

    def setup() -> dict:
        rng = derive_rng(params["seed"], "perf-rf")
        n = params["n_samples"] + params["n_test"]
        x = rng.normal(size=(n, params["n_features"]))
        signal = x[:, 0] + 0.5 * x[:, 64] - 0.25 * x[:, 128]
        y = (signal + rng.normal(0.0, 0.5, size=n) > 0).astype(np.int64)
        train = params["n_samples"]
        return {"x": x[:train], "y": y[:train], "x_test": x[train:]}

    def run(state: object) -> object:
        forest = RandomForest(
            RandomForestConfig(
                n_estimators=params["n_estimators"],
                max_depth=params["max_depth"],
                seed=params["seed"],
            )
        ).fit(state["x"], state["y"])
        return (
            np.round(forest.predict_proba(state["x_test"]), 6).tolist(),
            np.round(forest.feature_importances_, 6).tolist(),
        )

    return Benchmark("rf_fit", run, setup=setup), params


def _icl_delivery() -> Tuple[Benchmark, dict]:
    """ICL prompt delivery through the concurrent delivery engine.

    Each simulated completion carries ~2 ms of injected latency (the
    regime where dispatch concurrency matters; the pure-CPU simulators
    alone finish in microseconds, which the GIL would serialise anyway).
    ``setup`` first measures one *sequential* run of the same latency-laden
    workload and records it as ``sequential_reference_s`` in the workload
    section, so the committed baseline documents the engine's speedup:
    ``sequential_reference_s / stats.median_s`` is the throughput multiple.
    The checksum covers (accuracy, unclassified), which the engine must
    reproduce byte-identically to the one-backend ``jobs=1`` reference.
    """
    import time

    from repro.core.datasets import build_task_dataset
    from repro.delivery import DeliveryConfig, DeliveryEngine, simulated_backends
    from repro.llm.icl import ICLConfig, build_icl_queries, run_icl_experiment
    from repro.llm.prompts import PromptVariant
    from repro.llm.simulated import GPT35_PROFILE, SimulatedChatModel, truth_table
    from repro.ontology.synthesis import SynthesisConfig, synthesize_chebi_like

    params = {
        "n_chemical_entities": 350,
        "n_queries_per_class": 10,
        "n_repeats": 2,
        "task": 1,
        "seed": WORKLOAD_SEED,
        "backends": 4,
        "jobs": 8,
        "latency_ms": 2.0,
        "sequential_reference_s": None,  # measured in setup
    }

    def setup() -> dict:
        ontology = synthesize_chebi_like(
            SynthesisConfig(
                n_chemical_entities=params["n_chemical_entities"],
                seed=params["seed"],
            )
        )
        dataset = build_task_dataset(ontology, params["task"], seed=params["seed"])
        config = ICLConfig(
            n_positive_queries=params["n_queries_per_class"],
            n_negative_queries=params["n_queries_per_class"],
            n_repeats=params["n_repeats"],
            seed=params["seed"],
        )
        truth = truth_table(dataset)
        pool = list(dataset)[:300]
        queries = build_icl_queries(dataset, config)
        latency_s = params["latency_ms"] / 1000.0

        def build_backends():
            return simulated_backends(
                GPT35_PROFILE,
                truth,
                params["task"],
                n_backends=params["backends"],
                seed=params["seed"],
                latency_s=latency_s,
            )

        # Sequential reference: the same latency-laden deliveries, one at a
        # time through a single backend.  Documented in the workload so the
        # committed baseline shows before/after.
        reference = DeliveryEngine(
            build_backends()[:1], DeliveryConfig(jobs=1, seed=params["seed"])
        )
        started = time.perf_counter()
        run_icl_experiment(
            SimulatedChatModel(
                GPT35_PROFILE, truth, params["task"], seed=params["seed"]
            ),
            pool,
            queries,
            PromptVariant.BASE,
            config,
            engine=reference,
        )
        params["sequential_reference_s"] = round(
            time.perf_counter() - started, 6
        )
        reference.close()

        engine = DeliveryEngine(
            build_backends(),
            DeliveryConfig(jobs=params["jobs"], seed=params["seed"]),
        )
        return {
            "pool": pool,
            "queries": queries,
            "config": config,
            "client": SimulatedChatModel(
                GPT35_PROFILE, truth, params["task"], seed=params["seed"]
            ),
            "engine": engine,
        }

    def run(state: object) -> object:
        result = run_icl_experiment(
            state["client"],
            state["pool"],
            state["queries"],
            PromptVariant.BASE,
            state["config"],
            engine=state["engine"],
        )
        return (round(result.accuracy_mean, 4), result.n_unclassified)

    def teardown(state: object) -> None:
        state["engine"].close()

    return Benchmark("icl_delivery", run, setup=setup, teardown=teardown), params


def _store_roundtrip() -> Tuple[Benchmark, dict]:
    """Warm read of a persisted static-embedding artifact.

    Setup ``put``s one entry through the stage hooks; each run loads it and
    samples a strided slice — the dominant store access pattern once a
    cache is warm.  Large matrices memory-map (see ``repro.pipeline.arrays``),
    so a load costs page faults for the touched rows, not a full copy.
    """
    from repro.embeddings.base import StaticEmbeddings
    from repro.pipeline.stage import Stage
    from repro.pipeline.store import ArtifactStore
    from repro.text.vocab import Vocabulary
    from repro.utils.persistence import (
        load_embeddings_entry,
        save_embeddings_entry,
    )

    params = {"vocab": 2048, "dim": 128, "seed": WORKLOAD_SEED}

    def setup() -> dict:
        root = tempfile.mkdtemp(prefix="repro-perf-store-")
        rng = derive_rng(params["seed"], "perf-store")
        counts = {
            f"tok{i:05d}": int(c)
            for i, c in enumerate(rng.integers(1, 500, size=params["vocab"]))
        }
        vocabulary = Vocabulary(counts)
        matrix = rng.normal(size=(len(vocabulary), params["dim"]))
        store = ArtifactStore(root)
        stage = Stage(
            name="perf-embedding",
            build=lambda lab, inputs: None,
            save=lambda artifact, path: save_embeddings_entry(artifact, path),
            load=lambda path, inputs: load_embeddings_entry(path),
        )
        store.put(
            stage, "warm", StaticEmbeddings(vocabulary, matrix, name="perf")
        )
        return {"store": store, "root": root, "stage": stage}

    def run(state: object) -> object:
        model = state["store"].load(state["stage"], "warm", {})
        sample = np.asarray(model.matrix[::64, ::8])
        return round(float(sample.sum()), 6)

    def teardown(state: object) -> None:
        shutil.rmtree(state["root"], ignore_errors=True)

    return Benchmark("store_roundtrip", run, setup=setup, teardown=teardown), params


#: Every registered perf area, in reporting order.
AREAS: Tuple[PerfArea, ...] = (
    PerfArea("obo_parse", "OBO flat-file parsing", _obo_parse),
    PerfArea("wordpiece", "WordPiece training + encoding", _wordpiece),
    PerfArea("glove_cooccur", "GloVe co-occurrence counting", _glove_cooccur),
    PerfArea("word2vec_neg", "SGNS negative-sampling training", _word2vec_neg),
    PerfArea("bert_pretrain_step", "mini-BERT MLM pretraining pass", _bert_pretrain_step),
    PerfArea("bert_finetune", "mini-BERT triple fine-tuning", _bert_finetune),
    PerfArea("stop_tokens", "Algorithm 2 stop-token selection", _stop_tokens),
    PerfArea("rf_fit", "random-forest fitting", _rf_fit),
    PerfArea("icl_delivery", "simulated ICL prompt delivery", _icl_delivery),
    PerfArea("store_roundtrip", "artifact store put/load round-trip", _store_roundtrip),
)

_BY_NAME: Dict[str, PerfArea] = {area.name: area for area in AREAS}


def area_names() -> List[str]:
    """The registered area names, in registry order."""
    return [area.name for area in AREAS]


def get_area(name: str) -> PerfArea:
    """Look an area up by name; raises :class:`PerfError` on a typo."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise PerfError(
            f"unknown perf area {name!r}; known: {', '.join(area_names())}"
        ) from None


def select_areas(names: object = None) -> List[PerfArea]:
    """Areas filtered to ``names`` (default: all), preserving registry order."""
    if not names:
        return list(AREAS)
    wanted = [get_area(str(name)).name for name in names]
    return [area for area in AREAS if area.name in set(wanted)]


__all__ = [
    "WORKLOAD_SEED",
    "PerfArea",
    "AREAS",
    "area_names",
    "get_area",
    "select_areas",
]
