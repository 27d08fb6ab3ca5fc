"""Wrappers install on the public entry points and come off again."""

from layers import PER_LAYER, Tracing, stage_layer
from spans import SpanRecorder


def test_stage_names_map_to_layers():
    assert stage_layer("ontology") == "ontology.synthesize_s"
    assert stage_layer("corpus-generic") == "text.corpus_s"
    assert stage_layer("ml-split-2") == "core.datasets_s"
    assert stage_layer("embedding-BioWordVec") == "embeddings.fasttext_s"
    assert stage_layer("w2v-pairs-3") == "embeddings.word2vec_s"
    assert stage_layer("glove-chem-cooccur-0") == "embeddings.glove_s"
    assert stage_layer("embedding-GloVe-Chem") == "embeddings.glove_s"
    assert stage_layer("bert") == "bert.pretrain_s"
    assert stage_layer("fine-tuned-1") == "bert.finetune_s"
    assert stage_layer("forest-1-GloVe-none") == "pipeline.stage_other_s"


def test_remove_restores_every_original():
    from repro.core.experiment import Lab
    from repro.llm import icl
    from repro.pipeline.store import ArtifactStore

    before = (Lab.materialize, ArtifactStore.put, icl.run_icl_experiment)
    tracing = Tracing(SpanRecorder()).install()
    assert Lab.materialize is not before[0]
    assert icl.run_icl_experiment is not before[2]
    tracing.remove()
    assert (Lab.materialize, ArtifactStore.put, icl.run_icl_experiment) == before


def test_traced_calls_record_spans():
    from repro.ml.forest import RandomForest, RandomForestConfig
    import numpy as np

    recorder = SpanRecorder()
    tracing = Tracing(recorder).install()
    try:
        x = np.arange(40, dtype=float).reshape(20, 2)
        y = (x[:, 0] > 19).astype(int)
        RandomForest(RandomForestConfig(n_estimators=2, max_depth=2, seed=0)).fit(x, y).predict(x)
    finally:
        tracing.remove()
    assert [s.layer for s in recorder.spans] == ["ml.forest_fit_s", "ml.forest_predict_s"]


def test_metric_names_are_unique():
    names = [name for name, _ in PER_LAYER]
    assert len(names) == len(set(names))
