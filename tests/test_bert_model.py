"""Tests for mini-BERT: model, MLM pretraining, fine-tuning."""

import copy

import numpy as np
import pytest

from repro.bert.finetune import FineTuneConfig, fine_tune, triple_to_words
from repro.bert.model import BertConfig, MiniBert
from repro.bert.pretrain import PretrainConfig, _apply_masking, pretrain_mlm
from repro.bert.wordpiece import train_wordpiece
from repro.core.triples import LabeledTriple
from repro.ontology.relations import IS_A

CORPUS = [
    ["alpha", "beta", "gamma", "delta"],
    ["beta", "gamma", "alpha"],
    ["delta", "alpha", "beta", "gamma", "beta"],
] * 12

TINY = BertConfig(d_model=16, n_heads=2, n_layers=2, d_ff=32, max_len=16,
                  dropout=0.0, seed=1)


@pytest.fixture(scope="module")
def tokenizer():
    return train_wordpiece(CORPUS, vocab_size=60)


@pytest.fixture(scope="module")
def pretrained(tokenizer):
    return pretrain_mlm(
        CORPUS, tokenizer, TINY, PretrainConfig(epochs=4, batch_size=8, seed=1)
    )


class TestMiniBert:
    def test_pad_batch(self, tokenizer):
        model = MiniBert(tokenizer, TINY)
        ids, mask = model.pad_batch([[1, 2, 3], [1, 2]])
        assert ids.shape == (2, 3)
        assert mask.tolist() == [[1, 1, 1], [1, 1, 0]]
        assert ids[1, 2] == tokenizer.pad_id

    def test_pad_batch_clips_to_max_len(self, tokenizer):
        model = MiniBert(tokenizer, TINY)
        ids, mask = model.pad_batch([list(range(40))])
        assert ids.shape[1] == TINY.max_len

    def test_classify_shapes(self, tokenizer):
        model = MiniBert(tokenizer, TINY)
        ids, mask = model.pad_batch([[2, 5, 3], [2, 6, 7, 3]])
        logits = model.forward_classify(ids, mask)
        assert logits.shape == (2, 2)

    def test_cls_embedding_shape_and_determinism(self, pretrained):
        a = pretrained.cls_embedding(["alpha", "beta"])
        b = pretrained.cls_embedding(["alpha", "beta"])
        assert a.shape == (TINY.d_model,)
        assert np.allclose(a, b)

    @pytest.mark.parametrize("training", [True, False])
    def test_cls_embedding_restores_training_mode(self, pretrained, training):
        model = copy.deepcopy(pretrained)
        model.set_training(training)
        model.cls_embedding(["alpha", "beta"])
        assert model.training is training
        assert model.encoder.blocks[0].drop1.training is training

    def test_cls_embedding_differs_by_input(self, pretrained):
        a = pretrained.cls_embedding(["alpha"])
        b = pretrained.cls_embedding(["delta", "delta"])
        assert not np.allclose(a, b)


class TestMasking:
    def test_masking_statistics(self, tokenizer):
        rng = np.random.default_rng(0)
        ids = rng.integers(5, len(tokenizer), size=(40, 20))
        mask = np.ones_like(ids, dtype=float)
        masked, labels = _apply_masking(ids, mask, tokenizer, 0.15, rng)
        selected = labels != -100
        rate = selected.mean()
        assert 0.08 < rate < 0.25
        # labels hold the original ids at selected positions
        assert np.all(labels[selected] == ids[selected])
        # a good share of selected positions actually carry [MASK]
        mask_share = (masked[selected] == tokenizer.mask_id).mean()
        assert 0.6 < mask_share < 0.95

    def test_specials_never_masked(self, tokenizer):
        rng = np.random.default_rng(0)
        ids = np.full((10, 8), tokenizer.cls_id)
        mask = np.ones_like(ids, dtype=float)
        _, labels = _apply_masking(ids, mask, tokenizer, 0.9, rng)
        assert np.all(labels == -100)


class TestPretraining:
    def test_loss_decreases(self, pretrained):
        losses = pretrained.pretrain_losses
        assert len(losses) == 4
        assert losses[-1] < losses[0]

    def test_returns_eval_mode(self, pretrained):
        assert pretrained.training is False

    def test_empty_corpus_rejected(self, tokenizer):
        with pytest.raises(ValueError):
            pretrain_mlm([], tokenizer, TINY)


def make_triples(n, flip=False):
    """Linearly separable toy task: 'alpha' subjects are positive."""
    triples = []
    for i in range(n):
        positive = i % 2 == 0
        subject = "alpha alpha" if positive else "delta delta"
        label = 1 if positive else 0
        if flip:
            label = 1 - label
        triples.append(
            LabeledTriple(f"s{i}", subject, IS_A, f"o{i}", "gamma", label)
        )
    return triples


class TestFineTuning:
    def test_learns_separable_task(self, pretrained):
        train = make_triples(120)
        test = make_triples(30)
        classifier = fine_tune(
            pretrained,
            train,
            FineTuneConfig(epochs=6, learning_rate=2e-3, seed=1),
            validation_triples=test,
        )
        accuracy = classifier.history[-1]["validation_accuracy"]
        assert accuracy > 0.9

    def test_pretrained_model_not_mutated(self, pretrained):
        before = pretrained.encoder.token_emb.weight.value.copy()
        fine_tune(pretrained, make_triples(20), FineTuneConfig(epochs=1, seed=0))
        assert np.allclose(before, pretrained.encoder.token_emb.weight.value)

    def test_predict_proba_in_unit_interval(self, pretrained):
        classifier = fine_tune(
            pretrained, make_triples(20), FineTuneConfig(epochs=1, seed=0)
        )
        probs = classifier.predict_proba(make_triples(10))
        assert np.all((probs >= 0) & (probs <= 1))

    def test_empty_train_rejected(self, pretrained):
        with pytest.raises(ValueError):
            fine_tune(pretrained, [])

    def test_triple_to_words_includes_separators(self):
        triple = LabeledTriple("a", "Butanoic Acid", IS_A, "b", "Fatty Acid", 1)
        words = triple_to_words(triple)
        assert words.count("[SEP]") == 2
        assert "butanoic" in words
