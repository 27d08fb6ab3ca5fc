"""The ``bert`` stage's in-memory canonicalisation equals a store round trip."""

import numpy as np
import pytest

from repro.bert.finetune import FineTuneConfig, fine_tune
from repro.core.experiment import Lab
from repro.pipeline import stages
from tests.conftest import MICRO_LAB_CONFIG


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """``(raw, canonical, round_trip, split)``: the model pretraining
    returns, its in-memory canonical form, the model loaded back from its
    stored entry, and a fine-tuning split."""
    lab = Lab(MICRO_LAB_CONFIG)
    inputs = {
        name: lab.materialize(name) for name in ("corpus-chemistry", "wordpiece")
    }
    patch = pytest.MonkeyPatch()
    patch.setattr(stages, "_canonical_bert", lambda model: model)
    try:
        raw = stages._build_bert(lab, inputs)
    finally:
        patch.undo()
    entry = tmp_path_factory.mktemp("bert-entry")
    stages._save_bert_model(raw, entry)
    round_trip = stages._load_bert_model(entry, inputs)
    canonical = stages._canonical_bert(raw)
    return raw, canonical, round_trip, lab.materialize("ft-split-1")


def _pieces(model):
    return [model.tokenizer.piece_of(i) for i in range(len(model.tokenizer))]


class TestCanonicalBert:
    def test_parameters_bit_equal(self, models):
        _, canonical, round_trip, _ = models
        left, right = canonical.parameters(), round_trip.parameters()
        assert len(left) == len(right)
        for a, b in zip(left, right):
            assert a.name == b.name
            assert a.value.dtype == b.value.dtype
            assert a.value.tobytes() == b.value.tobytes()

    def test_pieces_mode_and_losses(self, models):
        raw, canonical, round_trip, _ = models
        assert _pieces(canonical) == _pieces(round_trip) == _pieces(raw)
        assert canonical.tokenizer is not raw.tokenizer
        assert canonical.config == round_trip.config
        assert not canonical.training and not round_trip.training
        assert canonical.pretrain_losses == round_trip.pretrain_losses
        assert all(type(x) is float for x in canonical.pretrain_losses)
        assert len(canonical.pretrain_losses) == MICRO_LAB_CONFIG.pretrain_epochs

    def test_parameters_are_copies(self, models):
        raw, canonical, _, _ = models
        for a, b in zip(canonical.parameters(), raw.parameters()):
            assert not np.shares_memory(a.value, b.value)

    def test_fine_tuning_draws_the_same_dropout_masks(self, models):
        """The determinism note in the stages module docstring: fine-tuning
        from the canonical model and from the stored one is identical, and
        the raw pretrained model (its dropout RNGs advanced) would differ."""
        raw, canonical, round_trip, split = models
        config = FineTuneConfig(epochs=1, batch_size=16, learning_rate=1e-3, seed=0)

        def probabilities(model):
            classifier = fine_tune(model, split.train.triples, config)
            return classifier.predict_proba(split.test.triples)

        expected = probabilities(round_trip)
        assert probabilities(canonical).tobytes() == expected.tobytes()
        assert probabilities(raw).tobytes() != expected.tobytes()

    def test_lab_stage_returns_the_canonical_model(self, models):
        _, canonical, _, _ = models
        built = Lab(MICRO_LAB_CONFIG).materialize("bert")
        for a, b in zip(built.parameters(), canonical.parameters()):
            assert a.value.tobytes() == b.value.tobytes()
        assert not built.training
