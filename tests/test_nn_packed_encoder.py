"""The packed (padding-free) encoder against the padded pass it replaced.

The ``_reference_*`` code below is the padded encoder, attention and head
forward/backward: every position of the ``(batch, seq)`` grid runs through
every layer, and the heads scatter their gradient into a zero grid.  It
drives the same modules (and so the same parameters and dropout streams) as
the packed path.  Packing reorders float sums (GEMMs over fewer rows, the
split Q/KV projections), so results agree to a tolerance rather than bit for
bit; the parent is not bit-stable either (one BLAS thread instead of two
changes its fine-tune probabilities).
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.bert.finetune import FineTuneConfig, fine_tune
from repro.bert.model import BertConfig, MiniBert
from repro.bert.pretrain import PretrainConfig, pretrain_mlm
from repro.bert.wordpiece import SPECIAL_TOKENS, WordPieceTokenizer
from repro.core import Lab
from repro.core.triples import LabeledTriple
from repro.nn.attention import _softmax
from repro.nn.losses import softmax_cross_entropy
from repro.ontology.relations import IS_A
from tests.conftest import MICRO_LAB_CONFIG

TOLERANCE = 1e-12

TOKENIZER = WordPieceTokenizer(
    list(SPECIAL_TOKENS) + [f"w{i}" for i in range(40)]
)


# -- the padded reference ---------------------------------------------------------


def _reference_attention_forward(attn, x, mask):
    batch, seq, _ = x.shape
    qkv = attn.qkv.forward(x)
    heads = qkv.reshape(batch, seq, 3, attn.n_heads, attn.d_head)
    q, k, v = heads.transpose(2, 0, 3, 1, 4)
    scale = 1.0 / np.sqrt(attn.d_head)
    scores = (q @ k.swapaxes(-1, -2)) * scale
    scores = np.where(mask[:, None, None, :] > 0, scores, -1e9)
    weights = _softmax(scores, axis=-1)
    merged = (weights @ v).transpose(0, 2, 1, 3).reshape(batch, seq, -1)
    return attn.out.forward(merged), (q, k, v, weights, scale)


def _reference_attention_backward(attn, cache, grad):
    q, k, v, weights, scale = cache
    grad_merged = attn.out.backward(grad)
    batch, seq, _ = grad_merged.shape
    grad_context = grad_merged.reshape(
        batch, seq, attn.n_heads, attn.d_head
    ).transpose(0, 2, 1, 3)
    grad_weights = grad_context @ v.swapaxes(-1, -2)
    grad_v = weights.swapaxes(-1, -2) @ grad_context
    dot = (grad_weights * weights).sum(axis=-1, keepdims=True)
    grad_scores = weights * (grad_weights - dot)
    grad_q = (grad_scores @ k) * scale
    grad_k = (grad_scores.swapaxes(-1, -2) @ q) * scale
    grad_qkv = np.empty((batch, seq, 3, attn.n_heads, attn.d_head))
    grad_qkv[:, :, 0] = grad_q.transpose(0, 2, 1, 3)
    grad_qkv[:, :, 1] = grad_k.transpose(0, 2, 1, 3)
    grad_qkv[:, :, 2] = grad_v.transpose(0, 2, 1, 3)
    return attn.qkv.backward(grad_qkv.reshape(batch, seq, 3 * attn.d_model))


class _ReferenceEncoder:
    """The padded encoder pass over a packed encoder's modules."""

    def __init__(self, encoder):
        self.encoder = encoder
        self.caches = []

    def forward(self, ids, mask):
        enc = self.encoder
        batch, seq = ids.shape
        positions = np.broadcast_to(np.arange(seq), (batch, seq))
        x = enc.token_emb.forward(ids) + enc.pos_emb.forward(positions)
        x = enc.drop.forward(x)
        layers = []
        self.caches = []
        for block in enc.blocks:
            attended, cache = _reference_attention_forward(
                block.attn, block.ln1.forward(x), mask
            )
            self.caches.append(cache)
            x = x + block.drop1.forward(attended)
            x = x + block.drop2.forward(block.ffn.forward(block.ln2.forward(x)))
            layers.append(x)
        final = enc.final_ln.forward(x)
        layers[-1] = final
        return final, layers

    def backward(self, grad):
        enc = self.encoder
        grad = enc.final_ln.backward(grad)
        for block, cache in zip(reversed(enc.blocks), reversed(self.caches)):
            grad = grad + block.ln2.backward(
                block.ffn.backward(block.drop2.backward(grad))
            )
            grad = grad + block.ln1.backward(
                _reference_attention_backward(
                    block.attn, cache, block.drop1.backward(grad)
                )
            )
        grad = enc.drop.backward(grad)
        enc.token_emb.backward(grad)
        enc.pos_emb.backward(grad)


def _reference_forward_classify(model, ids, mask):
    model._reference = _ReferenceEncoder(model.encoder)
    final, _ = model._reference.forward(ids, mask)
    model._reference_shape = final.shape
    model._cls_cache = np.tanh(model.pooler.forward(final[:, 0, :]))
    return model.classifier.forward(model._cls_cache)


def _reference_backward_classify(model, grad_logits):
    grad_pooled = model.classifier.backward(grad_logits)
    grad_hidden = np.zeros(model._reference_shape)
    grad_hidden[:, 0, :] = model.pooler.backward(
        grad_pooled * (1.0 - model._cls_cache**2)
    )
    model._reference.backward(grad_hidden)


def _reference_forward_mlm_at(model, ids, mask, positions):
    model._reference = _ReferenceEncoder(model.encoder)
    final, _ = model._reference.forward(ids, mask)
    model._reference_shape = final.shape
    model._reference_positions = positions
    return model.mlm_head.forward(final[positions])


def _reference_backward_mlm(model, grad_logits):
    grad_hidden = np.zeros(model._reference_shape)
    grad_hidden[model._reference_positions] = model.mlm_head.backward(grad_logits)
    model._reference.backward(grad_hidden)


# -- cases ---------------------------------------------------------------------------

MAX_LEN = 9

#: name -> per-row real-token counts (the grid is as wide as the longest row).
CASES = {
    "padded": [5, 3, 7, 2],
    "full_rows": [6, 6, 6],
    "batch_of_one": [4],
    "rows_at_max_len": [MAX_LEN, 4, MAX_LEN, 1],
}


def _batch(lengths, seed=0):
    rng = np.random.default_rng(seed)
    width = max(lengths)
    ids = np.full((len(lengths), width), TOKENIZER.pad_id, dtype=np.int64)
    mask = np.zeros((len(lengths), width))
    for row, length in enumerate(lengths):
        ids[row, 0] = TOKENIZER.cls_id
        ids[row, 1:length] = rng.integers(len(SPECIAL_TOKENS), len(TOKENIZER), length - 1)
        mask[row, :length] = 1.0
    return ids, mask


def _model(dropout, n_layers=3):
    model = MiniBert(
        TOKENIZER,
        BertConfig(d_model=16, n_heads=4, n_layers=n_layers, d_ff=24,
                   max_len=MAX_LEN, dropout=dropout, seed=3),
    )
    model.set_training(True)
    return model


def _dropout_states(model):
    return [
        module._rng.bit_generator.state
        for module in [model.encoder.drop]
        + [d for b in model.encoder.blocks for d in (b.drop1, b.drop2)]
    ]


def _mlm_positions(mask, seed=1):
    """A scattered ~40% of the real non-[CLS] positions, row-major."""
    rng = np.random.default_rng(seed)
    chosen = (mask > 0) & (rng.random(mask.shape) < 0.4)
    chosen[:, 0] = False
    chosen[0, 1] = True  # never empty
    return np.nonzero(chosen)


def _assert_close(actual, expected, what):
    np.testing.assert_allclose(actual, expected, rtol=0, atol=TOLERANCE, err_msg=what)


# -- the packed path equals the padded reference ----------------------------------


@pytest.mark.parametrize("dropout", [0.0, 0.2], ids=["no_dropout", "dropout"])
@pytest.mark.parametrize("case", sorted(CASES))
class TestMatchesPaddedReference:
    def test_encoder_layers_and_gradients(self, case, dropout):
        ids, mask = _batch(CASES[case])
        packed = _model(dropout)
        padded = copy.deepcopy(packed)
        states_before = _dropout_states(padded)
        reference = _ReferenceEncoder(padded.encoder)
        final, layers = packed.encoder.forward(ids, mask)
        _, ref_layers = reference.forward(ids, mask)
        assert _dropout_states(packed) == _dropout_states(padded)
        if dropout:
            assert _dropout_states(padded) != states_before

        real = mask > 0
        assert layers[-1] is final
        for layer, ref_layer in zip(layers, ref_layers):
            _assert_close(layer[real], ref_layer[real], "hidden state")
            assert np.all(layer[~real] == 0.0)

        grad = np.random.default_rng(2).normal(size=final.shape) * real[..., None]
        packed.zero_grad()
        padded.zero_grad()
        packed.encoder.backward(grad)
        reference.backward(grad)
        for p, q in zip(packed.parameters(), padded.parameters()):
            _assert_close(p.grad, q.grad, p.name)

    @pytest.mark.parametrize("head", ["classify", "mlm"])
    def test_one_training_step(self, case, dropout, head):
        ids, mask = _batch(CASES[case])
        packed = _model(dropout)
        padded = copy.deepcopy(packed)
        if head == "classify":
            labels = np.arange(len(ids)) % 2
            logits = packed.forward_classify(ids, mask)
            ref_logits = _reference_forward_classify(padded, ids, mask)
        else:
            positions = _mlm_positions(mask)
            labels = ids[positions]
            logits = packed.forward_mlm_at(ids, mask, positions)
            ref_logits = _reference_forward_mlm_at(padded, ids, mask, positions)
        assert _dropout_states(packed) == _dropout_states(padded)
        _assert_close(logits, ref_logits, "logits")

        _, grad = softmax_cross_entropy(logits, labels)
        packed.zero_grad()
        padded.zero_grad()
        if head == "classify":
            packed.backward_classify(grad)
            _reference_backward_classify(padded, grad)
        else:
            packed.backward_mlm(grad)
            _reference_backward_mlm(padded, grad)
        for p, q in zip(packed.parameters(), padded.parameters()):
            _assert_close(p.grad, q.grad, p.name)


class TestSelectedPositions:
    def test_positions_must_be_real_tokens_in_row_major_order(self):
        model = _model(0.0)
        ids, mask = _batch([4, 2])
        with pytest.raises(ValueError, match="real tokens"):
            model.forward_mlm_at(ids, mask, (np.array([1]), np.array([3])))
        with pytest.raises(ValueError, match="row-major"):
            model.forward_mlm_at(ids, mask, (np.array([1, 0]), np.array([0, 1])))

    def test_no_selected_position_still_draws_dropout(self):
        model = _model(0.3)
        padded = copy.deepcopy(model)
        ids, mask = _batch([4, 2])
        empty = (np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        logits = model.forward_mlm_at(ids, mask, empty)
        _reference_forward_mlm_at(padded, ids, mask, empty)
        assert logits.shape == (0, len(TOKENIZER))
        assert _dropout_states(model) == _dropout_states(padded)

    @pytest.mark.parametrize("head", ["classify", "mlm"])
    def test_finite_difference_gradients(self, head):
        model = _model(0.0, n_layers=2)
        ids, mask = _batch([5, 3, 6])
        labels = np.array([0, 1, 1])
        positions = _mlm_positions(mask, seed=4)

        def loss_and_grad():
            if head == "classify":
                logits = model.forward_classify(ids, mask)
                return softmax_cross_entropy(logits, labels)
            logits = model.forward_mlm_at(ids, mask, positions)
            return softmax_cross_entropy(logits, ids[positions])

        model.zero_grad()
        _, grad = loss_and_grad()
        if head == "classify":
            model.backward_classify(grad)
        else:
            model.backward_mlm(grad)

        rng = np.random.default_rng(3)
        eps = 1e-5
        reached = (
            model.classify_parameters() if head == "classify"
            else model.mlm_parameters()
        )
        for parameter in reached:
            flat = parameter.value.reshape(-1)
            grads = parameter.grad.reshape(-1)
            for _ in range(3):
                i = int(rng.integers(0, flat.size))
                orig = flat[i]
                flat[i] = orig + eps
                plus = loss_and_grad()[0]
                flat[i] = orig - eps
                minus = loss_and_grad()[0]
                flat[i] = orig
                numeric = (plus - minus) / (2 * eps)
                denom = max(1e-4, abs(numeric) + abs(grads[i]))
                assert abs(numeric - grads[i]) / denom < 1e-4, parameter.name


class TestWholeFineTune:
    def test_micro_lab_fine_tune_matches_reference(self, monkeypatch):
        lab = Lab(dataclasses.replace(MICRO_LAB_CONFIG, bert_layers=2))
        split = lab.ft_split(1)
        config = FineTuneConfig(epochs=2, learning_rate=1e-3, seed=0)
        packed = fine_tune(lab.bert, split.train.triples, config)
        monkeypatch.setattr(MiniBert, "forward_classify", _reference_forward_classify)
        monkeypatch.setattr(MiniBert, "backward_classify", _reference_backward_classify)
        padded = fine_tune(lab.bert, split.train.triples, config)
        probs = packed.predict_proba(split.test.triples)
        ref_probs = padded.predict_proba(split.test.triples)
        np.testing.assert_allclose(probs, ref_probs, rtol=0, atol=1e-9)
        assert np.array_equal(probs >= 0.5, ref_probs >= 0.5)
        assert packed.history[-1]["train_loss"] == pytest.approx(
            padded.history[-1]["train_loss"], rel=1e-10
        )


# -- optimiser parameter sets --------------------------------------------------------


def _parameter_bytes(model):
    return b"".join(p.value.tobytes() for p in model.parameters())


class TestObjectiveParameters:
    def test_heads_left_out(self):
        model = _model(0.0)
        classify = {id(p) for p in model.classify_parameters()}
        mlm = {id(p) for p in model.mlm_parameters()}
        assert not classify & {id(p) for p in model.mlm_head.parameters()}
        assert not mlm & {id(p) for p in model.pooler.parameters()}
        assert not mlm & {id(p) for p in model.classifier.parameters()}
        everything = {id(p) for p in model.parameters()}
        assert classify | mlm == everything

    def test_fine_tune_bytes_equal_with_every_parameter(self, monkeypatch):
        pretrained = _model(0.1)
        triples = _triples(24)
        config = FineTuneConfig(epochs=2, batch_size=8, learning_rate=1e-3, seed=0)
        excluded = fine_tune(pretrained, triples, config)
        monkeypatch.setattr(MiniBert, "classify_parameters", MiniBert.parameters)
        every = fine_tune(pretrained, triples, config)
        assert _parameter_bytes(excluded.model) == _parameter_bytes(every.model)

    def test_pretrain_bytes_equal_with_every_parameter(self, monkeypatch):
        sentences = [[f"w{(i * 7 + j) % 40}" for j in range(3 + i % 5)] for i in range(30)]
        bert = BertConfig(d_model=16, n_heads=2, n_layers=2, d_ff=24, max_len=MAX_LEN, seed=1)
        config = PretrainConfig(epochs=2, batch_size=8, seed=1)
        excluded = pretrain_mlm(sentences, TOKENIZER, bert, config)
        monkeypatch.setattr(MiniBert, "mlm_parameters", MiniBert.parameters)
        every = pretrain_mlm(sentences, TOKENIZER, bert, config)
        assert _parameter_bytes(excluded) == _parameter_bytes(every)


def _triples(n):
    return [
        LabeledTriple(f"s{i}", f"w{i % 9} w{i % 4}", IS_A, f"o{i}", f"w{i % 7}", i % 2)
        for i in range(n)
    ]
