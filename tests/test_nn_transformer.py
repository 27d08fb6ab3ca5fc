"""End-to-end gradient check of the transformer encoder + loss/optim tests."""

import numpy as np
import pytest

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import Linear, Packing
from repro.nn.losses import softmax_cross_entropy
from repro.nn.optim import SGD, Adam, clip_gradients
from repro.nn.transformer import TransformerConfig, TransformerEncoder


class TestAttention:
    def test_output_shape(self):
        attn = MultiHeadSelfAttention(8, 2, seed=1)
        x = np.random.default_rng(0).normal(size=(10, 8))  # 2 rows x 5 tokens
        out = attn.forward(x, Packing.of_mask(np.ones((2, 5))))
        assert out.shape == (10, 8)

    def test_d_model_divisibility(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(7, 2)

    def test_padding_mask_blocks_keys(self):
        attn = MultiHeadSelfAttention(8, 2, seed=1)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 8))  # the two real tokens of one row
        out_unpadded = attn.forward(x, Packing.of_mask(np.array([[1.0, 1.0]])))
        # Padding positions on the grid must not change the real outputs.
        mask = np.array([[1.0, 1.0, 0.0, 0.0]])
        out_padded = attn.forward(x, Packing.of_mask(mask))
        assert np.allclose(out_unpadded, out_padded)


class TestTransformerGradients:
    def test_full_gradient_check(self):
        config = TransformerConfig(
            vocab_size=20, d_model=8, n_heads=2, n_layers=2, d_ff=16,
            max_len=10, dropout=0.0, seed=1,
        )
        encoder = TransformerEncoder(config)
        head = Linear(8, 3, seed=2)
        ids = np.array([[1, 2, 3, 4, 0, 0], [5, 6, 7, 8, 9, 2]])
        mask = np.array([[1, 1, 1, 1, 0, 0], [1, 1, 1, 1, 1, 1]], dtype=float)
        labels = np.array([0, 2])

        def loss_fn():
            final, _ = encoder.forward(ids, mask)
            logits = head.forward(final[:, 0, :])
            return softmax_cross_entropy(logits, labels)[0]

        encoder.zero_grad()
        head.zero_grad()
        final, _ = encoder.forward(ids, mask)
        logits = head.forward(final[:, 0, :])
        _, grad = softmax_cross_entropy(logits, labels)
        grad_cls = head.backward(grad)
        grad_final = np.zeros_like(final)
        grad_final[:, 0, :] = grad_cls
        encoder.backward(grad_final)

        rng = np.random.default_rng(3)
        eps = 1e-5
        for parameter in encoder.parameters() + head.parameters():
            flat = parameter.value.reshape(-1)
            grads = parameter.grad.reshape(-1)
            for _ in range(3):
                i = int(rng.integers(0, flat.size))
                orig = flat[i]
                flat[i] = orig + eps
                plus = loss_fn()
                flat[i] = orig - eps
                minus = loss_fn()
                flat[i] = orig
                numeric = (plus - minus) / (2 * eps)
                denom = max(1e-4, abs(numeric) + abs(grads[i]))
                assert abs(numeric - grads[i]) / denom < 1e-4, parameter.name

    def test_layer_outputs_returned(self):
        config = TransformerConfig(vocab_size=10, d_model=8, n_heads=2,
                                   n_layers=3, d_ff=16, max_len=8, dropout=0.0)
        encoder = TransformerEncoder(config)
        final, layers = encoder.forward(np.array([[1, 2, 3]]))
        assert len(layers) == 3
        assert layers[-1] is final

    def test_sequence_length_guard(self):
        config = TransformerConfig(vocab_size=10, d_model=8, n_heads=2,
                                   n_layers=1, d_ff=16, max_len=4)
        encoder = TransformerEncoder(config)
        with pytest.raises(ValueError, match="max_len"):
            encoder.forward(np.zeros((1, 6), dtype=int))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((2, 4))
        loss, grad = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss == pytest.approx(np.log(4))
        assert grad.shape == logits.shape

    def test_ignore_index(self):
        logits = np.random.default_rng(0).normal(size=(3, 4))
        labels = np.array([0, -100, 2])
        loss, grad = softmax_cross_entropy(logits, labels, ignore_index=-100)
        assert np.allclose(grad[1], 0.0)
        assert loss > 0

    def test_all_ignored(self):
        logits = np.ones((2, 3))
        loss, grad = softmax_cross_entropy(
            logits, np.array([-100, -100]), ignore_index=-100
        )
        assert loss == 0.0
        assert np.all(grad == 0)

    def test_gradient_sums_to_zero_per_row(self):
        logits = np.random.default_rng(0).normal(size=(4, 5))
        _, grad = softmax_cross_entropy(logits, np.array([0, 1, 2, 3]))
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)


class TestOptim:
    def test_sgd_descends_quadratic(self):
        from repro.nn.layers import Parameter

        parameter = Parameter(np.array([5.0]))
        opt = SGD([parameter], lr=0.1)
        for _ in range(100):
            parameter.zero_grad()
            parameter.grad += 2 * parameter.value  # d/dx x^2
            opt.step()
        assert abs(parameter.value[0]) < 1e-4

    def test_adam_descends_quadratic(self):
        from repro.nn.layers import Parameter

        parameter = Parameter(np.array([5.0]))
        opt = Adam([parameter], lr=0.3)
        for _ in range(200):
            parameter.zero_grad()
            parameter.grad += 2 * parameter.value
            opt.step()
        assert abs(parameter.value[0]) < 1e-3

    def test_momentum(self):
        from repro.nn.layers import Parameter

        parameter = Parameter(np.array([1.0]))
        opt = SGD([parameter], lr=0.1, momentum=0.9)
        parameter.grad += 1.0
        opt.step()
        first = parameter.value.copy()
        parameter.zero_grad()
        parameter.grad += 0.0
        opt.step()  # momentum keeps moving
        assert parameter.value[0] < first[0]

    def test_clip_gradients(self):
        from repro.nn.layers import Parameter

        parameter = Parameter(np.zeros(4))
        parameter.grad += 10.0
        norm = clip_gradients([parameter], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(parameter.grad) == pytest.approx(1.0, rel=1e-6)

    def test_clip_noop_under_norm(self):
        from repro.nn.layers import Parameter

        parameter = Parameter(np.zeros(4))
        parameter.grad += 0.1
        clip_gradients([parameter], max_norm=10.0)
        assert np.allclose(parameter.grad, 0.1)
