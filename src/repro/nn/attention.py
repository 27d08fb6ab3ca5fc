"""Multi-head self-attention over packed token rows, with manual backprop.

The encoder never computes padding: its activations are one ``(n, d)``
block holding only the real tokens of a ``(batch, seq)`` grid, row-major,
and a :class:`~repro.nn.layers.Packing` records where each row sits.
Attention is the one layer that needs the grid: it scatters keys and values
into ``(B, H, T, dh)`` and the queries into ``(B, H, W, dh)`` (each batch
row's queries packed to the left, ``W`` the most any row has), scores
``(B, H, W, T)`` with padding keys masked out, and gathers the context rows
back.  The query and key/value projections are two matmuls over the fused
``qkv`` weight, so a caller that reads few positions projects queries for
those rows only.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers import Linear, Module, Packing
from repro.utils.rng import SeedLike


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


class MultiHeadSelfAttention(Module):
    """Standard scaled dot-product multi-head self-attention.

    :meth:`forward` takes the packed rows ``x`` (``(n, d_model)``) and their
    :class:`Packing`.  Every row is a key and value; padding positions are
    masked out as keys.  ``queries`` (a :meth:`Packing.select` of ``keys``)
    restricts the query rows, and so the output, to the positions a caller
    reads; by default every row is a query.
    """

    def __init__(self, d_model: int, n_heads: int, seed: SeedLike = 0,
                 name: str = "attention"):
        super().__init__()
        if d_model % n_heads != 0:
            raise ValueError(
                f"d_model={d_model} must be divisible by n_heads={n_heads}"
            )
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        self.qkv = Linear(d_model, 3 * d_model, seed=seed, name=f"{name}.qkv")
        self.out = Linear(d_model, d_model, seed=seed, name=f"{name}.out")
        self._cache = None

    def _to_heads(
        self, rows: np.ndarray, at: np.ndarray, batch: int, width: int, parts: int
    ) -> np.ndarray:
        """Packed ``(n, parts * d)`` rows, placed at flat positions ``at`` of a
        zero ``(batch, width)`` grid, as ``(parts, batch, H, width, dh)``."""
        grid = np.zeros((batch * width, rows.shape[1]))
        grid[at] = rows
        heads = grid.reshape(batch, width, parts, self.n_heads, self.d_head)
        return heads.transpose(2, 0, 3, 1, 4)

    def _from_heads(self, heads: np.ndarray, at: np.ndarray) -> np.ndarray:
        """``(batch, H, width, dh)`` → the ``(n, d)`` rows at flat positions ``at``."""
        batch, _, width, _ = heads.shape
        merged = heads.transpose(0, 2, 1, 3).reshape(batch * width, self.d_model)
        return merged[at]

    def forward(
        self, x: np.ndarray, keys: Packing, queries: Optional[Packing] = None
    ) -> np.ndarray:
        queries = queries or keys
        d = self.d_model
        batch, seq = keys.shape
        weight, bias = self.qkv.weight.value, self.qkv.bias.value
        x_q = queries.take(x)
        q = self._to_heads(
            x_q @ weight[:, :d] + bias[:d], queries.slots, batch, queries.width, 1
        )[0]  # (B, H, W, dh)
        k, v = self._to_heads(
            x @ weight[:, d:] + bias[d:], keys.index, batch, seq, 2
        )  # each (B, H, T, dh)

        scale = 1.0 / np.sqrt(self.d_head)
        scores = (q @ k.swapaxes(-1, -2)) * scale  # (B, H, W, T)
        key_mask = np.zeros(batch * seq, dtype=bool)
        key_mask[keys.index] = True
        scores = np.where(key_mask.reshape(batch, 1, 1, seq), scores, -1e9)
        attn = _softmax(scores, axis=-1)
        context = self._from_heads(attn @ v, queries.slots)
        self._cache = (x, x_q, keys, queries, q, k, v, attn, scale)
        return self.out.forward(context)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x, x_q, keys, queries, q, k, v, attn, scale = self._cache
        d = self.d_model
        batch = keys.shape[0]
        grad_context = self._to_heads(
            self.out.backward(grad), queries.slots, batch, queries.width, 1
        )[0]

        grad_attn = grad_context @ v.swapaxes(-1, -2)
        grad_v = attn.swapaxes(-1, -2) @ grad_context

        # Softmax backward: dL/ds = attn * (dL/da - sum(dL/da * attn)).
        dot = (grad_attn * attn).sum(axis=-1, keepdims=True)
        grad_scores = attn * (grad_attn - dot)
        # Masked (-1e9) keys have attn exactly 0, so their gradient vanishes;
        # empty query slots carry a zero grad_context and contribute nothing.

        grad_q = self._from_heads((grad_scores @ k) * scale, queries.slots)
        grad_k = (grad_scores.swapaxes(-1, -2) @ q) * scale
        grad_kv = np.concatenate(
            [self._from_heads(grad_k, keys.index), self._from_heads(grad_v, keys.index)],
            axis=1,
        )

        weight = self.qkv.weight
        weight.grad[:, :d] += x_q.T @ grad_q
        weight.grad[:, d:] += x.T @ grad_kv
        self.qkv.bias.grad[:d] += grad_q.sum(axis=0)
        self.qkv.bias.grad[d:] += grad_kv.sum(axis=0)
        return queries.add_into(
            grad_kv @ weight.value[:, d:].T, grad_q @ weight.value[:, :d].T
        )


__all__ = ["MultiHeadSelfAttention"]
