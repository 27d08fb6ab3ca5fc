"""Transformer encoder (pre-LayerNorm) built from the nn layers.

The encoder exposes *all* layer outputs from its forward pass because the
paper's PubmedBERT-embedding model sums the last four hidden layers of the
``[CLS]`` token (Section 2.3); :class:`repro.embeddings.contextual` consumes
them.

The encoder is padding-free.  :meth:`TransformerEncoder.forward` packs the
real tokens (``mask > 0``) of the ``(batch, seq)`` grid into one
``(n_valid, d_model)`` row block, row-major, and embeddings, LayerNorm, the
linear maps, GELU, dropout and the residuals run on those rows only; the
attention layer alone places them on the grid (see
:mod:`repro.nn.attention`).  Dropout still draws its uniform block for the
whole ``(batch, seq, d_model)`` grid and keeps the packed entries, so the
random stream and the mask of every real token match a padded pass.  The
last block computes its queries, output projection and feed-forward part
only at the positions the caller reads, and :meth:`TransformerEncoder.backward`
takes gradients for those rows alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import (
    Dropout,
    Embedding,
    GELU,
    LayerNorm,
    Linear,
    Module,
    Packing,
)
from repro.utils.rng import SeedLike, derive_rng, stable_hash


@dataclass(frozen=True)
class TransformerConfig:
    """Mini-BERT encoder shape.

    Defaults give a ~200k-parameter model that pretrains in seconds on the
    synthetic corpus while preserving the architecture of the real thing.
    """

    vocab_size: int = 2_000
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 128
    max_len: int = 64
    dropout: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.vocab_size < 5:
            raise ValueError("vocab_size too small")
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")
        if self.n_layers < 1 or self.d_ff < 1 or self.max_len < 2:
            raise ValueError("n_layers, d_ff, max_len must be positive")


class FeedForward(Module):
    """Position-wise feed-forward block: Linear → GELU → Linear."""

    def __init__(self, d_model: int, d_ff: int, seed: SeedLike = 0,
                 name: str = "ffn"):
        super().__init__()
        self.fc1 = Linear(d_model, d_ff, seed=seed, name=f"{name}.fc1")
        self.act = GELU()
        self.fc2 = Linear(d_ff, d_model, seed=seed, name=f"{name}.fc2")

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.fc2.forward(self.act.forward(self.fc1.forward(x)))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return self.fc1.backward(self.act.backward(self.fc2.backward(grad)))


class EncoderBlock(Module):
    """Pre-LN transformer block: x + Attn(LN(x)); x + FFN(LN(x))."""

    def __init__(self, config: TransformerConfig, index: int):
        super().__init__()
        seed = stable_hash(config.seed, "block", index)
        self.ln1 = LayerNorm(config.d_model, name=f"block{index}.ln1")
        self.attn = MultiHeadSelfAttention(
            config.d_model, config.n_heads, seed=seed, name=f"block{index}.attn"
        )
        self.drop1 = Dropout(config.dropout, seed=seed, name=f"block{index}.drop1")
        self.ln2 = LayerNorm(config.d_model, name=f"block{index}.ln2")
        self.ffn = FeedForward(
            config.d_model, config.d_ff, seed=seed, name=f"block{index}.ffn"
        )
        self.drop2 = Dropout(config.dropout, seed=seed, name=f"block{index}.drop2")
        self._queries: Optional[Packing] = None

    def forward(
        self, x: np.ndarray, keys: Packing, queries: Optional[Packing] = None
    ) -> np.ndarray:
        """Packed rows ``x`` (laid out by ``keys``) → the block output at
        ``queries`` (a :meth:`Packing.select` of ``keys``; default: every row)."""
        queries = queries or keys
        self._queries = queries
        attended = self.attn.forward(self.ln1.forward(x), keys, queries)
        x = queries.take(x) + self.drop1.forward(attended, queries)
        x = x + self.drop2.forward(self.ffn.forward(self.ln2.forward(x)), queries)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad_ffn = self.ln2.backward(
            self.ffn.backward(self.drop2.backward(grad))
        )
        grad = grad + grad_ffn
        grad_attn = self.ln1.backward(
            self.attn.backward(self.drop1.backward(grad))
        )
        return self._queries.add_into(grad_attn, grad)


class TransformerEncoder(Module):
    """Token + position embeddings followed by pre-LN encoder blocks.

    :meth:`forward` returns ``(final, layers)``: the per-block hidden states
    at the read positions, the last after the final LayerNorm, so
    ``layers[-1] is final``.  Reading every position (the default), each is a
    ``(batch, seq, d_model)`` grid whose padding rows are zero; reading
    selected ``positions``, each is ``(len(positions[0]), d_model)`` in the
    order given.
    """

    def __init__(self, config: TransformerConfig):
        super().__init__()
        self.config = config
        self.token_emb = Embedding(
            config.vocab_size, config.d_model, seed=config.seed, name="token_emb"
        )
        self.pos_emb = Embedding(
            config.max_len, config.d_model, seed=config.seed + 1, name="pos_emb"
        )
        self.drop = Dropout(config.dropout, seed=config.seed, name="emb_drop")
        self.blocks = [EncoderBlock(config, i) for i in range(config.n_layers)]
        self.final_ln = LayerNorm(config.d_model, name="final_ln")
        self._read: Optional[Packing] = None

    def forward(
        self,
        ids: np.ndarray,
        mask: Optional[np.ndarray] = None,
        positions: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Encode ``ids`` (``(batch, seq)``); ``mask`` marks real tokens.

        ``positions`` — ``(rows, cols)`` index arrays of real tokens in
        row-major order, such as :func:`numpy.nonzero` returns — names the
        only positions whose hidden states the caller reads; the last block
        then runs its queries and feed-forward part there alone.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 2:
            raise ValueError(f"ids must be (batch, seq), got shape {ids.shape}")
        batch, seq = ids.shape
        if seq > self.config.max_len:
            raise ValueError(
                f"sequence length {seq} exceeds max_len {self.config.max_len}"
            )
        keys = Packing.of_mask(np.ones((batch, seq)) if mask is None else mask)
        read = keys
        if positions is not None:
            read = keys.select(np.ravel_multi_index(positions, (batch, seq)))
        x = self.token_emb.forward(ids.reshape(-1)[keys.index])
        x = x + self.pos_emb.forward(keys.index % seq)
        x = self.drop.forward(x, keys)
        layers: List[np.ndarray] = []
        for block in self.blocks[:-1]:
            x = block.forward(x, keys)
            layers.append(read.take(x))
        x = self.final_ln.forward(self.blocks[-1].forward(x, keys, read))
        layers.append(x)
        self._read = read
        if positions is None:
            layers = [self._to_grid(layer) for layer in layers]
        return layers[-1], layers

    def _to_grid(self, rows: np.ndarray) -> np.ndarray:
        """Packed rows → a ``(batch, seq, d)`` grid with zero padding rows."""
        batch, seq = self._read.shape
        grid = np.zeros((batch * seq, rows.shape[-1]))
        grid[self._read.index] = rows
        return grid.reshape(batch, seq, -1)

    def backward(self, grad: np.ndarray) -> None:
        """Backpropagate ``grad`` of ``final`` (in the layout ``forward``
        returned it; padding rows of a grid carry no gradient)."""
        if self._read is None:
            raise RuntimeError("backward called before forward")
        if grad.ndim == 3:
            grad = grad.reshape(-1, grad.shape[-1])[self._read.index]
        grad = self.final_ln.backward(grad)
        for block in reversed(self.blocks):
            grad = block.backward(grad)
        grad = self.drop.backward(grad)
        self.token_emb.backward(grad)
        self.pos_emb.backward(grad)


__all__ = ["TransformerConfig", "FeedForward", "EncoderBlock", "TransformerEncoder"]
