"""The mini-BERT model: encoder + MLM head + classification head.

Mirrors the structure of BERT-style encoders: a bidirectional transformer
over WordPiece ids with an MLM head for pretraining and a tanh pooler +
softmax classifier for fine-tuning (paper Section 2.5: "a feed-forward
neural network [...] passed through a softmax layer").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bert.wordpiece import WordPieceTokenizer
from repro.nn.layers import Linear, Module, Parameter
from repro.nn.transformer import TransformerConfig, TransformerEncoder
from repro.utils.rng import stable_hash


@dataclass(frozen=True)
class BertConfig:
    """Mini-BERT shape.  ``n_layers=4`` lets the contextual-embedding model
    sum the last four hidden layers as PubmedBERT embeddings do."""

    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 4
    d_ff: int = 128
    max_len: int = 64
    dropout: float = 0.1
    n_classes: int = 2
    seed: int = 0

    def transformer_config(self, vocab_size: int) -> TransformerConfig:
        return TransformerConfig(
            vocab_size=vocab_size,
            d_model=self.d_model,
            n_heads=self.n_heads,
            n_layers=self.n_layers,
            d_ff=self.d_ff,
            max_len=self.max_len,
            dropout=self.dropout,
            seed=self.seed,
        )


def pad_all(
    sequences: Sequence[Sequence[int]], pad_id: int, max_len: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad every id sequence into one ``(n, width)`` rectangle.

    Returns ``(ids, mask, lengths)`` where ``width`` is the longest (clipped)
    sequence.  Training loops build this once and slice per-batch row/column
    windows out of it, instead of re-padding Python lists every batch; a
    batch sliced to its own max length is identical to what
    :meth:`MiniBert.pad_batch` would have produced for the same rows.
    """
    if not sequences:
        raise ValueError("cannot pad an empty batch")
    lengths = np.minimum(
        np.fromiter((len(s) for s in sequences), dtype=np.int64, count=len(sequences)),
        max_len,
    )
    width = int(lengths.max())
    ids = np.full((len(sequences), width), pad_id, dtype=np.int64)
    inside = np.arange(width)[None, :] < lengths[:, None]
    ids[inside] = np.fromiter(
        (piece for s in sequences for piece in list(s)[:max_len]),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    return ids, inside.astype(np.float64), lengths


class MiniBert(Module):
    """Encoder with MLM and classification heads sharing one body."""

    def __init__(self, tokenizer: WordPieceTokenizer, config: Optional[BertConfig] = None):
        super().__init__()
        self.config = config or BertConfig()
        self.tokenizer = tokenizer
        self.encoder = TransformerEncoder(
            self.config.transformer_config(len(tokenizer))
        )
        seed = stable_hash(self.config.seed, "heads")
        self.mlm_head = Linear(
            self.config.d_model, len(tokenizer), seed=seed, name="mlm_head"
        )
        self.pooler = Linear(
            self.config.d_model, self.config.d_model, seed=seed, name="pooler"
        )
        self.classifier = Linear(
            self.config.d_model, self.config.n_classes, seed=seed, name="classifier"
        )
        self._cls_cache = None

    # -- batching ----------------------------------------------------------

    def pad_batch(
        self, sequences: Sequence[Sequence[int]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Pad id sequences to a rectangle; returns ``(ids, mask)``."""
        ids, mask, _ = pad_all(sequences, self.tokenizer.pad_id, self.config.max_len)
        return ids, mask

    # -- trainable parameters ----------------------------------------------

    def mlm_parameters(self) -> List[Parameter]:
        """Parameters the MLM objective reaches: all but the classifier head."""
        return self._parameters_except(self.pooler, self.classifier)

    def classify_parameters(self) -> List[Parameter]:
        """Parameters the classification objective reaches: all but the MLM head."""
        return self._parameters_except(self.mlm_head)

    def _parameters_except(self, *heads: Module) -> List[Parameter]:
        skip = {id(p) for head in heads for p in head.parameters()}
        return [p for p in self.parameters() if id(p) not in skip]

    # -- MLM path ------------------------------------------------------------

    def forward_mlm_at(
        self, ids: np.ndarray, mask: np.ndarray, positions: Tuple[np.ndarray, np.ndarray]
    ) -> np.ndarray:
        """Vocabulary logits only at ``positions`` (``(rows, cols)`` arrays of
        real tokens in row-major order, as :func:`numpy.nonzero` returns).

        MLM loss touches ~15% of positions; the encoder's last block and the
        vocabulary head run at just those, which computes the same loss and
        gradients as scoring every position with the rest ignored.
        """
        final, _ = self.encoder.forward(ids, mask, positions)
        return self.mlm_head.forward(final)

    def backward_mlm(self, grad_logits: np.ndarray) -> None:
        self.encoder.backward(self.mlm_head.backward(grad_logits))

    # -- classification path ---------------------------------------------------

    def forward_classify(self, ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Class logits from the pooled ``[CLS]`` representation."""
        batch = ids.shape[0]
        cls = (np.arange(batch), np.zeros(batch, dtype=np.int64))
        final, _ = self.encoder.forward(ids, mask, cls)
        pooled = np.tanh(self.pooler.forward(final))
        self._cls_cache = pooled
        return self.classifier.forward(pooled)

    def backward_classify(self, grad_logits: np.ndarray) -> None:
        if self._cls_cache is None:
            raise RuntimeError("backward_classify called before forward_classify")
        grad_pooled = self.classifier.backward(grad_logits)
        grad_pre = grad_pooled * (1.0 - self._cls_cache**2)  # tanh'
        self.encoder.backward(self.pooler.backward(grad_pre))

    # -- feature extraction ------------------------------------------------------

    def hidden_layers(self, ids: np.ndarray, mask: np.ndarray) -> List[np.ndarray]:
        """All per-block hidden states (used for last-4-layer embeddings);
        padding rows are zero."""
        _, layers = self.encoder.forward(ids, mask)
        return layers

    def cls_embedding(self, words: Sequence[str], n_last_layers: int = 4) -> np.ndarray:
        """Sum of the ``[CLS]`` vectors over the last ``n_last_layers`` blocks.

        This is the paper's PubmedBERT entity representation (Section 2.3).
        Runs in eval mode and restores the caller's mode afterwards.
        """
        ids = self.tokenizer.encode(words, max_len=self.config.max_len)
        batch_ids, batch_mask = self.pad_batch([ids])
        was_training = self.training
        if was_training:
            self.set_training(False)
        layers = self.hidden_layers(batch_ids, batch_mask)
        if was_training:
            self.set_training(True)
        take = min(n_last_layers, len(layers))
        return sum(layer[0, 0, :] for layer in layers[-take:])


__all__ = ["BertConfig", "MiniBert", "pad_all"]
