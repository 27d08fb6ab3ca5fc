"""Masked-language-model pretraining (BERT's self-supervision).

PubmedBERT was pretrained from scratch on the PubMed corpus; here the
mini-BERT is pretrained on the synthetic chemistry corpus with standard MLM
dynamics: 15% of positions are selected, of which 80% become ``[MASK]``, 10%
a random piece and 10% stay unchanged; the model predicts the original piece
at the selected positions only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.bert.model import BertConfig, MiniBert, pad_all
from repro.bert.wordpiece import WordPieceTokenizer
from repro.nn.losses import softmax_cross_entropy
from repro.nn.optim import Adam, clip_gradients
from repro.obs.progress import StageProgress, emit
from repro.obs.trace import span
from repro.utils.rng import SeedLike, derive_rng

_IGNORE = -100  # label value for positions that carry no MLM loss


@dataclass(frozen=True)
class PretrainConfig:
    """MLM pretraining hyperparameters."""

    epochs: int = 3
    batch_size: int = 32
    learning_rate: float = 1e-3
    mask_probability: float = 0.15
    max_grad_norm: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not 0.0 < self.mask_probability < 1.0:
            raise ValueError("mask_probability must be in (0, 1)")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


def _apply_masking(
    ids: np.ndarray,
    mask: np.ndarray,
    tokenizer: WordPieceTokenizer,
    mask_probability: float,
    rng: np.random.Generator,
    maskable: Optional[np.ndarray] = None,
):
    """BERT's 80/10/10 masking.  Returns ``(masked_ids, labels)``.

    ``maskable`` (real, non-special positions) may be precomputed once for
    the whole corpus and sliced per batch; recomputing it here draws the
    same RNG stream either way, so both call styles produce identical
    maskings.
    """
    labels = np.full(ids.shape, _IGNORE, dtype=np.int64)
    masked = ids.copy()
    if maskable is None:
        maskable = (mask > 0) & ~np.isin(ids, tokenizer.special_ids())
    selected = maskable & (rng.random(ids.shape) < mask_probability)
    labels[selected] = ids[selected]

    action = rng.random(ids.shape)
    to_mask = selected & (action < 0.8)
    to_random = selected & (action >= 0.8) & (action < 0.9)
    masked[to_mask] = tokenizer.mask_id
    n_random = int(to_random.sum())
    if n_random:
        masked[to_random] = rng.integers(
            len(tokenizer.special_ids()), len(tokenizer), size=n_random
        )
    return masked, labels


def pretrain_mlm(
    sentences: Sequence[Sequence[str]],
    tokenizer: WordPieceTokenizer,
    bert_config: Optional[BertConfig] = None,
    config: Optional[PretrainConfig] = None,
) -> MiniBert:
    """Pretrain a :class:`MiniBert` on tokenised sentences with MLM.

    Returns the pretrained model (in eval mode).  The per-epoch mean loss is
    recorded on the returned model as ``model.pretrain_losses`` so callers
    and tests can verify the loss decreased.
    """
    config = config or PretrainConfig()
    model = MiniBert(tokenizer, bert_config)
    rng = derive_rng(config.seed, "mlm-pretrain")
    # The classifier head gets no gradient here; leaving it out of the
    # optimiser changes no trained value (its Adam updates would all be zero).
    parameters = model.mlm_parameters()
    optimizer = Adam(parameters, lr=config.learning_rate)

    encoded = [
        tokenizer.encode(sentence, max_len=model.config.max_len)
        for sentence in sentences
        if sentence
    ]
    encoded = [ids for ids in encoded if len(ids) > 2]
    if not encoded:
        raise ValueError("no usable sentences for pretraining")

    # Pad the whole corpus once; every batch is a row window sliced to its
    # own max length, which matches what per-batch pad_batch produced (and
    # therefore keeps the masking RNG draw shapes, hence the stream, intact).
    all_ids, all_mask, lengths = pad_all(
        encoded, tokenizer.pad_id, model.config.max_len
    )
    all_maskable = (all_mask > 0) & ~np.isin(all_ids, tokenizer.special_ids())

    losses: List[float] = []
    model.set_training(True)
    with span(
        "bert.pretrain", epochs=config.epochs, sentences=len(encoded)
    ) as sp, StageProgress("bert.pretrain", unit="steps") as progress:
        for epoch in range(config.epochs):
            order = rng.permutation(len(encoded))
            epoch_losses: List[float] = []
            for start in range(0, len(encoded), config.batch_size):
                rows = order[start : start + config.batch_size]
                width = int(lengths[rows].max())
                ids = all_ids[rows, :width]
                mask = all_mask[rows, :width]
                masked_ids, labels = _apply_masking(
                    ids, mask, tokenizer, config.mask_probability, rng,
                    maskable=all_maskable[rows, :width],
                )
                # Only ~15% of positions carry MLM loss; the last encoder
                # block and the vocabulary head run at just those.  The
                # forward runs even when none is selected, so the dropout
                # streams advance exactly as on every other step.
                positions = np.nonzero(labels != _IGNORE)
                logits = model.forward_mlm_at(masked_ids, mask, positions)
                sp.incr("steps")
                progress.advance(1)
                if positions[0].size == 0:
                    continue  # no position was selected in this batch
                loss, grad = softmax_cross_entropy(logits, labels[positions])
                for parameter in parameters:
                    parameter.zero_grad()
                model.backward_mlm(grad)
                clip_gradients(parameters, config.max_grad_norm)
                optimizer.step()
                epoch_losses.append(loss)
            losses.append(
                float(np.mean(epoch_losses)) if epoch_losses else float("nan")
            )
            emit("bert.pretrain", epoch=epoch, loss=losses[-1])
        if losses:
            sp.gauge("final_loss", losses[-1])

    model.set_training(False)
    model.pretrain_losses = losses
    return model


__all__ = ["PretrainConfig", "pretrain_mlm"]
