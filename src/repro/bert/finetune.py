"""Fine-tuning the mini-BERT for triple classification (paper Section 2.5).

Triples are rendered as ``[CLS] subject [SEP] relation [SEP] object [SEP]``
WordPiece sequences; the pooled ``[CLS]`` representation feeds a softmax
classifier trained with cross-entropy and Adam (the paper uses lr 1e-4,
3 epochs).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.bert.model import MiniBert, pad_all
from repro.core.triples import LabeledTriple
from repro.nn.losses import softmax_cross_entropy
from repro.nn.optim import Adam, clip_gradients
from repro.obs.progress import StageProgress, emit
from repro.obs.trace import span
from repro.text.tokenizer import ChemTokenizer
from repro.utils.rng import derive_rng


@dataclass(frozen=True)
class FineTuneConfig:
    """Fine-tuning hyperparameters (paper Section 3.4)."""

    epochs: int = 3
    batch_size: int = 32
    learning_rate: float = 1e-4
    max_grad_norm: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


_TOKENIZER = ChemTokenizer()


def triple_to_words(triple: LabeledTriple) -> List[str]:
    """Word sequence for one triple, with ``[SEP]`` between components.

    Components are tokenised with the chemical tokenizer so the words match
    the distribution the WordPiece vocabulary was trained on (hyphenated
    IUPAC names would otherwise fall through to ``[UNK]``).
    """
    words: List[str] = []
    words.extend(_TOKENIZER(triple.subject_name) or [triple.subject_name.lower()])
    words.append("[SEP]")
    words.extend(_TOKENIZER(triple.relation.label) or [triple.relation.name])
    words.append("[SEP]")
    words.extend(_TOKENIZER(triple.object_name) or [triple.object_name.lower()])
    return words


class FineTunedClassifier:
    """A fine-tuned mini-BERT exposing predict / predict_proba over triples."""

    def __init__(self, model: MiniBert):
        self.model = model
        self.history: List[dict] = []

    def _encode(self, triples: Sequence[LabeledTriple]) -> List[List[int]]:
        tokenizer = self.model.tokenizer
        max_len = self.model.config.max_len
        sequences = []
        for triple in triples:
            words = triple_to_words(triple)
            # encode word-by-word so the literal "[SEP]" words map to the
            # special id rather than being WordPiece-split.
            ids = [tokenizer.cls_id]
            for word in words:
                if word == "[SEP]":
                    ids.append(tokenizer.sep_id)
                else:
                    ids.extend(tokenizer.encode_word(word))
            ids.append(tokenizer.sep_id)
            if len(ids) > max_len:
                ids = ids[: max_len - 1] + [tokenizer.sep_id]
            sequences.append(ids)
        return sequences

    def predict_proba(
        self, triples: Sequence[LabeledTriple], batch_size: int = 64
    ) -> np.ndarray:
        """Positive-class probability for each triple."""
        if not triples:
            raise ValueError("no triples to classify")
        sequences = self._encode(triples)
        all_ids, all_mask, lengths = pad_all(
            sequences, self.model.tokenizer.pad_id, self.model.config.max_len
        )
        self.model.set_training(False)
        probs: List[np.ndarray] = []
        for start in range(0, len(sequences), batch_size):
            stop = start + batch_size
            width = int(lengths[start:stop].max())
            ids = all_ids[start:stop, :width]
            mask = all_mask[start:stop, :width]
            logits = self.model.forward_classify(ids, mask)
            shifted = logits - logits.max(axis=1, keepdims=True)
            exp = np.exp(shifted)
            probs.append((exp / exp.sum(axis=1, keepdims=True))[:, 1])
        return np.concatenate(probs)

    def predict(self, triples: Sequence[LabeledTriple]) -> np.ndarray:
        """Hard 0/1 predictions."""
        return (self.predict_proba(triples) >= 0.5).astype(np.int64)


def fine_tune(
    pretrained: MiniBert,
    train_triples: Sequence[LabeledTriple],
    config: Optional[FineTuneConfig] = None,
    validation_triples: Optional[Sequence[LabeledTriple]] = None,
) -> FineTunedClassifier:
    """Fine-tune a (copy of a) pretrained mini-BERT on labelled triples.

    The pretrained model is deep-copied so one pretraining run can seed all
    three tasks, as in the paper.  Per-epoch train loss (and validation
    accuracy when ``validation_triples`` is given) is stored in
    ``classifier.history``.
    """
    config = config or FineTuneConfig()
    if not train_triples:
        raise ValueError("training set is empty")
    model = copy.deepcopy(pretrained)
    classifier = FineTunedClassifier(model)
    rng = derive_rng(config.seed, "fine-tune")
    # The MLM head gets no gradient here; leaving it out of the optimiser
    # changes no trained value (its Adam updates would all be zero).
    parameters = model.classify_parameters()
    optimizer = Adam(parameters, lr=config.learning_rate)

    sequences = classifier._encode(train_triples)
    labels = np.array([t.label for t in train_triples], dtype=np.int64)
    # Pad once; batches are row windows sliced to their own max length,
    # matching the rectangles per-batch pad_batch used to build.
    all_ids, all_mask, lengths = pad_all(
        sequences, model.tokenizer.pad_id, model.config.max_len
    )

    with span(
        "bert.finetune", epochs=config.epochs, triples=len(train_triples)
    ) as sp, StageProgress("bert.finetune", unit="steps") as progress:
        for epoch in range(config.epochs):
            model.set_training(True)
            order = rng.permutation(len(sequences))
            epoch_losses: List[float] = []
            for start in range(0, len(sequences), config.batch_size):
                chosen = order[start : start + config.batch_size]
                width = int(lengths[chosen].max())
                ids = all_ids[chosen, :width]
                mask = all_mask[chosen, :width]
                logits = model.forward_classify(ids, mask)
                loss, grad = softmax_cross_entropy(logits, labels[chosen])
                for parameter in parameters:
                    parameter.zero_grad()
                model.backward_classify(grad)
                clip_gradients(parameters, config.max_grad_norm)
                optimizer.step()
                epoch_losses.append(loss)
                sp.incr("steps")
                progress.advance(1)
            record = {"epoch": epoch, "train_loss": float(np.mean(epoch_losses))}
            if validation_triples:
                predictions = classifier.predict(validation_triples)
                gold = np.array([t.label for t in validation_triples])
                record["validation_accuracy"] = float(np.mean(predictions == gold))
            classifier.history.append(record)
            emit("bert.finetune", **record)
        if classifier.history:
            sp.gauge("final_train_loss", classifier.history[-1]["train_loss"])

    model.set_training(False)
    return classifier


__all__ = ["FineTuneConfig", "FineTunedClassifier", "fine_tune", "triple_to_words"]
