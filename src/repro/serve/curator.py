"""Curator backends: the serving-side interface over trained paradigms.

A :class:`Curator` answers the paper's end question — "is this candidate
triple plausible?" — for a batch of triples at once.  The server never
talks to a :class:`~repro.core.paradigms.Paradigm` directly; it talks to a
curator, which pins down the serving contract the paradigms only promise
loosely:

* **Batch invariance.**  ``classify_batch(a + b) == classify_batch(a) +
  classify_batch(b)``.  The micro-batcher coalesces triples from unrelated
  requests into one forward pass, so a triple's label must not depend on
  its batch neighbours or its batch index.  The vectorised paradigms (RF,
  LSTM, fine-tuned BERT) already classify each row independently; the ICL
  paradigm does *not* — its example-selection rng is derived from the batch
  index and its simulated client counts deliveries per prompt — so
  :class:`ICLCurator` re-anchors every triple at index 0 with a fresh
  delivery history.
* **Warm startup.**  :func:`build_curator` trains through the
  :class:`~repro.core.experiment.Lab`, so with ``artifact_dir`` (or
  ``$REPRO_ARTIFACTS``) configured every substrate — ontology, embeddings,
  splits, the pretrained BERT — loads from the content-addressed
  ``ArtifactStore`` instead of being rebuilt.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.experiment import Lab
from repro.core.paradigms import (
    FineTuneParadigm,
    ICLParadigm,
    LSTMParadigm,
    Paradigm,
    RandomForestParadigm,
)
from repro.core.triples import LabeledTriple
from repro.llm.simulated import (
    BIOGPT_PROFILE,
    GPT4_PROFILE,
    GPT35_PROFILE,
    LLAMA2_PROFILE,
    SimulatedChatModel,
    truth_table,
)
from repro.obs.trace import span

#: Backends every server warms by default, in wire-name order.
DEFAULT_BACKENDS: Tuple[str, ...] = ("rf", "lstm", "ft", "icl")

#: Embedding used by the supervised backends (the paper's strongest
#: non-contextual embedding family for curation tasks).
SERVE_EMBEDDING = "W2V-Chem"

_ICL_PROFILES = {
    "gpt-4": GPT4_PROFILE,
    "gpt-3.5-turbo": GPT35_PROFILE,
    "biogpt": BIOGPT_PROFILE,
    "llama-2": LLAMA2_PROFILE,
}


class Curator(abc.ABC):
    """A warm, batch-invariant triple classifier behind the server."""

    def __init__(self, name: str):
        self.name = name

    @abc.abstractmethod
    def classify_batch(
        self, triples: Sequence[LabeledTriple]
    ) -> List[Optional[int]]:
        """Per-triple 0/1 plausibility, or ``None`` when the backend abstains."""

    def classify(self, triple: LabeledTriple) -> Optional[int]:
        return self.classify_batch([triple])[0]


class ParadigmCurator(Curator):
    """Direct adapter for paradigms whose ``classify`` is batch-invariant."""

    def __init__(self, name: str, paradigm: Paradigm):
        super().__init__(name)
        self.paradigm = paradigm

    def classify_batch(
        self, triples: Sequence[LabeledTriple]
    ) -> List[Optional[int]]:
        if not triples:
            return []
        return self.paradigm.classify(triples)


class ICLCurator(ParadigmCurator):
    """Batch-invariant wrapper around :class:`ICLParadigm`.

    The ICL paradigm's example-selection rng is derived from ``(seed,
    batch_index, triple_text)``.  Served batches are arbitrary coalitions of
    concurrent requests, so each triple is classified alone (batch index
    always 0); the paradigm delivers every prompt at repeat index 0.  The
    label for a triple is then a pure function of the triple and the
    backend seed, whatever traffic surrounded it.
    """

    def __init__(self, name: str, paradigm: ICLParadigm):
        super().__init__(name, paradigm)

    def classify_batch(
        self, triples: Sequence[LabeledTriple]
    ) -> List[Optional[int]]:
        return [self.paradigm.classify([triple])[0] for triple in triples]


def build_curator(
    lab: Lab,
    backend: str,
    task: int = 1,
    seed: int = 0,
    icl_model: str = "gpt-4",
) -> Curator:
    """Train one backend's curator through the lab (store-warmed when set)."""
    with span("serve.warm", backend=backend, task=task):
        if backend == "rf":
            paradigm = RandomForestParadigm(
                lab.embedding(SERVE_EMBEDDING),
                token_filter=lab.adaptation_filter("naive"),
                config=lab.rf_config(),
            ).fit(lab.ml_split(task).train)
            return ParadigmCurator(backend, paradigm)
        if backend == "lstm":
            paradigm = LSTMParadigm(
                lab.embedding(SERVE_EMBEDDING),
                token_filter=lab.adaptation_filter("naive"),
                config=lab.lstm_config(),
            ).fit(lab.ml_split(task).train)
            return ParadigmCurator(backend, paradigm)
        if backend == "ft":
            paradigm = FineTuneParadigm(lab.bert, lab.ft_config()).fit(
                lab.ft_split(task).train
            )
            return ParadigmCurator(backend, paradigm)
        if backend == "icl":
            try:
                profile = _ICL_PROFILES[icl_model]
            except KeyError:
                raise ValueError(
                    f"unknown ICL model {icl_model!r}; "
                    f"valid: {sorted(_ICL_PROFILES)}"
                ) from None
            client = SimulatedChatModel(
                profile, truth_table(lab.dataset(task)), task, seed=seed
            )
            # The paradigm's one-backend delivery engine lands every
            # delivery at repeat index 0, which pins batch invariance.
            paradigm = ICLParadigm(client, seed=seed).fit(
                lab.ml_split(task).train
            )
            return ICLCurator(backend, paradigm)
        raise ValueError(
            f"unknown backend {backend!r}; valid: {DEFAULT_BACKENDS}"
        )


def build_pool(
    lab: Lab,
    backends: Sequence[str] = DEFAULT_BACKENDS,
    task: int = 1,
    seed: int = 0,
    icl_model: str = "gpt-4",
) -> Dict[str, Curator]:
    """Warm a curator per backend name, preserving request-routing order."""
    pool: Dict[str, Curator] = {}
    for backend in backends:
        pool[backend] = build_curator(
            lab, backend, task=task, seed=seed, icl_model=icl_model
        )
    return pool


__all__ = [
    "DEFAULT_BACKENDS",
    "SERVE_EMBEDDING",
    "Curator",
    "ParadigmCurator",
    "ICLCurator",
    "build_curator",
    "build_pool",
]
