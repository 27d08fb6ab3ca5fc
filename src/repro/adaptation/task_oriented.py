"""Task-oriented adaptation — the paper's Algorithm 2.

Embedding-specific identification of less semantically meaningful tokens:

1. take the top 25% most frequent tokens among positive-triple head and tail
   entities;
2. cluster their embedding vectors with DBSCAN;
3. for ``I`` iterations, sample ``N`` unique entities; compute each entity's
   centroid representation with and without a cluster's tokens and record the
   variance of pairwise centroid distances (``D1`` vs ``D2``);
4. a two-sample t-test per cluster: when removing the cluster's tokens
   changes the distance-variance significantly (p <= 0.05), the cluster's
   tokens become stop words.

The resulting stop-word set plugs into the feature pipeline as a token
filter, exactly like the naive adaptation.
"""

from __future__ import annotations

import threading
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy import stats

from repro.adaptation.dbscan import NOISE, dbscan, pairwise_distances
from repro.core.triples import LabeledTriple
from repro.embeddings.base import EmbeddingModel
from repro.obs.trace import Span, get_tracer
from repro.text.tokenizer import ChemTokenizer
from repro.utils.rng import SeedLike, derive_rng

#: Start of scipy's warning for a t-test on (near-)constant samples.
_PRECISION_LOSS = "Precision loss occurred in moment calculation"
#: ``warnings.catch_warnings`` swaps process-wide state, so task-filter
#: stages running on a thread pool must not interleave it.
_WARNINGS_LOCK = threading.Lock()


@dataclass(frozen=True)
class TaskOrientedConfig:
    """Algorithm 2 parameters.

    Attributes:
        top_fraction: share of most frequent tokens analysed (paper: 25%).
        n_entities: entities sampled per iteration (paper: 5,000; scaled
            down by default because pairwise distances are quadratic).
        n_iterations: sampling repetitions feeding the t-test (paper: 10).
        p_threshold: significance level for stop-word promotion.
        eps: DBSCAN radius (``None`` = automatic elbow heuristic).
        min_samples: DBSCAN core-point threshold.
        seed: sampling seed.
    """

    top_fraction: float = 0.25
    n_entities: int = 300
    n_iterations: int = 10
    p_threshold: float = 0.05
    eps: Optional[float] = None
    min_samples: int = 3
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.top_fraction <= 1.0:
            raise ValueError("top_fraction must be in (0, 1]")
        if self.n_entities < 3 or self.n_iterations < 2:
            raise ValueError("need n_entities >= 3 and n_iterations >= 2")
        if not 0.0 < self.p_threshold < 1.0:
            raise ValueError("p_threshold must be in (0, 1)")


def head_tail_token_frequencies(
    positives: Sequence[LabeledTriple],
    tokenizer: Optional[ChemTokenizer] = None,
) -> Counter:
    """Token frequencies over positive-triple head and tail entity names."""
    tokenizer = tokenizer or ChemTokenizer()
    counter: Counter = Counter()
    for triple in positives:
        counter.update(tokenizer(triple.subject_name))
        counter.update(tokenizer(triple.object_name))
    if not counter:
        raise ValueError("no tokens found in positive triples")
    return counter


def _distance_variance(
    matrix: np.ndarray, upper: Tuple[np.ndarray, np.ndarray]
) -> float:
    """Variance of pairwise Euclidean distances between matrix rows;
    ``upper`` is ``np.triu_indices(len(matrix), k=1)``."""
    return float(np.var(pairwise_distances(matrix)[upper]))


def _centroids(table: np.ndarray, ids: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Mean of the kept token vectors of each padded index row.

    Rows are accumulated position by position and divided by the kept
    count, the same sequence of float operations as ``mean(axis=0)`` over
    each entity's stacked kept vectors, so the centroids are bit-identical
    to per-entity :meth:`~repro.embeddings.base.EmbeddingModel.mean_vector`
    calls.  Every row must keep at least one token.
    """
    total = np.zeros((ids.shape[0], table.shape[1]))
    for position in range(ids.shape[1]):
        rows = kept[:, position]
        total[rows] += table[ids[rows, position]]
    return total / kept.sum(axis=1)[:, None]


def _welch_p_value(
    baseline: List[float], ablated: List[float], stage_span: Optional[Span]
) -> float:
    """Welch's t-test p-value of ``baseline`` vs ``ablated``.

    When every iteration samples the same entities (fewer unique entities
    than ``n_entities``), both lists are constant up to float residue and
    scipy warns of catastrophic cancellation.  That warning, and only that
    one, is caught here and counted as ``adaptation.degenerate_sampling``
    on the enclosing span; the p-value is returned unchanged.
    """
    with _WARNINGS_LOCK, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, p_value = stats.ttest_ind(baseline, ablated, equal_var=False)
    degenerate = False
    for warning in caught:
        if issubclass(warning.category, RuntimeWarning) and str(
            warning.message
        ).startswith(_PRECISION_LOSS):
            degenerate = True
        else:
            warnings.warn_explicit(
                warning.message, warning.category, warning.filename,
                warning.lineno, source=warning.source,
            )
    if degenerate and stage_span is not None:
        stage_span.incr("adaptation.degenerate_sampling")
    return float(p_value)


@dataclass(frozen=True)
class StopTokenAnalysis:
    """What one run of Algorithm 2 measured and decided.

    Attributes:
        clusters: DBSCAN cluster id -> its tokens, in discovery order.
        baseline_vars: cluster id -> per-iteration distance variance of the
            sampled entities' centroids (the same list for every cluster).
        ablated_vars: cluster id -> per-iteration variance with the
            cluster's tokens removed from every centroid.
        stop_tokens: tokens of the clusters whose removal changed the
            variance significantly.
    """

    clusters: Dict[int, List[str]]
    baseline_vars: Dict[int, List[float]]
    ablated_vars: Dict[int, List[float]]
    stop_tokens: Set[str]


def select_stop_tokens(
    positives: Sequence[LabeledTriple],
    embeddings: EmbeddingModel,
    config: Optional[TaskOrientedConfig] = None,
    tokenizer: Optional[ChemTokenizer] = None,
) -> Set[str]:
    """Run Algorithm 2 and return the stop-word set for ``embeddings``.

    Phrase-level embedding models have no per-token vectors to cluster;
    the paper accordingly applies no token selection to PubmedBERT
    embeddings (Tables 3a/A7 dashes), and this function raises for them.
    """
    return analyse_stop_tokens(positives, embeddings, config, tokenizer).stop_tokens


def analyse_stop_tokens(
    positives: Sequence[LabeledTriple],
    embeddings: EmbeddingModel,
    config: Optional[TaskOrientedConfig] = None,
    tokenizer: Optional[ChemTokenizer] = None,
) -> StopTokenAnalysis:
    """Run Algorithm 2 and return its clusters, variance lists and stop words.

    Each distinct entity token's vector is looked up once and every entity
    becomes a padded row of indices into that table.  An entity's centroid
    does not depend on the iteration that samples it, so the base centroids
    and each cluster's ablated centroids are computed once for all entities
    and each iteration takes its sampled rows.  An entity whose every token
    is in the ablated cluster keeps its base centroid.
    """
    if embeddings.phrase_level:
        raise ValueError(
            "task-oriented adaptation requires a token-level embedding model"
        )
    config = config or TaskOrientedConfig()
    tokenizer = tokenizer or ChemTokenizer()
    rng = derive_rng(config.seed, "task-oriented", embeddings.name)

    token_freq = head_tail_token_frequencies(positives, tokenizer)
    ordered = sorted(token_freq.items(), key=lambda kv: (-kv[1], kv[0]))
    n_top = max(config.min_samples + 1, int(len(ordered) * config.top_fraction))
    top_tokens = [token for token, _ in ordered[:n_top]]

    vectors = np.stack([embeddings.vector(token) for token in top_tokens])
    labels = dbscan(vectors, eps=config.eps, min_samples=config.min_samples)
    clusters: Dict[int, List[str]] = {}
    for token, label in zip(top_tokens, labels):
        if label != NOISE:
            clusters.setdefault(int(label), []).append(token)
    baseline_vars: Dict[int, List[float]] = {c: [] for c in clusters}
    ablated_vars: Dict[int, List[float]] = {c: [] for c in clusters}
    no_stop_tokens = StopTokenAnalysis(clusters, baseline_vars, ablated_vars, set())
    if not clusters:
        return no_stop_tokens

    # Unique head/tail entities of positive triples, pre-tokenised once.
    entity_names: Dict[str, List[str]] = {}
    for triple in positives:
        for name in (triple.subject_name, triple.object_name):
            if name not in entity_names:
                tokens = tokenizer(name)
                if tokens:
                    entity_names[name] = tokens
    all_entities = list(entity_names.values())
    if len(all_entities) < 3:
        return no_stop_tokens
    n_sample = min(config.n_entities, len(all_entities))

    token_ids: Dict[str, int] = {}
    for tokens in all_entities:
        for token in tokens:
            token_ids.setdefault(token, len(token_ids))
    table = np.stack([embeddings.vector(token) for token in token_ids])
    width = max(len(tokens) for tokens in all_entities)
    ids = np.zeros((len(all_entities), width), dtype=np.int64)
    real = np.zeros((len(all_entities), width), dtype=bool)
    for row, tokens in enumerate(all_entities):
        ids[row, : len(tokens)] = [token_ids[token] for token in tokens]
        real[row, : len(tokens)] = True
    base = _centroids(table, ids, real)

    samples = [
        rng.choice(len(all_entities), size=n_sample, replace=False)
        for _ in range(config.n_iterations)
    ]
    upper = np.triu_indices(n_sample, k=1)
    base_vars = [_distance_variance(base[chosen], upper) for chosen in samples]
    for cluster_id, tokens in clusters.items():
        in_cluster = real & np.isin(ids, [token_ids[t] for t in tokens])
        kept = real & ~in_cluster
        changed = in_cluster.any(axis=1) & kept.any(axis=1)
        ablated = base.copy()
        ablated[changed] = _centroids(table, ids[changed], kept[changed])
        baseline_vars[cluster_id].extend(base_vars)
        ablated_vars[cluster_id].extend(
            _distance_variance(ablated[chosen], upper) for chosen in samples
        )

    stage_span = get_tracer().current_span()
    stop_tokens: Set[str] = set()
    for cluster_id, tokens in clusters.items():
        baseline = baseline_vars[cluster_id]
        ablated_list = ablated_vars[cluster_id]
        if np.allclose(baseline, ablated_list):
            continue  # removing the cluster changed nothing
        p_value = _welch_p_value(baseline, ablated_list, stage_span)
        if np.isfinite(p_value) and p_value <= config.p_threshold:
            stop_tokens.update(tokens)
    return StopTokenAnalysis(clusters, baseline_vars, ablated_vars, stop_tokens)


def stopword_filter(stop_tokens: Set[str]) -> Callable[[List[str]], List[str]]:
    """Token filter dropping the given stop words (keeps all if none remain)."""

    def token_filter(tokens: List[str]) -> List[str]:
        kept = [t for t in tokens if t not in stop_tokens]
        return kept if kept else list(tokens)

    return token_filter


def task_oriented_filter(
    positives: Sequence[LabeledTriple],
    embeddings: EmbeddingModel,
    config: Optional[TaskOrientedConfig] = None,
) -> Callable[[List[str]], List[str]]:
    """Convenience: run Algorithm 2 and wrap the result as a token filter."""
    return stopword_filter(select_stop_tokens(positives, embeddings, config))


__all__ = [
    "StopTokenAnalysis",
    "TaskOrientedConfig",
    "analyse_stop_tokens",
    "head_tail_token_frequencies",
    "select_stop_tokens",
    "stopword_filter",
    "task_oriented_filter",
]
