"""Tests for DBSCAN, the naive filter, Algorithm 2 and the token analyses."""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy import stats

from repro.adaptation.analysis import (
    component_attention,
    short_token_share,
    token_frequency_census,
)
from repro.adaptation.dbscan import NOISE, dbscan, estimate_eps, pairwise_distances
from repro.adaptation.naive import naive_token_filter
from repro.adaptation.task_oriented import (
    TaskOrientedConfig,
    analyse_stop_tokens,
    head_tail_token_frequencies,
    select_stop_tokens,
    stopword_filter,
)
from repro.core import Lab
from repro.core.tasks import positive_triples
from repro.core.triples import LabeledTriple
from repro.embeddings.random import RandomEmbeddings
from repro.embeddings.registry import STATIC_MODEL_NAMES
from repro.ml.forest import RandomForest, RandomForestConfig
from repro.obs import trace
from repro.ontology.relations import IS_A
from repro.text.tokenizer import ChemTokenizer
from repro.utils.rng import derive_rng
from tests.conftest import MICRO_LAB_CONFIG


class TestNaiveFilter:
    def test_drops_short_tokens(self):
        flt = naive_token_filter()
        assert flt(["3", "hydroxy", "acid", "d"]) == ["hydroxy", "acid"]

    def test_keeps_all_when_all_short(self):
        assert naive_token_filter()(["2", "d"]) == ["2", "d"]

    def test_custom_length(self):
        assert naive_token_filter(5)(["acid", "hydroxy"]) == ["hydroxy"]

    def test_validation(self):
        with pytest.raises(ValueError):
            naive_token_filter(0)


class TestPairwiseDistances:
    def test_symmetry_and_zero_diagonal(self):
        points = np.random.default_rng(0).normal(size=(10, 3))
        distances = pairwise_distances(points)
        assert np.allclose(distances, distances.T)
        assert np.allclose(np.diag(distances), 0.0)

    def test_known_values(self):
        distances = pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert distances[0, 1] == pytest.approx(5.0)


class TestDBSCAN:
    def two_blobs(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 0.1, size=(20, 2))
        b = rng.normal(5.0, 0.1, size=(20, 2))
        return np.vstack([a, b])

    def test_finds_two_clusters(self):
        labels = dbscan(self.two_blobs(), eps=0.5, min_samples=4)
        assert set(labels[:20]) == {0}
        assert set(labels[20:]) == {1}

    def test_outlier_is_noise(self):
        points = np.vstack([self.two_blobs(), [[100.0, 100.0]]])
        labels = dbscan(points, eps=0.5, min_samples=4)
        assert labels[-1] == NOISE

    def test_automatic_eps(self):
        labels = dbscan(self.two_blobs(), eps=None, min_samples=4)
        assert len(set(labels) - {NOISE}) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            dbscan(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            dbscan(np.zeros((5, 2)), eps=-1.0)
        with pytest.raises(ValueError):
            dbscan(np.zeros((5, 2)), eps=1.0, min_samples=0)

    def test_estimate_eps_positive(self):
        assert estimate_eps(self.two_blobs(), k=3) > 0.0


class TestTaskOrientedAdaptation:
    def test_token_frequencies(self, ontology):
        positives = positive_triples(ontology)
        counter = head_tail_token_frequencies(positives)
        assert counter
        # locants are frequent in a ChEBI-like ontology
        assert any(token.isdigit() for token, _ in counter.most_common(20))

    def test_select_stop_tokens_runs(self, ontology):
        positives = positive_triples(ontology)[:300]
        embeddings = RandomEmbeddings(dim=16, seed=0)
        stop = select_stop_tokens(
            positives,
            embeddings,
            TaskOrientedConfig(n_entities=40, n_iterations=3, seed=0),
        )
        assert isinstance(stop, set)

    def test_deterministic(self, ontology):
        positives = positive_triples(ontology)[:200]
        embeddings = RandomEmbeddings(dim=16, seed=0)
        config = TaskOrientedConfig(n_entities=30, n_iterations=3, seed=1)
        assert select_stop_tokens(positives, embeddings, config) == select_stop_tokens(
            positives, embeddings, config
        )

    def test_phrase_level_rejected(self, lab, ontology):
        positives = positive_triples(ontology)[:50]
        with pytest.raises(ValueError, match="token-level"):
            select_stop_tokens(positives, lab.embedding("PubmedBERT"))

    def test_stopword_filter(self):
        flt = stopword_filter({"2", "3"})
        assert flt(["2", "acid"]) == ["acid"]
        assert flt(["2", "3"]) == ["2", "3"]  # never empty a component

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TaskOrientedConfig(top_fraction=0.0)
        with pytest.raises(ValueError):
            TaskOrientedConfig(n_iterations=1)


class TestAnalysis:
    def test_census_shape(self, ontology):
        positives = positive_triples(ontology)
        census = token_frequency_census(positives, top_k=10)
        assert set(census) == {"head", "tail"}
        assert len(census["head"]) == 10
        counts = [c for _, c in census["head"]]
        assert counts == sorted(counts, reverse=True)

    def test_short_token_share_pathology(self, ontology):
        """Heads carry more short-token mass than tails (Table A5)."""
        census = token_frequency_census(positive_triples(ontology), top_k=50)
        shares = short_token_share(census)
        assert shares["head"] > shares["tail"]

    def test_component_attention_sums_to_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(150, 12))
        y = (x[:, 0] > 0).astype(np.int64)
        forest = RandomForest(RandomForestConfig(n_estimators=5, seed=0)).fit(x, y)
        attention = component_attention(forest, dim=4)
        assert set(attention) == {"subject", "relation", "object"}
        assert sum(attention.values()) == pytest.approx(1.0)
        assert attention["subject"] > attention["object"]

    def test_census_requires_positives(self):
        with pytest.raises(ValueError):
            token_frequency_census([])


class TestAlgorithm2FindsClusteredTokens:
    """Craft an embedding where locant tokens form one tight cluster: the
    task-oriented adaptation must identify exactly those as stop words."""

    def _embedding(self):
        import numpy as np

        from repro.embeddings.base import StaticEmbeddings
        from repro.text.vocab import Vocabulary

        rng = np.random.default_rng(0)
        locants = [str(i) for i in range(1, 10)]
        words = ["acid", "amino", "hydroxy", "metabolite", "phenyl",
                 "chloro", "oxo", "benzyl"]
        counts = {t: 100 for t in locants}
        counts.update({t: 50 for t in words})
        vocab = Vocabulary(counts)
        dim = 10
        matrix = np.zeros((len(vocab), dim))
        anchor = np.zeros(dim)
        anchor[0] = 5.0
        for token in locants:
            matrix[vocab.id_of(token)] = anchor + rng.normal(0, 0.01, dim)
        for index, token in enumerate(words):
            direction = np.zeros(dim)
            direction[index + 1] = 4.0  # axes disjoint from the locant anchor
            matrix[vocab.id_of(token)] = direction + rng.normal(0, 0.01, dim)
        return StaticEmbeddings(vocab, matrix, name="crafted"), locants, words

    def test_locant_cluster_becomes_stop_words(self, ontology):
        from repro.adaptation.task_oriented import (
            TaskOrientedConfig,
            select_stop_tokens,
        )
        from repro.core.tasks import positive_triples

        embeddings, locants, words = self._embedding()
        positives = positive_triples(ontology)[:400]
        stop = select_stop_tokens(
            positives,
            embeddings,
            TaskOrientedConfig(
                top_fraction=1.0, n_entities=100, n_iterations=10,
                min_samples=3, seed=0,
            ),
        )
        found_locants = stop & set(locants)
        assert len(found_locants) >= 5, f"expected locant stop words, got {stop}"


def _reference_analysis(positives, embeddings, config):
    """Algorithm 2 as first written: one ``mean_vector`` call per sampled
    entity per (iteration, cluster).  The oracle for the vectorised
    :func:`analyse_stop_tokens`; returns ``(clusters, baseline_vars,
    ablated_vars, stop_tokens)``."""
    tokenizer = ChemTokenizer()
    rng = derive_rng(config.seed, "task-oriented", embeddings.name)
    token_freq = head_tail_token_frequencies(positives, tokenizer)
    ordered = sorted(token_freq.items(), key=lambda kv: (-kv[1], kv[0]))
    n_top = max(config.min_samples + 1, int(len(ordered) * config.top_fraction))
    top_tokens = [token for token, _ in ordered[:n_top]]
    vectors = np.stack([embeddings.vector(token) for token in top_tokens])
    labels = dbscan(vectors, eps=config.eps, min_samples=config.min_samples)
    clusters = {}
    for token, label in zip(top_tokens, labels):
        if label != NOISE:
            clusters.setdefault(int(label), []).append(token)
    baseline_vars = {c: [] for c in clusters}
    ablated_vars = {c: [] for c in clusters}
    if not clusters:
        return clusters, baseline_vars, ablated_vars, set()
    entity_names = {}
    for triple in positives:
        for name in (triple.subject_name, triple.object_name):
            if name not in entity_names:
                tokens = tokenizer(name)
                if tokens:
                    entity_names[name] = tokens
    all_entities = list(entity_names.values())
    if len(all_entities) < 3:
        return clusters, baseline_vars, ablated_vars, set()
    n_sample = min(config.n_entities, len(all_entities))

    def centroids(sample, exclude):
        rows = []
        for tokens in sample:
            kept = [t for t in tokens if t not in exclude] or tokens
            rows.append(embeddings.mean_vector(kept))
        return np.stack(rows)

    def distance_variance(matrix):
        distances = pairwise_distances(matrix)
        return float(np.var(distances[np.triu_indices(distances.shape[0], k=1)]))

    for _ in range(config.n_iterations):
        chosen = rng.choice(len(all_entities), size=n_sample, replace=False)
        sample = [all_entities[int(i)] for i in chosen]
        base_var = distance_variance(centroids(sample, set()))
        for cluster_id, tokens in clusters.items():
            baseline_vars[cluster_id].append(base_var)
            ablated_vars[cluster_id].append(
                distance_variance(centroids(sample, set(tokens)))
            )
    stop_tokens = set()
    for cluster_id, tokens in clusters.items():
        if np.allclose(baseline_vars[cluster_id], ablated_vars[cluster_id]):
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, p_value = stats.ttest_ind(
                baseline_vars[cluster_id], ablated_vars[cluster_id], equal_var=False
            )
        if np.isfinite(p_value) and p_value <= config.p_threshold:
            stop_tokens.update(tokens)
    return clusters, baseline_vars, ablated_vars, stop_tokens


def _assert_matches_reference(positives, embeddings, config):
    analysis = analyse_stop_tokens(positives, embeddings, config)
    clusters, baseline, ablated, stop = _reference_analysis(
        positives, embeddings, config
    )
    assert analysis.clusters == clusters
    # bit-equal lists: == on Python floats compares exact values
    assert analysis.baseline_vars == baseline
    assert analysis.ablated_vars == ablated
    assert analysis.stop_tokens == stop
    assert select_stop_tokens(positives, embeddings, config) == stop
    return analysis


@pytest.fixture(scope="module", params=[0, 1, 2], ids=lambda s: f"seed{s}")
def micro_lab(request):
    return Lab(dataclasses.replace(MICRO_LAB_CONFIG, seed=request.param))


class TestAlgorithm2MatchesReference:
    """The vectorised Algorithm 2 reproduces the per-entity loop exactly."""

    @pytest.mark.parametrize("n_entities", [300, 25])
    def test_every_static_model(self, micro_lab, n_entities):
        positives = positive_triples(micro_lab.ontology)
        config = TaskOrientedConfig(n_entities=n_entities, seed=micro_lab.config.seed)
        for name in STATIC_MODEL_NAMES:
            analysis = _assert_matches_reference(
                positives, micro_lab.embedding(name), config
            )
            assert all(
                len(v) == config.n_iterations for v in analysis.ablated_vars.values()
            )

    def test_lab_stage_uses_the_default_config(self, micro_lab):
        positives = positive_triples(micro_lab.ontology)
        config = TaskOrientedConfig(seed=micro_lab.config.seed)
        for name in STATIC_MODEL_NAMES:
            assert micro_lab.materialize(f"task-filter-{name}") == _reference_analysis(
                positives, micro_lab.embedding(name), config
            )[3]

    def test_entity_made_only_of_cluster_tokens(self):
        """Entities named only by locants lose every token when the locant
        cluster is ablated and must keep their base centroid."""
        embeddings, locants, words = TestAlgorithm2FindsClusteredTokens()._embedding()
        triples = []
        for i in range(30):
            subject = f"{locants[i % 9]},{locants[(i + 1) % 9]}"  # locants only
            if i % 3:
                subject = f"{subject}-{words[i % len(words)]}"
            triples.append(LabeledTriple(
                f"s{i}", subject, IS_A, f"o{i}",
                f"{words[(i + 2) % len(words)]} {words[(i + 5) % len(words)]}", 1,
            ))
        config = TaskOrientedConfig(
            top_fraction=1.0, n_entities=12, n_iterations=4, seed=3
        )
        analysis = _assert_matches_reference(triples, embeddings, config)
        assert any(set(tokens) <= set(locants) for tokens in analysis.clusters.values())

    def test_crafted_embedding_and_random_baseline(self, ontology):
        embeddings, _, _ = TestAlgorithm2FindsClusteredTokens()._embedding()
        positives = positive_triples(ontology)[:400]
        config = TaskOrientedConfig(
            top_fraction=1.0, n_entities=100, n_iterations=10, min_samples=3, seed=0
        )
        _assert_matches_reference(positives, embeddings, config)
        _assert_matches_reference(
            positives[:300],
            RandomEmbeddings(dim=16, seed=0),
            TaskOrientedConfig(n_entities=40, n_iterations=3, seed=0),
        )


class TestDegenerateSampling:
    """With fewer unique entities than ``n_entities`` every iteration draws
    the same set; scipy's precision-loss warning is counted, not printed."""

    def _inputs(self, micro_lab):
        return positive_triples(micro_lab.ontology), micro_lab.embedding("GloVe")

    def test_counted_on_the_enclosing_span(self, micro_lab):
        positives, embeddings = self._inputs(micro_lab)
        config = TaskOrientedConfig(seed=micro_lab.config.seed)
        tracer = trace.get_tracer()
        was_enabled = tracer.enabled
        tracer.enabled = True
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # any warning that escapes fails
                with trace.span("lab.task-filter-GloVe") as stage:
                    analysis = analyse_stop_tokens(positives, embeddings, config)
        finally:
            tracer.enabled = was_enabled
        compared = [
            c for c in analysis.clusters
            if not np.allclose(analysis.baseline_vars[c], analysis.ablated_vars[c])
        ]
        assert compared, "the fixture should reach the t-test"
        assert stage.counters["adaptation.degenerate_sampling"] == len(compared)
        assert analysis.stop_tokens == _reference_analysis(
            positives, embeddings, config
        )[3]

    def test_concurrent_stages_print_nothing(self, micro_lab):
        """Task-filter stages run on a thread pool; the warning capture must
        not leak scipy's warning from one thread while another restores."""
        from concurrent.futures import ThreadPoolExecutor

        positives, embeddings = self._inputs(micro_lab)
        config = TaskOrientedConfig(seed=micro_lab.config.seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(
                    lambda _: select_stop_tokens(positives, embeddings, config),
                    range(8),
                ))
        assert all(result == results[0] for result in results)

    def test_other_warnings_still_surface(self, micro_lab, monkeypatch):
        positives, embeddings = self._inputs(micro_lab)

        def noisy_ttest(*args, **kwargs):
            warnings.warn("unrelated", UserWarning)
            return 0.0, 1.0

        monkeypatch.setattr(stats, "ttest_ind", noisy_ttest)
        with pytest.warns(UserWarning, match="unrelated"):
            stop = select_stop_tokens(
                positives, embeddings, TaskOrientedConfig(n_entities=25, seed=0)
            )
        assert stop == set()
