"""Per-layer tracing: wrappers around the program's public entry points.

:class:`Tracing` patches a fixed set of public calls so each records a span
in a :class:`~spans.SpanRecorder`; :meth:`Tracing.remove` puts every
original back.  Wrappers are installed only for traced units, so untraced
units run the program exactly as shipped.  Nothing under ``src/`` changes.

:func:`program_metrics` and :func:`serve_metrics` turn the spans of the
traced units into the per-layer metrics listed in :data:`PER_LAYER`; the
module imports ``repro`` only inside :class:`Tracing`, so the traffic
generator can use the rest.
"""

from __future__ import annotations

import functools
import threading
from fnmatch import fnmatch
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from spans import Span, SpanRecorder, attribute_wall, percentile, self_times

#: Stage-name patterns of ``Lab.materialize`` and the metric their self time
#: is booked to; the first match wins.
STAGE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("ontology", "ontology.synthesize_s"),
    ("corpus-*", "text.corpus_s"),
    ("dataset-*", "core.datasets_s"),
    ("*-split-*", "core.datasets_s"),
    ("task-filter-*", "adaptation.stop_tokens_s"),
    ("embedding-BioWordVec", "embeddings.fasttext_s"),
    ("embedding-W2V-Chem", "embeddings.word2vec_s"),
    ("w2v-pairs-*", "embeddings.word2vec_s"),
    ("embedding-GloVe*", "embeddings.glove_s"),
    ("*cooccur-*", "embeddings.glove_s"),
    ("embedding-*", "embeddings.other_s"),
    ("wordpiece", "bert.wordpiece_s"),
    ("bert", "bert.pretrain_s"),
    ("fine-tuned-*", "bert.finetune_s"),
)

#: Self-time metrics, in report order: each is the wall time of the traced
#: units attributed to one layer boundary (see ``spans.attribute_wall``).
TIME_METRICS = (
    "ontology.synthesize_s",
    "text.corpus_s",
    "core.datasets_s",
    "adaptation.stop_tokens_s",
    "embeddings.fasttext_s",
    "embeddings.word2vec_s",
    "embeddings.glove_s",
    "embeddings.other_s",
    "bert.wordpiece_s",
    "bert.pretrain_s",
    "bert.finetune_s",
    "bert.predict_s",
    "ml.features_s",
    "ml.forest_fit_s",
    "ml.forest_predict_s",
    "ml.lstm_s",
    "core.evaluate_s",
    "pipeline.scheduler_s",
    "pipeline.stage_other_s",
    "pipeline.store_write_s",
    "pipeline.store_read_s",
    "llm.icl_self_s",
    "llm.simulate_s",
    "resilience.faults_s",
    "delivery.engine_s",
    "delivery.backend_busy_s",
    "serve.transport_s",
    "serve.http_s",
    "serve.queue_s",
    "serve.batcher_s",
    "serve.batch_compute_s",
)

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    (name, "s") for name in TIME_METRICS
) + (
    ("pipeline.store_write_mb", "MB"),
    ("pipeline.store_read_mb", "MB"),
    ("pipeline.stages_built", "count"),
    ("pipeline.stages_loaded", "count"),
    ("pipeline.worker_idle_share", "ratio"),
    ("delivery.worker_busy_share", "ratio"),
    ("delivery.attempts", "count"),
    ("delivery.retries", "count"),
    ("delivery.failed", "count"),
    ("delivery.useful_ratio", "ratio"),
    ("serve.service_p50_ms", "ms"),
    ("serve.service_p95_ms", "ms"),
    ("serve.batch_compute_p50_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.transport_p50_ms", "ms"),
    ("serve.transport_p95_ms", "ms"),
    ("serve.batch_triples_mean", "count"),
    ("serve.requests_per_batch_mean", "count"),
    ("serve.shed", "count"),
    ("serve.generator_late_p95_ms", "ms"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p95_ms", "ms"),
    ("serve.within_limit_share", "ratio"),
    ("serve.throughput_rps", "1/s"),
    ("error_rate", "ratio"),
    ("traced_wall_s", "s"),
    ("unattributed_s", "s"),
    ("trace_overhead_s", "s"),
)


def stage_layer(stage: str) -> str:
    for pattern, metric in STAGE_LAYERS:
        if fnmatch(stage, pattern):
            return metric
    return "pipeline.stage_other_s"


def _traced(
    recorder: SpanRecorder,
    fn: Callable,
    name: str,
    layer,
    pool: Optional[str] = None,
    attrs: Optional[Callable] = None,
) -> Callable:
    """``fn`` wrapped in a span; ``layer``/``attrs`` may read the call's args."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        layer_name = layer(*args, **kwargs) if callable(layer) else layer
        extra = attrs(*args, **kwargs) if attrs is not None else {}
        with recorder.span(name, layer_name, pool=pool, **extra):
            return fn(*args, **kwargs)

    return wrapper


class Tracing:
    """Installs span wrappers on public entry points; removes them again."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._patches: List[Tuple[object, str, object, bool]] = []
        self._request = threading.local()
        #: Megabytes written and read through the store while installed.
        self.store_mb: Dict[str, float] = {"write": 0.0, "read": 0.0}

    def _patch(self, owner, attr: str, wrapper_for: Callable) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        setattr(owner, attr, wrapper_for(getattr(owner, attr)))
        self._patches.append((owner, attr, original, own))

    def _wrap(self, owner, attr: str, name: str, layer, **kwargs) -> None:
        self._patch(
            owner,
            attr,
            lambda fn: _traced(self.recorder, fn, name, layer, **kwargs),
        )

    def install(self) -> "Tracing":
        """Wrap every layer boundary the benchmark measures."""
        from repro.bert.finetune import FineTunedClassifier
        from repro.core.experiment import Lab
        from repro.delivery.backends import DeliveryBackend
        from repro.delivery.engine import DeliveryEngine
        from repro.llm import icl
        from repro.llm.simulated import SimulatedChatModel
        from repro.ml.features import FeatureExtractor
        from repro.ml.forest import RandomForest
        from repro.ml.lstm import LSTMClassifier
        from repro.pipeline.store import ArtifactStore
        from repro.resilience.faults import FaultyClient

        store_mb = self.store_mb

        def store_call(verb: str, layer: str) -> Callable:
            def wrapper_for(fn):
                @functools.wraps(fn)
                def wrapper(store, stage, key, *args, **kwargs):
                    with self.recorder.span(f"store.{verb}", layer, stage=stage.name):
                        result = fn(store, stage, key, *args, **kwargs)
                    store_mb[verb] += store.entry_bytes(stage.name, key) / 1e6
                    return result

                return wrapper

            return wrapper_for

        self._wrap(
            Lab, "materialize", "lab.materialize",
            lambda lab, name: stage_layer(name),
            attrs=lambda lab, name: {"stage": name},
        )
        # The scheduler's pool threads keep the executor's default names.
        self._wrap(Lab, "warm", "lab.warm", "pipeline.scheduler_s", pool="ThreadPoolExecutor")
        for method in ("evaluate_random_forest", "evaluate_fine_tuned", "evaluate_lstm"):
            self._wrap(Lab, method, f"lab.{method}", "core.evaluate_s")
        self._patch(ArtifactStore, "put", store_call("write", "pipeline.store_write_s"))
        self._patch(ArtifactStore, "load", store_call("read", "pipeline.store_read_s"))
        for method in ("matrix", "sequences"):
            self._wrap(FeatureExtractor, method, f"features.{method}", "ml.features_s")
        self._wrap(RandomForest, "fit", "forest.fit", "ml.forest_fit_s")
        self._wrap(RandomForest, "predict", "forest.predict", "ml.forest_predict_s")
        for method in ("fit", "predict"):
            self._wrap(LSTMClassifier, method, f"lstm.{method}", "ml.lstm_s")
        self._wrap(FineTunedClassifier, "predict", "finetuned.predict", "bert.predict_s")
        self._wrap(icl, "run_icl_experiment", "icl.experiment", "llm.icl_self_s")
        self._wrap(
            DeliveryEngine, "run", "engine.run", "delivery.engine_s", pool="delivery-worker"
        )
        self._wrap(DeliveryBackend, "deliver", "backend.deliver", "delivery.backend_busy_s")
        self._wrap(FaultyClient, "complete_indexed", "faults.attempt", "resilience.faults_s")
        self._wrap(
            SimulatedChatModel, "complete_indexed", "simulated.complete", "llm.simulate_s"
        )
        return self

    def install_serve(self, server, backends: Dict[str, object]) -> "Tracing":
        """Wrap the HTTP handler, the service passed to ``start_server``, the
        batcher dispatch and each pooled curator's batch handler."""
        from repro.serve.batcher import MicroBatcher
        from repro.serve.server import CurationRequestHandler

        recorder = self.recorder
        current = self._request

        def handler_for(fn):
            @functools.wraps(fn)
            def do_post(handler):
                current.id = handler.headers.get("X-Request-Id")
                try:
                    with recorder.span("http.post", "serve.http_s", request=current.id):
                        return fn(handler)
                finally:
                    current.id = None

            return do_post

        self._patch(CurationRequestHandler, "do_POST", handler_for)
        self._patch(server, "service", lambda service: _TracedService(service, recorder, current))
        self._wrap(
            MicroBatcher, "dispatch", "batcher.dispatch", "serve.batcher_s",
            attrs=lambda batcher, batch: {
                "backend": batcher.name,
                "requests": len(batch),
                "triples": sum(len(item.triples) for item in batch),
            },
        )
        for name, backend in backends.items():
            self._wrap(
                backend.batcher, "handler", "curator.classify_batch",
                "serve.batch_compute_s",
                attrs=lambda triples, _name=name: {"backend": _name, "triples": len(triples)},
            )
        return self

    def remove(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class _TracedService:
    """The service handed to the HTTP server while tracing: times
    ``classify`` and passes everything else through."""

    def __init__(self, service, recorder: SpanRecorder, current: threading.local):
        self._service = service
        self._recorder = recorder
        self._current = current

    def classify(self, backend_name, triples):
        with self._recorder.span(
            "service.classify",
            "serve.queue_s",
            request=getattr(self._current, "id", None),
            backend=backend_name,
        ):
            return self._service.classify(backend_name, triples)

    def __getattr__(self, attr):
        return getattr(self._service, attr)


# -- metrics from spans --------------------------------------------------------


def _count(spans: Sequence[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def unit_table(
    spans: Sequence[Span],
    windows: Sequence[Tuple[float, float]],
    links: Sequence[Tuple[int, int]] = (),
) -> Tuple[Dict[str, float], float, float]:
    """Per-layer seconds per traced unit, unattributed seconds per unit, and
    the mean traced unit wall; layers plus unattributed equal the wall."""
    totals: Dict[str, float] = {}
    unattributed = 0.0
    for start, end in windows:
        layers, rest = attribute_wall(spans, start, end, links)
        for layer, seconds in layers.items():
            totals[layer] = totals.get(layer, 0.0) + seconds
        unattributed += rest
    n = max(1, len(windows))
    wall = sum(end - start for start, end in windows) / n
    return {k: v / n for k, v in totals.items()}, unattributed / n, wall


def program_metrics(
    spans: Sequence[Span],
    windows: Sequence[Tuple[float, float]],
    jobs: int,
    store_mb: Dict[str, float],
    engine_counters: Dict[str, int],
) -> Dict[str, float]:
    """Per-layer metrics of the in-process workloads, per traced unit."""
    n = max(1, len(windows))
    layers, unattributed, wall = unit_table(spans, windows)
    metrics = {name: layers.get(name, 0.0) for name in TIME_METRICS}
    metrics["unattributed_s"] = unattributed
    metrics["traced_wall_s"] = wall
    metrics["pipeline.store_write_mb"] = store_mb.get("write", 0.0) / n
    metrics["pipeline.store_read_mb"] = store_mb.get("read", 0.0) / n
    metrics["pipeline.stages_built"] = _count(spans, "store.write") / n
    metrics["pipeline.stages_loaded"] = _count(spans, "store.read") / n

    warms = [i for i, s in enumerate(spans) if s.name == "lab.warm"]
    if warms:
        busy = sum(
            s.duration for s in spans
            if s.name == "lab.materialize" and s.parent in set(warms)
        )
        capacity = jobs * sum(spans[i].duration for i in warms)
        metrics["pipeline.worker_idle_share"] = 1.0 - busy / capacity
    else:
        metrics["pipeline.worker_idle_share"] = 0.0

    runs = [s for s in spans if s.name == "engine.run"]
    engine_s = sum(s.duration for s in runs)
    delivering = sum(s.duration for s in spans if s.name == "backend.deliver")
    metrics["delivery.worker_busy_share"] = (
        delivering / (jobs * engine_s) if engine_s else 0.0
    )
    attempts = _count(spans, "faults.attempt") or _count(spans, "simulated.complete")
    deliveries = engine_counters.get("deliveries", 0)
    completions = engine_counters.get("completions", 0)
    metrics["delivery.attempts"] = attempts / n
    metrics["delivery.retries"] = max(0, attempts - deliveries) / n
    metrics["delivery.failed"] = engine_counters.get("failed", 0) / n
    metrics["delivery.useful_ratio"] = completions / attempts if attempts else 0.0
    return metrics


def serve_links(spans: Sequence[Span]) -> List[Tuple[int, int]]:
    """(request, batch) links: a dispatch on the batcher thread is a child of
    every ``service.classify`` of its backend that was waiting for it."""
    services = [
        (s.start, s.end, s.attrs.get("backend"), i)
        for i, s in enumerate(spans) if s.name == "service.classify"
    ]
    links = []
    for index, s in enumerate(spans):
        if s.name != "batcher.dispatch":
            continue
        for start, end, backend, service in services:
            if backend == s.attrs.get("backend") and start <= s.start and s.end <= end:
                links.append((service, index))
    return links


def serve_metrics(
    spans: Sequence[Span],
    windows: Sequence[Tuple[float, float]],
    open_loop_ids: Sequence[str],
) -> Dict[str, float]:
    """Per-layer metrics of serve-open from merged generator + server spans.

    ``spans`` holds the generator's ``client.request`` spans and the
    server's spans; a server ``http.post`` is re-parented under the client
    request with the same id.  Percentiles cover the open-loop requests in
    ``open_loop_ids``; the self-time table covers the traced ``windows``.
    """
    spans = list(spans)
    client = {s.request: i for i, s in enumerate(spans) if s.name == "client.request"}
    for s in spans:
        if s.name == "http.post" and s.request in client:
            s.parent = client[s.request]
    links = serve_links(spans)
    layers, unattributed, wall = unit_table(spans, windows, links)
    metrics = {name: layers.get(name, 0.0) for name in TIME_METRICS}
    metrics["unattributed_s"] = unattributed
    metrics["traced_wall_s"] = wall

    wanted = set(open_loop_ids)
    own = self_times(spans, links)
    service = {
        s.request: (s.duration, own[i])
        for i, s in enumerate(spans)
        if s.name == "service.classify" and s.request in wanted
    }
    transport = [
        s.duration - service[s.request][0]
        for s in spans
        if s.name == "client.request" and s.request in service
    ]
    dispatches = [s for s in spans if s.name == "batcher.dispatch"]
    computes = [s.duration for s in spans if s.name == "curator.classify_batch"]

    def pct(values, q):
        return 1000.0 * percentile(values, q) if values else 0.0

    metrics["serve.service_p50_ms"] = pct([d for d, _ in service.values()], 50)
    metrics["serve.service_p95_ms"] = pct([d for d, _ in service.values()], 95)
    metrics["serve.queue_wait_p50_ms"] = pct([w for _, w in service.values()], 50)
    metrics["serve.batch_compute_p50_ms"] = pct(computes, 50)
    metrics["serve.transport_p50_ms"] = pct(transport, 50)
    metrics["serve.transport_p95_ms"] = pct(transport, 95)
    metrics["serve.batch_triples_mean"] = (
        sum(s.attrs["triples"] for s in dispatches) / len(dispatches) if dispatches else 0.0
    )
    metrics["serve.requests_per_batch_mean"] = (
        sum(s.attrs["requests"] for s in dispatches) / len(dispatches) if dispatches else 0.0
    )
    return metrics


__all__ = [
    "PER_LAYER",
    "TIME_METRICS",
    "Tracing",
    "stage_layer",
    "unit_table",
    "program_metrics",
    "serve_links",
    "serve_metrics",
]
