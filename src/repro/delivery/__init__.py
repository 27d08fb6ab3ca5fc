"""Concurrent, fault-tolerant delivery of chat completions.

The paper's ICL protocol issues thousands of completions (100 prompts x 5
repeats x several models); delivering them strictly sequentially means one
slow or flaky backend stalls the whole table.  :mod:`repro.delivery` is the
one dispatch layer between the experiment loops and the chat clients —
every ICL completion is delivered through it, a plain run included (as a
one-backend, one-worker engine):

* :class:`~repro.delivery.engine.DeliveryEngine` fans deliveries out over a
  thread pool across N named :class:`~repro.delivery.backends.DeliveryBackend`
  replicas (simulated profiles and HTTP endpoints alike), hedging stragglers
  to a second healthy backend after a seeded threshold;
* each backend sits behind the existing
  :class:`~repro.resilience.retry.RetryPolicy` +
  :class:`~repro.resilience.retry.CircuitBreaker`, plus a per-backend
  :class:`~repro.delivery.ratelimit.TokenBucket` and a per-request
  :class:`~repro.delivery.deadline.DeadlineBudget` — all pure functions of
  an injectable :class:`~repro.resilience.retry.Clock`;
* deadline-exceeded and all-backends-shedding degrade into *typed*
  :class:`~repro.delivery.engine.DeliveryOutcome` statuses that feed the ICL
  loop's existing ``failed`` accounting and the resume
  :class:`~repro.resilience.checkpoint.Journal`;
* a content-addressed :class:`~repro.delivery.cache.ResponseCache` keyed by
  ``(model, prompt-hash, repeat)`` in the
  :class:`~repro.pipeline.store.ArtifactStore` means reruns never re-pay a
  completion.

Determinism survives concurrency because delivery behaviour is pure in
``(prompt, repeat)``: clients expose
:meth:`~repro.llm.client.ChatClient.complete_indexed`, so whichever thread,
backend, or hedge wins produces the same completion — a ``--jobs 8`` table
is byte-identical to a one-worker, one-backend run.
"""

from repro.delivery.backends import DeliveryBackend, LatencyClient, simulated_backends
from repro.delivery.cache import ResponseCache
from repro.delivery.deadline import DeadlineBudget, DeadlineExceeded
from repro.delivery.engine import (
    DeliveryConfig,
    DeliveryEngine,
    DeliveryError,
    DeliveryOutcome,
    DeliveryReport,
    DeliveryRequest,
)
from repro.delivery.ratelimit import TokenBucket

__all__ = [
    "DeliveryBackend",
    "LatencyClient",
    "simulated_backends",
    "ResponseCache",
    "DeadlineBudget",
    "DeadlineExceeded",
    "DeliveryConfig",
    "DeliveryEngine",
    "DeliveryError",
    "DeliveryOutcome",
    "DeliveryReport",
    "DeliveryRequest",
    "TokenBucket",
]
