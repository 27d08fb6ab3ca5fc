"""Run manifests: a JSON artefact describing how a result was produced.

A manifest captures everything needed to interpret (and re-run) a benchmark
table: the environment (interpreter, numpy, platform), the active
:class:`~repro.core.experiment.LabConfig`, the full span tree recorded by
the tracer, aggregate counters, and a memory snapshot.  The reporting layer
writes one next to every saved table (``<table>.manifest.json``) whenever
tracing is enabled, and ``repro trace <manifest>`` renders it back as a
per-stage timing summary.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.obs.metrics import memory_metrics
from repro.obs.trace import Tracer, get_tracer
from repro.utils.atomic import atomic_write

PathLike = Union[str, Path]

#: Format tag written into (and required of) every manifest file.
MANIFEST_FORMAT = "repro-manifest-v1"


class ManifestError(Exception):
    """A manifest file is missing, unreadable, or not a manifest."""


#: Process-wide context merged into every manifest (configs, seeds, labels).
_run_context: Dict[str, object] = {}

#: Guards every mutation of the run context — stage events arrive
#: concurrently from the scheduler, and configs/labels may be recorded from
#: worker threads at the same time.
_context_lock = threading.Lock()


def set_context(**fields) -> None:
    """Attach key/value pairs to every subsequently written manifest."""
    with _context_lock:
        _run_context.update(fields)


def record_config(config: object, key: str = "lab_config") -> None:
    """Record a (dataclass) config object in the run context.

    Called by ``Lab.__init__`` so manifests always carry the exact knobs of
    the apparatus that produced them; last constructed Lab wins.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = dataclasses.asdict(config)
    else:
        payload = config
    with _context_lock:
        _run_context[key] = payload


def clear_context() -> None:
    """Drop all recorded run context (used by tests)."""
    with _context_lock:
        _run_context.clear()


def record_stage_event(
    stage: str,
    status: str,
    key: Optional[str] = None,
    duration_s: Optional[float] = None,
) -> None:
    """Record one pipeline-stage materialisation in the run context.

    ``status`` is ``"hit"`` (loaded from the artifact store), ``"miss"``
    (built and persisted) or ``"built"`` (built in memory, no store).  The
    run's manifests then show exactly which substrates were rebuilt versus
    reused — the warm-run assertion CI makes.  Repeat events for one stage
    (several Labs in one process) keep the latest status and a count, and
    the queue wait :func:`record_stage_queue_wait` recorded.
    """
    with _context_lock:
        stages = _run_context.setdefault("stages", {})
        entry = stages.get(stage) or {}
        stages[stage] = {
            "status": status,
            "key": key,
            "duration_s": duration_s,
            "queue_wait_s": entry.get("queue_wait_s"),
            "count": entry.get("count", 0) + 1,
        }


def record_stage_queue_wait(stage: str, queue_wait_s: float) -> None:
    """Record how long a scheduled stage waited for a pool worker (and for
    hand-back) on top of its ``duration_s``; see
    :class:`~repro.pipeline.scheduler.StageResult`."""
    with _context_lock:
        stages = _run_context.setdefault("stages", {})
        stages.setdefault(stage, {})["queue_wait_s"] = queue_wait_s


#: Named callables contributing extra hotspot sub-sections (e.g. the
#: profiler's function/allocation tables).  Keyed by provider name so
#: re-registering replaces rather than duplicates.
_section_providers: Dict[str, Callable[[], dict]] = {}

#: Guards provider registration/snapshotting against concurrent installs.
_providers_lock = threading.Lock()


def register_section_provider(name: str, provider: Callable[[], dict]) -> None:
    """Register a callable whose dict output merges into the hotspots section.

    The provider runs at manifest-build time; each key of its return value
    becomes a key of the manifest's ``hotspots`` section.  This lets
    :mod:`repro.perf` contribute profiler output without the observability
    layer importing it (no obs → perf dependency).
    """
    with _providers_lock:
        _section_providers[name] = provider


def unregister_section_provider(name: str) -> None:
    """Remove a previously registered provider (no-op if absent)."""
    with _providers_lock:
        _section_providers.pop(name, None)


def _walk_spans(span_dicts: List[dict]):
    todo = list(span_dicts)
    while todo:
        node = todo.pop()
        yield node
        todo.extend(node.get("children", ()))


def aggregate_span_times(span_dicts: List[dict]) -> Dict[str, dict]:
    """Aggregate a serialised span forest into per-name timing rows.

    Returns ``{name: {"count", "total_s", "self_s", "max_s"}}`` where
    ``self_s`` is duration minus direct-children time — the basis of the
    slowest-stages ranking.
    """
    rows: Dict[str, dict] = {}
    for node in _walk_spans(span_dicts):
        name = node.get("name", "<unnamed>")
        duration = float(node.get("duration_s", 0.0) or 0.0)
        self_time = float(node.get("self_time_s", duration) or 0.0)
        row = rows.setdefault(
            name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0}
        )
        row["count"] += 1
        row["total_s"] += duration
        row["self_s"] += self_time
        row["max_s"] = max(row["max_s"], duration)
    return rows


def slowest_stages(span_dicts: List[dict], top_n: int = 15) -> List[dict]:
    """The top-``top_n`` span names ranked by aggregate self time."""
    rows = aggregate_span_times(span_dicts)
    ranked = sorted(
        (
            {
                "name": name,
                "count": row["count"],
                "total_s": round(row["total_s"], 6),
                "self_s": round(row["self_s"], 6),
                "max_s": round(row["max_s"], 6),
            }
            for name, row in rows.items()
        ),
        key=lambda row: (-row["self_s"], row["name"]),
    )
    return ranked[: max(0, top_n)]


def build_hotspots(span_dicts: List[dict], top_n: int = 15) -> dict:
    """The manifest ``hotspots`` section: stage ranking + provider extras.

    Always contains ``slowest_stages``; providers registered via
    :func:`register_section_provider` (the profiler adds ``functions`` and
    ``allocations``) merge their keys in.  A failing provider is recorded
    in-place and accounted via the ``manifest.provider_errors`` counter —
    one broken profiler must not lose the whole manifest.
    """
    hotspots: dict = {"slowest_stages": slowest_stages(span_dicts, top_n)}
    with _providers_lock:
        providers = dict(_section_providers)
    for name in sorted(providers):
        try:
            payload = providers[name]()
        except Exception as error:
            get_tracer().count("manifest.provider_errors")
            hotspots[name] = {
                "error": f"{type(error).__name__}: {error}",
            }
            continue
        if payload:
            hotspots.update(payload)
    return hotspots


def environment_info() -> dict:
    """Interpreter / library / platform facts for reproducibility."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    try:
        from repro import __version__ as repro_version
    except ImportError:  # pragma: no cover - import cycle guard
        repro_version = None
    return {
        "repro_version": repro_version,
        "python_version": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy_version": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "pid": os.getpid(),
        "argv": list(sys.argv),
    }


def build_manifest(
    tracer: Optional[Tracer] = None, extra: Optional[dict] = None
) -> dict:
    """Assemble the manifest dictionary from the tracer's current state."""
    tracer = tracer or get_tracer()
    with _context_lock:
        context = dict(_run_context)
    spans = [root.to_dict() for root in tracer.roots()]
    manifest = {
        "format": MANIFEST_FORMAT,
        # statcheck: ignore[DET003] - manifests record when the run happened by design
        "created_unix": time.time(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "environment": environment_info(),
        "context": context,
        "spans": spans,
        "counters": tracer.counters(),
        "memory": memory_metrics(),
        "hotspots": build_hotspots(spans),
    }
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(
    path: PathLike,
    tracer: Optional[Tracer] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Build and write a manifest JSON to ``path``; returns the dict.

    The write is atomic (temp file + rename), so a manifest on disk is
    always complete — a killed run leaves the previous manifest, never a
    truncated one.
    """
    manifest = build_manifest(tracer, extra)
    with atomic_write(path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest


def load_manifest(path: PathLike) -> dict:
    """Load and validate a manifest written by :func:`write_manifest`.

    Raises :class:`ManifestError` (never a bare traceback-worthy error) when
    the file is missing, not JSON, or not a recognised manifest.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise ManifestError(f"manifest not found: {path}") from None
    except IsADirectoryError:
        raise ManifestError(f"not a manifest file: {path} is a directory") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise ManifestError(f"corrupt manifest {path}: {error}") from None
    except OSError as error:
        raise ManifestError(f"cannot read manifest {path}: {error}") from None
    if not isinstance(data, dict) or data.get("format") != MANIFEST_FORMAT:
        raise ManifestError(
            f"{path} is not a {MANIFEST_FORMAT} file "
            f"(found format={data.get('format')!r})"
            if isinstance(data, dict)
            else f"{path} is not a {MANIFEST_FORMAT} file"
        )
    return data


def manifest_path_for(artefact_path: PathLike) -> Path:
    """The manifest path shipped alongside an artefact.

    ``benchmarks/results/table2_datasets.txt`` maps to
    ``benchmarks/results/table2_datasets.manifest.json``.
    """
    path = Path(artefact_path)
    return path.parent / (path.stem + ".manifest.json")


def write_artefact_manifest(
    artefact_path: PathLike,
    title: Optional[str] = None,
    tracer: Optional[Tracer] = None,
) -> Optional[dict]:
    """Write ``<artefact>.manifest.json`` when tracing is enabled.

    This is the hook the reporting layer calls after saving a table; it is a
    silent no-op while tracing is off, so plain (untraced) runs produce
    exactly the artefacts they always did.
    """
    tracer = tracer or get_tracer()
    if not tracer.enabled:
        return None
    extra = {"artefact": str(artefact_path)}
    if title is not None:
        extra["title"] = title
    return write_manifest(manifest_path_for(artefact_path), tracer, extra)


__all__ = [
    "MANIFEST_FORMAT",
    "ManifestError",
    "set_context",
    "record_config",
    "record_stage_event",
    "record_stage_queue_wait",
    "clear_context",
    "environment_info",
    "register_section_provider",
    "unregister_section_provider",
    "aggregate_span_times",
    "slowest_stages",
    "build_hotspots",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "manifest_path_for",
    "write_artefact_manifest",
]
