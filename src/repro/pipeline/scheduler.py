"""Parallel execution of the stage graph.

The :class:`StageScheduler` topologically walks the Lab's stage graph and
materialises every stage a set of targets needs, running ready stages (all
dependencies satisfied) concurrently.  Two executors are offered:

``thread``
    A ``ThreadPoolExecutor`` driving ``lab.materialize`` directly.  The
    Lab's per-stage locks make this safe; artifacts land in the Lab memo
    (and the store, when configured).  This is the default — most builders
    are numpy-bound and release work to BLAS, and it works with or without
    an artifact store.

``process``
    A ``ProcessPoolExecutor`` for CPU-heavy builds.  Requires an artifact
    store: each worker process constructs its *own* Lab against the shared
    store, builds one persistable stage, and persists it; the parent then
    materialises the same stage as a store hit.  Only persistable stages
    are dispatched to workers (the persistable subgraph is closed under
    dependencies, so workers never need an unpersistable input); derived
    stages are materialised in the parent afterwards.

Determinism: results are schedule-independent.  Every builder derives its
randomness from the Lab configuration alone (never from global state or
sibling artifacts), so any execution order — serial, threaded, or across
processes — yields byte-identical artifacts.  The scheduler's wave order is
itself deterministic (lexicographic among ready stages) so manifests are
reproducible too.

Failure isolation: a raising stage is recorded as ``failed`` and its
transitive dependents as ``skipped``; *sibling* branches keep running to
completion.  Unless ``raise_on_error=False``, the scheduler then raises a
:class:`~repro.pipeline.stage.StageError` naming the (alphabetically first)
failed stage, with the original exception chained.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import FIRST_COMPLETED, Executor, wait
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.obs.trace import get_tracer, span
from repro.pipeline.stage import StageError

#: Execution backends accepted by :meth:`StageScheduler.run`.
EXECUTORS = ("thread", "process")


@dataclass(frozen=True)
class StageResult:
    """Outcome of one stage in a scheduler run.

    ``duration_s`` is the stage's run time, measured inside the pool worker;
    ``queue_wait_s`` is the rest of the time from submission until the
    scheduler saw it finish (waiting for a free worker, plus hand-back).
    """

    stage: str
    status: str  # "ok" | "failed" | "skipped"
    duration_s: float = 0.0
    error: Optional[str] = None
    queue_wait_s: float = 0.0


def _run_timed(fn, *args) -> float:
    """Pool-worker body: call ``fn(*args)`` and return how long it ran.

    Must be importable at module level (the process executor pickles it).
    A failure re-raises with the run time attached as ``stage_run_s``.
    """
    started = time.perf_counter()
    try:
        fn(*args)
    except Exception as error:
        error.stage_run_s = time.perf_counter() - started
        raise
    return time.perf_counter() - started


def _process_build_stage(config_kwargs: dict, stage_name: str) -> str:
    """Worker entry point: build one persistable stage into the shared store.

    Runs in a separate process; must be importable at module level.  The
    worker's Lab recomputes identical content-addressed keys from the same
    configuration, so its ``materialize`` either finds the store entry
    already complete (another worker won) or builds and persists it.
    """
    from repro.core.experiment import Lab, LabConfig

    lab = Lab(LabConfig(**config_kwargs))
    if lab.store is None:  # pragma: no cover - guarded by the parent
        raise StageError(stage_name, "process executor requires an artifact store")
    lab.materialize(stage_name)
    return stage_name


class StageScheduler:
    """Topological, parallel materialisation of a Lab's stages."""

    def __init__(self, lab):
        self.lab = lab
        self.graph = lab.graph

    # -- public API ---------------------------------------------------------

    def run(
        self,
        targets: Optional[Sequence[str]] = None,
        jobs: Optional[int] = None,
        executor: str = "thread",
        raise_on_error: bool = True,
    ) -> Dict[str, StageResult]:
        """Materialise ``targets`` (default: every persistable stage).

        Returns a result per involved stage.  ``jobs=None`` lets the
        executor pick (CPU count); ``jobs=1`` degrades to a serial walk.
        """
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; valid: {EXECUTORS}"
            )
        if targets is None:
            targets = [s.name for s in self.graph if s.persistable]
        wanted = self.graph.closure(targets)
        with span(
            "scheduler.run", executor=executor, targets=len(wanted)
        ) as run_span:
            if executor == "process":
                results = self._run_process(wanted, jobs, raise_on_error)
            else:
                results = self._run_thread(wanted, jobs, raise_on_error)
            for result in results.values():
                run_span.incr(f"stages.{result.status}")
            return results

    # -- shared wave machinery ----------------------------------------------

    def _wave_run(
        self,
        wanted: Set[str],
        runnable: Set[str],
        pool: Executor,
        submit,
        raise_on_error: bool,
    ) -> Dict[str, StageResult]:
        """Run ``runnable`` stages through ``pool`` respecting dependencies.

        ``submit(pool, name)`` returns a future; stages in ``wanted`` but
        not ``runnable`` are treated as satisfied dependencies (the caller
        materialises them separately).
        """
        results: Dict[str, StageResult] = {}
        done: Set[str] = set(wanted) - set(runnable)
        failed_or_skipped: Set[str] = set()
        pending: Dict[object, str] = {}
        submitted_at: Dict[str, float] = {}
        submitted: Set[str] = set()

        def ready_stages() -> List[str]:
            return sorted(
                name
                for name in runnable
                if name not in submitted
                and name not in failed_or_skipped
                and all(
                    dep in done
                    for dep in self.graph.stage(name).deps
                    if dep in wanted
                )
            )

        def skip_descendants(name: str) -> None:
            frontier = [name]
            while frontier:
                current = frontier.pop()
                for dependent in self.graph.dependents(current):
                    if (
                        dependent in runnable
                        and dependent not in failed_or_skipped
                    ):
                        failed_or_skipped.add(dependent)
                        results[dependent] = StageResult(
                            stage=dependent,
                            status="skipped",
                            error=f"dependency {name!r} failed",
                        )
                        frontier.append(dependent)

        while True:
            for name in ready_stages():
                submitted.add(name)
                submitted_at[name] = time.perf_counter()
                pending[submit(pool, name)] = name
            if not pending:
                break
            finished, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in finished:
                name = pending.pop(future)
                elapsed = time.perf_counter() - submitted_at[name]
                error = future.exception()
                # A pool that broke before running the stage reports no run
                # time; all of the elapsed time is then charged to the run.
                duration = (
                    future.result() if error is None
                    else getattr(error, "stage_run_s", elapsed)
                )
                queue_wait = max(0.0, elapsed - duration)
                if error is None:
                    done.add(name)
                    results[name] = StageResult(
                        stage=name,
                        status="ok",
                        duration_s=duration,
                        queue_wait_s=queue_wait,
                    )
                else:
                    failed_or_skipped.add(name)
                    results[name] = StageResult(
                        stage=name,
                        status="failed",
                        duration_s=duration,
                        error=f"{type(error).__name__}: {error}",
                        queue_wait_s=queue_wait,
                    )
                    skip_descendants(name)

        if raise_on_error:
            failures = sorted(
                (r.stage, r.error)
                for r in results.values()
                if r.status == "failed"
            )
            if failures:
                stage_name, error = failures[0]
                raise StageError(stage_name, error or "build failed")
        return results

    # -- executors ----------------------------------------------------------

    def _materialize_adopted(self, parent, name: str):
        """Worker-thread body: materialise under the scheduler's span.

        Spans follow per-thread stacks, so without adoption a worker's
        ``lab.<stage>`` span would surface as an unrelated root.  Adopting
        the scheduler-run span re-attaches it to the right parent.
        """
        with get_tracer().adopt(parent):
            return self.lab.materialize(name)

    def _run_thread(
        self, wanted: Set[str], jobs: Optional[int], raise_on_error: bool
    ) -> Dict[str, StageResult]:
        from concurrent.futures import ThreadPoolExecutor

        parent = get_tracer().current_span()
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return self._wave_run(
                wanted,
                set(wanted),
                pool,
                lambda p, name: p.submit(
                    _run_timed, self._materialize_adopted, parent, name
                ),
                raise_on_error,
            )

    def _run_process(
        self, wanted: Set[str], jobs: Optional[int], raise_on_error: bool
    ) -> Dict[str, StageResult]:
        from concurrent.futures import ProcessPoolExecutor

        store = self.lab.store
        if store is None:
            raise StageError(
                "<scheduler>",
                "the process executor needs an artifact store "
                "(set LabConfig.artifact_dir or $REPRO_ARTIFACTS)",
            )
        config_kwargs = dataclasses.asdict(self.lab.config)
        config_kwargs["artifact_dir"] = str(store.root)

        runnable = {
            name for name in wanted if self.graph.stage(name).persistable
        }
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = self._wave_run(
                wanted,
                runnable,
                pool,
                lambda p, name: p.submit(
                    _run_timed, _process_build_stage, config_kwargs, name
                ),
                raise_on_error,
            )
        # Re-materialise in the parent: persistable stages load as store
        # hits; derived stages build from those now-cached inputs.
        built = {name for name, r in results.items() if r.status == "ok"}
        poisoned = {
            name for name, r in results.items() if r.status != "ok"
        }
        for name in self.graph.topological_order(sorted(wanted)):
            deps_ok = all(dep not in poisoned for dep in self.graph.stage(name).deps)
            if name in poisoned or not deps_ok:
                poisoned.add(name)
                continue
            self.lab.materialize(name)
            if name not in built and name not in results:
                results[name] = StageResult(stage=name, status="ok")
        return results


__all__ = ["EXECUTORS", "StageResult", "StageScheduler", "_process_build_stage"]
