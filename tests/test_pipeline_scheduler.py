"""Scheduler tests: parallel == serial, failure isolation, executors."""

import dataclasses
import math
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.experiment import Lab
from repro.obs.manifest import build_manifest, clear_context
from repro.pipeline.graph import StageGraph
from repro.pipeline.scheduler import StageScheduler, _run_timed
from repro.pipeline.stage import Stage, StageError
from tests.conftest import MICRO_LAB_CONFIG


class ToyLab:
    """The minimal Lab surface the scheduler drives, over a toy graph."""

    def __init__(self, graph):
        self.graph = graph
        self.store = None
        self.config = MICRO_LAB_CONFIG
        self._cache = {}
        self._lock = threading.Lock()
        self.build_log = []

    def materialize(self, name):
        with self._lock:
            if name in self._cache:
                return self._cache[name]
        stage = self.graph.stage(name)
        inputs = {dep: self.materialize(dep) for dep in stage.deps}
        artifact = stage.build(self, inputs)
        with self._lock:
            self._cache[name] = artifact
            self.build_log.append(name)
        return artifact


def _toy_graph(failing=()):
    def build(name):
        def _build(lab, inputs):
            if name in failing:
                raise RuntimeError(f"{name} exploded")
            return name

        return _build

    graph = StageGraph(
        [
            Stage(name="root", build=build("root")),
            Stage(name="left", build=build("left"), deps=("root",)),
            Stage(name="right", build=build("right"), deps=("root",)),
            Stage(name="left-leaf", build=build("left-leaf"), deps=("left",)),
            Stage(name="right-leaf", build=build("right-leaf"), deps=("right",)),
        ]
    )
    graph.validate()
    return graph


class TestFailureIsolation:
    def test_failure_surfaces_as_stage_error_naming_the_stage(self):
        lab = ToyLab(_toy_graph(failing={"left"}))
        with pytest.raises(StageError, match="stage 'left' failed") as info:
            StageScheduler(lab).run(["left-leaf", "right-leaf"], jobs=2)
        assert info.value.stage == "left"

    def test_siblings_survive_and_descendants_skip(self):
        lab = ToyLab(_toy_graph(failing={"left"}))
        results = StageScheduler(lab).run(
            ["left-leaf", "right-leaf"], jobs=2, raise_on_error=False
        )
        assert results["left"].status == "failed"
        assert "exploded" in results["left"].error
        assert results["left-leaf"].status == "skipped"
        assert "left" in results["left-leaf"].error
        # the failure does not poison the sibling branch
        assert results["right"].status == "ok"
        assert results["right-leaf"].status == "ok"
        assert lab._cache["right-leaf"] == "right-leaf"
        assert "left-leaf" not in lab._cache

    def test_unknown_executor_rejected(self):
        lab = ToyLab(_toy_graph())
        with pytest.raises(ValueError, match="unknown executor"):
            StageScheduler(lab).run(["root"], executor="carrier-pigeon")

    def test_process_executor_requires_store(self):
        lab = ToyLab(_toy_graph())
        with pytest.raises(StageError, match="artifact store"):
            StageScheduler(lab).run(["root"], executor="process")


def _timing_graph(sleeps, failing=()):
    """Independent root stages that sleep ``sleeps[name]`` seconds each."""

    def build(name):
        def _build(lab, inputs):
            time.sleep(sleeps[name])
            if name in failing:
                raise RuntimeError(f"{name} exploded")
            return name

        return _build

    graph = StageGraph([Stage(name=name, build=build(name)) for name in sleeps])
    graph.validate()
    return graph


class TestStageTiming:
    """``duration_s`` is run time inside the worker; queue wait is separate."""

    def test_stage_queued_behind_a_slow_one_reports_its_wait(self):
        # Ready stages are submitted alphabetically, so at jobs=1 the
        # trivial "b-quick" waits in the pool's queue behind "a-slow".
        lab = ToyLab(_timing_graph({"a-slow": 0.4, "b-quick": 0.0}))
        results = StageScheduler(lab).run(["a-slow", "b-quick"], jobs=1)
        quick, slow = results["b-quick"], results["a-slow"]
        assert quick.duration_s < 0.1
        assert quick.queue_wait_s >= 0.3
        assert slow.duration_s >= 0.4
        assert slow.queue_wait_s < 0.1

    def test_failed_stage_reports_its_run_time(self):
        lab = ToyLab(_timing_graph({"boom": 0.2}, failing={"boom"}))
        results = StageScheduler(lab).run(
            ["boom"], jobs=1, raise_on_error=False
        )
        assert results["boom"].status == "failed"
        assert results["boom"].duration_s >= 0.2

    def test_process_workers_report_run_time(self):
        sleeps = {"a-slow": 0.4, "b-quick": 0.0, "c-fails": 0.0}
        scheduler = StageScheduler(ToyLab(_timing_graph(sleeps)))

        def submit(pool, name):
            if name == "c-fails":
                return pool.submit(_run_timed, math.sqrt, -1.0)
            return pool.submit(_run_timed, time.sleep, sleeps[name])

        with ProcessPoolExecutor(max_workers=1) as pool:
            results = scheduler._wave_run(
                set(sleeps), set(sleeps), pool, submit, raise_on_error=False
            )
        assert results["a-slow"].duration_s >= 0.4
        assert results["b-quick"].duration_s < 0.1
        assert results["b-quick"].queue_wait_s >= 0.3
        assert results["c-fails"].status == "failed"
        assert results["c-fails"].queue_wait_s >= 0.3


class TestDeterminism:
    def test_parallel_matches_serial(self, tmp_path):
        serial_lab = Lab(
            dataclasses.replace(
                MICRO_LAB_CONFIG, artifact_dir=str(tmp_path / "serial")
            )
        )
        serial_results = serial_lab.warm(jobs=1)
        parallel_lab = Lab(
            dataclasses.replace(
                MICRO_LAB_CONFIG, artifact_dir=str(tmp_path / "parallel")
            )
        )
        parallel_results = parallel_lab.warm(jobs=4)

        assert set(serial_results) == set(parallel_results)
        assert all(r.status == "ok" for r in serial_results.values())
        assert all(r.status == "ok" for r in parallel_results.values())

        # identical artifacts regardless of schedule
        assert (
            serial_lab.dataset(1).triples == parallel_lab.dataset(1).triples
        )
        assert (
            serial_lab.chemistry_sentences == parallel_lab.chemistry_sentences
        )
        for name in ("GloVe", "W2V-Chem", "GloVe-Chem"):
            assert np.array_equal(
                serial_lab.embedding(name).matrix,
                parallel_lab.embedding(name).matrix,
            ), name
        assert np.allclose(
            serial_lab.bert.pretrain_losses, parallel_lab.bert.pretrain_losses
        )
        # identical store contents: same stages, same content-addressed keys
        serial_entries = [
            (i.stage, i.key)
            for i in serial_lab.store.ls()
        ]
        parallel_entries = [
            (i.stage, i.key)
            for i in parallel_lab.store.ls()
        ]
        assert serial_entries == parallel_entries

    def test_manifest_records_stage_statuses(self, tmp_path):
        clear_context()
        lab = Lab(
            dataclasses.replace(
                MICRO_LAB_CONFIG, artifact_dir=str(tmp_path / "store")
            )
        )
        lab.warm(jobs=2)
        stages = build_manifest()["context"]["stages"]
        assert stages["ontology"]["status"] == "miss"
        assert stages["ontology"]["key"] == lab.stage_key("ontology")
        assert stages["ontology"]["duration_s"] >= 0
        # derived stages (no store entry) report as built
        assert stages["embedding-Random"]["status"] == "built"


class TestManifestStageTiming:
    """A stage's manifest duration is its own build, whoever triggers it."""

    @pytest.fixture
    def lab(self):
        def slow(lab, inputs):
            time.sleep(0.3)
            return 1

        graph = StageGraph()
        graph.register(Stage(name="slow", build=slow))
        graph.register(
            Stage(name="fast", build=lambda lab, inputs: inputs["slow"] + 1,
                  deps=("slow",))
        )
        lab = Lab(MICRO_LAB_CONFIG)
        lab.graph = graph
        clear_context()
        return lab

    def test_direct_call_charges_dependency_to_dependency(self, lab):
        assert lab.materialize("fast") == 2
        stages = build_manifest()["context"]["stages"]
        assert stages["slow"]["duration_s"] >= 0.3
        assert stages["fast"]["duration_s"] < 0.1

    def test_scheduler_records_queue_wait(self, lab):
        results = lab.warm(targets=["fast"], jobs=1)
        stages = build_manifest()["context"]["stages"]
        for name in ("slow", "fast"):
            assert stages[name]["queue_wait_s"] == results[name].queue_wait_s
            assert stages[name]["status"] == "built"
        assert stages["fast"]["duration_s"] < 0.1


class TestSpanAttribution:
    """Worker spans must nest under the scheduler-run span, not float off
    as roots, whichever executor ran them."""

    @pytest.fixture(autouse=True)
    def clean_tracer(self):
        from repro.obs import trace

        tracer = trace.get_tracer()
        was_enabled = tracer.enabled
        trace.reset()
        tracer.enabled = True
        yield
        tracer.enabled = was_enabled
        trace.reset()

    def _spanning_graph(self):
        from repro.obs.trace import span
        from repro.pipeline.graph import StageGraph

        def build(name):
            def _build(lab, inputs):
                with span(f"stage.{name}"):
                    return name

            return _build

        graph = StageGraph(
            [
                Stage(name="root", build=build("root")),
                Stage(name="left", build=build("left"), deps=("root",)),
                Stage(name="right", build=build("right"), deps=("root",)),
            ]
        )
        graph.validate()
        return graph

    def _descendant_names(self, span_obj):
        names = []
        frontier = list(span_obj.children)
        while frontier:
            node = frontier.pop()
            names.append(node.name)
            frontier.extend(node.children)
        return names

    def test_thread_executor_nests_worker_spans(self):
        from repro.obs.trace import get_tracer

        lab = ToyLab(self._spanning_graph())
        StageScheduler(lab).run(["left", "right"], jobs=2)
        roots = get_tracer().roots()
        assert [r.name for r in roots] == ["scheduler.run"]
        run_span = roots[0]
        names = self._descendant_names(run_span)
        assert sorted(set(names)) == ["stage.left", "stage.right", "stage.root"]
        assert run_span.counters.get("stages.ok") == 3
        # worker spans must not leak into the root list
        assert all(not r.name.startswith("stage.") for r in roots)

    def test_thread_executor_serial_jobs_nest_too(self):
        from repro.obs.trace import get_tracer

        lab = ToyLab(self._spanning_graph())
        StageScheduler(lab).run(["left"], jobs=1)
        roots = get_tracer().roots()
        assert [r.name for r in roots] == ["scheduler.run"]
        assert set(self._descendant_names(roots[0])) == {
            "stage.left", "stage.root",
        }

    def test_process_executor_nests_parent_side_spans(self, tmp_path):
        from repro.obs.trace import get_tracer

        clear_context()
        lab = Lab(
            dataclasses.replace(
                MICRO_LAB_CONFIG, artifact_dir=str(tmp_path / "store")
            )
        )
        StageScheduler(lab).run(["ontology"], jobs=2, executor="process")
        roots = get_tracer().roots()
        run_roots = [r for r in roots if r.name == "scheduler.run"]
        assert len(run_roots) == 1
        # the parent re-materialises the stage (a store hit) inside the
        # scheduler.run span; its lab.* span must nest there, not at root
        names = self._descendant_names(run_roots[0])
        assert "lab.ontology" in names
        assert all(r.name != "lab.ontology" for r in roots)

    def test_nested_span_timing_consistent_under_threads(self):
        from repro.obs.trace import get_tracer

        lab = ToyLab(self._spanning_graph())
        StageScheduler(lab).run(["left", "right"], jobs=2)
        run_span = get_tracer().roots()[0]
        assert run_span.duration > 0
        for child in run_span.children:
            # worker spans were timed on their own clock, not re-timed by
            # adoption; each fits within the scheduler-run envelope
            assert 0 <= child.duration <= run_span.duration
