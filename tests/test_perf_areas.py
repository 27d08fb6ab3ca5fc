"""Tests for the perf-area registry (repro.perf.areas)."""

import pytest

from repro.perf.areas import AREAS, area_names, get_area, select_areas
from repro.perf.harness import PerfError, Protocol

EXPECTED_AREAS = (
    "obo_parse",
    "wordpiece",
    "glove_cooccur",
    "word2vec_neg",
    "bert_pretrain_step",
    "bert_finetune",
    "stop_tokens",
    "rf_fit",
    "icl_delivery",
    "store_roundtrip",
)


class TestRegistry:
    def test_the_expected_areas_are_registered(self):
        assert area_names() == list(EXPECTED_AREAS)
        assert len(AREAS) == len(EXPECTED_AREAS) == 10

    def test_every_area_has_a_title(self):
        assert all(area.title for area in AREAS)

    def test_get_area_by_name(self):
        assert get_area("obo_parse").name == "obo_parse"

    def test_get_area_unknown_raises(self):
        with pytest.raises(PerfError, match="unknown perf area"):
            get_area("quantum_flux")

    def test_select_defaults_to_all(self):
        assert [a.name for a in select_areas()] == list(EXPECTED_AREAS)

    def test_select_preserves_registry_order(self):
        picked = select_areas(["store_roundtrip", "obo_parse"])
        assert [a.name for a in picked] == ["obo_parse", "store_roundtrip"]

    def test_select_unknown_raises(self):
        with pytest.raises(PerfError):
            select_areas(["obo_parse", "nope"])


class TestWorkloads:
    # Exercising every area here would re-run the whole benchmark suite on
    # each pytest invocation; the cheapest two prove the wiring (the full
    # sweep runs in CI's perf job and in `repro perf update`).

    @pytest.mark.parametrize("name", ["obo_parse", "store_roundtrip"])
    def test_area_measures_deterministically(self, name):
        benchmark, workload = get_area(name).build()
        first = benchmark.measure(Protocol(warmup=0, repeats=2))
        assert first.deterministic is True
        assert first.stats.n == 2
        assert isinstance(workload, dict) and workload
        # a fresh build of the same area reproduces the checksum
        rebuilt, _ = get_area(name).build()
        second = rebuilt.measure(Protocol(warmup=0, repeats=1))
        assert second.checksum == first.checksum
