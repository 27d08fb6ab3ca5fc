"""Tests for baselines and regression comparison (repro.perf.baseline).

The CLI round-trip tests at the bottom are the acceptance proof for
``repro perf compare``: exit 0 against freshly-updated baselines, exit 1
on a synthetically injected slowdown (and on workload drift), exit 2 on a
missing baseline.
"""

import json

import pytest

from repro.cli import main
from repro.perf.baseline import (
    BENCH_FORMAT,
    FINGERPRINT_FIELDS,
    Comparison,
    baseline_path,
    compare_exit_code,
    compare_result,
    environment_fingerprint,
    fingerprint_diff,
    load_baseline,
    load_results,
    parse_tolerance,
    result_payload,
    write_baseline,
    write_results,
)
from repro.perf.harness import Benchmark, PerfError, Protocol
from repro.perf.report import render_comparison


def _measured_payload(median_s=0.05, name="toy", checksum=None):
    """A synthetic area payload with a chosen median."""
    payload = {
        "format": BENCH_FORMAT,
        "area": name,
        "workload": {"n": 3},
        "environment": environment_fingerprint(),
        "name": name,
        "protocol": {"warmup": 0, "repeats": 3},
        "stats": {
            "n": 3,
            "min_s": median_s * 0.9,
            "max_s": median_s * 1.1,
            "mean_s": median_s,
            "median_s": median_s,
            "stdev_s": 0.001,
            "mad_s": 0.001,
            "p99_s": median_s * 1.1,
            "samples_s": [median_s] * 3,
        },
        "checksum": checksum or "abc123",
        "deterministic": True,
    }
    return payload


class TestRoundTrip:
    def test_write_and_load_baseline(self, tmp_path):
        payload = _measured_payload()
        path = write_baseline(payload, tmp_path)
        assert path == baseline_path("toy", tmp_path)
        assert load_baseline("toy", tmp_path) == payload

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(PerfError, match="no baseline"):
            load_baseline("toy", tmp_path)

    def test_load_corrupt_raises(self, tmp_path):
        baseline_path("toy", tmp_path).write_text("not json{")
        with pytest.raises(PerfError, match="corrupt"):
            load_baseline("toy", tmp_path)

    def test_load_wrong_format_raises(self, tmp_path):
        baseline_path("toy", tmp_path).write_text(
            json.dumps({"format": "something-else"})
        )
        with pytest.raises(PerfError, match="repro-bench-v1"):
            load_baseline("toy", tmp_path)

    def test_results_document_round_trip(self, tmp_path):
        payloads = [
            _measured_payload(name="b_area"),
            _measured_payload(name="a_area"),
        ]
        path = tmp_path / "results.json"
        write_results(payloads, path)
        loaded = load_results(path)
        # results come back sorted by area name
        assert [p["area"] for p in loaded] == ["a_area", "b_area"]

    def test_real_measurement_payload(self):
        result = Benchmark("toy", run=lambda state: 42).measure(
            Protocol(warmup=0, repeats=1)
        )
        payload = result_payload(result, {"n": 42})
        assert payload["format"] == BENCH_FORMAT
        assert payload["area"] == "toy"
        assert payload["workload"] == {"n": 42}
        assert payload["environment"]["python_version"]


class TestParseTolerance:
    def test_percent_form(self):
        assert parse_tolerance("25%") == pytest.approx(0.25)

    def test_fraction_form(self):
        assert parse_tolerance("0.1") == pytest.approx(0.1)

    def test_float_passthrough(self):
        assert parse_tolerance(0.5) == 0.5

    def test_garbage_raises(self):
        with pytest.raises(PerfError, match="tolerance"):
            parse_tolerance("fast-ish")

    def test_negative_raises(self):
        with pytest.raises(PerfError, match="non-negative"):
            parse_tolerance("-5%")


class TestCompareResult:
    def test_within_tolerance_is_ok(self):
        comparison = compare_result(
            _measured_payload(0.055), _measured_payload(0.050), tolerance=0.25
        )
        assert comparison.status == "ok"
        assert comparison.is_regression is False

    def test_slowdown_past_both_gates_is_regression(self):
        comparison = compare_result(
            _measured_payload(0.100), _measured_payload(0.050), tolerance=0.25
        )
        assert comparison.status == "regression"
        assert comparison.is_regression is True
        assert comparison.ratio == pytest.approx(2.0)

    def test_relative_breach_below_absolute_floor_is_ok(self):
        # +100% but only +0.5 ms: under the 2 ms noise floor, not flagged.
        comparison = compare_result(
            _measured_payload(0.0010), _measured_payload(0.0005), tolerance=0.25
        )
        assert comparison.status == "ok"

    def test_large_speedup_reported_as_faster(self):
        comparison = compare_result(
            _measured_payload(0.020), _measured_payload(0.050), tolerance=0.25
        )
        assert comparison.status == "faster"
        assert comparison.is_regression is False

    def test_checksum_mismatch_is_drift(self):
        comparison = compare_result(
            _measured_payload(0.050, checksum="new"),
            _measured_payload(0.050, checksum="old"),
        )
        assert comparison.status == "drift"
        assert comparison.is_regression is True

    def test_no_baseline_is_missing(self):
        comparison = compare_result(_measured_payload(), None)
        assert comparison.status == "missing"
        assert comparison.is_error is True

    def test_exit_codes(self):
        ok = Comparison(area="a", status="ok")
        slow = Comparison(area="b", status="regression")
        gone = Comparison(area="c", status="missing")
        assert compare_exit_code([ok]) == 0
        assert compare_exit_code([ok, slow]) == 1
        assert compare_exit_code([ok, slow, gone]) == 2  # errors dominate


class TestFingerprintDiff:
    def test_identical_environments_diff_empty(self):
        env = environment_fingerprint()
        assert fingerprint_diff(env, dict(env)) == {}

    def test_reports_each_differing_field_with_both_values(self):
        current = environment_fingerprint()
        baseline = dict(current)
        baseline["python_version"] = "3.8.0"
        baseline["numpy_version"] = "1.19.0"
        diffs = fingerprint_diff(current, baseline)
        assert set(diffs) == {"python_version", "numpy_version"}
        assert diffs["python_version"] == {
            "current": current["python_version"],
            "baseline": "3.8.0",
        }
        assert diffs["numpy_version"]["baseline"] == "1.19.0"

    def test_missing_environments_diff_against_none(self):
        env = environment_fingerprint()
        diffs = fingerprint_diff(env, None)
        assert set(diffs) == set(FINGERPRINT_FIELDS)
        assert all(v["baseline"] is None for v in diffs.values())

    def test_compare_result_carries_the_diff(self):
        current = _measured_payload(0.050)
        baseline = _measured_payload(0.050)
        baseline["environment"] = dict(baseline["environment"])
        baseline["environment"]["platform"] = "Windows-10"
        comparison = compare_result(current, baseline)
        assert comparison.status == "ok"
        assert comparison.fingerprint is not None
        assert set(comparison.fingerprint) == {"platform"}
        assert comparison.fingerprint["platform"]["baseline"] == "Windows-10"

    def test_matching_environment_leaves_fingerprint_none(self):
        comparison = compare_result(
            _measured_payload(0.050), _measured_payload(0.050)
        )
        assert comparison.fingerprint is None

    def test_render_comparison_names_the_differing_fields(self):
        baseline = _measured_payload(0.050)
        baseline["environment"] = dict(baseline["environment"])
        baseline["environment"]["python_version"] = "3.8.0"
        baseline["environment"]["machine"] = "armv7l"
        comparison = compare_result(_measured_payload(0.050), baseline)
        rendered = render_comparison([comparison], tolerance=0.25)
        assert "environment fingerprint differs" in rendered
        assert "python_version" in rendered
        assert "'3.8.0' (baseline)" in rendered
        assert "machine" in rendered
        assert "'armv7l' (baseline)" in rendered

    def test_render_comparison_quiet_when_environments_match(self):
        comparison = compare_result(
            _measured_payload(0.050), _measured_payload(0.050)
        )
        rendered = render_comparison([comparison], tolerance=0.25)
        assert "fingerprint" not in rendered


class TestCompareCli:
    """End-to-end exit-code proof through the real CLI and a real area."""

    @pytest.fixture()
    def measured(self, tmp_path):
        """A committed baseline and a results file for one cheap area.

        The area is measured once, by ``perf update``; the results file
        carries that same measurement.  A second live timing would make
        the exit code depend on host noise, and these tests check the
        CLI's exit codes, not the host.
        """
        d = str(tmp_path)
        results = str(tmp_path / "results.json")
        assert main(
            ["perf", "update", "--quick", "--dir", d, "obo_parse"]
        ) == 0
        write_results([load_baseline("obo_parse", d)], results)
        return d, results

    def test_run_writes_a_results_file_compare_reads(self, measured):
        d, _ = measured
        fresh = d + "/fresh.json"
        assert main(
            ["perf", "run", "--quick", "--output", fresh, "obo_parse"]
        ) == 0
        (payload,) = load_results(fresh)
        assert payload["area"] == "obo_parse"
        assert payload["checksum"] == load_baseline("obo_parse", d)["checksum"]
        assert payload["stats"]["median_s"] > 0

    def test_clean_run_exits_zero(self, measured, capsys):
        d, results = measured
        code = main(["perf", "compare", "--from", results, "--dir", d])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "within tolerance" in out

    def test_injected_slowdown_exits_nonzero(self, measured, capsys):
        d, results = measured
        # Synthetic slowdown: shrink the committed baseline's timings so
        # the (unchanged) current measurement reads as a big regression.
        path = baseline_path("obo_parse", d)
        baseline = json.loads(path.read_text())
        for key in ("median_s", "min_s", "max_s", "mean_s", "p99_s"):
            baseline["stats"][key] = baseline["stats"][key] / 20.0
        path.write_text(json.dumps(baseline, sort_keys=True))
        code = main(["perf", "compare", "--from", results, "--dir", d])
        out = capsys.readouterr().out
        assert code == 1, out
        assert "REGRESSION" in out

    def test_workload_drift_exits_nonzero(self, measured, capsys):
        d, results = measured
        path = baseline_path("obo_parse", d)
        baseline = json.loads(path.read_text())
        baseline["checksum"] = "0000deadbeef"
        path.write_text(json.dumps(baseline, sort_keys=True))
        code = main(["perf", "compare", "--from", results, "--dir", d])
        out = capsys.readouterr().out
        assert code == 1, out
        assert "DRIFT" in out

    def test_environment_mismatch_names_differing_fields(self, measured, capsys):
        d, results = measured
        path = baseline_path("obo_parse", d)
        baseline = json.loads(path.read_text())
        baseline["environment"]["python_version"] = "2.7.18"
        path.write_text(json.dumps(baseline, sort_keys=True))
        code = main(["perf", "compare", "--from", results, "--dir", d])
        out = capsys.readouterr().out
        assert code == 0, out  # a fingerprint mismatch warns, never blocks
        assert "environment fingerprint differs" in out
        assert "python_version" in out
        assert "'2.7.18' (baseline)" in out

    def test_missing_baseline_exits_two(self, measured, capsys):
        d, results = measured
        baseline_path("obo_parse", d).unlink()
        code = main(["perf", "compare", "--from", results, "--dir", d])
        out = capsys.readouterr().out
        assert code == 2, out
        assert "MISSING" in out

    def test_committed_repo_baselines_are_current(self):
        """The eight BENCH_<area>.json at the repo root parse, carry the
        v1 format, and name exactly the registered areas."""
        from pathlib import Path

        from repro.perf.areas import area_names

        repo_root = Path(__file__).resolve().parents[1]
        for name in area_names():
            baseline = load_baseline(name, repo_root)
            assert baseline["area"] == name
            assert baseline["deterministic"] is True
            assert baseline["stats"]["median_s"] > 0
