"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload lab-cold --seed 1 --seconds 16 --trace 0

Run from the repository root.  The program is imported from ``src/`` inside
worker processes (``worker.py``); this process stays free of it and only
orchestrates, generates serve-open's traffic and checks outputs.

* ``setup_s`` — the worker is started ``SETUP_REPEATS`` times; each start is
  timed from spawn until the worker reports its workload ready, and the
  median is reported.  The last worker goes on to the timed phase.
* ``wall_s`` — the median wall time of one unit of work (see
  ``BENCHMARK.json`` for each workload's unit).
* ``peak_rss_mb`` — peak resident memory of the process running the program.

With ``--trace 1`` the same run installs the per-layer wrappers on every
second unit and prints the per-layer metrics instead.  The last line of
stdout is the JSON result; a human-readable summary precedes it, and the
full run record (fingerprint, every unit, the per-layer table) is written
to ``.perfbench/``.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
from layers import PER_LAYER, TIME_METRICS, serve_metrics  # noqa: E402
from spans import Span, load_spans  # noqa: E402
from workloads import SERVE_BACKENDS  # noqa: E402

WORKLOADS = ("lab-cold", "cells-warm", "icl-remote", "serve-open")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
SETUP_REPEATS = 3
#: The whole run, set-up included, must end well inside this many seconds.
RUN_LIMIT_S = 170
#: serve-open: closed-loop bursts after the open loop, and requests per burst.
SERVE_BURSTS = 6
SERVE_BURST_REQUESTS = 16


class Worker:
    """One ``worker.py`` process and its JSON-lines pipe."""

    def __init__(self, workload: str, seed: int, scratch: str, fixture: bool = False):
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload, "--seed", str(seed), "--scratch", scratch,
        ]
        if fixture:
            command.append("--fixture")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def receive(self, timeout: float = 150.0) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise TimeoutError(f"worker sent nothing for {timeout:.0f}s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def send(self, **command) -> None:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        """Close the pipes and wait for the process; kill it if it lingers."""
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def set_up(workload: str, seed: int, scratch: str, workers: List[Worker]):
    """Start the worker SETUP_REPEATS times; keep the last one running."""
    samples = []
    for attempt in range(SETUP_REPEATS):
        worker = Worker(workload, seed, scratch)
        workers.append(worker)
        ready = worker.receive()
        samples.append(time.perf_counter() - worker.started)
        if attempt < SETUP_REPEATS - 1:
            worker.send(cmd="exit")
            worker.close()
    return worker, ready, samples


def run_program(workload, seed, seconds, trace, scratch, workers) -> dict:
    """lab-cold, cells-warm and icl-remote: units run inside the worker."""
    checks: Dict[str, bool] = {}
    if workload == "cells-warm":
        fixture = Worker(workload, seed, scratch, fixture=True)
        workers.append(fixture)
        built = fixture.receive()
        fixture.close()
        checks["fixture built with no failed stage"] = built["failed"] == 0
    worker, _, setup = set_up(workload, seed, scratch, workers)
    worker.send(cmd="go", seconds=seconds, trace=bool(trace))
    done = worker.receive()
    worker.close()
    units = done["units"]
    digests = {u["digest"] for u in units}
    checks["every unit produced the same output digest"] = len(digests) == 1
    if workload == "icl-remote":
        checks["digest equals the jobs=1 reference"] = digests == {done["reference_digest"]}
    untraced = [u["wall_s"] for u in units if not u["traced"]]
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    layers = done.get("layers", {})
    if layers:
        layers["error_rate"] = failed / attempted
    return {
        "setup_samples": setup,
        "unit_walls": [u["wall_s"] for u in units],
        "traced": [u["traced"] for u in units],
        "wall_s": statistics.median(untraced),
        "peak_rss_mb": done["rss_mb"],
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "layers": layers,
        "spans_file": done.get("spans_file"),
        "fingerprint": done["fingerprint"],
        "units": [{k: v for k, v in u.items() if k != "window"} for u in units],
    }


def client_spans(records: List[loadgen.Record]) -> List[Span]:
    return [
        Span("client.request", "serve.transport_s", r.sent, r.done, request=r.id)
        for r in records
    ]


def run_serve(seed, seconds, trace, scratch, workers) -> dict:
    """serve-open: the worker serves; this process generates the traffic."""
    worker, ready, setup = set_up("serve-open", seed, scratch, workers)
    candidates = ready["candidates"]

    def body_for(request: loadgen.Request) -> bytes:
        return json.dumps({
            "backend": request.backend,
            "triples": [candidates[i] for i in request.triples],
        }).encode("utf-8")

    def tracing(on: bool) -> None:
        worker.send(cmd="trace", on=on)
        worker.receive()

    connections = len(os.sched_getaffinity(0))
    generator = loadgen.Generator(ready["port"], connections, body_for)
    traced_records: List[loadgen.Record] = []
    windows, bursts = [], []
    try:
        if trace:
            tracing(True)
        schedule = loadgen.open_loop_schedule(
            seed, loadgen.RATE_RPS, seconds, SERVE_BACKENDS, len(candidates)
        )
        open_records = generator.run(schedule, time.perf_counter() + 0.05)
        if trace:
            traced_records += open_records
        records = list(open_records)
        for index in range(SERVE_BURSTS):
            traced = bool(trace) and index % 2 == 1
            if trace:
                tracing(traced)
            requests = loadgen.burst(
                seed, f"c{index}", SERVE_BURST_REQUESTS, SERVE_BACKENDS, len(candidates)
            )
            started = time.perf_counter()
            burst_records = generator.run(requests, started)
            ended = time.perf_counter()
            bursts.append((ended - started, traced))
            records += burst_records
            if traced:
                windows.append((started, ended))
                traced_records += burst_records
    finally:
        generator.close()
    worker.send(cmd="stop", scratch=scratch)
    done = worker.receive()
    worker.close()

    offline = done["offline"]
    mismatched = sum(
        1 for r in records
        if r.status == 200 and r.labels != [offline[r.backend][i] for i in r.triples]
    )
    summary = loadgen.summarize(open_records)
    untraced = [wall for wall, traced in bursts if not traced]
    wall = statistics.median(untraced)
    failed = sum(1 for r in records if r.status != 200)
    result = {
        "setup_samples": setup,
        "unit_walls": [w for w, _ in bursts],
        "traced": [t for _, t in bursts],
        "wall_s": wall,
        "peak_rss_mb": done["rss_mb"],
        "attempted": len(records),
        "failed": failed,
        "checks": {"every response matches offline classify_batch": mismatched == 0},
        "serving": dict(
            summary,
            throughput_rps=SERVE_BURST_REQUESTS / wall,
            connections=connections,
            rate_rps=loadgen.RATE_RPS,
            limit_ms=loadgen.LIMIT_S * 1000.0,
        ),
        "fingerprint": dict(done["fingerprint"], generator_connections=connections),
        "layers": {},
        "spans_file": None,
    }
    if trace:
        spans = client_spans(traced_records) + load_spans(done["spans_file"])
        layers = serve_metrics(spans, windows, [r.id for r in open_records])
        traced_walls = [w for w, t in bursts if t]
        layers.update({
            "serve.shed": summary["shed"],
            "serve.generator_late_p95_ms": summary["late_p95_ms"],
            "serve.latency_p50_ms": summary["latency_p50_ms"],
            "serve.latency_p95_ms": summary["latency_p95_ms"],
            "serve.within_limit_share": summary["within_limit_share"],
            "serve.throughput_rps": SERVE_BURST_REQUESTS / wall,
            "error_rate": failed / len(records),
            "trace_overhead_s": statistics.median(traced_walls) - wall,
        })
        result["layers"] = layers
        spans_file = os.path.join(scratch, "spans.json")
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump([s.__dict__ for s in spans], handle)
        result["spans_file"] = spans_file
    return result


def report(workload: str, seed: int, trace: int, run: dict) -> dict:
    """Print the summary and return the contract's result object."""
    setup_s = statistics.median(run["setup_samples"])
    print(f"workload {workload}  seed {seed}  trace {trace}")
    print("  set-up samples (s): " + " ".join(f"{s:.4f}" for s in run["setup_samples"]))
    walls = " ".join(
        f"{w:.4f}{'*' if t else ''}" for w, t in zip(run["unit_walls"], run["traced"])
    )
    print(f"  unit walls (s, * traced): {walls}")
    lines = [
        ("setup_s", setup_s, "s"),
        ("wall_s", run["wall_s"], "s"),
        ("peak_rss_mb", run["peak_rss_mb"], "MB"),
        ("error_rate", run["failed"] / run["attempted"], "ratio"),
    ]
    serving = run.get("serving")
    if serving:
        lines += [
            ("latency_p50_ms", serving["latency_p50_ms"], "ms"),
            ("latency_p95_ms", serving["latency_p95_ms"], "ms"),
            ("within_limit_share", serving["within_limit_share"], "ratio"),
            ("throughput_rps", serving["throughput_rps"], "req/s"),
        ]
        print(
            f"  open loop: {serving['requests']} requests at {serving['rate_rps']:g} req/s"
            f" over {serving['connections']} connections, generator late p95"
            f" {serving['late_p95_ms']:.3f} ms"
        )
    for name, value, unit in lines:
        print(f"  {name:<20s} {value:12.4f} {unit}")
    for check, passed in run["checks"].items():
        print(f"  check: {check}: {'ok' if passed else 'FAILED'}")
    print(f"  fingerprint: {json.dumps(run['fingerprint'], sort_keys=True)}")
    if trace:
        layers = run["layers"]
        metrics = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER
        }
        print("  per-layer (per traced unit):")
        for name, entry in metrics.items():
            if entry["value"]:
                print(f"    {name:<34s} {entry['value']:12.6f} {entry['unit']}")
    else:
        values = {"setup_s": setup_s, "wall_s": run["wall_s"], "peak_rss_mb": run["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": all(run["checks"].values()),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S}s")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing: no {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = out_dir / f"tmp-{tag}-{os.getpid()}"
    scratch.mkdir()
    workers: List[Worker] = []
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_LIMIT_S)
    try:
        if args.workload == "serve-open":
            run = run_serve(args.seed, args.seconds, args.trace, str(scratch), workers)
        else:
            run = run_program(
                args.workload, args.seed, args.seconds, args.trace, str(scratch), workers
            )
        if args.trace:
            layers = run["layers"]
            attributed = sum(layers[name] for name in TIME_METRICS) + layers["unattributed_s"]
            run["checks"]["layer times plus unattributed_s equal the traced wall"] = (
                abs(attributed - layers["traced_wall_s"]) <= 1e-6 * layers["traced_wall_s"]
            )
        if run["spans_file"]:
            spans_file = out_dir / f"{tag}.spans.json"
            shutil.move(run["spans_file"], spans_file)
            run["spans_file"] = str(spans_file)
        result = report(args.workload, args.seed, args.trace, run)
        with open(out_dir / f"{tag}.json", "w", encoding="utf-8") as handle:
            json.dump(dict(run, result=result), handle, indent=1, sort_keys=True)
    finally:
        signal.alarm(0)
        for worker in workers:
            if worker.proc.poll() is None:
                worker.proc.kill()
            worker.proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
