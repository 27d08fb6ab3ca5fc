"""Worker process: the program side of one workload.

``run.py`` spawns this script, which imports the program from ``src/``,
sets its workload up, reports ``ready`` and then waits for a command on
stdin.  Messages are JSON lines on the process's original stdout; anything
the program itself prints is sent to stderr instead.

    python3 perfbench/worker.py --workload lab-cold --seed 1 --scratch DIR
    python3 perfbench/worker.py --workload cells-warm --seed 1 --scratch DIR --fixture

Commands: ``{"cmd": "exit"}`` ends a set-up-only worker; ``{"cmd": "go",
"seconds": S, "trace": T}`` runs the timed phase; the serve-open worker
instead takes ``{"cmd": "trace", "on": B}`` and ``{"cmd": "stop"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from layers import Tracing, program_metrics  # noqa: E402
from spans import SpanRecorder  # noqa: E402

#: A timed phase runs at least this many units, whatever ``seconds`` says.
MIN_UNITS = 3


class Channel:
    """JSON lines out on a private copy of stdout, in on stdin."""

    def __init__(self):
        self.out = os.fdopen(os.dup(1), "w", buffering=1)
        os.dup2(2, 1)

    def send(self, **message) -> None:
        self.out.write(json.dumps(message) + "\n")
        self.out.flush()

    def receive(self) -> dict:
        line = sys.stdin.readline()
        if not line:
            raise EOFError("the benchmark closed the command pipe")
        return json.loads(line)


def peak_rss_mb() -> float:
    """Peak resident memory of this process since the last reset."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reset_peak_rss() -> None:
    """Restart the peak at the current resident size (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
            refs.write("5")
    except OSError:
        pass


def timed_phase(state, seconds: float, trace: bool, scratch: str) -> dict:
    """Repeat ``state.unit()`` for ``seconds`` (and at least MIN_UNITS times).

    One untimed warm-up unit runs first, so lazy imports and first-touch
    allocations stay out of the figures; peak memory counts from its end.
    With ``trace`` every second unit runs with the wrappers installed; the
    others stay untraced, so one run yields both the per-layer split and the
    overhead of tracing.
    """
    recorder = SpanRecorder()
    tracing = Tracing(recorder)
    state.unit()
    reset_peak_rss()
    units = []
    deadline = time.perf_counter() + seconds
    while len(units) < MIN_UNITS or time.perf_counter() < deadline:
        traced = trace and len(units) % 2 == 1
        if traced:
            tracing.install()
        try:
            unit = state.unit()
        finally:
            if traced:
                tracing.remove()
        unit["traced"] = traced
        units.append(unit)
    result = {"units": units, "rss_mb": peak_rss_mb()}
    if trace:
        traced_units = [u for u in units if u["traced"]]
        counters: dict = {}
        for unit in traced_units:
            for name, value in unit.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
        metrics = program_metrics(
            recorder.spans,
            [u["window"] for u in traced_units],
            state.jobs,
            tracing.store_mb,
            counters,
        )
        metrics["trace_overhead_s"] = statistics.median(
            u["wall_s"] for u in traced_units
        ) - statistics.median(u["wall_s"] for u in units if not u["traced"])
        result["layers"] = metrics
        spans_file = os.path.join(scratch, "spans.json")
        recorder.dump(spans_file)
        result["spans_file"] = spans_file
    return result


def serve(channel: Channel, pool, command: dict) -> None:
    """Answer trace toggles until ``stop``; then report and verify offline."""
    recorder = SpanRecorder()
    tracing = None
    while True:
        if command["cmd"] == "trace":
            if command["on"] and tracing is None:
                tracing = Tracing(recorder).install().install_serve(
                    pool.server, pool.service.pool
                )
            elif not command["on"] and tracing is not None:
                tracing.remove()
                tracing = None
            channel.send(event="ok")
        elif command["cmd"] == "stop":
            if tracing is not None:
                tracing.remove()
            rss = peak_rss_mb()
            pool.stop()
            spans_file = None
            if recorder.spans:
                spans_file = os.path.join(command["scratch"], "server-spans.json")
                recorder.dump(spans_file)
            channel.send(
                event="done",
                rss_mb=rss,
                offline=pool.offline_labels(),
                spans_file=spans_file,
                fingerprint=workloads.fingerprint(),
            )
            return
        command = channel.receive()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--fixture", action="store_true")
    args = parser.parse_args(argv)
    channel = Channel()
    store = os.path.join(args.scratch, "store")
    if args.fixture:
        channel.send(event="done", **workloads.build_fixture(args.seed, store))
        return 0

    ready = {}
    if args.workload == "lab-cold":
        state = workloads.LabCold(args.seed, args.scratch)
    elif args.workload == "cells-warm":
        state = workloads.CellsWarm(args.seed, store)
    elif args.workload == "icl-remote":
        state = workloads.ICLRemote(args.seed)
    elif args.workload == "serve-open":
        state = workloads.ServePool(args.seed)
        ready = {"port": state.port, "candidates": state.payloads}
    else:
        raise SystemExit(f"unknown workload {args.workload!r}")
    channel.send(event="ready", **ready)

    command = channel.receive()
    if command["cmd"] == "exit":
        if args.workload == "serve-open":
            state.stop()
        return 0
    if args.workload == "serve-open":
        serve(channel, state, command)
        return 0
    result = timed_phase(state, command["seconds"], command["trace"], args.scratch)
    if args.workload == "icl-remote":
        result["reference_digest"] = state.reference_digest()
    result["fingerprint"] = workloads.fingerprint()
    channel.send(event="done", **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
