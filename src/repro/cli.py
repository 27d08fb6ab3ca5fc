"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``synthesize`` — generate a ChEBI-like ontology and write it as OBO;
* ``census`` — print the entity/relationship census of an OBO file;
* ``dataset`` — build one curation-task dataset and print its statistics;
* ``evaluate`` — train and score one paradigm on one task;
* ``icl`` — run the Table 5 prompting protocol with a simulated model;
* ``trace`` — pretty-print a saved run manifest as a span-time summary;
* ``resume`` — inspect a checkpoint journal left by an interrupted run;
* ``cache`` — manage the persistent artifact store (``ls``, ``gc``,
  ``invalidate``, ``warm``).  The store directory comes from ``--dir`` or
  the ``$REPRO_ARTIFACTS`` environment variable;
* ``lint`` — run the ``repro.statcheck`` static analyzer over the package
  (or given paths).  Exit 0 clean, 1 findings, 2 analyzer error;
  ``--quick`` runs only the compile/import-cycle smoke check;
* ``perf`` — the benchmark subsystem: ``perf run`` measures the registered
  perf areas, ``perf compare`` diffs against the committed
  ``BENCH_<area>.json`` baselines (exit 0 ok, 1 regression/drift, 2
  harness error), ``perf update`` rewrites them, ``perf report`` renders
  them.

Every command is deterministic given ``--seed``.  The global ``--trace``
flag enables span tracing and stderr progress for any command (equivalent
to ``REPRO_TRACE=1``); ``--profile`` additionally installs the span
profiler so manifests gain hotspot function/allocation tables (equivalent
to ``REPRO_PROFILE=1``); ``--version`` prints the package version.

The ``icl`` command demos the resilience layer: ``--faults
timeout:0.1,http500:0.05`` injects deterministic faults (retried on a
virtual clock, so the run is instant and its table matches the fault-free
one), ``--journal``/``--resume`` checkpoint and resume the delivery loop,
and ``--max-deliveries`` stops a run mid-table to exercise resume.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.core import Lab, LabConfig, build_task_dataset
from repro.core.comparison import evaluate_paradigm
from repro.core.datasets import train_test_split_9_1
from repro.core.paradigms import (
    FineTuneParadigm,
    ICLParadigm,
    LSTMParadigm,
    RandomForestParadigm,
)
from repro.core.reporting import Table
from repro.llm.icl import ICLConfig, build_icl_queries, run_icl_experiment
from repro.llm.prompts import PromptVariant
from repro.llm.simulated import (
    BIOGPT_PROFILE,
    GPT35_PROFILE,
    GPT4_PROFILE,
    LLAMA2_PROFILE,
    SimulatedChatModel,
    truth_table,
)
from repro.ontology import SynthesisConfig, census, synthesize_chebi_like
from repro.ontology.obo import dump_obo, load_obo

SIMULATED_MODELS = {
    "gpt-4": GPT4_PROFILE,
    "gpt-3.5-turbo": GPT35_PROFILE,
    "biogpt": BIOGPT_PROFILE,
    "llama-2": LLAMA2_PROFILE,
}


def _small_lab(args: argparse.Namespace) -> Lab:
    return Lab(
        LabConfig(
            n_chemical_entities=args.entities,
            ontology_seed=args.seed,
            seed=args.seed,
            max_train=args.max_train,
            max_test=args.max_test,
        )
    )


def cmd_synthesize(args: argparse.Namespace) -> int:
    ontology = synthesize_chebi_like(
        SynthesisConfig(n_chemical_entities=args.entities, seed=args.seed)
    )
    dump_obo(ontology, args.output)
    print(
        f"wrote {args.output}: {ontology.num_entities} entities, "
        f"{ontology.num_statements} statements"
    )
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    ontology = load_obo(args.obo)
    result = census(ontology)
    table = Table(f"Census of {args.obo}", ["relation", "triples", "share"],
                  precision=3)
    for name, share in result.relation_shares().items():
        table.add_row(name, result.statements_by_relation[name], share)
    table.show()
    print(f"entities by sub-ontology: {result.entities_by_sub_ontology}")
    return 0


def cmd_dataset(args: argparse.Namespace) -> int:
    if args.obo:
        ontology = load_obo(args.obo)
    else:
        ontology = synthesize_chebi_like(
            SynthesisConfig(n_chemical_entities=args.entities, seed=args.seed)
        )
    dataset = build_task_dataset(ontology, args.task, seed=args.seed)
    n_pos, n_neg = dataset.counts()
    split = train_test_split_9_1(dataset, seed=args.seed)
    print(f"task {args.task}: {n_pos} positive / {n_neg} negative triples")
    print(f"9:1 split: {len(split.train)} train / {len(split.test)} test")
    for triple in list(dataset)[: args.show]:
        print(f"  [{triple.label}] {triple.as_text()}")
    return 0


def _build_paradigm(args: argparse.Namespace, lab: Lab):
    if args.paradigm == "rf":
        return RandomForestParadigm(
            lab.embedding(args.embedding),
            token_filter=lab.adaptation_filter(args.adaptation, args.embedding),
            config=lab.rf_config(),
        )
    if args.paradigm == "lstm":
        return LSTMParadigm(
            lab.embedding(args.embedding),
            token_filter=lab.adaptation_filter(args.adaptation, args.embedding),
            config=lab.lstm_config(),
        )
    if args.paradigm == "ft":
        return FineTuneParadigm(lab.bert, lab.ft_config())
    # icl
    client = SimulatedChatModel(
        SIMULATED_MODELS[args.model],
        truth_table(lab.dataset(args.task)),
        args.task,
        seed=args.seed,
    )
    return ICLParadigm(client, seed=args.seed)


def cmd_evaluate(args: argparse.Namespace) -> int:
    lab = _small_lab(args)
    split = lab.ml_split(args.task)
    paradigm = _build_paradigm(args, lab)
    print(f"fitting {paradigm.name} on {len(split.train)} triples ...")
    paradigm.fit(list(split.train))
    row = evaluate_paradigm(paradigm, list(split.test))
    table = Table(
        f"{paradigm.name} on task {args.task}",
        ["accuracy", "precision", "recall", "F1", "unclassified"],
    )
    table.add_row(row.accuracy, row.precision, row.recall, row.f1,
                  row.n_unclassified)
    table.show()
    return 0


def _render_span(node: dict, indent: int, lines: List[str]) -> None:
    pad = "  " * indent
    details = dict(node.get("attrs") or {})
    details.update(node.get("counters") or {})
    extras = ""
    if details:
        extras = "  [" + ", ".join(
            f"{k}={v}" for k, v in sorted(details.items())
        ) + "]"
    lines.append(
        f"{pad}{node['name']:<{max(1, 40 - len(pad))}} "
        f"total {node['duration_s']*1000:10.2f} ms   "
        f"self {node['self_time_s']*1000:10.2f} ms{extras}"
    )
    for child in node.get("children", ()):
        _render_span(child, indent + 1, lines)


def _aggregate_self_times(node: dict, totals: dict) -> None:
    entry = totals.setdefault(node["name"], {"self": 0.0, "total": 0.0, "count": 0})
    entry["self"] += node.get("self_time_s", 0.0)
    entry["total"] += node.get("duration_s", 0.0)
    entry["count"] += 1
    for child in node.get("children", ()):
        _aggregate_self_times(child, totals)


#: Counter key fragments surfaced in the trace command's resilience section.
_RESILIENCE_PREFIXES = ("retry.", "faults.", "circuit.", "icl.resumes")
_RESILIENCE_SUFFIXES = (".deliveries_failed", ".deliveries_resumed")


def _resilience_lines(manifest: dict) -> List[str]:
    """Degraded-run accounting: resume state and retry/fault/failure counts."""
    lines: List[str] = []
    context = manifest.get("context") or {}
    if context.get("resumed"):
        lines.append(
            f"resumed: true ({context.get('resumed_deliveries', '?')} deliveries "
            f"from {context.get('resume_journal', '?')})"
        )
    counters = manifest.get("counters") or {}
    for name, value in sorted(counters.items()):
        if name.startswith(_RESILIENCE_PREFIXES) or name.endswith(
            _RESILIENCE_SUFFIXES
        ):
            lines.append(f"{name}: {int(value)}")
    return lines


def render_manifest(manifest: dict) -> str:
    """Flame-style text rendering of a manifest's span tree + summary."""
    lines: List[str] = []
    environment = manifest.get("environment", {})
    lines.append(f"manifest: {manifest.get('artefact', manifest.get('title', '?'))}")
    lines.append(
        f"created {manifest.get('created', '?')} | "
        f"python {environment.get('python_version', '?')} | "
        f"numpy {environment.get('numpy_version', '?')} | "
        f"platform {environment.get('platform', '?')}"
    )
    memory = manifest.get("memory") or {}
    if memory.get("peak_rss_mb") is not None:
        lines.append(f"peak RSS: {memory['peak_rss_mb']:.1f} MiB")
    resilience = _resilience_lines(manifest)
    if resilience:
        lines.append("")
        lines.append("resilience")
        lines.append("----------")
        lines.extend(resilience)
    lines.append("")
    lines.append("span tree")
    lines.append("---------")
    for root in manifest.get("spans", ()):
        _render_span(root, 0, lines)
    if not manifest.get("spans"):
        lines.append("(no spans recorded)")

    totals: dict = {}
    for root in manifest.get("spans", ()):
        _aggregate_self_times(root, totals)
    table = Table(
        "per-stage self time (descending)",
        ["stage", "self ms", "total ms", "spans"],
        precision=2,
    )
    for name, entry in sorted(
        totals.items(), key=lambda item: item[1]["self"], reverse=True
    ):
        table.add_row(
            name, entry["self"] * 1000, entry["total"] * 1000, entry["count"]
        )
    lines.append("")
    lines.append(table.render())
    lines.extend(_hotspot_lines(manifest))
    return "\n".join(lines)


def _hotspot_lines(manifest: dict, top_n: int = 10) -> List[str]:
    """Render the manifest's ``hotspots`` section (profiler extras)."""
    hotspots = manifest.get("hotspots") or {}
    lines: List[str] = []
    functions = hotspots.get("functions") or []
    if functions:
        table = Table(
            "hottest functions (profiled, by self time)",
            ["function", "ncalls", "self ms", "cumulative ms"],
            precision=2,
        )
        for row in functions[:top_n]:
            table.add_row(
                row.get("function", "?"),
                row.get("ncalls", 0),
                float(row.get("tottime_s", 0.0)) * 1000,
                float(row.get("cumtime_s", 0.0)) * 1000,
            )
        lines.append("")
        lines.append(table.render())
    allocations = hotspots.get("allocations") or []
    if allocations:
        table = Table(
            "top allocating spans (tracemalloc)",
            ["span", "KiB"],
            precision=1,
        )
        for row in allocations[:top_n]:
            table.add_row(
                row.get("span", "?"),
                float(row.get("alloc_bytes", 0)) / 1024.0,
            )
        lines.append("")
        lines.append(table.render())
    return lines


def render_slowest(manifest: dict, top_n: int) -> str:
    """The ``repro trace --slowest N`` view: ranked per-stage durations."""
    from repro.obs.manifest import slowest_stages

    hotspots = manifest.get("hotspots") or {}
    ranked = hotspots.get("slowest_stages")
    if ranked is None:  # pre-hotspots manifest: aggregate from the span tree
        ranked = slowest_stages(list(manifest.get("spans") or []), top_n)
    table = Table(
        f"slowest stages (top {top_n}, by aggregate self time)",
        ["stage", "self ms", "total ms", "max ms", "spans"],
        precision=2,
    )
    for row in ranked[:top_n]:
        table.add_row(
            row.get("name", "?"),
            float(row.get("self_s", 0.0)) * 1000,
            float(row.get("total_s", 0.0)) * 1000,
            float(row.get("max_s", 0.0)) * 1000,
            row.get("count", 0),
        )
    lines = [f"manifest: {manifest.get('artefact', manifest.get('title', '?'))}"]
    lines.append(table.render())
    lines.extend(_hotspot_lines(manifest))
    return "\n".join(lines)


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.manifest import ManifestError, load_manifest

    try:
        manifest = load_manifest(args.manifest)
    except ManifestError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.slowest is not None:
        if args.slowest < 1:
            print("error: --slowest needs a positive count", file=sys.stderr)
            return 2
        print(render_slowest(manifest, args.slowest))
        return 0
    print(render_manifest(manifest))
    return 0


def cmd_icl(args: argparse.Namespace) -> int:
    from repro.delivery import (
        DeliveryConfig,
        DeliveryEngine,
        ResponseCache,
        simulated_backends,
    )
    from repro.resilience.checkpoint import CheckpointAbort, Journal
    from repro.resilience.faults import FaultClock, FaultPlan, FaultyClient
    from repro.resilience.retry import RetryPolicy

    lab = _small_lab(args)
    dataset = lab.dataset(args.task)
    split = train_test_split_9_1(dataset, seed=args.seed)
    config = ICLConfig(seed=args.seed)
    queries = build_icl_queries(dataset, config)
    profile, truth = SIMULATED_MODELS[args.model], truth_table(dataset)
    client = SimulatedChatModel(profile, truth, args.task, seed=args.seed)
    retry = None
    if args.faults:
        try:
            FaultPlan.parse(args.faults, seed=args.fault_seed)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        # Demo mode: back off on a virtual clock so the run stays instant.
        retry = RetryPolicy(seed=args.seed, clock=FaultClock())
    backends = simulated_backends(
        profile, truth, args.task,
        n_backends=args.n_backends, seed=args.seed,
        fault_plan_text=args.faults, fault_seed=args.fault_seed,
        retry=retry,
    )
    delivery_config = DeliveryConfig(
        jobs=args.jobs,
        hedge_s=args.hedge_ms / 1000.0 if args.hedge_ms is not None else None,
        deadline_s=(
            args.deadline_ms / 1000.0 if args.deadline_ms is not None else None
        ),
        seed=args.seed,
    )
    cache = ResponseCache(args.cache) if args.cache else None
    journal = args.journal
    if journal and not args.resume:
        Journal(journal).wipe()  # fresh start unless explicitly resuming
    variant = PromptVariant(args.variant)
    with DeliveryEngine(backends, delivery_config, cache=cache) as engine:
        try:
            result = run_icl_experiment(
                client, list(split.train), queries, variant, config,
                journal=journal, max_deliveries=args.max_deliveries,
                engine=engine,
            )
        except CheckpointAbort as abort:
            print(f"stopped: {abort}", file=sys.stderr)
            if journal:
                print(
                    f"journal {journal} holds the completed deliveries; "
                    f"rerun with --resume to continue",
                    file=sys.stderr,
                )
            return 3
    table = Table(
        f"ICL protocol: {args.model}, variant #{args.variant}, task {args.task}",
        ["accuracy", "unclassified", "failed", "precision", "recall", "F1",
         "kappa"],
    )
    table.add_row(
        result.accuracy_mean, result.n_unclassified, result.n_failed,
        result.precision_mean, result.recall_mean, result.f1_mean,
        result.kappa,
    )
    table.show()
    if args.output:
        table.save(args.output)
    summary = ", ".join(
        f"{name}={count}" for name, count in sorted(engine.counters().items())
    ) or "no deliveries"
    print(
        f"delivery engine ({args.n_backends} backends, "
        f"{args.jobs} jobs): {summary}",
        file=sys.stderr,
    )
    injected: dict = {}
    calls = 0
    for backend in engine.backends:
        faulty = backend.client
        while faulty is not None and not isinstance(faulty, FaultyClient):
            faulty = getattr(faulty, "inner", None)
        if faulty is None:
            continue
        calls += faulty.calls
        for kind, count in faulty.injected.items():
            injected[kind] = injected.get(kind, 0) + count
    if calls:
        summary = ", ".join(
            f"{kind}={count}" for kind, count in sorted(injected.items())
        ) or "none"
        print(
            f"injected faults over {calls} backend calls: {summary}",
            file=sys.stderr,
        )
    if result.n_resumed:
        print(
            f"resumed {result.n_resumed} deliveries from {journal}",
            file=sys.stderr,
        )
    return 0


def _cache_store(args: argparse.Namespace):
    """The artifact store named by ``--dir`` or ``$REPRO_ARTIFACTS``."""
    from repro.pipeline.store import ARTIFACTS_ENV_VAR, ArtifactStore

    root = args.dir or os.environ.get(ARTIFACTS_ENV_VAR)
    if not root:
        print(
            f"error: no artifact store (pass --dir or set ${ARTIFACTS_ENV_VAR})",
            file=sys.stderr,
        )
        return None
    return ArtifactStore(root)


def cmd_cache_ls(args: argparse.Namespace) -> int:
    store = _cache_store(args)
    if store is None:
        return 2
    infos = store.ls()
    table = Table(
        f"artifact store {store.root}",
        ["stage", "key", "files", "KiB", "age (min)"],
        precision=1,
    )
    now = time.time()  # statcheck: ignore[DET003] - display-only entry age, never hashed
    for info in infos:
        table.add_row(
            info.stage,
            info.key[:16],
            info.n_files,
            info.n_bytes / 1024.0,
            (now - info.created_unix) / 60.0,
        )
    table.show()
    total_bytes = sum(info.n_bytes for info in infos)
    print(f"{len(infos)} entries, {total_bytes / (1024.0 * 1024.0):.2f} MiB")
    return 0


def cmd_cache_gc(args: argparse.Namespace) -> int:
    store = _cache_store(args)
    if store is None:
        return 2
    removed = store.gc(max_age_days=args.max_age_days)
    for path in removed:
        print(f"removed {path}")
    print(f"gc: removed {len(removed)} paths from {store.root}")
    return 0


def cmd_cache_invalidate(args: argparse.Namespace) -> int:
    store = _cache_store(args)
    if store is None:
        return 2
    removed = store.invalidate(args.pattern)
    for info in removed:
        print(f"invalidated {info.stage}/{info.key[:16]}")
    print(
        f"invalidate: removed {len(removed)} entries matching "
        f"{args.pattern!r} from {store.root}"
    )
    return 0


def cmd_cache_warm(args: argparse.Namespace) -> int:
    from repro.obs.manifest import build_manifest
    from repro.pipeline.stage import StageError

    store = _cache_store(args)
    if store is None:
        return 2
    overrides = {"artifact_dir": str(store.root)}
    if args.entities is not None:
        overrides["n_chemical_entities"] = args.entities
    lab = Lab(LabConfig(**overrides))
    try:
        results = lab.warm(jobs=args.jobs, executor=args.executor)
    except StageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    stages = (build_manifest().get("context") or {}).get("stages", {})
    statuses = {}
    for name in sorted(results):
        status = stages.get(name, {}).get("status", results[name].status)
        statuses[status] = statuses.get(status, 0) + 1
        print(f"  {name}: {status}")
    summary = ", ".join(f"{k}={v}" for k, v in sorted(statuses.items()))
    print(f"warmed {len(results)} stages into {store.root} ({summary})")
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    """Summarise a checkpoint journal left by an interrupted run."""
    from repro.llm.icl import FAILED
    from repro.resilience.checkpoint import Journal

    entries = Journal(args.journal).load()
    meta = entries.pop("__meta__", None)
    if not entries and meta is None:
        print(f"{args.journal}: empty or missing journal", file=sys.stderr)
        return 1
    print(f"journal: {args.journal}")
    if isinstance(meta, dict):
        described = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        print(f"experiment: {described}")
        total = int(meta.get("queries", 0)) * int(meta.get("repeats", 0))
        if total:
            print(
                f"progress: {len(entries)}/{total} deliveries "
                f"({100.0 * len(entries) / total:.1f}%)"
            )
    histogram: dict = {}
    for value in entries.values():
        histogram[str(value)] = histogram.get(str(value), 0) + 1
    for outcome in sorted(histogram):
        print(f"  {outcome}: {histogram[outcome]}")
    n_failed = histogram.get(FAILED, 0)
    if n_failed:
        print(f"degraded deliveries (permanent failures): {n_failed}")
    return 0


def _perf_protocol(args: argparse.Namespace):
    """The timing protocol selected by ``--quick``/``--repeats``/``--warmup``."""
    from repro.perf import FULL, QUICK, Protocol

    protocol = QUICK if args.quick else FULL
    if args.repeats is not None or args.warmup is not None:
        protocol = Protocol(
            warmup=protocol.warmup if args.warmup is None else args.warmup,
            repeats=protocol.repeats if args.repeats is None else args.repeats,
        )
    return protocol


def _measure_areas(names, protocol) -> List[dict]:
    """Measure the selected perf areas; returns one payload per area."""
    from repro.perf import result_payload, select_areas

    payloads = []
    for area in select_areas(names):
        print(f"measuring {area.name} ({area.title}) ...", file=sys.stderr)
        benchmark, workload = area.build()
        result = benchmark.measure(protocol)
        payloads.append(result_payload(result, workload))
    return payloads


def cmd_perf_run(args: argparse.Namespace) -> int:
    from repro.perf import PerfError, render_results, write_results

    try:
        payloads = _measure_areas(args.areas, _perf_protocol(args))
        print(render_results(payloads))
        if args.output:
            path = write_results(payloads, args.output)
            print(f"wrote {path}")
    except PerfError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def cmd_perf_compare(args: argparse.Namespace) -> int:
    from repro.perf import (
        PerfError,
        compare_exit_code,
        compare_result,
        load_baseline,
        load_results,
        parse_tolerance,
        render_comparison,
    )

    try:
        tolerance = parse_tolerance(args.tolerance)
        if args.from_file:
            payloads = load_results(args.from_file)
        else:
            payloads = _measure_areas(args.areas, _perf_protocol(args))
        comparisons = []
        for payload in payloads:
            try:
                baseline = load_baseline(payload["area"], args.dir)
            except PerfError:
                baseline = None
            comparisons.append(
                compare_result(payload, baseline, tolerance=tolerance)
            )
    except PerfError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render_comparison(comparisons, tolerance))
    code = compare_exit_code(comparisons)
    if code == 0:
        print("perf: all areas within tolerance")
    elif code == 1:
        print("perf: regression detected", file=sys.stderr)
    else:
        print("perf: missing baselines (run `repro perf update`)",
              file=sys.stderr)
    return code


def cmd_perf_update(args: argparse.Namespace) -> int:
    from repro.perf import PerfError, write_baseline

    try:
        payloads = _measure_areas(args.areas, _perf_protocol(args))
        for payload in payloads:
            path = write_baseline(payload, args.dir)
            print(f"wrote {path}")
    except PerfError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def cmd_perf_report(args: argparse.Namespace) -> int:
    from repro.perf import (
        PerfError,
        area_names,
        load_baseline,
        load_results,
        render_results,
    )

    try:
        if args.from_file:
            payloads = load_results(args.from_file)
            title = f"perf results ({args.from_file})"
        else:
            payloads = []
            for name in args.areas or area_names():
                try:
                    payloads.append(load_baseline(name, args.dir))
                except PerfError:
                    print(f"(no baseline for {name})", file=sys.stderr)
            title = f"committed baselines ({args.dir})"
    except PerfError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not payloads:
        print("error: nothing to report", file=sys.stderr)
        return 2
    print(render_results(payloads, title=title))
    environment = payloads[0].get("environment") or {}
    print(
        f"environment: python {environment.get('python_version', '?')} | "
        f"numpy {environment.get('numpy_version', '?')} | "
        f"{environment.get('platform', '?')}"
    )
    return 0


def _lint_selection(args) -> tuple:
    """Resolve --rules/--flow/--diff into (per-file rules, flow, stale).

    ``--diff`` lints only files changed against a ref; whole-program flow
    rules and stale detection are disabled there because both are only
    sound over the full tree (a call graph over three files proves
    nothing about seed provenance, and a suppression can only be declared
    dead when every rule actually ran against its file's callers).
    """
    from repro import statcheck
    from repro.statcheck.flow import select_flow_rules

    ids = (
        [token.strip() for token in args.rules.split(",") if token.strip()]
        if args.rules
        else None
    )
    if args.diff is not None:
        if args.flow:
            print(
                "note: --flow is ignored with --diff (whole-program "
                "analysis needs the whole program)",
                file=sys.stderr,
            )
        return statcheck.select_rules(ids), False, False
    if ids is None:
        return None, (True if args.flow else None), None
    flow_family = set(statcheck.FAMILIES["flow"])
    flow_ids = [
        token
        for token in ids
        if token.lower() == "flow" or token.upper() in flow_family
    ]
    rules = statcheck.select_rules(ids)
    if flow_ids or args.flow:
        return rules, select_flow_rules(flow_ids or None), False
    return rules, False, False


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the static analyzer.

    Exit 0 clean / 1 findings / 2 crash / 3 stale suppressions only.
    """
    import json
    from pathlib import Path

    from repro import statcheck

    try:
        paths = args.paths or None
        if args.diff is not None:
            changed = statcheck.changed_files(args.diff)
            if not changed:
                print(f"statcheck: no python files changed vs {args.diff}")
                return 0
            paths = changed
        if args.quick:
            started = time.perf_counter()
            findings = statcheck.quick_check(paths)
            report = statcheck.LintReport(
                findings=findings,
                n_files=len(statcheck.discover_files(paths)),
                duration_s=time.perf_counter() - started,
            )
        else:
            rules, flow, stale = _lint_selection(args)
            report = statcheck.run_lint(paths, rules=rules, flow=flow, stale=stale)
        baseline_path = Path(args.baseline)
        if args.update_baseline:
            count = statcheck.write_baseline(baseline_path, report.findings)
            print(
                f"statcheck: baseline {baseline_path} updated "
                f"({count} entr{'y' if count == 1 else 'ies'})"
            )
            return 0
        if baseline_path.is_file():
            baseline = statcheck.load_baseline(baseline_path)
            report.findings, report.baselined = statcheck.split_baselined(
                report.findings, baseline
            )
        statcheck.record_inventory(report)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                statcheck.write_json(report, handle)
        if args.sarif:
            with open(args.sarif, "w", encoding="utf-8") as handle:
                statcheck.write_sarif(report, handle)
        if args.format == "json":
            print(
                json.dumps(
                    statcheck.render_json(report), indent=2, sort_keys=True
                )
            )
        elif args.format == "sarif":
            print(
                json.dumps(
                    statcheck.render_sarif(report), indent=2, sort_keys=True
                )
            )
        else:
            print(statcheck.render_text(report, verbose=args.verbose))
    except statcheck.StatcheckError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    # statcheck: ignore[RES001] - exit code 2 IS the accounting; CI treats it as a crash
    except Exception as error:
        print(f"error: statcheck crashed: {error}", file=sys.stderr)
        return 2
    if report.findings:
        return 1
    if report.stale:
        return 3
    return 0


def _serve_service(args: argparse.Namespace):
    """Warm the requested backends and assemble the curation service."""
    from repro.serve.bench import bench_lab_config
    from repro.serve.curator import build_pool
    from repro.serve.service import CurationService

    lab = Lab(bench_lab_config(entities=args.entities, seed=args.seed))
    backends = [name.strip() for name in args.backends.split(",") if name.strip()]
    print(f"warming backends: {', '.join(backends)} ...", file=sys.stderr)
    curators = build_pool(
        lab, backends, task=args.task, seed=args.seed, icl_model=args.model
    )
    return CurationService.from_curators(
        curators,
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1000.0,
        max_queue=args.queue_size,
    )


def _serve_smoke(port: int) -> int:
    """One healthz + one classify round-trip over real HTTP; 0 on success."""
    import http.client
    import json

    from repro.serve.schemas import SERVE_FORMAT

    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", "/healthz")
        health = json.loads(connection.getresponse().read().decode("utf-8"))
        if health.get("status") != "ok":
            print(f"smoke: unhealthy: {health}", file=sys.stderr)
            return 1
        body = json.dumps(
            {
                "triples": [
                    {
                        "subject": "smoke acid",
                        "relation": "has_role",
                        "object": "smoke inhibitor",
                    }
                ]
            },
            sort_keys=True,
        )
        connection.request(
            "POST", "/v1/classify", body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        if response.status != 200 or payload.get("format") != SERVE_FORMAT:
            print(f"smoke: bad response {response.status}: {payload}",
                  file=sys.stderr)
            return 1
        print(f"smoke: ok (backend={payload['backend']}, "
              f"labels={payload['labels']})")
        return 0
    finally:
        connection.close()


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import start_server, stop_server

    service = _serve_service(args).start()
    # Smoke runs always bind an ephemeral port so they never collide with a
    # real server (or another CI job) on the default port.
    listen_port = 0 if args.smoke else args.port
    server, thread, port = start_server(service, host=args.host, port=listen_port)
    print(f"serving on http://{args.host}:{port} "
          f"(backends: {', '.join(sorted(service.pool))})")
    if args.smoke:
        try:
            return _serve_smoke(port)
        finally:
            stop_server(server, thread)
    try:
        while thread.is_alive():
            thread.join(timeout=1.0)
    except KeyboardInterrupt:
        print("shutting down ...", file=sys.stderr)
    finally:
        stop_server(server, thread)
    return 0


def cmd_bench_serve(args: argparse.Namespace) -> int:
    import json

    from repro.perf import (
        PerfError,
        compare_exit_code,
        compare_result,
        load_baseline,
        parse_tolerance,
        render_comparison,
        write_baseline,
    )
    from repro.serve.bench import (
        SERVE_AREA,
        ServeWorkload,
        measure_serve,
        serve_payload,
    )

    workload = ServeWorkload(
        clients=args.clients,
        requests=args.requests,
        batch=args.batch,
        backend=args.backend,
        task=args.task,
        entities=args.entities,
        seed=args.seed,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        queue_size=args.queue_size,
    )
    print(
        f"bench serve: {workload.clients} clients x {workload.requests} "
        f"requests x {workload.batch} triples against backend "
        f"{workload.backend!r} ...",
        file=sys.stderr,
    )
    try:
        result, serving = measure_serve(workload, _perf_protocol(args))
    except PerfError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    payload = serve_payload(result, workload, serving)
    print(
        f"wave median {result.stats.median * 1e3:.1f} ms | "
        f"p50 {serving['latency_p50_ms']} ms | p99 {serving['latency_p99_ms']} ms | "
        f"{serving['throughput_rps']} req/s | shed rate {serving['shed_rate']} | "
        f"deterministic: {result.deterministic}"
    )
    if args.output:
        from repro.utils.atomic import atomic_write

        with atomic_write(args.output, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    if args.manifest:
        from repro.obs.manifest import write_manifest

        write_manifest(args.manifest, extra={"serve_bench": payload})
        print(f"wrote {args.manifest}")
    if args.update:
        path = write_baseline(payload, args.dir)
        print(f"wrote {path}")
        return 0
    if args.compare:
        try:
            tolerance = parse_tolerance(args.tolerance)
            baseline = load_baseline(SERVE_AREA, args.dir)
        except PerfError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        comparison = compare_result(payload, baseline, tolerance=tolerance)
        print(render_comparison([comparison], tolerance))
        return compare_exit_code([comparison])
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="ChEBI knowledge-curation benchmark reproduction",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="enable span tracing and stderr progress (like REPRO_TRACE=1)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="enable span profiling — implies --trace; manifests gain "
        "hotspots.functions/allocations (like REPRO_PROFILE=1)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    synth = subparsers.add_parser("synthesize", help="generate a synthetic ontology")
    synth.add_argument("output", help="OBO file to write")
    synth.add_argument("--entities", type=int, default=1_000)
    synth.set_defaults(func=cmd_synthesize)

    cen = subparsers.add_parser("census", help="census of an OBO file")
    cen.add_argument("obo", help="OBO file to read")
    cen.set_defaults(func=cmd_census)

    data = subparsers.add_parser("dataset", help="build a task dataset")
    data.add_argument("--task", type=int, choices=(1, 2, 3), default=1)
    data.add_argument("--obo", help="OBO file (default: synthesize)")
    data.add_argument("--entities", type=int, default=1_000)
    data.add_argument("--show", type=int, default=5,
                      help="sample triples to print")
    data.set_defaults(func=cmd_dataset)

    ev = subparsers.add_parser("evaluate", help="train and score one paradigm")
    ev.add_argument("--task", type=int, choices=(1, 2, 3), default=1)
    ev.add_argument("--paradigm", choices=("rf", "lstm", "ft", "icl"),
                    default="rf")
    ev.add_argument("--embedding", default="W2V-Chem")
    ev.add_argument("--adaptation", choices=("none", "naive", "task-oriented"),
                    default="naive")
    ev.add_argument("--model", choices=sorted(SIMULATED_MODELS), default="gpt-4")
    ev.add_argument("--entities", type=int, default=800)
    ev.add_argument("--max-train", type=int, default=1_500, dest="max_train")
    ev.add_argument("--max-test", type=int, default=400, dest="max_test")
    ev.set_defaults(func=cmd_evaluate)

    icl = subparsers.add_parser("icl", help="run the Table 5 ICL protocol")
    icl.add_argument("--task", type=int, choices=(1, 2, 3), default=1)
    icl.add_argument("--model", choices=sorted(SIMULATED_MODELS), default="gpt-4")
    icl.add_argument("--variant", type=int, choices=(1, 2, 3), default=1)
    icl.add_argument("--entities", type=int, default=800)
    icl.add_argument("--max-train", type=int, default=1_500, dest="max_train")
    icl.add_argument("--max-test", type=int, default=400, dest="max_test")
    icl.add_argument(
        "--journal", help="checkpoint journal path (JSONL, one line/delivery)"
    )
    icl.add_argument(
        "--resume", action="store_true",
        help="resume from --journal instead of starting fresh",
    )
    icl.add_argument(
        "--faults", metavar="SPEC",
        help="inject faults, e.g. 'timeout:0.1,http500:0.05,malformed:0.05'",
    )
    icl.add_argument("--fault-seed", type=int, default=0, dest="fault_seed")
    icl.add_argument(
        "--max-deliveries", type=int, default=None, dest="max_deliveries",
        help="stop (exit 3) after this many fresh deliveries; use with "
        "--journal to exercise resume",
    )
    icl.add_argument(
        "--jobs", type=int, default=1,
        help="concurrent delivery workers (>1 routes through the delivery "
        "engine; the table stays byte-identical to --jobs 1)",
    )
    icl.add_argument(
        "--backends", type=int, default=1, dest="n_backends",
        help="simulated backend replicas the engine dispatches over",
    )
    icl.add_argument(
        "--hedge-ms", type=float, default=None, dest="hedge_ms",
        help="hedge a delivery to a second backend after this many ms "
        "without a response",
    )
    icl.add_argument(
        "--deadline-ms", type=float, default=None, dest="deadline_ms",
        help="per-delivery deadline budget in ms (expired deliveries count "
        "as failed)",
    )
    icl.add_argument(
        "--cache", metavar="DIR",
        help="content-addressed response cache directory (an ArtifactStore); "
        "warm reruns rebuild zero completions",
    )
    icl.add_argument("--output", help="also save the table to this path")
    icl.set_defaults(func=cmd_icl)

    trace = subparsers.add_parser(
        "trace", help="pretty-print a saved run manifest"
    )
    trace.add_argument("manifest", help="path to a *.manifest.json file")
    trace.add_argument(
        "--slowest", type=int, default=None, metavar="N",
        help="show only the top-N stages ranked by aggregate self time",
    )
    trace.set_defaults(func=cmd_trace)

    perf = subparsers.add_parser(
        "perf", help="run, compare and refresh the perf-area benchmarks"
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)

    def _perf_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "areas", nargs="*",
            help="perf areas to include (default: all registered areas)",
        )
        sub.add_argument(
            "--quick", action="store_true",
            help="abbreviated protocol (fewer warmup/repeats, same workload)",
        )
        sub.add_argument("--repeats", type=int, default=None,
                         help="override timed repeats")
        sub.add_argument("--warmup", type=int, default=None,
                         help="override warmup executions")
        sub.add_argument(
            "--dir", default=".",
            help="directory holding BENCH_<area>.json baselines (default: .)",
        )

    perf_run = perf_sub.add_parser(
        "run", help="measure perf areas and print robust stats"
    )
    _perf_common(perf_run)
    perf_run.add_argument(
        "--output", default=None,
        help="also write a results JSON document to this path",
    )
    perf_run.set_defaults(func=cmd_perf_run)

    perf_cmp = perf_sub.add_parser(
        "compare",
        help="diff current (or --from) numbers against committed baselines; "
        "exit 0 ok, 1 regression, 2 harness/baseline error",
    )
    _perf_common(perf_cmp)
    perf_cmp.add_argument(
        "--tolerance", default="25%",
        help="relative slowdown allowed before flagging (e.g. '25%%' or 0.25)",
    )
    perf_cmp.add_argument(
        "--from", dest="from_file", default=None, metavar="RESULTS",
        help="compare a results JSON from `perf run --output` instead of "
        "re-measuring",
    )
    perf_cmp.set_defaults(func=cmd_perf_compare)

    perf_upd = perf_sub.add_parser(
        "update", help="re-measure and rewrite the BENCH_<area>.json baselines"
    )
    _perf_common(perf_upd)
    perf_upd.set_defaults(func=cmd_perf_update)

    perf_rep = perf_sub.add_parser(
        "report", help="render committed baselines (or a results JSON)"
    )
    _perf_common(perf_rep)
    perf_rep.add_argument(
        "--from", dest="from_file", default=None, metavar="RESULTS",
        help="render a results JSON instead of the committed baselines",
    )
    perf_rep.set_defaults(func=cmd_perf_report)

    def _serve_knobs(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--task", type=int, choices=(1, 2, 3), default=1)
        sub.add_argument(
            "--entities", type=int, default=120,
            help="ontology size the backends are trained on",
        )
        sub.add_argument(
            "--max-batch", type=int, default=32,
            help="flush a coalesced batch at this many triples",
        )
        sub.add_argument(
            "--max-wait-ms", type=float, default=2.0,
            help="flush once the oldest request waited this long "
            "(0 disables coalescing)",
        )
        sub.add_argument(
            "--queue-size", type=int, default=1024,
            help="bounded queue per backend; overflow is shed with 503",
        )

    serve = subparsers.add_parser(
        "serve", help="run the triple-classification HTTP server"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8077,
        help="listen port (0 binds an ephemeral port)",
    )
    serve.add_argument(
        "--backends", default="rf,lstm,ft,icl",
        help="comma-separated backends to warm (rf, lstm, ft, icl)",
    )
    serve.add_argument(
        "--model", default="gpt-4",
        help="simulated chat model behind the icl backend",
    )
    _serve_knobs(serve)
    serve.add_argument(
        "--smoke", action="store_true",
        help="bind an ephemeral port, run one healthz + classify "
        "round-trip over HTTP, shut down, exit 0 on success",
    )
    serve.set_defaults(func=cmd_serve)

    bench = subparsers.add_parser(
        "bench", help="traffic-driven benchmarks for the serving layer"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_serve = bench_sub.add_parser(
        "serve", help="drive concurrent synthetic clients at an "
        "in-process server; optionally update/compare BENCH_serve.json",
    )
    bench_serve.add_argument(
        "--clients", type=int, default=200,
        help="concurrent client threads per wave",
    )
    bench_serve.add_argument(
        "--requests", type=int, default=3,
        help="sequential requests per client per wave",
    )
    bench_serve.add_argument(
        "--batch", type=int, default=4, help="triples per request"
    )
    bench_serve.add_argument(
        "--backend", default="rf", choices=("rf", "lstm", "ft", "icl"),
        help="backend the traffic targets",
    )
    _serve_knobs(bench_serve)
    bench_serve.add_argument(
        "--quick", action="store_true",
        help="abbreviated timing protocol (1 warmup / 3 waves)",
    )
    bench_serve.add_argument("--warmup", type=int, default=None)
    bench_serve.add_argument("--repeats", type=int, default=None)
    bench_serve.add_argument(
        "--update", action="store_true",
        help="write BENCH_serve.json in --dir",
    )
    bench_serve.add_argument(
        "--compare", action="store_true",
        help="diff against the committed BENCH_serve.json "
        "(exit 0 ok, 1 regression/drift, 2 harness error)",
    )
    bench_serve.add_argument(
        "--tolerance", default="25%",
        help="relative regression tolerance for --compare",
    )
    bench_serve.add_argument(
        "--dir", default=".", help="directory holding BENCH_serve.json"
    )
    bench_serve.add_argument(
        "--output", default=None, help="also write the full results JSON here"
    )
    bench_serve.add_argument(
        "--manifest", default=None,
        help="write an obs manifest (with the bench payload) here",
    )
    bench_serve.set_defaults(func=cmd_bench_serve)

    resume = subparsers.add_parser(
        "resume", help="inspect a checkpoint journal"
    )
    resume.add_argument("journal", help="path to a *.journal.jsonl file")
    resume.set_defaults(func=cmd_resume)

    cache = subparsers.add_parser(
        "cache", help="manage the persistent artifact store"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)

    def _dir_option(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--dir", default=None,
            help="store directory (default: $REPRO_ARTIFACTS)",
        )

    cache_ls = cache_sub.add_parser("ls", help="list complete store entries")
    _dir_option(cache_ls)
    cache_ls.set_defaults(func=cmd_cache_ls)

    cache_gc = cache_sub.add_parser(
        "gc", help="remove temp dirs, incomplete entries and stale locks"
    )
    _dir_option(cache_gc)
    cache_gc.add_argument(
        "--max-age-days", type=float, default=None, dest="max_age_days",
        help="also remove complete entries older than this many days",
    )
    cache_gc.set_defaults(func=cmd_cache_gc)

    cache_inv = cache_sub.add_parser(
        "invalidate", help="remove entries whose stage matches a glob"
    )
    cache_inv.add_argument(
        "pattern", help="stage-name glob, e.g. 'embedding-*' or 'bert'"
    )
    _dir_option(cache_inv)
    cache_inv.set_defaults(func=cmd_cache_invalidate)

    cache_warm = cache_sub.add_parser(
        "warm", help="build every persistable stage into the store"
    )
    _dir_option(cache_warm)
    cache_warm.add_argument(
        "--jobs", type=int, default=None,
        help="parallel stage builds (default: executor's choice)",
    )
    cache_warm.add_argument(
        "--executor", choices=("thread", "process"), default="thread",
    )
    cache_warm.add_argument(
        "--entities", type=int, default=None,
        help="override n_chemical_entities (default: LabConfig default, "
        "matching the benchmark suite)",
    )
    cache_warm.set_defaults(func=cmd_cache_warm)

    lint = subparsers.add_parser(
        "lint",
        help="static analysis: determinism, stage purity, concurrency, "
        "resilience/obs contracts",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files/dirs to lint (default: the installed repro package)",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text"
    )
    lint.add_argument(
        "--quick", action="store_true",
        help="only the compile + import-cycle smoke check",
    )
    lint.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids or families, "
        "e.g. 'determinism,CONC001,flow'",
    )
    lint.add_argument(
        "--flow", action="store_true",
        help="run the whole-program flow rules (FLOW001-004/GRAPH001) "
        "even when --rules narrows the per-file selection; flow rules "
        "are part of the default run",
    )
    lint.add_argument(
        "--diff", nargs="?", const="HEAD", default=None, metavar="REF",
        help="lint only python files changed vs REF (default HEAD), "
        "plus untracked ones; per-file rules only",
    )
    lint.add_argument(
        "--baseline", default=".statcheck-baseline.json", metavar="PATH",
        help="baseline file; when present, baselined findings are "
        "reported but do not fail the run",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline file from this run's findings and exit 0",
    )
    lint.add_argument(
        "--sarif", default=None, metavar="PATH",
        help="also write a SARIF 2.1.0 report to this path "
        "(GitHub code scanning)",
    )
    lint.add_argument(
        "--output", default=None,
        help="also write the JSON report to this path",
    )
    lint.add_argument(
        "--verbose", action="store_true",
        help="also list suppressed and baselined findings (text format)",
    )
    lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trace", False) or getattr(args, "profile", False):
        from repro import obs

        obs.enable()
    if getattr(args, "profile", False):
        from repro.perf import profiler

        profiler.install()
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
