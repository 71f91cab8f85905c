"""The traced run: per-layer metrics for one workload.

Three sources, all on the workload's own inputs (from --seed):
  * what the program itself exports: `finetune` and `dedup` runs with
    `--metrics-out` (trainer, evaluator and cascade figures, and the span
    tree of their stages) and `dedup --json-out`, and the `stats` / `fleet`
    ops of live servers. These are the numbers production exports;
  * `pbtool probe`, only for figures the program does not export: it calls
    each module's public functions with a span around every call (spans
    kept in memory, written once at the end; self time is derived here);
  * the client's view of short serve and fleet sessions over loopback TCP
    (wire time, router overhead, tracing overhead).
The workload's own command runs at full size and the other batch command
runs reduced, so every traced run reports every per-layer metric (README.md
names, for each metric, the workload whose traced run is the one to read).
"""

import json
import random
import time

from benchlib import common, parse, schedule, spans, stats, workloads
from benchlib.common import BenchError, build_checkpoints, log

BATCH_WORKLOADS = ("finetune-wdc", "dedup-100k")


def measure(run, workload):
    _, checkpoint, cache = build_checkpoints(run, 1)
    run.checkpoint = checkpoint
    layers = {}
    finetune_layers(run, workload, cache, layers)
    notes = probe(run, workload, checkpoint, layers)
    dedup_layers(run, workload, checkpoint, layers, notes)
    serving(run, workload, checkpoint, layers)
    return layers


def exported(mapping, key, source):
    """mapping[key], or a BenchError naming the export that lacks it."""
    if key not in mapping:
        raise BenchError(f"{source} exports no {key}")
    return mapping[key]


def load_json(path):
    with open(path) as handle:
        return json.load(handle)


def prefix_ratio(metrics):
    counters = metrics["counters"]
    hits = counters.get("serve.prefix_cache.hits", 0)
    misses = counters.get("serve.prefix_cache.misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


def program_spans(run, metrics, wall_s, root, layers):
    """Coverage of the command's wall time by its own stage spans."""
    layers["obs.span_coverage"] = (
        spans.tree_coverage(metrics["spans"], root, 1e3 * wall_s), "ratio")
    self_ms = spans.tree_self_ms(metrics["spans"])
    run.details["program_span_self_ms"] = dict(sorted(
        self_ms.items(), key=lambda item: -item[1]))


def finetune_layers(run, workload, cache, layers):
    """Trainer, evaluator and data figures `tailormatch finetune` exports."""
    metrics_out = run.path("finetune.metrics.json")
    if workload == "finetune-wdc":
        env = workloads.finetune_env(cache)
    else:
        env = workloads.finetune_env(cache, common.REDUCED_FINETUNE_SCALE,
                                     common.REDUCED_FINETUNE_EPOCHS)
    result = run.cli(workloads.finetune_args(metrics_out), env=env)
    metrics = load_json(metrics_out)
    source = "finetune --metrics-out"
    histograms, gauges = metrics["histograms"], metrics["gauges"]
    epochs = exported(histograms, "trainer.epoch_wall_time", source)
    steps = exported(histograms, "trainer.step_latency", source)
    data_load = spans.tree_find(metrics["spans"], "pipeline.data_load")
    if data_load is None:
        raise BenchError(f"{source} has no pipeline.data_load span")
    layers.update({
        "data.build_benchmark_ms": (data_load["total_ms"], "ms"),
        "core.batch_evaluate_pairs_per_s": (
            exported(gauges, "batch_matcher.pairs_per_sec", source), "1/s"),
        "llm.train_epoch_s": (epochs["sum"] / epochs["count"] / 1e3, "s"),
        "llm.train_step_ms.p50": (steps["p50"], "ms"),
        "llm.train_step_ms.p99": (steps["p99"], "ms"),
        "llm.train_examples_per_s": (
            exported(gauges, "trainer.examples_per_sec", source), "1/s"),
    })
    if workload == "finetune-wdc":
        layers["llm.prefix_hit_ratio"] = (prefix_ratio(metrics), "ratio")
        program_spans(run, metrics, result["wall_s"], "pipeline", layers)


def dedup_entities(workload):
    return (common.DEDUP_ENTITIES if workload == "dedup-100k"
            else common.REDUCED_DEDUP_ENTITIES)


def probe(run, workload, checkpoint, layers):
    """Runs `pbtool probe`; returns its notes (figures for cross-checks)."""
    spans_path, out_path = run.path("spans.json"), run.path("layers.json")
    serving_workload = workload not in BATCH_WORKLOADS
    scale = (common.FINETUNE_SCALE if workload == "finetune-wdc"
             else common.REDUCED_FINETUNE_SCALE)
    requests = common.PROBE_BATCHER_REQUESTS[
        "serving" if serving_workload else "other"]
    start = time.perf_counter()
    run.pbtool(["probe", "--model", checkpoint, "--seed", str(run.seed),
                "--corpus-seed", str(common.DEDUP_CORPUS_SEED),
                "--entities", str(dedup_entities(workload)),
                "--budget", str(common.DEDUP_BUDGET), "--scale", str(scale),
                "--rate", str(common.REFERENCE_RATE["serve-unique"]),
                "--requests", str(requests), "--threads", str(common.THREADS),
                "--spans", spans_path, "--out", out_path])
    log(f"probe took {time.perf_counter() - start:.1f} s")
    found = load_json(out_path)
    for name, (value, unit) in found["metrics"].items():
        layers[name] = (value, unit)
    recorded = load_json(spans_path)["spans"]
    if serving_workload:
        layers["obs.span_coverage"] = (spans.coverage(recorded, "serve"),
                                       "ratio")
    self_ms = {name: ns / 1e6
               for name, ns in spans.self_times_ns(recorded).items()}
    run.details["probe_span_self_ms"] = dict(sorted(
        self_ms.items(), key=lambda item: -item[1])[:25])
    run.details["probe_spans"] = len(recorded)
    return found["notes"]


def dedup_layers(run, workload, checkpoint, layers, notes):
    """`tailormatch dedup`'s report and stage timers; tracing overhead."""
    entities = dedup_entities(workload)
    walls = {}
    for trace in (False, True):
        args = workloads.dedup_args(
            checkpoint, run.path(f"dedup{int(trace)}.json"),
            run.path(f"dedup{int(trace)}.metrics.json"), entities,
            ["--trace"] if trace else [])
        walls[trace] = run.cli(args)["wall_s"]
    report = load_json(run.path("dedup0.json"))
    source = "dedup --json-out"
    stage = exported(report, "stage_ms", source)
    for name, ms in stage.items():
        layers[f"cascade.stage_ms.{name}"] = (ms, "ms")
    candidates = exported(report, "candidate_pairs", source)
    recall = exported(report, "candidate_recall", source)
    layers.update({
        "data.corpus_records_per_s": (
            report["entities"] / (exported(stage, "ingest", source) / 1e3),
            "1/s"),
        # Layer names for three of the stage timers, as README.md maps them.
        "cascade.index_build_ms": (exported(stage, "index", source), "ms"),
        "cascade.scorer_fit_ms": (exported(stage, "calibrate", source), "ms"),
        "cascade.cluster_ms": (exported(stage, "cluster", source), "ms"),
        "cascade.score_ns_per_pair": (
            1e6 * exported(stage, "score", source) / candidates, "ns"),
        "cascade.escalate_pairs_per_s": (
            exported(report, "escalated", source)
            / (exported(stage, "escalate", source) / 1e3), "1/s"),
        "cascade.candidate_pairs": (candidates, "count"),
        "cascade.candidate_precision": (
            recall * exported(report, "true_pairs", source) / candidates,
            "ratio"),
        "cascade.blocking_recall": (recall, "ratio"),
        "cascade.uncertain_share": (
            exported(report, "uncertain", source) / candidates, "ratio"),
        "obs.trace_overhead_ratio.dedup": (walls[False] / walls[True],
                                           "ratio"),
    })
    # The probe's cluster sizes and LSH recall gain are only meaningful if
    # it reached the CLI's decisions.
    p, r = report["pair_precision"], report["pair_recall"]
    cli_f1 = 2 * p * r / (p + r)
    run.check("probe_matches_cli_dedup",
              abs(notes["dedup_pair_f1"] - cli_f1) < 1e-5
              and abs(notes["dedup_blocking_recall"] - recall) < 1e-5,
              f"pair F1 probe {notes['dedup_pair_f1']} cli {cli_f1}; "
              f"recall probe {notes['dedup_blocking_recall']} cli {recall}")
    if workload == "dedup-100k":
        metrics = load_json(run.path("dedup0.metrics.json"))
        layers["llm.prefix_hit_ratio"] = (prefix_ratio(metrics), "ratio")
        program_spans(run, metrics, walls[False], "dedup", layers)


def session(run, checkpoint, traffic, fleet, name, rate, seconds,
            extra=(), batch_pairs=0):
    """One server: an open-loop phase at `rate`, then an optional
    closed-loop batch. Returns (phase results, batch seconds, stats, fleet
    table)."""
    server = workloads.Server(run, workloads.serve_args(checkpoint, fleet,
                                                        extra), name)
    try:
        server.first_answer(traffic.take(1)[0][1])
        rng = random.Random(f"{run.seed}:{name}")
        results = workloads.drive(
            run, server, traffic,
            schedule.poisson_arrivals(rate, seconds, rng), name)
        batch_s = None
        if batch_pairs:
            start = time.perf_counter()
            workloads.drive(run, server, traffic, [0] * batch_pairs,
                            f"{name}-batch",
                            window=common.BATCH_CLIENT_WINDOW)
            batch_s = time.perf_counter() - start
        served = parse.parse_op_line(server.op("stats"), "stats")
        table = parse.parse_op_line(server.op("fleet"), "fleet") \
            if fleet else None
    finally:
        server.stop()
    return results, batch_s, served, table


def serving(run, workload, checkpoint, layers):
    """Serve and fleet layers over loopback TCP."""
    full = workload not in BATCH_WORKLOADS
    seconds = 0.4 * run.seconds if full else 1.0
    rate = common.REFERENCE_RATE["serve-unique"]
    batch_pairs = common.BATCH_CLIENT_PAIRS["serve-unique"]
    count = int(1.3 * rate * seconds) + 2 * batch_pairs + 10
    pairs_path = run.path("pairs.tsv")
    run.pbtool(["pairs", "--seed", str(run.seed), "--count", str(count),
                "--out", pairs_path])
    unique = workloads.Traffic(workloads.read_pairs(pairs_path), False,
                               run.seed)

    # serve-unique: the server's own view of each request against ours.
    results, batch_off, served, _ = session(
        run, checkpoint, unique, False, "unique", rate, seconds,
        ["--metrics-out", run.path("serve.metrics.json")], batch_pairs)
    ok = [r for r in results if r["ok"]]
    server_ms = [r["reply"]["latency_ms"] for r in ok]
    client_ms = workloads.latencies_ms(results)
    layers["serve.server_latency_ms.p50"] = (stats.percentile(server_ms, 50),
                                             "ms")
    layers["serve.server_latency_ms.p99"] = (stats.percentile(server_ms, 99),
                                             "ms")
    layers["serve.wire_ms"] = (stats.median(
        [c - s for c, s in zip(client_ms, server_ms)]), "ms")
    layers["serve.generator_lag_ms"] = (stats.percentile(
        [(r["sent_us"] - r["due_us"]) / 1000.0 for r in results], 99), "ms")
    layers["serve.batch_size.mean"] = (
        served["serve_cache_misses"] / max(1.0, served["serve_batches"]),
        "count")
    layers["serve.batch_size.p95"] = (served.get("batch_size_p95", 0.0),
                                      "count")
    # finetune-wdc and dedup-100k already took theirs from their command.
    layers.setdefault("llm.prefix_hit_ratio", (prefix_ratio(
        load_json(run.path("serve.metrics.json"))), "ratio"))

    # Tracing overhead: the same batch client against a --trace server.
    _, batch_on, _, _ = session(run, checkpoint, unique, False, "traced",
                                rate, 0.2, ["--trace"], batch_pairs)
    layers["obs.trace_overhead_ratio.serve"] = (batch_off / batch_on, "ratio")

    # fleet-hot against a single serve on the same hot mix and rate.
    rate = common.REFERENCE_RATE["fleet-hot"]
    hot_path = run.path("hot.tsv")
    run.pbtool(["pairs", "--seed", str(run.seed), "--count",
                str(common.HOT_POOL_PAIRS), "--out", hot_path])
    pool = workloads.read_pairs(hot_path)
    answers = {}
    p50 = {}
    for fleet in (False, True):
        traffic = workloads.Traffic(pool, True, run.seed)
        results, _, served, table = session(
            run, checkpoint, traffic, fleet, "fleet" if fleet else "single",
            rate, seconds)
        p50[fleet] = stats.median(workloads.latencies_ms(results))
        answers[fleet] = {traffic.sent[r["id"]]: r["reply"]["probability"]
                          for r in results if r["ok"]}
        if fleet:
            layers["serve.cache_hit_ratio"] = (
                served["serve_cache_hits"] / max(1.0, served["serve_requests"]),
                "ratio")
            # Zero in every fault-free run, so checked, not reported as
            # metrics.
            counters = {key: served[key] for key in (
                "fleet_retry_attempts", "fleet_hedge_attempts",
                "fleet_degraded")}
            counters["restarts"] = table["restarts"]
            run.details["fleet_counters"] = counters
            run.check("fleet_fault_free",
                      counters["fleet_retry_attempts"] == 0
                      and counters["fleet_degraded"] == 0
                      and counters["restarts"] == 0, json.dumps(counters))
    layers["fleet.router_overhead_ms"] = (p50[True] - p50[False], "ms")
    shared = set(answers[False]) & set(answers[True])
    differ = [i for i in shared
              if abs(answers[False][i] - answers[True][i]) > 1e-6]
    bitwise = sum(answers[False][i] == answers[True][i] for i in shared)
    run.check("fleet_answers_equal_serve", bool(shared) and not differ,
              f"{len(differ)} of {len(shared)} pairs differ")
    run.details["fleet_serve_bitwise_share"] = bitwise / max(1, len(shared))
