"""The four workloads, measured end to end with tracing off."""

import json
import math
import os
import random
import signal
import subprocess
import time

from benchlib import common, parse, proc, schedule, stats
from benchlib.common import CONFIG, BenchError, build_checkpoints, log

# End-to-end metrics each kind of workload reports. p50_ms and
# max_rate_at_slo need a request stream, so only the serving workloads have
# them.
BATCH_METRICS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "quality_f1")
SERVE_METRICS = BATCH_METRICS + ("p50_ms", "max_rate_at_slo")
METRICS = {"finetune-wdc": BATCH_METRICS, "dedup-100k": BATCH_METRICS,
           "serve-unique": SERVE_METRICS, "fleet-hot": SERVE_METRICS}


def finetune_env(cache, scale=common.FINETUNE_SCALE,
                 epochs=common.FINETUNE_EPOCHS):
    return dict(os.environ, TM_CACHE_DIR=cache, TM_SCALE=str(scale),
                TM_EVAL_MAX="0", TM_EPOCHS=str(epochs))


def finetune_args(metrics_out):
    return ["finetune", "--family", common.FAMILY, "--benchmark",
            common.FINETUNE_BENCHMARK, "--train-threads", str(common.THREADS),
            "--metrics-out", metrics_out]


def dedup_args(checkpoint, json_out, metrics_out,
               entities=common.DEDUP_ENTITIES, extra=()):
    return (["dedup", "--entities", str(entities), "--threads",
             str(common.THREADS), "--budget", str(common.DEDUP_BUDGET),
             "--model", checkpoint, "--seed", str(common.DEDUP_CORPUS_SEED),
             "--json-out", json_out, "--metrics-out", metrics_out]
            + list(extra))


def histogram(metrics_path, name):
    with open(metrics_path) as handle:
        found = json.load(handle)["histograms"].get(name)
    if not found or not found.get("count"):
        raise BenchError(f"{metrics_path} has no {name} histogram")
    return found


def batch_workload(run, name):
    """finetune-wdc / dedup-100k: repeat the command for --seconds."""
    setup_s, checkpoint, cache = build_checkpoints(
        run, common.SETUP_REPEATS_BATCH)
    reps = []
    start = time.perf_counter()
    # Another repeat starts only if a typical one still ends within
    # --seconds, so a run measures for about --seconds, never a repeat more.
    while not reps or (time.perf_counter() - start + stats.median(
            [rep["wall_s"] for rep in reps]) <= run.seconds):
        i = len(reps)
        metrics_out = run.path(f"rep{i}.metrics.json")
        if name == "finetune-wdc":
            result = run.cli(finetune_args(metrics_out),
                             env=finetune_env(cache))
            _, f1, _ = parse.parse_finetune_stdout(result["stdout"])
            answers = histogram(metrics_out, "batch_matcher.pair_latency")
            result.update(quality=f1 / 100.0, answers=answers)
        else:
            json_out = run.path(f"rep{i}.dedup.json")
            result = run.cli(dedup_args(checkpoint, json_out, metrics_out))
            with open(json_out) as handle:
                report = json.load(handle)
            p, r = report["pair_precision"], report["pair_recall"]
            budget = math.floor(common.DEDUP_BUDGET * report["entities"])
            run.check("dedup_escalates_budget", report["escalated"] == budget,
                      f"escalated {report['escalated']} of {budget}")
            answers = histogram(metrics_out, "sim_llm.forward")
            run.check("dedup_answers_counted",
                      answers["count"] == report["escalated"],
                      f"{answers['count']} forwards")
            result.update(quality=2 * p * r / (p + r), answers=answers,
                          recall=report["candidate_recall"])
        reps.append(result)
    run.check("quality_repeats_exactly",
              len({rep["quality"] for rep in reps}) == 1,
              str([rep["quality"] for rep in reps]))
    if name == "dedup-100k":
        run.check("blocking_recall_repeats_exactly",
                  len({rep["recall"] for rep in reps}) == 1,
                  str([rep["recall"] for rep in reps]))
    run.details["reps"] = [
        dict({k: rep[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")},
             answer_p50_ms=rep["answers"]["p50"],
             answer_p99_ms=rep["answers"]["p99"],
             answers=rep["answers"]["count"]) for rep in reps]
    run.checkpoint = checkpoint
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (stats.median([rep["wall_s"] for rep in reps]), "s"),
        "cpu_s": (stats.median([rep["cpu_s"] for rep in reps]), "s"),
        "peak_rss_mb": (stats.median([rep["peak_rss_mb"] for rep in reps]),
                        "MB"),
        "quality_f1": (reps[0]["quality"], "ratio"),
    }


# ---------------------------------------------------------------- serving

class Server:
    """A `tailormatch serve|fleet --port 0` process and its loopback port."""

    def __init__(self, run, args, name):
        self.run = run
        self.log = open(run.path(f"{name}.log"), "w")
        self.started = time.perf_counter()
        self.child = subprocess.Popen(
            [run.tools["cli"]] + args, cwd=run.work, stdin=subprocess.DEVNULL,
            stdout=self.log, stderr=subprocess.STDOUT, start_new_session=True)
        self.port = None
        deadline = self.started + 60
        while self.port is None:
            if self.child.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise BenchError(f"{args[0]} did not start; see {name}.log")
            self.port = proc.listening_port(self.child.pid)
            if self.port is None:
                time.sleep(0.002)

    def first_answer(self, line):
        """Seconds from launch until `line` is answered."""
        reply = proc.request_lines(self.port, [line])
        self.run.attempted += 1
        return time.perf_counter() - self.started, reply

    def op(self, name):
        return proc.request_lines(self.port, [json.dumps({"op": name})])[0]

    def pids(self):
        return proc.tree_pids(self.child.pid)

    def stop(self):
        if self.child.poll() is None and self.port is not None:
            try:
                proc.request_lines(self.port, ['{"op":"shutdown"}'],
                                   timeout=5)
            except OSError:
                pass
        try:
            self.child.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(self.child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.child.wait()
        self.log.close()


def serve_args(checkpoint, fleet, extra=()):
    if fleet:
        return (["fleet", "--model", checkpoint, "--fleet-workers",
                 str(common.FLEET_WORKERS), "--port", "0"] + list(extra))
    return ["serve", "--model", checkpoint, "--port", "0"] + list(extra)


def read_pairs(path):
    pairs = []
    with open(path) as handle:
        for line in handle:
            label, left, right, reference = line.rstrip("\n").split("\t")
            pairs.append({"label": label == "1", "left": left, "right": right,
                          "reference": None if reference == "-" else reference})
    return pairs


class Traffic:
    """Request lines for a workload: distinct pairs or a Zipf-hot pool."""

    def __init__(self, pairs, hot, seed):
        self.pairs = pairs
        self.next_pair = 0
        self.next_id = 0
        self.zipf = schedule.Zipf(len(pairs), common.HOT_POOL_ZIPF_S) \
            if hot else None
        self.rng = random.Random(f"{seed}:traffic")
        self.sent = {}

    def take(self, count):
        """`count` (id, request line) pairs."""
        out = []
        for _ in range(count):
            if self.zipf is not None:
                index = self.zipf.draw(self.rng)
            else:
                index = self.next_pair
                self.next_pair += 1
                if index >= len(self.pairs):
                    raise BenchError("ran out of distinct pairs")
            pair = self.pairs[index]
            request_id = f"r{self.next_id}"
            self.next_id += 1
            self.sent[request_id] = index
            out.append((request_id, json.dumps(
                {"id": request_id, "left": pair["left"],
                 "right": pair["right"]}, separators=(",", ":"))))
        return out


def drive(run, server, traffic, due_us, name, window=0):
    """Sends one request per due time; returns per-request results."""
    requests = traffic.take(len(due_us))
    schedule_path = run.path(f"{name}.sched")
    with open(schedule_path, "w") as handle:
        for due, (_, line) in zip(due_us, requests):
            handle.write(f"{due}\t{line}\n")
    out_path = run.path(f"{name}.out")
    run.pbtool(["load", "--port", str(server.port), "--schedule",
                schedule_path, "--out", out_path, "--connections",
                str(common.CONNECTIONS), "--window", str(window)])
    results = []
    with open(out_path) as handle:
        for (request_id, _), line in zip(requests, handle):
            due, sent, answered, response = line.rstrip("\n").split("\t", 3)
            result = {"id": request_id, "due_us": int(due),
                      "sent_us": int(sent), "answered_us": int(answered),
                      "ok": False}
            if result["answered_us"] >= 0:
                try:
                    reply = json.loads(response)
                except json.JSONDecodeError:
                    reply = {}
                result["reply"] = reply
                result["ok"] = (reply.get("outcome") == "ok"
                                and reply.get("id") == request_id)
            results.append(result)
    run.attempted += len(results)
    bad = sum(not r["ok"] for r in results)
    run.failed += bad
    if bad:
        log(f"{name}: {bad} of {len(results)} requests not ok")
    return results


def latencies_ms(results):
    return [(r["answered_us"] - r["due_us"]) / 1000.0 for r in results
            if r["ok"]]


# Slices a phase's p99 is taken over: a stall of the shared host, or a 40 ms
# reply stall of the program (no TCP_NODELAY; see README.md), can hold more
# than 1% of a phase's requests, and then moves one slice, not the median.
WINDOWS = 8
# A generator whose median send time trails the schedule by more than this
# has fallen behind, and the rate it was asked for is unmet.
MAX_LATENESS_P50_MS = 1.0
# Shortest ladder step; below rung_requests / rate a step holds more.
RUNG_MIN_S = 0.25


def windowed_p99(lat, windows):
    """Median over `windows` equal slices of each slice's p99: one stall
    moves one slice, not the reported figure."""
    size = len(lat) // windows
    return stats.median([stats.percentile(lat[i * size:(i + 1) * size], 99)
                         for i in range(windows)])


def phase_summary(results, limit_ms):
    """Latency, lateness and the pass/fail verdict of one open-loop phase.

    A rate is met when nothing failed, p99 latency from the due time (the
    median of WINDOWS consecutive windows' p99) is within the limit, and
    the generator kept up (median lateness under MAX_LATENESS_P50_MS; its
    p99 lateness, which one stall of the client moves, is reported). Above
    capacity the backlog grows for the whole step and drives p99 far past
    the limit; `backlog` (last quarter's median latency over twice the
    first quarter's) is recorded for the report.
    """
    lat = latencies_ms(results)
    failed = sum(not r["ok"] for r in results)
    late = [(r["sent_us"] - r["due_us"]) / 1000.0 for r in results]
    summary = {"requests": len(results), "failed": failed}
    if len(lat) < 100:
        summary["met"] = False
        return summary
    tail_p, tail_value, _ = stats.tail(lat)
    quarter = len(lat) // 4
    first, last = stats.median(lat[:quarter]), stats.median(lat[-quarter:])
    summary.update(
        p50_ms=stats.median(lat), p99_ms=windowed_p99(lat, WINDOWS),
        p99_raw_ms=stats.percentile(lat, 99),
        tail_p=tail_p, tail_ms=tail_value,
        lateness_p50_ms=stats.median(late),
        lateness_p99_ms=stats.percentile(late, 99),
        backlog=last > max(2.0 * first, 1.0))
    summary["generator_late"] = (summary["lateness_p50_ms"]
                                 > MAX_LATENESS_P50_MS)
    summary["met"] = (failed == 0 and summary["p99_ms"] <= limit_ms
                      and not summary["generator_late"])
    return summary


def max_rate(ladder):
    """Highest met rate of the ladder.

    When the next rate missed on p99 alone, the answer is interpolated in
    log p99 between the two, so the figure moves smoothly with the knee.
    """
    limit = CONFIG["p99_limit_ms"]
    best = 0.0
    for i, (rate, summary) in enumerate(ladder):
        if not summary["met"]:
            continue
        best = float(rate)
        if i + 1 < len(ladder):
            next_rate, above = ladder[i + 1]
            a, b = summary["p99_ms"], above.get("p99_ms", 0.0)
            if (not above["met"] and above["failed"] == 0
                    and not above["generator_late"] and b > limit >= a > 0):
                share = ((math.log(limit) - math.log(a))
                         / (math.log(b) - math.log(a)))
                best = rate + share * (next_rate - rate)
    return best


def serve_workload(run, name):
    """serve-unique / fleet-hot: set-up, closed-loop batch, open loop."""
    started = time.perf_counter()
    fleet = name == "fleet-hot"
    _, checkpoint, _ = build_checkpoints(run, 1)
    run.checkpoint = checkpoint
    seconds = run.seconds
    ref_seconds = 0.4 * seconds
    rung_requests = int(500 * seconds)
    batch_pairs = common.BATCH_CLIENT_PAIRS[name]
    rate = common.REFERENCE_RATE[name]
    repeats = common.SETUP_REPEATS_SERVE
    if fleet:
        count, every = common.HOT_POOL_PAIRS, 1
    else:
        count = (repeats + batch_pairs * common.BATCH_CLIENT_REPEATS
                 + int(1.2 * (rate * ref_seconds
                              + sum(max(rung_requests, step * RUNG_MIN_S)
                                    for step in common.LADDER))) + 100)
        every = 100
    pairs_path = run.path("pairs.tsv")
    run.pbtool(["pairs", "--seed", str(run.seed), "--count", str(count),
                "--out", pairs_path, "--model", checkpoint, "--sample-every",
                str(every)])
    traffic = Traffic(read_pairs(pairs_path), fleet, run.seed)
    log(f"{count} pairs ready after {time.perf_counter() - started:.1f} s")

    # Set-up: launch until the first answered request, several times.
    setups, server = [], None
    for i in range(repeats):
        if server is not None:
            server.stop()
        server = Server(run, serve_args(checkpoint, fleet),
                        f"server{i}")
        elapsed, reply = server.first_answer(traffic.take(1)[0][1])
        setups.append(elapsed)
        run.check("first_answer_ok", '"outcome":"ok"' in reply[0], reply[0])
    try:
        return measure_serving(run, server, traffic, setups, fleet,
                               rate, ref_seconds, batch_pairs, rung_requests)
    finally:
        server.stop()


def measure_serving(run, server, traffic, setups, fleet, rate, ref_seconds,
                    batch_pairs, rung_requests):
    limit = CONFIG["p99_limit_ms"]
    everything = []

    # Closed loop: a batch client pushes a fixed file of pairs.
    pids = server.pids()
    cpu_start = proc.tree_cpu_s(pids)
    walls = []
    for i in range(common.BATCH_CLIENT_REPEATS):
        start = time.perf_counter()
        everything += drive(run, server, traffic, [0] * batch_pairs,
                            f"batch{i}", window=common.BATCH_CLIENT_WINDOW)
        walls.append(time.perf_counter() - start)

    # Open loop at the reference rate, in two halves, one on each side of
    # the ladder: a disturbance of a few seconds on a shared host then moves
    # at most half of the p99 windows.
    def reference_half(half):
        rng = random.Random(f"{run.seed}:reference{half}")
        return drive(run, server, traffic, schedule.poisson_arrivals(
            rate, ref_seconds / 2, rng),
            f"reference{half}")

    reference = reference_half(0)
    # CPU and memory of the server processes over the fixed part (batches
    # and reference), before the ladder's overload steps.
    cpu_s = proc.tree_cpu_s(pids) - cpu_start
    rss = proc.tree_peak_rss_mb(pids)

    # Rate ladder, stopping after two unmet rates in a row.
    ladder = []
    for step in common.LADDER:
        rng = random.Random(f"{run.seed}:{step}")
        due = schedule.poisson_arrivals(
            step, max(RUNG_MIN_S, rung_requests / step), rng)
        results = drive(run, server, traffic, due, f"rate{step}")
        everything += results
        ladder.append((step, phase_summary(results, limit)))
        if len(ladder) >= 2 and not any(s["met"] for _, s in ladder[-2:]):
            break
    best = max_rate(ladder)
    reference += reference_half(1)
    everything += reference
    ref = phase_summary(reference, limit)
    log("ladder: " + ", ".join(
        f"{step}/s {'met' if s['met'] else 'unmet'} p99 {s['p99_ms']:.2f}"
        for step, s in ladder if "p99_ms" in s))

    stats_line = server.op("stats")
    run.details.update(
        ladder=[dict(summary, rate=rate) for rate, summary in ladder],
        reference=ref, stats=parse.parse_op_line(stats_line, "stats"))
    if fleet:
        run.details["fleet"] = parse.parse_op_line(server.op("fleet"),
                                                   "fleet")
    check_answers(run, traffic, everything, fleet)
    answered = [r for r in everything if r["ok"]]
    return {
        "setup_s": (stats.median(setups), "s"),
        "wall_s": (stats.median(walls), "s"),
        "cpu_s": (cpu_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "quality_f1": (verdict_f1(traffic, answered), "ratio"),
        "p50_ms": (ref["p50_ms"], "ms"),
        "max_rate_at_slo": (best, "1/s"),
    }


def verdict_f1(traffic, answered):
    """F1 of the served verdicts over the distinct pairs answered."""
    seen = {}
    for result in answered:
        seen[traffic.sent[result["id"]]] = result["reply"]["match"]
    tp = sum(1 for i, m in seen.items() if m and traffic.pairs[i]["label"])
    fp = sum(1 for i, m in seen.items() if m and not traffic.pairs[i]["label"])
    fn = sum(1 for i, m in seen.items() if not m and traffic.pairs[i]["label"])
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def check_answers(run, traffic, results, fleet):
    """Served probabilities against the offline forward of the same pair.

    A served answer must agree with the offline planned forward to 1e-6
    (wrong model, prompt or pairing fails this). Bitwise agreement with one
    of the offline forwards (planned, capture run, dynamic) is the program's
    batch-invariance contract; HEAD breaks it for a few answers on the
    planned path (README.md, "Known deviations"), so it is reported as a
    share instead of failing the run.
    """
    compared = wrong = bitwise = hits = 0
    examples = []
    for result in results:
        if not result["ok"]:
            continue
        reply = result["reply"]
        hits += bool(reply.get("cache_hit"))
        reference = traffic.pairs[traffic.sent[result["id"]]]["reference"]
        if reference is None:
            continue
        compared += 1
        offline = [float(x) for x in reference.split(",")]
        bitwise += reply["probability"] in offline
        if abs(reply["probability"] - offline[0]) > 1e-6:
            wrong += 1
            if len(examples) < 3:
                examples.append({"id": result["id"],
                                 "answer": reply["probability"],
                                 "offline": reference})
    run.check("probabilities_match_offline", compared > 0 and wrong == 0,
              f"{wrong} of {compared} differ, e.g. {examples}")
    if not fleet:
        run.check("unique_pairs_never_hit_cache", hits == 0, f"{hits} hits")
    run.details.update(cache_hits=hits, answers_compared=compared,
                       answers_bitwise_share=bitwise / max(1, compared))


