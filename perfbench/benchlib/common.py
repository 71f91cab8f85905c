"""State shared by every workload: config, build, run bookkeeping."""

import hashlib
import json
import os
import shutil
import subprocess
import sys

from benchlib import proc, stats

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")

# What a claim must record outside BENCHMARK.json: the default and held-out
# seeds and the p99 limit of the serving workloads.
with open(os.path.join(HERE, "config.json")) as _handle:
    CONFIG = json.load(_handle)

# Fixed sizes of the workloads. One value drives both the CLI commands and
# `pbtool probe`, which takes them as arguments.
FAMILY = "llama8b"
THREADS = 4  # --threads / --train-threads of every command; nproc = 4
FINETUNE_BENCHMARK = "wdc-small"
FINETUNE_SCALE = 1  # TM_SCALE: Table-1 size
FINETUNE_EPOCHS = 10  # the paper's
DEDUP_ENTITIES = 100000
DEDUP_BUDGET = 0.1
DEDUP_CORPUS_SEED = 20260809  # the CLI's default `dedup --seed`
SETUP_REPEATS_BATCH = 3
SETUP_REPEATS_SERVE = 5

# Traced runs run the batch workload that is not theirs at this reduced
# size, so every traced run reports every per-layer metric.
REDUCED_FINETUNE_SCALE = 0.1
REDUCED_FINETUNE_EPOCHS = 1
REDUCED_DEDUP_ENTITIES = 20000

# Serving: one load process, 4 connections, a fixed rate ladder.
CONNECTIONS = 4
REFERENCE_RATE = {"serve-unique": 2000, "fleet-hot": 10000}
LADDER = (2000, 2500, 3150, 4000, 5000, 6300, 8000, 10000, 12500, 16000,
          20000, 25000, 32000, 40000, 50000, 63000)
BATCH_CLIENT_PAIRS = {"serve-unique": 8000, "fleet-hot": 32000}
BATCH_CLIENT_WINDOW = 32  # unanswered requests per connection
BATCH_CLIENT_REPEATS = 3
HOT_POOL_PAIRS = 500
HOT_POOL_ZIPF_S = 1.0
FLEET_WORKERS = 2
# In-process MicroBatcher requests the probe submits on the serve-unique
# schedule: more when a serving workload is the one traced.
PROBE_BATCHER_REQUESTS = {"serving": 4000, "other": 1000}


class BenchError(Exception):
    """The benchmark cannot produce a result (build or launch failure)."""


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build():
    """Builds tailormatch and pbtool; returns their paths."""
    for needed in ("src/CMakeLists.txt", "tools/tailormatch_cli.cpp",
                   "CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"not a tailormatch source tree: no {needed}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
                    "tailormatch_cli", "pbtool"], check=True,
                   stdout=sys.stderr)
    return {"cli": os.path.join(BUILD_DIR, "tailormatch", "tools",
                                "tailormatch"),
            "pbtool": os.path.join(BUILD_DIR, "pbtool")}


def header(seed, checkpoint):
    """The shared result header: host, build, sources, seed, checkpoint."""
    compiler = "unknown"
    build_type = "unknown"
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1].strip()
                version = subprocess.run([path, "--version"],
                                         capture_output=True, text=True)
                compiler = version.stdout.splitlines()[0]
            elif line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    git_sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        git_sha = git.stdout.strip() or None
    digest = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return {"cores": os.cpu_count(), "compiler": compiler,
            "build_type": build_type,
            "git_sha": git_sha,
            "source_sha256": digest.hexdigest()[:16], "seed": seed,
            "checkpoint_sha256": sha256_file(checkpoint)[:16]}


def sha256_file(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class Run:
    """Tools, scratch directory, checks and operation counts of one run."""

    def __init__(self, tools, work, seed, seconds):
        self.tools = tools
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.details = {}

    def path(self, name):
        return os.path.join(self.work, name)

    def check(self, name, ok, detail=""):
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.failed += 1
            log(f"CHECK FAILED {name}: {detail}")

    def cli(self, args, env=None, timeout=170):
        result = proc.run_child([self.tools["cli"]] + args, env=env,
                                cwd=self.work, timeout=timeout)
        self.attempted += 1
        if result["rc"] != 0:
            self.failed += 1
            raise BenchError(f"tailormatch {args[0]} exited {result['rc']}: "
                             f"{result['stderr'][-400:]}")
        return result

    def pbtool(self, args, env=None, timeout=170):
        done = subprocess.run([self.tools["pbtool"]] + args, cwd=self.work,
                              env=env, capture_output=True, text=True,
                              timeout=timeout)
        if done.returncode != 0:
            raise BenchError(f"pbtool {args[0]} exited {done.returncode}: "
                             f"{done.stderr[-400:]}")


def build_checkpoints(run, repeats):
    """`tailormatch pretrain` into `repeats` empty caches.

    Returns (median seconds, checkpoint path, cache dir). Every build must
    produce the same bytes.
    """
    times, hashes = [], []
    for i in range(repeats):
        cache = run.path(f"cache{i}")
        os.makedirs(cache)
        result = run.cli(["pretrain", "--family", FAMILY, "--out",
                          os.path.join(cache, "model.ckpt")],
                         env=dict(os.environ, TM_CACHE_DIR=cache))
        times.append(result["wall_s"])
        hashes.append(sha256_file(os.path.join(cache, "model.ckpt")))
    run.check("checkpoint_builds_identical", len(set(hashes)) == 1,
              f"{len(set(hashes))} distinct checkpoints")
    return stats.median(times), os.path.join(cache, "model.ckpt"), cache

