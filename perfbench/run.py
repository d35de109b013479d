#!/usr/bin/env python3
"""The serving benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the library, the socket worker and the benchmark binary from the
sources of this checkout (CMake, Release, into $CARGO_TARGET_DIR or
.bench_build), runs one workload, checks its answers, and prints as the last
stdout line one JSON object {correct, attempted, failed, metrics}. With
--trace 0 the metrics are the end-to-end set, with --trace 1 the per-layer
set (the traced run). Run metadata goes to the line before it and, with the
result, to .bench_out/results/. The traced run also writes its spans as a
Chrome trace to .bench_out/.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170

WORKLOADS = ("reach-sim", "mixed-sim", "mixed-write-socket")

# name -> unit. Every timed run emits exactly END_TO_END, every traced run
# exactly PER_LAYER; the self-test holds BENCHMARK.json to the same lists.
END_TO_END = {
    "read_cpu_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

CLASSES = ("reach", "dist", "rpq")
PER_LAYER = {
    "read_qps": "1/s",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "reach_p50_ms": "ms",
    "reach_p99_ms": "ms",
    "dist_p50_ms": "ms",
    "dist_p99_ms": "ms",
    "rpq_p50_ms": "ms",
    "rpq_p99_ms": "ms",
    "update_p50_ms": "ms",
    "error_rate": "ratio",
    "server.batch_size_mean": "queries",
    **{f"server.queue_wait_ms_mean.{c}": "ms" for c in CLASSES},
    **{f"server.batch_wall_ms_p50.{c}": "ms" for c in CLASSES},
    "server.rejected": "count",
    **{f"engine.batch_ms.{c}": "ms" for c in CLASSES},
    **{f"engine.rounds_per_batch.{c}": "count" for c in CLASSES},
    **{f"engine.traffic_bytes_per_query.{c}": "bytes" for c in CLASSES},
    "engine.max_site_visits_per_round": "count",
    **{f"site.sweep_us.{c}": "us" for c in CLASSES},
    **{f"site.sweep_bytes.{c}": "bytes" for c in CLASSES},
    "context.reach_rows_ms": "ms",
    "context.dist_rows_ms": "ms",
    "context.rpq_rows_ms": "ms",
    "context.dist_rows_entries": "count",
    "index.reach_answer_us": "us",
    "index.label_hit_ratio": "ratio",
    "index.dfs_fallback_ratio": "ratio",
    "index.dist_search_us": "us",
    "index.dist_settled_per_query": "count",
    **{f"index.rebuild_ms.{c}": "ms" for c in CLASSES},
    **{f"index.bytes.{c}": "bytes" for c in CLASSES},
    **{f"net.wire_ms_per_batch.{c}": "ms" for c in CLASSES},
    "net.sync_fragments_ms": "ms",
    "net.transport_retries": "count",
    "net.transport_respawns": "count",
    "net.transport_degraded": "count",
    "write.index_add_edges_ms": "ms",
    "write.gate_wait_ms": "ms",
    "write.touched_fragments": "count",
    "fragment.build_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}

# Counts that depend only on the seed's inputs: a traced run stores them and
# a later traced run of the same workload and seed must reproduce them
# bit-for-bit.
EXACT = (
    [f"engine.rounds_per_batch.{c}" for c in CLASSES]
    + [f"engine.traffic_bytes_per_query.{c}" for c in CLASSES]
    + ["engine.max_site_visits_per_round"]
    + [f"site.sweep_bytes.{c}" for c in CLASSES]
    + ["context.dist_rows_entries"]
)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures and builds once per checkout; later calls are no-ops."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: no src/ next to perfbench/; nothing to build")
        return None
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    binary = os.path.join(bdir, "perfbench_serve")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        steps.append(["cmake", "--build", bdir, "-j", jobs])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                log(proc.stdout[-4000:])
                log("perfbench: build failed:", " ".join(cmd))
                return None
    return binary


def source_digest():
    """Digest of the sources the benchmark builds: the identity exact counts
    are stored under."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, marked +dirty when the tree differs from it;
    None outside a git repository."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        if head.returncode != 0 or not head.stdout.strip():
            return None
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                               stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True,
                               timeout=10)
        return head.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        return None


def run_binary(binary, args):
    """Runs perfbench_serve in its own process group, echoing its log lines
    to stderr; returns (exit code, parsed last JSON line or None)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            text=True, start_new_session=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: run timed out")
        return 1, None
    finally:
        # Socket workers are perfbench_serve's children: none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.splitlines()
    for line in lines[:-1]:
        log(line)
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None
    try:
        return 0, json.loads(lines[-1])
    except json.JSONDecodeError:
        log(lines[-1])
        return 1, None


def check_exact(workload, seed, scale, digest, metrics):
    """Stores the exact counts of a (workload, seed, scale, source) on first
    sight and compares later traced runs of the same code against them."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = digest.split(":")[-1]
    path = os.path.join(OUT_DIR,
                        f"exact-{workload}-seed{seed}-s{scale}-{tag}.json")
    exact = {name: metrics[name]["value"] for name in EXACT}
    if os.path.exists(path):
        with open(path) as f:
            stored = json.load(f)
        diff = [n for n in EXACT if stored.get(n) != exact[n]]
        if diff:
            log("perfbench: exact counts changed for this seed:", diff)
            return False
        return True
    with open(path, "w") as f:
        json.dump(exact, f, indent=1, sort_keys=True)
    return True


def run_once(binary, workload, seed, seconds, trace, scale=None,
             corrupt=False):
    """One benchmark run; returns the result dict or None on failure."""
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    args = [f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds}", f"--trace={trace}"]
    if scale is not None:
        args.append(f"--scale={scale}")
    if corrupt:
        args.append("--corrupt-answer")
    if trace:
        args.append("--trace-out=" + os.path.join(
            OUT_DIR, f"trace-{workload}-seed{seed}.json"))
    code, raw = run_binary(binary, args)
    if code != 0 or raw is None:
        return None
    want = PER_LAYER if trace else END_TO_END
    metrics = raw.get("metrics", {})
    if set(metrics) != set(want):
        log("perfbench: metric set mismatch; missing",
            sorted(set(want) - set(metrics)), "extra",
            sorted(set(metrics) - set(want)))
        return None
    for name, unit in want.items():
        if metrics[name].get("unit") != unit:
            log(f"perfbench: {name} has unit {metrics[name].get('unit')},"
                f" want {unit}")
            return None
    correct = bool(raw["correct"])
    digest = source_digest()
    if trace and correct:
        correct = check_exact(workload, seed, raw["meta"].get("scale"), digest,
                              metrics)
    result = {"correct": correct, "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]), "metrics": metrics}
    meta = dict(raw.get("meta", {}))
    meta.update({"commit": git_commit() or digest, "source_digest": digest,
                 "build_type": BUILD_TYPE,
                 "nproc": os.cpu_count(), "seconds": seconds,
                 "trace": trace})
    with open(os.path.join(OUT_DIR, "results",
                           f"{workload}-seed{seed}-trace{trace}.json"),
              "w") as f:
        json.dump({"meta": meta, **result}, f, indent=1, sort_keys=True)
    result["meta"] = meta
    return result


def selftest(binary):
    """Tiny-scale checks: every named metric is emitted with its unit on
    every workload, BENCHMARK.json and predictions.json name the same
    metrics, and a corrupted recorded answer fails the oracle gate."""
    failures = []
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench_json):
        with open(bench_json) as f:
            spec = json.load(f)
        declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        if declared_e2e != END_TO_END:
            failures.append("BENCHMARK.json end_to_end != END_TO_END")
        if declared_layer != PER_LAYER:
            failures.append("BENCHMARK.json per_layer != PER_LAYER")
        if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
            failures.append("BENCHMARK.json workloads != WORKLOADS")
    with open(os.path.join(BENCH_DIR, "predictions.json")) as f:
        predictions = json.load(f)["workloads"]
    known = set(END_TO_END) | set(PER_LAYER)
    for workload, moves in predictions.items():
        if workload not in WORKLOADS:
            failures.append(f"predictions.json: unknown workload {workload}")
        for layer, targets in moves.items():
            named = [layer] + ([] if targets == "none" else targets)
            for name in named:
                if name not in known:
                    failures.append(f"predictions.json: unknown metric {name}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            r = run_once(binary, workload, 3, 2, trace, scale=0.001)
            if r is None:
                failures.append(f"{workload} trace={trace}: no valid result")
            elif not r["correct"] or r["failed"]:
                failures.append(f"{workload} trace={trace}: not correct")
    r = run_once(binary, "reach-sim", 3, 1, 0, scale=0.001, corrupt=True)
    if r is None or r["correct"] or r["failed"] < 1:
        failures.append("a corrupted answer passed the oracle gate")
    for f in failures:
        log("SELFTEST FAIL:", f)
    log("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.selftest:
        return selftest(binary)
    result = run_once(binary, args.workload, args.seed, args.seconds,
                      args.trace)
    if result is None:
        return 1
    meta = result.pop("meta")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
