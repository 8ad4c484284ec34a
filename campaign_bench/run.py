#!/usr/bin/env python3
"""Campaign benchmark entry point.

Builds the harness (campaign_bench/CMakeLists.txt compiles the product
from ../src) into .bench_build/, runs one workload in its own process
and prints, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics. The line before it is the run's
provenance. See campaign_bench/METHOD.md.

    python3 campaign_bench/run.py --workload attack_alu_hw --seed 1 \
        --seconds 20 --trace 0
    python3 campaign_bench/run.py --selftest
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "campaign_bench")
BINARY = os.path.join(BUILD, "slm_campaign_bench")
WORKLOADS = ("attack_alu_hw", "fullkey_alu_store", "replay_analyze",
             "serve_tenants")
# replay_analyze sweeps a full-key store of this many traces: ~136 bytes
# a trace, so ~2.6x the 105 MiB L3 of the reference host.
STORE_TRACES = 2_000_000
TINY_STORE_TRACES = 600_000
# Every run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170.0


def log(msg):
    print(f"campaign_bench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. False on any failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return os.path.exists(BINARY)


def product_env():
    """The product runs at its defaults: no SLM_* knob reaches it."""
    return {k: v for k, v in os.environ.items() if not k.startswith("SLM_")}


def run_harness(args, deadline):
    """Run the harness; returns (exit code, stdout). Kills it at the deadline."""
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE,
                            stderr=sys.stderr, env=product_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("harness timed out: " + " ".join(args))
        return -1, ""
    return proc.returncode, out


def cpu_counters():
    """(total, steal) jiffies from the aggregate cpu line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
        return sum(fields), fields[7]
    except (OSError, ValueError, IndexError):
        return 0, 0


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return " ".join(f.read().split()[:3])
    except OSError:
        return "unknown"


def source_digest():
    """SHA-256 over every file of src/ and of this benchmark, by path."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return proc.stdout.strip() if proc.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_workload(workload, seed, seconds, trace, tiny=False):
    """One workload run. Returns (exit code, parsed harness record or None)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    work = os.path.join(ROOT, ".bench_build", "work",
                        f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    total0, steal0 = cpu_counters()
    load0 = loadavg()
    t0 = time.monotonic()
    try:
        args = ["run", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "1" if trace else "0",
                "--work-dir", work]
        if tiny:
            args.append("--tiny")
        spans = None
        if trace:
            # Benchmark-side spans outlive the work directory.
            spans = os.path.join(ROOT, ".bench_build", "spans",
                                 f"{workload}-seed{seed}.jsonl")
            os.makedirs(os.path.dirname(spans), exist_ok=True)
            args += ["--spans-out", spans]
        if workload == "replay_analyze":
            # The code under test captures the store before any timing.
            store = os.path.join(work, "fullkey.trc")
            traces = TINY_STORE_TRACES if tiny else STORE_TRACES
            rc, _ = run_harness(["capture", "--seed", str(seed), "--traces",
                                 str(traces), "--out", store], deadline)
            if rc != 0:
                log(f"store capture failed (exit {rc})")
                return 1, None
            args += ["--store", store]
        rc, out = run_harness(args, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    total1, steal1 = cpu_counters()
    lines = out.strip().splitlines()
    if rc not in (0, 3) or not lines:
        log(f"harness failed (exit {rc})")
        return 1, None
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("harness printed no result")
        return 1, None
    prov = record.get("provenance", {})
    prov.update({
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "loadavg_start": load0,
        "loadavg_end": loadavg(),
        "steal_share": round((steal1 - steal0) / (total1 - total0), 4)
                       if total1 > total0 else 0.0,
        "wall_s": round(time.monotonic() - t0, 3),
        "trace": int(trace),
    })
    if spans:
        prov["spans"] = os.path.relpath(spans, ROOT)
    record["provenance"] = prov
    record["harness_exit"] = rc
    return 0, record


def main_run(ns):
    if not build():
        return 2
    rc, record = run_workload(ns.workload, ns.seed, ns.seconds, ns.trace)
    if record is None:
        return rc
    for failure in record.get("failures", []):
        log("FAILED: " + failure)
    print(json.dumps({"provenance": record["provenance"]}))
    correct = record["failed"] == 0 and record["harness_exit"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


def main_selftest():
    """Every workload at a tiny budget, traced and untraced: each metric
    BENCHMARK.json names is present with its unit, and nothing failed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not build():
        return 2
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            _, record = run_workload(wl, 7, 1, trace, tiny=True)
            where = f"{wl} trace={trace}"
            if record is None:
                problems.append(f"{where}: no result")
                continue
            if record["failed"] != 0 or record["attempted"] < 1:
                problems.append(f"{where}: {record['failed']} of "
                                f"{record['attempted']} operations failed")
            got = record["metrics"]
            for m in spec[kind]:
                entry = got.get(m["name"])
                if entry is None:
                    problems.append(f"{where}: missing {m['name']}")
                elif entry.get("unit") != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit "
                                    f"{entry.get('unit')} != {m['unit']}")
                elif not math.isfinite(entry.get("value", float("nan"))):
                    problems.append(f"{where}: {m['name']} not finite")
                elif kind == "end_to_end" and entry["value"] <= 0:
                    problems.append(f"{where}: {m['name']} is not positive")
            extra = set(got) - {m["name"] for m in spec[kind]}
            if extra:
                problems.append(f"{where}: unexpected {sorted(extra)}")
            log(f"selftest {where}: {len(got)} metrics")
    for p in problems:
        log("SELFTEST FAIL: " + p)
    log("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="smoke-test every workload at a tiny budget")
    ns = ap.parse_args()
    if ns.selftest:
        return main_selftest()
    if ns.workload is None:
        ap.error("--workload is required")
    return main_run(ns)


if __name__ == "__main__":
    sys.exit(main())
