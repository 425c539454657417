#!/usr/bin/env python3
"""Repository benchmark: PPM vs its serial reference and MPI twin.

Builds the ppm_perfbench runner from source, runs one workload on the
Franklin-like machine of bench/bench_common.hpp, checks every run against the
serial reference, and prints each metric by name with its unit. The last line
of standard output is the result:

  {"correct": true, "attempted": 24, "failed": 0, "metrics": {...}}

Host times are the fastest of their repeats in the run (the record keeps
every sample). With --trace 0 the metrics are the end-to-end ones (untraced
modeled runs);
with --trace 1 they are the per-layer ones: counts from one extra traced
run, host times from the untraced runs, and the calibrated runs and the MPI
twin that only --trace 1 makes.

  python3 perfbench/run.py --workload cg-fig1-8n --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --workload all --seconds 15   # every workload
  python3 perfbench/run.py --self-test                    # tiny sizes

Run from the root of the checkout. Builds into .bench_build/perfbench; full
records (provenance, input properties, metrics, host-time spans) go to
.bench_build/perfbench/results/.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = BUILD / "results"
RUNNER = BUILD / "ppm_perfbench"

WORKLOADS = ["cg-fig1-8n", "bh-fig3-8n", "components-8n", "cg-scale-256n"]

END_TO_END = {
    "vtime_modeled_ms": "ms",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "app.input_s": "s",
    "app.serial_s": "s",
    "app.wall_over_serial": "ratio",
    "setup.machine_s": "s",
    "setup.runtime_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.windows": "count",
    "sim.engine_activations": "count",
    "sim.activations_per_window": "ratio",
    "net.messages": "count",
    "net.bytes": "bytes",
    "net.bytes_per_message": "bytes",
    "net.intranode_messages": "count",
    "net.intranode_bytes": "bytes",
    "core.collect_s": "s",
    "core.read.cached": "count",
    "core.read.slow_path": "count",
    "core.read.fetches": "count",
    "core.read.reads_per_fetch": "ratio",
    "core.read.stall_vns": "vns",
    "core.read.fetch_latency_vns": "vns",
    "core.read.overlap_efficiency": "ratio",
    "core.read.prefetch_issued": "count",
    "core.read.prefetch_useful": "ratio",
    "core.write.entries": "count",
    "core.write.combined": "count",
    "core.write.bundles": "count",
    "core.write.entries_per_bundle": "ratio",
    "core.write.accums": "count",
    "core.write.reduction_bytes_saved": "bytes",
    "core.phase.count": "count",
    "core.phase.compute_vns": "vns",
    "core.phase.commit_vns": "vns",
    "core.phase.imbalance_max": "ratio",
    "core.phase.imbalance_mean": "ratio",
    "core.phase.attributed_ratio": "ratio",
    **{
        f"core.label.{label}.{part}_vns": "vns"
        for label in ("init", "spmv", "axpy", "p_update")
        for part in ("compute", "commit", "stall")
    },
    "core.node.stall_max_over_mean": "ratio",
    "core.node.write_entries_max_over_mean": "ratio",
    "core.locality.blocks_migrated": "count",
    "core.locality.migration_bytes": "bytes",
    "core.locality.remote_to_local": "count",
    "vtime_calibrated_ms": "ms",
    "gap_vs_mpi": "ratio",
    "mp.vtime_calibrated_ms": "ms",
    "mp.messages": "count",
    "mp.bytes": "bytes",
    "trace.events": "count",
    "trace.dropped": "count",
    "trace.overhead_ratio": "ratio",
    "failed_frac": "ratio",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"PPM sources not found under {ROOT}/src")
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_step(cmd)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    run_step(["cmake", "--build", str(BUILD), "-j", jobs,
              "--target", "ppm_perfbench"])


def run_step(cmd):
    # Build chatter goes to stderr: stdout carries the result.
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build step failed: " + " ".join(cmd))


def provenance(seed):
    def git(*args):
        r = subprocess.run(["git", "-C", str(ROOT), *args],
                           capture_output=True, text=True)
        return r.stdout.strip() if r.returncode == 0 else None

    digest = hashlib.sha256()
    files = [ROOT / "bench" / "bench_common.hpp"]
    for top in ("src", "perfbench"):
        files += [p for p in (ROOT / top).rglob("*") if p.is_file()]
    for p in sorted(files):
        digest.update(str(p.relative_to(ROOT)).encode() + b"\0")
        digest.update(p.read_bytes())
    # Only a repository rooted here identifies these sources.
    top = git("rev-parse", "--show-toplevel") if shutil.which("git") else None
    sha = git("rev-parse", "HEAD") if top and Path(top) == ROOT else None
    return {
        "git_sha": sha or "none (not a git checkout)",
        "git_dirty": bool(git("status", "--porcelain")) if sha else None,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run_workload(workload, seed, seconds, trace, extra=(), tag=""):
    """Run the runner once; returns its JSON record."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}{tag}.json"
    cmd = [str(RUNNER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--out", str(out), *extra]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=170)
    if r.returncode != 0:
        raise BenchError(f"runner failed with code {r.returncode}: "
                         + " ".join(cmd))
    record = json.loads(out.read_text())
    record["provenance"].update(provenance(seed))
    out.write_text(json.dumps(record, indent=1))
    return record


def metrics_of(record, trace):
    """The published metrics, each checked present, finite, with a unit."""
    table = PER_LAYER if trace else END_TO_END
    values = record["per_layer" if trace else "end_to_end"]
    metrics = {}
    for name, unit in table.items():
        value = values.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"metric {name} missing or not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def result(record, trace):
    if trace and record["per_layer"]["trace.dropped"] != 0:
        raise BenchError("the traced run dropped events; refusing to publish "
                         "per-layer numbers")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics_of(record, trace),
    }


def report(record, res):
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    print("inputs: " + json.dumps(record["inputs"]))
    # Host times are published as the fastest sample; show the median too.
    print("samples: " + json.dumps(
        {k: {"n": len(v), "median": statistics.median(v), "fastest": min(v)}
         for k, v in record["samples"].items() if v}))
    for why in record["failures"]:
        print("FAILED " + why)
    for name, m in res["metrics"].items():
        print(f"{record['workload']:14s} {name:40s} {m['value']:.6g} {m['unit']}")


def self_test():
    """Tiny sizes: every metric present, finite and with a unit; a planted
    wrong reference must be counted as failed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != END_TO_END:
        raise BenchError("BENCHMARK.json end_to_end differs from run.py")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != PER_LAYER:
        raise BenchError("BENCHMARK.json per_layer differs from run.py")
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        raise BenchError("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        for trace in (False, True):
            rec = run_workload(workload, 1, 0.2, trace, ["--tiny"], "-tiny")
            res = result(rec, trace)
            if not res["correct"]:
                raise BenchError(f"{workload}: {rec['failures']}")
        planted = run_workload(workload, 1, 0.2, True,
                               ["--tiny", "--plant-bad-reference"], "-planted")
        res = result(planted, True)
        frac = res["metrics"]["failed_frac"]["value"]
        if res["correct"] or frac <= 0:
            raise BenchError(f"{workload}: planted wrong reference not "
                             f"counted (failed_frac {frac})")
        print(f"self-test {workload}: ok ({planted['failed']} of "
              f"{planted['attempted']} planted runs failed as expected)")
    print("self-test: ok")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and args.workload is None:
        p.error("--workload or --self-test is required")
    try:
        os.chdir(ROOT)
        start = time.monotonic()
        build()
        log(f"perfbench: build ready in {time.monotonic() - start:.1f} s")
        if args.self_test:
            self_test()
            return 0
        trace = bool(args.trace)
        combined = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}}
        for workload in (WORKLOADS if args.workload == "all"
                         else [args.workload]):
            record = run_workload(workload, args.seed, args.seconds, trace)
            res = result(record, trace)
            report(record, res)
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            prefix = workload + "/" if args.workload == "all" else ""
            for name, m in res["metrics"].items():
                combined["metrics"][prefix + name] = m
        print(json.dumps(combined))
        return 0
    except (BenchError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
