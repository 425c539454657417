#!/usr/bin/env bash
# Figure/ablation bench harness: runs the figure benches and the overlap
# and distribution/locality ablations at fixed seeds and merges their
# JSON output into BENCH_fig.json
# at the repo root (one object per bench row: name + every reported
# counter, duration_ns / net_bytes / bundles / fetch_stall_ns included,
# plus git_sha / git_dirty / nproc / build_type provenance).
#
# The workloads are deterministic (fixed seeds, virtual-time simulator),
# so the traffic counters are exactly reproducible; vtime under measured
# calibration varies with host speed.
#
# Usage: tools/bench.sh [--smoke] [--out FILE]
#   --smoke  shrink workloads (PPM_BENCH_SCALE=0.25) and run only the
#            smallest node counts — a CI-speed sanity pass, not a
#            measurement.
set -euo pipefail
cd "$(dirname "$0")/.."

out="BENCH_fig.json"
smoke=0
while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) smoke=1 ;;
    --out) out="$2"; shift ;;
    *) echo "unknown arg: $1" >&2; exit 2 ;;
  esac
  shift
done

benches=(fig1_cg fig2_matgen fig3_barneshut ablation_overlap
         ablation_distribution ablation_trace micro_readpath sim_scale)

filter="."
if [ "${smoke}" = 1 ]; then
  export PPM_BENCH_SCALE="${PPM_BENCH_SCALE:-0.25}"
  # Smallest node counts only; keep both overlap-engine configs and
  # both locality-engine arms at the smallest node count. SimScale keeps
  # its 1- and 4-thread arms so the wall_speedup column is exercised, and
  # the fiber-switch row; the read-path rows keep their cached-remote
  # kAdaptive, 240-byte and published-prefetch flavors; the large modeled
  # Fig.1 rows (64+ nodes) are full-run only.
  filter='(/1/|/2/|OverlapEngine|Locality/[01]/4|Trace|SimScale_Cg/16/[14]/|Sim_FiberSwitch|ReadElemFastPath/[456]/)'
fi

cmake --preset default >/dev/null
cmake --build --preset default -j "$(nproc 2>/dev/null || echo 4)" \
  $(printf -- '--target %s ' "${benches[@]}") --target ppm_stress

tmpdir=$(mktemp -d)
trap 'rm -rf "${tmpdir}"' EXIT
for b in "${benches[@]}"; do
  echo "=== bench: ${b} ==="
  "build/bench/${b}" --benchmark_filter="${filter}" \
    --benchmark_format=json >"${tmpdir}/${b}.json"
done

# Stress-harness throughput (programs/sec over the fixed smoke seeds);
# emits the same benchmark JSON shape so the merger below folds it in.
echo "=== bench: ppm_stress ==="
build/tools/ppm_stress --smoke --json="${tmpdir}/ppm_stress.json"

# ppm::model predicted-figure overlay (docs/OBSERVABILITY.md): fit the
# compositional performance model per figure app from traced modeled runs
# at 2-8 nodes, validate it against the simulator at held-out 12/16
# nodes, and extrapolate Figures 1-3 to Franklin-scale node counts the
# simulator cannot execute. Modeled-only runs are bit-deterministic, so
# these rows are exactly reproducible (unlike the measured vtime rows).
echo "=== bench: ppm_model ==="
cmake --build --preset default -j "$(nproc 2>/dev/null || echo 4)" \
  --target ppm_cli >/dev/null
model_predict="512,1024,2048,4096,9660"
build/tools/ppm_cli --app=cg --size=13824 --iters=8 --cores=4 --model \
  --predict="${model_predict}" --validate=12,16 \
  --json="${tmpdir}/model_fig1_cg.json"
build/tools/ppm_cli --app=matgen --levels=4 --cores=4 --model \
  --predict="${model_predict}" --validate=12,16 \
  --json="${tmpdir}/model_fig2_matgen.json"
build/tools/ppm_cli --app=barneshut --size=2000 --steps=2 --cores=4 \
  --model --predict="${model_predict}" --validate=12,16 \
  --json="${tmpdir}/model_fig3_barneshut.json"

python3 - "${out}" "${tmpdir}" "${benches[@]}" ppm_stress <<'PY'
import json, os, re, subprocess, sys
out, tmpdir, benches = sys.argv[1], sys.argv[2], sys.argv[3:]
rows = []
for b in benches:
    with open(f"{tmpdir}/{b}.json") as f:
        data = json.load(f)
    for run in data.get("benchmarks", []):
        row = {"bench": b, "name": run["name"]}
        for key, val in run.items():
            if isinstance(val, (int, float)) and key not in ("family_index",
                    "per_family_instance_index", "repetition_index",
                    "repetitions", "iterations", "threads"):
                row[key] = val
        rows.append(row)
# Every row carries sim_threads: the host threads that drove the per-node
# engines (docs/SIM.md). Benches that sweep it report it as a counter;
# everything else ran on one thread.
for r in rows:
    r.setdefault("sim_threads", 1)
# PPM-vs-reference gap column: for every PPM row whose benchmark has an
# MPI twin at the same arguments (BM_..Ppm/N vs BM_..Mpi/N), report
# vtime_ppm / vtime_mpi so the figure's headline ratio is a first-class
# column instead of a by-hand division across rows.
by_name = {(r["bench"], r["name"]): r for r in rows}
for r in rows:
    if "Ppm" in r["name"] and "vtime_ms" in r:
        twin = by_name.get((r["bench"], r["name"].replace("Ppm", "Mpi")))
        if twin and twin.get("vtime_ms"):
            r["gap_vs_mpi"] = r["vtime_ms"] / twin["vtime_ms"]
# Parallel-engine wall-clock column: a windowed row (sim_threads > 1,
# thread count as the last bare-numeric benchmark argument, before any
# /iterations:N or /real_time suffix) is paired with its sim_threads=1
# twin at the same arguments; wall_speedup is how much faster the host
# replays the identical run with more driver threads (sequential wall /
# parallel wall).
for r in rows:
    st = int(r["sim_threads"])
    if st <= 1:
        continue
    parts = r["name"].split("/")
    idx = max((i for i, p in enumerate(parts) if p == str(st)), default=-1)
    if idx < 0:
        continue
    twin_name = "/".join(parts[:idx] + ["1"] + parts[idx + 1:])
    twin = by_name.get((r["bench"], twin_name))
    if twin and twin.get("real_time"):
        r["wall_speedup"] = twin["real_time"] / r["real_time"]
# ppm::model rows: per figure app one fit row (fitted term coefficients =
# the drift oracle's inputs), the Franklin-scale prediction overlay, and
# the held-out validation rows (model vs simulator). "predicted": 1 marks
# numbers that come from the model, not a simulator execution.
for fig in ("fig1_cg", "fig2_matgen", "fig3_barneshut"):
    with open(f"{tmpdir}/model_{fig}.json") as f:
        doc = json.load(f)
    fit_row = {"bench": "model", "name": f"model/{fig}/fit",
               "app": doc["app"], "fit_nodes": doc["fit_nodes"],
               "max_fit_rel_err": max(abs(r["rel_err"])
                                      for r in doc["fit"])}
    for t in doc["terms"]:
        fit_row[f"coeff_{t['name']}"] = t["coefficient"]
    rows.append(fit_row)
    for p in doc["predictions"]:
        rows.append({"bench": "model",
                     "name": f"model/{fig}/predict/{p['nodes']}",
                     "app": doc["app"], "nodes": p["nodes"],
                     "predicted": 1,
                     "vtime_ms": p["vtime_ns"] * 1e-6,
                     "messages": p["messages"],
                     "net_bytes": p["bytes"],
                     "fetches": p["fetches"]})
    for v in doc["validation"]:
        rows.append({"bench": "model",
                     "name": f"model/{fig}/validate/{v['nodes']}",
                     "app": doc["app"], "nodes": v["nodes"],
                     "predicted": 1,
                     "vtime_ms": v["predicted_vtime_ns"] * 1e-6,
                     "measured_vtime_ms": v["measured_vtime_ns"] * 1e-6,
                     "rel_err": v["rel_err"]})
# Provenance on every row, under perfbench's key names: the commit (and
# whether the tree had uncommitted edits), the host's usable CPUs and the
# build type of the tree the benches ran from.
def git(*args):
    r = subprocess.run(["git", *args], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None
sha = git("rev-parse", "HEAD")
with open("build/CMakeCache.txt") as f:
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", f.read(),
                           re.M).group(1)
provenance = {
    "git_sha": sha or "none (not a git checkout)",
    "git_dirty": bool(git("status", "--porcelain")) if sha else None,
    "nproc": len(os.sched_getaffinity(0)),
    "build_type": build_type,
}
for r in rows:
    r.update(provenance)
with open(out, "w") as f:
    json.dump({"rows": rows}, f, indent=1, sort_keys=True)
    f.write("\n")
print(f"wrote {out}: {len(rows)} rows")
PY
