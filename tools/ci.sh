#!/usr/bin/env bash
# Local CI: build the default and sanitizer presets, run the full test
# suite under each. The san preset runs the phase-validator tests under
# ASan+UBSan as well — the validator's own bookkeeping is exercised by
# every checked test, so this doubles as a memory-safety pass over
# src/check/. The tsan preset runs the same suite and smokes under
# ThreadSanitizer: the windowed engine runs engines (and their fibers) on
# pool threads, and the fiber switch carries TSan's fiber annotations
# (src/sim/stack_switch.hpp), so a host-thread race is reported as one.
#
# Leak detection is off for the san run (see CMakePresets.json): tests
# that exercise error paths abandon blocked fibers without unwinding
# their stacks, so LeakSanitizer flags their live allocations. ASan's
# memory-error and UBSan's UB checks are unaffected.
#
# Usage: tools/ci.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)

declare -A builddir=([default]=build [san]=build-san [tsan]=build-tsan)

echo "=== struct table gate (docs/API.md vs RuntimeOptions, RunResult) ==="
# The RuntimeOptions and RunResult tables in docs/API.md must each name
# exactly the fields of their struct in src/core/options.hpp, so a field
# added or deleted without its documentation row (or the reverse) fails
# here. Nested structs (RunResult::CounterRollup) are not rows.
python3 - src/core/options.hpp docs/API.md <<'PY'
import re, sys
with open(sys.argv[1]) as f:
    src = f.read()
with open(sys.argv[2]) as f:
    doc = f.read()
for struct in ("RuntimeOptions", "RunResult"):
    body = re.search(r"struct %s \{(.*?)\n\};" % struct, src, re.S).group(1)
    body = re.sub(r"//[^\n]*", "", body)
    body = re.sub(r"\n\s*struct \w+ \{.*?\n\s*\};", "", body, flags=re.S)
    fields = re.findall(r"^\s*[\w:<>]+\s+(\w+)\s*(?:=[^;]*)?;", body, re.M)
    section = re.search(r"^## %s\n(.*?)(?=^## )" % struct, doc, re.S | re.M)
    assert section, f"docs/API.md has no ## {struct} section"
    rows = re.findall(r"^\| `(\w+)` \|", section.group(1), re.M)
    assert fields, f"no {struct} fields parsed"
    missing = sorted(set(fields) - set(rows))
    extra = sorted(set(rows) - set(fields))
    if missing or extra or len(rows) != len(set(rows)):
        sys.exit(f"FAIL: docs/API.md {struct} table out of sync: "
                 f"undocumented {missing}, not in the struct {extra}")
    print(f"{struct} table OK: {len(fields)} fields")
PY

for preset in default san tsan; do
  echo "=== configure+build preset: ${preset} ==="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  echo "=== ctest preset: ${preset} ==="
  ctest --preset "${preset}" -j "${jobs}" "$@"
  echo "=== stress smoke preset: ${preset} ==="
  # Differential fuzz harness at fixed seeds (gating). On failure it
  # prints the shrunk repro and a one-line --replay invocation; see
  # docs/TESTING.md for how to reproduce locally. Same sanitizer env as
  # the test preset (error-path fiber abandonment is not a leak).
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
  TSAN_OPTIONS=halt_on_error=1 \
    "${builddir[$preset]}/tools/ppm_stress" --smoke
  echo "=== windowed engine smoke preset: ${preset} ==="
  # Parallel conservative-window engine (docs/SIM.md) under each preset:
  # the san pass runs real host threads through the fiber switch and the
  # window-barrier exchange, so use-after-free of migrated engine state
  # and UB in the merge path get caught, and the tsan pass reports any
  # data race between the pool threads.
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
  TSAN_OPTIONS=halt_on_error=1 \
    "${builddir[$preset]}/tools/ppm_cli" --app=cg --nodes=4 --cores=4 \
      --size=4096 --iters=8 --calibration=0 --sim-threads=4 >/dev/null
  echo "=== model fit smoke preset: ${preset} ==="
  # Fit the ppm::model compositional performance model on a small CG
  # (docs/OBSERVABILITY.md); the fitted-coefficients artifact is kept per
  # preset so a failing drift gate can be compared across default/san.
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
  TSAN_OPTIONS=halt_on_error=1 \
    "${builddir[$preset]}/tools/ppm_cli" --app=cg --cores=4 --size=4096 \
      --iters=8 --model --json="${builddir[$preset]}/model_coeffs.json" \
      >/dev/null
  echo "model fit smoke OK (artifact kept at ${builddir[$preset]}/model_coeffs.json)"
done

echo "=== benchmark self-test (perfbench correctness check) ==="
# The repository benchmark builds its own runner from src/ (into
# .bench_build/perfbench) and checks every workload against its serial
# reference at tiny sizes, traced and untraced; a planted wrong reference
# must be counted as failed. Its Barnes-Hut check reassembles positions
# through NodeRuntime::pack_owned_elems.
python3 perfbench/run.py --self-test

echo "=== traced smoke (ppm::trace export gate) ==="
# One traced CG run per CI pass: the Chrome-JSON export must stay loadable
# (Perfetto-compatible) — validated structurally below. The artifact is
# kept in build/ for eyeballing after a failure.
trace_json="build/cg_smoke.trace.json"
ASAN_OPTIONS=detect_leaks=0 \
  build/tools/ppm_cli --app=cg --nodes=4 --size=4096 --iters=12 \
    --calibration=0 --trace="${trace_json}" --profile >/dev/null
python3 - "${trace_json}" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert isinstance(events, list) and events, "empty traceEvents"
for e in events:
    assert e["ph"] in ("M", "X", "i"), f"unexpected phase type {e['ph']}"
    assert "pid" in e and "tid" in e and "name" in e, f"missing key in {e}"
    if e["ph"] == "X":
        assert "ts" in e and "dur" in e, f"span without ts/dur: {e}"
    if e["ph"] == "i":
        assert "ts" in e, f"instant without ts: {e}"
procs = {e["args"]["name"] for e in events
         if e["ph"] == "M" and e["name"] == "process_name"}
assert {"node0", "node1", "node2", "node3", "fabric"} <= procs, procs
print(f"trace schema OK: {len(events)} events, processes {sorted(procs)}")
PY
echo "traced smoke OK (artifact kept at ${trace_json})"

echo "=== parallel engine determinism gate (docs/SIM.md) ==="
# The windowed engine's contract: a run is a bit-identical replay of
# itself at any host-thread count. Each case runs traced, once on one
# thread and once on four; the Chrome trace must match byte for byte and
# the RunResult JSON on every field except the sim_threads echo itself.
# The 96-node components run is past the default link's allgather
# crossover (85 nodes), so its commits take the sparse form: last markers
# only to written peers, then a census of marker counts. Components
# writes remote elements, so both carry data. Barnes-Hut's tree walk is
# the heaviest user of the handles' inline cached-read path.
for case in "cg_win --app=cg --nodes=4 --cores=4 --size=4096 --iters=12" \
            "cc96_win --app=components --nodes=96 --cores=4 --size=6000" \
            "bh_win --app=barneshut --nodes=8 --cores=4 --size=2000 --steps=2"; do
  read -r tag args <<<"${case}"
  for t in 1 4; do
    # ${args} is unquoted on purpose: it splits into ppm_cli's arguments.
    ASAN_OPTIONS=detect_leaks=0 \
      build/tools/ppm_cli ${args} --calibration=0 --sim-threads="${t}" \
        --trace="build/${tag}${t}.trace.json" \
        --json="build/${tag}${t}.json" >/dev/null
  done
  cmp "build/${tag}1.trace.json" "build/${tag}4.trace.json"
  python3 - "${tag}" "build/${tag}1.json" "build/${tag}4.json" <<'PY'
import json, sys
tag = sys.argv[1]
with open(sys.argv[2]) as f:
    one = json.load(f)
with open(sys.argv[3]) as f:
    four = json.load(f)
assert one.pop("sim_threads") == 1 and four.pop("sim_threads") == 4
for key in one:
    assert one[key] == four[key], (
        f"{tag}: {key} diverges across sim_threads: "
        f"{one[key]!r} != {four[key]!r}")
print(f"windowed determinism OK ({tag}): trace + {len(one)} result "
      "fields bit-identical at 1 vs 4 host threads")
PY
done
echo "parallel engine determinism OK"

echo "=== perf smoke (modeled CG and components vtime gates) ==="
# Modeled-only calibration makes the virtual clock a pure function of the
# cost model and the read/write stream, so these runs are bit-deterministic
# and cheap (<1s each). Gate: vtime at 8 nodes must stay within
# max_regression_ratio of the checked-in baseline (bench/perf_baseline.json)
# so hot-path regressions fail CI instead of silently eroding the figure
# numbers. Network bytes must not grow at all — the optimization
# campaign's wire-neutrality invariant. CG's bytes are block fetches;
# components' are remote write records (label propagation's min_updates),
# so a regression in either wire format fails here. Regenerate a baseline
# (commands are recorded in the JSON) only for intentional model changes.
perf_json="build/perf_smoke.json"
perf_cc_json="build/perf_smoke_components.json"
ASAN_OPTIONS=detect_leaks=0 \
  build/tools/ppm_cli --app=cg --nodes=8 --cores=4 --size=27648 --iters=8 \
    --calibration=0 --json="${perf_json}" >/dev/null
ASAN_OPTIONS=detect_leaks=0 \
  build/tools/ppm_cli --app=components --nodes=8 --cores=4 --calibration=0 \
    --json="${perf_cc_json}" >/dev/null
python3 - "${perf_json}" "${perf_cc_json}" bench/perf_baseline.json <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    cg = json.load(f)
with open(sys.argv[2]) as f:
    cc = json.load(f)
with open(sys.argv[3]) as f:
    base = json.load(f)
assert base["schema"] == "ppm_perf_baseline/v1", base.get("schema")
limit = base["max_regression_ratio"]
for app, run, pin in (("CG", cg, base), ("components", cc, base["components"])):
    ratio = run["duration_ns"] / pin["duration_ns"]
    print(f"perf smoke {app}: duration {run['duration_ns']} ns vs baseline "
          f"{pin['duration_ns']} ns (ratio {ratio:.3f}, limit {limit:.2f}); "
          f"net {run['network_bytes']} B vs baseline {pin['network_bytes']} B")
    if ratio > limit:
        sys.exit(f"FAIL: modeled {app} vtime regressed {ratio:.3f}x "
                 f"(> {limit:.2f}x baseline)")
    if run["network_bytes"] > pin["network_bytes"]:
        sys.exit(f"FAIL: modeled {app} network bytes grew "
                 f"{run['network_bytes']} > {pin['network_bytes']}")
PY
echo "perf smoke OK (artifacts kept at ${perf_json}, ${perf_cc_json})"

echo "=== model validation gate (ppm::model vs simulator) ==="
# The compositional performance model (docs/OBSERVABILITY.md) must
# interpolate/extrapolate: coefficients fit from traced modeled runs at
# 2-8 nodes have to predict simulator vtime at held-out 12 and 16 nodes
# within 25% relative error, for CG and Barnes-Hut. Modeled-only runs are
# bit-deterministic, so a failure here is a real behavior change, not
# noise. Artifacts are kept for the drift oracle below.
build/tools/ppm_cli --app=cg --size=13824 --iters=8 --cores=4 --model \
  --validate=12,16 --json=build/model_cg.json >/dev/null
build/tools/ppm_cli --app=barneshut --size=2000 --steps=2 --cores=4 \
  --model --validate=12,16 --json=build/model_barneshut.json >/dev/null
python3 - build/model_cg.json build/model_barneshut.json <<'PY'
import json, sys
LIMIT = 0.25
for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.load(f)
    assert doc["schema"] == "ppm_model/v1", doc.get("schema")
    assert doc["validation"], f"{path}: no validation rows"
    for v in doc["validation"]:
        err = v["rel_err"]
        print(f"model gate: {doc['app']} N={v['nodes']} "
              f"measured {v['measured_vtime_ns']} ns, "
              f"predicted {v['predicted_vtime_ns']:.0f} ns "
              f"({err:+.1%})")
        if abs(err) > LIMIT:
            sys.exit(f"FAIL: {doc['app']} model mispredicts vtime at "
                     f"N={v['nodes']}: {err:+.1%} (limit ±{LIMIT:.0%})")
PY
echo "model validation gate OK"

echo "=== model drift oracle (per-term coefficients) ==="
# Coefficient ~1 means "the analytic cost for this term is exactly
# right"; bench/perf_baseline.json pins the fitted coefficients of the
# Fig.1 CG workload. When vtime behavior changes, the term whose
# coefficient moved names the regressed cost (per-fetch software
# overhead vs barrier depth vs wire volume...), instead of CI only
# reporting that total vtime grew. The fit is bit-deterministic, so any
# drift is a real change. Regenerate the baseline section only for
# intentional cost-model changes (command recorded in the JSON).
python3 - build/model_cg.json bench/perf_baseline.json <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    run = json.load(f)
with open(sys.argv[2]) as f:
    base = json.load(f)["model"]
fitted = {t["name"]: t["coefficient"] for t in run["terms"]}
limit = base["max_coefficient_drift"]
bad = []
for name, pinned in base["coefficients"].items():
    got = fitted.get(name)
    assert got is not None, f"model fit lost term {name}"
    allowed = limit * max(abs(pinned), 0.25)
    flag = "DRIFT" if abs(got - pinned) > allowed else "ok"
    print(f"drift oracle: {name:<11} pinned {pinned:.4f} "
          f"fitted {got:.4f} (allowed ±{allowed:.4f}) {flag}")
    if flag == "DRIFT":
        bad.append(name)
if bad:
    sys.exit("FAIL: cost term(s) regressed — coefficient drift in: "
             + ", ".join(bad))
PY
echo "model drift oracle OK"

echo "=== bench smoke (run, not gated) ==="
# Exercise the figure/ablation harness end-to-end at toy scale. Failures
# here are reported but do not fail CI: the benches measure, they are not
# correctness referees (the test suite above is).
if tools/bench.sh --smoke --out build/BENCH_smoke.json; then
  echo "bench smoke OK (build/BENCH_smoke.json)"
else
  echo "WARNING: bench smoke failed (not gating CI)" >&2
fi

echo "=== model row schema gate (BENCH_fig.json) ==="
# The model/* rows are a stable machine-readable surface like the trace
# JSON (docs/TESTING.md): validate the committed artifact structurally,
# plus the fresh smoke output when the (non-gating) bench smoke produced
# one. Each figure app must carry a fit row and the predicted Figures 1-3
# overlay at >= 512 nodes, and every row of the fresh output must carry
# its provenance (git_sha, git_dirty, nproc, build_type).
model_gate_files=(BENCH_fig.json)
if [ -f build/BENCH_smoke.json ]; then
  model_gate_files+=(build/BENCH_smoke.json)
fi
python3 - "${model_gate_files[@]}" <<'PY'
import json, sys
TERMS = ("compute", "fetch_rt", "wire", "msg_sw", "stall_node", "barrier")
FIGS = ("fig1_cg", "fig2_matgen", "fig3_barneshut")
PROVENANCE = {"git_sha": str, "git_dirty": (bool, type(None)), "nproc": int,
              "build_type": str}
for path in sys.argv[1:]:
    with open(path) as f:
        all_rows = json.load(f)["rows"]
    rows = [r for r in all_rows if r.get("bench") == "model"]
    assert rows, f"{path}: no model/* rows"
    # Fresh bench output stamps provenance on every row; the committed
    # BENCH_fig.json predates the stamp.
    if path != "BENCH_fig.json":
        for r in all_rows:
            for k, ty in PROVENANCE.items():
                assert isinstance(r.get(k), ty), (
                    f"{path}: {r['name']} provenance {k}: {r.get(k)!r}")
    for fig in FIGS:
        fit = [r for r in rows if r["name"] == f"model/{fig}/fit"]
        assert len(fit) == 1, f"{path}: expected one model/{fig}/fit row"
        r = fit[0]
        assert isinstance(r["app"], str) and isinstance(r["fit_nodes"], list)
        assert isinstance(r["max_fit_rel_err"], float)
        for t in TERMS:
            c = r.get(f"coeff_{t}")
            assert isinstance(c, (int, float)) and c >= 0, (
                f"{path}: model/{fig}/fit coeff_{t}: {c!r}")
        preds = [r for r in rows
                 if r["name"].startswith(f"model/{fig}/predict/")]
        assert preds, f"{path}: no model/{fig}/predict rows"
        for r in preds:
            assert r["predicted"] == 1 and isinstance(r["nodes"], int)
            for k in ("vtime_ms", "messages", "net_bytes", "fetches"):
                assert isinstance(r[k], (int, float)) and r[k] >= 0, (
                    f"{path}: {r['name']} {k}: {r.get(k)!r}")
        assert max(r["nodes"] for r in preds) >= 512, (
            f"{path}: model/{fig} overlay stops below 512 nodes")
        for r in (r for r in rows
                  if r["name"].startswith(f"model/{fig}/validate/")):
            for k in ("vtime_ms", "measured_vtime_ms", "rel_err"):
                assert isinstance(r[k], (int, float)), (
                    f"{path}: {r['name']} {k}: {r.get(k)!r}")
    print(f"model row schema OK: {path} ({len(rows)} model rows)")
PY
echo "model row schema gate OK"

echo "CI OK: all three presets built, all tests passed."
