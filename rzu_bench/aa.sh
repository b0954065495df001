#!/usr/bin/env bash
# A/A check: two interleaved sets of runs of the same commit must agree.
#
#   rzu_bench/aa.sh [runs-per-set] [seconds]      (defaults: 10, run_seconds)
#
# Round k runs every workload once on seed k, odd rounds for set A and
# even rounds for set B, so both sets see the same host drift, every run
# of a set is on another seed (as the driver's runs are), and a slow spell
# of the host, which can last minutes, costs every set one run rather than
# one set a third of its runs. For every end-to-end metric it prints each
# set's median and quartiles and fails unless
#   (1) the sets' medians agree within the bound, either way, and
#   (2) each set's IQR / median is within the bound.
# `setup_s` is held to (1) alone, which is what the benchmark's driver
# holds it to: a set-up is a fraction of a second of the same work as an
# op, its spread on a shared host is the timings' spread, and unlike them
# it has to stay an end-to-end metric. The ungated timings every run also
# prints are tabled the same way, with no verdict. When only (2) fails the
# host drifted during the sets: rerun, and report every run made. Each
# session keeps its per-run lines in a directory of its own under
# target/benchmark/aa/.
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS="${1:-10}"
SECONDS_ARG="${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
OUT="rzu_bench/target/benchmark/aa/$(date -u +%Y%m%dT%H%M%SZ)"
mkdir -p "$OUT"
echo "aa: session $OUT" >&2

cargo build --release --quiet --offline --manifest-path rzu_bench/Cargo.toml
BIN="${CARGO_TARGET_DIR:-rzu_bench/target}/release/rzu_bench"

WORKLOADS=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for ((k = 1; k <= 2 * RUNS; k++)); do
  if ((k % 2 == 1)); then set_name=A; else set_name=B; fi
  for workload in $WORKLOADS; do
    echo "aa: $workload set $set_name seed $k" >&2
    # The last two lines: the ungated timings, then the result.
    "$BIN" --workload "$workload" --seed "$k" --seconds "$SECONDS_ARG" --trace 0 \
      | tail -n 2 >"$OUT/$workload-$set_name-$k.txt"
  done
done

python3 - "$OUT" <<'PY'
import glob, json, statistics, sys

out = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
failed = False


def load(path):
    timing, result = open(path).read().splitlines()
    run = json.loads(result)
    run["metrics"].update(json.loads(timing.removeprefix("timing: ")))
    return run


print("| workload | metric | bound | A median [q1, q3] | B median [q1, q3] | A IQR/med | B IQR/med | B vs A | verdict |")
print("|---|---|---|---|---|---|---|---|---|")
for workload in (w["name"] for w in bench["workloads"]):
    runs = {}
    for set_name in "AB":
        files = sorted(glob.glob(f"{out}/{workload}-{set_name}-*.txt"),
                       key=lambda p: int(p.rsplit("-", 1)[1].split(".")[0]))
        runs[set_name] = [load(f) for f in files]
        for f, run in zip(files, runs[set_name]):
            if not run["correct"] or run["failed"]:
                print(f"aa: {f}: correct={run['correct']} failed={run['failed']}", file=sys.stderr)
                failed = True
    gated = {m["name"] for m in bench["end_to_end"]}
    ungated = [m for m in bench["per_layer"] if m["name"] in runs["A"][0]["metrics"]]
    for metric in bench["end_to_end"] + ungated:
        name, bound = metric["name"], metric.get("bound")
        cells, spreads, medians = [], [], []
        for set_name in "AB":
            values = [run["metrics"][name]["value"] for run in runs[set_name]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            medians.append(med)
            spreads.append((q3 - q1) / med)
            cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
        worse = medians[1] / medians[0] - 1 if metric["better"] == "lower" else 1 - medians[1] / medians[0]
        if name not in gated:
            verdict = "not gated"
        elif abs(worse) > bound:
            verdict = "MEDIANS"
        elif name != "setup_s" and max(spreads) > bound:
            verdict = "SPREAD"
        else:
            verdict = "ok"
        failed |= verdict in ("MEDIANS", "SPREAD")
        print(f"| {workload} | {name} | {bound if bound is not None else '—'} | {cells[0]} | {cells[1]} | {spreads[0]:.4f} | {spreads[1]:.4f} | {worse:+.4f} | {verdict} |")
sys.exit(1 if failed else 0)
PY
