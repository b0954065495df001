#!/usr/bin/env bash
# Run the perf-tracking criterion suites (B1 zone-diff race, B3 pipeline
# throughput, B4 broker fan-out / cold catch-up, B5 edge-tier query
# throughput under publish cadence) with reduced sample counts and emit
# BENCH_<tag>.json at the repo root, recording the per-PR baseline
# alongside the fresh numbers.
#
# Usage:
#   scripts/bench.sh [tag]       # default tag: pr1  → BENCH_pr1.json
#
# Knobs (env): DARKDNS_BENCH_MS (sampling budget per bench, ms),
# DARKDNS_BENCH_SAMPLES (samples per bench).
set -euo pipefail
cd "$(dirname "$0")/.."

TAG="${1:-pr1}"
OUT="BENCH_${TAG}.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

export DARKDNS_BENCH_MS="${DARKDNS_BENCH_MS:-1500}"
export DARKDNS_BENCH_SAMPLES="${DARKDNS_BENCH_SAMPLES:-11}"

DARKDNS_BENCH_JSON="$RAW" cargo bench -p darkdns-bench --bench zone_diff
DARKDNS_BENCH_JSON="$RAW" cargo bench -p darkdns-bench --bench pipeline
DARKDNS_BENCH_JSON="$RAW" cargo bench -p darkdns-bench --bench broker
DARKDNS_BENCH_JSON="$RAW" cargo bench -p darkdns-bench --bench edge
DARKDNS_BENCH_JSON="$RAW" cargo bench -p darkdns-bench --bench relay

python3 - "$RAW" "$OUT" <<'PY'
import json
import sys

raw_path, out_path = sys.argv[1], sys.argv[2]

# Pre-PR-1 baseline: the seed implementation (String-backed DomainName,
# deep-cloning diff paths) measured on the same machine before the
# interning/zero-copy refactor landed. Tracked so every later PR can see
# the full perf trajectory, not just its own delta.
BASELINE = {
    "zone_diff/sorted-merge/10000": {"median_ns": 225288.0, "elems_per_sec": 44387634.1},
    "zone_diff/incremental-journal/10000": {"median_ns": 90991.8, "elems_per_sec": 109899970.0},
    "zone_diff/sorted-merge/100000": {"median_ns": 1985205.8, "elems_per_sec": 50372611.6},
    "zone_diff/incremental-journal/100000": {"median_ns": 1136737.3, "elems_per_sec": 87971070.0},
    "zone_diff/sorted-merge/500000": {"median_ns": 19360699.7, "elems_per_sec": 25825512.9},
    "zone_diff/incremental-journal/500000": {"median_ns": 7207062.6, "elems_per_sec": 69376391.7},
    "pipeline/detector/certstream": {"median_ns": 4678959.7, "elems_per_sec": 897208.0},
    "pipeline/experiment/small": {"median_ns": 420460661.0, "elems_per_sec": 9984.3},
}

current = {}
with open(raw_path) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        current[rec["id"]] = {
            "median_ns": rec["median_ns"],
            "elems_per_sec": rec.get("elems_per_sec"),
        }

# In-run comparisons between a broker workload and its no-sharing /
# no-checkpoint baseline, measured in the same run (ratio = slow/fast).
DERIVED_PAIRS = {
    "broker_fanout_shared_vs_per_sub_encode": (
        "broker/fanout-encode-per-sub/1tld-1000subs",
        "broker/fanout-shared/1tld-1000subs",
    ),
    "broker_catchup_checkpoint_vs_full_replay": (
        "broker/catchup-full-replay/500000",
        "broker/catchup-checkpoint/500000",
    ),
    # PR 3: per-shard locks vs one outer lock serialising every publish
    # (the pre-refactor broker shape), same threads and workload. >= 1.0
    # means per-shard publishing is no slower; on multi-core hardware it
    # scales with the shard count.
    "broker_concurrent_publish_4x4_global_vs_per_shard": (
        "broker/concurrent-publish/global-lock/4shards-4threads",
        "broker/concurrent-publish/per-shard/4shards-4threads",
    ),
    "broker_concurrent_publish_8x8_global_vs_per_shard": (
        "broker/concurrent-publish/global-lock/8shards-8threads",
        "broker/concurrent-publish/per-shard/8shards-8threads",
    ),
    # PR 5: end-to-end detection latency through the ZoneMembership
    # consumer surface — publish a 100-domain delta, wait until the
    # pipeline's zone view applied it and emitted the domains as
    # zone-NRD candidates (one add-visible-remove-confirmed cycle).
    # The ratio is what the loopback-TCP socket path costs the
    # detection pipeline per push relative to the in-process view.
    "broker_detect_latency_tcp_vs_inproc": (
        "broker/detect-latency/tcp",
        "broker/detect-latency/inproc",
    ),
    # PR 8: relay-tree depth cost — publish→leaf latency through a
    # loopback-TCP chain of 2 (resp. 3) tiers relative to a direct
    # depth-1 subscription. Each tier re-serves the root's RZU3 bytes
    # verbatim, so the ratio is pure hop cost, never re-encode cost.
    "relay_publish_to_leaf_depth2_vs_depth1": (
        "relay/publish-to-leaf/depth2",
        "relay/publish-to-leaf/depth1",
    ),
    "relay_publish_to_leaf_depth3_vs_depth1": (
        "relay/publish-to-leaf/depth3",
        "relay/publish-to-leaf/depth1",
    ),
}
derived = {
    name: round(current[slow]["median_ns"] / current[fast]["median_ns"], 2)
    for name, (slow, fast) in DERIVED_PAIRS.items()
    if slow in current and fast in current and current[fast]["median_ns"]
}

# PR 6: the reactor's non-timing gauges ride the same JSON channel as
# the timed benches (value carried in median_ns) under these ids; lift
# them into dedicated top-level report fields. `threads` is the
# transport thread count observed while serving the 10k fan-out (flat
# at 1 by construction — the bench asserts it); `bytes_per_conn` is
# server RSS growth per accepted connection.
GAUGES = {
    "threads": "broker/tcp-fanout-10k/threads",
    "bytes_per_conn": "broker/tcp-fanout-10k/bytes_per_conn",
    # PR 7: the edge qps ramp — fleet-wide thin-client queries/s sampled
    # every 25 ms across the 1→8-client ramp while the 4-shard fleet
    # publishes at full RZU cadence; p50 is mid-ramp steady state, p99
    # is peak throughput at full fan-in.
    "queries_per_sec_p50": "edge/qps/queries_per_sec_p50",
    "queries_per_sec_p99": "edge/qps/queries_per_sec_p99",
    # PR 8: relay-tree bandwidth — mean wire bytes per delta per
    # inter-tier link at each chain depth (flat across depths by the
    # verbatim-re-serve invariant; the bench asserts the depth-3 links
    # agree), plus the 500k-checkpoint chunk-train shape.
    "relay_bytes_per_delta_per_link_depth1": "relay/bytes/per_delta_per_link_depth1",
    "relay_bytes_per_delta_per_link_depth2": "relay/bytes/per_delta_per_link_depth2",
    "relay_bytes_per_delta_per_link_depth3": "relay/bytes/per_delta_per_link_depth3",
    # PR 9: the shard-filter bandwidth gauges — total upstream-link
    # bytes for a relay mirroring all 10 TLD shards vs one claiming a
    # single shard (10% subset) over the same published workload, plus
    # their ratio (~0.1 by the claims-as-shard-filter contract) — and
    # the median planned-drain handoff latency through a routed view
    # (generation-bumped map → sentinel publish through the successor,
    # no resync).
    "relay_filtered_full_mirror_link_bytes": "relay/filtered/full_mirror_link_bytes",
    "relay_filtered_subset10_link_bytes": "relay/filtered/subset10_link_bytes",
    "relay_filtered_subset_share": "relay/filtered/subset_share",
    "relay_drain_handoff_ns_p50": "relay/drain/handoff_ns_p50",
    "relay_catchup_chunks": "relay/catchup-500k/chunks",
    "relay_catchup_chunked_entries_per_sec": "relay/catchup-500k/chunked_entries_per_sec",
}
gauges = {
    field: current.pop(rec_id)["median_ns"]
    for field, rec_id in GAUGES.items()
    if rec_id in current
}

report = {
    "baseline_label": "seed (pre interning + zero-copy diff)",
    "baseline": BASELINE,
    "current": current,
    "speedup": {
        bench: round(BASELINE[bench]["median_ns"] / current[bench]["median_ns"], 2)
        for bench in BASELINE
        if bench in current and current[bench]["median_ns"]
    },
    "derived": derived,
    **gauges,
}
with open(out_path, "w") as f:
    json.dump(report, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path}")
for bench, ratio in sorted(report["speedup"].items()):
    print(f"  {bench:<44} {ratio:>6}x vs baseline")
for name, ratio in sorted(derived.items()):
    print(f"  {name:<44} {ratio:>6}x (in-run baseline)")
for field, value in sorted(gauges.items()):
    print(f"  {field:<44} {value:>8.1f} (gauge)")
PY
