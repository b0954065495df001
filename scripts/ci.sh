#!/usr/bin/env bash
# Tier-1 gate plus hygiene: release build, the full test suite, and
# warnings-denied builds in both profiles (debug of every workspace
# target, and release — `cfg(debug_assertions)` code such as lockdep
# compiles out there, so dead-code warnings differ).
#
# Usage:
#   scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

# The static-analysis plane first: darkdns-lint's rule fixtures, then a
# workspace scan for the rules L1–L8 — lock levels through unsafe
# confined to the interner (docs/INVARIANTS.md). Cheap, and a finding
# here explains test failures further down.
echo "==> scripts/lint.sh"
scripts/lint.sh

echo "==> cargo test -q"
cargo test -q

# Threaded broker tests again in release mode: lock-ordering and
# memory-ordering bugs can hide behind debug-build timing and the
# debug-only lock-hierarchy assertions, so the concurrency suite must
# also pass optimised. Targeted by package/test-target (not a name
# filter): the threaded tests live in the broker crate's unit suites
# and in the root proptest/fleet integration targets. The transport
# fault suite rides along: release timing shifts the writer/publisher/
# cut interleavings, which is exactly what it must survive — its
# reconnect-storm case additionally pins a flat reactor thread count
# under a half-fleet reconnect burst. The cross-backend
# membership-equivalence suite runs here too: it pins byte-identical
# detection across the direct / in-process-broker / TCP ZoneMembership
# backends, and the TCP leg is timing-sensitive in exactly the way
# release builds exercise.
echo "==> cargo test -q --release (broker crate + threaded suites + transport faults + equivalence)"
cargo test -q --release -p darkdns-broker
cargo test -q --release --test proptest_broker --test broker_fleet --test transport_faults \
    --test membership_equivalence

# The relay fault suite again in release: the relay thread races the
# root's writer, the leaf's pump and the fault scripts, and its
# byte-identity pin (depth-2/3 leaves see the root's exact RZU4 bytes)
# plus the chunked-snapshot resume accounting are exactly the kind of
# invariants that only break under optimised timing.
echo "==> cargo test -q --release (relay fault suite)"
cargo test -q --release --test relay_faults

# The fleet's bounded-memory contract, in release like the fleet it
# describes: root -> relay -> leaf under a process-wide live-bytes
# allocator, growth since bootstrap within the retained frames' bytes
# plus a fixed slack, and none between three and six ring-fulls. A tier
# that starts keeping something per publish that is neither zone state
# nor bytes it serves fails here, not in a resident-set figure weeks on.
# Its fan-out case holds a server's per-connection heap under a fixed
# figure for 512 idle pipe and 256 loopback-TCP subscribers on one
# reactor thread.
echo "==> cargo test -q --release (fleet footprint)"
cargo test -q --release --test footprint

# The allocation budgets again in release, the benchmark's profile:
# exact allocation counts and live-heap bounds for the codecs, the
# bootstrap assembly and a zone built from raw host lists. The latter
# holds only while the entries' in-place freeze reuses the input's
# buffer and the front cache of repeated lists stays on the stack, and
# an optimised build is where either could quietly change.
echo "==> cargo test -q --release (allocation budgets)"
cargo test -q --release --test alloc_budget

# The routing fault matrix again in release: live endpoint-map drains
# race the chunk train they must not interrupt, health probes race the
# failover path they steer, and the dead-endpoint backoff pin is a
# dial-rate bound — all timing-shaped invariants that need the
# optimised interleavings too. A shard-filtered relay's upstream link is
# recorded there frame by frame: it carries the subscribed shards'
# sealed frames, byte for byte, and nothing else.
echo "==> cargo test -q --release (routing fault matrix)"
cargo test -q --release --test routing_faults

# The edge suite again in release too, for the same reason: the epoch
# Arc-swap cell, the feed-vs-query concurrency test and the server's
# reactor loop are all timing-sensitive, and the edge-equivalence pin
# (thin-client answers byte-identical to a full replica, over the real
# RZUL/RZUA wire path) is the tier's acceptance contract.
echo "==> cargo test -q --release (edge crate + edge equivalence)"
cargo test -q --release -p darkdns-edge
cargo test -q --release --test edge_equivalence

# The two consumers of the `RZUQ` report plane, run — `--all-targets`
# only builds them. Each scrapes a live fleet over loopback and checks
# what it reads against the fleet's own state (heads, lag, answered
# lookups), exiting non-zero on a failed scrape: a report that decodes
# but carries a counter in the wrong slot fails here.
echo "==> report-plane consumers (edge_monitor, fleet_lag_walker)"
cargo run --release --example edge_monitor
cargo run --release --example fleet_lag_walker

# The released artifact's one consumer, run: `transient_hunt` reads the
# zonestream feed off a small pipeline run (`RunArtifacts::zonestream`)
# and scores its label heuristics against ground truth (≈ 0.3 s built).
echo "==> zonestream consumer (transient_hunt)"
cargo run --release --example transient_hunt

# The benchmark is a standalone package (own workspace and lockfile)
# that tier-1 does not build, driving the crates through their public
# API. Its harness self-tests are the only thing that notices when a
# crate API change (a retyped `SnapshotChunk`, a renamed stats field)
# breaks the benchmark — so they run here, in release like the
# benchmark itself.
echo "==> rzu_bench harness self-tests"
cargo test -q --release --offline --manifest-path rzu_bench/Cargo.toml

# The wire bytes of every benchmark workload, to the byte. They are a
# property of the codecs and the workload, not of the host or the seed
# (the harness's generator keeps them seed-independent), and the
# benchmark gates them exactly, so a codec change that moves one byte
# fails here first: one 1 s run per workload at seed 1 and again at
# seed 7 (≈ 30 s), each also passing its own correctness gate. A saving
# that depends on the shape of the names (owners as labels under the
# origin) must hold at both. The figures are ROADMAP's standing
# contract; a change that moves them on purpose edits both.
echo "==> rzu_bench wire bytes (exact, seeds 1 and 7)"
for seed in 1 7; do
    for expect in relay_chain=1446 edge_visibility=1548 edge_lookup=106 cold_catchup=1159828; do
        workload=${expect%=*}
        bytes=${expect#*=}
        result=$(cargo run --release --quiet --offline --manifest-path rzu_bench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds 1 | tail -n 1)
        case "$result" in
            *'"correct": true'*'"wire_bytes_per_op": {"value": '"$bytes"','*) ;;
            *)
                echo "ci: $workload (seed $seed): want correct and $bytes B/op, got $result" >&2
                exit 1
                ;;
        esac
    done
done

# The paper binaries, byte for byte: every table, figure and the JSON
# report against the digests in scripts/paper_outputs.sha256. They all
# run through the name parser and the codecs, so a change there that
# moves a reported number fails here (~2 min).
echo "==> paper outputs (byte-identical)"
scripts/paper_outputs.sh

echo "==> RUSTFLAGS=-Dwarnings cargo build --all-targets"
RUSTFLAGS="-Dwarnings" cargo build --all-targets

echo "==> RUSTFLAGS=-Dwarnings cargo build --release"
RUSTFLAGS="-Dwarnings" cargo build --release

echo "ci: all green"
