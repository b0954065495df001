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
# byte-identity pin (depth-2/3 leaves see the root's exact RZU1 bytes)
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
echo "==> cargo test -q --release (fleet footprint)"
cargo test -q --release --test footprint

# The routing fault matrix again in release: live endpoint-map drains
# race the chunk train they must not interrupt, health probes race the
# failover path they steer, and the dead-endpoint backoff pin is a
# dial-rate bound — all timing-shaped invariants that need the
# optimised interleavings too.
echo "==> cargo test -q --release (routing fault matrix)"
cargo test -q --release --test routing_faults

# The edge suite again in release too, for the same reason: the epoch
# Arc-swap cell, the feed-vs-query concurrency test and the server's
# reactor loop are all timing-sensitive, and the edge-equivalence pin
# (thin-client answers byte-identical to a full replica, over the real
# RZUL/RZUR wire path) is the tier's acceptance contract.
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

# Scaled-down fan-out smoke: the 10k-subscriber reactor bench at 256
# subscribers with a minimal sampling budget. This exercises the whole
# child-process fleet path (re-exec, epoll client loop, round
# convergence) and asserts inside the bench that the reactor thread
# count stays 1 — cheap enough for every CI run.
echo "==> reactor fan-out smoke (256 subscribers)"
DARKDNS_FANOUT_SUBS=256 DARKDNS_BENCH_ONLY=tcp-fanout-10k \
DARKDNS_BENCH_SAMPLES=3 DARKDNS_BENCH_MS=200 \
    cargo bench -p darkdns-bench --bench broker

# The zone-size apply sweep (100-name deltas, tail and scattered, onto
# 10k / 100k / 1M delegations, plus the membership probe) once at the
# smoke budget, so the microbench behind the O(delta)-apply tables in
# CHANGES.md keeps building and running. It builds a 1M-entry zone:
# ~100 MB for a second or two.
echo "==> zone apply sweep smoke"
DARKDNS_BENCH_ONLY=zone-apply DARKDNS_BENCH_SAMPLES=3 DARKDNS_BENCH_MS=200 \
    cargo bench -p darkdns-bench --bench zone_diff

# The benchmark is a standalone package (own workspace and lockfile)
# that tier-1 does not build, driving the crates through their public
# API. Its harness self-tests are the only thing that notices when a
# crate API change (a retyped `SnapshotChunk`, a renamed stats field)
# breaks the benchmark — so they run here, in release like the
# benchmark itself.
echo "==> rzu_bench harness self-tests"
cargo test -q --release --offline --manifest-path rzu_bench/Cargo.toml

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
