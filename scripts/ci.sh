#!/usr/bin/env bash
# The full local gate: everything CI runs, in order. A clean exit here
# means the tree is shippable.
#
#   ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== one path per operation: deleted twins, moved baselines and the moved site harness stay gone =="
# The per-request/eager adapters are deleted and the bench-only baselines
# live in crates/bench; -w keeps events_after_shared and
# produce_frames_grouped legal.
# (`set -e` ignores a `!`-negated command, hence the explicit exit.)
if git grep -nwE 'events_after|produce_message|produce_frames|produce_transfer|TraditionalMq|ChordBaseline|MixedWorkload|TransferMode' -- crates ':!crates/bench' tests examples; then
  echo "ci.sh: a deleted twin or moved baseline is back (matches above)" >&2
  exit 1
fi
# The site load harness (driver, SLO gates, report, M:N scheduler) lives in
# crates/bench; li-core keeps only the population prepare.
if git grep -nwE 'SloThresholds|SiteBenchReport|GateResult|DriverState|Resumable|run_on_pool|prepare_with_graph' -- crates ':!crates/bench'; then
  echo "ci.sh: a site-harness name is back in a library crate (matches above)" >&2
  exit 1
fi
# Stripe count is not a run mode: no structure below the platform takes or
# reports one, the stop-at-quorum walk and the unused fan-out deadline are
# gone, and `ShardMode` is named only beside `PlatformConfig`
# (crates/core) and by the site harness (crates/bench).
if git grep -nE 'with_shard_mode|with_mode|shard_mode\(\)|FanOutMode::Serial|overall_deadline' -- crates tests examples; then
  echo "ci.sh: a run mode below the platform is back (matches above)" >&2
  exit 1
fi
if git grep -n 'ShardMode' -- crates/commons crates/sqlstore crates/kafka crates/voldemort crates/espresso crates/databus crates/helix crates/zk crates/workload; then
  echo "ci.sh: ShardMode is named below the platform (matches above)" >&2
  exit 1
fi

# One way to reach a replica, one queue in front of a consumer: the bare
# delivery helper, the out-of-order replica applier, the bounded channels
# and the dispatcher's notifier thread stay gone.
if git grep -nE 'replica_deliver|ReplicaApplier|TrySendError|dispatch-notify' -- crates tests examples vendor/crossbeam; then
  echo "ci.sh: a deleted replica/dispatch name is back (matches above)" >&2
  exit 1
fi
# ...and the seam stays closed: outside its test module the quorum client
# builds fan-out tasks and parks hints in one place each (`ReplicaLink`),
# and delivers from two (the link and `enter()`'s client -> coordinator hop).
client_seam="$(sed '/^#\[cfg(test)\]/,$d' crates/voldemort/src/client.rs)"
if [ "$(grep -c 'FanOutTask::new' <<<"$client_seam")" -ne 1 ] \
  || [ "$(grep -c 'store_hint(' <<<"$client_seam")" -ne 1 ] \
  || [ "$(grep -c '\.deliver(' <<<"$client_seam")" -gt 2 ]; then
  echo "ci.sh: voldemort client.rs reaches a replica outside ReplicaLink" >&2
  exit 1
fi

# One site: the chaos sweep runs the real `DataPlatform`, so no second
# site is assembled by hand in tests/chaos.rs, and the platform builds no
# clock of its own beyond the one `with_config` hands `with_parts`.
platform_seam="$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/platform.rs)"
if grep -nE 'SiteHooks|LogShippingAdapter|CompanyFollowCacher::new' tests/chaos.rs \
  || [ "$(grep -c 'RealClock::new' <<<"$platform_seam")" -ne 1 ] \
  || grep -n 'KafkaCluster::new(' <<<"$platform_seam"; then
  echo "ci.sh: a hand-assembled site or a private platform clock is back" >&2
  exit 1
fi

# One quorum read and one acked-write capture: the second read path, its
# node-side multi-get, the uncalled per-target hint drain, the mirrored
# put/delete capture hooks and the hand-rolled pool-init counter stay gone.
if git grep -nwE 'get_all|get_many|take_hints_for|on_acked_put|on_acked_delete|fan_out_pool_init_acquisitions' -- crates tests examples; then
  echo "ci.sh: a deleted Voldemort twin is back (matches above)" >&2
  exit 1
fi
# ...and outside their test modules the client asks the detector in one
# place (`ReplicaLink::is_live`) and the cluster journals an acked write
# in one place (`on_acked`).
cluster_seam="$(sed '/^#\[cfg(test)\]/,$d' crates/voldemort/src/cluster.rs)"
if [ "$(grep -c 'is_available' <<<"$client_seam")" -ne 1 ] \
  || [ "$(grep -c 'journal.lock().push(' <<<"$cluster_seam")" -ne 1 ]; then
  echo "ci.sh: a second liveness test or ack capture is back in voldemort" >&2
  exit 1
fi

echo "== cargo test -q (root package: examples + integration tests) =="
cargo test -q

echo "== cargo test -q --workspace =="
cargo test -q --workspace

echo "== quorum proptests: 64 cases (default is 24) =="
PROPTEST_CASES=64 cargo test -q --test voldemort_quorum_props

echo "== engine log proptests: 64 cases (default is 24) =="
# The BDB-like engine's log against a reference: suffix-log replay ==
# whole-value-log replay == the in-memory engine fed the same puts,
# force_puts, deletes and compacts, at every crash point (a log cut at
# any byte recovers to the state after its last whole frame).
PROPTEST_CASES=64 cargo test -q --test voldemort_engine_props

echo "== relay proptests: 64 cases (default is 24) =="
PROPTEST_CASES=64 cargo test -q --test databus_relay_props

echo "== site graph proptests: 64 cases (default is 32) =="
PROPTEST_CASES=64 cargo test -q --test site_graph_props

echo "== kafka ingest proptests: 64 cases (default is 24) =="
# Group-commit equivalence: grouped produce must be byte-identical to
# appending the same frame buffers one by one to a bare partition log
# (same fingerprints, same offsets), and concurrent grouped producers
# must lose nothing and keep per-thread FIFO order.
PROPTEST_CASES=64 cargo test -q --test kafka_ingest_props

echo "== follow view proptests: 64 cases (default is 24) =="
# The Company Follow materialised view: packed load-time lists plus one
# append-if-absent per edge row must equal the set-union model, every id
# exactly once, under duplicate follows, redelivery, a bootstrap snapshot
# and a consolidated delta, with identical replica puts per node under
# inline and push-dispatched delivery; and with a Voldemort replica down for
# part of the stream nothing is lost and a replay converges every replica.
PROPTEST_CASES=64 cargo test -q --test follow_view_props

echo "== chaos sweep: 20 seeds x 10 scenarios (10 min budget) =="
# Wider seed sweep than the per-test default of 5. Deterministic — only
# the tail-fanout scenario sleeps (it replays simulated link latencies
# in real time so completion order follows the network model) — so the
# timeout is a tripwire for accidental wall-clock dependencies, not a
# flakiness allowance. On failure each scenario prints its own
# CHAOS_SEED=<n> repro line.
CHAOS_SEEDS=20 timeout 600 cargo test -q --test chaos -- chaos_sweep_

echo "== sharding proptests: 64 cases (default is 32) =="
# The sharded serving runtime against independent references: the striped
# database must equal an in-test map on seeded replays, with dense SCNs
# and a binlog that recovers to the identical fingerprint, and lose no
# commits under concurrent disjoint lanes.
PROPTEST_CASES=64 cargo test -q --test sharding_props

echo "== migration proptests: 64 cases (default is 24) =="
# Online resharding equivalence: a migrated cluster must end
# byte-identical to a never-migrated twin under random write
# interleavings, random cutover points, random admin-fault timings and
# random abort points — with zero acked-write loss and zero refusals.
PROPTEST_CASES=64 cargo test -q --test migration_props

echo "== site smoke: closed-loop SLO gates at CI population (5 min budget) =="
# A larger population than the per-test default (which keeps plain
# `cargo test` fast); knobs are overridable from the environment. The
# closed loop is seeded and deterministic, so the timeout is a tripwire
# for a wedged drain (lag that never reaches zero), not flakiness.
SITE_SMOKE_MEMBERS="${SITE_SMOKE_MEMBERS:-3000}" \
SITE_SMOKE_DRIVERS="${SITE_SMOKE_DRIVERS:-4}" \
SITE_SMOKE_OPS="${SITE_SMOKE_OPS:-600}" \
  timeout 300 cargo test -q --test site_scale

echo "== contended site smoke: 8 closed-loop drivers on the sharded runtime (5 min budget) =="
# Drives the striped-lock serving paths (sqlstore row stripes, Kafka
# partition index, push dispatch) at real contention.
# Deterministic per-driver op streams; the timeout is a tripwire for a
# serialization regression (a global lock would blow the p99 gates long
# before it), not flakiness.
SITE_SMOKE_MEMBERS="${SITE_SMOKE_MEMBERS:-3000}" \
SITE_SMOKE_DRIVERS=8 \
SITE_SMOKE_OPS="${SITE_SMOKE_OPS:-600}" \
  timeout 300 cargo test -q --test site_scale site_smoke_clears_all_slo_gates

echo "== M:N site smoke: 128 logical drivers on 4 scheduler workers (5 min budget) =="
# Far more logical drivers than OS threads: the M:N scheduler multiplexes
# 128 resumable closed-loop drivers onto 4 pool workers, quantum by
# quantum. Exercises the requeue/park paths under real contention; a
# scheduler that loses a driver or starves the FIFO fails the
# every-op-acked assertion or trips the tripwire timeout.
SITE_SMOKE_MEMBERS="${SITE_SMOKE_MEMBERS:-3000}" \
SITE_SMOKE_DRIVERS=128 \
SITE_SMOKE_WORKERS=4 \
SITE_SMOKE_OPS=40 \
  timeout 300 cargo test -q --test site_scale site_smoke_clears_all_slo_gates

echo "== site loader proptests: prepare is chunk-size invariant (default cases) =="
# The chunk-invariance contract the pipelined prepare rides on: the
# streaming loader must land the byte-identical primary commit stream
# and router accounting at any chunk size as from one whole-population
# chunk, in both shard modes, and stream the graph `generate` builds.
cargo test -q --test site_loader_props

echo "== site smoke with migration in flight: online resharding mid-load (5 min budget) =="
# The closed loop with two Voldemort partitions plus an Espresso profile
# partition migrating off node 0 while the drivers run. Every SLO and
# conservation gate must stay green and the run must report exactly the
# expected cutover flips with zero refusals — a wedged delta catch-up or
# a refused flip trips the timeout or the gate, not flakiness.
SITE_SMOKE_MEMBERS="${SITE_SMOKE_MEMBERS:-3000}" \
SITE_SMOKE_DRIVERS="${SITE_SMOKE_DRIVERS:-4}" \
SITE_SMOKE_OPS="${SITE_SMOKE_OPS:-600}" \
  timeout 300 cargo test -q --test site_scale site_smoke_with_migration_in_flight_clears_all_gates

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo bench --workspace --no-run (bench targets compile-gate) =="
cargo bench --workspace --no-run
cargo build --release -p li-bench --example site_point

echo "== site benchmark compile-gate (benchmark/ is its own workspace) =="
# Nothing above builds benchmark/, so an API deletion under crates/ that
# breaks the ruler would otherwise go unnoticed until the benchmark runs.
cargo test --release --offline --manifest-path benchmark/Cargo.toml --no-run

echo "ci.sh: all green"
