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
# builds quorum replies and parks hints in one place each (`ReplicaLink`'s
# `wave` and `StoreClient::hand_off`), and delivers from two (the link and
# `enter()`'s client -> coordinator hop).
client_seam="$(sed '/^#\[cfg(test)\]/,$d' crates/voldemort/src/client.rs)"
if [ "$(grep -c 'Reply {' <<<"$client_seam")" -ne 1 ] \
  || [ "$(grep -c 'store_hint(' <<<"$client_seam")" -ne 1 ] \
  || [ "$(grep -c '\.deliver(' <<<"$client_seam")" -gt 2 ]; then
  echo "ci.sh: voldemort client.rs reaches a replica outside ReplicaLink" >&2
  exit 1
fi
# One hint rule: every replica a put missed is owed a hint, delivered to
# that replica. The post-quorum straggler's walk of its own stays gone, no
# follow-cacher read widens to every replica, and outside the test modules
# `ReadFanOut` is named in the library only by its enum, the config field,
# the re-export and `get_quorum`'s width match.
read_fan_out="$(for f in $(git grep -lw 'ReadFanOut\|is_straggler' -- crates/core crates/voldemort/src); do
  sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nw 'ReadFanOut\|is_straggler' | sed "s|^|$f:|"
done | grep -vE '^crates/voldemort/src/lib\.rs:|pub enum ReadFanOut \{|pub read_fan_out: ReadFanOut,|ReadFanOut::(Quorum|All) =>' || true)"
if [ -n "$read_fan_out" ]; then
  echo "ci.sh: a second hint rule or a read-all client is back: $read_fan_out" >&2
  exit 1
fi
# ...and a fault-free put builds no holder list: outside its test module
# client.rs calls `hint_holders(` only inside an `if !owed.is_empty()` block.
hint_holder_calls="$(awk '
  /if !owed\.is_empty\(\) \{/ && !depth { guarded = 1 }
  /hint_holders\(/ { print (depth ? "guarded" : "UNGUARDED " FNR ": " $0) }
  guarded { line = $0; depth += gsub(/\{/, "", line) - gsub(/\}/, "", line); if (depth <= 0) { depth = 0; guarded = 0 } }
' <<<"$client_seam")"
if grep UNGUARDED <<<"$hint_holder_calls" || ! grep -q guarded <<<"$hint_holder_calls"; then
  echo "ci.sh: voldemort client.rs builds hint holders outside an owed-hint branch" >&2
  exit 1
fi
# A follow's cache update is one transformed put per list: outside its
# test module the follow cacher neither reads a store (`.get(`) nor runs a
# client-side read-modify-write (`apply_update(`). The coordinating
# replica reads, checks and appends under its engine's lock.
consumers_seam="$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/consumers.rs)"
if grep -nE 'apply_update\(|\.get\(' <<<"$consumers_seam"; then
  echo "ci.sh: the follow cacher reads a store before it writes again (matches above)" >&2
  exit 1
fi
# Quorums run on simulated time: no Voldemort path sleeps a latency, runs
# a replica call on another thread or hands a straggler to a late handler,
# and `li_commons::exec` keeps only the inert `FanOutMode` name.
if git grep -nE 'thread::sleep|simulate_latency|late_hint_handler|LateHandler|LateReplyHandler|fan_out_pool|FanOutOptions|FanOutReport|run_parallel' -- crates/voldemort crates/commons/src/exec.rs \
  || git grep -nw FanOutMode -- crates/voldemort crates/bench tests; then
  echo "ci.sh: a wall-clock quorum path is back (matches above)" >&2
  exit 1
fi
# One way to start a thread: the library's worker pool and its task type
# stay gone (Espresso's multi-key reads and writes run inline, the driver
# scheduler runs on scoped threads), and `FanOutMode` is named only by its
# enum and Espresso's inert `set_fan_out_mode`, which benchmark/ still calls.
if git grep -nwE 'FanOutPool|FanOutTask' -- crates tests examples; then
  echo "ci.sh: the fan-out pool or its task type is back (matches above)" >&2
  exit 1
fi
fan_out_mode_files="$(git grep -lw FanOutMode -- crates tests examples \
  | grep -vxE 'crates/commons/src/exec\.rs|crates/espresso/src/cluster\.rs' || true)"
if [ -n "$fan_out_mode_files" ]; then
  echo "ci.sh: FanOutMode is named outside exec.rs and Espresso's cluster.rs: $fan_out_mode_files" >&2
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

# One model per contract: the Espresso key timeline and the Kafka log
# model live in tests/contracts/, shared by the chaos scenarios and the
# replication walks, and each chaos-only gate is one function in
# tests/chaos.rs. Neither suite writes its own copy of a gate closure or
# of a model again.
if grep -nE 'let (durability|readable|single_master|commit_order|contiguity|replica_identity|hints_drained) = \|\|' tests/chaos.rs tests/replication_walks.rs \
  || git grep -nE 'struct (KeyModel|LogModel)\b' -- tests ':!tests/contracts'; then
  echo "ci.sh: a copied chaos gate closure or a private KeyModel/LogModel is back (matches above)" >&2
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

# Point lookups by hash: the sqlstore table and the BDB engine index are
# hashed and sort only where data leaves them, while the memory engine
# stays the ordered reference the engine proptests compare against.
if grep -n 'BTreeMap' crates/sqlstore/src/table.rs crates/voldemort/src/engine/bdb.rs \
  || ! grep -q 'BTreeMap' crates/voldemort/src/engine/mem.rs; then
  echo "ci.sh: an ordered index is back under a point-lookup store, or the reference lost its order" >&2
  exit 1
fi
# Postings by document number: the inverted index stores each key and each
# (field, token) term once, and its postings and reverse map hold numbers.
if grep -nE 'BTreeSet<RowKey>|HashMap<\(String, String\)' crates/espresso/src/index.rs; then
  echo "ci.sh: the inverted index keeps keys or terms per posting again (matches above)" >&2
  exit 1
fi

# People search follows Espresso's update stream: the legacy profile copy
# in the primary and the Databus indexer that read it stay gone from the
# site (examples/read_replica.rs keeps an unrelated table of that name).
if git grep -nE 'member_profile|SearchIndexer' -- crates/core crates/bench/src examples/quickstart.rs examples/site_architecture.rs; then
  echo "ci.sh: the legacy member_profile copy or its SearchIndexer is back (matches above)" >&2
  exit 1
fi

# One bootstrap query: snapshot entries carry the SCN that last wrote
# them, so the consolidated delta and the consistent snapshot are one
# read (`changes_since`); the second query, its two result types, the
# raw-event tally and the pump wrapper stay gone.
if git grep -nwE 'consolidated_delta|DeltaResult|SnapshotResult|BootstrapPipeline|raw_events' -- crates tests examples; then
  echo "ci.sh: a second bootstrap query or its scaffolding is back (matches above)" >&2
  exit 1
fi

# One relay consumer: outside crates/databus no library code reads a relay
# itself. Espresso's slave streams and people search are `DatabusClient`s
# with their fall-back passed in, and the slave's private checkpoint map
# and its readers stay gone. (The pathspec needs its trailing `/*`: git
# matches a wildcard pathspec against whole paths.)
relay_readers="$(git grep -l events_after_shared -- 'crates/*/src/*' | grep -v '^crates/databus/src/' || true)"
if [ -n "$relay_readers" ] || git grep -nwE 'has_stream|sync_partition' -- crates; then
  echo "ci.sh: a relay is read outside crates/databus (${relay_readers:-none}) or a slave checkpoint reader is back" >&2
  exit 1
fi

# Keys and clocks held once: a row key keeps its parts behind one shared
# allocation (every hop's clone is a refcount bump), and a vector clock is
# a flat sorted array, not a tree node per stored version.
if git grep -nE 'pub struct RowKey\(pub|entries: BTreeMap' -- crates; then
  echo "ci.sh: a deep-copied row key or a tree-backed vector clock is back (matches above)" >&2
  exit 1
fi

# Kafka bytes held once: a frame-aligned `Bytes` chunk is the partition
# log's only unit of append. The log keeps no `Vec<u8>` append tail to
# freeze, the multi-buffer copying append stays gone, and the mirror and
# replica followers append their source's chunks by reference, never
# through a copying append.
log_seam="$(sed '/^#\[cfg(test)\]/,$d' crates/kafka/src/log.rs)"
if git grep -nE 'freeze_active|append_frames_multi' -- crates tests \
  || grep -nE '^\s*(pub )?[a-z_]+: Vec<u8>,' <<<"$log_seam" \
  || grep -nE 'append_frames(_multi)?\(' crates/kafka/src/mirror.rs crates/kafka/src/replication.rs; then
  echo "ci.sh: a Kafka log append tail or a copying mirror/replica append is back (matches above)" >&2
  exit 1
fi

# Set-up on both cores: the population load is split by tier across two
# threads. Outside its test module population.rs pumps every stream
# (`pump_streams(` or the whole `.pump()`) exactly once, in the final drain
# after the generator's join, so the loader never drives Espresso's
# streams while `site-gen` does.
population_seam="$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/population.rs)"
drains="$(awk '/\.join\(\)/ { joined = 1 }
  /pump_streams\(|\.pump\(\)/ { print (joined ? "drain" : "EARLY " FNR ": " $0) }' <<<"$population_seam")"
if [ "$drains" != "drain" ]; then
  echo "ci.sh: population.rs pumps every stream outside its one final drain: ${drains:-no drain}" >&2
  exit 1
fi

# The PYMK build in two steps: outside its test module the read-only
# builder keeps no digest-ordered tree (the map step pushes onto a `Vec`
# per partition and the reducer threads sort), and the population loader
# maps each PYMK record as its chunk arrives instead of collecting the
# records for a whole-set build after the join.
builder_seam="$(sed '/^#\[cfg(test)\]/,$d' crates/voldemort/src/readonly/builder.rs)"
if grep -n 'BTreeMap<Digest' <<<"$builder_seam" \
  || grep -nE 'pymk_records|load_pymk\(' crates/core/src/population.rs; then
  echo "ci.sh: a sorted-on-one-thread PYMK build or a collected PYMK record set is back (matches above)" >&2
  exit 1
fi

# No public function without a caller: every `pub fn` of the library is
# named by a second file among the library, its tests, examples, the
# benchmark and the root package, or is listed with its reason in
# scripts/pub_fn_allow.txt. A listed name that gained a second file is
# stale and must leave the list.
allow=scripts/pub_fn_allow.txt
if awk '!/^[[:space:]]*(#|$)/ && NF < 2' "$allow" | grep .; then
  echo "ci.sh: $allow lines above give no reason" >&2
  exit 1
fi
allowed="$(awk '!/^[[:space:]]*(#|$)/ {print $1}' "$allow" | sort -u)"
single="$(for name in $(git grep -ohE 'pub fn [a-z_0-9]+' -- crates ':!crates/bench' | sed 's/^pub fn //' | sort -u); do
  if [ "$(git grep -lw "$name" -- crates tests examples benchmark/src src | wc -l)" -eq 1 ]; then
    echo "$name"
  fi
done)"
unlisted="$(comm -23 <(echo "$single") <(echo "$allowed") | grep . || true)"
stale="$(comm -13 <(echo "$single") <(echo "$allowed") | grep . || true)"
if [ -n "$unlisted" ] || [ -n "$stale" ]; then
  [ -z "$unlisted" ] || echo "ci.sh: pub fn named in one file only (demote, delete, call it from outside, or list it in $allow): $unlisted" >&2
  [ -z "$stale" ] || echo "ci.sh: stale $allow entries, now named in more than one file: $stale" >&2
  exit 1
fi
# ...and the knobs only tests set, and the admin calls only tests made,
# stay gone: the producer's linger and the client's retry builder, store
# deletion, the quorum-consistency predicate and the default link latency.
if git grep -nwE 'with_(linger|retries)|delete_(store)|is_strictly_(consistent)|set_default_(latency)' -- crates tests examples; then
  echo "ci.sh: a deleted test-only knob or call is back (matches above)" >&2
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

echo "== inverted index proptests: 64 cases (default is 24) =="
# The document-numbered index against a naive map of each key's (field,
# token) set: identical query results in key order and identical doc counts
# under random index, re-index, remove and query sequences.
PROPTEST_CASES=64 cargo test -q --test inverted_index_props

echo "== chaos sweep: 20 seeds x 10 scenarios (10 min budget) =="
# Wider seed sweep than the per-test default of 5. Deterministic — every
# scenario runs on simulated time, the tail-fanout one included (its
# quorums rank replies by simulated completion time instead of sleeping
# them) — so the timeout is a tripwire for accidental wall-clock
# dependencies, not a flakiness allowance. On failure each scenario prints its own
# CHAOS_SEED=<n> repro line.
CHAOS_SEEDS=20 timeout 600 cargo test -q --test chaos -- chaos_sweep_

echo "== sharding proptests: 64 cases (default is 32) =="
# The sharded serving runtime against independent references: the striped
# database must equal an in-test map on seeded replays, with dense SCNs
# and a binlog that recovers to the identical fingerprint, prefix scans
# that return the map's rows in key order from the hashed tables, and
# lose no commits under concurrent disjoint lanes.
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
# 128 resumable closed-loop drivers onto 4 scheduler workers, quantum by
# quantum. Exercises the requeue/park paths under real contention; a
# scheduler that loses a driver or starves the FIFO fails the
# every-op-acked assertion or trips the tripwire timeout.
SITE_SMOKE_MEMBERS="${SITE_SMOKE_MEMBERS:-3000}" \
SITE_SMOKE_DRIVERS=128 \
SITE_SMOKE_WORKERS=4 \
SITE_SMOKE_OPS=40 \
  timeout 300 cargo test -q --test site_scale site_smoke_clears_all_slo_gates

echo "== site loader proptests: prepare is chunk-size invariant: 24 cases (default is 6) =="
# The chunk-invariance contract the pipelined prepare rides on: the
# streaming loader must land the byte-identical primary commit stream
# and router accounting at any chunk size as from one whole-population
# chunk, in both shard modes, with every Espresso node holding the same
# documents and people search giving the same answers (Espresso's half
# loads on the generator thread), and stream the graph `generate` builds.
PROPTEST_CASES=24 cargo test -q --test site_loader_props

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
