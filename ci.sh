#!/usr/bin/env bash
# Tier-1 CI gate: build, tests, formatting, lints. Any failure fails the run.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (per-package, timed)"
suite_start=$SECONDS
for manifest in crates/*/Cargo.toml shims/*/Cargo.toml Cargo.toml; do
    pkg=$(grep -m1 '^name = ' "$manifest" | cut -d'"' -f2)
    pkg_start=$SECONDS
    cargo test -q -p "$pkg"
    echo "    ${pkg}: $((SECONDS - pkg_start))s"
done
echo "    total test wall time: $((SECONDS - suite_start))s"

echo "==> benchmark package tests (it path-depends on the workspace's public items)"
bench_start=$SECONDS
cargo test -q --offline --manifest-path benchmark/Cargo.toml
echo "    benchmark: $((SECONDS - bench_start))s"

echo "==> knob-creep gate (the only DRBW_* environment variables)"
knobs=$(grep -rhoE 'DRBW_[A-Z0-9_]+' crates src examples tests | sort -u | tr '\n' ' ')
if [ "$knobs" != "DRBW_RUNCACHE_DIR " ]; then
    echo "knob-creep gate: expected DRBW_RUNCACHE_DIR, found: $knobs" >&2
    exit 1
fi
echo "    $knobs"

echo "==> unsafe gate (exactly the two AVX2 dispatch calls in numasim::simd)"
unsafe_sites=$(grep -rnoE '\bunsafe[[:space:]]*(\{|fn\b|impl\b|trait\b|extern\b)' crates src tests examples shims --include='*.rs' \
    | cut -d: -f1 | sort | uniq -c | sed 's/^ *//')
if [ "$unsafe_sites" != "2 crates/numasim/src/simd.rs" ]; then
    echo "unsafe gate: expected the two unsafe blocks of crates/numasim/src/simd.rs, found: ${unsafe_sites:-none}" >&2
    exit 1
fi
echo "    $unsafe_sites"

echo "==> surface gate (deleted engine options, per-access stream methods, run-cache lock/eviction names and per-sample offers stay deleted; gathers stay within next_zip)"
if grep -rnE 'ExecMode|span_fusion|set_max_run|fn next_access|fn compute_cycles|fn next_gather|fn next_batch|StridedStream|StoreConfig|open_with|lock_skips|claim_writer_lock|cache_hit_rate|offer_blocking|with_block_capacity|DropOldest|drain_batch|--per-sample|\bOffer\b' crates src tests examples; then
    echo "surface gate: the names above left the shipped surface; reach the per-access body through numasim::oracle::run, hand out gathers through AccessStream::next_zip, open a run cache with RunCache::open, and offer samples as whole blocks (BlockRing::offer_block, SessionHandle::offer_block_blocking)" >&2
    exit 1
fi
echo "    clean"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> results are fresh (every bench bin, cold run cache, empty directory)"
# results/<bin>.txt is <bin>'s stdout; table3_confusion also writes
# results/drbw.model, table5_benchmarks results/sweep.tsv, and table_tune
# BENCH_tune.json. Nothing reads them back, so regenerating in an empty
# directory (where the default run cache, results/runcache, starts cold)
# must reproduce the committed files exactly, and nothing else may be
# committed under results/.
cargo build --release --quiet -p drbw-bench --bins
unset DRBW_RUNCACHE_DIR
bins=$PWD/target/release
fresh=$(mktemp -d)
mkdir "$fresh/results"
fresh_start=$SECONDS
for b in table1_features table3_confusion table5_benchmarks table7_overhead \
         fig4_cf fig5_amg fig6_irsmk fig7_streamcluster fig8_lulesh \
         case_studies ablation_heuristics ablation_sampling ablation_backends \
         asymmetry_study ext_cache_contention stream_replay scenario_tenants table_tune; do
    (cd "$fresh" && "$bins/$b" > "results/$b.txt" 2> "$b.err") || {
        echo "results freshness: $b failed; its stderr:" >&2
        cat "$fresh/$b.err" >&2
        exit 1
    }
done
fresh_secs=$((SECONDS - fresh_start))
# Temp file + rename is the store's whole write protocol: after a full
# regeneration the cache holds entries and nothing else.
leaked=$(find "$fresh/results/runcache" -mindepth 1 ! -name '*.run')
if [ -n "$leaked" ]; then
    echo "results freshness: the run cache holds files other than *.run entries:" >&2
    echo "$leaked" >&2
    exit 1
fi
diff -r -x runcache results "$fresh/results" || {
    echo "results freshness: results/ differs from a cold regeneration (above); commit the regenerated files" >&2
    exit 1
}
diff BENCH_tune.json "$fresh/BENCH_tune.json" || {
    echo "results freshness: BENCH_tune.json differs from a cold regeneration (above)" >&2
    exit 1
}
# The run cache's cold->warm check rides along: a warm rerun must hit the
# cache and print the committed table byte for byte.
(cd "$fresh" && "$bins/table1_features" > warm.out 2> warm.err)
diff results/table1_features.txt "$fresh/warm.out"
warm_hits=$(sed -n 's/.*runcache: hits=\([0-9]*\).*/\1/p' "$fresh/warm.err")
if [ -z "${warm_hits}" ] || [ "${warm_hits}" -eq 0 ]; then
    echo "run-cache smoke: warm table1_features reported no cache hits" >&2
    exit 1
fi
echo "    $(ls results | wc -l) files + BENCH_tune.json byte-identical, cold ${fresh_secs}s;" \
    "warm table1_features: ${warm_hits} hits, stdout byte-identical"
rm -rf "$fresh"

echo "==> autotune smoke (closed-loop example, cold->warm on one cache, serial cold pass on another)"
cargo build --release --example autotune
tune_cache=$(mktemp -d)
DRBW_RUNCACHE_DIR="$tune_cache" ./target/release/examples/autotune Streamcluster 32 4 \
    > "$tune_cache/cold.out" 2>/dev/null
# The tuner's waves run in parallel; one worker must print the same report.
serial_cache=$(mktemp -d)
RAYON_NUM_THREADS=1 DRBW_RUNCACHE_DIR="$serial_cache" ./target/release/examples/autotune Streamcluster 32 4 \
    > "$serial_cache/cold.out" 2>/dev/null
diff "$tune_cache/cold.out" "$serial_cache/cold.out" || {
    echo "autotune smoke: the one-thread cold pass printed a different report (above)" >&2
    exit 1
}
rm -rf "$serial_cache"
warm_start=$SECONDS
DRBW_RUNCACHE_DIR="$tune_cache" ./target/release/examples/autotune Streamcluster 32 4 \
    > "$tune_cache/warm.out" 2>/dev/null
warm_secs=$((SECONDS - warm_start))
# A non-empty TuneReport: candidates evaluated and a verified verdict line.
grep -q '^autotune: evaluated [1-9][0-9]* candidate' "$tune_cache/warm.out" || {
    echo "autotune smoke: no candidate evaluations in the report" >&2
    exit 1
}
diff "$tune_cache/cold.out" "$tune_cache/warm.out"
if [ "$warm_secs" -ge 10 ]; then
    echo "autotune smoke: warm pass took ${warm_secs}s (budget < 10s)" >&2
    exit 1
fi
echo "    warm pass ${warm_secs}s, $(grep '^autotune:' "$tune_cache/warm.out")"
rm -rf "$tune_cache"

echo "==> serve smoke (50 concurrent sessions, block offers)"
serve_cache=$(mktemp -d)
# The binary hard-asserts >=1 rmc verdict per contended session, zero
# drops and version-stamped windows; here we only gate the budget and
# sanity-check the snapshot.
serve_json="$serve_cache/BENCH_serve.json"
serve_start=$SECONDS
DRBW_RUNCACHE_DIR="$serve_cache" ./target/release/serve_load --smoke --out "$serve_json" > "$serve_cache/serve.out"
serve_secs=$((SECONDS - serve_start))
grep -q '"samples_dropped": 0' "$serve_json" || {
    echo "serve smoke: snapshot reports dropped samples" >&2
    exit 1
}
grep -q '"sessions_closed": 50' "$serve_json" || {
    echo "serve smoke: snapshot did not close all 50 sessions" >&2
    exit 1
}
# Whether the handoff slept is answered by the service's own snapshot.
for counter in worker_parks producer_parks finish_parks; do
    grep -qE "\"$counter\": [0-9]+" "$serve_json" || {
        echo "serve smoke: snapshot missing the $counter counter" >&2
        exit 1
    }
done
if [ "$serve_secs" -ge 15 ]; then
    echo "serve smoke: took ${serve_secs}s (budget < 15s)" >&2
    exit 1
fi
# Queue wait — a block's enqueue stamp to the worker's pop, from the
# service's own snapshot — is the worker-is-the-bottleneck signal.
echo "    ${serve_secs}s, $(grep -o '"verdicts": [0-9]*' "$serve_json") across 50 sessions, zero drops," \
    "$(grep -oE '"queue_wait_p50_us": [0-9.]+' "$serve_json" | tail -1)," \
    "$(grep -oE '"(worker|producer|finish)_parks": [0-9]+' "$serve_json" | tail -3 | tr '\n' ' ')"
rm -rf "$serve_cache"

# One workload of the repo benchmark as a traced smoke (a smoke is not a
# measurement: it shows a layer is where CHANGES.md says it is, and that
# every reference check still passes). Leaves the metric lines in
# $trace_out for `layer` and the wall time in $trace_secs.
traced_smoke() {
    trace_out=$(mktemp)
    local start=$SECONDS
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        run --workload "$1" --smoke --trace 1 --seed 1 > "$trace_out"
    trace_secs=$((SECONDS - start))
    grep -q '"failed": 0' "$trace_out" || {
        echo "traced smoke ($1): the run reports failed ops" >&2
        exit 1
    }
    if [ "$trace_secs" -ge 10 ]; then
        echo "traced smoke ($1): took ${trace_secs}s (budget < 10s)" >&2
        exit 1
    fi
}
layer() { awk -F'\t' -v m="$1" -v f="${2:-%.1f}" '$2 == m { printf f, $3 }' "$trace_out"; }
# Built first so the budgets time the runs.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

echo "==> online-pipeline traced smoke (repo benchmark: serve-saturate --smoke --trace 1)"
# The shard worker's per-sample cost, the queue in front of it (a p90
# depth above zero means the worker, not the generator, bounds the run)
# and the verdict latency behind it, plus the generator's block building
# and the report round trip — the two layers the producer→worker
# handoff owns.
traced_smoke serve-saturate
echo "    ${trace_secs}s, stream.ingest_block.ns_per_sample $(layer stream.ingest_block.ns_per_sample) ns," \
    "serve.queue_depth_p90 $(layer serve.queue_depth_p90 %.0f) samples," \
    "serve.verdict_latency_p50_us $(layer serve.verdict_latency_p50_us) us," \
    "pebs.block.build.busy_s $(layer pebs.block.build.busy_s %.3f) s," \
    "serve.finish.p50_us $(layer serve.finish.p50_us) us, 0 failed ops"
rm -f "$trace_out"

echo "==> batch-pipeline traced smoke (repo benchmark: batch-cold --smoke --trace 1)"
# The engine's host cost per simulated access, every golden count
# (accesses, simulated cycles, samples) and verdict still checked.
traced_smoke batch-cold
echo "    ${trace_secs}s, numasim.engine.ns_per_access $(layer numasim.engine.ns_per_access) ns, 0 failed ops"
rm -f "$trace_out"

echo "==> scheduler traced smoke (repo benchmark: tenants --smoke --trace 1)"
# Every op checks its golden access, cycle and sample counts, so a numasim
# change that moves an exact count in the discrete-event scheduler fails
# here.
traced_smoke tenants
echo "    ${trace_secs}s, numasim.sched.ns_per_access $(layer numasim.sched.ns_per_access) ns, 0 failed ops"
rm -f "$trace_out"

echo "==> closed-loop traced smoke (repo benchmark: tune-loop --smoke --trace 1)"
# The same for unobserved re-simulations: every op checks the tuner's
# golden access, evaluation and cycle counts.
traced_smoke tune-loop
echo "    ${trace_secs}s, tune.evaluations $(layer tune.evaluations %.0f)," \
    "tune.floor_violations $(layer tune.floor_violations %.0f), 0 failed ops"
rm -f "$trace_out"

echo "==> multi-tenant smoke (victim/aggressor through the discrete-event scheduler)"
tenant_cache=$(mktemp -d)
tenant_start=$(date +%s.%N)
DRBW_RUNCACHE_DIR="$tenant_cache" ./target/release/scenario_tenants \
    > "$tenant_cache/smoke.out" 2>/dev/null
tenant_elapsed=$(echo "$(date +%s.%N) $tenant_start" | awk '{printf "%.2f", $1 - $2}')
tenant_secs=${tenant_elapsed%.*}
# The binary hard-asserts the control stays good and the contended run
# raises rmc on the victim's 0->1 channel; here we gate the budget and
# sanity-check the verdict lines it printed.
grep -q 'verdict: rmc on 0->1' "$tenant_cache/smoke.out" || {
    echo "multi-tenant smoke: no rmc verdict on the victim's channel" >&2
    exit 1
}
grep -q 'control verdict: good; contended verdict: rmc (detected)' "$tenant_cache/smoke.out" || {
    echo "multi-tenant smoke: summary line missing or wrong" >&2
    exit 1
}
if [ "$tenant_secs" -ge 15 ]; then
    echo "multi-tenant smoke: took ${tenant_elapsed}s (budget < 15s)" >&2
    exit 1
fi
echo "    elapsed ${tenant_elapsed}s, $(grep 'victim slowdown' "$tenant_cache/smoke.out")"
rm -rf "$tenant_cache"

# Surface the recorded engine numbers so perf regressions are visible in
# CI logs (BENCH_engine.json is refreshed by
# crates/bench/src/bin/bench_engine.rs, not by this script).
if [ -f BENCH_engine.json ]; then
    analyze=$(sed -n 's/.*"analyze_batch_1thread": { "median_s": \([0-9.]*\).*/\1/p' BENCH_engine.json)
    body=$(sed -n 's/.*"batched_vs_oracle": \([0-9.]*\).*/\1/p' BENCH_engine.json)
    cache=$(grep -A3 '"run_cache"' BENCH_engine.json | sed -n 's/.*"speedup": \([0-9.]*\).*/\1/p')
    echo "==> recorded engine numbers: analyze_batch_1thread ${analyze:-?}s, slice body ${body:-?}x vs the per-access oracle, run cache warm ${cache:-?}x vs cold"
fi

# Surface the recorded 21-program tuned-speedup summary (BENCH_tune.json
# is refreshed by crates/bench/src/bin/table_tune.rs, not by this script).
if [ -f BENCH_tune.json ]; then
    echo "==> recorded autotune summary: $(grep -o '"summary": {[^}]*}' BENCH_tune.json)"
fi

echo "==> ci.sh: all green"
