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
if [ "$knobs" != "DRBW_RUNCACHE DRBW_RUNCACHE_DIR " ]; then
    echo "knob-creep gate: expected DRBW_RUNCACHE DRBW_RUNCACHE_DIR, found: $knobs" >&2
    exit 1
fi
echo "    $knobs"

echo "==> surface gate (deleted engine options and per-access stream methods stay deleted)"
if grep -rnE 'ExecMode|span_fusion|set_max_run|fn next_access|fn compute_cycles|StridedStream' crates src tests examples; then
    echo "surface gate: the names above left the shipped surface; reach the per-access body through numasim::oracle::run" >&2
    exit 1
fi
echo "    clean"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> run-cache cold->warm smoke (table1_features twice, byte-identical)"
smoke_cache=$(mktemp -d)
DRBW_RUNCACHE_DIR="$smoke_cache" ./target/release/table1_features \
    > "$smoke_cache/cold.out" 2> "$smoke_cache/cold.err"
DRBW_RUNCACHE_DIR="$smoke_cache" ./target/release/table1_features \
    > "$smoke_cache/warm.out" 2> "$smoke_cache/warm.err"
diff "$smoke_cache/cold.out" "$smoke_cache/warm.out"
warm_hits=$(sed -n 's/.*runcache: hits=\([0-9]*\).*/\1/p' "$smoke_cache/warm.err")
if [ -z "${warm_hits}" ] || [ "${warm_hits}" -eq 0 ]; then
    echo "run-cache smoke: warm pass reported no cache hits" >&2
    exit 1
fi
echo "    warm hits: ${warm_hits}, stdout byte-identical"
rm -rf "$smoke_cache"

echo "==> autotune smoke (closed-loop example, cold->warm on one cache)"
cargo build --release --example autotune
tune_cache=$(mktemp -d)
DRBW_RUNCACHE_DIR="$tune_cache" ./target/release/examples/autotune Streamcluster 32 4 \
    > "$tune_cache/cold.out" 2>/dev/null
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

echo "==> serve smoke matrix (50 concurrent sessions; block/per-sample arms)"
serve_cache=$(mktemp -d)
# Two arms over one warm run cache: the columnar block path (default)
# and the legacy per-sample offer shim. The binary hard-asserts >=1 rmc
# verdict per contended session, zero drops, block-vs-per-sample bit
# identity, and version-stamped windows; here we only gate the budget
# and sanity-check the snapshots.
for arm in "block:" "per_sample:--per-sample"; do
    name=${arm%%:*}
    extra_flag=${arm#*:}
    serve_start=$SECONDS
    DRBW_RUNCACHE_DIR="$serve_cache" ./target/release/serve_load --smoke $extra_flag \
        --out "$serve_cache/BENCH_serve_$name.json" > "$serve_cache/$name.out"
    serve_secs=$((SECONDS - serve_start))
    grep -q '"samples_dropped": 0' "$serve_cache/BENCH_serve_$name.json" || {
        echo "serve smoke ($name): snapshot reports dropped samples" >&2
        exit 1
    }
    grep -q '"sessions_closed": 50' "$serve_cache/BENCH_serve_$name.json" || {
        echo "serve smoke ($name): snapshot did not close all 50 sessions" >&2
        exit 1
    }
    grep -q '"bit_identity": true' "$serve_cache/BENCH_serve_$name.json" || {
        echo "serve smoke ($name): snapshot missing the block bit-identity attestation" >&2
        exit 1
    }
    if [ "$serve_secs" -ge 15 ]; then
        echo "serve smoke ($name): took ${serve_secs}s (budget < 15s)" >&2
        exit 1
    fi
    echo "    ${name}: ${serve_secs}s, $(grep -o '"verdicts": [0-9]*' "$serve_cache/BENCH_serve_$name.json") across 50 sessions, zero drops"
done
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
layer() { awk -F'\t' -v m="$1" '$2 == m { printf "%.1f", $3 }' "$trace_out"; }
# Built first so the budgets time the runs.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

echo "==> online-pipeline traced smoke (repo benchmark: serve-saturate --smoke --trace 1)"
# The shard worker's per-sample cost and the verdict latency behind it.
traced_smoke serve-saturate
echo "    ${trace_secs}s, stream.ingest_block.ns_per_sample $(layer stream.ingest_block.ns_per_sample) ns," \
    "serve.verdict_latency_p50_us $(layer serve.verdict_latency_p50_us) us, 0 failed ops"
rm -f "$trace_out"

echo "==> batch-pipeline traced smoke (repo benchmark: batch-cold --smoke --trace 1)"
# The engine's host cost per simulated access, every golden count
# (accesses, simulated cycles, samples) and verdict still checked.
traced_smoke batch-cold
echo "    ${trace_secs}s, numasim.engine.ns_per_access $(layer numasim.engine.ns_per_access) ns, 0 failed ops"
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
