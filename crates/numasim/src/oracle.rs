//! The per-access oracle: the slice body the shipped one
//! (`engine::run_thread_slice`) is held to, bit for bit — `RunStats`, every
//! event an observer is shown, and the order it is shown them in.
//!
//! It is a reference, not a mode: no configuration selects it. [`run`]
//! drives a scenario through the very loop [`Engine::run`] drives
//! ([`crate::sched`]: same rounds, same burst and migration gates, same
//! `limit` per slice) with one difference — between gates each thread
//! pulls strictly one access at a time and walks it through the caches,
//! the bandwidth model and the observer with no proof, no fusion, no
//! closed form and no observer `run_hint`. The differential suites
//! (`tests/differential.rs` and `tests/scheduler.rs` at the workspace
//! root, and the `engine` / `sched` unit tests) compare against it.

use crate::access::AccessRun;
use crate::engine::{AccessEvent, Engine, Observer, ThreadCtx};
use crate::hierarchy::DataSource;
use crate::sched::{ScenarioStats, SchedCtx, TenantRun};
use crate::stats::AccessCounts;

/// [`Engine::run`] through the per-access slice body.
///
/// # Panics
/// As [`Engine::run`]: with the [`crate::sched::ScenarioError`] text if
/// the scenario is malformed, or if a stream accesses unallocated memory.
pub fn run<O: Observer>(engine: &mut Engine<O>, tenants: Vec<TenantRun>) -> ScenarioStats {
    engine.run_with(tenants, reference_slice).unwrap_or_else(|e| panic!("{e}"))
}

/// Strictly one access at a time until the thread's clock reaches `limit`
/// or its stream ends. Returns whether the thread finished.
fn reference_slice(ctx: &mut SchedCtx<'_>, counts: &mut AccessCounts, t: &mut ThreadCtx, limit: f64) -> bool {
    while t.clock < limit {
        // Single-access runs, so per-segment `compute`/`mlp` are honoured.
        let Some(run) = t.stream.next_run(1) else {
            return true;
        };
        step_single_access(ctx, counts, t, &run);
    }
    false
}

/// Execute one single-access run (`run.len == 1`) for a thread: cache
/// lookup, DRAM service with the current congestion factor, clock advance,
/// observer delivery, and the trailing same-line reps.
fn step_single_access(ctx: &mut SchedCtx<'_>, counts: &mut AccessCounts, t: &mut ThreadCtx, run: &AccessRun) {
    debug_assert_eq!(run.len, 1, "step_single_access requires single-access runs");
    let cfg = ctx.cfg;
    let (thread, core, node) = (t.thread, t.core, t.node);
    let compute = run.compute;
    let mlp = run.mlp.unwrap_or(cfg.engine.default_mlp).max(1.0);
    let addr = run.base;
    let (source, home, latency) = match ctx.hierarchy.cache_access(core, addr) {
        Some(src) => (src, None, cfg.base_latency(src)),
        None => {
            let home = ctx.memmap.home_node(addr, node);
            let (src, service) = if home == node {
                (DataSource::LocalDram, cfg.latency.dram_local_service)
            } else {
                (DataSource::RemoteDram, cfg.latency.dram_remote_service)
            };
            let f = ctx.bw.factor_for(node, home);
            ctx.bw.record_dram(node, home, cfg.cache.line_size as f64);
            (src, Some(home), cfg.latency.dram_fixed + service * f)
        }
    };
    t.clock += compute + latency / mlp;
    counts.record(source);
    t.clock += ctx.observer.on_access(&AccessEvent {
        time: t.clock,
        thread,
        core,
        node,
        addr,
        is_write: run.is_write_at(0),
        source,
        home,
        latency,
    });
    // Remaining element loads within the same line.
    for _ in 1..run.reps {
        let (rep_source, rep_latency, rep_home) = if source.is_dram() {
            // Satisfied by the in-flight fill: LFB.
            (DataSource::Lfb, cfg.latency.lfb, home)
        } else {
            // Line resident: they hit L1.
            (DataSource::L1, cfg.latency.l1, None)
        };
        // LFB latency is overlapped with the fill; L1 hits are charged
        // like any hit.
        t.clock += compute + if rep_source == DataSource::Lfb { 0.0 } else { rep_latency / mlp };
        counts.record(rep_source);
        t.clock += ctx.observer.on_access(&AccessEvent {
            time: t.clock,
            thread,
            core,
            node,
            addr,
            is_write: run.is_write_at(0),
            source: rep_source,
            home: rep_home,
            latency: rep_latency,
        });
    }
}
