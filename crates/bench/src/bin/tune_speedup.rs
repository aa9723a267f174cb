//! Measure what running the tuner's waves in parallel buys, in one
//! process: the default tool (all cores) against a `threads(1)` tool on
//! the repo benchmark's 13 `tune-loop` programs, alternated, keeping each
//! program's fastest of `reps` repetitions per arm. Every report pair is
//! checked identical first (trace, cycles as bits, plan, evaluations).
//!
//! ```text
//! cargo run --release -p drbw-bench --bin tune_speedup [reps]
//! ```

use drbw_bench::util::{workload, BenchError};
use drbw_core::DrBw;
use drbw_tune::{Tune, TuneConfig, TuneReport};
use std::time::Instant;
use workloads::config::{Input, RunConfig};

/// The `tune-loop` programs at their benchmark shapes: (name, input,
/// threads, nodes).
const PROGRAMS: [(&str, Input, usize, usize); 13] = [
    ("Swaptions", Input::Small, 24, 3),
    ("Freqmine", Input::Small, 16, 4),
    ("LU", Input::Small, 32, 2),
    ("X264", Input::Medium, 24, 3),
    ("Blackscholes", Input::Large, 64, 4),
    ("Fluidanimate", Input::Medium, 32, 2),
    ("IS", Input::Small, 32, 2),
    ("Bodytrack", Input::Large, 16, 4),
    ("FT", Input::Small, 64, 4),
    ("SP", Input::Large, 64, 4),
    ("Ferret", Input::Small, 64, 4),
    ("CG", Input::Small, 64, 4),
    ("NW", Input::Medium, 64, 4),
];

/// The bits of a report the thread count must not move.
fn fingerprint(r: &TuneReport) -> (Vec<(String, u64)>, String, u64, u64, usize) {
    let trace = r.trace.iter().map(|s| (s.description.clone(), s.cycles.to_bits())).collect();
    (trace, r.plan.describe(), r.baseline_cycles.to_bits(), r.tuned_cycles.to_bits(), r.evaluations)
}

fn main() -> Result<(), BenchError> {
    let reps: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(5);
    let build = |threads: Option<usize>| {
        let builder = DrBw::builder();
        let builder = match threads {
            Some(n) => builder.threads(n),
            None => builder,
        };
        builder.build().map_err(|e| BenchError::new(format!("cannot train DR-BW: {e}")))
    };
    eprintln!("training two tools on the full grid (default pool, and threads(1))...");
    let tools = [build(None)?, build(Some(1))?];
    let cfg = TuneConfig::default();
    let cases: Vec<(&str, &dyn workloads::spec::Workload, RunConfig)> = PROGRAMS
        .iter()
        .map(|&(name, input, t, n)| Ok((name, workload(name)?, RunConfig::new(t, n, input))))
        .collect::<Result<_, BenchError>>()?;

    // best[arm][program]: fastest seconds; arm 0 = default pool, 1 = one thread.
    let mut best = [vec![f64::INFINITY; cases.len()], vec![f64::INFINITY; cases.len()]];
    for rep in 0..reps {
        for (i, (name, w, rcfg)) in cases.iter().enumerate() {
            let order = if (rep + i) % 2 == 0 { [0, 1] } else { [1, 0] };
            let mut reports: [Option<TuneReport>; 2] = [None, None];
            for arm in order {
                let start = Instant::now();
                let report = tools[arm].tune(*w, rcfg, &cfg);
                best[arm][i] = best[arm][i].min(start.elapsed().as_secs_f64());
                reports[arm] = Some(report);
            }
            let [a, b] = reports.map(|r| fingerprint(&r.expect("both arms ran")));
            if a != b {
                return Err(BenchError::new(format!("{name}: the thread count changed the report")));
            }
        }
    }

    println!("{:<14} {:>10} {:>10} {:>7}", "program", "1 thread", "default", "ratio");
    for (i, (name, _, _)) in cases.iter().enumerate() {
        println!(
            "{:<14} {:>9.1}ms {:>9.1}ms {:>6.2}x",
            name,
            best[1][i] * 1e3,
            best[0][i] * 1e3,
            best[1][i] / best[0][i]
        );
    }
    let (serial, parallel): (f64, f64) = (best[1].iter().sum(), best[0].iter().sum());
    println!(
        "all 13: {:.3}s on 1 thread, {:.3}s on {} threads: {:.2}x (min of {reps} alternated reps; reports identical)",
        serial,
        parallel,
        rayon::current_num_threads(),
        serial / parallel
    );
    Ok(())
}
