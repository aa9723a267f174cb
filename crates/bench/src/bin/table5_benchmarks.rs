//! Regenerates the paper's evaluation tables IV, V, and VI (§VII): trains
//! DR-BW on the mini-programs, sweeps all 512 benchmark cases, compares
//! DR-BW's per-case detection against the interleave ground truth, and
//! prints the per-benchmark table, the overall classification, and the
//! accuracy/FPR/FNR summary.
//!
//! Also writes the per-case records to `results/sweep.tsv` (an output,
//! never read back; the repo benchmark compiles it in as its golden). The
//! sweep is ~40 s of simulation cold on two cores; the run cache makes a
//! rerun cheap.

use drbw_bench::sweep;
use drbw_bench::tables;
use drbw_bench::util::{write_text, BenchError};
use numasim::config::MachineConfig;

fn main() -> Result<(), BenchError> {
    let mcfg = MachineConfig::scaled();
    let records = sweep::run_sweep(&mcfg)?;
    write_text("results/sweep.tsv", &sweep::to_tsv(&records))?;

    let rows = tables::table_v_rows(&records);

    println!("=== Table IV: benchmark classification (rule 2: any rmc case => rmc program) ===");
    let (good, rmc) = tables::table_iv_classes(&rows, false);
    println!("good: {}", good.join(", "));
    println!("rmc:  {}", rmc.join(", "));
    println!("(plus LULESH, contended, and Raytrace, good — evaluated outside the Table V sweep;");
    println!(" paper: 17 good programs; rmc = SP, Streamcluster, NW, AMG2006, IRSmk, LULESH)");
    let (_, det_rmc) = tables::table_iv_classes(&rows, true);
    println!("by detection instead of ground truth, rmc would be: {}", det_rmc.join(", "));

    println!("\n=== Table V: per-benchmark detection vs ground truth ===");
    print!("{}", tables::render_table_v(&rows));

    println!("\n=== Table VI: detection accuracy over all cases ===");
    let cm = tables::table_vi(&records, |r| r.drbw_rmc);
    print!("{}", tables::render_table_vi(&cm));
    println!("(paper: 96.3% correctness, 4.2% FPR, 0% FNR over 512 cases)");
    Ok(())
}
