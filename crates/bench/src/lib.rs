//! Evaluation harness shared by the table/figure regeneration binaries.
//!
//! Every file under `results/` is the output of one binary here and is
//! never read back: `results/<bin>.txt` is `<bin>`'s stdout, and
//! `table3_confusion` / `table5_benchmarks` also write `results/drbw.model`
//! and `results/sweep.tsv`. The one memo layer is the run cache
//! ([`util::open_run_cache`]), which makes recomputing cheap.
//!
//! The expensive artifact is the **benchmark sweep** (§VII): for each of
//! the 512 cases of Table V we need a profiled baseline run (detection),
//! the §VII.B ground truth ([`sweep::ground_truth`]), and the baseline
//! verdicts of the heuristic detectors. [`sweep`] computes it; the Table
//! IV/V/VI binary and the heuristics ablation both run it.

pub mod sweep;
pub mod tables;
pub mod util;
