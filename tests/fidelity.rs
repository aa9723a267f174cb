//! The paper's headline numbers as regression gates, read from the
//! committed outputs (`ci.sh` regenerates both files from a cold cache and
//! fails when they are stale, so these gates see what the code computes):
//!
//! * `results/sweep.tsv` — Table V / VI over the 512 benchmark cases;
//! * `BENCH_tune.json` — the guided-optimization loop's summary.

const SWEEP: &str = include_str!("../results/sweep.tsv");
const TUNE: &str = include_str!("../BENCH_tune.json");

/// (benchmark, ground-truth rmc, DR-BW rmc) per sweep row.
fn sweep_rows() -> Vec<(&'static str, bool, bool)> {
    SWEEP
        .lines()
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            assert_eq!(f.len(), 11, "sweep.tsv row with {} columns: {line:?}", f.len());
            (f[0], f[5] == "1", f[6] == "1")
        })
        .collect()
}

/// A number from `BENCH_tune.json`'s one-line `"summary"` object.
fn tune_summary(key: &str) -> f64 {
    let summary =
        TUNE.lines().find(|l| l.trim_start().starts_with("\"summary\"")).expect("BENCH_tune.json has a summary");
    let tail = summary.split(&format!("\"{key}\": ")).nth(1).unwrap_or_else(|| panic!("summary lacks {key}"));
    let value: String = tail.chars().take_while(|c| c.is_ascii_digit() || *c == '.').collect();
    value.parse().unwrap_or_else(|e| panic!("summary {key} = {value:?}: {e}"))
}

#[test]
fn table_vi_has_no_false_negatives_and_few_false_positives() {
    let rows = sweep_rows();
    assert_eq!(rows.len(), 512, "Table V case count");
    let actual = rows.iter().filter(|r| r.1).count();
    let false_neg = rows.iter().filter(|r| r.1 && !r.2).count();
    let false_pos = rows.iter().filter(|r| !r.1 && r.2).count();
    assert_eq!((actual, false_neg), (68, 0), "0 false negatives of 68 contended cases (paper: 0%)");
    assert!(false_pos <= 8, "{false_pos} false positives of {}", rows.len() - actual);
    let correctness = (rows.len() - false_pos - false_neg) as f64 / rows.len() as f64;
    assert!(correctness >= 0.980, "correctness {:.1}% (paper: 96.3%)", correctness * 100.0);
}

#[test]
fn ground_truth_contended_programs_are_the_papers() {
    let mut rmc: Vec<&str> = sweep_rows().into_iter().filter(|r| r.1).map(|r| r.0).collect();
    rmc.sort_unstable();
    rmc.dedup();
    // Table IV's sixth, LULESH, is evaluated outside the Table V sweep.
    assert_eq!(rmc, ["AMG2006", "IRSmk", "NW", "SP", "Streamcluster"]);
}

#[test]
fn tuner_never_slows_and_improves_nearly_every_program() {
    assert_eq!(tune_summary("programs"), 21.0);
    assert!(tune_summary("speedup_floor") >= 1.0, "the no-op plan bounds every program at 1.0x");
    assert!(tune_summary("improved") >= 20.0, "improved {} of 21", tune_summary("improved"));
    assert!(tune_summary("geomean") >= 1.466, "geomean {}", tune_summary("geomean"));
}
