//! Regenerates §V.C–D: Table II (training-set composition), Table III
//! (confusion matrix on the training data), Figure 3 (the learned decision
//! tree), and the stratified 10-fold cross-validation accuracy. Then
//! audits the constructed training labels against the §VII.B rule.
//!
//! Also writes the Figure 3 tree to `results/drbw.model` (the `drbw`
//! CLI's default model; the repo benchmark compiles it in).

use drbw_bench::sweep::ground_truth;
use drbw_bench::util::{open_run_cache, report_run_cache, write_text, BenchError};
use drbw_core::classifier::ContentionClassifier;
use drbw_core::{training, Mode};
use mldt::crossval::stratified_kfold;
use mldt::metrics::ConfusionMatrix;
use mldt::tree::TrainConfig;
use numasim::config::MachineConfig;
use rayon::prelude::*;

fn main() -> Result<(), BenchError> {
    let mcfg = MachineConfig::scaled();
    let specs = training::training_specs();

    println!("=== Table II: training data composition ===");
    println!("{:<24} {:>6} {:>6} {:>6}", "mini-program", "good", "rmc", "total");
    for program in ["sumv", "dotv", "countv", "bandit"] {
        let good = specs.iter().filter(|s| s.program.name() == program && s.label == drbw_core::Mode::Good).count();
        let rmc = specs.iter().filter(|s| s.program.name() == program && s.label == drbw_core::Mode::Rmc).count();
        println!("{program:<24} {good:>6} {rmc:>6} {:>6}", good + rmc);
    }
    let good_total = specs.iter().filter(|s| s.label == drbw_core::Mode::Good).count();
    println!("{:<24} {:>6} {:>6} {:>6}", "Full training data set", good_total, specs.len() - good_total, specs.len());

    eprintln!("collecting training data ({} profiled runs)...", specs.len());
    let cache = open_run_cache();
    let t0 = std::time::Instant::now();
    let data = training::collect_training_set_cached(&mcfg, &specs, cache.as_deref());
    eprintln!("collected in {:.1}s", t0.elapsed().as_secs_f64());

    let cfg = TrainConfig::default();
    let clf = ContentionClassifier::train(&data, cfg);
    write_text("results/drbw.model", &clf.to_model_string())?;

    println!("\n=== Figure 3: the learned decision tree ===");
    print!("{}", clf.render_tree());
    let used = clf.tree().features_used();
    let names = drbw_core::features::selected_names();
    println!(
        "features used: {:?} (paper: #6 num_remote_dram_samples, #7 avg_remote_dram_latency)",
        used.iter().map(|&f| format!("#{} {}", f + 1, names[f])).collect::<Vec<_>>()
    );

    println!("\n=== Table III: confusion matrix (training data, resubstitution) ===");
    let mut cm = ConfusionMatrix::new(vec!["good".into(), "rmc".into()]);
    for i in 0..data.len() {
        cm.record(data.label(i), clf.tree().predict(data.row(i)));
    }
    print!("{}", cm.to_table());
    println!("resubstitution accuracy: {:.1}%", cm.accuracy() * 100.0);

    println!("\n=== Stratified 10-fold cross-validation (§V.D) ===");
    let cv = stratified_kfold(&data, 10, 0xC4055, cfg);
    print!("{}", cv.confusion.to_table());
    println!(
        "overall success rate: {}/{} = {:.1}%  (paper: 187/192 = 97.4%)",
        (cv.accuracy() * data.len() as f64).round() as u64,
        data.len(),
        cv.accuracy() * 100.0
    );

    // The paper's tree uses exactly features #6 and #7. Train a tree
    // restricted to those two and show it performs equivalently — the
    // remaining features add (almost) nothing, which is why the full tree
    // is free to pick interchangeable latency features.
    println!("\n=== Restricted tree: only the paper's two features (#6, #7) ===");
    let restricted = data.select_features(&[drbw_core::features::REMOTE_COUNT, drbw_core::features::REMOTE_LATENCY]);
    let cv2 = stratified_kfold(&restricted, 10, 0xC4055, cfg);
    println!("10-fold CV with only num_remote_dram_samples + avg_remote_dram_latency: {:.1}%", cv2.accuracy() * 100.0);
    let tree2 = mldt::tree::DecisionTree::train(&restricted, cfg);
    print!("{}", mldt::export::to_text(&tree2, restricted.feature_names(), &["good".into(), "rmc".into()]));

    // Labels are rmc or good by construction; §VII.B's rule (interleave
    // speedup > 1.10) is what the Table V sweep scores against. List every
    // spec where the label, the rule and the Figure 3 tree do not agree.
    println!("\n=== Label audit: constructed label vs the §VII.B rule vs the Figure 3 tree ===");
    let truths: Vec<_> =
        specs.par_iter().map(|s| ground_truth(cache.as_deref(), s.program.workload(), &mcfg, &s.rcfg)).collect();
    report_run_cache(cache.as_deref());
    let name = |rmc: bool| if rmc { Mode::Rmc.name() } else { Mode::Good.name() };
    println!(
        "{:<8} {:<7} {:<7} {:>8} {:>8} {:<6} {:<6} tree",
        "program", "input", "shape", "seed", "speedup", "label", "rule"
    );
    let (mut rule_off, mut tree_off) = (0, 0);
    for (i, (spec, gt)) in specs.iter().zip(&truths).enumerate() {
        let label = spec.label == Mode::Rmc;
        let tree = clf.tree().predict(data.row(i)) == Mode::Rmc.class_index();
        rule_off += usize::from(gt.is_rmc != label);
        tree_off += usize::from(tree != label);
        if gt.is_rmc != label || tree != label {
            println!(
                "{:<8} {:<7} {:<7} {:>#8x} {:>7.3}x {:<6} {:<6} {}",
                spec.program.name(),
                spec.rcfg.input.name(),
                spec.rcfg.shape_label(),
                spec.rcfg.seed,
                gt.interleave_speedup,
                name(label),
                name(gt.is_rmc),
                name(tree)
            );
        }
    }
    println!(
        "the rule disagrees with the label on {rule_off} of {n} specs, the tree (resubstitution) on {tree_off} of {n}",
        n = specs.len()
    );
    Ok(())
}
