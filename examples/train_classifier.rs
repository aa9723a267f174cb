//! Training scenario: build the full Table II training set, train the
//! decision tree, cross-validate it, and export the tree as Graphviz.
//!
//! ```text
//! cargo run --release --example train_classifier [--full]
//! ```
//!
//! With `--full` this runs the complete 192-run grid of the paper (§V,
//! Table II) — a few minutes of simulation; without it, a quick subset.
//! The dot output lands in `target/decision_tree.dot` (`results/` holds
//! only the bench binaries' outputs); `dot -Tpng target/decision_tree.dot
//! -o tree.png` renders Figure 3.

use drbw::core::classifier::ContentionClassifier;
use drbw::core::training;
use drbw::prelude::*;
use mldt::crossval::stratified_kfold;
use mldt::tree::TrainConfig;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let machine = MachineConfig::scaled();

    let specs = if full { training::training_specs() } else { training::quick_training_specs() };
    println!(
        "collecting {} training runs ({})...",
        specs.len(),
        if full { "full Table II grid" } else { "quick subset" }
    );
    let data = training::collect_training_set(&machine, &specs);
    println!(
        "dataset: {} instances ({} good, {} rmc), {} features",
        data.len(),
        data.class_counts()[0],
        data.class_counts()[1],
        data.num_features()
    );

    let cfg = TrainConfig::default();
    let classifier = ContentionClassifier::train(&data, cfg);
    println!("\nlearned tree:\n{}", classifier.render_tree());

    let k = if full { 10 } else { 4 };
    let cv = stratified_kfold(&data, k, 0xC4055, cfg);
    println!("stratified {k}-fold cross-validation: {:.1}% accuracy", cv.accuracy() * 100.0);
    print!("{}", cv.confusion.to_table());

    std::fs::create_dir_all("target").ok();
    std::fs::write("target/decision_tree.dot", classifier.render_dot()).expect("write dot file");
    println!("\nGraphviz tree written to target/decision_tree.dot");
}
