//! Integration tests for the batch-analysis engine: parallel-vs-serial
//! determinism of training-set generation (and Table III on that grid),
//! model persistence, and the `DrBw` builder's error surface.

use drbw::core::training;
use drbw::prelude::*;
use workloads::suite::by_name;

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("drbw_engine_{tag}_{}", std::process::id()))
}

#[test]
fn parallel_full_training_set_is_bit_identical_to_serial() {
    // Every simulation seeds its own RNG from its RunConfig, so the
    // parallel grid must reproduce the serial one instance for instance —
    // the contract documented on `training::collect_training_set`.
    let mcfg = MachineConfig::scaled();
    let specs = training::training_specs();
    let serial = training::collect_training_set_serial(&mcfg, &specs);
    let parallel = training::full_training_set(&mcfg);
    assert_eq!(serial.len(), parallel.len());
    assert_eq!(serial.len(), 192, "Table II total");
    for i in 0..serial.len() {
        assert_eq!(serial.label(i), parallel.label(i), "label of instance {i}");
        assert_eq!(serial.row(i), parallel.row(i), "features of instance {i}");
    }

    // Table III on the same dataset, as `table3_confusion` prints it: the
    // 10-fold CV count and the Figure 3 root split.
    let cfg = TrainConfig::default();
    let cv = drbw::mldt::crossval::stratified_kfold(&parallel, 10, 0xC4055, cfg);
    let correct = (cv.accuracy() * parallel.len() as f64).round() as usize;
    assert_eq!(correct, 183, "10-fold CV correct of 192 (paper: 187)");
    let clf = ContentionClassifier::train(&parallel, cfg);
    match &clf.tree().nodes()[0] {
        drbw::mldt::tree::Node::Split { feature, .. } => {
            assert_eq!(*feature, drbw::core::features::REMOTE_LATENCY, "root splits on avg_remote_dram_latency")
        }
        root => panic!("the Figure 3 tree's root is a leaf: {root:?}"),
    }
}

#[test]
fn save_load_roundtrip_classifies_identically() {
    let tool = DrBw::builder().training_set(TrainingSet::Quick).build().expect("quick grid trains");
    let dir = scratch_dir("roundtrip");
    let path = dir.join("models/drbw.model");
    tool.save(&path).expect("save creates parent directories");
    let loaded = DrBw::load(&path).expect("load what save wrote");
    assert_eq!(tool.classifier().render_tree(), loaded.classifier().render_tree(), "same tree and feature names");
    let w = by_name("AMG2006").unwrap();
    let rcfg = RunConfig::new(32, 4, Input::Medium);
    let a = tool.analyze(w, &rcfg);
    let b = loaded.analyze(w, &rcfg);
    assert_eq!(a.detection.mode(), b.detection.mode());
    assert_eq!(a.detection.contended_channels, b.detection.contended_channels);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_batch_matches_single_analyses_in_order() {
    let tool = DrBw::builder().training_set(TrainingSet::Quick).threads(2).build().expect("quick grid trains");
    let sc = by_name("Streamcluster").unwrap();
    let sw = by_name("Swaptions").unwrap();
    let r1 = RunConfig::new(32, 4, Input::Medium);
    let r2 = RunConfig::new(16, 2, Input::Medium);
    let cases = [Case::new(sc, &r1), Case::new(sw, &r2), Case::new(sc, &r2)];
    let batch = tool.analyze_batch(&cases);
    assert_eq!(batch.len(), cases.len());
    for (case, got) in cases.iter().zip(&batch) {
        let solo = tool.analyze(case.workload, case.rcfg);
        assert_eq!(got.profile.samples.len(), solo.profile.samples.len());
        assert_eq!(got.detection.mode(), solo.detection.mode());
        assert_eq!(got.detection.contended_channels, solo.detection.contended_channels);
        assert_eq!(got.diagnosis().overall.len(), solo.diagnosis().overall.len());
    }
}

#[test]
fn malformed_input_surfaces_typed_errors_not_panics() {
    let dir = scratch_dir("errors");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.model");
    std::fs::write(&bad, "not a model").unwrap();
    assert!(matches!(DrBw::load(&bad), Err(DrbwError::ModelFormat(_))));
    assert!(matches!(DrBw::load(dir.join("absent.model")), Err(DrbwError::Io(_))));
    std::fs::write(&bad, "drbw-classifier v1\nfeature x\n").unwrap();
    assert!(matches!(DrBw::load(&bad), Err(DrbwError::FeatureArity { expected: 13, got: 1 })));
    assert!(matches!(
        DrBw::builder().training_set(TrainingSet::Custom(vec![])).build(),
        Err(DrbwError::EmptyTrainingSet)
    ));
    assert!(matches!(Mode::try_from(9), Err(DrbwError::InvalidClassIndex(9))));
    std::fs::remove_dir_all(&dir).ok();
}
