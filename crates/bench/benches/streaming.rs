//! Criterion: streaming-path costs — per-sample ingestion (window
//! routing + accumulator push + sketch) and window classification at the
//! boundary (the ring's offer/drain cycle is in `benches/ingest.rs`). The
//! detector sits between the sampler and the monitored program, so
//! ingestion must stay cheap relative to the per-sample cost the profiler
//! already charges.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use drbw_core::classifier::ContentionClassifier;
use drbw_core::features::NUM_SELECTED;
use drbw_stream::{StreamConfig, StreamingDetector, WindowConfig};
use mldt::dataset::Dataset;
use mldt::tree::TrainConfig;
use numasim::hierarchy::DataSource;
use numasim::topology::{CoreId, NodeId, ThreadId};
use pebs::alloc::SiteId;
use pebs::sample::MemSample;

fn synth_samples(n: usize) -> Vec<MemSample> {
    (0..n)
        .map(|i| {
            let node = (i % 4) as u8;
            let home = ((i / 4) % 4) as u8;
            MemSample {
                time: i as f64 * 12.5,
                addr: 0x1000_0000 + (i as u64) * 64,
                cpu: CoreId(node as u32 * 8),
                thread: ThreadId((i % 16) as u32),
                node: NodeId(node),
                source: match i % 5 {
                    0 => DataSource::RemoteDram,
                    1 => DataSource::LocalDram,
                    2 => DataSource::Lfb,
                    3 => DataSource::L1,
                    _ => DataSource::L3,
                },
                home: (i % 5 < 3).then_some(NodeId(home)),
                latency: 50.0 + (i % 700) as f64,
                is_write: i % 7 == 0,
            }
        })
        .collect()
}

fn classifier() -> ContentionClassifier {
    let mut d = Dataset::binary(drbw_core::features::selected_names().iter().map(|s| s.to_string()).collect());
    for i in 0..64 {
        let mut row = vec![0.0; NUM_SELECTED];
        let rmc = i % 2 == 0;
        row[5] = if rmc { 500.0 } else { 30.0 };
        row[6] = if rmc { 800.0 + i as f64 } else { 290.0 };
        d.push(row, rmc as usize);
    }
    ContentionClassifier::train(&d, TrainConfig::default())
}

fn ingestion(c: &mut Criterion) {
    let samples = synth_samples(10_000);
    let clf = classifier();
    let mut g = c.benchmark_group("streaming");
    g.throughput(Throughput::Elements(samples.len() as u64));
    // Window length picked so the 10k-sample stream closes ~10 windows:
    // the boundary work (merge + finalize + predict on 12 channels) is
    // amortized into the per-sample figure, as it is online.
    for (label, window) in
        [("tumbling", WindowConfig::tumbling(12_500.0)), ("sliding4", WindowConfig::sliding(12_500.0, 4))]
    {
        g.bench_function(BenchmarkId::new("ingest_10k", label), |b| {
            b.iter(|| {
                let mut det = StreamingDetector::new(clf.clone(), StreamConfig::new(4, window));
                for s in &samples {
                    det.ingest(s, Some(SiteId((s.addr % 31) as u32)));
                }
                det.flush();
                det.metrics().windows_classified
            })
        });
    }
    g.finish();
}

criterion_group!(benches, ingestion);
criterion_main!(benches);
