//! Batch-vs-serial equivalence over the full Table 1 benchmark suite.
//!
//! Acceptance criteria of the batch/caching work: a `BatchRunner` pass
//! over all ten benchmark models must produce exactly the output digests
//! a one-at-a-time serial loop produces, and a shared `BuildCache` must
//! let the batch reuse every executable the serial pass compiled.

use accmos::{AccMoS, BatchJob, BatchRunner, BuildCache, RunOptions};
use accmos_ir::TestVectors;
use accmos_models::TABLE1;
use accmos_testgen::random_tests;

const STEPS: u64 = 500;
const SEED: u64 = 0xACC5;

fn stimulus(model: &accmos_ir::Model) -> TestVectors {
    let pre = accmos::preprocess(model).expect("benchmark preprocesses");
    random_tests(&pre, 32, SEED)
}

#[test]
fn batch_over_table1_matches_serial_digests() {
    let cache_root = std::env::temp_dir()
        .join(format!("accmos-table1-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_root);
    let cache = BuildCache::at(&cache_root);
    let pipeline = AccMoS::new().with_cache(cache.clone());

    // Serial reference: every model compiled and run one at a time.
    let mut serial = Vec::new();
    for (name, _, _) in TABLE1 {
        let model = accmos_models::by_name(name);
        let tests = stimulus(&model);
        let sim = pipeline.prepare(&model).expect("serial compile");
        assert!(!sim.cache_hit(), "{name}: first build must be cold");
        let report = sim.run(STEPS, &tests, &RunOptions::default()).expect("serial run");
        serial.push((name, report.output_digest));
    }

    // Batched: identical jobs through the worker pool; the shared cache
    // must satisfy every compile without invoking GCC again.
    let jobs: Vec<BatchJob> = TABLE1
        .iter()
        .map(|(name, _, _)| {
            let model = accmos_models::by_name(name);
            let tests = stimulus(&model);
            BatchJob::model(*name, model, tests, STEPS)
        })
        .collect();
    let report = BatchRunner::new(pipeline).with_workers(4).run(jobs).expect("batch runs");

    assert_eq!(report.summary.jobs, TABLE1.len());
    assert_eq!(report.summary.unique_programs, TABLE1.len());
    assert_eq!(report.summary.failures, 0);
    assert_eq!(
        report.summary.cached_compiles,
        TABLE1.len(),
        "every batch compile should hit the serial pass's cache"
    );
    assert_eq!(report.summary.cold_compiles, 0);

    for (job, (name, digest)) in report.jobs.iter().zip(&serial) {
        assert_eq!(job.label, *name, "submission order preserved");
        let batched = job.report.as_ref().expect("job succeeded");
        assert_eq!(
            batched.output_digest, *digest,
            "{name}: batched digest diverged from serial"
        );
    }

    cache.clear().expect("cache cleanup");
}
