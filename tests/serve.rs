//! In-process (dylib) execution equivalence: the `accmos serve` fast
//! path must be observationally identical to the subprocess engine.
//!
//! Every Table 1 benchmark is compiled twice from the same generated
//! program — once as the supervised executable, once as the shared
//! object the daemon loads — and run over identical stimulus at lane
//! widths 1 and 4. Digest, final outputs, step count, diagnostics,
//! coverage, signal log and the per-lane sub-reports must all match
//! exactly: the dispatch mechanism is allowed to change, the simulation
//! is not.

#![cfg(unix)]

use accmos::{AccMoS, BuildCache, Compiler, DylibRunner, OptLevel, RunOptions};
use std::path::PathBuf;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("accmos-serve-eq-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn dylib_runs_match_subprocess_runs_on_every_benchmark() {
    let dir = TempDir::new("sweep");
    let cache = BuildCache::at(dir.0.join("cache"));
    let steps = 400;

    for (name, _, _) in accmos_models::TABLE1 {
        for lanes in [1usize, 4] {
            let model = accmos_models::by_name(name);
            let pipeline = AccMoS::new().with_cache(cache.clone());
            let pre = accmos::preprocess(&model)
                .unwrap_or_else(|e| panic!("{name}: preprocess: {e}"));
            let (tests, lane_tests) =
                accmos::fuzz::lane_stimulus(&pre, 8, 0xACC5 ^ lanes as u64, lanes);
            let opts = RunOptions { lane_tests, ..RunOptions::default() };

            let sim = pipeline
                .prepare(&model)
                .unwrap_or_else(|e| panic!("{name} lanes={lanes}: prepare: {e}"));
            let sub = sim
                .run(steps, &tests, &opts)
                .unwrap_or_else(|e| panic!("{name} lanes={lanes}: subprocess run: {e}"));

            let compiler = Compiler::detect()
                .unwrap()
                .with_opt(OptLevel::O3)
                .with_cache(cache.clone());
            let dylib = compiler
                .compile_shared(sim.program())
                .unwrap_or_else(|e| panic!("{name} lanes={lanes}: compile_shared: {e}"));
            let dy = DylibRunner::for_dylib(&dylib)
                .run(steps, &tests, &opts, None)
                .unwrap_or_else(|e| panic!("{name} lanes={lanes}: dylib run: {e}"));
            let report = dy.report;

            let tag = format!("{name} lanes={lanes}");
            assert_eq!(report.output_digest, sub.output_digest, "{tag}: digest");
            assert_eq!(report.steps, sub.steps, "{tag}: steps");
            assert_eq!(report.final_outputs, sub.final_outputs, "{tag}: final outputs");
            assert_eq!(report.diagnostics, sub.diagnostics, "{tag}: diagnostics");
            assert_eq!(report.coverage, sub.coverage, "{tag}: coverage");
            assert_eq!(report.signal_log, sub.signal_log, "{tag}: signal log");
            assert_eq!(
                report.lane_reports.len(),
                sub.lane_reports.len(),
                "{tag}: lane report count"
            );
            for (i, (dl, sl)) in
                report.lane_reports.iter().zip(sub.lane_reports.iter()).enumerate()
            {
                assert_eq!(dl.output_digest, sl.output_digest, "{tag}: lane {i} digest");
                assert_eq!(dl.diagnostics, sl.diagnostics, "{tag}: lane {i} diagnostics");
                assert_eq!(dl.final_outputs, sl.final_outputs, "{tag}: lane {i} outputs");
                assert_eq!(dl.signal_log, sl.signal_log, "{tag}: lane {i} signal log");
            }

        }
    }
}
