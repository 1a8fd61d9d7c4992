//! Optimization levels: which level a build compiles at, and that the
//! level never changes a result.
//!
//! The pipeline compiles at `-O1` below `O3_BUDGET` steps × lanes and at
//! `-O3` from there on, and takes a cached `-O3` artifact of the same
//! sources over an `-O1` build. That is only sound if every level
//! simulates bit-identically. The sweep pins it on every Table 1 model
//! (digest, final outputs as bit patterns, steps, coverage counts,
//! diagnostics and per-lane reports); the rule tests pin which level each
//! entry point builds at and what the build cache counts.

use accmos::{
    AccMoS, BatchJob, BatchRunner, BuildCache, CacheStats, OptLevel, RunOptions, O3_BUDGET,
};
use accmos_ir::{ActorKind, DataType, Model, ModelBuilder, Scalar, TestVectors};
use std::path::PathBuf;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("accmos-opt-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn o1_and_o3_builds_simulate_bit_identically_on_every_benchmark() {
    let dir = TempDir::new("sweep");
    let cache = BuildCache::at(&dir.0);
    let cases = accmos_models::TABLE1
        .iter()
        .map(|(name, _, _)| (*name, 1))
        .chain(["SPV", "CSEV", "TWC"].map(|name| (name, 4)));
    for (name, lanes) in cases {
        let model = accmos_models::by_name(name);
        let pre = accmos::preprocess(&model).unwrap();
        let [o1, o3] = [OptLevel::O1, OptLevel::O3].map(|opt| {
            let pipeline = AccMoS::new().with_opt(opt).with_cache(cache.clone());
            let sim = pipeline.prepare(&model).unwrap_or_else(|e| panic!("{name} {opt:?}: {e}"));
            assert_eq!(sim.simulator().opt_level(), opt, "{name}: the pinned level");
            sim
        });
        for seed in [11, 12] {
            let tag = format!("{name} lanes {lanes} seed {seed}");
            let (tests, lane_tests) = accmos::fuzz::lane_stimulus(&pre, 16, seed, lanes);
            let opts = RunOptions { lane_tests, ..RunOptions::default() };
            let a = o1.run(2_000, &tests, &opts).unwrap_or_else(|e| panic!("{tag} -O1: {e}"));
            let b = o3.run(2_000, &tests, &opts).unwrap_or_else(|e| panic!("{tag} -O3: {e}"));
            if let Some(detail) = accmos::fuzz::compare_reports("-O1", &a, "-O3", &b) {
                panic!("{tag}: {detail}");
            }
            assert_eq!(a.lane_reports.len(), b.lane_reports.len(), "{tag}: lane reports");
            for (i, (la, lb)) in a.lane_reports.iter().zip(&b.lane_reports).enumerate() {
                if let Some(detail) = accmos::fuzz::compare_reports("-O1", la, "-O3", lb) {
                    panic!("{tag} lane {i}: {detail}");
                }
            }
        }
        o1.clean();
        o3.clean();
    }
    // A lane run is runs of the scalar artifact: the lane-4 cases hit
    // the builds of their models' scalar cases.
    let stats = cache.stats();
    assert_eq!((stats.misses, stats.hits), (20, 6), "each (model, level) compiled once");
}

/// One gain: cheap enough to run a million steps in a test.
fn tiny(name: &str) -> Model {
    let mut b = ModelBuilder::new(name);
    b.inport("In", DataType::I32);
    b.actor("G", ActorKind::Gain { gain: Scalar::I32(3) });
    b.outport("Out", DataType::I32);
    b.wire("In", "G");
    b.wire("G", "Out");
    b.build().unwrap()
}

fn tests() -> TestVectors {
    TestVectors::constant("In", Scalar::I32(5), 4)
}

/// The ledger records `pipeline` appended since `from`: (level, cache hit).
fn levels(pipeline: &AccMoS, from: usize) -> Vec<(String, bool)> {
    let records = pipeline.ledger().unwrap().read().records;
    records[from..].iter().map(|r| (r.opt.clone(), r.compile_cached)).collect()
}

fn level(opt: &str, cached: bool) -> (String, bool) {
    (opt.to_owned(), cached)
}

#[test]
fn runs_build_at_o1_below_the_budget_and_at_o3_from_it() {
    let dir = TempDir::new("rule");
    let cache = BuildCache::at(&dir.0);
    let pipeline = AccMoS::new().with_cache(cache.clone());
    let model = tiny("Rule");
    let opts = RunOptions::default();
    pipeline.run(&model, O3_BUDGET - 1, &tests(), &opts).unwrap();
    pipeline.run(&model, O3_BUDGET, &tests(), &opts).unwrap();
    assert_eq!(levels(&pipeline, 0), [level("O1", false), level("O3", false)]);
    assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2, evictions: 0 });

    // The budget is steps × lanes: a lane-4 run of a quarter of the
    // budget builds at -O3 too. (A model of its own: these sources'
    // -O3 artifact is cached now, and any run would take it.)
    let model = tiny("RuleLanes");
    let lane_opts = RunOptions { lane_tests: vec![tests(); 3], ..RunOptions::default() };
    pipeline.run(&model, O3_BUDGET / 4 - 1, &tests(), &lane_opts).unwrap();
    pipeline.run(&model, O3_BUDGET / 4, &tests(), &lane_opts).unwrap();
    assert_eq!(levels(&pipeline, 2), [level("O1", false), level("O3", false)]);
}

#[test]
fn a_lane_run_takes_the_cached_scalar_artifact_with_one_hit() {
    let dir = TempDir::new("lanes");
    let cache = BuildCache::at(&dir.0);
    let pipeline = AccMoS::new().with_cache(cache.clone());
    let model = tiny("Lanes");
    pipeline.run(&model, 50, &tests(), &RunOptions::default()).unwrap();
    let before = cache.stats();
    let lane_opts = RunOptions { lane_tests: vec![tests(); 3], ..RunOptions::default() };
    let out = pipeline.run(&model, 50, &tests(), &lane_opts).unwrap();
    assert_eq!(out.report.lane_width(), 4);
    let after = cache.stats();
    assert_eq!((after.hits - before.hits, after.misses - before.misses), (1, 0));
    assert_eq!(levels(&pipeline, 1), [level("O1", true)], "no compile: the scalar artifact ran");
}

#[test]
fn a_short_run_takes_a_cached_o3_build_counting_one_hit() {
    let dir = TempDir::new("prefer");
    let cache = BuildCache::at(&dir.0);
    let pipeline = AccMoS::new().with_cache(cache.clone());
    let model = tiny("Prefer");
    let sim = pipeline.prepare(&model).unwrap();
    assert_eq!(sim.simulator().opt_level(), OptLevel::O3, "prepare has no budget: -O3");
    sim.clean();
    let before = cache.stats();
    let out = pipeline.run(&model, 50, &tests(), &RunOptions::default()).unwrap();
    assert_eq!(out.report.final_outputs[0].1.to_string(), "15");
    let after = cache.stats();
    assert_eq!((after.hits - before.hits, after.misses - before.misses), (1, 0));
    assert_eq!(levels(&pipeline, 0), [level("O3", true)], "no compile: the -O3 artifact ran");
}

#[test]
fn a_rapid_accelerator_pipeline_never_takes_an_o3_build() {
    let dir = TempDir::new("rac");
    let cache = BuildCache::at(&dir.0);
    let model = tiny("Rac");
    // An -O3 artifact of exactly the sources the Rapid Accelerator
    // stand-in generates.
    let o3 = AccMoS::rapid_accelerator().with_opt(OptLevel::O3).with_cache(cache.clone());
    o3.prepare(&model).unwrap().clean();
    let rac = AccMoS::rapid_accelerator().with_cache(cache.clone());
    let sim = rac.prepare(&model).unwrap();
    assert_eq!((sim.simulator().opt_level(), sim.cache_hit()), (OptLevel::O0, false));
    sim.clean();
    rac.run(&model, 50, &tests(), &RunOptions::default()).unwrap();
    assert_eq!(levels(&rac, 0), [level("O0", true)], "the -O0 build, not the -O3 one");
}

#[test]
fn a_batch_group_builds_for_the_sum_of_its_jobs() {
    let dir = TempDir::new("batch");
    let pipeline = AccMoS::new().with_cache(BuildCache::at(&dir.0));
    let runner = BatchRunner::new(pipeline.clone()).with_workers(2);
    let jobs = |name: &str, n: u64| {
        let model = tiny(name);
        (0..n)
            .map(|i| BatchJob::model(format!("{name}{i}"), model.clone(), tests(), O3_BUDGET / 4))
            .collect::<Vec<_>>()
    };
    // Three quarter-budget jobs stay below the budget; four reach it.
    let report = runner.run([jobs("Three", 3), jobs("Four", 4)].concat()).unwrap();
    assert_eq!(report.summary.unique_programs, 2);
    let records = pipeline.ledger().unwrap().read().records;
    let got: Vec<(&str, &str)> =
        records.iter().map(|r| (r.model.as_str(), r.opt.as_str())).collect();
    let want: Vec<(&str, &str)> =
        [("Three", "O1"); 3].into_iter().chain([("Four", "O3"); 4]).collect();
    assert_eq!(got, want);
}
