//! Lane differential testing: a lane-N run executes the model's one
//! scalar simulator once per lane and folds the lanes
//! (`SimulationReport::fold_lanes`). Through both compiled dispatch
//! paths — the supervised subprocess (`PreparedSimulation::run`) and the
//! in-process shared object (`DylibRunner`) — it must equal the
//! interpreter's fold of the same lanes: the aggregate digest, each
//! lane's digest, diagnostics, output bits and steps, and coverage
//! bitmaps equal to the exact union of the lanes' bitmaps.
//!
//! The expectations are computed independently of the fold under test:
//! the aggregate digest is the FNV fold of the interpreter's lane
//! digests, and the coverage union ORs the interpreter's lane bitmaps.

mod common;

use accmos::{AccMoS, Compiler, DylibRunner, Engine as _, NormalEngine, OptLevel, RunOptions};
use accmos::{PreprocessedModel, SimOptions};
use accmos_ir::{CoverageBitmaps, CoverageKind, Model, OutputDigest, SimulationReport, TestVectors};
use common::chain_model;

/// What every engine must report for `steps` steps of a lane run over
/// `tests` and `opts.lane_tests`: the interpreter's run of each lane, the
/// FNV fold of their digests and the union of their coverage bitmaps.
struct Expected {
    lanes: Vec<SimulationReport>,
    digest: u64,
    union: CoverageBitmaps,
}

fn expected(
    pre: &PreprocessedModel,
    tests: &TestVectors,
    opts: &RunOptions,
    steps: u64,
) -> Expected {
    let lanes: Vec<SimulationReport> = std::iter::once(tests)
        .chain(&opts.lane_tests)
        .map(|t| NormalEngine::new().run(pre, t, &SimOptions::steps(steps)))
        .collect();
    let mut fold = OutputDigest::new();
    let mut union = pre.coverage.map.new_bitmaps();
    for lane in &lanes {
        fold.write_u64(lane.output_digest);
        union.merge(lane.coverage.as_ref().expect("the interpreter reports coverage"));
    }
    Expected { lanes, digest: fold.finish(), union }
}

/// `got`, a lane run, against the interpreter's lanes and their fold.
fn assert_lane_run(want: &Expected, got: &SimulationReport, ctx: &str) {
    assert_eq!(got.lane_reports.len(), want.lanes.len(), "{ctx}: lane count");
    assert_eq!(got.output_digest, want.digest, "{ctx}: aggregate digest");
    let folded = SimulationReport::fold_lanes(want.lanes.clone());
    assert_eq!(got.output_digest, folded.output_digest, "{ctx}: the interpreter's fold");
    assert_eq!(got.diagnostics, folded.diagnostics, "{ctx}: merged diagnostics");
    assert_eq!(got.steps, folded.steps, "{ctx}: steps");
    for (i, (w, g)) in want.lanes.iter().zip(&got.lane_reports).enumerate() {
        assert_eq!(g.output_digest, w.output_digest, "{ctx} lane {i}: digest");
        assert_eq!(g.diagnostics, w.diagnostics, "{ctx} lane {i}: diagnostics");
        assert_eq!(g.output_bits(), w.output_bits(), "{ctx} lane {i}: outputs");
        assert_eq!(g.steps, w.steps, "{ctx} lane {i}: steps");
    }
    assert_eq!(got.coverage.as_ref(), Some(&want.union), "{ctx}: union bitmaps");
}

/// Lane runs of `model` at every width in `widths` and every seed, through
/// the subprocess and the dylib path, against the interpreter's fold.
fn check_model(model: &Model, seeds: &[u64], widths: &[usize], steps: u64) {
    let name = &model.name;
    let pre = accmos::preprocess(model).unwrap();
    let sim = AccMoS::new().without_cache().prepare(model).unwrap();
    let dylib = Compiler::detect()
        .unwrap()
        .with_opt(OptLevel::O3)
        .without_cache()
        .compile_shared(sim.program())
        .unwrap_or_else(|e| panic!("{name}: compile_shared: {e}"));
    for &lanes in widths {
        for &seed in seeds {
            let (tests, lane_tests) = accmos::fuzz::lane_stimulus(&pre, 16, seed, lanes);
            let opts = RunOptions { lane_tests, ..RunOptions::default() };
            let want = expected(&pre, &tests, &opts, steps);
            let ctx = format!("{name} seed {seed} lanes {lanes}");
            let sub = sim.run(steps, &tests, &opts).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_lane_run(&want, &sub, &format!("{ctx} subprocess"));
            let dy = DylibRunner::for_dylib(&dylib)
                .run(steps, &tests, &opts, None)
                .unwrap_or_else(|e| panic!("{ctx}: dylib: {e}"));
            assert_lane_run(&want, &dy.report, &format!("{ctx} dylib"));
        }
    }
}

// The full Table 1 suite and the chain model, two seeds, lane widths
// {2, 4, 8}, split into three tests so the per-model compiles spread
// across test threads.

/// The reference-engine-verified models, plus a straight-line bitwise
/// chain: a schedule with no branches and no diagnosis checks at all.
#[test]
fn reference_models_lane_runs_match_scalar_runs() {
    for name in ["CSEV", "SPV", "TWC", "LEDLC"] {
        let model = accmos_models::by_name(name);
        check_model(&model, &[0xACC, 0x5EED], &[2, 4, 8], 64);
    }
    check_model(&chain_model(30), &[0xACC, 0x5EED], &[2, 4, 8], 64);
}

/// The mid-size controllers and protocol models.
#[test]
fn mid_models_lane_runs_match_scalar_runs() {
    for name in ["CPUT", "FMTM", "TCP", "UTPC"] {
        let model = accmos_models::by_name(name);
        check_model(&model, &[0xACC, 0x5EED], &[2, 4, 8], 64);
    }
}

/// The big models (LANS 570 actors, RAC 667 actors) exercise wide state
/// and long schedules; shorter horizons keep the run cost in bounds.
#[test]
fn large_models_lane_runs_match_scalar_runs() {
    for name in ["LANS", "RAC"] {
        let model = accmos_models::by_name(name);
        check_model(&model, &[7, 0xACC], &[2, 4, 8], 48);
    }
}

/// The coverage of a lane run is the exact union of its lanes' bitmaps:
/// the compiled run reports the union bitmaps themselves, bit for bit
/// what the interpreter's lanes OR to, and every lane's own bitmap lies
/// inside it.
#[test]
fn lane_coverage_is_exact_bitmap_union() {
    for name in ["CSEV", "SPV"] {
        let model = accmos_models::by_name(name);
        let pre = accmos::preprocess(&model).unwrap();
        let (tests, lane_tests) = accmos::fuzz::lane_stimulus(&pre, 16, 0xACC, 4);
        let opts = RunOptions { lane_tests, ..RunOptions::default() };
        let want = expected(&pre, &tests, &opts, 64);
        let sim = AccMoS::new().without_cache().prepare(&model).unwrap();
        let got = sim.run(64, &tests, &opts).unwrap();
        assert_lane_run(&want, &got, name);
        let union = got.coverage.as_ref().unwrap();
        for (i, lane) in got.lane_reports.iter().enumerate() {
            let own = lane.coverage.as_ref().unwrap();
            for kind in CoverageKind::ALL {
                let mut merged = own.bitmap(kind).clone();
                merged.merge(union.bitmap(kind));
                let ctx = format!("{name} lane {i}: {kind}");
                assert_eq!(&merged, union.bitmap(kind), "{ctx} outside the union");
            }
        }
    }
}
