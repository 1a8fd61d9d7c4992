//! Lane-parallel differential testing: a lane-N simulator evaluating N
//! test vectors in one process must be bit-identical, lane for lane, to
//! N independent scalar runs of the same compiled model — per-lane
//! output digests and diagnostics, the FNV fold that forms the
//! aggregate digest, and the OR-reduced coverage union.
//!
//! The scalar simulator is the ground truth here (it is itself checked
//! against the interpretive engine in `differential.rs` and
//! `benchmarks_e2e.rs`), so any divergence pins the blame on the lane
//! codegen path: the structure-of-arrays state layout, the per-lane
//! stimulus plumbing, or the lane-blocked driver loop.

mod common;

use accmos::{AccMoS, NormalEngine, RunOptions, SimOptions};
use accmos_ir::{CoverageKind, Model, OutputDigest, TestVectors};
use accmos_testgen::random_tests;
use common::chain_model;

/// Distinct full-range random stimuli, one table per lane.
fn lane_stimuli(
    pre: &accmos::PreprocessedModel,
    lanes: usize,
    seed: u64,
) -> Vec<TestVectors> {
    (0..lanes as u64)
        .map(|lane| random_tests(pre, 16, seed.wrapping_add(lane)))
        .collect()
}

/// Run the lane-`lanes` build once per seed and the scalar build `lanes`
/// times on the same stimuli; assert lane-for-lane equality.
fn check_model(model: &Model, seeds: &[u64], widths: &[usize], steps: u64) {
    let name = &model.name;
    let pre = accmos::preprocess(model).unwrap();
    let scalar = AccMoS::new().prepare(model).unwrap();

    for &lanes in widths {
        let lane_sim = AccMoS::new().with_lanes(lanes).prepare(model).unwrap();
        for &seed in seeds {
            let stimuli = lane_stimuli(&pre, lanes, seed);
            let opts = RunOptions {
                lane_tests: stimuli[1..].to_vec(),
                ..RunOptions::default()
            };
            let lane_run = lane_sim.run(steps, &stimuli[0], &opts).unwrap();
            assert_eq!(lane_run.lane_width(), lanes as u64, "{name}: lane width");

            let mut fold = OutputDigest::new();
            for (lane, tests) in stimuli.iter().enumerate() {
                let solo = scalar.run(steps, tests, &RunOptions::default()).unwrap();
                let ctx = format!("{name} seed {seed} lanes {lanes} lane {lane}");
                let in_lane = &lane_run.lane_reports[lane];
                assert_eq!(in_lane.output_digest, solo.output_digest, "{ctx}: digest");
                assert_eq!(in_lane.diagnostics, solo.diagnostics, "{ctx}: diagnostics");
                assert_eq!(in_lane.final_outputs, solo.final_outputs, "{ctx}: outputs");
                fold.write_u64(solo.output_digest);

                // The shared coverage bitmap is an OR across lanes, so it
                // dominates every individual run without exceeding the
                // instrumented total.
                let lcov = lane_run.coverage.as_ref().unwrap();
                let scov = solo.coverage.as_ref().unwrap();
                for kind in CoverageKind::ALL {
                    let (l, s) = (lcov.counts(kind), scov.counts(kind));
                    assert_eq!(l.total, s.total, "{ctx}: {kind} instrumented points");
                    assert!(
                        l.covered >= s.covered,
                        "{ctx}: {kind} union {} lost points vs scalar {}",
                        l.covered,
                        s.covered
                    );
                }
            }
            assert_eq!(
                lane_run.output_digest,
                fold.finish(),
                "{name} seed {seed} lanes {lanes}: aggregate digest is not the \
                 FNV fold of the per-lane digests"
            );
        }
        lane_sim.clean();
    }
    scalar.clean();
}

// The full Table 1 suite, two seeds, every lane width {2, 4, 8} — split
// into three tests so the per-model compiles spread across test threads.

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
/// structs and long schedules; shorter horizons keep the run cost in
/// bounds, the compile cost is cached after the first CI pass.
#[test]
fn large_models_lane_runs_match_scalar_runs() {
    for name in ["LANS", "RAC"] {
        let model = accmos_models::by_name(name);
        check_model(&model, &[7, 0xACC], &[2, 4, 8], 48);
    }
}

/// The OR-reduced coverage of a lane run equals the exact union of the
/// per-lane bitmaps, computed independently with the interpretive
/// engine. Counts alone cannot express a union, so this is the check
/// that the lanes share one bitmap rather than overwriting each other.
#[test]
fn lane_coverage_is_exact_bitmap_union() {
    for name in ["CSEV", "SPV"] {
        let model = accmos_models::by_name(name);
        let pre = accmos::preprocess(&model).unwrap();
        let lanes = 4;
        let stimuli = lane_stimuli(&pre, lanes, 0xACC);
        let steps = 64;

        let mut union: Option<accmos_ir::CoverageBitmaps> = None;
        for tests in &stimuli {
            let (_, bm) =
                NormalEngine::new().run_with_bitmaps(&pre, tests, &SimOptions::steps(steps));
            match &mut union {
                Some(u) => u.merge(&bm),
                None => union = Some(bm),
            }
        }
        let union = union.unwrap();

        let lane_sim = AccMoS::new().with_lanes(lanes).prepare(&model).unwrap();
        let opts = RunOptions {
            lane_tests: stimuli[1..].to_vec(),
            ..RunOptions::default()
        };
        let lane_run = lane_sim.run(steps, &stimuli[0], &opts).unwrap();
        lane_sim.clean();

        let lcov = lane_run.coverage.as_ref().unwrap();
        for kind in CoverageKind::ALL {
            assert_eq!(
                lcov.counts(kind).covered,
                union.bitmap(kind).count_ones(),
                "{name}: {kind} union"
            );
        }
    }
}

/// A lane run must present exactly `lanes - 1` extra stimulus tables;
/// anything else is rejected before the simulator is even spawned.
#[test]
fn lane_stimulus_count_is_validated() {
    let model = accmos_models::by_name("SPV");
    let pre = accmos::preprocess(&model).unwrap();
    let tests = random_tests(&pre, 8, 1);

    let lane_sim = AccMoS::new().with_lanes(4).prepare(&model).unwrap();
    // Too few lane tables.
    let short = RunOptions { lane_tests: vec![tests.clone()], ..RunOptions::default() };
    assert!(lane_sim.run(16, &tests, &short).is_err(), "1 extra table for 4 lanes");
    // Scalar build refuses lane stimuli.
    let scalar = AccMoS::new().prepare(&model).unwrap();
    let extra = RunOptions { lane_tests: vec![tests.clone()], ..RunOptions::default() };
    assert!(scalar.run(16, &tests, &extra).is_err(), "lane tables on a scalar build");
    lane_sim.clean();
    scalar.clean();
}
