//! End-to-end checks on the Table 1 benchmark suite: every model compiles
//! through the AccMoS pipeline, runs, and agrees with the interpretive
//! reference engine.

use accmos::{AccMoS, Engine as _, NormalEngine, RunOptions, SimOptions};
use accmos_ir::{CoverageKind, DiagnosticKind, SimulationReport};
use accmos_testgen::random_tests;

/// Run benchmark `name` for `steps` steps through the interpreter and the
/// compiled scalar build on the same seeded stimulus, assert that they
/// agree on digest, final outputs, coverage bitmaps, diagnostics and the
/// signal log, and return the compiled report.
fn assert_matches_reference(name: &str, steps: u64, seed: u64) -> SimulationReport {
    let model = accmos_models::by_name(name);
    let pre = accmos::preprocess(&model).unwrap();
    let tests = random_tests(&pre, 32, seed);

    let interp = NormalEngine::new().run(&pre, &tests, &SimOptions::steps(steps));
    let pipeline = AccMoS::new().without_cache();
    let sim = pipeline.prepare(&model).unwrap_or_else(|e| panic!("{name}: {e}"));
    let compiled = sim.run(steps, &tests, &RunOptions::default()).unwrap();

    assert_eq!(interp.output_digest, compiled.output_digest, "{name}: digest");
    assert_eq!(interp.final_outputs, compiled.final_outputs, "{name}: outputs");
    assert!(interp.coverage.is_some(), "{name}: coverage");
    assert_eq!(interp.coverage, compiled.coverage, "{name}: coverage bitmaps");
    assert_eq!(interp.diagnostics, compiled.diagnostics, "{name}: diagnostics");
    assert_eq!(interp.signal_log, compiled.signal_log, "{name}: signal log");
    compiled
}

/// Interpreter and generated C agree on digests, coverage and diagnostics
/// for real benchmark models (which include f64-parameterised actors:
/// saturations, rate limiters, sine/ramp sources).
#[test]
fn benchmarks_match_reference_engine() {
    for name in ["CSEV", "SPV", "TWC", "LEDLC"] {
        assert_matches_reference(name, 200, 0xACC);
    }
}

/// The big models (LANS 570 actors, RAC 667 actors) have the most
/// `Model_Exe` chunks (RAC 11): they compile, run end to end with
/// plausible coverage, and agree with the interpreter.
#[test]
fn large_benchmarks_compile_and_run() {
    for name in ["LANS", "RAC", "CPUT", "FMTM", "TCP", "UTPC"] {
        let r = assert_matches_reference(name, 100, 7);
        assert_eq!(r.steps, 100, "{name}");
        let actor_pct = r.coverage.unwrap().percent(CoverageKind::Actor);
        assert!(
            actor_pct > 20.0 && actor_pct <= 100.0,
            "{name}: implausible actor coverage {actor_pct}"
        );
    }
}

/// The CSEV fault variants reproduce the paper's case study qualitatively:
/// the quantity fault takes many steps to surface (long-run wrap), the
/// power fault fires immediately (static downcast).
#[test]
fn csev_case_study_faults_detected() {
    use accmos_models::{csev_variant, CsevFault};

    // Fault 1: wrap on overflow in the quantity accumulator.
    let model = csev_variant(CsevFault::Quantity);
    let pre = accmos::preprocess(&model).unwrap();
    let tests = accmos_testgen::random_tests(&pre, 64, 1);
    let sim = AccMoS::new().without_cache().prepare(&model).unwrap();
    let r = sim
        .run(3_000_000, &tests, &RunOptions { stop_on_diagnostic: true, ..Default::default() })
        .unwrap();
    assert!(r.has_diagnostic(DiagnosticKind::WrapOnOverflow), "{r}");

    // Fault 2: downcast on the int16 power path, detected at the first
    // execution of the faulty actor.
    let model = csev_variant(CsevFault::Power);
    let pre = accmos::preprocess(&model).unwrap();
    let tests = accmos_testgen::random_tests(&pre, 64, 1);
    let sim = AccMoS::new().without_cache().prepare(&model).unwrap();
    let r = sim
        .run(100_000, &tests, &RunOptions { stop_on_diagnostic: true, ..Default::default() })
        .unwrap();
    let down = r.first_diagnostic(DiagnosticKind::Downcast).expect("downcast detected");
    assert!(down.first_step < 100, "downcast should fire near step 0, got {}", down.first_step);
}
