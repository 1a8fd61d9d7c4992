//! Profiling neutrality: a simulator built with `--profile` must produce
//! bit-identical results to the unprofiled build — same output digest
//! (per lane and aggregate), same diagnostics, same coverage counts. The
//! instrumentation only reads the monotonic clock and bumps counters; it
//! never touches model state, so any divergence here means a profiling
//! site leaked into the semantics (e.g. a site placed inside a fused
//! lane loop perturbing auto-vectorized evaluation order).
//!
//! The sweep covers the full Table 1 suite at lane widths 1 and 4, plus
//! a synthetic straight-line chain that forces the segmented execution
//! shape so the shared `fused:` segment sites get exercised (the real
//! benchmarks are branchy enough that they all pick the lane-blocked
//! shape with per-actor sites).

use accmos::{AccMoS, RunOptions};
use accmos_ir::{ActorKind, BitOp, CoverageKind, DataType, Model, ModelBuilder, TestVectors};
use accmos_testgen::random_tests;

/// Run the model twice — plain and profiled — and assert the reports are
/// observationally identical apart from the profile itself.
fn assert_profile_neutral(model: &Model, lanes: usize, steps: u64, seed: u64) {
    let pre = accmos::preprocess(model).unwrap();
    let tests = random_tests(&pre, 8, seed);
    let lane_tests: Vec<TestVectors> = (1..lanes as u64)
        .map(|lane| random_tests(&pre, 8, seed.wrapping_add(lane)))
        .collect();
    let opts = RunOptions { lane_tests, ..RunOptions::default() };

    let plain_sim = AccMoS::new().with_lanes(lanes).prepare(model).unwrap();
    let plain = plain_sim.run(steps, &tests, &opts).unwrap();
    plain_sim.clean();

    let base = AccMoS::new().with_lanes(lanes);
    let copts = base.codegen_options().clone().with_profile();
    let prof_sim = base.with_codegen(copts).prepare(model).unwrap();
    let prof = prof_sim.run(steps, &tests, &opts).unwrap();
    prof_sim.clean();

    let ctx = format!("{} lanes {lanes}", model.name);
    assert_eq!(plain.output_digest, prof.output_digest, "{ctx}: aggregate digest");
    assert_eq!(plain.diagnostics, prof.diagnostics, "{ctx}: diagnostics");
    assert_eq!(plain.final_outputs, prof.final_outputs, "{ctx}: outputs");
    assert_eq!(
        plain.lane_reports.len(),
        prof.lane_reports.len(),
        "{ctx}: lane report count"
    );
    for (lane, (p, f)) in plain.lane_reports.iter().zip(&prof.lane_reports).enumerate() {
        assert_eq!(p.output_digest, f.output_digest, "{ctx}: lane {lane} digest");
        assert_eq!(p.diagnostics, f.diagnostics, "{ctx}: lane {lane} diagnostics");
    }
    let (pc, fc) = (plain.coverage.unwrap(), prof.coverage.unwrap());
    for kind in CoverageKind::ALL {
        assert_eq!(pc.counts(kind), fc.counts(kind), "{ctx}: {kind} coverage");
    }

    // Only the profiled build reports sites, and the run actually hit
    // some of them. (Individual sites may legitimately stay at zero
    // calls: a group-conditional actor whose guard never fired.)
    assert!(plain.profile.is_empty(), "{ctx}: unprofiled build emitted PROF records");
    assert!(!prof.profile.is_empty(), "{ctx}: profiled build emitted no PROF records");
    let calls: u64 = prof.profile.iter().map(|s| s.calls).sum();
    assert!(calls > 0, "{ctx}: no profiling site was ever invoked");
}

#[test]
fn profiling_is_neutral_for_reference_models() {
    for name in ["CSEV", "SPV", "TWC", "LEDLC"] {
        for lanes in [1, 4] {
            assert_profile_neutral(&accmos_models::by_name(name), lanes, 64, 0xACC);
        }
    }
}

#[test]
fn profiling_is_neutral_for_mid_models() {
    for name in ["CPUT", "FMTM", "TCP", "UTPC"] {
        for lanes in [1, 4] {
            assert_profile_neutral(&accmos_models::by_name(name), lanes, 64, 0xACC);
        }
    }
}

#[test]
fn profiling_is_neutral_for_large_models() {
    for name in ["LANS", "RAC"] {
        for lanes in [1, 4] {
            assert_profile_neutral(&accmos_models::by_name(name), lanes, 48, 7);
        }
    }
}

/// A straight-line bitwise chain: every actor is branch-free *and*
/// diagnosis-free (bit operations cannot overflow, unlike Gain/Sum whose
/// wrap checks keep them out of fused segments on full-range inputs), so
/// the lane shape heuristic (fused share >= 75%) picks the per-step
/// segmented form and the whole schedule lands in one fused lane loop.
fn chain_model(n: usize) -> Model {
    let mut b = ModelBuilder::new("Chain");
    b.inport("In", DataType::U32);
    let mut prev = "In".to_string();
    for i in 0..n {
        let name = format!("A{i}");
        b.actor(&name, ActorKind::Bitwise { op: BitOp::Not });
        b.connect((prev.as_str(), 0), (name.as_str(), 0));
        prev = name;
    }
    b.outport("Out", DataType::U32);
    b.connect((prev.as_str(), 0), ("Out", 0));
    b.build().expect("chain model")
}

/// The segmented lane shape times whole fused segments (one shared site
/// outside the lane loop) instead of individual actors — and stays
/// digest-neutral doing it.
#[test]
fn fused_segments_get_shared_profile_sites() {
    let model = chain_model(30);
    assert_profile_neutral(&model, 4, 256, 11);

    let base = AccMoS::new().with_lanes(4);
    let copts = base.codegen_options().clone().with_profile();
    let pipeline = base.with_codegen(copts);
    let program = pipeline.generate(&model).unwrap();
    assert!(
        program.fused_actors * 4 >= program.total_actors * 3,
        "chain model no longer selects the segmented shape ({}/{} fused)",
        program.fused_actors,
        program.total_actors
    );

    let pre = accmos::preprocess(&model).unwrap();
    let tests = random_tests(&pre, 8, 11);
    let lane_tests: Vec<TestVectors> =
        (1..4u64).map(|lane| random_tests(&pre, 8, 11 + lane)).collect();
    let sim = pipeline.prepare(&model).unwrap();
    let report = sim
        .run(256, &tests, &RunOptions { lane_tests, ..RunOptions::default() })
        .unwrap();
    sim.clean();

    let fused: Vec<_> =
        report.profile.iter().filter(|s| s.actor.starts_with("fused:")).collect();
    assert!(
        !fused.is_empty(),
        "segmented shape produced no fused: sites; got {:?}",
        report.profile.iter().map(|s| &s.actor).collect::<Vec<_>>()
    );
    for site in &fused {
        // One call per step — the segment is timed outside the lane loop.
        assert_eq!(site.calls, 256, "fused site {} call count", site.actor);
        // `fused:<first-actor>+<n>` names the segment it covers.
        let (_, count) = site.actor.rsplit_once('+').expect("segment name arity");
        assert!(count.parse::<usize>().unwrap() >= 4, "segment below minimum run");
    }
}
