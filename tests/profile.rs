//! Profiling neutrality: a simulator built with `--profile` must produce
//! bit-identical results to the unprofiled build — same output digest
//! (per lane and aggregate), same diagnostics, same coverage bitmaps. The
//! instrumentation only reads the monotonic clock and bumps counters; it
//! never touches model state, so any divergence here means a profiling
//! site leaked into the semantics.
//!
//! The sweep covers the full Table 1 suite at lane widths 1 and 4, plus
//! a synthetic straight-line chain at lane width 4 that pins the lane
//! profile contract: one site per actor, its counters summed over the
//! lanes, so each is called once per lane per step.

mod common;

use accmos::{AccMoS, RunOptions};
use accmos_ir::{Model, TestVectors};
use accmos_testgen::random_tests;
use common::chain_model;

/// Run the model twice — plain and profiled — and assert the reports are
/// observationally identical apart from the profile itself.
fn assert_profile_neutral(model: &Model, lanes: usize, steps: u64, seed: u64) {
    let pre = accmos::preprocess(model).unwrap();
    let tests = random_tests(&pre, 8, seed);
    let lane_tests: Vec<TestVectors> = (1..lanes as u64)
        .map(|lane| random_tests(&pre, 8, seed.wrapping_add(lane)))
        .collect();
    let opts = RunOptions { lane_tests, ..RunOptions::default() };

    let plain_sim = AccMoS::new().prepare(model).unwrap();
    let plain = plain_sim.run(steps, &tests, &opts).unwrap();
    plain_sim.clean();

    let base = AccMoS::new();
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
    assert!(plain.coverage.is_some(), "{ctx}: coverage");
    assert_eq!(plain.coverage, prof.coverage, "{ctx}: coverage bitmaps");

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

/// A lane run sums the profile counters of its lanes, so it profiles
/// exactly like a scalar run: one site per actor, named by its path key,
/// invoked `steps × lanes` times — and it stays digest-neutral doing it.
#[test]
fn lane_builds_profile_every_actor_once_per_lane_step() {
    let (lanes, steps) = (4usize, 256u64);
    let model = chain_model(30);
    assert_profile_neutral(&model, lanes, steps, 11);

    let pre = accmos::preprocess(&model).unwrap();
    let tests = random_tests(&pre, 8, 11);
    let lane_tests: Vec<TestVectors> =
        (1..lanes as u64).map(|lane| random_tests(&pre, 8, 11 + lane)).collect();
    let base = AccMoS::new();
    let copts = base.codegen_options().clone().with_profile();
    let sim = base.with_codegen(copts).prepare(&model).unwrap();
    let report = sim
        .run(steps, &tests, &RunOptions { lane_tests, ..RunOptions::default() })
        .unwrap();
    sim.clean();

    let keys: Vec<String> = pre.flat.ordered_actors().map(|a| a.path.key()).collect();
    let sites: Vec<&str> = report.profile.iter().map(|s| s.actor.as_str()).collect();
    assert_eq!(sites, keys, "one site per actor, in schedule order");
    for site in &report.profile {
        assert!(!site.actor.starts_with("fused:"), "segment site {}", site.actor);
        assert_eq!(site.calls, steps * lanes as u64, "site {} call count", site.actor);
    }
}
