//! Static-analysis integration: the interval fixpoint converges on every
//! Table 1 benchmark, and instrumentation pruning is *observationally
//! free* — a pruned build and an unpruned build of the same model agree
//! bit-for-bit on digests, outputs, diagnostics and coverage counts for
//! any stimulus, because only checks with a proof of impossibility are
//! dropped.

use accmos::{AccMoS, CodegenOptions, RunOptions};
use accmos_ir::CoverageKind;
use accmos_testgen::random_tests;

#[test]
fn fixpoint_converges_on_every_benchmark() {
    for (name, _, _) in accmos_models::TABLE1 {
        let model = accmos_models::by_name(name);
        let pre = accmos::preprocess(&model).unwrap();
        let analysis = accmos::analyze(&pre);
        assert!(
            analysis.converged(),
            "{name}: interval fixpoint did not converge in {} pass(es)",
            analysis.iterations()
        );
    }
}

/// The acceptance sweep: across all ten benchmarks, lane widths {1, 4}
/// and several stimulus seeds, the `prune_proven_safe` build must be
/// indistinguishable from the full-instrumentation build — per-lane
/// digests included — and at least one benchmark must actually drop a
/// diagnosis site, or the whole feature is vacuous.
#[test]
fn pruned_and_unpruned_builds_agree_bit_for_bit() {
    let mut pruned_total = 0usize;
    for (name, _, _) in accmos_models::TABLE1 {
        let model = accmos_models::by_name(name);
        let pre = accmos::preprocess(&model).unwrap();
        for lanes in [1usize, 4] {
            let ctx = format!("{name} lanes {lanes}");
            let pruned_sim = AccMoS::new().with_lanes(lanes).prepare(&model).unwrap();
            let unpruned_opts = CodegenOptions {
                prune_proven_safe: false,
                ..CodegenOptions::accmos().lanes(lanes)
            };
            let unpruned_sim = AccMoS::new().with_codegen(unpruned_opts).prepare(&model).unwrap();
            assert_eq!(
                unpruned_sim.program().pruned_sites,
                0,
                "{ctx}: pruning disabled must emit every applicable check"
            );
            assert!(
                pruned_sim.program().diag_sites.len() + pruned_sim.program().pruned_sites
                    == unpruned_sim.program().diag_sites.len(),
                "{ctx}: pruned + kept sites must account for the full plan"
            );
            pruned_total += pruned_sim.program().pruned_sites;

            for seed in [1u64, 0xACC, 998_877] {
                let tests = random_tests(&pre, 32, seed);
                let opts = RunOptions {
                    lane_tests: (1..lanes as u64)
                        .map(|l| random_tests(&pre, 32, seed.wrapping_add(l)))
                        .collect(),
                    ..RunOptions::default()
                };
                let a = pruned_sim.run(150, &tests, &opts).unwrap();
                let b = unpruned_sim.run(150, &tests, &opts).unwrap();
                assert_eq!(a.output_digest, b.output_digest, "{ctx} seed {seed}: digest");
                assert_eq!(a.final_outputs, b.final_outputs, "{ctx} seed {seed}: outputs");
                assert_eq!(a.diagnostics, b.diagnostics, "{ctx} seed {seed}: diagnostics");
                assert_eq!(
                    a.lane_reports.len(),
                    b.lane_reports.len(),
                    "{ctx} seed {seed}: lane report count"
                );
                for (lane, (la, lb)) in a.lane_reports.iter().zip(&b.lane_reports).enumerate() {
                    assert_eq!(
                        la.output_digest, lb.output_digest,
                        "{ctx} seed {seed}: lane {lane} digest"
                    );
                }
                let (ca, cb) = (a.coverage.unwrap(), b.coverage.unwrap());
                for kind in CoverageKind::ALL {
                    assert_eq!(ca.counts(kind), cb.counts(kind), "{ctx} seed {seed}: {kind}");
                    // Unsatisfiable points are a pruned-build side channel;
                    // they must never exceed the uncovered remainder.
                    assert!(
                        ca.unsatisfiable(kind) <= ca.counts(kind).total - ca.counts(kind).covered,
                        "{ctx} seed {seed}: {kind} unsat over-claims"
                    );
                    assert!(
                        ca.reachable_percent(kind) >= ca.percent(kind) - 1e-9,
                        "{ctx} seed {seed}: {kind} reachable percent regressed"
                    );
                }
            }
            pruned_sim.clean();
            unpruned_sim.clean();
        }
    }
    assert!(
        pruned_total >= 1,
        "no benchmark dropped a single diagnosis site; pruning is vacuous"
    );
}

/// The analyzer itself never flags a benchmark at error severity — the
/// CI gate (`accmos analyze --deny error`) relies on this staying true.
#[test]
fn benchmarks_are_free_of_error_findings() {
    use accmos::Severity;
    for (name, _, _) in accmos_models::TABLE1 {
        let model = accmos_models::by_name(name);
        let pre = accmos::preprocess(&model).unwrap();
        let analysis = accmos::analyze(&pre);
        assert!(
            analysis.max_severity().is_none_or(|s| s < Severity::Error),
            "{name}: error-severity findings: {:?}",
            analysis.findings()
        );
    }
}
