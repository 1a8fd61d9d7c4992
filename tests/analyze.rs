//! Static-analysis integration: the interval fixpoint converges on every
//! Table 1 benchmark, and instrumentation pruning is *observationally
//! free* — a pruned build and an unpruned build of the same model agree
//! bit-for-bit on digests, outputs, diagnostics and coverage bitmaps for
//! any stimulus, because only checks with a proof of impossibility are
//! dropped.

use accmos::{AccMoS, CodegenOptions, RunOptions};
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

/// The acceptance sweep: across all ten benchmarks and several stimulus
/// seeds, the `prune_proven_safe` build must be indistinguishable from
/// the full-instrumentation build, and at least one benchmark must
/// actually drop a diagnosis site, or the whole feature is vacuous.
#[test]
fn pruned_and_unpruned_builds_agree_bit_for_bit() {
    let mut pruned_total = 0usize;
    for (name, _, _) in accmos_models::TABLE1 {
        let model = accmos_models::by_name(name);
        let pre = accmos::preprocess(&model).unwrap();
        let pruned_sim = AccMoS::new().prepare(&model).unwrap();
        let unpruned_opts =
            CodegenOptions { prune_proven_safe: false, ..CodegenOptions::accmos() };
        let unpruned_sim = AccMoS::new().with_codegen(unpruned_opts).prepare(&model).unwrap();
        assert_eq!(
            unpruned_sim.program().pruned_sites,
            0,
            "{name}: pruning disabled must emit every applicable check"
        );
        assert!(
            pruned_sim.program().diag_sites.len() + pruned_sim.program().pruned_sites
                == unpruned_sim.program().diag_sites.len(),
            "{name}: pruned + kept sites must account for the full plan"
        );
        pruned_total += pruned_sim.program().pruned_sites;

        for seed in [1u64, 0xACC, 998_877] {
            let tests = random_tests(&pre, 32, seed);
            let opts = RunOptions::default();
            let a = pruned_sim.run(150, &tests, &opts).unwrap();
            let b = unpruned_sim.run(150, &tests, &opts).unwrap();
            assert_eq!(a.output_digest, b.output_digest, "{name} seed {seed}: digest");
            assert_eq!(a.final_outputs, b.final_outputs, "{name} seed {seed}: outputs");
            assert_eq!(a.diagnostics, b.diagnostics, "{name} seed {seed}: diagnostics");
            assert!(a.coverage.is_some(), "{name} seed {seed}: coverage");
            assert_eq!(a.coverage, b.coverage, "{name} seed {seed}: coverage bitmaps");
        }
        pruned_sim.clean();
        unpruned_sim.clean();
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
