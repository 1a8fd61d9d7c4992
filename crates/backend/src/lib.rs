//! # accmos-backend
//!
//! Compile-and-execute driver for AccMoS-RS generated simulators: locate
//! the system C compiler, build the generated program (`-fwrapv` at `-O3`,
//! the paper's GCC configuration, or at a level chosen from the build's
//! step budget: `-O1` below [`O3_BUDGET`] steps × lanes, preferring a
//! cached `-O3` artifact, see [`Compiler::for_budget`]), run the
//! executable against a test-vector file, and parse its `ACCMOS:` result
//! protocol back into an [`accmos_ir::SimulationReport`].
//!
//! ## Example
//!
//! ```no_run
//! use accmos_backend::{Compiler, RunOptions};
//! use accmos_codegen::{generate, CodegenOptions};
//! use accmos_ir::{DataType, ModelBuilder, Scalar, TestVectors};
//!
//! let mut b = ModelBuilder::new("M");
//! b.inport("In", DataType::I32);
//! b.outport("Out", DataType::I32);
//! b.wire("In", "Out");
//! let pre = accmos_graph::preprocess(&b.build()?)?;
//! let program = generate(&pre, &CodegenOptions::accmos());
//!
//! let sim = Compiler::detect()?.compile(&program)?;
//! let tests = TestVectors::constant("In", Scalar::I32(7), 1);
//! let report = sim.run(100, &tests, &RunOptions::default())?;
//! assert_eq!(report.steps, 100);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// Unsafe is confined to two FFI sites: `dylib.rs` (dlopen for
// in-process simulator execution) and `supervise.rs` (`pidfd_open` and
// `poll` to wait for a child and its pipes, `wait4` to reap it). Every
// other module stays deny-checked.
#![deny(unsafe_code)]

mod cache;
mod compile;
#[cfg(unix)]
mod dylib;
mod error;
mod lease;
mod protocol;
mod run;
mod supervise;
pub mod telemetry;

pub use cache::{BuildCache, CacheStats};
pub use compile::{budget_level, clean_build_dir, CompiledDylib, Compiler, OptLevel, O3_BUDGET};
#[cfg(unix)]
pub use dylib::{DylibRun, DylibRunner};
pub use error::BackendError;
pub use protocol::parse_report;
pub use run::{CompiledSimulator, RunOptions};
pub use supervise::{Attempt, ExecPolicy, FailureKind, Supervisor};
pub use telemetry::{PhaseMicros, RunLedger, RunRecord, TraceSpan, Tracer};

/// The default state directory shared by the build cache, the run ledger
/// and the persistent quarantine store: `$ACCMOS_CACHE_DIR`, else
/// `$XDG_CACHE_HOME/accmos`, else `$HOME/.cache/accmos`, else a temp-dir
/// fallback.
pub fn default_state_dir() -> std::path::PathBuf {
    cache::default_root()
}

#[cfg(test)]
mod tests {
    use super::*;
    use accmos_codegen::{generate, CodegenOptions};
    use accmos_graph::preprocess;
    use accmos_ir::{ActorKind, DataType, DiagnosticKind, ModelBuilder, Scalar, TestVectors, Value};

    fn compile_and_run(
        build: impl FnOnce(&mut ModelBuilder),
        opts: &CodegenOptions,
        steps: u64,
        tests: &TestVectors,
        run_opts: &RunOptions,
    ) -> accmos_ir::SimulationReport {
        let mut b = ModelBuilder::new("M");
        build(&mut b);
        let pre = preprocess(&b.build().unwrap()).unwrap();
        let program = generate(&pre, opts);
        let sim = Compiler::detect().unwrap().compile(&program).unwrap_or_else(|e| {
            panic!("compile failed: {e}\n----\n{}", program.main_c);
        });
        let report = sim.run(steps, tests, run_opts).unwrap();
        sim.clean();
        report
    }

    #[test]
    fn end_to_end_passthrough() {
        let tests = TestVectors::constant("In", Scalar::I32(7), 1);
        let r = compile_and_run(
            |b| {
                b.inport("In", DataType::I32);
                b.outport("Out", DataType::I32);
                b.wire("In", "Out");
            },
            &CodegenOptions::accmos(),
            10,
            &tests,
            &RunOptions::default(),
        );
        assert_eq!(r.steps, 10);
        assert_eq!(r.final_outputs[0].1, Value::scalar(Scalar::I32(7)));
        let cov = r.coverage.unwrap();
        assert_eq!(cov.percent(accmos_ir::CoverageKind::Actor), 100.0);
    }

    #[test]
    fn end_to_end_figure1_overflow() {
        let mut tests = TestVectors::new();
        let big = i32::MAX / 4;
        tests.push_column("A", DataType::I32, vec![Scalar::I32(big)]);
        tests.push_column("B", DataType::I32, vec![Scalar::I32(big)]);
        let r = compile_and_run(
            |b| {
                b.inport("A", DataType::I32);
                b.inport("B", DataType::I32);
                b.actor("AccA", ActorKind::DiscreteIntegrator { gain: 1.0, init: Scalar::I32(0) });
                b.actor("AccB", ActorKind::DiscreteIntegrator { gain: 1.0, init: Scalar::I32(0) });
                b.actor("Sum", ActorKind::Sum { signs: "++".into() });
                b.outport("Out", DataType::I32);
                b.connect(("A", 0), ("AccA", 0));
                b.connect(("B", 0), ("AccB", 0));
                b.connect(("AccA", 0), ("Sum", 0));
                b.connect(("AccB", 0), ("Sum", 1));
                b.connect(("Sum", 0), ("Out", 0));
            },
            &CodegenOptions::accmos(),
            100,
            &tests,
            &RunOptions { stop_on_diagnostic: true, ..RunOptions::default() },
        );
        assert!(r.has_diagnostic(DiagnosticKind::WrapOnOverflow), "{r}");
        assert!(r.steps < 100, "stopped early at {}", r.steps);
        assert_eq!(
            r.first_diagnostic(DiagnosticKind::WrapOnOverflow).unwrap().actor,
            "M_Sum"
        );
    }

    #[test]
    fn rapid_accelerator_mode_runs_uninstrumented() {
        let tests = TestVectors::constant("In", Scalar::F64(1.5), 1);
        let r = compile_and_run(
            |b| {
                b.inport("In", DataType::F64);
                b.actor("Twice", ActorKind::Gain { gain: Scalar::F64(2.0) });
                b.outport("Out", DataType::F64);
                b.wire("In", "Twice");
                b.wire("Twice", "Out");
            },
            &CodegenOptions::rapid_accelerator(),
            5,
            &tests,
            &RunOptions::default(),
        );
        assert!(r.coverage.is_none());
        assert!(r.diagnostics.is_empty());
        assert_eq!(r.final_outputs[0].1, Value::scalar(Scalar::F64(3.0)));
    }

    #[test]
    fn compiler_detect_reports_name() {
        let cc = Compiler::detect().unwrap();
        assert!(!cc.cc().is_empty());
        assert!(!cc.cc_version().is_empty(), "version banner captured for the cache key");
    }

    fn gain_program(gain: f64) -> accmos_codegen::GeneratedProgram {
        let mut b = ModelBuilder::new("CacheProbe");
        b.inport("In", DataType::F64);
        b.actor("G", ActorKind::Gain { gain: Scalar::F64(gain) });
        b.outport("Out", DataType::F64);
        b.wire("In", "G");
        b.wire("G", "Out");
        let pre = preprocess(&b.build().unwrap()).unwrap();
        generate(&pre, &CodegenOptions::accmos())
    }

    #[test]
    fn second_compile_is_a_cache_hit_and_much_faster() {
        let root = std::env::temp_dir()
            .join(format!("accmos-cache-hit-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = BuildCache::at(&root);
        let cc = Compiler::detect().unwrap().with_cache(cache.clone());
        let program = gain_program(2.0);

        let cold = cc.compile(&program).unwrap();
        assert!(!cold.cache_hit());
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 0);

        let warm = cc.compile(&program).unwrap();
        assert!(warm.cache_hit(), "identical program must hit the cache");
        assert_eq!(cache.stats().hits, 1);
        // ISSUE acceptance: the hit skips GCC entirely, so it must be at
        // least 10x faster than the cold compile.
        assert!(
            warm.compile_time() * 10 <= cold.compile_time(),
            "cache hit not >=10x faster: cold {:?}, warm {:?}",
            cold.compile_time(),
            warm.compile_time()
        );

        // The cached executable is byte-for-byte the compiled one, so the
        // two simulators agree on every output digest.
        let tests = TestVectors::constant("In", Scalar::F64(1.5), 3);
        let opts = RunOptions::default();
        let a = cold.run(50, &tests, &opts).unwrap();
        let b = warm.run(50, &tests, &opts).unwrap();
        assert_eq!(a.output_digest, b.output_digest);
        assert_eq!(a.final_outputs, b.final_outputs);

        cold.clean();
        warm.clean();
        cache.clear().unwrap();
    }

    #[test]
    fn cache_distinguishes_programs_and_opt_levels() {
        let root = std::env::temp_dir()
            .join(format!("accmos-cache-key-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = BuildCache::at(&root);
        let cc = Compiler::detect().unwrap().with_cache(cache.clone());

        let k_a = cc.cache_key(&gain_program(2.0));
        let k_b = cc.cache_key(&gain_program(3.0));
        assert_ne!(k_a, k_b, "different sources, different keys");
        let cc_o0 = cc.clone().with_opt(OptLevel::O0);
        assert_ne!(cc.cache_key(&gain_program(2.0)), cc_o0.cache_key(&gain_program(2.0)));
        assert_eq!(k_a, cc.cache_key(&gain_program(2.0)), "keys are deterministic");

        // Different programs never share an entry.
        let a = cc.compile(&gain_program(2.0)).unwrap();
        let b = cc.compile(&gain_program(3.0)).unwrap();
        assert!(!a.cache_hit() && !b.cache_hit());
        assert_eq!(cache.stats().misses, 2);
        a.clean();
        b.clean();
        cache.clear().unwrap();
    }

    #[test]
    fn budget_builds_take_a_cached_o3_artifact_and_pinned_builds_do_not() {
        let root = std::env::temp_dir()
            .join(format!("accmos-cache-budget-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = BuildCache::at(&root);
        let cc = Compiler::detect().unwrap().with_cache(cache.clone());
        let program = gain_program(5.0);
        let short = cc.clone().for_budget(O3_BUDGET - 1);
        let built = |c: &Compiler| {
            let so = c.compile_shared(&program).unwrap();
            so.clean();
            (so.opt_level(), so.cache_hit())
        };
        assert_eq!(built(&short), (OptLevel::O1, false));
        assert_eq!(built(&cc.clone().for_budget(O3_BUDGET)), (OptLevel::O3, false));
        assert_eq!(built(&short), (OptLevel::O3, true), "the cached -O3 artifact wins");
        assert_eq!(built(&cc.clone().with_opt(OptLevel::O1)), (OptLevel::O1, true));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 2), "one count per build");
        cache.clear().unwrap();
    }

    #[test]
    fn shared_object_and_executable_never_share_a_cache_entry() {
        let root = std::env::temp_dir()
            .join(format!("accmos-cache-kinds-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = BuildCache::at(&root);
        let cc = Compiler::detect().unwrap().with_cache(cache.clone());
        let program = gain_program(6.0);

        let exe = cc.compile(&program).unwrap();
        let cold = cc.compile_shared(&program).unwrap();
        assert!(!cold.cache_hit(), "the executable's entry must not serve the .so");
        assert_eq!(cache.stats().misses, 2);
        let warm = cc.compile_shared(&program).unwrap();
        assert!(warm.cache_hit(), "the .so caches under its own key");
        assert_eq!(cache.stats().hits, 1);

        exe.clean();
        cold.clean();
        warm.clean();
        cache.clear().unwrap();
    }

    #[test]
    fn unbounded_run_classifies_a_crash_like_a_supervised_one() {
        let cc = Compiler::detect().unwrap().without_cache();
        let sim = cc.compile(&gain_program(5.0)).unwrap();
        std::fs::write(sim.exe(), "#!/bin/sh\nkill -SEGV $$\n").unwrap();
        let tests = TestVectors::constant("In", Scalar::F64(1.0), 2);
        let err = sim.run(8, &tests, &RunOptions::default()).unwrap_err();
        assert!(
            matches!(
                err,
                BackendError::Supervised {
                    kind: FailureKind::Crashed { signal: 11 },
                    attempts: 1,
                    ..
                }
            ),
            "expected one classified crash, got {err}"
        );
        sim.clean();
    }

    #[cfg(unix)]
    #[test]
    fn dylib_run_matches_subprocess_run_bit_for_bit() {
        let cc = Compiler::detect().unwrap().without_cache();
        let program = gain_program(2.5);
        let exe = cc.compile(&program).unwrap();
        let dy = cc.compile_shared(&program).unwrap();
        let tests = TestVectors::constant("In", Scalar::F64(1.25), 4);
        let opts = RunOptions::default();

        let sub = exe.run(64, &tests, &opts).unwrap();
        let runner = DylibRunner::for_dylib(&dy);
        let inp = runner.run(64, &tests, &opts, None).unwrap();
        assert_eq!(sub.output_digest, inp.report.output_digest);
        assert_eq!(sub.final_outputs, inp.report.final_outputs);
        assert_eq!(sub.diagnostics, inp.report.diagnostics);
        assert_eq!(sub.coverage, inp.report.coverage);
        assert_eq!(sub.steps, inp.report.steps);

        // A second run of the same artifact works (fresh copy per load),
        // and concurrent runs don't share generated statics.
        let again = runner.run(64, &tests, &opts, None).unwrap();
        assert_eq!(again.report.output_digest, sub.output_digest);
        let digests: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        runner
                            .run(64, &tests, &opts, None)
                            .unwrap()
                            .report
                            .output_digest
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(digests.iter().all(|d| *d == sub.output_digest), "{digests:?}");

        exe.clean();
        dy.clean();
    }

    #[cfg(unix)]
    #[test]
    fn dylib_deadline_maps_to_cooperative_cancel_timeout() {
        // A 200M-step integrator run with a 30 ms deadline must stop at
        // the entry's own deadline check and classify as a supervised
        // timeout.
        let mut b = ModelBuilder::new("CancelProbe");
        b.inport("In", DataType::F64);
        b.actor("Acc", ActorKind::DiscreteIntegrator { gain: 1.0, init: Scalar::F64(0.0) });
        b.outport("Out", DataType::F64);
        b.wire("In", "Acc");
        b.wire("Acc", "Out");
        let pre = preprocess(&b.build().unwrap()).unwrap();
        let program = generate(&pre, &CodegenOptions::accmos());
        let cc = Compiler::detect().unwrap().without_cache();
        let dy = cc.compile_shared(&program).unwrap();
        let runner = DylibRunner::for_dylib(&dy);
        let tests = TestVectors::constant("In", Scalar::F64(0.001), 8);
        let err = runner
            .run(
                200_000_000,
                &tests,
                &RunOptions::default(),
                Some(std::time::Duration::from_millis(30)),
            )
            .unwrap_err();
        match err {
            BackendError::Supervised { kind: FailureKind::Timeout, attempts: 1, .. } => {}
            other => panic!("expected a cooperative timeout, got {other:?}"),
        }
        dy.clean();
    }

    #[test]
    fn without_cache_always_invokes_compiler() {
        let cc = Compiler::detect().unwrap().without_cache();
        assert!(cc.cache().is_none());
        let program = gain_program(4.0);
        let a = cc.compile(&program).unwrap();
        let b = cc.compile(&program).unwrap();
        assert!(!a.cache_hit() && !b.cache_hit());
        a.clean();
        b.clean();
    }
}
