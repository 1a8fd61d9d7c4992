//! # accmos-bench
//!
//! The benchmark harness reproducing **every table and figure** of the
//! AccMoS paper's evaluation (§4):
//!
//! | Binary       | Reproduces |
//! |--------------|------------|
//! | `table1`     | Table 1 — benchmark model inventory |
//! | `table2`     | Table 2 — simulation time: AccMoS vs SSE / SSE_ac / SSE_rac |
//! | `table3`     | Table 3 — coverage reached in equal wall-clock budgets |
//! | `case_study` | §4 error-diagnosis case study on the fault-injected CSEV |
//! | `figure1`    | §1 motivating example — time to detect the long-run overflow |
//! | `ablation`   | instrumentation and optimizer cost — {bare, +coverage, +diagnosis, full} × {`-O0`, `-O3`}; with `--grid opt`, {`-O1`, `-O3`} × {5k, 200k, 2M} steps × the 10 models |
//!
//! Absolute numbers differ from the paper (different machine, scaled step
//! counts, SSE stand-ins instead of MATLAB); the *shape* — who wins and by
//! roughly what factor — is the reproduction target. See `EXPERIMENTS.md`
//! at the workspace root for recorded results.

use accmos::{AccMoS, BatchJob, BatchReport, BatchRunner, Engine as _, RunOptions, SimOptions};
use accmos_interp::{AcceleratorEngine, NormalEngine};
use accmos_ir::{Model, SimulationReport, TestVectors};
use accmos_testgen::random_tests;
use std::time::Duration;

/// Wall-clock measurements of the four engines on one model.
#[derive(Debug, Clone)]
pub struct EngineTimes {
    /// Model name.
    pub model: String,
    /// AccMoS: generated C, `-O3`, fully instrumented (with proven-safe
    /// instrumentation pruning, the default).
    pub accmos: Duration,
    /// AccMoS with `prune_proven_safe` off: every applicable diagnosis
    /// check emitted, proven-dead or not.
    pub accmos_unpruned: Duration,
    /// Diagnosis sites the interval analysis proved dead and codegen
    /// dropped from the pruned build.
    pub pruned_sites: usize,
    /// SSE stand-in: interpretive, diagnostics + coverage.
    pub sse: Duration,
    /// Accelerator stand-in: pre-flattened interpretive, host sync.
    pub sse_ac: Duration,
    /// Rapid Accelerator stand-in: generated C, `-O0`, host exchange.
    pub sse_rac: Duration,
    /// One-off code generation time for the AccMoS build.
    pub codegen: Duration,
    /// One-off compilation time for the AccMoS build.
    pub compile: Duration,
    /// Steps simulated.
    pub steps: u64,
}

impl EngineTimes {
    /// `SSE / AccMoS` speedup.
    pub fn speedup_sse(&self) -> f64 {
        ratio(self.sse, self.accmos)
    }

    /// `SSE_ac / AccMoS` speedup.
    pub fn speedup_ac(&self) -> f64 {
        ratio(self.sse_ac, self.accmos)
    }

    /// `SSE_rac / AccMoS` speedup.
    pub fn speedup_rac(&self) -> f64 {
        ratio(self.sse_rac, self.accmos)
    }
}

fn ratio(num: Duration, den: Duration) -> f64 {
    let d = den.as_secs_f64();
    if d > 0.0 {
        num.as_secs_f64() / d
    } else {
        f64::INFINITY
    }
}

/// Geometric mean of a ratio series (ignores non-finite entries).
pub fn geo_mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v.is_finite() && v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        return f64::NAN;
    }
    (log_sum / n as f64).exp()
}

/// Run all four engines on `model` for `steps` steps with seeded random
/// stimulus, as the Table 2 experiment does.
///
/// The build cache is disabled on both compiled paths so the reported
/// codegen/compile columns are always *cold* — the paper's AccMoS numbers
/// include a real GCC invocation, and a warm cache would silently shrink
/// them. Cached timings are reported separately by [`batch_table`].
///
/// # Panics
///
/// Panics if preprocessing or compilation fails — benchmark models are
/// expected to be valid.
pub fn measure_model(model: &Model, steps: u64, seed: u64) -> EngineTimes {
    let pre = accmos::preprocess(model).expect("benchmark model preprocesses");
    let tests = random_tests(&pre, 64, seed);

    // AccMoS: generated C at -O3 with full instrumentation (pruned).
    let accmos_sim = AccMoS::new().without_cache().prepare(model).expect("accmos compile");
    let accmos_report =
        accmos_sim.run(steps, &tests, &RunOptions::default()).expect("accmos run");
    let codegen = accmos_sim.codegen_time();
    let compile = accmos_sim.compile_time();
    let pruned_sites = accmos_sim.program().pruned_sites;
    accmos_sim.clean();

    // Same configuration with instrumentation pruning disabled, to put a
    // number on what dropping proven-dead checks buys.
    let unpruned_opts = accmos::CodegenOptions {
        prune_proven_safe: false,
        ..accmos::CodegenOptions::accmos()
    };
    let unpruned_sim = AccMoS::new()
        .with_codegen(unpruned_opts)
        .without_cache()
        .prepare(model)
        .expect("unpruned compile");
    let unpruned_report =
        unpruned_sim.run(steps, &tests, &RunOptions::default()).expect("unpruned run");
    unpruned_sim.clean();

    // SSE_rac: uninstrumented generated C at -O0 + host exchange.
    let rac_sim =
        AccMoS::rapid_accelerator().without_cache().prepare(model).expect("rac compile");
    let rac_report = rac_sim.run(steps, &tests, &RunOptions::default()).expect("rac run");
    rac_sim.clean();

    // Interpretive stand-ins.
    let sse = NormalEngine::new().run(&pre, &tests, &SimOptions::steps(steps));
    let sse_ac = AcceleratorEngine::new().run(&pre, &tests, &SimOptions::steps(steps));

    EngineTimes {
        model: model.name.clone(),
        accmos: accmos_report.wall,
        accmos_unpruned: unpruned_report.wall,
        pruned_sites,
        sse: sse.wall,
        sse_ac: sse_ac.wall,
        sse_rac: rac_report.wall,
        codegen,
        compile,
        steps,
    }
}

/// Run every model through the [`BatchRunner`] (one AccMoS job per model,
/// seeded random stimulus) and return the batch report.
///
/// The summary splits compile accounting into cold invocations and
/// build-cache hits, so harnesses can print cached timings *next to* the
/// paper-faithful cold numbers instead of mixing them. The builds are
/// pinned at `-O3`, the paper's configuration, whatever the step count.
///
/// # Panics
///
/// Panics if a benchmark model fails to preprocess or the system has no C
/// compiler.
pub fn batch_table(models: &[Model], steps: u64, seed: u64, workers: usize) -> BatchReport {
    let jobs: Vec<BatchJob> = models
        .iter()
        .map(|model| {
            let pre = accmos::preprocess(model).expect("benchmark model preprocesses");
            let tests = random_tests(&pre, 64, seed);
            BatchJob::model(model.name.clone(), model.clone(), tests, steps)
        })
        .collect();
    BatchRunner::new(AccMoS::new().with_opt(accmos::OptLevel::O3))
        .with_workers(workers)
        .run(jobs)
        .expect("batch runner starts")
}

/// Coverage percentages of one run, in Table 3 column order
/// (actor, condition, decision, MC/DC).
pub fn coverage_row(report: &SimulationReport) -> [f64; 4] {
    let cov = report.coverage.as_ref().expect("coverage collected");
    accmos_ir::CoverageKind::ALL.map(|k| cov.percent(k))
}

/// Run the Table 3 equal-time coverage experiment on one model: AccMoS and
/// SSE each get the same wall-clock budget.
///
/// The default build cache stays enabled here: the Table 3 harness calls
/// this once per budget on the same model, and compile time is not part
/// of the measured budget, so the second and third budgets reuse the
/// executable instead of paying GCC again.
pub fn coverage_within_budget(
    model: &Model,
    budget: Duration,
    seed: u64,
) -> (SimulationReport, SimulationReport) {
    let pre = accmos::preprocess(model).expect("benchmark model preprocesses");
    let tests = random_tests(&pre, 256, seed);

    let sim = AccMoS::new().prepare(model).expect("accmos compile");
    let accmos_report = sim
        .run(
            u64::MAX / 2,
            &tests,
            &RunOptions { time_budget: Some(budget), ..RunOptions::default() },
        )
        .expect("accmos run");
    sim.clean();

    let sse_report = NormalEngine::new().run(
        &pre,
        &tests,
        &SimOptions::steps(u64::MAX / 2).with_budget(budget),
    );
    (accmos_report, sse_report)
}

/// Per-run dispatch overhead of the two execution engines on an
/// already-compiled simulator ([`measure_dispatch_overhead`]): what it
/// costs to *start* a run when compilation is cached, which is exactly
/// the cost `accmos serve` exists to cut.
#[derive(Debug, Clone)]
pub struct DispatchOverhead {
    /// Model name.
    pub model: String,
    /// Runs per engine (each 1 step, so dispatch dominates).
    pub runs: u32,
    /// Total wall time of the subprocess (spawn + pipe) runs.
    pub subprocess: Duration,
    /// Total wall time of the in-process (`dlopen` + `accmos_entry`)
    /// runs.
    pub dylib: Duration,
}

impl DispatchOverhead {
    /// Mean per-run cost of the subprocess engine.
    pub fn subprocess_per_run(&self) -> Duration {
        self.subprocess / self.runs.max(1)
    }

    /// Mean per-run cost of the in-process engine.
    pub fn dylib_per_run(&self) -> Duration {
        self.dylib / self.runs.max(1)
    }

    /// `subprocess / dylib` overhead reduction factor.
    pub fn improvement(&self) -> f64 {
        ratio(self.subprocess, self.dylib)
    }
}

/// Measure [`DispatchOverhead`] on `model`: compile once (executable and
/// shared object from the same generated program), warm both paths, then
/// time `runs` single-step runs through each engine. One step makes the
/// simulation itself negligible, so the measurement isolates the fixed
/// per-run cost — `fork`/`exec`/pipe/report-parse for the subprocess
/// engine versus scratch-copy/`dlopen`/call for the in-process engine.
///
/// # Panics
///
/// Panics if preprocessing, compilation or any run fails.
#[cfg(unix)]
pub fn measure_dispatch_overhead(model: &Model, runs: u32) -> DispatchOverhead {
    let pre = accmos::preprocess(model).expect("benchmark model preprocesses");
    let tests = random_tests(&pre, 8, 1);
    let opts = RunOptions::default();

    let sim = AccMoS::new().prepare(model).expect("accmos compile");
    let compiler = accmos::Compiler::detect().expect("C compiler").with_opt(accmos::OptLevel::O3);
    let dylib = compiler.compile_shared(sim.program()).expect("shared-object compile");
    let runner = accmos::DylibRunner::for_dylib(&dylib);

    // Warm both paths (page cache, dynamic loader) before timing.
    let sub_digest = sim.run(1, &tests, &opts).expect("subprocess warmup").output_digest;
    let dy_digest = runner.run(1, &tests, &opts, None).expect("dylib warmup").report.output_digest;
    assert_eq!(sub_digest, dy_digest, "{}: engines must agree before timing", model.name);

    let start = std::time::Instant::now();
    for _ in 0..runs {
        sim.run(1, &tests, &opts).expect("subprocess dispatch run");
    }
    let subprocess = start.elapsed();

    let start = std::time::Instant::now();
    for _ in 0..runs {
        runner.run(1, &tests, &opts, None).expect("dylib dispatch run");
    }
    let dylib_total = start.elapsed();

    dylib.clean();
    sim.clean();
    DispatchOverhead { model: model.name.clone(), runs, subprocess, dylib: dylib_total }
}

/// Time-to-first-diagnostic on both paths (the case-study measurement).
/// Returns `(accmos_wall, accmos_step, sse_wall, sse_step)`; steps are
/// `None` when no diagnostic fired within `max_steps`.
pub fn detection_times(
    model: &Model,
    tests: &TestVectors,
    max_steps: u64,
) -> (Duration, Option<u64>, Duration, Option<u64>) {
    let pre = accmos::preprocess(model).expect("model preprocesses");

    let sim = AccMoS::new().prepare(model).expect("accmos compile");
    let accmos_report = sim
        .run(max_steps, tests, &RunOptions { stop_on_diagnostic: true, ..Default::default() })
        .expect("accmos run");
    sim.clean();
    let accmos_step =
        accmos_report.diagnostics.iter().map(|d| d.first_step).min();

    let sse_report = NormalEngine::new().run(
        &pre,
        tests,
        &SimOptions::steps(max_steps).stopping_on_diagnostic(),
    );
    let sse_step = sse_report.diagnostics.iter().map(|d| d.first_step).min();

    (accmos_report.wall, accmos_step, sse_report.wall, sse_step)
}

/// Append one run-ledger record to the default state directory (honours
/// `ACCMOS_CACHE_DIR`), so benchmark history feeds `accmos trends`.
/// Best-effort: ledger I/O never fails a benchmark.
pub fn record_run(source: &str, model: &str, engine: &str, steps: u64, wall: Duration) {
    let mut rec = accmos::RunRecord::new(source, model);
    rec.engine = engine.to_string();
    rec.steps = steps;
    rec.outcome = accmos::telemetry::outcome::OK.to_string();
    rec.phases.run_us = accmos::telemetry::micros(wall);
    let ledger = accmos::RunLedger::in_dir(accmos::default_state_dir());
    let _ = ledger.append(&rec);
}

/// Append one ledger record per engine measured by [`measure_model`],
/// under `source` (e.g. `"table2"`). The AccMoS entry also carries the
/// cold codegen/compile costs; interpretive stand-ins have none.
pub fn record_engine_times(source: &str, times: &EngineTimes) {
    let ledger = accmos::RunLedger::in_dir(accmos::default_state_dir());
    let engines = [
        ("accmos", times.accmos),
        ("accmos-noprune", times.accmos_unpruned),
        ("sse", times.sse),
        ("sse-ac", times.sse_ac),
        ("sse-rac", times.sse_rac),
    ];
    for (engine, wall) in engines {
        let mut rec = accmos::RunRecord::new(source, &times.model);
        rec.engine = engine.to_string();
        rec.steps = times.steps;
        rec.outcome = accmos::telemetry::outcome::OK.to_string();
        rec.phases.run_us = accmos::telemetry::micros(wall);
        if engine == "accmos" {
            rec.phases.codegen_us = accmos::telemetry::micros(times.codegen);
            rec.phases.compile_us = accmos::telemetry::micros(times.compile);
        }
        let _ = ledger.append(&rec);
    }
}

/// Exit the harness with status 2 unless every argument after the
/// program name is one of `flags` followed by its value. Every harness
/// flag takes a value, so a typo or a removed flag fails loudly instead
/// of silently running the default experiment.
pub fn check_flags(args: &[String], flags: &[&str]) {
    if let Err(msg) = validate_flags(args, flags) {
        eprintln!("{msg}");
        std::process::exit(2)
    }
}

fn validate_flags(args: &[String], flags: &[&str]) -> Result<(), String> {
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if !flags.contains(&arg.as_str()) {
            return Err(format!("unknown argument `{arg}` (accepted flags: {flags:?})"));
        }
        if rest.next().is_none() {
            return Err(format!("{arg} needs a value"));
        }
    }
    Ok(())
}

/// Parse a `--flag value` style u64 argument, exiting the harness with a
/// message naming the flag and the value when the value is not a number.
pub fn arg_u64(args: &[String], flag: &str, default: u64) -> u64 {
    parse_u64_arg(args, flag, default).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}

fn parse_u64_arg(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    match arg_str(args, flag) {
        Some(v) => v.parse().map_err(|_| format!("bad value `{v}` for {flag}")),
        None => Ok(default),
    }
}

/// Parse a `--flag value` style string argument.
pub fn arg_str<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

/// `--trace-out PATH` support for the table harnesses: a tracer to hand
/// out when the flag is present. Harnesses record one coarse `bench` span
/// per experiment around their measurement calls and finish with
/// [`write_trace`].
pub fn arg_tracer(args: &[String]) -> Option<accmos::Tracer> {
    arg_str(args, "--trace-out").map(|_| accmos::Tracer::new())
}

/// Write the accumulated trace as Chrome trace-event JSON to the
/// `--trace-out` path, if both were given. Trace I/O never fails a
/// benchmark — errors go to stderr.
pub fn write_trace(args: &[String], tracer: &Option<accmos::Tracer>) {
    let (Some(tracer), Some(path)) = (tracer, arg_str(args, "--trace-out")) else {
        return;
    };
    match tracer.write_chrome_json(std::path::Path::new(path)) {
        Ok(()) => eprintln!("wrote trace {path}"),
        Err(e) => eprintln!("cannot write trace {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_mean_of_powers() {
        let g = geo_mean([1.0, 100.0]);
        assert!((g - 10.0).abs() < 1e-9);
        assert!(geo_mean([]).is_nan());
        assert!((geo_mean([2.0, f64::INFINITY, 8.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> =
            ["prog", "--steps", "500"].iter().map(|s| s.to_string()).collect();
        assert_eq!(arg_u64(&args, "--steps", 7), 500);
        assert_eq!(arg_u64(&args, "--rows", 7), 7);
        let bad: Vec<String> =
            ["prog", "--steps", "banana"].iter().map(|s| s.to_string()).collect();
        let err = parse_u64_arg(&bad, "--steps", 7).unwrap_err();
        assert!(err.contains("--steps") && err.contains("`banana`"), "{err}");
    }

    #[test]
    fn flag_check_rejects_unknown_and_valueless_flags() {
        let args = |list: &[&str]| -> Vec<String> {
            let all = std::iter::once(&"prog").chain(list);
            all.map(|s| s.to_string()).collect()
        };
        let flags = ["--steps", "--seed"];
        assert_eq!(validate_flags(&args(&[]), &flags), Ok(()));
        let known = args(&["--seed", "3", "--steps", "9"]);
        assert_eq!(validate_flags(&known, &flags), Ok(()));
        let err = validate_flags(&args(&["--step", "100"]), &flags).unwrap_err();
        assert!(err.contains("`--step`"), "{err}");
        let err = validate_flags(&args(&["--steps", "5", "--seed"]), &flags).unwrap_err();
        assert!(err.contains("--seed needs a value"), "{err}");
    }

    #[test]
    fn measure_small_model_orders_engines() {
        // A quick sanity run on the smallest benchmark: compiled code must
        // not be slower than the interpretive SSE stand-in.
        let model = accmos_models::by_name("SPV");
        let t = measure_model(&model, 20_000, 1);
        assert_eq!(t.steps, 20_000);
        assert!(
            t.sse > t.accmos,
            "SSE ({:?}) should be slower than AccMoS ({:?})",
            t.sse,
            t.accmos
        );
        assert!(t.speedup_sse() > 1.0);
    }
}
