//! # accmos
//!
//! AccMoS-RS: accelerating model simulation via instrumented code
//! generation — a Rust reproduction of *AccMoS: Accelerating Model
//! Simulation for Simulink via Code Generation* (DAC 2024).
//!
//! The [`AccMoS`] pipeline mirrors the paper's Figure 2:
//!
//! 1. **Model preprocessing** ([`preprocess`]) — parse / flatten the
//!    model, topologically sort the data flow, resolve signal types,
//!    enumerate coverage points;
//! 2. **Simulation-oriented instrumentation + code synthesis**
//!    ([`accmos_codegen::generate`]) — actor templates, coverage
//!    bitmaps, diagnostic functions, test-case import, `main()`;
//! 3. **Compile & execute** (`accmos-backend`) — GCC `-fwrapv` at `-O3`
//!    for reusable builds ([`AccMoS::prepare`]) and for runs of at least
//!    [`O3_BUDGET`] steps × lanes, at `-O1` for shorter ones (a cached
//!    `-O3` build of the same sources is taken first), then run and parse
//!    results.
//!
//! The same model runs on the interpretive SSE stand-ins
//! ([`NormalEngine`], [`AcceleratorEngine`]) for comparison — that is the
//! paper's entire evaluation loop.
//!
//! ## Quickstart
//!
//! ```no_run
//! use accmos::{AccMoS, RunOptions};
//! use accmos_ir::{ActorKind, DataType, ModelBuilder, Scalar, TestVectors};
//!
//! // Figure 1: two accumulators into a sum that eventually wraps.
//! let mut b = ModelBuilder::new("Sample");
//! b.inport("A", DataType::I32);
//! b.inport("B", DataType::I32);
//! b.actor("AccA", ActorKind::DiscreteIntegrator { gain: 1.0, init: Scalar::I32(0) });
//! b.actor("AccB", ActorKind::DiscreteIntegrator { gain: 1.0, init: Scalar::I32(0) });
//! b.actor("Sum", ActorKind::Sum { signs: "++".into() });
//! b.outport("Out", DataType::I32);
//! b.connect(("A", 0), ("AccA", 0));
//! b.connect(("B", 0), ("AccB", 0));
//! b.connect(("AccA", 0), ("Sum", 0));
//! b.connect(("AccB", 0), ("Sum", 1));
//! b.connect(("Sum", 0), ("Out", 0));
//! let model = b.build()?;
//!
//! let sim = AccMoS::new().prepare(&model)?;
//! let mut tests = TestVectors::new();
//! tests.push_column("A", DataType::I32, vec![Scalar::I32(1000)]);
//! tests.push_column("B", DataType::I32, vec![Scalar::I32(2000)]);
//! let report = sim.run(1_000_000, &tests, &RunOptions::default())?;
//! println!("{report}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
mod exec;
pub mod fuzz;
#[cfg(unix)]
mod serve;

pub use batch::{BatchJob, BatchReport, BatchRunner, BatchSummary, JobResult, JobSource};
pub use fuzz::{CampaignSummary, FuzzCampaign, FuzzConfig, FuzzStore};
#[cfg(unix)]
pub use serve::{ServeConfig, ServeHandle};

pub use accmos_analyze::{
    analyze, analyze_with_tests, AnalysisFinding, LintRule, ModelAnalysis, Severity,
};
pub use accmos_backend::{
    default_state_dir, telemetry, BackendError, BuildCache, CacheStats, CompiledSimulator,
    Compiler, ExecPolicy, FailureKind, OptLevel, PhaseMicros, RunLedger, RunOptions, RunRecord,
    Supervisor, TraceSpan, Tracer, O3_BUDGET,
};
#[cfg(unix)]
pub use accmos_backend::{CompiledDylib, DylibRun, DylibRunner};
pub use accmos_codegen::{CodegenOptions, CustomProbe, GeneratedProgram, PROF_SAMPLE_PERIOD};
pub use accmos_graph::{preprocess, PreprocessedModel};
pub use accmos_interp::{AcceleratorEngine, Engine, NormalEngine, SimOptions};
pub use accmos_parse::{parse_mdlx, write_mdlx, MdlxError};

use accmos_ir::{Model, ModelError, SimulationReport, TestVectors};
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

/// Errors from the end-to-end AccMoS pipeline.
#[derive(Debug)]
pub enum AccMoSError {
    /// The model is structurally invalid.
    Model(ModelError),
    /// The MDLX file could not be parsed.
    Mdlx(MdlxError),
    /// Compilation or execution of generated code failed.
    Backend(BackendError),
    /// A failure outside the model and the engines, carried as its
    /// formatted text: a batch worker that panicked, a serve spec that
    /// does not resolve to a model, fuzz campaign state I/O.
    Batch(String),
}

impl fmt::Display for AccMoSError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccMoSError::Model(e) => write!(f, "{e}"),
            AccMoSError::Mdlx(e) => write!(f, "{e}"),
            AccMoSError::Backend(e) => write!(f, "{e}"),
            AccMoSError::Batch(detail) => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for AccMoSError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AccMoSError::Model(e) => Some(e),
            AccMoSError::Mdlx(e) => Some(e),
            AccMoSError::Backend(e) => Some(e),
            AccMoSError::Batch(_) => None,
        }
    }
}

impl From<ModelError> for AccMoSError {
    fn from(e: ModelError) -> Self {
        AccMoSError::Model(e)
    }
}

impl From<MdlxError> for AccMoSError {
    fn from(e: MdlxError) -> Self {
        AccMoSError::Mdlx(e)
    }
}

impl From<BackendError> for AccMoSError {
    fn from(e: BackendError) -> Self {
        AccMoSError::Backend(e)
    }
}

/// How the pipeline uses the compiled-artifact [`BuildCache`].
#[derive(Debug, Clone, Default)]
enum CachePolicy {
    /// The compiler's default cache (`$XDG_CACHE_HOME/accmos` or the
    /// temp-dir fallback).
    #[default]
    Default,
    /// No cache: every compile invokes the C compiler.
    Disabled,
    /// A caller-provided cache (shared counters across pipelines).
    Custom(BuildCache),
}

/// The AccMoS pipeline: preprocess → instrument → synthesize → compile.
///
/// Unless [`AccMoS::with_opt`] pins a level, the optimization level
/// follows the build's step budget (steps × lanes, summed over the runs of
/// one build): [`AccMoS::prepare`] has none and builds at `-O3`;
/// [`AccMoS::run`], [`BatchRunner`] groups, serve jobs and fuzz trials
/// build at `-O1` below [`O3_BUDGET`] and at `-O3` from it on, taking a
/// cached `-O3` artifact of the same sources over an `-O1` build. The
/// serve daemon replaces a model's `-O1` memo entry with an `-O3` build
/// when a job's budget asks for `-O3`. Every level simulates
/// bit-identically; only time differs.
#[derive(Debug, Clone)]
pub struct AccMoS {
    codegen: CodegenOptions,
    /// The pinned level; `None` follows the step budget.
    opt: Option<OptLevel>,
    work_dir: Option<PathBuf>,
    cache: CachePolicy,
    exec_policy: ExecPolicy,
    tracer: Option<Tracer>,
}

impl AccMoS {
    /// The default configuration: full instrumentation, the level chosen
    /// from the step budget, build cache enabled, default [`ExecPolicy`]
    /// supervision.
    pub fn new() -> AccMoS {
        AccMoS {
            codegen: CodegenOptions::accmos(),
            opt: None,
            work_dir: None,
            cache: CachePolicy::Default,
            exec_policy: ExecPolicy::default(),
            tracer: None,
        }
    }

    /// The SSE Rapid Accelerator stand-in: uninstrumented code at `-O0`
    /// with per-step host data exchange.
    pub fn rapid_accelerator() -> AccMoS {
        AccMoS {
            codegen: CodegenOptions::rapid_accelerator(),
            opt: Some(OptLevel::O0),
            work_dir: None,
            cache: CachePolicy::Default,
            exec_policy: ExecPolicy::default(),
            tracer: None,
        }
    }

    /// Builder-style: replace the code-generation options.
    pub fn with_codegen(mut self, codegen: CodegenOptions) -> AccMoS {
        self.codegen = codegen;
        self
    }

    /// Builder-style: pin the compiler optimization level for every
    /// build, whatever its step budget.
    pub fn with_opt(mut self, opt: OptLevel) -> AccMoS {
        self.opt = Some(opt);
        self
    }

    /// Builder-style: make each build's directory under `dir` (useful for
    /// inspecting the generated code) instead of the system temp
    /// directory. Builds never share a directory, and cleaning one
    /// removes only its own.
    pub fn with_work_dir(mut self, dir: impl Into<PathBuf>) -> AccMoS {
        self.work_dir = Some(dir.into());
        self
    }

    /// Builder-style: use `cache` for compiled artifacts. Pass a shared
    /// [`BuildCache`] handle to aggregate hit/miss counters across
    /// pipelines.
    pub fn with_cache(mut self, cache: BuildCache) -> AccMoS {
        self.cache = CachePolicy::Custom(cache);
        self
    }

    /// Builder-style: disable the build cache so every [`AccMoS::prepare`]
    /// invokes the C compiler. Timing harnesses reproducing the paper's
    /// cold-compile numbers use this.
    pub fn without_cache(mut self) -> AccMoS {
        self.cache = CachePolicy::Disabled;
        self
    }

    /// Builder-style: set the supervised-execution policy (kill timeout,
    /// retries, backoff, quarantine threshold) used by
    /// [`AccMoS::run`] and [`BatchRunner`].
    pub fn with_exec_policy(mut self, policy: ExecPolicy) -> AccMoS {
        self.exec_policy = policy;
        self
    }

    /// Builder-style: record each job's trace spans — the job, its
    /// pipeline phases, the supervisor's attempts, per-actor profile
    /// leaves — into `tracer`, rendered from the job's account once it
    /// finishes. The tracer is shared (clones share one buffer), so the
    /// caller drains it once at the end into a Chrome trace-event JSON
    /// file ([`Tracer::write_chrome_json`], the `--trace-out` flag).
    pub fn with_tracer(mut self, tracer: Tracer) -> AccMoS {
        self.tracer = Some(tracer);
        self
    }

    /// The trace collector threaded through this pipeline, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// The supervised-execution policy in force.
    pub fn exec_policy(&self) -> &ExecPolicy {
        &self.exec_policy
    }

    /// The current code-generation options.
    pub fn codegen_options(&self) -> &CodegenOptions {
        &self.codegen
    }

    /// The state directory shared with the build cache — where the run
    /// ledger and the persistent quarantine store live. `None` when the
    /// cache is disabled: a cache-less pipeline is explicitly ephemeral
    /// (timing harnesses, tests), so it records no durable state either.
    pub fn state_dir(&self) -> Option<PathBuf> {
        match &self.cache {
            CachePolicy::Default => Some(accmos_backend::default_state_dir()),
            CachePolicy::Disabled => None,
            CachePolicy::Custom(cache) => Some(cache.root().to_path_buf()),
        }
    }

    /// The run ledger of this pipeline's state directory (`None` when the
    /// cache — and with it all durable state — is disabled).
    pub fn ledger(&self) -> Option<RunLedger> {
        self.state_dir().map(RunLedger::in_dir)
    }

    /// A supervisor under this pipeline's [`ExecPolicy`], inheriting (and
    /// extending) the persistent quarantine state of the state directory
    /// when one exists.
    pub(crate) fn supervisor(&self) -> Supervisor {
        let supervisor = Supervisor::new(self.exec_policy.clone());
        match self.state_dir() {
            Some(dir) => supervisor.with_state_dir(dir),
            None => supervisor,
        }
    }

    /// Best-effort ledger append: telemetry must never fail a simulation.
    pub(crate) fn record(&self, record: &RunRecord) {
        if let Some(ledger) = self.ledger() {
            let _ = ledger.append(record);
        }
    }

    /// The compiler this pipeline configuration resolves to for a build
    /// with no step budget ([`AccMoS::prepare`]): the pinned level, else
    /// `-O3`. [`AccMoS::budgeted`] adapts it to a budget.
    pub(crate) fn compiler(&self) -> Result<Compiler, BackendError> {
        let mut compiler = Compiler::detect()?.with_opt(self.opt.unwrap_or(OptLevel::O3));
        if let Some(dir) = &self.work_dir {
            compiler = compiler.with_work_dir(dir.clone());
        }
        compiler = match &self.cache {
            CachePolicy::Default => compiler,
            CachePolicy::Disabled => compiler.without_cache(),
            CachePolicy::Custom(cache) => compiler.with_cache(cache.clone()),
        };
        Ok(compiler)
    }

    /// `compiler` (from [`AccMoS::compiler`]) for a build whose runs total
    /// `budget` steps × lanes: unchanged when a level is pinned, else
    /// [`Compiler::for_budget`].
    pub(crate) fn budgeted(&self, compiler: Compiler, budget: u64) -> Compiler {
        match self.opt {
            Some(_) => compiler,
            None => compiler.for_budget(budget),
        }
    }

    /// The level a build of `budget` steps × lanes compiles at on a cache
    /// miss.
    pub(crate) fn level_for(&self, budget: u64) -> OptLevel {
        self.opt.unwrap_or_else(|| accmos_backend::budget_level(budget))
    }

    /// Run preprocessing and code generation without compiling (for code
    /// inspection).
    ///
    /// # Errors
    ///
    /// Returns validation/scheduling errors from preprocessing.
    pub fn generate(&self, model: &Model) -> Result<GeneratedProgram, AccMoSError> {
        Ok(self.plan(model)?.program)
    }

    /// Preprocess, generate, and compile a model into a runnable
    /// simulation. The build has no step budget and may be run any number
    /// of times, so it compiles at `-O3` unless a level is pinned.
    ///
    /// # Errors
    ///
    /// Propagates model validation errors and compiler failures.
    pub fn prepare(&self, model: &Model) -> Result<PreparedSimulation, AccMoSError> {
        let plan = self.plan(model)?;
        let sim = self.compiler()?.compile(&plan.program)?;
        Ok(PreparedSimulation { plan, sim })
    }

    /// Parse an MDLX document and prepare it.
    ///
    /// # Errors
    ///
    /// Propagates parse, validation and compilation errors.
    pub fn prepare_mdlx(&self, text: &str) -> Result<PreparedSimulation, AccMoSError> {
        let parse_start = std::time::Instant::now();
        let model = parse_mdlx(text)?;
        let parse_time = parse_start.elapsed();
        let mut sim = self.prepare(&model)?;
        sim.plan.parse_time = parse_time;
        Ok(sim)
    }

    /// End-to-end supervised run with graceful degradation: plan the
    /// model, then walk the job executor's engine ladder from the
    /// supervised subprocess rung under this pipeline's [`ExecPolicy`].
    /// The executable builds for a budget of `steps` × lanes and runs
    /// once per lane ([`RunOptions::lane_tests`]).
    /// When the executable does not build (no C compiler, broken
    /// toolchain) or is quarantined, the job falls back to the
    /// interpretive [`NormalEngine`] instead of failing. The fallback is
    /// never silent: [`RunOutcome::degraded`] is set and
    /// [`RunOutcome::fallback_reason`] carries the cause. The kill
    /// timeout bounds the interpreter too. Every run appends one record to
    /// the run ledger and, with a tracer, renders its spans on track 1.
    ///
    /// # Errors
    ///
    /// Model validation and scheduling errors (which no engine could run),
    /// and failures that do not fall back: a timeout on any rung, a crash
    /// that has not yet reached quarantine, corrupt protocol output.
    pub fn run(
        &self,
        model: &Model,
        steps: u64,
        tests: &TestVectors,
        opts: &RunOptions,
    ) -> Result<RunOutcome, AccMoSError> {
        let traced = self.tracer.as_ref().map(|t| (t, t.now_us()));
        let plan = self.plan(model)?;
        let executor = exec::Executor { pipeline: self, supervisor: None };
        let job = exec::Job { steps, tests, opts };
        let exec = executor.run(exec::Subject::Plan(&plan), exec::Entry::Subprocess, &job);
        if let Some((tracer, start_us)) = traced {
            exec.trail.trace(tracer, 1, &model.name, start_us, exec.profile());
        }
        self.record(&exec.record("run", &model.name, steps, opts.lanes() as u64));
        let (retries, _, peak_rss_kb) = exec.trail.last_rung();
        Ok(RunOutcome {
            fallback_reason: exec.fallback_reason(),
            retries,
            peak_rss_kb,
            report: exec.report?,
        })
    }
}

/// The result of a degradable end-to-end run ([`AccMoS::run`]).
#[derive(Debug)]
pub struct RunOutcome {
    /// The simulation report: from the compiled simulator, or from the
    /// interpretive fallback when degraded.
    pub report: SimulationReport,
    /// Retries of the rung the run ended on: the supervised run's, or 0
    /// after falling back to the interpreter.
    pub retries: u32,
    /// Why the run degraded to the interpreter (`None` = compiled path);
    /// several causes are joined with `; ` in ladder order.
    pub fallback_reason: Option<String>,
    /// Peak resident set size of the simulator child in KiB (`ru_maxrss`;
    /// 0 = not measured, including on the interpretive fallback path).
    pub peak_rss_kb: u64,
}

impl RunOutcome {
    /// Whether this result came from the interpretive fallback rather than
    /// the compiled simulator.
    pub fn degraded(&self) -> bool {
        self.fallback_reason.is_some()
    }
}

impl Default for AccMoS {
    fn default() -> Self {
        AccMoS::new()
    }
}

/// A compiled, ready-to-run AccMoS simulation.
#[derive(Debug)]
pub struct PreparedSimulation {
    plan: exec::Plan,
    sim: CompiledSimulator,
}

impl PreparedSimulation {
    /// Whether the executable came out of the [`BuildCache`] without a
    /// compiler invocation.
    pub fn cache_hit(&self) -> bool {
        self.sim.cache_hit()
    }

    /// Run the compiled simulator.
    ///
    /// # Errors
    ///
    /// Propagates execution and protocol failures.
    pub fn run(
        &self,
        steps: u64,
        tests: &TestVectors,
        opts: &RunOptions,
    ) -> Result<SimulationReport, AccMoSError> {
        Ok(self.sim.run(steps, tests, opts)?)
    }

    /// The generated program (for inspection of the emitted C).
    pub fn program(&self) -> &GeneratedProgram {
        self.sim.program()
    }

    /// The underlying compiled simulator.
    pub fn simulator(&self) -> &CompiledSimulator {
        &self.sim
    }

    /// Time spent parsing the MDLX source (zero for in-memory models).
    pub fn parse_time(&self) -> Duration {
        self.plan.parse_time
    }

    /// Time spent flattening, type-checking and scheduling the model.
    pub fn preprocess_time(&self) -> Duration {
        self.plan.preprocess_time
    }

    /// Time spent in code generation (including the proven-safe interval
    /// analysis, reported separately by
    /// [`GeneratedProgram::analyze_time`]).
    pub fn codegen_time(&self) -> Duration {
        self.plan.codegen_time
    }

    /// Time spent in the C compiler.
    pub fn compile_time(&self) -> Duration {
        self.sim.compile_time()
    }

    /// Remove the build directory.
    pub fn clean(&self) {
        self.sim.clean();
    }
}

/// Resolve a model spec, as the CLI and the serve daemon take it:
/// `bench:NAME` for `figure1` or a Table 1 benchmark (names match
/// case-insensitively), `rand:SEED` for the differential fuzzer's random
/// model with that seed, and anything else as an `.mdlx` file path.
///
/// # Errors
///
/// An unknown benchmark (the message lists every valid name), a seed that
/// is not a number, or a file that cannot be read or parsed.
pub fn load_spec(spec: &str) -> Result<Model, String> {
    Source::read(spec)?.model()
}

/// A model spec read as far as it takes to tell its model apart from any
/// other, without building it: what the serve daemon's memo keys on.
#[derive(PartialEq, Eq)]
pub(crate) enum Source {
    /// A built-in model by canonical (upper-case) name.
    Bench(String),
    /// The differential fuzzer's random model with this seed.
    Rand(u64),
    /// The text of an `.mdlx` file.
    Mdlx(String),
}

impl Source {
    /// Resolve `spec` ([`load_spec`]'s forms): check a benchmark name or
    /// seed, or read the file.
    pub(crate) fn read(spec: &str) -> Result<Source, String> {
        if let Some(name) = spec.strip_prefix("bench:") {
            let upper = name.to_ascii_uppercase();
            if upper == "FIGURE1" || accmos_models::TABLE1.iter().any(|(n, _, _)| *n == upper) {
                return Ok(Source::Bench(upper));
            }
            return Err(format!(
                "unknown benchmark `{name}` (valid: figure1, {})",
                accmos_models::TABLE1.map(|(n, _, _)| n).join(", ")
            ));
        }
        if let Some(seed) = spec.strip_prefix("rand:") {
            let seed = seed.parse().map_err(|_| format!("bad random-model seed `{seed}`"))?;
            return Ok(Source::Rand(seed));
        }
        let text = std::fs::read_to_string(spec).map_err(|e| format!("cannot read {spec}: {e}"))?;
        Ok(Source::Mdlx(text))
    }

    /// Build the model: look up or generate it, or parse the file's text.
    pub(crate) fn model(&self) -> Result<Model, String> {
        match self {
            Source::Bench(name) if name == "FIGURE1" => Ok(accmos_models::figure1()),
            Source::Bench(name) => Ok(accmos_models::by_name(name)),
            Source::Rand(seed) => fuzz::planned_model(*seed),
            Source::Mdlx(text) => parse_mdlx(text).map_err(|e| e.to_string()),
        }
    }
}

/// Run one of the interpretive SSE stand-ins on a model.
///
/// Convenience for the comparison harness: `engine` is `"sse"` or
/// `"sse-ac"`.
///
/// # Errors
///
/// Returns preprocessing errors.
pub fn run_reference_engine(
    engine: &str,
    model: &Model,
    tests: &TestVectors,
    opts: &SimOptions,
) -> Result<SimulationReport, AccMoSError> {
    let pre = preprocess(model)?;
    let report = match engine {
        "sse-ac" => AcceleratorEngine::new().run(&pre, tests, opts),
        _ => NormalEngine::new().run(&pre, tests, opts),
    };
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use accmos_ir::{ActorKind, DataType, ModelBuilder, Scalar};

    fn small_model() -> Model {
        let mut b = ModelBuilder::new("Tiny");
        b.inport("In", DataType::I32);
        b.actor("Twice", ActorKind::Gain { gain: Scalar::I32(2) });
        b.outport("Out", DataType::I32);
        b.wire("In", "Twice");
        b.wire("Twice", "Out");
        b.build().unwrap()
    }

    #[test]
    fn load_spec_resolves_every_spec_kind_and_lists_valid_names() {
        let figure1 = accmos_models::figure1().name;
        assert_eq!(load_spec("bench:figure1").unwrap().name, figure1);
        assert_eq!(load_spec("bench:FIGURE1").unwrap().name, figure1);
        assert_eq!(load_spec("bench:spv").unwrap().name, accmos_models::by_name("SPV").name);
        let err = load_spec("bench:NOPE").unwrap_err();
        assert!(err.contains("`NOPE`") && err.contains("figure1"), "{err}");
        for (name, _, _) in accmos_models::TABLE1 {
            assert!(err.contains(name), "{name} missing from: {err}");
        }
        assert!(load_spec("rand:x").unwrap_err().contains("`x`"));
        let missing = std::env::temp_dir().join("accmos-no-such-model.mdlx");
        let err = load_spec(missing.to_str().unwrap()).unwrap_err();
        assert!(err.starts_with("cannot read"), "{err}");
    }

    #[test]
    fn generate_without_compiling() {
        let program = AccMoS::new().generate(&small_model()).unwrap();
        assert!(program.main_c.contains("Model_Exe"));
    }

    #[test]
    fn pipeline_end_to_end() {
        let sim = AccMoS::new().prepare(&small_model()).unwrap();
        let tests = TestVectors::constant("In", Scalar::I32(21), 1);
        let report = sim.run(5, &tests, &RunOptions::default()).unwrap();
        assert_eq!(report.final_outputs[0].1.to_string(), "42");
        assert!(sim.compile_time() > Duration::ZERO);
        sim.clean();
    }

    #[test]
    fn mdlx_pipeline() {
        let doc = r#"<Model name="M"><System kind="plain">
            <Block name="In" type="Inport" index="0" dtype="int32"/>
            <Block name="Out" type="Outport" index="0" dtype="int32"/>
            <Line src="In:0" dst="Out:0"/>
        </System></Model>"#;
        let sim = AccMoS::new().prepare_mdlx(doc).unwrap();
        let tests = TestVectors::constant("In", Scalar::I32(9), 1);
        let r = sim.run(3, &tests, &RunOptions::default()).unwrap();
        assert_eq!(r.final_outputs[0].1.to_string(), "9");
        sim.clean();
    }

    #[test]
    fn error_types_chain() {
        let err = AccMoS::new().prepare_mdlx("<oops").unwrap_err();
        assert!(matches!(err, AccMoSError::Mdlx(_)));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn run_healthy_path_is_not_degraded() {
        let tests = TestVectors::constant("In", Scalar::I32(21), 1);
        let out = AccMoS::new().run(&small_model(), 5, &tests, &RunOptions::default()).unwrap();
        assert!(!out.degraded());
        assert_eq!(out.retries, 0);
        assert_eq!(out.report.final_outputs[0].1.to_string(), "42");
    }

    #[test]
    fn run_degrades_to_interpreter_when_compile_fails() {
        // A *file* where the build dir should be makes every compile fail
        // with a backend error — the degradable path, not a model error.
        let blocker =
            std::env::temp_dir().join(format!("accmos-run-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let pipeline = AccMoS::new().without_cache().with_work_dir(&blocker);
        let tests = TestVectors::constant("In", Scalar::I32(21), 1);
        let out = pipeline.run(&small_model(), 5, &tests, &RunOptions::default()).unwrap();
        assert!(out.degraded(), "compile failure must degrade, not error");
        assert!(out.fallback_reason.is_some());
        assert_eq!(out.report.final_outputs[0].1.to_string(), "42");
        std::fs::remove_file(&blocker).unwrap();
    }

    #[test]
    fn cleaning_a_build_keeps_the_rest_of_the_work_dir() {
        let dir = std::env::temp_dir().join(format!("accmos-run-work-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("keep.txt"), b"mine").unwrap();
        let tests = TestVectors::constant("In", Scalar::I32(21), 1);
        let pipeline = AccMoS::new().without_cache().with_work_dir(&dir);
        let out = pipeline.run(&small_model(), 5, &tests, &RunOptions::default()).unwrap();
        assert!(!out.degraded(), "{:?}", out.fallback_reason);
        let left: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(left, ["keep.txt"], "the run removed only its own build directory");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_deadline_bounds_the_interpreter_fallback() {
        // The same blocked build as above, but a run far too long for the
        // kill timeout: the interpreter stops at the deadline and the job
        // fails as a killed child would, instead of holding its caller.
        let blocker =
            std::env::temp_dir().join(format!("accmos-run-deadline-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let policy = ExecPolicy::default().with_kill_timeout(Duration::from_millis(300));
        let pipeline = AccMoS::new()
            .without_cache()
            .with_work_dir(&blocker)
            .with_exec_policy(policy);
        let tests = TestVectors::constant("In", Scalar::I32(21), 1);
        let start = std::time::Instant::now();
        let err = pipeline
            .run(&small_model(), 10_000_000_000, &tests, &RunOptions::default())
            .unwrap_err();
        assert!(start.elapsed() < Duration::from_secs(5), "held for {:?}", start.elapsed());
        let AccMoSError::Backend(e) = &err else { panic!("expected a backend error: {err}") };
        assert_eq!(e.failure_kind(), Some(FailureKind::Timeout), "{err}");
        assert!(err.to_string().contains("kill deadline"), "{err}");
        std::fs::remove_file(&blocker).unwrap();
    }

    #[test]
    fn each_lane_stops_on_its_own_first_diagnostic() {
        // ×2 overflows at step 0 on lane 0's input and never on lane 1's.
        let model = small_model();
        let pre = preprocess(&model).unwrap();
        let max = TestVectors::constant("In", Scalar::I32(i32::MAX), 1);
        let one = TestVectors::constant("In", Scalar::I32(1), 1);
        let opts =
            RunOptions { stop_on_diagnostic: true, lane_tests: vec![one], ..RunOptions::default() };
        let steps =
            |r: &SimulationReport| r.lane_reports.iter().map(|l| l.steps).collect::<Vec<_>>();
        let interp = exec::interp_lane_run(&pre, &max, &opts, 100);
        assert_eq!(steps(&interp), [1, 100], "interpreter");
        let sim = AccMoS::new().prepare(&model).unwrap();
        let sub = sim.run(100, &max, &opts).unwrap();
        assert_eq!(steps(&sub), [1, 100], "subprocess");
        let so = Compiler::detect().unwrap().compile_shared(sim.program()).unwrap();
        let dy = DylibRunner::for_dylib(&so).run(100, &max, &opts, None).unwrap();
        assert_eq!(steps(&dy.report), [1, 100], "dylib");
        assert_eq!((sub.steps, sub.output_digest), (interp.steps, interp.output_digest));
        assert_eq!(dy.report.output_digest, interp.output_digest);
        sim.clean();
        so.clean();
    }

    #[test]
    fn kill_deadline_bounds_the_interpreter_lanes_together() {
        // Each of 4 lanes takes about 0.45 of the deadline, 1.8 times the
        // deadline together: a machine that runs them up to 1.8 times
        // faster than calibrated still cannot finish them all, and the
        // job is killed.
        let model = small_model();
        let pre = preprocess(&model).unwrap();
        let tests = TestVectors::constant("In", Scalar::I32(21), 1);
        let probe = 50_000u64;
        let fastest = (0..3)
            .map(|_| {
                let start = std::time::Instant::now();
                NormalEngine::new().run(&pre, &tests, &SimOptions::steps(probe));
                start.elapsed()
            })
            .min()
            .unwrap();
        let deadline = Duration::from_secs(1);
        let per_lane = deadline.as_nanos() * 45 / 100;
        let steps = (per_lane * u128::from(probe) / fastest.as_nanos().max(1)) as u64;
        let blocker =
            std::env::temp_dir().join(format!("accmos-run-lanes-deadline-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let pipeline = AccMoS::new()
            .without_cache()
            .with_work_dir(&blocker)
            .with_exec_policy(ExecPolicy::default().with_kill_timeout(deadline));
        let opts = RunOptions { lane_tests: vec![tests.clone(); 3], ..RunOptions::default() };
        let run = pipeline.run(&model, steps, &tests, &opts);
        std::fs::remove_file(&blocker).unwrap();
        let err = run.unwrap_err();
        let AccMoSError::Backend(e) = &err else { panic!("expected a backend error: {err}") };
        assert_eq!(e.failure_kind(), Some(FailureKind::Timeout), "{err}");
    }

    #[test]
    fn reference_engines_run() {
        let model = small_model();
        let tests = TestVectors::constant("In", Scalar::I32(3), 1);
        let sse = run_reference_engine("sse", &model, &tests, &SimOptions::steps(2)).unwrap();
        let ac = run_reference_engine("sse-ac", &model, &tests, &SimOptions::steps(2)).unwrap();
        assert_eq!(sse.output_digest, ac.output_digest);
        assert_eq!(sse.engine, "sse");
        assert_eq!(ac.engine, "sse-ac");
    }
}
