//! The job executor: [`AccMoS::run`], the batch runner, the serve daemon
//! and fuzz trials all walk one engine ladder, **in-process dylib**
//! (serve's trusted specs) → **supervised subprocess** → **interpreter**.
//! A job moves down only for a [`Fallback`] cause; anything else (a
//! timeout, a crash below the quarantine threshold, corrupt protocol
//! output, an I/O error, any failure of a raw executable) ends it. The
//! kill deadline bounds every rung, the interpreter's included.
//! [`Exec::record`] is the one place a run-ledger record is built.
//!
//! A job that builds its own executable ([`Subject::Plan`]) builds for a
//! step budget of its steps × lanes ([`AccMoS::budgeted`]).

use crate::telemetry::{self, outcome};
use crate::{
    AccMoS, AccMoSError, BackendError, CompiledDylib, CompiledSimulator, DylibRunner, Engine,
    FailureKind, GeneratedProgram, NormalEngine, OptLevel, PhaseMicros, PreprocessedModel,
    RunOptions, RunRecord, SimOptions, SupervisedRun, Supervisor,
};
use accmos_ir::{Model, SimulationReport, TestVectors};
use std::borrow::Cow;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A model ready to build: preprocessed and generated, with the time
/// each step took (parse time is set by [`AccMoS::prepare_mdlx`]; code
/// generation includes the proven-safe interval analysis).
#[derive(Debug)]
pub(crate) struct Plan {
    pub(crate) pre: PreprocessedModel,
    pub(crate) program: GeneratedProgram,
    pub(crate) parse_time: Duration,
    pub(crate) preprocess_time: Duration,
    pub(crate) codegen_time: Duration,
}

impl Plan {
    /// The plan's phase spans in ledger form (compile and run unset).
    fn phases(&self) -> PhaseMicros {
        let analyze = self.program.analyze_time;
        PhaseMicros {
            parse_us: telemetry::micros(self.parse_time),
            preprocess_us: telemetry::micros(self.preprocess_time),
            analyze_us: telemetry::micros(analyze),
            codegen_us: telemetry::micros(self.codegen_time.saturating_sub(analyze)),
            ..PhaseMicros::default()
        }
    }

    /// The step budget of one run of `steps` on this plan's build:
    /// steps × lanes.
    pub(crate) fn budget(&self, steps: u64) -> u64 {
        steps.saturating_mul(self.program.lanes.max(1) as u64)
    }
}

impl AccMoS {
    /// The timed plan step every entry point shares: preprocess and
    /// generate `model`.
    pub(crate) fn plan(&self, model: &Model) -> Result<Plan, AccMoSError> {
        let start = Instant::now();
        let pre = crate::preprocess(model)?;
        let preprocess_time = start.elapsed();
        let start = Instant::now();
        let program = accmos_codegen::generate(&pre, &self.codegen);
        Ok(Plan {
            pre,
            program,
            parse_time: Duration::ZERO,
            preprocess_time,
            codegen_time: start.elapsed(),
        })
    }
}

/// What a job runs.
#[derive(Clone, Copy)]
pub(crate) enum Subject<'a> {
    /// A planned model: the subprocess rung builds (and cleans) its
    /// executable when the ladder reaches it.
    Plan(&'a Plan),
    /// A planned model built ahead of the run (batch compile pool,
    /// [`AccMoS::prepare`]), or its build error; the builder cleans it.
    Built(&'a Plan, Result<&'a CompiledSimulator, &'a str>),
    /// A pre-built executable and its scratch directory: no model.
    Executable(&'a Path, &'a Path),
}

/// The rung a job enters the ladder at.
#[derive(Clone, Copy)]
pub(crate) enum Entry<'a> {
    /// The in-process dylib rung, serve's trusted specs: the shared object
    /// built for the job, or why it did not build. The rung runs it but
    /// neither builds nor cleans it. A `reused` one was planned and built
    /// by an earlier job, so this job's record charges neither.
    Dylib { so: Result<&'a CompiledDylib, &'a BackendError>, reused: bool },
    /// The supervised subprocess rung: every other job.
    Subprocess,
    /// The subprocess rung for an untrusted spec ([`Fallback::Untrusted`]).
    Untrusted,
}

/// One job's run: steps, stimulus and per-run options.
pub(crate) struct Job<'a> {
    pub(crate) steps: u64,
    pub(crate) tests: &'a TestVectors,
    pub(crate) opts: &'a RunOptions,
}

/// Why a job moved down the ladder: an untrusted spec skipped the dylib
/// rung, the dylib rung failed, or the executable did not build or is
/// quarantined.
#[derive(Debug)]
pub(crate) enum Fallback {
    Untrusted,
    Dylib(String),
    Compile(String),
    Quarantine(String),
}

impl fmt::Display for Fallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fallback::Untrusted => write!(f, "isolation: subprocess (untrusted rand: model)"),
            Fallback::Dylib(e) => write!(f, "dylib fallback: {e}"),
            Fallback::Compile(e) => write!(f, "compile failed: {e}"),
            Fallback::Quarantine(e) => write!(f, "quarantined: {e}"),
        }
    }
}

/// Where the compiled rungs stopped without a report: the job may go on
/// to the interpreter for a cause, or it ends with an error.
#[derive(Debug)]
pub(crate) enum Stop {
    Fallback(Fallback),
    Failed(BackendError),
}

/// The path one job took down the ladder and what it cost. Retries,
/// backoff and child peak RSS are the last rung's (zero on the
/// interpreter); run time and phase spans add up over every rung.
#[derive(Debug, Default)]
pub(crate) struct Trail {
    /// Why the job left each rung it left, in rung order.
    pub(crate) causes: Vec<Fallback>,
    pub(crate) retries: u32,
    pub(crate) backoff: Duration,
    pub(crate) peak_rss_kb: u64,
    /// Whether the last artifact built came out of the build cache.
    pub(crate) compile_cached: bool,
    /// The level of the artifact that ran the job (`None` on the
    /// interpreter).
    pub(crate) opt: Option<OptLevel>,
    pub(crate) run_time: Duration,
    pub(crate) phases: PhaseMicros,
}

/// What one job came to: its report or the error that ended it, and the
/// trail that led there.
#[derive(Debug)]
pub(crate) struct Exec {
    pub(crate) report: Result<SimulationReport, AccMoSError>,
    pub(crate) trail: Trail,
}

impl Exec {
    /// A job that ended before reaching the ladder (say, an unplannable model).
    pub(crate) fn failed(err: AccMoSError) -> Exec {
        Exec { report: Err(err), trail: Trail::default() }
    }

    /// Why a job that produced a report left the rung it entered: the
    /// fallback causes, joined in rung order.
    pub(crate) fn fallback_reason(&self) -> Option<String> {
        (self.report.is_ok() && !self.trail.causes.is_empty()).then(|| self.note())
    }

    /// The ledger outcome ([`outcome`]).
    pub(crate) fn outcome(&self) -> &'static str {
        match &self.report {
            Ok(_) if self.trail.causes.is_empty() => outcome::OK,
            Ok(_) => outcome::DEGRADED,
            Err(AccMoSError::Backend(BackendError::Quarantined { .. })) => outcome::QUARANTINED,
            Err(_) => outcome::FAILED,
        }
    }

    /// The fallback causes, then the error that ended the job, joined with
    /// `; ` (empty for a job that ran where it entered).
    pub(crate) fn note(&self) -> String {
        let mut parts: Vec<String> = self.trail.causes.iter().map(ToString::to_string).collect();
        if let Err(e) = &self.report {
            parts.push(e.to_string());
        }
        parts.join("; ")
    }

    /// The job's run-ledger record. `name` and `lanes` stand in for the
    /// report's model name and lane width when the job produced none.
    pub(crate) fn record(&self, source: &str, name: &str, steps: u64, lanes: u64) -> RunRecord {
        let mut rec = RunRecord::new(source, name);
        rec.steps = steps;
        rec.lanes = lanes;
        rec.outcome = self.outcome().into();
        rec.note = self.note();
        rec.compile_cached = self.trail.compile_cached;
        rec.opt = self.trail.opt.map_or_else(String::new, |opt| opt.label().to_owned());
        rec.retries = u64::from(self.trail.retries);
        rec.peak_rss_kb = self.trail.peak_rss_kb;
        rec.phases = self.trail.phases;
        if let Ok(report) = &self.report {
            rec.model = report.model.clone();
            rec.engine = report.engine.clone();
            rec.lanes = report.lane_width();
            rec.prof = telemetry::encode_profile(&report.profile);
        }
        rec
    }
}

/// Walks jobs down the ladder under one pipeline's configuration.
pub(crate) struct Executor<'a> {
    pub(crate) pipeline: &'a AccMoS,
    /// The subprocess rung's supervisor; `None` makes the pipeline's own
    /// only if the ladder reaches that rung.
    pub(crate) supervisor: Option<&'a Supervisor>,
    /// When the job began planning: [`AccMoS::run`] sets it, and its
    /// trace gets `prepare` and `run` spans on track 1.
    pub(crate) traced_from: Option<u64>,
}

impl Executor<'_> {
    /// Walk the whole ladder from `entry`.
    pub(crate) fn run(&self, subject: Subject<'_>, entry: Entry<'_>, job: &Job<'_>) -> Exec {
        let plan = match subject {
            Subject::Plan(plan) | Subject::Built(plan, _) => Some(plan),
            Subject::Executable(..) => None,
        };
        let planned = !matches!(entry, Entry::Dylib { reused: true, .. });
        let phases = plan.filter(|_| planned).map(Plan::phases).unwrap_or_default();
        let mut trail = Trail { phases, ..Trail::default() };
        let report = match self.compiled(subject, entry, job, &mut trail) {
            Ok(report) => Ok(report),
            Err(Stop::Failed(e)) => Err(e),
            Err(Stop::Fallback(cause)) => {
                trail.causes.push(cause);
                let plan = plan.expect("only a job with a model falls back");
                self.interpret(&plan.pre, job, &mut trail)
            }
        };
        trail.phases.run_us = telemetry::micros(trail.run_time);
        Exec { report: report.map_err(AccMoSError::Backend), trail }
    }

    /// The compiled rungs: the dylib (from [`Entry::Dylib`]), then the
    /// subprocess. Fuzz trials stop here and map the [`Stop`] to verdicts.
    pub(crate) fn compiled(
        &self,
        subject: Subject<'_>,
        entry: Entry<'_>,
        job: &Job<'_>,
        trail: &mut Trail,
    ) -> Result<SimulationReport, Stop> {
        match entry {
            Entry::Dylib { so, reused } => match self.dylib(so, reused, job, trail) {
                Err(Stop::Fallback(cause)) => trail.causes.push(cause),
                done => return done,
            },
            Entry::Untrusted => trail.causes.push(Fallback::Untrusted),
            Entry::Subprocess => {}
        }
        let mut built = None; // an executable this walk builds, and cleans
        let sim = match subject {
            Subject::Executable(exe, dir) => {
                return self.subprocess(exe, false, trail, |s| {
                    s.run(exe, dir, job.steps, job.tests, job.opts)
                });
            }
            Subject::Built(_, sim) => {
                sim.map_err(|e| Stop::Fallback(Fallback::Compile(e.to_owned())))?
            }
            Subject::Plan(plan) => {
                let budget = plan.budget(job.steps);
                let sim = self.pipeline.compiler().and_then(|c| {
                    self.pipeline.budgeted(c, budget).compile(&plan.program)
                });
                &*built.insert(sim.map_err(|e| Stop::Fallback(Fallback::Compile(e.to_string())))?)
            }
        };
        trail.phases.compile_us += telemetry::micros(sim.compile_time());
        trail.compile_cached = sim.cache_hit();
        trail.opt = Some(sim.opt_level());
        self.trace_prepare(&trail.phases);
        let run = self.subprocess(sim.exe(), true, trail, |s| {
            sim.run_supervised(job.steps, job.tests, job.opts, s)
        });
        if let Some(sim) = &built {
            sim.clean();
        }
        run
    }

    /// The in-process rung: call the shared object once, with the kill
    /// timeout as its cooperative deadline.
    fn dylib(
        &self,
        so: Result<&CompiledDylib, &BackendError>,
        reused: bool,
        job: &Job<'_>,
        trail: &mut Trail,
    ) -> Result<SimulationReport, Stop> {
        let so = so.map_err(|e| Stop::Fallback(Fallback::Dylib(e.to_string())))?;
        if !reused {
            trail.phases.compile_us += telemetry::micros(so.compile_time());
        }
        trail.compile_cached = reused || so.cache_hit();
        trail.opt = Some(so.opt_level());
        let start = Instant::now();
        let deadline = self.pipeline.exec_policy.kill_timeout;
        let run = DylibRunner::for_dylib(so).run(job.steps, job.tests, job.opts, deadline);
        trail.run_time += start.elapsed();
        match run {
            Ok(run) => Ok(SimulationReport { engine: "accmos-dylib".into(), ..run.report }),
            // A cooperative timeout spent the deadline; the subprocess
            // rung would spend it again.
            Err(e @ BackendError::Supervised { .. }) => Err(Stop::Failed(e)),
            Err(e) => Err(Stop::Fallback(Fallback::Dylib(e.to_string()))),
        }
    }

    /// The supervised subprocess rung: `run` executes `exe` under the
    /// supervisor. A failure falls back only when the job has a model
    /// and `exe` is quarantined (checked while the file still exists).
    fn subprocess(
        &self,
        exe: &Path,
        has_model: bool,
        trail: &mut Trail,
        run: impl FnOnce(&Supervisor) -> Result<SupervisedRun, BackendError>,
    ) -> Result<SimulationReport, Stop> {
        let supervisor =
            self.supervisor.map_or_else(|| Cow::Owned(self.pipeline.supervisor()), Cow::Borrowed);
        let tracer = self.traced_from.and(self.pipeline.tracer());
        let span_start = tracer.map(|t| t.now_us());
        let start = Instant::now();
        let result = run(&supervisor);
        trail.run_time += start.elapsed();
        if let (Some(t), Some(at)) = (tracer, span_start) {
            t.span("pipeline", "run", at, t.now_us().saturating_sub(at), 1);
        }
        match result {
            Ok(run) => {
                if let (Some(t), Some(at)) = (tracer, span_start) {
                    t.record_profile(at, 1, &run.report.profile);
                }
                trail.retries = run.retries;
                trail.backoff = run.backoff;
                trail.peak_rss_kb = run.peak_rss_kb;
                trail.phases.backoff_us += telemetry::micros(run.backoff);
                Ok(run.report)
            }
            Err(e) => {
                if let BackendError::Supervised { exe, attempts, .. } = &e {
                    // The supervisor slept exactly this before retries
                    // 1..attempts; a failed run does not report it.
                    trail.retries = attempts.saturating_sub(1);
                    trail.backoff =
                        (1..*attempts).map(|r| supervisor.policy().backoff_before(exe, r)).sum();
                    trail.phases.backoff_us += telemetry::micros(trail.backoff);
                }
                if has_model && supervisor.is_quarantined(exe) {
                    return Err(Stop::Fallback(Fallback::Quarantine(e.to_string())));
                }
                Err(Stop::Failed(e))
            }
        }
    }

    /// The interpreter rung, under `min(job budget, kill timeout)` over
    /// all lanes together. A run the kill deadline cuts short fails with
    /// [`FailureKind::Timeout`].
    fn interpret(
        &self,
        pre: &PreprocessedModel,
        job: &Job<'_>,
        trail: &mut Trail,
    ) -> Result<SimulationReport, BackendError> {
        (trail.retries, trail.backoff, trail.peak_rss_kb) = (0, Duration::ZERO, 0);
        trail.opt = None;
        let kill = self.pipeline.exec_policy.kill_timeout;
        let mut opts = job.opts.clone();
        opts.time_budget = [opts.time_budget, kill].into_iter().flatten().min();
        let start = Instant::now();
        let report = interp_lane_run(pre, job.tests, &opts, job.steps);
        let elapsed = start.elapsed();
        trail.run_time += elapsed;
        let cut_short =
            std::iter::once(&report).chain(&report.lane_reports).any(|r| r.steps < job.steps);
        match kill {
            Some(kill) if cut_short && elapsed >= kill => Err(BackendError::Supervised {
                exe: PathBuf::from(&report.engine),
                kind: FailureKind::Timeout,
                attempts: 1,
                detail: format!(
                    "interpreter stopped at the {kill:?} kill deadline after {} of {} step(s)",
                    report.steps, job.steps
                ),
            }),
            _ => Ok(report),
        }
    }

    /// [`AccMoS::run`]'s `prepare` span, from planning to the executable
    /// in hand, with the phase breakdown (measured as durations) laid
    /// end to end inside it.
    fn trace_prepare(&self, phases: &PhaseMicros) {
        let (Some(t), Some(start)) = (self.pipeline.tracer(), self.traced_from) else {
            return;
        };
        t.span("pipeline", "prepare", start, t.now_us().saturating_sub(start), 1);
        let mut at = start;
        for (i, name) in PhaseMicros::NAMES.iter().enumerate().take(5) {
            let us = phases.get(i);
            if us > 0 {
                t.span("pipeline", name, at, us, 1);
                at += us;
            }
        }
    }
}

/// Run the interpretive [`NormalEngine`] over the full lane stimulus set
/// (the primary `tests` plus [`RunOptions::lane_tests`]) and aggregate the
/// per-lane reports the way a lane-parallel compiled simulator does:
/// coverage bitmaps OR-reduced and re-summarized, the top-level digest an
/// FNV fold of the lane digests, diagnostics merged across lanes, final
/// outputs mirroring lane 0, one time budget for all lanes together.
/// Scalar runs (no `lane_tests`) go straight to [`Engine::run`]. With
/// [`RunOptions::stop_on_diagnostic`] each interpreted lane stops on *its
/// own* first diagnostic, whereas the compiled lane-blocked driver stops
/// every lane at the first 4,096-step block boundary after any lane's
/// diagnostic.
pub(crate) fn interp_lane_run(
    pre: &PreprocessedModel,
    tests: &TestVectors,
    opts: &RunOptions,
    steps: u64,
) -> SimulationReport {
    let engine = NormalEngine::new();
    let mut sim_opts = SimOptions::steps(steps);
    sim_opts.stop_on_diagnostic = opts.stop_on_diagnostic;
    sim_opts.time_budget = opts.time_budget;
    if opts.lane_tests.is_empty() {
        return engine.run(pre, tests, &sim_opts);
    }
    let wall_start = Instant::now();
    let mut lanes = Vec::with_capacity(1 + opts.lane_tests.len());
    let mut union: Option<accmos_ir::CoverageBitmaps> = None;
    let mut digest = accmos_ir::OutputDigest::new();
    for lane_tests in std::iter::once(tests).chain(opts.lane_tests.iter()) {
        sim_opts.time_budget = opts.time_budget.map(|b| b.saturating_sub(wall_start.elapsed()));
        let (lane, bitmaps) = engine.run_with_bitmaps(pre, lane_tests, &sim_opts);
        match &mut union {
            Some(u) => u.merge(&bitmaps),
            None => union = Some(bitmaps),
        }
        digest.write_u64(lane.output_digest);
        lanes.push(lane);
    }
    let mut report = SimulationReport::new(lanes[0].model.clone(), lanes[0].engine.clone());
    report.steps = lanes.iter().map(|l| l.steps).max().unwrap_or(0);
    report.wall = wall_start.elapsed();
    report.output_digest = digest.finish();
    if lanes[0].coverage.is_some() {
        report.coverage = union.map(|u| pre.coverage.map.summarize(&u));
    }
    report.attach_lanes(lanes);
    report
}
