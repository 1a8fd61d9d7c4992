//! The job executor: [`AccMoS::run`], the batch runner, the serve daemon
//! and fuzz trials all walk one engine ladder, **in-process dylib**
//! (serve's trusted specs) → **supervised subprocess** → **interpreter**.
//! A job moves down only for a [`Fallback`] cause; anything else (a
//! timeout, a crash below the quarantine threshold, corrupt protocol
//! output, an I/O error, any failure of a raw executable) ends it. The
//! kill timeout is one deadline per job, read only here: each rung runs
//! under what the rungs before it left ([`Executor::spend`]).
//! A job's [`Trail`] is its one account: [`Exec::record`] is the one place
//! a run-ledger record is built from it, and [`Trail::trace`] the one
//! place its trace spans are.
//!
//! A job that builds its own executable ([`Subject::Plan`]) builds for a
//! step budget of its steps × lanes ([`AccMoS::budgeted`]). Every rung
//! runs a lane job as one run per lane through [`run_lanes`] and folds
//! them ([`SimulationReport::fold_lanes`]).

use crate::telemetry::{self, outcome};
use crate::{
    AccMoS, AccMoSError, BackendError, CompiledDylib, CompiledSimulator, DylibRunner, Engine,
    FailureKind, GeneratedProgram, NormalEngine, OptLevel, PhaseMicros, PreprocessedModel,
    RunOptions, RunRecord, SimOptions, Supervisor, TraceSpan, Tracer,
};
use accmos_backend::{run_lanes, Attempt};
use accmos_ir::{ActorProfile, Model, SimulationReport, TestVectors};
use std::borrow::Cow;
use std::fmt;
use std::path::Path;
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
    pub(crate) fn phases(&self) -> PhaseMicros {
        let analyze = self.program.analyze_time;
        PhaseMicros {
            parse_us: telemetry::micros(self.parse_time),
            preprocess_us: telemetry::micros(self.preprocess_time),
            analyze_us: telemetry::micros(analyze),
            codegen_us: telemetry::micros(self.codegen_time.saturating_sub(analyze)),
            ..PhaseMicros::default()
        }
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
    /// A planned model: the subprocess rung builds its executable when
    /// the ladder reaches it, and the build goes when the rung returns.
    Plan(&'a Plan),
    /// A planned model built ahead of the run (batch compile pool,
    /// [`AccMoS::prepare`]), or its build error; the builder owns it.
    Built(&'a Plan, Result<&'a CompiledSimulator, &'a str>),
    /// A pre-built executable: no model.
    Executable(&'a Path),
}

/// The rung a job enters the ladder at.
#[derive(Clone, Copy)]
pub(crate) enum Entry<'a> {
    /// The in-process dylib rung, serve's trusted specs: the shared object
    /// built for the job, or why it did not build. The rung runs it but
    /// neither builds nor owns it. A `reused` one was planned and built
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

/// The step budget of a run of `steps` on `lanes` lanes: steps × lanes.
pub(crate) fn budget(steps: u64, lanes: usize) -> u64 {
    steps.saturating_mul(lanes as u64)
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

/// The path one job took down the ladder and what it cost: every attempt
/// the supervisor made, the run time summed over every rung and the
/// spans of planning and building. Retries, backoff and child peak RSS
/// are derived from the attempts of the last rung (none when the job
/// ended on the interpreter); the ledger phases ([`Trail::phases`]) and
/// the trace spans ([`Trail::trace`]) are derived from the same account.
#[derive(Debug, Default)]
pub(crate) struct Trail {
    /// Why the job left each rung it left, in rung order.
    pub(crate) causes: Vec<Fallback>,
    /// Every attempt the supervisor made for the job, in order.
    pub(crate) attempts: Vec<Attempt>,
    /// Whether the job ended on the interpreter.
    pub(crate) interpreted: bool,
    /// Whether the last artifact built came out of the build cache.
    pub(crate) compile_cached: bool,
    /// The level of the artifact that ran the job (`None` on the
    /// interpreter).
    pub(crate) opt: Option<OptLevel>,
    pub(crate) run_time: Duration,
    /// The spans of planning and building, parse through compile.
    pub(crate) prepare: PhaseMicros,
}

impl Trail {
    /// The [`Attempt::tally`] of the rung the job ended on: its retries,
    /// their backoff and its peak RSS (all zero on the interpreter).
    pub(crate) fn last_rung(&self) -> (u32, Duration, u64) {
        Attempt::tally(if self.interpreted { &[] } else { &self.attempts })
    }

    /// The job's phase spans in ledger form: planning and building, the
    /// run time summed over every rung, and the backoff every attempt
    /// slept.
    pub(crate) fn phases(&self) -> PhaseMicros {
        PhaseMicros {
            run_us: telemetry::micros(self.run_time),
            backoff_us: telemetry::micros(self.attempts.iter().map(|a| a.backoff).sum()),
            ..self.prepare
        }
    }

    /// Render the finished job's spans on track `tid`, laid end to end
    /// from `start_us` and sized by [`Trail::phases`], so each span lasts
    /// exactly what the job's ledger record says: the job span `name`
    /// over `prepare` (one child per phase, parse through compile) and
    /// `run`. Inside `run`, each attempt's `backoff n` and `attempt n`
    /// (with its outcome and peak RSS, ending in `kill` when the deadline
    /// killed it) follow in the order the supervisor made them, and the
    /// `profile` lays its `actor` leaves ([`Tracer::record_profile`]).
    pub(crate) fn trace(
        &self,
        tracer: &Tracer,
        tid: u64,
        name: &str,
        start_us: u64,
        profile: &[ActorProfile],
    ) {
        let phases = self.phases();
        let names = &PhaseMicros::NAMES[..5];
        let prepare: u64 = (0..names.len()).map(|i| phases.get(i)).sum();
        let run_at = start_us + prepare;
        tracer.span("pipeline", name, start_us, prepare + phases.run_us, tid);
        if prepare > 0 {
            tracer.span("pipeline", "prepare", start_us, prepare, tid);
            let mut at = start_us;
            for (i, phase) in names.iter().enumerate().filter(|&(i, _)| phases.get(i) > 0) {
                tracer.span("pipeline", phase, at, phases.get(i), tid);
                at += phases.get(i);
            }
        }
        if phases.run_us > 0 {
            tracer.span("pipeline", "run", run_at, phases.run_us, tid);
        }
        let mut at = run_at;
        for a in &self.attempts {
            let backoff = telemetry::micros(a.backoff);
            if a.n > 0 {
                tracer.span("supervisor", &format!("backoff {}", a.n), at, backoff, tid);
            }
            at += backoff;
            let dur = telemetry::micros(a.duration);
            let outcome = a.failure.map_or_else(|| "ok".to_owned(), |kind| kind.to_string());
            tracer.record(TraceSpan {
                name: format!("attempt {}", a.n),
                cat: "supervisor".to_owned(),
                start_us: at,
                dur_us: dur,
                tid,
                args: vec![
                    ("outcome".to_owned(), outcome),
                    ("peak_rss_kb".to_owned(), a.peak_rss_kb.to_string()),
                ],
            });
            let deadline = a.deadline.filter(|d| !d.is_zero());
            if let (Some(FailureKind::Timeout), Some(deadline)) = (a.failure, deadline) {
                let kill = telemetry::micros(deadline).min(dur);
                tracer.span("supervisor", "kill", at + kill, dur - kill, tid);
            }
            at += dur;
        }
        tracer.record_profile(run_at, tid, profile);
    }
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

    /// The report's per-actor profile (empty without a report).
    pub(crate) fn profile(&self) -> &[ActorProfile] {
        self.report.as_ref().map_or(&[], |report| &report.profile)
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
        let (retries, _, peak_rss_kb) = self.trail.last_rung();
        rec.retries = u64::from(retries);
        rec.peak_rss_kb = peak_rss_kb;
        rec.phases = self.trail.phases();
        if let Ok(report) = &self.report {
            rec.model = report.model.clone();
            rec.engine = report.engine.clone();
            rec.lanes = report.lane_width();
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
}

impl Executor<'_> {
    /// Run one rung under what is left of the job's kill deadline — the
    /// kill timeout minus the run time of the job's earlier rungs, all of
    /// it for the rung a job enters — and add its run time to the trail.
    /// A rung handed nothing fails with [`FailureKind::Timeout`] before
    /// it runs, as a lane does ([`run_lanes`]).
    fn spend<R>(
        &self,
        trail: &mut Trail,
        rung: impl FnOnce(Option<Duration>, &mut Vec<Attempt>) -> R,
    ) -> R {
        let kill = self.pipeline.exec_policy.kill_timeout;
        let start = Instant::now();
        let out = rung(kill.map(|kill| kill.saturating_sub(trail.run_time)), &mut trail.attempts);
        trail.run_time += start.elapsed();
        out
    }

    /// Walk the whole ladder from `entry`.
    pub(crate) fn run(&self, subject: Subject<'_>, entry: Entry<'_>, job: &Job<'_>) -> Exec {
        let plan = match subject {
            Subject::Plan(plan) | Subject::Built(plan, _) => Some(plan),
            Subject::Executable(_) => None,
        };
        let planned = !matches!(entry, Entry::Dylib { reused: true, .. });
        let prepare = plan.filter(|_| planned).map(Plan::phases).unwrap_or_default();
        let mut trail = Trail { prepare, ..Trail::default() };
        let report = match self.compiled(subject, entry, job, &mut trail) {
            Ok(report) => Ok(report),
            Err(Stop::Failed(e)) => Err(e),
            Err(Stop::Fallback(cause)) => {
                trail.causes.push(cause);
                let plan = plan.expect("only a job with a model falls back");
                self.interpret(&plan.pre, job, &mut trail)
            }
        };
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
        let mut built = None; // an executable this walk builds, dropped on return
        let sim = match subject {
            Subject::Executable(exe) => return self.subprocess(exe, false, job, trail),
            Subject::Built(_, sim) => {
                sim.map_err(|e| Stop::Fallback(Fallback::Compile(e.to_owned())))?
            }
            Subject::Plan(plan) => {
                let budget = budget(job.steps, job.opts.lanes());
                let compiler = self.pipeline.compiler().map(|c| self.pipeline.budgeted(c, budget));
                let sim = compiler.and_then(|c| c.compile(&plan.program));
                &*built.insert(sim.map_err(|e| Stop::Fallback(Fallback::Compile(e.to_string())))?)
            }
        };
        trail.prepare.compile_us += telemetry::micros(sim.compile_time());
        trail.compile_cached = sim.cache_hit();
        trail.opt = Some(sim.opt_level());
        self.subprocess(sim.exe(), true, job, trail)
    }

    /// The in-process rung: call the shared object once per lane, with the
    /// job's deadline as the cooperative deadline of all the lanes.
    fn dylib(
        &self,
        so: Result<&CompiledDylib, &BackendError>,
        reused: bool,
        job: &Job<'_>,
        trail: &mut Trail,
    ) -> Result<SimulationReport, Stop> {
        let so = so.map_err(|e| Stop::Fallback(Fallback::Dylib(e.to_string())))?;
        if !reused {
            trail.prepare.compile_us += telemetry::micros(so.compile_time());
        }
        trail.compile_cached = reused || so.cache_hit();
        trail.opt = Some(so.opt_level());
        let run = self.spend(trail, |deadline, _| {
            DylibRunner::for_dylib(so).run(job.steps, job.tests, job.opts, deadline)
        });
        match run {
            Ok(run) => Ok(SimulationReport { engine: "accmos-dylib".into(), ..run.report }),
            // A cooperative timeout spent the deadline; the subprocess
            // rung would spend it again.
            Err(e @ BackendError::Supervised { .. }) => Err(Stop::Failed(e)),
            Err(e) => Err(Stop::Fallback(Fallback::Dylib(e.to_string()))),
        }
    }

    /// The supervised subprocess rung: run `exe` under the supervisor,
    /// which reports every attempt into the trail. A failure falls back
    /// only when the job has a model and `exe` is quarantined (checked
    /// while the file still exists).
    fn subprocess(
        &self,
        exe: &Path,
        has_model: bool,
        job: &Job<'_>,
        trail: &mut Trail,
    ) -> Result<SimulationReport, Stop> {
        let supervisor =
            self.supervisor.map_or_else(|| Cow::Owned(self.pipeline.supervisor()), Cow::Borrowed);
        let run = self.spend(trail, |deadline, attempts| {
            supervisor.run(exe, deadline, job.steps, job.tests, job.opts, attempts)
        });
        run.map_err(|e| {
            if has_model && supervisor.is_quarantined(exe) {
                Stop::Fallback(Fallback::Quarantine(e.to_string()))
            } else {
                Stop::Failed(e)
            }
        })
    }

    /// The interpreter rung.
    fn interpret(
        &self,
        pre: &PreprocessedModel,
        job: &Job<'_>,
        trail: &mut Trail,
    ) -> Result<SimulationReport, BackendError> {
        trail.interpreted = true;
        trail.opt = None;
        self.spend(trail, |deadline, _| {
            interp_lane_run(pre, job.tests, job.opts, job.steps, deadline)
        })
    }
}

/// Why [`interp_lane_run`] without a deadline cannot fail.
pub(crate) const NO_DEADLINE: &str = "an interpreter run without a kill deadline cannot time out";

/// Run the interpretive [`NormalEngine`] once per lane through
/// [`run_lanes`], as the compiled rungs do, and fold the lanes
/// ([`SimulationReport::fold_lanes`]). Each lane runs under the lesser of
/// what is left of the time budget and of the kill `deadline`; one the
/// deadline cuts short fails the run with [`FailureKind::Timeout`].
pub(crate) fn interp_lane_run(
    pre: &PreprocessedModel,
    tests: &TestVectors,
    opts: &RunOptions,
    steps: u64,
    deadline: Option<Duration>,
) -> Result<SimulationReport, BackendError> {
    let engine = NormalEngine::new();
    let exe = Path::new(engine.name());
    let lanes = run_lanes(exe, steps, tests, opts, deadline, |steps, tests, lane_opts, left| {
        let time_budget = [lane_opts.time_budget, left].into_iter().flatten().min();
        let stop_on_diagnostic = lane_opts.stop_on_diagnostic;
        let sim_opts = SimOptions { steps, time_budget, stop_on_diagnostic };
        let start = Instant::now();
        let report = engine.run(pre, tests, &sim_opts);
        match left {
            Some(left) if report.steps < steps && start.elapsed() >= left => {
                let detail = format!(
                    "interpreter stopped at the {left:?} kill deadline after {} of {steps} step(s)",
                    report.steps
                );
                let (exe, kind) = (exe.to_path_buf(), FailureKind::Timeout);
                Err(BackendError::Supervised { exe, kind, attempts: 1, detail })
            }
            _ => Ok(report),
        }
    })?;
    Ok(SimulationReport::fold_lanes(lanes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_jobs_spans_are_sized_by_its_trail_and_nest_inside_run() {
        let us = Duration::from_micros;
        let attempt = |n, backoff, duration, failure, peak_rss_kb| Attempt {
            n,
            backoff: us(backoff),
            duration: us(duration),
            deadline: Some(Duration::from_secs(1)),
            failure,
            peak_rss_kb,
        };
        let trail = Trail {
            attempts: vec![
                attempt(0, 0, 300, Some(FailureKind::Crashed { signal: 11 }), 90),
                attempt(1, 50, 200, None, 120),
            ],
            run_time: us(600),
            prepare: PhaseMicros {
                parse_us: 10,
                preprocess_us: 20,
                codegen_us: 30,
                compile_us: 40,
                ..PhaseMicros::default()
            },
            ..Trail::default()
        };
        let profile = [ActorProfile { actor: "M_A".into(), ns: 100_000, calls: 10, timed: 1 }];
        let tracer = Tracer::new();
        trail.trace(&tracer, 7, "job", 1_000, &profile);
        let spans = tracer.spans();
        let names: Vec<(&str, &str)> =
            spans.iter().map(|s| (s.cat.as_str(), s.name.as_str())).collect();
        assert_eq!(
            names,
            [
                ("pipeline", "job"),
                ("pipeline", "prepare"),
                ("pipeline", "parse"),
                ("pipeline", "preprocess"),
                ("pipeline", "codegen"),
                ("pipeline", "compile"),
                ("pipeline", "run"),
                ("supervisor", "attempt 0"),
                ("supervisor", "backoff 1"),
                ("supervisor", "attempt 1"),
                ("actor", "M_A"),
            ]
        );
        assert!(spans.iter().all(|s| s.tid == 7));
        let span = |name: &str| spans.iter().find(|s| s.name == name).unwrap();
        let (prepare, run) = (span("prepare"), span("run"));
        let phases = trail.phases();
        for (i, name) in PhaseMicros::NAMES.iter().enumerate().take(5) {
            if let Some(s) = spans.iter().find(|s| s.name == *name) {
                assert_eq!(s.dur_us, phases.get(i), "{name}");
            }
        }
        assert_eq!(run.dur_us, phases.run_us);
        assert!(run.start_us >= prepare.start_us + prepare.dur_us, "run starts after prepare");
        let end = run.start_us + run.dur_us;
        assert_eq!(span("job").start_us + span("job").dur_us, end, "the job ends with run");
        for s in spans.iter().filter(|s| s.cat == "supervisor") {
            assert!(
                s.start_us >= run.start_us && s.start_us + s.dur_us <= end,
                "{} lies outside run",
                s.name
            );
        }
        let arg = |name: &str, key: &str| {
            span(name).args.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()).unwrap()
        };
        assert_eq!(arg("attempt 0", "outcome"), "crashed on signal 11");
        assert_eq!(arg("attempt 1", "outcome"), "ok");
        assert_eq!(arg("attempt 1", "peak_rss_kb"), "120");
        assert_eq!(span("backoff 1").dur_us, 50);
    }
}
