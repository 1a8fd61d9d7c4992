//! `accmos` — the AccMoS-RS command-line interface.
//!
//! ```text
//! accmos info     <model.mdlx>
//! accmos analyze  <model.mdlx> [--format text|json] [--deny SEV] [--tests t.csv]
//! accmos generate <model.mdlx> [--out DIR] [--rapid]
//! accmos simulate <model.mdlx> --steps N [--tests t.csv] [--engine E]
//!                 [--stop-on-diag] [--budget-ms N] [--seed N] [--rows N]
//!                 [--exec-timeout MS] [--retries N] [--lanes N]
//!                 [--profile] [--trace-out trace.json]
//! accmos profile  <model.mdlx> [--steps N] [--seed N] [--rows N] [--lanes N]
//!                 [--format text|json] [--trace-out trace.json]
//! accmos batch    <model.mdlx>... --steps N [--repeat K] [--jobs N]
//!                 [--seed N] [--rows N] [--no-cache]
//!                 [--exec-timeout MS] [--retries N] [--lanes N]
//!                 [--trace-out trace.json]
//! accmos trends   [--cache-dir DIR] [--check] [--max-regress PCT]
//!                 [--format text|json]
//! accmos fuzz     [--trials N] [--seed N] [--steps N] [--rows N] [--resume]
//!                 [--cache-dir DIR] [--corpus DIR] [--no-minimize] [--max-trials N]
//!                 [--inject PATH] [--sabotage] [--exec-timeout MS] [--retries N]
//!                 [--pin INDEX] [--trace-out trace.json]
//! ```
//!
//! Model arguments are `.mdlx` file paths, `bench:NAME` for a built-in
//! Table 1 benchmark (e.g. `bench:CSEV`; names match case-insensitively),
//! `bench:figure1`, or `rand:SEED`
//! for the differential fuzzer's deterministic random model with that
//! seed (handy for reproducing a fuzz trial standalone: `accmos generate
//! rand:42`, `accmos simulate rand:42 --steps 64`).
//!
//! `analyze` runs the static interval/type-flow analysis and prints the
//! lint findings; `--deny error` (or `warning`/`info`) exits non-zero when
//! any finding at or above that severity exists, for CI gates. `--tests`
//! seeds the input-port intervals from a test-vector file, sharpening
//! lints (never prune proofs, which must hold for any stimulus).
//!
//! Engines: `accmos` (generated C, default; `-O1` below 1,000,000 steps
//! × lanes unless a cached `-O3` build exists, `-O3` from there on), `rac`
//! (uninstrumented `-O0` + host sync), `sse` and `sse-ac` (interpretive
//! stand-ins).
//! Without `--tests`, seeded random stimulus is generated for every input
//! port.
//!
//! `batch` runs every listed model (`--repeat` times each, with a distinct
//! stimulus seed per repetition) on a bounded worker pool, compiling each
//! unique generated program once; `--no-cache` forces cold compiles.
//!
//! `--lanes N` (simulate/profile/batch, `accmos` engine only) runs the
//! model's one simulator N times, once per lane. Each lane gets its own
//! seeded random stimulus, lane k on seed + k (with an explicit `--tests`
//! file, every lane replays the file); results come back with the union
//! of the lanes' coverage, an FNV fold of the per-lane digests, and
//! per-lane diagnostics and step counts. Each lane stops on its own
//! first diagnostic, and `--budget-ms` and `--exec-timeout` bound all
//! lanes together. The other engines reject lanes > 1.
//!
//! `trends` reads the persistent run ledger (`ledger.jsonl` under the
//! cache directory; `simulate`, `profile`, `batch` and `serve` append to
//! it automatically unless caching is disabled) and prints phase medians
//! per model, engine, lane width, level and step count. With `--check`,
//! it exits non-zero when any model's latest run is more than
//! `--max-regress` percent (default 25) slower than the median of its
//! earlier runs of the same configuration — a CI performance gate.
//!
//! `fuzz` runs a seeded differential campaign: each trial generates a
//! random model (conditional groups, nested subsystems, vectors, floats,
//! lane widths in {1,4}) and compares the interpretive reference and the
//! generated-C simulator (analyzer-pruned and unpruned builds),
//! exactly — digests, final outputs, signal logs, steps, coverage
//! bitmaps, diagnostics, probe events and each lane's report. Compiled
//! trials run under the supervisor, so crashes and hangs become
//! classified verdicts, not dead campaigns. State is an append-only
//! `fuzz.jsonl` under the cache directory; `--resume` skips trial
//! indices already recorded for the campaign seed. A divergence is
//! delta-debug minimized and (with `--corpus DIR`) written as a
//! replayable `.mdlx` + `.expected` repro pair. `--inject PATH` points
//! at a faultsim-style binary to schedule deterministic crash/hang
//! trials; `--sabotage` plants a test-only digest divergence in the
//! generated C to prove the detector end-to-end. Exits non-zero when
//! any trial diverged or escaped classification.
//!
//! `--exec-timeout` is one job's hard kill deadline (distinct from
//! `simulate --budget-ms`, the simulator's own cooperative budget); on
//! `fuzz` it bounds each trial run. `--retries` bounds re-runs after
//! crashes or transient failures. Jobs that cannot use their compiled
//! simulator (compile failure, quarantined binary) degrade to the
//! interpretive engine and are reported as degraded; the interpreter runs
//! under what the compiled rungs left of the deadline.
//!
//! `profile` compiles the model with self-profiling instrumentation
//! (per-actor cumulative nanosecond counters, digest-identical to the
//! unprofiled build), runs it, and prints a hot-actor report ranked by
//! cumulative time — with each site's share and call count (once per
//! step, summed over the lanes with `--lanes N`).
//! `--profile` on `simulate` enables the same instrumentation without
//! changing the normal report output.
//!
//! `--trace-out PATH` (simulate/profile/batch/fuzz) writes a Chrome
//! trace-event JSON file (loadable in Perfetto or `chrome://tracing`)
//! with hierarchical spans per job: pipeline phases, the supervisor's
//! attempts (with deadline kills and retry backoff) and per-actor profile
//! leaves when profiling is on, sized as in the job's ledger record.
//!
//! Every subcommand accepts exactly the flags its usage line lists: an
//! unknown flag, a flag missing its value or a non-numeric value for a
//! numeric flag exits non-zero with usage instead of being ignored. A
//! failure that is not a usage error (a timed-out run, a failed job, an
//! unreadable model file) exits non-zero with its one `accmos:` line.

use accmos::telemetry::JsonObject;
use accmos::{load_spec, AccMoS, BatchJob, BatchRunner, ExecPolicy, RunOptions, SimOptions};
use accmos_ir::{Model, SimulationReport, TestVectors};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(msg)) => {
            eprintln!("accmos: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        Err(Failure::Run(msg)) => {
            eprintln!("accmos: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Why a command failed. A usage error — an unknown command or flag, a
/// flag missing its value, an unparsable value, a wrong count of
/// positional arguments — is answered with [`USAGE`]; any other failure
/// with its one line.
#[derive(Debug, PartialEq)]
enum Failure {
    Usage(String),
    Run(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Failure {
        Failure::Run(msg)
    }
}

fn usage(msg: impl Into<String>) -> Failure {
    Failure::Usage(msg.into())
}

const USAGE: &str = "\
usage: (models are .mdlx paths or bench:NAME for a built-in benchmark)
  accmos info     <model.mdlx>
  accmos analyze  <model.mdlx> [--format text|json] [--deny info|warning|error] [--tests t.csv]
  accmos generate <model.mdlx> [--out DIR] [--rapid] [--profile]
  accmos simulate <model.mdlx> --steps N [--tests t.csv] [--engine accmos|rac|sse|sse-ac]
                  [--stop-on-diag] [--budget-ms N] [--seed N] [--rows N]
                  [--exec-timeout MS] [--retries N] [--lanes N]
                  [--profile] [--trace-out trace.json]
  accmos profile  <model.mdlx> [--steps N] [--tests t.csv] [--seed N] [--rows N] [--lanes N]
                  [--format text|json] [--trace-out trace.json] [--exec-timeout MS] [--retries N]
  accmos batch    <model.mdlx>... --steps N [--repeat K] [--jobs N] [--seed N] [--rows N]
                  [--no-cache] [--exec-timeout MS] [--retries N] [--lanes N]
                  [--trace-out trace.json]
  accmos trends   [--cache-dir DIR] [--check] [--max-regress PCT] [--format text|json]
  accmos serve    [--socket PATH] [--workers N] [--cache-dir DIR]
                  [--exec-timeout MS] [--retries N]
  accmos submit   [<model> [STEPS]] [--socket PATH] [--cache-dir DIR] [--steps N]
                  [--lanes N] [--rows N] [--seed N] [--ping] [--shutdown]
  accmos fuzz     [--trials N] [--seed N] [--steps N] [--rows N] [--resume]
                  [--cache-dir DIR] [--corpus DIR] [--no-minimize] [--max-trials N]
                  [--inject PATH] [--sabotage]
                  [--exec-timeout MS] [--retries N] [--pin INDEX] [--trace-out trace.json]
(rand:SEED is the fuzzer's deterministic random model for that seed)";

fn run(args: &[String]) -> Result<(), Failure> {
    let cmd = args.first().ok_or_else(|| usage("missing command"))?;
    let spec = Spec::of(cmd).ok_or_else(|| usage(format!("unknown command `{cmd}`")))?;
    let args = &args[1..];
    let positional = spec.check(args)?;
    match cmd.as_str() {
        "info" => info(&load_spec(positional[0])?),
        "analyze" => analyze(&load_spec(positional[0])?, args),
        "generate" => generate(&load_spec(positional[0])?, args),
        "simulate" => simulate(&load_spec(positional[0])?, args),
        "profile" => profile(&load_spec(positional[0])?, args),
        "batch" => batch(&positional, args),
        "trends" => trends(args),
        "fuzz" => fuzz(args),
        #[cfg(unix)]
        "serve" => serve(args),
        #[cfg(unix)]
        "submit" => submit(&positional, args),
        _ => Err(format!("`{cmd}` requires a Unix platform").into()),
    }
}

/// The arguments one subcommand accepts, mirroring its line in [`USAGE`].
struct Spec {
    /// Accepted count of positional arguments (model specs, step count).
    positional: std::ops::RangeInclusive<usize>,
    /// Flags followed by a value (`--steps N`).
    values: &'static [&'static str],
    /// Flags that stand alone (`--resume`).
    switches: &'static [&'static str],
}

impl Spec {
    /// The spec of subcommand `cmd`, `None` for an unknown command.
    fn of(cmd: &str) -> Option<Spec> {
        let (positional, values, switches): (_, &[&str], &[&str]) = match cmd {
            "info" => (1..=1, &[], &[]),
            "analyze" => (1..=1, &["--format", "--deny", "--tests"], &[]),
            "generate" => (1..=1, &["--out"], &["--rapid", "--profile"]),
            "simulate" => (
                1..=1,
                &[
                    "--steps", "--tests", "--engine", "--budget-ms", "--seed", "--rows",
                    "--exec-timeout", "--retries", "--lanes", "--trace-out",
                ],
                &["--stop-on-diag", "--profile"],
            ),
            "profile" => (
                1..=1,
                &[
                    "--steps", "--tests", "--seed", "--rows", "--lanes", "--format", "--trace-out",
                    "--exec-timeout", "--retries",
                ],
                &[],
            ),
            "batch" => (
                1..=usize::MAX,
                &[
                    "--steps", "--repeat", "--jobs", "--seed", "--rows", "--exec-timeout",
                    "--retries", "--lanes", "--trace-out",
                ],
                &["--no-cache"],
            ),
            "trends" => (0..=0, &["--cache-dir", "--max-regress", "--format"], &["--check"]),
            "serve" => (
                0..=0,
                &["--socket", "--workers", "--cache-dir", "--exec-timeout", "--retries"],
                &[],
            ),
            "submit" => (
                0..=2,
                &["--socket", "--cache-dir", "--steps", "--lanes", "--rows", "--seed"],
                &["--ping", "--shutdown"],
            ),
            "fuzz" => (
                0..=0,
                &[
                    "--trials", "--seed", "--steps", "--rows", "--cache-dir", "--corpus",
                    "--max-trials", "--inject", "--exec-timeout", "--retries", "--pin",
                    "--trace-out",
                ],
                &["--resume", "--no-minimize", "--sabotage"],
            ),
            _ => return None,
        };
        Some(Spec { positional, values, switches })
    }

    /// Reject unknown flags, value flags without a usable value and a
    /// wrong count of positional arguments; return the positional
    /// arguments.
    fn check<'a>(&self, args: &'a [String]) -> Result<Vec<&'a str>, Failure> {
        let mut positional = Vec::new();
        let mut it = args.iter().map(String::as_str);
        while let Some(arg) = it.next() {
            if self.values.contains(&arg) {
                let value = it.next().ok_or_else(|| usage(format!("`{arg}` needs a value")))?;
                check_value(arg, value)?;
            } else if !arg.starts_with("--") {
                positional.push(arg);
            } else if !self.switches.contains(&arg) {
                return Err(usage(format!("unknown flag `{arg}`")));
            }
        }
        if positional.len() < *self.positional.start() {
            return Err(usage("missing model file"));
        }
        match positional.get(*self.positional.end()) {
            Some(extra) => Err(usage(format!("unexpected argument `{extra}`"))),
            None => Ok(positional),
        }
    }
}

/// Check the value of flag `name` before any model is resolved, so a
/// usage error is never masked by a runtime one: `--engine`, `--format`
/// and `--deny` take one of their names, path flags take any value, and
/// every other value flag takes a number.
fn check_value(name: &str, v: &str) -> Result<(), Failure> {
    match name {
        "--engine" if !matches!(v, "accmos" | "rac" | "sse" | "sse-ac") => {
            Err(usage(format!("unknown engine `{v}`")))
        }
        "--format" if !matches!(v, "text" | "json") => {
            Err(usage(format!("unknown format `{v}` (text|json)")))
        }
        "--deny" => v.parse::<accmos::Severity>().map(drop).map_err(usage),
        "--max-regress" => parse_value::<f64>(name, v).map(drop),
        "--retries" => parse_value::<u32>(name, v).map(drop),
        "--engine" | "--format" | "--tests" | "--out" | "--trace-out" | "--cache-dir"
        | "--corpus" | "--inject" | "--socket" => Ok(()),
        _ => parse_value::<u64>(name, v).map(drop),
    }
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn opt<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// `v`, the value of flag `name`, parsed as `T`: an error naming the flag
/// and the value when it does not parse.
fn parse_value<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, Failure> {
    v.parse().map_err(|_| usage(format!("bad value `{v}` for {name}")))
}

/// The value of flag `name` parsed as `T`: `None` when the flag is
/// absent.
fn opt_parse<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, Failure> {
    opt(args, name).map(|v| parse_value(name, v)).transpose()
}

fn opt_u64(args: &[String], name: &str, default: u64) -> Result<u64, Failure> {
    Ok(opt_parse(args, name)?.unwrap_or(default))
}

/// `policy` with `--exec-timeout` / `--retries` applied (untouched when
/// the flags are absent).
fn exec_policy(args: &[String], mut policy: ExecPolicy) -> Result<ExecPolicy, Failure> {
    if let Some(ms) = opt_parse(args, "--exec-timeout")? {
        policy = policy.with_kill_timeout(Duration::from_millis(ms));
    }
    if let Some(n) = opt_parse(args, "--retries")? {
        policy = policy.with_retries(n);
    }
    Ok(policy)
}

fn info(model: &Model) -> Result<(), Failure> {
    let pre = accmos::preprocess(model).map_err(|e| e.to_string())?;
    let flat = &pre.flat;
    println!("model `{}`", model.name);
    println!("  actors:      {}", flat.actors.len());
    println!("  subsystems:  {}", model.root.subsystem_count());
    println!("  signals:     {}", flat.signals.len());
    println!("  groups:      {} (enabled/triggered subsystems)", flat.groups.len());
    println!("  data stores: {}", flat.stores.len());
    println!(
        "  io:          {} inport(s), {} outport(s)",
        flat.root_inports.len(),
        flat.root_outports.len()
    );
    for kind in accmos_ir::CoverageKind::ALL {
        println!(
            "  {:<10} {} coverage points",
            format!("{}:", kind.name()),
            pre.coverage.map.total(kind)
        );
    }
    println!("  calculation actors (default diagnose list): {}", flat.calculation_count());
    Ok(())
}

fn analyze(model: &Model, args: &[String]) -> Result<(), Failure> {
    let deny: Option<accmos::Severity> = opt_parse(args, "--deny")?;
    let pre = accmos::preprocess(model).map_err(|e| e.to_string())?;
    let tests = match opt(args, "--tests") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            Some(TestVectors::from_csv(&text).map_err(|e| e.to_string())?)
        }
        None => None,
    };
    let analysis = accmos::analyze_with_tests(&pre, tests.as_ref());
    if opt(args, "--format") == Some("json") {
        println!("{}", analysis.render_json());
    } else {
        print!("{}", analysis.render_text());
    }
    if let Some(deny) = deny {
        if analysis.max_severity().is_some_and(|worst| worst >= deny) {
            return Err(format!("analysis found findings at or above `{deny}` severity").into());
        }
    }
    Ok(())
}

fn generate(model: &Model, args: &[String]) -> Result<(), Failure> {
    let out = opt(args, "--out").unwrap_or(".");
    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
    let pre = accmos::preprocess(model).map_err(|e| e.to_string())?;
    let mut opts = if flag(args, "--rapid") {
        accmos::CodegenOptions::rapid_accelerator()
    } else {
        accmos::CodegenOptions::accmos()
    };
    if flag(args, "--profile") {
        opts = opts.with_profile();
    }
    let program = accmos_codegen::generate(&pre, &opts);
    for (name, contents) in program.files() {
        let path = format!("{out}/{name}");
        std::fs::write(&path, contents).map_err(|e| e.to_string())?;
        println!("wrote {path}");
    }
    Ok(())
}

/// The stimulus of a `--lanes N` run: with a `--tests` file, the file on
/// every lane; without one, seeded random vectors with lane k on seed + k
/// ([`accmos::fuzz::lane_stimulus`]).
fn lane_stimulus(
    pre: &accmos::PreprocessedModel,
    tests_file: Option<&str>,
    rows: usize,
    seed: u64,
    lanes: usize,
) -> Result<(TestVectors, Vec<TestVectors>), String> {
    let Some(path) = tests_file else {
        return Ok(accmos::fuzz::lane_stimulus(pre, rows, seed, lanes));
    };
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let tests = TestVectors::from_csv(&text).map_err(|e| e.to_string())?;
    Ok((tests.clone(), vec![tests; lanes.saturating_sub(1)]))
}

fn simulate(model: &Model, args: &[String]) -> Result<(), Failure> {
    let steps = opt_u64(args, "--steps", 1000)?;
    let engine = opt(args, "--engine").unwrap_or("accmos");
    let seed = opt_u64(args, "--seed", 2024)?;
    let rows = opt_u64(args, "--rows", 64)? as usize;
    let stop = flag(args, "--stop-on-diag");
    let budget = opt_parse(args, "--budget-ms")?.map(Duration::from_millis);

    let lanes = opt_u64(args, "--lanes", 1)?.max(1) as usize;
    if lanes > 1 && engine != "accmos" {
        return Err(format!(
            "engine `{engine}` does not support --lanes > 1 (lanes run on the `accmos` engine only)"
        )
        .into());
    }
    let profiling = flag(args, "--profile");
    let trace_out = opt(args, "--trace-out");
    let tracer = trace_out.map(|_| accmos::Tracer::new());
    if (profiling || tracer.is_some()) && matches!(engine, "sse" | "sse-ac") {
        return Err(format!(
            "engine `{engine}` is interpretive; --profile/--trace-out need a compiled engine"
        )
        .into());
    }

    let pre = accmos::preprocess(model).map_err(|e| e.to_string())?;
    let (tests, lane_tests) = lane_stimulus(&pre, opt(args, "--tests"), rows, seed, lanes)?;

    let report: SimulationReport = match engine {
        "sse" | "sse-ac" => {
            let mut opts = SimOptions::steps(steps);
            if stop {
                opts = opts.stopping_on_diagnostic();
            }
            if let Some(b) = budget {
                opts = opts.with_budget(b);
            }
            accmos::run_reference_engine(engine, model, &tests, &opts)
                .map_err(|e| e.to_string())?
        }
        _ => {
            let mut pipeline =
                if engine == "rac" { AccMoS::rapid_accelerator() } else { AccMoS::new() };
            if profiling {
                let copts = pipeline.codegen_options().clone().with_profile();
                pipeline = pipeline.with_codegen(copts);
            }
            let mut pipeline = pipeline.with_exec_policy(exec_policy(args, ExecPolicy::default())?);
            if let Some(t) = &tracer {
                pipeline = pipeline.with_tracer(t.clone());
            }
            let out = pipeline
                .run(
                    model,
                    steps,
                    &tests,
                    &RunOptions { stop_on_diagnostic: stop, time_budget: budget, lane_tests },
                )
                .map_err(|e| e.to_string())?;
            if let Some(reason) = &out.fallback_reason {
                eprintln!("degraded to interpreter: {reason}");
            }
            if out.retries > 0 {
                eprintln!("retries: {}", out.retries);
            }
            out.report
        }
    };
    println!("{report}");
    // The Display above shows the lane aggregate; surface each lane's own
    // digest and diagnosis sites for lane-parallel runs.
    for (i, lane) in report.lane_reports.iter().enumerate() {
        println!(
            "  lane {i}: digest {:016x}, {} diagnostic occurrence(s)",
            lane.output_digest,
            lane.diagnostic_count()
        );
        for d in &lane.diagnostics {
            println!("    {d}");
        }
    }
    // Profile details stay off stdout so profiled and unprofiled runs
    // print byte-identical reports (the digest-neutrality CI gate
    // compares them); `accmos profile` is the ranked view.
    if profiling {
        eprintln!(
            "profile: {} site(s) recorded (run `accmos profile` for the ranked report)",
            report.profile.len()
        );
    }
    if let (Some(t), Some(path)) = (&tracer, trace_out) {
        t.write_chrome_json(std::path::Path::new(path))
            .map_err(|e| format!("cannot write trace {path}: {e}"))?;
        eprintln!("wrote trace {path}");
    }
    Ok(())
}

fn profile(model: &Model, args: &[String]) -> Result<(), Failure> {
    let steps = opt_u64(args, "--steps", 100_000)?;
    let seed = opt_u64(args, "--seed", 2024)?;
    let rows = opt_u64(args, "--rows", 64)? as usize;
    let lanes = opt_u64(args, "--lanes", 1)?.max(1) as usize;

    let pre = accmos::preprocess(model).map_err(|e| e.to_string())?;
    let (tests, lane_tests) = lane_stimulus(&pre, opt(args, "--tests"), rows, seed, lanes)?;

    let mut pipeline = AccMoS::new().with_exec_policy(exec_policy(args, ExecPolicy::default())?);
    let copts = pipeline.codegen_options().clone().with_profile();
    pipeline = pipeline.with_codegen(copts);
    let trace_out = opt(args, "--trace-out");
    let tracer = trace_out.map(|_| accmos::Tracer::new());
    if let Some(t) = &tracer {
        pipeline = pipeline.with_tracer(t.clone());
    }
    let out = pipeline
        .run(
            model,
            steps,
            &tests,
            &RunOptions { stop_on_diagnostic: false, time_budget: None, lane_tests },
        )
        .map_err(|e| e.to_string())?;
    if let Some(reason) = &out.fallback_reason {
        return Err(format!(
            "cannot profile: the run degraded to the interpreter ({reason})"
        )
        .into());
    }
    let report = &out.report;
    if report.profile.is_empty() {
        return Err(Failure::Run("the simulator emitted no ACCMOS:PROF records".into()));
    }
    if let (Some(t), Some(path)) = (&tracer, trace_out) {
        t.write_chrome_json(std::path::Path::new(path))
            .map_err(|e| format!("cannot write trace {path}: {e}"))?;
        eprintln!("wrote trace {path}");
    }

    // Rank sites by cumulative time.
    let mut sites = report.profile.clone();
    sites.sort_by(|a, b| b.ns.cmp(&a.ns).then(a.actor.cmp(&b.actor)));
    let total_ns: u64 = sites.iter().map(|s| s.ns).sum();
    let share = |ns: u64| match total_ns {
        0 => 0.0,
        t => 100.0 * ns as f64 / t as f64,
    };

    if opt(args, "--format") == Some("json") {
        let sites: Vec<String> = sites
            .iter()
            .map(|s| {
                let mut site = JsonObject::default();
                site.str("site", &s.actor).num("ns", s.ns).num("calls", s.calls);
                site.num("timed", s.timed).num("share_pct", format_args!("{:.2}", share(s.ns)));
                site.finish()
            })
            .collect();
        let mut out = JsonObject::default();
        out.str("model", &report.model).str("engine", &report.engine);
        out.num("steps", report.steps).num("lanes", lanes).num("total_ns", total_ns);
        println!("{}", out.raw("sites", &format!("[{}]", sites.join(","))).finish());
        return Ok(());
    }

    println!(
        "profile: `{}` engine {}, {} step(s), {} lane(s)",
        report.model, report.engine, report.steps, lanes
    );
    println!(
        "  measured: {} ms across {} site(s), sampled timing (clock read every {} steps)",
        total_ns / 1_000_000,
        sites.len(),
        accmos::PROF_SAMPLE_PERIOD,
    );
    println!();
    println!("{:>4}  {:<40} {:>7} {:>12} {:>10} {:>9}", "rank", "site", "share", "time", "calls", "ns/call");
    for (i, s) in sites.iter().enumerate() {
        // `ns` only accumulates on sampled (timed) invocations, so the
        // mean per call divides by `timed`, not `calls`.
        let per_call = match s.timed {
            0 => 0,
            t => s.ns / t,
        };
        println!(
            "{:>4}  {:<40} {:>6.1}% {:>10}us {:>10} {:>9}",
            i + 1,
            s.actor,
            share(s.ns),
            s.ns / 1_000,
            s.calls,
            per_call
        );
    }
    Ok(())
}

fn trends(args: &[String]) -> Result<(), Failure> {
    use accmos::telemetry::{compute_trends, fmt_us, PhaseMicros};

    let dir = match opt(args, "--cache-dir") {
        Some(d) => std::path::PathBuf::from(d),
        None => accmos::default_state_dir(),
    };
    let max_pct = opt_parse(args, "--max-regress")?.unwrap_or(25.0);
    let ledger = accmos::RunLedger::in_dir(&dir);
    let view = ledger.read();
    let trends = compute_trends(&view.records);

    if opt(args, "--format") == Some("json") {
        let trends_json: Vec<String> = trends
            .iter()
            .map(|t| {
                let mut median = JsonObject::default();
                t.median.write(&mut median);
                let regress = t.regress_pct.map_or("null".into(), |pct| format!("{pct:.2}"));
                JsonObject::default()
                    .str("model", &t.model)
                    .str("engine", &t.engine_key())
                    .num("steps", t.steps)
                    .num("runs", t.runs)
                    .raw("median", &median.finish())
                    .num("latest_run_us", t.latest_run_us)
                    .raw("regress_pct", &regress)
                    .finish()
            })
            .collect();
        let out = JsonObject::default()
            .str("ledger", &ledger.path().display().to_string())
            .num("records", view.records.len())
            .num("skipped", view.skipped)
            .bool("truncated_tail", view.truncated_tail)
            .raw("trends", &format!("[{}]", trends_json.join(",")))
            .finish();
        println!("{out}");
        if flag(args, "--check") {
            check_trends(&trends, max_pct, ledger.path())?;
        }
        return Ok(());
    }

    if view.records.is_empty() && view.skipped == 0 && !view.truncated_tail {
        println!("trends: no ledger at {} (run `accmos simulate` or `accmos batch` first)", ledger.path().display());
        return Ok(());
    }
    println!(
        "trends: {} record(s) from {}",
        view.records.len(),
        ledger.path().display()
    );
    if view.skipped > 0 {
        println!("  (skipped {} unreadable or foreign-schema line(s))", view.skipped);
    }
    if view.truncated_tail {
        println!("  (ledger tail is torn — a writer died mid-append; ignored)");
    }

    if trends.is_empty() {
        println!("no runs with timing signal (outcome ok/degraded) yet");
        return Ok(());
    }
    println!(
        "{:<24} {:<8} {:>9} {:>5}  {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}  {:>8}",
        "model", "engine", "steps", "runs", "parse", "prep", "analyze", "codegen", "compile", "run",
        "latest"
    );
    for t in &trends {
        let m: &PhaseMicros = &t.median;
        let delta = match t.regress_pct {
            Some(pct) => format!(" ({pct:+.1}%)"),
            None => String::new(),
        };
        println!(
            "{:<24} {:<8} {:>9} {:>5}  {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}  {:>8}{delta}",
            t.model,
            // Lane configs trend separately: `accmos@8` vs plain `accmos`.
            t.engine_key(),
            t.steps,
            t.runs,
            fmt_us(m.parse_us),
            fmt_us(m.preprocess_us),
            fmt_us(m.analyze_us),
            fmt_us(m.codegen_us),
            fmt_us(m.compile_us),
            fmt_us(m.run_us),
            fmt_us(t.latest_run_us),
        );
    }

    if flag(args, "--check") {
        check_trends(&trends, max_pct, ledger.path())?;
        println!("check: no model regressed beyond {max_pct}%");
    }
    Ok(())
}

/// The `trends --check` gate: fail when any model's latest run is more
/// than `max_pct` percent slower than the median of its earlier runs.
fn check_trends(
    trends: &[accmos::telemetry::ModelTrend],
    max_pct: f64,
    ledger: &std::path::Path,
) -> Result<(), String> {
    let violations = accmos::telemetry::check_regressions(trends, max_pct);
    for v in &violations {
        eprintln!("regression: {v}");
    }
    match violations.len() {
        0 => Ok(()),
        n => Err(format!("{n} model(s) regressed beyond {max_pct}% (ledger: {})", ledger.display())),
    }
}

fn fuzz(args: &[String]) -> Result<(), Failure> {
    let seed = opt_u64(args, "--seed", 1)?;
    let mut config = accmos::FuzzConfig {
        seed,
        trials: opt_u64(args, "--trials", 50)?,
        steps: opt_u64(args, "--steps", 64)?,
        rows: opt_u64(args, "--rows", 12)? as usize,
        resume: flag(args, "--resume"),
        minimize: !flag(args, "--no-minimize"),
        ..accmos::FuzzConfig::default()
    };
    if let Some(dir) = opt(args, "--cache-dir") {
        config.state_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(dir) = opt(args, "--corpus") {
        config.corpus_dir = Some(std::path::PathBuf::from(dir));
    }
    config.exec_policy = exec_policy(args, config.exec_policy.clone())?;
    config.max_trials_per_run = opt_parse(args, "--max-trials")?;
    if let Some(path) = opt(args, "--inject") {
        config.inject_fault_exe = Some(std::path::PathBuf::from(path));
    }
    if flag(args, "--sabotage") {
        config.sabotage = true;
        eprintln!("fuzz: --sabotage plants a digest divergence in every generated-C build");
    }
    let trace_out = opt(args, "--trace-out");
    // Keep a handle: FuzzCampaign::new consumes the config.
    let tracer = trace_out.map(|_| accmos::Tracer::new());
    config.tracer = tracer.clone();

    // `--pin INDEX`: check a known-good trial into the corpus as a
    // regression anchor instead of running a campaign.
    if let Some(index) = opt_parse(args, "--pin")? {
        let dir = config
            .corpus_dir
            .clone()
            .ok_or_else(|| "--pin needs --corpus DIR to write the entry into".to_string())?;
        let repro = accmos::fuzz::pin_corpus_entry(&config, index, &dir)?;
        println!(
            "pinned {}: {} actor(s), lanes {}, {} step(s), {} row(s), digest {:016x}",
            repro.name, repro.actors, repro.lanes, repro.steps, repro.rows, repro.digest
        );
        println!("  wrote {}", repro.mdlx_path.display());
        return Ok(());
    }

    // Planned feature mix, printed so a CI gate can assert the campaign
    // actually covered lane, conditional-group and -O3 trials.
    let (mut lane4, mut conditional, mut nested, mut o3) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..config.trials {
        let plan = accmos::fuzz::plan_trial(&config, i);
        lane4 += u64::from(plan.lanes == 4);
        conditional += u64::from(plan.cfg.conditional);
        nested += u64::from(plan.cfg.nested);
        o3 += u64::from(plan.o3);
    }
    let summary = accmos::FuzzCampaign::new(config).run().map_err(|e| e.to_string())?;
    if let (Some(t), Some(path)) = (&tracer, trace_out) {
        t.write_chrome_json(std::path::Path::new(path))
            .map_err(|e| format!("cannot write trace {path}: {e}"))?;
        eprintln!("wrote trace {path}");
    }

    println!(
        "fuzz: campaign seed {seed}, {} planned, {} executed, {} resumed-skip",
        summary.planned,
        summary.executed,
        summary.resumed
    );
    println!(
        "  plan mix: {lane4} lane-4, {conditional} conditional, {nested} nested, {o3} -O3"
    );
    println!(
        "  ok {}, divergences {}, classified failures {}, injected {}, unclassified {}",
        summary.ok, summary.divergences, summary.failures, summary.injected, summary.unclassified
    );
    println!("  state: {}", summary.store_path.display());
    for repro in &summary.minimized {
        println!(
            "  minimized {}: {} actor(s), lanes {}, {} step(s), {} row(s) — {}",
            repro.name, repro.actors, repro.lanes, repro.steps, repro.rows, repro.detail
        );
        if repro.mdlx_path.as_os_str().is_empty() {
            println!("    (no --corpus directory; repro not written)");
        } else {
            println!("    wrote {}", repro.mdlx_path.display());
        }
    }
    if summary.divergences > 0 {
        return Err(format!(
            "{} divergence(s) between backends (minimized repros above)",
            summary.divergences
        )
        .into());
    }
    if summary.unclassified > 0 {
        let n = summary.unclassified;
        return Err(format!("{n} trial(s) escaped failure classification").into());
    }
    Ok(())
}

fn batch(paths: &[&str], args: &[String]) -> Result<(), Failure> {
    let steps = opt_u64(args, "--steps", 1000)?;
    let repeat = opt_u64(args, "--repeat", 1)?.max(1);
    let seed = opt_u64(args, "--seed", 2024)?;
    let rows = opt_u64(args, "--rows", 64)? as usize;
    let lanes = opt_u64(args, "--lanes", 1)?.max(1);

    let mut pipeline = AccMoS::new().with_exec_policy(exec_policy(args, ExecPolicy::default())?);
    if flag(args, "--no-cache") {
        pipeline = pipeline.without_cache();
    }
    let trace_out = opt(args, "--trace-out");
    let tracer = trace_out.map(|_| accmos::Tracer::new());
    if let Some(t) = &tracer {
        pipeline = pipeline.with_tracer(t.clone());
    }

    let mut jobs = Vec::new();
    for path in paths {
        let model = load_spec(path)?;
        let pre = accmos::preprocess(&model).map_err(|e| e.to_string())?;
        for rep in 0..repeat {
            // Each repetition gets a distinct stimulus seed — one seed per
            // lane, so no lane ever replays another's stimulus (for the
            // scalar default this reduces to the old seed+rep scheme).
            // The binary is still shared across repetitions because the
            // generated program is identical.
            let base = seed.wrapping_add(rep.wrapping_mul(lanes));
            let (tests, lane_tests) =
                accmos::fuzz::lane_stimulus(&pre, rows, base, lanes as usize);
            let label = if repeat > 1 { format!("{path}#{rep}") } else { path.to_string() };
            jobs.push(BatchJob::model(label, model.clone(), tests, steps).with_opts(
                RunOptions { stop_on_diagnostic: false, time_budget: None, lane_tests },
            ));
        }
    }

    let mut runner = BatchRunner::new(pipeline);
    if let Some(n) = opt_parse(args, "--jobs")? {
        runner = runner.with_workers(n);
    }
    let report = runner.run(jobs).map_err(|e| e.to_string())?;

    for job in &report.jobs {
        match &job.report {
            Ok(r) => {
                let mut notes = String::new();
                if job.retries > 0 {
                    notes.push_str(&format!(", {} retry(ies)", job.retries));
                }
                if let Some(reason) = &job.fallback_reason {
                    notes.push_str(&format!(", DEGRADED ({reason})"));
                }
                if job.peak_rss_kb > 0 {
                    notes.push_str(&format!(", rss {} KiB", job.peak_rss_kb));
                }
                println!(
                    "{}: digest {:016x}, {} step(s), run {:.2?}{notes}",
                    job.label, r.output_digest, r.steps, job.run_time
                );
            }
            Err(e) => println!("{}: FAILED: {e}", job.label),
        }
    }
    let s = &report.summary;
    println!(
        "batch: {} job(s), {} unique program(s), {} worker(s), wall {:.2?}",
        s.jobs,
        s.unique_programs,
        runner.workers(),
        s.total_wall
    );
    println!(
        "  compile: {} cold ({:.2?}), {} cached ({:.2?}); codegen {:.2?}; runs {:.2?}",
        s.cold_compiles,
        s.cold_compile_time,
        s.cached_compiles,
        s.cached_compile_time,
        s.codegen_time,
        s.run_time
    );
    if s.retries > 0 || s.degraded > 0 || s.quarantined > 0 {
        println!(
            "  supervision: {} retry(ies), {} degraded job(s), {} quarantined binarie(s)",
            s.retries, s.degraded, s.quarantined
        );
        let kinds: Vec<String> = s
            .retry_kinds
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| format!("{} x{n}", accmos::FailureKind::label(i)))
            .collect();
        if !kinds.is_empty() {
            println!(
                "  retries by kind: {}; backoff slept {:.2?}",
                kinds.join(", "),
                s.backoff_sleep
            );
        }
    }
    if s.max_peak_rss_kb > 0 {
        println!(
            "  peak rss: {} KiB (largest child simulator, ru_maxrss)",
            s.max_peak_rss_kb
        );
    }
    if let (Some(t), Some(path)) = (&tracer, trace_out) {
        t.write_chrome_json(std::path::Path::new(path))
            .map_err(|e| format!("cannot write trace {path}: {e}"))?;
        eprintln!("wrote trace {path}");
    }
    if s.failures > 0 {
        return Err(format!("{} job(s) failed", s.failures).into());
    }
    Ok(())
}

/// `accmos serve`: run the in-process simulation daemon until a client
/// sends `shutdown`.
#[cfg(unix)]
fn serve(args: &[String]) -> Result<(), Failure> {
    let mut pipeline = AccMoS::new().with_exec_policy(exec_policy(args, ExecPolicy::default())?);
    if let Some(dir) = opt(args, "--cache-dir") {
        pipeline = pipeline.with_cache(accmos::BuildCache::at(dir));
    }
    let socket = serve_socket(args, &pipeline)?;
    if let Some(parent) = socket.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    let workers = usize::try_from(opt_u64(args, "--workers", 2)?).unwrap_or(2).max(1);
    let config = accmos::ServeConfig::new(&socket)
        .with_workers(workers)
        .with_pipeline(pipeline);
    let handle = accmos::ServeHandle::start(config)
        .map_err(|e| format!("cannot start daemon on {}: {e}", socket.display()))?;
    println!("accmos serve: listening on {} ({workers} workers)", socket.display());
    handle.join();
    println!("accmos serve: shut down");
    Ok(())
}

/// The socket path: `--socket`, else `accmos.sock` in the pipeline's
/// state directory (so daemon and clients agree by default).
#[cfg(unix)]
fn serve_socket(args: &[String], pipeline: &AccMoS) -> Result<std::path::PathBuf, String> {
    if let Some(path) = opt(args, "--socket") {
        return Ok(std::path::PathBuf::from(path));
    }
    pipeline
        .state_dir()
        .map(|d| d.join("accmos.sock"))
        .ok_or_else(|| "no default socket without a cache; pass --socket".into())
}

/// `accmos submit`: send a job (and/or `--ping` / `--shutdown`) to a
/// running daemon and stream its result.
#[cfg(unix)]
fn submit(positional: &[&str], args: &[String]) -> Result<(), Failure> {
    use std::io::{BufRead, BufReader, Write};
    let pipeline = match opt(args, "--cache-dir") {
        Some(dir) => AccMoS::new().with_cache(accmos::BuildCache::at(dir)),
        None => AccMoS::new(),
    };
    let socket = serve_socket(args, &pipeline)?;
    if positional.is_empty() && !flag(args, "--ping") && !flag(args, "--shutdown") {
        return Err(usage("nothing to do: pass a model spec, --ping, or --shutdown"));
    }
    // The job's request, parsed before connecting: a usage error does not
    // depend on whether a daemon is listening.
    let job = match positional.first() {
        Some(spec) => {
            let steps = match positional.get(1) {
                Some(s) => s.parse().map_err(|_| usage(format!("bad step count `{s}`")))?,
                None => opt_u64(args, "--steps", 1000)?,
            };
            let mut request = JsonObject::default();
            request.str("op", "submit").str("model", spec).num("steps", steps);
            request.num("lanes", opt_u64(args, "--lanes", 1)?);
            request.num("rows", opt_u64(args, "--rows", 8)?);
            request.num("seed", opt_u64(args, "--seed", 0xACC5)?);
            Some(request.finish() + "\n")
        }
        None => None,
    };

    let stream = std::os::unix::net::UnixStream::connect(&socket)
        .map_err(|e| format!("cannot reach daemon on {}: {e}", socket.display()))?;
    let mut reader = BufReader::new(
        stream.try_clone().map_err(|e| format!("socket clone: {e}"))?,
    );
    let mut writer = stream;
    let mut read_event = || -> Result<accmos::telemetry::Fields, String> {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("daemon connection lost: {e}"))?;
        accmos::telemetry::parse_flat_object(&line)
            .ok_or_else(|| format!("unparseable daemon reply: {line:?}"))
    };

    let mut job_failed = None;
    if let Some(line) = job {
        writer.write_all(line.as_bytes()).map_err(|e| format!("send: {e}"))?;
        loop {
            let ev = read_event()?;
            match ev.str("event").as_deref() {
                Some("queued") => {
                    println!("queued {}", ev.str("job").unwrap_or_default());
                }
                Some("done") => {
                    let outcome = ev.str("outcome").unwrap_or_default();
                    println!(
                        "done {} {} outcome={outcome} engine={} digest={} steps={}",
                        ev.str("job").unwrap_or_default(),
                        ev.str("model").unwrap_or_default(),
                        ev.str("engine").unwrap_or_default(),
                        ev.str("digest").unwrap_or_default(),
                        ev.num("steps").unwrap_or(0),
                    );
                    let note = ev.str("note").unwrap_or_default();
                    if !note.is_empty() {
                        println!("  note: {note}");
                    }
                    if outcome == "failed" {
                        job_failed = Some(note);
                    }
                    break;
                }
                Some("error") => {
                    return Err(ev.str("detail").unwrap_or_default().into());
                }
                other => return Err(format!("unexpected daemon event {other:?}").into()),
            }
        }
    }
    if flag(args, "--ping") {
        writer.write_all(b"{\"op\":\"ping\"}\n").map_err(|e| format!("send: {e}"))?;
        let ev = read_event()?;
        println!("pong pending={}", ev.num("pending").unwrap_or(0));
    }
    if flag(args, "--shutdown") {
        writer
            .write_all(b"{\"op\":\"shutdown\"}\n")
            .map_err(|e| format!("send: {e}"))?;
        let ev = read_event()?;
        if ev.str("event").as_deref() == Some("bye") {
            println!("daemon shutting down");
        }
    }
    match job_failed {
        Some(note) => Err(format!("job failed: {note}").into()),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const COMMANDS: [&str; 10] = [
        "info", "analyze", "generate", "simulate", "profile", "batch", "trends", "serve", "submit",
        "fuzz",
    ];

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    /// The message of a usage error; panics on anything else.
    fn usage_msg<T: std::fmt::Debug>(result: Result<T, Failure>) -> String {
        match result {
            Err(Failure::Usage(msg)) => msg,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    /// Every `--flag` on `cmd`'s usage line (and its continuation lines).
    fn usage_flags(cmd: &str) -> BTreeSet<&'static str> {
        let mut flags = BTreeSet::new();
        let mut inside = false;
        for line in USAGE.lines().skip(1).map(str::trim_start) {
            match line.strip_prefix("accmos ") {
                Some(rest) => inside = rest.split_whitespace().next() == Some(cmd),
                None => inside &= line.starts_with('[') || line.starts_with("--"),
            }
            if inside {
                flags.extend(
                    line.split(|c: char| c.is_whitespace() || "[]|".contains(c))
                        .filter(|t| t.starts_with("--")),
                );
            }
        }
        flags
    }

    #[test]
    fn specs_list_exactly_the_usage_flags() {
        for cmd in COMMANDS {
            let spec = Spec::of(cmd).unwrap();
            let accepted: BTreeSet<&str> =
                spec.values.iter().chain(spec.switches).copied().collect();
            assert_eq!(accepted, usage_flags(cmd), "`{cmd}` spec vs usage line");
        }
        assert!(Spec::of("launch").is_none());
    }

    #[test]
    fn unknown_and_valueless_flags_are_rejected() {
        let simulate = Spec::of("simulate").unwrap();
        let ok = strings(&["m.mdlx", "--steps", "10", "--profile", "--engine", "rac"]);
        assert_eq!(simulate.check(&ok).unwrap(), ["m.mdlx"]);
        let err = usage_msg(simulate.check(&strings(&["m.mdlx", "--no-cache"])));
        assert!(err.contains("`--no-cache`"), "{err}");
        let err = usage_msg(simulate.check(&strings(&["m.mdlx", "--steps"])));
        assert!(err.contains("`--steps` needs a value"), "{err}");
        assert!(simulate.check(&strings(&[])).is_err(), "model is required");
        assert!(simulate.check(&strings(&["a.mdlx", "b.mdlx"])).is_err(), "one model only");

        let generate = Spec::of("generate").unwrap();
        assert!(generate.check(&strings(&["m.mdlx", "--rust"])).is_err());
        let fuzz = Spec::of("fuzz").unwrap();
        assert!(fuzz.check(&strings(&["--rust-every", "4"])).is_err());
        let batch = Spec::of("batch").unwrap();
        let paths = strings(&["a.mdlx", "--steps", "5", "b.mdlx"]);
        assert_eq!(batch.check(&paths).unwrap(), ["a.mdlx", "b.mdlx"]);
        let submit = Spec::of("submit").unwrap();
        assert_eq!(submit.check(&strings(&["--ping"])).unwrap(), Vec::<&str>::new());
        assert!(submit.check(&strings(&["bench:SPV", "10", "extra"])).is_err());
    }

    #[test]
    fn unparsable_values_name_the_flag_and_value() {
        let args = strings(&["--steps", "banana", "--retries", "x", "--seed", "7"]);
        let err = usage_msg(opt_u64(&args, "--steps", 1000));
        assert!(err.contains("--steps") && err.contains("`banana`"), "{err}");
        assert_eq!(opt_u64(&args, "--seed", 1), Ok(7));
        assert_eq!(opt_u64(&args, "--rows", 64), Ok(64), "absent flag keeps its default");
        let err = usage_msg(exec_policy(&args, ExecPolicy::default()));
        assert!(err.contains("--retries") && err.contains("`x`"), "{err}");
        let err = usage_msg(run(&strings(&["simulate", "bench:SPV", "--steps", "banana"])));
        assert!(err.contains("`banana`"), "{err}");
    }

    #[test]
    fn usage_errors_are_told_from_runtime_failures() {
        for args in [
            &["launch"][..],
            &[],
            &["simulate", "bench:SPV", "--steps", "10", "--rust"],
            &["simulate", "bench:SPV", "--steps"],
            &["simulate", "bench:SPV", "--engine", "rust"],
            &["analyze", "bench:SPV", "--format", "yaml"],
            &["analyze", "bench:SPV", "--deny", "fatal"],
            // Flag values are checked before the model is resolved or
            // analyzed, so a missing file cannot mask a usage error.
            &["simulate", "missing.mdlx", "--steps", "banana"],
            &["analyze", "bench:SPV", "--format", "xml"],
            &["profile", "missing.mdlx", "--format", "xml"],
            &["trends", "--max-regress", "lots"],
            &["info"],
            &["info", "bench:SPV", "bench:TWC"],
            &["submit", "bench:SPV", "many"],
            &["submit"],
            // A campaign's deadline is `--exec-timeout`.
            &["fuzz", "--budget-ms", "500"],
        ] {
            usage_msg(run(&strings(args)));
        }
        // Runtime failures: an unreadable model file, and a model whose
        // analysis has findings at the denied severity.
        for args in [
            &["info", "no-such-model.mdlx"][..],
            &["analyze", "bench:CSEV", "--deny", "info"],
        ] {
            match run(&strings(args)) {
                Err(Failure::Run(msg)) => assert!(!msg.is_empty()),
                other => panic!("{args:?}: expected a runtime failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn lane_stimulus_replays_the_file_or_seeds_lane_k_with_seed_plus_k() {
        let pre = accmos::preprocess(&load_spec("bench:SPV").unwrap()).unwrap();
        let file =
            std::env::temp_dir().join(format!("accmos-cli-lanes-{}.csv", std::process::id()));
        let from_file = accmos_testgen::random_tests(&pre, 5, 77);
        std::fs::write(&file, from_file.to_csv()).unwrap();
        let (tests, lane_tests) = lane_stimulus(&pre, file.to_str(), 8, 1, 3).unwrap();
        std::fs::remove_file(&file).unwrap();
        let want = TestVectors::from_csv(&from_file.to_csv()).unwrap();
        assert_eq!(lane_tests.len(), 2);
        for lane in std::iter::once(&tests).chain(&lane_tests) {
            assert_eq!(lane, &want, "every lane replays the file");
        }

        let (tests, lane_tests) = lane_stimulus(&pre, None, 8, 40, 3).unwrap();
        assert_eq!(lane_tests.len(), 2);
        for (k, lane) in std::iter::once(&tests).chain(&lane_tests).enumerate() {
            assert_eq!(lane, &accmos_testgen::random_tests(&pre, 8, 40 + k as u64), "lane {k}");
        }
        assert!(lane_stimulus(&pre, None, 8, 40, 1).unwrap().1.is_empty());
    }
}
