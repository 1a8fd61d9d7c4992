//! The traced replay: a fixed sample of a workload's operations, each
//! decomposed into direct calls into the layers it passes through, every
//! call timed and recorded as a span (workload ⊃ op ⊃ layer call, one
//! track per workload). Spans come from this file only; the program
//! under test is not instrumented.

use crate::oracle::Fingerprint;
use crate::stats::{geo_mean, median};
use accmos::{
    BuildCache, CompiledSimulator, Compiler, OptLevel, PreprocessedModel, RunLedger, RunRecord,
    Tracer,
};
use accmos_codegen::{CodegenOptions, GeneratedProgram};
use accmos_ir::{SimulationReport, TestVectors};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// Per-layer totals of one replay.
pub struct Replay {
    tracer: Tracer,
    tid: u64,
    /// Milliseconds spent per layer, summed over operations.
    totals: BTreeMap<&'static str, f64>,
    /// Wall milliseconds of each replayed operation, per model.
    pub op_ms: BTreeMap<String, Vec<f64>>,
    /// Cold executable compile seconds per model.
    pub cc_exe_s: BTreeMap<String, f64>,
    /// Generated-loop nanoseconds per step, per model.
    pub loop_ns: BTreeMap<String, Vec<f64>>,
    /// Interpreter nanoseconds per step, per model.
    pub interp_ns: BTreeMap<String, Vec<f64>>,
    programs: u64,
    proven_sites: u64,
    c_bytes: u64,
    reports: u64,
    report_bytes: u64,
    /// Operations that failed, with the reason.
    pub failures: Vec<String>,
}

impl Replay {
    /// A replay recording onto `tracer`, track `tid`.
    pub fn new(tracer: Tracer, tid: u64) -> Replay {
        Replay {
            tracer,
            tid,
            totals: BTreeMap::new(),
            op_ms: BTreeMap::new(),
            cc_exe_s: BTreeMap::new(),
            loop_ns: BTreeMap::new(),
            interp_ns: BTreeMap::new(),
            programs: 0,
            proven_sites: 0,
            c_bytes: 0,
            reports: 0,
            report_bytes: 0,
            failures: Vec::new(),
        }
    }

    /// Operations replayed.
    pub fn ops(&self) -> usize {
        self.op_ms.values().map(Vec::len).sum()
    }

    fn span(&mut self, cat: &str, name: &str, start_us: u64, dur: Duration) {
        self.tracer.span(
            cat,
            name,
            start_us,
            accmos::telemetry::micros(dur),
            self.tid,
        );
    }

    /// Attribute `dur` starting at `start_us` to `layer`.
    fn add(&mut self, layer: &'static str, start_us: u64, dur: Duration) {
        self.span("layer", layer, start_us, dur);
        *self.totals.entry(layer).or_default() += dur.as_secs_f64() * 1e3;
    }

    /// Time one direct call into `layer`.
    pub fn layer<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start_us = self.tracer.now_us();
        let t = Instant::now();
        let v = f();
        self.add(layer, start_us, t.elapsed());
        v
    }

    /// Replay one operation on `model`; `expected` (when given) is the
    /// fingerprint its result must match.
    pub fn op(
        &mut self,
        model: &str,
        expected: Option<&Fingerprint>,
        f: impl FnOnce(&mut Replay) -> Result<Fingerprint, String>,
    ) {
        let start_us = self.tracer.now_us();
        let t = Instant::now();
        let got = f(self);
        let dur = t.elapsed();
        self.span("op", model, start_us, dur);
        self.op_ms
            .entry(model.to_string())
            .or_default()
            .push(dur.as_secs_f64() * 1e3);
        let failure = match (got, expected) {
            (Err(e), _) => Some(e),
            (Ok(fp), Some(want)) if !fp.matches(want) => {
                Some(format!("result {fp:?} differs from the reference {want:?}"))
            }
            _ => None,
        };
        if let Some(why) = failure {
            self.failures.push(format!("replay {model}: {why}"));
        }
    }

    /// Close the workload span opened at `start_us`.
    pub fn finish(&mut self, workload: &str, start_us: u64) {
        let dur_us = self.tracer.now_us().saturating_sub(start_us);
        self.tracer
            .span("workload", workload, start_us, dur_us, self.tid);
    }

    /// Code generation, split into the analyzer's share and the rest.
    pub fn codegen(&mut self, pre: &PreprocessedModel) -> GeneratedProgram {
        let start_us = self.tracer.now_us();
        let t = Instant::now();
        let program = accmos_codegen::generate(pre, &CodegenOptions::accmos());
        let total = t.elapsed();
        let analyze = program.analyze_time.min(total);
        self.add("analyze", start_us, analyze);
        self.add(
            "codegen",
            start_us + accmos::telemetry::micros(analyze),
            total - analyze,
        );
        self.programs += 1;
        self.proven_sites += (program.pruned_sites
            + program.folded_actors
            + program.elided_actors
            + program.specialized_arms) as u64;
        self.c_bytes += (program.main_c.len() + program.runtime_h.len()) as u64;
        program
    }

    /// Compile an executable: `cache_fetch` on a hit, `cc_exe` on a miss.
    pub fn compile(
        &mut self,
        compiler: &Compiler,
        program: &GeneratedProgram,
        model: &str,
    ) -> Result<CompiledSimulator, String> {
        let start_us = self.tracer.now_us();
        let t = Instant::now();
        let sim = compiler
            .compile(program)
            .map_err(|e| format!("compile: {e}"))?;
        let dur = t.elapsed();
        if sim.cache_hit() {
            self.add("cache_fetch", start_us, dur);
        } else {
            self.add("cc_exe", start_us, dur);
            self.cc_exe_s.insert(model.to_string(), dur.as_secs_f64());
        }
        Ok(sim)
    }

    /// Compile a shared object: `cache_fetch` on a hit, `cc_so` on a miss.
    pub fn compile_shared(
        &mut self,
        compiler: &Compiler,
        program: &GeneratedProgram,
    ) -> Result<accmos::CompiledDylib, String> {
        let start_us = self.tracer.now_us();
        let t = Instant::now();
        let dylib = compiler
            .compile_shared(program)
            .map_err(|e| format!("compile: {e}"))?;
        let layer = if dylib.cache_hit() {
            "cache_fetch"
        } else {
            "cc_so"
        };
        self.add(layer, start_us, t.elapsed());
        Ok(dylib)
    }

    /// Start of an untimed-layer region, for calls split afterwards
    /// ([`Replay::dylib_split`]).
    pub fn now_us(&self) -> u64 {
        self.tracer.now_us()
    }

    /// Run an executable the way the subprocess engine does (test-vector
    /// file, spawn, capture stdout), then parse its report: `spawn` is
    /// the process wall minus the loop's own `TIME_NS`, `protocol` the
    /// parse of the captured stdout.
    pub fn run_exe(
        &mut self,
        sim: &CompiledSimulator,
        steps: u64,
        tests: &TestVectors,
        model: &str,
    ) -> Result<SimulationReport, String> {
        let start_us = self.tracer.now_us();
        let t = Instant::now();
        let mut cmd = Command::new(sim.exe());
        cmd.arg(steps.to_string());
        if tests.width() > 0 {
            let csv = sim.dir().join("replay-tests.csv");
            std::fs::write(&csv, tests.to_csv()).map_err(|e| format!("write tests: {e}"))?;
            cmd.arg("--tests").arg(csv);
        }
        let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
        let wall = t.elapsed();
        if !out.status.success() {
            return Err(format!("simulator exited with {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let report = self
            .layer("protocol", || accmos_backend::parse_report(&stdout))
            .map_err(|e| format!("protocol: {e}"))?;
        self.reports += 1;
        self.report_bytes += stdout.len() as u64;
        let lp = report.wall.min(wall);
        self.add("spawn", start_us, wall - lp);
        self.add("loop", start_us + accmos::telemetry::micros(wall - lp), lp);
        self.note_loop(model, lp, report.steps);
        Ok(report)
    }

    /// Record the generated loop's time per step.
    pub fn note_loop(&mut self, model: &str, lp: Duration, steps: u64) {
        if steps > 0 {
            let ns = lp.as_secs_f64() * 1e9 / steps as f64;
            self.loop_ns.entry(model.to_string()).or_default().push(ns);
        }
    }

    /// Record the interpreter's time per step.
    pub fn note_interp(&mut self, model: &str, dur: Duration, steps: u64) {
        if steps > 0 {
            let ns = dur.as_secs_f64() * 1e9 / steps as f64;
            self.interp_ns
                .entry(model.to_string())
                .or_default()
                .push(ns);
        }
    }

    /// Split an in-process run's wall: `dylib_load` (scratch copy,
    /// `dlopen`, test file, `dlclose`), `dylib_entry` (entry call minus
    /// the loop) and `loop` (`TIME_NS`).
    pub fn dylib_split(&mut self, start_us: u64, wall: Duration, entry: Duration, lp: Duration) {
        let entry = entry.min(wall);
        let lp = lp.min(entry);
        self.add("dylib_load", start_us, wall - entry);
        let at = start_us + accmos::telemetry::micros(wall - entry);
        self.add("dylib_entry", at, entry - lp);
        self.add("loop", at + accmos::telemetry::micros(entry - lp), lp);
    }

    /// Append one ledger record into `state`, as every pipeline run does.
    pub fn ledger(&mut self, state: &Path, model: &str, steps: u64) -> Result<(), String> {
        let mut rec = RunRecord::new("perfbench", model);
        rec.steps = steps;
        rec.outcome = accmos::telemetry::outcome::OK.to_string();
        let ledger = RunLedger::in_dir(state);
        self.layer("ledger", || ledger.append(&rec))
            .map_err(|e| format!("ledger: {e}"))
    }

    /// Mean milliseconds per operation in `layer`.
    pub fn layer_ms(&self, layer: &str) -> f64 {
        let ops = self.ops();
        match (self.totals.get(layer), ops) {
            (Some(ms), n) if n > 0 => ms / n as f64,
            _ => 0.0,
        }
    }

    /// `(proven sites, generated C KiB)` per generated program.
    pub fn program_means(&self) -> (f64, f64) {
        match self.programs {
            0 => (0.0, 0.0),
            n => (
                self.proven_sites as f64 / n as f64,
                self.c_bytes as f64 / 1024.0 / n as f64,
            ),
        }
    }

    /// Report KiB per parsed report.
    pub fn report_kb(&self) -> f64 {
        match self.reports {
            0 => 0.0,
            n => self.report_bytes as f64 / 1024.0 / n as f64,
        }
    }

    /// Share of replayed op time spent in the listed layers, in percent.
    pub fn share_pct(&self, layers: &[&str]) -> f64 {
        let total: f64 = self.op_ms.values().flatten().sum();
        let part: f64 = layers.iter().filter_map(|l| self.totals.get(l)).sum();
        if total > 0.0 {
            part / total * 100.0
        } else {
            0.0
        }
    }
}

/// A compiler matching the pipeline's (`-O3`), over `cache`.
pub fn compiler(cache: &Path) -> Result<Compiler, String> {
    Compiler::detect()
        .map(|c| c.with_opt(OptLevel::O3).with_cache(BuildCache::at(cache)))
        .map_err(|e| e.to_string())
}

/// Geometric mean over models of each model's median; 0 when empty.
pub fn geomean_of_medians(per_model: &BTreeMap<String, Vec<f64>>) -> f64 {
    if per_model.is_empty() {
        return 0.0;
    }
    geo_mean(per_model.values().map(|v| median(v)))
}
