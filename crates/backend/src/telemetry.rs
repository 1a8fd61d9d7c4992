//! Per-phase run telemetry, the persistent state stores and trend gating.
//!
//! The paper's headline claims are wall-clock numbers (Table 2: up to
//! 215.3× average speedup at 50M steps), but a harness that measures each
//! run in isolation and throws the numbers away cannot show a performance
//! *trajectory*. This module makes every run durable and queryable:
//!
//! - [`PhaseMicros`] records one job's wall-clock spans — parse →
//!   flatten/schedule (preprocess) → analyze → codegen → compile → run,
//!   plus retry backoff sleep — as `u64` **microseconds** end-to-end.
//!   Milliseconds truncate sub-millisecond phases (a cached compile is
//!   tens of µs) to 0 and poison trend medians; formatting happens at the
//!   display edge only ([`fmt_us`]).
//! - [`RunRecord`] is one run ledger entry: who ran what (source, model,
//!   engine, steps), how it went (outcome, retries, compile cache hit)
//!   and the phase spans.
//! - [`Store`] is the one append-only JSONL store under the cache/state
//!   directory. Each [`Record`] type names its file and writes and reads
//!   its own fields; the store writes and checks `schema`, appends under
//!   the lease [`crate::BuildCache`] uses, so concurrent processes sharing
//!   one cache dir interleave whole lines only, and reads tolerantly,
//!   mirroring the `ACCMOS:` protocol parser: a partial last line (writer
//!   died mid-append) is reported, not fatal, and lines from other schema
//!   versions are skipped, not errors. The run ledger ([`RunLedger`],
//!   `ledger.jsonl`), the fuzz campaign state (`fuzz.jsonl`), the
//!   supervisor's quarantine store (`quarantine.jsonl`) and the serve
//!   daemon's job journal (`jobs.jsonl`) are its four record types.
//! - [`compute_trends`] / [`check_regressions`] turn the ledger into
//!   per-model/per-engine phase medians and a CI regression gate
//!   (`accmos trends --check --max-regress PCT`).
//!
//! Records are flat one-line JSON objects ([`JsonObject`],
//! [`parse_flat_object`]); the reader ignores unknown keys, so future
//! schema revisions can add fields without breaking old readers.

use crate::lease;
use std::collections::BTreeMap;
use std::io::Write;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The JSON format every store, wire message and report shares.
pub use accmos_ir::{parse_flat_object, Fields, JsonObject};

/// Wall-clock spans of one job, per pipeline phase, in microseconds.
///
/// Everything is `u64` microseconds end-to-end; only display code
/// ([`fmt_us`]) converts to human units. A phase that did not run for a
/// given job (e.g. `parse_us` for an in-memory model, `analyze_us` when
/// pruning is disabled) is 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseMicros {
    /// Parsing the `.mdlx` source (0 for in-memory models).
    pub parse_us: u64,
    /// Flatten + type-check + schedule (`accmos_graph::preprocess`).
    pub preprocess_us: u64,
    /// Static analysis for proven-safe instrumentation pruning (0 when
    /// pruning is disabled or the engine does not instrument).
    pub analyze_us: u64,
    /// C source synthesis.
    pub codegen_us: u64,
    /// Compiler invocation, or the cache-hit copy when
    /// [`RunRecord::compile_cached`] is set.
    pub compile_us: u64,
    /// Supervised execution of the simulator, including retries.
    pub run_us: u64,
    /// Retry backoff sleep attributable to this job (0 when the first
    /// attempt succeeded).
    pub backoff_us: u64,
}

impl PhaseMicros {
    /// Phase names, index-aligned with [`PhaseMicros::get`].
    pub const NAMES: [&'static str; 7] =
        ["parse", "preprocess", "analyze", "codegen", "compile", "run", "backoff"];

    /// The span at ordinal `i` (see [`PhaseMicros::NAMES`]).
    pub fn get(&self, i: usize) -> u64 {
        [
            self.parse_us,
            self.preprocess_us,
            self.analyze_us,
            self.codegen_us,
            self.compile_us,
            self.run_us,
            self.backoff_us,
        ][i]
    }

    /// Set the span at ordinal `i` (see [`PhaseMicros::NAMES`]).
    pub fn set(&mut self, i: usize, us: u64) {
        let slot = [
            &mut self.parse_us,
            &mut self.preprocess_us,
            &mut self.analyze_us,
            &mut self.codegen_us,
            &mut self.compile_us,
            &mut self.run_us,
            &mut self.backoff_us,
        ];
        *slot[i] = us;
    }

    /// Write every span as a `<phase>_us` field, in [`PhaseMicros::NAMES`]
    /// order.
    pub fn write(&self, out: &mut JsonObject) {
        for (i, name) in Self::NAMES.iter().enumerate() {
            out.num(&format!("{name}_us"), self.get(i));
        }
    }
}

/// A [`Duration`] as saturating `u64` microseconds — the only conversion
/// the ledger stores.
pub fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Milliseconds since the Unix epoch (0 before it): the clock of every
/// record's `ts_ms` and of the lease.
pub fn now_ms() -> u64 {
    let since = SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default();
    u64::try_from(since.as_millis()).unwrap_or(u64::MAX)
}

/// Format microseconds for humans at the display edge: `417µs`, `4.52ms`,
/// `1.38s`. Storage and arithmetic stay in integer microseconds.
pub fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

/// One entry of the run ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunRecord {
    /// Milliseconds since the Unix epoch when the record was made.
    pub ts_ms: u64,
    /// What produced the record: `run`, `batch`, `table2`, `table3`,
    /// `ablation`, ...
    pub source: String,
    /// Model name (the job label when the run failed before reporting).
    pub model: String,
    /// Engine that produced the result: `accmos`, `rac`, `sse`,
    /// `sse-ac`, ... Empty when the job failed before any engine reported.
    pub engine: String,
    /// Simulated steps.
    pub steps: u64,
    /// How the job ended: [`outcome::OK`], [`outcome::DEGRADED`] (fell
    /// back to the interpretive engine), [`outcome::QUARANTINED`] (refused
    /// without running) or [`outcome::FAILED`].
    pub outcome: String,
    /// Whether the compile phase was a build-cache hit.
    pub compile_cached: bool,
    /// Retries the supervised run needed (0 = first attempt succeeded).
    pub retries: u64,
    /// Lane width of the run: 1 for a scalar run, N for a lane run of N
    /// test vectors (N runs of the one simulator, their reports folded).
    /// Trends group by lane width so lane and scalar configurations never
    /// share a baseline.
    pub lanes: u64,
    /// Optimization level of the compiled artifact that served the run
    /// (`O1`, `O3`, ...; [`crate::OptLevel::label`]). Empty = no compiled
    /// artifact ran it (the interpreter) or the record predates the field;
    /// omitted from the encoded record. Trends group by level, so `-O1`
    /// and `-O3` builds never share a baseline.
    pub opt: String,
    /// Free-form context (fallback reason, error class); empty = omitted
    /// from the encoded record.
    pub note: String,
    /// Peak resident set size of the simulator child process in KiB (the
    /// kernel's `ru_maxrss`, from the `wait4` that reaps the child). 0 =
    /// not measured (interpreter fallback, in-process runs); omitted from
    /// the encoded record when 0.
    pub peak_rss_kb: u64,
    /// Per-phase wall-clock spans.
    pub phases: PhaseMicros,
}

/// The closed set of [`RunRecord::outcome`] values this build writes.
pub mod outcome {
    /// The job produced a report on its primary engine.
    pub const OK: &str = "ok";
    /// The job produced a report, but only after degrading to the
    /// interpretive engine.
    pub const DEGRADED: &str = "degraded";
    /// The job was refused because its executable is quarantined.
    pub const QUARANTINED: &str = "quarantined";
    /// The job produced no report.
    pub const FAILED: &str = "failed";
}

impl RunRecord {
    /// A record stamped with the wall clock, for the caller to fill in.
    pub fn new(source: &str, model: &str) -> RunRecord {
        RunRecord {
            ts_ms: now_ms(),
            source: source.into(),
            model: model.into(),
            lanes: 1,
            ..RunRecord::default()
        }
    }
}

impl Record for RunRecord {
    const FILE_NAME: &'static str = "ledger.jsonl";

    fn write(&self, out: &mut JsonObject) {
        out.num("ts_ms", self.ts_ms)
            .str("source", &self.source)
            .str("model", &self.model)
            .str("engine", &self.engine)
            .num("steps", self.steps)
            .str("outcome", &self.outcome)
            .bool("compile_cached", self.compile_cached)
            .num("retries", self.retries)
            .num("lanes", self.lanes.max(1));
        if !self.opt.is_empty() {
            out.str("opt", &self.opt);
        }
        if !self.note.is_empty() {
            out.str("note", &self.note);
        }
        if self.peak_rss_kb > 0 {
            out.num("peak_rss_kb", self.peak_rss_kb);
        }
        self.phases.write(out);
    }

    fn read(fields: &Fields) -> Option<RunRecord> {
        let mut record = RunRecord {
            ts_ms: fields.num("ts_ms").unwrap_or(0),
            source: fields.str("source").unwrap_or_default(),
            model: fields.str("model").unwrap_or_default(),
            engine: fields.str("engine").unwrap_or_default(),
            steps: fields.num("steps").unwrap_or(0),
            outcome: fields.str("outcome").unwrap_or_default(),
            compile_cached: fields.bool("compile_cached").unwrap_or(false),
            retries: fields.num("retries").unwrap_or(0),
            // Records written before the lane schema addition are scalar.
            lanes: fields.num("lanes").unwrap_or(1).max(1),
            opt: fields.str("opt").unwrap_or_default(),
            note: fields.str("note").unwrap_or_default(),
            peak_rss_kb: fields.num("peak_rss_kb").unwrap_or(0),
            phases: PhaseMicros::default(),
        };
        for (i, name) in PhaseMicros::NAMES.iter().enumerate() {
            record.phases.set(i, fields.num(&format!("{name}_us")).unwrap_or(0));
        }
        Some(record)
    }
}

/// One record type of a [`Store`]: its file and its fields.
pub trait Record: Sized {
    /// The store's file name under the state directory.
    const FILE_NAME: &'static str;

    /// Write the record's fields, every key after `schema`.
    fn write(&self, out: &mut JsonObject);

    /// Read a current-schema line's fields back; `None` skips the line as
    /// garbled.
    fn read(fields: &Fields) -> Option<Self>;
}

/// An append-only JSONL store of `R` records under a state directory.
///
/// Appends take the same cross-process lease the [`crate::BuildCache`]
/// uses (bounded wait, stale takeover), then issue one `O_APPEND` write
/// of the whole line, so concurrent processes sharing a cache dir
/// interleave whole records only.
#[derive(Debug, Clone)]
pub struct Store<R> {
    path: PathBuf,
    record: PhantomData<fn() -> R>,
}

/// The run ledger, `ledger.jsonl`.
pub type RunLedger = Store<RunRecord>;

impl<R: Record> Store<R> {
    /// Schema version written by this build; readers skip other versions.
    pub const SCHEMA: u64 = 1;

    /// The store inside state directory `dir` (created on first append).
    pub fn in_dir(dir: impl Into<PathBuf>) -> Store<R> {
        Store { path: dir.into().join(R::FILE_NAME), record: PhantomData }
    }

    /// The store's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record under the cross-process lease (lock file
    /// `.<name>.lock` alongside the store). A torn tail (previous writer
    /// died mid-append) is repaired by starting a fresh line, so the tear
    /// costs exactly the torn record.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (directory creation, open, write).
    pub fn append(&self, record: &R) -> std::io::Result<()> {
        let mut out = JsonObject::default();
        out.num("schema", Self::SCHEMA);
        record.write(&mut out);
        let mut line = out.finish();
        let dir = self.path.parent().unwrap_or(Path::new("."));
        std::fs::create_dir_all(dir)?;
        let _lease = lease::acquire(&dir.join(format!(".{}.lock", R::FILE_NAME)));
        if tail_is_torn(&self.path) {
            line.insert(0, '\n');
        }
        line.push('\n');
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(&self.path)?;
        f.write_all(line.as_bytes())
    }

    /// Read every [`Store::SCHEMA`] record, in file order. A missing file
    /// is an empty store.
    pub fn read(&self) -> JsonlView<R> {
        let mut view = JsonlView { records: Vec::new(), skipped: 0, truncated_tail: false };
        let contents = std::fs::read_to_string(&self.path).unwrap_or_default();
        let complete_tail = contents.ends_with('\n');
        let lines: Vec<&str> = contents.lines().filter(|l| !l.trim().is_empty()).collect();
        for (i, line) in lines.iter().enumerate() {
            // `Some(None)`: a line of another schema version.
            let parsed = parse_flat_object(line).and_then(|f| {
                if f.num("schema")? == Self::SCHEMA { R::read(&f).map(Some) } else { Some(None) }
            });
            match parsed {
                Some(Some(r)) => view.records.push(r),
                Some(None) => view.skipped += 1, // foreign schema: skip, don't error
                None if i + 1 == lines.len() && !complete_tail => {
                    // Mid-record tail: the writer died between the lease
                    // and the newline. Recoverable by construction.
                    view.truncated_tail = true;
                }
                None => view.skipped += 1,
            }
        }
        view
    }
}

/// Result of reading a [`Store`]: the records that parsed, plus what did
/// not (mirroring the `ACCMOS:` protocol's truncation taxonomy).
#[derive(Debug)]
pub struct JsonlView<R> {
    /// Records of the schema version this build reads, in file order.
    pub records: Vec<R>,
    /// Complete lines that were garbled or from another schema version.
    pub skipped: usize,
    /// Whether the file ends mid-record (no trailing newline and the tail
    /// does not parse) — a writer died mid-append; everything before the
    /// tail is still usable.
    pub truncated_tail: bool,
}

/// Whether the file at `path` exists, is non-empty and does not end with
/// a newline — i.e. its last record was torn by a dying writer.
fn tail_is_torn(path: &Path) -> bool {
    use std::io::{Read, Seek, SeekFrom};
    let Ok(mut f) = std::fs::File::open(path) else {
        return false; // no file: nothing torn
    };
    let mut last = [0u8; 1];
    f.seek(SeekFrom::End(-1)).is_ok() && f.read_exact(&mut last).is_ok() && last[0] != b'\n'
}

/// Per-(model, engine, lane-width, level) phase medians over ledger
/// records, plus the latest cohort for regression checking.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelTrend {
    /// Model name.
    pub model: String,
    /// Engine the samples ran on (mixing engines would poison medians).
    pub engine: String,
    /// Lane width of the samples (mixing lane configurations would poison
    /// medians just like mixing engines).
    pub lanes: u64,
    /// Optimization level of the samples' artifact ([`RunRecord::opt`]):
    /// an `-O1` loop is slower than an `-O3` one, so levels never share a
    /// baseline either.
    pub opt: String,
    /// Number of samples (outcome `ok` or `degraded`).
    pub runs: usize,
    /// Per-phase medians across all samples.
    pub median: PhaseMicros,
    /// Median `run_us` of the latest *cohort*: every sample sharing the
    /// newest timestamp. A batch appends many records in the same
    /// millisecond; treating only one of them as "latest" would leave its
    /// own siblings in the baseline.
    pub latest_run_us: u64,
    /// Median `run_us` of every sample *outside* the latest cohort — the
    /// baseline the latest cohort is compared against. `None` when every
    /// sample shares the newest timestamp.
    pub baseline_run_us: Option<u64>,
    /// Latest-vs-baseline change in percent (positive = slower). `None`
    /// when there is no baseline or the baseline is 0.
    pub regress_pct: Option<f64>,
}

impl ModelTrend {
    /// Display key for the engine, lane and level configuration:
    /// `accmos` for scalar samples, `accmos@8` for 8-lane samples, with
    /// `/O1` or `/O3` appended when the records name a level.
    pub fn engine_key(&self) -> String {
        let mut key = self.engine.clone();
        if self.lanes > 1 {
            key = format!("{key}@{}", self.lanes);
        }
        if !self.opt.is_empty() {
            key = format!("{key}/{}", self.opt);
        }
        key
    }
}

/// Compute per-(model, engine, lane-width, level) trends over ledger
/// records, sorted by model, engine, lane width, then level. Only records
/// that produced a report (outcome `ok` or `degraded`) are samples;
/// refused and failed runs carry no timing signal.
///
/// The "latest run" used for regression checking is the latest *cohort*:
/// all samples sharing the newest `ts_ms`. Batch runs append whole groups
/// of records in one millisecond; comparing a single member against a
/// baseline polluted by its own siblings would dilute `regress_pct` and
/// weaken the `trends --check` gate.
pub fn compute_trends(records: &[RunRecord]) -> Vec<ModelTrend> {
    type Key = (String, String, u64, String);
    let mut groups: BTreeMap<Key, Vec<&RunRecord>> = BTreeMap::new();
    for r in records {
        if r.outcome == outcome::OK || r.outcome == outcome::DEGRADED {
            groups
                .entry((r.model.clone(), r.engine.clone(), r.lanes.max(1), r.opt.clone()))
                .or_default()
                .push(r);
        }
    }
    groups
        .into_iter()
        .map(|((model, engine, lanes, opt), samples)| {
            let newest_ts = samples.iter().map(|r| r.ts_ms).max().unwrap_or(0);
            let mut median = PhaseMicros::default();
            for phase in 0..PhaseMicros::NAMES.len() {
                let vals: Vec<u64> = samples.iter().map(|r| r.phases.get(phase)).collect();
                median.set(phase, median_of(&vals));
            }
            let (cohort, baseline): (Vec<&&RunRecord>, Vec<&&RunRecord>) =
                samples.iter().partition(|r| r.ts_ms == newest_ts);
            let latest_run_us =
                median_of(&cohort.iter().map(|r| r.phases.run_us).collect::<Vec<_>>());
            let baseline: Vec<u64> = baseline.iter().map(|r| r.phases.run_us).collect();
            let baseline_run_us =
                if baseline.is_empty() { None } else { Some(median_of(&baseline)) };
            let regress_pct = baseline_run_us.filter(|&b| b > 0).map(|b| {
                (latest_run_us as f64 - b as f64) / b as f64 * 100.0
            });
            ModelTrend {
                model,
                engine,
                lanes,
                opt,
                runs: samples.len(),
                median,
                latest_run_us,
                baseline_run_us,
                regress_pct,
            }
        })
        .collect()
}

/// The CI gate: every trend whose latest run is more than
/// `max_regress_pct` percent slower than its baseline median, rendered as
/// human-readable violations. Empty = gate passes.
pub fn check_regressions(trends: &[ModelTrend], max_regress_pct: f64) -> Vec<String> {
    trends
        .iter()
        .filter_map(|t| {
            let pct = t.regress_pct?;
            (pct > max_regress_pct).then(|| {
                format!(
                    "{} [{}]: latest run {} is {:+.1}% vs baseline median {} (limit {:.1}%)",
                    t.model,
                    t.engine_key(),
                    fmt_us(t.latest_run_us),
                    pct,
                    fmt_us(t.baseline_run_us.unwrap_or(0)),
                    max_regress_pct
                )
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Hierarchical trace spans
// ---------------------------------------------------------------------------

/// One completed span of the hierarchical trace: a named wall-clock
/// interval on a logical track, with a category and optional string
/// arguments. Spans are recorded flat (post-hoc, from already-measured
/// durations — recording never sits on the timed path); the Chrome
/// trace-event viewer recovers the hierarchy by interval containment
/// within a track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Span name (e.g. `compile`, `attempt 0`, `M_Add`).
    pub name: String,
    /// Category: `pipeline`, `supervisor`, `actor`, `fuzz`, `bench`.
    pub cat: String,
    /// Start, microseconds since the tracer's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Logical track (Chrome `tid`). Concurrent jobs use distinct tracks
    /// so their spans do not interleave into fake hierarchy.
    pub tid: u64,
    /// Extra `key=value` context rendered into the event's `args`.
    pub args: Vec<(String, String)>,
}

/// Shared collector for [`TraceSpan`]s with one wall-clock epoch.
///
/// Cloning shares the buffer (`Arc<Mutex<..>>`), so one tracer can be
/// threaded through the pipeline and batch or serve workers and drained
/// once at the end into a Chrome trace-event JSON file
/// (`--trace-out`, loadable in Perfetto / `chrome://tracing`).
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<Mutex<TracerInner>>,
}

#[derive(Debug)]
struct TracerInner {
    epoch: Instant,
    spans: Vec<TraceSpan>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A fresh tracer; its epoch (trace time 0) is now.
    pub fn new() -> Tracer {
        Tracer {
            inner: Arc::new(Mutex::new(TracerInner {
                epoch: Instant::now(),
                spans: Vec::new(),
            })),
        }
    }

    /// Microseconds elapsed since the tracer's epoch.
    pub fn now_us(&self) -> u64 {
        micros(self.inner.lock().expect("tracer lock").epoch.elapsed())
    }

    /// Record one completed span.
    pub fn record(&self, span: TraceSpan) {
        self.inner.lock().expect("tracer lock").spans.push(span);
    }

    /// Record a completed span from its parts, with no extra args.
    pub fn span(&self, cat: &str, name: &str, start_us: u64, dur_us: u64, tid: u64) {
        self.record(TraceSpan {
            name: name.to_owned(),
            cat: cat.to_owned(),
            start_us,
            dur_us,
            tid,
            args: Vec::new(),
        });
    }

    /// Render a profiled run's per-actor aggregates as `actor`-category
    /// leaf spans laid end to end from `start_us` on track `tid` — an
    /// attribution view (cumulative time per site, not individual
    /// invocations), sized so the leaves nest inside the enclosing run
    /// span in proportion to their measured share.
    pub fn record_profile(
        &self,
        start_us: u64,
        tid: u64,
        profile: &[accmos_ir::ActorProfile],
    ) {
        let mut at = start_us;
        for p in profile {
            let dur = p.ns / 1_000;
            self.record(TraceSpan {
                name: p.actor.clone(),
                cat: "actor".to_owned(),
                start_us: at,
                dur_us: dur,
                tid,
                args: vec![
                    ("ns".to_owned(), p.ns.to_string()),
                    ("calls".to_owned(), p.calls.to_string()),
                ],
            });
            at += dur;
        }
    }

    /// Snapshot of every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<TraceSpan> {
        self.inner.lock().expect("tracer lock").spans.clone()
    }

    /// Encode every recorded span as Chrome trace-event JSON (the
    /// `traceEvents` array format, complete `ph:"X"` duration events,
    /// timestamps in microseconds) — loadable in Perfetto and
    /// `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans()
            .iter()
            .map(|s| {
                let mut event = JsonObject::default();
                event.str("name", &s.name).str("cat", &s.cat).str("ph", "X");
                event.num("ts", s.start_us).num("dur", s.dur_us).num("pid", 1).num("tid", s.tid);
                if !s.args.is_empty() {
                    let mut args = JsonObject::default();
                    for (k, v) in &s.args {
                        args.str(k, v);
                    }
                    event.raw("args", &args.finish());
                }
                event.finish()
            })
            .collect();
        let events = format!("[{}]", events.join(","));
        JsonObject::default().raw("traceEvents", &events).str("displayTimeUnit", "ms").finish()
    }

    /// Write the Chrome trace-event JSON to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_chrome_json(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }
}

/// Median of a non-empty slice (0 for empty); even-length medians average
/// the middle pair, truncating toward zero.
fn median_of(vals: &[u64]) -> u64 {
    if vals.is_empty() {
        return 0;
    }
    let mut sorted = vals.to_vec();
    sorted.sort_unstable();
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        sorted[mid - 1] / 2 + sorted[mid] / 2 + (sorted[mid - 1] % 2 + sorted[mid] % 2) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("accmos-telemetry-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// `record` encoded as the ledger line it appends, without the newline.
    fn line(record: &RunRecord) -> String {
        let mut out = JsonObject::default();
        out.num("schema", RunLedger::SCHEMA);
        record.write(&mut out);
        out.finish()
    }

    /// A ledger line decoded, `None` when garbled.
    fn decode(line: &str) -> Option<RunRecord> {
        RunRecord::read(&parse_flat_object(line)?)
    }

    fn sample(model: &str, run_us: u64, ts_ms: u64) -> RunRecord {
        RunRecord {
            ts_ms,
            source: "test".into(),
            model: model.into(),
            engine: "accmos".into(),
            steps: 1000,
            outcome: outcome::OK.into(),
            compile_cached: true,
            retries: 0,
            lanes: 1,
            opt: String::new(),
            note: String::new(),
            peak_rss_kb: 0,
            phases: PhaseMicros { run_us, compile_us: 85, ..PhaseMicros::default() },
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        let mut r = RunRecord::new("batch", "SPV \"quoted\"\npath");
        r.engine = "accmos".into();
        r.steps = 50_000_000;
        r.outcome = outcome::DEGRADED.into();
        r.compile_cached = true;
        r.retries = 2;
        r.note = "fell back: tab\there".into();
        r.phases = PhaseMicros {
            parse_us: 1,
            preprocess_us: 437,        // sub-millisecond spans must survive
            analyze_us: 52,
            codegen_us: 999,
            compile_us: 63,            // cached compile: tens of µs
            run_us: 1_234_567,
            backoff_us: 37,
        };
        let line = line(&r);
        assert!(!line.contains('\n'), "encoded record is one line");
        let back = decode(&line).expect("round trip parses");
        assert_eq!(back, r);
        assert_eq!(back.phases.preprocess_us, 437, "microseconds, not truncated ms");
    }

    #[test]
    fn micros_conversion_preserves_sub_millisecond_spans() {
        assert_eq!(micros(Duration::from_micros(437)), 437);
        assert_eq!(micros(Duration::from_nanos(1_500)), 1, "ns floor to µs");
        assert_eq!(micros(Duration::from_secs(2)), 2_000_000);
        // The old as_millis() path would have reported 0 here.
        assert_ne!(micros(Duration::from_micros(437)), 0);
    }

    #[test]
    fn fmt_us_formats_at_the_display_edge() {
        assert_eq!(fmt_us(0), "0µs");
        assert_eq!(fmt_us(417), "417µs");
        assert_eq!(fmt_us(4_520), "4.52ms");
        assert_eq!(fmt_us(1_380_000), "1.38s");
    }

    #[test]
    fn ledger_appends_and_reads_back_in_order() {
        let dir = scratch_dir("append");
        let ledger = RunLedger::in_dir(&dir);
        assert!(ledger.read().records.is_empty(), "missing file is an empty ledger");
        ledger.append(&sample("A", 100, 1)).unwrap();
        // A second handle (a second process in real life) appends too.
        RunLedger::in_dir(&dir).append(&sample("B", 200, 2)).unwrap();
        let view = ledger.read();
        assert_eq!(view.records.len(), 2);
        assert_eq!(view.records[0].model, "A");
        assert_eq!(view.records[1].model, "B");
        assert_eq!(view.skipped, 0);
        assert!(!view.truncated_tail);
        assert!(
            !dir.join(format!(".{}.lock", RunRecord::FILE_NAME)).exists(),
            "lease released after append"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn golden_ledger_lines_of_the_previous_format_read_back() {
        // Lines as an earlier build wrote them, including a profiled run's
        // `prof` key (no longer written; unknown keys are ignored), then a
        // foreign-schema line, a torn record repaired by a later append
        // and a torn tail.
        let batch = r#"{"schema":1,"ts_ms":1792427959218,"source":"batch","model":"SPV","engine":"accmos","steps":500,"outcome":"ok","compile_cached":false,"retries":0,"lanes":1,"opt":"O1","peak_rss_kb":5856,"parse_us":0,"preprocess_us":212,"analyze_us":81,"codegen_us":467,"compile_us":164020,"run_us":1602,"backoff_us":0}"#;
        let profiled = r#"{"schema":1,"ts_ms":1792428041399,"source":"run","model":"Sample","engine":"accmos","steps":300,"outcome":"ok","compile_cached":false,"retries":0,"lanes":1,"opt":"O1","peak_rss_kb":3800,"prof":"Sample_A=144:300:5,Sample_B=140:300:5,Sample_AccA=111:300:5,Sample_AccB=112:300:5,Sample_Sum=159:300:5,Sample_Out=112:300:5","parse_us":0,"preprocess_us":9,"analyze_us":18,"codegen_us":73,"compile_us":98424,"run_us":535,"backoff_us":0}"#;
        let failed = r#"{"schema":1,"ts_ms":1792427967209,"source":"serve","model":"bench:NOPE","engine":"","steps":5,"outcome":"failed","compile_cached":false,"retries":0,"lanes":1,"note":"unknown benchmark `NOPE` (valid: figure1, CPUT, CSEV, FMTM, LANS, LEDLC, RAC, SPV, TCP, TWC, UTPC)","parse_us":0,"preprocess_us":0,"analyze_us":0,"codegen_us":0,"compile_us":0,"run_us":0,"backoff_us":0}"#;
        let foreign = batch.replacen(r#""schema":1"#, r#""schema":2"#, 1);
        let dir = scratch_dir("golden");
        std::fs::create_dir_all(&dir).unwrap();
        let ledger = RunLedger::in_dir(&dir);
        let torn = r#"{"schema":1,"ts_ms":1792427959587,"source":"run","model":"CS"#;
        let contents = format!("{batch}\n{profiled}\n{foreign}\n{torn}\n{failed}\n{torn}");
        std::fs::write(ledger.path(), contents).unwrap();
        let view = ledger.read();
        assert_eq!((view.records.len(), view.skipped, view.truncated_tail), (3, 2, true));
        let want = RunRecord {
            ts_ms: 1792427959218,
            source: "batch".into(),
            model: "SPV".into(),
            engine: "accmos".into(),
            steps: 500,
            outcome: outcome::OK.into(),
            compile_cached: false,
            retries: 0,
            lanes: 1,
            opt: "O1".into(),
            note: String::new(),
            peak_rss_kb: 5856,
            phases: PhaseMicros {
                preprocess_us: 212,
                analyze_us: 81,
                codegen_us: 467,
                compile_us: 164020,
                run_us: 1602,
                ..PhaseMicros::default()
            },
        };
        assert_eq!(view.records[0], want);
        assert_eq!((view.records[1].model.as_str(), view.records[1].peak_rss_kb), ("Sample", 3800));
        assert_eq!(view.records[1].phases.compile_us, 98424);
        assert_eq!(view.records[2].outcome, outcome::FAILED);
        assert!(view.records[2].engine.is_empty() && view.records[2].note.contains("NOPE"));
        // Writing a record back gives the line it was read from, minus `prof`.
        assert_eq!(line(&view.records[0]), batch);
        let prof = r#","prof":"Sample_A=144:300:5,Sample_B=140:300:5,Sample_AccA=111:300:5,Sample_AccB=112:300:5,Sample_Sum=159:300:5,Sample_Out=112:300:5""#;
        assert!(profiled.contains(prof));
        assert_eq!(line(&view.records[1]), profiled.replace(prof, ""));
        assert_eq!(line(&view.records[2]), failed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_last_line_is_recovered_not_fatal() {
        let dir = scratch_dir("truncate");
        let ledger = RunLedger::in_dir(&dir);
        ledger.append(&sample("A", 100, 1)).unwrap();
        ledger.append(&sample("B", 200, 2)).unwrap();
        // A writer died mid-append: the tail is a partial record with no
        // trailing newline (mirrors the ACCMOS: protocol truncation case).
        let mut contents = std::fs::read(ledger.path()).unwrap();
        let half = line(&sample("C", 300, 3));
        contents.extend_from_slice(&half.as_bytes()[..half.len() / 2]);
        std::fs::write(ledger.path(), &contents).unwrap();
        let view = ledger.read();
        assert_eq!(view.records.len(), 2, "records before the tear survive");
        assert!(view.truncated_tail, "mid-record tail detected");
        assert_eq!(view.skipped, 0, "a torn tail is not a garbled line");
        // The next append repairs the tear: it starts a fresh line, so
        // the crash costs exactly the torn record.
        ledger.append(&sample("D", 400, 4)).unwrap();
        let view = ledger.read();
        assert_eq!(view.records.len(), 3, "append after a tear is not lost");
        assert_eq!(view.records[2].model, "D");
        assert_eq!(view.skipped, 1, "the torn record, now newline-terminated");
        assert!(!view.truncated_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_schema_and_garbled_lines_are_skipped() {
        let dir = scratch_dir("schema");
        let ledger = RunLedger::in_dir(&dir);
        ledger.append(&sample("A", 100, 1)).unwrap();
        let future = line(&sample("B", 200, 2)).replacen("\"schema\":1", "\"schema\":2", 1);
        let mut contents = std::fs::read_to_string(ledger.path()).unwrap();
        contents.push_str(&format!("{future}\nnot json at all\n"));
        std::fs::write(ledger.path(), &contents).unwrap();
        ledger.append(&sample("C", 300, 3)).unwrap();
        let view = ledger.read();
        assert_eq!(view.records.len(), 2, "current-schema records kept");
        assert_eq!(view.skipped, 2, "foreign schema + garbled line skipped");
        assert!(!view.truncated_tail, "complete lines, even bad ones, are not a tear");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_keys_are_tolerated() {
        let line = r#"{"schema":1,"model":"M","outcome":"ok","run_us":42,"future_field":"x","another":7}"#;
        let r = decode(line).expect("unknown keys ignored");
        assert_eq!(r.model, "M");
        assert_eq!(r.phases.run_us, 42);
    }

    #[test]
    fn trailing_garbage_after_object_is_rejected() {
        let fused = format!("{}{}", line(&sample("A", 1, 1)), line(&sample("B", 2, 2)));
        assert!(decode(&fused).is_none(), "fused records are garbled");
    }

    #[test]
    fn median_of_handles_empty_odd_even() {
        assert_eq!(median_of(&[]), 0);
        assert_eq!(median_of(&[7]), 7);
        assert_eq!(median_of(&[1, 9, 5]), 5);
        assert_eq!(median_of(&[1, 3]), 2);
        assert_eq!(median_of(&[u64::MAX, u64::MAX]), u64::MAX, "no overflow");
    }

    #[test]
    fn trends_group_by_model_and_engine_and_flag_regressions() {
        let mut records = vec![
            sample("SPV", 1_000, 1),
            sample("SPV", 1_100, 2),
            sample("SPV", 1_050, 3),
            sample("TWC", 500, 1),
            sample("TWC", 520, 2),
        ];
        // A degraded run on a different engine forms its own group.
        let mut deg = sample("SPV", 90_000, 4);
        deg.engine = "sse".into();
        deg.outcome = outcome::DEGRADED.into();
        records.push(deg);
        // Failed and quarantined runs carry no timing signal.
        let mut failed = sample("SPV", 0, 5);
        failed.outcome = outcome::FAILED.into();
        records.push(failed);

        let trends = compute_trends(&records);
        assert_eq!(trends.len(), 3, "SPV/accmos, SPV/sse, TWC/accmos");
        let spv = trends.iter().find(|t| t.model == "SPV" && t.engine == "accmos").unwrap();
        assert_eq!(spv.runs, 3);
        assert_eq!(spv.median.run_us, 1_050);
        assert_eq!(spv.latest_run_us, 1_050, "latest by timestamp");
        assert_eq!(spv.baseline_run_us, Some(1_050), "median of 1000 and 1100");
        let twc = trends.iter().find(|t| t.model == "TWC").unwrap();
        assert_eq!(twc.latest_run_us, 520);
        assert_eq!(twc.baseline_run_us, Some(500));
        assert!((twc.regress_pct.unwrap() - 4.0).abs() < 1e-9);

        // Within 10%: gate passes. Artificially slowed run: gate trips.
        assert!(check_regressions(&trends, 10.0).is_empty());
        records.push(sample("TWC", 5_000, 9));
        let trends = compute_trends(&records);
        let violations = check_regressions(&trends, 10.0);
        assert_eq!(violations.len(), 1, "slowed TWC run flagged: {violations:?}");
        assert!(violations[0].contains("TWC"));
    }

    #[test]
    fn latest_cohort_excludes_same_millisecond_siblings_from_baseline() {
        // A double-batch ledger: the baseline batch appends 3 records in
        // one millisecond, the (5× slower) latest batch appends 4 records
        // in another. The old single-"latest" logic compared one slow
        // record against a baseline containing its own 3 siblings, which
        // diluted the regression below a 100% gate. The cohort logic
        // compares median(latest batch) vs median(everything older).
        let mut records = Vec::new();
        for _ in 0..3 {
            records.push(sample("SPV", 1_000, 10));
        }
        for _ in 0..4 {
            records.push(sample("SPV", 5_000, 20));
        }
        let trends = compute_trends(&records);
        assert_eq!(trends.len(), 1);
        let t = &trends[0];
        assert_eq!(t.latest_run_us, 5_000, "median over the latest cohort");
        assert_eq!(t.baseline_run_us, Some(1_000), "siblings stay out of the baseline");
        assert!((t.regress_pct.unwrap() - 400.0).abs() < 1e-9);
        assert_eq!(
            check_regressions(&trends, 100.0).len(),
            1,
            "a 5× slowdown must trip a 100% gate even when batched"
        );
        // When every sample shares the newest timestamp there is nothing
        // to compare against: no baseline, gate silent.
        let only_batch: Vec<RunRecord> = (0..3).map(|_| sample("TWC", 700, 5)).collect();
        let trends = compute_trends(&only_batch);
        assert_eq!(trends[0].baseline_run_us, None);
        assert!(check_regressions(&trends, 0.0).is_empty());
    }

    #[test]
    fn lane_configs_form_separate_trends() {
        // Scalar and lane-8 runs of the same model+engine must never
        // share a baseline: a lane-8 run is ~8 vectors of work per
        // record and would look like a huge regression against scalar.
        let mut records = vec![sample("SPV", 1_000, 1), sample("SPV", 1_010, 2)];
        let mut lane = sample("SPV", 3_000, 3);
        lane.lanes = 8;
        records.push(lane.clone());
        lane.ts_ms = 4;
        records.push(lane);
        let trends = compute_trends(&records);
        assert_eq!(trends.len(), 2, "scalar and lane-8 groups");
        let scalar = trends.iter().find(|t| t.lanes == 1).unwrap();
        let lane8 = trends.iter().find(|t| t.lanes == 8).unwrap();
        assert_eq!(scalar.engine_key(), "accmos");
        assert_eq!(lane8.engine_key(), "accmos@8");
        assert_eq!(scalar.latest_run_us, 1_010);
        assert_eq!(lane8.latest_run_us, 3_000);
        assert!(
            check_regressions(&trends, 50.0).is_empty(),
            "no cross-contamination between lane configs"
        );
    }

    #[test]
    fn opt_levels_form_separate_trends_and_show_in_the_key() {
        // A slower -O1 loop must never read as a regression of -O3 runs
        // of the same model, engine and lane width, nor the reverse.
        let mut records = Vec::new();
        for (ts, (opt, run_us)) in [("O3", 1_000), ("O3", 1_020), ("O1", 1_600), ("O1", 1_580)]
            .into_iter()
            .enumerate()
        {
            let mut r = sample("RAC", run_us, ts as u64 + 1);
            r.opt = opt.into();
            records.push(r);
        }
        let mut lane = sample("RAC", 4_000, 9);
        lane.lanes = 4;
        lane.opt = "O1".into();
        records.push(lane);
        let trends = compute_trends(&records);
        let keys: Vec<String> = trends.iter().map(ModelTrend::engine_key).collect();
        assert_eq!(keys, ["accmos/O1", "accmos/O3", "accmos@4/O1"]);
        assert_eq!(trends[0].runs, 2);
        assert_eq!(trends[1].baseline_run_us, Some(1_000));
        assert!(check_regressions(&trends, 5.0).is_empty(), "no cross-level baseline");
        // The level round-trips; a record without one omits the key and
        // an older line without the key parses with none.
        let encoded = line(&records[0]);
        assert!(encoded.contains("\"opt\":\"O3\""), "{encoded}");
        assert_eq!(decode(&encoded).unwrap().opt, "O3");
        assert!(!line(&sample("RAC", 1, 1)).contains("\"opt\""));
    }

    #[test]
    fn lanes_round_trip_and_default_to_scalar_for_old_records() {
        let mut r = RunRecord::new("run", "SPV");
        r.lanes = 8;
        assert_eq!(decode(&line(&r)).unwrap().lanes, 8);
        // A pre-lane-schema line (no "lanes" key) parses as scalar.
        let old = r#"{"schema":1,"model":"M","outcome":"ok","run_us":42}"#;
        assert_eq!(decode(old).unwrap().lanes, 1);
    }

    #[test]
    fn single_sample_has_no_baseline_and_never_trips_the_gate() {
        let trends = compute_trends(&[sample("A", 123, 1)]);
        assert_eq!(trends.len(), 1);
        assert_eq!(trends[0].baseline_run_us, None);
        assert_eq!(trends[0].regress_pct, None);
        assert!(check_regressions(&trends, 0.0).is_empty());
    }

    #[test]
    fn rss_round_trips_and_is_omitted_when_zero() {
        let mut r = RunRecord::new("run", "SPV");
        r.outcome = outcome::OK.into();
        let encoded = line(&r);
        assert!(!encoded.contains("peak_rss_kb"), "zero RSS omitted: {encoded}");
        r.peak_rss_kb = 10_240;
        assert_eq!(decode(&line(&r)).unwrap().peak_rss_kb, 10_240);
        // Pre-schema lines parse with the defaults.
        let old = r#"{"schema":1,"model":"M","outcome":"ok","run_us":42}"#;
        assert_eq!(decode(old).unwrap().peak_rss_kb, 0);
    }

    #[test]
    fn tracer_profile_leaves_lay_end_to_end() {
        let tracer = Tracer::new();
        let profile = vec![
            accmos_ir::ActorProfile { actor: "M_A".into(), ns: 5_000, calls: 10, timed: 1 },
            accmos_ir::ActorProfile { actor: "M_B".into(), ns: 3_000, calls: 10, timed: 1 },
        ];
        tracer.record_profile(100, 7, &profile);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].cat, "actor");
        assert_eq!((spans[0].start_us, spans[0].dur_us), (100, 5));
        assert_eq!((spans[1].start_us, spans[1].dur_us), (105, 3));
        assert_eq!(spans[1].args[1], ("calls".to_owned(), "10".to_owned()));
    }

    #[test]
    fn chrome_json_is_well_formed_and_escaped() {
        let tracer = Tracer::new();
        tracer.record(TraceSpan {
            name: "needs \"escaping\"\n".into(),
            cat: "pipeline".into(),
            start_us: 1,
            dur_us: 2,
            tid: 3,
            args: vec![("key".into(), "va\"lue".into())],
        });
        tracer.span("actor", "M_Add", 10, 20, 3);
        let json = tracer.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\\\"escaping\\\"\\n"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"cat\":\"actor\""));
        // The flat-object parser rejects nesting, so validate shape by
        // balance instead: every brace and bracket closes.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        // A cloned tracer shares the buffer.
        let clone = tracer.clone();
        clone.span("bench", "extra", 0, 1, 0);
        assert_eq!(tracer.spans().len(), 3);
    }

    #[test]
    fn phase_ordinals_are_dense_and_named() {
        let mut p = PhaseMicros::default();
        for i in 0..PhaseMicros::NAMES.len() {
            p.set(i, (i as u64 + 1) * 10);
        }
        for i in 0..PhaseMicros::NAMES.len() {
            assert_eq!(p.get(i), (i as u64 + 1) * 10);
            assert!(!PhaseMicros::NAMES[i].is_empty());
        }
    }
}
