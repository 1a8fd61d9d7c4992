//! `accmos serve` — a long-lived in-process simulation service.
//!
//! The daemon listens on a Unix-domain socket for line-delimited flat
//! JSON requests, keeps a persistent job queue, and executes generated
//! simulators **in process**: a trusted job's C program is compiled as a
//! shared object ([`crate::Compiler::compile_shared`]) and invoked through
//! [`crate::DylibRunner`], eliminating the per-run `fork`/`exec`/pipe cost of
//! the subprocess engine. A job repeating a model the daemon has run
//! before (see *Warm path*) still pays its stimulus, a scratch copy,
//! `dlopen` and `dlclose` of the shared object, the entry call, the parse
//! of the records it emits, and the ledger append.
//!
//! ## Warm path
//!
//! The daemon memoizes each trusted model's plan and shared object under
//! its source alone, so one entry serves jobs of every lane width (a lane
//! is one more call of the same shared object). The source is a `bench:`
//! spec's canonical name, or a model file's text, read on every job (a
//! rewritten file is a new model); the pipeline's codegen options are
//! fixed for the daemon's lifetime. A hit skips resolving and planning
//! the model, `cc --version`, writing the sources, hashing the cache key
//! and the build-cache fetch; its ledger record shows a cached build with zero
//! plan and compile time. A miss takes the full path and memoizes its
//! result after the job. The memo keeps at most 64 entries, evicting the
//! least recently used; an entry's shared object owns its build
//! directory and removes it once the entry is evicted and no running job
//! holds it, and when the daemon stops. A memoized shared object that
//! fails (a timeout aside) is dropped, and the job goes on down the
//! ladder. `rand:` specs are never memoized.
//!
//! A job builds for its own step budget, steps × lanes: at `-O1` below
//! [`crate::O3_BUDGET`], at `-O3` from it on, unless the pipeline pins a
//! level. An `-O3` entry serves every later job of its model. An `-O1`
//! entry serves jobs below the budget; the first job at or above it
//! builds at `-O3` and its build replaces the `-O1` entry.
//!
//! ## Protocol
//!
//! One JSON object per line, both directions. Requests:
//!
//! ```text
//! {"op":"submit","model":"bench:SPV","steps":1000,"lanes":1,"rows":8,"seed":44101}
//! {"op":"ping"}
//! {"op":"shutdown"}
//! ```
//!
//! Replies stream back on the same connection: an immediate
//! `{"event":"queued","job":...}` acknowledgement, then a
//! `{"event":"done",...}` record when the job finishes (jobs submitted
//! on one connection report on that connection, in completion order).
//! `ping` answers `pong` with the number of jobs still pending;
//! `shutdown` answers `bye`, drains the queue, and stops the daemon.
//!
//! ## Persistence and recovery
//!
//! Every accepted job appends a `queued` record to `jobs.jsonl` in the
//! pipeline's state directory, and a `done` record on completion: the job
//! journal is one of the state directory's JSONL stores, written and read
//! like the run ledger. On start the daemon re-enqueues every `queued` job
//! without a matching `done` — so jobs survive a daemon crash, a torn
//! final line (the killed daemon's half-written append) and lines of
//! another schema are skipped, and completed jobs are never re-run.
//! Recovered jobs have no client connection; their results go to the
//! ledger and `jobs.jsonl` only.
//!
//! ## Isolation policy
//!
//! Jobs walk the job executor's engine ladder. In-process execution
//! trades isolation for dispatch cost, so every step down the ladder is
//! flagged: the run record is `degraded`, with a note naming each cause.
//!
//! - models from untrusted specs (`rand:SEED`, fuzz-generated) enter at
//!   the supervised child-process rung; trusted specs enter in process;
//! - any dylib build, load or run failure (`dlopen` error, stale entry)
//!   drops to the child-process rung;
//! - an executable that does not build, or is quarantined, drops to the
//!   interpreter;
//! - a timeout is a real failure, not a fallback trigger: the budget is
//!   already spent. The kill timeout is one deadline for the whole job:
//!   each rung runs under what the rungs before it left, the in-process
//!   run as the entry's own deadline check and the interpreter as its
//!   lanes' time budget.
//!
//! Successful in-process runs are recorded with engine `accmos-dylib`
//! (source `serve`), so ledger trends keep the two dispatch engines in
//! separate baselines.

use crate::batch::WorkQueue;
use crate::exec::{Entry, Exec, Executor, Fallback, Job, Plan, Subject};
use crate::fuzz::panic_text;
use crate::telemetry::{self, Fields, JsonObject, Record, Store};
use crate::{AccMoS, AccMoSError, CompiledDylib, OptLevel, RunOptions, Source};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// The most lanes and stimulus rows one job may ask for. The stimulus is
/// allocated up front, and a failed allocation aborts the whole daemon.
const MAX_LANES: u64 = 64;
const MAX_ROWS: u64 = 65_536;

/// The most models the memo keeps built: the built-in models, with room
/// for model files.
const MEMO_ENTRIES: usize = 64;

/// Configuration for [`ServeHandle::start`].
#[derive(Debug)]
pub struct ServeConfig {
    socket: PathBuf,
    workers: usize,
    pipeline: AccMoS,
}

impl ServeConfig {
    /// A service on `socket` with 2 workers and a default [`AccMoS`]
    /// pipeline.
    pub fn new(socket: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig { socket: socket.into(), workers: 2, pipeline: AccMoS::new() }
    }

    /// Builder-style: number of concurrent job workers (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> ServeConfig {
        self.workers = workers.max(1);
        self
    }

    /// Builder-style: the pipeline executing jobs (cache, exec policy,
    /// tracer). Its state directory hosts `jobs.jsonl` and the ledger; a
    /// cache-less pipeline serves ephemerally.
    pub fn with_pipeline(mut self, pipeline: AccMoS) -> ServeConfig {
        self.pipeline = pipeline;
        self
    }
}

/// One queued simulation request.
#[derive(Clone)]
struct ServeJob {
    id: String,
    spec: String,
    steps: u64,
    lanes: usize,
    rows: usize,
    seed: u64,
    /// Where to stream the `done` event; `None` for jobs recovered from
    /// `jobs.jsonl` (their submitter is gone).
    reply: Option<Sink>,
}

/// A shared write end of a client connection. Workers finishing jobs and
/// the connection's own acknowledgements interleave line-atomically.
type Sink = Arc<Mutex<UnixStream>>;

struct ServeShared {
    pipeline: AccMoS,
    memo: Memo,
    journal: Option<Store<Journal>>,
    pending: AtomicUsize,
    shutting_down: AtomicBool,
    seq: AtomicU64,
}

/// A running `accmos serve` daemon. Dropping the handle does **not**
/// stop the service; call [`ServeHandle::stop`] or send a `shutdown`
/// request and [`ServeHandle::join`].
pub struct ServeHandle {
    socket: PathBuf,
    shared: Arc<ServeShared>,
    queue: Arc<WorkQueue<ServeJob>>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServeHandle {
    /// Bind the socket, recover unfinished jobs from `jobs.jsonl`, and
    /// start the accept loop plus the worker pool.
    ///
    /// # Errors
    ///
    /// Socket bind failures and state-directory I/O errors.
    pub fn start(config: ServeConfig) -> std::io::Result<ServeHandle> {
        let journal = match config.pipeline.state_dir() {
            Some(dir) => {
                std::fs::create_dir_all(&dir)?;
                Some(Store::in_dir(dir))
            }
            None => None,
        };
        let shared = Arc::new(ServeShared {
            pipeline: config.pipeline,
            memo: Memo::default(),
            journal,
            pending: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            seq: AtomicU64::new(0),
        });
        let queue = Arc::new(WorkQueue::new());
        for job in recover_jobs(shared.journal.as_ref()) {
            shared.pending.fetch_add(1, Ordering::Relaxed);
            queue.push(job);
        }

        // A stale socket file from a crashed daemon blocks the bind.
        let _ = std::fs::remove_file(&config.socket);
        let listener = UnixListener::bind(&config.socket)?;

        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("accmos-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &queue, i as u64 + 2))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        let accept = {
            let shared = Arc::clone(&shared);
            let queue = Arc::clone(&queue);
            let socket = config.socket.clone();
            std::thread::Builder::new()
                .name("accmos-serve-accept".into())
                .spawn(move || accept_loop(&listener, &socket, &shared, &queue))?
        };

        Ok(ServeHandle { socket: config.socket, shared, queue, accept, workers })
    }

    /// The socket path the daemon is listening on.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Jobs accepted but not yet finished.
    pub fn pending(&self) -> usize {
        self.shared.pending.load(Ordering::Relaxed)
    }

    /// Block until the daemon stops (a client sent `shutdown`), then
    /// reap its threads and remove the socket file and every memoized
    /// build directory.
    pub fn join(self) {
        let _ = self.accept.join();
        for worker in self.workers {
            let _ = worker.join();
        }
        self.shared.memo.clear();
        let _ = std::fs::remove_file(&self.socket);
    }

    /// Initiate shutdown programmatically: stop accepting, drain the
    /// queued jobs, and wait for the workers to finish.
    pub fn stop(self) {
        initiate_shutdown(&self.shared, &self.queue, &self.socket);
        self.join();
    }
}

/// Flag the daemon as stopping, close the queue (workers drain the
/// backlog and exit), and wake the accept loop with a throwaway
/// connection so it observes the flag.
fn initiate_shutdown(shared: &ServeShared, queue: &WorkQueue<ServeJob>, socket: &Path) {
    shared.shutting_down.store(true, Ordering::Release);
    queue.close();
    let _ = UnixStream::connect(socket);
}

fn accept_loop(
    listener: &UnixListener,
    socket: &Path,
    shared: &Arc<ServeShared>,
    queue: &Arc<WorkQueue<ServeJob>>,
) {
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let queue = Arc::clone(queue);
        let socket = socket.to_path_buf();
        // Connection handlers are detached: they end when the client
        // hangs up, and nothing joins them. A handler that observes a
        // `shutdown` op initiates the daemon-wide shutdown itself.
        let _ = std::thread::Builder::new()
            .name("accmos-serve-conn".into())
            .spawn(move || handle_connection(stream, &socket, &shared, &queue));
    }
}

fn handle_connection(
    stream: UnixStream,
    socket: &Path,
    shared: &Arc<ServeShared>,
    queue: &Arc<WorkQueue<ServeJob>>,
) {
    let Ok(read_half) = stream.try_clone() else { return };
    let sink: Sink = Arc::new(Mutex::new(stream));
    for line in BufReader::new(read_half).lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let Some(req) = telemetry::parse_flat_object(&line) else {
            send_line(&sink, &event("error").str("detail", "request is not a flat JSON object").finish());
            continue;
        };
        match req.str("op").as_deref() {
            Some("submit") => {
                let seq = shared.seq.fetch_add(1, Ordering::Relaxed);
                let id = format!("j{}-{seq}", std::process::id());
                let job = match parse_job(&req, id, Some(Arc::clone(&sink))) {
                    Ok(job) => job,
                    Err(detail) => {
                        send_line(&sink, &event("error").str("detail", &detail).finish());
                        continue;
                    }
                };
                append_job_event(shared, &Journal::Queued(job.clone()));
                send_line(&sink, &event("queued").str("job", &job.id).finish());
                shared.pending.fetch_add(1, Ordering::Relaxed);
                queue.push(job);
            }
            Some("ping") => {
                let pending = shared.pending.load(Ordering::Relaxed);
                send_line(&sink, &event("pong").num("pending", pending).finish());
            }
            Some("shutdown") => {
                send_line(&sink, &event("bye").finish());
                initiate_shutdown(shared, queue, socket);
                return;
            }
            other => {
                let detail = format!("unknown op `{}`", other.unwrap_or_default());
                send_line(&sink, &event("error").str("detail", &detail).finish());
            }
        }
    }
}

/// A worker: run queued jobs one at a time until the queue closes,
/// tracing them on its own track `tid`, so concurrent jobs never share
/// one.
fn worker_loop(shared: &ServeShared, queue: &WorkQueue<ServeJob>, tid: u64) {
    while let Some(job) = queue.pop() {
        // A panicking job (a bug, not a policy outcome) must not take
        // the worker down with it — the daemon keeps serving.
        let done = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_job(&shared.pipeline, &shared.memo, &job, tid)
        }))
        .unwrap_or_else(|payload| {
            DoneEvent::of(&Exec::failed(AccMoSError::Batch(format!(
                "job panicked: {}",
                panic_text(payload)
            ))))
        });
        append_job_event(shared, &Journal::Done { job: job.id.clone(), outcome: done.outcome.into() });
        if let Some(sink) = &job.reply {
            send_line(sink, &done.event_line(&job));
        }
        shared.pending.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The terminal state of one job, in both its on-wire and on-disk forms.
struct DoneEvent {
    outcome: &'static str,
    engine: String,
    digest: u64,
    steps: u64,
    note: String,
}

impl DoneEvent {
    fn of(exec: &Exec) -> DoneEvent {
        let (engine, digest, steps) = match &exec.report {
            Ok(report) => (report.engine.clone(), report.output_digest, report.steps),
            Err(_) => (String::new(), 0, 0),
        };
        DoneEvent { outcome: exec.outcome(), engine, digest, steps, note: exec.note() }
    }

    fn event_line(&self, job: &ServeJob) -> String {
        event("done")
            .str("job", &job.id)
            .str("model", &job.spec)
            .str("outcome", self.outcome)
            .str("engine", &self.engine)
            .str("digest", &format!("{:016x}", self.digest))
            .num("steps", self.steps)
            .str("note", &self.note)
            .finish()
    }
}

/// A trusted model's plan and shared object, built by the first job that
/// names it and reused by every later one. The last holder to drop it (the
/// memo on eviction or shutdown, or a job still running it) drops the
/// shared object, which removes its build directory.
struct Warm {
    plan: Plan,
    dylib: CompiledDylib,
}

/// The daemon's memo of [`Warm`] models by their source (the daemon's
/// codegen options are fixed for its lifetime), least recently used
/// first, at most [`MEMO_ENTRIES`] of them.
#[derive(Default)]
struct Memo(Mutex<Vec<(Source, Arc<Warm>)>>);

impl Memo {
    /// Every update leaves the list valid, so a job that panicked while
    /// holding the lock left nothing half done.
    fn entries(&self) -> MutexGuard<'_, Vec<(Source, Arc<Warm>)>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The entry for `key`, if it can serve a job that builds at `want`:
    /// any entry when `want` is below `-O3`, else only an `-O3` one.
    fn get(&self, key: &Source, want: OptLevel) -> Option<Arc<Warm>> {
        let mut entries = self.entries();
        let i = entries.iter().position(|(k, _)| k == key)?;
        if want == OptLevel::O3 && entries[i].1.dylib.opt_level() != OptLevel::O3 {
            return None;
        }
        let entry = entries.remove(i);
        let warm = Arc::clone(&entry.1);
        entries.push(entry);
        Some(warm)
    }

    /// Keep `warm` unless another job's build of `key` got in first; an
    /// `-O3` build replaces an entry of a lower level. What this drops, an
    /// evicted or replaced entry or the losing build, is removed after the
    /// lock is released.
    fn insert(&self, key: Source, warm: Arc<Warm>) {
        let _dropped = {
            let mut entries = self.entries();
            match entries.iter().position(|(k, _)| *k == key) {
                Some(i)
                    if warm.dylib.opt_level() == OptLevel::O3
                        && entries[i].1.dylib.opt_level() != OptLevel::O3 =>
                {
                    Some(std::mem::replace(&mut entries[i].1, warm))
                }
                Some(_) => Some(warm),
                None => {
                    let evicted = (entries.len() == MEMO_ENTRIES).then(|| entries.remove(0).1);
                    entries.push((key, warm));
                    evicted
                }
            }
        };
    }

    /// Drop `warm` if it is still memoized.
    fn remove(&self, warm: &Arc<Warm>) {
        let _dropped = {
            let mut entries = self.entries();
            entries.iter().position(|(_, w)| Arc::ptr_eq(w, warm)).map(|i| entries.remove(i))
        };
    }

    fn clear(&self) {
        let _dropped = std::mem::take(&mut *self.entries());
    }
}

/// Run one job, then account for it: its spans on track `tid` when the
/// pipeline has a tracer, and its ledger record.
fn execute_job(pipeline: &AccMoS, memo: &Memo, job: &ServeJob, tid: u64) -> DoneEvent {
    let traced = pipeline.tracer().map(|t| (t, t.now_us()));
    let (name, exec) = match Source::read(&job.spec) {
        Ok(source) => run_source(pipeline, memo, source, job),
        Err(detail) => (job.spec.clone(), Exec::failed(AccMoSError::Batch(detail))),
    };
    if let Some((tracer, start_us)) = traced {
        let label = format!("job {} {}", job.id, job.spec);
        exec.trail.trace(tracer, tid, &label, start_us, exec.profile());
    }
    pipeline.record(&exec.record("serve", &name, job.steps, job.lanes as u64));
    DoneEvent::of(&exec)
}

/// Run a job's model, and name it for the ledger. A trusted spec seen
/// before runs straight from the memo, if its entry's level serves the
/// job's budget; otherwise the model is built, planned and (trusted)
/// compiled as a shared object for the job's budget, which is memoized
/// once it has run. Fuzz-generated models (`rand:`) are exactly the
/// programs the differential campaigns exist to distrust, so they enter
/// at the child-process rung and are never memoized (nor found in the
/// memo). A memoized shared object that fails (anything but a timeout) is
/// dropped from the memo.
fn run_source(pipeline: &AccMoS, memo: &Memo, key: Source, job: &ServeJob) -> (String, Exec) {
    let trusted = !matches!(key, Source::Rand(_));
    let budget = crate::exec::budget(job.steps, job.lanes);
    if let Some(warm) = memo.get(&key, pipeline.level_for(budget)) {
        let entry = Entry::Dylib { so: Ok(&warm.dylib), reused: true };
        let exec = run_plan(pipeline, &warm.plan, entry, job);
        if dylib_failed(&exec) {
            memo.remove(&warm);
        }
        return (warm.plan.pre.flat.name.clone(), exec);
    }
    let model = match key.model() {
        Ok(model) => model,
        Err(detail) => return (job.spec.clone(), Exec::failed(AccMoSError::Batch(detail))),
    };
    let plan = match pipeline.plan(&model) {
        Ok(plan) => plan,
        Err(e) => return (model.name, Exec::failed(e)),
    };
    if !trusted {
        return (model.name, run_plan(pipeline, &plan, Entry::Untrusted, job));
    }
    let dylib = pipeline
        .compiler()
        .and_then(|c| pipeline.budgeted(c, budget).compile_shared(&plan.program));
    let exec = run_plan(pipeline, &plan, Entry::Dylib { so: dylib.as_ref(), reused: false }, job);
    if let Ok(dylib) = dylib {
        let warm = Warm { plan, dylib };
        if !dylib_failed(&exec) {
            memo.insert(key, Arc::new(warm));
        }
    }
    (model.name, exec)
}

/// Seed the job's stimulus and walk the ladder from `entry`.
fn run_plan(pipeline: &AccMoS, plan: &Plan, entry: Entry<'_>, job: &ServeJob) -> Exec {
    let (tests, lane_tests) = crate::fuzz::lane_stimulus(&plan.pre, job.rows, job.seed, job.lanes);
    let opts = RunOptions { lane_tests, ..RunOptions::default() };
    let executor = Executor { pipeline, supervisor: None };
    executor.run(Subject::Plan(plan), entry, &Job { steps: job.steps, tests: &tests, opts: &opts })
}

/// Whether the job left the dylib rung because its shared object failed.
fn dylib_failed(exec: &Exec) -> bool {
    exec.trail.causes.iter().any(|cause| matches!(cause, Fallback::Dylib(_)))
}

/// A job from a `submit` request or a recovered `queued` record.
///
/// # Errors
///
/// A missing `model` spec, or `lanes` / `rows` beyond `MAX_LANES` /
/// `MAX_ROWS`.
fn parse_job(
    fields: &Fields,
    id: String,
    reply: Option<Sink>,
) -> Result<ServeJob, String> {
    let spec = fields.str("model").unwrap_or_default();
    if spec.is_empty() {
        return Err("submit requires a `model` spec".into());
    }
    let lanes = fields.num("lanes").unwrap_or(1).max(1);
    let rows = fields.num("rows").unwrap_or(8).max(1);
    if lanes > MAX_LANES || rows > MAX_ROWS {
        let most = format!("at most {MAX_LANES} lanes and {MAX_ROWS} rows");
        return Err(format!("lanes {lanes} / rows {rows} out of range ({most})"));
    }
    Ok(ServeJob {
        id,
        spec,
        steps: fields.num("steps").unwrap_or(1000),
        lanes: lanes as usize,
        rows: rows as usize,
        seed: fields.num("seed").unwrap_or(0xACC5),
        reply,
    })
}

/// One line of the job journal, `jobs.jsonl`.
enum Journal {
    /// A job was accepted: its request, to run again after a crash.
    Queued(ServeJob),
    /// The job with id `job` finished with `outcome`.
    Done { job: String, outcome: String },
}

impl Record for Journal {
    const FILE_NAME: &'static str = "jobs.jsonl";

    fn write(&self, out: &mut JsonObject) {
        out.num("ts_ms", telemetry::now_ms());
        match self {
            Journal::Queued(job) => {
                out.str("event", "queued").str("job", &job.id).str("model", &job.spec);
                out.num("steps", job.steps).num("lanes", job.lanes).num("rows", job.rows);
                out.num("seed", job.seed);
            }
            Journal::Done { job, outcome } => {
                out.str("event", "done").str("job", job).str("outcome", outcome);
            }
        }
    }

    /// A `queued` record with no spec or out-of-range sizes reads as
    /// garbled, so a bad submit from an older daemon cannot abort this one.
    fn read(fields: &Fields) -> Option<Journal> {
        let job = fields.str("job")?;
        match fields.str("event")?.as_str() {
            "queued" => parse_job(fields, job, None).ok().map(Journal::Queued),
            "done" => Some(Journal::Done { job, outcome: fields.str("outcome").unwrap_or_default() }),
            _ => None,
        }
    }
}

/// Rebuild the queue a crashed daemon left behind from its journal: every
/// `queued` job without a matching `done`.
fn recover_jobs(journal: Option<&Store<Journal>>) -> Vec<ServeJob> {
    let mut queued: Vec<ServeJob> = Vec::new();
    for entry in journal.map(|j| j.read().records).unwrap_or_default() {
        match entry {
            Journal::Queued(job) => queued.push(job),
            Journal::Done { job, .. } => queued.retain(|j| j.id != job),
        }
    }
    queued
}

/// Best-effort append under the state-dir lease; a full disk must not
/// fail a simulation that already ran.
fn append_job_event(shared: &ServeShared, entry: &Journal) {
    if let Some(journal) = &shared.journal {
        let _ = journal.append(entry);
    }
}

fn send_line(sink: &Sink, line: &str) {
    if let Ok(mut stream) = sink.lock() {
        // A vanished client is not an error: the ledger still has the
        // result, exactly like a recovered job.
        let _ = stream.write_all(line.as_bytes()).and_then(|()| stream.write_all(b"\n"));
    }
}

/// A reply to a client, starting with its `event` name.
fn event(name: &str) -> JsonObject {
    let mut out = JsonObject::default();
    out.str("event", name);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BuildCache;
    use std::time::{Duration, Instant};

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!("accmos-serve-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn read_event(reader: &mut impl BufRead) -> telemetry::Fields {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        telemetry::parse_flat_object(&line)
            .unwrap_or_else(|| panic!("unparseable event: {line:?}"))
    }

    fn submit_line(spec: &str, steps: u64) -> String {
        JsonObject::default().str("op", "submit").str("model", spec).num("steps", steps).finish() + "\n"
    }

    #[test]
    fn serve_round_trip_runs_jobs_in_process_and_persists_the_queue() {
        let dir = TempDir::new("roundtrip");
        let pipeline = AccMoS::new().with_cache(BuildCache::at(dir.0.join("state")));
        let socket = dir.0.join("accmos.sock");
        let handle = ServeHandle::start(
            ServeConfig::new(&socket).with_workers(2).with_pipeline(pipeline.clone()),
        )
        .expect("daemon starts");

        let client = UnixStream::connect(&socket).expect("daemon is listening");
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut client = client;
        client.write_all(submit_line("bench:SPV", 200).as_bytes()).unwrap();
        client.write_all(submit_line("bench:TWC", 200).as_bytes()).unwrap();
        client.write_all(submit_line("bench:NOPE", 5).as_bytes()).unwrap();

        let mut queued = 0;
        let mut done = Vec::new();
        while done.len() < 3 {
            let ev = read_event(&mut reader);
            match ev.str("event").as_deref() {
                Some("queued") => queued += 1,
                Some("done") => done.push(ev),
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(queued, 3);
        for ev in &done {
            let model = ev.str("model").unwrap();
            if model == "bench:NOPE" {
                assert_eq!(ev.str("outcome").as_deref(), Some("failed"));
                assert!(ev.str("note").unwrap().contains("unknown benchmark"));
            } else {
                assert_eq!(ev.str("outcome").as_deref(), Some("ok"), "{model}");
                assert_eq!(ev.str("engine").as_deref(), Some("accmos-dylib"), "{model}");
                assert_ne!(ev.str("digest").as_deref(), Some("0000000000000000"), "{model}");
                assert_eq!(ev.num("steps"), Some(200), "{model}");
            }
        }

        client.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        let bye = read_event(&mut reader);
        assert_eq!(bye.str("event").as_deref(), Some("bye"));
        handle.join();
        assert!(!socket.exists(), "socket file removed on join");

        // The persistent queue saw every job in and out.
        let journal = std::fs::read_to_string(dir.0.join("state/jobs.jsonl")).unwrap();
        let events: Vec<String> = journal
            .lines()
            .filter_map(telemetry::parse_flat_object)
            .filter_map(|f| f.str("event"))
            .collect();
        assert_eq!(events.iter().filter(|e| *e == "queued").count(), 3);
        assert_eq!(events.iter().filter(|e| *e == "done").count(), 3);

        // And the ledger holds the in-process runs under their own engine.
        let view = pipeline.ledger().unwrap().read();
        let serve: Vec<_> = view.records.iter().filter(|r| r.source == "serve").collect();
        assert_eq!(serve.len(), 3);
        assert_eq!(
            serve.iter().filter(|r| r.engine == "accmos-dylib" && r.outcome == "ok").count(),
            2
        );
        assert_eq!(serve.iter().filter(|r| r.outcome == "failed").count(), 1);
    }

    #[test]
    fn restart_recovers_queued_jobs_and_skips_completed_ones() {
        let dir = TempDir::new("recover");
        let state = dir.0.join("state");
        std::fs::create_dir_all(&state).unwrap();
        // The journal a crashed daemon left behind: job A completed, job
        // B still queued, and a torn final append.
        std::fs::write(
            state.join("jobs.jsonl"),
            "{\"schema\":1,\"ts_ms\":1,\"event\":\"queued\",\"job\":\"a\",\
             \"model\":\"bench:SPV\",\"steps\":100,\"lanes\":1,\"rows\":4,\"seed\":7}\n\
             {\"schema\":1,\"ts_ms\":2,\"event\":\"done\",\"job\":\"a\",\"outcome\":\"ok\"}\n\
             {\"schema\":1,\"ts_ms\":3,\"event\":\"queued\",\"job\":\"b\",\
             \"model\":\"bench:TWC\",\"steps\":150,\"lanes\":1,\"rows\":4,\"seed\":7}\n\
             {\"schema\":1,\"ts_ms\":4,\"event\":\"qu",
        )
        .unwrap();

        let pipeline = AccMoS::new().with_cache(BuildCache::at(&state));
        let socket = dir.0.join("accmos.sock");
        let handle =
            ServeHandle::start(ServeConfig::new(&socket).with_pipeline(pipeline.clone()))
                .expect("daemon starts despite the torn tail");

        // Job B runs without any client: poll the journal for its done
        // record.
        let deadline = Instant::now() + Duration::from_secs(60);
        let done_for = |id: &str| {
            std::fs::read_to_string(state.join("jobs.jsonl"))
                .unwrap_or_default()
                .lines()
                .filter_map(telemetry::parse_flat_object)
                .filter(|f| f.str("event").as_deref() == Some("done"))
                .filter(|f| f.str("job").as_deref() == Some(id))
                .count()
        };
        while done_for("b") == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        handle.stop();

        assert_eq!(done_for("b"), 1, "recovered job b ran exactly once");
        assert_eq!(done_for("a"), 1, "completed job a was not re-run");
        let view = pipeline.ledger().unwrap().read();
        let serve: Vec<_> = view.records.iter().filter(|r| r.source == "serve").collect();
        assert_eq!(serve.len(), 1, "only the recovered job reached the ledger");
        assert_eq!(serve[0].model, "TWC");
        assert_eq!(serve[0].engine, "accmos-dylib");
        assert_eq!(serve[0].outcome, "ok");
        assert_eq!(serve[0].steps, 150);
    }

    #[test]
    fn untrusted_specs_and_dylib_failures_take_the_flagged_subprocess_path() {
        // `rand:` models never enter the daemon's address space; the
        // done event and ledger record both carry the degraded flag and
        // the isolation note.
        let dir = TempDir::new("isolation");
        let pipeline = AccMoS::new().with_cache(BuildCache::at(dir.0.join("state")));
        let job = ServeJob {
            id: "t0".into(),
            spec: "rand:5".into(),
            steps: 50,
            lanes: 1,
            rows: 4,
            seed: 9,
            reply: None,
        };
        let done = execute_job(&pipeline, &Memo::default(), &job, 1);
        assert_eq!(done.outcome, telemetry::outcome::DEGRADED);
        assert!(done.note.contains("isolation: subprocess"));
        assert_ne!(done.engine, "accmos-dylib");
        let view = pipeline.ledger().unwrap().read();
        assert_eq!(view.records.len(), 1);
        assert_eq!(view.records[0].outcome, "degraded");
        assert!(view.records[0].note.contains("isolation: subprocess"));
    }

    #[test]
    fn blocked_builds_degrade_trusted_jobs_to_the_interpreter() {
        // Both builds fail in `cc`: the dylib rung drops to the subprocess
        // rung, whose failed compile drops the job to the interpreter,
        // flagged with both causes.
        let pipeline = crate::tests::failing_builds("SPV_Panel0_Eff");
        let job = ServeJob {
            id: "b0".into(),
            spec: "bench:SPV".into(),
            steps: 50,
            lanes: 1,
            rows: 4,
            seed: 9,
            reply: None,
        };
        let done = execute_job(&pipeline, &Memo::default(), &job, 1);
        assert_eq!(done.outcome, telemetry::outcome::DEGRADED, "{}", done.note);
        assert_eq!(done.engine, "sse");
        assert!(done.note.contains("dylib fallback"), "{}", done.note);
        assert!(done.note.contains("compile failed"), "{}", done.note);
        let pre = crate::preprocess(&crate::load_spec("bench:SPV").unwrap()).unwrap();
        let (tests, _) = crate::fuzz::lane_stimulus(&pre, 4, 9, 1);
        let want = crate::exec::interp_lane_run(&pre, &tests, &RunOptions::default(), 50, None);
        assert_eq!(done.digest, want.unwrap().output_digest);
        assert_eq!(done.steps, 50);
    }

    fn job(spec: &str, lanes: usize, seed: u64) -> ServeJob {
        let id = format!("m{seed}");
        ServeJob { id, spec: spec.into(), steps: 200, lanes, rows: 8, seed, reply: None }
    }

    /// The interpreter's digest for `job`: what every engine must report.
    fn interp_digest(job: &ServeJob) -> u64 {
        let pre = crate::preprocess(&crate::load_spec(&job.spec).unwrap()).unwrap();
        let (tests, lane_tests) = crate::fuzz::lane_stimulus(&pre, job.rows, job.seed, job.lanes);
        let opts = RunOptions { lane_tests, ..RunOptions::default() };
        crate::exec::interp_lane_run(&pre, &tests, &opts, job.steps, None).unwrap().output_digest
    }

    fn assert_warm(done: &DoneEvent, job: &ServeJob) {
        assert_eq!(done.outcome, telemetry::outcome::OK, "{}: {}", job.spec, done.note);
        assert_eq!(done.engine, "accmos-dylib", "{}", job.spec);
        assert_eq!(done.digest, interp_digest(job), "{} seed {}", job.spec, job.seed);
    }

    #[test]
    fn a_traced_job_is_drawn_on_its_workers_track_as_its_record_says() {
        let dir = TempDir::new("traced");
        let tracer = crate::Tracer::new();
        let pipeline = AccMoS::new()
            .with_cache(BuildCache::at(dir.0.join("state")))
            .with_tracer(tracer.clone());
        // An untrusted spec runs on the supervised subprocess rung.
        let untrusted = job("rand:5", 1, 3);
        execute_job(&pipeline, &Memo::default(), &untrusted, 3);
        let spans = tracer.spans();
        assert!(spans.iter().all(|s| s.tid == 3), "every span on the worker's track");
        let span = |name: &str| spans.iter().find(|s| s.name == name).map(|s| s.dur_us);
        let record = &pipeline.ledger().unwrap().read().records[0];
        assert!(span("job m3 rand:5").is_some());
        assert_eq!(span("run"), Some(record.phases.run_us));
        assert_eq!(span("codegen"), Some(record.phases.codegen_us));
        assert!(span("attempt 0").is_some(), "the supervisor's attempt");
    }

    #[test]
    fn repeated_jobs_run_from_the_memo_without_planning_or_cache_lookups() {
        let dir = TempDir::new("memo-hit");
        let cache = BuildCache::at(dir.0.join("state"));
        let pipeline = AccMoS::new().with_cache(cache.clone());
        let memo = Memo::default();
        let first = job("bench:SPV", 1, 3);
        assert_warm(&execute_job(&pipeline, &memo, &first, 1), &first);
        let before = cache.stats();
        // The benchmark name matches case-insensitively, so this is a hit.
        let again = job("bench:spv", 1, 4);
        assert_warm(&execute_job(&pipeline, &memo, &again, 1), &again);
        assert_eq!(cache.stats(), before, "a memo hit makes no build-cache lookup");
        let view = pipeline.ledger().unwrap().read();
        let rec = view.records.last().unwrap();
        assert!(rec.compile_cached);
        let p = rec.phases;
        let planned = [p.parse_us, p.preprocess_us, p.analyze_us, p.codegen_us, p.compile_us];
        assert_eq!(planned, [0; 5], "a hit neither plans nor builds");
        assert!(view.records[0].phases.codegen_us > 0, "the miss planned");
    }

    #[test]
    fn rewritten_file_specs_run_the_new_model() {
        let dir = TempDir::new("memo-file");
        let pipeline = AccMoS::new().with_cache(BuildCache::at(dir.0.join("state")));
        let memo = Memo::default();
        let path = dir.0.join("model.mdlx");
        let spec = path.to_str().unwrap();
        std::fs::write(&path, include_str!("../../../assets/figure1.mdlx")).unwrap();
        let figure1 = job(spec, 1, 6);
        assert_warm(&execute_job(&pipeline, &memo, &figure1, 1), &figure1);
        std::fs::write(&path, include_str!("../../../assets/twc.mdlx")).unwrap();
        let twc = job(spec, 1, 6);
        assert_warm(&execute_job(&pipeline, &memo, &twc, 1), &twc);
        assert_eq!(pipeline.ledger().unwrap().read().records[1].model, "TWC");
    }

    #[test]
    fn a_lane_job_after_a_scalar_job_of_its_spec_is_a_memo_hit() {
        let dir = TempDir::new("memo-lanes");
        let cache = BuildCache::at(dir.0.join("state"));
        let pipeline = AccMoS::new().with_cache(cache.clone());
        let memo = Memo::default();
        let scalar = job("bench:TWC", 1, 5);
        assert_warm(&execute_job(&pipeline, &memo, &scalar, 1), &scalar);
        let before = cache.stats();
        let lanes = job("bench:TWC", 4, 6);
        assert_warm(&execute_job(&pipeline, &memo, &lanes, 1), &lanes);
        assert_eq!(cache.stats(), before, "the lane job makes no build-cache lookup");
        assert_eq!(memo.entries().len(), 1, "one entry serves every lane width");
        let view = pipeline.ledger().unwrap().read();
        let recs: Vec<_> = view.records.iter().map(|r| (r.lanes, r.compile_cached)).collect();
        assert_eq!(recs, [(1, false), (4, true)]);
    }

    #[test]
    fn a_job_at_the_o3_budget_replaces_an_o1_entry_that_then_serves_short_jobs() {
        let dir = TempDir::new("memo-upgrade");
        let cache = BuildCache::at(dir.0.join("state"));
        let pipeline = AccMoS::new().with_cache(cache.clone());
        let memo = Memo::default();
        let level = |memo: &Memo| memo.entries()[0].1.dylib.opt_level();
        let short = job("bench:figure1", 1, 1);
        assert_warm(&execute_job(&pipeline, &memo, &short, 1), &short);
        assert_eq!(level(&memo), OptLevel::O1);
        let long = ServeJob { steps: crate::O3_BUDGET, ..job("bench:figure1", 1, 2) };
        assert_warm(&execute_job(&pipeline, &memo, &long, 1), &long);
        assert_eq!(memo.entries().len(), 1);
        assert_eq!(level(&memo), OptLevel::O3, "the -O3 build replaced the -O1 entry");
        let before = cache.stats();
        let again = job("bench:figure1", 1, 3);
        assert_warm(&execute_job(&pipeline, &memo, &again, 1), &again);
        assert_eq!(cache.stats(), before, "the -O3 entry serves a short job from the memo");
        let view = pipeline.ledger().unwrap().read();
        let opts: Vec<_> = view.records.iter().map(|r| (r.opt.as_str(), r.compile_cached)).collect();
        assert_eq!(opts, [("O1", false), ("O3", false), ("O3", true)]);
    }

    #[test]
    fn a_vanished_shared_object_is_dropped_after_one_degraded_job() {
        let dir = TempDir::new("memo-vanish");
        let pipeline = AccMoS::new().with_cache(BuildCache::at(dir.0.join("state")));
        let memo = Memo::default();
        let first = job("bench:CSEV", 1, 1);
        assert_warm(&execute_job(&pipeline, &memo, &first, 1), &first);
        let so = memo.entries()[0].1.dylib.so().to_path_buf();
        std::fs::remove_file(&so).unwrap();
        let broken = job("bench:CSEV", 1, 2);
        let done = execute_job(&pipeline, &memo, &broken, 1);
        assert_eq!(done.outcome, telemetry::outcome::DEGRADED, "{}", done.note);
        assert!(done.note.contains("dylib fallback"), "{}", done.note);
        assert_eq!(done.digest, interp_digest(&broken));
        assert!(memo.entries().is_empty(), "the failed entry is dropped");
        let next = job("bench:CSEV", 1, 3);
        assert_warm(&execute_job(&pipeline, &memo, &next, 1), &next);
    }

    #[test]
    fn two_workers_share_the_memo_and_stop_removes_its_build_dirs() {
        let dir = TempDir::new("memo-daemon");
        let pipeline = AccMoS::new().with_cache(BuildCache::at(dir.0.join("state")));
        let socket = dir.0.join("accmos.sock");
        let handle =
            ServeHandle::start(ServeConfig::new(&socket).with_workers(2).with_pipeline(pipeline))
                .expect("daemon starts");
        let client = UnixStream::connect(&socket).expect("daemon is listening");
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut client = client;
        let jobs: Vec<ServeJob> = (0..8).map(|seed| job("bench:LEDLC", 1, seed)).collect();
        for job in &jobs {
            let line = JsonObject::default()
                .str("op", "submit")
                .str("model", &job.spec)
                .num("steps", job.steps)
                .num("rows", job.rows)
                .num("seed", job.seed)
                .finish()
                + "\n";
            client.write_all(line.as_bytes()).unwrap();
        }
        // Acknowledgements arrive in submit order; results in completion order.
        let (mut ids, mut done) = (Vec::new(), Vec::new());
        while done.len() < jobs.len() {
            let ev = read_event(&mut reader);
            match ev.str("event").as_deref() {
                Some("queued") => ids.push(ev.str("job").unwrap()),
                Some("done") => done.push(ev),
                other => panic!("unexpected event {other:?}"),
            }
        }
        for ev in &done {
            let i = ids.iter().position(|id| *id == ev.str("job").unwrap()).unwrap();
            let want = format!("{:016x}", interp_digest(&jobs[i]));
            assert_eq!(ev.str("outcome").as_deref(), Some("ok"), "{:?}", ev.str("note"));
            assert_eq!(ev.str("engine").as_deref(), Some("accmos-dylib"));
            assert_eq!(ev.str("digest"), Some(want), "seed {}", jobs[i].seed);
        }
        let builds: Vec<PathBuf> = handle
            .shared
            .memo
            .entries()
            .iter()
            .map(|(_, warm)| warm.dylib.so().parent().unwrap().to_path_buf())
            .collect();
        assert_eq!(builds.len(), 1, "the memo holds a build");
        assert!(builds[0].exists());
        handle.stop();
        assert!(!builds[0].exists(), "stop removes memo builds");
    }

    #[test]
    fn recovery_parses_only_well_formed_queued_records() {
        let dir = TempDir::new("parse");
        std::fs::write(
            dir.0.join(Journal::FILE_NAME),
            "{\"schema\":1,\"event\":\"queued\",\"job\":\"x\",\"model\":\"bench:SPV\"}\n\
             {\"schema\":1,\"event\":\"queued\",\"job\":\"nospec\"}\n\
             {\"schema\":1,\"event\":\"queued\",\"job\":\"huge\",\"model\":\"bench:SPV\",\"rows\":1000000000000}\n\
             {\"schema\":2,\"event\":\"queued\",\"job\":\"future\",\"model\":\"bench:SPV\"}\n\
             not json at all\n\
             {\"schema\":1,\"event\":\"done\",\"job\":\"gone\"}\n",
        )
        .unwrap();
        let jobs = recover_jobs(Some(&Store::in_dir(&dir.0)));
        assert_eq!(jobs.len(), 1, "a foreign-schema queued record is not re-run");
        assert_eq!(jobs[0].id, "x");
        assert_eq!(jobs[0].spec, "bench:SPV");
        assert_eq!(jobs[0].steps, 1000, "missing steps falls back to the default");
        assert!(recover_jobs(None).is_empty());
        assert!(recover_jobs(Some(&Store::in_dir("/no/such/dir"))).is_empty());
    }

    #[test]
    fn golden_journal_lines_of_the_previous_format_read_back() {
        // Lines as an earlier build wrote them, then a foreign-schema
        // line, a garbled line and a torn tail.
        let lines = [
            r#"{"schema":1,"ts_ms":1792427967037,"event":"queued","job":"j22685-0","model":"bench:SPV","steps":500,"lanes":1,"rows":8,"seed":44357}"#,
            r#"{"schema":1,"ts_ms":1792427967208,"event":"done","job":"j22685-0","outcome":"ok"}"#,
            r#"{"schema":1,"ts_ms":1792427967209,"event":"queued","job":"j22685-1","model":"bench:NOPE","steps":5,"lanes":1,"rows":8,"seed":44229}"#,
            r#"{"schema":2,"ts_ms":1792427967209,"event":"done","job":"j22685-1","outcome":"failed"}"#,
            r#"{"schema":1,"ts_ms":1792427967210,"event":"done","job":"j22685-1","outcome":failed}"#,
        ];
        let dir = TempDir::new("golden");
        let journal = Store::<Journal>::in_dir(&dir.0);
        let torn = r#"{"schema":1,"ts_ms":1792427967211,"event":"do"#;
        std::fs::write(journal.path(), format!("{}\n{torn}", lines.join("\n"))).unwrap();
        let view = journal.read();
        assert_eq!((view.records.len(), view.skipped, view.truncated_tail), (3, 2, true));
        let jobs = recover_jobs(Some(&journal));
        assert_eq!(jobs.len(), 1, "only j22685-1 is unfinished");
        let j = &jobs[0];
        assert_eq!((j.id.as_str(), j.spec.as_str()), ("j22685-1", "bench:NOPE"));
        assert_eq!((j.steps, j.lanes, j.rows, j.seed), (5, 1, 8, 44229));
        // Appending the records writes the lines they were read from.
        std::fs::remove_file(journal.path()).unwrap();
        for entry in &view.records {
            journal.append(entry).unwrap();
        }
        let written = std::fs::read_to_string(journal.path()).unwrap();
        assert_eq!(blank_ts(&written), blank_ts(&format!("{}\n", lines[..3].join("\n"))));
    }

    /// `text` with every `"ts_ms":<digits>` value blanked.
    fn blank_ts(text: &str) -> String {
        let mut out = String::new();
        for (i, part) in text.split("\"ts_ms\":").enumerate() {
            if i > 0 {
                out.push_str("\"ts_ms\":_");
            }
            out.push_str(if i > 0 { part.trim_start_matches(|c: char| c.is_ascii_digit()) } else { part });
        }
        out
    }
}
