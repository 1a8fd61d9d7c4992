//! `accmos serve` — a long-lived in-process simulation service.
//!
//! The daemon listens on a Unix-domain socket for line-delimited flat
//! JSON requests, keeps a persistent job queue, and executes generated
//! simulators **in process**: each job's C program is compiled as a
//! shared object ([`crate::Compiler::compile_shared`]) and invoked through
//! [`crate::DylibRunner`], eliminating the per-run `fork`/`exec`/pipe cost of
//! the subprocess engine. For a cached simulator the remaining dispatch
//! cost is a `dlopen` of a scratch copy plus one function call.
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
//! pipeline's state directory (under the same cross-process lease as the
//! run ledger), and a `done` record on completion. On start the daemon
//! re-enqueues every `queued` job without a matching `done` — so jobs
//! survive a daemon crash, a torn final line (the killed daemon's
//! half-written append) is skipped, and completed jobs are never re-run.
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
//! - any dylib build, load or run failure (`dlopen` error, stale entry,
//!   stimulus mismatch) drops to the child-process rung;
//! - an executable that does not build, or is quarantined, drops to the
//!   interpreter;
//! - a timeout is a real failure, not a fallback trigger: the budget is
//!   already spent. The kill timeout bounds every rung, the in-process
//!   run as a cooperative cancel and the interpreter as its time budget.
//!
//! Successful in-process runs are recorded with engine `accmos-dylib`
//! (source `serve`), so ledger trends keep the two dispatch engines in
//! separate baselines.

use crate::batch::WorkQueue;
use crate::exec::{Entry, Exec, Executor, Job, Subject};
use crate::fuzz::{now_ms, panic_text};
use crate::telemetry::{self, json_str as json};
use crate::{AccMoS, AccMoSError, RunOptions};
use accmos_ir::Model;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// The most lanes and stimulus rows one job may ask for. The stimulus is
/// allocated up front, and a failed allocation aborts the whole daemon.
const MAX_LANES: u64 = 64;
const MAX_ROWS: u64 = 65_536;

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
    /// lanes default, tracer). Its state directory hosts `jobs.jsonl`
    /// and the ledger; a cache-less pipeline serves ephemerally.
    pub fn with_pipeline(mut self, pipeline: AccMoS) -> ServeConfig {
        self.pipeline = pipeline;
        self
    }
}

/// One queued simulation request.
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
    jobs_file: Option<PathBuf>,
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
        let jobs_file = match config.pipeline.state_dir() {
            Some(dir) => {
                std::fs::create_dir_all(&dir)?;
                Some(dir.join("jobs.jsonl"))
            }
            None => None,
        };
        let shared = Arc::new(ServeShared {
            pipeline: config.pipeline,
            jobs_file,
            pending: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            seq: AtomicU64::new(0),
        });
        let queue = Arc::new(WorkQueue::new());
        for job in recover_jobs(shared.jobs_file.as_deref()) {
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
                    .spawn(move || worker_loop(&shared, &queue))
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
    /// reap its threads and remove the socket file.
    pub fn join(self) {
        let _ = self.accept.join();
        for worker in self.workers {
            let _ = worker.join();
        }
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
            send_line(&sink, &event_error("request is not a flat JSON object"));
            continue;
        };
        match req.str("op").as_deref() {
            Some("submit") => {
                let seq = shared.seq.fetch_add(1, Ordering::Relaxed);
                let id = format!("j{}-{seq}", std::process::id());
                let job = match parse_job(&req, id, Some(Arc::clone(&sink))) {
                    Ok(job) => job,
                    Err(detail) => {
                        send_line(&sink, &event_error(&detail));
                        continue;
                    }
                };
                append_job_event(shared, &queued_record(&job));
                send_line(&sink, &format!("{{\"event\":\"queued\",\"job\":{}}}", json(&job.id)));
                shared.pending.fetch_add(1, Ordering::Relaxed);
                queue.push(job);
            }
            Some("ping") => {
                let pending = shared.pending.load(Ordering::Relaxed);
                send_line(&sink, &format!("{{\"event\":\"pong\",\"pending\":{pending}}}"));
            }
            Some("shutdown") => {
                send_line(&sink, "{\"event\":\"bye\"}");
                initiate_shutdown(shared, queue, socket);
                return;
            }
            other => {
                let detail = format!("unknown op `{}`", other.unwrap_or_default());
                send_line(&sink, &event_error(&detail));
            }
        }
    }
}

fn worker_loop(shared: &ServeShared, queue: &WorkQueue<ServeJob>) {
    while let Some(job) = queue.pop() {
        let start = shared.pipeline.tracer().map(|t| (t.clone(), t.now_us()));
        // A panicking job (a bug, not a policy outcome) must not take
        // the worker down with it — the daemon keeps serving.
        let done = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_job(&shared.pipeline, &job)
        }))
        .unwrap_or_else(|payload| {
            DoneEvent::of(&Exec::failed(AccMoSError::Batch(format!(
                "job panicked: {}",
                panic_text(payload)
            ))))
        });
        if let Some((tracer, start_us)) = start {
            let dur = tracer.now_us().saturating_sub(start_us);
            tracer.span("serve", &format!("job {} {}", job.id, job.spec), start_us, dur, 1);
        }
        append_job_event(shared, &done.jobs_record(&job));
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
        format!(
            "{{\"event\":\"done\",\"job\":{},\"model\":{},\"outcome\":{},\"engine\":{},\
             \"digest\":{},\"steps\":{},\"note\":{}}}",
            json(&job.id),
            json(&job.spec),
            json(self.outcome),
            json(&self.engine),
            json(&format!("{:016x}", self.digest)),
            self.steps,
            json(&self.note),
        )
    }

    fn jobs_record(&self, job: &ServeJob) -> String {
        format!(
            "{{\"schema\":1,\"ts_ms\":{},\"event\":\"done\",\"job\":{},\"outcome\":{}}}",
            now_ms(),
            json(&job.id),
            json(self.outcome),
        )
    }
}

fn execute_job(pipeline: &AccMoS, job: &ServeJob) -> DoneEvent {
    let pipeline = pipeline.clone().with_lanes(job.lanes);
    let (name, exec) = match crate::load_spec(&job.spec) {
        Ok(model) => (model.name.clone(), run_model(&pipeline, &model, job)),
        Err(detail) => (job.spec.clone(), Exec::failed(AccMoSError::Batch(detail))),
    };
    pipeline.record(&exec.record("serve", &name, job.steps, job.lanes as u64));
    DoneEvent::of(&exec)
}

/// Plan `model`, seed the job's stimulus, and walk the ladder. Trusted
/// specs enter in process; fuzz-generated models (`rand:`) are exactly
/// the programs the differential campaigns exist to distrust, so they
/// enter at the child-process rung.
fn run_model(pipeline: &AccMoS, model: &Model, job: &ServeJob) -> Exec {
    let plan = match pipeline.plan(model) {
        Ok(plan) => plan,
        Err(e) => return Exec::failed(e),
    };
    let (tests, lane_tests) = crate::fuzz::lane_stimulus(&plan.pre, job.rows, job.seed, job.lanes);
    let opts = RunOptions { lane_tests, ..RunOptions::default() };
    let entry = if job.spec.starts_with("rand:") { Entry::Untrusted } else { Entry::Dylib };
    let executor = Executor { pipeline, supervisor: None, traced_from: None };
    executor.run(Subject::Plan(&plan), entry, &Job { steps: job.steps, tests: &tests, opts: &opts })
}

/// A job from a `submit` request or a recovered `queued` record.
///
/// # Errors
///
/// A missing `model` spec, or `lanes` / `rows` beyond `MAX_LANES` /
/// `MAX_ROWS`.
fn parse_job(
    fields: &telemetry::Fields,
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

/// Re-read `jobs.jsonl` and rebuild the queue a crashed daemon left
/// behind: every `queued` record without a matching `done`. Torn lines
/// (the final half-written append of a killed process) parse to `None`
/// and are skipped.
fn recover_jobs(jobs_file: Option<&Path>) -> Vec<ServeJob> {
    let Some(path) = jobs_file else { return Vec::new() };
    let Ok(text) = std::fs::read_to_string(path) else { return Vec::new() };
    let mut queued: Vec<ServeJob> = Vec::new();
    for line in text.lines() {
        let Some(fields) = telemetry::parse_flat_object(line) else { continue };
        let Some(id) = fields.str("job") else { continue };
        match fields.str("event").as_deref() {
            // A record with no spec or out-of-range sizes is skipped, so a
            // bad submit from an older daemon cannot abort this one.
            Some("queued") => queued.extend(parse_job(&fields, id, None).ok()),
            Some("done") => queued.retain(|j| j.id != id),
            _ => {}
        }
    }
    queued
}

fn queued_record(job: &ServeJob) -> String {
    format!(
        "{{\"schema\":1,\"ts_ms\":{},\"event\":\"queued\",\"job\":{},\"model\":{},\
         \"steps\":{},\"lanes\":{},\"rows\":{},\"seed\":{}}}",
        now_ms(),
        json(&job.id),
        json(&job.spec),
        job.steps,
        job.lanes,
        job.rows,
        job.seed,
    )
}

/// Best-effort append under the state-dir lease; a full disk must not
/// fail a simulation that already ran.
fn append_job_event(shared: &ServeShared, line: &str) {
    if let Some(path) = &shared.jobs_file {
        let _ = telemetry::append_jsonl(path, line);
    }
}

fn send_line(sink: &Sink, line: &str) {
    if let Ok(mut stream) = sink.lock() {
        // A vanished client is not an error: the ledger still has the
        // result, exactly like a recovered job.
        let _ = stream.write_all(line.as_bytes()).and_then(|()| stream.write_all(b"\n"));
    }
}

fn event_error(detail: &str) -> String {
    format!("{{\"event\":\"error\",\"detail\":{}}}", json(detail))
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
        format!("{{\"op\":\"submit\",\"model\":{},\"steps\":{steps}}}\n", json(spec))
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
        let done = execute_job(&pipeline, &job);
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
        // A *file* where the build dir should be fails both builds: the
        // dylib rung drops to the subprocess rung, whose failed compile
        // drops the job to the interpreter, flagged with both causes.
        let dir = TempDir::new("blocked");
        let blocker = dir.0.join("blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let pipeline = AccMoS::new().without_cache().with_work_dir(&blocker);
        let job = ServeJob {
            id: "b0".into(),
            spec: "bench:SPV".into(),
            steps: 50,
            lanes: 1,
            rows: 4,
            seed: 9,
            reply: None,
        };
        let done = execute_job(&pipeline, &job);
        assert_eq!(done.outcome, telemetry::outcome::DEGRADED, "{}", done.note);
        assert_eq!(done.engine, "sse");
        assert!(done.note.contains("dylib fallback"), "{}", done.note);
        assert!(done.note.contains("compile failed"), "{}", done.note);
        let pre = crate::preprocess(&crate::load_spec("bench:SPV").unwrap()).unwrap();
        let (tests, _) = crate::fuzz::lane_stimulus(&pre, 4, 9, 1);
        let want = crate::exec::interp_lane_run(&pre, &tests, &RunOptions::default(), 50);
        assert_eq!(done.digest, want.output_digest);
        assert_eq!(done.steps, 50);
    }

    #[test]
    fn recovery_parses_only_well_formed_queued_records() {
        let dir = TempDir::new("parse");
        let path = dir.0.join("jobs.jsonl");
        std::fs::write(
            &path,
            "{\"schema\":1,\"event\":\"queued\",\"job\":\"x\",\"model\":\"bench:SPV\"}\n\
             {\"schema\":1,\"event\":\"queued\",\"job\":\"nospec\"}\n\
             {\"schema\":1,\"event\":\"queued\",\"job\":\"huge\",\"model\":\"bench:SPV\",\"rows\":1000000000000}\n\
             not json at all\n\
             {\"schema\":1,\"event\":\"done\",\"job\":\"gone\"}\n",
        )
        .unwrap();
        let jobs = recover_jobs(Some(&path));
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].id, "x");
        assert_eq!(jobs[0].spec, "bench:SPV");
        assert_eq!(jobs[0].steps, 1000, "missing steps falls back to the default");
        assert!(recover_jobs(None).is_empty());
        assert!(recover_jobs(Some(Path::new("/no/such/file"))).is_empty());
    }
}
