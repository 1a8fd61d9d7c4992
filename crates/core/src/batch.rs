//! Batched simulation: many jobs, one compile per unique program.
//!
//! The paper's evaluation (Tables 2 and 3) runs each benchmark model many
//! times; a naive loop pays preprocessing, code generation and GCC for
//! every run. [`BatchRunner`] restructures that workload:
//!
//! 1. **Plan** (serial): preprocess and generate code for every
//!    model-sourced job; group jobs by the compiler's source digest, so
//!    byte-identical programs share one group.
//! 2. **Compile** (parallel): each unique program compiles once on a
//!    bounded `std::thread` pool, for the group's step budget (the sum of
//!    its jobs' steps × lanes), and the [`crate::BuildCache`] can satisfy
//!    it without invoking GCC at all.
//! 3. **Run** (parallel): every job walks the job executor's engine
//!    ladder from the supervised subprocess rung against its own test
//!    vectors; runs of a shared binary are safe because each run writes
//!    a private test-vector file.
//!
//! The aggregate [`BatchSummary`] separates cold compiles from cache hits
//! so harnesses can keep reporting paper-faithful cold numbers.

use crate::exec::{Entry, Exec, Executor, Job, Plan, Subject};
use crate::{AccMoS, AccMoSError, CompiledSimulator, PreparedSimulation, RunOptions};
use accmos_ir::{Model, SimulationReport, TestVectors};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Where a batch job's simulator comes from.
#[derive(Debug, Clone)]
pub enum JobSource {
    /// A model to preprocess, generate and compile (deduplicated: jobs
    /// whose generated programs are byte-identical share one compile).
    Model(Box<Model>),
    /// An already-prepared simulation, shared by reference; the runner
    /// never compiles it, and its build goes when the last `Arc` drops.
    Prepared(Arc<PreparedSimulation>),
    /// The path of a pre-built executable speaking the `ACCMOS:`
    /// protocol; the runner never compiles or removes it, and writes each
    /// run's test-vector file beside it. With no model behind it, a
    /// failing executable job cannot degrade to the interpreter — it
    /// reports its classified failure.
    Executable(PathBuf),
}

/// One unit of work for the [`BatchRunner`]: a simulator source, the
/// stimulus to feed it, and how long to run.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Display name carried through to the [`JobResult`].
    pub label: String,
    /// Where the executable comes from.
    pub source: JobSource,
    /// Stimulus for the run.
    pub tests: TestVectors,
    /// Number of simulation steps.
    pub steps: u64,
    /// Per-run options (diagnostics stop, time budget).
    pub opts: RunOptions,
}

impl BatchJob {
    fn new(label: impl Into<String>, source: JobSource, tests: TestVectors, steps: u64) -> Self {
        BatchJob { label: label.into(), source, tests, steps, opts: RunOptions::default() }
    }

    /// A job that builds its simulator from `model`.
    pub fn model(label: impl Into<String>, model: Model, tests: TestVectors, steps: u64) -> Self {
        BatchJob::new(label, JobSource::Model(Box::new(model)), tests, steps)
    }

    /// A job that reuses an already-compiled simulation.
    pub fn prepared(
        label: impl Into<String>,
        sim: Arc<PreparedSimulation>,
        tests: TestVectors,
        steps: u64,
    ) -> BatchJob {
        BatchJob::new(label, JobSource::Prepared(sim), tests, steps)
    }

    /// A job that runs a pre-built `ACCMOS:`-protocol executable (fault
    /// harnesses, externally compiled simulators).
    pub fn executable(
        label: impl Into<String>,
        exe: impl Into<PathBuf>,
        tests: TestVectors,
        steps: u64,
    ) -> BatchJob {
        BatchJob::new(label, JobSource::Executable(exe.into()), tests, steps)
    }

    /// Builder-style: set the per-run options.
    pub fn with_opts(mut self, opts: RunOptions) -> BatchJob {
        self.opts = opts;
        self
    }
}

/// The outcome of one [`BatchJob`].
#[derive(Debug)]
pub struct JobResult {
    /// The job's label, as submitted.
    pub label: String,
    /// The simulation report, or the error that stopped this job.
    pub report: Result<SimulationReport, AccMoSError>,
    /// Wall-clock time the job spent executing on the engine ladder's
    /// rungs: no planning, no compile (zero when it never ran).
    pub run_time: Duration,
    /// Supervised-run retries of the rung the job ended on (successful or
    /// not; 0 after falling back to the interpreter).
    pub retries: u32,
    /// Backoff sleep those retries consumed (0 after falling back to the
    /// interpreter; the summary's `backoff_sleep` counts every rung).
    pub backoff: Duration,
    /// Why this job degraded to the interpretive engine (`None` = it ran
    /// the compiled simulator). Degradation is never silent.
    pub fallback_reason: Option<String>,
    /// Peak resident set size of the simulator child in KiB (`ru_maxrss`,
    /// reported by the supervisor's reap; 0 = not measured, including
    /// interpretive fallbacks).
    pub peak_rss_kb: u64,
}

impl JobResult {
    /// Whether this job's report came from the interpretive fallback
    /// rather than a compiled simulator.
    pub fn degraded(&self) -> bool {
        self.fallback_reason.is_some()
    }
}

/// Aggregate timing and dedup statistics of one [`BatchRunner::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchSummary {
    /// Total wall-clock time of the whole batch.
    pub total_wall: Duration,
    /// Number of jobs submitted.
    pub jobs: usize,
    /// Unique generated programs among the model-sourced jobs (each
    /// compiled at most once).
    pub unique_programs: usize,
    /// Compiles that invoked the C compiler.
    pub cold_compiles: usize,
    /// Compiles satisfied by the build cache.
    pub cached_compiles: usize,
    /// Wall-clock time inside the C compiler (cold compiles only) — the
    /// paper-faithful compile cost.
    pub cold_compile_time: Duration,
    /// Wall-clock time fetching cached executables (reported separately
    /// so cache hits never pollute the cold numbers).
    pub cached_compile_time: Duration,
    /// Summed preprocessing + code-generation time.
    pub codegen_time: Duration,
    /// Summed per-job simulator run time.
    pub run_time: Duration,
    /// Number of jobs that ended in an error.
    pub failures: usize,
    /// Total supervised-run retries across all jobs.
    pub retries: u64,
    /// Supervised-run retries of every job on every rung, broken down by
    /// the [`accmos_backend::FailureKind::index`] ordinal of the failure
    /// each retried.
    pub retry_kinds: [u64; accmos_backend::FailureKind::COUNT],
    /// Total wall-clock time the supervisor slept in retry backoff, over
    /// every job on every rung.
    pub backoff_sleep: Duration,
    /// Jobs that fell back to the interpretive engine.
    pub degraded: usize,
    /// The batch's own executables (one per dedup group: the build, the
    /// prepared simulation or the raw executable its jobs ran) that were
    /// quarantined once the jobs had run, by this batch or by an earlier
    /// one sharing the state directory.
    pub quarantined: usize,
    /// Largest per-job child peak RSS observed, in KiB (`ru_maxrss`; 0
    /// when no job reported a measurement).
    pub max_peak_rss_kb: u64,
}

/// The results of one batch: per-job outcomes in submission order plus
/// the aggregate [`BatchSummary`].
#[derive(Debug)]
pub struct BatchReport {
    /// One result per submitted job, in submission order.
    pub jobs: Vec<JobResult>,
    /// Aggregate statistics.
    pub summary: BatchSummary,
}

/// Runs many simulation jobs with deduplicated compiles on a bounded
/// worker pool.
///
/// # Examples
///
/// ```no_run
/// use accmos::{AccMoS, BatchJob, BatchRunner};
/// use accmos_ir::{DataType, ModelBuilder, Scalar, TestVectors};
///
/// let mut b = ModelBuilder::new("M");
/// b.inport("In", DataType::I32);
/// b.outport("Out", DataType::I32);
/// b.wire("In", "Out");
/// let model = b.build()?;
///
/// let jobs = (0..8)
///     .map(|i| {
///         let tests = TestVectors::constant("In", Scalar::I32(i), 4);
///         BatchJob::model(format!("job-{i}"), model.clone(), tests, 100)
///     })
///     .collect();
/// let report = BatchRunner::new(AccMoS::new()).run(jobs)?;
/// assert_eq!(report.summary.unique_programs, 1); // one compile for all 8
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct BatchRunner {
    pipeline: AccMoS,
    workers: usize,
}

impl BatchRunner {
    /// A runner over `pipeline`'s configuration with one worker per
    /// available CPU.
    pub fn new(pipeline: AccMoS) -> BatchRunner {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        BatchRunner { pipeline, workers }
    }

    /// Builder-style: bound the worker pool to `n` threads (1 minimum).
    pub fn with_workers(mut self, n: usize) -> BatchRunner {
        self.workers = n.max(1);
        self
    }

    /// The worker-pool bound.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Execute `jobs`: plan serially, compile unique programs in
    /// parallel, run every job in parallel on the job executor's engine
    /// ladder from the subprocess rung.
    ///
    /// Per-job failures land in the job's own [`JobResult`]; only global
    /// failures (no C compiler on the system) abort the batch.
    ///
    /// # Errors
    ///
    /// Returns [`AccMoSError::Backend`] when no C compiler is found.
    pub fn run(&self, jobs: Vec<BatchJob>) -> Result<BatchReport, AccMoSError> {
        let wall_start = Instant::now();
        let mut summary = BatchSummary { jobs: jobs.len(), ..BatchSummary::default() };

        // Plan (serial): plan each model job, group by source digest and
        // sum each group's step budget. `keys[i]` is Ok(group key) |
        // Err(per-job planning failure).
        let compiler = self.pipeline.compiler()?;
        let mut groups: HashMap<String, Group> = HashMap::new();
        let mut keys: Vec<Result<String, AccMoSError>> = Vec::with_capacity(jobs.len());
        for job in &jobs {
            let (key, group) = match &job.source {
                // Prepared sims are keyed by pointer identity and raw
                // executables by path: never compiled here. Distinct
                // executable paths quarantine independently.
                JobSource::Prepared(sim) => {
                    (format!("prepared:{:p}", Arc::as_ptr(sim)), Group::Prepared(Arc::clone(sim)))
                }
                JobSource::Executable(exe) => {
                    (format!("exe:{}", exe.display()), Group::Executable(exe.clone()))
                }
                JobSource::Model(model) => match self.pipeline.plan(model) {
                    Ok(plan) => {
                        summary.codegen_time += plan.preprocess_time + plan.codegen_time;
                        let key = compiler.source_digest(&plan.program);
                        let budget = crate::exec::budget(job.steps, job.opts.lanes());
                        let group = groups.entry(key.clone()).or_insert_with(|| {
                            Group::Model(Box::new(Build { plan, budget: 0, sim: OnceLock::new() }))
                        });
                        if let Group::Model(build) = group {
                            build.budget = build.budget.saturating_add(budget);
                        }
                        keys.push(Ok(key));
                        continue;
                    }
                    Err(e) => {
                        keys.push(Err(e));
                        continue;
                    }
                },
            };
            groups.entry(key.clone()).or_insert(group);
            keys.push(Ok(key));
        }

        // Compile (parallel): one compile per unique program.
        let to_compile: Vec<&Build> = groups
            .values()
            .filter_map(|g| match g {
                Group::Model(build) => Some(&**build),
                _ => None,
            })
            .collect();
        summary.unique_programs = to_compile.len();
        run_on_pool(self.workers, &to_compile, |build| {
            let compiler = self.pipeline.budgeted(compiler.clone(), build.budget);
            let _ = build.sim.set(compiler.compile(&build.plan.program).map_err(|e| e.to_string()));
        });
        for sim in groups.values().filter_map(Group::built) {
            let (count, time) = match sim.cache_hit() {
                true => (&mut summary.cached_compiles, &mut summary.cached_compile_time),
                false => (&mut summary.cold_compiles, &mut summary.cold_compile_time),
            };
            *count += 1;
            *time += sim.compile_time();
        }

        // Run (parallel): every job walks the ladder against its group's
        // build, under one shared supervisor so crash counts (and thus
        // quarantine) aggregate across jobs hitting the same executable.
        // The pipeline hands out a state-backed supervisor, so quarantine
        // decisions also persist across batches sharing one cache dir.
        let supervisor = self.pipeline.supervisor();
        let run_work: Vec<(usize, &BatchJob)> = jobs.iter().enumerate().collect();
        let slots: Vec<Mutex<Option<Exec>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        run_on_pool(self.workers, &run_work, |(idx, job)| {
            let traced = self.pipeline.tracer().map(|t| (t, t.now_us()));
            // A job whose planning failed has nothing to run.
            let exec = keys[*idx].as_ref().ok().map(|key| {
                let executor = Executor { pipeline: &self.pipeline, supervisor: Some(&supervisor) };
                let run = Job { steps: job.steps, tests: &job.tests, opts: &job.opts };
                executor.run(groups[key].subject(), Entry::Subprocess, &run)
            });
            // Each job gets its own trace track (Chrome tid) so concurrent
            // workers' spans never interleave into fake hierarchy. Track 1
            // stays reserved for single-run pipelines.
            if let (Some((tracer, start_us)), Some(exec)) = (traced, &exec) {
                exec.trail.trace(tracer, *idx as u64 + 2, &job.label, start_us, exec.profile());
            }
            *slots[*idx].lock().unwrap_or_else(PoisonError::into_inner) = exec;
        });

        let mut results = Vec::with_capacity(jobs.len());
        let mut records = Vec::with_capacity(jobs.len());
        for ((job, key), slot) in jobs.iter().zip(keys).zip(slots) {
            let exec = match (slot.into_inner().unwrap_or_else(PoisonError::into_inner), key) {
                (Some(exec), _) => exec,
                (None, Err(e)) => Exec::failed(e),
                // A worker that panicked mid-job never filled its slot;
                // that is a per-job failure, not a batch abort.
                (None, Ok(_)) => Exec::failed(AccMoSError::Batch(
                    "batch worker thread panicked while running this job".into(),
                )),
            };
            records.push(exec.record("batch", &job.label, job.steps, job.opts.lanes() as u64));
            let attempts = &exec.trail.attempts;
            let retried = attempts.windows(2).filter(|w| w[1].n > 0).filter_map(|w| w[0].failure);
            for kind in retried {
                summary.retry_kinds[kind.index()] += 1;
            }
            summary.backoff_sleep += attempts.iter().map(|a| a.backoff).sum::<Duration>();
            let (retries, backoff, peak_rss_kb) = exec.trail.last_rung();
            let result = JobResult {
                label: job.label.clone(),
                fallback_reason: exec.fallback_reason(),
                report: exec.report,
                run_time: exec.trail.run_time,
                retries,
                backoff,
                peak_rss_kb,
            };
            summary.run_time += result.run_time;
            summary.retries += u64::from(result.retries);
            summary.max_peak_rss_kb = summary.max_peak_rss_kb.max(result.peak_rss_kb);
            summary.degraded += usize::from(result.degraded());
            summary.failures += usize::from(result.report.is_err());
            results.push(result);
        }
        summary.quarantined =
            groups.values().filter_map(Group::exe).filter(|e| supervisor.is_quarantined(e)).count();
        summary.total_wall = wall_start.elapsed();

        // Ledger: one schema-versioned record per job, appended after the
        // batch settles so the trend gate sees exactly what the caller
        // saw. Best-effort — a read-only state dir never fails a batch.
        // The runner's builds go when `groups` drops, after this.
        for record in &records {
            self.pipeline.record(record);
        }
        Ok(BatchReport { jobs: results, summary })
    }
}

/// A dedup group: at most one compile feeding any number of jobs.
enum Group {
    /// A planned model the runner compiles once; its build goes when the
    /// batch returns.
    Model(Box<Build>),
    /// A caller-prepared simulation: never compiled here.
    Prepared(Arc<PreparedSimulation>),
    /// A caller-supplied executable, with no model behind it.
    Executable(PathBuf),
}

/// A model group's plan, the step budget of all its jobs together and,
/// once the compile pool ran, its build or the build's error.
struct Build {
    plan: Plan,
    budget: u64,
    sim: OnceLock<Result<CompiledSimulator, String>>,
}

impl Group {
    /// The executable the runner built for this group, if it built one.
    fn built(&self) -> Option<&CompiledSimulator> {
        match self {
            Group::Model(build) => build.sim.get()?.as_ref().ok(),
            _ => None,
        }
    }

    /// The executable this group's jobs ran, if it had one.
    fn exe(&self) -> Option<&Path> {
        match self {
            Group::Model(_) => self.built().map(CompiledSimulator::exe),
            Group::Prepared(sim) => Some(sim.sim.exe()),
            Group::Executable(exe) => Some(exe),
        }
    }

    fn subject(&self) -> Subject<'_> {
        match self {
            Group::Model(build) => Subject::Built(
                &build.plan,
                build.sim.get().map_or(Err("the compile pool never built this program"), |sim| {
                    sim.as_ref().map_err(String::as_str)
                }),
            ),
            Group::Prepared(sim) => Subject::Built(&sim.plan, Ok(&sim.sim)),
            Group::Executable(exe) => Subject::Executable(exe),
        }
    }
}

/// A closable multi-producer/multi-consumer work queue with condvar
/// wakeups — the batch pool's dispatcher, shared with the serve daemon's
/// long-lived workers.
///
/// Idle workers *block* in [`WorkQueue::pop`]; a push wakes exactly one
/// of them and [`WorkQueue::close`] wakes them all for shutdown. Nothing
/// ever polls, so thousands of queued jobs cost a thread only while that
/// thread is actually computing. The queue deliberately has no capacity
/// bound: callers (the batch planner, the serve daemon's submit path)
/// bound admission themselves.
pub(crate) struct WorkQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> WorkQueue<T> {
    pub(crate) fn new() -> WorkQueue<T> {
        WorkQueue {
            state: Mutex::new(QueueState { items: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
        }
    }

    /// Enqueue an item and wake one blocked worker. Items pushed after
    /// [`WorkQueue::close`] are still drained — close marks "no more
    /// producers", not "discard the backlog".
    pub(crate) fn push(&self, item: T) {
        self.state.lock().expect("work queue").items.push_back(item);
        self.ready.notify_one();
    }

    /// Mark the queue closed and wake every blocked worker; once the
    /// backlog drains, every [`WorkQueue::pop`] returns `None`.
    pub(crate) fn close(&self) {
        self.state.lock().expect("work queue").closed = true;
        self.ready.notify_all();
    }

    /// Dequeue the next item, blocking on the condvar while the queue is
    /// empty and open. Returns `None` once the queue is closed **and**
    /// drained — the worker's signal to exit.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("work queue");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("work queue");
        }
    }
}

/// Run `f` over every item of `work` on at most `workers` threads fed by
/// a [`WorkQueue`] (pre-seeded and closed, so workers exit the moment
/// the backlog drains). Blocks until all items are processed.
fn run_on_pool<T: Sync>(workers: usize, work: &[T], f: impl Fn(&T) + Sync) {
    if work.is_empty() {
        return;
    }
    // Contain panics per item: `std::thread::scope` re-raises a worker
    // panic on join, which would turn one bad job into a whole-batch
    // abort. A panicked item simply never fills its output slot, and the
    // caller reports that per item.
    let call = |item: &T| {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item)));
    };
    let threads = workers.max(1).min(work.len());
    if threads == 1 {
        for item in work {
            call(item);
        }
        return;
    }
    let queue = WorkQueue::new();
    for idx in 0..work.len() {
        queue.push(idx);
    }
    queue.close();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                while let Some(idx) = queue.pop() {
                    call(&work[idx]);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use accmos_ir::{ActorKind, DataType, ModelBuilder, Scalar};

    fn gain_model(name: &str, gain: i32) -> Model {
        let mut b = ModelBuilder::new(name);
        b.inport("In", DataType::I32);
        b.actor("G", ActorKind::Gain { gain: Scalar::I32(gain) });
        b.outport("Out", DataType::I32);
        b.wire("In", "G");
        b.wire("G", "Out");
        b.build().unwrap()
    }

    fn tests_for(value: i32) -> TestVectors {
        TestVectors::constant("In", Scalar::I32(value), 3)
    }

    /// ISSUE acceptance: >=8 concurrent jobs over a mix of models, some
    /// sharing one compiled binary, must reproduce the serial digests.
    #[test]
    fn concurrent_batch_matches_serial_digests() {
        let models =
            [gain_model("BatchA", 2), gain_model("BatchB", 3), gain_model("BatchC", 5)];
        // 9 jobs over 3 models: each model's binary is shared by 3 jobs.
        let jobs: Vec<BatchJob> = (0..9)
            .map(|i| {
                let model = &models[i % 3];
                BatchJob::model(
                    format!("job-{i}"),
                    model.clone(),
                    tests_for(i as i32 + 1),
                    50,
                )
            })
            .collect();

        // Serial reference: same pipeline, one job at a time.
        let pipeline = AccMoS::new().without_cache();
        let serial: Vec<u64> = (0..9)
            .map(|i| {
                let sim = pipeline.prepare(&models[i % 3]).unwrap();
                let r = sim
                    .run(50, &tests_for(i as i32 + 1), &RunOptions::default())
                    .unwrap();
                r.output_digest
            })
            .collect();

        let report =
            BatchRunner::new(pipeline.clone()).with_workers(8).run(jobs).unwrap();
        assert_eq!(report.summary.jobs, 9);
        assert_eq!(report.summary.unique_programs, 3, "3 models -> 3 compiles");
        assert_eq!(report.summary.failures, 0);
        for (i, job) in report.jobs.iter().enumerate() {
            assert_eq!(job.label, format!("job-{i}"), "submission order preserved");
            let r = job.report.as_ref().unwrap();
            assert_eq!(r.output_digest, serial[i], "job {i} diverged from serial run");
        }
    }

    #[test]
    fn prepared_jobs_share_the_submitted_binary() {
        let pipeline = AccMoS::new().without_cache();
        let sim = Arc::new(pipeline.prepare(&gain_model("Shared", 7)).unwrap());
        let jobs: Vec<BatchJob> = (0..8)
            .map(|i| {
                BatchJob::prepared(format!("p{i}"), Arc::clone(&sim), tests_for(i), 20)
            })
            .collect();
        let report = BatchRunner::new(pipeline).with_workers(4).run(jobs).unwrap();
        assert_eq!(report.summary.failures, 0);
        assert_eq!(report.summary.unique_programs, 0, "nothing compiled");
        for (i, job) in report.jobs.iter().enumerate() {
            let r = job.report.as_ref().unwrap();
            assert_eq!(r.final_outputs[0].1.to_string(), (7 * i as i32).to_string());
        }
        // The runner must not have cleaned the caller's build dir.
        assert!(sim.simulator().exe().exists());
        sim.clean();
    }

    #[test]
    fn failures_are_per_job_not_global() {
        let jobs = vec![
            BatchJob::model("good", gain_model("Good", 2), tests_for(1), 10),
            BatchJob::model("bad", crate::tests::looped_model(), TestVectors::new(), 10),
        ];
        let report = BatchRunner::new(AccMoS::new().without_cache()).run(jobs).unwrap();
        assert!(report.jobs[0].report.is_ok(), "healthy job unaffected");
        let err = report.jobs[1].report.as_ref().unwrap_err();
        assert!(
            err.to_string().contains("algebraic loop"),
            "loop failure stays on its own job: {err}"
        );
        assert_eq!(report.summary.failures, 1);
    }

    #[test]
    fn pool_contains_worker_panics() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let work: Vec<u32> = (0..8).collect();
        let done = AtomicUsize::new(0);
        run_on_pool(4, &work, |n| {
            assert!(*n != 3, "injected panic");
            done.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(done.load(Ordering::Relaxed), 7, "one panic, seven survivors");
    }

    #[test]
    fn work_queue_drains_closed_backlog_exactly_once() {
        use std::collections::HashSet;
        let queue = WorkQueue::new();
        for i in 0..100 {
            queue.push(i);
        }
        queue.close();
        let seen: Mutex<HashSet<i32>> = Mutex::new(HashSet::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while let Some(i) = queue.pop() {
                        assert!(seen.lock().unwrap().insert(i), "item {i} dispatched twice");
                    }
                });
            }
        });
        assert_eq!(seen.lock().unwrap().len(), 100, "every item dispatched");
        assert_eq!(queue.pop(), None, "closed and drained stays None");
    }

    #[test]
    fn work_queue_wakes_a_blocked_worker_on_push_and_all_on_close() {
        let queue: Arc<WorkQueue<u32>> = Arc::new(WorkQueue::new());
        let q = Arc::clone(&queue);
        // The worker blocks on the condvar (no backlog yet)...
        let worker = std::thread::spawn(move || {
            let first = q.pop();
            let second = q.pop();
            (first, second)
        });
        // ...and a push delivers without the worker ever polling.
        std::thread::sleep(Duration::from_millis(20));
        queue.push(7);
        // Close releases the still-blocked second pop.
        std::thread::sleep(Duration::from_millis(20));
        queue.close();
        let (first, second) = worker.join().unwrap();
        assert_eq!(first, Some(7));
        assert_eq!(second, None);
        // Items pushed after close are backlog, not discarded.
        queue.push(9);
        assert_eq!(queue.pop(), Some(9));
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn compile_failure_degrades_jobs_to_interpreter() {
        // The shared compile fails in `cc`; the jobs still complete on the
        // interpreter, flagged.
        let pipeline = crate::tests::failing_builds("Degr_G");
        let report = BatchRunner::new(pipeline)
            .run(vec![
                BatchJob::model("d0", gain_model("Degr", 2), tests_for(5), 4),
                BatchJob::model("d1", gain_model("Degr", 2), tests_for(7), 4),
            ])
            .unwrap();
        assert_eq!(report.summary.failures, 0, "degradation is not failure");
        assert_eq!(report.summary.degraded, 2);
        for (job, want) in report.jobs.iter().zip(["10", "14"]) {
            assert!(job.degraded(), "{} must be flagged degraded", job.label);
            assert!(
                job.fallback_reason.as_deref().unwrap().contains("compile failed"),
                "reason names the cause"
            );
            let r = job.report.as_ref().unwrap();
            assert_eq!(r.final_outputs[0].1.to_string(), want);
        }
    }

    #[test]
    fn builds_of_one_batch_stay_apart() {
        let pipeline = AccMoS::new().without_cache();
        let names = ["WorkA", "WorkB", "WorkC", "WorkD"];
        let jobs = names
            .iter()
            .zip(2..)
            .map(|(name, gain)| BatchJob::model(*name, gain_model(name, gain), tests_for(1), 4))
            .collect();
        let report = BatchRunner::new(pipeline).with_workers(2).run(jobs).unwrap();
        for (job, name) in report.jobs.iter().zip(names) {
            assert!(!job.degraded(), "{name}: {:?}", job.fallback_reason);
            assert_eq!(job.report.as_ref().unwrap().model, name, "each job runs its own model");
        }
    }

    #[cfg(unix)]
    #[test]
    fn quarantined_binary_degrades_remaining_jobs() {
        use std::os::unix::fs::PermissionsExt;
        let policy = crate::ExecPolicy::default()
            .with_retries(0)
            .with_quarantine_after(2)
            .with_kill_timeout(Duration::from_millis(500));
        let pipeline = AccMoS::new().without_cache().with_exec_policy(policy);
        let sim = Arc::new(pipeline.prepare(&gain_model("Quar", 3)).unwrap());
        // Sabotage the compiled binary: every invocation dies on SIGSEGV.
        let exe = sim.simulator().exe().to_path_buf();
        std::fs::write(&exe, "#!/bin/sh\nkill -SEGV $$\n").unwrap();
        std::fs::set_permissions(&exe, std::fs::Permissions::from_mode(0o755)).unwrap();

        let jobs: Vec<BatchJob> = (0..4)
            .map(|i| BatchJob::prepared(format!("q{i}"), Arc::clone(&sim), tests_for(i), 5))
            .collect();
        // One worker => deterministic order: q0 crashes (count 1, hard
        // failure), q1 crashes into quarantine and degrades, q2/q3 skip
        // the binary entirely and degrade.
        let report = BatchRunner::new(pipeline).with_workers(1).run(jobs).unwrap();
        assert_eq!(report.summary.quarantined, 1);
        assert_eq!(report.summary.failures, 1);
        assert_eq!(report.summary.degraded, 3);
        assert!(matches!(
            report.jobs[0].report.as_ref().unwrap_err(),
            AccMoSError::Backend(crate::BackendError::Supervised { .. })
        ));
        for (i, job) in report.jobs.iter().enumerate().skip(1) {
            assert!(job.degraded(), "{} must degrade after quarantine", job.label);
            let r = job.report.as_ref().unwrap();
            assert_eq!(r.final_outputs[0].1.to_string(), (3 * i as i32).to_string());
        }
    }

    #[cfg(unix)]
    #[test]
    fn failed_job_reports_the_backoff_its_retries_slept() {
        use std::os::unix::fs::PermissionsExt;
        let root =
            std::env::temp_dir().join(format!("accmos-batch-backoff-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let policy = crate::ExecPolicy::default()
            .with_retries(1)
            .with_quarantine_after(3)
            .with_kill_timeout(Duration::from_millis(500));
        let pipeline =
            AccMoS::new().with_cache(crate::BuildCache::at(&root)).with_exec_policy(policy.clone());
        let sim = Arc::new(pipeline.prepare(&gain_model("Backoff", 3)).unwrap());
        // Every invocation dies on SIGSEGV: two crashes, one retry, and
        // still under the quarantine threshold, so the job fails.
        let exe = sim.simulator().exe().to_path_buf();
        std::fs::write(&exe, "#!/bin/sh\nkill -SEGV $$\n").unwrap();
        std::fs::set_permissions(&exe, std::fs::Permissions::from_mode(0o755)).unwrap();

        let report = BatchRunner::new(pipeline.clone())
            .run(vec![BatchJob::prepared("crashy", Arc::clone(&sim), tests_for(1), 5)])
            .unwrap();
        let job = &report.jobs[0];
        assert!(job.report.is_err(), "a crash below the threshold fails the job");
        assert!(!job.degraded());
        assert_eq!(job.retries, 1);
        let slept = policy.backoff_before(&exe, 1);
        assert_eq!(job.backoff, slept, "the backoff the supervisor slept");
        let view = pipeline.ledger().unwrap().read();
        assert_eq!(view.records.len(), 1);
        assert_eq!(view.records[0].phases.backoff_us, slept.as_micros() as u64);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[cfg(unix)]
    #[test]
    fn summary_counts_the_retries_of_a_job_that_degraded() {
        use std::os::unix::fs::PermissionsExt;
        let root =
            std::env::temp_dir().join(format!("accmos-batch-degraded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let policy = crate::ExecPolicy::default()
            .with_retries(1)
            .with_quarantine_after(2)
            .with_kill_timeout(Duration::from_millis(500));
        let pipeline =
            AccMoS::new().with_cache(crate::BuildCache::at(&root)).with_exec_policy(policy.clone());
        let sim = Arc::new(pipeline.prepare(&gain_model("Degraded", 3)).unwrap());
        // Every invocation dies on SIGSEGV: the retry's crash reaches the
        // quarantine threshold, so the job degrades to the interpreter.
        let exe = sim.simulator().exe().to_path_buf();
        std::fs::write(&exe, "#!/bin/sh\nkill -SEGV $$\n").unwrap();
        std::fs::set_permissions(&exe, std::fs::Permissions::from_mode(0o755)).unwrap();

        let report = BatchRunner::new(pipeline.clone())
            .run(vec![BatchJob::prepared("degraded", Arc::clone(&sim), tests_for(1), 5)])
            .unwrap();
        let job = &report.jobs[0];
        assert!(job.degraded(), "{:?}", job.report);
        assert_eq!((job.retries, job.backoff), (0, Duration::ZERO), "the interpreter's");
        // The summary counts the subprocess rung's retry all the same.
        let s = &report.summary;
        let slept = policy.backoff_before(&exe, 1);
        let mut kinds = [0; crate::FailureKind::COUNT];
        kinds[crate::FailureKind::Crashed { signal: 11 }.index()] = 1;
        assert_eq!((s.retry_kinds, s.backoff_sleep), (kinds, slept));
        let view = pipeline.ledger().unwrap().read();
        let record = &view.records[0];
        assert_eq!(record.retries, 0, "retries are the last rung's");
        assert_eq!(record.phases.backoff_us, slept.as_micros() as u64, "backoff sums rungs");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[cfg(unix)]
    #[test]
    fn a_job_that_degrades_interprets_under_what_its_deadline_has_left() {
        use std::os::unix::fs::PermissionsExt;
        let policy = crate::ExecPolicy::default()
            .with_retries(0)
            .with_quarantine_after(1)
            .with_kill_timeout(Duration::from_secs(1));
        let pipeline = AccMoS::new().without_cache().with_exec_policy(policy);
        let sim = Arc::new(pipeline.prepare(&gain_model("Spent", 3)).unwrap());
        // The subprocess rung spends 0.6 s of the 1 s deadline and crashes
        // into quarantine: the interpreter gets the 0.4 s left, not a
        // fresh second.
        let exe = sim.simulator().exe().to_path_buf();
        std::fs::write(&exe, "#!/bin/sh\nsleep 0.6; kill -SEGV $$\n").unwrap();
        std::fs::set_permissions(&exe, std::fs::Permissions::from_mode(0o755)).unwrap();

        let job = BatchJob::prepared("spent", Arc::clone(&sim), tests_for(1), 10_000_000_000);
        let report = BatchRunner::new(pipeline).with_workers(1).run(vec![job]).unwrap();
        let job = &report.jobs[0];
        let err = job.report.as_ref().unwrap_err();
        let AccMoSError::Backend(e) = err else { panic!("expected a backend error: {err}") };
        assert_eq!(e.failure_kind(), Some(crate::FailureKind::Timeout), "{err}");
        assert!(err.to_string().contains("interpreter stopped"), "{err}");
        assert!(job.run_time < Duration::from_millis(1300), "ran for {:?}", job.run_time);
    }

    #[cfg(unix)]
    #[test]
    fn quarantined_counts_only_the_executables_the_batch_ran() {
        use std::os::unix::fs::PermissionsExt;
        let root =
            std::env::temp_dir().join(format!("accmos-batch-inherited-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let policy = crate::ExecPolicy::default()
            .with_retries(1)
            .with_quarantine_after(2)
            .with_kill_timeout(Duration::from_millis(500));
        let pipeline =
            AccMoS::new().with_cache(crate::BuildCache::at(&root)).with_exec_policy(policy);
        // A first batch quarantines a raw executable that always crashes.
        let exe = root.join("faultsim-crash");
        std::fs::write(&exe, "#!/bin/sh\nkill -SEGV $$\n").unwrap();
        std::fs::set_permissions(&exe, std::fs::Permissions::from_mode(0o755)).unwrap();
        let first = BatchRunner::new(pipeline.clone())
            .run(vec![BatchJob::executable("crash", &exe, tests_for(1), 5)])
            .unwrap();
        assert_eq!(first.summary.quarantined, 1);
        // A second batch in the same state directory runs one healthy
        // model: the inherited quarantine entry is not its own.
        let second = BatchRunner::new(pipeline)
            .run(vec![BatchJob::model("healthy", gain_model("Healthy", 2), tests_for(1), 5)])
            .unwrap();
        let s = &second.summary;
        assert_eq!((s.quarantined, s.degraded, s.failures), (0, 0, 0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn batch_cache_counters_split_cold_and_cached() {
        let root = std::env::temp_dir()
            .join(format!("accmos-batch-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = crate::BuildCache::at(&root);
        let pipeline = AccMoS::new().with_cache(cache.clone());
        let model = gain_model("Counted", 4);

        let first = BatchRunner::new(pipeline.clone())
            .run(vec![BatchJob::model("cold", model.clone(), tests_for(1), 10)])
            .unwrap();
        assert_eq!(first.summary.cold_compiles, 1);
        assert_eq!(first.summary.cached_compiles, 0);

        let second = BatchRunner::new(pipeline)
            .run(vec![BatchJob::model("warm", model, tests_for(2), 10)])
            .unwrap();
        assert_eq!(second.summary.cold_compiles, 0);
        assert_eq!(second.summary.cached_compiles, 1);
        assert!(second.summary.cached_compile_time <= first.summary.cold_compile_time);
        cache.clear().unwrap();
    }
}
