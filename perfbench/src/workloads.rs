//! The workloads. Each one makes its inputs from the run seed, sets up
//! several times (the median is `setup_s`), runs a closed loop for the
//! run length, and then checks results against the interpreter, outside
//! the measured window. With a tracer, a fixed sample is then replayed
//! layer by layer ([`crate::replay`]).

use crate::oracle::{Fingerprint, Key, Oracle};
use crate::replay::{self, geomean_of_medians, Replay};
use crate::spec::{self, RunResult, LAYERS};
use crate::stats::{self, median, mix};
use accmos::telemetry::{parse_flat_object, Fields};
use accmos::{
    AccMoS, AccMoSError, AcceleratorEngine, BatchJob, BatchRunner, BuildCache, CacheStats,
    DylibRunner, Engine as _, ExecPolicy, NormalEngine, PreprocessedModel, RunOptions, RunOutcome,
    ServeConfig, ServeHandle, SimOptions, Tracer,
};
use accmos_ir::{Model, TestVectors};
use accmos_testgen::random_tests;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How one run is driven.
pub struct Settings {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// The test profile: one model, tiny sizes, one pass.
    pub smoke: bool,
    /// Scratch directory of this run (absolute; also the working
    /// directory, so the serve socket path stays short).
    pub work: PathBuf,
    /// Set for the traced run.
    pub tracer: Option<Tracer>,
}

/// Operation sizes. [`Sizes::full`] is what the checked-in numbers use.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Models every workload cycles through.
    pub models: Vec<&'static str>,
    /// Models the cold workload cycles through: those whose cold compile
    /// takes under a second here, so each gets several samples per run.
    /// The three slowest (FMTM, LANS, RAC) are compiled cold by every
    /// warm workload's set-up and by the traced replay.
    pub cold_models: Vec<&'static str>,
    /// Minimum set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Cheap set-ups repeat until their total reaches this.
    pub setup_budget: Duration,
    /// Steps of one cold model-text-to-report operation.
    pub cold_steps: u64,
    /// Stimulus rows of the cold, long and interpreter workloads.
    pub rows: usize,
    /// Steps of one long run.
    pub long_steps: u64,
    /// Steps of the interpreter-checked prefix run of each long-run
    /// executable.
    pub check_steps: u64,
    /// Steps of one interpreter run.
    pub sse_steps: u64,
    /// Steps of one serve or batch job.
    pub job_steps: u64,
    /// Stimulus rows of one serve or batch job.
    pub job_rows: usize,
    /// Jobs per batch round.
    pub batch_jobs: usize,
    /// Jobs the traced replay runs on the serve and batch workloads.
    pub replay_jobs: usize,
    /// One in this many serve/batch jobs is checked against the
    /// interpreter...
    pub sample_mod: u64,
    /// ...among the first this many jobs (bounds the oracle's time).
    pub sample_window: u64,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Sizes {
        Sizes {
            models: spec::table1_models(),
            cold_models: vec!["CPUT", "CSEV", "LEDLC", "SPV", "TCP", "TWC", "UTPC"],
            setup_reps: 3,
            setup_budget: Duration::from_secs(1),
            cold_steps: 5_000,
            rows: 64,
            long_steps: 200_000,
            check_steps: 2_000,
            sse_steps: 2_000,
            job_steps: 2_000,
            job_rows: 8,
            batch_jobs: 100,
            replay_jobs: 200,
            sample_mod: 8,
            sample_window: 240,
        }
    }

    /// The test profile: SPV only, tiny runs, everything checked.
    pub fn smoke() -> Sizes {
        Sizes {
            models: vec!["SPV"],
            cold_models: vec!["SPV"],
            setup_reps: 1,
            setup_budget: Duration::ZERO,
            cold_steps: 200,
            rows: 16,
            long_steps: 5_000,
            check_steps: 200,
            sse_steps: 200,
            job_steps: 200,
            job_rows: 8,
            batch_jobs: 6,
            replay_jobs: 4,
            sample_mod: 1,
            sample_window: 1_000,
        }
    }
}

/// What a run counted and timed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    setup_s: Vec<f64>,
    /// Operation wall milliseconds per model.
    op_ms: BTreeMap<String, Vec<f64>>,
    ops_s: f64,
    cache_hit_ratio: f64,
    retries: u64,
    ack_ms: f64,
    replay: Option<Replay>,
}

impl Tally {
    fn op(&mut self, model: &str, dur: Duration) {
        self.attempted += 1;
        self.op_ms
            .entry(model.to_string())
            .or_default()
            .push(dur.as_secs_f64() * 1e3);
    }

    fn fail(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("perfbench: FAILED {what}");
    }

    /// Count a failure if `got` is an error or differs from `want`.
    fn settle(
        &mut self,
        what: &str,
        got: &Result<Fingerprint, String>,
        want: Option<&Fingerprint>,
    ) {
        match (got, want) {
            (Err(e), _) => self.fail(&format!("{what}: {e}")),
            (Ok(fp), Some(w)) if !fp.matches(w) => {
                self.fail(&format!("{what}: {fp:?} differs from the reference {w:?}"));
            }
            _ => {}
        }
    }

    /// Set-up failures count as failed operations.
    fn setup_errors(&mut self, errors: Vec<String>) {
        for e in errors {
            self.attempted += 1;
            self.fail(&format!("set-up: {e}"));
        }
    }
}

/// One model's inputs, made from the seed before any timing.
struct Subject {
    name: &'static str,
    model: Model,
    pre: PreprocessedModel,
    tests: TestVectors,
    /// The reference run matching this subject's checked operation.
    key: Key,
}

/// An independent 64-bit stream value for `(seed, tag, x)`.
fn stream(seed: u64, tag: &str, x: u64) -> u64 {
    let t = tag.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    mix(mix(seed, t), x)
}

fn make_subjects(
    s: &Settings,
    models: &[&'static str],
    tag: &str,
    rows: usize,
    checked_steps: u64,
) -> Vec<Subject> {
    models
        .iter()
        .map(|&name| {
            let model = accmos_models::by_name(name);
            let pre = accmos::preprocess(&model).expect("benchmark model preprocesses");
            let seed = stream(s.seed, &format!("{tag}/{name}"), 0);
            let tests = random_tests(&pre, rows, seed);
            let key = Key {
                model: name.to_string(),
                seed,
                rows,
                steps: checked_steps,
            };
            Subject {
                name,
                model,
                pre,
                tests,
                key,
            }
        })
        .collect()
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn order(seed: u64, tag: &str, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (stream(seed, tag, i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// Run set-ups, timing each: at least `z.setup_reps`, and more (up to
/// 50) while their total stays under `z.setup_budget`, so a set-up of a
/// few milliseconds gets enough repetitions for a steady median. Keeps
/// the last one's result (earlier ones are dropped after the next is
/// timed).
fn setup<T>(t: &mut Tally, z: &Sizes, mut f: impl FnMut(usize) -> T) -> T {
    let mut last = None;
    let mut total = 0.0;
    for r in 0..50 {
        let start = Instant::now();
        let v = f(r);
        let took = start.elapsed().as_secs_f64();
        t.setup_s.push(took);
        total += took;
        last = Some(v);
        if r + 1 >= z.setup_reps && total >= z.setup_budget.as_secs_f64() {
            break;
        }
    }
    last.expect("at least one set-up ran")
}

/// Run whole passes until the window has elapsed (one pass in smoke
/// mode); returns the window's wall seconds.
fn passes(s: &Settings, mut pass: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for p in 0.. {
        pass(p);
        if s.smoke || start.elapsed().as_secs_f64() >= s.seconds {
            break;
        }
    }
    start.elapsed().as_secs_f64()
}

/// Apply `f` to every item on two worker threads (closed loop: a worker
/// takes the next item when its last one finishes); results in item
/// order.
fn on_two_workers<T: Sync, R: Send>(items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|sc| {
        for _ in 0..2 {
            sc.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(i, item);
                done.lock()
                    .expect("no worker panics holding it")
                    .push((i, r));
            });
        }
    });
    let mut done = done.into_inner().expect("workers joined");
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// A run's outcome, with a degraded run turned into a failure: no
/// benchmark input should leave the compiled path.
fn checked(out: Result<RunOutcome, AccMoSError>) -> Result<RunOutcome, String> {
    let out = out.map_err(|e| e.to_string())?;
    match &out.fallback_reason {
        Some(why) => Err(format!("degraded to the interpreter: {why}")),
        None => Ok(out),
    }
}

fn steps_ok(fp: Fingerprint, want: u64) -> Result<Fingerprint, String> {
    if fp.steps == want {
        Ok(fp)
    } else {
        Err(format!("ran {} of {want} steps", fp.steps))
    }
}

fn hit_ratio(before: CacheStats, after: CacheStats) -> f64 {
    let hits = after.hits - before.hits;
    let lookups = hits + after.misses - before.misses;
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}

fn start_replay(s: &Settings, workload: &str) -> Option<(Replay, u64)> {
    let tracer = s.tracer.as_ref()?;
    let tid = spec::WORKLOADS
        .iter()
        .position(|(w, _)| *w == workload)
        .unwrap_or(0) as u64
        + 1;
    let at = tracer.now_us();
    Some((Replay::new(tracer.clone(), tid), at))
}

fn cold_suite(s: &Settings, z: &Sizes, oracle: &mut Oracle, t: &mut Tally) {
    let subjects = make_subjects(s, &z.cold_models, "cold", z.rows, z.cold_steps);
    let texts = setup(t, z, |_| {
        subjects
            .iter()
            .map(|x| accmos::write_mdlx(&x.model))
            .collect::<Vec<String>>()
    });
    let order = order(s.seed, "cold/order", subjects.len());
    let mut results = Vec::new();
    let wall = passes(s, |p| {
        let pass: Vec<usize> = (0..order.len())
            .map(|k| order[(k + p) % order.len()])
            .collect();
        let ops = on_two_workers(&pass, |k, &i| {
            let x = &subjects[i];
            let state = s.work.join(format!("cold-{p}-{k}"));
            let start = Instant::now();
            let got = accmos::parse_mdlx(&texts[i])
                .map_err(|e| e.to_string())
                .and_then(|model| {
                    let pipeline = AccMoS::new().with_cache(BuildCache::at(&state));
                    checked(pipeline.run(&model, z.cold_steps, &x.tests, &RunOptions::default()))
                });
            let dur = start.elapsed();
            let _ = std::fs::remove_dir_all(&state);
            (i, dur, got.map(|out| Fingerprint::of(&out.report)))
        });
        for (i, dur, got) in ops {
            t.op(subjects[i].name, dur);
            results.push((i, got));
        }
    });
    t.ops_s = results.len() as f64 / wall;
    for (i, got) in &results {
        let want = oracle.expect(&subjects[*i].key);
        t.settle(subjects[*i].name, got, Some(&want));
    }

    // The replay covers every model, so `cc_exe_s.<MODEL>` includes the
    // three the measured window leaves to the warm workloads' set-up.
    let Some((mut r, at)) = start_replay(s, "cold_suite") else {
        return;
    };
    for (k, x) in make_subjects(s, &z.models, "cold", z.rows, z.cold_steps)
        .iter()
        .enumerate()
    {
        let state = s.work.join(format!("cold-replay-{k}"));
        let text = accmos::write_mdlx(&x.model);
        let want = oracle.expect(&x.key);
        r.op(x.name, Some(&want), |r| {
            let model = r
                .layer("parse", || accmos::parse_mdlx(&text))
                .map_err(|e| e.to_string())?;
            let pre = r
                .layer("preprocess", || accmos::preprocess(&model))
                .map_err(|e| e.to_string())?;
            let program = r.codegen(&pre);
            let sim = r.compile(&replay::compiler(&state)?, &program, x.name)?;
            let report = r.run_exe(&sim, z.cold_steps, &x.tests, x.name);
            sim.clean();
            let report = report?;
            r.ledger(&state, x.name, z.cold_steps)?;
            Ok(Fingerprint::of(&report))
        });
        let _ = std::fs::remove_dir_all(&state);
    }
    r.finish("cold_suite", at);
    t.replay = Some(r);
}

fn long_run(s: &Settings, z: &Sizes, oracle: &mut Oracle, t: &mut Tally) {
    let subjects = make_subjects(s, &z.models, "long", z.rows, z.check_steps);
    let mut errors = Vec::new();
    let dir = setup(t, z, |rep| {
        let dir = s.work.join(format!("long-{rep}"));
        let pipeline = AccMoS::new().with_cache(BuildCache::at(&dir));
        let outcomes = on_two_workers(&subjects, |_, x| match pipeline.prepare(&x.model) {
            Ok(sim) => {
                sim.clean();
                None
            }
            Err(e) => Some(format!("{}: {e}", x.name)),
        });
        errors.extend(outcomes.into_iter().flatten());
        dir
    });
    t.setup_errors(errors);

    let cache = BuildCache::at(&dir);
    let pipeline = AccMoS::new().with_cache(cache.clone());
    let order = order(s.seed, "long/order", subjects.len());
    let mut first: Vec<Option<Fingerprint>> = vec![None; subjects.len()];
    let before = cache.stats();
    let mut ops = 0usize;
    let wall = passes(s, |p| {
        for k in 0..order.len() {
            let i = order[(k + p) % order.len()];
            let x = &subjects[i];
            let start = Instant::now();
            let out =
                checked(pipeline.run(&x.model, z.long_steps, &x.tests, &RunOptions::default()));
            t.op(x.name, start.elapsed());
            ops += 1;
            let got = out.and_then(|out| {
                t.retries += u64::from(out.retries);
                steps_ok(Fingerprint::of(&out.report), z.long_steps)
            });
            if let (Ok(fp), None) = (&got, &first[i]) {
                first[i] = Some(fp.clone());
            }
            // Every pass must reproduce the model's first long run.
            t.settle(x.name, &got, first[i].as_ref());
        }
    });
    t.ops_s = ops as f64 / wall;
    t.cache_hit_ratio = hit_ratio(before, cache.stats());
    // The long runs are too long to interpret; the same cached
    // executable is checked against the interpreter on a prefix instead.
    for x in &subjects {
        let got = checked(pipeline.run(&x.model, z.check_steps, &x.tests, &RunOptions::default()))
            .map(|out| Fingerprint::of(&out.report));
        t.attempted += 1;
        t.settle(
            &format!("{} prefix", x.name),
            &got,
            Some(&oracle.expect(&x.key)),
        );
    }

    let Some((mut r, at)) = start_replay(s, "long_run") else {
        return;
    };
    match replay::compiler(&dir) {
        Err(e) => r.failures.push(e),
        Ok(compiler) => {
            for &i in &order {
                let x = &subjects[i];
                r.op(x.name, first[i].as_ref(), |r| {
                    let pre = r
                        .layer("preprocess", || accmos::preprocess(&x.model))
                        .map_err(|e| e.to_string())?;
                    let program = r.codegen(&pre);
                    let sim = r.compile(&compiler, &program, x.name)?;
                    let report = r.run_exe(&sim, z.long_steps, &x.tests, x.name);
                    sim.clean();
                    let report = report?;
                    r.ledger(&dir, x.name, z.long_steps)?;
                    Ok(Fingerprint::of(&report))
                });
            }
        }
    }
    r.finish("long_run", at);
    t.replay = Some(r);
}

fn sse_baseline(s: &Settings, z: &Sizes, t: &mut Tally) {
    let subjects = make_subjects(s, &z.models, "sse", z.rows, z.sse_steps);
    let pres = setup(t, z, |_| {
        subjects
            .iter()
            .map(|x| accmos::preprocess(&x.model).expect("benchmark model preprocesses"))
            .collect::<Vec<_>>()
    });
    let order = order(s.seed, "sse/order", subjects.len());
    let opts = SimOptions::steps(z.sse_steps);
    let mut first: Vec<Option<Fingerprint>> = vec![None; subjects.len()];
    let mut ops = 0usize;
    let wall = passes(s, |p| {
        for k in 0..order.len() {
            let i = order[(k + p) % order.len()];
            let x = &subjects[i];
            let start = Instant::now();
            let report = NormalEngine::new().run(&pres[i], &x.tests, &opts);
            t.op(x.name, start.elapsed());
            ops += 1;
            let got = steps_ok(Fingerprint::of(&report), z.sse_steps);
            if let (Ok(fp), None) = (&got, &first[i]) {
                first[i] = Some(fp.clone());
            }
            t.settle(x.name, &got, first[i].as_ref());
        }
    });
    t.ops_s = ops as f64 / wall;
    // The interpreter is its own reference; cross-check it against the
    // independent accelerator-mode interpreter on digest and steps.
    for (i, x) in subjects.iter().enumerate() {
        let ac = AcceleratorEngine::new().run(&pres[i], &x.tests, &opts);
        let got = Ok(Fingerprint {
            digest: ac.output_digest,
            steps: ac.steps,
            detail: None,
        });
        t.attempted += 1;
        t.settle(&format!("{} sse-ac", x.name), &got, first[i].as_ref());
    }

    let Some((mut r, at)) = start_replay(s, "sse_baseline") else {
        return;
    };
    for &i in &order {
        let x = &subjects[i];
        r.op(x.name, first[i].as_ref(), |r| {
            let pre = r
                .layer("preprocess", || accmos::preprocess(&x.model))
                .map_err(|e| e.to_string())?;
            let tests = r.layer("stimulus", || random_tests(&pre, z.rows, x.key.seed));
            let start = Instant::now();
            let report = r.layer("interp", || NormalEngine::new().run(&pre, &tests, &opts));
            r.note_interp(x.name, start.elapsed(), report.steps);
            Ok(Fingerprint::of(&report))
        });
    }
    r.finish("sse_baseline", at);
    t.replay = Some(r);
}

/// An in-process serve daemon and one client connection to it. Dropping
/// it hangs up and stops the daemon (draining its queue).
struct Daemon {
    handle: Option<ServeHandle>,
    conn: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Daemon {
    fn start(state: &Path, socket: &Path, cache: &BuildCache) -> std::io::Result<Daemon> {
        let pipeline = AccMoS::new().with_cache(cache.clone());
        std::fs::create_dir_all(state)?;
        let handle = ServeHandle::start(
            ServeConfig::new(socket)
                .with_workers(2)
                .with_pipeline(pipeline),
        )?;
        let conn = UnixStream::connect(socket)?;
        conn.set_read_timeout(Some(Duration::from_secs(120)))?;
        let reader = BufReader::new(conn.try_clone()?);
        Ok(Daemon {
            handle: Some(handle),
            conn,
            reader,
        })
    }

    fn submit(&mut self, model: &str, steps: u64, rows: usize, seed: u64) -> std::io::Result<()> {
        let line = format!(
            "{{\"op\":\"submit\",\"model\":\"bench:{model}\",\"steps\":{steps},\"lanes\":1,\
             \"rows\":{rows},\"seed\":{seed}}}\n"
        );
        self.conn.write_all(line.as_bytes())
    }

    /// The next event; an error on a timeout, hang-up or garbled line.
    fn event(&mut self) -> Result<Fields, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon hung up".into()),
            Ok(_) => parse_flat_object(&line).ok_or_else(|| format!("garbled event {line:?}")),
            Err(e) => Err(format!("reading events: {e}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.conn.shutdown(std::net::Shutdown::Both);
        if let Some(handle) = self.handle.take() {
            handle.stop();
        }
    }
}

/// A finished job's fingerprint from its `done` event; anything but an
/// in-process success is a failure.
fn done_fingerprint(ev: &Fields, steps: u64) -> Result<Fingerprint, String> {
    let outcome = ev.str("outcome").unwrap_or_default();
    let engine = ev.str("engine").unwrap_or_default();
    if outcome != "ok" || engine != "accmos-dylib" {
        return Err(format!(
            "{outcome} on {engine}: {}",
            ev.str("note").unwrap_or_default()
        ));
    }
    let digest = ev
        .str("digest")
        .and_then(|d| u64::from_str_radix(&d, 16).ok())
        .ok_or("done event without a digest")?;
    let fp = Fingerprint {
        digest,
        steps: ev.num("steps").unwrap_or(0),
        detail: None,
    };
    steps_ok(fp, steps)
}

fn serve_burst(s: &Settings, z: &Sizes, oracle: &mut Oracle, t: &mut Tally) {
    let subjects = make_subjects(s, &z.models, "serve/warm", z.job_rows, z.job_steps);
    let mut errors = Vec::new();
    let (daemon, state, cache) = setup(t, z, |rep| {
        let state = s.work.join(format!("serve-{rep}"));
        let cache = BuildCache::at(&state);
        let socket = PathBuf::from(format!("serve-{rep}.sock"));
        let daemon = Daemon::start(&state, &socket, &cache).and_then(|mut d| {
            for x in &subjects {
                d.submit(x.name, z.job_steps, z.job_rows, x.key.seed)?;
            }
            Ok(d)
        });
        let mut daemon = match daemon {
            Ok(d) => Some(d),
            Err(e) => {
                errors.push(format!("daemon start: {e}"));
                None
            }
        };
        let mut done = 0;
        while let Some(d) = daemon.as_mut().filter(|_| done < subjects.len()) {
            match d.event() {
                Ok(ev) if ev.str("event").as_deref() == Some("done") => {
                    done += 1;
                    if let Err(e) = done_fingerprint(&ev, z.job_steps) {
                        errors.push(format!("warm-up job: {e}"));
                    }
                }
                Ok(ev) if ev.str("event").as_deref() == Some("queued") => {}
                Ok(ev) => errors.push(format!("unexpected event {:?}", ev.str("event"))),
                Err(e) => {
                    errors.push(e);
                    break;
                }
            }
        }
        (daemon, state, cache)
    });
    t.setup_errors(errors);
    let Some(mut daemon) = daemon else { return };

    struct Job {
        subject: usize,
        seed: u64,
        sent: Instant,
        sampled: bool,
    }
    let order = order(s.seed, "serve/order", subjects.len());
    let mut unacked = std::collections::VecDeque::new();
    let mut inflight: BTreeMap<String, Job> = BTreeMap::new();
    let (mut acks, mut done_at, mut samples) = (Vec::new(), Vec::new(), Vec::new());
    let before = cache.stats();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(s.seconds);
    let mut next = 0u64;
    let mut submit = |d: &mut Daemon, unacked: &mut std::collections::VecDeque<Job>| {
        let j = next;
        next += 1;
        let subject = order[(j % order.len() as u64) as usize];
        let seed = stream(s.seed, "serve/job", j);
        let sampled =
            j < z.sample_window && stream(s.seed, "serve/sample", j).is_multiple_of(z.sample_mod);
        unacked.push_back(Job {
            subject,
            seed,
            sent: Instant::now(),
            sampled,
        });
        d.submit(subjects[subject].name, z.job_steps, z.job_rows, seed)
            .map_err(|e| e.to_string())
    };
    // Closed loop, two jobs outstanding: a job is submitted only when
    // one finishes.
    let mut failure = None;
    for _ in 0..2 {
        if let Err(e) = submit(&mut daemon, &mut unacked) {
            failure = Some(e);
        }
    }
    while failure.is_none() && !(unacked.is_empty() && inflight.is_empty()) {
        let ev = match daemon.event() {
            Ok(ev) => ev,
            Err(e) => {
                failure = Some(e);
                break;
            }
        };
        let id = ev.str("job").unwrap_or_default();
        match ev.str("event").as_deref() {
            Some("queued") => {
                let Some(job) = unacked.pop_front() else {
                    failure = Some("acknowledgement for a job never sent".into());
                    break;
                };
                acks.push(job.sent.elapsed().as_secs_f64() * 1e3);
                inflight.insert(id, job);
            }
            Some("done") => {
                let Some(job) = inflight.remove(&id) else {
                    failure = Some(format!("done event for unknown job {id}"));
                    break;
                };
                let x = &subjects[job.subject];
                t.op(x.name, job.sent.elapsed());
                done_at.push(start.elapsed().as_secs_f64());
                let got = done_fingerprint(&ev, z.job_steps);
                if job.sampled && got.is_ok() {
                    let key = Key {
                        model: x.name.to_string(),
                        seed: job.seed,
                        rows: z.job_rows,
                        steps: z.job_steps,
                    };
                    samples.push((key, got));
                } else {
                    t.settle(x.name, &got, None);
                }
                if Instant::now() < deadline {
                    if let Err(e) = submit(&mut daemon, &mut unacked) {
                        failure = Some(e);
                    }
                }
            }
            other => failure = Some(format!("unexpected event {other:?}")),
        }
    }
    if let Some(e) = failure {
        t.attempted += 1;
        t.fail(&format!("serve client: {e}"));
    }
    let end = done_at.last().copied().unwrap_or(0.0) + 1e-9;
    t.ops_s = stats::subwindow_throughput(&done_at, 0.0, end, 5);
    t.ack_ms = if acks.is_empty() { 0.0 } else { median(&acks) };
    t.cache_hit_ratio = hit_ratio(before, cache.stats());
    drop(daemon);
    for (key, got) in &samples {
        let want = oracle.expect(key);
        t.settle(&key.model, got, Some(&want));
    }

    let Some((mut r, at)) = start_replay(s, "serve_burst") else {
        return;
    };
    match replay::compiler(&state) {
        Err(e) => r.failures.push(e),
        Ok(compiler) => {
            let deadline = ExecPolicy::default().kill_timeout;
            for j in 0..z.replay_jobs as u64 {
                let x = &subjects[order[(j % order.len() as u64) as usize]];
                let seed = stream(s.seed, "serve/replay", j);
                r.op(x.name, None, |r| {
                    let pre = r
                        .layer("preprocess", || accmos::preprocess(&x.model))
                        .map_err(|e| e.to_string())?;
                    let (tests, lane_tests) = r.layer("stimulus", || {
                        accmos::fuzz::lane_stimulus(&pre, z.job_rows, seed, 1)
                    });
                    let program = r.codegen(&pre);
                    let dylib = r.compile_shared(&compiler, &program)?;
                    let opts = RunOptions {
                        lane_tests,
                        ..RunOptions::default()
                    };
                    let at = r.now_us();
                    let begin = Instant::now();
                    let run =
                        DylibRunner::for_dylib(&dylib).run(z.job_steps, &tests, &opts, deadline);
                    let wall = begin.elapsed();
                    dylib.clean();
                    let run = run.map_err(|e| e.to_string())?;
                    r.dylib_split(at, wall, run.wall, run.report.wall);
                    r.note_loop(x.name, run.report.wall, run.report.steps);
                    r.ledger(&state, x.name, z.job_steps)?;
                    steps_ok(Fingerprint::of(&run.report), z.job_steps)
                });
            }
        }
    }
    r.finish("serve_burst", at);
    t.replay = Some(r);
}

fn batch_sweep(s: &Settings, z: &Sizes, oracle: &mut Oracle, t: &mut Tally) {
    let subjects = make_subjects(s, &z.models, "batch/warm", z.job_rows, z.job_steps);
    let mut errors = Vec::new();
    let (runner, state, cache) = setup(t, z, |rep| {
        let state = s.work.join(format!("batch-{rep}"));
        let cache = BuildCache::at(&state);
        let runner = BatchRunner::new(AccMoS::new().with_cache(cache.clone())).with_workers(2);
        let jobs = subjects
            .iter()
            .map(|x| BatchJob::model(x.name, x.model.clone(), x.tests.clone(), z.job_steps))
            .collect();
        match runner.run(jobs) {
            Err(e) => errors.push(e.to_string()),
            Ok(report) => {
                for job in report.jobs {
                    if let Some(why) = job.fallback_reason {
                        errors.push(format!("{}: degraded: {why}", job.label));
                    } else if let Err(e) = job.report {
                        errors.push(format!("{}: {e}", job.label));
                    }
                }
            }
        }
        (runner, state, cache)
    });
    t.setup_errors(errors);

    let order = order(s.seed, "batch/order", subjects.len());
    let mut rates = Vec::new();
    let mut samples = Vec::new();
    let before = cache.stats();
    passes(s, |round| {
        let plan: Vec<(usize, u64)> = (0..z.batch_jobs as u64)
            .map(|k| {
                let subject = order[(k % order.len() as u64) as usize];
                (
                    subject,
                    stream(s.seed, "batch/job", (round as u64) << 32 | k),
                )
            })
            .collect();
        let jobs: Vec<BatchJob> = plan
            .iter()
            .map(|&(i, seed)| {
                let x = &subjects[i];
                let tests = random_tests(&x.pre, z.job_rows, seed);
                BatchJob::model(x.name, x.model.clone(), tests, z.job_steps)
            })
            .collect();
        let start = Instant::now();
        let report = runner.run(jobs);
        let wall = start.elapsed().as_secs_f64();
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                t.attempted += plan.len() as u64;
                for _ in &plan {
                    t.fail(&format!("batch round {round}: {e}"));
                }
                return;
            }
        };
        rates.push(plan.len() as f64 / wall);
        t.retries += report.summary.retries;
        for (k, (&(i, seed), job)) in plan.iter().zip(report.jobs).enumerate() {
            let x = &subjects[i];
            t.op(x.name, job.run_time);
            let got = match (job.fallback_reason, job.report) {
                (Some(why), _) => Err(format!("degraded to the interpreter: {why}")),
                (None, Err(e)) => Err(e.to_string()),
                (None, Ok(report)) => steps_ok(Fingerprint::of(&report), z.job_steps),
            };
            let k = k as u64;
            let sampled = round == 0
                && k < z.sample_window
                && stream(s.seed, "batch/sample", k).is_multiple_of(z.sample_mod);
            if sampled && got.is_ok() {
                let key = Key {
                    model: x.name.to_string(),
                    seed,
                    rows: z.job_rows,
                    steps: z.job_steps,
                };
                samples.push((key, got));
            } else {
                t.settle(x.name, &got, None);
            }
        }
    });
    t.ops_s = median(&rates);
    t.cache_hit_ratio = hit_ratio(before, cache.stats());
    for (key, got) in &samples {
        let want = oracle.expect(key);
        t.settle(&key.model, got, Some(&want));
    }

    let Some((mut r, at)) = start_replay(s, "batch_sweep") else {
        return;
    };
    match replay::compiler(&state) {
        Err(e) => r.failures.push(e),
        Ok(compiler) => {
            for j in 0..z.replay_jobs as u64 {
                let x = &subjects[order[(j % order.len() as u64) as usize]];
                let seed = stream(s.seed, "batch/replay", j);
                r.op(x.name, None, |r| {
                    let pre = r
                        .layer("preprocess", || accmos::preprocess(&x.model))
                        .map_err(|e| e.to_string())?;
                    let tests = r.layer("stimulus", || random_tests(&pre, z.job_rows, seed));
                    let program = r.codegen(&pre);
                    let sim = r.compile(&compiler, &program, x.name)?;
                    let report = r.run_exe(&sim, z.job_steps, &tests, x.name);
                    sim.clean();
                    let report = report?;
                    r.ledger(&state, x.name, z.job_steps)?;
                    steps_ok(Fingerprint::of(&report), z.job_steps)
                });
            }
        }
    }
    r.finish("batch_sweep", at);
    t.replay = Some(r);
}

/// Geometric mean over models of each model's fastest operation. On a
/// shared host, neighbours slow whole stretches of a run by up to 2x; the
/// fastest of many operations is what a code change moves.
fn geomean_of_mins(per_model: &BTreeMap<String, Vec<f64>>) -> f64 {
    if per_model.is_empty() {
        return 0.0;
    }
    stats::geo_mean(
        per_model
            .values()
            .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min)),
    )
}

/// Peak resident set of this process (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run workload `name` and assemble its result: end-to-end metrics, or
/// per-layer metrics when `s.tracer` is set.
///
/// # Panics
///
/// Panics on an unknown workload name (the CLI validates it first).
pub fn run(name: &str, s: &Settings, z: &Sizes, oracle: &mut Oracle) -> RunResult {
    let mut t = Tally::default();
    match name {
        "cold_suite" => cold_suite(s, z, oracle, &mut t),
        "long_run" => long_run(s, z, oracle, &mut t),
        "sse_baseline" => sse_baseline(s, z, &mut t),
        "serve_burst" => serve_burst(s, z, oracle, &mut t),
        "batch_sweep" => batch_sweep(s, z, oracle, &mut t),
        other => panic!("unknown workload `{other}`"),
    }
    let rss = peak_rss_mb();
    for (model, ms) in &t.op_ms {
        let min = ms.iter().copied().fold(f64::INFINITY, f64::min);
        eprintln!(
            "{name} {model}: min {min:.3} ms, median {:.3} ms over {} op(s)",
            median(ms),
            ms.len()
        );
    }
    if let Some(r) = t.replay.take() {
        for f in &r.failures {
            t.attempted += 1;
            t.fail(f);
        }
        t.attempted += r.ops().saturating_sub(r.failures.len()) as u64;
        t.replay = Some(r);
    }
    let mut values: Vec<(String, f64)> = match &t.replay {
        None => vec![
            ("setup_s".into(), median(&t.setup_s)),
            ("op_min_ms".into(), geomean_of_mins(&t.op_ms)),
        ],
        Some(r) => layer_metrics(r, &t, oracle, rss),
    };
    let mut correct = t.failed == 0 && t.attempted > 0;
    for (metric, v) in &mut values {
        if !v.is_finite() {
            eprintln!("perfbench: {metric} is not a number");
            correct = false;
            *v = 0.0;
        }
    }
    let defs = if t.replay.is_some() {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    let metrics = defs
        .into_iter()
        .map(|d| {
            let v = values
                .iter()
                .find(|(n, _)| *n == d.name)
                .map_or(0.0, |(_, v)| *v);
            (d.name, v, d.unit.to_string())
        })
        .collect();
    RunResult {
        workload: name.to_string(),
        seed: s.seed,
        trace: t.replay.is_some(),
        correct,
        attempted: t.attempted.max(1),
        failed: t.failed,
        metrics,
    }
}

fn layer_metrics(r: &Replay, t: &Tally, oracle: &Oracle, rss: f64) -> Vec<(String, f64)> {
    let mut v: Vec<(String, f64)> = LAYERS
        .iter()
        .map(|l| (format!("{l}_ms"), r.layer_ms(l)))
        .collect();
    let (proven, c_kb) = r.program_means();
    let untraced = geomean_of_medians(&t.op_ms);
    // Per model the replay and the window both ran: median replayed op
    // over median untraced op.
    let ratios: Vec<f64> = r
        .op_ms
        .iter()
        .filter_map(|(m, traced)| Some(median(traced) / median(t.op_ms.get(m)?)))
        .collect();
    let overhead = match stats::geo_mean(ratios) {
        g if g.is_finite() => (g - 1.0) * 100.0,
        _ => 0.0,
    };
    let pooled: Vec<f64> = t.op_ms.values().flatten().copied().collect();
    let (tail_pct, tail_ms) = stats::tail(&pooled).unwrap_or((0.0, 0.0));
    v.extend([
        ("op_p50_ms".into(), untraced),
        ("ops_s".into(), t.ops_s),
        ("peak_rss_mb".into(), rss),
        ("proven_sites".into(), proven),
        ("c_kb".into(), c_kb),
        ("report_kb".into(), r.report_kb()),
        ("cache_hit_ratio".into(), t.cache_hit_ratio),
        ("retries".into(), t.retries as f64),
        ("loop_ns_per_step".into(), geomean_of_medians(&r.loop_ns)),
        (
            "interp_ns_per_step".into(),
            geomean_of_medians(&r.interp_ns),
        ),
        ("cc_share_pct".into(), r.share_pct(&["cc_exe", "cc_so"])),
        ("loop_share_pct".into(), r.share_pct(&["loop"])),
        ("trace_overhead_pct".into(), overhead),
        ("tail_ms".into(), tail_ms),
        ("tail_pct".into(), tail_pct),
        ("samples".into(), pooled.len() as f64),
        ("ack_ms".into(), t.ack_ms),
        ("oracle_s".into(), oracle.spent().as_secs_f64()),
    ]);
    for (model, s) in &r.cc_exe_s {
        v.push((format!("cc_exe_s.{model}"), *s));
    }
    for (model, ns) in &r.loop_ns {
        v.push((format!("loop_ns_per_step.{model}"), median(ns)));
    }
    v
}

/// Every oracle key `workload` checks at `seed` (what `--pin` pins).
/// Serve and batch jobs are sampled from the first `sample_window`
/// jobs, so the pinned set covers every sample a run can draw.
pub fn oracle_keys(workload: &str, s: &Settings, z: &Sizes) -> Vec<Key> {
    let n = z.models.len() as u64;
    let job_key = |tag: &str, order: &[usize], j: u64, seed: u64| Key {
        model: z.models[order[(j % n) as usize]].to_string(),
        seed: stream(s.seed, tag, seed),
        rows: z.job_rows,
        steps: z.job_steps,
    };
    match workload {
        // Every model: the traced replay compiles all of them cold.
        "cold_suite" => make_subjects(s, &z.models, "cold", z.rows, z.cold_steps)
            .into_iter()
            .map(|x| x.key)
            .collect(),
        "long_run" => make_subjects(s, &z.models, "long", z.rows, z.check_steps)
            .into_iter()
            .map(|x| x.key)
            .collect(),
        "serve_burst" => {
            let order = order(s.seed, "serve/order", z.models.len());
            (0..z.sample_window)
                .filter(|&j| stream(s.seed, "serve/sample", j).is_multiple_of(z.sample_mod))
                .map(|j| job_key("serve/job", &order, j, j))
                .collect()
        }
        "batch_sweep" => {
            let order = order(s.seed, "batch/order", z.models.len());
            (0..z.sample_window.min(z.batch_jobs as u64))
                .filter(|&k| stream(s.seed, "batch/sample", k).is_multiple_of(z.sample_mod))
                .map(|k| job_key("batch/job", &order, k, k))
                .collect()
        }
        _ => Vec::new(),
    }
}
