//! Supervised execution of generated simulators.
//!
//! The compiled simulator is an *untrusted artifact*: it is machine-written
//! C, compiled moments ago, and run at 50M-step scale. A bare
//! `Command::output()` gives it unlimited wall-clock time and unlimited
//! output, and reduces every failure to "non-zero exit". This module
//! treats the generated binary as its own fault domain:
//!
//! - [`ExecPolicy`] bounds each job — a hard kill timeout (distinct from
//!   the simulator's own cooperative `--budget-ms`) and a retry budget
//!   with exponential backoff; the backoff's deterministic SplitMix64
//!   jitter and the cap on captured output bytes are constants;
//! - [`Supervisor`] spawns the simulator and, on the thread that runs the
//!   attempt, polls its stdout, its stderr and a pidfd of the child with
//!   the rest of the caller's kill deadline as the timeout, killing the
//!   child when it passes; an attempt starts no thread. Every failure is
//!   classified into a [`FailureKind`] so callers can decide
//!   retry-vs-quarantine mechanically, and every attempt is reported to
//!   the caller as an [`Attempt`];
//! - after [`ExecPolicy::quarantine_after`] classified crashes, an
//!   executable is **quarantined**: the supervisor refuses to run it again
//!   and callers (the batch runner, the pipeline facade) fall back to the
//!   interpretive engine instead.

use crate::error::BackendError;
use crate::protocol::parse_report;
use crate::run::{fold_lanes, prepare_command, run_lanes};
use crate::telemetry::{self, Fields, JsonObject, Record, Store};
use accmos_ir::{SimulationReport, TestVectors};
use accmos_testgen::TestRng;
use std::collections::HashMap;
use std::ffi::{c_int, c_long, c_short, c_ulong};
use std::fmt;
use std::fs::File;
use std::io::{ErrorKind, Read};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Why a supervised simulator run failed.
///
/// The taxonomy is deliberately small and mechanical: each kind maps to
/// one recovery decision ([`FailureKind::is_retryable`]), so a scheduler
/// never has to parse error strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The process outlived its kill deadline and was killed. Not
    /// retried: the wall-clock budget is already spent.
    Timeout,
    /// The process died on a signal (SIGSEGV, SIGABRT, ...). Retried, and
    /// counted toward quarantine.
    Crashed {
        /// The terminating signal number (0 when the platform does not
        /// report signals).
        signal: i32,
    },
    /// The process exited with a non-zero status code. Retried: generated
    /// simulators exit non-zero on transient environment trouble (missing
    /// test-vector file, ulimit) as well as deterministic bugs.
    NonZeroExit {
        /// The exit code.
        code: i32,
    },
    /// The process exited successfully but its `ACCMOS:` stream did not
    /// parse (garbled or truncated). Not retried: protocol corruption is
    /// deterministic for a given binary and stimulus.
    ProtocolCorrupt,
    /// The process could not be spawned or its pipes failed. Retried.
    TransientIo,
}

impl FailureKind {
    /// Number of failure kinds, for [`FailureKind::index`]-indexed tallies.
    pub const COUNT: usize = 5;

    /// A stable ordinal for per-kind tallies (`0..COUNT`).
    pub fn index(self) -> usize {
        match self {
            FailureKind::Timeout => 0,
            FailureKind::Crashed { .. } => 1,
            FailureKind::NonZeroExit { .. } => 2,
            FailureKind::ProtocolCorrupt => 3,
            FailureKind::TransientIo => 4,
        }
    }

    /// Short label for the kind at ordinal `i`, for telemetry tables.
    pub fn label(i: usize) -> &'static str {
        ["timeout", "crash", "exit", "protocol", "io"][i]
    }

    /// Whether the supervisor should retry after this failure.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            FailureKind::Crashed { .. }
                | FailureKind::NonZeroExit { .. }
                | FailureKind::TransientIo
        )
    }

    /// Whether this failure counts toward quarantining the executable.
    pub fn is_crash(self) -> bool {
        matches!(self, FailureKind::Crashed { .. })
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Timeout => write!(f, "timeout"),
            FailureKind::Crashed { signal } => write!(f, "crashed on signal {signal}"),
            FailureKind::NonZeroExit { code } => write!(f, "exit code {code}"),
            FailureKind::ProtocolCorrupt => write!(f, "protocol corrupt"),
            FailureKind::TransientIo => write!(f, "transient i/o failure"),
        }
    }
}

/// Ceiling on the exponential retry backoff, jitter included.
const MAX_BACKOFF: Duration = Duration::from_secs(1);
/// Seed of the deterministic SplitMix64 backoff jitter. The jitter stream
/// is a pure function of `(seed, exe path, retry)`, so a rerun of the
/// same workload sleeps identically.
const JITTER_SEED: u64 = 0xACC5;
/// Cap on captured stdout bytes; output beyond the cap is drained and
/// discarded (the pipe never blocks the child).
const MAX_OUTPUT_BYTES: usize = 64 * 1024 * 1024;
/// Cap on captured stderr bytes, drained past the cap like stdout.
const MAX_STDERR_BYTES: usize = 64 * 1024;

/// Bounds on one job's simulator execution.
///
/// The defaults are production-lenient (2-minute kill timeout, 2 retries);
/// harnesses and tests tighten them.
#[derive(Debug, Clone)]
pub struct ExecPolicy {
    /// Hard wall-clock deadline of one job — independent of the
    /// simulator's own cooperative `--budget-ms` stop, which a hung or
    /// miscompiled binary never honors. The job executor spends it across
    /// the job's rungs, lanes, attempts and backoff: each runs under what
    /// came before it left. `None` waits forever (the pre-supervision
    /// behavior).
    pub kill_timeout: Option<Duration>,
    /// Number of retries after the first failed attempt (total attempts =
    /// `retries + 1`). Only [`FailureKind::is_retryable`] failures retry.
    pub retries: u32,
    /// Base backoff before the first retry; doubled per retry.
    pub backoff: Duration,
    /// Number of classified crashes after which an executable is
    /// quarantined and refused further runs.
    pub quarantine_after: u32,
}

impl Default for ExecPolicy {
    fn default() -> ExecPolicy {
        ExecPolicy {
            kill_timeout: Some(Duration::from_secs(120)),
            retries: 2,
            backoff: Duration::from_millis(25),
            quarantine_after: 3,
        }
    }
}

impl ExecPolicy {
    /// Builder-style: set the hard kill timeout.
    pub fn with_kill_timeout(mut self, t: Duration) -> ExecPolicy {
        self.kill_timeout = Some(t);
        self
    }

    /// Builder-style: set the retry budget.
    pub fn with_retries(mut self, n: u32) -> ExecPolicy {
        self.retries = n;
        self
    }

    /// Builder-style: set the base backoff duration.
    pub fn with_backoff(mut self, base: Duration) -> ExecPolicy {
        self.backoff = base;
        self
    }

    /// Builder-style: quarantine an executable after `n` crashes (1
    /// minimum).
    pub fn with_quarantine_after(mut self, n: u32) -> ExecPolicy {
        self.quarantine_after = n.max(1);
        self
    }

    /// The backoff before retry number `retry` (1-based) of `exe`:
    /// exponential in the retry index, plus up to 25% deterministic
    /// jitter drawn from a SplitMix64 stream seeded by `(seed, exe,
    /// retry)`. The returned duration — jitter included — never exceeds
    /// 1 s; the run loop sleeps at most this value (less only when the
    /// kill deadline has less left) and reports what it slept in the
    /// next [`Attempt`].
    pub fn backoff_before(&self, exe: &Path, retry: u32) -> Duration {
        let exp = self
            .backoff
            .saturating_mul(1u32 << retry.saturating_sub(1).min(16))
            .min(MAX_BACKOFF);
        let mut rng = TestRng::seed_from_u64(
            JITTER_SEED ^ fnv1a(exe.as_os_str().as_encoded_bytes()) ^ u64::from(retry),
        );
        let jitter_ns = exp.as_nanos() as u64 / 4;
        let jitter = if jitter_ns == 0 { 0 } else { rng.gen_range(0..=jitter_ns) };
        (exp + Duration::from_nanos(jitter)).min(MAX_BACKOFF)
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One attempt the supervisor made at one lane of a run: the backoff it
/// slept first, how long the attempt took and how it ended.
/// [`Supervisor::run`] reports every attempt it makes, whether the run
/// succeeds or fails, so retry counts, backoff totals and trace spans
/// are all derived from the one list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// The attempt's place in its lane: 0 for the first run, `n` for the
    /// `n`-th retry.
    pub n: u32,
    /// Backoff slept just before the attempt (zero for a lane's first).
    pub backoff: Duration,
    /// Wall-clock time from writing the attempt's test-vector file to its
    /// classification.
    pub duration: Duration,
    /// The kill deadline the attempt ran under: what its lane's earlier
    /// attempts and backoff left of the run's (`None` = no deadline).
    pub deadline: Option<Duration>,
    /// Why the attempt failed; `None` when it produced a report.
    pub failure: Option<FailureKind>,
    /// Peak resident set size of its child in KiB: the kernel's
    /// `ru_maxrss`, delivered with the exit status by the `wait4` that
    /// reaps the child (0 when no child was reaped).
    pub peak_rss_kb: u64,
}

impl Attempt {
    /// What `attempts` add up to: the retries among them, the backoff
    /// slept before those, and the peak RSS of the largest successful
    /// child in KiB.
    pub fn tally(attempts: &[Attempt]) -> (u32, Duration, u64) {
        let retries = attempts.iter().filter(|a| a.n > 0).count() as u32;
        let ok = attempts.iter().filter(|a| a.failure.is_none());
        let peak_rss_kb = ok.map(|a| a.peak_rss_kb).max().unwrap_or(0);
        (retries, attempts.iter().map(|a| a.backoff).sum(), peak_rss_kb)
    }
}

/// One line of the persistent quarantine store, `quarantine.jsonl`: the
/// `n`th classified crash of the executable whose identity is `key`. The
/// ordinal makes the line idempotent: replaying it can only confirm that
/// crash `n` happened, never raise the count past `n`.
#[derive(Debug, Clone)]
struct Crash {
    n: u32,
    key: String,
}

impl Record for Crash {
    const FILE_NAME: &'static str = "quarantine.jsonl";

    fn write(&self, out: &mut JsonObject) {
        out.num("ts_ms", telemetry::now_ms()).num("n", self.n).str("key", &self.key);
    }

    fn read(fields: &Fields) -> Option<Crash> {
        let n = u32::try_from(fields.num("n")?).unwrap_or(u32::MAX);
        Some(Crash { n, key: fields.str("key")? })
    }
}

/// Memoized identity of one executable file: `(len, mtime)` validate the
/// cached key, recomputing the content digest only when the file changed.
type IdentityCache = HashMap<PathBuf, (u64, SystemTime, String)>;

/// Runs simulator executables under an [`ExecPolicy`] and tracks per-
/// executable crash counts for quarantine.
///
/// Crash counts are keyed by the executable's **identity** — its path
/// *and* a digest of its bytes — not by path alone. Build directories and
/// cache entries reuse paths across recompiles (and across processes via
/// pid reuse), so a path-keyed registry would let a stale quarantine
/// poison a freshly built artifact: the new binary inherits the old
/// binary's crash count and is refused without ever running. Keying by
/// `(path, digest)` gives a recompiled (content-changed) artifact a clean
/// count, while copies of one binary at different paths still quarantine
/// independently (they may be invoked differently — argv0-dispatched
/// tools exist, our own fault injector among them).
///
/// Cloning the supervisor shares the quarantine registry, so one handle
/// can be distributed across a worker pool. With
/// [`Supervisor::with_state_dir`], crash events also persist to an
/// append-only `quarantine.jsonl` in the state directory, so a second
/// process sharing it inherits the crash counts of executables at stable
/// paths (see there for which ones).
#[derive(Debug, Clone, Default)]
pub struct Supervisor {
    policy: ExecPolicy,
    crashes: Arc<Mutex<HashMap<String, u32>>>,
    identities: Arc<Mutex<IdentityCache>>,
    store: Option<Store<Crash>>,
}

impl Supervisor {
    /// A supervisor enforcing `policy`, with a process-local registry.
    pub fn new(policy: ExecPolicy) -> Supervisor {
        Supervisor {
            policy,
            crashes: Arc::default(),
            identities: Arc::default(),
            store: None,
        }
    }

    /// Builder-style: persist crash counts to `dir/quarantine.jsonl` and
    /// seed the registry from events already recorded there, so a second
    /// process sharing the state (cache) directory inherits quarantine
    /// decisions — for executables at stable paths only, such as a
    /// batch's raw executables and the fuzzer's faultsim copies. A
    /// compiled simulator runs from a build directory made fresh for its
    /// process and build (`accmos-build-<pid>-<n>`), so its identity never
    /// recurs in another process or another `AccMoS::run`. Stale entries
    /// are harmless by construction: they are keyed by content digest, so
    /// a recompiled artifact at the same path never matches them.
    ///
    /// The store reads like every other: torn tails, garbled lines and
    /// lines of another schema are skipped. Each key's count is the
    /// highest crash ordinal recorded for it, so a replayed or duplicated
    /// line can never inflate a crash count into a spurious quarantine.
    pub fn with_state_dir(mut self, dir: impl Into<PathBuf>) -> Supervisor {
        let store = Store::<Crash>::in_dir(dir);
        let mut map: HashMap<String, u32> = HashMap::new();
        for crash in store.read().records {
            let slot = map.entry(crash.key).or_insert(0);
            *slot = (*slot).max(crash.n);
        }
        *self.crashes.lock().expect("crash registry") = map;
        self.store = Some(store);
        self
    }

    /// The identity key of `exe`: `<content-digest>|<path>`, with `-` for
    /// the digest when the file cannot be read (the path alone then
    /// identifies it, matching the old behavior for nonexistent paths).
    /// Digests are memoized and revalidated by `(len, mtime)`, so the
    /// file is only re-hashed after it actually changed.
    fn identity(&self, exe: &Path) -> String {
        let Ok(meta) = std::fs::metadata(exe) else {
            return format!("-|{}", exe.display());
        };
        let len = meta.len();
        let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
        let mut cache = self.identities.lock().expect("identity cache");
        if let Some((l, m, key)) = cache.get(exe) {
            if *l == len && *m == mtime {
                return key.clone();
            }
        }
        let digest = fnv1a(&std::fs::read(exe).unwrap_or_default());
        let key = format!("{digest:016x}|{}", exe.display());
        cache.insert(exe.to_path_buf(), (len, mtime, key.clone()));
        key
    }

    /// Classified crash count of `exe` (its current content) so far.
    pub fn crash_count(&self, exe: &Path) -> u32 {
        let key = self.identity(exe);
        self.crashes.lock().expect("crash registry").get(&key).copied().unwrap_or(0)
    }

    /// Whether `exe` has crashed often enough to be refused further runs.
    pub fn is_quarantined(&self, exe: &Path) -> bool {
        self.crash_count(exe) >= self.policy.quarantine_after
    }

    fn record_crash(&self, exe: &Path) -> u32 {
        let key = self.identity(exe);
        let n = {
            let mut map = self.crashes.lock().expect("crash registry");
            let n = map.entry(key.clone()).or_insert(0);
            *n += 1;
            *n
        };
        if let Some(store) = &self.store {
            // Best-effort: a lost persistence line only costs another
            // crash observation in the next process.
            let _ = store.append(&Crash { n, key });
        }
        n
    }

    /// Run `exe` under the policy, one child per lane: spawn, wait, kill
    /// on deadline, classify failures, retry retryable ones with backoff.
    /// The caller's kill `deadline` (`None` waits forever) bounds all the
    /// lanes, their attempts and their backoff together, and the lanes'
    /// reports fold into one ([`SimulationReport::fold_lanes`]). Test
    /// vectors are written beside `exe`. Every attempt made is appended
    /// to `attempts`, whether the run succeeds or fails: the run's retries
    /// and peak RSS are their [`Attempt::tally`].
    ///
    /// # Errors
    ///
    /// - [`BackendError::Quarantined`] when `exe` is already quarantined;
    /// - [`BackendError::Supervised`] carrying the [`FailureKind`] of the
    ///   last attempt once the retry budget is exhausted (or the failure is
    ///   not retryable), or [`FailureKind::Timeout`] when the deadline
    ///   passed before a lane or an attempt started;
    /// - [`BackendError::Protocol`] when the lanes report different
    ///   coverage points;
    /// - [`BackendError::Io`] when the test-vector file cannot be written.
    pub fn run(
        &self,
        exe: &Path,
        deadline: Option<Duration>,
        steps: u64,
        tests: &TestVectors,
        opts: &crate::RunOptions,
        attempts: &mut Vec<Attempt>,
    ) -> Result<SimulationReport, BackendError> {
        let lanes = run_lanes(exe, steps, tests, opts, deadline, |steps, tests, opts, left| {
            self.run_lane(exe, steps, tests, opts, left, attempts)
        })?;
        fold_lanes(lanes)
    }

    /// One lane of [`Supervisor::run`], whose kill deadline is `kill`.
    /// Each attempt runs under what the lane's earlier attempts and
    /// backoff left of it; one that finds it spent fails with
    /// [`FailureKind::Timeout`] without starting, and the backoff never
    /// sleeps past it.
    fn run_lane(
        &self,
        exe: &Path,
        steps: u64,
        tests: &TestVectors,
        opts: &crate::RunOptions,
        kill: Option<Duration>,
        attempts: &mut Vec<Attempt>,
    ) -> Result<SimulationReport, BackendError> {
        if self.is_quarantined(exe) {
            return Err(BackendError::Quarantined {
                exe: exe.to_path_buf(),
                crashes: self.crash_count(exe),
            });
        }
        let start = Instant::now();
        let left = || kill.map(|k| k.saturating_sub(start.elapsed()));
        let mut n = 0u32;
        let mut backoff = Duration::ZERO;
        loop {
            let attempt_start = Instant::now();
            let deadline = left();
            let (outcome, peak_rss_kb) = if deadline == Some(Duration::ZERO) {
                let spent = format!(
                    "the {:?} kill deadline passed before attempt {n} started",
                    kill.unwrap_or_default()
                );
                (Err((FailureKind::Timeout, spent)), 0)
            } else {
                self.run_once(exe, steps, tests, opts, deadline)?
            };
            attempts.push(Attempt {
                n,
                backoff,
                duration: attempt_start.elapsed(),
                deadline,
                failure: outcome.as_ref().err().map(|(kind, _)| *kind),
                peak_rss_kb,
            });
            let (kind, detail) = match outcome {
                Ok(report) => return Ok(report),
                Err(failure) => failure,
            };
            if kind.is_crash() {
                self.record_crash(exe);
            }
            if n >= self.policy.retries || !kind.is_retryable() || self.is_quarantined(exe) {
                return Err(BackendError::Supervised {
                    exe: exe.to_path_buf(),
                    kind,
                    attempts: n + 1,
                    detail,
                });
            }
            n += 1;
            backoff = self.policy.backoff_before(exe, n);
            if let Some(left) = left() {
                backoff = backoff.min(left);
            }
            std::thread::sleep(backoff);
        }
    }

    /// One attempt: spawn, [`capture`] the child's output while holding
    /// the kill deadline `kill`, reap, classify. The outer `Result` is
    /// for unrecoverable setup errors (the test-vector file cannot be
    /// written); the inner one is the attempt's outcome, paired with the
    /// child's peak RSS in KiB.
    #[allow(clippy::type_complexity)]
    fn run_once(
        &self,
        exe: &Path,
        steps: u64,
        tests: &TestVectors,
        opts: &crate::RunOptions,
        kill: Option<Duration>,
    ) -> Result<(Result<SimulationReport, (FailureKind, String)>, u64), BackendError> {
        let (mut cmd, tc_guard) = prepare_command(exe, steps, tests, opts)?;
        cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::piped());
        let mut child = match spawn(&mut cmd) {
            Ok(c) => c,
            Err(e) => {
                return Ok((Err((FailureKind::TransientIo, format!("spawn failed: {e}"))), 0))
            }
        };
        let captured = capture(&mut child, kill);
        if captured.is_err() {
            let _ = child.kill();
        }
        let reaped = reap(child.id());
        drop(tc_guard);
        let (out, (status, peak_rss)) = match captured.and_then(|out| Ok((out, reaped?))) {
            Ok(done) => done,
            Err(e) => {
                return Ok((Err((FailureKind::TransientIo, format!("wait failed: {e}"))), 0));
            }
        };
        // A child that exited on its own just as the deadline passed was
        // not killed by the supervisor: classify it by its real status.
        let timed_out = out.killed && status.signal() == Some(SIGKILL);
        let [stdout, stderr] = &out.bytes;

        let outcome = if timed_out {
            let t = kill.unwrap_or_default();
            Err((
                FailureKind::Timeout,
                format!(
                    "killed after exceeding the {t:?} supervisor deadline; stdout tail: {}",
                    tail_str(stdout, 512)
                ),
            ))
        } else if !status.success() {
            let kind = match status.signal() {
                Some(signal) => FailureKind::Crashed { signal },
                None => FailureKind::NonZeroExit { code: status.code().unwrap_or(-1) },
            };
            Err((
                kind,
                format!(
                    "{kind}; stderr tail: {}; stdout tail: {}",
                    tail_str(stderr, 1024),
                    tail_str(stdout, 1024)
                ),
            ))
        } else if out.stalled {
            Err((
                FailureKind::ProtocolCorrupt,
                "stdout pipe still open after the process exited (orphaned \
                 child process holding it?); output abandoned"
                    .into(),
            ))
        } else if out.truncated {
            Err((
                FailureKind::ProtocolCorrupt,
                format!(
                    "stdout exceeded the {MAX_OUTPUT_BYTES}-byte output cap; tail: {}",
                    tail_str(stdout, 512)
                ),
            ))
        } else {
            parse_report(&String::from_utf8_lossy(stdout))
                .map_err(|e| (FailureKind::ProtocolCorrupt, e.to_string()))
        };
        Ok((outcome, peak_rss))
    }
}

/// Spawn `cmd`, retrying `ETXTBSY` with a 1→256 ms backoff. A sibling
/// thread forking while this one copied the executable out of the build
/// cache leaves the child holding a write descriptor until it execs, and
/// exec fails in that window. The cause is this process, not the
/// simulator, so it does not use up a policy retry.
fn spawn(cmd: &mut Command) -> std::io::Result<Child> {
    let mut backoff = Duration::from_millis(1);
    loop {
        match cmd.spawn() {
            Err(e) if e.kind() == ErrorKind::ExecutableFileBusy && backoff.as_millis() < 512 => {
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            result => return result,
        }
    }
}

const SIGKILL: i32 = 9;

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

extern "C" {
    fn syscall(number: c_long, ...) -> c_long;
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout_ms: c_int) -> c_int;
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut [i64; 18]) -> c_int;
}

/// Repeat a call (`-1` on error) while a signal interrupts it.
fn retry_eintr(mut call: impl FnMut() -> c_int) -> std::io::Result<()> {
    while call() == -1 {
        let err = std::io::Error::last_os_error();
        if err.kind() != ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

/// A pidfd of child `pid` (`pidfd_open(2)`, Linux ≥ 5.3): it polls
/// readable once the child has exited.
#[allow(unsafe_code)]
fn pidfd_open(pid: u32) -> std::io::Result<OwnedFd> {
    const SYS_PIDFD_OPEN: c_long = 434;
    // SAFETY: `pidfd_open` takes a pid and a flags word and touches no
    // memory of this process.
    let fd = unsafe { syscall(SYS_PIDFD_OPEN, c_long::from(pid as c_int), 0 as c_long) };
    if fd < 0 {
        return Err(std::io::Error::last_os_error());
    }
    // SAFETY: the kernel just opened `fd` for this call; nothing else owns
    // it.
    Ok(unsafe { OwnedFd::from_raw_fd(fd as c_int) })
}

/// Reap child `pid` with one blocking `wait4`: its exit status plus its
/// peak RSS in KiB (`ru_maxrss`, which `Child::wait` would discard). The
/// kernel's high-water mark covers the child's whole life, however short.
#[allow(unsafe_code)]
fn reap(pid: u32) -> std::io::Result<(ExitStatus, u64)> {
    let mut status: c_int = 0;
    // `struct rusage` on 64-bit Linux: two `timeval`s, then `ru_maxrss`.
    let mut ru = [0i64; 18];
    // SAFETY: `status` and `ru` are valid, properly aligned out-pointers
    // of the kernel's sizes for the whole call.
    retry_eintr(|| unsafe { wait4(pid as c_int, &mut status, 0, &mut ru) })?;
    Ok((ExitStatus::from_raw(status), ru[4].max(0) as u64))
}

/// What one attempt's child wrote, and how [`capture`] ended.
#[derive(Default)]
struct Output {
    /// Captured stdout and stderr, at most [`MAX_OUTPUT_BYTES`] and
    /// [`MAX_STDERR_BYTES`].
    bytes: [Vec<u8>; 2],
    /// Stdout passed its cap; the rest was drained and discarded.
    truncated: bool,
    /// Stdout was still open when the grace after the exit ran out.
    stalled: bool,
    /// The kill deadline passed and the child was killed.
    killed: bool,
}

/// Read `child`'s stdout and stderr as they fill while holding its kill
/// deadline `kill`: one `poll(2)` over both pipes and a pidfd of the
/// child, whose timeout is what is left of the deadline. When it passes,
/// the child is killed. Once the pidfd reports the exit, the pipes get a
/// grace to drain — 100 ms after a kill, 2 s after an exit of the child's
/// own, since a simulator that forked can leave an orphan holding them —
/// and are then dropped, so no byte arrives after the capture ends. The
/// child stays unreaped, so the kill can never reach a recycled pid.
#[allow(unsafe_code)]
fn capture(child: &mut Child, kill: Option<Duration>) -> std::io::Result<Output> {
    const POLLIN: c_short = 1;
    let deadline = kill.map(|k| Instant::now() + k);
    let pidfd = pidfd_open(child.id())?;
    let mut pipes = [
        child.stdout.take().map(|p| File::from(OwnedFd::from(p))),
        child.stderr.take().map(|p| File::from(OwnedFd::from(p))),
    ];
    let caps = [MAX_OUTPUT_BYTES, MAX_STDERR_BYTES];
    let mut out = Output::default();
    let mut drained_by: Option<Instant> = None;
    let mut chunk = [0u8; 64 * 1024];
    loop {
        let now = Instant::now();
        let wake = match drained_by {
            Some(_) if pipes.iter().all(Option::is_none) => break,
            Some(end) if end <= now => break,
            Some(end) => Some(end),
            None if out.killed => None,
            None => deadline,
        };
        if wake.is_some_and(|at| at <= now) {
            child.kill()?;
            out.killed = true;
            continue;
        }
        let timeout_ms = wake.map_or(-1, |at| {
            let ms = (at - now).as_nanos().div_ceil(1_000_000);
            c_int::try_from(ms).unwrap_or(c_int::MAX)
        });
        let fd = |f: Option<&File>| f.map_or(-1, File::as_raw_fd);
        let exit_fd = if drained_by.is_some() { -1 } else { pidfd.as_raw_fd() };
        let mut fds = [exit_fd, fd(pipes[0].as_ref()), fd(pipes[1].as_ref())].map(|fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        });
        // SAFETY: `fds` is a valid array of three `pollfd`s for the whole
        // call; negative descriptors are skipped by the kernel.
        if unsafe { poll(fds.as_mut_ptr(), 3, timeout_ms) } < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        }
        if fds[0].revents != 0 {
            let grace = if out.killed { 100 } else { 2000 };
            drained_by = Some(Instant::now() + Duration::from_millis(grace));
        }
        for (i, pipe) in pipes.iter_mut().enumerate() {
            let Some(file) = pipe.as_mut().filter(|_| fds[i + 1].revents != 0) else {
                continue;
            };
            match file.read(&mut chunk) {
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Ok(0) | Err(_) => *pipe = None,
                Ok(n) => {
                    let buf = &mut out.bytes[i];
                    let take = n.min(caps[i].saturating_sub(buf.len()));
                    buf.extend_from_slice(&chunk[..take]);
                    out.truncated |= i == 0 && take < n;
                }
            }
        }
    }
    out.stalled = pipes[0].is_some();
    Ok(out)
}

/// The last `max` bytes of `bytes` as lossy UTF-8 (for error details; keeps
/// crash triage possible without rerunning the simulator).
pub(crate) fn tail_str(bytes: &[u8], max: usize) -> String {
    if bytes.is_empty() {
        return "<empty>".into();
    }
    let start = bytes.len().saturating_sub(max);
    let mut s = String::from_utf8_lossy(&bytes[start..]).into_owned();
    if start > 0 {
        s.insert_str(0, "...");
    }
    s.trim_end().to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_exponential() {
        let policy = ExecPolicy::default();
        let exe = Path::new("/tmp/sim");
        let a = policy.backoff_before(exe, 1);
        let b = policy.backoff_before(exe, 1);
        assert_eq!(a, b, "same (seed, exe, retry) must sleep identically");
        let later = policy.backoff_before(exe, 3);
        assert!(later > a, "backoff grows with the retry index");
        assert!(later <= MAX_BACKOFF, "jitter stays inside the cap");
    }

    #[test]
    fn backoff_never_exceeds_max_backoff_at_the_boundary() {
        // Regression: with the exponential term already at the cap, the
        // 25% jitter used to be added on top, so the real sleep could
        // reach 1.25× the cap. The final duration must be clamped.
        let policy = ExecPolicy { backoff: Duration::from_secs(1), ..ExecPolicy::default() };
        for retry in 1..=10 {
            for exe in ["/tmp/a", "/tmp/b", "/tmp/c", "/tmp/sim-long-name"] {
                let d = policy.backoff_before(Path::new(exe), retry);
                assert!(
                    d <= MAX_BACKOFF,
                    "retry {retry} of {exe}: {d:?} exceeds the {MAX_BACKOFF:?} cap"
                );
            }
        }
        // At the boundary the clamp pins the sleep to exactly the cap
        // (the exponential term alone already reaches it).
        assert_eq!(policy.backoff_before(Path::new("/tmp/a"), 4), MAX_BACKOFF);
        // Below the cap, jitter still spreads sleeps between distinct
        // executables.
        let roomy = ExecPolicy { backoff: Duration::from_millis(10), ..ExecPolicy::default() };
        let a = roomy.backoff_before(Path::new("/tmp/a"), 2);
        let b = roomy.backoff_before(Path::new("/tmp/b"), 2);
        assert_ne!(a, b, "jitter survives the clamp when there is headroom");
    }

    #[test]
    fn retryability_is_mechanical() {
        assert!(!FailureKind::Timeout.is_retryable());
        assert!(!FailureKind::ProtocolCorrupt.is_retryable());
        assert!(FailureKind::Crashed { signal: 11 }.is_retryable());
        assert!(FailureKind::NonZeroExit { code: 3 }.is_retryable());
        assert!(FailureKind::TransientIo.is_retryable());
        assert!(FailureKind::Crashed { signal: 6 }.is_crash());
        assert!(!FailureKind::NonZeroExit { code: 1 }.is_crash());
    }

    #[test]
    fn quarantine_counts_per_executable() {
        let sup = Supervisor::new(ExecPolicy::default().with_quarantine_after(2));
        let a = Path::new("/tmp/a");
        let b = Path::new("/tmp/b");
        assert!(!sup.is_quarantined(a));
        sup.record_crash(a);
        assert!(!sup.is_quarantined(a));
        sup.record_crash(a);
        assert!(sup.is_quarantined(a));
        assert!(!sup.is_quarantined(b), "quarantine is per-executable");
        // Clones share the registry.
        assert!(sup.clone().is_quarantined(a));
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("accmos-supervise-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn recompiled_artifact_starts_with_a_clean_crash_count() {
        // Regression: quarantine used to be keyed by path alone, so a
        // fresh binary installed at a reused path inherited the old
        // binary's crashes and could be refused without ever running.
        let dir = scratch_dir("recompile");
        let exe = dir.join("sim");
        std::fs::write(&exe, b"buggy build").unwrap();
        let sup = Supervisor::new(ExecPolicy::default().with_quarantine_after(2));
        sup.record_crash(&exe);
        sup.record_crash(&exe);
        assert!(sup.is_quarantined(&exe));
        // "Recompile": different bytes land at the same path. (Different
        // length, so the (len, mtime) revalidation can't false-hit on
        // coarse filesystem timestamps.)
        std::fs::write(&exe, b"fixed build, longer").unwrap();
        assert_eq!(sup.crash_count(&exe), 0, "new content, clean slate");
        assert!(!sup.is_quarantined(&exe), "stale quarantine must not poison the rebuild");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn identical_bytes_at_different_paths_quarantine_independently() {
        // Copies of one binary can behave differently (argv0 dispatch —
        // our own fault injector does this), so identity is (path,
        // digest), never digest alone.
        let dir = scratch_dir("copies");
        let a = dir.join("sim-a");
        let b = dir.join("sim-b");
        std::fs::write(&a, b"same bytes").unwrap();
        std::fs::write(&b, b"same bytes").unwrap();
        let sup = Supervisor::new(ExecPolicy::default().with_quarantine_after(1));
        sup.record_crash(&a);
        assert!(sup.is_quarantined(&a));
        assert!(!sup.is_quarantined(&b), "same content, different path, own count");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_persists_across_supervisors_sharing_a_state_dir() {
        let dir = scratch_dir("persist");
        let exe = dir.join("sim");
        std::fs::write(&exe, b"crashy").unwrap();
        let policy = ExecPolicy::default().with_quarantine_after(2);

        // "Process 1" records two crashes.
        let sup1 = Supervisor::new(policy.clone()).with_state_dir(&dir);
        sup1.record_crash(&exe);
        sup1.record_crash(&exe);
        assert!(sup1.is_quarantined(&exe));
        assert!(dir.join(Crash::FILE_NAME).exists(), "crash events persisted");

        // "Process 2" (a fresh supervisor) inherits the quarantine.
        let sup2 = Supervisor::new(policy.clone()).with_state_dir(&dir);
        assert_eq!(sup2.crash_count(&exe), 2, "persisted events loaded");
        assert!(sup2.is_quarantined(&exe));

        // A supervisor without the state dir stays process-local.
        let fresh = Supervisor::new(policy.clone());
        assert!(!fresh.is_quarantined(&exe));

        // Recompiling the artifact clears it even for inherited state:
        // the persisted events name the old digest.
        std::fs::write(&exe, b"rebuilt, different bytes").unwrap();
        let sup3 = Supervisor::new(policy).with_state_dir(&dir);
        assert_eq!(sup3.crash_count(&exe), 0, "persisted quarantine is content-addressed");
        assert!(!sup3.is_quarantined(&exe));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_quarantine_store_lines_are_skipped_on_load() {
        let dir = scratch_dir("torn");
        let exe = dir.join("sim");
        std::fs::write(&exe, b"crashy").unwrap();
        let policy = ExecPolicy::default().with_quarantine_after(1);
        let sup = Supervisor::new(policy.clone()).with_state_dir(&dir);
        sup.record_crash(&exe);
        // A writer died mid-append: torn tail with no newline.
        let store = dir.join(Crash::FILE_NAME);
        let mut contents = std::fs::read(&store).unwrap();
        contents.extend_from_slice(b"{\"schema\":1,\"ts_ms\":12,\"ke");
        std::fs::write(&store, &contents).unwrap();
        let sup2 = Supervisor::new(policy).with_state_dir(&dir);
        assert_eq!(sup2.crash_count(&exe), 1, "complete events survive a torn tail");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicated_quarantine_events_count_once_on_load() {
        // A replayed append (writer crashed after the write but before
        // acknowledging it, then retried) or a copied store leaves
        // byte-identical lines. Counting each line would inflate the
        // crash count and quarantine a binary that crashed once.
        let dir = scratch_dir("dedup");
        let exe = dir.join("sim");
        std::fs::write(&exe, b"crashy").unwrap();
        let policy = ExecPolicy::default().with_quarantine_after(2);
        let sup = Supervisor::new(policy.clone()).with_state_dir(&dir);
        sup.record_crash(&exe);
        let store = dir.join(Crash::FILE_NAME);
        let contents = std::fs::read_to_string(&store).unwrap();
        // Replay the whole store three times over.
        std::fs::write(&store, contents.repeat(3)).unwrap();
        let sup2 = Supervisor::new(policy).with_state_dir(&dir);
        assert_eq!(sup2.crash_count(&exe), 1, "duplicates deduped on load");
        assert!(!sup2.is_quarantined(&exe), "replayed events must not quarantine");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_ordinals_make_the_count_the_max_not_the_line_total() {
        // Two records with distinct timestamps but ordinals 1 and 2 mean
        // "this key has crashed twice", even if more copies of crash #2
        // exist with different ts_ms (e.g. a store concatenated from two
        // backups). max(n) is immune to that; line-counting is not.
        let dir = scratch_dir("ordinal");
        let exe = dir.join("sim");
        std::fs::write(&exe, b"crashy").unwrap();
        let policy = ExecPolicy::default().with_quarantine_after(3);
        let sup = Supervisor::new(policy.clone()).with_state_dir(&dir);
        sup.record_crash(&exe);
        sup.record_crash(&exe);
        let store = dir.join(Crash::FILE_NAME);
        let contents = std::fs::read_to_string(&store).unwrap();
        // Re-stamp the replayed copy so the lines are not byte-identical.
        let restamped: String = contents
            .lines()
            .map(|l| format!("{}\n", l.replace("\"ts_ms\":", "\"ts_ms\":9")))
            .collect();
        std::fs::write(&store, format!("{contents}{restamped}")).unwrap();
        let sup2 = Supervisor::new(policy).with_state_dir(&dir);
        assert_eq!(sup2.crash_count(&exe), 2, "max ordinal, not 4 lines");
        assert!(!sup2.is_quarantined(&exe));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn golden_quarantine_lines_of_the_previous_format_read_back() {
        // Lines as an earlier build wrote them, then a foreign-schema
        // line, a line from before crash ordinals, a garbled line and a
        // torn tail: only the first three count, and a key's count is its
        // highest ordinal.
        let faultsim = "9ce87a26cbf2ee77|/var/cache/accmos/fuzz-bin/faultsim-crash";
        let sim = "0123456789abcdef|/var/cache/accmos/batch/sim";
        let first = format!(r#"{{"schema":1,"ts_ms":1792427961305,"n":1,"key":"{faultsim}"}}"#);
        let lines = [
            first.clone(),
            format!(r#"{{"schema":1,"ts_ms":1792427961368,"n":2,"key":"{faultsim}"}}"#),
            format!(r#"{{"schema":1,"ts_ms":1792427961371,"n":1,"key":"{sim}"}}"#),
            format!(r#"{{"schema":2,"ts_ms":1792427961372,"n":7,"key":"{sim}"}}"#),
            format!(r#"{{"schema":1,"ts_ms":1792427961373,"key":"{sim}"}}"#),
            r#"{"schema":1,"ts_ms":17924279613"#.to_owned(),
        ];
        let dir = scratch_dir("golden");
        let file = dir.join(Crash::FILE_NAME);
        std::fs::write(&file, format!("{}\n{{\"schema\":1,\"n\":3,\"ke", lines.join("\n"))).unwrap();
        let view = Store::<Crash>::in_dir(&dir).read();
        assert_eq!((view.records.len(), view.skipped, view.truncated_tail), (3, 3, true));
        let sup = Supervisor::new(ExecPolicy::default()).with_state_dir(&dir);
        let counts = sup.crashes.lock().unwrap().clone();
        assert_eq!(counts, HashMap::from([(faultsim.to_owned(), 2), (sim.to_owned(), 1)]));

        // A crash is written in the same format.
        std::fs::remove_file(&file).unwrap();
        Store::<Crash>::in_dir(&dir).append(&Crash { n: 1, key: faultsim.into() }).unwrap();
        let written = std::fs::read_to_string(&file).unwrap();
        let ts = |l: &str| l.split(r#""ts_ms":"#).nth(1).and_then(|r| r.split(',').next()).map(str::to_owned);
        let written = written.replacen(&ts(&written).unwrap(), &ts(&first).unwrap(), 1);
        assert_eq!(written, format!("{first}\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failure_kind_ordinals_are_dense_and_labeled() {
        let kinds = [
            FailureKind::Timeout,
            FailureKind::Crashed { signal: 6 },
            FailureKind::NonZeroExit { code: 1 },
            FailureKind::ProtocolCorrupt,
            FailureKind::TransientIo,
        ];
        let mut seen = [false; FailureKind::COUNT];
        for k in kinds {
            assert!(!seen[k.index()], "duplicate ordinal");
            seen[k.index()] = true;
            assert!(!FailureKind::label(k.index()).is_empty());
        }
        assert!(seen.iter().all(|s| *s), "every ordinal covered");
        assert_eq!(FailureKind::label(FailureKind::Crashed { signal: 11 }.index()), "crash");
    }

    #[test]
    fn reap_reports_the_kernels_peak_rss_even_for_instant_children() {
        // `true` exits as fast as a process can; a /proc sample would
        // almost always miss it, but wait4's rusage cannot.
        let pid = Command::new("true").spawn().unwrap().id();
        let (status, rss_kb) = reap(pid).unwrap();
        assert!(status.success());
        assert!(rss_kb > 0, "reap-time ru_maxrss must be non-zero, got {rss_kb}");
    }

    #[test]
    fn tail_keeps_the_end() {
        assert_eq!(tail_str(b"", 8), "<empty>");
        assert_eq!(tail_str(b"hello", 8), "hello");
        assert_eq!(tail_str(b"0123456789", 4), "...6789");
    }
}
