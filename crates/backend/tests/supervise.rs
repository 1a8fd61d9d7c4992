//! Supervisor behavior against misbehaving executables.
//!
//! These tests use tiny shell scripts as stand-ins for generated
//! simulators — each script misbehaves in exactly one way (hang, crash,
//! garbled protocol, non-zero exit, fail-once-then-succeed) so every
//! [`FailureKind`] classification is exercised in isolation. The richer
//! end-to-end scenario (a mixed batch through the `faultsim` binary) lives
//! in the workspace-level `chaos` test.

#![cfg(unix)]

use accmos_backend::{Attempt, BackendError, ExecPolicy, FailureKind, RunOptions, Supervisor};
use accmos_ir::{SimulationReport, TestVectors};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A scratch directory holding one executable script; removed on drop.
struct Scripted {
    dir: PathBuf,
    exe: PathBuf,
}

impl Scripted {
    fn new(tag: &str, body: &str) -> Scripted {
        use std::os::unix::fs::PermissionsExt;
        let dir = std::env::temp_dir().join(format!(
            "accmos-supervise-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let exe = dir.join(format!("sim-{tag}"));
        std::fs::write(&exe, format!("#!/bin/sh\n{body}\n")).unwrap();
        std::fs::set_permissions(&exe, std::fs::Permissions::from_mode(0o755)).unwrap();
        Scripted { dir, exe }
    }
}

impl Drop for Scripted {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A policy fast enough for CI: 200 ms kill deadline, millisecond backoff.
fn fast_policy() -> ExecPolicy {
    ExecPolicy::default()
        .with_kill_timeout(Duration::from_millis(200))
        .with_retries(2)
        .with_backoff(Duration::from_millis(2))
}

const OK_PROTOCOL: &str = "\
echo 'ACCMOS:MODEL fake'
echo 'ACCMOS:STEPS 5'
echo 'ACCMOS:TIME_NS 1000'
echo 'ACCMOS:DIGEST 00000000deadbeef'
echo 'ACCMOS:END'";

fn run(sup: &Supervisor, s: &Scripted) -> Result<SimulationReport, BackendError> {
    sup.run(&s.exe, &s.dir, 5, &TestVectors::new(), &RunOptions::default(), &mut Vec::new())
}

/// Run `s` to success: its report, with the retries and the peak RSS in
/// KiB that its attempts add up to ([`Attempt::tally`]).
fn run_ok(sup: &Supervisor, s: &Scripted, why: &str) -> (SimulationReport, u32, u64) {
    let mut attempts = Vec::new();
    let report = sup
        .run(&s.exe, &s.dir, 5, &TestVectors::new(), &RunOptions::default(), &mut attempts)
        .expect(why);
    let (retries, _, peak_rss_kb) = Attempt::tally(&attempts);
    (report, retries, peak_rss_kb)
}

fn kind_of(err: &BackendError) -> FailureKind {
    err.failure_kind().unwrap_or_else(|| panic!("expected Supervised error, got {err}"))
}

#[test]
fn healthy_script_passes_through() {
    let s = Scripted::new("ok", OK_PROTOCOL);
    let sup = Supervisor::new(fast_policy());
    let (report, retries, _) = run_ok(&sup, &s, "healthy run succeeds");
    assert_eq!(retries, 0);
    assert_eq!(report.steps, 5);
    assert_eq!(report.output_digest, 0xdead_beef);
}

#[test]
fn hang_is_killed_and_classified_timeout() {
    let s = Scripted::new("hang", "echo 'ACCMOS:MODEL fake'\nsleep 30");
    let sup = Supervisor::new(fast_policy());
    let start = Instant::now();
    let err = run(&sup, &s).unwrap_err();
    let elapsed = start.elapsed();
    assert_eq!(kind_of(&err), FailureKind::Timeout);
    assert!(
        elapsed < Duration::from_secs(5),
        "hard kill must fire near the 200 ms deadline, took {elapsed:?}"
    );
    // Timeouts are not retried: the budget is already spent.
    let BackendError::Supervised { attempts, .. } = err else { unreachable!() };
    assert_eq!(attempts, 1);
}

#[test]
fn near_instant_child_still_reports_peak_rss() {
    // Regression: peak RSS was sampled from /proc only on poll
    // iterations, so a child exiting before the first sample reported
    // peak_rss = 0. The reap itself now carries the kernel's ru_maxrss.
    let s = Scripted::new("instant", OK_PROTOCOL);
    let sup = Supervisor::new(fast_policy());
    let (_, _, peak_rss_kb) = run_ok(&sup, &s, "healthy run succeeds");
    assert!(
        peak_rss_kb > 0,
        "a real process always has a non-zero high-water RSS at reap"
    );
}

#[test]
fn kill_fires_at_the_deadline_not_a_poll_period_late() {
    // Regression: the poll backoff caps at 10 ms and the sleep was not
    // clamped to the remaining deadline, so --exec-timeout could
    // overshoot by up to one poll period. `exec` keeps the script's
    // stdout in the hung process itself, so the kill closes the pipe
    // immediately and the elapsed time is deadline + kill + epsilon.
    let s = Scripted::new("deadline", "exec sleep 30");
    let sup = Supervisor::new(fast_policy().with_retries(0));
    let start = Instant::now();
    let err = run(&sup, &s).unwrap_err();
    let elapsed = start.elapsed();
    assert_eq!(kind_of(&err), FailureKind::Timeout);
    assert!(elapsed >= Duration::from_millis(200), "killed before the deadline");
    assert!(
        elapsed < Duration::from_millis(330),
        "200 ms deadline overshot: killed after {elapsed:?}"
    );
}

#[test]
fn timeout_detail_keeps_partial_output_from_a_stalled_reader() {
    // A killed child whose orphaned grandchild holds stdout open: the
    // capture stops reading after the 100 ms grace that follows the kill,
    // but the bytes that arrived in time must still reach the failure
    // detail (they used to be discarded wholesale), and the orphan's late
    // flush must not.
    let s = Scripted::new(
        "hangflush",
        "printf 'ACCMOS:MODEL fake\\nACCMOS:TIME_'\n\
         ( sleep 2; printf '9\\nACCMOS:END\\n' ) &\n\
         sleep 30",
    );
    let sup = Supervisor::new(fast_policy().with_retries(0));
    let err = run(&sup, &s).unwrap_err();
    assert_eq!(kind_of(&err), FailureKind::Timeout);
    let BackendError::Supervised { attempts, detail, .. } = &err else { unreachable!() };
    assert_eq!(*attempts, 1);
    assert!(
        detail.contains("ACCMOS:TIME_"),
        "partial stdout must survive reader abandonment: {detail}"
    );
    assert!(
        !detail.contains("ACCMOS:END"),
        "late flush from the orphan leaked into the classification: {detail}"
    );
}

#[test]
fn stdout_held_open_after_a_clean_exit_is_abandoned_after_the_grace() {
    // The script writes a valid report and exits 0, but its background
    // subshell keeps stdout open for 3 s: the capture waits out the 2 s
    // grace after the exit, then abandons the pipe instead of waiting
    // for the orphan or taking the report as whole.
    let s = Scripted::new("orphan", &format!("{OK_PROTOCOL}\n( sleep 3 ) &"));
    let sup = Supervisor::new(fast_policy().with_kill_timeout(Duration::from_secs(10)));
    let start = Instant::now();
    let err = run(&sup, &s).unwrap_err();
    let elapsed = start.elapsed();
    assert_eq!(kind_of(&err), FailureKind::ProtocolCorrupt, "{err}");
    assert!(err.to_string().contains("still open after the process exited"), "{err}");
    assert!(elapsed >= Duration::from_secs(2), "abandoned before the grace: {elapsed:?}");
    assert!(elapsed < Duration::from_secs(4), "held past the grace: {elapsed:?}");
}

#[test]
fn stdout_past_the_output_cap_is_drained_and_protocol_corrupt() {
    // 70,000,000 bytes overrun the 64 MiB cap: the excess is read and
    // discarded so the writer never blocks, and the run fails on the cap
    // well inside its kill deadline.
    let s = Scripted::new("flood", "head -c 70000000 /dev/zero");
    let sup = Supervisor::new(fast_policy().with_kill_timeout(Duration::from_secs(10)));
    let err = run(&sup, &s).unwrap_err();
    assert_eq!(kind_of(&err), FailureKind::ProtocolCorrupt, "{err}");
    assert!(err.to_string().contains("output cap"), "{err}");
}

#[test]
fn signal_death_is_classified_crashed_and_quarantined() {
    let s = Scripted::new("segv", "kill -SEGV $$");
    let sup = Supervisor::new(fast_policy().with_quarantine_after(3));
    let err = run(&sup, &s).unwrap_err();
    // 3 attempts (1 + 2 retries), each crashing on SIGSEGV (11).
    assert_eq!(kind_of(&err), FailureKind::Crashed { signal: 11 });
    let BackendError::Supervised { attempts, .. } = &err else { unreachable!() };
    assert_eq!(*attempts, 3, "crashes are retried up to the budget");
    assert_eq!(sup.crash_count(&s.exe), 3);
    assert!(sup.is_quarantined(&s.exe), "3 crashes reach quarantine_after=3");
    // The supervisor refuses further runs of a quarantined executable.
    let err = run(&sup, &s).unwrap_err();
    assert!(
        matches!(err, BackendError::Quarantined { crashes: 3, .. }),
        "expected Quarantined, got {err}"
    );
}

#[test]
fn nonzero_exit_is_retried_with_exit_code_and_stderr() {
    let s = Scripted::new("exit3", "echo 'boom: stack smashed' >&2\nexit 3");
    let sup = Supervisor::new(fast_policy());
    let err = run(&sup, &s).unwrap_err();
    assert_eq!(kind_of(&err), FailureKind::NonZeroExit { code: 3 });
    let BackendError::Supervised { attempts, detail, .. } = &err else { unreachable!() };
    assert_eq!(*attempts, 3, "non-zero exits retry up to the budget");
    assert!(detail.contains("boom: stack smashed"), "stderr tail kept: {detail}");
    assert!(!sup.is_quarantined(&s.exe), "non-zero exits do not quarantine");
}

#[test]
fn retries_share_the_kill_deadline() {
    // Each attempt crashes after 0.4 s, so three would take 1.2 s: the
    // 1 s deadline bounds them together, and the third is killed when it
    // runs out. (Each retry used to get the whole deadline again, and the
    // lane ended `Crashed` after about 1.2 s.) The sleep's own output goes
    // elsewhere, so a killed shell leaves no orphan holding the pipes.
    let s = Scripted::new("late-crash", "sleep 0.4 > /dev/null 2>&1\nkill -SEGV $$");
    let deadline = Duration::from_secs(1);
    let policy = ExecPolicy::default()
        .with_kill_timeout(deadline)
        .with_retries(2)
        .with_quarantine_after(4);
    let sup = Supervisor::new(policy);
    let mut attempts = Vec::new();
    let start = Instant::now();
    let err = sup
        .run(&s.exe, &s.dir, 5, &TestVectors::new(), &RunOptions::default(), &mut attempts)
        .unwrap_err();
    let elapsed = start.elapsed();
    assert_eq!(kind_of(&err), FailureKind::Timeout, "{err}");
    assert!(elapsed < deadline + Duration::from_millis(300), "held for {elapsed:?}");
    // Every attempt was reported, and together they fit the deadline.
    let failures: Vec<_> = attempts.iter().map(|a| a.failure).collect();
    assert_eq!(failures.last(), Some(&Some(FailureKind::Timeout)), "{failures:?}");
    let spent: Duration = attempts.iter().map(|a| a.backoff + a.duration).sum();
    assert!(spent <= elapsed, "{attempts:?}");
}

#[test]
fn garbled_protocol_is_not_retried() {
    let s = Scripted::new("garbled", "echo 'ACCMOS:BOGUS 1 2 3'\necho 'ACCMOS:END'");
    let sup = Supervisor::new(fast_policy());
    let err = run(&sup, &s).unwrap_err();
    assert_eq!(kind_of(&err), FailureKind::ProtocolCorrupt);
    let BackendError::Supervised { attempts, .. } = err else { unreachable!() };
    assert_eq!(attempts, 1, "protocol corruption is deterministic, no retry");
}

#[test]
fn truncated_stream_is_protocol_corrupt_with_record_count() {
    let s = Scripted::new(
        "truncated",
        "echo 'ACCMOS:MODEL fake'\necho 'ACCMOS:STEPS 5'\nprintf 'ACCMOS:DIG'",
    );
    let sup = Supervisor::new(fast_policy());
    let err = run(&sup, &s).unwrap_err();
    assert_eq!(kind_of(&err), FailureKind::ProtocolCorrupt);
    assert!(
        err.to_string().contains("truncated after 2"),
        "truncation detail surfaces through supervision: {err}"
    );
}

#[test]
fn fail_once_then_succeed_costs_one_retry() {
    let s = Scripted::new(
        "flaky",
        &format!(
            "STATE=\"$(dirname \"$0\")/flaky.state\"\n\
             if [ ! -f \"$STATE\" ]; then touch \"$STATE\"; exit 3; fi\n{OK_PROTOCOL}"
        ),
    );
    let sup = Supervisor::new(fast_policy());
    let (report, retries, _) = run_ok(&sup, &s, "second attempt succeeds");
    assert_eq!(retries, 1, "exactly one retry consumed");
    assert_eq!(report.output_digest, 0xdead_beef);
}

#[test]
fn missing_executable_is_transient_io() {
    let dir = std::env::temp_dir().join(format!("accmos-supervise-{}-gone", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sup = Supervisor::new(fast_policy().with_retries(1));
    let no_sim = dir.join("no-such-sim");
    let err = sup
        .run(&no_sim, &dir, 5, &TestVectors::new(), &RunOptions::default(), &mut Vec::new())
        .unwrap_err();
    assert_eq!(kind_of(&err), FailureKind::TransientIo);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scratch_test_vector_files_are_cleaned_up_even_on_kill() {
    use accmos_ir::{DataType, Scalar};
    let s = Scripted::new("hang-tests", "sleep 30");
    let sup = Supervisor::new(fast_policy().with_retries(0));
    let mut tests = TestVectors::new();
    tests.push_column("In", DataType::I32, vec![Scalar::I32(1)]);
    let err =
        sup.run(&s.exe, &s.dir, 5, &tests, &RunOptions::default(), &mut Vec::new()).unwrap_err();
    assert_eq!(kind_of(&err), FailureKind::Timeout);
    let leftovers = leftover_csvs(&s.dir);
    assert!(leftovers.is_empty(), "tests-*.csv left behind: {leftovers:?}");
}

fn leftover_csvs(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("tests-") && n.ends_with(".csv"))
                })
                .collect()
        })
        .unwrap_or_default()
}
