//! Executing compiled C simulators as subprocesses: the compiled
//! artifact, and the command line and per-run test-vector files the
//! [`Supervisor`] runs it with. Every launch goes through the supervisor;
//! [`CompiledSimulator::run`] is one attempt with no deadline.

use crate::compile::{Artifact, OptLevel};
use crate::error::BackendError;
use crate::supervise::{ExecPolicy, Supervisor, SupervisedRun};
use accmos_codegen::GeneratedProgram;
use accmos_ir::{SimulationReport, TestVectors};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Per-run options for a compiled simulator.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Stop at the end of the first step that produced a diagnostic.
    pub stop_on_diagnostic: bool,
    /// Wall-clock budget; the simulator stops early when exceeded.
    pub time_budget: Option<Duration>,
    /// Test vectors for lanes 1..N of a lane-parallel simulator, in lane
    /// order; lane 0 is driven by the primary `tests` argument. Leave
    /// empty for scalar simulators. A lane-N simulator rejects any
    /// `--tests` count other than 0 or N, so the length must be exactly
    /// `lanes - 1` when the model has root inports.
    pub lane_tests: Vec<TestVectors>,
}

/// A compiled simulation executable.
#[derive(Debug, Clone)]
pub struct CompiledSimulator {
    program: GeneratedProgram,
    build: Artifact,
}

impl CompiledSimulator {
    pub(crate) fn new(program: GeneratedProgram, build: Artifact) -> CompiledSimulator {
        CompiledSimulator { program, build }
    }

    /// The build directory holding the generated sources and executable.
    pub fn dir(&self) -> &Path {
        &self.build.dir
    }

    /// The executable path.
    pub fn exe(&self) -> &Path {
        &self.build.path
    }

    /// Wall-clock time spent compiling — or, on a build-cache hit, time
    /// spent fetching the cached executable.
    pub fn compile_time(&self) -> Duration {
        self.build.time
    }

    /// Whether this simulator came out of the [`crate::BuildCache`]
    /// without invoking the C compiler.
    pub fn cache_hit(&self) -> bool {
        self.build.cache_hit
    }

    /// The optimization level the executable was built at.
    pub fn opt_level(&self) -> OptLevel {
        self.build.opt
    }

    /// The generated program this simulator was built from.
    pub fn program(&self) -> &GeneratedProgram {
        &self.program
    }

    /// Run the simulator for `steps` steps against `tests`.
    ///
    /// The test vectors are written to a CSV file in the build directory
    /// and imported by the generated `TestCase_Init` (paper Figure 5).
    /// The reported `wall` time is the simulator's own measurement of its
    /// simulation loop (excluding process start-up and test loading).
    ///
    /// This is one supervised attempt with no kill deadline and no retry;
    /// use [`CompiledSimulator::run_supervised`] to bound the run.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures, and reports a crash, non-zero exit or
    /// corrupt protocol stream as [`BackendError::Supervised`].
    pub fn run(
        &self,
        steps: u64,
        tests: &TestVectors,
        opts: &RunOptions,
    ) -> Result<SimulationReport, BackendError> {
        let once = Supervisor::new(ExecPolicy {
            kill_timeout: None,
            retries: 0,
            ..ExecPolicy::default()
        });
        Ok(self.run_supervised(steps, tests, opts, &once)?.report)
    }

    /// Run the simulator under `supervisor`'s [`crate::ExecPolicy`]:
    /// hard kill timeout, bounded retries with deterministic backoff, and
    /// classified failures.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Supervised`] with the classified
    /// [`crate::FailureKind`], [`BackendError::Quarantined`] for an
    /// executable the supervisor refuses to run, or I/O errors writing the
    /// test-vector file.
    pub fn run_supervised(
        &self,
        steps: u64,
        tests: &TestVectors,
        opts: &RunOptions,
        supervisor: &Supervisor,
    ) -> Result<SupervisedRun, BackendError> {
        self.check_lane_stimulus(tests, opts)?;
        supervisor.run(self.exe(), self.dir(), steps, tests, opts)
    }

    /// Fail fast — before spawning the process — when the stimulus count
    /// does not match the compiled lane width. A lane-N simulator needs
    /// one test-vector set per lane (the primary `tests` plus `N - 1` in
    /// [`RunOptions::lane_tests`]); a scalar simulator must see no
    /// `lane_tests` at all (extra `--tests` arguments would silently
    /// shadow the primary stimulus). Input-less runs (zero-width `tests`,
    /// no `lane_tests`) pass no files and are valid at any lane width.
    fn check_lane_stimulus(
        &self,
        tests: &TestVectors,
        opts: &RunOptions,
    ) -> Result<(), BackendError> {
        let lanes = self.program.lanes.max(1);
        if tests.width() == 0 && opts.lane_tests.is_empty() {
            return Ok(());
        }
        let provided = 1 + opts.lane_tests.len();
        if provided != lanes {
            return Err(BackendError::RunFailed {
                exe: self.exe().to_path_buf(),
                detail: format!(
                    "lane-{lanes} simulator needs {lanes} test-vector set(s) \
                     (primary tests + {} in RunOptions::lane_tests), got {provided}",
                    lanes - 1
                ),
            });
        }
        Ok(())
    }

    /// Remove the build directory.
    pub fn clean(&self) {
        crate::compile::clean_build_dir(self.dir());
    }
}

static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Removes the wrapped file on drop (the test-vector file is per-run
/// scratch, even when the run errors out or the process is killed).
pub(crate) struct TempPath(pub(crate) PathBuf);

impl TempPath {
    /// The wrapped path.
    pub(crate) fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A wall-clock budget in whole milliseconds, **rounded up** so a 1.9 ms
/// budget becomes 2 ms (truncation used to shrink every budget by up to
/// 1 ms), with a floor of 1 ms so sub-millisecond budgets stay
/// representable. Shared by the `--budget-ms` argument and the in-process
/// entry call, so both execution modes see the identical budget.
pub(crate) fn budget_ms_value(budget: Duration) -> u64 {
    budget.as_nanos().div_ceil(1_000_000).max(1) as u64
}

/// [`budget_ms_value`] formatted for the `--budget-ms` argument.
fn budget_ms_arg(budget: Duration) -> String {
    budget_ms_value(budget).to_string()
}

/// Write the per-run test-vector file(s) for one invocation: one CSV per
/// lane (the primary `tests`, then [`RunOptions::lane_tests`]), named
/// uniquely per run (PID + sequence + lane ordinal) so concurrent runs of
/// one simulator never race on a shared file. Input-less runs get no
/// files. The returned guards remove the files when dropped.
pub(crate) fn write_test_files(
    work_dir: &Path,
    tests: &TestVectors,
    opts: &RunOptions,
) -> Result<Vec<TempPath>, BackendError> {
    let mut tc_guard = Vec::new();
    if tests.width() > 0 {
        let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
        for (lane, lane_tests) in
            std::iter::once(tests).chain(opts.lane_tests.iter()).enumerate()
        {
            let tc_path = work_dir.join(format!(
                "tests-{}-{}-{}.csv",
                std::process::id(),
                seq,
                lane
            ));
            std::fs::write(&tc_path, lane_tests.to_csv())
                .map_err(|source| BackendError::Io { path: tc_path.clone(), source })?;
            tc_guard.push(TempPath(tc_path));
        }
    }
    Ok(tc_guard)
}

/// Build the simulator command line and write the per-run test-vector
/// file(s) for the [`Supervisor`].
///
/// The test vectors go to files unique to this run (PID + sequence
/// number, plus a lane ordinal for lane-parallel runs), never to a shared
/// `tests.csv`: concurrent runs of the same compiled simulator — exactly
/// what `BatchRunner` does — would otherwise race on the file and read
/// each other's stimulus. A lane-parallel run passes one `--tests` file
/// per lane, in lane order (the primary `tests`, then
/// [`RunOptions::lane_tests`]). The returned guards remove the files when
/// dropped, so every exit path (success, crash, kill) cleans up.
pub(crate) fn prepare_command(
    exe: &Path,
    work_dir: &Path,
    steps: u64,
    tests: &TestVectors,
    opts: &RunOptions,
) -> Result<(Command, Vec<TempPath>), BackendError> {
    let mut cmd = Command::new(exe);
    cmd.arg(steps.to_string());
    let tc_guard = write_test_files(work_dir, tests, opts)?;
    for tc in &tc_guard {
        cmd.arg("--tests").arg(tc.path());
    }
    if opts.stop_on_diagnostic {
        cmd.arg("--stop-on-diag");
    }
    if let Some(budget) = opts.time_budget {
        cmd.arg("--budget-ms").arg(budget_ms_arg(budget));
    }
    Ok((cmd, tc_guard))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_arg_rounds_up_not_down() {
        // 1.9 ms used to truncate to 1 ms — a 47% budget cut.
        assert_eq!(budget_ms_arg(Duration::from_micros(1_900)), "2");
        assert_eq!(budget_ms_arg(Duration::from_micros(1_001)), "2");
        // Exact values stay exact.
        assert_eq!(budget_ms_arg(Duration::from_millis(3)), "3");
        assert_eq!(budget_ms_arg(Duration::from_millis(1)), "1");
        // Sub-millisecond budgets survive via the 1 ms floor.
        assert_eq!(budget_ms_arg(Duration::from_micros(250)), "1");
        assert_eq!(budget_ms_arg(Duration::ZERO), "1");
    }
}
