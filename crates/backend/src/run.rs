//! Executing compiled C simulators as subprocesses: the compiled
//! artifact, and the command line and per-run test-vector files the
//! [`Supervisor`] runs it with. Every launch goes through the supervisor;
//! [`CompiledSimulator::run`] is one attempt with no deadline. A lane
//! run is one run of the artifact per lane ([`run_lanes`]).

use crate::compile::{Artifact, OptLevel};
use crate::error::BackendError;
use crate::supervise::{ExecPolicy, FailureKind, Supervisor};
use accmos_codegen::GeneratedProgram;
use accmos_ir::{CoverageKind, SimulationReport, TestVectors};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Per-run options for a compiled simulator.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Stop a lane at the end of its first step that produced a
    /// diagnostic.
    pub stop_on_diagnostic: bool,
    /// Wall-clock budget of the whole run, all lanes together; a lane
    /// stops early when it is spent.
    pub time_budget: Option<Duration>,
    /// Test vectors of lanes 1..N, in lane order; lane 0 runs the primary
    /// `tests` argument. Each lane is an independent run of the same
    /// simulator, and the run's report folds them
    /// ([`SimulationReport::fold_lanes`]). Empty for a scalar run.
    pub lane_tests: Vec<TestVectors>,
}

impl RunOptions {
    /// The run's lane count: lane 0 plus one per [`RunOptions::lane_tests`]
    /// entry.
    pub fn lanes(&self) -> usize {
        1 + self.lane_tests.len()
    }
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
    /// [`Supervisor::run`] on [`CompiledSimulator::exe`] bounds the run.
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
        once.run(self.exe(), self.dir(), steps, tests, opts, &mut Vec::new())
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

/// Write the test-vector file of one run, named uniquely per run (PID +
/// sequence) so concurrent runs of one simulator never race on a shared
/// file. An input-less run gets no file. The returned guard removes the
/// file when dropped.
pub(crate) fn write_test_file(
    work_dir: &Path,
    tests: &TestVectors,
) -> Result<Option<TempPath>, BackendError> {
    if tests.width() == 0 {
        return Ok(None);
    }
    let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
    let tc_path = work_dir.join(format!("tests-{}-{seq}.csv", std::process::id()));
    std::fs::write(&tc_path, tests.to_csv())
        .map_err(|source| BackendError::Io { path: tc_path.clone(), source })?;
    Ok(Some(TempPath(tc_path)))
}

/// Run a job's lanes one after another through `run`, each the
/// independent run of one stimulus: the primary `tests`, then
/// [`RunOptions::lane_tests`]. The time budget and the kill `deadline`
/// bound all the lanes together, so each lane gets what the lanes before
/// it left. A lane that finds the budget spent runs no steps; one that
/// finds the deadline spent fails the job with [`FailureKind::Timeout`],
/// as a killed child would.
pub(crate) fn run_lanes<R>(
    exe: &Path,
    steps: u64,
    tests: &TestVectors,
    opts: &RunOptions,
    deadline: Option<Duration>,
    mut run: impl FnMut(u64, &TestVectors, &RunOptions, Option<Duration>) -> Result<R, BackendError>,
) -> Result<Vec<R>, BackendError> {
    let start = Instant::now();
    let mut lane_opts =
        RunOptions { stop_on_diagnostic: opts.stop_on_diagnostic, ..RunOptions::default() };
    let mut lanes = Vec::with_capacity(opts.lanes());
    for (i, lane_tests) in std::iter::once(tests).chain(&opts.lane_tests).enumerate() {
        // Lane 0 starts with the job, so it gets the budget and the
        // deadline exactly as asked: a scalar run sees no difference.
        let spent = if i == 0 { Duration::ZERO } else { start.elapsed() };
        let left = deadline.map(|d| d.saturating_sub(spent));
        if left == Some(Duration::ZERO) {
            return Err(BackendError::Supervised {
                exe: exe.to_path_buf(),
                kind: FailureKind::Timeout,
                attempts: 1,
                detail: format!(
                    "the {:?} kill deadline passed before lane {i} of {} started",
                    deadline.unwrap_or_default(),
                    opts.lanes()
                ),
            });
        }
        lane_opts.time_budget = opts.time_budget.map(|b| b.saturating_sub(spent));
        let lane_steps = if lane_opts.time_budget == Some(Duration::ZERO) { 0 } else { steps };
        lanes.push(run(lane_steps, lane_tests, &lane_opts, left)?);
    }
    Ok(lanes)
}

/// Fold the reports of a compiled job's lanes
/// ([`SimulationReport::fold_lanes`]). They come from other processes or
/// loads, so their coverage must have one shape before the union: every
/// lane of one artifact reports the same points.
///
/// # Errors
///
/// [`BackendError::Protocol`] when a lane reports other coverage points
/// than lane 0.
pub(crate) fn fold_lanes(lanes: Vec<SimulationReport>) -> Result<SimulationReport, BackendError> {
    let shape = |r: &SimulationReport| {
        r.coverage.as_ref().map(|b| CoverageKind::ALL.map(|k| b.bitmap(k).len()))
    };
    if let Some(i) = lanes.iter().position(|l| shape(l) != shape(&lanes[0])) {
        return Err(BackendError::Protocol {
            line: "ACCMOS:COV".into(),
            detail: format!("lane {i} reports other coverage points than lane 0"),
        });
    }
    Ok(SimulationReport::fold_lanes(lanes))
}

/// Build the command line of one run and write its test-vector file
/// ([`write_test_file`]) for the [`Supervisor`]. The returned guard
/// removes the file when dropped, so every exit path (success, crash,
/// kill) cleans up.
pub(crate) fn prepare_command(
    exe: &Path,
    work_dir: &Path,
    steps: u64,
    tests: &TestVectors,
    opts: &RunOptions,
) -> Result<(Command, Option<TempPath>), BackendError> {
    let mut cmd = Command::new(exe);
    cmd.arg(steps.to_string());
    let tc_guard = write_test_file(work_dir, tests)?;
    if let Some(tc) = &tc_guard {
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

    #[test]
    fn lanes_share_the_time_budget_and_the_kill_deadline() {
        let tests = TestVectors::default();
        let ms = Duration::from_millis;
        let opts = RunOptions {
            time_budget: Some(ms(30)),
            lane_tests: vec![tests.clone(); 2],
            ..RunOptions::default()
        };
        // Each lane spends 20 ms: the second lane gets what is left of
        // the budget, and the third finds it spent and runs no steps.
        let lanes = run_lanes(Path::new("sim"), 100, &tests, &opts, None, |steps, _, o, _| {
            std::thread::sleep(ms(20));
            Ok((steps, o.time_budget.unwrap()))
        })
        .unwrap();
        assert_eq!(lanes[0], (100, ms(30)), "lane 0 runs with the job's budget");
        assert_eq!(lanes[1].0, 100);
        assert!(lanes[1].1 <= ms(10), "lane 1 runs with the rest: {:?}", lanes[1].1);
        assert_eq!(lanes[2], (0, Duration::ZERO), "a spent budget stops the lane");

        // The kill deadline is spent before the third lane starts.
        let mut started = 0;
        let err = run_lanes(Path::new("sim"), 100, &tests, &opts, Some(ms(30)), |_, _, _, left| {
            assert!(left.unwrap() <= ms(30) - ms(20 * started));
            started += 1;
            std::thread::sleep(ms(20));
            Ok(())
        })
        .unwrap_err();
        assert_eq!(started, 2);
        assert_eq!(err.failure_kind(), Some(FailureKind::Timeout), "{err}");
    }

    #[test]
    fn lanes_with_other_coverage_points_do_not_fold() {
        let mut map = accmos_ir::CoverageMap::new();
        map.add(CoverageKind::Actor);
        let with_points = |bitmaps| {
            let mut r = SimulationReport::new("M", "accmos");
            r.coverage = bitmaps;
            r
        };
        let lane = || with_points(Some(map.new_bitmaps()));
        assert_eq!(fold_lanes(vec![lane(), lane()]).unwrap().lane_width(), 2);
        for other in [with_points(Some(Default::default())), with_points(None)] {
            let err = fold_lanes(vec![lane(), other]).unwrap_err();
            assert!(err.to_string().contains("lane 1 reports other coverage points"), "{err}");
        }
    }
}
