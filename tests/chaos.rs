//! Chaos test: a mixed batch where a third of the simulators misbehave.
//!
//! Eight healthy model jobs share the pool with four copies of the
//! `faultsim` binary (hang, SIGABRT crash, garbled protocol, transient
//! failure). The batch must complete promptly, classify every fault,
//! quarantine the crasher, and leave the healthy jobs bit-identical to a
//! serial fault-free run.

#![cfg(unix)]

use accmos::{
    AccMoS, AccMoSError, BatchJob, BatchRunner, ExecPolicy, FailureKind, RunOptions,
};
use accmos_ir::{ActorKind, DataType, Model, ModelBuilder, Scalar, TestVectors};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

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

/// Copy the faultsim binary as `faultsim-<mode>`; the name selects the
/// fault, and the distinct path quarantines independently.
fn fault_exe(dir: &Path, mode: &str) -> PathBuf {
    let src = PathBuf::from(env!("CARGO_BIN_EXE_faultsim"));
    let dst = dir.join(format!("faultsim-{mode}"));
    std::fs::copy(&src, &dst).unwrap();
    dst
}

fn failure_kind(err: &AccMoSError) -> Option<FailureKind> {
    match err {
        AccMoSError::Backend(e) => e.failure_kind(),
        _ => None,
    }
}

#[test]
fn chaos_batch_survives_misbehaving_simulators() {
    let dir = std::env::temp_dir().join(format!("accmos-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let policy = ExecPolicy::default()
        .with_kill_timeout(Duration::from_millis(200))
        .with_retries(1)
        .with_backoff(Duration::from_millis(10))
        .with_quarantine_after(2);
    let pipeline = AccMoS::new().without_cache().with_exec_policy(policy);

    let models = [gain_model("ChaosA", 2), gain_model("ChaosB", 3)];

    // Serial fault-free reference for the healthy jobs' digests.
    let mut serial = Vec::new();
    for model in &models {
        let sim = pipeline.prepare(model).unwrap();
        for seed in 0..4 {
            let r = sim.run(40, &tests_for(seed + 1), &RunOptions::default()).unwrap();
            serial.push(r.output_digest);
        }
        sim.clean();
    }

    // 12 jobs: 8 healthy (2 models x 4 stimuli) + 4 faults.
    let mut jobs = Vec::new();
    for (m, model) in models.iter().enumerate() {
        for seed in 0..4 {
            jobs.push(BatchJob::model(
                format!("healthy-{m}-{seed}"),
                model.clone(),
                tests_for(seed + 1),
                40,
            ));
        }
    }
    let fault_tests = TestVectors::constant("In", Scalar::I32(1), 2);
    for mode in ["hang", "crash", "garbled", "flaky"] {
        let exe = fault_exe(&dir, mode);
        jobs.push(BatchJob::executable(mode, exe, &dir, fault_tests.clone(), 40));
    }
    assert_eq!(jobs.len(), 12);

    let start = Instant::now();
    let report = BatchRunner::new(pipeline).with_workers(6).run(jobs).unwrap();
    let wall = start.elapsed();

    // Healthy jobs are unaffected by the chaos around them.
    for (i, job) in report.jobs[..8].iter().enumerate() {
        let r = job
            .report
            .as_ref()
            .unwrap_or_else(|e| panic!("{} failed: {e}", job.label));
        assert_eq!(r.output_digest, serial[i], "{} diverged from serial run", job.label);
        assert!(!job.degraded(), "{} must not degrade", job.label);
    }

    let by_label = |l: &str| report.jobs.iter().find(|j| j.label == l).unwrap();

    // Hang: killed at the 200 ms deadline, classified Timeout, no retry.
    let hang = by_label("hang");
    let err = hang.report.as_ref().unwrap_err();
    assert_eq!(failure_kind(err), Some(FailureKind::Timeout), "hang: {err}");
    assert_eq!(hang.retries, 0, "timeouts are not retried");
    assert!(
        hang.run_time < Duration::from_secs(2),
        "hang must die near the deadline, held {:?}",
        hang.run_time
    );

    // Crash: retried once (two attempts, two signal deaths), quarantined.
    let crash = by_label("crash");
    let err = crash.report.as_ref().unwrap_err();
    assert!(
        matches!(failure_kind(err), Some(FailureKind::Crashed { .. })),
        "crash: {err}"
    );
    assert_eq!(crash.retries, 1);

    // Garbled output: deterministic corruption, not retried.
    let garbled = by_label("garbled");
    let err = garbled.report.as_ref().unwrap_err();
    assert_eq!(failure_kind(err), Some(FailureKind::ProtocolCorrupt), "garbled: {err}");
    assert_eq!(garbled.retries, 0);

    // Flaky: one transient failure, then a real report.
    let flaky = by_label("flaky");
    let r = flaky.report.as_ref().unwrap_or_else(|e| panic!("flaky: {e}"));
    assert_eq!(flaky.retries, 1, "exactly one retry consumed");
    assert_eq!(r.steps, 40);

    let s = &report.summary;
    assert_eq!(s.jobs, 12);
    assert_eq!(s.failures, 3, "hang + crash + garbled fail; flaky recovers");
    assert_eq!(s.quarantined, 1, "only the crasher reaches quarantine");
    assert!(s.retries >= 2, "crash and flaky each consumed a retry");
    assert_eq!(s.degraded, 0, "raw executables have no interpreter to fall back to");

    // Per-run scratch is cleaned even for killed processes.
    let leftovers: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("tests-") && n.ends_with(".csv"))
        })
        .collect();
    assert!(leftovers.is_empty(), "scratch files leaked: {leftovers:?}");

    // Faults cost at most their kill deadline plus bounded retries — the
    // batch never inherits a hang.
    assert!(wall < Duration::from_secs(60), "chaos batch took {wall:?}");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The supervisor's drain grace: a killed simulator whose detached
/// straggler completes the `ACCMOS:` protocol *after* the capture
/// stopped reading must classify as a plain Timeout whose detail
/// keeps the bytes that arrived in time — and never the late flush,
/// which could otherwise turn a hang into a spuriously "complete" or
/// differently-classified attempt.
#[test]
fn hang_then_flush_keeps_partial_capture_and_drops_the_late_flush() {
    let dir = std::env::temp_dir().join(format!("accmos-chaos-hangflush-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let policy = ExecPolicy::default()
        .with_kill_timeout(Duration::from_millis(200))
        .with_retries(0)
        .with_backoff(Duration::from_millis(10));
    let pipeline = AccMoS::new().without_cache().with_exec_policy(policy);
    let exe = fault_exe(&dir, "hangflush");
    let jobs =
        vec![BatchJob::executable("hangflush", exe, &dir, TestVectors::new(), 5)];
    let report = BatchRunner::new(pipeline).run(jobs).unwrap();

    let err = report.jobs[0].report.as_ref().unwrap_err();
    assert_eq!(failure_kind(err), Some(FailureKind::Timeout), "hangflush: {err}");
    let AccMoSError::Backend(accmos::BackendError::Supervised { attempts, detail, .. }) = err
    else {
        panic!("expected a supervised timeout, got {err}");
    };
    assert_eq!(*attempts, 1, "timeouts are not retried");
    assert!(
        detail.contains("ACCMOS:TIME_"),
        "bytes flushed before the kill must survive into the detail: {detail}"
    );
    assert!(
        !detail.contains("ACCMOS:END"),
        "the straggler's late flush leaked into the classification: {detail}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A mixed-fault batch into a cache-backed pipeline must leave a ledger
/// whose outcome/retry counts match the batch summary exactly — the
/// telemetry layer may not flatter or hide any failure mode.
#[test]
fn chaos_batch_ledger_records_outcomes_faithfully() {
    use std::os::unix::fs::PermissionsExt;
    let dir = std::env::temp_dir().join(format!("accmos-chaos-ledger-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let policy = ExecPolicy::default()
        .with_kill_timeout(Duration::from_millis(500))
        .with_retries(1)
        .with_backoff(Duration::from_millis(10))
        .with_quarantine_after(2);
    let pipeline = AccMoS::new()
        .with_cache(accmos::BuildCache::at(&dir))
        .with_exec_policy(policy);

    // A prepared sim whose binary is sabotaged to die on SIGSEGV: its
    // first job crashes into quarantine, the rest degrade.
    let sabotaged = std::sync::Arc::new(pipeline.prepare(&gain_model("ChaosQ", 3)).unwrap());
    let exe = sabotaged.simulator().exe().to_path_buf();
    std::fs::write(&exe, "#!/bin/sh\nkill -SEGV $$\n").unwrap();
    std::fs::set_permissions(&exe, std::fs::Permissions::from_mode(0o755)).unwrap();

    let fault_tests = TestVectors::constant("In", Scalar::I32(1), 2);
    let jobs = vec![
        BatchJob::model("healthy-0", gain_model("ChaosL", 2), tests_for(1), 40),
        BatchJob::model("healthy-1", gain_model("ChaosL", 2), tests_for(2), 40),
        BatchJob::prepared("q0", std::sync::Arc::clone(&sabotaged), tests_for(3), 5),
        BatchJob::prepared("q1", std::sync::Arc::clone(&sabotaged), tests_for(4), 5),
        BatchJob::prepared("q2", std::sync::Arc::clone(&sabotaged), tests_for(5), 5),
        BatchJob::executable("flaky", fault_exe(&dir, "flaky"), &dir, fault_tests.clone(), 40),
        BatchJob::executable("garbled", fault_exe(&dir, "garbled"), &dir, fault_tests, 40),
    ];
    // One worker => deterministic order: q0's crash + retry reach the
    // quarantine threshold, so q0 itself degrades (post-failure check)
    // and q1/q2 skip the binary entirely.
    let report = BatchRunner::new(pipeline.clone()).with_workers(1).run(jobs).unwrap();
    let s = &report.summary;
    assert_eq!(s.degraded, 3, "q0, q1 and q2 all degrade");
    assert_eq!(s.quarantined, 1);
    assert_eq!(s.failures, 1, "only garbled has no fallback");
    assert_eq!(s.retries, 1, "flaky consumed one retry");

    let view = pipeline.ledger().expect("cache-backed pipeline has a ledger").read();
    assert_eq!(view.skipped, 0, "every ledger line parses");
    assert!(!view.truncated_tail);
    assert_eq!(view.records.len(), 7, "one record per job");

    let count = |outcome: &str| view.records.iter().filter(|r| r.outcome == outcome).count();
    assert_eq!(count("ok"), 3, "healthy-0, healthy-1, flaky");
    assert_eq!(count("degraded"), s.degraded);
    assert_eq!(count("failed"), s.failures);
    let retries: u64 = view.records.iter().map(|r| r.retries).sum();
    assert_eq!(retries, s.retries, "per-record retries sum to the summary");

    for r in &view.records {
        assert_eq!(r.source, "batch");
    }
    for r in view.records.iter().filter(|r| r.outcome == "ok") {
        assert!(r.phases.run_us > 0, "{}: a real run takes at least 1µs", r.model);
    }
    for r in view.records.iter().filter(|r| r.outcome == "degraded") {
        assert_eq!(r.engine, "sse", "degraded jobs ran the interpreter");
        assert!(!r.note.is_empty(), "degradation reason recorded for {}", r.model);
    }
    assert!(
        view.records.iter().any(|r| r.outcome == "degraded" && r.note.contains("quarantined")),
        "at least one degradation names the quarantine"
    );
    let healthy: Vec<_> =
        view.records.iter().filter(|r| r.model == "ChaosL").collect();
    assert_eq!(healthy.len(), 2);
    assert!(
        healthy.iter().any(|r| r.phases.compile_us > 0),
        "compiled jobs carry the shared compile span"
    );

    sabotaged.clean();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Lane jobs ride the same supervision rails as scalar ones: a healthy
/// lane job folds exactly like serial scalar runs, a sabotaged binary
/// crashes into quarantine on its first lane, and the interpreter
/// fallback folds its lanes bit for bit the same way — with the lane
/// width recorded in the ledger either way.
#[test]
fn lane_jobs_quarantine_and_degrade_bit_identically() {
    use std::os::unix::fs::PermissionsExt;
    use std::sync::Arc;
    let dir = std::env::temp_dir().join(format!("accmos-chaos-lane-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let lanes: usize = 4;
    let policy = ExecPolicy::default()
        .with_kill_timeout(Duration::from_millis(500))
        .with_retries(1)
        .with_backoff(Duration::from_millis(10))
        .with_quarantine_after(2);
    let pipeline = AccMoS::new()
        .with_cache(accmos::BuildCache::at(&dir))
        .with_exec_policy(policy);

    let healthy_model = gain_model("ChaosLaneH", 2);
    let crashy_model = gain_model("ChaosLaneQ", 5);
    let lane_opts = RunOptions {
        lane_tests: (2..=lanes as i32).map(tests_for).collect(),
        ..RunOptions::default()
    };

    // Serial scalar reference: a lane run's aggregate digest is the FNV
    // fold of the per-lane digests, in lane order.
    let fold_scalar = |model: &accmos_ir::Model| {
        let sim = AccMoS::new().without_cache().prepare(model).unwrap();
        let mut fold = accmos_ir::OutputDigest::new();
        for v in 1..=lanes as i32 {
            let r = sim.run(40, &tests_for(v), &RunOptions::default()).unwrap();
            fold.write_u64(r.output_digest);
        }
        sim.clean();
        fold.finish()
    };
    let expected_healthy = fold_scalar(&healthy_model);
    let expected_crashy = fold_scalar(&crashy_model);

    // Sabotage the crashy build after compilation: it dies on
    // SIGSEGV, reaches the quarantine threshold, and both its jobs fall
    // back to the interpreter's lane aggregation.
    let sabotaged = Arc::new(pipeline.prepare(&crashy_model).unwrap());
    let exe = sabotaged.simulator().exe().to_path_buf();
    std::fs::write(&exe, "#!/bin/sh\nkill -SEGV $$\n").unwrap();
    std::fs::set_permissions(&exe, std::fs::Permissions::from_mode(0o755)).unwrap();

    let jobs = vec![
        BatchJob::model("lane-healthy", healthy_model, tests_for(1), 40)
            .with_opts(lane_opts.clone()),
        BatchJob::prepared("lane-q0", Arc::clone(&sabotaged), tests_for(1), 40)
            .with_opts(lane_opts.clone()),
        BatchJob::prepared("lane-q1", Arc::clone(&sabotaged), tests_for(1), 40)
            .with_opts(lane_opts),
    ];
    let report = BatchRunner::new(pipeline.clone()).with_workers(1).run(jobs).unwrap();

    let healthy = &report.jobs[0];
    let r = healthy.report.as_ref().unwrap_or_else(|e| panic!("lane-healthy: {e}"));
    assert!(!healthy.degraded(), "healthy lane job must run compiled");
    assert_eq!(r.lane_width(), lanes as u64);
    assert_eq!(r.output_digest, expected_healthy, "lane aggregate != scalar fold");

    for job in &report.jobs[1..] {
        assert!(job.degraded(), "{}: quarantined lane job must degrade", job.label);
        let r = job.report.as_ref().unwrap_or_else(|e| panic!("{}: {e}", job.label));
        assert_eq!(r.lane_width(), lanes as u64, "{}", job.label);
        assert_eq!(
            r.output_digest, expected_crashy,
            "{}: interpreter lane fold diverged from the compiled runs",
            job.label
        );
    }
    assert_eq!(report.summary.quarantined, 1, "one binary reaches quarantine");
    assert_eq!(report.summary.degraded, 2, "both its jobs degrade");

    // The ledger carries the lane width for compiled and degraded lane
    // jobs alike, so `accmos trends` can baseline them apart.
    let view = pipeline.ledger().unwrap().read();
    let batch: Vec<_> = view.records.iter().filter(|r| r.source == "batch").collect();
    assert_eq!(batch.len(), 3);
    for rec in batch {
        assert_eq!(rec.lanes, lanes as u64, "{}: ledger lane width", rec.model);
    }

    sabotaged.clean();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Quarantine decisions persist in the cache directory: a second batch
/// (fresh pipeline and supervisor, same cache dir) must refuse a binary
/// the first batch quarantined, and the ledger must say so.
#[test]
fn quarantine_persists_across_batches_sharing_a_cache_dir() {
    let dir = std::env::temp_dir().join(format!("accmos-chaos-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let policy = ExecPolicy::default()
        .with_kill_timeout(Duration::from_millis(500))
        .with_retries(1)
        .with_backoff(Duration::from_millis(10))
        .with_quarantine_after(2);
    let exe = fault_exe(&dir, "crash");
    let fault_tests = TestVectors::constant("In", Scalar::I32(1), 2);

    // Batch 1: two attempts (one retry), two signal deaths — quarantined.
    let pipeline1 = AccMoS::new()
        .with_cache(accmos::BuildCache::at(&dir))
        .with_exec_policy(policy.clone());
    let first = BatchRunner::new(pipeline1)
        .run(vec![BatchJob::executable("crash", &exe, &dir, fault_tests.clone(), 40)])
        .unwrap();
    assert_eq!(first.summary.quarantined, 1);
    assert!(
        matches!(
            first.jobs[0].report.as_ref().unwrap_err(),
            AccMoSError::Backend(accmos::BackendError::Supervised { .. })
        ),
        "first batch sees the crash itself"
    );

    // Batch 2: a *fresh* pipeline sharing the cache dir inherits the
    // quarantine from disk and refuses the binary without running it.
    let pipeline2 = AccMoS::new()
        .with_cache(accmos::BuildCache::at(&dir))
        .with_exec_policy(policy);
    let second = BatchRunner::new(pipeline2.clone())
        .run(vec![BatchJob::executable("crash", &exe, &dir, fault_tests, 40)])
        .unwrap();
    let err = second.jobs[0].report.as_ref().unwrap_err();
    assert!(
        matches!(err, AccMoSError::Backend(accmos::BackendError::Quarantined { .. })),
        "second batch refuses the quarantined binary: {err}"
    );
    assert_eq!(second.jobs[0].retries, 0, "a refused binary is never executed");
    assert_eq!(second.summary.quarantined, 1, "inherited quarantine is reported");

    let view = pipeline2.ledger().unwrap().read();
    assert_eq!(view.records.len(), 2, "both batches appended to one ledger");
    assert_eq!(view.records[0].outcome, "failed");
    assert_eq!(view.records[1].outcome, "quarantined");
    assert!(view.records[1].note.contains("quarantined"));

    std::fs::remove_dir_all(&dir).unwrap();
}
