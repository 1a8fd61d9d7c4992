//! Campaign-level tests of the differential fuzz subsystem: fault
//! injection stays classified, planted divergences are detected /
//! minimized / corpus-ized / replayed, and a killed campaign resumes
//! from its torn `fuzz.jsonl` without re-running or duplicating trials.

use accmos::fuzz::{completed_indices, plan_trial, replay_corpus_entry, FuzzStore};
use accmos::{FuzzCampaign, FuzzConfig};
use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("accmos-fuzz-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Small fast campaign defaults shared by the tests: short models, no
/// minimizer unless the test wants it.
fn base_config(seed: u64, trials: u64, state_dir: PathBuf) -> FuzzConfig {
    FuzzConfig {
        seed,
        trials,
        steps: 24,
        rows: 4,
        state_dir: Some(state_dir),
        minimize: false,
        ..FuzzConfig::default()
    }
}

/// The acceptance property, scaled to test time: a campaign with
/// faultsim-injected crash and hang trials mixed in completes with zero
/// unclassified failures — every injected fault comes back as a
/// classified verdict (crash, timeout, or quarantined once the crash
/// binary trips the quarantine threshold), and every real trial is
/// differentially clean.
#[test]
fn campaign_with_injected_faults_stays_classified() {
    let dir = scratch("inject");
    let config = FuzzConfig {
        inject_fault_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_faultsim"))),
        trial_budget: Duration::from_millis(400),
        ..base_config(11, 30, dir.clone())
    };
    // Injection schedule: indices 3,13,23 hang; 7,17,27 crash.
    let injected_planned =
        (0..30).filter(|i| plan_trial(&config, *i).inject.is_some()).count() as u64;
    assert_eq!(injected_planned, 6, "expected 6 injected trials in 30");

    let summary = FuzzCampaign::new(config).run().unwrap();
    assert_eq!(summary.executed, 30);
    assert_eq!(summary.unclassified, 0, "every fault must classify");
    assert_eq!(summary.injected, 6, "all injected trials classified");
    assert_eq!(summary.divergences, 0, "real trials differentially clean");
    assert_eq!(summary.ok + summary.failures + summary.injected, 30);

    // The store agrees with the in-memory summary.
    let view = FuzzStore::in_dir(&dir).read();
    assert_eq!(view.records.len(), 30);
    assert!(view.records.iter().all(|r| r.classified));
    let injected_kinds: Vec<&str> = view
        .records
        .iter()
        .filter(|r| r.injected)
        .map(|r| r.verdict.as_str())
        .collect();
    assert_eq!(injected_kinds.len(), 6);
    assert!(
        injected_kinds.iter().all(|v| v.starts_with("injected:")),
        "injected verdicts carry their failure kind: {injected_kinds:?}"
    );
    assert!(
        injected_kinds.contains(&"injected:timeout"),
        "hang trials classify as timeouts: {injected_kinds:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The detector proves itself end-to-end: a sabotaged generated-C build
/// (test-only extra digest fold) must be caught as a divergence,
/// delta-debugged down to a tiny model, written to the corpus, and the
/// written repro must replay clean against a *normal* build — the
/// pinned digest is the interpreter's, so a fixed backend passes.
#[test]
fn sabotage_is_detected_minimized_and_replayable() {
    let dir = scratch("sabotage");
    let corpus = scratch("sabotage-corpus");
    let config = FuzzConfig {
        sabotage: true,
        minimize: true,
        corpus_dir: Some(corpus.clone()),
        ..base_config(21, 1, dir.clone())
    };
    let summary = FuzzCampaign::new(config).run().unwrap();
    assert_eq!(summary.divergences, 1, "the planted divergence must be detected");
    assert_eq!(summary.unclassified, 0);
    assert_eq!(summary.minimized.len(), 1);

    let repro = &summary.minimized[0];
    assert!(
        repro.actors <= 8,
        "delta-debugging must shrink the repro to <= 8 actors, got {}",
        repro.actors
    );
    assert!(repro.mdlx_path.exists(), "repro written to the corpus");
    assert!(repro.mdlx_path.with_extension("expected").exists());
    assert!(repro.detail.contains("digest"), "divergence detail names the field");

    // Replay with the sabotage flag off: interpreter and (healthy)
    // compiled simulator both match the pinned reference digest.
    replay_corpus_entry(&repro.mdlx_path)
        .unwrap_or_else(|e| panic!("minimized repro must replay clean: {e}"));

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&corpus);
}

/// Crash-resume (faultsim-style, in process): a campaign that dies
/// mid-run — simulated by the test-only abort injection — leaves a
/// valid store behind; even after its tail is torn by a half-written
/// record, `resume` skips exactly the completed trials, bounded slices
/// (`max_trials_per_run`) make progress, and the campaign converges to
/// the planned trial count with no duplicate indices.
#[test]
fn killed_campaign_resumes_from_torn_store_and_converges() {
    let dir = scratch("resume");
    let config = base_config(31, 10, dir.clone());

    // First run dies after 4 trials.
    let aborting = FuzzConfig { abort_after_trials: Some(4), ..config.clone() };
    let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        FuzzCampaign::new(aborting).run()
    }));
    assert!(crash.is_err(), "abort injection must panic mid-campaign");
    let store = FuzzStore::in_dir(&dir);
    let after_crash = store.read().records.len();
    assert!(after_crash >= 3, "the crashed run persisted its completed trials");
    assert!(after_crash < 10, "the crashed run did not finish");

    // A writer also died mid-append: tear the tail.
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new().append(true).open(store.path()).unwrap();
    f.write_all(b"{\"schema\":1,\"campaign\":31,\"index\":9999,\"verd").unwrap();
    drop(f);
    assert!(store.read().truncated_tail, "the tear is visible");

    // Resume in bounded slices until no work remains.
    let mut total_executed = 0;
    for _ in 0..10 {
        let slice = FuzzConfig {
            resume: true,
            max_trials_per_run: Some(3),
            ..config.clone()
        };
        let summary = FuzzCampaign::new(slice).run().unwrap();
        total_executed += summary.executed;
        assert!(summary.executed <= 3, "slice bound respected");
        assert_eq!(summary.unclassified, 0);
        if summary.executed == 0 {
            break;
        }
    }
    assert_eq!(total_executed + after_crash as u64, 10, "converged to the planned total");

    let indices: Vec<u64> = completed_indices(&store, 31).into_iter().collect();
    let distinct: HashSet<u64> = indices.iter().copied().collect();
    assert_eq!(distinct, (0..10).collect::<HashSet<u64>>(), "every trial ran");
    assert_eq!(store.read().records.iter().filter(|r| r.campaign == 31).count(), 10,
        "no trial ran twice");

    // One more resumed run is a no-op.
    let summary = FuzzCampaign::new(FuzzConfig { resume: true, ..config }).run().unwrap();
    assert_eq!(summary.executed, 0);
    assert_eq!(summary.resumed, 10);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The MDLX parser under garbled bytes: seeded mutations (truncations,
/// byte flips, splices, deletions) of valid model files must come back
/// as `Err`, never a panic or a hang. This is the parse-hardening
/// smoke test — any panic aborts the test process and fails the suite.
#[test]
fn parser_survives_garbled_bytes() {
    use accmos_testgen::TestRng;
    let mut parsed_ok = 0usize;
    let mut rejected = 0usize;
    for seed in [2u64, 5, 9] {
        let model = accmos::fuzz::planned_model(seed).unwrap();
        let text = accmos::write_mdlx(&model);
        let bytes = text.as_bytes();
        let mut rng = TestRng::seed_from_u64(seed.wrapping_mul(0x51ED));
        for round in 0..80 {
            let mut mutant = bytes.to_vec();
            match round % 4 {
                // Truncate at a random point (torn file).
                0 => mutant.truncate(rng.gen_range(0..mutant.len() as i128) as usize),
                // Flip a handful of random bytes.
                1 => {
                    for _ in 0..rng.gen_range(1..=8i128) {
                        let i = rng.gen_range(0..mutant.len() as i128) as usize;
                        mutant[i] = rng.gen_range(0..=255i128) as u8;
                    }
                }
                // Splice random ASCII garbage into the middle.
                2 => {
                    let at = rng.gen_range(0..mutant.len() as i128) as usize;
                    let garbage: Vec<u8> = (0..rng.gen_range(1..=32i128))
                        .map(|_| rng.gen_range(0x20..=0x7Ei128) as u8)
                        .collect();
                    mutant.splice(at..at, garbage);
                }
                // Delete a random span.
                _ => {
                    let a = rng.gen_range(0..mutant.len() as i128) as usize;
                    let b = (a + rng.gen_range(1..=64i128) as usize).min(mutant.len());
                    mutant.drain(a..b);
                }
            }
            let mutant_text = String::from_utf8_lossy(&mutant);
            match accmos::parse_mdlx(&mutant_text) {
                // A mutant that still parses must also still preprocess
                // or fail cleanly — no panics anywhere downstream.
                Ok(model) => {
                    let _ = accmos::preprocess(&model);
                    parsed_ok += 1;
                }
                Err(_) => rejected += 1,
            }
        }
    }
    assert!(rejected > 0, "mutations must actually corrupt some files");
    // Not asserting parsed_ok > 0: surviving a mutation is possible
    // (e.g. a flipped byte inside a name) but not guaranteed.
    let _ = parsed_ok;
}
