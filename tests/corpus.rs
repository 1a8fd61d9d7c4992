//! Corpus replay: every checked-in entry under `tests/corpus/` is a
//! model + pinned-digest pair — either a regression anchor pinned with
//! `accmos fuzz --pin`, or a divergence repro minimized by a fuzz
//! campaign. Each is replayed exactly: the pinned stimulus is
//! regenerated from its seed, the interpreter and the compiled simulator
//! both run it, and both digests must match the pinned one (and each
//! other, field by field).
//!
//! An interpreter mismatch means the *reference semantics* drifted; a
//! compiled mismatch means the codegen bug the entry was minimized from
//! is back (or was never fixed). Either way the entry names the exact
//! model and stimulus to debug. See the README's corpus-triage workflow
//! for what to do when an intentional semantic change re-fires these.

use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn every_checked_in_corpus_entry_replays_clean() {
    let entries = accmos::fuzz::corpus_entries(&corpus_dir());
    assert!(
        !entries.is_empty(),
        "tests/corpus/ must hold at least the pinned regression anchors"
    );
    let mut failures = Vec::new();
    for path in &entries {
        if let Err(e) = accmos::fuzz::replay_corpus_entry(path) {
            failures.push(e);
        }
    }
    assert!(
        failures.is_empty(),
        "{} corpus entr(ies) failed replay:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn corpus_entries_cover_conditional_and_lane_parallel_models() {
    // The anchors are chosen to keep the two trickiest codegen features
    // pinned forever: conditional-group gating and lane-4 execution.
    let entries = accmos::fuzz::corpus_entries(&corpus_dir());
    let mut saw_lanes4 = false;
    let mut saw_groups = false;
    for path in &entries {
        let text = std::fs::read_to_string(path).unwrap();
        let model = accmos::parse_mdlx(&text).unwrap();
        let pre = accmos::preprocess(&model).unwrap();
        if !pre.flat.groups.is_empty() {
            saw_groups = true;
        }
        let expected = std::fs::read_to_string(path.with_extension("expected")).unwrap();
        let fields = accmos::telemetry::parse_flat_object(expected.trim()).unwrap();
        if fields.num("lanes") == Some(4) {
            saw_lanes4 = true;
        }
    }
    assert!(saw_groups, "no corpus entry with conditional groups");
    assert!(saw_lanes4, "no lane-4 corpus entry");
}

#[test]
fn pinning_the_anchors_again_reproduces_them_byte_for_byte() {
    // The planner's draws decide each anchor's model, stimulus seed,
    // steps, rows and lanes. A draw added anywhere but last would shift
    // them, and with them the trials a `--resume` run continues.
    let dir = std::env::temp_dir().join(format!("accmos-corpus-repin-{}", std::process::id()));
    for seed in [1, 2] {
        let config = accmos::FuzzConfig { seed, ..accmos::FuzzConfig::default() };
        let repro = accmos::fuzz::pin_corpus_entry(&config, 0, &dir).unwrap();
        for ext in ["mdlx", "expected"] {
            let name = format!("{}.{ext}", repro.name);
            let pinned = std::fs::read(corpus_dir().join(&name)).unwrap();
            assert_eq!(std::fs::read(dir.join(&name)).unwrap(), pinned, "{name}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
