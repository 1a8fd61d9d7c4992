//! Reference results from the interpreter (`NormalEngine`), never from
//! the compiler under test.
//!
//! A result is compared by its [`Fingerprint`]: output digest, steps run,
//! and — where the engine reports them — the four coverage counters and
//! every diagnostic (actor, kind, first step, count). Results for the
//! default seed are pinned in `expected/oracle.tsv` (regenerated with
//! `perfbench --pin`); any other key is computed on a miss, and that time
//! is reported as `oracle_s`, outside `setup_s` and the measured window.

use accmos::{Engine as _, NormalEngine, SimOptions};
use accmos_ir::{CoverageKind, SimulationReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The checked-in pins, compiled in so a run reads no file.
const PINNED: &str = include_str!("../expected/oracle.tsv");

/// The path `--pin` rewrites.
pub const PIN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected/oracle.tsv");

/// What identifies one reference run: model, stimulus seed, stimulus rows
/// and steps.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key {
    /// Table 1 model name.
    pub model: String,
    /// `random_tests` seed.
    pub seed: u64,
    /// `random_tests` rows.
    pub rows: usize,
    /// Steps simulated.
    pub steps: u64,
}

/// The comparable part of a simulation result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Output digest.
    pub digest: u64,
    /// Steps run.
    pub steps: u64,
    /// Coverage counters and diagnostics; `None` where the engine reports
    /// only digest and steps (the serve protocol's `done` event).
    pub detail: Option<String>,
}

impl Fingerprint {
    /// Fingerprint of a full report.
    pub fn of(report: &SimulationReport) -> Fingerprint {
        let mut detail = String::from("cov=");
        if let Some(cov) = &report.coverage {
            for kind in CoverageKind::ALL {
                let c = cov.counts(kind);
                let _ = write!(detail, "{}/{},", c.covered, c.total);
            }
        }
        detail.push_str(";diag=");
        for d in &report.diagnostics {
            let _ = write!(
                detail,
                "{}:{}@{}*{}|",
                d.actor, d.kind, d.first_step, d.count
            );
        }
        Fingerprint {
            digest: report.output_digest,
            steps: report.steps,
            detail: Some(detail),
        }
    }

    /// Whether `self` agrees with the reference `expected` on every field
    /// both carry.
    pub fn matches(&self, expected: &Fingerprint) -> bool {
        self.digest == expected.digest
            && self.steps == expected.steps
            && match (&self.detail, &expected.detail) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            }
    }
}

/// Pinned and computed reference results.
pub struct Oracle {
    known: BTreeMap<Key, Fingerprint>,
    spent: Duration,
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle::new()
    }
}

impl Oracle {
    /// An oracle seeded with the checked-in pins.
    pub fn new() -> Oracle {
        let known = PINNED.lines().filter_map(parse_line).collect();
        Oracle {
            known,
            spent: Duration::ZERO,
        }
    }

    /// An oracle with no pins (used by `--pin`, which recomputes them).
    pub fn empty() -> Oracle {
        Oracle {
            known: BTreeMap::new(),
            spent: Duration::ZERO,
        }
    }

    /// The interpreter's result for `key`, pinned or computed now.
    pub fn expect(&mut self, key: &Key) -> Fingerprint {
        if let Some(fp) = self.known.get(key) {
            return fp.clone();
        }
        let start = Instant::now();
        let model = accmos_models::by_name(&key.model);
        let pre = accmos::preprocess(&model).expect("benchmark model preprocesses");
        let tests = accmos_testgen::random_tests(&pre, key.rows, key.seed);
        let report = NormalEngine::new().run(&pre, &tests, &SimOptions::steps(key.steps));
        let fp = Fingerprint::of(&report);
        self.spent += start.elapsed();
        self.known.insert(key.clone(), fp.clone());
        fp
    }

    /// Time spent computing unpinned results.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Render every known result in the pin-file format, sorted by key.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("# model\tseed\trows\tsteps\tdigest\tsteps_run\tdetail\n");
        for (k, fp) in &self.known {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{:016x}\t{}\t{}",
                k.model,
                k.seed,
                k.rows,
                k.steps,
                fp.digest,
                fp.steps,
                fp.detail.as_deref().unwrap_or("-")
            );
        }
        out
    }
}

fn parse_line(line: &str) -> Option<(Key, Fingerprint)> {
    if line.starts_with('#') {
        return None;
    }
    let f: Vec<&str> = line.split('\t').collect();
    let [model, seed, rows, steps, digest, steps_run, detail] = f.as_slice() else {
        return None;
    };
    let key = Key {
        model: model.to_string(),
        seed: seed.parse().ok()?,
        rows: rows.parse().ok()?,
        steps: steps.parse().ok()?,
    };
    let fp = Fingerprint {
        digest: u64::from_str_radix(digest, 16).ok()?,
        steps: steps_run.parse().ok()?,
        detail: (*detail != "-").then(|| detail.to_string()),
    };
    Some((key, fp))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_file_round_trips_and_partial_fingerprints_match() {
        let mut oracle = Oracle::empty();
        let key = Key {
            model: "SPV".into(),
            seed: 3,
            rows: 8,
            steps: 50,
        };
        let fp = oracle.expect(&key);
        assert_eq!(fp.steps, 50);
        let reread: BTreeMap<Key, Fingerprint> =
            oracle.to_tsv().lines().filter_map(parse_line).collect();
        assert_eq!(reread.get(&key), Some(&fp));

        let digest_only = Fingerprint {
            detail: None,
            ..fp.clone()
        };
        assert!(digest_only.matches(&fp));
        let wrong = Fingerprint {
            digest: fp.digest ^ 1,
            ..fp.clone()
        };
        assert!(!wrong.matches(&fp));
        let other_detail = Fingerprint {
            detail: Some("cov=;diag=".into()),
            ..fp.clone()
        };
        assert!(!other_detail.matches(&fp));
    }

    #[test]
    fn checked_in_pins_parse() {
        let pinned = PINNED
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .count();
        assert_eq!(PINNED.lines().filter_map(parse_line).count(), pinned);
    }
}
