//! `perfbench compare OLD NEW`: per (workload, end-to-end metric), both
//! sides' median and quartiles, the change against the metric's bound,
//! and a verdict — improved, unchanged, regressed or unresolved.

use crate::json::Json;
use crate::spec::{self, Better, MetricDef, RunResult};
use crate::stats::{median, quartiles, relative_spread};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// New wins ≥ 90 % of all (old, new) pairs and the medians differ by
    /// more than the old side's interquartile range.
    Improved,
    /// Within the bound, and the spread is within it too.
    Unchanged,
    /// Worse than the bound allows, with a spread within the bound.
    Regressed,
    /// The spread of either side exceeds the bound, so no call is made.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `new` against `old` for metric `def`. Returns the verdict and
/// the signed relative change of the median, positive = worse.
pub fn judge(def: &MetricDef, old: &[f64], new: &[f64]) -> (Verdict, f64) {
    let bound = def.bound.unwrap_or(0.0);
    let (old_med, new_med) = (median(old), median(new));
    let sign = if def.better == Better::Lower {
        1.0
    } else {
        -1.0
    };
    let worse = sign * (new_med - old_med) / old_med.abs();
    let better = |n: f64, o: f64| sign * (n - o) < 0.0;
    let pairs = old.len() * new.len();
    let wins = new
        .iter()
        .map(|&n| old.iter().filter(|&&o| better(n, o)).count())
        .sum::<usize>();
    let [q1, _, q3] = quartiles(old);
    let verdict = if pairs > 0 && wins * 10 >= pairs * 9 && (new_med - old_med).abs() > q3 - q1 {
        Verdict::Improved
    } else if relative_spread(old) > bound || relative_spread(new) > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    (verdict, worse)
}

/// Untraced run records in a results file (JSON lines; other records,
/// such as provenance, are skipped).
pub fn read_runs(text: &str) -> Result<Vec<RunResult>, String> {
    let mut runs = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if let Some(run) = RunResult::from_json(&v) {
            if !run.trace {
                runs.push(run);
            }
        }
    }
    Ok(runs)
}

/// The comparison table and whether anything regressed.
pub fn compare(old: &[RunResult], new: &[RunResult]) -> (String, bool) {
    let collect = |runs: &[RunResult]| {
        let mut by: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
        for run in runs {
            for (metric, value, _) in &run.metrics {
                by.entry((run.workload.clone(), metric.clone()))
                    .or_default()
                    .push(*value);
            }
        }
        by
    };
    let (old_by, new_by) = (collect(old), collect(new));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<13} {:<10} {:>30} {:>30} {:>7} {:>6}  verdict",
        "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "worse", "bound"
    );
    let mut regressed = false;
    for (workload, _) in spec::WORKLOADS {
        for def in spec::end_to_end() {
            let key = (workload.to_string(), def.name.clone());
            let (Some(o), Some(n)) = (old_by.get(&key), new_by.get(&key)) else {
                continue;
            };
            let (verdict, worse) = judge(&def, o, n);
            regressed |= verdict == Verdict::Regressed;
            let side = |xs: &[f64]| {
                let [q1, q2, q3] = quartiles(xs);
                format!("{q2:.4} [{q1:.4}, {q3:.4}]")
            };
            let _ = writeln!(
                out,
                "{workload:<13} {:<10} {:>30} {:>30} {:>6.1}% {:>5.0}%  {} ({} vs {} runs)",
                def.name,
                side(o),
                side(n),
                worse * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                verdict.as_str(),
                o.len(),
                n.len()
            );
        }
    }
    let wrong = old.iter().chain(new).filter(|r| !r.correct).count();
    if wrong > 0 {
        let _ = writeln!(out, "{wrong} run(s) reported incorrect results");
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better) -> MetricDef {
        MetricDef {
            name: "op_min_ms".into(),
            unit: "ms",
            better,
            bound: Some(0.1),
        }
    }

    #[test]
    fn verdicts_follow_bound_spread_and_pair_wins() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let d = def(Better::Lower);
        assert_eq!(
            judge(&d, &base, &[100.2, 99.8, 100.1, 100.0, 99.9]).0,
            Verdict::Unchanged
        );
        let (v, worse) = judge(&d, &base, &[120.0, 121.0, 119.0, 120.5, 119.5]);
        assert_eq!(v, Verdict::Regressed);
        assert!((worse - 0.2).abs() < 1e-9);
        assert_eq!(
            judge(&d, &base, &[90.0, 91.0, 89.0, 90.5, 89.5]).0,
            Verdict::Improved
        );
        assert_eq!(
            judge(&d, &base, &[60.0, 140.0, 100.0, 70.0, 130.0]).0,
            Verdict::Unresolved
        );
        // For a higher-is-better metric, the same rise is an improvement.
        assert_eq!(
            judge(
                &def(Better::Higher),
                &base,
                &[120.0, 121.0, 119.0, 120.5, 119.5]
            )
            .0,
            Verdict::Improved
        );
    }

    #[test]
    fn compare_reads_records_and_flags_regressions() {
        let run = |v: f64| RunResult {
            workload: "long_run".into(),
            seed: 1,
            trace: false,
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![("op_min_ms".into(), v, "ms".into())],
        };
        let text = |vals: &[f64]| {
            let mut s = String::from("{\"provenance\": {\"cpu\": \"x\"}}\n");
            for v in vals {
                s.push_str(&run(*v).record_json());
                s.push('\n');
            }
            s
        };
        let old = read_runs(&text(&[100.0, 100.5, 99.5])).unwrap();
        let new = read_runs(&text(&[130.0, 130.5, 129.5])).unwrap();
        assert_eq!(old.len(), 3);
        let (table, regressed) = compare(&old, &new);
        assert!(regressed, "{table}");
        assert!(
            table.contains("long_run") && table.contains("regressed"),
            "{table}"
        );
        assert!(!compare(&old, &old).1);
        assert!(read_runs("{oops").is_err());
    }
}
