//! What the benchmark measures: workload names, metric definitions (the
//! source `BENCHMARK.json` mirrors — a test keeps the two equal) and the
//! per-run result record.

use crate::json::Json;

/// The workloads, each with the one-line reason it exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "cold_suite",
        "MDLX text to report with an empty cache, 2 at a time, for the 7 Table 1 models that compile in under 1 s: cc is >95% of it",
    ),
    (
        "long_run",
        "Table 2 traffic on a warm cache, 200k steps per model: the generated loop is ~90% of wall and cc is bypassed",
    ),
    (
        "sse_baseline",
        "the interpretive SSE stand-in over every model: the baseline and fallback engine, which bypasses codegen and cc",
    ),
    (
        "serve_burst",
        "short trusted jobs through the in-process serve daemon, 2 outstanding: per-job fixed cost dominates, cc and loop do not",
    ),
    (
        "batch_sweep",
        "short jobs through BatchRunner with 2 workers: the spawn+pipe dispatch path with per-job codegen and compile dedup",
    ),
];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput, counts of useful work).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: Better, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// Models every full-size workload runs, in Table 1 order.
pub fn table1_models() -> Vec<&'static str> {
    accmos_models::TABLE1
        .iter()
        .map(|(name, _, _)| *name)
        .collect()
}

/// End-to-end metrics, printed by every workload with tracing off.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    vec![
        // Set-up is the largest bound: it is the noisiest and only has to
        // catch work moved out of the measured window.
        def("setup_s", "s", Lower, Some(0.25)),
        def("op_min_ms", "ms", Lower, Some(0.25)),
    ]
}

/// Per-layer metrics, printed by every workload with tracing on. Layers a
/// workload never calls read 0.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut defs: Vec<MetricDef> = LAYERS
        .iter()
        .map(|l| def(&format!("{l}_ms"), "ms", Lower, None))
        .collect();
    for (name, unit, better) in [
        ("op_p50_ms", "ms", Lower),
        ("ops_s", "1/s", Higher),
        ("peak_rss_mb", "MB", Lower),
        ("proven_sites", "count", Higher),
        ("c_kb", "KiB", Lower),
        ("report_kb", "KiB", Lower),
        ("cache_hit_ratio", "ratio", Higher),
        ("retries", "count", Lower),
        ("loop_ns_per_step", "ns", Lower),
        ("interp_ns_per_step", "ns", Lower),
        ("cc_share_pct", "%", Lower),
        ("loop_share_pct", "%", Lower),
        ("trace_overhead_pct", "%", Lower),
        ("tail_ms", "ms", Lower),
        ("tail_pct", "%", Higher),
        ("samples", "count", Higher),
        ("ack_ms", "ms", Lower),
        ("oracle_s", "s", Lower),
    ] {
        defs.push(def(name, unit, better, None));
    }
    for model in table1_models() {
        defs.push(def(&format!("cc_exe_s.{model}"), "s", Lower, None));
    }
    for model in table1_models() {
        defs.push(def(&format!("loop_ns_per_step.{model}"), "ns", Lower, None));
    }
    defs
}

/// The layers a replayed operation is split into, each reported as mean
/// milliseconds per operation (`<layer>_ms`).
pub const LAYERS: [&str; 15] = [
    "parse",
    "preprocess",
    "analyze",
    "codegen",
    "stimulus",
    "cc_exe",
    "cc_so",
    "cache_fetch",
    "spawn",
    "dylib_load",
    "dylib_entry",
    "loop",
    "protocol",
    "ledger",
    "interp",
];

/// One run's result: the contract line the benchmark prints last, plus
/// the labels a results file needs to group runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run (per-layer metrics).
    pub trace: bool,
    /// Every checked output matched its reference and no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, degraded or mismatched.
    pub failed: u64,
    /// `(name, value, unit)` in definition order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    fn contract_members(&self) -> Vec<(String, Json)> {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let m = vec![
                    ("value".to_string(), Json::Num(*value)),
                    ("unit".to_string(), Json::Str(unit.clone())),
                ];
                (name.clone(), Json::Obj(m))
            })
            .collect();
        vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ]
    }

    /// The last stdout line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn contract_json(&self) -> String {
        Json::Obj(self.contract_members()).to_string_compact()
    }

    /// A results-file line: `workload`, `seed` and `trace`, then the
    /// contract keys.
    pub fn record_json(&self) -> String {
        let mut members = vec![
            ("workload".to_string(), Json::Str(self.workload.clone())),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("trace".to_string(), Json::Bool(self.trace)),
        ];
        members.extend(self.contract_members());
        Json::Obj(members).to_string_compact()
    }

    /// Read back a [`RunResult::record_json`] line; `None` for any other
    /// record (e.g. provenance).
    pub fn from_json(v: &Json) -> Option<RunResult> {
        let metrics = v
            .get("metrics")?
            .members()
            .iter()
            .map(|(name, m)| {
                Some((
                    name.clone(),
                    m.get("value")?.num()?,
                    m.get("unit")?.str()?.to_string(),
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(RunResult {
            workload: v.get("workload")?.str()?.to_string(),
            seed: v.get("seed")?.num()? as u64,
            trace: matches!(v.get("trace")?, Json::Bool(true)),
            correct: matches!(v.get("correct")?, Json::Bool(true)),
            attempted: v.get("attempted")?.num()? as u64,
            failed: v.get("failed")?.num()? as u64,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            workload: "long_run".into(),
            seed: 7,
            trace: false,
            correct: true,
            attempted: 40,
            failed: 0,
            metrics: vec![
                ("setup_s".into(), 5.123456789, "s".into()),
                ("op_ms".into(), 98.25, "ms".into()),
            ],
        }
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let v = Json::parse(&sample().contract_json()).unwrap();
        let keys: Vec<&str> = v.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(
            m.get("value").unwrap().num(),
            Some(5.123456789),
            "all digits kept"
        );
        assert_eq!(m.get("unit").unwrap().str(), Some("s"));
    }

    #[test]
    fn record_round_trips_with_stable_key_order() {
        let line = sample().record_json();
        let back = RunResult::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, sample());
        assert_eq!(back.record_json(), line);
        assert!(RunResult::from_json(&Json::parse("{\"provenance\": {}}").unwrap()).is_none());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut names: Vec<&str> = all.iter().map(|d| d.name.as_str()).collect();
        for name in &names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric name");
        assert!(all
            .iter()
            .all(|d| d.bound.is_none_or(|b| b > 0.0 && b <= 0.25)));
    }
}
