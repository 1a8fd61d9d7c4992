//! Simulation results.
//!
//! Every engine — the interpretive SSE stand-ins and the generated AccMoS
//! simulators — produces the same [`SimulationReport`], so results can be
//! compared directly: coverage bitmaps, aggregated diagnostics, the
//! monitored-signal log (paper Figure 3's `outputData` repository), and an
//! output digest for differential testing.

use crate::coverage::CoverageBitmaps;
use crate::diag::{DiagnosticEvent, DiagnosticKind};
use crate::digest::OutputDigest;
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// Most monitored-signal samples a run keeps. The interpreter and the
/// generated C stop logging at the same count, so the two engines'
/// `signal_log`s compare equal.
pub const SIGNAL_LOG_LIMIT: usize = 4096;

/// One recorded sample of a monitored signal.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalSample {
    /// Path key of the monitored output (e.g. `Model_Minus_out`).
    pub path: String,
    /// Simulation step of the sample.
    pub step: u64,
    /// The recorded value.
    pub value: Value,
}

/// A hit of a user-defined signal probe (paper §3.2B, *Custom Signal
/// Diagnose*), aggregated per probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CustomEvent {
    /// Probe name.
    pub name: String,
    /// Path key of the probed actor.
    pub actor: String,
    /// Step of the first hit.
    pub first_step: u64,
    /// Total hits.
    pub count: u64,
}

/// Cumulative self-profiling counters for one instrumented site of a
/// profiled simulator build: one site per actor. Parsed from
/// `ACCMOS:PROF` protocol lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActorProfile {
    /// Site name: the actor's path key.
    pub actor: String,
    /// Cumulative nanoseconds spent in the site on *sampled* steps (the
    /// generated code only reads the clock every sampling period — full
    /// rate timing costs more than a small actor's whole body).
    pub ns: u64,
    /// Number of invocations: once per step (summed over the lanes of a
    /// lane run). Counted at full rate.
    pub calls: u64,
    /// Number of *timed* invocations — the ones that contributed to
    /// `ns`. `ns / timed` is the mean time per call; `timed / calls` is
    /// the effective sampling ratio.
    pub timed: u64,
}

/// The complete result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// Model name.
    pub model: String,
    /// Engine that produced the report (`accmos`, `sse`, `sse-ac`,
    /// `sse-rac`).
    pub engine: String,
    /// Steps actually executed.
    pub steps: u64,
    /// Wall-clock time of the simulation loop (excluding code generation
    /// and compilation, which are reported separately by the pipeline).
    pub wall: Duration,
    /// Coverage, one bitmap per metric, if the engine collected it.
    pub coverage: Option<CoverageBitmaps>,
    /// Aggregated diagnostics, ordered by first occurrence.
    pub diagnostics: Vec<DiagnosticEvent>,
    /// Hits of user-defined signal probes.
    pub custom: Vec<CustomEvent>,
    /// Monitored-signal samples, at most [`SIGNAL_LOG_LIMIT`].
    pub signal_log: Vec<SignalSample>,
    /// FNV-1a digest of all root-output values of all steps.
    pub output_digest: u64,
    /// Root output values at the final step, in port order.
    pub final_outputs: Vec<(String, Value)>,
    /// The reports of a lane run's lanes, in lane order (empty for a
    /// scalar run). Lane `i` is the independent run of its own stimulus;
    /// the top-level fields fold them ([`SimulationReport::fold_lanes`]).
    pub lane_reports: Vec<SimulationReport>,
    /// Per-site self-profiling counters of a profiled build (empty
    /// unless the simulator was generated with
    /// `CodegenOptions::profile`), summed over the lanes of a lane run.
    pub profile: Vec<ActorProfile>,
}

impl SimulationReport {
    /// An empty report scaffold for `model` produced by `engine`.
    pub fn new(model: impl Into<String>, engine: impl Into<String>) -> SimulationReport {
        SimulationReport {
            model: model.into(),
            engine: engine.into(),
            steps: 0,
            wall: Duration::ZERO,
            coverage: None,
            diagnostics: Vec::new(),
            custom: Vec::new(),
            signal_log: Vec::new(),
            output_digest: 0,
            final_outputs: Vec::new(),
            lane_reports: Vec::new(),
            profile: Vec::new(),
        }
    }

    /// Final outputs as bit patterns, element by element, so that a NaN
    /// output equals itself, as it does in the output digest. Engines are
    /// compared on these, not on [`SimulationReport::final_outputs`]'s
    /// float equality.
    pub fn output_bits(&self) -> Vec<(&str, Vec<u64>)> {
        self.final_outputs
            .iter()
            .map(|(name, v)| (name.as_str(), v.elems().iter().map(|s| s.to_bits_u64()).collect()))
            .collect()
    }

    /// Lane width of the run: number of lane sub-reports, or 1 for a
    /// scalar run.
    pub fn lane_width(&self) -> u64 {
        self.lane_reports.len().max(1) as u64
    }

    /// Fold the reports of a job's lanes, each the independent run of
    /// one stimulus, into the job's report. A single lane is the report.
    /// Otherwise the lanes go to [`SimulationReport::lane_reports`] as
    /// they are, each with its own steps and wall, and the top level
    /// aggregates them:
    /// - the output digest is the FNV fold of the lane digests;
    /// - diagnostics and custom hits merge: earliest first step, summed
    ///   counts;
    /// - coverage is the union of the lane bitmaps;
    /// - `final_outputs` are lane 0's, and `steps` is the most any lane
    ///   ran;
    /// - `wall` and the profile counters are summed.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty.
    pub fn fold_lanes(mut lanes: Vec<SimulationReport>) -> SimulationReport {
        assert!(!lanes.is_empty(), "a run has at least one lane");
        if lanes.len() == 1 {
            return lanes.remove(0);
        }
        let first = &lanes[0];
        let mut report = SimulationReport::new(first.model.clone(), first.engine.clone());
        report.final_outputs = first.final_outputs.clone();
        report.profile = first.profile.clone();
        report.coverage = first.coverage.clone();
        let mut digest = OutputDigest::new();
        let mut diag: BTreeMap<(String, DiagnosticKind), DiagnosticEvent> = BTreeMap::new();
        let mut custom: BTreeMap<(String, String), CustomEvent> = BTreeMap::new();
        for (i, lane) in lanes.iter().enumerate() {
            report.steps = report.steps.max(lane.steps);
            report.wall += lane.wall;
            digest.write_u64(lane.output_digest);
            for d in &lane.diagnostics {
                diag.entry((d.actor.clone(), d.kind))
                    .and_modify(|e| {
                        e.first_step = e.first_step.min(d.first_step);
                        e.count += d.count;
                    })
                    .or_insert_with(|| d.clone());
            }
            for c in &lane.custom {
                custom
                    .entry((c.name.clone(), c.actor.clone()))
                    .and_modify(|e| {
                        e.first_step = e.first_step.min(c.first_step);
                        e.count += c.count;
                    })
                    .or_insert_with(|| c.clone());
            }
            if i == 0 {
                continue;
            }
            for (sum, site) in report.profile.iter_mut().zip(&lane.profile) {
                sum.ns += site.ns;
                sum.calls += site.calls;
                sum.timed += site.timed;
            }
            if let (Some(union), Some(bitmaps)) = (&mut report.coverage, &lane.coverage) {
                union.merge(bitmaps);
            }
        }
        report.output_digest = digest.finish();
        report.diagnostics = diag.into_values().collect();
        report.diagnostics.sort_by(|a, b| {
            a.first_step.cmp(&b.first_step).then_with(|| a.actor.cmp(&b.actor))
        });
        report.custom = custom.into_values().collect();
        report.lane_reports = lanes;
        report
    }

    /// The first diagnostic of the given kind, if any occurred.
    pub fn first_diagnostic(&self, kind: DiagnosticKind) -> Option<&DiagnosticEvent> {
        self.diagnostics.iter().filter(|d| d.kind == kind).min_by_key(|d| d.first_step)
    }

    /// Whether any diagnostic of the given kind occurred.
    pub fn has_diagnostic(&self, kind: DiagnosticKind) -> bool {
        self.diagnostics.iter().any(|d| d.kind == kind)
    }

    /// Total diagnostic occurrences across all kinds.
    pub fn diagnostic_count(&self) -> u64 {
        self.diagnostics.iter().map(|d| d.count).sum()
    }

    /// Steps simulated per wall-clock second (0 if no time elapsed).
    pub fn steps_per_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.steps as f64 / secs
        } else {
            0.0
        }
    }
}

impl fmt::Display for SimulationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}] model `{}`: {} steps in {:.3}s ({:.0} steps/s)",
            self.engine,
            self.model,
            self.steps,
            self.wall.as_secs_f64(),
            self.steps_per_second()
        )?;
        if let Some(cov) = &self.coverage {
            writeln!(f, "  coverage: {cov}")?;
        }
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        if !self.final_outputs.is_empty() {
            write!(f, "  outputs:")?;
            for (name, value) in &self.final_outputs {
                write!(f, " {name}={value}")?;
            }
            writeln!(f)?;
        }
        write!(f, "  digest: {:016x}", self.output_digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Scalar;

    fn sample() -> SimulationReport {
        let mut r = SimulationReport::new("CSEV", "accmos");
        r.steps = 1000;
        r.wall = Duration::from_millis(250);
        r.diagnostics.push(DiagnosticEvent {
            actor: "CSEV_Add".into(),
            kind: DiagnosticKind::WrapOnOverflow,
            first_step: 740,
            count: 3,
        });
        r.final_outputs.push(("Out".into(), Value::scalar(Scalar::I32(7))));
        r
    }

    #[test]
    fn first_diagnostic_by_step() {
        let mut r = sample();
        r.diagnostics.push(DiagnosticEvent {
            actor: "CSEV_Mul".into(),
            kind: DiagnosticKind::WrapOnOverflow,
            first_step: 12,
            count: 1,
        });
        assert_eq!(r.first_diagnostic(DiagnosticKind::WrapOnOverflow).unwrap().actor, "CSEV_Mul");
        assert!(r.first_diagnostic(DiagnosticKind::DivisionByZero).is_none());
        assert!(r.has_diagnostic(DiagnosticKind::WrapOnOverflow));
        assert_eq!(r.diagnostic_count(), 4);
    }

    #[test]
    fn steps_per_second() {
        let r = sample();
        assert!((r.steps_per_second() - 4000.0).abs() < 1.0);
        let empty = SimulationReport::new("M", "sse");
        assert_eq!(empty.steps_per_second(), 0.0);
    }

    fn lane(digest: u64, steps: u64, first_step: u64, count: u64, out: i32) -> SimulationReport {
        let mut r = SimulationReport::new("CSEV", "accmos");
        r.steps = steps;
        r.wall = Duration::from_millis(steps);
        r.output_digest = digest;
        r.diagnostics.push(DiagnosticEvent {
            actor: "CSEV_Add".into(),
            kind: DiagnosticKind::WrapOnOverflow,
            first_step,
            count,
        });
        r.final_outputs.push(("Out".into(), Value::scalar(Scalar::I32(out))));
        r.profile.push(ActorProfile { actor: "CSEV_Add".into(), ns: 10, calls: steps, timed: 1 });
        r
    }

    #[test]
    fn fold_lanes_aggregates_and_keeps_each_lanes_own_report() {
        let lanes = vec![lane(1, 1, 0, 1, 7), lane(2, 100, 3, 5, 9)];
        let folded = SimulationReport::fold_lanes(lanes.clone());
        let mut fold = OutputDigest::new();
        fold.write_u64(1);
        fold.write_u64(2);
        assert_eq!(folded.output_digest, fold.finish());
        // One merged event: earliest first step, summed count.
        assert_eq!(folded.diagnostics.len(), 1);
        assert_eq!((folded.diagnostics[0].first_step, folded.diagnostics[0].count), (0, 6));
        assert_eq!(folded.final_outputs[0].1.to_string(), "7", "lane 0's outputs");
        assert_eq!(folded.steps, 100, "the longest lane");
        assert_eq!(folded.wall, Duration::from_millis(101), "walls add up");
        assert_eq!(folded.profile[0].calls, 101, "profile counters add up");
        assert_eq!(folded.lane_width(), 2);
        assert_eq!(folded.lane_reports, lanes, "each lane keeps its own steps and wall");
        // A single lane is the report itself.
        assert_eq!(SimulationReport::fold_lanes(vec![sample()]), sample());
    }

    #[test]
    fn fold_lanes_unions_coverage_bitmaps() {
        use crate::coverage::{CoverageKind, CoverageMap};
        let mut map = CoverageMap::new();
        for _ in 0..3 {
            map.add(CoverageKind::Actor);
        }
        let with_bits = |bits: &[usize]| {
            let mut bm = map.new_bitmaps();
            for &b in bits {
                bm.set(CoverageKind::Actor, b);
            }
            let mut r = SimulationReport::new("M", "sse");
            r.coverage = Some(bm);
            r
        };
        let folded = SimulationReport::fold_lanes(vec![with_bits(&[0]), with_bits(&[0, 2])]);
        assert_eq!(folded.coverage, with_bits(&[0, 2]).coverage);
        let counts = folded.coverage.unwrap().counts(CoverageKind::Actor);
        assert_eq!((counts.covered, counts.total), (2, 3));
    }

    #[test]
    fn display_contains_key_facts() {
        let text = sample().to_string();
        assert!(text.contains("accmos"));
        assert!(text.contains("CSEV"));
        assert!(text.contains("wrap on overflow"));
        assert!(text.contains("Out=7"));
    }
}
