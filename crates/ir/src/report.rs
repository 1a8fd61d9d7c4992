//! Simulation results.
//!
//! Every engine — the interpretive SSE stand-ins and the generated AccMoS
//! simulators — produces the same [`SimulationReport`], so results can be
//! compared directly: coverage summaries, aggregated diagnostics, the
//! monitored-signal log (paper Figure 3's `outputData` repository), and an
//! output digest for differential testing.

use crate::coverage::CoverageSummary;
use crate::diag::{DiagnosticEvent, DiagnosticKind};
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

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
    /// Number of invocations: once per step, or once per step per lane
    /// in a lane simulator. Counted at full rate.
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
    /// Coverage summary, if the engine collected coverage.
    pub coverage: Option<CoverageSummary>,
    /// Aggregated diagnostics, ordered by first occurrence.
    pub diagnostics: Vec<DiagnosticEvent>,
    /// Hits of user-defined signal probes.
    pub custom: Vec<CustomEvent>,
    /// Monitored-signal samples (bounded by the engine's log limit).
    pub signal_log: Vec<SignalSample>,
    /// FNV-1a digest of all root-output values of all steps.
    pub output_digest: u64,
    /// Root output values at the final step, in port order.
    pub final_outputs: Vec<(String, Value)>,
    /// Per-lane sub-reports of a lane-parallel run (empty for scalar
    /// runs). Each entry is the report lane `i` would have produced had it
    /// run alone: per-lane diagnostics, custom hits, signal log, digest
    /// and final outputs. The top-level fields aggregate across lanes
    /// (diagnostics merged, digest folded over lane digests, coverage
    /// OR-reduced); `final_outputs` at the top level are lane 0's.
    pub lane_reports: Vec<SimulationReport>,
    /// Per-site self-profiling counters of a profiled build (empty
    /// unless the simulator was generated with
    /// `CodegenOptions::profile`). Global across lanes — lanes run
    /// sequentially in one thread, sharing the counters.
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

    /// Attach per-lane sub-reports and aggregate them into the top-level
    /// fields: diagnostics and custom hits merge across lanes (earliest
    /// first step, summed counts — what a scalar run over the union of
    /// the stimuli would have reported), `final_outputs` mirror lane 0,
    /// and each lane inherits this report's model/engine/steps/wall
    /// metadata. Coverage and the output digest are *not* touched: the
    /// caller aggregates those from richer sources (OR-reduced bitmaps,
    /// FNV fold of the lane digests). No-op for an empty `lanes`.
    pub fn attach_lanes(&mut self, mut lanes: Vec<SimulationReport>) {
        if lanes.is_empty() {
            return;
        }
        let mut diag: BTreeMap<(String, DiagnosticKind), DiagnosticEvent> = BTreeMap::new();
        let mut custom: BTreeMap<(String, String), CustomEvent> = BTreeMap::new();
        for lane in &mut lanes {
            lane.model = self.model.clone();
            lane.engine = self.engine.clone();
            lane.steps = self.steps;
            lane.wall = self.wall;
            lane.diagnostics.sort_by(|a, b| {
                a.first_step.cmp(&b.first_step).then_with(|| a.actor.cmp(&b.actor))
            });
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
        }
        self.diagnostics = diag.into_values().collect();
        self.diagnostics.sort_by(|a, b| {
            a.first_step.cmp(&b.first_step).then_with(|| a.actor.cmp(&b.actor))
        });
        self.custom = custom.into_values().collect();
        self.final_outputs = lanes[0].final_outputs.clone();
        self.lane_reports = lanes;
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

    #[test]
    fn attach_lanes_aggregates_and_propagates_metadata() {
        let mut agg = SimulationReport::new("CSEV", "accmos");
        agg.steps = 500;
        agg.wall = Duration::from_millis(10);
        let mut lane0 = SimulationReport::new("", "");
        lane0.diagnostics.push(DiagnosticEvent {
            actor: "CSEV_Add".into(),
            kind: DiagnosticKind::WrapOnOverflow,
            first_step: 9,
            count: 2,
        });
        lane0.final_outputs.push(("Out".into(), Value::scalar(Scalar::I32(1))));
        let mut lane1 = SimulationReport::new("", "");
        lane1.diagnostics.push(DiagnosticEvent {
            actor: "CSEV_Add".into(),
            kind: DiagnosticKind::WrapOnOverflow,
            first_step: 3,
            count: 5,
        });
        lane1.final_outputs.push(("Out".into(), Value::scalar(Scalar::I32(2))));
        agg.attach_lanes(vec![lane0, lane1]);
        // One merged event: earliest first step, summed count.
        assert_eq!(agg.diagnostics.len(), 1);
        assert_eq!(agg.diagnostics[0].first_step, 3);
        assert_eq!(agg.diagnostics[0].count, 7);
        // Top-level outputs mirror lane 0; lanes inherit metadata.
        assert_eq!(agg.final_outputs[0].1.to_string(), "1");
        assert_eq!(agg.lane_width(), 2);
        for lane in &agg.lane_reports {
            assert_eq!(lane.model, "CSEV");
            assert_eq!(lane.engine, "accmos");
            assert_eq!(lane.steps, 500);
        }
        // Scalar reports are untouched by an empty attach.
        let mut scalar = sample();
        scalar.attach_lanes(Vec::new());
        assert_eq!(scalar, sample());
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
