//! The `ACCMOS:` result protocol.
//!
//! Generated simulators print their results as line-oriented records; this
//! module parses them back into an [`accmos_ir::SimulationReport`] so the
//! compiled path is directly comparable with the interpretive engines.

use crate::error::BackendError;
use accmos_ir::{
    ActorProfile, CoverageKind, CoverageSummary, CustomEvent, DataType, DiagnosticEvent,
    DiagnosticKind, Scalar, SignalSample, SimulationReport, Value,
};
use std::time::Duration;

fn bad(line: &str, detail: impl Into<String>) -> BackendError {
    BackendError::Protocol { line: line.to_owned(), detail: detail.into() }
}

fn parse_value(dt: DataType, hexes: &[&str], line: &str) -> Result<Value, BackendError> {
    let elem = |h: &&str| {
        let bits = u64::from_str_radix(h, 16).map_err(|_| bad(line, format!("bad hex `{h}`")))?;
        Ok(Scalar::from_bits_u64(dt, bits))
    };
    match hexes {
        [] => Err(bad(line, "empty value")),
        [h] => elem(h).map(Value::scalar),
        _ => hexes.iter().map(elem).collect::<Result<_, _>>().map(Value::vector),
    }
}

/// Parse a simulator's standard output into a report.
///
/// # Errors
///
/// Returns [`BackendError::Protocol`] on malformed records or if the
/// terminating `ACCMOS:END` line is missing. Truncated streams — a
/// missing `ACCMOS:END`, or a final line cut off mid-record (no trailing
/// newline) — are reported with the partial line and a "truncated after N
/// records" detail, so a killed or crashed simulator's output is
/// distinguishable from a protocol bug.
pub fn parse_report(stdout: &str) -> Result<SimulationReport, BackendError> {
    let mut state = ParseState::default();
    // A stream that does not end in a newline was cut off mid-record:
    // the last line is a partial write, not a (possibly malformed) record.
    let ends_clean = stdout.is_empty() || stdout.ends_with('\n');
    let mut lines = stdout.lines().peekable();
    let mut last_protocol_line: Option<&str> = None;
    // Reused across records: one allocation per stream, not per line.
    let mut fields = Vec::new();

    while let Some(line) = lines.next() {
        let Some(rest) = line.strip_prefix("ACCMOS:") else {
            continue; // tolerate interleaved non-protocol output
        };
        last_protocol_line = Some(line);
        fields.clear();
        fields.extend(rest.split_ascii_whitespace());
        if let Err(e) = state.apply(line, &fields) {
            if !ends_clean && lines.peek().is_none() {
                return Err(bad(
                    line,
                    format!(
                        "stream truncated after {} complete record(s), mid-record: {}",
                        state.records,
                        protocol_detail(&e)
                    ),
                ));
            }
            return Err(e);
        }
    }

    if !state.saw_end {
        return Err(bad(
            last_protocol_line.unwrap_or("<eof>"),
            format!(
                "missing ACCMOS:END (truncated after {} record(s))",
                state.records
            ),
        ));
    }
    state.finish()
}

fn protocol_detail(e: &BackendError) -> String {
    match e {
        BackendError::Protocol { detail, .. } => detail.clone(),
        other => other.to_string(),
    }
}

/// Accumulator for one protocol stream.
#[derive(Default)]
struct ParseState {
    report: Option<SimulationReport>,
    coverage: CoverageSummary,
    saw_cov: bool,
    saw_end: bool,
    /// Lane sub-reports of a lane-parallel stream (empty for scalar).
    lane_reports: Vec<SimulationReport>,
    /// Which lane section the stream is currently inside, if any.
    /// Per-lane records (`DIAG`, `CUSTOM`, `SIGNAL`, `OUT`, `DIGEST`)
    /// route here; everything before the first `LANE` marker — including
    /// the aggregate `DIGEST` — belongs to the top-level report.
    current_lane: Option<usize>,
    /// Complete records parsed so far (for truncation diagnostics).
    records: usize,
}

impl ParseState {
    /// The report that per-lane-capable records should land in: the
    /// current lane's sub-report inside a `LANE` section, else the
    /// top-level report.
    fn target(&mut self) -> &mut SimulationReport {
        let report =
            self.report.get_or_insert_with(|| SimulationReport::new("", "accmos"));
        match self.current_lane {
            Some(l) => &mut self.lane_reports[l],
            None => report,
        }
    }

    /// Apply one record: `line` whole (for error messages) and its fields
    /// after the `ACCMOS:` prefix.
    fn apply(&mut self, line: &str, fields: &[&str]) -> Result<(), BackendError> {
        self.report.get_or_insert_with(|| SimulationReport::new("", "accmos"));
        match fields.first().copied() {
            Some("MODEL") => {
                self.report.as_mut().expect("inserted above").model =
                    fields.get(1).copied().unwrap_or("").to_owned();
            }
            Some("STEPS") => {
                self.report.as_mut().expect("inserted above").steps = fields
                    .get(1)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad(line, "bad step count"))?;
            }
            Some("TIME_NS") => {
                let ns: u64 = fields
                    .get(1)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad(line, "bad time"))?;
                self.report.as_mut().expect("inserted above").wall =
                    Duration::from_nanos(ns);
            }
            Some("LANES") => {
                let n: usize = fields
                    .get(1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| bad(line, "bad lane count"))?;
                self.lane_reports =
                    (0..n).map(|_| SimulationReport::new("", "accmos")).collect();
            }
            Some("LANE") => {
                let l: usize = fields
                    .get(1)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad(line, "bad lane index"))?;
                if l >= self.lane_reports.len() {
                    return Err(bad(
                        line,
                        format!(
                            "lane index {l} out of range (LANES {})",
                            self.lane_reports.len()
                        ),
                    ));
                }
                self.current_lane = Some(l);
            }
            Some("COV") => {
                let coverage = &mut self.coverage;
                let saw_cov = &mut self.saw_cov;
                let metric = fields.get(1).copied().unwrap_or("");
                let kind = CoverageKind::ALL
                    .into_iter()
                    .find(|k| k.ident() == metric)
                    .ok_or_else(|| bad(line, format!("unknown metric `{metric}`")))?;
                let covered: usize = fields
                    .get(2)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad(line, "bad covered count"))?;
                let total: usize = fields
                    .get(3)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad(line, "bad total count"))?;
                let counts = coverage.counts_mut(kind);
                counts.covered = covered;
                counts.total = total;
                *saw_cov = true;
            }
            Some("UNSAT") => {
                let metric = fields.get(1).copied().unwrap_or("");
                let kind = CoverageKind::ALL
                    .into_iter()
                    .find(|k| k.ident() == metric)
                    .ok_or_else(|| bad(line, format!("unknown metric `{metric}`")))?;
                let n: usize = fields
                    .get(2)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad(line, "bad unsatisfiable count"))?;
                self.coverage.set_unsatisfiable(kind, n);
            }
            Some("PROF") => {
                // Self-profiling counters are global (shared across
                // lanes), so they land in the top-level report no matter
                // where they appear in the stream.
                if fields.len() != 5 {
                    return Err(bad(line, "PROF needs 4 fields"));
                }
                let actor = fields[1]
                    .strip_prefix("actor=")
                    .filter(|a| !a.is_empty())
                    .ok_or_else(|| bad(line, "PROF missing actor= field"))?;
                let ns: u64 = fields[2]
                    .strip_prefix("ns=")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad(line, "bad PROF ns= field"))?;
                let calls: u64 = fields[3]
                    .strip_prefix("calls=")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad(line, "bad PROF calls= field"))?;
                let timed: u64 = fields[4]
                    .strip_prefix("timed=")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad(line, "bad PROF timed= field"))?;
                self.report
                    .as_mut()
                    .expect("inserted above")
                    .profile
                    .push(ActorProfile { actor: actor.to_owned(), ns, calls, timed });
            }
            Some("DIAG") => {
                if fields.len() != 5 {
                    return Err(bad(line, "DIAG needs 4 fields"));
                }
                let kind = DiagnosticKind::parse_ident(fields[1])
                    .ok_or_else(|| bad(line, format!("unknown diagnostic `{}`", fields[1])))?;
                self.target().diagnostics.push(DiagnosticEvent {
                    actor: fields[2].to_owned(),
                    kind,
                    first_step: fields[3].parse().map_err(|_| bad(line, "bad first step"))?,
                    count: fields[4].parse().map_err(|_| bad(line, "bad count"))?,
                });
            }
            Some("CUSTOM") => {
                if fields.len() != 5 {
                    return Err(bad(line, "CUSTOM needs 4 fields"));
                }
                self.target().custom.push(CustomEvent {
                    name: fields[1].to_owned(),
                    actor: fields[2].to_owned(),
                    first_step: fields[3].parse().map_err(|_| bad(line, "bad first step"))?,
                    count: fields[4].parse().map_err(|_| bad(line, "bad count"))?,
                });
            }
            Some("SIGNAL") => {
                if fields.len() < 5 {
                    return Err(bad(line, "SIGNAL needs at least 4 fields"));
                }
                let dt: DataType =
                    fields[3].parse().map_err(|_| bad(line, "unknown signal dtype"))?;
                let len: usize = fields[4].parse().map_err(|_| bad(line, "bad length"))?;
                if fields.len() != 5 + len {
                    return Err(bad(line, "SIGNAL element count mismatch"));
                }
                let sample = SignalSample {
                    path: fields[1].to_owned(),
                    step: fields[2].parse().map_err(|_| bad(line, "bad step"))?,
                    value: parse_value(dt, &fields[5..], line)?,
                };
                self.target().signal_log.push(sample);
            }
            Some("OUT") => {
                if fields.len() < 4 {
                    return Err(bad(line, "OUT needs at least 3 fields"));
                }
                let dt: DataType =
                    fields[2].parse().map_err(|_| bad(line, "unknown output dtype"))?;
                let width: usize = fields[3].parse().map_err(|_| bad(line, "bad width"))?;
                if fields.len() != 4 + width {
                    return Err(bad(line, "OUT element count mismatch"));
                }
                let out = (fields[1].to_owned(), parse_value(dt, &fields[4..], line)?);
                self.target().final_outputs.push(out);
            }
            Some("DIGEST") => {
                let digest = u64::from_str_radix(
                    fields.get(1).copied().unwrap_or(""),
                    16,
                )
                .map_err(|_| bad(line, "bad digest"))?;
                self.target().output_digest = digest;
            }
            Some("END") => {
                self.saw_end = true;
            }
            other => {
                return Err(bad(line, format!("unknown record `{}`", other.unwrap_or(""))));
            }
        }
        self.records += 1;
        Ok(())
    }

    fn finish(self) -> Result<SimulationReport, BackendError> {
        let mut report =
            self.report.unwrap_or_else(|| SimulationReport::new("", "accmos"));
        if self.saw_cov {
            report.coverage = Some(self.coverage);
        }
        // Diagnostics and custom hits of a lane run arrive per lane; the
        // top-level report aggregates them across lanes (earliest first
        // step, summed counts) and mirrors lane 0's final outputs, so
        // single-report consumers still see what a scalar run over the
        // union of the stimuli would have reported. No-op for scalar runs.
        report.attach_lanes(self.lane_reports);
        // Match the interpretive engines' ordering.
        report.diagnostics.sort_by(|a, b| {
            a.first_step.cmp(&b.first_step).then_with(|| a.actor.cmp(&b.actor))
        });
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
ACCMOS:MODEL CSEV
ACCMOS:STEPS 1000
ACCMOS:TIME_NS 250000000
ACCMOS:COV actor 5 10
ACCMOS:COV cond 1 2
ACCMOS:COV dec 0 4
ACCMOS:COV mcdc 2 8
ACCMOS:DIAG overflow CSEV_Add 740 3
ACCMOS:DIAG divzero CSEV_Div 2 1
ACCMOS:CUSTOM spike CSEV_Add 10 4
ACCMOS:SIGNAL CSEV_Add_out 7 i32 1 ffffffff
ACCMOS:OUT Out i32 1 2a
ACCMOS:DIGEST 00000000deadbeef
ACCMOS:END
";

    #[test]
    fn full_report_roundtrip() {
        let r = parse_report(SAMPLE).unwrap();
        assert_eq!(r.model, "CSEV");
        assert_eq!(r.steps, 1000);
        assert_eq!(r.wall, Duration::from_millis(250));
        let cov = r.coverage.unwrap();
        assert_eq!(cov.counts(CoverageKind::Actor).covered, 5);
        assert_eq!(cov.percent(CoverageKind::Mcdc), 25.0);
        // sorted by first step
        assert_eq!(r.diagnostics[0].actor, "CSEV_Div");
        assert_eq!(r.diagnostics[1].count, 3);
        assert_eq!(r.custom[0].name, "spike");
        assert_eq!(r.signal_log[0].value, Value::scalar(Scalar::I32(-1)));
        assert_eq!(r.final_outputs[0].1, Value::scalar(Scalar::I32(42)));
        assert_eq!(r.output_digest, 0xdead_beef);
    }

    #[test]
    fn missing_end_rejected() {
        let err = parse_report("ACCMOS:MODEL X\n").unwrap_err();
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn missing_end_reports_record_count_and_last_line() {
        let err = parse_report("ACCMOS:MODEL X\nACCMOS:STEPS 5\n").unwrap_err();
        let BackendError::Protocol { line, detail } = &err else {
            panic!("expected Protocol error, got {err}");
        };
        assert_eq!(line, "ACCMOS:STEPS 5", "carries the last protocol line seen");
        assert!(detail.contains("truncated after 2 record(s)"), "{detail}");
    }

    #[test]
    fn mid_record_truncation_is_reported_as_truncation() {
        // The stream ends mid-record (no trailing newline): the partial
        // line must surface as truncation with the record count, not as a
        // generic parse failure.
        let text = "ACCMOS:MODEL X\nACCMOS:STEPS 100\nACCMOS:SIGNAL M_Add_out 7 i3";
        let err = parse_report(text).unwrap_err();
        let BackendError::Protocol { line, detail } = &err else {
            panic!("expected Protocol error, got {err}");
        };
        assert_eq!(line, "ACCMOS:SIGNAL M_Add_out 7 i3", "carries the partial line");
        assert!(
            detail.contains("truncated after 2 complete record(s)"),
            "detail should count complete records: {detail}"
        );
        // A *complete* malformed record (trailing newline present) stays a
        // plain parse failure.
        let err = parse_report("ACCMOS:SIGNAL M_Add_out 7 i3\n").unwrap_err();
        assert!(
            !err.to_string().contains("mid-record"),
            "complete lines are not truncation: {err}"
        );
    }

    #[test]
    fn empty_output_is_truncation_at_eof() {
        let err = parse_report("").unwrap_err();
        let BackendError::Protocol { line, detail } = &err else {
            panic!("expected Protocol error, got {err}");
        };
        assert_eq!(line, "<eof>");
        assert!(detail.contains("truncated after 0 record(s)"), "{detail}");
    }

    #[test]
    fn malformed_records_rejected() {
        for bad_line in [
            "ACCMOS:COV bogus 1 2\nACCMOS:END\n",
            "ACCMOS:DIAG overflow X 1\nACCMOS:END\n",
            "ACCMOS:OUT Out i32 2 2a\nACCMOS:END\n",
            "ACCMOS:WHAT 1\nACCMOS:END\n",
            "ACCMOS:DIGEST zz\nACCMOS:END\n",
        ] {
            assert!(parse_report(bad_line).is_err(), "should reject {bad_line}");
        }
    }

    #[test]
    fn prof_records_roundtrip() {
        let text = "\
ACCMOS:MODEL CSEV
ACCMOS:STEPS 100
ACCMOS:PROF actor=CSEV_Add ns=12345 calls=100 timed=2
ACCMOS:PROF actor=fused:CSEV_Gain+5 ns=999 calls=100 timed=2
ACCMOS:PROF actor=CSEV_Idle ns=0 calls=0 timed=0
ACCMOS:END
";
        let r = parse_report(text).unwrap();
        assert_eq!(r.profile.len(), 3);
        assert_eq!(
            r.profile[0],
            ActorProfile { actor: "CSEV_Add".into(), ns: 12345, calls: 100, timed: 2 }
        );
        assert_eq!(r.profile[1].actor, "fused:CSEV_Gain+5");
        assert_eq!(r.profile[2].calls, 0);
    }

    #[test]
    fn prof_records_in_lane_streams_stay_global() {
        // PROF counters are shared across lanes; even a record printed
        // inside a LANE section belongs to the top-level report.
        let text = "\
ACCMOS:MODEL M
ACCMOS:LANES 2
ACCMOS:PROF actor=M_Add ns=10 calls=4 timed=1
ACCMOS:LANE 0
ACCMOS:PROF actor=M_Gain ns=20 calls=4 timed=1
ACCMOS:LANE 1
ACCMOS:END
";
        let r = parse_report(text).unwrap();
        assert_eq!(r.profile.len(), 2);
        assert!(r.lane_reports.iter().all(|l| l.profile.is_empty()));
    }

    #[test]
    fn garbled_prof_records_rejected() {
        for bad_line in [
            "ACCMOS:PROF actor=X ns=1 calls=2\nACCMOS:END\n",
            "ACCMOS:PROF actor=X ns=1 calls=2 timed=3 extra=4\nACCMOS:END\n",
            "ACCMOS:PROF X 1 2 3\nACCMOS:END\n",
            "ACCMOS:PROF actor= ns=1 calls=2 timed=1\nACCMOS:END\n",
            "ACCMOS:PROF actor=X ns=abc calls=2 timed=1\nACCMOS:END\n",
            "ACCMOS:PROF actor=X ns=1 calls=-2 timed=1\nACCMOS:END\n",
            "ACCMOS:PROF actor=X ns=1 calls=2 timed=x\nACCMOS:END\n",
            "ACCMOS:PROF actor=X calls=2 ns=1 timed=1\nACCMOS:END\n",
        ] {
            assert!(parse_report(bad_line).is_err(), "should reject {bad_line}");
        }
    }

    #[test]
    fn non_protocol_lines_tolerated() {
        let text = "WARNING: something\nACCMOS:MODEL M\nACCMOS:STEPS 1\nACCMOS:END\n";
        let r = parse_report(text).unwrap();
        assert_eq!(r.model, "M");
        assert!(r.coverage.is_none());
    }

    #[test]
    fn lane_stream_routes_and_aggregates() {
        let text = "\
ACCMOS:MODEL CSEV
ACCMOS:STEPS 100
ACCMOS:TIME_NS 1000
ACCMOS:LANES 2
ACCMOS:COV actor 5 10
ACCMOS:DIGEST 00000000000000aa
ACCMOS:LANE 0
ACCMOS:DIAG overflow CSEV_Add 7 2
ACCMOS:OUT Out i32 1 1
ACCMOS:DIGEST 0000000000000001
ACCMOS:LANE 1
ACCMOS:DIAG overflow CSEV_Add 3 5
ACCMOS:OUT Out i32 1 2
ACCMOS:DIGEST 0000000000000002
ACCMOS:END
";
        let r = parse_report(text).unwrap();
        assert_eq!(r.lane_width(), 2);
        // The aggregate digest printed before the first LANE marker is
        // the top-level digest; per-lane digests land in the sub-reports.
        assert_eq!(r.output_digest, 0xaa);
        assert_eq!(r.lane_reports[0].output_digest, 1);
        assert_eq!(r.lane_reports[1].output_digest, 2);
        // Lane metadata is copied from the shared header records.
        assert_eq!(r.lane_reports[1].model, "CSEV");
        assert_eq!(r.lane_reports[1].steps, 100);
        // Diagnostics aggregate across lanes: earliest first step, summed
        // counts.
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].first_step, 3);
        assert_eq!(r.diagnostics[0].count, 7);
        assert_eq!(r.lane_reports[0].diagnostics[0].count, 2);
        // Top-level outputs mirror lane 0; coverage stays shared.
        assert_eq!(r.final_outputs[0].1, Value::scalar(Scalar::I32(1)));
        assert_eq!(r.lane_reports[1].final_outputs[0].1, Value::scalar(Scalar::I32(2)));
        assert_eq!(r.coverage.unwrap().counts(CoverageKind::Actor).covered, 5);
        assert!(r.lane_reports[0].coverage.is_none());
    }

    #[test]
    fn lane_index_out_of_range_rejected() {
        let text = "ACCMOS:LANES 2\nACCMOS:LANE 2\nACCMOS:END\n";
        let err = parse_report(text).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        assert!(parse_report("ACCMOS:LANES 0\nACCMOS:END\n").is_err());
    }

    #[test]
    fn scalar_stream_has_no_lane_reports() {
        let r = parse_report(SAMPLE).unwrap();
        assert!(r.lane_reports.is_empty());
        assert_eq!(r.lane_width(), 1);
    }

    #[test]
    fn f64_output_decoding() {
        let bits = 1.5f64.to_bits();
        let text = format!("ACCMOS:OUT Y f64 1 {bits:x}\nACCMOS:END\n");
        let r = parse_report(&text).unwrap();
        assert_eq!(r.final_outputs[0].1, Value::scalar(Scalar::F64(1.5)));
    }
}
