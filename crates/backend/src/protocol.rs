//! The `ACCMOS:` result protocol.
//!
//! Generated simulators print their results as line-oriented records; this
//! module parses them back into an [`accmos_ir::SimulationReport`] so the
//! compiled path is directly comparable with the interpretive engines.
//! Each record is one `ACCMOS:<RECORD> <field>...` line:
//!
//! - `MODEL <name>`, `STEPS <n>`, `TIME_NS <ns>`;
//! - `COV <metric> <total> <word>...`: one metric's bitmap;
//! - `PROF actor=<key> ns=<ns> calls=<n> timed=<n>`: one profiled site;
//! - `DIAG <kind> <actor> <first step> <count>`;
//! - `CUSTOM <probe> <actor> <first step> <count>`;
//! - `SIGNAL <path> <step> <dtype> <len> <word>...`: one logged sample;
//! - `OUT <port> <dtype> <width> <word>...`: one final root output;
//! - `DIGEST <hex>`, then `END`.
//!
//! Any other record is rejected, and lines without the prefix are skipped.

use crate::error::BackendError;
use accmos_ir::{
    ActorProfile, CoverageBitmap, CoverageBitmaps, CoverageKind, CustomEvent, DataType,
    DiagnosticEvent, DiagnosticKind, Scalar, SignalSample, SimulationReport, Value,
};
use std::time::Duration;

fn bad(line: &str, detail: impl Into<String>) -> BackendError {
    BackendError::Protocol { line: line.to_owned(), detail: detail.into() }
}

/// One hex word of a record: hex digits only, at most 64 bits.
fn hex_word(h: &str, line: &str) -> Result<u64, BackendError> {
    h.bytes()
        .all(|b| b.is_ascii_hexdigit())
        .then(|| u64::from_str_radix(h, 16).ok())
        .flatten()
        .ok_or_else(|| bad(line, format!("bad hex `{h}`")))
}

fn parse_value(dt: DataType, hexes: &[&str], line: &str) -> Result<Value, BackendError> {
    let elem = |h: &&str| Ok(Scalar::from_bits_u64(dt, hex_word(h, line)?));
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
    let mut state = ParseState {
        report: SimulationReport::new("", "accmos"),
        bitmaps: CoverageBitmaps::default(),
        saw_cov: false,
        saw_end: false,
        records: 0,
    };
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
struct ParseState {
    report: SimulationReport,
    bitmaps: CoverageBitmaps,
    saw_cov: bool,
    saw_end: bool,
    /// Complete records parsed so far (for truncation diagnostics).
    records: usize,
}

impl ParseState {
    /// Apply one record: `line` whole (for error messages) and its fields
    /// after the `ACCMOS:` prefix.
    fn apply(&mut self, line: &str, fields: &[&str]) -> Result<(), BackendError> {
        match fields.first().copied() {
            Some("MODEL") => {
                self.report.model = fields.get(1).copied().unwrap_or("").to_owned();
            }
            Some("STEPS") => {
                self.report.steps = fields
                    .get(1)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad(line, "bad step count"))?;
            }
            Some("TIME_NS") => {
                let ns: u64 = fields
                    .get(1)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad(line, "bad time"))?;
                self.report.wall = Duration::from_nanos(ns);
            }
            Some("COV") => {
                // `COV <metric> <total> <word>...`: the metric's bitmap,
                // ceil(total / 64) hex words.
                let metric = fields.get(1).copied().unwrap_or("");
                let kind = CoverageKind::ALL
                    .into_iter()
                    .find(|k| k.ident() == metric)
                    .ok_or_else(|| bad(line, format!("unknown metric `{metric}`")))?;
                let total: usize = fields
                    .get(2)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad(line, "bad total count"))?;
                let words = fields[3.min(fields.len())..]
                    .iter()
                    .map(|h| hex_word(h, line))
                    .collect::<Result<Vec<u64>, _>>()?;
                *self.bitmaps.bitmap_mut(kind) =
                    CoverageBitmap::from_words(total, words).map_err(|e| bad(line, e))?;
                self.saw_cov = true;
            }
            Some("PROF") => {
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
                let site = ActorProfile { actor: actor.to_owned(), ns, calls, timed };
                self.report.profile.push(site);
            }
            Some("DIAG") => {
                if fields.len() != 5 {
                    return Err(bad(line, "DIAG needs 4 fields"));
                }
                let kind = DiagnosticKind::parse_ident(fields[1])
                    .ok_or_else(|| bad(line, format!("unknown diagnostic `{}`", fields[1])))?;
                self.report.diagnostics.push(DiagnosticEvent {
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
                self.report.custom.push(CustomEvent {
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
                self.report.signal_log.push(sample);
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
                self.report.final_outputs.push(out);
            }
            Some("DIGEST") => {
                let digest = u64::from_str_radix(
                    fields.get(1).copied().unwrap_or(""),
                    16,
                )
                .map_err(|_| bad(line, "bad digest"))?;
                self.report.output_digest = digest;
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
        let mut report = self.report;
        if self.saw_cov {
            report.coverage = Some(self.bitmaps);
        }
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
ACCMOS:COV actor 10 1f
ACCMOS:COV cond 2 1
ACCMOS:COV dec 4 0
ACCMOS:COV mcdc 8 81
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
        assert_eq!(cov.counts(CoverageKind::Actor).total, 10);
        assert_eq!(cov.percent(CoverageKind::Mcdc), 25.0);
        assert!(cov.bitmap(CoverageKind::Mcdc).get(7));
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
            "ACCMOS:UNSAT dec 17\nACCMOS:END\n",
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
ACCMOS:PROF actor=CSEV_Gain ns=999 calls=100 timed=2
ACCMOS:PROF actor=CSEV_Idle ns=0 calls=0 timed=0
ACCMOS:END
";
        let r = parse_report(text).unwrap();
        assert_eq!(r.profile.len(), 3);
        assert_eq!(
            r.profile[0],
            ActorProfile { actor: "CSEV_Add".into(), ns: 12345, calls: 100, timed: 2 }
        );
        assert_eq!(r.profile[1].actor, "CSEV_Gain");
        assert_eq!(r.profile[2].calls, 0);
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
    fn coverage_bitmaps_round_trip() {
        // 130 points take three words; bits 0, 64 and 129 are set.
        let text = "ACCMOS:COV cond 130 1 1 2\nACCMOS:COV actor 0\nACCMOS:END\n";
        let cov = parse_report(text).unwrap().coverage.unwrap();
        let counts = cov.counts(CoverageKind::Condition);
        assert_eq!((counts.covered, counts.total), (3, 130));
        let bitmap = cov.bitmap(CoverageKind::Condition);
        assert!(bitmap.get(0) && bitmap.get(64) && bitmap.get(129));
        assert_eq!(cov.counts(CoverageKind::Actor).total, 0);
    }

    #[test]
    fn malformed_coverage_bitmaps_rejected() {
        for (record, why) in [
            ("ACCMOS:COV actor 10 zz", "bad hex"),
            ("ACCMOS:COV actor 10 +1", "bad hex"),
            ("ACCMOS:COV actor 10 11111111111111111", "bad hex"),
            ("ACCMOS:COV actor 10", "want 1"),
            ("ACCMOS:COV actor 10 1 1", "want 1"),
            ("ACCMOS:COV actor 0 0", "want 0"),
            ("ACCMOS:COV actor 10 400", "past 10"),
            ("ACCMOS:COV actor 64 0 1", "want 1"),
            ("ACCMOS:COV actor x 1", "bad total"),
        ] {
            let err = parse_report(&format!("{record}\nACCMOS:END\n")).unwrap_err();
            assert!(err.to_string().contains(why), "{record}: {err}");
        }
        // The last valid bit of the last word is accepted.
        assert!(parse_report("ACCMOS:COV actor 10 200\nACCMOS:END\n").is_ok());
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
