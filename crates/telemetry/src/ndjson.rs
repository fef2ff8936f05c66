//! The NDJSON structured run log: one JSON object per run.
//!
//! Layout: every line is a flat object with the run's coordinates
//! (`experiment`, `program`, `tool`, `run`, `seed`), its judged outcome
//! (`outcome` tag + `failed` flag) and the deterministic [`RunMetrics`]
//! counters. The default record is a pure function of the run's seed, so a
//! log written at `--jobs 8` is byte-identical to the serial one — the
//! writer is always fed in canonical (program, tool, run) order after the
//! shards merge. No line carries a wall-clock duration: per-run time stays
//! in the explicitly non-deterministic outputs (`timing_table()` and the
//! journal's `wall_us`).
//!
//! All writes propagate `io::Result` — a full disk or a closed pipe is an
//! error the campaign reports, not a panic.

use crate::run::RunMetrics;
use mtt_json::{Json, ToJson};
use std::io::{self, BufWriter, Write};

/// Field names every run-log line must carry, in emission order — the
/// documented schema, used by `mtt metrics-check` and the CI validator.
pub const RUN_LOG_REQUIRED_FIELDS: &[&str] = &[
    "experiment",
    "program",
    "tool",
    "tool_spec",
    "run",
    "seed",
    "outcome",
    "failed",
    "events",
    "sched_points",
    "context_switches",
    "forced_yields",
    "noise_injections",
    "spurious_wakeups",
    "lock_acquires",
    "lock_contentions",
    "waits",
    "notifies",
    "threads",
    "steps_to_first_bug",
];

/// One run-log line before serialization.
#[derive(Clone, Debug, PartialEq)]
pub struct RunLogRecord {
    /// Experiment key (`e1`, `profile`, …).
    pub experiment: String,
    /// Program under test.
    pub program: String,
    /// Tool configuration name.
    pub tool: String,
    /// Canonical tool-spec string the run can be re-created from
    /// (`mtt tools validate` accepts it; see `mtt-tools`).
    pub tool_spec: String,
    /// Run index within the (program, tool) cell.
    pub run: u64,
    /// The seed that defined the execution.
    pub seed: u64,
    /// Outcome tag (`completed`, `deadlock`, `step-limit`, `panic`,
    /// `assert-stop`).
    pub outcome: String,
    /// Did the program's oracle judge the run as having manifested a bug?
    pub failed: bool,
    /// Execution-backend tag (`"native"`), present only when the run
    /// executed on a non-model backend. Optional so every log written by a
    /// model campaign — which is all of them before the native backend
    /// existed — stays byte-identical.
    pub backend: Option<String>,
    /// Canonical Mazurkiewicz-trace fingerprint of the run's HB partial
    /// order (32 hex digits), when the campaign computed one. Optional so
    /// logs written by fingerprint-less producers stay schema-valid.
    pub fingerprint: Option<String>,
    /// Deterministic per-run counters.
    pub metrics: RunMetrics,
}

impl RunLogRecord {
    fn to_json_line(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("experiment".into(), self.experiment.to_json()),
            ("program".into(), self.program.to_json()),
            ("tool".into(), self.tool.to_json()),
            ("tool_spec".into(), self.tool_spec.to_json()),
            ("run".into(), self.run.to_json()),
            ("seed".into(), self.seed.to_json()),
            ("outcome".into(), self.outcome.to_json()),
            ("failed".into(), self.failed.to_json()),
        ];
        if let Some(backend) = &self.backend {
            fields.push(("backend".into(), backend.to_json()));
        }
        if let Some(fp) = &self.fingerprint {
            fields.push(("fingerprint".into(), fp.to_json()));
        }
        match self.metrics.to_json() {
            Json::Obj(metric_fields) => fields.extend(metric_fields),
            other => fields.push(("metrics".into(), other)),
        }
        Json::Obj(fields)
    }
}

/// Streaming NDJSON writer over any `io::Write`.
pub struct RunLogWriter<W: Write> {
    w: BufWriter<W>,
    lines: u64,
}

impl<W: Write> RunLogWriter<W> {
    /// Wrap `w`.
    pub fn new(w: W) -> Self {
        RunLogWriter {
            w: BufWriter::new(w),
            lines: 0,
        }
    }

    /// Append one record as one line.
    pub fn write_record(&mut self, rec: &RunLogRecord) -> io::Result<()> {
        let line = rec.to_json_line().dump();
        self.w.write_all(line.as_bytes())?;
        self.w.write_all(b"\n")?;
        self.lines += 1;
        Ok(())
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flush buffered lines to the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }

    /// Flush and return the underlying writer.
    pub fn into_inner(self) -> io::Result<W> {
        self.w.into_inner().map_err(|e| e.into_error())
    }
}

/// Validate one NDJSON run-log line against the documented schema: it must
/// parse as a JSON object and carry every [`RUN_LOG_REQUIRED_FIELDS`] key
/// with a sane type. Returns a description of the first violation.
pub fn check_run_log_line(line: &str) -> Result<(), String> {
    let v = Json::parse(line).map_err(|e| format!("not valid JSON: {e}"))?;
    let Json::Obj(_) = v else {
        return Err("line is not a JSON object".into());
    };
    for field in RUN_LOG_REQUIRED_FIELDS {
        let Some(val) = v.get(field) else {
            return Err(format!("missing required field `{field}`"));
        };
        let ok = match *field {
            "experiment" | "program" | "tool" | "tool_spec" | "outcome" => val.as_str().is_some(),
            "failed" => matches!(val, Json::Bool(_)),
            "steps_to_first_bug" => matches!(val, Json::Null) || val.as_u64().is_some(),
            _ => val.as_u64().is_some(),
        };
        if !ok {
            return Err(format!("field `{field}` has the wrong type"));
        }
    }
    // `fingerprint` is optional (older producers omit it), but when present
    // it must be a string.
    if let Some(fp) = v.get("fingerprint") {
        if fp.as_str().is_none() {
            return Err("field `fingerprint` has the wrong type".into());
        }
    }
    // `backend` is optional (model runs omit it), but when present it must
    // name a known execution backend.
    if let Some(b) = v.get("backend") {
        match b.as_str() {
            Some("model" | "native") => {}
            Some(other) => return Err(format!("unknown backend `{other}`")),
            None => return Err("field `backend` has the wrong type".into()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(run: u64) -> RunLogRecord {
        RunLogRecord {
            experiment: "e1".into(),
            program: "lost_update".into(),
            tool: "none".into(),
            tool_spec: "sticky:0.9+name=none".into(),
            run,
            seed: 0x5eed + run,
            outcome: "completed".into(),
            failed: run.is_multiple_of(2),
            backend: None,
            fingerprint: (run > 0).then(|| format!("{:032x}", 0xabad1dea_u128 + u128::from(run))),
            metrics: RunMetrics {
                events: 10 + run,
                sched_points: 20,
                ..Default::default()
            },
        }
    }

    #[test]
    fn default_log_is_deterministic_and_schema_valid() {
        let mut buf = Vec::new();
        {
            let mut w = RunLogWriter::new(&mut buf);
            w.write_record(&record(0)).unwrap();
            w.write_record(&record(1)).unwrap();
            assert_eq!(w.lines(), 2);
            w.flush().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            check_run_log_line(line).unwrap();
            assert!(!line.contains("wall_us"), "no wall clock in the run log");
        }
        assert!(text.contains("\"experiment\":\"e1\""));
        assert!(text.contains("\"steps_to_first_bug\":null"));
        // The optional fingerprint appears exactly on the run that has one.
        let mut lines = text.lines();
        assert!(!lines.next().unwrap().contains("fingerprint"));
        assert!(lines
            .next()
            .unwrap()
            .contains("\"fingerprint\":\"000000000000000000000000abad1deb\""));
    }

    #[test]
    fn fingerprint_when_present_must_be_a_string() {
        let mut buf = Vec::new();
        let mut w = RunLogWriter::new(&mut buf);
        w.write_record(&record(1)).unwrap();
        w.flush().unwrap();
        drop(w);
        let line = String::from_utf8(buf).unwrap();
        check_run_log_line(line.trim_end()).unwrap();
        let broken = line.trim_end().replace(
            "\"fingerprint\":\"000000000000000000000000abad1deb\"",
            "\"fingerprint\":7",
        );
        assert!(check_run_log_line(&broken)
            .unwrap_err()
            .contains("fingerprint"));
    }

    #[test]
    fn backend_field_is_optional_and_validated() {
        // Model runs never emit the field (byte-identity with old logs).
        let mut buf = Vec::new();
        let mut w = RunLogWriter::new(&mut buf);
        w.write_record(&record(0)).unwrap();
        w.write_record(&RunLogRecord {
            backend: Some("native".into()),
            ..record(1)
        })
        .unwrap();
        w.flush().unwrap();
        drop(w);
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        let model_line = lines.next().unwrap();
        let native_line = lines.next().unwrap();
        assert!(!model_line.contains("backend"), "{model_line}");
        assert!(
            native_line.contains("\"backend\":\"native\""),
            "{native_line}"
        );
        check_run_log_line(model_line).unwrap();
        check_run_log_line(native_line).unwrap();
        // An unknown backend tag is a schema violation.
        let broken = native_line.replace("\"backend\":\"native\"", "\"backend\":\"jvm\"");
        assert!(check_run_log_line(&broken)
            .unwrap_err()
            .contains("unknown backend"));
        let broken = native_line.replace("\"backend\":\"native\"", "\"backend\":3");
        assert!(check_run_log_line(&broken).unwrap_err().contains("backend"));
    }

    #[test]
    fn checker_rejects_bad_lines() {
        assert!(check_run_log_line("not json").is_err());
        assert!(check_run_log_line("[1,2]").is_err());
        assert!(check_run_log_line("{\"experiment\":\"e1\"}")
            .unwrap_err()
            .contains("missing required field"));
        // Right fields, wrong type.
        let mut buf = Vec::new();
        let mut w = RunLogWriter::new(&mut buf);
        w.write_record(&record(0)).unwrap();
        w.flush().unwrap();
        drop(w);
        let line = String::from_utf8(buf).unwrap();
        let broken = line.trim_end().replace("\"run\":0", "\"run\":\"zero\"");
        assert!(check_run_log_line(&broken)
            .unwrap_err()
            .contains("wrong type"));
    }

    #[test]
    fn write_errors_propagate_not_panic() {
        struct FullDisk;
        impl Write for FullDisk {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WriteZero, "disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = RunLogWriter::new(FullDisk);
        // BufWriter may absorb the first write; flush must surface the error.
        let r = w.write_record(&record(0)).and_then(|_| w.flush());
        assert!(r.is_err());
    }

    #[test]
    fn into_inner_surfaces_buffered_write_errors() {
        #[derive(Debug)]
        struct FullDisk;
        impl Write for FullDisk {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WriteZero, "disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // The record sits in the BufWriter; into_inner's final flush must
        // report the failure instead of silently dropping the bytes.
        let mut w = RunLogWriter::new(FullDisk);
        w.write_record(&record(0)).expect("buffered write succeeds");
        assert_eq!(w.lines(), 1);
        let err = w.into_inner().expect_err("into_inner must flush and fail");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);

        // And on a healthy writer it hands the bytes back intact.
        let mut w = RunLogWriter::new(Vec::new());
        w.write_record(&record(0)).unwrap();
        let buf = w.into_inner().expect("in-memory writer cannot fail");
        let line = String::from_utf8(buf).unwrap();
        check_run_log_line(line.trim_end()).expect("flushed line conforms to schema");
    }
}
