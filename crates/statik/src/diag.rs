//! Unified diagnostics: every static pass reports through one type.
//!
//! The race, deadlock, atomicity and lint passes each produce findings of
//! different shapes; [`Diagnostic`] is their common currency — a stable
//! code, a severity, a source span, human-readable evidence, and the
//! dynamic [`bug class`](Diagnostic::bug_class) the finding predicts. The
//! `mtt lint` subcommand renders them as text or JSON, and E7 scores them
//! against the dynamic oracles per bug class.
//!
//! Codes are stable identifiers (tools and tests key on them):
//!
//! | code | pass | predicts |
//! |------|------|----------|
//! | R001 | must-lockset | DataRace |
//! | D001 | lock-order cycle | Deadlock |
//! | A001 | Lipton atomicity | AtomicityViolation |
//! | L001 | wait outside predicate loop | MissedSignal |
//! | L002 | notify with no waiting site | WrongNotify |
//! | L003 | lock not released on some path | Deadlock |
//! | L004 | sleep used as synchronization | OrderingViolation |
//! | L005 | spin on non-volatile flag | StaleRead |
//! | L006 | lock-order graph cycle (gate-suppressed) | Deadlock |
//! | L007 | notify without the waiters' lock (lost notify) | MissedSignal |
//!
//! [`CODES`] holds the `predicts` column: a pass names only its code.

use std::fmt;

/// Every diagnostic code with the bug class it predicts, in the order of
/// the table above.
pub const CODES: &[(&str, &str)] = &[
    ("R001", "DataRace"),
    ("D001", "Deadlock"),
    ("A001", "AtomicityViolation"),
    ("L001", "MissedSignal"),
    ("L002", "WrongNotify"),
    ("L003", "Deadlock"),
    ("L004", "OrderingViolation"),
    ("L005", "StaleRead"),
    ("L006", "Deadlock"),
    ("L007", "MissedSignal"),
];

/// How seriously to take a diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Almost certainly a defect.
    Error,
    /// Likely a defect; may be a benign idiom in context.
    Warning,
    /// A smell worth reviewing.
    Info,
}

mtt_json::json_enum!(Severity {
    Error,
    Warning,
    Info
});

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
            Severity::Info => write!(f, "info"),
        }
    }
}

/// One finding from the static pipeline.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Diagnostic {
    /// Stable code (`R001`, `D001`, `A001`, `L001`..`L007`).
    pub code: String,
    /// Severity.
    pub severity: Severity,
    /// Program name (MiniProg sources carry no file paths).
    pub file: String,
    /// 1-based line the finding anchors to (0 = whole program).
    pub line: u32,
    /// Last line of the span (== `line` for point findings).
    pub end_line: u32,
    /// One-sentence statement of the problem.
    pub message: String,
    /// Supporting facts (involved threads, locks, paths).
    pub evidence: Vec<String>,
    /// The dynamic bug class this finding predicts, as a
    /// `mtt_suite::BugClass` variant name (`"DataRace"`, `"Deadlock"`, ...):
    /// its code's entry in [`CODES`].
    pub bug_class: String,
}

mtt_json::json_struct!(Diagnostic {
    code,
    severity,
    file,
    line,
    end_line,
    message,
    evidence,
    bug_class,
});

impl Diagnostic {
    /// Build a point diagnostic, predicting the bug class [`CODES`] lists
    /// for `code`; extend with [`Self::span`] / evidence after.
    pub fn new(
        code: &str,
        severity: Severity,
        file: &str,
        line: u32,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code: code.to_string(),
            severity,
            file: file.to_string(),
            line,
            end_line: line,
            message: message.into(),
            evidence: Vec::new(),
            bug_class: CODES
                .iter()
                .find(|(c, _)| *c == code)
                .expect("known code")
                .1
                .into(),
        }
    }

    /// Widen the span to `end_line`.
    pub fn span(mut self, end_line: u32) -> Self {
        self.end_line = end_line.max(self.line);
        self
    }

    /// Attach one evidence line.
    pub fn note(mut self, evidence: impl Into<String>) -> Self {
        self.evidence.push(evidence.into());
        self
    }

    /// Render as compiler-style text: header line plus indented evidence.
    pub fn render(&self) -> String {
        let mut out = if self.end_line > self.line {
            format!(
                "{}:{}-{}: {}[{}]: {}",
                self.file, self.line, self.end_line, self.severity, self.code, self.message
            )
        } else {
            format!(
                "{}:{}: {}[{}]: {}",
                self.file, self.line, self.severity, self.code, self.message
            )
        };
        for e in &self.evidence {
            out.push_str("\n    = ");
            out.push_str(e);
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Sort by source position then code, and drop exact repeats as well as
/// same-code-same-span repeats (replicated `thread t * N` declarations must
/// not multiply a finding about one source site).
pub fn dedup_and_sort(diags: &mut Vec<Diagnostic>) {
    diags.sort_by(|a, b| {
        (a.line, a.end_line, a.code.as_str(), a.message.as_str()).cmp(&(
            b.line,
            b.end_line,
            b.code.as_str(),
            b.message.as_str(),
        ))
    });
    diags.dedup_by(|a, b| a.code == b.code && a.line == b.line && a.end_line == b.end_line);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_code_span_and_evidence() {
        let d = Diagnostic::new("A001", Severity::Warning, "p", 3, "non-atomic")
            .span(7)
            .note("lock `l` released at line 4");
        let text = d.render();
        assert!(text.contains("p:3-7: warning[A001]: non-atomic"));
        assert!(text.contains("= lock `l` released at line 4"));
    }

    #[test]
    fn json_round_trip() {
        let d =
            Diagnostic::new("R001", Severity::Warning, "p", 9, "racy `x`").note("threads t1, t2");
        let s = mtt_json::to_string(&d);
        let back: Diagnostic = mtt_json::from_str(&s).unwrap();
        assert_eq!(back, d);
        assert!(s.contains("\"code\":\"R001\""));
        assert!(s.contains("\"severity\":\"Warning\""));
        assert!(s.contains("\"bug_class\":\"DataRace\""));
    }

    #[test]
    fn dedup_collapses_same_code_same_span() {
        let mk = |line| Diagnostic::new("R001", Severity::Warning, "p", line, "m");
        let mut v = vec![mk(5), mk(3), mk(5), mk(5)];
        dedup_and_sort(&mut v);
        assert_eq!(v.len(), 2);
        assert_eq!((v[0].line, v[1].line), (3, 5));
    }
}
