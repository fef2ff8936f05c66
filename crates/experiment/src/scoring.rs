//! The scoring kernel of E7, E10 and E11: the "probability of finding
//! each bug, false-alarm rate" §4 of the paper asks the prepared
//! experiment to report, computed in one place.
//!
//! * [`ClassScore::tally`] fills one tool's confusion matrix on one bug
//!   class from `(predicted, truth)` pairs. E7 and E11 read a sample's
//!   [`Truth`] from its documentation confirmed by the [`noisy_probe`], so
//!   a miss is charged only when the bug manifested; E10 reads its
//!   constructed ground truth and alone counts true negatives.
//! * [`judge`] is the per-program kernel of E10 and E11: the static
//!   pipeline's codes and each roster tool's verdict, each tool run through
//!   [`ToolConfig::configure`] and read through
//!   [`EventSink::has_findings`], so a detector added to the registry is
//!   scored without editing this module.
//! * [`Tool`] is one scored tool: a static code, scored on the class
//!   `mtt_static::diag::CODES` says it predicts, or a roster tool, scored
//!   on its first detector's class. [`Tool::row`] is the per-tool scorer
//!   of both scoreboards.

use crate::report::Table;
use mtt_instrument::{Event, EventSink};
use mtt_noise::RandomSleep;
use mtt_runtime::{Execution, Program, RandomScheduler};
use mtt_static::{analyze, compile, diag, MiniProg};
use mtt_tools::{SinkFactory, SinkKind, ToolConfig};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// What a scored program is for one bug class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Truth {
    /// A positive: a tool that misses it is charged a false negative.
    Positive,
    /// A documented bug that never manifested under the [`noisy_probe`]:
    /// a tool that flags it scores a hit, one that misses it is not
    /// charged (E7, E11).
    Unconfirmed,
    /// Not a positive: flagging it is a false alarm.
    Negative,
}

impl Truth {
    /// A program that is a `positive` for a class or not. Missing a
    /// positive is charged only when it is `confirmed`: E7 and E11 confirm
    /// a documented bug by the noisy probe, E10's constructed bugs need no
    /// confirmation.
    pub fn of(positive: bool, confirmed: bool) -> Truth {
        match (positive, confirmed) {
            (false, _) => Truth::Negative,
            (true, true) => Truth::Positive,
            (true, false) => Truth::Unconfirmed,
        }
    }
}

/// The confusion matrix of one tool on one bug class, with its precision
/// and recall.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ClassScore {
    /// Predicted and positive.
    pub tp: u64,
    /// Predicted but not positive.
    pub fp: u64,
    /// Positive but missed.
    pub fn_: u64,
    /// Neither predicted nor positive, when counted. Only E10 counts these:
    /// its benign twins are definite negatives, while a catalog sample (E7,
    /// E11) may hold a bug it does not document.
    pub tn: Option<u64>,
    /// tp / (tp + fp); 1.0 when nothing was predicted.
    pub precision: f64,
    /// tp / (tp + fn); 1.0 when there was nothing to find.
    pub recall: f64,
}

mtt_json::json_struct!(ClassScore {
    tp,
    fp,
    fn_ = "fn",
    #[optional]
    tn,
    precision,
    recall,
});

impl ClassScore {
    /// Score one tool on one class from its `(predicted, truth)` pairs,
    /// one per program; `count_tn` counts true negatives.
    pub fn tally(pairs: impl IntoIterator<Item = (bool, Truth)>, count_tn: bool) -> ClassScore {
        let mut s = ClassScore {
            tn: count_tn.then_some(0),
            ..ClassScore::default()
        };
        for pair in pairs {
            match pair {
                (true, Truth::Negative) => s.fp += 1,
                (true, _) => s.tp += 1,
                (false, Truth::Positive) => s.fn_ += 1,
                (false, Truth::Negative) => s.tn = s.tn.map(|tn| tn + 1),
                (false, Truth::Unconfirmed) => {}
            }
        }
        let ratio = |hits: u64, all: u64| {
            if all == 0 {
                1.0
            } else {
                hits as f64 / all as f64
            }
        };
        s.precision = ratio(s.tp, s.tp + s.fp);
        s.recall = ratio(s.tp, s.tp + s.fn_);
        s
    }

    /// The score's table cells: `tp`, `fp`, `fn`, `tn` when counted, then
    /// precision and recall. `joined` puts the counts in one `tp/fp/fn`
    /// cell (E11b).
    pub fn cells(&self, joined: bool) -> Vec<String> {
        let counts = [self.tp, self.fp, self.fn_].into_iter().chain(self.tn);
        let mut cells: Vec<String> = counts.map(|n| n.to_string()).collect();
        if joined {
            cells = vec![cells.join("/")];
        }
        cells.extend([self.precision, self.recall].map(|r| format!("{r:.2}")));
        cells
    }
}

/// The noisy probe behind E7's find rates and E11's manifestation oracle:
/// sticky 0.9 scheduling under `RandomSleep(seed, 0.25, 15)` on the raw run
/// seed, for at most 30,000 steps. It is not a roster tool: a tool spec's
/// noise is seeded with `seed ^ 0x9e37_79b9`, which would move E7's and
/// E11's numbers.
pub fn noisy_probe(program: &Program, seed: u64) -> Execution<'_> {
    Execution::new(program)
        .scheduler(Box::new(RandomScheduler::sticky(seed, 0.9)))
        .noise(Box::new(RandomSleep::new(seed, 0.25, 15)))
        .max_steps(30_000)
}

/// One roster tool's verdict on one program.
#[derive(Clone, Debug)]
pub struct DynamicHit {
    /// Tool display name (`name=` of the spec).
    pub tool: String,
    /// The bug class this tool claims (from its first detector).
    pub class: String,
    /// Did a detector report a finding on any of the seeded runs?
    pub warned: bool,
}

mtt_json::json_struct!(DynamicHit {
    tool,
    class,
    warned
});

/// What the tools said about one program.
#[derive(Clone, Debug)]
pub struct Verdicts {
    /// Diagnostic codes the static pipeline emitted.
    pub static_codes: BTreeSet<String>,
    /// Per-roster-tool verdicts, in roster order.
    pub dynamic: Vec<DynamicHit>,
}

mtt_json::json_struct!(Verdicts {
    static_codes,
    dynamic
});

/// The bug class a roster tool claims: its first detector's (`race=` →
/// DataRace, `deadlock=` → Deadlock); `None` for a tool without one.
fn claimed_class(tool: &ToolConfig) -> Option<&'static str> {
    tool.spec.sinks.iter().find_map(|(kind, _)| match kind {
        SinkKind::Race => Some("DataRace"),
        SinkKind::Deadlock => Some("Deadlock"),
        SinkKind::Coverage => None,
    })
}

/// The per-program kernel of E10 and E11: analyze and compile `ast`,
/// collect its static codes, and ask each roster tool that claims a class
/// whether it warns within `runs` runs of at most `max_steps` steps.
/// The compiled program comes back too, for E11's probe.
pub fn judge(
    ast: &MiniProg,
    roster: &[ToolConfig],
    runs: u64,
    max_steps: u64,
) -> (Verdicts, Program) {
    let program = compile(ast);
    let hit = |tool: &ToolConfig| {
        let class = claimed_class(tool)?.to_string();
        let warned = warns(&program, tool, runs, max_steps);
        Some(DynamicHit {
            tool: tool.name.clone(),
            class,
            warned,
        })
    };
    let verdicts = Verdicts {
        static_codes: analyze(ast)
            .diagnostics
            .into_iter()
            .map(|d| d.code)
            .collect(),
        dynamic: roster.iter().filter_map(hit).collect(),
    };
    (verdicts, program)
}

/// Does `tool` report a finding on any of `runs` runs of `program`? Run `r`
/// has seed `40 + r` and is set up by [`ToolConfig::configure`]; a run
/// reports a finding when one of the tool's sinks
/// [`has_findings`](EventSink::has_findings) once it finishes.
fn warns(program: &Program, tool: &ToolConfig, runs: u64, max_steps: u64) -> bool {
    let found = Arc::new(AtomicBool::new(false));
    let watch = |make: &SinkFactory| -> SinkFactory {
        let (make, found) = (Arc::clone(make), Arc::clone(&found));
        Arc::new(move || {
            Box::new(Watched {
                sink: make(),
                found: Arc::clone(&found),
            })
        })
    };
    let watched = ToolConfig {
        sinks: tool.sinks.iter().map(watch).collect(),
        ..tool.clone()
    };
    (0..runs).any(|r| {
        let _ = watched
            .configure(Execution::new(program), 40 + r, max_steps)
            .run();
        found.load(Ordering::Relaxed)
    })
}

/// A tool's sink that records its verdict when the run finishes.
struct Watched {
    sink: Box<dyn EventSink>,
    found: Arc<AtomicBool>,
}

impl EventSink for Watched {
    fn on_event(&mut self, ev: &Event) {
        self.sink.on_event(ev);
    }

    fn finish(&mut self) {
        self.sink.finish();
        if self.sink.has_findings() {
            self.found.store(true, Ordering::Relaxed);
        }
    }
}

/// One scored tool: a static diagnostic code or a roster tool.
#[derive(Clone, Debug)]
pub struct Tool {
    /// Row label: `static:R001`, or the roster tool's name.
    pub name: String,
    /// `"static"` or `"dynamic"`.
    pub kind: &'static str,
    /// The class it is scored on.
    pub class: String,
    source: Source,
}

#[derive(Clone, Copy, Debug)]
enum Source {
    Code(&'static str),
    Roster(usize),
}

impl Tool {
    /// Every scored tool: each static code with the class it predicts, then
    /// each roster tool `verdicts` names (every program carries the same
    /// roster).
    pub fn all(verdicts: Option<&Verdicts>) -> Vec<Tool> {
        let codes = diag::CODES.iter().map(|&(code, class)| Tool {
            name: format!("static:{code}"),
            kind: "static",
            class: class.to_string(),
            source: Source::Code(code),
        });
        let roster = verdicts.into_iter().flat_map(|v| {
            v.dynamic.iter().enumerate().map(|(i, hit)| Tool {
                name: hit.tool.clone(),
                kind: "dynamic",
                class: hit.class.clone(),
                source: Source::Roster(i),
            })
        });
        codes.chain(roster).collect()
    }

    /// Did this tool flag the program it gave `verdicts` on?
    pub fn flags(&self, verdicts: &Verdicts) -> bool {
        match self.source {
            Source::Code(code) => verdicts.static_codes.contains(code),
            Source::Roster(i) => verdicts.dynamic[i].warned,
        }
    }

    /// This tool's scoreboard row over `programs`: what the tools said
    /// about each, and its truth for this tool's class.
    pub fn row<'a>(
        &self,
        programs: impl IntoIterator<Item = (&'a Verdicts, Truth)>,
        count_tn: bool,
    ) -> ScoreRow {
        let pairs = programs
            .into_iter()
            .map(|(v, truth)| (self.flags(v), truth));
        ScoreRow {
            tool: self.name.clone(),
            kind: self.kind.to_string(),
            class: self.class.clone(),
            score: ClassScore::tally(pairs, count_tn),
            robust_ok: None,
            robust_total: None,
        }
    }
}

/// A per-tool scoreboard table: tool, kind and class, the score's columns
/// (`tn` when counted), then `extra` columns.
pub fn score_table(title: &str, count_tn: bool, extra: &[&str]) -> Table {
    let mut header = vec!["tool", "kind", "class", "tp", "fp", "fn"];
    header.extend(count_tn.then_some("tn"));
    header.extend(["precision", "recall"].iter().chain(extra));
    Table::new(title, &header)
}

/// One row of a per-tool scoreboard (E10, E11).
#[derive(Clone, Debug)]
pub struct ScoreRow {
    /// Tool label (`static:R001`, `dyn-lockset`, ...).
    pub tool: String,
    /// `"static"` or `"dynamic"`.
    pub kind: String,
    /// The bug class the tool is scored on.
    pub class: String,
    /// The tally.
    pub score: ClassScore,
    /// E10 only: families of the class the tool detected robustly (every
    /// buggy member flagged, no benign twin flagged)...
    pub robust_ok: Option<u64>,
    /// ...out of the families of the class.
    pub robust_total: Option<u64>,
}

mtt_json::json_struct!(ScoreRow {
    tool,
    kind,
    class,
    #[flatten]
    score,
    #[optional]
    robust_ok,
    #[optional]
    robust_total,
});

impl ScoreRow {
    /// The row's table cells: tool, kind, class, the score's, then
    /// `robust` as `ok/total` when counted.
    pub fn cells(&self) -> Vec<String> {
        let mut cells = vec![self.tool.clone(), self.kind.clone(), self.class.clone()];
        cells.extend(self.score.cells(false));
        if let (Some(ok), Some(total)) = (self.robust_ok, self.robust_total) {
            cells.push(format!("{ok}/{total}"));
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_charges_misses_and_negatives_by_truth() {
        use Truth::*;
        let pairs = [
            (true, Positive),
            (true, Unconfirmed),
            (true, Negative),
            (false, Positive),
            (false, Unconfirmed),
            (false, Negative),
        ];
        let s = ClassScore::tally(pairs, false);
        assert_eq!((s.tp, s.fp, s.fn_, s.tn), (2, 1, 1, None));
        assert_eq!(s.cells(true), ["2/1/1", "0.67", "0.67"]);
        let with_tn = ClassScore::tally(pairs, true);
        assert_eq!(with_tn.cells(false), ["2", "1", "1", "1", "0.67", "0.67"]);
        let empty = ClassScore::tally([], true);
        assert_eq!(
            (empty.precision, empty.recall, empty.tn),
            (1.0, 1.0, Some(0))
        );
        let json = r#"{"tp":2,"fp":1,"fn":1,"precision":0.6666666666666666,"#;
        assert!(mtt_json::to_string(&s).starts_with(json));
    }
}
