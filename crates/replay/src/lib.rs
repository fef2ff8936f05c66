//! # mtt-replay — record & playback of interleavings
//!
//! §2.2 of the paper: "Replay has two phases: record and playback. In the
//! record phase, information concerning the timing and any other 'random'
//! decision of the program is recorded. In the playback phase, the test is
//! executed and the replay mechanism ensures that the same decisions are
//! taken." It further distinguishes **full replay** (record everything;
//! hard, heavy) from **partial replay** ("causes the program to behave as
//! if the scheduler is deterministic"; much cheaper, usually good enough),
//! and asks that partial replay algorithms "be compared on the likelihood
//! of performing replay and on their performance".
//!
//! In the model runtime an execution is a pure function of (program,
//! scheduler decisions, noise decisions), so:
//!
//! * **Full replay** = record every scheduling decision (plus every noise
//!   decision) in a [`ReplayLog`]; play back with [`PlaybackScheduler`] +
//!   [`PlaybackNoise`]. Robust to *no* program drift in `Strict` mode;
//!   [`DivergencePolicy::Resync`] re-synchronizes by event fingerprint when
//!   the program has drifted slightly.
//! * **Partial replay** = record only the scheduler's seed
//!   ([`ReplayLog::partial`]); play back by re-running the same seeded
//!   scheduler. Free to record, but any drift in the program or noise
//!   changes the whole interleaving.
//!
//! Experiment E3 measures exactly the paper's comparison: replay success
//! probability as drift grows, and record-phase overhead.

use mtt_instrument::{Event, ThreadId};
use mtt_runtime::{NoiseDecision, NoiseMaker, NoiseView, SchedView, Scheduler};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Fingerprint of the event that triggered a scheduling point — used to
/// detect and repair divergence during playback.
pub fn event_fingerprint(ev: &Event) -> u64 {
    let mut h = DefaultHasher::new();
    ev.thread.0.hash(&mut h);
    ev.op.hash(&mut h);
    ev.loc.file.hash(&mut h);
    ev.loc.line.hash(&mut h);
    h.finish()
}

/// One recorded scheduling decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// The thread the scheduler chose.
    pub chosen: u32,
    /// Fingerprint of the event preceding the decision (0 for the initial
    /// pick, which has no event).
    pub fingerprint: u64,
    /// How many threads were runnable (diagnostics).
    pub runnable: u32,
}

mtt_json::json_struct!(Decision {
    chosen,
    fingerprint,
    runnable
});

/// A recorded noise decision, keyed by consultation index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NoiseRecord {
    /// Index of the noise consultation (0-based, counting every consulted
    /// event in order).
    pub index: u64,
    /// 0 = yield, otherwise sleep ticks.
    pub sleep_ticks: u32,
}

mtt_json::json_struct!(NoiseRecord { index, sleep_ticks });

/// The serializable replay log.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplayLog {
    /// Program name (sanity check at playback).
    pub program: String,
    /// Scheduler seed at record time (enough on its own for partial replay).
    pub seed: u64,
    /// Full decision sequence (empty for a partial log).
    pub decisions: Vec<Decision>,
    /// Non-trivial noise decisions (empty for a partial log).
    pub noise: Vec<NoiseRecord>,
}

mtt_json::json_struct!(ReplayLog {
    program,
    seed,
    decisions,
    noise
});

impl ReplayLog {
    /// A partial-replay log: seed only. Costs nothing to record.
    pub fn partial(program: impl Into<String>, seed: u64) -> Self {
        ReplayLog {
            program: program.into(),
            seed,
            decisions: Vec::new(),
            noise: Vec::new(),
        }
    }

    /// Is this a full log?
    pub fn is_full(&self) -> bool {
        !self.decisions.is_empty()
    }

    /// Record-phase storage cost in bytes (JSON encoding) — the overhead
    /// axis of experiment E3.
    pub fn storage_bytes(&self) -> usize {
        mtt_json::to_vec(self).len()
    }
}

// ---------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------

/// Shared accumulation buffer between the recording wrappers.
#[derive(Debug, Default)]
struct LogBuilder {
    decisions: Vec<Decision>,
    noise: Vec<NoiseRecord>,
    noise_consults: u64,
    last_fingerprint: u64,
}

/// Handle from which the finished [`ReplayLog`] is taken after the run.
#[derive(Clone, Debug)]
pub struct RecorderHandle {
    inner: Arc<Mutex<LogBuilder>>,
    program: String,
    seed: u64,
}

impl RecorderHandle {
    /// Extract the log recorded so far.
    pub fn take_log(&self) -> ReplayLog {
        let g = self.inner.lock().expect("recorder poisoned");
        ReplayLog {
            program: self.program.clone(),
            seed: self.seed,
            decisions: g.decisions.clone(),
            noise: g.noise.clone(),
        }
    }
}

/// Scheduler wrapper that records every decision of its inner scheduler.
pub struct RecordingScheduler<S> {
    inner: S,
    log: Arc<Mutex<LogBuilder>>,
}

/// Noise wrapper that records every non-trivial decision of its inner
/// noise maker.
pub struct RecordingNoise<N> {
    inner: N,
    log: Arc<Mutex<LogBuilder>>,
}

/// Wire a scheduler and a noise maker for recording. Returns the wrapped
/// pair plus the handle that yields the [`ReplayLog`] afterwards.
pub fn record<S: Scheduler, N: NoiseMaker>(
    program: &str,
    seed: u64,
    scheduler: S,
    noise: N,
) -> (RecordingScheduler<S>, RecordingNoise<N>, RecorderHandle) {
    let log = Arc::new(Mutex::new(LogBuilder::default()));
    (
        RecordingScheduler {
            inner: scheduler,
            log: Arc::clone(&log),
        },
        RecordingNoise {
            inner: noise,
            log: Arc::clone(&log),
        },
        RecorderHandle {
            inner: log,
            program: program.to_string(),
            seed,
        },
    )
}

impl<S: Scheduler> Scheduler for RecordingScheduler<S> {
    fn pick(&mut self, view: &SchedView<'_>) -> ThreadId {
        let chosen = self.inner.pick(view);
        let mut g = self.log.lock().expect("recorder poisoned");
        let fingerprint = g.last_fingerprint;
        g.decisions.push(Decision {
            chosen: chosen.0,
            fingerprint,
            runnable: view.runnable.len() as u32,
        });
        chosen
    }

    fn on_event(&mut self, ev: &Event) {
        self.inner.on_event(ev);
        let mut g = self.log.lock().expect("recorder poisoned");
        g.last_fingerprint = event_fingerprint(ev);
    }

    fn name(&self) -> &str {
        "recording"
    }
}

impl<N: NoiseMaker> NoiseMaker for RecordingNoise<N> {
    fn decide(&mut self, ev: &Event, view: &NoiseView) -> NoiseDecision {
        let d = self.inner.decide(ev, view);
        let mut g = self.log.lock().expect("recorder poisoned");
        let idx = g.noise_consults;
        g.noise_consults += 1;
        match d {
            NoiseDecision::None => {}
            NoiseDecision::Yield => g.noise.push(NoiseRecord {
                index: idx,
                sleep_ticks: 0,
            }),
            NoiseDecision::Sleep(t) => g.noise.push(NoiseRecord {
                index: idx,
                sleep_ticks: t.max(1),
            }),
        }
        d
    }

    fn name(&self) -> &str {
        "recording-noise"
    }
}

// ---------------------------------------------------------------------
// Playback
// ---------------------------------------------------------------------

/// What to do when the recorded decision cannot be taken (the thread is not
/// runnable, or the event fingerprint does not match).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivergencePolicy {
    /// Consume the log strictly in order; on an impossible decision, fall
    /// back to the first runnable thread and keep going.
    Strict,
    /// On divergence, scan ahead (bounded window) for a decision whose
    /// fingerprint matches the current event and whose thread is runnable,
    /// then resume from there.
    Resync {
        /// Maximum decisions to skip at one divergence.
        window: usize,
    },
}

/// Playback statistics: how faithful the replay was.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlaybackReport {
    /// Decisions taken straight from the log.
    pub followed: u64,
    /// Points where the recorded thread was not runnable.
    pub divergences: u64,
    /// Points where the event fingerprint mismatched (drift detected).
    pub fingerprint_mismatches: u64,
    /// Log entries skipped by resync.
    pub skipped: u64,
    /// Scheduling points after the log ran out.
    pub overrun: u64,
}

impl PlaybackReport {
    /// A replay is *clean* when every decision came from the log with
    /// matching fingerprints and nothing was skipped.
    pub fn is_clean(&self) -> bool {
        self.divergences == 0
            && self.fingerprint_mismatches == 0
            && self.skipped == 0
            && self.overrun == 0
    }
}

/// Scheduler that replays a recorded decision sequence.
pub struct PlaybackScheduler {
    log: ReplayLog,
    pos: usize,
    policy: DivergencePolicy,
    last_fingerprint: u64,
    report: Arc<Mutex<PlaybackReport>>,
}

impl PlaybackScheduler {
    /// Play back `log` under `policy`.
    pub fn new(log: ReplayLog, policy: DivergencePolicy) -> Self {
        PlaybackScheduler {
            log,
            pos: 0,
            policy,
            last_fingerprint: 0,
            report: Arc::new(Mutex::new(PlaybackReport::default())),
        }
    }

    /// Shared handle to the playback report (read it after the run).
    pub fn report_handle(&self) -> Arc<Mutex<PlaybackReport>> {
        Arc::clone(&self.report)
    }
}

impl Scheduler for PlaybackScheduler {
    fn pick(&mut self, view: &SchedView<'_>) -> ThreadId {
        let mut rep = self.report.lock().expect("report poisoned");
        loop {
            let Some(d) = self.log.decisions.get(self.pos) else {
                rep.overrun += 1;
                // Log exhausted: degrade to FIFO-like behaviour.
                return view
                    .prev
                    .filter(|p| view.is_runnable(*p))
                    .unwrap_or(view.runnable[0]);
            };
            let fingerprint_ok = d.fingerprint == self.last_fingerprint;
            let runnable_ok = view.is_runnable(ThreadId(d.chosen));
            if fingerprint_ok && runnable_ok {
                self.pos += 1;
                rep.followed += 1;
                return ThreadId(d.chosen);
            }
            if !fingerprint_ok {
                rep.fingerprint_mismatches += 1;
            }
            if !runnable_ok {
                rep.divergences += 1;
            }
            match self.policy {
                DivergencePolicy::Strict => {
                    self.pos += 1;
                    // Take the recorded thread if possible despite the
                    // fingerprint mismatch; otherwise first runnable.
                    return if runnable_ok {
                        rep.followed += 1;
                        ThreadId(d.chosen)
                    } else {
                        view.runnable[0]
                    };
                }
                DivergencePolicy::Resync { window } => {
                    // Scan ahead for a matching, runnable decision.
                    let end = (self.pos + window).min(self.log.decisions.len());
                    let found = (self.pos..end).find(|&i| {
                        let di = &self.log.decisions[i];
                        di.fingerprint == self.last_fingerprint
                            && view.is_runnable(ThreadId(di.chosen))
                    });
                    match found {
                        Some(i) => {
                            rep.skipped += (i - self.pos) as u64;
                            self.pos = i;
                            // Loop re-evaluates at the new position.
                        }
                        None => {
                            // No resync possible: consume one and fall back.
                            self.pos += 1;
                            return if runnable_ok {
                                ThreadId(d.chosen)
                            } else {
                                view.runnable[0]
                            };
                        }
                    }
                }
            }
        }
    }

    fn on_event(&mut self, ev: &Event) {
        self.last_fingerprint = event_fingerprint(ev);
    }

    fn name(&self) -> &str {
        "playback"
    }
}

/// Noise maker that replays recorded noise decisions by consultation index.
pub struct PlaybackNoise {
    by_index: std::collections::HashMap<u64, u32>,
    consults: u64,
}

impl PlaybackNoise {
    /// Play back the noise half of `log`.
    pub fn new(log: &ReplayLog) -> Self {
        PlaybackNoise {
            by_index: log.noise.iter().map(|r| (r.index, r.sleep_ticks)).collect(),
            consults: 0,
        }
    }
}

impl NoiseMaker for PlaybackNoise {
    fn decide(&mut self, _ev: &Event, _view: &NoiseView) -> NoiseDecision {
        let idx = self.consults;
        self.consults += 1;
        match self.by_index.get(&idx) {
            Some(0) => NoiseDecision::Yield,
            Some(&t) => NoiseDecision::Sleep(t),
            None => NoiseDecision::None,
        }
    }

    fn name(&self) -> &str {
        "playback-noise"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtt_instrument::{Loc, Op};

    fn mk_event(seq: u64, thread: u32) -> Event {
        Event {
            seq,
            time: seq,
            thread: ThreadId(thread),
            loc: Loc::new("r", 1),
            op: Op::Yield,
            locks_held: std::sync::Arc::from(Vec::new()),
        }
    }

    #[test]
    fn fingerprints_differ_by_thread_op_loc() {
        let a = event_fingerprint(&mk_event(0, 0));
        let b = event_fingerprint(&mk_event(0, 1));
        assert_ne!(a, b);
        let mut c_ev = mk_event(0, 0);
        c_ev.op = Op::ThreadStart;
        assert_ne!(a, event_fingerprint(&c_ev));
        // seq/time do NOT affect the fingerprint (they drift harmlessly).
        assert_eq!(a, event_fingerprint(&mk_event(99, 0)));
    }

    #[test]
    fn log_roundtrips_through_json() {
        let log = ReplayLog {
            program: "p".into(),
            seed: 7,
            decisions: vec![Decision {
                chosen: 1,
                fingerprint: 42,
                runnable: 2,
            }],
            noise: vec![NoiseRecord {
                index: 3,
                sleep_ticks: 5,
            }],
        };
        let s = mtt_json::to_string(&log);
        let back: ReplayLog = mtt_json::from_str(&s).unwrap();
        assert_eq!(log, back);
        assert!(log.is_full());
        assert!(log.storage_bytes() > 0);
    }

    #[test]
    fn partial_log_is_tiny() {
        let partial = ReplayLog::partial("p", 9);
        assert!(!partial.is_full());
        let full = ReplayLog {
            program: "p".into(),
            seed: 9,
            decisions: vec![
                Decision {
                    chosen: 0,
                    fingerprint: 1,
                    runnable: 2
                };
                1000
            ],
            noise: vec![],
        };
        assert!(partial.storage_bytes() * 10 < full.storage_bytes());
    }

    #[test]
    fn playback_noise_replays_by_index() {
        let log = ReplayLog {
            program: "p".into(),
            seed: 0,
            decisions: vec![],
            noise: vec![
                NoiseRecord {
                    index: 1,
                    sleep_ticks: 0,
                },
                NoiseRecord {
                    index: 3,
                    sleep_ticks: 7,
                },
            ],
        };
        let mut n = PlaybackNoise::new(&log);
        let view = NoiseView {
            runnable: 2,
            step: 0,
            time: 0,
        };
        let ev = mk_event(0, 0);
        assert_eq!(n.decide(&ev, &view), NoiseDecision::None);
        assert_eq!(n.decide(&ev, &view), NoiseDecision::Yield);
        assert_eq!(n.decide(&ev, &view), NoiseDecision::None);
        assert_eq!(n.decide(&ev, &view), NoiseDecision::Sleep(7));
        assert_eq!(n.decide(&ev, &view), NoiseDecision::None);
    }

    #[test]
    fn playback_reports_overrun_when_log_exhausted() {
        let log = ReplayLog::partial("p", 0); // no decisions at all
        let mut s = PlaybackScheduler::new(log, DivergencePolicy::Strict);
        let handle = s.report_handle();
        let runnable = [ThreadId(0), ThreadId(1)];
        let view = SchedView {
            runnable: &runnable,
            prev: Some(ThreadId(1)),
            forced_yield: false,
            step: 0,
            time: 0,
            last_event: None,
        };
        assert_eq!(s.pick(&view), ThreadId(1), "degrades to FIFO");
        assert_eq!(handle.lock().unwrap().overrun, 1);
        assert!(!handle.lock().unwrap().is_clean());
    }

    #[test]
    fn strict_playback_follows_and_diverges() {
        let log = ReplayLog {
            program: "p".into(),
            seed: 0,
            decisions: vec![
                Decision {
                    chosen: 1,
                    fingerprint: 0,
                    runnable: 2,
                },
                Decision {
                    chosen: 5, // not runnable: divergence
                    fingerprint: 0,
                    runnable: 2,
                },
            ],
            noise: vec![],
        };
        let mut s = PlaybackScheduler::new(log, DivergencePolicy::Strict);
        let handle = s.report_handle();
        let runnable = [ThreadId(0), ThreadId(1)];
        let mk_view = || SchedView {
            runnable: &runnable,
            prev: None,
            forced_yield: false,
            step: 0,
            time: 0,
            last_event: None,
        };
        assert_eq!(s.pick(&mk_view()), ThreadId(1));
        assert_eq!(s.pick(&mk_view()), ThreadId(0), "fallback on divergence");
        let r = *handle.lock().unwrap();
        assert_eq!(r.followed, 1);
        assert_eq!(r.divergences, 1);
    }
}
