//! The traced pass: decorators around each layer's public seams, so the
//! engine itself is unchanged.
//!
//! `ToolConfig::configure` calls a tool's scheduler, noise and sink
//! factories back to back on the pool worker that executes the run, and
//! the campaign calls the program's oracle on that same worker as soon as
//! the run returns. So the decorated scheduler factory opens a per-run
//! slot in a thread-local, the noise and sink factories attach their
//! decorators to it, and the decorated oracle closes it. Each decorator
//! accumulates privately and adds its totals to the slot when the engine
//! drops it, which both engines do before the run returns.
//!
//! Span tree of one run, all on one monotonic clock:
//!
//! - run: from the scheduler-factory call to the oracle call;
//!   - start: from the last sink-factory call (the end of the tool's
//!     configuration) to the first event: engine set-up and the spawn of
//!     the first thread;
//!   - gaps, from one event to the next, as seen by a probe sink attached
//!     ahead of every other sink: a *handoff* when the next event belongs to
//!     another thread, a *continue* when it belongs to the same one. On the
//!     model engine a handoff holds the scheduling step, the wake-up of the
//!     picked thread and its next operation;
//!     - inside the gaps: `scheduler.pick`, `noise.decide` and each
//!       detector's `on_event`;
//!   - join: from the last event to the probe's `finish`, which the engine
//!     calls once every thread has ended: joining the threads (and, on the
//!     native engine, noticing a deadlock);
//!   - self time (run minus its children): configuring the tool, the
//!     detectors' `finish`, outcome assembly and the oracle.

use crate::report::Metric;
use crate::stats::{mean, percentile_sorted};
use mtt_core::experiment::Campaign;
use mtt_core::instrument::{Event, EventSink, Op, ThreadId};
use mtt_core::runtime::{
    NoiseDecision, NoiseMaker, NoiseView, Outcome, OutcomeKind, SchedView, Scheduler,
};
use mtt_core::tools::{SinkFactory, SinkKind, ToolConfig};
use mtt_json::Json;
use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Detector layers, indexed as [`LayerTotals::sink_calls`].
const SINK_LAYERS: [&str; 3] = ["race", "deadlock", "coverage"];

thread_local! {
    /// The run the current pool worker is configuring or executing.
    static CURRENT: RefCell<Option<Arc<RunSlot>>> = const { RefCell::new(None) };
}

fn current_slot() -> Arc<RunSlot> {
    CURRENT
        .with(|c| c.borrow().clone())
        .expect("configure calls the scheduler factory before the noise and sink factories")
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// Additive per-run totals; every decorator fills the fields of its layer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Events the probe sink saw.
    pub events: u64,
    /// `ThreadStart` events.
    pub threads: u64,
    /// Gaps ending in another thread's event.
    pub handoffs: u64,
    /// Their summed length.
    pub handoff_ns: u64,
    /// Summed length of the gaps ending in the same thread's event.
    pub continue_ns: u64,
    /// Scheduler `pick` calls.
    pub picks: u64,
    /// Time inside them.
    pub pick_ns: u64,
    /// Noise `decide` calls.
    pub noise_calls: u64,
    /// Time inside them.
    pub noise_ns: u64,
    /// Decisions other than `None`.
    pub injections: u64,
    /// Virtual-time ticks of `Sleep` decisions.
    pub sleep_ticks: u64,
    /// Detector `on_event` calls per layer of [`SINK_LAYERS`].
    pub sink_calls: [u64; 3],
    /// Time inside them.
    pub sink_ns: [u64; 3],
    /// Time inside the detectors' `finish`.
    pub sink_finish_ns: u64,
    /// Detector sinks attached to the run.
    pub sinks: u64,
}

impl LayerTotals {
    fn add(&mut self, o: &LayerTotals) {
        self.events += o.events;
        self.threads += o.threads;
        self.handoffs += o.handoffs;
        self.handoff_ns += o.handoff_ns;
        self.continue_ns += o.continue_ns;
        self.picks += o.picks;
        self.pick_ns += o.pick_ns;
        self.noise_calls += o.noise_calls;
        self.noise_ns += o.noise_ns;
        self.injections += o.injections;
        self.sleep_ticks += o.sleep_ticks;
        for i in 0..SINK_LAYERS.len() {
            self.sink_calls[i] += o.sink_calls[i];
            self.sink_ns[i] += o.sink_ns[i];
        }
        self.sink_finish_ns += o.sink_finish_ns;
        self.sinks += o.sinks;
    }
}

/// One run's span with its per-layer child totals.
#[derive(Clone, Debug)]
pub struct RunSpan {
    /// Order in which runs were configured, from 0.
    pub run_id: u64,
    /// Program under test.
    pub program: &'static str,
    /// Tool name.
    pub tool: String,
    /// Run seed.
    pub seed: u64,
    /// Ran on real OS threads.
    pub native: bool,
    /// Outcome tag (`completed`, `deadlock`, `step-limit`, …).
    pub outcome: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, on the same clock.
    pub end_ns: u64,
    /// Child span from the end of the tool's configuration to the first
    /// event: engine set-up and the first thread's spawn.
    pub spawn_ns: u64,
    /// Child span from the last event to the probe's `finish`: joining the
    /// threads, and on the native engine noticing a deadlock.
    pub join_ns: u64,
    /// From the last event to the end of the run (0 if it emitted no
    /// event).
    pub tail_ns: u64,
    /// The native watchdog stopped the run at the wall budget. A run cut
    /// by the step budget ends with the same outcome, sooner.
    pub killed: bool,
    /// `race:torn-read:` assertion failures (native only).
    pub torn_reads: u64,
    /// Child totals.
    pub layers: LayerTotals,
}

impl RunSpan {
    /// Run length.
    pub fn run_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Run length covered by child spans: start, event gaps and join.
    pub fn children_ns(&self) -> u64 {
        self.spawn_ns + self.layers.handoff_ns + self.layers.continue_ns + self.join_ns
    }

    /// Run length not covered by child spans.
    pub fn self_ns(&self) -> u64 {
        self.run_ns().saturating_sub(self.children_ns())
    }

    fn to_json(&self, workload: &str) -> Json {
        let l = &self.layers;
        let n = |v: u64| Json::UInt(v);
        let mut children = vec![
            ("spawn_ns".to_string(), n(self.spawn_ns)),
            ("join_ns".to_string(), n(self.join_ns)),
            ("handoff_ns".to_string(), n(l.handoff_ns)),
            ("continue_ns".to_string(), n(l.continue_ns)),
            ("pick_ns".to_string(), n(l.pick_ns)),
            ("noise_ns".to_string(), n(l.noise_ns)),
        ];
        for (i, layer) in SINK_LAYERS.iter().enumerate() {
            children.push((format!("{layer}_ns"), n(l.sink_ns[i])));
        }
        children.push(("sink_finish_ns".to_string(), n(l.sink_finish_ns)));
        Json::Obj(vec![
            ("run_id".to_string(), n(self.run_id)),
            ("workload".to_string(), Json::Str(workload.to_string())),
            ("program".to_string(), Json::Str(self.program.to_string())),
            ("tool".to_string(), Json::Str(self.tool.clone())),
            ("seed".to_string(), n(self.seed)),
            ("outcome".to_string(), Json::Str(self.outcome.to_string())),
            ("start_ns".to_string(), n(self.start_ns)),
            ("end_ns".to_string(), n(self.end_ns)),
            ("tail_ns".to_string(), n(self.tail_ns)),
            ("killed".to_string(), Json::Bool(self.killed)),
            ("events".to_string(), n(l.events)),
            ("switches".to_string(), n(l.handoffs)),
            ("threads".to_string(), n(l.threads)),
            ("children".to_string(), Json::Obj(children)),
        ])
    }
}

#[derive(Default)]
struct SlotState {
    totals: LayerTotals,
    configured: Option<Instant>,
    first_event: Option<Instant>,
    last_event: Option<Instant>,
    finished: Option<Instant>,
    handoff_ns: Vec<u64>,
    continue_ns: Vec<u64>,
}

struct RunSlot {
    run_id: u64,
    tool: String,
    seed: u64,
    native: bool,
    budget: Option<Duration>,
    start: Instant,
    state: Mutex<SlotState>,
}

impl RunSlot {
    /// Called at the end of every sink factory: the last call marks the
    /// end of the tool's configuration.
    fn configured(&self) {
        if let Ok(mut st) = self.state.lock() {
            st.configured = Some(Instant::now());
        }
    }
}

/// What a traced pass collected.
#[derive(Default)]
pub struct Collected {
    /// One span per run, in completion order.
    pub spans: Vec<RunSpan>,
    /// Every handoff gap.
    pub handoff_ns: Vec<u64>,
    /// Every continue gap.
    pub continue_ns: Vec<u64>,
}

/// Collects the spans of one traced pass.
pub struct Tracer {
    epoch: Instant,
    next_run: AtomicU64,
    out: Mutex<Collected>,
}

impl Tracer {
    /// A tracer with an empty collection.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_run: AtomicU64::new(0),
            out: Mutex::new(Collected::default()),
        })
    }

    /// Decorate every tool's factories and every program's oracle.
    pub fn install(self: &Arc<Self>, campaign: &mut Campaign) {
        for tool in &mut campaign.tools {
            self.decorate_tool(tool, campaign.run_budget);
        }
        for prog in &mut campaign.programs {
            let tracer = Arc::clone(self);
            let inner = Arc::clone(&prog.oracle);
            let name = prog.name;
            prog.oracle = Arc::new(move |outcome| {
                tracer.close(name, outcome, Instant::now());
                inner(outcome)
            });
        }
    }

    fn decorate_tool(self: &Arc<Self>, tool: &mut ToolConfig, budget: Option<Duration>) {
        let tracer = Arc::clone(self);
        let scheduler = Arc::clone(&tool.scheduler);
        let name = tool.name.clone();
        let native = tool.backend.is_native();
        tool.scheduler = Arc::new(move |seed| {
            let slot = Arc::new(RunSlot {
                run_id: tracer.next_run.fetch_add(1, Ordering::Relaxed),
                tool: name.clone(),
                seed,
                native,
                budget,
                start: Instant::now(),
                state: Mutex::default(),
            });
            CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&slot)));
            Box::new(TracedScheduler {
                inner: scheduler(seed),
                local: Local::new(slot),
            })
        });

        let noise = Arc::clone(&tool.noise);
        tool.noise = Arc::new(move |seed| {
            Box::new(TracedNoise {
                inner: noise(seed),
                local: Local::new(current_slot()),
            })
        });

        let mut sinks: Vec<SinkFactory> = vec![Arc::new(|| {
            let slot = current_slot();
            slot.configured();
            Box::new(Probe::new(slot))
        })];
        for (factory, (kind, _)) in tool.sinks.iter().zip(&tool.spec.sinks) {
            let factory = Arc::clone(factory);
            let layer = match kind {
                SinkKind::Race => 0,
                SinkKind::Deadlock => 1,
                SinkKind::Coverage => 2,
            };
            sinks.push(Arc::new(move || {
                let mut local = Local::new(current_slot());
                local.totals.sinks = 1;
                let sink = TracedSink {
                    inner: factory(),
                    layer,
                    local,
                };
                sink.local.slot.configured();
                Box::new(sink)
            }));
        }
        tool.sinks = sinks;
    }

    fn close(&self, program: &'static str, outcome: &Outcome, end: Instant) {
        let Some(slot) = CURRENT.with(|c| c.borrow_mut().take()) else {
            return;
        };
        let st = std::mem::take(&mut *slot.state.lock().expect("a decorator panicked"));
        let configured = st.configured.unwrap_or(slot.start);
        let finished = st.finished.unwrap_or(end);
        let run = end.saturating_duration_since(slot.start);
        let span = RunSpan {
            run_id: slot.run_id,
            program,
            tool: slot.tool.clone(),
            seed: slot.seed,
            native: slot.native,
            outcome: outcome.kind.tag(),
            start_ns: ns(self.epoch, slot.start),
            end_ns: ns(self.epoch, end),
            spawn_ns: ns(configured, st.first_event.unwrap_or(finished)),
            join_ns: st.last_event.map_or(0, |last| ns(last, finished)),
            tail_ns: st.last_event.map_or(0, |last| ns(last, end)),
            killed: slot.native
                && matches!(outcome.kind, OutcomeKind::StepLimit)
                && slot.budget.is_some_and(|b| run >= b),
            torn_reads: outcome
                .assert_failures
                .iter()
                .filter(|f| f.label.starts_with("race:torn-read:"))
                .count() as u64,
            layers: st.totals,
        };
        let mut out = self.out.lock().expect("tracer poisoned");
        out.handoff_ns.extend(st.handoff_ns);
        out.continue_ns.extend(st.continue_ns);
        out.spans.push(span);
    }

    /// Take everything collected so far.
    pub fn take(&self) -> Collected {
        std::mem::take(&mut *self.out.lock().expect("tracer poisoned"))
    }
}

/// A decorator's private totals, added to its run's slot on drop.
struct Local {
    slot: Arc<RunSlot>,
    totals: LayerTotals,
}

impl Local {
    fn new(slot: Arc<RunSlot>) -> Self {
        Local {
            slot,
            totals: LayerTotals::default(),
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        if let Ok(mut st) = self.slot.state.lock() {
            st.totals.add(&self.totals);
        }
    }
}

struct TracedScheduler {
    inner: Box<dyn Scheduler>,
    local: Local,
}

impl Scheduler for TracedScheduler {
    fn pick(&mut self, view: &SchedView<'_>) -> ThreadId {
        let t = Instant::now();
        let pick = self.inner.pick(view);
        self.local.totals.pick_ns += ns(t, Instant::now());
        self.local.totals.picks += 1;
        pick
    }

    fn on_event(&mut self, ev: &Event) {
        self.inner.on_event(ev);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

struct TracedNoise {
    inner: Box<dyn NoiseMaker>,
    local: Local,
}

impl NoiseMaker for TracedNoise {
    fn decide(&mut self, ev: &Event, view: &NoiseView) -> NoiseDecision {
        let t = Instant::now();
        let d = self.inner.decide(ev, view);
        let l = &mut self.local.totals;
        l.noise_ns += ns(t, Instant::now());
        l.noise_calls += 1;
        match d {
            NoiseDecision::None => {}
            NoiseDecision::Yield => l.injections += 1,
            NoiseDecision::Sleep(ticks) => {
                l.injections += 1;
                l.sleep_ticks += u64::from(ticks.max(1));
            }
        }
        d
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

struct TracedSink {
    inner: Box<dyn EventSink>,
    layer: usize,
    local: Local,
}

impl EventSink for TracedSink {
    fn on_event(&mut self, ev: &Event) {
        let t = Instant::now();
        self.inner.on_event(ev);
        self.local.totals.sink_ns[self.layer] += ns(t, Instant::now());
        self.local.totals.sink_calls[self.layer] += 1;
    }

    fn finish(&mut self) {
        let t = Instant::now();
        self.inner.finish();
        self.local.totals.sink_finish_ns += ns(t, Instant::now());
    }
}

/// Attached ahead of every other sink: timestamps each event and splits
/// the run into gaps between consecutive events.
struct Probe {
    local: Local,
    first: Option<Instant>,
    last: Option<(Instant, ThreadId)>,
    finished: Option<Instant>,
    handoff_ns: Vec<u64>,
    continue_ns: Vec<u64>,
}

impl Probe {
    fn new(slot: Arc<RunSlot>) -> Self {
        Probe {
            local: Local::new(slot),
            first: None,
            last: None,
            finished: None,
            handoff_ns: Vec::new(),
            continue_ns: Vec::new(),
        }
    }
}

impl EventSink for Probe {
    fn on_event(&mut self, ev: &Event) {
        let now = Instant::now();
        let l = &mut self.local.totals;
        if let Some((t, thread)) = self.last {
            let gap = ns(t, now);
            if thread == ev.thread {
                l.continue_ns += gap;
                self.continue_ns.push(gap);
            } else {
                l.handoffs += 1;
                l.handoff_ns += gap;
                self.handoff_ns.push(gap);
            }
        }
        self.first.get_or_insert(now);
        l.events += 1;
        if matches!(ev.op, Op::ThreadStart) {
            l.threads += 1;
        }
        self.last = Some((now, ev.thread));
    }

    fn finish(&mut self) {
        self.finished = Some(Instant::now());
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        let (first, last, finished) = (self.first, self.last.map(|(t, _)| t), self.finished);
        let (h, c) = (
            std::mem::take(&mut self.handoff_ns),
            std::mem::take(&mut self.continue_ns),
        );
        if let Ok(mut st) = self.local.slot.state.lock() {
            st.first_event = first;
            st.last_event = last;
            st.finished = finished;
            st.handoff_ns.extend(h);
            st.continue_ns.extend(c);
        }
    }
}

impl Collected {
    /// Per-layer metrics of the runtime, scheduler, noise, detector and
    /// native layers.
    pub fn metrics(&mut self) -> Vec<Metric> {
        self.handoff_ns.sort_unstable();
        self.continue_ns.sort_unstable();
        let spans = &self.spans;
        let runs = spans.len() as u64;
        let mut t = LayerTotals::default();
        for s in spans {
            t.add(&s.layers);
        }
        let run_sum: u64 = spans.iter().map(RunSpan::run_ns).sum();
        let self_sum: u64 = spans.iter().map(RunSpan::self_ns).sum();
        let children_sum: u64 = spans.iter().map(RunSpan::children_ns).sum();
        let spawn_sum: u64 = spans.iter().map(|s| s.spawn_ns).sum();
        let join_sum: u64 = spans.iter().map(|s| s.join_ns).sum();
        let mut run_ns: Vec<u64> = spans.iter().map(RunSpan::run_ns).collect();
        run_ns.sort_unstable();

        let native: Vec<&RunSpan> = spans.iter().filter(|s| s.native).collect();
        let mut native_ns: Vec<u64> = native.iter().map(|s| s.run_ns()).collect();
        native_ns.sort_unstable();
        let deadlocked: Vec<&&RunSpan> =
            native.iter().filter(|s| s.outcome == "deadlock").collect();
        let detect_sum: u64 = deadlocked.iter().map(|s| s.tail_ns).sum();

        let us = |v: u64| v as f64 / 1e3;
        let per_run = |v: u64| mean(v as f64, runs);
        let mut m = vec![
            Metric::new(
                "runtime.run_us.p50",
                us(percentile_sorted(&run_ns, 0.5)),
                "us",
            ),
            Metric::new(
                "runtime.run_us.p99",
                us(percentile_sorted(&run_ns, 0.99)),
                "us",
            ),
            Metric::new(
                "runtime.handoff_ns.p50",
                percentile_sorted(&self.handoff_ns, 0.5) as f64,
                "ns",
            ),
            Metric::new(
                "runtime.handoff_ns.p99",
                percentile_sorted(&self.handoff_ns, 0.99) as f64,
                "ns",
            ),
            Metric::new(
                "runtime.continue_ns.p50",
                percentile_sorted(&self.continue_ns, 0.5) as f64,
                "ns",
            ),
            Metric::new("runtime.self_us.mean", per_run(self_sum) / 1e3, "us"),
            Metric::new("runtime.spawn_us.mean", per_run(spawn_sum) / 1e3, "us"),
            Metric::new("runtime.join_us.mean", per_run(join_sum) / 1e3, "us"),
            Metric::new(
                "runtime.span_coverage",
                mean(children_sum as f64, run_sum),
                "ratio",
            ),
            Metric::new("runtime.steps_per_run", per_run(t.events), "count"),
            Metric::new("runtime.switches_per_run", per_run(t.handoffs), "count"),
            Metric::new("runtime.threads_per_run", per_run(t.threads), "count"),
            Metric::new("scheduler.picks", t.picks as f64, "count"),
            Metric::new(
                "scheduler.pick_ns.mean",
                mean(t.pick_ns as f64, t.picks),
                "ns",
            ),
            Metric::new("noise.calls", t.noise_calls as f64, "count"),
            Metric::new(
                "noise.decide_ns.mean",
                mean(t.noise_ns as f64, t.noise_calls),
                "ns",
            ),
            Metric::new("noise.injections", t.injections as f64, "count"),
            Metric::new("noise.sleep_ticks", t.sleep_ticks as f64, "count"),
        ];
        for (i, layer) in SINK_LAYERS.iter().enumerate() {
            m.push(Metric::new(
                format!("{layer}.on_event_ns.mean"),
                mean(t.sink_ns[i] as f64, t.sink_calls[i]),
                "ns",
            ));
        }
        let with_sinks = spans.iter().filter(|s| s.layers.sinks > 0).count() as u64;
        m.extend([
            Metric::new(
                "sinks.finish_us.mean",
                mean(t.sink_finish_ns as f64, with_sinks) / 1e3,
                "us",
            ),
            Metric::new(
                "native.run_us.p50",
                us(percentile_sorted(&native_ns, 0.5)),
                "us",
            ),
            Metric::new(
                "native.run_us.p99",
                us(percentile_sorted(&native_ns, 0.99)),
                "us",
            ),
            Metric::new(
                "native.detect_tail_us.mean",
                mean(detect_sum as f64, deadlocked.len() as u64) / 1e3,
                "us",
            ),
            Metric::new(
                "native.deadlock_frac",
                mean(deadlocked.len() as f64, native.len() as u64),
                "ratio",
            ),
            Metric::new(
                "native.kills",
                native.iter().filter(|s| s.killed).count() as f64,
                "count",
            ),
            Metric::new(
                "native.torn_reads",
                native.iter().map(|s| s.torn_reads).sum::<u64>() as f64,
                "count",
            ),
        ]);
        m
    }

    /// Write one NDJSON line per run span, in run-id order.
    pub fn write_spans(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut spans: Vec<&RunSpan> = self.spans.iter().collect();
        spans.sort_by_key(|s| s.run_id);
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans {
            s.to_json(workload).write_to(&mut w)?;
            w.write_all(b"\n")?;
        }
        w.flush()
    }
}
