//! # mtt-noise — noise-making heuristics
//!
//! A noise maker "forces different legal interleavings for each execution of
//! the test" (§2.2). The paper names the two research questions this crate
//! is organized around:
//!
//! 1. **Which heuristic?** — what to do at an instrumentation point
//!    ([`RandomYield`], [`RandomSleep`], [`Mixed`], [`HaltOneThread`],
//!    [`CoverageDirected`]).
//! 2. **Where to embed the calls?** — which points consult the heuristic at
//!    all: an [`mtt_instrument::InstrumentationPlan`] passed to
//!    [`mtt_runtime::Execution::noise_plan`] ([`placement`]: everywhere,
//!    synchronization only, variable accesses only; or
//!    [`InstrumentationPlan::advised`](mtt_instrument::InstrumentationPlan::advised),
//!    pruned by static analysis).
//!
//! All heuristics are deterministic given their seed, which keeps noisy
//! executions replayable. Each one implements
//! [`mtt_runtime::NoiseMaker`], so they plug into any execution:
//!
//! ```
//! use mtt_runtime::{Execution, ProgramBuilder, RandomScheduler};
//! use mtt_noise::RandomSleep;
//!
//! let mut b = ProgramBuilder::new("demo");
//! let x = b.var("x", 0);
//! b.entry(move |ctx| { ctx.write(x, 1); });
//! let p = b.build();
//! let outcome = Execution::new(&p)
//!     .scheduler(Box::new(RandomScheduler::sticky(1, 0.9)))
//!     .noise(Box::new(RandomSleep::new(7, 0.25, 10)))
//!     .run();
//! assert!(outcome.ok());
//! ```

use mtt_instrument::{Event, ThreadId, VarId};
use mtt_runtime::{NoiseDecision, NoiseMaker, NoiseView};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};

pub mod placement;

/// With probability `p`, force a context switch (yield) at the point.
/// The cheapest noise: costs no virtual time.
#[derive(Debug)]
pub struct RandomYield {
    rng: ChaCha8Rng,
    p: f64,
    label: String,
}

impl RandomYield {
    /// Yield with probability `p` at each consulted point.
    pub fn new(seed: u64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        RandomYield {
            rng: ChaCha8Rng::seed_from_u64(seed),
            p,
            label: format!("yield(p={p})"),
        }
    }
}

impl NoiseMaker for RandomYield {
    fn decide(&mut self, _ev: &Event, view: &NoiseView) -> NoiseDecision {
        if view.runnable > 1 && self.rng.gen_bool(self.p) {
            NoiseDecision::Yield
        } else {
            NoiseDecision::None
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// With probability `p`, put the thread to sleep for `1..=strength` ticks —
/// the classic ConTest-style sleep noise, strong enough to open wide races.
#[derive(Debug)]
pub struct RandomSleep {
    rng: ChaCha8Rng,
    p: f64,
    strength: u32,
    label: String,
}

impl RandomSleep {
    /// Sleep with probability `p` for up to `strength` ticks.
    pub fn new(seed: u64, p: f64, strength: u32) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        assert!(strength > 0, "strength must be positive");
        RandomSleep {
            rng: ChaCha8Rng::seed_from_u64(seed),
            p,
            strength,
            label: format!("sleep(p={p},s={strength})"),
        }
    }
}

impl NoiseMaker for RandomSleep {
    fn decide(&mut self, _ev: &Event, view: &NoiseView) -> NoiseDecision {
        if view.runnable > 1 && self.rng.gen_bool(self.p) {
            NoiseDecision::Sleep(self.rng.gen_range(1..=self.strength))
        } else {
            NoiseDecision::None
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// ConTest-style mixture: at each point, with probability `p`, choose yield
/// or sleep with equal odds.
#[derive(Debug)]
pub struct Mixed {
    rng: ChaCha8Rng,
    p: f64,
    strength: u32,
    label: String,
}

impl Mixed {
    /// Interfere with probability `p`; sleeps draw from `1..=strength`.
    pub fn new(seed: u64, p: f64, strength: u32) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        assert!(strength > 0, "strength must be positive");
        Mixed {
            rng: ChaCha8Rng::seed_from_u64(seed),
            p,
            strength,
            label: format!("mixed(p={p},s={strength})"),
        }
    }
}

impl NoiseMaker for Mixed {
    fn decide(&mut self, _ev: &Event, view: &NoiseView) -> NoiseDecision {
        if view.runnable <= 1 || !self.rng.gen_bool(self.p) {
            return NoiseDecision::None;
        }
        if self.rng.gen_bool(0.5) {
            NoiseDecision::Yield
        } else {
            NoiseDecision::Sleep(self.rng.gen_range(1..=self.strength))
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// Occasionally freeze one thread for a long stretch, letting the rest of
/// the program run far ahead — effective against ordering assumptions
/// ("thread A surely finishes before B gets there").
#[derive(Debug)]
pub struct HaltOneThread {
    rng: ChaCha8Rng,
    p: f64,
    duration: u32,
    /// Threads already halted once (halt each victim at most once per run,
    /// or the execution degenerates into lockstep sleeping).
    halted: HashSet<ThreadId>,
    label: String,
}

impl HaltOneThread {
    /// With probability `p` per point, halt the current thread for
    /// `duration` ticks (at most once per thread per execution).
    pub fn new(seed: u64, p: f64, duration: u32) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        assert!(duration > 0, "duration must be positive");
        HaltOneThread {
            rng: ChaCha8Rng::seed_from_u64(seed),
            p,
            duration,
            halted: HashSet::new(),
            label: format!("halt(p={p},d={duration})"),
        }
    }
}

impl NoiseMaker for HaltOneThread {
    fn decide(&mut self, ev: &Event, view: &NoiseView) -> NoiseDecision {
        if view.runnable > 1 && !self.halted.contains(&ev.thread) && self.rng.gen_bool(self.p) {
            self.halted.insert(ev.thread);
            NoiseDecision::Sleep(self.duration)
        } else {
            NoiseDecision::None
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// Coverage-directed noise: concentrate disturbance where inter-thread
/// interaction is still unexplored.
///
/// For each shared variable the heuristic tracks which *ordered pairs* of
/// distinct threads `(previous accessor → current accessor)` have been
/// observed. An access that could create a not-yet-seen pair is a frontier:
/// the heuristic sleeps there with the high probability `p_hot`, trying to
/// let other threads interleave; elsewhere it uses the low `p_cold`. This is
/// the "based on specific statistics or coverage" variant the paper
/// sketches for noise heuristics.
#[derive(Debug)]
pub struct CoverageDirected {
    rng: ChaCha8Rng,
    p_hot: f64,
    p_cold: f64,
    strength: u32,
    last_accessor: HashMap<VarId, ThreadId>,
    seen_pairs: HashSet<(VarId, ThreadId, ThreadId)>,
    label: String,
}

impl CoverageDirected {
    /// Hot/cold interference probabilities and sleep strength.
    pub fn new(seed: u64, p_hot: f64, p_cold: f64, strength: u32) -> Self {
        assert!((0.0..=1.0).contains(&p_hot) && (0.0..=1.0).contains(&p_cold));
        assert!(strength > 0);
        CoverageDirected {
            rng: ChaCha8Rng::seed_from_u64(seed),
            p_hot,
            p_cold,
            strength,
            last_accessor: HashMap::new(),
            seen_pairs: HashSet::new(),
            label: format!("coverage(hot={p_hot},cold={p_cold},s={strength})"),
        }
    }

    /// Number of distinct (var, thread→thread) interaction pairs observed.
    pub fn pairs_seen(&self) -> usize {
        self.seen_pairs.len()
    }
}

impl NoiseMaker for CoverageDirected {
    fn decide(&mut self, ev: &Event, view: &NoiseView) -> NoiseDecision {
        let var = match ev.op.var() {
            Some(v) => v,
            None => return NoiseDecision::None,
        };
        let me = ev.thread;
        let prev = self.last_accessor.insert(var, me);
        let p = match prev {
            Some(p_thread) if p_thread != me => {
                let fresh = self.seen_pairs.insert((var, p_thread, me));
                if fresh {
                    self.p_hot
                } else {
                    self.p_cold
                }
            }
            // Same thread again: the variable is live here but the
            // cross-thread pair from this point is unexplored — frontier.
            Some(_) => self.p_hot,
            None => self.p_cold,
        };
        if view.runnable > 1 && self.rng.gen_bool(p) {
            NoiseDecision::Sleep(self.rng.gen_range(1..=self.strength))
        } else {
            NoiseDecision::None
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtt_instrument::{Loc, LockId, Op};
    use std::sync::Arc;

    fn ev(thread: u32, op: Op) -> Event {
        Event {
            seq: 0,
            time: 0,
            thread: ThreadId(thread),
            loc: Loc::new("n", 1),
            op,
            locks_held: Arc::from(Vec::<LockId>::new()),
        }
    }

    fn view(runnable: usize) -> NoiseView {
        NoiseView {
            runnable,
            step: 0,
            time: 0,
        }
    }

    fn read(thread: u32, var: u32) -> Event {
        ev(
            thread,
            Op::VarRead {
                var: VarId(var),
                value: 0,
            },
        )
    }

    #[test]
    fn yield_noise_rate_matches_p() {
        let mut n = RandomYield::new(1, 0.3);
        let fired = (0..2000)
            .filter(|_| n.decide(&read(0, 0), &view(2)) == NoiseDecision::Yield)
            .count();
        assert!((450..750).contains(&fired), "fired {fired}/2000 at p=0.3");
    }

    #[test]
    fn noise_never_fires_when_alone() {
        let mut s = RandomSleep::new(1, 1.0, 5);
        let mut y = RandomYield::new(1, 1.0);
        let mut m = Mixed::new(1, 1.0, 5);
        for _ in 0..50 {
            assert_eq!(s.decide(&read(0, 0), &view(1)), NoiseDecision::None);
            assert_eq!(y.decide(&read(0, 0), &view(1)), NoiseDecision::None);
            assert_eq!(m.decide(&read(0, 0), &view(1)), NoiseDecision::None);
        }
    }

    #[test]
    fn sleep_noise_bounds_strength() {
        let mut n = RandomSleep::new(3, 1.0, 7);
        for _ in 0..200 {
            match n.decide(&read(0, 0), &view(3)) {
                NoiseDecision::Sleep(t) => assert!((1..=7).contains(&t)),
                d => panic!("expected sleep, got {d:?}"),
            }
        }
    }

    #[test]
    fn mixed_produces_both_kinds() {
        let mut n = Mixed::new(5, 1.0, 5);
        let mut yields = 0;
        let mut sleeps = 0;
        for _ in 0..300 {
            match n.decide(&read(0, 0), &view(2)) {
                NoiseDecision::Yield => yields += 1,
                NoiseDecision::Sleep(_) => sleeps += 1,
                NoiseDecision::None => {}
            }
        }
        assert!(yields > 50 && sleeps > 50, "y={yields} s={sleeps}");
    }

    #[test]
    fn halt_fires_once_per_thread() {
        let mut n = HaltOneThread::new(2, 1.0, 100);
        assert!(matches!(
            n.decide(&read(1, 0), &view(2)),
            NoiseDecision::Sleep(100)
        ));
        for _ in 0..20 {
            assert_eq!(n.decide(&read(1, 0), &view(2)), NoiseDecision::None);
        }
        assert!(matches!(
            n.decide(&read(2, 0), &view(2)),
            NoiseDecision::Sleep(100)
        ));
    }

    #[test]
    fn coverage_directed_is_hot_on_fresh_pairs() {
        let mut n = CoverageDirected::new(4, 1.0, 0.0, 5);
        // First access by t0: cold (p=0) -> none.
        assert_eq!(n.decide(&read(0, 0), &view(2)), NoiseDecision::None);
        // t1 follows t0 on var0: fresh pair -> hot (p=1) -> sleeps.
        assert!(matches!(
            n.decide(&read(1, 0), &view(2)),
            NoiseDecision::Sleep(_)
        ));
        assert_eq!(n.pairs_seen(), 1);
        // t1 again: same-thread repeat counts as frontier (hot).
        assert!(matches!(
            n.decide(&read(1, 0), &view(2)),
            NoiseDecision::Sleep(_)
        ));
        // t0 follows t1: the reverse pair is fresh -> hot.
        assert!(matches!(
            n.decide(&read(0, 0), &view(2)),
            NoiseDecision::Sleep(_)
        ));
        assert_eq!(n.pairs_seen(), 2);
        // Non-variable events are ignored.
        assert_eq!(n.decide(&ev(0, Op::Yield), &view(2)), NoiseDecision::None);
    }

    #[test]
    fn heuristics_are_deterministic_per_seed() {
        let run = |seed| {
            let mut n = Mixed::new(seed, 0.5, 10);
            (0..100)
                .map(|i| format!("{:?}", n.decide(&read(i % 3, i % 2), &view(3))))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_panics() {
        RandomYield::new(0, 1.5);
    }
}
