//! [`RuntimeBackend`]: the seam between the *model* engine and the
//! *native-threads* engine.
//!
//! The model backend (the default) serializes all program activity through
//! a token-passing controller: executions are deterministic functions of the
//! scheduler's decisions, which is what replay, systematic exploration and
//! byte-stable experiment reports are built on. Its threads are coroutines
//! on the OS thread that runs the execution, and each scheduling point
//! resumes only the thread the scheduler picked.
//!
//! The native backend runs the *same* program closures on real
//! `std::thread`s over real atomics. Nothing serializes program steps, so
//! outcomes are genuinely nondeterministic — which is the point: it answers
//! "does the model's find-probability survive contact with a real scheduler
//! and a real memory system?" (experiment E13). Races there are physical, so
//! the native engine uses `mtt_race::RaceCell` torn-value detection as its
//! race oracle instead of an event-stream detector.
//!
//! Both engines run **one op-semantics layer** ([`crate::ThreadCtx`]): each
//! op is written once, as a transition on the same model tables (lock
//! owners, condition queues, permits, barrier arrivals, thread statuses)
//! followed by the emitted [`crate::Event`], so every tool sees the same
//! event vocabulary from either engine. Waking is a status transition —
//! whatever unblocks a waiter sets it `Ready` — and one deadlock rule (no
//! runnable thread, no pending timed wake, not all threads finished) serves
//! the model's scheduler and the native watchdog alike. Only five things
//! stay engine-specific: where values live (the model store with its
//! weak-visibility cache, or atomics and `RaceCell`s accessed outside the
//! bookkeeping lock), how a thread parks (suspended until it holds the
//! token, or until its own status changes), how it sleeps (virtual or
//! wall-clock ticks), the step tail (a scheduling point, or noise applied
//! with real thread primitives), and run setup and teardown (token
//! handoff, or the watchdog). Both produce the same [`crate::Outcome`]
//! shape.
//!
//! Neither engine lets a thread run that may not: the model resumes
//! exactly the scheduler's pick, and a native transition wakes exactly the
//! waiters it readied, each parked on a slot of its own. The model runs all
//! threads of an execution on one OS thread; the native engine runs them
//! on OS threads reused across runs.

/// Which execution engine an [`crate::Execution`] uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RuntimeBackend {
    /// The deterministic token-passing model engine (default).
    #[default]
    Model,
    /// Real OS threads, real synchronization, wall-clock time.
    Native,
}

impl RuntimeBackend {
    /// Short stable tag, used in tool specs, run logs and journal keys.
    pub fn tag(self) -> &'static str {
        match self {
            RuntimeBackend::Model => "model",
            RuntimeBackend::Native => "native",
        }
    }

    /// Inverse of [`Self::tag`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "model" => Some(RuntimeBackend::Model),
            "native" => Some(RuntimeBackend::Native),
            _ => None,
        }
    }

    /// Is this the native-threads engine?
    pub fn is_native(self) -> bool {
        matches!(self, RuntimeBackend::Native)
    }
}

impl std::fmt::Display for RuntimeBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_round_trip() {
        for b in [RuntimeBackend::Model, RuntimeBackend::Native] {
            assert_eq!(RuntimeBackend::parse(b.tag()), Some(b));
        }
        assert_eq!(RuntimeBackend::parse("simulated"), None);
        assert_eq!(RuntimeBackend::default(), RuntimeBackend::Model);
        assert!(!RuntimeBackend::Model.is_native());
        assert_eq!(RuntimeBackend::Native.to_string(), "native");
    }
}
