//! The vector-clock lattice underlying every happens-before computation.
//!
//! This is the canonical home of [`VectorClock`]; `mtt-race` re-exports it
//! so the FastTrack detector and the causal annotator share one
//! implementation (and one set of algebraic laws, property-tested in this
//! crate's `tests/props.rs`).

use mtt_instrument::ThreadId;

/// A grow-on-demand vector clock.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct VectorClock {
    clocks: Vec<u32>,
}

impl Clone for VectorClock {
    fn clone(&self) -> Self {
        VectorClock {
            clocks: self.clocks.clone(),
        }
    }

    /// Copies `source` into this clock's allocation.
    fn clone_from(&mut self, source: &Self) {
        self.clocks.clone_from(&source.clocks);
    }
}

impl VectorClock {
    /// The zero clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Component for `t` (0 when never set).
    #[inline]
    pub fn get(&self, t: ThreadId) -> u32 {
        self.clocks.get(t.index()).copied().unwrap_or(0)
    }

    /// Set component `t`.
    pub fn set(&mut self, t: ThreadId, v: u32) {
        if self.clocks.len() <= t.index() {
            self.clocks.resize(t.index() + 1, 0);
        }
        self.clocks[t.index()] = v;
    }

    /// Increment component `t`, returning the new value.
    pub fn tick(&mut self, t: ThreadId) -> u32 {
        let v = self.get(t) + 1;
        self.set(t, v);
        v
    }

    /// Back to the zero clock, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.clocks.clear();
    }

    /// Pointwise maximum (join).
    pub fn join(&mut self, other: &VectorClock) {
        if self.clocks.len() < other.clocks.len() {
            self.clocks.resize(other.clocks.len(), 0);
        }
        for (i, &v) in other.clocks.iter().enumerate() {
            if self.clocks[i] < v {
                self.clocks[i] = v;
            }
        }
    }

    /// Pointwise `self ≤ other` (happens-before or equal).
    pub fn le(&self, other: &VectorClock) -> bool {
        self.clocks
            .iter()
            .enumerate()
            .all(|(i, &v)| v <= other.clocks.get(i).copied().unwrap_or(0))
    }

    /// Strict pointwise order: `self ≤ other` and the clocks differ.
    pub fn lt(&self, other: &VectorClock) -> bool {
        self.le(other) && !other.le(self)
    }

    /// Neither clock is below the other: the two timestamps are causally
    /// unordered.
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        !self.le(other) && !other.le(self)
    }

    /// The raw components (trailing threads the clock never saw are absent,
    /// which is the same as a 0 entry). Used by the annotated-trace codec.
    pub fn components(&self) -> &[u32] {
        &self.clocks
    }

    /// Rebuild a clock from raw components (annotated-trace decoding).
    pub fn from_components(clocks: Vec<u32>) -> Self {
        VectorClock { clocks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_helpers() {
        let mut a = VectorClock::new();
        a.set(ThreadId(0), 2);
        let mut b = a.clone();
        b.tick(ThreadId(1));
        assert!(a.le(&b));
        assert!(a.lt(&b));
        assert!(!b.lt(&a));
        assert!(!a.lt(&a));
        let mut c = VectorClock::new();
        c.set(ThreadId(1), 5);
        assert!(a.concurrent_with(&c));
        assert!(!a.concurrent_with(&b));
    }

    #[test]
    fn components_roundtrip() {
        let mut a = VectorClock::new();
        a.set(ThreadId(2), 7);
        assert_eq!(a.components(), &[0, 0, 7]);
        let b = VectorClock::from_components(a.components().to_vec());
        assert_eq!(a, b);
    }
}
