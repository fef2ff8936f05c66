//! Canonical Mazurkiewicz-trace fingerprints.
//!
//! A [`TraceFingerprint`] is a stable 128-bit hash of the happens-before
//! *partial order* of an execution, not of its linearization: two runs hash
//! equal exactly when they are the same Mazurkiewicz trace — the same
//! per-thread event sequences with the same dependence edges between them —
//! and reordering *independent* operations never changes the value. This is
//! what lets the schedule-coverage layer (`mtt-coverage`,
//! `ScheduleCoverage`) count *genuinely distinct* schedules instead of
//! distinct interleavings.
//!
//! The construction:
//!
//! 1. Replay the event stream through a dependence-aware vector-clock
//!    machine: the synchronization edges of [`SyncClocks`]' table
//!    (release→acquire, spawn→start, exit→join, notify→wake, barrier,
//!    semaphore, atomic RMW chains) **plus** per-variable conflict edges:
//!    every access joins the clock of the last write to the variable, and
//!    a write additionally joins the accumulated clocks of the reads since
//!    that write. Read–read pairs stay independent.
//!    Sync-only clocks would not do: two *racing* writes are concurrent
//!    under the sync order, so swapping them would not change any clock —
//!    but it is a different trace, and the conflict edges see that.
//! 2. Fold each thread's events, **in program order**, into a per-thread
//!    running hash over (location, op kind, resource ids, dependence
//!    clock). Sequence numbers, virtual time, and data values are
//!    excluded — they vary across equivalent linearizations or replays.
//! 3. Combine the per-thread lanes in thread-id order.
//!
//! Per-thread order and the dependence clocks are invariants of the
//! equivalence class (clock joins happen only along dependence edges, and
//! dependent events keep their relative order in every linearization of
//! the same trace), so the whole fingerprint is too. Property tests in
//! `tests/props.rs` pin both directions of the contract.

use crate::clock::VectorClock;
use crate::sync::SyncClocks;
use crate::table::IdTable;
use mtt_instrument::{AccessKind, Event, EventSink, FileMemo, Op};
use mtt_trace::Trace;
use std::fmt;

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

/// A canonical fingerprint of one Mazurkiewicz trace (HB-equivalence class
/// of executions). Rendered as 32 lowercase hex digits.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceFingerprint(pub u128);

impl TraceFingerprint {
    /// The canonical 32-hex-digit rendering (journal / run-log form).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for TraceFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Debug for TraceFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TraceFingerprint({:032x})", self.0)
    }
}

/// Incremental FNV-1a-128 state.
#[derive(Clone, Copy)]
struct Fnv(u128);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }
}

/// FNV-1a-128 over one fixed name, as a function of the state it starts
/// from, in O(1) per call.
///
/// The FNV prime is ≡ 0x3B (mod 256), so the low byte of the state evolves
/// on its own: hashing the name from state `h` gives `(h - l)·P^n + T[l]`
/// (mod 2^128), where `l = h mod 256`, `n` is the name's length and `T[l]`
/// is the byte-wise hash of the name from state `l`.
#[derive(Debug)]
struct NameHash {
    /// `P^n`.
    pow: u128,
    /// `T[l]` for every low byte `l`.
    table: [u128; 256],
}

impl NameHash {
    fn new(name: &[u8]) -> Self {
        let pow = name.iter().fold(1u128, |p, _| p.wrapping_mul(FNV_PRIME));
        let table = std::array::from_fn(|l| {
            let mut h = Fnv(l as u128);
            h.write(name);
            h.0
        });
        NameHash { pow, table }
    }

    /// The state after hashing the name from `h`.
    fn apply(&self, h: u128) -> u128 {
        let low = h & 0xff;
        (h - low)
            .wrapping_mul(self.pow)
            .wrapping_add(self.table[low as usize])
    }

    /// The table of `file`, built once per distinct name per process and
    /// leaked, as [`mtt_instrument::intern_static`] leaks its strings: a
    /// process hashes a small, bounded set of file names.
    fn of(file: &'static str) -> &'static NameHash {
        use std::collections::HashMap;
        use std::sync::{Mutex, OnceLock};
        static TABLES: OnceLock<Mutex<HashMap<&'static str, &'static NameHash>>> = OnceLock::new();
        let mut tables = TABLES
            .get_or_init(Mutex::default)
            .lock()
            .expect("name-hash tables poisoned");
        tables
            .entry(file)
            .or_insert_with(|| Box::leak(Box::new(NameHash::new(file.as_bytes()))))
    }
}

/// The conflict clocks of one variable. An empty clock joins as a no-op, so
/// "no write yet" and "no read since the last write" need no flag.
#[derive(Clone, Debug, Default)]
struct VarClocks {
    /// Clock of the last write.
    write: VectorClock,
    /// Joined clocks of the reads since the last write.
    reads: VectorClock,
}

/// [`EventSink`] computing a [`TraceFingerprint`] over a live or replayed
/// event stream in O(events) time and O(threads + resources) space — cheap
/// enough to ride along on every campaign run.
#[derive(Clone, Debug, Default)]
pub struct Fingerprinter {
    sync: SyncClocks,
    /// Conflict clocks per variable, by id.
    vars: IdTable<VarClocks>,
    /// Per-thread (event count, running lane hash), by thread id so the
    /// final fold is in canonical order. A thread that never emitted an
    /// event has no lane.
    lanes: IdTable<(u64, u128)>,
    events: u64,
    /// The two most recent file names' hash tables, so the process-wide
    /// tables are rarely looked up at all.
    files: FileMemo<&'static NameHash>,
}

impl Fingerprinter {
    /// Fresh fingerprinter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Events consumed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The hash table of `file`'s name.
    fn name_hash(&mut self, file: &'static str) -> &'static NameHash {
        self.files.get(file, NameHash::of)
    }

    /// The fingerprint of everything consumed so far.
    pub fn fingerprint(&self) -> TraceFingerprint {
        let mut h = Fnv::new();
        for (t, &(count, lane)) in self.lanes.iter() {
            h.write_u32(t);
            h.write(&count.to_le_bytes());
            h.write(&lane.to_le_bytes());
        }
        TraceFingerprint(h.0)
    }
}

/// Feed the structural label of an event: location (its file name through
/// `file`, the name's table), op kind, resource ids. Deliberately excluded:
/// `seq`, `time`, data values (they differ between equivalent
/// linearizations or across replay modes).
fn hash_label(h: &mut Fnv, file: &NameHash, ev: &Event) {
    h.0 = file.apply(h.0);
    h.write_u32(ev.loc.line);
    match ev.op {
        Op::VarRead { var, .. } => {
            h.write_u32(1);
            h.write_u32(var.0);
        }
        Op::VarWrite { var, .. } => {
            h.write_u32(2);
            h.write_u32(var.0);
        }
        Op::VarRmw { var, .. } => {
            h.write_u32(3);
            h.write_u32(var.0);
        }
        Op::LockRequest { lock } => {
            h.write_u32(4);
            h.write_u32(lock.0);
        }
        Op::LockAcquire { lock } => {
            h.write_u32(5);
            h.write_u32(lock.0);
        }
        Op::LockRelease { lock } => {
            h.write_u32(6);
            h.write_u32(lock.0);
        }
        Op::LockTryFail { lock } => {
            h.write_u32(7);
            h.write_u32(lock.0);
        }
        Op::CondWait { cond, lock } => {
            h.write_u32(8);
            h.write_u32(cond.0);
            h.write_u32(lock.0);
        }
        Op::CondWake { cond, lock } => {
            h.write_u32(9);
            h.write_u32(cond.0);
            h.write_u32(lock.0);
        }
        Op::CondNotify { cond, all } => {
            h.write_u32(10);
            h.write_u32(cond.0);
            h.write_u32(u32::from(all));
        }
        Op::SemRequest { sem } => {
            h.write_u32(11);
            h.write_u32(sem.0);
        }
        Op::SemAcquire { sem } => {
            h.write_u32(12);
            h.write_u32(sem.0);
        }
        Op::SemRelease { sem } => {
            h.write_u32(13);
            h.write_u32(sem.0);
        }
        Op::BarrierArrive { barrier } => {
            h.write_u32(14);
            h.write_u32(barrier.0);
        }
        Op::BarrierPass { barrier } => {
            h.write_u32(15);
            h.write_u32(barrier.0);
        }
        Op::Spawn { child } => {
            h.write_u32(16);
            h.write_u32(child.0);
        }
        Op::JoinRequest { target } => {
            h.write_u32(17);
            h.write_u32(target.0);
        }
        Op::Join { target } => {
            h.write_u32(18);
            h.write_u32(target.0);
        }
        Op::ThreadStart => h.write_u32(19),
        Op::ThreadExit => h.write_u32(20),
        Op::Yield => h.write_u32(21),
        Op::Sleep { ticks } => {
            h.write_u32(22);
            h.write_u32(ticks);
        }
        Op::Point { label } => {
            h.write_u32(23);
            h.write_u32(label);
        }
        Op::AssertFail { label } => {
            h.write_u32(24);
            h.write_u32(label);
        }
    }
}

/// Feed a clock as sparse (index, value) pairs so trailing zeros (threads
/// a clock never saw) cannot perturb the hash.
fn hash_clock(h: &mut Fnv, clock: &VectorClock) {
    for (i, &v) in clock.components().iter().enumerate() {
        if v != 0 {
            h.write_u32(i as u32);
            h.write_u32(v);
        }
    }
}

impl EventSink for Fingerprinter {
    fn on_event(&mut self, ev: &Event) {
        let me = ev.thread;
        let file = self.name_hash(ev.loc.file);
        self.sync.acquire(ev);
        let mut access = ev.op.var().zip(ev.op.access_kind()).map(|(var, kind)| {
            (
                self.vars.get_or_insert_with(var.0, VarClocks::default),
                kind,
            )
        });
        // Conflict edges: any access sees the last write; a write also
        // sees every read since then. Read–read pairs stay independent.
        let tc = self.sync.clock(me);
        if let Some((var, kind)) = &mut access {
            tc.join(&var.write);
            if *kind == AccessKind::Write {
                tc.join(&var.reads);
                var.reads.clear();
            }
        }
        tc.tick(me);
        self.sync.release(ev);
        let snapshot = self.sync.clock(me);
        // Conflict bookkeeping.
        if let Some((var, kind)) = access {
            match kind {
                AccessKind::Read => var.reads.join(snapshot),
                AccessKind::Write => var.write.clone_from(snapshot),
            }
        }
        // Fold into the thread's lane.
        let lane = self.lanes.get_or_insert_with(me.0, || (0, FNV_OFFSET));
        let mut h = Fnv(lane.1);
        hash_label(&mut h, file, ev);
        hash_clock(&mut h, snapshot);
        lane.0 += 1;
        lane.1 = h.0;
        self.events += 1;
    }
}

/// Fingerprint a recorded trace by replaying its records.
pub fn fingerprint_trace(trace: &Trace) -> TraceFingerprint {
    let mut f = Fingerprinter::new();
    trace.feed(&mut f);
    f.fingerprint()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtt_instrument::{Loc, LockId, ThreadId, VarId};
    use std::sync::Arc;

    fn ev(seq: u64, thread: u32, op: Op) -> Event {
        Event {
            seq,
            time: seq * 3 + 1,
            thread: ThreadId(thread),
            loc: Loc::new("p", thread + 1),
            op,
            locks_held: Arc::from(Vec::<LockId>::new()),
        }
    }

    fn fp(events: &[Event]) -> TraceFingerprint {
        let mut f = Fingerprinter::new();
        for e in events {
            f.on_event(e);
        }
        f.finish();
        f.fingerprint()
    }

    fn write(var: u32, value: i64) -> Op {
        Op::VarWrite {
            var: VarId(var),
            value,
        }
    }

    fn read(var: u32) -> Op {
        Op::VarRead {
            var: VarId(var),
            value: 0,
        }
    }

    /// The byte-wise FNV-1a-128 of `name` from state `h`.
    fn bytewise(h: u128, name: &[u8]) -> u128 {
        let mut f = Fnv(h);
        f.write(name);
        f.0
    }

    proptest::proptest! {
        #[test]
        fn name_table_equals_bytewise_fnv(
            high in proptest::prelude::any::<u64>(),
            low in proptest::prelude::any::<u64>(),
            name in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
        ) {
            let h = (u128::from(high) << 64) | u128::from(low);
            let table = NameHash::new(&name);
            proptest::prop_assert_eq!(table.apply(h), bytewise(h, &name));
            proptest::prop_assert_eq!(table.apply(FNV_OFFSET), bytewise(FNV_OFFSET, &name));
        }
    }

    #[test]
    fn name_table_covers_empty_and_long_names() {
        let long: Vec<u8> = (0..5_000u32).map(|i| (i * 37 % 251) as u8).collect();
        for name in [&b""[..], b"p", b"crates/suite/src/small.rs", &long] {
            let table = NameHash::new(name);
            for h in [0, 1, 0xff, 0x100, FNV_OFFSET, u128::MAX, u128::MAX - 0x80] {
                assert_eq!(table.apply(h), bytewise(h, name), "{} bytes", name.len());
            }
        }
        assert!(std::ptr::eq(NameHash::of("p"), NameHash::of("p")));
    }

    #[test]
    fn hex_form_is_32_digits() {
        let f = fp(&[ev(0, 0, write(0, 1))]);
        assert_eq!(f.to_hex().len(), 32);
        assert_eq!(format!("{f}"), f.to_hex());
    }

    #[test]
    fn independent_interleavings_hash_equal() {
        // Two threads touching disjoint variables: every interleaving is
        // the same Mazurkiewicz trace.
        let a = fp(&[
            ev(0, 0, write(0, 1)),
            ev(1, 1, write(1, 2)),
            ev(2, 0, read(0)),
            ev(3, 1, read(1)),
        ]);
        let b = fp(&[
            ev(0, 1, write(1, 2)),
            ev(1, 1, read(1)),
            ev(2, 0, write(0, 1)),
            ev(3, 0, read(0)),
        ]);
        assert_eq!(a, b);
    }

    #[test]
    fn racing_write_order_distinguishes() {
        // Same events, opposite order of two *dependent* (racing) writes:
        // different trace, different fingerprint. Sync-only clocks would
        // miss this — the conflict edges are what see it.
        let a = fp(&[ev(0, 0, write(0, 1)), ev(1, 1, write(0, 2))]);
        let b = fp(&[ev(0, 1, write(0, 2)), ev(1, 0, write(0, 1))]);
        assert_ne!(a, b);
    }

    #[test]
    fn read_read_pairs_stay_independent() {
        let setup = ev(0, 0, write(0, 7));
        let a = fp(&[setup.clone(), ev(1, 1, read(0)), ev(2, 2, read(0))]);
        let b = fp(&[setup, ev(1, 2, read(0)), ev(2, 1, read(0))]);
        assert_eq!(a, b);
    }

    #[test]
    fn write_read_order_distinguishes() {
        let a = fp(&[ev(0, 0, write(0, 1)), ev(1, 1, read(0))]);
        let b = fp(&[ev(0, 1, read(0)), ev(1, 0, write(0, 1))]);
        assert_ne!(a, b);
    }

    #[test]
    fn lock_handoff_order_distinguishes() {
        let l = LockId(0);
        let crit = |t: u32, base: u64| {
            vec![
                ev(base, t, Op::LockAcquire { lock: l }),
                ev(base + 1, t, Op::LockRelease { lock: l }),
            ]
        };
        let mut a = crit(0, 0);
        a.extend(crit(1, 2));
        let mut b = crit(1, 0);
        b.extend(crit(0, 2));
        assert_ne!(fp(&a), fp(&b));
    }

    #[test]
    fn seq_and_time_and_values_do_not_matter() {
        let a = fp(&[ev(0, 0, write(0, 1)), ev(1, 0, read(0))]);
        let mut shifted = vec![ev(10, 0, write(0, 5)), ev(42, 0, read(0))];
        shifted[0].time = 999;
        shifted[1].time = 1000;
        assert_eq!(a, fp(&shifted));
    }

    #[test]
    fn trace_replay_matches_live_feed() {
        use mtt_trace::{TraceCollector, TraceRecord};
        let events = vec![
            ev(0, 0, Op::Spawn { child: ThreadId(1) }),
            ev(1, 1, Op::ThreadStart),
            ev(2, 1, write(0, 3)),
            ev(3, 1, Op::ThreadExit),
            ev(
                4,
                0,
                Op::Join {
                    target: ThreadId(1),
                },
            ),
        ];
        let live = fp(&events);
        let mut c = TraceCollector::new();
        for e in &events {
            c.trace.records.push(TraceRecord::from_event(e));
        }
        assert_eq!(fingerprint_trace(&c.into_trace()), live);
    }

    #[test]
    fn out_of_order_threads_and_a_silent_child_keep_their_fingerprint() {
        // Threads first emit in the order 0, 3, 1, and thread 2 is spawned
        // but never emits: its lane must stay out of the hash. The value
        // was computed by the map-based fingerprinter this one replaced.
        use mtt_instrument::{CondId, SemId};
        let (l, c, s) = (LockId(1), CondId(0), SemId(2));
        let rmw = |old, new| Op::VarRmw {
            var: VarId(4),
            old,
            new,
        };
        let ops = [
            (0, Op::Spawn { child: ThreadId(3) }),
            (0, Op::Spawn { child: ThreadId(1) }),
            (0, Op::Spawn { child: ThreadId(2) }),
            (3, Op::ThreadStart),
            (3, Op::LockAcquire { lock: l }),
            (3, write(9, 4)),
            (1, Op::ThreadStart),
            (1, read(9)),
            (
                3,
                Op::CondNotify {
                    cond: c,
                    all: false,
                },
            ),
            (3, Op::LockRelease { lock: l }),
            (0, Op::LockAcquire { lock: l }),
            (0, write(9, 5)),
            (0, Op::LockRelease { lock: l }),
            (1, Op::SemRelease { sem: s }),
            (3, Op::SemAcquire { sem: s }),
            (3, rmw(0, 1)),
            (1, rmw(1, 2)),
            (1, read(9)),
            (3, Op::ThreadExit),
            (
                0,
                Op::Join {
                    target: ThreadId(3),
                },
            ),
            (1, Op::ThreadExit),
            (
                0,
                Op::Join {
                    target: ThreadId(1),
                },
            ),
            (0, read(4)),
        ];
        let events: Vec<Event> = ops
            .into_iter()
            .enumerate()
            .map(|(i, (t, op))| ev(i as u64, t, op))
            .collect();
        assert_eq!(fp(&events).to_hex(), "35f1f10aeda9354b2eb71e2c69d4ef08");
    }
}
