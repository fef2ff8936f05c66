//! The event model: what an instrumentation point reports.
//!
//! An [`Event`] is the unit of information flowing from the instrumented
//! program to every dynamic testing tool. The field set mirrors the record
//! format specified in §4 of the paper: *"Each record in the traces contain
//! information about the location in the program from which it was called,
//! what was instrumented, which variable was touched, thread name, if it is
//! a read or write"* — plus the lock context that offline lockset-based race
//! detectors need.

use mtt_json::{FromJson, Json, JsonError, JsonKey, ToJson};
use std::fmt;
use std::sync::Arc;

macro_rules! id_type {
    ($(#[$m:meta])* $name:ident) => {
        $(#[$m])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        mtt_json::json_newtype!($name);

        impl $name {
            /// Raw index, usable for dense table lookups.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

id_type!(
    /// Identifier of a model thread. Thread 0 is always the program's main
    /// thread; children get dense ids in spawn order, which keeps replays
    /// stable across executions of a deterministic program.
    ThreadId
);
id_type!(
    /// Identifier of a registered shared variable.
    VarId
);
id_type!(
    /// Identifier of a registered mutex.
    LockId
);
id_type!(
    /// Identifier of a registered condition variable.
    CondId
);
id_type!(
    /// Identifier of a registered counting semaphore.
    SemId
);
id_type!(
    /// Identifier of a registered barrier.
    BarrierId
);

impl ThreadId {
    /// The program's main thread.
    pub const MAIN: ThreadId = ThreadId(0);
}

/// Whether a variable operation reads or writes the shared store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    Read,
    Write,
}

mtt_json::json_enum!(AccessKind { Read, Write });

impl AccessKind {
    /// True for [`AccessKind::Write`].
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// A static program location: the "site" of an instrumentation point.
///
/// Sites are produced by the [`crate::site!`] macro (file + line of the
/// operation in the benchmark program source) or synthesized by front ends
/// such as the MiniProg compiler. Two events with equal `Loc` come from the
/// same static program point, which is what coverage models and noise
/// placement strategies key on.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Loc {
    /// Source file (or MiniProg program name) containing the operation.
    pub file: &'static str,
    /// 1-based line number within `file`.
    pub line: u32,
}

impl Loc {
    /// A location for operations synthesized by the framework itself.
    pub const SYNTHETIC: Loc = Loc {
        file: "<synthetic>",
        line: 0,
    };

    /// Build a location from parts (used by code generators).
    pub const fn new(file: &'static str, line: u32) -> Self {
        Loc { file, line }
    }
}

impl Loc {
    /// The interned `(file id, line)` key for this location.
    ///
    /// Hot-path consumers (per-event site counters, coverage models) key
    /// their tables on this pair instead of on `Loc` itself: comparing or
    /// hashing a `LocKey` is two integer operations, where keying on `Loc`
    /// compares/hashes the whole file-path string — and formatting the
    /// JSON key form would even allocate a `String` per lookup. The string
    /// form survives only at serialization time, once per *distinct* site.
    pub fn key(&self) -> LocKey {
        LocKey {
            file: intern_file_id(self.file),
            line: self.line,
        }
    }
}

/// Interned form of a [`Loc`]: a dense file id plus the line number.
///
/// Ordering on `LocKey` is by id, which is *insertion* order of the file
/// pool — stable within a process but not across processes. Anything
/// serialized must therefore convert back to [`Loc`] (see
/// [`LocKey::loc`]) and use its lexicographic string order, which is what
/// keeps reports byte-identical across runs and job counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocKey {
    /// Dense id of the interned file name (see [`intern_file_id`]).
    pub file: u32,
    /// 1-based line number.
    pub line: u32,
}

impl LocKey {
    /// Resolve back to the string-keyed location.
    pub fn loc(self) -> Loc {
        Loc {
            file: file_name(self.file),
            line: self.line,
        }
    }
}

/// A map keyed by [`LocKey`], hashed by [`LocKeyHasher`].
pub type LocKeyMap<V> =
    std::collections::HashMap<LocKey, V, std::hash::BuildHasherDefault<LocKeyHasher>>;

/// A multiply-rotate hasher (rustc's Fx hash) for [`LocKey`]s: one rotate,
/// xor and multiply per integer, where the default SipHash runs a dozen
/// rounds. It does not resist chosen keys, which a program's own sites
/// never are.
#[derive(Clone, Copy, Debug, Default)]
pub struct LocKeyHasher(u64);

impl std::hash::Hasher for LocKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl ToJson for Loc {
    /// Serialized as `"file:line"` so locations are legal JSON map keys.
    fn write_json(&self, out: &mut String) {
        self.to_key().write_json(out);
    }
}

impl FromJson for Loc {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let s = v
            .as_str()
            .ok_or_else(|| JsonError::expected("\"file:line\" string", v))?;
        Loc::from_key(s)
    }
}

impl JsonKey for Loc {
    fn to_key(&self) -> String {
        format!("{}:{}", self.file, self.line)
    }

    /// Parse `"file:line"`; the file part is interned (file names may
    /// legally contain ':', so the split is at the *last* colon).
    fn from_key(key: &str) -> Result<Self, JsonError> {
        let (file, line) = key
            .rsplit_once(':')
            .ok_or_else(|| JsonError::msg("location key must be \"file:line\""))?;
        let line = line
            .parse::<u32>()
            .map_err(|_| JsonError::msg("invalid line number in location key"))?;
        Ok(Loc {
            file: intern_static(file),
            line,
        })
    }
}

impl fmt::Debug for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

/// Intern a string into a `&'static str`.
///
/// [`Loc`] requires `&'static str` file names, but trace readers and
/// MiniProg front ends produce owned strings at runtime. The interner leaks
/// each *distinct* string once; the set of source files and program names in
/// a process is small and bounded, so the leak is too.
pub fn intern_static(s: &str) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashSet::new()));
    let mut set = pool.lock().expect("intern pool poisoned");
    if let Some(&existing) = set.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    set.insert(leaked);
    leaked
}

/// The process-wide file-id pool backing [`Loc::key`].
struct FilePool {
    by_name: std::collections::HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn file_pool() -> &'static std::sync::RwLock<FilePool> {
    use std::sync::{OnceLock, RwLock};
    static POOL: OnceLock<RwLock<FilePool>> = OnceLock::new();
    POOL.get_or_init(|| {
        RwLock::new(FilePool {
            by_name: std::collections::HashMap::new(),
            names: Vec::new(),
        })
    })
}

/// Intern a file name into a dense `u32` id (first come, first numbered).
///
/// Ids are per-process: the set of distinct source files is tiny, so the
/// common case is a read-locked hash lookup; the write lock is taken once
/// per new file ever seen.
pub fn intern_file_id(file: &'static str) -> u32 {
    if let Some(&id) = file_pool()
        .read()
        .expect("file pool poisoned")
        .by_name
        .get(file)
    {
        return id;
    }
    let mut pool = file_pool().write().expect("file pool poisoned");
    if let Some(&id) = pool.by_name.get(file) {
        return id;
    }
    let id = pool.names.len() as u32;
    pool.names.push(file);
    pool.by_name.insert(file, id);
    id
}

/// A two-entry memo of a per-file value, keyed by the file string's address
/// and length, in front of a process-wide table such as
/// [`intern_file_id`]'s. A run's events almost all come from the program's
/// file and from [`Loc::SYNTHETIC`] (thread start and exit), alternating,
/// so a per-run consumer that keeps both rarely takes the table's lock.
#[derive(Clone, Copy, Debug)]
pub struct FileMemo<V> {
    /// The most recently used file first.
    entries: [Option<(&'static str, V)>; 2],
}

impl<V> Default for FileMemo<V> {
    fn default() -> Self {
        FileMemo {
            entries: [None, None],
        }
    }
}

impl<V: Copy> FileMemo<V> {
    /// The value of `file`: remembered, or made by `make` and remembered in
    /// place of the less recently used entry.
    pub fn get(&mut self, file: &'static str, make: impl FnOnce(&'static str) -> V) -> V {
        match self.entries {
            [Some((f, v)), _] if std::ptr::eq(f, file) => v,
            [first, Some((f, v))] if std::ptr::eq(f, file) => {
                self.entries = [Some((f, v)), first];
                v
            }
            [first, _] => {
                let v = make(file);
                self.entries = [Some((file, v)), first];
                v
            }
        }
    }
}

/// Resolve a file id handed out by [`intern_file_id`] back to its name.
///
/// # Panics
/// On an id that was never issued in this process.
pub fn file_name(id: u32) -> &'static str {
    file_pool().read().expect("file pool poisoned").names[id as usize]
}

/// Capture the current source location as a [`Loc`].
#[macro_export]
macro_rules! site {
    () => {
        $crate::Loc {
            file: file!(),
            line: line!(),
        }
    };
}

/// The operation performed at an instrumentation point.
///
/// Every scheduling-relevant action of the model runtime is one of these.
/// Blocking primitives produce *two* events — a `…Request` before the thread
/// may block and an acquire/pass event once it proceeds — because online
/// deadlock monitors need to see intent, and noise makers want a hook before
/// the blocking decision is made.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// A read of `var` that observed `value`.
    VarRead { var: VarId, value: i64 },
    /// A write of `value` into `var`.
    VarWrite { var: VarId, value: i64 },
    /// An atomic read-modify-write of `var` (old value `old`, new value
    /// `new`). Atomic operations are synchronization actions: race
    /// detectors treat them as sync edges on the variable, not as plain
    /// data accesses.
    VarRmw { var: VarId, old: i64, new: i64 },
    /// The thread is about to acquire `lock` (may block).
    LockRequest { lock: LockId },
    /// The thread acquired `lock`.
    LockAcquire { lock: LockId },
    /// The thread released `lock`.
    LockRelease { lock: LockId },
    /// A `try_lock` that failed immediately.
    LockTryFail { lock: LockId },
    /// The thread began waiting on `cond`, releasing `lock`.
    CondWait { cond: CondId, lock: LockId },
    /// The thread woke from `cond` and re-acquired `lock`.
    CondWake { cond: CondId, lock: LockId },
    /// The thread signalled `cond`; `all` distinguishes notify-all.
    CondNotify { cond: CondId, all: bool },
    /// The thread is about to acquire one permit of `sem` (may block).
    SemRequest { sem: SemId },
    /// The thread acquired one permit of `sem`.
    SemAcquire { sem: SemId },
    /// The thread released one permit of `sem`.
    SemRelease { sem: SemId },
    /// The thread arrived at `barrier` (may block until the party is full).
    BarrierArrive { barrier: BarrierId },
    /// The thread passed `barrier`.
    BarrierPass { barrier: BarrierId },
    /// The thread spawned `child`.
    Spawn { child: ThreadId },
    /// The thread is about to join `target` (may block).
    JoinRequest { target: ThreadId },
    /// The thread completed a join on `target`.
    Join { target: ThreadId },
    /// First event of every thread.
    ThreadStart,
    /// Last event of every thread.
    ThreadExit,
    /// A voluntary scheduling point with no semantic effect.
    Yield,
    /// The thread slept for `ticks` units of virtual time.
    Sleep { ticks: u32 },
    /// A user-defined program point (label index into the program's label
    /// table), usable as a pure instrumentation hook.
    Point { label: u32 },
    /// An executable assertion evaluated to false. `label` indexes the
    /// program's label table.
    AssertFail { label: u32 },
}

mtt_json::json_enum!(Op {
    VarRead { var, value },
    VarWrite { var, value },
    VarRmw { var, old, new },
    LockRequest { lock },
    LockAcquire { lock },
    LockRelease { lock },
    LockTryFail { lock },
    CondWait { cond, lock },
    CondWake { cond, lock },
    CondNotify { cond, all },
    SemRequest { sem },
    SemAcquire { sem },
    SemRelease { sem },
    BarrierArrive { barrier },
    BarrierPass { barrier },
    Spawn { child },
    JoinRequest { target },
    Join { target },
    ThreadStart,
    ThreadExit,
    Yield,
    Sleep { ticks },
    Point { label },
    AssertFail { label },
});

/// Coarse classification of [`Op`]s, used by [`crate::plan`] filters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// `VarRead` / `VarWrite`.
    VarAccess,
    /// Mutex request/acquire/release/try-fail.
    Lock,
    /// Condition wait/wake/notify.
    Cond,
    /// Semaphore request/acquire/release.
    Sem,
    /// Barrier arrive/pass.
    Barrier,
    /// Spawn, join, thread start/exit.
    ThreadLife,
    /// Yield and sleep.
    Delay,
    /// `Point` and `AssertFail`.
    Marker,
}

mtt_json::json_enum!(OpClass {
    VarAccess,
    Lock,
    Cond,
    Sem,
    Barrier,
    ThreadLife,
    Delay,
    Marker,
});

impl OpClass {
    /// All classes, in a stable order.
    pub const ALL: [OpClass; 8] = [
        OpClass::VarAccess,
        OpClass::Lock,
        OpClass::Cond,
        OpClass::Sem,
        OpClass::Barrier,
        OpClass::ThreadLife,
        OpClass::Delay,
        OpClass::Marker,
    ];

    /// Dense index for bitset storage.
    #[inline]
    pub fn bit(self) -> u8 {
        self as u8
    }
}

impl Op {
    /// The coarse class of this operation.
    pub fn class(&self) -> OpClass {
        match self {
            Op::VarRead { .. } | Op::VarWrite { .. } | Op::VarRmw { .. } => OpClass::VarAccess,
            Op::LockRequest { .. }
            | Op::LockAcquire { .. }
            | Op::LockRelease { .. }
            | Op::LockTryFail { .. } => OpClass::Lock,
            Op::CondWait { .. } | Op::CondWake { .. } | Op::CondNotify { .. } => OpClass::Cond,
            Op::SemRequest { .. } | Op::SemAcquire { .. } | Op::SemRelease { .. } => OpClass::Sem,
            Op::BarrierArrive { .. } | Op::BarrierPass { .. } => OpClass::Barrier,
            Op::Spawn { .. }
            | Op::JoinRequest { .. }
            | Op::Join { .. }
            | Op::ThreadStart
            | Op::ThreadExit => OpClass::ThreadLife,
            Op::Yield | Op::Sleep { .. } => OpClass::Delay,
            Op::Point { .. } | Op::AssertFail { .. } => OpClass::Marker,
        }
    }

    /// The variable touched, if this is a variable access.
    pub fn var(&self) -> Option<VarId> {
        match self {
            Op::VarRead { var, .. } | Op::VarWrite { var, .. } | Op::VarRmw { var, .. } => {
                Some(*var)
            }
            _ => None,
        }
    }

    /// Read/write kind, if this is a variable access.
    pub fn access_kind(&self) -> Option<AccessKind> {
        match self {
            Op::VarRead { .. } => Some(AccessKind::Read),
            // An atomic RMW is at least a write for coverage purposes.
            Op::VarWrite { .. } | Op::VarRmw { .. } => Some(AccessKind::Write),
            _ => None,
        }
    }

    /// The lock involved, if any.
    pub fn lock(&self) -> Option<LockId> {
        match self {
            Op::LockRequest { lock }
            | Op::LockAcquire { lock }
            | Op::LockRelease { lock }
            | Op::LockTryFail { lock }
            | Op::CondWait { lock, .. }
            | Op::CondWake { lock, .. } => Some(*lock),
            _ => None,
        }
    }

    /// True if the operation is one of the `…Request`/`Arrive` events that
    /// precede a potentially blocking action.
    pub fn is_blocking_request(&self) -> bool {
        matches!(
            self,
            Op::LockRequest { .. }
                | Op::SemRequest { .. }
                | Op::JoinRequest { .. }
                | Op::BarrierArrive { .. }
                | Op::CondWait { .. }
        )
    }

    /// True if the operation establishes a happens-before edge (release or
    /// acquire semantics) in the model's synchronization order.
    pub fn is_sync(&self) -> bool {
        !matches!(
            self,
            Op::VarRead { .. }
                | Op::VarWrite { .. }
                | Op::Yield
                | Op::Sleep { .. }
                | Op::Point { .. }
                | Op::AssertFail { .. }
        )
    }

    /// True for plain (non-atomic) variable reads/writes — the accesses
    /// data-race detectors examine.
    pub fn is_plain_access(&self) -> bool {
        matches!(self, Op::VarRead { .. } | Op::VarWrite { .. })
    }
}

/// One instrumentation record.
///
/// Events are delivered to [`crate::EventSink`]s in global order (`seq` is
/// strictly increasing across the whole execution) because the model runtime
/// interleaves at most one thread at a time.
#[derive(Clone, Debug)]
pub struct Event {
    /// Global sequence number, dense from 0.
    pub seq: u64,
    /// Virtual time at which the operation happened.
    pub time: u64,
    /// The executing thread.
    pub thread: ThreadId,
    /// Static program location of the operation.
    pub loc: Loc,
    /// The operation itself.
    pub op: Op,
    /// Locks held by `thread` *after* the operation took effect. Shared so
    /// that the hot path clones a pointer, not a vector (the held-set only
    /// changes at lock operations).
    pub locks_held: Arc<[LockId]>,
}

mtt_json::json_struct!(Event {
    seq,
    time,
    thread,
    loc,
    op,
    locks_held,
});

impl Event {
    /// Convenience: variable + access kind for variable events.
    pub fn var_access(&self) -> Option<(VarId, AccessKind)> {
        Some((self.op.var()?, self.op.access_kind()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_memo_keeps_two_alternating_files() {
        let (a, b, c) = ("memo-a", "memo-b", "memo-c");
        let mut memo = FileMemo::default();
        let mut made = Vec::new();
        let mut get = |memo: &mut FileMemo<usize>, file: &'static str| {
            memo.get(file, |f| {
                made.push(f);
                f.len() + made.len()
            })
        };
        let first: Vec<usize> = [a, b, a, b, a].iter().map(|&f| get(&mut memo, f)).collect();
        assert_eq!(first, [7, 8, 7, 8, 7]);
        // A third file evicts the less recently used of the two.
        assert_eq!(get(&mut memo, c), 9);
        assert_eq!(get(&mut memo, a), 7);
        assert_eq!(get(&mut memo, b), 10);
        assert_eq!(made, [a, b, c, b]);
    }

    #[test]
    fn op_class_partition_is_total() {
        // Every Op constructor maps to exactly one class; spot-check each arm.
        let v = VarId(1);
        let l = LockId(2);
        let c = CondId(3);
        let s = SemId(4);
        let b = BarrierId(5);
        let t = ThreadId(6);
        let cases: Vec<(Op, OpClass)> = vec![
            (Op::VarRead { var: v, value: 0 }, OpClass::VarAccess),
            (Op::VarWrite { var: v, value: 1 }, OpClass::VarAccess),
            (Op::LockRequest { lock: l }, OpClass::Lock),
            (Op::LockAcquire { lock: l }, OpClass::Lock),
            (Op::LockRelease { lock: l }, OpClass::Lock),
            (Op::LockTryFail { lock: l }, OpClass::Lock),
            (Op::CondWait { cond: c, lock: l }, OpClass::Cond),
            (Op::CondWake { cond: c, lock: l }, OpClass::Cond),
            (Op::CondNotify { cond: c, all: true }, OpClass::Cond),
            (Op::SemRequest { sem: s }, OpClass::Sem),
            (Op::SemAcquire { sem: s }, OpClass::Sem),
            (Op::SemRelease { sem: s }, OpClass::Sem),
            (Op::BarrierArrive { barrier: b }, OpClass::Barrier),
            (Op::BarrierPass { barrier: b }, OpClass::Barrier),
            (Op::Spawn { child: t }, OpClass::ThreadLife),
            (Op::JoinRequest { target: t }, OpClass::ThreadLife),
            (Op::Join { target: t }, OpClass::ThreadLife),
            (Op::ThreadStart, OpClass::ThreadLife),
            (Op::ThreadExit, OpClass::ThreadLife),
            (Op::Yield, OpClass::Delay),
            (Op::Sleep { ticks: 3 }, OpClass::Delay),
            (Op::Point { label: 0 }, OpClass::Marker),
            (Op::AssertFail { label: 0 }, OpClass::Marker),
        ];
        for (op, class) in cases {
            assert_eq!(op.class(), class, "class of {op:?}");
        }
    }

    #[test]
    fn var_and_access_kind_extraction() {
        let r = Op::VarRead {
            var: VarId(7),
            value: 42,
        };
        assert_eq!(r.var(), Some(VarId(7)));
        assert_eq!(r.access_kind(), Some(AccessKind::Read));
        assert!(!AccessKind::Read.is_write());
        let w = Op::VarWrite {
            var: VarId(7),
            value: 42,
        };
        assert_eq!(w.access_kind(), Some(AccessKind::Write));
        assert!(AccessKind::Write.is_write());
        assert_eq!(Op::Yield.var(), None);
    }

    #[test]
    fn blocking_request_ops() {
        assert!(Op::LockRequest { lock: LockId(0) }.is_blocking_request());
        assert!(Op::CondWait {
            cond: CondId(0),
            lock: LockId(0)
        }
        .is_blocking_request());
        assert!(!Op::LockAcquire { lock: LockId(0) }.is_blocking_request());
        assert!(!Op::Yield.is_blocking_request());
    }

    #[test]
    fn sync_ops_exclude_plain_accesses() {
        assert!(!Op::VarRead {
            var: VarId(0),
            value: 0
        }
        .is_sync());
        assert!(!Op::Sleep { ticks: 1 }.is_sync());
        assert!(Op::LockAcquire { lock: LockId(0) }.is_sync());
        assert!(Op::Spawn { child: ThreadId(1) }.is_sync());
    }

    #[test]
    fn site_macro_captures_location() {
        let loc = site!();
        assert!(loc.file.ends_with("event.rs"));
        assert!(loc.line > 0);
        assert_eq!(format!("{loc}"), format!("{}:{}", loc.file, loc.line));
    }

    #[test]
    fn id_types_display_and_index() {
        let t = ThreadId(3);
        assert_eq!(t.index(), 3);
        assert_eq!(format!("{t}"), "3");
        assert_eq!(format!("{t:?}"), "ThreadId(3)");
        assert_eq!(ThreadId::MAIN, ThreadId(0));
    }
}
