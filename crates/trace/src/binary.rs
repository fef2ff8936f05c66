//! Compact binary trace codec.
//!
//! Off-line analysis "suffers from the fact that huge traces are produced,
//! and techniques compete in reducing and compressing the information
//! needed" (§2.2). This codec is the storage-efficient half of experiment
//! E8: LEB128 varints, delta-encoded sequence numbers and times, a string
//! table for file names and bug tags, and one tag byte per operation.
//!
//! Layout:
//! ```text
//! magic "MTTB" | version u8 |
//! meta: varint len + JSON bytes (meta is tiny and cold) |
//! file table: varint count + (varint len + bytes)* |
//! tag table:  varint count + (varint len + bytes)* |
//! records: varint count + record*
//! record: dseq dtime thread file_idx line op locks tags   (all varints)
//! ```

use crate::record::{Trace, TraceRecord};
use mtt_instrument::{BarrierId, CondId, LockId, Op, SemId, ThreadId, VarId};
use std::collections::HashMap;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"MTTB";
const VERSION: u8 = 1;

/// Errors from decoding a binary trace.
#[derive(Debug)]
pub enum BinaryTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Magic/version mismatch or structural corruption.
    Corrupt(&'static str),
    /// The embedded meta JSON failed to parse.
    Meta(mtt_json::JsonError),
    /// Record `record` (counted from 0) names a thread id that is not below
    /// [`crate::THREAD_ID_BOUND`].
    ThreadId { record: usize, id: u32 },
}

impl std::fmt::Display for BinaryTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinaryTraceError::Io(e) => write!(f, "binary trace i/o error: {e}"),
            BinaryTraceError::Corrupt(what) => write!(f, "binary trace corrupt: {what}"),
            BinaryTraceError::Meta(e) => write!(f, "binary trace meta invalid: {e}"),
            BinaryTraceError::ThreadId { record, id } => write!(
                f,
                "binary trace record {record}: thread id {id} is not below {}",
                crate::THREAD_ID_BOUND
            ),
        }
    }
}

impl std::error::Error for BinaryTraceError {}

impl From<io::Error> for BinaryTraceError {
    fn from(e: io::Error) -> Self {
        BinaryTraceError::Io(e)
    }
}

// ---------------------------------------------------------------------
// varint primitives
// ---------------------------------------------------------------------

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Zig-zag encoding for signed values.
fn put_varint_i64(buf: &mut Vec<u8>, v: i64) {
    put_varint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

fn get_varint(data: &[u8], pos: &mut usize) -> Result<u64, BinaryTraceError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *data
            .get(*pos)
            .ok_or(BinaryTraceError::Corrupt("truncated varint"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(BinaryTraceError::Corrupt("varint overflow"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// A varint that must fit in a `u32`: ids and lines are 32-bit, so a wider
/// value is corruption, not an id to truncate.
fn get_u32(data: &[u8], pos: &mut usize) -> Result<u32, BinaryTraceError> {
    u32::try_from(get_varint(data, pos)?)
        .map_err(|_| BinaryTraceError::Corrupt("value exceeds u32"))
}

/// The length of a table or list whose items each take at least one byte,
/// so a count above the bytes left is corruption. Every preallocation is
/// sized by such a count, so none is larger than the input.
fn get_count(data: &[u8], pos: &mut usize) -> Result<usize, BinaryTraceError> {
    let n = get_varint(data, pos)?;
    usize::try_from(n)
        .ok()
        .filter(|&n| n <= data.len() - *pos)
        .ok_or(BinaryTraceError::Corrupt("count exceeds input"))
}

fn get_varint_i64(data: &[u8], pos: &mut usize) -> Result<i64, BinaryTraceError> {
    let z = get_varint(data, pos)?;
    Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn get_str(data: &[u8], pos: &mut usize) -> Result<String, BinaryTraceError> {
    let len = get_varint(data, pos)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= data.len())
        .ok_or(BinaryTraceError::Corrupt("truncated string"))?;
    let s = std::str::from_utf8(&data[*pos..end])
        .map_err(|_| BinaryTraceError::Corrupt("invalid utf-8"))?
        .to_string();
    *pos = end;
    Ok(s)
}

// ---------------------------------------------------------------------
// op encoding
// ---------------------------------------------------------------------

fn encode_op(buf: &mut Vec<u8>, op: &Op) {
    match *op {
        Op::VarRead { var, value } => {
            buf.push(0);
            put_varint(buf, u64::from(var.0));
            put_varint_i64(buf, value);
        }
        Op::VarWrite { var, value } => {
            buf.push(1);
            put_varint(buf, u64::from(var.0));
            put_varint_i64(buf, value);
        }
        Op::VarRmw { var, old, new } => {
            buf.push(24);
            put_varint(buf, u64::from(var.0));
            put_varint_i64(buf, old);
            put_varint_i64(buf, new);
        }
        Op::LockRequest { lock } => {
            buf.push(2);
            put_varint(buf, u64::from(lock.0));
        }
        Op::LockAcquire { lock } => {
            buf.push(3);
            put_varint(buf, u64::from(lock.0));
        }
        Op::LockRelease { lock } => {
            buf.push(4);
            put_varint(buf, u64::from(lock.0));
        }
        Op::LockTryFail { lock } => {
            buf.push(5);
            put_varint(buf, u64::from(lock.0));
        }
        Op::CondWait { cond, lock } => {
            buf.push(6);
            put_varint(buf, u64::from(cond.0));
            put_varint(buf, u64::from(lock.0));
        }
        Op::CondWake { cond, lock } => {
            buf.push(7);
            put_varint(buf, u64::from(cond.0));
            put_varint(buf, u64::from(lock.0));
        }
        Op::CondNotify { cond, all } => {
            buf.push(if all { 9 } else { 8 });
            put_varint(buf, u64::from(cond.0));
        }
        Op::SemRequest { sem } => {
            buf.push(10);
            put_varint(buf, u64::from(sem.0));
        }
        Op::SemAcquire { sem } => {
            buf.push(11);
            put_varint(buf, u64::from(sem.0));
        }
        Op::SemRelease { sem } => {
            buf.push(12);
            put_varint(buf, u64::from(sem.0));
        }
        Op::BarrierArrive { barrier } => {
            buf.push(13);
            put_varint(buf, u64::from(barrier.0));
        }
        Op::BarrierPass { barrier } => {
            buf.push(14);
            put_varint(buf, u64::from(barrier.0));
        }
        Op::Spawn { child } => {
            buf.push(15);
            put_varint(buf, u64::from(child.0));
        }
        Op::JoinRequest { target } => {
            buf.push(16);
            put_varint(buf, u64::from(target.0));
        }
        Op::Join { target } => {
            buf.push(17);
            put_varint(buf, u64::from(target.0));
        }
        Op::ThreadStart => buf.push(18),
        Op::ThreadExit => buf.push(19),
        Op::Yield => buf.push(20),
        Op::Sleep { ticks } => {
            buf.push(21);
            put_varint(buf, u64::from(ticks));
        }
        Op::Point { label } => {
            buf.push(22);
            put_varint(buf, u64::from(label));
        }
        Op::AssertFail { label } => {
            buf.push(23);
            put_varint(buf, u64::from(label));
        }
    }
}

fn decode_op(data: &[u8], pos: &mut usize) -> Result<Op, BinaryTraceError> {
    let tag = *data
        .get(*pos)
        .ok_or(BinaryTraceError::Corrupt("truncated op tag"))?;
    *pos += 1;
    let v32 = |pos: &mut usize| get_u32(data, pos);
    Ok(match tag {
        0 => Op::VarRead {
            var: VarId(v32(pos)?),
            value: get_varint_i64(data, pos)?,
        },
        1 => Op::VarWrite {
            var: VarId(v32(pos)?),
            value: get_varint_i64(data, pos)?,
        },
        2 => Op::LockRequest {
            lock: LockId(v32(pos)?),
        },
        3 => Op::LockAcquire {
            lock: LockId(v32(pos)?),
        },
        4 => Op::LockRelease {
            lock: LockId(v32(pos)?),
        },
        5 => Op::LockTryFail {
            lock: LockId(v32(pos)?),
        },
        6 => Op::CondWait {
            cond: CondId(v32(pos)?),
            lock: LockId(v32(pos)?),
        },
        7 => Op::CondWake {
            cond: CondId(v32(pos)?),
            lock: LockId(v32(pos)?),
        },
        8 => Op::CondNotify {
            cond: CondId(v32(pos)?),
            all: false,
        },
        9 => Op::CondNotify {
            cond: CondId(v32(pos)?),
            all: true,
        },
        10 => Op::SemRequest {
            sem: SemId(v32(pos)?),
        },
        11 => Op::SemAcquire {
            sem: SemId(v32(pos)?),
        },
        12 => Op::SemRelease {
            sem: SemId(v32(pos)?),
        },
        13 => Op::BarrierArrive {
            barrier: BarrierId(v32(pos)?),
        },
        14 => Op::BarrierPass {
            barrier: BarrierId(v32(pos)?),
        },
        15 => Op::Spawn {
            child: ThreadId(v32(pos)?),
        },
        16 => Op::JoinRequest {
            target: ThreadId(v32(pos)?),
        },
        17 => Op::Join {
            target: ThreadId(v32(pos)?),
        },
        18 => Op::ThreadStart,
        19 => Op::ThreadExit,
        20 => Op::Yield,
        21 => Op::Sleep { ticks: v32(pos)? },
        22 => Op::Point { label: v32(pos)? },
        23 => Op::AssertFail { label: v32(pos)? },
        24 => Op::VarRmw {
            var: VarId(v32(pos)?),
            old: get_varint_i64(data, pos)?,
            new: get_varint_i64(data, pos)?,
        },
        _ => return Err(BinaryTraceError::Corrupt("unknown op tag")),
    })
}

// ---------------------------------------------------------------------
// trace encoding
// ---------------------------------------------------------------------

/// Encode `trace` to bytes.
pub fn encode(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::with_capacity(trace.records.len() * 8 + 256);
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);

    let meta = mtt_json::to_vec(&trace.meta);
    put_varint(&mut buf, meta.len() as u64);
    buf.extend_from_slice(&meta);

    // Build file and tag tables.
    let mut files: Vec<&str> = Vec::new();
    let mut file_idx: HashMap<&str, u64> = HashMap::new();
    let mut tags: Vec<&str> = Vec::new();
    let mut tag_idx: HashMap<&str, u64> = HashMap::new();
    for r in &trace.records {
        file_idx.entry(&r.file).or_insert_with(|| {
            files.push(&r.file);
            (files.len() - 1) as u64
        });
        for t in &r.bug_tags {
            tag_idx.entry(t).or_insert_with(|| {
                tags.push(t);
                (tags.len() - 1) as u64
            });
        }
    }
    put_varint(&mut buf, files.len() as u64);
    for f in &files {
        put_str(&mut buf, f);
    }
    put_varint(&mut buf, tags.len() as u64);
    for t in &tags {
        put_str(&mut buf, t);
    }

    put_varint(&mut buf, trace.records.len() as u64);
    let (mut prev_seq, mut prev_time) = (0u64, 0u64);
    for r in &trace.records {
        put_varint(&mut buf, r.seq.wrapping_sub(prev_seq));
        put_varint(&mut buf, r.time.wrapping_sub(prev_time));
        prev_seq = r.seq;
        prev_time = r.time;
        put_varint(&mut buf, u64::from(r.thread));
        put_varint(&mut buf, file_idx[r.file.as_str()]);
        put_varint(&mut buf, u64::from(r.line));
        encode_op(&mut buf, &r.op);
        put_varint(&mut buf, r.locks_held.len() as u64);
        for l in &r.locks_held {
            put_varint(&mut buf, u64::from(*l));
        }
        put_varint(&mut buf, r.bug_tags.len() as u64);
        for t in &r.bug_tags {
            put_varint(&mut buf, tag_idx[t.as_str()]);
        }
    }
    buf
}

/// Decode a trace from bytes.
pub fn decode(data: &[u8]) -> Result<Trace, BinaryTraceError> {
    if data.len() < 5 || &data[0..4] != MAGIC {
        return Err(BinaryTraceError::Corrupt("bad magic"));
    }
    if data[4] != VERSION {
        return Err(BinaryTraceError::Corrupt("unsupported version"));
    }
    let mut pos = 5usize;
    let meta_len = get_varint(data, &mut pos)? as usize;
    let meta_end = pos
        .checked_add(meta_len)
        .filter(|&e| e <= data.len())
        .ok_or(BinaryTraceError::Corrupt("truncated meta"))?;
    let meta = mtt_json::from_slice(&data[pos..meta_end]).map_err(BinaryTraceError::Meta)?;
    pos = meta_end;

    let nfiles = get_count(data, &mut pos)?;
    let mut files = Vec::with_capacity(nfiles);
    for _ in 0..nfiles {
        files.push(get_str(data, &mut pos)?);
    }
    let ntags = get_count(data, &mut pos)?;
    let mut tags = Vec::with_capacity(ntags);
    for _ in 0..ntags {
        tags.push(get_str(data, &mut pos)?);
    }

    let nrec = get_count(data, &mut pos)?;
    let mut records = Vec::with_capacity(nrec);
    let (mut seq, mut time) = (0u64, 0u64);
    for record in 0..nrec {
        seq = seq.wrapping_add(get_varint(data, &mut pos)?);
        time = time.wrapping_add(get_varint(data, &mut pos)?);
        let thread = get_u32(data, &mut pos)?;
        let fidx = get_varint(data, &mut pos)? as usize;
        let file = files
            .get(fidx)
            .ok_or(BinaryTraceError::Corrupt("file index out of range"))?
            .clone();
        let line = get_u32(data, &mut pos)?;
        let op = decode_op(data, &mut pos)?;
        let nlocks = get_count(data, &mut pos)?;
        let mut locks_held = Vec::with_capacity(nlocks);
        for _ in 0..nlocks {
            locks_held.push(get_u32(data, &mut pos)?);
        }
        let nbt = get_count(data, &mut pos)?;
        let mut bug_tags = Vec::with_capacity(nbt);
        for _ in 0..nbt {
            let ti = get_varint(data, &mut pos)? as usize;
            bug_tags.push(
                tags.get(ti)
                    .ok_or(BinaryTraceError::Corrupt("tag index out of range"))?
                    .clone(),
            );
        }
        let rec = TraceRecord {
            seq,
            time,
            thread,
            file,
            line,
            op,
            locks_held,
            bug_tags,
        };
        if let Some(id) = rec.thread_out_of_bound() {
            return Err(BinaryTraceError::ThreadId { record, id });
        }
        records.push(rec);
    }
    Ok(Trace { meta, records })
}

/// Write the binary encoding to `w`.
pub fn write<W: Write>(trace: &Trace, mut w: W) -> io::Result<()> {
    w.write_all(&encode(trace))
}

/// Read a binary trace from `r`.
pub fn read<R: Read>(mut r: R) -> Result<Trace, BinaryTraceError> {
    let mut data = Vec::new();
    r.read_to_end(&mut data)?;
    decode(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn all_ops() -> Vec<Op> {
        vec![
            Op::VarRead {
                var: VarId(1),
                value: -42,
            },
            Op::VarRmw {
                var: VarId(1),
                old: -1,
                new: 7,
            },
            Op::VarWrite {
                var: VarId(2),
                value: i64::MAX,
            },
            Op::LockRequest { lock: LockId(3) },
            Op::LockAcquire { lock: LockId(3) },
            Op::LockRelease { lock: LockId(3) },
            Op::LockTryFail { lock: LockId(3) },
            Op::CondWait {
                cond: CondId(0),
                lock: LockId(1),
            },
            Op::CondWake {
                cond: CondId(0),
                lock: LockId(1),
            },
            Op::CondNotify {
                cond: CondId(0),
                all: false,
            },
            Op::CondNotify {
                cond: CondId(0),
                all: true,
            },
            Op::SemRequest { sem: SemId(4) },
            Op::SemAcquire { sem: SemId(4) },
            Op::SemRelease { sem: SemId(4) },
            Op::BarrierArrive {
                barrier: BarrierId(0),
            },
            Op::BarrierPass {
                barrier: BarrierId(0),
            },
            Op::Spawn { child: ThreadId(7) },
            Op::JoinRequest {
                target: ThreadId(7),
            },
            Op::Join {
                target: ThreadId(7),
            },
            Op::ThreadStart,
            Op::ThreadExit,
            Op::Yield,
            Op::Sleep { ticks: 300 },
            Op::Point { label: 2 },
            Op::AssertFail { label: 3 },
        ]
    }

    fn sample() -> Trace {
        let mut t = Trace::default();
        t.meta.program = "codec-test".into();
        t.meta.var_names = vec!["x".into(), "y".into(), "z".into()];
        for (i, op) in all_ops().into_iter().enumerate() {
            t.records.push(TraceRecord {
                seq: i as u64,
                time: (i * 3) as u64,
                thread: (i % 4) as u32,
                file: if i % 2 == 0 {
                    "a.rs".into()
                } else {
                    "b.rs".into()
                },
                line: i as u32,
                op,
                locks_held: vec![0; i % 3],
                bug_tags: if i % 5 == 0 {
                    vec!["bug".into()]
                } else {
                    vec![]
                },
            });
        }
        t
    }

    #[test]
    fn roundtrip_all_op_kinds() {
        let t = sample();
        let bytes = encode(&t);
        let back = decode(&bytes).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn varint_edge_values() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456] {
            buf.clear();
            put_varint_i64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint_i64(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn binary_is_smaller_than_json() {
        let t = sample();
        let b = encode(&t).len();
        let j = json::to_string(&t).len();
        assert!(
            b * 2 < j,
            "binary ({b}B) should be well under half of json ({j}B)"
        );
    }

    #[test]
    fn corrupt_magic_and_truncation_are_detected() {
        let t = sample();
        let mut bytes = encode(&t);
        assert!(matches!(
            decode(&bytes[..3]),
            Err(BinaryTraceError::Corrupt(_))
        ));
        let good = bytes.clone();
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(BinaryTraceError::Corrupt(_))));
        // Truncated mid-records:
        assert!(decode(&good[..good.len() - 3]).is_err());
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut bytes = encode(&sample());
        bytes[4] = 99;
        assert!(matches!(
            decode(&bytes),
            Err(BinaryTraceError::Corrupt("unsupported version"))
        ));
    }

    #[test]
    fn a_thread_id_past_the_bound_fails_to_decode() {
        let spawn = all_ops()
            .iter()
            .position(|op| matches!(op, Op::Spawn { .. }))
            .expect("the sample spawns");
        let huge = 1u32 << 31;
        for (record, op) in [
            (0, None),
            (
                spawn,
                Some(Op::Spawn {
                    child: ThreadId(huge),
                }),
            ),
            (
                spawn + 1,
                Some(Op::JoinRequest {
                    target: ThreadId(huge),
                }),
            ),
            (
                spawn + 2,
                Some(Op::Join {
                    target: ThreadId(huge),
                }),
            ),
        ] {
            let mut t = sample();
            match op {
                Some(op) => t.records[record].op = op,
                None => t.records[record].thread = huge,
            }
            match decode(&encode(&t)) {
                Err(BinaryTraceError::ThreadId { record: r, id }) => {
                    assert_eq!((r, id), (record, huge));
                }
                other => panic!("expected a thread id error, got {other:?}"),
            }
        }
        let mut t = sample();
        t.records[1].thread = crate::THREAD_ID_BOUND - 1;
        assert_eq!(decode(&encode(&t)).unwrap(), t);
    }

    /// The encoding of an empty trace without the three counts that end it
    /// (files, tags, records): magic, version and meta.
    fn header() -> Vec<u8> {
        let mut buf = encode(&Trace::default());
        buf.truncate(buf.len() - 3);
        buf
    }

    #[test]
    fn a_count_past_the_input_fails_to_decode() {
        // A file, tag or record count of 2^61 after zero or more empty
        // tables: each table is sized by its count.
        for empty_tables in 0..3 {
            let mut bytes = header();
            for _ in 0..empty_tables {
                put_varint(&mut bytes, 0);
            }
            put_varint(&mut bytes, 1 << 61);
            assert!(matches!(
                decode(&bytes),
                Err(BinaryTraceError::Corrupt("count exceeds input"))
            ));
        }
    }

    /// One record encoded by hand: `thread` at `line` spawns `child` while
    /// holding `lock`, each written as a raw varint.
    fn one_record(thread: u64, line: u64, child: u64, lock: u64) -> Vec<u8> {
        let mut buf = header();
        put_varint(&mut buf, 1);
        put_str(&mut buf, "a.rs");
        // No tags, one record: seq and time deltas, thread, file 0, line.
        for v in [0, 1, 0, 0, thread, 0, line] {
            put_varint(&mut buf, v);
        }
        buf.push(15); // Op::Spawn
        put_varint(&mut buf, child);
        // One held lock, no bug tags.
        for v in [1, lock, 0] {
            put_varint(&mut buf, v);
        }
        buf
    }

    #[test]
    fn an_id_or_line_wider_than_u32_fails_to_decode() {
        let t = decode(&one_record(3, 3, 3, 3)).unwrap();
        let r = &t.records[0];
        assert_eq!((r.thread, r.line, &r.locks_held), (3, 3, &vec![3]));
        assert_eq!(r.op, Op::Spawn { child: ThreadId(3) });
        // 2^32 + 3 is not thread, line, child or lock 3.
        let wide = (1u64 << 32) + 3;
        for bytes in [
            one_record(wide, 3, 3, 3),
            one_record(3, wide, 3, 3),
            one_record(3, 3, wide, 3),
            one_record(3, 3, 3, wide),
        ] {
            assert!(matches!(
                decode(&bytes),
                Err(BinaryTraceError::Corrupt("value exceeds u32"))
            ));
        }
    }

    #[test]
    fn every_prefix_and_byte_change_decodes_without_panicking() {
        let bytes = encode(&sample());
        for n in 0..bytes.len() {
            assert!(decode(&bytes[..n]).is_err(), "prefix of {n} bytes");
        }
        let mut changed = bytes.clone();
        for i in 0..bytes.len() {
            for b in 0..=u8::MAX {
                changed[i] = b;
                let _ = decode(&changed);
            }
            changed[i] = bytes[i];
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::default();
        assert_eq!(decode(&encode(&t)).unwrap(), t);
    }
}
