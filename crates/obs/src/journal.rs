//! The durable, append-only campaign journal (NDJSON, schema v4).
//!
//! Every line is one JSON object carrying a `"v"` schema version and a
//! `"kind"` tag. Schema history: v2 added the optional `fingerprint`
//! field on `done` records (the canonical Mazurkiewicz-trace hash behind
//! the live distinct-schedule count); v3 added the optional `backend`
//! field on `done` records (present only for non-model backends); v4 added
//! the optional `result` field, the payload of a cell that is not a
//! campaign run. Readers accept older records — the optional fields simply
//! read as absent — so mixed-version journals written by old and new builds
//! keep parsing.
//!
//! Every journaled command writes one `campaign` header, a `start`/`done`
//! pair per cell, and a final `end` marker. `done` records are keyed by a
//! **content address** — a stable hash of `(program, canonical tool_spec,
//! seed, runtime version)` — which is what makes the journal a result
//! cache: a resumed command looks each cell up by address and skips the
//! ones a previous process already completed. Builds before v4 wrote
//! generic `job` records for commands other than campaigns; readers still
//! accept them, but nothing writes them any more.
//!
//! Durability discipline: the sink serializes each record into one line,
//! newline included, and hands it to a single `write_all` and a flush, so
//! a file gets one `write(2)` per record and the only record a crash can
//! corrupt is the final, possibly unterminated line. Readers therefore
//! treat *a missing trailing newline* as "crash mid-write" and discard the
//! fragment; any newline-**terminated** line that fails to parse is real
//! corruption and is reported as an error. (`mtt journal-check` is
//! stricter and flags both.)
//!
//! Wall-clock fields (`t_us`, `wall_us`) exist for the live `mtt status` /
//! `mtt watch` views and chrome traces only; nothing deterministic is ever
//! derived from them — resumed commands reconstruct reports from the
//! deterministic payload fields alone, which is why resumed output is
//! byte-identical to an uninterrupted run.

use mtt_json::{json_struct, FromJson, Json, JsonObject, ToJson};
use std::collections::HashMap;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// Journal schema version emitted in every record's `v` field.
pub const JOURNAL_VERSION: u64 = 4;

/// Oldest journal schema version this build still reads (older records
/// lack the optional `fingerprint`/`backend`/`result` fields, which decode
/// as absent).
pub const JOURNAL_MIN_VERSION: u64 = 1;

/// Environment variable that makes a [`JournalSink`] abort the process
/// (exit code 9, evoking SIGKILL) after writing N `done` records — a
/// test/CI hook for simulating a campaign killed mid-flight.
pub const KILL_AFTER_ENV: &str = "MTT_JOURNAL_KILL_AFTER";

// ---------------------------------------------------------------------
// Content addressing
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// The content address of one campaign cell: a 16-hex-digit FNV-1a hash of
/// `(program, canonical tool_spec, seed, runtime version, backend)`, the
/// complete set of inputs that determine a run's deterministic outcome.
/// Two runs with the same address are the same run; a runtime version bump
/// changes every address, so a cache can never serve results produced by
/// different semantics.
///
/// `backend` is the execution-engine tag (`"model"` or `"native"`). The
/// default `"model"` contributes nothing to the hash — every address ever
/// written by a model campaign is unchanged — while any other backend is
/// mixed in after a separator, so a native cell can never satisfy a
/// `--resume` lookup for a model cell (or vice versa).
pub fn content_address(
    program: &str,
    tool_spec: &str,
    seed: u64,
    runtime: &str,
    backend: &str,
) -> String {
    let mut h = FNV_OFFSET;
    h = fnv1a(h, program.as_bytes());
    h = fnv1a(h, &[0]);
    h = fnv1a(h, tool_spec.as_bytes());
    h = fnv1a(h, &[0]);
    h = fnv1a(h, &seed.to_le_bytes());
    h = fnv1a(h, &[0]);
    h = fnv1a(h, runtime.as_bytes());
    if backend != "model" {
        h = fnv1a(h, &[0]);
        h = fnv1a(h, backend.as_bytes());
    }
    format!("{h:016x}")
}

// ---------------------------------------------------------------------
// Record types
// ---------------------------------------------------------------------

/// The twelve deterministic counters of one run, declared once: the
/// telemetry layer's `RunMetrics` embeds them, every run-log line prints
/// them among its own fields, and a `done` record nests them as
/// `metrics`, so a resumed campaign rebuilds run-log lines byte-identically.
/// The per-site maps are deliberately absent (they hold `&'static str`
/// source locations that cannot round-trip through a file); commands that
/// need them, like `mtt profile`, refuse to resume.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricScalars {
    pub events: u64,
    pub sched_points: u64,
    pub context_switches: u64,
    pub forced_yields: u64,
    pub noise_injections: u64,
    pub spurious_wakeups: u64,
    pub lock_acquires: u64,
    pub lock_contentions: u64,
    pub waits: u64,
    pub notifies: u64,
    pub threads: u64,
    pub steps_to_first_bug: Option<u64>,
}

json_struct!(MetricScalars {
    events,
    sched_points,
    context_switches,
    forced_yields,
    noise_injections,
    spurious_wakeups,
    lock_acquires,
    lock_contentions,
    waits,
    notifies,
    threads,
    steps_to_first_bug,
});

impl MetricScalars {
    /// Fold another run's counters into these. Sums everywhere except
    /// `steps_to_first_bug`, which merges by minimum, so a merge is
    /// commutative and associative.
    pub fn merge(&mut self, other: &MetricScalars) {
        self.events += other.events;
        self.sched_points += other.sched_points;
        self.context_switches += other.context_switches;
        self.forced_yields += other.forced_yields;
        self.noise_injections += other.noise_injections;
        self.spurious_wakeups += other.spurious_wakeups;
        self.lock_acquires += other.lock_acquires;
        self.lock_contentions += other.lock_contentions;
        self.waits += other.waits;
        self.notifies += other.notifies;
        self.threads += other.threads;
        self.steps_to_first_bug = match (self.steps_to_first_bug, other.steps_to_first_bug) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }
}

/// The `campaign` header record: grid shape and provenance, written once
/// per process that appends to the journal (a resumed campaign appends a
/// second header — readers dedup `done` records by address, not headers).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignMeta {
    /// Campaign label (`e1`, `profile-e3`, …).
    pub label: String,
    /// Total cells in the grid (programs × tools × runs).
    pub total_cells: u64,
    pub programs: u64,
    pub tools: u64,
    pub runs: u64,
    pub base_seed: u64,
    /// Runtime version baked into every cell's content address.
    pub runtime: String,
    pub jobs: u64,
    /// Whether runs carry telemetry (and `done` records carry `metrics`).
    pub telemetry: bool,
}

json_struct!(CampaignMeta {
    label,
    total_cells,
    programs,
    tools,
    runs,
    base_seed,
    runtime,
    jobs,
    telemetry,
});

/// A cell claimed by a worker (in-flight marker for the live status view).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellStart {
    /// Content address of the cell.
    pub cell: String,
    pub program: String,
    pub tool: String,
    pub seed: u64,
    pub run: u64,
    /// Microseconds since this process opened the journal.
    pub t_us: u64,
}

json_struct!(CellStart {
    cell,
    program,
    tool,
    seed,
    run,
    t_us
});

/// A completed cell: the full deterministic payload a resumed command
/// needs to reconstruct the cell without executing it, plus segregated
/// wall-clock fields for the status/trace views. A campaign run fills the
/// named payload fields; any other cell leaves them at their defaults and
/// carries its payload in `result`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellDone {
    /// Content address of the cell (the cache key).
    pub cell: String,
    pub program: String,
    pub tool: String,
    /// Canonical tool-spec string (run-log provenance); for a cell that is
    /// not a campaign run, whatever besides program and seed its result
    /// depends on.
    pub tool_spec: String,
    pub seed: u64,
    pub run: u64,
    /// Outcome tag (`completed`, `deadlock`, `step-limit`, …).
    pub outcome: String,
    /// Did the oracle judge the run as having manifested a bug?
    pub failed: bool,
    /// Tags of the documented bugs that manifested.
    pub manifested: Vec<String>,
    pub events: u64,
    pub sched_points: u64,
    pub injections: u64,
    pub timed_out: bool,
    /// Wall-clock duration of the run (segregated; never deterministic).
    pub wall_us: u64,
    /// Microseconds since this process opened the journal (segregated).
    pub t_us: u64,
    /// Pool worker that executed the run (segregated; assignment order is
    /// wall-clock dependent).
    pub worker: u64,
    /// Telemetry scalars; present iff the campaign ran with telemetry.
    pub metrics: Option<MetricScalars>,
    /// Canonical Mazurkiewicz-trace fingerprint of the run (32 hex digits),
    /// when the campaign computed one. Added in schema v2.
    pub fingerprint: Option<String>,
    /// Execution-backend tag (`"native"`), present only when the cell ran
    /// on a non-model backend. Added in schema v3; absent (= model) on
    /// older records and on every model cell, keeping model journals
    /// byte-identical across the version bump.
    pub backend: Option<String>,
    /// The payload of a cell that is not a campaign run, in its type's
    /// JSON form. Added in schema v4.
    pub result: Option<Json>,
}

json_struct!(CellDone {
    cell,
    program,
    tool,
    tool_spec,
    seed,
    run,
    outcome,
    failed,
    manifested,
    events,
    sched_points,
    injections,
    timed_out,
    wall_us,
    t_us,
    worker,
    metrics,
    #[optional]
    fingerprint,
    #[optional]
    backend,
    #[optional]
    result,
});

/// A completed generic pool job: the record builds before schema v4 wrote
/// for commands other than campaigns. Read, never written.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobDone {
    pub index: u64,
    pub wall_us: u64,
    pub t_us: u64,
    pub worker: u64,
}

json_struct!(JobDone {
    index,
    wall_us,
    t_us,
    worker
});

/// The campaign finished cleanly (a journal without one was interrupted).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignEnd {
    pub label: String,
    /// Cells completed by the writing process (cache hits excluded).
    pub completed: u64,
    pub t_us: u64,
}

json_struct!(CampaignEnd {
    label,
    completed,
    t_us
});

/// One journal line.
///
/// `Done` dominates the payload size by design — it carries the full
/// deterministic cell result — and records live briefly (parse, fold,
/// drop), so boxing the large variant would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum JournalRecord {
    Campaign(CampaignMeta),
    Start(CellStart),
    Done(CellDone),
    Job(JobDone),
    End(CampaignEnd),
}

impl JournalRecord {
    /// The record's `kind` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            JournalRecord::Campaign(_) => "campaign",
            JournalRecord::Start(_) => "start",
            JournalRecord::Done(_) => "done",
            JournalRecord::Job(_) => "job",
            JournalRecord::End(_) => "end",
        }
    }

    /// The payload: the record's own fields, printed after `v` and `kind`.
    fn payload(&self) -> &dyn JsonObject {
        match self {
            JournalRecord::Campaign(r) => r,
            JournalRecord::Start(r) => r,
            JournalRecord::Done(r) => r,
            JournalRecord::Job(r) => r,
            JournalRecord::End(r) => r,
        }
    }
}

impl ToJson for JournalRecord {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"v\":");
        JOURNAL_VERSION.write_json(out);
        out.push_str(",\"kind\":");
        self.kind().write_json(out);
        self.payload().write_members(out);
        out.push('}');
    }
}

/// Validate one journal line against the schema and decode it. Accepts
/// every version in `JOURNAL_MIN_VERSION..=JOURNAL_VERSION` (v1 records
/// simply lack the optional fields later versions added). The error
/// message names the first violation — `mtt journal-check` prefixes it
/// with `file:line:`.
pub fn check_journal_line(line: &str) -> Result<JournalRecord, String> {
    let v = Json::parse(line).map_err(|e| format!("not valid JSON: {e}"))?;
    let Json::Obj(_) = v else {
        return Err("line is not a JSON object".into());
    };
    let version = v
        .get("v")
        .ok_or("missing required field `v`")?
        .as_u64()
        .ok_or("field `v` has the wrong type")?;
    if !(JOURNAL_MIN_VERSION..=JOURNAL_VERSION).contains(&version) {
        return Err(format!(
            "unsupported journal version {version} (this build reads v{JOURNAL_MIN_VERSION}..v{JOURNAL_VERSION})"
        ));
    }
    let kind = v
        .get("kind")
        .ok_or("missing required field `kind`")?
        .as_str()
        .ok_or("field `kind` has the wrong type")?;
    let decoded = match kind {
        "campaign" => CampaignMeta::from_json(&v).map(JournalRecord::Campaign),
        "start" => CellStart::from_json(&v).map(JournalRecord::Start),
        "done" => CellDone::from_json(&v).map(JournalRecord::Done),
        "job" => JobDone::from_json(&v).map(JournalRecord::Job),
        "end" => CampaignEnd::from_json(&v).map(JournalRecord::End),
        other => return Err(format!("unknown record kind `{other}`")),
    };
    decoded.map_err(|e| format!("invalid `{kind}` record: {e}"))
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// A fully parsed journal.
#[derive(Clone, Debug, Default)]
pub struct ParsedJournal {
    /// Every schema-valid, newline-terminated record, in file order.
    pub records: Vec<JournalRecord>,
    /// Whether a half-written final fragment (no trailing newline — the
    /// signature of a crash mid-write) was discarded.
    pub tail_discarded: bool,
}

/// Parse journal text. Newline-terminated lines must conform to the
/// schema (`Err((1-based line, message))` otherwise); an unterminated
/// final fragment is discarded as a crash artifact, not an error.
pub fn parse_journal(text: &str) -> Result<ParsedJournal, (usize, String)> {
    let (complete, tail) = match text.rfind('\n') {
        Some(pos) => (&text[..=pos], &text[pos + 1..]),
        None => ("", text),
    };
    let mut records = Vec::new();
    for (i, line) in complete.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        records.push(check_journal_line(line).map_err(|msg| (i + 1, msg))?);
    }
    Ok(ParsedJournal {
        records,
        tail_discarded: !tail.is_empty(),
    })
}

/// Read and parse a journal file; errors are prefixed `path[:line]:`.
pub fn load_journal(path: &Path) -> Result<ParsedJournal, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: read failed: {e}", path.display()))?;
    parse_journal(&text).map_err(|(line, msg)| format!("{}:{line}: {msg}", path.display()))
}

/// If the file's final record was truncated mid-write (no trailing
/// newline), cut the fragment off so subsequent appends start on a clean
/// line boundary. Returns whether anything was truncated. Must run before
/// reopening a journal in append mode — appending after a fragment would
/// weld two records into one corrupt line.
pub fn truncate_partial_tail(path: &Path) -> io::Result<bool> {
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    if bytes.is_empty() || bytes.ends_with(b"\n") {
        return Ok(false);
    }
    let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    file.set_len(keep as u64)?;
    file.seek(SeekFrom::End(0))?;
    Ok(true)
}

// ---------------------------------------------------------------------
// Resume cache
// ---------------------------------------------------------------------

/// The content-address → completed-cell cache a resumed command consults
/// before executing each cell. Cloning it is cheap: clones share the map.
#[derive(Clone, Debug, Default)]
pub struct ResumeCache {
    map: Arc<HashMap<String, CellDone>>,
}

impl ResumeCache {
    /// Index every `done` record by its content address (later duplicates
    /// win; duplicates only arise from re-runs of the same cell, whose
    /// deterministic payloads are identical anyway).
    pub fn from_records(records: &[JournalRecord]) -> Self {
        let mut map = HashMap::new();
        for rec in records {
            if let JournalRecord::Done(d) = rec {
                map.insert(d.cell.clone(), d.clone());
            }
        }
        ResumeCache { map: Arc::new(map) }
    }

    /// Look a cell up by content address.
    pub fn get(&self, address: &str) -> Option<&CellDone> {
        self.map.get(address)
    }

    /// Number of cached cells.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// Bytes reserved for one serialized record: a `done` line with telemetry
/// scalars and a fingerprint is about 600.
const LINE_CAPACITY: usize = 1024;

struct SinkState {
    w: Box<dyn Write + Send>,
    /// Worker-id assignment: first thread to complete a record becomes
    /// worker 0, and so on. Wall-clock dependent, like everything the ids
    /// feed (utilization views only).
    workers: HashMap<ThreadId, u64>,
    error: Option<String>,
    written: u64,
}

/// The append-only journal writer shared by every pool worker. Each record
/// is written and flushed under one mutex, so lines never interleave and a
/// crash can only ever truncate the final line. I/O errors are latched
/// (not panicked): the campaign finishes and the CLI reports the first
/// failure with exit 2.
pub struct JournalSink {
    state: Mutex<SinkState>,
    epoch: Instant,
    kill_after: Option<u64>,
}

impl std::fmt::Debug for JournalSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock().expect("journal sink poisoned");
        f.debug_struct("JournalSink")
            .field("written", &s.written)
            .field("error", &s.error)
            .finish_non_exhaustive()
    }
}

impl JournalSink {
    fn with_writer(w: Box<dyn Write + Send>) -> Self {
        let kill_after = std::env::var(KILL_AFTER_ENV)
            .ok()
            .and_then(|v| v.parse().ok());
        JournalSink {
            state: Mutex::new(SinkState {
                w,
                workers: HashMap::new(),
                error: None,
                written: 0,
            }),
            epoch: Instant::now(),
            kill_after,
        }
    }

    /// Open `path` for journaling: truncating for a fresh campaign,
    /// appending (after tail repair, see [`truncate_partial_tail`]) for a
    /// resumed one.
    pub fn to_file(path: &Path, append: bool) -> io::Result<Self> {
        let file = if append {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?
        } else {
            std::fs::File::create(path)?
        };
        Ok(Self::with_writer(Box::new(file)))
    }

    /// A sink over any writer (tests, in-memory journals).
    pub fn from_writer(w: impl Write + Send + 'static) -> Self {
        Self::with_writer(Box::new(w))
    }

    /// Microseconds since this sink was opened (the `t_us` clock).
    pub fn t_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The first write error, if any occurred. Checked by the CLI after
    /// the campaign so journal I/O failure is exit 2, not a panic.
    pub fn error(&self) -> Option<String> {
        self.state
            .lock()
            .expect("journal sink poisoned")
            .error
            .clone()
    }

    fn append(&self, rec: &JournalRecord) {
        let mut line = String::with_capacity(LINE_CAPACITY);
        rec.write_json(&mut line);
        line.push('\n');
        let mut s = self.state.lock().expect("journal sink poisoned");
        if s.error.is_some() {
            return;
        }
        // The line and its newline go to one `write_all`: on the unbuffered
        // file that is one `write(2)`, which a crash can cut short but never
        // split around another record.
        let r = s.w.write_all(line.as_bytes()).and_then(|()| s.w.flush());
        if let Err(e) = r {
            s.error = Some(format!("journal write failed: {e}"));
            return;
        }
        if let JournalRecord::Done(_) = rec {
            s.written += 1;
            if self.kill_after.is_some_and(|n| s.written >= n) {
                // Test hook: simulate a campaign killed mid-flight. The
                // record just written is flushed; nothing after it exists.
                std::process::exit(9);
            }
        }
    }

    fn worker_id(&self) -> u64 {
        let mut s = self.state.lock().expect("journal sink poisoned");
        let next = s.workers.len() as u64;
        *s.workers.entry(std::thread::current().id()).or_insert(next)
    }

    /// Write the campaign header.
    pub fn campaign(&self, meta: CampaignMeta) {
        self.append(&JournalRecord::Campaign(meta));
    }

    /// Write a cell-claimed marker (fills `t_us`).
    pub fn start(&self, mut rec: CellStart) {
        rec.t_us = self.t_us();
        self.append(&JournalRecord::Start(rec));
    }

    /// Write a completed cell (fills `t_us` and `worker`).
    pub fn done(&self, mut rec: CellDone) {
        rec.t_us = self.t_us();
        rec.worker = self.worker_id();
        self.append(&JournalRecord::Done(rec));
    }

    /// Write the clean-completion marker.
    pub fn end(&self, label: &str, completed: u64) {
        self.append(&JournalRecord::End(CampaignEnd {
            label: label.to_string(),
            completed,
            t_us: self.t_us(),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    fn done(cell: &str, seed: u64) -> CellDone {
        CellDone {
            cell: cell.into(),
            program: "lost_update".into(),
            tool: "none".into(),
            tool_spec: "sticky:0.9+name=none".into(),
            seed,
            run: seed,
            outcome: "completed".into(),
            failed: seed.is_multiple_of(2),
            manifested: if seed.is_multiple_of(2) {
                vec!["lost-update".into()]
            } else {
                vec![]
            },
            events: 10 + seed,
            sched_points: 20,
            injections: 0,
            timed_out: false,
            wall_us: 100,
            t_us: 0,
            worker: 0,
            metrics: None,
            fingerprint: Some(format!("{:032x}", 0xfeed_u128 + seed as u128)),
            backend: None,
            result: None,
        }
    }

    #[test]
    fn content_address_is_stable_and_input_sensitive() {
        let a = content_address("p", "sticky:0.9", 7, "0.1.0", "model");
        assert_eq!(a.len(), 16);
        assert_eq!(a, content_address("p", "sticky:0.9", 7, "0.1.0", "model"));
        // Every input perturbs the address.
        assert_ne!(a, content_address("q", "sticky:0.9", 7, "0.1.0", "model"));
        assert_ne!(a, content_address("p", "sticky:0.8", 7, "0.1.0", "model"));
        assert_ne!(a, content_address("p", "sticky:0.9", 8, "0.1.0", "model"));
        assert_ne!(a, content_address("p", "sticky:0.9", 7, "0.2.0", "model"));
        // The separator defends against concatenation collisions.
        assert_ne!(
            content_address("ab", "c", 0, "r", "model"),
            content_address("a", "bc", 0, "r", "model")
        );
    }

    #[test]
    fn backend_perturbs_the_content_address() {
        let model = content_address("p", "sticky:0.9", 7, "0.1.0", "model");
        let native = content_address("p", "sticky:0.9", 7, "0.1.0", "native");
        // A native cell can never satisfy a resume lookup for the model
        // cell of the same (program, tool, seed, runtime) — or vice versa.
        assert_ne!(model, native);
        // The default backend contributes nothing: model addresses are
        // byte-identical to every address written before the field existed.
        let legacy = {
            let mut h = FNV_OFFSET;
            h = fnv1a(h, b"p");
            h = fnv1a(h, &[0]);
            h = fnv1a(h, b"sticky:0.9");
            h = fnv1a(h, &[0]);
            h = fnv1a(h, &7u64.to_le_bytes());
            h = fnv1a(h, &[0]);
            h = fnv1a(h, b"0.1.0");
            format!("{h:016x}")
        };
        assert_eq!(model, legacy);
    }

    /// A shared Vec<u8> the sink can own while the test keeps reading it.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<StdMutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    #[test]
    fn sink_roundtrips_every_record_kind() {
        let buf = SharedBuf::default();
        let sink = JournalSink::from_writer(buf.clone());
        sink.campaign(CampaignMeta {
            label: "e1".into(),
            total_cells: 2,
            programs: 1,
            tools: 1,
            runs: 2,
            base_seed: 7,
            runtime: "0.1.0".into(),
            jobs: 1,
            telemetry: true,
        });
        sink.start(CellStart {
            cell: "aa".into(),
            program: "p".into(),
            tool: "t".into(),
            seed: 7,
            run: 0,
            t_us: 0,
        });
        sink.done(CellDone {
            metrics: Some(MetricScalars {
                events: 3,
                ..Default::default()
            }),
            ..done("aa", 7)
        });
        sink.end("e1", 1);
        assert!(sink.error().is_none());
        let text = buf.text();
        let parsed = parse_journal(&text).unwrap();
        assert!(!parsed.tail_discarded);
        let kinds: Vec<_> = parsed.records.iter().map(|r| r.kind()).collect();
        assert_eq!(kinds, ["campaign", "start", "done", "end"]);
        let JournalRecord::Done(d) = &parsed.records[2] else {
            panic!("expected done");
        };
        assert_eq!(d.metrics.as_ref().unwrap().events, 3);
        assert_eq!(d.seed, 7);
    }

    #[test]
    fn sink_makes_exactly_one_write_per_record() {
        // Every `write` call the sink makes, as it was made.
        #[derive(Clone, Default)]
        struct Calls(Arc<StdMutex<Vec<Vec<u8>>>>);
        impl Write for Calls {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let calls = Calls::default();
        let sink = JournalSink::from_writer(calls.clone());
        sink.campaign(CampaignMeta::default());
        sink.start(CellStart::default());
        sink.done(CellDone {
            metrics: Some(MetricScalars::default()),
            result: Some(Json::Str("a\nb".into())),
            ..done("aa", 7)
        });
        sink.end("e1", 1);
        let calls = calls.0.lock().unwrap();
        let kinds: Vec<_> = calls
            .iter()
            .map(|call| {
                let line = std::str::from_utf8(call).unwrap();
                let body = line.strip_suffix('\n').expect("a write ends its line");
                assert!(!body.contains('\n'), "one record per write: {line}");
                check_journal_line(body).unwrap().kind()
            })
            .collect();
        assert_eq!(kinds, ["campaign", "start", "done", "end"]);
    }

    #[test]
    fn unterminated_tail_is_discarded_not_an_error() {
        let buf = SharedBuf::default();
        let sink = JournalSink::from_writer(buf.clone());
        sink.done(done("aa", 1));
        let mut text = buf.text();
        // Simulate a crash mid-write of a second record.
        text.push_str("{\"v\":1,\"kind\":\"done\",\"cell\":\"bb");
        let parsed = parse_journal(&text).unwrap();
        assert!(parsed.tail_discarded);
        assert_eq!(parsed.records.len(), 1);
    }

    #[test]
    fn terminated_corruption_is_an_error_with_line_number() {
        let text =
            "{\"v\":1,\"kind\":\"end\",\"label\":\"e1\",\"completed\":1,\"t_us\":0}\nnot json\n";
        let (line, msg) = parse_journal(text).unwrap_err();
        assert_eq!(line, 2);
        assert!(msg.contains("not valid JSON"), "{msg}");
    }

    #[test]
    fn checker_rejects_schema_violations() {
        assert!(check_journal_line("[]").is_err());
        assert!(check_journal_line("{\"kind\":\"done\"}")
            .unwrap_err()
            .contains("missing required field `v`"));
        assert!(check_journal_line("{\"v\":5,\"kind\":\"end\"}")
            .unwrap_err()
            .contains("unsupported journal version"));
        assert!(check_journal_line("{\"v\":1,\"kind\":\"nope\"}")
            .unwrap_err()
            .contains("unknown record kind"));
        assert!(
            check_journal_line("{\"v\":1,\"kind\":\"end\",\"label\":\"x\"}")
                .unwrap_err()
                .contains("invalid `end` record")
        );
    }

    #[test]
    fn done_record_roundtrips_fingerprint_and_omits_it_when_absent() {
        let with = done("aa", 1);
        let line = mtt_json::to_string(&JournalRecord::Done(with.clone()));
        assert!(line.contains("\"fingerprint\""), "{line}");
        let JournalRecord::Done(back) = check_journal_line(&line).unwrap() else {
            panic!("expected done");
        };
        assert_eq!(back, with);
        let without = CellDone {
            fingerprint: None,
            ..done("bb", 2)
        };
        let line = mtt_json::to_string(&JournalRecord::Done(without));
        assert!(!line.contains("fingerprint"), "{line}");
    }

    #[test]
    fn result_payload_roundtrips_and_is_omitted_when_absent() {
        let cell = CellDone {
            result: Some(Json::Arr(vec![Json::Bool(true), Json::UInt(3)])),
            ..done("aa", 1)
        };
        let line = mtt_json::to_string(&JournalRecord::Done(cell.clone()));
        assert!(line.starts_with("{\"v\":4,"), "{line}");
        assert!(line.ends_with(",\"result\":[true,3]}"), "{line}");
        let JournalRecord::Done(back) = check_journal_line(&line).unwrap() else {
            panic!("expected done");
        };
        assert_eq!(back, cell);
        let line = mtt_json::to_string(&JournalRecord::Done(done("bb", 2)));
        assert!(!line.contains("result"), "{line}");
    }

    #[test]
    fn legacy_job_records_still_parse_and_fold() {
        // Builds before schema v4 journaled commands other than campaigns
        // as generic `job` records. Nothing writes them now, but a journal
        // holding them still reads and folds into a status summary.
        let text = "{\"v\":3,\"kind\":\"campaign\",\"label\":\"e5\",\"total_cells\":2,\
                    \"programs\":0,\"tools\":0,\"runs\":0,\"base_seed\":0,\"runtime\":\"\",\
                    \"jobs\":1,\"telemetry\":false}\n\
                    {\"v\":3,\"kind\":\"job\",\"index\":0,\"wall_us\":5,\"t_us\":9,\"worker\":0}\n\
                    {\"v\":3,\"kind\":\"job\",\"index\":1,\"wall_us\":6,\"t_us\":12,\"worker\":0}\n\
                    {\"v\":3,\"kind\":\"end\",\"label\":\"e5\",\"completed\":2,\"t_us\":13}\n";
        let parsed = parse_journal(text).expect("legacy journal parses");
        let kinds: Vec<_> = parsed.records.iter().map(|r| r.kind()).collect();
        assert_eq!(kinds, ["campaign", "job", "job", "end"]);
        let s = crate::StatusSummary::from_journal(&parsed);
        assert_eq!((s.label.as_str(), s.total, s.done), ("e5", Some(2), 2));
        assert!(s.complete);
        assert_eq!(s.workers[0].busy_us, 11);
        // A resumed run's `done` cells supersede the jobs an older build
        // wrote.
        let resumed = format!(
            "{text}{}\n",
            mtt_json::to_string(&JournalRecord::Done(done("aa", 1)))
        );
        let s = crate::StatusSummary::from_journal(&parse_journal(&resumed).unwrap());
        assert_eq!(s.done, 1);
    }

    #[test]
    fn mixed_version_journal_parses_v1_records_without_fingerprint() {
        // A journal first written by a v1 build, then resumed by a v2
        // build: v1 `done` lines lack the fingerprint field entirely and
        // must decode as `fingerprint: None`; v2 lines carry it.
        let v1 = "{\"v\":1,\"kind\":\"done\",\"cell\":\"aa\",\"program\":\"p\",\"tool\":\"t\",\
                   \"tool_spec\":\"s\",\"seed\":1,\"run\":0,\"outcome\":\"completed\",\
                   \"failed\":false,\"manifested\":[],\"events\":5,\"sched_points\":2,\
                   \"injections\":0,\"timed_out\":false,\"wall_us\":9,\"t_us\":1,\
                   \"worker\":0,\"metrics\":null}";
        let v2 = mtt_json::to_string(&JournalRecord::Done(done("bb", 2)));
        let text = format!("{v1}\n{v2}\n");
        let parsed = parse_journal(&text).expect("mixed-version journal parses");
        assert_eq!(parsed.records.len(), 2);
        let JournalRecord::Done(old) = &parsed.records[0] else {
            panic!("expected done");
        };
        assert_eq!(old.fingerprint, None);
        let JournalRecord::Done(new) = &parsed.records[1] else {
            panic!("expected done");
        };
        assert!(new.fingerprint.is_some());
    }

    #[test]
    fn mixed_backend_journal_roundtrips_and_cells_stay_distinct() {
        // One campaign journal holding both a model cell and the native
        // cell of the same (program, tool, seed, runtime): the two carry
        // distinct content addresses, the model line never mentions a
        // backend, and the resume cache keeps them apart.
        let model_addr = content_address("p", "sticky:0.9", 7, "0.1.0", "model");
        let native_addr = content_address("p", "sticky:0.9", 7, "0.1.0", "native");
        let model_cell = done(&model_addr, 7);
        let native_cell = CellDone {
            backend: Some("native".into()),
            ..done(&native_addr, 7)
        };
        let model_line = mtt_json::to_string(&JournalRecord::Done(model_cell.clone()));
        let native_line = mtt_json::to_string(&JournalRecord::Done(native_cell.clone()));
        assert!(!model_line.contains("backend"), "{model_line}");
        assert!(
            native_line.contains("\"backend\":\"native\""),
            "{native_line}"
        );

        let text = format!("{model_line}\n{native_line}\n");
        let parsed = parse_journal(&text).expect("mixed-backend journal parses");
        assert_eq!(parsed.records.len(), 2);
        for (rec, want) in parsed.records.iter().zip([&model_cell, &native_cell]) {
            let JournalRecord::Done(d) = rec else {
                panic!("expected done");
            };
            assert_eq!(d, want);
        }
        let cache = ResumeCache::from_records(&parsed.records);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&model_addr).unwrap().backend, None);
        assert_eq!(
            cache.get(&native_addr).unwrap().backend.as_deref(),
            Some("native")
        );
    }

    #[test]
    fn truncate_partial_tail_repairs_crashed_files() {
        let dir = std::env::temp_dir().join(format!("mtt-obs-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.ndjson");
        std::fs::write(&path, "{\"v\":1,\"kind\":\"job\",\"index\":0,\"wall_us\":1,\"t_us\":2,\"worker\":0}\n{\"v\":1,\"kind\":\"jo").unwrap();
        assert!(truncate_partial_tail(&path).unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        assert_eq!(parse_journal(&text).unwrap().records.len(), 1);
        // A clean file is left untouched.
        assert!(!truncate_partial_tail(&path).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_cache_indexes_done_records_by_address() {
        let recs = vec![
            JournalRecord::Done(done("aa", 1)),
            JournalRecord::Done(done("bb", 2)),
            JournalRecord::End(CampaignEnd::default()),
        ];
        let cache = ResumeCache::from_records(&recs);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get("aa").unwrap().seed, 1);
        assert!(cache.get("cc").is_none());
        assert!(!cache.is_empty());
    }

    #[test]
    fn sink_latches_write_errors() {
        struct FullDisk;
        impl Write for FullDisk {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WriteZero, "disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let sink = JournalSink::from_writer(FullDisk);
        sink.done(done("aa", 1));
        let err = sink.error().expect("error latched");
        assert!(err.contains("journal write failed"));
        // Subsequent writes are no-ops, not panics.
        sink.end("e1", 1);
    }
}
