//! `chrome://tracing` export: a JSON timeline of campaign phases, pool
//! workers, and individual cells.
//!
//! The output is the Trace Event Format's JSON-object form —
//! `{"traceEvents":[...],"displayTimeUnit":"ms"}` — loadable in
//! `chrome://tracing` or Perfetto. Two event shapes are emitted: complete
//! events (`"ph":"X"`, with microsecond `ts`/`dur`) for phases and cells,
//! and metadata events (`"ph":"M"`) naming the process and its threads.
//! Everything here is wall-clock by definition; the builder lives behind
//! `mtt profile --chrome-trace FILE` and never feeds deterministic output.

use mtt_json::{json_struct, Json, ToJson};

/// Builder for one trace file.
#[derive(Clone, Debug, Default)]
pub struct ChromeTrace {
    events: Vec<TraceEvent>,
}

/// One trace event. A metadata event (`"ph":"M"`) names a process or a
/// thread in `args`; a complete event (`"ph":"X"`) has a category, a start
/// and a duration, and `args` when it carries a seed.
#[derive(Clone, Debug, Default)]
struct TraceEvent {
    name: String,
    cat: Option<String>,
    ph: String,
    ts: Option<u64>,
    dur: Option<u64>,
    pid: u64,
    tid: u64,
    args: EventArgs,
}

json_struct!(TraceEvent {
    name,
    #[optional]
    cat,
    ph,
    #[optional]
    ts,
    #[optional]
    dur,
    pid,
    tid,
    #[optional]
    args,
});

/// An event's `args`: the name a metadata event gives, or a cell's seed.
#[derive(Clone, Debug, Default, PartialEq)]
struct EventArgs {
    name: Option<String>,
    seed: Option<u64>,
}

json_struct!(EventArgs {
    #[optional]
    name,
    #[optional]
    seed,
});

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Name the process `pid` (metadata event).
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.metadata("process_name", pid, 0, name);
    }

    /// Name thread `tid` of process `pid` (metadata event).
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.metadata("thread_name", pid, tid, name);
    }

    fn metadata(&mut self, kind: &str, pid: u64, tid: u64, name: &str) {
        self.events.push(TraceEvent {
            name: kind.into(),
            ph: "M".into(),
            pid,
            tid,
            args: EventArgs {
                name: Some(name.into()),
                seed: None,
            },
            ..TraceEvent::default()
        });
    }

    /// Add one complete (`"ph":"X"`) event spanning `[ts_us, ts_us+dur_us]`
    /// microseconds on the `(pid, tid)` track; a cell passes its `seed`.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        pid: u64,
        tid: u64,
        cat: &str,
        name: &str,
        ts_us: u64,
        dur_us: u64,
        seed: Option<u64>,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            cat: Some(cat.into()),
            ph: "X".into(),
            ts: Some(ts_us),
            dur: Some(dur_us),
            pid,
            tid,
            args: EventArgs { name: None, seed },
        });
    }

    /// Number of events added so far (metadata included).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The trace document as a compact JSON string.
    pub fn dump(&self) -> String {
        mtt_json::to_string(self)
    }
}

/// The trace document: `{"traceEvents":[...],"displayTimeUnit":"ms"}`.
impl ToJson for ChromeTrace {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"traceEvents\":");
        self.events.write_json(out);
        out.push_str(",\"displayTimeUnit\":\"ms\"}");
    }
}

/// Structural check of a chrome-trace file: the top level must be an
/// object with a `traceEvents` array, and every event must be an object
/// with a valid `ph` whose required fields are present and well-typed.
/// Returns the number of complete (`"X"`) events.
pub fn check_chrome_trace(text: &str) -> Result<usize, String> {
    let v = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let Json::Obj(_) = v else {
        return Err("top level is not a JSON object".into());
    };
    let events = v
        .get("traceEvents")
        .ok_or("missing `traceEvents`")?
        .as_arr()
        .ok_or("`traceEvents` is not an array")?;
    let mut complete = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let err = |msg: &str| format!("traceEvents[{i}]: {msg}");
        let Json::Obj(_) = ev else {
            return Err(err("not an object"));
        };
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| err("missing or non-string `ph`"))?;
        for field in ["pid", "tid"] {
            if ev.get(field).and_then(Json::as_u64).is_none() {
                return Err(err(&format!("missing or non-integer `{field}`")));
            }
        }
        if ev.get("name").and_then(Json::as_str).is_none() {
            return Err(err("missing or non-string `name`"));
        }
        match ph {
            "X" => {
                for field in ["ts", "dur"] {
                    if ev.get(field).and_then(Json::as_u64).is_none() {
                        return Err(err(&format!("missing or non-integer `{field}`")));
                    }
                }
                complete += 1;
            }
            "M" => {
                if ev.get("args").and_then(|a| a.get("name")).is_none() {
                    return Err(err("metadata event without `args.name`"));
                }
            }
            other => return Err(err(&format!("unsupported phase `{other}`"))),
        }
    }
    Ok(complete)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_output_passes_the_structural_check() {
        let mut t = ChromeTrace::new();
        t.process_name(1, "mtt profile-e3");
        t.thread_name(1, 0, "phases");
        t.thread_name(1, 1, "worker 0");
        t.complete(1, 0, "phase", "campaign.execute", 0, 1000, None);
        t.complete(1, 1, "cell", "lost_update/none#0", 10, 90, Some(7));
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        let text = t.dump();
        assert_eq!(check_chrome_trace(&text).unwrap(), 2);
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("\"displayTimeUnit\":\"ms\""));
    }

    #[test]
    fn check_rejects_malformed_traces() {
        assert!(check_chrome_trace("[]").is_err());
        assert!(check_chrome_trace("{}")
            .unwrap_err()
            .contains("traceEvents"));
        assert!(check_chrome_trace("{\"traceEvents\":{}}").is_err());
        let no_ph = "{\"traceEvents\":[{\"name\":\"x\",\"pid\":1,\"tid\":0}]}";
        assert!(check_chrome_trace(no_ph).unwrap_err().contains("`ph`"));
        let no_dur =
            "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":1,\"pid\":1,\"tid\":0}]}";
        assert!(check_chrome_trace(no_dur).unwrap_err().contains("`dur`"));
        let bad_ph = "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"Q\",\"pid\":1,\"tid\":0}]}";
        assert!(check_chrome_trace(bad_ph).unwrap_err().contains("phase"));
    }
}
