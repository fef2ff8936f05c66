//! Property tests for the run log: every line the writer prints parses back
//! to the record that printed it and prints each key once in the
//! documented order; a line whose `backend` is not a known tag is refused.

use mtt_json::Json;
use mtt_obs::MetricScalars;
use mtt_telemetry::{check_run_log_line, RunLogRecord, RunLogWriter};
use proptest::prelude::*;

/// Characters that take every branch of the string escaper.
const CHARS: [char; 10] = [
    'a',
    'Z',
    '7',
    ' ',
    '"',
    '\\',
    '\n',
    '\u{1}',
    '\u{e9}',
    '\u{1f600}',
];

fn text(rng: &mut TestRng) -> String {
    let len = rng.next_u64() % 8;
    (0..len)
        .map(|_| CHARS[(rng.next_u64() % CHARS.len() as u64) as usize])
        .collect()
}

/// Zero, the largest `u64`, a small number or any number.
fn count(rng: &mut TestRng) -> u64 {
    match rng.next_u64() % 4 {
        0 => 0,
        1 => u64::MAX,
        2 => rng.next_u64() % 1000,
        _ => rng.next_u64(),
    }
}

fn coin(rng: &mut TestRng) -> bool {
    rng.next_u64().is_multiple_of(2)
}

/// A record whose optional fields are each present or not; its backend,
/// when present, is a known tag or any text.
fn record(rng: &mut TestRng) -> RunLogRecord {
    let backend = match rng.next_u64() % 4 {
        0 => None,
        1 => Some("model".into()),
        2 => Some("native".into()),
        _ => Some(text(rng).into()),
    };
    RunLogRecord {
        experiment: text(rng).into(),
        program: text(rng).into(),
        tool: text(rng).into(),
        tool_spec: text(rng).into(),
        run: count(rng),
        seed: count(rng),
        outcome: text(rng).into(),
        failed: coin(rng),
        backend,
        fingerprint: coin(rng).then(|| text(rng)),
        metrics: MetricScalars {
            events: count(rng),
            sched_points: count(rng),
            context_switches: count(rng),
            forced_yields: count(rng),
            noise_injections: count(rng),
            spurious_wakeups: count(rng),
            lock_acquires: count(rng),
            lock_contentions: count(rng),
            waits: count(rng),
            notifies: count(rng),
            threads: count(rng),
            steps_to_first_bug: coin(rng).then(|| count(rng)),
        },
    }
}

/// The keys a line carries, in order: the run's coordinates and outcome,
/// the optional fields it has, then the twelve counters.
fn expected_keys(rec: &RunLogRecord) -> Vec<&'static str> {
    let mut keys = vec![
        "experiment",
        "program",
        "tool",
        "tool_spec",
        "run",
        "seed",
        "outcome",
        "failed",
    ];
    if rec.backend.is_some() {
        keys.push("backend");
    }
    if rec.fingerprint.is_some() {
        keys.push("fingerprint");
    }
    keys.extend([
        "events",
        "sched_points",
        "context_switches",
        "forced_yields",
        "noise_injections",
        "spurious_wakeups",
        "lock_acquires",
        "lock_contentions",
        "waits",
        "notifies",
        "threads",
        "steps_to_first_bug",
    ]);
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_run_log_line_parses_back_to_its_record(
        recs in prop::collection::vec(composed(record), 1..6),
    ) {
        let mut w = RunLogWriter::new(Vec::new());
        for rec in &recs {
            w.write_record(rec).expect("in-memory write");
        }
        let text = String::from_utf8(w.into_inner().expect("in-memory flush")).unwrap();
        prop_assert_eq!(text.lines().count(), recs.len());
        for (line, rec) in text.lines().zip(&recs) {
            prop_assert_eq!(&mtt_json::from_str::<RunLogRecord>(line).expect("a line decodes"), rec);
            let Ok(Json::Obj(members)) = Json::parse(line) else {
                panic!("the writer printed a line that is not an object: {line}");
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            prop_assert_eq!(keys, expected_keys(rec));
            let known = matches!(rec.backend.as_deref(), None | Some("model" | "native"));
            match check_run_log_line(line) {
                Ok(back) => {
                    prop_assert!(known, "unknown backend accepted: {line}");
                    prop_assert_eq!(&back, rec);
                }
                Err(msg) => {
                    prop_assert!(!known, "{line}: {msg}");
                    prop_assert!(msg.contains("unknown backend"), "{msg}");
                }
            }
        }
    }
}
