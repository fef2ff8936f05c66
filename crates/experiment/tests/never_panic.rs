//! Every line checker and parser returns an error on malformed input; none
//! panics. The inputs are real artifacts (journals, run logs, annotated and
//! chrome traces, tool specs, MiniProg programs; single lines and whole
//! files), every prefix of each, random single-character edits of them
//! (non-ASCII included, since a byte-offset slice would split a multibyte
//! character), and arbitrary strings.

use mtt_experiment::campaign::Campaign;
use mtt_experiment::jobpool::{cell_key, CellJournal, JobPool};
use mtt_obs::{ChromeTrace, JournalSink};
use mtt_runtime::RuntimeBackend;
use mtt_tools::ToolSpec;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

/// One parsing surface: the name used in failure messages, valid inputs
/// to mutate, and a call of every parser of that format that says whether
/// any of them accepted the input.
struct Target {
    name: &'static str,
    seeds: Vec<String>,
    parse: fn(&str) -> bool,
}

fn journal(s: &str) -> bool {
    let line = mtt_obs::check_journal_line(s).is_ok();
    line | mtt_obs::parse_journal(s).is_ok()
}

fn run_log(s: &str) -> bool {
    s.lines()
        .map(mtt_telemetry::check_run_log_line)
        .fold(true, |ok, r| ok & r.is_ok())
}

fn annotated(s: &str) -> bool {
    let record = mtt_causal::check_annotated_record(s).is_ok();
    record | mtt_causal::check_annotated(s).is_ok()
}

fn chrome(s: &str) -> bool {
    mtt_obs::check_chrome_trace(s).is_ok()
}

fn tool_spec(s: &str) -> bool {
    let one = ToolSpec::parse(s).map(|spec| spec.resolve()).is_ok();
    let list = ToolSpec::parse_list(s).is_ok();
    one | list | ToolSpec::parse_file(s).is_ok()
}

fn miniprog(s: &str) -> bool {
    let Ok(prog) = mtt_static::parse(s) else {
        return false;
    };
    mtt_static::analyze(&prog);
    mtt_static::compile(&prog);
    true
}

/// Each line of `text` and the whole text.
fn lines_and_whole(text: &str) -> Vec<String> {
    let mut seeds: Vec<String> = text.lines().map(String::from).collect();
    seeds.push(text.to_string());
    seeds
}

/// A legacy `job` record, as builds before journal schema v4 wrote them.
const LEGACY_JOB: &str = r#"{"v":3,"kind":"job","index":0,"wall_us":5,"t_us":9,"worker":0}"#;

/// A journal and a run log from one small telemetry campaign with a native
/// cell (so every optional field is present), plus cells carrying a
/// `result` payload and a legacy `job` record.
fn campaign_artifacts() -> (String, String) {
    let path = std::env::temp_dir().join(format!("mtt-never-panic-{}.ndjson", std::process::id()));
    let sink = Arc::new(JournalSink::to_file(&path, false).expect("temp journal"));
    let mut campaign = Campaign::standard(vec![mtt_suite::small::lost_update(2, 1)], 2);
    campaign.tools.truncate(2);
    campaign.tools[1].backend = RuntimeBackend::Native;
    campaign.tools[1].spec.backend = RuntimeBackend::Native;
    campaign.telemetry = true;
    campaign.journal = Some(Arc::clone(&sink));
    let run = campaign.run_full(&JobPool::serial());
    let pool = JobPool::serial().recording(Some(CellJournal {
        sink: Some(sink),
        ..CellJournal::default()
    }));
    pool.cells(2, |i| cell_key("p", "t", "s".into(), i as u64), |i| vec![i]);
    let mut journal = std::fs::read_to_string(&path).expect("journal written");
    journal.push_str(LEGACY_JOB);
    journal.push('\n');
    std::fs::remove_file(&path).ok();
    let mut log = Vec::new();
    let mut w = mtt_telemetry::RunLogWriter::new(&mut log);
    for rec in &run.run_log {
        w.write_record(rec).expect("in-memory write");
    }
    w.flush().expect("in-memory flush");
    drop(w);
    (journal, String::from_utf8(log).expect("NDJSON is UTF-8"))
}

fn chrome_trace() -> String {
    let mut t = ChromeTrace::new();
    t.process_name(1, "mtt");
    t.thread_name(1, 0, "phases");
    t.complete(1, 0, "phase", "campaign.execute", 0, 120, None);
    t.complete(1, 1, "cell", "lost_update/none#0", 5, 40, Some(7));
    t.dump()
}

/// The targets, built once per test binary (the campaign takes a moment).
fn target(name: &str) -> &'static Target {
    static TARGETS: OnceLock<Vec<Target>> = OnceLock::new();
    TARGETS
        .get_or_init(targets)
        .iter()
        .find(|t| t.name == name)
        .expect("a known target")
}

fn targets() -> Vec<Target> {
    let (journal_text, run_log_text) = campaign_artifacts();
    let mut specs: Vec<String> = mtt_tools::STANDARD_ROSTER_SPECS
        .iter()
        .chain(mtt_experiment::profile::PROFILE_ROSTER_SPECS)
        .chain(mtt_experiment::scoreboard::SCOREBOARD_ROSTER_SPECS)
        .map(|s| s.to_string())
        .collect();
    specs.push(
        "pct:3:150+noise=coverage+place=sync+race=hb+deadlock=waitsfor+cov=sites\
         +spurious=0.05+backend=native+name=all-clauses"
            .into(),
    );
    specs.push(specs.join(","));
    specs.push(format!("# roster\n{}\n", specs[..4].join("\n")));
    let mut programs: Vec<String> = mtt_static::samples::catalog()
        .iter()
        .map(|s| s.src.to_string())
        .collect();
    let families = mtt_gen::GenOptions {
        seed: 42,
        families: 4,
    };
    for f in mtt_gen::generate_families(&families) {
        programs.extend(f.members.iter().map(|m| m.src.clone()));
    }
    vec![
        Target {
            name: "journal",
            seeds: lines_and_whole(&journal_text),
            parse: journal,
        },
        Target {
            name: "run log",
            seeds: lines_and_whole(&run_log_text),
            parse: run_log,
        },
        Target {
            name: "annotated trace",
            seeds: [
                include_str!("golden/explain_lost_update.ndjson"),
                include_str!("golden/explain_unguarded_wait.ndjson"),
            ]
            .iter()
            // A header line is valid only with its records: skip it as a line.
            .flat_map(|t| lines_and_whole(t).into_iter().skip(1))
            .collect(),
            parse: annotated,
        },
        Target {
            name: "chrome trace",
            seeds: vec![chrome_trace()],
            parse: chrome,
        },
        Target {
            name: "tool spec",
            seeds: specs,
            parse: tool_spec,
        },
        Target {
            name: "MiniProg",
            seeds: programs,
            parse: miniprog,
        },
    ]
}

/// Characters the edits draw from: the punctuation of every format under
/// test, and multibyte characters of every UTF-8 length.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', '+', '=', ';', '(', ')', '-', '.', '#', '0', '7', 'a',
    'e', 'x', ' ', '\n', '\t', '\0', 'é', '€', '𝄞', '\u{85}', '\u{a0}',
];

/// A character from [`ALPHABET`] or anywhere in Unicode.
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        3 => prop::sample::select(ALPHABET.to_vec()),
        1 => any::<u32>().prop_map(|u| char::from_u32(u % 0x11_0000).unwrap_or('\u{fffd}')),
    ]
}

/// A seed of `target` with one character deleted, replaced or inserted,
/// or an arbitrary string.
fn mutant(target: &str) -> impl Strategy<Value = String> {
    let seed = prop::sample::select(self::target(target).seeds.clone());
    let ch = any_char();
    let noise = prop::collection::vec(any_char(), 0..48);
    composed(move |rng| {
        let mut chars: Vec<char> = seed.sample(rng).chars().collect();
        let at = rng.next_u64() as usize % (chars.len() + 1);
        match rng.next_u64() % 4 {
            0 if at < chars.len() => {
                chars.remove(at);
            }
            1 if at < chars.len() => chars[at] = ch.sample(rng),
            3 => chars = noise.sample(rng),
            _ => chars.insert(at, ch.sample(rng)),
        }
        chars.into_iter().collect()
    })
}

/// Whether the parsers of `target` accept `input`; `Err` naming the target
/// and the input if they panic on it.
fn survives(target: &Target, input: &str) -> Result<bool, String> {
    catch_unwind(AssertUnwindSafe(|| (target.parse)(input)))
        .map_err(|_| format!("{} parser panicked on {input:?}", target.name))
}

#[test]
fn seeds_are_valid_and_their_prefixes_never_panic() {
    for name in [
        "journal",
        "run log",
        "annotated trace",
        "chrome trace",
        "tool spec",
        "MiniProg",
    ] {
        let target = target(name);
        for seed in &target.seeds {
            assert!(
                survives(target, seed).unwrap(),
                "invalid {name} seed {seed:?}"
            );
        }
        for seed in &target.seeds {
            for (i, _) in seed.char_indices() {
                survives(target, &seed[..i]).unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn journal_parsers_never_panic(input in mutant("journal")) {
        let r = survives(target("journal"), &input);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn run_log_checker_never_panics(input in mutant("run log")) {
        let r = survives(target("run log"), &input);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn annotated_trace_checkers_never_panic(input in mutant("annotated trace")) {
        let r = survives(target("annotated trace"), &input);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn chrome_trace_checker_never_panics(input in mutant("chrome trace")) {
        let r = survives(target("chrome trace"), &input);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn tool_spec_parsers_never_panic(input in mutant("tool spec")) {
        let r = survives(target("tool spec"), &input);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn miniprog_parser_never_panics(input in mutant("MiniProg")) {
        let r = survives(target("MiniProg"), &input);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}
