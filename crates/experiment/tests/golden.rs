//! Golden-report snapshot tests.
//!
//! The prepared experiments are deterministic end to end (seeded runs,
//! canonical-order merges, no wall-clock columns in the default tables),
//! so their rendered reports can be pinned byte for byte. If a change
//! legitimately alters a report, regenerate the snapshots with:
//!
//! ```text
//! MTT_BLESS=1 cargo test --release -p mtt-experiment --test golden
//! ```
//!
//! and review the diff like any other code change.

use mtt_experiment::campaign::{Campaign, ToolConfig};
use mtt_experiment::jobpool::JobPool;
use mtt_experiment::multiout_eval;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("MTT_BLESS").is_some() {
        std::fs::write(&path, actual).expect("write blessed snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with MTT_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "report drifted from snapshot {name}; if intended, rerun with MTT_BLESS=1 and review the diff"
    );
}

/// An experiment's `--json` document decodes as the type that printed it
/// and prints the same bytes again.
fn check_parses_back<T: mtt_json::FromJson + mtt_json::ToJson>(json: &str) {
    let back: T = mtt_json::from_str(json).expect("report JSON decodes as its declared type");
    assert_eq!(mtt_json::to_string(&back), json);
}

/// A tiny fixed-seed E1 campaign: 2 programs x 2 tools x 8 runs.
fn tiny_campaign() -> Campaign {
    Campaign {
        programs: vec![
            mtt_suite::small::lost_update(2, 2),
            mtt_suite::small::ab_ba(),
        ],
        tools: vec![ToolConfig::baseline(), ToolConfig::with_spurious(0.1)],
        runs: 8,
        base_seed: 42,
        max_steps: 20_000,
        ..Campaign::standard(vec![], 0)
    }
}

#[test]
fn e1_tiny_campaign_table_matches_golden() {
    let report = tiny_campaign().run_on(&JobPool::new(4));
    check_golden("e1_tiny_table.txt", &report.table().render());
}

#[test]
fn e1_tiny_campaign_csv_matches_golden() {
    let report = tiny_campaign().run_on(&JobPool::new(4));
    check_golden("e1_tiny_table.csv", &report.table().to_csv());
}

#[test]
fn profile_e3_report_matches_golden() {
    // `mtt profile` output is deterministic (seeded runs, canonical-order
    // merges, wall-clock segregated into render_timing), so the rendered
    // report and its CSV can be pinned byte for byte.
    let report = mtt_experiment::run_profile(
        "e3",
        &mtt_experiment::ProfileOptions {
            runs: 6,
            jobs: 2,
            ..Default::default()
        },
    )
    .expect("e3 is a known profile key");
    check_golden("profile_e3.txt", &report.render());
    check_golden("profile_e3.csv", &report.to_csv());
}

#[test]
fn profile_run_log_matches_golden() {
    let report = mtt_experiment::run_profile(
        "e3",
        &mtt_experiment::ProfileOptions {
            runs: 6,
            jobs: 2,
            ..Default::default()
        },
    )
    .expect("e3 is a known profile key");
    let mut buf = Vec::new();
    let mut w = mtt_telemetry::RunLogWriter::new(&mut buf);
    for r in &report.run_log {
        w.write_record(r).expect("in-memory write");
    }
    w.flush().expect("in-memory flush");
    drop(w);
    check_golden(
        "profile_e3_runlog.ndjson",
        &String::from_utf8(buf).expect("NDJSON is UTF-8"),
    );
}

/// `mtt explain` on one catalog sample with the default seed scan:
/// timeline, diff, and annotated NDJSON, each pinned byte for byte.
fn check_explain_goldens(program: mtt_suite::SuiteProgram) {
    let opts = mtt_experiment::ExplainOptions {
        scan: 64,
        max_steps: 20_000,
        ..Default::default()
    };
    let e = mtt_experiment::explain_on(&program, &opts, &JobPool::new(4))
        .expect("catalog sample fails within 64 seeds");
    check_golden(
        &format!("explain_{}_timeline.txt", e.program),
        &format!("{}\n{}", e.render_summary(), e.render_timeline()),
    );
    check_golden(
        &format!("explain_{}_diff.txt", e.program),
        &e.render_diff()
            .expect("catalog sample passes within 64 seeds"),
    );
    let ndjson = e.annotated_ndjson();
    mtt_causal::check_annotated(&ndjson).expect("golden NDJSON conforms to its own schema");
    check_golden(&format!("explain_{}.ndjson", e.program), &ndjson);
}

#[test]
fn explain_lost_update_matches_golden() {
    check_explain_goldens(mtt_suite::small::lost_update(2, 2));
}

#[test]
fn explain_check_then_act_matches_golden() {
    check_explain_goldens(mtt_suite::small::check_then_act());
}

#[test]
fn explain_unguarded_wait_matches_golden() {
    check_explain_goldens(mtt_suite::small::unguarded_wait());
}

#[test]
fn tools_catalog_json_matches_golden() {
    // The registry's JSON catalog is part of the CLI surface: pin it so a
    // component or roster change shows up as a reviewable golden diff.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mtt"))
        .args(["tools", "list", "--json"])
        .output()
        .expect("spawn mtt tools list --json");
    assert!(out.status.success(), "mtt tools list --json failed");
    check_golden(
        "tools_catalog.json",
        &String::from_utf8(out.stdout).expect("catalog JSON is UTF-8"),
    );
}

#[test]
fn e11_scoreboard_matches_golden() {
    // The E11 report at the CLI's default run count is pinned byte for
    // byte: CI diffs `mtt e11 --jobs 4` against this same snapshot, so a
    // detector or lint change that moves a score shows up as a reviewable
    // golden diff in both places.
    let rows = mtt_experiment::scoreboard::run_scoreboard_on(20, &JobPool::new(4));
    check_golden(
        "e11_scoreboard.txt",
        &mtt_experiment::scoreboard::render_report(&rows),
    );
    check_golden(
        "e11_scoreboard.csv",
        &mtt_experiment::scoreboard::render_csv(&rows),
    );
    let json = mtt_json::to_string(&mtt_experiment::scoreboard::scoreboard_json(&rows));
    check_golden("e11_scoreboard.json", &format!("{json}\n"));
    check_parses_back::<mtt_experiment::scoreboard::ScoreboardJson>(&json);
}

#[test]
fn e10_gen_scoreboard_matches_golden() {
    // The E10 report at the CLI's defaults (seed 42, 20 families, 4 runs)
    // is pinned byte for byte: CI diffs `mtt e10 --jobs 4` against this
    // same snapshot, so a generator or detector change that moves a
    // precision/recall cell shows up as a reviewable golden diff.
    let opts = mtt_experiment::gen_eval::GenEvalOptions::default();
    let rows = mtt_experiment::gen_eval::run_gen_eval_on(&opts, &JobPool::new(4));
    check_golden(
        "e10_scoreboard.txt",
        &mtt_experiment::gen_eval::render_report(&rows),
    );
    check_golden(
        "e10_scoreboard.csv",
        &mtt_experiment::gen_eval::render_csv(&rows),
    );
    let json = mtt_json::to_string(&mtt_experiment::gen_eval::gen_eval_json(&opts, &rows));
    check_golden("e10_scoreboard.json", &format!("{json}\n"));
    check_parses_back::<mtt_experiment::gen_eval::GenEvalJson>(&json);
}

#[test]
fn gen_describe_matches_golden() {
    // `mtt gen describe` is the human-readable ground-truth record: family
    // id, pattern, per-member mutation metadata and manifest lines. Pin
    // the first four families (one per pattern) at the default seed.
    let mut out = String::new();
    for index in 0..4 {
        out.push_str(&mtt_gen::family(42, index).describe());
        out.push('\n');
    }
    check_golden("gen_describe.txt", &out);
}

#[test]
fn e5_multiout_table_matches_golden() {
    let rows = multiout_eval::run_multiout_eval_on(24, 11, &JobPool::new(4));
    check_golden(
        "e5_multiout_table.txt",
        &multiout_eval::multiout_table(&rows).render(),
    );
}

#[test]
fn e12_saturation_matches_golden() {
    // The E12 saturation report at the CLI's default run count is pinned
    // byte for byte: CI diffs `mtt e12 --jobs 4` against this same
    // snapshot, so a scheduler or fingerprint change that moves a distinct
    // count, curve AUC, or unseen-mass cell shows up as a reviewable
    // golden diff in both places.
    let cells = mtt_experiment::saturation_eval::run_saturation_on(40, &JobPool::new(4));
    check_golden(
        "e12_saturation.txt",
        &mtt_experiment::saturation_eval::render_report(&cells),
    );
    check_golden(
        "e12_saturation.csv",
        &mtt_experiment::saturation_eval::render_csv(&cells),
    );
    let json = mtt_json::to_string(&mtt_experiment::saturation_eval::saturation_json(&cells));
    check_golden("e12_saturation.json", &format!("{json}\n"));
    check_parses_back::<mtt_experiment::saturation_eval::SaturationJson>(&json);
}

#[test]
fn e7_static_report_matches_golden() {
    // `mtt e7 6`: the E7 reduction table and the E7b per-class scores.
    // CI diffs `mtt e7 6 --jobs 4` against this same snapshot.
    let rows = mtt_experiment::static_eval::run_static_eval_on(6, &JobPool::new(4));
    check_golden(
        "e7_static.txt",
        &mtt_experiment::static_eval::render_report(&rows),
    );
}

#[test]
fn e13_json_parses_back_into_its_declared_type() {
    // Native legs are real concurrency and cannot be goldened; the document
    // must still decode as the type that printed it, native outcome maps
    // included, and print the same bytes again.
    use mtt_experiment::differential_eval::DifferentialJson;
    use mtt_experiment::differential_eval::{differential_json, run_differential_on};
    let doc = differential_json(&run_differential_on(3, &JobPool::new(2)));
    assert!(doc.cells.iter().all(|c| !c.native.outcomes.is_empty()));
    check_parses_back::<DifferentialJson>(&mtt_json::to_string(&doc));
}
