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
use mtt_experiment::{detector_eval, multiout_eval};
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
            ..Default::default()
        },
        &JobPool::new(2),
        drop,
    )
    .expect("e3 is a known profile key");
    check_golden("profile_e3.txt", &report.render());
    check_golden("profile_e3.csv", &report.to_csv());
}

#[test]
fn profile_run_log_matches_golden() {
    let mut buf = Vec::new();
    let mut w = mtt_telemetry::RunLogWriter::new(&mut buf);
    mtt_experiment::run_profile(
        "e3",
        &mtt_experiment::ProfileOptions {
            runs: 6,
            ..Default::default()
        },
        &JobPool::new(2),
        |r| w.write_record(&r).expect("in-memory write"),
    )
    .expect("e3 is a known profile key");
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
fn trace_lost_update_matches_golden() {
    // The standard trace format (`mtt_trace::json`): the file `mtt trace
    // lost_update 1 DIR` writes, header and records. CI diffs that command's
    // output against this same snapshot.
    let program = mtt_suite::by_name("lost_update").expect("lost_update is a suite program");
    let trace = mtt_experiment::tracegen::generate(&program, &Default::default());
    let text = mtt_trace::json::to_string(&trace);
    check_golden("trace_lost_update.jsonl", &text);
    let back = mtt_trace::json::read(text.as_bytes()).expect("the golden trace reads back");
    assert_eq!(mtt_trace::json::to_string(&back), text);
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
    let json = String::from_utf8(out.stdout).expect("catalog JSON is UTF-8");
    check_golden("tools_catalog.json", &json);
    check_parses_back::<mtt_tools::registry::CatalogJson>(json.trim_end());
}

#[test]
fn lint_samples_match_golden() {
    // `mtt lint` on every catalog sample, as text and as `--json`, with
    // its exit code: the only snapshot that pins the wording of the
    // static diagnostics themselves (D001, L003, L006, ...).
    let mut out = String::new();
    for sample in mtt_static::samples::catalog() {
        for args in [
            vec!["lint", sample.name],
            vec!["lint", sample.name, "--json"],
        ] {
            let run = std::process::Command::new(env!("CARGO_BIN_EXE_mtt"))
                .args(&args)
                .output()
                .expect("spawn mtt lint");
            let code = run.status.code().expect("mtt lint exits normally");
            out.push_str(&format!("$ mtt {} (exit {code})\n", args.join(" ")));
            out.push_str(&String::from_utf8(run.stdout).expect("lint output is UTF-8"));
        }
    }
    check_golden("lint_samples.txt", &out);
}

/// Every fact the static pass derives for `prog`, one line per fact, read
/// from public fields only, so a refactor that reshapes a struct cannot
/// move the snapshot.
fn static_facts(prog: &mtt_static::MiniProg) -> String {
    use std::fmt::Write;
    let r = mtt_static::analyze(prog);
    let mut s = format!("== {}\n", prog.name);
    let _ = writeln!(s, "shared {:?}", r.shared_vars);
    for (var, locks) in &r.guarded_by {
        let _ = writeln!(s, "guarded_by {var} {locks:?}");
    }
    for race in &r.races {
        let _ = writeln!(
            s,
            "race {} threads {:?}: {}",
            race.var, race.threads, race.message
        );
    }
    let threads: Vec<mtt_static::ThreadCtx> = prog
        .threads
        .iter()
        .map(mtt_static::ThreadCtx::new)
        .collect();
    let graph = mtt_static::LockOrderGraph::build(&threads);
    for c in graph.cycles() {
        let lines: Vec<u32> = c.sites.iter().map(|&i| graph.sites[i].line).collect();
        let _ = writeln!(
            s,
            "cycle {:?} threads {:?} effective {} gate {:?} lines {lines:?} deadlock {}",
            c.locks,
            c.threads,
            c.effective_threads,
            c.gate,
            r.deadlocks.contains(&c)
        );
    }
    let _ = writeln!(s, "no_switch {:?}", r.no_switch_lines);
    for (i, site) in r.mhp.sites.iter().enumerate() {
        let partners: Vec<usize> = (0..r.mhp.sites.len())
            .filter(|&j| j != i && r.mhp.conflicts(i, j) && r.mhp.mhp(i, j))
            .collect();
        let _ = writeln!(
            s,
            "mhp {i}: thread {} node {} line {} {} {} must {:?} parallel with {partners:?}",
            site.thread,
            site.node,
            site.line,
            if site.write { "write" } else { "read" },
            site.var,
            site.must
        );
    }
    let _ = writeln!(s, "contended {:?}", r.mhp.contended_vars());
    for a in &r.atomicity {
        let _ = writeln!(
            s,
            "atomicity {} thread {} lines {}-{} lock {:?} {}",
            a.var, a.thread, a.read_line, a.write_line, a.lock, a.kind
        );
    }
    for d in &r.diagnostics {
        let _ = writeln!(
            s,
            "diagnostic {} {}-{} {}",
            d.code, d.line, d.end_line, d.message
        );
    }
    // `StaticInfo`: the variable facts as their JSON, the site facts and
    // the independent pairs as line ranges (the full JSON is ten times the
    // size and no easier to review).
    let _ = writeln!(s, "info.vars {}", mtt_json::to_string(&r.info.vars));
    let site_lines = |keep: &dyn Fn(&mtt_instrument::SiteFacts) -> bool| {
        line_ranges(
            r.info
                .sites
                .iter()
                .filter(|(_, f)| keep(f))
                .map(|(l, _)| l.line),
        )
    };
    let _ = writeln!(s, "info.sites{}", site_lines(&|_| true));
    let _ = writeln!(s, "  touches_shared{}", site_lines(&|f| f.touches_shared));
    let _ = writeln!(s, "  switch_relevant{}", site_lines(&|f| f.switch_relevant));
    let _ = writeln!(
        s,
        "  !may_run_parallel{}",
        site_lines(&|f| !f.may_run_parallel)
    );
    let counts: std::collections::BTreeSet<u32> =
        r.info.sites.values().map(|f| f.reaching_threads).collect();
    for n in counts {
        let _ = writeln!(
            s,
            "  reaching_threads {n}:{}",
            site_lines(&|f| f.reaching_threads == n)
        );
    }
    assert_eq!(r.info.independent_line_pairs, r.independence.pairs_vec());
    let mut partners: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
    for (a, b) in r.independence.pairs_vec() {
        partners.entry(a).or_default().push(b);
    }
    for (a, bs) in partners {
        let _ = writeln!(s, "independent {a}:{}", line_ranges(bs));
    }
    s
}

/// `[1, 2, 3, 5]` as ` 1-3 5`.
fn line_ranges(lines: impl IntoIterator<Item = u32>) -> String {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for l in lines {
        match runs.last_mut() {
            Some((_, end)) if *end + 1 == l => *end = l,
            _ => runs.push((l, l)),
        }
    }
    let runs: Vec<String> = runs
        .iter()
        .map(|&(a, b)| {
            if a == b {
                format!(" {a}")
            } else {
                format!(" {a}-{b}")
            }
        })
        .collect();
    runs.concat()
}

#[test]
fn static_facts_match_golden() {
    // The static pass's per-program facts, beyond the diagnostics
    // `lint_samples.txt` pins: shared variables, locksets, lock cycles,
    // MHP sites, atomicity regions, independence pairs and the exported
    // `StaticInfo`, for every catalog sample and every member of the first
    // 16 generated families at the default seed.
    let mut programs: Vec<mtt_static::MiniProg> = mtt_static::samples::catalog()
        .iter()
        .map(|s| mtt_static::parse(s.src).expect("catalog sample parses"))
        .collect();
    let seed = mtt_gen::GenOptions::default().seed;
    for index in 0..16 {
        let family = mtt_gen::family(seed, index);
        programs.extend(family.members.iter().map(|m| m.ast()));
    }
    let out: String = programs.iter().map(static_facts).collect();
    check_golden("static_facts.txt", &out);
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
    let rows = multiout_eval::run_multiout_eval_on(24, 11, None, &JobPool::new(4));
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
fn e2_detector_report_matches_golden() {
    // `mtt e2 4`: both race detectors scored on four annotated traces of
    // every quick-set program. CI diffs `mtt e2 4 --jobs 4` against this
    // same snapshot.
    let programs = mtt_suite::quick_set();
    let report = detector_eval::run_detector_eval_on(&programs, 4, &JobPool::new(4));
    check_golden(
        "e2_detectors.txt",
        &format!("{}\n", report.table().render()),
    );
    check_golden("e2_detectors.csv", &report.table().to_csv());
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
