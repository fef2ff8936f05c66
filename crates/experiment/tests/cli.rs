//! The push-button CLI, pushed: spawn the real `mtt` binary and check the
//! paper-facing surfaces (repository listing, single runs, trace
//! generation) behave.

use std::process::Command;

fn mtt(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_mtt"))
        .args(args)
        .output()
        .expect("mtt binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// Like [`mtt`] but returning the exact exit code (for the exit-convention
/// tests: 2 = usage error, 1 = failure).
fn mtt_code(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_mtt"))
        .args(args)
        .output()
        .expect("mtt binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().expect("not killed by a signal"),
    )
}

#[test]
fn list_prints_the_whole_repository() {
    let (stdout, _, ok) = mtt(&["list"]);
    assert!(ok);
    for name in [
        "lost_update",
        "dining_philosophers",
        "web_sessions",
        "pipeline_etl",
        "bounded_queue",
    ] {
        assert!(stdout.contains(name), "missing {name} in listing");
    }
    assert!(stdout.contains("DataRace"), "bug classes shown");
    assert!(stdout.contains("lost-update"), "bug tags shown");
}

#[test]
fn run_reports_outcome_and_verdict() {
    let (stdout, _, ok) = mtt(&["run", "lost_update", "3"]);
    assert!(ok);
    assert!(stdout.contains("lost_update"));
    assert!(
        stdout.contains("manifested bugs") || stdout.contains("no documented bug"),
        "verdict line missing: {stdout}"
    );
}

#[test]
fn unknown_program_fails_cleanly() {
    let (_, stderr, ok) = mtt(&["run", "no_such_program"]);
    assert!(!ok);
    assert!(stderr.contains("unknown program"));
}

#[test]
fn unknown_command_prints_usage() {
    let (_, stderr, ok) = mtt(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

#[test]
fn help_prints_usage_and_succeeds() {
    let (stdout, _, ok) = mtt(&["help"]);
    assert!(ok, "`mtt help` must exit 0");
    assert!(stdout.contains("usage"));
    assert!(
        stdout.contains("--jobs"),
        "global flags documented: {stdout}"
    );
}

#[test]
fn help_covers_the_whole_cli_surface() {
    // The help text is generated from `cli_spec`, so every subcommand the
    // dispatcher knows and every global flag the parser accepts must appear
    // in it — including historical drift victims like profile's --timing.
    let (stdout, _, ok) = mtt(&["help"]);
    assert!(ok);
    for c in mtt_experiment::cli_spec::SUBCOMMANDS {
        assert!(
            stdout.contains(c.name),
            "help missing subcommand `{}`",
            c.name
        );
    }
    let lines: Vec<&str> = stdout.lines().collect();
    for f in mtt_experiment::cli_spec::GLOBAL_FLAGS {
        // The flag's line, then the line naming the commands that use it.
        let at = lines
            .iter()
            .position(|l| l.trim_start().starts_with(f.flags))
            .unwrap_or_else(|| panic!("help missing flag `{}`", f.flags));
        let users = f
            .used_by
            .map_or("every command".to_string(), |c| c.join(", "));
        assert_eq!(
            lines[at + 1].trim(),
            format!("used by {users}"),
            "{}",
            f.flags
        );
    }
    assert!(stdout.contains("--timing"), "profile --timing documented");
}

#[test]
fn readme_documents_every_subcommand() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("workspace README exists");
    for c in mtt_experiment::cli_spec::SUBCOMMANDS {
        assert!(
            readme.contains(&format!("mtt {}", c.name))
                || readme.contains(&format!("`{}`", c.name)),
            "README command table missing `mtt {}`",
            c.name
        );
    }
    assert!(
        readme.contains("--timing"),
        "README must document profile's --timing flag"
    );
    let schema = format!("schema v{}", mtt_obs::JOURNAL_VERSION);
    assert!(
        readme.contains(&schema),
        "README's journal-check row must name the current journal `{schema}`"
    );
}

#[test]
fn unwritable_metrics_path_is_a_usage_error() {
    // --metrics pointing into a nonexistent directory must exit 2 with a
    // clean message, not panic and not exit 1.
    let (_, stderr, code) = mtt_code(&[
        "e1",
        "2",
        "--quiet",
        "--metrics",
        "/nonexistent-dir-mtt/run.ndjson",
    ]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("create"), "stderr: {stderr}");
    assert!(!stderr.contains("panic"), "stderr: {stderr}");
}

#[test]
fn an_uncreatable_metrics_path_fails_before_any_run() {
    // The run log is created before the campaign runs: a path that cannot
    // be created exits 2 at once, with nothing on stdout and no cell run.
    let dir = std::env::temp_dir().join(format!("mtt-cli-metrics-{}", std::process::id()));
    let journal = dir.join("journal");
    let journal_s = journal.to_string_lossy();
    let bad = "/nonexistent-dir/m.ndjson";
    let cases: [&[&str]; 3] = [
        &["e1", "2", "--metrics", bad],
        &[
            "e1-detail",
            "lost_update",
            "2",
            "--quiet",
            "--journal",
            &journal_s,
            "--metrics",
            bad,
        ],
        &["profile", "e3", "2", "--quiet", "--metrics", bad],
    ];
    for args in cases {
        let cmd = args.join(" ");
        let (stdout, stderr, code) = mtt_code(args);
        assert_eq!(code, 2, "`mtt {cmd}`: {stderr}");
        assert_eq!(stdout, "", "`mtt {cmd}` printed a report");
        assert!(
            stderr.contains(bad),
            "`mtt {cmd}` must name {bad}: {stderr}"
        );
    }
    let text = std::fs::read_to_string(journal.join("e1-detail.ndjson")).unwrap_or_default();
    assert!(!text.contains("\"kind\":\"done\""), "a cell ran:\n{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_run_log_write_error_exits_2_once_the_campaign_ends() {
    // Every write to /dev/full fails: the first failure is kept while the
    // campaign runs and reported when it ends, instead of a report.
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let (stdout, stderr, code) = mtt_code(&["e1", "2", "--quiet", "--metrics", "/dev/full"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert_eq!(stdout, "");
    assert!(stderr.contains("write /dev/full"), "stderr: {stderr}");
}

#[test]
fn no_arguments_fails_with_usage() {
    let (_, stderr, ok) = mtt(&[]);
    assert!(!ok, "bare `mtt` must exit non-zero");
    assert!(stderr.contains("usage"));
}

#[test]
fn malformed_numeric_argument_fails_cleanly() {
    for args in [
        &["e1", "bogus"][..],
        &["run", "lost_update", "bogus"],
        &[
            "trace",
            "lost_update",
            "many",
            "/nonexistent-dir-mtt/traces",
        ],
    ] {
        let cmd = args.join(" ");
        let (_, stderr, code) = mtt_code(args);
        assert_eq!(
            code, 2,
            "`mtt {cmd}` must exit 2, not fall back to a default; stderr: {stderr}"
        );
        assert!(stderr.contains("not a number"), "`mtt {cmd}`: {stderr}");
    }
}

#[test]
fn e2_with_no_traces_is_a_usage_error() {
    // With zero traces no detector runs, and every row would read as a
    // detector that missed every documented race.
    let (stdout, stderr, code) = mtt_code(&["e2", "0"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("at least 1"), "stderr: {stderr}");
    assert!(stdout.is_empty(), "no table: {stdout}");
}

#[test]
fn a_zero_count_is_a_usage_error_naming_the_argument() {
    // Zero runs, traces or families would run nothing and print an empty
    // or all-zero report; every count is held to one rule, at least 1.
    let dir = std::env::temp_dir().join(format!("mtt-zero-count-{}", std::process::id()));
    let dir = dir.to_str().expect("temp path is UTF-8");
    let cases: &[(&[&str], &str)] = &[
        (&["e1", "0"], "e1: the run count"),
        (
            &["e1-detail", "lost_update", "0"],
            "e1-detail: the run count",
        ),
        (&["cloning", "0"], "cloning: the run count"),
        (&["e2", "0"], "e2: the trace count"),
        (&["e3", "0"], "e3: the attempt count"),
        (&["e4", "web_sessions", "0"], "e4: the run count"),
        (&["e5", "0"], "e5: the run count"),
        (&["e6", "0"], "e6: the execution budget"),
        (&["e7", "0"], "e7: the run count"),
        (&["e10", "--runs", "0"], "e10: --runs"),
        (&["e10", "--families", "0"], "e10: --families"),
        (&["e11", "0"], "e11: the run count"),
        (&["e12", "0"], "e12: the run count"),
        (&["e13", "0"], "e13: the run count"),
        (
            &["trace", "lost_update", "0", dir],
            "trace: the trace count",
        ),
        (&["profile", "e3", "0"], "profile: the run count"),
        (&["gen", "list", "--families", "0"], "gen: --families"),
        (&["explain", "ab_ba", "--scan", "0"], "explain: --scan"),
        (&["watch", dir, "--max-polls", "0"], "watch: --max-polls"),
    ];
    for (args, what) in cases {
        let (stdout, stderr, code) = mtt_code(args);
        assert_eq!(code, 2, "{args:?}: stderr {stderr}");
        assert!(
            stderr.contains(&format!("{what} must be at least 1")),
            "{args:?}: stderr {stderr}"
        );
        assert!(stdout.is_empty(), "{args:?}: no report: {stdout}");
    }
    assert!(!std::path::Path::new(dir).exists(), "nothing was written");
    // Seeds are not counts: zero is a seed like any other.
    for args in [
        &["run", "lost_update", "0"][..],
        &["e8", "0"],
        &["gen", "list", "--seed", "0", "--families", "1"],
    ] {
        let (_, stderr, code) = mtt_code(args);
        assert_eq!(code, 0, "{args:?}: stderr {stderr}");
    }
}

#[test]
fn jobs_flag_rejects_missing_and_malformed_values() {
    let (_, stderr, ok) = mtt(&["e5", "4", "--jobs"]);
    assert!(!ok, "`--jobs` with no value must exit non-zero");
    assert!(stderr.contains("--jobs"), "stderr: {stderr}");
    let (_, stderr, ok) = mtt(&["e5", "4", "--jobs", "many"]);
    assert!(!ok, "`--jobs many` must exit non-zero");
    assert!(stderr.contains("--jobs"), "stderr: {stderr}");
}

#[test]
fn cli_output_is_identical_across_job_counts() {
    // The end-to-end determinism claim, at the process boundary: the same
    // experiment through the real binary, serial vs parallel, byte for byte.
    let (serial, _, ok) = mtt(&["e5", "6", "--jobs", "1", "--quiet"]);
    assert!(ok);
    let (par, _, ok) = mtt(&["e5", "6", "--jobs", "4", "--quiet"]);
    assert!(ok);
    assert_eq!(serial, par, "mtt e5 stdout diverged between --jobs 1 and 4");
}

/// Each clause beyond a spec's scheduler and noise, as `--tools` writes it.
const DROPPED_CLAUSES: [&str; 6] = [
    "backend=native",
    "spurious=0.05",
    "place=sync",
    "race=hb",
    "deadlock=waitsfor",
    "cov=sites",
];

/// `mtt CMD 2 --tools 'sticky:0.9+CLAUSE'` exits 2 naming the clause, and a
/// spec of a scheduler and noise alone still runs.
fn refuses_clauses_it_would_drop(cmd: &str) {
    for clause in DROPPED_CLAUSES {
        let spec = format!("sticky:0.9+noise=yield:0.3+{clause}+name=t");
        let (stdout, stderr, code) = mtt_code(&[cmd, "2", "--quiet", "--tools", &spec]);
        assert_eq!(code, 2, "`mtt {cmd} --tools {spec}`: {stderr}");
        assert!(stderr.contains(clause), "`{clause}` not named: {stderr}");
        assert!(stdout.is_empty(), "nothing runs: {stdout}");
    }
    let (stdout, stderr, code) = mtt_code(&[
        cmd,
        "2",
        "--quiet",
        "--tools",
        "sticky:0.9+noise=yield:0.3+name=t",
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains('t'), "{stdout}");
}

#[test]
fn e5_refuses_tool_clauses_it_would_drop() {
    refuses_clauses_it_would_drop("e5");
}

#[test]
fn cloning_refuses_tool_clauses_it_would_drop() {
    refuses_clauses_it_would_drop("cloning");
}

#[test]
fn explain_output_is_identical_across_job_counts() {
    // The causal post-mortem at the process boundary: timeline + diff on
    // the real binary must not depend on the seed-scan worker count.
    let args = |jobs: &'static str| {
        [
            "explain",
            "lost_update",
            "--timeline",
            "--diff",
            "--scan",
            "64",
            "--quiet",
            "--jobs",
            jobs,
        ]
    };
    let (serial, _, ok) = mtt(&args("1"));
    assert!(ok);
    let (par, _, ok) = mtt(&args("4"));
    assert!(ok);
    assert_eq!(serial, par, "mtt explain diverged between --jobs 1 and 4");
    assert!(serial.contains("first failure"), "{serial}");
    assert!(serial.contains("divergence at index"), "{serial}");
    assert!(serial.contains("schedule timeline"), "{serial}");
}

#[test]
fn explain_annotate_roundtrips_through_trace_check() {
    let dir = std::env::temp_dir().join(format!("mtt-explain-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lost_update.ndjson");
    let path_s = path.to_string_lossy().into_owned();
    let (stdout, stderr, ok) = mtt(&[
        "explain",
        "lost_update",
        "--scan",
        "64",
        "--quiet",
        "--annotate",
        &path_s,
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("annotated trace written"), "{stdout}");
    let (stdout, stderr, ok) = mtt(&["trace-check", &path_s]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("conforms to the schema"), "{stdout}");
    // A corrupted line must be rejected with a line-numbered message.
    let text = std::fs::read_to_string(&path).unwrap();
    let corrupted = text.replacen("\"clock\":[", "\"clock\":[-1,", 1);
    std::fs::write(&path, corrupted).unwrap();
    let (_, stderr, code) = mtt_code(&["trace-check", &path_s]);
    assert_eq!(code, 1, "stderr: {stderr}");
    assert!(stderr.contains("line"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_unknown_program_is_a_usage_error() {
    let (_, stderr, code) = mtt_code(&["explain", "no_such_program"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown program"), "stderr: {stderr}");
}

#[test]
fn tools_lists_the_component_catalog() {
    let (stdout, _, ok) = mtt(&["tools"]);
    assert!(ok);
    for id in ["sticky", "pct", "fifo", "mixed", "lockset", "lockorder"] {
        assert!(stdout.contains(id), "catalog missing `{id}`: {stdout}");
    }
    let (json, _, ok) = mtt(&["tools", "list", "--json"]);
    assert!(ok);
    assert!(json.contains("\"schema\":\"mtt-tools-catalog\""), "{json}");
}

#[test]
fn tools_specs_prints_the_standard_roster() {
    let (stdout, _, ok) = mtt(&["tools", "specs"]);
    assert!(ok);
    for spec in mtt_tools::STANDARD_ROSTER_SPECS {
        assert!(
            stdout.lines().any(|l| l == *spec),
            "roster spec `{spec}` missing from:\n{stdout}"
        );
    }
}

#[test]
fn tools_describe_explains_each_component() {
    let (stdout, _, ok) = mtt(&[
        "tools",
        "describe",
        "pct:3:150+noise=mixed:0.2:20+race=lockset",
    ]);
    assert!(ok);
    for needle in ["scheduler", "pct", "mixed", "lockset"] {
        assert!(
            stdout.contains(needle),
            "describe missing `{needle}`: {stdout}"
        );
    }
}

#[test]
fn tools_validate_rejects_malformed_specs_with_a_caret() {
    let (stdout, _, code) = mtt_code(&["tools", "validate", "sticky:0.9"]);
    assert_eq!(code, 0, "valid spec must pass: {stdout}");
    let (_, stderr, code) = mtt_code(&["tools", "validate", "sticky:0.9+noise=slep:0.3"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("column 18"), "stderr: {stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.trim_end() == format!("{}^", " ".repeat(17))),
        "caret must point at the bad component: {stderr}"
    );
    assert!(stderr.contains("slep"), "stderr: {stderr}");
}

#[test]
fn tools_flag_with_bad_spec_is_a_usage_error() {
    let (_, stderr, code) = mtt_code(&["e1", "2", "--quiet", "--tools", "sticky:7"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("column"), "stderr: {stderr}");
}

#[test]
fn tools_file_errors_carry_the_line_number() {
    let dir = std::env::temp_dir().join(format!("mtt-tools-file-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roster.txt");
    std::fs::write(&path, "# ok\nfifo\nsticky:9\n").unwrap();
    let path_s = path.to_string_lossy().into_owned();
    let (_, stderr, code) = mtt_code(&["e1", "2", "--quiet", "--tools-file", &path_s]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("line 3"), "stderr: {stderr}");
    let (_, stderr, code) = mtt_code(&["tools", "validate", "--file", &path_s]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("line 3"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_command_writes_annotated_jsonl() {
    let dir = std::env::temp_dir().join(format!("mtt-cli-test-{}", std::process::id()));
    let dir_s = dir.to_string_lossy().into_owned();
    let (stdout, stderr, ok) = mtt(&["trace", "bank_transfer", "2", &dir_s]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("records"));
    let t0 = dir.join("bank_transfer-0.jsonl");
    let trace = mtt_trace::json::load(&t0).expect("trace file parses");
    assert_eq!(trace.meta.program, "bank_transfer");
    assert!(!trace.is_empty());
    assert!(trace
        .meta
        .known_bugs
        .contains(&"transfer-atomicity".to_string()));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_deny_gates_with_exit_3() {
    // A denied lint that fires exits 3 (distinct from 1 = ungated findings
    // and 2 = usage), so CI can assert "these samples must trip the gate".
    let (_, stderr, code) = mtt_code(&["lint", "mp_abba", "--deny", "all"]);
    assert_eq!(code, 3, "stderr: {stderr}");
    assert!(stderr.contains("denied finding"), "stderr: {stderr}");

    // A clean sample passes the same gate with exit 0.
    let (_, stderr, code) = mtt_code(&["lint", "mp_branch_release", "--deny", "all"]);
    assert_eq!(code, 0, "stderr: {stderr}");

    // --allow strips the findings before the gate sees them.
    let (stdout, _, code) = mtt_code(&["lint", "mp_abba", "--deny", "all", "--allow", "all"]);
    assert_eq!(code, 0, "stdout: {stdout}");

    // Denying a code the sample never emits leaves only exit 1 (findings).
    let (_, _, code) = mtt_code(&["lint", "mp_abba", "--deny", "L001"]);
    assert_eq!(code, 1);

    // A missing flag value is a usage error.
    let (_, _, code) = mtt_code(&["lint", "mp_abba", "--deny"]);
    assert_eq!(code, 2);
}

#[test]
fn lint_reports_a_non_ascii_character_as_a_parse_error() {
    // Regression: a multibyte character outside a comment used to panic
    // the lexer (exit 101) instead of failing the parse (exit 1).
    let path = std::env::temp_dir().join(format!("mtt-lint-utf8-{}.mp", std::process::id()));
    std::fs::write(
        &path,
        "shared x = 0;\nthread t {\n  x = 1; // café\n  x = é;\n}\n",
    )
    .unwrap();
    let (_, stderr, code) = mtt_code(&["lint", &path.to_string_lossy()]);
    assert_eq!(code, 1, "stderr: {stderr}");
    assert!(stderr.contains("parse error"), "stderr: {stderr}");
    assert!(
        stderr.contains("line 4: unexpected character `é`"),
        "stderr: {stderr}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn e10_rejects_malformed_seed_and_families_with_exit_2() {
    // The usage-error convention on the generator flags: a value that does
    // not parse as a number is exit 2 with a clean message, never a panic
    // and never a silent fallback to the default.
    let (_, stderr, code) = mtt_code(&["e10", "--families", "bogus"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("--families"), "stderr: {stderr}");
    assert!(!stderr.contains("panic"), "stderr: {stderr}");

    let (_, stderr, code) = mtt_code(&["e10", "--seed", "-3"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("--seed"), "stderr: {stderr}");

    // A flag with no value at all is the same usage error.
    let (_, stderr, code) = mtt_code(&["e10", "--families"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("--families"), "stderr: {stderr}");
}

#[test]
fn e10_output_is_identical_across_job_counts() {
    // The E10 determinism claim at the process boundary: same scoreboard,
    // byte for byte, whatever the worker count.
    let args = |jobs: &'static str| {
        [
            "e10",
            "--families",
            "4",
            "--runs",
            "2",
            "--quiet",
            "--jobs",
            jobs,
        ]
    };
    let (serial, stderr, ok) = mtt(&args("1"));
    assert!(ok, "stderr: {stderr}");
    let (par, stderr, ok) = mtt(&args("4"));
    assert!(ok, "stderr: {stderr}");
    assert_eq!(
        serial, par,
        "mtt e10 stdout diverged between --jobs 1 and 4"
    );
    assert!(serial.contains("E10"), "{serial}");
    assert!(serial.contains("robust"), "{serial}");
}

#[test]
fn e10_json_is_schema_stamped() {
    let (stdout, stderr, ok) = mtt(&["e10", "--families", "4", "--runs", "2", "--quiet", "--json"]);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("\"schema\":\"mtt-e10-scoreboard\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"family_outcomes\""), "{stdout}");
}

#[test]
fn gen_lists_describes_and_dumps_families() {
    let (stdout, stderr, ok) = mtt(&["gen", "list", "--families", "4"]);
    assert!(ok, "stderr: {stderr}");
    for pat in ["race", "dlock", "notif", "atom"] {
        assert!(stdout.contains(pat), "gen list missing `{pat}`: {stdout}");
    }

    let (stdout, stderr, ok) = mtt(&["gen", "describe", "g42_f000_race"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("mutations:"), "{stdout}");
    assert!(stdout.contains("manifest_lines:"), "{stdout}");

    // Dumping a member prints a parseable MiniProg source.
    let (stdout, stderr, ok) = mtt(&["gen", "dump", "g42_f000_race_v0_bug"]);
    assert!(ok, "stderr: {stderr}");
    mtt_static::parse(&stdout).expect("dumped member source parses");
}

#[test]
fn gen_unknown_family_is_a_usage_error() {
    let (_, stderr, code) = mtt_code(&["gen", "describe", "no_such_family"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("no_such_family"), "stderr: {stderr}");

    let (_, stderr, code) = mtt_code(&["gen", "frobnicate"]);
    assert_eq!(code, 2, "stderr: {stderr}");
}

#[test]
fn e12_prints_saturation_scoreboard_in_all_formats() {
    let (stdout, stderr, ok) = mtt(&["e12", "6", "--quiet"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("E12"), "{stdout}");
    assert!(stdout.contains("unseen mass"), "{stdout}");
    assert!(stdout.contains("fifo"), "{stdout}");

    let (csv, stderr, ok) = mtt(&["e12", "6", "--quiet", "--csv"]);
    assert!(ok, "stderr: {stderr}");
    assert!(csv.contains("program,tool,runs,distinct"), "{csv}");

    let (json, stderr, ok) = mtt(&["e12", "6", "--quiet", "--json"]);
    assert!(ok, "stderr: {stderr}");
    assert!(json.contains("\"schema\":\"mtt-e12-saturation\""), "{json}");
    assert!(json.contains("\"curve\""), "{json}");
}

#[test]
fn e12_is_byte_identical_across_process_level_job_counts() {
    // The differential at the process boundary: the whole binary, not
    // just the library, must emit identical bytes at every --jobs.
    let reference = mtt(&["e12", "8", "--quiet", "--jobs", "1", "--json"]);
    assert!(reference.2, "stderr: {}", reference.1);
    for jobs in ["2", "4", "8"] {
        let (stdout, stderr, ok) = mtt(&["e12", "8", "--quiet", "--jobs", jobs, "--json"]);
        assert!(ok, "stderr: {stderr}");
        assert_eq!(stdout, reference.0, "e12 JSON diverged at --jobs {jobs}");
    }
}

#[test]
fn path_flags_reject_flag_shaped_arguments() {
    // Regression: `--journal` (or `--metrics`) swallowing the next flag
    // used to create a file literally named `--journal` in the cwd.
    let (_, stderr, code) = mtt_code(&["e1", "2", "--quiet", "--journal", "--csv"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(
        stderr.contains("--journal needs a directory"),
        "pointed message expected: {stderr}"
    );
    assert!(
        stderr.contains("--csv"),
        "names the offending flag: {stderr}"
    );

    let (_, stderr, code) = mtt_code(&["e1", "2", "--quiet", "--journal"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("--journal needs a directory"), "{stderr}");

    let (_, stderr, code) = mtt_code(&["e1", "2", "--quiet", "--metrics", "--journal"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("--metrics needs a file path"), "{stderr}");
    assert!(!std::path::Path::new("--journal").exists());

    let (_, stderr, code) = mtt_code(&["e1", "2", "--tools-file", "--quiet"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(
        stderr.contains("--tools-file needs a file path"),
        "{stderr}"
    );
}

#[test]
fn unused_arguments_and_flags_are_usage_errors() {
    // Each input used to be partly ignored: a second target, a global flag
    // the command does not use, a misspelled or unoffered format flag, an
    // extra positional. Now each exits 2 and names what it did not use.
    let dir = std::env::temp_dir().join(format!("mtt-cli-unused-{}", std::process::id()));
    let journal = dir.join("journal");
    let run_log = dir.join("run.ndjson");
    let (journal_s, run_log_s) = (journal.to_string_lossy(), run_log.to_string_lossy());
    let (_, stderr, code) = mtt_code(&[
        "e1-detail",
        "lost_update",
        "2",
        "--quiet",
        "--journal",
        &journal_s,
        "--metrics",
        &run_log_s,
    ]);
    assert_eq!(code, 0, "valid journal and run log first: {stderr}");
    let metrics = dir.join("e11-metrics.ndjson");
    let e8_journal = dir.join("e8-journal");
    let (metrics_s, e8_journal_s) = (metrics.to_string_lossy(), e8_journal.to_string_lossy());
    let cases: &[(&[&str], &str)] = &[
        (
            &["journal-check", &journal_s, "/nonexistent"],
            "/nonexistent",
        ),
        (
            &["metrics-check", &run_log_s, "/nonexistent"],
            "/nonexistent",
        ),
        (&["e12", "4", "--backend", "native"], "--backend"),
        (&["e12", "4", "--tools", "fifo"], "--tools"),
        (&["e11", "4", "--metrics", &metrics_s], "--metrics"),
        (&["e11", "4", "--jsno"], "--jsno"),
        (&["e5", "4", "--csv"], "--csv"),
        (&["e2", "2", "--budget-ms", "1"], "--budget-ms"),
        (&["e8", "--journal", &e8_journal_s], "--journal"),
        (&["profile", "e3", "2", "--csvv"], "--csvv"),
        (&["run", "lost_update", "1", "extra"], "extra"),
        (&["status", &journal_s, "extra"], "extra"),
    ];
    for (args, offender) in cases {
        let cmd = args.join(" ");
        let (_, stderr, code) = mtt_code(args);
        assert_eq!(
            code, 2,
            "`mtt {cmd}` must be a usage error; stderr: {stderr}"
        );
        assert!(
            stderr.contains(offender),
            "`mtt {cmd}` must name `{offender}`: {stderr}"
        );
    }
    // A rejected --metrics or --journal writes nothing.
    assert!(
        !metrics.exists(),
        "rejected --metrics created {}",
        metrics.display()
    );
    assert!(
        !e8_journal.exists(),
        "rejected --journal created {}",
        e8_journal.display()
    );
    std::fs::remove_dir_all(&dir).ok();
}
