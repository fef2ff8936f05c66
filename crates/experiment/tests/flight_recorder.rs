//! The flight recorder at the process boundary: kill a journaled campaign
//! mid-flight (via the `MTT_JOURNAL_KILL_AFTER` hook), resume it, and
//! check the resumed output is byte-identical to an uninterrupted run —
//! text report, CSV, and NDJSON run log, at several worker counts. Plus
//! the observation surfaces (`status`, `watch`, `journal-check`,
//! `--chrome-trace`) and every journal error path.

use std::path::PathBuf;
use std::process::Command;

const TOOLS: &str = "fifo,sticky:0.9";

fn mtt_with(args: &[&str], envs: &[(&str, &str)]) -> (String, String, i32) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mtt"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("mtt binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().expect("not killed by a signal"),
    )
}

fn mtt(args: &[&str]) -> (String, String, i32) {
    mtt_with(args, &[])
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mtt-fr-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `mtt e1 2` with the small two-tool roster, as a Vec so callers can
/// append `--journal`/`--resume`/`--jobs`.
fn e1_args(extra: &[&str]) -> Vec<String> {
    let mut v: Vec<String> = ["e1", "2", "--quiet", "--tools", TOOLS]
        .iter()
        .map(|s| s.to_string())
        .collect();
    v.extend(extra.iter().map(|s| s.to_string()));
    v
}

fn run_e1(extra: &[&str], envs: &[(&str, &str)]) -> (String, String, i32) {
    let args = e1_args(extra);
    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
    mtt_with(&refs, envs)
}

#[test]
fn interrupted_then_resumed_is_byte_identical_at_every_job_count() {
    let dir = tmp("resume");
    let base_log = dir.join("base.ndjson");
    let base_log_s = base_log.to_string_lossy().into_owned();

    // Uninterrupted reference run: CSV + run log.
    let (base_csv, stderr, code) = run_e1(&["--csv", "--metrics", &base_log_s], &[]);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(base_csv.contains(','), "CSV output expected: {base_csv}");
    let base_log_bytes = std::fs::read(&base_log).unwrap();

    for jobs in ["1", "2", "4", "8"] {
        let jdir = dir.join(format!("j{jobs}"));
        let jdir_s = jdir.to_string_lossy().into_owned();
        let res_log = dir.join(format!("res-{jobs}.ndjson"));
        let res_log_s = res_log.to_string_lossy().into_owned();

        // Kill after 3 completed cells: exit 9, journal left mid-flight.
        let (_, stderr, code) = run_e1(
            &[
                "--jobs",
                jobs,
                "--journal",
                &jdir_s,
                "--metrics",
                &res_log_s,
            ],
            &[("MTT_JOURNAL_KILL_AFTER", "3")],
        );
        assert_eq!(code, 9, "kill hook must fire (jobs {jobs}): {stderr}");
        // The run log streams in run order, so whatever a killed run left
        // of it is the start of the full log.
        let partial = std::fs::read(&res_log).unwrap_or_default();
        assert!(
            base_log_bytes.starts_with(&partial),
            "a killed run's partial run log must be a prefix of the full one (jobs {jobs})"
        );
        let journal = jdir.join("e1.ndjson");
        let text = std::fs::read_to_string(&journal).unwrap();
        assert!(
            text.lines()
                .filter(|l| l.contains("\"kind\":\"done\""))
                .count()
                >= 3,
            "killed journal records completed cells:\n{text}"
        );
        assert!(
            !text.contains("\"kind\":\"end\""),
            "killed journal must not claim completion"
        );

        // Resume: skip the journaled cells, finish the rest; output is
        // byte-identical to the uninterrupted reference.
        let (csv, stderr, code) = run_e1(
            &[
                "--jobs",
                jobs,
                "--journal",
                &jdir_s,
                "--resume",
                "--csv",
                "--metrics",
                &res_log_s,
            ],
            &[],
        );
        assert_eq!(code, 0, "resume failed (jobs {jobs}): {stderr}");
        assert_eq!(csv, base_csv, "resumed CSV diverged at --jobs {jobs}");
        assert_eq!(
            std::fs::read(&res_log).unwrap(),
            base_log_bytes,
            "resumed run log diverged at --jobs {jobs}"
        );

        // The resumed journal is strictly valid and reads as complete.
        let (stdout, stderr, code) = mtt(&["journal-check", &jdir_s]);
        assert_eq!(code, 0, "stderr: {stderr}");
        assert!(stdout.contains("conform to journal schema v4"), "{stdout}");
    }

    // The default text report also matches, not just the CSV.
    let (base_text, _, code) = run_e1(&[], &[]);
    assert_eq!(code, 0);
    let jdir = dir.join("text");
    let jdir_s = jdir.to_string_lossy().into_owned();
    let (_, _, code) = run_e1(&["--journal", &jdir_s], &[("MTT_JOURNAL_KILL_AFTER", "5")]);
    assert_eq!(code, 9);
    let (text, stderr, code) = run_e1(&["--journal", &jdir_s, "--resume", "--jobs", "4"], &[]);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert_eq!(text, base_text, "resumed text report diverged");
    assert!(text.contains("ranking"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fully_cached_resume_executes_nothing_and_replays_bytes() {
    let dir = tmp("replay");
    let jdir_s = dir.to_string_lossy().into_owned();
    let (first, stderr, code) = run_e1(&["--journal", &jdir_s, "--csv"], &[]);
    assert_eq!(code, 0, "stderr: {stderr}");
    // Run again resuming from the complete journal: every cell is a cache
    // hit, so even MTT_JOURNAL_KILL_AFTER=1 never fires (no record is
    // countable), and the output replays byte for byte.
    let (second, stderr, code) = run_e1(
        &["--journal", &jdir_s, "--resume", "--csv"],
        &[("MTT_JOURNAL_KILL_AFTER", "1")],
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    assert_eq!(second, first, "full-cache replay diverged");
    // Its `end` record reports zero executed cells.
    let text = std::fs::read_to_string(dir.join("e1.ndjson")).unwrap();
    let last_end = text
        .lines()
        .rfind(|l| l.contains("\"kind\":\"end\""))
        .expect("resumed journal ends cleanly");
    assert!(
        last_end.contains("\"completed\":0"),
        "cache hits must not count as executed: {last_end}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn status_observes_an_interrupted_campaign_from_another_process() {
    let dir = tmp("status");
    let jdir_s = dir.to_string_lossy().into_owned();
    let (_, _, code) = run_e1(&["--journal", &jdir_s], &[("MTT_JOURNAL_KILL_AFTER", "3")]);
    assert_eq!(code, 9);

    // One-shot status from a second process: in-progress, with counts.
    let (stdout, stderr, code) = mtt(&["status", &jdir_s]);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("e1.ndjson"), "{stdout}");
    assert!(stdout.contains("[e1]"), "{stdout}");
    assert!(stdout.contains("cells"), "{stdout}");
    assert!(
        !stdout.contains("complete"),
        "killed run is not complete: {stdout}"
    );
    assert!(stdout.contains("worker"), "utilization lines: {stdout}");

    // `watch` with exhausted polls reports the still-running state.
    let (_, stderr, code) = mtt(&["watch", &jdir_s, "--interval-ms", "1", "--max-polls", "2"]);
    assert_eq!(code, 1, "incomplete campaign must exhaust polls");
    assert!(stderr.contains("still running"), "stderr: {stderr}");

    // After resuming, status flips to complete and watch exits 0.
    let (_, stderr, code) = run_e1(&["--journal", &jdir_s, "--resume"], &[]);
    assert_eq!(code, 0, "stderr: {stderr}");
    let (stdout, _, code) = mtt(&["status", &jdir_s]);
    assert_eq!(code, 0);
    assert!(stdout.contains("complete"), "{stdout}");
    let (stdout, _, code) = mtt(&["watch", &jdir_s, "--interval-ms", "1", "--max-polls", "3"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("all campaigns complete"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_error_paths_exit_2_with_pointed_messages() {
    // --resume without --journal: nothing to resume from.
    let (_, stderr, code) = run_e1(&["--resume"], &[]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("--journal"), "stderr: {stderr}");

    // --journal pointing at a path whose directory cannot be created.
    let blocker = std::env::temp_dir().join(format!("mtt-fr-file-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").unwrap();
    let nested = blocker.join("sub");
    let nested_s = nested.to_string_lossy().into_owned();
    let (_, stderr, code) = run_e1(&["--journal", &nested_s], &[]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("cannot create"), "stderr: {stderr}");
    assert!(!stderr.contains("panic"), "stderr: {stderr}");
    std::fs::remove_file(&blocker).ok();

    // A corrupt (but newline-terminated) record is a hard error with a
    // line number — for --resume and for journal-check alike.
    let dir = tmp("corrupt");
    let jdir_s = dir.to_string_lossy().into_owned();
    let (_, stderr, code) = run_e1(&["--journal", &jdir_s], &[]);
    assert_eq!(code, 0, "stderr: {stderr}");
    let journal = dir.join("e1.ndjson");
    let text = std::fs::read_to_string(&journal).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    lines[1] = r#"{"v":1,"kind":"done","cell":12}"#;
    std::fs::write(&journal, format!("{}\n", lines.join("\n"))).unwrap();
    let (_, stderr, code) = run_e1(&["--journal", &jdir_s, "--resume"], &[]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains(":2:"), "line-numbered message: {stderr}");
    assert!(!stderr.contains("panic"), "stderr: {stderr}");
    let (_, stderr, code) = mtt(&["journal-check", &jdir_s]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains(":2:"), "stderr: {stderr}");

    // journal-check on a missing path and an empty directory.
    let (_, stderr, code) = mtt(&["journal-check", "/nonexistent-mtt-journal"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("no such file"), "stderr: {stderr}");
    let empty = tmp("empty");
    let (_, stderr, code) = mtt(&["status", &empty.to_string_lossy()]);
    assert_eq!(code, 2);
    assert!(stderr.contains("no *.ndjson"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&empty).ok();
}

#[test]
fn half_written_final_record_is_a_crash_artifact_not_corruption() {
    let dir = tmp("tail");
    let jdir_s = dir.to_string_lossy().into_owned();
    let (base_csv, stderr, code) = run_e1(&["--journal", &jdir_s, "--csv"], &[]);
    assert_eq!(code, 0, "stderr: {stderr}");
    let journal = dir.join("e1.ndjson");

    // Simulate a crash mid-write: a final line without its newline.
    let mut text = std::fs::read_to_string(&journal).unwrap();
    text.push_str(r#"{"v":1,"kind":"done","cell":"0123456789abcdef","progr"#);
    std::fs::write(&journal, &text).unwrap();

    // status tolerates it (read-only) and flags the discarded tail.
    let (stdout, stderr, code) = mtt(&["status", &jdir_s]);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("discarded"), "{stdout}");

    // The strict checker refuses it.
    let (_, stderr, code) = mtt(&["journal-check", &jdir_s]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(
        stderr.contains("truncated final record"),
        "stderr: {stderr}"
    );

    // --resume repairs the tail on disk and replays the complete cache.
    let (csv, stderr, code) = run_e1(&["--journal", &jdir_s, "--resume", "--csv"], &[]);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert_eq!(csv, base_csv);
    let repaired = std::fs::read_to_string(&journal).unwrap();
    assert!(repaired.ends_with('\n'), "tail repaired on resume");
    let (_, stderr, code) = mtt(&["journal-check", &jdir_s]);
    assert_eq!(code, 0, "repaired journal passes strict check: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chrome_trace_export_is_structurally_valid() {
    let dir = tmp("chrome");
    let path = dir.join("trace.json");
    let path_s = path.to_string_lossy().into_owned();
    let (stdout, stderr, code) = mtt(&["profile", "e1", "2", "--quiet", "--chrome-trace", &path_s]);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("chrome trace written"), "{stdout}");
    let text = std::fs::read_to_string(&path).unwrap();
    let events = mtt_obs::check_chrome_trace(&text).expect("trace loads");
    assert!(events > 0, "timeline must contain complete events");
    // Phase spans and per-worker cell tracks both present.
    assert!(text.contains("\"phases\""), "{text}");
    assert!(text.contains("worker 0"), "{text}");
    assert!(text.contains('#'), "cells named program/tool#run: {text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_rejects_resume_and_chrome_trace_with_all() {
    let dir = tmp("profile-flags");
    let jdir_s = dir.to_string_lossy().into_owned();
    let (_, stderr, code) = mtt(&[
        "profile",
        "e1",
        "2",
        "--quiet",
        "--journal",
        &jdir_s,
        "--resume",
    ]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("not supported"), "stderr: {stderr}");
    let (_, stderr, code) = mtt(&[
        "profile",
        "all",
        "2",
        "--quiet",
        "--chrome-trace",
        "/tmp/x.json",
    ]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("single profile key"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Count the journal lines of `kind` in `text`.
fn count_kind(text: &str, kind: &str) -> usize {
    let tag = format!("\"kind\":\"{kind}\"");
    text.lines().filter(|l| l.contains(&tag)).count()
}

/// The line of the last `end` record of `journal`.
fn last_end(journal: &std::path::Path) -> String {
    let text = std::fs::read_to_string(journal).unwrap();
    text.lines()
        .rfind(|l| l.contains("\"kind\":\"end\""))
        .expect("journal ends cleanly")
        .to_string()
}

#[test]
fn e5_journals_done_cells_and_resumes() {
    let dir = tmp("pool");
    let jdir_s = dir.to_string_lossy().into_owned();
    let (first, stderr, code) = mtt(&["e5", "4", "--quiet", "--journal", &jdir_s]);
    assert_eq!(code, 0, "stderr: {stderr}");
    let journal = dir.join("e5.ndjson");
    let text = std::fs::read_to_string(&journal).unwrap();
    // One header, one `done` per (config, run) cell, one end marker, and
    // no generic `job` records.
    assert_eq!(count_kind(&text, "campaign"), 1, "{text}");
    assert_eq!(count_kind(&text, "done"), 24, "{text}");
    assert_eq!(count_kind(&text, "end"), 1, "{text}");
    assert_eq!(count_kind(&text, "job"), 0, "{text}");
    assert!(text.contains("\"result\":["), "payloads journaled: {text}");
    let (stdout, stderr, code) = mtt(&["journal-check", &jdir_s]);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("conform"), "{stdout}");
    let (stdout, _, code) = mtt(&["status", &jdir_s]);
    assert_eq!(code, 0);
    assert!(stdout.contains("[e5] 24/24 cells"), "{stdout}");
    assert!(stdout.contains("complete"), "{stdout}");

    // Resuming the finished journal replays every cell from it: the kill
    // hook never fires, the output is the same, and nothing runs.
    let (second, stderr, code) = mtt_with(
        &["e5", "4", "--quiet", "--journal", &jdir_s, "--resume"],
        &[("MTT_JOURNAL_KILL_AFTER", "1")],
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    assert_eq!(second, first, "fully cached e5 diverged");
    assert!(last_end(&journal).contains("\"completed\":0"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn status_counts_every_cell_of_a_pool_experiment() {
    let dir = tmp("cells");
    let jdir_s = dir.to_string_lossy().into_owned();
    let (_, stderr, code) = mtt(&["e2", "3", "--quiet", "--journal", &jdir_s]);
    assert_eq!(code, 0, "stderr: {stderr}");
    // 19 programs × 3 traces, run as one cell space under one header.
    let text = std::fs::read_to_string(dir.join("e2.ndjson")).unwrap();
    assert_eq!(count_kind(&text, "campaign"), 1);
    assert_eq!(count_kind(&text, "end"), 1);
    let (stdout, _, code) = mtt(&["status", &jdir_s]);
    assert_eq!(code, 0);
    assert!(stdout.contains("[e2] 57/57 cells"), "{stdout}");
    assert!(stdout.contains("complete"), "{stdout}");

    // The same run killed after 5 cells does not read as complete.
    let killed = tmp("cells-killed");
    let killed_s = killed.to_string_lossy().into_owned();
    let (_, _, code) = mtt_with(
        &["e2", "3", "--quiet", "--journal", &killed_s],
        &[("MTT_JOURNAL_KILL_AFTER", "5")],
    );
    assert_eq!(code, 9);
    let (stdout, _, code) = mtt(&["status", &killed_s]);
    assert_eq!(code, 0);
    assert!(stdout.contains("[e2] 5/57 cells"), "{stdout}");
    assert!(!stdout.contains("complete"), "{stdout}");

    // cloning 4: 4 clone counts × (plain + sleep noise) × 4 runs.
    let (_, stderr, code) = mtt(&["cloning", "4", "--quiet", "--journal", &jdir_s]);
    assert_eq!(code, 0, "stderr: {stderr}");
    let (stdout, _, _) = mtt(&["status", &dir.join("cloning.ndjson").to_string_lossy()]);
    assert!(stdout.contains("[cloning] 32/32 cells"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&killed).ok();
}

/// Run `args` once uninterrupted, then at jobs 1/2/4/8 kill it after
/// `kill` cells and resume it: every resumed stdout must equal the
/// uninterrupted one. Finally a resume of a finished journal runs nothing.
fn assert_resume_is_byte_identical(args: &[&str], kill: &str) {
    let label = args[0];
    let dir = tmp(&format!("resume-{label}"));
    let run = |extra: &[&str], envs: &[(&str, &str)]| {
        let all: Vec<&str> = args
            .iter()
            .chain(["--quiet"].iter())
            .chain(extra)
            .copied()
            .collect();
        mtt_with(&all, envs)
    };
    let (base, stderr, code) = run(&[], &[]);
    assert_eq!(code, 0, "{args:?}: {stderr}");
    for jobs in ["1", "2", "4", "8"] {
        let jdir_s = dir.join(jobs).to_string_lossy().into_owned();
        let journaled = ["--jobs", jobs, "--journal", jdir_s.as_str()];
        let (_, stderr, code) = run(&journaled, &[("MTT_JOURNAL_KILL_AFTER", kill)]);
        assert_eq!(
            code, 9,
            "{args:?} --jobs {jobs}: kill hook must fire: {stderr}"
        );
        let resumed = [&journaled[..], &["--resume"]].concat();
        let (out, stderr, code) = run(&resumed, &[]);
        assert_eq!(code, 0, "{args:?} --jobs {jobs}: {stderr}");
        assert_eq!(out, base, "{args:?} resumed at --jobs {jobs} diverged");
        // Fully cached now: nothing runs, so the kill hook cannot fire.
        let (out, stderr, code) = run(&resumed, &[("MTT_JOURNAL_KILL_AFTER", "1")]);
        assert_eq!(code, 0, "{args:?} --jobs {jobs}: {stderr}");
        assert_eq!(out, base, "{args:?} replayed at --jobs {jobs} diverged");
        let journal = dir.join(jobs).join(format!("{label}.ndjson"));
        assert!(last_end(&journal).contains("\"completed\":0"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pre_v4_and_metrics_less_e1_journals_resume() {
    let dir = tmp("legacy");
    let log = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (base, stderr, code) = run_e1(&["--csv", "--metrics", &log("base.ndjson")], &[]);
    assert_eq!(code, 0, "stderr: {stderr}");
    let jdir = dir.join("j");
    let jdir_s = jdir.to_string_lossy().into_owned();
    let journal = jdir.join("e1.ndjson");
    let (_, stderr, code) = run_e1(&["--journal", &jdir_s], &[]);
    assert_eq!(code, 0, "stderr: {stderr}");
    let v4 = std::fs::read_to_string(&journal).unwrap();
    // A campaign's records are what v3 builds wrote; v1 builds also wrote
    // no fingerprint.
    let v3 = v4.replace("{\"v\":4,", "{\"v\":3,");
    let v1: String = v4
        .lines()
        .map(|l| {
            let l = l.replacen("{\"v\":4,", "{\"v\":1,", 1);
            match l.find(",\"fingerprint\":\"") {
                Some(at) => format!("{}{}\n", &l[..at], &l[at + 49..]),
                None => format!("{l}\n"),
            }
        })
        .collect();
    for old in [v3, v1] {
        std::fs::write(&journal, &old).unwrap();
        let (out, stderr, code) = run_e1(
            &["--journal", &jdir_s, "--resume", "--csv"],
            &[("MTT_JOURNAL_KILL_AFTER", "1")],
        );
        assert_eq!(code, 0, "stderr: {stderr}");
        assert_eq!(out, base, "an old journal replays byte for byte");
        assert!(last_end(&journal).contains("\"completed\":0"));
    }

    // The journal's cells carry no metrics, so a resume under --metrics
    // runs every one of them again and writes the full run log.
    let (out, stderr, code) = run_e1(
        &[
            "--journal",
            &jdir_s,
            "--resume",
            "--csv",
            "--metrics",
            &log("res.ndjson"),
        ],
        &[],
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    assert_eq!(out, base);
    assert_eq!(
        std::fs::read(log("res.ndjson")).unwrap(),
        std::fs::read(log("base.ndjson")).unwrap()
    );
    assert!(last_end(&journal).contains("\"completed\":76"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn e2_e5_and_cloning_resume_byte_identical_at_every_job_count() {
    assert_resume_is_byte_identical(&["e2", "2"], "7");
    assert_resume_is_byte_identical(&["e5", "4"], "5");
    assert_resume_is_byte_identical(&["cloning", "2"], "9");
}

#[test]
fn e3_e4_e6_e7_and_explain_resume_byte_identical_at_every_job_count() {
    assert_resume_is_byte_identical(&["e3", "2"], "3");
    assert_resume_is_byte_identical(&["e4", "lost_update", "4"], "2");
    assert_resume_is_byte_identical(&["e6", "50"], "4");
    assert_resume_is_byte_identical(&["e7", "2"], "4");
    assert_resume_is_byte_identical(&["explain", "lost_update", "--diff", "--scan", "30"], "3");
}

#[test]
fn json_reports_and_e13_model_legs_resume_byte_identical() {
    assert_resume_is_byte_identical(&["e10", "--families", "2", "--runs", "1", "--json"], "1");
    assert_resume_is_byte_identical(&["e11", "2", "--json"], "4");
    assert_resume_is_byte_identical(&["e12", "3", "--json"], "5");
    // Native legs are real concurrency; a resumed run restores them from
    // the journal, so the model legs are what compares byte for byte.
    assert_resume_is_byte_identical(&["e13", "2", "--model-csv"], "4");
}

#[test]
fn journaling_does_not_change_campaign_output() {
    // Attaching a journal must be observationally free: same stdout.
    let dir = tmp("free");
    let jdir_s = dir.to_string_lossy().into_owned();
    let (plain, _, code) = run_e1(&[], &[]);
    assert_eq!(code, 0);
    let (journaled, stderr, code) = run_e1(&["--journal", &jdir_s], &[]);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert_eq!(plain, journaled, "--journal changed e1 stdout");
    std::fs::remove_dir_all(&dir).ok();
}
