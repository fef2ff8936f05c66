//! Differential tests: the parallel execution layer's correctness oracle.
//!
//! Every prepared experiment that gained `--jobs` must produce **byte
//! identical** rendered reports (text and CSV) whatever the worker count,
//! because a run is a function of its seed, not of the thread that happened
//! to execute it. These tests run each experiment serially and with
//! `jobs = 2, 4, 8` and compare the bytes.

use mtt_experiment::campaign::{Campaign, CampaignReport, ToolConfig};
use mtt_experiment::jobpool::JobPool;
use mtt_experiment::{
    coverage_eval, detector_eval, explore_eval, gen_eval, multiout_eval, replay_eval, static_eval,
    tracegen,
};

const JOB_COUNTS: [usize; 3] = [2, 4, 8];

fn small_campaign(runs: u64) -> Campaign {
    Campaign {
        programs: vec![
            mtt_suite::small::lost_update(2, 2),
            mtt_suite::small::ab_ba(),
            mtt_suite::small::unguarded_wait(),
        ],
        tools: vec![
            ToolConfig::baseline(),
            ToolConfig::from_spec_str("sticky:0.9+noise=sleep:0.3:20+name=sleep-0.3").unwrap(),
            ToolConfig::with_spurious(0.05),
        ],
        runs,
        base_seed: 0x5eed,
        max_steps: 20_000,
        ..Campaign::standard(vec![], 0)
    }
}

fn campaign_bytes(report: &CampaignReport) -> (String, String, String) {
    (
        report.table().render(),
        report.table().to_csv(),
        report.per_bug_table("lost_update").render(),
    )
}

#[test]
fn campaign_reports_are_byte_identical_across_job_counts() {
    let campaign = small_campaign(12);
    let serial = campaign_bytes(&campaign.run_on(&JobPool::serial()));
    for jobs in JOB_COUNTS {
        let par = campaign_bytes(&campaign.run_on(&JobPool::new(jobs)));
        assert_eq!(serial.0, par.0, "E1 table text diverged at jobs={jobs}");
        assert_eq!(serial.1, par.1, "E1 table CSV diverged at jobs={jobs}");
        assert_eq!(serial.2, par.2, "per-bug table diverged at jobs={jobs}");
    }
}

/// Render a campaign's run log through the default (deterministic, no
/// wall-clock) NDJSON writer and hand back the bytes.
fn run_log_bytes(records: &[mtt_telemetry::RunLogRecord]) -> String {
    let mut buf = Vec::new();
    let mut w = mtt_telemetry::RunLogWriter::new(&mut buf);
    for r in records {
        w.write_record(r).expect("in-memory write");
    }
    w.flush().expect("in-memory flush");
    drop(w);
    String::from_utf8(buf).expect("NDJSON is UTF-8")
}

#[test]
fn telemetry_enabled_campaign_is_byte_identical_across_job_counts() {
    let campaign = Campaign {
        telemetry: true,
        ..small_campaign(10)
    };
    let serial = campaign.run_full(&JobPool::serial());
    let serial_report = campaign_bytes(&serial.report);
    let serial_log = run_log_bytes(&serial.run_log);
    assert!(!serial.run_log.is_empty(), "telemetry must produce a log");
    for line in serial_log.lines() {
        mtt_telemetry::check_run_log_line(line).expect("log line conforms to schema");
    }
    for jobs in JOB_COUNTS {
        let par = campaign.run_full(&JobPool::new(jobs));
        let par_report = campaign_bytes(&par.report);
        assert_eq!(
            serial_report, par_report,
            "report diverged at jobs={jobs} with telemetry on"
        );
        assert_eq!(
            serial_log,
            run_log_bytes(&par.run_log),
            "NDJSON run log diverged at jobs={jobs}"
        );
        assert_eq!(
            serial.cell_metrics, par.cell_metrics,
            "aggregated cell metrics diverged at jobs={jobs}"
        );
    }
}

#[test]
fn telemetry_does_not_change_the_report() {
    // Attaching the telemetry sink must be observationally invisible to
    // the judged outcomes: the rendered report with telemetry on equals
    // the one with telemetry off, run for run.
    let plain = small_campaign(10);
    let instrumented = Campaign {
        telemetry: true,
        ..small_campaign(10)
    };
    assert_eq!(
        campaign_bytes(&plain.run_on(&JobPool::new(4))),
        campaign_bytes(&instrumented.run_full(&JobPool::new(4)).report),
    );
}

#[test]
fn detector_eval_reports_are_byte_identical() {
    let programs = vec![
        mtt_suite::small::lost_update(2, 2),
        mtt_suite::small::missed_signal(),
    ];
    let serial = detector_eval::run_detector_eval_on(&programs, 4, &JobPool::serial());
    for jobs in JOB_COUNTS {
        let par = detector_eval::run_detector_eval_on(&programs, 4, &JobPool::new(jobs));
        assert_eq!(
            serial.table().render(),
            par.table().render(),
            "E2 table diverged at jobs={jobs}"
        );
        assert_eq!(serial.table().to_csv(), par.table().to_csv());
    }
}

#[test]
fn coverage_eval_reports_are_byte_identical() {
    let p = mtt_suite::small::lost_update(2, 2);
    let serial = coverage_eval::run_coverage_eval_on(&p, 10, 0, &JobPool::serial());
    let serial_table = coverage_eval::coverage_table("lost_update", &serial);
    for jobs in JOB_COUNTS {
        let par = coverage_eval::run_coverage_eval_on(&p, 10, 0, &JobPool::new(jobs));
        let par_table = coverage_eval::coverage_table("lost_update", &par);
        assert_eq!(
            serial_table.render(),
            par_table.render(),
            "E4 table diverged at jobs={jobs}"
        );
        assert_eq!(serial_table.to_csv(), par_table.to_csv());
    }
}

#[test]
fn multiout_eval_reports_are_byte_identical() {
    let serial = multiout_eval::multiout_table(&multiout_eval::run_multiout_eval_on(
        12,
        7,
        None,
        &JobPool::serial(),
    ));
    for jobs in JOB_COUNTS {
        let par = multiout_eval::multiout_table(&multiout_eval::run_multiout_eval_on(
            12,
            7,
            None,
            &JobPool::new(jobs),
        ));
        assert_eq!(
            serial.render(),
            par.render(),
            "E5 table diverged at jobs={jobs}"
        );
        assert_eq!(serial.to_csv(), par.to_csv());
    }
}

#[test]
fn explore_eval_reports_are_byte_identical() {
    let programs = vec![
        mtt_suite::small::lost_update(2, 1),
        mtt_suite::small::ab_ba(),
    ];
    let serial = explore_eval::explore_table(&explore_eval::run_explore_eval_on(
        &programs,
        500,
        &JobPool::serial(),
    ));
    for jobs in JOB_COUNTS {
        let par = explore_eval::explore_table(&explore_eval::run_explore_eval_on(
            &programs,
            500,
            &JobPool::new(jobs),
        ));
        assert_eq!(
            serial.render(),
            par.render(),
            "E6 table diverged at jobs={jobs}"
        );
    }
}

#[test]
fn replay_eval_reports_are_byte_identical() {
    let serial = replay_eval::replay_table(&replay_eval::run_replay_eval_on(
        6,
        &[0, 4],
        &JobPool::serial(),
    ));
    for jobs in JOB_COUNTS {
        let par = replay_eval::replay_table(&replay_eval::run_replay_eval_on(
            6,
            &[0, 4],
            &JobPool::new(jobs),
        ));
        assert_eq!(
            serial.render(),
            par.render(),
            "E3 table diverged at jobs={jobs}"
        );
    }
}

#[test]
fn static_eval_reports_are_byte_identical() {
    // Both tables: E7's reduction table and E7b's per-class scores.
    let serial =
        static_eval::render_report(&static_eval::run_static_eval_on(6, &JobPool::serial()));
    for jobs in JOB_COUNTS {
        let par =
            static_eval::render_report(&static_eval::run_static_eval_on(6, &JobPool::new(jobs)));
        assert_eq!(serial, par, "E7 report diverged at jobs={jobs}");
    }
}

#[test]
fn tracegen_output_is_identical_across_job_counts() {
    let p = mtt_suite::small::lost_update(2, 2);
    let opts = tracegen::TraceGenOptions::default();
    let serial = tracegen::generate_many_on(&p, &opts, 8, &JobPool::serial());
    for jobs in JOB_COUNTS {
        let par = tracegen::generate_many_on(&p, &opts, 8, &JobPool::new(jobs));
        for (i, (a, b)) in serial.iter().zip(&par).enumerate() {
            assert_eq!(
                mtt_trace::json::to_string(a),
                mtt_trace::json::to_string(b),
                "trace {i} diverged at jobs={jobs}"
            );
        }
    }
}

#[test]
fn explain_output_is_byte_identical_across_job_counts() {
    // `mtt explain` scans seeds on the pool and renders pure functions of
    // the chosen seeds, so every rendering — summary, timeline (text and
    // CSV), diff, annotated NDJSON — must be byte-identical at any worker
    // count.
    let p = mtt_suite::small::lost_update(2, 2);
    let opts = mtt_experiment::ExplainOptions {
        scan: 64,
        max_steps: 20_000,
        ..Default::default()
    };
    let serial = mtt_experiment::explain_on(&p, &opts, &JobPool::serial()).unwrap();
    for jobs in JOB_COUNTS {
        let par = mtt_experiment::explain_on(&p, &opts, &JobPool::new(jobs)).unwrap();
        assert_eq!(
            serial.render_summary(),
            par.render_summary(),
            "explain summary diverged at jobs={jobs}"
        );
        assert_eq!(
            serial.render_timeline(),
            par.render_timeline(),
            "explain timeline diverged at jobs={jobs}"
        );
        assert_eq!(serial.timeline_csv(), par.timeline_csv());
        assert_eq!(
            serial.render_diff(),
            par.render_diff(),
            "explain diff diverged at jobs={jobs}"
        );
        assert_eq!(serial.diff_csv(), par.diff_csv());
        assert_eq!(
            serial.annotated_ndjson(),
            par.annotated_ndjson(),
            "annotated NDJSON diverged at jobs={jobs}"
        );
    }
}

#[test]
fn gen_eval_reports_are_byte_identical() {
    // `mtt e10` text + CSV + JSON at jobs 1/2/4/8: every family is a
    // pure function of (seed, index) and every execution is seeded, so
    // the scoreboard must not move by a byte with the worker count.
    let opts = gen_eval::GenEvalOptions {
        seed: 42,
        families: 6,
        runs: 2,
    };
    let serial = gen_eval::run_gen_eval_on(&opts, &JobPool::serial());
    let serial_text = gen_eval::render_report(&serial);
    let serial_csv = gen_eval::render_csv(&serial);
    let serial_json = mtt_json::to_string(&gen_eval::gen_eval_json(&opts, &serial));
    for jobs in JOB_COUNTS {
        let par = gen_eval::run_gen_eval_on(&opts, &JobPool::new(jobs));
        assert_eq!(
            serial_text,
            gen_eval::render_report(&par),
            "E10 text diverged at jobs={jobs}"
        );
        assert_eq!(
            serial_csv,
            gen_eval::render_csv(&par),
            "E10 CSV diverged at jobs={jobs}"
        );
        assert_eq!(
            serial_json,
            mtt_json::to_string(&gen_eval::gen_eval_json(&opts, &par)),
            "E10 JSON diverged at jobs={jobs}"
        );
    }
}

/// The acceptance-criteria scale: ≥200 generated families through the
/// full roster, byte-equal at every job count. Run with
/// `cargo test --release -p mtt-experiment -- --ignored`.
#[test]
#[ignore = "slow: 200-family E10 differential, exercised by the CI variant-families step"]
fn gen_eval_differential_high_volume() {
    let opts = gen_eval::GenEvalOptions {
        seed: 42,
        families: 200,
        runs: 2,
    };
    let serial = gen_eval::run_gen_eval_on(&opts, &JobPool::serial());
    let serial_text = gen_eval::render_report(&serial);
    let serial_csv = gen_eval::render_csv(&serial);
    for jobs in [2, 4, 8, 16] {
        let par = gen_eval::run_gen_eval_on(&opts, &JobPool::new(jobs));
        assert_eq!(
            serial_text,
            gen_eval::render_report(&par),
            "E10 text diverged at jobs={jobs}"
        );
        assert_eq!(
            serial_csv,
            gen_eval::render_csv(&par),
            "E10 CSV diverged at jobs={jobs}"
        );
    }
}

/// The CI "slow" variant: the same differential at statistically
/// meaningful run counts over the full standard roster. Run with
/// `cargo test --release -p mtt-experiment -- --ignored`.
#[test]
#[ignore = "slow: high-volume differential, exercised by the nightly CI step"]
fn campaign_differential_high_volume() {
    let campaign = Campaign {
        programs: vec![
            mtt_suite::small::lost_update(2, 2),
            mtt_suite::small::ab_ba(),
            mtt_suite::small::check_then_act(),
            mtt_suite::small::unguarded_wait(),
        ],
        runs: 100,
        max_steps: 30_000,
        ..Campaign::standard(vec![], 0)
    };
    let serial = campaign_bytes(&campaign.run_on(&JobPool::serial()));
    for jobs in [2, 4, 8, 16] {
        let par = campaign_bytes(&campaign.run_on(&JobPool::new(jobs)));
        assert_eq!(serial.0, par.0, "E1 table text diverged at jobs={jobs}");
        assert_eq!(serial.1, par.1, "E1 CSV diverged at jobs={jobs}");
        assert_eq!(serial.2, par.2, "per-bug table diverged at jobs={jobs}");
    }
}
