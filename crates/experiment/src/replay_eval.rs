//! E3: replay evaluation — "partial replay algorithms can be compared on
//! the likelihood of performing replay and on their performance. The latter
//! is significant in the record phase overhead" (§2.2).
//!
//! Protocol: record a buggy execution; play it back (a) full log, strict;
//! (b) full log, resync; (c) partial (seed only) — first against the same
//! program, then against progressively *drifted* programs (extra startup
//! operations injected, standing in for recompilation/environment change).
//! Success = the replay reproduces the original outcome fingerprint.

use crate::jobpool::{cell_key, JobPool};
use crate::report::Table;
use crate::stats::FindStats;
use mtt_replay::{record, DivergencePolicy, PlaybackNoise, PlaybackScheduler, ReplayLog};
use mtt_runtime::{Execution, Program, ProgramBuilder, RandomScheduler, ThreadId};

/// Build the E3 workload: a racy program with a configurable amount of
/// *drift* — extra thread-local startup operations that shift every
/// scheduling point after them.
pub fn drifted_program(drift_ops: u32) -> Program {
    let mut b = ProgramBuilder::new("replay_workload");
    let x = b.var("x", 0);
    let l = b.lock("l");
    b.entry(move |ctx| {
        let kids: Vec<ThreadId> = (0..3)
            .map(|i| {
                ctx.spawn(format!("t{i}"), move |ctx| {
                    // The drift: extra startup operations not present at
                    // record time (think: a logging statement was added).
                    for _ in 0..drift_ops {
                        ctx.yield_now();
                    }
                    for _ in 0..3 {
                        let v = ctx.read(x);
                        if v % 2 == 0 {
                            ctx.lock(l);
                            ctx.write(x, v + 1);
                            ctx.unlock(l);
                        } else {
                            ctx.write(x, v + 1);
                        }
                    }
                })
            })
            .collect();
        for k in kids {
            ctx.join(k);
        }
    });
    b.build()
}

/// One row of the E3 grid.
#[derive(Clone, Debug)]
pub struct ReplayRow {
    /// Replay mode label.
    pub mode: &'static str,
    /// Drift level (extra ops at playback time).
    pub drift: u32,
    /// Replay success statistics.
    pub success: FindStats,
    /// Mean record-phase log size in bytes (0 where not applicable).
    pub log_bytes: u64,
}

/// One sharded (drift, attempt) record/playback experiment.
struct AttemptResult {
    strict: bool,
    resync: bool,
    partial: bool,
    log_bytes: u64,
}

mtt_json::json_struct!(AttemptResult {
    strict,
    resync,
    partial,
    log_bytes
});

/// Run E3 over `attempts` recorded executions per cell, as one cell space
/// of (drift × attempt) on a job pool. Each attempt records with its own
/// seed and plays back deterministically, so the aggregated rows are
/// identical for any worker count.
pub fn run_replay_eval_on(attempts: u64, drifts: &[u32], pool: &JobPool) -> Vec<ReplayRow> {
    let original = drifted_program(0);
    let targets: Vec<Program> = drifts.iter().map(|&d| drifted_program(d)).collect();
    let n_attempts = attempts as usize;
    let seed = |i: usize| 100 + (i % n_attempts) as u64;
    let key = |i: usize| {
        let drift = format!("drift={}", drifts[i / n_attempts]);
        cell_key(original.name(), &drift, drift.clone(), seed(i))
    };

    let results = pool.cells(drifts.len() * n_attempts, key, |i| {
        let target = &targets[i / n_attempts];
        let seed = seed(i);
        // Record on the original program.
        let (sched, noise, handle) = record(
            original.name(),
            seed,
            RandomScheduler::new(seed),
            mtt_runtime::NoNoise,
        );
        let recorded = Execution::new(&original)
            .scheduler(Box::new(sched))
            .noise(Box::new(noise))
            .run();
        let log = handle.take_log();
        // (c) partial: rerun with the recorded seed.
        let partial_outcome = Execution::new(target)
            .scheduler(Box::new(RandomScheduler::new(seed)))
            .run();
        AttemptResult {
            strict: playback_matches(
                target,
                &log,
                DivergencePolicy::Strict,
                recorded.fingerprint(),
            ),
            resync: playback_matches(
                target,
                &log,
                DivergencePolicy::Resync { window: 64 },
                recorded.fingerprint(),
            ),
            partial: partial_outcome.fingerprint() == recorded.fingerprint(),
            log_bytes: log.storage_bytes() as u64,
        }
    });

    let mut rows = Vec::new();
    let mut results = results.into_iter();
    for &drift in drifts {
        let mut strict = FindStats::default();
        let mut resync = FindStats::default();
        let mut partial = FindStats::default();
        let mut log_bytes = 0u64;
        for _ in 0..attempts {
            let r = results.next().expect("one result per attempt");
            strict.record(r.strict);
            resync.record(r.resync);
            partial.record(r.partial);
            log_bytes += r.log_bytes;
        }
        let n = attempts.max(1);
        rows.push(ReplayRow {
            mode: "full-strict",
            drift,
            success: strict,
            log_bytes: log_bytes / n,
        });
        rows.push(ReplayRow {
            mode: "full-resync",
            drift,
            success: resync,
            log_bytes: log_bytes / n,
        });
        rows.push(ReplayRow {
            mode: "partial-seed",
            drift,
            success: partial,
            log_bytes: ReplayLog::partial("replay_workload", 0).storage_bytes() as u64,
        });
    }
    rows
}

fn playback_matches(
    target: &Program,
    log: &ReplayLog,
    policy: DivergencePolicy,
    want: u64,
) -> bool {
    let playback = PlaybackScheduler::new(log.clone(), policy);
    let outcome = Execution::new(target)
        .scheduler(Box::new(playback))
        .noise(Box::new(PlaybackNoise::new(log)))
        .max_steps(100_000)
        .run();
    outcome.fingerprint() == want
}

/// Render Table E3.
pub fn replay_table(rows: &[ReplayRow]) -> Table {
    let mut t = Table::new(
        "E3: replay success probability vs program drift",
        &["mode", "drift ops", "P(replay)", "avg log bytes"],
    );
    for r in rows {
        t.row(&[
            r.mode.to_string(),
            r.drift.to_string(),
            r.success.render(),
            r.log_bytes.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_eval_shape_claims() {
        let rows = run_replay_eval_on(12, &[0, 4], &JobPool::serial());
        assert_eq!(rows.len(), 6);
        let get = |mode: &str, drift: u32| {
            rows.iter()
                .find(|r| r.mode == mode && r.drift == drift)
                .unwrap()
        };
        // No drift: full replay is perfect; partial replay is perfect
        // (deterministic runtime).
        assert_eq!(get("full-strict", 0).success.rate(), 1.0);
        assert_eq!(get("partial-seed", 0).success.rate(), 1.0);
        // Partial logs are much smaller than full logs: the record-overhead
        // half of the paper's comparison.
        assert!(
            get("partial-seed", 0).log_bytes * 5 < get("full-strict", 0).log_bytes,
            "partial {}B vs full {}B",
            get("partial-seed", 0).log_bytes,
            get("full-strict", 0).log_bytes
        );
        // Under drift, partial replay (seed-only) degrades: the recorded
        // seed no longer reproduces the interleaving.
        let ps = get("partial-seed", 4).success.rate();
        assert!(
            ps < 1.0,
            "partial replay should degrade under drift (rate {ps})"
        );
        assert!(!replay_table(&rows).is_empty());
    }
}
