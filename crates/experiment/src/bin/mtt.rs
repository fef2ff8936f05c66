//! `mtt` — the push-button prepared experiments.
//!
//! "All the machinery will be in place so that with the push of a button,
//! it can be evaluated and compared to alternative approaches" (§4).
//!
//! ```text
//! mtt list                      list benchmark programs and their bugs
//! mtt lint <sample|file> [--json] [--deny IDS] [--allow IDS]
//!                               static diagnostics for a MiniProg program;
//!                               --deny exits 3 when a denied lint fires,
//!                               --allow suppresses listed codes (`all` ok)
//! mtt run <program> [seed]      run one program once and print the outcome
//! mtt trace <program> <n> <dir> generate n annotated traces into dir
//! mtt explain <program> [--seed-fail N] [--seed-pass N] [--timeline]
//!             [--diff] [--annotate FILE] [--scan N] [--csv] [--tool SPEC]
//!                               causal post-mortem: happens-before timeline
//!                               of a failing run + schedule diff against a
//!                               passing run (divergence window)
//! mtt e1 [runs]                 noise-heuristic comparison
//! mtt e1-detail <program> [runs] per-bug find probability for one program
//! mtt cloning [runs]            §2.3 cloning/load-test driver
//! mtt e2 [traces]               race detectors on annotated traces
//! mtt e3 [attempts]             replay success vs drift
//! mtt e4 <program> [runs]       coverage growth + run-count advice
//! mtt e5 [runs]                 multiout outcome distributions
//! mtt e6 [budget]               exploration vs random testing
//! mtt e7 [runs]                 static advice: reduction + preservation
//! mtt e8 [seed]                 online/offline trade-off
//! mtt e10 [--seed S] [--families N] [--runs R] [--csv|--json]
//!                               precision/recall + robust detection over
//!                               generated variant families with planted
//!                               ground truth (full TP/FP/FN/TN matrix)
//! mtt gen <list|describe <family>|dump <family|member>> [--seed S] [--families N]
//!                               inspect the generated population: list
//!                               family ids, describe a family's members
//!                               and mutations, dump MiniProg source
//! mtt e11 [runs] [--csv|--json] static vs dynamic scoreboard: per-class
//!                               precision/recall of L001–L007 + R/D/A001
//!                               against the dynamic detector roster
//! mtt e12 [runs] [--csv|--json] schedule-space saturation scoreboard:
//!                               distinct Mazurkiewicz-trace classes,
//!                               rarefaction curve AUC, and Good–Turing
//!                               unseen-mass estimate per tool
//! mtt profile <e1..e8|all> [runs] [--csv] [--timing] [--annotate DIR]
//!             [--chrome-trace FILE]
//!                               contention / hot-site / overhead profile;
//!                               --chrome-trace writes a chrome://tracing
//!                               timeline of phases, workers and cells
//! mtt status <dir|file>         one-shot progress/ETA/utilization view of
//!                               campaign journals (second-process safe)
//! mtt watch <dir|file> [--interval-ms N] [--max-polls N]
//!                               poll journals until every campaign completes
//! mtt tools [list|specs|describe <spec>|validate <spec...|--file F>] [--json]
//!                               the component registry: list components,
//!                               print the standard roster, describe or
//!                               validate tool specs
//! mtt metrics-check <file>      validate an NDJSON run log against the schema
//! mtt trace-check <file>        validate an annotated trace against the schema
//! mtt journal-check <dir|file>  strictly validate campaign journals
//!                               against schema v2 (v1 accepted; exit 2 on corruption)
//! mtt all                       every experiment with small defaults
//! mtt help                      this listing
//! ```
//!
//! Global flags (any experiment subcommand):
//!
//! ```text
//! --jobs N | -j N    shard the run matrix across N workers
//!                    (default: available parallelism; reports are
//!                    byte-identical for every N — seeds, not threads,
//!                    define an execution)
//! --budget-ms N      per-run wall-clock budget; over-budget runs are
//!                    counted in the report's `timeouts` column
//! --quiet | -q       suppress the stderr runs/sec + ETA progress line and
//!                    the end-of-campaign summary
//! --metrics FILE     write an NDJSON run log (one JSON object per run, in
//!                    canonical order — byte-deterministic at any --jobs)
//!                    for campaign-backed commands (e1, e1-detail, profile)
//! --tools SPECS      replace the tool roster with a comma-separated list
//!                    of tool specs (see `mtt tools`) — honored by e1,
//!                    e1-detail, profile, e5, and cloning
//! --tools-file FILE  like --tools, reading one spec per line (blank lines
//!                    and `#` comments ignored)
//! --journal DIR      append a durable NDJSON flight-recorder journal to
//!                    DIR/<label>.ndjson while the command runs (observable
//!                    live from another process via `mtt status`)
//! --resume           with --journal: look completed cells up in the
//!                    existing journal by content address and skip them —
//!                    the resumed output is byte-identical to an
//!                    uninterrupted run (e1, e1-detail)
//! ```

use mtt_experiment::{
    campaign::Campaign, cli_spec, cloning::run_cloning_on, coverage_eval, detector_eval,
    differential_eval, explain, explore_eval, gen_eval, jobpool::JobPool, multiout_eval, profile,
    replay_eval, saturation_eval, scoreboard, static_eval, tracegen,
};
use mtt_obs::{JournalSink, ResumeCache, StatusSummary};
use mtt_runtime::{Execution, RandomScheduler, RuntimeBackend};
use mtt_telemetry::{check_run_log_line, RunLogRecord, RunLogWriter};
use mtt_tools::{ToolConfig, ToolSpec};
use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Global options shared by every experiment subcommand.
struct Global {
    jobs: usize,
    budget: Option<Duration>,
    quiet: bool,
    metrics: Option<String>,
    tools: Option<Vec<ToolSpec>>,
    journal: Option<String>,
    resume: bool,
    backend: Option<RuntimeBackend>,
}

impl Global {
    /// A pool for the experiment `label`, honoring `--jobs`/`--quiet`.
    fn pool(&self, label: &str) -> JobPool {
        let pool = JobPool::new(self.jobs);
        if self.quiet {
            pool
        } else {
            pool.with_progress(label)
        }
    }

    /// The `--tools`/`--tools-file` roster resolved to runnable configs,
    /// or `None` when neither flag was given.
    fn resolved_tools(&self) -> Result<Option<Vec<ToolConfig>>, String> {
        match &self.tools {
            None => Ok(None),
            Some(specs) => specs
                .iter()
                .map(|s| s.resolve())
                .collect::<Result<Vec<_>, _>>()
                .map(|mut tools| {
                    self.apply_backend(&mut tools);
                    Some(tools)
                }),
        }
    }

    /// Force every tool onto the `--backend` engine, if the flag was
    /// given. Both the runnable config and its provenance spec are
    /// rewritten, so canonical spec strings, journal content addresses,
    /// and run-log records all name the engine that actually ran.
    fn apply_backend(&self, tools: &mut [ToolConfig]) {
        if let Some(b) = self.backend {
            for cfg in tools {
                cfg.backend = b;
                cfg.spec.backend = b;
            }
        }
    }

    /// Open `--journal DIR/<label>.ndjson` if journaling was requested.
    /// With `--resume` the existing journal is tail-repaired, parsed
    /// (corruption is exit 2) and turned into a [`ResumeCache`]; the sink
    /// then appends. Without `--resume` the file is truncated.
    fn open_journal(
        &self,
        label: &str,
    ) -> Result<(Option<Arc<JournalSink>>, Option<ResumeCache>), String> {
        let Some(dir) = &self.journal else {
            if self.resume {
                return Err(
                    "--resume needs --journal DIR (there is no journal to resume from)".to_string(),
                );
            }
            return Ok((None, None));
        };
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("--journal: cannot create directory {dir}: {e}"))?;
        let path = Path::new(dir).join(format!("{label}.ndjson"));
        let mut cache = None;
        if self.resume && path.exists() {
            // A crash can only ever truncate the final line; cut that
            // fragment off so appended records start on a line boundary.
            mtt_obs::truncate_partial_tail(&path)
                .map_err(|e| format!("--resume: cannot repair {}: {e}", path.display()))?;
            let parsed = mtt_obs::load_journal(&path)?;
            cache = Some(ResumeCache::from_records(&parsed.records));
        }
        let sink = JournalSink::to_file(&path, self.resume)
            .map_err(|e| format!("--journal: cannot open {}: {e}", path.display()))?;
        Ok((Some(Arc::new(sink)), cache))
    }

    /// A journaled pool for non-campaign commands: generic `job` records
    /// only, so `--resume` (a content-address cache over campaign cells)
    /// is rejected with a pointed message.
    fn journaled_pool(&self, label: &str) -> Result<(JobPool, JournalGuard), String> {
        if self.resume {
            return Err(format!(
                "--resume is not supported by `{label}` — only campaign-shaped \
                 commands (e1, e1-detail) can skip completed cells"
            ));
        }
        let (sink, _) = self.open_journal(label)?;
        let mut pool = self.pool(label);
        if let Some(s) = &sink {
            pool = pool.with_journal(Arc::clone(s), label);
        }
        Ok((pool, JournalGuard(sink)))
    }
}

/// Post-run check that every journal record actually reached disk; a
/// latched write error (disk full, deleted directory) becomes exit 2
/// instead of a silently incomplete journal.
struct JournalGuard(Option<Arc<JournalSink>>);

impl JournalGuard {
    fn finish(self) -> Result<(), String> {
        match self.0.as_ref().and_then(|s| s.error()) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// The argument of a path-taking flag. Rejecting flag-shaped values here
/// is what keeps a typo like `mtt e1 --metrics --journal DIR` from
/// silently writing a run log to a file literally named `--journal`.
fn path_value(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
    what: &str,
) -> Result<String, String> {
    match it.next() {
        Some(v) if !v.starts_with('-') => Ok(v.clone()),
        Some(v) => Err(format!(
            "{flag} needs {what}, but the next argument is `{v}` — a flag, not a path"
        )),
        None => Err(format!("{flag} needs {what}")),
    }
}

/// Split `--jobs/-j/--budget-ms/--quiet/-q` out of the raw argument list;
/// everything else stays positional (subcommand flags like `--json` pass
/// through). Returns an error message for malformed global flags.
fn parse_global(raw: &[String]) -> Result<(Global, Vec<String>), String> {
    let mut g = Global {
        jobs: 0, // 0 = available parallelism
        budget: None,
        quiet: false,
        metrics: None,
        tools: None,
        journal: None,
        resume: false,
        backend: None,
    };
    let mut rest = Vec::new();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" | "-j" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                g.jobs = v
                    .parse()
                    .map_err(|_| format!("--jobs: `{v}` is not a number"))?;
            }
            "--budget-ms" => {
                let v = it.next().ok_or("--budget-ms needs a value")?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("--budget-ms: `{v}` is not a number"))?;
                g.budget = Some(Duration::from_millis(ms));
            }
            "--quiet" | "-q" => g.quiet = true,
            "--metrics" => {
                g.metrics = Some(path_value(&mut it, "--metrics", "a file path")?);
            }
            "--tools" => {
                let v = it
                    .next()
                    .ok_or("--tools needs a comma-separated spec list")?;
                let specs = ToolSpec::parse_list(v)
                    .map_err(|e| format!("--tools: invalid spec\n{}", e.render()))?;
                if specs.is_empty() {
                    return Err("--tools: empty spec list".into());
                }
                g.tools = Some(specs);
            }
            "--journal" => {
                g.journal = Some(path_value(&mut it, "--journal", "a directory")?);
            }
            "--resume" => g.resume = true,
            "--backend" => {
                let v = it
                    .next()
                    .ok_or("--backend needs a value (model or native)")?;
                g.backend = Some(RuntimeBackend::parse(v).ok_or_else(|| {
                    format!("--backend: unknown backend `{v}` (known: model, native)")
                })?);
            }
            "--tools-file" => {
                let path = it.next().ok_or("--tools-file needs a file path")?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("--tools-file: read {path}: {e}"))?;
                let specs = ToolSpec::parse_file(&text)
                    .map_err(|e| format!("--tools-file {path}: invalid spec\n{}", e.render()))?;
                if specs.is_empty() {
                    return Err(format!("--tools-file: no specs in {path}"));
                }
                g.tools = Some(specs);
            }
            other => rest.push(other.to_string()),
        }
    }
    Ok((g, rest))
}

fn main() -> ExitCode {
    let raw: Vec<String> = env::args().skip(1).collect();
    let (global, args) = match parse_global(&raw) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("mtt: {msg}");
            return ExitCode::from(2);
        }
    };
    let cmd = args.first().map(String::as_str).unwrap_or("");
    let run = || -> Result<ExitCode, String> {
        match cmd {
            "list" => Ok(list()),
            "lint" => Ok(lint(&args[1..])),
            "run" => run_one(&args[1..]),
            "trace" => trace(&args[1..]),
            "explain" => explain_cmd(&args[1..], &global),
            "e1" => e1(&args[1..], &global),
            "e1-detail" => e1_detail(
                args.get(1).map(String::as_str),
                arg_u64(&args, 2, 60)?,
                &global,
            ),
            "cloning" => cloning(arg_u64(&args, 1, 60)?, &global),
            "e2" => e2(arg_u64(&args, 1, 10)?, &global),
            "e3" => e3(arg_u64(&args, 1, 20)?, &global),
            "e4" => e4(
                args.get(1).map(String::as_str),
                arg_u64(&args, 2, 20)?,
                &global,
            ),
            "e5" => e5(arg_u64(&args, 1, 120)?, &global),
            "e6" => e6(arg_u64(&args, 1, 3000)?, &global),
            "e7" => e7(arg_u64(&args, 1, 40)?, &global),
            "e8" => Ok(e8(arg_u64(&args, 1, 7)?)),
            "e10" => e10(&args[1..], &global),
            "gen" => gen_cmd(&args[1..]),
            "e11" => e11(&args[1..], &global),
            "e12" => e12(&args[1..], &global),
            "e13" => e13(&args[1..], &global),
            "profile" => profile_cmd(&args[1..], &global),
            "status" => status_cmd(&args[1..]),
            "watch" => watch_cmd(&args[1..]),
            "tools" => tools_cmd(&args[1..]),
            "metrics-check" => Ok(metrics_check(&args[1..])),
            "trace-check" => Ok(trace_check(&args[1..])),
            "journal-check" => journal_check(&args[1..]),
            "all" => {
                e1(&["40".into()], &global)?;
                e2(8, &global)?;
                e3(15, &global)?;
                e4(None, 15, &global)?;
                e5(80, &global)?;
                e6(2000, &global)?;
                e7(30, &global)?;
                e8(7);
                e10(
                    &["--families".into(), "8".into(), "--runs".into(), "2".into()],
                    &global,
                )?;
                e11(&["12".into()], &global)?;
                e12(&["12".into()], &global)?;
                e13(&["6".into()], &global)?;
                Ok(ExitCode::SUCCESS)
            }
            "help" | "--help" | "-h" => {
                println!("{}", cli_spec::usage());
                Ok(ExitCode::SUCCESS)
            }
            "" => {
                eprintln!("{}", cli_spec::usage());
                Ok(ExitCode::from(2))
            }
            unknown => {
                eprintln!("mtt: unknown subcommand `{unknown}`\n{}", cli_spec::usage());
                Ok(ExitCode::from(2))
            }
        }
    };
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("mtt: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Parse the positional argument at `idx` as a number; the default applies
/// only when the argument is absent — a malformed value is an error, not a
/// silent fallback.
fn arg_u64(args: &[String], idx: usize, default: u64) -> Result<u64, String> {
    match args.get(idx) {
        None => Ok(default),
        Some(s) => s
            .parse()
            .map_err(|_| format!("argument `{s}` is not a number")),
    }
}

fn list() -> ExitCode {
    println!(
        "benchmark repository ({} programs):\n",
        mtt_suite::all().len()
    );
    for p in mtt_suite::all() {
        println!("  {:<22} [{:?}]", p.name, p.size);
        for b in &p.bugs {
            println!("      {:<24} {:?}: {}", b.tag, b.class, b.description);
        }
    }
    ExitCode::SUCCESS
}

/// Parse a `--deny`/`--allow` value: `all` or a comma-separated code list.
/// `None` means "every code" (the `all` sentinel).
fn parse_code_list(value: &str) -> Option<Vec<String>> {
    if value == "all" {
        None
    } else {
        Some(
            value
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| s.to_string())
                .collect(),
        )
    }
}

/// Does `codes` (None = all) cover diagnostic code `code`?
fn code_matches(codes: &Option<Vec<String>>, code: &str) -> bool {
    match codes {
        None => true,
        Some(list) => list.iter().any(|c| c == code),
    }
}

fn lint(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut target = None;
    let mut deny: Option<Option<Vec<String>>> = None;
    let mut allow: Option<Option<Vec<String>>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--deny" => {
                let Some(v) = it.next() else {
                    eprintln!("--deny needs a code list (or `all`)");
                    return ExitCode::from(2);
                };
                deny = Some(parse_code_list(v));
            }
            "--allow" => {
                let Some(v) = it.next() else {
                    eprintln!("--allow needs a code list (or `all`)");
                    return ExitCode::from(2);
                };
                allow = Some(parse_code_list(v));
            }
            other if target.is_none() => target = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let Some(target) = target else {
        eprintln!("usage: mtt lint <sample-name|file.mp> [--json] [--deny IDS] [--allow IDS]");
        eprintln!("samples:");
        for s in mtt_static::samples::catalog() {
            eprintln!("  {}", s.name);
        }
        return ExitCode::from(2);
    };

    // A known sample name wins; anything else is read as a source file.
    let (label, src) = match mtt_static::samples::by_name(&target) {
        Some(s) => (format!("<sample {}>", s.name), s.src.to_string()),
        None => match std::fs::read_to_string(&target) {
            Ok(text) => (target.clone(), text),
            Err(e) => {
                eprintln!("`{target}` is neither a sample name nor a readable file: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let ast = match mtt_static::parse(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{label}: parse error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = mtt_static::analyze(&ast);
    // `--allow` suppresses matching diagnostics entirely; `--deny` marks
    // the remaining matches as gate failures (exit 3, for CI).
    let diagnostics: Vec<_> = result
        .diagnostics
        .iter()
        .filter(|d| match &allow {
            Some(codes) => !code_matches(codes, &d.code),
            None => true,
        })
        .cloned()
        .collect();
    let denied = diagnostics
        .iter()
        .filter(|d| match &deny {
            Some(codes) => code_matches(codes, &d.code),
            None => false,
        })
        .count();
    if json {
        println!("{}", mtt_json::to_string(&diagnostics));
    } else if diagnostics.is_empty() {
        println!("{label}: no findings");
    } else {
        for d in &diagnostics {
            println!("{}", d.render());
        }
        println!(
            "{label}: {} finding(s) across {} pass(es)",
            diagnostics.len(),
            diagnostics
                .iter()
                .map(|d| d.code.clone())
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        );
    }
    if denied > 0 {
        eprintln!("{label}: {denied} denied finding(s)");
        ExitCode::from(3)
    } else if diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let Some(name) = args.first() else {
        eprintln!("usage: mtt run <program> [seed]");
        return Ok(ExitCode::from(2));
    };
    let Some(p) = mtt_suite::by_name(name) else {
        eprintln!("unknown program `{name}` — try `mtt list`");
        return Ok(ExitCode::from(2));
    };
    let seed = arg_u64(args, 1, 0)?;
    let o = Execution::new(&p.program)
        .scheduler(Box::new(RandomScheduler::new(seed)))
        .max_steps(100_000)
        .run();
    println!("{}", o.summary());
    let v = p.judge(&o);
    if v.failed() {
        println!("manifested bugs: {:?}", v.manifested);
    } else {
        println!("no documented bug manifested in this run");
    }
    Ok(ExitCode::SUCCESS)
}

fn trace(args: &[String]) -> Result<ExitCode, String> {
    let (Some(name), Some(_), Some(dir)) = (args.first(), args.get(1), args.get(2)) else {
        eprintln!("usage: mtt trace <program> <count> <dir>");
        return Ok(ExitCode::from(2));
    };
    let Some(p) = mtt_suite::by_name(name) else {
        eprintln!("unknown program `{name}`");
        return Ok(ExitCode::from(2));
    };
    let count = arg_u64(args, 1, 1)?;
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {dir}: {e}");
        return Ok(ExitCode::FAILURE);
    }
    let traces = tracegen::generate_many(&p, &tracegen::TraceGenOptions::default(), count);
    for (i, t) in traces.iter().enumerate() {
        let path = format!("{dir}/{name}-{i}.jsonl");
        if let Err(e) = mtt_trace::json::save(t, &path) {
            eprintln!("write {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
        println!(
            "{path}: {} records, manifested: {:?}",
            t.len(),
            t.meta.manifested_bugs
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Write `records` as NDJSON to `path` (used by every campaign-backed
/// command honoring `--metrics`).
fn write_run_log(path: &str, records: &[RunLogRecord]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    let mut w = RunLogWriter::new(file);
    for rec in records {
        w.write_record(rec)
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    w.flush().map_err(|e| format!("flush {path}: {e}"))?;
    Ok(())
}

fn e1(args: &[String], g: &Global) -> Result<ExitCode, String> {
    let mut csv = false;
    let mut positional = Vec::new();
    for a in args {
        match a.as_str() {
            "--csv" => csv = true,
            other => positional.push(other.to_string()),
        }
    }
    let runs = arg_u64(&positional, 0, 60)?;
    let mut campaign = Campaign::standard(mtt_suite::quick_set(), runs);
    if let Some(tools) = g.resolved_tools()? {
        campaign.tools = tools;
    }
    g.apply_backend(&mut campaign.tools);
    campaign.run_budget = g.budget;
    campaign.jobs = g.jobs;
    campaign.label = "e1".into();
    campaign.telemetry = g.metrics.is_some();
    let (sink, cache) = g.open_journal("e1")?;
    campaign.journal = sink.clone();
    campaign.resume = cache;
    let run = campaign.run_full(&g.pool("e1"));
    JournalGuard(sink).finish()?;
    if let Some(path) = &g.metrics {
        write_run_log(path, &run.run_log)?;
    }
    if csv {
        print!("{}", run.report.table().to_csv());
    } else {
        println!("{}", run.report.table().render());
        println!("ranking (mean find-rate across programs):");
        for (tool, rate) in run.report.ranking() {
            println!("  {tool:<14} {rate:.3}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn e1_detail(program: Option<&str>, runs: u64, g: &Global) -> Result<ExitCode, String> {
    let name = program.unwrap_or("web_sessions");
    let Some(p) = mtt_suite::by_name(name) else {
        eprintln!("unknown program `{name}`");
        return Ok(ExitCode::from(2));
    };
    let mut campaign = Campaign::standard(vec![p], runs);
    if let Some(tools) = g.resolved_tools()? {
        campaign.tools = tools;
    }
    g.apply_backend(&mut campaign.tools);
    campaign.run_budget = g.budget;
    campaign.jobs = g.jobs;
    campaign.label = "e1-detail".into();
    campaign.telemetry = g.metrics.is_some();
    let (sink, cache) = g.open_journal("e1-detail")?;
    campaign.journal = sink.clone();
    campaign.resume = cache;
    let run = campaign.run_full(&g.pool("e1-detail"));
    JournalGuard(sink).finish()?;
    if let Some(path) = &g.metrics {
        write_run_log(path, &run.run_log)?;
    }
    println!("{}", run.report.per_bug_table(name).render());
    Ok(ExitCode::SUCCESS)
}

fn explain_cmd(args: &[String], g: &Global) -> Result<ExitCode, String> {
    let mut opts = explain::ExplainOptions::default();
    let mut timeline = false;
    let mut diff = false;
    let mut csv = false;
    let mut annotate: Option<String> = None;
    let mut name: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed-fail" => {
                let v = it.next().ok_or("--seed-fail needs a value")?;
                opts.seed_fail = Some(
                    v.parse()
                        .map_err(|_| format!("--seed-fail: `{v}` is not a number"))?,
                );
            }
            "--seed-pass" => {
                let v = it.next().ok_or("--seed-pass needs a value")?;
                opts.seed_pass = Some(
                    v.parse()
                        .map_err(|_| format!("--seed-pass: `{v}` is not a number"))?,
                );
            }
            "--scan" => {
                let v = it.next().ok_or("--scan needs a value")?;
                opts.scan = v
                    .parse()
                    .map_err(|_| format!("--scan: `{v}` is not a number"))?;
            }
            "--annotate" => {
                let v = it.next().ok_or("--annotate needs a file path")?;
                annotate = Some(v.clone());
            }
            "--tool" => {
                let v = it.next().ok_or("--tool needs a spec")?;
                opts.tool = Some(
                    ToolSpec::parse(v)
                        .map_err(|e| format!("--tool: invalid spec\n{}", e.render()))?,
                );
            }
            "--timeline" => timeline = true,
            "--diff" => diff = true,
            "--csv" => csv = true,
            other if name.is_none() && !other.starts_with('-') => name = Some(other.to_string()),
            other => return Err(format!("explain: unexpected argument `{other}`")),
        }
    }
    let Some(name) = name else {
        return Err(
            "usage: mtt explain <program> [--seed-fail N] [--seed-pass N] \
             [--timeline] [--diff] [--annotate FILE] [--scan N] [--csv] [--tool SPEC]"
                .into(),
        );
    };
    let Some(p) = mtt_suite::by_name(&name) else {
        return Err(format!("unknown program `{name}` — try `mtt list`"));
    };
    let (pool, journal) = g.journaled_pool("explain")?;
    let e = explain::explain_on(&p, &opts, &pool)?;
    journal.finish()?;
    print!("{}", e.render_summary());
    if timeline || (!diff && !csv) {
        println!();
        if csv {
            print!("{}", e.timeline_csv());
        } else {
            print!("{}", e.render_timeline());
        }
    }
    if diff {
        let rendered = if csv { e.diff_csv() } else { e.render_diff() };
        match rendered {
            Some(text) => {
                println!();
                print!("{text}");
            }
            None => eprintln!("mtt: no passing run to diff against (see --seed-pass / --scan)"),
        }
    }
    if let Some(path) = annotate {
        std::fs::write(&path, e.annotated_ndjson())
            .map_err(|err| format!("write {path}: {err}"))?;
        println!("annotated trace written to {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn trace_check(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: mtt trace-check <file.ndjson>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mtt: read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match mtt_causal::check_annotated(&text) {
        Ok(n) => {
            println!("{path}: annotated trace conforms to the schema ({n} record(s))");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn profile_cmd(args: &[String], g: &Global) -> Result<ExitCode, String> {
    let mut csv = false;
    let mut timing = false;
    let mut annotate_dir = None;
    let mut chrome_path: Option<String> = None;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--csv" => csv = true,
            "--timing" => timing = true,
            "--annotate" => {
                let v = it.next().ok_or("--annotate needs a directory")?;
                annotate_dir = Some(v.clone());
            }
            "--chrome-trace" => {
                let v = it.next().ok_or("--chrome-trace needs a file path")?;
                chrome_path = Some(v.clone());
            }
            other => positional.push(other.to_string()),
        }
    }
    let Some(key) = positional.first() else {
        return Err(format!(
            "usage: mtt profile <{}|all> [runs] [--csv] [--timing] [--annotate DIR] \
             [--chrome-trace FILE]",
            profile::PROFILE_KEYS.join("|")
        ));
    };
    if g.resume {
        // A profile needs full site maps, which the journal's 12-scalar
        // metric summary cannot round-trip — so cached cells can't stand in
        // for executed ones here.
        return Err(
            "--resume is not supported by `profile` (hot-site maps cannot be \
             reconstructed from the journal); use e1/e1-detail, or drop --resume"
                .into(),
        );
    }
    let runs = arg_u64(&positional, 1, 20)?;
    let keys: Vec<&str> = if key == "all" {
        profile::PROFILE_KEYS.to_vec()
    } else {
        vec![key.as_str()]
    };
    if chrome_path.is_some() && keys.len() > 1 {
        return Err("--chrome-trace needs a single profile key, not `all`".into());
    }
    let mut all_records = Vec::new();
    for key in keys {
        let (sink, _) = g.open_journal(&format!("profile-{key}"))?;
        let opts = profile::ProfileOptions {
            runs,
            jobs: g.jobs,
            top_k: 10,
            progress: !g.quiet,
            annotate_dir: annotate_dir.clone(),
            tools: g.tools.clone(),
            chrome: chrome_path.is_some(),
            journal: sink.clone(),
        };
        let report = profile::run_profile(key, &opts)?;
        JournalGuard(sink).finish()?;
        if csv {
            print!("{}", report.to_csv());
        } else {
            print!("{}", report.render());
        }
        if timing {
            print!("{}", report.render_timing());
        }
        for path in &report.annotated {
            println!("annotated trace written to {path}");
        }
        if let Some(path) = &chrome_path {
            let trace = report.chrome_trace();
            std::fs::write(path, trace.dump())
                .map_err(|e| format!("--chrome-trace: write {path}: {e}"))?;
            println!(
                "chrome trace written to {path} ({} event(s); load via chrome://tracing)",
                trace.len()
            );
        }
        all_records.extend(report.run_log);
    }
    if let Some(path) = &g.metrics {
        write_run_log(path, &all_records)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// Resolve a `status`/`watch`/`journal-check` target: a directory becomes
/// its sorted `*.ndjson` files, a file is itself. No journals is an error —
/// a typo'd path should not look like a healthy empty campaign.
fn journal_files(target: &str) -> Result<Vec<PathBuf>, String> {
    let path = Path::new(target);
    if path.is_dir() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("read {target}: {e}"))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.is_file() && p.extension().map(|x| x == "ndjson").unwrap_or(false))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("no *.ndjson journals in {target}"));
        }
        Ok(files)
    } else if path.is_file() {
        Ok(vec![path.to_path_buf()])
    } else {
        Err(format!("{target}: no such file or directory"))
    }
}

/// Fold the journals under `target` into per-campaign summaries, in file
/// order. Read-only: a half-written final record is tolerated (and flagged
/// in the summary), never repaired on disk — the writing process may still
/// be mid-append.
fn load_summaries(target: &str) -> Result<Vec<(PathBuf, StatusSummary)>, String> {
    journal_files(target)?
        .into_iter()
        .map(|path| {
            let parsed = mtt_obs::load_journal(&path)?;
            let summary = StatusSummary::from_journal(&parsed);
            Ok((path, summary))
        })
        .collect()
}

fn status_cmd(args: &[String]) -> Result<ExitCode, String> {
    let Some(target) = args.first() else {
        return Err("usage: mtt status <dir|file.ndjson>".into());
    };
    for (path, summary) in load_summaries(target)? {
        print!("{}: {}", path.display(), summary.render());
    }
    Ok(ExitCode::SUCCESS)
}

fn watch_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut interval_ms: u64 = 1000;
    let mut max_polls: u64 = u64::MAX;
    let mut target: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--interval-ms" => {
                let v = it.next().ok_or("--interval-ms needs a value")?;
                interval_ms = v
                    .parse()
                    .map_err(|_| format!("--interval-ms: `{v}` is not a number"))?;
            }
            "--max-polls" => {
                let v = it.next().ok_or("--max-polls needs a value")?;
                max_polls = v
                    .parse()
                    .map_err(|_| format!("--max-polls: `{v}` is not a number"))?;
            }
            other if target.is_none() && !other.starts_with('-') => {
                target = Some(other.to_string());
            }
            other => return Err(format!("watch: unexpected argument `{other}`")),
        }
    }
    let Some(target) = target else {
        return Err("usage: mtt watch <dir|file.ndjson> [--interval-ms N] [--max-polls N]".into());
    };
    for poll in 0..max_polls {
        if poll > 0 {
            std::thread::sleep(Duration::from_millis(interval_ms));
        }
        let summaries = load_summaries(&target)?;
        for (path, summary) in &summaries {
            print!("{}: {}", path.display(), summary.render());
        }
        if summaries.iter().all(|(_, s)| s.complete) {
            println!("all campaigns complete");
            return Ok(ExitCode::SUCCESS);
        }
        println!("---");
    }
    eprintln!("mtt watch: campaigns still running after {max_polls} poll(s)");
    Ok(ExitCode::FAILURE)
}

fn journal_check(args: &[String]) -> Result<ExitCode, String> {
    let Some(target) = args.first() else {
        return Err("usage: mtt journal-check <dir|file.ndjson>".into());
    };
    for path in journal_files(target)? {
        let parsed = mtt_obs::load_journal(&path)?;
        if parsed.tail_discarded {
            return Err(format!(
                "{}: truncated final record (crash mid-write); `--resume` \
                 discards it, but a strict check does not pass",
                path.display()
            ));
        }
        println!(
            "{}: {} record(s) conform to journal schema v{}",
            path.display(),
            parsed.records.len(),
            mtt_obs::JOURNAL_VERSION
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// `mtt tools` — the component registry surface: list the catalog, print
/// the standard roster's canonical specs, describe one spec, or validate
/// specs (from arguments or a file). Validation failures exit 2 with a
/// column-pointing error, mirroring how the global `--tools` flag fails.
fn tools_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut json = false;
    let mut file: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--file" => {
                let v = it.next().ok_or("tools: --file needs a path")?;
                file = Some(v.clone());
            }
            other => rest.push(other.to_string()),
        }
    }
    let verb = rest.first().map(String::as_str).unwrap_or("list");
    match verb {
        "list" => {
            if json {
                println!("{}", mtt_tools::catalog_json().dump());
            } else {
                println!(
                    "component registry ({} components):\n",
                    mtt_tools::catalog().len()
                );
                let mut kind = "";
                for c in mtt_tools::catalog() {
                    if c.kind.label() != kind {
                        kind = c.kind.label();
                        println!("{kind}:");
                    }
                    let params = c
                        .params
                        .iter()
                        .map(|p| format!("{}={}", p.name, p.default))
                        .collect::<Vec<_>>()
                        .join(":");
                    let head = if params.is_empty() {
                        c.id.to_string()
                    } else {
                        format!("{}  [{params}]", c.id)
                    };
                    println!("  {head:<38} {}", c.summary);
                }
                println!("\nspec grammar: scheduler[:p...][+noise=id[:p...]][+place=id][+race=id][+deadlock=id][+cov=id][+spurious=p][+name=label]");
                println!("standard roster: `mtt tools specs`");
            }
            Ok(ExitCode::SUCCESS)
        }
        "specs" => {
            for s in mtt_tools::STANDARD_ROSTER_SPECS {
                let spec = ToolSpec::parse(s).expect("standard roster specs are valid");
                println!("{}", spec.canonical());
            }
            Ok(ExitCode::SUCCESS)
        }
        "describe" => {
            let Some(text) = rest.get(1) else {
                return Err("usage: mtt tools describe <spec>".into());
            };
            let spec = match ToolSpec::parse(text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{}", e.render());
                    return Ok(ExitCode::from(2));
                }
            };
            let cfg = spec.resolve()?;
            println!("spec:      {}", spec.canonical());
            println!("name:      {}", cfg.name);
            let describe = |kind, c: &mtt_tools::ComponentSpec| {
                let info = mtt_tools::registry::lookup(kind, &c.id).expect("validated");
                let params = info
                    .params
                    .iter()
                    .enumerate()
                    .map(|(i, p)| format!("{}={}", p.name, mtt_tools::registry::param(info, c, i)))
                    .collect::<Vec<_>>()
                    .join(", ");
                if params.is_empty() {
                    format!("{} — {}", c.id, info.summary)
                } else {
                    format!("{} ({params}) — {}", c.id, info.summary)
                }
            };
            println!(
                "scheduler: {}",
                describe(mtt_tools::ComponentKind::Scheduler, &spec.scheduler)
            );
            println!(
                "noise:     {}",
                describe(mtt_tools::ComponentKind::Noise, &spec.noise)
            );
            if let Some(place) = &spec.place {
                println!(
                    "placement: {}",
                    describe(mtt_tools::ComponentKind::Placement, place)
                );
            }
            for (kind, sink) in &spec.sinks {
                println!(
                    "{:<9}  {}",
                    format!("{}:", kind.key()),
                    describe(mtt_tools::ComponentKind::of_sink(*kind), sink)
                );
            }
            if let Some(p) = spec.spurious {
                println!("spurious:  wakeup probability {p}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "validate" => {
            if let Some(path) = &file {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("tools validate: read {path}: {e}"))?;
                return match ToolSpec::parse_file(&text) {
                    Ok(specs) => {
                        for s in &specs {
                            println!("{}", s.canonical());
                        }
                        println!("{path}: {} spec(s) valid", specs.len());
                        Ok(ExitCode::SUCCESS)
                    }
                    Err(e) => {
                        eprintln!("{path}: {}", e.render());
                        Ok(ExitCode::from(2))
                    }
                };
            }
            if rest.len() < 2 {
                return Err("usage: mtt tools validate <spec...> | --file FILE".into());
            }
            for text in &rest[1..] {
                match ToolSpec::parse(text) {
                    Ok(spec) => println!("{}", spec.canonical()),
                    Err(e) => {
                        eprintln!("{}", e.render());
                        return Ok(ExitCode::from(2));
                    }
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!(
            "tools: unknown verb `{other}` (expected list, specs, describe, or validate)"
        )),
    }
}

fn metrics_check(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: mtt metrics-check <file.ndjson>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mtt: read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut checked = 0u64;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if let Err(msg) = check_run_log_line(line) {
            eprintln!("{path}:{}: {msg}", i + 1);
            return ExitCode::FAILURE;
        }
        checked += 1;
    }
    if checked == 0 {
        eprintln!("{path}: no run-log lines found");
        return ExitCode::FAILURE;
    }
    println!("{path}: {checked} run-log line(s) conform to the schema");
    ExitCode::SUCCESS
}

fn cloning(runs: u64, g: &Global) -> Result<ExitCode, String> {
    let (pool, journal) = g.journaled_pool("cloning")?;
    println!("§2.3 cloning driver: P(cloned test fails)\n");
    match &g.tools {
        None => {
            // The historical comparison: bare cloning vs sleep noise on top.
            let noisy_spec =
                ToolSpec::parse("sticky:0.9+noise=sleep:0.3:15").expect("default spec is valid");
            for clones in [1u32, 2, 4, 8] {
                let plain = run_cloning_on(clones, runs, None, &pool);
                let noisy = run_cloning_on(clones, runs, Some(&noisy_spec), &pool);
                println!(
                    "  {clones} clone(s):  plain {}   + sleep noise {}",
                    plain.fail.render(),
                    noisy.fail.render()
                );
            }
        }
        Some(specs) => {
            for clones in [1u32, 2, 4, 8] {
                let plain = run_cloning_on(clones, runs, None, &pool);
                let mut line = format!("  {clones} clone(s):  plain {}", plain.fail.render());
                for spec in specs {
                    let r = run_cloning_on(clones, runs, Some(spec), &pool);
                    line.push_str(&format!("   + {} {}", spec.display_name(), r.fail.render()));
                }
                println!("{line}");
            }
        }
    }
    journal.finish()?;
    Ok(ExitCode::SUCCESS)
}

fn e2(traces: u64, g: &Global) -> Result<ExitCode, String> {
    let (pool, journal) = g.journaled_pool("e2")?;
    let programs = mtt_suite::quick_set();
    let report = detector_eval::run_detector_eval_on(&programs, traces, &pool);
    journal.finish()?;
    println!("{}", report.table().render());
    Ok(ExitCode::SUCCESS)
}

fn e3(attempts: u64, g: &Global) -> Result<ExitCode, String> {
    let (pool, journal) = g.journaled_pool("e3")?;
    let rows = replay_eval::run_replay_eval_on(attempts, &[0, 1, 4, 16], &pool);
    journal.finish()?;
    println!("{}", replay_eval::replay_table(&rows).render());
    Ok(ExitCode::SUCCESS)
}

fn e4(program: Option<&str>, runs: u64, g: &Global) -> Result<ExitCode, String> {
    let name = program.unwrap_or("web_sessions");
    let Some(p) = mtt_suite::by_name(name) else {
        eprintln!("unknown program `{name}`");
        return Ok(ExitCode::from(2));
    };
    let (pool, journal) = g.journaled_pool("e4")?;
    let curves = coverage_eval::run_coverage_eval_on(&p, runs, 0, &pool);
    journal.finish()?;
    println!("{}", coverage_eval::coverage_table(name, &curves).render());
    Ok(ExitCode::SUCCESS)
}

fn e5(runs: u64, g: &Global) -> Result<ExitCode, String> {
    let (pool, journal) = g.journaled_pool("e5")?;
    let results = match g.resolved_tools()? {
        Some(tools) => multiout_eval::run_multiout_eval_with(runs, 0, tools, &pool),
        None => multiout_eval::run_multiout_eval_on(runs, 0, &pool),
    };
    journal.finish()?;
    println!("{}", multiout_eval::multiout_table(&results).render());
    Ok(ExitCode::SUCCESS)
}

fn e6(budget: u64, g: &Global) -> Result<ExitCode, String> {
    let programs = vec![
        mtt_suite::small::lost_update(2, 1),
        mtt_suite::small::ab_ba(),
        mtt_suite::small::check_then_act(),
    ];
    let (pool, journal) = g.journaled_pool("e6")?;
    let rows = explore_eval::run_explore_eval_on(&programs, budget, &pool);
    journal.finish()?;
    println!("{}", explore_eval::explore_table(&rows).render());
    Ok(ExitCode::SUCCESS)
}

fn e7(runs: u64, g: &Global) -> Result<ExitCode, String> {
    let (pool, journal) = g.journaled_pool("e7")?;
    let rows = static_eval::run_static_eval_on(runs, &pool);
    journal.finish()?;
    println!("{}", static_eval::static_table(&rows).render());
    println!("{}", static_eval::class_table(&rows).render());
    Ok(ExitCode::SUCCESS)
}

fn e10(args: &[String], g: &Global) -> Result<ExitCode, String> {
    let mut opts = gen_eval::GenEvalOptions::default();
    let mut csv = false;
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--csv" => csv = true,
            "--json" => json = true,
            "--seed" | "--families" | "--runs" => {
                let v = it
                    .next()
                    .ok_or_else(|| format!("{a} needs a value"))?
                    .parse::<u64>()
                    .map_err(|e| format!("{a}: {e}"))?;
                match a.as_str() {
                    "--seed" => opts.seed = v,
                    "--families" => opts.families = v,
                    _ => opts.runs = v,
                }
            }
            other => return Err(format!("e10: unknown argument `{other}`")),
        }
    }
    let (pool, journal) = g.journaled_pool("e10")?;
    let rows = gen_eval::run_gen_eval_on(&opts, &pool);
    journal.finish()?;
    if json {
        println!("{}", gen_eval::gen_eval_json(&opts, &rows).dump());
    } else if csv {
        print!("{}", gen_eval::render_csv(&rows));
    } else {
        print!("{}", gen_eval::render_report(&rows));
    }
    Ok(ExitCode::SUCCESS)
}

/// `mtt gen list|describe|dump`: inspect the generated population
/// without scoring it. Generation is fast and serial, so no job pool.
fn gen_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut opts = mtt_gen::GenOptions::default();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" | "--families" => {
                let v = it
                    .next()
                    .ok_or_else(|| format!("{a} needs a value"))?
                    .parse::<u64>()
                    .map_err(|e| format!("{a}: {e}"))?;
                if a == "--seed" {
                    opts.seed = v;
                } else {
                    opts.families = v;
                }
            }
            other => positional.push(other.to_string()),
        }
    }
    let verb = positional.first().map(String::as_str).unwrap_or("list");
    match verb {
        "list" => {
            let mut t = mtt_experiment::Table::new(
                format!("generated families (seed {}, {})", opts.seed, opts.families),
                &["family", "pattern", "class", "members", "buggy", "benign"],
            );
            for f in mtt_gen::generate_families(&opts) {
                t.row(&[
                    f.id.clone(),
                    f.pattern.key().to_string(),
                    format!("{:?}", f.pattern.class()),
                    f.members.len().to_string(),
                    f.buggy().count().to_string(),
                    f.benign().count().to_string(),
                ]);
            }
            print!("{}", t.render());
            Ok(ExitCode::SUCCESS)
        }
        "describe" => {
            let id = positional
                .get(1)
                .ok_or("gen describe needs a family id (see `mtt gen list`)")?;
            let fam = mtt_gen::family_by_id(&opts, id)
                .ok_or_else(|| format!("no family `{id}` in the first {} draws", opts.families))?;
            print!("{}", fam.describe());
            Ok(ExitCode::SUCCESS)
        }
        "dump" => {
            let id = positional
                .get(1)
                .ok_or("gen dump needs a family or member name")?;
            for f in mtt_gen::generate_families(&opts) {
                if f.id == *id {
                    for m in &f.members {
                        print!("{}", m.src);
                    }
                    return Ok(ExitCode::SUCCESS);
                }
                if let Some(m) = f.members.iter().find(|m| m.name == *id) {
                    print!("{}", m.src);
                    return Ok(ExitCode::SUCCESS);
                }
            }
            Err(format!(
                "no family or member `{id}` in the first {} draws",
                opts.families
            ))
        }
        other => Err(format!("gen: unknown verb `{other}`")),
    }
}

fn e11(args: &[String], g: &Global) -> Result<ExitCode, String> {
    let mut csv = false;
    let mut json = false;
    let mut positional = Vec::new();
    for a in args {
        match a.as_str() {
            "--csv" => csv = true,
            "--json" => json = true,
            other => positional.push(other.to_string()),
        }
    }
    let runs = arg_u64(&positional, 0, 20)?;
    let (pool, journal) = g.journaled_pool("e11")?;
    let rows = scoreboard::run_scoreboard_on(runs, &pool);
    journal.finish()?;
    if json {
        println!("{}", scoreboard::scoreboard_json(&rows).dump());
    } else if csv {
        print!("{}", scoreboard::render_csv(&rows));
    } else {
        print!("{}", scoreboard::render_report(&rows));
    }
    Ok(ExitCode::SUCCESS)
}

fn e12(args: &[String], g: &Global) -> Result<ExitCode, String> {
    let mut csv = false;
    let mut json = false;
    let mut positional = Vec::new();
    for a in args {
        match a.as_str() {
            "--csv" => csv = true,
            "--json" => json = true,
            other => positional.push(other.to_string()),
        }
    }
    let runs = arg_u64(&positional, 0, 40)?;
    let (pool, journal) = g.journaled_pool("e12")?;
    let cells = saturation_eval::run_saturation_on(runs, &pool);
    journal.finish()?;
    if json {
        println!("{}", saturation_eval::saturation_json(&cells).dump());
    } else if csv {
        print!("{}", saturation_eval::render_csv(&cells));
    } else {
        print!("{}", saturation_eval::render_report(&cells));
    }
    Ok(ExitCode::SUCCESS)
}

fn e13(args: &[String], g: &Global) -> Result<ExitCode, String> {
    let mut csv = false;
    let mut json = false;
    let mut model_only = false;
    let mut positional = Vec::new();
    for a in args {
        match a.as_str() {
            "--csv" => csv = true,
            "--json" => json = true,
            "--model-csv" => model_only = true,
            other => positional.push(other.to_string()),
        }
    }
    if g.backend.is_some() {
        return Err(
            "--backend is not supported by `e13` — the differential always runs both backends"
                .to_string(),
        );
    }
    let runs = arg_u64(&positional, 0, 12)?;
    let (pool, journal) = g.journaled_pool("e13")?;
    let cells = differential_eval::run_differential_on(runs, &pool);
    journal.finish()?;
    if json {
        println!("{}", differential_eval::differential_json(&cells).dump());
    } else if model_only {
        print!("{}", differential_eval::model_csv(&cells));
    } else if csv {
        print!("{}", differential_eval::render_csv(&cells));
    } else {
        print!("{}", differential_eval::render_report(&cells));
    }
    Ok(ExitCode::SUCCESS)
}

fn e8(seed: u64) -> ExitCode {
    // E8 measures online vs offline *wall-clock* overhead: concurrent runs
    // would contend with each other and poison the measurement, so it
    // ignores --jobs on purpose.
    let programs = mtt_suite::quick_set();
    let rows = detector_eval::run_tradeoff_eval(&programs, seed);
    println!("{}", detector_eval::tradeoff_table(&rows).render());
    ExitCode::SUCCESS
}
