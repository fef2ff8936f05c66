//! `mtt` — the push-button prepared experiments.
//!
//! "All the machinery will be in place so that with the push of a button,
//! it can be evaluated and compared to alternative approaches" (§4).
//!
//! `mtt help` lists every command and global flag. It is generated from
//! [`cli_spec`], which also records which commands use each global flag;
//! a command rejects a global flag it does not use. Every command parses
//! its own arguments with one cursor, [`Args`], whose [`Args::finish`]
//! rejects whatever the command left over, so no argument is silently
//! ignored: a usage error exits 2.

use mtt_experiment::{
    campaign::{Campaign, CampaignRun},
    cli_spec,
    cloning::cloning_table,
    coverage_eval, detector_eval, differential_eval, explain, explore_eval, gen_eval,
    jobpool::{CellJournal, JobPool},
    multiout_eval, profile, replay_eval, saturation_eval, scoreboard, static_eval, tracegen,
};
use mtt_obs::{CampaignMeta, JournalSink, ResumeCache, StatusSummary};
use mtt_runtime::{Execution, RandomScheduler, RuntimeBackend};
use mtt_suite::SuiteProgram;
use mtt_telemetry::{check_run_log_line, RunLogRecord, RunLogWriter};
use mtt_tools::{ToolConfig, ToolSpec};
use std::env;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// The arguments of one command that it has not taken yet. A command takes
/// its flags and `NAME VALUE` options first, wherever they appear, then its
/// positionals in order; [`finish`](Args::finish) rejects what is left.
struct Args {
    /// The command name, for error messages.
    cmd: String,
    rest: Vec<String>,
}

impl Args {
    /// `words` as a command line: the first word is the command.
    fn new(words: impl IntoIterator<Item = String>) -> Args {
        let mut rest: Vec<String> = words.into_iter().collect();
        let cmd = if rest.is_empty() {
            String::new()
        } else {
            rest.remove(0)
        };
        Args { cmd, rest }
    }

    /// Take every occurrence of the flag spelled `names`; true if present.
    fn flag(&mut self, names: &[&str]) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| !names.contains(&a.as_str()));
        self.rest.len() < before
    }

    /// Take every `NAME VALUE` pair of the option spelled `names` and return
    /// the last value. A missing value is an error, and so is a flag-shaped
    /// one: it keeps a typo like `--metrics --journal DIR` from writing a
    /// file literally named `--journal`.
    fn value(&mut self, names: &[&str], what: &str) -> Result<Option<String>, String> {
        let mut last = None;
        while let Some(i) = self.rest.iter().position(|a| names.contains(&a.as_str())) {
            let name = self.rest.remove(i);
            match self.rest.get(i) {
                Some(v) if !v.starts_with('-') => last = Some(self.rest.remove(i)),
                Some(v) => {
                    return Err(format!(
                        "{name} needs {what}, but the next argument is `{v}`, a flag"
                    ))
                }
                None => return Err(format!("{name} needs {what}")),
            }
        }
        Ok(last)
    }

    /// [`value`](Args::value), parsed as a number.
    fn number(&mut self, names: &[&str]) -> Result<Option<u64>, String> {
        self.value(names, "a number")?
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{}: `{v}` is not a number", names[0]))
            })
            .transpose()
    }

    /// Take the next positional: the first argument not shaped like a flag.
    fn positional(&mut self) -> Option<String> {
        let i = self.rest.iter().position(|a| !a.starts_with('-'))?;
        Some(self.rest.remove(i))
    }

    /// The next positional as a number, or `default` when there is none.
    /// A malformed value is an error, never a silent fallback. Any number
    /// is a seed, zero included.
    fn seed(&mut self, default: u64) -> Result<u64, String> {
        match self.positional() {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| format!("argument `{s}` is not a number")),
        }
    }

    /// The next positional as the count `what`, parsed as a
    /// [`seed`](Args::seed) is and held to [`at_least_one`](Args::at_least_one).
    fn count(&mut self, what: &str, default: u64) -> Result<u64, String> {
        let n = self.seed(default)?;
        self.at_least_one(what, n)
    }

    /// The option `names` as a count: a [`number`](Args::number) held to
    /// [`at_least_one`](Args::at_least_one).
    fn count_option(&mut self, names: &[&str]) -> Result<Option<u64>, String> {
        let n = self.number(names)?;
        n.map(|n| self.at_least_one(names[0], n)).transpose()
    }

    /// The one rule for counts: zero runs, traces or families would run
    /// nothing and print an empty or all-zero report, so a count must be
    /// at least 1.
    fn at_least_one(&self, what: &str, n: u64) -> Result<u64, String> {
        if n == 0 {
            Err(format!("{}: {what} must be at least 1", self.cmd))
        } else {
            Ok(n)
        }
    }

    /// Reject whatever the command did not take.
    fn finish(self) -> Result<(), String> {
        match self.rest.first() {
            None => Ok(()),
            Some(a) => Err(format!("{}: unexpected argument `{a}`", self.cmd)),
        }
    }
}

/// Global options shared by the experiment subcommands.
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

/// Take the global flags out of `a`, wherever they appear.
fn parse_global(a: &mut Args) -> Result<Global, String> {
    let mut tools = None;
    if let Some(v) = a.value(&["--tools"], "a comma-separated spec list")? {
        let specs = ToolSpec::parse_list(&v)
            .map_err(|e| format!("--tools: invalid spec\n{}", e.render()))?;
        if specs.is_empty() {
            return Err("--tools: empty spec list".into());
        }
        tools = Some(specs);
    }
    if let Some(path) = a.value(&["--tools-file"], "a file path")? {
        if tools.is_some() {
            return Err("--tools and --tools-file both set the roster; give one".into());
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("--tools-file: read {path}: {e}"))?;
        let specs = ToolSpec::parse_file(&text)
            .map_err(|e| format!("--tools-file {path}: invalid spec\n{}", e.render()))?;
        if specs.is_empty() {
            return Err(format!("--tools-file: no specs in {path}"));
        }
        tools = Some(specs);
    }
    let backend =
        match a.value(&["--backend"], "a value (model or native)")? {
            None => None,
            Some(v) => Some(RuntimeBackend::parse(&v).ok_or_else(|| {
                format!("--backend: unknown backend `{v}` (known: model, native)")
            })?),
        };
    Ok(Global {
        jobs: a.number(&["--jobs", "-j"])?.unwrap_or(0) as usize, // 0 = all cores
        budget: a.number(&["--budget-ms"])?.map(Duration::from_millis),
        quiet: a.flag(&["--quiet", "-q"]),
        metrics: a.value(&["--metrics"], "a file path")?,
        tools,
        journal: a.value(&["--journal"], "a directory")?,
        resume: a.flag(&["--resume"]),
        backend,
    })
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
        self.tools
            .as_ref()
            .map(|specs| specs.iter().map(ToolSpec::resolve).collect())
            .transpose()
    }

    /// Open `--journal DIR/<label>.ndjson` if journaling was requested.
    /// With `--resume` the existing journal is tail-repaired, parsed
    /// (corruption is exit 2) and turned into a [`ResumeCache`]; the sink
    /// then appends. Without it the file is truncated.
    fn open_journal(&self, label: &str) -> Result<Option<CellJournal>, String> {
        let Some(dir) = &self.journal else {
            if self.resume {
                return Err(
                    "--resume needs --journal DIR (there is no journal to resume from)".to_string(),
                );
            }
            return Ok(None);
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
        Ok(Some(CellJournal {
            sink: Some(Arc::new(sink)),
            resume: cache,
            header: CampaignMeta {
                label: label.to_string(),
                ..CampaignMeta::default()
            },
        }))
    }

    /// Run `job` on the pool for `label`, whose cells are recorded in
    /// `--journal` and resumed with `--resume`.
    fn on_pool<T>(&self, label: &str, job: impl FnOnce(&JobPool) -> T) -> Result<T, String> {
        let journal = self.open_journal(label)?;
        let sink = journal.as_ref().and_then(|j| j.sink.clone());
        let out = job(&self.pool(label).recording(journal));
        journal_written(&sink)?;
        Ok(out)
    }

    /// Run a campaign (`e1`, `e1-detail`) under the global roster, backend,
    /// budget and telemetry flags; `--metrics` gets its run log.
    fn campaign(
        &self,
        label: &str,
        programs: Vec<SuiteProgram>,
        runs: u64,
    ) -> Result<CampaignRun, String> {
        let mut campaign = Campaign::standard(programs, runs);
        if let Some(tools) = self.resolved_tools()? {
            campaign.tools = tools;
        }
        // Both the runnable config and its provenance spec name the engine,
        // so spec strings, content addresses and run-log records all agree.
        if let Some(b) = self.backend {
            for cfg in &mut campaign.tools {
                cfg.backend = b;
                cfg.spec.backend = b;
            }
        }
        campaign.run_budget = self.budget;
        campaign.jobs = self.jobs;
        campaign.label = label.into();
        let journal = self.open_journal(label)?.unwrap_or_default();
        campaign.journal = journal.sink;
        campaign.resume = journal.resume;
        let mut log = self.open_run_log()?;
        campaign.telemetry = log.is_some();
        let run = campaign.run_streaming(&self.pool(label), |line| {
            if let Some(log) = &mut log {
                log.write(&line);
            }
        });
        journal_written(&campaign.journal)?;
        log.map_or(Ok(()), RunLog::finish)?;
        Ok(run)
    }

    /// Create the `--metrics` file, if one was asked for, before anything
    /// runs: a path that cannot be created is a usage error up front.
    fn open_run_log(&self) -> Result<Option<RunLog>, String> {
        self.metrics.as_deref().map(RunLog::create).transpose()
    }
}

/// The `--metrics` run log: created before the campaign runs and fed each
/// line as the campaign passes it on. The first write error is kept and
/// reported by [`RunLog::finish`] once the campaign ends, so a campaign
/// that fails after the file was created may leave a partial log.
struct RunLog {
    path: String,
    writer: RunLogWriter<std::fs::File>,
    error: Option<std::io::Error>,
}

impl RunLog {
    fn create(path: &str) -> Result<RunLog, String> {
        let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        Ok(RunLog {
            path: path.to_string(),
            writer: RunLogWriter::new(file),
            error: None,
        })
    }

    /// Append one line; after a failed write, drop the rest.
    fn write(&mut self, rec: &RunLogRecord) {
        if self.error.is_none() {
            self.error = self.writer.write_record(rec).err();
        }
    }

    /// Flush the log and report the first write error, if any.
    fn finish(mut self) -> Result<(), String> {
        if let Some(e) = self.error {
            return Err(format!("write {}: {e}", self.path));
        }
        self.writer
            .flush()
            .map_err(|e| format!("flush {}: {e}", self.path))
    }
}

/// Post-run check that every journal record actually reached disk; a
/// latched write error (disk full, deleted directory) becomes exit 2
/// instead of a silently incomplete journal.
fn journal_written(sink: &Option<Arc<JournalSink>>) -> Result<(), String> {
    sink.as_ref().and_then(|s| s.error()).map_or(Ok(()), Err)
}

/// What `mtt all` runs: every experiment with small defaults.
const ALL: &[&str] = &[
    "e1 40",
    "e2 8",
    "e3 15",
    "e4 web_sessions 15",
    "e5 80",
    "e6 2000",
    "e7 30",
    "e8 7",
    "e10 --families 8 --runs 2",
    "e11 12",
    "e12 12",
    "e13 6",
];

fn main() -> ExitCode {
    match dispatch(env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("mtt: {msg}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(raw: Vec<String>) -> Result<ExitCode, String> {
    let mut a = Args {
        cmd: String::new(),
        rest: raw.clone(),
    };
    let g = parse_global(&mut a)?;
    let a = Args::new(a.rest);
    if let Some(flag) = cli_spec::unsupported_flag(&a.cmd, &raw) {
        return Err(format!("{flag} is not supported by `{}`", a.cmd));
    }
    match a.cmd.as_str() {
        "list" => a.finish().map(|()| list()),
        "lint" => lint(a),
        "run" => run_one(a),
        "trace" => trace(a),
        "explain" => explain_cmd(a, &g),
        "gen" => gen_cmd(a),
        "profile" => profile_cmd(a, &g),
        "status" => status_cmd(a),
        "watch" => watch_cmd(a),
        "tools" => tools_cmd(a),
        "metrics-check" => metrics_check(a),
        "trace-check" => trace_check(a),
        "journal-check" => journal_check(a),
        "all" => {
            a.finish()?;
            for line in ALL {
                experiment(Args::new(line.split(' ').map(String::from)), &g)?;
            }
            Ok(ExitCode::SUCCESS)
        }
        "help" | "--help" | "-h" => {
            a.finish()?;
            println!("{}", cli_spec::usage());
            Ok(ExitCode::SUCCESS)
        }
        "" => {
            eprintln!("{}", cli_spec::usage());
            Ok(ExitCode::from(2))
        }
        _ => experiment(a, &g).map(|()| ExitCode::SUCCESS),
    }
}

/// Look a benchmark program up by name.
fn program(name: &str) -> Result<SuiteProgram, String> {
    mtt_suite::by_name(name).ok_or_else(|| format!("unknown program `{name}` — try `mtt list`"))
}

/// Run one experiment (`e1`–`e13`, `e1-detail`, `cloning`) and print its
/// report. All arguments are parsed before anything runs or touches the
/// disk. `--csv`/`--json`/`--model-csv` pick the rendering where the
/// experiment offers it (JSON wins, then model CSV, then CSV). Any other
/// command name is an unknown subcommand.
fn experiment(mut a: Args, g: &Global) -> Result<(), String> {
    let cmd = a.cmd.clone();
    let offered: &[&str] = match cmd.as_str() {
        "e1" => &["--csv"],
        "e10" | "e11" | "e12" => &["--csv", "--json"],
        "e13" => &["--csv", "--json", "--model-csv"],
        _ => &[],
    };
    let mut format = |f: &str| offered.contains(&f) && a.flag(&[f]);
    let (csv, json, model_csv) = (format("--csv"), format("--json"), format("--model-csv"));
    let job: Box<dyn FnOnce(&JobPool) -> String + '_> = match cmd.as_str() {
        "e1" => {
            let runs = a.count("the run count", 60)?;
            a.finish()?;
            let run = g.campaign(&cmd, mtt_suite::quick_set(), runs)?;
            if csv {
                print!("{}", run.report.table().to_csv());
            } else {
                println!("{}", run.report.table().render());
                println!("ranking (mean find-rate across programs):");
                for (tool, rate) in run.report.ranking() {
                    println!("  {tool:<14} {rate:.3}");
                }
            }
            return Ok(());
        }
        "e1-detail" => {
            let name = a.positional().unwrap_or_else(|| "web_sessions".into());
            let runs = a.count("the run count", 60)?;
            a.finish()?;
            let run = g.campaign(&cmd, vec![program(&name)?], runs)?;
            println!("{}", run.report.per_bug_table(&name).render());
            return Ok(());
        }
        "e8" => {
            // E8 measures online vs offline *wall-clock* overhead: concurrent
            // runs would contend with each other and poison the measurement,
            // so it runs serially and ignores --jobs on purpose.
            let seed = a.seed(7)?;
            a.finish()?;
            let rows = detector_eval::run_tradeoff_eval(&mtt_suite::quick_set(), seed);
            println!("{}", detector_eval::tradeoff_table(&rows).render());
            return Ok(());
        }
        "cloning" => {
            let runs = a.count("the run count", 60)?;
            scheduler_and_noise_only(g, "cloning")?;
            Box::new(move |pool| cloning_table(runs, g.tools.as_deref(), pool))
        }
        "e2" => {
            let traces = a.count("the trace count", 10)?;
            Box::new(move |pool| {
                let programs = mtt_suite::quick_set();
                let report = detector_eval::run_detector_eval_on(&programs, traces, pool);
                format!("{}\n", report.table().render())
            })
        }
        "e3" => {
            let attempts = a.count("the attempt count", 20)?;
            Box::new(move |pool| {
                let rows = replay_eval::run_replay_eval_on(attempts, &[0, 1, 4, 16], pool);
                format!("{}\n", replay_eval::replay_table(&rows).render())
            })
        }
        "e4" => {
            let name = a.positional().unwrap_or_else(|| "web_sessions".into());
            let runs = a.count("the run count", 20)?;
            let p = program(&name)?;
            Box::new(move |pool| {
                let curves = coverage_eval::run_coverage_eval_on(&p, runs, 0, pool);
                format!(
                    "{}\n",
                    coverage_eval::coverage_table(&name, &curves).render()
                )
            })
        }
        "e5" => {
            let runs = a.count("the run count", 120)?;
            scheduler_and_noise_only(g, "e5")?;
            let tools = g.resolved_tools()?;
            Box::new(move |pool| {
                let results = match tools {
                    Some(tools) => multiout_eval::run_multiout_eval_with(runs, 0, tools, pool),
                    None => multiout_eval::run_multiout_eval_on(runs, 0, pool),
                };
                format!("{}\n", multiout_eval::multiout_table(&results).render())
            })
        }
        "e6" => {
            let budget = a.count("the execution budget", 3000)?;
            Box::new(move |pool| {
                let programs = vec![
                    mtt_suite::small::lost_update(2, 1),
                    mtt_suite::small::ab_ba(),
                    mtt_suite::small::check_then_act(),
                ];
                let rows = explore_eval::run_explore_eval_on(&programs, budget, pool);
                format!("{}\n", explore_eval::explore_table(&rows).render())
            })
        }
        "e7" => {
            let runs = a.count("the run count", 40)?;
            Box::new(move |pool| {
                static_eval::render_report(&static_eval::run_static_eval_on(runs, pool))
            })
        }
        "e10" => {
            let mut opts = gen_eval::GenEvalOptions::default();
            opts.seed = a.number(&["--seed"])?.unwrap_or(opts.seed);
            opts.families = a.count_option(&["--families"])?.unwrap_or(opts.families);
            opts.runs = a.count_option(&["--runs"])?.unwrap_or(opts.runs);
            Box::new(move |pool| {
                let rows = gen_eval::run_gen_eval_on(&opts, pool);
                if json {
                    json_line(&gen_eval::gen_eval_json(&opts, &rows))
                } else if csv {
                    gen_eval::render_csv(&rows)
                } else {
                    gen_eval::render_report(&rows)
                }
            })
        }
        "e11" => {
            let runs = a.count("the run count", 20)?;
            Box::new(move |pool| {
                let rows = scoreboard::run_scoreboard_on(runs, pool);
                if json {
                    json_line(&scoreboard::scoreboard_json(&rows))
                } else if csv {
                    scoreboard::render_csv(&rows)
                } else {
                    scoreboard::render_report(&rows)
                }
            })
        }
        "e12" => {
            let runs = a.count("the run count", 40)?;
            Box::new(move |pool| {
                let cells = saturation_eval::run_saturation_on(runs, pool);
                if json {
                    json_line(&saturation_eval::saturation_json(&cells))
                } else if csv {
                    saturation_eval::render_csv(&cells)
                } else {
                    saturation_eval::render_report(&cells)
                }
            })
        }
        "e13" => {
            let runs = a.count("the run count", 12)?;
            Box::new(move |pool| {
                let cells = differential_eval::run_differential_on(runs, pool);
                if json {
                    json_line(&differential_eval::differential_json(&cells))
                } else if model_csv {
                    differential_eval::model_csv(&cells)
                } else if csv {
                    differential_eval::render_csv(&cells)
                } else {
                    differential_eval::render_report(&cells)
                }
            })
        }
        unknown => {
            return Err(format!(
                "unknown subcommand `{unknown}`\n{}",
                cli_spec::usage()
            ))
        }
    };
    a.finish()?;
    print!("{}", g.on_pool(&cmd, job)?);
    Ok(())
}

/// An experiment's `--json` document, printed as one line.
fn json_line(doc: &impl mtt_json::ToJson) -> String {
    format!("{}\n", mtt_json::to_string(doc))
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

fn lint(mut a: Args) -> Result<ExitCode, String> {
    let json = a.flag(&["--json"]);
    let what = "a code list (or `all`)";
    let deny = a.value(&["--deny"], what)?.map(|v| parse_code_list(&v));
    let allow = a.value(&["--allow"], what)?.map(|v| parse_code_list(&v));
    let target = a.positional();
    a.finish()?;
    let Some(target) = target else {
        eprintln!("usage: mtt lint <sample-name|file.mp> [--json] [--deny IDS] [--allow IDS]");
        eprintln!("samples:");
        for s in mtt_static::samples::catalog() {
            eprintln!("  {}", s.name);
        }
        return Ok(ExitCode::from(2));
    };

    // A known sample name wins; anything else is read as a source file.
    let (label, src) = match mtt_static::samples::by_name(&target) {
        Some(s) => (format!("<sample {}>", s.name), s.src.to_string()),
        None => match std::fs::read_to_string(&target) {
            Ok(text) => (target.clone(), text),
            Err(e) => {
                return Err(format!(
                    "`{target}` is neither a sample name nor a readable file: {e}"
                ))
            }
        },
    };
    let ast = match mtt_static::parse(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{label}: parse error: {e}");
            return Ok(ExitCode::FAILURE);
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
        Ok(ExitCode::from(3))
    } else if diagnostics.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn run_one(mut a: Args) -> Result<ExitCode, String> {
    let name = a.positional().ok_or("usage: mtt run <program> [seed]")?;
    let seed = a.seed(0)?;
    a.finish()?;
    let p = program(&name)?;
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

fn trace(mut a: Args) -> Result<ExitCode, String> {
    let name = a.positional();
    let count = a.count("the trace count", 1)?;
    let (Some(name), Some(dir)) = (name, a.positional()) else {
        return Err("usage: mtt trace <program> <count> <dir>".into());
    };
    a.finish()?;
    let p = program(&name)?;
    if let Err(e) = std::fs::create_dir_all(&dir) {
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

/// `cmd` runs only each `--tools` spec's scheduler and noise maker, so a
/// spec that sets anything else is refused rather than silently dropped.
fn scheduler_and_noise_only(g: &Global, cmd: &str) -> Result<(), String> {
    for spec in g.tools.iter().flatten() {
        if let Some(clause) = spec.beyond_scheduler_and_noise() {
            return Err(format!(
                "--tools: `{cmd}` runs only a tool's scheduler and noise, but `{}` sets `{clause}`",
                spec.canonical()
            ));
        }
    }
    Ok(())
}

fn explain_cmd(mut a: Args, g: &Global) -> Result<ExitCode, String> {
    let mut opts = explain::ExplainOptions {
        seed_fail: a.number(&["--seed-fail"])?,
        seed_pass: a.number(&["--seed-pass"])?,
        ..Default::default()
    };
    opts.scan = a.count_option(&["--scan"])?.unwrap_or(opts.scan);
    if let Some(v) = a.value(&["--tool"], "a spec")? {
        let spec =
            ToolSpec::parse(&v).map_err(|e| format!("--tool: invalid spec\n{}", e.render()))?;
        opts.tool = Some(spec);
    }
    let annotate = a.value(&["--annotate"], "a file path")?;
    let timeline = a.flag(&["--timeline"]);
    let diff = a.flag(&["--diff"]);
    let csv = a.flag(&["--csv"]);
    let name = a.positional().ok_or(
        "usage: mtt explain <program> [--seed-fail N] [--seed-pass N] \
         [--timeline] [--diff] [--annotate FILE] [--scan N] [--csv] [--tool SPEC]",
    )?;
    a.finish()?;
    let p = program(&name)?;
    let e = g.on_pool("explain", |pool| explain::explain_on(&p, &opts, pool))??;
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

fn trace_check(mut a: Args) -> Result<ExitCode, String> {
    let path = a
        .positional()
        .ok_or("usage: mtt trace-check <file.ndjson>")?;
    a.finish()?;
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mtt: read {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    match mtt_causal::check_annotated(&text) {
        Ok(n) => {
            println!("{path}: annotated trace conforms to the schema ({n} record(s))");
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn profile_cmd(mut a: Args, g: &Global) -> Result<ExitCode, String> {
    let csv = a.flag(&["--csv"]);
    let timing = a.flag(&["--timing"]);
    let annotate_dir = a.value(&["--annotate"], "a directory")?;
    let chrome_path = a.value(&["--chrome-trace"], "a file path")?;
    let key = a.positional().ok_or_else(|| {
        format!(
            "usage: mtt profile <{}|all> [runs] [--csv] [--timing] [--annotate DIR] \
             [--chrome-trace FILE]",
            profile::PROFILE_KEYS.join("|")
        )
    })?;
    let runs = a.count("the run count", 20)?;
    a.finish()?;
    let keys: Vec<&str> = if key == "all" {
        profile::PROFILE_KEYS.to_vec()
    } else {
        // An unknown key fails before the run log or a journal is opened.
        profile::programs_for(&key)?;
        vec![key.as_str()]
    };
    if chrome_path.is_some() && keys.len() > 1 {
        return Err("--chrome-trace needs a single profile key, not `all`".into());
    }
    let mut log = g.open_run_log()?;
    for key in keys {
        // A profile needs full hot-site maps, which the journal's scalar
        // metric summary cannot round-trip, so it never resumes: `cli_spec`
        // rejects `--resume` for it.
        let sink = g
            .open_journal(&format!("profile-{key}"))?
            .and_then(|j| j.sink);
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
        let report = profile::run_profile(key, &opts, |line| {
            if let Some(log) = &mut log {
                log.write(&line);
            }
        })?;
        journal_written(&sink)?;
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
    }
    log.map_or(Ok(()), RunLog::finish)?;
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

fn status_cmd(mut a: Args) -> Result<ExitCode, String> {
    let target = a
        .positional()
        .ok_or("usage: mtt status <dir|file.ndjson>")?;
    a.finish()?;
    for (path, summary) in load_summaries(&target)? {
        print!("{}: {}", path.display(), summary.render());
    }
    Ok(ExitCode::SUCCESS)
}

fn watch_cmd(mut a: Args) -> Result<ExitCode, String> {
    let interval_ms = a.number(&["--interval-ms"])?.unwrap_or(1000);
    let max_polls = a.count_option(&["--max-polls"])?.unwrap_or(u64::MAX);
    let target = a
        .positional()
        .ok_or("usage: mtt watch <dir|file.ndjson> [--interval-ms N] [--max-polls N]")?;
    a.finish()?;
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

fn journal_check(mut a: Args) -> Result<ExitCode, String> {
    let target = a
        .positional()
        .ok_or("usage: mtt journal-check <dir|file.ndjson>")?;
    a.finish()?;
    for path in journal_files(&target)? {
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
fn tools_cmd(mut a: Args) -> Result<ExitCode, String> {
    let file = a.value(&["--file"], "a file path")?;
    let verb = a.positional().unwrap_or_else(|| "list".into());
    if file.is_some() && verb != "validate" {
        return Err(format!("tools {verb}: unexpected argument `--file`"));
    }
    match verb.as_str() {
        "list" => {
            let json = a.flag(&["--json"]);
            a.finish()?;
            if json {
                println!("{}", mtt_json::to_string(&mtt_tools::catalog_json()));
                return Ok(ExitCode::SUCCESS);
            }
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
            Ok(ExitCode::SUCCESS)
        }
        "specs" => {
            a.finish()?;
            for s in mtt_tools::STANDARD_ROSTER_SPECS {
                let spec = ToolSpec::parse(s).expect("standard roster specs are valid");
                println!("{}", spec.canonical());
            }
            Ok(ExitCode::SUCCESS)
        }
        "describe" => {
            let text = a.positional().ok_or("usage: mtt tools describe <spec>")?;
            a.finish()?;
            let spec = match ToolSpec::parse(&text) {
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
                a.finish()?;
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
            let specs: Vec<String> = std::iter::from_fn(|| a.positional()).collect();
            a.finish()?;
            if specs.is_empty() {
                return Err("usage: mtt tools validate <spec...> | --file FILE".into());
            }
            for text in &specs {
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

fn metrics_check(mut a: Args) -> Result<ExitCode, String> {
    let path = a
        .positional()
        .ok_or("usage: mtt metrics-check <file.ndjson>")?;
    a.finish()?;
    let unreadable = |e: std::io::Error| {
        eprintln!("mtt: read {path}: {e}");
        Ok(ExitCode::FAILURE)
    };
    let file = match std::fs::File::open(&path) {
        Ok(f) => f,
        Err(e) => return unreadable(e),
    };
    // Line by line, so a large log is never loaded whole.
    let mut checked = 0u64;
    for (i, line) in BufReader::new(file).lines().enumerate() {
        let line = match line {
            Ok(line) => line,
            Err(e) => return unreadable(e),
        };
        if line.trim().is_empty() {
            continue;
        }
        if let Err(msg) = check_run_log_line(&line) {
            eprintln!("{path}:{}: {msg}", i + 1);
            return Ok(ExitCode::FAILURE);
        }
        checked += 1;
    }
    if checked == 0 {
        eprintln!("{path}: no run-log lines found");
        return Ok(ExitCode::FAILURE);
    }
    println!("{path}: {checked} run-log line(s) conform to the schema");
    Ok(ExitCode::SUCCESS)
}

/// `mtt gen list|describe|dump`: inspect the generated population
/// without scoring it. Generation is fast and serial, so no job pool.
fn gen_cmd(mut a: Args) -> Result<ExitCode, String> {
    let mut opts = mtt_gen::GenOptions::default();
    opts.seed = a.number(&["--seed"])?.unwrap_or(opts.seed);
    opts.families = a.count_option(&["--families"])?.unwrap_or(opts.families);
    let verb = a.positional().unwrap_or_else(|| "list".into());
    let id = if verb == "list" { None } else { a.positional() };
    a.finish()?;
    match verb.as_str() {
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
            let id = id.ok_or("gen describe needs a family id (see `mtt gen list`)")?;
            let fam = mtt_gen::family_by_id(&opts, &id)
                .ok_or_else(|| format!("no family `{id}` in the first {} draws", opts.families))?;
            print!("{}", fam.describe());
            Ok(ExitCode::SUCCESS)
        }
        "dump" => {
            let id = id.ok_or("gen dump needs a family or member name")?;
            for f in mtt_gen::generate_families(&opts) {
                if f.id == id {
                    for m in &f.members {
                        print!("{}", m.src);
                    }
                    return Ok(ExitCode::SUCCESS);
                }
                if let Some(m) = f.members.iter().find(|m| m.name == id) {
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
