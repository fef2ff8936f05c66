//! `mtt-bench`: run the campaign benchmark, compare two result files, or
//! print reference digests.

use mtt_campaign_bench::phases;
use mtt_campaign_bench::report::{compare, BenchSpec, Invocation};
use mtt_campaign_bench::workload::{run_pass, PassMode, Plan, Workload, DEFAULT_SEED};
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

const USAGE: &str = "\
usage: mtt-bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       mtt-bench compare OLD NEW
       mtt-bench digests SEED...

Without --workload every workload runs, each in its own process, in both
phases unless --trace picks one. Workloads: e1-grid, wide-threads,
recorded-detect, native-grid.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("mtt-bench: {e}");
            ExitCode::from(2)
        }
    }
}

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    out: Option<PathBuf>,
}

fn usage(problem: String) -> String {
    format!("{problem}\n{USAGE}")
}

fn parse_options(args: &[String], spec: &BenchSpec) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec.run_seconds,
        trace: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                o.workload = Some(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if o.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                })
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

/// Where the benchmark writes: inside the Cargo target directory.
fn output_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("mtt-bench")
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let spec = BenchSpec::load();
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, old, new] = args else {
                return Err(usage("compare takes two result files".into()));
            };
            let read =
                |p: &String| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
            let (text, worse) = compare(&read(old)?, &read(new)?, &spec)?;
            print!("{text}");
            Ok(if worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        Some("digests") => digests(&args[1..]),
        _ => {
            let o = parse_options(args, &spec).map_err(usage)?;
            match o.workload {
                Some(w) => one_workload(w, &o, &spec),
                None => every_workload(&o),
            }
        }
    }
}

fn one_workload(w: Workload, o: &Options, spec: &BenchSpec) -> Result<ExitCode, String> {
    let scratch = output_dir().join(format!("run-{}", std::process::id()));
    let plan = Plan::full(w, o.seed, scratch.clone());
    let traced = o.trace == Some(true);
    let inv: Invocation = if traced {
        let spans = output_dir()
            .join("trace")
            .join(format!("{}-seed{}.ndjson", w.name(), o.seed));
        phases::traced(&plan, &spans)
    } else {
        phases::timed(&plan, Duration::from_secs(o.seconds))
    };
    let _ = std::fs::remove_dir_all(&scratch);

    let defs = if traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut stdout = std::io::stdout().lock();
    for m in &inv.metrics {
        writeln!(stdout, "{}", m.line(w.name())).map_err(|e| e.to_string())?;
    }
    match &inv.check {
        Ok(()) => writeln!(stdout, "check=ok"),
        Err(why) => writeln!(stdout, "check=FAIL {why}"),
    }
    .map_err(|e| e.to_string())?;
    if let Some(path) = &o.out {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        writeln!(f, "{}", inv.record(defs)?.dump())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let result = match inv.result(defs) {
        Ok(json) => json,
        Err(e) if inv.check.is_err() => {
            writeln!(stdout, "mtt-bench: {e}").map_err(|e| e.to_string())?;
            return Ok(ExitCode::FAILURE);
        }
        Err(e) => return Err(e),
    };
    writeln!(stdout, "{}", result.dump()).map_err(|e| e.to_string())?;
    Ok(if inv.check.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run each workload in a child process of its own, so `peak_rss_mb` is
/// per workload.
fn every_workload(o: &Options) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let phases = match o.trace {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    let mut ok = true;
    for w in Workload::ALL {
        for &trace in &phases {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name()])
                .args(["--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if let Some(out) = &o.out {
                cmd.arg("--out").arg(out);
            }
            let status = cmd
                .status()
                .map_err(|e| format!("run {}: {e}", exe.display()))?;
            ok &= status.success();
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Print `workload seed digest` reference lines for the deterministic
/// workloads, one bare full-size pass each (recording does not change the
/// report).
fn digests(seeds: &[String]) -> Result<ExitCode, String> {
    for s in seeds {
        let seed: u64 = s.parse().map_err(|e| format!("seed `{s}`: {e}"))?;
        for w in Workload::ALL.into_iter().filter(|w| !w.is_native()) {
            let plan = Plan::full(w, seed, output_dir().join("digests"));
            let bare = PassMode {
                bare: true,
                ..PassMode::default()
            };
            let pass = run_pass(&plan, bare, "digest")?;
            println!("{} {seed} {:016x}", w.name(), pass.digest);
        }
    }
    Ok(ExitCode::SUCCESS)
}
