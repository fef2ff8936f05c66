//! The single source of truth for the `mtt` command-line surface.
//!
//! The binary's `help` text is generated from these tables, and the CLI
//! tests assert that both the generated help and the README's command
//! table cover every entry — so a new subcommand or flag that is added
//! here (and only here) cannot silently drift out of the documentation.
//! The binary also enforces which commands use each global flag
//! ([`FlagSpec::used_by`]): the others reject it.

/// One `mtt` subcommand.
pub struct CommandSpec {
    /// Subcommand name as typed.
    pub name: &'static str,
    /// Argument synopsis (may be empty).
    pub args: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// One global flag (accepted before or after any subcommand).
pub struct FlagSpec {
    /// Flag spelling(s), e.g. `--jobs N | -j N`.
    pub flags: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// The commands that use the flag; the others reject it (exit 2).
    /// `None`: every command accepts it, because it never changes output.
    pub used_by: Option<&'static [&'static str]>,
}

/// Every `mtt` subcommand, in help order.
pub const SUBCOMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "list",
        args: "",
        summary: "list benchmark programs and their bugs",
    },
    CommandSpec {
        name: "lint",
        args: "<sample|file> [--json] [--deny IDS] [--allow IDS]",
        summary: "static diagnostics for a MiniProg program (--deny gates CI via exit 3)",
    },
    CommandSpec {
        name: "run",
        args: "<program> [seed]",
        summary: "run one program once and print the outcome",
    },
    CommandSpec {
        name: "trace",
        args: "<program> <n> <dir>",
        summary: "generate n annotated traces into dir",
    },
    CommandSpec {
        name: "explain",
        args: "<program> [--seed-fail N] [--seed-pass N] [--timeline] [--diff] [--annotate FILE] [--scan N] [--csv] [--tool SPEC]",
        summary: "causal post-mortem: HB timeline + failing-vs-passing schedule diff",
    },
    CommandSpec {
        name: "e1",
        args: "[runs] [--csv]",
        summary: "noise-heuristic comparison",
    },
    CommandSpec {
        name: "e1-detail",
        args: "<program> [runs]",
        summary: "per-bug find probability for one program",
    },
    CommandSpec {
        name: "cloning",
        args: "[runs]",
        summary: "§2.3 cloning/load-test driver",
    },
    CommandSpec {
        name: "e2",
        args: "[traces]",
        summary: "race detectors on annotated traces",
    },
    CommandSpec {
        name: "e3",
        args: "[attempts]",
        summary: "replay success vs drift",
    },
    CommandSpec {
        name: "e4",
        args: "<program> [runs]",
        summary: "coverage growth + run-count advice",
    },
    CommandSpec {
        name: "e5",
        args: "[runs]",
        summary: "multiout outcome distributions",
    },
    CommandSpec {
        name: "e6",
        args: "[budget]",
        summary: "exploration vs random testing",
    },
    CommandSpec {
        name: "e7",
        args: "[runs]",
        summary: "static advice: reduction + preservation",
    },
    CommandSpec {
        name: "e8",
        args: "[seed]",
        summary: "online/offline trade-off",
    },
    CommandSpec {
        name: "e10",
        args: "[--seed S] [--families N] [--runs R] [--csv|--json]",
        summary: "precision/recall + robust detection over generated variant families",
    },
    CommandSpec {
        name: "gen",
        args: "<list|describe <family>|dump <family|member>> [--seed S] [--families N]",
        summary: "inspect generated variant families: ids, mutations, ground truth, source",
    },
    CommandSpec {
        name: "e11",
        args: "[runs] [--csv|--json]",
        summary: "static vs dynamic scoreboard: per-class precision/recall",
    },
    CommandSpec {
        name: "e12",
        args: "[runs] [--csv|--json]",
        summary: "schedule-space saturation: distinct trace classes, curve AUC, unseen mass",
    },
    CommandSpec {
        name: "e13",
        args: "[runs] [--csv|--json|--model-csv]",
        summary: "model vs native differential: find probability, outcome distributions, TV distance",
    },
    CommandSpec {
        name: "profile",
        args: "<e1..e8|all> [runs] [--csv] [--timing] [--annotate DIR] [--chrome-trace FILE]",
        summary: "contention / hot-site / overhead profile (+ chrome://tracing timeline)",
    },
    CommandSpec {
        name: "status",
        args: "<dir|file.ndjson>",
        summary: "one-shot progress/ETA/utilization view of campaign journals",
    },
    CommandSpec {
        name: "watch",
        args: "<dir|file.ndjson> [--interval-ms N] [--max-polls N]",
        summary: "poll campaign journals until every campaign completes",
    },
    CommandSpec {
        name: "tools",
        args: "[list [--json]|specs|describe <spec>|validate <spec...|--file F>]",
        summary: "the component registry: list, describe, and validate tool specs",
    },
    CommandSpec {
        name: "metrics-check",
        args: "<file.ndjson>",
        summary: "validate an NDJSON run log against the schema",
    },
    CommandSpec {
        name: "trace-check",
        args: "<file.ndjson>",
        summary: "validate an annotated trace against the schema",
    },
    CommandSpec {
        name: "journal-check",
        args: "<dir|file.ndjson>",
        summary: "strictly validate campaign journals against schema v4 (v1-v3 accepted; exit 2 on corruption)",
    },
    CommandSpec {
        name: "all",
        args: "",
        summary: "every experiment with small defaults",
    },
    CommandSpec {
        name: "help",
        args: "",
        summary: "this listing",
    },
];

/// Campaign-shaped commands: they take the campaign knobs.
const CAMPAIGNS: &[&str] = &["e1", "e1-detail"];

/// The commands whose tool roster `--tools`/`--tools-file` replaces.
const ROSTERS: &[&str] = &["e1", "e1-detail", "profile", "e5", "cloning"];

/// The commands that journal their cells: every experiment but the serial
/// E8, plus `explain` and, last, `profile`.
const JOURNALED: &[&str] = &[
    "explain",
    "e1",
    "e1-detail",
    "cloning",
    "e2",
    "e3",
    "e4",
    "e5",
    "e6",
    "e7",
    "e10",
    "e11",
    "e12",
    "e13",
    "profile",
];

/// The journaled commands that can resume: all but `profile`, whose
/// per-site maps cannot round-trip through a journal.
const RESUMABLE: &[&str] = JOURNALED.split_at(JOURNALED.len() - 1).0;

/// Every global flag, in help order.
pub const GLOBAL_FLAGS: &[FlagSpec] = &[
    FlagSpec {
        flags: "--jobs N | -j N",
        summary: "worker threads (default: all cores; output is byte-identical for every N)",
        used_by: None,
    },
    FlagSpec {
        flags: "--budget-ms N",
        summary: "per-run wall-clock budget (over-budget runs land in the timeouts column)",
        used_by: Some(CAMPAIGNS),
    },
    FlagSpec {
        flags: "--quiet | -q",
        summary: "no progress line, no campaign summary",
        used_by: None,
    },
    FlagSpec {
        flags: "--metrics FILE",
        summary: "write an NDJSON run log, one record per run",
        used_by: Some(&["e1", "e1-detail", "profile"]),
    },
    FlagSpec {
        flags: "--tools SPEC[,SPEC...]",
        summary: "replace the tool roster with parsed specs",
        used_by: Some(ROSTERS),
    },
    FlagSpec {
        flags: "--tools-file FILE",
        summary: "like --tools, one spec per line (# comments allowed)",
        used_by: Some(ROSTERS),
    },
    FlagSpec {
        flags: "--journal DIR",
        summary: "append a durable NDJSON flight-recorder journal to DIR/<label>.ndjson",
        used_by: Some(JOURNALED),
    },
    FlagSpec {
        flags: "--resume",
        summary: "with --journal: skip cells a previous journal completed (byte-identical output)",
        used_by: Some(RESUMABLE),
    },
    FlagSpec {
        flags: "--backend model|native",
        summary: "execution engine: deterministic model (default) or real std::thread",
        used_by: Some(CAMPAIGNS),
    },
];

/// The first global flag among `args` (by any of its spellings) that the
/// subcommand `cmd` does not use. `None` for an unknown command, which
/// fails on its own, and for `mtt all`, which applies each flag to the
/// experiments that use it.
pub fn unsupported_flag(cmd: &str, args: &[String]) -> Option<&'static str> {
    if cmd == "all" || !SUBCOMMANDS.iter().any(|c| c.name == cmd) {
        return None;
    }
    GLOBAL_FLAGS
        .iter()
        .filter(|f| f.used_by.is_some_and(|cmds| !cmds.contains(&cmd)))
        .flat_map(|f| f.flags.split_whitespace().filter(|w| w.starts_with('-')))
        .find(|name| args.iter().any(|a| a == name))
}

/// The `mtt help` text, generated from the tables above.
pub fn usage() -> String {
    let mut out = String::from("usage: mtt <command> [args] [global flags]\n\ncommands:\n");
    let width = SUBCOMMANDS
        .iter()
        .map(|c| {
            c.name.len()
                + if c.args.is_empty() {
                    0
                } else {
                    c.args.len() + 1
                }
        })
        .max()
        .unwrap_or(0)
        .min(34);
    for c in SUBCOMMANDS {
        let head = if c.args.is_empty() {
            c.name.to_string()
        } else {
            format!("{} {}", c.name, c.args)
        };
        if head.len() > width {
            out.push_str(&format!(
                "  mtt {head}\n  {:w$}      {}\n",
                "",
                c.summary,
                w = width
            ));
        } else {
            out.push_str(&format!("  mtt {head:width$}  {}\n", c.summary));
        }
    }
    out.push_str(
        "\nglobal flags (a command rejects a flag it does not use; \
         `mtt all` applies each to the experiments that use it):\n",
    );
    let fwidth = GLOBAL_FLAGS
        .iter()
        .map(|f| f.flags.len())
        .max()
        .unwrap_or(0);
    for f in GLOBAL_FLAGS {
        out.push_str(&format!(
            "  {:fwidth$}  {}\n  {:fwidth$}  {}\n",
            f.flags,
            f.summary,
            "",
            used_by_line(f)
        ));
    }
    out.push_str("\nsee the crate docs (`cargo doc -p mtt-experiment`) for per-command details");
    out
}

/// The help line naming the commands that use flag `f`.
fn used_by_line(f: &FlagSpec) -> String {
    match f.used_by {
        None => "used by every command".to_string(),
        Some(cmds) => format!("used by {}", cmds.join(", ")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_covers_every_command_and_flag() {
        let text = usage();
        for c in SUBCOMMANDS {
            assert!(text.contains(c.name), "help missing `{}`", c.name);
            assert!(
                text.contains(c.summary),
                "help missing summary of `{}`",
                c.name
            );
        }
        for f in GLOBAL_FLAGS {
            assert!(text.contains(f.flags), "help missing `{}`", f.flags);
        }
        // The regression that motivated this module: profile's --timing flag
        // existed in the binary but not in the help text.
        assert!(text.contains("--timing"));
        assert!(text.contains("--annotate"));
    }

    #[test]
    fn unsupported_flag_follows_the_used_by_lists() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let e12 = args(&["e12", "4", "-j", "2", "-q", "--backend", "native"]);
        assert_eq!(unsupported_flag("e12", &e12), Some("--backend"));
        assert_eq!(unsupported_flag("e1", &e12), None);
        assert_eq!(unsupported_flag("all", &e12), None);
        assert_eq!(unsupported_flag("frobnicate", &e12), None);
        // A typo in a `used_by` list would reject the flag everywhere.
        for f in GLOBAL_FLAGS {
            for cmd in f.used_by.unwrap_or(&[]) {
                assert!(SUBCOMMANDS.iter().any(|c| c.name == *cmd), "{cmd}");
            }
        }
    }

    #[test]
    fn every_journaled_command_but_profile_resumes() {
        let resume = GLOBAL_FLAGS.iter().find(|f| f.flags == "--resume").unwrap();
        let journal = GLOBAL_FLAGS
            .iter()
            .find(|f| f.flags == "--journal DIR")
            .unwrap();
        let mut resumable = resume.used_by.unwrap().to_vec();
        resumable.push("profile");
        assert_eq!(resumable, journal.used_by.unwrap());
    }

    #[test]
    fn command_names_are_unique() {
        let mut names: Vec<_> = SUBCOMMANDS.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SUBCOMMANDS.len());
    }
}
