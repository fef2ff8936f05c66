//! The component registry: every named, parameterized factory a
//! [`ToolSpec`](crate::ToolSpec) can reference, behind the framework's open
//! traits (`Scheduler`, `NoiseMaker`, `EventSink`).
//!
//! The catalog is the single source of truth three ways: the parser
//! validates specs against it, each entry builds its own component for
//! [`resolve`](crate::ToolSpec::resolve), and the documentation table in
//! EXPERIMENTS.md plus `mtt tools list` are generated from it (with a
//! drift-guard test), so a component added here cannot exist without
//! being documented.

use crate::config::{NoiseFactory, SchedulerFactory, SinkFactory};
use crate::spec::{ComponentSpec, SinkKind};
use mtt_coverage::{SiteCoverage, SyncCoverage};
use mtt_deadlock::{LockOrderGraph, WaitsForMonitor};
use mtt_instrument::{EventSink, InstrumentationPlan};
use mtt_noise::{placement, CoverageDirected, HaltOneThread, Mixed, RandomSleep, RandomYield};
use mtt_race::{EraserLockset, VectorClockDetector};
use mtt_runtime::{FifoScheduler, NoNoise, NoiseMaker, PctScheduler, RandomScheduler};
use mtt_runtime::{RoundRobinScheduler, Scheduler};
use std::sync::Arc;

/// Which slot of a tool stack a component fills.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ComponentKind {
    /// Thread schedulers (the first component of every spec).
    Scheduler,
    /// Noise heuristics (`noise=`).
    Noise,
    /// Noise placement plans (`place=`).
    Placement,
    /// Data-race detector sinks (`race=`).
    Race,
    /// Deadlock detector sinks (`deadlock=`).
    Deadlock,
    /// Coverage model sinks (`cov=`).
    Coverage,
}

impl ComponentKind {
    /// Lowercase label used in errors, tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            ComponentKind::Scheduler => "scheduler",
            ComponentKind::Noise => "noise",
            ComponentKind::Placement => "placement",
            ComponentKind::Race => "race",
            ComponentKind::Deadlock => "deadlock",
            ComponentKind::Coverage => "coverage",
        }
    }

    /// The kind a sink clause key maps to.
    pub fn of_sink(kind: SinkKind) -> Self {
        match kind {
            SinkKind::Race => ComponentKind::Race,
            SinkKind::Deadlock => ComponentKind::Deadlock,
            SinkKind::Coverage => ComponentKind::Coverage,
        }
    }
}

/// What values a parameter accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamKind {
    /// A probability in `[0, 1]`.
    Probability,
    /// An integer `>= 1` (strengths, durations, depths, lengths).
    PositiveInt,
}

/// One positional parameter of a component.
#[derive(Clone, Copy, Debug)]
pub struct ParamSpec {
    /// Parameter name (documentation only; parameters are positional).
    pub name: &'static str,
    /// Value used when the spec omits the parameter.
    pub default: f64,
    /// Accepted range.
    pub kind: ParamKind,
}

/// A component's effective parameters: the spec's, with the catalog
/// defaults filled in, in spec order. Slots past the entry's arity are 0.
pub type Params = [f64; 3];

/// How a catalog entry builds its component from its [`Params`].
#[derive(Clone, Copy, Debug)]
pub enum Build {
    /// A scheduler factory.
    Scheduler(fn(Params) -> SchedulerFactory),
    /// A noise factory.
    Noise(fn(Params) -> NoiseFactory),
    /// A noise placement plan.
    Placement(fn() -> InstrumentationPlan),
    /// A detector or coverage sink factory.
    Sink(fn() -> SinkFactory),
}

/// One registry entry.
#[derive(Clone, Copy, Debug)]
pub struct ComponentInfo {
    /// Slot this component fills.
    pub kind: ComponentKind,
    /// Spec id.
    pub id: &'static str,
    /// Positional parameters, in spec order.
    pub params: &'static [ParamSpec],
    /// One-line description.
    pub summary: &'static str,
    /// How [`resolve`](crate::ToolSpec::resolve) builds it.
    pub build: Build,
}

/// Every component a spec can name, in (kind, catalog) order.
pub fn catalog() -> &'static [ComponentInfo] {
    const CATALOG: &[ComponentInfo] = &[
        // Schedulers.
        ComponentInfo {
            kind: ComponentKind::Scheduler,
            id: "sticky",
            params: &[ParamSpec { name: "stickiness", default: 0.9, kind: ParamKind::Probability }],
            summary: "seeded random scheduler that keeps the running thread with the given probability (the realistic-JVM baseline)",
            build: Build::Scheduler(|p| scheduler(move |s| RandomScheduler::sticky(s, p[0]))),
        },
        ComponentInfo {
            kind: ComponentKind::Scheduler,
            id: "random",
            params: &[],
            summary: "seeded uniform random scheduler (sticky with stickiness 0)",
            build: Build::Scheduler(|_| scheduler(RandomScheduler::new)),
        },
        ComponentInfo {
            kind: ComponentKind::Scheduler,
            id: "fifo",
            params: &[],
            summary: "deterministic run-to-block scheduler (always picks the lowest runnable thread)",
            build: Build::Scheduler(|_| scheduler(|_| FifoScheduler)),
        },
        ComponentInfo {
            kind: ComponentKind::Scheduler,
            id: "rr",
            params: &[],
            summary: "deterministic round-robin scheduler",
            build: Build::Scheduler(|_| scheduler(|_| RoundRobinScheduler::new())),
        },
        ComponentInfo {
            kind: ComponentKind::Scheduler,
            id: "pct",
            params: &[
                ParamSpec { name: "depth", default: 3.0, kind: ParamKind::PositiveInt },
                ParamSpec { name: "expected_len", default: 150.0, kind: ParamKind::PositiveInt },
            ],
            summary: "PCT priority scheduler with bug depth d over ~expected_len scheduling points",
            build: Build::Scheduler(|p| scheduler(move |s| PctScheduler::new(s, p[0] as u32, p[1] as u64))),
        },
        // Noise heuristics.
        ComponentInfo {
            kind: ComponentKind::Noise,
            id: "none",
            params: &[],
            summary: "no noise",
            build: Build::Noise(|_| noise(|_| NoNoise)),
        },
        ComponentInfo {
            kind: ComponentKind::Noise,
            id: "yield",
            params: &[ParamSpec { name: "p", default: 0.1, kind: ParamKind::Probability }],
            summary: "forced yield with probability p at each scheduling point",
            build: Build::Noise(|p| noise(move |s| RandomYield::new(s, p[0]))),
        },
        ComponentInfo {
            kind: ComponentKind::Noise,
            id: "sleep",
            params: &[
                ParamSpec { name: "p", default: 0.1, kind: ParamKind::Probability },
                ParamSpec { name: "strength", default: 20.0, kind: ParamKind::PositiveInt },
            ],
            summary: "virtual-time sleep of up to `strength` ticks with probability p",
            build: Build::Noise(|p| noise(move |s| RandomSleep::new(s, p[0], p[1] as u32))),
        },
        ComponentInfo {
            kind: ComponentKind::Noise,
            id: "mixed",
            params: &[
                ParamSpec { name: "p", default: 0.2, kind: ParamKind::Probability },
                ParamSpec { name: "strength", default: 20.0, kind: ParamKind::PositiveInt },
            ],
            summary: "random mix of yields and sleeps",
            build: Build::Noise(|p| noise(move |s| Mixed::new(s, p[0], p[1] as u32))),
        },
        ComponentInfo {
            kind: ComponentKind::Noise,
            id: "halt",
            params: &[
                ParamSpec { name: "p", default: 0.05, kind: ParamKind::Probability },
                ParamSpec { name: "duration", default: 200.0, kind: ParamKind::PositiveInt },
            ],
            summary: "occasionally halts one thread for `duration` ticks",
            build: Build::Noise(|p| noise(move |s| HaltOneThread::new(s, p[0], p[1] as u32))),
        },
        ComponentInfo {
            kind: ComponentKind::Noise,
            id: "coverage",
            params: &[
                ParamSpec { name: "p_hot", default: 0.6, kind: ParamKind::Probability },
                ParamSpec { name: "p_cold", default: 0.05, kind: ParamKind::Probability },
                ParamSpec { name: "strength", default: 20.0, kind: ParamKind::PositiveInt },
            ],
            summary: "coverage-directed noise: strong at unseen (site, site) pairs, weak elsewhere",
            build: Build::Noise(|p| noise(move |s| CoverageDirected::new(s, p[0], p[1], p[2] as u32))),
        },
        // Placement plans.
        ComponentInfo {
            kind: ComponentKind::Placement,
            id: "everywhere",
            params: &[],
            summary: "consult the noise maker at every instrumentation point (the default)",
            build: Build::Placement(placement::everywhere),
        },
        ComponentInfo {
            kind: ComponentKind::Placement,
            id: "sync",
            params: &[],
            summary: "noise at synchronization operations only (locks, waits, notifies)",
            build: Build::Placement(placement::sync_only),
        },
        ComponentInfo {
            kind: ComponentKind::Placement,
            id: "vars",
            params: &[],
            summary: "noise at shared-variable accesses only",
            build: Build::Placement(placement::var_access_only),
        },
        // Race detector sinks.
        ComponentInfo {
            kind: ComponentKind::Race,
            id: "lockset",
            params: &[],
            summary: "Eraser-style lockset data-race detector",
            build: Build::Sink(|| sink(EraserLockset::new)),
        },
        ComponentInfo {
            kind: ComponentKind::Race,
            id: "hb",
            params: &[],
            summary: "vector-clock happens-before data-race detector",
            build: Build::Sink(|| sink(VectorClockDetector::new)),
        },
        // Deadlock detector sinks.
        ComponentInfo {
            kind: ComponentKind::Deadlock,
            id: "lockorder",
            params: &[],
            summary: "lock-order graph: cycles are deadlock potentials",
            build: Build::Sink(|| sink(LockOrderGraph::new)),
        },
        ComponentInfo {
            kind: ComponentKind::Deadlock,
            id: "waitsfor",
            params: &[],
            summary: "waits-for monitor for actually-blocked cycles",
            build: Build::Sink(|| sink(WaitsForMonitor::new)),
        },
        // Coverage model sinks.
        ComponentInfo {
            kind: ComponentKind::Coverage,
            id: "sites",
            params: &[],
            summary: "source-site coverage model",
            build: Build::Sink(|| sink(SiteCoverage::new)),
        },
        ComponentInfo {
            kind: ComponentKind::Coverage,
            id: "sync",
            params: &[],
            summary: "synchronization-operation coverage model",
            build: Build::Sink(|| sink(SyncCoverage::new)),
        },
    ];
    CATALOG
}

/// A scheduler factory from a constructor taking the run seed.
fn scheduler<S: Scheduler + 'static>(
    make: impl Fn(u64) -> S + Send + Sync + 'static,
) -> SchedulerFactory {
    Arc::new(move |seed| Box::new(make(seed)))
}

/// A noise factory from a constructor taking the run seed.
fn noise<N: NoiseMaker + 'static>(make: impl Fn(u64) -> N + Send + Sync + 'static) -> NoiseFactory {
    Arc::new(move |seed| Box::new(make(seed)))
}

/// A sink factory from a constructor.
fn sink<S: EventSink + 'static>(make: fn() -> S) -> SinkFactory {
    Arc::new(move || Box::new(make()))
}

/// Look one component up by kind and id.
pub fn lookup(kind: ComponentKind, id: &str) -> Option<&'static ComponentInfo> {
    catalog().iter().find(|c| c.kind == kind && c.id == id)
}

/// The ids available for one kind, in catalog order.
pub fn ids(kind: ComponentKind) -> Vec<&'static str> {
    catalog()
        .iter()
        .filter(|c| c.kind == kind)
        .map(|c| c.id)
        .collect()
}

/// Validate one component reference against the catalog: the id must
/// exist for the kind, the parameter count must not exceed the declared
/// arity, and every given parameter must be in range. Used by the spec
/// parser (which anchors the message to a column) and by
/// [`resolve`](crate::ToolSpec::resolve) for programmatically built specs.
pub fn validate_component(
    kind: ComponentKind,
    spec: &ComponentSpec,
) -> Result<&'static ComponentInfo, String> {
    let Some(info) = lookup(kind, &spec.id) else {
        return Err(format!(
            "unknown {} component `{}` (known: {})",
            kind.label(),
            spec.id,
            ids(kind).join(", ")
        ));
    };
    if spec.params.len() > info.params.len() {
        return Err(format!(
            "`{}` takes at most {} parameter(s), got {}",
            spec.id,
            info.params.len(),
            spec.params.len()
        ));
    }
    for (value, param) in spec.params.iter().zip(info.params) {
        match param.kind {
            ParamKind::Probability => {
                if !(0.0..=1.0).contains(value) {
                    return Err(format!(
                        "`{}` parameter `{}` must be a probability in [0, 1], got {value}",
                        spec.id, param.name
                    ));
                }
            }
            ParamKind::PositiveInt => {
                if value.fract() != 0.0 || *value < 1.0 || *value > f64::from(u32::MAX) {
                    return Err(format!(
                        "`{}` parameter `{}` must be an integer >= 1, got {value}",
                        spec.id, param.name
                    ));
                }
            }
        }
    }
    Ok(info)
}

/// The effective value of parameter `i`: the spec's when given, the
/// catalog default otherwise. Callers must have validated first.
pub fn param(info: &ComponentInfo, spec: &ComponentSpec, i: usize) -> f64 {
    spec.params
        .get(i)
        .copied()
        .unwrap_or_else(|| info.params[i].default)
}

/// The component catalog as a markdown table — embedded verbatim in
/// EXPERIMENTS.md between `<!-- registry:catalog:begin/end -->` markers
/// and guarded by a drift test, so docs cannot fall behind the registry.
pub fn catalog_markdown() -> String {
    let mut out =
        String::from("| kind | id | parameters (defaults) | summary |\n|---|---|---|---|\n");
    for c in catalog() {
        let params = if c.params.is_empty() {
            "—".to_string()
        } else {
            c.params
                .iter()
                .map(|p| format!("`{}={}`", p.name, p.default))
                .collect::<Vec<_>>()
                .join(" ")
        };
        out.push_str(&format!(
            "| {} | `{}` | {} | {} |\n",
            c.kind.label(),
            c.id,
            params,
            c.summary
        ));
    }
    out
}

/// `mtt tools list --json`: schema `mtt-tools-catalog`, version 1. The
/// catalog's owned mirror, since its `&'static str` fields cannot be
/// decoded back.
#[derive(Clone, Debug)]
pub struct CatalogJson {
    /// `mtt-tools-catalog`.
    pub schema: String,
    /// 1.
    pub version: u64,
    /// Every component, in catalog order.
    pub components: Vec<ComponentJson>,
    /// [`STANDARD_ROSTER_SPECS`](crate::STANDARD_ROSTER_SPECS), in order.
    pub standard_roster: Vec<String>,
}

mtt_json::json_struct!(CatalogJson {
    schema,
    version,
    components,
    standard_roster,
});

/// One [`ComponentInfo`] of [`CatalogJson`].
#[derive(Clone, Debug)]
pub struct ComponentJson {
    /// [`ComponentKind::label`].
    pub kind: String,
    /// Spec id.
    pub id: String,
    /// Positional parameters, in spec order.
    pub params: Vec<ParamJson>,
    /// One-line description.
    pub summary: String,
}

mtt_json::json_struct!(ComponentJson {
    kind,
    id,
    params,
    summary,
});

/// One [`ParamSpec`] of [`ComponentJson`].
#[derive(Clone, Debug)]
pub struct ParamJson {
    /// Parameter name.
    pub name: String,
    /// Value used when the spec omits the parameter.
    pub default: f64,
    /// `probability` or `positive-int`.
    pub kind: String,
}

mtt_json::json_struct!(ParamJson {
    name,
    default,
    kind,
});

/// The catalog (plus the standard roster's canonical specs) as JSON —
/// the `mtt tools list --json` payload, golden-snapshotted.
pub fn catalog_json() -> CatalogJson {
    let param = |p: &ParamSpec| ParamJson {
        name: p.name.into(),
        default: p.default,
        kind: match p.kind {
            ParamKind::Probability => "probability",
            ParamKind::PositiveInt => "positive-int",
        }
        .into(),
    };
    CatalogJson {
        schema: "mtt-tools-catalog".into(),
        version: 1,
        components: catalog()
            .iter()
            .map(|c| ComponentJson {
                kind: c.kind.label().into(),
                id: c.id.into(),
                params: c.params.iter().map(param).collect(),
                summary: c.summary.into(),
            })
            .collect(),
        standard_roster: crate::config::STANDARD_ROSTER_SPECS
            .iter()
            .map(|s| s.to_string())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_ids_are_unique_per_kind() {
        let mut seen = std::collections::BTreeSet::new();
        for c in catalog() {
            assert!(
                seen.insert((c.kind.label(), c.id)),
                "duplicate catalog entry {:?} {}",
                c.kind,
                c.id
            );
        }
    }

    #[test]
    fn validation_messages_name_the_alternatives() {
        let err = validate_component(ComponentKind::Scheduler, &ComponentSpec::bare("bogus"))
            .unwrap_err();
        assert!(err.contains("sticky"), "{err}");
        assert!(err.contains("pct"), "{err}");
    }

    #[test]
    fn markdown_table_covers_every_component() {
        let md = catalog_markdown();
        for c in catalog() {
            assert!(md.contains(&format!("`{}`", c.id)), "missing {}", c.id);
        }
    }

    #[test]
    fn catalog_json_is_self_describing() {
        let j = catalog_json();
        assert_eq!(j.schema, "mtt-tools-catalog");
        assert_eq!(j.components.len(), catalog().len());
    }
}
