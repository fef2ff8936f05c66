//! [`ToolConfig`]: the resolved, runnable form of a [`ToolSpec`].
//!
//! This is the one home of the factory typedefs that used to be
//! copy-pasted across the experiment layer (`NoiseFactory` in campaign.rs,
//! `OptionalNoise` in cloning.rs, inline `Arc<dyn Fn…>` in
//! multiout_eval.rs). A `ToolConfig` always carries the `ToolSpec` it was
//! resolved from, so every run it configures can report the canonical spec
//! string as provenance.

use crate::registry::{self, Build, ComponentKind, Params};
use crate::spec::{ComponentSpec, ToolSpec};
use mtt_instrument::{EventSink, InstrumentationPlan};
use mtt_runtime::Execution;
use std::sync::Arc;

/// Factory producing a fresh scheduler for run seed `s`.
pub type SchedulerFactory = Arc<dyn Fn(u64) -> Box<dyn mtt_runtime::Scheduler> + Send + Sync>;
/// Factory producing a fresh noise maker for run seed `s`.
pub type NoiseFactory = Arc<dyn Fn(u64) -> Box<dyn mtt_runtime::NoiseMaker> + Send + Sync>;
/// Factory producing a fresh detector/coverage event sink per run.
pub type SinkFactory = Arc<dyn Fn() -> Box<dyn EventSink> + Send + Sync>;

/// The canonical specs of the standard experiment-E1 roster: the baseline
/// plus every heuristic of `mtt-noise`, spurious wakeups, and PCT. The
/// `name=` overrides pin the legacy display names, which is what keeps
/// spec-driven reports byte-identical to the historical hardcoded roster.
pub const STANDARD_ROSTER_SPECS: &[&str] = &[
    "sticky:0.9+name=none",
    "sticky:0.9+noise=yield:0.1+name=yield-0.1",
    "sticky:0.9+noise=yield:0.5+name=yield-0.5",
    "sticky:0.9+noise=sleep:0.1:20+name=sleep-0.1",
    "sticky:0.9+noise=sleep:0.3:20+name=sleep-0.3",
    "sticky:0.9+noise=mixed:0.2:20+name=mixed-0.2",
    "sticky:0.9+noise=halt:0.05:200+name=halt",
    "sticky:0.9+noise=coverage:0.6:0.05:20+name=coverage",
    "sticky:0.9+spurious=0.05+name=spurious-0.05",
    "pct:3:150+name=pct-d3",
];

/// One tool configuration under evaluation: scheduler + noise heuristic +
/// placement + optional detector sinks, resolved from a [`ToolSpec`].
#[derive(Clone)]
pub struct ToolConfig {
    /// Display name (the spec's `name=` override, or its canonical form).
    pub name: String,
    /// The spec this configuration was resolved from (provenance).
    pub spec: ToolSpec,
    /// Scheduler factory (fresh instance per run).
    pub scheduler: SchedulerFactory,
    /// Noise factory (fresh instance per run).
    pub noise: NoiseFactory,
    /// Where the noise maker is consulted (None = everywhere).
    pub noise_plan: Option<InstrumentationPlan>,
    /// Spurious-wakeup probability per scheduling point (None = off).
    pub spurious: Option<f64>,
    /// Which engine executes the program (model controller or real OS
    /// threads).
    pub backend: mtt_runtime::RuntimeBackend,
    /// Detector / coverage sinks attached to every run.
    pub sinks: Vec<SinkFactory>,
}

impl ToolConfig {
    /// Parse `text` and resolve it — the one-call path from grammar to
    /// runnable configuration.
    pub fn from_spec_str(text: &str) -> Result<ToolConfig, crate::spec::SpecError> {
        let spec = ToolSpec::parse(text)?;
        spec.resolve().map_err(|msg| crate::spec::SpecError {
            spec: text.to_string(),
            col: 1,
            line: None,
            message: msg,
        })
    }

    /// The canonical spec string — what run logs and annotated traces
    /// record as `tool_spec`.
    pub fn spec_string(&self) -> String {
        self.spec.canonical()
    }

    /// The "realistic JVM" baseline: a sticky random scheduler with no
    /// noise — the environment in which, per the paper, "executing the same
    /// tests repeatedly does not help" much.
    pub fn baseline() -> Self {
        Self::from_spec_str("sticky:0.9+name=none").expect("baseline spec is valid")
    }

    /// Baseline scheduler + spurious condition-variable wakeups — the
    /// injection that targets missing predicate loops specifically.
    pub fn with_spurious(p: f64) -> Self {
        Self::from_spec_str(&format!("sticky:0.9+spurious={p}+name=spurious-{p}"))
            .expect("spurious probability must be in [0, 1]")
    }

    /// PCT scheduling (no noise): the priority-based randomized scheduler
    /// with a per-run bug-finding guarantee.
    pub fn pct(depth: u32, expected_len: u64) -> Self {
        Self::from_spec_str(&format!("pct:{depth}:{expected_len}+name=pct-d{depth}"))
            .expect("pct depth and length must be >= 1")
    }

    /// The standard roster compared in experiment E1 — resolved from
    /// [`STANDARD_ROSTER_SPECS`], so the hardcoded and `--tools-file`
    /// paths are the same path.
    pub fn standard_roster() -> Vec<ToolConfig> {
        STANDARD_ROSTER_SPECS
            .iter()
            .map(|s| Self::from_spec_str(s).expect("standard roster specs are valid"))
            .collect()
    }

    /// Apply this tool's scheduler, noise, placement plan, spurious
    /// wakeups, and detector sinks to an execution for run seed `seed`.
    /// This is *the* place a tool configuration turns into execution
    /// settings: the campaign's statistics runs and the annotated-trace
    /// regeneration both call it, which is what guarantees a persisted
    /// trace replays the exact run the grid counted.
    pub fn configure<'p>(&self, exec: Execution<'p>, seed: u64, max_steps: u64) -> Execution<'p> {
        let mut exec = exec
            .scheduler((self.scheduler)(seed))
            .noise((self.noise)(seed ^ 0x9e37_79b9))
            .max_steps(max_steps)
            .backend(self.backend);
        if self.backend.is_native() {
            // Program-level randomness is seeded identically under both
            // backends so a differential comparison varies only the engine.
            exec = exec.program_seed(seed);
        }
        if let Some(plan) = &self.noise_plan {
            exec = exec.noise_plan(plan.clone());
        }
        if let Some(p) = self.spurious {
            exec = exec.program_seed(seed).spurious_wakeups(p);
        }
        for sink in &self.sinks {
            exec = exec.sink(sink());
        }
        exec
    }
}

impl ToolSpec {
    /// Resolve this spec into a runnable [`ToolConfig`]: each component is
    /// built by its registry entry. Specs built by [`ToolSpec::parse`] are
    /// already validated and cannot fail here; programmatically built specs
    /// are re-validated.
    pub fn resolve(&self) -> Result<ToolConfig, String> {
        let (Build::Scheduler(scheduler), p) = entry(ComponentKind::Scheduler, &self.scheduler)?
        else {
            unreachable!("scheduler entries build schedulers")
        };
        let (Build::Noise(noise), q) = entry(ComponentKind::Noise, &self.noise)? else {
            unreachable!("noise entries build noise makers")
        };
        let noise_plan = match &self.place {
            Some(c) => match entry(ComponentKind::Placement, c)? {
                (Build::Placement(plan), _) => Some(plan()),
                _ => unreachable!("placement entries build plans"),
            },
            None => None,
        };
        if let Some(p) = self.spurious {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("spurious probability {p} is not in [0, 1]"));
            }
        }
        let mut sinks = Vec::new();
        for (kind, c) in &self.sinks {
            let (Build::Sink(sink), _) = entry(ComponentKind::of_sink(*kind), c)? else {
                unreachable!("sink entries build sinks")
            };
            sinks.push(sink());
        }
        Ok(ToolConfig {
            name: self.display_name(),
            spec: self.clone(),
            scheduler: scheduler(p),
            noise: noise(q),
            noise_plan,
            spurious: self.spurious,
            backend: self.backend,
            sinks,
        })
    }
}

/// The registry entry `c` names for slot `kind`, validated, with its
/// effective parameters.
fn entry(kind: ComponentKind, c: &ComponentSpec) -> Result<(Build, Params), String> {
    let info = registry::validate_component(kind, c)?;
    let mut params = Params::default();
    for (i, p) in params.iter_mut().enumerate().take(info.params.len()) {
        *p = registry::param(info, c, i);
    }
    Ok((info.build, params))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_roster_keeps_the_legacy_names() {
        let roster = ToolConfig::standard_roster();
        let names: Vec<&str> = roster.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "none",
                "yield-0.1",
                "yield-0.5",
                "sleep-0.1",
                "sleep-0.3",
                "mixed-0.2",
                "halt",
                "coverage",
                "spurious-0.05",
                "pct-d3"
            ]
        );
    }

    #[test]
    fn roster_specs_roundtrip_through_the_grammar() {
        for text in STANDARD_ROSTER_SPECS {
            let spec = ToolSpec::parse(text).expect(text);
            assert_eq!(&spec.canonical(), text, "roster specs are canonical");
            spec.resolve().expect(text);
        }
    }

    #[test]
    fn constructors_match_their_specs() {
        assert_eq!(ToolConfig::baseline().name, "none");
        assert_eq!(ToolConfig::with_spurious(0.05).name, "spurious-0.05");
        assert_eq!(ToolConfig::with_spurious(0.05).spurious, Some(0.05));
        assert_eq!(ToolConfig::pct(3, 150).name, "pct-d3");
        assert_eq!(
            ToolConfig::pct(3, 150).spec_string(),
            "pct:3:150+name=pct-d3"
        );
    }

    #[test]
    fn default_parameters_are_applied_at_resolution() {
        let cfg = ToolConfig::from_spec_str("sticky+noise=sleep").unwrap();
        // Defaults come from the registry; the instantiated noise maker
        // reports its own name, proving the factory is live.
        assert_eq!((cfg.noise)(1).name(), "sleep(p=0.1,s=20)");
    }

    #[test]
    fn detector_sinks_resolve_and_attach() {
        let cfg = ToolConfig::from_spec_str("sticky:0.9+race=lockset+deadlock=lockorder+cov=sites")
            .unwrap();
        assert_eq!(cfg.sinks.len(), 3);
        // The factories produce working sinks.
        for f in &cfg.sinks {
            let mut sink = f();
            sink.finish();
        }
    }

    #[test]
    fn resolve_rejects_programmatic_garbage() {
        let mut spec = ToolSpec::bare(ComponentSpec::bare("sticky"));
        spec.spurious = Some(9.0);
        assert!(spec.resolve().is_err());
        let spec = ToolSpec::bare(ComponentSpec::bare("warp-drive"));
        assert!(spec.resolve().is_err());
    }
}
