//! Property tests for the spec grammar and the registry's resolution.
//!
//! Two laws hold for every representable spec:
//!
//! 1. **Round trip**: `parse(canonical(s)) == s` — the canonical form is a
//!    faithful, stable serialization, which is what lets run logs and
//!    annotated traces carry it for provenance.
//! 2. **Determinism**: resolving the same spec twice and running the same
//!    seeded execution produces identical outcomes — a tool configuration
//!    is a pure function of (spec, seed).

use mtt_runtime::Execution;
use mtt_tools::registry::ParamKind;
use mtt_tools::{
    catalog, ComponentInfo, ComponentKind, ComponentSpec, SinkKind, ToolSpec, STANDARD_ROSTER_SPECS,
};
use proptest::prelude::*;

/// Any registered component of the given kind, with a random valid prefix
/// of its positional parameters (omitted ones take registry defaults).
fn component_strategy(kind: ComponentKind) -> BoxedStrategy<ComponentSpec> {
    let infos: Vec<&'static ComponentInfo> = catalog().iter().filter(|c| c.kind == kind).collect();
    composed(move |rng: &mut TestRng| {
        let info = infos[rng.next_u64() as usize % infos.len()];
        let given = rng.next_u64() as usize % (info.params.len() + 1);
        let mut params = Vec::with_capacity(given);
        for p in &info.params[..given] {
            params.push(match p.kind {
                ParamKind::Probability => (rng.next_u64() % 1001) as f64 / 1000.0,
                ParamKind::PositiveInt => (1 + rng.next_u64() % 10_000) as f64,
            });
        }
        ComponentSpec {
            id: info.id.to_string(),
            params,
        }
    })
    .boxed()
}

/// Any representable [`ToolSpec`]: every registered component in every
/// slot, 0–2 sinks, optional spurious injection and display name.
fn spec_strategy() -> BoxedStrategy<ToolSpec> {
    let sched = component_strategy(ComponentKind::Scheduler);
    let noise = component_strategy(ComponentKind::Noise);
    let place = component_strategy(ComponentKind::Placement);
    let race = component_strategy(ComponentKind::Race);
    let dead = component_strategy(ComponentKind::Deadlock);
    let cov = component_strategy(ComponentKind::Coverage);
    composed(move |rng: &mut TestRng| {
        let scheduler = sched.sample(rng);
        let noise = if rng.next_u64() & 1 == 0 {
            ComponentSpec::bare("none")
        } else {
            noise.sample(rng)
        };
        let place = (rng.next_u64() & 1 == 0).then(|| place.sample(rng));
        let mut sinks = Vec::new();
        for _ in 0..rng.next_u64() % 3 {
            sinks.push(match rng.next_u64() % 3 {
                0 => (SinkKind::Race, race.sample(rng)),
                1 => (SinkKind::Deadlock, dead.sample(rng)),
                _ => (SinkKind::Coverage, cov.sample(rng)),
            });
        }
        let spurious = (rng.next_u64() & 1 == 0).then(|| (rng.next_u64() % 101) as f64 / 100.0);
        // `name=` takes the rest of the string verbatim, so names may
        // contain grammar characters like `+` (legacy "sticky+yield").
        let name = (rng.next_u64() & 3 == 0).then(|| {
            const CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789+-_.";
            let len = 1 + rng.next_u64() as usize % 12;
            (0..len)
                .map(|_| CHARSET[rng.next_u64() as usize % CHARSET.len()] as char)
                .collect::<String>()
        });
        // Backend stays model here: `resolution_is_deterministic` drives a
        // real execution, and only the model engine promises identical
        // fingerprints across runs. The canonical round-trip of
        // `backend=native` has its own unit test.
        ToolSpec {
            scheduler,
            noise,
            place,
            sinks,
            spurious,
            backend: mtt_runtime::RuntimeBackend::Model,
            name,
        }
    })
    .boxed()
}

proptest! {
    /// parse ∘ canonical is the identity on specs, and canonical is a
    /// fixed point of a further parse/print cycle.
    #[test]
    fn canonical_roundtrips_through_parse(spec in spec_strategy()) {
        let text = spec.canonical();
        let reparsed = ToolSpec::parse(&text)
            .unwrap_or_else(|e| panic!("canonical form must parse:\n{}", e.render()));
        prop_assert_eq!(&reparsed, &spec);
        prop_assert_eq!(reparsed.canonical(), text);
    }

    /// The `--tools` list format round-trips a whole roster at once
    /// (generated names never contain the `,` separator).
    #[test]
    fn comma_list_roundtrips(specs in prop::collection::vec(spec_strategy(), 1..4)) {
        let joined = specs
            .iter()
            .map(ToolSpec::canonical)
            .collect::<Vec<_>>()
            .join(",");
        let reparsed = ToolSpec::parse_list(&joined)
            .unwrap_or_else(|e| panic!("canonical list must parse:\n{}", e.render()));
        prop_assert_eq!(reparsed, specs);
    }

    /// Resolving a spec twice and driving the same seeded execution twice
    /// produces identical outcomes: fingerprint and every stats counter.
    /// This is the registry half of the determinism guarantee the
    /// campaign's byte-identical reports rest on.
    #[test]
    fn resolution_is_deterministic(spec in spec_strategy(), seed in 0u64..1 << 16) {
        let suite = mtt_suite::small::lost_update(2, 2);
        let run = || {
            let tool = spec.resolve().expect("generated specs are valid");
            let outcome = tool
                .configure(Execution::new(&suite.program), seed, 20_000)
                .run();
            let s = &outcome.stats;
            let counters = [
                s.events,
                s.sched_points,
                s.context_switches,
                u64::from(s.threads),
                s.virtual_time,
                s.scheduler_faults,
                s.noise_injections,
                s.forced_yields,
                s.spurious_wakeups,
            ];
            (outcome.fingerprint(), (counters, s.first_failure_step))
        };
        let (fp_a, stats_a) = run();
        let (fp_b, stats_b) = run();
        prop_assert_eq!(fp_a, fp_b);
        prop_assert_eq!(stats_a, stats_b);
    }
}

#[test]
fn standard_roster_specs_are_canonical_and_valid() {
    for s in STANDARD_ROSTER_SPECS {
        let spec = ToolSpec::parse(s)
            .unwrap_or_else(|e| panic!("roster spec `{s}` must parse:\n{}", e.render()));
        assert_eq!(
            spec.canonical(),
            *s,
            "roster specs are written in canonical form"
        );
        spec.resolve()
            .unwrap_or_else(|e| panic!("roster spec `{s}` must resolve: {e}"));
    }
}
