//! The static lock-order graph predicts the dynamic one.
//!
//! Both graphs find their cycles with one GoodLock rule
//! (`mtt_deadlock::cycles`); they differ in how they build the graph. The
//! static graph draws an edge `a → b` wherever `a` *may* be held at an
//! acquisition of `b`, so it over-approximates every execution. Hence every
//! deadlock potential the dynamic graph reports on a run of a compiled
//! MiniProg program, named by lock and rotated to its smallest name, is a
//! cycle of the program's static graph.

use mtt::deadlock::LockOrderGraph as DynamicGraph;
use mtt::instrument::shared;
use mtt::noise::Mixed;
use mtt::runtime::{Execution, RandomScheduler};
use mtt::statik::{compile, parse, LockOrderGraph, MiniProg, ThreadCtx};
use std::collections::BTreeSet;

/// Runs per program: seeds `0..RUNS`.
const RUNS: u64 = 60;

/// The static graph's cycles, as lock names.
fn static_cycles(prog: &MiniProg) -> BTreeSet<Vec<String>> {
    let threads: Vec<ThreadCtx> = prog.threads.iter().map(ThreadCtx::new).collect();
    LockOrderGraph::build(&threads)
        .cycles()
        .into_iter()
        .map(|c| c.locks)
        .collect()
}

/// The union over `RUNS` sticky, mixed-noise runs of the dynamic graph's
/// potentials, each named by lock and rotated to its smallest name; and
/// whether any run drew a lock-order edge at all.
fn dynamic_potentials(prog: &MiniProg) -> (BTreeSet<Vec<String>>, bool) {
    let program = compile(prog);
    let mut found = BTreeSet::new();
    let mut edges = false;
    for seed in 0..RUNS {
        let (sink, graph) = shared(DynamicGraph::new());
        let _ = Execution::new(&program)
            .scheduler(Box::new(RandomScheduler::sticky(seed, 0.9)))
            .noise(Box::new(Mixed::new(seed, 0.2, 20)))
            .sink(Box::new(sink))
            .max_steps(20_000)
            .run();
        let graph = graph.lock().expect("graph poisoned");
        edges |= graph.edge_count() > 0;
        for p in graph.potentials() {
            let mut names: Vec<String> = p
                .cycle
                .iter()
                .map(|l| program.locks()[l.index()].clone())
                .collect();
            let min = (0..names.len()).min_by_key(|&i| &names[i]).unwrap();
            names.rotate_left(min);
            found.insert(names);
        }
    }
    (found, edges)
}

#[test]
fn dynamic_lock_cycles_are_static_lock_cycles() {
    let mut programs: Vec<MiniProg> = mtt::statik::samples::catalog()
        .iter()
        .map(|s| parse(s.src).expect("catalog samples parse"))
        .collect();
    for index in 0..40 {
        programs.extend(
            mtt::gen::family(0x5eed, index)
                .members
                .iter()
                .map(|m| m.ast()),
        );
    }
    let (mut with_edges, mut with_potentials) = (0, 0);
    for prog in &programs {
        let (dynamic, edges) = dynamic_potentials(prog);
        let predicted = static_cycles(prog);
        for cycle in &dynamic {
            assert!(
                predicted.contains(cycle),
                "{}: dynamic cycle {cycle:?} is not a static cycle (static: {predicted:?})",
                prog.name
            );
        }
        with_edges += usize::from(edges);
        with_potentials += usize::from(!dynamic.is_empty());
    }
    // Not vacuous: of the 221 programs, 54 draw a lock-order edge and 28
    // show a deadlock potential under these seeds.
    assert!(with_edges >= 40, "only {with_edges} programs drew an edge");
    assert!(
        with_potentials >= 20,
        "only {with_potentials} programs had a potential"
    );
}
