//! Offline race detection on annotated traces — the §4.1 workflow: "race
//! detection algorithms may be evaluated using the traces without any work
//! on the programs themselves".
//!
//! Generates annotated traces from the bank-transfer benchmark program,
//! stores them in both trace formats, reloads, runs Eraser and the
//! vector-clock detector offline, and scores both against the documented
//! ground truth as experiment E2 does.
//!
//! ```sh
//! cargo run --example race_detective
//! ```

use mtt::experiment::detector_eval;
use mtt::experiment::tracegen::{self, TraceGenOptions};
use mtt::trace::{binary, json};

fn main() {
    let entry = mtt::suite::by_name("bank_transfer").expect("program exists");
    println!("program: {} — documented bugs:", entry.name);
    for b in &entry.bugs {
        println!("  {:<20} {:?}: {}", b.tag, b.class, b.description);
    }

    // ------------------------------------------------------------------
    // 1. Generate annotated traces ("a script for producing any number of
    //    desirable traces").
    // ------------------------------------------------------------------
    let traces = tracegen::generate_many(&entry, &TraceGenOptions::default(), 8);
    println!("\ngenerated {} traces:", traces.len());
    for (i, t) in traces.iter().enumerate() {
        println!(
            "  #{i}: {} records, {} tagged as bug-involved, manifested: {:?}",
            t.len(),
            t.records.iter().filter(|r| !r.bug_tags.is_empty()).count(),
            t.meta.manifested_bugs
        );
    }

    // ------------------------------------------------------------------
    // 2. Round-trip through both storage formats.
    // ------------------------------------------------------------------
    let sample = &traces[0];
    let as_json = json::to_string(sample);
    let as_binary = binary::encode(sample);
    println!(
        "\nstorage: {} records -> {} B json, {} B binary ({:.1}x smaller)",
        sample.len(),
        as_json.len(),
        as_binary.len(),
        as_json.len() as f64 / as_binary.len() as f64
    );
    let reloaded = json::from_str(&as_json).expect("json reloads");
    assert_eq!(&reloaded, sample);

    // ------------------------------------------------------------------
    // 3. Offline detection: feed the stored traces to both detectors.
    // ------------------------------------------------------------------
    let table = entry.program.var_table();
    let mut scores = Vec::new();
    println!();
    for (name, detect) in detector_eval::DETECTORS {
        let warnings: Vec<_> = traces.iter().flat_map(detect).collect();
        println!("{name} warnings:");
        for w in &warnings {
            println!("  {}", w.render(table.name(w.var)));
        }
        let score = detector_eval::score_warnings(&warnings, &entry.racy_vars, &table);
        scores.push((name, score));
    }

    // ------------------------------------------------------------------
    // 4. Score against the ground truth.
    // ------------------------------------------------------------------
    println!("\nscores (ground truth: {:?}):", entry.racy_vars);
    for (name, s) in scores {
        println!(
            "  {:<14}precision {:.2}  recall {:.2}  false alarms {}",
            format!("{name}:"),
            s.precision,
            s.recall,
            s.fp
        );
    }
}
