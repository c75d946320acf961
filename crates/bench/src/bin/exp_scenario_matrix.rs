//! E11 — the declarative adversarial scenario matrix.
//!
//! Sweeps the reference protocol stacks (BA, SVSS share→rec, common
//! subset) across the cross-product of backends × scheduler families ×
//! fault plans × seeds, checking every cell's machine-stated safety
//! invariants and the matrix's bit-for-bit reproducibility from
//! `(seed, scenario string)` alone. This is the sweep driver behind
//! `tests/scenario_conformance.rs`, exposed as an experiment so larger
//! matrices (more seeds via `AFT_TRIALS`) can be explored without
//! recompiling the test suite. Every backend it sweeps is deterministic;
//! the OS-thread backend's cells are that suite's
//! `threaded_backend_passes_the_conformance_invariants`.
//!
//! `--smoke` runs a minimal matrix (3 backends including `wire` × 3
//! schedulers × 3 plans × 1 seed per stack), used by CI to keep the
//! driver itself from rotting.
//!
//! Exits nonzero if any cell violates an invariant or fails to reproduce.

use aft_bench::cli::{trials, Cli, Flag};
use aft_core::scenarios::{
    run_cell, run_cell_to_bundle, standard_registry, StackKind, STEP_BUDGET,
};
use aft_sim::{Scenario, ScenarioMatrix, TraceMode, ALL_SCHEDULERS};

fn main() {
    let cli = Cli::parse(&[Flag::Smoke, Flag::Json]);
    let registry = standard_registry();

    let (out, smoke) = (&cli.out, cli.has(Flag::Smoke));
    out.note("# E11 — adversarial scenario matrix");
    let backends: Vec<String> = if smoke {
        vec!["sim".into(), "sharded:2".into(), "wire".into()]
    } else {
        vec![
            "sim".into(),
            "sharded:2".into(),
            "sharded:4".into(),
            "wire".into(),
        ]
    };
    let schedulers: Vec<String> = if smoke {
        vec!["random".into(), "starve:1".into(), "net:lat=1..8".into()]
    } else {
        ALL_SCHEDULERS
            .iter()
            .map(|f| f.example.to_string())
            .collect()
    };
    let seeds: Vec<u64> = if smoke {
        vec![1]
    } else {
        (0..trials(4)).collect()
    };
    out.note(&format!(
        "backends: {backends:?}\nschedulers: {schedulers:?}\nseeds per cell: {}",
        seeds.len()
    ));

    let mut rows = Vec::new();
    let mut bad_cells: Vec<String> = Vec::new();
    for kind in StackKind::all() {
        let plans: Vec<String> = {
            let all = kind.standard_plans();
            let take = if smoke { all.len().min(3) } else { all.len() };
            all[..take].iter().map(|p| p.to_string()).collect()
        };
        let matrix = ScenarioMatrix {
            n: 4,
            t: 1,
            backends: backends.clone(),
            schedulers: schedulers.clone(),
            plans,
            seeds: seeds.clone(),
        };
        run_matrix(
            kind,
            kind.label(),
            &matrix,
            &registry,
            &mut rows,
            &mut bad_cells,
        );
    }

    // Virtual-time rows: partitions with healing plus a crash-recovery
    // plan. `recover@<vtime>` is measured in virtual time, so these need
    // a `net:` scheduler and cannot ride the cross-product above (they
    // would be rejected by validation on the order-only schedulers).
    let net_matrix = ScenarioMatrix {
        n: 4,
        t: 1,
        backends,
        schedulers: vec!["net:lat=1..12,partition=p50,heal=200".into()],
        plans: vec![String::new(), "recover:80@3".into()],
        seeds: seeds.clone(),
    };
    run_matrix(
        StackKind::Ba,
        "ba/net-recovery",
        &net_matrix,
        &registry,
        &mut rows,
        &mut bad_cells,
    );
    out.table(
        "Scenario matrix: safety violations and reproducibility per stack",
        &["stack", "cells", "violations", "reproducible", "mean steps"],
        &rows,
    );
    if bad_cells.is_empty() {
        out.note("\nall cells safe; deterministic cells reproduce bit-for-bit");
    } else {
        out.note("\nUNSAFE OR NON-REPRODUCIBLE CELLS:");
        for line in &bad_cells {
            out.note(&format!("  {line}"));
        }
        std::process::exit(1);
    }
}

/// Sweeps one matrix on one stack: checks every cell's invariants (with
/// repro bundles on violation), re-sweeps for bit-for-bit reproducibility
/// of every cell, and appends a summary row.
fn run_matrix(
    kind: StackKind,
    label: &str,
    matrix: &ScenarioMatrix,
    registry: &aft_sim::AttackRegistry,
    rows: &mut Vec<Vec<String>>,
    bad_cells: &mut Vec<String>,
) {
    let sweep = || matrix.run(16, |sc, seed| run_cell(kind, sc, seed, registry));
    let cells = sweep();
    let violations: usize = cells
        .iter()
        .filter(|c| !c.outcome.violations.is_empty())
        .count();
    for cell in cells.iter().filter(|c| !c.outcome.violations.is_empty()) {
        bad_cells.push(format!(
            "{} seed={} -> {:?}",
            cell.spec, cell.seed, cell.outcome.violations
        ));
        // Forensics: replay the violating cell with the flight
        // recorder on (cells are pure functions of (scenario, seed),
        // so the replay reproduces the violation bit-for-bit) and
        // drop a repro bundle.
        if let Some(scenario) = Scenario::parse(&cell.spec) {
            let ring = TraceMode::Ring(4096);
            run_cell_to_bundle(kind, &scenario, cell.seed, registry, STEP_BUDGET, ring);
        }
    }
    let repro = cells == sweep();
    if !repro {
        bad_cells.push(format!("{label}: re-sweep diverged"));
    }
    let mean_steps =
        cells.iter().map(|c| c.outcome.steps).sum::<u64>() as f64 / cells.len().max(1) as f64;
    rows.push(vec![
        label.to_string(),
        cells.len().to_string(),
        violations.to_string(),
        if repro { "yes".into() } else { "NO".into() },
        format!("{mean_steps:.0}"),
    ]);
}
