//! `exp_trace` — the flight-recorder driver.
//!
//! Runs one `(stack, scenario, seed)` cell with the flight recorder
//! attached, exports the trace (JSONL plus a Chrome/Perfetto view),
//! prints the per-kind causal delivery-depth histograms, and — if the
//! cell violates a safety invariant — writes a repro bundle under
//! `$AFT_REPRO_DIR` (default `target/repro`) and exits nonzero.
//!
//! Because every cell is a pure function of `(seed, scenario string)`
//! and tracing is observational, re-running the same flags replays the
//! exact execution a bundle captured, bit for bit.
//!
//! Flags:
//!
//! * `--scenario <spec>` (required) — the scenario string, e.g.
//!   `n=4,t=1,corrupt=equivocate:12@1,sched=starve:1,rt=sim`;
//! * `--stack <ba|svss|common-subset|all>` — which reference stack(s) to
//!   run (default `ba`);
//! * `--seed <u64>` — the cell seed (default 1);
//! * `--trace <X.jsonl>` — where to write the JSONL trace (default
//!   `target/trace/<stack>-seed<seed>.jsonl`); the Perfetto view goes to
//!   its sibling `X.perfetto.json`, and with more than one stack each
//!   writes `X.<stack>.jsonl`;
//! * `--json` — machine-readable tables on stdout.

use aft_bench::cli::{Cli, Flag};
use aft_bench::{dump_trace, Output};
use aft_core::scenarios::{
    repro_dir, run_cell_to_bundle, standard_registry, StackKind, STEP_BUDGET,
};
use aft_sim::trace::depth_histograms;
use aft_sim::{AttackRegistry, Scenario, TraceMode};
use std::path::{Path, PathBuf};

fn main() {
    let cli = Cli::parse(&[
        Flag::Scenario,
        Flag::Stacks,
        Flag::Seed,
        Flag::Trace,
        Flag::Json,
    ]);
    let out = &cli.out;
    let scenario = cli.require(Flag::Scenario, cli.scenario.as_ref());
    let registry = standard_registry();
    let seed = cli.seed.unwrap_or(1);
    let stacks = cli.stacks.clone().unwrap_or(vec![StackKind::Ba]);

    out.note(&format!("# exp_trace — scenario: {scenario} seed={seed}"));
    let mut violated = false;
    for kind in &stacks {
        let path = match &cli.trace {
            // With --stack all, keep one capture per stack beside the asked-for path.
            Some(p) if stacks.len() > 1 => p.with_extension(format!("{}.jsonl", kind.label())),
            Some(p) => p.clone(),
            None => PathBuf::from(format!("target/trace/{}-seed{seed}.jsonl", kind.label())),
        };
        violated |= run_traced(out, *kind, scenario, seed, &registry, &path);
    }
    if violated {
        eprintln!(
            "invariant violation(s); repro bundle(s) written under {:?}",
            repro_dir()
        );
        std::process::exit(1);
    }
}

/// Runs one traced cell, exports its trace, prints its histograms and —
/// on violation — writes the repro bundle. Returns whether the cell
/// violated an invariant.
fn run_traced(
    out: &Output,
    kind: StackKind,
    scenario: &Scenario,
    seed: u64,
    registry: &AttackRegistry,
    path: &Path,
) -> bool {
    let outcome = run_cell_to_bundle(kind, scenario, seed, registry, STEP_BUDGET, TraceMode::Full);
    let (report, events) = (outcome.report, outcome.events);
    out.note(&format!(
        "{}: fingerprint={:#018x} sent={} delivered={} steps={} events={} violations={:?}",
        kind.label(),
        report.fingerprint,
        report.sent,
        report.delivered,
        report.steps,
        events.len(),
        report.violations
    ));

    dump_trace(path, &events, kind.label());

    let rows: Vec<Vec<String>> = depth_histograms(&events)
        .into_iter()
        .map(|(session_kind, h)| {
            let buckets = h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(i, c)| {
                    let (lo, hi) = aft_sim::DepthHistogram::bucket_bounds(i);
                    if lo == hi {
                        format!("{lo}:{c}")
                    } else {
                        format!("{lo}-{hi}:{c}")
                    }
                })
                .collect::<Vec<_>>()
                .join(" ");
            vec![
                session_kind.to_string(),
                h.count.to_string(),
                format!("{:.2}", h.mean()),
                h.max.to_string(),
                buckets,
            ]
        })
        .collect();
    out.table(
        &format!("{}: causal delivery depth by session kind", kind.label()),
        &[
            "kind",
            "deliveries",
            "mean depth",
            "critical path",
            "depth buckets",
        ],
        &rows,
    );

    !report.violations.is_empty()
}
