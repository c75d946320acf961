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
//!   `n=4 t=1 rt=sim sched=starve:1 corrupt=equivocate:12@1`;
//! * `--stack <ba|svss|common-subset|all>` — which reference stack(s) to
//!   run (default `ba`);
//! * `--seed <u64>` — the cell seed (default 1);
//! * `--trace <path>` — where to write the JSONL trace (default
//!   `target/trace/<stack>-seed<seed>.jsonl`); a `.perfetto.json`
//!   sibling is always written alongside;
//! * `--json` — machine-readable tables on stdout.

use aft_bench::{output_arg, trace_arg, write_trace_files, Output};
use aft_core::scenarios::{
    repro_dir, run_cell_to_bundle, standard_registry, StackKind, STEP_BUDGET,
};
use aft_sim::trace::depth_histograms;
use aft_sim::{AttackRegistry, Scenario, TraceMode};
use std::path::{Path, PathBuf};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    let eq = format!("{flag}=");
    let mut found = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            found = it.next().cloned();
        } else if let Some(v) = a.strip_prefix(&eq) {
            found = Some(v.to_string());
        }
    }
    found
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = output_arg();
    let spec = arg_value(&args, "--scenario").unwrap_or_else(|| {
        eprintln!(
            "usage: exp_trace --scenario '<spec>' [--stack ba|svss|common-subset|all] \
             [--seed N] [--trace <path>] [--json]"
        );
        std::process::exit(2);
    });
    let scenario = Scenario::try_parse(&spec).unwrap_or_else(|e| {
        eprintln!("error: invalid scenario spec {spec:?}: {e}");
        std::process::exit(2);
    });
    let registry = standard_registry();
    if let Err(e) = scenario.validate_attacks(&registry) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let seed: u64 = arg_value(&args, "--seed")
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("error: --seed wants a u64, got {s:?}");
                std::process::exit(2);
            })
        })
        .unwrap_or(1);
    let stack_flag = arg_value(&args, "--stack").unwrap_or_else(|| "ba".into());
    let stacks: Vec<StackKind> = if stack_flag == "all" {
        StackKind::all().to_vec()
    } else {
        match StackKind::all()
            .into_iter()
            .find(|k| k.label() == stack_flag)
        {
            Some(k) => vec![k],
            None => {
                eprintln!("error: unknown --stack {stack_flag:?} (ba|svss|common-subset|all)");
                std::process::exit(2);
            }
        }
    };

    out.note(&format!("# exp_trace — scenario: {scenario} seed={seed}"));
    let trace_base = trace_arg();
    let mut violated = false;
    for kind in &stacks {
        let path = match &trace_base {
            // With --stack all, keep one file per stack under the asked-for path.
            Some(p) if stacks.len() > 1 => {
                let mut os = p.clone().into_os_string();
                os.push(format!(".{}", kind.label()));
                PathBuf::from(os)
            }
            Some(p) => p.clone(),
            None => PathBuf::from(format!("target/trace/{}-seed{seed}.jsonl", kind.label())),
        };
        violated |= run_traced(&out, *kind, &scenario, seed, &registry, &path);
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

    write_trace_files(path, &events, kind.label());

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
