//! E13 — process-per-party deployment with supervised crash/restart.
//!
//! Runs a reference stack with one `aft-partyd` OS process per party,
//! wired into a loopback TCP mesh and supervised over stdin/stdout (see
//! `aft_bench::deployment`). `corrupt=recover:<vt>@p` maps onto a real
//! SIGKILL `vt` milliseconds after `go` plus a `--recovered` respawn
//! whose peers replay their outboxes. Each row ends with the run's
//! phases in milliseconds (`DeployPhases`: spawn, ready, mesh, first
//! output, all outputs, bye, reap).
//!
//! ```sh
//! # one scenario
//! cargo run --release -p aft-bench --bin exp_deployment -- \
//!     --scenario 'n=4,t=1,corrupt=recover:300@3,rt=proc' --stack ba --seed 2
//! # the CI smoke suite (BA, common subset, a late and a mid-run kill/restart leg)
//! cargo run --release -p aft-bench --bin exp_deployment -- --smoke
//! ```
//!
//! Exits nonzero iff any run reports an invariant violation. Per-party
//! daemon stderr goes to `--log-dir` (default `target/deploy-logs`),
//! where CI picks it up as an artifact on failure.

use aft_bench::cli::{Cli, Flag};
use aft_bench::deployment::{run_deployment, DeployOptions, DeployStack};

fn main() {
    let cli = Cli::parse(&[
        Flag::DeploySpec,
        Flag::Stack,
        Flag::Seed,
        Flag::Smoke,
        Flag::TimeoutSecs,
        Flag::LogDir,
        Flag::Json,
    ]);
    let out = &cli.out;
    let log_dir = cli.log_dir.clone();
    let log_dir = log_dir.unwrap_or_else(|| "target/deploy-logs".into());
    let runs: Vec<(String, DeployStack, u64)> = if cli.has(Flag::Smoke) {
        vec![
            ("n=4,t=1,rt=proc".into(), DeployStack::Ba, 2),
            ("n=4,t=1,rt=proc".into(), DeployStack::CommonSubset, 9),
            (
                // The kill/restart leg: party 3 is SIGKILLed 300 ms in and
                // respawned; its peers replay their outboxes and the
                // fresh instance must still reach the unanimous output.
                "n=4,t=1,corrupt=recover:300@3,rt=proc".into(),
                DeployStack::Ba,
                3,
            ),
            (
                // The same kill 2 ms in: before anyone has decided, so
                // the restarted party's peers are mid-protocol too.
                "n=4,t=1,corrupt=recover:2@3,rt=proc".into(),
                DeployStack::Ba,
                3,
            ),
        ]
    } else {
        let Some(spec) = cli.spec.clone() else {
            cli.fail("pass --scenario '<spec with rt=proc>' or --smoke");
        };
        let stack = cli.stacks.as_ref().map_or(DeployStack::Ba, |s| s[0]);
        vec![(spec, stack, cli.seed.unwrap_or(2))]
    };

    out.note(&format!(
        "deployment: one aft-partyd process per party, logs in {}",
        log_dir.display()
    ));
    let mut rows = Vec::new();
    let mut failed = false;
    for (spec, stack, seed) in runs {
        let mut opts = DeployOptions::new(&spec, stack, seed);
        opts.timeout = cli.timeout.unwrap_or(opts.timeout);
        opts.log_dir = Some(log_dir.clone());
        let report = match run_deployment(&opts) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: {spec} ({}): {e}", stack.label());
                std::process::exit(2);
            }
        };
        let outputs: Vec<String> = report
            .outputs
            .iter()
            .map(|o| o.clone().unwrap_or_else(|| "-".into()))
            .collect();
        if !report.violations.is_empty() {
            failed = true;
            for v in &report.violations {
                eprintln!("VIOLATION [{} {spec} seed={seed}]: {v}", stack.label());
            }
            let summary = log_dir.join(format!("violations-{}.txt", stack.label()));
            let body = format!(
                "scenario: {spec}\nstack: {}\nseed: {seed}\noutputs: {outputs:?}\n{}\n",
                stack.label(),
                report.violations.join("\n")
            );
            if let Err(e) =
                std::fs::create_dir_all(&log_dir).and_then(|()| std::fs::write(&summary, body))
            {
                eprintln!("error: cannot write {}: {e}", summary.display());
            }
        }
        let mut row = vec![
            stack.label().to_string(),
            spec,
            seed.to_string(),
            outputs.join(" "),
            report.restarts.to_string(),
            report.sent.to_string(),
            report.delivered.to_string(),
            report.rejected.to_string(),
            if report.violations.is_empty() {
                "ok".into()
            } else {
                format!("{} violation(s)", report.violations.len())
            },
        ];
        let p = report.phases;
        for phase in [
            p.spawn,
            p.ready,
            p.mesh,
            p.first_output,
            p.all_outputs,
            p.bye,
            p.reap,
        ] {
            row.push(format!("{:.1}", phase.as_secs_f64() * 1e3));
        }
        rows.push(row);
    }
    out.table(
        "E13 — process-per-party deployment",
        &[
            "stack",
            "scenario",
            "seed",
            "outputs (per party)",
            "restarts",
            "sent",
            "delivered",
            "rejected",
            "verdict",
            "spawn ms",
            "ready ms",
            "mesh ms",
            "first-out ms",
            "all-out ms",
            "bye ms",
            "reap ms",
        ],
        &rows,
    );
    if failed {
        std::process::exit(1);
    }
}
