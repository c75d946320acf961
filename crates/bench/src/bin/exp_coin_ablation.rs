//! E9 — ablations on the strong coin: substrate quality (real SVSS-based
//! weak coins vs ideal oracle coins inside the BAs), iteration count k
//! (scaled vs paper-exact), and message complexity vs n.
//!
//! The paper-exact run executes `k = 4⌈(e/(ε·π))²·n⁴⌉` SVSS iterations —
//! thousands of sequential SVSS+CommonSubset rounds — exactly as
//! Algorithm 1 prescribes.

use aft_bench::cli::{epsilon, trials, Cli, SIM_FLAGS};
use aft_bench::{run_row, session, RunOutcome};
use aft_core::scenarios::STEP_BUDGET;
use aft_core::{CoinFlip, CoinFlipOutput, CoinFlipParams, CoinKind};
use aft_sim::{run_trials, Scenario};
use std::path::Path;

/// One `CoinFlip(k)` over inner coins `coin` on `row` with `seed`.
fn flip(
    trace: Option<&Path>,
    row: &Scenario,
    seed: u64,
    k: usize,
    coin: CoinKind,
) -> RunOutcome<CoinFlipOutput> {
    run_row(trace, row, seed, &session("exp"), STEP_BUDGET, |_, _| {
        Box::new(CoinFlip::new(CoinFlipParams::FixedK { k }, coin))
    })
}

fn main() {
    let cli = Cli::parse(SIM_FLAGS);
    let (out, rt) = (&cli.out, &cli.runtime);
    out.note("# E9 — Coin ablations");
    rt.announce(out);
    let (n_trials, epsilon) = (trials(30), epsilon(0.4));

    // (a) substrate quality: oracle vs weak-shared inner coins.
    let mut rows = Vec::new();
    let row = rt.scenario(4, 1, "", "random");
    for coin in [CoinKind::Oracle(0xA11), CoinKind::WeakShared] {
        let first = rows.is_empty();
        let outcomes = run_trials(0..n_trials, 24, |seed| {
            let coin = match coin {
                CoinKind::Oracle(_) => CoinKind::Oracle(seed ^ 0xA11),
                other => other,
            };
            let o = flip(cli.capture(first && seed == 0), &row, seed, 2, coin);
            (o.agreement && o.all_terminated, o.metrics.sent, o.steps)
        });
        let ok = outcomes.iter().filter(|o| o.0).count();
        let msgs = outcomes.iter().map(|o| o.1).sum::<u64>() / outcomes.len() as u64;
        let steps = outcomes.iter().map(|o| o.2).sum::<u64>() / outcomes.len() as u64;
        rows.push(vec![
            match coin {
                CoinKind::Oracle(_) => "oracle (ideal functionality)".to_string(),
                CoinKind::WeakShared => "weak shared (SVSS-based, full IT)".to_string(),
                CoinKind::Local => unreachable!(),
            },
            format!("{ok}/{}", outcomes.len()),
            msgs.to_string(),
            steps.to_string(),
        ]);
    }
    out.table(
        &format!("(a) inner-BA coin substrate, CoinFlip k=2, n=4, {n_trials} runs"),
        &[
            "inner coin",
            "agreed+terminated",
            "avg messages",
            "avg steps",
        ],
        &rows,
    );

    // (b) message complexity vs n at fixed k.
    let mut rows = Vec::new();
    for &(n, t) in &[(4usize, 1usize), (7, 2), (10, 3)] {
        let row = rt.scenario(n, t, "", "random");
        let outcomes = run_trials(0..n_trials.min(10), 24, |seed| {
            let o = flip(None, &row, seed, 1, CoinKind::Oracle(seed ^ 3));
            (o.metrics.sent, o.steps)
        });
        let msgs = outcomes.iter().map(|o| o.0).sum::<u64>() / outcomes.len() as u64;
        let steps = outcomes.iter().map(|o| o.1).sum::<u64>() / outcomes.len() as u64;
        rows.push(vec![
            format!("{n}/{t}"),
            msgs.to_string(),
            steps.to_string(),
            format!("{:.1}", msgs as f64 / (n * n * n) as f64),
        ]);
    }
    out.table(
        "(b) cost vs n (k=1 iteration)",
        &["n/t", "avg messages", "avg steps", "messages / n³"],
        &rows,
    );

    // (c) k-sweep: the majority's robustness budget.
    let mut rows = Vec::new();
    for &k in &[1usize, 2, 4, 8, 16] {
        let outcomes = run_trials(0..n_trials.min(15), 24, |seed| {
            let o = flip(None, &row, seed, k, CoinKind::Oracle(seed ^ 0x99));
            (o.agreement, o.metrics.sent)
        });
        let agreed = outcomes.iter().filter(|o| o.0).count();
        let msgs = outcomes.iter().map(|o| o.1).sum::<u64>() / outcomes.len() as u64;
        rows.push(vec![
            k.to_string(),
            format!("{agreed}/{}", outcomes.len()),
            msgs.to_string(),
        ]);
    }
    out.table(
        "(c) iteration count k (n=4)",
        &["k", "agreement", "avg messages"],
        &rows,
    );

    // (d) PAPER-EXACT mode: Algorithm 1 with the real k formula.
    let params = CoinFlipParams::PaperExact { epsilon };
    let k = params.iterations(4);
    out.note(&format!(
        "\n(d) paper-exact run: n=4, ε={epsilon} ⇒ k = 4⌈(e/(επ))²·n⁴⌉ = {k} iterations…"
    ));
    let t0 = std::time::Instant::now();
    // (d) runs on `sim` whatever `--runtime` says, with no step budget.
    let (row, sid) = (Scenario::honest(4, 1), session("paper-coin"));
    let o = run_row::<CoinFlipOutput>(None, &row, 424242, &sid, u64::MAX, |_, _| {
        Box::new(CoinFlip::new(params, CoinKind::Oracle(0xF00D)))
    });
    assert!(o.all_terminated, "terminates");
    let agreed = o.outputs.windows(2).all(|w| w[0].value == w[1].value);
    out.table(
        "(d) paper-exact Algorithm 1",
        &["ε", "k", "agreed", "coin", "messages", "steps", "wall time"],
        &[vec![
            epsilon.to_string(),
            k.to_string(),
            agreed.to_string(),
            (o.outputs[0].value as u8).to_string(),
            o.metrics.sent.to_string(),
            o.steps.to_string(),
            format!("{:.1?}", t0.elapsed()),
        ]],
    );
    out.note("\nthe scaled-k experiments (E2) measure the same estimator with affordable");
    out.note("sample counts; the paper-exact run here executes Algorithm 1 verbatim.");
    out.backend_counters();
}
