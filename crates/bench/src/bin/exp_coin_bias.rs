//! E2 — Theorem 3.5: CoinFlip(ε) is ε-biased and always agreed.
//!
//! For each configuration, runs many seeded coin flips and reports
//! `Pr[all honest output 0]`, `Pr[all honest output 1]` (each must be
//! ≥ 1/2 − ε) and the agreement rate (must be 1.0).

use aft_bench::cli::{trials, Cli, SIM_FLAGS};
use aft_bench::{fmt_prob, run_row, session, Adversary};
use aft_core::scenarios::STEP_BUDGET;
use aft_core::{CoinFlip, CoinFlipOutput, CoinFlipParams, CoinKind};
use aft_sim::{run_trials, Scenario};
use std::path::Path;

/// Whether every honest party output, whether they agreed, and the coin.
type Flip = (bool, bool, Option<bool>);

/// One `CoinFlip` of `k` iterations over inner coins `coin` on `row`.
fn flip(trace: Option<&Path>, row: &Scenario, seed: u64, k: usize, coin: CoinKind) -> Flip {
    let sid = session("exp");
    let o = run_row::<CoinFlipOutput>(trace, row, seed, &sid, STEP_BUDGET, |_, _| {
        Box::new(CoinFlip::new(CoinFlipParams::FixedK { k }, coin))
    });
    let coin = o.outputs.first().map(|c| c.value);
    (o.all_terminated, o.agreement, coin)
}

/// How many of `outcomes` are `agreed` on `coin`.
fn agreed_on(outcomes: &[Flip], coin: bool) -> usize {
    outcomes.iter().filter(|o| o.1 && o.2 == Some(coin)).count()
}

/// A row's terminated, agreement, Pr[coin=0] and Pr[coin=1] cells.
fn cells(outcomes: &[Flip]) -> Vec<String> {
    let total = outcomes.len();
    let terminated = outcomes.iter().filter(|o| o.0).count();
    let agreed = outcomes.iter().filter(|o| o.1).count();
    vec![
        format!("{terminated}/{total}"),
        format!("{agreed}/{total}"),
        fmt_prob(agreed_on(outcomes, false), total),
        fmt_prob(agreed_on(outcomes, true), total),
    ]
}

fn main() {
    let cli = Cli::parse(SIM_FLAGS);
    let (out, rt) = (&cli.out, &cli.runtime);
    out.note("# E2 — Strong common coin bias (Theorem 3.5)");
    rt.announce(out);
    let n_trials = trials(200);

    let mut rows = Vec::new();
    for &(n, t) in &[(4usize, 1usize), (7, 2)] {
        for &k in &[1usize, 3, 9] {
            for adversary in [Adversary::None, Adversary::CrashT] {
                for sched in ["random", "lifo"] {
                    let row = rt.scenario(n, t, &adversary.plan(n, t), sched);
                    let first = rows.is_empty();
                    let outcomes = run_trials(0..n_trials, 24, |seed| {
                        // Decorrelate the oracle salt from the scheduler seed.
                        let coin = CoinKind::Oracle(seed.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xABCD);
                        flip(cli.capture(first && seed == 0), &row, seed, k, coin)
                    });
                    let label = adversary.label();
                    let row = [
                        format!("{n}/{t}"),
                        k.to_string(),
                        label.into(),
                        sched.into(),
                    ];
                    rows.push([row.to_vec(), cells(&outcomes)].concat());
                }
            }
        }
    }
    out.table(
        &format!("CoinFlip outcomes over {n_trials} seeded runs per row (inner BA coin: oracle)"),
        &[
            "n/t",
            "k (iterations)",
            "adversary",
            "scheduler",
            "terminated",
            "agreement",
            "Pr[coin=0]",
            "Pr[coin=1]",
        ],
        &rows,
    );
    out.note("\npaper bound: Pr[coin=b] ≥ 1/2 − ε for each b; agreement always.");
    out.note("(k relates to ε through k = 4⌈(e/(επ))²n⁴⌉ in paper-exact mode — see E9.)");
    out.note("scaled runs use ODD k: the paper's majority with even k has a tie mass of");
    out.note("Θ(1/√k) that resolves to 0 — negligible at the paper's k = Θ(n⁴), visible");
    out.note("at k ∈ {2, 8} (measured ≈ binomial prediction: see the reproduction note below).");

    // Demonstrate the even-k tie effect explicitly (a reproduction note).
    let mut rows = Vec::new();
    let row = rt.scenario(4, 1, "", "random");
    for &k in &[2usize, 8] {
        let outcomes = run_trials(0..n_trials, 24, |seed| {
            let coin = CoinKind::Oracle(seed.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xABCD);
            flip(None, &row, seed, k, coin)
        });
        let (total, ones) = (outcomes.len(), agreed_on(&outcomes, true));
        // Binomial prediction: Pr[X > k/2], X ~ Bin(k, 1/2).
        let predict: f64 = (k / 2 + 1..=k)
            .map(|i| {
                let mut c = 1f64;
                for j in 0..i {
                    c = c * (k - j) as f64 / (j + 1) as f64;
                }
                c / 2f64.powi(k as i32)
            })
            .sum();
        rows.push(vec![
            k.to_string(),
            fmt_prob(ones, total),
            format!("{predict:.3}"),
        ]);
    }
    out.table(
        "Reproduction note: even-k majority ties resolve to 0 (vanishes as k → paper scale)",
        &[
            "k (even)",
            "measured Pr[coin=1]",
            "binomial tie prediction Pr[X > k/2]",
        ],
        &rows,
    );

    // Full IT configuration: weak shared coin inside the BAs, smaller scale.
    let it_trials = trials(200).min(60);
    let outcomes = run_trials(0..it_trials, 24, |seed| {
        flip(None, &row, seed, 1, CoinKind::WeakShared)
    });
    out.table(
        &format!("Fully information-theoretic stack (WeakShared inner coins), {it_trials} runs"),
        &[
            "n/t",
            "k",
            "terminated",
            "agreement",
            "Pr[coin=0]",
            "Pr[coin=1]",
        ],
        &[[vec!["4/1".into(), "1".into()], cells(&outcomes)].concat()],
    );
    out.backend_counters();
}
