//! E2 — Theorem 3.5: CoinFlip(ε) is ε-biased and always agreed.
//!
//! For each configuration, runs many seeded coin flips and reports
//! `Pr[all honest output 0]`, `Pr[all honest output 1]` (each must be
//! ≥ 1/2 − ε) and the agreement rate (must be 1.0).

use aft_bench::cli::{trials, Cli, SIM_FLAGS};
use aft_bench::{fmt_prob, run_coin, Adversary};
use aft_core::CoinKind;
use aft_sim::run_trials;

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
                    let outcomes = run_trials(0..n_trials, 24, |seed| {
                        // Decorrelate the oracle salt from the scheduler seed.
                        let coin = CoinKind::Oracle(seed.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xABCD);
                        let o = run_coin(rt, n, t, seed, k, coin, sched, adversary);
                        (
                            o.all_terminated,
                            o.agreement,
                            o.outputs.first().map(|c| c.value),
                        )
                    });
                    let total = outcomes.len();
                    let terminated = outcomes.iter().filter(|o| o.0).count();
                    let agreed = outcomes.iter().filter(|o| o.1).count();
                    let zeros = outcomes
                        .iter()
                        .filter(|o| o.1 && o.2 == Some(false))
                        .count();
                    let ones = outcomes.iter().filter(|o| o.1 && o.2 == Some(true)).count();
                    rows.push(vec![
                        format!("{n}/{t}"),
                        k.to_string(),
                        adversary.label().into(),
                        sched.into(),
                        format!("{terminated}/{total}"),
                        format!("{agreed}/{total}"),
                        fmt_prob(zeros, total),
                        fmt_prob(ones, total),
                    ]);
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
    out.note("at k ∈ {2, 8} (measured ≈ binomial prediction, see EXPERIMENTS.md note).");

    // Demonstrate the even-k tie effect explicitly (a reproduction note).
    let mut rows = Vec::new();
    for &k in &[2usize, 8] {
        let outcomes = run_trials(0..n_trials, 24, |seed| {
            let coin = CoinKind::Oracle(seed.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xABCD);
            let o = run_coin(rt, 4, 1, seed, k, coin, "random", Adversary::None);
            (o.agreement, o.outputs.first().map(|c| c.value))
        });
        let total = outcomes.len();
        let ones = outcomes.iter().filter(|o| o.0 && o.1 == Some(true)).count();
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
        let o = run_coin(
            rt,
            4,
            1,
            seed,
            1,
            CoinKind::WeakShared,
            "random",
            Adversary::None,
        );
        (
            o.all_terminated,
            o.agreement,
            o.outputs.first().map(|c| c.value),
        )
    });
    let total = outcomes.len();
    let agreed = outcomes.iter().filter(|o| o.1).count();
    let zeros = outcomes
        .iter()
        .filter(|o| o.1 && o.2 == Some(false))
        .count();
    let ones = outcomes.iter().filter(|o| o.1 && o.2 == Some(true)).count();
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
        &[vec![
            "4/1".into(),
            "1".into(),
            format!("{}/{total}", outcomes.iter().filter(|o| o.0).count()),
            format!("{agreed}/{total}"),
            fmt_prob(zeros, total),
            fmt_prob(ones, total),
        ]],
    );
    out.backend_counters();
}
