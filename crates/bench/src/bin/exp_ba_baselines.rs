//! E8 — the coin-quality gap the paper's introduction frames: binary BA
//! with local coins (Ben-Or'83) terminates almost surely but needs
//! exponentially many rounds as n grows; shared coins make it constant.
//!
//! Measures rounds-to-termination (via phase-1 vote traffic, which is
//! proportional to rounds) and steps for LocalCoin vs WeakSharedCoin vs
//! OracleCoin under adversarially split inputs.

use aft_ba::{BinaryBa, CoinSource, LocalCoin, OracleCoin, WeakCoinInstance, WeakSharedCoin};
use aft_bench::cli::{trials, Cli, SIM_FLAGS};
use aft_bench::{ba_rounds, run_row, session};
use aft_core::scenarios::STEP_BUDGET;
use aft_sim::run_trials;

fn coin_source(name: &str, seed: u64) -> Box<dyn CoinSource> {
    match name {
        "local" => Box::new(LocalCoin),
        "oracle" => Box::new(OracleCoin::new(seed)),
        "weak-shared" => Box::new(WeakSharedCoin),
        _ => unreachable!(),
    }
}

fn main() {
    let cli = Cli::parse(SIM_FLAGS);
    let (out, rt) = (&cli.out, &cli.runtime);
    out.note("# E8 — BA baselines: local coin vs shared coin");
    rt.announce(out);
    let n_trials = trials(60);

    let mut rows = Vec::new();
    for &(n, t) in &[(4usize, 1usize), (7, 2), (10, 3)] {
        for coin in ["local", "weak-shared", "oracle"] {
            // weak-shared at n=10 is expensive; scale trials down.
            let runs = if coin == "weak-shared" {
                (n_trials / 6).max(5)
            } else {
                n_trials
            };
            let (row, first) = (rt.scenario(n, t, "", "random"), rows.is_empty());
            let outcomes = run_trials(0..runs, 24, |seed| {
                let (trace, sid) = (cli.capture(first && seed == 0), session("ba"));
                // Split inputs: even parties propose 1.
                let o = run_row::<bool>(trace, &row, seed, &sid, STEP_BUDGET, |p, _| {
                    Box::new(BinaryBa::new(p.0 % 2 == 0, coin_source(coin, seed ^ 0xE8)))
                });
                let agreed = o.all_terminated && o.agreement;
                assert!(agreed, "{coin} BA at n={n}, seed {seed}");
                (ba_rounds(&o.metrics, n), o.steps)
            });
            let rounds: Vec<f64> = outcomes.iter().map(|o| o.0).collect();
            let mean_rounds = rounds.iter().sum::<f64>() / rounds.len() as f64;
            let max_rounds = rounds.iter().cloned().fold(0.0f64, f64::max);
            let mean_steps = outcomes.iter().map(|o| o.1).sum::<u64>() / outcomes.len() as u64;
            rows.push(vec![
                format!("{n}/{t}"),
                coin.into(),
                format!("{}", outcomes.len()),
                format!("{mean_rounds:.2}"),
                format!("{max_rounds:.2}"),
                mean_steps.to_string(),
            ]);
        }
    }
    out.table(
        "Binary BA with split inputs (half propose 1), random scheduler",
        &[
            "n/t",
            "coin source",
            "runs",
            "mean est. rounds",
            "max est. rounds",
            "mean steps",
        ],
        &rows,
    );
    out.note("\nexpected shape (paper's framing): LocalCoin round counts grow with n");
    out.note("(2^Θ(n) in the worst case — Ben-Or'83); shared-coin rounds stay constant.");
    out.note("This is the gap that motivates building a *strong* coin at n = 3t + 1.");

    // Standalone weak-coin quality: how often do all parties see the same
    // bit (the δ that BA liveness multiplies by), and is it fair?
    let wc_trials = trials(60);
    let mut rows = Vec::new();
    for &(n, t) in &[(4usize, 1usize), (7, 2)] {
        let row = rt.scenario(n, t, "", "random");
        let outcomes = run_trials(0..wc_trials, 24, |seed| {
            let o = run_row::<bool>(None, &row, seed, &session("wcoin"), STEP_BUDGET, |_, _| {
                Box::new(WeakCoinInstance::new())
            });
            let agree = o.all_terminated && o.agreement;
            (o.all_terminated, agree, o.outputs.first().copied())
        });
        let total = outcomes.len();
        let term = outcomes.iter().filter(|o| o.0).count();
        let agree = outcomes.iter().filter(|o| o.1).count();
        let ones = outcomes.iter().filter(|o| o.2 == Some(true)).count();
        rows.push(vec![
            format!("{n}/{t}"),
            format!("{term}/{total}"),
            format!("{agree}/{total}  (δ ≈ {:.2})", agree as f64 / total as f64),
            format!("{:.2}", ones as f64 / total as f64),
        ]);
    }
    out.table(
        &format!("Standalone weak shared coin quality, {wc_trials} flips per row"),
        &[
            "n/t",
            "terminated",
            "all parties same bit",
            "Pr[party 0 sees 1]",
        ],
        &rows,
    );
    out.note("\nthe weak coin terminates always but only agrees with probability δ < 1 —");
    out.note("exactly the deficiency the paper's CoinFlip (strong coin, agreement w.p. 1)");
    out.note("removes by adding CommonSubset + k-fold majority + one BA.");
    out.backend_counters();
}
