//! E10 — Monte-Carlo termination-tail sweep across execution backends.
//!
//! Binary BA with a *local* coin terminates almost surely but its round
//! count has a geometric tail (Ben-Or'83; cf. Wang'15's analysis of
//! almost-sure termination at optimal resilience). This experiment
//! estimates that tail empirically: for each backend it runs many
//! seed-indexed trials of split-input BA, estimates the round count of
//! each trial from phase-1 vote traffic, and reports `P[rounds ≥ r]` as a
//! [`Bernoulli`] estimate with its 95% confidence half-width.
//!
//! The same deployment runs on the deterministic simulator (`sim`), the
//! sharded deterministic simulator (`sharded:<k>`), and the OS-thread
//! backend (`threaded`) via [`Scenario::runtime`] — on the deterministic
//! backends the whole sweep is reproducible seed-for-seed; `threaded`
//! shows the tail under genuine OS nondeterminism.

use aft_ba::{BinaryBa, LocalCoin};
use aft_bench::cli::{trials, Cli, Flag};
use aft_bench::{ba_rounds, run_row, session};
use aft_core::scenarios::STEP_BUDGET;
use aft_sim::{run_trials, Bernoulli, Scenario};

/// Round thresholds whose exceedance probability is reported.
const TAILS: &[u64] = &[2, 3, 5, 8];

/// Virtual-time thresholds (in virtual milliseconds) whose exceedance
/// probability is reported for the `net:` rows.
const VTAILS: &[u64] = &[50, 100, 200, 400];

/// The backend axis, one declarative scenario string per row — the same
/// spec form `exp_scenario_matrix` and the conformance suite use, so a
/// row is reproducible by pasting its string into `--scenario`. The
/// `net:` rows run the same deployment under the virtual-time network
/// model, which adds a latency tail measured in virtual milliseconds.
const ROWS: &[&str] = &[
    "scenario:n=4,t=1,rt=sim",
    "scenario:n=4,t=1,rt=sharded:2",
    "scenario:n=4,t=1,rt=sharded:4",
    "scenario:n=4,t=1,rt=threaded",
    "scenario:n=4,t=1,sched=net:lat=1..20,rt=sim",
    "scenario:n=4,t=1,sched=net:lat=exp:5,partition=p50,heal=200,rt=sim",
];

fn main() {
    let cli = Cli::parse(&[Flag::Trace, Flag::Json]);
    let out = &cli.out;
    out.note("# E10 — almost-sure-termination tails of BA across backends");
    let n_trials = trials(200);
    out.note(&format!(
        "local-coin binary BA, n=4 t=1, split inputs, {n_trials} trials per backend"
    ));

    let mut rows = Vec::new();
    let mut vrows = Vec::new();
    for (row, spec) in ROWS.iter().enumerate() {
        let scenario = Scenario::parse(spec).expect("row scenarios are valid");
        let backend = if scenario.sched.starts_with("net") {
            format!("{}:{}", scenario.rt, scenario.sched)
        } else {
            scenario.rt.clone()
        };
        let backend = backend.as_str();
        // The threaded backend spawns n OS threads per episode; keep the
        // outer trial parallelism modest there.
        let deterministic = scenario.backend().is_ok_and(|b| b.is_deterministic());
        let workers = if deterministic { 16 } else { 4 };
        let outcomes = run_trials(0..n_trials, workers, |seed| {
            let (trace, sid) = (cli.capture(row == 0 && seed == 0), session("ba"));
            // Split inputs: even parties propose 1.
            let o = run_row::<bool>(trace, &scenario, seed, &sid, STEP_BUDGET, |p, _| {
                Box::new(BinaryBa::new(p.0 % 2 == 0, Box::new(LocalCoin)))
            });
            assert!(o.all_terminated && o.agreement, "{spec} seed={seed}");
            let rounds = ba_rounds(&o.metrics, scenario.n).round() as u64;
            (rounds, o.metrics.virtual_time)
        });
        let rounds_per_trial: Vec<u64> = outcomes.iter().map(|&(r, _)| r).collect();
        let mean =
            rounds_per_trial.iter().sum::<u64>() as f64 / rounds_per_trial.len().max(1) as f64;
        let max = rounds_per_trial.iter().copied().max().unwrap_or(0);
        let mut row = vec![backend.to_string(), format!("{mean:.2}"), max.to_string()];
        for &r in TAILS {
            let tail = Bernoulli::from_outcomes(rounds_per_trial.iter().map(|&x| x >= r));
            row.push(format!("{tail}"));
        }
        rows.push(row);
        // Virtual-time completion tail, for rows with a virtual clock.
        let vtimes: Vec<u64> = outcomes.iter().map(|&(_, v)| v).collect();
        if vtimes.iter().any(|&v| v > 0) {
            let vmean = vtimes.iter().sum::<u64>() as f64 / vtimes.len().max(1) as f64;
            let vmax = vtimes.iter().copied().max().unwrap_or(0);
            let mut vrow = vec![backend.to_string(), format!("{vmean:.1}"), vmax.to_string()];
            for &v in VTAILS {
                let tail = Bernoulli::from_outcomes(vtimes.iter().map(|&x| x >= v));
                vrow.push(format!("{tail}"));
            }
            vrows.push(vrow);
        }
    }
    let tail_headers: Vec<String> = TAILS.iter().map(|r| format!("P[rounds ≥ {r}]")).collect();
    let mut headers = vec!["backend", "mean rounds", "max"];
    headers.extend(tail_headers.iter().map(|s| s.as_str()));
    out.table(
        "Round-count tail of local-coin BA (estimate ± CI95, successes/trials)",
        &headers,
        &rows,
    );
    if !vrows.is_empty() {
        let vtail_headers: Vec<String> = VTAILS.iter().map(|v| format!("P[vms ≥ {v}]")).collect();
        let mut vheaders = vec!["backend", "mean vms", "max vms"];
        vheaders.extend(vtail_headers.iter().map(|s| s.as_str()));
        out.table(
            "Completion-time tail under the virtual-time network model (virtual milliseconds)",
            &vheaders,
            &vrows,
        );
    }
    out.note("\nthe deterministic backends (sim, sharded:<k>) reproduce their tails");
    out.note("seed-for-seed; `threaded` samples the same protocol under genuine OS");
    out.note("scheduling. The geometric tail is the price of local coins — the");
    out.note("paper's strong common coin removes it (see exp_ba_baselines).");
    out.backend_counters();
}
