//! E5 — Theorem 4.5: FBA validity and fair validity.
//!
//! * unanimous honest inputs ⇒ that value is output (validity);
//! * differing inputs ⇒ some honest party's input is output with
//!   probability ≥ 1/2 (fair validity), even with crashed parties and a
//!   hostile scheduler.

use aft_bench::cli::{trials, Cli, SIM_FLAGS};
use aft_bench::{fmt_prob, run_row, session, Adversary, RunOutcome};
use aft_core::scenarios::STEP_BUDGET;
use aft_core::{CoinKind, FairChoiceParams, Fba};
use aft_sim::{run_trials, Scenario};
use std::path::Path;

/// One FBA run on `row` in which party `p` proposes `input(p)`.
fn fba(
    trace: Option<&Path>,
    row: &Scenario,
    seed: u64,
    coin: CoinKind,
    input: impl Fn(usize) -> String,
) -> RunOutcome<String> {
    let params = FairChoiceParams::FixedK { k: 1 };
    run_row(trace, row, seed, &session("exp"), STEP_BUDGET, |p, _| {
        Box::new(Fba::new(input(p.0), params, coin))
    })
}

fn main() {
    let cli = Cli::parse(SIM_FLAGS);
    let (out, rt) = (&cli.out, &cli.runtime);
    out.note("# E5 — FBA fair validity (Theorem 4.5)");
    rt.announce(out);
    let n_trials = trials(150);

    // Validity: unanimous.
    let mut rows = Vec::new();
    for adversary in [Adversary::None, Adversary::CrashOne] {
        let row = rt.scenario(4, 1, &adversary.plan(4, 1), "random");
        let first = rows.is_empty();
        let outcomes = run_trials(0..n_trials.min(60), 24, |seed| {
            let trace = cli.capture(first && seed == 0);
            let o = fba(trace, &row, seed, CoinKind::Oracle(seed ^ 0x77), |_| {
                "common".to_string()
            });
            o.agreement && o.all_terminated && o.outputs[0] == "common"
        });
        let good = outcomes.iter().filter(|&&b| b).count();
        rows.push(vec![
            "unanimous \"common\"".into(),
            adversary.label().into(),
            format!("{good}/{}", outcomes.len()),
            "all output the common input (prob. 1)".into(),
        ]);
    }
    out.table(
        "Validity under unanimous honest inputs",
        &["inputs", "adversary", "validity holds", "paper claim"],
        &rows,
    );

    // Fair validity: all-distinct inputs; byzantine party holds a planted
    // value that a fair protocol must not always win with.
    let mut rows = Vec::new();
    for (label, adversary, sched) in [
        ("all distinct, honest", Adversary::None, "random"),
        ("all distinct, 1 crash", Adversary::CrashOne, "random"),
        ("all distinct, 1 crash, LIFO", Adversary::CrashOne, "lifo"),
    ] {
        let row = rt.scenario(4, 1, &adversary.plan(4, 1), sched);
        let outcomes = run_trials(0..n_trials, 24, |seed| {
            let coin = CoinKind::Oracle(seed.wrapping_mul(0x2545F4914F6CDD1D));
            let o = fba(None, &row, seed, coin, |p| format!("input-{p}"));
            assert!(o.agreement, "agreement is unconditional");
            // Honest = parties not silenced by the adversary.
            let honest: Vec<String> = row
                .honest_parties()
                .map(|p| format!("input-{}", p.0))
                .collect();
            o.outputs.first().map(|out| honest.contains(out))
        });
        let total = outcomes.iter().filter(|o| o.is_some()).count();
        let fair = outcomes.iter().filter(|o| **o == Some(true)).count();
        rows.push(vec![
            label.into(),
            sched.into(),
            fmt_prob(fair, total),
            "≥ 0.5".into(),
        ]);
    }
    out.table(
        &format!("Fair validity over {n_trials} runs per row (n=4, t=1)"),
        &[
            "configuration",
            "scheduler",
            "Pr[output is honest input]",
            "paper bound",
        ],
        &rows,
    );

    // The binding case: a Byzantine party PARTICIPATES with a planted
    // value. Fair validity says the planted value wins at most 1/2 of the
    // time — i.e., some honest input is output with probability ≥ 1/2.
    let row = rt.scenario(4, 1, "", "random");
    let outcomes = run_trials(0..n_trials, 24, |seed| {
        let coin = CoinKind::Oracle(seed.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xBEEF);
        let o = fba(None, &row, seed, coin, |p| match p {
            3 => "PLANTED".to_string(),
            p => format!("input-{p}"),
        });
        assert!(o.agreement);
        // Party 3 counts as the adversary: honest inputs are 0..2's.
        o.outputs.first().map(|out| out != "PLANTED")
    });
    let total = outcomes.iter().filter(|o| o.is_some()).count();
    let fair = outcomes.iter().filter(|o| **o == Some(true)).count();
    out.table(
        &format!("Byzantine-participating planted value, {n_trials} runs"),
        &[
            "configuration",
            "Pr[output is an honest input]",
            "paper bound",
        ],
        &[vec![
            "3 honest distinct inputs + 1 Byzantine \"PLANTED\"".into(),
            fmt_prob(fair, total),
            "≥ 0.5".into(),
        ]],
    );
    out.note("\nnote: with only crash faults every A-Cast value IS an honest input (prob 1);");
    out.note("the planted-value row is where the ≥ 1/2 bound actually binds.");
    out.backend_counters();
}
