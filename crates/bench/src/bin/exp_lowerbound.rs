//! E1 — Theorem 2.2: the AVSS lower bound, exhaustive + Monte-Carlo.
//!
//! Reproduces the paper's Section 2 as measurements: the toy AVSS's
//! claimed properties, the Claim 1 view-indistinguishability, and the
//! Claim 2 correctness violation.

use aft_bench::cli::{trials, Cli, Flag};
use aft_bench::fmt_prob;
use aft_lowerbound::{claim2_exact, claim2_run, theorem_2_2_report, Claim2Randomness};
use rand::SeedableRng;

fn main() {
    // No --runtime: the lower-bound attacks are exhaustive local
    // computations with no message-passing runtime.
    let out = Cli::parse(&[Flag::Json]).out;
    let n_trials = trials(100_000);
    out.note("# E1 — Lower bound (Theorem 2.2)");
    let r = theorem_2_2_report();

    out.table(
        "Toy AVSS baseline (exhaustive over all 625 executions per secret)",
        &["property", "paper requirement", "measured"],
        &[
            vec![
                "honest-run correctness".into(),
                "≥ 2/3 + ε".into(),
                format!("{:.4} (exact)", r.honest_correctness),
            ],
            vec![
                "hiding (per-party view ⟂ secret)".into(),
                "perfect".into(),
                format!("exact match: {}", r.hiding_exact),
            ],
            vec![
                "termination".into(),
                "always".into(),
                "by construction (no waiting on D or on a crashed party)".into(),
            ],
        ],
    );

    out.table(
        "Claim 1 — equivocating dealer (exhaustive, 625 attack executions)",
        &["quantity", "paper claim", "measured"],
        &[
            vec![
                "A's view ~ π(0,A)".into(),
                "distributions equal".into(),
                format!("exact multiset match: {}", r.claim1_a_views_match),
            ],
            vec![
                "B's view ~ π(1,B)".into(),
                "distributions equal".into(),
                format!("exact multiset match: {}", r.claim1_b_views_match),
            ],
            vec![
                "honest outputs consistent (bound value ρ exists)".into(),
                "correctness holds with some r".into(),
                format!("{}", r.claim1_outputs_consistent),
            ],
        ],
    );

    let c2 = claim2_exact();
    // Monte-Carlo cross-check of the exhaustive numbers.
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(1);
    let mut wrong = 0usize;
    for _ in 0..n_trials {
        let o = claim2_run(Claim2Randomness::sample(&mut rng));
        if o.out_a.parity() {
            wrong += 1;
        }
    }

    out.table(
        "Claim 2 — simulating B vs honest dealer sharing 0",
        &["quantity", "paper claim", "measured"],
        &[
            vec![
                "A's view ~ V⁰_A".into(),
                "distributions equal (Lemma 2.10)".into(),
                format!("exact multiset match: {}", c2.views_match),
            ],
            vec![
                "Pr[A outputs 1] (exhaustive)".into(),
                "≥ 1/3 + ε/2".into(),
                format!("{:.4} (exactly 2/5)", c2.wrong_output_prob),
            ],
            vec![
                format!("Pr[A outputs 1] (Monte-Carlo, {n_trials} trials)"),
                "≈ 2/5".into(),
                fmt_prob(wrong, n_trials as usize),
            ],
            vec![
                "honest parties stay consistent".into(),
                "attack undetectable".into(),
                format!("{}", c2.honest_consistent),
            ],
        ],
    );

    out.table(
        "The contradiction (Theorem 2.2)",
        &["ε", "allowed wrong-output ≤ 1/3 − ε", "measured", "verdict"],
        &[0.30f64, 0.20, 0.10, 0.05, 0.01]
            .iter()
            .map(|&eps| {
                let allowed = 1.0 / 3.0 - eps;
                vec![
                    format!("{eps}"),
                    format!("{allowed:.4}"),
                    format!("{:.4}", r.claim2_wrong_output_prob),
                    if r.claim2_wrong_output_prob > allowed {
                        "violated".into()
                    } else {
                        "ok".into()
                    },
                ]
            })
            .collect::<Vec<_>>(),
    );

    out.note(&format!(
        "\ncontradiction_established = {}",
        r.contradiction_established()
    ));
}
