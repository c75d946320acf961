//! The paper's claims, one row each: the statement it measures, which of
//! `--runtime` / `--trace` it honours, its trials per table row, and the
//! function that prints its tables; its place in the table is its
//! experiment number. `exp_claims [<id>…]` hands [`run`] the rows it
//! names, or every row in table order when it names none.

use crate::cli::{epsilon, trials, Cli, Flag};
use crate::{dump_trace, fba_row, record_run, run_row, session};
use crate::{Adversary, Output, RunOutcome, RuntimeSpec};
use aft_ba::{BinaryBa, CoinSource, LocalCoin, OracleCoin, WeakCoinInstance, WeakSharedCoin};
use aft_core::scenarios::{run_episode, standard_registry, StackKind, STEP_BUDGET};
use aft_core::{CoinFlip, CoinFlipOutput, CoinFlipParams, CoinKind, CommonSubsetInstance};
use aft_core::{FairChoice, FairChoiceParams};
use aft_field::Fp;
use aft_lowerbound::{claim2_exact, claim2_run, theorem_2_2_report, Claim2Randomness};
use aft_sim::{
    run_trials, Bernoulli, Metrics, PartyId, Scenario, SessionId, SessionTag, TraceMode,
};
use aft_svss::SvssShare;
use rand::SeedableRng;
use std::cell::Cell;
use std::path::Path;

/// One claim of the paper and the tables that measure it.
#[derive(Debug)]
pub struct Claim {
    /// What `exp_claims` is given to run it (`thm3.5-bias`).
    pub id: &'static str,
    /// The statement of the paper it measures.
    pub statement: &'static str,
    /// Which of `--runtime` and `--trace` it honours; every claim takes
    /// `--json`.
    pub honours: &'static [Flag],
    /// Its heading, after `# E<k> — `.
    title: &'static str,
    /// Trials per table row, unless `AFT_TRIALS` replaces them.
    trials: u64,
    /// Prints its tables.
    tables: fn(&Run),
}

const BOTH: &[Flag] = &[Flag::Runtime, Flag::Trace];

/// Every claim, in the order `exp_claims` runs them when given no id;
/// the k-th is experiment `E<k>`.
pub const CLAIMS: &[Claim] = &[
    Claim {
        id: "thm2.2",
        statement:
            "Thm 2.2: no AVSS at n ≤ 4t — Claim 1 view equality, Claim 2 wrong output w.p. 2/5",
        honours: &[],
        title: "Lower bound (Theorem 2.2)",
        trials: 100_000,
        tables: thm2_2,
    },
    Claim {
        id: "thm3.5-bias",
        statement: "Thm 3.5: CoinFlip(ε) is ε-biased and always agreed",
        honours: BOTH,
        title: "Strong common coin bias (Theorem 3.5)",
        trials: 200,
        tables: thm3_5_bias,
    },
    Claim {
        id: "thm3.5-termination",
        statement: "Thm 3.5: CoinFlip terminates almost surely under every scheduler",
        honours: BOTH,
        title: "Coin termination distribution",
        trials: 100,
        tables: thm3_5_termination,
    },
    Claim {
        id: "thm4.3",
        statement: "Thm 4.3: FairChoice(m) lands in any majority subset w.p. > 1/2",
        honours: BOTH,
        title: "FairChoice validity (Theorem 4.3)",
        trials: 200,
        tables: thm4_3,
    },
    Claim {
        id: "thm4.5",
        statement: "Thm 4.5: FBA validity and fair validity ≥ 1/2",
        honours: BOTH,
        title: "FBA fair validity (Theorem 4.5)",
        trials: 150,
        tables: thm4_5,
    },
    Claim {
        id: "def3.4",
        statement: "Def 3.4 / Thm C.2: CommonSubset agreement, size, membership",
        honours: BOTH,
        title: "CommonSubset (Algorithm 4 / Appendix C)",
        trials: 150,
        tables: def3_4,
    },
    Claim {
        id: "def3.2-shunning",
        statement: "Def 3.2: fewer than n² shun events; no binding failure without one",
        honours: BOTH,
        title: "Shunning dynamics (Definition 3.2's escape hatch)",
        trials: 40,
        tables: def3_2_shunning,
    },
    Claim {
        id: "ba-coin-gap",
        statement: "§1: local-coin BA rounds grow with n, shared-coin rounds do not",
        honours: BOTH,
        title: "BA baselines: local coin vs shared coin",
        trials: 60,
        tables: ba_coin_gap,
    },
    Claim {
        id: "alg1-ablation",
        statement: "Alg 1 ablations: coin substrate, cost vs n, k sweep, paper-exact k",
        honours: BOTH,
        title: "Coin ablations",
        trials: 30,
        tables: alg1_ablation,
    },
    Claim {
        id: "ba-tail",
        statement: "almost-sure termination: the round tail of local-coin BA per backend",
        honours: &[Flag::Trace],
        title: "almost-sure-termination tails of BA across backends",
        trials: 200,
        tables: ba_tail,
    },
];

/// The claim named `id`, or an error listing every id.
fn find(id: &str) -> Result<&'static Claim, String> {
    let ids = CLAIMS.iter().map(|c| c.id).collect::<Vec<_>>().join(", ");
    let claim = CLAIMS.iter().find(|c| c.id == id);
    claim.ok_or(format!("unknown claim {id:?} (one of {ids})"))
}

impl Claim {
    /// Its experiment number: its place in [`CLAIMS`], from 1.
    pub fn experiment(&self) -> usize {
        1 + CLAIMS
            .iter()
            .position(|c| c.id == self.id)
            .expect("a listed claim")
    }
}

/// Runs the claims `cli` names, every one when it names none. Each prints
/// its heading, the backend banner if it honours `--runtime`, its tables
/// and the backend counters of its own runs. `--trace` captures the first
/// claim's first row's seed-0 run (`def3.2-shunning`: its first campaign).
///
/// An unknown id, a flag that a chosen claim cannot honour, or a bad
/// `AFT_TRIALS` or `AFT_EPSILON` ends the process with exit 2 before
/// anything runs.
pub fn run(cli: &Cli) {
    let chosen: Vec<&Claim> = match cli.ids.as_slice() {
        [] => CLAIMS.iter().collect(),
        ids => ids
            .iter()
            .map(|id| find(id).unwrap_or_else(|e| cli.fail(&e)))
            .collect(),
    };
    for flag in [Flag::Runtime, Flag::Trace] {
        let refusing = chosen.iter().find(|c| !c.honours.contains(&flag));
        if let Some(claim) = refusing.filter(|_| cli.has(flag)) {
            let (id, name) = (claim.id, flag.syntax().0);
            cli.fail(&format!("claim {id} does not take {name}"));
        }
    }
    let counts: Vec<u64> = chosen.iter().map(|c| trials(c.trials)).collect();
    let (out, rt, epsilon) = (&cli.out, &cli.runtime, epsilon(0.4));
    let mut trace = cli.trace.as_deref();
    for (claim, trials) in chosen.into_iter().zip(counts) {
        out.note(&format!("# E{} — {}", claim.experiment(), claim.title));
        if claim.honours.contains(&Flag::Runtime) {
            rt.announce(out);
        }
        let trace = Cell::new(trace.take());
        (claim.tables)(&Run {
            out,
            rt,
            trace,
            trials,
            epsilon,
        });
        out.backend_counters();
    }
}

/// What a claim's tables run with.
struct Run<'a> {
    out: &'a Output,
    rt: &'a RuntimeSpec,
    /// The `--trace` capture this claim still owes.
    trace: Cell<Option<&'a Path>>,
    /// Trials per table row: `AFT_TRIALS`, or the claim's own count.
    trials: u64,
    /// `AFT_EPSILON`: the ε of `alg1-ablation`'s paper-exact run.
    epsilon: f64,
}

impl Run<'_> {
    /// Runs seeds `0..trials` of the table row `row`, `trial(trace, seed)`
    /// each, on worker threads (4 when the OS schedules the row, which
    /// spawns a thread per party), and returns the results in seed order.
    /// The claim's first row's seed-0 run gets the `--trace` capture, so
    /// the capture is the same run whatever `AFT_TRIALS` is and whichever
    /// trial thread starts first.
    fn row<R: Send>(
        &self,
        row: &Scenario,
        trials: u64,
        trial: impl Fn(Option<&Path>, u64) -> R + Sync,
    ) -> Vec<R> {
        let trace = self.trace.take();
        let deterministic = row.backend().is_ok_and(|b| b.is_deterministic());
        let workers = if deterministic { 24 } else { 4 };
        run_trials(0..trials, workers, |seed| {
            trial(trace.filter(|_| seed == 0), seed)
        })
    }
}

/// How many of `runs` satisfy `hit`.
fn count<T>(runs: &[T], hit: impl Fn(&T) -> bool) -> usize {
    runs.iter().filter(|r| hit(r)).count()
}

/// `hits/total`: how many of `runs` satisfy `hit`, out of how many.
fn tally<T>(runs: &[T], hit: impl Fn(&T) -> bool) -> String {
    format!("{}/{}", count(runs, hit), runs.len())
}

/// A row's terminated and agreement cells.
fn settled<T>(runs: &[RunOutcome<T>]) -> [String; 2] {
    [
        tally(runs, |o| o.all_terminated),
        tally(runs, |o| o.agreement),
    ]
}

/// The integer mean of `value` over `runs`.
fn mean<T>(runs: &[T], value: impl Fn(&T) -> u64) -> u64 {
    runs.iter().map(value).sum::<u64>() / runs.len() as u64
}

/// Formats a probability with a 95% binomial confidence half-width.
fn fmt_prob(successes: usize, trials: usize) -> String {
    if trials == 0 {
        return "n/a".into();
    }
    let b = Bernoulli { successes, trials };
    format!("{:.3} ± {:.3}", b.estimate(), b.ci95())
}

/// A table header, written as its Markdown row: `a | b | c`.
fn cols(header: &str) -> Vec<&str> {
    header.split(" | ").collect()
}

/// A table row of fixed cells.
fn strs<const N: usize>(cells: [&str; N]) -> Vec<String> {
    cells.map(String::from).to_vec()
}

/// E1: the toy AVSS, Claim 1's view equality and Claim 2's wrong output,
/// exhaustive and Monte-Carlo. No message passing, so no backend.
fn thm2_2(run: &Run) {
    let (out, n_trials) = (run.out, run.trials);
    let r = theorem_2_2_report();
    let quantity = cols("quantity | paper claim | measured");
    out.table(
        "Toy AVSS baseline (exhaustive over all 625 executions per secret)",
        &cols("property | paper requirement | measured"),
        &[
            strs([
                "honest-run correctness",
                "≥ 2/3 + ε",
                &format!("{:.4} (exact)", r.honest_correctness),
            ]),
            strs([
                "hiding (per-party view ⟂ secret)",
                "perfect",
                &format!("exact match: {}", r.hiding_exact),
            ]),
            strs([
                "termination",
                "always",
                "by construction (no waiting on D or on a crashed party)",
            ]),
        ],
    );
    out.table(
        "Claim 1 — equivocating dealer (exhaustive, 625 attack executions)",
        &quantity,
        &[
            strs([
                "A's view ~ π(0,A)",
                "distributions equal",
                &format!("exact multiset match: {}", r.claim1_a_views_match),
            ]),
            strs([
                "B's view ~ π(1,B)",
                "distributions equal",
                &format!("exact multiset match: {}", r.claim1_b_views_match),
            ]),
            strs([
                "honest outputs consistent (bound value ρ exists)",
                "correctness holds with some r",
                &r.claim1_outputs_consistent.to_string(),
            ]),
        ],
    );

    let c2 = claim2_exact();
    // Monte-Carlo cross-check of the exhaustive numbers.
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(1);
    let wrong = (0..n_trials)
        .filter(|_| {
            claim2_run(Claim2Randomness::sample(&mut rng))
                .out_a
                .parity()
        })
        .count();
    out.table(
        "Claim 2 — simulating B vs honest dealer sharing 0",
        &quantity,
        &[
            strs([
                "A's view ~ V⁰_A",
                "distributions equal (Lemma 2.10)",
                &format!("exact multiset match: {}", c2.views_match),
            ]),
            strs([
                "Pr[A outputs 1] (exhaustive)",
                "≥ 1/3 + ε/2",
                &format!("{:.4} (exactly 2/5)", c2.wrong_output_prob),
            ]),
            strs([
                &format!("Pr[A outputs 1] (Monte-Carlo, {n_trials} trials)"),
                "≈ 2/5",
                &fmt_prob(wrong, n_trials as usize),
            ]),
            strs([
                "honest parties stay consistent",
                "attack undetectable",
                &c2.honest_consistent.to_string(),
            ]),
        ],
    );

    let measured = r.claim2_wrong_output_prob;
    let rows: Vec<Vec<String>> = [0.30f64, 0.20, 0.10, 0.05, 0.01]
        .iter()
        .map(|&eps| {
            let allowed = 1.0 / 3.0 - eps;
            let verdict = if measured > allowed { "violated" } else { "ok" };
            let (allowed, measured) = (format!("{allowed:.4}"), format!("{measured:.4}"));
            strs([&eps.to_string(), &allowed, &measured, verdict])
        })
        .collect();
    out.table(
        "The contradiction (Theorem 2.2)",
        &cols("ε | allowed wrong-output ≤ 1/3 − ε | measured | verdict"),
        &rows,
    );
    out.note(&format!(
        "\ncontradiction_established = {}",
        r.contradiction_established()
    ));
}

/// One `CoinFlip` of `k` iterations over inner coins `coin` on `row`.
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

/// How many of `runs` agreed on `coin`.
fn agreed_on(runs: &[RunOutcome<CoinFlipOutput>], coin: bool) -> usize {
    count(runs, |o| {
        o.agreement && o.outputs.first().map(|c| c.value) == Some(coin)
    })
}

/// A coin row's terminated, agreement, Pr[coin=0] and Pr[coin=1] cells.
fn coin_cells(runs: &[RunOutcome<CoinFlipOutput>]) -> Vec<String> {
    let [terminated, agreed] = settled(runs);
    let pr = |coin| fmt_prob(agreed_on(runs, coin), runs.len());
    vec![terminated, agreed, pr(false), pr(true)]
}

/// E2: `Pr[all honest output b]` ≥ 1/2 − ε for each b, and agreement
/// always, per configuration.
fn thm3_5_bias(run: &Run) {
    let (out, rt, n_trials) = (run.out, run.rt, run.trials);
    // Decorrelate the oracle salt from the scheduler seed.
    let salted = |seed: u64| CoinKind::Oracle(seed.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xABCD);
    let mut rows = Vec::new();
    for (n, t) in [(4, 1), (7, 2)] {
        for k in [1, 3, 9] {
            for adversary in [Adversary::None, Adversary::CrashT] {
                for sched in ["random", "lifo"] {
                    let row = rt.scenario(n, t, &adversary.plan(n, t), sched);
                    let runs = run.row(&row, n_trials, |trace, seed| {
                        flip(trace, &row, seed, k, salted(seed))
                    });
                    let label = strs([
                        &format!("{n}/{t}"),
                        &k.to_string(),
                        adversary.label(),
                        sched,
                    ]);
                    rows.push([label, coin_cells(&runs)].concat());
                }
            }
        }
    }
    out.table(
        &format!("CoinFlip outcomes over {n_trials} seeded runs per row (inner BA coin: oracle)"),
        &cols("n/t | k (iterations) | adversary | scheduler | terminated | agreement | Pr[coin=0] | Pr[coin=1]"),
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
    for k in [2usize, 8] {
        let runs = run.row(&row, n_trials, |trace, seed| {
            flip(trace, &row, seed, k, salted(seed))
        });
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
            fmt_prob(agreed_on(&runs, true), runs.len()),
            format!("{predict:.3}"),
        ]);
    }
    out.table(
        "Reproduction note: even-k majority ties resolve to 0 (vanishes as k → paper scale)",
        &cols("k (even) | measured Pr[coin=1] | binomial tie prediction Pr[X > k/2]"),
        &rows,
    );

    // Full IT configuration: weak shared coin inside the BAs, smaller scale.
    let it_trials = n_trials.min(60);
    let runs = run.row(&row, it_trials, |trace, seed| {
        flip(trace, &row, seed, 1, CoinKind::WeakShared)
    });
    out.table(
        &format!("Fully information-theoretic stack (WeakShared inner coins), {it_trials} runs"),
        &cols("n/t | k | terminated | agreement | Pr[coin=0] | Pr[coin=1]"),
        &[[strs(["4/1", "1"]), coin_cells(&runs)].concat()],
    );
}

/// Min, median, p95 and max of `xs`.
fn quantiles(mut xs: Vec<u64>) -> (u64, u64, u64, u64) {
    xs.sort_unstable();
    let q = |f: f64| xs[((xs.len() - 1) as f64 * f) as usize];
    (xs[0], q(0.5), q(0.95), xs[xs.len() - 1])
}

/// E3: every `CoinFlip` run terminates, with short tails, under every
/// scheduler.
fn thm3_5_termination(run: &Run) {
    let (out, rt, n_trials) = (run.out, run.rt, run.trials);
    let mut rows = Vec::new();
    for (n, t) in [(4, 1), (7, 2)] {
        for sched in ["fifo", "random", "lifo", "window4", "starve:0"] {
            let row = rt.scenario(n, t, "", sched);
            let runs = run.row(&row, n_trials, |trace, seed| {
                flip(trace, &row, seed, 2, CoinKind::Oracle(seed ^ 0x5555))
            });
            let (s_min, s_med, s_p95, s_max) = quantiles(runs.iter().map(|o| o.steps).collect());
            let sent = runs.iter().map(|o| o.metrics.sent).collect();
            let (m_min, m_med, _, m_max) = quantiles(sent);
            rows.push(vec![
                format!("{n}/{t}"),
                sched.into(),
                runs.iter().all(|o| o.all_terminated).to_string(),
                format!("{s_min} / {s_med} / {s_p95} / {s_max}"),
                format!("{m_min} / {m_med} / {m_max}"),
            ]);
        }
    }
    out.table(
        &format!("CoinFlip (k=2) over {n_trials} seeds per row — all runs must terminate"),
        &cols("n/t | scheduler | all terminated | steps min/med/p95/max | messages min/med/max"),
        &rows,
    );
    out.note("\npaper claim: almost-sure termination under any fair scheduling —");
    out.note("observed: termination in every run, with bounded tails across all schedulers.");
}

/// E4: the outcome distribution of `FairChoice(m)` and its mass on the
/// worst-case majority subset G — the ⌈(m+1)/2⌉ least likely outcomes,
/// the adversary's best choice of G.
fn thm4_3(run: &Run) {
    let (out, rt, n_trials) = (run.out, run.rt, run.trials);
    let mut rows = Vec::new();
    for m in [3usize, 5] {
        for adversary in [Adversary::None, Adversary::CrashOne] {
            let row = rt.scenario(4, 1, &adversary.plan(4, 1), "random");
            let outcomes = run.row(&row, n_trials, |trace, seed| {
                let coin = CoinKind::Oracle(seed.wrapping_mul(0x9E3779B97F4A7C15));
                let o =
                    run_row::<usize>(trace, &row, seed, &session("exp"), STEP_BUDGET, |_, _| {
                        Box::new(FairChoice::new(m, FairChoiceParams::FixedK { k: 1 }, coin))
                    });
                assert!(o.agreement, "FairChoice must agree");
                o.outputs.first().copied()
            });
            let mut hist = vec![0usize; m];
            for o in outcomes.iter().flatten() {
                hist[*o] += 1;
            }
            // Worst-case majority subset: the (m+1)/2 least-frequent outcomes.
            let mut order: Vec<usize> = (0..m).collect();
            order.sort_by_key(|&i| hist[i]);
            let g_size = m / 2 + 1;
            let worst_g: usize = order[..g_size].iter().map(|&i| hist[i]).sum();
            rows.push(vec![
                m.to_string(),
                adversary.label().into(),
                format!("{hist:?}"),
                format!("{g_size} of {m}"),
                fmt_prob(worst_g, outcomes.len()),
                "> 0.5".into(),
            ]);
        }
    }
    out.table(
        &format!("FairChoice(m) over {n_trials} runs per row (n=4, t=1)"),
        &cols("m | adversary | outcome histogram | |G| (worst-case majority) | Pr[output ∈ G] | paper bound"),
        &rows,
    );
    out.note("\nnote: with an unbiased agreed coin the outcome distribution is near-uniform,");
    out.note("so even the adversarially-chosen majority subset keeps > 1/2 of the mass —");
    out.note("the slack the paper engineers via ε = 1/(100·m·log₂ m).");
}

/// How often `outcomes` — one per run that output — are `Some(true)`.
fn fair_share(outcomes: &[Option<bool>]) -> String {
    let total = count(outcomes, |o| o.is_some());
    fmt_prob(count(outcomes, |o| *o == Some(true)), total)
}

/// E5: unanimous honest inputs are output (validity); with differing
/// inputs some honest party's input is output w.p. ≥ 1/2 (fair validity),
/// even with crashed parties, a hostile scheduler or a planted value.
fn thm4_5(run: &Run) {
    let (out, rt, n_trials) = (run.out, run.rt, run.trials);
    // Validity: unanimous.
    let mut rows = Vec::new();
    for adversary in [Adversary::None, Adversary::CrashOne] {
        let row = rt.scenario(4, 1, &adversary.plan(4, 1), "random");
        let valid = run.row(&row, n_trials.min(60), |trace, seed| {
            let o = fba_row(trace, &row, seed, 1, CoinKind::Oracle(seed ^ 0x77), |_| {
                "common".to_string()
            });
            o.agreement && o.all_terminated && o.outputs[0] == "common"
        });
        rows.push(vec![
            "unanimous \"common\"".into(),
            adversary.label().into(),
            tally(&valid, |&v| v),
            "all output the common input (prob. 1)".into(),
        ]);
    }
    out.table(
        "Validity under unanimous honest inputs",
        &cols("inputs | adversary | validity holds | paper claim"),
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
        let outcomes = run.row(&row, n_trials, |trace, seed| {
            let coin = CoinKind::Oracle(seed.wrapping_mul(0x2545F4914F6CDD1D));
            let o = fba_row(trace, &row, seed, 1, coin, |p| format!("input-{p}"));
            assert!(o.agreement, "agreement is unconditional");
            // Honest = parties not silenced by the adversary.
            let honest: Vec<String> = row
                .honest_parties()
                .map(|p| format!("input-{}", p.0))
                .collect();
            o.outputs.first().map(|out| honest.contains(out))
        });
        rows.push(strs([label, sched, &fair_share(&outcomes), "≥ 0.5"]));
    }
    out.table(
        &format!("Fair validity over {n_trials} runs per row (n=4, t=1)"),
        &cols("configuration | scheduler | Pr[output is honest input] | paper bound"),
        &rows,
    );

    // The binding case: a Byzantine party PARTICIPATES with a planted
    // value. Fair validity says the planted value wins at most 1/2 of the
    // time — i.e., some honest input is output with probability ≥ 1/2.
    let row = rt.scenario(4, 1, "", "random");
    let outcomes = run.row(&row, n_trials, |trace, seed| {
        let coin = CoinKind::Oracle(seed.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xBEEF);
        let o = fba_row(trace, &row, seed, 1, coin, |p| match p {
            3 => "PLANTED".to_string(),
            p => format!("input-{p}"),
        });
        assert!(o.agreement);
        // Party 3 counts as the adversary: honest inputs are 0..2's.
        o.outputs.first().map(|out| out != "PLANTED")
    });
    out.table(
        &format!("Byzantine-participating planted value, {n_trials} runs"),
        &cols("configuration | Pr[output is an honest input] | paper bound"),
        &[strs([
            "3 honest distinct inputs + 1 Byzantine \"PLANTED\"",
            &fair_share(&outcomes),
            "≥ 0.5",
        ])],
    );
    out.note("\nnote: with only crash faults every A-Cast value IS an honest input (prob 1);");
    out.note("the planted-value row is where the ≥ 1/2 bound actually binds.");
}

/// E6: CommonSubset's agreement, size and soundness of membership.
fn def3_4(run: &Run) {
    let (out, rt, n_trials) = (run.out, run.rt, run.trials);
    let mut rows = Vec::new();
    for (n, t) in [(4, 1), (7, 2), (10, 3)] {
        for adversary in [Adversary::None, Adversary::CrashT] {
            for sched in ["random", "lifo"] {
                let row = rt.scenario(n, t, &adversary.plan(n, t), sched);
                let runs = run.row(&row, n_trials, |trace, seed| {
                    let coin = CoinKind::Oracle(seed ^ 0xC5);
                    let sid = session("exp");
                    run_row::<Vec<PartyId>>(trace, &row, seed, &sid, STEP_BUDGET, |_, _| {
                        Box::new(CommonSubsetInstance::new(n - t, coin, true))
                    })
                });
                let [terminated, agreed] = settled(&runs);
                let first = |ok: &dyn Fn(&Vec<PartyId>) -> bool| {
                    tally(&runs, |o| o.outputs.first().is_some_and(ok))
                };
                rows.push(vec![
                    format!("{n}/{t}"),
                    adversary.label().into(),
                    sched.into(),
                    terminated,
                    agreed,
                    first(&|s| s.len() >= n - t),
                    // Soundness: silent parties never announced, so they
                    // cannot be members.
                    first(&|s| s.iter().all(|p| !row.is_corrupt(*p))),
                    mean(&runs, |o| o.metrics.sent).to_string(),
                ]);
            }
        }
    }
    out.table(
        &format!("CommonSubset(Q, n−t) over {n_trials} runs per row"),
        &cols("n/t | adversary | scheduler | terminated | agreement | |S| ≥ n−t | members all announced | avg messages"),
        &rows,
    );
    out.note("\npaper claims (Def 3.4): common output set, |S| ≥ k, every member backed by");
    out.note("an honest predicate — all three at 100% above; message cost grows with n");
    out.note("as n parallel BA instances (the n² → n⁴ ladder the coin sits on).");
}

/// E7: long SVSS campaigns against a reveal-equivocating party. The
/// cumulative shun count saturates far below n² (each ordered pair shuns
/// at most once), and a binding failure never comes without a shun. The
/// campaign interleaves share and reconstruct episodes on persistent node
/// state, which every backend supports.
fn def3_2_shunning(run: &Run) {
    let (out, rt, instances) = (run.out, run.rt, run.trials as usize);
    let registry = standard_registry();
    let mut rows = Vec::new();
    for (n, t) in [(4, 1), (7, 2)] {
        // The adversary as data: the last party equivocates its reveal.
        let plan = format!("equivocal-reveal@{}", n - 1);
        let (scenario, seed) = (rt.scenario(n, t, &plan, "random"), 1234);
        let mut net = scenario.runtime(seed);
        // --trace <path> records the first row's whole campaign.
        let trace = run.trace.take();
        if trace.is_some() {
            net.set_trace(TraceMode::Full);
        }
        let mut shun_curve = Vec::new();
        let mut binding_violations_without_shun = 0usize;
        for i in 0..instances {
            let ssid = SessionId::root().child(SessionTag::new("svss-share", i as u64));
            let rsid = SessionId::root().child(SessionTag::new("svss-rec", i as u64));
            let (_, shares) = run_episode(
                net.as_mut(),
                &scenario,
                &registry,
                "svss-share",
                &ssid,
                &[],
                1_000_000_000,
                |p, _| match p {
                    PartyId(0) => Box::new(SvssShare::dealer(p, Fp::new(i as u64))),
                    _ => Box::new(SvssShare::party(PartyId(0))),
                },
            )
            .expect("share deploy");
            // Reconstruct; the registry hands the equivocator its bundle
            // (the carry) and everyone honest the chain's SvssRec.
            let (rec, values) = run_episode(
                net.as_mut(),
                &scenario,
                &registry,
                "svss-rec",
                &rsid,
                &shares,
                1_000_000_000,
                |p, carry| {
                    StackKind::SvssChain.honest_instance("svss-rec", p, &scenario, seed, carry)
                },
            )
            .expect("rec deploy");
            // Binding check among honest reconstructors.
            let outs: Vec<Fp> = values[..n - 1]
                .iter()
                .filter_map(|v| v.as_ref()?.downcast_ref::<Fp>().copied())
                .collect();
            let consistent = outs.windows(2).all(|w| w[0] == w[1]);
            if !consistent && rec.metrics.shun_events == 0 {
                binding_violations_without_shun += 1;
            }
            shun_curve.push(rec.metrics.shun_events);
        }
        record_run(&net.metrics());
        if let Some(path) = trace {
            let events = net.take_trace().map(|s| s.snapshot()).unwrap_or_default();
            dump_trace(path, &events, &format!("shunning campaign n={n}"));
        }
        let final_shuns = shun_curve[shun_curve.len() - 1];
        let saturation_at = shun_curve.iter().position(|&s| s == final_shuns);
        rows.push(vec![
            format!("{n}/{t}"),
            instances.to_string(),
            final_shuns.to_string(),
            (n * n).to_string(),
            format!("instance {}", saturation_at.unwrap_or(0)),
            binding_violations_without_shun.to_string(),
        ]);
        out.note(&format!(
            "n={n}: cumulative shun curve (per instance): {shun_curve:?}"
        ));
    }
    out.table(
        &format!("{instances} sequential SVSS instances with a reveal-equivocating party"),
        &cols("n/t | SVSS instances | total shun events | n² bound | curve saturates at | binding violations w/o shun"),
        &rows,
    );
    out.note("\npaper: each ordered pair shuns at most once ⇒ fewer than n² events ever;");
    out.note("after saturation the attacker's messages are dropped and later instances");
    out.note("run clean — exactly the budget the CoinFlip analysis charges against k.");
}

/// The inner coin of a binary BA, by name.
fn coin_source(name: &str, seed: u64) -> Box<dyn CoinSource> {
    match name {
        "local" => Box::new(LocalCoin),
        "oracle" => Box::new(OracleCoin::new(seed)),
        "weak-shared" => Box::new(WeakSharedCoin),
        _ => unreachable!(),
    }
}

/// Estimated rounds of a binary BA among `n` parties, from its phase-2
/// A-Cast traffic: one round is `n · (n + 2n²)` `bav2` sends. Phase 2 is
/// sent only in a round that some party voted in; the phase-1 layer also
/// counts the echoes of a round that decided parties hold and nobody
/// opens.
fn ba_rounds(metrics: &Metrics, n: usize) -> f64 {
    metrics.sent_by_kind("bav2") as f64 / (n * (n + 2 * n * n)) as f64
}

/// One binary BA on `row` over the coin named `coin`, with split inputs
/// (even parties propose 1); every honest party must decide, and alike.
fn split_ba(trace: Option<&Path>, row: &Scenario, seed: u64, coin: &str) -> RunOutcome<bool> {
    let o = run_row::<bool>(trace, row, seed, &session("ba"), STEP_BUDGET, |p, _| {
        Box::new(BinaryBa::new(p.0 % 2 == 0, coin_source(coin, seed ^ 0xE8)))
    });
    assert!(
        o.all_terminated && o.agreement,
        "{coin} BA on {row} seed={seed}"
    );
    o
}

/// E8: the coin-quality gap of the paper's introduction. Binary BA with
/// local coins (Ben-Or'83) needs ever more rounds as n grows; shared
/// coins keep them constant. Rounds are estimated from phase-2 vote
/// traffic ([`ba_rounds`]).
fn ba_coin_gap(run: &Run) {
    let (out, rt, n_trials) = (run.out, run.rt, run.trials);
    let mut rows = Vec::new();
    for (n, t) in [(4, 1), (7, 2), (10, 3)] {
        for coin in ["local", "weak-shared", "oracle"] {
            // weak-shared at n=10 is expensive; scale trials down.
            let trials = if coin == "weak-shared" {
                (n_trials / 6).max(5)
            } else {
                n_trials
            };
            let row = rt.scenario(n, t, "", "random");
            let runs = run.row(&row, trials, |trace, seed| {
                split_ba(trace, &row, seed, coin)
            });
            let rounds: Vec<f64> = runs.iter().map(|o| ba_rounds(&o.metrics, n)).collect();
            let mean_rounds = rounds.iter().sum::<f64>() / rounds.len() as f64;
            let max_rounds = rounds.iter().cloned().fold(0.0f64, f64::max);
            rows.push(vec![
                format!("{n}/{t}"),
                coin.into(),
                runs.len().to_string(),
                format!("{mean_rounds:.2}"),
                format!("{max_rounds:.2}"),
                mean(&runs, |o| o.steps).to_string(),
            ]);
        }
    }
    out.table(
        "Binary BA with split inputs (half propose 1), random scheduler",
        &cols("n/t | coin source | runs | mean est. rounds | max est. rounds | mean steps"),
        &rows,
    );
    out.note("\nexpected shape (paper's framing): LocalCoin round counts grow with n");
    out.note("(2^Θ(n) in the worst case — Ben-Or'83); shared-coin rounds stay constant.");
    out.note("This is the gap that motivates building a *strong* coin at n = 3t + 1.");

    // Standalone weak-coin quality: how often do all parties see the same
    // bit (the δ that BA liveness multiplies by), and is it fair?
    let mut rows = Vec::new();
    for (n, t) in [(4, 1), (7, 2)] {
        let row = rt.scenario(n, t, "", "random");
        let runs = run.row(&row, n_trials, |trace, seed| {
            run_row::<bool>(trace, &row, seed, &session("wcoin"), STEP_BUDGET, |_, _| {
                Box::new(WeakCoinInstance::new())
            })
        });
        let total = runs.len();
        let agree = count(&runs, |o| o.all_terminated && o.agreement);
        let ones = count(&runs, |o| o.outputs.first() == Some(&true));
        rows.push(vec![
            format!("{n}/{t}"),
            tally(&runs, |o| o.all_terminated),
            format!("{agree}/{total}  (δ ≈ {:.2})", agree as f64 / total as f64),
            format!("{:.2}", ones as f64 / total as f64),
        ]);
    }
    out.table(
        &format!("Standalone weak shared coin quality, {n_trials} flips per row"),
        &cols("n/t | terminated | all parties same bit | Pr[party 0 sees 1]"),
        &rows,
    );
    out.note("\nthe weak coin terminates always but only agrees with probability δ < 1 —");
    out.note("exactly the deficiency the paper's CoinFlip (strong coin, agreement w.p. 1)");
    out.note("removes by adding CommonSubset + k-fold majority + one BA.");
}

/// E9: ablations on the strong coin — substrate quality (SVSS-based weak
/// coins vs ideal oracle coins inside the BAs), message complexity vs n,
/// iteration count k, and one paper-exact run of `k = 4⌈(e/(ε·π))²·n⁴⌉`
/// SVSS iterations, exactly as Algorithm 1 prescribes.
fn alg1_ablation(run: &Run) {
    let (out, rt, n_trials) = (run.out, run.rt, run.trials);
    // (a) substrate quality: oracle vs weak-shared inner coins.
    let mut rows = Vec::new();
    let row = rt.scenario(4, 1, "", "random");
    for (coin, label) in [
        (CoinKind::Oracle(0xA11), "oracle (ideal functionality)"),
        (CoinKind::WeakShared, "weak shared (SVSS-based, full IT)"),
    ] {
        let runs = run.row(&row, n_trials, |trace, seed| {
            let coin = match coin {
                CoinKind::Oracle(_) => CoinKind::Oracle(seed ^ 0xA11),
                other => other,
            };
            flip(trace, &row, seed, 2, coin)
        });
        rows.push(vec![
            label.into(),
            tally(&runs, |o| o.agreement && o.all_terminated),
            mean(&runs, |o| o.metrics.sent).to_string(),
            mean(&runs, |o| o.steps).to_string(),
        ]);
    }
    out.table(
        &format!("(a) inner-BA coin substrate, CoinFlip k=2, n=4, {n_trials} runs"),
        &cols("inner coin | agreed+terminated | avg messages | avg steps"),
        &rows,
    );

    // (b) message complexity vs n at fixed k.
    let mut rows = Vec::new();
    for (n, t) in [(4, 1), (7, 2), (10, 3)] {
        let row = rt.scenario(n, t, "", "random");
        let runs = run.row(&row, n_trials.min(10), |trace, seed| {
            flip(trace, &row, seed, 1, CoinKind::Oracle(seed ^ 3))
        });
        let msgs = mean(&runs, |o| o.metrics.sent);
        rows.push(vec![
            format!("{n}/{t}"),
            msgs.to_string(),
            mean(&runs, |o| o.steps).to_string(),
            format!("{:.1}", msgs as f64 / (n * n * n) as f64),
        ]);
    }
    out.table(
        "(b) cost vs n (k=1 iteration)",
        &cols("n/t | avg messages | avg steps | messages / n³"),
        &rows,
    );

    // (c) k-sweep: the majority's robustness budget.
    let mut rows = Vec::new();
    for k in [1, 2, 4, 8, 16] {
        let runs = run.row(&row, n_trials.min(15), |trace, seed| {
            flip(trace, &row, seed, k, CoinKind::Oracle(seed ^ 0x99))
        });
        rows.push(vec![
            k.to_string(),
            tally(&runs, |o| o.agreement),
            mean(&runs, |o| o.metrics.sent).to_string(),
        ]);
    }
    out.table(
        "(c) iteration count k (n=4)",
        &cols("k | agreement | avg messages"),
        &rows,
    );

    // (d) PAPER-EXACT mode: Algorithm 1 with the real k formula.
    let epsilon = run.epsilon;
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
        &cols("ε | k | agreed | coin | messages | steps | wall time"),
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
}

/// Round thresholds whose exceedance probability `ba-tail` reports.
const TAILS: &[u64] = &[2, 3, 5, 8];

/// Virtual-time thresholds (virtual milliseconds) whose exceedance
/// probability `ba-tail` reports for the `net:` rows.
const VTAILS: &[u64] = &[50, 100, 200, 400];

/// `ba-tail`'s backend axis, one scenario string per row, so a row is
/// reproducible by pasting its string into `--scenario`. The `net:` rows
/// run the same deployment under the virtual-time network model, which
/// adds a latency tail in virtual milliseconds.
const TAIL_ROWS: &[&str] = &[
    "scenario:n=4,t=1,rt=sim",
    "scenario:n=4,t=1,rt=sharded:2",
    "scenario:n=4,t=1,rt=sharded:4",
    "scenario:n=4,t=1,rt=threaded",
    "scenario:n=4,t=1,sched=net:lat=1..20,rt=sim",
    "scenario:n=4,t=1,sched=net:lat=exp:5,partition=p50,heal=200,rt=sim",
];

/// One tail row: `label`, the mean and max of `xs`, and `P[x ≥ c]` as a
/// [`Bernoulli`] estimate for each threshold `c`.
fn tail_row(label: &str, xs: &[u64], mean_digits: usize, cuts: &[u64]) -> Vec<String> {
    let mean = xs.iter().sum::<u64>() as f64 / xs.len().max(1) as f64;
    let max = xs.iter().copied().max().unwrap_or(0);
    let mut row = vec![
        label.to_string(),
        format!("{mean:.mean_digits$}"),
        max.to_string(),
    ];
    for &c in cuts {
        row.push(Bernoulli::from_outcomes(xs.iter().map(|&x| x >= c)).to_string());
    }
    row
}

/// E10: the geometric round tail of local-coin binary BA (Ben-Or'83; cf.
/// Wang'15 on almost-sure termination at optimal resilience), per backend:
/// the deterministic backends reproduce it seed for seed, `threaded` shows
/// it under OS scheduling.
fn ba_tail(run: &Run) {
    let (out, n_trials) = (run.out, run.trials);
    out.note(&format!(
        "local-coin binary BA, n=4 t=1, split inputs, {n_trials} trials per backend"
    ));
    let (mut rows, mut vrows) = (Vec::new(), Vec::new());
    for spec in TAIL_ROWS {
        let row = Scenario::parse(spec).expect("row scenarios are valid");
        let backend = if row.sched.starts_with("net") {
            format!("{}:{}", row.rt, row.sched)
        } else {
            row.rt.clone()
        };
        let outcomes = run.row(&row, n_trials, |trace, seed| {
            let o = split_ba(trace, &row, seed, "local");
            let rounds = ba_rounds(&o.metrics, row.n).round() as u64;
            (rounds, o.metrics.virtual_time)
        });
        let rounds: Vec<u64> = outcomes.iter().map(|&(r, _)| r).collect();
        rows.push(tail_row(&backend, &rounds, 2, TAILS));
        // Virtual-time completion tail, for rows with a virtual clock.
        let vtimes: Vec<u64> = outcomes.iter().map(|&(_, v)| v).collect();
        if vtimes.iter().any(|&v| v > 0) {
            vrows.push(tail_row(&backend, &vtimes, 1, VTAILS));
        }
    }
    let table = |title: &str, first: [&str; 3], what: &str, cuts: &[u64], rows| {
        let cuts: Vec<String> = cuts.iter().map(|c| format!("P[{what} ≥ {c}]")).collect();
        let headers: Vec<&str> = first
            .into_iter()
            .chain(cuts.iter().map(String::as_str))
            .collect();
        out.table(title, &headers, rows);
    };
    table(
        "Round-count tail of local-coin BA (estimate ± CI95, successes/trials)",
        ["backend", "mean rounds", "max"],
        "rounds",
        TAILS,
        &rows,
    );
    if !vrows.is_empty() {
        table(
            "Completion-time tail under the virtual-time network model (virtual milliseconds)",
            ["backend", "mean vms", "max vms"],
            "vms",
            VTAILS,
            &vrows,
        );
    }
    out.note("\nthe deterministic backends (sim, sharded:<k>) reproduce their tails");
    out.note("seed-for-seed; `threaded` samples the same protocol under genuine OS");
    out.note("scheduling. The geometric tail is the price of local coins — the");
    out.note("paper's strong common coin removes it (see ba-coin-gap).");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The claims table of the crate docs is [`CLAIMS`], row for row: id,
    /// experiment, statement and the flags each honours.
    #[test]
    fn the_crate_docs_list_every_claim_in_table_order() {
        let docs: Vec<&str> = include_str!("lib.rs")
            .lines()
            .filter(|line| line.starts_with("//! | `") && line.contains("` | E"))
            .filter(|line| !line.starts_with("//! | `exp_"))
            .collect();
        let rows: Vec<String> = CLAIMS
            .iter()
            .map(|c| {
                let flags: String = c
                    .honours
                    .iter()
                    .map(|f| format!(" `{}`", f.syntax().0))
                    .collect();
                let (id, k, statement) = (c.id, c.experiment(), c.statement);
                format!("//! | `{id}` | E{k} | {statement} |{flags} |")
            })
            .collect();
        assert_eq!(docs, rows);
        for (i, claim) in CLAIMS.iter().enumerate() {
            assert!(
                find(claim.id).is_ok_and(|c| c.experiment() == i + 1),
                "ids are unique"
            );
        }
    }

    #[test]
    fn fmt_prob_output() {
        assert_eq!(fmt_prob(0, 0), "n/a");
        let s = fmt_prob(5, 10);
        assert!(s.starts_with("0.500"), "{s}");
    }
}
