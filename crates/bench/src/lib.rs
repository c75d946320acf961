//! # aft-bench
//!
//! Experiment harness for the `aft` reproduction: one command line
//! ([`cli`]), one row runner ([`run_row`]: a table row is a
//! [`Scenario`], run through the cell runner's episode step
//! [`run_episode`]), the table/JSON printer ([`Output`]), the paper's
//! claims ([`claims`]) and the process-per-party supervisor
//! ([`deployment`]) shared by the binaries below:
//!
//! | binary | experiment | what it runs | flags |
//! |---|---|---|---|
//! | `exp_claims` | E1–E10 | the claims below, each printing its own tables | `<id>…` `--runtime` `--trace` `--json` |
//! | `exp_scenario_matrix` | E11 | safety invariants of BA / SVSS / CommonSubset over the adversarial matrix | `--smoke` `--json` |
//! | `exp_scenario_search` | E12 | the same invariants under coverage-guided scenario search | `--smoke` `--json` |
//! | `exp_deployment` | E13 | BA / CommonSubset invariants on one OS process per party | `--scenario` `--stack` `--seed` `--smoke` `--timeout-secs` `--log-dir` `--json` |
//! | `exp_trace` | — | flight-recorder replay of one `(stack, scenario, seed)` cell | `--scenario` `--stack` `--seed` `--trace` `--json` |
//! | `aft-partyd` | — | one party of `exp_deployment`, in its own process | `--party` `--stack` `--seed` `--scenario` `--recovered` |
//!
//! `exp_claims [<id>…]` runs the claims it names, all of them in this
//! order when it names none; a flag that a named claim does not honour is
//! refused:
//!
//! | claim | experiment | paper statement | honours |
//! |---|---|---|---|
//! | `thm2.2` | E1 | Thm 2.2: no AVSS at n ≤ 4t — Claim 1 view equality, Claim 2 wrong output w.p. 2/5 | |
//! | `thm3.5-bias` | E2 | Thm 3.5: CoinFlip(ε) is ε-biased and always agreed | `--runtime` `--trace` |
//! | `thm3.5-termination` | E3 | Thm 3.5: CoinFlip terminates almost surely under every scheduler | `--runtime` `--trace` |
//! | `thm4.3` | E4 | Thm 4.3: FairChoice(m) lands in any majority subset w.p. > 1/2 | `--runtime` `--trace` |
//! | `thm4.5` | E5 | Thm 4.5: FBA validity and fair validity ≥ 1/2 | `--runtime` `--trace` |
//! | `def3.4` | E6 | Def 3.4 / Thm C.2: CommonSubset agreement, size, membership | `--runtime` `--trace` |
//! | `def3.2-shunning` | E7 | Def 3.2: fewer than n² shun events; no binding failure without one | `--runtime` `--trace` |
//! | `ba-coin-gap` | E8 | §1: local-coin BA rounds grow with n, shared-coin rounds do not | `--runtime` `--trace` |
//! | `alg1-ablation` | E9 | Alg 1 ablations: coin substrate, cost vs n, k sweep, paper-exact k | `--runtime` `--trace` |
//! | `ba-tail` | E10 | almost-sure termination: the round tail of local-coin BA per backend | `--trace` |
//!
//! (`tests/cli.rs` checks the flags column against what each binary
//! accepts, and a test of [`claims`] the claims table against
//! [`claims::CLAIMS`].) Run one with e.g.
//!
//! ```sh
//! AFT_TRIALS=4 cargo run --release -p aft-bench --bin exp_claims -- thm3.5-bias --runtime sim:lifo
//! ```
//!
//! `AFT_TRIALS` replaces every row's trial count (defaults are 30–200 per
//! row), `AFT_EPSILON` the ε of `alg1-ablation`'s paper-exact run;
//! `--runtime <family>[:<arg>][:<scheduler>]` picks a backend of
//! [`aft_sim::ALL_BACKENDS`], `--trace X.jsonl` captures one run — the
//! first claim's first row's seed-0 run, whatever `AFT_TRIALS` is
//! (`def3.2-shunning`: its first row's campaign) — as `X.jsonl` +
//! `X.perfetto.json` ([`dump_trace`]), `--json` prints tables as JSON
//! lines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;
pub mod cli;
pub mod deployment;

use aft_core::scenarios::{run_episode, standard_registry, STEP_BUDGET};
use aft_core::{CoinKind, FairChoiceParams, Fba};
use aft_sim::trace::push_json_str;
use aft_sim::{
    AttackRegistry, Backend, Instance, Metrics, PartyId, Payload, Scenario, SessionId, SessionTag,
    StopReason, TraceEvent, TraceMode,
};
use std::path::Path;
use std::sync::{LazyLock, Mutex};

/// Which execution backend an experiment runs on, from its `--runtime`
/// flag: any [`aft_sim::Backend`] spec, `<family>[:<arg>][:<scheduler>]`
/// over the families of [`aft_sim::ALL_BACKENDS`] (default
/// [`aft_sim::DEFAULT_BACKEND`]).
///
/// On a deterministic family (`sim`, `wire`, `async`, `sharded:<k>`) each
/// row's scheduler column picks the adversary, unless the flag pins one
/// scheduler for every row (`sim:lifo`, `sharded:4:fifo`). On `threaded`
/// and `proc` scheduler columns are ignored — the OS is the scheduler.
/// (`proc` here is one OS thread per party in this process; the real
/// one-OS-process-per-party deployment is driven by `exp_deployment`.)
#[derive(Debug)]
pub struct RuntimeSpec {
    name: String,
    backend: Backend,
}

impl RuntimeSpec {
    /// Parses a backend spec, or says why it does not parse.
    pub fn parse(name: &str) -> Result<Self, String> {
        Ok(RuntimeSpec {
            name: name.to_string(),
            backend: Backend::parse(name)?,
        })
    }

    /// Builds a spec from a backend name the caller knows to parse.
    ///
    /// # Panics
    ///
    /// Panics if it does not; names from outside go through
    /// [`RuntimeSpec::parse`], as [`cli::Cli::parse`] does.
    pub fn named(name: &str) -> Self {
        Self::parse(name).unwrap_or_else(|e| panic!("backend {name:?}: {e}"))
    }

    /// The backend name as given (`"sim"`, `"threaded"`, …).
    pub fn label(&self) -> &str {
        &self.name
    }

    /// Whether rows parameterized by scheduler are meaningful.
    pub fn honors_schedulers(&self) -> bool {
        self.backend.honors_schedulers()
    }

    /// A table row on this backend as a [`Scenario`]: `n` parties, the
    /// `corrupt=` plan `plan`, and scheduler `sched` unless this spec
    /// pins one, which wins. Its `rt=` is this spec's family without a
    /// scheduler.
    ///
    /// # Panics
    ///
    /// Panics on a row that is not a valid scenario.
    pub fn scenario(&self, n: usize, t: usize, plan: &str, sched: &str) -> Scenario {
        let (rt, pinned) = self.backend.clone().split_sched();
        let sched = pinned.as_deref().unwrap_or(sched);
        let spec = format!("n={n},t={t},corrupt={plan},sched={sched},rt={rt}");
        Scenario::try_parse(&spec).unwrap_or_else(|e| panic!("row {spec}: {e}"))
    }

    /// Prints the standard one-line backend banner.
    pub fn announce(&self, out: &Output) {
        out.note(&format!("runtime backend: {}", self.name));
        if !self.honors_schedulers() {
            out.note("(scheduler columns are ignored on this backend)");
        }
    }
}

/// Writes a `--trace` capture of `events` to `path` and its Perfetto
/// sibling ([`aft_sim::trace::write_trace`]), naming both on stderr;
/// `label` identifies the run. A capture that cannot be written ends the
/// process with exit 1 and one `error:` line naming the file.
pub fn dump_trace(path: &Path, events: &[TraceEvent], label: &str) {
    match aft_sim::trace::write_trace(path, events) {
        Ok(perfetto) => {
            let (n, path) = (events.len(), path.display());
            eprintln!("trace: {n} events from run [{label}] -> {path}");
            eprintln!("trace: perfetto view -> {}", perfetto.display());
        }
        Err(e) => {
            eprintln!("error: cannot write trace {e}");
            std::process::exit(1);
        }
    }
}

/// Output mode shared by every `exp_*` binary: Markdown tables (default)
/// or machine-readable JSON (`--json`).
#[derive(Debug, Clone, Copy)]
pub struct Output {
    json: bool,
}

impl Output {
    /// Whether JSON mode is active.
    pub fn is_json(&self) -> bool {
        self.json
    }

    /// Prints a human-facing banner line (stdout normally, stderr in
    /// JSON mode so stdout stays parseable).
    pub fn note(&self, msg: &str) {
        if self.json {
            eprintln!("{msg}");
        } else {
            println!("{msg}");
        }
    }

    /// Prints one result table: Markdown normally, a single-line JSON
    /// object `{"table": .., "rows": [{header: cell, ..}, ..]}` in JSON
    /// mode.
    pub fn table(&self, title: &str, headers: &[&str], rows: &[Vec<String>]) {
        if !self.json {
            println!("\n### {title}\n");
            println!("| {} |", headers.join(" | "));
            println!("|{}|", vec!["---"; headers.len()].join("|"));
            for row in rows {
                println!("| {} |", row.join(" | "));
            }
            return;
        }
        let mut out = String::from("{\"table\":");
        push_json_str(&mut out, title);
        out.push_str(",\"rows\":[");
        for (i, row) in rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            for (j, (h, cell)) in headers.iter().zip(row).enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, h);
                out.push(':');
                push_json_str(&mut out, cell);
            }
            out.push('}');
        }
        out.push_str("]}");
        println!("{out}");
    }

    /// Prints the backend counter totals of the runs since the last call,
    /// and resets them — the uniform pool/wire/decode-miss exposure every
    /// claim ends with.
    pub fn backend_counters(&self) {
        let totals = std::mem::take(&mut *TOTALS.lock().expect("totals poisoned"));
        if totals.runs > 0 {
            let title = format!("backend counters ({} runs)", totals.runs);
            let headers = COUNTER_COLUMNS.map(|(header, _)| header);
            self.table(&title, &headers, &[totals.row()]);
        }
    }
}

type Counter = fn(&Metrics) -> u64;

/// The columns of the backend-counter table: every public [`Metrics`]
/// counter plus the decode-miss total.
const COUNTER_COLUMNS: [(&str, Counter); 12] = [
    ("sent", |m| m.sent),
    ("delivered", |m| m.delivered),
    ("dropped_shunned", |m| m.dropped_shunned),
    ("dropped_crashed", |m| m.dropped_crashed),
    ("shun_events", |m| m.shun_events),
    ("steps", |m| m.steps),
    ("pool_reused", |m| m.pool_reused),
    ("pool_alloc", |m| m.pool_alloc),
    ("wire_frames", |m| m.wire_frames),
    ("wire_bytes", |m| m.wire_bytes),
    ("wire_malformed", |m| m.wire_malformed),
    ("decode_misses", |m| m.decode_misses().map(|(_, c)| c).sum()),
];

/// How many runs were folded, and the column-wise sum of their metrics.
#[derive(Default)]
struct Totals {
    runs: u64,
    sum: Metrics,
}

impl Totals {
    fn fold(&mut self, metrics: &Metrics) {
        self.runs += 1;
        self.sum.merge(metrics);
    }

    fn row(&self) -> Vec<String> {
        let cells = COUNTER_COLUMNS.map(|(_, counter)| counter(&self.sum).to_string());
        cells.to_vec()
    }
}

/// What [`Output::backend_counters`] reports.
static TOTALS: LazyLock<Mutex<Totals>> = LazyLock::new(Mutex::default);

/// Folds one finished run's metrics into the process-wide totals, once
/// per execution. [`run_row`] does so itself; a claim that drives a
/// runtime directly calls this after its last `run`.
pub(crate) fn record_run(metrics: &Metrics) {
    TOTALS.lock().expect("totals poisoned").fold(metrics);
}

/// The standard session id used by the runners.
pub fn session(kind: &'static str) -> SessionId {
    SessionId::root().child(SessionTag::new(kind, 0))
}

/// Which parties are Byzantine and how, for the standard runners.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adversary {
    /// All parties honest.
    None,
    /// The last `t` parties are silent from the start.
    CrashT,
    /// The last party is silent.
    CrashOne,
}

impl Adversary {
    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            Adversary::None => "none",
            Adversary::CrashT => "crash-t",
            Adversary::CrashOne => "crash-1",
        }
    }

    /// The `corrupt=` plan of this adversary among `n` parties with
    /// threshold `t`: `silent@…` for each silent party, `""` for none.
    pub fn plan(&self, n: usize, t: usize) -> String {
        let silent = match self {
            Adversary::None => 0,
            Adversary::CrashT => t,
            Adversary::CrashOne => 1,
        };
        let parties = (n - silent..n).map(|p| format!("silent@{p}"));
        parties.collect::<Vec<_>>().join(";")
    }
}

/// Result of one protocol run.
#[derive(Debug, Clone)]
pub struct RunOutcome<T> {
    /// Outputs of the honest parties (in party order).
    pub outputs: Vec<T>,
    /// Whether all honest parties produced an output.
    pub all_terminated: bool,
    /// Whether all honest outputs are equal.
    pub agreement: bool,
    /// Network metrics at quiescence.
    pub metrics: Metrics,
    /// Delivery steps used.
    pub steps: u64,
}

/// Runs one `FBA` execution over string inputs.
#[allow(clippy::too_many_arguments)] // mirrors the experiment parameter grid
pub fn run_fba(
    rt: &RuntimeSpec,
    n: usize,
    t: usize,
    seed: u64,
    inputs: &[String],
    k: usize,
    coin: CoinKind,
    sched: &str,
    adversary: Adversary,
) -> RunOutcome<String> {
    let scenario = rt.scenario(n, t, &adversary.plan(n, t), sched);
    fba_row(None, &scenario, seed, k, coin, |p| inputs[p].clone())
}

/// One `FBA` run of `row` over `k`-iteration fair choices, party `p`
/// proposing `input(p)`; a `trace` path is as for [`run_row`].
pub(crate) fn fba_row(
    trace: Option<&Path>,
    row: &Scenario,
    seed: u64,
    k: usize,
    coin: CoinKind,
    input: impl Fn(usize) -> String,
) -> RunOutcome<String> {
    let params = FairChoiceParams::FixedK { k };
    run_row(trace, row, seed, &session("exp"), STEP_BUDGET, |p, _| {
        Box::new(Fba::new(input(p.0), params, coin))
    })
}

/// The attacks a row's plan may name.
static REGISTRY: LazyLock<AttackRegistry> = LazyLock::new(standard_registry);

/// The one row runner: runs `scenario` with `seed` through the cell
/// runner's episode step ([`run_episode`]) at session `sid`, each honest
/// party running `honest(party, carry)`, for at most `budget` steps; folds
/// the metrics into the process totals (`record_run`) and gathers the
/// honest parties' outputs of type `T`, in party order. A `trace` path is
/// the `--trace` capture this run pays (a claim's first row's seed-0 run).
///
/// # Panics
///
/// Panics unless the row deploys and the run quiesces.
pub fn run_row<T: Clone + PartialEq + 'static>(
    trace: Option<&Path>,
    scenario: &Scenario,
    seed: u64,
    sid: &SessionId,
    budget: u64,
    honest: impl FnMut(PartyId, Option<&Payload>) -> Box<dyn Instance>,
) -> RunOutcome<T> {
    let label = format!("{scenario} seed={seed}");
    let mut net = scenario.runtime(seed);
    if trace.is_some() {
        net.set_trace(TraceMode::Full);
    }
    let (rt, episode) = (net.as_mut(), sid.last().map_or("", |tag| tag.kind));
    let ran = run_episode(rt, scenario, &REGISTRY, episode, sid, &[], budget, honest);
    let (report, outputs) = ran.unwrap_or_else(|e| panic!("deploy ({label}): {e}"));
    record_run(&report.metrics);
    if let Some(path) = trace {
        let events = net.take_trace().map(|s| s.snapshot()).unwrap_or_default();
        dump_trace(path, &events, &label);
    }
    let quiescent = report.stop == StopReason::Quiescent;
    assert!(quiescent, "run must quiesce ({label})");
    let honest: Vec<PartyId> = scenario.honest_parties().collect();
    let outputs: Vec<T> = honest
        .iter()
        .filter_map(|p| outputs[p.0].as_ref()?.downcast_ref::<T>().cloned())
        .collect();
    RunOutcome {
        all_terminated: outputs.len() == honest.len(),
        agreement: outputs.windows(2).all(|w| w[0] == w[1]),
        outputs,
        metrics: report.metrics,
        steps: report.steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_core::{CoinFlip, CoinFlipOutput, CoinFlipParams};

    #[test]
    fn a_coin_row_terminates_and_agrees_on_every_backend() {
        for family in aft_sim::ALL_BACKENDS {
            let scenario = RuntimeSpec::named(family.example).scenario(4, 1, "", "random");
            let sid = session("exp");
            let out = run_row::<CoinFlipOutput>(None, &scenario, 0, &sid, STEP_BUDGET, |_, _| {
                let params = CoinFlipParams::FixedK { k: 1 };
                Box::new(CoinFlip::new(params, CoinKind::Oracle(1)))
            });
            let name = family.name;
            assert!(out.all_terminated, "{name}");
            assert!(out.agreement, "{name}");
            assert_eq!(out.outputs.len(), 4, "{name}");
            if name == "wire" {
                assert!(out.metrics.wire_frames > 0, "bytes moved on the wire");
            }
        }
    }

    #[test]
    fn runtime_spec_backend_resolution_follows_the_table() {
        let row = |rt: &RuntimeSpec| rt.scenario(4, 1, "", "lifo").backend_name();
        for family in aft_sim::ALL_BACKENDS {
            let bare = RuntimeSpec::named(family.example);
            assert_eq!(bare.honors_schedulers(), family.deterministic);
            let pinned = format!("{}:fifo", family.example);
            if family.deterministic {
                assert_eq!(row(&bare), format!("{}:lifo", family.example));
                let pinned = RuntimeSpec::named(&pinned);
                assert!(!pinned.honors_schedulers());
                assert_eq!(row(&pinned), pinned.label(), "a pinned scheduler wins");
            } else {
                assert_eq!(row(&bare), family.example);
                assert!(RuntimeSpec::parse(&pinned).is_err());
            }
        }
    }

    #[test]
    fn counter_table_is_the_column_wise_sum_of_the_folded_runs() {
        use aft_core::scenarios::{run_cell_instrumented, standard_registry, StackKind};
        let registry = standard_registry();
        let runs = [
            "n=4,t=1",
            "n=4,t=1,corrupt=garbage:40@3,sched=starve:1,rt=wire",
            "n=4,t=1,corrupt=silent@3,sched=lifo",
        ]
        .map(|spec| {
            let scenario = aft_sim::Scenario::parse(spec).expect("valid spec");
            let mode = TraceMode::Off;
            run_cell_instrumented(StackKind::Ba, &scenario, 1, &registry, STEP_BUDGET, mode).metrics
        });
        let mut totals = Totals::default();
        runs.iter().for_each(|m| totals.fold(m));
        assert_eq!(totals.runs, 3);
        let sum = |counter: Counter| runs.iter().map(counter).sum::<u64>();
        let misses = sum(|m| m.decode_misses().map(|(_, c)| c).sum());
        assert!(
            misses > 0 && sum(|m| m.wire_bytes) > 0,
            "the garbage run shows"
        );
        let expected = [
            ("sent", sum(|m| m.sent)),
            ("delivered", sum(|m| m.delivered)),
            ("dropped_shunned", sum(|m| m.dropped_shunned)),
            ("dropped_crashed", sum(|m| m.dropped_crashed)),
            ("shun_events", sum(|m| m.shun_events)),
            ("steps", sum(|m| m.steps)),
            ("pool_reused", sum(|m| m.pool_reused)),
            ("pool_alloc", sum(|m| m.pool_alloc)),
            ("wire_frames", sum(|m| m.wire_frames)),
            ("wire_bytes", sum(|m| m.wire_bytes)),
            ("wire_malformed", sum(|m| m.wire_malformed)),
            ("decode_misses", misses),
        ];
        assert_eq!(
            COUNTER_COLUMNS.map(|(header, _)| header),
            expected.map(|e| e.0)
        );
        assert_eq!(totals.row(), expected.map(|e| e.1.to_string()));
    }

    #[test]
    fn adversary_plans_silence_the_last_parties() {
        assert_eq!(Adversary::CrashT.plan(7, 2), "silent@5;silent@6");
        assert_eq!(Adversary::CrashOne.plan(7, 2), "silent@6");
        assert_eq!(Adversary::None.plan(4, 1), "");
        let plan = Adversary::CrashT.plan(4, 1);
        let scenario = RuntimeSpec::named("sim").scenario(4, 1, &plan, "random");
        let honest: Vec<PartyId> = scenario.honest_parties().collect();
        assert_eq!(honest, [0, 1, 2].map(PartyId));
    }
}
