//! # aft-bench
//!
//! Experiment harness for the `aft` reproduction: one command line
//! ([`cli`]), one session runner ([`run_session`], under
//! [`run_protocol`]), the table/JSON printer ([`Output`]) and the
//! process-per-party supervisor ([`deployment`]) shared by the binaries
//! below — one per experiment, each turning a statement of the paper
//! into a table:
//!
//! | binary | experiment | paper statement | flags |
//! |---|---|---|---|
//! | `exp_lowerbound` | E1 | Thm 2.2: no AVSS at n ≤ 4t — Claim 1 view equality, Claim 2 wrong output w.p. 2/5 | `--json` |
//! | `exp_coin_bias` | E2 | Thm 3.5: CoinFlip(ε) is ε-biased and always agreed | `--runtime` `--trace` `--json` |
//! | `exp_coin_termination` | E3 | Thm 3.5: CoinFlip terminates almost surely under every scheduler | `--runtime` `--trace` `--json` |
//! | `exp_fair_choice` | E4 | Thm 4.3: FairChoice(m) lands in any majority subset w.p. > 1/2 | `--runtime` `--trace` `--json` |
//! | `exp_fba_fairness` | E5 | Thm 4.5: FBA validity and fair validity ≥ 1/2 | `--runtime` `--trace` `--json` |
//! | `exp_common_subset` | E6 | Def 3.4 / Thm C.2: CommonSubset agreement, size, membership | `--runtime` `--trace` `--json` |
//! | `exp_shunning` | E7 | Def 3.2: fewer than n² shun events; no binding failure without one | `--runtime` `--trace` `--json` |
//! | `exp_ba_baselines` | E8 | §1: local-coin BA rounds grow with n, shared-coin rounds do not | `--runtime` `--trace` `--json` |
//! | `exp_coin_ablation` | E9 | Alg 1 ablations: coin substrate, cost vs n, k sweep, paper-exact k | `--runtime` `--trace` `--json` |
//! | `exp_termination_tail` | E10 | almost-sure termination: the round tail of local-coin BA per backend | `--trace` `--json` |
//! | `exp_scenario_matrix` | E11 | safety invariants of BA / SVSS / CommonSubset over the adversarial matrix | `--smoke` `--scenario` `--threaded` `--json` |
//! | `exp_scenario_search` | E12 | the same invariants under coverage-guided scenario search | `--smoke` `--json` |
//! | `exp_deployment` | E13 | BA / CommonSubset invariants on one OS process per party | `--scenario` `--stack` `--seed` `--smoke` `--timeout-secs` `--log-dir` `--json` |
//! | `exp_trace` | — | flight-recorder replay of one `(stack, scenario, seed)` cell | `--scenario` `--stack` `--seed` `--trace` `--json` |
//! | `aft-partyd` | — | one party of `exp_deployment`, in its own process | `--party` `--stack` `--seed` `--scenario` `--recovered` |
//!
//! (`tests/cli.rs` checks the flags column against what each binary
//! accepts.) Run one with e.g.
//!
//! ```sh
//! AFT_TRIALS=4 cargo run --release -p aft-bench --bin exp_coin_bias -- --runtime sim:lifo
//! ```
//!
//! `AFT_TRIALS` replaces every row's trial count (defaults are 30–200 per
//! row), `AFT_EPSILON` the ε of `exp_coin_ablation`'s paper-exact run;
//! `--runtime <family>[:<arg>][:<scheduler>]` picks a backend of
//! [`aft_sim::ALL_BACKENDS`], `--trace X.jsonl` captures the first run
//! as `X.jsonl` + `X.perfetto.json` ([`dump_trace`]), `--json` prints
//! tables as JSON lines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod deployment;

use aft_ba::{BinaryBa, CoinSource};
use aft_core::{CoinFlip, CoinFlipOutput, CoinFlipParams, CoinKind, FairChoiceParams, Fba};
use aft_sim::trace::push_json_str;
use aft_sim::{
    Backend, Instance, Metrics, NetConfig, PartyId, Runtime, RuntimeExt, SessionId, SessionTag,
    SilentInstance, StopReason, TraceEvent, TraceMode,
};
use std::path::{Path, PathBuf};
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
    /// The `--trace <path>` dump this spec still owes. The first run
    /// built through it takes the path — one representative execution.
    trace: Mutex<Option<PathBuf>>,
}

impl RuntimeSpec {
    /// Parses a backend spec, or says why it does not parse.
    pub fn parse(name: &str) -> Result<Self, String> {
        Ok(RuntimeSpec {
            name: name.to_string(),
            backend: Backend::parse(name)?,
            trace: Mutex::new(None),
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

    /// If this spec still owes its trace dump, turns the flight recorder
    /// of `rt` on and hands over the path to dump to after the run
    /// ([`dump_trace`]).
    pub fn attach_trace(&self, rt: &mut dyn Runtime) -> Option<PathBuf> {
        let path = self.trace.lock().expect("trace path poisoned").take()?;
        rt.set_trace(TraceMode::Full);
        Some(path)
    }

    /// The backend name as given (`"sim"`, `"threaded"`, …).
    pub fn label(&self) -> &str {
        &self.name
    }

    /// Whether rows parameterized by scheduler are meaningful.
    pub fn honors_schedulers(&self) -> bool {
        self.backend.honors_schedulers()
    }

    /// Resolves the backend name for a row that wants scheduler `sched`.
    pub fn backend_for(&self, sched: &str) -> String {
        self.backend.clone().with_sched(sched).to_string()
    }

    /// Builds the runtime for a row with scheduler `sched`.
    ///
    /// # Panics
    ///
    /// Panics on a scheduler name no row of this crate uses.
    pub fn make(&self, config: NetConfig, sched: &str) -> Box<dyn Runtime> {
        let backend = self.backend.clone().with_sched(sched);
        backend
            .build(config)
            .unwrap_or_else(|e| panic!("--runtime {}, scheduler {sched}: {e}", self.name))
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

    /// Prints the process-wide backend counter totals — the uniform
    /// pool/wire/decode-miss exposure every experiment binary ends with.
    pub fn backend_counters(&self) {
        let totals = TOTALS.lock().expect("totals poisoned");
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
/// per execution. [`run_session`] does so itself; a binary that drives a
/// runtime directly calls this after its last `run`.
pub fn record_run(metrics: &Metrics) {
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

    /// Whether party `p` of `n` (threshold `t`) is Byzantine.
    pub fn is_byz(&self, p: usize, n: usize, t: usize) -> bool {
        match self {
            Adversary::None => false,
            Adversary::CrashT => p >= n - t,
            Adversary::CrashOne => p == n - 1,
        }
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

/// Runs one `CoinFlip` execution and collects honest outputs.
#[allow(clippy::too_many_arguments)] // mirrors the experiment parameter grid
pub fn run_coin(
    rt: &RuntimeSpec,
    n: usize,
    t: usize,
    seed: u64,
    k: usize,
    coin: CoinKind,
    sched: &str,
    adversary: Adversary,
) -> RunOutcome<CoinFlipOutput> {
    run_protocol(rt, n, t, seed, sched, adversary, |_, _| {
        Box::new(CoinFlip::new(CoinFlipParams::FixedK { k }, coin))
    })
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
    let inputs = inputs.to_vec();
    run_protocol(rt, n, t, seed, sched, adversary, move |p, _| {
        Box::new(Fba::new(
            inputs[p].clone(),
            FairChoiceParams::FixedK { k },
            coin,
        ))
    })
}

/// Generic runner: spawns `mk(p, byz)` for honest parties, `SilentInstance`
/// for Byzantine ones, runs to quiescence on the backend selected by `rt`,
/// and gathers honest outputs of type `T`.
pub fn run_protocol<T: Clone + PartialEq + 'static>(
    rt: &RuntimeSpec,
    n: usize,
    t: usize,
    seed: u64,
    sched: &str,
    adversary: Adversary,
    mk: impl Fn(usize, bool) -> Box<dyn Instance>,
) -> RunOutcome<T> {
    let net = rt.make(NetConfig::new(n, t, seed), sched);
    let label = format!("n={n} t={t} seed={seed} sched={sched} rt={}", rt.label());
    run_session(Some(rt), net, &session("exp"), STEP_BUDGET, &label, |p| {
        (!adversary.is_byz(p, n, t)).then(|| mk(p, false))
    })
}

/// The step budget of every experiment run that is expected to quiesce.
pub const STEP_BUDGET: u64 = 4_000_000_000;

/// The one spawn → run → collect loop. On the built runtime `net`, spawns
/// `instance(p)` in session `sid` for every party — `None` is a Byzantine
/// party, played by a [`SilentInstance`] — runs at most `budget` steps,
/// folds the metrics into the process totals ([`record_run`]) and gathers
/// the honest parties' outputs of type `T`, in party order. If `trace`
/// names the spec that still owes its `--trace` dump, this run pays it.
/// `label` identifies the run in that dump and when it fails to quiesce.
pub fn run_session<T: Clone + PartialEq + 'static>(
    trace: Option<&RuntimeSpec>,
    mut net: Box<dyn Runtime>,
    sid: &SessionId,
    budget: u64,
    label: &str,
    instance: impl Fn(usize) -> Option<Box<dyn Instance>>,
) -> RunOutcome<T> {
    let trace = trace.and_then(|rt| rt.attach_trace(net.as_mut()));
    let mut honest = Vec::new();
    for p in 0..net.config().n {
        let instance = instance(p).inspect(|_| honest.push(p));
        let instance = instance.unwrap_or_else(|| Box::new(SilentInstance));
        net.spawn(PartyId(p), sid.clone(), instance);
    }
    let report = net.run(budget);
    record_run(&report.metrics);
    if let Some(path) = trace {
        let events = net
            .take_trace()
            .map_or_else(Vec::new, |sink| sink.snapshot());
        dump_trace(&path, &events, label);
    }
    assert_eq!(
        report.stop,
        StopReason::Quiescent,
        "run must quiesce ({label})"
    );
    let outputs: Vec<T> = honest
        .iter()
        .filter_map(|&p| net.output_as::<T>(PartyId(p), sid).cloned())
        .collect();
    RunOutcome {
        all_terminated: outputs.len() == honest.len(),
        agreement: outputs.windows(2).all(|w| w[0] == w[1]),
        outputs,
        metrics: report.metrics,
        steps: report.steps,
    }
}

/// Binary BA on split inputs (even parties propose 1), every party
/// honest, its coin from `coin()`: asserts termination and agreement and
/// returns the outcome with the estimated number of rounds it took.
pub fn run_split_ba(
    trace: Option<&RuntimeSpec>,
    net: Box<dyn Runtime>,
    label: &str,
    coin: impl Fn() -> Box<dyn CoinSource>,
) -> (f64, RunOutcome<bool>) {
    let n = net.config().n;
    let o = run_session::<bool>(trace, net, &session("ba"), STEP_BUDGET, label, |p| {
        Some(Box::new(BinaryBa::new(p % 2 == 0, coin())))
    });
    assert!(o.all_terminated, "termination ({label})");
    assert!(o.agreement, "agreement ({label})");
    // Phase-1 A-Cast traffic is proportional to rounds run: one round of
    // phase 1 for n parties is n · (n + 2n²) sends.
    let per_round = (n * (n + 2 * n * n)) as f64;
    (o.metrics.sent_by_kind("bav1") as f64 / per_round, o)
}

/// Formats a probability with a 95% binomial confidence half-width.
pub fn fmt_prob(successes: usize, trials: usize) -> String {
    if trials == 0 {
        return "n/a".into();
    }
    let b = aft_sim::Bernoulli { successes, trials };
    format!("{:.3} ± {:.3}", b.estimate(), b.ci95())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flip(rt: &RuntimeSpec) -> RunOutcome<CoinFlipOutput> {
        let coin = CoinKind::Oracle(1);
        run_coin(rt, 4, 1, 0, 1, coin, "random", Adversary::None)
    }

    #[test]
    fn coin_runner_smoke() {
        let rt = RuntimeSpec::named("sim");
        let out = flip(&rt);
        assert!(out.all_terminated);
        assert!(out.agreement);
        assert_eq!(out.outputs.len(), 4);
    }

    #[test]
    fn coin_runner_on_threaded_backend() {
        let rt = RuntimeSpec::named("threaded");
        let out = flip(&rt);
        assert!(out.all_terminated);
        assert!(out.agreement);
    }

    #[test]
    fn runtime_spec_backend_resolution_follows_the_table() {
        for family in aft_sim::ALL_BACKENDS {
            let bare = RuntimeSpec::named(family.example);
            assert_eq!(bare.honors_schedulers(), family.deterministic);
            let pinned = format!("{}:fifo", family.example);
            if family.deterministic {
                assert_eq!(bare.backend_for("lifo"), format!("{}:lifo", family.example));
                let pinned = RuntimeSpec::named(&pinned);
                assert!(!pinned.honors_schedulers());
                assert_eq!(pinned.backend_for("lifo"), pinned.label());
            } else {
                assert_eq!(bare.backend_for("lifo"), family.example);
                assert!(RuntimeSpec::parse(&pinned).is_err());
            }
        }
    }

    #[test]
    fn coin_runner_on_wire_backend() {
        aft_core::scenarios::register_standard_codecs();
        let rt = RuntimeSpec::named("wire");
        let out = flip(&rt);
        assert!(out.all_terminated);
        assert!(out.agreement);
        assert!(out.metrics.wire_frames > 0, "bytes moved on the wire");
    }

    #[test]
    fn coin_runner_on_async_and_proc_backends() {
        for name in ["async", "proc"] {
            let rt = RuntimeSpec::named(name);
            let out = flip(&rt);
            assert!(out.all_terminated, "{name}");
            assert!(out.agreement, "{name}");
        }
    }

    #[test]
    fn coin_runner_on_sharded_backend() {
        let rt = RuntimeSpec::named("sharded:2");
        let out = flip(&rt);
        assert!(out.all_terminated);
        assert!(out.agreement);
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
    fn adversary_membership() {
        assert!(Adversary::CrashT.is_byz(3, 4, 1));
        assert!(!Adversary::CrashT.is_byz(2, 4, 1));
        assert!(Adversary::CrashOne.is_byz(6, 7, 2));
        assert!(!Adversary::None.is_byz(0, 4, 1));
    }

    #[test]
    fn fmt_prob_output() {
        assert_eq!(fmt_prob(0, 0), "n/a");
        let s = fmt_prob(5, 10);
        assert!(s.starts_with("0.500"), "{s}");
    }
}
