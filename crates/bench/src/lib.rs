//! # aft-bench
//!
//! Experiment harness for the `aft` reproduction: shared runners, table
//! formatting, and statistics used by the `exp_*` binaries (one per
//! experiment E1–E9 of DESIGN.md §5) and the Criterion benchmarks.
//!
//! Run an experiment with e.g.
//!
//! ```sh
//! cargo run --release -p aft-bench --bin exp_coin_bias
//! ```
//!
//! Every binary prints a Markdown table whose rows are recorded in
//! `EXPERIMENTS.md`. Trial counts scale with the `AFT_TRIALS` environment
//! variable (default noted per experiment).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deployment;

use aft_core::{
    CoinFlip, CoinFlipOutput, CoinFlipParams, CoinKind, FairChoice, FairChoiceParams, Fba,
};
use aft_sim::{
    Backend, Instance, Metrics, NetConfig, PartyId, Runtime, RuntimeExt, SessionId, SessionTag,
    SilentInstance, StopReason, TraceMode, DEFAULT_BACKEND,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Reads the trial multiplier from `AFT_TRIALS` (default `base`).
pub fn trials(base: u64) -> u64 {
    std::env::var("AFT_TRIALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(base)
}

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
    /// Where to dump a flight-recorder trace of the first run, if asked
    /// (`--trace <path>`).
    trace: Option<PathBuf>,
    /// Whether the trace dump is still pending (only the first run built
    /// through this spec is traced — one representative execution).
    trace_pending: AtomicBool,
}

impl Clone for RuntimeSpec {
    fn clone(&self) -> Self {
        RuntimeSpec {
            name: self.name.clone(),
            trace: self.trace.clone(),
            // A clone does not inherit the trace obligation: exactly one
            // run per `--trace` flag is recorded, via the original spec.
            trace_pending: AtomicBool::new(false),
        }
    }
}

impl RuntimeSpec {
    /// Builds a spec from an explicit backend name.
    pub fn named(name: &str) -> Self {
        RuntimeSpec {
            name: name.to_string(),
            trace: None,
            trace_pending: AtomicBool::new(false),
        }
    }

    /// Asks the spec to dump a flight-recorder trace of the first run it
    /// builds to `path` (JSONL; a `.perfetto.json` sibling is written
    /// alongside).
    pub fn with_trace(mut self, path: Option<PathBuf>) -> Self {
        self.trace_pending = AtomicBool::new(self.trace.is_none() && path.is_some());
        self.trace = path;
        self
    }

    /// Enables the flight recorder on `rt` if this spec still owes a
    /// trace dump. Returns whether tracing was attached (pair with
    /// [`RuntimeSpec::dump_trace`] after the run).
    pub fn attach_trace(&self, rt: &mut dyn Runtime) -> bool {
        if self.trace_pending.swap(false, Ordering::Relaxed) {
            rt.set_trace(TraceMode::Full);
            true
        } else {
            false
        }
    }

    /// Detaches `rt`'s recorder and writes the JSONL trace plus its
    /// Perfetto sibling; `label` identifies the traced run on stderr.
    pub fn dump_trace(&self, rt: &mut dyn Runtime, label: &str) {
        let Some(path) = &self.trace else { return };
        let Some(sink) = rt.take_trace() else { return };
        let events = sink.snapshot();
        write_trace_files(path, &events, label);
    }

    /// The backend name as given (`"sim"`, `"threaded"`, …).
    pub fn label(&self) -> &str {
        &self.name
    }

    /// The parsed spec, or why it does not parse.
    fn backend(&self) -> Result<Backend, String> {
        Backend::parse(&self.name)
    }

    /// Whether rows parameterized by scheduler are meaningful.
    pub fn honors_schedulers(&self) -> bool {
        self.backend().is_ok_and(|b| b.honors_schedulers())
    }

    /// Resolves the backend name for a row that wants scheduler `sched`.
    pub fn backend_for(&self, sched: &str) -> String {
        self.backend()
            .map_or_else(|_| self.name.clone(), |b| b.with_sched(sched).to_string())
    }

    /// Builds the runtime for a row with scheduler `sched`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown backend or scheduler name. A `proc:<k>` that
    /// disagrees with the row's `n` is a usage error (experiments sweep
    /// `n` per row) and exits 2 instead.
    pub fn make(&self, config: NetConfig, sched: &str) -> Box<dyn Runtime> {
        let backend = self
            .backend()
            .unwrap_or_else(|e| panic!("--runtime {}: {e}", self.name));
        if let Err(e) = backend.check_parties(config.n) {
            eprintln!("error: --runtime {}: {e}", self.name);
            std::process::exit(2);
        }
        backend
            .with_sched(sched)
            .build(config)
            .unwrap_or_else(|e| panic!("--runtime {}, scheduler {sched}: {e}", self.name))
    }

    /// Prints the standard one-line backend banner.
    pub fn announce(&self) {
        let banner = |line: &str| {
            if json_arg() {
                eprintln!("{line}");
            } else {
                println!("{line}");
            }
        };
        banner(&format!("runtime backend: {}", self.name));
        if !self.honors_schedulers() {
            banner("(scheduler columns are ignored on this backend)");
        }
    }
}

/// Parses `--runtime <name>` / `--runtime=<name>` from the command line
/// (default [`DEFAULT_BACKEND`]). Every `exp_*` binary accepts this flag;
/// a spec that does not parse exits immediately with the reason instead
/// of panicking mid-experiment (per-row schedulers and party counts are
/// resolved later, per row).
pub fn runtime_arg() -> RuntimeSpec {
    let mut picked = RuntimeSpec::named(DEFAULT_BACKEND);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--runtime" {
            if let Some(name) = args.next() {
                picked = RuntimeSpec::named(&name);
            }
        } else if let Some(name) = arg.strip_prefix("--runtime=") {
            picked = RuntimeSpec::named(name);
        }
    }
    if let Err(e) = picked.backend() {
        eprintln!("error: --runtime: {e}");
        std::process::exit(2);
    }
    picked.with_trace(trace_arg())
}

/// Parses `--trace <path>` / `--trace=<path>` from the command line:
/// where to write a flight-recorder trace (JSONL, plus a
/// `.perfetto.json` sibling) of one representative run.
pub fn trace_arg() -> Option<PathBuf> {
    let mut args = std::env::args().skip(1);
    let mut picked = None;
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            picked = args.next().map(PathBuf::from);
        } else if let Some(path) = arg.strip_prefix("--trace=") {
            picked = Some(PathBuf::from(path));
        }
    }
    picked
}

/// Whether `--json` was passed: tables become JSON objects on stdout
/// (one per table) and banners move to stderr.
pub fn json_arg() -> bool {
    std::env::args().skip(1).any(|a| a == "--json")
}

/// Writes `events` as JSONL to `path` and as a Chrome/Perfetto trace to
/// `path` + `.perfetto.json`, announcing both on stderr.
pub fn write_trace_files(path: &Path, events: &[aft_sim::TraceEvent], label: &str) {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        let _ = std::fs::create_dir_all(parent);
    }
    let perfetto = {
        let mut os = path.as_os_str().to_owned();
        os.push(".perfetto.json");
        PathBuf::from(os)
    };
    match std::fs::write(path, aft_sim::trace::to_jsonl(events)) {
        Ok(()) => eprintln!(
            "trace: {} events from run [{label}] -> {}",
            events.len(),
            path.display()
        ),
        Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
    }
    match std::fs::write(&perfetto, aft_sim::trace::to_chrome_trace(events)) {
        Ok(()) => eprintln!("trace: perfetto view -> {}", perfetto.display()),
        Err(e) => eprintln!("trace: cannot write {}: {e}", perfetto.display()),
    }
}

/// Output mode shared by every `exp_*` binary: Markdown tables (default)
/// or machine-readable JSON (`--json`).
#[derive(Debug, Clone, Copy)]
pub struct Output {
    json: bool,
}

/// Builds the [`Output`] from the command line (`--json`).
pub fn output_arg() -> Output {
    Output { json: json_arg() }
}

fn push_json_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
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
            print_table(title, headers, rows);
            return;
        }
        let mut out = String::from("{\"table\":");
        push_json_escaped(&mut out, title);
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
                push_json_escaped(&mut out, h);
                out.push(':');
                push_json_escaped(&mut out, cell);
            }
            out.push('}');
        }
        out.push_str("]}");
        println!("{out}");
    }

    /// Prints the process-wide backend counter totals accumulated by
    /// [`run_protocol`] — the uniform pool/wire/decode-miss exposure
    /// every experiment binary ends with.
    pub fn backend_counters(&self) {
        let totals = TOTALS.lock().expect("totals poisoned");
        if totals.runs == 0 {
            return;
        }
        self.table(
            &format!("backend counters ({} runs)", totals.runs),
            &[
                "sent",
                "delivered",
                "dropped_shunned",
                "dropped_crashed",
                "shun_events",
                "steps",
                "pool_reused",
                "pool_alloc",
                "wire_frames",
                "wire_bytes",
                "wire_malformed",
                "decode_misses",
            ],
            &[vec![
                totals.sent.to_string(),
                totals.delivered.to_string(),
                totals.dropped_shunned.to_string(),
                totals.dropped_crashed.to_string(),
                totals.shun_events.to_string(),
                totals.steps.to_string(),
                totals.pool_reused.to_string(),
                totals.pool_alloc.to_string(),
                totals.wire_frames.to_string(),
                totals.wire_bytes.to_string(),
                totals.wire_malformed.to_string(),
                totals.decode_misses.to_string(),
            ]],
        );
    }
}

/// Process-wide backend counter totals, summed over every
/// [`run_protocol`] call (all public [`Metrics`] counters plus the
/// decode-miss total) — what [`Output::backend_counters`] reports.
#[derive(Debug, Default)]
struct BackendTotals {
    runs: u64,
    sent: u64,
    delivered: u64,
    dropped_shunned: u64,
    dropped_crashed: u64,
    shun_events: u64,
    steps: u64,
    pool_reused: u64,
    pool_alloc: u64,
    wire_frames: u64,
    wire_bytes: u64,
    wire_malformed: u64,
    decode_misses: u64,
}

static TOTALS: Mutex<BackendTotals> = Mutex::new(BackendTotals {
    runs: 0,
    sent: 0,
    delivered: 0,
    dropped_shunned: 0,
    dropped_crashed: 0,
    shun_events: 0,
    steps: 0,
    pool_reused: 0,
    pool_alloc: 0,
    wire_frames: 0,
    wire_bytes: 0,
    wire_malformed: 0,
    decode_misses: 0,
});

/// Folds one finished run's metrics into the process-wide backend
/// counter totals that [`Output::backend_counters`] reports. Experiment
/// binaries that build runtimes directly (instead of going through
/// [`run_protocol`], which records automatically) call this after each
/// `run`.
pub fn record_run(metrics: &Metrics) {
    record_totals(metrics);
}

fn record_totals(m: &Metrics) {
    let mut t = TOTALS.lock().expect("totals poisoned");
    t.runs += 1;
    t.sent += m.sent;
    t.delivered += m.delivered;
    t.dropped_shunned += m.dropped_shunned;
    t.dropped_crashed += m.dropped_crashed;
    t.shun_events += m.shun_events;
    t.steps += m.steps;
    t.pool_reused += m.pool_reused;
    t.pool_alloc += m.pool_alloc;
    t.wire_frames += m.wire_frames;
    t.wire_bytes += m.wire_bytes;
    t.wire_malformed += m.wire_malformed;
    t.decode_misses += m.decode_misses().map(|(_, c)| c).sum::<u64>();
}

/// Prints a Markdown table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
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
) -> RunOutcome<bool> {
    run_protocol(rt, n, t, seed, sched, adversary, |_, _| {
        Box::new(CoinFlip::new(CoinFlipParams::FixedK { k }, coin))
    })
    .map_outputs(|o: CoinFlipOutput| o.value)
}

/// Runs one `FairChoice(m)` execution.
#[allow(clippy::too_many_arguments)] // mirrors the experiment parameter grid
pub fn run_fair_choice(
    rt: &RuntimeSpec,
    n: usize,
    t: usize,
    seed: u64,
    m: usize,
    k: usize,
    coin: CoinKind,
    sched: &str,
    adversary: Adversary,
) -> RunOutcome<usize> {
    run_protocol(rt, n, t, seed, sched, adversary, |_, _| {
        Box::new(FairChoice::new(m, FairChoiceParams::FixedK { k }, coin))
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
    let mut net = rt.make(NetConfig::new(n, t, seed), sched);
    let tracing = rt.attach_trace(net.as_mut());
    let sid = session("exp");
    for p in 0..n {
        let inst: Box<dyn Instance> = if adversary.is_byz(p, n, t) {
            Box::new(SilentInstance)
        } else {
            mk(p, false)
        };
        net.spawn(PartyId(p), sid.clone(), inst);
    }
    let report = net.run(4_000_000_000);
    record_totals(&report.metrics);
    if tracing {
        rt.dump_trace(
            net.as_mut(),
            &format!("n={n} t={t} seed={seed} sched={sched} rt={}", rt.label()),
        );
    }
    assert_eq!(
        report.stop,
        StopReason::Quiescent,
        "run must quiesce (n={n} seed={seed} sched={sched} rt={})",
        rt.label()
    );
    let honest: Vec<usize> = (0..n).filter(|&p| !adversary.is_byz(p, n, t)).collect();
    let outputs: Vec<T> = honest
        .iter()
        .filter_map(|&p| net.output_as::<T>(PartyId(p), &sid).cloned())
        .collect();
    let all_terminated = outputs.len() == honest.len();
    let agreement = outputs.windows(2).all(|w| w[0] == w[1]);
    RunOutcome {
        outputs,
        all_terminated,
        agreement,
        metrics: report.metrics.clone(),
        steps: report.steps,
    }
}

impl<T> RunOutcome<T> {
    /// Maps the output type (e.g. project a field out of a richer output).
    pub fn map_outputs<U>(self, f: impl Fn(T) -> U) -> RunOutcome<U> {
        RunOutcome {
            outputs: self.outputs.into_iter().map(f).collect(),
            all_terminated: self.all_terminated,
            agreement: self.agreement,
            metrics: self.metrics,
            steps: self.steps,
        }
    }
}

/// Formats a probability with a 95% binomial confidence half-width.
pub fn fmt_prob(successes: usize, trials: usize) -> String {
    if trials == 0 {
        return "n/a".into();
    }
    let p = successes as f64 / trials as f64;
    let ci = 1.96 * (p * (1.0 - p) / trials as f64).sqrt();
    format!("{p:.3} ± {ci:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coin_runner_smoke() {
        let rt = RuntimeSpec::named("sim");
        let out = run_coin(
            &rt,
            4,
            1,
            0,
            1,
            CoinKind::Oracle(1),
            "random",
            Adversary::None,
        );
        assert!(out.all_terminated);
        assert!(out.agreement);
        assert_eq!(out.outputs.len(), 4);
    }

    #[test]
    fn coin_runner_on_threaded_backend() {
        let rt = RuntimeSpec::named("threaded");
        let out = run_coin(
            &rt,
            4,
            1,
            0,
            1,
            CoinKind::Oracle(1),
            "random",
            Adversary::None,
        );
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
                assert!(RuntimeSpec::named(&pinned).backend().is_err());
            }
        }
        let proc_sized = RuntimeSpec::named("proc:4");
        assert!(!proc_sized.honors_schedulers());
        assert_eq!(proc_sized.backend_for("lifo"), "proc:4");
    }

    #[test]
    fn coin_runner_on_wire_backend() {
        aft_core::scenarios::register_standard_codecs();
        let rt = RuntimeSpec::named("wire");
        let out = run_coin(
            &rt,
            4,
            1,
            0,
            1,
            CoinKind::Oracle(1),
            "random",
            Adversary::None,
        );
        assert!(out.all_terminated);
        assert!(out.agreement);
        assert!(out.metrics.wire_frames > 0, "bytes moved on the wire");
    }

    #[test]
    fn coin_runner_on_async_and_proc_backends() {
        for name in ["async", "proc:4"] {
            let rt = RuntimeSpec::named(name);
            let out = run_coin(
                &rt,
                4,
                1,
                0,
                1,
                CoinKind::Oracle(1),
                "random",
                Adversary::None,
            );
            assert!(out.all_terminated, "{name}");
            assert!(out.agreement, "{name}");
        }
    }

    #[test]
    fn coin_runner_on_sharded_backend() {
        let rt = RuntimeSpec::named("sharded:2");
        let out = run_coin(
            &rt,
            4,
            1,
            0,
            1,
            CoinKind::Oracle(1),
            "random",
            Adversary::None,
        );
        assert!(out.all_terminated);
        assert!(out.agreement);
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
