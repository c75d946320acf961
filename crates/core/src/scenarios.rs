//! Standard adversarial-scenario stacks and their machine-stated
//! invariants.
//!
//! [`aft_sim::scenario`] defines *what* an adversary is (corruption plan,
//! scheduler, backend); this module defines *what it attacks* and *what
//! must survive*. [`StackKind`] is the only description of a reference
//! stack: its episodes and root sessions ([`StackKind::episodes`]), each
//! party's honest instance ([`StackKind::honest_instance`]), how a root
//! output crosses the deployment's control protocol
//! ([`StackKind::render_output`] / [`StackKind::parse_output`]), and the
//! safety invariants the paper claims for it, stated once in the pure
//! [`StackKind::check`] — the in-process cell runner, `aft-partyd` and the
//! deployment supervisor all go through these:
//!
//! | stack | episodes | violation classes of `check` | deployable |
//! |---|---|---|---|
//! | [`StackKind::Ba`]: unanimous-input [`BinaryBa`] | `ba` | `termination:`, `agreement:`, `validity:` | yes |
//! | [`StackKind::SvssChain`]: [`SvssShare`] → [`SvssRec`], dealer party 0 | `svss-share` → `svss-rec` | honest dealer: `share-liveness:`, `secrecy-proxy:` (no single share reveals the secret), `rec-termination:`, `binding:` to the dealt secret; faulty dealer: `binding-without-shun:` | no (carries between episodes) |
//! | [`StackKind::CommonSubset`]: [`CommonSubsetInstance`] | `cs` | `termination:`, `subset-size:` (`|S| ≥ n − t`), `subset-members:` (in range), `consistency:` | yes |
//!
//! On every stack an honest output of the wrong type is
//! `malformed-output:`, and the cell runner adds the bookkeeping
//! invariants per episode: quiescence and message conservation.
//!
//! [`standard_registry`] assembles the named attacks the protocol crates
//! export ([`aft_ba::attacks::register_attacks`],
//! [`aft_svss::attacks::register_attacks`]); [`run_cell`] executes one
//! `(scenario, seed)` cell of a [`ScenarioMatrix`](aft_sim::ScenarioMatrix)
//! sweep and returns a [`CellReport`] whose violations list is empty iff
//! every invariant held, and whose fingerprint supports bit-for-bit
//! cross-backend and re-run comparison.
//!
//! To add an attack, write it as an `Instance` next to the protocol it
//! targets and register a factory in that crate's `register_attacks`: it
//! answers [`AttackRole::Honest`](aft_sim::AttackRole::Honest) for the
//! episodes it leaves alone and reads prior-episode state from
//! [`AttackCtx::carry`](aft_sim::AttackCtx::carry). Then add a
//! `corrupt=` plan to [`StackKind::standard_plans`]; the conformance
//! matrix, `exp_scenario_matrix` and the proptests pick it up from there.

use crate::config::CoinKind;
use crate::CommonSubsetInstance;
use aft_ba::{BinaryBa, OracleCoin};
use aft_field::Fp;
use aft_sim::{
    AttackRegistry, Fingerprint, Instance, Metrics, PartyId, Payload, RunReport, Runtime, Scenario,
    SessionId, SessionTag, SilentInstance, StopReason, TraceEvent, TraceMode,
};
use aft_svss::{ShareBundle, SvssRec, SvssShare};
use std::path::{Path, PathBuf};

/// Builds the registry of every named attack the workspace's protocol
/// crates export. The conformance suite, the sweep driver and the
/// proptests all resolve scenario attack names through this.
///
/// As a side effect this also installs the workspace's wire codecs into
/// the process-global [`CodecRegistry`](aft_sim::CodecRegistry) (see
/// [`register_standard_codecs`]), so every code path that can run
/// scenario cells — including `rt=wire` cells built by name — resolves
/// frame kinds without further setup.
pub fn standard_registry() -> AttackRegistry {
    register_standard_codecs();
    let mut registry = AttackRegistry::new();
    aft_ba::attacks::register_attacks(&mut registry);
    aft_svss::attacks::register_attacks(&mut registry);
    registry
}

/// Installs every protocol crate's wire kinds into the process-global
/// codec registry (builtins are always present). Idempotent; call before
/// building `rt=wire` runtimes by name so their frames carry registered
/// kind names.
pub fn register_standard_codecs() {
    aft_sim::wire::register_global(|reg| {
        aft_broadcast::register_codecs(reg);
        aft_ba::register_codecs(reg);
        aft_svss::register_codecs(reg);
        reg.register::<crate::PredicateMsg>();
    });
}

/// Which reference stack a scenario cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackKind {
    /// Binary Byzantine agreement with unanimous honest inputs.
    Ba,
    /// SVSS share→reconstruct, two episodes on persistent node state.
    SvssChain,
    /// Common subset over self-announcing predicates.
    CommonSubset,
}

impl StackKind {
    /// Every reference stack.
    pub fn all() -> [StackKind; 3] {
        [StackKind::Ba, StackKind::SvssChain, StackKind::CommonSubset]
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            StackKind::Ba => "ba",
            StackKind::SvssChain => "svss",
            StackKind::CommonSubset => "common-subset",
        }
    }

    /// Inverse of [`StackKind::label`] — used by the search corpus, whose
    /// persisted entries name their stack by label.
    pub fn from_label(label: &str) -> Option<StackKind> {
        StackKind::all().into_iter().find(|k| k.label() == label)
    }

    /// The standard fault-plan axis for this stack (`corrupt=` values;
    /// `""` is the all-honest control row). Plans pair generic behaviours
    /// with the protocol's registered attacks.
    pub fn standard_plans(&self) -> &'static [&'static str] {
        match self {
            StackKind::Ba => &[
                "",
                "silent@3",
                "crash@1",
                "mute-after:6@2",
                "garbage:40@3",
                "equivocate:12@1",
                "random-voter@3",
                "fixed-voter:true@2",
            ],
            StackKind::SvssChain => &[
                "",
                "silent@3",
                "crash@3",
                "garbage:40@2",
                "equivocate:10@2",
                "silent-rec@3",
                "wrong-sigma@3",
                "wrong-sigma:reveal@3",
                "equivocal-reveal@3",
                "wrong-cross@2",
                "two-faced-dealer@0",
            ],
            StackKind::CommonSubset => &[
                "",
                "silent@3",
                "crash@3",
                "mute-after:8@2",
                "garbage:30@2",
                "equivocate:8@1",
            ],
        }
    }

    /// The stack's episodes in run order, each with the root session it
    /// runs at. An episode's name is its session's kind, and what attack
    /// factories see as [`AttackCtx::episode`](aft_sim::AttackCtx); every
    /// episode after the first gets the previous one's per-party outputs
    /// as carries.
    pub fn episodes(&self) -> Vec<(&'static str, SessionId)> {
        let names: &[&'static str] = match self {
            StackKind::Ba => &["ba"],
            StackKind::SvssChain => &["svss-share", "svss-rec"],
            StackKind::CommonSubset => &["cs"],
        };
        let root = |kind| SessionId::root().child(SessionTag::new(kind, 0));
        names.iter().map(|&kind| (kind, root(kind))).collect()
    }

    /// Builds `party`'s honest root instance for `episode`. Inputs are a
    /// function of `seed` alone: BA's unanimous input is its parity, the
    /// SVSS dealer (party 0) deals `7·seed + 3`.
    pub fn honest_instance(
        &self,
        episode: &str,
        party: PartyId,
        scenario: &Scenario,
        seed: u64,
        carry: Option<&Payload>,
    ) -> Box<dyn Instance> {
        match (self, episode) {
            (StackKind::Ba, _) => Box::new(BinaryBa::new(
                seed.is_multiple_of(2),
                Box::new(OracleCoin::new(seed)),
            )),
            (StackKind::SvssChain, "svss-share") if party == DEALER => {
                Box::new(SvssShare::dealer(DEALER, dealt_secret(seed)))
            }
            (StackKind::SvssChain, "svss-share") => Box::new(SvssShare::party(DEALER)),
            (StackKind::SvssChain, _) => {
                match carry.and_then(|c| c.downcast_arc::<ShareBundle>()) {
                    Some(bundle) => Box::new(SvssRec::new(bundle)),
                    // No bundle (faulty dealer): the party cannot reconstruct.
                    None => Box::new(SilentInstance),
                }
            }
            (StackKind::CommonSubset, _) => Box::new(CommonSubsetInstance::new(
                scenario.n - scenario.t,
                CoinKind::Oracle(seed),
                true,
            )),
        }
    }

    /// Renders a root-session output as the single token the deployment's
    /// control protocol carries: `true`/`false` for BA, `0+1+2` for a
    /// subset (nothing for the empty one). `None` for a payload of
    /// another type, and for the SVSS chain, which is not deployed.
    pub fn render_output(&self, payload: &Payload) -> Option<String> {
        match self {
            StackKind::Ba => payload.downcast_ref::<bool>().map(|b| b.to_string()),
            StackKind::SvssChain => None,
            StackKind::CommonSubset => payload.downcast_ref::<Vec<PartyId>>().map(|s| {
                let members: Vec<String> = s.iter().map(|p| p.0.to_string()).collect();
                members.join("+")
            }),
        }
    }

    /// Inverse of [`StackKind::render_output`]; `None` for text that it
    /// cannot have produced.
    pub fn parse_output(&self, text: &str) -> Option<Payload> {
        match self {
            StackKind::Ba => text.parse::<bool>().ok().map(Payload::new),
            StackKind::SvssChain => None,
            StackKind::CommonSubset if text.is_empty() => Some(Payload::new(Vec::<PartyId>::new())),
            StackKind::CommonSubset => text
                .split('+')
                .map(|m| m.parse().ok().map(PartyId))
                .collect::<Option<Vec<PartyId>>>()
                .map(Payload::new),
        }
    }

    /// The stack's invariants after `episode`, as a pure function of what
    /// was collected — whoever hosted the parties: `outputs[p]` is party
    /// `p`'s output at the episode's root session, `honest` the parties
    /// the guarantees bind (scenario-honest, minus adaptive victims),
    /// `shun_events` the run's shun count so far. Returns the violations
    /// listed in the [module table](self), empty iff the episode is safe;
    /// every message starts with its class (`termination:`, `agreement:`,
    /// …), which is what [`violation_class`](crate::search::violation_class)
    /// and persisted corpora match on.
    pub fn check(
        &self,
        episode: &str,
        scenario: &Scenario,
        seed: u64,
        honest: &[PartyId],
        outputs: &[Option<Payload>],
        shun_events: u64,
    ) -> Vec<String> {
        let mut violations = Vec::new();
        let dealer_honest = honest.contains(&DEALER);
        match (self, episode) {
            (StackKind::Ba, _) => {
                let input = seed.is_multiple_of(2);
                let decided: Vec<bool> =
                    typed_outputs(Some("termination"), honest, outputs, &mut violations)
                        .into_iter()
                        .map(|(_, d)| *d)
                        .collect();
                if decided.windows(2).any(|w| w[0] != w[1]) {
                    violations.push(format!("agreement: honest decisions {decided:?}"));
                }
                if decided.iter().any(|&d| d != input) {
                    violations.push(format!(
                        "validity: unanimous input {input} but decisions {decided:?}"
                    ));
                }
            }
            // With a faulty dealer the share phase promises nothing.
            (StackKind::SvssChain, "svss-share") if dealer_honest => {
                let secret = dealt_secret(seed);
                typed_outputs::<ShareBundle>(
                    Some("share-liveness"),
                    honest,
                    outputs,
                    &mut violations,
                );
                // Secrecy proxy: no *single* party's share-phase view
                // determines the dealt secret — each σ_i = F(x_i, 0) and
                // its column counterpart F(0, x_i) must differ from
                // F(0, 0). Full t-collusion secrecy is information-theoretic
                // and not directly checkable in one run, but a degenerate
                // dealer polynomial (degree-0 sharing, secret embedded in
                // every row) fails this for every party. A random degree-t
                // bivariate hits equality only with probability ~n/2⁶¹ per
                // run, and the runs are seed-deterministic, so the check
                // never flakes. The dealer legitimately knows the secret.
                for (p, output) in outputs.iter().enumerate().skip(1) {
                    let Some(bundle) = output
                        .as_ref()
                        .and_then(|o| o.downcast_ref::<ShareBundle>())
                    else {
                        continue;
                    };
                    let leaks = [&bundle.row, &bundle.col]
                        .into_iter()
                        .flatten()
                        .any(|poly| poly.eval(Fp::ZERO) == secret);
                    if leaks {
                        violations.push(format!(
                            "secrecy-proxy: party {p}'s single share evaluates to the dealt secret"
                        ));
                    }
                }
            }
            (StackKind::SvssChain, "svss-share") => {}
            (StackKind::SvssChain, _) => {
                let secret = dealt_secret(seed);
                let missing = dealer_honest.then_some("rec-termination");
                let values = typed_outputs::<Fp>(missing, honest, outputs, &mut violations);
                if dealer_honest {
                    for (p, v) in values.iter().filter(|(_, v)| **v != secret) {
                        violations.push(format!(
                            "binding: honest party {} reconstructed {v:?}, dealt {secret:?}",
                            p.0
                        ));
                    }
                } else if values.windows(2).any(|w| w[0].1 != w[1].1) && shun_events == 0 {
                    // Faulty dealer: binding may fail, but only alongside
                    // shuns (Definition 3.2's escape hatch).
                    let values: Vec<&Fp> = values.iter().map(|(_, v)| *v).collect();
                    violations.push(format!(
                        "binding-without-shun: divergent reconstructions {values:?} with zero shun events"
                    ));
                }
            }
            (StackKind::CommonSubset, _) => {
                let k = scenario.n - scenario.t;
                let sets = typed_outputs::<Vec<PartyId>>(
                    Some("termination"),
                    honest,
                    outputs,
                    &mut violations,
                );
                for (p, s) in &sets {
                    if s.len() < k {
                        violations.push(format!(
                            "subset-size: party {} output {} members, need >= {k}",
                            p.0,
                            s.len()
                        ));
                    }
                    if s.iter().any(|m| m.0 >= scenario.n) {
                        violations.push(format!("subset-members: party {} output {s:?}", p.0));
                    }
                }
                if sets.windows(2).any(|w| w[0].1 != w[1].1) {
                    let sets: Vec<_> = sets.iter().map(|(_, s)| *s).collect();
                    violations.push(format!("consistency: honest subsets disagree: {sets:?}"));
                }
            }
        }
        violations
    }

    /// Folds every party's `episode` output into a cell fingerprint. The
    /// share phase's bundles are left out: its metrics pin it already.
    fn fingerprint_outputs(
        &self,
        episode: &str,
        outputs: &[Option<Payload>],
        fp: &mut Fingerprint,
    ) {
        match (self, episode) {
            (StackKind::Ba, _) => fingerprint_as::<bool>(outputs, fp),
            (StackKind::SvssChain, "svss-share") => {}
            (StackKind::SvssChain, _) => fingerprint_as::<Fp>(outputs, fp),
            (StackKind::CommonSubset, _) => fingerprint_as::<Vec<PartyId>>(outputs, fp),
        }
    }
}

/// The SVSS chain's dealer.
const DEALER: PartyId = PartyId(0);

/// The secret the SVSS chain's dealer deals in a run with `seed`.
fn dealt_secret(seed: u64) -> Fp {
    Fp::new(seed.wrapping_mul(7).wrapping_add(3))
}

/// The outcome of one `(scenario, seed)` cell: invariant violations (empty
/// iff the run was safe) plus a deterministic fingerprint of outputs and
/// metrics for cross-backend / re-run bit-equality checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellReport {
    /// Human-readable invariant violations; empty means the cell is safe.
    pub violations: Vec<String>,
    /// FNV fingerprint of all party outputs and the final metrics.
    pub fingerprint: u64,
    /// Total envelopes sent.
    pub sent: u64,
    /// Total envelopes delivered.
    pub delivered: u64,
    /// Delivery steps executed.
    pub steps: u64,
}

/// The step budget per episode of [`run_cell`] and [`run_cell_traced`].
/// The search loop passes [`run_cell_instrumented`] a small one instead,
/// so a planted non-quiescing scenario (e.g. an adaptive storm) reports
/// `StepLimit` + conservation violations quickly instead of spinning.
pub const STEP_BUDGET: u64 = 2_000_000_000;

/// Runs one cell of `kind`'s stack under `scenario` with `seed`.
pub fn run_cell(
    kind: StackKind,
    scenario: &Scenario,
    seed: u64,
    registry: &AttackRegistry,
) -> CellReport {
    run_cell_instrumented(kind, scenario, seed, registry, STEP_BUDGET, TraceMode::Off).report
}

/// [`run_cell`] with the flight recorder attached: returns the cell
/// report plus the retained trace events. Because a cell is a pure
/// function of `(scenario, seed)` and tracing is observational, the
/// report is bit-for-bit identical to the untraced run — which is what
/// makes post-hoc forensics sound: any violating cell can be re-run
/// traced and yields the *same* violation.
pub fn run_cell_traced(
    kind: StackKind,
    scenario: &Scenario,
    seed: u64,
    registry: &AttackRegistry,
    mode: TraceMode,
) -> (CellReport, Vec<TraceEvent>) {
    let outcome = run_cell_instrumented(kind, scenario, seed, registry, STEP_BUDGET, mode);
    (outcome.report, outcome.events)
}

/// Everything one instrumented cell run produces: the report, the final
/// metrics snapshot (the coverage-signal source), retained trace events
/// and the adaptive adversary's final victim set.
pub struct CellOutcome {
    /// The cell report ([`run_cell`]'s return value, bit-identical).
    pub report: CellReport,
    /// Final metrics snapshot: per-kind send counts, decode misses,
    /// pool/wire counters, virtual times — the coverage-signal source.
    pub metrics: Metrics,
    /// Retained trace events (empty when `mode` is [`TraceMode::Off`]).
    pub events: Vec<TraceEvent>,
    /// Parties the adaptive adversary corrupted (static seeds included);
    /// empty for non-adaptive scenarios.
    pub victims: Vec<PartyId>,
    /// Each party's [`Node::repeated_output_count`](aft_sim::Node::repeated_output_count)
    /// at the end, in party order: outputs dropped because their session
    /// had already output. In neither the report nor its fingerprint.
    pub repeated_outputs: Vec<u64>,
}

/// The cell runner: deploys and runs `kind`'s episodes in order on one
/// runtime, each with at most `budget` steps, and after each one checks
/// the bookkeeping invariants and [`StackKind::check`] and folds metrics
/// and outputs into the fingerprint. Returns the report plus the final
/// [`Metrics`], the retained trace events and the adaptive victim set.
pub fn run_cell_instrumented(
    kind: StackKind,
    scenario: &Scenario,
    seed: u64,
    registry: &AttackRegistry,
    budget: u64,
    mode: TraceMode,
) -> CellOutcome {
    let mut rt = scenario.runtime(seed);
    rt.set_trace(mode);
    let mut violations = Vec::new();
    let mut fp = Fingerprint::new();
    let mut totals = Metrics::default();
    // Each episode's per-party outputs, carried into the next one.
    let mut outputs: Vec<Option<Payload>> = Vec::new();
    for (episode, session) in kind.episodes() {
        // Reports and fingerprints name an episode without its stack prefix.
        let phase = episode.strip_prefix("svss-").unwrap_or(episode);
        let ran = run_episode(
            rt.as_mut(),
            scenario,
            registry,
            episode,
            &session,
            &outputs,
            budget,
            |p, carry| kind.honest_instance(episode, p, scenario, seed, carry),
        );
        let run;
        (run, outputs) = match ran {
            Ok(ran) => ran,
            Err(e) => {
                violations.push(format!("deploy {phase}: {e}"));
                break;
            }
        };
        // Backend-independent bookkeeping: quiescence and conservation.
        let m = &run.metrics;
        if run.stop != StopReason::Quiescent {
            violations.push(format!("{phase}: run did not quiesce ({:?})", run.stop));
        }
        if m.sent != m.delivered + m.dropped_shunned + m.dropped_crashed {
            violations.push(format!(
                "{phase}: message conservation broken (sent {} != delivered {} + shunned {} + crashed {})",
                m.sent, m.delivered, m.dropped_shunned, m.dropped_crashed
            ));
        }
        fp.write_str(phase);
        fp.write_metrics(m);
        // Adaptive corruptions happened *during* the run: parties the
        // controller struck are Byzantine now, so the paper's guarantees
        // only bind the parties that remain honest. Re-read after every
        // episode — a dealer corrupted mid-share demotes the cell to the
        // faulty-dealer invariants from that point on.
        let victims = adaptive_victims(rt.as_ref());
        let honest: Vec<PartyId> = scenario
            .honest_parties()
            .filter(|p| !victims.contains(p))
            .collect();
        violations.extend(kind.check(episode, scenario, seed, &honest, &outputs, m.shun_events));
        kind.fingerprint_outputs(episode, &outputs, &mut fp);
        totals = run.metrics;
    }
    CellOutcome {
        report: CellReport {
            violations,
            fingerprint: fp.finish(),
            sent: totals.sent,
            delivered: totals.delivered,
            steps: totals.steps,
        },
        metrics: rt.metrics(),
        victims: adaptive_victims(rt.as_ref()),
        repeated_outputs: (0..scenario.n)
            .map(|p| rt.node(PartyId(p)).repeated_output_count())
            .collect(),
        events: rt.take_trace().map(|s| s.snapshot()).unwrap_or_default(),
    }
}

/// The one spawn-and-run step: deploys `episode` of a stack under
/// `scenario`'s corruption plan at `session` on `rt`
/// ([`Scenario::deploy_episode`], `honest` building each honest party's
/// instance from its carry), runs at most `budget` steps and returns the
/// run's report with every party's output at `session`, in party order.
/// `Err` is the deploy error; nothing has run then.
#[allow(clippy::too_many_arguments)] // one episode's full coordinates
pub fn run_episode(
    rt: &mut dyn Runtime,
    scenario: &Scenario,
    registry: &AttackRegistry,
    episode: &str,
    session: &SessionId,
    carries: &[Option<Payload>],
    budget: u64,
    honest: impl FnMut(PartyId, Option<&Payload>) -> Box<dyn Instance>,
) -> Result<(RunReport, Vec<Option<Payload>>), String> {
    scenario.deploy_episode(rt, registry, episode, session, carries, honest)?;
    let run = rt.run(budget);
    let outputs = (0..scenario.n).map(|p| rt.output(PartyId(p), session).cloned());
    Ok((run, outputs.collect()))
}

/// The adaptive adversary's victim set so far (empty without a
/// controller). Invariant checkers subtract these from the honest set:
/// an adaptively corrupted party is Byzantine, and the paper's guarantees
/// are stated for the parties that *remain* honest.
fn adaptive_victims(rt: &dyn Runtime) -> Vec<PartyId> {
    rt.adaptive_handle()
        .map(|ctrl| {
            ctrl.lock()
                .expect("adaptive controller lock poisoned")
                .plan()
                .victims()
                .collect()
        })
        .unwrap_or_default()
}

/// Default repro-bundle directory: `$AFT_REPRO_DIR`, or `target/repro`.
pub fn repro_dir() -> PathBuf {
    std::env::var_os("AFT_REPRO_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/repro"))
}

/// Writes a violation repro bundle under `dir` and returns the bundle
/// path. The bundle holds everything needed to replay and inspect the
/// failing cell:
///
/// * `scenario.txt` — the scenario spec string, stack, seed, fingerprint
///   and the violations, one per line (replay with
///   `exp_trace --stack <stack> --scenario '<spec>' --seed <seed>`);
/// * `trace.jsonl` + `trace.perfetto.json` — the retained events, as
///   every capture is written ([`aft_sim::trace::write_trace`]).
pub fn write_repro_bundle(
    dir: &Path,
    kind: StackKind,
    scenario: &Scenario,
    seed: u64,
    report: &CellReport,
    events: &[TraceEvent],
) -> std::io::Result<PathBuf> {
    let bundle = dir.join(format!(
        "{}-seed{}-{:016x}",
        kind.label(),
        seed,
        report.fingerprint
    ));
    std::fs::create_dir_all(&bundle)?;
    let mut manifest = String::new();
    manifest.push_str(&format!("scenario: {scenario}\n"));
    manifest.push_str(&format!("stack: {}\n", kind.label()));
    manifest.push_str(&format!("seed: {seed}\n"));
    manifest.push_str(&format!("fingerprint: {:016x}\n", report.fingerprint));
    manifest.push_str(&format!(
        "sent: {} delivered: {} steps: {}\n",
        report.sent, report.delivered, report.steps
    ));
    manifest.push_str(&format!("events-retained: {}\n", events.len()));
    for v in &report.violations {
        manifest.push_str(&format!("violation: {v}\n"));
    }
    std::fs::write(bundle.join("scenario.txt"), manifest)?;
    aft_sim::trace::write_trace(&bundle.join("trace.jsonl"), events)?;
    Ok(bundle)
}

/// Runs the cell with the flight recorder on and, if it violates an
/// invariant, drops a repro bundle under [`repro_dir`] and says where on
/// stderr. Cells are pure functions of `(scenario, seed)`, so calling
/// this on a cell that violated untraced reproduces the violation
/// bit-for-bit.
pub fn run_cell_to_bundle(
    kind: StackKind,
    scenario: &Scenario,
    seed: u64,
    registry: &AttackRegistry,
    budget: u64,
    mode: TraceMode,
) -> CellOutcome {
    let outcome = run_cell_instrumented(kind, scenario, seed, registry, budget, mode);
    if !outcome.report.violations.is_empty() {
        let written = write_repro_bundle(
            &repro_dir(),
            kind,
            scenario,
            seed,
            &outcome.report,
            &outcome.events,
        );
        match written {
            Ok(bundle) => eprintln!("repro bundle: {}", bundle.display()),
            Err(e) => eprintln!("repro bundle write failed: {e}"),
        }
    }
    outcome
}

/// The honest parties' outputs that are a `T`. One of another type is a
/// `malformed-output:` violation; a missing one is a `<missing>:`
/// violation when the episode owes the party an output.
fn typed_outputs<'a, T: 'static>(
    missing: Option<&str>,
    honest: &[PartyId],
    outputs: &'a [Option<Payload>],
    violations: &mut Vec<String>,
) -> Vec<(PartyId, &'a T)> {
    let mut typed = Vec::new();
    for &p in honest {
        match outputs.get(p.0).and_then(Option::as_ref) {
            None => violations.extend(
                missing.map(|class| format!("{class}: honest party {} has no output", p.0)),
            ),
            Some(output) => match output.downcast_ref::<T>() {
                Some(value) => typed.push((p, value)),
                None => violations.push(format!(
                    "malformed-output: party {} output {output:?}, want {}",
                    p.0,
                    std::any::type_name::<T>()
                )),
            },
        }
    }
    typed
}

fn fingerprint_as<T: std::fmt::Debug + 'static>(outputs: &[Option<Payload>], fp: &mut Fingerprint) {
    for output in outputs {
        let typed = output.as_ref().and_then(|o| o.downcast_ref::<T>());
        fp.write_str(&format!("{typed:?}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_has_every_protocol_attack() {
        let registry = standard_registry();
        for name in [
            "random-voter",
            "fixed-voter",
            "two-faced-dealer",
            "wrong-cross",
            "wrong-sigma",
            "equivocal-reveal",
            "silent-rec",
        ] {
            assert!(registry.contains(name), "{name}");
        }
    }

    #[test]
    fn standard_plans_resolve_in_the_standard_registry() {
        let registry = standard_registry();
        for kind in StackKind::all() {
            assert!(kind.standard_plans().len() >= 6, "{:?}", kind.label());
            for plan in kind.standard_plans() {
                let spec = if plan.is_empty() {
                    "n=4,t=1".to_string()
                } else {
                    format!("n=4,t=1,corrupt={plan}")
                };
                let scenario = Scenario::parse(&spec)
                    .unwrap_or_else(|| panic!("{:?} plan {plan:?} must parse", kind.label()));
                scenario
                    .validate_attacks(&registry)
                    .unwrap_or_else(|e| panic!("{:?} plan {plan:?}: {e}", kind.label()));
            }
        }
    }

    #[test]
    fn honest_cells_are_safe_on_every_stack() {
        let registry = standard_registry();
        let scenario = Scenario::parse("n=4,t=1,sched=random,rt=sim").unwrap();
        for kind in StackKind::all() {
            let report = run_cell(kind, &scenario, 7, &registry);
            assert!(
                report.violations.is_empty(),
                "{}: {:?}",
                kind.label(),
                report.violations
            );
            assert!(report.sent > 0);
        }
    }

    #[test]
    fn ba_cell_flags_a_rigged_run() {
        // A scenario the BA stack cannot survive: every party silent means
        // no honest termination — the invariant machinery must say so
        // (this guards the checker itself, not the protocol).
        let registry = standard_registry();
        let mut scenario = Scenario::parse("n=4,t=1,corrupt=silent@3,sched=fifo,rt=sim").unwrap();
        // Manually stretch the corruption budget past what parse allows,
        // to starve BA below its quorum.
        scenario.corruptions = (1..4)
            .map(|p| aft_sim::Corruption {
                party: PartyId(p),
                fault: aft_sim::FaultSpec::Silent,
            })
            .collect();
        let report = run_cell(StackKind::Ba, &scenario, 1, &registry);
        assert!(
            report.violations.iter().any(|v| v.contains("termination")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn equivocal_reveal_cell_draws_shuns_and_stays_bound() {
        let registry = standard_registry();
        let scenario =
            Scenario::parse("n=4,t=1,corrupt=equivocal-reveal@3,sched=random,rt=sim").unwrap();
        let report = run_cell(StackKind::SvssChain, &scenario, 5, &registry);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    /// The stack's final-episode `check` over hand-made outputs.
    fn check_of<T: Clone + Send + Sync + 'static>(
        kind: StackKind,
        spec: &str,
        seed: u64,
        outputs: &[Option<T>],
    ) -> Vec<String> {
        let scenario = Scenario::parse(spec).unwrap();
        let honest: Vec<PartyId> = scenario.honest_parties().collect();
        let outputs: Vec<_> = outputs
            .iter()
            .map(|o| o.clone().map(Payload::new))
            .collect();
        let (episode, _) = kind.episodes().pop().unwrap();
        kind.check(episode, &scenario, seed, &honest, &outputs, 0)
    }

    fn has(violations: &[String], class: &str) -> bool {
        violations.iter().any(|v| v.starts_with(class))
    }

    #[test]
    fn ba_check_covers_termination_agreement_validity() {
        let spec = "n=4,t=1,corrupt=silent@3,rt=proc";
        let check =
            |seed, outputs: [Option<bool>; 4]| check_of(StackKind::Ba, spec, seed, &outputs);
        // The silent party owes nothing.
        let good = [Some(true), Some(true), Some(true), None];
        assert!(check(2, good).is_empty());
        assert!(has(
            &check(2, [Some(true), Some(false), Some(true), None]),
            "agreement:"
        ));
        assert!(has(
            &check(2, [Some(true), None, Some(true), None]),
            "termination:"
        ));
        // Odd seed means unanimous input `false`: all-true is a validity
        // violation even though it agrees.
        let violations = check(3, good);
        assert!(has(&violations, "validity:") && !has(&violations, "agreement:"));
        // An output of another type is neither a decision nor silence.
        let violations = check_of(StackKind::Ba, spec, 2, &[Some("true"); 4]);
        assert!(has(&violations, "malformed-output:"), "{violations:?}");
    }

    #[test]
    fn cs_check_covers_size_members_consistency() {
        let set = |ids: &[usize]| Some(ids.iter().copied().map(PartyId).collect::<Vec<_>>());
        let check = |outputs: &[Option<Vec<PartyId>>]| {
            check_of(StackKind::CommonSubset, "n=4,t=1,rt=proc", 9, outputs)
        };
        assert!(check(&vec![set(&[0, 1, 2]); 4]).is_empty());
        assert!(has(&check(&vec![set(&[0, 1]); 4]), "subset-size:"));
        assert!(has(&check(&vec![set(&[0, 1, 7]); 4]), "subset-members:"));
        let mut differ = vec![set(&[0, 1, 2]); 4];
        differ[2] = set(&[1, 2, 3]);
        assert!(has(&check(&differ), "consistency:"));
        differ[2] = None;
        assert!(has(&check(&differ), "termination:"));
    }

    #[test]
    fn control_protocol_outputs_round_trip_and_junk_is_refused() {
        let (ba, cs) = (StackKind::Ba, StackKind::CommonSubset);
        for b in [true, false] {
            let text = ba.render_output(&Payload::new(b)).unwrap();
            assert_eq!(ba.parse_output(&text).unwrap().downcast_ref(), Some(&b));
        }
        for ids in [vec![], vec![2], vec![0, 1, 3]] {
            let set: Vec<PartyId> = ids.into_iter().map(PartyId).collect();
            let text = cs.render_output(&Payload::new(set.clone())).unwrap();
            assert!(
                !text.contains(' '),
                "one token on the control line: {text:?}"
            );
            assert_eq!(cs.parse_output(&text).unwrap().downcast_ref(), Some(&set));
        }
        assert!(ba.parse_output("maybe").is_none());
        for junk in ["maybe", "0+x+2", "0++2", "+", "0+1+"] {
            assert!(cs.parse_output(junk).is_none(), "{junk}");
        }
        // Out of range is well-formed text: `check` reports it.
        assert!(cs.parse_output("0+1+99").is_some());
    }

    #[test]
    fn labels_round_trip_and_episodes_are_their_session_kinds() {
        for kind in StackKind::all() {
            assert_eq!(StackKind::from_label(kind.label()), Some(kind));
            for (episode, session) in kind.episodes() {
                assert_eq!(session.last().map(|tag| tag.kind), Some(episode));
            }
        }
        assert_eq!(StackKind::from_label("nope"), None);
        // What the cell runner and a daemon both hand attacks as
        // `AttackCtx::episode`.
        assert_eq!(StackKind::Ba.episodes()[0].0, "ba");
        assert_eq!(StackKind::CommonSubset.episodes()[0].0, "cs");
    }
}
