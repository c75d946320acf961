//! The five workloads. Each has two ways to run one execution:
//!
//! * [`Workload::exec`] — the program's public one-call entry point
//!   (`run_cell_instrumented`, `run_fba`, `run_deployment`), as a user
//!   calls it. The measured pass uses only this.
//! * [`Workload::exec_split`] — the same execution assembled from the
//!   public pieces underneath, so the benchmark can put `build` / `run` /
//!   `check` spans around them. The traced pass runs both on the same
//!   seed and counts any disagreement as a failed operation.

use crate::spans::Spans;
use aft_ba::{BinaryBa, OracleCoin};
use aft_bench::deployment::{run_deployment, DeployOptions, DeployStack};
use aft_bench::{run_fba, Adversary, RuntimeSpec};
use aft_core::scenarios::{run_cell_instrumented, StackKind};
use aft_core::{CoinKind, CommonSubsetInstance, FairChoiceParams, Fba};
use aft_sim::{
    runtime_by_name, scheduler_by_name, AttackRegistry, Fingerprint, Metrics, NetConfig, PartyId,
    RunReport, Runtime, RuntimeExt, Scenario, SessionId, SimNetwork, StopReason, TraceMode,
};
use std::fmt::Debug;
use std::path::PathBuf;

/// Per-episode step budget of the scenario cells (`aft_core::scenarios`
/// uses the same value).
pub const CELL_BUDGET: u64 = 2_000_000_000;
/// Step budget of `aft_bench::run_protocol`.
pub const FBA_BUDGET: u64 = 4_000_000_000;

/// What every execution needs besides its seed.
pub struct Env {
    pub registry: AttackRegistry,
    /// Explicit `aft-partyd` path; never taken from the environment.
    pub partyd: PathBuf,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// `StackKind::Ba` scenario cell.
    BaCell,
    /// `StackKind::CommonSubset` scenario cell.
    CsCell,
    /// FBA over the strong coin over SVSS with `CoinKind::WeakShared`.
    Fba,
    /// Process-per-party BA deployment.
    DeployBa,
}

#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub stack: Stack,
    pub n: usize,
    pub t: usize,
    /// Scenario string (cells and deployment) or backend name (FBA).
    pub spec: &'static str,
    /// How many seeds the measured pass cycles through: enough that the
    /// median over them does not depend on which seeds they are (the cost
    /// of `cs-n7-faults-net` varies by a tenth with the seed, that of the
    /// others by a fiftieth), few enough that each is repeated ten times
    /// or more.
    pub pool: u64,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "ba-n32-sim",
        stack: Stack::BaCell,
        n: 32,
        t: 10,
        spec: "n=32,t=10,sched=random,rt=sim",
        pool: 8,
    },
    Workload {
        name: "fba-n7-sim",
        stack: Stack::Fba,
        n: 7,
        t: 2,
        spec: "sim",
        pool: 4,
    },
    Workload {
        name: "fba-n4-wire",
        stack: Stack::Fba,
        n: 4,
        t: 1,
        spec: "wire",
        pool: 8,
    },
    Workload {
        name: "cs-n7-faults-net",
        stack: Stack::CsCell,
        n: 7,
        t: 2,
        // The cut is named, not sampled (`partition=p50`): a sampled cut
        // that lands on a corrupt party changes nothing, and those seeds
        // cost twice the others (80 ms against 40 ms).
        spec: "n=7,t=2,corrupt=garbage:40@3;crash@5,\
               sched=net:lat=exp:5,partition=1,heal=200,rt=sim",
        pool: 16,
    },
    Workload {
        name: "deploy-ba-n4",
        stack: Stack::DeployBa,
        n: 4,
        t: 1,
        spec: "n=4,t=1,rt=proc",
        pool: 8,
    },
];

/// One finished execution.
pub struct Exec {
    pub sent: u64,
    pub delivered: u64,
    pub steps: u64,
    /// Outputs and run-affecting counters folded together; 0 on the
    /// deployment, whose interleaving is real.
    pub fingerprint: u64,
    /// Every failed check; empty iff the execution is correct.
    pub failures: Vec<String>,
    /// Final metrics snapshot; `None` on the deployment.
    pub metrics: Option<Metrics>,
    /// Longest causal chain of deliveries, when the flight recorder ran.
    pub causal_depth: u64,
}

fn fba_inputs(n: usize) -> Vec<String> {
    (0..n).map(|p| format!("v{p}")).collect()
}

/// Quiescent stop and message conservation.
fn check_bookkeeping(failures: &mut Vec<String>, stop: StopReason, m: &Metrics) {
    if stop != StopReason::Quiescent {
        failures.push(format!("run did not quiesce ({stop:?})"));
    }
    if m.sent != m.delivered + m.dropped_shunned + m.dropped_crashed {
        failures.push(format!(
            "conservation: sent {} != delivered {} + shunned {} + crashed {}",
            m.sent, m.delivered, m.dropped_shunned, m.dropped_crashed
        ));
    }
}

/// All outputs present and equal; returns the common value.
fn unanimous<'a, O: PartialEq + Debug>(
    outputs: &'a [Option<O>],
    failures: &mut Vec<String>,
) -> Option<&'a O> {
    if outputs.iter().any(Option::is_none) {
        failures.push(format!("termination: honest outputs {outputs:?}"));
    }
    let decided: Vec<&O> = outputs.iter().flatten().collect();
    if decided.windows(2).any(|w| w[0] != w[1]) {
        failures.push(format!("agreement: honest outputs {decided:?}"));
    }
    decided.first().copied()
}

/// Checks a finished run: bookkeeping, then `judge` over the honest
/// parties' common output of type `O`. The fingerprint folds `phase`,
/// the metrics and every party's output the way `aft_core::scenarios`
/// does, so the cells' fingerprints compare equal to the library's.
fn check<O: Clone + PartialEq + Debug + 'static>(
    rt: &dyn Runtime,
    report: &RunReport,
    n: usize,
    honest: &[PartyId],
    session: &SessionId,
    phase: &str,
    judge: impl FnOnce(&O) -> Option<String>,
) -> (Vec<String>, u64) {
    let mut failures = Vec::new();
    check_bookkeeping(&mut failures, report.stop, &report.metrics);
    let outputs: Vec<Option<O>> = honest
        .iter()
        .map(|&p| rt.output_as::<O>(p, session).cloned())
        .collect();
    if let Some(common) = unanimous(&outputs, &mut failures) {
        failures.extend(judge(common));
    }
    let mut fp = Fingerprint::new();
    fp.write_str(phase);
    fp.write_metrics(&report.metrics);
    for p in (0..n).map(PartyId) {
        fp.write_str(&format!("{:?}", rt.output_as::<O>(p, session)));
    }
    (failures, fp.finish())
}

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Whether a seed fixes the execution: true on the simulator, whose
    /// schedule is seeded; false on the deployment, whose interleaving is
    /// real.
    pub fn deterministic(&self) -> bool {
        self.stack != Stack::DeployBa
    }

    /// The same workload at the size ISSUE 11 probed it at. One execution
    /// of it takes 0.4 to 1.5 s, too long to find a gap between the bursts
    /// of the machine's other tenants, so the measured pass runs the
    /// smaller sizes above; the traced pass runs this one once, for the
    /// `network.full_size_*` readings.
    pub fn full_size(&self) -> Option<Workload> {
        let (n, t, spec) = match self.name {
            "ba-n32-sim" => (64, 21, "n=64,t=21,sched=random,rt=sim"),
            "fba-n7-sim" => (10, 3, "sim"),
            "fba-n4-wire" => (7, 2, "wire"),
            "cs-n7-faults-net" => (
                10,
                3,
                "n=10,t=3,corrupt=garbage:40@3;equivocate:12@1;crash@7,\
                 sched=net:lat=exp:5,partition=p50,heal=200,rt=sim",
            ),
            _ => return None,
        };
        Some(Workload {
            n,
            t,
            spec,
            ..*self
        })
    }

    /// The parsed scenario of a cell or deployment workload.
    fn scenario(&self) -> Scenario {
        Scenario::parse(self.spec).unwrap_or_else(|| panic!("scenario {:?} parses", self.spec))
    }

    /// The scheduler this workload's deliveries are picked by (the
    /// deployment's in-process twin uses random picks).
    fn sched(&self) -> String {
        match self.stack {
            Stack::BaCell | Stack::CsCell => self.scenario().sched,
            Stack::Fba | Stack::DeployBa => "random".to_string(),
        }
    }

    /// The in-process backend this workload's deliveries run on (the
    /// deployment's in-process twin is the plain simulator).
    pub fn backend(&self) -> String {
        match self.stack {
            Stack::BaCell | Stack::CsCell => self.scenario().backend_name(),
            Stack::Fba => format!("{}:random", self.spec),
            Stack::DeployBa => "sim:random".to_string(),
        }
    }

    fn deploy_options(&self, env: &Env, seed: u64) -> DeployOptions {
        let mut opts = DeployOptions::new(self.spec, DeployStack::Ba, seed);
        opts.partyd = Some(env.partyd.clone());
        opts
    }

    /// One execution through the public one-call entry point.
    pub fn exec(&self, env: &Env, seed: u64) -> Exec {
        match self.stack {
            Stack::BaCell | Stack::CsCell => {
                let kind = if self.stack == Stack::BaCell {
                    StackKind::Ba
                } else {
                    StackKind::CommonSubset
                };
                let out = run_cell_instrumented(
                    kind,
                    &self.scenario(),
                    seed,
                    &env.registry,
                    CELL_BUDGET,
                    TraceMode::Off,
                );
                Exec {
                    sent: out.report.sent,
                    delivered: out.report.delivered,
                    steps: out.report.steps,
                    fingerprint: out.report.fingerprint,
                    failures: out.report.violations,
                    metrics: Some(out.metrics),
                    causal_depth: 0,
                }
            }
            Stack::Fba => {
                let inputs = fba_inputs(self.n);
                // Panics (and so fails the whole run) unless quiescent.
                let out = run_fba(
                    &RuntimeSpec::named(self.spec),
                    self.n,
                    self.t,
                    seed,
                    &inputs,
                    1,
                    CoinKind::WeakShared,
                    "random",
                    Adversary::None,
                );
                let mut failures = Vec::new();
                check_bookkeeping(&mut failures, StopReason::Quiescent, &out.metrics);
                if !out.all_terminated {
                    failures.push(format!("termination: {} outputs", out.outputs.len()));
                }
                if !out.agreement {
                    failures.push(format!("agreement: {:?}", out.outputs));
                }
                if out.outputs.iter().any(|o| !inputs.contains(o)) {
                    failures.push(format!("validity: {:?} not an input", out.outputs));
                }
                let mut fp = Fingerprint::new();
                fp.write_str("fba");
                fp.write_metrics(&out.metrics);
                for o in &out.outputs {
                    fp.write_str(&format!("{:?}", Some(o)));
                }
                Exec {
                    sent: out.metrics.sent,
                    delivered: out.metrics.delivered,
                    steps: out.metrics.steps,
                    fingerprint: fp.finish(),
                    failures,
                    metrics: Some(out.metrics),
                    causal_depth: 0,
                }
            }
            Stack::DeployBa => deploy_exec(run_deployment(&self.deploy_options(env, seed)), self.n),
        }
    }

    /// The root session the one-call entry points deploy at.
    fn session(&self) -> SessionId {
        match self.stack {
            Stack::BaCell | Stack::DeployBa => aft_bench::session("ba"),
            Stack::CsCell => aft_bench::session("cs"),
            Stack::Fba => aft_bench::session("exp"),
        }
    }

    /// Spawns this workload's instances on `rt` exactly as its one-call
    /// entry point does (the deployment's in-process twin is the honest
    /// BA cell at n = 4).
    fn populate(&self, env: &Env, seed: u64, rt: &mut dyn Runtime) -> Result<(), String> {
        let session = self.session();
        let ba = |_: PartyId, _: Option<&aft_sim::Payload>| -> Box<dyn aft_sim::Instance> {
            Box::new(BinaryBa::new(
                seed.is_multiple_of(2),
                Box::new(OracleCoin::new(seed)),
            ))
        };
        match self.stack {
            Stack::BaCell => {
                self.scenario()
                    .deploy_episode(rt, &env.registry, "ba", &session, &[], ba)
            }
            Stack::DeployBa => Scenario::honest(self.n, self.t).deploy_episode(
                rt,
                &env.registry,
                "ba",
                &session,
                &[],
                ba,
            ),
            Stack::CsCell => {
                let k = self.n - self.t;
                self.scenario()
                    .deploy_episode(rt, &env.registry, "cs", &session, &[], |_, _| {
                        Box::new(CommonSubsetInstance::new(k, CoinKind::Oracle(seed), true))
                    })
            }
            Stack::Fba => {
                for (p, input) in fba_inputs(self.n).into_iter().enumerate() {
                    rt.spawn(
                        PartyId(p),
                        session.clone(),
                        Box::new(Fba::new(
                            input,
                            FairChoiceParams::FixedK { k: 1 },
                            CoinKind::WeakShared,
                        )),
                    );
                }
                Ok(())
            }
        }
    }

    /// Output invariants and fingerprint of a finished in-process run.
    fn check(&self, seed: u64, rt: &dyn Runtime, report: &RunReport) -> (Vec<String>, u64) {
        let (n, t) = (self.n, self.t);
        let session = self.session();
        let all: Vec<PartyId> = (0..n).map(PartyId).collect();
        match self.stack {
            Stack::BaCell | Stack::DeployBa => {
                let honest: Vec<PartyId> = if self.stack == Stack::BaCell {
                    self.scenario().honest_parties().collect()
                } else {
                    all
                };
                let input = seed.is_multiple_of(2);
                check::<bool>(rt, report, n, &honest, &session, "ba", |&d| {
                    (d != input).then(|| format!("validity: input {input}, decided {d}"))
                })
            }
            Stack::CsCell => {
                let honest: Vec<PartyId> = self.scenario().honest_parties().collect();
                let k = n - t;
                check::<Vec<PartyId>>(rt, report, n, &honest, &session, "cs", |set| {
                    (set.len() < k || set.iter().any(|m| m.0 >= n))
                        .then(|| format!("subset: {set:?}, need >= {k} ids < {n}"))
                })
            }
            Stack::Fba => {
                let inputs = fba_inputs(n);
                check::<String>(rt, report, n, &all, &session, "fba", |o| {
                    (!inputs.contains(o)).then(|| format!("validity: {o:?} not an input"))
                })
            }
        }
    }

    fn finish(&self, seed: u64, rt: &dyn Runtime, report: RunReport) -> Exec {
        let (failures, fingerprint) = self.check(seed, rt, &report);
        let causal_depth = report
            .trace
            .iter()
            .flat_map(|summary| summary.depths.iter().map(|(_, h)| h.max))
            .max()
            .unwrap_or(0);
        Exec {
            sent: report.metrics.sent,
            delivered: report.metrics.delivered,
            steps: report.metrics.steps,
            fingerprint,
            failures,
            metrics: Some(report.metrics),
            causal_depth,
        }
    }

    /// The same execution from the public pieces, with `build` / `run` /
    /// `check` spans and the flight recorder in `trace` mode. The
    /// deployment cannot be split from outside: its `run` span is all of
    /// `run_deployment`.
    pub fn exec_split(&self, env: &Env, seed: u64, spans: &mut Spans, trace: TraceMode) -> Exec {
        if self.stack == Stack::DeployBa {
            let (opts, _) = spans.timed("build", || self.deploy_options(env, seed));
            let (report, _) = spans.timed("run", || run_deployment(&opts));
            let (exec, _) = spans.timed("check", || deploy_exec(report, self.n));
            return exec;
        }
        let (built, _) = spans.timed("build", || {
            let mut rt = runtime_by_name(&self.backend(), NetConfig::new(self.n, self.t, seed))
                .ok_or("unknown backend")?;
            self.populate(env, seed, rt.as_mut())?;
            Ok::<_, String>(rt)
        });
        let mut rt = match built {
            Ok(rt) => rt,
            Err(e) => return failed_exec(format!("deploy: {e}")),
        };
        rt.set_trace(trace);
        let (report, _) = spans.timed("run", || rt.run(self.budget()));
        let (exec, _) = spans.timed("check", || self.finish(seed, rt.as_ref(), report));
        exec
    }

    fn budget(&self) -> u64 {
        if self.stack == Stack::Fba {
            FBA_BUDGET
        } else {
            CELL_BUDGET
        }
    }

    /// The execution once more on a bare `SimNetwork` (the deployment's
    /// and the wire workload's in-process twin), sampling the in-flight
    /// queue after every scheduler pick.
    pub fn exec_probing_queue(&self, env: &Env, seed: u64) -> QueueProbe {
        let mut probe = QueueProbe {
            exec: failed_exec("unknown scheduler".into()),
            depth_sum: 0,
            depth_max: 0,
            picks: 0,
        };
        let Some(scheduler) = scheduler_by_name(&self.sched()) else {
            return probe;
        };
        let mut net = SimNetwork::new(NetConfig::new(self.n, self.t, seed), scheduler);
        if let Err(e) = self.populate(env, seed, &mut net) {
            probe.exec = failed_exec(format!("deploy: {e}"));
            return probe;
        }
        let report = net.run_until(self.budget(), |net| {
            let depth = net.pending_len() as u64;
            probe.depth_sum += depth;
            probe.depth_max = probe.depth_max.max(depth);
            probe.picks += 1;
            false
        });
        probe.exec = self.finish(seed, &net, report);
        probe
    }
}

/// What [`Workload::exec_probing_queue`] saw: in-flight envelopes after
/// each scheduler pick (a pick delivers one batch run of envelopes).
pub struct QueueProbe {
    pub exec: Exec,
    pub depth_sum: u64,
    pub depth_max: u64,
    pub picks: u64,
}

fn failed_exec(why: String) -> Exec {
    Exec {
        sent: 0,
        delivered: 0,
        steps: 0,
        fingerprint: 0,
        failures: vec![why],
        metrics: None,
        causal_depth: 0,
    }
}

fn deploy_exec(report: Result<aft_bench::deployment::DeployReport, String>, n: usize) -> Exec {
    let report = match report {
        Ok(report) => report,
        Err(e) => return failed_exec(format!("deployment setup: {e}")),
    };
    let mut failures = report.violations;
    if report.outputs.len() != n {
        failures.push(format!("{} outputs for {n} parties", report.outputs.len()));
    }
    if report.sent == 0 || report.delivered > report.sent {
        failures.push(format!(
            "counters: sent {} delivered {}",
            report.sent, report.delivered
        ));
    }
    Exec {
        sent: report.sent,
        delivered: report.delivered,
        steps: report.delivered,
        failures,
        ..failed_exec(String::new())
    }
}
