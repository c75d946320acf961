//! Process-per-party deployment: the supervisor side of `aft-partyd`.
//!
//! The in-process backends (`rt=sim` … `rt=proc`) all run every party in
//! one address space. This module is the real thing: [`run_deployment`]
//! takes an unmodified `Scenario` string marked `rt=proc`, spawns one
//! `aft-partyd` OS process per party, wires them into a full TCP mesh on
//! loopback, and supervises the run over a line-based control protocol
//! on each daemon's stdin/stdout:
//!
//! | direction | line | meaning |
//! |---|---|---|
//! | daemon → supervisor | `ready <addr>` | listening socket is bound |
//! | daemon → supervisor | `meshed` | all `n − 1` peer links are up |
//! | daemon → supervisor | `output <text>` | the root session produced an output |
//! | daemon → supervisor | `metrics sent=<u64> delivered=<u64> rejected=<u64>` | final counters |
//! | daemon → supervisor | `bye` | clean exit imminent |
//! | supervisor → daemon | `peers <addr0> … <addr(n−1)>` | the mesh address book |
//! | supervisor → daemon | `go` | spawn the protocol instance |
//! | supervisor → daemon | `shutdown` | report metrics and exit |
//!
//! `corrupt=recover:<vt>@p` does not reach the daemons: the simulator's
//! scheduled recovery needs a virtual clock, so [`split_recover_spec`]
//! strips those entries and maps each onto a supervisor [`RestartPlan`] —
//! a real SIGKILL (`Child::kill`) `vt` milliseconds after `go`, once,
//! followed by a respawn with `--recovered` — mid-run when `vt` is
//! shorter than the run. The restarted daemon redials every peer;
//! each live peer replaces its link and replays its full per-peer outbox,
//! the socket-world analogue of the simulator's early-buffer replay, so
//! the fresh instance sees every message the mesh ever sent it.
//!
//! Invariants are checked from the collected outputs exactly as
//! `aft_core::scenarios` checks them in-process: termination and
//! agreement for every party that is honest under the scenario (killed
//! parties count as honest — they recover), validity for BA, and
//! size/membership/consistency for common subset.

use aft_ba::{BinaryBa, OracleCoin};
use aft_core::scenarios::register_standard_codecs;
use aft_core::{CoinKind, CommonSubsetInstance};
use aft_sim::{
    AttackCtx, AttackRegistry, AttackRole, Equivocator, FaultSpec, GarbageInstance, Instance,
    MuteAfter, PartyId, Payload, Scenario, SessionId, SessionTag, SilentInstance,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which reference stack a deployment runs. The SVSS chain needs carries
/// handed between two episodes and is not deployable process-per-party,
/// so the deployment set is BA and the common subset built over the
/// SVSS-backed machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeployStack {
    /// Unanimous-input binary Byzantine agreement.
    Ba,
    /// Common subset over self-announcing predicates.
    CommonSubset,
}

impl DeployStack {
    /// Short label, also the `--stack` argument value.
    pub fn label(&self) -> &'static str {
        match self {
            DeployStack::Ba => "ba",
            DeployStack::CommonSubset => "common-subset",
        }
    }

    /// Inverse of [`DeployStack::label`].
    pub fn from_label(label: &str) -> Option<DeployStack> {
        [DeployStack::Ba, DeployStack::CommonSubset]
            .into_iter()
            .find(|s| s.label() == label)
    }

    /// The root session id — identical to the in-process cell runners, so
    /// a deployed run is the same protocol tree as a simulated one.
    pub fn session(&self) -> SessionId {
        let tag = match self {
            DeployStack::Ba => "ba",
            DeployStack::CommonSubset => "cs",
        };
        SessionId::root().child(SessionTag::new(tag, 0))
    }

    /// Builds the stack's honest root instance for one party — the same
    /// constructions `aft_core::scenarios` deploys in-process.
    pub fn honest_instance(&self, scenario: &Scenario, seed: u64) -> Box<dyn Instance> {
        match self {
            DeployStack::Ba => Box::new(BinaryBa::new(
                seed.is_multiple_of(2),
                Box::new(OracleCoin::new(seed)),
            )),
            DeployStack::CommonSubset => Box::new(CommonSubsetInstance::new(
                scenario.n - scenario.t,
                CoinKind::Oracle(seed),
                true,
            )),
        }
    }

    /// Renders a root-session output as the single-token text the control
    /// protocol carries (`true`/`false` for BA, `0+1+2` for a subset).
    pub fn render_output(&self, payload: &Payload) -> Option<String> {
        match self {
            DeployStack::Ba => payload.downcast_ref::<bool>().map(|b| b.to_string()),
            DeployStack::CommonSubset => payload.downcast_ref::<Vec<PartyId>>().map(|s| {
                s.iter()
                    .map(|p| p.0.to_string())
                    .collect::<Vec<_>>()
                    .join("+")
            }),
        }
    }

    /// Checks the stack's invariants over the collected outputs
    /// (`outputs[p]` is party `p`'s rendered output, `None` if it never
    /// reported one). Returns the violations, empty iff the run is safe.
    pub fn check_outputs(
        &self,
        scenario: &Scenario,
        seed: u64,
        outputs: &[Option<String>],
    ) -> Vec<String> {
        let mut violations = Vec::new();
        let honest: Vec<usize> = scenario.honest_parties().map(|p| p.0).collect();
        for &p in &honest {
            if outputs[p].is_none() {
                violations.push(format!("termination: honest party {p} produced no output"));
            }
        }
        let decided: Vec<&String> = honest.iter().filter_map(|&p| outputs[p].as_ref()).collect();
        if decided.windows(2).any(|w| w[0] != w[1]) {
            violations.push(format!("agreement: honest outputs diverge: {decided:?}"));
        }
        match self {
            DeployStack::Ba => {
                let input = seed.is_multiple_of(2).to_string();
                if decided.iter().any(|d| **d != input) {
                    violations.push(format!(
                        "validity: unanimous input {input} but outputs {decided:?}"
                    ));
                }
            }
            DeployStack::CommonSubset => {
                let k = scenario.n - scenario.t;
                for &p in &honest {
                    let Some(d) = &outputs[p] else { continue };
                    let members: Vec<Option<usize>> =
                        d.split('+').map(|m| m.parse().ok()).collect();
                    if members.len() < k {
                        violations.push(format!(
                            "subset-size: party {p} output {} members, need >= {k}",
                            members.len()
                        ));
                    }
                    if members.iter().any(|m| m.is_none_or(|m| m >= scenario.n)) {
                        violations.push(format!("subset-members: party {p} output {d:?}"));
                    }
                }
            }
        }
        violations
    }
}

/// Builds party `party`'s root instance under `scenario`'s corruption
/// plan — the per-party slice of `Scenario::deploy_episode`, for daemons
/// that host exactly one party. Returns the instance plus whether the
/// node must be crashed right after spawning (the `crash` fault).
///
/// `recover:` faults never reach this function (the supervisor strips
/// them into [`RestartPlan`]s); hitting one here is an error.
pub fn instance_for(
    scenario: &Scenario,
    registry: &AttackRegistry,
    stack: DeployStack,
    party: PartyId,
    seed: u64,
) -> Result<(Box<dyn Instance>, bool), String> {
    let honest = || stack.honest_instance(scenario, seed);
    let instance: Box<dyn Instance> = match scenario.fault_of(party) {
        None => honest(),
        Some(FaultSpec::Silent) => Box::new(SilentInstance),
        Some(FaultSpec::Crash) => return Ok((honest(), true)),
        Some(FaultSpec::Recover(_)) => {
            return Err(format!(
                "recover:@{} is supervisor-driven; split_recover_spec must strip it",
                party.0
            ))
        }
        Some(FaultSpec::MuteAfter(k)) => Box::new(MuteAfter::new(honest(), *k)),
        Some(FaultSpec::Garbage(b)) => Box::new(GarbageInstance::new(*b)),
        Some(FaultSpec::Equivocate(b)) => Box::new(Equivocator::new(*b)),
        Some(FaultSpec::Attack { name, args }) => {
            let ctx = AttackCtx {
                party,
                n: scenario.n,
                t: scenario.t,
                seed,
                args,
                episode: stack.label(),
                carry: None,
            };
            match registry.build(name, &ctx) {
                Some(AttackRole::Instance(inst)) => inst,
                Some(AttackRole::Honest) => honest(),
                None => return Err(format!("attack {name:?} (args {args:?}) failed to build")),
            }
        }
    };
    Ok((instance, false))
}

/// One supervised kill/restart: SIGKILL party `party` this long after
/// `go`, then respawn it with `--recovered`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPlan {
    /// The party to kill and respawn.
    pub party: usize,
    /// Wall-clock delay after the run starts. One virtual-time unit of
    /// the scenario's `recover:<vt>` maps to one millisecond.
    pub after: Duration,
}

/// Splits `corrupt=recover:<vt>@p` entries out of a scenario string into
/// supervisor [`RestartPlan`]s, returning the remaining spec (which then
/// parses cleanly under `rt=proc`, where scheduled recovery is refused).
///
/// The surgery is textual and happens *before* `Scenario::parse` on
/// purpose: `recover:` on `rt=proc` is a validation error precisely
/// because only this supervisor can honour it.
pub fn split_recover_spec(spec: &str) -> Result<(String, Vec<RestartPlan>), String> {
    let mut restarts = Vec::new();
    let mut fields: Vec<String> = Vec::new();
    // Same field grammar as `Scenario::parse`: unknown tokens continue
    // the previous value (scheduler specs contain commas).
    const KEYS: [&str; 5] = ["n", "t", "corrupt", "sched", "rt"];
    for tok in spec.strip_prefix("scenario:").unwrap_or(spec).split(',') {
        match tok.split_once('=') {
            Some((k, _)) if KEYS.contains(&k.trim()) => fields.push(tok.trim().to_string()),
            _ => {
                let last = fields
                    .last_mut()
                    .ok_or_else(|| format!("malformed scenario spec {spec:?}"))?;
                last.push(',');
                last.push_str(tok.trim());
            }
        }
    }
    for field in &mut fields {
        let Some(plan) = field.strip_prefix("corrupt=") else {
            continue;
        };
        let mut kept = Vec::new();
        for entry in plan.split(';') {
            let recover = entry
                .split_once('@')
                .and_then(|(fault, party)| match FaultSpec::parse(fault.trim())? {
                    FaultSpec::Recover(vt) => Some((party.trim().parse::<usize>(), vt)),
                    _ => None,
                });
            match recover {
                Some((Ok(party), vt)) => restarts.push(RestartPlan {
                    party,
                    after: Duration::from_millis(vt),
                }),
                Some((Err(_), _)) => return Err(format!("bad recover party in {entry:?}")),
                None => kept.push(entry),
            }
        }
        *field = if kept.is_empty() {
            String::new()
        } else {
            format!("corrupt={}", kept.join(";"))
        };
    }
    let spec = fields
        .iter()
        .filter(|f| !f.is_empty())
        .cloned()
        .collect::<Vec<_>>()
        .join(",");
    Ok((spec, restarts))
}

/// Locates the `aft-partyd` binary: an explicit path, the `AFT_PARTYD`
/// environment variable, or a sibling of the current executable (the
/// layout `cargo build` produces).
pub fn partyd_path(explicit: Option<&Path>) -> Result<PathBuf, String> {
    if let Some(p) = explicit {
        return Ok(p.to_path_buf());
    }
    if let Some(p) = std::env::var_os("AFT_PARTYD") {
        return Ok(PathBuf::from(p));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let sibling = exe
        .parent()
        .ok_or("current executable has no parent directory")?
        .join(format!("aft-partyd{}", std::env::consts::EXE_SUFFIX));
    if sibling.exists() {
        Ok(sibling)
    } else {
        Err(format!(
            "aft-partyd not found at {} — build it (cargo build -p aft-bench) or set AFT_PARTYD",
            sibling.display()
        ))
    }
}

/// Everything [`run_deployment`] needs to supervise one run.
#[derive(Debug, Clone)]
pub struct DeployOptions {
    /// The scenario string; must carry `rt=proc` (or `rt=proc:<n>`).
    pub spec: String,
    /// Which reference stack to run.
    pub stack: DeployStack,
    /// The run seed, forwarded to every daemon.
    pub seed: u64,
    /// Overall wall-clock budget; exceeding it is reported as a
    /// violation (with the missing parties named), not a panic.
    pub timeout: Duration,
    /// Explicit `aft-partyd` path (tests pass `CARGO_BIN_EXE_aft-partyd`).
    pub partyd: Option<PathBuf>,
    /// Where to write per-party stderr logs (`party<p>.log`, appended
    /// across restarts). `None` inherits the supervisor's stderr.
    pub log_dir: Option<PathBuf>,
}

impl DeployOptions {
    /// Options with the defaults the smoke suite uses.
    pub fn new(spec: &str, stack: DeployStack, seed: u64) -> DeployOptions {
        DeployOptions {
            spec: spec.to_string(),
            stack,
            seed,
            timeout: Duration::from_secs(60),
            partyd: None,
            log_dir: None,
        }
    }
}

/// What one supervised deployment produced.
#[derive(Debug, Clone)]
pub struct DeployReport {
    /// Party `p`'s rendered output, `None` if it never reported one.
    pub outputs: Vec<Option<String>>,
    /// Invariant violations (plus timeouts); empty iff the run is safe.
    pub violations: Vec<String>,
    /// How many kill/restart legs the supervisor executed.
    pub restarts: usize,
    /// Sum of the daemons' final `sent` counters.
    pub sent: u64,
    /// Sum of the daemons' final `delivered` counters.
    pub delivered: u64,
    /// Sum of the daemons' final `rejected` counters: envelopes dropped
    /// at a peer link because their header was malformed or their `from`
    /// was not the link's owner. Zero unless a daemon misbehaves.
    pub rejected: u64,
    /// Where the run's wall time went.
    pub phases: DeployPhases,
}

/// The consecutive phases of one supervised run. A phase the run never
/// completed (it timed out first) reads zero, as do the ones after it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeployPhases {
    /// Start of [`run_deployment`] until every daemon process is spawned.
    pub spawn: Duration,
    /// … until every daemon has printed `ready` and got the address book.
    pub ready: Duration,
    /// … until every daemon has printed `meshed` and been told `go`.
    pub mesh: Duration,
    /// `go` until the first expected output.
    pub first_output: Duration,
    /// First output until every expected output is in (through any
    /// kill/restart legs) and `shutdown` is sent.
    pub all_outputs: Duration,
    /// … until every daemon has said `bye` or closed its stdout.
    pub bye: Duration,
    /// … until every daemon process is reaped and its stdout reader
    /// thread joined.
    pub reap: Duration,
}

impl DeployPhases {
    /// `go` until every expected output — the protocol's own latency on
    /// the mesh, free of process set-up and tear-down.
    pub fn go_to_all_outputs(&self) -> Duration {
        self.first_output + self.all_outputs
    }
}

/// Events from a daemon's stdout reader thread. `gen` is the spawn
/// generation of the process that produced the event, so lines and EOFs
/// from a killed daemon cannot be misattributed to its replacement.
enum FromChild {
    Line(usize, u64, String),
    Eof(usize, u64),
}

struct PartyProc {
    child: Child,
    stdin: ChildStdin,
    gen: u64,
}

struct Supervisor {
    partyd: PathBuf,
    spec: String,
    stack: DeployStack,
    seed: u64,
    log_dir: Option<PathBuf>,
    tx: mpsc::Sender<FromChild>,
    procs: Vec<PartyProc>,
    /// The stdout reader thread of every daemon ever spawned.
    readers: Vec<JoinHandle<()>>,
}

impl Supervisor {
    fn spawn_party(&mut self, party: usize, recovered: bool) -> Result<(), String> {
        let mut cmd = Command::new(&self.partyd);
        cmd.arg("--party")
            .arg(party.to_string())
            .arg("--stack")
            .arg(self.stack.label())
            .arg("--seed")
            .arg(self.seed.to_string())
            .arg("--scenario")
            .arg(&self.spec)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped());
        if recovered {
            cmd.arg("--recovered");
        }
        match &self.log_dir {
            Some(dir) => {
                let log = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(dir.join(format!("party{party}.log")))
                    .map_err(|e| format!("open party{party}.log: {e}"))?;
                cmd.stderr(log);
            }
            None => {
                cmd.stderr(Stdio::inherit());
            }
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.partyd.display()))?;
        let stdin = child.stdin.take().expect("stdin piped");
        let stdout = child.stdout.take().expect("stdout piped");
        let gen = self.procs.get(party).map_or(0, |p| p.gen + 1);
        let tx = self.tx.clone();
        self.readers.push(std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                match line {
                    Ok(l) => {
                        if tx.send(FromChild::Line(party, gen, l)).is_err() {
                            return;
                        }
                    }
                    Err(_) => break,
                }
            }
            let _ = tx.send(FromChild::Eof(party, gen));
        }));
        let proc = PartyProc { child, stdin, gen };
        if party < self.procs.len() {
            self.procs[party] = proc;
        } else {
            self.procs.push(proc);
        }
        Ok(())
    }

    fn send(&mut self, party: usize, line: &str) {
        // A write to a freshly-killed daemon may fail; the kill path
        // respawns it and re-sends, so the error is not fatal here.
        let _ = writeln!(self.procs[party].stdin, "{line}");
        let _ = self.procs[party].stdin.flush();
    }

    /// Kills and reaps every daemon, then joins their stdout readers —
    /// each has hit EOF by then — so that back-to-back runs do not pile
    /// up threads.
    fn kill_all(&mut self) {
        for proc in &mut self.procs {
            let _ = proc.child.kill();
            let _ = proc.child.wait();
        }
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }
}

/// Runs one supervised process-per-party deployment; see the module docs
/// for the lifecycle. Returns `Err` only for setup failures (bad spec,
/// missing binary); protocol failures and timeouts come back as
/// violations in the [`DeployReport`].
pub fn run_deployment(opts: &DeployOptions) -> Result<DeployReport, String> {
    register_standard_codecs();
    let (clean_spec, restarts) = split_recover_spec(&opts.spec)?;
    let scenario = Scenario::parse(&clean_spec)
        .ok_or_else(|| format!("scenario {clean_spec:?} does not parse"))?;
    if scenario.rt != "proc" && !scenario.rt.starts_with("proc:") {
        return Err(format!(
            "deployment needs rt=proc, scenario says rt={}",
            scenario.rt
        ));
    }
    for plan in &restarts {
        if plan.party >= scenario.n {
            return Err(format!("recover party {} out of range", plan.party));
        }
    }
    if let Some(dir) = &opts.log_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let n = scenario.n;
    let t_start = Instant::now();
    let deadline = t_start + opts.timeout;
    let (tx, rx) = mpsc::channel();
    let mut sup = Supervisor {
        partyd: partyd_path(opts.partyd.as_deref())?,
        spec: clean_spec,
        stack: opts.stack,
        seed: opts.seed,
        log_dir: opts.log_dir.clone(),
        tx,
        procs: Vec::with_capacity(n),
        readers: Vec::with_capacity(n),
    };
    for p in 0..n {
        sup.spawn_party(p, false)?;
    }
    // Phase boundaries, in order; `None` until the run gets there.
    let t_spawned = Instant::now();
    let mut t_ready = None;
    let mut t_go = None;
    let mut t_first_output = None;
    let mut t_all_outputs = None;

    let mut addrs: Vec<Option<String>> = vec![None; n];
    let mut meshed = vec![false; n];
    let mut started = vec![false; n];
    let mut outputs: Vec<Option<String>> = vec![None; n];
    let mut metrics: HashMap<usize, [u64; 3]> = HashMap::new();
    let mut violations = Vec::new();
    // Kills still to execute, soonest first: `(due, party)`. Armed once,
    // when the initial daemons are told `go` — a respawned party's own
    // `go` must not arm them again.
    let mut kill_deadlines: Vec<(Instant, usize)> = Vec::new();
    let mut kills_done = 0usize;
    let mut restarts_done = 0usize;
    let mut shutdown_sent = false;
    let mut bye = vec![false; n];

    // Expected outputs: scenario-honest parties (stripped recover targets
    // are honest — they come back).
    let expected: Vec<usize> = scenario.honest_parties().map(|p| p.0).collect();

    loop {
        // Fire due kills.
        while let Some(&(due, party)) = kill_deadlines.first() {
            if Instant::now() < due {
                break;
            }
            kill_deadlines.remove(0);
            let _ = sup.procs[party].child.kill();
            let _ = sup.procs[party].child.wait();
            outputs[party] = None;
            meshed[party] = false;
            started[party] = false;
            kills_done += 1;
            sup.spawn_party(party, true)?;
        }
        let done = kills_done == restarts.len()
            && started.iter().all(|&s| s)
            && expected.iter().all(|&p| outputs[p].is_some());
        if done && !shutdown_sent {
            for p in 0..n {
                sup.send(p, "shutdown");
            }
            shutdown_sent = true;
            t_all_outputs = Some(Instant::now());
        }
        if shutdown_sent && bye.iter().all(|&b| b) {
            break;
        }
        if Instant::now() >= deadline {
            let missing: Vec<usize> = expected
                .iter()
                .copied()
                .filter(|&p| outputs[p].is_none())
                .collect();
            violations.push(format!(
                "timeout: {}s elapsed with outputs missing from parties {missing:?} \
                 ({}/{} kills executed)",
                opts.timeout.as_secs(),
                kills_done,
                restarts.len()
            ));
            break;
        }
        let wait = kill_deadlines
            .first()
            .map(|&(due, _)| due.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(100))
            .min(Duration::from_millis(100));
        let event = match rx.recv_timeout(wait.max(Duration::from_millis(1))) {
            Ok(ev) => ev,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        };
        let (party, line) = match event {
            FromChild::Line(p, gen, l) if gen == sup.procs[p].gen => (p, l),
            FromChild::Eof(p, gen) if gen == sup.procs[p].gen => {
                // Killed daemons EOF by design; anything else dying before
                // shutdown is a violation surfaced by the timeout/output
                // checks, so just record the mesh as down.
                if !shutdown_sent {
                    meshed[p] = false;
                }
                bye[p] = true;
                continue;
            }
            // Stale events from a replaced process generation.
            FromChild::Line(..) | FromChild::Eof(..) => continue,
        };
        let mut words = line.split_whitespace();
        match words.next() {
            Some("ready") => {
                if let Some(addr) = words.next() {
                    addrs[party] = Some(addr.to_string());
                }
                let respawned = started.iter().any(|&s| s);
                if addrs.iter().all(|a| a.is_some()) || respawned {
                    let book: Vec<String> = addrs
                        .iter()
                        .map(|a| a.clone().unwrap_or_else(|| "-".into()))
                        .collect();
                    let peers_line = format!("peers {}", book.join(" "));
                    if respawned {
                        sup.send(party, &peers_line);
                    } else {
                        for p in 0..n {
                            sup.send(p, &peers_line);
                        }
                        t_ready = Some(Instant::now());
                    }
                }
            }
            Some("meshed") => {
                meshed[party] = true;
                bye[party] = false;
                let respawned = started.iter().any(|&s| s);
                if respawned {
                    sup.send(party, "go");
                    started[party] = true;
                    restarts_done += 1;
                } else if meshed.iter().all(|&m| m) {
                    for (p, s) in started.iter_mut().enumerate() {
                        sup.send(p, "go");
                        *s = true;
                    }
                    let go = Instant::now();
                    t_go = Some(go);
                    kill_deadlines = restarts.iter().map(|k| (go + k.after, k.party)).collect();
                    kill_deadlines.sort();
                }
            }
            Some("output") => {
                if let Some(text) = words.next() {
                    outputs[party] = Some(text.to_string());
                    if expected.contains(&party) {
                        t_first_output.get_or_insert_with(Instant::now);
                    }
                }
            }
            Some("metrics") => {
                // Parsed by prefix, so daemons may add counters.
                let counter = |name: &str| {
                    line.split_whitespace()
                        .find_map(|w| w.strip_prefix(name)?.strip_prefix('=')?.parse().ok())
                        .unwrap_or(0)
                };
                metrics.insert(
                    party,
                    [counter("sent"), counter("delivered"), counter("rejected")],
                );
            }
            Some("bye") => {
                bye[party] = true;
            }
            _ => {}
        }
    }
    let t_bye = Instant::now();
    sup.kill_all();
    let t_reaped = Instant::now();
    violations.extend(opts.stack.check_outputs(&scenario, opts.seed, &outputs));
    let total = |i: usize| metrics.values().map(|m| m[i]).sum::<u64>();
    // Consecutive boundaries; each one reached implies the one before.
    let marks = [
        Some(t_start),
        Some(t_spawned),
        t_ready,
        t_go,
        t_first_output,
        t_all_outputs,
        t_all_outputs.and(Some(t_bye)),
        t_all_outputs.and(Some(t_reaped)),
    ];
    let phase = |i: usize| {
        marks[i]
            .zip(marks[i + 1])
            .map_or(Duration::ZERO, |(a, b)| b.saturating_duration_since(a))
    };
    let phases = DeployPhases {
        spawn: phase(0),
        ready: phase(1),
        mesh: phase(2),
        first_output: phase(3),
        all_outputs: phase(4),
        bye: phase(5),
        reap: phase(6),
    };
    Ok(DeployReport {
        outputs,
        violations,
        restarts: restarts_done,
        sent: total(0),
        delivered: total(1),
        rejected: total(2),
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_core::scenarios::standard_registry;

    #[test]
    fn split_recover_extracts_supervisor_legs() {
        let (spec, plans) =
            split_recover_spec("n=4,t=1,corrupt=recover:250@3,sched=net:lat=1..4,rt=proc").unwrap();
        assert_eq!(spec, "n=4,t=1,sched=net:lat=1..4,rt=proc");
        assert_eq!(
            plans,
            vec![RestartPlan {
                party: 3,
                after: Duration::from_millis(250)
            }]
        );
        // Mixed plans keep the non-recover entries.
        let (spec, plans) =
            split_recover_spec("n=7,t=2,corrupt=silent@6;recover:80@2,rt=proc").unwrap();
        assert_eq!(spec, "n=7,t=2,corrupt=silent@6,rt=proc");
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].party, 2);
        // No recover entries: spec passes through (modulo whitespace).
        let (spec, plans) = split_recover_spec("n=4,t=1,rt=proc").unwrap();
        assert_eq!(spec, "n=4,t=1,rt=proc");
        assert!(plans.is_empty());
        assert!(Scenario::parse(&spec).is_some());
    }

    #[test]
    fn stack_labels_round_trip() {
        for stack in [DeployStack::Ba, DeployStack::CommonSubset] {
            assert_eq!(DeployStack::from_label(stack.label()), Some(stack));
        }
        assert_eq!(DeployStack::from_label("svss"), None);
    }

    #[test]
    fn instance_for_covers_the_fault_plan() {
        let registry = standard_registry();
        for (plan, crashes) in [
            ("silent@3", false),
            ("mute-after:6@3", false),
            ("crash@3", true),
        ] {
            let scenario = Scenario::parse(&format!("n=4,t=1,corrupt={plan},rt=proc")).unwrap();
            for p in 0..4 {
                let (_, crash) =
                    instance_for(&scenario, &registry, DeployStack::Ba, PartyId(p), 7).unwrap();
                assert_eq!(crash, p == 3 && crashes, "party {p} plan {plan}");
            }
        }
        // A named protocol attack resolves through the registry.
        let scenario = Scenario::parse("n=4,t=1,corrupt=random-voter@3,rt=proc").unwrap();
        assert!(instance_for(&scenario, &registry, DeployStack::Ba, PartyId(3), 7).is_ok());
        // A stray recover fault is a hard error, not a silent honest run.
        let mut scenario = Scenario::parse("n=4,t=1,rt=proc").unwrap();
        scenario.corruptions.push(aft_sim::Corruption {
            party: PartyId(2),
            fault: FaultSpec::Recover(50),
        });
        assert!(instance_for(&scenario, &registry, DeployStack::Ba, PartyId(2), 7).is_err());
    }

    #[test]
    fn ba_outputs_check_validity_and_agreement() {
        let scenario = Scenario::parse("n=4,t=1,corrupt=silent@3,rt=proc").unwrap();
        let good: Vec<Option<String>> = vec![
            Some("true".into()),
            Some("true".into()),
            Some("true".into()),
            None, // silent party owes nothing
        ];
        assert!(DeployStack::Ba
            .check_outputs(&scenario, 2, &good)
            .is_empty());
        let split = vec![
            Some("true".into()),
            Some("false".into()),
            Some("true".into()),
            None,
        ];
        let violations = DeployStack::Ba.check_outputs(&scenario, 2, &split);
        assert!(violations.iter().any(|v| v.contains("agreement")));
        let missing = vec![Some("true".into()), None, Some("true".into()), None];
        let violations = DeployStack::Ba.check_outputs(&scenario, 2, &missing);
        assert!(violations.iter().any(|v| v.contains("termination")));
        // Odd seed means unanimous input `false`: all-true is a validity
        // violation even though it agrees.
        let violations = DeployStack::Ba.check_outputs(&scenario, 3, &good);
        assert!(violations.iter().any(|v| v.contains("validity")));
    }

    #[test]
    fn cs_outputs_check_size_members_consistency() {
        let scenario = Scenario::parse("n=4,t=1,rt=proc").unwrap();
        let good: Vec<Option<String>> = (0..4).map(|_| Some("0+1+2".into())).collect();
        assert!(DeployStack::CommonSubset
            .check_outputs(&scenario, 9, &good)
            .is_empty());
        let small: Vec<Option<String>> = (0..4).map(|_| Some("0+1".into())).collect();
        assert!(DeployStack::CommonSubset
            .check_outputs(&scenario, 9, &small)
            .iter()
            .any(|v| v.contains("subset-size")));
        let oob: Vec<Option<String>> = (0..4).map(|_| Some("0+1+7".into())).collect();
        assert!(DeployStack::CommonSubset
            .check_outputs(&scenario, 9, &oob)
            .iter()
            .any(|v| v.contains("subset-members")));
    }
}
