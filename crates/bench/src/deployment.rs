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
//! | supervisor → daemon | `shutdown` | end the peer links, report metrics and exit |
//!
//! Tell every daemon `shutdown` before waiting for a `bye`: a daemon keeps
//! the links it accepted until the peer that dialed them has closed them
//! (at most 100 ms), so that no listener port ends up in `TIME_WAIT`.
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
//! The invariants *are* [`StackKind::check`](DeployStack::check), listed
//! once in the `aft_core::scenarios` table: the supervisor parses every
//! `output` line back into the payload it rendered and runs the same pure
//! check the in-process cell runner does, over every scenario-honest
//! party (killed parties count as honest — they recover). The stack's
//! session, honest instance and `FaultSpec → instance` match are the
//! simulator's own too; what is left here is processes, pipes and clocks.
//!
//! Before it spawns anything, [`run_deployment`] parses the plan and
//! builds every party's instance once, dry: an unregistered attack,
//! arguments a factory refuses, or a stack of more than one episode (the
//! SVSS chain hands carries between episodes) is a set-up error, and
//! `exp_deployment` exits 2. A daemon that exits before `shutdown`, other
//! than by a scheduled kill, ends the run at once with a
//! `daemon-exit: party <p> (<exit status>)` violation; only a run that
//! hangs waits for its timeout.

use aft_core::scenarios::standard_registry;
use aft_sim::scenario::spec_fields;
use aft_sim::{FaultSpec, PartyId, Payload, Scenario};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which reference stack a deployment runs: the simulator's own
/// description of it.
pub use aft_core::scenarios::StackKind as DeployStack;

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
    let mut fields =
        spec_fields(spec).ok_or_else(|| format!("malformed scenario spec {spec:?}"))?;
    for (_, plan) in fields.iter_mut().filter(|(key, _)| *key == "corrupt") {
        let mut kept = Vec::new();
        for entry in plan.split(';') {
            let fault = entry
                .split_once('@')
                .map(|(fault, party)| (FaultSpec::parse(fault.trim()), party));
            match fault {
                Some((Some(FaultSpec::Recover(vt)), party)) => restarts.push(RestartPlan {
                    party: party
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad recover party in {entry:?}"))?,
                    after: Duration::from_millis(vt),
                }),
                _ => kept.push(entry),
            }
        }
        *plan = kept.join(";");
    }
    fields.retain(|(_, value)| !value.is_empty());
    let fields: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    Ok((fields.join(","), restarts))
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
    /// The scenario string; must carry `rt=proc`.
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
    let registry = standard_registry();
    // Episodes that hand carries to one another (the SVSS chain) would
    // need them shipped between processes; one episode is what deploys.
    let Ok([(episode, _)]) = <[_; 1]>::try_from(opts.stack.episodes()) else {
        return Err(format!(
            "stack {:?} runs more than one episode; a deployment runs ba or common-subset",
            opts.stack.label()
        ));
    };
    let (clean_spec, restarts) = split_recover_spec(&opts.spec)?;
    let scenario = Scenario::try_parse(&clean_spec)
        .map_err(|e| format!("scenario {clean_spec:?} does not parse: {e}"))?;
    if !scenario.backend()?.is_process_per_party() {
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
    // Build every party's instance once, dry: a plan no daemon could
    // build is a set-up error here, not n dead daemons later.
    scenario.validate_attacks(&registry)?;
    for p in (0..scenario.n).map(PartyId) {
        scenario.party_instance(&registry, episode, p, opts.seed, None, || {
            opts.stack
                .honest_instance(episode, p, &scenario, opts.seed, None)
        })?;
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

    // The parties that owe an output and that the invariants bind: the
    // scenario-honest ones (stripped recover targets are honest — they
    // come back).
    let honest: Vec<PartyId> = scenario.honest_parties().collect();

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
            && honest.iter().all(|p| outputs[p.0].is_some());
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
            let missing: Vec<usize> = honest
                .iter()
                .map(|p| p.0)
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
                if shutdown_sent {
                    bye[p] = true;
                    continue;
                }
                // Killed daemons EOF by design, in a generation since
                // replaced. One that goes before `shutdown` in its
                // current generation has died, and the run with it: say
                // so at once, along with whoever else is already gone.
                let _ = sup.procs[p].child.kill();
                for (q, proc) in sup.procs.iter_mut().enumerate() {
                    let status = if q == p {
                        proc.child.wait().ok()
                    } else {
                        proc.child.try_wait().ok().flatten()
                    };
                    if let Some(status) = status {
                        violations.push(format!("daemon-exit: party {q} ({status})"));
                    }
                }
                break;
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
                // The whole rest of the line, so that `output 0 1` cannot
                // pass for `output 0`; empty for the empty subset.
                outputs[party] = Some(words.collect::<Vec<_>>().join(" "));
                if honest.contains(&PartyId(party)) {
                    t_first_output.get_or_insert_with(Instant::now);
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
    // Back from text to the payloads the daemons rendered, for the same
    // check the in-process cell runner makes. Text the stack cannot have
    // rendered goes in as itself, which the check calls `malformed-output:`.
    let parsed: Vec<Option<Payload>> = outputs
        .iter()
        .map(|text| {
            let text = text.as_deref()?;
            let output = opts.stack.parse_output(text);
            Some(output.unwrap_or_else(|| Payload::new(text.to_string())))
        })
        .collect();
    // Daemons report no shun count, and no deployable stack's check reads it.
    let (stack, seed) = (opts.stack, opts.seed);
    violations.extend(stack.check(episode, &scenario, seed, &honest, &parsed, 0));
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
}
