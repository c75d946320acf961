//! Declarative adversarial scenarios: corruption plans, schedulers and
//! backends as *data*.
//!
//! The paper's optimal-resilience claims are claims about every adversary
//! that controls scheduling **and** up to `t` parties' behaviour. This
//! module turns one such adversary into a value — a [`Scenario`] — that
//! parses from a string exactly like [`scheduler_by_name`] and
//! [`runtime_by_name`] specs do:
//!
//! ```text
//! scenario:n=16,t=3,corrupt=silent@1;garbage@5,sched=starve:1,rt=sharded:4
//! ```
//!
//! Grammar (the `scenario:` prefix is optional; [`Scenario`]'s `Display`
//! emits the canonical form without it):
//!
//! ```text
//! scenario := ["scenario:"] field ("," field)*
//! field    := "n=" usize | "t=" usize | "corrupt=" plan
//!           | "sched=" scheduler-spec | "rt=" runtime-spec
//! plan     := entry (";" entry)*
//! entry    := fault "@" party | "adaptive:" attack-name [":" args] "@*"
//! fault    := "silent" | "crash" | "recover:" vtime | "mute-after:" events
//!           | "garbage" [":" budget] | "equivocate" [":" budget]
//!           | attack-name [":" args]          (resolved via AttackRegistry)
//! ```
//!
//! An `adaptive:<name>[:args]@*` entry binds an *adaptive adversary* (see
//! [`crate::adaptive`]) to the whole system rather than one party: the
//! named policy observes delivered traffic through the runtime's
//! observation hook and decides who to corrupt mid-run, capped at `t`
//! distinct victims (statically corrupted parties count against the cap).
//! At most one adaptive entry per scenario; adaptive plans require a
//! deterministic backend (see [`crate::backend`]; `rt=threaded` and
//! `rt=proc` are rejected).
//!
//! `t` defaults to `⌊(n−1)/3⌋`, `sched` to `random`, `rt` to
//! [`DEFAULT_BACKEND`]. Only
//! the five field keys above start a new field: any other comma-separated
//! token — with or without an `=` — is glued back onto the preceding
//! value, so scheduler specs need no escaping (`sched=starve:1,3` and
//! `sched=net:lat=1..20,partition=p50,heal=200` both parse). Parsing validates
//! everything it can without a registry: `n ≥ 3t + 1`, at most `t` distinct
//! corrupted parties, all ids in range, scheduler and runtime specs
//! resolvable; [`Scenario::validate_attacks`] additionally checks named
//! attacks against an [`AttackRegistry`]. [`Scenario::try_parse`] says why
//! a string was refused, in one line that names the fix.
//!
//! Generic faults map onto the crate's generic behaviours
//! ([`SilentInstance`], [`MuteAfter`], [`GarbageInstance`],
//! [`Equivocator`]); named
//! attacks are protocol-specific and resolved through an
//! [`AttackRegistry`] that protocol crates populate (`aft-ba`, `aft-svss`
//! export `register_attacks`; `aft-core` assembles the standard registry).
//! Attack factories are *episode-aware*: multi-phase stacks (SVSS
//! share→rec) pass the previous episode's per-party output as a carry, so
//! reconstruction attacks can be built from the bundle the corrupted party
//! legitimately obtained in the share phase.
//!
//! [`ScenarioMatrix`] sweeps a protocol stack across the cross-product of
//! backends × schedulers × fault plans × seeds, in parallel via
//! [`run_trials`](crate::run_trials); each cell re-parses its scenario
//! string, so every result is reproducible from `(seed, scenario string)`
//! alone.
//!
//! [`scheduler_by_name`]: crate::scheduler_by_name
//! [`runtime_by_name`]: crate::runtime_by_name

use crate::backend::{Backend, DEFAULT_BACKEND};
use crate::behaviors::{Equivocator, GarbageInstance, MuteAfter, SilentInstance};
use crate::ids::{PartyId, SessionId};
use crate::instance::Instance;
use crate::payload::Payload;
use crate::runtime::{Metrics, NetConfig, Runtime};
use std::collections::BTreeMap;
use std::fmt;

/// Default message budget of the `garbage` fault.
pub const DEFAULT_GARBAGE_BUDGET: u64 = 32;
/// Default event budget of the `equivocate` fault.
pub const DEFAULT_EQUIVOCATE_BUDGET: u64 = 16;

/// How one corrupted party misbehaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpec {
    /// Never sends anything ([`SilentInstance`]).
    Silent,
    /// Whole-party crash from the start ([`Runtime::crash`] before the
    /// first run, so the party starts nothing, on every backend).
    Crash,
    /// Crash from the start, then recover at the given virtual time: the
    /// node comes back up with its session state retired and a fresh
    /// honest instance respawns after a short grace period
    /// ([`Runtime::schedule_recover`]). Requires a `sched=net:` scheduler
    /// — virtual time is what `@<vtime>` is measured in.
    Recover(u64),
    /// Honest for the given number of events, then silent ([`MuteAfter`]
    /// wrapping the stack's honest instance).
    MuteAfter(u64),
    /// Sprays junk payloads at random parties up to the given budget
    /// ([`GarbageInstance`]).
    Garbage(u64),
    /// Sends *conflicting* junk to different parties for up to the given
    /// number of events ([`Equivocator`]).
    Equivocate(u64),
    /// A protocol-specific attack resolved by name through an
    /// [`AttackRegistry`].
    Attack {
        /// Registered attack name (lowercase kebab-case).
        name: String,
        /// Attack-defined argument string (text after the first `:`).
        args: String,
    },
}

impl FaultSpec {
    /// Parses one fault spec (the part of a plan entry before `@`).
    pub fn parse(spec: &str) -> Option<FaultSpec> {
        let (head, args) = match spec.split_once(':') {
            Some((h, a)) => (h, a),
            None => (spec, ""),
        };
        match head {
            "silent" => args.is_empty().then_some(FaultSpec::Silent),
            "crash" => args.is_empty().then_some(FaultSpec::Crash),
            "recover" => Some(FaultSpec::Recover(args.parse().ok()?)),
            "mute-after" => Some(FaultSpec::MuteAfter(args.parse().ok()?)),
            "garbage" => Some(FaultSpec::Garbage(if args.is_empty() {
                DEFAULT_GARBAGE_BUDGET
            } else {
                args.parse().ok()?
            })),
            "equivocate" => Some(FaultSpec::Equivocate(if args.is_empty() {
                DEFAULT_EQUIVOCATE_BUDGET
            } else {
                args.parse().ok()?
            })),
            _ => valid_attack_name(head).then(|| FaultSpec::Attack {
                name: head.to_string(),
                args: args.to_string(),
            }),
        }
    }
}

/// Attack names (static and adaptive) are lowercase kebab-case: a
/// lowercase letter, then lowercase letters, digits or `-`.
fn valid_attack_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_lowercase())
        && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpec::Silent => write!(f, "silent"),
            FaultSpec::Crash => write!(f, "crash"),
            FaultSpec::Recover(vt) => write!(f, "recover:{vt}"),
            FaultSpec::MuteAfter(k) => write!(f, "mute-after:{k}"),
            FaultSpec::Garbage(b) => write!(f, "garbage:{b}"),
            FaultSpec::Equivocate(b) => write!(f, "equivocate:{b}"),
            FaultSpec::Attack { name, args } if args.is_empty() => write!(f, "{name}"),
            FaultSpec::Attack { name, args } => write!(f, "{name}:{args}"),
        }
    }
}

/// An adaptive-adversary binding: `adaptive:<name>[:args]@*` in the
/// grammar. Resolved through [`AttackRegistry::build_adaptive`] at deploy
/// time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveSpec {
    /// Registered adaptive-attack name (lowercase kebab-case).
    pub name: String,
    /// Policy-defined argument string (text after the second `:`).
    pub args: String,
}

impl fmt::Display for AdaptiveSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.args.is_empty() {
            write!(f, "adaptive:{}@*", self.name)
        } else {
            write!(f, "adaptive:{}:{}@*", self.name, self.args)
        }
    }
}

/// One corrupted party and its assigned fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corruption {
    /// The corrupted party.
    pub party: PartyId,
    /// Its behaviour.
    pub fault: FaultSpec,
}

impl fmt::Display for Corruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.fault, self.party.0)
    }
}

/// Splits a scenario string into its `key=value` fields, in order; `None`
/// if it starts with something other than a field. Only the known field
/// keys start a new field; any other token — even one containing an `=` —
/// is a continuation of the previous value, so scheduler specs like
/// `starve:1,3` and `net:lat=1..20,partition=p50,heal=200` survive the
/// comma split unescaped.
pub fn spec_fields(spec: &str) -> Option<Vec<(&str, String)>> {
    const KEYS: [&str; 5] = ["n", "t", "corrupt", "sched", "rt"];
    let mut fields: Vec<(&str, String)> = Vec::new();
    for tok in spec.strip_prefix("scenario:").unwrap_or(spec).split(',') {
        match tok.split_once('=') {
            Some((k, v)) if KEYS.contains(&k.trim()) => {
                fields.push((k.trim(), v.trim().to_string()))
            }
            _ => {
                let last = fields.last_mut()?;
                last.1.push(',');
                last.1.push_str(tok.trim());
            }
        }
    }
    Some(fields)
}

/// A declarative adversarial scenario: system size, corruption plan,
/// scheduler and backend. See the [module docs](self) for the grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Number of parties.
    pub n: usize,
    /// Fault threshold (`n ≥ 3t + 1`).
    pub t: usize,
    /// Corrupted parties, sorted by id; at most `t` of them.
    pub corruptions: Vec<Corruption>,
    /// The adaptive adversary bound to the whole system, if any
    /// (`adaptive:<name>[:args]@*` in the plan; at most one).
    pub adaptive: Option<AdaptiveSpec>,
    /// Scheduler spec, resolvable by [`scheduler_by_name`](crate::scheduler_by_name).
    pub sched: String,
    /// Backend spec without a scheduler (which `sched` carries): the
    /// grammar of a [`crate::ALL_BACKENDS`] family, e.g. `sim`,
    /// `sharded:4`, `threaded`.
    pub rt: String,
}

impl Scenario {
    /// An all-honest scenario on the simulator with the random scheduler.
    pub fn honest(n: usize, t: usize) -> Scenario {
        Scenario {
            n,
            t,
            corruptions: Vec::new(),
            adaptive: None,
            sched: "random".to_string(),
            rt: DEFAULT_BACKEND.to_string(),
        }
    }

    /// Parses and validates a scenario string; `None` on any error
    /// [`Scenario::try_parse`] would report.
    pub fn parse(spec: &str) -> Option<Scenario> {
        Scenario::try_parse(spec).ok()
    }

    /// Parses and validates a scenario string. Grammar errors name the
    /// offending field; validation errors are [`Scenario::validate`]'s.
    pub fn try_parse(spec: &str) -> Result<Scenario, String> {
        let fields = spec_fields(spec).ok_or_else(|| {
            format!("scenario {spec:?} must start with one of n=, t=, corrupt=, sched=, rt=")
        })?;
        let number = |key: &str, v: &str| {
            v.parse::<usize>()
                .map_err(|_| format!("{key}={v}: expected a number"))
        };
        let mut n = None;
        let mut t = None;
        let mut corrupt = String::new();
        let mut sched = "random".to_string();
        let mut rt = DEFAULT_BACKEND.to_string();
        for (k, v) in fields {
            match k {
                "n" => n = Some(number(k, &v)?),
                "t" => t = Some(number(k, &v)?),
                "corrupt" => corrupt = v,
                "sched" => sched = v,
                _ => rt = v, // `spec_fields` yields only the five keys
            }
        }
        let n = n.ok_or("n= is required")?;
        let t = t.unwrap_or(n.saturating_sub(1) / 3);
        let mut corruptions = Vec::new();
        let mut adaptive = None;
        // An empty plan is no entries, not one empty entry.
        let entries = (!corrupt.is_empty()).then(|| corrupt.split(';'));
        for part in entries.into_iter().flatten() {
            let bad = |why: &str| format!("corrupt entry {part:?}: {why}");
            let (fault, party) = part
                .rsplit_once('@')
                .ok_or_else(|| bad("expected <fault>@<party>"))?;
            let (fault, party) = (fault.trim(), party.trim());
            if party == "*" {
                // `adaptive:<name>[:args]@*` binds the adaptive
                // adversary to the whole system; at most one per plan.
                let rest = fault
                    .strip_prefix("adaptive:")
                    .ok_or_else(|| bad("only adaptive:<name>[:args] binds to @*"))?;
                let (name, args) = rest.split_once(':').unwrap_or((rest, ""));
                if !valid_attack_name(name) {
                    return Err(bad("adaptive attack names are lowercase kebab-case"));
                }
                if adaptive.is_some() {
                    return Err(bad("at most one adaptive entry per plan"));
                }
                adaptive = Some(AdaptiveSpec {
                    name: name.to_string(),
                    args: args.to_string(),
                });
                continue;
            }
            corruptions.push(Corruption {
                party: PartyId(
                    party
                        .parse()
                        .map_err(|_| bad("the party after @ must be a number"))?,
                ),
                fault: FaultSpec::parse(fault)
                    .ok_or_else(|| bad("unknown fault or malformed arguments"))?,
            });
        }
        corruptions.sort_by_key(|c| c.party.0);
        let scenario = Scenario {
            n,
            t,
            corruptions,
            adaptive,
            sched,
            rt,
        };
        scenario.validate()?;
        Ok(scenario)
    }

    /// The backend `rt` names, running `sched` where the family lets a
    /// scenario choose (on the others the OS schedules).
    pub fn backend(&self) -> Result<Backend, String> {
        Ok(Backend::parse_rt(&self.rt)?.with_sched(&self.sched))
    }

    /// Checks everything checkable without an attack registry: resilience
    /// bound, corruption budget and ids, scheduler and runtime specs.
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 {
            return Err("n must be positive".into());
        }
        if self.n < 3 * self.t + 1 {
            return Err(format!(
                "n={} violates optimal resilience n >= 3t+1 (t={})",
                self.n, self.t
            ));
        }
        if self.corruptions.len() > self.t {
            return Err(format!(
                "{} corruptions exceed the fault threshold t={}",
                self.corruptions.len(),
                self.t
            ));
        }
        for pair in self.corruptions.windows(2) {
            if pair[0].party == pair[1].party {
                return Err(format!("party {} corrupted twice", pair[0].party.0));
            }
        }
        for c in &self.corruptions {
            if c.party.0 >= self.n {
                return Err(format!("corrupt party {} out of range", c.party.0));
            }
            if let FaultSpec::Attack { name, .. } = &c.fault {
                if name == "adaptive" {
                    return Err(format!(
                        "adaptive plans bind to the whole system: write \
                         corrupt=adaptive:<name>@* instead of @{}",
                        c.party.0
                    ));
                }
            }
        }
        let backend = self.backend()?;
        let recover = self
            .corruptions
            .iter()
            .find(|c| matches!(c.fault, FaultSpec::Recover(_)));
        if let Some(spec) = &self.adaptive {
            if !valid_attack_name(&spec.name) {
                return Err(format!("invalid adaptive attack name {:?}", spec.name));
            }
            backend.require_deterministic(&format!("adaptive:{}@*", spec.name))?;
        }
        if crate::scheduler_by_name(&self.sched).is_none() {
            return Err(crate::scheduler_error(&self.sched));
        }
        let starved = crate::StarveScheduler::parse(&self.sched);
        let victims = starved.as_ref().map_or(&[][..], |s| s.victims());
        if let Some(p) = victims.iter().find(|p| p.0 >= self.n) {
            return Err(format!(
                "starve victim {} out of range (n={}): starve parties 0..={}",
                p.0,
                self.n,
                self.n - 1
            ));
        }
        if let Some(spec) = crate::net::NetSpec::parse(&self.sched) {
            if let Some(crate::net::PartitionSpec::Explicit(cut)) = &spec.partition {
                if cut.len() > self.t {
                    return Err(format!(
                        "partition cut of {} parties exceeds the fault threshold t={}: \
                         a cut isolating more than t parties can block termination",
                        cut.len(),
                        self.t
                    ));
                }
                if let Some(p) = cut.iter().find(|p| p.0 >= self.n) {
                    return Err(format!(
                        "partition cut party {} out of range (n={})",
                        p.0, self.n
                    ));
                }
            }
        } else if let Some(c) = recover {
            return Err(format!(
                "recover@{} is measured in virtual time: use a sched=net: scheduler \
                 (e.g. sched=net:lat=1..8)",
                c.party.0
            ));
        }
        if let Some(c) = recover {
            backend.require_deterministic(&format!("recover:<vt>@{}", c.party.0))?;
        }
        Ok(())
    }

    /// Checks that every [`FaultSpec::Attack`] in the plan resolves in
    /// `registry` (by name only — argument errors surface at deploy time).
    pub fn validate_attacks(&self, registry: &AttackRegistry) -> Result<(), String> {
        for c in &self.corruptions {
            if let FaultSpec::Attack { name, .. } = &c.fault {
                if !registry.contains(name) {
                    return Err(format!("unregistered attack {name:?}"));
                }
            }
        }
        if let Some(spec) = &self.adaptive {
            if !registry.contains_adaptive(&spec.name) {
                return Err(format!("unregistered adaptive attack {:?}", spec.name));
            }
        }
        Ok(())
    }

    /// The full [`runtime_by_name`](crate::runtime_by_name) spec this
    /// scenario runs on: `rt` composed with `sched` on the deterministic
    /// families (`rt` as written when it does not parse).
    pub fn backend_name(&self) -> String {
        self.backend()
            .map_or_else(|_| self.rt.clone(), |b| b.to_string())
    }

    /// The [`NetConfig`] of a run of this scenario with `seed`.
    pub fn config(&self, seed: u64) -> NetConfig {
        NetConfig::new(self.n, self.t, seed)
    }

    /// Builds the scenario's runtime for one seeded run.
    ///
    /// # Panics
    ///
    /// Panics if the scenario was constructed by hand with specs that
    /// don't pass [`Scenario::validate`] (parsed scenarios always do).
    pub fn runtime(&self, seed: u64) -> Box<dyn Runtime> {
        self.backend()
            .and_then(|b| b.build(self.config(seed)))
            .unwrap_or_else(|e| panic!("invalid scenario backend: {e}"))
    }

    /// The fault assigned to `party`, if corrupted.
    pub fn fault_of(&self, party: PartyId) -> Option<&FaultSpec> {
        self.corruptions
            .iter()
            .find(|c| c.party == party)
            .map(|c| &c.fault)
    }

    /// Whether `party` is corrupted in this scenario.
    pub fn is_corrupt(&self, party: PartyId) -> bool {
        self.fault_of(party).is_some()
    }

    /// Ids of the honest (non-corrupted) parties, in order.
    pub fn honest_parties(&self) -> impl Iterator<Item = PartyId> + '_ {
        (0..self.n).map(PartyId).filter(|p| !self.is_corrupt(*p))
    }

    /// Deploys one episode of a protocol stack under this scenario's
    /// corruption plan.
    ///
    /// For every party, spawns at `session` what
    /// [`Scenario::party_instance`] builds for it: the stack's honest
    /// instance (from `honest(party, carry)`) or the fault's instance —
    /// generic faults use the crate's generic behaviours
    /// (`mute-after` wraps the honest instance), named attacks are built
    /// by `registry` with an episode-aware [`AttackCtx`]. `crash` spawns
    /// the honest instance and then crashes the party, which therefore
    /// never starts it (idempotent across episodes); `recover:` does the
    /// same and schedules the revival, which starts a fresh instance.
    ///
    /// `carries[p]` is party `p`'s output from the previous episode (pass
    /// `&[]` for the first); it is forwarded both to `honest` and to
    /// attack factories, which is how reconstruction attacks receive the
    /// share bundle the corrupted party obtained honestly.
    pub fn deploy_episode(
        &self,
        rt: &mut dyn Runtime,
        registry: &AttackRegistry,
        episode: &str,
        session: &SessionId,
        carries: &[Option<Payload>],
        mut honest: impl FnMut(PartyId, Option<&Payload>) -> Box<dyn Instance>,
    ) -> Result<(), String> {
        let config = *rt.config();
        if config.n != self.n || config.t != self.t {
            return Err(format!(
                "runtime is configured for n={}/t={}, scenario wants n={}/t={}",
                config.n, config.t, self.n, self.t
            ));
        }
        // Adaptive adversary: build the policy + victim ledger once and
        // install it; later episodes of the same runtime reuse the handle,
        // so the t-cap spans the whole multi-episode run.
        let adaptive_ctrl: Option<crate::adaptive::SharedAdaptive> = match &self.adaptive {
            None => None,
            Some(spec) => {
                let ctrl = match rt.adaptive_handle() {
                    Some(ctrl) => ctrl,
                    None => {
                        let actx = AdaptiveCtx {
                            n: self.n,
                            t: self.t,
                            seed: config.seed,
                            args: &spec.args,
                        };
                        let policy =
                            registry.build_adaptive(&spec.name, &actx).ok_or_else(|| {
                                format!(
                                    "adaptive attack {:?} (args {:?}) failed to build for \
                                     episode {episode:?}",
                                    spec.name, spec.args
                                )
                            })?;
                        let mut plan = crate::adaptive::CorruptionPlan::new(self.n, self.t);
                        for c in &self.corruptions {
                            plan.seed_victim(c.party);
                        }
                        let ctrl = std::sync::Arc::new(std::sync::Mutex::new(
                            crate::adaptive::AdaptiveController::new(policy, plan),
                        ));
                        if !rt.install_adaptive(ctrl.clone()) {
                            return Err(format!(
                                "backend {:?} does not support adaptive attacks \
                                 (adaptive:{}@*)",
                                rt.backend_name(),
                                spec.name
                            ));
                        }
                        ctrl
                    }
                };
                ctrl.lock()
                    .expect("adaptive controller lock poisoned")
                    .on_episode(episode);
                Some(ctrl)
            }
        };
        for p in (0..self.n).map(PartyId) {
            let carry = carries.get(p.0).and_then(|c| c.as_ref());
            let fault = self.fault_of(p);
            let (mut instance, crash) = match fault {
                // Crashed like `crash`, until the recovery scheduled below.
                Some(FaultSpec::Recover(_)) => (honest(p, carry), true),
                _ => self.party_instance(registry, episode, p, config.seed, carry, || {
                    honest(p, carry)
                })?,
            };
            if let (None, Some(ctrl)) = (fault, &adaptive_ctrl) {
                // Every honest party is wrapped in a transparent shell:
                // it passes through untouched until the controller
                // corrupts the party, then acts out the assigned mode.
                instance = Box::new(crate::adaptive::AdaptiveShell::new(
                    instance,
                    ctrl.clone(),
                    p,
                ));
            }
            rt.spawn(p, session.clone(), instance);
            if crash {
                rt.crash(p);
            }
            if let Some(FaultSpec::Recover(at)) = fault {
                // Leave a recovery plan with a fresh honest instance: at
                // virtual time `at` the node revives with its session
                // state retired, and the instance respawns after the
                // rejoin grace period.
                if !rt.schedule_recover(p, *at, session.clone(), honest(p, carry)) {
                    return Err(format!(
                        "backend {:?} does not support crash-recovery (recover@{})",
                        rt.backend_name(),
                        p.0
                    ));
                }
            }
        }
        Ok(())
    }

    /// Builds `party`'s instance for one episode under this scenario's
    /// corruption plan — the only place a [`FaultSpec`] turns into
    /// behaviour, shared by [`Scenario::deploy_episode`] and by daemons
    /// that host a single party. Returns the instance plus whether the
    /// party must be crashed right after it is spawned (the `crash`
    /// fault). Touches no runtime, so a supervisor can call it dry to vet
    /// a plan. `recover:` is not an instance but a schedule, kept by
    /// whoever owns the clock (a runtime's virtual one, a supervisor's
    /// wall clock): meeting one here is an error.
    pub fn party_instance(
        &self,
        registry: &AttackRegistry,
        episode: &str,
        party: PartyId,
        seed: u64,
        carry: Option<&Payload>,
        honest: impl FnOnce() -> Box<dyn Instance>,
    ) -> Result<(Box<dyn Instance>, bool), String> {
        let instance: Box<dyn Instance> = match self.fault_of(party) {
            None => honest(),
            Some(FaultSpec::Silent) => Box::new(SilentInstance),
            Some(FaultSpec::Crash) => return Ok((honest(), true)),
            Some(FaultSpec::Recover(_)) => {
                return Err(format!(
                    "recover:@{} is a schedule for a clock's owner, not an instance",
                    party.0
                ))
            }
            Some(FaultSpec::MuteAfter(k)) => Box::new(MuteAfter::new(honest(), *k)),
            Some(FaultSpec::Garbage(b)) => Box::new(GarbageInstance::new(*b)),
            Some(FaultSpec::Equivocate(b)) => Box::new(Equivocator::new(*b)),
            Some(FaultSpec::Attack { name, args }) => {
                let ctx = AttackCtx {
                    party,
                    n: self.n,
                    t: self.t,
                    seed,
                    args,
                    episode,
                    carry,
                };
                match registry.build(name, &ctx) {
                    Some(AttackRole::Instance(inst)) => inst,
                    Some(AttackRole::Honest) => honest(),
                    None => {
                        return Err(format!(
                            "attack {name:?} (args {args:?}) failed to build for \
                             episode {episode:?}"
                        ))
                    }
                }
            }
        };
        Ok((instance, false))
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n={},t={}", self.n, self.t)?;
        if !self.corruptions.is_empty() || self.adaptive.is_some() {
            write!(f, ",corrupt=")?;
            for (i, c) in self.corruptions.iter().enumerate() {
                if i > 0 {
                    write!(f, ";")?;
                }
                write!(f, "{c}")?;
            }
            if let Some(a) = &self.adaptive {
                if !self.corruptions.is_empty() {
                    write!(f, ";")?;
                }
                write!(f, "{a}")?;
            }
        }
        write!(f, ",sched={},rt={}", self.sched, self.rt)
    }
}

/// Everything an attack factory may depend on when building the corrupted
/// party's instance for one episode.
///
/// By convention the scenario stacks place protocol roles at party 0
/// (e.g. the SVSS dealer), so factories that need a role id use
/// `PartyId(0)` unless their `args` say otherwise.
pub struct AttackCtx<'a> {
    /// The corrupted party being deployed.
    pub party: PartyId,
    /// Number of parties.
    pub n: usize,
    /// Fault threshold.
    pub t: usize,
    /// The run's master seed.
    pub seed: u64,
    /// Attack-defined argument string from the fault spec.
    pub args: &'a str,
    /// The episode (leaf session kind) being deployed, e.g. `"ba"`,
    /// `"svss-share"`, `"svss-rec"`.
    pub episode: &'a str,
    /// The party's output from the previous episode, if any.
    pub carry: Option<&'a Payload>,
}

/// What an attack factory contributes to one episode.
pub enum AttackRole {
    /// Run this instance for the corrupted party.
    Instance(Box<dyn Instance>),
    /// This episode is not attacked: run the stack's honest instance.
    Honest,
}

type AttackFactory = Box<dyn Fn(&AttackCtx<'_>) -> Option<AttackRole> + Send + Sync>;

/// Everything an adaptive-attack factory may depend on when building the
/// run's corruption policy (adaptive policies bind to the whole system,
/// not one party — compare [`AttackCtx`]).
pub struct AdaptiveCtx<'a> {
    /// Number of parties.
    pub n: usize,
    /// Fault threshold (the victim cap).
    pub t: usize,
    /// The run's master seed.
    pub seed: u64,
    /// Policy-defined argument string from the scenario spec.
    pub args: &'a str,
}

type AdaptiveFactory =
    Box<dyn Fn(&AdaptiveCtx<'_>) -> Option<Box<dyn crate::adaptive::AdaptiveAttack>> + Send + Sync>;

/// Named protocol-specific attacks, pluggable by protocol crates.
///
/// Factories receive an [`AttackCtx`] and return the corrupted party's
/// role for the episode being deployed, or `None` when the arguments are
/// invalid. `aft-ba` and `aft-svss` export `register_attacks` functions;
/// `aft-core` assembles them into the standard registry used by the
/// conformance suite.
///
/// A second namespace holds *adaptive* attacks ([`AdaptiveAttack`]
/// policies bound via `corrupt=adaptive:<name>@*`); the built-in constant
/// policy `pin` ([`PinPolicy`]) is pre-registered in every registry.
///
/// [`AdaptiveAttack`]: crate::adaptive::AdaptiveAttack
/// [`PinPolicy`]: crate::adaptive::PinPolicy
pub struct AttackRegistry {
    factories: BTreeMap<&'static str, AttackFactory>,
    adaptive: BTreeMap<&'static str, AdaptiveFactory>,
}

impl Default for AttackRegistry {
    fn default() -> Self {
        let mut reg = AttackRegistry {
            factories: BTreeMap::new(),
            adaptive: BTreeMap::new(),
        };
        reg.register_adaptive("pin", |ctx| {
            crate::adaptive::PinPolicy::parse(ctx.args)
                .map(|p| Box::new(p) as Box<dyn crate::adaptive::AdaptiveAttack>)
        });
        reg
    }
}

impl AttackRegistry {
    /// A registry holding only the built-in adaptive `pin` policy
    /// (generic faults need no registration).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `factory` under `name`, replacing any previous entry.
    pub fn register(
        &mut self,
        name: &'static str,
        factory: impl Fn(&AttackCtx<'_>) -> Option<AttackRole> + Send + Sync + 'static,
    ) {
        self.factories.insert(name, Box::new(factory));
    }

    /// Whether an attack named `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }

    /// Registered attack names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.factories.keys().copied()
    }

    /// Builds the attack `name` for `ctx`; `None` when the name is
    /// unknown or the factory rejected the arguments.
    pub fn build(&self, name: &str, ctx: &AttackCtx<'_>) -> Option<AttackRole> {
        self.factories.get(name)?(ctx)
    }

    /// Registers an adaptive-attack `factory` under `name`, replacing any
    /// previous entry.
    pub fn register_adaptive(
        &mut self,
        name: &'static str,
        factory: impl Fn(&AdaptiveCtx<'_>) -> Option<Box<dyn crate::adaptive::AdaptiveAttack>>
            + Send
            + Sync
            + 'static,
    ) {
        self.adaptive.insert(name, Box::new(factory));
    }

    /// Whether an adaptive attack named `name` is registered.
    pub fn contains_adaptive(&self, name: &str) -> bool {
        self.adaptive.contains_key(name)
    }

    /// Registered adaptive-attack names, sorted.
    pub fn adaptive_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.adaptive.keys().copied()
    }

    /// Builds the adaptive attack `name` for `ctx`; `None` when the name
    /// is unknown or the factory rejected the arguments.
    pub fn build_adaptive(
        &self,
        name: &str,
        ctx: &AdaptiveCtx<'_>,
    ) -> Option<Box<dyn crate::adaptive::AdaptiveAttack>> {
        self.adaptive.get(name)?(ctx)
    }
}

impl fmt::Debug for AttackRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.names()).finish()
    }
}

/// A sweep over the cross-product of backends × schedulers × fault plans
/// × seeds, run in parallel via [`run_trials`](crate::run_trials).
///
/// Every cell is identified by its scenario *string* (composed from the
/// axes) plus its seed, and [`ScenarioMatrix::run`] re-parses that string
/// inside the trial — results are reproducible from `(seed, scenario
/// string)` alone, with no hidden state.
#[derive(Debug, Clone)]
pub struct ScenarioMatrix {
    /// Number of parties (shared by every cell).
    pub n: usize,
    /// Fault threshold.
    pub t: usize,
    /// Backend axis (`rt=` values, e.g. `sim`, `sharded:2`, `threaded`).
    pub backends: Vec<String>,
    /// Scheduler axis (`sched=` values).
    pub schedulers: Vec<String>,
    /// Fault-plan axis (`corrupt=` values; `""` means all honest).
    pub plans: Vec<String>,
    /// Seed axis.
    pub seeds: Vec<u64>,
}

/// One completed cell of a [`ScenarioMatrix`] sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixCell<T> {
    /// The cell's canonical scenario string.
    pub spec: String,
    /// The cell's seed.
    pub seed: u64,
    /// Whatever the runner returned.
    pub outcome: T,
}

impl ScenarioMatrix {
    /// The scenario strings of the sweep (cross-product minus seeds), in
    /// axis order: backends outermost, then schedulers, then plans.
    pub fn specs(&self) -> Vec<String> {
        let mut specs = Vec::new();
        for rt in &self.backends {
            for sched in &self.schedulers {
                for plan in &self.plans {
                    let corrupt = if plan.is_empty() {
                        String::new()
                    } else {
                        format!(",corrupt={plan}")
                    };
                    specs.push(format!(
                        "n={},t={}{corrupt},sched={sched},rt={rt}",
                        self.n, self.t
                    ));
                }
            }
        }
        specs
    }

    /// All `(scenario string, seed)` cells of the sweep.
    pub fn cells(&self) -> Vec<(String, u64)> {
        let mut cells = Vec::new();
        for spec in self.specs() {
            for &seed in &self.seeds {
                cells.push((spec.clone(), seed));
            }
        }
        cells
    }

    /// Runs `runner` on every cell across up to `threads` OS threads and
    /// returns outcomes in cell order.
    ///
    /// # Panics
    ///
    /// Panics if any composed scenario string fails to parse (axis values
    /// are validated here, not at construction).
    pub fn run<T: Send>(
        &self,
        threads: usize,
        runner: impl Fn(&Scenario, u64) -> T + Sync,
    ) -> Vec<MatrixCell<T>> {
        let cells = self.cells();
        let outcomes = crate::montecarlo::run_trials(0..cells.len() as u64, threads, |i| {
            let (spec, seed) = &cells[i as usize];
            let scenario = Scenario::try_parse(spec)
                .unwrap_or_else(|e| panic!("matrix composed an invalid scenario {spec:?}: {e}"));
            runner(&scenario, *seed)
        });
        cells
            .into_iter()
            .zip(outcomes)
            .map(|((spec, seed), outcome)| MatrixCell {
                spec,
                seed,
                outcome,
            })
            .collect()
    }
}

/// A tiny deterministic (FNV-1a) fingerprint accumulator, used to compare
/// runs bit-for-bit across backends and re-runs without relying on
/// `std`'s unstable-by-contract default hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes into the fingerprint.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u64` (little-endian) into the fingerprint.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a string (with a terminator, so concatenations differ).
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
        self.write_bytes(&[0xff]);
    }

    /// Folds the run-affecting counters of a [`Metrics`] snapshot: sends,
    /// deliveries, drops, shun events and sorted per-kind send counts.
    pub fn write_metrics(&mut self, m: &Metrics) {
        self.write_u64(m.sent);
        self.write_u64(m.delivered);
        self.write_u64(m.dropped_shunned);
        self.write_u64(m.dropped_crashed);
        self.write_u64(m.shun_events);
        let mut kinds: Vec<(&'static str, u64)> = m.kinds().collect();
        kinds.sort();
        for (kind, count) in kinds {
            self.write_str(kind);
            self.write_u64(count);
        }
    }

    /// The accumulated 64-bit fingerprint.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SessionTag;
    use crate::instance::Context;
    use crate::runtime::{RuntimeExt, StopReason};

    fn sid() -> SessionId {
        SessionId::root().child(SessionTag::new("s", 0))
    }

    /// Counts pings; outputs after hearing 3.
    struct Pinger {
        heard: usize,
    }
    impl Instance for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send_all(1u8);
        }
        fn on_message(&mut self, _f: PartyId, p: &Payload, ctx: &mut Context<'_>) {
            if p.to_msg::<u8>().is_some() {
                self.heard += 1;
                if self.heard == 3 {
                    ctx.output(self.heard);
                }
            }
        }
    }

    #[test]
    fn parse_issue_example() {
        let s = Scenario::parse(
            "scenario:n=16,t=3,corrupt=silent@1;garbage@5,sched=starve:1,rt=sharded:4",
        )
        .unwrap();
        assert_eq!((s.n, s.t), (16, 3));
        assert_eq!(s.corruptions.len(), 2);
        assert_eq!(s.fault_of(PartyId(1)), Some(&FaultSpec::Silent));
        assert_eq!(
            s.fault_of(PartyId(5)),
            Some(&FaultSpec::Garbage(DEFAULT_GARBAGE_BUDGET))
        );
        assert_eq!(s.sched, "starve:1");
        assert_eq!(s.rt, "sharded:4");
        assert_eq!(s.backend_name(), "sharded:4:starve:1");
    }

    #[test]
    fn parse_defaults_and_prefix_optional() {
        let s = Scenario::parse("n=7").unwrap();
        assert_eq!((s.n, s.t), (7, 2));
        assert!(s.corruptions.is_empty());
        assert_eq!(s.sched, "random");
        assert_eq!(s.rt, "sim");
        assert_eq!(Scenario::parse("scenario:n=7"), Some(s));
    }

    #[test]
    fn parse_glues_scheduler_commas() {
        let s = Scenario::parse("n=7,t=2,sched=starve:1,3,rt=sim").unwrap();
        assert_eq!(s.sched, "starve:1,3");
        assert_eq!(s.rt, "sim");
        // Comma-continuations also work for attack args in corrupt plans.
        let s = Scenario::parse("n=7,sched=random,corrupt=wrong-cross:1,2@4").unwrap();
        assert_eq!(
            s.fault_of(PartyId(4)),
            Some(&FaultSpec::Attack {
                name: "wrong-cross".into(),
                args: "1,2".into()
            })
        );
    }

    #[test]
    fn display_round_trips_and_is_canonical() {
        for spec in [
            "n=4,t=1,sched=random,rt=sim",
            "n=7,t=2,corrupt=silent@2;mute-after:6@5,sched=lifo,rt=sharded:2",
            "n=16,t=5,corrupt=garbage:9@1;equivocate:3@8;my-attack:x@12,sched=window4,rt=threaded",
            "n=10,t=3,corrupt=crash@9,sched=starve:1,3,rt=sharded:1",
            "n=7,t=2,sched=net:lat=1..20,partition=p50,heal=200,rt=sim",
            "n=7,t=2,corrupt=recover:120@6,sched=net:lat=exp:5,partition=3+5,heal=80,rt=sharded:2",
        ] {
            let s = Scenario::parse(spec).unwrap();
            assert_eq!(s.to_string(), spec, "canonical form is stable");
            assert_eq!(Scenario::parse(&s.to_string()), Some(s), "{spec}");
        }
        // Non-canonical inputs normalize: default budgets become explicit,
        // corruption lists sort by party.
        let s = Scenario::parse("n=7,corrupt=garbage@5;silent@2").unwrap();
        assert_eq!(
            s.to_string(),
            "n=7,t=2,corrupt=silent@2;garbage:32@5,sched=random,rt=sim"
        );
    }

    #[test]
    fn parse_rejects_invalid() {
        for bad in [
            "",                                                        // no n
            "t=1",                                                     // no n
            "n=4,t=2",                                                 // resilience violated
            "n=4,t=1,corrupt=silent@1;silent@2",                       // two corruptions > t
            "n=4,t=1,corrupt=silent@4",                                // party out of range
            "n=4,t=1,corrupt=silent@1;silent@1",                       // duplicate party
            "n=4,t=1,corrupt=silent:9@1",                              // silent takes no args
            "n=4,t=1,corrupt=mute-after@1",                            // mute-after needs a count
            "n=4,t=1,corrupt=garbage:x@1",                             // malformed builtin args
            "n=4,t=1,corrupt=Bad-Name@1",                              // invalid attack name
            "n=4,t=1,corrupt=silent",                                  // missing @party
            "n=4,sched=bogus",                                         // unknown scheduler
            "n=4,sched=net:",                                          // empty net argument list
            "n=4,sched=net:lat=0..3",                                  // zero latency bound
            "n=4,sched=net:heal=50",                                   // heal without a partition
            "n=4,t=1,sched=net:lat=1..4,partition=0+1,heal=9",         // cut > t
            "n=4,t=1,sched=net:lat=1..4,partition=5,heal=9",           // cut id >= n
            "n=4,t=1,sched=starve:9",                                  // victim id >= n
            "n=4,t=1,sched=starve:1,4",                                // ditto, second id
            "n=4,t=1,sched=starve:1000000000",                         // huge id: refused, unsized
            "n=4,t=1,sched=starve:18446744073709551615",               // u64::MAX: no abort
            "n=4,t=1,corrupt=recover@1",                               // recover needs a vtime
            "n=4,t=1,corrupt=recover:50@1",                            // recover needs sched=net:
            "n=4,rt=hovercraft",                                       // unknown runtime
            "n=4,rt=sharded:0",                                        // zero shards
            "n=4,rt=sim:lifo",   // scheduler belongs in sched=
            "n=4,rt=wire:lifo",  // ditto for the wire backend
            "n=4,rt=wire:",      // malformed wire spec
            "n=4,rt=async:lifo", // ditto for the async backend
            "n=4,rt=async:",     // malformed async spec
            "n=4,rt=proc:4",     // proc takes no argument: n says how many
            "n=4,rt=threaded:5", // nor does threaded
            "n=4,t=1,corrupt=recover:50@3,sched=net:lat=1..4,rt=proc", // supervisor-only
            "n=4,zzz=1",         // unknown field
            "n=four",            // malformed n
        ] {
            assert!(Scenario::parse(bad).is_none(), "{bad:?} must not parse");
        }
    }

    /// The deterministic families' canonical specs, from the table.
    fn deterministic_backends() -> impl Iterator<Item = &'static str> {
        crate::ALL_BACKENDS
            .iter()
            .filter(|f| f.deterministic)
            .map(|f| f.example)
    }

    #[test]
    fn backend_composition_and_misuse_follow_the_table() {
        for family in crate::ALL_BACKENDS {
            let rt = family.example;
            let spec = format!("n=4,t=1,corrupt=silent@2,sched=lifo,rt={rt}");
            let s = Scenario::try_parse(&spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(s.to_string(), spec, "canonical form is stable");
            // `sched=` composes into the backend iff the family honours it.
            let composed = if family.deterministic {
                format!("{rt}:lifo")
            } else {
                rt.to_string()
            };
            assert_eq!(s.backend_name(), composed);
            assert_eq!(s.runtime(1).backend_name(), family.name);

            // A scheduler jammed into rt= gets the same hint on every
            // deterministic family; the others take none at all.
            let err = Scenario::try_parse(&format!("n=4,rt={rt}:lifo")).unwrap_err();
            let hint = if family.deterministic {
                "sched="
            } else {
                "takes no scheduler"
            };
            assert!(err.contains(hint), "{rt}: {err}");

            // Adaptive and recover plans need replay and a virtual clock.
            let adaptive = format!("n=4,t=1,corrupt=adaptive:pin:silent:3@*,rt={rt}");
            let recover = format!("n=4,t=1,corrupt=recover:50@3,sched=net:lat=1..4,rt={rt}");
            if family.deterministic {
                assert!(Scenario::parse(&adaptive).is_some(), "{adaptive}");
                assert!(Scenario::parse(&recover).is_some(), "{recover}");
            } else {
                let err = Scenario::try_parse(&adaptive).unwrap_err();
                assert!(err.contains("deterministic"), "{err}");
                for fix in crate::ALL_BACKENDS.iter().filter(|f| f.deterministic) {
                    assert!(err.contains(&format!("rt={}", fix.grammar)), "{err}");
                }
                let err = Scenario::try_parse(&recover).unwrap_err();
                assert!(err.contains("exp_deployment"), "{err}");
            }
        }
    }

    #[test]
    fn rejected_scenarios_say_why_in_one_line_that_names_the_fix() {
        for (spec, fix) in [
            (
                "n=4,t=1,rt=sim:lifo",
                "write rt=sim and put the scheduler in sched=",
            ),
            (
                "n=4,t=1,rt=sharded:2:lifo",
                "write rt=sharded:2 and put the scheduler in sched=",
            ),
            (
                "n=4,t=1,rt=wire:lifo",
                "write rt=wire and put the scheduler in sched=",
            ),
            (
                "n=4,t=1,rt=async:lifo",
                "write rt=async and put the scheduler in sched=",
            ),
            (
                "n=4,t=1,rt=wire:",
                "write rt=wire and put the scheduler in sched=",
            ),
            ("n=4,t=1,rt=proc:4", "takes no argument"),
            ("n=4,t=1,rt=proc:4", "write rt=proc"),
            ("n=4,t=1,rt=threaded:5", "takes no argument"),
            ("n=4,t=1,rt=sharded:0", "e.g. rt=sharded:2"),
            (
                "n=4,t=1,rt=hovercraft",
                "expected rt=sim, rt=wire, rt=async, rt=sharded:<k>",
            ),
            (
                "n=4,t=1,corrupt=adaptive:x@*,rt=threaded",
                "use rt=sim, rt=wire, rt=async or rt=sharded:<k>",
            ),
            (
                "n=4,t=1,corrupt=recover:50@3,rt=sim",
                "use a sched=net: scheduler",
            ),
            ("n=4,sched=bogus", "families: fifo"),
            (
                "n=4,t=1,sched=starve:9",
                "starve victim 9 out of range (n=4)",
            ),
            (
                "n=4,t=1,sched=starve:18446744073709551615",
                "starve parties 0..=3",
            ),
            // Grammar errors name the offending field.
            ("", "must start with one of n="),
            ("t=1", "n= is required"),
            ("n=four", "n=four: expected a number"),
            (
                "n=4,t=1,corrupt=silent",
                "\"silent\": expected <fault>@<party>",
            ),
            ("n=4,t=1,corrupt=silent@x", "party after @ must be a number"),
            ("n=4,t=1,corrupt=silent@*", "only adaptive:"),
            (
                "n=4,t=1,corrupt=adaptive:a@*;adaptive:b@*",
                "at most one adaptive",
            ),
            (
                "n=4,t=1,corrupt=garbage:x@1",
                "unknown fault or malformed arguments",
            ),
        ] {
            let err = Scenario::try_parse(spec).expect_err(spec);
            assert!(err.contains(fix), "{spec:?} -> {err}");
            assert!(!err.contains('\n'), "one line: {err}");
            assert!(
                Scenario::parse(spec).is_none(),
                "parse is try_parse's .ok()"
            );
        }
    }

    #[test]
    fn scheduler_errors_name_the_family_grammar() {
        // Unknown family: the error lists the families so the fix is
        // discoverable without reading source.
        let mut s = Scenario::honest(4, 1);
        s.sched = "bogus".into();
        let err = s.validate().unwrap_err();
        assert!(err.contains("families:"), "{err}");
        assert!(err.contains("net"), "{err}");
        // Known family, malformed arguments: the error carries that
        // family's grammar example.
        s.sched = "net:lat=..".into();
        let err = s.validate().unwrap_err();
        assert!(err.contains("net:lat=1..8"), "{err}");
        s.sched = "starve:".into();
        let err = s.validate().unwrap_err();
        assert!(err.contains("starve"), "{err}");
        // Cuts isolating more than t parties are rejected up front: they
        // could block termination, which no scenario may encode.
        s.sched = "net:lat=1..4,partition=0+1,heal=50".into();
        let err = s.validate().unwrap_err();
        assert!(err.contains("fault threshold"), "{err}");
        // Recover without virtual time is meaningless.
        s.sched = "random".into();
        s.corruptions = vec![Corruption {
            party: PartyId(2),
            fault: FaultSpec::Recover(40),
        }];
        let err = s.validate().unwrap_err();
        assert!(err.contains("sched=net:"), "{err}");
    }

    #[test]
    fn deploy_recover_rejoins_mid_episode() {
        // Party 3 crashes at spawn and recovers at vtime 50: its first
        // instance never starts, the pre-recovery deliveries to it are
        // dropped-and-counted, and the respawned instance broadcasts after
        // rejoining — observable as 4 extra sends on every backend.
        for rt_name in deterministic_backends() {
            let spec = format!("n=4,t=1,corrupt=recover:50@3,sched=net:lat=1..4,rt={rt_name}");
            let s = Scenario::parse(&spec).unwrap();
            let mut rt = s.runtime(9);
            s.deploy_episode(
                rt.as_mut(),
                &AttackRegistry::new(),
                "ping",
                &sid(),
                &[],
                |_, _| Box::new(Pinger { heard: 0 }),
            )
            .unwrap();
            let report = rt.run(1_000_000);
            assert_eq!(report.stop, StopReason::Quiescent, "{rt_name}");
            assert_eq!(report.metrics.sent, 16, "{rt_name}: 3 live + 1 rejoined");
            assert_eq!(
                report.metrics.sent,
                report.metrics.delivered
                    + report.metrics.dropped_shunned
                    + report.metrics.dropped_crashed,
                "{rt_name}: conservation across the recovery"
            );
            for p in s.honest_parties() {
                assert_eq!(
                    rt.output_as::<usize>(p, &sid()),
                    Some(&3),
                    "{rt_name} {p:?}"
                );
            }
        }
    }

    #[test]
    fn deploy_generic_faults_and_crash() {
        // 7 parties, silent@5 + crash@6: the 5 honest pingers each
        // broadcast once and hear enough pings to output.
        let s = Scenario::parse("n=7,t=2,corrupt=silent@5;crash@6,sched=random,rt=sim").unwrap();
        let mut rt = s.runtime(11);
        let reg = AttackRegistry::new();
        s.deploy_episode(rt.as_mut(), &reg, "ping", &sid(), &[], |_, _| {
            Box::new(Pinger { heard: 0 })
        })
        .unwrap();
        let report = rt.run(1_000_000);
        assert_eq!(report.stop, StopReason::Quiescent);
        for p in s.honest_parties() {
            assert_eq!(rt.output_as::<usize>(p, &sid()), Some(&3), "party {p:?}");
        }
        assert!(rt.output(PartyId(5), &sid()).is_none(), "silent");
        assert!(rt.output(PartyId(6), &sid()).is_none(), "crashed");
        // Crashed before the run, party 6 never broadcast: only the 5 live
        // parties' send_alls count, and each of their
        // deliveries to the crashed party is dropped-and-counted.
        assert_eq!(report.metrics.sent, 35);
        assert_eq!(report.metrics.dropped_crashed, 5);
    }

    #[test]
    fn deploy_attack_roles_and_errors() {
        let mut reg = AttackRegistry::new();
        reg.register("pinger-stutter", |ctx| match ctx.episode {
            "ping" => Some(AttackRole::Instance(Box::new(SilentInstance))),
            _ => Some(AttackRole::Honest),
        });
        assert!(reg.contains("pinger-stutter"));
        assert_eq!(reg.names().collect::<Vec<_>>(), vec!["pinger-stutter"]);

        let s = Scenario::parse("n=4,t=1,corrupt=pinger-stutter@3,sched=fifo,rt=sim").unwrap();
        assert!(s.validate_attacks(&reg).is_ok());
        assert!(s
            .validate_attacks(&AttackRegistry::new())
            .unwrap_err()
            .contains("pinger-stutter"));

        // Episode "ping": the attack is active (silent).
        let mut rt = s.runtime(3);
        s.deploy_episode(rt.as_mut(), &reg, "ping", &sid(), &[], |_, _| {
            Box::new(Pinger { heard: 0 })
        })
        .unwrap();
        rt.run(1_000_000);
        assert!(rt.output(PartyId(3), &sid()).is_none());

        // Episode "other": AttackRole::Honest falls back to the honest
        // instance.
        let other = SessionId::root().child(SessionTag::new("other", 0));
        let mut rt = s.runtime(3);
        s.deploy_episode(rt.as_mut(), &reg, "other", &other, &[], |_, _| {
            Box::new(Pinger { heard: 0 })
        })
        .unwrap();
        rt.run(1_000_000);
        assert_eq!(rt.output_as::<usize>(PartyId(3), &other), Some(&3));

        // Unknown attack: deploy fails loudly.
        let mut rt = s.runtime(3);
        let err = s
            .deploy_episode(
                rt.as_mut(),
                &AttackRegistry::new(),
                "ping",
                &sid(),
                &[],
                |_, _| Box::new(Pinger { heard: 0 }),
            )
            .unwrap_err();
        assert!(err.contains("pinger-stutter"), "{err}");
    }

    #[test]
    fn party_instance_covers_the_fault_plan() {
        // Usable dry, one party at a time: the crash flag is set for
        // exactly the party a runtime (or a daemon) must take down.
        let honest = || -> Box<dyn Instance> { Box::new(Pinger { heard: 0 }) };
        let mut reg = AttackRegistry::new();
        for (plan, crashes) in [
            ("silent@3", false),
            ("mute-after:6@3", false),
            ("garbage:4@3", false),
            ("equivocate:4@3", false),
            ("crash@3", true),
        ] {
            let s = Scenario::parse(&format!("n=4,t=1,corrupt={plan},rt=proc")).unwrap();
            for p in (0..4).map(PartyId) {
                let (_, crash) = s.party_instance(&reg, "ping", p, 7, None, honest).unwrap();
                assert_eq!(crash, p.0 == 3 && crashes, "party {p:?} plan {plan}");
            }
        }
        // A named attack is told the episode, party and seed it is built for.
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let log = seen.clone();
        reg.register("spy", move |ctx| {
            log.lock()
                .unwrap()
                .push((ctx.episode.to_string(), ctx.party, ctx.seed));
            Some(AttackRole::Honest)
        });
        let s = Scenario::parse("n=4,t=1,corrupt=spy@2,rt=proc").unwrap();
        assert!(s
            .party_instance(&reg, "cs", PartyId(2), 7, None, honest)
            .is_ok());
        assert_eq!(*seen.lock().unwrap(), [("cs".to_string(), PartyId(2), 7)]);
        // A stray recover fault is a hard error, not a silent honest run.
        let s = Scenario::parse("n=4,t=1,corrupt=recover:50@2,sched=net:lat=1..4").unwrap();
        assert!(s
            .party_instance(&reg, "ba", PartyId(2), 7, None, honest)
            .is_err());
    }

    #[test]
    fn deploy_rejects_mismatched_runtime() {
        let s = Scenario::honest(4, 1);
        let mut rt = Scenario::honest(7, 2).runtime(0);
        let err = s
            .deploy_episode(
                rt.as_mut(),
                &AttackRegistry::new(),
                "ping",
                &sid(),
                &[],
                |_, _| Box::new(SilentInstance),
            )
            .unwrap_err();
        assert!(err.contains("n=7"), "{err}");
    }

    #[test]
    fn deploy_forwards_carries() {
        struct EchoCarry;
        impl Instance for EchoCarry {
            fn on_start(&mut self, _ctx: &mut Context<'_>) {}
            fn on_message(&mut self, _f: PartyId, _p: &Payload, _c: &mut Context<'_>) {}
        }
        let s = Scenario::honest(4, 1);
        let mut rt = s.runtime(0);
        let carries: Vec<Option<Payload>> = (0..4u64).map(|p| Some(Payload::new(p))).collect();
        let mut seen = Vec::new();
        s.deploy_episode(
            rt.as_mut(),
            &AttackRegistry::new(),
            "e2",
            &sid(),
            &carries,
            |p, c| {
                seen.push((p, c.and_then(|c| c.downcast_ref::<u64>()).copied()));
                Box::new(EchoCarry)
            },
        )
        .unwrap();
        assert_eq!(
            seen,
            (0..4)
                .map(|p| (PartyId(p), Some(p as u64)))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn matrix_cells_and_reproducible_run() {
        let matrix = ScenarioMatrix {
            n: 4,
            t: 1,
            backends: vec!["sim".into(), "sharded:2".into()],
            schedulers: vec!["fifo".into(), "random".into()],
            plans: vec!["".into(), "silent@3".into()],
            seeds: vec![1, 2],
        };
        assert_eq!(matrix.specs().len(), 8);
        assert_eq!(matrix.cells().len(), 16);
        let run = || {
            matrix.run(4, |scenario, seed| {
                let mut rt = scenario.runtime(seed);
                scenario
                    .deploy_episode(
                        rt.as_mut(),
                        &AttackRegistry::new(),
                        "ping",
                        &sid(),
                        &[],
                        |_, _| Box::new(Pinger { heard: 0 }),
                    )
                    .unwrap();
                let report = rt.run(1_000_000);
                let mut fp = Fingerprint::new();
                fp.write_metrics(&report.metrics);
                for p in (0..scenario.n).map(PartyId) {
                    fp.write_str(&format!("{:?}", rt.output_as::<usize>(p, &sid())));
                }
                (report.stop, fp.finish())
            })
        };
        let first = run();
        assert!(first.iter().all(|c| c.outcome.0 == StopReason::Quiescent));
        // Bit-for-bit reproducible from (seed, scenario string) alone.
        assert_eq!(first, run());
    }

    #[test]
    fn adaptive_specs_parse_and_round_trip() {
        for spec in [
            "n=4,t=1,corrupt=adaptive:coin-favorite@*,sched=random,rt=sim",
            "n=7,t=2,corrupt=silent@2;adaptive:pin:storm:1@*,sched=lifo,rt=wire",
            "n=7,t=2,corrupt=adaptive:core-candidates:50@*,sched=net:lat=1..8,rt=sharded:4",
        ] {
            let s = Scenario::parse(spec).unwrap();
            assert!(s.adaptive.is_some(), "{spec}");
            assert_eq!(s.to_string(), spec, "canonical form is stable");
            assert_eq!(Scenario::parse(&s.to_string()), Some(s), "{spec}");
        }
        let s = Scenario::parse("n=7,t=2,corrupt=adaptive:pin:silent:3@*").unwrap();
        let a = s.adaptive.unwrap();
        assert_eq!(a.name, "pin");
        assert_eq!(a.args, "silent:3");
    }

    #[test]
    fn adaptive_specs_reject_invalid() {
        for bad in [
            "n=4,t=1,corrupt=silent@*",                   // only adaptive: binds to *
            "n=4,t=1,corrupt=adaptive:@*",                // empty name
            "n=4,t=1,corrupt=adaptive:Bad@*",             // invalid name charset
            "n=4,t=1,corrupt=adaptive:a@*;adaptive:b@*",  // at most one
            "n=4,t=1,corrupt=adaptive:pin:silent:3@2",    // numeric party
            "n=4,t=1,corrupt=adaptive:pin@*,rt=threaded", // nondeterministic backend
        ] {
            assert!(Scenario::parse(bad).is_none(), "{bad:?} must not parse");
        }
        // The numeric-party and threaded rejections carry targeted errors.
        let mut s = Scenario::honest(4, 1);
        s.corruptions = vec![Corruption {
            party: PartyId(2),
            fault: FaultSpec::Attack {
                name: "adaptive".into(),
                args: "pin:silent:3".into(),
            },
        }];
        let err = s.validate().unwrap_err();
        assert!(err.contains("adaptive:<name>@*"), "{err}");
        let mut s = Scenario::honest(4, 1);
        s.adaptive = Some(AdaptiveSpec {
            name: "pin".into(),
            args: "silent:3".into(),
        });
        s.rt = "threaded".into();
        let err = s.validate().unwrap_err();
        assert!(err.contains("rt=sim"), "targeted hint, got: {err}");
        assert!(err.contains("deterministic"), "{err}");
    }

    #[test]
    fn adaptive_registry_and_validate_attacks() {
        let reg = AttackRegistry::new();
        assert!(reg.contains_adaptive("pin"), "pin is built in");
        assert_eq!(reg.adaptive_names().collect::<Vec<_>>(), vec!["pin"]);
        let s = Scenario::parse("n=4,t=1,corrupt=adaptive:pin:silent:3@*").unwrap();
        assert!(s.validate_attacks(&reg).is_ok());
        let s = Scenario::parse("n=4,t=1,corrupt=adaptive:nope@*").unwrap();
        let err = s.validate_attacks(&reg).unwrap_err();
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn deploy_adaptive_pin_mutes_target() {
        // adaptive:pin:silent:3@* behaves exactly like silent@3: party 3
        // never outputs, everyone else does.
        for rt_name in deterministic_backends() {
            let spec = format!("n=4,t=1,corrupt=adaptive:pin:silent:3@*,sched=fifo,rt={rt_name}");
            let s = Scenario::parse(&spec).unwrap();
            let reg = AttackRegistry::new();
            let mut rt = s.runtime(7);
            s.deploy_episode(rt.as_mut(), &reg, "ping", &sid(), &[], |_, _| {
                Box::new(Pinger { heard: 0 })
            })
            .unwrap();
            let report = rt.run(1_000_000);
            assert_eq!(report.stop, StopReason::Quiescent, "{rt_name}");
            assert!(rt.output(PartyId(3), &sid()).is_none(), "{rt_name}: muted");
            for p in (0..3).map(PartyId) {
                assert_eq!(
                    rt.output_as::<usize>(p, &sid()),
                    Some(&3),
                    "{rt_name} {p:?}"
                );
            }
            let ctrl = rt.adaptive_handle().expect("controller installed");
            let ctrl = ctrl.lock().unwrap();
            assert_eq!(ctrl.plan().victims().collect::<Vec<_>>(), vec![PartyId(3)]);
        }
    }

    #[test]
    fn fingerprint_separates_and_repeats() {
        let mut a = Fingerprint::new();
        a.write_str("ab");
        let mut b = Fingerprint::new();
        b.write_str("a");
        b.write_str("b");
        assert_ne!(a.finish(), b.finish(), "terminator separates strings");
        let mut c = Fingerprint::new();
        c.write_str("ab");
        assert_eq!(a.finish(), c.finish());
        let mut m = Metrics::default();
        m.sent = 3;
        let mut d = Fingerprint::new();
        d.write_metrics(&m);
        let mut e = Fingerprint::new();
        e.write_metrics(&m);
        assert_eq!(d.finish(), e.finish());
    }
}
