//! Adaptive adversary: mid-run corruption decisions driven by observed traffic.
//!
//! The paper's model grants the adversary *adaptive* corruption of up to t
//! parties: it watches the run and picks victims based on what it sees (e.g.
//! corrupt whoever the weak coin favors). What it sees is the flight
//! recorder's stream (see [`trace`](crate::trace)) and nothing else — there is
//! one account of a run, and the adversary reads the same one a trace file
//! holds. This module supplies the machinery:
//!
//! - [`CorruptionPlan`]: the victim ledger. Enforces the ≤ t distinct-victims
//!   cap; every refused corruption is counted so tests can assert the cap.
//! - [`AdaptiveAttack`]: the policy trait protocol crates implement and
//!   register under `corrupt=adaptive:<name>[:args]@*`. A policy is shown
//!   every [`TraceEvent::Deliver`] its engine records, in recording order —
//!   receiver, sender, session, no payload bytes — so its decisions are a
//!   pure function of `(seed, scenario string)`.
//! - [`AdaptiveShell`]: a wrapper instance deployed around every honest party.
//!   While the party is un-corrupted the shell is perfectly transparent; once
//!   the controller marks the party corrupted the shell switches to the
//!   selected byzantine behavior.
//! - `Observer`: the one sink a deterministic engine records into — the
//!   installed controller in front of the optional recorder.
//!
//! Policies live next to the protocols they attack and are registered in
//! an [`AttackRegistry`](crate::AttackRegistry): `coin-favorite` in
//! `aft-ba`, `core-candidates` in `aft-svss`, and the built-in
//! [`PinPolicy`], whose `corrupt=adaptive:pin:silent:3@*` runs
//! bit-identical to the static `corrupt=silent@3` on every stack, backend
//! and seed. A policy's *decisions* are backend-specific: `sim` shows it
//! each delivery as it happens, `sharded` an epoch's deliveries at the
//! barrier, so the conformance suite pins each backend's victims
//! absolutely rather than across backends.

use std::sync::{Arc, Mutex};

use rand::Rng;

use crate::behaviors::Garbage;
use crate::instance::{Context, Instance};
use crate::trace::{TraceEvent, TraceMode, TraceSink, TraceSummary};
use crate::{PartyId, PartySet, Payload, SessionTag};

/// What a corrupted party does once the adversary flips it.
#[derive(Debug, Clone, Copy)]
pub enum CorruptMode {
    /// Drop all activity: never deliver to the inner instance, send nothing.
    Mute,
    /// Spray per-recipient-distinct garbage on each activation, up to a
    /// lifetime budget of activations, then fall silent.
    Equivocate {
        /// Number of activations that spray garbage before going mute.
        budget: u64,
    },
    /// Keep one self-addressed garbage message in flight forever. The run can
    /// never quiesce: this is the search suite's planted bug.
    Storm,
}

/// The adversary's victim ledger: who is corrupted, in which mode, capped at
/// t distinct victims for the lifetime of the run (across episodes).
#[derive(Debug, Clone)]
pub struct CorruptionPlan {
    n: usize,
    t: usize,
    modes: Vec<Option<CorruptMode>>,
    victims: PartySet,
    refused: u64,
}

impl CorruptionPlan {
    /// Empty ledger for an `n`-party system tolerating `t` corruptions.
    pub fn new(n: usize, t: usize) -> Self {
        CorruptionPlan {
            n,
            t,
            modes: vec![None; n],
            victims: PartySet::new(),
            refused: 0,
        }
    }

    /// Record a statically-corrupted party (from the scenario's fault plan) so
    /// the adaptive cap accounts for it without assigning a shell mode.
    pub fn seed_victim(&mut self, party: PartyId) {
        if party.0 < self.n {
            self.victims.insert(party);
        }
    }

    /// Attempt to corrupt `party` in `mode`. Refused (returning `false`, and
    /// counted in [`refused`](Self::refused)) if the party id is out of range
    /// or the ledger already holds t distinct victims and `party` is not one
    /// of them. Re-corrupting an existing victim switches its mode.
    pub fn corrupt(&mut self, party: PartyId, mode: CorruptMode) -> bool {
        if party.0 >= self.n || (!self.victims.contains(party) && self.victims.len() >= self.t) {
            self.refused += 1;
            return false;
        }
        self.victims.insert(party);
        self.modes[party.0] = Some(mode);
        true
    }

    /// The mode `party` is corrupted in, if the adversary flipped it.
    pub fn mode_of(&self, party: PartyId) -> Option<CorruptMode> {
        self.modes.get(party.0).copied().flatten()
    }

    /// Whether `party` counts against the victim cap (static or adaptive).
    pub fn is_victim(&self, party: PartyId) -> bool {
        self.victims.contains(party)
    }

    /// All victims (static and adaptive), ascending.
    pub fn victims(&self) -> impl Iterator<Item = PartyId> + '_ {
        self.victims.iter()
    }

    /// How many corruption attempts the cap refused.
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Corruption budget.
    pub fn t(&self) -> usize {
        self.t
    }
}

/// An adaptive corruption policy.
///
/// Implementations observe the delivery stream and flip victims through the
/// [`CorruptionPlan`]; the plan enforces the t-cap so policies may fire
/// optimistically.
pub trait AdaptiveAttack: Send {
    /// Called once per protocol episode (e.g. `"svss-share"`, `"svss-rec"`)
    /// before parties are spawned.
    fn on_episode(&mut self, episode: &str, plan: &mut CorruptionPlan) {
        let _ = (episode, plan);
    }

    /// Called for every [`TraceEvent::Deliver`] the engine records, in
    /// recording order.
    fn observe(&mut self, ev: &TraceEvent, plan: &mut CorruptionPlan);
}

/// Pairs a policy with its victim ledger; shared between the engine (whose
/// sink shows it deliveries) and the per-party [`AdaptiveShell`]s (which read
/// modes).
pub struct AdaptiveController {
    policy: Box<dyn AdaptiveAttack>,
    plan: CorruptionPlan,
}

impl AdaptiveController {
    /// Build a controller around `policy` with ledger `plan`.
    pub fn new(policy: Box<dyn AdaptiveAttack>, plan: CorruptionPlan) -> Self {
        AdaptiveController { policy, plan }
    }

    /// Feed one recorded event to the policy.
    pub fn observe(&mut self, ev: &TraceEvent) {
        self.policy.observe(ev, &mut self.plan);
    }

    /// Announce a new episode to the policy.
    pub fn on_episode(&mut self, episode: &str) {
        self.policy.on_episode(episode, &mut self.plan);
    }

    /// Read access to the victim ledger.
    pub fn plan(&self) -> &CorruptionPlan {
        &self.plan
    }
}

/// Shared handle to the run's adaptive controller.
pub type SharedAdaptive = Arc<Mutex<AdaptiveController>>;

fn lock(ctrl: &SharedAdaptive) -> std::sync::MutexGuard<'_, AdaptiveController> {
    ctrl.lock().expect("adaptive controller lock poisoned")
}

/// The one sink a deterministic engine holds: the flight recorder
/// [`Runtime::set_trace`](crate::Runtime::set_trace) asked for, behind the
/// controller [`Runtime::install_adaptive`](crate::Runtime::install_adaptive)
/// installed — each optional. The controller is shown every `Deliver` on its
/// way to the recorder, so what the adversary observed is by construction
/// what a trace of the run says happened, in that order.
#[derive(Default)]
pub(crate) struct Observer {
    ctrl: Option<SharedAdaptive>,
    recorder: Option<Box<dyn TraceSink>>,
}

impl Observer {
    /// Whether anyone listens: engines build events only then.
    pub(crate) fn is_on(&self) -> bool {
        self.recorder.is_some() || self.ctrl.is_some()
    }

    /// The sink to record into, while anyone listens.
    pub(crate) fn active(&mut self) -> Option<&mut dyn TraceSink> {
        if self.is_on() {
            Some(self)
        } else {
            None
        }
    }

    pub(crate) fn set_trace(&mut self, mode: TraceMode) {
        self.recorder = mode.build();
    }

    pub(crate) fn take_trace(&mut self) -> Option<Box<dyn TraceSink>> {
        self.recorder.take()
    }

    pub(crate) fn install(&mut self, ctrl: SharedAdaptive) {
        self.ctrl = Some(ctrl);
    }

    pub(crate) fn controller(&self) -> Option<SharedAdaptive> {
        self.ctrl.clone()
    }

    /// The recorder's digest for a [`RunReport`](crate::RunReport).
    pub(crate) fn summary(&self) -> Option<TraceSummary> {
        self.recorder.as_deref().map(crate::trace::summarize)
    }
}

impl TraceSink for Observer {
    fn record(&mut self, event: TraceEvent) {
        if let (Some(ctrl), TraceEvent::Deliver { .. }) = (&self.ctrl, &event) {
            lock(ctrl).observe(&event);
        }
        if let Some(recorder) = &mut self.recorder {
            recorder.record(event);
        }
    }

    fn snapshot(&self) -> Vec<TraceEvent> {
        self.recorder
            .as_ref()
            .map_or_else(Vec::new, |r| r.snapshot())
    }

    fn recorded(&self) -> u64 {
        self.recorder.as_ref().map_or(0, |r| r.recorded())
    }
}

/// Wrapper deployed around every honest instance in an adaptive scenario.
///
/// Until the controller corrupts this party, every callback passes through to
/// the inner instance untouched — the shell draws no randomness and sends
/// nothing, so schedules are byte-identical to the shell-free run (the
/// differential conformance test pins this). Once corrupted, the inner
/// instance is cut off and the shell acts out the assigned [`CorruptMode`].
pub struct AdaptiveShell {
    inner: Box<dyn Instance>,
    ctrl: SharedAdaptive,
    me: PartyId,
    equiv_events: u64,
}

impl AdaptiveShell {
    /// Wrap `inner` (party `me`'s honest instance) under controller `ctrl`.
    pub fn new(inner: Box<dyn Instance>, ctrl: SharedAdaptive, me: PartyId) -> Self {
        AdaptiveShell {
            inner,
            ctrl,
            me,
            equiv_events: 0,
        }
    }

    fn mode(&self) -> Option<CorruptMode> {
        lock(&self.ctrl).plan().mode_of(self.me)
    }

    fn act(&mut self, mode: CorruptMode, ctx: &mut Context<'_>) {
        match mode {
            CorruptMode::Mute => {}
            CorruptMode::Equivocate { budget } => {
                if self.equiv_events < budget {
                    self.equiv_events += 1;
                    let base: u64 = ctx.rng().gen();
                    for p in ctx.parties() {
                        ctx.send(p, Garbage(base ^ (p.0 as u64).wrapping_mul(0x9E37)));
                    }
                }
            }
            CorruptMode::Storm => {
                let me = self.me;
                let noise: u64 = ctx.rng().gen();
                ctx.send(me, Garbage(noise));
            }
        }
    }
}

impl Instance for AdaptiveShell {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        match self.mode() {
            None => self.inner.on_start(ctx),
            Some(mode) => self.act(mode, ctx),
        }
    }

    fn on_message(&mut self, from: PartyId, payload: &Payload, ctx: &mut Context<'_>) {
        match self.mode() {
            None => self.inner.on_message(from, payload, ctx),
            Some(mode) => self.act(mode, ctx),
        }
    }

    fn on_child_output(&mut self, child: &SessionTag, output: &Payload, ctx: &mut Context<'_>) {
        match self.mode() {
            None => self.inner.on_child_output(child, output, ctx),
            Some(mode) => self.act(mode, ctx),
        }
    }
}

/// Built-in constant policy: corrupt a fixed target set in a fixed mode at
/// episode start, ignore all observations.
///
/// Grammar: `adaptive:pin:<mode>:<p1+p2+...>@*` with `<mode>` one of
/// `silent`/`mute`, `equivocate`, `storm`. With `mode=silent` this is
/// behaviorally identical to the static `silent@p` plan — the differential
/// conformance test uses that equivalence to prove the observation hook does
/// not perturb schedules.
pub struct PinPolicy {
    targets: Vec<PartyId>,
    mode: CorruptMode,
}

impl PinPolicy {
    /// Parse `"<mode>:<p1+p2+...>"` (the args after `adaptive:pin:`).
    pub fn parse(args: &str) -> Option<PinPolicy> {
        let (mode_str, parties) = args.split_once(':')?;
        let mode = match mode_str {
            "silent" | "mute" => CorruptMode::Mute,
            "equivocate" => CorruptMode::Equivocate {
                budget: crate::scenario::DEFAULT_EQUIVOCATE_BUDGET,
            },
            "storm" => CorruptMode::Storm,
            _ => return None,
        };
        let mut targets = Vec::new();
        for part in parties.split('+') {
            targets.push(PartyId(part.trim().parse().ok()?));
        }
        if targets.is_empty() {
            return None;
        }
        Some(PinPolicy { targets, mode })
    }
}

impl AdaptiveAttack for PinPolicy {
    fn on_episode(&mut self, _episode: &str, plan: &mut CorruptionPlan) {
        for &p in &self.targets {
            plan.corrupt(p, self.mode);
        }
    }

    fn observe(&mut self, _ev: &TraceEvent, _plan: &mut CorruptionPlan) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_enforces_t_cap() {
        let mut plan = CorruptionPlan::new(7, 2);
        assert!(plan.corrupt(PartyId(3), CorruptMode::Mute));
        assert!(plan.corrupt(PartyId(5), CorruptMode::Storm));
        assert!(!plan.corrupt(PartyId(1), CorruptMode::Mute));
        assert_eq!(plan.refused(), 1);
        // Re-corrupting an existing victim is allowed (mode switch).
        assert!(plan.corrupt(PartyId(3), CorruptMode::Equivocate { budget: 4 }));
        assert!(matches!(
            plan.mode_of(PartyId(3)),
            Some(CorruptMode::Equivocate { budget: 4 })
        ));
        assert_eq!(
            plan.victims().collect::<Vec<_>>(),
            vec![PartyId(3), PartyId(5)]
        );
    }

    #[test]
    fn static_victims_count_against_cap() {
        let mut plan = CorruptionPlan::new(4, 1);
        plan.seed_victim(PartyId(2));
        assert!(!plan.corrupt(PartyId(0), CorruptMode::Mute));
        assert_eq!(plan.refused(), 1);
        // The static victim itself may be escalated.
        assert!(plan.corrupt(PartyId(2), CorruptMode::Mute));
    }

    #[test]
    fn out_of_range_refused() {
        let mut plan = CorruptionPlan::new(4, 3);
        assert!(!plan.corrupt(PartyId(9), CorruptMode::Mute));
        assert_eq!(plan.refused(), 1);
    }

    #[test]
    fn observer_shows_the_policy_deliveries_and_the_recorder_everything() {
        /// Corrupts whoever it sees receive a message.
        struct StrikeReceivers;
        impl AdaptiveAttack for StrikeReceivers {
            fn observe(&mut self, ev: &TraceEvent, plan: &mut CorruptionPlan) {
                let TraceEvent::Deliver { party, .. } = ev else {
                    panic!("shown {ev:?}");
                };
                plan.corrupt(*party, CorruptMode::Mute);
            }
        }
        let deliver = |party| TraceEvent::Deliver {
            step: 1,
            party: PartyId(party),
            from: PartyId(1),
            session: crate::SessionId::root(),
            seq: 0,
            vtime: None,
        };
        let mut observer = Observer::default();
        assert!(observer.active().is_none(), "nobody listens");
        let ctrl = Arc::new(Mutex::new(AdaptiveController::new(
            Box::new(StrikeReceivers),
            CorruptionPlan::new(4, 4),
        )));
        observer.install(ctrl.clone());
        // The controller alone keeps the sink on: it observes untraced runs.
        let sink = observer.active().expect("a controller listens");
        sink.record(deliver(2));
        observer.set_trace(TraceMode::Full);
        let sink = observer.active().expect("both listen");
        sink.record(TraceEvent::EpisodeStart { step: 1 });
        sink.record(deliver(0));
        let victims: Vec<PartyId> = lock(&ctrl).plan().victims().collect();
        assert_eq!(victims, [PartyId(0), PartyId(2)]);
        assert_eq!(observer.summary().map(|s| s.recorded), Some(2));
        let recorder = observer.take_trace().expect("tracing on");
        assert_eq!(
            recorder.snapshot(),
            [TraceEvent::EpisodeStart { step: 1 }, deliver(0)]
        );
        assert!(observer.summary().is_none() && observer.is_on());
        assert!(observer.controller().is_some());
    }

    #[test]
    fn a_shell_is_not_retired_by_the_instance_it_wraps() {
        /// Answers its first message, then retires: it has nothing left.
        struct OneShot {
            spent: bool,
        }
        impl Instance for OneShot {
            fn on_start(&mut self, _ctx: &mut Context<'_>) {}
            fn on_message(&mut self, from: PartyId, _p: &Payload, ctx: &mut Context<'_>) {
                if !self.spent {
                    self.spent = true;
                    ctx.send(from, 1u64);
                    ctx.retire::<u64>(self);
                }
            }
        }
        let ctrl: SharedAdaptive = Arc::new(Mutex::new(AdaptiveController::new(
            Box::new(PinPolicy::parse("storm:1").expect("a policy")),
            CorruptionPlan::new(4, 1),
        )));
        let me = PartyId(1);
        let sid = crate::SessionId::root().child(SessionTag::new("shell", 0));
        let mut node = crate::party_node(&crate::NetConfig::new(4, 1, 3), me.0);
        let inner = Box::new(OneShot { spent: false });
        node.spawn(
            sid.clone(),
            Box::new(AdaptiveShell::new(inner, ctrl.clone(), me)),
        );
        let mut out = Vec::new();
        node.deliver(PartyId(0), sid.clone(), Payload::new(7u64), &mut out);
        assert_eq!(out.len(), 1, "the honest instance answered");
        assert_eq!(node.retired_count(), 0, "its retirement named its own type");
        // The adversary strikes after the inner instance is spent: the
        // shell is still in place to act out the corruption.
        lock(&ctrl).on_episode("later");
        out.clear();
        node.deliver(PartyId(0), sid, Payload::new(7u64), &mut out);
        assert_eq!(out.len(), 1, "a storming shell keeps one message in flight");
        assert_eq!(out[0].to, me);
        assert!(out[0].payload.view::<Garbage>().is_some());
    }

    #[test]
    fn pin_parse() {
        let p = PinPolicy::parse("silent:3").unwrap();
        assert_eq!(p.targets, vec![PartyId(3)]);
        assert!(matches!(p.mode, CorruptMode::Mute));
        let p = PinPolicy::parse("storm:1+2").unwrap();
        assert_eq!(p.targets, vec![PartyId(1), PartyId(2)]);
        assert!(matches!(p.mode, CorruptMode::Storm));
        assert!(PinPolicy::parse("storm:").is_none());
        assert!(PinPolicy::parse("loud:1").is_none());
        assert!(PinPolicy::parse("storm").is_none());
    }
}
