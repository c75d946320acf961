//! The deterministic asynchronous network simulator.
//!
//! What happens *at* a party — dispatch, the accounting of a delivery, the
//! counting, numbering and recording of its sends — is that party's
//! [`PartyHost`], and the hosts, waiting spawns, recorder, scheduled
//! recoveries and step clock are the parties' front every engine holds
//! alike. What this engine owns is the rest: the one in-flight queue, the
//! scheduler and its RNG, the fairness cap, the byte codec (`rt=wire`),
//! the event loop (`rt=async`) and the loop that steps them — stamping
//! envelopes with the step they are born at and recording `SchedulerPick`.

use crate::adaptive::Observer;
use crate::async_rt::EventLoop;
use crate::ids::{PartyId, SessionId};
use crate::instance::Instance;
use crate::node::Outgoing;
use crate::payload::Payload;
use crate::queue::{BatchSlot, Parcel, Pending};
use crate::runtime::{
    Metrics, NetConfig, Parties, PartyHost, RecoverPhase, RunReport, Runtime, StopReason,
};
use crate::scheduler::{Scheduler, MAX_AGE};
use crate::trace::{TraceEvent, TraceSink};
use crate::wire_rt::WireLink;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// An in-flight message.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sender.
    pub from: PartyId,
    /// Receiver.
    pub to: PartyId,
    /// Destination session.
    pub session: SessionId,
    /// Body.
    pub payload: Payload,
    /// The sender's number for it: `emit·n + from` for the sender's
    /// `emit`-th send — unique across parties, ascending per sender, and
    /// the same on every backend (see [`PartyHost::drain_sends`]).
    pub seq: u64,
    /// Engine step at which the envelope was sent.
    pub born_step: u64,
}

/// One thing a party does that can make it send.
pub(crate) enum Act {
    /// Start an instance at a session; what it sends are causal roots.
    Spawn(SessionId, Box<dyn Instance>),
    /// Deliver an envelope, at the virtual time the scheduler's clock
    /// reads, if it keeps one.
    Deliver(Envelope, Option<u64>),
}

/// The party's half of a [`SimNetwork`] step, wherever its host runs:
/// performs `act` on `host` and hands what it sent on through
/// [`PartyHost::drain_sends`], grouped by destination — a stable sort, so
/// per destination in emission order — and numbered in that order, so a
/// multi-send becomes one batch per destination in the in-flight queue.
pub(crate) fn perform(
    host: &mut PartyHost,
    act: Act,
    out: &mut Vec<Outgoing>,
    mut sink: Option<&mut dyn TraceSink>,
    hand_on: impl FnMut(u64, Outgoing),
) {
    let causal = match act {
        Act::Spawn(session, instance) => {
            host.spawn(session, instance, out);
            None
        }
        Act::Deliver(env, vtime) => {
            host.deliver(env, vtime, sink.as_deref_mut(), out);
            Some(host.metrics().steps)
        }
    };
    // Multi-sends already emit in ascending destination order; the scan
    // skips the stable sort (and its temp allocation) then.
    if !out.is_sorted_by_key(|o| o.to.0) {
        out.sort_by_key(|o| o.to.0);
    }
    host.drain_sends(out, causal, sink, hand_on);
}

/// The deterministic discrete-event network: `n` parties, a slab of
/// in-flight envelopes, and a [`Scheduler`] choosing the delivery order.
///
/// A run is a pure function of `(NetConfig, spawned instances, scheduler)`,
/// which is what makes Monte-Carlo estimation over seeds meaningful and
/// every failure replayable.
///
/// `SimNetwork` implements [`Runtime`], so deployments written against the
/// trait run identically here and on the [`ThreadedRuntime`]; the inherent
/// methods additionally expose simulator-only power (step-by-step
/// execution, mid-run inspection).
///
/// The engine also hosts two more `rt=` names (see
/// [`backend`](crate::backend)), each a construction-time setting that
/// leaves the schedule bit-for-bit alone: `wire` encodes every send
/// with the byte codec and queues only what decodes from a copy of those
/// bytes, and `async` has a run move the party hosts onto per-party
/// event-loop tasks for its duration.
///
/// [`ThreadedRuntime`]: crate::ThreadedRuntime
///
/// # Examples
///
/// ```
/// use aft_sim::{Context, Instance, NetConfig, PartyId, Payload, RandomScheduler, Runtime,
///               SessionId, SessionTag, SimNetwork};
///
/// /// Every party greets everyone; a party outputs when it heard n greetings.
/// struct Hello { heard: usize }
/// impl Instance for Hello {
///     fn on_start(&mut self, ctx: &mut Context<'_>) { ctx.send_all(1u8); }
///     fn on_message(&mut self, _f: PartyId, _p: &Payload, ctx: &mut Context<'_>) {
///         self.heard += 1;
///         if self.heard == ctx.n() { ctx.output(self.heard); }
///     }
/// }
///
/// let mut net = SimNetwork::new(NetConfig::new(4, 1, 7), Box::new(RandomScheduler));
/// let sid = SessionId::root().child(SessionTag::new("hello", 0));
/// for p in 0..4 {
///     net.spawn(PartyId(p), sid.clone(), Box::new(Hello { heard: 0 }));
/// }
/// let report = net.run(100_000);
/// assert_eq!(report.stop, aft_sim::StopReason::Quiescent);
/// for p in 0..4 {
///     assert_eq!(net.output(PartyId(p), &sid).unwrap().downcast_ref::<usize>(), Some(&4));
/// }
/// ```
pub struct SimNetwork {
    /// The parties — their hosts on the event loop instead while an
    /// `rt=async` run is in progress (see `tasks`) — and the step clock.
    parties: Parties,
    pending: Pending,
    scheduler: Box<dyn Scheduler>,
    /// Whether the scheduler keeps a virtual clock. A clocked scheduler
    /// is fair by construction (every arrival time is finite and the
    /// earliest goes first), and a cap-forced delivery would bypass its
    /// clock — landing before the envelope's own arrival time and
    /// through an un-healed partition — so the fairness cap is off.
    clocked: bool,
    /// Picks the fairness cap made instead of the scheduler.
    cap_forced: u64,
    sched_rng: ChaCha12Rng,
    /// Where the acting party's sends wait to be numbered and queued
    /// (empty between steps).
    out: Vec<Outgoing>,
    /// When present, every send crosses the byte-level wire boundary
    /// before it is queued (`rt=wire`).
    codec: Option<WireLink>,
    /// Whether a run hosts the parties on an event loop (`rt=async`).
    event_loop: bool,
    /// The event loop, for the duration of an `rt=async` run: it holds
    /// the hosts, and every act at a party is a round-trip to that party's
    /// task; scheduling, the queue and the recorder stay here, so the step
    /// sequence is bit-for-bit the same with and without it.
    tasks: Option<EventLoop>,
}

impl SimNetwork {
    /// Creates a network of `config.n` fresh parties.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n < 3t + 1` (the resilience bound assumed by
    /// every protocol in this workspace).
    pub fn new(config: NetConfig, scheduler: Box<dyn Scheduler>) -> Self {
        SimNetwork::named(config, scheduler, "sim")
    }

    /// [`SimNetwork::new`], reporting itself as `label`.
    pub(crate) fn named(
        config: NetConfig,
        mut scheduler: Box<dyn Scheduler>,
        label: &'static str,
    ) -> Self {
        let parties = Parties::new(config, label, true);
        scheduler.configure(&config);
        SimNetwork {
            parties,
            pending: Pending::new(),
            clocked: scheduler.virtual_now().is_some(),
            cap_forced: 0,
            scheduler,
            sched_rng: ChaCha12Rng::seed_from_u64(config.seed.wrapping_add(0xC0FF_EE00)),
            out: Vec::new(),
            codec: None,
            event_loop: false,
            tasks: None,
        }
    }

    /// A network reporting itself as `label` whose envelopes cross the
    /// `wire_rt` byte boundary — encoded, handed over as bytes, lazily
    /// decoded — the engine behind `rt=wire`.
    pub(crate) fn with_codec(
        config: NetConfig,
        scheduler: Box<dyn Scheduler>,
        label: &'static str,
    ) -> Self {
        let mut net = SimNetwork::named(config, scheduler, label);
        net.codec = Some(WireLink::new(config.n));
        net
    }

    /// A network reporting itself as `label` whose runs host the parties
    /// on per-party event-loop tasks — the engine behind `rt=async`.
    pub(crate) fn on_event_loop(
        config: NetConfig,
        scheduler: Box<dyn Scheduler>,
        label: &'static str,
    ) -> Self {
        let mut net = SimNetwork::named(config, scheduler, label);
        net.event_loop = true;
        net
    }

    /// Starts the waiting spawns, in call order.
    fn start_spawns(&mut self) {
        if self.parties.spawns.is_empty() {
            return;
        }
        for (party, session, instance) in std::mem::take(&mut self.parties.spawns) {
            self.act(party, Act::Spawn(session, instance));
        }
    }

    /// The number of in-flight envelopes.
    pub fn pending_len(&self) -> usize {
        self.pending.messages()
    }

    /// How many picks the fairness cap ([`MAX_AGE`]) made instead of the
    /// scheduler, over this network's life (diagnostics: not in
    /// [`Metrics`] or any fingerprint).
    pub fn cap_forced_picks(&self) -> u64 {
        self.cap_forced
    }

    /// Starts the waiting spawns, then delivers the scheduler's next pick
    /// — one same-`(src, dst)` batch run in FIFO order, subject to the
    /// fairness cap. Returns `false` when nothing is pending.
    ///
    /// Delivering the run whole is what keeps the scheduler machinery
    /// (RNG draw, Fenwick lookup, random slab access) at O(batches)
    /// rather than O(messages); scheduling granularity is the batch,
    /// delivery accounting stays per-message.
    pub fn step(&mut self) -> bool {
        self.start_spawns();
        self.step_bounded(u64::MAX) > 0
    }

    /// [`step`](SimNetwork::step), with the run truncated to at most
    /// `limit` messages (exact step budgets). Returns the number
    /// delivered — `0` means nothing was pending (or `limit == 0`).
    fn step_bounded(&mut self, limit: u64) -> u64 {
        if limit == 0 {
            return 0;
        }
        self.fire_recoveries(false);
        let Some((slot, run)) = self.pick_next() else {
            return 0;
        };
        // The pick advanced the virtual clock (when there is one): the
        // whole batch run arrives at this virtual time.
        let vnow = self.scheduler.virtual_now();
        let run = run.min(limit);
        if let Some(sink) = self.parties.sink.active() {
            sink.record(TraceEvent::SchedulerPick {
                step: self.parties.steps,
                party: self.pending.meta_of_slot(slot).to,
                queued: self.pending.len(),
                run: run as usize,
            });
        }
        self.drain_net_events_to_sink();
        for _ in 0..run {
            let env = self.pending.take_slot(slot);
            self.parties.steps += 1;
            self.act(env.to, Act::Deliver(env, vnow));
        }
        run
    }

    /// Starts the waiting spawns, then runs until quiescence, the step
    /// budget, or `stop(self)` returning `true` (checked after every
    /// scheduler pick, i.e. every delivered batch run). On `rt=async` the
    /// parties are on the event loop while `stop` looks: it can read the
    /// queue, not them.
    pub fn run_until<F: FnMut(&SimNetwork) -> bool>(
        &mut self,
        max_steps: u64,
        mut stop: F,
    ) -> RunReport {
        self.start_spawns();
        if self.event_loop {
            // Once per run, never per delivery: the hosts move onto the
            // event loop, and come back so that outputs are readable
            // between runs.
            self.tasks = Some(EventLoop::new(std::mem::take(&mut self.parties.hosts)));
        }
        let start = self.parties.steps;
        self.parties.episode_start();
        let reason = loop {
            let remaining = max_steps - (self.parties.steps - start);
            if remaining == 0 {
                break StopReason::StepLimit;
            }
            if self.step_bounded(remaining) == 0 {
                if self.fire_recoveries(true) {
                    continue;
                }
                break StopReason::Quiescent;
            }
            if stop(self) {
                break StopReason::Predicate;
            }
        };
        if let Some(tasks) = self.tasks.take() {
            self.parties.hosts = tasks.finish();
        }
        let metrics = self.metrics();
        self.parties.episode_end(reason, metrics)
    }

    /// Performs `act` at `party` — on its host, or on its event-loop task
    /// — and puts what the party sent in flight, born at the current step:
    /// straight into the queue, or on `rt=wire` across the byte boundary
    /// first.
    fn act(&mut self, party: PartyId, act: Act) {
        let SimNetwork {
            parties,
            tasks,
            pending,
            codec,
            out,
            ..
        } = self;
        let Parties {
            hosts, sink, steps, ..
        } = parties;
        let born_step = *steps;
        let mut push = |to: PartyId, seq: u64, session: SessionId, payload: Payload| {
            let parcel = Parcel {
                session,
                payload,
                seq,
                born_step,
            };
            pending.push_parcel(party, to, parcel);
        };
        // One hand-on per mode rather than a match per send: the match
        // cost a cold `fba-n4-wire` execution 0.7 % of its CPU time.
        match codec {
            None => at_party(hosts, tasks, sink, out, party, act, |seq, o: Outgoing| {
                push(o.to, seq, o.session, o.payload)
            }),
            Some(link) => {
                at_party(hosts, tasks, sink, out, party, act, |seq, o| {
                    link.send(party, seq, o)
                });
                link.flush(push);
            }
        }
    }

    /// Applies the recovery phases that are due on the scheduler's virtual
    /// clock (see [`Recoveries::due`]). With `force` — out of traffic with
    /// recoveries still scheduled — the clock first jumps to the last
    /// plan's horizon and everything fires; each forcing empties the
    /// plans, so the caller's loop terminates. Returns whether anything
    /// fired.
    fn fire_recoveries(&mut self, force: bool) -> bool {
        let recoveries = &mut self.parties.recoveries;
        if recoveries.is_empty() {
            return false;
        }
        if force {
            self.scheduler.fast_forward(recoveries.horizon());
        }
        let scheduler = &self.scheduler;
        let phases = recoveries.due(|_| scheduler.virtual_now(), force);
        let fired = !phases.is_empty();
        for phase in phases {
            match phase {
                RecoverPhase::Revive { party, at, session } => {
                    match &mut self.tasks {
                        Some(tasks) => tasks.revive(party, &session),
                        None => self.parties.hosts[party.0].revive(&session),
                    }
                    self.parties.revived(party, at);
                }
                RecoverPhase::Respawn {
                    party,
                    session,
                    instance,
                } => self.act(party, Act::Spawn(session, instance)),
            }
        }
        if force {
            self.drain_net_events_to_sink();
        }
        fired
    }

    /// Forwards the scheduler's queued partition lifecycle events to the
    /// flight recorder (observational only; the scheduler queues at most
    /// one start and one heal per run).
    fn drain_net_events_to_sink(&mut self) {
        let Some(sink) = self.parties.sink.active() else {
            return;
        };
        let mut events = Vec::new();
        self.scheduler.drain_net_events(&mut events);
        for e in events {
            sink.record(e.traced(self.parties.steps));
        }
    }

    /// Applies the fairness cap (order-only schedulers), then the
    /// scheduler. Returns the stable handle of the picked batch and the
    /// length of its run.
    fn pick_next(&mut self) -> Option<(BatchSlot, u64)> {
        if self.pending.is_empty() {
            return None;
        }
        let now = self.parties.steps;
        // The queue mirrors the oldest batch's birth step inline, so the
        // per-pick age check costs a field read, not a slab access.
        let slot = if !self.clocked && now.saturating_sub(self.pending.head_born_step()) > MAX_AGE {
            self.cap_forced += 1;
            self.pending.slot_of(0)
        } else {
            self.scheduler.pick_slot(&self.pending, &mut self.sched_rng)
        };
        let run = self.pending.run_len_of_slot(slot) as u64;
        Some((slot, run))
    }
}

/// Performs `act` at `party` — on its host, or on its event-loop task —
/// handing each numbered send to `hand_on`.
fn at_party(
    hosts: &mut [PartyHost],
    tasks: &mut Option<EventLoop>,
    sink: &mut Observer,
    out: &mut Vec<Outgoing>,
    party: PartyId,
    act: Act,
    mut hand_on: impl FnMut(u64, Outgoing),
) {
    match tasks {
        None => perform(&mut hosts[party.0], act, out, sink.active(), hand_on),
        Some(tasks) => {
            let (sends, events) = tasks.perform(party, act, sink.is_on());
            if let Some(sink) = sink.active() {
                events.into_iter().for_each(|event| sink.record(event));
            }
            sends.into_iter().for_each(|(seq, o)| hand_on(seq, o));
        }
    }
}

impl Runtime for SimNetwork {
    fn parties(&self) -> &Parties {
        &self.parties
    }

    fn parties_mut(&mut self) -> &mut Parties {
        &mut self.parties
    }

    fn run(&mut self, max_steps: u64) -> RunReport {
        self.run_until(max_steps, |_| false)
    }

    /// Every party's metrics, merged in party order, with the byte
    /// boundary's `wire_*` counters and the in-flight queue's run-pool
    /// counters folded in.
    fn metrics(&self) -> Metrics {
        let mut m = self.parties.host_metrics();
        if let Some(link) = &self.codec {
            m.merge(&link.metrics);
        }
        let (reused, added) = self.pending.pool_stats();
        m.pool_reused += reused;
        m.pool_alloc += added;
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SessionTag;
    use crate::instance::Context;
    use crate::runtime::RuntimeExt;
    use crate::scheduler::{FifoScheduler, LifoScheduler, RandomScheduler};
    use crate::trace::TraceMode;

    fn sid() -> SessionId {
        SessionId::root().child(SessionTag::new("t", 0))
    }

    /// Flood: every party sends `rounds` waves of pings; outputs when it
    /// received `n * rounds` pings.
    struct Flood {
        rounds: u32,
        sent: u32,
        heard: usize,
    }
    impl Flood {
        fn new(rounds: u32) -> Self {
            Flood {
                rounds,
                sent: 0,
                heard: 0,
            }
        }
    }
    impl Instance for Flood {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.sent = 1;
            ctx.send_all(0u32);
        }
        fn on_message(&mut self, _f: PartyId, _p: &Payload, ctx: &mut Context<'_>) {
            self.heard += 1;
            if self.heard.is_multiple_of(ctx.n()) && self.sent < self.rounds {
                self.sent += 1;
                ctx.send_all(self.sent);
            }
            if self.heard == ctx.n() * self.rounds as usize {
                ctx.output(self.heard);
            }
        }
    }

    fn flood_net(seed: u64, sched: Box<dyn Scheduler>) -> SimNetwork {
        let mut net = SimNetwork::new(NetConfig::new(4, 1, seed), sched);
        for p in 0..4 {
            net.spawn(PartyId(p), sid(), Box::new(Flood::new(3)));
        }
        net
    }

    #[test]
    fn flood_reaches_quiescence_under_all_schedulers() {
        for sched in [
            Box::new(FifoScheduler) as Box<dyn Scheduler>,
            Box::new(RandomScheduler),
            Box::new(LifoScheduler),
        ] {
            let mut net = flood_net(3, sched);
            let report = net.run(1_000_000);
            assert_eq!(report.stop, StopReason::Quiescent);
            for p in 0..4 {
                assert_eq!(
                    net.output_as::<usize>(PartyId(p), &sid()),
                    Some(&12),
                    "party {p}"
                );
            }
        }
    }

    #[test]
    fn deterministic_replay_same_seed() {
        let trace = |seed| {
            let mut net = flood_net(seed, Box::new(RandomScheduler));
            net.set_trace(TraceMode::Full);
            net.run(1_000_000);
            net.take_trace().expect("tracing on").snapshot()
        };
        assert_eq!(trace(9), trace(9));
        assert_ne!(trace(9), trace(10), "different seeds should differ");
    }

    #[test]
    fn crash_suppresses_party() {
        let mut net = flood_net(1, Box::new(RandomScheduler));
        net.crash(PartyId(3));
        let report = net.run(1_000_000);
        assert_eq!(report.stop, StopReason::Quiescent);
        // The crashed party never outputs; others can't finish all rounds
        // (they need n*rounds pings but P3 is silent) — but no deadlock:
        // quiescence is reached.
        assert!(net.output(PartyId(3), &sid()).is_none());
        assert!(report.metrics.dropped_crashed > 0);
    }

    #[test]
    fn spawns_start_with_the_next_step_and_a_crash_before_it_starts_nothing() {
        // 4 Flood(1) broadcasters wait for the first step; crashing P3
        // before it keeps P3 from starting, as on every engine.
        let mut net = flood_net(1, Box::new(RandomScheduler));
        assert_eq!((net.metrics().sent, net.pending_len()), (0, 0));
        net.crash(PartyId(3));
        assert!(net.step());
        assert_eq!(net.metrics().sent, 12, "P3 never started");
        assert_eq!(net.metrics().sent_by_kind("t"), 12);
        let report = net.run(1_000_000);
        assert_eq!(report.stop, StopReason::Quiescent);
        assert_eq!(report.metrics.dropped_crashed, 3, "deliveries to P3");
    }

    #[test]
    fn a_crash_between_runs_stops_the_party_mid_protocol() {
        let mut net = flood_net(1, Box::new(FifoScheduler));
        assert_eq!(net.run(4).stop, StopReason::StepLimit);
        let sent = net.metrics().sent;
        net.crash(PartyId(2));
        assert_eq!(net.metrics().sent, sent, "a crash keeps what was sent");
        let report = net.run(1_000_000);
        assert_eq!(report.stop, StopReason::Quiescent);
        assert!(net.node(PartyId(2)).is_crashed());
        assert!(net.output(PartyId(2), &sid()).is_none());
        assert!(report.metrics.dropped_crashed > 0);
    }

    #[test]
    fn step_limit_stops_runaway() {
        let mut net = flood_net(1, Box::new(RandomScheduler));
        let report = net.run(3);
        assert_eq!(report.stop, StopReason::StepLimit);
        assert_eq!(report.steps, 3);
    }

    #[test]
    fn metrics_count_sends_and_deliveries() {
        let mut net = flood_net(1, Box::new(FifoScheduler));
        let report = net.run(1_000_000);
        assert!(report.metrics.sent >= 48, "3 waves * 4 parties * 4 dests");
        assert_eq!(
            report.metrics.sent,
            report.metrics.delivered
                + report.metrics.dropped_shunned
                + report.metrics.dropped_crashed
                + net.pending_len() as u64
        );
        assert_eq!(report.metrics.sent_by_kind("t"), report.metrics.sent);
        assert_eq!(report.metrics.sent_by_kind("nope"), 0);
    }

    #[test]
    fn fairness_cap_forces_starved_delivery() {
        // LIFO would starve the first message forever without the cap.
        struct OneShot;
        impl Instance for OneShot {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send(PartyId(1), 1u8);
            }
            fn on_message(&mut self, _f: PartyId, _p: &Payload, ctx: &mut Context<'_>) {
                ctx.output(1u8);
            }
        }
        /// Keeps the network busy with self-traffic.
        struct Chatter {
            left: u32,
        }
        impl Instance for Chatter {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let me = ctx.me();
                ctx.send(me, 0u8);
            }
            fn on_message(&mut self, _f: PartyId, _p: &Payload, ctx: &mut Context<'_>) {
                if self.left > 0 {
                    self.left -= 1;
                    let me = ctx.me();
                    ctx.send(me, 0u8);
                }
            }
        }
        let mut net = SimNetwork::new(NetConfig::new(4, 1, 1), Box::new(LifoScheduler));
        let s_victim = SessionId::root().child(SessionTag::new("victim", 0));
        let s_noise = SessionId::root().child(SessionTag::new("noise", 0));
        net.spawn(PartyId(0), s_victim.clone(), Box::new(OneShot));
        net.spawn(PartyId(1), s_victim.clone(), Box::new(OneShot));
        net.spawn(
            PartyId(2),
            s_noise.clone(),
            Box::new(Chatter { left: 10_000 }),
        );
        let report = net.run(20_000);
        // Despite LIFO + endless chatter, the victim's message must deliver
        // within the aging cap.
        assert!(
            net.output(PartyId(1), &s_victim).is_some(),
            "fairness cap failed: {report:?}"
        );
    }

    #[test]
    fn output_as_downcasts() {
        let mut net = flood_net(2, Box::new(FifoScheduler));
        net.run(1_000_000);
        assert_eq!(net.output_as::<usize>(PartyId(0), &sid()), Some(&12));
        assert_eq!(net.output_as::<u64>(PartyId(0), &sid()), None);
    }

    #[test]
    fn runtime_trait_drives_the_simulator() {
        let mut rt: Box<dyn Runtime> = Box::new(SimNetwork::new(
            NetConfig::new(4, 1, 3),
            Box::new(RandomScheduler),
        ));
        for p in 0..4 {
            rt.spawn(PartyId(p), sid(), Box::new(Flood::new(3)));
        }
        let report = rt.run(1_000_000);
        assert_eq!(report.stop, StopReason::Quiescent);
        assert_eq!(rt.backend_name(), "sim");
        for p in 0..4 {
            assert_eq!(rt.output_as::<usize>(PartyId(p), &sid()), Some(&12));
        }
        assert_eq!(rt.metrics().sent, report.metrics.sent);
    }
}
