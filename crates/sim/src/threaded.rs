//! The threaded runtime: the same [`Instance`] protocol code running over
//! real OS threads and channels instead of the deterministic simulator.
//!
//! Each party is one thread driving its [`PartyHost`] — the per-party half
//! of a delivery every message-passing host shares: dispatch, shunning,
//! crash handling, accounting, send numbering — from the receiving end of
//! its inbox, an unbounded `std::sync::mpsc` channel made anew for every
//! episode. The hosts, waiting spawns, recorder and step clock are the
//! parties' front every engine holds alike; what is this engine's own is
//! the channels and who fills them, and sharing the recorder behind a
//! mutex while a run is in progress.
//! Delivery order is whatever the OS scheduler produces — a genuinely
//! asynchronous (if benign) network. The runtime exists to demonstrate
//! that the protocol implementations are not simulator-bound;
//! quantitative experiments use [`SimNetwork`] for determinism and
//! adversarial scheduling.
//!
//! **Hosts persist across episodes** (matching the simulator and the
//! sharded backend): each [`run`](Runtime::run) call lends the long-lived
//! hosts to the worker threads, so multi-phase deployments — SVSS
//! share→reconstruct chains, shunning campaigns that interleave spawns and
//! runs — carry session state, outputs, shun registries, metrics and send
//! numbers from one episode to the next.
//!
//! Termination is exact and needs no clock. A global in-flight counter is
//! incremented by every send and decremented by every completed delivery;
//! once every party finished its spawn phase and the counter reads zero
//! there are no messages anywhere (channels are empty and no handler is
//! running). Each of those two things happens last for exactly one worker
//! — the one whose decrement reaches zero, or the one that finishes
//! spawning into an idle system — and that worker wakes every inbox with a
//! stop message; everyone else is blocked in `recv()` until then.
//!
//! [`SimNetwork`]: crate::SimNetwork

use crate::adaptive::Observer;
use crate::ids::SessionId;
use crate::instance::Instance;
use crate::network::Envelope;
use crate::node::Outgoing;
use crate::runtime::{Metrics, NetConfig, Parties, PartyHost, RunReport, Runtime, StopReason};
use crate::trace::TraceSink;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, MutexGuard};

/// What a worker finds in its inbox.
enum Wire {
    /// An envelope, numbered by its sender (see
    /// [`PartyHost::drain_sends`]); no engine step stamps its birth.
    Envelope(Envelope),
    /// The episode is over; sent to every inbox at once.
    Stop,
}

/// The buffered spawns of one party.
type Spawns = Vec<(SessionId, Box<dyn Instance>)>;

/// The recorder as the workers share it.
type SharedSink = Mutex<Observer>;

/// Shared bookkeeping for one threaded episode.
struct Episode {
    /// Every party's inbox, sending side.
    inboxes: Vec<Sender<Wire>>,
    in_flight: AtomicI64,
    /// Workers that completed their spawn phase (quiescence requires all).
    started: AtomicUsize,
    /// Total deliveries across all workers, for the step budget.
    steps: AtomicU64,
    limit_hit: AtomicBool,
    max_steps: u64,
}

impl Episode {
    fn stop_all(&self) {
        for inbox in &self.inboxes {
            // A worker that is gone needs no waking.
            let _ = inbox.send(Wire::Stop);
        }
    }

    /// A worker finished its spawn phase. `SeqCst` orders this against
    /// [`settled`](Episode::settled): of the last worker to start and the
    /// last envelope to settle, whichever comes second sees the other.
    fn spawned(&self) {
        if self.started.fetch_add(1, Ordering::SeqCst) + 1 == self.inboxes.len()
            && self.in_flight.load(Ordering::SeqCst) == 0
        {
            self.stop_all();
        }
    }

    /// An envelope was dealt with, its sends already counted in flight.
    fn settled(&self) {
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) == 1
            && self.started.load(Ordering::SeqCst) == self.inboxes.len()
        {
            self.stop_all();
        }
    }
}

/// Unwind guard: ends the episode if its worker dies before reaching the
/// normal exit (i.e. unwinds through a protocol panic). A dead worker
/// never settles what is in its inbox, so the count would never reach
/// zero and the survivors would wait forever instead of letting the panic
/// propagate.
struct PoisonOnUnwind<'a> {
    episode: &'a Episode,
    disarmed: bool,
}

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if !self.disarmed {
            self.episode.stop_all();
        }
    }
}

/// The shared recorder, locked for one delivery or one drain.
type LockedSink<'a> = Option<MutexGuard<'a, Observer>>;

fn lock(sink: Option<&SharedSink>) -> LockedSink<'_> {
    sink.map(|shared| shared.lock().expect("trace sink poisoned"))
}

/// The locked recorder as the sink a [`PartyHost`] records into.
fn as_sink<'a>(locked: &'a mut LockedSink<'_>) -> Option<&'a mut dyn TraceSink> {
    locked.as_deref_mut().map(|sink| sink as &mut dyn TraceSink)
}

/// Hands the sends waiting in `out` to their inboxes. Each `Send` event
/// is in the shared sink before its envelope is in the channel, so no
/// `Deliver` can be recorded ahead of it.
fn route(
    host: &mut PartyHost,
    out: &mut Vec<Outgoing>,
    causal: Option<u64>,
    episode: &Episode,
    sink: Option<&SharedSink>,
) {
    let from = host.node().id();
    let mut sink = lock(sink);
    host.drain_sends(out, causal, as_sink(&mut sink), |seq, o| {
        episode.in_flight.fetch_add(1, Ordering::SeqCst);
        // Only a worker that panicked has dropped its inbox.
        let _ = episode.inboxes[o.to.0].send(Wire::Envelope(Envelope {
            from,
            to: o.to,
            session: o.session,
            payload: o.payload,
            seq,
            born_step: 0,
        }));
    });
}

/// One party's thread for one episode: starts the buffered instances,
/// then serves the inbox until the stop message.
fn work(
    host: &mut PartyHost,
    spawns: Spawns,
    inbox: Receiver<Wire>,
    episode: &Episode,
    sink: Option<&SharedSink>,
) {
    let mut guard = PoisonOnUnwind {
        episode,
        disarmed: false,
    };
    let mut out = Vec::new();
    for (session, instance) in spawns {
        host.spawn(session, instance, &mut out);
    }
    // Spawn-phase sends are causal-DAG roots.
    route(host, &mut out, None, episode, sink);
    episode.spawned();
    while let Ok(Wire::Envelope(env)) = inbox.recv() {
        if episode.steps.fetch_add(1, Ordering::SeqCst) >= episode.max_steps {
            // Budget exhausted: drain without processing so the system
            // still quiesces.
            episode.limit_hit.store(true, Ordering::SeqCst);
        } else {
            host.deliver(env, None, as_sink(&mut lock(sink)), &mut out);
            // Emissions are caused by the delivery that just ran (this
            // party's step count).
            let parent = host.metrics().steps;
            route(host, &mut out, Some(parent), episode, sink);
        }
        episode.settled();
    }
    guard.disarmed = true;
}

/// Runs one episode: every party's thread borrows its persistent host,
/// spawns its buffered instances and processes messages to quiescence (or
/// the step budget).
fn run_episode(
    hosts: &mut [PartyHost],
    spawns: Vec<Spawns>,
    max_steps: u64,
    sink: Option<&SharedSink>,
) -> StopReason {
    let (inboxes, receivers): (Vec<_>, Vec<_>) = hosts.iter().map(|_| channel()).unzip();
    let episode = Episode {
        inboxes,
        in_flight: AtomicI64::new(0),
        started: AtomicUsize::new(0),
        steps: AtomicU64::new(0),
        limit_hit: AtomicBool::new(false),
        max_steps,
    };
    let episode = &episode;
    std::thread::scope(|scope| {
        let workers: Vec<_> = hosts
            .iter_mut()
            .zip(spawns)
            .zip(receivers)
            .map(|((host, spawns), inbox)| {
                scope.spawn(move || work(host, spawns, inbox, episode, sink))
            })
            .collect();
        for worker in workers {
            worker.join().expect("worker thread panicked");
        }
    });
    if episode.limit_hit.load(Ordering::SeqCst) {
        StopReason::StepLimit
    } else {
        StopReason::Quiescent
    }
}

/// The OS-thread execution backend.
///
/// Spawns wait for [`run`](Runtime::run), which executes one episode — every
/// party's thread starts its buffered instances, messages flow until the
/// system is quiescent (or the step budget is hit), and outputs plus
/// merged metrics become readable. Parties [`crash`](Runtime::crash)ed
/// before `run` start crashed: they never process or send.
///
/// Compared to [`SimNetwork`], delivery order is real OS nondeterminism:
/// there is no scheduler to choose and the engine is not deterministic —
/// it hosts no adaptive adversary and no recovery. Per-party RNGs still
/// derive from `config.seed`, so protocol-local randomness matches the
/// simulator's for the same seed.
///
/// Node state **persists across episodes** (as on the simulator and the
/// sharded backend): a later `spawn` + `run` continues on the same nodes,
/// so sessions, outputs and shun registries accumulate — share→rec
/// chains and shunning campaigns run unchanged under `--runtime threaded`.
///
/// [`SimNetwork`]: crate::SimNetwork
///
/// # Examples
///
/// ```
/// use aft_sim::{Context, Instance, NetConfig, PartyId, Payload, Runtime, RuntimeExt,
///               SessionId, SessionTag, ThreadedRuntime};
///
/// struct Hello { heard: usize }
/// impl Instance for Hello {
///     fn on_start(&mut self, ctx: &mut Context<'_>) { ctx.send_all(1u8); }
///     fn on_message(&mut self, _f: PartyId, _p: &Payload, ctx: &mut Context<'_>) {
///         self.heard += 1;
///         if self.heard == ctx.n() { ctx.output(self.heard); }
///     }
/// }
///
/// let sid = SessionId::root().child(SessionTag::new("hello", 0));
/// let mut rt = ThreadedRuntime::new(NetConfig::new(4, 1, 7));
/// for p in 0..4 {
///     rt.spawn(PartyId(p), sid.clone(), Box::new(Hello { heard: 0 }));
/// }
/// let report = rt.run(1_000_000);
/// assert_eq!(report.stop, aft_sim::StopReason::Quiescent);
/// for p in 0..4 {
///     assert_eq!(rt.output_as::<usize>(PartyId(p), &sid), Some(&4));
/// }
/// ```
pub struct ThreadedRuntime {
    /// The persistent parties, kept across episodes; their recorder is
    /// shared with the worker threads behind a mutex during episodes, and
    /// its event order reflects real OS interleaving.
    parties: Parties,
}

impl ThreadedRuntime {
    /// Creates a threaded runtime.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n < 3t + 1` (the resilience bound assumed by
    /// every protocol in this workspace).
    pub fn new(config: NetConfig) -> Self {
        ThreadedRuntime::named(config, "threaded")
    }

    /// [`ThreadedRuntime::new`], reporting itself as `label` (`rt=proc` is
    /// this engine under the name the real deployment is asked for).
    pub(crate) fn named(config: NetConfig, label: &'static str) -> Self {
        ThreadedRuntime {
            parties: Parties::new(config, label, false),
        }
    }
}

impl Runtime for ThreadedRuntime {
    fn parties(&self) -> &Parties {
        &self.parties
    }

    fn parties_mut(&mut self) -> &mut Parties {
        &mut self.parties
    }

    fn run(&mut self, max_steps: u64) -> RunReport {
        let parties = &mut self.parties;
        parties.episode_start();
        let mut spawns: Vec<Spawns> = parties.hosts.iter().map(|_| Vec::new()).collect();
        for (party, session, instance) in std::mem::take(&mut parties.spawns) {
            spawns[party.0].push((session, instance));
        }
        let on = parties.sink.is_on();
        let sink = Mutex::new(std::mem::take(&mut parties.sink));
        let stop = run_episode(&mut parties.hosts, spawns, max_steps, on.then_some(&sink));
        parties.sink = sink.into_inner().expect("trace sink poisoned");
        let metrics = self.metrics();
        self.parties.steps = metrics.steps;
        self.parties.episode_end(stop, metrics)
    }

    fn metrics(&self) -> Metrics {
        self.parties.host_metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{PartyId, SessionTag};
    use crate::instance::Context;
    use crate::payload::Payload;
    use crate::runtime::RuntimeExt;

    fn sid() -> SessionId {
        SessionId::root().child(SessionTag::new("t", 0))
    }

    /// Greets everyone; outputs after hearing from all n parties.
    struct Hello {
        heard: usize,
    }
    impl Instance for Hello {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send_all(1u8);
        }
        fn on_message(&mut self, _f: PartyId, _p: &Payload, ctx: &mut Context<'_>) {
            self.heard += 1;
            if self.heard == ctx.n() {
                ctx.output(self.heard);
            }
        }
    }

    #[test]
    fn hello_over_threads() {
        let mut rt = ThreadedRuntime::new(NetConfig::new(4, 1, 7));
        for p in 0..4 {
            rt.spawn(PartyId(p), sid(), Box::new(Hello { heard: 0 }));
        }
        assert_eq!(rt.run(u64::MAX).stop, StopReason::Quiescent);
        for p in 0..4 {
            assert_eq!(rt.output_as::<usize>(PartyId(p), &sid()), Some(&4));
        }
    }

    /// Nobody ever sends: the last worker through its (empty) spawn phase
    /// is the one that finds the system idle and ends the episode — no
    /// delivery will ever do it, and no timer exists to.
    #[test]
    fn all_silent_system_quiesces() {
        let mut rt = ThreadedRuntime::new(NetConfig::new(4, 1, 0));
        let report = rt.run(u64::MAX);
        assert_eq!(report.stop, StopReason::Quiescent);
        assert_eq!(report.metrics.sent, 0);
        // Silent instances are no different from no instances.
        for p in 0..4 {
            rt.spawn(PartyId(p), sid(), Box::new(crate::SilentInstance));
        }
        assert_eq!(rt.run(u64::MAX).stop, StopReason::Quiescent);
        assert_eq!(rt.metrics().steps, 0);
    }

    /// One party sends, nobody answers: whichever worker settles the last
    /// of the three envelopes ends the episode for the sender too, which
    /// is blocked on an inbox nothing is ever put in.
    #[test]
    fn one_sender_system_quiesces() {
        struct Herald;
        impl Instance for Herald {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                for p in 1..ctx.n() {
                    ctx.send(PartyId(p), 1u8);
                }
            }
            fn on_message(&mut self, _f: PartyId, _p: &Payload, _c: &mut Context<'_>) {}
        }
        for seed in 0..50 {
            let mut rt = ThreadedRuntime::new(NetConfig::new(4, 1, seed));
            rt.spawn(PartyId(0), sid(), Box::new(Herald));
            let report = rt.run(u64::MAX);
            assert_eq!(report.stop, StopReason::Quiescent);
            assert_eq!((report.metrics.sent, report.metrics.steps), (3, 3));
        }
    }

    /// Ping-pong volley across threads terminates and counts correctly.
    struct Volley {
        start: bool,
        bounces: u32,
    }
    impl Instance for Volley {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            if self.start {
                ctx.send(PartyId(1), 50u32);
            }
        }
        fn on_message(&mut self, from: PartyId, p: &Payload, ctx: &mut Context<'_>) {
            if let Some(v) = p.to_msg::<u32>() {
                self.bounces += 1;
                if v == 0 {
                    ctx.output(self.bounces);
                } else {
                    ctx.send(from, v - 1);
                }
            }
        }
    }

    #[test]
    fn ping_pong_over_threads() {
        let mut rt = ThreadedRuntime::new(NetConfig::new(4, 1, 3));
        for p in 0..4 {
            let volley = Volley {
                start: p == 0,
                bounces: 0,
            };
            rt.spawn(PartyId(p), sid(), Box::new(volley));
        }
        assert_eq!(rt.run(u64::MAX).stop, StopReason::Quiescent);
        // 51 messages bounce between P0 and P1; the terminal catcher
        // outputs its bounce count.
        let total: u32 = (0..4)
            .filter_map(|p| rt.output_as::<u32>(PartyId(p), &sid()))
            .sum();
        assert!(total > 0, "someone must have caught the last ball");
    }

    #[test]
    fn runtime_metrics_account_for_messages() {
        let mut rt = ThreadedRuntime::new(NetConfig::new(4, 1, 5));
        for p in 0..4 {
            rt.spawn(PartyId(p), sid(), Box::new(Hello { heard: 0 }));
        }
        let report = rt.run(u64::MAX);
        assert_eq!(report.stop, StopReason::Quiescent);
        // 4 parties broadcast once to 4 destinations each.
        assert_eq!(report.metrics.sent, 16);
        assert_eq!(report.metrics.delivered, 16);
        assert_eq!(report.metrics.sent_by_kind("t"), 16);
        assert_eq!(report.metrics.steps, 16);
    }

    #[test]
    fn crashed_party_is_inert_and_counted() {
        let mut rt = ThreadedRuntime::new(NetConfig::new(4, 1, 5));
        for p in 0..4 {
            rt.spawn(PartyId(p), sid(), Box::new(Hello { heard: 0 }));
        }
        rt.crash(PartyId(3));
        let report = rt.run(u64::MAX);
        assert_eq!(report.stop, StopReason::Quiescent);
        // The crashed party neither sends nor outputs; others hear only 3
        // greetings so they never output either — but the system quiesces.
        assert!(rt.output(PartyId(3), &sid()).is_none());
        assert_eq!(report.metrics.sent, 12, "three live broadcasters");
        assert_eq!(report.metrics.dropped_crashed, 3, "deliveries to P3");
    }

    #[test]
    fn nodes_persist_across_episodes() {
        // Episode 1 completes a session; episode 2 spawns a second session
        // on the SAME nodes: both outputs stay readable, matching the
        // simulator and sharded backends.
        let other = SessionId::root().child(SessionTag::new("second", 0));
        let mut rt = ThreadedRuntime::new(NetConfig::new(4, 1, 8));
        for p in 0..4 {
            rt.spawn(PartyId(p), sid(), Box::new(Hello { heard: 0 }));
        }
        let report = rt.run(u64::MAX);
        assert_eq!(report.stop, StopReason::Quiescent);
        for p in 0..4 {
            rt.spawn(PartyId(p), other.clone(), Box::new(Hello { heard: 0 }));
        }
        let report = rt.run(u64::MAX);
        assert_eq!(report.stop, StopReason::Quiescent);
        for p in 0..4 {
            assert_eq!(rt.output_as::<usize>(PartyId(p), &sid()), Some(&4));
            assert_eq!(rt.output_as::<usize>(PartyId(p), &other), Some(&4));
        }
        // Spawning the same session again is idempotent on the persistent
        // node: no new sends occur.
        let sent_before = rt.metrics().sent;
        for p in 0..4 {
            rt.spawn(PartyId(p), sid(), Box::new(Hello { heard: 0 }));
        }
        rt.run(u64::MAX);
        assert_eq!(rt.metrics().sent, sent_before, "re-spawn is a no-op");
    }

    #[test]
    fn crash_persists_across_episodes() {
        let other = SessionId::root().child(SessionTag::new("second", 0));
        let mut rt = ThreadedRuntime::new(NetConfig::new(4, 1, 9));
        rt.crash(PartyId(3));
        for p in 0..4 {
            rt.spawn(PartyId(p), sid(), Box::new(Hello { heard: 0 }));
        }
        rt.run(u64::MAX);
        // Second episode: the crashed node stays crashed.
        for p in 0..4 {
            rt.spawn(PartyId(p), other.clone(), Box::new(Hello { heard: 0 }));
        }
        let report = rt.run(u64::MAX);
        assert_eq!(report.stop, StopReason::Quiescent);
        assert!(rt.output(PartyId(3), &other).is_none());
        assert_eq!(report.metrics.sent, 24, "3 live broadcasters × 2 episodes");
    }

    #[test]
    fn step_limit_stops_runaway() {
        /// Endless self-ping.
        struct Forever;
        impl Instance for Forever {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let me = ctx.me();
                ctx.send(me, 0u8);
            }
            fn on_message(&mut self, _f: PartyId, _p: &Payload, ctx: &mut Context<'_>) {
                let me = ctx.me();
                ctx.send(me, 0u8);
            }
        }
        let mut rt = ThreadedRuntime::new(NetConfig::new(4, 1, 1));
        rt.spawn(PartyId(0), sid(), Box::new(Forever));
        let report = rt.run(500);
        assert_eq!(report.stop, StopReason::StepLimit);
        assert!(report.metrics.steps <= 501, "{}", report.metrics.steps);
        // Every inbox died with its worker; the next episode on the same
        // runtime builds new ones and is not fed the drained pings.
        let other = SessionId::root().child(SessionTag::new("second", 0));
        for p in 0..4 {
            rt.spawn(PartyId(p), other.clone(), Box::new(Hello { heard: 0 }));
        }
        let steps_before = report.metrics.steps;
        let report = rt.run(u64::MAX);
        assert_eq!(report.stop, StopReason::Quiescent);
        assert_eq!(report.metrics.steps, steps_before + 16);
        for p in 0..4 {
            assert_eq!(rt.output_as::<usize>(PartyId(p), &other), Some(&4));
        }
    }

    #[test]
    fn runtime_trait_object_works() {
        let mut rt: Box<dyn Runtime> = Box::new(ThreadedRuntime::new(NetConfig::new(4, 1, 9)));
        for p in 0..4 {
            rt.spawn(PartyId(p), sid(), Box::new(Hello { heard: 0 }));
        }
        let report = rt.run(u64::MAX);
        assert_eq!(report.stop, StopReason::Quiescent);
        assert_eq!(rt.backend_name(), "threaded");
        for p in 0..4 {
            assert_eq!(rt.output_as::<usize>(PartyId(p), &sid()), Some(&4));
        }
        // No clock and no replay: recovery and adaptive plans are refused.
        rt.crash(PartyId(3));
        assert!(!rt.schedule_recover(PartyId(3), 50, sid(), Box::new(Hello { heard: 0 })));
    }

    /// A protocol panic in ONE worker must propagate out of `run` instead
    /// of deadlocking the surviving workers (which would otherwise wait
    /// forever for the dead worker's in-flight count to drain).
    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn single_worker_panic_propagates_instead_of_deadlocking() {
        struct Poker;
        impl Instance for Poker {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send(PartyId(3), 1u8);
            }
            fn on_message(&mut self, _f: PartyId, _p: &Payload, _c: &mut Context<'_>) {}
        }
        struct Bomb;
        impl Instance for Bomb {
            fn on_start(&mut self, _ctx: &mut Context<'_>) {}
            fn on_message(&mut self, _f: PartyId, _p: &Payload, _c: &mut Context<'_>) {
                panic!("protocol invariant violated");
            }
        }
        let mut rt = ThreadedRuntime::new(NetConfig::new(4, 1, 1));
        rt.spawn(PartyId(0), sid(), Box::new(Poker));
        rt.spawn(PartyId(3), sid(), Box::new(Bomb));
        // Keep the other parties listening: blocked in `recv()`, they
        // would wait forever if the dying worker did not stop them.
        rt.spawn(PartyId(1), sid(), Box::new(Hello { heard: 0 }));
        rt.spawn(PartyId(2), sid(), Box::new(Hello { heard: 0 }));
        rt.run(u64::MAX);
    }
}
