//! The threaded runtime: the same [`Instance`] protocol code running over
//! real OS threads and channels instead of the deterministic simulator.
//!
//! Each party is one thread owning its [`Node`] and the receiving end of
//! its inbox, an unbounded `std::sync::mpsc` channel made anew for every
//! episode; delivery order is whatever the OS scheduler produces — a
//! genuinely asynchronous (if benign) network. The runtime exists to
//! demonstrate that the protocol implementations are not simulator-bound;
//! quantitative experiments use [`SimNetwork`] for determinism and
//! adversarial scheduling.
//!
//! [`ThreadedRuntime`] implements [`Runtime`], so deployments written
//! against the trait run identically here and on the simulator. Messages
//! route through the same [`Node`] dispatch core as the simulator
//! (shunning, crash handling and metric accounting included); what differs
//! is only who chooses the delivery order.
//!
//! **Nodes persist across episodes** (matching the simulator and the
//! sharded backend): each [`run`](Runtime::run) call moves the long-lived
//! nodes into the worker threads and moves them back at quiescence, so
//! multi-phase deployments — SVSS share→reconstruct chains, shunning
//! campaigns that interleave spawns and runs — carry session state,
//! outputs and shun registries from one episode to the next.
//!
//! Termination uses a global in-flight counter: every send increments it,
//! every completed delivery decrements it; once every party finished its
//! spawn phase and the counter reads zero there are no messages anywhere
//! (channels are empty and no handler is running), so all threads exit.
//!
//! [`SimNetwork`]: crate::SimNetwork

use crate::adaptive::SharedAdaptive;
use crate::ids::{PartyId, SessionId};
use crate::instance::Instance;
use crate::node::{Node, Outgoing};
use crate::payload::Payload;
use crate::runtime::{
    build_node, deliver_counted, DeliverTrace, Metrics, NetConfig, RunReport, Runtime, StopReason,
};
use crate::trace::{TraceEvent, TraceMode, TraceSink};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

struct Wire {
    from: PartyId,
    session: SessionId,
    payload: Payload,
    /// Globally-unique envelope number (`emit * n + sender`), joining the
    /// flight recorder's `Send` and `Deliver` events.
    seq: u64,
}

/// Per-party outputs of a threaded run.
pub type ThreadedOutputs = Vec<HashMap<SessionId, Payload>>;

/// One worker's episode result: the persistent node handed back, plus
/// thread-local metrics.
type WorkerResult = (Node, Metrics);

/// Shared bookkeeping for one threaded episode.
struct EpisodeState {
    in_flight: AtomicI64,
    /// Workers that completed their spawn phase (quiescence requires all).
    started: AtomicUsize,
    /// Total deliveries across all workers, for the step budget.
    steps: AtomicU64,
    limit_hit: AtomicBool,
    /// Set when a worker panics: a dead worker never decrements
    /// `in_flight`, so without this flag the survivors would wait for
    /// quiescence forever instead of letting the panic propagate.
    poisoned: AtomicBool,
    max_steps: u64,
}

/// Unwind guard: marks the episode poisoned if its worker dies before
/// reaching the normal exit (i.e. unwinds through a protocol panic).
struct PoisonOnUnwind {
    state: Arc<EpisodeState>,
    disarmed: bool,
}

impl Drop for PoisonOnUnwind {
    fn drop(&mut self) {
        if !self.disarmed {
            self.state.poisoned.store(true, Ordering::SeqCst);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn dispatch(
    from: PartyId,
    out: &mut Vec<Outgoing>,
    senders: &[Sender<Wire>],
    state: &EpisodeState,
    metrics: &mut Metrics,
    n: u64,
    emit: &mut u64,
    sink: Option<&Mutex<Box<dyn TraceSink>>>,
    causal: Option<u64>,
) {
    for o in out.drain(..) {
        metrics.on_sent(&o.session);
        let seq = *emit * n + from.0 as u64;
        *emit += 1;
        if let Some(shared) = sink {
            let mut sink = shared.lock().expect("trace sink poisoned");
            sink.record(TraceEvent::Send {
                step: metrics.steps,
                from,
                to: o.to,
                session: o.session.clone(),
                seq,
                causal_parent: causal,
            });
        }
        state.in_flight.fetch_add(1, Ordering::SeqCst);
        // Receiver may only disappear after quiescence; ignore failures.
        let _ = senders[o.to.0].send(Wire {
            from,
            session: o.session,
            payload: o.payload,
            seq,
        });
    }
}

/// Runs one episode: every party's thread takes ownership of its
/// persistent node, spawns its buffered instances, processes messages to
/// quiescence (or the step budget), and hands the node back with its
/// thread-local metrics.
fn run_episode(
    config: &NetConfig,
    poll: Duration,
    nodes: Vec<Node>,
    spawns: Vec<Vec<(SessionId, Box<dyn Instance>)>>,
    max_steps: u64,
    sink: Option<&Mutex<Box<dyn TraceSink>>>,
) -> (Vec<WorkerResult>, StopReason) {
    let n = config.n;
    assert_eq!(spawns.len(), n, "one spawn list per party");
    assert_eq!(nodes.len(), n, "one node per party");

    let mut senders: Vec<Sender<Wire>> = Vec::with_capacity(n);
    let mut receivers: Vec<Receiver<Wire>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel();
        senders.push(tx);
        receivers.push(rx);
    }
    let state = Arc::new(EpisodeState {
        in_flight: AtomicI64::new(0),
        started: AtomicUsize::new(0),
        steps: AtomicU64::new(0),
        limit_hit: AtomicBool::new(false),
        poisoned: AtomicBool::new(false),
        max_steps,
    });

    let results = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (p, ((mut node, instances), rx)) in
            nodes.into_iter().zip(spawns).zip(receivers).enumerate()
        {
            let me = PartyId(p);
            let senders = senders.clone();
            let state = Arc::clone(&state);
            handles.push(scope.spawn(move || {
                let mut guard = PoisonOnUnwind {
                    state: Arc::clone(&state),
                    disarmed: false,
                };
                let mut metrics = Metrics::default();
                let mut out = Vec::new();
                let mut emit = 0u64;
                let n_u64 = n as u64;
                for (session, instance) in instances {
                    out = node.spawn(session, instance);
                    // Spawn-phase sends are causal-DAG roots.
                    dispatch(
                        me,
                        &mut out,
                        &senders,
                        &state,
                        &mut metrics,
                        n_u64,
                        &mut emit,
                        sink,
                        None,
                    );
                }
                state.started.fetch_add(1, Ordering::SeqCst);
                loop {
                    // A dead worker never drains its queue or decrements
                    // `in_flight`; stop waiting and let its panic surface.
                    if state.poisoned.load(Ordering::SeqCst) {
                        break;
                    }
                    match rx.recv_timeout(poll) {
                        Ok(wire) => {
                            if state.steps.fetch_add(1, Ordering::SeqCst) >= state.max_steps {
                                // Budget exhausted: drain without
                                // processing so the system still quiesces.
                                state.limit_hit.store(true, Ordering::SeqCst);
                                state.in_flight.fetch_sub(1, Ordering::SeqCst);
                                continue;
                            }
                            {
                                let mut guard =
                                    sink.map(|m| m.lock().expect("trace sink poisoned"));
                                let tctx = guard.as_mut().map(|g| DeliverTrace {
                                    sink: (**g).as_mut(),
                                    seq: wire.seq,
                                    vtime: None,
                                });
                                deliver_counted(
                                    &mut node,
                                    wire.from,
                                    wire.session,
                                    wire.payload,
                                    &mut out,
                                    &mut metrics,
                                    tctx,
                                );
                            }
                            // Emissions below are caused by the delivery
                            // that just ran (this worker's step count).
                            let parent = metrics.steps;
                            dispatch(
                                me,
                                &mut out,
                                &senders,
                                &state,
                                &mut metrics,
                                n_u64,
                                &mut emit,
                                sink,
                                Some(parent),
                            );
                            state.in_flight.fetch_sub(1, Ordering::SeqCst);
                        }
                        Err(_) => {
                            // Idle: once every party spawned and nothing is
                            // in flight anywhere, the system is quiescent.
                            if state.started.load(Ordering::SeqCst) == n
                                && state.in_flight.load(Ordering::SeqCst) == 0
                            {
                                break;
                            }
                        }
                    }
                }
                guard.disarmed = true;
                (node, metrics)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect::<Vec<_>>()
    });

    let stop = if state.limit_hit.load(Ordering::SeqCst) {
        StopReason::StepLimit
    } else {
        StopReason::Quiescent
    };
    (results, stop)
}

/// The OS-thread execution backend.
///
/// Spawns are buffered; [`run`](Runtime::run) executes one episode — every
/// party's thread starts its buffered instances, messages flow until the
/// system is quiescent (or the step budget is hit), and outputs plus
/// merged metrics become readable. Parties [`crash`](Runtime::crash)ed
/// before `run` start crashed: they never process or send.
///
/// Compared to [`SimNetwork`], delivery order is real OS nondeterminism:
/// there is no scheduler to choose, no delivery trace, and `crash_at`
/// (step-indexed crashes) does not exist because wall-clock runs have no
/// global step counter a protocol could agree on. Per-party RNGs still
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
    config: NetConfig,
    poll: Duration,
    /// The persistent per-party nodes, kept across episodes.
    nodes: Vec<Node>,
    spawns: Vec<Vec<(SessionId, Box<dyn Instance>)>>,
    metrics: Metrics,
    /// Structured flight recorder (see [`crate::trace`]); shared with the
    /// worker threads behind a mutex during episodes. Event order reflects
    /// real OS interleaving — unlike the deterministic backends.
    sink: Option<Box<dyn TraceSink>>,
    /// What [`Runtime::backend_name`] reports.
    label: &'static str,
}

impl ThreadedRuntime {
    /// Default idle-poll interval for quiescence detection.
    pub const DEFAULT_POLL: Duration = Duration::from_millis(2);

    /// Creates a threaded runtime with the default poll interval.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n < 3t + 1` (the resilience bound assumed by
    /// every protocol in this workspace).
    pub fn new(config: NetConfig) -> Self {
        Self::with_poll(config, Self::DEFAULT_POLL)
    }

    /// Creates a threaded runtime with an explicit idle-poll interval.
    ///
    /// # Panics
    ///
    /// See [`ThreadedRuntime::new`].
    pub fn with_poll(config: NetConfig, poll: Duration) -> Self {
        assert!(config.n > 0, "need at least one party");
        assert!(
            config.n > 3 * config.t,
            "optimal resilience requires n >= 3t + 1 (n={}, t={})",
            config.n,
            config.t
        );
        ThreadedRuntime {
            config,
            poll,
            nodes: (0..config.n).map(|p| build_node(&config, p)).collect(),
            spawns: (0..config.n).map(|_| Vec::new()).collect(),
            metrics: Metrics::default(),
            sink: None,
            label: "threaded",
        }
    }

    /// Sets the name [`Runtime::backend_name`] reports (`rt=proc` is this
    /// engine under the name the real deployment is asked for).
    pub(crate) fn labelled(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }

    /// All recorded outputs per party, cloned out of the persistent nodes
    /// (accumulated across episodes).
    pub fn outputs(&self) -> ThreadedOutputs {
        self.nodes
            .iter()
            .map(|node| {
                node.outputs()
                    .map(|(s, v)| (s.clone(), v.clone()))
                    .collect()
            })
            .collect()
    }

    /// Immutable access to a party's persistent node (outputs, shun
    /// registry, …).
    pub fn node(&self, party: PartyId) -> &Node {
        &self.nodes[party.0]
    }
}

impl Runtime for ThreadedRuntime {
    fn config(&self) -> &NetConfig {
        &self.config
    }

    fn spawn(&mut self, party: PartyId, session: SessionId, instance: Box<dyn Instance>) {
        self.spawns[party.0].push((session, instance));
    }

    fn crash(&mut self, party: PartyId) {
        self.nodes[party.0].crash();
        if let Some(sink) = &mut self.sink {
            sink.record(TraceEvent::Crash {
                step: self.metrics.steps,
                party,
            });
        }
    }

    fn run(&mut self, max_steps: u64) -> RunReport {
        if let Some(sink) = &mut self.sink {
            sink.record(TraceEvent::EpisodeStart {
                step: self.metrics.steps,
            });
        }
        let spawns = std::mem::replace(
            &mut self.spawns,
            (0..self.config.n).map(|_| Vec::new()).collect(),
        );
        let nodes = std::mem::take(&mut self.nodes);
        let shared = self.sink.take().map(Mutex::new);
        let (results, stop) = run_episode(
            &self.config,
            self.poll,
            nodes,
            spawns,
            max_steps,
            shared.as_ref(),
        );
        self.sink = shared.map(|m| m.into_inner().expect("trace sink poisoned"));
        for (node, metrics) in results {
            self.metrics.merge(&metrics);
            self.nodes.push(node);
        }
        if let Some(sink) = &mut self.sink {
            sink.record(TraceEvent::EpisodeEnd {
                step: self.metrics.steps,
            });
        }
        RunReport {
            stop,
            steps: self.metrics.steps,
            metrics: self.metrics.clone(),
            trace: self
                .sink
                .as_ref()
                .map(|s| crate::trace::summarize(s.as_ref())),
        }
    }

    fn output(&self, party: PartyId, session: &SessionId) -> Option<&Payload> {
        self.nodes[party.0].output(session)
    }

    fn retire_session(&mut self, party: PartyId, session: &SessionId) -> bool {
        // Between episodes the nodes live here (workers only borrow them
        // during `run`), so the arena GC works exactly as on the
        // simulator: the session's output, early buffer and arena slot
        // are released and a later spawn of the same id starts fresh.
        self.nodes[party.0].retire_session(session)
    }

    /// Always `false`: there is no virtual clock to schedule against (a
    /// real deployment restarts parties from its supervisor instead).
    fn schedule_recover(
        &mut self,
        _party: PartyId,
        _at_vtime: u64,
        _session: SessionId,
        _instance: Box<dyn Instance>,
    ) -> bool {
        false
    }

    fn metrics(&self) -> Metrics {
        self.metrics.clone()
    }

    fn set_trace(&mut self, mode: TraceMode) {
        self.sink = mode.build();
    }

    fn take_trace(&mut self) -> Option<Box<dyn TraceSink>> {
        self.sink.take()
    }

    /// Always `false`: observations would arrive in OS-timing order, so
    /// an adaptive run could not be replayed.
    fn install_adaptive(&mut self, _ctrl: SharedAdaptive) -> bool {
        false
    }

    fn adaptive_handle(&self) -> Option<SharedAdaptive> {
        None
    }

    fn backend_name(&self) -> &'static str {
        self.label
    }
}

/// Runs one protocol deployment over OS threads (function-style shorthand
/// for [`ThreadedRuntime`]).
///
/// `spawns[p]` lists the `(session, instance)` pairs party `p` starts
/// with. The function returns when the system is quiescent (no in-flight
/// messages) — protocols that almost-surely terminate reach this state —
/// and yields every party's recorded session outputs.
///
/// `poll` is the idle-polling interval used to detect quiescence
/// (tests use a few milliseconds).
///
/// # Panics
///
/// Panics if `n == 0`, `n < 3t + 1`, if `spawns.len() != n`, or if a
/// worker thread panics (protocol assertion failures propagate).
pub fn run_threaded(
    n: usize,
    t: usize,
    seed: u64,
    spawns: Vec<Vec<(SessionId, Box<dyn Instance>)>>,
    poll: Duration,
) -> ThreadedOutputs {
    assert_eq!(spawns.len(), n, "one spawn list per party");
    let mut rt = ThreadedRuntime::with_poll(NetConfig::new(n, t, seed), poll);
    for (p, instances) in spawns.into_iter().enumerate() {
        for (session, instance) in instances {
            rt.spawn(PartyId(p), session, instance);
        }
    }
    rt.run(u64::MAX);
    rt.outputs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SessionTag;
    use crate::instance::Context;
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
        let n = 4;
        let spawns: Vec<Vec<(SessionId, Box<dyn Instance>)>> = (0..n)
            .map(|_| vec![(sid(), Box::new(Hello { heard: 0 }) as Box<dyn Instance>)])
            .collect();
        let outputs = run_threaded(n, 1, 7, spawns, Duration::from_millis(5));
        for (p, out) in outputs.iter().enumerate() {
            assert_eq!(
                out.get(&sid()).and_then(|v| v.downcast_ref::<usize>()),
                Some(&n),
                "party {p}"
            );
        }
    }

    #[test]
    fn empty_system_quiesces() {
        let outputs = run_threaded(
            4,
            1,
            0,
            (0..4).map(|_| Vec::new()).collect(),
            Duration::from_millis(2),
        );
        assert!(outputs.iter().all(|o| o.is_empty()));
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
        let spawns: Vec<Vec<(SessionId, Box<dyn Instance>)>> = (0..4)
            .map(|p| {
                vec![(
                    sid(),
                    Box::new(Volley {
                        start: p == 0,
                        bounces: 0,
                    }) as Box<dyn Instance>,
                )]
            })
            .collect();
        let outputs = run_threaded(4, 1, 3, spawns, Duration::from_millis(5));
        // 51 messages bounce between P0 and P1; the terminal catcher
        // outputs its bounce count.
        let total: u32 = outputs
            .iter()
            .filter_map(|o| o.get(&sid()))
            .filter_map(|v| v.downcast_ref::<u32>())
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
    fn retire_session_frees_slot_for_respawn() {
        // Regression: retire_session used to be the trait's no-op default
        // on this backend, so multi-tenant drivers leaked arena slots and
        // a post-retire respawn was silently ignored. Retiring must free
        // the slot (returning true) and a respawn of the SAME session id
        // must start a fresh instance that sends again.
        let mut rt = ThreadedRuntime::new(NetConfig::new(4, 1, 8));
        for p in 0..4 {
            rt.spawn(PartyId(p), sid(), Box::new(Hello { heard: 0 }));
        }
        rt.run(u64::MAX);
        assert_eq!(rt.metrics().sent, 16);
        for p in 0..4 {
            assert!(rt.retire_session(PartyId(p), &sid()), "party {p}");
            assert!(rt.output(PartyId(p), &sid()).is_none(), "output released");
        }
        for p in 0..4 {
            rt.spawn(PartyId(p), sid(), Box::new(Hello { heard: 0 }));
        }
        let report = rt.run(u64::MAX);
        assert_eq!(report.stop, StopReason::Quiescent);
        assert_eq!(rt.metrics().sent, 32, "respawn after retire sends again");
        for p in 0..4 {
            assert_eq!(rt.output_as::<usize>(PartyId(p), &sid()), Some(&4));
        }
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

    #[test]
    #[should_panic(expected = "optimal resilience")]
    fn rejects_insufficient_n() {
        let _ = ThreadedRuntime::new(NetConfig::new(3, 1, 0));
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
        // Keep the other parties listening so they would spin forever if
        // the poison flag did not release them.
        rt.spawn(PartyId(1), sid(), Box::new(Hello { heard: 0 }));
        rt.spawn(PartyId(2), sid(), Box::new(Hello { heard: 0 }));
        rt.run(u64::MAX);
    }
}
