//! The runtime seam: one [`Runtime`] trait over every execution engine.
//!
//! Protocol code is written once against [`Instance`] and runs unchanged on
//! any engine implementing [`Runtime`]: the deterministic [`SimNetwork`]
//! (which also hosts the `wire` and `async` names), the
//! [`ShardedSimRuntime`] and the OS-thread [`ThreadedRuntime`]. The trait
//! captures the full lifecycle an experiment needs — deploy instances,
//! inject crashes, run to quiescence, read outputs and metrics — so
//! cross-backend suites and `--runtime` experiment flags are one
//! `Box<dyn Runtime>` away. Which `rt=` name builds which engine is the
//! [`backend`](crate::backend) table's business, not this module's.
//!
//! This module also owns the engine-shared pieces: the static
//! [`NetConfig`], the [`Metrics`] counters (with interned per-kind send
//! counts), run reports, per-party RNG derivation, [`PartyHost`] —
//! everything that happens *at* a party: dispatch, the accounting of a
//! delivery, the counting, numbering and recording of its sends — and
//! `Parties`, the front every engine holds alike: one host per party
//! (which also checks the resilience bound), the spawns waiting for the
//! next run, the recorder and adaptive sink, the scheduled recoveries and
//! the step clock. Every [`Runtime`] method but `run` and `metrics` is
//! written once over it; an engine keeps only what is its own — a queue
//! and who picks from it, channels, links — and decides where each send
//! goes next, as an `aft-partyd` process drives its one host.
//!
//! [`SimNetwork`]: crate::SimNetwork
//! [`ShardedSimRuntime`]: crate::ShardedSimRuntime
//! [`ThreadedRuntime`]: crate::ThreadedRuntime

use crate::adaptive::{Observer, SharedAdaptive};
use crate::ids::{PartyId, SessionId};
use crate::instance::Instance;
use crate::network::Envelope;
use crate::node::{Node, Outgoing};
use crate::payload::{drain_misses, Payload};
use crate::trace::{DropReason, TraceEvent, TraceMode, TraceSink, TraceSummary};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Static parameters of a simulated system.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Number of parties.
    pub n: usize,
    /// Fault threshold; protocols in this workspace need `n >= 3t + 1`.
    pub t: usize,
    /// Master seed: all node RNGs and the scheduler RNG derive from it.
    pub seed: u64,
}

impl NetConfig {
    /// The system of `n` parties, up to `t` of them faulty, seeded by
    /// `seed`.
    pub fn new(n: usize, t: usize, seed: u64) -> Self {
        NetConfig { n, t, seed }
    }
}

/// Counters collected during a run.
///
/// Per-kind send counts are interned into a small vector instead of a
/// hash map: sends are the hot path and session kinds are a handful of
/// `&'static str`s, so a memoized linear scan beats hashing every
/// envelope.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    /// Envelopes handed to the network.
    pub sent: u64,
    /// Envelopes delivered to a node.
    pub delivered: u64,
    /// Envelopes dropped because the receiver shuns the sender.
    pub dropped_shunned: u64,
    /// Envelopes dropped because the receiver crashed.
    pub dropped_crashed: u64,
    /// Delivery steps executed.
    pub steps: u64,
    /// Shun events declared across all nodes.
    pub shun_events: u64,
    /// Envelopes handed over as bytes, one link frame each (wire backend
    /// only).
    pub wire_frames: u64,
    /// Bytes of those link frames — `[len][from][session][payload
    /// frame]` per envelope, what an `aft-partyd` link carries for the
    /// same sends (wire backend only).
    pub wire_bytes: u64,
    /// Envelopes refused on arrival for their routing header, or
    /// delivered with a payload frame whose header is malformed — the
    /// byte-level adversary's fingerprint (wire backend only).
    pub wire_malformed: u64,
    /// Nodes of the in-flight queue's run pool — where the parcels of
    /// every multi-parcel batch are linked — that a parcel took off the
    /// pool's free chain instead of a new node. A singleton batch holds
    /// its parcel inline and counts in neither. Diagnostic only: never
    /// folded into scenario fingerprints.
    pub pool_reused: u64,
    /// Nodes added to the run pool because its free chain was empty —
    /// the pool's miss counter (the pool grows in bounded steps, so this
    /// is not one allocation per node).
    pub pool_alloc: u64,
    /// Virtual time (virtual milliseconds) at the last delivery, when the
    /// scheduler keeps a virtual clock (the `net:` family); 0 otherwise.
    pub virtual_time: u64,
    /// Sent counts per leaf session kind, in first-seen order.
    by_kind: Vec<(&'static str, u64)>,
    /// Index into `by_kind` of the most recently counted kind.
    last_kind: usize,
    /// Failed message views/downcasts per payload kind, in first-seen
    /// order: type-confused or byte-garbled deliveries an honest
    /// instance rejected.
    decode_miss: Vec<(&'static str, u64)>,
}

impl Metrics {
    /// Sent-message count for the leaf session kind `kind`.
    pub fn sent_by_kind(&self, kind: &str) -> u64 {
        self.by_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |&(_, c)| c)
    }

    /// All `(kind, sent count)` pairs, in first-seen order.
    pub fn kinds(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.by_kind.iter().copied()
    }

    /// All `(payload kind, failed view/downcast count)` pairs — how often
    /// honest code rejected a delivered payload of that kind. In-memory
    /// type confusion (`Garbage`) and wire-level byte garbage
    /// (`wire:unknown`, `wire:malformed`) both land here.
    pub fn decode_misses(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.decode_miss.iter().copied()
    }

    /// Total failed views/downcasts for payload kind `kind`.
    pub fn decode_miss_by_kind(&self, kind: &str) -> u64 {
        self.decode_miss
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |&(_, c)| c)
    }

    /// Records one sent envelope for `session`'s leaf kind.
    pub(crate) fn on_sent(&mut self, session: &SessionId) {
        self.sent += 1;
        let kind = session.last().map_or("root", |t| t.kind);
        // Fast path: consecutive sends are overwhelmingly same-kind. The
        // pointer test compares address *and* length, so a kind that is a
        // prefix slice of another is not taken for it.
        if let Some(&mut (k, ref mut c)) = self.by_kind.get_mut(self.last_kind) {
            if std::ptr::eq(k, kind) || k == kind {
                *c += 1;
                return;
            }
        }
        if let Some(i) = self.by_kind.iter().position(|(k, _)| *k == kind) {
            self.by_kind[i].1 += 1;
            self.last_kind = i;
        } else {
            self.by_kind.push((kind, 1));
            self.last_kind = self.by_kind.len() - 1;
        }
    }

    /// Folds `other`'s counters into `self`: counts add, virtual clocks
    /// take the later one. Threaded workers merge their thread-local
    /// metrics at quiescence; the experiment harness sums whole runs.
    pub fn merge(&mut self, other: &Metrics) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped_shunned += other.dropped_shunned;
        self.dropped_crashed += other.dropped_crashed;
        self.steps += other.steps;
        self.shun_events += other.shun_events;
        self.wire_frames += other.wire_frames;
        self.wire_bytes += other.wire_bytes;
        self.wire_malformed += other.wire_malformed;
        self.pool_reused += other.pool_reused;
        self.pool_alloc += other.pool_alloc;
        // Virtual clocks merge by max: completion time is a high-water
        // mark, not a sum.
        self.virtual_time = self.virtual_time.max(other.virtual_time);
        for &(kind, count) in &other.by_kind {
            add_kind(&mut self.by_kind, kind, count);
        }
        for &(kind, count) in &other.decode_miss {
            add_kind(&mut self.decode_miss, kind, count);
        }
    }
}

/// Adds `count` to `kind`'s entry of a first-seen-order kind table,
/// appending the entry when `kind` is new.
fn add_kind(table: &mut Vec<(&'static str, u64)>, kind: &'static str, count: u64) {
    match table.iter_mut().find(|(k, _)| *k == kind) {
        Some((_, v)) => *v += count,
        None => table.push((kind, count)),
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// No messages left in flight: the system is quiescent.
    Quiescent,
    /// The step budget was exhausted first.
    StepLimit,
    /// The caller's predicate requested a stop.
    Predicate,
}

/// Summary of a completed run, as data: the stop reason, the step count,
/// the [`Metrics`] and, when tracing was on, the [`TraceSummary`]. What a
/// run recorded leaves it through [`write_trace`](crate::trace::write_trace)
/// in the one trace schema; the counters are summed by the callers that
/// want them.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Why the run stopped.
    pub stop: StopReason,
    /// Delivery steps executed.
    pub steps: u64,
    /// Copy of the metrics at stop time.
    pub metrics: Metrics,
    /// Flight-recorder digest, present iff tracing was enabled via
    /// [`Runtime::set_trace`]. Diagnostic only: never folded into
    /// scenario fingerprints.
    pub trace: Option<TraceSummary>,
}

/// Derives party `p`'s deterministic RNG from the master seed.
///
/// Shared by every backend so a protocol's local randomness is identical
/// across backends for the same `(seed, party)`.
pub(crate) fn node_rng(seed: u64, party: usize) -> ChaCha12Rng {
    ChaCha12Rng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(party as u64),
    )
}

/// Builds party `p`'s [`Node`] for a configured system.
pub(crate) fn build_node(config: &NetConfig, party: usize) -> Node {
    Node::new(
        PartyId(party),
        config.n,
        config.t,
        node_rng(config.seed, party),
    )
}

/// Everything that happens *at* one party, written once for every host:
/// a [`SimNetwork`] party, a [`ShardedSimRuntime`] party slot, a
/// [`ThreadedRuntime`] worker, an `aft-partyd` process. It owns the
/// party's [`Node`], the [`Metrics`] of what that party sent and was
/// delivered, and the numbering of its sends; the driver around it owns
/// the buffer those sends wait in and keeps only what else is its own (a
/// queue and a scheduler, a channel, TCP links), deciding where each
/// drained send goes.
///
/// A party's own trace events — `Send`, `Deliver`, `Drop`, `Shun`,
/// `Output`, `DecodeMiss` — carry its own step, the number of deliveries
/// it has had, on every backend: `(party, step)` names a delivery.
///
/// [`SimNetwork`]: crate::SimNetwork
/// [`ShardedSimRuntime`]: crate::ShardedSimRuntime
/// [`ThreadedRuntime`]: crate::ThreadedRuntime
pub struct PartyHost {
    node: Node,
    metrics: Metrics,
    /// The party count: the stride of the send numbering.
    n: u64,
    /// Sends numbered so far. The next is `emit * n + party` — unique
    /// across parties and ascending per sender with no shared counter.
    emit: u64,
}

impl PartyHost {
    /// Hosts party `party` of a configured system on a fresh [`Node`].
    pub fn new(config: &NetConfig, party: usize) -> Self {
        PartyHost {
            node: build_node(config, party),
            metrics: Metrics::default(),
            n: config.n as u64,
            emit: 0,
        }
    }

    /// The hosted node (outputs, shun registry, …).
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// What this party sent and was delivered so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Starts `instance` at `session`, appending its initial sends to `out`
    /// for [`drain_sends`](PartyHost::drain_sends). A crashed party starts
    /// nothing.
    pub fn spawn(
        &mut self,
        session: SessionId,
        instance: Box<dyn Instance>,
        out: &mut Vec<Outgoing>,
    ) {
        out.append(&mut self.node.spawn(session, instance));
    }

    /// Crashes the party: it stops processing and sending.
    pub fn crash(&mut self) {
        self.node.crash();
    }

    /// Phase 1 of a crash-recovery: the party comes back up with its
    /// state of `session` retired — it rejoins with amnesia, and traffic
    /// arriving before the respawn early-buffers for replay.
    pub fn revive(&mut self, session: &SessionId) {
        self.node.recover();
        self.node.retire_session(session);
    }

    /// Delivers `env`, arriving at virtual time `vtime` where the driver
    /// keeps a clock: a crashed party counts it `dropped_crashed`, a
    /// shunned sender `dropped_shunned`, the rest `delivered`, together
    /// with the shuns and decode misses the dispatch caused. The outcome —
    /// `Deliver` or `Drop`, then any `DecodeMiss`, `Shun` and `Output` — is
    /// recorded in `sink`, and the handler's sends are appended to `out`
    /// for [`drain_sends`](PartyHost::drain_sends). Tracing only reads what
    /// the untraced path computes, so a traced run is bit-for-bit an
    /// untraced one.
    pub fn deliver(
        &mut self,
        env: Envelope,
        vtime: Option<u64>,
        sink: Option<&mut (dyn TraceSink + '_)>,
        out: &mut Vec<Outgoing>,
    ) {
        let Envelope {
            from,
            session,
            payload,
            seq,
            ..
        } = env;
        let (m, party) = (&mut self.metrics, self.node.id());
        m.steps += 1;
        if let Some(vt) = vtime {
            m.virtual_time = m.virtual_time.max(vt);
        }
        if self.node.is_crashed() {
            m.dropped_crashed += 1;
            if let Some(sink) = sink {
                sink.record(TraceEvent::Drop {
                    step: m.steps,
                    party,
                    from,
                    session,
                    seq,
                    reason: DropReason::Crashed,
                });
            }
            return;
        }
        // Discard stray miss records from outside deliveries (test probes,
        // spawn-time output inspection), then attribute the dispatch's own
        // failed views to this delivery.
        drain_misses(None);
        let (shuns, outputs) = (self.node.shun_event_count(), self.node.output_count());
        let traced = sink.is_some().then(|| session.clone());
        let delivered = self.node.deliver(from, session, payload, out);
        let misses = drain_misses(Some(&mut m.decode_miss));
        let new_shuns = self.node.shun_event_count() - shuns;
        m.shun_events += new_shuns;
        if delivered {
            m.delivered += 1;
        } else {
            m.dropped_shunned += 1;
        }
        let (Some(sink), Some(session)) = (sink, traced) else {
            return;
        };
        let step = m.steps;
        sink.record(if delivered {
            TraceEvent::Deliver {
                step,
                party,
                from,
                session: session.clone(),
                seq,
                vtime,
            }
        } else {
            TraceEvent::Drop {
                step,
                party,
                from,
                session: session.clone(),
                seq,
                reason: DropReason::Shunned,
            }
        });
        if misses > 0 {
            sink.record(TraceEvent::DecodeMiss {
                step,
                party,
                session: session.clone(),
                count: misses,
            });
        }
        if new_shuns > 0 {
            sink.record(TraceEvent::Shun {
                step,
                party,
                session: session.clone(),
                count: new_shuns,
            });
        }
        let new_outputs = self.node.output_count() - outputs;
        if new_outputs > 0 {
            sink.record(TraceEvent::Output {
                step,
                party,
                session,
                count: new_outputs,
            });
        }
    }

    /// Hands the sends waiting in `out` to `hand_on` in the order given,
    /// each with its number, each counted and recorded in `sink` as caused
    /// by the delivery at this party's step `causal_parent` (`None`: a
    /// spawn) before `hand_on` sees it — so the `Send` of an envelope is
    /// on record before anyone can record its `Deliver`. (A callback, not
    /// an iterator: yielding `(u64, Outgoing)` items one `next()` at a
    /// time cost the `sharded` engine a fifth of its run time.)
    pub fn drain_sends(
        &mut self,
        out: &mut Vec<Outgoing>,
        causal_parent: Option<u64>,
        mut sink: Option<&mut dyn TraceSink>,
        mut hand_on: impl FnMut(u64, Outgoing),
    ) {
        let from = self.node.id();
        for o in out.drain(..) {
            self.metrics.on_sent(&o.session);
            let seq = self.emit * self.n + from.0 as u64;
            self.emit += 1;
            if let Some(sink) = sink.as_deref_mut() {
                sink.record(TraceEvent::Send {
                    step: self.metrics.steps,
                    from,
                    to: o.to,
                    session: o.session.clone(),
                    seq,
                    causal_parent,
                });
            }
            hand_on(seq, o);
        }
    }
}

/// Virtual ticks between a recovery's state revival (phase 1: the party
/// un-crashes and its stale session slot is retired) and its respawn
/// (phase 2: the fresh instance starts). Deliveries landing in the gap
/// early-buffer in the fresh slot and replay at spawn, which is what
/// makes a mid-episode rejoin observable end-to-end.
const REJOIN_GRACE: u64 = 8;

/// One pending crash-recovery: at virtual time `at`, the crashed party
/// revives; [`REJOIN_GRACE`] ticks later its stored instance respawns.
struct RecoverPlan {
    party: PartyId,
    /// Virtual time of phase 1 (revival).
    at: u64,
    /// Session to retire and respawn.
    session: SessionId,
    /// The replacement instance, consumed at phase 2.
    instance: Box<dyn Instance>,
    /// Whether phase 1 has run.
    revived: bool,
}

impl RecoverPlan {
    fn revive(&self) -> RecoverPhase {
        RecoverPhase::Revive {
            party: self.party,
            at: self.at,
            session: self.session.clone(),
        }
    }

    fn respawn(self) -> RecoverPhase {
        RecoverPhase::Respawn {
            party: self.party,
            session: self.session,
            instance: self.instance,
        }
    }
}

/// One phase of a crash-recovery that has come due; the engine applies it.
pub(crate) enum RecoverPhase {
    /// Phase 1: the party un-crashes and its stale session slot is
    /// retired — it rejoins with amnesia, and traffic arriving before the
    /// respawn early-buffers for replay.
    Revive {
        party: PartyId,
        /// The plan's revival time, for the trace.
        at: u64,
        session: SessionId,
    },
    /// Phase 2: the stored instance starts and the early buffer replays.
    Respawn {
        party: PartyId,
        session: SessionId,
        instance: Box<dyn Instance>,
    },
}

/// An engine's scheduled crash-recoveries and the rule for when each of
/// their two phases fires. The engines own the clocks and how a phase is
/// applied; which phase is due, and in what order, is decided here.
#[derive(Default)]
pub(crate) struct Recoveries {
    plans: Vec<RecoverPlan>,
}

impl Recoveries {
    pub(crate) fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Schedules `party` to revive at virtual time `at` and to respawn
    /// `instance` under `session` [`REJOIN_GRACE`] ticks later.
    pub(crate) fn schedule(
        &mut self,
        party: PartyId,
        at: u64,
        session: SessionId,
        instance: Box<dyn Instance>,
    ) {
        self.plans.push(RecoverPlan {
            party,
            at,
            session,
            instance,
            revived: false,
        });
    }

    /// The virtual time by which every plan has run both phases — where
    /// an engine fast-forwards its clocks before forcing.
    pub(crate) fn horizon(&self) -> u64 {
        self.plans
            .iter()
            .map(|plan| plan.at.saturating_add(REJOIN_GRACE))
            .max()
            .unwrap_or(0)
    }

    /// Takes the phases that are due, in the order they must be applied:
    /// every due revival in plan order, then every due respawn in plan
    /// order. `now(party)` is the virtual clock that party's deliveries
    /// run on, `None` for an order-only scheduler.
    ///
    /// With `force` — at would-be quiescence, after the engine moved its
    /// clocks to [`horizon`](Recoveries::horizon) — whatever is left fires
    /// too, revival then respawn plan by plan: a scheduler without a clock
    /// never reports a phase due, but the rejoin must still happen before
    /// the run can be called quiescent.
    pub(crate) fn due(
        &mut self,
        now: impl Fn(PartyId) -> Option<u64>,
        force: bool,
    ) -> Vec<RecoverPhase> {
        let reached = |party, time: u64| now(party).is_some_and(|vnow| time <= vnow);
        let mut phases = Vec::new();
        for plan in &mut self.plans {
            if !plan.revived && reached(plan.party, plan.at) {
                plan.revived = true;
                phases.push(plan.revive());
            }
        }
        let mut i = 0;
        while i < self.plans.len() {
            let plan = &self.plans[i];
            if plan.revived && reached(plan.party, plan.at.saturating_add(REJOIN_GRACE)) {
                phases.push(self.plans.remove(i).respawn());
            } else {
                i += 1;
            }
        }
        if force {
            for plan in self.plans.drain(..) {
                if !plan.revived {
                    phases.push(plan.revive());
                }
                phases.push(plan.respawn());
            }
        }
        phases
    }
}

/// The front every engine holds alike, and over which every [`Runtime`]
/// method but `run` and `metrics` is written once: the parties' hosts, the
/// spawns waiting for the next run, where events are recorded, the
/// scheduled recoveries and the step clock. Built only inside this crate,
/// so only its engines implement [`Runtime`].
pub struct Parties {
    pub(crate) config: NetConfig,
    /// One host per party, in party order (on `rt=async`'s event loop
    /// instead while a run is in progress).
    pub(crate) hosts: Vec<PartyHost>,
    /// Spawns waiting for the next run, in call order.
    pub(crate) spawns: Vec<(PartyId, SessionId, Box<dyn Instance>)>,
    /// Where events are recorded: the flight recorder (see
    /// [`crate::trace`]), if enabled, behind the adaptive controller, if
    /// one is installed. Never allowed to perturb schedules, RNGs or
    /// metrics; with neither, one check per event.
    pub(crate) sink: Observer,
    /// Scheduled crash-recoveries; the engine fires them on its clocks.
    pub(crate) recoveries: Recoveries,
    /// Deliveries so far — what a step budget counts, and what the
    /// engine-wide events (`Crash`, `Recover`, `EpisodeStart` /
    /// `EpisodeEnd`, partitions) are stamped with.
    pub(crate) steps: u64,
    /// What [`Runtime::backend_name`] reports.
    label: &'static str,
    /// Whether the engine's recording order is a function of the seed: an
    /// engine says so when it builds its parties, and only then does it
    /// host adaptive adversaries and recoveries.
    deterministic: bool,
}

impl Parties {
    /// One fresh host per party of `config`'s system, for an engine
    /// reporting itself as `label`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n < 3t + 1` (the resilience bound assumed by
    /// every protocol in this workspace).
    pub(crate) fn new(config: NetConfig, label: &'static str, deterministic: bool) -> Self {
        assert!(config.n > 0, "need at least one party");
        assert!(
            config.n > 3 * config.t,
            "optimal resilience requires n >= 3t + 1 (n={}, t={})",
            config.n,
            config.t
        );
        Parties {
            hosts: (0..config.n).map(|p| PartyHost::new(&config, p)).collect(),
            config,
            spawns: Vec::new(),
            sink: Observer::default(),
            recoveries: Recoveries::default(),
            steps: 0,
            label,
            deterministic,
        }
    }

    /// Records the event `at(step)` builds, while anyone listens.
    fn record(&mut self, at: impl FnOnce(u64) -> TraceEvent) {
        let step = self.steps;
        if let Some(sink) = self.sink.active() {
            sink.record(at(step));
        }
    }

    /// A run begins.
    pub(crate) fn episode_start(&mut self) {
        self.record(|step| TraceEvent::EpisodeStart { step });
    }

    /// A run ended for `stop`, leaving `metrics`: records the episode's
    /// end and reports it.
    pub(crate) fn episode_end(&mut self, stop: StopReason, metrics: Metrics) -> RunReport {
        self.record(|step| TraceEvent::EpisodeEnd { step });
        RunReport {
            stop,
            steps: self.steps,
            metrics,
            trace: self.sink.summary(),
        }
    }

    /// Recovery phase 1 of `party`, planned for virtual time `at`, has
    /// run on its host.
    pub(crate) fn revived(&mut self, party: PartyId, at: u64) {
        self.record(|step| TraceEvent::Recover {
            step,
            vtime: at,
            party,
        });
    }

    /// Every host's metrics, merged in party order.
    pub(crate) fn host_metrics(&self) -> Metrics {
        let mut merged = Metrics::default();
        for host in &self.hosts {
            merged.merge(host.metrics());
        }
        merged
    }
}

/// One execution engine: deploy [`Instance`]s, run, read outputs.
///
/// Every engine implements the same deploy-run-inspect lifecycle:
///
/// 1. [`spawn`](Runtime::spawn) the protocol instances (and optionally
///    [`crash`](Runtime::crash) parties);
/// 2. [`run`](Runtime::run) until quiescence or a step budget;
/// 3. read [`output`](Runtime::output)s and [`metrics`](Runtime::metrics).
///
/// An engine writes only `run` and `metrics`: every other method has one
/// body, over the parties the engine holds. What an engine can host is
/// not a method it overrides either — an engine states `deterministic`
/// when it builds its parties, and only a deterministic one accepts
/// [`install_adaptive`](Runtime::install_adaptive) and
/// [`schedule_recover`](Runtime::schedule_recover). The trait is sealed:
/// only this crate's engines implement it.
///
/// The deterministic simulator additionally allows step-by-step execution
/// and mid-run inspection through its inherent methods; the trait
/// captures the portable subset.
///
/// # Examples
///
/// The identical deployment on two backends:
///
/// ```
/// use aft_sim::{runtime_by_name, Context, Instance, NetConfig, PartyId, Payload,
///               RuntimeExt, SessionId, SessionTag};
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
/// for backend in ["sim", "threaded"] {
///     let mut rt = runtime_by_name(backend, NetConfig::new(4, 1, 7)).unwrap();
///     for p in 0..4 {
///         rt.spawn(PartyId(p), sid.clone(), Box::new(Hello { heard: 0 }));
///     }
///     let report = rt.run(1_000_000);
///     assert_eq!(report.stop, aft_sim::StopReason::Quiescent, "{backend}");
///     for p in 0..4 {
///         assert_eq!(rt.output_as::<usize>(PartyId(p), &sid), Some(&4), "{backend}");
///     }
/// }
/// ```
pub trait Runtime {
    /// The parties and what every engine holds for them alike.
    #[doc(hidden)]
    fn parties(&self) -> &Parties;

    /// Mutable access to [`parties`](Runtime::parties).
    #[doc(hidden)]
    fn parties_mut(&mut self) -> &mut Parties;

    /// Runs until quiescence or until `max_steps` deliveries.
    fn run(&mut self, max_steps: u64) -> RunReport;

    /// Snapshot of the run metrics so far.
    fn metrics(&self) -> Metrics;

    /// The system's static configuration.
    fn config(&self) -> &NetConfig {
        &self.parties().config
    }

    /// Deploys `instance` for `party` at `session`. On every engine the
    /// instance starts, and its initial sends go in flight, when the next
    /// [`run`](Runtime::run) starts; waiting spawns start in call order.
    fn spawn(&mut self, party: PartyId, session: SessionId, instance: Box<dyn Instance>) {
        self.parties_mut().spawns.push((party, session, instance));
    }

    /// Crashes `party`: it stops processing and sending for the rest of
    /// the run. Its spawns still waiting for the next run never start, so
    /// a party crashed before its first run sends nothing; envelopes it
    /// already had in flight stay deliverable.
    fn crash(&mut self, party: PartyId) {
        let parties = self.parties_mut();
        parties.hosts[party.0].crash();
        parties.record(|step| TraceEvent::Crash { step, party });
    }

    /// The first output of `party` in `session`, if the host spawned the
    /// session there ([`spawn`](Runtime::spawn)) and it has output. A
    /// session spawned by an instance returns `None`: its value went to
    /// its parent and was not kept.
    fn output(&self, party: PartyId, session: &SessionId) -> Option<&Payload> {
        self.node(party).output(session)
    }

    /// Immutable access to `party`'s node (outputs, shun registry, …)
    /// between runs.
    fn node(&self, party: PartyId) -> &Node {
        self.parties().hosts[party.0].node()
    }

    /// Schedules `party` — crashed or about to be crashed — to recover at
    /// virtual time `at_vtime`: its stale `session` state is retired
    /// ([`Node::retire_session`]) and `instance` is respawned shortly
    /// after, replaying any early-buffered traffic, so a mid-episode
    /// rejoin is observable.
    ///
    /// Recovery needs a virtual clock: backends honor it only when their
    /// scheduler is the `net:` family (recoveries still fire at
    /// quiescence otherwise, but without meaningful timing). Returns
    /// `false` on an engine that is not deterministic (the threaded one)
    /// — the party then simply stays crashed.
    fn schedule_recover(
        &mut self,
        party: PartyId,
        at_vtime: u64,
        session: SessionId,
        instance: Box<dyn Instance>,
    ) -> bool {
        let parties = self.parties_mut();
        if parties.deterministic {
            parties
                .recoveries
                .schedule(party, at_vtime, session, instance);
        }
        parties.deterministic
    }

    /// Configures the flight recorder (see [`trace`](crate::trace)) for
    /// subsequent runs. Off by default; tracing is observational only
    /// and never perturbs schedules, RNGs or fingerprints.
    fn set_trace(&mut self, mode: TraceMode) {
        self.parties_mut().sink.set_trace(mode);
    }

    /// Detaches and returns the active trace sink, if any, leaving
    /// tracing off.
    fn take_trace(&mut self) -> Option<Box<dyn TraceSink>> {
        self.parties_mut().sink.take_trace()
    }

    /// Installs an adaptive-adversary controller (see
    /// [`adaptive`](crate::adaptive)) in front of the flight recorder: it
    /// is shown every `Deliver` event the backend records from here on,
    /// tracing on or off, and [`AdaptiveShell`](crate::AdaptiveShell)s
    /// consult its victim ledger on every activation. Returns `false` on
    /// an engine that is not deterministic (the threaded one), whose
    /// recording order is not a function of the seed — adaptive scenarios
    /// are rejected there.
    fn install_adaptive(&mut self, ctrl: SharedAdaptive) -> bool {
        let parties = self.parties_mut();
        if parties.deterministic {
            parties.sink.install(ctrl);
        }
        parties.deterministic
    }

    /// The installed adaptive controller, if any — lets multi-episode
    /// deployments reuse one victim ledger across episodes and lets
    /// invariant checkers read the final victim set.
    fn adaptive_handle(&self) -> Option<SharedAdaptive> {
        self.parties().sink.controller()
    }

    /// The backend's name (`"sim"`, `"threaded"`, …) for reports.
    fn backend_name(&self) -> &'static str {
        self.parties().label
    }
}

/// Convenience methods available on every [`Runtime`] (including trait
/// objects).
pub trait RuntimeExt: Runtime {
    /// Typed convenience over [`Runtime::output`]: `None` for a session
    /// spawned by an instance, too.
    fn output_as<T: 'static>(&self, party: PartyId, session: &SessionId) -> Option<&T> {
        self.output(party, session)
            .and_then(|p| p.downcast_ref::<T>())
    }

    /// Runs with an effectively unlimited step budget.
    fn run_to_quiescence(&mut self) -> RunReport {
        self.run(u64::MAX)
    }
}

impl<R: Runtime + ?Sized> RuntimeExt for R {}

/// Builds a boxed runtime from a backend spec
/// (`<family>[:<arg>][:<scheduler>]`) — the experiment-sweep counterpart
/// of [`scheduler_by_name`](crate::scheduler_by_name). The names, their
/// grammar and what each builds are the [`backend`](crate::backend)
/// table; this is [`Backend::parse`] then [`Backend::build`] for callers
/// that do not report why a spec was refused.
///
/// [`Backend::parse`]: crate::Backend::parse
/// [`Backend::build`]: crate::Backend::build
///
/// # Examples
///
/// ```
/// use aft_sim::{runtime_by_name, NetConfig};
/// let config = NetConfig::new(4, 1, 1);
/// assert_eq!(runtime_by_name("sharded:2:lifo", config).unwrap().backend_name(), "sharded");
/// assert!(runtime_by_name("hovercraft", config).is_none());
/// ```
pub fn runtime_by_name(name: &str, config: NetConfig) -> Option<Box<dyn Runtime>> {
    crate::Backend::parse(name).ok()?.build(config).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behaviors::SilentInstance;
    use crate::ids::SessionTag;
    use crate::instance::Context;

    /// The phases `r` reports due with every clock at `now`, as
    /// `(phase, party)` pairs.
    fn due_at(r: &mut Recoveries, now: Option<u64>, force: bool) -> Vec<(&'static str, usize)> {
        r.due(|_| now, force)
            .iter()
            .map(|phase| match phase {
                RecoverPhase::Revive { party, .. } => ("revive", party.0),
                RecoverPhase::Respawn { party, .. } => ("respawn", party.0),
            })
            .collect()
    }

    fn plan(r: &mut Recoveries, party: usize, at: u64) {
        let session = SessionId::root().child(SessionTag::new("rejoin", 0));
        r.schedule(PartyId(party), at, session, Box::new(SilentInstance));
    }

    #[test]
    fn recovery_phases_fire_once_each_on_the_clock() {
        let mut r = Recoveries::default();
        plan(&mut r, 3, 80);
        assert_eq!(r.horizon(), 80 + REJOIN_GRACE);
        assert_eq!(due_at(&mut r, Some(79), false), []);
        assert_eq!(due_at(&mut r, Some(80), false), [("revive", 3)]);
        // Revived, not yet respawned: nothing more inside the grace gap.
        assert_eq!(due_at(&mut r, Some(80 + REJOIN_GRACE - 1), false), []);
        assert!(!r.is_empty());
        assert_eq!(
            due_at(&mut r, Some(80 + REJOIN_GRACE), false),
            [("respawn", 3)]
        );
        assert!(r.is_empty(), "a respawned plan is gone");
        assert_eq!(due_at(&mut r, Some(u64::MAX), true), []);
    }

    #[test]
    fn a_clock_past_the_horizon_fires_revivals_before_respawns_in_plan_order() {
        let mut r = Recoveries::default();
        plan(&mut r, 2, 90);
        plan(&mut r, 1, 40);
        let horizon = r.horizon();
        assert_eq!(horizon, 90 + REJOIN_GRACE);
        assert_eq!(
            due_at(&mut r, Some(horizon), false),
            [("revive", 2), ("revive", 1), ("respawn", 2), ("respawn", 1)]
        );
        assert!(r.is_empty());
    }

    #[test]
    fn forcing_without_a_clock_rejoins_every_plan_in_plan_order() {
        let mut r = Recoveries::default();
        plan(&mut r, 2, 90);
        plan(&mut r, 1, 40);
        assert_eq!(due_at(&mut r, None, false), [], "no clock, nothing is due");
        assert_eq!(
            due_at(&mut r, None, true),
            [("revive", 2), ("respawn", 2), ("revive", 1), ("respawn", 1)]
        );
        assert!(r.is_empty());
        // A plan revived on the clock is not revived again when forced.
        plan(&mut r, 3, 10);
        assert_eq!(due_at(&mut r, Some(10), false), [("revive", 3)]);
        assert_eq!(due_at(&mut r, None, true), [("respawn", 3)]);
    }

    #[test]
    fn metrics_interned_kind_counting() {
        let mut m = Metrics::default();
        let a = SessionId::root().child(SessionTag::new("a", 0));
        let b = SessionId::root().child(SessionTag::new("b", 0));
        for _ in 0..5 {
            m.on_sent(&a);
        }
        m.on_sent(&b);
        m.on_sent(&a);
        assert_eq!(m.sent, 7);
        assert_eq!(m.sent_by_kind("a"), 6);
        assert_eq!(m.sent_by_kind("b"), 1);
        assert_eq!(m.sent_by_kind("zzz"), 0);
        assert_eq!(m.kinds().count(), 2);
    }

    #[test]
    fn a_kind_that_is_a_prefix_slice_of_another_counts_as_itself() {
        // Both kinds start at the same address; only their lengths differ.
        const K: &str = "cs-ba";
        let mut m = Metrics::default();
        m.on_sent(&SessionId::root().child(SessionTag::new(K, 0)));
        m.on_sent(&SessionId::root().child(SessionTag::new(&K[..2], 0)));
        assert_eq!(m.sent_by_kind("cs-ba"), 1);
        assert_eq!(m.sent_by_kind("cs"), 1);
        assert_eq!(m.kinds().count(), 2);
    }

    #[test]
    fn metrics_merge_accumulates() {
        let a_sid = SessionId::root().child(SessionTag::new("a", 0));
        let b_sid = SessionId::root().child(SessionTag::new("b", 0));
        let mut x = Metrics::default();
        x.on_sent(&a_sid);
        x.delivered = 3;
        let mut y = Metrics::default();
        y.on_sent(&a_sid);
        y.on_sent(&b_sid);
        y.dropped_crashed = 2;
        x.merge(&y);
        assert_eq!(x.sent, 3);
        assert_eq!(x.delivered, 3);
        assert_eq!(x.dropped_crashed, 2);
        assert_eq!(x.sent_by_kind("a"), 2);
        assert_eq!(x.sent_by_kind("b"), 1);
    }

    #[test]
    fn node_rng_is_per_party_and_per_seed() {
        use rand::Rng;
        let draw = |seed, p| -> u64 { node_rng(seed, p).gen() };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        assert_ne!(draw(1, 0), draw(2, 0));
    }

    /// A scripted life through a [`PartyHost`] — spawn, a delivery, a
    /// delivery from a shunned party, a crash while two sends wait in the
    /// driver's buffer, a delivery to the crashed party — and every number,
    /// counter and event it leaves.
    #[test]
    fn party_host_numbers_counts_and_records_a_scripted_life() {
        /// Greets everyone at start; on a message, shuns party 2 and
        /// sends two back.
        struct Chatty;
        impl Instance for Chatty {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send_all(0u8);
            }
            fn on_message(&mut self, from: PartyId, _p: &Payload, ctx: &mut Context<'_>) {
                ctx.shun(PartyId(2));
                ctx.send(from, 1u8);
                ctx.send(from, 2u8);
            }
        }
        fn sink(events: &mut Vec<TraceEvent>) -> Option<&mut dyn TraceSink> {
            Some(events)
        }
        let me = PartyId(1);
        let sid = SessionId::root().child(SessionTag::new("x", 0));
        let other = SessionId::root().child(SessionTag::new("y", 0));
        let env = |from, session: &SessionId, seq| Envelope {
            from: PartyId(from),
            to: me,
            session: session.clone(),
            payload: Payload::new(0u8),
            seq,
            born_step: 0,
        };
        let mut host = PartyHost::new(&NetConfig::new(4, 1, 9), me.0);
        let (mut out, mut events, mut seqs) = (Vec::new(), Vec::new(), Vec::new());

        host.spawn(sid.clone(), Box::new(Chatty), &mut out);
        host.drain_sends(&mut out, None, sink(&mut events), |seq, _| seqs.push(seq));
        host.deliver(env(3, &sid, 7), Some(40), sink(&mut events), &mut out);
        host.drain_sends(&mut out, Some(1), sink(&mut events), |seq, _| {
            seqs.push(seq)
        });
        host.deliver(env(2, &other, 6), None, sink(&mut events), &mut out);
        assert!(out.is_empty(), "a shunned sender reaches no handler");
        host.deliver(env(0, &sid, 11), None, None, &mut out);
        assert_eq!(out.len(), 2);
        // The sends die with the party in the driver's buffer, uncounted.
        host.crash();
        out.clear();
        host.deliver(env(0, &sid, 12), Some(55), sink(&mut events), &mut out);
        assert!(out.is_empty(), "a crashed party sends nothing");

        assert_eq!(seqs, [1, 5, 9, 13, 17, 21], "emit * n + party, in order");
        let m = host.metrics();
        assert_eq!(
            (m.sent, m.delivered, m.dropped_shunned, m.dropped_crashed),
            (6, 2, 1, 1)
        );
        assert_eq!((m.steps, m.shun_events, m.virtual_time), (4, 1, 55));
        let stamps: Vec<(&str, u64)> = events.iter().map(|e| (e.label(), e.step())).collect();
        let mut expected = vec![("send", 0); 4];
        expected.extend([("deliver", 1), ("shun", 1), ("send", 1), ("send", 1)]);
        expected.extend([("drop", 2), ("drop", 4)]);
        assert_eq!(stamps, expected, "the party's own step on every event");
        assert_eq!(
            events[4],
            TraceEvent::Deliver {
                step: 1,
                party: me,
                from: PartyId(3),
                session: sid.clone(),
                seq: 7,
                vtime: Some(40),
            }
        );
        assert!(matches!(
            events[6],
            TraceEvent::Send {
                seq: 17,
                to: PartyId(3),
                causal_parent: Some(1),
                ..
            }
        ));
        assert!(matches!(
            events[8..],
            [
                TraceEvent::Drop {
                    seq: 6,
                    reason: DropReason::Shunned,
                    ..
                },
                TraceEvent::Drop {
                    seq: 12,
                    reason: DropReason::Crashed,
                    ..
                },
            ]
        ));
    }

    /// One randomized bookkeeping op against a `Metrics`.
    #[derive(Debug, Clone, Copy)]
    enum MetricOp {
        Sent(usize),
        Miss(usize),
        Delivered,
        DroppedShunned,
        DroppedCrashed,
        Step,
        Shun,
        Pool,
    }

    const OP_KINDS: [&str; 4] = ["acast", "ba", "svss-share", "wire:unknown"];

    fn apply_op(m: &mut Metrics, op: MetricOp) {
        match op {
            MetricOp::Sent(i) => {
                m.on_sent(&SessionId::root().child(SessionTag::new(OP_KINDS[i % 4], 0)));
            }
            MetricOp::Miss(i) => {
                add_kind(&mut m.decode_miss, OP_KINDS[i % 4], 1);
            }
            MetricOp::Delivered => m.delivered += 1,
            MetricOp::DroppedShunned => m.dropped_shunned += 1,
            MetricOp::DroppedCrashed => m.dropped_crashed += 1,
            MetricOp::Step => m.steps += 1,
            MetricOp::Shun => m.shun_events += 1,
            MetricOp::Pool => {
                m.pool_reused += 1;
                m.pool_alloc += 1;
                m.wire_frames += 1;
                m.wire_bytes += 3;
                m.wire_malformed += 1;
            }
        }
    }

    /// Sorted per-kind counters, as returned by [`canon`].
    type KindCounts = Vec<(&'static str, u64)>;

    /// Order-independent view of every counter, for equality modulo the
    /// first-seen ordering of the interned maps.
    fn canon(m: &Metrics) -> (Vec<u64>, KindCounts, KindCounts) {
        let scalars = vec![
            m.sent,
            m.delivered,
            m.dropped_shunned,
            m.dropped_crashed,
            m.steps,
            m.shun_events,
            m.wire_frames,
            m.wire_bytes,
            m.wire_malformed,
            m.pool_reused,
            m.pool_alloc,
            m.virtual_time,
        ];
        let mut kinds: Vec<_> = m.kinds().collect();
        kinds.sort_unstable();
        let mut misses: Vec<_> = m.decode_misses().collect();
        misses.sort_unstable();
        (scalars, kinds, misses)
    }

    /// Decodes one random word into an op: low byte selects the variant,
    /// the next byte the session kind.
    fn decode_op(raw: u32) -> MetricOp {
        let kind = ((raw >> 8) & 0xFF) as usize;
        match raw % 8 {
            0 => MetricOp::Sent(kind),
            1 => MetricOp::Miss(kind),
            2 => MetricOp::Delivered,
            3 => MetricOp::DroppedShunned,
            4 => MetricOp::DroppedCrashed,
            5 => MetricOp::Step,
            6 => MetricOp::Shun,
            _ => MetricOp::Pool,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// `Metrics::merge` ∘ split ≡ unsplit: routing any op sequence
        /// through two halves (as the sharded and threaded backends route
        /// per-party/per-thread bookkeeping) and merging gives exactly
        /// the counters of applying the sequence to one `Metrics` —
        /// including the interned per-kind and decode-miss maps.
        #[test]
        fn metrics_merge_of_split_equals_unsplit(
            raw in proptest::collection::vec(proptest::any::<u32>(), 0..64),
        ) {
            let mut whole = Metrics::default();
            let mut left = Metrics::default();
            let mut right = Metrics::default();
            for &word in &raw {
                let op = decode_op(word);
                let half = if (word >> 16) & 1 == 0 { &mut left } else { &mut right };
                apply_op(&mut whole, op);
                apply_op(half, op);
            }
            let mut merged = left;
            merged.merge(&right);
            proptest::prop_assert_eq!(canon(&merged), canon(&whole));
        }
    }
}
