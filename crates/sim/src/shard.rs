//! The sharded deterministic simulator: parallel execution with a
//! reproducible schedule.
//!
//! [`ShardedSimRuntime`] runs the same discrete-event model as
//! [`SimNetwork`] but partitions parties across `k` worker shards so that
//! delivery work uses all cores. Determinism survives the parallelism
//! because the delivery schedule is defined *logically*, never by thread
//! timing:
//!
//! * every party owns a private inbox (a [`Pending`] slab queue), a
//!   private [`Scheduler`] instance, and a private scheduler RNG derived
//!   from `(seed, party)`;
//! * execution proceeds in **epochs**: in epoch `e` each party drains
//!   exactly the messages that were in its inbox at the epoch barrier,
//!   in an order chosen by its own scheduler — each pick selects a
//!   same-sender *batch* and delivers its whole run in FIFO order, so
//!   scheduling work is O(batches) while delivery stays per-message;
//!   everything it sends — intra-shard or cross-shard, even to itself —
//!   is buffered and only becomes deliverable in epoch `e + 1`;
//! * at the barrier, buffered envelopes flow through per-pair ordered
//!   channels and are merged into the destination inboxes **as
//!   sender-blocks, keyed by `(epoch, src)`**: each sender's channel for
//!   the epoch lands as *one batch record* in the destination's inbox,
//!   senders in ascending party order, envelopes within a batch in
//!   emission order. The handoff swaps O(n²) `Vec` handles and the inbox
//!   opens O(senders) batch records, not O(messages): a channel's parcels
//!   are linked into the inbox's run pool and the emptied channel, its
//!   allocation kept, goes back to the sender as its next outbox.
//!
//! Because every per-party decision depends only on `(seed, scheduler,
//! n)` and the merge key is a pure function of the logical send order,
//! the delivered-message sequence is a pure function of
//! `(seed, scheduler)` — *independent of the shard count `k` and of any
//! OS thread interleaving*. `sharded:1`, `sharded:4` and `sharded:16`
//! produce bit-identical traces, outputs and metrics; the shard count
//! only chooses how much hardware executes the schedule. Epoch barriers
//! also give structural fairness: every message is delivered exactly one
//! epoch after it was sent, so no aging cap is needed.
//!
//! What a party *is* — its node, its metrics, the numbering and recording
//! of its sends, the accounting of a delivery — is a [`PartyHost`], held
//! with the waiting spawns, the recorder, the recoveries and the step
//! clock in the parties' front every engine shares; this module adds what
//! is the shard's own: one lane per party — inbox, scheduler and RNG,
//! outbound channels — and the barrier. Each party records into a
//! buffer of its own, and the barrier flattens the buffers into the one
//! sink in party order — which is also when an adaptive controller sitting
//! in front of the recorder observes the epoch's deliveries, so its
//! decisions are a function of the logical schedule and take effect from
//! the next epoch on.
//!
//! Node state persists across [`run`](Runtime::run) calls: share→reconstruct
//! chains and other multi-phase deployments run unchanged.
//!
//! [`SimNetwork`]: crate::SimNetwork

use crate::ids::{PartyId, SessionId};
use crate::instance::Instance;
use crate::node::Outgoing;
use crate::queue::{Parcel, Pending};
use crate::runtime::{
    Metrics, NetConfig, Parties, PartyHost, RecoverPhase, RunReport, Runtime, StopReason,
};
use crate::scheduler::{RandomScheduler, Scheduler};
use crate::trace::{TraceEvent, TraceSink};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// What one party needs, beside its [`PartyHost`], to process an epoch
/// without touching any other party's state — the unit of shard
/// parallelism: the inbox, who picks from it, and the channels out.
struct Lane {
    /// Where the host's sends wait to be numbered (empty between acts).
    out: Vec<Outgoing>,
    /// Messages deliverable in the current epoch.
    inbox: Pending,
    /// This party's delivery-order policy over its own inbox.
    scheduler: Box<dyn Scheduler>,
    /// Scheduler randomness, derived from `(seed, party)`.
    rng: ChaCha12Rng,
    /// The per-pair ordered channels, sender side: `outbox[dst]` holds
    /// this party's envelopes to `dst` emitted this epoch, in emission
    /// order, as parcels (the pair is the channel's); swapped at the
    /// barrier for the channel's emptied buffer from the epoch before.
    outbox: Vec<Vec<Parcel>>,
    /// This epoch's events, while anyone listens (flattened into the
    /// global sink at the barrier in party order, so the stream — and what
    /// an adaptive controller in front of the recorder observes — is a pure
    /// function of the logical schedule: shells only *read* the victim
    /// ledger during parallel epochs, writes land at barriers). `step`
    /// fields are party-local delivery counts: `(party, step)` uniquely
    /// names a delivery.
    events: Option<Vec<TraceEvent>>,
}

/// A party's event buffer as the sink its [`PartyHost`] records into.
fn as_sink(events: &mut Option<Vec<TraceEvent>>) -> Option<&mut dyn TraceSink> {
    events.as_mut().map(|events| events as &mut dyn TraceSink)
}

impl Lane {
    /// Appends `host`'s waiting sends to the per-pair channels as
    /// emissions of `epoch` (crashed nodes produce no outgoing work, so
    /// this never sees output from one).
    fn flush_sends(&mut self, host: &mut PartyHost, epoch: u64, causal: Option<u64>) {
        let Lane {
            out: sends,
            outbox,
            events,
            ..
        } = self;
        host.drain_sends(sends, causal, as_sink(events), |seq, o| {
            outbox[o.to.0].push(Parcel {
                session: o.session,
                payload: o.payload,
                seq,
                born_step: epoch,
            });
        });
    }

    /// Delivers up to `limit` messages from the epoch inbox, buffering all
    /// resulting sends for the next epoch. Returns the number delivered.
    ///
    /// A scheduler pick selects a *batch* (a same-sender run) and the
    /// whole run is delivered in FIFO order before the next pick: one RNG
    /// draw and one Fenwick lookup per batch instead of per message, with
    /// the run read out of one contiguous buffer. The schedule stays a
    /// pure function of `(seed, scheduler)` — batching is defined by the
    /// logical send order, never by the shard partition.
    fn drain_epoch(&mut self, host: &mut PartyHost, epoch: u64, limit: u64) -> u64 {
        let mut done = 0;
        while !self.inbox.is_empty() && done < limit {
            let slot = self.scheduler.pick_slot(&self.inbox, &mut self.rng);
            let run = (self.inbox.run_len_of_slot(slot) as u64).min(limit - done);
            // Virtual arrival time of the picked batch, if this party's
            // scheduler models one (the `net:` family). Captured per pick:
            // the clock advances monotonically across picks.
            let vnow = self.scheduler.virtual_now();
            if let Some(events) = &mut self.events {
                events.push(TraceEvent::SchedulerPick {
                    step: host.metrics().steps,
                    party: host.node().id(),
                    queued: self.inbox.len(),
                    run: run as usize,
                });
            }
            for _ in 0..run {
                let env = self.inbox.take_slot(slot);
                let sink = as_sink(&mut self.events);
                host.deliver(env, vnow, sink, &mut self.out);
                // Party-local step of the delivery that just ran: the
                // causal parent of everything it emitted.
                let parent = host.metrics().steps;
                self.flush_sends(host, epoch, Some(parent));
            }
            done += run;
        }
        done
    }
}

/// Refills the inboxes of one shard's lanes (`chunk`, its first party
/// `first`) from `channels[local dst][src]` — the per-pair ordered
/// channels of this epoch — in `(epoch, src)` sender-block order: each
/// sender's whole channel becomes one inbox batch, senders in ascending
/// party order. Comparison-free: one batch record per sender, its parcels
/// linked into the inbox's run pool. Each channel is left empty with its
/// allocation, for the barrier to hand back to its sender.
fn merge_into_shard(first: usize, chunk: &mut [Lane], channels: &mut [Vec<Vec<Parcel>>]) {
    for (i, (lane, pairs)) in chunk.iter_mut().zip(channels.iter_mut()).enumerate() {
        let to = PartyId(first + i);
        for (from, pair) in pairs.iter_mut().enumerate() {
            lane.inbox.push_batch(PartyId(from), to, pair);
        }
    }
}

/// The sharded deterministic simulator (see the [module docs](self) for
/// the epoch/merge model).
///
/// Spawns start when the next [`run`](Runtime::run) does, as on every
/// engine, so a party [`crash`](Runtime::crash)ed before then starts
/// nothing. Node state persists across `run` calls.
///
/// # Examples
///
/// ```
/// use aft_sim::{Context, Instance, NetConfig, PartyId, Payload, Runtime, RuntimeExt,
///               SessionId, SessionTag, ShardedSimRuntime};
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
/// let mut rt = ShardedSimRuntime::new(NetConfig::new(4, 1, 7), 2);
/// for p in 0..4 {
///     rt.spawn(PartyId(p), sid.clone(), Box::new(Hello { heard: 0 }));
/// }
/// let report = rt.run(1_000_000);
/// assert_eq!(report.stop, aft_sim::StopReason::Quiescent);
/// for p in 0..4 {
///     assert_eq!(rt.output_as::<usize>(PartyId(p), &sid), Some(&4));
/// }
/// ```
pub struct ShardedSimRuntime {
    /// The parties; their step clock counts deliveries across all shards
    /// and epochs, and the lanes' event buffers flatten into their sink at
    /// every barrier, in party order.
    parties: Parties,
    /// Worker shard count (clamped to `n`).
    k: usize,
    /// OS threads used to execute the shards (`min(k, cores)`): spawning
    /// more workers than cores only adds overhead, and the logical
    /// schedule never depends on the execution arrangement.
    workers: usize,
    /// One lane per party, in party order.
    lanes: Vec<Lane>,
    /// Completed epoch barriers (also the `born_step` stamp of emissions).
    epoch: u64,
    /// The per-pair ordered channels, receiver side: `channels[dst][src]`
    /// is filled by the barrier handoff and drained by the merge.
    channels: Vec<Vec<Vec<Parcel>>>,
}

impl ShardedSimRuntime {
    /// Creates a sharded simulator with `k` worker shards and the random
    /// per-party scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n < 3t + 1`, or `k == 0`.
    pub fn new(config: NetConfig, k: usize) -> Self {
        Self::with_scheduler_factory(config, k, |_| Box::new(RandomScheduler))
    }

    /// Creates a sharded simulator whose party `p` uses the scheduler
    /// built by `factory(p)`.
    ///
    /// Each party needs its *own* scheduler instance (schedulers are
    /// stateful), which is also what keeps the schedule independent of
    /// the shard partition.
    ///
    /// # Panics
    ///
    /// See [`ShardedSimRuntime::new`].
    pub fn with_scheduler_factory(
        config: NetConfig,
        k: usize,
        factory: impl Fn(PartyId) -> Box<dyn Scheduler>,
    ) -> Self {
        let parties = Parties::new(config, "sharded", true);
        assert!(k > 0, "need at least one shard");
        let k = k.min(config.n);
        let lanes = (0..config.n)
            .map(|p| {
                // Every party gets its own scheduler instance; configuring
                // each from the same `(seed, spec)` keeps virtual-time
                // plans (partitions, latency) identical across parties and
                // shard counts.
                let mut scheduler = factory(PartyId(p));
                scheduler.configure(&config);
                Lane {
                    out: Vec::new(),
                    inbox: Pending::new(),
                    scheduler,
                    rng: shard_sched_rng(config.seed, p),
                    outbox: (0..config.n).map(|_| Vec::new()).collect(),
                    events: None,
                }
            })
            .collect();
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        ShardedSimRuntime {
            parties,
            k,
            workers: k.min(cores),
            lanes,
            epoch: 0,
            channels: (0..config.n)
                .map(|_| (0..config.n).map(|_| Vec::new()).collect())
                .collect(),
        }
    }

    /// Shard width: party `p` lives on shard `p / chunk_width()`.
    fn chunk_width(&self) -> usize {
        self.lanes.len().div_ceil(self.k)
    }

    /// The number of worker shards (after clamping to `n`).
    pub fn shards(&self) -> usize {
        self.k
    }

    /// Messages deliverable in the next epoch (diagnostics).
    pub fn pending_len(&self) -> usize {
        self.lanes.iter().map(|lane| lane.inbox.messages()).sum()
    }

    /// Starts `instance` at `party` as an epoch emission: its sends have
    /// no causal parent, they are DAG roots.
    fn start(&mut self, party: PartyId, session: SessionId, instance: Box<dyn Instance>) {
        let (host, lane) = (&mut self.parties.hosts[party.0], &mut self.lanes[party.0]);
        host.spawn(session, instance, &mut lane.out);
        lane.flush_sends(host, self.epoch, None);
    }

    /// The epoch barrier: swaps every per-pair channel's sender side with
    /// its receiver side (an O(n²) swap of `Vec` handles, no envelope
    /// moves; the sender gets back the buffer the last merge emptied) and
    /// refills the inboxes in `(epoch, src)` sender-block order — each
    /// sender's channel becomes one inbox batch, senders in ascending
    /// party order. The merge itself runs shard-parallel: each worker
    /// refills only its own parties' inboxes. Also flattens the per-party
    /// flight-recorder buffers into the global sink.
    fn merge_barrier(&mut self) {
        let mut moved = 0;
        for (src, lane) in self.lanes.iter_mut().enumerate() {
            for (dst, pair) in lane.outbox.iter_mut().enumerate() {
                moved += pair.len();
                std::mem::swap(&mut self.channels[dst][src], pair);
            }
        }
        let chunk = self.chunk_width();
        let shards = self
            .lanes
            .chunks_mut(chunk)
            .zip(self.channels.chunks_mut(chunk))
            .enumerate();
        if self.workers == 1 || moved < 4096 {
            for (i, (shard, channels)) in shards {
                merge_into_shard(i * chunk, shard, channels);
            }
        } else {
            std::thread::scope(|scope| {
                for (i, (shard, channels)) in shards {
                    scope.spawn(move || merge_into_shard(i * chunk, shard, channels));
                }
            });
        }
        if let Some(sink) = self.parties.sink.active() {
            for lane in &mut self.lanes {
                if let Some(local) = &mut lane.events {
                    for event in local.drain(..) {
                        sink.record(event);
                    }
                }
            }
            // Every party derives the identical partition plan from
            // `(seed, spec)`, so party 0's scheduler speaks for all of
            // them; draining only one copy avoids duplicate lifecycle
            // events in the flight recorder.
            let mut net_events = Vec::new();
            self.lanes[0].scheduler.drain_net_events(&mut net_events);
            for event in net_events {
                sink.record(event.traced(self.parties.steps));
            }
        }
        self.epoch += 1;
    }

    /// Processes one epoch of deliveries across the shard workers.
    ///
    /// Each shard is a contiguous block of parties; the logical outcome
    /// never depends on how shards map to OS threads, so small epochs run
    /// inline and the worker pool is capped at the core count.
    fn deliver_epoch_parallel(&mut self) -> u64 {
        let epoch = self.epoch;
        let drain = |lanes: &mut [Lane], hosts: &mut [PartyHost]| -> u64 {
            lanes
                .iter_mut()
                .zip(hosts)
                .map(|(lane, host)| lane.drain_epoch(host, epoch, u64::MAX))
                .sum()
        };
        if self.workers == 1 || self.pending_len() < 256 {
            return drain(&mut self.lanes, &mut self.parties.hosts);
        }
        let chunk = self.chunk_width();
        let hosts = self.parties.hosts.chunks_mut(chunk);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.k);
            for (lanes, hosts) in self.lanes.chunks_mut(chunk).zip(hosts) {
                handles.push(scope.spawn(move || drain(lanes, hosts)));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .sum()
        })
    }

    /// Exact-budget fallback: delivers at most `limit` messages
    /// sequentially in party order. Used only when the remaining step
    /// budget is smaller than the epoch, so `StepLimit` stops are exact
    /// and identical for every shard count.
    fn deliver_epoch_budgeted(&mut self, limit: u64) -> u64 {
        let epoch = self.epoch;
        let mut done = 0;
        for (lane, host) in self.lanes.iter_mut().zip(&mut self.parties.hosts) {
            done += lane.drain_epoch(host, epoch, limit - done);
            if done == limit {
                break;
            }
        }
        done
    }

    /// Applies the recovery phases that are due on each plan party's own
    /// virtual clock (see [`Recoveries::due`]). With `force` — the
    /// would-be-quiescence path — every party's clock first jumps to the
    /// last plan's horizon and everything fires. Returns whether anything
    /// fired (the caller runs a barrier so the respawn's sends become
    /// deliverable).
    fn fire_recoveries(&mut self, force: bool) -> bool {
        let recoveries = &mut self.parties.recoveries;
        if recoveries.is_empty() {
            return false;
        }
        if force {
            let target = recoveries.horizon();
            for lane in &mut self.lanes {
                lane.scheduler.fast_forward(target);
            }
        }
        let lanes = &self.lanes;
        let phases = recoveries.due(|party| lanes[party.0].scheduler.virtual_now(), force);
        let fired = !phases.is_empty();
        for phase in phases {
            match phase {
                // The node comes back up (deliveries stop counting as
                // `dropped_crashed`) with its pre-crash session state
                // retired: traffic arriving before the respawn
                // early-buffers for replay.
                RecoverPhase::Revive { party, at, session } => {
                    self.parties.hosts[party.0].revive(&session);
                    self.parties.revived(party, at);
                }
                RecoverPhase::Respawn {
                    party,
                    session,
                    instance,
                } => self.start(party, session, instance),
            }
        }
        fired
    }
}

/// Derives party `p`'s scheduler RNG — a stream distinct from the node
/// RNGs ([`node_rng`](crate::runtime)) and shared by every shard count.
fn shard_sched_rng(seed: u64, party: usize) -> ChaCha12Rng {
    ChaCha12Rng::seed_from_u64(
        seed.wrapping_mul(0xA076_1D64_78BD_642F)
            .wrapping_add(party as u64)
            .wrapping_add(0x5EED_0000),
    )
}

impl Runtime for ShardedSimRuntime {
    fn parties(&self) -> &Parties {
        &self.parties
    }

    fn parties_mut(&mut self) -> &mut Parties {
        &mut self.parties
    }

    fn run(&mut self, max_steps: u64) -> RunReport {
        // The sink changes only between runs: a lane buffers events while
        // anyone listens, and only then.
        let on = self.parties.sink.is_on();
        for lane in &mut self.lanes {
            if lane.events.is_some() != on {
                lane.events = on.then(Vec::new);
            }
        }
        self.parties.episode_start();
        for (party, session, instance) in std::mem::take(&mut self.parties.spawns) {
            self.start(party, session, instance);
        }
        self.merge_barrier();
        let mut run_steps = 0;
        let reason = loop {
            if self.fire_recoveries(false) {
                self.merge_barrier();
            }
            if self.pending_len() == 0 {
                if self.fire_recoveries(true) {
                    self.merge_barrier();
                    continue;
                }
                break StopReason::Quiescent;
            }
            if run_steps >= max_steps {
                break StopReason::StepLimit;
            }
            let remaining = max_steps - run_steps;
            let workload = self.pending_len() as u64;
            let done = if workload > remaining {
                self.deliver_epoch_budgeted(remaining)
            } else {
                self.deliver_epoch_parallel()
            };
            run_steps += done;
            self.parties.steps += done;
            self.merge_barrier();
        };
        let metrics = self.metrics();
        self.parties.episode_end(reason, metrics)
    }

    fn metrics(&self) -> Metrics {
        // Merged in party order, so per-kind ordering is a pure function
        // of the schedule — identical for every shard count.
        let mut merged = self.parties.host_metrics();
        for lane in &self.lanes {
            let (reused, added) = lane.inbox.pool_stats();
            merged.pool_reused += reused;
            merged.pool_alloc += added;
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SessionTag;
    use crate::instance::Context;
    use crate::payload::Payload;
    use crate::runtime::RuntimeExt;
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

    fn flood_run(seed: u64, k: usize) -> ShardedSimRuntime {
        let mut rt = ShardedSimRuntime::new(NetConfig::new(4, 1, seed), k);
        for p in 0..4 {
            rt.spawn(PartyId(p), sid(), Box::new(Flood::new(3)));
        }
        rt.run(1_000_000);
        rt
    }

    #[test]
    fn flood_reaches_quiescence_and_outputs() {
        for k in [1, 2, 4] {
            let rt = flood_run(3, k);
            for p in 0..4 {
                assert_eq!(
                    rt.output_as::<usize>(PartyId(p), &sid()),
                    Some(&12),
                    "k={k} party {p}"
                );
            }
        }
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_and_shard_count_free() {
        // Same seed: identical traces for every k — and across repeated
        // runs, regardless of thread interleaving.
        let trace = |seed: u64, k: usize| {
            let mut rt = ShardedSimRuntime::new(NetConfig::new(4, 1, seed), k);
            rt.set_trace(TraceMode::Full);
            for p in 0..4 {
                rt.spawn(PartyId(p), sid(), Box::new(Flood::new(3)));
            }
            rt.run(1_000_000);
            rt.take_trace().expect("tracing on").snapshot()
        };
        let reference = trace(9, 1);
        assert!(!reference.is_empty());
        for k in [1, 2, 3, 4] {
            assert_eq!(trace(9, k), reference, "k={k}");
        }
        assert_ne!(trace(10, 2), reference, "different seeds should differ");
    }

    #[test]
    fn metrics_identical_across_shard_counts() {
        let reference = flood_run(5, 1).metrics();
        for k in [2, 4] {
            let m = flood_run(5, k).metrics();
            assert_eq!(m.sent, reference.sent, "k={k}");
            assert_eq!(m.delivered, reference.delivered, "k={k}");
            assert_eq!(
                m.kinds().collect::<Vec<_>>(),
                reference.kinds().collect::<Vec<_>>(),
                "k={k}: per-kind counts and first-seen order"
            );
        }
    }

    #[test]
    fn crash_before_run_keeps_the_party_from_starting() {
        let mut rt = ShardedSimRuntime::new(NetConfig::new(4, 1, 1), 2);
        for p in 0..4 {
            rt.spawn(PartyId(p), sid(), Box::new(Flood::new(1)));
        }
        rt.crash(PartyId(3));
        let report = rt.run(1_000_000);
        assert_eq!(report.stop, StopReason::Quiescent);
        assert!(rt.output(PartyId(3), &sid()).is_none());
        assert_eq!(report.metrics.sent, 12, "three live broadcasters");
        assert_eq!(report.metrics.dropped_crashed, 3, "deliveries to P3");
    }

    #[test]
    fn step_limit_is_exact_and_resumable() {
        let mut rt = ShardedSimRuntime::new(NetConfig::new(4, 1, 1), 2);
        for p in 0..4 {
            rt.spawn(PartyId(p), sid(), Box::new(Flood::new(3)));
        }
        let report = rt.run(3);
        assert_eq!(report.stop, StopReason::StepLimit);
        assert_eq!(report.steps, 3, "budgeted epochs stop exactly");
        // Resume to quiescence; totals match an unbudgeted run.
        let report = rt.run(1_000_000);
        assert_eq!(report.stop, StopReason::Quiescent);
        let full = flood_run(1, 2).metrics();
        assert_eq!(report.metrics.sent, full.sent);
        assert_eq!(report.metrics.delivered, full.delivered);
    }

    #[test]
    fn nodes_persist_across_runs() {
        // Spawn a second session after the first run: outputs from the
        // first session stay readable and the second runs to completion
        // on the same nodes (unlike threaded episodes).
        let other = SessionId::root().child(SessionTag::new("second", 0));
        let mut rt = ShardedSimRuntime::new(NetConfig::new(4, 1, 8), 2);
        for p in 0..4 {
            rt.spawn(PartyId(p), sid(), Box::new(Flood::new(2)));
        }
        rt.run(1_000_000);
        for p in 0..4 {
            rt.spawn(PartyId(p), other.clone(), Box::new(Flood::new(1)));
        }
        let report = rt.run(1_000_000);
        assert_eq!(report.stop, StopReason::Quiescent);
        for p in 0..4 {
            assert_eq!(rt.output_as::<usize>(PartyId(p), &sid()), Some(&8));
            assert_eq!(rt.output_as::<usize>(PartyId(p), &other), Some(&4));
        }
    }

    #[test]
    fn outboxes_and_pool_nodes_recycle() {
        /// Three pings per wave, so each per-pair channel carries a
        /// multi-envelope batch — linked through the inbox's run pool,
        /// whose drained nodes the next wave's runs take.
        struct Burst {
            waves: u32,
            heard: usize,
        }
        impl Instance for Burst {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                for _ in 0..3 {
                    ctx.send_all(0u32);
                }
            }
            fn on_message(&mut self, _f: PartyId, _p: &Payload, ctx: &mut Context<'_>) {
                self.heard += 1;
                if self.heard.is_multiple_of(3 * ctx.n()) && self.waves > 0 {
                    self.waves -= 1;
                    for _ in 0..3 {
                        ctx.send_all(0u32);
                    }
                }
            }
        }
        let mut rt = ShardedSimRuntime::new(NetConfig::new(4, 1, 3), 2);
        for p in 0..4 {
            rt.spawn(PartyId(p), sid(), Box::new(Burst { waves: 3, heard: 0 }));
        }
        rt.run(1_000_000);
        let m = rt.metrics();
        assert!(
            m.pool_reused > m.pool_alloc,
            "steady-state bursts must reuse pool nodes (reused {}, added {})",
            m.pool_reused,
            m.pool_alloc
        );
        // Every channel buffer went back to its sender: the outboxes and
        // the receiver-side channels keep their allocations, emptied.
        for lane in &rt.lanes {
            assert!(lane
                .outbox
                .iter()
                .all(|out| out.is_empty() && out.capacity() >= 3));
        }
        for pairs in &rt.channels {
            assert!(pairs
                .iter()
                .all(|pair| pair.is_empty() && pair.capacity() >= 3));
        }
    }

    #[test]
    fn message_conservation_at_quiescence() {
        let rt = flood_run(7, 4);
        let m = rt.metrics();
        assert_eq!(m.sent, m.delivered + m.dropped_shunned + m.dropped_crashed);
        assert_eq!(m.sent_by_kind("t"), m.sent);
        assert_eq!(rt.pending_len(), 0);
    }

    #[test]
    fn shard_count_clamps_to_n() {
        let rt = ShardedSimRuntime::new(NetConfig::new(4, 1, 0), 64);
        assert_eq!(rt.shards(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn rejects_zero_shards() {
        let _ = ShardedSimRuntime::new(NetConfig::new(4, 1, 0), 0);
    }

    #[test]
    fn per_party_schedulers_change_the_schedule() {
        let trace_with = |sched: &str| {
            let mut rt =
                ShardedSimRuntime::with_scheduler_factory(NetConfig::new(4, 1, 2), 2, |_| {
                    crate::scheduler_by_name(sched).unwrap()
                });
            rt.set_trace(TraceMode::Full);
            for p in 0..4 {
                rt.spawn(PartyId(p), sid(), Box::new(Flood::new(3)));
            }
            rt.run(1_000_000);
            rt.take_trace().expect("tracing on").snapshot()
        };
        assert_ne!(trace_with("fifo"), trace_with("lifo"));
        assert_eq!(trace_with("fifo"), trace_with("fifo"));
    }
}
