//! Message schedulers: the asynchronous adversary's delivery-order control.
//!
//! The asynchronous model lets the adversary delay any message by an
//! arbitrary *finite* amount. A [`Scheduler`] is exactly that power: it
//! picks which in-flight message is delivered next. Every scheduler here
//! is *fair* — no message is deferred forever — which is the hypothesis of
//! the paper's almost-sure-termination claims. The aging cap
//! [`MAX_AGE`] enforces fairness even for adversarial order-only
//! policies; the virtual-time `net:` family is fair by construction and
//! exempt from it.
//!
//! Schedulers see only the arrival-ordered [`MsgMeta`] view of the
//! in-flight queue ([`Pending`]) — endpoints, sequence numbers, ages
//! and batch sizes — never sessions or payloads, which keeps the
//! delivery hot path free of envelope copies. Since the queue batches
//! same-`(src, dst)` runs, a pick selects a *batch* and the network
//! delivers its oldest envelope; the batch keeps its arrival position
//! until its run drains.

use crate::ids::PartyId;
use crate::queue::{BatchSlot, Pending};
use rand::Rng;
use rand_chacha::ChaCha12Rng;

#[allow(unused_imports)] // doc links
use crate::queue::MsgMeta;

/// The fairness cap: once the oldest in-flight envelope has waited more
/// than this many delivery steps, `sim` delivers it regardless of the
/// scheduler's preference — generous, but finite: adversaries can starve
/// hard, never forever. This enforces the "every message is eventually
/// delivered" hypothesis of the asynchronous model.
///
/// Applies to order-only schedulers. One that keeps a virtual clock
/// ([`Scheduler::virtual_now`]) delivers every message at a finite time
/// of its own choosing and is never overridden.
///
/// Where the queue runs deeper than this many deliveries the cap, not
/// the scheduler, makes most picks: 95.4 % of them in the benchmark's
/// n = 32 BA under `random` (so that schedule is mostly FIFO), 33.1 % in
/// its n = 7 FBA, none in its shallower workloads
/// ([`SimNetwork::cap_forced_picks`](crate::SimNetwork::cap_forced_picks)
/// counts them; `tests/full_stack.rs` pins both counts).
pub const MAX_AGE: u64 = 4096;

/// Picks the next message to deliver from the pending set.
///
/// `pending` is never empty when `pick` is called. The returned index is
/// an arrival-order position and must be `< pending.len()`.
///
/// An instance is bound to **one** [`Pending`] for its life: every call
/// passes the same queue (each backend owns one queue per scheduler), so
/// a scheduler may carry state about it from pick to pick. Between two
/// picks the backend pushes and takes envelopes from the batch the last
/// pick returned — all of its run, part of it, or none. Nothing else
/// leaves the queue, except under the fairness cap ([`MAX_AGE`]), which
/// only order-only schedulers are subject to: it takes the oldest batch's
/// head without asking the scheduler.
pub trait Scheduler: Send {
    /// Chooses the arrival-order index of the next message to deliver.
    fn pick(&mut self, pending: &Pending, rng: &mut ChaCha12Rng) -> usize;

    /// The same choice as [`pick`](Scheduler::pick), as the picked
    /// batch's handle — what the engines deliver from. A scheduler that
    /// finds its pick by handle overrides this, so that no rank is
    /// computed only to be turned back into the handle.
    fn pick_slot(&mut self, pending: &Pending, rng: &mut ChaCha12Rng) -> BatchSlot {
        let i = self.pick(pending, rng);
        debug_assert!(i < pending.len(), "scheduler index out of range");
        pending.slot_of(i.min(pending.len() - 1))
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str {
        "scheduler"
    }

    /// Called once by the backend before any delivery, with the
    /// network-wide configuration. Schedulers that derive per-run plans
    /// from `(seed, n, t)` — the virtual-time `net:` family's partition
    /// cut — hook this; order-only schedulers ignore it.
    fn configure(&mut self, _config: &crate::runtime::NetConfig) {}

    /// The scheduler's virtual clock in virtual milliseconds, if it
    /// keeps one (`None` for order-only schedulers).
    fn virtual_now(&self) -> Option<u64> {
        None
    }

    /// Advances the virtual clock to at least `to` (used to force
    /// scheduled recoveries due at quiescence). No-op without a clock.
    fn fast_forward(&mut self, _to: u64) {}

    /// Drains queued network-lifecycle events (partition start/heal)
    /// into `out`. Backends feed these to the trace.
    fn drain_net_events(&mut self, _out: &mut Vec<crate::net::NetEvent>) {}
}

/// Delivers messages in the order they were sent (a synchronous-looking,
/// best-case network).
#[derive(Debug, Default, Clone, Copy)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn pick(&mut self, _pending: &Pending, _rng: &mut ChaCha12Rng) -> usize {
        0
    }
    fn name(&self) -> &'static str {
        "fifo"
    }
}

/// Delivers a uniformly random pending message — the standard *oblivious*
/// asynchronous adversary. Fair with probability 1.
#[derive(Debug, Default, Clone, Copy)]
pub struct RandomScheduler;

impl Scheduler for RandomScheduler {
    fn pick(&mut self, pending: &Pending, rng: &mut ChaCha12Rng) -> usize {
        rng.gen_range(0..pending.len())
    }
    fn name(&self) -> &'static str {
        "random"
    }
}

/// An adversarial scheduler that starves a victim set: messages to or from
/// victims are deferred while any non-victim message is pending. The
/// network-level aging cap still forces eventual delivery, so the adversary
/// delays victims "up to any finite amount" — the paper's model, at its
/// most hostile.
#[derive(Debug, Clone)]
pub struct StarveScheduler {
    /// The victims as listed: a handful of ids, and nothing is sized by
    /// one — an id no party has simply never matches.
    victims: Vec<PartyId>,
    /// Scratch buffer of non-victim indices, reused across picks.
    clean: Vec<usize>,
}

impl StarveScheduler {
    /// Starves messages touching any party in `victims`.
    pub fn new<I: IntoIterator<Item = PartyId>>(victims: I) -> Self {
        StarveScheduler {
            victims: victims.into_iter().collect(),
            clean: Vec::new(),
        }
    }

    /// Parses `starve:<id>[,<id>…]`.
    pub(crate) fn parse(spec: &str) -> Option<Self> {
        let ids = spec.strip_prefix("starve:")?.split(',');
        let victims: Option<Vec<PartyId>> =
            ids.map(|id| id.trim().parse().ok().map(PartyId)).collect();
        Some(StarveScheduler::new(victims?))
    }

    /// The starved parties, as listed.
    pub(crate) fn victims(&self) -> &[PartyId] {
        &self.victims
    }
}

impl Scheduler for StarveScheduler {
    fn pick(&mut self, pending: &Pending, rng: &mut ChaCha12Rng) -> usize {
        self.clean.clear();
        for (i, m) in pending.metas().enumerate() {
            if !self.victims.contains(&m.from) && !self.victims.contains(&m.to) {
                self.clean.push(i);
            }
        }
        if self.clean.is_empty() {
            rng.gen_range(0..pending.len())
        } else {
            self.clean[rng.gen_range(0..self.clean.len())]
        }
    }
    fn name(&self) -> &'static str {
        "starve"
    }
}

/// Reorders within a sliding window: picks uniformly among the `window`
/// oldest pending messages. `window = 1` degenerates to FIFO; large windows
/// approach [`RandomScheduler`]. Models bounded out-of-orderness.
#[derive(Debug, Clone, Copy)]
pub struct WindowScheduler {
    window: usize,
}

impl WindowScheduler {
    /// Creates a scheduler picking among the `window` oldest messages.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        WindowScheduler { window }
    }
}

impl Scheduler for WindowScheduler {
    fn pick(&mut self, pending: &Pending, rng: &mut ChaCha12Rng) -> usize {
        // Arrival order means the first `window` entries are the oldest.
        let lim = self.window.min(pending.len());
        rng.gen_range(0..lim)
    }
    fn name(&self) -> &'static str {
        "window"
    }
}

/// A last-in-first-out scheduler: always delivers the *newest* message.
/// Maximally unfair without an aging cap; with the cap it stress-tests
/// buffering and session races (children spawned late, replies overtaking
/// requests).
#[derive(Debug, Default, Clone, Copy)]
pub struct LifoScheduler;

impl Scheduler for LifoScheduler {
    fn pick(&mut self, pending: &Pending, _rng: &mut ChaCha12Rng) -> usize {
        pending.len() - 1
    }
    fn name(&self) -> &'static str {
        "lifo"
    }
}

/// A locality-preserving random scheduler: delivers the `block` oldest
/// pending entries in a fresh random permutation, then moves on to the
/// next block.
///
/// A uniformly random pick (the standard oblivious adversary) touches the
/// in-flight slab at a random position every delivery — on large queues
/// that is a cache miss per message. `block:<b>` keeps the randomness an
/// asynchronous adversary needs (within-block order is uniformly
/// shuffled, and blocks can interleave with concurrently arriving
/// traffic) while confining each burst of picks to the `b` oldest
/// entries, so slab reads stay in a contiguous arrival region and old
/// messages cannot starve — the schedule is FIFO at block granularity.
///
/// The permutation is drawn deterministically from the scheduler RNG, so
/// the schedule remains a pure function of `(seed, scheduler)` on every
/// backend — `sim`, `sharded:1` and `sharded:k` resolve it identically
/// as long as `sim`'s fairness cap never intervenes (the sharded epochs
/// are structurally fair and have no cap; on the tested stacks the cap
/// never fires, but a run deep enough to age batches past [`MAX_AGE`]
/// makes `sim` force front deliveries the sharded backend would not).
///
/// A cap-forced delivery (or a budget-truncated final run) also leaves
/// this scheduler's current block plan one position out of phase:
/// in-range stale entries then resolve to neighboring batches rather
/// than the originally planned ones. The schedule stays valid, fair and
/// deterministic — only the "exact permutation of the `b` oldest"
/// reading weakens while the external interference lasts.
#[derive(Debug, Clone)]
pub struct BlockScheduler {
    block: usize,
    /// Planned picks for the current block, consumed from the back.
    plan: Vec<usize>,
}

impl BlockScheduler {
    /// Creates a scheduler shuffling blocks of `block` oldest entries.
    ///
    /// # Panics
    ///
    /// Panics if `block == 0`.
    pub fn new(block: usize) -> Self {
        assert!(block > 0, "block must be positive");
        BlockScheduler {
            block,
            plan: Vec::new(),
        }
    }
}

impl Scheduler for BlockScheduler {
    fn pick(&mut self, pending: &Pending, rng: &mut ChaCha12Rng) -> usize {
        loop {
            match self.plan.pop() {
                Some(i) if i < pending.len() => {
                    // The network drains the picked batch's whole run
                    // before the next pick, vacating its position and
                    // shifting later arrival positions down one. (A
                    // budget-truncated final pick can leave the batch
                    // alive; the `i < len` guard absorbs that stale
                    // entry on the next call.)
                    for j in &mut self.plan {
                        if *j > i {
                            *j -= 1;
                        }
                    }
                    return i;
                }
                // Out-of-range stale entry (an external removal shrank
                // the view): drop it and re-plan if empty. In-range
                // entries left stale by a fairness-cap delivery are NOT
                // detectable here and resolve to a neighboring batch —
                // see the type-level docs.
                Some(_) => continue,
                None => {
                    let m = self.block.min(pending.len());
                    self.plan.extend(0..m);
                    // Fisher–Yates; picks pop from the back, so the block
                    // is consumed in uniformly shuffled order.
                    for k in (1..m).rev() {
                        let j = rng.gen_range(0..=k);
                        self.plan.swap(k, j);
                    }
                }
            }
        }
    }
    fn name(&self) -> &'static str {
        "block"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{SessionId, SessionTag};
    use crate::network::Envelope;
    use crate::payload::Payload;
    use rand::SeedableRng;

    fn pending(entries: &[(usize, usize)]) -> Pending {
        let mut q = Pending::new();
        for (seq, &(from, to)) in entries.iter().enumerate() {
            q.push(Envelope {
                from: PartyId(from),
                to: PartyId(to),
                session: SessionId::root().child(SessionTag::new("x", 0)),
                payload: Payload::new(0u8),
                seq: seq as u64,
                born_step: 0,
            });
        }
        q
    }

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(1)
    }

    #[test]
    fn fifo_picks_first_lifo_picks_last() {
        let q = pending(&[(0, 1), (1, 2), (2, 3)]);
        let mut r = rng();
        assert_eq!(FifoScheduler.pick(&q, &mut r), 0);
        assert_eq!(LifoScheduler.pick(&q, &mut r), 2);
    }

    #[test]
    fn random_stays_in_bounds() {
        let q = pending(&[(0, 1), (1, 2)]);
        let mut r = rng();
        let mut s = RandomScheduler;
        for _ in 0..100 {
            assert!(s.pick(&q, &mut r) < q.len());
        }
    }

    #[test]
    fn starve_avoids_victims_when_possible() {
        let mut s = StarveScheduler::new([PartyId(1)]);
        let q = pending(&[(1, 2), (0, 2), (2, 1)]);
        let mut r = rng();
        for _ in 0..50 {
            assert_eq!(s.pick(&q, &mut r), 1, "only index 1 avoids P1");
        }
        // When everything touches a victim, still picks something valid.
        let all_victim = pending(&[(1, 2), (2, 1)]);
        for _ in 0..50 {
            assert!(s.pick(&all_victim, &mut r) < 2);
        }
    }

    #[test]
    fn window_respects_window() {
        let q = pending(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut r = rng();
        let mut s = WindowScheduler::new(2);
        for _ in 0..100 {
            assert!(s.pick(&q, &mut r) < 2);
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn window_zero_panics() {
        let _ = WindowScheduler::new(0);
    }

    #[test]
    #[should_panic(expected = "block must be positive")]
    fn block_zero_panics() {
        let _ = BlockScheduler::new(0);
    }

    #[test]
    fn block_consumes_oldest_block_as_a_permutation() {
        // 6 singleton batches, block size 4: the first four picks must be
        // a permutation of the four oldest entries (accounting for index
        // shifts as they drain), i.e. after 4 picks exactly the two
        // youngest remain.
        let mut q = pending(&[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]);
        let mut r = rng();
        let mut s = BlockScheduler::new(4);
        let mut picked = Vec::new();
        for _ in 0..4 {
            let i = s.pick(&q, &mut r);
            picked.push(q.take(i).seq);
        }
        picked.sort_unstable();
        assert_eq!(picked, vec![0, 1, 2, 3], "first block = 4 oldest");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn block_is_deterministic_for_a_fixed_rng_stream() {
        let picks = |seed: u64| {
            let mut q = pending(&[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
            let mut r = ChaCha12Rng::seed_from_u64(seed);
            let mut s = BlockScheduler::new(3);
            let mut order = Vec::new();
            while !q.is_empty() {
                let i = s.pick(&q, &mut r);
                order.push(q.take(i).seq);
            }
            order
        };
        assert_eq!(picks(7), picks(7));
    }

    #[test]
    fn block_one_degenerates_to_fifo() {
        let q = pending(&[(0, 1), (1, 2), (2, 3)]);
        let mut r = rng();
        let mut s = BlockScheduler::new(1);
        for _ in 0..10 {
            assert_eq!(s.pick(&q, &mut r), 0);
        }
    }

    #[test]
    fn block_keeps_position_while_a_batch_drains() {
        // One batch of 3 (same pair) and one singleton: picks stay in
        // bounds and eventually drain everything.
        let mut q = pending(&[(0, 1), (0, 1), (0, 1), (2, 3)]);
        assert_eq!(q.len(), 2, "3-run collapses into one batch");
        let mut r = rng();
        let mut s = BlockScheduler::new(8);
        let mut drained = Vec::new();
        while !q.is_empty() {
            let i = s.pick(&q, &mut r);
            assert!(i < q.len());
            drained.push(q.take(i).seq);
        }
        drained.sort_unstable();
        assert_eq!(drained, vec![0, 1, 2, 3]);
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            FifoScheduler.name(),
            RandomScheduler.name(),
            StarveScheduler::new([]).name(),
            WindowScheduler::new(1).name(),
            LifoScheduler.name(),
            BlockScheduler::new(1).name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
