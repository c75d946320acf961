//! The in-flight message queue behind the simulator's delivery loop.
//!
//! Envelopes live in a slab of **batches** next to their scheduler-visible
//! [`MsgMeta`]; what the [`Scheduler`] sees is an arrival-ordered view of
//! those lightweight records (sender, receiver, head sequence number, age,
//! kind, batch size). Schedulers index into that view and never touch
//! payloads or session paths.
//!
//! **Batching**: consecutive envelopes with the same `(sender, receiver)`
//! pair collapse into a single slab record holding the run of envelopes in
//! FIFO order. The scheduler's pick granularity is the batch; delivery
//! granularity stays the single message — [`take`](Pending::take) pops the
//! *head* of the picked batch and the record keeps its arrival position
//! until the run is drained. The arrival list, the Fenwick index and the
//! sharded backend's cross-shard channels therefore move O(batches)
//! records instead of O(messages), and draining a batch walks one
//! contiguous buffer instead of hopping across the slab.
//!
//! The live view is an append-only arrival list with tombstones indexed
//! by a Fenwick tree, so removal at an arbitrary arrival position — a
//! random scheduler's every pick — costs O(log len) instead of an O(len)
//! shift, the front position (fairness-cap forced deliveries, FIFO) is
//! O(1), and a queue that drains to empty (every sharded-simulator
//! epoch) resets for free. Dead entries are compacted away when the list
//! regrows. A pick that only shortens a batch does not touch the Fenwick
//! tree at all.
//!
//! [`Scheduler`]: crate::Scheduler

use crate::ids::PartyId;
use crate::network::Envelope;
use std::collections::VecDeque;

/// Scheduler-visible metadata of one in-flight batch (a FIFO run of
/// envelopes sharing a `(sender, receiver)` pair — often of length 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgMeta {
    /// Sender.
    pub from: PartyId,
    /// Receiver.
    pub to: PartyId,
    /// Global send sequence number of the batch head (unique, monotone).
    pub seq: u64,
    /// Delivery step at which the batch head was sent.
    pub born_step: u64,
    /// Leaf session kind of the batch head (`"root"` for root sessions).
    pub kind: &'static str,
    /// Number of envelopes remaining in the batch (≥ 1).
    pub count: u32,
}

impl MsgMeta {
    /// Metadata for a batch headed by `env` with `count` envelopes.
    fn of(env: &Envelope, count: u32) -> MsgMeta {
        MsgMeta {
            from: env.from,
            to: env.to,
            seq: env.seq,
            born_step: env.born_step,
            kind: env.session.last().map_or("root", |t| t.kind),
            count,
        }
    }
}

/// A Fenwick (binary indexed) tree of 0/1 counts over arrival positions:
/// `select(k)` finds the position of the `k`-th live entry in
/// O(log capacity).
#[derive(Default)]
struct LiveIndex {
    /// 1-based partial-sum tree; capacity is `tree.len() - 1`.
    tree: Vec<u32>,
}

impl LiveIndex {
    #[cfg(test)]
    fn with_capacity(cap: usize) -> Self {
        LiveIndex {
            tree: vec![0; cap + 1],
        }
    }

    fn capacity(&self) -> usize {
        self.tree.len().saturating_sub(1)
    }

    /// Adds `delta` at 0-based position `pos`.
    fn add(&mut self, pos: usize, delta: i32) {
        let mut i = pos + 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta as i64) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Number of live entries at 0-based positions `< pos` — the inverse
    /// of [`select`](LiveIndex::select).
    fn prefix(&self, pos: usize) -> u32 {
        let mut i = pos;
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i &= i - 1;
        }
        sum
    }

    /// 0-based position of the `k`-th live entry (`k ≥ 1`).
    fn select(&self, k: u32) -> usize {
        let cap = self.capacity();
        let mut step = cap.next_power_of_two();
        if step > cap {
            step >>= 1;
        }
        let mut pos = 0;
        let mut remaining = k;
        while step > 0 {
            let next = pos + step;
            if next <= cap && self.tree[next] < remaining {
                remaining -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        pos // prefix_sum(pos) < k ≤ prefix_sum(pos + 1): 0-based index `pos`
    }
}

/// Batched envelope storage of one slab record. Singletons — the common
/// case on the single-queue simulator — hold their envelope inline; only
/// a real run of same-pair envelopes pays for a deque (recycled through
/// [`Pending::spare`], so steady-state batching does not allocate either).
enum Batch {
    /// Exactly one envelope, stored inline.
    One(Envelope),
    /// A FIFO run of two or more (until drained) envelopes.
    Many(VecDeque<Envelope>),
}

/// One slab record: a batch plus its remaining length and current
/// arrival position. Scheduler-visible [`MsgMeta`] is *derived* from the
/// batch head on demand rather than stored — the random scheduler never
/// reads it, so the per-push hot path writes one small record instead of
/// materializing (and later refreshing) full metadata.
struct Record {
    /// Envelopes remaining in the batch (≥ 1).
    count: u32,
    /// Low 32 bits of the batch's creation ordinal (it sits in what was
    /// padding next to `count`; [`Pending::ordinal_of`] widens it).
    created: u32,
    /// Current arrival position (kept current by compaction, which is
    /// what makes [`BatchSlot`] handles stable).
    pos: usize,
    /// The batched envelopes.
    batch: Batch,
}

impl Record {
    /// The batch's oldest (next-delivered) envelope.
    fn head(&self) -> &Envelope {
        match &self.batch {
            Batch::One(env) => env,
            Batch::Many(run) => run.front().expect("live batch is non-empty"),
        }
    }

    /// The derived scheduler-visible metadata.
    fn meta(&self) -> MsgMeta {
        MsgMeta::of(self.head(), self.count)
    }
}

/// A stable handle to one live batch record, valid until the batch's run
/// drains — unlike arrival indices, it survives pushes, compactions and
/// removals of *other* batches, so a caller delivering a whole run
/// resolves the arrival order once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BatchSlot(u32);

/// The arrival-ordered in-flight queue.
///
/// Index `0` is always the oldest pending batch; pushes append at the back
/// (or extend the youngest batch when the `(sender, receiver)` pair
/// matches). [`take`](Pending::take) pops one envelope by arrival index in
/// O(log batches) — O(1) at the front and O(1) whenever the pick leaves
/// the batch non-empty.
#[derive(Default)]
pub struct Pending {
    /// Slab of batch records; `None` slots are free.
    slots: Vec<Option<Record>>,
    /// Free slot indices available for reuse.
    free: Vec<u32>,
    /// Recycled (empty) deques from drained multi-envelope batches. With
    /// the runs now live they never number more than `runs_peak` — all
    /// that this queue's own workload can ever hand out again.
    spare: Vec<VecDeque<Envelope>>,
    /// Live multi-envelope batches, and the most there have been at once.
    runs_live: usize,
    runs_peak: usize,
    /// Arrival-ordered slot ids (append-only between compactions).
    arrival: Vec<u32>,
    /// Tombstones, parallel to `arrival`.
    alive: Vec<bool>,
    /// Fenwick tree of live counts over `arrival` positions.
    index: LiveIndex,
    /// First possibly-live position in `arrival`.
    head: usize,
    /// Number of live batches.
    live: usize,
    /// Number of in-flight envelopes across all batches.
    total: usize,
    /// Number of batches ever opened: the creation ordinal of the next
    /// one. Ordinals grow with arrival position and, unlike positions,
    /// survive compaction — a clocked scheduler's arrival-order key.
    created: u64,
    /// `(position, ordinal)` of the first batch appended since arrival
    /// positions were last renumbered (compaction, or the reset on a
    /// full drain). Every append takes the next position *and* the next
    /// ordinal, so from here on `ordinal - position` is constant.
    appended: (usize, u64),
    /// Slot id of the most recently pushed batch while it is still live —
    /// the only merge target, so batching is a pure function of the
    /// push/take sequence (tombstone compaction cannot change it).
    tail: Option<u32>,
    /// `(from, to)` of the live tail batch, mirrored inline (valid while
    /// `tail` is `Some`): the per-push merge probe reads this field
    /// instead of chasing `tail` into the slot storage — a guaranteed
    /// cache miss on workloads whose consecutive sends never merge.
    tail_pair: (PartyId, PartyId),
    /// `born_step` of the head batch's oldest envelope, mirrored inline
    /// (valid while `live > 0`): the per-pick fairness-age check reads
    /// this field instead of resolving `arrival[head]` into the slots.
    head_born: u64,
    /// Batch deques recycled from [`spare`](Pending::spare) instead of
    /// allocated (pool-stats counter, folded into run metrics).
    reused: u64,
    /// Batch deques allocated because the spare pool was empty.
    allocated: u64,
    /// Reusable survivor buffer for [`compact_and_grow`]: swapped with
    /// `arrival` on every rebuild, so steady-state compaction allocates
    /// nothing.
    ///
    /// [`compact_and_grow`]: Pending::compact_and_grow
    compact_scratch: Vec<u32>,
}

impl Pending {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Pending::default()
    }

    /// Number of in-flight *batches* — the scheduler's pick space.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of in-flight *envelopes* across all batches.
    pub fn messages(&self) -> usize {
        self.total
    }

    /// Arrival position of the `i`-th oldest live batch.
    fn position(&self, i: usize) -> usize {
        assert!(i < self.live, "index {i} beyond live queue ({})", self.live);
        if i == 0 {
            // The head skips tombstones eagerly, so it is live.
            self.head
        } else {
            self.index.select(i as u32 + 1)
        }
    }

    /// Metadata of the `i`-th oldest in-flight batch.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn meta(&self, i: usize) -> MsgMeta {
        let slot = self.arrival[self.position(i)];
        self.slots[slot as usize]
            .as_ref()
            .expect("live arrival entry points at an occupied slot")
            .meta()
    }

    /// All batch metadata in arrival order (oldest first).
    pub fn metas(&self) -> impl Iterator<Item = MsgMeta> + '_ {
        self.arrival[self.head..]
            .iter()
            .zip(&self.alive[self.head..])
            .filter(|&(_, &alive)| alive)
            .map(|(&slot, _)| {
                self.slots[slot as usize]
                    .as_ref()
                    .expect("live arrival entry points at an occupied slot")
                    .meta()
            })
    }

    /// `(reused, allocated)` batch-deque recycling counts so far —
    /// folded into the owning backend's `pool_*` metrics at snapshot
    /// time.
    pub(crate) fn pool_stats(&self) -> (u64, u64) {
        (self.reused, self.allocated)
    }

    /// Hands out one recycled (empty) batch buffer as a `Vec` — the
    /// allocation carries over (an empty deque is trivially contiguous,
    /// so the conversion is free). The sharded backend refills its
    /// per-destination outboxes from here, closing the loop: outbox →
    /// cross-shard batch → drained deque → spare → outbox.
    pub(crate) fn take_spare_vec(&mut self) -> Option<Vec<Envelope>> {
        self.spare.pop().map(Vec::from)
    }

    /// Whether the most recently pushed batch is live and can absorb an
    /// envelope from `from` to `to`; returns its slot id if so. Reads
    /// only the inline `tail_pair` mirror — no slot-storage access.
    fn mergeable_tail(&self, from: PartyId, to: PartyId) -> Option<u32> {
        let slot = self.tail?;
        (self.tail_pair == (from, to)).then_some(slot)
    }

    /// Extends the live tail batch in slot `slot` with one envelope,
    /// promoting an inline singleton to a deque (recycled when possible).
    fn extend_tail(&mut self, slot: u32, env: Envelope) {
        let entry = self.slots[slot as usize]
            .as_mut()
            .expect("mergeable tail slot occupied");
        entry.count += 1;
        self.total += 1;
        match &mut entry.batch {
            Batch::Many(run) => run.push_back(env),
            one => {
                self.runs_live += 1;
                self.runs_peak = self.runs_peak.max(self.runs_live);
                let mut run = match self.spare.pop() {
                    Some(run) => {
                        self.reused += 1;
                        run
                    }
                    None => {
                        self.allocated += 1;
                        VecDeque::new()
                    }
                };
                let head = match std::mem::replace(one, Batch::Many(VecDeque::new())) {
                    Batch::One(head) => head,
                    Batch::Many(_) => unreachable!("matched above"),
                };
                run.push_back(head);
                run.push_back(env);
                *one = Batch::Many(run);
            }
        }
    }

    /// Enqueues an envelope at the back: extends the youngest batch when
    /// the `(sender, receiver)` pair matches, otherwise opens a new batch.
    pub fn push(&mut self, env: Envelope) {
        if let Some(slot) = self.mergeable_tail(env.from, env.to) {
            self.extend_tail(slot, env);
            return;
        }
        self.insert_batch(1, Batch::One(env));
    }

    /// Enqueues a whole same-`(sender, receiver)` run as one batch record —
    /// the sharded backend's cross-shard handoff, which thereby moves
    /// O(batches) instead of O(messages). Empty runs are ignored.
    ///
    /// The envelopes must share one `(from, to)` pair and be in the
    /// intended FIFO order.
    pub fn push_batch(&mut self, envs: Vec<Envelope>) {
        let Some(first) = envs.first() else {
            return;
        };
        debug_assert!(
            envs.iter()
                .all(|e| e.from == first.from && e.to == first.to),
            "a batch must share one (from, to) pair"
        );
        if let Some(slot) = self.mergeable_tail(first.from, first.to) {
            for env in envs {
                self.extend_tail(slot, env);
            }
            return;
        }
        let count = envs.len() as u32;
        let batch = if envs.len() == 1 {
            Batch::One(envs.into_iter().next().expect("len checked"))
        } else {
            self.runs_live += 1;
            self.runs_peak = self.runs_peak.max(self.runs_live);
            Batch::Many(VecDeque::from(envs))
        };
        self.insert_batch(count, batch);
    }

    /// Installs a fresh batch record at the back of the arrival order.
    fn insert_batch(&mut self, count: u32, batch: Batch) {
        self.total += count as usize;
        if self.arrival.len() == self.index.capacity() {
            self.compact_and_grow();
        }
        let pos = self.arrival.len();
        let record = Record {
            count,
            created: self.created as u32,
            pos,
            batch,
        };
        self.created += 1;
        let (from, to, born) = {
            let head = record.head();
            (head.from, head.to, head.born_step)
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(record);
                s
            }
            None => {
                self.slots.push(Some(record));
                (self.slots.len() - 1) as u32
            }
        };
        self.arrival.push(slot);
        self.alive.push(true);
        self.index.add(pos, 1);
        self.live += 1;
        self.tail = Some(slot);
        self.tail_pair = (from, to);
        if self.live == 1 {
            // The queue was empty, so this batch is the head.
            self.head_born = born;
        }
    }

    /// `born_step` of the oldest in-flight envelope — what the fairness
    /// cap ages against. O(1): reads the inline head mirror.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the queue is empty.
    pub fn head_born_step(&self) -> u64 {
        debug_assert!(self.live > 0, "head_born_step on an empty queue");
        self.head_born
    }

    /// Removes and returns every in-flight message sent by `from`, oldest
    /// first (crash-before-run retraction; not a hot path).
    pub(crate) fn retract_from(&mut self, from: PartyId) -> Vec<Envelope> {
        let mut removed = Vec::new();
        let mut i = 0;
        while i < self.len() {
            if self.meta(i).from == from {
                // `take` keeps a partially drained batch at index `i`, so
                // repeating the take drains the whole run before `i` moves
                // on to the next batch.
                removed.push(self.take(i));
            } else {
                i += 1;
            }
        }
        removed
    }

    /// Removes and returns the head envelope of the `i`-th oldest batch.
    /// The batch keeps its arrival position until its run drains.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn take(&mut self, i: usize) -> Envelope {
        let pos = self.position(i);
        self.take_slot(BatchSlot(self.arrival[pos]))
    }

    /// Stable handle of the `i`-th oldest live batch, for use with
    /// [`take_slot`](Pending::take_slot). The handle stays valid while
    /// the batch has envelopes left (`meta(i).count` of them, plus any
    /// concurrently merged into it), so a caller draining a whole run
    /// resolves the Fenwick index once instead of once per envelope —
    /// and, unlike a raw arrival position, the handle survives pushes
    /// and compactions happening between takes.
    pub fn slot_of(&self, i: usize) -> BatchSlot {
        BatchSlot(self.arrival[self.position(i)])
    }

    /// Metadata of the live batch `slot` — O(1), no arrival-order lookup
    /// (pair with [`slot_of`](Pending::slot_of) to resolve a pick's
    /// handle and run length with a single Fenwick traversal).
    pub fn meta_of_slot(&self, slot: BatchSlot) -> MsgMeta {
        self.slots[slot.0 as usize]
            .as_ref()
            .expect("batch handle refers to a live batch")
            .meta()
    }

    /// Remaining run length of the live batch `slot` — what a delivery
    /// loop actually needs per pick, without deriving full [`MsgMeta`]
    /// (which reads the head envelope's session for its leaf kind).
    pub fn run_len_of_slot(&self, slot: BatchSlot) -> u32 {
        self.slots[slot.0 as usize]
            .as_ref()
            .expect("batch handle refers to a live batch")
            .count
    }

    /// Arrival index of the live batch `slot` — the inverse of
    /// [`slot_of`](Pending::slot_of), one Fenwick prefix sum.
    ///
    /// # Panics
    ///
    /// Panics if `slot` does not refer to a live batch.
    pub fn index_of_slot(&self, slot: BatchSlot) -> usize {
        let pos = self.slots[slot.0 as usize]
            .as_ref()
            .expect("batch handle refers to a live batch")
            .pos;
        if pos == self.head {
            0
        } else {
            self.index.prefix(pos) as usize
        }
    }

    /// Number of batches ever opened in this queue — the creation
    /// ordinal the next new batch will get.
    pub fn created(&self) -> u64 {
        self.created
    }

    /// The full creation ordinal of a live record, widened from its
    /// stored low half. Exact while every live batch is less than 2³²
    /// batch creations old.
    fn ordinal_of(&self, record: &Record) -> u64 {
        self.created - u64::from((self.created as u32).wrapping_sub(record.created))
    }

    /// Creation ordinal of the batch in `slot`, or `None` if the slot is
    /// vacant. Slots are recycled but ordinals never repeat, so a
    /// `(slot, ordinal)` pair names one batch for good: a holder of a
    /// stale handle finds `None` or a different ordinal here.
    pub fn ordinal_of_slot(&self, slot: BatchSlot) -> Option<u64> {
        let record = self.slots.get(slot.0 as usize)?.as_ref()?;
        Some(self.ordinal_of(record))
    }

    /// The live batches with creation ordinal `≥ since`, oldest first,
    /// each with its ordinal — what a caller that last looked when
    /// [`created`](Pending::created) returned `since` has not seen yet.
    /// Costs O(batches yielded + tombstones among them), independent of
    /// the queue's depth.
    pub fn batches_since(&self, since: u64) -> impl Iterator<Item = (BatchSlot, u64)> + '_ {
        let (base_pos, base_ordinal) = self.appended;
        let start = if since >= base_ordinal {
            // Appended since the last renumbering: position follows
            // from the ordinal.
            (base_pos + (since - base_ordinal) as usize).min(self.arrival.len())
        } else {
            // Renumbered since the caller last looked: the batches it
            // has not seen end the survivor range `head..base_pos`.
            let mut start = base_pos;
            while start > self.head
                && self
                    .record_at(start - 1)
                    .is_none_or(|r| self.ordinal_of(r) >= since)
            {
                start -= 1;
            }
            start
        };
        (start..self.arrival.len()).filter_map(|pos| {
            let record = self.record_at(pos)?;
            Some((BatchSlot(self.arrival[pos]), self.ordinal_of(record)))
        })
    }

    /// The live record at arrival position `pos`, if that entry is not a
    /// tombstone.
    fn record_at(&self, pos: usize) -> Option<&Record> {
        self.alive[pos].then(|| {
            self.slots[self.arrival[pos] as usize]
                .as_ref()
                .expect("live arrival entry points at an occupied slot")
        })
    }

    /// Removes and returns the head envelope of the live batch `slot`
    /// (obtained from [`slot_of`](Pending::slot_of)) in O(1) while the
    /// batch survives.
    ///
    /// # Panics
    ///
    /// Panics if `slot` does not refer to a live batch.
    pub fn take_slot(&mut self, slot: BatchSlot) -> Envelope {
        let slot = slot.0 as usize;
        let entry = self.slots[slot]
            .as_mut()
            .expect("batch handle refers to a live batch");
        self.total -= 1;
        if let Batch::Many(run) = &mut entry.batch {
            if run.len() > 1 {
                // The batch survives at its arrival position; only its
                // count (and, at the head, the inline age mirror) moves.
                let env = run.pop_front().expect("len checked");
                entry.count -= 1;
                if entry.pos == self.head {
                    self.head_born = run.front().expect("len checked").born_step;
                }
                return env;
            }
        }
        // Batch drained: retire the record, recycling its deque.
        let Record { pos, batch, .. } = self.slots[slot]
            .take()
            .expect("batch handle refers to a live batch");
        let env = match batch {
            Batch::One(env) => env,
            Batch::Many(mut run) => {
                let env = run.pop_front().expect("drained batch has its last");
                self.runs_live -= 1;
                if self.spare.len() + self.runs_live < self.runs_peak {
                    self.spare.push(run);
                }
                env
            }
        };
        self.free.push(slot as u32);
        if self.tail == Some(slot as u32) {
            self.tail = None;
        }
        self.alive[pos] = false;
        self.index.add(pos, -1);
        self.live -= 1;
        if self.live == 0 {
            // Fully drained (every sharded epoch ends here): the Fenwick
            // tree is all zeros again, so resetting is free.
            self.arrival.clear();
            self.alive.clear();
            self.head = 0;
            self.appended = (0, self.created);
        } else if pos == self.head {
            while !self.alive[self.head] {
                self.head += 1;
            }
            self.head_born = self.slots[self.arrival[self.head] as usize]
                .as_ref()
                .expect("live arrival entry points at an occupied slot")
                .head()
                .born_step;
        }
        env
    }

    /// Rebuilds `arrival`/`alive`/`index` with tombstones dropped and
    /// capacity for growth (amortized against the removals that created
    /// the tombstones).
    fn compact_and_grow(&mut self) {
        let mut lives = std::mem::take(&mut self.compact_scratch);
        lives.clear();
        lives.extend(
            self.arrival[self.head..]
                .iter()
                .zip(&self.alive[self.head..])
                .filter(|&(_, &alive)| alive)
                .map(|(&slot, _)| slot),
        );
        debug_assert_eq!(lives.len(), self.live);
        let cap = (self.live * 2).max(64);
        // Reuse the Fenwick buffer: re-zeroing the kept allocation costs
        // the same O(cap) pass as the bulk build below, without the
        // allocation (once the tree has reached its high-water capacity).
        let tree = &mut self.index.tree;
        tree.clear();
        tree.resize(cap + 1, 0);
        // O(cap) bulk build: seed the leaves, then push sums upward.
        for i in 1..=lives.len() {
            tree[i] += 1;
            let parent = i + (i & i.wrapping_neg());
            if parent <= cap {
                tree[parent] += tree[i];
            }
        }
        // Finish propagation for positions past the seeded range.
        for i in lives.len() + 1..=cap {
            let parent = i + (i & i.wrapping_neg());
            if parent <= cap {
                tree[parent] += tree[i];
            }
        }
        // Refresh every survivor's stored position (what keeps
        // `BatchSlot` handles stable across the rebuild).
        for (new_pos, &slot) in lives.iter().enumerate() {
            self.slots[slot as usize]
                .as_mut()
                .expect("live arrival entry points at an occupied slot")
                .pos = new_pos;
        }
        self.alive.clear();
        self.alive.resize(lives.len(), true);
        // The survivors become the new arrival list; the old list's
        // allocation becomes the next rebuild's scratch.
        std::mem::swap(&mut self.arrival, &mut lives);
        self.compact_scratch = lives;
        self.head = 0;
        self.appended = (self.arrival.len(), self.created);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{SessionId, SessionTag};
    use crate::payload::Payload;

    fn env(from: usize, to: usize, seq: u64) -> Envelope {
        Envelope {
            from: PartyId(from),
            to: PartyId(to),
            session: SessionId::root().child(SessionTag::new("k", 0)),
            payload: Payload::new(seq),
            seq,
            born_step: seq,
        }
    }

    #[test]
    fn preserves_arrival_order_across_batches() {
        let mut q = Pending::new();
        for s in 0..5 {
            // Distinct senders: five singleton batches.
            q.push(env(s as usize, 9, s));
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.messages(), 5);
        assert_eq!(q.meta(0).seq, 0);
        assert_eq!(q.meta(4).seq, 4);
        assert_eq!(q.take(0).seq, 0);
        assert_eq!(q.meta(0).seq, 1, "remaining shift down");
    }

    #[test]
    fn same_pair_run_collapses_into_one_batch() {
        let mut q = Pending::new();
        for s in 0..4 {
            q.push(env(0, 1, s));
        }
        assert_eq!(q.len(), 1, "one batch");
        assert_eq!(q.messages(), 4);
        let m = q.meta(0);
        assert_eq!((m.count, m.seq, m.born_step), (4, 0, 0));
        // Draining pops FIFO and refreshes the head meta in place.
        assert_eq!(q.take(0).seq, 0);
        let m = q.meta(0);
        assert_eq!((m.count, m.seq, m.born_step), (3, 1, 1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.messages(), 3);
        for expect in 1..4 {
            assert_eq!(q.take(0).seq, expect);
        }
        assert!(q.is_empty());
        assert_eq!(q.messages(), 0);
    }

    #[test]
    fn interleaved_pairs_do_not_merge() {
        let mut q = Pending::new();
        q.push(env(0, 1, 0));
        q.push(env(2, 1, 1));
        q.push(env(0, 1, 2)); // same pair as batch 0 but not adjacent
        assert_eq!(q.len(), 3);
        assert_eq!(q.messages(), 3);
    }

    #[test]
    fn push_batch_installs_one_record() {
        let mut q = Pending::new();
        q.push(env(3, 1, 0));
        q.push_batch((10..14).map(|s| env(2, 1, s)).collect());
        q.push_batch(Vec::new()); // ignored
        assert_eq!(q.len(), 2);
        assert_eq!(q.messages(), 5);
        let m = q.meta(1);
        assert_eq!((m.from, m.count, m.seq), (PartyId(2), 4, 10));
        // A same-pair push extends the freshly installed batch.
        q.push(env(2, 1, 14));
        assert_eq!(q.len(), 2);
        assert_eq!(q.meta(1).count, 5);
        let drained: Vec<u64> = (0..5).map(|_| q.take(1).seq).collect();
        assert_eq!(drained, vec![10, 11, 12, 13, 14]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn take_from_middle_and_reuse_slots() {
        let mut q = Pending::new();
        for s in 0..4 {
            q.push(env(s, s, s as u64));
        }
        let e = q.take(2);
        assert_eq!(e.seq, 2);
        assert_eq!(q.len(), 3);
        // The freed slot is reused without growing storage.
        q.push(env(9, 9, 99));
        assert_eq!(q.slots.len(), 4);
        assert_eq!(q.meta(3).seq, 99);
        // Drain fully, checking meta/envelope stay aligned.
        let seqs: Vec<u64> = (0..4).map(|_| q.take(0).seq).collect();
        assert_eq!(seqs, vec![0, 1, 3, 99]);
        assert!(q.is_empty());
    }

    #[test]
    fn batch_deques_recycle_through_the_spare_pool() {
        let mut q = Pending::new();
        // First same-pair run promotes One -> Many with an empty spare
        // pool: one allocation.
        q.push(env(0, 1, 0));
        q.push(env(0, 1, 1));
        assert_eq!(q.pool_stats(), (0, 1));
        q.take(0);
        q.take(0);
        // The drained deque returns to the pool; the next promotion
        // reuses it instead of allocating.
        q.push(env(0, 1, 2));
        q.push(env(0, 1, 3));
        assert_eq!(q.pool_stats(), (1, 1));
        q.take(0);
        q.take(0);
        // The pooled buffer can be handed out as a Vec, allocation and
        // all, for outbox refills.
        let v = q.take_spare_vec().expect("one pooled buffer");
        assert!(v.is_empty());
        assert!(v.capacity() >= 2, "recycled capacity carries over");
        assert!(q.take_spare_vec().is_none());
    }

    #[test]
    fn the_spare_pool_keeps_what_the_most_simultaneous_runs_needed() {
        let mut q = Pending::new();
        // 40 two-envelope runs live at once (distinct pairs, so none merge
        // into each other), then all of them drained …
        let wave = |q: &mut Pending| {
            for pair in 0..40 {
                q.push(env(pair, pair + 1, 0));
                q.push(env(pair, pair + 1, 1));
            }
            while !q.is_empty() {
                q.take(0);
            }
        };
        wave(&mut q);
        assert_eq!(q.pool_stats(), (0, 40));
        assert_eq!(q.spare.len(), 40, "every drained deque was kept");
        // … so the same wave again allocates nothing,
        wave(&mut q);
        assert_eq!(q.pool_stats(), (40, 40));
        // and deques that arrive from outside (a sharded hand-over) do not
        // pile up beyond that high-water mark.
        for _ in 0..3 {
            q.push_batch(vec![env(0, 1, 0), env(0, 1, 1)]);
            q.push_batch(vec![env(2, 3, 0), env(2, 3, 1)]);
            while !q.is_empty() {
                q.take(0);
            }
        }
        assert_eq!(q.spare.len(), 40);
    }

    #[test]
    fn meta_records_kind_endpoints_and_count() {
        let mut q = Pending::new();
        q.push(env(2, 3, 7));
        let m = q.meta(0);
        assert_eq!(m.from, PartyId(2));
        assert_eq!(m.to, PartyId(3));
        assert_eq!(m.kind, "k");
        assert_eq!(m.born_step, 7);
        assert_eq!(m.count, 1);
    }

    #[test]
    fn retract_from_removes_only_that_sender() {
        let mut q = Pending::new();
        q.push(env(0, 1, 0));
        q.push(env(0, 1, 1)); // merges with the batch above
        q.push(env(2, 1, 2));
        q.push(env(0, 3, 3));
        q.push(env(1, 0, 4));
        let removed = q.retract_from(PartyId(0));
        assert_eq!(
            removed.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 3]
        );
        assert_eq!(q.len(), 2);
        assert_eq!(q.messages(), 2);
        assert_eq!(q.meta(0).seq, 2);
        assert_eq!(q.meta(1).seq, 4);
        assert!(q.retract_from(PartyId(0)).is_empty());
    }

    #[test]
    fn metas_iterates_in_arrival_order() {
        let mut q = Pending::new();
        for s in 0..4 {
            q.push(env(s, 0, s as u64));
        }
        q.take(1);
        let seqs: Vec<u64> = q.metas().map(|m| m.seq).collect();
        assert_eq!(seqs, vec![0, 2, 3]);
    }

    /// Differential test of the batched Fenwick-indexed view against a
    /// naive batch model, across interleaved pushes (merging and not),
    /// arbitrary-index takes and full drains (compactions included).
    #[test]
    fn matches_naive_model_under_mixed_workload() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(42);
        let mut q = Pending::new();
        // Model: batches of (from, to, seqs, creation ordinal), plus
        // whether the most recently pushed batch is still live (the only
        // merge target).
        let mut model: Vec<(usize, usize, Vec<u64>, u64)> = Vec::new();
        let mut tail_live = false;
        let mut next_seq = 0u64;
        let mut created = 0u64;
        // A reader that looks at the queue only now and then, so
        // compactions and full drains fall between its looks.
        let mut seen = 0u64;
        // After every op: slot handles invert to their index, and the
        // since-ordinal view is the model's suffix.
        let check_views = |q: &Pending, model: &[(usize, usize, Vec<u64>, u64)], seen, at: &str| {
            for (i, batch) in model.iter().enumerate() {
                let slot = q.slot_of(i);
                assert_eq!(q.index_of_slot(slot), i, "{at}");
                assert_eq!(q.ordinal_of_slot(slot), Some(batch.3), "{at}");
            }
            for since in [0, seen, q.created()] {
                let expect: Vec<(BatchSlot, u64)> = model
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| b.3 >= since)
                    .map(|(i, b)| (q.slot_of(i), b.3))
                    .collect();
                let got: Vec<(BatchSlot, u64)> = q.batches_since(since).collect();
                assert_eq!(got, expect, "{at}, since {since}");
            }
        };
        for round in 0..2_000 {
            // Long fill and drain phases alternate, so the arrival list
            // outgrows its capacity (compaction) and runs dry (reset).
            let filling = (round / 250) % 2 == 0;
            if model.is_empty() || rng.gen_bool(if filling { 0.65 } else { 0.35 }) {
                let from = rng.gen_range(0..3usize);
                let to = rng.gen_range(0..2usize);
                q.push(env(from, to, next_seq));
                match model.last_mut() {
                    Some((f, t, seqs, _)) if tail_live && *f == from && *t == to => {
                        seqs.push(next_seq)
                    }
                    _ => {
                        model.push((from, to, vec![next_seq], created));
                        created += 1;
                    }
                }
                tail_live = true;
                next_seq += 1;
            } else {
                let i = rng.gen_range(0..model.len());
                let (f, t, seqs, _) = &mut model[i];
                let m = q.meta(i);
                assert_eq!(
                    (m.from.0, m.to.0, m.seq, m.count as usize),
                    (*f, *t, seqs[0], seqs.len()),
                    "round {round}"
                );
                assert_eq!(q.take(i).seq, seqs.remove(0), "round {round}");
                if seqs.is_empty() {
                    if tail_live && i == model.len() - 1 {
                        tail_live = false;
                    }
                    model.remove(i);
                }
            }
            assert_eq!(q.len(), model.len());
            assert_eq!(q.created(), created);
            assert_eq!(
                q.messages(),
                model.iter().map(|(_, _, s, _)| s.len()).sum::<usize>()
            );
            if !q.is_empty() {
                // The inline head mirror tracks the oldest batch exactly.
                assert_eq!(q.head_born_step(), q.meta(0).born_step, "round {round}");
            }
            check_views(&q, &model, seen, &format!("round {round}"));
            if rng.gen_bool(0.1) {
                seen = q.created();
            }
            if round % 97 == 0 {
                let heads: Vec<u64> = q.metas().map(|m| m.seq).collect();
                let expect: Vec<u64> = model.iter().map(|(_, _, s, _)| s[0]).collect();
                assert_eq!(heads, expect, "round {round}");
            }
        }
        while !model.is_empty() {
            let i = model.len() / 2;
            let expect = model[i].2.remove(0);
            if model[i].2.is_empty() {
                model.remove(i);
            }
            assert_eq!(q.take(i).seq, expect);
            check_views(&q, &model, seen, "final drain");
        }
        assert!(q.is_empty());
        // Still usable after a full drain.
        q.push(env(1, 2, 12345));
        assert_eq!(q.meta(0).seq, 12345);
        assert_eq!(q.batches_since(seen).count(), 1);
    }

    #[test]
    fn ordinals_stay_monotone_across_the_u32_boundary() {
        // Records keep only the low half of their ordinal; start the
        // counter just below 2³² so the stored halves wrap mid-test.
        let start = (1u64 << 32) - 3;
        let mut q = Pending::new();
        q.created = start;
        q.appended = (0, start);
        for s in 0..6 {
            q.push(env(s, 9, s as u64));
        }
        q.take(1);
        let ordinals: Vec<u64> = q.batches_since(start).map(|(_, o)| o).collect();
        assert_eq!(ordinals, [0, 2, 3, 4, 5].map(|k| start + k));
        assert_eq!(q.batches_since(start + 4).count(), 2);
        assert_eq!(q.ordinal_of_slot(q.slot_of(4)), Some(start + 5));
    }

    /// Property test: `LiveIndex` add/select/tombstone agrees with a naive
    /// `Vec<bool>` model under arbitrary op sequences. Ops are decoded
    /// from raw words: kind = word % 3 (set / clear / select), operand =
    /// word / 3.
    mod liveindex_props {
        use super::super::LiveIndex;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn matches_vec_bool_model(
                cap in 1usize..96,
                ops in proptest::collection::vec(any::<u64>(), 1..200),
            ) {
                let mut index = LiveIndex::with_capacity(cap);
                let mut model = vec![false; cap];
                for word in ops {
                    let operand = (word / 3) as usize;
                    match word % 3 {
                        0 => {
                            let pos = operand % cap;
                            if !model[pos] {
                                model[pos] = true;
                                index.add(pos, 1);
                            }
                        }
                        1 => {
                            let pos = operand % cap;
                            if model[pos] {
                                model[pos] = false;
                                index.add(pos, -1);
                            }
                        }
                        _ => {
                            let live = model.iter().filter(|&&b| b).count();
                            if live == 0 {
                                continue;
                            }
                            let k = operand % live + 1;
                            // Naive: position of the k-th set bit.
                            let expect = model
                                .iter()
                                .enumerate()
                                .filter(|(_, &b)| b)
                                .nth(k - 1)
                                .map(|(i, _)| i)
                                .unwrap();
                            prop_assert_eq!(index.select(k as u32), expect);
                        }
                    }
                }
                // Final sweep: every live rank selects to the model position.
                let live: Vec<usize> = model
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b)
                    .map(|(i, _)| i)
                    .collect();
                for (rank, &pos) in live.iter().enumerate() {
                    prop_assert_eq!(index.select(rank as u32 + 1), pos);
                }
            }
        }
    }
}
