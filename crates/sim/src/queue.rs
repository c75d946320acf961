//! The in-flight message queue behind the simulator's delivery loop.
//!
//! What the [`Scheduler`] sees is an arrival-ordered view of in-flight
//! **batches** — [`MsgMeta`] (sender, receiver, head sequence number,
//! age, batch size), derived on demand. Schedulers index into that
//! view and never touch payloads or session paths.
//!
//! **Batching**: consecutive envelopes with the same `(sender, receiver)`
//! pair collapse into one batch holding the run in FIFO order. The
//! scheduler's pick granularity is the batch; delivery granularity stays
//! the single message — [`take`](Pending::take) pops the *head* of the
//! picked batch and the batch keeps its arrival position until the run is
//! drained. The arrival list, the live index and the sharded backend's
//! cross-shard channels therefore move O(batches) records instead of
//! O(messages).
//!
//! **Layout**: a batch is one slab entry of one 64-byte cache line
//! (`#[repr(align(64))]`), so a random pick or a take at the head touches
//! one line. Its 16-byte header holds `(from, to)` once, as `u16`s, its
//! arrival position, the low half of its creation ordinal and the low
//! half of its head envelope's birth step; the other 48 bytes hold either
//! one inline body (session, 32-byte payload, `seq`) or the ends and
//! length of a run. [`push`](Pending::push) splits an [`Envelope`] into
//! its endpoints, its birth step and its body, and
//! [`take`](Pending::take) puts one back together. A stored birth step is
//! widened against the latest one pushed, the way a creation ordinal is
//! against the next one: exact while every queued envelope is younger than
//! 2³² steps, which the fairness cap ([`MAX_AGE`]) and the step budgets
//! keep far off. A vacant entry links to the next one, so the free list
//! costs nothing beside the slab.
//!
//! **Pages**: the slab, and the run pool below, are each a list of
//! 64-entry pages, every page allocated at its full size once and never
//! moved; an entry's id is `page · 64 + offset`. Growing allocates one
//! more page and copies nothing (one `Vec` grown by an eighth plus 64
//! entries was reallocated 36 times on the way to `ba-n32-sim`'s peak),
//! and the slack is at most one page.
//!
//! **Runs**: the bodies of every multi-envelope batch live in one pool of
//! 56-byte nodes (a body, its birth step's low half and a link) that the
//! queue owns, each run an index-linked FIFO through it. A drained node
//! goes on the pool's free chain and the next run's body takes it, so the
//! pool is as large as the most bodies that were ever in runs at once
//! (plus at most one page), whatever shape the runs had. An n = 7 FBA has
//! at most 2 262 bodies in runs at once; while every run was a deque of
//! its own and drained deques waited in a spare list, 11 296 parcels of
//! deque capacity (633 KB) stayed held.
//!
//! **The live view** is an append-only arrival list of slot ids and a
//! [`LiveIndex`] over its positions — one bit per position and a Fenwick
//! tree over 64-position words — so finding the `i`-th live batch (a
//! random scheduler's every pick) and retiring one anywhere cost
//! O(log(len / 64)) instead of an O(len) shift, and the front position
//! (fairness-cap forced deliveries, FIFO) is O(1). When the list reaches
//! the index's capacity it is compacted in place and both are sized to
//! the new **compaction capacity** — twice the live batches, at least 64,
//! in whole words — and no further: 4 bytes of list and a quarter byte
//! of index per position. A pick that only shortens a batch does not
//! touch the index at all. A queue that drains to empty — every sharded
//! epoch — drops its index to nothing, so the next fill starts again at
//! 64 positions and the descent is as deep as what is live, not as the
//! deepest epoch before it; everything keeps its allocation across that
//! reset.
//!
//! At the `ba-n32-sim` peak (33 088 envelopes in flight, each a batch of
//! its own) that is at most 73 bytes per in-flight envelope, 2.4 MB in
//! all: its 64-byte slab entry, up to 8.5 bytes of list and index, and
//! the slack of one page. (It was 82 bytes while a slab entry was 72
//! bytes in a `Vec` grown by an eighth, and 99 while a payload was 48
//! bytes and a slab entry 88.)
//!
//! [`Scheduler`]: crate::Scheduler
//! [`MAX_AGE`]: crate::scheduler::MAX_AGE

use crate::ids::{PartyId, SessionId};
use crate::network::Envelope;
use crate::payload::Payload;

/// Scheduler-visible metadata of one in-flight batch (a FIFO run of
/// envelopes sharing a `(sender, receiver)` pair — often of length 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgMeta {
    /// Sender.
    pub from: PartyId,
    /// Receiver.
    pub to: PartyId,
    /// The sender's number for the batch head (see [`Envelope::seq`]).
    pub seq: u64,
    /// Delivery step at which the batch head was sent.
    pub born_step: u64,
    /// Number of envelopes remaining in the batch (≥ 1).
    pub count: u32,
}

/// One in-flight envelope without its endpoints, which its batch keeps
/// once for the whole run. The sharded backend's outboxes and channels
/// carry these too, since each of them is one `(from, to)` pair already.
pub(crate) struct Parcel {
    pub(crate) session: SessionId,
    pub(crate) payload: Payload,
    pub(crate) seq: u64,
    pub(crate) born_step: u64,
}

impl Parcel {
    /// Splits an envelope into its endpoints and its parcel.
    pub(crate) fn split(env: Envelope) -> (PartyId, PartyId, Parcel) {
        let Envelope {
            from,
            to,
            session,
            payload,
            seq,
            born_step,
        } = env;
        let parcel = Parcel {
            session,
            payload,
            seq,
            born_step,
        };
        (from, to, parcel)
    }
}

/// What the queue stores of a parcel besides its birth step, whose low
/// half goes beside it (in the batch header or the pool node).
struct Body {
    session: SessionId,
    payload: Payload,
    seq: u64,
}

impl Body {
    /// The envelope this body is, sent from `from` to `to` at `born_step`.
    fn into_envelope(self, from: u16, to: u16, born_step: u64) -> Envelope {
        Envelope {
            from: widen(from),
            to: widen(to),
            session: self.session,
            payload: self.payload,
            seq: self.seq,
            born_step,
        }
    }
}

/// A party id as a batch record stores it.
fn narrow(party: PartyId) -> u16 {
    // A refused id, not a truncated one: at n = 65 536 a single broadcast
    // round would be 4.3·10⁹ envelopes.
    u16::try_from(party.0).expect("party ids fit in u16")
}

fn widen(party: u16) -> PartyId {
    PartyId(usize::from(party))
}

/// The step whose low half is `low`, at most `latest` and less than 2³²
/// steps before it: a queued envelope's birth step, exact while it is
/// less than 2³² steps older than the latest push. On an order-only
/// schedule [`MAX_AGE`](crate::scheduler::MAX_AGE) forces out anything
/// older than 4 096 steps, and the cell runner's step budget
/// (`STEP_BUDGET`, 2·10⁹) ends a run before its steps reach 2³².
fn widen_step(latest: u64, low: u32) -> u64 {
    latest - u64::from((latest as u32).wrapping_sub(low))
}

/// An arrival position as a batch record stores it.
fn narrow_pos(pos: usize) -> u32 {
    // Positions stay below the compaction capacity, twice the live slab entries.
    u32::try_from(pos).expect("arrival positions fit in u32")
}

/// Which arrival positions hold a live batch, and the order statistics
/// over them: one bit per position, in 64-position words, and a Fenwick
/// (binary indexed) tree over the words' live counts. `select(k)` finds
/// the position of the `k`-th live entry — a descent over the words, then
/// a select inside one — and `prefix(pos)` inverts it, both in
/// O(log(capacity / 64)); marking a position live or retired flips its
/// bit and updates the tree over words.
///
/// At 64 positions to a word, the tree is at most a 128th of a tree over
/// positions: at the `ba-n32-sim` peak (66 176 positions) 8 KiB of tree
/// and 8 KiB of bits, where a tree over positions is 259 KiB.
#[derive(Default)]
struct LiveIndex {
    /// Bit `pos % 64` of word `pos / 64`: whether position `pos` is live.
    words: Vec<u64>,
    /// 1-based partial sums of the words' live counts, over a power of
    /// two of words — those past `words` count zero — so every step of
    /// the descent lands inside the tree.
    tree: Vec<u32>,
}

impl LiveIndex {
    /// Number of positions.
    fn capacity(&self) -> usize {
        self.words.len() * 64
    }

    fn is_live(&self, pos: usize) -> bool {
        self.words[pos / 64] >> (pos % 64) & 1 == 1
    }

    /// Marks `pos` live (`live`) or retired; it must be the other now.
    fn set(&mut self, pos: usize, live: bool) {
        let word = pos / 64;
        self.words[word] ^= 1 << (pos % 64);
        let delta = if live { 1 } else { u32::MAX };
        let mut i = word + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Number of live entries at positions `< pos` — the inverse of
    /// [`select`](LiveIndex::select).
    fn prefix(&self, pos: usize) -> u32 {
        let word = pos / 64;
        let mut sum = (self.words[word] & ((1 << (pos % 64)) - 1)).count_ones();
        let mut i = word;
        while i > 0 {
            sum += self.tree[i];
            i &= i - 1;
        }
        sum
    }

    /// Position of the `k`-th live entry (`1 ≤ k ≤` live). Branch-free:
    /// each level of the descent reads one node and folds the comparison
    /// into masks, so the only branch is the loop over `log₂` of the
    /// tree's power-of-two width, and the select inside the word is
    /// straight-line code.
    fn select(&self, k: u32) -> usize {
        let mut step = self.tree.len() / 2;
        let mut word = 0;
        let mut remaining = k;
        while step > 0 {
            let sum = self.tree[word + step];
            let take = sum < remaining;
            remaining -= sum & u32::from(take).wrapping_neg();
            word += step & usize::from(take).wrapping_neg();
            step >>= 1;
        }
        // Words before `word` hold fewer than `k` live entries, `word`
        // included at least `k`.
        word * 64 + select_in_word(self.words[word], remaining - 1) as usize
    }

    /// Resets the index to `cap` positions (a multiple of 64) of which
    /// the first `live` are live, in one O(cap / 64) pass, allocating only
    /// past the largest `cap` so far (and then exactly).
    fn rebuild(&mut self, cap: usize, live: usize) {
        let (full, rest) = (live / 64, live % 64);
        let words = &mut self.words;
        words.clear();
        words.reserve_exact(cap / 64);
        words.resize(full, u64::MAX);
        if rest > 0 {
            words.push((1 << rest) - 1);
        }
        words.resize(cap / 64, 0);
        let width = words.len().next_power_of_two();
        let tree = &mut self.tree;
        tree.clear();
        tree.reserve_exact(width + 1);
        tree.resize(width + 1, 0);
        for i in 1..=width {
            tree[i] += words.get(i - 1).map_or(0, |w| w.count_ones());
            let parent = i + (i & i.wrapping_neg());
            if parent <= width {
                tree[parent] += tree[i];
            }
        }
    }

    /// Drops every position (the allocations stay).
    fn clear(&mut self) {
        self.words.clear();
        self.tree.clear();
    }
}

/// `SELECT_IN_BYTE[b][r]`: the position of the `r`-th set bit of byte
/// `b`.
static SELECT_IN_BYTE: [[u8; 8]; 256] = select_in_byte_table();

const fn select_in_byte_table() -> [[u8; 8]; 256] {
    let mut table = [[0; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let (mut bit, mut rank) = (0, 0);
        while bit < 8 {
            if byte >> bit & 1 == 1 {
                table[byte][rank] = bit as u8;
                rank += 1;
            }
            bit += 1;
        }
        byte += 1;
    }
    table
}

/// Position of the `r`-th (0-based) set bit of `word`, for
/// `r < word.count_ones()`, without a branch: the bytes' popcounts by
/// SWAR, their running sums by one multiply, the byte that holds the bit
/// by comparing every running sum with `r` at once, and the bit inside
/// that byte from a table.
fn select_in_word(word: u64, r: u32) -> u32 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let mut counts = word - ((word >> 1) & 0x5555_5555_5555_5555);
    counts = (counts & 0x3333_3333_3333_3333) + ((counts >> 2) & 0x3333_3333_3333_3333);
    counts = (counts + (counts >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    // Byte i: the set bits in bytes 0..=i (at most 64: no carry between
    // bytes).
    let running = counts.wrapping_mul(ONES);
    // Byte i's high bit: whether running sum i ≤ r, i.e. byte i lies
    // wholly before the bit (r ≤ 63, so `r + 128 - sum` never borrows).
    let before = ((u64::from(r).wrapping_mul(ONES) | HIGHS) - running) & HIGHS;
    let shift = 8 * ((before >> 7).wrapping_mul(ONES) >> 56) as u32;
    let skipped = ((running << 8) >> shift) as u32 & 0xFF;
    let byte = (word >> shift) as usize & 0xFF;
    shift + u32::from(SELECT_IN_BYTE[byte][(r - skipped) as usize])
}

/// Entries per page of the slab and of the run pool: 4 KiB of slab a
/// page, so the unused end of the last page stays small beside a shallow
/// queue.
const PAGE: usize = 64;

/// A growable array in fixed pages of [`PAGE`] entries: a page is
/// allocated at its full size once, its unused entries at their default,
/// and never moved, so growing copies nothing. Entry `id` is at offset
/// `id % PAGE` of page `id / PAGE`; a page is a fixed-size array, so only
/// the page number is bounds-checked.
struct Paged<T> {
    pages: Vec<Box<[T; PAGE]>>,
    /// Entries pushed; every later entry of the last page is a default.
    len: usize,
}

impl<T> Default for Paged<T> {
    fn default() -> Self {
        Paged {
            pages: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Default> Paged<T> {
    /// Number of entries.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }

    /// Number of entries the pages hold room for.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.pages.len() * PAGE
    }

    /// Appends `value`, on a new page if the last one is full; returns its
    /// id.
    fn push(&mut self, value: T) -> u32 {
        let id = u32::try_from(self.len).expect("queue entry ids fit in u32");
        if self.len == self.pages.len() * PAGE {
            // Filled in place on the heap, not built on the stack and moved.
            let page: Box<[T]> = std::iter::repeat_with(T::default).take(PAGE).collect();
            let page = page.try_into().ok().expect("a page holds PAGE entries");
            self.pages.push(page);
        }
        self.len += 1;
        self[id] = value;
        id
    }

    fn get(&self, id: u32) -> Option<&T> {
        ((id as usize) < self.len).then(|| &self[id])
    }
}

impl<T> std::ops::Index<u32> for Paged<T> {
    type Output = T;

    fn index(&self, id: u32) -> &T {
        let id = id as usize;
        &self.pages[id / PAGE][id % PAGE]
    }
}

impl<T> std::ops::IndexMut<u32> for Paged<T> {
    fn index_mut(&mut self, id: u32) -> &mut T {
        let id = id as usize;
        &mut self.pages[id / PAGE][id % PAGE]
    }
}

/// The end of a chain of pool nodes.
const NIL: u32 = u32::MAX;

/// One pool node: a queued body, the low half of its birth step and the
/// next node of its run, or, while free (`body` is `None`), the next node
/// of the free chain.
#[derive(Default)]
struct PoolNode {
    body: Option<Body>,
    born: u32,
    next: u32,
}

/// The nodes every multi-parcel run of one queue is linked through, with
/// a free chain of drained nodes (see the module docs).
struct Pool {
    nodes: Paged<PoolNode>,
    /// Most recently freed node, head of the free chain (`NIL`: none).
    free: u32,
    /// Nodes taken off the free chain, and nodes added to the pool (the
    /// `pool_*` metrics).
    reused: u64,
    added: u64,
}

impl Default for Pool {
    fn default() -> Self {
        Pool {
            nodes: Paged::default(),
            free: NIL,
            reused: 0,
            added: 0,
        }
    }
}

impl Pool {
    /// A node holding `body`, born at low half `born`, at the end of a
    /// chain: a free one if there is one, else a new one.
    fn put(&mut self, body: Body, born: u32) -> u32 {
        let node = PoolNode {
            body: Some(body),
            born,
            next: NIL,
        };
        if self.free != NIL {
            let id = self.free;
            let slot = &mut self.nodes[id];
            self.free = slot.next;
            *slot = node;
            self.reused += 1;
            return id;
        }
        self.added += 1;
        self.nodes.push(node)
    }

    /// Appends node `id` after node `tail`.
    fn link(&mut self, tail: u32, id: u32) {
        self.nodes[tail].next = id;
    }

    /// The body queued in node `id`.
    fn body(&self, id: u32) -> &Body {
        self.nodes[id]
            .body
            .as_ref()
            .expect("a run's node holds a body")
    }

    /// Takes node `id`'s body and frees the node; returns the body and
    /// the node that followed it.
    fn take(&mut self, id: u32) -> (Body, u32) {
        let node = &mut self.nodes[id];
        let body = node.body.take().expect("a run's node holds a body");
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = id;
        (body, next)
    }
}

/// The bodies of one batch. Singletons — the common case on the
/// single-queue simulator — hold theirs inline; only a real run of
/// same-pair envelopes goes through the queue's [`Pool`].
enum Run {
    /// Exactly one body, stored inline.
    One(Body),
    /// A FIFO run of two or more (until drained) bodies, from pool node
    /// `head` to pool node `tail`.
    Many { head: u32, tail: u32, len: u32 },
}

impl Run {
    /// The oldest (next-delivered) body.
    fn head<'a>(&'a self, pool: &'a Pool) -> &'a Body {
        match self {
            Run::One(body) => body,
            Run::Many { head, .. } => pool.body(*head),
        }
    }

    /// Bodies remaining (≥ 1).
    fn len(&self) -> u32 {
        match self {
            Run::One(_) => 1,
            Run::Many { len, .. } => *len,
        }
    }
}

/// One live batch: its endpoints, where it stands in arrival order, when
/// it was opened, when its head was sent, and its bodies.
/// Scheduler-visible [`MsgMeta`] is *derived* from the head on demand —
/// the random scheduler never reads it.
///
/// Aligned to a cache line here, not on [`Slot`]: on an enum the
/// attribute costs the niche that keeps a vacant entry inside 64 bytes.
#[repr(align(64))]
struct Record {
    from: u16,
    to: u16,
    /// Current arrival position (kept current by compaction, which is
    /// what makes [`BatchSlot`] handles stable).
    pos: u32,
    /// Low 32 bits of the batch's creation ordinal
    /// ([`Pending::ordinal_of`] widens it).
    created: u32,
    /// Low 32 bits of the head body's birth step ([`widen_step`] widens
    /// it).
    born: u32,
    run: Run,
}

/// A slab entry: one cache line.
enum Slot {
    Live(Record),
    /// Free; links to the next free entry.
    Vacant(Option<u32>),
}

impl Default for Slot {
    /// A vacant entry on no free chain: what a new page holds past the
    /// entries pushed.
    fn default() -> Self {
        Slot::Vacant(None)
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
    /// Slab of batch records.
    slots: Paged<Slot>,
    /// Most recently vacated slab entry, head of the free chain.
    free: Option<u32>,
    /// The nodes of every multi-parcel run.
    pool: Pool,
    /// Arrival-ordered slot ids (append-only between compactions); an
    /// entry whose batch has drained is stale.
    arrival: Vec<u32>,
    /// Which `arrival` positions are live, with order statistics.
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
    /// The latest birth step pushed so far: what a stored low half is
    /// widened against ([`widen_step`]).
    born_latest: u64,
    /// `(position, ordinal)` of the first batch appended since arrival
    /// positions were last renumbered (compaction, or the reset on a
    /// full drain). Every append takes the next position *and* the next
    /// ordinal, so from here on `ordinal - position` is constant.
    appended: (usize, u64),
    /// Slot id of the most recently pushed batch while it is still live —
    /// the only merge target, so batching is a pure function of the
    /// push/take sequence (compaction cannot change it).
    tail: Option<u32>,
    /// `(from, to)` of the live tail batch, mirrored inline (valid while
    /// `tail` is `Some`): the per-push merge probe reads this field
    /// instead of chasing `tail` into the slab — a guaranteed cache miss
    /// on workloads whose consecutive sends never merge.
    tail_pair: (u16, u16),
    /// `born_step` of the head batch's oldest envelope, mirrored inline
    /// (valid while `live > 0`): the per-pick fairness-age check reads
    /// this field instead of resolving `arrival[head]` into the slab.
    head_born: u64,
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

    /// The live record in slab entry `slot`.
    fn record(&self, slot: u32) -> &Record {
        match &self.slots[slot] {
            Slot::Live(record) => record,
            Slot::Vacant(_) => panic!("batch handle refers to a live batch"),
        }
    }

    fn record_mut(&mut self, slot: u32) -> &mut Record {
        match &mut self.slots[slot] {
            Slot::Live(record) => record,
            Slot::Vacant(_) => panic!("batch handle refers to a live batch"),
        }
    }

    /// Arrival position of the `i`-th oldest live batch.
    fn position(&self, i: usize) -> usize {
        assert!(i < self.live, "index {i} beyond live queue ({})", self.live);
        if i == 0 {
            // The head skips retired entries eagerly, so it is live.
            self.head
        } else {
            self.index.select(i as u32 + 1)
        }
    }

    /// The derived scheduler-visible metadata of `record`.
    fn meta_of(&self, record: &Record) -> MsgMeta {
        MsgMeta {
            from: widen(record.from),
            to: widen(record.to),
            seq: record.run.head(&self.pool).seq,
            born_step: widen_step(self.born_latest, record.born),
            count: record.run.len(),
        }
    }

    /// Metadata of the `i`-th oldest in-flight batch.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn meta(&self, i: usize) -> MsgMeta {
        self.meta_of(self.record(self.arrival[self.position(i)]))
    }

    /// All batch metadata in arrival order (oldest first).
    pub fn metas(&self) -> impl Iterator<Item = MsgMeta> + '_ {
        (self.head..self.arrival.len()).filter_map(|pos| Some(self.meta_of(self.record_at(pos)?)))
    }

    /// `(reused, added)` run pool nodes so far — folded into the owning
    /// backend's `pool_*` metrics at snapshot time.
    pub(crate) fn pool_stats(&self) -> (u64, u64) {
        (self.pool.reused, self.pool.added)
    }

    /// Whether the most recently pushed batch is live and can absorb an
    /// envelope from `from` to `to`; returns its slot id if so. Reads
    /// only the inline `tail_pair` mirror — no slab access.
    fn mergeable_tail(&self, from: u16, to: u16) -> Option<u32> {
        let slot = self.tail?;
        (self.tail_pair == (from, to)).then_some(slot)
    }

    /// Splits `parcel` into its body and the low half of its birth step,
    /// which from here on widens against the latest birth step pushed.
    fn admit(&mut self, parcel: Parcel) -> (Body, u32) {
        let Parcel {
            session,
            payload,
            seq,
            born_step,
        } = parcel;
        self.born_latest = self.born_latest.max(born_step);
        let body = Body {
            session,
            payload,
            seq,
        };
        (body, born_step as u32)
    }

    /// Extends the live tail batch in slot `slot` with one body, moving
    /// an inline singleton into the pool first.
    fn extend_tail(&mut self, slot: u32, parcel: Parcel) {
        let (body, born) = self.admit(parcel);
        self.total += 1;
        let Slot::Live(record) = &mut self.slots[slot] else {
            unreachable!("the tail slot is live");
        };
        let pool = &mut self.pool;
        let id = pool.put(body, born);
        match &mut record.run {
            Run::Many { tail, len, .. } => {
                pool.link(*tail, id);
                *tail = id;
                *len += 1;
            }
            one => {
                let empty = Run::Many {
                    head: NIL,
                    tail: NIL,
                    len: 0,
                };
                let Run::One(first) = std::mem::replace(one, empty) else {
                    unreachable!("matched above");
                };
                let head = pool.put(first, record.born);
                pool.link(head, id);
                *one = Run::Many {
                    head,
                    tail: id,
                    len: 2,
                };
            }
        }
    }

    /// Enqueues an envelope at the back: extends the youngest batch when
    /// the `(sender, receiver)` pair matches, otherwise opens a new batch.
    pub fn push(&mut self, env: Envelope) {
        let (from, to, parcel) = Parcel::split(env);
        self.push_parcel(from, to, parcel);
    }

    /// [`push`](Pending::push) for an envelope already split.
    pub(crate) fn push_parcel(&mut self, from: PartyId, to: PartyId, parcel: Parcel) {
        let (from, to) = (narrow(from), narrow(to));
        match self.mergeable_tail(from, to) {
            Some(slot) => self.extend_tail(slot, parcel),
            None => {
                self.insert_batch(from, to, parcel);
            }
        }
    }

    /// Enqueues a whole run from `from` to `to` as one batch record — the
    /// sharded backend's cross-shard handoff, which thereby moves
    /// O(batches) records instead of O(messages). Drains `run`, which
    /// keeps its allocation for the caller to fill again. Empty runs are
    /// ignored.
    pub(crate) fn push_batch(&mut self, from: PartyId, to: PartyId, run: &mut Vec<Parcel>) {
        let (from, to) = (narrow(from), narrow(to));
        let mut parcels = run.drain(..);
        let Some(first) = parcels.next() else {
            return;
        };
        let slot = match self.mergeable_tail(from, to) {
            Some(slot) => {
                self.extend_tail(slot, first);
                slot
            }
            None => self.insert_batch(from, to, first),
        };
        for parcel in parcels {
            self.extend_tail(slot, parcel);
        }
    }

    /// Installs a fresh one-envelope batch record at the back of the
    /// arrival order and returns its slab entry.
    fn insert_batch(&mut self, from: u16, to: u16, parcel: Parcel) -> u32 {
        let born_step = parcel.born_step;
        let (body, born) = self.admit(parcel);
        self.total += 1;
        if self.arrival.len() == self.index.capacity() {
            self.compact_and_grow();
        }
        let pos = self.arrival.len();
        let record = Slot::Live(Record {
            from,
            to,
            pos: narrow_pos(pos),
            created: self.created as u32,
            born,
            run: Run::One(body),
        });
        self.created += 1;
        let slot = match self.free {
            Some(slot) => {
                let Slot::Vacant(next) = self.slots[slot] else {
                    unreachable!("the free chain links vacant entries");
                };
                self.free = next;
                self.slots[slot] = record;
                slot
            }
            None => self.slots.push(record),
        };
        // Compaction reserved room up to the index's capacity: no regrowth.
        self.arrival.push(slot);
        self.index.set(pos, true);
        self.live += 1;
        self.tail = Some(slot);
        self.tail_pair = (from, to);
        if self.live == 1 {
            // The queue was empty, so this batch is the head.
            self.head_born = born_step;
        }
        slot
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

    /// Removes and returns the head envelope of the `i`-th oldest batch.
    /// The batch keeps its arrival position until its run drains.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn take(&mut self, i: usize) -> Envelope {
        self.take_slot(self.slot_of(i))
    }

    /// Stable handle of the `i`-th oldest live batch, for use with
    /// [`take_slot`](Pending::take_slot). The handle stays valid while
    /// the batch has envelopes left (`meta(i).count` of them, plus any
    /// concurrently merged into it), so a caller draining a whole run
    /// resolves the live index once instead of once per envelope —
    /// and, unlike a raw arrival position, the handle survives pushes
    /// and compactions happening between takes.
    pub fn slot_of(&self, i: usize) -> BatchSlot {
        BatchSlot(self.arrival[self.position(i)])
    }

    /// Metadata of the live batch `slot` — O(1), no arrival-order lookup
    /// (pair with [`slot_of`](Pending::slot_of) to resolve a pick's
    /// handle and run length with a single index descent).
    pub fn meta_of_slot(&self, slot: BatchSlot) -> MsgMeta {
        self.meta_of(self.record(slot.0))
    }

    /// Remaining run length of the live batch `slot` — what a delivery
    /// loop actually needs per pick, without deriving full [`MsgMeta`]
    /// (which reads the head envelope's session for its leaf kind).
    pub fn run_len_of_slot(&self, slot: BatchSlot) -> u32 {
        self.record(slot.0).run.len()
    }

    /// Arrival index of the live batch `slot` — the inverse of
    /// [`slot_of`](Pending::slot_of), one Fenwick prefix sum.
    ///
    /// # Panics
    ///
    /// Panics if `slot` does not refer to a live batch.
    pub fn index_of_slot(&self, slot: BatchSlot) -> usize {
        let pos = self.record(slot.0).pos as usize;
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
        match self.slots.get(slot.0)? {
            Slot::Live(record) => Some(self.ordinal_of(record)),
            Slot::Vacant(_) => None,
        }
    }

    /// The live batches with creation ordinal `≥ since`, oldest first,
    /// each with its ordinal — what a caller that last looked when
    /// [`created`](Pending::created) returned `since` has not seen yet.
    /// Costs O(batches yielded + retired entries among them), independent
    /// of the queue's depth.
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

    /// The live record at arrival position `pos`, if that batch has not
    /// drained.
    fn record_at(&self, pos: usize) -> Option<&Record> {
        self.index
            .is_live(pos)
            .then(|| self.record(self.arrival[pos]))
    }

    /// Removes and returns the head envelope of the live batch `slot`
    /// (obtained from [`slot_of`](Pending::slot_of)) in O(1) while the
    /// batch survives.
    ///
    /// # Panics
    ///
    /// Panics if `slot` does not refer to a live batch.
    pub fn take_slot(&mut self, slot: BatchSlot) -> Envelope {
        let latest = self.born_latest;
        let Slot::Live(record) = &mut self.slots[slot.0] else {
            panic!("batch handle refers to a live batch");
        };
        self.total -= 1;
        let born_step = widen_step(latest, record.born);
        if let Run::Many { head, len, .. } = &mut record.run {
            if *len > 1 {
                // The batch survives at its arrival position; only its
                // run, its head's birth step and, at the head of the
                // queue, the inline age mirror move.
                let (body, next) = self.pool.take(*head);
                *head = next;
                *len -= 1;
                record.born = self.pool.nodes[next].born;
                if record.pos as usize == self.head {
                    self.head_born = widen_step(latest, record.born);
                }
                return body.into_envelope(record.from, record.to, born_step);
            }
        }
        // Batch drained: retire the record, freeing its last pool node.
        let vacated = std::mem::replace(&mut self.slots[slot.0], Slot::Vacant(self.free));
        self.free = Some(slot.0);
        let Slot::Live(Record {
            from, to, pos, run, ..
        }) = vacated
        else {
            unreachable!("checked live above");
        };
        let body = match run {
            Run::One(body) => body,
            Run::Many { head, .. } => self.pool.take(head).0,
        };
        if self.tail == Some(slot.0) {
            self.tail = None;
        }
        let pos = pos as usize;
        self.index.set(pos, false);
        self.live -= 1;
        if self.live == 0 {
            // Fully drained (every sharded epoch ends here): the next
            // fill starts from the smallest index.
            self.arrival.clear();
            self.index.clear();
            self.head = 0;
            self.appended = (0, self.created);
        } else if pos == self.head {
            while !self.index.is_live(self.head) {
                self.head += 1;
            }
            self.head_born = widen_step(latest, self.record(self.arrival[self.head]).born);
        }
        body.into_envelope(from, to, born_step)
    }

    /// Compacts `arrival` in place (retired entries dropped, survivors
    /// renumbered from 0) and sizes it and the index to the compaction
    /// capacity, twice the live batches — amortized against the removals
    /// that retired the entries.
    fn compact_and_grow(&mut self) {
        let mut kept = 0;
        for read in self.head..self.arrival.len() {
            if self.index.is_live(read) {
                let slot = self.arrival[read];
                self.arrival[kept] = slot;
                // Refreshing every survivor's stored position is what
                // keeps `BatchSlot` handles stable across the rebuild.
                self.record_mut(slot).pos = narrow_pos(kept);
                kept += 1;
            }
        }
        debug_assert_eq!(kept, self.live);
        self.arrival.truncate(kept);
        let cap = (self.live * 2).max(64).next_multiple_of(64);
        self.arrival.reserve_exact(cap - kept);
        self.index.rebuild(cap, kept);
        self.head = 0;
        self.appended = (kept, self.created);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SessionTag;

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

    fn parcels(from: usize, to: usize, seqs: std::ops::Range<u64>) -> Vec<Parcel> {
        seqs.map(|s| Parcel::split(env(from, to, s)).2).collect()
    }

    /// What one in-flight envelope costs is the queue's whole memory
    /// story (a BA at n = 32 holds 33 088 of them at once), so its
    /// records have a byte budget, and a slab entry is one cache line.
    #[test]
    fn records_stay_within_their_byte_budget() {
        use std::mem::{align_of, size_of};
        assert!(
            size_of::<Parcel>() <= 56,
            "an in-flight envelope is {} bytes, budget 56: shrink `Parcel` — \
             its session, payload, seq and born_step; the endpoints live in the batch",
            size_of::<Parcel>()
        );
        assert_eq!(
            size_of::<Slot>(),
            64,
            "a slab entry is one 64-byte cache line (it was 72 bytes across two): \
             `Record`'s 16-byte header (from, to as u16; pos, created, born as u32) \
             and `Run` (one inline 48-byte `Body`, or a run's ends)"
        );
        assert_eq!(align_of::<Slot>(), 64, "a slab entry starts a cache line");
        assert!(
            size_of::<PoolNode>() <= 56,
            "a queued body of a run is {} bytes, budget 56: the body, its birth \
             step's low half and one link (it was 64 with a whole parcel)",
            size_of::<PoolNode>()
        );
    }

    #[test]
    #[should_panic(expected = "party ids fit in u16")]
    fn party_ids_past_u16_are_refused_not_truncated() {
        let mut q = Pending::new();
        q.push(env(1 << 16, 0, 0));
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
        let mut run = parcels(2, 1, 10..14);
        q.push_batch(PartyId(2), PartyId(1), &mut run);
        assert!(
            run.is_empty() && run.capacity() >= 4,
            "drained, allocation kept"
        );
        q.push_batch(PartyId(2), PartyId(1), &mut run); // empty: ignored
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
        assert_eq!(q.slots.capacity(), PAGE, "one page");
        assert_eq!(q.meta(3).seq, 99);
        // Drain fully, checking meta/envelope stay aligned.
        let seqs: Vec<u64> = (0..4).map(|_| q.take(0).seq).collect();
        assert_eq!(seqs, vec![0, 1, 3, 99]);
        assert!(q.is_empty());
    }

    #[test]
    fn run_parcels_recycle_through_the_node_pool() {
        let mut q = Pending::new();
        // A singleton stays inline; the second same-pair parcel moves both
        // into the pool: two nodes added.
        q.push(env(0, 1, 0));
        assert_eq!(q.pool_stats(), (0, 0));
        q.push(env(0, 1, 1));
        assert_eq!(q.pool_stats(), (0, 2));
        q.take(0);
        q.take(0);
        // The drained nodes are free; the next run takes them instead of
        // adding any.
        q.push(env(0, 1, 2));
        q.push(env(0, 1, 3));
        q.push(env(0, 1, 4));
        assert_eq!(q.pool_stats(), (2, 3));
        let drained: Vec<u64> = (0..3).map(|_| q.take(0).seq).collect();
        assert_eq!(drained, [2, 3, 4]);
        assert_eq!(q.pool.nodes.len(), 3);
    }

    #[test]
    fn the_pool_holds_what_the_most_queued_run_parcels_needed() {
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
        assert_eq!(q.pool_stats(), (0, 80));
        // … so the same wave again adds nothing,
        wave(&mut q);
        assert_eq!(q.pool_stats(), (80, 80));
        // nor do runs handed over whole (a sharded merge) in any shape that
        // keeps fewer parcels in runs at once: the pool holds the most
        // there have been, not what the runs were.
        let mut run = Vec::new();
        for len in [2, 3, 40, 80] {
            run.extend(parcels(0, 1, 0..len));
            q.push_batch(PartyId(0), PartyId(1), &mut run);
            while !q.is_empty() {
                q.take(0);
            }
        }
        assert_eq!(q.pool.nodes.len(), 80);
        assert_eq!(q.pool_stats(), (80 + 2 + 3 + 40 + 80, 80));
    }

    #[test]
    fn meta_records_endpoints_age_and_count() {
        let mut q = Pending::new();
        q.push(env(2, 3, 7));
        let m = q.meta(0);
        assert_eq!(m.from, PartyId(2));
        assert_eq!(m.to, PartyId(3));
        assert_eq!(m.born_step, 7);
        assert_eq!(m.count, 1);
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

    /// The naive batch model the differential test below runs against:
    /// batches of `(from, to, seqs, creation ordinal)` in arrival order,
    /// plus whether the most recently pushed batch is still live (the
    /// only merge target).
    #[derive(Default)]
    struct Model {
        batches: Vec<(usize, usize, Vec<u64>, u64)>,
        tail_live: bool,
        next_seq: u64,
        created: u64,
    }

    impl Model {
        fn push(&mut self, q: &mut Pending, from: usize, to: usize) {
            q.push(env(from, to, self.next_seq));
            match self.batches.last_mut() {
                Some((f, t, seqs, _)) if self.tail_live && *f == from && *t == to => {
                    seqs.push(self.next_seq)
                }
                _ => {
                    self.batches
                        .push((from, to, vec![self.next_seq], self.created));
                    self.created += 1;
                }
            }
            self.tail_live = true;
            self.next_seq += 1;
        }

        fn take(&mut self, q: &mut Pending, i: usize) {
            let (f, t, seqs, _) = &mut self.batches[i];
            let m = q.meta(i);
            assert_eq!(
                (m.from.0, m.to.0, m.seq, m.count as usize),
                (*f, *t, seqs[0], seqs.len())
            );
            let e = q.take(i);
            assert_eq!((e.from.0, e.to.0, e.seq), (*f, *t, seqs.remove(0)));
            if seqs.is_empty() {
                if self.tail_live && i == self.batches.len() - 1 {
                    self.tail_live = false;
                }
                self.batches.remove(i);
            }
        }

        /// After every op: lengths agree, slot handles invert to their
        /// index, the since-ordinal view is the model's suffix, and the
        /// inline head mirror tracks the oldest batch exactly.
        fn check(&self, q: &Pending, seen: u64, at: &str) {
            assert_eq!(q.len(), self.batches.len(), "{at}");
            assert_eq!(q.created(), self.created, "{at}");
            let messages = self.batches.iter().map(|b| b.2.len()).sum::<usize>();
            assert_eq!(q.messages(), messages, "{at}");
            for (i, batch) in self.batches.iter().enumerate() {
                let slot = q.slot_of(i);
                assert_eq!(q.index_of_slot(slot), i, "{at}");
                assert_eq!(q.ordinal_of_slot(slot), Some(batch.3), "{at}");
            }
            for since in [0, seen, q.created()] {
                let expect: Vec<(BatchSlot, u64)> = self
                    .batches
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| b.3 >= since)
                    .map(|(i, b)| (q.slot_of(i), b.3))
                    .collect();
                let got: Vec<(BatchSlot, u64)> = q.batches_since(since).collect();
                assert_eq!(got, expect, "{at}, since {since}");
            }
            if !q.is_empty() {
                assert_eq!(q.head_born_step(), q.meta(0).born_step, "{at}");
            }
        }
    }

    /// Differential test of the batched Fenwick-indexed view against
    /// [`Model`], phase by phase (250 rounds each):
    ///
    /// * 0–3: fills and drains alternate over three senders and two
    ///   receivers, so batches merge and the arrival list outgrows its
    ///   capacity (compaction);
    /// * 4–5: a long fill of distinct pairs, past several slab pages;
    ///   6: a drain;
    /// * 7: drained to empty, then refilled to a shallow depth, which the
    ///   index follows down.
    ///
    /// Party ids sit either side of 2⁸ and up to `u16::MAX`: a record
    /// keeps its endpoints as `u16`s.
    #[test]
    fn matches_naive_model_under_mixed_workload() {
        use rand::{Rng, SeedableRng};
        const FROM: [usize; 3] = [0, 1 << 8, (1 << 15) + 5];
        const TO: [usize; 2] = [3, u16::MAX as usize];
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(42);
        let mut q = Pending::new();
        let mut model = Model::default();
        // A reader that looks at the queue only now and then, so
        // compactions and full drains fall between its looks.
        let mut seen = 0u64;
        let mut slab_steps = Vec::new();
        let mut refilling = false;
        for round in 0..2_000 {
            let phase = round / 250;
            let at = format!("round {round}");
            if phase == 7 {
                if !refilling {
                    while !model.batches.is_empty() {
                        model.take(&mut q, 0);
                    }
                    assert_eq!(q.index.capacity(), 0, "a full drain drops the index");
                    refilling = true;
                } else if model.batches.len() < 20 {
                    model.push(&mut q, FROM[round % 3], round);
                } else {
                    let i = rng.gen_range(0..model.batches.len());
                    model.take(&mut q, i);
                }
            } else {
                let push = match phase {
                    4 | 5 => 0.95,
                    6 => 0.35,
                    _ if phase % 2 == 0 => 0.65,
                    _ => 0.35,
                };
                if model.batches.is_empty() || rng.gen_bool(push) {
                    let from = FROM[rng.gen_range(0..3usize)];
                    let to = TO[rng.gen_range(0..2usize)];
                    // Phases 4–5: a fresh receiver per push, so every push
                    // opens a batch.
                    let to = if phase >= 4 { round } else { to };
                    model.push(&mut q, from, to);
                } else {
                    let i = rng.gen_range(0..model.batches.len());
                    model.take(&mut q, i);
                }
            }
            model.check(&q, seen, &at);
            if rng.gen_bool(0.1) {
                seen = q.created();
            }
            if round % 97 == 0 {
                let heads: Vec<u64> = q.metas().map(|m| m.seq).collect();
                let expect: Vec<u64> = model.batches.iter().map(|b| b.2[0]).collect();
                assert_eq!(heads, expect, "{at}");
            }
            if slab_steps.last() != Some(&q.slots.capacity()) {
                slab_steps.push(q.slots.capacity());
            }
        }
        // The slab grew step by step, one page a step.
        assert!(slab_steps.len() >= 5, "slab steps {slab_steps:?}");
        for w in slab_steps.windows(2) {
            assert_eq!(w[1], w[0] + PAGE, "slab steps {slab_steps:?}");
        }
        // The refill is shallow, and so is the index it descends.
        assert!((19..=20).contains(&model.batches.len()));
        assert_eq!(q.index.capacity(), 64, "index sized to what is live");
        while !model.batches.is_empty() {
            let i = model.batches.len() / 2;
            model.take(&mut q, i);
            model.check(&q, seen, "final drain");
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

    #[test]
    fn birth_steps_stay_exact_across_the_u32_boundary() {
        // Records and pool nodes keep only the low half of a birth step;
        // born either side of 2³², the stored halves wrap mid-queue.
        let start = (1u64 << 32) - 3;
        let born = |k: u64| start + 2 * k;
        let mut q = Pending::new();
        for k in 0..4 {
            // Distinct pairs: singleton batches, their steps in headers.
            let mut e = env(k as usize, 9, k);
            e.born_step = born(k);
            q.push(e);
        }
        for k in 4..7 {
            // One run: its steps in pool nodes, its head's in the header.
            let mut e = env(7, 8, k);
            e.born_step = born(k);
            q.push(e);
        }
        let metas: Vec<u64> = (0..q.len()).map(|i| q.meta(i).born_step).collect();
        assert_eq!(metas, [0, 1, 2, 3, 4].map(born));
        assert_eq!(q.head_born_step(), born(0));
        let mut taken = Vec::new();
        // Take the run's head, then everything from the front.
        taken.push(q.take(4).born_step);
        assert_eq!(q.meta(4).born_step, born(5));
        while !q.is_empty() {
            assert_eq!(q.head_born_step(), q.meta(0).born_step);
            taken.push(q.take(0).born_step);
        }
        assert_eq!(taken, [4, 0, 1, 2, 3, 5, 6].map(born));
    }

    /// Property test: `LiveIndex` set/select/prefix agrees with a naive
    /// `Vec<bool>` model under arbitrary op sequences, over word counts
    /// that are powers of two (the descent's tree is exactly as wide) and
    /// that are not (the tree's last words count zero), after a bulk
    /// rebuild with some positions live. Ops are decoded from raw words:
    /// kind = word % 3 (set / clear / select), operand = word / 3.
    mod liveindex_props {
        use super::super::{select_in_word, LiveIndex};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn matches_vec_bool_model(
                power_of_two in any::<bool>(),
                log in 0u32..5,
                odd_words in 1usize..40,
                rebuilt in 0usize..300,
                ops in proptest::collection::vec(any::<u64>(), 1..400),
            ) {
                let cap = 64 * if power_of_two { 1 << log } else { odd_words };
                let live = rebuilt.min(cap);
                let mut index = LiveIndex::default();
                index.rebuild(cap, live);
                prop_assert_eq!(index.capacity(), cap);
                let mut model = vec![false; cap];
                model[..live].fill(true);
                for word in ops {
                    let operand = (word / 3) as usize;
                    match word % 3 {
                        0 | 1 => {
                            let pos = operand % cap;
                            let live = word % 3 == 0;
                            if model[pos] != live {
                                model[pos] = live;
                                index.set(pos, live);
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
                // Final sweep: every position's liveness and prefix, and
                // every live rank's select.
                let mut rank = 0;
                for (pos, &live) in model.iter().enumerate() {
                    prop_assert_eq!(index.is_live(pos), live);
                    prop_assert_eq!(index.prefix(pos) as usize, rank);
                    if live {
                        rank += 1;
                        prop_assert_eq!(index.select(rank as u32), pos);
                    }
                }
            }

            #[test]
            fn select_in_word_finds_every_set_bit(word in any::<u64>(), sparse in any::<u64>()) {
                // Dense and sparse words alike, including all-ones.
                for word in [word, word & sparse & (sparse >> 7), u64::MAX] {
                    let bits: Vec<u32> = (0..64).filter(|b| word >> b & 1 == 1).collect();
                    for (r, &bit) in bits.iter().enumerate() {
                        prop_assert_eq!(select_in_word(word, r as u32), bit);
                    }
                }
            }
        }
    }
}
