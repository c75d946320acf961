//! The `net:` virtual-time network model.
//!
//! Every other scheduler only permutes delivery *order*; this family adds
//! a notion of *when*. A discrete-event virtual clock assigns each
//! in-flight batch a virtual arrival time — per-link latency sampled from
//! a configurable distribution, optional sampled link failures
//! (modelled as retransmission delay), and a seed-chosen partition that
//! heals at a configured virtual time — and always delivers the earliest
//! arrival next. One virtual tick is one virtual millisecond.
//!
//! The model stays inside the paper's hypothesis: a partition is a
//! *structured finite delay*, never a loss. Traffic crossing the cut
//! while it is up is re-timed to land after the heal, and a
//! never-healing partition resolves at a huge-but-finite horizon
//! ([`NEVER_HEAL`]), so every message is still eventually delivered and
//! the conservation invariant (`sent == delivered + dropped`) is
//! untouched.
//!
//! Determinism: the partition plan is derived once from
//! `(seed, spec)` via a dedicated RNG stream, so every per-party
//! scheduler instance (the sharded backend builds one per party)
//! resolves the identical cut and timing. A batch head is timed — its
//! arrival sampled from the scheduler RNG — at the first pick after it
//! becomes a head, heads waiting at the same pick in arrival order, so
//! the whole virtual schedule is a pure function of
//! `(seed, scenario string)`.
//!
//! Cost: the timed heads wait in a min-heap, so a pick costs
//! O(new heads + log in-flight), not a pass over everything in flight.
//!
//! Fairness: every arrival time is finite and the earliest goes first,
//! so no message waits forever — this family is fair by construction.
//! The step-count fairness cap ([`MAX_AGE`]) therefore does not apply to
//! it: a cap-forced delivery would land at the current clock reading,
//! before the envelope's own arrival time and straight through an
//! un-healed partition.
//!
//! [`MAX_AGE`]: crate::scheduler::MAX_AGE

use crate::ids::PartyId;
use crate::queue::{BatchSlot, MsgMeta, Pending};
use crate::runtime::NetConfig;
use crate::scenario::Fingerprint;
use crate::scheduler::Scheduler;
use crate::trace::TraceEvent;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Virtual-time horizon standing in for "never": a partition with no
/// `heal=` heals here. Huge (≈ 10^12 virtual ms) but finite, which keeps
/// eventual delivery a theorem rather than a hope.
pub const NEVER_HEAL: u64 = 1 << 40;

/// Per-link latency distribution (virtual milliseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyDist {
    /// Uniform over `lo..=hi`.
    Uniform {
        /// Minimum latency (≥ 1).
        lo: u64,
        /// Maximum latency (≥ `lo`).
        hi: u64,
    },
    /// Geometric approximation of an exponential with the given mean:
    /// integer trials with success probability `1/mean`, capped at
    /// `16 * mean`. Integer-only, so cross-platform determinism never
    /// rests on floating point.
    Exp {
        /// Mean latency (1..=256).
        mean: u64,
    },
}

impl LatencyDist {
    fn parse(v: &str) -> Option<LatencyDist> {
        if let Some(m) = v.strip_prefix("exp:") {
            let mean: u64 = m.parse().ok()?;
            if !(1..=256).contains(&mean) {
                return None;
            }
            return Some(LatencyDist::Exp { mean });
        }
        let (lo, hi) = v.split_once("..")?;
        let lo: u64 = lo.parse().ok()?;
        let hi: u64 = hi.parse().ok()?;
        if lo == 0 || hi < lo || hi > 1 << 20 {
            return None;
        }
        Some(LatencyDist::Uniform { lo, hi })
    }
}

impl fmt::Display for LatencyDist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatencyDist::Uniform { lo, hi } => write!(f, "{lo}..{hi}"),
            LatencyDist::Exp { mean } => write!(f, "exp:{mean}"),
        }
    }
}

/// Which parties the partition isolates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionSpec {
    /// `p<pct>`: cut `ceil(t * pct / 100)` seed-chosen parties (≥ 1, ≤ t).
    Sampled {
        /// Percentage of the fault budget `t` to isolate (1..=100).
        pct: u8,
    },
    /// `<i>+<j>+…`: an explicit strictly-increasing party list.
    Explicit(Vec<PartyId>),
}

impl PartitionSpec {
    fn parse(v: &str) -> Option<PartitionSpec> {
        if let Some(p) = v.strip_prefix('p') {
            let pct: u8 = p.parse().ok()?;
            if !(1..=100).contains(&pct) {
                return None;
            }
            return Some(PartitionSpec::Sampled { pct });
        }
        let mut ids = Vec::new();
        for part in v.split('+') {
            let id: usize = part.parse().ok()?;
            // Canonical form only: strictly increasing, no duplicates.
            if ids.last().is_some_and(|&PartyId(prev)| prev >= id) {
                return None;
            }
            ids.push(PartyId(id));
        }
        if ids.is_empty() {
            return None;
        }
        Some(PartitionSpec::Explicit(ids))
    }
}

impl fmt::Display for PartitionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionSpec::Sampled { pct } => write!(f, "p{pct}"),
            PartitionSpec::Explicit(ids) => {
                for (i, p) in ids.iter().enumerate() {
                    if i > 0 {
                        write!(f, "+")?;
                    }
                    write!(f, "{}", p.0)?;
                }
                Ok(())
            }
        }
    }
}

/// Parsed `net:` scheduler spec. Grammar (comma-separated, any order,
/// each key at most once):
///
/// ```text
/// net[:lat=<lo>..<hi> | lat=exp:<mean>][,fail=p<pct>]
///    [,partition=p<pct> | partition=<i>+<j>+…][,heal=<vticks>]
/// ```
///
/// `heal=` requires `partition=`; a partition without `heal=` never
/// heals (resolves at [`NEVER_HEAL`]). Bare `net` means `net:lat=1..8`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetSpec {
    /// Per-link latency distribution.
    pub lat: LatencyDist,
    /// Sampled link-failure probability in percent (0 = off). A failed
    /// send is retransmitted: its delay grows by four extra samples'
    /// worth, it is never lost.
    pub fail_pct: u8,
    /// Optional partition.
    pub partition: Option<PartitionSpec>,
    /// Virtual ticks after partition start at which it heals.
    pub heal_after: Option<u64>,
}

impl NetSpec {
    /// Parses a full scheduler string (`net` or `net:<args>`). Returns
    /// `None` on unknown keys, duplicate keys, out-of-range values, or
    /// `heal=` without `partition=`.
    pub fn parse(s: &str) -> Option<NetSpec> {
        let rest = if s == "net" {
            ""
        } else {
            match s.strip_prefix("net:") {
                Some(r) if !r.is_empty() => r,
                _ => return None,
            }
        };
        let mut lat = None;
        let mut fail = None;
        let mut partition = None;
        let mut heal = None;
        if !rest.is_empty() {
            for tok in rest.split(',') {
                let (k, v) = tok.split_once('=')?;
                match k {
                    "lat" if lat.is_none() => lat = Some(LatencyDist::parse(v)?),
                    "fail" if fail.is_none() => {
                        let p: u8 = v.strip_prefix('p')?.parse().ok()?;
                        if !(1..=99).contains(&p) {
                            return None;
                        }
                        fail = Some(p);
                    }
                    "partition" if partition.is_none() => {
                        partition = Some(PartitionSpec::parse(v)?)
                    }
                    "heal" if heal.is_none() => {
                        let h: u64 = v.parse().ok()?;
                        if h == 0 || h > 1 << 30 {
                            return None;
                        }
                        heal = Some(h);
                    }
                    _ => return None,
                }
            }
        }
        if heal.is_some() && partition.is_none() {
            return None;
        }
        Some(NetSpec {
            lat: lat.unwrap_or(LatencyDist::Uniform { lo: 1, hi: 8 }),
            fail_pct: fail.unwrap_or(0),
            partition,
            heal_after: heal,
        })
    }
}

impl fmt::Display for NetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net:lat={}", self.lat)?;
        if self.fail_pct > 0 {
            write!(f, ",fail=p{}", self.fail_pct)?;
        }
        if let Some(p) = &self.partition {
            write!(f, ",partition={p}")?;
        }
        if let Some(h) = self.heal_after {
            write!(f, ",heal={h}")?;
        }
        Ok(())
    }
}

/// A network-lifecycle event the virtual clock crossed; drained by the
/// backend into the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetEvent {
    /// The partition went up at `vtime`, isolating `cut`.
    PartitionStart {
        /// Virtual time of the cut.
        vtime: u64,
        /// Isolated parties (sorted).
        cut: Vec<PartyId>,
    },
    /// The partition healed at `vtime`.
    PartitionHeal {
        /// Virtual time of the heal.
        vtime: u64,
    },
}

impl NetEvent {
    /// The event as the flight recorder keeps it, stamped with the
    /// engine's `step`.
    pub(crate) fn traced(self, step: u64) -> TraceEvent {
        match self {
            NetEvent::PartitionStart { vtime, cut } => {
                TraceEvent::PartitionStart { step, vtime, cut }
            }
            NetEvent::PartitionHeal { vtime } => TraceEvent::PartitionHeal { step, vtime },
        }
    }
}

/// The resolved partition: which parties are cut, from when to when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    /// Isolated parties (sorted, non-empty, ≤ t of them).
    pub cut: Vec<PartyId>,
    /// Virtual time the cut goes up.
    pub start: u64,
    /// Virtual time the cut heals ([`NEVER_HEAL`]-based if unhealed).
    pub end: u64,
}

impl PartitionPlan {
    /// Derives the plan from `(seed, spec)` — identical on every
    /// scheduler instance sharing those inputs, which is what makes the
    /// sharded backend's per-party schedulers agree on the cut.
    fn derive(spec: &NetSpec, n: usize, t: usize, seed: u64) -> Option<PartitionPlan> {
        let part = spec.partition.as_ref()?;
        let mut rng = ChaCha12Rng::seed_from_u64(plan_seed(seed, spec));
        let cut: Vec<PartyId> = match part {
            PartitionSpec::Explicit(ids) => {
                ids.iter().copied().filter(|p| p.0 < n).take(t).collect()
            }
            PartitionSpec::Sampled { pct } => {
                if t == 0 {
                    return None;
                }
                let size = (t * *pct as usize).div_ceil(100).clamp(1, t);
                // Partial Fisher–Yates: the first `size` positions end up
                // a uniform sample without replacement.
                let mut idx: Vec<usize> = (0..n).collect();
                for k in 0..size {
                    let j = rng.gen_range(k..n);
                    idx.swap(k, j);
                }
                let mut cut: Vec<PartyId> = idx[..size].iter().map(|&i| PartyId(i)).collect();
                cut.sort_unstable();
                cut
            }
        };
        if cut.is_empty() {
            return None;
        }
        let start: u64 = rng.gen_range(0..64);
        let end = start.saturating_add(spec.heal_after.unwrap_or(NEVER_HEAL));
        Some(PartitionPlan { cut, start, end })
    }

    /// Whether a `from → to` link crosses the cut (exactly one endpoint
    /// isolated). Traffic *within* the cut still flows.
    fn crosses(&self, from: PartyId, to: PartyId) -> bool {
        self.cut.binary_search(&from).is_ok() != self.cut.binary_search(&to).is_ok()
    }
}

/// The [`Fingerprint`] of the canonical spec string (its bytes, no
/// terminator), folded with the run seed, so the plan RNG stream is a
/// pure function of `(seed, spec)`.
fn plan_seed(seed: u64, spec: &NetSpec) -> u64 {
    let mut h = Fingerprint::new();
    h.write_bytes(spec.to_string().as_bytes());
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(h.finish())
}

/// One timed batch in the event queue. The derived order is the
/// delivery order: earliest `vt` first, ties to the earliest arrival
/// (smallest creation `ordinal`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Arrival {
    /// Virtual arrival time sampled for the batch's head.
    vt: u64,
    /// The batch's creation ordinal in its queue.
    ordinal: u64,
    /// Where the batch lives — with `ordinal`, what tells a queued
    /// arrival whose batch is gone from a current one.
    slot: BatchSlot,
}

/// The discrete-event virtual-clock scheduler (glitch-style: an event
/// queue keyed by `(virtual_time, arrival order)`).
///
/// A batch head is *timed* at the first pick after it becomes a head:
/// `now + latency` (plus retransmission delay on a sampled link
/// failure), re-timed past the heal when the link crosses an active
/// partition cut. That is every batch opened since the previous pick
/// and — first, being older — the previously picked batch if it is
/// still in flight (its run was truncated, a send merged into it while
/// it drained, or the caller never took it): its arrival left the queue
/// when it was picked, so whatever heads it now is timed afresh. Heads
/// timed at the same pick draw from the RNG in arrival order.
///
/// `pick` returns the earliest arrival, ties broken by arrival order,
/// and the clock advances monotonically to that arrival's time. Batches
/// removed behind the scheduler's back — which the [`Scheduler`] contract
/// allows only the fairness cap, and the cap never overrides a clocked
/// scheduler — leave stale entries that are skipped when they surface. A
/// pick costs
/// O(heads timed + log in-flight) and yields the batch's handle, which
/// is what [`pick_slot`](Scheduler::pick_slot) hands the engines;
/// [`pick`](Scheduler::pick) turns it into a rank for callers that want
/// one.
pub struct NetScheduler {
    spec: NetSpec,
    /// The virtual clock, in virtual milliseconds.
    now: u64,
    /// Timed batches, earliest arrival on top. Every in-flight batch the
    /// last pick saw and did not return has exactly one entry.
    heap: BinaryHeap<Reverse<Arrival>>,
    /// [`Pending::created`] at the last pick: batches from this ordinal
    /// on are untimed.
    seen: u64,
    /// The arrival the last pick returned (no longer in `heap`).
    picked: Option<Arrival>,
    /// Resolved partition (set by `configure`; `None` = latency only).
    plan: Option<PartitionPlan>,
    emitted_start: bool,
    emitted_heal: bool,
    /// Lifecycle events crossed but not yet drained by the backend.
    events: Vec<NetEvent>,
}

impl NetScheduler {
    /// Builds an unconfigured scheduler. Until
    /// [`configure`](Scheduler::configure) runs, a partition spec
    /// degrades to latency-only (no cut can be derived without `n`,
    /// `t` and the seed).
    pub fn new(spec: NetSpec) -> Self {
        NetScheduler {
            spec,
            now: 0,
            heap: BinaryHeap::new(),
            seen: 0,
            picked: None,
            plan: None,
            emitted_start: false,
            emitted_heal: false,
            events: Vec::new(),
        }
    }

    /// The parsed spec.
    pub fn spec(&self) -> &NetSpec {
        &self.spec
    }

    /// The resolved partition plan, if any (after `configure`).
    pub fn plan(&self) -> Option<&PartitionPlan> {
        self.plan.as_ref()
    }

    fn sample_latency(&self, rng: &mut ChaCha12Rng) -> u64 {
        match self.spec.lat {
            LatencyDist::Uniform { lo, hi } => rng.gen_range(lo..=hi),
            LatencyDist::Exp { mean } => {
                // Geometric with p = 1/mean: mean = `mean`, capped.
                let cap = mean.saturating_mul(16);
                let mut d = 1u64;
                while d < cap && rng.gen_range(0..mean) != 0 {
                    d += 1;
                }
                d
            }
        }
    }

    /// Samples the virtual arrival time for a batch head.
    fn arrival_time(&self, m: &MsgMeta, rng: &mut ChaCha12Rng) -> u64 {
        let mut delay = self.sample_latency(rng);
        if self.spec.fail_pct > 0 && rng.gen_range(0..100u8) < self.spec.fail_pct {
            // Link failure = retransmission, not loss: four extra
            // samples' worth of delay keeps delivery eventual.
            delay = delay.saturating_add(4 * self.sample_latency(rng));
        }
        let natural = self.now.saturating_add(delay);
        if let Some(plan) = &self.plan {
            if plan.crosses(m.from, m.to) && natural >= plan.start && natural < plan.end {
                // Crossing an active cut: the message sits in the
                // partition and lands a fresh latency after the heal.
                return plan.end.saturating_add(self.sample_latency(rng));
            }
        }
        natural
    }

    /// Advances the clock monotonically to `target`, emitting any
    /// partition lifecycle events it crosses.
    fn advance(&mut self, target: u64) {
        if let Some(plan) = &self.plan {
            if !self.emitted_start && target >= plan.start {
                self.events.push(NetEvent::PartitionStart {
                    vtime: plan.start,
                    cut: plan.cut.clone(),
                });
                self.emitted_start = true;
            }
            if !self.emitted_heal && plan.end < NEVER_HEAL && target >= plan.end {
                self.events
                    .push(NetEvent::PartitionHeal { vtime: plan.end });
                self.emitted_heal = true;
            }
        }
        self.now = self.now.max(target);
    }

    /// Times the head of the live batch `slot` and queues its arrival.
    fn time(&mut self, pending: &Pending, slot: BatchSlot, ordinal: u64, rng: &mut ChaCha12Rng) {
        let vt = self.arrival_time(&pending.meta_of_slot(slot), rng);
        self.heap.push(Reverse(Arrival { vt, ordinal, slot }));
    }
}

/// Whether the batch a queued arrival was timed for is still in flight.
fn is_current(pending: &Pending, a: &Arrival) -> bool {
    pending.ordinal_of_slot(a.slot) == Some(a.ordinal)
}

impl Scheduler for NetScheduler {
    fn pick(&mut self, pending: &Pending, rng: &mut ChaCha12Rng) -> usize {
        let slot = self.pick_slot(pending, rng);
        pending.index_of_slot(slot)
    }

    fn pick_slot(&mut self, pending: &Pending, rng: &mut ChaCha12Rng) -> BatchSlot {
        // Arrival order: the surviving pick predates every new batch.
        if let Some(last) = self.picked.take().filter(|a| is_current(pending, a)) {
            self.time(pending, last.slot, last.ordinal, rng);
        }
        for (slot, ordinal) in pending.batches_since(self.seen) {
            self.time(pending, slot, ordinal, rng);
        }
        self.seen = pending.created();
        let next = loop {
            let Reverse(a) = self
                .heap
                .pop()
                .expect("every in-flight batch has a queued arrival");
            if is_current(pending, &a) {
                break a;
            }
        };
        self.advance(next.vt);
        self.picked = Some(next);
        // Stale entries only come from removals behind the scheduler's
        // back; should they ever outnumber the live ones, drop them.
        if self.heap.len() > 2 * pending.len() + 32 {
            self.heap.retain(|Reverse(a)| is_current(pending, a));
        }
        next.slot
    }

    fn name(&self) -> &'static str {
        "net"
    }

    fn configure(&mut self, config: &NetConfig) {
        self.plan = PartitionPlan::derive(&self.spec, config.n, config.t, config.seed);
    }

    fn virtual_now(&self) -> Option<u64> {
        Some(self.now)
    }

    fn fast_forward(&mut self, to: u64) {
        if to > self.now {
            self.advance(to);
        }
    }

    fn drain_net_events(&mut self, out: &mut Vec<NetEvent>) {
        out.append(&mut self.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{SessionId, SessionTag};
    use crate::network::Envelope;
    use crate::payload::Payload;
    use crate::queue::Parcel;

    fn envelope(from: usize, to: usize, seq: u64) -> Envelope {
        Envelope {
            from: PartyId(from),
            to: PartyId(to),
            session: SessionId::root().child(SessionTag::new("x", 0)),
            payload: Payload::new(0u8),
            seq,
            born_step: 0,
        }
    }

    fn pending(entries: &[(usize, usize)]) -> Pending {
        let mut q = Pending::new();
        for (seq, &(from, to)) in entries.iter().enumerate() {
            q.push(envelope(from, to, seq as u64));
        }
        q
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in [
            "net:lat=1..8",
            "net:lat=1..20,partition=p50,heal=200",
            "net:lat=exp:5,fail=p10",
            "net:lat=2..2,partition=0+2",
            "net:lat=1..8,fail=p1,partition=p100,heal=1",
        ] {
            let spec = NetSpec::parse(s).expect(s);
            assert_eq!(spec.to_string(), s, "canonical display");
            assert_eq!(NetSpec::parse(&spec.to_string()), Some(spec));
        }
        // Bare `net` canonicalizes to the default latency band.
        assert_eq!(NetSpec::parse("net").unwrap().to_string(), "net:lat=1..8");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for s in [
            "net:",
            "net:lat=0..8",             // zero latency
            "net:lat=9..2",             // inverted band
            "net:lat=exp:0",            // zero mean
            "net:lat=exp:999",          // mean out of range
            "net:lat=1..8,lat=2..3",    // duplicate key
            "net:heal=5",               // heal without partition
            "net:fail=p0",              // zero failure pct
            "net:fail=p100",            // certain failure
            "net:fail=10",              // missing p
            "net:partition=p0",         // empty cut
            "net:partition=p101",       // over 100%
            "net:partition=2+1",        // not strictly increasing
            "net:partition=1+1",        // duplicate
            "net:partition=",           // empty
            "net:partition=p50,heal=0", // zero heal
            "net:bogus=1",              // unknown key
            "nets:lat=1..8",            // wrong family
        ] {
            assert!(NetSpec::parse(s).is_none(), "should reject {s:?}");
        }
    }

    #[test]
    fn clock_is_monotone_and_picks_are_in_bounds() {
        let spec = NetSpec::parse("net:lat=1..20,fail=p25").unwrap();
        let mut s = NetScheduler::new(spec);
        s.configure(&NetConfig::new(4, 1, 7));
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        let mut q = pending(&[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]);
        let mut last = 0;
        while !q.is_empty() {
            let i = s.pick(&q, &mut rng);
            assert!(i < q.len());
            let now = s.virtual_now().unwrap();
            assert!(now >= last, "clock must be monotone");
            last = now;
            q.take(i);
        }
        assert!(last > 0, "delivering advances the clock");
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_and_spec() {
        let run = |seed: u64| {
            let spec = NetSpec::parse("net:lat=1..20,partition=p50,heal=50").unwrap();
            let mut s = NetScheduler::new(spec);
            s.configure(&NetConfig::new(7, 2, seed));
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let mut q = pending(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0)]);
            let mut order = Vec::new();
            while !q.is_empty() {
                let i = s.pick(&q, &mut rng);
                order.push((q.take(i).seq, s.virtual_now().unwrap()));
            }
            let mut events = Vec::new();
            s.fast_forward(NEVER_HEAL + 1);
            s.drain_net_events(&mut events);
            (order, events, s.plan().cloned())
        };
        assert_eq!(run(3), run(3), "identical seed, identical schedule");
        assert_ne!(run(3).0, run(4).0, "different seed, different schedule");
    }

    #[test]
    fn partition_delays_cross_cut_traffic_past_the_heal() {
        let spec = NetSpec::parse("net:lat=1..1,partition=0+1,heal=500").unwrap();
        let mut s = NetScheduler::new(spec);
        s.configure(&NetConfig::new(4, 2, 1));
        let plan = s.plan().cloned().expect("plan derived");
        assert_eq!(plan.cut, vec![PartyId(0), PartyId(1)]);
        assert_eq!(plan.end, plan.start + 500);

        // Drive the clock into the partition window with intra-cut
        // traffic, then check a cross-cut message sent into the same
        // queue lands after the heal — behind the intra-cut traffic
        // still in flight, which keeps its short latency.
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let mut q = pending(&[(0, 1); 70]);
        while s.virtual_now().unwrap() < plan.start {
            let i = s.pick(&q, &mut rng);
            q.take(i);
            assert!(!q.is_empty(), "enough intra-cut traffic to reach start");
        }
        q.push(envelope(0, 2, 1_000)); // crosses the cut
        loop {
            let i = s.pick(&q, &mut rng);
            if q.take(i).seq == 1_000 {
                break;
            }
            assert!(
                s.virtual_now().unwrap() < plan.end,
                "intra-cut traffic is not held back"
            );
        }
        assert!(
            s.virtual_now().unwrap() > plan.end,
            "cross-cut delivery waits for the heal"
        );
        let mut events = Vec::new();
        s.drain_net_events(&mut events);
        assert!(matches!(events[0], NetEvent::PartitionStart { .. }));
        assert!(matches!(
            events.last(),
            Some(NetEvent::PartitionHeal { .. })
        ));
    }

    #[test]
    fn never_healing_partition_still_delivers() {
        let spec = NetSpec::parse("net:lat=1..1,partition=0+1").unwrap();
        let mut s = NetScheduler::new(spec);
        s.configure(&NetConfig::new(4, 2, 1));
        let plan = s.plan().cloned().unwrap();
        assert!(plan.end >= NEVER_HEAL);
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        // A cross-cut message alone still gets picked (finite vtime).
        let mut q = pending(&[(0, 2)]);
        let i = s.pick(&q, &mut rng);
        q.take(i);
        assert!(q.is_empty());
        // The heal event is never emitted for a NEVER_HEAL horizon.
        s.fast_forward(u64::MAX);
        let mut events = Vec::new();
        s.drain_net_events(&mut events);
        assert!(events
            .iter()
            .all(|e| !matches!(e, NetEvent::PartitionHeal { .. })));
    }

    #[test]
    fn stale_arrivals_are_swept_once_they_outnumber_the_live() {
        let spec = NetSpec::parse("net:lat=64..64,partition=0+1").unwrap();
        let mut s = NetScheduler::new(spec);
        s.configure(&NetConfig::new(4, 2, 1));
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        // 200 batches stuck behind a cut that never heals, and one
        // intra-side message that arrives at 64.
        let mut q = Pending::new();
        for seq in 0..200 {
            q.push(envelope(0, 2 + seq as usize % 2, seq));
        }
        q.push(envelope(2, 3, 200));
        let i = s.pick(&q, &mut rng);
        assert_eq!(q.take(i).seq, 200);
        assert_eq!(s.heap.len(), 200);
        // The stuck traffic leaves behind the scheduler's back: its
        // arrivals would sit in the heap until the clock reached
        // `NEVER_HEAL`.
        for _ in 0..200 {
            q.take(0);
        }
        q.push(envelope(3, 2, 201));
        let i = s.pick(&q, &mut rng);
        assert_eq!(q.take(i).seq, 201);
        assert!(s.heap.is_empty(), "{} stale arrivals kept", s.heap.len());
        assert_eq!(s.virtual_now(), Some(128));
    }

    #[test]
    fn exp_latency_mean_is_plausible() {
        let spec = NetSpec::parse("net:lat=exp:5").unwrap();
        let s = NetScheduler::new(spec);
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        let n = 4000;
        let total: u64 = (0..n).map(|_| s.sample_latency(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((3.5..=6.5).contains(&mean), "observed mean {mean}");
    }

    #[test]
    fn unconfigured_partition_degrades_to_latency_only() {
        let spec = NetSpec::parse("net:lat=1..4,partition=p50,heal=10").unwrap();
        let mut s = NetScheduler::new(spec);
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let mut q = pending(&[(0, 1), (1, 0)]);
        while !q.is_empty() {
            let i = s.pick(&q, &mut rng);
            q.take(i);
        }
        assert!(s.plan().is_none());
    }

    #[test]
    fn sampled_cut_respects_the_fault_budget() {
        for pct in [1u8, 25, 50, 75, 100] {
            let spec = NetSpec::parse(&format!("net:lat=1..8,partition=p{pct},heal=50")).unwrap();
            let mut s = NetScheduler::new(spec);
            s.configure(&NetConfig::new(10, 3, 42));
            let plan = s.plan().expect("plan");
            assert!(!plan.cut.is_empty() && plan.cut.len() <= 3, "cut ≤ t");
            assert!(plan.cut.windows(2).all(|w| w[0] < w[1]), "sorted cut");
            assert!(plan.cut.iter().all(|p| p.0 < 10), "ids < n");
        }
    }

    /// The scheduler this event queue replaced, kept as its oracle:
    /// every pick walks every in-flight batch in arrival order, times
    /// the heads it has no arrival for, returns the earliest (ties to
    /// the earliest index) and forgets that head's arrival. Clock,
    /// sampling and partition plan are the real scheduler's own.
    struct ScanNetScheduler {
        inner: NetScheduler,
        /// Batch-head sequence number → assigned virtual arrival time.
        arrivals: std::collections::BTreeMap<u64, u64>,
    }

    impl ScanNetScheduler {
        fn pick(&mut self, pending: &Pending, rng: &mut ChaCha12Rng) -> usize {
            let mut best = 0usize;
            let mut best_seq = 0u64;
            let mut best_vt = u64::MAX;
            for (i, m) in pending.metas().enumerate() {
                let vt = match self.arrivals.get(&m.seq) {
                    Some(&vt) => vt,
                    None => {
                        let vt = self.inner.arrival_time(&m, rng);
                        self.arrivals.insert(m.seq, vt);
                        vt
                    }
                };
                // Strict `<` keeps ties on the earliest arrival index.
                if vt < best_vt {
                    best_vt = vt;
                    best = i;
                    best_seq = m.seq;
                }
            }
            self.inner.advance(best_vt);
            self.arrivals.remove(&best_seq);
            best
        }
    }

    /// Differential test of the event queue against the retained scan:
    /// both schedulers read one shared `Pending` driven by one op
    /// stream, each with its own copy of the RNG, and must agree after
    /// every pick on the index, the clock, the lifecycle events and
    /// where the RNG stands.
    mod differential {
        use super::*;
        use proptest::prelude::*;
        use rand::RngCore;

        const SPECS: &[&str] = &[
            "net:lat=1..8",
            "net:lat=1..1",
            "net:lat=exp:5",
            "net:lat=1..20,fail=p25",
            "net:lat=exp:3,fail=p10,partition=p50,heal=40",
            "net:lat=1..12,partition=p100",
            "net:lat=2..6,partition=0+2,heal=25",
            "net:lat=exp:9,partition=3",
        ];
        const N: usize = 7;

        struct Pair {
            queue: Pending,
            new: NetScheduler,
            new_rng: ChaCha12Rng,
            scan: ScanNetScheduler,
            scan_rng: ChaCha12Rng,
            next_seq: u64,
        }

        impl Pair {
            fn new(spec: &str, seed: u64) -> Pair {
                let spec = NetSpec::parse(spec).expect(spec);
                let configured = || {
                    let mut s = NetScheduler::new(spec.clone());
                    s.configure(&NetConfig::new(N, 2, seed));
                    s
                };
                Pair {
                    queue: Pending::new(),
                    new: configured(),
                    new_rng: ChaCha12Rng::seed_from_u64(seed),
                    scan: ScanNetScheduler {
                        inner: configured(),
                        arrivals: Default::default(),
                    },
                    scan_rng: ChaCha12Rng::seed_from_u64(seed),
                    next_seq: 0,
                }
            }

            fn fresh(&mut self, from: usize, to: usize) -> Envelope {
                self.next_seq += 1;
                envelope(from, to, self.next_seq)
            }

            /// One pick by both schedulers; returns the agreed index.
            fn pick(&mut self) -> usize {
                let i = self.new.pick(&self.queue, &mut self.new_rng);
                let j = self.scan.pick(&self.queue, &mut self.scan_rng);
                assert_eq!(i, j, "picked index");
                assert_eq!(self.new.virtual_now(), self.scan.inner.virtual_now());
                let (mut a, mut b) = (Vec::new(), Vec::new());
                self.new.drain_net_events(&mut a);
                self.scan.inner.drain_net_events(&mut b);
                assert_eq!(a, b, "lifecycle events");
                assert_eq!(
                    self.new_rng.clone().next_u64(),
                    self.scan_rng.clone().next_u64(),
                    "RNG position"
                );
                assert!(
                    self.new.heap.len() <= 2 * self.queue.len() + 32,
                    "heap {} entries for {} batches",
                    self.new.heap.len(),
                    self.queue.len()
                );
                i
            }

            /// Picks and takes until nothing is in flight.
            fn drain(&mut self) {
                while !self.queue.is_empty() {
                    let i = self.pick();
                    self.queue.take(i);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn event_queue_matches_the_scan(
                spec in 0usize..SPECS.len(),
                seed in any::<u64>(),
                ops in proptest::collection::vec(any::<u64>(), 40..600),
            ) {
                let mut p = Pair::new(SPECS[spec], seed);
                let mut last_pair = (0, 1);
                for word in ops {
                    let arg = (word >> 8) as usize;
                    let (from, to) = (arg % N, (arg / N) % N);
                    match word % 64 {
                        // A send: fresh pair (self-sends included), or a
                        // repeat of the last pair that merges while that
                        // batch is still the tail.
                        0..=19 => {
                            last_pair = (from, to);
                            let e = p.fresh(from, to);
                            p.queue.push(e);
                        }
                        20..=25 => {
                            let e = p.fresh(last_pair.0, last_pair.1);
                            p.queue.push(e);
                        }
                        26..=29 => {
                            last_pair = (from, to);
                            let mut run = (0..1 + arg % 4)
                                .map(|_| Parcel::split(p.fresh(from, to)).2)
                                .collect();
                            p.queue.push_batch(PartyId(from), PartyId(to), &mut run);
                        }
                        _ if p.queue.is_empty() => {}
                        // Pick and deliver the whole run; every other
                        // delivery answers with a send on the same link,
                        // which merges into the draining batch if that is
                        // the tail.
                        30..=44 => {
                            let i = p.pick();
                            let slot = p.queue.slot_of(i);
                            let m = p.queue.meta_of_slot(slot);
                            for k in 0..m.count {
                                p.queue.take_slot(slot);
                                if (arg + k as usize).is_multiple_of(2) {
                                    let e = p.fresh(m.from.0, m.to.0);
                                    p.queue.push(e);
                                }
                            }
                        }
                        // Pick, deliver only part of the run (a step
                        // budget running out).
                        45..=50 => {
                            let i = p.pick();
                            let slot = p.queue.slot_of(i);
                            let run = p.queue.run_len_of_slot(slot) as usize;
                            for _ in 0..arg % run {
                                p.queue.take_slot(slot);
                            }
                        }
                        // Pick and take nothing.
                        51..=54 => {
                            p.pick();
                        }
                        // The front batch leaves without a pick (what
                        // the fairness cap does to an order-only
                        // scheduler).
                        55..=62 => {
                            for _ in 0..p.queue.meta(0).count {
                                p.queue.take(0);
                            }
                        }
                        // Drain to empty — the queue resets — and go on.
                        _ => p.drain(),
                    }
                }
                p.drain();
            }
        }
    }
}
