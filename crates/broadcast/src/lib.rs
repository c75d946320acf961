//! # aft-broadcast
//!
//! Bracha's asynchronous reliable broadcast ("A-Cast"), the `Broadcast`
//! primitive of Definition 4.4 in Abraham–Dolev–Stern (PODC 2020), after
//! Bracha (Inf. & Comp. 1987).
//!
//! A designated sender broadcasts a value `v`; with `n ≥ 3t + 1` and at most
//! `t` Byzantine parties the protocol guarantees:
//!
//! * **Termination** — if the sender is nonfaulty all nonfaulty parties
//!   output; if *any* nonfaulty party outputs, every nonfaulty participant
//!   eventually outputs.
//! * **Validity** — if the sender is nonfaulty, every output equals `v`.
//! * **Correctness** (agreement) — no two nonfaulty parties output
//!   different values, even under an equivocating Byzantine sender.
//!
//! The message flow is the classic three-phase amplification:
//! `Send(v)` → `Echo(v)` on first `Send` → `Ready(v)` on `2t+1` echoes or
//! `t+1` readies → deliver on `2t+1` readies.
//!
//! # Example
//!
//! ```
//! use aft_broadcast::Acast;
//! use aft_sim::{NetConfig, PartyId, RandomScheduler, Runtime, RuntimeExt, SessionId,
//!               SessionTag, SimNetwork};
//!
//! let mut net = SimNetwork::new(NetConfig::new(4, 1, 42), Box::new(RandomScheduler));
//! let sid = SessionId::root().child(SessionTag::new("acast", 0));
//! for p in 0..4 {
//!     let inst = if p == 0 {
//!         Acast::sender(PartyId(0), "hello".to_string())
//!     } else {
//!         Acast::receiver(PartyId(0))
//!     };
//!     net.spawn(PartyId(p), sid.clone(), Box::new(inst));
//! }
//! net.run(100_000);
//! for p in 0..4 {
//!     assert_eq!(net.output_as::<String>(PartyId(p), &sid).unwrap(), "hello");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use aft_sim::wire::{acast_kind, CodecRegistry, WireReader, WireWriter};
use aft_sim::{Context, Instance, PartyId, PartySet, Payload, WireMessage};
use std::fmt::Debug;
use std::hash::Hash;

/// Bound on the value types A-Cast can carry: ordinary value semantics
/// plus a wire codec, so a broadcast of `V` runs on byte-level backends
/// too.
pub trait Value: Clone + Eq + Hash + Debug + WireMessage {}
impl<T: Clone + Eq + Hash + Debug + WireMessage> Value for T {}

/// Wire messages of the A-Cast protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcastMsg<V> {
    /// The sender's initial value.
    Send(V),
    /// Echo of the first received `Send`.
    Echo(V),
    /// Commitment amplification.
    Ready(V),
}

impl<V: Value> WireMessage for AcastMsg<V> {
    /// The carried value's kind with the A-Cast bit set: every `V` gets
    /// its own frame kind without a registry of instantiations (plain
    /// kinds stay below `0x8000`, which this checks at compile time).
    const KIND: u16 = {
        assert!(V::KIND < 0x8000, "A-Cast cannot wrap a wrapped kind");
        acast_kind(V::KIND)
    };
    const KIND_NAME: &'static str = "acast";

    /// One tag byte on top of the carried value's bound, when it has one
    /// — so wrapped small votes keep their static inline/probe-free
    /// classification.
    const MAX_BODY_HINT: Option<usize> = match V::MAX_BODY_HINT {
        Some(max) => Some(max + 1),
        None => None,
    };

    fn encode_body(&self, out: &mut Vec<u8>) {
        let (tag, v) = match self {
            AcastMsg::Send(v) => (0u8, v),
            AcastMsg::Echo(v) => (1, v),
            AcastMsg::Ready(v) => (2, v),
        };
        WireWriter::u8(out, tag);
        v.encode_body(out);
    }

    fn decode_body(bytes: &[u8]) -> Option<Self> {
        let mut r = WireReader::new(bytes);
        let tag = r.u8()?;
        let v = V::decode_body(r.rest())?;
        match tag {
            0 => Some(AcastMsg::Send(v)),
            1 => Some(AcastMsg::Echo(v)),
            2 => Some(AcastMsg::Ready(v)),
            _ => None,
        }
    }
}

/// Registers the A-Cast frame kinds for the value types the workspace
/// broadcasts out of the box (protocol crates register their own vote
/// types on top — e.g. `aft-ba` adds `AcastMsg<V1..V3>`).
pub fn register_codecs(registry: &mut CodecRegistry) {
    registry.register::<AcastMsg<u8>>();
    registry.register::<AcastMsg<u32>>();
    registry.register::<AcastMsg<u64>>();
    registry.register::<AcastMsg<String>>();
    registry.register::<AcastMsg<Vec<usize>>>();
}

/// Per-value vote tally. Honest executions see one distinct value, and
/// that first value and its voters are held inline — with [`PartySet`]'s
/// 16 bytes and inline word for `n ≤ 64`, a tally then owns no heap
/// memory at all, so an honest [`Acast`] is its own box (96 bytes for a
/// `u8`, 80 for a `bool`) and nothing else. Only a second distinct value
/// (an equivocating sender; at most a handful) spills, to a `Vec` behind
/// one pointer that is boxed on that first spill and scanned linearly:
/// that beats hashing every message, and the bitsets never rehash, where
/// a per-value hash set of voters grows (and reallocates) `O(log n)` times
/// on its way to `n` of them. A-Cast tallies are the delivery hot path of
/// every protocol built on broadcast, so this is where the per-message
/// constant matters.
struct Tally<V> {
    first: Option<(V, PartySet)>,
    /// Every further distinct value, in order of first vote.
    #[allow(clippy::box_collection)] // one pointer, not a 24-byte `Vec` header
    rest: Option<Box<Vec<(V, PartySet)>>>,
}

impl<V: Value> Tally<V> {
    fn new() -> Self {
        Tally {
            first: None,
            rest: None,
        }
    }

    /// Records `from`'s vote for `v`; returns the value's new vote count,
    /// or `None` for a duplicate (vote changes count per value — A-Cast
    /// quorums are per-value, equivocators only split their weight).
    fn record(&mut self, v: &V, from: PartyId) -> Option<usize> {
        let first = self
            .first
            .get_or_insert_with(|| (v.clone(), PartySet::new()));
        let voters = if first.0 == *v {
            &mut first.1
        } else {
            let rest = self.rest.get_or_insert_with(Box::default);
            let at = match rest.iter().position(|(ev, _)| ev == v) {
                Some(at) => at,
                None => {
                    rest.push((v.clone(), PartySet::new()));
                    rest.len() - 1
                }
            };
            &mut rest[at].1
        };
        voters.insert(from).then(|| voters.len())
    }
}

/// One party's A-Cast instance (honest behaviour).
///
/// Construct with [`Acast::sender`] for the designated sender or
/// [`Acast::receiver`] for everyone else, then spawn on a
/// [`aft_sim::SimNetwork`] under a common session id. The instance outputs
/// the delivered value of type `V`.
///
/// Once it has echoed, readied and delivered it has no step left — each
/// of the three happens once — so it [retires](Context::retire) then,
/// and its tallies are freed mid-run.
pub struct Acast<V> {
    sender: PartyId,
    input: Option<V>,
    echoed: bool,
    readied: bool,
    delivered: bool,
    echoes: Tally<V>,
    readies: Tally<V>,
}

impl<V: Value> Acast<V> {
    /// Creates the designated sender's instance, broadcasting `input`.
    pub fn sender(sender: PartyId, input: V) -> Self {
        Acast {
            input: Some(input),
            ..Self::receiver(sender)
        }
    }

    /// Creates a non-sender participant expecting `sender`'s broadcast.
    pub fn receiver(sender: PartyId) -> Self {
        Acast {
            sender,
            input: None,
            echoed: false,
            readied: false,
            delivered: false,
            echoes: Tally::new(),
            readies: Tally::new(),
        }
    }

    fn maybe_ready(&mut self, v: &V, ctx: &mut Context<'_>) {
        if !self.readied {
            self.readied = true;
            ctx.send_all(AcastMsg::Ready(v.clone()));
            self.retire_if_spent(ctx);
        }
    }

    /// Called where a flag flips: the last of the three retires.
    fn retire_if_spent(&self, ctx: &mut Context<'_>) {
        if self.echoed && self.readied && self.delivered {
            ctx.retire::<AcastMsg<V>>(self);
        }
    }
}

impl<V: Value> Instance for Acast<V> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if ctx.me() == self.sender {
            if let Some(v) = self.input.clone() {
                ctx.send_all(AcastMsg::Send(v));
            }
        }
    }

    fn on_message(&mut self, from: PartyId, payload: &Payload, ctx: &mut Context<'_>) {
        let Some(msg) = payload.view::<AcastMsg<V>>() else {
            return; // type-confused or byte-garbled (Byzantine): ignore
        };
        let (n, t) = (ctx.n(), ctx.t());
        match &*msg {
            AcastMsg::Send(v) => {
                // Only the designated sender's first Send counts.
                if from == self.sender && !self.echoed {
                    self.echoed = true;
                    ctx.send_all(AcastMsg::Echo(v.clone()));
                    self.retire_if_spent(ctx);
                }
            }
            AcastMsg::Echo(v) => {
                if let Some(count) = self.echoes.record(v, from) {
                    if count >= n - t {
                        self.maybe_ready(v, ctx);
                    }
                }
            }
            AcastMsg::Ready(v) => {
                if let Some(count) = self.readies.record(v, from) {
                    if count > t {
                        self.maybe_ready(v, ctx);
                    }
                    if count >= n - t && !self.delivered {
                        self.delivered = true;
                        ctx.output(v.clone());
                        self.retire_if_spent(ctx);
                    }
                }
            }
        }
    }
}

/// A Byzantine sender that *equivocates*: it sends `value_a` to parties
/// with even ids and `value_b` to odd ids, then plays the rest of the
/// protocol honestly for whichever value it echoes itself.
///
/// Against `n ≥ 3t + 1` honest amplification this cannot cause two honest
/// parties to deliver different values — the agreement test uses it.
pub struct EquivocatingSender<V> {
    value_a: V,
    value_b: V,
    inner: Acast<V>,
}

impl<V: Value> EquivocatingSender<V> {
    /// Creates the equivocating sender (must be spawned at the sender's
    /// party).
    pub fn new(me: PartyId, value_a: V, value_b: V) -> Self {
        EquivocatingSender {
            value_a,
            value_b,
            inner: Acast::receiver(me),
        }
    }
}

// never retires: a wrapper; the honest A-Cast it forwards to retires as
// its own type, which is not this one.
impl<V: Value> Instance for EquivocatingSender<V> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for p in ctx.parties().collect::<Vec<_>>() {
            let v = if p.0 % 2 == 0 {
                self.value_a.clone()
            } else {
                self.value_b.clone()
            };
            ctx.send(p, AcastMsg::Send(v));
        }
    }

    fn on_message(&mut self, from: PartyId, payload: &Payload, ctx: &mut Context<'_>) {
        // Participate "honestly" downstream of the split Send.
        self.inner.on_message(from, payload, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_sim::{
        party_node, scheduler_by_name, NetConfig, Outgoing, SessionId, SessionTag, SilentInstance,
        SimNetwork, StopReason,
    };
    use aft_sim::{Runtime, RuntimeExt};

    fn sid() -> SessionId {
        SessionId::root().child(SessionTag::new("acast", 0))
    }

    fn run_acast(
        n: usize,
        t: usize,
        seed: u64,
        sched: &str,
        setup: impl Fn(usize) -> Box<dyn Instance>,
    ) -> SimNetwork {
        let mut net = SimNetwork::new(
            NetConfig::new(n, t, seed),
            scheduler_by_name(sched).unwrap(),
        );
        for p in 0..n {
            net.spawn(PartyId(p), sid(), setup(p));
        }
        net.run(2_000_000);
        net
    }

    #[test]
    fn tally_counts_per_value_and_keeps_the_first_inline() {
        let mut tally = Tally::<u8>::new();
        assert_eq!(tally.record(&7, PartyId(0)), Some(1));
        assert_eq!(tally.record(&7, PartyId(3)), Some(2));
        assert_eq!(tally.record(&7, PartyId(0)), None, "a duplicate vote");
        assert!(tally.rest.is_none(), "one value: nothing spilled");
        // Two more values, interleaved: each counts its own voters, and a
        // party that changes its vote counts once per value.
        assert_eq!(tally.record(&8, PartyId(0)), Some(1));
        assert_eq!(tally.record(&9, PartyId(5)), Some(1));
        assert_eq!(tally.record(&8, PartyId(70)), Some(2));
        assert_eq!(tally.record(&8, PartyId(70)), None);
        assert_eq!(tally.record(&9, PartyId(5)), None);
        assert_eq!(tally.record(&7, PartyId(70)), Some(3));
        let first = tally.first.as_ref().expect("the first value");
        assert_eq!((first.0, first.1.len()), (7, 3));
        let spilled = tally.rest.as_deref().expect("two more values spilled");
        let rest: Vec<(u8, usize)> = spilled.iter().map(|(v, s)| (*v, s.len())).collect();
        assert_eq!(rest, [(8, 2), (9, 1)]);
    }

    #[test]
    fn an_acast_instance_is_small() {
        let sizes = [
            (std::mem::size_of::<Acast<u8>>(), 96, "u8"),
            (std::mem::size_of::<Acast<bool>>(), 80, "bool"),
        ];
        for (size, budget, value) in sizes {
            assert!(
                size <= budget,
                "an Acast<{value}> is {size} bytes, budget {budget} (160 with a 40-byte party \
                 set and an inline `Vec` for the values past the first in each tally)"
            );
        }
    }

    mod tally_model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// `Tally::record` against the set of distinct (value, voter)
            /// votes: a handful of values, so several spill, and party ids
            /// past 64, so voter sets cross the inline word.
            #[test]
            fn tally_matches_a_vote_set(
                votes in proptest::collection::vec(
                    any::<u32>().prop_map(|x| ((x % 4) as u8, (x / 4 % 200) as usize)),
                    0..120,
                ),
            ) {
                let mut tally = Tally::<u8>::new();
                let mut model: BTreeSet<(u8, usize)> = BTreeSet::new();
                let mut values = Vec::new();
                for (v, from) in votes {
                    if !values.contains(&v) {
                        values.push(v);
                    }
                    let count = model.range((v, 0)..=(v, usize::MAX)).count();
                    let expected = model.insert((v, from)).then_some(count + 1);
                    prop_assert_eq!(tally.record(&v, PartyId(from)), expected, "{} from {}", v, from);
                }
                // The first value inline, the others spilled in order of
                // first vote, boxed only once there is a second value.
                let first = tally.first.as_ref().map(|(v, _)| *v);
                prop_assert_eq!(first, values.first().copied());
                let spilled: Vec<u8> = tally.rest.iter().flat_map(|r| r.iter().map(|(v, _)| *v)).collect();
                prop_assert_eq!(&spilled[..], values.get(1..).unwrap_or(&[]));
                prop_assert_eq!(tally.rest.is_some(), values.len() > 1);
            }
        }
    }

    #[test]
    fn honest_sender_all_deliver_value() {
        for n in [4usize, 7, 10] {
            let t = (n - 1) / 3;
            for sched in ["fifo", "random", "lifo"] {
                for seed in 0..5 {
                    let net = run_acast(n, t, seed, sched, |p| {
                        if p == 0 {
                            Box::new(Acast::sender(PartyId(0), 123u64))
                        } else {
                            Box::new(Acast::<u64>::receiver(PartyId(0)))
                        }
                    });
                    for p in 0..n {
                        assert_eq!(
                            net.output_as::<u64>(PartyId(p), &sid()),
                            Some(&123),
                            "n={n} sched={sched} seed={seed} p={p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn silent_sender_no_delivery_but_quiescent() {
        let net = run_acast(4, 1, 0, "random", |p| {
            if p == 0 {
                Box::new(SilentInstance)
            } else {
                Box::new(Acast::<u8>::receiver(PartyId(0)))
            }
        });
        for p in 0..4 {
            assert!(net.output(PartyId(p), &sid()).is_none());
        }
    }

    #[test]
    fn t_silent_receivers_still_deliver() {
        for n in [4usize, 7] {
            let t = (n - 1) / 3;
            let net = run_acast(n, t, 3, "random", |p| {
                if p == 0 {
                    Box::new(Acast::sender(PartyId(0), 9u32))
                } else if p <= t {
                    Box::new(SilentInstance)
                } else {
                    Box::new(Acast::<u32>::receiver(PartyId(0)))
                }
            });
            for p in t + 1..n {
                assert_eq!(net.output_as::<u32>(PartyId(p), &sid()), Some(&9));
            }
        }
    }

    #[test]
    fn equivocating_sender_never_splits_agreement() {
        for n in [4usize, 7, 10] {
            let t = (n - 1) / 3;
            for seed in 0..20 {
                let net = run_acast(n, t, seed, "random", |p| {
                    if p == 0 {
                        Box::new(EquivocatingSender::new(PartyId(0), 1u8, 2u8))
                    } else {
                        Box::new(Acast::<u8>::receiver(PartyId(0)))
                    }
                });
                let outputs: Vec<&u8> = (1..n)
                    .filter_map(|p| net.output_as::<u8>(PartyId(p), &sid()))
                    .collect();
                // All honest outputs (if any) must be identical.
                if let Some(first) = outputs.first() {
                    assert!(
                        outputs.iter().all(|v| v == first),
                        "n={n} seed={seed}: split outputs {outputs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn totality_if_one_delivers_all_deliver() {
        // Run under every scheduler and check the all-or-nothing property
        // among honest parties (with an equivocating sender it may be
        // nothing; with honest sender it must be all).
        for seed in 0..20 {
            let net = run_acast(7, 2, seed, "random", |p| {
                if p == 0 {
                    Box::new(EquivocatingSender::new(PartyId(0), 10u8, 20u8))
                } else {
                    Box::new(Acast::<u8>::receiver(PartyId(0)))
                }
            });
            let delivered: Vec<bool> = (1..7)
                .map(|p| net.output(PartyId(p), &sid()).is_some())
                .collect();
            let any = delivered.iter().any(|&b| b);
            let all = delivered.iter().all(|&b| b);
            assert!(
                !any || all,
                "seed={seed}: partial delivery among honest parties {delivered:?}"
            );
        }
    }

    #[test]
    fn crash_mid_broadcast_preserves_agreement() {
        for seed in 0..10 {
            let mut net = SimNetwork::new(
                NetConfig::new(7, 2, seed),
                scheduler_by_name("random").unwrap(),
            );
            for p in 0..7 {
                let inst: Box<dyn Instance> = if p == 0 {
                    Box::new(Acast::sender(PartyId(0), 5u8))
                } else {
                    Box::new(Acast::<u8>::receiver(PartyId(0)))
                };
                net.spawn(PartyId(p), sid(), inst);
            }
            net.run(9);
            net.crash(PartyId(1));
            net.run(15);
            net.crash(PartyId(2));
            let report = net.run(2_000_000);
            assert_eq!(report.stop, StopReason::Quiescent);
            for p in 3..7 {
                assert_eq!(
                    net.output_as::<u8>(PartyId(p), &sid()),
                    Some(&5),
                    "seed={seed}"
                );
            }
        }
    }

    #[test]
    fn duplicate_and_garbage_messages_ignored() {
        // A Byzantine receiver spams Echo/Ready duplicates for a bogus value;
        // honest parties still deliver the sender's value.
        struct Spammer;
        impl Instance for Spammer {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                for _ in 0..3 {
                    ctx.send_all(AcastMsg::Echo(77u8));
                    ctx.send_all(AcastMsg::Ready(77u8));
                }
                ctx.send_all("not even an AcastMsg".to_string());
            }
            fn on_message(&mut self, _f: PartyId, _p: &Payload, ctx: &mut Context<'_>) {
                ctx.send_all(AcastMsg::Ready(77u8));
            }
        }
        let net = run_acast(4, 1, 1, "random", |p| {
            if p == 0 {
                Box::new(Acast::sender(PartyId(0), 5u8))
            } else if p == 3 {
                Box::new(Spammer)
            } else {
                Box::new(Acast::<u8>::receiver(PartyId(0)))
            }
        });
        for p in 1..3 {
            assert_eq!(net.output_as::<u8>(PartyId(p), &sid()), Some(&5));
        }
    }

    #[test]
    fn non_sender_send_is_ignored() {
        // A Byzantine non-sender issuing Send must not trigger echoes.
        struct FakeSender;
        impl Instance for FakeSender {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send_all(AcastMsg::Send(66u8));
            }
            fn on_message(&mut self, _f: PartyId, _p: &Payload, _c: &mut Context<'_>) {}
        }
        // Real sender silent; fake sender shouts. Nobody may deliver 66.
        let net = run_acast(4, 1, 2, "random", |p| match p {
            0 => Box::new(SilentInstance),
            1 => Box::new(FakeSender),
            _ => Box::new(Acast::<u8>::receiver(PartyId(0))),
        });
        for p in 2..4 {
            assert!(net.output(PartyId(p), &sid()).is_none());
        }
    }

    #[test]
    fn multiple_parallel_acasts_do_not_interfere() {
        // Every party broadcasts its own id in its own session.
        let n = 4;
        let mut net = SimNetwork::new(
            NetConfig::new(n, 1, 9),
            scheduler_by_name("random").unwrap(),
        );
        let mk_sid = |s: usize| SessionId::root().child(SessionTag::new("acast", s as u64));
        for s in 0..n {
            for p in 0..n {
                let inst: Box<dyn Instance> = if p == s {
                    Box::new(Acast::sender(PartyId(s), s as u64))
                } else {
                    Box::new(Acast::<u64>::receiver(PartyId(s)))
                };
                net.spawn(PartyId(p), mk_sid(s), inst);
            }
        }
        net.run(2_000_000);
        for s in 0..n {
            for p in 0..n {
                assert_eq!(
                    net.output_as::<u64>(PartyId(p), &mk_sid(s)),
                    Some(&(s as u64)),
                    "session {s} party {p}"
                );
            }
        }
    }

    /// Delivers `msgs` to `node` at `sid`, one by one.
    fn feed(
        node: &mut aft_sim::Node,
        sid: &SessionId,
        msgs: &[(usize, AcastMsg<u8>)],
    ) -> Vec<Outgoing> {
        let mut out = Vec::new();
        for (from, msg) in msgs {
            node.deliver(
                PartyId(*from),
                sid.clone(),
                Payload::message(msg.clone()),
                &mut out,
            );
        }
        out
    }

    fn delivered(node: &aft_sim::Node) -> Option<u8> {
        node.output(&sid())?.downcast_ref::<u8>().copied()
    }

    #[test]
    fn an_acast_retires_after_its_last_obligation_not_its_output() {
        let (n, t) = (7, 2);
        let mut node = party_node(&NetConfig::new(n, t, 3), 1);
        let _ = node.spawn(sid(), Box::new(Acast::<u8>::receiver(PartyId(0))));
        // 2t + 1 readies before the sender's `Send`: ready and deliver …
        let readies: Vec<_> = (2..2 * t + 3).map(|p| (p, AcastMsg::Ready(4))).collect();
        let out = feed(&mut node, &sid(), &readies);
        assert_eq!(out.len(), n, "its own ready, to everyone");
        assert_eq!(delivered(&node), Some(4));
        assert_eq!(node.retired_count(), 0, "an echo is still owed");
        // … and the late `Send` is still echoed, after which it is spent.
        let out = feed(&mut node, &sid(), &[(0, AcastMsg::Send(4))]);
        assert_eq!(out.len(), n, "its echo, to everyone");
        let echo = |o: &Outgoing| o.payload.to_msg::<AcastMsg<u8>>() == Some(AcastMsg::Echo(4));
        assert!(out.iter().all(echo));
        assert_eq!(node.retired_count(), 1);
        assert!(feed(&mut node, &sid(), &[(0, AcastMsg::Send(4))]).is_empty());
    }

    #[test]
    fn a_wrapper_is_not_retired_by_the_acast_it_wraps() {
        /// Forwards to an honest A-Cast and, once that has delivered,
        /// answers every message.
        struct Answering(Acast<u8>);
        impl Instance for Answering {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                self.0.on_start(ctx);
            }
            fn on_message(&mut self, from: PartyId, payload: &Payload, ctx: &mut Context<'_>) {
                self.0.on_message(from, payload, ctx);
                if self.0.delivered {
                    ctx.send(from, 0u64);
                }
            }
        }
        let (n, t) = (4, 1);
        let mut node = party_node(&NetConfig::new(n, t, 3), 1);
        let wrapped = Box::new(Answering(Acast::receiver(PartyId(0))));
        let _ = node.spawn(sid(), wrapped);
        // The inner A-Cast's whole life: send, every echo, every ready.
        let life: Vec<_> = [(0, AcastMsg::Send(4))]
            .into_iter()
            .chain((0..n).map(|p| (p, AcastMsg::Echo(4))))
            .chain((0..n).map(|p| (p, AcastMsg::Ready(4))))
            .collect();
        feed(&mut node, &sid(), &life);
        assert_eq!(delivered(&node), Some(4));
        assert_eq!(node.retired_count(), 0, "the inner retired as its own type");
        // One more message after that life is still answered.
        let out = feed(&mut node, &sid(), &[(3, AcastMsg::Echo(4))]);
        assert_eq!(out.len(), 1);
        assert_eq!(
            (out[0].to, out[0].payload.to_msg::<u64>()),
            (PartyId(3), Some(0))
        );
    }

    #[test]
    fn string_values_work() {
        let net = run_acast(4, 1, 4, "fifo", |p| {
            if p == 0 {
                Box::new(Acast::sender(PartyId(0), "payload".to_string()))
            } else {
                Box::new(Acast::<String>::receiver(PartyId(0)))
            }
        });
        assert_eq!(
            net.output_as::<String>(PartyId(2), &sid())
                .map(String::as_str),
            Some("payload")
        );
    }
}
