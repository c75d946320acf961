//! Common-coin sources for binary Byzantine agreement.
//!
//! The BA protocol (Definition 3.3) is *safe* with any coin — agreement and
//! validity never depend on coin quality — but its expected round count
//! does. The three sources span the design space the paper discusses:
//!
//! * [`LocalCoin`] — Ben-Or'83: private fair coins. Almost-surely
//!   terminating, exponential expected rounds (the baseline of
//!   experiment E8).
//! * [`OracleCoin`] — an ideal common-coin functionality (every party
//!   derives the same pseudo-random bit from the round number). Used for
//!   ablations and fast tests; not a real protocol.
//! * [`WeakSharedCoin`] — an SVSS-based weak coin in the spirit of the
//!   paper's reference [2] (Abraham–Dolev–Halpern'08): every party deals a
//!   hidden random bit, parties gather `n − t` completed dealings,
//!   exchange gather sets and output the parity of the union they adopt.
//!   Parties may disagree on the output (that is what makes it *weak*),
//!   but it is common-and-uniform often enough to make BA terminate in
//!   expected O(1) rounds under the schedulers of `aft-sim`. Its state is
//!   indexed by dealer (`PartyMap` / `PartySet`): the gather set, the
//!   union and the order reconstructions start in are party order.

use aft_field::Fp;
use aft_sim::{mix, Context, Instance, PartyId, PartyMap, PartySet, Payload, SessionTag};
use aft_svss::{ShareBundle, SvssRec, SvssShare};
use rand::Rng;
use std::sync::Arc;

/// What a [`CoinSource`] produces for a given round.
pub enum Coin {
    /// The coin value is immediately available locally.
    Immediate(bool),
    /// A protocol instance must be spawned; it outputs a `bool`.
    Protocol(Box<dyn Instance>),
}

/// A per-round coin supplier for binary BA.
pub trait CoinSource: Send {
    /// Produces the round-`round` coin (value or protocol).
    fn flip(&mut self, round: u64, ctx: &mut Context<'_>) -> Coin;

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Ben-Or's private coin: each party flips locally. Unbiased but
/// uncorrelated across parties — agreement of all honest coins happens
/// with probability `2^-(h-1)` per round, so expected round counts grow
/// exponentially with `n`. The classic baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct LocalCoin;

impl CoinSource for LocalCoin {
    fn flip(&mut self, _round: u64, ctx: &mut Context<'_>) -> Coin {
        Coin::Immediate(ctx.rng().gen())
    }
    fn name(&self) -> &'static str {
        "local"
    }
}

/// An ideal common coin: all parties derive the same unbiased bit from
/// `(salt, round)` via an integer hash. Models a perfect coin
/// functionality for tests and ablations (experiment E9); it is *not* a
/// distributed protocol.
#[derive(Debug, Clone, Copy)]
pub struct OracleCoin {
    salt: u64,
}

impl OracleCoin {
    /// Creates the oracle with a shared salt (all parties must use the same
    /// salt for the coin to be common).
    pub fn new(salt: u64) -> Self {
        OracleCoin { salt }
    }
}

impl CoinSource for OracleCoin {
    fn flip(&mut self, round: u64, _ctx: &mut Context<'_>) -> Coin {
        Coin::Immediate(mix(self.salt ^ mix(round)) & 1 == 1)
    }
    fn name(&self) -> &'static str {
        "oracle"
    }
}

/// Factory for the SVSS-based weak shared coin: each flip spawns a
/// [`WeakCoinInstance`].
#[derive(Debug, Default, Clone, Copy)]
pub struct WeakSharedCoin;

impl CoinSource for WeakSharedCoin {
    fn flip(&mut self, _round: u64, _ctx: &mut Context<'_>) -> Coin {
        Coin::Protocol(Box::new(WeakCoinInstance::new()))
    }
    fn name(&self) -> &'static str {
        "weak-shared"
    }
}

/// Messages of the weak shared coin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WeakCoinMsg {
    /// "These n − t dealers' share phases completed for me": dealer ids,
    /// strictly ascending. A list, not a [`PartySet`] — an id off the wire
    /// is not yet known to be a party, and must not size anything.
    Gather(Vec<usize>),
}

impl aft_sim::WireMessage for WeakCoinMsg {
    const KIND: u16 = aft_sim::wire::KIND_BA_BASE + 4;
    const KIND_NAME: &'static str = "ba-gather";

    fn encode_body(&self, out: &mut Vec<u8>) {
        let WeakCoinMsg::Gather(set) = self;
        for &d in set {
            aft_sim::wire::WireWriter::u64(out, d as u64);
        }
    }

    fn decode_body(bytes: &[u8]) -> Option<Self> {
        if !bytes.len().is_multiple_of(8) {
            return None;
        }
        let mut r = aft_sim::wire::WireReader::new(bytes);
        let mut set = Vec::with_capacity(bytes.len() / 8);
        while r.remaining() > 0 {
            let d = usize::try_from(r.u64()?).ok()?;
            // Strictly ascending: the canonical order is the only
            // accepted one, so encode ∘ decode = id.
            if set.last().is_some_and(|&p| p >= d) {
                return None;
            }
            set.push(d);
        }
        Some(WeakCoinMsg::Gather(set))
    }
}

/// Registers this module's private message kinds.
pub(crate) fn register_private_codecs(registry: &mut aft_sim::CodecRegistry) {
    registry.register::<WeakCoinMsg>();
}

/// Session tag kinds for the weak coin's children.
const WSHARE_TAG: &str = "wc-share";
const WREC_TAG: &str = "wc-rec";

/// One execution of the SVSS-based weak common coin (one instance per BA
/// round, spawned by the BA through [`WeakSharedCoin`]).
///
/// Protocol: every party deals an SVSS of a uniformly random bit; on
/// completing `n − t` dealings it broadcasts its *gather set*; having
/// received `n − t` gather sets it reconstructs every dealer in their
/// union and outputs the parity of the sum of reconstructed values.
///
/// Output commonality is *not* guaranteed (parties may adopt different
/// unions) — this is exactly the weak coin/strong coin gap the paper's
/// Section 3 closes. Unbiasedness-in-the-common-case comes from every
/// union containing at least one honest dealer whose bit is hidden until
/// the unions are fixed.
#[derive(Default)]
pub struct WeakCoinInstance {
    /// Completed dealings, by dealer: each the share phase's own output,
    /// handed on to the dealing's reconstruction.
    bundles: PartyMap<Arc<ShareBundle>>,
    gather_sent: bool,
    /// Parties whose gather set arrived.
    gathers: PartySet,
    /// The adopted union: the first n − t gather sets, folded in as they
    /// arrive and fixed with the last of them.
    union: PartySet,
    /// Dealers whose reconstruction has been spawned.
    rec_spawned: PartySet,
    rec_values: PartyMap<Fp>,
    done: bool,
}

impl WeakCoinInstance {
    /// Creates the instance.
    pub fn new() -> Self {
        Self::default()
    }

    fn try_progress(&mut self, ctx: &mut Context<'_>) {
        let (n, t) = (ctx.n(), ctx.t());
        if !self.gather_sent && self.bundles.len() >= n - t {
            self.gather_sent = true;
            let set = self.bundles.iter().map(|(d, _)| d.0).collect();
            ctx.send_all(WeakCoinMsg::Gather(set));
        }
        // Once my own gather set is fixed, participate in the
        // reconstruction of EVERY completed dealing — not only my union's.
        // Parties may adopt different unions (that is what makes the coin
        // weak), so a dealer can be in a peer's union but not mine; if only
        // union members reconstructed, such dealings would lack the 2t+1
        // honest participants reconstruction needs and the peer would stall
        // forever. Universal participation keeps every reconstruction live;
        // my union only gates my own output.
        if self.gather_sent {
            for (dealer, bundle) in self.bundles.iter() {
                if self.rec_spawned.insert(dealer) {
                    ctx.spawn(
                        SessionTag::new(WREC_TAG, dealer.0 as u64),
                        Box::new(SvssRec::new(Arc::clone(bundle))),
                    );
                }
            }
        }
        let union_fixed = self.gathers.len() >= n - t;
        if union_fixed && !self.done && self.union.iter().all(|d| self.rec_values.contains(d)) {
            self.done = true;
            let values = self.union.iter().filter_map(|d| self.rec_values.get(d));
            let sum: Fp = values.copied().sum();
            ctx.output(sum.value() & 1 == 1);
        }
        // Output, and a reconstruction spawned for every dealer: a later
        // gather, dealing or reconstruction changes nothing.
        if self.done && self.rec_spawned.len() == n {
            ctx.retire::<WeakCoinMsg>(self);
        }
    }
}

impl Instance for WeakCoinInstance {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let me = ctx.me();
        self.bundles.reserve(ctx.n());
        self.rec_values.reserve(ctx.n());
        let bit = Fp::from(ctx.rng().gen::<bool>());
        for d in ctx.parties().collect::<Vec<_>>() {
            let inst: Box<dyn Instance> = if d == me {
                Box::new(SvssShare::dealer(me, bit))
            } else {
                Box::new(SvssShare::party(d))
            };
            ctx.spawn(SessionTag::new(WSHARE_TAG, d.0 as u64), inst);
        }
    }

    fn on_message(&mut self, from: PartyId, payload: &Payload, ctx: &mut Context<'_>) {
        let Some(WeakCoinMsg::Gather(set)) = payload.to_msg::<WeakCoinMsg>() else {
            return;
        };
        let (n, t) = (ctx.n(), ctx.t());
        // Ascending, so the last entry bounds them all: nothing at or
        // beyond n may reach a party-indexed table.
        if set.len() < n - t || set.last().is_some_and(|&d| d >= n) {
            return; // malformed gather
        }
        let union_fixed = self.gathers.len() >= n - t;
        if !self.gathers.insert(from) {
            return;
        }
        if !union_fixed {
            self.union.extend(set.into_iter().map(PartyId));
        }
        self.try_progress(ctx);
    }

    fn on_child_output(&mut self, child: &SessionTag, output: &Payload, ctx: &mut Context<'_>) {
        match child.kind {
            WSHARE_TAG => {
                if let Some(bundle) = output.downcast_arc::<ShareBundle>() {
                    self.bundles.insert(PartyId(child.index as usize), bundle);
                    self.try_progress(ctx);
                }
            }
            WREC_TAG => {
                if let Some(v) = output.downcast_ref::<Fp>() {
                    self.rec_values.insert(PartyId(child.index as usize), *v);
                    self.try_progress(ctx);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod codec_tests {
    use super::*;
    use aft_sim::wire::{decode_frame_as, encode_frame};
    use aft_sim::WireMessage;

    #[test]
    fn gather_round_trips_in_canonical_order_only() {
        let msg = WeakCoinMsg::Gather(vec![0, 3, 7]);
        let mut frame = Vec::new();
        encode_frame(&msg, &mut frame);
        assert_eq!(decode_frame_as::<WeakCoinMsg>(&frame), Some(msg));
        // Duplicates and out-of-order entries are non-canonical bytes.
        let mut body = Vec::new();
        for d in [3u64, 3] {
            body.extend_from_slice(&d.to_le_bytes());
        }
        assert_eq!(WeakCoinMsg::decode_body(&body), None, "duplicate");
        let mut body = Vec::new();
        for d in [7u64, 3] {
            body.extend_from_slice(&d.to_le_bytes());
        }
        assert_eq!(WeakCoinMsg::decode_body(&body), None, "descending");
        assert_eq!(WeakCoinMsg::decode_body(&[1, 2, 3]), None, "ragged");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_sim::{scheduler_by_name, NetConfig, Runtime, RuntimeExt, SessionId, SimNetwork};
    use std::sync::{Mutex, Weak};

    #[test]
    fn oracle_coin_is_common_and_roughly_fair() {
        // Same salt ⇒ same bits; distribution roughly balanced.
        let mut a = OracleCoin::new(7);
        let mut ones = 0;
        let mut net = SimNetwork::new(NetConfig::new(4, 1, 0), scheduler_by_name("fifo").unwrap());
        // A context is needed only for the trait signature; oracle ignores it.
        let _ = &mut net;
        // Count bits through the raw mix function to avoid a context.
        for round in 0..1000u64 {
            if mix(7 ^ mix(round)) & 1 == 1 {
                ones += 1;
            }
        }
        assert!((350..650).contains(&ones), "ones={ones}");
        assert_eq!(a.name(), "oracle");
        let _ = &mut a;
    }

    /// The weak coin, handing the test a `Weak` handle to each dealing's
    /// bundle as it arrives, by dealer, and retiring when the coin would.
    struct BundleProbe {
        coin: WeakCoinInstance,
        bundles: Arc<Mutex<PartyMap<Weak<ShareBundle>>>>,
    }

    impl BundleProbe {
        fn retire_with_the_coin(&self, ctx: &mut Context<'_>) {
            if self.coin.done && self.coin.rec_spawned.len() == ctx.n() {
                ctx.retire::<WeakCoinMsg>(self);
            }
        }
    }

    impl Instance for BundleProbe {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.coin.on_start(ctx);
        }
        fn on_message(&mut self, from: PartyId, payload: &Payload, ctx: &mut Context<'_>) {
            self.coin.on_message(from, payload, ctx);
            self.retire_with_the_coin(ctx);
        }
        fn on_child_output(&mut self, c: &SessionTag, out: &Payload, ctx: &mut Context<'_>) {
            if let (WSHARE_TAG, Some(bundle)) = (c.kind, out.downcast_arc::<ShareBundle>()) {
                let dealer = PartyId(c.index as usize);
                self.bundles
                    .lock()
                    .unwrap()
                    .insert(dealer, Arc::downgrade(&bundle));
            }
            self.coin.on_child_output(c, out, ctx);
            self.retire_with_the_coin(ctx);
        }
    }

    #[test]
    fn weak_coin_standalone_terminates_and_is_boolean() {
        for seed in 0..5u64 {
            let (n, t) = (4usize, 1usize);
            let mut net = SimNetwork::new(
                NetConfig::new(n, t, seed),
                scheduler_by_name("random").unwrap(),
            );
            let sid = SessionId::root().child(SessionTag::new("wcoin", 0));
            let bundles: Vec<_> = (0..n).map(|_| Arc::default()).collect();
            for (p, bundles) in bundles.iter().enumerate() {
                let coin = WeakCoinInstance::new();
                let bundles = Arc::clone(bundles);
                net.spawn(
                    PartyId(p),
                    sid.clone(),
                    Box::new(BundleProbe { coin, bundles }),
                );
            }
            let report = net.run(10_000_000);
            assert_eq!(report.stop, aft_sim::StopReason::Quiescent, "seed={seed}");
            for (p, bundles) in bundles.iter().enumerate() {
                assert!(
                    net.output_as::<bool>(PartyId(p), &sid).is_some(),
                    "seed={seed} p={p} no coin output"
                );
                // Every dealing completed, and its one bundle, never
                // copied, is held by its reconstruction alone: the share
                // phase's output went to the coin and was not kept, and
                // the coin's table went with the coin, which retired once
                // it had output and spawned a reconstruction for every
                // dealer.
                let bundles = bundles.lock().unwrap();
                assert_eq!(bundles.len(), n, "seed={seed} p={p}");
                for (d, bundle) in bundles.iter() {
                    assert_eq!(Weak::strong_count(bundle), 1, "seed={seed} p={p} d={d}");
                }
            }
        }
    }

    #[test]
    fn gather_naming_a_non_party_is_refused_before_it_sizes_anything() {
        // Party 3 opens with gather sets whose last entry is no party — one
        // just past n, one that as a bit position would be an eighth of an
        // exabyte — then plays honestly. The coin terminates regardless.
        struct JunkGather(WeakCoinInstance);
        impl Instance for JunkGather {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send_all(WeakCoinMsg::Gather(vec![0, 1, 2, ctx.n()]));
                ctx.send_all(WeakCoinMsg::Gather(vec![0, 1, 2, 1 << 60]));
                self.0.on_start(ctx);
            }
            fn on_message(&mut self, from: PartyId, payload: &Payload, ctx: &mut Context<'_>) {
                self.0.on_message(from, payload, ctx);
            }
            fn on_child_output(&mut self, c: &SessionTag, out: &Payload, ctx: &mut Context<'_>) {
                self.0.on_child_output(c, out, ctx);
            }
        }
        let (n, t) = (4usize, 1usize);
        let mut net = SimNetwork::new(NetConfig::new(n, t, 2), scheduler_by_name("fifo").unwrap());
        let sid = SessionId::root().child(SessionTag::new("wcoin", 0));
        for p in 0..n {
            let inst: Box<dyn Instance> = match p {
                3 => Box::new(JunkGather(WeakCoinInstance::new())),
                _ => Box::new(WeakCoinInstance::new()),
            };
            net.spawn(PartyId(p), sid.clone(), inst);
        }
        let report = net.run(10_000_000);
        assert_eq!(report.stop, aft_sim::StopReason::Quiescent);
        for p in 0..n {
            assert!(net.output_as::<bool>(PartyId(p), &sid).is_some(), "p={p}");
        }
    }

    #[test]
    fn weak_coin_often_agrees_under_random_scheduling() {
        let mut agree = 0;
        let trials = 10;
        for seed in 0..trials {
            let (n, t) = (4usize, 1usize);
            let mut net = SimNetwork::new(
                NetConfig::new(n, t, seed),
                scheduler_by_name("random").unwrap(),
            );
            let sid = SessionId::root().child(SessionTag::new("wcoin", 0));
            for p in 0..n {
                net.spawn(PartyId(p), sid.clone(), Box::new(WeakCoinInstance::new()));
            }
            net.run(10_000_000);
            let vals: Vec<bool> = (0..n)
                .filter_map(|p| net.output_as::<bool>(PartyId(p), &sid).copied())
                .collect();
            if vals.len() == n && vals.windows(2).all(|w| w[0] == w[1]) {
                agree += 1;
            }
        }
        assert!(agree >= trials / 2, "agreement too rare: {agree}/{trials}");
    }
}
