//! Binary Byzantine agreement (Definition 3.3), after Bracha'87's
//! three-step validated-voting rounds with a pluggable common coin.

use crate::coin::{Coin, CoinSource};
use aft_broadcast::Acast;
use aft_sim::wire::{WireReader, WireWriter, KIND_BA_BASE};
use aft_sim::{Context, Instance, PartyId, PartyMap, PartySet, Payload, SessionTag, WireMessage};
use std::collections::HashMap;

/// Phase-1 vote value (A-Cast payload/output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct V1(pub bool);
/// Phase-2 vote value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct V2(pub bool);
/// Phase-3 vote value; `None` is the "no candidate" (⊥) vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct V3(pub Option<bool>);

/// Direct (non-broadcast) termination-gadget message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DecideMsg(pub(crate) bool);

macro_rules! bool_vote_wire {
    ($ty:ident, $kind:expr, $name:literal) => {
        impl WireMessage for $ty {
            const KIND: u16 = $kind;
            const KIND_NAME: &'static str = $name;
            const MAX_BODY_HINT: Option<usize> = Some(1);
            fn encode_body(&self, out: &mut Vec<u8>) {
                WireWriter::bool(out, self.0);
            }
            fn decode_body(bytes: &[u8]) -> Option<Self> {
                let mut r = WireReader::new(bytes);
                let v = r.bool()?;
                r.finish()?;
                Some($ty(v))
            }
        }
    };
}

bool_vote_wire!(V1, KIND_BA_BASE, "ba-v1");
bool_vote_wire!(V2, KIND_BA_BASE + 1, "ba-v2");
bool_vote_wire!(DecideMsg, KIND_BA_BASE + 3, "ba-decide");

/// Registers this module's private message kinds.
pub(crate) fn register_private_codecs(registry: &mut aft_sim::CodecRegistry) {
    registry.register::<DecideMsg>();
}

impl WireMessage for V3 {
    const KIND: u16 = KIND_BA_BASE + 2;
    const KIND_NAME: &'static str = "ba-v3";
    const MAX_BODY_HINT: Option<usize> = Some(1);
    fn encode_body(&self, out: &mut Vec<u8>) {
        WireWriter::u8(
            out,
            match self.0 {
                None => 2,
                Some(false) => 0,
                Some(true) => 1,
            },
        );
    }
    fn decode_body(bytes: &[u8]) -> Option<Self> {
        let mut r = WireReader::new(bytes);
        let v = match r.u8()? {
            0 => Some(false),
            1 => Some(true),
            2 => None,
            _ => return None,
        };
        r.finish()?;
        Some(V3(v))
    }
}

/// Session tag kinds for per-round vote broadcasts (index packs
/// `round * n + voter`).
const V1_TAG: &str = "bav1";
/// Phase-2 tag kind.
const V2_TAG: &str = "bav2";
/// Phase-3 tag kind.
const V3_TAG: &str = "bav3";
/// Coin child tag kind (index = round).
const COIN_TAG: &str = "bacoin";

/// Hard cap on rounds — almost-sure termination makes hitting this
/// practically impossible; it converts a liveness bug into a loud panic.
const MAX_ROUNDS: u64 = 10_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PhaseState {
    /// Sent my phase-1 vote, waiting for n−t accepted phase-1 votes.
    Await1,
    /// Sent phase-2, waiting for n−t accepted phase-2 votes.
    Await2,
    /// Sent phase-3, waiting for n−t accepted phase-3 votes.
    Await3,
    /// Waiting for an asynchronous coin protocol.
    AwaitCoin,
    /// Decided, and holding this round until another voter's phase-1
    /// vote for it is accepted.
    Held,
}

/// How many recorded votes carry `w`.
fn tally<T: PartialEq>(votes: &PartyMap<T>, w: T) -> usize {
    votes.values().filter(|&v| *v == w).count()
}

#[derive(Default)]
struct RoundVotes {
    /// Accepted votes per phase, by voter (a voter's first vote stands).
    v1: PartyMap<bool>,
    v2: PartyMap<bool>,
    v3: PartyMap<Option<bool>>,
    /// Votes delivered but not yet validated.
    pending2: Vec<(PartyId, bool)>,
    pending3: Vec<(PartyId, Option<bool>)>,
    /// Whether my own phase-2 / phase-3 votes were broadcast.
    sent2: bool,
    sent3: bool,
    /// Whether the round's coin was already requested. The coin is flipped
    /// in every round that any honest party opens undecided, by EVERY
    /// party — even parties that decide without consulting it — because a
    /// protocol coin (the SVSS-based weak coin) only terminates when all
    /// honest parties participate. A party that already decided holds its
    /// next round (see [`BinaryBa`]) and flips that round's coin only once
    /// the round opens. That keeps the rule: an undecided honest party
    /// A-Casts its own phase-1 vote for the round, A-Cast termination
    /// brings that vote to every honest party, and its acceptance opens
    /// every held round. A round no honest party opens undecided needs no
    /// coin, because then every honest party decided and the `Decide`
    /// gadget halts them all.
    coin_requested: bool,
}

/// One party's binary Byzantine agreement instance.
///
/// Structure per round (all vote messages via [`Acast`], which pins
/// Byzantine voters to a single value per broadcast):
///
/// 1. broadcast `V1(est)`; await `n−t` accepted phase-1 votes, set
///    `est₁ :=` their majority;
/// 2. broadcast `V2(est₁)` — accepted at a receiver only once `t+1` of its
///    accepted phase-1 votes support the value; await `n−t` accepted, set
///    the candidate `d := Some(w)` if `2t+1` accepted phase-2 votes carry
///    `w`, else `d := None`;
/// 3. broadcast `V3(d)` — `Some(w)` accepted only with `2t+1` accepted
///    phase-2 `w`-votes, `None` only if both values appear among accepted
///    phase-2 votes; await `n−t` accepted: `2t+1 × Some(w)` ⇒ **decide
///    `w`**, `t+1 × Some(w)` ⇒ `est := w`, otherwise `est :=` coin.
///
/// The validation rules make a unanimous round decide *deterministically*
/// (Byzantine counter-votes fail validation), which yields the Validity
/// property outright; agreement is threshold arithmetic (see the test
/// suite); and termination is almost-sure because every round that flips
/// the common coin onto the locked value ends in unanimity.
///
/// Deciding parties keep participating until a Bracha-style termination
/// gadget (`Decide` at `t+1` → relay, `2t+1` → halt) lets everyone stop,
/// which gives Definition 3.3's "if some nonfaulty party completes, all
/// do".
///
/// A party that has decided *holds* each round it enters afterwards: it
/// spawns only the `n−1` phase-1 receivers, so that it still echoes the
/// other parties' votes, and opens the round — its phase-2/3 receivers
/// and its own `V1(est)` sender — at the first phase-1 vote of that round
/// it accepts from another voter. When every honest party decided in the
/// same round, nobody opens the next one and the gadget halts them all;
/// in a unanimous run that saves the whole post-decision round. The held
/// vote is the `V1(est)` the open round sends, so agreement and validity
/// are untouched. Liveness: an undecided honest party A-Casts its own
/// phase-1 vote for the round, which every honest party accepts (A-Cast
/// termination) and which therefore opens every held round, the round's
/// coin included; if no honest party is undecided, the gadget halts them
/// all. A Byzantine phase-1 vote only opens the round early, as if it
/// were never held.
pub struct BinaryBa {
    input: bool,
    est: bool,
    round: u64,
    state: PhaseState,
    rounds: HashMap<u64, RoundVotes>,
    coin: Box<dyn CoinSource>,
    decided: Option<bool>,
    decide_sent: bool,
    /// Who sent `Decide(false)` / `Decide(true)`.
    decide_votes: [PartySet; 2],
    halted: bool,
    output_done: bool,
}

impl BinaryBa {
    /// Creates the instance with this party's `input` bit and a coin
    /// source.
    pub fn new(input: bool, coin: Box<dyn CoinSource>) -> Self {
        BinaryBa {
            input,
            est: input,
            round: 0,
            state: PhaseState::Await1,
            rounds: HashMap::new(),
            coin,
            decided: None,
            decide_sent: false,
            decide_votes: Default::default(),
            halted: false,
            output_done: false,
        }
    }

    fn vote_tag(kind: &'static str, round: u64, voter: PartyId, n: usize) -> SessionTag {
        SessionTag::new(kind, round * n as u64 + voter.0 as u64)
    }

    /// Enters `round`: spawn receivers for everyone's phase-1 votes, then
    /// open the round — or, once decided, hold it until another voter's
    /// phase-1 vote for it is accepted (see [`BinaryBa`]).
    fn start_round(&mut self, ctx: &mut Context<'_>) {
        if self.halted {
            return;
        }
        assert!(
            self.round < MAX_ROUNDS,
            "BA liveness failure: round cap hit"
        );
        let n = ctx.n();
        let me = ctx.me();
        let r = self.round;
        for p in ctx.parties().filter(|&p| p != me).collect::<Vec<_>>() {
            ctx.spawn(
                Self::vote_tag(V1_TAG, r, p, n),
                Box::new(Acast::<V1>::receiver(p)),
            );
        }
        if self.decided.is_some() && self.rounds.entry(r).or_default().v1.is_empty() {
            self.state = PhaseState::Held;
            return;
        }
        self.open_round(ctx);
    }

    /// Spawns the current round's phase-2/3 receivers and the sender for
    /// my phase-1 vote, and runs [`advance`](Self::advance).
    fn open_round(&mut self, ctx: &mut Context<'_>) {
        let n = ctx.n();
        let me = ctx.me();
        let r = self.round;
        self.state = PhaseState::Await1;
        for p in ctx.parties().filter(|&p| p != me).collect::<Vec<_>>() {
            ctx.spawn(
                Self::vote_tag(V2_TAG, r, p, n),
                Box::new(Acast::<V2>::receiver(p)),
            );
            ctx.spawn(
                Self::vote_tag(V3_TAG, r, p, n),
                Box::new(Acast::<V3>::receiver(p)),
            );
        }
        ctx.spawn(
            Self::vote_tag(V1_TAG, r, me, n),
            Box::new(Acast::sender(me, V1(self.est))),
        );
        self.advance(ctx);
    }

    /// Validation + phase-progression fixpoint for the current round.
    fn advance(&mut self, ctx: &mut Context<'_>) {
        if self.halted {
            return;
        }
        let n = ctx.n();
        let t = ctx.t();
        let me = ctx.me();
        loop {
            let r = self.round;
            let votes = self.rounds.entry(r).or_default();

            // Validate pending phase-2 votes: value w needs t+1 accepted
            // phase-1 votes for w.
            let mut progressed = false;
            let mut i = 0;
            while i < votes.pending2.len() {
                let (voter, w) = votes.pending2[i];
                if tally(&votes.v1, w) > t {
                    votes.pending2.swap_remove(i);
                    votes.v2.insert(voter, w);
                    progressed = true;
                } else {
                    i += 1;
                }
            }
            // Validate pending phase-3 votes.
            let mut i = 0;
            while i < votes.pending3.len() {
                let (voter, d) = votes.pending3[i];
                let ok = match d {
                    Some(w) => tally(&votes.v2, w) >= n - t,
                    None => votes.v2.values().any(|&v| v) && votes.v2.values().any(|&v| !v),
                };
                if ok {
                    votes.pending3.swap_remove(i);
                    votes.v3.insert(voter, d);
                    progressed = true;
                } else {
                    i += 1;
                }
            }

            match self.state {
                PhaseState::Await1 => {
                    let votes = self.rounds.entry(r).or_default();
                    if votes.v1.len() >= n - t && !votes.sent2 {
                        votes.sent2 = true;
                        let trues = tally(&votes.v1, true);
                        let falses = votes.v1.len() - trues;
                        let maj = match trues.cmp(&falses) {
                            std::cmp::Ordering::Greater => true,
                            std::cmp::Ordering::Less => false,
                            std::cmp::Ordering::Equal => self.est,
                        };
                        self.state = PhaseState::Await2;
                        ctx.spawn(
                            Self::vote_tag(V2_TAG, r, me, n),
                            Box::new(Acast::sender(me, V2(maj))),
                        );
                        continue;
                    }
                }
                PhaseState::Await2 => {
                    let votes = self.rounds.entry(r).or_default();
                    if votes.v2.len() >= n - t && !votes.sent3 {
                        votes.sent3 = true;
                        let cand = [true, false]
                            .into_iter()
                            .find(|&w| tally(&votes.v2, w) >= n - t);
                        self.state = PhaseState::Await3;
                        ctx.spawn(
                            Self::vote_tag(V3_TAG, r, me, n),
                            Box::new(Acast::sender(me, V3(cand))),
                        );
                        continue;
                    }
                }
                PhaseState::Await3 => {
                    let votes = self.rounds.entry(r).or_default();
                    if votes.v3.len() >= n - t && !votes.coin_requested {
                        votes.coin_requested = true;
                        // Flip the coin unconditionally (see RoundVotes::
                        // coin_requested); the decision logic runs when the
                        // value is available.
                        match self.coin.flip(r, ctx) {
                            Coin::Immediate(b) => {
                                self.finish_round(b, ctx);
                                return;
                            }
                            Coin::Protocol(inst) => {
                                self.state = PhaseState::AwaitCoin;
                                ctx.spawn(SessionTag::new(COIN_TAG, r), inst);
                                return;
                            }
                        }
                    }
                }
                PhaseState::AwaitCoin | PhaseState::Held => {}
            }
            if !progressed {
                break;
            }
        }
    }

    /// End-of-round transition, once the round's coin value is known:
    /// `2t+1 × Some(w)` ⇒ decide `w`; `t+1 × Some(w)` ⇒ `est := w`;
    /// otherwise `est :=` coin. At most one value can hold phase-3
    /// candidates (both would need `2t+1` accepted phase-2 votes each,
    /// more than `n` in total), so the winner is unambiguous.
    fn finish_round(&mut self, coin_value: bool, ctx: &mut Context<'_>) {
        let (n, t) = (ctx.n(), ctx.t());
        let votes = self.rounds.entry(self.round).or_default();
        let cand_count = |w: bool| tally(&votes.v3, Some(w));
        let winner = [true, false].into_iter().find(|&w| cand_count(w) > 0);
        if let Some(w) = winner {
            let count = cand_count(w);
            if count >= n - t {
                self.decide(w, ctx);
                self.est = w;
                self.next_round(ctx);
                return;
            } else if count > t {
                self.est = w;
                self.next_round(ctx);
                return;
            }
        }
        self.est = coin_value;
        self.next_round(ctx);
    }

    fn next_round(&mut self, ctx: &mut Context<'_>) {
        // Old rounds' votes stay around (A-Cast stragglers still route),
        // but are no longer consulted.
        self.round += 1;
        self.start_round(ctx);
    }

    fn decide(&mut self, v: bool, ctx: &mut Context<'_>) {
        if let Some(prev) = self.decided {
            assert_eq!(prev, v, "BA decided two different values — safety bug");
            return;
        }
        self.decided = Some(v);
        if !self.output_done {
            self.output_done = true;
            ctx.output(v);
        }
        if !self.decide_sent {
            self.decide_sent = true;
            ctx.send_all(DecideMsg(v));
        }
    }

    fn on_decide_msg(&mut self, from: PartyId, v: bool, ctx: &mut Context<'_>) {
        if self.halted {
            return;
        }
        let (n, t) = (ctx.n(), ctx.t());
        let set = &mut self.decide_votes[v as usize];
        if !set.insert(from) {
            return;
        }
        let count = set.len();
        if count > t {
            // At least one honest party decided v: adopt and relay.
            self.est = v;
            if !self.decide_sent {
                self.decide_sent = true;
                self.decided.get_or_insert(v);
                if !self.output_done {
                    self.output_done = true;
                    ctx.output(v);
                }
                ctx.send_all(DecideMsg(v));
            }
        }
        if count >= n - t {
            self.halted = true;
            if !self.output_done {
                self.output_done = true;
                ctx.output(v);
            }
            // Halted, every handler returns before looking at anything.
            ctx.retire_unviewed(self);
        }
    }
}

impl Instance for BinaryBa {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.est = self.input;
        self.start_round(ctx);
    }

    fn on_message(&mut self, from: PartyId, payload: &Payload, ctx: &mut Context<'_>) {
        if self.halted {
            return;
        }
        if let Some(DecideMsg(v)) = payload.to_msg::<DecideMsg>() {
            self.on_decide_msg(from, v, ctx);
        }
    }

    fn on_child_output(&mut self, child: &SessionTag, output: &Payload, ctx: &mut Context<'_>) {
        if self.halted {
            return;
        }
        let n = ctx.n();
        let round = child.index / n as u64;
        let voter = PartyId((child.index % n as u64) as usize);
        match child.kind {
            V1_TAG => {
                if let Some(V1(v)) = output.downcast_ref::<V1>() {
                    self.rounds.entry(round).or_default().v1.insert(voter, *v);
                }
            }
            V2_TAG => {
                if let Some(V2(v)) = output.downcast_ref::<V2>() {
                    self.rounds
                        .entry(round)
                        .or_default()
                        .pending2
                        .push((voter, *v));
                }
            }
            V3_TAG => {
                if let Some(V3(d)) = output.downcast_ref::<V3>() {
                    self.rounds
                        .entry(round)
                        .or_default()
                        .pending3
                        .push((voter, *d));
                }
            }
            COIN_TAG => {
                if child.index == self.round && self.state == PhaseState::AwaitCoin {
                    if let Some(&b) = output.downcast_ref::<bool>() {
                        self.finish_round(b, ctx);
                        return;
                    }
                }
            }
            _ => return,
        }
        if round != self.round {
            return;
        }
        if self.state != PhaseState::Held {
            self.advance(ctx);
        } else if !self.rounds.entry(round).or_default().v1.is_empty() {
            self.open_round(ctx);
        }
    }
}

#[cfg(test)]
mod codec_tests {
    use super::*;
    use aft_sim::wire::{decode_frame_as, encode_frame};

    #[test]
    fn decide_msg_round_trips_and_rejects_junk() {
        for v in [true, false] {
            let mut frame = Vec::new();
            encode_frame(&DecideMsg(v), &mut frame);
            assert_eq!(decode_frame_as::<DecideMsg>(&frame), Some(DecideMsg(v)));
        }
        assert_eq!(DecideMsg::decode_body(&[2]), None);
        assert_eq!(DecideMsg::decode_body(&[0, 0]), None, "trailing bytes");
        assert_eq!(DecideMsg::decode_body(&[]), None);
    }

    #[test]
    fn v3_rejects_non_ternary_bodies() {
        assert_eq!(V3::decode_body(&[3]), None);
        assert_eq!(V3::decode_body(&[]), None);
        assert_eq!(V3::decode_body(&[1, 1]), None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coin::OracleCoin;
    use aft_broadcast::AcastMsg;
    use aft_sim::wire::encode_frame;
    use aft_sim::{Envelope, NetConfig, Outgoing, PartyHost, SessionId};

    #[test]
    fn a_halted_ba_leaves_a_reader_that_views_nothing() {
        let (n, t) = (4, 1);
        let sid = SessionId::root().child(SessionTag::new("ba-halt", 0));
        let mut host = PartyHost::new(&NetConfig::new(n, t, 5), 1);
        let mut out = Vec::new();
        host.spawn(
            sid.clone(),
            Box::new(BinaryBa::new(true, Box::new(OracleCoin::new(5)))),
            &mut out,
        );
        let deliver = |host: &mut PartyHost, from: usize, payload: Payload| {
            let env = Envelope {
                from: PartyId(from),
                to: PartyId(1),
                session: sid.clone(),
                payload,
                seq: 0,
                born_step: 0,
            };
            let mut out = Vec::new();
            host.deliver(env, None, None, &mut out);
            out.len()
        };
        // n − t `Decide` votes halt it: it relays at t + 1, retires at n − t.
        for from in 0..n - t {
            deliver(&mut host, from, Payload::message(DecideMsg(true)));
        }
        assert_eq!(host.node().retired_count(), 1);
        let misses: Vec<_> = host.metrics().decode_misses().collect();
        // A garbled `Decide` frame and a valid one: the halted BA looked at
        // neither, so its reader sends nothing and records no miss.
        let mut frame = Vec::new();
        encode_frame(&DecideMsg(true), &mut frame);
        *frame.last_mut().expect("a one-byte body") = 7;
        assert_eq!(deliver(&mut host, 3, Payload::from_wire(frame)), 0);
        assert_eq!(deliver(&mut host, 3, Payload::message(DecideMsg(true))), 0);
        assert_eq!(host.metrics().decode_misses().collect::<Vec<_>>(), misses);
    }

    #[test]
    fn a_decided_ba_holds_its_next_round_until_another_voter_opens_it() {
        let (n, t, me) = (4, 1, 1);
        let sid = SessionId::root().child(SessionTag::new("ba-hold", 0));
        let mut host = PartyHost::new(&NetConfig::new(n, t, 5), me);
        let mut out = Vec::new();
        host.spawn(
            sid.clone(),
            Box::new(BinaryBa::new(true, Box::new(OracleCoin::new(5)))),
            &mut out,
        );
        let vote =
            |kind, round, voter| sid.child(BinaryBa::vote_tag(kind, round, PartyId(voter), n));
        let deliver = |host: &mut PartyHost, from: usize, session: SessionId, payload: Payload| {
            let env = Envelope {
                from: PartyId(from),
                to: PartyId(me),
                session,
                payload,
                seq: 0,
                born_step: 0,
            };
            let mut out = Vec::new();
            host.deliver(env, None, None, &mut out);
            out
        };
        // n − t Readies make an A-Cast receiver (or sender) accept.
        let accept = |host: &mut PartyHost, session: SessionId, msg: Payload| {
            (0..n)
                .filter(|&p| p != me)
                .flat_map(|p| deliver(host, p, session.clone(), msg.clone()))
                .collect::<Vec<_>>()
        };
        let ready = |v| Payload::message(AcastMsg::Ready(v));
        // Round 0: three unanimous phases, then the oracle coin — decided.
        for voter in 0..n - t {
            out.extend(accept(&mut host, vote(V1_TAG, 0, voter), ready(V1(true))));
        }
        for voter in 0..n - t {
            let msg = Payload::message(AcastMsg::Ready(V2(true)));
            out.extend(accept(&mut host, vote(V2_TAG, 0, voter), msg));
        }
        for voter in 0..n - t {
            let msg = Payload::message(AcastMsg::Ready(V3(Some(true))));
            out.extend(accept(&mut host, vote(V3_TAG, 0, voter), msg));
        }
        assert_eq!(
            host.node().output(&sid).and_then(|p| p.to_msg::<bool>()),
            Some(true)
        );
        let my_round1_send = |out: &[Outgoing]| {
            out.iter()
                .filter(|o| o.session == vote(V1_TAG, 1, me))
                .filter(|o| o.payload.to_msg::<AcastMsg<V1>>() == Some(AcastMsg::Send(V1(true))))
                .count()
        };
        assert!(out
            .iter()
            .any(|o| o.payload.to_msg::<DecideMsg>() == Some(DecideMsg(true))));
        assert_eq!(
            my_round1_send(&out),
            0,
            "a decided party holds its round-1 vote"
        );
        // Round 1 is held: phase-1 receivers echo, phase-2/3 receivers do
        // not exist yet, so a phase-2 `Send` buffers and draws no echo.
        let echoes = deliver(
            &mut host,
            0,
            vote(V1_TAG, 1, 0),
            Payload::message(AcastMsg::Send(V1(true))),
        );
        assert_eq!(echoes.len(), n, "the held round's phase-1 receiver echoes");
        let v2_send = Payload::message(AcastMsg::Send(V2(true)));
        assert!(deliver(&mut host, 0, vote(V2_TAG, 1, 0), v2_send).is_empty());
        let v3_send = Payload::message(AcastMsg::Send(V3(Some(true))));
        assert!(deliver(&mut host, 0, vote(V3_TAG, 1, 0), v3_send).is_empty());
        // Accepting party 0's round-1 vote opens the round: my own vote goes
        // out, and the buffered phase-2/3 `Send`s reach their receivers.
        let opened = accept(&mut host, vote(V1_TAG, 1, 0), ready(V1(true)));
        assert_eq!(my_round1_send(&opened), n);
        let echoed = |kind, is_echo: &dyn Fn(&Payload) -> bool| {
            opened
                .iter()
                .filter(|o| o.session == vote(kind, 1, 0) && is_echo(&o.payload))
                .count()
        };
        let v2_echo = |p: &Payload| p.to_msg::<AcastMsg<V2>>() == Some(AcastMsg::Echo(V2(true)));
        let v3_echo =
            |p: &Payload| p.to_msg::<AcastMsg<V3>>() == Some(AcastMsg::Echo(V3(Some(true))));
        assert_eq!(
            echoed(V2_TAG, &v2_echo),
            n,
            "phase-2 receivers spawn at the open"
        );
        assert_eq!(
            echoed(V3_TAG, &v3_echo),
            n,
            "phase-3 receivers spawn at the open"
        );
    }
}
