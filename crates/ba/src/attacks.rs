//! Byzantine behaviours against binary BA.

use crate::ba::{V1, V2, V3};
use aft_broadcast::Acast;
use aft_sim::trace::session_kind;
use aft_sim::{
    AttackRegistry, AttackRole, Context, CorruptMode, CorruptionPlan, Instance, PartyId, Payload,
    SessionTag, TraceEvent,
};
use rand::Rng;

/// Registers this module's message kinds (the decoy `Decide`).
pub(crate) fn register_codecs(registry: &mut aft_sim::CodecRegistry) {
    registry.register::<FakeDecide>();
}

/// Registers this crate's attacks with a scenario [`AttackRegistry`]:
///
/// * `random-voter[:rounds]` — [`RandomVoter`] (default 5 rounds);
/// * `fixed-voter[:true|false[:rounds]]` — [`FixedVoter`] (default
///   `true`, 5 rounds).
///
/// Both are single-episode attacks: they vote in whatever session they
/// are spawned in, so they apply to any episode of a BA-bearing stack.
pub fn register_attacks(registry: &mut AttackRegistry) {
    registry.register("random-voter", |ctx| {
        let rounds = if ctx.args.is_empty() {
            5
        } else {
            ctx.args.parse().ok()?
        };
        Some(AttackRole::Instance(Box::new(RandomVoter::new(rounds))))
    });
    registry.register("fixed-voter", |ctx| {
        let (target, rounds) = match ctx.args.split_once(':') {
            Some((v, r)) => (v, r.parse().ok()?),
            None => (ctx.args, 5),
        };
        let target = match target {
            "" | "true" => true,
            "false" => false,
            _ => return None,
        };
        Some(AttackRole::Instance(Box::new(FixedVoter::new(
            target, rounds,
        ))))
    });
    registry.register_adaptive("coin-favorite", |ctx| {
        let equivocate = match ctx.args {
            "" | "mute" => false,
            "equivocate" => true,
            _ => return None,
        };
        Some(Box::new(CoinFavorite::new(equivocate)))
    });
}

/// The adaptive adversary the BA termination bound is stated against:
/// watch the vote traffic, identify the party the schedule currently
/// favors (most BA-vote deliveries — the one whose voice is reaching
/// everyone, i.e. whoever the weak coin would likely elect), and corrupt
/// it mid-run. Strikes are paced (one per ~`2n²` vote deliveries) so the
/// adversary adapts round over round instead of spending its whole t-cap
/// on round 0.
///
/// Registered as `adaptive:coin-favorite[:mute|equivocate]@*`: the victim
/// is either muted or made to equivocate with a small budget.
pub struct CoinFavorite {
    equivocate: bool,
    /// Per-party BA-vote delivery counts (lazily sized from the plan).
    counts: Vec<u64>,
    seen: u64,
    next_strike: u64,
}

impl CoinFavorite {
    /// Creates the policy; `equivocate` selects the corruption mode.
    pub fn new(equivocate: bool) -> Self {
        CoinFavorite {
            equivocate,
            counts: Vec::new(),
            seen: 0,
            next_strike: 0,
        }
    }
}

impl aft_sim::AdaptiveAttack for CoinFavorite {
    fn observe(&mut self, ev: &TraceEvent, plan: &mut CorruptionPlan) {
        // Only BA vote traffic (acast sessions tagged bav1/bav2/bav3)
        // counts toward "favored": other kinds say nothing about who the
        // coin would elect.
        let TraceEvent::Deliver { from, session, .. } = ev else {
            return;
        };
        if !session_kind(session).starts_with("bav") {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; plan.n()];
            self.next_strike = 2 * (plan.n() as u64) * (plan.n() as u64);
        }
        if let Some(c) = self.counts.get_mut(from.0) {
            *c += 1;
        }
        self.seen += 1;
        if self.seen < self.next_strike {
            return;
        }
        self.next_strike += 2 * (plan.n() as u64) * (plan.n() as u64);
        // Argmax over non-victims, ties to the lowest id — deterministic.
        let favorite = self
            .counts
            .iter()
            .enumerate()
            .filter(|(p, _)| !plan.is_victim(PartyId(*p)))
            .max_by_key(|(p, c)| (**c, std::cmp::Reverse(*p)))
            .map(|(p, _)| PartyId(p));
        if let Some(p) = favorite {
            let mode = if self.equivocate {
                CorruptMode::Equivocate { budget: 8 }
            } else {
                CorruptMode::Mute
            };
            plan.corrupt(p, mode);
        }
    }
}

/// A Byzantine party that broadcasts uniformly random votes in every phase
/// of rounds `0..rounds` and sprays `Decide` claims for both values.
///
/// Vote validation at honest receivers caps its influence: its phase-2/3
/// votes are accepted only when the honest vote distribution makes them
/// plausible, so it can delay but not derail agreement — which is exactly
/// what the agreement tests assert.
pub struct RandomVoter {
    rounds: u64,
}

impl RandomVoter {
    /// Creates the attacker, active for the first `rounds` rounds.
    pub fn new(rounds: u64) -> Self {
        RandomVoter { rounds }
    }
}

/// Mirror of the BA's private `DecideMsg`, under a *different* wire kind;
/// honest parties match on their own kind, so this exercises the
/// type-confusion path on in-memory backends and the kind-mismatch path
/// on the wire backend alike.
#[derive(Debug, Clone, Copy)]
struct FakeDecide;

impl aft_sim::WireMessage for FakeDecide {
    const KIND: u16 = aft_sim::wire::KIND_BA_BASE + 5;
    const KIND_NAME: &'static str = "ba-fake-decide";
    const MAX_BODY_HINT: Option<usize> = Some(0);
    fn encode_body(&self, _out: &mut Vec<u8>) {}
    fn decode_body(bytes: &[u8]) -> Option<Self> {
        bytes.is_empty().then_some(FakeDecide)
    }
}

// never retires: a Byzantine behaviour with no state to free.
impl Instance for RandomVoter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let n = ctx.n();
        let me = ctx.me();
        for r in 0..self.rounds {
            let idx = r * n as u64 + me.0 as u64;
            let b1: bool = ctx.rng().gen();
            let b2: bool = ctx.rng().gen();
            let d: Option<bool> = match ctx.rng().gen_range(0..3) {
                0 => Some(true),
                1 => Some(false),
                _ => None,
            };
            ctx.spawn(
                SessionTag::new("bav1", idx),
                Box::new(Acast::sender(me, V1(b1))),
            );
            ctx.spawn(
                SessionTag::new("bav2", idx),
                Box::new(Acast::sender(me, V2(b2))),
            );
            ctx.spawn(
                SessionTag::new("bav3", idx),
                Box::new(Acast::sender(me, V3(d))),
            );
        }
        ctx.send_all(FakeDecide);
    }

    fn on_message(&mut self, _from: PartyId, _payload: &Payload, _ctx: &mut Context<'_>) {}
}

/// A Byzantine party that tries to push a fixed value `target`: it votes
/// `target` in every phase regardless of its input or the honest
/// distribution.
pub struct FixedVoter {
    target: bool,
    rounds: u64,
}

impl FixedVoter {
    /// Creates the attacker pushing `target` for `rounds` rounds.
    pub fn new(target: bool, rounds: u64) -> Self {
        FixedVoter { target, rounds }
    }
}

// never retires: a Byzantine behaviour with no state to free.
impl Instance for FixedVoter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let n = ctx.n();
        let me = ctx.me();
        for r in 0..self.rounds {
            let idx = r * n as u64 + me.0 as u64;
            ctx.spawn(
                SessionTag::new("bav1", idx),
                Box::new(Acast::sender(me, V1(self.target))),
            );
            ctx.spawn(
                SessionTag::new("bav2", idx),
                Box::new(Acast::sender(me, V2(self.target))),
            );
            ctx.spawn(
                SessionTag::new("bav3", idx),
                Box::new(Acast::sender(me, V3(Some(self.target)))),
            );
        }
    }

    fn on_message(&mut self, _from: PartyId, _payload: &Payload, _ctx: &mut Context<'_>) {}
}
