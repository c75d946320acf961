//! Byzantine behaviours against SVSS, used by the test suite and the
//! shunning experiments (E7).

use crate::msgs::{party_point, RecMsg, ShareBundle, ShareMsg};
use crate::share::SvssShare;
use aft_field::{BivarPoly, Fp, Poly};
use aft_sim::{
    AttackCtx, AttackRegistry, AttackRole, Context, CorruptMode, CorruptionPlan, Instance, PartyId,
    Payload, SilentInstance, TraceEvent,
};
use std::sync::Arc;

/// Registers this crate's attacks with a scenario [`AttackRegistry`].
///
/// SVSS attacks are *episode-aware*: the share→rec stack deploys two
/// episodes (leaf session kinds `"svss-share"` then `"svss-rec"`), and a
/// reconstruction attack needs the [`ShareBundle`] the corrupted party
/// legitimately obtained in the share phase — which arrives as the
/// episode carry. The scenario stacks place the dealer at party 0.
///
/// * `two-faced-dealer` — [`TwoFacedDealer`] in the share phase (group A
///   is the first `n − t` parties, so a core can still form), silent in
///   rec; corrupt only the dealer (party 0) with it.
/// * `wrong-cross[:victims]` — [`WrongCross`] in the share phase against
///   the comma-separated victim list (default: the next party), honest in
///   rec.
/// * `wrong-sigma[:reveal]` — honest share phase; in rec, a σ off by one
///   ([`WrongSigma`]), optionally also revealing (which exposes the
///   self-contradiction and draws shuns).
/// * `equivocal-reveal` — honest share phase; in rec, reveals a shifted
///   row/col ([`EquivocalReveal`]) — the canonical shun generator.
/// * `silent-rec` — honest share phase; withholds everything in rec
///   ([`SilentInstance`]), the adversary online error correction must absorb.
pub fn register_attacks(registry: &mut AttackRegistry) {
    fn carry_bundle(ctx: &AttackCtx<'_>) -> Option<Arc<ShareBundle>> {
        ctx.carry.and_then(|c| c.downcast_arc::<ShareBundle>())
    }
    /// Rec-phase role from the share-phase bundle: attack if the party
    /// holds one, stay silent if the share phase never completed for it.
    fn rec_role(
        ctx: &AttackCtx<'_>,
        attack: impl FnOnce(Arc<ShareBundle>) -> Box<dyn Instance>,
    ) -> Option<AttackRole> {
        Some(AttackRole::Instance(match carry_bundle(ctx) {
            Some(bundle) => attack(bundle),
            None => Box::new(SilentInstance),
        }))
    }

    registry.register("two-faced-dealer", |ctx| {
        if ctx.episode != "svss-share" {
            return Some(AttackRole::Instance(Box::new(SilentInstance)));
        }
        let group_a: Vec<PartyId> = (0..ctx.n - ctx.t).map(PartyId).collect();
        let secret_a = Fp::new(ctx.seed.wrapping_mul(3).wrapping_add(1));
        let secret_b = Fp::new(ctx.seed.wrapping_mul(5).wrapping_add(2));
        Some(AttackRole::Instance(Box::new(TwoFacedDealer::new(
            ctx.party, group_a, secret_a, secret_b,
        ))))
    });
    registry.register("wrong-cross", |ctx| {
        if ctx.episode != "svss-share" {
            return Some(AttackRole::Honest);
        }
        let victims: Vec<PartyId> = if ctx.args.is_empty() {
            vec![PartyId((ctx.party.0 + 1) % ctx.n)]
        } else {
            ctx.args
                .split(',')
                .map(|part| {
                    let id: usize = part.trim().parse().ok()?;
                    (id < ctx.n).then_some(PartyId(id))
                })
                .collect::<Option<_>>()?
        };
        let attack = if ctx.party == PartyId(0) {
            // Placed at the dealer seat: deal a seed-derived secret so the
            // inner share machinery has something to run on.
            let secret = Fp::new(ctx.seed.wrapping_mul(11).wrapping_add(4));
            WrongCross::dealer(PartyId(0), secret, victims)
        } else {
            WrongCross::new(PartyId(0), victims)
        };
        Some(AttackRole::Instance(Box::new(attack)))
    });
    registry.register("wrong-sigma", |ctx| {
        if ctx.episode == "svss-share" {
            return Some(AttackRole::Honest);
        }
        let reveal_too = match ctx.args {
            "" => false,
            "reveal" => true,
            _ => return None,
        };
        rec_role(ctx, |bundle| {
            Box::new(WrongSigma::new(bundle, Fp::ONE, reveal_too))
        })
    });
    registry.register("equivocal-reveal", |ctx| {
        if ctx.episode == "svss-share" {
            return Some(AttackRole::Honest);
        }
        rec_role(ctx, |bundle| Box::new(EquivocalReveal::new(bundle)))
    });
    registry.register("silent-rec", |ctx| {
        Some(if ctx.episode == "svss-share" {
            AttackRole::Honest
        } else {
            AttackRole::Instance(Box::new(SilentInstance))
        })
    });
    registry.register_adaptive("core-candidates", |ctx| {
        let threshold = if ctx.args.is_empty() {
            None
        } else {
            Some(ctx.args.parse().ok()?)
        };
        Some(Box::new(CoreCandidates::new(threshold)))
    });
}

/// The adaptive adversary against SVSS / common-subset core formation:
/// watch who the schedule favors during the run (most deliveries of any
/// kind — the parties whose traffic is landing are the likely core /
/// common-subset members), and mute the most-favored candidates once
/// enough traffic has been observed. In multi-episode stacks the strike
/// is timed at the *reconstruction* episode boundary: the share phase
/// must complete for a carry to exist (the model lets the adversary pick
/// its victims after seeing the share-phase schedule), and the rec-phase
/// online error correction is what must then absorb the muted cores.
///
/// Registered as `adaptive:core-candidates[:<threshold>]@*` where
/// `threshold` overrides the default observation threshold of `3n²`
/// deliveries for single-episode stacks (common-subset).
pub struct CoreCandidates {
    threshold: Option<u64>,
    counts: Vec<u64>,
    seen: u64,
    struck: bool,
    episode: String,
}

impl CoreCandidates {
    /// Creates the policy; `threshold` overrides the `3n²` default.
    pub fn new(threshold: Option<u64>) -> Self {
        CoreCandidates {
            threshold,
            counts: Vec::new(),
            seen: 0,
            struck: false,
            episode: String::new(),
        }
    }

    /// Mute the most-delivered-to-date non-victims, up to the cap.
    fn strike(&mut self, plan: &mut CorruptionPlan) {
        self.struck = true;
        let mut order: Vec<usize> = (0..plan.n()).collect();
        // Descending by observed deliveries, ties to the lowest id.
        order.sort_by_key(|&p| {
            (
                std::cmp::Reverse(self.counts.get(p).copied().unwrap_or(0)),
                p,
            )
        });
        for p in order {
            let p = PartyId(p);
            if !plan.is_victim(p) && !plan.corrupt(p, CorruptMode::Mute) {
                break;
            }
        }
    }
}

impl aft_sim::AdaptiveAttack for CoreCandidates {
    fn on_episode(&mut self, episode: &str, plan: &mut CorruptionPlan) {
        // Strike at the share→rec boundary: the share schedule has been
        // observed in full, and muting cores now is exactly the adversary
        // reconstruction's online error correction is specified against.
        if self.episode == "svss-share" && episode != "svss-share" && !self.struck {
            self.strike(plan);
        }
        self.episode = episode.to_string();
    }

    fn observe(&mut self, ev: &TraceEvent, plan: &mut CorruptionPlan) {
        let TraceEvent::Deliver { party, .. } = ev else {
            return;
        };
        if self.counts.is_empty() {
            self.counts = vec![0; plan.n()];
        }
        if let Some(c) = self.counts.get_mut(party.0) {
            *c += 1;
        }
        self.seen += 1;
        // Mid-episode strike for single-episode stacks only: muting a
        // party mid-share would break share-phase liveness, which even the
        // adaptive adversary is not entitled to (it may mute *after* the
        // core forms — the episode boundary above).
        if self.struck || self.episode == "svss-share" {
            return;
        }
        let threshold = self
            .threshold
            .unwrap_or(3 * (plan.n() as u64) * (plan.n() as u64));
        if self.seen >= threshold {
            self.strike(plan);
        }
    }
}

/// A Byzantine dealer that deals shares of **two different secrets**: the
/// parties in `group_a` receive rows/columns of a polynomial with secret
/// `secret_a`, everyone else of one with `secret_b`.
///
/// If one group has at least `n − t` members a core can still form inside
/// it and the share phase completes; reconstruction then binds to that
/// group's secret. If neither group is large enough, no core forms and the
/// share phase never completes (allowed for a faulty dealer — and the
/// simulator still reaches quiescence).
pub struct TwoFacedDealer {
    inner: SvssShare,
    group_a: Vec<PartyId>,
    secret_a: Fp,
    secret_b: Fp,
}

impl TwoFacedDealer {
    /// Creates the attack instance; must be spawned at `dealer`.
    pub fn new(dealer: PartyId, group_a: Vec<PartyId>, secret_a: Fp, secret_b: Fp) -> Self {
        TwoFacedDealer {
            inner: SvssShare::party(dealer),
            group_a,
            secret_a,
            secret_b,
        }
    }
}

// never retires: a wrapper; the honest share it forwards to retires as its
// own type, which is not this one.
impl Instance for TwoFacedDealer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let t = ctx.t();
        let fa = BivarPoly::random_with_secret(self.secret_a, t, ctx.rng());
        let fb = BivarPoly::random_with_secret(self.secret_b, t, ctx.rng());
        for p in ctx.parties().collect::<Vec<_>>() {
            let f = if self.group_a.contains(&p) { &fa } else { &fb };
            let x = party_point(p);
            ctx.send(
                p,
                ShareMsg::Shares {
                    row: f.row(x),
                    col: f.col(x),
                },
            );
        }
        // From here on behave like an ordinary participant (the dealer is
        // in group A iff listed there); the inner instance will propose a
        // core once it sees a clique, because `me == dealer`.
    }

    fn on_message(&mut self, from: PartyId, payload: &Payload, ctx: &mut Context<'_>) {
        self.inner.on_message(from, payload, ctx);
    }

    fn on_child_output(
        &mut self,
        child: &aft_sim::SessionTag,
        output: &Payload,
        ctx: &mut Context<'_>,
    ) {
        self.inner.on_child_output(child, output, ctx);
    }
}

/// A party that runs the share phase honestly except that the cross points
/// it sends to `victims` are corrupted (off by one). The victims simply
/// never OK it, so it is excluded from the core when the dealer is honest;
/// the share phase still completes for everyone.
pub struct WrongCross {
    inner: SvssShare,
    victims: Vec<PartyId>,
}

impl WrongCross {
    /// Creates the attack instance for a non-dealer party.
    pub fn new(dealer: PartyId, victims: Vec<PartyId>) -> Self {
        WrongCross {
            inner: SvssShare::party(dealer),
            victims,
        }
    }

    /// Creates the attack instance for the dealer seat itself: the inner
    /// deals `secret` (a Byzantine dealer may deal anything) while the
    /// cross points sent to `victims` are still corrupted. Without this
    /// the inner would be a secretless dealer, which panics on start —
    /// found by the scenario search retargeting `wrong-cross` onto the
    /// dealer.
    pub fn dealer(dealer: PartyId, secret: Fp, victims: Vec<PartyId>) -> Self {
        WrongCross {
            inner: SvssShare::dealer(dealer, secret),
            victims,
        }
    }
}

// never retires: a wrapper; the honest share it forwards to retires as its
// own type, which is not this one.
impl Instance for WrongCross {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, from: PartyId, payload: &Payload, ctx: &mut Context<'_>) {
        // Intercept our own Shares delivery: forward to inner, then send
        // corrected/corrupted crosses. The inner already sends honest
        // crosses, so instead we corrupt the *victims'* view by sending a
        // second, conflicting cross first. Since receivers keep the first
        // cross per peer, flood the victims with the corrupted value before
        // the inner handles the message.
        if let Some(msg) = payload.view::<ShareMsg>() {
            if let ShareMsg::Shares { row, col } = &*msg {
                for &v in &self.victims {
                    let x = party_point(v);
                    ctx.send(
                        v,
                        ShareMsg::Cross {
                            a: row.eval(x) + Fp::ONE,
                            b: col.eval(x) + Fp::ONE,
                        },
                    );
                }
            }
        }
        self.inner.on_message(from, payload, ctx);
    }

    fn on_child_output(
        &mut self,
        child: &aft_sim::SessionTag,
        output: &Payload,
        ctx: &mut Context<'_>,
    ) {
        self.inner.on_child_output(child, output, ctx);
    }
}

/// Reconstruction attack: sends a wrong σ (off by `delta`) but otherwise
/// plays honestly. If the party is a core member and also reveals, every
/// honest party detects the self-contradiction and **shuns** it; if it
/// withholds the reveal, the wrong σ is absorbed by online error
/// correction.
pub struct WrongSigma {
    bundle: Arc<ShareBundle>,
    delta: Fp,
    reveal_too: bool,
}

impl WrongSigma {
    /// Creates the attack; `reveal_too` controls whether the (honest)
    /// reveal is also sent, which exposes the contradiction.
    pub fn new(bundle: impl Into<Arc<ShareBundle>>, delta: Fp, reveal_too: bool) -> Self {
        WrongSigma {
            bundle: bundle.into(),
            delta,
            reveal_too,
        }
    }
}

// never retires: a Byzantine behaviour holding only a shared bundle.
impl Instance for WrongSigma {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if let Some(row) = &self.bundle.row {
            ctx.send_all(RecMsg::Sigma(row.eval(Fp::ZERO) + self.delta));
            if self.reveal_too && self.bundle.in_core() {
                if let Some(col) = &self.bundle.col {
                    ctx.send_all(RecMsg::Reveal {
                        row: row.clone(),
                        col: col.clone(),
                    });
                }
            }
        }
    }

    fn on_message(&mut self, _from: PartyId, _payload: &Payload, _ctx: &mut Context<'_>) {}
}

/// Reconstruction attack: reveals a row different from the cross points it
/// distributed during the share phase. Every honest party that holds this
/// party's share-phase cross detects the contradiction and shuns it —
/// the canonical shunning-event generator for experiment E7.
pub struct EquivocalReveal {
    bundle: Arc<ShareBundle>,
}

impl EquivocalReveal {
    /// Creates the attack instance.
    pub fn new(bundle: impl Into<Arc<ShareBundle>>) -> Self {
        EquivocalReveal {
            bundle: bundle.into(),
        }
    }
}

// never retires: a Byzantine behaviour holding only a shared bundle.
impl Instance for EquivocalReveal {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if let (Some(row), Some(col)) = (&self.bundle.row, &self.bundle.col) {
            // Honest σ, lying reveal: shifted row/col.
            ctx.send_all(RecMsg::Sigma(row.eval(Fp::ZERO)));
            if self.bundle.in_core() {
                let shift = Poly::constant(Fp::ONE);
                ctx.send_all(RecMsg::Reveal {
                    row: row + &shift,
                    col: col + &shift,
                });
            }
        }
    }

    fn on_message(&mut self, _from: PartyId, _payload: &Payload, _ctx: &mut Context<'_>) {}
}
