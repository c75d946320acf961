//! The SVSS share phase (`SVSS-Share` of Definition 3.2).

use crate::clique::{find_clique, BitMatrix};
use crate::msgs::{party_point, ShareBundle, ShareMsg};
use aft_broadcast::Acast;
use aft_field::{BivarPoly, Fp, Poly};
use aft_sim::{Context, Instance, PartyId, PartyMap, PartySet, Payload, SessionTag};

/// Session tag kind under which the dealer's core proposal is A-Cast.
pub const CORE_TAG: &str = "svss-core";

/// One party's share-phase instance.
///
/// Protocol outline (all thresholds for `n = 3t + 1`):
///
/// 1. The dealer samples a bivariate `F` with `F(0,0) = s`, degree ≤ t per
///    variable, and privately sends each party its row and column.
/// 2. Parties exchange *cross points* pairwise and vote `Ok(peer)` to all
///    when the peer's points match their own polynomials.
/// 3. The dealer watches the mutual-OK graph; on finding an `(n−t)`-clique
///    `C` it A-Casts `Core(C)`.
/// 4. A party that delivered `Core(C)` and locally observed every edge of
///    `C` sends `Done` to all; `Done` is amplified Bracha-style (re-send at
///    `t+1`, complete at `2t+1` provided `Core` was delivered).
/// 5. On completion the instance outputs a [`ShareBundle`] carrying the
///    party's row/column, the core, and all received cross points (the
///    evidence reconstruction uses for shunning).
///
/// Termination properties (Definition 3.2, validated by tests):
/// with an honest dealer all honest parties complete; if any honest party
/// completes, every honest participant almost-surely completes.
///
/// All state is indexed by party: each of a dealing's `n²` `Ok` votes — a
/// third of everything the full stack delivers — is two bit operations on
/// a matrix allocated once, and whatever the instance emits while walking
/// its state is emitted in party order.
///
/// The instance [retires](Context::retire) once it has completed, sent
/// `Done`, received its row, OK'd all `n` parties and — at the dealer —
/// proposed a core. From then on every handler returns before acting:
/// a second `Shares` finds the row, `Cross` and `Ok` find every vote cast
/// and the core proposed, `Done` finds it sent and the bundle output, and
/// the core is already known.
#[derive(Default)]
pub struct SvssShare {
    dealer: PartyId,
    /// Dealer's secret (`Some` only at the dealer).
    secret: Option<Fp>,
    row: Option<Poly>,
    col: Option<Poly>,
    /// Cross points received from peers.
    crosses: PartyMap<(Fp, Fp)>,
    /// The OK graph: bit `(u, v)` iff `u == v` or `u` has publicly OK'd
    /// `v`. Two parties are adjacent once both bits are set, so the graph
    /// changes only when an `Ok` completes a pair.
    oks: BitMatrix,
    /// Peers I have already OK'd (avoid duplicate votes).
    my_oks: PartySet,
    /// The agreed core, once the dealer's A-Cast delivers.
    core: Option<Vec<PartyId>>,
    /// Whether I already sent `Done`.
    done_sent: bool,
    /// Parties whose `Done` I received.
    dones: PartySet,
    /// Whether the bundle was output.
    completed: bool,
    /// Dealer only: whether `Core` was already proposed.
    core_proposed: bool,
}

impl SvssShare {
    /// Creates the dealer's instance sharing `secret`.
    pub fn dealer(dealer: PartyId, secret: Fp) -> Self {
        SvssShare {
            secret: Some(secret),
            ..Self::party(dealer)
        }
    }

    /// Creates a non-dealer participant's instance.
    pub fn party(dealer: PartyId) -> Self {
        SvssShare {
            dealer,
            ..Self::default()
        }
    }

    /// Checks the stored cross points from `j` against our own polynomials
    /// and issues a public `Ok(j)` vote on success.
    fn try_ok(&mut self, j: PartyId, ctx: &mut Context<'_>) {
        if self.my_oks.contains(j) {
            return;
        }
        let (Some(row), Some(col)) = (&self.row, &self.col) else {
            return;
        };
        let Some(&(a, b)) = self.crosses.get(j) else {
            return;
        };
        // a claims F(x_j, x_me) = my col at x_j; b claims F(x_me, x_j) =
        // my row at x_j.
        let xj = party_point(j);
        if col.eval(xj) == a && row.eval(xj) == b {
            self.my_oks.insert(j);
            ctx.send_all(ShareMsg::Ok(j));
            self.retire_if_spent(ctx);
        }
    }

    /// Called where one of the conditions in the type's docs comes true:
    /// the last of them retires.
    fn retire_if_spent(&self, ctx: &mut Context<'_>) {
        if self.completed
            && self.done_sent
            && self.row.is_some()
            && self.my_oks.len() == ctx.n()
            && (ctx.me() != self.dealer || self.core_proposed)
        {
            ctx.retire::<ShareMsg>(self);
        }
    }

    /// Allocates the OK graph, once, where it is first needed — not in
    /// `on_start`, which an attack wrapping this instance need not call.
    fn alloc_graph(&mut self, n: usize) {
        if self.oks.n() != n {
            self.oks = BitMatrix::identity(n);
        }
    }

    /// Dealer: look for an `(n−t)`-clique in the mutual-OK graph and A-Cast
    /// it as the core. Called when the graph gained an edge: until then
    /// the last "no clique" still holds.
    fn dealer_try_core(&mut self, ctx: &mut Context<'_>) {
        if self.core_proposed || ctx.me() != self.dealer {
            return;
        }
        if let Some(core) = find_clique(&self.oks, ctx.n() - ctx.t()) {
            self.core_proposed = true;
            ctx.spawn(
                SessionTag::new(CORE_TAG, self.dealer.0 as u64),
                Box::new(Acast::sender(self.dealer, core)),
            );
            self.retire_if_spent(ctx);
        }
    }

    /// Sends `Done` once the core is delivered and all its edges verified
    /// locally.
    fn try_done(&mut self, ctx: &mut Context<'_>) {
        if self.done_sent {
            return;
        }
        let Some(core) = &self.core else {
            return;
        };
        let verified = core
            .iter()
            .all(|u| core.iter().all(|v| self.oks.get(u.0, v.0)));
        if verified {
            self.done_sent = true;
            ctx.send_all(ShareMsg::Done);
            self.retire_if_spent(ctx);
        }
    }

    /// Completes (outputs the bundle) when `2t+1` `Done`s arrived and the
    /// core is known.
    fn try_complete(&mut self, ctx: &mut Context<'_>) {
        if self.completed || self.core.is_none() {
            return;
        }
        if self.dones.len() >= ctx.n() - ctx.t() {
            self.completed = true;
            let bundle = ShareBundle {
                dealer: self.dealer,
                me: ctx.me(),
                row: self.row.clone(),
                col: self.col.clone(),
                core: self.core.clone().expect("checked above"),
                crosses: self.crosses.clone(),
            };
            ctx.output(bundle);
            self.retire_if_spent(ctx);
        }
    }
}

impl Instance for SvssShare {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let me = ctx.me();
        let (n, t) = (ctx.n(), ctx.t());
        self.crosses.reserve(n);
        if me == self.dealer {
            let secret = self.secret.expect("dealer constructed with secret");
            let bivar = BivarPoly::random_with_secret(secret, t, ctx.rng());
            for p in 0..n {
                let pid = PartyId(p);
                let x = party_point(pid);
                ctx.send(
                    pid,
                    ShareMsg::Shares {
                        row: bivar.row(x),
                        col: bivar.col(x),
                    },
                );
            }
        } else {
            // Participate in the dealer's core A-Cast from the start so a
            // racing proposal is not lost.
            ctx.spawn(
                SessionTag::new(CORE_TAG, self.dealer.0 as u64),
                Box::new(Acast::<Vec<usize>>::receiver(self.dealer)),
            );
        }
    }

    fn on_message(&mut self, from: PartyId, payload: &Payload, ctx: &mut Context<'_>) {
        let Some(msg) = payload.view::<ShareMsg>() else {
            return;
        };
        let (n, t) = (ctx.n(), ctx.t());
        match &*msg {
            ShareMsg::Shares { row, col } => {
                // Only the dealer's first share message, of valid degree.
                if from != self.dealer || self.row.is_some() {
                    return;
                }
                if row.degree().unwrap_or(0) > t || col.degree().unwrap_or(0) > t {
                    return; // malformed: treat as absent
                }
                self.row = Some(row.clone());
                self.col = Some(col.clone());
                // Send cross points to every party.
                for p in ctx.parties() {
                    let x = party_point(p);
                    ctx.send(
                        p,
                        ShareMsg::Cross {
                            a: row.eval(x),
                            b: col.eval(x),
                        },
                    );
                }
                // Re-check buffered cross points now that we can verify.
                for j in ctx.parties() {
                    self.try_ok(j, ctx);
                }
            }
            ShareMsg::Cross { a, b } => {
                // First cross from each peer counts.
                if self.crosses.insert(from, (*a, *b)) {
                    self.try_ok(from, ctx);
                }
            }
            ShareMsg::Ok(peer) => {
                // A vote may only name a party: anything else is refused
                // before it touches a row (no state for junk to grow).
                let (u, v) = (from.0, peer.0);
                if u.max(v) >= n {
                    return;
                }
                self.alloc_graph(n);
                if !self.oks.set(u, v) {
                    return;
                }
                // Only a vote that completes a pair changes the graph.
                if self.oks.get(v, u) {
                    self.dealer_try_core(ctx);
                    self.try_done(ctx);
                }
            }
            ShareMsg::Done => {
                if self.dones.insert(from) {
                    if self.dones.len() > t && !self.done_sent {
                        self.done_sent = true;
                        ctx.send_all(ShareMsg::Done);
                        self.retire_if_spent(ctx);
                    }
                    self.try_complete(ctx);
                }
            }
        }
    }

    fn on_child_output(&mut self, child: &SessionTag, output: &Payload, ctx: &mut Context<'_>) {
        if child.kind != CORE_TAG || self.core.is_some() {
            return;
        }
        let Some(core) = output.downcast_ref::<Vec<usize>>() else {
            return;
        };
        let n = ctx.n();
        // Validate: exactly n − t distinct known parties.
        let mut seen = PartySet::new();
        let valid =
            core.len() == n - ctx.t() && core.iter().all(|&p| p < n && seen.insert(PartyId(p)));
        if !valid {
            return; // a faulty dealer's junk proposal: ignore forever
        }
        self.core = Some(core.iter().map(|&p| PartyId(p)).collect());
        self.alloc_graph(n);
        self.try_done(ctx);
        self.try_complete(ctx);
    }
}
