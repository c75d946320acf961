//! The SVSS reconstruction phase (`SVSS-Rec` of Definition 3.2).

use crate::clique::{find_clique, BitMatrix};
use crate::msgs::{party_point, RecMsg, ShareBundle};
use aft_field::{interpolate_at_zero, Fp, OnlineDecoder, Poly};
use aft_sim::{Context, Instance, PartyId, PartyMap, PartySet, Payload};
use std::sync::Arc;

/// One party's reconstruction instance, built from the [`ShareBundle`] the
/// share phase produced. Outputs the reconstructed secret as an [`Fp`].
///
/// Reconstruction runs two tracks concurrently and outputs whichever
/// certifies first:
///
/// * **Point track** — every party holding a row sends
///   `σ = row(0) = F(x, 0)`; a sound [`OnlineDecoder`] (degree `t`, at most
///   `t` bad points) decodes `h(x) = F(x, 0)` and outputs `h(0)`. With an
///   honest dealer all `2t+1` honest parties hold genuine rows, so this
///   track terminates and is exact.
/// * **Clique track** — core members additionally reveal their full
///   row/column; a `(t+1)`-clique of pairwise cross-consistent reveals
///   determines the bound polynomial `F̂` and yields `F̂(0,0)` (Lagrange at
///   zero over the clique rows' σ values). This track guarantees
///   termination when a faulty dealer handed some honest parties garbage:
///   the ≥ `t+1` honest core members always eventually form a clique.
///
/// **Shunning triggers** (the binding escape hatch of Definition 3.2):
/// a peer whose reveal contradicts the cross points it sent *me* during the
/// share phase is shunned, as is a peer sending duplicate σ/reveals or
/// reveals of invalid degree. An honest party never trips these (it never
/// contradicts itself), so honest parties never shun honest parties.
///
/// Those checks are the instance's only duty after output, so it never
/// retires; at output it drops the decoder's points, the consistency graph
/// and the revealed polynomials, and keeps what the checks read (see
/// `sigma_seen`).
///
/// Against adversaries that craft globally-consistent-but-wrong data a
/// faulty dealer can still split the clique track between honest parties —
/// the paper's own lower bound (Theorem 2.2) shows *some* such gap is
/// unavoidable for a terminating protocol at `n ≤ 4t`; DESIGN.md §4.3
/// documents the boundary relative to full ADH08.
pub struct SvssRec {
    /// The dealing's one bundle, shared with whoever spawned this instance.
    bundle: Arc<ShareBundle>,
    decoder: OnlineDecoder,
    /// Reveals accepted from core members, until output.
    reveals: PartyMap<(Poly, Poly)>,
    /// Parties whose reveal was accepted (first reveal wins).
    revealed: PartySet,
    /// Which accepted reveals agree, as closed neighbourhoods: bit
    /// `(u, v)` iff `u == v` or the two reveals are cross-consistent. Each
    /// pair is evaluated once, when its second reveal arrives.
    consistent: BitMatrix,
    /// The σ each party is held to: the first it sent, and after output
    /// also the `row(0)` of its accepted reveal where it sent none. A
    /// later σ that differs from either is shunned, and once that party
    /// is shunned a further σ can add no shun, so which of the two it is
    /// compared with decides nothing.
    sigma_seen: PartyMap<Fp>,
    done: bool,
}

impl SvssRec {
    /// Creates the reconstruction instance for this party. The bundle is
    /// held as the `Arc` it arrives in (take it from the share phase's
    /// output with [`Payload::downcast_arc`]); an owned bundle is wrapped.
    pub fn new(bundle: impl Into<Arc<ShareBundle>>) -> Self {
        SvssRec {
            bundle: bundle.into(),
            // degree t, up to t adversarial points — set in on_start when t
            // is known; re-created there.
            decoder: OnlineDecoder::new(0, 0),
            reveals: PartyMap::new(),
            revealed: PartySet::new(),
            consistent: BitMatrix::default(),
            sigma_seen: PartyMap::new(),
            done: false,
        }
    }

    /// Outputs `value` and lets go of everything only the two tracks
    /// read, without allocating: `sigma_seen` was reserved for all `n`.
    fn output_once(&mut self, value: Fp, ctx: &mut Context<'_>) {
        if !self.done {
            self.done = true;
            ctx.output(value);
            for (p, (row, _)) in self.reveals.iter() {
                self.sigma_seen.insert(p, row.eval(Fp::ZERO));
            }
            self.reveals = PartyMap::new();
            self.consistent = BitMatrix::default();
            self.decoder = OnlineDecoder::new(0, 0);
        }
    }

    /// Clique track: enter `from`'s just-accepted reveal into the
    /// consistency graph, then look for a `(t+1)`-clique of mutually
    /// consistent reveals among core members and interpolate the secret.
    fn try_clique(&mut self, from: PartyId, ctx: &mut Context<'_>) {
        if self.done {
            return;
        }
        let (n, t) = (ctx.n(), ctx.t());
        if self.consistent.n() != n {
            self.consistent = BitMatrix::new(n);
        }
        // Edge (u, v): u's row at x_v equals v's col at x_u, and vice
        // versa — both claim grid values of the same bivariate.
        let (ru, cu) = &self.reveals.get(from).expect("just accepted");
        let xu = party_point(from);
        for (v, (rv, cv)) in self.reveals.iter() {
            let xv = party_point(v);
            if v == from || (ru.eval(xv) == cv.eval(xu) && rv.eval(xu) == cu.eval(xv)) {
                self.consistent.set(from.0, v.0);
                self.consistent.set(v.0, from.0);
            }
        }
        if let Some(clique) = find_clique(&self.consistent, t + 1) {
            let pts: Vec<(Fp, Fp)> = clique
                .iter()
                .map(|&u| {
                    let (row, _) = self.reveals.get(PartyId(u)).expect("revealed");
                    (party_point(PartyId(u)), row.eval(Fp::ZERO))
                })
                .collect();
            let secret = interpolate_at_zero(&pts).expect("distinct party points");
            self.output_once(secret, ctx);
        }
    }
}

// never retires: a σ or reveal after output can still contradict an earlier
// one and must still be shunned; the decoding state goes at output instead.
impl Instance for SvssRec {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let (n, t) = (ctx.n(), ctx.t());
        self.decoder = OnlineDecoder::new(t, t);
        self.reveals.reserve(n);
        self.sigma_seen.reserve(n);
        if let Some(row) = &self.bundle.row {
            ctx.send_all(RecMsg::Sigma(row.eval(Fp::ZERO)));
            if self.bundle.in_core() {
                if let Some(col) = &self.bundle.col {
                    ctx.send_all(RecMsg::Reveal {
                        row: row.clone(),
                        col: col.clone(),
                    });
                }
            }
        }
    }

    fn on_message(&mut self, from: PartyId, payload: &Payload, ctx: &mut Context<'_>) {
        let Some(msg) = payload.view::<RecMsg>() else {
            return;
        };
        let t = ctx.t();
        match &*msg {
            RecMsg::Sigma(v) => {
                if let Some(prev) = self.sigma_seen.get(from) {
                    if prev != v {
                        // An honest party never equivocates its σ.
                        ctx.shun(from);
                    }
                    return;
                }
                self.sigma_seen.insert(from, *v);
                // A σ that contradicts the same party's reveal is a
                // self-contradiction: shun (honest parties send
                // σ = row(0) and reveal the same row).
                if let Some((row, _)) = self.reveals.get(from) {
                    if row.eval(Fp::ZERO) != *v {
                        ctx.shun(from);
                        return;
                    }
                }
                if self.done {
                    return;
                }
                if let Ok(Some(poly)) = self.decoder.add_point(party_point(from), *v) {
                    let secret = poly.eval(Fp::ZERO);
                    self.output_once(secret, ctx);
                }
            }
            RecMsg::Reveal { row, col } => {
                if !self.bundle.core.contains(&from) {
                    return; // only core members reveal
                }
                if self.revealed.contains(from) {
                    return; // first reveal wins; repeats are harmless noise
                }
                if row.degree().unwrap_or(0) > t || col.degree().unwrap_or(0) > t {
                    // Malformed reveal from a core member: provably faulty.
                    ctx.shun(from);
                    return;
                }
                // Self-contradiction checks: the reveal must match the
                // cross points this peer sent me during the share phase,
                // and the σ it already sent (if any).
                if let Some(&(a, b)) = self.bundle.crosses.get(from) {
                    let x_me = party_point(self.bundle.me);
                    if row.eval(x_me) != a || col.eval(x_me) != b {
                        ctx.shun(from);
                        return;
                    }
                }
                if let Some(&sigma) = self.sigma_seen.get(from) {
                    if row.eval(Fp::ZERO) != sigma {
                        ctx.shun(from);
                        return;
                    }
                }
                self.revealed.insert(from);
                if self.done {
                    self.sigma_seen.insert(from, row.eval(Fp::ZERO));
                } else {
                    self.reveals.insert(from, (row.clone(), col.clone()));
                    self.try_clique(from, ctx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SvssShare;
    use aft_sim::Runtime;
    use aft_sim::{NetConfig, RandomScheduler, SessionId, SessionTag, SimNetwork};

    #[test]
    fn reconstruction_holds_the_share_phases_own_bundle() {
        let (n, t) = (4, 1);
        let mut net = SimNetwork::new(NetConfig::new(n, t, 5), Box::new(RandomScheduler));
        let sid = SessionId::root().child(SessionTag::new("svss-share", 0));
        for p in 0..n {
            let inst = if p == 0 {
                SvssShare::dealer(PartyId(0), Fp::new(9))
            } else {
                SvssShare::party(PartyId(0))
            };
            net.spawn(PartyId(p), sid.clone(), Box::new(inst));
        }
        net.run(1_000_000);
        let output = net.output(PartyId(2), &sid).expect("share completed");
        let held = output.downcast_arc::<ShareBundle>().expect("a bundle");
        let rec = SvssRec::new(Arc::clone(&held));
        assert!(Arc::ptr_eq(&rec.bundle, &held));
        // … which is the very value the output payload carries.
        let in_output = output.downcast_ref::<ShareBundle>().expect("a bundle");
        assert!(std::ptr::eq(&*rec.bundle, in_output));
        // An owned bundle (a test's `.cloned()`) is wrapped, not shared.
        let copy = SvssRec::new(in_output.clone());
        assert!(!Arc::ptr_eq(&copy.bundle, &held));
        assert_eq!(copy.bundle.core, held.core);
    }
}
