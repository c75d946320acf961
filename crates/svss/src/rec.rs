//! The SVSS reconstruction phase (`SVSS-Rec` of Definition 3.2).
//!
//! A coin runs one dealing per party per flip, and each party keeps one
//! reconstruction per dealing after it outputs: shunning must still catch
//! a later σ or reveal that contradicts an earlier one. What a finished
//! reconstruction keeps, times the dealings, is what the full stack holds,
//! so [`SvssRec`] splits in two. What only the two tracks read — the
//! decoder, the accepted reveals and their consistency graph — sits in one
//! box that the output drops whole. What the shun checks read — the
//! bundle, who revealed, the σ each party is held to — stays, 64 bytes in
//! all (88 with a 40-byte party set, 240 while the tracks were inline and
//! merely emptied).

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
/// retires; at output it drops the decoder, the consistency graph and the
/// revealed polynomials in one go (`Tracks`), and keeps what the checks
/// read (see `sigma_seen`).
///
/// Against adversaries that craft globally-consistent-but-wrong data a
/// faulty dealer can still split the clique track between honest parties —
/// the paper's own lower bound (Theorem 2.2) shows *some* such gap is
/// unavoidable for a terminating protocol at `n ≤ 4t`; DESIGN.md §4.3
/// documents the boundary relative to full ADH08.
pub struct SvssRec {
    /// The dealing's one bundle, shared with whoever spawned this instance.
    bundle: Arc<ShareBundle>,
    /// The two tracks' state until output; `None` once it is made.
    tracks: Option<Box<Tracks>>,
    /// Parties whose reveal was accepted (first reveal wins).
    revealed: PartySet,
    /// The σ each party is held to: the first it sent, and after output
    /// also the `row(0)` of its accepted reveal where it sent none. A
    /// later σ that differs from either is shunned, and once that party
    /// is shunned a further σ can add no shun, so which of the two it is
    /// compared with decides nothing.
    sigma_seen: PartyMap<Fp>,
}

/// What only the point and clique tracks read, dropped whole at output.
struct Tracks {
    decoder: OnlineDecoder,
    /// Reveals accepted from core members.
    reveals: PartyMap<(Poly, Poly)>,
    /// Which accepted reveals agree, as closed neighbourhoods: bit
    /// `(u, v)` iff `u == v` or the two reveals are cross-consistent. Each
    /// pair is evaluated once, when its second reveal arrives.
    consistent: BitMatrix,
}

impl SvssRec {
    /// Creates the reconstruction instance for this party. The bundle is
    /// held as the `Arc` it arrives in (take it from the share phase's
    /// output with [`Payload::downcast_arc`]); an owned bundle is wrapped.
    pub fn new(bundle: impl Into<Arc<ShareBundle>>) -> Self {
        SvssRec {
            bundle: bundle.into(),
            tracks: Some(Box::new(Tracks {
                // degree t, up to t adversarial points — set in on_start
                // when t is known; re-created there.
                decoder: OnlineDecoder::new(0, 0),
                reveals: PartyMap::new(),
                consistent: BitMatrix::default(),
            })),
            revealed: PartySet::new(),
            sigma_seen: PartyMap::new(),
        }
    }

    /// Outputs `value` and lets go of everything only the two tracks
    /// read, without allocating: `sigma_seen` was reserved for all `n`.
    fn output_once(&mut self, value: Fp, ctx: &mut Context<'_>) {
        if let Some(tracks) = self.tracks.take() {
            ctx.output(value);
            for (p, (row, _)) in tracks.reveals.iter() {
                self.sigma_seen.insert(p, row.eval(Fp::ZERO));
            }
        }
    }

    /// Clique track: enter `from`'s just-accepted reveal into the
    /// consistency graph, then look for a `(t+1)`-clique of mutually
    /// consistent reveals among core members and interpolate the secret.
    fn try_clique(&mut self, from: PartyId, ctx: &mut Context<'_>) {
        let Some(tracks) = self.tracks.as_deref_mut() else {
            return;
        };
        let (n, t) = (ctx.n(), ctx.t());
        if tracks.consistent.n() != n {
            tracks.consistent = BitMatrix::new(n);
        }
        // Edge (u, v): u's row at x_v equals v's col at x_u, and vice
        // versa — both claim grid values of the same bivariate.
        let (ru, cu) = &tracks.reveals.get(from).expect("just accepted");
        let xu = party_point(from);
        for (v, (rv, cv)) in tracks.reveals.iter() {
            let xv = party_point(v);
            if v == from || (ru.eval(xv) == cv.eval(xu) && rv.eval(xu) == cu.eval(xv)) {
                tracks.consistent.set(from.0, v.0);
                tracks.consistent.set(v.0, from.0);
            }
        }
        if let Some(clique) = find_clique(&tracks.consistent, t + 1) {
            let pts: Vec<(Fp, Fp)> = clique
                .iter()
                .map(|&u| {
                    let (row, _) = tracks.reveals.get(PartyId(u)).expect("revealed");
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
        if let Some(tracks) = self.tracks.as_deref_mut() {
            tracks.decoder = OnlineDecoder::new(t, t);
            tracks.reveals.reserve(n);
        }
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
                // After output a revealed party's `row(0)` is in
                // `sigma_seen`, so the check above already held it to it.
                let Some(tracks) = self.tracks.as_deref_mut() else {
                    return;
                };
                // A σ that contradicts the same party's reveal is a
                // self-contradiction: shun (honest parties send
                // σ = row(0) and reveal the same row).
                if let Some((row, _)) = tracks.reveals.get(from) {
                    if row.eval(Fp::ZERO) != *v {
                        ctx.shun(from);
                        return;
                    }
                }
                if let Ok(Some(poly)) = tracks.decoder.add_point(party_point(from), *v) {
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
                match self.tracks.as_deref_mut() {
                    None => {
                        self.sigma_seen.insert(from, row.eval(Fp::ZERO));
                    }
                    Some(tracks) => {
                        tracks.reveals.insert(from, (row.clone(), col.clone()));
                        self.try_clique(from, ctx);
                    }
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
