//! # aft-svss
//!
//! *Shunning verifiable secret sharing* (SVSS) with optimal resilience
//! `n = 3t + 1`, after the SVSS of Abraham–Dolev–Halpern (PODC'08) as used
//! by Definition 3.2 of Abraham–Dolev–Stern (PODC 2020).
//!
//! An SVSS relaxes asynchronous VSS exactly enough to evade the paper's
//! own lower bound (Theorem 2.2): it always terminates, but **binding** may
//! fail — and when it does, some honest party *shuns* a faulty party
//! forever. Since each ordered pair shuns at most once, fewer than `n²`
//! failures can ever occur, which is the budget the strong common coin
//! (`aft-core`) is engineered to absorb.
//!
//! ## Protocol
//!
//! * **Share** ([`SvssShare`]): bivariate sharing, pairwise cross-point
//!   checks, a public OK-graph, an `(n−t)`-core proposed by the dealer over
//!   A-Cast, and Bracha-style completion amplification. Outputs a
//!   [`ShareBundle`].
//! * **Rec** ([`SvssRec`]): a sound online-error-correcting *point track*
//!   (exact and live for honest dealers) plus a `(t+1)`-clique *reveal
//!   track* that guarantees termination under faulty dealers; every
//!   detectable self-contradiction triggers a shun. Outputs the secret as
//!   an [`aft_field::Fp`].
//!
//! Both keep their per-party state dense — [`aft_sim::PartySet`] /
//! [`aft_sim::PartyMap`] for who voted and what each peer sent, a
//! [`BitMatrix`] for the OK and reveal-consistency graphs — so a vote is a
//! bit operation, nothing is iterated in hash order, and an index a peer
//! names is checked against `n` before it touches a table.
//!
//! Properties (Definition 3.2) and the adversary classes they are verified
//! against are catalogued in `DESIGN.md` §4.3; the [`attacks`] module
//! implements those adversaries.
//!
//! # Example: share and reconstruct under a random scheduler
//!
//! ```
//! use aft_field::Fp;
//! use aft_svss::{ShareBundle, SvssRec, SvssShare};
//! use aft_sim::{NetConfig, PartyId, RandomScheduler, Runtime, RuntimeExt, SessionId,
//!               SessionTag, SimNetwork};
//!
//! let (n, t) = (4, 1);
//! let mut net = SimNetwork::new(NetConfig::new(n, t, 1), Box::new(RandomScheduler));
//! let share_sid = SessionId::root().child(SessionTag::new("svss-share", 0));
//! let secret = Fp::new(777);
//! for p in 0..n {
//!     let inst = if p == 0 {
//!         SvssShare::dealer(PartyId(0), secret)
//!     } else {
//!         SvssShare::party(PartyId(0))
//!     };
//!     net.spawn(PartyId(p), share_sid.clone(), Box::new(inst));
//! }
//! net.run(1_000_000);
//!
//! // Every party completed the share phase; now reconstruct, from the
//! // bundle the share phase output (shared, not copied).
//! let rec_sid = SessionId::root().child(SessionTag::new("svss-rec", 0));
//! for p in 0..n {
//!     let output = net.output(PartyId(p), &share_sid).unwrap();
//!     let bundle = output.downcast_arc::<ShareBundle>().unwrap();
//!     net.spawn(PartyId(p), rec_sid.clone(), Box::new(SvssRec::new(bundle)));
//! }
//! net.run(1_000_000);
//! for p in 0..n {
//!     assert_eq!(net.output_as::<Fp>(PartyId(p), &rec_sid), Some(&secret));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
mod clique;
mod msgs;
mod rec;
mod share;

pub use clique::{find_clique, BitMatrix};
pub use msgs::{party_point, RecMsg, ShareBundle, ShareMsg};
pub use rec::SvssRec;
pub use share::{SvssShare, CORE_TAG};

/// Registers this crate's wire kinds: the share/rec message enums and
/// the A-Cast wrapper carrying the dealer's core proposal.
pub fn register_codecs(registry: &mut aft_sim::CodecRegistry) {
    registry.register::<ShareMsg>();
    registry.register::<RecMsg>();
    registry.register::<aft_broadcast::AcastMsg<Vec<usize>>>();
}
