//! # aft — Asynchronous Fault Tolerance with Optimal Resilience
//!
//! A full, executable reproduction of
//! *Revisiting Asynchronous Fault Tolerant Computation with Optimal
//! Resilience* (Ittai Abraham, Danny Dolev, Gilad Stern — PODC 2020,
//! arXiv:2006.16686).
//!
//! The paper proves two complementary results about asynchronous systems
//! of `n = 3t + 1` parties, up to `t` Byzantine:
//!
//! * **A lower bound** (Theorem 2.2): no almost-surely-terminating
//!   `(2/3 + ε)`-correct AVSS exists for `n ≤ 4t` — executable in
//!   [`lowerbound`].
//! * **Upper bounds** that dodge it: an ε-biased almost-surely terminating
//!   **strong common coin** ([`CoinFlip`], Theorem 3.5), an almost-fair
//!   m-way choice ([`FairChoice`], Theorem 4.3), and the first
//!   information-theoretic Byzantine agreement with **fair validity**
//!   ([`Fba`], Theorem 4.5).
//!
//! This facade crate re-exports the whole stack:
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | algebra | [`field`] | `GF(2^61−1)`, polynomials, Reed–Solomon/OEC |
//! | execution | [`sim`] | deterministic asynchronous network simulator |
//! | broadcast | [`broadcast`] | Bracha A-Cast (Definition 4.4) |
//! | sharing | [`svss`] | shunning VSS (Definition 3.2, after ADH'08) |
//! | agreement | [`ba`] | binary BA (Definition 3.3) + coin sources |
//! | **the paper** | [`core`] | CommonSubset, CoinFlip, FairChoice, FBA |
//! | impossibility | [`lowerbound`] | Theorem 2.2 attacks, exhaustively |
//!
//! # Quickstart: an agreed fair coin among 4 parties, 1 Byzantine-silent
//!
//! ```
//! use aft::core::{CoinFlip, CoinFlipOutput, CoinFlipParams, CoinKind};
//! use aft::sim::{NetConfig, PartyId, RandomScheduler, Runtime, RuntimeExt, SessionId,
//!                SessionTag, SilentInstance, SimNetwork};
//!
//! let (n, t) = (4, 1);
//! let mut net = SimNetwork::new(NetConfig::new(n, t, 2024), Box::new(RandomScheduler));
//! let sid = SessionId::root().child(SessionTag::new("coin", 0));
//! for p in 0..n {
//!     if p == 3 {
//!         // One party crashed from the start: the coin still completes.
//!         net.spawn(PartyId(p), sid.clone(), Box::new(SilentInstance));
//!     } else {
//!         net.spawn(
//!             PartyId(p),
//!             sid.clone(),
//!             Box::new(CoinFlip::new(CoinFlipParams::FixedK { k: 2 }, CoinKind::Oracle(7))),
//!         );
//!     }
//! }
//! net.run(50_000_000);
//! let coins: Vec<bool> = (0..3)
//!     .map(|p| net.output_as::<CoinFlipOutput>(PartyId(p), &sid).unwrap().value)
//!     .collect();
//! assert!(coins.windows(2).all(|w| w[0] == w[1]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use aft_ba as ba;
pub use aft_broadcast as broadcast;
pub use aft_core as core;
pub use aft_field as field;
pub use aft_lowerbound as lowerbound;
pub use aft_sim as sim;
pub use aft_svss as svss;

// Convenience re-exports of the paper's headline API at the crate root.
pub use aft_core::{
    fair_choice_parameters, CoinFlip, CoinFlipOutput, CoinFlipParams, CoinKind, CommonSubset,
    FairChoice, FairChoiceParams, Fba,
};
pub use aft_lowerbound::theorem_2_2_report;
