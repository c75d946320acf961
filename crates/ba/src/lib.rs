//! # aft-ba
//!
//! Almost-surely terminating **binary Byzantine agreement** with optimal
//! resilience `n = 3t + 1`, the `BA` primitive of Definition 3.3 in
//! Abraham–Dolev–Stern (PODC 2020), built after Bracha'87's validated
//! three-step voting with a pluggable common coin.
//!
//! Properties (all verified by the test suite):
//!
//! * **Termination** — almost-sure: the probability of running `r` rounds
//!   decays geometrically in the coin's common-and-uniform probability.
//!   If some nonfaulty party completes, all nonfaulty participants do
//!   (Bracha-style `Decide` gadget).
//! * **Validity** — unanimous honest inputs decide that value in round 0,
//!   *deterministically*: vote validation blocks Byzantine counter-votes.
//! * **Correctness** (agreement) — independent of coin quality; two honest
//!   parties never output different values.
//!
//! Coin sources ([`CoinSource`]): [`LocalCoin`] (Ben-Or baseline,
//! exponential expected rounds), [`WeakSharedCoin`] (SVSS-based weak coin,
//! expected O(1) rounds under the simulator's schedulers — the configuration
//! matching the paper's reference \[2\]), and [`OracleCoin`] (ideal
//! functionality for ablations).
//!
//! # Example
//!
//! ```
//! use aft_ba::{BinaryBa, OracleCoin};
//! use aft_sim::{NetConfig, PartyId, RandomScheduler, Runtime, RuntimeExt, SessionId,
//!               SessionTag, SimNetwork};
//!
//! let (n, t) = (4, 1);
//! let mut net = SimNetwork::new(NetConfig::new(n, t, 3), Box::new(RandomScheduler));
//! let sid = SessionId::root().child(SessionTag::new("ba", 0));
//! for p in 0..n {
//!     // Parties 0-1 propose true, 2-3 propose false.
//!     let input = p < 2;
//!     net.spawn(
//!         PartyId(p),
//!         sid.clone(),
//!         Box::new(BinaryBa::new(input, Box::new(OracleCoin::new(99)))),
//!     );
//! }
//! net.run(5_000_000);
//! let out: Vec<bool> = (0..n)
//!     .map(|p| *net.output_as::<bool>(PartyId(p), &sid).expect("terminated"))
//!     .collect();
//! assert!(out.windows(2).all(|w| w[0] == w[1]), "agreement: {out:?}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
mod ba;
mod coin;

pub use ba::{BinaryBa, V1, V2, V3};
pub use coin::{Coin, CoinSource, LocalCoin, OracleCoin, WeakCoinInstance, WeakSharedCoin};

/// Registers this crate's wire kinds: the three vote values, their
/// A-Cast wrappers, the termination-gadget `Decide`, and the weak coin's
/// gather set.
pub fn register_codecs(registry: &mut aft_sim::CodecRegistry) {
    registry.register::<V1>();
    registry.register::<V2>();
    registry.register::<V3>();
    registry.register::<aft_broadcast::AcastMsg<V1>>();
    registry.register::<aft_broadcast::AcastMsg<V2>>();
    registry.register::<aft_broadcast::AcastMsg<V3>>();
    ba::register_private_codecs(registry);
    coin::register_private_codecs(registry);
    attacks::register_codecs(registry);
}
