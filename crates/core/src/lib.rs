//! # aft-core
//!
//! The primary contribution of *Revisiting Asynchronous Fault Tolerant
//! Computation with Optimal Resilience* (Abraham–Dolev–Stern, PODC 2020),
//! implemented over the `aft` substrate crates:
//!
//! * [`CommonSubset`] — Algorithm 4 / Appendix C: agree on a set of ≥ k
//!   parties whose dynamic predicate some honest party observed.
//! * [`CoinFlip`] — Algorithm 1 (Theorem 3.5): an ε-biased,
//!   **almost-surely terminating strong common coin** — all parties output
//!   the *same* bit, each outcome has probability ≥ ½ − ε. This is the
//!   functionality the paper shows is achievable at `n = 3t + 1` even
//!   though AVSS is not (its Theorem 2.2, see `aft-lowerbound`).
//! * [`FairChoice`] — Algorithm 2 (Theorem 4.3): pick one of `m`
//!   alternatives such that any majority subset is hit with
//!   probability > ½.
//! * [`Fba`] — Algorithm 3 (Theorem 4.5): multivalued Byzantine agreement
//!   with **fair validity** — when honest inputs differ, the output is
//!   some honest party's input with probability ≥ ½. The first of its
//!   kind in the information-theoretic setting.
//!
//! # Example: four parties flip one strong coin
//!
//! ```
//! use aft_core::{CoinFlip, CoinFlipOutput, CoinFlipParams, CoinKind};
//! use aft_sim::{NetConfig, PartyId, RandomScheduler, Runtime, RuntimeExt, SessionId,
//!               SessionTag, SimNetwork};
//!
//! let (n, t) = (4, 1);
//! let mut net = SimNetwork::new(NetConfig::new(n, t, 11), Box::new(RandomScheduler));
//! let sid = SessionId::root().child(SessionTag::new("coin", 0));
//! for p in 0..n {
//!     net.spawn(
//!         PartyId(p),
//!         sid.clone(),
//!         Box::new(CoinFlip::new(
//!             CoinFlipParams::FixedK { k: 2 },
//!             CoinKind::Oracle(3),
//!         )),
//!     );
//! }
//! net.run(50_000_000);
//! let coins: Vec<bool> = (0..n)
//!     .map(|p| net.output_as::<CoinFlipOutput>(PartyId(p), &sid).expect("terminates").value)
//!     .collect();
//! assert!(coins.windows(2).all(|w| w[0] == w[1]), "strong: all agree");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coin_flip;
mod common_subset;
mod config;
mod fair_choice;
mod fba;
pub mod scenarios;
pub mod search;

pub use coin_flip::{CoinFlip, CoinFlipOutput, CoinFlipParams};
pub use common_subset::{CommonSubset, CommonSubsetInstance, PredicateMsg, CS_BA_TAG};
pub use config::CoinKind;
pub use fair_choice::{fair_choice_parameters, FairChoice, FairChoiceParams};
pub use fba::Fba;
