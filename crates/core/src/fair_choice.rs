//! `FairChoice(m)` — the paper's Algorithm 2: almost-fair selection of one
//! of `m` alternatives (Theorem 4.3).

use crate::coin_flip::{CoinFlip, CoinFlipOutput, CoinFlipParams};
use crate::config::CoinKind;
use aft_sim::{Context, Instance, PartyId, Payload, SessionTag};

/// Session tag kind of the sequential coin flips (`index = i`).
const FC_COIN_TAG: &str = "fc-coin";

/// How the per-bit coins of FairChoice are parameterised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FairChoiceParams {
    /// The paper's prescription: each of the `l` coins is
    /// `CoinFlip(ε)` with `ε = 1/(100 · m · log₂ m)` iterations per its
    /// own paper-exact formula. Astronomically expensive but exactly
    /// Algorithm 2 (used by the paper-exact experiment mode at tiny `n`).
    Paper,
    /// Every coin runs a fixed number of SVSS iterations — the scaled mode
    /// (bias per coin still measured and reported by experiments).
    FixedK {
        /// SVSS iterations per coin flip.
        k: usize,
    },
}

/// The paper's parameters for `FairChoice(m)`: the number of coin bits `l`
/// (with `N = 2^l`, the smallest power of two with `4m² ≥ N ≥ 2m²`) and
/// the per-coin bias target `ε = 1/(100·m·log₂ m)`.
///
/// # Panics
///
/// Panics if `m < 3` (the protocol requires `m ≥ 3`).
///
/// ```
/// let (l, eps) = aft_core::fair_choice_parameters(3);
/// assert_eq!(l, 5); // N = 32, 2m² = 18 ≤ 32 ≤ 36 = 4m²
/// assert!((eps - 1.0 / (100.0 * 3.0 * 3f64.log2())).abs() < 1e-12);
/// ```
pub fn fair_choice_parameters(m: usize) -> (u32, f64) {
    assert!(m >= 3, "FairChoice requires m >= 3");
    let target = 2 * m * m;
    let mut l = 0u32;
    while (1usize << l) < target {
        l += 1;
    }
    debug_assert!((1usize << l) <= 4 * m * m, "N must be at most 4m^2");
    let eps = 1.0 / (100.0 * m as f64 * (m as f64).log2());
    (l, eps)
}

/// One party's `FairChoice(m)` instance (Algorithm 2).
///
/// Runs `l` **sequential** strong common coins, assembles the bits into a
/// number `r ∈ [0, 2^l)` (first coin = most significant bit), and outputs
/// `r mod m` as a `usize`.
///
/// Properties (Theorem 4.3, verified by tests/experiments):
/// * Correctness — all honest parties output the same index (each coin is
///   agreed).
/// * Validity — for any `G ⊆ {0..m-1}` with `|G| > m/2`, the output lands
///   in `G` with probability > ½: per-coin bias is small enough that every
///   residue class keeps nearly `1/m` mass.
pub struct FairChoice {
    m: usize,
    l: u32,
    params: FairChoiceParams,
    coin: CoinKind,
    bits: Vec<bool>,
    started: u32,
    done: bool,
}

impl FairChoice {
    /// Creates the instance choosing among `m ≥ 3` alternatives.
    ///
    /// # Panics
    ///
    /// Panics if `m < 3`.
    pub fn new(m: usize, params: FairChoiceParams, coin: CoinKind) -> Self {
        let (l, _) = fair_choice_parameters(m);
        FairChoice {
            m,
            l,
            params,
            coin,
            bits: Vec::new(),
            started: 0,
            done: false,
        }
    }

    /// The number of coin flips this instance will run.
    pub fn flips(&self) -> u32 {
        self.l
    }

    fn coin_params(&self) -> CoinFlipParams {
        match self.params {
            FairChoiceParams::Paper => {
                let (_, eps) = fair_choice_parameters(self.m);
                CoinFlipParams::PaperExact { epsilon: eps }
            }
            FairChoiceParams::FixedK { k } => CoinFlipParams::FixedK { k },
        }
    }

    fn start_next_coin(&mut self, ctx: &mut Context<'_>) {
        let i = self.started;
        self.started += 1;
        ctx.spawn(
            SessionTag::new(FC_COIN_TAG, i as u64),
            Box::new(CoinFlip::new(self.coin_params(), self.coin)),
        );
    }
}

impl Instance for FairChoice {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.start_next_coin(ctx);
    }

    fn on_message(&mut self, _from: PartyId, _payload: &Payload, _ctx: &mut Context<'_>) {}

    fn on_child_output(&mut self, child: &SessionTag, output: &Payload, ctx: &mut Context<'_>) {
        if child.kind != FC_COIN_TAG || self.done {
            return;
        }
        let Some(out) = output.downcast_ref::<CoinFlipOutput>() else {
            return;
        };
        if child.index != self.bits.len() as u64 {
            return; // out-of-order duplicate
        }
        self.bits.push(out.value);
        if self.bits.len() < self.l as usize {
            self.start_next_coin(ctx);
        } else {
            // r = (b_1 b_2 ... b_l)_2, b_1 most significant.
            let r = self
                .bits
                .iter()
                .fold(0usize, |acc, &b| (acc << 1) | usize::from(b));
            self.done = true;
            ctx.output(r % self.m);
            // Every coin is spawned and heard: nothing is left to start.
            ctx.retire_unviewed(self);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameters_match_paper_constraints() {
        for m in 3..40usize {
            let (l, eps) = fair_choice_parameters(m);
            let n_val = 1usize << l;
            assert!(n_val >= 2 * m * m, "m={m}: N={n_val} < 2m^2");
            assert!(n_val <= 4 * m * m, "m={m}: N={n_val} > 4m^2");
            // Smallest such power of two.
            assert!((1usize << (l - 1)) < 2 * m * m);
            assert!(eps > 0.0 && eps < 0.5);
        }
    }

    #[test]
    #[should_panic(expected = "m >= 3")]
    fn m_below_three_rejected() {
        let _ = fair_choice_parameters(2);
    }

    #[test]
    fn flips_equals_l() {
        let fc = FairChoice::new(5, FairChoiceParams::FixedK { k: 1 }, CoinKind::Oracle(0));
        let (l, _) = fair_choice_parameters(5);
        assert_eq!(fc.flips(), l);
    }
}
