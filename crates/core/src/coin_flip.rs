//! `CoinFlip(ε)` — the paper's Algorithm 1: an ε-biased, almost-surely
//! terminating **strong common coin** (Theorem 3.5).

use crate::common_subset::CommonSubset;
use crate::config::CoinKind;
use aft_ba::BinaryBa;
use aft_field::Fp;
use aft_sim::{Context, Instance, PartyId, PartyMap, PartySet, Payload, SessionTag};
use aft_svss::{ShareBundle, SvssRec, SvssShare};
use rand::Rng;
use std::sync::Arc;

/// Session tag kinds of CoinFlip children (`index = round * n + dealer`
/// for the per-dealer ones, `round` for the subset, `0` for the final BA).
const SHARE_TAG: &str = "cf-share";
const REC_TAG: &str = "cf-rec";
const FINAL_BA_TAG: &str = "cf-final";

/// How many SVSS iterations the coin runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoinFlipParams {
    /// The paper's prescription: `k = 4 ⌈(e/(ε·π))² · n⁴⌉` iterations for
    /// an ε-biased coin. This drowns the fewer-than-`n²` possible SVSS
    /// shun-failures in the binomial tail.
    PaperExact {
        /// Target bias bound ε ∈ (0, ½).
        epsilon: f64,
    },
    /// A fixed iteration count: used for statistically-scaled experiments
    /// (the reproduction-note table `exp_claims thm3.5-bias` prints shows how a
    /// scaled k relates to the paper-exact mode) and affordable tests.
    FixedK {
        /// Number of iterations (must be ≥ 1).
        k: usize,
    },
}

impl CoinFlipParams {
    /// Resolves the iteration count for an `n`-party system.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon ∉ (0, ½)` or `k == 0`.
    pub fn iterations(&self, n: usize) -> usize {
        match *self {
            CoinFlipParams::PaperExact { epsilon } => {
                assert!(
                    epsilon > 0.0 && epsilon < 0.5,
                    "epsilon must be in (0, 1/2)"
                );
                let c = std::f64::consts::E / (epsilon * std::f64::consts::PI);
                let n4 = (n as f64).powi(4);
                4 * (c * c * n4).ceil() as usize
            }
            CoinFlipParams::FixedK { k } => {
                assert!(k >= 1, "k must be at least 1");
                k
            }
        }
    }
}

/// Outcome summary a [`CoinFlip`] instance attaches to its output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoinFlipOutput {
    /// The agreed coin value.
    pub value: bool,
    /// This party's pre-BA majority bit (diagnostics: how often the final
    /// BA had unanimous inputs).
    pub local_majority: bool,
    /// Number of iterations executed.
    pub iterations: u32,
}

/// One party's strong-common-coin instance (Algorithm 1).
///
/// Per iteration `r`: every party deals an SVSS of a uniform bit;
/// `CommonSubset` (with `Q_ir(j)` = "`SVSS-Share_jr` completed", `k = n−t`)
/// agrees on a dealer set `S_r`; every `j ∈ S_r` is reconstructed and
/// `b′_ir = ⊕_{j∈S_r} (b_ijr mod 2)`. After `k` iterations the party feeds
/// `majority_r(b′_ir)` into one final binary BA and outputs its result.
///
/// * All parties that complete output the **same** bit (BA correctness) —
///   the *strong* part, impossible for weak coins.
/// * Each outcome has probability ≥ ½ − ε (Theorem 3.5): every `S_r`
///   contains a nonfaulty dealer whose hidden uniform bit makes the XOR
///   uniform, failures are bounded by the global `< n²` shun budget, and
///   `k` is large enough that the majority is robust to that many flipped
///   rounds.
/// * Almost-surely terminating: every sub-protocol is.
pub struct CoinFlip {
    params: CoinFlipParams,
    coin: CoinKind,
    k: usize,
    round: usize,
    /// Share bundles completed this round (dealer → the share phase's own
    /// output, handed on to the dealing's reconstruction).
    bundles: PartyMap<Arc<ShareBundle>>,
    cs: CommonSubset,
    subset: Option<Vec<PartyId>>,
    recs_spawned: PartySet,
    rec_values: PartyMap<Fp>,
    /// Per-round XOR results.
    round_bits: Vec<bool>,
    final_started: bool,
    done: bool,
}

impl CoinFlip {
    /// Creates the instance. `coin` selects the coin source of the
    /// *embedded* BA instances (the paper's construction is
    /// [`CoinKind::WeakShared`]; see DESIGN.md §1 for the ablation modes).
    pub fn new(params: CoinFlipParams, coin: CoinKind) -> Self {
        CoinFlip {
            params,
            coin,
            k: 0,
            round: 0,
            bundles: PartyMap::new(),
            cs: CommonSubset::new(0, 0, coin), // re-built per round
            subset: None,
            recs_spawned: PartySet::new(),
            rec_values: PartyMap::new(),
            round_bits: Vec::new(),
            final_started: false,
            done: false,
        }
    }

    fn idx(&self, n: usize, j: usize) -> u64 {
        (self.round * n + j) as u64
    }

    fn start_round(&mut self, ctx: &mut Context<'_>) {
        let (n, t) = (ctx.n(), ctx.t());
        let me = ctx.me();
        self.bundles.clear();
        self.subset = None;
        self.recs_spawned.clear();
        self.rec_values.clear();
        self.cs = CommonSubset::new(n - t, (self.round * n) as u64, self.coin);
        let my_bit: bool = ctx.rng().gen();
        for d in ctx.parties().collect::<Vec<_>>() {
            let inst: Box<dyn Instance> = if d == me {
                Box::new(SvssShare::dealer(me, Fp::from(my_bit)))
            } else {
                Box::new(SvssShare::party(d))
            };
            ctx.spawn(SessionTag::new(SHARE_TAG, self.idx(n, d.0)), inst);
        }
    }

    fn try_spawn_recs(&mut self, ctx: &mut Context<'_>) {
        let n = ctx.n();
        let Some(subset) = &self.subset else {
            return;
        };
        for &j in subset {
            if let Some(bundle) = self.bundles.get(j) {
                if self.recs_spawned.insert(j) {
                    ctx.spawn(
                        SessionTag::new(REC_TAG, self.idx(n, j.0)),
                        Box::new(SvssRec::new(Arc::clone(bundle))),
                    );
                }
            }
        }
    }

    fn try_finish_round(&mut self, ctx: &mut Context<'_>) {
        let Some(subset) = &self.subset else {
            return;
        };
        // b'_r = XOR over the subset of (value mod 2), once all are in.
        let Some(bit) = subset.iter().try_fold(false, |acc, &j| {
            Some(acc ^ (self.rec_values.get(j)?.value() & 1 == 1))
        }) else {
            return;
        };
        self.round_bits.push(bit);
        self.round += 1;
        if self.round < self.k {
            self.start_round(ctx);
        } else if !self.final_started {
            self.final_started = true;
            let ones = self.round_bits.iter().filter(|&&b| b).count();
            let majority = ones * 2 > self.k;
            ctx.spawn(
                SessionTag::new(FINAL_BA_TAG, 0),
                Box::new(BinaryBa::new(majority, self.coin.make(u64::MAX))),
            );
        }
    }
}

impl Instance for CoinFlip {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.k = self.params.iterations(ctx.n());
        self.bundles.reserve(ctx.n());
        self.rec_values.reserve(ctx.n());
        self.start_round(ctx);
    }

    fn on_message(&mut self, _from: PartyId, _payload: &Payload, _ctx: &mut Context<'_>) {
        // All communication happens inside child protocols.
    }

    fn on_child_output(&mut self, child: &SessionTag, output: &Payload, ctx: &mut Context<'_>) {
        let n = ctx.n();
        match child.kind {
            SHARE_TAG => {
                // Only current-round completions matter (older rounds are
                // finished; SVSS share instances of past rounds may
                // complete late and are ignored).
                let round = child.index as usize / n;
                let dealer = child.index as usize % n;
                if round != self.round {
                    return;
                }
                if let Some(bundle) = output.downcast_arc::<ShareBundle>() {
                    self.bundles.insert(PartyId(dealer), bundle);
                    // Q_ir(dealer) := 1
                    self.cs.set_predicate(dealer, ctx);
                    self.try_spawn_recs(ctx);
                }
            }
            REC_TAG => {
                let round = child.index as usize / n;
                let dealer = child.index as usize % n;
                if round != self.round {
                    return;
                }
                if let Some(v) = output.downcast_ref::<Fp>() {
                    self.rec_values.insert(PartyId(dealer), *v);
                    self.try_finish_round(ctx);
                }
            }
            FINAL_BA_TAG => {
                if self.done {
                    return;
                }
                if let Some(&value) = output.downcast_ref::<bool>() {
                    self.done = true;
                    let ones = self.round_bits.iter().filter(|&&b| b).count();
                    ctx.output(CoinFlipOutput {
                        value,
                        local_majority: ones * 2 > self.k,
                        iterations: self.k as u32,
                    });
                    // The final BA runs only once every round's subset was
                    // agreed, so every common-subset BA of every round is
                    // spawned already, and every later child output is of
                    // a past round: nothing is left to feed.
                    ctx.retire_unviewed(self);
                }
            }
            _ => {
                // CommonSubset BA children.
                if self.subset.is_none() {
                    if let Some(s) = self.cs.on_child_output(child, output, ctx) {
                        self.subset = Some(s);
                        self.try_spawn_recs(ctx);
                        self.try_finish_round(ctx);
                    }
                }
            }
        }
    }
}
