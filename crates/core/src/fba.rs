//! `FBA` — the paper's Algorithm 3: multivalued Byzantine agreement with
//! **fair validity** (Theorem 4.5).

use crate::common_subset::CommonSubset;
use crate::config::CoinKind;
use crate::fair_choice::{FairChoice, FairChoiceParams};
use aft_broadcast::{Acast, Value};
use aft_sim::{Context, Instance, PartyId, PartyMap, Payload, SessionTag};
use std::collections::HashMap;

/// Session tag kinds of FBA children.
const INPUT_TAG: &str = "fba-in";
const CHOICE_TAG: &str = "fba-choice";

/// One party's Fair Byzantine Agreement instance (Algorithm 3), generic
/// over the input value type `V`.
///
/// 1. every party A-Casts its input; `Q(j)` = "`j`'s A-Cast delivered";
/// 2. `CommonSubset(Q, n−t)` agrees on a party set `S`;
/// 3. once every `j ∈ S`'s A-Cast delivered: if some value holds a strict
///    majority among `{x'_j : j ∈ S}`, output it;
/// 4. otherwise run `FairChoice(|S|)` and output the value of the chosen
///    party (`k`-th biggest id in `S`: `k = 0` is the biggest, as in the
///    paper's line 7).
///
/// Properties (Theorem 4.5, verified by tests/experiments):
/// * Termination — almost-sure, and all-or-nothing among honest parties;
/// * Validity — unanimous honest inputs are output directly (majority
///   branch), and otherwise the output is some *nonfaulty* party's input
///   with probability ≥ ½ (the fair-validity property this paper
///   introduces);
/// * Correctness — all honest outputs are equal.
pub struct Fba<V> {
    input: V,
    choice_params: FairChoiceParams,
    coin: CoinKind,
    /// Delivered inputs, by the party that A-Cast them.
    values: PartyMap<V>,
    cs: CommonSubset,
    subset: Option<Vec<PartyId>>,
    done: bool,
}

impl<V: Value> Fba<V> {
    /// Creates the instance with this party's `input`.
    pub fn new(input: V, choice_params: FairChoiceParams, coin: CoinKind) -> Self {
        Fba {
            input,
            choice_params,
            coin,
            values: PartyMap::new(),
            cs: CommonSubset::new(0, 0, coin), // k set in on_start
            subset: None,
            done: false,
        }
    }

    /// Step 4-5: once `S` and all its values are known, either output the
    /// strict-majority value or launch FairChoice.
    fn try_resolve(&mut self, ctx: &mut Context<'_>) {
        if self.done {
            return;
        }
        let Some(subset) = self.subset.clone() else {
            return;
        };
        let m = subset.len();
        // Strict majority among the subset's values (once all are in)?
        let mut counts: HashMap<&V, usize> = HashMap::new();
        for &j in &subset {
            let Some(value) = self.values.get(j) else {
                return;
            };
            *counts.entry(value).or_insert(0) += 1;
        }
        if let Some((&value, _)) = counts.iter().find(|&(_, &c)| 2 * c > m) {
            let value = value.clone();
            self.finish(value, ctx);
            return;
        }
        // FairChoice over the m members (spawned once; `done` is false and
        // the child spawn is idempotent by session id).
        ctx.spawn(
            SessionTag::new(CHOICE_TAG, 0),
            Box::new(FairChoice::new(m, self.choice_params, self.coin)),
        );
    }

    /// Outputs `value` and retires. The subset is agreed only once all
    /// `n` common-subset BAs output here, so each is spawned already: a
    /// late input A-Cast sets a predicate that starts nothing.
    fn finish(&mut self, value: V, ctx: &mut Context<'_>) {
        self.done = true;
        ctx.output(value);
        ctx.retire_unviewed(self);
    }
}

impl<V: Value> Instance for Fba<V> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let (n, t) = (ctx.n(), ctx.t());
        let me = ctx.me();
        self.cs = CommonSubset::new(n - t, 0, self.coin);
        for j in ctx.parties().collect::<Vec<_>>() {
            let inst: Box<dyn Instance> = if j == me {
                Box::new(Acast::sender(me, self.input.clone()))
            } else {
                Box::new(Acast::<V>::receiver(j))
            };
            ctx.spawn(SessionTag::new(INPUT_TAG, j.0 as u64), inst);
        }
    }

    fn on_message(&mut self, _from: PartyId, _payload: &Payload, _ctx: &mut Context<'_>) {}

    fn on_child_output(&mut self, child: &SessionTag, output: &Payload, ctx: &mut Context<'_>) {
        match child.kind {
            INPUT_TAG => {
                let j = child.index as usize;
                if let Some(v) = output.downcast_ref::<V>() {
                    self.values.insert(PartyId(j), v.clone());
                    // Q(j) := 1 — j's A-Cast completed.
                    self.cs.set_predicate(j, ctx);
                    self.try_resolve(ctx);
                }
            }
            CHOICE_TAG => {
                if self.done {
                    return;
                }
                let (Some(&k), Some(subset)) =
                    (output.downcast_ref::<usize>(), self.subset.as_ref())
                else {
                    return;
                };
                // k-th biggest id in S; 0 = biggest (paper line 7).
                let mut desc: Vec<PartyId> = subset.clone();
                desc.sort_by(|a, b| b.cmp(a));
                let j = desc[k];
                let value = self
                    .values
                    .get(j)
                    .expect("resolved before FairChoice")
                    .clone();
                self.finish(value, ctx);
            }
            _ => {
                if self.subset.is_none() {
                    if let Some(s) = self.cs.on_child_output(child, output, ctx) {
                        self.subset = Some(s);
                        self.try_resolve(ctx);
                    }
                }
            }
        }
    }
}
