//! The common subset protocol — Algorithm 4 / Appendix C of the paper.

use crate::config::CoinKind;
use aft_ba::BinaryBa;
use aft_sim::{Context, PartyId, PartyMap, PartySet, Payload, SessionTag};

/// Session tag kind of the embedded per-party BA instances.
pub const CS_BA_TAG: &str = "cs-ba";

/// An embedded `CommonSubset(Q, k)` component (Definition 3.4).
///
/// `CommonSubset` agrees on a set `S ⊆ [n]`, `|S| ≥ k`, such that every
/// `j ∈ S` had its dynamic predicate `Q(j)` set by at least one nonfaulty
/// party. The paper's Algorithm 4 runs one binary BA per candidate party:
///
/// 1. when `Q(j)` flips to 1 and fewer than `k` BAs have output 1, join
///    `BA_j` with input 1;
/// 2. every `BA_j` that outputs 1 increments the counter;
/// 3. once the counter reaches `k`, join every remaining `BA_j` with
///    input 0;
/// 4. when all `n` BAs have output, output `S = {j : BA_j = 1}`.
///
/// The component is *embedded*: the owning protocol instance forwards
/// predicate flips via [`CommonSubset::set_predicate`] and BA child
/// outputs via [`CommonSubset::on_child_output`] (children are tagged
/// `(CS_BA_TAG, tag_base + j)` in the owner's session). This mirrors the
/// paper, where `Q_i` is local state of the calling protocol.
pub struct CommonSubset {
    k: usize,
    /// Base offset for child tags (lets one owner run several subsets).
    tag_base: u64,
    coin: CoinKind,
    predicate: PartySet,
    started: PartySet,
    outputs: PartyMap<bool>,
    ones: usize,
    /// Set once the count reached `k` and the zero-phase ran.
    zero_phase_done: bool,
    result: Option<Vec<PartyId>>,
}

impl CommonSubset {
    /// Creates a subset component requiring at least `k` members. BA
    /// children are tagged `(CS_BA_TAG, tag_base + j)` and flip `coin`
    /// coins.
    pub fn new(k: usize, tag_base: u64, coin: CoinKind) -> Self {
        CommonSubset {
            k,
            tag_base,
            coin,
            predicate: PartySet::new(),
            started: PartySet::new(),
            outputs: PartyMap::new(),
            ones: 0,
            zero_phase_done: false,
            result: None,
        }
    }

    /// The agreed subset, once all BAs terminated.
    pub fn result(&self) -> Option<&[PartyId]> {
        self.result.as_deref()
    }

    /// Owner callback: the dynamic predicate `Q(j)` became 1.
    ///
    /// Returns `true` if the call changed anything (idempotent otherwise).
    pub fn set_predicate(&mut self, j: usize, ctx: &mut Context<'_>) -> bool {
        if !self.predicate.insert(PartyId(j)) {
            return false;
        }
        if self.ones < self.k {
            self.start_ba(j, true, ctx);
        }
        true
    }

    /// Owner callback for child outputs. Returns `Some(S)` exactly once,
    /// when the subset is decided.
    ///
    /// Non-`CS_BA_TAG` children and foreign tag ranges are ignored, so the
    /// owner can forward everything it receives.
    pub fn on_child_output(
        &mut self,
        child: &SessionTag,
        output: &Payload,
        ctx: &mut Context<'_>,
    ) -> Option<Vec<PartyId>> {
        if child.kind != CS_BA_TAG || self.result.is_some() {
            return None;
        }
        let n = ctx.n();
        if child.index < self.tag_base || child.index >= self.tag_base + n as u64 {
            return None;
        }
        let j = (child.index - self.tag_base) as usize;
        let &b = output.downcast_ref::<bool>()?;
        if !self.outputs.insert(PartyId(j), b) {
            return None;
        }
        if b {
            self.ones += 1;
        }
        if self.ones >= self.k && !self.zero_phase_done {
            self.zero_phase_done = true;
            for m in 0..n {
                self.start_ba(m, false, ctx);
            }
        }
        if self.outputs.len() == n {
            let s: Vec<PartyId> = self
                .outputs
                .iter()
                .filter_map(|(j, &b)| b.then_some(j))
                .collect();
            self.result = Some(s.clone());
            return Some(s);
        }
        None
    }

    fn start_ba(&mut self, j: usize, input: bool, ctx: &mut Context<'_>) {
        if !self.started.insert(PartyId(j)) {
            return;
        }
        let idx = self.tag_base + j as u64;
        ctx.spawn(
            SessionTag::new(CS_BA_TAG, idx),
            Box::new(BinaryBa::new(input, self.coin.make(idx))),
        );
    }
}

/// A standalone instance wrapper around [`CommonSubset`] whose predicate
/// flips on plain `PredicateMsg(j)` network messages *from party `j`
/// itself* — used by tests and benchmarks to exercise Definition 3.4
/// directly ("`Q_i(j)` = party `j` announced itself to `i`").
pub struct CommonSubsetInstance {
    cs: CommonSubset,
    announce: bool,
}

/// Announcement message used by [`CommonSubsetInstance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredicateMsg;

impl aft_sim::WireMessage for PredicateMsg {
    const KIND: u16 = aft_sim::wire::KIND_CORE_BASE;
    const KIND_NAME: &'static str = "cs-predicate";
    const MAX_BODY_HINT: Option<usize> = Some(0);
    fn encode_body(&self, _out: &mut Vec<u8>) {}
    fn decode_body(bytes: &[u8]) -> Option<Self> {
        bytes.is_empty().then_some(PredicateMsg)
    }
}

impl CommonSubsetInstance {
    /// Creates the wrapper; if `announce` is true the party announces
    /// itself on start (setting everyone's `Q(me)`).
    pub fn new(k: usize, coin: CoinKind, announce: bool) -> Self {
        CommonSubsetInstance {
            cs: CommonSubset::new(k, 0, coin),
            announce,
        }
    }
}

impl aft_sim::Instance for CommonSubsetInstance {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.announce {
            ctx.send_all(PredicateMsg);
        }
    }

    fn on_message(&mut self, from: PartyId, payload: &Payload, ctx: &mut Context<'_>) {
        if payload.to_msg::<PredicateMsg>().is_some() {
            self.cs.set_predicate(from.0, ctx);
        }
    }

    fn on_child_output(&mut self, child: &SessionTag, output: &Payload, ctx: &mut Context<'_>) {
        if let Some(s) = self.cs.on_child_output(child, output, ctx) {
            ctx.output(s);
            // The subset is agreed only once all n BAs output here, so
            // each is spawned already: a late announcement starts nothing.
            ctx.retire::<PredicateMsg>(self);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_sim::{Context, Instance, NetConfig, PartyId, RandomScheduler, SessionId, SimNetwork};
    use aft_sim::{Runtime, RuntimeExt};

    /// Drives a CommonSubset component through its owner-facing API inside
    /// a real network (predicates all set at start).
    struct Harness {
        cs: CommonSubset,
    }
    impl Instance for Harness {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for j in 0..ctx.n() {
                self.cs.set_predicate(j, ctx);
            }
        }
        fn on_message(&mut self, _f: PartyId, _p: &aft_sim::Payload, _c: &mut Context<'_>) {}
        fn on_child_output(
            &mut self,
            child: &SessionTag,
            output: &aft_sim::Payload,
            ctx: &mut Context<'_>,
        ) {
            if let Some(s) = self.cs.on_child_output(child, output, ctx) {
                ctx.output(s);
            }
        }
    }

    fn sid() -> SessionId {
        SessionId::root().child(SessionTag::new("csu", 0))
    }

    #[test]
    fn component_with_all_predicates_outputs_full_set() {
        let (n, t) = (4usize, 1usize);
        let mut net = SimNetwork::new(NetConfig::new(n, t, 1), Box::new(RandomScheduler));
        for p in 0..n {
            net.spawn(
                PartyId(p),
                sid(),
                Box::new(Harness {
                    cs: CommonSubset::new(n - t, 0, CoinKind::Oracle(5)),
                }),
            );
        }
        net.run(100_000_000);
        for p in 0..n {
            let s = net
                .output_as::<Vec<PartyId>>(PartyId(p), &sid())
                .expect("component terminates");
            assert!(s.len() >= n - t);
        }
    }

    #[test]
    fn set_predicate_is_idempotent() {
        let mut net = SimNetwork::new(NetConfig::new(4, 1, 2), Box::new(RandomScheduler));
        struct Idem;
        impl Instance for Idem {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let mut cs = CommonSubset::new(3, 0, CoinKind::Oracle(1));
                assert!(cs.set_predicate(2, ctx));
                assert!(!cs.set_predicate(2, ctx), "second set is a no-op");
                assert!(cs.result().is_none());
                ctx.output(0u8);
            }
            fn on_message(&mut self, _f: PartyId, _p: &aft_sim::Payload, _c: &mut Context<'_>) {}
        }
        net.spawn(PartyId(0), sid(), Box::new(Idem));
        net.run(10_000);
        assert!(net.output(PartyId(0), &sid()).is_some());
    }

    #[test]
    fn foreign_child_tags_ignored() {
        let mut net = SimNetwork::new(NetConfig::new(4, 1, 3), Box::new(RandomScheduler));
        struct Foreign;
        impl Instance for Foreign {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let mut cs = CommonSubset::new(3, 100, CoinKind::Oracle(1));
                // Wrong kind.
                let out = cs.on_child_output(
                    &SessionTag::new("not-cs", 100),
                    &aft_sim::Payload::new(true),
                    ctx,
                );
                assert!(out.is_none());
                // Right kind, wrong index range (tag_base = 100, n = 4).
                let out = cs.on_child_output(
                    &SessionTag::new(CS_BA_TAG, 5),
                    &aft_sim::Payload::new(true),
                    ctx,
                );
                assert!(out.is_none());
                // Right range, wrong payload type.
                let out = cs.on_child_output(
                    &SessionTag::new(CS_BA_TAG, 101),
                    &aft_sim::Payload::new("junk"),
                    ctx,
                );
                assert!(out.is_none());
                ctx.output(1u8);
            }
            fn on_message(&mut self, _f: PartyId, _p: &aft_sim::Payload, _c: &mut Context<'_>) {}
        }
        net.spawn(PartyId(0), sid(), Box::new(Foreign));
        net.run(10_000);
        assert!(net.output(PartyId(0), &sid()).is_some());
    }
}
