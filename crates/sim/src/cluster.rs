//! Super-party simulation — the paper's Appendix B technique, generic.
//!
//! The lower-bound extension to arbitrary `3t + 1 ≤ n ≤ 4t` works by
//! having four "super-parties" each *simulate* a bloc of the `n` parties:
//! messages between co-hosted parties are delivered internally, messages
//! across blocs are wrapped in super-party messages, and a super-party
//! adopts the output of the parties it simulates. [`Cluster`] implements
//! that simulation for any inner protocol built on [`Instance`]s, so an
//! `n_inner`-party protocol can run on an `n_outer < n_inner` system —
//! and, per Appendix B, any scheduling of the outer system corresponds to
//! a valid scheduling of the inner one.

use crate::ids::{PartyId, SessionId};
use crate::instance::{Context, Instance};
use crate::node::{Node, Outgoing};
use crate::payload::Payload;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::collections::HashMap;

/// Wire format between clusters: an inner envelope carried by the outer
/// network — `[to_inner: u32]`, then the one envelope every carrier
/// writes ([`wire`](crate::wire), §The envelope) with the inner sender as
/// its `from`.
#[derive(Debug, Clone)]
pub struct ClusterMsg {
    /// Inner sender id.
    pub from_inner: usize,
    /// Inner receiver id.
    pub to_inner: usize,
    /// Inner session.
    pub session: SessionId,
    /// Inner payload.
    pub payload: Payload,
}

impl crate::wire::WireMessage for ClusterMsg {
    const KIND: u16 = crate::wire::KIND_BEHAVIOR_BASE + 1;
    const KIND_NAME: &'static str = "cluster-msg";

    fn encode_body(&self, out: &mut Vec<u8>) {
        crate::wire::WireWriter::u32(out, self.to_inner as u32);
        // An inner payload without a wire identity travels as the
        // envelope writer's malformed marker: observably undecodable
        // rather than silently truncated.
        let from = PartyId(self.from_inner);
        crate::wire::put_envelope(out, from, &self.session, &self.payload);
    }

    fn decode_body(bytes: &[u8]) -> Option<Self> {
        let (to_inner, envelope) = bytes.split_first_chunk::<4>()?;
        // The inner payload decodes lazily when an instance views it.
        let (from, session, payload) = crate::wire::decode_envelope(envelope)?;
        Some(ClusterMsg {
            from_inner: from.0,
            to_inner: u32::from_le_bytes(*to_inner) as usize,
            session,
            payload,
        })
    }
}

/// Factory producing each hosted inner party's initial instances.
pub type InnerFactory = Box<dyn Fn(usize) -> Vec<(SessionId, Box<dyn Instance>)> + Send>;

/// One outer party hosting a bloc of inner parties (Appendix B's
/// "super-party").
///
/// * `assignment[i]` names the outer party hosting inner party `i`; all
///   outer parties must be constructed with the same assignment.
/// * `factory(i)` builds inner party `i`'s protocol instances (called only
///   for the locally-hosted parties).
/// * The cluster outputs `Vec<(inner_id, Payload)>` — the watched
///   session's outputs of all hosted inner parties — once every hosted
///   party has produced one (Appendix B's "outputs the value output by
///   most of the parties it simulates" is then a fold the caller applies).
pub struct Cluster {
    inner_n: usize,
    inner_t: usize,
    assignment: Vec<usize>,
    factory: InnerFactory,
    watched: SessionId,
    nodes: HashMap<usize, Node>,
    done: bool,
}

impl Cluster {
    /// Creates the cluster instance for whichever outer party it is
    /// spawned at.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len()` disagrees with `inner_n` (checked at
    /// start) via debug assertions during execution.
    pub fn new(
        inner_n: usize,
        inner_t: usize,
        assignment: Vec<usize>,
        watched: SessionId,
        factory: InnerFactory,
    ) -> Self {
        assert_eq!(assignment.len(), inner_n, "one host per inner party");
        Cluster {
            inner_n,
            inner_t,
            assignment,
            factory,
            watched,
            nodes: HashMap::new(),
            done: false,
        }
    }

    /// Routes a batch of inner outgoing envelopes, each tagged with its
    /// inner sender: local ones are delivered immediately (the simulating
    /// party "just delivers" them, per Appendix B), remote ones are
    /// wrapped onto the outer network.
    fn pump_from(&mut self, initial: Vec<(usize, Outgoing)>, ctx: &mut Context<'_>) {
        let me = ctx.me().0;
        let mut queue = initial;
        while let Some((from_inner, out)) = queue.pop() {
            let to_inner = out.to.0;
            if to_inner >= self.inner_n {
                continue;
            }
            let owner = self.assignment[to_inner];
            if owner == me {
                let node = self
                    .nodes
                    .get_mut(&to_inner)
                    .expect("hosted inner node exists");
                let mut outs = Vec::new();
                node.deliver(PartyId(from_inner), out.session, out.payload, &mut outs);
                queue.extend(outs.into_iter().map(|o| (to_inner, o)));
            } else {
                ctx.send(
                    PartyId(owner),
                    ClusterMsg {
                        from_inner,
                        to_inner,
                        session: out.session,
                        payload: out.payload,
                    },
                );
            }
        }
        self.try_output(ctx);
    }

    fn try_output(&mut self, ctx: &mut Context<'_>) {
        if self.done {
            return;
        }
        let all_done = self
            .nodes
            .values()
            .all(|n| n.output(&self.watched).is_some());
        if all_done && !self.nodes.is_empty() {
            self.done = true;
            let mut outs: Vec<(usize, Payload)> = self
                .nodes
                .iter()
                .map(|(&i, n)| (i, n.output(&self.watched).expect("checked").clone()))
                .collect();
            outs.sort_by_key(|(i, _)| *i);
            ctx.output(outs);
        }
    }
}

impl Instance for Cluster {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let me = ctx.me().0;
        let hosted: Vec<usize> = (0..self.inner_n)
            .filter(|&i| self.assignment[i] == me)
            .collect();
        let mut initial = Vec::new();
        for i in hosted {
            let seed: u64 = ctx.rng().gen();
            let node = Node::new(
                PartyId(i),
                self.inner_n,
                self.inner_t,
                ChaCha12Rng::seed_from_u64(seed),
            );
            self.nodes.insert(i, node);
            for (session, instance) in (self.factory)(i) {
                let node = self.nodes.get_mut(&i).expect("just inserted");
                let outs = node.spawn(session, instance);
                initial.extend(outs.into_iter().map(|o| (i, o)));
            }
        }
        self.pump_from(initial, ctx);
    }

    fn on_message(&mut self, _from: PartyId, payload: &Payload, ctx: &mut Context<'_>) {
        let Some(msg) = payload.view::<ClusterMsg>() else {
            return;
        };
        if msg.to_inner >= self.inner_n || self.assignment[msg.to_inner] != ctx.me().0 {
            return; // misrouted (Byzantine outer sender): drop
        }
        let node = self.nodes.get_mut(&msg.to_inner).expect("hosted");
        let mut outs = Vec::new();
        node.deliver(
            PartyId(msg.from_inner),
            msg.session.clone(),
            msg.payload.clone(),
            &mut outs,
        );
        let batch: Vec<(usize, Outgoing)> = outs.into_iter().map(|o| (msg.to_inner, o)).collect();
        self.pump_from(batch, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SessionTag;
    use crate::network::SimNetwork;
    use crate::runtime::{NetConfig, Runtime, RuntimeExt, StopReason};
    use crate::scheduler::RandomScheduler;

    fn watched() -> SessionId {
        SessionId::root().child(SessionTag::new("hello", 0))
    }

    /// Simple inner protocol: greet all, output after hearing n greetings.
    struct Hello {
        heard: usize,
    }
    impl Instance for Hello {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send_all(1u8);
        }
        fn on_message(&mut self, _f: PartyId, _p: &Payload, ctx: &mut Context<'_>) {
            self.heard += 1;
            if self.heard == ctx.n() {
                ctx.output(self.heard);
            }
        }
    }

    fn factory() -> InnerFactory {
        Box::new(|_inner| vec![(watched(), Box::new(Hello { heard: 0 }) as Box<dyn Instance>)])
    }

    #[test]
    fn eight_inner_parties_on_four_outer() {
        // Appendix B assignment: 4 super-parties, 2 inner parties each.
        let inner_n = 8;
        let assignment: Vec<usize> = (0..inner_n).map(|i| i / 2).collect();
        let mut net = SimNetwork::new(NetConfig::new(4, 1, 3), Box::new(RandomScheduler));
        let outer_sid = SessionId::root().child(SessionTag::new("cluster", 0));
        for outer in 0..4 {
            net.spawn(
                PartyId(outer),
                outer_sid.clone(),
                Box::new(Cluster::new(
                    inner_n,
                    2,
                    assignment.clone(),
                    watched(),
                    factory(),
                )),
            );
        }
        let report = net.run(10_000_000);
        assert_eq!(report.stop, StopReason::Quiescent);
        for outer in 0..4 {
            let out = net
                .output_as::<Vec<(usize, Payload)>>(PartyId(outer), &outer_sid)
                .unwrap_or_else(|| panic!("outer {outer} has no cluster output"));
            assert_eq!(out.len(), 2, "two hosted inner parties each");
            for (inner, payload) in out {
                assert_eq!(
                    payload.downcast_ref::<usize>(),
                    Some(&inner_n),
                    "inner {inner} must hear all {inner_n} greetings"
                );
            }
        }
    }

    #[test]
    fn uneven_blocs_work() {
        // 7 inner parties on 4 outer parties: blocs of sizes 2,2,2,1.
        let inner_n = 7;
        let assignment: Vec<usize> = (0..inner_n).map(|i| (i / 2).min(3)).collect();
        let mut net = SimNetwork::new(NetConfig::new(4, 1, 9), Box::new(RandomScheduler));
        let outer_sid = SessionId::root().child(SessionTag::new("cluster", 0));
        for outer in 0..4 {
            net.spawn(
                PartyId(outer),
                outer_sid.clone(),
                Box::new(Cluster::new(
                    inner_n,
                    2,
                    assignment.clone(),
                    watched(),
                    factory(),
                )),
            );
        }
        net.run(10_000_000);
        for outer in 0..4 {
            let out = net
                .output_as::<Vec<(usize, Payload)>>(PartyId(outer), &outer_sid)
                .expect("all clusters output");
            for (_, payload) in out {
                assert_eq!(payload.downcast_ref::<usize>(), Some(&inner_n));
            }
        }
    }

    #[test]
    #[should_panic(expected = "one host per inner party")]
    fn mismatched_assignment_rejected() {
        let _ = Cluster::new(5, 1, vec![0, 1], watched(), factory());
    }
}
