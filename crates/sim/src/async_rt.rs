//! The event-loop host behind `rt=async`: every party runs as a task on a
//! single-threaded executor.
//!
//! An `rt=async` [`SimNetwork`] keeps the *entire* deterministic
//! machinery — scheduler, pending slab, metrics, flight recorder,
//! crash/recovery plumbing, adaptive-adversary observation — and moves
//! only the node-side dispatch onto an event loop: for the duration of
//! every [`Runtime::run`] each party's [`Node`] lives inside a task
//! spawned on a `tokio` current-thread
//! [`LocalSet`](tokio::task::LocalSet), and every delivery round-trips
//! through that party's command/response channel pair. Outside of `run`
//! (spawns, crashes, output reads) the nodes live in the network, exactly
//! like `rt=sim`. Scheduling decisions never leave the network, so the
//! step sequence (and therefore every metric, trace and fingerprint) is
//! bit-for-bit identical to `rt=sim` under the same `(seed, scheduler)`.
//!
//! The executor is the offline API-compatible stand-in vendored at
//! `vendor/tokio`; swapping in real tokio is a one-line
//! `[workspace.dependencies]` change (see `vendor/README.md`).
//!
//! [`SimNetwork`]: crate::SimNetwork
//! [`Runtime::run`]: crate::Runtime::run

use crate::ids::{PartyId, SessionId};
use crate::instance::Instance;
use crate::network::Envelope;
use crate::node::{Node, Outgoing};
use crate::payload::Payload;
use crate::runtime::{deliver_raw, DeliveryOutcome};
use tokio::sync::mpsc::{unbounded_channel, UnboundedReceiver, UnboundedSender};

/// One request to a party task.
enum Cmd {
    /// Dispatch a message to the party's node.
    Deliver {
        /// Sending party.
        from: PartyId,
        /// Destination session.
        session: SessionId,
        /// Message body.
        payload: Payload,
    },
    /// Crash the node.
    Crash,
    /// Recovery phase 1: un-crash and retire the stale session slot.
    Revive(SessionId),
    /// Deploy an instance.
    Spawn(SessionId, Box<dyn Instance>),
    /// Hand the node back and terminate the task.
    Finish,
}

/// One party task's answer to a [`Cmd`].
enum Rsp {
    /// Outcome and emitted envelopes of a `Deliver`.
    Delivered(DeliveryOutcome, Vec<Outgoing>),
    /// `Crash` / `Revive` acknowledged.
    Done,
    /// Initial sends of a `Spawn`.
    Spawned(Vec<Outgoing>),
    /// The node, returned by `Finish`.
    Node(Box<Node>),
}

/// The event loop body of one party: receive commands, run them against
/// the owned [`Node`], answer on the response channel. Terminates when
/// told to [`Cmd::Finish`] (or when the command channel closes).
async fn party_loop(mut node: Node, mut rx: UnboundedReceiver<Cmd>, tx: UnboundedSender<Rsp>) {
    while let Some(cmd) = rx.recv().await {
        let rsp = match cmd {
            Cmd::Deliver {
                from,
                session,
                payload,
            } => {
                let mut out = Vec::new();
                let outcome = deliver_raw(&mut node, from, session, payload, &mut out);
                Rsp::Delivered(outcome, out)
            }
            Cmd::Crash => {
                node.crash();
                Rsp::Done
            }
            Cmd::Revive(session) => {
                node.recover();
                node.retire_session(&session);
                Rsp::Done
            }
            Cmd::Spawn(session, instance) => Rsp::Spawned(node.spawn(session, instance)),
            Cmd::Finish => {
                let _ = tx.send(Rsp::Node(Box::new(node)));
                return;
            }
        };
        if tx.send(rsp).is_err() {
            return; // host gone — run is over
        }
    }
}

/// Routes a network's node operations onto the event loop: one
/// command/response channel pair per party task.
pub(crate) struct EventLoopHost {
    rt: tokio::runtime::Runtime,
    local: tokio::task::LocalSet,
    cmds: Vec<UnboundedSender<Cmd>>,
    rsps: Vec<UnboundedReceiver<Rsp>>,
}

impl EventLoopHost {
    /// Moves `nodes` into one task each.
    pub(crate) fn new(nodes: Vec<Node>) -> Self {
        let rt = tokio::runtime::Builder::new_current_thread()
            .enable_all()
            .build()
            .expect("current-thread runtime");
        let local = tokio::task::LocalSet::new();
        let (mut cmds, mut rsps) = (Vec::new(), Vec::new());
        for node in nodes {
            let (cmd_tx, cmd_rx) = unbounded_channel();
            let (rsp_tx, rsp_rx) = unbounded_channel();
            local.spawn_local(party_loop(node, cmd_rx, rsp_tx));
            cmds.push(cmd_tx);
            rsps.push(rsp_rx);
        }
        EventLoopHost {
            rt,
            local,
            cmds,
            rsps,
        }
    }

    /// Sends `cmd` to party `p`'s task and drives the executor until
    /// the task answers.
    fn roundtrip(&mut self, p: usize, cmd: Cmd) -> Rsp {
        if self.cmds[p].send(cmd).is_err() {
            panic!("async backend: party {p} task terminated early");
        }
        self.local
            .block_on(&self.rt, self.rsps[p].recv())
            .expect("async backend: party task dropped its response channel")
    }

    /// Dispatches `env` to its destination party, returning the
    /// delivery's outcome and the envelopes it emitted.
    pub(crate) fn deliver(&mut self, env: Envelope) -> (DeliveryOutcome, Vec<Outgoing>) {
        let p = env.to.0;
        match self.roundtrip(
            p,
            Cmd::Deliver {
                from: env.from,
                session: env.session,
                payload: env.payload,
            },
        ) {
            Rsp::Delivered(outcome, out) => (outcome, out),
            _ => unreachable!("Deliver answered with a non-Delivered response"),
        }
    }

    /// Crashes `party`'s node.
    pub(crate) fn crash(&mut self, party: PartyId) {
        match self.roundtrip(party.0, Cmd::Crash) {
            Rsp::Done => {}
            _ => unreachable!("Crash answered with a non-Done response"),
        }
    }

    /// Recovery phase 1: un-crashes `party` and retires its stale
    /// `session` slot.
    pub(crate) fn revive(&mut self, party: PartyId, session: &SessionId) {
        match self.roundtrip(party.0, Cmd::Revive(session.clone())) {
            Rsp::Done => {}
            _ => unreachable!("Revive answered with a non-Done response"),
        }
    }

    /// Spawns `instance` on `party`, returning its initial sends.
    pub(crate) fn spawn(
        &mut self,
        party: PartyId,
        session: SessionId,
        instance: Box<dyn Instance>,
    ) -> Vec<Outgoing> {
        match self.roundtrip(party.0, Cmd::Spawn(session, instance)) {
            Rsp::Spawned(out) => out,
            _ => unreachable!("Spawn answered with a non-Spawned response"),
        }
    }

    /// Tears the host down and hands the nodes back, in party order.
    pub(crate) fn finish(mut self) -> Vec<Node> {
        let mut nodes = Vec::with_capacity(self.cmds.len());
        for p in 0..self.cmds.len() {
            match self.roundtrip(p, Cmd::Finish) {
                Rsp::Node(node) => nodes.push(*node),
                _ => unreachable!("Finish answered with a non-Node response"),
            }
        }
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SessionTag;
    use crate::instance::Context;
    use crate::runtime::{runtime_by_name, NetConfig, Runtime, StopReason};
    use crate::RuntimeExt;

    fn sid() -> SessionId {
        SessionId::root().child(SessionTag::new("t", 0))
    }

    /// Every party pings everyone once and outputs how many pings it
    /// heard.
    struct Ping {
        heard: usize,
    }

    impl Instance for Ping {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send_all(1u8);
        }
        fn on_message(&mut self, _from: PartyId, _p: &Payload, ctx: &mut Context<'_>) {
            self.heard += 1;
            if self.heard == ctx.n() {
                ctx.output(self.heard);
            }
        }
    }

    fn deploy(rt: &mut dyn Runtime) {
        for p in 0..rt.config().n {
            rt.spawn(PartyId(p), sid(), Box::new(Ping { heard: 0 }));
        }
    }

    #[test]
    fn async_backend_runs_to_quiescence() {
        let mut rt = runtime_by_name("async", NetConfig::new(4, 1, 7)).unwrap();
        deploy(rt.as_mut());
        let report = rt.run(1_000_000);
        assert_eq!(report.stop, StopReason::Quiescent);
        for p in 0..4 {
            assert_eq!(rt.output_as::<usize>(PartyId(p), &sid()), Some(&4), "{p}");
        }
    }

    #[test]
    fn async_matches_sim_bit_for_bit() {
        for sched in ["fifo", "lifo", "random", "window4", "net:lat=1..8"] {
            for seed in [1u64, 9, 42] {
                let mut reports = Vec::new();
                for backend in ["sim", "async"] {
                    let name = format!("{backend}:{sched}");
                    let mut rt = runtime_by_name(&name, NetConfig::new(4, 1, seed)).unwrap();
                    deploy(rt.as_mut());
                    let report = rt.run(1_000_000);
                    let m = Runtime::metrics(rt.as_ref());
                    reports.push((report.stop, m.steps, m.sent, m.delivered));
                }
                assert_eq!(reports[0], reports[1], "sched={sched} seed={seed}");
            }
        }
    }

    #[test]
    fn async_crash_and_recover_matches_sim() {
        // Crash before run retracts the party; schedule_recover brings it
        // back mid-episode under the virtual-time scheduler. The whole
        // crash/revive/respawn path must round-trip through the event
        // loop with the exact outcome of the inline sim dispatch.
        let mut results = Vec::new();
        for backend in ["sim", "async"] {
            let name = format!("{backend}:net:lat=1..4");
            let mut rt = runtime_by_name(&name, NetConfig::new(4, 1, 3)).unwrap();
            deploy(rt.as_mut());
            rt.crash(PartyId(3));
            assert!(rt.schedule_recover(PartyId(3), 50, sid(), Box::new(Ping { heard: 0 })));
            let report = rt.run(1_000_000);
            assert_eq!(report.stop, StopReason::Quiescent, "{backend}");
            let m = Runtime::metrics(rt.as_ref());
            let outputs: Vec<Option<usize>> = (0..4)
                .map(|p| rt.output_as::<usize>(PartyId(p), &sid()).copied())
                .collect();
            results.push((m.steps, m.sent, m.delivered, outputs));
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn async_multi_episode_nodes_persist() {
        // Nodes move out to tasks and back per run; a second episode sees
        // the same nodes (spawn of a fresh session works, outputs persist).
        let mut rt = runtime_by_name("async", NetConfig::new(4, 1, 11)).unwrap();
        deploy(rt.as_mut());
        rt.run(1_000_000);
        let sid2 = SessionId::root().child(SessionTag::new("t", 1));
        for p in 0..4 {
            rt.spawn(PartyId(p), sid2.clone(), Box::new(Ping { heard: 0 }));
        }
        let report = rt.run(1_000_000);
        assert_eq!(report.stop, StopReason::Quiescent);
        for p in 0..4 {
            assert_eq!(rt.output_as::<usize>(PartyId(p), &sid()), Some(&4));
            assert_eq!(rt.output_as::<usize>(PartyId(p), &sid2), Some(&4));
        }
    }
}
