//! The event-loop host behind `rt=async`: every party runs as a task on a
//! single-threaded executor.
//!
//! An `rt=async` [`SimNetwork`] keeps the *entire* deterministic
//! machinery — scheduler, in-flight queue, step clock, flight recorder,
//! crash/recovery plumbing, adaptive-adversary observation — and moves
//! only the parties onto an event loop: for the duration of every run each
//! party's [`PartyHost`] lives inside a task spawned on a `tokio`
//! current-thread [`LocalSet`](tokio::task::LocalSet), and every act at a
//! party — a delivery, a recovery's revival and respawn — round-trips
//! through that party's command/response channel pair. The task performs
//! a delivery or a spawn exactly as a party of `rt=sim` is performed
//! ([`perform`]) and answers with the party's numbered sends and the
//! events it recorded, which the network records and queues in that
//! order. Outside of a run (crashes, output reads, and the start of the
//! spawns a run begins with) the hosts live in the network, exactly like
//! `rt=sim`. Scheduling decisions never leave the network, so the step
//! sequence (and therefore every metric, trace and fingerprint) is
//! bit-for-bit identical to `rt=sim` under the same `(seed, scheduler)`.
//!
//! The executor is the offline API-compatible stand-in vendored at
//! `vendor/tokio`; swapping in real tokio is a one-line
//! `[workspace.dependencies]` change (see `vendor/README.md`).
//!
//! [`SimNetwork`]: crate::SimNetwork

use crate::ids::{PartyId, SessionId};
use crate::network::{perform, Act};
use crate::node::Outgoing;
use crate::runtime::PartyHost;
use crate::trace::{TraceEvent, TraceSink};
use tokio::sync::mpsc::{unbounded_channel, UnboundedReceiver, UnboundedSender};

/// One request to a party task.
enum Cmd {
    /// Perform an act, recording the party's events if the flag says
    /// anyone listens.
    Act(Act, bool),
    /// Recovery phase 1: un-crash and retire the stale session slot.
    Revive(SessionId),
    /// Hand the host back and terminate the task.
    Finish,
}

/// One party task's answer to a [`Cmd`].
enum Rsp {
    /// What an `Act` sent, numbered, and the events it recorded.
    Sent(Vec<(u64, Outgoing)>, Vec<TraceEvent>),
    /// `Revive` acknowledged.
    Done,
    /// The host, returned by `Finish`.
    Host(Box<PartyHost>),
}

/// The event loop body of one party: receive commands, run them against
/// the owned [`PartyHost`], answer on the response channel. Terminates
/// when told to [`Cmd::Finish`] (or when the command channel closes).
async fn party_loop(mut host: PartyHost, mut rx: UnboundedReceiver<Cmd>, tx: UnboundedSender<Rsp>) {
    let mut out = Vec::new();
    while let Some(cmd) = rx.recv().await {
        let rsp = match cmd {
            Cmd::Act(act, traced) => {
                let (mut sends, mut events) = (Vec::new(), Vec::new());
                let sink = traced.then_some(&mut events as &mut dyn TraceSink);
                perform(&mut host, act, &mut out, sink, |seq, o| {
                    sends.push((seq, o))
                });
                Rsp::Sent(sends, events)
            }
            Cmd::Revive(session) => {
                host.revive(&session);
                Rsp::Done
            }
            Cmd::Finish => {
                let _ = tx.send(Rsp::Host(Box::new(host)));
                return;
            }
        };
        if tx.send(rsp).is_err() {
            return; // network gone — run is over
        }
    }
}

/// Routes a network's acts at parties onto the event loop: one
/// command/response channel pair per party task.
pub(crate) struct EventLoop {
    rt: tokio::runtime::Runtime,
    local: tokio::task::LocalSet,
    cmds: Vec<UnboundedSender<Cmd>>,
    rsps: Vec<UnboundedReceiver<Rsp>>,
}

impl EventLoop {
    /// Moves `hosts` into one task each.
    pub(crate) fn new(hosts: Vec<PartyHost>) -> Self {
        let rt = tokio::runtime::Builder::new_current_thread()
            .enable_all()
            .build()
            .expect("current-thread runtime");
        let local = tokio::task::LocalSet::new();
        let (mut cmds, mut rsps) = (Vec::new(), Vec::new());
        for host in hosts {
            let (cmd_tx, cmd_rx) = unbounded_channel();
            let (rsp_tx, rsp_rx) = unbounded_channel();
            local.spawn_local(party_loop(host, cmd_rx, rsp_tx));
            cmds.push(cmd_tx);
            rsps.push(rsp_rx);
        }
        EventLoop {
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

    /// Performs `act` at `party`, returning what it sent, numbered, and —
    /// when `traced` — the events it recorded.
    pub(crate) fn perform(
        &mut self,
        party: PartyId,
        act: Act,
        traced: bool,
    ) -> (Vec<(u64, Outgoing)>, Vec<TraceEvent>) {
        match self.roundtrip(party.0, Cmd::Act(act, traced)) {
            Rsp::Sent(sends, events) => (sends, events),
            _ => unreachable!("Act answered with a non-Sent response"),
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

    /// Tears the loop down and hands the hosts back, in party order.
    pub(crate) fn finish(mut self) -> Vec<PartyHost> {
        (0..self.cmds.len())
            .map(|p| match self.roundtrip(p, Cmd::Finish) {
                Rsp::Host(host) => *host,
                _ => unreachable!("Finish answered with a non-Host response"),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SessionTag;
    use crate::instance::{Context, Instance};
    use crate::payload::Payload;
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
        // A crash before the run keeps the party from starting;
        // schedule_recover brings it back mid-episode under the
        // virtual-time scheduler. The revive/respawn path must round-trip
        // through the event loop with the exact outcome of the inline sim
        // dispatch.
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
