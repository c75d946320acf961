//! Generic Byzantine behaviours, usable against any protocol.
//!
//! Protocol-specific attacks (wrong shares, equivocating dealers, …) live
//! next to the protocols they attack; the behaviours here are
//! protocol-agnostic: silence, delayed crash, and garbage injection.

use crate::ids::PartyId;
use crate::instance::{Context, Instance};
use crate::mix;
use crate::payload::Payload;
use crate::wire::WireMessage;
use rand::Rng;

/// A party that never sends anything — the paper's recurring
/// "faulty and silent" adversary (e.g. party C in the Section 2 attacks).
#[derive(Debug, Default, Clone, Copy)]
pub struct SilentInstance;

impl Instance for SilentInstance {
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}
    fn on_message(&mut self, _from: PartyId, _payload: &Payload, _ctx: &mut Context<'_>) {}
}

/// Runs the honest `inner` instance but goes permanently silent after
/// `after` events (start + messages + child outputs combined) — a
/// mid-protocol crash confined to one session.
///
/// For whole-party crashes use [`Runtime::crash`] instead.
///
/// [`Runtime::crash`]: crate::Runtime::crash
pub struct MuteAfter {
    inner: Box<dyn Instance>,
    after: u64,
    seen: u64,
}

impl MuteAfter {
    /// Wraps `inner`, muting it after `after` events.
    pub fn new(inner: Box<dyn Instance>, after: u64) -> Self {
        MuteAfter {
            inner,
            after,
            seen: 0,
        }
    }

    fn alive(&mut self) -> bool {
        self.seen += 1;
        self.seen <= self.after
    }
}

impl Instance for MuteAfter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.alive() {
            self.inner.on_start(ctx);
        }
    }
    fn on_message(&mut self, from: PartyId, payload: &Payload, ctx: &mut Context<'_>) {
        if self.alive() {
            self.inner.on_message(from, payload, ctx);
        }
    }
    fn on_child_output(
        &mut self,
        child: &crate::SessionTag,
        output: &Payload,
        ctx: &mut Context<'_>,
    ) {
        if self.alive() {
            self.inner.on_child_output(child, output, ctx);
        }
    }
}

/// Junk payload type emitted by [`GarbageInstance`] and [`Equivocator`];
/// honest instances fail to view it and ignore it, exercising
/// type-confusion paths.
///
/// On the wire-serialized backend the junk becomes *bytes*: `Garbage`'s
/// [`raw_frame`](WireMessage::raw_frame) derives a deliberately malformed
/// frame from the junk value — pure noise, truncated bodies, kind-spoofed
/// headers, or oversized declared lengths — so byte-level adversaries are
/// exercised by the exact same scenarios that exercise in-memory type
/// confusion. Honest decoders must reject every variant without
/// panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Garbage(pub u64);

impl WireMessage for Garbage {
    const KIND: u16 = crate::wire::KIND_BEHAVIOR_BASE;
    const KIND_NAME: &'static str = "garbage";

    fn encode_body(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
    }

    fn decode_body(bytes: &[u8]) -> Option<Self> {
        Some(Garbage(u64::from_le_bytes(bytes.try_into().ok()?)))
    }

    fn raw_frame(&self) -> Option<Vec<u8>> {
        let x = self.0;
        let mut frame = Vec::new();
        match x % 4 {
            // Pure noise: usually not even a parseable header.
            0 => {
                let len = (mix(x) % 19) as usize;
                for i in 0..len {
                    frame.push((mix(x ^ i as u64) & 0xFF) as u8);
                }
            }
            // Truncated: honest-looking header, body shorter than the
            // declared length.
            1 => {
                frame.extend_from_slice(&Self::KIND.to_le_bytes());
                frame.extend_from_slice(&8u32.to_le_bytes());
                frame.extend_from_slice(&mix(x).to_le_bytes()[..3]);
            }
            // Kind-spoofed: a consistent frame claiming a (likely
            // registered) kind with a junk body of junk length — the
            // receiving decoder, not the framing layer, must reject it.
            2 => {
                let kind = (mix(x) % 0x90) as u16;
                let len = (mix(x ^ 0xF00D) % 13) as usize;
                frame.extend_from_slice(&kind.to_le_bytes());
                frame.extend_from_slice(&(len as u32).to_le_bytes());
                for i in 0..len {
                    frame.push((mix(x ^ (i as u64) << 8) & 0xFF) as u8);
                }
            }
            // Oversized declared length with a tiny actual body —
            // length-prefix sanity must hold even when the prefix lies.
            _ => {
                frame.extend_from_slice(&Self::KIND.to_le_bytes());
                frame.extend_from_slice(&u32::MAX.to_le_bytes());
                frame.extend_from_slice(&[0xAB, 0xCD]);
            }
        }
        Some(frame)
    }
}

/// A party that responds to every event by spraying meaningless payloads at
/// random parties — stress for routing, buffering and downcast handling.
#[derive(Debug, Default, Clone, Copy)]
pub struct GarbageInstance {
    sent: u64,
    /// Cap on total garbage messages (keeps runs quiescent).
    budget: u64,
}

impl GarbageInstance {
    /// Creates a garbage sprayer with a total message budget.
    pub fn new(budget: u64) -> Self {
        GarbageInstance { sent: 0, budget }
    }

    fn spray(&mut self, ctx: &mut Context<'_>) {
        if self.sent >= self.budget {
            return;
        }
        self.sent += 1;
        let n = ctx.n();
        let to = PartyId(ctx.rng().gen_range(0..n));
        let junk = Garbage(ctx.rng().gen());
        ctx.send(to, junk);
    }
}

impl Instance for GarbageInstance {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.spray(ctx);
    }
    fn on_message(&mut self, _from: PartyId, _payload: &Payload, ctx: &mut Context<'_>) {
        self.spray(ctx);
    }
}

/// A party that *equivocates*: on every event (up to a budget) it sends a
/// different [`Garbage`] value to every party, so no two receivers share a
/// view of what it said. The protocol-agnostic skeleton of every
/// split-the-honest-parties attack; honest instances fail the downcast
/// and ignore it, but routing, buffering and per-receiver state all see
/// genuinely conflicting traffic.
#[derive(Debug, Default, Clone, Copy)]
pub struct Equivocator {
    events: u64,
    /// Cap on equivocation events (keeps runs quiescent).
    budget: u64,
}

impl Equivocator {
    /// Creates an equivocator active for `budget` events.
    pub fn new(budget: u64) -> Self {
        Equivocator { events: 0, budget }
    }

    fn equivocate(&mut self, ctx: &mut Context<'_>) {
        if self.events >= self.budget {
            return;
        }
        self.events += 1;
        let base: u64 = ctx.rng().gen();
        for p in ctx.parties().collect::<Vec<_>>() {
            // Each receiver gets a distinct value derived from one draw.
            ctx.send(p, Garbage(base ^ (p.0 as u64).wrapping_mul(0x9E37)));
        }
    }
}

impl Instance for Equivocator {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.equivocate(ctx);
    }
    fn on_message(&mut self, _from: PartyId, _payload: &Payload, ctx: &mut Context<'_>) {
        self.equivocate(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{SessionId, SessionTag};
    use crate::network::SimNetwork;
    use crate::runtime::{NetConfig, Runtime, RuntimeExt, StopReason};
    use crate::scheduler::RandomScheduler;

    fn sid() -> SessionId {
        SessionId::root().child(SessionTag::new("b", 0))
    }

    /// Counts pings; outputs after 3.
    struct Pinger {
        heard: usize,
    }
    impl Instance for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send_all(1u8);
        }
        fn on_message(&mut self, _f: PartyId, p: &Payload, ctx: &mut Context<'_>) {
            if p.to_msg::<u8>().is_some() {
                self.heard += 1;
                if self.heard == 3 {
                    ctx.output(self.heard);
                }
            }
        }
    }

    #[test]
    fn silent_party_does_not_block_others() {
        let mut net = SimNetwork::new(NetConfig::new(4, 1, 5), Box::new(RandomScheduler));
        for p in 0..3 {
            net.spawn(PartyId(p), sid(), Box::new(Pinger { heard: 0 }));
        }
        net.spawn(PartyId(3), sid(), Box::new(SilentInstance));
        let r = net.run(100_000);
        assert_eq!(r.stop, StopReason::Quiescent);
        for p in 0..3 {
            assert_eq!(net.output_as::<usize>(PartyId(p), &sid()), Some(&3));
        }
        assert!(net.output(PartyId(3), &sid()).is_none());
    }

    #[test]
    fn garbage_is_ignored_by_honest_parties() {
        let mut net = SimNetwork::new(NetConfig::new(4, 1, 5), Box::new(RandomScheduler));
        for p in 0..3 {
            net.spawn(PartyId(p), sid(), Box::new(Pinger { heard: 0 }));
        }
        net.spawn(PartyId(3), sid(), Box::new(GarbageInstance::new(50)));
        let r = net.run(100_000);
        assert_eq!(r.stop, StopReason::Quiescent);
        for p in 0..3 {
            assert_eq!(net.output_as::<usize>(PartyId(p), &sid()), Some(&3));
        }
    }

    #[test]
    fn mute_after_silences_inner() {
        // MuteAfter(0) behaves like SilentInstance.
        let mut net = SimNetwork::new(NetConfig::new(4, 1, 5), Box::new(RandomScheduler));
        for p in 0..3 {
            net.spawn(PartyId(p), sid(), Box::new(Pinger { heard: 0 }));
        }
        net.spawn(
            PartyId(3),
            sid(),
            Box::new(MuteAfter::new(Box::new(Pinger { heard: 0 }), 0)),
        );
        net.run(100_000);
        assert!(net.output(PartyId(3), &sid()).is_none());

        // MuteAfter(large) behaves honestly.
        let mut net2 = SimNetwork::new(NetConfig::new(4, 1, 5), Box::new(RandomScheduler));
        for p in 0..3 {
            net2.spawn(PartyId(p), sid(), Box::new(Pinger { heard: 0 }));
        }
        net2.spawn(
            PartyId(3),
            sid(),
            Box::new(MuteAfter::new(Box::new(Pinger { heard: 0 }), 1_000)),
        );
        net2.run(100_000);
        assert_eq!(net2.output_as::<usize>(PartyId(3), &sid()), Some(&3));
    }

    // Cross-backend conformance of the generic behaviours: the same
    // deployment must quiesce and preserve honest outputs on every family
    // of the backend table alike.

    fn on_every_backend(seed: u64, byzantine: impl Fn() -> Box<dyn Instance>) {
        use crate::runtime::{runtime_by_name, RuntimeExt};
        for backend in crate::ALL_BACKENDS.iter().map(|f| f.example) {
            let mut rt = runtime_by_name(backend, NetConfig::new(4, 1, seed)).unwrap();
            for p in 0..3 {
                rt.spawn(PartyId(p), sid(), Box::new(Pinger { heard: 0 }));
            }
            rt.spawn(PartyId(3), sid(), byzantine());
            let r = rt.run(1_000_000);
            assert_eq!(r.stop, StopReason::Quiescent, "backend {backend}");
            let m = rt.metrics();
            assert_eq!(
                m.sent,
                m.delivered + m.dropped_shunned + m.dropped_crashed,
                "backend {backend}: conservation at quiescence"
            );
            for p in 0..3 {
                assert_eq!(
                    rt.output_as::<usize>(PartyId(p), &sid()),
                    Some(&3),
                    "backend {backend} party {p}: honest output survives the behaviour"
                );
            }
        }
    }

    #[test]
    fn mute_after_quiesces_on_every_backend() {
        // Mute after 2 events: the wrapped pinger broadcasts on start and
        // then dies mid-protocol on every backend.
        on_every_backend(41, || {
            Box::new(MuteAfter::new(Box::new(Pinger { heard: 0 }), 2))
        });
    }

    #[test]
    fn garbage_injection_quiesces_on_every_backend() {
        on_every_backend(43, || Box::new(GarbageInstance::new(64)));
    }

    #[test]
    fn equivocator_quiesces_on_every_backend() {
        on_every_backend(47, || Box::new(Equivocator::new(12)));
    }

    #[test]
    fn garbage_deliveries_are_observable_as_decode_misses() {
        // Satellite invariant: a type-confused delivery is not silently
        // dropped — it increments the per-kind miss counter. Where
        // envelopes cross the wire the junk arrives as malformed/spoofed
        // bytes, so the misses land under the wire diagnostic kinds instead.
        use crate::runtime::{runtime_by_name, RuntimeExt};
        let deterministic = crate::ALL_BACKENDS.iter().filter(|f| f.deterministic);
        for backend in deterministic.map(|f| f.example) {
            let mut rt = runtime_by_name(backend, NetConfig::new(4, 1, 43)).unwrap();
            for p in 0..3 {
                rt.spawn(PartyId(p), sid(), Box::new(Pinger { heard: 0 }));
            }
            rt.spawn(PartyId(3), sid(), Box::new(GarbageInstance::new(16)));
            rt.run_to_quiescence();
            let m = rt.metrics();
            let misses: u64 = m.decode_misses().map(|(_, c)| c).sum();
            assert!(misses > 0, "backend {backend}: no miss recorded: {m:?}");
            if m.wire_frames > 0 {
                assert!(
                    m.decode_miss_by_kind("wire:malformed")
                        + m.decode_miss_by_kind("wire:unknown")
                        + m.decode_miss_by_kind("garbage")
                        > 0,
                    "wire misses must carry wire kind names: {:?}",
                    m.decode_misses().collect::<Vec<_>>()
                );
                assert!(m.wire_malformed > 0, "byte-level junk must be seen");
            } else {
                assert!(
                    m.decode_miss_by_kind("garbage") > 0,
                    "sim misses carry the junk type's kind name"
                );
            }
        }
    }

    #[test]
    fn equivocator_sends_conflicting_values() {
        // Two receivers record what the equivocator told them; the values
        // must differ (that is the point of equivocation).
        struct Recorder {
            seen: Option<u64>,
        }
        impl Instance for Recorder {
            fn on_start(&mut self, _ctx: &mut Context<'_>) {}
            fn on_message(&mut self, _f: PartyId, p: &Payload, ctx: &mut Context<'_>) {
                if let Some(g) = p.to_msg::<Garbage>() {
                    if self.seen.is_none() {
                        self.seen = Some(g.0);
                        ctx.output(g.0);
                    }
                }
            }
        }
        let mut net = SimNetwork::new(NetConfig::new(4, 1, 5), Box::new(RandomScheduler));
        for p in 0..3 {
            net.spawn(PartyId(p), sid(), Box::new(Recorder { seen: None }));
        }
        net.spawn(PartyId(3), sid(), Box::new(Equivocator::new(1)));
        let r = net.run(100_000);
        assert_eq!(r.stop, StopReason::Quiescent);
        let views: Vec<u64> = (0..3)
            .map(|p| *net.output_as::<u64>(PartyId(p), &sid()).unwrap())
            .collect();
        assert!(
            views.windows(2).any(|w| w[0] != w[1]),
            "receivers must disagree about the equivocator's value: {views:?}"
        );
    }
}
