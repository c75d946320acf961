//! The byte boundary behind `rt=wire`: every envelope is serialized.
//!
//! An `rt=wire` [`SimNetwork`](crate::SimNetwork) is the same
//! deterministic scheduling machinery as `rt=sim`, but parties exchange
//! *bytes*, not values: every same-destination run of envelopes a party
//! emits goes through the network's [`WireLink`], where it is
//!
//! 1. **encoded as one batch** — the shared sender/receiver, then per
//!    envelope the session path and the payload's self-describing frame
//!    (`kind`, `len`, body), serialized little-endian through
//!    [`WireWriter::write_batch`];
//! 2. **handed over as bytes**: the receiving side gets a copy of exactly
//!    the encoded bytes, in a buffer of its own, and reads nothing else
//!    (instance state stays in-process so deployments remain
//!    `Box<dyn Instance>`-generic). The copy stays in memory — the real
//!    kernel round trip is the `aft-partyd` mesh's to prove, over TCP
//!    between processes ([`deploy`](crate::deploy));
//! 3. **re-framed** from the stream (outer length prefix — stream
//!    transports do not preserve message boundaries) and **decoded
//!    lazily**: each receiver gets a [`Payload`] wire frame *sliced*
//!    out of the received buffer (no per-frame copy) that only becomes a
//!    typed message when an instance [`view`](Payload::view)s it through
//!    its own kind-checked decoder.
//!
//! A run costs one buffer, sized to it and freed when its last frame is
//! dropped; the batch framing, a one-entry kind-name cache and
//! [`get_session`]'s decoded-path cache amortize the per-message registry
//! and interner lookups across runs.
//!
//! Because the schedule depends only on envelope *metadata* (never on
//! payload representation), a wire run is bit-for-bit identical to the
//! same seed's `sim` run whenever every Byzantine payload is well-formed
//! — and when it is not (the `garbage`/`equivocate` behaviours emit
//! genuinely malformed, truncated or kind-spoofed frames via
//! [`WireMessage::raw_frame`](crate::wire::WireMessage::raw_frame)),
//! honest decoders must reject the bytes without panicking, which the
//! conformance suite checks. Byte-level activity is visible in
//! [`Metrics`]: `wire_frames`, `wire_bytes`, `wire_malformed`.
//!
//! Build one with [`runtime_by_name`](crate::runtime_by_name)
//! (`"wire"`, `"wire:<scheduler>"`); the process-global codec registry
//! snapshot supplies kind names.

use crate::ids::{PartyId, SessionId};
use crate::node::Outgoing;
use crate::payload::{FrameBytes, Payload};
use crate::runtime::Metrics;
use crate::wire::{get_session, parse_frame, put_session, CodecRegistry, WireReader, WireWriter};
use std::sync::Arc;

/// The byte boundary [`SimNetwork`] routes sends through when it runs
/// in wire mode: the codec registry for kind-name resolution, the encode
/// buffer and a one-entry kind-name cache that amortizes the registry
/// map hit across a batch.
pub(crate) struct WireLink {
    registry: Arc<CodecRegistry>,
    /// Encode buffer, reused across runs; the receiving side never sees
    /// it, only an exact copy of its bytes.
    scratch: Vec<u8>,
    /// Last `(kind, name)` resolved — same-kind frames dominate a batch,
    /// so most lookups within a run hit this instead of the registry.
    kind_cache: Option<(u16, Option<&'static str>)>,
}

impl WireLink {
    pub(crate) fn new(registry: Arc<CodecRegistry>) -> Self {
        WireLink {
            registry,
            scratch: Vec::new(),
            kind_cache: None,
        }
    }

    /// Resolves `kind`'s diagnostic name through the one-entry cache,
    /// falling back to the registry's map on a kind change.
    fn kind_name_cached(&mut self, kind: u16) -> Option<&'static str> {
        match self.kind_cache {
            Some((k, name)) if k == kind => name,
            _ => {
                let name = self.registry.kind_name(kind);
                self.kind_cache = Some((kind, name));
                name
            }
        }
    }

    /// Serializes a run of same-destination outgoing envelopes as one
    /// framed batch, hands the receiving side a copy of exactly those
    /// bytes, and passes each `(to, session, payload)` reconstructed from
    /// the copy to `deliver` in order. The payloads are lazily decoded
    /// wire frames sliced straight out of the received buffer — no
    /// per-frame copy. Malformed payload frames (the byte-level
    /// adversary) survive as payloads no honest view will ever match —
    /// counted, never panicking.
    pub(crate) fn round_trip_run(
        &mut self,
        from: PartyId,
        run: &[Outgoing],
        metrics: &mut Metrics,
        mut deliver: impl FnMut(PartyId, SessionId, Payload),
    ) {
        let to = run[0].to;
        debug_assert!(run.iter().all(|o| o.to == to), "mixed-destination run");
        self.scratch.clear();
        // Outer transport frame: u32 length prefix (patched below), the
        // shared from/to, then the envelope batch (session + payload
        // frame per item).
        self.scratch.extend_from_slice(&[0; 4]);
        WireWriter::u32(&mut self.scratch, from.0 as u32);
        WireWriter::u32(&mut self.scratch, to.0 as u32);
        WireWriter::write_batch(&mut self.scratch, run.len(), |out, i| {
            put_session(out, &run[i].session);
            if !run[i].payload.encode_wire_frame(out) {
                // A payload without a wire identity (a plain
                // `Payload::new` value leaking onto the network) cannot
                // be serialized; emit an explicitly malformed frame so
                // the receiver drops it observably instead of the
                // runtime panicking.
                debug_assert!(false, "non-wire payload sent on the wire runtime");
                out.extend_from_slice(&u16::MAX.to_le_bytes());
            }
        });
        let total = (self.scratch.len() - 4) as u32;
        self.scratch[..4].copy_from_slice(&total.to_le_bytes());

        // The hand-over: everything below reads the received bytes only.
        // The buffer is sized to the run and freed with its last frame.
        let received = Arc::new(self.scratch.clone());
        metrics.wire_bytes += received.len() as u64;
        metrics.wire_frames += run.len() as u64;

        // Re-frame from the stream: outer length first, then the batch
        // the transport wrote (always well-formed — only the payload
        // frame regions are adversary-controlled).
        let base = received.as_ptr() as usize;
        let mut r = WireReader::new(&received);
        let declared = r.u32().expect("wire transport lost the length prefix") as usize;
        assert_eq!(
            declared + 4,
            received.len(),
            "wire transport desynchronized"
        );
        let decoded_from = PartyId(r.u32().expect("envelope sender") as usize);
        debug_assert_eq!(decoded_from, from, "sender survives the round trip");
        let to = PartyId(r.u32().expect("envelope receiver") as usize);
        let decoded = r.read_batch(|item| {
            let mut ir = WireReader::new(item);
            let Some(session) = get_session(&mut ir) else {
                // The transport wrote these bytes from a live id, so only
                // an id over the wire's session bounds lands here: it is
                // refused, as a peer's socket would refuse it.
                metrics.wire_malformed += 1;
                return;
            };
            let frame = ir.rest();
            let header = parse_frame(frame).map(|(kind, _)| (kind, self.kind_name_cached(kind)));
            if header.is_none() {
                metrics.wire_malformed += 1;
            }
            // Slice the frame out of the received buffer by offset — the
            // zero-copy handoff to the payload layer.
            let start = frame.as_ptr() as usize - base;
            let frame = FrameBytes::from_shared(&received, start, start + frame.len());
            deliver(to, session, Payload::from_parsed_wire(frame, header));
        });
        assert_eq!(
            decoded,
            Some(run.len() as u32),
            "wire transport lost part of the batch"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SessionTag;
    use crate::instance::{Context, Instance};
    use crate::network::SimNetwork;
    use crate::runtime::{runtime_by_name, NetConfig, RuntimeExt, StopReason};
    use crate::scheduler::RandomScheduler;

    fn sid() -> SessionId {
        SessionId::root().child(SessionTag::new("wirert", 0))
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
    fn wire_run_delivers_through_bytes() {
        let mut rt = SimNetwork::with_codec(
            NetConfig::new(4, 1, 5),
            Box::new(RandomScheduler),
            Arc::new(CodecRegistry::with_builtins()),
        );
        for p in 0..4 {
            rt.spawn(PartyId(p), sid(), Box::new(Pinger { heard: 0 }));
        }
        let report = rt.run(1_000_000);
        assert_eq!(report.stop, StopReason::Quiescent);
        for p in 0..4 {
            assert_eq!(rt.output_as::<usize>(PartyId(p), &sid()), Some(&3));
        }
        let m = rt.metrics();
        assert_eq!(m.wire_frames, m.sent, "every envelope crossed the wire");
        assert!(m.wire_bytes > 0);
        assert_eq!(m.wire_malformed, 0, "honest frames are well-formed");
        assert_eq!(m.sent, m.delivered + m.dropped_shunned + m.dropped_crashed);
    }

    /// One message per body, all to party 0, in session `session`.
    fn run_of(session: &SessionId, bodies: &[Vec<u8>]) -> Vec<Outgoing> {
        let outgoing = |body: &Vec<u8>| Outgoing {
            to: PartyId(0),
            session: session.clone(),
            payload: Payload::message(body.clone()),
        };
        bodies.iter().map(outgoing).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// One link carries runs of shrinking and growing variable-length
        /// bodies: every decoded body equals its input, so nothing of an
        /// earlier, longer run left in the encode buffer ever reaches a
        /// receiver.
        #[test]
        fn decoded_bodies_equal_the_inputs_across_shrinking_and_growing_runs(
            runs in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200),
                    1..6,
                ),
                2..8,
            ),
        ) {
            let session = SessionId::root().child(SessionTag::new("leak", 0));
            let mut link = WireLink::new(Arc::new(CodecRegistry::with_builtins()));
            let mut metrics = Metrics::default();
            for bodies in &runs {
                let mut decoded: Vec<Option<Vec<u8>>> = Vec::new();
                link.round_trip_run(PartyId(0), &run_of(&session, bodies), &mut metrics, |_, _, p| {
                    decoded.push(p.to_msg::<Vec<u8>>());
                });
                let expect: Vec<Option<Vec<u8>>> =
                    bodies.iter().map(|b| Some(b.clone())).collect();
                proptest::prop_assert_eq!(decoded, expect);
            }
            proptest::prop_assert_eq!(metrics.wire_malformed, 0);
        }
    }

    #[test]
    fn runs_of_five_kib_and_over_a_mib_round_trip_byte_exact() {
        let session = SessionId::root().child(SessionTag::new("big", 0));
        let pattern = |len: usize, salt: usize| -> Vec<u8> {
            (0..len).map(|i| (i * 31 + i / 251 + salt) as u8).collect()
        };
        // One body of 5 KiB; then 64 KiB bodies adding up to over 1 MiB,
        // followed by an empty and a one-byte one.
        let small = vec![pattern(5 * 1024, 1)];
        let mut large: Vec<Vec<u8>> = (0..17).map(|i| pattern(64 * 1024, i)).collect();
        large.extend([Vec::new(), vec![0xA5]]);
        let mut link = WireLink::new(Arc::new(CodecRegistry::with_builtins()));
        let mut metrics = Metrics::default();
        for bodies in [&large, &small, &large] {
            let before = metrics.wire_bytes;
            let mut decoded = Vec::new();
            link.round_trip_run(
                PartyId(0),
                &run_of(&session, bodies),
                &mut metrics,
                |_, _, p| {
                    decoded.push(p.to_msg::<Vec<u8>>().expect("well-formed frame"));
                },
            );
            assert!(decoded == *bodies, "bodies differ after the round trip");
            let carried: usize = bodies.iter().map(Vec::len).sum();
            assert!(metrics.wire_bytes - before > carried as u64);
        }
        assert!(metrics.wire_bytes > 2 * 1024 * 1024);
        assert_eq!(metrics.wire_malformed, 0);
    }

    #[test]
    fn an_id_over_the_session_bounds_is_refused_at_the_byte_boundary() {
        let kind: &'static str = Box::leak("k".repeat(crate::wire::MAX_KIND_LEN + 1).into());
        let outgoing = |session: SessionId| Outgoing {
            to: PartyId(1),
            session,
            payload: Payload::message(1u8),
        };
        let run = [
            outgoing(sid()),
            outgoing(SessionId::root().child(SessionTag::new(kind, 0))),
        ];
        let mut link = WireLink::new(Arc::new(CodecRegistry::with_builtins()));
        let mut metrics = Metrics::default();
        let mut arrived = Vec::new();
        link.round_trip_run(PartyId(0), &run, &mut metrics, |_, session, _| {
            arrived.push(session);
        });
        assert_eq!(arrived, [sid()]);
        assert_eq!(
            metrics.wire_malformed, 1,
            "counted like any malformed header"
        );
    }

    #[test]
    fn an_id_deeper_than_a_depth_byte_is_refused_not_wrapped() {
        // Depth 256 used to encode as depth 0 (the root) and depth 257 as
        // depth 1: different, valid sessions. All three must be refused.
        let deep = |depth: u64| (0..depth).map(|i| SessionTag::new("deep", i)).collect();
        let run: Vec<Outgoing> = [17, 256, 257, 1]
            .into_iter()
            .map(|depth| Outgoing {
                to: PartyId(1),
                session: SessionId::from_path(deep(depth)),
                payload: Payload::message(1u8),
            })
            .collect();
        let mut link = WireLink::new(Arc::new(CodecRegistry::with_builtins()));
        let mut metrics = Metrics::default();
        let mut arrived = Vec::new();
        link.round_trip_run(PartyId(0), &run, &mut metrics, |_, session, _| {
            arrived.push(session);
        });
        assert_eq!(arrived, [SessionId::from_path(deep(1))]);
        assert_eq!(metrics.wire_malformed, 3);
    }

    #[test]
    fn wire_matches_sim_bit_for_bit_on_honest_runs() {
        // Same seed, same scheduler family: the byte boundary must not
        // perturb the schedule or the outputs.
        for seed in [1u64, 9, 42] {
            let run = |name: &str| {
                let mut rt = runtime_by_name(name, NetConfig::new(4, 1, seed)).unwrap();
                for p in 0..4 {
                    rt.spawn(PartyId(p), sid(), Box::new(Pinger { heard: 0 }));
                }
                let report = rt.run(1_000_000);
                let outs: Vec<Option<usize>> = (0..4)
                    .map(|p| rt.output_as::<usize>(PartyId(p), &sid()).copied())
                    .collect();
                (
                    report.stop,
                    report.metrics.sent,
                    report.metrics.delivered,
                    outs,
                )
            };
            assert_eq!(run("sim"), run("wire"), "seed {seed}");
            assert_eq!(run("sim:lifo"), run("wire:lifo"), "seed {seed}");
        }
    }

    #[test]
    fn crash_before_run_retracts_on_the_wire_backend() {
        let mut rt = SimNetwork::with_codec(
            NetConfig::new(4, 1, 3),
            Box::new(RandomScheduler),
            Arc::new(CodecRegistry::with_builtins()),
        );
        for p in 0..4 {
            rt.spawn(PartyId(p), sid(), Box::new(Pinger { heard: 0 }));
        }
        rt.crash(PartyId(3));
        assert_eq!(rt.metrics().sent, 12, "P3's buffered sends retracted");
        let report = rt.run(1_000_000);
        assert_eq!(report.stop, StopReason::Quiescent);
        for p in 0..3 {
            assert_eq!(rt.output_as::<usize>(PartyId(p), &sid()), Some(&3));
        }
    }

    #[test]
    fn unregistered_kinds_still_deliver_with_fallback_name() {
        // An empty registry (no builtins): frames still round-trip and
        // decode lazily by type; only the diagnostic name degrades.
        let mut rt = SimNetwork::with_codec(
            NetConfig::new(4, 1, 5),
            Box::new(RandomScheduler),
            Arc::new(CodecRegistry::new()),
        );
        for p in 0..4 {
            rt.spawn(PartyId(p), sid(), Box::new(Pinger { heard: 0 }));
        }
        rt.run(1_000_000);
        for p in 0..4 {
            assert_eq!(rt.output_as::<usize>(PartyId(p), &sid()), Some(&3));
        }
    }
}
