//! The byte boundary behind `rt=wire`: every envelope is serialized.
//!
//! An `rt=wire` [`SimNetwork`](crate::SimNetwork) is the same
//! deterministic scheduling machinery as `rt=sim`, but parties exchange
//! *bytes*, not values: each party owns an OS socket pair (a `UnixStream`
//! loopback) inside the network's [`WireLink`], and every
//! same-destination run of envelopes it emits is
//!
//! 1. **encoded as one batch** — the shared sender/receiver, then per
//!    envelope the session path and the payload's self-describing frame
//!    (`kind`, `len`, body), serialized little-endian through
//!    [`WireWriter::write_batch`];
//! 2. **written** to the party's socket and **read back** through the
//!    kernel (the byte-stream seam a process-per-party deployment
//!    crosses; instance state stays in-process so deployments remain
//!    `Box<dyn Instance>`-generic) into a pooled, reusable read buffer;
//! 3. **re-framed** from the stream (outer length prefix — stream
//!    transports do not preserve message boundaries) and **decoded
//!    lazily**: each receiver gets a [`Payload`] wire frame *sliced*
//!    out of the shared read buffer (no per-frame copy) that only
//!    becomes a typed message when an instance [`view`](Payload::view)s
//!    it through its own kind-checked decoder.
//!
//! Steady-state delivery is allocation-free: read buffers recycle
//! through a pool once their frames are dropped ([`Metrics`]'s
//! `pool_reused`/`pool_alloc` counters prove the reuse), and the
//! batch framing plus a one-entry kind-name cache amortize the
//! per-message registry lookups across each run.
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
use std::collections::VecDeque;
use std::sync::Arc;

/// Transport chunk size: batches are written and read back through the
/// kernel socket in alternating chunks of at most this many bytes, so an
/// arbitrarily large envelope batch cannot deadlock the synchronous
/// write-then-read loopback. The chunk must stay below the smallest
/// default unix-socket buffer pair among supported platforms — macOS
/// defaults to ~8 KiB per direction (Linux ~208 KiB), so 4 KiB leaves
/// comfortable headroom everywhere.
const SOCKET_CHUNK: usize = 4 * 1024;

/// Read buffers kept for reuse per link. Buffers released while their
/// frames are still referenced by in-flight payloads age out of the pool
/// naturally (an acquire that finds them still shared skips them).
const READBACK_POOL_CAP: usize = 64;

/// How many pooled buffers one acquire inspects before giving up and
/// allocating — bounds the per-run scan when the whole pool is pinned by
/// in-flight payloads.
const READBACK_SCAN: usize = 4;

/// One party's byte transport: a connected OS socket pair on Unix, an
/// in-memory loopback elsewhere.
struct Pipe {
    #[cfg(unix)]
    tx: std::os::unix::net::UnixStream,
    #[cfg(unix)]
    rx: std::os::unix::net::UnixStream,
    #[cfg(not(unix))]
    buf: std::collections::VecDeque<u8>,
}

impl Pipe {
    fn new() -> Pipe {
        #[cfg(unix)]
        {
            let (tx, rx) = std::os::unix::net::UnixStream::pair()
                .expect("wire runtime: socketpair unavailable");
            Pipe { tx, rx }
        }
        #[cfg(not(unix))]
        {
            Pipe {
                buf: std::collections::VecDeque::new(),
            }
        }
    }

    /// Writes `bytes` and reads them back through the transport,
    /// alternating per [`SOCKET_CHUNK`]-sized chunk so batches of any
    /// size fit the kernel's socket buffers.
    fn round_trip(&mut self, bytes: &[u8], readback: &mut Vec<u8>) {
        readback.clear();
        #[cfg(unix)]
        {
            use std::io::{Read, Write};
            readback.resize(bytes.len(), 0);
            for (w, r) in bytes
                .chunks(SOCKET_CHUNK)
                .zip(readback.chunks_mut(SOCKET_CHUNK))
            {
                self.tx
                    .write_all(w)
                    .expect("wire runtime: socket write failed");
                self.rx
                    .read_exact(r)
                    .expect("wire runtime: socket read failed");
            }
        }
        #[cfg(not(unix))]
        {
            self.buf.extend(bytes);
            readback.extend(self.buf.drain(..));
        }
    }
}

/// The per-run byte boundary [`SimNetwork`] routes sends through when it
/// runs in wire mode: per-party pipes, the codec registry for kind-name
/// resolution, a pool of reusable read buffers and a one-entry kind-name
/// cache that amortizes the registry map hit across a batch.
pub(crate) struct WireLink {
    registry: Arc<CodecRegistry>,
    pipes: Vec<Pipe>,
    scratch: Vec<u8>,
    /// Recycled read buffers: a released buffer becomes reacquirable
    /// once every [`FrameBytes`] sliced from it has been dropped.
    pool: VecDeque<Arc<Vec<u8>>>,
    /// Last `(kind, name)` resolved — same-kind frames dominate a batch,
    /// so most lookups within a run hit this instead of the registry.
    kind_cache: Option<(u16, Option<&'static str>)>,
}

impl WireLink {
    pub(crate) fn new(n: usize, registry: Arc<CodecRegistry>) -> Self {
        WireLink {
            registry,
            pipes: (0..n).map(|_| Pipe::new()).collect(),
            scratch: Vec::new(),
            pool: VecDeque::new(),
            kind_cache: None,
        }
    }

    /// A cleared read buffer: recycled from the pool when one of the
    /// first [`READBACK_SCAN`] pooled buffers is no longer referenced by
    /// any in-flight frame, freshly allocated otherwise. Hits and misses
    /// land in the pool-stats metrics.
    fn acquire_buffer(&mut self, metrics: &mut Metrics) -> Arc<Vec<u8>> {
        for _ in 0..self.pool.len().min(READBACK_SCAN) {
            let mut buf = self.pool.pop_front().expect("len-bounded loop");
            match Arc::get_mut(&mut buf) {
                Some(v) => {
                    v.clear();
                    metrics.pool_reused += 1;
                    return buf;
                }
                // Still pinned by in-flight payloads: rotate to the back
                // and try an older (more likely free) buffer.
                None => self.pool.push_back(buf),
            }
        }
        metrics.pool_alloc += 1;
        Arc::new(Vec::new())
    }

    fn release_buffer(&mut self, buf: Arc<Vec<u8>>) {
        if self.pool.len() < READBACK_POOL_CAP {
            self.pool.push_back(buf);
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
    /// framed batch, round-trips the bytes through the sender's socket,
    /// and hands each reconstructed `(to, session, payload)` to
    /// `deliver` in order. The payloads are lazily decoded wire frames
    /// sliced straight out of the shared read buffer — no per-frame
    /// copy. Malformed payload frames (the byte-level adversary)
    /// survive as payloads no honest view will ever match — counted,
    /// never panicking.
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

        let mut readback = self.acquire_buffer(metrics);
        {
            let buf = Arc::get_mut(&mut readback).expect("buffer acquired unshared");
            self.pipes[from.0].round_trip(&self.scratch, buf);
        }
        metrics.wire_bytes += readback.len() as u64;
        metrics.wire_frames += run.len() as u64;

        // Re-frame from the stream: outer length first, then the batch
        // the transport wrote (always well-formed — only the payload
        // frame regions are adversary-controlled).
        let base = readback.as_ptr() as usize;
        let mut r = WireReader::new(&readback);
        let declared = r.u32().expect("wire transport lost the length prefix") as usize;
        assert_eq!(
            declared + 4,
            readback.len(),
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
            if parse_frame(frame).is_none() {
                metrics.wire_malformed += 1;
            }
            // Slice the frame out of the shared read buffer by offset —
            // the zero-copy handoff to the payload layer.
            let start = frame.as_ptr() as usize - base;
            let frame = FrameBytes::from_shared(&readback, start, start + frame.len());
            let payload = Payload::from_wire_named(frame, |kind| self.kind_name_cached(kind));
            deliver(to, session, payload);
        });
        assert_eq!(
            decoded,
            Some(run.len() as u32),
            "wire transport lost part of the batch"
        );
        self.release_buffer(readback);
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

    /// Chatters: every received ping is answered to its sender until a
    /// budget runs out — sustained bounded-depth traffic (the protocol
    /// steady state the read-buffer pool is sized for).
    struct Chatter {
        budget: usize,
    }
    impl Instance for Chatter {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send_all(1u8);
        }
        fn on_message(&mut self, from: PartyId, p: &Payload, ctx: &mut Context<'_>) {
            if p.to_msg::<u8>().is_some() && self.budget > 0 {
                self.budget -= 1;
                ctx.send(from, 1u8);
            }
        }
    }

    #[test]
    fn read_buffers_recycle_through_the_pool() {
        let mut rt = SimNetwork::with_codec(
            NetConfig::new(4, 1, 11),
            Box::new(RandomScheduler),
            Arc::new(CodecRegistry::with_builtins()),
        );
        let sid = SessionId::root().child(SessionTag::new("wirepool", 0));
        for p in 0..4 {
            rt.spawn(PartyId(p), sid.clone(), Box::new(Chatter { budget: 50 }));
        }
        let report = rt.run(1_000_000);
        assert_eq!(report.stop, StopReason::Quiescent);
        let m = report.metrics;
        assert!(
            m.pool_reused > 0,
            "sustained traffic must recycle read buffers (reused {}, alloc {})",
            m.pool_reused,
            m.pool_alloc
        );
        assert!(
            m.pool_reused > m.pool_alloc,
            "steady state should mostly hit the pool (reused {}, alloc {})",
            m.pool_reused,
            m.pool_alloc
        );
        assert_eq!(m.wire_malformed, 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// Differential no-leak property: a link whose read buffers
        /// recycle through the pool decodes every run identically to a
        /// fresh (never-pooled) link — so a reused buffer can never
        /// surface bytes from a prior message, across shrinking and
        /// growing variable-length bodies.
        #[test]
        fn recycled_read_buffers_never_leak_prior_bytes(
            runs in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200),
                    1..6,
                ),
                2..8,
            ),
        ) {
            let registry = Arc::new(CodecRegistry::with_builtins());
            let session = SessionId::root().child(SessionTag::new("leak", 0));
            let mut pooled = WireLink::new(1, Arc::clone(&registry));
            let mut metrics = Metrics::default();
            for bodies in &runs {
                let run: Vec<Outgoing> = bodies
                    .iter()
                    .map(|body| Outgoing {
                        to: PartyId(0),
                        session: session.clone(),
                        payload: Payload::message(body.clone()),
                    })
                    .collect();
                let mut decoded: Vec<Option<Vec<u8>>> = Vec::new();
                pooled.round_trip_run(PartyId(0), &run, &mut metrics, |_, _, p| {
                    decoded.push(p.to_msg::<Vec<u8>>());
                });
                let mut fresh = WireLink::new(1, Arc::clone(&registry));
                let mut fresh_metrics = Metrics::default();
                let mut reference: Vec<Option<Vec<u8>>> = Vec::new();
                fresh.round_trip_run(PartyId(0), &run, &mut fresh_metrics, |_, _, p| {
                    reference.push(p.to_msg::<Vec<u8>>());
                });
                proptest::prop_assert_eq!(&decoded, &reference);
                let expect: Vec<Option<Vec<u8>>> =
                    bodies.iter().map(|b| Some(b.clone())).collect();
                proptest::prop_assert_eq!(decoded, expect);
            }
            // Payloads are dropped inside the closure, so every run after
            // the first must find the previous buffer free.
            proptest::prop_assert!(metrics.pool_reused > 0);
        }
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
        let mut link = WireLink::new(2, Arc::new(CodecRegistry::with_builtins()));
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
