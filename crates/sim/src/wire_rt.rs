//! The byte boundary behind `rt=wire`: every envelope is serialized.
//!
//! An `rt=wire` [`SimNetwork`](crate::SimNetwork) is the same
//! deterministic scheduling machinery as `rt=sim`, but parties exchange
//! *bytes*, not values: everything a party sends in one act — one
//! delivery or one spawn — goes through the network's [`WireLink`],
//! sorted by destination and numbered by the party's host before it gets
//! there, where it is
//!
//! 1. **encoded as link frames** — per envelope one
//!    `[len][from][session][payload frame]`, written by the
//!    [`LinkWriter`] of the link from the sender to the envelope's
//!    receiver: byte for byte what an `aft-partyd` link's writer puts on
//!    its socket for the same sends from the same table (the format is
//!    [`wire`](crate::wire)'s, §The envelope), so the act is, in
//!    destination order, what each receiver's link would carry;
//! 2. **handed over as bytes**: the receiving side gets a copy of exactly
//!    the encoded bytes, in a buffer of its own, and reads nothing else
//!    (instance state stays in-process so deployments remain
//!    `Box<dyn Instance>`-generic). The copy stays in memory — the real
//!    kernel round trip is the `aft-partyd` mesh's to prove, over TCP
//!    between processes ([`deploy`](crate::deploy));
//! 3. **read by the one reader**: the burst walker a socket's
//!    [`FrameReader`](crate::deploy::FrameReader) hands frames out with,
//!    then the link's [`LinkReader`] — owner check included — per frame.
//!    Each receiver gets a [`Payload`] wire frame *sliced* out of the
//!    received buffer (no per-frame copy) that only becomes a typed
//!    message when an instance [`view`](Payload::view)s it through its
//!    own kind-checked decoder. Destination and number travel by
//!    position: frame `i` of the act is its send `i`, and a refused
//!    frame leaves its number unused.
//!
//! Every ordered pair of parties is one link with its own writer and
//! reader, kept for the network's life (a recovered party keeps its
//! tables: the hand-over never loses a frame, so they stay in step). A
//! link's frames are decoded in the order they were written, at the
//! hand-over, so the reader's table follows the writer's exactly, and
//! most envelopes name their session by a two-byte ref. A define — the
//! first use of a session on a link, or its return after eviction from
//! its slots — names the deepest ancestor the table holds and carries
//! only the tags below it: no full path crosses a link but the root's
//! and those too deep to route.
//!
//! An act costs one buffer — one `Arc<[u8]>` allocation, sized to it and
//! freed when its last frame is dropped. Receivers sharing that buffer
//! still read exactly their own frames: a payload is a [`FrameBytes`]
//! range that starts behind its own envelope's routing header and ends
//! with its own frame, and nothing reads a byte outside it. Nothing is
//! looked up per frame for a kind's name.
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
//! (`"wire"`, `"wire:<scheduler>"`).
//!
//! [`FrameBytes`]: crate::FrameBytes

use crate::ids::{PartyId, SessionId};
use crate::node::Outgoing;
use crate::payload::{FrameBytes, Payload};
use crate::runtime::Metrics;
use crate::wire::{frame_with, Burst, LinkReader, LinkWriter};
use std::sync::Arc;

/// The byte boundary [`SimNetwork`] routes sends through when it runs
/// in wire mode: both ends of every link, with the hand-over in between.
/// An act — everything one party sends for one delivery or spawn,
/// destination-sorted — crosses as one burst of link frames.
///
/// [`SimNetwork`]: crate::SimNetwork
pub(crate) struct WireLink {
    /// The open act's link frames, back to back — what the sender's
    /// sockets would carry, one receiver after the other; reused across
    /// acts. The receiving side never sees it, only an exact copy of its
    /// bytes.
    scratch: Vec<u8>,
    /// Frame `i`'s receiver and the sender's number for it, at `i`.
    sends: Vec<(PartyId, u64)>,
    /// The open act's sender.
    from: PartyId,
    /// The link from `from` to `to` at `from · n + to`: its writer, and
    /// its reader, which reads every frame the writer wrote, in order.
    ends: Vec<(LinkWriter, LinkReader)>,
    n: usize,
    /// What crossed so far: frames, bytes, malformed arrivals.
    pub(crate) metrics: Metrics,
}

impl WireLink {
    /// The links among `n` parties, every table empty.
    pub(crate) fn new(n: usize) -> Self {
        let ends = (0..n * n)
            .map(|at| (LinkWriter::new(), LinkReader::new(PartyId(at / n))))
            .collect();
        WireLink {
            scratch: Vec::new(),
            sends: Vec::new(),
            from: PartyId(0),
            ends,
            n,
            metrics: Metrics::default(),
        }
    }

    /// Appends send number `seq` of `from` to the open act as a link
    /// frame, written by the writer of the link from `from` to `o.to`.
    /// Every send of an act is `from`'s.
    pub(crate) fn send(&mut self, from: PartyId, seq: u64, o: Outgoing) {
        debug_assert!(
            self.sends.is_empty() || self.from == from,
            "one act, one sender"
        );
        self.from = from;
        let (writer, _) = &mut self.ends[from.0 * self.n + o.to.0];
        frame_with(&mut self.scratch, |out| {
            // Without a wire identity the payload travels as a marker the
            // receiver drops observably, instead of the runtime panicking.
            let wire = writer.put_envelope(out, from, &o.session, &o.payload);
            debug_assert!(wire, "non-wire payload sent on the wire runtime");
        });
        self.sends.push((o.to, seq));
    }

    /// Hands the open act over: the receiving side gets a copy of exactly
    /// its bytes, in one buffer sized to the act and freed with its last
    /// frame, and passes each `(to, seq, session, payload)` [`receive_act`]
    /// reads from the copy — frame by frame with the reader of the link it
    /// was written for — to `deliver` in order, `to` and `seq` those of
    /// the frame's send.
    pub(crate) fn flush(&mut self, mut deliver: impl FnMut(PartyId, u64, SessionId, Payload)) {
        if self.sends.is_empty() {
            return;
        }
        let received = Arc::from(&self.scratch[..]);
        self.scratch.clear();
        self.metrics.wire_frames += self.sends.len() as u64;
        let WireLink {
            sends,
            from,
            ends,
            n,
            metrics,
            ..
        } = self;
        let at = from.0 * *n;
        receive_act(
            received,
            metrics,
            |i, envelope| ends[at + sends[i].0 .0].1.decode(envelope),
            |i, session, payload| {
                let (to, seq) = sends[i];
                deliver(to, seq, session, payload);
            },
        );
        self.sends.clear();
    }
}

/// The receiving ends of the links from one sender: walks the received
/// burst and has `read` decode each link frame as a socket's reader
/// does, owner check included, passing `deliver` the frame's position in
/// the burst with what it read. The payloads are lazily decoded wire
/// frames sliced straight out of the received buffer — no per-frame
/// copy. Malformed payload frames (the byte-level adversary) survive as
/// payloads no honest view will ever match — counted, never panicking;
/// an envelope whose routing header is refused, as a peer's socket would
/// refuse it, is counted and not delivered.
fn receive_act(
    received: Arc<[u8]>,
    metrics: &mut Metrics,
    mut read: impl FnMut(usize, FrameBytes) -> Option<(SessionId, Payload)>,
    mut deliver: impl FnMut(usize, SessionId, Payload),
) {
    metrics.wire_bytes += received.len() as u64;
    for (i, envelope) in Burst::new(received).enumerate() {
        let decoded = read(i, envelope);
        if !matches!(&decoded, Some((_, payload)) if payload.wire_kind().is_some()) {
            metrics.wire_malformed += 1;
        }
        if let Some((session, payload)) = decoded {
            deliver(i, session, payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SessionTag;
    use crate::instance::{Context, Instance};
    use crate::network::SimNetwork;
    use crate::payload::FrameBytes;
    use crate::runtime::{runtime_by_name, NetConfig, Runtime, RuntimeExt, StopReason};
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
        let mut rt =
            SimNetwork::with_codec(NetConfig::new(4, 1, 5), Box::new(RandomScheduler), "wire");
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

    /// Sends `run` over `link` as consecutive sends of `from`, numbered
    /// from 0, and hands it over as one act; passes `(seq, session,
    /// payload)` of each envelope that arrives to `deliver`.
    fn round_trip(
        link: &mut WireLink,
        from: PartyId,
        run: Vec<Outgoing>,
        mut deliver: impl FnMut(u64, SessionId, Payload),
    ) {
        for (seq, o) in (0..).zip(run) {
            link.send(from, seq, o);
        }
        link.flush(|_, seq, session, payload| deliver(seq, session, payload));
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
            let mut link = WireLink::new(1);
            for bodies in &runs {
                let mut decoded: Vec<Option<Vec<u8>>> = Vec::new();
                round_trip(&mut link, PartyId(0), run_of(&session, bodies), |_, _, p| {
                    decoded.push(p.to_msg::<Vec<u8>>());
                });
                let expect: Vec<Option<Vec<u8>>> =
                    bodies.iter().map(|b| Some(b.clone())).collect();
                proptest::prop_assert_eq!(decoded, expect);
            }
            proptest::prop_assert_eq!(link.metrics.wire_malformed, 0);
        }
    }

    /// Hands out its bytes in reads of at most `.1`.
    struct Chunked<'a>(&'a [u8], usize);
    impl std::io::Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.1).min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// One envelope on the wire: over several acts from fresh tables,
        /// the bytes `rt=wire` hands over for an act are, receiver by
        /// receiver in destination order, the bytes an `aft-partyd` link's
        /// writer puts on that receiver's socket for the same sends, and
        /// each socket's reader — whatever the reads it gets them in —
        /// yields the `(session, payload)` sequence the in-memory walk
        /// yields for that receiver.
        #[test]
        fn a_run_is_byte_for_byte_what_a_link_carries_and_reads_back_alike(
            // Per send: receiver byte, session byte, then the body.
            acts in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec(proptest::prelude::any::<u8>(), 2..80),
                    1..12,
                ),
                1..6,
            ),
        ) {
            use crate::deploy::{write_bursts, FrameReader};
            let from = PartyId(2);
            // The daemon's ends: one writer per peer link.
            let mut writers: Vec<LinkWriter> = (0..4).map(|_| LinkWriter::new()).collect();
            let mut on_sockets = vec![Vec::new(); 4];
            let mut link = WireLink::new(4);
            let mut in_memory = vec![Vec::new(); 4];
            let flat = |session: SessionId, payload: Payload| {
                let mut frame = Vec::new();
                assert!(payload.encode_wire_frame(&mut frame));
                (session, frame)
            };
            for sends in &acts {
                let mut act: Vec<Outgoing> = sends
                    .iter()
                    .map(|send| {
                        let (to, pick, body) = (send[0], u64::from(send[1]), &send[2..]);
                        Outgoing {
                            to: PartyId(usize::from(to % 4)),
                            // Half the sends in a few sessions, half spread
                            // over more than a table holds.
                            session: sid().child(SessionTag::new(
                                "stmt",
                                if pick % 2 == 0 { pick / 2 % 5 } else { pick / 2 },
                            )),
                            payload: match body.len() % 3 {
                                0 => Payload::message(body.len() as u64),
                                _ => Payload::message(body.to_vec()),
                            },
                        }
                    })
                    .collect();
                // As a party's host hands an act on: stably sorted by receiver.
                act.sort_by_key(|o| o.to.0);
                // The daemon's way, one link per receiver: encode each
                // envelope with that link's writer, queue it, let the
                // link's writer thread frame and write the burst.
                let mut carried = Vec::new();
                for (to, writer) in writers.iter_mut().enumerate() {
                    let (queue, queued) = std::sync::mpsc::channel::<Arc<[u8]>>();
                    for o in act.iter().filter(|o| o.to == PartyId(to)) {
                        let mut envelope = Vec::new();
                        assert!(writer.encode_envelope(from, &o.session, &o.payload, &mut envelope));
                        queue.send(envelope.into()).unwrap();
                    }
                    drop(queue);
                    let mut socket = Vec::new();
                    write_bursts(&queued, &mut socket).unwrap();
                    carried.extend_from_slice(&socket);
                    on_sockets[to].extend_from_slice(&socket);
                }
                for (seq, o) in (0..).zip(act.iter().cloned()) {
                    link.send(from, seq, o);
                }
                proptest::prop_assert_eq!(&link.scratch[..], &carried[..]);

                let mut arrived = Vec::new();
                link.flush(|to, seq, session, payload| {
                    arrived.push((to, seq));
                    in_memory[to.0].push(flat(session, payload));
                });
                let sent: Vec<(PartyId, u64)> =
                    (0..).zip(&act).map(|(seq, o)| (o.to, seq)).collect();
                proptest::prop_assert_eq!(arrived, sent);
            }
            proptest::prop_assert_eq!(link.metrics.wire_malformed, 0);
            for chunk in [1, 7, 8192] {
                for (to, socket) in on_sockets.iter().enumerate() {
                    let mut frames = FrameReader::new(Chunked(socket, chunk));
                    let mut reader = LinkReader::new(from);
                    let mut off_socket = Vec::new();
                    while let Some(frame) = frames.read_frame().unwrap() {
                        let (session, payload) = reader.decode(frame).expect("routable");
                        off_socket.push(flat(session, payload));
                    }
                    proptest::prop_assert_eq!(&off_socket, &in_memory[to], "reads of {}", chunk);
                }
            }
        }
    }

    #[test]
    fn a_link_and_the_hand_over_refuse_and_deliver_the_same_cut_envelopes() {
        let config = NetConfig::new(4, 1, 1);
        let mut whole = Vec::new();
        let ping = Payload::message(1u8);
        assert!(crate::encode_envelope(
            PartyId(1),
            &sid(),
            &ping,
            &mut whole
        ));
        let header = whole.len() - (crate::wire::FRAME_HEADER_LEN + 1);
        // What a payload without a wire identity travels as.
        let mut marked = Vec::new();
        assert!(!crate::wire::put_envelope(
            &mut marked,
            PartyId(1),
            &sid(),
            &Payload::new("an output")
        ));
        assert_eq!(marked[..header], whole[..header]);
        let cases = [
            (&whole[..2], false),          // cut inside `from`
            (&whole[..header - 3], false), // cut inside the session
            (&whole[..header], true),      // no payload bytes at all
            (&whole[..header + 2], true),
            (&whole[..header + 5], true),
            (&marked[..], true),
        ];
        for (bytes, routable) in cases {
            // As `aft-partyd` reads it off a link ...
            let on_link = LinkReader::new(PartyId(1)).decode(FrameBytes::from(bytes.to_vec()));
            assert_eq!(on_link.is_some(), routable, "{bytes:?}");
            // ... and as `rt=wire` reads it out of an act.
            let mut burst = Vec::new();
            crate::wire::write_frame(&mut burst, bytes);
            let mut metrics = Metrics::default();
            let mut handed_over = Vec::new();
            let mut reader = LinkReader::new(PartyId(1));
            receive_act(
                burst.into(),
                &mut metrics,
                |_, envelope| reader.decode(envelope),
                |_, s, p| handed_over.push((s, p)),
            );
            assert_eq!(handed_over.len(), routable as usize, "{bytes:?}");
            assert_eq!(
                metrics.wire_malformed, 1,
                "unroutable or malformed: counted"
            );
            // What is delivered is a payload no view matches: one decode
            // miss at the instance, nothing more.
            for (session, payload) in on_link.into_iter().chain(handed_over) {
                assert_eq!(session, sid());
                let (mut host, mut out) = (crate::PartyHost::new(&config, 0), Vec::new());
                host.spawn(sid(), Box::new(Pinger { heard: 0 }), &mut out);
                let env = crate::Envelope {
                    from: PartyId(1),
                    to: PartyId(0),
                    session,
                    payload,
                    seq: 0,
                    born_step: 0,
                };
                host.deliver(env, None, None, &mut out);
                let misses: Vec<_> = host.metrics().decode_misses().collect();
                assert_eq!(misses, [("wire:malformed", 1)], "{bytes:?}");
                assert_eq!(host.metrics().delivered, 1);
            }
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
        let mut link = WireLink::new(1);
        for bodies in [&large, &small, &large] {
            let before = link.metrics.wire_bytes;
            let mut decoded = Vec::new();
            round_trip(
                &mut link,
                PartyId(0),
                run_of(&session, bodies),
                |_, _, p| {
                    decoded.push(p.to_msg::<Vec<u8>>().expect("well-formed frame"));
                },
            );
            assert!(decoded == *bodies, "bodies differ after the round trip");
            let carried: usize = bodies.iter().map(Vec::len).sum();
            assert!(link.metrics.wire_bytes - before > carried as u64);
        }
        assert!(link.metrics.wire_bytes > 2 * 1024 * 1024);
        assert_eq!(link.metrics.wire_malformed, 0);
    }

    #[test]
    fn an_id_over_the_session_bounds_is_refused_at_the_byte_boundary() {
        let kind: &'static str = Box::leak("k".repeat(crate::wire::MAX_KIND_LEN + 1).into());
        let outgoing = |session: SessionId| Outgoing {
            to: PartyId(1),
            session,
            payload: Payload::message(1u8),
        };
        let run = vec![
            outgoing(SessionId::root().child(SessionTag::new(kind, 0))),
            outgoing(sid()),
        ];
        let mut link = WireLink::new(2);
        let mut arrived = Vec::new();
        round_trip(&mut link, PartyId(0), run, |seq, session, _| {
            arrived.push((seq, session));
        });
        assert_eq!(
            arrived,
            [(1, sid())],
            "the refused frame's number goes unused"
        );
        assert_eq!(
            link.metrics.wire_malformed, 1,
            "counted like any malformed header"
        );
    }

    #[test]
    fn one_act_is_one_buffer_and_arrives_as_one_hand_over_per_run_did() {
        let kind: &'static str = Box::leak("k".repeat(crate::wire::MAX_KIND_LEN + 1).into());
        let send = |to: usize, session: SessionId, ping: u8| Outgoing {
            to: PartyId(to),
            session,
            payload: Payload::message(ping),
        };
        // Three receivers, destination-sorted; the fourth frame's session
        // is refused at the routing header.
        let act = vec![
            send(1, sid(), 1),
            send(1, sid().child(SessionTag::new("sub", 1)), 2),
            send(2, sid(), 3),
            send(2, SessionId::root().child(SessionTag::new(kind, 0)), 4),
            send(2, sid(), 5),
            send(3, sid(), 6),
        ];
        let from = PartyId(0);
        // One hand-over per same-receiver run, as before acts were whole.
        let mut per_run = WireLink::new(4);
        let mut run_arrivals = Vec::new();
        let mut arrive = |to: PartyId, seq: u64, session: SessionId, _: Payload| {
            run_arrivals.push((to, seq, session));
        };
        for (seq, o) in (0..).zip(act.clone()) {
            if per_run.sends.last().is_some_and(|&(to, _)| to != o.to) {
                per_run.flush(&mut arrive);
            }
            per_run.send(from, seq, o);
        }
        per_run.flush(&mut arrive);

        let mut link = WireLink::new(4);
        let (mut arrivals, mut payloads) = (Vec::new(), Vec::new());
        for (seq, o) in (0..).zip(act) {
            link.send(from, seq, o);
        }
        link.flush(|to, seq, session, payload| {
            arrivals.push((to, seq, session));
            payloads.push(payload);
        });
        assert_eq!(arrivals, run_arrivals);
        let seqs: Vec<u64> = arrivals.iter().map(|&(_, seq, _)| seq).collect();
        assert_eq!(
            seqs,
            [0, 1, 2, 4, 5],
            "the refused frame's number goes unused"
        );
        let counts = |m: &Metrics| (m.wire_frames, m.wire_bytes, m.wire_malformed);
        assert_eq!(counts(&link.metrics), counts(&per_run.metrics));
        assert_eq!(counts(&link.metrics).0, 6);
        let frames: Vec<&FrameBytes> = payloads
            .iter()
            .map(|p| p.wire_frame().expect("received bytes"))
            .collect();
        assert!(
            frames.iter().all(|f| f.shares_buffer_with(frames[0])),
            "every receiver's payload is a range of the act's one buffer"
        );
    }

    #[test]
    fn an_id_deeper_than_a_depth_byte_is_refused_not_wrapped() {
        use crate::wire::{ROOT_ANCHOR, SESSION_DEFINE, SESSION_REF};
        // Depth 256 used to encode as depth 0 (the root) and depth 257 as
        // depth 1: different, valid sessions. A depth equal to a marker
        // would read as a define or a ref of what follows it: the first
        // kind's length, here 256 + s for the slot s the routable id sent
        // first has taken, then the kind, which starts with eleven zero
        // bytes. A ref names slot s; a define is anchored on slot s and
        // chains one tag (the length's second byte) into slot 0, of the
        // empty kind and index 0 — both routable. All must be refused.
        let routable = SessionId::from_path(vec![SessionTag::new("deep", 0)]);
        let mut define = Vec::new();
        let ping = Payload::message(1u8);
        assert!(LinkWriter::new().encode_envelope(PartyId(0), &routable, &ping, &mut define));
        assert_eq!(define[4..7], [SESSION_DEFINE, ROOT_ANCHOR, 1]);
        let filler = "d".repeat(256 - 11 + usize::from(define[7]));
        let kind: &'static str = Box::leak(("\0".repeat(11) + &filler).into());
        let deep = |depth: u64| (0..depth).map(|i| SessionTag::new(kind, i)).collect();
        let depths = [
            17,
            u64::from(SESSION_DEFINE),
            u64::from(SESSION_REF),
            256,
            257,
        ];
        let sessions = std::iter::once(routable.clone())
            .chain(depths.map(|depth| SessionId::from_path(deep(depth))))
            .chain([routable.clone()]);
        let run: Vec<Outgoing> = sessions
            .map(|session| Outgoing {
                to: PartyId(1),
                session,
                payload: Payload::message(1u8),
            })
            .collect();
        let mut link = WireLink::new(2);
        let mut arrived = Vec::new();
        round_trip(&mut link, PartyId(0), run, |seq, session, _| {
            arrived.push((seq, session));
        });
        assert_eq!(arrived, [(0, routable.clone()), (6, routable)]);
        assert_eq!(link.metrics.wire_malformed, depths.len() as u64);
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
    fn crash_before_run_keeps_the_party_from_starting_on_the_wire_backend() {
        let mut rt =
            SimNetwork::with_codec(NetConfig::new(4, 1, 3), Box::new(RandomScheduler), "wire");
        for p in 0..4 {
            rt.spawn(PartyId(p), sid(), Box::new(Pinger { heard: 0 }));
        }
        rt.crash(PartyId(3));
        let report = rt.run(1_000_000);
        assert_eq!(report.stop, StopReason::Quiescent);
        assert_eq!(report.metrics.sent, 12, "P3 never started");
        assert_eq!(report.metrics.wire_frames, 12);
        for p in 0..3 {
            assert_eq!(rt.output_as::<usize>(PartyId(p), &sid()), Some(&3));
        }
    }

    #[test]
    fn unregistered_kinds_still_deliver_with_fallback_name() {
        // A kind no registry lists: frames still round-trip and decode
        // lazily by type; only the diagnostic name degrades.
        #[derive(Clone)]
        struct Unlisted;
        impl crate::wire::WireMessage for Unlisted {
            const KIND: u16 = crate::wire::KIND_TEST_BASE + 0x40;
            const KIND_NAME: &'static str = "unlisted";
            fn encode_body(&self, _out: &mut Vec<u8>) {}
            fn decode_body(bytes: &[u8]) -> Option<Self> {
                bytes.is_empty().then_some(Unlisted)
            }
        }
        struct UnlistedPinger(Pinger);
        impl Instance for UnlistedPinger {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send_all(Unlisted);
            }
            fn on_message(&mut self, from: PartyId, p: &Payload, ctx: &mut Context<'_>) {
                if p.to_msg::<Unlisted>().is_some() {
                    assert_eq!(p.type_name(), "wire:unknown");
                    self.0.on_message(from, &Payload::message(1u8), ctx);
                }
            }
        }
        assert!(
            crate::wire::global_kind_name(<Unlisted as crate::wire::WireMessage>::KIND).is_none()
        );
        let mut rt =
            SimNetwork::with_codec(NetConfig::new(4, 1, 5), Box::new(RandomScheduler), "wire");
        for p in 0..4 {
            rt.spawn(
                PartyId(p),
                sid(),
                Box::new(UnlistedPinger(Pinger { heard: 0 })),
            );
        }
        rt.run(1_000_000);
        assert_eq!(rt.metrics().wire_malformed, 0, "unknown is not malformed");
        for p in 0..4 {
            assert_eq!(rt.output_as::<usize>(PartyId(p), &sid()), Some(&3));
        }
    }
}
