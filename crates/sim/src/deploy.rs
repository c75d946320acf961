//! Process-per-party deployment support.
//!
//! `aft-partyd` / `exp_deployment` (in `aft-bench`) are the real
//! one-OS-process-per-party deployment, asked for with `rt=proc`. Each
//! daemon drives its own [`PartyHost`](crate::PartyHost) — the node
//! [`party_node`] builds, with the metrics and send numbering every
//! in-process party has — and exchanges envelopes over sockets in the
//! workspace's one envelope format ([`wire`](crate::wire), §The
//! envelope): a link's [`LinkWriter`] writes them, its [`LinkReader`]
//! reads them, and the bytes on a link are what `rt=wire` hands over in
//! memory for the same sends from the same tables. (Built in-process
//! — [`runtime_by_name`]`("proc")` in an `exp_*` binary or a test —
//! `rt=proc` is a [`ThreadedRuntime`](crate::ThreadedRuntime) reporting
//! that name: [`Instance`](crate::Instance)s are trait objects and cannot
//! cross a process boundary, so one OS *thread* per party stands in.)
//!
//! [`runtime_by_name`]: crate::runtime_by_name
//!
//! # Peer links
//!
//! The socket side of the deployment lives here too, once: a
//! [`PeerLink`] is one TCP connection between two daemons, opened by a
//! 5-byte [`Hello`] from the dialing side and carrying envelopes as
//! `[len: u32][envelope]` link frames ([`write_frame`]; [`FrameReader`]
//! assembles bursts of whole ones, the wire module's burst walker hands
//! them out).
//!
//! * Both ends set `TCP_NODELAY`. Protocol traffic is hundreds of
//!   envelopes of a few dozen bytes, each one waited for by the peer's
//!   next step; with Nagle's algorithm on, every second small write sat
//!   in the kernel until the receiver's delayed ACK (40 ms on Linux)
//!   released it.
//! * The writer thread blocks for one envelope, drains whatever else is
//!   queued, and ships the burst with a single `write_all`, so an
//!   outbox replay after a restart costs a
//!   handful of syscalls, not two per envelope. A writer *thread* per
//!   link stays: a Byzantine peer that stops reading must stall its own
//!   link, never the owner's main loop.
//! * The reader pulls through [`FrameReader`]'s buffer — one `read`
//!   serves every frame it returned — and yields each envelope as a
//!   [`FrameBytes`] slice of the burst it arrived in, which
//!   [`LinkReader::decode`] turns into a payload without copying it
//!   again.
//! * An envelope's `from` must be the party the link belongs to:
//!   [`LinkReader::decode`] refuses anything else, so a Byzantine
//!   daemon can speak only for itself.
//! * Each connection has its own session tables, one per direction: the
//!   daemon holds the [`LinkWriter`] for what it sends and the
//!   [`LinkReader`] for what it receives, both born when the link comes
//!   up and dropped with it. A TCP connection is FIFO, so the reader's
//!   table follows the peer's writer exactly; frames of a replaced
//!   connection are dropped unread.
//! * The replay contract: a daemon keeps what it sent each peer as
//!   sessions and payloads, not bytes. When a restarted peer connects
//!   with the `recovered` hello flag, the new connection's writer
//!   re-encodes the whole outbox, ahead of new traffic, against the
//!   restarted peer's new, empty reader — bytes written for the old
//!   connection's tables would name slots the new reader never filled.

use crate::node::Node;
use crate::payload::FrameBytes;
use crate::runtime::{build_node, NetConfig};
use crate::wire::Burst;
pub use crate::wire::{write_frame, LinkReader, LinkWriter, MAX_FRAME};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Builds party `party`'s [`Node`] for a configured system — the same
/// constructor (and per-party RNG derivation) every in-process backend
/// uses, exported so an external per-party daemon starts from state
/// identical to its simulated twin.
pub fn party_node(config: &NetConfig, party: usize) -> Node {
    build_node(config, party)
}

/// Read-buffer size of a [`FrameReader`]: dozens of protocol envelopes
/// per `read`, small enough that a link costs its daemon next to nothing.
/// (A larger frame grows the buffer to its own size.)
const READ_BUF: usize = 8 << 10;

/// Most bytes a link's writer coalesces into one write, so that an
/// outbox replay of any length holds a bounded buffer.
const BURST_CAP: usize = 64 << 10;

/// How long an accepted connection may take to send its [`Hello`].
pub const HELLO_TIMEOUT: Duration = Duration::from_secs(2);

/// Drains `queue` into `w` until every sender is gone: blocks for one
/// envelope, takes whatever else is already queued (up to
/// [`BURST_CAP`] bytes), and writes the whole burst — each envelope
/// framed by [`write_frame`] — with a single `write_all`.
pub(crate) fn write_bursts(queue: &Receiver<Arc<[u8]>>, w: &mut impl Write) -> io::Result<()> {
    let mut burst = Vec::new();
    while let Ok(first) = queue.recv() {
        burst.clear();
        write_frame(&mut burst, &first);
        while burst.len() < BURST_CAP {
            match queue.try_recv() {
                Ok(next) => write_frame(&mut burst, &next),
                Err(_) => break,
            }
        }
        w.write_all(&burst)?;
    }
    Ok(())
}

/// Reads [`write_frame`] frames, many per `read`.
///
/// The socket is read into a private buffer; the whole frames a read
/// completed are then copied, together, into one shared `Arc<[u8]>` of
/// exactly their size — a burst — and each is returned as a
/// [`FrameBytes`] range of it by the walker `rt=wire` reads its acts
/// with. So a burst of `k` envelopes costs one `read`, one copy and one
/// allocation, and an envelope a protocol holds on to keeps alive the
/// burst it arrived in, not a read buffer.
pub struct FrameReader<R> {
    inner: R,
    /// Bytes received and not yet moved out live in `buf[start..end]`.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Whole, length-checked frames, handed out one by one.
    burst: Burst,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner`; nothing is read until the first
    /// [`read_frame`](FrameReader::read_frame).
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            buf: Vec::new(),
            start: 0,
            end: 0,
            burst: Burst::new(Arc::default()),
        }
    }

    /// The next frame. `Ok(None)` is a clean EOF at a frame boundary; an
    /// EOF inside a frame and a length above [`MAX_FRAME`] are errors.
    pub fn read_frame(&mut self) -> io::Result<Option<FrameBytes>> {
        loop {
            if let Some(frame) = self.burst.next() {
                return Ok(Some(frame));
            }
            // Measure the whole frames received; `need` is the size of
            // the first one that is not whole yet.
            let have = &self.buf[self.start..self.end];
            let mut whole = 0;
            let mut need = 4;
            while let Some(prefix) = have[whole..].first_chunk::<4>() {
                let len = u32::from_le_bytes(*prefix) as usize;
                if len > MAX_FRAME {
                    if whole > 0 {
                        break; // hand out the frames before it first
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
                    ));
                }
                if have.len() - whole < 4 + len {
                    need = 4 + len;
                    break;
                }
                whole += 4 + len;
            }
            if whole > 0 {
                self.burst = Burst::new(Arc::from(&have[..whole]));
                self.start += whole;
            } else if self.fill(need)? == 0 {
                return if self.start == self.end {
                    Ok(None)
                } else {
                    Err(io::ErrorKind::UnexpectedEof.into())
                };
            }
        }
    }

    /// Reads once into the room behind the received bytes, after moving
    /// them to the front and making room for a frame of `need` bytes.
    fn fill(&mut self, need: usize) -> io::Result<usize> {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        let size = need.max(READ_BUF);
        if self.buf.len() < size {
            self.buf.resize(size, 0);
        }
        loop {
            match self.inner.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// What the dialing side of a peer link says first: who it is, and
/// whether it is a restarted daemon whose peer should replace its old
/// link and replay its outbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The dialing party.
    pub party: usize,
    /// Set by a daemon respawned after a kill.
    pub recovered: bool,
}

impl Hello {
    /// Encoded size: `u32` little-endian party id, one flag byte.
    pub const LEN: usize = 5;

    /// The bytes the dialing side sends.
    pub fn to_bytes(&self) -> [u8; Hello::LEN] {
        let [a, b, c, d] = (self.party as u32).to_le_bytes();
        [a, b, c, d, self.recovered as u8]
    }

    /// Inverse of [`to_bytes`](Hello::to_bytes). The party id is taken
    /// as sent: range-check it against `n` before indexing with it.
    pub fn from_bytes(bytes: [u8; Hello::LEN]) -> Hello {
        let [a, b, c, d, flag] = bytes;
        Hello {
            party: u32::from_le_bytes([a, b, c, d]) as usize,
            recovered: flag != 0,
        }
    }
}

/// What a link reports to its owner, in this order: one
/// [`Up`](LinkEvent::Up), any number of [`Frame`](LinkEvent::Frame)s,
/// one [`Down`](LinkEvent::Down) — or a lone
/// [`NoHello`](LinkEvent::NoHello).
pub enum LinkEvent {
    /// The link is established; `link` is its sending half.
    Up {
        /// The party at the other end: the one dialed, or the one the
        /// accepted connection's [`Hello`] names (not yet range-checked).
        peer: usize,
        /// The peer announced itself as restarted.
        recovered: bool,
        /// Handle for sending envelopes to the peer.
        link: PeerLink,
    },
    /// One envelope from the peer, still undecoded.
    Frame(FrameBytes),
    /// The connection ended (EOF, I/O error, or a malformed frame).
    Down,
    /// An accepted connection sent no complete [`Hello`] within
    /// [`HELLO_TIMEOUT`] and was dropped.
    NoHello(io::Error),
}

/// The sending half of one peer link; dropping it closes the link.
pub struct PeerLink {
    queue: Sender<Arc<[u8]>>,
}

impl PeerLink {
    /// Connects to `addr`, introduces this side as `me`, and starts the
    /// link to party `peer`. Events go to `events`, called on the link's
    /// reader thread until it returns `false` (the owner is gone).
    pub fn dial(
        addr: &str,
        me: Hello,
        peer: usize,
        events: impl FnMut(LinkEvent) -> bool + Send + 'static,
    ) -> io::Result<()> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(&me.to_bytes())?;
        PeerLink::start(stream, Some(peer), events)
    }

    /// Starts the link on an accepted connection. The peer's [`Hello`]
    /// is read on the link's own thread, so a connection that says
    /// nothing holds up no other link.
    pub fn accept(
        stream: TcpStream,
        events: impl FnMut(LinkEvent) -> bool + Send + 'static,
    ) -> io::Result<()> {
        stream.set_nodelay(true)?;
        PeerLink::start(stream, None, events)
    }

    /// Queues one envelope for the peer. Never blocks; an envelope
    /// queued on a dead link is dropped with it.
    pub fn send(&self, envelope: Arc<[u8]>) {
        let _ = self.queue.send(envelope);
    }

    /// Spawns the link's two threads. They are detached on purpose: the
    /// writer may sit in `write_all` for as long as a peer refuses to
    /// read, and nobody may wait for that. The writer ends when the
    /// [`PeerLink`] is dropped or a write fails and shuts the socket
    /// down, which ends the reader.
    fn start(
        mut stream: TcpStream,
        dialed: Option<usize>,
        mut events: impl FnMut(LinkEvent) -> bool + Send + 'static,
    ) -> io::Result<()> {
        let mut writer = stream.try_clone()?;
        let (queue, queued) = channel();
        std::thread::spawn(move || {
            let _ = write_bursts(&queued, &mut writer);
            let _ = writer.shutdown(Shutdown::Both);
        });
        let link = PeerLink { queue };
        std::thread::spawn(move || {
            let (peer, recovered) = match dialed {
                Some(peer) => (peer, false),
                None => match read_hello(&mut stream) {
                    Ok(hello) => (hello.party, hello.recovered),
                    Err(e) => {
                        events(LinkEvent::NoHello(e));
                        return;
                    }
                },
            };
            if !events(LinkEvent::Up {
                peer,
                recovered,
                link,
            }) {
                return;
            }
            let mut frames = FrameReader::new(stream);
            while let Ok(Some(frame)) = frames.read_frame() {
                if !events(LinkEvent::Frame(frame)) {
                    return;
                }
            }
            events(LinkEvent::Down);
        });
        Ok(())
    }
}

fn read_hello(stream: &mut TcpStream) -> io::Result<Hello> {
    stream.set_read_timeout(Some(HELLO_TIMEOUT))?;
    let mut bytes = [0; Hello::LEN];
    stream.read_exact(&mut bytes)?;
    stream.set_read_timeout(None)?;
    Ok(Hello::from_bytes(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{PartyId, SessionId, SessionTag};
    use crate::payload::Payload;
    use crate::wire::{decode_envelope, encode_envelope, parse_frame, WireWriter};

    fn sid() -> SessionId {
        SessionId::root().child(SessionTag::new("dep", 0))
    }

    #[test]
    fn envelope_round_trips() {
        let session = sid().child(SessionTag::new("inner", 3));
        let payload = Payload::message(0xA5u8);
        let mut buf = Vec::new();
        assert!(encode_envelope(PartyId(2), &session, &payload, &mut buf));
        let (from, got_session, got) = decode_envelope(&buf).expect("well-formed");
        assert_eq!(from, PartyId(2));
        assert_eq!(got_session, session);
        assert_eq!(got.to_msg::<u8>(), Some(0xA5));
    }

    #[test]
    fn envelope_rejects_outputs_and_truncation() {
        let payload = Payload::new("not a wire message".to_string());
        let mut buf = Vec::new();
        assert!(
            !encode_envelope(PartyId(0), &sid(), &payload, &mut buf),
            "typed outputs have no wire identity"
        );
        assert!(buf.is_empty(), "failed encode leaves the buffer untouched");

        // Truncation is refused where it makes the envelope unroutable —
        // inside `from` or the session — and nowhere else: what is left
        // of a cut payload frame is delivered for the instance to miss,
        // on a link as on every other carrier.
        let mut ok = Vec::new();
        let payload = Payload::message(true);
        assert!(encode_envelope(PartyId(1), &sid(), &payload, &mut ok));
        let mut frame = Vec::new();
        assert!(payload.encode_wire_frame(&mut frame));
        let header = ok.len() - frame.len();
        for cut in 0..header {
            assert!(decode_envelope(&ok[..cut]).is_none(), "cut={cut}");
            let cut_frame = FrameBytes::from(ok[..cut].to_vec());
            assert!(LinkReader::new(PartyId(1)).decode(cut_frame).is_none());
        }
        for cut in header..ok.len() {
            let (from, session, payload) = decode_envelope(&ok[..cut]).expect("routable");
            assert_eq!((from, session), (PartyId(1), sid()), "cut={cut}");
            assert_eq!(payload.type_name(), "wire:malformed", "cut={cut}");
            assert_eq!(payload.to_msg::<bool>(), None, "cut={cut}");
        }
        assert!(parse_frame(&ok[header..]).is_some());
    }

    fn envelope(from: usize, msg: u8) -> Vec<u8> {
        let mut buf = Vec::new();
        assert!(encode_envelope(
            PartyId(from),
            &sid(),
            &Payload::message(msg),
            &mut buf
        ));
        buf
    }

    #[test]
    fn link_envelope_must_come_from_the_link_owner() {
        let from_two = FrameBytes::from(envelope(2, 7));
        let (session, payload) = LinkReader::new(PartyId(2))
            .decode(from_two.clone())
            .expect("owner's own envelope");
        assert_eq!(session, sid());
        assert_eq!(payload.to_msg::<u8>(), Some(7));
        // Another party's id, and one no party has, are both refused —
        // the bytes themselves are well-formed.
        assert!(LinkReader::new(PartyId(3))
            .decode(from_two.clone())
            .is_none());
        let from_nobody = FrameBytes::from(envelope(99, 7));
        assert!(decode_envelope(&from_nobody).is_some());
        assert!(LinkReader::new(PartyId(3)).decode(from_nobody).is_none());
        // A malformed header is refused whoever owns the link.
        let cut = FrameBytes::from(from_two[..5].to_vec());
        assert!(LinkReader::new(PartyId(2)).decode(cut).is_none());
    }

    /// An envelope from party 2 whose session path is `tags`, written
    /// without interning anything.
    fn raw_envelope(tags: &[(&str, u64)]) -> FrameBytes {
        let mut buf = Vec::new();
        WireWriter::u32(&mut buf, 2);
        WireWriter::u8(&mut buf, tags.len() as u8);
        for (kind, index) in tags {
            WireWriter::bytes(&mut buf, kind.as_bytes());
            WireWriter::u64(&mut buf, *index);
        }
        assert!(Payload::message(7u8).encode_wire_frame(&mut buf));
        FrameBytes::from(buf)
    }

    #[test]
    fn session_ids_over_the_bounds_are_refused_before_they_are_interned() {
        use crate::ids::SessionTag;
        use crate::wire::{MAX_KIND_LEN, MAX_SESSION_DEPTH};
        let long = "k".repeat(MAX_KIND_LEN + 1);
        let fits = "k".repeat(MAX_KIND_LEN);
        // At the bounds an id decodes (and its kinds are interned) ...
        let at_bounds = raw_envelope(&vec![(fits.as_str(), 3); MAX_SESSION_DEPTH]);
        let (session, _) = LinkReader::new(PartyId(2))
            .decode(at_bounds)
            .expect("within bounds");
        assert_eq!(session.depth(), MAX_SESSION_DEPTH);
        assert!(SessionTag::kind_is_interned(&fits));
        // ... one past either bound it is a malformed header, and nothing
        // of it — not even the well-formed tags before the bad one —
        // reaches the interner, which never forgets.
        let too_deep = raw_envelope(&vec![("deploy-too-deep", 0); MAX_SESSION_DEPTH + 1]);
        let too_long = raw_envelope(&[("deploy-before-long", 0), (long.as_str(), 0)]);
        for bad in [&too_deep, &too_long] {
            assert!(LinkReader::new(PartyId(2)).decode(bad.clone()).is_none());
            assert!(decode_envelope(bad).is_none());
        }
        for kind in ["deploy-too-deep", "deploy-before-long", long.as_str()] {
            assert!(!SessionTag::kind_is_interned(kind), "{kind} was interned");
        }
    }

    /// Counts `write` calls; hands out its bytes in reads of `chunk`.
    struct Pipe {
        bytes: Vec<u8>,
        writes: usize,
        reads: usize,
        chunk: usize,
    }

    impl Pipe {
        fn holding(bytes: Vec<u8>, chunk: usize) -> Pipe {
            Pipe {
                bytes,
                writes: 0,
                reads: 0,
                chunk,
            }
        }
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Read for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let n = buf.len().min(self.chunk).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes.drain(..n);
            Ok(n)
        }
    }

    #[test]
    fn queued_envelopes_leave_in_one_write_in_order() {
        let (tx, rx) = channel::<Arc<[u8]>>();
        for i in 0..40u8 {
            tx.send(envelope(1, i).into()).unwrap();
        }
        drop(tx);
        let mut pipe = Pipe::holding(Vec::new(), usize::MAX);
        write_bursts(&rx, &mut pipe).unwrap();
        assert_eq!(pipe.writes, 1, "one burst, one write");

        // ... and the reader gets all of them back from one read.
        let mut frames = FrameReader::new(pipe);
        for i in 0..40u8 {
            let frame = frames.read_frame().unwrap().expect("a frame");
            assert_eq!(&frame[..], &envelope(1, i)[..], "frame {i}");
        }
        assert!(frames.read_frame().unwrap().is_none(), "clean EOF");
        assert_eq!(frames.inner.reads, 2, "one read for the data, one for EOF");
    }

    #[test]
    fn bursts_are_capped() {
        let (tx, rx) = channel::<Arc<[u8]>>();
        let big: Arc<[u8]> = vec![0xEE; BURST_CAP / 2 + 1].into();
        for _ in 0..4 {
            tx.send(Arc::clone(&big)).unwrap();
        }
        drop(tx);
        let mut pipe = Pipe::holding(Vec::new(), usize::MAX);
        write_bursts(&rx, &mut pipe).unwrap();
        assert_eq!(pipe.writes, 2, "two envelopes reach the cap");
        assert_eq!(pipe.bytes.len(), 4 * (4 + big.len()));
    }

    #[test]
    fn frames_survive_any_read_chunking_and_outlive_the_buffer() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, b"hello");
        write_frame(&mut bytes, b"");
        let long = vec![0x5A; 3 * READ_BUF];
        write_frame(&mut bytes, &long);
        write_frame(&mut bytes, b"tail");
        for chunk in [1, 3, 7, READ_BUF, usize::MAX] {
            let mut frames = FrameReader::new(Pipe::holding(bytes.clone(), chunk));
            // Frames are kept alive across later reads: the reader must
            // move on to a fresh buffer, not overwrite theirs.
            let mut got = Vec::new();
            while let Some(frame) = frames.read_frame().unwrap() {
                got.push(frame);
            }
            let got: Vec<&[u8]> = got.iter().map(|f| &f[..]).collect();
            assert_eq!(got, [b"hello", &b""[..], &long, b"tail"], "chunk {chunk}");
        }
    }

    #[test]
    fn truncated_and_oversized_frames_are_errors() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, b"whole");
        write_frame(&mut bytes, b"truncated");
        for cut in [bytes.len() - 1, bytes.len() - 9, bytes.len() - 11] {
            let mut frames = FrameReader::new(Pipe::holding(bytes[..cut].to_vec(), usize::MAX));
            assert_eq!(&frames.read_frame().unwrap().unwrap()[..], b"whole");
            let err = frames.read_frame().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}");
        }
        // An oversized length is refused when its turn comes, not before.
        let mut bytes = Vec::new();
        write_frame(&mut bytes, b"whole");
        bytes.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let mut frames = FrameReader::new(Pipe::holding(bytes, usize::MAX));
        assert_eq!(&frames.read_frame().unwrap().unwrap()[..], b"whole");
        let err = frames.read_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn hello_round_trips() {
        for hello in [
            Hello {
                party: 0,
                recovered: false,
            },
            Hello {
                party: 0x0102_0304,
                recovered: true,
            },
        ] {
            assert_eq!(Hello::from_bytes(hello.to_bytes()), hello);
        }
    }

    #[test]
    fn links_carry_envelopes_both_ways_and_report_silent_connections() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (tx, rx) = channel();
        let sink = |side: &'static str| {
            let tx = tx.clone();
            move |ev| tx.send((side, ev)).is_ok()
        };

        // A connection that never says hello is reported and dropped ...
        let silent = TcpStream::connect(&addr).unwrap();
        PeerLink::accept(listener.accept().unwrap().0, sink("silent")).unwrap();
        // ... and does not keep the next link from coming up meanwhile.
        let me = Hello {
            party: 1,
            recovered: true,
        };
        PeerLink::dial(&addr, me, 0, sink("dialer")).unwrap();
        PeerLink::accept(listener.accept().unwrap().0, sink("acceptor")).unwrap();

        let mut up = Vec::new();
        while up.len() < 2 {
            match rx.recv().unwrap() {
                (
                    side,
                    LinkEvent::Up {
                        peer,
                        recovered,
                        link,
                    },
                ) => up.push((side, peer, recovered, link)),
                (side, _) => panic!("unexpected event from {side} before the links are up"),
            }
        }
        up.sort_by_key(|&(side, ..)| side);
        let [(_, 1, true, to_dialer), (_, 0, false, to_acceptor)] = &up[..] else {
            panic!("acceptor sees the hello, dialer the party it dialed");
        };
        to_acceptor.send(envelope(1, 10).into());
        to_dialer.send(envelope(0, 20).into());
        for _ in 0..2 {
            match rx.recv().unwrap() {
                ("acceptor", LinkEvent::Frame(f)) => assert_eq!(&f[..], &envelope(1, 10)[..]),
                ("dialer", LinkEvent::Frame(f)) => assert_eq!(&f[..], &envelope(0, 20)[..]),
                (side, _) => panic!("unexpected event from {side}"),
            }
        }
        // Dropping one sending half closes the link at both ends.
        drop(up);
        let mut down = Vec::new();
        for _ in 0..2 {
            match rx.recv().unwrap() {
                (side, LinkEvent::Down) => down.push(side),
                (side, _) => panic!("unexpected event from {side}"),
            }
        }
        down.sort();
        assert_eq!(down, ["acceptor", "dialer"]);
        // The silent connection times out on its own thread.
        match rx.recv().unwrap() {
            ("silent", LinkEvent::NoHello(_)) => {}
            (side, _) => panic!("unexpected event from {side}"),
        }
        drop(silent);
    }

    #[test]
    fn party_node_matches_backend_nodes() {
        // Same constructor ⇒ same identity and per-party RNG stream as
        // the in-process backends for the same (seed, party).
        let config = NetConfig::new(4, 1, 42);
        let node = party_node(&config, 2);
        assert_eq!(node.id(), PartyId(2));
        assert!(!node.is_crashed());
    }
}
