//! The typed wire codec: self-describing, length-prefixed message frames.
//!
//! Every protocol message type implements [`WireMessage`]: a stable
//! 16-bit kind, a body encoder and a body decoder. A message travels as a
//! *frame*:
//!
//! ```text
//! +--------------+---------------+-------------------+
//! | kind: u16 LE | len: u32 LE   | body: `len` bytes |
//! +--------------+---------------+-------------------+
//! ```
//!
//! Frames are self-describing (the kind says what the body claims to be)
//! and length-prefixed (the declared `len` must equal the actual body
//! length — [`parse_frame`] rejects everything else). Decoders consume
//! the body exactly; trailing bytes, truncation and kind mismatches all
//! decode to `None`, never to a value of a different kind and never by
//! panicking — malformed bytes from Byzantine parties are an *expected
//! input*, not an error condition.
//!
//! ## Kind space
//!
//! Kinds below `0x8000` are plain message kinds, allocated in per-crate
//! ranges so registries can be merged without collisions (the
//! [`CodecRegistry`] panics on a genuine collision):
//!
//! | range | owner |
//! |---|---|
//! | `0x0001..=0x000F` | builtin primitives (`aft-sim`) |
//! | `0x0010..=0x001F` | generic behaviours (`aft-sim`) |
//! | `0x0020..=0x002F` | `aft-ba` |
//! | `0x0030..=0x003F` | `aft-svss` |
//! | `0x0040..=0x004F` | `aft-core` |
//! | `0x7000..=0x7FFF` | tests and examples |
//!
//! The high bit composes: `0x8000 | K` is "an A-Cast message carrying a
//! value of kind `K`" (see [`acast_kind`]), which is how generic wrappers
//! get a distinct kind per payload type without a global registry of
//! instantiations.
//!
//! ## The envelope
//!
//! A frame travels inside one routing envelope, one [`write_frame`] link
//! frame each:
//!
//! ```text
//! [len: u32] [from: u32] [session] [payload frame]
//!
//! session, by its first byte:
//!   0..=16  full:   depth, then per tag: kind (u32-len bytes), index: u64
//!   0xFD    define: 0xFD, anchor: u8, k: u8,
//!                   then k × (slot: u8, kind (u32-len bytes), index: u64)
//!   0xFE    ref:    0xFE, slot: u8
//!   0xFF    refused (a path deeper than any receiver routes)
//! ```
//!
//! The full form is stateless: [`encode_envelope`] writes it,
//! [`decode_envelope`] reads it, and a
//! [`ClusterMsg`](crate::cluster::ClusterMsg) nests one (no length)
//! behind its inner receiver.
//!
//! A link — `rt=wire`'s hand-over from one party to another, or an
//! `aft-partyd` connection ([`deploy`](crate::deploy)) — names a session
//! path once. Each direction of a link holds one table of
//! [`LINK_SESSION_SLOTS`] slots at each end, [`LinkWriter`] at the sender
//! and [`LinkReader`] at the receiver. The writer keeps a session in one
//! of the four slots its path picks: when one of them holds it, the
//! session travels as a two-byte *ref*. Otherwise it travels as a
//! *define* that extends its *anchor* — the deepest of its proper
//! ancestors the table holds, by slot, or `0xFF` for the root — by the
//! `k` tags below it, each with the slot it fills, the oldest of its four,
//! in order on both ends: a session whose parent has crossed the link
//! costs one tag. The root and a path deeper than [`MAX_SESSION_DEPTH`]
//! take no slot and travel in the full form. A link is FIFO, so the
//! reader's table follows the writer's exactly, and a new connection
//! starts both afresh. The reader takes all three forms, so a stateless
//! writer's bytes are read on a link as well.
//!
//! The reader refuses on the routing header only — a short `from`, a
//! sender other than the link's owner, a ref to an empty or out-of-range
//! slot, a define whose anchor is either, or with no tags, more tags
//! than [`MAX_SESSION_DEPTH`] allows below its anchor, or a slot past
//! the table, a kind over [`MAX_KIND_LEN`] or not UTF-8, a session cut
//! short. It checks a define whole before it interns or stores anything,
//! and a refused define leaves every slot it names empty. The rest goes
//! on as the payload frame, judged where every representation's is:
//! [`parse_frame`] under [`Payload::view`]. Its table is a fixed 512
//! bytes, so no byte sequence grows it.

//! ## Registries
//!
//! A [`CodecRegistry`] maps kinds to named decoders. A received frame's
//! kind *name* is resolved through the process-global one when somebody
//! asks for it (so diagnostics say `acast`, not `Bytes`), and fuzz tests
//! drive every registered decoder through arbitrary bytes. Protocol
//! crates export `register_codecs(&mut CodecRegistry)`; call
//! [`register_global`] to make their names visible.

use crate::ids::{PartyId, SessionId, SessionTag};
use crate::payload::{FrameBytes, Payload};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

/// First builtin primitive kind (`u8`).
pub const KIND_BUILTIN_BASE: u16 = 0x0001;
/// First kind reserved for `aft-sim`'s generic behaviours.
pub const KIND_BEHAVIOR_BASE: u16 = 0x0010;
/// First kind reserved for `aft-ba`.
pub const KIND_BA_BASE: u16 = 0x0020;
/// First kind reserved for `aft-svss`.
pub const KIND_SVSS_BASE: u16 = 0x0030;
/// First kind reserved for `aft-core`.
pub const KIND_CORE_BASE: u16 = 0x0040;
/// First kind reserved for tests and examples.
pub const KIND_TEST_BASE: u16 = 0x7000;

/// Bytes of a frame header: kind (2) + body length (4).
pub const FRAME_HEADER_LEN: usize = 6;

/// Deepest session path [`get_session`] accepts. The deepest path the
/// reference stacks build — FBA down to an A-Cast inside SVSS inside the
/// weak shared coin — has 7 tags.
pub const MAX_SESSION_DEPTH: usize = 16;

/// Longest tag kind, in bytes, [`get_session`] accepts. The longest kind
/// in the workspace (`svss-share`) has 10.
pub const MAX_KIND_LEN: usize = 32;

/// Composes the kind of an A-Cast frame carrying an inner kind.
///
/// The inner kind must be a plain kind (`< 0x8000`); wrappers do not
/// nest, which the const assertion in `AcastMsg`'s impl enforces at
/// compile time.
pub const fn acast_kind(inner: u16) -> u16 {
    0x8000 | inner
}

/// A message that can cross a byte-level network boundary.
///
/// Implementors pick a stable [`KIND`](WireMessage::KIND) from their
/// crate's range (see the [module docs](self)), encode their body with
/// the [`WireWriter`] helpers and decode with a [`WireReader`] —
/// rejecting, never panicking on, malformed bytes. The laws the codec
/// proptests pin:
///
/// * **round trip** — `decode_body(encode_body(m)) == Some(m)`;
/// * **exactness** — decoders consume the body exactly (a
///   [`WireReader`] is finished with [`WireReader::finish`]);
/// * **totality** — `decode_body` returns `None` (never panics, never a
///   different value) on arbitrary bytes.
///
/// [`Payload`] stores small encoded messages inline (no allocation per
/// message) and keeps large ones as shared typed values that encode
/// lazily at the wire boundary, so implementing this trait is all a
/// protocol crate does to run on every backend including the
/// wire-serialized one.
pub trait WireMessage: Any + Send + Sync + Sized {
    /// The frame kind identifying this message type on the wire.
    const KIND: u16;
    /// Diagnostic name of the kind (reported by
    /// [`Payload::type_name`](crate::Payload::type_name) for wire frames).
    const KIND_NAME: &'static str;

    /// Static upper bound on [`encode_body`](WireMessage::encode_body)'s
    /// output length, in bytes, when one is known at compile time.
    ///
    /// The contract: when `Some(max)`, **every** value of the type must
    /// encode to at most `max` body bytes (`Payload` debug-asserts it).
    /// Types whose bound is at most `INLINE_BODY_CAP` bytes are stored
    /// inline unconditionally — the typed fallback arm is statically
    /// dead — and types whose bound exceeds the cap skip the probe
    /// encode entirely and go straight to the shared typed
    /// representation. Leave the default `None` for variable-length
    /// types; the probe then decides at runtime, which is always
    /// correct, just not free.
    const MAX_BODY_HINT: Option<usize> = None;

    /// Erased encode/identity table for this type (used by [`Payload`]).
    #[doc(hidden)]
    const VTABLE: WireVtable = WireVtable {
        kind: Self::KIND,
        name: Self::KIND_NAME,
        encode_frame: encode_frame_erased::<Self>,
    };

    /// Appends the message body (no header) to `out`.
    fn encode_body(&self, out: &mut Vec<u8>);

    /// Decodes a body produced by [`encode_body`](WireMessage::encode_body).
    /// Must consume the body exactly and return `None` on any malformed
    /// input.
    fn decode_body(bytes: &[u8]) -> Option<Self>;

    /// Adversarial hook: when `Some`, the wire transport emits these
    /// exact bytes as the payload frame *instead of* the well-formed
    /// `header + encode_body` encoding — the frame may be truncated,
    /// kind-spoofed or pure junk. Honest messages leave the default
    /// `None`; the generic `garbage`/`equivocate` behaviours override it
    /// to turn their in-memory junk values into genuinely malformed byte
    /// frames on wire-capable runs.
    fn raw_frame(&self) -> Option<Vec<u8>> {
        None
    }
}

/// Appends the full frame (header + body, or the raw adversarial frame)
/// for `msg` to `out`.
pub fn encode_frame<T: WireMessage>(msg: &T, out: &mut Vec<u8>) {
    if let Some(raw) = msg.raw_frame() {
        out.extend_from_slice(&raw);
        return;
    }
    out.extend_from_slice(&T::KIND.to_le_bytes());
    frame_with(out, |out| msg.encode_body(out));
}

/// Splits a frame into `(kind, body)`. Returns `None` unless the header
/// is present and the declared body length equals the actual one.
pub fn parse_frame(frame: &[u8]) -> Option<(u16, &[u8])> {
    if frame.len() < FRAME_HEADER_LEN {
        return None;
    }
    let kind = u16::from_le_bytes([frame[0], frame[1]]);
    let len = u32::from_le_bytes([frame[2], frame[3], frame[4], frame[5]]) as usize;
    let body = &frame[FRAME_HEADER_LEN..];
    (body.len() == len).then_some((kind, body))
}

/// Decodes a full frame as `T`: header well-formed, kind equal to
/// `T::KIND`, body decodable. The only way bytes become a typed message.
pub fn decode_frame_as<T: WireMessage>(frame: &[u8]) -> Option<T> {
    let (kind, body) = parse_frame(frame)?;
    (kind == T::KIND).then(|| T::decode_body(body)).flatten()
}

/// Type-erased encode-frame shim monomorphized per message type.
fn encode_frame_erased<T: WireMessage>(value: &(dyn Any + Send + Sync), out: &mut Vec<u8>) {
    let msg = value
        .downcast_ref::<T>()
        .expect("wire vtable attached to a value of another type");
    encode_frame(msg, out);
}

/// Erased per-type codec identity, attached to typed [`Payload`]s so the
/// wire boundary can serialize them without knowing their type.
#[doc(hidden)]
pub struct WireVtable {
    /// The frame kind.
    pub kind: u16,
    /// The kind's diagnostic name.
    pub name: &'static str,
    /// Appends the full frame for the (type-erased) value.
    pub encode_frame: fn(&(dyn Any + Send + Sync), &mut Vec<u8>),
}

// ---------------------------------------------------------------------------
// Body encode/decode helpers.
// ---------------------------------------------------------------------------

/// Append-style helpers for message bodies (all little-endian).
pub struct WireWriter;

impl WireWriter {
    /// Appends one byte.
    pub fn u8(out: &mut Vec<u8>, v: u8) {
        out.push(v);
    }
    /// Appends a `u16`.
    pub fn u16(out: &mut Vec<u8>, v: u16) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `u32`.
    pub fn u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `u64`.
    pub fn u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `bool` as `0`/`1`.
    pub fn bool(out: &mut Vec<u8>, v: bool) {
        out.push(v as u8);
    }
    /// Appends a `u32`-length-prefixed byte string.
    pub fn bytes(out: &mut Vec<u8>, v: &[u8]) {
        Self::u32(out, v.len() as u32);
        out.extend_from_slice(v);
    }
}

/// A checked, position-tracking reader over a message body.
///
/// Every accessor returns `None` past the end; [`finish`] additionally
/// rejects trailing bytes, which is what makes decoders *exact*.
///
/// [`finish`]: WireReader::finish
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    /// Reads a `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        let s = self.take(2)?;
        Some(u16::from_le_bytes([s[0], s[1]]))
    }
    /// Reads a `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        let s = self.take(4)?;
        Some(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }
    /// Reads a `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let s = self.take(8)?;
        Some(u64::from_le_bytes(s.try_into().ok()?))
    }
    /// Reads a strict `bool` (`0` or `1`; anything else is malformed).
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
    /// Reads a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }
    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    /// Borrows the unconsumed tail without consuming it — for nested
    /// decoders that report how much they used (pair with
    /// [`skip`](WireReader::skip)).
    pub fn peek_rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }
    /// Skips `n` bytes (`None` past the end).
    pub fn skip(&mut self, n: usize) -> Option<()> {
        self.take(n).map(|_| ())
    }
    /// Consumes the rest of the body.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }
    /// Succeeds iff the body was consumed exactly.
    pub fn finish(self) -> Option<()> {
        (self.pos == self.buf.len()).then_some(())
    }
}

// ---------------------------------------------------------------------------
// Session ids on the wire.
// ---------------------------------------------------------------------------

/// Appends a session id in the full form: `depth:u8`, then per tag
/// `kind:(u32-len bytes)`, `index:u64`.
///
/// A path deeper than [`MAX_SESSION_DEPTH`] cannot be routed by any
/// receiver; its depth byte is `u8::MAX` whatever its depth, so what
/// arrives is refused by [`get_session`], never mistaken for a shallower
/// id nor, on a link, for a define or a ref.
pub fn put_session(out: &mut Vec<u8>, session: &SessionId) {
    let depth = session.depth();
    WireWriter::u8(
        out,
        if depth > MAX_SESSION_DEPTH {
            u8::MAX
        } else {
            depth as u8
        },
    );
    // An id keeps only its own tag and a link to its parent, so its tags
    // come leaf first: one walk up sizes the path, a second fills it in
    // back to front. (As fast as iterating a stored path; writing root
    // first by recursion cost 1.8 times as much.)
    let encoded = |tag: &SessionTag| 4 + tag.kind.len() + 8;
    let len: usize = session.tags_leaf_first().map(|t| encoded(&t)).sum();
    let mut end = out.len() + len;
    out.resize(end, 0);
    for tag in session.tags_leaf_first() {
        let start = end - encoded(&tag);
        // `WireWriter::bytes` of the kind, then `WireWriter::u64` of the
        // index.
        let (len, rest) = out[start..end].split_at_mut(4);
        len.copy_from_slice(&(tag.kind.len() as u32).to_le_bytes());
        let (kind, index) = rest.split_at_mut(tag.kind.len());
        kind.copy_from_slice(tag.kind.as_bytes());
        index.copy_from_slice(&tag.index.to_le_bytes());
        end = start;
    }
}

/// Reads a session id written by [`put_session`]. The decoded id is the
/// interner's canonical one — pointer-equal to the locally constructed
/// id — so routing works unchanged.
///
/// Interned kinds live for the life of the process, and these bytes may
/// come off a socket: a path deeper than [`MAX_SESSION_DEPTH`] or a kind
/// longer than [`MAX_KIND_LEN`] or not UTF-8 is malformed, and the whole
/// path is checked before any of it is interned.
pub fn get_session(r: &mut WireReader<'_>) -> Option<SessionId> {
    let depth = usize::from(r.u8()?);
    if depth > MAX_SESSION_DEPTH {
        return None;
    }
    let mut tags = [("", 0); MAX_SESSION_DEPTH];
    for tag in &mut tags[..depth] {
        *tag = (routable_kind(r.bytes()?)?, r.u64()?);
    }
    let tags = tags[..depth].iter();
    Some(tags.fold(SessionId::root(), |id, &(kind, index)| {
        child(&id, kind, index)
    }))
}

/// A tag kind read off the wire, when a receiver routes it: at most
/// [`MAX_KIND_LEN`] bytes of UTF-8.
fn routable_kind(kind: &[u8]) -> Option<&str> {
    (kind.len() <= MAX_KIND_LEN)
        .then(|| std::str::from_utf8(kind).ok())
        .flatten()
}

/// `parent`'s child tagged with a checked kind and an index.
fn child(parent: &SessionId, kind: &str, index: u64) -> SessionId {
    parent.child(SessionTag::new(SessionTag::intern_kind(kind), index))
}

// ---------------------------------------------------------------------------
// The envelope: routing header + payload frame, one link frame each.
// ---------------------------------------------------------------------------

/// Per-frame size cap on a link — far above any protocol frame, low
/// enough that a corrupted length prefix cannot balloon allocation.
pub const MAX_FRAME: usize = 16 << 20;

/// Appends a `u32` little-endian length, then what `body` appends — a
/// link frame, or a payload frame behind its kind. The length is patched
/// in afterwards, so the body encodes straight into `out`.
pub(crate) fn frame_with(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let len_at = out.len();
    out.extend_from_slice(&[0; 4]);
    body(out);
    let len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Appends `bytes` as one link frame — the framing every carrier of
/// envelopes uses.
///
/// # Panics
///
/// Panics if `bytes` is longer than [`MAX_FRAME`], which no socket
/// reader would accept.
pub fn write_frame(out: &mut Vec<u8>, bytes: &[u8]) {
    assert!(bytes.len() <= MAX_FRAME, "frame exceeds MAX_FRAME");
    frame_with(out, |out| out.extend_from_slice(bytes));
}

/// Walks a burst — whole link frames back to back in one shared buffer,
/// one allocation — yielding each frame's contents as a [`FrameBytes`]
/// range of it. Ends at the first prefix that is short or promises more
/// than is there.
pub(crate) struct Burst {
    bytes: Arc<[u8]>,
    next: usize,
}

impl Burst {
    pub(crate) fn new(bytes: Arc<[u8]>) -> Self {
        Burst { bytes, next: 0 }
    }
}

impl Iterator for Burst {
    type Item = FrameBytes;
    fn next(&mut self) -> Option<FrameBytes> {
        let rest = &self.bytes[self.next..];
        let len = u32::from_le_bytes(*rest.first_chunk::<4>()?) as usize;
        if rest.len() - 4 < len {
            return None;
        }
        let start = self.next + 4;
        self.next = start + len;
        Some(FrameBytes::from_shared(&self.bytes, start, self.next))
    }
}

/// Appends a payload frame. A payload without a wire identity (a typed
/// output leaking onto the network) cannot be serialized: it travels as
/// an explicitly malformed two-byte frame no view will match, and
/// `false` comes back.
fn put_payload(out: &mut Vec<u8>, payload: &Payload) -> bool {
    let wire = payload.encode_wire_frame(out);
    if !wire {
        out.extend_from_slice(&u16::MAX.to_le_bytes());
    }
    wire
}

/// Appends an envelope's routing header, session in the full form, and
/// payload frame (see [`put_payload`] for what `false` means).
pub(crate) fn put_envelope(
    out: &mut Vec<u8>,
    from: PartyId,
    session: &SessionId,
    payload: &Payload,
) -> bool {
    WireWriter::u32(out, from.0 as u32);
    put_session(out, session);
    put_payload(out, payload)
}

/// Appends one routed envelope (`from`, `session`, `payload`) to `out`,
/// the session in the full, stateless form.
///
/// Returns `false` — leaving `out` untouched — when `payload` has no
/// wire identity (a typed output), which never legitimately crosses a
/// process boundary.
pub fn encode_envelope(
    from: PartyId,
    session: &SessionId,
    payload: &Payload,
    out: &mut Vec<u8>,
) -> bool {
    let mark = out.len();
    let wire = put_envelope(out, from, session, payload);
    if !wire {
        out.truncate(mark);
    }
    wire
}

/// Decodes one envelope produced by [`encode_envelope`]: the full form
/// only, since a define or a ref means nothing without its link's table.
///
/// The payload comes back in its lazy wire representation, so a
/// malformed or truncated payload frame is charged to the receiving
/// instance as a decode miss — the same on every carrier — rather than
/// failing here. Returns `None` only when the routing header itself is
/// malformed. The claimed sender is returned as read: bytes that came
/// off a link go through a [`LinkReader`], which checks it.
pub fn decode_envelope(bytes: &[u8]) -> Option<(PartyId, SessionId, Payload)> {
    let mut r = WireReader::new(bytes);
    let from = PartyId(r.u32()? as usize);
    let session = get_session(&mut r)?;
    let at = bytes.len() - r.remaining();
    Some((from, session, Payload::from_wire(bytes[at..].to_vec())))
}

/// Session slots per direction of a link, at each end. More slots name
/// no more sessions by ref: 256 or 1 024 carried no fewer bytes on an
/// FBA execution at n = 4.
pub const LINK_SESSION_SLOTS: usize = 64;

/// First byte of a define: `[SESSION_DEFINE][anchor][k]`, then `k` ×
/// `[slot][kind][index]`. Above [`MAX_SESSION_DEPTH`], so no full form
/// starts with it.
pub(crate) const SESSION_DEFINE: u8 = 0xFD;

/// First byte of a ref: `[SESSION_REF][slot]`.
pub(crate) const SESSION_REF: u8 = 0xFE;

/// A define's anchor when its chain starts at the root. Past the table,
/// so no slot is named by it.
pub(crate) const ROOT_ANCHOR: u8 = 0xFF;

/// One end's table for one direction of a link: 512 bytes, allocated on
/// first use and never grown.
type SessionSlots = Option<Box<[Option<SessionId>; LINK_SESSION_SLOTS]>>;

fn slots(table: &mut SessionSlots) -> &mut [Option<SessionId>; LINK_SESSION_SLOTS] {
    table.get_or_insert_with(|| Box::new([const { None }; LINK_SESSION_SLOTS]))
}

/// Slots a session may take at a [`LinkWriter`]: the four of the set its
/// path key picks. Four ways carry 9 % fewer bytes than one on an FBA
/// execution at n = 4, and 0.8 % more than any slot at all.
const LINK_WAYS: usize = 4;

/// Sets of [`LINK_WAYS`] slots in a [`LinkWriter`]'s table.
const LINK_SETS: usize = LINK_SESSION_SLOTS / LINK_WAYS;

/// The sending end of one link: writes each envelope's session as a ref
/// when the link's table holds it, as a define from its deepest held
/// ancestor otherwise (see the [module docs](self), §The envelope). Its
/// [`LinkReader`] must read every envelope it writes, in order; a new
/// connection starts with a new writer.
///
/// A session's slot set comes from its path, not from the order a
/// process interned it in, so the bytes of a run are the same in every
/// process; within the set, a define replaces the set's oldest.
#[derive(Default)]
pub struct LinkWriter {
    slots: SessionSlots,
    /// Per set, the way its next define fills.
    next: [u8; LINK_SETS],
}

impl LinkWriter {
    /// A writer whose table is empty, as a new connection's reader's is.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`encode_envelope`] on this link: appends one envelope, its session
    /// as a ref or a define. Returns `false` — leaving `out` and the table
    /// untouched — when `payload` has no wire identity.
    pub fn encode_envelope(
        &mut self,
        from: PartyId,
        session: &SessionId,
        payload: &Payload,
        out: &mut Vec<u8>,
    ) -> bool {
        payload.has_wire_frame() && self.put_envelope(out, from, session, payload)
    }

    /// [`put_envelope`] on this link: a payload without a wire identity
    /// travels as the malformed marker frame, and the envelope is sent.
    pub(crate) fn put_envelope(
        &mut self,
        out: &mut Vec<u8>,
        from: PartyId,
        session: &SessionId,
        payload: &Payload,
    ) -> bool {
        WireWriter::u32(out, from.0 as u32);
        self.put_session(out, session);
        put_payload(out, payload)
    }

    /// A ref when the session's set holds it, else a define that extends
    /// its deepest held ancestor down to it, each new session going into
    /// its set's oldest slot. The root and a path no receiver routes take
    /// no slot: they go in the full form, whose saturated depth byte
    /// refuses the latter.
    fn put_session(&mut self, out: &mut Vec<u8>, session: &SessionId) {
        if !(1..=MAX_SESSION_DEPTH).contains(&session.depth()) {
            return put_session(out, session);
        }
        let table = slots(&mut self.slots);
        let set = |id: &SessionId| usize::from(id.path_key()) % LINK_SETS;
        // Up from the session to the first id the table holds, keeping
        // what lies below it, leaf first.
        let mut chain = [const { None }; MAX_SESSION_DEPTH];
        let mut k = 0;
        let mut held = ROOT_ANCHOR;
        let path = std::iter::successors(Some(session.clone()), SessionId::parent);
        for id in path.take(session.depth()) {
            let way0 = set(&id) * LINK_WAYS;
            if let Some(slot) =
                (way0..way0 + LINK_WAYS).find(|&slot| table[slot].as_ref() == Some(&id))
            {
                held = slot as u8;
                break;
            }
            chain[k] = Some(id);
            k += 1;
        }
        if k == 0 {
            return out.extend_from_slice(&[SESSION_REF, held]);
        }
        out.extend_from_slice(&[SESSION_DEFINE, held, k as u8]);
        for id in chain[..k].iter().rev().flatten() {
            let set = set(id);
            let next = &mut self.next[set];
            let slot = set * LINK_WAYS + usize::from(*next);
            *next = (*next + 1) % LINK_WAYS as u8;
            let tag = id.last().expect("below the root");
            table[slot] = Some(id.clone());
            out.push(slot as u8);
            WireWriter::bytes(out, tag.kind.as_bytes());
            WireWriter::u64(out, tag.index);
        }
    }
}

/// The receiving end of one link, owned by the party that sends on it:
/// reads what that party's [`LinkWriter`] wrote, mirroring its table.
pub struct LinkReader {
    owner: PartyId,
    slots: SessionSlots,
}

impl LinkReader {
    /// The reader of a new link from `owner`, its table empty.
    pub fn new(owner: PartyId) -> Self {
        LinkReader { owner, slots: None }
    }

    /// Decodes an envelope that arrived on this link, keeping the payload
    /// a slice of the burst it was read in (the frame is narrowed in
    /// place: no copy, no second handle on the buffer).
    ///
    /// Returns `None` — the envelope must be dropped and counted — when
    /// the routing header is malformed or names any sender but the
    /// owner: a link speaks for the party that opened it and for nobody
    /// else, whatever its bytes claim (another party's id, or one past
    /// `n`). The session is not looked at then, so nothing is interned
    /// and the table is untouched.
    pub fn decode(&mut self, envelope: FrameBytes) -> Option<(SessionId, Payload)> {
        let mut r = WireReader::new(&envelope);
        if PartyId(r.u32()? as usize) != self.owner {
            return None;
        }
        let session = self.get_session(&mut r)?;
        let at = envelope.len() - r.remaining();
        Some((session, Payload::from_wire(envelope.skip_front(at))))
    }

    /// Reads a session in any of its three forms.
    fn get_session(&mut self, r: &mut WireReader<'_>) -> Option<SessionId> {
        match *r.peek_rest().first()? {
            SESSION_REF => {
                r.skip(1)?;
                let slot = usize::from(r.u8()?);
                self.slots.as_ref()?.get(slot)?.clone()
            }
            SESSION_DEFINE => {
                r.skip(1)?;
                self.get_define(r)
            }
            _ => get_session(r),
        }
    }

    /// Reads a define behind its marker. The anchor is resolved first, so
    /// a chain that evicts it still extends it. Each slot is emptied as it
    /// is read, and nothing is interned or stored before the whole define
    /// has passed: a refused one leaves every slot it names, as far as its
    /// bytes go, empty — and every later ref to them refused, as its
    /// writer's ids are.
    fn get_define(&mut self, r: &mut WireReader<'_>) -> Option<SessionId> {
        let table = slots(&mut self.slots);
        let anchor = match r.u8()? {
            ROOT_ANCHOR => Some(SessionId::root()),
            slot => table.get(usize::from(slot)).cloned().flatten(),
        };
        let k = usize::from(r.u8()?);
        let mut valid = anchor
            .as_ref()
            .is_some_and(|anchor| k >= 1 && anchor.depth() + k <= MAX_SESSION_DEPTH);
        let mut chain = [(0, "", 0); MAX_SESSION_DEPTH];
        for item in 0..k {
            let slot = usize::from(r.u8()?);
            let in_table = table.get_mut(slot).map(|held| *held = None).is_some();
            let kind = routable_kind(r.bytes()?);
            let index = r.u64()?;
            match (kind, chain.get_mut(item)) {
                (Some(kind), Some(tag)) if valid && in_table => *tag = (slot, kind, index),
                _ => valid = false,
            }
        }
        let mut id = anchor.filter(|_| valid)?;
        for &(slot, kind, index) in &chain[..k] {
            id = child(&id, kind, index);
            table[slot] = Some(id.clone());
        }
        Some(id)
    }

    /// Heap bytes the reader holds: its table, once allocated.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        self.slots
            .as_ref()
            .map_or(0, |slots| std::mem::size_of_val(&**slots))
    }
}

// ---------------------------------------------------------------------------
// Builtin WireMessage impls.
// ---------------------------------------------------------------------------

macro_rules! int_wire {
    ($ty:ty, $kind:expr, $name:literal) => {
        impl WireMessage for $ty {
            const KIND: u16 = $kind;
            const KIND_NAME: &'static str = $name;
            const MAX_BODY_HINT: Option<usize> = Some(std::mem::size_of::<$ty>());
            fn encode_body(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode_body(bytes: &[u8]) -> Option<Self> {
                Some(<$ty>::from_le_bytes(bytes.try_into().ok()?))
            }
        }
    };
}

int_wire!(u8, KIND_BUILTIN_BASE, "u8");
int_wire!(u16, KIND_BUILTIN_BASE + 1, "u16");
int_wire!(u32, KIND_BUILTIN_BASE + 2, "u32");
int_wire!(u64, KIND_BUILTIN_BASE + 3, "u64");
int_wire!(i64, KIND_BUILTIN_BASE + 4, "i64");

impl WireMessage for usize {
    const KIND: u16 = KIND_BUILTIN_BASE + 5;
    const KIND_NAME: &'static str = "usize";
    const MAX_BODY_HINT: Option<usize> = Some(8);
    fn encode_body(&self, out: &mut Vec<u8>) {
        WireWriter::u64(out, *self as u64);
    }
    fn decode_body(bytes: &[u8]) -> Option<Self> {
        let mut r = WireReader::new(bytes);
        let v = r.u64()?;
        r.finish()?;
        usize::try_from(v).ok()
    }
}

impl WireMessage for bool {
    const KIND: u16 = KIND_BUILTIN_BASE + 6;
    const KIND_NAME: &'static str = "bool";
    const MAX_BODY_HINT: Option<usize> = Some(1);
    fn encode_body(&self, out: &mut Vec<u8>) {
        WireWriter::bool(out, *self);
    }
    fn decode_body(bytes: &[u8]) -> Option<Self> {
        let mut r = WireReader::new(bytes);
        let v = r.bool()?;
        r.finish()?;
        Some(v)
    }
}

impl WireMessage for () {
    const KIND: u16 = KIND_BUILTIN_BASE + 7;
    const KIND_NAME: &'static str = "unit";
    const MAX_BODY_HINT: Option<usize> = Some(0);
    fn encode_body(&self, _out: &mut Vec<u8>) {}
    fn decode_body(bytes: &[u8]) -> Option<Self> {
        bytes.is_empty().then_some(())
    }
}

impl WireMessage for String {
    const KIND: u16 = KIND_BUILTIN_BASE + 8;
    const KIND_NAME: &'static str = "string";
    fn encode_body(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
    fn decode_body(bytes: &[u8]) -> Option<Self> {
        std::str::from_utf8(bytes).ok().map(str::to_owned)
    }
}

impl WireMessage for Vec<u8> {
    const KIND: u16 = KIND_BUILTIN_BASE + 9;
    const KIND_NAME: &'static str = "bytes";
    fn encode_body(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn decode_body(bytes: &[u8]) -> Option<Self> {
        Some(bytes.to_vec())
    }
}

impl WireMessage for Vec<usize> {
    const KIND: u16 = KIND_BUILTIN_BASE + 10;
    const KIND_NAME: &'static str = "usize-list";
    fn encode_body(&self, out: &mut Vec<u8>) {
        for &v in self {
            WireWriter::u64(out, v as u64);
        }
    }
    fn decode_body(bytes: &[u8]) -> Option<Self> {
        if !bytes.len().is_multiple_of(8) {
            return None;
        }
        let mut r = WireReader::new(bytes);
        let mut out = Vec::with_capacity(bytes.len() / 8);
        while r.remaining() > 0 {
            out.push(usize::try_from(r.u64()?).ok()?);
        }
        Some(out)
    }
}

/// Registers every builtin primitive kind with `registry`.
pub fn register_builtin_codecs(registry: &mut CodecRegistry) {
    registry.register::<u8>();
    registry.register::<u16>();
    registry.register::<u32>();
    registry.register::<u64>();
    registry.register::<i64>();
    registry.register::<usize>();
    registry.register::<bool>();
    registry.register::<()>();
    registry.register::<String>();
    registry.register::<Vec<u8>>();
    registry.register::<Vec<usize>>();
}

// ---------------------------------------------------------------------------
// The codec registry.
// ---------------------------------------------------------------------------

/// One registered kind: its name plus a decoder producing a typed
/// [`Payload`].
#[derive(Clone, Copy)]
struct KindEntry {
    name: &'static str,
    decode: fn(&[u8]) -> Option<Payload>,
}

/// A mapping from frame kinds to named decoders.
///
/// Received frames' kind names resolve through the process-global one
/// ([`global_kind_name`]), the decode-fuzz proptests drive every
/// registered decoder, and [`decode_frame`](CodecRegistry::decode_frame)
/// eagerly materializes a typed payload when a caller wants one.
/// Registration panics on a kind collision (two types claiming the same
/// kind with different names) — that is a workspace configuration bug,
/// not a runtime input.
#[derive(Default, Clone)]
pub struct CodecRegistry {
    entries: BTreeMap<u16, KindEntry>,
}

impl CodecRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry pre-populated with the builtin primitive kinds.
    pub fn with_builtins() -> Self {
        let mut r = Self::new();
        register_builtin_codecs(&mut r);
        r
    }

    /// Registers `T`'s kind. Idempotent for the same type; panics when a
    /// *different* type (by kind name) already owns the kind.
    pub fn register<T: WireMessage>(&mut self) {
        fn decode_to_payload<T: WireMessage>(body: &[u8]) -> Option<Payload> {
            T::decode_body(body).map(Payload::message)
        }
        let entry = KindEntry {
            name: T::KIND_NAME,
            decode: decode_to_payload::<T>,
        };
        if let Some(prev) = self.entries.insert(T::KIND, entry) {
            assert_eq!(
                prev.name,
                T::KIND_NAME,
                "wire kind {:#06x} claimed by both {:?} and {:?}",
                T::KIND,
                prev.name,
                T::KIND_NAME
            );
        }
    }

    /// Whether `kind` is registered.
    pub fn contains(&self, kind: u16) -> bool {
        self.entries.contains_key(&kind)
    }

    /// The registered name of `kind`, if any.
    pub fn kind_name(&self, kind: u16) -> Option<&'static str> {
        self.entries.get(&kind).map(|e| e.name)
    }

    /// All registered `(kind, name)` pairs, in kind order.
    pub fn kinds(&self) -> impl Iterator<Item = (u16, &'static str)> + '_ {
        self.entries.iter().map(|(&k, e)| (k, e.name))
    }

    /// Eagerly decodes a full frame through the registered decoder for
    /// its declared kind. `None` for malformed headers, unknown kinds, or
    /// bodies the decoder rejects. The returned payload is typed and is
    /// guaranteed to be of the *declared* kind — a decoder never produces
    /// a value of another kind.
    pub fn decode_frame(&self, frame: &[u8]) -> Option<(u16, Payload)> {
        let (kind, body) = parse_frame(frame)?;
        let entry = self.entries.get(&kind)?;
        Some((kind, (entry.decode)(body)?))
    }
}

impl std::fmt::Debug for CodecRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(k, e)| (k, e.name)))
            .finish()
    }
}

/// Registers `aft-sim`'s own non-primitive kinds: the generic
/// behaviours' junk payload and the super-party cluster envelope.
pub fn register_sim_codecs(registry: &mut CodecRegistry) {
    registry.register::<crate::behaviors::Garbage>();
    registry.register::<crate::cluster::ClusterMsg>();
}

/// The process-global registry behind [`register_global`] /
/// [`global_registry`].
fn global() -> &'static RwLock<CodecRegistry> {
    static GLOBAL: OnceLock<RwLock<CodecRegistry>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let mut registry = CodecRegistry::with_builtins();
        register_sim_codecs(&mut registry);
        RwLock::new(registry)
    })
}

/// Adds kinds to the process-global registry (additive; registering the
/// same type twice is a no-op). Protocol crates expose
/// `register_codecs(&mut CodecRegistry)` functions; `aft-core` installs
/// the whole workspace's kinds through this before wire runs.
pub fn register_global(f: impl FnOnce(&mut CodecRegistry)) {
    f(&mut global().write().expect("codec registry poisoned"));
}

/// A snapshot of the process-global registry (builtins and `aft-sim`'s
/// own kinds always included); kinds registered later are not in it.
pub fn global_registry() -> Arc<CodecRegistry> {
    Arc::new(global().read().expect("codec registry poisoned").clone())
}

/// Resolves one kind's name in the process-global registry without
/// snapshotting it — what a received frame's
/// [`type_name`](Payload::type_name) and recorded misses report.
pub fn global_kind_name(kind: u16) -> Option<&'static str> {
    global()
        .read()
        .expect("codec registry poisoned")
        .kind_name(kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_round_trips() {
        fn rt<T: WireMessage + PartialEq + std::fmt::Debug>(v: T) {
            let mut frame = Vec::new();
            encode_frame(&v, &mut frame);
            assert_eq!(decode_frame_as::<T>(&frame), Some(v), "{frame:?}");
        }
        rt(7u8);
        rt(0xBEEFu16);
        rt(0xDEAD_BEEFu32);
        rt(u64::MAX);
        rt(-5i64);
        rt(42usize);
        rt(true);
        rt(false);
        rt(());
        rt("hello wörld".to_string());
        rt(vec![1u8, 2, 3]);
        rt(vec![0usize, 9, 1 << 40]);
    }

    #[test]
    fn frames_reject_truncation_and_trailing_bytes() {
        let mut frame = Vec::new();
        encode_frame(&0xAABBCCDDu32, &mut frame);
        for cut in 0..frame.len() {
            assert_eq!(parse_frame(&frame[..cut]), None, "cut={cut}");
        }
        let mut long = frame.clone();
        long.push(0);
        assert_eq!(parse_frame(&long), None, "declared len must be exact");
    }

    #[test]
    fn decode_frame_as_checks_the_kind() {
        let mut frame = Vec::new();
        encode_frame(&7u64, &mut frame);
        assert_eq!(decode_frame_as::<u64>(&frame), Some(7));
        // Same body length, different kind: rejected, not reinterpreted.
        assert_eq!(decode_frame_as::<i64>(&frame), None);
        assert_eq!(decode_frame_as::<u8>(&frame), None);
    }

    #[test]
    fn strict_bool_rejects_junk() {
        assert_eq!(bool::decode_body(&[2]), None);
        assert_eq!(bool::decode_body(&[]), None);
        assert_eq!(bool::decode_body(&[1, 0]), None);
    }

    #[test]
    fn session_round_trip_is_pointer_equal() {
        let sid = SessionId::root()
            .child(SessionTag::new("wiresess", 3))
            .child(SessionTag::new("sub", u64::MAX));
        let mut buf = Vec::new();
        put_session(&mut buf, &sid);
        let mut r = WireReader::new(&buf);
        let back = get_session(&mut r).unwrap();
        r.finish().unwrap();
        // Session ids compare by their canonical node's address: the
        // decoded id is the one interned here, not a copy.
        assert_eq!(back, sid, "re-interned");
    }

    /// Encodes a path tag by tag, without building (so without
    /// interning) the session it names.
    fn raw_path(depth: usize, tags: &[(&[u8], u64)]) -> Vec<u8> {
        let mut out = vec![depth as u8];
        for (kind, index) in tags {
            WireWriter::bytes(&mut out, kind);
            WireWriter::u64(&mut out, *index);
        }
        out
    }

    /// An envelope from party 2 in session `<a>/<b>` carrying `5u64`,
    /// written tag by tag so that nothing of it is interned. The kinds are
    /// 21 bytes, unique to `nonce`.
    fn raw_envelope(nonce: u64) -> Vec<u8> {
        let (a, b) = (format!("fz-{nonce:016x}-a"), format!("fz-{nonce:016x}-b"));
        let mut out = 2u32.to_le_bytes().to_vec();
        out.extend(raw_path(2, &[(a.as_bytes(), nonce), (b.as_bytes(), 1)]));
        encode_frame(&5u64, &mut out);
        out
    }

    /// Every complete UTF-8 kind a lenient walk of `bytes` as an envelope
    /// comes by — what a careless reader could have interned. Only the
    /// long ones are returned: a short kind (`"k"`, `""`) may be in the
    /// table on another test's account.
    fn long_kinds_in(bytes: &[u8]) -> Vec<String> {
        let mut r = WireReader::new(bytes);
        let mut kinds = Vec::new();
        let Some(depth) = r.u32().and_then(|_| r.u8()) else {
            return kinds;
        };
        for _ in 0..depth {
            let Some(kind) = r.bytes() else { break };
            kinds.extend(String::from_utf8(kind.to_vec()).ok());
            if r.u64().is_none() {
                break;
            }
        }
        kinds.retain(|kind| kind.len() > MAX_KIND_LEN / 2);
        kinds
    }

    /// The one reader's contract on one input, through both entrances:
    /// no panic; what is refused interned nothing; what is accepted
    /// re-encodes to the bytes it was read from.
    fn check_reader(bytes: &[u8]) {
        let nothing_interned = || {
            for kind in long_kinds_in(bytes) {
                assert!(!SessionTag::kind_is_interned(&kind), "{kind} was interned");
            }
        };
        let on_link = |owner| LinkReader::new(owner).decode(FrameBytes::from(bytes.to_vec()));
        // Somebody else's link refuses it whatever it says, session unread.
        let claimed = WireReader::new(bytes)
            .u32()
            .map(|from| PartyId(from as usize));
        assert!(on_link(PartyId(claimed.map_or(0, |from| from.0 + 1))).is_none());
        nothing_interned();
        let Some((from, session, payload)) = decode_envelope(bytes) else {
            assert!(claimed.and_then(on_link).is_none());
            return nothing_interned();
        };
        let mut again = Vec::new();
        assert!(encode_envelope(from, &session, &payload, &mut again));
        assert_eq!(&again[..], bytes);
        // The sender's own link reads the same envelope.
        let (link_session, link_payload) = on_link(from).expect("the owner's envelope");
        again.clear();
        assert!(encode_envelope(
            from,
            &link_session,
            &link_payload,
            &mut again
        ));
        assert_eq!(&again[..], bytes);
        let _ = payload.to_msg::<u64>();
        let _ = payload.type_name();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// The fuzz target for the one envelope reader: arbitrary bytes,
        /// and valid envelopes with one bit flipped, cut at every offset,
        /// or continued by a foreign tail. Each mutant has kinds of its
        /// own, so a refused one can be held to "nothing interned" even
        /// where its accepted neighbour interned the same path.
        #[test]
        fn the_envelope_reader_is_total_and_interns_nothing_it_refuses(
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
            nonce in proptest::prelude::any::<u64>(),
            flips in proptest::collection::vec(proptest::prelude::any::<usize>(), 8),
            tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..24),
        ) {
            check_reader(&noise);
            // Far apart, so that no bit flip turns one mutant's kinds
            // into its neighbour's.
            let mut nonces = (0u64..).map(|i| nonce.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            let mut fresh = || raw_envelope(nonces.next().expect("endless"));
            let len = fresh().len();
            for flip in flips {
                let mut mutant = fresh();
                mutant[flip / 8 % len] ^= 1 << (flip % 8);
                check_reader(&mutant);
            }
            for cut in 0..=len {
                check_reader(&fresh()[..cut]);
                let mut spliced = fresh()[..cut].to_vec();
                spliced.extend_from_slice(&tail);
                check_reader(&spliced);
            }
        }
    }

    /// The leaves of a tree `depth` tags deep below the root, `width`
    /// children to an inner node, every node of it in the two slot sets
    /// of a [`LinkWriter`] that `kind[0]` and `kind[1]` fall in: the
    /// leaves are the sessions sent, so the first send of one whose
    /// ancestors are not held defines them all, and a chain often evicts
    /// its own anchor.
    fn colliding_tree(kind: &'static str, depth: usize, width: usize) -> Vec<SessionId> {
        let set = |id: &SessionId| usize::from(id.path_key()) % LINK_SETS;
        let root = SessionId::root();
        let sets = [0, 1].map(|i| set(&root.child(SessionTag::new(kind, i))));
        (0..depth).fold(vec![root], |level, _| {
            let children = |parent: &SessionId| {
                (0..256)
                    .map(|i| parent.child(SessionTag::new(kind, i)))
                    .filter(|id| sets.contains(&set(id)))
                    .take(width)
                    .collect::<Vec<_>>()
            };
            level.iter().flat_map(children).collect()
        })
    }

    /// A define's anchor and the slots its chain fills, read off the
    /// session field of an envelope (`None` for any other form).
    fn define_slots(session: &[u8]) -> Option<(u8, Vec<u8>)> {
        let mut r = WireReader::new(session);
        (r.u8()? == SESSION_DEFINE).then_some(())?;
        let anchor = r.u8()?;
        let slots = (0..r.u8()?)
            .map(|_| {
                let slot = r.u8()?;
                r.bytes()?;
                r.u64()?;
                Some(slot)
            })
            .collect::<Option<_>>()?;
        Some((anchor, slots))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]
        /// A writer and a reader per link, two links interleaved, the
        /// leaves of a tree sent — every leaf once, then as drawn — whose
        /// nodes share a few slots, so that defines chain through inner
        /// sessions that never travel on their own and keep evicting each
        /// other, their own anchors included: every envelope reads back as
        /// the id and payload sent, which are what the stateless full form
        /// reads back, at most a slot byte per tag and two bytes longer.
        #[test]
        fn link_tables_return_exactly_the_sent_ids(
            sends in proptest::collection::vec(proptest::prelude::any::<u16>(), 1..200),
        ) {
            let leaves = colliding_tree("link-model", 3, 3);
            let every_leaf = (0..leaves.len() as u16).map(|i| i << 1);
            let mut links = [0, 1].map(|p| (PartyId(p), LinkWriter::new(), LinkReader::new(PartyId(p))));
            let (mut chains, mut evicted_anchors) = (0, 0);
            for send in every_leaf.chain(sends) {
                let (from, writer, reader) = &mut links[usize::from(send & 1)];
                let session = &leaves[usize::from(send >> 1) % leaves.len()];
                let payload = Payload::message(u64::from(send));
                let mut bytes = Vec::new();
                proptest::prop_assert!(writer.encode_envelope(*from, session, &payload, &mut bytes));
                let (got, got_payload) = reader.decode(FrameBytes::from(bytes.clone())).expect("routable");
                let mut stateless = Vec::new();
                proptest::prop_assert!(encode_envelope(*from, session, &payload, &mut stateless));
                let (_, full_session, full_payload) = decode_envelope(&stateless).expect("full form");
                proptest::prop_assert_eq!(&got, session);
                proptest::prop_assert_eq!(&got, &full_session);
                proptest::prop_assert_eq!(got_payload.to_msg::<u64>(), Some(u64::from(send)));
                proptest::prop_assert_eq!(full_payload.to_msg::<u64>(), Some(u64::from(send)));
                proptest::prop_assert!(bytes.len() <= stateless.len() + 2 + session.depth());
                if let Some((anchor, slots)) = define_slots(&bytes[4..]) {
                    chains += usize::from(slots.len() >= 2);
                    evicted_anchors += usize::from(slots.contains(&anchor));
                }
            }
            proptest::prop_assert!(chains > 0, "no define carried two tags");
            proptest::prop_assert!(evicted_anchors > 0, "no chain evicted its anchor");
        }
    }

    /// A define written by hand, so that nothing of it is interned:
    /// `[SESSION_DEFINE][anchor][k]`, then `[slot][kind][index]` per item.
    fn raw_define(anchor: u8, k: usize, items: &[(u8, &[u8], u64)]) -> Vec<u8> {
        let mut out = vec![SESSION_DEFINE, anchor, k as u8];
        for &(slot, kind, index) in items {
            out.push(slot);
            WireWriter::bytes(&mut out, kind);
            WireWriter::u64(&mut out, index);
        }
        out
    }

    /// Slots in a link table, as a slot byte counts them.
    const SLOTS: u8 = LINK_SESSION_SLOTS as u8;

    /// One input to a link reader, hostile or honest.
    enum LinkInput {
        /// An honest define of `leaves[i]` from the root, its two tags into
        /// slots `s` and `t` — the same slot when they collide, which the
        /// later tag then holds.
        FromRoot(usize, u8, u8),
        /// A one-tag define anchored on slot `a`, into slot `s`: accepted
        /// when the model holds `a`, less than sixteen tags deep.
        Extend(u8, u8, u64),
        /// A ref to slot `s` — resolved when the model holds it.
        Ref(u8),
        /// A define anchored on an empty or out-of-range slot.
        LostAnchor(u8, u8),
        /// A define of no tags.
        NoTags(u8),
        /// A define of one tag more than fits below its anchor.
        TooDeep(u8, u8),
        /// A define, one of whose three slots is past the table.
        SlotPastTable(u8, u8),
        /// A define whose first kind is too long, not UTF-8, or cut off.
        BadKind(u8, u8, u8),
        /// A ref's marker and nothing more.
        CutRef,
        /// A well-formed define or ref claiming another sender.
        Impostor(u8),
        /// Plain noise after a good `from`.
        Noise(Vec<u8>),
    }

    fn link_input(word: &[u8]) -> LinkInput {
        let (a, b, c) = (word[1], word[2], word[3]);
        match word[0] % 11 {
            0 => LinkInput::FromRoot(
                usize::from(a),
                b % SLOTS,
                if c < 64 { b } else { c } % SLOTS,
            ),
            1 => LinkInput::Extend(a % SLOTS, b % SLOTS, u64::from(c)),
            2 => LinkInput::Ref(a % (SLOTS + 8)),
            3 => LinkInput::LostAnchor(a, b % SLOTS),
            4 => LinkInput::NoTags(a),
            5 => LinkInput::TooDeep(a, b),
            6 => LinkInput::SlotPastTable(a, b),
            7 => LinkInput::BadKind(a, b % SLOTS, c % SLOTS),
            8 => LinkInput::CutRef,
            9 => LinkInput::Impostor(a),
            _ => LinkInput::Noise(word[4..].to_vec()),
        }
    }

    /// One input's session field, and what a reader whose table is
    /// `model` must do with it: the slots it empties, then — when it is
    /// accepted — the `(slot, id)`s it fills, in order, the last id being
    /// the session read. `refused` are kinds only refused defines carry.
    struct LinkCase {
        field: Vec<u8>,
        emptied: Vec<u8>,
        filled: Vec<(u8, SessionId)>,
    }

    fn link_case(
        input: &LinkInput,
        model: &[Option<SessionId>; LINK_SESSION_SLOTS],
        leaves: &[SessionId],
        refused: &[String; 5],
    ) -> LinkCase {
        let refused = |i: usize| refused[i].as_bytes();
        // The first slot from `a` on, round the table, that `held` says of.
        let first = |a: u8, held: bool| {
            (0..LINK_SESSION_SLOTS)
                .map(|i| (i + usize::from(a)) % LINK_SESSION_SLOTS)
                .find(|&i| model[i].is_some() == held)
        };
        let tag = |id: &SessionId| *id.last().expect("below the root");
        let case = |field, emptied| LinkCase {
            field,
            emptied,
            filled: Vec::new(),
        };
        match *input {
            LinkInput::FromRoot(i, s, t) => {
                let leaf = &leaves[i % leaves.len()];
                let parent = leaf.parent().expect("depth 2");
                let (p, l) = (tag(&parent), tag(leaf));
                let items = [
                    (s, p.kind.as_bytes(), p.index),
                    (t, l.kind.as_bytes(), l.index),
                ];
                LinkCase {
                    field: raw_define(ROOT_ANCHOR, 2, &items),
                    emptied: Vec::new(),
                    filled: vec![(s, parent), (t, leaf.clone())],
                }
            }
            LinkInput::Extend(a, s, index) => {
                let field = raw_define(a, 1, &[(s, b"lr-ext", index)]);
                let anchor = model[usize::from(a)].clone();
                match anchor.filter(|anchor| anchor.depth() < MAX_SESSION_DEPTH) {
                    Some(anchor) => LinkCase {
                        field,
                        emptied: Vec::new(),
                        filled: vec![(s, anchor.child(SessionTag::new("lr-ext", index)))],
                    },
                    None => case(field, vec![s]),
                }
            }
            LinkInput::Ref(slot) => case(vec![SESSION_REF, slot], Vec::new()),
            LinkInput::LostAnchor(a, s) => {
                // An empty slot when there is one, else one past the table.
                let anchor = first(a, false).map_or(SLOTS + a % 128, |i| i as u8);
                case(raw_define(anchor, 1, &[(s, refused(0), 0)]), vec![s])
            }
            LinkInput::NoTags(a) => {
                let anchor = if a % 2 == 0 { ROOT_ANCHOR } else { a % SLOTS };
                case(raw_define(anchor, 0, &[]), Vec::new())
            }
            LinkInput::TooDeep(a, b) => {
                // From the root, or from a held slot.
                let (anchor, depth) = match first(a, true).filter(|_| a % 2 == 1) {
                    Some(i) => (i as u8, model[i].as_ref().map_or(0, SessionId::depth)),
                    None => (ROOT_ANCHOR, 0),
                };
                let k = MAX_SESSION_DEPTH + 1 - depth;
                let items: Vec<(u8, &[u8], u64)> = (0..k)
                    .map(|i| (b.wrapping_add(7 * i as u8) % SLOTS, refused(1), i as u64))
                    .collect();
                let emptied = items.iter().map(|item| item.0).collect();
                case(raw_define(anchor, k, &items), emptied)
            }
            LinkInput::SlotPastTable(at, s) => {
                let items: Vec<(u8, &[u8], u64)> = (0..3)
                    .map(|i| {
                        let slot = if i == at % 3 {
                            SLOTS + s % 128
                        } else {
                            s.wrapping_add(i) % SLOTS
                        };
                        (slot, refused(2), u64::from(i))
                    })
                    .collect();
                let emptied = items.iter().map(|item| item.0).filter(|&slot| slot < SLOTS);
                case(raw_define(ROOT_ANCHOR, 3, &items), emptied.collect())
            }
            LinkInput::BadKind(how, s, t) => {
                let first: &[u8] = match how % 3 {
                    0 => refused(4),
                    1 => &[0xFF, 0xFE],
                    _ => refused(3),
                };
                let mut define = raw_define(ROOT_ANCHOR, 2, &[(s, first, 0), (t, refused(3), 1)]);
                if how % 3 != 2 {
                    return case(define, vec![s, t]);
                }
                // Cut anywhere behind the marker: the slots read before the
                // cut are emptied.
                let cut = 1 + usize::from(how) % (define.len() - 1);
                define.truncate(cut);
                let t_at = 3 + 1 + 4 + first.len() + 8;
                let read = [(3, s), (t_at, t)].into_iter().filter(|&(at, _)| at < cut);
                case(define, read.map(|(_, slot)| slot).collect())
            }
            LinkInput::CutRef => case(vec![SESSION_REF], Vec::new()),
            LinkInput::Impostor(slot) => {
                let slot = slot % SLOTS;
                let p = tag(&leaves[0].parent().expect("depth 2"));
                let field = if slot.is_multiple_of(2) {
                    vec![SESSION_REF, slot]
                } else {
                    raw_define(ROOT_ANCHOR, 1, &[(slot, p.kind.as_bytes(), p.index)])
                };
                case(field, Vec::new())
            }
            LinkInput::Noise(ref noise) => case(noise.clone(), Vec::new()),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]
        /// One link's reader fed arbitrary traffic: defines anchored on an
        /// empty or out-of-range slot, of no tags, of more tags than fit
        /// below the anchor, naming a slot past the table, carrying a kind
        /// too long, not UTF-8 or cut off; cut refs; another sender's
        /// envelopes and noise — between honest defines, some naming one
        /// slot twice, and refs to held, empty and out-of-range slots. It
        /// answers every input as a model of its table says — each hostile
        /// one refused, none a panic — leaves its table as the model's
        /// (every slot a refused define names, as far as its bytes go,
        /// empty), interns no kind of a refused define, and holds one
        /// fixed-size table throughout.
        #[test]
        fn a_link_reader_refuses_what_its_table_cannot_vouch_for(
            nonce in proptest::prelude::any::<u64>(),
            words in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 4..24),
                1..64,
            ),
        ) {
            let leaves = colliding_tree("link-hostile", 2, 4);
            let refused = [
                format!("lr-{nonce:016x}-anchor"),
                format!("lr-{nonce:016x}-deep"),
                format!("lr-{nonce:016x}-past"),
                format!("lr-{nonce:016x}-before"),
                format!("lr-{nonce:016x}-{}", "x".repeat(MAX_KIND_LEN)),
            ];
            let owner = PartyId(2);
            let mut reader = LinkReader::new(owner);
            let mut model = [const { None }; LINK_SESSION_SLOTS];
            for word in &words {
                let input = link_input(word);
                let LinkCase { field, emptied, filled } = link_case(&input, &model, &leaves, &refused);
                let from = if matches!(input, LinkInput::Impostor(_)) { 3 } else { owner.0 as u32 };
                let mut bytes = from.to_le_bytes().to_vec();
                bytes.extend_from_slice(&field);
                // A cut header ends the envelope: what follows it would be
                // read as the rest of the header.
                let cut = match input {
                    LinkInput::BadKind(how, ..) => how % 3 == 2,
                    LinkInput::CutRef | LinkInput::Noise(_) => true,
                    _ => false,
                };
                if !cut {
                    encode_frame(&7u8, &mut bytes);
                }
                let got = reader.decode(FrameBytes::from(bytes));
                let table = reader.slots.as_deref().cloned().unwrap_or([const { None }; LINK_SESSION_SLOTS]);
                if let LinkInput::Noise(_) = input {
                    // Held to totality and the fixed table only: an
                    // accepted ref reads as the model says, and the model
                    // follows whatever the noise did.
                    if let (Some((session, _)), [SESSION_REF, slot, ..]) = (&got, &field[..]) {
                        proptest::prop_assert_eq!(Some(session), model[usize::from(*slot)].as_ref());
                    }
                    model = table;
                } else {
                    let expect = match input {
                        LinkInput::Ref(slot) => model.get(usize::from(slot)).cloned().flatten(),
                        _ => filled.last().map(|(_, id)| id.clone()),
                    };
                    proptest::prop_assert_eq!(got.as_ref().map(|(session, _)| session), expect.as_ref());
                    if let Some((_, payload)) = &got {
                        proptest::prop_assert_eq!(payload.to_msg::<u8>(), Some(7));
                    }
                    if !matches!(input, LinkInput::FromRoot(..) | LinkInput::Extend(..) | LinkInput::Ref(_)) {
                        proptest::prop_assert!(got.is_none());
                    }
                    for slot in emptied {
                        model[usize::from(slot)] = None;
                    }
                    for (slot, id) in filled.into_iter().filter(|_| got.is_some()) {
                        model[usize::from(slot)] = Some(id);
                    }
                    proptest::prop_assert_eq!(&table, &model);
                }
                proptest::prop_assert!(reader.heap_bytes() <= 8 * LINK_SESSION_SLOTS);
            }
            for kind in &refused {
                proptest::prop_assert!(!SessionTag::kind_is_interned(kind), "{} was interned", kind);
            }
        }
    }

    /// A connection that goes down and is replaced: the peer's outbox,
    /// re-encoded by a fresh writer for the fresh reader, then new
    /// traffic, reads back as what the first connection would have
    /// carried — though the old connection's bytes would not. The
    /// sessions' parents never travel, so the fresh writer's defines
    /// chain through them.
    #[test]
    fn a_replayed_outbox_reads_back_through_fresh_tables() {
        let leaves = colliding_tree("link-replay", 2, 3);
        let from = PartyId(1);
        let traffic: Vec<(SessionId, Payload)> = (0..300u64)
            .map(|i| (leaves[(i * 5 % 9) as usize].clone(), Payload::message(i)))
            .collect();
        let (outbox, later) = traffic.split_at(200);
        let carry = |writer: &mut LinkWriter, sends: &[(SessionId, Payload)]| -> Vec<Vec<u8>> {
            sends
                .iter()
                .map(|(session, payload)| {
                    let mut bytes = Vec::new();
                    assert!(writer.encode_envelope(from, session, payload, &mut bytes));
                    bytes
                })
                .collect()
        };
        let read = |reader: &mut LinkReader, frames: &[Vec<u8>]| -> Vec<(SessionId, Option<u64>)> {
            frames
                .iter()
                .map(|bytes| {
                    let (session, payload) = reader
                        .decode(FrameBytes::from(bytes.clone()))
                        .expect("routable");
                    (session, payload.to_msg::<u64>())
                })
                .collect()
        };
        // The first connection, had it lived.
        let original = read(
            &mut LinkReader::new(from),
            &carry(&mut LinkWriter::new(), &traffic),
        );
        // It carried the outbox, then died; a new one replays and goes on.
        let mut old_writer = LinkWriter::new();
        let old = carry(&mut old_writer, outbox);
        let mut writer = LinkWriter::new();
        let mut replayed = carry(&mut writer, outbox);
        assert!(replayed
            .iter()
            .any(|bytes| define_slots(&bytes[4..]).is_some_and(|(_, slots)| slots.len() >= 2)));
        replayed.extend(carry(&mut writer, later));
        assert_eq!(read(&mut LinkReader::new(from), &replayed), original);
        // The old connection's tables are gone with it: what its writer
        // would send next names slots a fresh reader never filled.
        let stale = carry(&mut old_writer, later);
        let mut fresh = LinkReader::new(from);
        assert!(stale
            .iter()
            .any(|bytes| fresh.decode(FrameBytes::from(bytes.clone())).is_none()));
        assert_eq!(old.len(), outbox.len());
    }

    #[test]
    fn registry_names_and_eager_decode() {
        let reg = CodecRegistry::with_builtins();
        assert_eq!(reg.kind_name(u64::KIND), Some("u64"));
        assert!(reg.kinds().count() >= 10);
        let mut frame = Vec::new();
        encode_frame(&31337u64, &mut frame);
        let (kind, payload) = reg.decode_frame(&frame).unwrap();
        assert_eq!(kind, u64::KIND);
        assert_eq!(payload.to_msg::<u64>(), Some(31337));
        // Unknown kind: None, not a panic.
        frame[0] = 0xFF;
        frame[1] = 0x7E;
        assert!(reg.decode_frame(&frame).is_none());
    }

    #[test]
    fn registry_register_is_idempotent() {
        let mut reg = CodecRegistry::new();
        reg.register::<u64>();
        reg.register::<u64>();
        assert_eq!(reg.kinds().count(), 1);
    }

    #[test]
    fn global_registry_snapshot_includes_builtins() {
        let snap = global_registry();
        assert!(snap.contains(bool::KIND));
    }

    #[test]
    fn acast_kind_sets_the_high_bit() {
        assert_eq!(acast_kind(0x0020), 0x8020);
        assert_ne!(acast_kind(u8::KIND), u8::KIND);
    }

    #[test]
    fn builtin_body_hints_bound_real_encodings() {
        fn check<T: WireMessage>(v: T) {
            let max = T::MAX_BODY_HINT.expect("builtin scalar has a hint");
            let mut body = Vec::new();
            v.encode_body(&mut body);
            assert!(
                body.len() <= max,
                "{}: {} > {max}",
                T::KIND_NAME,
                body.len()
            );
        }
        check(u8::MAX);
        check(u16::MAX);
        check(u32::MAX);
        check(u64::MAX);
        check(i64::MIN);
        check(usize::MAX);
        check(true);
        check(());
        // Variable-length builtins advertise no bound.
        assert_eq!(<String as WireMessage>::MAX_BODY_HINT, None);
        assert_eq!(<Vec<u8> as WireMessage>::MAX_BODY_HINT, None);
        assert_eq!(<Vec<usize> as WireMessage>::MAX_BODY_HINT, None);
    }

    #[test]
    fn reader_is_total_on_short_input() {
        let mut r = WireReader::new(&[1, 2]);
        assert_eq!(r.u64(), None);
        assert_eq!(r.u16(), Some(0x0201));
        assert_eq!(r.u8(), None);
        assert!(r.finish().is_some());
    }
}
