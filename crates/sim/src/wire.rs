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
//!   0..=16      full:   depth, then per tag bytes(kind) + u64 index
//!   0xFD        define: 0xFD, slot: u8, then the full form
//!   0xFE        ref:    0xFE, slot: u8
//!   0xFF        refused (a path deeper than any receiver routes)
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
//! session travels as a two-byte *ref*; otherwise as a *define*, which
//! fills the oldest of the four on both ends. A link is FIFO, so the reader's table
//! follows the writer's exactly, and a new connection starts both afresh.
//! The reader takes all three forms, so a stateless writer's bytes are
//! read on a link as well.
//!
//! The reader refuses on the routing header only — a short `from`, a
//! sender other than the link's owner, a ref to an empty or out-of-range
//! slot, a session truncated or over [`MAX_SESSION_DEPTH`] /
//! [`MAX_KIND_LEN`]; nothing is interned, and a refused define leaves
//! its slot empty — and hands the rest on as the payload frame, judged
//! where every representation's is: [`parse_frame`] under
//! [`Payload::view`]. Its table is a fixed 512 bytes, so no byte sequence
//! grows it.

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
use std::cell::RefCell;
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
///
/// A party that sends to several others in one act defines its sessions
/// on each of their links in turn, so the last eight paths written on
/// this thread (one per class of path keys) are kept, bytes and all, and
/// written again by one copy.
pub fn put_session(out: &mut Vec<u8>, session: &SessionId) {
    PUT_MEMO.with_borrow_mut(|memo| {
        let memo = memo.get_or_insert_with(|| Box::new([CachedPath::EMPTY; PUT_MEMO_PATHS]));
        let last = &mut memo[usize::from(session.path_key()) % PUT_MEMO_PATHS];
        if let Some(bytes) = last.bytes_of(session) {
            return out.extend_from_slice(bytes);
        }
        let start = out.len();
        write_session(out, session);
        last.keep(session, &out[start..]);
    })
}

/// [`put_session`]'s encoding, written afresh.
fn write_session(out: &mut Vec<u8>, session: &SessionId) {
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

/// Longest encoded path a [`CachedPath`] holds. The reference stacks'
/// deepest paths, 7 tags of kinds up to 10 bytes, take at most 155; a
/// longer path is encoded or decoded afresh every time.
const CACHED_PATH_LEN: usize = 160;

/// One session and its full-form encoding, as written or read on this
/// thread.
struct CachedPath {
    id: Option<SessionId>,
    len: u8,
    bytes: [u8; CACHED_PATH_LEN],
}

impl CachedPath {
    const EMPTY: CachedPath = CachedPath {
        id: None,
        len: 0,
        bytes: [0; CACHED_PATH_LEN],
    };

    /// The encoding of `session`, when this entry holds it.
    fn bytes_of(&self, session: &SessionId) -> Option<&[u8]> {
        (self.id.as_ref() == Some(session)).then(|| &self.bytes[..usize::from(self.len)])
    }

    /// The id this entry holds, when `encoded` starts with its bytes. A
    /// full form says how long it is, so an encoding that starts with a
    /// whole one is that one: what a decoder reads from it.
    fn id_at(&self, encoded: &[u8]) -> Option<&SessionId> {
        let held = &self.bytes[..usize::from(self.len)];
        self.id.as_ref().filter(|_| encoded.starts_with(held))
    }

    /// Holds `session`, encoded as `encoded` — or nothing, when that is
    /// too long to hold.
    fn keep(&mut self, session: &SessionId, encoded: &[u8]) {
        self.id = None;
        if encoded.len() <= CACHED_PATH_LEN {
            self.bytes[..encoded.len()].copy_from_slice(encoded);
            self.len = encoded.len() as u8;
            self.id = Some(session.clone());
        }
    }
}

/// Slots in each thread's decoded-session cache. On a link, a full path
/// only comes with a define — the first use of a session on that link —
/// and one session is defined on every link it is sent over, close
/// together: an FBA execution at n = 4 carries 14 840 defines over ~970
/// distinct sessions. Without the cache a cold execution of it took 17 %
/// more CPU time (user + sys, p10 of 40 processes, 2-vCPU x86-64 VM).
const SESSION_CACHE_SLOTS: usize = 128;

/// Sessions [`get_session`] decoded on this thread, direct-mapped by a
/// hash of their encoding. Fixed size: a colliding path replaces the
/// slot's occupant, so bytes off a socket can evict entries but never
/// grow the table.
struct SessionCache {
    paths: [CachedPath; SESSION_CACHE_SLOTS],
    /// The slot of the last path decoded: the same session, defined on
    /// the next link, is checked against it before anything is hashed.
    last: usize,
}

/// Sessions [`put_session`] keeps written: on an FBA execution at n = 4,
/// keeping one wrote 45 % of its defines afresh, eight 19 %, sixteen 14 %.
const PUT_MEMO_PATHS: usize = 8;

// Both boxed, and allocated by a thread's first encode or decode of a
// path: a thread that never touches one — a link's socket reader, a
// `threaded` party — carries a pointer, not 22 KB of thread-local storage
// that every new thread would have to clear.
thread_local! {
    static SESSION_CACHE: RefCell<Option<Box<SessionCache>>> = const { RefCell::new(None) };

    static PUT_MEMO: RefCell<Option<Box<[CachedPath; PUT_MEMO_PATHS]>>> =
        const { RefCell::new(None) };
}

/// The cache slot of an encoded session path. Eight bytes per step; the
/// bytes are untrusted, but a forced collision costs one re-interning
/// (a miss), nothing more.
fn session_cache_slot(encoded: &[u8]) -> usize {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut chunks = encoded.chunks_exact(8);
    let mut h = encoded.len() as u64;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
        h = (h.rotate_left(5) ^ word).wrapping_mul(K);
    }
    for &byte in chunks.remainder() {
        h = (h.rotate_left(5) ^ u64::from(byte)).wrapping_mul(K);
    }
    (h >> 32) as usize % SESSION_CACHE_SLOTS
}

/// Reads a session id written by [`put_session`]. The decoded id is the
/// interner's canonical one — pointer-equal to the locally constructed
/// id — so routing works unchanged.
///
/// Interned kinds live for the life of the process, and these bytes may
/// come off a socket: a path deeper than [`MAX_SESSION_DEPTH`] or a kind
/// longer than [`MAX_KIND_LEN`] is malformed, and the whole path is
/// checked before any of it is interned.
///
/// A path this thread decoded moments ago — the same session defined on
/// another link — is found in a small per-thread cache by its bytes: the
/// last one decoded by a comparison alone, any other by a hash probe and
/// a comparison, instead of an interner walk taking two locks per tag.
/// Only ids that passed every check are cached, so a refused path still
/// interns nothing.
pub fn get_session(r: &mut WireReader<'_>) -> Option<SessionId> {
    SESSION_CACHE.with_borrow_mut(|cache| {
        let cache = cache.get_or_insert_with(|| {
            Box::new(SessionCache {
                paths: [CachedPath::EMPTY; SESSION_CACHE_SLOTS],
                last: 0,
            })
        });
        let rest = r.peek_rest();
        if let Some(id) = cache.paths[cache.last].id_at(rest) {
            r.skip(usize::from(cache.paths[cache.last].len))?;
            return Some(id.clone());
        }
        let depth = r.u8()? as usize;
        if depth > MAX_SESSION_DEPTH {
            return None;
        }
        for _ in 0..depth {
            if r.bytes()?.len() > MAX_KIND_LEN {
                return None;
            }
            r.skip(8)?;
        }
        let encoded = &rest[..rest.len() - r.remaining()];
        let slot = session_cache_slot(encoded);
        let entry = &mut cache.paths[slot];
        let id = match entry.id_at(encoded) {
            Some(id) => id.clone(),
            None => {
                let id = intern_path(encoded)?;
                entry.keep(&id, encoded);
                id
            }
        };
        cache.last = slot;
        Some(id)
    })
}

/// Interns a bounds-checked full form. Every kind is validated before the
/// first is interned, so one bad kind keeps the whole path out.
fn intern_path(encoded: &[u8]) -> Option<SessionId> {
    let mut r = WireReader::new(encoded);
    let mut kinds = [""; MAX_SESSION_DEPTH];
    let mut indices = [0; MAX_SESSION_DEPTH];
    let depth = usize::from(r.u8()?);
    for (kind, index) in kinds.iter_mut().zip(&mut indices).take(depth) {
        *kind = std::str::from_utf8(r.bytes()?).ok()?;
        *index = r.u64()?;
    }
    let tags = kinds.iter().zip(indices).take(depth);
    Some(tags.fold(SessionId::root(), |id, (kind, index)| {
        id.child(SessionTag::new(SessionTag::intern_kind(kind), index))
    }))
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

/// First byte of a define: `[SESSION_DEFINE][slot][full form]`. Above
/// [`MAX_SESSION_DEPTH`], so no full form starts with it.
pub(crate) const SESSION_DEFINE: u8 = 0xFD;

/// First byte of a ref: `[SESSION_REF][slot]`.
pub(crate) const SESSION_REF: u8 = 0xFE;

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
/// when the link's table holds it, as a define otherwise (see the
/// [module docs](self), §The envelope). Its [`LinkReader`] must read
/// every envelope it writes, in order; a new connection starts with a
/// new writer.
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

    /// A ref when the session's set holds it, else a define that puts it
    /// in the set's oldest slot. A path no receiver routes takes no slot:
    /// it goes in the full form, whose saturated depth byte is refused.
    fn put_session(&mut self, out: &mut Vec<u8>, session: &SessionId) {
        if session.depth() > MAX_SESSION_DEPTH {
            return put_session(out, session);
        }
        let set = usize::from(session.path_key()) % LINK_SETS;
        let ways = set * LINK_WAYS..(set + 1) * LINK_WAYS;
        let table = slots(&mut self.slots);
        if let Some(slot) = ways
            .clone()
            .find(|&slot| table[slot].as_ref() == Some(session))
        {
            out.extend_from_slice(&[SESSION_REF, slot as u8]);
            return;
        }
        let next = &mut self.next[set];
        let slot = ways.start + usize::from(*next);
        *next = (*next + 1) % LINK_WAYS as u8;
        table[slot] = Some(session.clone());
        out.extend_from_slice(&[SESSION_DEFINE, slot as u8]);
        put_session(out, session);
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

    /// Reads a session in any of its three forms. A define empties its
    /// slot before it reads the path, so a refused one leaves the slot
    /// empty — and every later ref to it refused, as its writer's id is.
    fn get_session(&mut self, r: &mut WireReader<'_>) -> Option<SessionId> {
        match *r.peek_rest().first()? {
            SESSION_REF => {
                r.skip(1)?;
                let slot = usize::from(r.u8()?);
                self.slots.as_ref()?.get(slot)?.clone()
            }
            SESSION_DEFINE => {
                r.skip(1)?;
                let slot = usize::from(r.u8()?);
                let held = slots(&mut self.slots).get_mut(slot)?;
                *held = None;
                let session = get_session(r)?;
                *held = Some(session.clone());
                Some(session)
            }
            _ => get_session(r),
        }
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

    /// [`get_session`] as it was before the cache: every tag re-interned
    /// through the kind table and the session trie. The reference the
    /// cached decoder is checked against.
    fn get_session_uncached(r: &mut WireReader<'_>) -> Option<SessionId> {
        let depth = r.u8()? as usize;
        if depth > MAX_SESSION_DEPTH {
            return None;
        }
        let mut tags = [("", 0); MAX_SESSION_DEPTH];
        for tag in &mut tags[..depth] {
            let kind = std::str::from_utf8(r.bytes()?).ok()?;
            if kind.len() > MAX_KIND_LEN {
                return None;
            }
            *tag = (kind, r.u64()?);
        }
        Some(
            tags[..depth]
                .iter()
                .fold(SessionId::root(), |id, &(kind, index)| {
                    id.child(SessionTag::new(SessionTag::intern_kind(kind), index))
                }),
        )
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]
        /// Differential: over valid paths (few enough that most cases hit
        /// the cache), truncated ones, over-deep ones, over-long and
        /// non-UTF-8 kinds and plain noise, the cached decoder returns
        /// what the uncached one returns and consumes as many bytes; and
        /// what it refuses leaves the interner as it was.
        #[test]
        fn cached_get_session_matches_the_uncached_decoder(
            shape in 0usize..6,
            depth in 0usize..=MAX_SESSION_DEPTH,
            picks in proptest::collection::vec(0usize..3, MAX_SESSION_DEPTH + 2),
            cut in proptest::prelude::any::<usize>(),
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..40),
        ) {
            const KINDS: [&str; 3] = ["diff-a", "diff-b", "diff-c"];
            // Kinds that only ever appear in refused paths.
            const REFUSED: [&str; 3] = ["diff-refused-a", "diff-refused-b", "diff-refused-c"];
            let long = "diff-long-".repeat(MAX_KIND_LEN);
            let path = |kinds: [&'static str; 3], depth: usize| -> Vec<(&[u8], u64)> {
                (0..depth).map(|i| (kinds[picks[i]].as_bytes(), picks[i + 1] as u64)).collect()
            };
            let (mut bytes, refused) = match shape {
                // Valid, followed by whatever comes next in the envelope.
                0 => (raw_path(depth, &path(KINDS, depth)), false),
                // A strict prefix of a valid encoding.
                1 => {
                    let full = raw_path(depth + 1, &path(REFUSED, depth + 1));
                    (full[..cut % full.len()].to_vec(), true)
                }
                // One tag too deep, every tag well-formed.
                2 => {
                    let depth = MAX_SESSION_DEPTH + 1;
                    (raw_path(depth, &path(REFUSED, depth)), true)
                }
                // A well-formed first tag, then a kind over the length bound ...
                3 => {
                    let tags = [(REFUSED[picks[0]].as_bytes(), 1), (long.as_bytes(), 2)];
                    (raw_path(2, &tags), true)
                }
                // ... or one that is not UTF-8.
                4 => {
                    let tags = [(REFUSED[picks[0]].as_bytes(), 1), (&[0xFF, 0xFE][..], 2)];
                    (raw_path(2, &tags), true)
                }
                _ => (Vec::new(), false),
            };
            if shape != 1 {
                bytes.extend_from_slice(&noise);
            }
            // Twice: whatever the first call cached, the second must agree.
            for _ in 0..2 {
                let mut cached = WireReader::new(&bytes);
                let mut reference = WireReader::new(&bytes);
                let got = get_session(&mut cached);
                proptest::prop_assert_eq!(&got, &get_session_uncached(&mut reference));
                if got.is_some() {
                    proptest::prop_assert_eq!(cached.remaining(), reference.remaining());
                }
                proptest::prop_assert!(!(refused && got.is_some()));
            }
            for kind in REFUSED.into_iter().chain([long.as_str()]) {
                proptest::prop_assert!(!SessionTag::kind_is_interned(kind), "{} was interned", kind);
            }
        }
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

    /// Sessions that share link slots: 256 fresh ids, keeping the ids of
    /// two of a [`LinkWriter`]'s slot sets — sixteen to a set of four.
    fn colliding_sessions(prefix: &'static str) -> Vec<SessionId> {
        let ids: Vec<SessionId> = (0..256)
            .map(|i| SessionId::root().child(SessionTag::new(prefix, i)))
            .collect();
        let set = |id: &SessionId| usize::from(id.path_key()) % LINK_SETS;
        let sets = [set(&ids[0]), set(&ids[1])];
        ids.into_iter()
            .filter(|id| sets.contains(&set(id)))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]
        /// A writer and a reader per link, two links interleaved, sessions
        /// drawn from a few slots so that defines keep evicting each
        /// other: every envelope reads back as the id and payload sent,
        /// which are what the stateless full form reads back, at most the
        /// two bytes of a define longer.
        #[test]
        fn link_tables_return_exactly_the_sent_ids(
            sends in proptest::collection::vec(proptest::prelude::any::<u16>(), 1..200),
        ) {
            let pool = colliding_sessions("link-model");
            proptest::prop_assert!(pool.len() > 2 * LINK_WAYS, "slots are shared");
            let mut links = [0, 1].map(|p| (PartyId(p), LinkWriter::new(), LinkReader::new(PartyId(p))));
            for send in sends {
                let (from, writer, reader) = &mut links[usize::from(send & 1)];
                let session = &pool[usize::from(send >> 1) % pool.len()];
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
                proptest::prop_assert!(bytes.len() <= stateless.len() + 2);
            }
        }
    }

    /// What a link reader must do with one hostile or honest input, by a
    /// model of its table: the slots it holds.
    enum LinkInput {
        /// An honest define of `pool[i]` into slot `s` (any `i`, `s`).
        Define(usize, u8),
        /// A ref to slot `s` — resolved when the model holds it.
        Ref(u8),
        /// A define whose slot is past the table.
        DefineOutOfRange(u8),
        /// A define into slot `s` whose path breaks a bound (too deep,
        /// too long a kind, not UTF-8, cut short).
        BadDefine(u8, u8),
        /// Only the marker, or the marker and slot of a define.
        Truncated(u8),
        /// A well-formed define or ref claiming another sender.
        Impostor(u8),
        /// Plain noise after a good `from`.
        Noise(Vec<u8>),
    }

    fn link_input(word: &[u8]) -> LinkInput {
        let (a, b) = (word[1], word[2]);
        match word[0] % 7 {
            0 => LinkInput::Define(usize::from(a), b % LINK_SESSION_SLOTS as u8),
            1 => LinkInput::Ref(a % (LINK_SESSION_SLOTS as u8 + 8)),
            2 => LinkInput::DefineOutOfRange(LINK_SESSION_SLOTS as u8 + a % 192),
            3 => LinkInput::BadDefine(a % LINK_SESSION_SLOTS as u8, b),
            4 => LinkInput::Truncated(a),
            5 => LinkInput::Impostor(a),
            _ => LinkInput::Noise(word[3..].to_vec()),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]
        /// One link's reader fed arbitrary traffic: refs to empty and
        /// out-of-range slots, defines past the table or with a path that
        /// breaks a bound, cut markers, another sender's envelopes and
        /// noise, between honest defines and refs. It answers every input
        /// as a model of its table says — each hostile one refused, none a
        /// panic — interns no kind of a refused path, and holds one
        /// fixed-size table throughout.
        #[test]
        fn a_link_reader_refuses_what_its_table_cannot_vouch_for(
            nonce in proptest::prelude::any::<u64>(),
            words in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 3..24),
                1..64,
            ),
        ) {
            let pool = colliding_sessions("link-hostile");
            let refused = [
                format!("lr-{nonce:016x}-deep"),
                format!("lr-{nonce:016x}-before-long"),
                format!("lr-{nonce:016x}-{}", "x".repeat(MAX_KIND_LEN)),
            ];
            let owner = PartyId(2);
            let mut reader = LinkReader::new(owner);
            let mut model: [Option<SessionId>; LINK_SESSION_SLOTS] = [const { None }; LINK_SESSION_SLOTS];
            for word in &words {
                let input = link_input(word);
                let mut bytes = (owner.0 as u32).to_le_bytes().to_vec();
                let expect: Option<SessionId> = match &input {
                    LinkInput::Define(i, slot) => {
                        let id = &pool[i % pool.len()];
                        bytes.extend([SESSION_DEFINE, *slot]);
                        put_session(&mut bytes, id);
                        model[usize::from(*slot)] = Some(id.clone());
                        Some(id.clone())
                    }
                    LinkInput::Ref(slot) => {
                        bytes.extend([SESSION_REF, *slot]);
                        model.get(usize::from(*slot)).cloned().flatten()
                    }
                    LinkInput::DefineOutOfRange(slot) => {
                        bytes.extend([SESSION_DEFINE, *slot]);
                        put_session(&mut bytes, &pool[0]);
                        None
                    }
                    LinkInput::BadDefine(slot, how) => {
                        bytes.extend([SESSION_DEFINE, *slot]);
                        let tags: Vec<(&[u8], u64)> = match how % 4 {
                            0 => vec![(refused[0].as_bytes(), 0); MAX_SESSION_DEPTH + 1],
                            1 => vec![(refused[1].as_bytes(), 0), (refused[2].as_bytes(), 1)],
                            2 => vec![(refused[1].as_bytes(), 0), (&[0xFF, 0xFE][..], 1)],
                            _ => vec![(refused[1].as_bytes(), 0), (refused[1].as_bytes(), 1)],
                        };
                        let mut path = raw_path(tags.len(), &tags);
                        if how % 4 == 3 {
                            path.truncate(usize::from(*how) % path.len());
                        }
                        bytes.extend(path);
                        model[usize::from(*slot)] = None;
                        None
                    }
                    LinkInput::Truncated(which) => {
                        match which % 3 {
                            0 => bytes.push(SESSION_REF),
                            1 => bytes.push(SESSION_DEFINE),
                            _ => {
                                // A define's slot, then nothing: the slot
                                // is emptied, the path is missing.
                                let slot = which % LINK_SESSION_SLOTS as u8;
                                bytes.extend([SESSION_DEFINE, slot]);
                                model[usize::from(slot)] = None;
                            }
                        }
                        None
                    }
                    LinkInput::Impostor(slot) => {
                        bytes = 3u32.to_le_bytes().to_vec();
                        let slot = slot % LINK_SESSION_SLOTS as u8;
                        if slot.is_multiple_of(2) {
                            bytes.extend([SESSION_REF, slot]);
                        } else {
                            bytes.extend([SESSION_DEFINE, slot]);
                            put_session(&mut bytes, &pool[0]);
                        }
                        None
                    }
                    LinkInput::Noise(noise) => {
                        bytes.extend_from_slice(noise);
                        // Only refusals are held to the model here; an
                        // accepted noise header reads as the model says
                        // its form does (checked below).
                        None
                    }
                };
                // A cut header ends the envelope: what follows it would be
                // read as the rest of the header.
                let cut = match &input {
                    LinkInput::BadDefine(_, how) => how % 4 == 3,
                    LinkInput::Truncated(_) | LinkInput::Noise(_) => true,
                    _ => false,
                };
                if !cut {
                    encode_frame(&7u8, &mut bytes);
                }
                let got = reader.decode(FrameBytes::from(bytes.clone()));
                match input {
                    LinkInput::Noise(_) => {
                        // Mirror what the reader did to the model: a define
                        // with an in-range slot empties or fills that slot.
                        if let [SESSION_DEFINE, slot, ..] = bytes[4..] {
                            if let Some(held) = model.get_mut(usize::from(slot)) {
                                *held = got.as_ref().map(|(session, _)| session.clone());
                            }
                        }
                        if let (Some((session, _)), [SESSION_REF, slot, ..]) = (&got, &bytes[4..]) {
                            proptest::prop_assert_eq!(Some(session), model[usize::from(*slot)].as_ref());
                        }
                    }
                    _ => {
                        proptest::prop_assert_eq!(got.as_ref().map(|(session, _)| session), expect.as_ref());
                        if let Some((_, payload)) = &got {
                            proptest::prop_assert_eq!(payload.to_msg::<u8>(), Some(7));
                        }
                        if !matches!(input, LinkInput::Define(..) | LinkInput::Ref(_)) {
                            proptest::prop_assert!(got.is_none());
                        }
                    }
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
    /// carried — though the old connection's bytes would not.
    #[test]
    fn a_replayed_outbox_reads_back_through_fresh_tables() {
        let pool = colliding_sessions("link-replay");
        let from = PartyId(1);
        let traffic: Vec<(SessionId, Payload)> = (0..300u64)
            .map(|i| (pool[(i % 6) as usize].clone(), Payload::message(i)))
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
    fn ten_thousand_distinct_paths_do_not_grow_the_session_cache() {
        let local = |i: u64| {
            SessionId::root()
                .child(SessionTag::new("cache-bound", i % 7))
                .child(SessionTag::new("leaf", i))
        };
        // Two passes: the second decodes through a cache full of other
        // paths' entries, many of them sharing a slot with the one asked
        // for.
        for _ in 0..2 {
            for i in 0..10_000 {
                let mut buf = Vec::new();
                put_session(&mut buf, &local(i));
                assert_eq!(get_session(&mut WireReader::new(&buf)), Some(local(i)));
            }
        }
        let occupied = SESSION_CACHE.with_borrow(|cache| {
            let paths = &cache.as_ref().expect("decoded on this thread").paths;
            paths.iter().filter(|path| path.id.is_some()).count()
        });
        assert!(occupied <= SESSION_CACHE_SLOTS);
        assert!(occupied > SESSION_CACHE_SLOTS / 2, "the slot hash spreads");
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
