//! Message payloads: typed fast path, inline small-box, lazy wire frames.
//!
//! A [`Payload`] is 32 bytes (`Option<Payload>` too) in one of three
//! representations:
//!
//! * **Typed** — a shared `Arc<dyn Value>`, optionally carrying its
//!   [`WireMessage`] identity so the wire boundary can serialize it.
//!   Outputs ([`Context::output`]) and large messages live here; cloning
//!   is an `Arc` bump. The Rust type name is read from the value's own
//!   vtable, not stored beside it.
//! * **Inline** — the encoded *body* of a small message (≤
//!   [`INLINE_BODY_CAP`] = 22 bytes) stored in the payload itself beside
//!   its kind's vtable and its length: no allocation per message on the
//!   send path, and cloning is a 32-byte copy. No frame header is kept —
//!   [`encode_wire_frame`](Payload::encode_wire_frame) writes it from the
//!   kind and the length, and a view decodes the body directly. Most
//!   protocol control messages (votes, acks, gather sets) take this
//!   path.
//! * **Wire** — a received byte frame, held as a [`FrameBytes`] range of
//!   a shared receive buffer and decoded *lazily*:
//!   [`Payload::view`] decodes through the expected type's own decoder,
//!   so a malformed or kind-spoofed frame simply fails to view — exactly
//!   like an in-memory type-confused value fails to downcast. Every
//!   receiver of bytes — `rt=wire`, an `aft-partyd` link, a nested
//!   cluster message — builds these through the one
//!   [`Payload::from_wire`], sliced out of the burst the envelope arrived
//!   in (no per-frame copy); the kind's diagnostic name is looked up in
//!   the process-global [`CodecRegistry`] only when somebody asks for it.
//!
//! Honest receivers read messages with [`Payload::view`] /
//! [`Payload::to_msg`], which work uniformly across all three
//! representations. A failed view or downcast during a delivery is
//! recorded per kind and surfaces in
//! [`Metrics`](crate::Metrics)`::decode_misses` — type-confused or
//! byte-garbled deliveries are observable, not silently dropped.
//!
//! [`Context::output`]: crate::Context::output
//! [`CodecRegistry`]: crate::wire::CodecRegistry

use crate::wire::{global_kind_name, parse_frame, WireMessage, WireVtable};
use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Maximum encoded *body* size stored inline: what fits beside the
/// variant tag, the length byte and the vtable pointer in 32 bytes.
pub const INLINE_BODY_CAP: usize = 22;

/// Diagnostic name reported for wire frames whose kind no registry entry
/// explains.
const UNKNOWN_WIRE_KIND: &str = "wire:unknown";
/// Diagnostic name reported for byte frames whose header is malformed.
const MALFORMED_WIRE_FRAME: &str = "wire:malformed";
/// A received wire frame: a byte range of a shared read buffer.
///
/// A receiver holds a whole burst of envelopes in one contiguous buffer —
/// one `Arc<[u8]>` allocation, count and bytes together — and hands each
/// payload its frame as a range of that buffer: no per-frame `Vec`.
/// Cloning bumps the `Arc`; the buffer is freed once every frame sliced
/// from it is dropped.
#[derive(Clone)]
pub struct FrameBytes {
    buf: Arc<[u8]>,
    start: u32,
    end: u32,
}

impl FrameBytes {
    /// Slices `buf[start..end]` as a frame. The range must be in bounds.
    pub(crate) fn from_shared(buf: &Arc<[u8]>, start: usize, end: usize) -> Self {
        debug_assert!(start <= end && end <= buf.len());
        // A burst is one act's sends or one socket read's frames: far below 4 GiB.
        let narrow = |at: usize| u32::try_from(at).expect("burst offsets fit in u32");
        FrameBytes {
            buf: Arc::clone(buf),
            start: narrow(start),
            end: narrow(end),
        }
    }

    /// Whether `self` and `other` are ranges of one buffer.
    #[cfg(test)]
    pub(crate) fn shares_buffer_with(&self, other: &FrameBytes) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }

    /// Narrows the frame to its bytes from `at` on, in place — the same
    /// handle on the same buffer, so no `Arc` traffic.
    pub(crate) fn skip_front(mut self, at: usize) -> Self {
        assert!(at <= self.len(), "skip_front past the end of the frame");
        self.start += at as u32;
        self
    }

    /// The frame's bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.start as usize..self.end as usize]
    }
}

impl From<Vec<u8>> for FrameBytes {
    /// Wraps an owned frame (the whole vector) — the path for frames
    /// that were not sliced out of a transport read buffer.
    fn from(frame: Vec<u8>) -> Self {
        let end = u32::try_from(frame.len()).expect("a frame fits in u32");
        FrameBytes {
            buf: frame.into(),
            start: 0,
            end,
        }
    }
}

impl Deref for FrameBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for FrameBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for FrameBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FrameBytes({} bytes)", self.as_slice().len())
    }
}

/// What a typed payload holds: any shareable value, which names its own
/// type through its vtable.
trait Value: Any + Send + Sync {
    fn type_name(&self) -> &'static str;
}

impl<T: Any + Send + Sync> Value for T {
    fn type_name(&self) -> &'static str {
        std::any::type_name::<T>()
    }
}

#[derive(Clone)]
enum Repr {
    Typed {
        value: Arc<dyn Value>,
        /// Wire identity when constructed from a [`WireMessage`]
        /// (`None` for plain outputs, which never cross the wire).
        vt: Option<&'static WireVtable>,
    },
    /// A small message's encoded body, `body[..len]`; the frame header
    /// is `vt.kind` and `len`.
    Inline {
        vt: &'static WireVtable,
        len: u8,
        body: [u8; INLINE_BODY_CAP],
    },
    Wire {
        frame: FrameBytes,
        /// The kind a well-formed header declares; `None` when
        /// [`parse_frame`] refuses the frame.
        kind: Option<u16>,
    },
}

/// A protocol message payload or instance output, in one of three
/// representations: an inline body, a shared typed value, or lazily
/// decoded wire bytes.
///
/// ```
/// use aft_sim::Payload;
///
/// // Outputs: dynamically typed, read back with `downcast_ref`.
/// let out = Payload::new(vec![1u32, 2, 3]);
/// assert_eq!(out.downcast_ref::<Vec<u32>>(), Some(&vec![1, 2, 3]));
///
/// // Messages: wire-typed, read back with `view`/`to_msg` on every
/// // backend (u64 implements `WireMessage` as a builtin kind).
/// let msg = Payload::message(7u64);
/// assert_eq!(msg.to_msg::<u64>(), Some(7));
/// assert_eq!(msg.to_msg::<u32>(), None, "kind-checked");
/// ```
#[derive(Clone)]
pub struct Payload(Repr);

/// A decoded message handed out by [`Payload::view`]: borrowed from a
/// typed payload, owned when decoded from bytes. `Deref`s to the
/// message either way.
pub enum MsgView<'a, T> {
    /// Borrowed from an in-memory typed payload.
    Borrowed(&'a T),
    /// Decoded on the fly from an inline body or a wire frame.
    Owned(T),
}

impl<T> Deref for MsgView<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match self {
            MsgView::Borrowed(v) => v,
            MsgView::Owned(v) => v,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for MsgView<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

thread_local! {
    /// Per-kind decode/downcast misses observed on this thread since the
    /// last drain. `deliver_counted` drains it around every delivery, so
    /// the counts attribute to the run whose dispatch produced them.
    static MISSES: RefCell<Vec<(&'static str, u64)>> = const { RefCell::new(Vec::new()) };
    /// Reusable encode scratch for the small-box probe.
    static ENCODE_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

fn record_miss(kind: &'static str) {
    MISSES.with(|m| {
        let mut m = m.borrow_mut();
        if let Some(entry) = m.iter_mut().find(|(k, _)| *k == kind) {
            entry.1 += 1;
        } else {
            m.push((kind, 1));
        }
    });
}

/// Drains this thread's miss counters into `sink` (pass `None` to
/// discard) and returns how many misses that was. Called by the party host
/// before and after each dispatch.
pub(crate) fn drain_misses(mut sink: Option<&mut Vec<(&'static str, u64)>>) -> u64 {
    MISSES.with(|m| {
        let mut m = m.borrow_mut();
        if m.is_empty() {
            return 0;
        }
        let mut total = 0;
        for (kind, count) in m.drain(..) {
            total += count;
            let Some(sink) = &mut sink else { continue };
            if let Some(entry) = sink.iter_mut().find(|(k, _)| *k == kind) {
                entry.1 += count;
            } else {
                sink.push((kind, count));
            }
        }
        total
    })
}

impl Payload {
    /// Wraps a value as a dynamically-typed payload (outputs, child
    /// results — anything that never crosses the wire).
    pub fn new<T: Any + Send + Sync>(value: T) -> Self {
        Payload(Repr::Typed {
            value: Arc::new(value),
            vt: None,
        })
    }

    /// Wraps a protocol message, keeping its wire identity.
    ///
    /// Small messages (encoded body ≤ `INLINE_BODY_CAP` bytes) are
    /// stored as inline bodies — no allocation; larger ones share an
    /// `Arc` and encode lazily at the wire boundary. Messages with an
    /// adversarial [`raw_frame`](WireMessage::raw_frame) stay typed so
    /// in-memory backends observe the same junk *values* the wire
    /// backend turns into junk *bytes*.
    ///
    /// Types advertising a [`MAX_BODY_HINT`](WireMessage::MAX_BODY_HINT)
    /// pick their representation at compile time: a bound within the
    /// inline cap guarantees the inline arm (the typed fallback is
    /// statically dead), and a bound above it skips the (always wasted)
    /// probe encode.
    pub fn message<T: WireMessage>(value: T) -> Self {
        // Both predicates are const-foldable: for hinted types exactly
        // one of the branches below survives monomorphization.
        let hinted_inline = matches!(T::MAX_BODY_HINT, Some(max) if max <= INLINE_BODY_CAP);
        let hinted_large = matches!(T::MAX_BODY_HINT, Some(max) if max > INLINE_BODY_CAP);
        if !hinted_large && value.raw_frame().is_none() {
            let inline = ENCODE_SCRATCH.with(|scratch| {
                let mut scratch = scratch.borrow_mut();
                scratch.clear();
                value.encode_body(&mut scratch);
                if hinted_inline {
                    debug_assert!(
                        scratch.len() <= INLINE_BODY_CAP,
                        "{}::MAX_BODY_HINT understates its encoding ({} body bytes)",
                        T::KIND_NAME,
                        scratch.len(),
                    );
                }
                // The cap comparison stays even when the hint proves it
                // always true: the branch hands the optimizer the length
                // bound that keeps the copy below a few fixed moves
                // (folding it away regressed this path ~30% by forcing
                // an unbounded memcpy call).
                if scratch.len() <= INLINE_BODY_CAP {
                    let mut body = [0u8; INLINE_BODY_CAP];
                    body[..scratch.len()].copy_from_slice(&scratch);
                    Some(Repr::Inline {
                        vt: &T::VTABLE,
                        len: scratch.len() as u8,
                        body,
                    })
                } else {
                    None
                }
            });
            if let Some(repr) = inline {
                return Payload(repr);
            }
        }
        Payload(Repr::Typed {
            value: Arc::new(value),
            vt: Some(&T::VTABLE),
        })
    }

    /// Wraps a received wire frame. Decoding happens lazily in
    /// [`view`](Payload::view); a malformed header yields a payload no
    /// view ever matches. Nothing is looked up here: the kind's
    /// diagnostic name is resolved when [`type_name`](Payload::type_name)
    /// or a recorded miss asks for it.
    pub fn from_wire(frame: impl Into<FrameBytes>) -> Self {
        let frame: FrameBytes = frame.into();
        let kind = parse_frame(&frame).map(|(kind, _)| kind);
        Payload(Repr::Wire { frame, kind })
    }

    /// The received frame a wire payload is a range of.
    #[cfg(test)]
    pub(crate) fn wire_frame(&self) -> Option<&FrameBytes> {
        match &self.0 {
            Repr::Wire { frame, .. } => Some(frame),
            _ => None,
        }
    }

    /// Views the payload as message type `T`, uniformly across
    /// representations: typed payloads borrow, inline bodies and wire
    /// frames decode through `T`'s own decoder (kind-checked first).
    /// Returns `None` — and records a per-kind decode miss — for
    /// type-confused values, kind mismatches and malformed bytes.
    pub fn view<T: WireMessage>(&self) -> Option<MsgView<'_, T>> {
        // Hits return from inside the match: collecting them in a local
        // first moved every view once more (+1.5 % CPU on `fba-n7-sim`).
        match &self.0 {
            Repr::Typed { value, .. } => {
                let value: &dyn Any = value.as_ref();
                if let Some(v) = value.downcast_ref::<T>() {
                    return Some(MsgView::Borrowed(v));
                }
            }
            Repr::Inline { vt, len, body } if vt.kind == T::KIND => {
                if let Some(v) = T::decode_body(&body[..*len as usize]) {
                    return Some(MsgView::Owned(v));
                }
            }
            Repr::Wire { frame, kind } if *kind == Some(T::KIND) => {
                if let Some(v) = crate::wire::decode_frame_as::<T>(frame) {
                    return Some(MsgView::Owned(v));
                }
            }
            _ => {}
        }
        record_miss(self.type_name());
        None
    }

    /// Owned convenience over [`view`](Payload::view) (clones borrowed
    /// values) — handy for small `Copy` messages.
    pub fn to_msg<T: WireMessage + Clone>(&self) -> Option<T> {
        self.view::<T>().map(|v| match v {
            MsgView::Borrowed(b) => b.clone(),
            MsgView::Owned(o) => o,
        })
    }

    /// Borrows a *typed* payload as `T`. Wire frames and inline bodies always
    /// return `None` (use [`view`](Payload::view) for messages); a failed
    /// downcast during a delivery is recorded as a decode miss.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        match &self.0 {
            Repr::Typed { value, .. } => {
                let value: &dyn Any = value.as_ref();
                let hit = value.downcast_ref::<T>();
                if hit.is_none() {
                    record_miss(self.type_name());
                }
                hit
            }
            _ => {
                record_miss(self.type_name());
                None
            }
        }
    }

    /// A handle on the `T` a *typed* payload holds: the payload's own
    /// allocation, shared rather than copied — how a parent keeps a child's
    /// large output. Misses are answered and recorded as by
    /// [`downcast_ref`](Payload::downcast_ref).
    pub fn downcast_arc<T: Any + Send + Sync>(&self) -> Option<Arc<T>> {
        self.downcast_ref::<T>()?;
        let Repr::Typed { value, .. } = &self.0 else {
            return None;
        };
        let value: Arc<dyn Any + Send + Sync> = value.clone();
        value.downcast().ok()
    }

    /// Whether a *typed* payload holds a `T`.
    pub fn is<T: Any>(&self) -> bool {
        match &self.0 {
            Repr::Typed { value, .. } => {
                let value: &dyn Any = value.as_ref();
                value.is::<T>()
            }
            _ => false,
        }
    }

    /// The payload's diagnostic name: the *kind name* whenever the
    /// payload has a wire identity (typed messages, inline bodies, and
    /// received wire frames — `wire:unknown` / `wire:malformed` when no
    /// registry entry explains received bytes), the Rust type name for
    /// plain typed values (outputs).
    pub fn type_name(&self) -> &'static str {
        match &self.0 {
            // On the `dyn Value`, not the `Arc`: the blanket impl covers
            // the `Arc` itself too.
            Repr::Typed { value, vt: None } => value.as_ref().type_name(),
            Repr::Typed { vt: Some(vt), .. } => vt.name,
            Repr::Inline { vt, .. } => vt.name,
            Repr::Wire { kind: None, .. } => MALFORMED_WIRE_FRAME,
            Repr::Wire {
                kind: Some(kind), ..
            } => global_kind_name(*kind).unwrap_or(UNKNOWN_WIRE_KIND),
        }
    }

    /// The frame kind this payload carries on the wire, if it has one:
    /// outputs and received frames with a malformed header have none.
    pub fn wire_kind(&self) -> Option<u16> {
        match &self.0 {
            Repr::Typed { vt, .. } => vt.as_ref().map(|vt| vt.kind),
            Repr::Inline { vt, .. } => Some(vt.kind),
            Repr::Wire { kind, .. } => *kind,
        }
    }

    /// Whether [`encode_wire_frame`](Payload::encode_wire_frame) writes a
    /// frame: everything but a typed payload without a wire identity.
    pub(crate) fn has_wire_frame(&self) -> bool {
        !matches!(self.0, Repr::Typed { vt: None, .. })
    }

    /// Appends this payload's wire frame to `out`. Returns `false` for
    /// typed payloads without a wire identity (outputs), which never
    /// legitimately reach a wire boundary.
    pub fn encode_wire_frame(&self, out: &mut Vec<u8>) -> bool {
        match &self.0 {
            Repr::Typed { value, vt } => match vt {
                Some(vt) => {
                    (vt.encode_frame)(value.as_ref(), out);
                    true
                }
                None => false,
            },
            Repr::Inline { vt, len, body } => {
                out.extend_from_slice(&vt.kind.to_le_bytes());
                out.extend_from_slice(&u32::from(*len).to_le_bytes());
                out.extend_from_slice(&body[..*len as usize]);
                true
            }
            Repr::Wire { frame, .. } => {
                out.extend_from_slice(frame);
                true
            }
        }
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload<{}>", self.type_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_frame, WireReader, WireWriter};

    #[derive(Debug, PartialEq)]
    struct A(u8);
    #[derive(Debug, PartialEq)]
    struct B(u8);

    #[derive(Debug, Clone, PartialEq)]
    struct Big(Vec<u64>);
    impl WireMessage for Big {
        const KIND: u16 = crate::wire::KIND_TEST_BASE + 1;
        const KIND_NAME: &'static str = "test-big";
        fn encode_body(&self, out: &mut Vec<u8>) {
            for &v in &self.0 {
                WireWriter::u64(out, v);
            }
        }
        fn decode_body(bytes: &[u8]) -> Option<Self> {
            if !bytes.len().is_multiple_of(8) {
                return None;
            }
            let mut r = WireReader::new(bytes);
            let mut out = Vec::new();
            while r.remaining() > 0 {
                out.push(r.u64()?);
            }
            Some(Big(out))
        }
    }

    #[test]
    fn downcast_success_and_failure() {
        let p = Payload::new(A(3));
        assert!(p.is::<A>());
        assert!(!p.is::<B>());
        assert_eq!(p.downcast_ref::<A>(), Some(&A(3)));
        assert_eq!(p.downcast_ref::<B>(), None);
        drain_misses(None);
    }

    #[test]
    fn clone_shares_value() {
        let p = Payload::new(A(9));
        let q = p.clone();
        assert_eq!(q.downcast_ref::<A>(), Some(&A(9)));
        // A handle taken from either is the one allocation both hold.
        let held = p.downcast_arc::<A>().expect("an A");
        assert!(std::ptr::eq(&*held, q.downcast_ref::<A>().unwrap()));
        assert!(p.downcast_arc::<B>().is_none());
        assert!(Payload::message(7u64).downcast_arc::<u64>().is_none());
        drain_misses(None);
    }

    #[test]
    fn debug_includes_type_name() {
        let p = Payload::new(A(1));
        let s = format!("{p:?}");
        assert!(s.contains("A"), "{s}");
    }

    #[test]
    fn small_message_is_inline_and_views_back() {
        let p = Payload::message(0xFEEDu64);
        assert!(matches!(p.0, Repr::Inline { .. }), "u64 must small-box");
        assert_eq!(p.to_msg::<u64>(), Some(0xFEED));
        assert_eq!(p.type_name(), "u64");
        assert_eq!(p.wire_kind(), Some(<u64 as WireMessage>::KIND));
        // The header is rebuilt from the kind and the length.
        let (mut frame, mut expect) = (Vec::new(), Vec::new());
        assert!(p.encode_wire_frame(&mut frame));
        encode_frame(&0xFEEDu64, &mut expect);
        assert_eq!(frame, expect);
        // Inline bodies are not typed values.
        assert_eq!(p.downcast_ref::<u64>(), None);
        drain_misses(None);
    }

    /// A payload rides in every in-flight envelope, every outgoing send
    /// and every effect, so its size is paid once per message in each.
    #[test]
    fn payloads_and_what_carries_them_stay_within_their_byte_budget() {
        use std::mem::size_of;
        assert!(
            size_of::<Payload>() <= 32,
            "a payload is {} bytes, budget 32: shrink `Repr`'s largest arm — the \
             inline body (`INLINE_BODY_CAP`), the typed value's handle and vtable, \
             or the wire frame's range and kind",
            size_of::<Payload>()
        );
        assert!(
            size_of::<Option<Payload>>() <= 32,
            "an optional payload is {} bytes, budget 32: `Repr`'s tag lost the \
             spare values `Option` keeps its `None` in",
            size_of::<Option<Payload>>()
        );
        assert!(
            size_of::<crate::network::Envelope>() <= 72,
            "an envelope is {} bytes, budget 72: shrink `Payload`, or `Envelope`'s \
             endpoints, session, seq and born_step",
            size_of::<crate::network::Envelope>()
        );
        assert!(
            size_of::<crate::node::Outgoing>() <= 48,
            "an outgoing send is {} bytes, budget 48: shrink `Payload`, or \
             `Outgoing`'s destination and session",
            size_of::<crate::node::Outgoing>()
        );
    }

    #[test]
    fn large_message_stays_typed_with_wire_identity() {
        let big = Big((0..10).collect());
        let p = Payload::message(big.clone());
        assert!(matches!(p.0, Repr::Typed { vt: Some(_), .. }));
        assert_eq!(&*p.view::<Big>().unwrap(), &big);
        let mut frame = Vec::new();
        assert!(p.encode_wire_frame(&mut frame));
        let mut expect = Vec::new();
        encode_frame(&big, &mut expect);
        assert_eq!(frame, expect);
    }

    #[test]
    fn view_is_kind_checked_across_representations() {
        // Typed, inline, wire: a u64 payload never views as u32.
        let typed = Payload::message(Big(vec![1]));
        let inline = Payload::message(5u64);
        let mut frame = Vec::new();
        encode_frame(&5u64, &mut frame);
        let wire = Payload::from_wire(frame);
        for p in [&typed, &inline, &wire] {
            assert!(p.view::<u32>().is_none(), "{p:?}");
        }
        assert_eq!(wire.to_msg::<u64>(), Some(5));
        assert_eq!(wire.type_name(), "u64");
        drain_misses(None);
    }

    #[test]
    fn malformed_wire_frames_never_view_and_are_named() {
        let junk = Payload::from_wire(vec![1, 2, 3]);
        assert_eq!(junk.type_name(), "wire:malformed");
        assert!(junk.view::<u64>().is_none());
        // Unknown kind with a consistent header.
        let mut frame = 0x7EEEu16.to_le_bytes().to_vec();
        frame.extend_from_slice(&2u32.to_le_bytes());
        frame.extend_from_slice(&[9, 9]);
        let unknown = Payload::from_wire(frame);
        assert_eq!(unknown.type_name(), "wire:unknown");
        assert!(unknown.view::<u16>().is_none());
        drain_misses(None);
    }

    #[test]
    fn misses_are_recorded_per_kind() {
        drain_misses(None);
        let p = Payload::message(7u64);
        assert!(p.view::<u32>().is_none());
        assert!(p.view::<u32>().is_none());
        let q = Payload::new(A(1));
        assert!(q.downcast_ref::<B>().is_none());
        let mut sink = Vec::new();
        drain_misses(Some(&mut sink));
        assert_eq!(sink.iter().find(|(k, _)| *k == "u64"), Some(&("u64", 2)));
        assert!(sink.iter().any(|(k, c)| k.contains("A") && *c == 1));
        // Drained: a second drain sees nothing.
        let mut sink2 = Vec::new();
        drain_misses(Some(&mut sink2));
        assert!(sink2.is_empty());
    }

    #[test]
    fn payload_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Payload>();
    }

    #[test]
    fn frame_bytes_slices_share_one_buffer() {
        let mut buf = Vec::new();
        encode_frame(&0x11u64, &mut buf);
        let first_len = buf.len();
        encode_frame(&0x22u64, &mut buf);
        let shared: Arc<[u8]> = buf.into();
        let a = Payload::from_wire(FrameBytes::from_shared(&shared, 0, first_len));
        let b = Payload::from_wire(FrameBytes::from_shared(&shared, first_len, shared.len()));
        assert_eq!(a.to_msg::<u64>(), Some(0x11));
        assert_eq!(b.to_msg::<u64>(), Some(0x22));
        // Both payloads (and their clones) alias the one buffer.
        let c = b.clone();
        assert_eq!(Arc::strong_count(&shared), 4);
        assert_eq!(c.to_msg::<u64>(), Some(0x22));
        drop((a, b, c));
        assert_eq!(Arc::strong_count(&shared), 1, "slices released the buffer");
    }

    #[derive(Debug, Clone, PartialEq)]
    struct HintedPair(u64, u64);
    impl WireMessage for HintedPair {
        const KIND: u16 = crate::wire::KIND_TEST_BASE + 2;
        const KIND_NAME: &'static str = "test-hinted-pair";
        const MAX_BODY_HINT: Option<usize> = Some(16);
        fn encode_body(&self, out: &mut Vec<u8>) {
            WireWriter::u64(out, self.0);
            WireWriter::u64(out, self.1);
        }
        fn decode_body(bytes: &[u8]) -> Option<Self> {
            let mut r = WireReader::new(bytes);
            let v = HintedPair(r.u64()?, r.u64()?);
            r.finish()?;
            Some(v)
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    struct HintedWide([u64; 8]);
    impl WireMessage for HintedWide {
        const KIND: u16 = crate::wire::KIND_TEST_BASE + 3;
        const KIND_NAME: &'static str = "test-hinted-wide";
        const MAX_BODY_HINT: Option<usize> = Some(64);
        fn encode_body(&self, out: &mut Vec<u8>) {
            for v in self.0 {
                WireWriter::u64(out, v);
            }
        }
        fn decode_body(bytes: &[u8]) -> Option<Self> {
            let mut r = WireReader::new(bytes);
            let mut vs = [0u64; 8];
            for v in &mut vs {
                *v = r.u64()?;
            }
            r.finish()?;
            Some(HintedWide(vs))
        }
    }

    #[test]
    fn body_hints_pick_the_representation_statically() {
        let small = Payload::message(HintedPair(1, 2));
        assert!(matches!(small.0, Repr::Inline { .. }), "≤ cap hint inlines");
        assert_eq!(small.to_msg::<HintedPair>(), Some(HintedPair(1, 2)));
        let wide = Payload::message(HintedWide([7; 8]));
        assert!(
            matches!(wide.0, Repr::Typed { vt: Some(_), .. }),
            "> cap hint skips the probe and stays typed"
        );
        assert_eq!(wide.to_msg::<HintedWide>(), Some(HintedWide([7; 8])));
        // Both still encode well-formed frames at the wire boundary.
        for p in [&small, &wide] {
            let mut frame = Vec::new();
            assert!(p.encode_wire_frame(&mut frame));
            assert!(crate::wire::parse_frame(&frame).is_some());
        }
    }
}
