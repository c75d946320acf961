//! Identifiers: parties and hierarchical protocol sessions.
//!
//! [`SessionId`] paths are *hash-consed*: every distinct tag path is
//! stored exactly once in a global trie of interned nodes and a
//! `SessionId` is a reference to that canonical storage. Cloning a
//! session id — the per-send hot path, since every envelope carries one —
//! is a pointer copy instead of a `Vec` allocation, and equality/hashing
//! compare one machine word instead of walking the path.
//!
//! The interner is a *trie*: children resolve through a single
//! `(parent, tag)`-keyed table, so deriving a child
//! ([`SessionId::child`], the session-spawn hot path) takes one read
//! lock and allocates nothing on a hit — no path `Vec` is built just to
//! probe the table. Walking up ([`SessionId::parent`]) follows a stored
//! pointer in O(1).
//!
//! A node stores no path: its parent, its own (leaf) tag, its depth, its
//! path key and its arena index, 40 bytes per distinct session and
//! nothing beside them.
//! What reads the whole path — [`starts_with`](SessionId::starts_with),
//! [`Ord`], `Display`/`Debug`, the wire codec — walks the parent links
//! instead ([`SessionId::tags_leaf_first`]). An n = 7 FBA interns 4 258
//! sessions over 21 941 tags, and a stored path copy of each was 527 KB
//! the walk does not need.
//!
//! Every interned session also carries a **dense arena index** assigned
//! at interning time. [`Node`](crate::Node) keys its per-session state by
//! that index instead of hashing session ids, which removes hash lookups
//! from the delivery loop entirely.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{OnceLock, RwLock};

/// A party (processor) identifier in `0..n`.
///
/// The secret-sharing layer maps party `i` to the field point `i + 1`
/// (zero is reserved for the secret).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct PartyId(pub usize);

impl fmt::Display for PartyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<usize> for PartyId {
    fn from(v: usize) -> Self {
        PartyId(v)
    }
}

/// A set of parties: a bitset over party ids, 16 bytes. Parties `0..64`
/// live in one inline word, so a set over any `n ≤ 64` never touches the
/// allocator; the words for ids from 64 up sit behind one pointer, boxed
/// on the first such id and sized lazily from the highest one inserted.
/// No size is stored: [`len`](PartySet::len) counts the bits.
///
/// This is the one collection protocol handlers key by party. A vote is
/// an `insert`, a quorum test a `len`, and iteration is in ascending
/// party order *by construction* — so nothing an instance emits while
/// walking a set can depend on a hasher, and deterministic replay needs
/// no collect-and-sort. There is no upper bound on ids, but an id is a
/// bit position: check a peer-named index against `n` before inserting
/// it, or one junk message sizes the set.
///
/// ```
/// use aft_sim::{PartyId, PartySet};
/// let mut votes = PartySet::new();
/// assert!(votes.insert(PartyId(70)));
/// assert!(votes.insert(PartyId(3)));
/// assert!(!votes.insert(PartyId(3)), "a duplicate vote");
/// assert_eq!(votes.len(), 2);
/// assert_eq!(votes.iter().collect::<Vec<_>>(), [PartyId(3), PartyId(70)]);
/// ```
// Nothing removes a single party and `clear` empties the `Vec`, so the
// last high word is never zero, and comparing the words is set equality.
#[derive(Clone, Default)]
pub struct PartySet {
    /// Parties `0..64`.
    low: u64,
    /// Parties from 64 up: word `i` holds ids `64 (i + 1)..64 (i + 2)`.
    /// [`clear`](PartySet::clear) keeps the box, so an empty set may hold
    /// an empty `Vec` here.
    #[allow(clippy::box_collection)] // one pointer, not a 24-byte `Vec` header
    high: Option<Box<Vec<u64>>>,
}

impl PartySet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The words for parties from 64 up.
    fn high(&self) -> &[u64] {
        self.high.as_deref().map_or(&[], Vec::as_slice)
    }

    /// Inserts `p`; `false` if it was already a member.
    pub fn insert(&mut self, p: PartyId) -> bool {
        let word = match (p.0 / 64).checked_sub(1) {
            None => &mut self.low,
            Some(word) => {
                let high = self.high.get_or_insert_with(Box::default);
                if word >= high.len() {
                    high.resize(word + 1, 0);
                }
                &mut high[word]
            }
        };
        let mask = 1u64 << (p.0 % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Whether `p` is a member.
    pub fn contains(&self, p: PartyId) -> bool {
        let word = match (p.0 / 64).checked_sub(1) {
            None => self.low,
            Some(word) => self.high().get(word).copied().unwrap_or(0),
        };
        word >> (p.0 % 64) & 1 == 1
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        let high: u32 = self.high().iter().map(|w| w.count_ones()).sum();
        (self.low.count_ones() + high) as usize
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.low == 0 && self.high().is_empty()
    }

    /// Whether every member of `other` is a member of `self`.
    pub fn is_superset(&self, other: &PartySet) -> bool {
        let (mine, theirs) = (self.high(), other.high());
        other.low & !self.low == 0
            && theirs.len() <= mine.len()
            && theirs.iter().zip(mine).all(|(o, s)| o & !s == 0)
    }

    /// Members in ascending party order.
    pub fn iter(&self) -> impl Iterator<Item = PartyId> + '_ {
        let words = std::iter::once(self.low).chain(self.high().iter().copied());
        words.enumerate().flat_map(|(i, word)| {
            std::iter::successors((word != 0).then_some(word), |w| {
                let rest = w & (w - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |w| PartyId(i * 64 + w.trailing_zeros() as usize))
        })
    }

    /// Removes every member (the box of the words past 64 and its
    /// capacity are kept).
    pub fn clear(&mut self) {
        self.low = 0;
        if let Some(high) = &mut self.high {
            high.clear();
        }
    }
}

/// Set equality: the words compare, so a cleared set whose high words'
/// box is kept equals one that never had any.
impl PartialEq for PartySet {
    fn eq(&self, other: &PartySet) -> bool {
        self.low == other.low && self.high() == other.high()
    }
}

impl Eq for PartySet {}

impl Extend<PartyId> for PartySet {
    fn extend<I: IntoIterator<Item = PartyId>>(&mut self, parties: I) {
        for p in parties {
            self.insert(p);
        }
    }
}

impl fmt::Debug for PartySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// At most one value per party: a party-indexed `Vec<Option<T>>` with
/// its number of entries kept beside it — [`PartySet`]'s companion for
/// state that carries a value (a share bundle per dealer, a vote per
/// voter). The **first** value recorded for a party stands, which is the
/// rule every protocol table here follows; iteration is in ascending
/// party order, and the index caveat of [`PartySet`] applies. The table
/// grows to the highest party recorded; an instance that knows `n`
/// [`reserve`](PartyMap::reserve)s once instead.
///
/// ```
/// use aft_sim::{PartyId, PartyMap};
/// let mut votes = PartyMap::new();
/// assert!(votes.insert(PartyId(2), true));
/// assert!(!votes.insert(PartyId(2), false), "the first vote stands");
/// assert_eq!(votes.get(PartyId(2)), Some(&true));
/// assert_eq!(votes.get(PartyId(5)), None);
/// assert_eq!(votes.len(), 1);
/// ```
// Nothing removes a single entry, so the last slot is never `None` and the
// derived equality is map equality.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartyMap<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for PartyMap<T> {
    fn default() -> Self {
        PartyMap {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<T> PartyMap<T> {
    /// The empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for parties `0..n` in one allocation, so inserts in any
    /// order never re-grow the table — for an instance that learns `n` at
    /// `on_start`. Contents and equality are untouched.
    pub fn reserve(&mut self, n: usize) {
        self.slots.reserve_exact(n.saturating_sub(self.slots.len()));
    }

    /// Records `value` for `p` unless `p` already has one; `false` (and
    /// `value` dropped) in that case.
    pub fn insert(&mut self, p: PartyId, value: T) -> bool {
        if p.0 >= self.slots.len() {
            self.slots.resize_with(p.0 + 1, || None);
        }
        let slot = &mut self.slots[p.0];
        let fresh = slot.is_none();
        if fresh {
            *slot = Some(value);
            self.len += 1;
        }
        fresh
    }

    /// The value recorded for `p`.
    pub fn get(&self, p: PartyId) -> Option<&T> {
        self.slots.get(p.0)?.as_ref()
    }

    /// Whether `p` has a value.
    pub fn contains(&self, p: PartyId) -> bool {
        self.get(p).is_some()
    }

    /// Number of parties with a value.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no party has a value.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries in ascending party order.
    pub fn iter(&self) -> impl Iterator<Item = (PartyId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(p, slot)| Some((PartyId(p), slot.as_ref()?)))
    }

    /// Values in ascending party order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }

    /// Removes every entry (the slots' capacity is kept).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }
}

/// One component of a hierarchical [`SessionId`]: a protocol kind plus an
/// instance index (round number, dealer id, …).
///
/// ```
/// use aft_sim::SessionTag;
/// let tag = SessionTag::new("svss-share", 3);
/// assert_eq!(tag.kind, "svss-share");
/// assert_eq!(tag.index, 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SessionTag {
    /// Protocol kind, e.g. `"acast"`, `"ba"`, `"svss-share"`.
    pub kind: &'static str,
    /// Instance index within the parent (dealer id, round, slot …).
    pub index: u64,
}

impl SessionTag {
    /// Creates a tag.
    pub fn new(kind: &'static str, index: u64) -> Self {
        SessionTag { kind, index }
    }

    /// Interns an arbitrary kind string to the canonical `&'static str`
    /// used by tags — the wire decoder's way back from bytes to tags.
    ///
    /// Kinds form a small closed set (a handful per protocol), so the
    /// intern table is bounded; each distinct kind is leaked exactly
    /// once. Interning the same text twice returns the same pointer.
    ///
    /// ```
    /// use aft_sim::SessionTag;
    /// let a = SessionTag::intern_kind("acast");
    /// let b = SessionTag::intern_kind(&String::from("acast"));
    /// assert!(std::ptr::eq(a, b));
    /// ```
    pub fn intern_kind(kind: &str) -> &'static str {
        let table = kinds();
        if let Some(&hit) = table.read().expect("kind interner poisoned").get(kind) {
            return hit;
        }
        let mut table = table.write().expect("kind interner poisoned");
        if let Some(&hit) = table.get(kind) {
            return hit;
        }
        let leaked: &'static str = Box::leak(kind.to_owned().into_boxed_str());
        table.insert(kind.to_owned(), leaked);
        leaked
    }

    /// Whether `kind` has been interned — lets tests show that refused
    /// input left the table alone.
    #[cfg(test)]
    pub(crate) fn kind_is_interned(kind: &str) -> bool {
        let table = kinds().read().expect("kind interner poisoned");
        table.contains_key(kind)
    }
}

/// The kind intern table behind [`SessionTag::intern_kind`].
fn kinds() -> &'static RwLock<KindMap> {
    static KINDS: OnceLock<RwLock<KindMap>> = OnceLock::new();
    KINDS.get_or_init(|| RwLock::new(KindMap::default()))
}

/// Kinds by their text, hashed like the edge table's keys: a wire decoder
/// interns the kind of every tag it reads — each of a full path's, each
/// of a define's chain — and SipHash made that a third of the decode.
type KindMap = HashMap<String, &'static str, std::hash::BuildHasherDefault<EdgeHasher>>;

impl fmt::Display for SessionTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.kind, self.index)
    }
}

/// One canonical interned session: a node of the global session trie.
///
/// Leaked exactly once per distinct path; all `SessionId`s for the path
/// alias this storage. Memory grows with the number of *distinct*
/// sessions ever created (a few per protocol instance), never with
/// message volume. Plain data only — the mutable trie structure lives in
/// the [`children`] table, so `SessionId` stays a well-behaved map key.
/// The path is the chain of `leaf` tags up the `parent` links.
struct Interned {
    /// The parent trie node (`None` at the root).
    parent: Option<&'static Interned>,
    /// The path's final tag (`None` at the root): the leaf kind is read
    /// per enqueued envelope (batch metadata, per-kind metrics).
    leaf: Option<SessionTag>,
    /// Path length (root = 0).
    depth: u16,
    /// A hash of the path, the same in every process (see
    /// [`SessionId::path_key`]).
    key: u16,
    /// Dense arena index, assigned in interning order (root = 0).
    index: u32,
}

impl Interned {
    /// The ancestor `up` levels above (`up ≤ depth`).
    fn ancestor(&'static self, up: u16) -> &'static Interned {
        (0..up).fold(self, |node, _| node.parent.expect("up ≤ depth"))
    }
}

/// The path key of `parent`'s child `tag`: the parent's key mixed with an
/// FNV-1a hash of the kind's bytes, plus the index.
fn child_key(parent: u16, tag: &SessionTag) -> u16 {
    let kind = tag.kind.bytes().fold(0xCBF2_9CE4_8422_2325, |h: u64, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    });
    crate::mix(kind ^ u64::from(parent)).wrapping_add(tag.index) as u16
}

/// Cheap multiply-xor hasher for the interner's edge table. The keys are
/// a pointer plus a tag (static-str pointer bytes and a small index), so
/// collision quality far beyond this is wasted; SipHash on the 24-byte
/// key is measurable on the session-spawn hot path. Internal only.
#[derive(Default)]
struct EdgeHasher(u64);

impl Hasher for EdgeHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a for the str bytes of a tag kind (short).
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }
}

type EdgeMap =
    HashMap<(usize, SessionTag), &'static Interned, std::hash::BuildHasherDefault<EdgeHasher>>;

/// The trie's edges and the next dense arena index to hand out, under one
/// lock: an index is taken only by the first derivation of a child.
struct Edges {
    map: EdgeMap,
    next_index: u32,
}

/// Takes the arena index `*next` and advances it. A wrapped counter would
/// hand a live session's index out again, and two sessions would share a
/// [`Node`](crate::Node) cell, so running out panics instead.
fn take_index(next: &mut u32) -> u32 {
    let index = *next;
    *next = index
        .checked_add(1)
        .expect("session interner: the u32 arena index space is exhausted");
    index
}

/// The trie's edge table: `(parent node address, tag)` resolves to the
/// interned child. One read lock and no allocation per already-interned
/// child — the session-spawn hot path.
fn children() -> &'static RwLock<Edges> {
    static CHILDREN: OnceLock<RwLock<Edges>> = OnceLock::new();
    // Grows with what is interned: a process that interns a few dozen
    // sessions holds a few dozen edges. A deployment that interns
    // thousands rehashes a handful of times, under the write lock of a
    // first derivation, which is already the slow path.
    CHILDREN.get_or_init(|| {
        RwLock::new(Edges {
            map: EdgeMap::default(),
            // 0 is the root's.
            next_index: 1,
        })
    })
}

/// The canonical root trie node.
fn root_interned() -> &'static Interned {
    static ROOT: OnceLock<&'static Interned> = OnceLock::new();
    ROOT.get_or_init(|| {
        Box::leak(Box::new(Interned {
            parent: None,
            leaf: None,
            depth: 0,
            key: 0,
            index: 0,
        }))
    })
}

/// A hierarchical session identifier: the path of [`SessionTag`]s from the
/// root protocol down to a sub-protocol instance.
///
/// Hierarchy is what lets protocols *compose*: an instance spawns children
/// under child session ids, and a child's output is routed back to it. All
/// parties construct identical session ids for the same logical instance,
/// so messages route without global coordination.
///
/// Session ids are hash-consed (see the module docs): `clone` is a pointer
/// copy, `==`/`Hash` compare the canonical pointer — one word — rather
/// than the tag path, and [`parent`](SessionId::parent) is a stored
/// pointer. Lexicographic path order is preserved by [`Ord`]/[`PartialOrd`],
/// which walks up from both ids to where their paths part.
///
/// ```
/// use aft_sim::{SessionId, SessionTag};
/// let coin = SessionId::root().child(SessionTag::new("coin", 0));
/// let svss = coin.child(SessionTag::new("svss", 7));
/// assert_eq!(svss.parent(), Some(coin.clone()));
/// assert!(svss.starts_with(&coin));
/// assert_eq!(svss.last(), Some(&SessionTag::new("svss", 7)));
/// ```
#[derive(Clone)]
pub struct SessionId(&'static Interned);

impl SessionId {
    /// The empty (root) session.
    pub fn root() -> Self {
        SessionId(root_interned())
    }

    /// Builds a session id from a tag path.
    pub fn from_path(path: Vec<SessionTag>) -> Self {
        let mut id = SessionId::root();
        for tag in path {
            id = id.child(tag);
        }
        id
    }

    /// Returns a child session extended with `tag`.
    ///
    /// Hot path: a hit in the trie's edge table is one read lock and no
    /// allocation (the key is `(parent address, tag)`, so no path `Vec`
    /// is built to probe); only the first derivation of each distinct
    /// child pays for interning.
    #[must_use]
    pub fn child(&self, tag: SessionTag) -> SessionId {
        let key = (self.0 as *const Interned as usize, tag);
        if let Some(&hit) = children()
            .read()
            .expect("session interner poisoned")
            .map
            .get(&key)
        {
            return SessionId(hit);
        }
        let mut table = children().write().expect("session interner poisoned");
        // Double-check: another thread may have interned the child between
        // the read unlock and the write lock.
        if let Some(&hit) = table.map.get(&key) {
            return SessionId(hit);
        }
        let depth = self.0.depth.checked_add(1);
        let interned: &'static Interned = Box::leak(Box::new(Interned {
            parent: Some(self.0),
            leaf: Some(tag),
            depth: depth.expect("a session path has at most 65 535 tags"),
            key: child_key(self.0.key, &tag),
            index: take_index(&mut table.next_index),
        }));
        table.map.insert(key, interned);
        SessionId(interned)
    }

    /// The parent session, or `None` at the root. O(1): the trie stores
    /// the parent pointer.
    pub fn parent(&self) -> Option<SessionId> {
        self.0.parent.map(SessionId)
    }

    /// The final tag on the path, or `None` at the root.
    pub fn last(&self) -> Option<&SessionTag> {
        self.0.leaf.as_ref()
    }

    /// The tag path from the leaf up to the root's child — the path
    /// backwards, one parent link per tag.
    pub fn tags_leaf_first(&self) -> impl Iterator<Item = SessionTag> {
        std::iter::successors(Some(self.0), |node| node.parent).map_while(|node| node.leaf)
    }

    /// Path length (root = 0).
    pub fn depth(&self) -> usize {
        self.0.depth as usize
    }

    /// The dense interning index of this session (root = 0): distinct
    /// sessions get consecutive small integers, which is what lets
    /// [`Node`](crate::Node) arena-index its per-session state instead of
    /// hashing.
    pub(crate) fn arena_index(&self) -> usize {
        self.0.index as usize
    }

    /// A 16-bit hash of the path that every process computes alike —
    /// unlike the arena index, which follows the order a process interned
    /// its sessions in. Siblings of one kind get consecutive keys. What a
    /// [`LinkWriter`](crate::wire::LinkWriter) picks a session's slots by,
    /// so that the bytes a run carries do not depend on what else the
    /// process interned first.
    pub(crate) fn path_key(&self) -> u16 {
        self.0.key
    }

    /// Whether `self` is `prefix` or a descendant of it: the ancestor of
    /// `self` at `prefix`'s depth *is* `prefix` (one node per path).
    pub fn starts_with(&self, prefix: &SessionId) -> bool {
        let up = self.0.depth.checked_sub(prefix.0.depth);
        up.is_some_and(|up| std::ptr::eq(self.0.ancestor(up), prefix.0))
    }
}

impl Default for SessionId {
    fn default() -> Self {
        SessionId::root()
    }
}

impl PartialEq for SessionId {
    fn eq(&self, other: &Self) -> bool {
        // Hash-consing makes the canonical node unique per path, so
        // pointer identity IS path equality.
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for SessionId {}

impl Hash for SessionId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.0 as *const Interned as usize).hash(state);
    }
}

impl PartialOrd for SessionId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SessionId {
    /// Lexicographic path order, matching the pre-interner semantics: lift
    /// the deeper id to the other's depth; if that lands on the other id,
    /// the shorter path is a prefix and sorts first; otherwise climb both
    /// until their parents meet, and the two tags below the meeting point
    /// decide.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let (a, b) = (self.0, other.0);
        let depth = a.depth.min(b.depth);
        let (mut a_up, mut b_up) = (a.ancestor(a.depth - depth), b.ancestor(b.depth - depth));
        if std::ptr::eq(a_up, b_up) {
            return a.depth.cmp(&b.depth);
        }
        loop {
            let below = "distinct nodes at one depth have parents";
            let (a_parent, b_parent) = (a_up.parent.expect(below), b_up.parent.expect(below));
            if std::ptr::eq(a_parent, b_parent) {
                return a_up.leaf.cmp(&b_up.leaf);
            }
            (a_up, b_up) = (a_parent, b_parent);
        }
    }
}

/// Writes `node`'s path root first as `/kind[index]` per tag, recursing up
/// the parent links before writing its own tag.
fn write_path(node: &Interned, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match (node.parent, node.leaf) {
        (Some(parent), Some(tag)) => {
            write_path(parent, f)?;
            write!(f, "/{tag}")
        }
        _ => Ok(()),
    }
}

impl fmt::Debug for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut path: Vec<SessionTag> = self.tags_leaf_first().collect();
        path.reverse();
        f.debug_tuple("SessionId").field(&path).finish()
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.depth == 0 {
            return write!(f, "/");
        }
        write_path(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_parent_roundtrip() {
        let root = SessionId::root();
        let a = root.child(SessionTag::new("a", 1));
        let b = a.child(SessionTag::new("b", 2));
        assert_eq!(b.parent(), Some(a.clone()));
        assert_eq!(a.parent(), Some(root.clone()));
        assert_eq!(root.parent(), None);
        assert_eq!(b.depth(), 2);
    }

    #[test]
    fn starts_with_semantics() {
        let a = SessionId::root().child(SessionTag::new("a", 1));
        let b = a.child(SessionTag::new("b", 2));
        assert!(b.starts_with(&a));
        assert!(b.starts_with(&b));
        assert!(b.starts_with(&SessionId::root()));
        assert!(!a.starts_with(&b));
        let other = SessionId::root().child(SessionTag::new("a", 2));
        assert!(!b.starts_with(&other));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SessionId::root().to_string(), "/");
        let s = SessionId::root()
            .child(SessionTag::new("coin", 0))
            .child(SessionTag::new("svss", 3));
        assert_eq!(s.to_string(), "/coin[0]/svss[3]");
        assert_eq!(PartyId(4).to_string(), "P4");
    }

    #[test]
    fn equality_and_hashing_distinguish_indices() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(SessionId::root().child(SessionTag::new("x", 0)));
        set.insert(SessionId::root().child(SessionTag::new("x", 1)));
        set.insert(SessionId::root().child(SessionTag::new("y", 0)));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn interning_canonicalizes_equal_paths() {
        // Two independently-built ids for the same logical path must alias
        // the same canonical storage (pointer-equal, not just path-equal).
        let a = SessionId::root()
            .child(SessionTag::new("i", 4))
            .child(SessionTag::new("j", 5));
        let b = SessionId::from_path(vec![SessionTag::new("i", 4), SessionTag::new("j", 5)]);
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.0, b.0));
        // Clones alias too: no per-clone allocation.
        let c = a.clone();
        assert!(std::ptr::eq(a.0, c.0));
        // Roots are canonical as well.
        assert_eq!(SessionId::from_path(Vec::new()), SessionId::root());
        assert_eq!(SessionId::default(), SessionId::root());
    }

    #[test]
    fn arena_indices_are_distinct_and_stable() {
        let a = SessionId::root().child(SessionTag::new("arena", 0));
        let b = SessionId::root().child(SessionTag::new("arena", 1));
        assert_ne!(a.arena_index(), b.arena_index());
        assert_eq!(SessionId::root().arena_index(), 0);
        // Re-deriving the same path resolves to the same index.
        let a2 = SessionId::root().child(SessionTag::new("arena", 0));
        assert_eq!(a.arena_index(), a2.arena_index());
    }

    #[test]
    fn ordering_is_lexicographic_by_path() {
        let a0 = SessionId::root().child(SessionTag::new("a", 0));
        let a1 = SessionId::root().child(SessionTag::new("a", 1));
        let a0b = a0.child(SessionTag::new("b", 0));
        assert!(SessionId::root() < a0);
        assert!(a0 < a0b, "prefix sorts before extension");
        assert!(a0b < a1, "index 0 subtree sorts before index 1");
    }

    #[test]
    fn arena_indices_are_taken_in_order() {
        let mut next = 7;
        assert_eq!((take_index(&mut next), take_index(&mut next)), (7, 8));
        assert_eq!(next, 9);
        let mut next = u32::MAX - 1;
        assert_eq!(take_index(&mut next), u32::MAX - 1);
    }

    #[test]
    #[should_panic(expected = "the u32 arena index space is exhausted")]
    fn the_arena_index_never_wraps() {
        let mut next = u32::MAX;
        take_index(&mut next);
    }

    #[test]
    fn interner_is_thread_safe() {
        let ids: Vec<SessionId> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        SessionId::root()
                            .child(SessionTag::new("race", 7))
                            .child(SessionTag::new("deep", 9))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for pair in ids.windows(2) {
            assert_eq!(pair[0], pair[1]);
            assert!(std::ptr::eq(pair[0].0, pair[1].0));
            assert_eq!(pair[0].arena_index(), pair[1].arena_index());
        }
    }
    /// The parent-linked interner against the obvious model: every id
    /// beside the `Vec<SessionTag>` path it stands for, over random trees
    /// up to depth 12. One kind is a prefix slice of another (same start
    /// address, shorter length), so a comparison of start addresses alone
    /// would take one for the other.
    mod interner_model {
        use super::*;
        use crate::wire::{get_session, put_session, WireReader, WireWriter};
        use proptest::prelude::*;

        const KIND: &str = "model-kind";

        fn kind(k: u8) -> &'static str {
            match k % 3 {
                0 => KIND,
                1 => &KIND[..5],
                _ => "other",
            }
        }

        /// The wire encoding of a model path, written root first.
        fn encoded(path: &[SessionTag]) -> Vec<u8> {
            let mut out = Vec::new();
            WireWriter::u8(&mut out, path.len() as u8);
            for tag in path {
                WireWriter::bytes(&mut out, tag.kind.as_bytes());
                WireWriter::u64(&mut out, tag.index);
            }
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn parent_linked_ids_match_a_path_model(
                steps in proptest::collection::vec(any::<u32>(), 1..48),
            ) {
                // Each step derives a child of the newest node (half the
                // time, so chains grow deep) or of a random one; a step is
                // decoded from one word: which node, which kind, which index.
                let mut nodes: Vec<(SessionId, Vec<SessionTag>)> =
                    vec![(SessionId::root(), Vec::new())];
                for word in steps {
                    let [pick, k, index, _] = word.to_le_bytes();
                    let index = u64::from(index % 3);
                    let at = if pick < 128 { nodes.len() - 1 } else { pick as usize % nodes.len() };
                    let (id, path) = nodes[at].clone();
                    if path.len() == 12 {
                        continue;
                    }
                    let tag = SessionTag::new(kind(k), index);
                    let mut longer = path;
                    longer.push(tag);
                    nodes.push((id.child(tag), longer));
                }
                for (id, path) in &nodes {
                    prop_assert_eq!(id.depth(), path.len());
                    prop_assert_eq!(id.last(), path.last());
                    let parent = path.split_last().map(|(_, up)| SessionId::from_path(up.to_vec()));
                    prop_assert_eq!(id.parent(), parent);
                    let mut walked: Vec<SessionTag> = id.tags_leaf_first().collect();
                    walked.reverse();
                    prop_assert_eq!(&walked, path);
                    let shown: String = path.iter().map(|t| format!("/{t}")).collect();
                    prop_assert_eq!(id.to_string(), if path.is_empty() { "/".into() } else { shown });
                    prop_assert_eq!(format!("{id:?}"), format!("SessionId({path:?})"));
                    let mut bytes = Vec::new();
                    put_session(&mut bytes, id);
                    prop_assert_eq!(&bytes, &encoded(path));
                    let back = get_session(&mut WireReader::new(&bytes)).expect("well formed");
                    prop_assert!(std::ptr::eq(back.0, id.0), "the very node");
                    for (other, other_path) in &nodes {
                        prop_assert_eq!(id.starts_with(other), path.starts_with(other_path));
                        prop_assert_eq!(id.cmp(other), path.cmp(other_path));
                        prop_assert_eq!(id == other, path == other_path);
                    }
                }
            }
        }
    }

    #[test]
    fn a_party_set_is_16_bytes() {
        assert_eq!(
            std::mem::size_of::<PartySet>(),
            16,
            "a party set is its inline word and one pointer to the words past 64 \
             (40 bytes while it also kept a `Vec` header and a stored size)"
        );
    }

    /// `PartySet` and `PartyMap` against the obvious models, across the
    /// 64-bit word boundary.
    mod party_tables {
        use super::*;
        use proptest::prelude::*;
        use std::collections::{BTreeMap, BTreeSet};

        fn set_of(ids: &[usize]) -> (PartySet, BTreeSet<usize>) {
            let mut set = PartySet::new();
            set.extend(ids.iter().map(|&i| PartyId(i)));
            (set, ids.iter().copied().collect())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn party_set_matches_btree_set(
                ids in proptest::collection::vec(0usize..200, 0..80),
                others in proptest::collection::vec(0usize..200, 0..6),
            ) {
                let mut set = PartySet::new();
                let mut model = BTreeSet::new();
                for &i in &ids {
                    prop_assert_eq!(set.insert(PartyId(i)), model.insert(i), "insert {}", i);
                    prop_assert_eq!(set.len(), model.len());
                }
                for i in 0..260 {
                    prop_assert_eq!(set.contains(PartyId(i)), model.contains(&i), "contains {}", i);
                }
                let listed: Vec<usize> = set.iter().map(|p| p.0).collect();
                prop_assert_eq!(listed, model.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!(set.is_empty(), model.is_empty());
                prop_assert_eq!(format!("{set:?}"), format!("{:?}", set.iter().collect::<BTreeSet<_>>()));

                let (other, other_model) = set_of(&others);
                prop_assert_eq!(set.is_superset(&other), model.is_superset(&other_model));
                prop_assert_eq!(other.is_superset(&set), other_model.is_superset(&model));
                prop_assert!(set.is_superset(&set.clone()) && set.is_superset(&PartySet::new()));
                // Equality is set equality, whatever order built the set.
                let (rebuilt, _) = set_of(&model.iter().rev().copied().collect::<Vec<_>>());
                prop_assert_eq!(&rebuilt, &set);
                prop_assert_eq!(other == set, other_model == model);

                // A clone keeps the words past 64 and compares equal.
                let copy = set.clone();
                prop_assert_eq!(&copy, &set);
                prop_assert_eq!(copy.len(), model.len());

                set.clear();
                prop_assert!(set.is_empty() && set.iter().next().is_none());
                prop_assert_eq!(set.len(), 0);
                prop_assert_eq!(&set, &PartySet::new());
                prop_assert_eq!(&PartySet::new(), &set);
                // Refilled after a clear (its high words' box kept), it
                // equals a fresh set of the same members, both ways round.
                set.extend(others.iter().map(|&i| PartyId(i)));
                prop_assert_eq!(set.len(), other_model.len());
                prop_assert_eq!(&set, &other);
                prop_assert_eq!(&other, &set);
                prop_assert_eq!(set.is_superset(&copy), other_model.is_superset(&model));
            }

            #[test]
            fn party_map_matches_btree_map(
                entries in proptest::collection::vec(
                    any::<u32>().prop_map(|x| ((x % 150) as usize, x / 150 % 5)),
                    0..60,
                ),
            ) {
                let mut map = PartyMap::new();
                let mut model = BTreeMap::new();
                // Room made up front changes no answer, equality included.
                let mut reserved = PartyMap::new();
                reserved.reserve(150);
                for &(i, v) in &entries {
                    // The first value recorded for a party stands.
                    let fresh = !model.contains_key(&i);
                    model.entry(i).or_insert(v);
                    prop_assert_eq!(map.insert(PartyId(i), v), fresh);
                    prop_assert_eq!(reserved.insert(PartyId(i), v), fresh);
                    prop_assert_eq!(map.len(), model.len());
                }
                prop_assert_eq!(&reserved, &map);
                for i in 0..200 {
                    prop_assert_eq!(map.get(PartyId(i)), model.get(&i));
                    prop_assert_eq!(map.contains(PartyId(i)), model.contains_key(&i));
                }
                let listed: Vec<(usize, u32)> = map.iter().map(|(p, &v)| (p.0, v)).collect();
                prop_assert_eq!(listed, model.iter().map(|(&i, &v)| (i, v)).collect::<Vec<_>>());
                prop_assert_eq!(
                    map.values().copied().collect::<Vec<_>>(),
                    model.values().copied().collect::<Vec<_>>()
                );
                map.clear();
                prop_assert!(map.is_empty() && map.iter().next().is_none());
                prop_assert_eq!(map, PartyMap::new());
            }
        }
    }
}
