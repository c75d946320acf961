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
//! Every interned session also carries a **dense arena index** assigned
//! at interning time. [`Node`](crate::Node) keys its per-session state by
//! that index instead of hashing session ids, which removes hash lookups
//! from the delivery loop entirely.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, Ordering};
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
fn kinds() -> &'static RwLock<HashMap<String, &'static str>> {
    static KINDS: OnceLock<RwLock<HashMap<String, &'static str>>> = OnceLock::new();
    KINDS.get_or_init(|| RwLock::new(HashMap::new()))
}

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
struct Interned {
    /// The full tag path from the root.
    path: &'static [SessionTag],
    /// The parent trie node (`None` at the root).
    parent: Option<&'static Interned>,
    /// Dense arena index, assigned in interning order (root = 0).
    index: u32,
    /// The path's final tag, mirrored inline (`None` at the root): the
    /// leaf kind is read per enqueued envelope (batch metadata, per-kind
    /// metrics), and the mirror saves the `path` slice indirection.
    leaf: Option<SessionTag>,
}

/// Next dense arena index to hand out (0 is reserved for the root).
static NEXT_INDEX: AtomicU32 = AtomicU32::new(1);

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

/// The trie's edge table: `(parent node address, tag)` resolves to the
/// interned child. One read lock and no allocation per already-interned
/// child — the session-spawn hot path.
fn children() -> &'static RwLock<EdgeMap> {
    static CHILDREN: OnceLock<RwLock<EdgeMap>> = OnceLock::new();
    // Pre-sized so large deployments (n=256 interns thousands of per-party
    // child sessions) never rehash the table under the write lock.
    CHILDREN
        .get_or_init(|| RwLock::new(EdgeMap::with_capacity_and_hasher(4096, Default::default())))
}

/// The canonical root trie node.
fn root_interned() -> &'static Interned {
    static ROOT: OnceLock<&'static Interned> = OnceLock::new();
    ROOT.get_or_init(|| {
        Box::leak(Box::new(Interned {
            path: &[],
            parent: None,
            index: 0,
            leaf: None,
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
/// pointer. Lexicographic path order is preserved by [`Ord`]/[`PartialOrd`].
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
            .get(&key)
        {
            return SessionId(hit);
        }
        let mut table = children().write().expect("session interner poisoned");
        // Double-check: another thread may have interned the child between
        // the read unlock and the write lock.
        if let Some(&hit) = table.get(&key) {
            return SessionId(hit);
        }
        let mut path = Vec::with_capacity(self.0.path.len() + 1);
        path.extend_from_slice(self.0.path);
        path.push(tag);
        let interned: &'static Interned = Box::leak(Box::new(Interned {
            path: Box::leak(path.into_boxed_slice()),
            parent: Some(self.0),
            index: NEXT_INDEX.fetch_add(1, Ordering::Relaxed),
            leaf: Some(tag),
        }));
        table.insert(key, interned);
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

    /// The tag path.
    pub fn path(&self) -> &[SessionTag] {
        self.0.path
    }

    /// Path length (root = 0).
    pub fn depth(&self) -> usize {
        self.0.path.len()
    }

    /// The dense interning index of this session (root = 0): distinct
    /// sessions get consecutive small integers, which is what lets
    /// [`Node`](crate::Node) arena-index its per-session state instead of
    /// hashing.
    pub(crate) fn arena_index(&self) -> usize {
        self.0.index as usize
    }

    /// Whether `self` is `prefix` or a descendant of it.
    pub fn starts_with(&self, prefix: &SessionId) -> bool {
        std::ptr::eq(self.0, prefix.0)
            || (self.0.path.len() >= prefix.0.path.len()
                && self.0.path[..prefix.0.path.len()] == prefix.0.path[..])
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
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Lexicographic path order, matching the pre-interner semantics.
        self.0.path.cmp(other.0.path)
    }
}

impl fmt::Debug for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SessionId").field(&self.0.path).finish()
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.path.is_empty() {
            return write!(f, "/");
        }
        for tag in self.0.path {
            write!(f, "/{tag}")?;
        }
        Ok(())
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
        assert!(std::ptr::eq(a.path(), b.path()));
        // Clones alias too: no per-clone allocation.
        let c = a.clone();
        assert!(std::ptr::eq(a.path(), c.path()));
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
            assert!(std::ptr::eq(pair[0].path(), pair[1].path()));
            assert_eq!(pair[0].arena_index(), pair[1].arena_index());
        }
    }
}
