//! A single party's runtime: session routing, child spawning, output
//! propagation, shun enforcement.
//!
//! Per-session state lives in an **arena** indexed by the dense interning
//! index of each [`SessionId`] — the delivery hot path does one
//! bounds-checked array access instead of hashing, and the effect loop
//! reuses its work queue and effect buffers across deliveries, so a
//! steady-state run allocates nothing per message.
//!
//! A cell is 24 bytes: its occupant and two bits. The occupant is the
//! instance spawned there until that instance
//! [retires](crate::Context::retire): from then on it is a zero-sized
//! reader that does nothing else, and the instance's state is freed at
//! once rather than when the node is dropped. An occupant is taken out of
//! its cell only for the span of its own callback, so an occupied cell
//! *is* a spawned session. The bits say whether the session has output
//! (the first output wins; a later one is only counted) and whether the
//! host spawned it. An output is routed, not kept: a child's value moves
//! to its parent's `on_child_output` and is dropped when that returns,
//! and only a session the host spawned keeps its value, in a small
//! node-level table that [`Node::output`] reads. Messages that arrive
//! before their session spawns wait in one node-level table beside the
//! arena, since at quiescence almost no session has any.

use crate::ids::{PartyId, PartyMap, SessionId, SessionTag};
use crate::instance::{Context, Effect, Instance};
use crate::payload::Payload;
use rand_chacha::ChaCha12Rng;
use std::any::Any;
use std::collections::{HashMap, VecDeque};

/// An outgoing envelope produced by a node (delivery is the network's job).
#[derive(Debug, Clone)]
pub struct Outgoing {
    /// Destination party.
    pub to: PartyId,
    /// Destination session.
    pub session: SessionId,
    /// Message body.
    pub payload: Payload,
}

/// Per-party record of shunned peers.
///
/// `Shun(i → j)` is recorded at most once per ordered pair (so fewer than
/// `n^2` shun events occur globally — the bound the paper's coin analysis
/// relies on). Messages from a shunned party are dropped unless they belong
/// to the *invocation subtree in which the shun occurred*, matching the
/// paper: "it accepted messages from it in the current invocation, but
/// won't accept any messages from it in future interactions".
#[derive(Debug, Default, Clone)]
pub struct ShunRegistry {
    /// target -> session in which the shun was declared.
    entries: PartyMap<SessionId>,
}

impl ShunRegistry {
    /// Records a shun of `target` declared inside `session`. Returns `true`
    /// if this is a *new* shun event (first for this ordered pair).
    pub fn record(&mut self, target: PartyId, session: SessionId) -> bool {
        self.entries.insert(target, session)
    }

    /// Whether a message from `from` addressed to `session` should be
    /// dropped.
    #[inline]
    pub fn blocks(&self, from: PartyId, session: &SessionId) -> bool {
        // Fast path for the overwhelmingly common case: no shun recorded.
        if self.entries.is_empty() {
            return false;
        }
        match self.entries.get(from) {
            None => false,
            // Same invocation subtree (or an ancestor of it) still accepted.
            Some(declared_in) => {
                !(session.starts_with(declared_in) || declared_in.starts_with(session))
            }
        }
    }

    /// Parties currently shunned by this node, in ascending order.
    pub fn shunned(&self) -> impl Iterator<Item = PartyId> + '_ {
        self.entries.iter().map(|(party, _)| party)
    }

    /// Number of shun entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no shun was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Internal work items processed by the node's effect loop.
enum Work {
    Start(SessionId),
    Msg(SessionId, PartyId, Payload),
    ChildOutput(SessionId, SessionTag, Payload),
}

/// Sessions per arena page. Arena indices are process-global (assigned by
/// the interner), so a flat `Vec` per node would grow with every session
/// ever interned anywhere; pages keep a node's footprint proportional to
/// the sessions *it* touches (which get near-contiguous indices, since a
/// deployment interns its sessions together).
const ARENA_PAGE: usize = 64;

/// One lazily-allocated page of session slots.
type ArenaPage = [Option<SessionSlot>; ARENA_PAGE];

/// Arena cell of one touched session: its occupant and two bits. A host
/// spawn's value waits in [`Node`]'s output table, messages that arrive
/// before the session spawns in its early table.
#[derive(Default)]
struct SessionSlot {
    /// The live instance, or the reader it retired to; `Some` exactly
    /// when an instance was spawned here, which is what makes a second
    /// spawn a no-op. `None` also while the instance runs a callback
    /// (taken out to sidestep re-entrancy), but nothing that asks whether
    /// the session spawned runs then: a callback's own spawns are applied
    /// once it is back.
    instance: Option<Box<dyn Instance>>,
    /// Whether the session has output: the first output wins, a later
    /// one is only counted.
    has_output: bool,
    /// Whether the session was spawned from outside, through
    /// [`Node::spawn`]: only such a session's value is kept.
    host_spawned: bool,
}

/// One party's local runtime: routes messages to protocol instances,
/// spawns children, propagates outputs upward, and enforces shunning.
pub struct Node {
    id: PartyId,
    n: usize,
    t: usize,
    rng: ChaCha12Rng,
    /// Per-session state, indexed by [`SessionId::arena_index`] through a
    /// two-level page table (see [`ARENA_PAGE`]).
    slots: Vec<Option<Box<ArenaPage>>>,
    /// Number of sessions with a spawned instance (diagnostics).
    instances: usize,
    /// Number of instances that retired (diagnostics).
    retired: u64,
    /// Peers this node shuns.
    pub(crate) shun: ShunRegistry,
    /// True once the party has crashed (stops reacting entirely).
    crashed: bool,
    /// Count of shun events this node declared (for metrics).
    shun_events: u64,
    /// Count of session outputs recorded (first-wins outputs only). The
    /// flight recorder diffs this across a delivery to attribute
    /// `Output` events without scanning the arena.
    outputs_recorded: u64,
    /// Count of outputs after the first on a session (diagnostics).
    repeated_outputs: u64,
    /// The first output of each session spawned from outside that has
    /// output: one entry per host spawn, so a scan is all a lookup needs.
    host_outputs: Vec<(SessionId, Payload)>,
    /// Reusable effect-loop work queue (empty between deliveries).
    work: VecDeque<Work>,
    /// Reusable effect buffer handed to instance callbacks.
    effects_pool: Vec<Effect>,
    /// Messages that arrived before their session was spawned locally,
    /// by the session's arena index; an entry goes when its session
    /// spawns (the messages replay) or is retired.
    early: HashMap<usize, Vec<(PartyId, Payload)>>,
    /// Recycled early-message buffer from the most recently retired
    /// session, handed to the next session that buffers one.
    early_pool: Vec<(PartyId, Payload)>,
}

impl Node {
    /// Creates a node for party `id` in an `(n, t)` system with the given
    /// deterministic RNG.
    pub fn new(id: PartyId, n: usize, t: usize, rng: ChaCha12Rng) -> Self {
        Node {
            id,
            n,
            t,
            rng,
            slots: Vec::new(),
            instances: 0,
            retired: 0,
            shun: ShunRegistry::default(),
            crashed: false,
            shun_events: 0,
            outputs_recorded: 0,
            repeated_outputs: 0,
            host_outputs: Vec::new(),
            work: VecDeque::new(),
            effects_pool: Vec::new(),
            early: HashMap::new(),
            early_pool: Vec::new(),
        }
    }

    /// This node's party id.
    pub fn id(&self) -> PartyId {
        self.id
    }

    /// Marks the party as crashed: it stops processing and emitting.
    pub fn crash(&mut self) {
        self.crashed = true;
    }

    /// Whether the party has crashed.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Un-crashes the party: it resumes processing and emitting. Used by
    /// the crash-recovery path (`recover@<vtime>` under the `net:`
    /// virtual-time model); the caller is responsible for retiring stale
    /// session state and respawning instances afterwards.
    pub fn recover(&mut self) {
        self.crashed = false;
    }

    /// The arena cell for `session`, created on first touch.
    fn slot_mut(&mut self, session: &SessionId) -> &mut SessionSlot {
        let idx = session.arena_index();
        let (page, offset) = (idx / ARENA_PAGE, idx % ARENA_PAGE);
        if page >= self.slots.len() {
            self.slots.resize_with(page + 1, || None);
        }
        let cells = self.slots[page].get_or_insert_with(|| Box::new(std::array::from_fn(|_| None)));
        cells[offset].get_or_insert_with(SessionSlot::default)
    }

    /// The arena cell at `idx`, if it was touched.
    fn cell_mut(&mut self, idx: usize) -> Option<&mut SessionSlot> {
        self.slots.get_mut(idx / ARENA_PAGE)?.as_mut()?[idx % ARENA_PAGE].as_mut()
    }

    /// Retires `session`'s arena cell: drops its instance, kept output
    /// and early messages, recycling the early buffer's allocation and
    /// freeing the whole page once every cell on it is retired. Returns
    /// `true` if the session had a slot to free.
    ///
    /// Retiring *forgets* the session: its output becomes unreadable and
    /// a later spawn at the same id starts fresh — callers retire only
    /// after consuming the session's result.
    pub fn retire_session(&mut self, session: &SessionId) -> bool {
        let idx = session.arena_index();
        let (page, offset) = (idx / ARENA_PAGE, idx % ARENA_PAGE);
        let Some(Some(cells)) = self.slots.get_mut(page) else {
            return false;
        };
        let Some(slot) = cells[offset].take() else {
            return false;
        };
        if slot.instance.is_some() {
            self.instances -= 1;
        }
        if cells.iter().all(|c| c.is_none()) {
            self.slots[page] = None;
        }
        // Buffering a message makes its session's cell, so an early entry
        // never outlives the cell it belongs to.
        if let Some(mut early) = self.early.remove(&idx) {
            if early.capacity() > self.early_pool.capacity() {
                early.clear();
                self.early_pool = early;
            }
        }
        if let Some(i) = self.host_outputs.iter().position(|(s, _)| s == session) {
            self.host_outputs.swap_remove(i);
        }
        true
    }

    /// The first output of `session`, if it was spawned from outside
    /// ([`Node::spawn`]) and has output. A session spawned by an instance
    /// returns `None`: its value went to its parent's
    /// [`on_child_output`](Instance::on_child_output) and was not kept.
    pub fn output(&self, session: &SessionId) -> Option<&Payload> {
        let (_, value) = self.host_outputs.iter().find(|(s, _)| s == session)?;
        Some(value)
    }

    /// Number of sessions an instance was spawned at and not
    /// [retired](Node::retire_session) since (diagnostics). A session
    /// whose instance [retired](crate::Context::retire) still counts: its
    /// reader is what makes a later spawn there a no-op.
    pub fn instance_count(&self) -> usize {
        self.instances
    }

    /// Number of instances that [retired](crate::Context::retire) to a
    /// stateless reader (monotonic; unaffected by
    /// [`retire_session`](Node::retire_session), which forgets a whole
    /// session instead).
    pub fn retired_count(&self) -> u64 {
        self.retired
    }

    /// Number of shun events declared by this node.
    pub fn shun_event_count(&self) -> u64 {
        self.shun_events
    }

    /// Number of session outputs ever recorded by this node (monotonic;
    /// unaffected by [`retire_session`](Node::retire_session)).
    pub fn output_count(&self) -> u64 {
        self.outputs_recorded
    }

    /// Number of outputs emitted on a session that had already output
    /// (monotonic). First output wins, so each was dropped; no honest
    /// instance emits one.
    pub fn repeated_output_count(&self) -> u64 {
        self.repeated_outputs
    }

    /// The node's shun registry.
    pub fn shun_registry(&self) -> &ShunRegistry {
        &self.shun
    }

    /// Spawns an instance at `session` from outside, running its
    /// `on_start`, and marks the session as one whose first output
    /// [`output`](Node::output) keeps — also when an instance already
    /// occupies it and the spawn itself is a no-op. Returns envelopes to
    /// inject into the network.
    pub fn spawn(&mut self, session: SessionId, instance: Box<dyn Instance>) -> Vec<Outgoing> {
        let mut out = Vec::new();
        if self.crashed {
            return out;
        }
        let slot = self.slot_mut(&session);
        slot.host_spawned = true;
        if slot.instance.is_some() {
            return out; // idempotent
        }
        slot.instance = Some(instance);
        self.instances += 1;
        self.run_loop(Work::Start(session), &mut out);
        out
    }

    /// Delivers a message to `session` from `from`. Messages for unknown
    /// sessions are buffered until the session spawns. Messages from
    /// shunned parties (outside the shun's invocation subtree) are dropped;
    /// returns `false` in that case.
    pub fn deliver(
        &mut self,
        from: PartyId,
        session: SessionId,
        payload: Payload,
        out: &mut Vec<Outgoing>,
    ) -> bool {
        if self.crashed {
            return false;
        }
        if from != self.id && self.shun.blocks(from, &session) {
            return false;
        }
        self.run_loop(Work::Msg(session, from, payload), out);
        true
    }

    /// The effect-processing loop: executes one work item, then drains all
    /// effects it generated (which may enqueue more work). The work queue
    /// and effect buffer are node-owned and reused across deliveries.
    fn run_loop(&mut self, first: Work, out: &mut Vec<Outgoing>) {
        debug_assert!(self.work.is_empty(), "work queue must drain fully");
        let mut queue = std::mem::take(&mut self.work);
        // The first item executes directly — the queue only ever holds
        // follow-up work (early-message replays, child starts, output
        // routing), so the common single-item delivery never touches it.
        let mut next = Some(first);
        while let Some(work) = next.take().or_else(|| queue.pop_front()) {
            let mut effects = match work {
                Work::Start(session) => {
                    let slot = self.slot_mut(&session);
                    let Some(mut inst) = slot.instance.take() else {
                        continue;
                    };
                    let mut ctx =
                        Context::new(self.id, self.n, self.t, session.clone(), &mut self.rng);
                    ctx.effects = std::mem::take(&mut self.effects_pool);
                    inst.on_start(&mut ctx);
                    let effects = std::mem::take(&mut ctx.effects);
                    drop(ctx);
                    self.slot_mut(&session).instance = Some(inst);
                    // Drain any messages that raced ahead of the spawn.
                    if !self.early.is_empty() {
                        if let Some(early) = self.early.remove(&session.arena_index()) {
                            for (from, payload) in early {
                                queue.push_back(Work::Msg(session.clone(), from, payload));
                            }
                        }
                    }
                    effects
                }
                Work::Msg(session, from, payload) => {
                    let idx = session.arena_index();
                    let slot = self.slot_mut(&session);
                    let Some(mut inst) = slot.instance.take() else {
                        self.early
                            .entry(idx)
                            .or_insert_with(|| std::mem::take(&mut self.early_pool))
                            .push((from, payload));
                        continue;
                    };
                    let mut ctx =
                        Context::new(self.id, self.n, self.t, session.clone(), &mut self.rng);
                    ctx.effects = std::mem::take(&mut self.effects_pool);
                    inst.on_message(from, &payload, &mut ctx);
                    let effects = std::mem::take(&mut ctx.effects);
                    drop(ctx);
                    // Put the instance back by the index resolved above:
                    // the slot cannot move or vanish while it is borrowed
                    // out (retire/spawn only happen between dispatches).
                    self.cell_mut(idx).expect("slot accessed above").instance = Some(inst);
                    effects
                }
                Work::ChildOutput(session, tag, value) => {
                    // A parent that never spawned here (the root above a
                    // host spawn) gets no cell for it.
                    let cell = self.cell_mut(session.arena_index());
                    let Some(mut inst) = cell.and_then(|slot| slot.instance.take()) else {
                        continue;
                    };
                    let mut ctx =
                        Context::new(self.id, self.n, self.t, session.clone(), &mut self.rng);
                    ctx.effects = std::mem::take(&mut self.effects_pool);
                    inst.on_child_output(&tag, &value, &mut ctx);
                    let effects = std::mem::take(&mut ctx.effects);
                    drop(ctx);
                    self.slot_mut(&session).instance = Some(inst);
                    effects
                }
            };
            for effect in effects.drain(..) {
                match effect {
                    Effect::Send {
                        to,
                        session,
                        payload,
                    } => out.push(Outgoing {
                        to,
                        session,
                        payload,
                    }),
                    Effect::SendAll { session, payload } => {
                        // The last envelope takes the originals.
                        let Some(last) = self.n.checked_sub(1) else {
                            continue;
                        };
                        for p in 0..last {
                            out.push(Outgoing {
                                to: PartyId(p),
                                session: session.clone(),
                                payload: payload.clone(),
                            });
                        }
                        out.push(Outgoing {
                            to: PartyId(last),
                            session,
                            payload,
                        });
                    }
                    Effect::Spawn { session, instance } => {
                        let slot = self.slot_mut(&session);
                        if slot.instance.is_none() {
                            slot.instance = Some(instance);
                            self.instances += 1;
                            queue.push_back(Work::Start(session));
                        }
                    }
                    Effect::Output { session, value } => {
                        let slot = self.slot_mut(&session);
                        if slot.has_output {
                            self.repeated_outputs += 1;
                            continue; // first output wins
                        }
                        slot.has_output = true;
                        if slot.host_spawned {
                            self.host_outputs.push((session.clone(), value.clone()));
                        }
                        self.outputs_recorded += 1;
                        if let (Some(parent), Some(tag)) = (session.parent(), session.last()) {
                            queue.push_back(Work::ChildOutput(parent, *tag, value));
                        }
                    }
                    Effect::Shun { target, session } => {
                        if target != self.id && self.shun.record(target, session) {
                            self.shun_events += 1;
                        }
                    }
                    Effect::Retire {
                        session,
                        owner,
                        reader,
                    } => {
                        // Only the instance itself is swapped out, never a
                        // wrapper forwarding to one of its type.
                        if let Some(occupant) = &mut self.slot_mut(&session).instance {
                            let concrete: &dyn Any = &**occupant;
                            if concrete.type_id() == owner {
                                *occupant = reader;
                                self.retired += 1;
                            }
                        }
                    }
                }
            }
            // Recycle the drained buffer for the next callback.
            if effects.capacity() > self.effects_pool.capacity() {
                self.effects_pool = effects;
            }
        }
        self.work = queue;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn node(id: usize) -> Node {
        Node::new(PartyId(id), 4, 1, ChaCha12Rng::seed_from_u64(id as u64))
    }

    fn sid(kind: &'static str) -> SessionId {
        SessionId::root().child(SessionTag::new(kind, 0))
    }

    /// Echoes every received u32 back to the sender, doubled; outputs on 99.
    struct Doubler;
    impl Instance for Doubler {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.send(PartyId(0), 1u32);
        }
        fn on_message(&mut self, from: PartyId, payload: &Payload, ctx: &mut Context<'_>) {
            if let Some(v) = payload.to_msg::<u32>() {
                if v == 99 {
                    ctx.output(v);
                } else {
                    ctx.send(from, v * 2);
                }
            }
        }
    }

    #[test]
    fn spawn_runs_on_start_and_emits() {
        let mut n = node(1);
        let out = n.spawn(sid("x"), Box::new(Doubler));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, PartyId(0));
        assert_eq!(out[0].payload.to_msg::<u32>(), Some(1));
        assert_eq!(n.instance_count(), 1);
    }

    #[test]
    fn spawn_is_idempotent() {
        let mut n = node(1);
        assert_eq!(n.spawn(sid("x"), Box::new(Doubler)).len(), 1);
        assert!(n.spawn(sid("x"), Box::new(Doubler)).is_empty());
        assert_eq!(n.instance_count(), 1);
    }

    #[test]
    fn deliver_routes_and_responds() {
        let mut n = node(1);
        n.spawn(sid("x"), Box::new(Doubler));
        let mut out = Vec::new();
        assert!(n.deliver(PartyId(2), sid("x"), Payload::new(21u32), &mut out));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload.to_msg::<u32>(), Some(42));
        assert_eq!(out[0].to, PartyId(2));
    }

    #[test]
    fn early_messages_buffer_until_spawn() {
        let mut n = node(1);
        let mut out = Vec::new();
        assert!(n.deliver(PartyId(2), sid("x"), Payload::new(5u32), &mut out));
        assert!(out.is_empty(), "no instance yet");
        let out2 = n.spawn(sid("x"), Box::new(Doubler));
        // on_start send + the buffered message's reply
        assert_eq!(out2.len(), 2);
        assert_eq!(out2[1].payload.to_msg::<u32>(), Some(10));
    }

    #[test]
    fn output_recorded_once_and_not_overwritten() {
        let mut n = node(1);
        n.spawn(sid("x"), Box::new(Doubler));
        let mut out = Vec::new();
        n.deliver(PartyId(0), sid("x"), Payload::new(99u32), &mut out);
        assert_eq!(
            n.output(&sid("x")).unwrap().downcast_ref::<u32>(),
            Some(&99)
        );
        n.deliver(PartyId(0), sid("x"), Payload::new(99u32), &mut out);
        assert_eq!(n.output_count(), 1);
        assert_eq!(n.repeated_output_count(), 1, "the second output is counted");
    }

    /// Parent spawns a child on start; child outputs immediately; parent
    /// records what it heard.
    struct Parent {
        heard: Option<u32>,
    }
    struct Child;
    impl Instance for Child {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.output(7u32);
        }
        fn on_message(&mut self, _f: PartyId, _p: &Payload, _c: &mut Context<'_>) {}
    }
    impl Instance for Parent {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.spawn(SessionTag::new("child", 3), Box::new(Child));
        }
        fn on_message(&mut self, _f: PartyId, _p: &Payload, _c: &mut Context<'_>) {}
        fn on_child_output(&mut self, child: &SessionTag, output: &Payload, ctx: &mut Context<'_>) {
            assert_eq!(child, &SessionTag::new("child", 3));
            self.heard = output.downcast_ref::<u32>().copied();
            ctx.output(*output.downcast_ref::<u32>().unwrap() + 1);
        }
    }

    #[test]
    fn child_output_routes_to_parent() {
        let mut n = node(0);
        n.spawn(sid("p"), Box::new(Parent { heard: None }));
        // The child's value reaches the parent, whose output is it + 1 …
        assert_eq!(n.output(&sid("p")).unwrap().downcast_ref::<u32>(), Some(&8));
        // … and is not kept: only a host spawn keeps its value.
        let child_sid = sid("p").child(SessionTag::new("child", 3));
        assert!(n.output(&child_sid).is_none());
        assert_eq!(n.output_count(), 2);
    }

    /// Spawns a `Doubler` child that outputs on the message 99.
    struct Spawner;
    impl Instance for Spawner {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.spawn(SessionTag::new("child", 0), Box::new(Doubler));
        }
        fn on_message(&mut self, _f: PartyId, _p: &Payload, _c: &mut Context<'_>) {}
    }

    #[test]
    fn a_host_spawn_keeps_the_value_even_as_a_no_op() {
        let mut n = node(1);
        n.spawn(sid("p"), Box::new(Spawner));
        let child = sid("p").child(SessionTag::new("child", 0));
        // The instance spawned the child; the host's spawn is a no-op
        // that still marks the session as one whose value is kept.
        assert!(n.spawn(child.clone(), Box::new(Doubler)).is_empty());
        assert_eq!(n.instance_count(), 2);
        let mut out = Vec::new();
        n.deliver(PartyId(0), child.clone(), Payload::new(99u32), &mut out);
        assert_eq!(n.output(&child).unwrap().downcast_ref::<u32>(), Some(&99));
        assert!(n.retire_session(&child));
        assert!(n.output(&child).is_none(), "retire drops the kept value");
    }

    #[test]
    fn retire_session_frees_the_slot_and_page() {
        let mut n = node(1);
        n.spawn(sid("x"), Box::new(Doubler));
        n.deliver(PartyId(0), sid("x"), Payload::new(99u32), &mut Vec::new());
        assert!(n.output(&sid("x")).is_some());
        assert_eq!(n.instance_count(), 1);
        assert!(n.retire_session(&sid("x")));
        assert_eq!(n.instance_count(), 0);
        assert!(n.output(&sid("x")).is_none(), "retire forgets the output");
        assert!(!n.retire_session(&sid("x")), "second retire is a no-op");
        // The whole page is reclaimed once its last cell is retired.
        assert!(n.slots.iter().all(|p| p.is_none()));
        // A later spawn at the same id starts fresh.
        assert_eq!(n.spawn(sid("x"), Box::new(Doubler)).len(), 1);
        assert_eq!(n.instance_count(), 1);
    }

    #[test]
    fn retire_recycles_the_early_buffer() {
        let mut n = node(1);
        let mut out = Vec::new();
        // Buffer early messages for a session that never spawns …
        for s in 0..8 {
            n.deliver(PartyId(2), sid("x"), Payload::new(s as u32), &mut out);
        }
        assert!(n.retire_session(&sid("x")));
        // … and the next session to buffer one inherits the allocation.
        n.deliver(PartyId(2), sid("y"), Payload::new(0u32), &mut out);
        let early = &n.early[&sid("y").arena_index()];
        assert!(early.capacity() >= 8, "early buffer was recycled");
    }

    #[test]
    fn early_messages_die_with_their_session() {
        let mut n = node(1);
        let mut out = Vec::new();
        for v in [5u32, 6, 7] {
            n.deliver(PartyId(2), sid("x"), Payload::new(v), &mut out);
        }
        assert!(n.retire_session(&sid("x")));
        assert!(n.early.is_empty(), "the early table forgets the session");
        // A spawn there starts fresh: nothing replays, only `on_start` sends.
        let out = n.spawn(sid("x"), Box::new(Doubler));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload.to_msg::<u32>(), Some(1));
    }

    #[test]
    fn a_session_cell_is_24_bytes() {
        assert_eq!(
            std::mem::size_of::<Option<SessionSlot>>(),
            24,
            "an arena cell is its occupant and two bits (48 bytes while it \
             also kept its first output, 88 while it also kept its session \
             id, a spawned flag and an early buffer)"
        );
    }

    #[test]
    fn crashed_node_is_inert() {
        let mut n = node(1);
        n.crash();
        assert!(n.spawn(sid("x"), Box::new(Doubler)).is_empty());
        let mut out = Vec::new();
        assert!(!n.deliver(PartyId(0), sid("x"), Payload::new(1u32), &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn shun_blocks_other_sessions_but_not_same_invocation() {
        let mut reg = ShunRegistry::default();
        let inv = sid("svss");
        assert!(reg.record(PartyId(2), inv.clone()));
        assert!(!reg.record(PartyId(2), sid("other")), "idempotent per pair");
        // same invocation subtree: allowed
        assert!(!reg.blocks(PartyId(2), &inv));
        assert!(!reg.blocks(PartyId(2), &inv.child(SessionTag::new("sub", 1))));
        // unrelated session: blocked
        assert!(reg.blocks(PartyId(2), &sid("other")));
        // other parties unaffected
        assert!(!reg.blocks(PartyId(3), &sid("other")));
    }

    #[test]
    fn node_drops_messages_from_shunned_party() {
        struct Shunner;
        impl Instance for Shunner {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.shun(PartyId(2));
            }
            fn on_message(&mut self, _f: PartyId, p: &Payload, ctx: &mut Context<'_>) {
                if let Some(v) = p.to_msg::<u32>() {
                    ctx.output(v);
                }
            }
        }
        let mut n = node(1);
        n.spawn(sid("a"), Box::new(Shunner));
        assert_eq!(n.shun_event_count(), 1);
        let mut out = Vec::new();
        // same invocation: accepted
        assert!(n.deliver(PartyId(2), sid("a"), Payload::new(5u32), &mut out));
        assert_eq!(n.output(&sid("a")).unwrap().downcast_ref::<u32>(), Some(&5));
        // different session: dropped
        n.spawn(sid("b"), Box::new(Doubler));
        assert!(!n.deliver(PartyId(2), sid("b"), Payload::new(5u32), &mut out));
    }

    /// Outputs on its first message and retires on its second; every
    /// message before that is answered.
    struct Spends {
        heard: u32,
    }
    impl Instance for Spends {
        fn on_start(&mut self, _ctx: &mut Context<'_>) {}
        fn on_message(&mut self, from: PartyId, _p: &Payload, ctx: &mut Context<'_>) {
            self.heard += 1;
            ctx.send(from, self.heard);
            match self.heard {
                1 => ctx.output(self.heard),
                2 => ctx.retire::<u32>(self),
                _ => {}
            }
        }
    }

    /// Forwards everything to a `Spends`.
    struct Wraps(Spends);
    impl Instance for Wraps {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.0.on_start(ctx);
        }
        fn on_message(&mut self, from: PartyId, p: &Payload, ctx: &mut Context<'_>) {
            self.0.on_message(from, p, ctx);
        }
    }

    #[test]
    fn a_retired_instance_leaves_its_session_to_a_reader() {
        let mut n = node(1);
        n.spawn(sid("x"), Box::new(Spends { heard: 0 }));
        let mut out = Vec::new();
        for _ in 0..2 {
            n.deliver(PartyId(2), sid("x"), Payload::new(0u32), &mut out);
        }
        assert_eq!((out.len(), n.retired_count()), (2, 1));
        // The reader answers nothing, the session keeps its output, and a
        // respawn there is still a no-op.
        out.clear();
        assert!(n.deliver(PartyId(2), sid("x"), Payload::new(0u32), &mut out));
        assert!(out.is_empty());
        assert_eq!(n.output(&sid("x")).unwrap().downcast_ref::<u32>(), Some(&1));
        assert!(n.spawn(sid("x"), Box::new(Spends { heard: 0 })).is_empty());
        assert_eq!(n.instance_count(), 1);
        // A wrapper keeps the session: its inner instance retired as its
        // own type, not the wrapper's.
        n.spawn(sid("w"), Box::new(Wraps(Spends { heard: 0 })));
        for _ in 0..3 {
            n.deliver(PartyId(2), sid("w"), Payload::new(0u32), &mut out);
        }
        assert_eq!((out.len(), n.retired_count()), (3, 1));
    }

    #[test]
    fn self_shun_ignored() {
        struct SelfShun;
        impl Instance for SelfShun {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let me = ctx.me();
                ctx.shun(me);
            }
            fn on_message(&mut self, _f: PartyId, _p: &Payload, _c: &mut Context<'_>) {}
        }
        let mut n = node(1);
        n.spawn(sid("x"), Box::new(SelfShun));
        assert_eq!(n.shun_event_count(), 0);
    }
}
