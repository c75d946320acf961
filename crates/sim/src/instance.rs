//! The protocol-instance abstraction: event-driven state machines that
//! compose hierarchically.

use crate::ids::{PartyId, SessionId, SessionTag};
use crate::payload::Payload;
use crate::wire::WireMessage;
use rand_chacha::ChaCha12Rng;
use std::any::{Any, TypeId};
use std::marker::PhantomData;

/// An event-driven protocol instance (one party's state machine for one
/// protocol session).
///
/// Instances never block: they react to `on_start` / `on_message` /
/// `on_child_output` by emitting effects through the [`Context`] — sends,
/// child spawns, outputs, shun events. The same instance code runs under
/// the deterministic simulator and the threaded runtime.
///
/// Byzantine parties are modelled by substituting a different `Instance`
/// implementation for the honest one; the framework is identical.
///
/// The `Any` supertrait lets the node tell an instance's concrete type
/// apart from a wrapper's (see [`Context::retire`]).
pub trait Instance: Any + Send {
    /// Called once when the instance is spawned locally.
    fn on_start(&mut self, ctx: &mut Context<'_>);

    /// Called for every message delivered to this instance's session.
    fn on_message(&mut self, from: PartyId, payload: &Payload, ctx: &mut Context<'_>);

    /// Called when a direct child instance produces its (first) output.
    fn on_child_output(&mut self, child: &SessionTag, output: &Payload, ctx: &mut Context<'_>) {
        let _ = (child, output, ctx);
    }
}

/// A deferred effect emitted by an instance.
///
/// (Not `derive(Debug)`: `Spawn` holds a trait object.)
pub(crate) enum Effect {
    /// Point-to-point send within the emitting session.
    Send {
        to: PartyId,
        session: SessionId,
        payload: Payload,
    },
    /// Send to every party (including the sender) within the session.
    SendAll {
        session: SessionId,
        payload: Payload,
    },
    /// Spawn a child instance under the emitting session.
    Spawn {
        session: SessionId,
        instance: Box<dyn Instance>,
    },
    /// Produce the session's output (first output wins).
    Output { session: SessionId, value: Payload },
    /// Record a shun event against `target` observed in `session`.
    Shun { target: PartyId, session: SessionId },
    /// Hand `session` to `reader` if its occupant's concrete type is
    /// still `owner` (see [`Context::retire`]).
    Retire {
        session: SessionId,
        owner: TypeId,
        reader: Box<dyn Instance>,
    },
}

impl std::fmt::Debug for Effect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Effect::Send {
                to,
                session,
                payload,
            } => f
                .debug_struct("Send")
                .field("to", to)
                .field("session", session)
                .field("payload", payload)
                .finish(),
            Effect::SendAll { session, payload } => f
                .debug_struct("SendAll")
                .field("session", session)
                .field("payload", payload)
                .finish(),
            Effect::Spawn { session, .. } => f
                .debug_struct("Spawn")
                .field("session", session)
                .finish_non_exhaustive(),
            Effect::Output { session, value } => f
                .debug_struct("Output")
                .field("session", session)
                .field("value", value)
                .finish(),
            Effect::Shun { target, session } => f
                .debug_struct("Shun")
                .field("target", target)
                .field("session", session)
                .finish(),
            Effect::Retire { session, owner, .. } => f
                .debug_struct("Retire")
                .field("session", session)
                .field("owner", owner)
                .finish_non_exhaustive(),
        }
    }
}

/// The execution context handed to an [`Instance`] callback.
///
/// Collects effects to be applied by the node after the callback returns
/// (avoiding re-entrancy), and exposes the party's identity, the system
/// parameters `n` and `t`, and the party's deterministic RNG.
pub struct Context<'a> {
    me: PartyId,
    n: usize,
    t: usize,
    session: SessionId,
    rng: &'a mut ChaCha12Rng,
    pub(crate) effects: Vec<Effect>,
}

impl<'a> Context<'a> {
    pub(crate) fn new(
        me: PartyId,
        n: usize,
        t: usize,
        session: SessionId,
        rng: &'a mut ChaCha12Rng,
    ) -> Self {
        Context {
            me,
            n,
            t,
            session,
            rng,
            effects: Vec::new(),
        }
    }

    /// This party's identifier.
    pub fn me(&self) -> PartyId {
        self.me
    }

    /// Total number of parties.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Fault threshold `t` (the system guarantees `n >= 3t + 1`).
    pub fn t(&self) -> usize {
        self.t
    }

    /// The session id of the running instance.
    pub fn session(&self) -> &SessionId {
        &self.session
    }

    /// The party's deterministic random generator.
    pub fn rng(&mut self) -> &mut ChaCha12Rng {
        self.rng
    }

    /// Iterator over all party ids `0..n`.
    pub fn parties(&self) -> impl Iterator<Item = PartyId> {
        (0..self.n).map(PartyId)
    }

    /// Sends `payload` to `to` within this session.
    ///
    /// Messages are [`WireMessage`]s: they carry a typed codec identity,
    /// so the same send works on in-memory backends (delivered as typed
    /// values, small ones inlined without allocation) and on the
    /// wire-serialized backend (delivered as encoded byte frames).
    /// Receivers read them back with [`Payload::view`] /
    /// [`Payload::to_msg`].
    ///
    /// [`WireMessage`]: crate::wire::WireMessage
    pub fn send<T: crate::wire::WireMessage>(&mut self, to: PartyId, payload: T) {
        self.effects.push(Effect::Send {
            to,
            session: self.session.clone(),
            payload: Payload::message(payload),
        });
    }

    /// Sends `payload` to every party, including this one. See
    /// [`send`](Context::send) for the message bound.
    pub fn send_all<T: crate::wire::WireMessage>(&mut self, payload: T) {
        self.effects.push(Effect::SendAll {
            session: self.session.clone(),
            payload: Payload::message(payload),
        });
    }

    /// Spawns a child instance under `tag`.
    ///
    /// All parties that spawn the same tag path participate in the same
    /// logical sub-protocol. Spawning an already-existing child is ignored
    /// (idempotent), so "continue participating" loops are harmless.
    pub fn spawn(&mut self, tag: SessionTag, instance: Box<dyn Instance>) {
        self.effects.push(Effect::Spawn {
            session: self.session.child(tag),
            instance,
        });
    }

    /// Emits this session's output. The first output is routed to the
    /// parent instance's [`on_child_output`](Instance::on_child_output),
    /// and kept for [`Node::output`](crate::Node::output) only where the
    /// host spawned the session; a later output is dropped and counted
    /// ([`Node::repeated_output_count`](crate::Node::repeated_output_count)),
    /// which no honest instance does. Emitting it does not end the
    /// instance: it keeps receiving its session's messages until it
    /// [`retire`](Context::retire)s, if ever.
    pub fn output<T: Send + Sync + 'static>(&mut self, value: T) {
        self.effects.push(Effect::Output {
            session: self.session.clone(),
            value: Payload::new(value),
        });
    }

    /// Records that this party *shuns* `target`: messages from `target`
    /// outside the current invocation subtree will be dropped from now on
    /// (Definition 3.2's shunning semantics). Idempotent per ordered pair,
    /// so fewer than `n^2` shun events can ever occur.
    pub fn shun(&mut self, target: PartyId) {
        self.effects.push(Effect::Shun {
            target,
            session: self.session.clone(),
        });
    }

    /// Declares that `owner` — the instance running this callback — can
    /// never act again. The node then drops it and hands its session to a
    /// zero-sized reader that views every later message as `M`, so a
    /// garbled one still counts as a decode miss, and ignores child
    /// outputs. The session itself stays: its cell, its output bit and any
    /// kept output, and the reader occupying the cell keeps a respawn a
    /// no-op, so a late message, a respawn and an output lookup meet what
    /// they met before.
    ///
    /// The contract: from this callback on, every handler of `owner`
    /// returns, whatever it is given, without sending, spawning,
    /// outputting or shunning, and views a message as nothing but `M`.
    /// Retiring is what frees a spent instance's state before the run
    /// ends; nothing else changes.
    ///
    /// The swap happens only while the session's occupant *is* an
    /// `owner`: a wrapper that forwards to an instance of that type (an
    /// adaptive shell, an attack built on an honest instance) keeps the
    /// session, and its inner instance keeps being called.
    pub fn retire<M: WireMessage>(&mut self, owner: &impl Instance) {
        self.retire_to(owner, Box::new(Retired::<M>(PhantomData)));
    }

    /// [`retire`](Context::retire) for an `owner` whose handlers, from
    /// this callback on, return without viewing the message at all: a
    /// halted BA, or an instance that talks only through its children.
    /// Its reader views nothing either, so a late garbled frame is no
    /// decode miss now, as it was none before. The contract and the swap
    /// are `retire`'s otherwise.
    pub fn retire_unviewed(&mut self, owner: &impl Instance) {
        self.retire_to(owner, Box::new(Unviewed));
    }

    fn retire_to(&mut self, owner: &impl Instance, reader: Box<dyn Instance>) {
        self.effects.push(Effect::Retire {
            session: self.session.clone(),
            owner: Any::type_id(owner),
            reader,
        });
    }
}

/// What occupies a session whose instance [retired](Context::retire): no
/// state, so its box allocates nothing.
struct Retired<M>(PhantomData<fn() -> M>);

impl<M: WireMessage> Instance for Retired<M> {
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    fn on_message(&mut self, _from: PartyId, payload: &Payload, _ctx: &mut Context<'_>) {
        // The retired instance viewed every message as `M` first; a miss
        // is recorded the same way.
        let _ = payload.view::<M>();
    }
}

/// What occupies a session whose instance
/// [retired unviewed](Context::retire_unviewed): it neither holds nor
/// looks at anything.
struct Unviewed;

impl Instance for Unviewed {
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    fn on_message(&mut self, _from: PartyId, _payload: &Payload, _ctx: &mut Context<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    struct Nop;
    impl Instance for Nop {
        fn on_start(&mut self, _ctx: &mut Context<'_>) {}
        fn on_message(&mut self, _f: PartyId, _p: &Payload, _c: &mut Context<'_>) {}
    }

    #[test]
    fn context_collects_effects_in_order() {
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let sid = SessionId::root().child(SessionTag::new("x", 0));
        let mut ctx = Context::new(PartyId(1), 4, 1, sid.clone(), &mut rng);
        ctx.send(PartyId(2), 42u32);
        ctx.send_all("hello".to_string());
        ctx.spawn(SessionTag::new("child", 9), Box::new(Nop));
        ctx.output(7u8);
        ctx.shun(PartyId(3));
        assert_eq!(ctx.effects.len(), 5);
        match &ctx.effects[0] {
            Effect::Send {
                to,
                session,
                payload,
            } => {
                assert_eq!(*to, PartyId(2));
                assert_eq!(session, &sid);
                assert_eq!(payload.to_msg::<u32>(), Some(42));
            }
            other => panic!("unexpected {other:?}"),
        }
        match &ctx.effects[2] {
            Effect::Spawn { session, .. } => {
                assert_eq!(session, &sid.child(SessionTag::new("child", 9)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn context_accessors() {
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let sid = SessionId::root();
        let ctx = Context::new(PartyId(0), 7, 2, sid.clone(), &mut rng);
        assert_eq!(ctx.me(), PartyId(0));
        assert_eq!(ctx.n(), 7);
        assert_eq!(ctx.t(), 2);
        assert_eq!(ctx.session(), &sid);
        assert_eq!(ctx.parties().count(), 7);
    }
}
