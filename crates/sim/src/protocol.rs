//! The protocol abstraction every dissemination system implements.
//!
//! A protocol is a deterministic state machine per node, driven by four
//! callbacks: initialization, message receipt, timer expiry and external
//! commands (e.g. "publish this event"). All side effects go through the
//! [`Context`]: sending messages and arming timers. The engine owns
//! delivery, loss, latency and per-node randomness.

use crate::local_id::{LocalId, LocalIds};
use crate::time::{SimDuration, SimTime};
use fed_util::rng::Xoshiro256StarStar;
use std::fmt;

/// Identifier of a simulated node (dense indices `0..n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates an id from a dense index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The dense index of this node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// A protocol callback invocation, routed by the execution kernel.
pub(crate) enum Invoke<P: Protocol> {
    Init,
    Message { from: NodeId, msg: P::Msg },
    Timer(u64),
    Command(P::Cmd),
}

/// A queued side effect produced by a protocol callback.
#[derive(Debug, Clone)]
pub(crate) enum Outgoing<M> {
    /// Send `msg` to `to` over the simulated network.
    Send {
        /// Destination node.
        to: NodeId,
        /// Payload.
        msg: M,
    },
    /// Fire `on_timer(token)` after `delay`.
    Timer {
        /// Delay from now.
        delay: SimDuration,
        /// Opaque token returned to the protocol.
        token: u64,
    },
}

/// Handle through which a protocol interacts with the simulated world.
///
/// Borrowed mutably for the duration of one callback; everything it exposes
/// is deterministic given the simulation seed.
#[derive(Debug)]
pub struct Context<'a, M> {
    pub(crate) node: NodeId,
    pub(crate) now: SimTime,
    pub(crate) n: usize,
    pub(crate) rng: &'a mut Xoshiro256StarStar,
    pub(crate) ids: &'a mut LocalIds,
    pub(crate) outbox: &'a mut Vec<Outgoing<M>>,
}

impl<'a, M> Context<'a, M> {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of node slots in the simulation (alive or not).
    ///
    /// Protocols that need *membership* should use a membership view rather
    /// than this raw bound; it exists so uniform peer sampling oracles can be
    /// built on top.
    pub fn system_size(&self) -> usize {
        self.n
    }

    /// This node's private deterministic random stream.
    pub fn rng(&mut self) -> &mut Xoshiro256StarStar {
        self.rng
    }

    /// The executing kernel's dense number for `key`, shared by every node
    /// that kernel owns (see [`crate::local_id`] for the contract: compare
    /// it, never order or send it).
    #[inline]
    pub fn local_id(&mut self, key: u64) -> LocalId {
        self.ids.id_of(key)
    }

    /// Queues `msg` for delivery to `to`.
    ///
    /// Delivery is asynchronous: latency and loss are decided by the
    /// engine's [`crate::network::NetworkModel`]. Sending to self is allowed
    /// and goes through the network like any other message.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push(Outgoing::Send { to, msg });
    }

    /// Arms a one-shot timer; `on_timer(token)` fires after `delay`.
    ///
    /// Timers do not survive a crash: a node that crashes and rejoins keeps
    /// its state but starts with a clean timer set, and its `on_init` runs
    /// again to re-arm whatever it needs.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.outbox.push(Outgoing::Timer { delay, token });
    }

    /// Runs a closure against an inner context over a different message
    /// type, then maps every queued send through `wrap` into this context's
    /// outbox. Timers pass through unchanged — a host embedding several
    /// sub-protocols must namespace their timer tokens so it can route
    /// `on_timer` back to the right one.
    ///
    /// This is how composite protocols (e.g. a broker/gossip hybrid) drive
    /// embedded [`Protocol`] implementations without duplicating the
    /// engine's effect plumbing: the inner protocol sees a fully functional
    /// deterministic context sharing this node's RNG stream, clock and
    /// kernel numbering ([`Context::local_id`]).
    pub fn scoped<M2, R>(
        &mut self,
        wrap: impl Fn(M2) -> M,
        f: impl FnOnce(&mut Context<'_, M2>) -> R,
    ) -> R {
        let mut inner_box: Vec<Outgoing<M2>> = Vec::new();
        let out = {
            let mut inner = Context {
                node: self.node,
                now: self.now,
                n: self.n,
                rng: self.rng,
                ids: self.ids,
                outbox: &mut inner_box,
            };
            f(&mut inner)
        };
        for effect in inner_box {
            match effect {
                Outgoing::Send { to, msg } => {
                    self.outbox.push(Outgoing::Send { to, msg: wrap(msg) })
                }
                Outgoing::Timer { delay, token } => {
                    self.outbox.push(Outgoing::Timer { delay, token })
                }
            }
        }
        out
    }
}

/// A dissemination protocol: per-node deterministic state machine.
///
/// Implementations must not use any randomness outside [`Context::rng`] and
/// must not read wall-clock time; this is what makes simulations replayable.
pub trait Protocol: Sized {
    /// The wire message type.
    type Msg: Clone;
    /// External command type (application-level injections such as
    /// "publish" or "subscribe").
    type Cmd: Clone;

    /// Called once when the node starts (also after a rejoin).
    fn on_init(&mut self, _ctx: &mut Context<'_, Self::Msg>) {}

    /// Called when a message arrives.
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when a timer armed via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_, Self::Msg>, _token: u64) {}

    /// Called when an external command is injected for this node.
    fn on_command(&mut self, _ctx: &mut Context<'_, Self::Msg>, _cmd: Self::Cmd) {}

    /// Abstract size of a message in bytes, used for byte-level contribution
    /// accounting (the paper's Figure 3 modulates contribution by message
    /// size). The default charges one unit per message.
    fn message_size(_msg: &Self::Msg) -> usize {
        1
    }

    /// Enumerates the application events `msg` carries, for per-event
    /// causal tracing ([`crate::Probe::on_hop`]).
    ///
    /// Called only while an observer that
    /// [`traces`](crate::Probe::traces) is attached, once per network send, on
    /// the sender's side. For every application event the message carries,
    /// the implementation calls `emit(event, topic, bytes, kind)` with the
    /// packed event id, its topic, the bytes that event contributes to the
    /// message, and the protocol's [`crate::HopKind`] classification of
    /// the hop. Control traffic (acks, joins, membership) emits nothing.
    /// The default treats every message as control traffic, so protocols
    /// opt into tracing explicitly.
    fn trace_payload(_msg: &Self::Msg, _emit: &mut dyn FnMut(u64, u32, u32, crate::HopKind)) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_basics() {
        let id = NodeId::new(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.as_u32(), 7);
        assert_eq!(format!("{id}"), "n7");
        assert_eq!(NodeId::from(3u32), NodeId::new(3));
        assert!(NodeId::new(1) < NodeId::new(2));
    }

    #[test]
    fn context_queues_effects() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let mut ids = LocalIds::default();
        let mut outbox: Vec<Outgoing<&'static str>> = Vec::new();
        let mut ctx = Context {
            node: NodeId::new(0),
            now: SimTime::from_millis(5),
            n: 10,
            rng: &mut rng,
            ids: &mut ids,
            outbox: &mut outbox,
        };
        assert_eq!(ctx.id(), NodeId::new(0));
        assert_eq!(ctx.now(), SimTime::from_millis(5));
        assert_eq!(ctx.system_size(), 10);
        let _ = ctx.rng().next_u64();
        ctx.send(NodeId::new(3), "hello");
        ctx.set_timer(SimDuration::from_millis(100), 42);
        assert_eq!(outbox.len(), 2);
        match &outbox[0] {
            Outgoing::Send { to, msg } => {
                assert_eq!(*to, NodeId::new(3));
                assert_eq!(*msg, "hello");
            }
            other => panic!("unexpected {other:?}"),
        }
        match &outbox[1] {
            Outgoing::Timer { delay, token } => {
                assert_eq!(*delay, SimDuration::from_millis(100));
                assert_eq!(*token, 42);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scoped_context_shares_the_numbering() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let mut ids = LocalIds::default();
        let mut outbox: Vec<Outgoing<u32>> = Vec::new();
        let mut ctx = Context {
            node: NodeId::new(0),
            now: SimTime::ZERO,
            n: 1,
            rng: &mut rng,
            ids: &mut ids,
            outbox: &mut outbox,
        };
        let outer = ctx.local_id(40);
        let (inner_old, inner_new) = ctx.scoped(u32::from, |c: &mut Context<'_, u8>| {
            (c.local_id(40), c.local_id(41))
        });
        assert_eq!(inner_old, outer, "the inner context sees the same number");
        assert_eq!(inner_new.index(), 1, "and assigns the next one");
        assert_eq!(ctx.local_id(41), inner_new);
    }

    use fed_util::rng::Rng64;
}
