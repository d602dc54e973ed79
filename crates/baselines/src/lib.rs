//! # fed-baselines
//!
//! Every architecture the paper's §4 ("How Fair Are Existing Approaches?")
//! analyses, implemented over the same simulator and the same fairness
//! ledger as the core protocol so their contribution/benefit ratios are
//! directly comparable:
//!
//! | Module | System | Paper's fairness verdict |
//! |---|---|---|
//! | [`broker`] | Central broker | one node does everything |
//! | [`scribe`] | Scribe over Pastry (§4.1) | uninterested interior nodes forward; rendezvous hotspots |
//! | [`dks`] | DKS-style groups + index DHT (§4.1) | index-route relays suffer |
//! | [`dam`] | Data-aware multicast (§4.2) | fair *except* supertopic bridges |
//! | [`splitstream`] | SplitStream forest (§3.1) | load-balanced but benefit-blind |
//!
//! The classic static-fanout gossip baseline is
//! [`fed_core::gossip::GossipNode`] with
//! [`fed_core::gossip::GossipConfig::classic`] — identical code path to the
//! fair protocol with adaptation switched off, so comparisons isolate the
//! adaptation itself.
//!
//! Every node type implements [`fed_sim::Protocol`] with the paper's
//! publish / subscribe / unsubscribe, [`fed_pubsub::Command`], as its
//! command, so a baseline runs on either engine exactly like the core
//! protocol; the experiment harness's `ArchProtocol` adapter (in
//! `fed-experiments`) drives all of them through one scheduling path. A node's routing state is its own;
//! its subscriber side — subscriptions, ledger, exactly-once delivery
//! log — is one [`fed_core::endpoint::Endpoint`], read through each
//! node's `endpoint()` ([`hybrid`] runs two stacks and has two).
//! [`common`] keeps the peer sampling [`dks`] and [`dam`] share. Shared routing infrastructure (the
//! DHT of [`scribe`]/[`dks`], the [`splitstream`] forest, the group
//! tables of [`dks`]/[`dam`]) is built deterministically up front and
//! handed to every node immutably.
//!
//! ## Examples
//!
//! A three-node broker system delivering one event to one subscriber:
//!
//! ```
//! use fed_baselines::broker::BrokerNode;
//! use fed_pubsub::{Command, Event, EventId, TopicId};
//! use fed_sim::network::NetworkModel;
//! use fed_sim::{NodeId, SimTime, Simulation};
//!
//! let broker = NodeId::new(0);
//! let mut sim = Simulation::new(3, NetworkModel::default(), 1, move |id, _| {
//!     BrokerNode::new(id, broker)
//! });
//! let topic = TopicId::new(0);
//! sim.schedule_command(SimTime::ZERO, NodeId::new(1), Command::Subscribe(topic));
//! sim.schedule_command(
//!     SimTime::from_millis(200),
//!     NodeId::new(2),
//!     Command::Publish(Event::bare(EventId::new(2, 0), topic)),
//! );
//! sim.run_until(SimTime::from_secs(2));
//! let subscriber = sim.nodes().find(|(id, _)| *id == NodeId::new(1)).unwrap().1;
//! assert_eq!(subscriber.endpoint().deliveries().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broker;
pub mod common;
pub mod dam;
pub mod dks;
pub mod hybrid;
pub mod scribe;
pub mod splitstream;

pub use broker::{BrokerMsg, BrokerNode};
pub use dam::{DamMsg, DamNode, GroupTable};
pub use dks::{DksMsg, DksNode};
pub use scribe::{ScribeMsg, ScribeNode};
pub use splitstream::{Forest, SplitStreamNode, StripeMsg};
