//! # fed-core
//!
//! The primary contribution of *"Towards Fair Event Dissemination"*
//! (Baehni, Guerraoui, Koldehofe, Monod — ICDCS 2007), built out from the
//! position paper's sketch into a working protocol suite:
//!
//! * [`ledger`] — contribution/benefit accounting exactly as the paper's
//!   Figures 1–3 define it (topic-based and expressive variants).
//! * [`endpoint`] — a node's subscriber side (subscriptions, ledger,
//!   exactly-once delivery log) with the per-node accounting rule as its
//!   only mutators; every architecture's node holds one.
//! * [`gossip`] — the basic push gossip dissemination algorithm (Figure 4)
//!   and its fairness-adaptive extension: fanout and gossip-message-size
//!   controllers driven by gossip-aggregated benefit estimates (§5.2).
//! * [`adaptive`] — the controllers and the population-rate estimator.
//! * [`submgmt`] — fair subscription maintenance by random walks with
//!   relay compensation (§5.1).
//! * [`behavior`] — selfish/lying peer models (aggrieved leavers,
//!   free-riders, contribution inflators).
//! * [`audit`] — receipt-based audit of contribution claims (§5.2 Q6).
//!
//! ## Examples
//!
//! ```
//! use fed_core::gossip::{GossipConfig, GossipNode};
//! use fed_pubsub::{Command, Event, EventId, TopicId};
//! use fed_sim::network::NetworkModel;
//! use fed_sim::{NodeId, SimTime, Simulation};
//!
//! let n = 32;
//! let cfg = GossipConfig::fair(4, 16);
//! let mut sim = Simulation::new(n, NetworkModel::default(), 7, move |id, _| {
//!     GossipNode::new(id, n, cfg.clone())
//! });
//! for i in 0..n {
//!     sim.schedule_command(
//!         SimTime::ZERO,
//!         NodeId::new(i as u32),
//!         Command::Subscribe(TopicId::new(0)),
//!     );
//! }
//! sim.schedule_command(
//!     SimTime::from_millis(100),
//!     NodeId::new(0),
//!     Command::Publish(Event::bare(EventId::new(0, 1), TopicId::new(0))),
//! );
//! sim.run_until(SimTime::from_secs(5));
//! let delivered = sim
//!     .nodes()
//!     .filter(|(_, p)| p.endpoint().deliveries().len() == 1)
//!     .count();
//! assert_eq!(delivered, n);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod audit;
pub mod behavior;
pub mod endpoint;
pub mod gossip;
pub mod ledger;
pub mod submgmt;

pub use adaptive::{Controller, ControllerConfig, GlobalRateEstimator, RateSample};
pub use audit::{audit_subject, AuditOutcome, AuditVerdict, WitnessReport};
pub use behavior::Behavior;
pub use endpoint::{emit_event, DeliveryLog, Endpoint};
pub use gossip::{GossipConfig, GossipMsg, GossipNode};
pub use ledger::{Counters, FairnessLedger, RatioSpec};
pub use submgmt::{SubWalkCmd, SubWalkMsg, SubWalkNode, WalkAccounting, WalkOutcome};
