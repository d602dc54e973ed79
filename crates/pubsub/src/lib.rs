//! # fed-pubsub
//!
//! The publish/subscribe data model of the `fed` workspace: events made
//! of an id, a topic and a payload size, flat topics, per-node topic
//! subscription tables, and the paper's three API calls as one
//! [`Command`].
//!
//! This crate is pure data — no protocol logic, no I/O — so every
//! dissemination system (the fair gossip core and all baselines) shares one
//! notion of "is this event interesting to this peer" (the paper's
//! `I(p, e)`, §2). The paper's expressive (content-based) case is modelled
//! by the fairness ledger's byte accounting over these topic
//! subscriptions, not by a filter language.
//!
//! ## Examples
//!
//! ```
//! use fed_pubsub::event::{Event, EventId};
//! use fed_pubsub::subscription::SubscriptionTable;
//! use fed_pubsub::topic::TopicId;
//!
//! let (sports, football) = (TopicId::new(1), TopicId::new(2));
//! let mut subs = SubscriptionTable::new();
//! subs.subscribe_topic(sports);
//!
//! let e = Event::new(EventId::new(1, 1), football, 128);
//! assert!(!subs.matches(&e), "matching names the exact topic");
//! subs.subscribe_topic(football);
//! assert!(subs.matches(&e));
//! assert_eq!(e.size_bytes(), 16 + 128);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod command;
pub mod event;
pub mod subscription;
pub mod topic;

pub use command::Command;
pub use event::{Event, EventBatch, EventId};
pub use subscription::SubscriptionTable;
pub use topic::TopicId;
