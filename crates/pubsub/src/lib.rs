//! # fed-pubsub
//!
//! The publish/subscribe data model of the `fed` workspace: events made
//! of an id, a topic and a payload size, topics with optional hierarchy,
//! and per-node topic subscription tables.
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
//! use fed_pubsub::topic::TopicSpace;
//!
//! let mut topics = TopicSpace::new();
//! let quotes = topics.register("quotes")?;
//! let fed = topics.register_under("quotes/FED", quotes)?;
//!
//! let mut subs = SubscriptionTable::new();
//! subs.subscribe_topic(quotes);
//!
//! let e = Event::new(EventId::new(1, 1), fed, 128);
//! assert!(!subs.matches(&e), "flat matching names the exact topic");
//! assert!(subs.matches_in(&e, &topics), "hierarchical matching sees children");
//! assert_eq!(e.size_bytes(), 16 + 128);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod subscription;
pub mod topic;

pub use event::{Event, EventBatch, EventId};
pub use subscription::SubscriptionTable;
pub use topic::{TopicId, TopicSpace};
