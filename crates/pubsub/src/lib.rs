//! # fed-pubsub
//!
//! The publish/subscribe data model of the `fed` workspace: events with
//! typed attributes, topics with optional hierarchy, content-based filters
//! with a textual subscription language and dynamic subscription tables.
//!
//! This crate is pure data — no protocol logic, no I/O — so every
//! dissemination system (the fair gossip core and all baselines) shares one
//! notion of "is this event interesting to this peer" (the paper's
//! `I(p, e)`, §2).
//!
//! ## Examples
//!
//! ```
//! use fed_pubsub::event::{Event, EventId};
//! use fed_pubsub::lang::parse_filter;
//! use fed_pubsub::subscription::SubscriptionTable;
//! use fed_pubsub::topic::TopicSpace;
//!
//! let mut topics = TopicSpace::new();
//! let quotes = topics.register("quotes")?;
//!
//! let mut subs = SubscriptionTable::new();
//! subs.subscribe_topic(quotes);
//! subs.subscribe_content(parse_filter(r#"price > 100 && symbol == "FED""#)?);
//!
//! let e = Event::builder(EventId::new(1, 1), quotes)
//!     .attr("price", 250i64)
//!     .attr("symbol", "FED")
//!     .build();
//! assert!(subs.matches(&e));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod filter;
pub mod lang;
pub mod subscription;
pub mod topic;

pub use event::{AttrValue, Event, EventBatch, EventId};
pub use filter::{CmpOp, Filter};
pub use lang::{parse_filter, ParseError};
pub use subscription::{Subscription, SubscriptionId, SubscriptionTable};
pub use topic::{TopicId, TopicSpace};
