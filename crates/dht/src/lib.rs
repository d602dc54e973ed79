//! # fed-dht
//!
//! A Pastry-like structured-overlay substrate: 64-bit ring identifiers,
//! prefix routing tables with leaf sets, and whole-system route/rendezvous
//! queries.
//!
//! This exists to reproduce the paper's §4.1 analysis of **structured**
//! selective dissemination (Scribe over Pastry): rendezvous nodes and the
//! interior nodes of DHT routes do forwarding work for topics they never
//! subscribed to — the canonical fairness violation. The routing tables are
//! built offline from global knowledge (the join protocol is irrelevant to
//! fairness accounting); routes have the same prefix-routing structure,
//! `O(log n)` length and rendezvous placement as Pastry's.
//!
//! [`DhtNetwork::build`] builds one flat index for the whole population
//! — ids, the ring order and an arena holding only the table rows that
//! can be non-empty — by walking the ring-sorted ids as a 16-ary digit
//! trie; every node's [`RoutingState`] is a view of it, equal slot for
//! slot to a per-node scan of the population (asserted by tests). At
//! about 300 bytes per node it is shared immutably (`Arc`) across the
//! sharded engine's worker threads without perturbing determinism.
//!
//! ## Examples
//!
//! ```
//! use fed_dht::{DhtId, DhtNetwork};
//!
//! let net = DhtNetwork::build(100);
//! let key = DhtId::of_topic(7);
//! let root = net.root_of(key);
//! let path = net.route_path(0, key)?;
//! assert_eq!(*path.last().unwrap(), root.index);
//! # Ok::<(), fed_dht::UnknownNode>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod id;
pub mod network;
pub mod routing;

pub use id::{DhtId, DIGIT_BASE, DIGIT_BITS, NUM_DIGITS};
pub use network::{DhtNetwork, UnknownNode};
pub use routing::{DhtNode, RoutingState};
