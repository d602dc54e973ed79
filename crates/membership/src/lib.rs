//! # fed-membership
//!
//! Membership for gossip dissemination: the full-membership oracle that
//! implements the `SELECTPARTICIPANTS(F)` of the paper's Figure 4, and the
//! SWIM failure detector the gossip node can run beside it.
//!
//! [`FullMembership`] draws partners uniformly from the whole system, the
//! standard analytical assumption for push gossip and the one every
//! experiment here makes.
//!
//! The oracle draws only from the node's kernel-provided RNG stream, so
//! partner selection is deterministic per `(seed, node id)` — one of the
//! invariants that keeps the sharded runtime bit-identical to the
//! sequential engine (see `docs/ARCHITECTURE.md`). Uniformity matters
//! for fairness too: the paper's `SELECTPARTICIPANTS(F)` assumes
//! partners are picked uniformly, which is what makes expected
//! forwarding load proportional to fanout and lets the controllers
//! steer it.
//!
//! ## Examples
//!
//! ```
//! use fed_membership::{FullMembership, PeerSampler};
//! use fed_sim::NodeId;
//! use fed_util::rng::Xoshiro256StarStar;
//!
//! let mut sampler = FullMembership::new(NodeId::new(0), 100);
//! let mut rng = Xoshiro256StarStar::seed_from_u64(1);
//! let partners = sampler.sample_peers(&mut rng, 5);
//! assert_eq!(partners.len(), 5);
//! assert!(partners.iter().all(|p| *p != NodeId::new(0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sampler;
pub mod swim;

pub use sampler::{FullMembership, PeerSampler};
pub use swim::{
    SwimMsg, SwimObservation, SwimObservationKind, SwimState, SwimStatus, SwimTick, SwimUpdate,
};
