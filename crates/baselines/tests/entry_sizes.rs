//! The size of one pending-event queue entry, per architecture.
//!
//! Every send, timer and command sits in the queue as an `EventKind<P>`,
//! so this size is what the queue moves per entry. Growing it is a
//! decision to make on purpose, not a side effect of a new message field.

use fed_baselines::hybrid::HybridNode;
use fed_baselines::{BrokerNode, DamNode, DksNode, ScribeNode, SplitStreamNode};
use fed_core::GossipNode;
use fed_sim::exec::EventKind;
use std::mem::size_of;

#[test]
fn queue_entries_keep_their_sizes() {
    assert_eq!(size_of::<EventKind<BrokerNode>>(), 32, "broker");
    assert_eq!(size_of::<EventKind<ScribeNode>>(), 32, "scribe");
    assert_eq!(size_of::<EventKind<DksNode>>(), 32, "dks");
    assert_eq!(size_of::<EventKind<DamNode>>(), 32, "dam");
    assert_eq!(size_of::<EventKind<SplitStreamNode>>(), 32, "splitstream");
    assert_eq!(size_of::<EventKind<GossipNode>>(), 72, "gossip");
    assert_eq!(size_of::<EventKind<HybridNode>>(), 72, "hybrid");
}
