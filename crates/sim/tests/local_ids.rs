//! The kernel-local event numbering and the bitset over it.
//!
//! The open-addressed numbering is checked against a `FastMap`
//! first-sight numbering over key sequences that grow the table several
//! times, and `LocalIdSet` against a `FastSet` reference over random
//! insert / contains sequences whose ids cross word boundaries and reach
//! past 2^16. The numbering is checked through the two ways protocols
//! reach it: dense from 0 in first-sight order within each kernel, the
//! same number for a repeated key, and one table for every node of a
//! kernel, `Context::scoped` contexts included.

use fed_sim::exec::{seed_streams, EventKey, EventKind, EventQueue, Kernel, EXTERNAL_SRC};
use fed_sim::local_id::LocalIds;
use fed_sim::network::NetworkModel;
use fed_sim::{Context, LocalId, LocalIdSet, NodeId, Protocol, SimTime, Simulation};
use fed_util::hash::{FastMap, FastSet};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Largest id the proptest draws (exclusive): past 2^16.
const ID_SPACE: u32 = 1 << 17;

/// `ID_SPACE` ids of one numbering, `ids()[k]` being the `k`-th assigned.
fn ids() -> &'static [LocalId] {
    static IDS: OnceLock<Vec<LocalId>> = OnceLock::new();
    IDS.get_or_init(|| {
        let mut numbering = LocalIds::default();
        (0..ID_SPACE as u64)
            .map(|k| numbering.id_of(k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xfeed))
            .collect()
    })
}

/// An id index biased towards word boundaries and the 2^16 line, so
/// neighbouring bits and fresh words are both exercised.
fn id_index() -> BoxedStrategy<u32> {
    prop_oneof![
        0u32..200,
        60u32..70,
        126u32..131,
        (1u32 << 16) - 70..(1 << 16) + 70,
        0..ID_SPACE,
    ]
}

/// A numbering key: repeats from a small range, event-id-shaped keys
/// whose publishers differ only above bit 10 (equal low bits under a
/// weak hash), and the extremes.
fn key() -> BoxedStrategy<u64> {
    prop_oneof![
        0u64..50,
        (0u64..40, 0u64..4).prop_map(|(p, s)| (p << 42) | s),
        prop_oneof![Just(0u64), Just(u64::MAX), Just(1 << 63)],
        any::<u64>(),
    ]
}

proptest! {
    #[test]
    fn numbering_matches_a_fast_map_reference(
        keys in prop::collection::vec(key(), 0..1_500),
    ) {
        let mut numbering = LocalIds::default();
        let mut reference: FastMap<u64, usize> = FastMap::default();
        for key in keys {
            let next = reference.len();
            let expected = *reference.entry(key).or_insert(next);
            prop_assert_eq!(numbering.id_of(key).index(), expected, "key {:#x}", key);
        }
        for (&key, &expected) in &reference {
            prop_assert_eq!(numbering.id_of(key).index(), expected, "re-read {:#x}", key);
        }
    }

    #[test]
    fn local_id_set_matches_a_fast_set(
        ops in prop::collection::vec((any::<bool>(), id_index()), 0..300),
        probes in prop::collection::vec(id_index(), 0..40),
    ) {
        let ids = ids();
        let mut set = LocalIdSet::default();
        let mut reference: FastSet<u32> = FastSet::default();
        for (insert, k) in ops {
            let id = ids[k as usize];
            if insert {
                prop_assert_eq!(set.insert(id), reference.insert(k), "insert {}", k);
            } else {
                prop_assert_eq!(set.contains(id), reference.contains(&k), "contains {}", k);
            }
            prop_assert_eq!(set.len(), reference.len());
            prop_assert_eq!(set.is_empty(), reference.is_empty());
        }
        for &k in &reference {
            prop_assert!(set.contains(ids[k as usize]), "lost {}", k);
        }
        for k in probes {
            prop_assert_eq!(set.contains(ids[k as usize]), reference.contains(&k), "probe {}", k);
        }
    }
}

#[test]
fn a_standalone_numbering_is_dense_from_zero() {
    for (k, id) in ids().iter().enumerate() {
        assert_eq!(id.index(), k);
    }
    let mut numbering = LocalIds::default();
    let first = numbering.id_of(u64::MAX);
    assert_eq!(numbering.id_of(0).index(), 1);
    assert_eq!(numbering.id_of(u64::MAX), first);
    assert_eq!(first.index(), 0);
    assert_eq!(numbering.id_of(1).index(), 2);
}

#[test]
fn full_words_count_every_bit() {
    let mut set = LocalIdSet::default();
    for &id in &ids()[..130] {
        assert!(set.insert(id));
    }
    assert_eq!(set.len(), 130);
    assert!(ids()[..130].iter().all(|&id| set.contains(id)));
    assert!(!set.contains(ids()[130]) && !set.contains(ids()[1 << 16]));
}

/// Numbers the keys it is commanded to, directly or through a scoped
/// inner context, and records what it got.
#[derive(Default)]
struct Numberer {
    got: Vec<(u64, LocalId)>,
}

#[derive(Clone)]
enum Number {
    Direct(u64),
    Scoped(u64),
}

impl Protocol for Numberer {
    type Msg = ();
    type Cmd = Number;

    fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _msg: ()) {}

    fn on_command(&mut self, ctx: &mut Context<'_, ()>, cmd: Number) {
        let (key, id) = match cmd {
            Number::Direct(key) => (key, ctx.local_id(key)),
            Number::Scoped(key) => (key, ctx.scoped(|()| (), |inner| inner.local_id(key))),
        };
        self.got.push((key, id));
    }
}

/// A kernel owning `owned` out of an `n`-node population.
fn kernel(n: usize, owned: &[u32]) -> Kernel<Numberer> {
    let streams = seed_streams(3, n);
    let streams = owned.iter().map(|&i| streams[i as usize].clone()).collect();
    Kernel::new(
        n,
        owned.to_vec(),
        streams,
        NetworkModel::default(),
        &mut |_, _| Numberer::default(),
        &mut EventQueue::new(),
    )
}

/// Runs `cmds` on `kernel` in order and returns every node's
/// `(key, index)` record.
fn number(kernel: &mut Kernel<Numberer>, cmds: &[(u32, Number)]) -> Vec<(u32, u64, usize)> {
    for (seq, (node, cmd)) in cmds.iter().enumerate() {
        let key = EventKey {
            time: SimTime::from_millis(seq as u64),
            src: EXTERNAL_SRC,
            seq: seq as u64,
        };
        let kind = EventKind::Command {
            node: NodeId::new(*node),
            cmd: cmd.clone(),
        };
        kernel.dispatch_with(key, kind, &mut EventQueue::new(), &mut ());
    }
    kernel
        .nodes()
        .flat_map(|(id, p)| p.got.iter().map(move |&(k, l)| (id.as_u32(), k, l.index())))
        .collect()
}

#[test]
fn each_kernel_numbers_densely_from_zero_and_keeps_a_repeated_key() {
    use Number::Direct;
    let mut a = kernel(4, &[0, 1]);
    let mut b = kernel(4, &[2, 3]);
    let got_a = number(
        &mut a,
        &[
            (0, Direct(500)),
            (1, Direct(7)),
            (0, Direct(500)),
            (1, Direct(1 << 40)),
            (0, Direct(7)),
        ],
    );
    assert_eq!(
        got_a,
        [
            (0, 500, 0),
            (0, 500, 0),
            (0, 7, 1),
            (1, 7, 1),
            (1, 1 << 40, 2)
        ],
        "one table for the kernel's nodes, assigned in first-sight order"
    );
    // The other kernel has its own numbering: the key it sees first is 0
    // whatever the first kernel gave it.
    let got_b = number(&mut b, &[(3, Direct(1 << 40)), (2, Direct(500))]);
    assert_eq!(got_b, [(2, 500, 1), (3, 1 << 40, 0)]);
}

#[test]
fn scoped_contexts_number_through_their_kernel() {
    use Number::{Direct, Scoped};
    let mut k = kernel(2, &[0, 1]);
    let got = number(
        &mut k,
        &[
            (0, Scoped(11)),
            (1, Direct(11)),
            (1, Scoped(12)),
            (0, Direct(12)),
        ],
    );
    assert_eq!(got, [(0, 11, 0), (0, 12, 1), (1, 11, 0), (1, 12, 1)]);
}

#[test]
fn the_sequential_engine_shares_one_numbering() {
    let n = 3;
    let mut sim = Simulation::new(n, NetworkModel::default(), 5, |_, _| Numberer::default());
    for (t, key) in [30u64, 10, 30, 20, 10].into_iter().enumerate() {
        let node = NodeId::new((t % n) as u32);
        sim.schedule_command(SimTime::from_millis(t as u64), node, Number::Direct(key));
    }
    sim.run_until(SimTime::from_secs(1));
    let got: Vec<(u64, usize)> = (0..n as u32)
        .flat_map(|i| sim.node(NodeId::new(i)).unwrap().got.clone())
        .map(|(k, id)| (k, id.index()))
        .collect();
    assert_eq!(got, [(30, 0), (20, 2), (10, 1), (10, 1), (30, 0)]);
}
