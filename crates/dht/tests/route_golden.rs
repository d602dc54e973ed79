//! Every Scribe tree and DKS rendezvous walk is a function of the paths
//! `route_path` returns: a change to the routing index or to `next_hop`
//! that moves one hop anywhere moves this hash.

use fed_dht::{DhtId, DhtNetwork};

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// 5 000 nodes, 20 topics, every seventh start: 14 300 paths, 60 607
/// nodes on them, hashed as little-endian `u64` indices with a `0xff`
/// byte closing each path. Captured from the per-node table build this
/// index replaced.
#[test]
fn routes_are_pinned() {
    let n = 5_000;
    let net = DhtNetwork::build(n);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut visited = 0;
    for topic in 0..20 {
        for start in (0..n).step_by(7) {
            let path = net.route_path(start, DhtId::of_topic(topic)).unwrap();
            visited += path.len();
            for node in path {
                fnv1a(&mut hash, &(node as u64).to_le_bytes());
            }
            fnv1a(&mut hash, &[0xff]);
        }
    }
    assert_eq!(visited, 60_607);
    assert_eq!(hash, 0xa58d_0110_48c8_bc6b, "got {hash:#018x}");
}
