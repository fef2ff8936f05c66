//! The GoodLock cycle kernel against a brute-force enumeration.
//!
//! `mtt_deadlock::cycles` is the one cycle rule behind both the dynamic
//! lock-order graph and `mtt-static`'s. On random digraphs of up to 7
//! nodes it must report exactly the sequences of 2 to `MAX_CYCLE_LEN`
//! distinct nodes whose consecutive pairs and closing pair are edges,
//! each rotated to start at its minimum, once each, in ascending order,
//! whatever the order of the edges.

use mtt_deadlock::{cycles, narrow_gate, MAX_CYCLE_LEN};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Every cycle of `edges` over nodes `0..nodes`, by trying every sequence
/// of distinct nodes, rotated to its minimum; sorted and deduplicated.
fn brute_force(nodes: u8, edges: &[(u8, u8)]) -> Vec<Vec<u8>> {
    let edge: BTreeSet<(u8, u8)> = edges.iter().copied().collect();
    let mut found = BTreeSet::new();
    let mut seq = Vec::new();
    fn grow(
        nodes: u8,
        edge: &BTreeSet<(u8, u8)>,
        seq: &mut Vec<u8>,
        found: &mut BTreeSet<Vec<u8>>,
    ) {
        let closes = seq.len() >= 2
            && seq.windows(2).all(|w| edge.contains(&(w[0], w[1])))
            && edge.contains(&(seq[seq.len() - 1], seq[0]));
        if closes {
            let min = (0..seq.len()).min_by_key(|&i| seq[i]).unwrap();
            let mut rotated = seq.clone();
            rotated.rotate_left(min);
            found.insert(rotated);
        }
        if seq.len() == MAX_CYCLE_LEN {
            return;
        }
        for n in 0..nodes {
            if !seq.contains(&n) {
                seq.push(n);
                grow(nodes, edge, seq, found);
                seq.pop();
            }
        }
    }
    grow(nodes, &edge, &mut seq, &mut found);
    found.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cycles_equal_the_brute_force_enumeration(
        nodes in 1u8..=7,
        raw in proptest::collection::vec((0u8..7, 0u8..7), 0..=24),
        shift in 0usize..24,
    ) {
        let edges: Vec<(u8, u8)> = raw.iter().map(|&(a, b)| (a % nodes, b % nodes)).collect();
        let expected = brute_force(nodes, &edges);
        let got = cycles(edges.iter().copied());
        // `expected` is sorted and free of repeats, so equality also says
        // each cycle appears once, in ascending order.
        prop_assert_eq!(&got, &expected);

        let mut reordered = edges.clone();
        reordered.reverse();
        if !reordered.is_empty() {
            let k = shift % reordered.len();
            reordered.rotate_left(k);
        }
        reordered.extend(edges.iter().copied());
        prop_assert_eq!(cycles(reordered), expected);
    }
}

#[test]
fn a_ring_longer_than_the_bound_is_not_reported() {
    let ring = |n: u8| (0..n).map(move |i| (i, (i + 1) % n));
    assert_eq!(cycles(ring(6)), vec![vec![0, 1, 2, 3, 4, 5]]);
    assert!(cycles(ring(7)).is_empty());
    assert!(cycles([(3, 3)]).is_empty(), "a self-loop is not a cycle");
}

#[test]
fn narrowing_keeps_what_every_instance_holds() {
    let mut gate = None;
    narrow_gate(&mut gate, BTreeSet::from([1, 2, 3]));
    assert_eq!(gate, Some(BTreeSet::from([1, 2, 3])));
    narrow_gate(&mut gate, BTreeSet::from([2, 3, 4]));
    narrow_gate(&mut gate, BTreeSet::from([3, 2]));
    assert_eq!(gate, Some(BTreeSet::from([2, 3])));
    narrow_gate(&mut gate, BTreeSet::new());
    assert_eq!(gate, Some(BTreeSet::new()));
}
