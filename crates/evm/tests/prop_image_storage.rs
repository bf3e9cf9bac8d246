//! `ImageStorage` ⇔ sorted-map equivalence.
//!
//! `ImageStorage`'s contract is the plain `BTreeMap<u64, u64>` it
//! replaced: every `sload` returns the last value stored (zero if none),
//! and `image()` lists every written word in address order, explicitly
//! stored zeros included. These properties drive both over random
//! store/load sequences whose addresses cluster at the bottom of memory,
//! across a wide low span, at the top of the address space and anywhere.

use chats_evm::{ImageStorage, Storage};
use chats_mem::Addr;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Store(u64, u64),
    Load(u64),
}

fn addr_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..256,
        0u64..1 << 24,
        (u64::MAX - 64)..=u64::MAX,
        any::<u64>(),
    ]
}

fn value_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..4, any::<u64>()]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (addr_strategy(), value_strategy()).prop_map(|(a, v)| Op::Store(a, v)),
        addr_strategy().prop_map(Op::Load),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn image_storage_matches_a_sorted_map(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let mut storage = ImageStorage::new();
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Store(a, v) => {
                    storage.sstore(Addr(a), v);
                    reference.insert(a, v);
                }
                Op::Load(a) => {
                    let want = reference.get(&a).copied().unwrap_or(0);
                    prop_assert_eq!(storage.sload(Addr(a)), want);
                }
            }
        }
        let image: Vec<(Addr, u64)> = storage.image().collect();
        let want: Vec<(Addr, u64)> = reference.iter().map(|(&a, &v)| (Addr(a), v)).collect();
        prop_assert_eq!(image, want);
    }
}

#[test]
fn seeding_from_an_image_reproduces_it() {
    let init = [
        (Addr(0), 0),
        (Addr(63), 5),
        (Addr(64), 6),
        (Addr((1 << 20) - 1), 7),
        (Addr(1 << 20), 0),
        (Addr(1 << 40), 8),
        (Addr(u64::MAX), 9),
    ];
    let storage = ImageStorage::from_image(&init);
    assert_eq!(storage.image().collect::<Vec<_>>(), init);
    assert_eq!(
        storage.sload(Addr(1)),
        0,
        "an unwritten neighbour reads zero"
    );
}
