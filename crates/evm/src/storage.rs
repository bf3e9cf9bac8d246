//! The persistent storage layer and the on-machine state layout.
//!
//! Two things live here. [`Storage`] is the sputnikvm-style persistence
//! interface the [`Machine`](crate::Machine) writes through, with
//! [`ImageStorage`] as the reference implementation: a dense word array
//! with a sorted map above it. [`StateLayout`] is the shared address map: it places native account
//! balances and per-contract storage slots onto the simulator's
//! word-addressed cache lines, **one hot word per line**, so that a hot
//! balance or a hot reserve is a hot cache line. The sequential
//! interpreter and the TxVM lowering both resolve state through the same
//! layout, which is what makes word-for-word differential comparison of
//! their final states possible.

use crate::contract::ContractId;
use chats_mem::{Addr, WORDS_PER_LINE};
use std::collections::BTreeMap;

/// Persistent word storage, keyed by simulated word address.
pub trait Storage {
    /// Reads the word at `addr` (zero if never written).
    fn sload(&self, addr: Addr) -> u64;
    /// Writes the word at `addr`.
    fn sstore(&mut self, addr: Addr, value: u64);
}

/// Words in the dense span: every registry scenario keeps its state below
/// it.
///
/// This is the one per-line structure not on `chats_mem::LineTable`: laid
/// out per line (a table of words beside a table of written bits, or one
/// table of 72-byte slots), the same work read 20.3-21.9 MB peak RSS on
/// the benchmark's token-storm workload against 17.4 MB for this flat
/// word array, from where glibc placed the freed set-up buffers.
const DENSE_WORDS: u64 = 1 << 18;

/// The reference storage, dumpable as a memory image.
///
/// Words below [`DENSE_WORDS`] live in a flat array indexed by word
/// address, grown to the highest word written, with one bit per word
/// recording that it was written (an explicitly stored zero is part of the
/// image). Words above spill into a sorted map, so every 64-bit address
/// still works.
#[derive(Debug, Clone, Default)]
pub struct ImageStorage {
    /// Words `0..dense.len()`.
    dense: Vec<u64>,
    /// One bit per `dense` word: has it ever been written?
    written: Vec<u64>,
    /// Every written word at or above [`DENSE_WORDS`].
    spill: BTreeMap<u64, u64>,
}

impl ImageStorage {
    /// An empty storage.
    #[must_use]
    pub fn new() -> ImageStorage {
        ImageStorage::default()
    }

    /// Seeds the storage from an initial memory image.
    #[must_use]
    pub fn from_image(init: &[(Addr, u64)]) -> ImageStorage {
        let mut s = ImageStorage::new();
        for &(a, v) in init {
            s.sstore(a, v);
        }
        s
    }

    /// Every written word, in address order.
    pub fn image(&self) -> impl Iterator<Item = (Addr, u64)> + '_ {
        let words = &self.dense;
        let dense = self.written.iter().enumerate().flat_map(move |(i, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let w = i * 64 + rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    (Addr(w as u64), words[w])
                })
            })
        });
        dense.chain(self.spill.iter().map(|(&a, &v)| (Addr(a), v)))
    }
}

impl Storage for ImageStorage {
    fn sload(&self, addr: Addr) -> u64 {
        if addr.0 < DENSE_WORDS {
            self.dense.get(addr.0 as usize).copied().unwrap_or(0)
        } else {
            self.spill.get(&addr.0).copied().unwrap_or(0)
        }
    }

    fn sstore(&mut self, addr: Addr, value: u64) {
        if addr.0 < DENSE_WORDS {
            let w = addr.0 as usize;
            if w >= self.dense.len() {
                self.dense.resize(w + 1, 0);
                self.written.resize(w / 64 + 1, 0);
            }
            self.dense[w] = value;
            self.written[w / 64] |= 1 << (w % 64);
        } else {
            self.spill.insert(addr.0, value);
        }
    }
}

/// Maps the transaction model's state onto simulated memory lines.
///
/// Layout (in lines): native accounts first, one balance word per line;
/// then one storage region per contract, one slot word per line. Slot
/// keys are masked to the (power-of-two) region size, so every storage
/// access a contract can express stays inside its own region — the
/// model's whole address-safety story, enforced identically by the
/// interpreter and the compiled code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateLayout {
    /// First line of the native-account region.
    pub account_base_line: u64,
    /// Number of native accounts (power of two).
    pub accounts: u64,
    /// First line of contract storage (contract 0's region).
    pub storage_base_line: u64,
    /// Storage slots per contract (power of two; one line each).
    pub slots_per_contract: u64,
    /// Number of contract storage regions.
    pub contracts: u64,
}

impl StateLayout {
    /// The standard scenario layout: 1024 accounts, two contracts with
    /// 2048 slots each.
    #[must_use]
    pub fn standard() -> StateLayout {
        StateLayout {
            account_base_line: 1,
            accounts: 1024,
            storage_base_line: 1 + 1024,
            slots_per_contract: 2048,
            contracts: 2,
        }
    }

    /// Mask applied to account indices (`accounts` is a power of two).
    #[must_use]
    pub fn account_mask(&self) -> u64 {
        self.accounts - 1
    }

    /// Mask applied to storage slot keys.
    #[must_use]
    pub fn slot_mask(&self) -> u64 {
        self.slots_per_contract - 1
    }

    /// Word address of account `acct`'s native balance (index masked).
    #[must_use]
    pub fn account_addr(&self, acct: u64) -> Addr {
        Addr((self.account_base_line + (acct & self.account_mask())) * WORDS_PER_LINE)
    }

    /// First line of contract `c`'s storage region.
    #[must_use]
    pub fn contract_base_line(&self, c: ContractId) -> u64 {
        assert!(u64::from(c.0) < self.contracts, "contract out of layout");
        self.storage_base_line + u64::from(c.0) * self.slots_per_contract
    }

    /// Word address of slot `key` of contract `c` (key masked).
    #[must_use]
    pub fn slot_addr(&self, c: ContractId, key: u64) -> Addr {
        Addr((self.contract_base_line(c) + (key & self.slot_mask())) * WORDS_PER_LINE)
    }

    /// First line past all state regions (where scenario-private data,
    /// like parameter tables, may start).
    #[must_use]
    pub fn end_line(&self) -> u64 {
        self.storage_base_line + self.contracts * self.slots_per_contract
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_layout_is_power_of_two() {
        let l = StateLayout::standard();
        assert!(l.accounts.is_power_of_two());
        assert!(l.slots_per_contract.is_power_of_two());
    }

    #[test]
    fn one_word_per_line() {
        let l = StateLayout::standard();
        let a = l.account_addr(5);
        let b = l.account_addr(6);
        assert_ne!(a.line(), b.line());
        assert_eq!(a.offset_in_line(), 0);
    }

    #[test]
    fn slot_keys_are_masked_into_region() {
        let l = StateLayout::standard();
        let c = ContractId(1);
        let lo = l.slot_addr(c, 0);
        let wrapped = l.slot_addr(c, l.slots_per_contract);
        assert_eq!(lo, wrapped);
        assert!(lo.line().0 >= l.contract_base_line(c));
        assert!(l.slot_addr(c, l.slot_mask()).line().0 < l.end_line());
    }

    #[test]
    fn account_indices_are_masked() {
        let l = StateLayout::standard();
        assert_eq!(l.account_addr(0), l.account_addr(l.accounts));
    }

    #[test]
    fn image_storage_round_trips() {
        let mut s = ImageStorage::new();
        assert_eq!(s.sload(Addr(8)), 0);
        s.sstore(Addr(8), 7);
        assert_eq!(s.sload(Addr(8)), 7);
        let img: Vec<_> = s.image().collect();
        assert_eq!(img, vec![(Addr(8), 7)]);
    }
}
