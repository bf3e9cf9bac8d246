#![warn(missing_docs)]

//! Memory substrate of the CHATS simulator.
//!
//! This crate models everything that holds data or metadata about data:
//!
//! * [`addr`] — word and line addresses (64-byte lines, 8 words each),
//! * [`mod@line`] — the data payload of a cache line, with word-level access
//!   (CHATS validation is *value-based*, so real values matter),
//! * [`cache`] — a set-associative L1 array with MESI state, LRU
//!   replacement that favours write-set blocks, and speculatively-modified
//!   (SM) bits for lazy versioning,
//! * [`signature`] — the perfect read signature used for read-set tracking,
//! * [`store`] — the backing store holding the committed version of every
//!   line (the folded L2/L3/DRAM level behind the directory),
//! * [`line_table`] — the per-line table every structure above the cache
//!   keeps its state in, and its snapshot section codecs.
//!
//! # Example
//!
//! ```
//! use chats_mem::{Addr, LineAddr};
//! let a = Addr(0x1234);
//! let l: LineAddr = a.line();
//! assert_eq!(l.base_word().0 & 7, 0);
//! assert!(a.offset_in_line() < 8);
//! ```

pub mod addr;
pub mod cache;
pub mod fasthash;
pub mod line;
pub mod line_table;
pub mod signature;
pub mod store;

pub use addr::{Addr, LineAddr, WORDS_PER_LINE};
pub use cache::{Cache, CacheEntry, CoherenceState, EntryMut, EvictOutcome};
pub use fasthash::{FastHashMap, FastHashSet, FxBuildHasher, FxHasher};
pub use line::Line;
pub use line_table::{LineSet, LineTable};
pub use signature::ReadSignature;
pub use store::BackingStore;
