//! A lock-free, resizable hash table based on **split-ordered lists**
//! (Shalev & Shavit, "Split-ordered lists: Lock-free extensible hash tables").
//!
//! The SkipTrie stores the prefixes of its x-fast trie in exactly such a table
//! (paper, Section 1: "For the hash table we use Split-Ordered Hashing \[19\], a
//! resizable lock-free hash table that supports all operations in expected O(1)
//! steps"), and additionally requires one extra operation,
//! [`SplitOrderedMap::remove_if`], the paper's `compareAndDelete(p, n)`: remove the
//! entry for `p` only if it still maps to trie node `n`.
//!
//! # How split-ordering works
//!
//! All items live in a single lock-free sorted linked list (a Harris-style list with
//! logical deletion marks). The sort key is the *bit-reversed* hash: recursively
//! splitting a bucket in two then corresponds to a contiguous split of the list, so
//! the table can double its bucket count without moving a single item. Each bucket
//! has a *sentinel* (the paper's dummy node) that sits in the list at the position
//! where that bucket's items begin; a lookup hashes the key, finds the bucket's
//! sentinel, and scans a short expected-`O(1)` run of the list.
//!
//! A sentinel is 16 bytes — a split-order key and a `next` word — and lives inline
//! in a leaf of the bucket directory, so finding it is the directory descent and
//! nothing more. It is linked into the list lazily, by the one thread that claims
//! it; until then, and while the link is in flight, walks for that bucket start
//! from its parent bucket's sentinel, so no thread waits for another. The bulk load
//! links sentinels in place as its merge passes them.
//!
//! An entry — the same 16-byte header, then its key and value — lives in a slot of
//! the map's own type-stable slab pool ([`skiptrie_atomics::slab`]), not in a boxed
//! allocation of its own: a removed entry's slot is recycled after epoch
//! quiescence, and a bulk load writes each entry straight into its slot of one
//! reserved run.
//!
//! # Examples
//!
//! ```
//! use skiptrie_splitorder::SplitOrderedMap;
//!
//! let map: SplitOrderedMap<u64, u64> = SplitOrderedMap::new();
//! assert!(map.insert(7, 700));
//! assert!(!map.insert(7, 701), "insert is insert-if-absent");
//! assert_eq!(map.get(&7), Some(700));
//! assert!(map.remove_if(&7, |v| *v == 700));
//! assert_eq!(map.get(&7), None);
//! ```

#![warn(missing_docs)]

mod dir;
mod list;
mod map;

pub use dir::DirectoryConfig;
pub use map::SplitOrderedMap;
