//! Baseline ordered structures the SkipTrie paper compares against.
//!
//! The paper's introduction frames the SkipTrie against two families:
//!
//! * **Concurrent structures with `Θ(log m)` depth** — "all concurrent search
//!   structures that support predecessor queries have had depth and search time that
//!   is logarithmic in m". The truncated skiplist substrate configured at full
//!   height (`SkipList::new(SkipListConfig::full_height())`, labelled
//!   `lockfree-skiplist`) and [`LockedBTreeMap`] (a coarse reader-writer-locked
//!   `BTreeMap`) represent this family in the experiments.
//! * **Sequential `O(log log u)` structures** — Willard's x-fast and y-fast tries,
//!   which the SkipTrie makes concurrent. [`SeqXFastTrie`] and [`SeqYFastTrie`] are
//!   faithful single-threaded implementations used both as complexity references and
//!   as correctness oracles.
//!
//! All baselines expose the same `insert / remove / get / predecessor / successor`
//! shape as the SkipTrie so the experiment harness can swap them freely.

#![warn(missing_docs)]

mod locked_btree;
mod seq_xfast;
mod seq_yfast;

pub use locked_btree::LockedBTreeMap;
pub use seq_xfast::SeqXFastTrie;
pub use seq_yfast::SeqYFastTrie;
