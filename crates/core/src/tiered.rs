//! A tiered read path over the SkipTrie's key space: a frozen flat tier for the
//! read-mostly steady state, a small live skiplist delta for recent writes.
//!
//! Production predecessor traffic is rarely the uniform churn the paper analyses —
//! the dominant shape is read-mostly (95/5 mixes, scan pages) over a keyspace that
//! is almost static. [`TieredSkipTrie`] serves that shape "as fast as the hardware
//! allows":
//!
//! * **Frozen tier** — an immutable, flat, sorted `(u64, V)` array and a radix
//!   index over it (a `u32` position per slice of the key space, one slice per
//!   32 keys or fewer). `get`/`predecessor` on it read the index entry for the
//!   key's slice, request every line of the window it gives at once when it
//!   spans at most `L` = 16 lines, and run std's binary search inside it: on
//!   evenly spread keys an index line plus one round of window lines, on any
//!   keys `O(log n)` reads, no pointer chasing and no CAS.
//! * **Live delta** — a small plain [`SkipList`] (16 levels, no x-fast layer)
//!   absorbing recent inserts, with a tombstone marker per deleted key so
//!   deletions shadow frozen entries. It holds a watermark's worth of keys, a
//!   few thousand: at that size a skiplist's `log m` pointer levels are less
//!   work than the trie's `log log u` levels plus hash probes, and a write
//!   maintains no prefixes.
//! * **Dirty-gap summary** — one bit per gap between adjacent frozen keys, set
//!   before a write buffers anything there. A read whose gap is clean is answered
//!   by the frozen tier alone, however full the delta is elsewhere.
//! * **Merge** — [`TieredSkipTrie::merge`] seals the delta, waits for in-flight
//!   writers to drain, folds `frozen + delta` into a fresh frozen tier off to the
//!   side, and publishes it with one atomic pointer swap. Readers never block and
//!   never observe a half-built tier; the displaced tier is retired through the
//!   structure's own epoch domain. A standalone `TieredSkipTrie` owns no thread
//!   and **never folds by itself**: crossing the configured watermark only latches
//!   [`TieredSkipTrie::merge_due`], and somebody has to call `merge` — the caller,
//!   or the [`TieredForest`](crate::TieredForest) coordinator (a one-shard forest
//!   is the "tiered trie with a background merger").
//!
//! # One read protocol
//!
//! Readers, writers and the merger reach the published `Tiers` triple the same
//! way, through one function (`with_tiers`): pin the structure's epoch domain,
//! load the pointer, run on the borrow, unpin. The triple lives in a `Box` that
//! a merge swaps out and retires through that same domain, so the pin is the
//! whole lifetime argument — the scheme the paper protects every traversal with,
//! and nothing beside it. No thread keeps a copy of the triple between
//! operations, so a superseded tier is freed as soon as the epoch passes the
//! operations that were running when it was displaced; an idle thread holds
//! nothing. The delta skiplists' own pins nest inside the outer one for the cost
//! of a counter bump.
//!
//! **Scans still hold no pin.** Each tier of the triple sits behind an [`Arc`]:
//! [`TieredSkipTrie::range`] clones the three under the pin and the
//! [`TieredRangeIter`] it returns owns them for its whole life. It serves the
//! frozen array a window at a time and opens a delta cursor — a pin — only to
//! read a window the dirty-gap summary does not call clean, for the length of
//! that read. Between `next()` calls it pins nothing, so an unbounded or
//! abandoned scan never stalls reclamation; what it keeps alive is the frozen
//! array and at most two bounded deltas.
//!
//! # Clean keys skip the delta
//!
//! While writes flow the delta is never empty, but it is small: a few thousand
//! entries beside hundreds of thousands of frozen keys, so almost every read lands
//! where no buffered write is. Each frozen tier of `n` keys `f_0 < … < f_{n-1}`
//! carries `n + 1` bits. Key `k` belongs to gap `g(k)` = the number of frozen keys
//! `<= k`, so gap `g` spans `[f_{g-1}, f_g)` (gap 0 everything below `f_0`, gap
//! `n` everything from `f_{n-1}` up) and a tombstone on a frozen key lands in the
//! gap that key opens. The index falls out of the one frozen search every point
//! operation runs anyway.
//!
//! * **Writers mark before they mutate.** `insert_in` / `remove_in` set bit
//!   `g(key)` of their view's frozen tier before the first change they make to
//!   *either* delta of that view — a link, a slot CAS, and during a merge the
//!   blocker or freeze of the sealed entry — and never clear it. Outside a merge
//!   a write that changes nothing marks nothing. A writer reads the summary too:
//!   in a clean gap its look for a live entry is known to find nothing, so it
//!   skips that search.
//! * **Readers probe the frozen tier first.** `get` and `predecessor` check bit
//!   `g(key)`; `successor` of a key that is not frozen also checks the next gap
//!   (a tombstone on the frozen key above would change its answer). Clean: the
//!   frozen answer is returned as is ([`Counter::TierHit`]). Dirty: the read runs
//!   the tier merge exactly as if the summary did not exist
//!   ([`Counter::TierMissDelta`]) — a reader may always ignore it. A scan asks
//!   the same question of a whole window of gaps, a summary word at a time, and
//!   counts once per window.
//! * **A fold starts a fresh summary, published not `ready`.** The seal swap keeps
//!   the frozen tier, so its bits carry over. The fold swap installs a new tier
//!   whose bits are all clear while the live delta already holds the writes made
//!   since the seal — marked in the *old* tier — and while a writer still pinned
//!   on the pre-publish state can mark the old tier and write the shared live
//!   delta at any later moment. So readers ignore a summary until its `ready`
//!   flag is up, and the merger raises it only after one more writer grace period
//!   (no such writer is left) and a scan of the live delta that marks every entry
//!   it finds. [`TieredSkipTrie::from_sorted`] and [`TieredSkipTrie::bulk_load`]
//!   publish with nobody writing, so they start `ready`.
//!
//! Flag and bits are `SeqCst`; the argument that a clean bit means "no entry"
//! is written out in DESIGN.md §Tiered reads. A skewed key set costs hit rate,
//! never correctness: writes into one wide gap dirty one bit, but every read of
//! that gap then takes the delta path until the next fold splits it.
//!
//! # One descent per write
//!
//! A delta entry is a slot whose state — a put, a tombstone — changes by CAS
//! in place, so an entry stays in its delta until the fold retires the whole
//! delta. A write reads its *base*, what the tiers under the live delta show
//! for the key, and decides at one step on the live delta: a link (an
//! insert-if-absent; a write that finds an entry acts on it, handed over by
//! [`InsertOutcome::AlreadyPresent`]) or a slot CAS. So a write is one descent
//! and at most one CAS, and every claim on a key has one winner.
//!
//! During a merge, writers that loaded the triple before the seal still write
//! the sealed delta, while later ones base their writes on it. Until the
//! merge's first grace has waited the former out, a later writer *freezes* the
//! sealed entry it reads (linking a frozen blocker that says nothing if there
//! is none); a frozen entry never changes, and an earlier writer that meets
//! one starts over on the published triple. So every writer of the merge, and
//! every writer after its fold, bases its write on the value the fold folds
//! and decides it on the same live entry (DESIGN.md §Tiered reads,
//! "Exactly-once writes across a seal").
//!
//! # Consistency contract
//!
//! Single-threaded use is exact: the structure is observationally equal to a plain
//! [`SkipTrie`](crate::SkipTrie) (property-tested in `proptest_tiered.rs`). Under
//! concurrency reads are weakly consistent, as elsewhere in the workspace, and
//! writes are exact:
//!
//! * A read is served from the triple that was current when it started (a scan,
//!   from the one current when [`TieredSkipTrie::range`] was called).
//! * Keys stable across the whole operation are always observed: present stable
//!   keys are found, removed-and-quiesced keys stay dead (their tombstones ride
//!   every merge until the shadowed entry is gone).
//! * Every `insert` / `remove` takes effect at its one deciding step, whatever
//!   other writers do to the same key, across seals and fold publishes: a value
//!   a remove returns was put by an insert that returned `true` (or by the
//!   load), no value is returned twice, and [`TieredSkipTrie::len`], a net
//!   counter of those results, is exact once writes quiesce.

use std::ops::RangeBounds;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crossbeam_epoch::{self as epoch, Guard};
use skiptrie_atomics::prefetch;
use skiptrie_atomics::wake::WakeGate;
use skiptrie_metrics::{self as metrics, Counter};
use skiptrie_skiplist::InsertOutcome;

use crate::{max_key, SkipList, SkipListConfig, SkipTrieConfig};

/// Configuration of a [`TieredSkipTrie`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TieredSkipTrieConfig {
    /// The universe width, and the DCSS mode, seed and epoch domain of the
    /// delta skiplists. The epoch domain also governs retirement of
    /// displaced frozen tiers. A tiered structure has no prefix table:
    /// `hash_dir` is ignored.
    pub trie: SkipTrieConfig,
    /// If set, writers arm a merge as soon as this many delta writes have
    /// accumulated since the last seal: the crossing write latches
    /// [`TieredSkipTrie::merge_due`] and, inside a
    /// [`TieredForest`](crate::TieredForest), wakes its coordinator. `None` (the
    /// default) disables the watermark trigger.
    pub merge_watermark: Option<usize>,
}

impl Default for TieredSkipTrieConfig {
    fn default() -> Self {
        TieredSkipTrieConfig::for_universe_bits(32)
    }
}

impl TieredSkipTrieConfig {
    /// A tiered trie over `universe_bits`-bit keys with no merge watermark.
    ///
    /// # Panics
    ///
    /// Panics if `universe_bits` is not in `1..=64`.
    pub fn for_universe_bits(universe_bits: u32) -> Self {
        TieredSkipTrieConfig {
            trie: SkipTrieConfig::for_universe_bits(universe_bits),
            merge_watermark: None,
        }
    }

    /// Uses `trie` for the universe and the deltas (and its domain for tier
    /// retirement).
    pub fn with_trie(mut self, trie: SkipTrieConfig) -> Self {
        self.trie = trie;
        self
    }

    /// Arms the delta-size watermark: a merge becomes due once `watermark`
    /// writes have landed in the live delta.
    ///
    /// # Panics
    ///
    /// Panics if `watermark` is zero.
    pub fn with_merge_watermark(mut self, watermark: usize) -> Self {
        assert!(watermark > 0, "merge watermark must be positive");
        self.merge_watermark = Some(watermark);
        self
    }
}

/// A delta entry: one word that says what the delta knows about its key and
/// changes by CAS in place, so an entry stays linked until the fold retires
/// its delta (module docs, "One descent per write"). The word is
/// [`PUT_FIRST`] (the key holds `first`, the value the entry was linked
/// with), [`TOMBSTONE`], a pointer to a [`Revived`] box (a value put after a
/// tombstone) or [`ABSENT`] (a blocker, which says nothing), with [`FROZEN`]
/// on top once a merge writer has based a write on it. A box leaves the word
/// only by the CAS that tombstones it, which retires it through the delta's
/// epoch domain; slots are read under a pin of that domain.
struct Slot<V> {
    word: AtomicU64,
    first: Option<V>,
}

/// Set by a merge writer on a sealed entry it bases a write on; the entry
/// never changes again.
const FROZEN: u64 = 1;
const PUT_FIRST: u64 = 2;
const TOMBSTONE: u64 = 4;
const ABSENT: u64 = 6;

/// A revived value's box, aligned so that its address never collides with the
/// state words or [`FROZEN`].
#[repr(align(8))]
struct Revived<V>(V);

/// A write met a frozen entry in its live delta: its triple is stale, and it
/// starts over on the published one.
struct Stale;

impl<V> Slot<V> {
    fn new(word: u64, first: Option<V>) -> Self {
        Slot {
            word: AtomicU64::new(word),
            first,
        }
    }

    /// What the slot says in state `word`: `None` nothing (the tiers below
    /// answer), `Some(None)` a tombstone, `Some(Some(v))` a put of `v`.
    fn decode(&self, word: u64) -> Option<Option<&V>> {
        match word & !FROZEN {
            PUT_FIRST => Some(self.first.as_ref()),
            TOMBSTONE => Some(None),
            ABSENT => None,
            // SAFETY: the box outlives every pin that can have read it from
            // the word (the type's docs), and the caller holds one or owns
            // the slot.
            boxed => Some(Some(unsafe { &(*(boxed as *const Revived<V>)).0 })),
        }
    }

    fn says(&self) -> Option<Option<&V>> {
        self.decode(self.word.load(Ordering::SeqCst))
    }

    /// The slot's one CAS site, `word` → `new`; `true` if it took effect.
    fn cas(&self, word: u64, new: u64) -> bool {
        metrics::record(Counter::CasAttempt);
        let swapped = self
            .word
            .compare_exchange(word, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if !swapped {
            metrics::record(Counter::CasFailure);
        }
        swapped
    }

    /// Put → tombstone: `Ok(Some(v))` if this call removed `v`, `Ok(None)` if
    /// the slot held a tombstone.
    fn take(&self, guard: &Guard) -> Result<Option<V>, Stale>
    where
        V: Clone,
    {
        loop {
            let word = self.word.load(Ordering::SeqCst);
            if word & FROZEN != 0 {
                return Err(Stale);
            }
            let Some(Some(value)) = self.decode(word) else {
                return Ok(None);
            };
            if self.cas(word, TOMBSTONE) {
                let value = value.clone();
                if word != PUT_FIRST {
                    let boxed = word as *mut Revived<V>;
                    // SAFETY: the CAS took the box out of the word, once; a pin
                    // that read it ends before the deferred drop runs.
                    unsafe { guard.defer_unchecked(move || drop(Box::from_raw(boxed))) };
                }
                return Ok(Some(value));
            }
        }
    }

    /// Tombstone → put of `value`: `Ok(true)` if this call revived the key,
    /// `Ok(false)` if the slot held a put.
    fn revive(&self, value: &V) -> Result<bool, Stale>
    where
        V: Clone,
    {
        let mut fresh = None;
        loop {
            let word = self.word.load(Ordering::SeqCst);
            if word & FROZEN != 0 {
                return Err(Stale);
            }
            if let Some(Some(_)) = self.decode(word) {
                return Ok(false);
            }
            let boxed = fresh.get_or_insert_with(|| Box::new(Revived(value.clone())));
            if self.cas(word, &**boxed as *const Revived<V> as u64) {
                std::mem::forget(fresh); // the word owns the box now
                return Ok(true);
            }
        }
    }

    /// Sets [`FROZEN`] and returns what the slot says, which nothing changes
    /// from then on.
    fn freeze(&self) -> Option<Option<&V>> {
        loop {
            let word = self.word.load(Ordering::SeqCst);
            if word & FROZEN != 0 || self.cas(word, word | FROZEN) {
                return self.decode(word);
            }
        }
    }
}

/// A copy of what the slot says, unfrozen. A revived value is copied into
/// `first`, so a copy allocates nothing: the delta's snapshots, scans and
/// ordered queries return copies.
impl<V: Clone> Clone for Slot<V> {
    fn clone(&self) -> Self {
        match self.says() {
            Some(Some(value)) => Slot::new(PUT_FIRST, Some(value.clone())),
            Some(None) => Slot::new(TOMBSTONE, None),
            None => Slot::new(ABSENT | FROZEN, None),
        }
    }
}

impl<V> Drop for Slot<V> {
    fn drop(&mut self) {
        let word = *self.word.get_mut() & !FROZEN;
        if !matches!(word, PUT_FIRST | TOMBSTONE | ABSENT) {
            // SAFETY: `&mut self`: the slot is unreachable, and the box is the
            // word's own.
            drop(unsafe { Box::from_raw(word as *mut Revived<V>) });
        }
    }
}

/// Levels of a delta skiplist. A delta holds what was written since the last
/// fold — a watermark's worth, at most 4 096 keys a shard in every
/// configuration the repo runs — and 16 levels keep its searches logarithmic
/// up to 2^16 buffered keys; past that the top level is walked, `n / 2^16`
/// nodes of it.
///
/// Measured (PR 24; the tables are DESIGN.md §Tiered reads, "The delta is a
/// skiplist"). On the benchmark's `scan_churn`, `write_p50_ns` at 12 / 16 / 24
/// levels: 810 / 848 / 909 ns — a search walks down from the top level
/// whether or not anything is linked there. The 38 ns against 12 is this
/// constant's recorded loss, for what it buys where no watermark bounds the
/// delta: with 2^20 keys buffered in a standalone structure, `predecessor`
/// takes 7.4 / 3.8 / 3.7 µs at 12 / 16 / 24 levels and 6.7 µs under the
/// `SkipTrie` delta this replaced, `insert` 6.3 / 4.2 / 4.1 µs and 12.2 — no
/// loss against the trie delta at 16 levels even there.
const DELTA_LEVELS: u8 = 16;

/// An empty delta, taking its DCSS mode, seed and epoch domain from `trie`
/// and checking the universe width as `SkipTrie::new` would.
fn new_delta<V>(trie: SkipTrieConfig) -> Arc<SkipList<Slot<V>>>
where
    V: Clone + Send + Sync + 'static,
{
    assert!(
        (1..=64).contains(&trie.universe_bits),
        "universe_bits must be between 1 and 64"
    );
    Arc::new(SkipList::new(SkipListConfig {
        levels: DELTA_LEVELS,
        mode: trie.mode,
        seed: trie.seed,
        domain: trie.domain,
    }))
}

/// `entries` collected for a frozen tier.
///
/// # Panics
///
/// Panics if keys are not strictly increasing or exceed the universe of
/// `universe_bits` bits.
fn checked<V>(universe_bits: u32, entries: impl IntoIterator<Item = (u64, V)>) -> Vec<(u64, V)> {
    let top = max_key(universe_bits);
    let mut last: Option<u64> = None;
    entries
        .into_iter()
        .inspect(|&(key, _)| {
            assert!(key <= top, "key {key} exceeds the configured universe");
            assert!(
                last.replace(key).is_none_or(|p| p < key),
                "a frozen tier requires strictly increasing keys"
            );
        })
        .collect()
}

/// Frozen keys per radix slice on evenly spread keys: a tier of `n` keys is
/// cut into `max(1, n / SLICE_KEYS)` slices or fewer, so its index holds at
/// most one 4-byte entry per 32 keys, plus two.
const SLICE_KEYS: usize = 32;

/// How a frozen tier's radix index cuts the key space: key `x` belongs to
/// slice `min((x - base) >> shift, last)` (`0` below `base`). The slice never
/// decreases as the key grows — the one property the index rests on.
#[derive(Debug, Clone, Copy)]
struct Slicing {
    /// At or below every key of the tier.
    base: u64,
    shift: u32,
    /// The last slice; the index has `last + 2` entries.
    last: usize,
}

impl Slicing {
    /// Slices for a tier of `n` keys, all in `lo..=hi`: the smallest
    /// shift that fits `hi - lo` into `max(1, n / SLICE_KEYS)` slices (capped
    /// at 63 bits, where one slice holds every key anyway).
    fn new(n: usize, lo: u64, hi: u64) -> Self {
        let slices = (n / SLICE_KEYS).max(1);
        let width = hi.saturating_sub(lo) / slices as u64;
        Slicing {
            base: lo,
            shift: (u64::BITS - width.leading_zeros()).min(63),
            last: slices - 1,
        }
    }

    fn of(self, x: u64) -> usize {
        ((x.saturating_sub(self.base) >> self.shift) as usize).min(self.last)
    }
}

/// A frozen-tier position as a radix index stores it.
fn position(at: usize) -> u32 {
    u32::try_from(at).expect("a frozen tier holds fewer than 2^32 keys")
}

/// `L`, the most cache lines a frozen read requests at once. A window that
/// spans at most `L` lines — 61 to 64 `(u64, u64)` entries by where it
/// starts, so the 32-key windows of evenly spread keys — is requested whole
/// before its search reads a key; a longer one is not requested.
const WINDOW_LINES: usize = 16;

/// Bytes per cache line on the targets the repo runs on.
const LINE: usize = 64;

/// Calls `request` with an address in each cache line of `window` if it
/// spans at most [`WINDOW_LINES`] lines, and not at all otherwise. Every
/// address lies inside the window.
fn request_window<T>(window: &[T], mut request: impl FnMut(*const T)) {
    let Some(last) = window.last() else { return };
    let start = window.as_ptr();
    let line = |at: *const T| at as usize / LINE;
    let (first, end) = (line(start), line(last));
    if end - first < WINDOW_LINES {
        request(start);
        for l in first + 1..=end {
            request(start.wrapping_byte_add(l * LINE - start as usize));
        }
    }
}

/// The immutable frozen tier: entries sorted by key, searched in place, the
/// radix index that narrows each search, and the dirty-gap summary over them.
///
/// Bytes per key: 16 for a `(u64, u64)` entry, 1/8 for the summary's bit and
/// 4/32 for the index, on top of a constant 16. Every tier, loaded or folded,
/// is sliced for the keys it holds.
struct FrozenTier<V> {
    /// Entries in increasing key order.
    sorted: Box<[(u64, V)]>,
    /// The radix index: `index[j]` is the position of the first key whose
    /// slice (`slicing`) is `>= j`, and the last entry is `len()`. So the
    /// first key `>= x` sits in `index[j]..=index[j + 1]`, `j` the slice of
    /// `x`: keys before `index[j]` lie in lower slices than `x` and are
    /// smaller, keys from `index[j + 1]` in higher ones and are larger.
    index: Box<[u32]>,
    slicing: Slicing,
    /// The dirty-gap summary, `len() + 1` bits: bit `g` is set before any delta
    /// write to a key with `g` frozen keys at or below it (module docs, "Clean
    /// keys skip the delta"). Bits are only ever set; a fold starts a fresh tier.
    dirty: Box<[AtomicU64]>,
    /// False from a fold's publish until the merger has marked every write that
    /// reached the live delta through the previous tier's summary; readers
    /// ignore `dirty` until then.
    ready: AtomicBool,
}

impl<V: Clone> FrozenTier<V> {
    /// `ready` is what the summary starts as: `true` wherever no writer can
    /// hold an older view of the delta this tier is published with.
    ///
    /// The index is sliced for exactly these keys and filled in one pass,
    /// each entry found by galloping forward from the one before it, so a
    /// search reads the keys near its answer only.
    fn new(sorted: Vec<(u64, V)>, ready: bool) -> Self {
        let n = sorted.len();
        let end = |e: Option<&(u64, V)>| e.map_or(0, |&(k, _)| k);
        let slicing = Slicing::new(n, end(sorted.first()), end(sorted.last()));
        let mut from = 0;
        let index = (0..slicing.last + 2)
            .map(|slice| {
                let mut step = 1;
                while from + step < n && slicing.of(sorted[from + step].0) < slice {
                    step *= 2;
                }
                let (lo, hi) = (from + step / 2, (from + step).min(n));
                from = lo + sorted[lo..hi].partition_point(|&(k, _)| slicing.of(k) < slice);
                position(from)
            })
            .collect();
        FrozenTier {
            dirty: (0..n / 64 + 1).map(|_| AtomicU64::new(0)).collect(),
            sorted: sorted.into_boxed_slice(),
            index,
            slicing,
            ready: AtomicBool::new(ready),
        }
    }

    fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Index in `sorted` of the first key `>= x` (`len()` if none): std's
    /// binary search over the keys of the window the radix index gives `x`,
    /// whose lines are requested first when it spans at most [`WINDOW_LINES`]
    /// ([`request_window`]). So such a read costs the index line and then one
    /// round of window lines, rather than one round per key read.
    fn lower_bound(&self, x: u64) -> usize {
        let (lo, hi) = self.window(x);
        let window = &self.sorted[lo..hi];
        request_window(window, prefetch);
        lo + window.partition_point(|&(k, _)| k < x)
    }

    /// The positions `lo..=hi` the radix index bounds the first key `>= x`
    /// to: `x`'s slice's entry and the next one.
    fn window(&self, x: u64) -> (usize, usize) {
        let slice = self.slicing.of(x);
        (self.index[slice] as usize, self.index[slice + 1] as usize)
    }

    /// The gap `key` falls in — the number of frozen keys `<= key`, so gap `g`
    /// spans `[sorted[g - 1], sorted[g])` — and the value frozen under `key`
    /// itself, if any. The one frozen search of every point operation.
    fn locate(&self, key: u64) -> (usize, Option<&V>) {
        let lb = self.lower_bound(key);
        match self.sorted.get(lb) {
            Some((k, v)) if *k == key => (lb + 1, Some(v)),
            _ => (lb, None),
        }
    }

    fn predecessor_key(&self, key: u64) -> Option<u64> {
        let below = self.locate(key).0.checked_sub(1)?;
        Some(self.sorted[below].0)
    }

    fn successor_key(&self, key: u64) -> Option<u64> {
        self.sorted.get(self.lower_bound(key)).map(|&(k, _)| k)
    }

    /// The summary word holding `gap`'s dirty bit, and that bit's mask.
    fn dirty_bit(&self, gap: usize) -> (&AtomicU64, u64) {
        (&self.dirty[gap / 64], 1 << (gap % 64))
    }

    /// Marks `gap` dirty; a writer calls this **before** its first delta
    /// mutation of a key in the gap. The load keeps a gap that is already
    /// dirty from bouncing its cache line between writers and readers.
    fn mark_gap(&self, gap: usize) {
        let (word, bit) = self.dirty_bit(gap);
        if word.load(Ordering::SeqCst) & bit == 0 {
            word.fetch_or(bit, Ordering::SeqCst);
        }
    }

    /// True if no delta of a view holding this tier has an entry in `gap`, so
    /// the tier alone answers for every key in it. `ready` is read first: it
    /// is what vouches for the bits.
    fn is_clean(&self, gap: usize) -> bool {
        let (word, bit) = self.dirty_bit(gap);
        self.ready.load(Ordering::SeqCst) && word.load(Ordering::SeqCst) & bit == 0
    }

    /// [`FrozenTier::is_clean`] for every gap of `first..=last`, a summary
    /// word at a time (`ready` first, as there).
    fn span_is_clean(&self, first: usize, last: usize) -> bool {
        self.ready.load(Ordering::SeqCst)
            && (first / 64..=last / 64).all(|w| {
                let mut gaps = u64::MAX;
                if w == first / 64 {
                    gaps &= u64::MAX << (first % 64);
                }
                if w == last / 64 {
                    gaps &= u64::MAX >> (63 - last % 64);
                }
                self.dirty[w].load(Ordering::SeqCst) & gaps == 0
            })
    }
}

/// One published state of the structure. Immutable as a triple: merges replace the
/// whole `Tiers` rather than mutating it (the live delta's *contents* do change —
/// that is where writes go).
struct Tiers<V> {
    frozen: Arc<FrozenTier<V>>,
    /// The delta absorbing current writes.
    live: Arc<SkipList<Slot<V>>>,
    /// During a merge: the previous delta, sealed (writers that raced the seal may
    /// still finish a write into it — the merge waits them out before folding —
    /// and until then later writers freeze what they read of it, `base`).
    /// Reads consult it between `live` and `frozen`.
    sealed: Option<Arc<SkipList<Slot<V>>>>,
}

impl<V> Tiers<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// What the tiers below the live delta say about `key`: the sealed delta's
    /// entry, else `frozen`, the value [`FrozenTier::locate`] found under it.
    fn under<'g>(&'g self, key: u64, frozen: Option<&'g V>, guard: &'g Guard) -> Option<&'g V> {
        let sealed = self
            .sealed
            .as_ref()
            .and_then(|s| s.get_in(key, None, guard));
        sealed.and_then(Slot::says).unwrap_or(frozen)
    }

    /// Full visibility of `key` (live, then sealed, then frozen).
    fn resolve<'g>(&'g self, key: u64, guard: &'g Guard) -> Option<&'g V> {
        let live = self.live.get_in(key, None, guard).and_then(Slot::says);
        live.unwrap_or_else(|| self.under(key, self.frozen.locate(key).1, guard))
    }

    /// The live delta's entry for `key`, if a write has one to act on. In a
    /// clean gap there is none, known without the delta search: the answer
    /// holds as of the moment this view was loaded, which is all a real probe's
    /// answer is worth by the time the writer acts on it.
    fn live_entry<'g>(&'g self, key: u64, gap: usize, guard: &'g Guard) -> Option<&'g Slot<V>> {
        if self.frozen.is_clean(gap) {
            return None;
        }
        self.live.get_in(key, None, guard)
    }

    /// A point lookup: the frozen probe alone when `key`'s gap is clean
    /// ([`Counter::TierHit`]), else through the deltas
    /// ([`Counter::TierMissDelta`]).
    fn get(&self, key: u64, guard: &Guard) -> Option<V> {
        let (gap, frozen) = self.frozen.locate(key);
        if self.frozen.is_clean(gap) {
            metrics::record(Counter::TierHit);
            return frozen.cloned();
        }
        metrics::record(Counter::TierMissDelta);
        self.resolve(key, guard).cloned()
    }
}

/// An ordered map with the [`SkipTrie`](crate::SkipTrie)'s interface, served
/// from a frozen/delta read tier — see the [module docs](self) for the
/// architecture, the read protocol, and the consistency contract.
///
/// # Examples
///
/// ```
/// use skiptrie::{TieredSkipTrie, TieredSkipTrieConfig};
///
/// let tiered: TieredSkipTrie<u64> = TieredSkipTrie::from_sorted(
///     TieredSkipTrieConfig::for_universe_bits(32),
///     (0..1000u64).map(|k| (k * 3, k)),
/// );
/// assert_eq!(tiered.predecessor(10), Some((9, 3)));
/// assert!(tiered.insert(10, 99));
/// assert_eq!(tiered.predecessor(10), Some((10, 99)));
/// assert_eq!(tiered.remove(9), Some(3));
/// tiered.merge(); // fold the delta into a fresh frozen tier
/// assert_eq!(tiered.predecessor(9), Some((6, 2)));
/// ```
// `repr(C)` keeps the fields in this order: the configuration and the domain,
// read by every operation and never written, fill the first line; `state` and
// the fold's own words share the second, written once per fold; the write
// counters have the third to themselves.
#[repr(C)]
pub struct TieredSkipTrie<V>
where
    V: Clone + Send + Sync + 'static,
{
    config: TieredSkipTrieConfig,
    /// The epoch domain all pins and tier retirements go through.
    domain: usize,
    /// The published [`Tiers`] triple (a `Box::into_raw` pointer, `Send + Sync`
    /// because `V` is): read under a pin of `domain` by
    /// [`TieredSkipTrie::with_tiers`], swapped and retired through the domain by
    /// [`TieredSkipTrie::publish`], freed by `Drop`.
    state: AtomicPtr<Tiers<V>>,
    /// Count of `state` swaps, behind [`TieredSkipTrie::generation`].
    gen: AtomicU64,
    /// Completed folds (merges that actually replaced the frozen tier).
    merges: AtomicU64,
    /// The forest coordinator's gate, attached when this structure is a
    /// [`TieredForest`](crate::TieredForest) shard; empty for a standalone trie.
    coordinator: OnceLock<Arc<WakeGate>>,
    /// Single-merger guard: concurrent [`TieredSkipTrie::merge`] calls are no-ops.
    merging: AtomicBool,
    /// True from the end of a merge's first grace until the next seal: no
    /// writer that loaded the pre-seal triple is left, so nothing changes what
    /// the sealed delta says any more, and merge writers read it as it is
    /// (`base`).
    settled: AtomicBool,
    /// The counters every write moves, on a cache line of their own.
    writes: WriteCounters,
}

/// The words a [`TieredSkipTrie`] write updates. They get a 64-byte line of their
/// own: `state`, which every operation loads, would otherwise share one with
/// `net` and `delta_writes`, and each write would take that line from every reader.
#[repr(align(64))]
struct WriteCounters {
    /// Net key count (effective inserts minus effective removes; exact once
    /// writes quiesce).
    net: AtomicI64,
    /// Delta writes since the last seal; the watermark trigger reads this (reset
    /// at seal time — late writers racing a seal overcount harmlessly).
    delta_writes: AtomicU64,
    /// Latched by the write that crosses the watermark (so only one writer pays
    /// the wake), cleared at seal time.
    merge_due: AtomicBool,
}

impl<V> Drop for TieredSkipTrie<V>
where
    V: Clone + Send + Sync + 'static,
{
    fn drop(&mut self) {
        // SAFETY: `&mut self` — nothing can race the pointer any more, and it is
        // the unique owner of the `Box` the last `publish` (or the constructor)
        // leaked into `state`.
        drop(unsafe { Box::from_raw(*self.state.get_mut()) });
    }
}

impl<V> TieredSkipTrie<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// Pins this structure's epoch domain (never the process-wide default
    /// directly — the workspace-wide domain-isolation rule). The delta
    /// skiplists pin the same domain, and the displaced tier triples (see
    /// `publish`) are retired through it.
    fn pin(&self) -> Guard {
        epoch::pin_domain(self.domain)
    }

    fn check_key(&self, key: u64) {
        assert!(
            key <= max_key(self.config.trie.universe_bits),
            "key {key} exceeds the configured universe of {} bits",
            self.config.trie.universe_bits
        );
    }

    /// Accounts one write into the live delta. When the configured watermark is
    /// crossed, exactly one writer (the one whose `swap` latches `merge_due`)
    /// wakes the coordinator — the cost on every other write is one atomic add,
    /// nothing shared beyond the counter line.
    fn note_delta_write(&self) {
        let Some(watermark) = self.config.merge_watermark else {
            return;
        };
        let writes = self.writes.delta_writes.fetch_add(1, Ordering::SeqCst) + 1;
        if writes as usize >= watermark && !self.writes.merge_due.swap(true, Ordering::SeqCst) {
            self.wake_coordinator();
        }
    }

    /// Wakes the forest coordinator, if this structure is a forest shard. Call
    /// after the store that makes [`TieredSkipTrie::fold_ready`] true.
    fn wake_coordinator(&self) {
        if let Some(gate) = self.coordinator.get() {
            gate.wake();
        }
    }

    /// The published tiers triple, borrowed for `guard`, a pin of this
    /// structure's domain — the one place `state` is read. The pin keeps the
    /// borrow valid (`publish` retires a displaced triple through this
    /// domain), and it is what `wait_writer_grace` waits out: a writer writes
    /// a delta under the pin it loaded the triple with.
    fn tiers<'g>(&'g self, _guard: &'g Guard) -> &'g Tiers<V> {
        // SAFETY: `state` always holds a live `Box::into_raw` pointer; a swap
        // defers the displaced box's drop through the domain `_guard` pins, so
        // it outlives the borrow.
        unsafe { &*self.state.load(Ordering::SeqCst) }
    }

    /// Runs `f` on the published tiers triple under one pin, which `f` gets
    /// too: the deltas are read and written under it.
    fn with_tiers<R>(&self, f: impl FnOnce(&Tiers<V>, &Guard) -> R) -> R {
        let guard = self.pin();
        f(self.tiers(&guard), &guard)
    }

    /// Publishes `tiers` as the new state: one atomic swap, **no lock and no pin
    /// held across it**. The displaced state is retired through the structure's
    /// epoch domain afterwards, so readers that loaded it stay safe.
    fn publish(&self, tiers: Tiers<V>) {
        let fresh = Box::into_raw(Box::new(tiers));
        let old = self.state.swap(fresh, Ordering::SeqCst);
        self.gen.fetch_add(1, Ordering::SeqCst);
        metrics::record(Counter::TierSwap);
        let guard = self.pin();
        // SAFETY: `old` is the unique owning pointer displaced by the swap; the
        // deferred drop runs only after every thread pinned at swap time (i.e.
        // every `with_tiers` call that could still be borrowing `old`) has
        // unpinned.
        unsafe {
            guard.defer_unchecked(move || drop(Box::from_raw(old)));
        }
    }

    /// Blocks until every thread pinned in this domain at entry has unpinned.
    /// A writer's state read and delta write share one `with_tiers` pin, so once
    /// this returns, no writer can still be writing a delta that was sealed
    /// *before* entry.
    fn wait_writer_grace(&self) {
        let done = Arc::new(AtomicBool::new(false));
        {
            let guard = self.pin();
            let done = Arc::clone(&done);
            // SAFETY: the closure only touches an Arc-kept atomic and runs once.
            unsafe {
                guard.defer_unchecked(move || done.store(true, Ordering::SeqCst));
            }
            guard.flush();
        }
        while !done.load(Ordering::SeqCst) {
            self.pin().flush();
            std::thread::yield_now();
        }
    }

    /// The seal → grace → fold → publish cycle, then the new tier's summary
    /// catch-up; the caller holds `merging`.
    fn merge_cycle(&self) -> bool {
        // `merging` is held, so `sealed` can only be Some if a previous merge died
        // mid-way — impossible without a panic; treat "nothing buffered" as done.
        let buffered = self.with_tiers(|t, _| {
            (!t.live.is_empty() || t.sealed.is_some())
                .then(|| (Arc::clone(&t.frozen), Arc::clone(&t.live)))
        });
        let Some((frozen, sealed)) = buffered else {
            // Nothing to fold: also disarm a stale watermark latch so the
            // coordinator does not keep seeing this shard as due.
            self.writes.delta_writes.store(0, Ordering::SeqCst);
            self.writes.merge_due.store(false, Ordering::SeqCst);
            return false;
        };
        // Phase 1 — seal: move the live delta aside and hand writers a fresh one.
        // Until the grace below, writers of the sealed triple freeze what they
        // read of `sealed` (`base`).
        let live = new_delta(self.config.trie);
        self.settled.store(false, Ordering::SeqCst);
        self.publish(Tiers {
            frozen: Arc::clone(&frozen),
            live: Arc::clone(&live),
            sealed: Some(Arc::clone(&sealed)),
        });
        // Re-arm the watermark for the fresh delta. Writers that raced the seal
        // into the old one may still bump the counter — a harmless overcount that
        // at worst triggers the next merge a few writes early.
        self.writes.delta_writes.store(0, Ordering::SeqCst);
        self.writes.merge_due.store(false, Ordering::SeqCst);
        // Phase 2 — grace: writers that read the pre-seal state may still be
        // mid-write into `sealed`; they were pinned before the swap, so waiting
        // for those pins to clear quiesces it.
        self.wait_writer_grace();
        self.settled.store(true, Ordering::SeqCst);
        // Phase 3 — fold, fully off to the side (readers keep serving phase 1's
        // state). Nothing changes what `sealed` says any more (merge writers
        // only freeze its entries and link blockers), so its snapshot is exact.
        // The new tier's dirty-gap summary is not `ready`: a writer still
        // pinned on phase 1's state marks the old tier's summary and then
        // writes `live`.
        let next = Arc::new(Self::fold(&frozen, sealed.to_vec()));
        metrics::record(Counter::TierMerge);
        // Phase 4 — publish the new frozen tier and retire the sealed delta
        // (`merging` is held: `live` is still the delta phase 1 published).
        self.publish(Tiers {
            frozen: Arc::clone(&next),
            live: Arc::clone(&live),
            sealed: None,
        });
        self.merges.fetch_add(1, Ordering::SeqCst);
        // Phase 5 — catch the new summary up. After this grace every writer
        // marks `next` before it touches `live`, and what the stragglers left
        // is in `live` for the scan to mark: entries never leave a delta.
        self.wait_writer_grace();
        let mut buffered = live.range(..);
        while let Some(key) = buffered.next_key() {
            next.mark_gap(next.locate(key).0);
        }
        next.ready.store(true, Ordering::SeqCst);
        true
    }

    /// Two-way merge of a frozen tier with a sorted delta snapshot: delta entries
    /// override frozen ones, tombstones delete, blockers say nothing. The
    /// merged entries become a tier like any other, indexed for the keys left.
    fn fold(frozen: &FrozenTier<V>, delta: Vec<(u64, Slot<V>)>) -> FrozenTier<V> {
        let mut out = Vec::with_capacity(frozen.len() + delta.len());
        let mut fi = 0usize;
        for (key, slot) in &delta {
            let Some(put) = slot.says() else { continue };
            let rest = &frozen.sorted[fi..];
            let below = rest.iter().take_while(|(k, _)| k < key).count();
            out.extend_from_slice(&rest[..below]);
            fi += below;
            if frozen.sorted.get(fi).is_some_and(|(k, _)| k == key) {
                fi += 1; // shadowed
            }
            if let Some(v) = put {
                out.push((*key, v.clone()));
            }
        }
        out.extend_from_slice(&frozen.sorted[fi..]);
        FrozenTier::new(out, false)
    }

    /// Accounts one effective write: `net` moves by `change`, and the
    /// watermark counts the write.
    fn counted(&self, change: i64) {
        self.writes.net.fetch_add(change, Ordering::SeqCst);
        self.note_delta_write();
    }

    /// What a write is based on: the value visible under `t`'s live delta.
    /// During a merge, until no writer that loaded the pre-seal triple is left
    /// (`settled`), the sealed delta's entry for `key` is frozen first — a
    /// blocker is linked if there is none, after `gap` is marked — so that no
    /// such writer can change it; from then on nothing can, and it is read as
    /// it is. Every writer of the merge, and every writer after its fold,
    /// bases its write on the same value (module docs, "One descent per
    /// write").
    fn base<'g>(
        &'g self,
        t: &'g Tiers<V>,
        key: u64,
        gap: usize,
        frozen: Option<&'g V>,
        guard: &'g Guard,
    ) -> Option<&'g V> {
        let Some(sealed) = &t.sealed else {
            return frozen;
        };
        if self.settled.load(Ordering::SeqCst) {
            return t.under(key, frozen, guard);
        }
        t.frozen.mark_gap(gap);
        match sealed.insert_from(key, Slot::new(ABSENT | FROZEN, None), None, guard) {
            InsertOutcome::Inserted { .. } => frozen,
            InsertOutcome::AlreadyPresent(slot) => slot.freeze().unwrap_or(frozen),
        }
    }

    /// Insert core, under the caller's pin of this domain and starting on the
    /// triple `t` loaded with it. One descent of the live delta and at most one
    /// CAS (module docs, "One descent per write"): a key visible below can only be
    /// revived through a live tombstone; any other key is linked as a put, and
    /// an insert that finds an entry there acts on that entry instead.
    fn insert_in<'g>(&'g self, mut t: &'g Tiers<V>, key: u64, value: &V, guard: &'g Guard) -> bool {
        loop {
            let (gap, frozen) = t.frozen.locate(key);
            let slot = if self.base(t, key, gap, frozen, guard).is_none() {
                t.frozen.mark_gap(gap);
                match t.live.insert_from(
                    key,
                    Slot::new(PUT_FIRST, Some(value.clone())),
                    None,
                    guard,
                ) {
                    InsertOutcome::Inserted { .. } => {
                        self.counted(1);
                        return true;
                    }
                    InsertOutcome::AlreadyPresent(slot) => slot,
                }
            } else if let Some(slot) = t.live_entry(key, gap, guard) {
                t.frozen.mark_gap(gap);
                slot
            } else {
                return false;
            };
            match slot.revive(value) {
                Ok(revived) => {
                    if revived {
                        self.counted(1);
                    }
                    return revived;
                }
                Err(Stale) => t = self.tiers(guard),
            }
        }
    }

    /// Remove core (same contract as [`TieredSkipTrie::insert_in`]): a key
    /// visible below is claimed by linking a tombstone over it; a key held by
    /// the live delta alone is claimed by the CAS that tombstones its entry.
    /// Either way one descent of the live delta and at most one CAS, and the
    /// claim has one winner.
    fn remove_in<'g>(&'g self, mut t: &'g Tiers<V>, key: u64, guard: &'g Guard) -> Option<V> {
        loop {
            let (gap, frozen) = t.frozen.locate(key);
            let slot = if let Some(below) = self.base(t, key, gap, frozen, guard) {
                t.frozen.mark_gap(gap);
                match t
                    .live
                    .insert_from(key, Slot::new(TOMBSTONE, None), None, guard)
                {
                    InsertOutcome::Inserted { .. } => {
                        self.counted(-1);
                        return Some(below.clone());
                    }
                    InsertOutcome::AlreadyPresent(slot) => slot,
                }
            } else if let Some(slot) = t.live_entry(key, gap, guard) {
                t.frozen.mark_gap(gap);
                slot
            } else {
                return None;
            };
            match slot.take(guard) {
                Ok(taken) => return taken.inspect(|_| self.counted(-1)),
                Err(Stale) => t = self.tiers(guard),
            }
        }
    }
}

impl<V> Default for TieredSkipTrie<V>
where
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        TieredSkipTrie::new(TieredSkipTrieConfig::default())
    }
}

impl<V> TieredSkipTrie<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// Creates an empty tiered trie (an empty frozen tier plus an empty delta).
    ///
    /// # Panics
    ///
    /// Panics if `config.trie.universe_bits` is not in `1..=64`.
    pub fn new(config: TieredSkipTrieConfig) -> Self {
        Self::from_sorted(config, std::iter::empty())
    }

    /// Builds the frozen tier directly from a sorted, strictly increasing
    /// `(key, value)` sequence in `O(n)` — every gap starts clean, so reads are
    /// answered by the frozen tier alone until a write lands beside them.
    ///
    /// # Panics
    ///
    /// Panics if keys are not strictly increasing or exceed the universe.
    pub fn from_sorted<I>(config: TieredSkipTrieConfig, entries: I) -> Self
    where
        I: IntoIterator<Item = (u64, V)>,
    {
        let sorted = checked(config.trie.universe_bits, entries);
        let net = sorted.len() as i64;
        let tiers = Tiers {
            frozen: Arc::new(FrozenTier::new(sorted, true)),
            live: new_delta(config.trie),
            sealed: None,
        };
        TieredSkipTrie {
            config,
            domain: config.trie.domain.unwrap_or(0),
            state: AtomicPtr::new(Box::into_raw(Box::new(tiers))),
            gen: AtomicU64::new(0),
            merging: AtomicBool::new(false),
            settled: AtomicBool::new(false),
            writes: WriteCounters {
                net: AtomicI64::new(net),
                delta_writes: AtomicU64::new(0),
                merge_due: AtomicBool::new(false),
            },
            merges: AtomicU64::new(0),
            coordinator: OnceLock::new(),
        }
    }

    /// The configuration this structure was built with.
    pub fn config(&self) -> TieredSkipTrieConfig {
        self.config
    }

    /// Number of keys stored (net of effective inserts and removes; exact once
    /// writes quiesce, see the module docs).
    pub fn len(&self) -> usize {
        self.writes.net.load(Ordering::SeqCst).max(0) as usize
    }

    /// True if no keys are stored (same caveat as [`TieredSkipTrie::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of keys currently buffered in the live delta (diagnostics).
    pub fn delta_len(&self) -> usize {
        self.with_tiers(|t, _| t.live.len())
    }

    /// Number of entries in the published frozen tier (diagnostics).
    pub fn frozen_len(&self) -> usize {
        self.with_tiers(|t, _| t.frozen.len())
    }

    /// The published generation: bumped on every tier swap (two per merge cycle).
    pub fn generation(&self) -> u64 {
        self.gen.load(Ordering::SeqCst)
    }

    /// True while a merge is between its seal and publish swaps — a sealed
    /// delta exists that has not yet been folded into the frozen tier
    /// (diagnostics).
    pub fn mid_merge(&self) -> bool {
        self.with_tiers(|t, _| t.sealed.is_some())
    }

    /// Returns a clone of the value stored under `key`.
    ///
    /// One search of the frozen tier, and nothing else when no buffered write
    /// has touched the gap between frozen keys that `key` falls in
    /// ([`Counter::TierHit`], whatever else the delta holds); otherwise the
    /// delta is consulted first ([`Counter::TierMissDelta`]).
    ///
    /// # Panics
    ///
    /// Panics if `key` does not fit in the configured universe.
    pub fn get(&self, key: u64) -> Option<V> {
        self.check_key(key);
        self.with_tiers(|t, guard| t.get(key, guard))
    }

    /// True if `key` is present.
    ///
    /// # Panics
    ///
    /// Panics if `key` does not fit in the configured universe.
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// The largest key `<= key` and its value, merged across tiers: delta values
    /// override frozen ones and tombstones hide them.
    ///
    /// # Panics
    ///
    /// Panics if `key` does not fit in the configured universe.
    pub fn predecessor(&self, key: u64) -> Option<(u64, V)> {
        self.check_key(key);
        self.with_tiers(|t, guard| {
            // A clean gap holds no delta entry from the frozen key at its
            // lower end up to the next one: that frozen key is the answer.
            let gap = t.frozen.locate(key).0;
            if t.frozen.is_clean(gap) {
                metrics::record(Counter::TierHit);
                return Some(t.frozen.sorted[gap.checked_sub(1)?].clone());
            }
            metrics::record(Counter::TierMissDelta);
            let mut bound = key;
            loop {
                // Best candidate at or below `bound` from each tier, then resolve
                // the winner; a tombstoned winner steps the bound past it.
                let mut best = t.frozen.predecessor_key(bound);
                if let Some((k, _)) = t.live.predecessor(bound) {
                    best = Some(best.map_or(k, |b| b.max(k)));
                }
                if let Some(sealed) = &t.sealed {
                    if let Some((k, _)) = sealed.predecessor(bound) {
                        best = Some(best.map_or(k, |b| b.max(k)));
                    }
                }
                let candidate = best?;
                if let Some(v) = t.resolve(candidate, guard) {
                    return Some((candidate, v.clone()));
                }
                bound = candidate.checked_sub(1)?;
            }
        })
    }

    /// The largest key strictly `< key`, if any.
    pub fn strict_predecessor(&self, key: u64) -> Option<(u64, V)> {
        self.predecessor(key.checked_sub(1)?)
    }

    /// The smallest key `>= key` and its value (tier-merged like
    /// [`TieredSkipTrie::predecessor`]).
    ///
    /// # Panics
    ///
    /// Panics if `key` does not fit in the configured universe.
    pub fn successor(&self, key: u64) -> Option<(u64, V)> {
        self.check_key(key);
        let top = max_key(self.config.trie.universe_bits);
        self.with_tiers(|t, guard| {
            // A frozen `key` answers for itself if its own gap is clean. Any
            // other key needs its gap free of inserts and, for the frozen key
            // above it not to be tombstoned, the next gap too. `above` is
            // that frozen key's index, `last` the last gap to check.
            let (gap, frozen) = t.frozen.locate(key);
            let (above, last) = match frozen {
                Some(_) => (gap - 1, gap),
                None => (gap, (gap + 1).min(t.frozen.len())),
            };
            if (gap..=last).all(|g| t.frozen.is_clean(g)) {
                metrics::record(Counter::TierHit);
                return t.frozen.sorted.get(above).cloned();
            }
            metrics::record(Counter::TierMissDelta);
            let mut bound = key;
            loop {
                let mut best = t.frozen.successor_key(bound);
                if let Some((k, _)) = t.live.successor(bound) {
                    best = Some(best.map_or(k, |b| b.min(k)));
                }
                if let Some(sealed) = &t.sealed {
                    if let Some((k, _)) = sealed.successor(bound) {
                        best = Some(best.map_or(k, |b| b.min(k)));
                    }
                }
                let candidate = best?;
                if let Some(v) = t.resolve(candidate, guard) {
                    return Some((candidate, v.clone()));
                }
                if candidate >= top {
                    return None;
                }
                bound = candidate + 1;
            }
        })
    }

    /// Inserts `key -> value` if `key` is not visibly present; `true` if this call
    /// inserted. Exact under any race with other writers (module docs).
    ///
    /// # Panics
    ///
    /// Panics if `key` does not fit in the configured universe.
    pub fn insert(&self, key: u64, value: V) -> bool {
        self.check_key(key);
        self.with_tiers(|t, guard| self.insert_in(t, key, &value, guard))
    }

    /// Removes `key`, returning its visible value if this call performed the
    /// removal. A tombstone is left in the delta so the key stays dead even while
    /// older tiers still hold it. Exact under any race with other writers
    /// (module docs).
    ///
    /// # Panics
    ///
    /// Panics if `key` does not fit in the configured universe.
    pub fn remove(&self, key: u64) -> Option<V> {
        self.check_key(key);
        self.with_tiers(|t, guard| self.remove_in(t, key, guard))
    }

    /// An ordered iterator over the entries whose keys lie in `range`, merged
    /// across tiers. Opening it costs one frozen search and a reference count
    /// on each tier; the entries then come a *window* of frozen keys at a
    /// time (64 of them, doubling with every window the scan gets through). A
    /// window whose gaps the dirty-gap summary calls clean streams from the
    /// frozen array and touches no delta ([`Counter::TierHit`]); any other
    /// reads the deltas over its own key span only
    /// ([`Counter::TierMissDelta`]). Weakly consistent: the iterator serves one
    /// published tiers triple for its whole life (keys stable across the scan all
    /// appear; concurrent writes and merges may or may not).
    ///
    /// Unlike [`SkipTrie::range`](crate::SkipTrie::range), the iterator holds
    /// **no epoch pin** between calls — it owns reference-counted tiers, and a
    /// delta cursor lives only for the refill that opened it — so unbounded
    /// scans never stall reclamation.
    pub fn range(&self, range: impl RangeBounds<u64>) -> TieredRangeIter<V> {
        let Some((lo, hi)) = crate::resolve_bounds(&range) else {
            return TieredRangeIter::empty();
        };
        self.with_tiers(|t, _| {
            let fi = t.frozen.lower_bound(lo);
            // One past the last frozen index in range.
            let fhi = match hi.checked_add(1) {
                Some(above) => t.frozen.lower_bound(above).max(fi),
                None => t.frozen.len(),
            };
            TieredRangeIter {
                tiers: Some(Tiers {
                    frozen: Arc::clone(&t.frozen),
                    live: Arc::clone(&t.live),
                    sealed: t.sealed.clone(),
                }),
                fi,
                window_end: fi,
                fhi,
                next_lo: Some(lo),
                hi,
                width: FIRST_WINDOW,
                delta: Vec::new(),
                di: 0,
            }
        })
    }

    /// Exports the visible contents as a sorted `Vec<(u64, V)>` (same weak
    /// consistency as [`TieredSkipTrie::range`]).
    pub fn snapshot(&self) -> Vec<(u64, V)> {
        self.range(..).collect()
    }

    /// Removes and returns the entry with the smallest visible key. The claim is
    /// a [`TieredSkipTrie::remove`], exact; which key is smallest is read by a
    /// `successor`, weakly consistent under concurrent writes.
    pub fn pop_first(&self) -> Option<(u64, V)> {
        loop {
            let (key, _) = self.successor(0)?;
            if let Some(value) = self.remove(key) {
                return Some((key, value));
            }
        }
    }

    /// Removes and returns the entry with the largest visible key (mirror of
    /// [`TieredSkipTrie::pop_first`]).
    pub fn pop_last(&self) -> Option<(u64, V)> {
        let top = max_key(self.config.trie.universe_bits);
        loop {
            let (key, _) = self.predecessor(top)?;
            if let Some(value) = self.remove(key) {
                return Some((key, value));
            }
        }
    }

    /// Builds the frozen tier from a sorted, strictly increasing slice in `O(n)`
    /// — the tiered analogue of
    /// [`SkipTrie::bulk_load`](crate::SkipTrie::bulk_load). Requires exclusive
    /// access to an empty structure; returns the number of entries loaded.
    ///
    /// # Panics
    ///
    /// Panics if the structure is not empty, or if keys are not strictly
    /// increasing / exceed the universe.
    pub fn bulk_load(&mut self, entries: &[(u64, V)]) -> usize {
        assert!(
            self.with_tiers(|t, _| t.sealed.is_none() && t.live.is_empty() && t.frozen.len() == 0),
            "bulk_load requires an empty TieredSkipTrie"
        );
        let sorted = checked(self.config.trie.universe_bits, entries.iter().cloned());
        self.writes
            .net
            .store(entries.len() as i64, Ordering::SeqCst);
        self.publish(Tiers {
            frozen: Arc::new(FrozenTier::new(sorted, true)),
            live: new_delta(self.config.trie),
            sealed: None,
        });
        entries.len()
    }

    /// `(allocated, recycled, free)` node counts of the live delta (plus the
    /// sealed one mid-merge) — the frozen tier holds no pool nodes.
    pub fn allocation_stats(&self) -> (usize, usize, usize) {
        self.with_tiers(|t, _| {
            let mut stats = t.live.allocation_stats();
            if let Some(sealed) = &t.sealed {
                let s = sealed.allocation_stats();
                stats = (stats.0 + s.0, stats.1 + s.1, stats.2 + s.2);
            }
            stats
        })
    }

    /// Approximate resident bytes: the frozen array and dirty-gap summary plus
    /// delta skiplist nodes.
    pub fn approx_node_bytes(&self) -> usize {
        self.with_tiers(|t, _| {
            let frozen = std::mem::size_of_val(&*t.frozen.sorted)
                + std::mem::size_of_val(&*t.frozen.index)
                + std::mem::size_of_val(&*t.frozen.dirty);
            let mut bytes = frozen + t.live.approx_node_bytes();
            if let Some(sealed) = &t.sealed {
                bytes += sealed.approx_node_bytes();
            }
            bytes
        })
    }

    /// Audits the live delta's traversal integrity, the frozen tier's sort
    /// order and the dirty-gap summary (no buffered entry in a gap it calls
    /// clean); returns the number of entries checked. Panics on violation.
    pub fn check_traversal_integrity(&self) -> usize {
        self.with_tiers(|t, _| {
            let mut checked = 0;
            for delta in [Some(&t.live), t.sealed.as_ref()].into_iter().flatten() {
                checked += delta.check_traversal_integrity();
                let mut buffered = delta.range(..);
                while let Some(key) = buffered.next_key() {
                    assert!(
                        !t.frozen.is_clean(t.frozen.locate(key).0),
                        "delta entry {key} sits in a gap the summary calls clean"
                    );
                }
            }
            let frozen = &t.frozen;
            for pair in frozen.sorted.windows(2) {
                assert!(
                    pair[0].0 < pair[1].0,
                    "frozen tier keys out of order: {} !< {}",
                    pair[0].0,
                    pair[1].0
                );
            }
            for (slice, &at) in frozen.index.iter().enumerate() {
                let first = frozen
                    .sorted
                    .partition_point(|&(k, _)| frozen.slicing.of(k) < slice);
                assert_eq!(at as usize, first, "radix index entry {slice}");
            }
            checked + frozen.len()
        })
    }

    /// True once the delta-size watermark has been crossed and a merge is owed
    /// (cleared when the next merge seals the delta). Always `false` without a
    /// configured watermark.
    pub fn merge_due(&self) -> bool {
        self.writes.merge_due.load(Ordering::SeqCst)
    }

    /// Delta writes accumulated since the last seal (diagnostics for the
    /// watermark policy).
    pub fn delta_writes(&self) -> u64 {
        self.writes.delta_writes.load(Ordering::SeqCst)
    }

    /// Completed folds over the structure's lifetime (merges that actually
    /// replaced the frozen tier; empty-delta no-op merges do not count).
    pub fn merge_count(&self) -> u64 {
        self.merges.load(Ordering::SeqCst)
    }

    /// True when the coordinator should fold this shard now: a merge is due and
    /// nobody holds the single-merger guard. A due shard an explicit caller is
    /// already folding is *not yet* ready — `merge` would return `false` with
    /// the latch still set, and a level-triggered sleeper would spin on it for
    /// the length of that fold. The folder re-wakes the coordinator on exit.
    pub(crate) fn fold_ready(&self) -> bool {
        self.writes.merge_due.load(Ordering::SeqCst) && !self.merging.load(Ordering::SeqCst)
    }

    /// Makes `gate` the one this shard wakes when [`Self::fold_ready`] turns
    /// true. Called once, by the forest that owns the shard.
    pub(crate) fn attach_coordinator(&self, gate: Arc<WakeGate>) {
        self.coordinator
            .set(gate)
            .expect("a tiered shard has one coordinator");
    }

    /// Folds the delta into a fresh frozen tier and publishes it; returns `true`
    /// if a fold ran (`false` when the delta was empty or another merge was in
    /// flight).
    ///
    /// The cycle is: *seal* (swap in a fresh live delta, keep the old one readable
    /// as `sealed`), *grace* (wait out writers that raced the seal), *fold*
    /// (frozen + sealed → new sorted array, off to the side), *publish* (swap, no
    /// lock or pin held across it), then a second grace and a scan of the live
    /// delta that bring the new tier's dirty-gap summary up to date (reads take
    /// the delta path until it is). Readers never block; they serve the previous
    /// state until the swap and the new one after. Blocks until in-flight writers
    /// unpin; do not call it while holding a guard of this structure's domain.
    pub fn merge(&self) -> bool {
        if self.merging.swap(true, Ordering::SeqCst) {
            return false;
        }
        let folded = self.merge_cycle();
        self.merging.store(false, Ordering::SeqCst);
        // A watermark crossed while `merging` was up was not yet foldable (see
        // `fold_ready`), so the coordinator slept through that writer's wake;
        // now that the guard is down, this is the store that makes it ready.
        if self.writes.merge_due.load(Ordering::SeqCst) {
            self.wake_coordinator();
        }
        folded
    }
}

/// Frozen keys in a scan's first window. Every later window takes twice the one
/// before it, so a page-sized scan opens a delta cursor or two at most and a
/// scan of `n` keys `O(log n)` of them.
const FIRST_WINDOW: usize = 64;

/// Ordered merged iterator returned by [`TieredSkipTrie::range`]; owns its tiers
/// triple (no epoch pin between calls, no borrow of the structure).
pub struct TieredRangeIter<V> {
    /// The triple the scan was opened on; `None` for an empty range.
    tiers: Option<Tiers<V>>,
    /// Next frozen index to serve; the current window is `fi..window_end`.
    fi: usize,
    window_end: usize,
    /// One past the last frozen index in range.
    fhi: usize,
    /// The key the next window starts at; `None` once the last window, the one
    /// that reaches `hi`, has been opened.
    next_lo: Option<u64>,
    hi: u64,
    /// Frozen keys the next window takes.
    width: usize,
    /// What the deltas hold in the current window's key span, ascending, a
    /// tombstone as `None` so it can hide a frozen entry during the merge
    /// walk; empty for a clean window.
    delta: Vec<(u64, Option<V>)>,
    di: usize,
}

impl<V> TieredRangeIter<V>
where
    V: Clone + Send + Sync + 'static,
{
    fn empty() -> Self {
        TieredRangeIter {
            tiers: None,
            fi: 0,
            window_end: 0,
            fhi: 0,
            next_lo: None,
            hi: 0,
            width: FIRST_WINDOW,
            delta: Vec::new(),
            di: 0,
        }
    }

    /// Advances through at most `limit` entries, returning how many were yielded
    /// (what `OrderedKv::scan` runs on).
    pub fn count_up_to(&mut self, limit: usize) -> usize {
        let mut n = 0;
        while n < limit && self.next_key().is_some() {
            n += 1;
        }
        n
    }

    /// Advances and returns only the next key, skipping the value clone — the
    /// counting/stitching primitive the sharded router's scans use.
    pub fn next_key(&mut self) -> Option<u64> {
        self.advance(false).map(|(k, _)| k)
    }

    /// Opens the next window, `None` if the last one has been served: frozen
    /// indices `fi..end`, and the keys from `next_lo` up to the frozen key at
    /// `end` (up to `hi` when the window is the last). `end` is a multiple of
    /// 64 less one, so the window's gaps `..=end` finish a summary word and
    /// whole-word loads test them. Clean, the window is its frozen run
    /// ([`Counter::TierHit`]); otherwise ([`Counter::TierMissDelta`]) what the
    /// deltas hold in those keys is merged into `delta`, live over sealed. The
    /// delta cursors, and their pins, end with the call.
    ///
    /// The summary is read now, not when the scan opened, and by then the
    /// structure may have published other triples. That is sound for the same
    /// reason a point read's is: bits are only ever set, and an entry either
    /// delta of *this* triple held when the scan opened was marked in this
    /// frozen tier before it was written, or by the catch-up scan `ready`
    /// waits for. What a later triple's writers put in the shared live delta
    /// is marked in their tier alone, and is a write concurrent with the scan.
    // Out of line, so that the walk stays small enough to inline into the
    // loops that drive it (a third off a 1 024-entry scan).
    #[inline(never)]
    fn refill(&mut self) -> Option<()> {
        let lo = self.next_lo.take()?;
        let t = self.tiers.as_ref()?;
        let sorted = &t.frozen.sorted;
        let end = ((self.fi + self.width) | 63).min(self.fhi);
        self.width *= 2;
        let hi = if end < self.fhi {
            let above = sorted[end].0;
            self.next_lo = Some(above);
            above - 1
        } else {
            self.hi
        };
        // `lo`'s own gap (the one `sorted[fi]` opens, if `lo` is that key)
        // through gap `end`, which `hi` falls in.
        let first_gap = self.fi + usize::from(sorted.get(self.fi).is_some_and(|&(k, _)| k == lo));
        self.window_end = end;
        self.delta.clear();
        self.di = 0;
        if t.frozen.span_is_clean(first_gap, end) {
            metrics::record(Counter::TierHit);
            return Some(());
        }
        metrics::record(Counter::TierMissDelta);
        let entry = |(k, slot): (u64, Slot<V>)| Some((k, slot.says()?.cloned()));
        let mut live = t.live.range(lo..=hi).filter_map(entry).peekable();
        if let Some(sealed) = &t.sealed {
            for under in sealed.range(lo..=hi).filter_map(entry) {
                let mut shadowed = false;
                while let Some(over) = live.next_if(|over| over.0 <= under.0) {
                    shadowed = over.0 == under.0;
                    self.delta.push(over);
                }
                if !shadowed {
                    self.delta.push(under);
                }
            }
        }
        self.delta.extend(live);
        Some(())
    }

    /// The shared merge walk over the window's frozen run and its delta
    /// entries: the smaller key wins, a delta entry shadows an equal frozen one,
    /// tombstones are skipped; both run out, the next window opens. The value is
    /// cloned only when `want_value`.
    #[inline]
    fn advance(&mut self, want_value: bool) -> Option<(u64, Option<V>)> {
        loop {
            let sorted = &self.tiers.as_ref()?.frozen.sorted;
            let frozen = (self.fi < self.window_end).then(|| &sorted[self.fi]);
            let buffered = self.delta.get(self.di);
            if let Some((k, v)) = frozen {
                if buffered.is_none_or(|(dk, _)| k < dk) {
                    self.fi += 1;
                    return Some((*k, want_value.then(|| v.clone())));
                }
            }
            let Some((dk, put)) = buffered else {
                self.refill()?;
                continue;
            };
            if frozen.is_some_and(|(k, _)| k == dk) {
                self.fi += 1; // shadowed by the delta
            }
            self.di += 1;
            if let Some(v) = put {
                return Some((*dk, want_value.then(|| v.clone())));
            }
        }
    }
}

impl<V> Iterator for TieredRangeIter<V>
where
    V: Clone + Send + Sync + 'static,
{
    type Item = (u64, V);

    fn next(&mut self) -> Option<(u64, V)> {
        self.advance(true)
            .map(|(k, v)| (k, v.expect("advance(true) clones the value")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skiptrie_skiplist::OrderedKv;

    fn tiered(entries: impl IntoIterator<Item = u64>) -> TieredSkipTrie<u64> {
        TieredSkipTrie::from_sorted(
            TieredSkipTrieConfig::for_universe_bits(32),
            entries.into_iter().map(|k| (k, k + 1)),
        )
    }

    /// The gaps of the published frozen tier that reads may not skip the delta on.
    fn dirty_gaps(t: &TieredSkipTrie<u64>) -> Vec<usize> {
        t.with_tiers(|t, _| {
            (0..=t.frozen.len())
                .filter(|&g| !t.frozen.is_clean(g))
                .collect()
        })
    }

    /// Every point read of every key up to `top`, and the full scan, against `model`.
    fn assert_reads_like(
        t: &TieredSkipTrie<u64>,
        model: &std::collections::BTreeMap<u64, u64>,
        top: u64,
        context: &str,
    ) {
        let pair = |(&k, &v): (&u64, &u64)| (k, v);
        for k in 0..=top {
            assert_eq!(t.get(k), model.get(&k).copied(), "get({k}) {context}");
            assert_eq!(
                t.predecessor(k),
                model.range(..=k).next_back().map(pair),
                "predecessor({k}) {context}"
            );
            assert_eq!(
                t.successor(k),
                model.range(k..).next().map(pair),
                "successor({k}) {context}"
            );
        }
        assert_eq!(
            t.range(..).collect::<Vec<_>>(),
            model.iter().map(pair).collect::<Vec<_>>(),
            "range(..) {context}"
        );
        t.check_traversal_integrity();
    }

    #[test]
    fn every_single_write_beside_every_frozen_subset_reads_like_a_btreemap() {
        // Universe 0..8: every frozen subset, every one write (insert or remove of
        // each key), every point read and the scan, with the write buffered and
        // folded — then a second write on the folded tier, whose summary started
        // out not ready. Clean gaps answer from the frozen tier alone, so any
        // wrong bit index or gap boundary shows as a wrong answer here.
        let config = TieredSkipTrieConfig::for_universe_bits(3);
        for subset in 0u32..256 {
            let frozen = (0..8u64).filter(|k| subset >> k & 1 == 1);
            let model: std::collections::BTreeMap<u64, u64> = frozen.map(|k| (k, k + 10)).collect();
            for write in 0..16u64 {
                let (key, insert) = (write / 2, write % 2 == 0);
                let t = TieredSkipTrie::from_sorted(config, model.clone());
                let mut model = model.clone();
                let context = format!(
                    "after {}({key}) on frozen set {subset:#010b}",
                    if insert { "insert" } else { "remove" }
                );
                if insert {
                    assert_eq!(t.insert(key, 99), !model.contains_key(&key), "{context}");
                    model.entry(key).or_insert(99);
                } else {
                    assert_eq!(t.remove(key), model.remove(&key), "{context}");
                }
                assert_reads_like(&t, &model, 7, &context);
                t.merge();
                assert_eq!(
                    dirty_gaps(&t),
                    [0usize; 0],
                    "a fold starts clean, {context}"
                );
                assert_reads_like(&t, &model, 7, &format!("and a merge, {context}"));
                let flipped = (key + 3) % 8;
                if model.remove(&flipped).is_some() {
                    assert!(t.remove(flipped).is_some(), "{context}");
                } else {
                    assert!(t.insert(flipped, 77), "{context}");
                    model.insert(flipped, 77);
                }
                assert_reads_like(
                    &t,
                    &model,
                    7,
                    &format!("a merge and a flip of {flipped}, {context}"),
                );
            }
        }
    }

    /// Frozen keys of the window-seam sweeps: `10, 20, …`, so every gap has room
    /// for a key beside each of its ends.
    const SEAM_KEYS: usize = 320;

    fn seam_key(i: usize) -> u64 {
        10 * (i as u64 + 1)
    }

    /// Gaps either side of a summary-word boundary — where a scan's windows
    /// end, wherever it starts — and at both ends of the tier.
    const SEAM_GAPS: [usize; 14] = [
        0,
        1,
        62,
        63,
        64,
        65,
        127,
        128,
        191,
        192,
        255,
        256,
        SEAM_KEYS - 1,
        SEAM_KEYS,
    ];

    fn seam_tier() -> (TieredSkipTrie<u64>, std::collections::BTreeMap<u64, u64>) {
        let model: std::collections::BTreeMap<u64, u64> =
            (0..SEAM_KEYS).map(|i| (seam_key(i), i as u64)).collect();
        let config = TieredSkipTrieConfig::for_universe_bits(64);
        (TieredSkipTrie::from_sorted(config, model.clone()), model)
    }

    /// One write, as `(key, insert)`; `apply` checks its result against the model.
    type Write = (u64, bool);

    fn apply(
        t: &TieredSkipTrie<u64>,
        model: &mut std::collections::BTreeMap<u64, u64>,
        (key, insert): Write,
    ) {
        if insert {
            assert_eq!(t.insert(key, 7), !model.contains_key(&key), "insert({key})");
            model.entry(key).or_insert(7);
        } else {
            assert_eq!(t.remove(key), model.remove(&key), "remove({key})");
        }
    }

    /// `range(lo..=hi)` against `model` for every `lo <= hi` on or beside a
    /// frozen key that opens a seam gap, and at both ends of the universe.
    fn assert_ranges_like(
        t: &TieredSkipTrie<u64>,
        model: &std::collections::BTreeMap<u64, u64>,
        context: &str,
    ) {
        let mut bounds = vec![0, u64::MAX];
        for gap in SEAM_GAPS.into_iter().filter(|&g| g > 0) {
            let opens = seam_key(gap - 1);
            bounds.extend([opens - 1, opens, opens + 1]);
        }
        bounds.sort_unstable();
        for (i, &lo) in bounds.iter().enumerate() {
            for &hi in &bounds[i..] {
                let want = model.range(lo..=hi).map(|(&k, &v)| (k, v));
                if !t.range(lo..=hi).eq(want.clone()) {
                    panic!(
                        "range({lo}..={hi}) {context}: {:?}, model {:?}",
                        t.range(lo..=hi).collect::<Vec<_>>(),
                        want.collect::<Vec<_>>()
                    );
                }
            }
        }
        assert_eq!(
            t.range(..).count_up_to(usize::MAX),
            model.len(),
            "{context}"
        );
        t.check_traversal_integrity();
    }

    /// A merge's first phase and nothing after it: the live delta becomes the
    /// sealed one of a triple that stays published.
    fn seal_by_hand(t: &TieredSkipTrie<u64>) {
        let (frozen, sealed) = t.with_tiers(|v, _| (Arc::clone(&v.frozen), Arc::clone(&v.live)));
        t.publish(Tiers {
            frozen,
            live: new_delta(t.config.trie),
            sealed: Some(sealed),
        });
    }

    #[test]
    fn scans_read_like_a_btreemap_across_every_window_seam() {
        // One write in a seam gap — an insert just below the frozen key that
        // closes it, an insert on, an insert just above and a tombstone on the
        // one that opens it — then every range: with the write buffered, with
        // it sealed, with its undoing buffered over the seal, and with both
        // folded. A window that ends one gap early or late, or a delta span
        // one key short, loses or doubles an entry here.
        for gap in SEAM_GAPS {
            let mut writes: Vec<Write> = Vec::new();
            if gap < SEAM_KEYS {
                writes.push((seam_key(gap) - 1, true));
            }
            if gap > 0 {
                let opens = seam_key(gap - 1);
                writes.extend([(opens, true), (opens + 1, true), (opens, false)]);
            }
            for first in writes {
                let undo = (first.0, !first.1);
                let context = format!("{first:?} in gap {gap}");
                let (t, mut model) = seam_tier();
                apply(&t, &mut model, first);
                assert_ranges_like(&t, &model, &format!("with {context} buffered"));
                seal_by_hand(&t);
                assert_ranges_like(&t, &model, &format!("with {context} sealed"));
                apply(&t, &mut model, undo);
                assert_ranges_like(&t, &model, &format!("with {context} sealed and undone"));

                let (t, mut model) = seam_tier();
                apply(&t, &mut model, first);
                apply(&t, &mut model, undo);
                t.merge();
                assert_eq!(dirty_gaps(&t), [0usize; 0], "a fold starts clean");
                assert_ranges_like(
                    &t,
                    &model,
                    &format!("with {context} and its undoing folded"),
                );
            }
        }
    }

    #[test]
    fn a_delta_past_its_heights_range_still_reads_like_a_btreemap() {
        // No watermark, so nothing folds by itself: 2^17 buffered entries, twice
        // what `DELTA_LEVELS` is logarithmic for. Frozen keys are the multiples
        // of 64 below 2^20; one write in 16 tombstones one, the rest insert odd
        // keys scattered over the same span.
        const WRITES: u64 = 1 << 17;
        let mut model: std::collections::BTreeMap<u64, u64> =
            (0..1u64 << 14).map(|j| (64 * j, j)).collect();
        let config = TieredSkipTrieConfig::for_universe_bits(32);
        let t = TieredSkipTrie::from_sorted(config, model.clone());
        let write = |i: u64| match i % 16 {
            0 => (64 * (i / 8), false),
            _ => (i * 0x9E37_79B1 % (1 << 19) * 2 + 1, true),
        };
        for i in 0..WRITES {
            apply(&t, &mut model, write(i));
        }
        assert_eq!(
            t.delta_len() as u64,
            WRITES,
            "one entry a write, none folded"
        );

        let pair = |(&k, &v): (&u64, &u64)| (k, v);
        let sample = || {
            (0..WRITES)
                .step_by(16)
                .flat_map(|i| [write(i).0, write(i + 1).0])
        };
        for key in sample().flat_map(|k| [k.saturating_sub(1), k, k + 1]) {
            assert_eq!(t.get(key), model.get(&key).copied(), "get({key})");
            assert_eq!(
                t.predecessor(key),
                model.range(..=key).next_back().map(pair),
                "predecessor({key})"
            );
            assert_eq!(
                t.successor(key),
                model.range(key..).next().map(pair),
                "successor({key})"
            );
        }
        for lo in [0, 64 * 1000 + 1, (1 << 19) - 1] {
            assert!(
                t.range(lo..=lo + (1 << 16))
                    .eq(model.range(lo..=lo + (1 << 16)).map(pair)),
                "range from {lo}"
            );
        }
        assert!(t.range(..).eq(model.iter().map(pair)), "range(..)");
        t.check_traversal_integrity();

        // A delta `get` stays a descent, not a walk: 32 pointer reads here at
        // 16 levels, 63 at 12, and 156 at 10 or 527 at 8, where the top level
        // this delta leaves is hundreds of nodes long. The counters are
        // process-wide, so the ceiling leaves room for what other tests of
        // this binary add while the 16 384 probes run (a few reads a probe).
        let probes = sample().count();
        let serial = crate::METRICS_SERIAL
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let (found, steps) = metrics::measure(|| sample().filter_map(|k| t.get(k)).count());
        assert_eq!(found, probes / 2, "the inserts, not the tombstones");
        let per_get = steps.get(Counter::PtrRead) / probes as u64;
        assert!(per_get <= 120, "{per_get} pointer reads a delta get");
        drop(serial);

        assert!(t.merge(), "one merge folds it");
        assert_eq!((t.delta_len(), t.frozen_len()), (0, model.len()));
        assert!(t.range(..).eq(model.iter().map(pair)), "range(..), folded");
        t.check_traversal_integrity();
    }

    #[test]
    fn an_unready_summary_sends_every_window_to_the_deltas() {
        // What a fold publishes: every bit clear, `ready` down, beside a live
        // delta whose entries were marked in the previous tier's summary — here
        // in nobody's. Every window of every scan must read the delta all the
        // same; with the flag up and no catch-up scan the same bits hide them all.
        let (t, mut model) = seam_tier();
        t.with_tiers(|v, _| {
            v.frozen.ready.store(false, Ordering::SeqCst);
            for gap in SEAM_GAPS {
                let key = match gap {
                    SEAM_KEYS => seam_key(gap - 1) + 1,
                    _ => seam_key(gap) - 1,
                };
                assert!(v.live.insert(key, Slot::new(PUT_FIRST, Some(9))));
                model.insert(key, 9);
            }
        });
        assert_eq!(dirty_gaps(&t).len(), SEAM_KEYS + 1, "nothing reads clean");
        t.with_tiers(|v, _| assert!(v.frozen.dirty.iter().all(|w| w.load(Ordering::SeqCst) == 0)));
        let pair = |(&k, &v): (&u64, &u64)| (k, v);
        for lo in [0, seam_key(62), seam_key(64) + 1, seam_key(200)] {
            assert!(
                t.range(lo..).eq(model.range(lo..).map(pair)),
                "range({lo}..) under an un-ready summary"
            );
        }
        t.with_tiers(|v, _| v.frozen.ready.store(true, Ordering::SeqCst));
        assert_eq!(
            t.range(..).count(),
            SEAM_KEYS,
            "the canary: trusted, the clear bits hide every unmarked entry"
        );
    }

    #[test]
    fn a_write_dirties_exactly_the_gap_its_key_falls_in() {
        // Gap g spans [f_{g-1}, f_g): 0 = below 10, 1 = [10, 20), 2 = [20, 30), 3 = from 30.
        let t = tiered([10, 20, 30]);
        assert_eq!(dirty_gaps(&t), [0usize; 0]);
        assert!(!t.insert(20, 0) && t.remove(15).is_none());
        assert_eq!(
            dirty_gaps(&t),
            [0usize; 0],
            "a write that changes nothing marks nothing"
        );

        // Below f_0.
        assert!(t.insert(5, 50));
        assert_eq!(dirty_gaps(&t), [0]);
        assert_eq!(t.get(5), Some(50));
        assert_eq!(t.predecessor(7), Some((5, 50)));
        assert_eq!(t.predecessor(4), None);
        assert_eq!(t.successor(0), Some((5, 50)));
        assert_eq!(t.successor(6), Some((10, 11)));
        assert_eq!(
            t.predecessor(15),
            Some((10, 11)),
            "gap 1 is clean beside it"
        );

        // Above f_{n-1}.
        assert!(t.insert(35, 350));
        assert_eq!(dirty_gaps(&t), [0, 3]);
        assert_eq!(t.predecessor(40), Some((35, 350)));
        assert_eq!(t.successor(31), Some((35, 350)));
        assert_eq!(t.successor(36), None);
        assert_eq!(
            t.get(30),
            Some(31),
            "a frozen key in a dirty gap still resolves"
        );

        // A tombstone on f_i lands in the gap f_i opens, and is seen from f_i,
        // from f_{i+1} - 1, and by a successor query coming up from the gap below.
        assert_eq!(t.remove(20), Some(21));
        assert_eq!(dirty_gaps(&t), [0, 2, 3]);
        assert_eq!(t.get(20), None);
        assert_eq!(t.predecessor(20), Some((10, 11)));
        assert_eq!(t.predecessor(29), Some((10, 11)));
        assert_eq!(t.successor(20), Some((30, 31)));
        assert_eq!(
            t.successor(11),
            Some((30, 31)),
            "clean gap 1, tombstoned f_2 above it"
        );
        assert_eq!(t.get(10), Some(11));

        // Empty frozen tier: one gap, the whole universe.
        let empty = tiered([]);
        assert_eq!(
            (empty.get(7), empty.predecessor(7), empty.successor(7)),
            (None, None, None)
        );
        assert!(empty.insert(7, 70));
        assert_eq!(dirty_gaps(&empty), [0]);
        assert_eq!(empty.predecessor(u32::MAX as u64), Some((7, 70)));
        assert_eq!(empty.successor(0), Some((7, 70)));

        // The universe's top key, frozen and as a buffered insert.
        let config = TieredSkipTrieConfig::for_universe_bits(64);
        let top = TieredSkipTrie::from_sorted(config, [(1u64, 1u64), (u64::MAX, 2)]);
        assert_eq!(top.successor(u64::MAX), Some((u64::MAX, 2)));
        assert_eq!(top.successor(2), Some((u64::MAX, 2)));
        assert_eq!(top.remove(u64::MAX), Some(2));
        assert_eq!(dirty_gaps(&top), [2]);
        assert_eq!(top.successor(2), None);
        assert_eq!(top.predecessor(u64::MAX), Some((1, 1)));
        assert!(top.insert(u64::MAX, 3));
        assert_eq!(top.get(u64::MAX), Some(3));
        top.merge();
        assert_eq!(top.predecessor(u64::MAX), Some((u64::MAX, 3)));
    }

    #[test]
    fn a_state_change_acquires_no_node() {
        // A delta entry changes state by a CAS on its slot: removing a buffered
        // put, reviving its tombstone and removing it again allocate and recycle
        // nothing. Lifting the entry out and linking a new one costs a tower
        // per step.
        let t = tiered([10, 20]);
        assert!(t.insert(15, 150));
        let nodes = |t: &TieredSkipTrie<u64>| {
            let (allocated, recycled, _) = t.allocation_stats();
            (allocated, recycled)
        };
        let before = nodes(&t);
        assert_eq!(t.remove(15), Some(150));
        assert!(t.insert(15, 151));
        assert_eq!(t.get(15), Some(151));
        assert_eq!(t.remove(15), Some(151));
        assert_eq!(nodes(&t), before, "a state change acquired a node");
        assert_eq!((t.len(), t.delta_len()), (2, 1));
    }

    #[test]
    fn approx_node_bytes_counts_the_dirty_gap_summary() {
        // 16 bytes per frozen `(u64, u64)` entry, one summary word per 64
        // gaps (n + 1 gaps: 1 word for the empty tier, 3 for 128 keys) and a
        // 4-byte radix entry per slice plus one (2 for the empty tier, 5 for
        // 128 keys in 4 slices).
        let empty = tiered([]).approx_node_bytes();
        assert_eq!(
            tiered(0..128).approx_node_bytes(),
            empty + 128 * 16 + 2 * 8 + 3 * 4
        );
    }

    #[test]
    fn frozen_tier_lower_bound_matches_binary_search() {
        for n in [0usize, 1, 2, 3, 7, 8, 9, 10, 64, 100, 1023] {
            let entries: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 3 + 1, i)).collect();
            let keys: Vec<u64> = entries.iter().map(|&(k, _)| k).collect();
            let tier = FrozenTier::new(entries, true);
            for probe in 0..(n as u64 * 3 + 4) {
                assert_eq!(
                    tier.lower_bound(probe),
                    keys.partition_point(|&k| k < probe),
                    "lower_bound({probe}) over {n} keys"
                );
            }
        }
    }

    /// `n` increasing keys in shapes that fill the radix index's slices
    /// unevenly — clusters, outliers, exponential gaps — and the one shape
    /// that fills them evenly.
    fn key_families(n: usize) -> Vec<(&'static str, Vec<u64>)> {
        let m = n as u64;
        let clusters: Vec<u64> = (32..64)
            .flat_map(|i| (0..m.div_ceil(32)).map(move |j| (1u64 << i) + j))
            .take(n)
            .collect();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut squared = std::collections::BTreeSet::new();
        while squared.len() < n {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            squared.insert((rng >> 32) * (rng >> 32));
        }
        vec![
            ("arithmetic", (0..m).map(|i| i * 3 + 1).collect()),
            ("2^i + j clusters", clusters),
            (
                "dense block + u64::MAX",
                (0..m.saturating_sub(1)).chain([u64::MAX]).take(n).collect(),
            ),
            (
                "a cluster at each end of the universe",
                (0..m / 2)
                    .chain((0..m - m / 2).rev().map(|i| u64::MAX - i))
                    .collect(),
            ),
            (
                "geometric gaps",
                (0..m)
                    .map(|i| i + (63.0 * i as f64 / m as f64).exp2() as u64)
                    .collect(),
            ),
            ("squared-uniform", squared.into_iter().collect()),
        ]
    }

    #[test]
    fn the_radix_index_agrees_with_partition_point() {
        // The index only narrows the window: on any keys the answer is
        // `partition_point`'s over the whole tier and lies inside the window,
        // and the table holds at most one entry per 16 keys plus two.
        for n in [0usize, 1, 9, 64, 1_023, 100_000, 262_144] {
            let mut hashed = std::collections::BTreeSet::new();
            let mut state = n as u64;
            while hashed.len() < n {
                // SplitMix64.
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                hashed.insert(z ^ (z >> 31));
            }
            let families = key_families(n)
                .into_iter()
                .chain([("hashed uniform", hashed.into_iter().collect())]);
            for (family, keys) in families {
                assert_eq!(keys.len(), n, "{family}");
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "{family}");
                let tier = FrozenTier::new(keys.iter().map(|&k| (k, k)).collect(), true);
                assert!(
                    tier.index.len() <= n / 16 + 2,
                    "{family}, n = {n}: {} index entries",
                    tier.index.len()
                );
                let probes = keys
                    .iter()
                    .flat_map(|&k| [k.saturating_sub(1), k, k.saturating_add(1)])
                    .chain([0, u64::MAX]);
                for probe in probes {
                    let expected = keys.partition_point(|&k| k < probe);
                    let at = format!("lower_bound({probe}) over {n} keys, {family}");
                    assert_eq!(tier.lower_bound(probe), expected, "{at}");
                    let gap = expected + usize::from(keys.get(expected) == Some(&probe));
                    assert_eq!(tier.locate(probe).0, gap, "locate: {at}");
                    let (lo, hi) = tier.window(probe);
                    assert!(lo <= expected && expected <= hi, "window {lo}..={hi}: {at}");
                }
            }
        }
    }

    #[test]
    fn a_short_window_is_requested_whole() {
        // The line rule of `request_window`: a window of at most `L` lines
        // has every line requested, a longer one none, and nothing outside
        // the window is. Windows start at four consecutive entries, so at
        // each 16-byte phase of a line, and run from empty to past `L` lines.
        let keys: Vec<(u64, u64)> = (0..50_004).map(|k| (k, k)).collect();
        let line = |at: *const (u64, u64)| at as usize / LINE;
        for start in 0..4 {
            for len in (0..=300).chain([1_000, 50_000]) {
                let window = &keys[start..start + len];
                let first = line(window.as_ptr());
                let lines = window.last().map_or(0, |e| line(e) + 1 - first);
                let mut requested = vec![false; lines];
                request_window(window, |at| {
                    let l = line(at).wrapping_sub(first);
                    assert!(l < lines, "window {start}+{len}: requested outside it");
                    requested[l] = true;
                });
                let whole = lines <= WINDOW_LINES;
                assert!(
                    requested.iter().all(|&r| r == whole),
                    "window {start}+{len} of {lines} lines: requested {requested:?}"
                );
            }
        }
    }

    #[test]
    fn a_fold_that_removes_most_keys_slices_its_index_again() {
        // A folded tier is sliced for the keys it keeps, not for the keys
        // either side held: with most of them tombstoned away its index is
        // as small as a load of the 96 left would make, and the audit checks
        // each entry.
        let t = tiered(0..4_096);
        for k in 0..4_000 {
            assert_eq!(t.remove(k), Some(k + 1));
        }
        assert!(t.merge());
        t.check_traversal_integrity();
        let entries = t.with_tiers(|t, _| t.frozen.index.len());
        assert!(
            entries <= 96 / 32 + 2,
            "{entries} index entries for 96 keys"
        );
        assert_eq!(t.predecessor(u64::MAX >> 32), Some((4_095, 4_096)));
        assert_eq!(t.successor(0), Some((4_000, 4_001)));
    }

    #[test]
    fn the_write_counters_share_no_line_with_the_published_state() {
        assert_eq!(std::mem::align_of::<WriteCounters>(), 64);
        assert_eq!(std::mem::size_of::<WriteCounters>(), 64);
        let line = |offset: usize| offset / 64;
        let writes = line(std::mem::offset_of!(TieredSkipTrie<u64>, writes));
        let state = line(std::mem::offset_of!(TieredSkipTrie<u64>, state));
        let config = std::mem::offset_of!(TieredSkipTrie<u64>, config);
        let domain = line(std::mem::offset_of!(TieredSkipTrie<u64>, domain));
        assert_ne!(writes, state);
        assert_eq!(
            (
                line(config),
                line(config + std::mem::size_of::<TieredSkipTrieConfig>() - 1)
            ),
            (domain, domain),
            "the read-only words share one line"
        );
        assert_ne!(domain, state, "no fold write moves the read-only line");
    }

    #[test]
    fn watermark_arms_merge_due_and_explicit_merge_clears_it() {
        // A standalone tiered trie is passive: the watermark only latches the
        // flag (the coordinator-driven fold is covered at forest level by
        // `coordinator_folds_from_the_watermark_with_no_timer`).
        let config = TieredSkipTrieConfig::for_universe_bits(32).with_merge_watermark(8);
        let t: TieredSkipTrie<u64> = TieredSkipTrie::new(config);
        for k in 0..7u64 {
            t.insert(k, k);
        }
        assert!(!t.merge_due(), "below the watermark");
        assert_eq!(t.delta_writes(), 7);
        t.insert(7, 7);
        assert!(t.merge_due(), "the 8th delta write crosses the watermark");
        assert!(t.merge());
        assert!(!t.merge_due(), "seal re-arms the watermark");
        assert_eq!(t.delta_writes(), 0);
        assert_eq!(t.frozen_len(), 8);
    }

    #[test]
    fn batch_ops_match_point_ops() {
        let t = tiered([10, 20, 30]);
        let inserted = t.insert_batch(&[(5, 50), (10, 99), (25, 250), (35, 350)]);
        assert_eq!(inserted, 3, "10 is already visible in the frozen tier");
        assert_eq!(t.remove_batch(&[5, 20, 7]), 2);
        assert_eq!(
            t.get_batch(&[5, 10, 20, 25, 30, 35]),
            vec![None, Some(11), None, Some(250), Some(31), Some(350)]
        );
        t.merge();
        assert_eq!(
            t.get_batch(&[5, 10, 20, 25, 30, 35]),
            vec![None, Some(11), None, Some(250), Some(31), Some(350)],
            "batch reads agree across the fold"
        );
    }

    #[test]
    fn pop_last_drains_in_reverse_order() {
        let t = tiered([3, 5, 9]);
        t.insert(1, 42);
        assert_eq!(t.pop_last(), Some((9, 10)));
        assert_eq!(t.pop_last(), Some((5, 6)));
        assert_eq!(t.pop_last(), Some((3, 4)));
        assert_eq!(t.pop_last(), Some((1, 42)));
        assert_eq!(t.pop_last(), None);
    }

    #[test]
    fn bulk_load_builds_the_frozen_tier() {
        let mut t: TieredSkipTrie<u64> =
            TieredSkipTrie::new(TieredSkipTrieConfig::for_universe_bits(32));
        let entries: Vec<(u64, u64)> = (0..100u64).map(|k| (k * 7, k)).collect();
        assert_eq!(t.bulk_load(&entries), 100);
        assert_eq!(t.frozen_len(), 100);
        assert_eq!(t.len(), 100);
        assert_eq!(t.get(14), Some(2));
        assert_eq!(t.check_traversal_integrity(), 100);
    }

    #[test]
    fn reads_merge_frozen_and_delta() {
        let t = tiered([10, 20, 30]);
        assert_eq!(t.get(20), Some(21));
        assert_eq!(t.predecessor(25), Some((20, 21)));
        assert_eq!(t.successor(25), Some((30, 31)));

        // Delta insert shadows nothing, extends the view.
        assert!(t.insert(25, 99));
        assert!(!t.insert(25, 100), "insert-if-absent");
        assert!(!t.insert(20, 7), "frozen keys are visible to insert");
        assert_eq!(t.predecessor(26), Some((25, 99)));

        // Tombstone hides a frozen key from every read form.
        assert_eq!(t.remove(20), Some(21));
        assert_eq!(t.remove(20), None, "already dead");
        assert_eq!(t.get(20), None);
        assert_eq!(t.predecessor(22), Some((10, 11)));
        assert_eq!(t.successor(11), Some((25, 99)));
        assert_eq!(
            t.range(..).collect::<Vec<_>>(),
            vec![(10, 11), (25, 99), (30, 31)]
        );
        assert_eq!(t.len(), 3);

        // Revive the dead key through the tombstone.
        assert!(t.insert(20, 5));
        assert_eq!(t.get(20), Some(5));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn merge_folds_delta_and_restores_fast_path() {
        let t = tiered(0..100);
        for k in 0..50u64 {
            t.remove(k * 2);
        }
        assert!(t.insert(1000, 7));
        assert_eq!(t.delta_len(), 51, "50 tombstones + 1 insert buffered");

        assert!(t.merge());
        assert!(!t.merge(), "empty delta folds are skipped");
        assert_eq!(t.delta_len(), 0);
        assert_eq!(t.frozen_len(), 51, "odd keys plus the new insert");
        assert_eq!(t.generation(), 2, "seal swap + publish swap");

        let snap = t.snapshot();
        assert_eq!(snap.len(), 51);
        assert!(snap.iter().all(|&(k, _)| k == 1000 || k % 2 == 1));
        assert_eq!(t.get(4), None, "tombstoned keys stay dead across the fold");
        assert_eq!(t.predecessor(4), Some((3, 4)));
        assert_eq!(t.len(), 51);
    }

    #[test]
    fn range_limits_and_bounds() {
        let t = tiered((0..100).map(|k| k * 10));
        t.remove(500);
        t.insert(505, 1);
        let window: Vec<u64> = t.range(490..=510).map(|(k, _)| k).collect();
        assert_eq!(window, vec![490, 505, 510]);
        assert_eq!(t.range(..).count(), 100);
        assert_eq!(t.range(200..200).count(), 0);
        let mut iter = t.range(..);
        assert_eq!(iter.count_up_to(7), 7);
    }

    #[test]
    fn pop_first_drains_in_order() {
        let t = tiered(
            [5, 3, 9]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>(),
        );
        t.insert(1, 42);
        assert_eq!(t.pop_first(), Some((1, 42)));
        assert_eq!(t.pop_first(), Some((3, 4)));
        assert_eq!(t.pop_first(), Some((5, 6)));
        assert_eq!(t.pop_first(), Some((9, 10)));
        assert_eq!(t.pop_first(), None);
        assert!(t.is_empty());
    }
}
