//! A software DCSS (double-compare-single-swap) built from single-word CAS.
//!
//! `DCSS(X, old_X, new_X, Y, old_Y)` atomically sets `X := new_X` iff `X == old_X`
//! and `Y == old_Y`. The SkipTrie uses it to avoid swinging list and trie pointers to
//! nodes that have already started being deleted (paper, Section 1: "we condition the
//! DCSS on the target of the pointer being unmarked, so that we can rest assured that
//! once a node has been marked and physically deleted, it will never become reachable
//! again").
//!
//! # Protocol
//!
//! The implementation follows the RDCSS recipe of Harris et al., adapted to tagged
//! `u64` words:
//!
//! 1. The owner allocates a descriptor recording `(expected, new, guard,
//!    expected_guard)` and installs a pointer to it into the target word with a CAS
//!    from `expected`; the pointer is distinguished from real values by
//!    [`DESC_BIT`](crate::tagged::DESC_BIT).
//! 2. Any thread that reads a descriptor-tagged word *helps*: it reads the guard word,
//!    proposes a verdict by CAS-ing the descriptor's `outcome` from `Undecided`, and
//!    then replaces the descriptor in the target word with `new` (success) or
//!    `expected` (failure). Because the verdict is agreed through the single `outcome`
//!    word, helpers can never disagree about whether the DCSS took effect.
//! 3. Readers use [`read_resolved`] so that a word never *appears* to hold a
//!    descriptor; writers CAS against resolved values, and a CAS that races with an
//!    installed descriptor simply fails and retries after helping.
//!
//! The linearization point of a successful DCSS is the (agreed) read of the guard word
//! while the descriptor is installed: at that instant the target logically holds
//! `expected` and the guard holds `expected_guard`.
//!
//! # Guard-word lifetime and the node pool
//!
//! A helper may dereference the descriptor's guard pointer *after* the owning
//! operation has returned (it loses the race to propose a verdict and merely observes
//! the decided outcome, but the dereference still happens). The guard word must
//! therefore live in **type-stable memory**: memory that is never returned to the
//! allocator while the data structure is alive. In this workspace every guard word is
//! the packed [`status`](#status-words) word of a skiplist node, and skiplist nodes
//! are recycled through a per-structure pool rather than freed (see
//! `skiptrie-skiplist::pool`), which also means a recycled node's bumped sequence
//! number makes any stale guard comparison fail. This is why [`dcss`] is an `unsafe
//! fn`: the caller promises the guard pointer stays dereferenceable.
//!
//! # Status words
//!
//! All guards in this workspace are *status words*: `bit 0` = STOP (deletion of the
//! node has begun — set before any physical removal), `bits 63..1` = incarnation
//! sequence number (bumped every time the node's memory is recycled). Packing both
//! into one word lets a single atomic load answer "is this still the same node, and
//! has its deletion begun?", which is exactly the paper's "conditioned on the node
//! remaining unmarked" guard, strengthened from *marked* to *stop-flagged* (stop is
//! set earlier in the deletion, so the guard is strictly more conservative; the paper
//! proves the structure remains linearizable even if the guard is dropped entirely).
//!
//! # CAS fallback
//!
//! [`DcssMode::CasOnly`] drops the guard and performs a plain CAS, as the paper
//! explicitly allows ("after attempting the DCSS some fixed number of times and
//! aborting, it is permissible to fall back to CAS"). The structures remain
//! linearizable and memory-safe (the node pool keeps every dereference valid); the
//! difference is measured by the `sweep` experiment's `skiptrie-cas` rows.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crossbeam_epoch::Guard;
use skiptrie_metrics::{self as metrics, Counter};

use crate::tagged;

/// How conditional pointer swings are performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DcssMode {
    /// Full software DCSS via descriptors (the paper's default).
    #[default]
    Descriptor,
    /// Plain CAS, dropping the second comparison (the paper's sanctioned fallback).
    CasOnly,
}

/// Why a [`dcss`] call did not take effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DcssError {
    /// The target word did not hold the expected value; the actual (resolved) value is
    /// returned so callers can decide whether to retry.
    TargetMismatch(u64),
    /// The target matched but the guard word did not.
    GuardMismatch,
}

const UNDECIDED: u8 = 0;
const SUCCEEDED: u8 = 1;
const FAILED: u8 = 2;

/// The shared state of an in-flight DCSS.
///
/// Allocated by the owner, published by tagging its address with
/// [`DESC_BIT`](crate::tagged::DESC_BIT) in the target word, retired through the
/// epoch collector once uninstalled.
struct Descriptor {
    expected: u64,
    new: u64,
    guard: *const AtomicU64,
    expected_guard: u64,
    outcome: AtomicU8,
}

// SAFETY: the raw guard pointer is only dereferenced under the type-stable-memory
// contract documented on `dcss`; the descriptor itself is plain data otherwise.
unsafe impl Send for Descriptor {}
unsafe impl Sync for Descriptor {}

/// Completes (helps) the descriptor currently installed in `target` as `desc_word`.
///
/// # Safety
///
/// `desc_word` must be a descriptor-tagged value read from `target` while the calling
/// thread was pinned (`_epoch` witnesses that), and the descriptor's guard pointer
/// must satisfy the type-stable-memory contract of [`dcss`].
unsafe fn help(target: &AtomicU64, desc_word: u64, _epoch: &Guard) {
    debug_assert!(tagged::is_descriptor(desc_word));
    let desc = &*(tagged::unpack::<Descriptor>(desc_word));
    if desc.outcome.load(Ordering::Acquire) == UNDECIDED {
        // Read the guard and propose a verdict. Multiple helpers may propose
        // different verdicts; the CAS below makes the first proposal win, so every
        // thread then acts on the same agreed outcome.
        let guard_value = (*desc.guard).load(Ordering::SeqCst);
        let proposal = if guard_value == desc.expected_guard {
            SUCCEEDED
        } else {
            FAILED
        };
        let _ =
            desc.outcome
                .compare_exchange(UNDECIDED, proposal, Ordering::AcqRel, Ordering::Acquire);
    }
    let decided = desc.outcome.load(Ordering::Acquire);
    debug_assert_ne!(decided, UNDECIDED);
    let replacement = if decided == SUCCEEDED {
        desc.new
    } else {
        desc.expected
    };
    // Whoever wins this CAS uninstalls the descriptor; losers see it already gone.
    let _ = target.compare_exchange(desc_word, replacement, Ordering::AcqRel, Ordering::Acquire);
}

/// Loads a DCSS-target word, helping any in-flight descriptor first, so the returned
/// value is always a plain (possibly marked) pointer word, never a descriptor.
///
/// Every read of a word that can be a DCSS target (skiplist `next` words above level
/// 0, `prev` words, x-fast-trie child pointers) must go through this function;
/// otherwise the atomicity argument for DCSS breaks.
#[inline]
pub fn read_resolved(word: &AtomicU64, epoch: &Guard) -> u64 {
    // `Guard::protected` is the substrate choke point: under EBR it is the bare
    // load; under the hazard substrate the load is era-validated, which is what
    // makes the descriptor (and node) dereferences below scan-safe.
    let mut current = epoch.protected(|| word.load(Ordering::SeqCst));
    while tagged::is_descriptor(current) {
        metrics::record(Counter::DcssHelp);
        // SAFETY: `current` was read from `word` under the guard's protection;
        // descriptors are only retired after being uninstalled, so the dereference
        // inside `help` is valid, and guard words satisfy the crate-level
        // type-stable contract.
        unsafe { help(word, current, epoch) };
        current = epoch.protected(|| word.load(Ordering::SeqCst));
    }
    current
}

/// Performs `target: expected -> new` conditioned on `*guard == expected_guard`.
///
/// Returns `Ok(())` if the swap took effect, [`DcssError::TargetMismatch`] if the
/// target held a different (resolved) value, and [`DcssError::GuardMismatch`] if the
/// guard comparison failed while the target matched.
///
/// In [`DcssMode::CasOnly`] the guard is checked once, non-atomically, before a plain
/// CAS (the paper's fallback); in [`DcssMode::Descriptor`] the full helping protocol
/// described in the module documentation runs.
///
/// # Safety
///
/// * `guard` must point to an `AtomicU64` that remains valid (allocated, properly
///   aligned, not repurposed as a different type) for as long as any thread may still
///   hold a reference to this call's descriptor — in practice, for the lifetime of the
///   enclosing data structure. The node pool used by `skiptrie-skiplist` provides
///   this.
/// * `expected` and `new` must not carry [`DESC_BIT`](crate::tagged::DESC_BIT).
/// * The calling thread must stay pinned (`epoch`) for the duration of the call.
pub unsafe fn dcss(
    target: &AtomicU64,
    expected: u64,
    new: u64,
    guard: *const AtomicU64,
    expected_guard: u64,
    mode: DcssMode,
    epoch: &Guard,
) -> Result<(), DcssError> {
    debug_assert!(!tagged::is_descriptor(expected));
    debug_assert!(!tagged::is_descriptor(new));
    metrics::record(Counter::DcssAttempt);

    if mode == DcssMode::CasOnly {
        // Paper fallback: check the guard once, then plain CAS. Not atomic, but the
        // enclosing structures remain linearizable (see paper §4.2) and memory-safe.
        if (*guard).load(Ordering::SeqCst) != expected_guard {
            metrics::record(Counter::DcssFailure);
            return Err(DcssError::GuardMismatch);
        }
        metrics::record(Counter::CasAttempt);
        return match target.compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => Ok(()),
            Err(_) => {
                metrics::record(Counter::CasFailure);
                metrics::record(Counter::DcssFailure);
                let resolved = read_resolved(target, epoch);
                Err(DcssError::TargetMismatch(resolved))
            }
        };
    }

    // Birth era for the descriptor (meaningful only under the hazard substrate):
    // stamped before publication, so it cannot postdate reachability.
    let birth = epoch.current_era();
    let desc = Box::into_raw(Box::new(Descriptor {
        expected,
        new,
        guard,
        expected_guard,
        outcome: AtomicU8::new(UNDECIDED),
    }));
    let desc_word = tagged::pack_descriptor(desc);

    loop {
        match target.compare_exchange(expected, desc_word, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => {
                // Installed: decide and uninstall (possibly with help).
                help(target, desc_word, epoch);
                let decided = (*desc).outcome.load(Ordering::Acquire);
                // Other threads may still hold the descriptor pointer; retire it.
                crate::retire_box_born(epoch, desc, birth);
                return if decided == SUCCEEDED {
                    Ok(())
                } else {
                    metrics::record(Counter::DcssFailure);
                    Err(DcssError::GuardMismatch)
                };
            }
            Err(actual) if tagged::is_descriptor(actual) => {
                // Someone else's DCSS is in flight on this word: resolve it under
                // the guard's protection and retry. (The CAS-failure value itself
                // was not a protected read, so it must not be dereferenced —
                // `read_resolved` re-reads the word through the substrate choke
                // point and helps whatever descriptor it validates.)
                let _ = read_resolved(target, epoch);
            }
            Err(actual) => {
                // Genuine value mismatch. The descriptor was never published, so it
                // can be freed immediately.
                drop(Box::from_raw(desc));
                metrics::record(Counter::DcssFailure);
                return Err(DcssError::TargetMismatch(actual));
            }
        }
    }
}

/// A plain CAS on a DCSS-target word that first resolves any in-flight descriptor.
///
/// Returns `Ok(())` on success and `Err(resolved_actual)` on failure. Used for
/// unconditional swings (e.g. physically unlinking a marked node) so that they compose
/// correctly with concurrent DCSS operations on the same word.
pub fn cas_resolved(target: &AtomicU64, expected: u64, new: u64, epoch: &Guard) -> Result<(), u64> {
    metrics::record(Counter::CasAttempt);
    match target.compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst) {
        Ok(_) => Ok(()),
        Err(_) => {
            metrics::record(Counter::CasFailure);
            Err(read_resolved(target, epoch))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pin;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn dcss_succeeds_when_both_match() {
        let target = AtomicU64::new(8);
        let guard_word = AtomicU64::new(40);
        let g = pin();
        let r = unsafe { dcss(&target, 8, 16, &guard_word, 40, DcssMode::Descriptor, &g) };
        assert_eq!(r, Ok(()));
        assert_eq!(read_resolved(&target, &g), 16);
    }

    #[test]
    fn dcss_fails_on_guard_mismatch_and_restores_target() {
        let target = AtomicU64::new(8);
        let guard_word = AtomicU64::new(41);
        let g = pin();
        let r = unsafe { dcss(&target, 8, 16, &guard_word, 40, DcssMode::Descriptor, &g) };
        assert_eq!(r, Err(DcssError::GuardMismatch));
        assert_eq!(read_resolved(&target, &g), 8);
    }

    #[test]
    fn dcss_fails_on_target_mismatch() {
        let target = AtomicU64::new(12);
        let guard_word = AtomicU64::new(40);
        let g = pin();
        let r = unsafe { dcss(&target, 8, 16, &guard_word, 40, DcssMode::Descriptor, &g) };
        assert_eq!(r, Err(DcssError::TargetMismatch(12)));
        assert_eq!(read_resolved(&target, &g), 12);
    }

    #[test]
    fn cas_only_mode_behaves_like_guarded_cas() {
        let target = AtomicU64::new(8);
        let guard_word = AtomicU64::new(40);
        let g = pin();
        let ok = unsafe { dcss(&target, 8, 16, &guard_word, 40, DcssMode::CasOnly, &g) };
        assert_eq!(ok, Ok(()));
        let guard_fail = unsafe { dcss(&target, 16, 24, &guard_word, 99, DcssMode::CasOnly, &g) };
        assert_eq!(guard_fail, Err(DcssError::GuardMismatch));
        let target_fail = unsafe { dcss(&target, 96, 24, &guard_word, 40, DcssMode::CasOnly, &g) };
        assert!(matches!(target_fail, Err(DcssError::TargetMismatch(16))));
    }

    #[test]
    fn read_resolved_returns_plain_values() {
        let target = AtomicU64::new(1234 & !crate::tagged::TAG_MASK);
        let g = pin();
        assert_eq!(read_resolved(&target, &g), 1234 & !crate::tagged::TAG_MASK);
    }

    #[test]
    fn cas_resolved_reports_actual_value() {
        let target = AtomicU64::new(8);
        let g = pin();
        assert_eq!(cas_resolved(&target, 8, 16, &g), Ok(()));
        assert_eq!(cas_resolved(&target, 8, 24, &g), Err(16));
    }

    /// Concurrent stress: many threads perform guarded increments on a shared counter
    /// word; the guard word is flipped to "closed" at a known value, after which no
    /// further increments may take effect. This checks both atomicity of the guard and
    /// agreement among helpers.
    #[test]
    fn concurrent_guarded_updates_respect_the_guard() {
        const THREADS: usize = 8;
        const ATTEMPTS: usize = 2000;
        const CLOSE_AT: u64 = 512;

        // Values are shifted left so they never collide with tag bits.
        let target = Arc::new(AtomicU64::new(0));
        let guard_word = Arc::new(AtomicU64::new(0)); // 0 = open, 1 = closed

        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let target = Arc::clone(&target);
                let guard_word = Arc::clone(&guard_word);
                std::thread::spawn(move || {
                    let mut applied = 0u64;
                    for _ in 0..ATTEMPTS {
                        let g = pin();
                        let cur = read_resolved(&target, &g);
                        let next = cur + 4; // keep tag bits clear
                        let res = unsafe {
                            dcss(
                                &target,
                                cur,
                                next,
                                &*guard_word as *const _,
                                0,
                                DcssMode::Descriptor,
                                &g,
                            )
                        };
                        if res.is_ok() {
                            applied += 1;
                            if next / 4 >= CLOSE_AT {
                                guard_word.store(1, std::sync::atomic::Ordering::SeqCst);
                            }
                        }
                    }
                    applied
                })
            })
            .collect();

        let total_applied: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let g = pin();
        let final_value = read_resolved(&target, &g) / 4;
        assert_eq!(
            final_value, total_applied,
            "every successful DCSS must contribute exactly one increment"
        );
        // The guard closes at CLOSE_AT; a few in-flight operations may have linearized
        // before the close, but the counter can never run far past it.
        assert!(final_value >= CLOSE_AT);
        assert!(
            final_value <= CLOSE_AT + THREADS as u64,
            "increments continued after the guard closed: {final_value}"
        );
    }

    /// Concurrent stress for CAS-only mode: the fallback must still never lose updates
    /// that it reports as successful.
    #[test]
    fn concurrent_cas_only_updates_are_not_lost() {
        const THREADS: usize = 8;
        const ATTEMPTS: usize = 2000;
        let target = Arc::new(AtomicU64::new(0));
        let guard_word = Arc::new(AtomicU64::new(0));

        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let target = Arc::clone(&target);
                let guard_word = Arc::clone(&guard_word);
                std::thread::spawn(move || {
                    let mut applied = 0u64;
                    for _ in 0..ATTEMPTS {
                        let g = pin();
                        let cur = read_resolved(&target, &g);
                        let res = unsafe {
                            dcss(
                                &target,
                                cur,
                                cur + 4,
                                &*guard_word as *const _,
                                0,
                                DcssMode::CasOnly,
                                &g,
                            )
                        };
                        if res.is_ok() {
                            applied += 1;
                        }
                    }
                    applied
                })
            })
            .collect();

        let total_applied: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let g = pin();
        assert_eq!(read_resolved(&target, &g) / 4, total_applied);
    }
}
