//! Atomic building blocks for the SkipTrie reproduction: tagged pointer words and a
//! software DCSS (double-compare-single-swap) built from single-word CAS.
//!
//! The SkipTrie paper assumes two primitives:
//!
//! * single-word **CAS**, and
//! * **DCSS** — `DCSS(X, old_X, new_X, Y, old_Y)` sets `X := new_X` if and only if
//!   `X == old_X` *and* `Y == old_Y`, atomically.
//!
//! DCSS is not a portable hardware primitive, so — exactly as the paper anticipates
//! ("after attempting the DCSS some fixed number of times … it is permissible to fall
//! back to CAS") — we provide a software implementation derived from Harris et al.'s
//! RDCSS: the target word temporarily holds a pointer to a *descriptor* (distinguished
//! by a tag bit), any thread that encounters a descriptor helps complete it, and the
//! outcome is agreed through a per-descriptor status word so helpers can never
//! disagree.
//!
//! All link words in the data structures are represented as [`u64`]s holding a pointer
//! plus low tag bits (see [`tagged`]); this crate also re-exports the epoch-based
//! reclamation [`crossbeam_epoch::Guard`] used throughout, and a helper to
//! retire heap allocations through it. [`wake`] holds the one sleep/wake
//! primitive every background thread in the workspace blocks on, and [`slab`] the
//! one type-stable slab allocator (with its 2-MiB arenas) that the skiplist's
//! nodes and the split-ordered map's entries are carved from. [`prefetch`] is
//! the one cache-line request, shared by the skiplist's descent and the tiered
//! frozen read.
//!
//! # Examples
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use skiptrie_atomics::dcss::{dcss, DcssMode, DcssError};
//!
//! let target = AtomicU64::new(8);
//! let guard_word = AtomicU64::new(0);
//! let epoch_guard = skiptrie_atomics::pin();
//!
//! // Succeeds: target == 8 and guard_word == 0.
//! // SAFETY: `guard_word` outlives every use of the descriptor (it lives on this
//! // stack frame and no other thread can reach it).
//! unsafe {
//!     dcss(&target, 8, 16, &guard_word, 0, DcssMode::Descriptor, &epoch_guard).unwrap();
//! }
//! assert_eq!(target.load(Ordering::SeqCst), 16);
//!
//! // Fails: the guard no longer matches.
//! guard_word.store(1, Ordering::SeqCst);
//! let err = unsafe { dcss(&target, 16, 24, &guard_word, 0, DcssMode::Descriptor, &epoch_guard) };
//! assert_eq!(err, Err(DcssError::GuardMismatch));
//! assert_eq!(target.load(Ordering::SeqCst), 16);
//! ```

#![warn(missing_docs)]

pub mod dcss;
pub mod slab;
pub mod tagged;
pub mod wake;

pub use crossbeam_epoch::{domain_stats, pin, pin_domain, GarbageStats, Guard, Reclaimer};

/// Retires a heap allocation created with [`Box::into_raw`], freeing it once no epoch
/// guard pinned before this call can still reach it.
///
/// # Safety
///
/// * `ptr` must have been produced by `Box::into_raw(Box::new(_))` for the same `T`.
/// * `ptr` must not be retired more than once.
/// * After this call no *new* reference to `ptr` may be created from shared memory;
///   callers must guarantee the allocation is unreachable from the live structure
///   (threads that obtained the pointer while pinned before the call may keep using it
///   until they unpin).
pub unsafe fn retire_box<T: Send + 'static>(guard: &Guard, ptr: *mut T) {
    debug_assert!(!ptr.is_null(), "attempted to retire a null pointer");
    skiptrie_metrics::record(skiptrie_metrics::Counter::NodeRetired);
    guard.defer_unchecked(move || {
        drop(Box::from_raw(ptr));
    });
}

/// Asks for the cache line holding `at` in every cache level (T0) and returns
/// without waiting for it: the workspace's one prefetch. A hint only — it reads
/// nothing into the program, so `at` may be dangling, null or unaligned — and a
/// no-op on targets other than x86-64.
#[inline(always)]
pub fn prefetch<T>(at: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch neither faults nor writes: whatever the address, it
    // changes no memory and no program state, only what the caches hold.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(at.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = at;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct DropCounter(Arc<AtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn retire_box_eventually_drops() {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let guard = pin();
            let ptr = Box::into_raw(Box::new(DropCounter(Arc::clone(&drops))));
            unsafe { retire_box(&guard, ptr) };
        }
        // Force the collector to run by pinning/unpinning repeatedly.
        for _ in 0..1024 {
            let g = pin();
            g.flush();
        }
        // The deferred destruction must run at most once (and usually has by now).
        assert!(drops.load(Ordering::SeqCst) <= 1);
    }
}
