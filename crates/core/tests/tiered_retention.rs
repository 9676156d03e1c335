//! What outlives a read on the tiered path: nothing.
//!
//! A read borrows the published tiers under a pin of the structure's epoch
//! domain and keeps no copy afterwards, so a superseded frozen tier is bounded
//! by the epoch — not by how many threads once read it, nor by whether those
//! threads are idle, gone, or still around. Each test counts the values of the
//! frozen tier it supersedes (drop-counting `Arc`s) and flushes a domain of
//! its own until they are all freed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use skiptrie::{SkipTrieConfig, TieredSkipTrie, TieredSkipTrieConfig};
use skiptrie_atomics::pin_domain;

const KEYS: u64 = 1_000;

/// A value whose drop is observable: `live` counts the tokens still allocated.
struct Token {
    live: Arc<AtomicUsize>,
}

impl Drop for Token {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A tiered trie in `domain` whose frozen tier holds `KEYS` counted tokens.
fn frozen_tokens(domain: usize, live: &Arc<AtomicUsize>) -> TieredSkipTrie<Arc<Token>> {
    let config = TieredSkipTrieConfig::for_universe_bits(32)
        .with_trie(SkipTrieConfig::for_universe_bits(32).with_domain(domain));
    let tiered = TieredSkipTrie::from_sorted(
        config,
        (0..KEYS).map(|k| {
            live.fetch_add(1, Ordering::SeqCst);
            let live = Arc::clone(live);
            (k, Arc::new(Token { live }))
        }),
    );
    assert_eq!(live.load(Ordering::SeqCst), KEYS as usize);
    tiered
}

/// Removes every key and folds: the frozen tier built by [`frozen_tokens`] is
/// now superseded by an empty one and only retired triples still point at it.
fn supersede(tiered: &TieredSkipTrie<Arc<Token>>) {
    for k in 0..KEYS {
        assert!(tiered.remove(k).is_some());
    }
    assert!(tiered.merge());
    assert_eq!((tiered.len(), tiered.frozen_len()), (0, 0));
}

/// Flushes `domain` until no token is alive or ten seconds pass; returns how
/// many are left.
fn drain(domain: usize, live: &AtomicUsize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(10);
    while live.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        pin_domain(domain).flush();
        std::thread::yield_now();
    }
    live.load(Ordering::SeqCst)
}

#[test]
fn an_idle_reader_keeps_no_superseded_tier_alive() {
    const DOMAIN: usize = 29;
    let live = Arc::new(AtomicUsize::new(0));
    let tiered = frozen_tokens(DOMAIN, &live);
    let (has_read, reader_has_read) = mpsc::channel();
    let (release, released) = mpsc::channel::<()>();
    let tiered = &tiered;
    let leftover = std::thread::scope(|s| {
        s.spawn(move || {
            assert!(tiered.get(7).is_some());
            has_read.send(()).unwrap();
            // Idle, not exited: whatever the read left behind in this thread
            // is still there while the main thread folds and drains.
            let _ = released.recv();
        });
        reader_has_read.recv().unwrap();
        supersede(tiered);
        let leftover = drain(DOMAIN, &live);
        drop(release);
        leftover
    });
    assert_eq!(
        leftover, 0,
        "values of the superseded frozen tier still alive behind an idle reader"
    );
}

#[test]
fn a_reader_may_exit_before_the_merge_and_the_drop() {
    const DOMAIN: usize = 30;
    let live = Arc::new(AtomicUsize::new(0));
    let tiered = Arc::new(frozen_tokens(DOMAIN, &live));
    let reader = {
        let tiered = Arc::clone(&tiered);
        std::thread::spawn(move || {
            assert!(tiered.get(7).is_some());
            assert_eq!(tiered.predecessor(KEYS).map(|(k, _)| k), Some(KEYS - 1));
            assert_eq!(tiered.range(..).count(), KEYS as usize);
        })
    };
    // `join` returns after the thread's TLS destructors have run.
    reader.join().unwrap();
    supersede(&tiered);
    drop(Arc::into_inner(tiered).expect("the reader's handle is gone"));
    assert_eq!(drain(DOMAIN, &live), 0, "tokens leaked past the drop");
}
