//! Stress test for the x-fast trie's publish-then-recheck rule: a prefix entry
//! created for a top-level node that a concurrent remover stops mid-publish must
//! not outlive the node.
//!
//! `insert_prefixes` checks the node's status *before* it creates a missing trie
//! node; a remover that stops the node after that check, and whose top-down
//! cleanup has already passed this prefix length, would otherwise leave an entry
//! nobody ever clears. The churn below keeps all threads on the same two adjacent
//! keys at a time (so a remover of the key being published is always near) and
//! moves to a fresh pair every few dozen operations (so every publish creates
//! its deepest trie nodes afresh — the racy arm — and a leaked entry is not
//! repaired by a later publish of the same key). Oversubscribing the cores
//! supplies the preemptions that stretch the window.

use std::sync::atomic::{AtomicU64, Ordering};

use skiptrie::{SkipTrie, SkipTrieConfig};

const THREADS: u64 = 4;
const TOTAL_OPS: u64 = 600_000;
/// Operations (across all threads) spent on one key pair before moving on.
const OPS_PER_PAIR: u64 = 48;

#[test]
fn prefixes_of_a_node_stopped_mid_publish_do_not_leak() {
    let trie: SkipTrie<u64> = SkipTrie::new(SkipTrieConfig::for_universe_bits(32));
    let ticket = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (trie, ticket) = (&trie, &ticket);
            scope.spawn(move || {
                // xorshift64*: every thread draws its own coin flips.
                let mut state = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                loop {
                    let n = ticket.fetch_add(1, Ordering::Relaxed);
                    if n >= TOTAL_OPS {
                        break;
                    }
                    state ^= state >> 12;
                    state ^= state << 25;
                    state ^= state >> 27;
                    let coin = state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32;
                    let key = (n / OPS_PER_PAIR) * 2 + (coin & 1);
                    if coin & 2 == 0 {
                        trie.insert(key, key);
                    } else {
                        trie.remove(key);
                    }
                }
            });
        }
    });
    for key in trie.keys() {
        assert_eq!(trie.remove(key), Some(key));
    }
    assert!(trie.is_empty());
    assert_eq!(
        trie.prefix_count(),
        1,
        "a prefix outlived the drain (only ε is permanent)"
    );
    trie.check_trie_integrity();
}
