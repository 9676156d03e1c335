//! Regression test: queries for a *present top-level* key must not restart from
//! the head sentinel.
//!
//! The x-fast walk (`walk_to_le`, Algorithm 4) legitimately stops at a node with
//! key `<= x` — for a key that is itself linked on the top level, that is the
//! key's own node. `list_search` needs a start with key strictly `< x`, and its
//! hint validation used to reject the exact-match hint by falling all the way
//! back to the head sentinel, turning every present-top-level-key `get` /
//! `predecessor` into an O(n) top-level walk. The fix retreats one `prev` guide
//! instead, so this test pins the per-query pointer-read cost to a small
//! constant.
//!
//! The assertion is an *upper bound* on a process-wide counter delta, which is
//! only sound while nothing else records — keep this test alone in its binary.

use skiptrie::{SkipTrie, SkipTrieConfig};
use skiptrie_metrics::{self as metrics, Counter};

#[test]
fn present_top_level_key_queries_stay_cheap() {
    let n: u64 = 1 << 12;
    let trie: SkipTrie<u64> = SkipTrie::new(SkipTrieConfig::for_universe_bits(32).with_seed(7));
    for i in 0..n {
        // Spread the keys across the universe so their published prefixes differ.
        let k = i * 1_000_003;
        trie.insert(k, !k);
    }

    let tops = trie.top_level_keys();
    assert!(
        tops.len() >= 32,
        "need a populated top level to exercise exact-match hints (got {})",
        tops.len()
    );

    let ops = tops.len() * 2;
    let ((), d) = metrics::measure(|| {
        for &k in &tops {
            assert_eq!(trie.predecessor(k), Some((k, !k)));
            assert_eq!(trie.get(k), Some(!k));
        }
    });
    let per_op = d.get(Counter::PtrRead) as f64 / ops as f64;
    // Post-fix a query costs a handful of reads per skiplist level (~15/op here);
    // the pre-fix head restart walked half the top level (~100+/op at this size,
    // linear in n). The bound is loose enough for tower-height randomness yet far
    // below the broken regime.
    assert!(
        per_op < 40.0,
        "present-top-level-key queries average {per_op:.1} pointer reads/op — \
         the exact-match hint is being rejected back to the head sentinel"
    );
}
