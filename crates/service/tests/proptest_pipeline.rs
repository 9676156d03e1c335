//! Property-based observational equivalence: an arbitrary interleaved request
//! script pushed through the serving pipeline (polling workers, a worker
//! perhaps serving several shards, bounded mailboxes) returns exactly the
//! replies that direct calls on a plain forest return, and leaves the same
//! final contents.
//!
//! The script is built from chunks whose internal reorderings are all
//! equivalence-preserving, so any pipeline schedule must reproduce sequential
//! semantics:
//!
//! * **write chunks** hold point verbs only — per-key order is preserved by
//!   per-lane FIFO (all ops on a key share a lane), and point replies depend
//!   only on their own key's history;
//! * **read chunks** hold ordered/range verbs only — read-only verbs commute
//!   with each other, and `wait_idle` between chunks fences them against all
//!   earlier writes;
//! * **fenced verbs** (pops, caller-supplied batches) self-fence inside
//!   `submit`.
//!
//! The subject runs over a `TieredForest` with a tiny merge watermark, so
//! background folds fire mid-script; the mirror is a plain `ShardedSkipTrie`
//! driven synchronously.

use proptest::prelude::*;
use skiptrie::{OrderedKv, ShardedSkipTrie, ShardedSkipTrieConfig, TieredForest};
use skiptrie_service::{Connection, Reply, Request, Service, ServiceConfig, Verb};

const BITS: u32 = 10;
const CLAMP: u64 = (1 << BITS) - 1;

#[derive(Debug, Clone)]
enum Chunk {
    Writes(Vec<Verb>),
    Reads(Vec<Verb>),
    Fenced(Verb),
}

fn key() -> impl Strategy<Value = u64> {
    any::<u64>().prop_map(|k| k & CLAMP)
}

fn write_verb() -> impl Strategy<Value = Verb> {
    prop_oneof![
        (key(), any::<u64>()).prop_map(|(k, v)| Verb::Insert(k, v)),
        key().prop_map(Verb::Remove),
        key().prop_map(Verb::Get),
    ]
}

fn read_verb() -> impl Strategy<Value = Verb> {
    prop_oneof![
        key().prop_map(Verb::Predecessor),
        key().prop_map(Verb::Successor),
        (key(), 0usize..8).prop_map(|(from, limit)| Verb::Scan { from, limit }),
    ]
}

fn fenced_verb() -> impl Strategy<Value = Verb> {
    prop_oneof![
        any::<bool>().prop_map(|_| Verb::PopFirst),
        any::<bool>().prop_map(|_| Verb::PopLast),
        proptest::collection::vec((key(), any::<u64>()), 0..12).prop_map(Verb::InsertBatch),
        proptest::collection::vec(key(), 0..12).prop_map(Verb::RemoveBatch),
        proptest::collection::vec(key(), 0..12).prop_map(Verb::GetBatch),
    ]
}

fn chunk() -> impl Strategy<Value = Chunk> {
    prop_oneof![
        proptest::collection::vec(write_verb(), 1..40).prop_map(Chunk::Writes),
        proptest::collection::vec(write_verb(), 1..40).prop_map(Chunk::Writes),
        proptest::collection::vec(read_verb(), 1..20).prop_map(Chunk::Reads),
        fenced_verb().prop_map(Chunk::Fenced),
    ]
}

/// Sequential mirror of the pipeline's executor, against the plain forest.
fn direct(model: &ShardedSkipTrie<u64>, verb: &Verb) -> Reply {
    match verb {
        Verb::Get(k) => Reply::Value(model.get(*k)),
        Verb::Insert(k, v) => Reply::Inserted(model.insert(*k, *v)),
        Verb::Remove(k) => Reply::Removed(model.remove(*k)),
        Verb::Predecessor(k) => Reply::Entry(model.predecessor(*k)),
        Verb::Successor(k) => Reply::Entry(model.successor(*k)),
        Verb::Scan { from, limit } => Reply::Entries(model.range(*from..).take(*limit).collect()),
        Verb::PopFirst => Reply::Entry(model.pop_first()),
        Verb::PopLast => Reply::Entry(model.pop_last()),
        Verb::InsertBatch(entries) => Reply::Count(model.insert_batch(entries)),
        Verb::RemoveBatch(keys) => Reply::Count(model.remove_batch(keys)),
        Verb::GetBatch(keys) => Reply::Values(model.get_batch(keys)),
    }
}

/// Pushes one chunk's verbs through the connection, waits for completion, and
/// returns the replies ordered by submission sequence.
fn run_chunk(conn: &mut Connection<skiptrie::TieredSkipTrie<u64>>, verbs: &[Verb]) -> Vec<Reply> {
    let base_seq = {
        let mut seqs = Vec::with_capacity(verbs.len());
        for verb in verbs {
            let request = Request {
                verb: verb.clone(),
                submit_ns: conn.now_ns(),
            };
            let seq = conn
                .submit(request)
                .expect("chunks stay under the per-lane cap, nothing sheds");
            seqs.push(seq);
        }
        seqs
    };
    let mut responses = conn.wait_idle();
    responses.sort_by_key(|r| r.seq);
    assert_eq!(responses.len(), verbs.len(), "one response per request");
    for (response, seq) in responses.iter().zip(&base_seq) {
        assert_eq!(response.seq, *seq, "responses cover exactly this chunk");
    }
    responses.into_iter().map(|r| r.reply).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pipeline_is_observationally_direct(
        watermark in 1usize..=8,
        seed_keys in proptest::collection::vec(any::<u64>(), 0..30),
        chunks in proptest::collection::vec(chunk(), 1..12),
    ) {
        let seeded: Vec<(u64, u64)> = seed_keys
            .into_iter()
            .map(|k| k & CLAMP)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(|k| (k, !k))
            .collect();
        let forest: TieredForest<u64> = TieredForest::from_sorted(
            ShardedSkipTrieConfig::for_universe_bits(BITS)
                .with_shards(4)
                .with_merge_watermark(watermark),
            &seeded,
        );
        let model: ShardedSkipTrie<u64> = ShardedSkipTrie::from_sorted(
            ShardedSkipTrieConfig::for_universe_bits(BITS)
                .with_shards(4)
                .with_seed(7),
            &seeded,
        );
        let service = Service::new(forest.router(), ServiceConfig { queue_cap: 256 });
        let mut conn = service.connect();
        for chunk in &chunks {
            let verbs: &[Verb] = match chunk {
                Chunk::Writes(verbs) | Chunk::Reads(verbs) => verbs,
                Chunk::Fenced(verb) => std::slice::from_ref(verb),
            };
            let got = run_chunk(&mut conn, verbs);
            let want: Vec<Reply> = verbs.iter().map(|v| direct(&model, v)).collect();
            prop_assert_eq!(got, want, "chunk {:?}", chunk);
        }
        drop(conn);
        drop(service);
        prop_assert_eq!(forest.snapshot(), model.to_vec(), "final contents agree");
    }
}
