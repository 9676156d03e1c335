//! A concurrent event scheduler (timer wheel replacement) built on the SkipTrie.
//!
//! Run with:
//!
//! ```text
//! cargo run --example event_scheduler --release
//! ```
//!
//! Priority queues over bounded integer priorities (deadlines in microseconds, say)
//! are a classic application of van Emde Boas-style structures — the paper's
//! introduction cites calendar queues as the fan-out workaround. Here, producer
//! threads schedule events at future timestamps while a consumer thread repeatedly
//! extracts the earliest event with `pop_first`, all lock-free. (`pop_first`
//! replaces the hand-rolled `successor`-then-`remove` retry loop this example used
//! to carry: one combined locate+CAS-remove per event instead of a full x-fast
//! search per attempt plus a second search for the remove — the `ab` experiment's
//! drain row quantifies the difference.)

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use skiptrie_suite::skiptrie::{SkipTrie, SkipTrieConfig};

/// Timestamps are 40-bit microsecond deadlines: enough for ~13 days of schedule.
const TIME_BITS: u32 = 40;

fn main() {
    let scheduler: Arc<SkipTrie<String>> =
        Arc::new(SkipTrie::new(SkipTrieConfig::for_universe_bits(TIME_BITS)));
    let produced = Arc::new(AtomicUsize::new(0));
    let consumed = Arc::new(AtomicUsize::new(0));
    let done_producing = Arc::new(AtomicBool::new(false));

    let producers = 4;
    let events_per_producer = 25_000u64;

    std::thread::scope(|scope| {
        // Producers schedule events at pseudo-random future deadlines. Collisions on a
        // deadline are resolved by probing the next microsecond.
        for p in 0..producers {
            let scheduler = Arc::clone(&scheduler);
            let produced = Arc::clone(&produced);
            scope.spawn(move || {
                let mut state = 0x9E37_79B9u64.wrapping_mul(p as u64 + 1);
                for i in 0..events_per_producer {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let mut deadline = state % (1 << TIME_BITS);
                    let label = format!("producer-{p} event-{i}");
                    while !scheduler.insert(deadline, label.clone()) {
                        deadline = (deadline + 1) % (1 << TIME_BITS);
                    }
                    produced.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // The consumer drains events in deadline order.
        let scheduler_c = Arc::clone(&scheduler);
        let consumed_c = Arc::clone(&consumed);
        let done = Arc::clone(&done_producing);
        let consumer = scope.spawn(move || {
            let mut last_deadline = 0u64;
            let mut out_of_order = 0usize;
            loop {
                match scheduler_c.pop_first() {
                    Some((deadline, _label)) => {
                        // Deadlines may appear "out of order" only relative to
                        // concurrently *inserted* earlier deadlines, which is
                        // expected for a running scheduler; track it for interest.
                        if deadline < last_deadline {
                            out_of_order += 1;
                        }
                        last_deadline = deadline;
                        consumed_c.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {
                        if done.load(Ordering::Relaxed) && scheduler_c.is_empty() {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                }
            }
            out_of_order
        });

        // Wait for producers (all spawned threads other than the consumer).
        // The scope joins everything; we just flag completion for the consumer.
        scope.spawn(move || {
            // This watchdog thread flips the flag once production reaches the target.
            let target = producers as usize * events_per_producer as usize;
            while produced.load(Ordering::Relaxed) < target {
                std::thread::yield_now();
            }
            done_producing.store(true, Ordering::Relaxed);
        });

        let out_of_order = consumer.join().expect("consumer finished");
        println!(
            "scheduled {} events from {producers} producers, dispatched {} in deadline order",
            producers as u64 * events_per_producer,
            consumed.load(Ordering::Relaxed),
        );
        println!("dispatches that preceded a late-arriving earlier deadline: {out_of_order}");
    });

    assert!(scheduler.is_empty(), "every scheduled event was dispatched");
    println!(
        "scheduler drained; structure is empty: {}",
        scheduler.is_empty()
    );
}
