//! Cross-crate smoke tests for the serving pipeline: multiple connections
//! drive a `TieredForest` through `skiptrie-service` while watermark merges
//! fold shards underneath, and admission turns overload into counted sheds
//! instead of unbounded queues.
//!
//! Counter notes: `SvcEnqueued` / `SvcShed` are process-wide,
//! so the exact-delta asserts here are only sound because (a) this file is its
//! own test binary and (b) every test that drives a service serializes on
//! [`SERVICE_LOCK`] and measures with `Snapshot::since`.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use skiptrie_suite::metrics::{self, Counter};
use skiptrie_suite::service::{OpClass, Reply, Request, Service, ServiceConfig, Verb};
use skiptrie_suite::skiptrie::{ShardedSkipTrie, ShardedSkipTrieConfig, TieredForest, WakeGate};
use skiptrie_suite::workloads::harness::{scaled, worker_rng};

/// Serializes the tests in this binary so `since`-deltas on the service
/// counters are exact.
static SERVICE_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn concurrent_connections_agree_with_thread_local_models() {
    let _guard = SERVICE_LOCK.lock().unwrap();
    const THREADS: u64 = 4;
    let ops = scaled(4_000) as u64;
    // Small watermark: the background coordinator folds shards throughout.
    let forest: TieredForest<u64> = TieredForest::new(
        ShardedSkipTrieConfig::for_universe_bits(24)
            .with_shards(4)
            .with_merge_watermark(512),
    );
    let service = Service::new(forest.router(), ServiceConfig { queue_cap: 64 });
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let service = &service;
            scope.spawn(move || {
                // Keys `k * THREADS + thread` are disjoint per thread, so even
                // with all four connections in flight every point reply must
                // match a thread-local model exactly.
                let mut conn = service.connect();
                let mut model: BTreeMap<u64, u64> = BTreeMap::new();
                let mut expected: Vec<(u64, Reply)> = Vec::new();
                let mut rng = worker_rng(0xE16, thread as usize);
                let check = |conn: &mut skiptrie_suite::service::Connection<_>,
                             expected: &mut Vec<(u64, Reply)>| {
                    for response in conn.wait_idle() {
                        let slot = expected
                            .iter()
                            .position(|(seq, _)| *seq == response.seq)
                            .expect("response matches a submitted request");
                        let (_, want) = expected.swap_remove(slot);
                        assert_eq!(response.reply, want, "pipeline reply diverged from model");
                    }
                };
                for op in 0..ops {
                    let key = rng.next_below(1 << 18) * THREADS + thread;
                    let roll = rng.next_below(10);
                    let (verb, want) = if roll < 5 {
                        (
                            Verb::Insert(key, op),
                            Reply::Inserted(model.insert(key, op).is_none()),
                        )
                    } else if roll < 7 {
                        (Verb::Remove(key), Reply::Removed(model.remove(&key)))
                    } else {
                        (Verb::Get(key), Reply::Value(model.get(&key).copied()))
                    };
                    let submit_ns = conn.now_ns();
                    match conn.submit(Request { verb, submit_ns }) {
                        Ok(seq) => expected.push((seq, want)),
                        Err(_) => {
                            // Lane full: a real client would back off; the test
                            // drains and replays nothing (the model was already
                            // updated), so just fail loudly — cap 64 with
                            // drain-every-32 below cannot legally shed.
                            panic!("unexpected shed below the in-flight cap");
                        }
                    }
                    if op % 32 == 31 {
                        check(&mut conn, &mut expected);
                    }
                }
                check(&mut conn, &mut expected);
                assert!(expected.is_empty(), "every request got its reply");
            });
        }
    });
    drop(service);
    // The union of the thread-local models is exactly the forest contents:
    // keyspaces are disjoint, so no cross-thread op can perturb another's keys.
    forest.quiesce();
    assert_eq!(forest.check_traversal_integrity(), forest.len());
}

#[test]
fn admission_sheds_exactly_past_the_lane_cap() {
    let _guard = SERVICE_LOCK.lock().unwrap();
    metrics::set_enabled(true);
    let router = std::sync::Arc::new(ShardedSkipTrie::<u64>::new(
        ShardedSkipTrieConfig::for_universe_bits(16).with_shards(2),
    ));
    let service = Service::new(
        std::sync::Arc::clone(&router),
        ServiceConfig { queue_cap: 4 },
    );
    let before = metrics::snapshot();
    let mut conn = service.connect();
    let mut accepted = 0u64;
    let mut shed = 0u64;
    // 7 gets aimed at one shard without ever draining responses: the first 4
    // are admitted (whether or not the worker has already executed them — the
    // in-flight bound counts *undrained* requests), the last 3 must shed.
    for i in 0..7u64 {
        let submit_ns = conn.now_ns();
        match conn.submit(Request {
            verb: Verb::Get(i),
            submit_ns,
        }) {
            Ok(_) => accepted += 1,
            Err(verb) => {
                assert_eq!(verb, Verb::Get(i), "shed hands the verb back");
                shed += 1;
            }
        }
    }
    assert_eq!((accepted, shed), (4, 3));
    let responses = conn.wait_idle();
    assert_eq!(responses.len(), 4, "admitted requests all complete");
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.get(Counter::SvcEnqueued), 4);
    assert_eq!(delta.get(Counter::SvcShed), 3);
    // After draining, the lane has room again.
    let submit_ns = conn.now_ns();
    assert!(conn
        .submit(Request {
            verb: Verb::Get(0),
            submit_ns,
        })
        .is_ok());
    assert_eq!(conn.wait_idle().len(), 1);
    metrics::set_enabled(false);
}

#[test]
fn a_burst_into_one_lane_is_answered_once_each() {
    let _guard = SERVICE_LOCK.lock().unwrap();
    metrics::set_enabled(true);
    const BURST: u64 = 200;
    let router = std::sync::Arc::new(ShardedSkipTrie::<u64>::new(
        ShardedSkipTrieConfig::for_universe_bits(16).with_shards(1),
    ));
    let service = Service::new(
        std::sync::Arc::clone(&router),
        ServiceConfig { queue_cap: 256 },
    );
    let before = metrics::snapshot();
    let mut conn = service.connect();
    // More requests than one lane visit serves, all in one lane: the worker
    // comes back for the rest, and per-lane FIFO makes the responses arrive
    // in submit order.
    let seqs: Vec<u64> = (0..BURST)
        .map(|i| {
            let submit_ns = conn.now_ns();
            conn.submit(Request {
                verb: Verb::Insert(i, i),
                submit_ns,
            })
            .expect("cap 256 admits the whole burst")
        })
        .collect();
    let responses = conn.wait_idle();
    assert_eq!(
        responses.iter().map(|r| r.seq).collect::<Vec<_>>(),
        seqs,
        "one response per request, in submit order"
    );
    for response in &responses {
        assert_eq!(
            response.reply,
            Reply::Inserted(true),
            "fresh keys all insert"
        );
    }
    assert_eq!(router.len() as u64, BURST);
    let delta = metrics::snapshot().since(&before);
    assert_eq!(delta.get(Counter::SvcEnqueued), BURST);
    assert_eq!(delta.get(Counter::SvcShed), 0);
    // Latency recording covered every request, in both timebases.
    let virtual_count: u64 = service
        .virtual_latency()
        .snapshot()
        .iter()
        .map(|(_, h)| h.count())
        .sum();
    assert!(virtual_count >= BURST);
    metrics::set_enabled(false);
}

#[test]
fn a_deep_lane_does_not_starve_its_neighbour() {
    let _guard = SERVICE_LOCK.lock().unwrap();
    const KEYS: u64 = 1 << 16;
    const FLOOD: usize = 256;
    let entries: Vec<(u64, u64)> = (0..KEYS).map(|k| (k, k)).collect();
    let router = std::sync::Arc::new(ShardedSkipTrie::<u64>::from_sorted(
        ShardedSkipTrieConfig::for_universe_bits(16).with_shards(1),
        &entries,
    ));
    let service = Service::new(router, ServiceConfig::default());
    let mut flooder = service.connect();
    let mut neighbour = service.connect();
    // Both lanes are registered before the flood, so the worker alternates
    // between them; the flood is hundreds of times the work of the `Get`.
    for _ in 0..FLOOD {
        let submit_ns = flooder.now_ns();
        flooder
            .submit(Request {
                verb: Verb::Scan {
                    from: 0,
                    limit: 2_000,
                },
                submit_ns,
            })
            .expect("the default cap admits the flood");
    }
    let submit_ns = neighbour.now_ns();
    neighbour
        .submit(Request {
            verb: Verb::Get(7),
            submit_ns,
        })
        .expect("an empty lane admits the request");
    let got = neighbour.wait_idle();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].reply, Reply::Value(Some(7)));
    let flood = flooder.wait_idle();
    assert_eq!(flood.len(), FLOOD);
    let last_flood_done = flood.iter().map(|r| r.done_ns).max().unwrap();
    // A worker that drained a lane to empty before moving on would answer the
    // `Get` only after all 256 scans.
    assert!(
        got[0].done_ns < last_flood_done,
        "the neighbour's request waited out the whole flood"
    );
}

#[test]
fn fenced_verbs_observe_all_prior_requests() {
    let _guard = SERVICE_LOCK.lock().unwrap();
    let forest: TieredForest<u64> = TieredForest::new(
        ShardedSkipTrieConfig::for_universe_bits(16)
            .with_shards(4)
            .with_merge_watermark(64),
    );
    let service = Service::new(forest.router(), ServiceConfig::default());
    let mut conn = service.connect();
    for i in 0..256u64 {
        let submit_ns = conn.now_ns();
        conn.submit(Request {
            verb: Verb::Insert(i * 11 % (1 << 16), i),
            submit_ns,
        })
        .expect("default cap admits the burst");
    }
    // PopFirst fences: every one of the 256 pipelined inserts must be visible,
    // so the pop returns the smallest inserted key even if workers are mid-run.
    let submit_ns = conn.now_ns();
    conn.submit(Request {
        verb: Verb::PopFirst,
        submit_ns,
    })
    .expect("fenced verbs execute inline");
    let responses = conn.wait_idle();
    assert_eq!(responses.len(), 257);
    let pop = responses
        .iter()
        .find(|r| matches!(r.reply, Reply::Entry(_)))
        .expect("the pop's response is delivered");
    let smallest = (0..256u64).map(|i| i * 11 % (1 << 16)).min().unwrap();
    assert_eq!(pop.reply, Reply::Entry(Some((smallest, smallest / 11))));
}

#[test]
fn a_backlog_shows_in_virtual_latency_and_not_in_service_latency() {
    // The coordinated-omission property an open-loop driver relies on: a driver
    // that has fallen behind stamps each request with the time it was *due*, and
    // the wait that implies must reach `Service::virtual_latency()` while
    // `service_latency()` (enqueue to done, all a closed loop would report) stays
    // blind to it. Both recorders count every completed request once, under its
    // class, with exactly the values its `Response` carries.
    let _guard = SERVICE_LOCK.lock().unwrap();
    const BACKLOG_NS: u64 = 1_000_000;
    let forest: ShardedSkipTrie<u64> =
        ShardedSkipTrie::new(ShardedSkipTrieConfig::for_universe_bits(16).with_shards(2));
    let service = Service::new(std::sync::Arc::new(forest), ServiceConfig::default());
    let mut conn = service.connect();
    // The service clock starts at 0: let it pass the backlog so a stamp that far
    // in the past exists.
    while service.now_ns() <= BACKLOG_NS {
        std::thread::yield_now();
    }
    for i in 0..300u64 {
        let verb = if i % 3 == 0 {
            Verb::Predecessor(i * 97)
        } else {
            Verb::Insert(i * 97, i)
        };
        let submit_ns = conn.now_ns() - BACKLOG_NS;
        conn.submit(Request { verb, submit_ns })
            .expect("default cap admits the burst");
    }
    let responses = conn.wait_idle();
    assert_eq!(responses.len(), 300);
    for class in OpClass::ALL {
        let (virt, svc): (Vec<u64>, Vec<u64>) = responses
            .iter()
            .filter(|r| r.class == class)
            .map(|r| (r.virtual_latency_ns(), r.service_latency_ns()))
            .unzip();
        assert_eq!(
            virt.len(),
            match class {
                OpClass::Point => 200,
                OpClass::Ordered => 100,
                _ => 0,
            }
        );
        assert!(
            virt.iter().zip(&svc).all(|(v, s)| *v >= s + BACKLOG_NS),
            "{class:?}: a request's virtual latency includes the backlog it was stamped with"
        );
        let virt_hist = service.virtual_latency().histogram(class.index());
        let svc_hist = service.service_latency().histogram(class.index());
        assert_eq!(virt_hist.count(), virt.len() as u64, "{class:?}");
        assert_eq!(svc_hist.count(), svc.len() as u64, "{class:?}");
        // `min` and `max` are exact in the histogram (only quantiles are bucketed).
        assert_eq!(virt_hist.min(), virt.iter().copied().min(), "{class:?}");
        assert_eq!(virt_hist.max(), virt.iter().copied().max(), "{class:?}");
        assert_eq!(svc_hist.min(), svc.iter().copied().min(), "{class:?}");
        assert_eq!(svc_hist.max(), svc.iter().copied().max(), "{class:?}");
    }
}

/// Depth-one closed loop over two shards, 64 rounds to a shard before it moves
/// to the other: each round pauses, submits one insert and waits for its reply.
/// The two shards may share one worker (a service runs no more workers than
/// the cores it leaves the client), and then every round's worker went idle
/// when it answered the round before; with a worker per shard all rounds but
/// the first of each 64 find theirs so. Either way `pause(round)` *is* that
/// worker's idle time and picks which of its gate's three windows the request
/// finds it in — polling, raising the flag, parked. Runs on its own thread
/// under a 60-s lost-wake deadline; the workers have no timeout to fall back
/// on.
fn depth_one_rounds(rounds: u64, pause: fn(u64)) {
    let (done, finished) = std::sync::mpsc::channel();
    let driver = std::thread::spawn(move || {
        let forest: ShardedSkipTrie<u64> =
            ShardedSkipTrie::new(ShardedSkipTrieConfig::for_universe_bits(16).with_shards(2));
        let service = Service::new(std::sync::Arc::new(forest), ServiceConfig::default());
        let mut conn = service.connect();
        for round in 0..rounds {
            pause(round);
            let shard = (round >> 6) & 1;
            let submit_ns = conn.now_ns();
            conn.submit(Request {
                verb: Verb::Insert((shard << 15) | (round % (1 << 15)), round),
                submit_ns,
            })
            .expect("an empty lane admits the request");
            assert_eq!(conn.wait_idle().len(), 1);
        }
        let _ = done.send(());
    });
    finished
        .recv_timeout(Duration::from_secs(60))
        .expect("a request to an idle worker was never served: lost wake");
    driver.join().expect("driver panicked");
}

/// Waits out `pause` a yield at a time. A sleep would round up to the timer's
/// slack and miss the window it is aimed at; a wait that held the CPU would,
/// whenever the scheduler has put the client beside the worker it is about to
/// wake, keep that worker's first yield from coming back within the budget:
/// its poll phase ends there and the aimed wake finds it long parked.
fn wait_for(pause: Duration) {
    let start = Instant::now();
    while start.elapsed() < pause {
        std::thread::yield_now();
    }
}

#[test]
fn a_request_to_an_idle_worker_is_never_stranded() {
    // Each round draws its pause: none, or four yields, race the worker into
    // its poll phase; half a budget finds it well inside; two budgets find it
    // long parked; and three draws in four land within the budget -3 .. +1 µs,
    // where (measured on the build host: `submit` unparks in 6 % of rounds 2 µs
    // short of the budget, in 20 % 1 µs short and in 90 % at it) the worker
    // stops polling and raises its flag — the only stretch in which a wake
    // can be lost.
    let _guard = SERVICE_LOCK.lock().unwrap();
    depth_one_rounds(scaled(10_000) as u64, |round| {
        let budget = WakeGate::POLL_BUDGET;
        // A multiplicative hash of the round: draws with no generator to carry.
        let draw = round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        match draw >> 60 {
            0 => {}
            1 => (0..4).for_each(|_| std::thread::yield_now()),
            2 => wait_for(budget / 2),
            3 => wait_for(2 * budget),
            // 0 .. 4.1 µs of jitter from bits the kind did not use.
            _ => wait_for(
                budget - Duration::from_micros(3) + Duration::from_nanos((draw >> 48) & 0xFFF),
            ),
        }
    });
}

#[test]
fn a_busy_worker_polls_and_an_idle_one_parks() {
    // The gate's duty cycle, read off its counters. They are process-wide and
    // the forest-less service here is not the only sleeper a test binary can
    // hold, so every bound is a lower bound. Host load can only lower what is
    // bounded — a yield that comes back a time slice late turns a poll hit
    // into a park, or outlasts the pause and turns a park into a poll hit — so
    // each phase is judged by the first of a few attempts that meets its bound.
    let _guard = SERVICE_LOCK.lock().unwrap();
    const ROUNDS: u64 = 2_000;
    const ENOUGH: u64 = ROUNDS * 9 / 10;
    const ATTEMPTS: usize = 5;
    let attempt = |what: &str, pause: fn(u64), enough: fn([u64; 3]) -> bool| {
        let mut seen = Vec::new();
        for _ in 0..ATTEMPTS {
            let ((), delta) = metrics::measure(|| depth_one_rounds(ROUNDS, pause));
            let counts = [Counter::GatePollHit, Counter::GatePark, Counter::GateUnpark]
                .map(|c| delta.get(c));
            if enough(counts) {
                return;
            }
            seen.push(counts);
        }
        panic!("{ROUNDS} {what}: [poll hits, parks, unparks] read {seen:?}");
    };
    // Both shards may be served by one worker or by one each; the bounds hold
    // either way. No pause: the next request arrives while its worker still
    // polls, so the worker never parks for it and `submit` unparks nobody.
    attempt(
        "back-to-back rounds",
        |_| {},
        |[poll_hits, ..]| poll_hits >= ENOUGH,
    );
    // Three budgets between requests: every worker has parked by the time the
    // next one comes, and `submit` pays the unpark.
    attempt(
        "rounds three budgets apart",
        |_| wait_for(3 * WakeGate::POLL_BUDGET),
        |[_, parks, unparks]| parks >= ENOUGH && unparks >= ENOUGH,
    );
}
