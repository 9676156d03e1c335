//! The workspace's one sleep/wake primitive: a level-triggered gate for a single
//! sleeping thread and any number of wakers.
//!
//! A waker publishes its condition (any atomic write), then calls
//! [`WakeGate::wake`]; the sleeper calls [`WakeGate::sleep_until`] with a
//! predicate over that condition. The sleeper first **polls** the predicate,
//! yielding between looks, for [`WakeGate::POLL_BUDGET`]; only a gate that
//! stayed idle that long goes on to **park**. The poll phase promises nothing —
//! it may only return early, on a predicate that read true — so everything
//! below is about the park phase, where neither side can miss the other:
//!
//! * **A fence on both sides.** The waker does *write condition → fence → read
//!   flag*; the sleeper does *write flag → fence → read condition*. Each side is
//!   a store followed by a load of a different location — the one pattern that
//!   neither `Release`/`Acquire` nor a `SeqCst` load alone orders. The two
//!   `SeqCst` fences are totally ordered: if the waker's comes first, the
//!   sleeper's predicate observes the condition; if the sleeper's comes first,
//!   the waker observes the raised flag and unparks. A fence on one side only
//!   would leave the other side's store free to pass its load.
//! * **The predicate is the truth, the park token is a hint.** The sleeper
//!   re-evaluates the predicate before *every* park, so a token consumed by
//!   somebody else (`std::thread::scope` parks the calling thread internally)
//!   or left over from an earlier wake costs one extra loop, never a lost wake.
//!
//! The flag is down while the sleeper polls, and polling writes nothing to the
//! gate, so a waker that finds it polling pays one fence and one load, and no
//! `unpark`.

use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::OnceLock;
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use skiptrie_metrics::{record, Counter};

/// A level-triggered sleep/wake gate; see the [module docs](self). `default()`
/// is a gate nobody sleeps on yet.
#[derive(Debug, Default)]
pub struct WakeGate {
    /// Up while the sleeper is in the park phase of [`WakeGate::sleep_until`].
    sleeping: AtomicBool,
    /// The one thread that sleeps here, registered by its first sleep.
    sleeper: OnceLock<Thread>,
}

impl WakeGate {
    /// How long [`WakeGate::sleep_until`] polls before it parks: about the
    /// round trip through a parked sleeper that a successful poll saves (the
    /// ski-rental break-even), so a sleeper never polls away more than it
    /// could have saved. DESIGN.md §"The one wake primitive" has the
    /// measurements behind the number.
    pub const POLL_BUDGET: Duration = Duration::from_micros(100);

    /// Call *after* publishing the condition the sleeper's predicate reads.
    /// Costs one fence and one load unless the sleeper is actually asleep.
    pub fn wake(&self) {
        fence(Ordering::SeqCst);
        // SeqCst load pairs with the sleeper's SeqCst store: seeing the flag up
        // also makes the `sleeper` registration that preceded it visible.
        if self.sleeping.load(Ordering::SeqCst) {
            if let Some(sleeper) = self.sleeper.get() {
                record(Counter::GateUnpark);
                sleeper.unpark();
            }
        }
    }

    /// Blocks the calling thread until `ready()` returns true. `ready` must
    /// read atomics only (it runs between the fence and the park).
    ///
    /// Every call on one gate must come from the same thread.
    pub fn sleep_until(&self, mut ready: impl FnMut() -> bool) {
        let sleeper = self.sleeper.get_or_init(thread::current);
        assert_eq!(
            sleeper.id(),
            thread::current().id(),
            "a WakeGate has a single sleeper"
        );
        if Self::poll(&mut ready) {
            record(Counter::GatePollHit);
            return;
        }
        self.sleeping.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        while !ready() {
            record(Counter::GatePark);
            thread::park();
        }
        self.sleeping.store(false, Ordering::SeqCst);
    }

    /// The poll phase of [`WakeGate::sleep_until`]: whether `ready` read true
    /// within the budget. It touches nothing in the gate.
    ///
    /// It yields rather than pauses: with fewer cores than runnable threads the
    /// waker may need this very CPU to publish. A yield that is slow to come
    /// back (the thread yielded to kept the CPU for its time slice) has used
    /// the budget up by itself and is the phase's last.
    fn poll(ready: &mut impl FnMut() -> bool) -> bool {
        if ready() {
            return true;
        }
        let polling_since = Instant::now();
        loop {
            thread::yield_now();
            if ready() {
                return true;
            }
            if polling_since.elapsed() >= Self::POLL_BUDGET {
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skiptrie_metrics as metrics;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;
    use std::sync::{Arc, Mutex, MutexGuard};

    /// The `Gate*` counters are process-wide and every test here moves them, so
    /// the tests that read them need the others out of the way: all take this.
    static GATES: Mutex<()> = Mutex::new(());

    fn gates() -> MutexGuard<'static, ()> {
        GATES
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Runs `body` on its own thread and fails the test if it has not finished
    /// within `secs` seconds — a lost wake shows up as a failure, not a hung run.
    fn within_secs(secs: u64, body: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let worker = thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        finished
            .recv_timeout(Duration::from_secs(secs))
            .expect("sleeper still blocked at the deadline: a wake was lost");
        worker.join().expect("sleeper panicked");
    }

    /// Runs `body` with the counters on and returns what it added to
    /// `[GatePollHit, GatePark, GateUnpark]`. Call under [`gates`].
    fn gate_counts(body: impl FnOnce()) -> [u64; 3] {
        let ((), delta) = metrics::measure(body);
        [Counter::GatePollHit, Counter::GatePark, Counter::GateUnpark].map(|c| delta.get(c))
    }

    #[test]
    fn a_stolen_park_token_cannot_lose_a_wake() {
        let _serial = gates();
        within_secs(10, || {
            let gate = WakeGate::default();
            let due = AtomicBool::new(false);
            // The bug class this primitive closes: the condition is latched and
            // the sleeper unparked while it is busy elsewhere ...
            due.store(true, Ordering::SeqCst);
            thread::current().unpark();
            // ... and `scope` (which parks this thread to join its child) may
            // eat the token before the sleeper gets round to sleeping.
            thread::scope(|scope| {
                scope.spawn(thread::yield_now);
            });
            gate.sleep_until(|| due.load(Ordering::SeqCst));
        });
    }

    /// `rounds` of ping-pong between two threads, each sleeping on its own
    /// gate. Before each wake the waker waits until the other side has been
    /// idle for `idle_for(round)` — counted from the stamp that side left when
    /// it went to sleep, so a waker that was itself slow to wake still lands
    /// where it aims — and every look dawdles for `dawdle` between reading
    /// `turn` and answering. `turn` counts completed half-rounds: the pinger
    /// moves it from even to odd, the ponger from odd to even. It is `Relaxed`:
    /// the gate's fences carry the ordering.
    fn ping_pong(rounds: u64, dawdle: Duration, idle_for: fn(u64) -> Duration) {
        struct Side {
            gate: WakeGate,
            /// When this side last handed the turn over, in ns since `epoch`.
            idle_since: AtomicU64,
        }
        let side = || Side {
            gate: WakeGate::default(),
            idle_since: AtomicU64::new(0),
        };
        let shared = Arc::new((side(), side(), AtomicU64::new(0), Instant::now()));
        // One half-round: wait for `turn` to read `from` on `me`'s gate, aim,
        // stamp, hand over `from + 1` and wake `other`.
        let half_round = move |me: &Side, other: &Side, turn: &AtomicU64, epoch: Instant, from| {
            me.gate.sleep_until(|| {
                let seen = turn.load(Ordering::Relaxed);
                spin_for(dawdle);
                seen == from
            });
            // Waits by yielding: the scheduler likes to put a waker and its
            // wakee on one CPU, and beside a waiter that held it the sleeper's
            // first yield would take a time slice to come back, end its poll
            // phase there and leave it long parked when the aimed wake lands.
            let other_idle_since = Duration::from_nanos(other.idle_since.load(Ordering::SeqCst));
            while epoch.elapsed() < other_idle_since + idle_for(from / 2) {
                thread::yield_now();
            }
            let now = epoch.elapsed().as_nanos() as u64;
            me.idle_since.store(now, Ordering::SeqCst);
            turn.store(from + 1, Ordering::Relaxed);
            other.gate.wake();
        };
        let ponger = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                let (ping, pong, turn, epoch) = &*shared;
                for round in 0..rounds {
                    half_round(pong, ping, turn, *epoch, 2 * round + 1);
                }
            })
        };
        let (ping, pong, turn, epoch) = &*shared;
        for round in 0..rounds {
            half_round(ping, pong, turn, *epoch, 2 * round);
        }
        // The ponger's last wake may find nobody waiting; that is fine.
        ponger.join().expect("ponger panicked");
    }

    /// Holds the CPU for `pause`.
    fn spin_for(pause: Duration) {
        let start = Instant::now();
        while start.elapsed() < pause {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn ping_pong_never_strands_either_side() {
        // No pause: every wake finds the other side polling or about to.
        let _serial = gates();
        within_secs(60, || {
            ping_pong(100_000, Duration::ZERO, |_| Duration::ZERO)
        });
    }

    #[test]
    fn ping_pong_past_the_poll_budget_never_strands_either_side() {
        // A wake after the budget -3 .. +1 µs of idleness lands where the
        // sleeper leaves its poll phase and raises the flag; every eighth
        // round it has long been parked. A wake can only be lost between the
        // sleeper's last look at the condition and its flag going up, a few
        // tens of nanoseconds that an aimed wake seldom finds; looks that
        // dawdle for a microsecond over a stale answer hold that window open,
        // and the re-check before the park is then all that saves the wakes
        // landing in it.
        let _serial = gates();
        const ROUNDS: u64 = 8_000;
        let [_, parks, unparks] = gate_counts(|| {
            within_secs(60, || {
                ping_pong(ROUNDS, Duration::from_micros(1), |round| {
                    // A multiplicative hash of the round: jitter to the
                    // nanosecond with no generator to carry.
                    let draw = round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    match round % 8 {
                        0 => 2 * WakeGate::POLL_BUDGET,
                        _ => {
                            WakeGate::POLL_BUDGET - Duration::from_micros(3)
                                + Duration::from_nanos(draw >> 52)
                        }
                    }
                })
            });
        });
        // Both sides of the long rounds really parked and were really unparked.
        assert!(
            parks >= ROUNDS / 4 && unparks >= ROUNDS / 4,
            "{parks} parks, {unparks} unparks"
        );
    }

    #[test]
    fn an_idle_sleeper_stops_polling() {
        let _serial = gates();
        let state = Arc::new((
            WakeGate::default(),
            AtomicU64::new(0),
            AtomicBool::new(false),
        ));
        let sleeper = {
            let state = Arc::clone(&state);
            thread::spawn(move || {
                let (gate, looks, stop) = &*state;
                gate.sleep_until(|| {
                    looks.fetch_add(1, Ordering::SeqCst);
                    stop.load(Ordering::SeqCst)
                });
            })
        };
        let (gate, looks, stop) = &*state;
        while looks.load(Ordering::SeqCst) == 0 {
            thread::yield_now();
        }
        // However late the sleeper is scheduled, once the budget has passed it
        // looks at most twice more: once to leave the poll phase, once before
        // it parks. The allowance beyond that is for spurious park returns.
        thread::sleep(5 * WakeGate::POLL_BUDGET);
        let early = looks.load(Ordering::SeqCst);
        thread::sleep(45 * WakeGate::POLL_BUDGET);
        let late = looks.load(Ordering::SeqCst);
        assert!(
            late - early <= 4,
            "an idle sleeper kept looking: {early} then {late} looks"
        );
        stop.store(true, Ordering::SeqCst);
        gate.wake();
        sleeper.join().expect("sleeper panicked");
    }

    #[test]
    fn a_wake_during_the_poll_phase_unparks_nobody_and_is_not_lost() {
        let _serial = gates();
        within_secs(10, || {
            // `stage` 0: the sleeper has not looked twice; 1: it is inside its
            // second look, the one a fresh gate's poll phase makes after its
            // first yield; 2: the waker has published and called `wake`.
            let state = Arc::new((WakeGate::default(), AtomicU64::new(0)));
            let counts = gate_counts(|| {
                let sleeper = {
                    let state = Arc::clone(&state);
                    thread::spawn(move || {
                        let (gate, stage) = &*state;
                        let mut looks = 0;
                        gate.sleep_until(|| {
                            looks += 1;
                            if looks == 2 {
                                assert!(!gate.sleeping.load(Ordering::SeqCst), "still polling");
                                stage.store(1, Ordering::SeqCst);
                                while stage.load(Ordering::SeqCst) == 1 {
                                    thread::yield_now();
                                }
                            }
                            stage.load(Ordering::SeqCst) == 2
                        });
                    })
                };
                let (gate, stage) = &*state;
                while stage.load(Ordering::SeqCst) != 1 {
                    thread::yield_now();
                }
                stage.store(2, Ordering::SeqCst);
                gate.wake();
                sleeper.join().expect("sleeper panicked");
            });
            assert_eq!(counts, [1, 0, 0], "[poll hits, parks, unparks]");
        });
    }

    #[test]
    fn a_condition_already_true_costs_one_predicate_call() {
        let _serial = gates();
        let gate = WakeGate::default();
        let mut looks = 0;
        let counts = gate_counts(|| {
            gate.sleep_until(|| {
                looks += 1;
                true
            })
        });
        assert_eq!(looks, 1);
        assert_eq!(counts, [1, 0, 0], "[poll hits, parks, unparks]");
    }
}
