//! The workspace's one sleep/wake primitive: a level-triggered gate for a single
//! sleeping thread and any number of wakers.
//!
//! A waker publishes its condition (any atomic write), then calls
//! [`WakeGate::wake`]; the sleeper calls [`WakeGate::sleep_until`] with a
//! predicate over that condition. Neither side can miss the other:
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

use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::OnceLock;
use std::thread::{self, Thread};

/// A level-triggered sleep/wake gate; see the [module docs](self). `default()`
/// is a gate nobody sleeps on yet.
#[derive(Debug, Default)]
pub struct WakeGate {
    /// Up while the sleeper is inside [`WakeGate::sleep_until`].
    sleeping: AtomicBool,
    /// The one thread that sleeps here, registered by its first sleep.
    sleeper: OnceLock<Thread>,
}

impl WakeGate {
    /// Call *after* publishing the condition the sleeper's predicate reads.
    /// Costs one fence and one load unless the sleeper is actually asleep.
    pub fn wake(&self) {
        fence(Ordering::SeqCst);
        // SeqCst load pairs with the sleeper's SeqCst store: seeing the flag up
        // also makes the `sleeper` registration that preceded it visible.
        if self.sleeping.load(Ordering::SeqCst) {
            if let Some(sleeper) = self.sleeper.get() {
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
        self.sleeping.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        while !ready() {
            thread::park();
        }
        self.sleeping.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

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

    #[test]
    fn a_stolen_park_token_cannot_lose_a_wake() {
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

    #[test]
    fn ping_pong_never_strands_either_side() {
        const ROUNDS: u64 = 100_000;
        within_secs(60, || {
            // `turn` counts completed half-rounds: the pinger moves it from even
            // to odd, the ponger from odd to even, each sleeping on its own gate.
            let shared = Arc::new((WakeGate::default(), WakeGate::default(), AtomicU64::new(0)));
            let ponger = {
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    let (ping, pong, turn) = &*shared;
                    for round in 0..ROUNDS {
                        pong.sleep_until(|| turn.load(Ordering::Relaxed) == 2 * round + 1);
                        turn.store(2 * round + 2, Ordering::Relaxed);
                        ping.wake();
                    }
                })
            };
            let (ping, pong, turn) = &*shared;
            for round in 0..ROUNDS {
                turn.store(2 * round + 1, Ordering::Relaxed);
                pong.wake();
                ping.sleep_until(|| turn.load(Ordering::Relaxed) == 2 * round + 2);
            }
            ponger.join().expect("ponger panicked");
        });
    }
}
