//! Shared scaffolding for concurrent correctness and stress tests.
//!
//! Every concurrent test in this workspace follows the same shape: spawn a fixed set
//! of worker threads, release them simultaneously, drive each from its own
//! deterministic RNG, and scale iteration counts with the `SKIPTRIE_SCALE`
//! environment variable so the same test runs as a quick smoke check locally and as a
//! heavy stress job in CI. [`Workload`] packages that shape once so individual tests
//! declare only their per-thread behaviour.
//!
//! # Example
//!
//! ```
//! use skiptrie_workloads::harness::{scaled, Workload};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let counter = AtomicUsize::new(0);
//! let iters = scaled(1_000);
//! Workload::new(42)
//!     .workers(4, |ctx| {
//!         // ctx.rng is seeded deterministically from (seed, ctx.index).
//!         for _ in 0..iters {
//!             counter.fetch_add(1, Ordering::Relaxed);
//!         }
//!     })
//!     .run();
//! assert_eq!(counter.load(Ordering::Relaxed), 4 * iters);
//! ```

use std::sync::Barrier;

use crate::SplitMix64;

/// Parses a `SKIPTRIE_*`-style knob value, panicking with the variable name and
/// the offending value on malformed input.
///
/// This is the pure half of [`env_knob`], split out so tests can pin the panic
/// path without racing on process-global environment variables.
///
/// # Panics
///
/// Panics if `raw` does not parse as a `T`.
pub fn parse_knob<T: std::str::FromStr>(name: &str, raw: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        panic!(
            "{name}={raw:?} is not a valid {}; unset it or fix the value",
            std::any::type_name::<T>()
        )
    })
}

/// Reads environment knob `name`: `None` when unset or empty (callers fall back
/// to their default), the parsed value otherwise.
///
/// # Panics
///
/// Panics (via [`parse_knob`]) when the variable is set to a malformed value — a
/// typo like `SKIPTRIE_SCALE=2x` must fail the run loudly instead of silently
/// running at the default scale and mislabeling the experiment.
pub fn env_knob<T: std::str::FromStr>(name: &str) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    if raw.is_empty() {
        return None;
    }
    Some(parse_knob(name, &raw))
}

/// The global test/experiment scale factor (`SKIPTRIE_SCALE`, default 1.0).
///
/// Values below 1 shrink workloads for smoke runs; values above 1 grow them for
/// stress runs and publication-quality measurements.
///
/// # Panics
///
/// Panics if `SKIPTRIE_SCALE` is set to a malformed or non-positive value
/// (unset/empty stays the default).
pub fn scale() -> f64 {
    let scale = env_knob::<f64>("SKIPTRIE_SCALE").unwrap_or(1.0);
    assert!(
        scale > 0.0 && scale.is_finite(),
        "SKIPTRIE_SCALE={scale} must be a positive finite number"
    );
    scale
}

/// Applies [`scale`] to a nominal iteration count, with a floor of 16 so even extreme
/// shrink factors still exercise the code under test.
pub fn scaled(nominal: usize) -> usize {
    ((nominal as f64 * scale()) as usize).max(16)
}

/// The CPU-affinity knob (`SKIPTRIE_PIN_CORES`): a comma-separated core list,
/// e.g. `SKIPTRIE_PIN_CORES=0,2,4,6`. `None` when unset or empty (no pinning).
///
/// The `experiments` bin and [`Workload`] pin worker `i` to `cores[i % cores.len()]`
/// (see [`pin_worker`]), so throughput numbers on multi-socket or SMT hosts
/// stop depending on where the scheduler happened to place the threads.
///
/// # Panics
///
/// Panics when the variable is set to a malformed value — a core entry that is
/// not a number, an empty entry (`0,,2`), or a core index ≥ 1024 (the mask
/// width) must fail the run loudly instead of silently running unpinned and
/// mislabeling the experiment.
pub fn pin_cores() -> Option<Vec<usize>> {
    let raw = std::env::var("SKIPTRIE_PIN_CORES").ok()?;
    if raw.is_empty() {
        return None;
    }
    let cores: Vec<usize> = raw
        .split(',')
        .map(|part| parse_knob("SKIPTRIE_PIN_CORES", part.trim()))
        .collect();
    for &core in &cores {
        assert!(
            core < MAX_PIN_CORE,
            "SKIPTRIE_PIN_CORES core {core} exceeds the supported range 0..{MAX_PIN_CORE}"
        );
    }
    Some(cores)
}

/// Largest core index [`pin_cores`] accepts (the affinity mask is 1024 bits).
pub const MAX_PIN_CORE: usize = 64 * AFFINITY_MASK_WORDS;

const AFFINITY_MASK_WORDS: usize = 16;

/// Pins the calling thread to the core `SKIPTRIE_PIN_CORES` assigns to worker
/// `index` (round-robin over the configured list). No-op when the knob is
/// unset.
///
/// # Panics
///
/// Panics on a malformed knob value (see [`pin_cores`]), when the kernel
/// rejects the requested core (e.g. it does not exist on this host), and on
/// platforms where pinning is unsupported — an affinity request that cannot be
/// honored must not silently degrade into an unpinned run.
pub fn pin_worker(index: usize) {
    let Some(cores) = pin_cores() else {
        return;
    };
    let core = cores[index % cores.len()];
    pin_current_thread(core);
}

/// Pins the calling thread to `core` via a raw `sched_setaffinity` syscall
/// (pid 0 = calling thread). Raw because the workspace vendors no libc crate.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn pin_current_thread(core: usize) {
    assert!(core < MAX_PIN_CORE, "core {core} out of mask range");
    let mut mask = [0u64; AFFINITY_MASK_WORDS];
    mask[core / 64] |= 1u64 << (core % 64);
    let size = std::mem::size_of_val(&mask);
    let ret: isize;
    #[cfg(target_arch = "x86_64")]
    // SAFETY: sched_setaffinity(0, size, mask) reads `size` bytes from `mask`,
    // which outlives the call; the syscall clobbers only rcx/r11/rax.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret, // __NR_sched_setaffinity
            in("rdi") 0usize,
            in("rsi") size,
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly),
        );
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: as above; aarch64 passes the syscall number in x8 and returns in x0.
    unsafe {
        let raw: usize;
        std::arch::asm!(
            "svc 0",
            in("x8") 122usize, // __NR_sched_setaffinity
            inlateout("x0") 0usize => raw,
            in("x1") size,
            in("x2") mask.as_ptr(),
            options(nostack, readonly),
        );
        ret = raw as isize;
    }
    assert!(
        ret == 0,
        "SKIPTRIE_PIN_CORES: sched_setaffinity to core {core} failed (errno {}); \
         does the core exist on this host?",
        -ret
    );
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn pin_current_thread(core: usize) {
    panic!(
        "SKIPTRIE_PIN_CORES is set (requested core {core}) but thread pinning \
         is only supported on linux x86_64/aarch64; unset the variable"
    );
}

/// The deterministic RNG for worker `index` of a workload seeded with `seed`.
///
/// Exposed so a test can precompute a sequential model of what worker `index` will do
/// (e.g. the expected final contents after a churn) using exactly the stream the
/// worker itself sees.
pub fn worker_rng(seed: u64, index: usize) -> SplitMix64 {
    SplitMix64::new(seed.wrapping_add(index as u64 + 1))
}

/// Per-worker context handed to each thread body.
pub struct WorkerCtx {
    /// This worker's index, unique and dense across the whole workload (role groups
    /// added by successive [`Workload::workers`] calls continue the numbering).
    pub index: usize,
    /// This worker's deterministic RNG ([`worker_rng`] of the workload seed).
    pub rng: SplitMix64,
}

type Job<'env> = Box<dyn FnOnce(WorkerCtx) + Send + 'env>;

/// A barrier-started set of worker threads (see the module docs).
///
/// Workers are added with [`worker`](Workload::worker) (one closure) or
/// [`workers`](Workload::workers) (a cloned closure per thread, e.g. "8 writers");
/// heterogeneous role mixes compose by chaining the two. [`run`](Workload::run)
/// spawns every worker in a [`std::thread::scope`], releases them through a shared
/// [`Barrier`] so they contend from the first operation, and joins them all (a worker
/// panic propagates and fails the test).
///
/// # Examples
///
/// A heterogeneous mix — two writers and one reader, all barrier-started:
///
/// ```
/// use skiptrie_workloads::harness::Workload;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let hits = AtomicU64::new(0);
/// Workload::new(7)
///     .workers(2, |mut ctx| {
///         // ctx.rng is deterministic per (seed, ctx.index).
///         hits.fetch_add(ctx.rng.next() % 5, Ordering::Relaxed);
///     })
///     .worker(|ctx| {
///         assert_eq!(ctx.index, 2, "role groups continue the numbering");
///     })
///     .run();
/// ```
#[must_use = "call .run() to execute the workload"]
pub struct Workload<'env> {
    seed: u64,
    jobs: Vec<Job<'env>>,
}

impl<'env> Workload<'env> {
    /// Starts an empty workload whose workers derive their RNGs from `seed`.
    pub fn new(seed: u64) -> Self {
        Workload {
            seed,
            jobs: Vec::new(),
        }
    }

    /// Adds one worker thread.
    pub fn worker(mut self, f: impl FnOnce(WorkerCtx) + Send + 'env) -> Self {
        self.jobs.push(Box::new(f));
        self
    }

    /// Adds `n` worker threads each running a clone of `f`.
    pub fn workers(mut self, n: usize, f: impl Fn(WorkerCtx) + Clone + Send + 'env) -> Self {
        for _ in 0..n {
            let f = f.clone();
            self.jobs.push(Box::new(f));
        }
        self
    }

    /// Number of workers added so far.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if no workers have been added.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Spawns all workers barrier-started and joins them.
    pub fn run(self) {
        let barrier = Barrier::new(self.jobs.len());
        let seed = self.seed;
        std::thread::scope(|scope| {
            for (index, job) in self.jobs.into_iter().enumerate() {
                let barrier = &barrier;
                scope.spawn(move || {
                    pin_worker(index);
                    barrier.wait();
                    job(WorkerCtx {
                        index,
                        rng: worker_rng(seed, index),
                    });
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    fn pinning_to_core_zero_succeeds() {
        // Spawned thread so the test harness thread itself stays unpinned.
        std::thread::spawn(|| pin_current_thread(0)).join().unwrap();
    }

    #[test]
    #[should_panic(expected = "SKIPTRIE_PIN_CORES")]
    fn malformed_pin_core_entry_fails_loudly() {
        let _: usize = parse_knob("SKIPTRIE_PIN_CORES", "zero");
    }

    #[test]
    fn workers_all_run_with_dense_indexes() {
        let seen = AtomicUsize::new(0);
        Workload::new(7)
            .workers(3, |ctx| {
                seen.fetch_add(1 << ctx.index, Ordering::Relaxed);
            })
            .worker(|ctx| {
                assert_eq!(ctx.index, 3, "single worker continues the numbering");
                seen.fetch_add(1 << ctx.index, Ordering::Relaxed);
            })
            .run();
        assert_eq!(seen.load(Ordering::Relaxed), 0b1111);
    }

    #[test]
    fn worker_rng_matches_ctx_rng() {
        let first = std::sync::Mutex::new(Vec::new());
        Workload::new(99)
            .workers(4, |mut ctx| {
                first.lock().unwrap().push((ctx.index, ctx.rng.next()));
            })
            .run();
        let mut observed = first.into_inner().unwrap();
        observed.sort_unstable();
        for (index, value) in observed {
            assert_eq!(value, worker_rng(99, index).next());
        }
    }

    #[test]
    fn scaled_has_a_floor_and_tracks_scale() {
        assert!(scaled(0) >= 16);
        assert!(scaled(10_000) >= 16);
    }

    #[test]
    fn knobs_parse_valid_values() {
        assert_eq!(parse_knob::<f64>("SKIPTRIE_SCALE", "2.5"), 2.5);
        assert_eq!(parse_knob::<usize>("SKIPTRIE_MAX_THREADS", "8"), 8);
    }

    #[test]
    #[should_panic(expected = "SKIPTRIE_MAX_THREADS=\"x\"")]
    fn malformed_thread_cap_panics_with_name_and_value() {
        parse_knob::<usize>("SKIPTRIE_MAX_THREADS", "x");
    }

    #[test]
    fn unset_and_empty_knobs_fall_back_to_defaults() {
        // A name no other test or CI job sets: unset must read as None...
        assert_eq!(env_knob::<usize>("SKIPTRIE_TEST_UNSET_KNOB"), None);
        // ...and so must set-but-empty (`SKIPTRIE_X= cargo test` idiom). The var
        // name is unique to this test, so the process-global write cannot race
        // with another test's read.
        std::env::set_var("SKIPTRIE_TEST_EMPTY_KNOB", "");
        assert_eq!(env_knob::<usize>("SKIPTRIE_TEST_EMPTY_KNOB"), None);
    }

    #[test]
    #[should_panic(expected = "SKIPTRIE_SCALE=\"2x\"")]
    fn malformed_scale_panics_with_name_and_value() {
        parse_knob::<f64>("SKIPTRIE_SCALE", "2x");
    }

    #[test]
    fn empty_and_len_report_workers() {
        let w = Workload::new(1);
        assert!(w.is_empty());
        let w = w.workers(2, |_| {});
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
        w.run();
    }
}
