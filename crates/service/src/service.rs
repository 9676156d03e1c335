//! The serving pipeline: polling workers, never more than the cores they can
//! run on, behind bounded SPSC mailboxes, with one execution path and
//! admission-based backpressure.
//!
//! # Architecture
//!
//! A [`Service`] wraps a shard router (`ShardedSkipTrie`) and spawns
//! `min(shards, max(1, cores − 1))` **worker threads**; worker `w` serves every
//! shard `s` with `s % workers == w`, and the core left over is the
//! connections', which poll for their replies. Each [`Connection`] owns one
//! *lane* per shard — a pair of bounded SPSC rings (requests in, responses out)
//! plus in-flight accounting — registered with the one worker that owns the
//! shard, so every ring in the system has exactly one producer and one
//! consumer and needs no CAS.
//!
//! * **Routing.** Point verbs go to the worker owning `shard_of(key)`. Ordered
//!   and range verbs route by their probe key but the worker executes them
//!   through the *router*, so read-only stepping across shard boundaries works.
//!   Pop and caller-supplied batch verbs are **fenced**: the connection waits
//!   for its own in-flight requests to complete, then executes the verb inline
//!   on the submitting thread (preserving per-connection program order without
//!   cross-worker coordination).
//! * **Backpressure.** Admission requires `submitted - drained < queue_cap`
//!   per lane. Because a response is only produced after its request leaves
//!   the request ring, this single check bounds *both* rings; a full lane
//!   rejects the request ([`Connection::submit`] returns it) and bumps
//!   [`Counter::SvcShed`]. Nothing in the pipeline blocks or grows without
//!   bound.
//! * **One execution path.** A worker visits its lanes round-robin, pops up to
//!   [`LANE_VISIT`] requests from each in FIFO order and executes and answers
//!   them one at a time through `execute_verb` — the same function the fenced
//!   verbs run through. The bound is there for fairness, not batching: it caps
//!   how long one deep lane keeps the worker from its neighbours.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use skiptrie::{OrderedKv, ShardEngine, ShardedSkipTrie, WakeGate};
use skiptrie_metrics::{record, Counter, LatencyClasses};

use crate::request::{OpClass, Reply, Request, Response, Verb};
use crate::spsc::Spsc;

/// Tuning for a [`Service`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Per-(connection, shard) in-flight bound; both mailbox rings are sized
    /// to this. Rounded up to a power of two.
    pub queue_cap: usize,
}

/// Requests a worker serves from one lane before it moves to the next: what
/// keeps one deep lane from starving its neighbours on the same shard.
const LANE_VISIT: usize = 64;

/// Looks a connection takes at replies that have not come — in `fence`, and in
/// `poll` while requests are in flight — before every further look also yields
/// the CPU. A client that spins on its replies holds, on a host with fewer
/// cores than threads, the very CPU a worker needs to produce them.
const SPINS_BEFORE_YIELD: u32 = 64;

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { queue_cap: 1024 }
    }
}

/// A request in flight between a connection and a service worker.
struct Envelope {
    seq: u64,
    verb: Verb,
    submit_ns: u64,
    enqueue_ns: u64,
}

/// One (connection, shard) mailbox pair. The connection produces requests and
/// consumes responses; the shard's worker does the opposite; `completed` is the
/// only cross-thread counter (worker writes, connection reads).
struct Lane {
    requests: Spsc<Envelope>,
    responses: Spsc<Response>,
    completed: AtomicU64,
}

/// Per-worker bookkeeping shared between the service, its connections, and
/// the worker thread itself.
#[derive(Default)]
struct WorkerSlot {
    /// Lanes of the live connections on the shards this worker owns: `connect`
    /// registers, the connection's drop unregisters. The worker keeps a local
    /// snapshot and only takes this lock when `version` moves.
    lanes: Mutex<Vec<Arc<Lane>>>,
    version: AtomicUsize,
    /// The idle worker sleeps here; whoever pushes a request, registers or
    /// unregisters a lane, or raises `stop` wakes it afterwards.
    idle: WakeGate,
}

struct Shared<E: ShardEngine<u64>> {
    router: Arc<ShardedSkipTrie<u64, E>>,
    config: ServiceConfig,
    start: Instant,
    stop: AtomicBool,
    /// One slot per worker; shard `s` belongs to `workers[s % workers.len()]`.
    workers: Vec<WorkerSlot>,
    /// Latency from *virtual send time* to completion — the
    /// coordinated-omission-inclusive figure.
    virtual_latency: LatencyClasses,
    /// Latency from mailbox admission to completion — pure service time.
    service_latency: LatencyClasses,
}

impl<E: ShardEngine<u64>> Shared<E> {
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// The slot of the worker that owns `shard`.
    fn owner(&self, shard: usize) -> &WorkerSlot {
        &self.workers[shard % self.workers.len()]
    }

    /// Executes one verb against the router: the only place a [`Verb`] becomes
    /// a [`Reply`], for the workers (routed verbs) and the connections
    /// (fenced verbs) alike, so pipeline and direct execution cannot drift
    /// apart semantically.
    fn execute_verb(&self, verb: &Verb) -> Reply {
        match verb {
            Verb::Get(key) => Reply::Value(self.router.get(*key)),
            Verb::Insert(key, value) => Reply::Inserted(self.router.insert(*key, *value)),
            Verb::Remove(key) => Reply::Removed(self.router.remove(*key)),
            Verb::Predecessor(key) => Reply::Entry(self.router.predecessor(*key)),
            Verb::Successor(key) => Reply::Entry(self.router.successor(*key)),
            Verb::Scan { from, limit } => {
                Reply::Entries(self.router.range(*from..).take(*limit).collect())
            }
            Verb::PopFirst => Reply::Entry(self.router.pop_first()),
            Verb::PopLast => Reply::Entry(self.router.pop_last()),
            Verb::InsertBatch(entries) => Reply::Count(self.router.insert_batch(entries)),
            Verb::RemoveBatch(keys) => Reply::Count(self.router.remove_batch(keys)),
            Verb::GetBatch(keys) => Reply::Values(self.router.get_batch(keys)),
        }
    }

    fn record_latency(&self, response: &Response) {
        let class = response.class.index();
        self.virtual_latency
            .record(class, response.virtual_latency_ns());
        self.service_latency
            .record(class, response.service_latency_ns());
    }
}

/// The serving pipeline over a shard router. See the [crate docs](crate) for
/// the architecture; construct with [`Service::new`] and open per-thread
/// [`Connection`]s with [`Service::connect`].
///
/// Dropping the service stops and joins every worker; requests already
/// admitted are completed first.
pub struct Service<E: ShardEngine<u64>> {
    shared: Arc<Shared<E>>,
    handles: Vec<JoinHandle<()>>,
}

impl<E: ShardEngine<u64>> Service<E> {
    /// Spawns `min(shards, max(1, cores − 1))` worker threads over the shards
    /// of `router`, where `cores` is what [`thread::available_parallelism`]
    /// reports (it honours the affinity mask and the cgroup quota).
    pub fn new(router: Arc<ShardedSkipTrie<u64, E>>, config: ServiceConfig) -> Self {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        let workers = worker_count(router.shard_count(), cores);
        Self::with_workers(router, config, workers)
    }

    /// Spawns exactly `workers` worker threads; worker `w` serves every shard
    /// `s` with `s % workers == w`.
    fn with_workers(
        router: Arc<ShardedSkipTrie<u64, E>>,
        config: ServiceConfig,
        workers: usize,
    ) -> Self {
        assert!(config.queue_cap > 0, "queue_cap must be positive");
        assert!(
            (1..=router.shard_count()).contains(&workers),
            "a service runs between one worker and one per shard"
        );
        let labels = OpClass::labels();
        let shared = Arc::new(Shared {
            router,
            config,
            start: Instant::now(),
            stop: AtomicBool::new(false),
            workers: (0..workers).map(|_| WorkerSlot::default()).collect(),
            virtual_latency: LatencyClasses::new(&labels),
            service_latency: LatencyClasses::new(&labels),
        });
        let handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("svc-worker-{worker}"))
                    .spawn(move || worker_loop(&shared, worker))
                    .expect("spawn service worker")
            })
            .collect();
        Service { shared, handles }
    }

    /// Opens a connection: one bounded lane per shard, each registered with
    /// the worker that owns its shard. Connections are single-threaded
    /// handles — open one per client thread.
    pub fn connect(&self) -> Connection<E> {
        let cap = self.shared.config.queue_cap;
        let lanes: Vec<LaneState> = (0..self.shared.router.shard_count())
            .map(|shard| {
                let lane = Arc::new(Lane {
                    requests: Spsc::with_capacity(cap),
                    responses: Spsc::with_capacity(cap),
                    completed: AtomicU64::new(0),
                });
                let slot = self.shared.owner(shard);
                slot.lanes.lock().unwrap().push(Arc::clone(&lane));
                slot.version.fetch_add(1, Ordering::Release);
                slot.idle.wake();
                LaneState {
                    lane,
                    submitted: 0,
                    drained: 0,
                }
            })
            .collect();
        Connection {
            shared: Arc::clone(&self.shared),
            lanes,
            inline: VecDeque::new(),
            next_seq: 0,
            next_drain: 0,
            empty_polls: 0,
        }
    }

    /// Nanoseconds since this service started — the clock every
    /// [`Request::submit_ns`] and [`Response`] timestamp lives on.
    pub fn now_ns(&self) -> u64 {
        self.shared.now_ns()
    }

    /// Per-class latency measured from *virtual send time* to completion.
    /// Under overload this includes the queueing the arrival schedule implies
    /// (no coordinated omission).
    pub fn virtual_latency(&self) -> &LatencyClasses {
        &self.shared.virtual_latency
    }

    /// Per-class latency measured from mailbox admission to completion:
    /// service time only. The gap between this and
    /// [`Service::virtual_latency`] *is* the coordinated-omission error a
    /// closed-loop harness would hide.
    pub fn service_latency(&self) -> &LatencyClasses {
        &self.shared.service_latency
    }

    /// The router this service executes against.
    pub fn router(&self) -> &Arc<ShardedSkipTrie<u64, E>> {
        &self.shared.router
    }
}

impl<E: ShardEngine<u64>> Drop for Service<E> {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for slot in &self.shared.workers {
            slot.idle.wake();
        }
        for handle in self.handles.drain(..) {
            handle.join().expect("service worker panicked");
        }
    }
}

/// Connection-private view of one lane: the shared mailboxes plus the
/// admission counters only this connection touches.
struct LaneState {
    lane: Arc<Lane>,
    /// Requests pushed into `lane.requests` (written only by the connection).
    submitted: u64,
    /// Responses popped from `lane.responses` (written only by the connection).
    drained: u64,
}

impl LaneState {
    fn in_flight(&self) -> u64 {
        self.submitted - self.drained
    }
}

/// A single-threaded client handle onto a [`Service`].
///
/// Submit with [`Connection::submit`]; collect completions with
/// [`Connection::poll`], [`Connection::drain`] or [`Connection::wait_idle`].
/// Responses for routed verbs arrive in per-shard FIFO order; fenced verbs
/// (pop / caller-supplied batch) complete before `submit` returns and are
/// delivered by the next `poll`.
///
/// Dropping the connection waits for the requests it was admitted to execute
/// (their responses are discarded), then unregisters each lane from the
/// worker that owns its shard, so a long-lived service keeps only its live
/// connections' mailboxes.
pub struct Connection<E: ShardEngine<u64>> {
    shared: Arc<Shared<E>>,
    lanes: Vec<LaneState>,
    /// Responses of fenced verbs, handed out by `poll` ahead of lane traffic.
    inline: VecDeque<Response>,
    next_seq: u64,
    next_drain: usize,
    /// Consecutive `poll`s that found no reply while requests were in flight.
    empty_polls: u32,
}

impl<E: ShardEngine<u64>> Connection<E> {
    /// Submits one request. Returns the request's sequence number, or gives
    /// the verb back if the owning lane is at capacity (backpressure) or the
    /// service is shutting down — both count as [`Counter::SvcShed`].
    ///
    /// `submit_ns` is the virtual send time on the service clock
    /// ([`Service::now_ns`] / [`Connection::now_ns`]); closed-loop callers
    /// just pass "now".
    pub fn submit(&mut self, request: Request) -> Result<u64, Verb> {
        let Request { verb, submit_ns } = request;
        if self.shared.stop.load(Ordering::SeqCst) {
            record(Counter::SvcShed);
            return Err(verb);
        }
        match verb.routing_key() {
            Some(key) => self.submit_routed(key, verb, submit_ns),
            None => Ok(self.execute_fenced(verb, submit_ns)),
        }
    }

    fn submit_routed(&mut self, key: u64, verb: Verb, submit_ns: u64) -> Result<u64, Verb> {
        let shard = self.shared.router.shard_of(key);
        let state = &mut self.lanes[shard];
        if state.in_flight() >= self.shared.config.queue_cap as u64 {
            record(Counter::SvcShed);
            return Err(verb);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let envelope = Envelope {
            seq,
            verb,
            submit_ns,
            enqueue_ns: self.shared.now_ns(),
        };
        state
            .lane
            .requests
            .push(envelope)
            .unwrap_or_else(|_| panic!("admission bound keeps the request ring non-full"));
        state.submitted += 1;
        record(Counter::SvcEnqueued);
        self.shared.owner(shard).idle.wake();
        Ok(seq)
    }

    /// Fence-and-execute for pop/batch verbs: wait for this connection's
    /// in-flight requests, run the verb inline through the shared executor,
    /// stash the response for the next `poll`.
    fn execute_fenced(&mut self, verb: Verb, submit_ns: u64) -> u64 {
        self.fence();
        let seq = self.next_seq;
        self.next_seq += 1;
        let class = verb.class();
        let enqueue_ns = self.shared.now_ns();
        let reply = self.shared.execute_verb(&verb);
        let response = Response {
            seq,
            reply,
            class,
            submit_ns,
            enqueue_ns,
            done_ns: self.shared.now_ns(),
        };
        record(Counter::SvcEnqueued);
        self.shared.record_latency(&response);
        self.inline.push_back(response);
        seq
    }

    /// Blocks until every routed request this connection submitted has been
    /// *executed* (its response may still be waiting in a response ring).
    fn fence(&mut self) {
        for state in &self.lanes {
            let mut spins = 0u32;
            while state.lane.completed.load(Ordering::Acquire) < state.submitted {
                spins += 1;
                if spins < SPINS_BEFORE_YIELD {
                    std::hint::spin_loop();
                } else {
                    thread::yield_now();
                }
            }
        }
    }

    /// Returns one completed response, if any: fenced responses first, then
    /// lane responses round-robin across shards.
    ///
    /// It never waits for a reply, but a caller that keeps asking for one that
    /// is due gives way: after 64 empty `poll`s in a row with requests in
    /// flight, each further empty `poll` yields the CPU before it returns (the
    /// worker that owes the reply may be queued behind the caller).
    pub fn poll(&mut self) -> Option<Response> {
        if let Some(response) = self.inline.pop_front() {
            return Some(response);
        }
        let shards = self.lanes.len();
        for offset in 0..shards {
            let shard = (self.next_drain + offset) % shards;
            if let Some(response) = self.lanes[shard].lane.responses.pop() {
                self.lanes[shard].drained += 1;
                self.next_drain = (shard + 1) % shards;
                self.empty_polls = 0;
                return Some(response);
            }
        }
        if self.in_flight() > 0 {
            if self.empty_polls < SPINS_BEFORE_YIELD {
                self.empty_polls += 1;
            } else {
                thread::yield_now();
            }
        }
        None
    }

    /// Drains every response currently available without blocking.
    pub fn drain(&mut self) -> Vec<Response> {
        let mut out = Vec::new();
        while let Some(response) = self.poll() {
            out.push(response);
        }
        out
    }

    /// Requests submitted but not yet drained back as responses.
    pub fn in_flight(&self) -> u64 {
        self.lanes.iter().map(LaneState::in_flight).sum::<u64>() + self.inline.len() as u64
    }

    /// Blocks until every outstanding request has completed and returns all
    /// their responses.
    pub fn wait_idle(&mut self) -> Vec<Response> {
        let mut out = Vec::new();
        loop {
            match self.poll() {
                Some(response) => out.push(response),
                None if self.in_flight() == 0 => break,
                None => thread::yield_now(),
            }
        }
        out
    }

    /// The service clock (see [`Service::now_ns`]).
    pub fn now_ns(&self) -> u64 {
        self.shared.now_ns()
    }
}

impl<E: ShardEngine<u64>> Drop for Connection<E> {
    fn drop(&mut self) {
        // Admitted requests still execute — the promise `Service`'s drop makes
        // too; only then may the workers forget the lanes.
        self.fence();
        for (shard, state) in self.lanes.iter().enumerate() {
            let slot = self.shared.owner(shard);
            // A poisoned list means a worker died; there is nothing to tidy.
            if let Ok(mut lanes) = slot.lanes.lock() {
                lanes.retain(|lane| !Arc::ptr_eq(lane, &state.lane));
            }
            slot.version.fetch_add(1, Ordering::Release);
            slot.idle.wake();
        }
    }
}

/// How many workers a service over `shards` shards runs on `cores` cores: one
/// per shard, but never more than the cores left once one is kept for the
/// connections, which poll for their replies. A worker past that count could
/// only take a CPU from another worker or from the client, and every handoff
/// between them would then wait for a context switch.
fn worker_count(shards: usize, cores: usize) -> usize {
    shards.min(cores.saturating_sub(1).max(1))
}

/// Body of one worker thread: serves the lanes of every shard it owns,
/// round-robin, a [`LANE_VISIT`] at a time.
fn worker_loop<E: ShardEngine<u64>>(shared: &Shared<E>, worker: usize) {
    let slot = &shared.workers[worker];
    let mut lanes: Vec<Arc<Lane>> = Vec::new();
    let mut seen_version = usize::MAX;
    loop {
        let version = slot.version.load(Ordering::Acquire);
        if version != seen_version {
            lanes = slot.lanes.lock().unwrap().clone();
            seen_version = version;
        }
        let mut did_work = false;
        for lane in &lanes {
            did_work |= serve_lane(shared, lane);
        }
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        if !did_work {
            slot.idle.sleep_until(|| {
                lanes.iter().any(|lane| !lane.requests.is_empty())
                    || slot.version.load(Ordering::Acquire) != seen_version
                    || shared.stop.load(Ordering::SeqCst)
            });
        }
    }
    // Shutdown drain: requests admitted before `stop` was raised still get
    // executed, so a `wait_idle` racing shutdown cannot hang.
    let lanes = slot.lanes.lock().unwrap().clone();
    for lane in &lanes {
        while serve_lane(shared, lane) {}
    }
}

/// One visit to a lane: executes and answers up to [`LANE_VISIT`] requests in
/// FIFO order. Returns whether any request was served.
fn serve_lane<E: ShardEngine<u64>>(shared: &Shared<E>, lane: &Lane) -> bool {
    let mut served = false;
    for envelope in std::iter::from_fn(|| lane.requests.pop()).take(LANE_VISIT) {
        let reply = shared.execute_verb(&envelope.verb);
        complete(shared, lane, &envelope, reply);
        served = true;
    }
    served
}

/// Publishes one response: timestamps, latency recording, response ring push,
/// completion count (in that order — `completed` is the fence's signal, so it
/// must trail the ring push).
fn complete<E: ShardEngine<u64>>(
    shared: &Shared<E>,
    lane: &Lane,
    envelope: &Envelope,
    reply: Reply,
) {
    let response = Response {
        seq: envelope.seq,
        reply,
        class: envelope.verb.class(),
        submit_ns: envelope.submit_ns,
        enqueue_ns: envelope.enqueue_ns,
        done_ns: shared.now_ns(),
    };
    shared.record_latency(&response);
    lane.responses
        .push(response)
        .unwrap_or_else(|_| panic!("admission bound keeps the response ring non-full"));
    lane.completed.fetch_add(1, Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;
    use skiptrie::ShardedSkipTrieConfig;

    /// A router over `shards` shards of a 16-bit universe.
    fn new_router(shards: usize) -> Arc<ShardedSkipTrie<u64>> {
        Arc::new(ShardedSkipTrie::new(
            ShardedSkipTrieConfig::for_universe_bits(16).with_shards(shards),
        ))
    }

    #[test]
    fn workers_never_outnumber_the_cores_left_to_them() {
        for (shards, cores, workers) in [(2, 2, 1), (2, 1, 1), (2, 4, 2), (8, 4, 3), (1, 64, 1)] {
            assert_eq!(
                worker_count(shards, cores),
                workers,
                "{shards} shards on {cores} cores"
            );
        }
    }

    #[test]
    fn every_lane_is_registered_with_exactly_the_worker_owning_its_shard() {
        for workers in 1..=4 {
            let service = Service::with_workers(new_router(4), ServiceConfig::default(), workers);
            let conns = [service.connect(), service.connect()];
            for conn in &conns {
                for (shard, state) in conn.lanes.iter().enumerate() {
                    let holders: Vec<usize> = (0..workers)
                        .filter(|&w| {
                            let lanes = service.shared.workers[w].lanes.lock().unwrap();
                            lanes.iter().any(|lane| Arc::ptr_eq(lane, &state.lane))
                        })
                        .collect();
                    assert_eq!(
                        holders,
                        [shard % workers],
                        "shard {shard} at {workers} workers"
                    );
                }
            }
            let registered: usize = service
                .shared
                .workers
                .iter()
                .map(|slot| slot.lanes.lock().unwrap().len())
                .sum();
            assert_eq!(
                registered,
                2 * 4,
                "no lane registered twice at {workers} workers"
            );
        }
    }

    #[test]
    fn dropped_connections_unregister_their_lanes() {
        for workers in [1, 2] {
            let router = new_router(2);
            let service =
                Service::with_workers(Arc::clone(&router), ServiceConfig::default(), workers);
            let submit_insert = |key: u64| {
                let mut conn = service.connect();
                let submit_ns = conn.now_ns();
                conn.submit(Request {
                    verb: Verb::Insert(key, key),
                    submit_ns,
                })
                .expect("an empty lane admits the request");
                conn
            };
            for cycle in 0..200u64 {
                // Alternate shards so both workers (at two) see lanes come and
                // go, or one worker sees both shards' (at one); the connection
                // is dropped with its request possibly still queued.
                drop(submit_insert(((cycle % 2) << 15) | cycle));
            }
            for slot in &service.shared.workers {
                assert!(
                    slot.lanes.lock().unwrap().is_empty(),
                    "a dropped connection left its lane registered at {workers} workers"
                );
            }
            assert_eq!(router.len(), 200, "admitted requests ran before teardown");
            let replies = submit_insert(0).wait_idle();
            assert_eq!(replies[0].reply, Reply::Inserted(false));
        }
    }

    #[test]
    fn a_fenced_get_batch_answers_each_key_in_input_order() {
        let router = Arc::new(ShardedSkipTrie::<u64>::new(
            ShardedSkipTrieConfig::for_universe_bits(16).with_shards(2),
        ));
        for key in (0..1u64 << 16).step_by(5) {
            router.insert(key, key * 3);
        }
        // Both shards, repeats (adjacent and not) and misses, out of key order.
        let keys = vec![
            65_530,
            10,
            11,
            10,
            1 << 15,
            0,
            65_535,
            10,
            32_770,
            32_770,
            4,
            65_530,
        ];
        let expected = router.get_batch(&keys);
        assert!(expected.contains(&None) && expected.iter().flatten().count() > 4);
        let service = Service::new(Arc::clone(&router), ServiceConfig::default());
        let mut conn = service.connect();
        let submit_ns = conn.now_ns();
        conn.submit(Request {
            verb: Verb::GetBatch(keys),
            submit_ns,
        })
        .expect("a fenced verb is never shed");
        let replies = conn.wait_idle();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].reply, Reply::Values(expected));
    }
}
