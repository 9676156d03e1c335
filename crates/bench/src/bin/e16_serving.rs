//! Experiment E16 — the serving pipeline under open-loop load:
//! throughput–latency curves vs offered rate, with tail-latency truth.
//!
//! Every prior experiment drove structures closed-loop: each worker issues its
//! next op when the previous one returns, so under saturation the *load slows
//! down with the system* and the reported latency silently omits queueing —
//! the coordinated-omission problem. E16 drives the `skiptrie-service`
//! pipeline (thread-per-shard executors over bounded SPSC mailboxes, routed by
//! top key bits) with the open-loop [`LoadDriver`]: arrivals are scheduled on
//! the wall clock, never skipped, and stamped with their *virtual* send time,
//! so latency measured from that stamp includes the queueing the schedule
//! implies.
//!
//! Tables:
//!
//! * **E16a** — the throughput–latency curve: offered rate (as a fraction of a
//!   closed-loop calibration run) vs achieved rate, shed fraction, schedule
//!   lag, and point-op p99 in both timebases. The overload knee is where shed
//!   or lag first departs from ~0 while achieved flattens; bounded mailboxes
//!   mean the run *completes* past the knee instead of building an unbounded
//!   queue — backpressure is counted (`SvcShed`), not hidden.
//! * **E16b** — per-op-class latency detail (p50/p99/p999, documented ≤2×
//!   bucket error) at every offered rate, in both the virtual-send-time
//!   (coordinated-omission-inclusive) and enqueue-time (service-only)
//!   timebases.
//! * **E16c** — the coordinated-omission gap: at the top offered rate the
//!   virtual-time p99 must be ≥ the service-time p99 (asserted); the ratio is
//!   exactly the latency a closed-loop harness would have omitted. Includes a
//!   Poisson-arrivals row — the burstier process that widens the gap at the
//!   same average rate.
//!
//! Knobs: `SKIPTRIE_SVC_DRIVERS` (open-loop driver threads, default 2),
//! `SKIPTRIE_TIER_WATERMARK` (per-shard fold watermark, default
//! 4096), `SKIPTRIE_SHARDS`, `SKIPTRIE_SCALE`, `SKIPTRIE_JSON`.

use std::sync::Mutex;

use skiptrie::{ShardedSkipTrieConfig, TieredForest};
use skiptrie_bench::{env_knob, print_table, scale, scaled, write_json_summary};
use skiptrie_metrics::Histogram;
use skiptrie_service::{Request, Service, ServiceConfig, Verb};
use skiptrie_workloads::harness::shards;
use skiptrie_workloads::{LoadDriver, LoadReport, Pacing, SplitMix64, WorkloadSpec};

const UNIVERSE_BITS: u32 = 24;
const KEY_MASK: u64 = (1 << UNIVERSE_BITS) - 1;

fn watermark() -> usize {
    let w = env_knob::<usize>("SKIPTRIE_TIER_WATERMARK").unwrap_or(4096);
    assert!(w > 0, "SKIPTRIE_TIER_WATERMARK must be positive");
    w
}

fn driver_threads() -> usize {
    let t = env_knob::<usize>("SKIPTRIE_SVC_DRIVERS").unwrap_or(2);
    assert!(t > 0, "SKIPTRIE_SVC_DRIVERS must be positive");
    t
}

/// The E16 request mix, per mille: balanced point churn (30% insert / 30%
/// remove / 20% get), ordered probes (8% predecessor / 6% successor), short
/// scans (5%), and a pinch of fenced traffic (0.5% pops, 0.5% 8-key
/// `GetBatch`) so every op class shows up in the latency tables without the
/// fences serializing the pipeline.
fn verb_stream(seed: u64, thread: usize, count: usize) -> Vec<Verb> {
    let mut rng = SplitMix64::new(seed ^ (0xE16_0000 + thread as u64));
    (0..count)
        .map(|_| {
            let key = rng.next() & KEY_MASK;
            match rng.next_below(1000) {
                0..=299 => Verb::Insert(key, key ^ 0x5a5a),
                300..=599 => Verb::Remove(key),
                600..=799 => Verb::Get(key),
                800..=879 => Verb::Predecessor(key),
                880..=939 => Verb::Successor(key),
                940..=989 => Verb::Scan {
                    from: key,
                    limit: 16,
                },
                990..=994 => {
                    if key & 1 == 0 {
                        Verb::PopFirst
                    } else {
                        Verb::PopLast
                    }
                }
                _ => Verb::GetBatch((0..8).map(|_| rng.next() & KEY_MASK).collect()),
            }
        })
        .collect()
}

struct RateRun {
    report: LoadReport,
    virt: Vec<(&'static str, Histogram)>,
    svc: Vec<(&'static str, Histogram)>,
}

/// Runs one offered-rate point: fresh pipeline over the shared forest, one
/// connection per driver thread, paced submissions with per-submit response
/// draining, then a full drain so every admitted request is accounted.
fn run_rate(
    forest: &TieredForest<u64>,
    driver: LoadDriver,
    threads: usize,
    ops_per_thread: usize,
    seed: u64,
    config: ServiceConfig,
) -> RateRun {
    let service = Service::new(forest.router(), config);
    let connections: Vec<Mutex<_>> = (0..threads)
        .map(|_| Mutex::new(service.connect()))
        .collect();
    let streams: Vec<Vec<Verb>> = (0..threads)
        .map(|t| verb_stream(seed, t, ops_per_thread))
        .collect();
    let epoch = service.now_ns();
    let report = driver.drive(threads, ops_per_thread, seed, |thread, op, send_ns| {
        let mut conn = connections[thread].lock().expect("connection poisoned");
        // Keep admission honest: harvest a few completions per submission so a
        // healthy pipeline never sheds on an undrained response ring.
        for _ in 0..4 {
            if conn.poll().is_none() {
                break;
            }
        }
        let verb = streams[thread][op].clone();
        conn.submit(Request {
            verb,
            submit_ns: epoch + send_ns,
        })
        .is_ok()
    });
    for conn in &connections {
        conn.lock().expect("connection poisoned").wait_idle();
    }
    let virt = service.virtual_latency().snapshot();
    let svc = service.service_latency().snapshot();
    RateRun { report, virt, svc }
}

fn p(h: &Histogram, q: f64) -> String {
    if h.count() == 0 {
        "-".into()
    } else {
        format!("{:.0}", h.quantile(q) as f64 / 1000.0)
    }
}

fn class_hist<'a>(classes: &'a [(&'static str, Histogram)], label: &str) -> &'a Histogram {
    &classes
        .iter()
        .find(|(l, _)| *l == label)
        .expect("class label exists")
        .1
}

fn main() {
    let threads = driver_threads();
    let prefill = scaled(100_000);
    let spec = WorkloadSpec::read_only(UNIVERSE_BITS, prefill, 0, 0xE16);
    let sorted = spec.sorted_prefill_entries();
    let forest: TieredForest<u64> = TieredForest::from_sorted(
        ShardedSkipTrieConfig::for_universe_bits(UNIVERSE_BITS)
            .with_shards(shards(4))
            .with_merge_watermark(watermark()),
        &sorted,
    );
    assert!(forest.is_quiesced());

    // Closed-loop calibration: "as fast as possible" through the very same
    // pipeline fixes the machine's service capacity; offered rates for the
    // open-loop sweep are set relative to it so the sweep brackets the knee on
    // any host.
    let calibration = run_rate(
        &forest,
        LoadDriver::Closed,
        threads,
        scaled(30_000),
        0xCA11,
        ServiceConfig::default(),
    );
    let capacity = calibration.report.achieved_ops_per_sec();
    assert!(capacity > 0.0, "calibration run made no progress");

    // Window per rate point; ops are derived from rate x window so every row
    // runs long enough to populate tails but CI at SKIPTRIE_SCALE=0.1 stays fast.
    let window_secs = (0.4 * scale()).clamp(0.05, 4.0);
    let fractions = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0];

    let mut curve_rows = Vec::new();
    let mut detail_rows = Vec::new();
    let mut runs: Vec<(f64, RateRun)> = Vec::new();
    for (i, &fraction) in fractions.iter().enumerate() {
        let rate = capacity * fraction;
        let ops_per_thread = ((rate * window_secs) / threads as f64).max(200.0) as usize;
        let run = run_rate(
            &forest,
            LoadDriver::Open(Pacing::FixedRate { ops_per_sec: rate }),
            threads,
            ops_per_thread,
            0xE16 + i as u64,
            ServiceConfig::default(),
        );
        let report = &run.report;
        let shed_pct = 100.0 * report.shed as f64 / report.offered.max(1) as f64;
        curve_rows.push(vec![
            format!("{fraction:.2}"),
            format!("{rate:.0}"),
            format!("{:.0}", report.achieved_ops_per_sec()),
            report.sent.to_string(),
            format!("{shed_pct:.1}"),
            format!("{:.2}", report.max_lag_ns as f64 / 1e6),
            report.late_ops.to_string(),
            p(class_hist(&run.virt, "point"), 0.99),
            p(class_hist(&run.svc, "point"), 0.99),
        ]);
        for (label, virt_hist) in &run.virt {
            if virt_hist.count() == 0 {
                continue;
            }
            let svc_hist = class_hist(&run.svc, label);
            detail_rows.push(vec![
                format!("{fraction:.2}"),
                (*label).to_string(),
                virt_hist.count().to_string(),
                p(virt_hist, 0.50),
                p(virt_hist, 0.99),
                p(virt_hist, 0.999),
                p(svc_hist, 0.50),
                p(svc_hist, 0.99),
                p(svc_hist, 0.999),
            ]);
        }
        runs.push((fraction, run));
    }
    print_table(
        "E16a serving pipeline: throughput-latency curve vs offered rate",
        &[
            "offered/cap",
            "offered_ops_s",
            "achieved_ops_s",
            "sent",
            "shed_%",
            "max_lag_ms",
            "late_ops",
            "point_p99_virt_us",
            "point_p99_svc_us",
        ],
        &curve_rows,
    );
    print_table(
        "E16b per-class latency (us; virtual = CO-inclusive, svc = enqueue->done; quantiles carry a <=2x bucket error)",
        &[
            "offered/cap",
            "class",
            "count",
            "virt_p50",
            "virt_p99",
            "virt_p999",
            "svc_p50",
            "svc_p99",
            "svc_p999",
        ],
        &detail_rows,
    );

    // --- E16c: the coordinated-omission gap, plus a Poisson-arrivals row. ---
    let (_, top) = runs.last().expect("sweep is non-empty");
    let top_virt = class_hist(&top.virt, "point");
    let top_svc = class_hist(&top.svc, "point");
    assert!(
        top_virt.quantile(0.99) >= top_svc.quantile(0.99),
        "under overload, virtual-send-time latency must dominate service time \
         (virt p99 {} < svc p99 {}): the open-loop driver is not measuring \
         coordinated omission",
        top_virt.quantile(0.99),
        top_svc.quantile(0.99),
    );
    let overloaded = runs
        .iter()
        .any(|(_, run)| run.report.shed > 0 || run.report.max_lag_ns > 10_000_000);
    assert!(
        overloaded,
        "the sweep never pushed past the knee: raise the top fraction"
    );
    let poisson_rate = capacity * 0.75;
    let poisson = run_rate(
        &forest,
        LoadDriver::Open(Pacing::Poisson {
            ops_per_sec: poisson_rate,
        }),
        threads,
        ((poisson_rate * window_secs) / threads as f64).max(200.0) as usize,
        0xE16C,
        ServiceConfig::default(),
    );
    let mut co_rows = vec![vec![
        "fixed@2.00".to_string(),
        p(top_virt, 0.99),
        p(top_svc, 0.99),
        format!(
            "{:.1}",
            top_virt.quantile(0.99) as f64 / top_svc.quantile(0.99).max(1) as f64
        ),
    ]];
    co_rows.push(vec![
        "poisson@0.75".to_string(),
        p(class_hist(&poisson.virt, "point"), 0.99),
        p(class_hist(&poisson.svc, "point"), 0.99),
        format!(
            "{:.1}",
            class_hist(&poisson.virt, "point").quantile(0.99) as f64
                / class_hist(&poisson.svc, "point").quantile(0.99).max(1) as f64
        ),
    ]);
    print_table(
        "E16c coordinated-omission gap (point ops, p99 us): virtual-time vs service-time latency",
        &["arrivals@frac", "virt_p99_us", "svc_p99_us", "co_gap_x"],
        &co_rows,
    );

    // --- E16d: backpressure engages when the mailboxes bound tighter than the
    // backlog. Same 2x-overload arrivals, but the per-lane cap is shrunk so
    // the in-flight window — not the driver's schedule lag — is the binding
    // constraint: admission must shed, the run must still complete (bounded
    // queues, no deadlock), and every admitted request must get its response.
    let tight = ServiceConfig { queue_cap: 16 };
    let overload_rate = capacity * 2.0;
    let tight_run = run_rate(
        &forest,
        LoadDriver::Open(Pacing::FixedRate {
            ops_per_sec: overload_rate,
        }),
        threads,
        ((overload_rate * window_secs) / threads as f64).max(400.0) as usize,
        0xE16D,
        tight,
    );
    let report = &tight_run.report;
    assert_eq!(
        report.sent + report.shed,
        report.offered,
        "every scheduled arrival is either admitted or counted as shed"
    );
    assert!(
        report.shed > 0,
        "a 16-deep lane under 2x overload must shed (got {} sends, 0 sheds)",
        report.sent
    );
    print_table(
        "E16d backpressure at 2x overload with queue_cap=16: shed is counted, not queued",
        &["offered", "sent", "shed", "shed_%", "achieved_ops_s"],
        &[vec![
            report.offered.to_string(),
            report.sent.to_string(),
            report.shed.to_string(),
            format!(
                "{:.1}",
                100.0 * report.shed as f64 / report.offered.max(1) as f64
            ),
            format!("{:.0}", report.achieved_ops_per_sec()),
        ]],
    );

    write_json_summary("e16_serving");
}
