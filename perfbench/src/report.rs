//! The metric tables (names and units, mirrored by `BENCHMARK.json`) and the
//! two outputs of a run: a table for people and one JSON line for the driver.

use crate::stats::Summary;

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user of the system sees; printed by the timed (untraced) run of
/// every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("throughput_ops_s", "ops/s"),
    m("read_p50_ns", "ns"),
    m("write_p50_ns", "ns"),
    m("mem_bytes_per_key", "bytes/key"),
];

/// Single layers, printed by the traced run of every workload. Metrics taken
/// over the traced slice read 0 on a workload that does not pass through the
/// layer; probe metrics are the same fixed micro-measurements on every workload.
pub const PER_LAYER: &[Metric] = &[
    // Latencies a client sees, from the run's untraced slice: reported, not
    // gated (see the README for why).
    m("latency.read_p99_ns", "ns"),
    m("latency.write_p99_ns", "ns"),
    m("latency.scan_p50_ns", "ns"),
    m("latency.scan_p99_ns", "ns"),
    // From the workload's own traced slices.
    m("trie.ptr_reads_per_op", "count"),
    m("trie.hash_probes_per_op", "count"),
    m("trie.levels_crossed_per_write", "count"),
    m("trie.restarts_per_kop", "count"),
    m("splitorder.dir_grows", "count"),
    m("skiplist.pool_recycle_frac", "ratio"),
    m("skiplist.marked_skips_per_kop", "count"),
    m("atomics.dcss_fail_frac", "ratio"),
    m("atomics.cas_fail_frac", "ratio"),
    m("atomics.dcss_helps_per_kop", "count"),
    m("epoch.garbage_hwm", "count"),
    m("epoch.freed_per_retired", "ratio"),
    m("tiered.hit_frac", "ratio"),
    m("forest.fold_count", "count"),
    m("forest.shard_imbalance", "ratio"),
    m("service.submit_ns", "ns"),
    m("service.queue_exec_ns", "ns"),
    m("service.queue_wait_ns", "ns"),
    m("service.reply_wait_ns", "ns"),
    m("service.overhead_ns", "ns"),
    m("service.coalesced_frac", "ratio"),
    m("service.shed_frac", "ratio"),
    m("metrics.counters_on_overhead_frac", "ratio"),
    m("metrics.trace_overhead_frac", "ratio"),
    m("workloads.warmup_s", "s"),
    m("workloads.sched_lag_p99_ns", "ns"),
    m("workloads.late_frac", "ratio"),
    m("baselines.btree_ops_s", "ops/s"),
    // Fixed probes of each layer's public functions.
    m("trie.pred_ns", "ns"),
    m("trie.get_ns", "ns"),
    m("trie.insert_ns", "ns"),
    m("trie.remove_ns", "ns"),
    m("trie.ptr_reads_per_pred_p50", "count"),
    m("trie.ptr_reads_per_pred_mean", "count"),
    m("trie.ptr_reads_per_pred_p99", "count"),
    m("trie.hash_probes_per_pred", "count"),
    m("trie.pred_unattributed_frac", "ratio"),
    m("splitorder.get_ns", "ns"),
    m("splitorder.insert_ns", "ns"),
    m("splitorder.remove_ns", "ns"),
    m("splitorder.dir_height", "count"),
    m("skiplist.pred_ns", "ns"),
    m("skiplist.insert_ns", "ns"),
    m("skiplist.remove_ns", "ns"),
    m("skiplist.ptr_reads_per_pred", "count"),
    m("atomics.dcss_ns", "ns"),
    m("atomics.cas_ns", "ns"),
    m("epoch.pin_ns", "ns"),
    m("tiered.frozen_get_ns", "ns"),
    m("tiered.frozen_pred_ns", "ns"),
    m("tiered.dirty_get_ns", "ns"),
    m("tiered.dirty_pred_ns", "ns"),
    m("tiered.merge_ms", "ms"),
    m("tiered.merge_keys_per_s", "keys/s"),
    m("tiered.scan_ns_per_key", "ns"),
    m("forest.route_ns", "ns"),
    m("service.idle_rtt_ns", "ns"),
    m("service.spsc_push_pop_ns", "ns"),
    m("metrics.hist_record_ns", "ns"),
    m("metrics.latency_record_ns", "ns"),
    m("workloads.gen_ns_per_op", "ns"),
];

/// The readings of one run, keyed by metric name.
#[derive(Default)]
pub struct Readings {
    values: Vec<(&'static str, Summary)>,
}

impl Readings {
    pub fn put(&mut self, name: &'static str, value: Summary) {
        assert!(self.get(name).is_none(), "metric {name} was measured twice");
        self.values.push((name, value));
    }

    pub fn put_value(&mut self, name: &'static str, value: f64) {
        self.put(name, Summary::single(value));
    }

    pub fn get(&self, name: &str) -> Option<Summary> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, s)| s)
    }
}

/// The outcome of one workload run.
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// No oracle mismatch, and the final state equals the model.
    pub correct: bool,
    pub readings: Readings,
    /// Free-form lines for people: sample counts, per-slice series, host facts.
    pub notes: Vec<String>,
}

/// Pairs every metric of `table` with its reading; a metric the run did not
/// produce, or produced as a non-finite or negative number, is a bug in the
/// benchmark and fails the run.
fn resolve(table: &[Metric], readings: &Readings) -> Result<Vec<(Metric, Summary)>, String> {
    table
        .iter()
        .map(|&metric| {
            let reading = readings
                .get(metric.name)
                .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
            if !(reading.value.is_finite() && reading.value >= 0.0) {
                return Err(format!(
                    "metric {} read {}, not a finite non-negative number",
                    metric.name, reading.value
                ));
            }
            Ok((metric, reading))
        })
        .collect()
}

/// The driver's line: exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn json_line(outcome: &Outcome, table: &[Metric]) -> Result<String, String> {
    let metrics: Vec<String> = resolve(table, &outcome.readings)?
        .iter()
        .map(|(metric, reading)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name, reading.value, metric.unit
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    ))
}

/// Every metric by name with its unit: the value reported, then the median and
/// the extremes of the slices, windows or batches it was taken over.
pub fn table(outcome: &Outcome, table: &[Metric]) -> Result<String, String> {
    let mut out = format!(
        "workload {}: attempted {} failed {} correct {}\n",
        outcome.workload, outcome.attempted, outcome.failed, outcome.correct
    );
    out.push_str(&format!(
        "  {:<36} {:>16} {:>16} {:>16} {:>16} {:>5}  unit\n",
        "metric", "value", "median", "min", "max", "parts"
    ));
    for (metric, r) in resolve(table, &outcome.readings)? {
        out.push_str(&format!(
            "  {:<36} {:>16.4} {:>16.4} {:>16.4} {:>16.4} {:>5}  {}\n",
            metric.name, r.value, r.median, r.min, r.max, r.parts, metric.unit
        ));
    }
    for note in &outcome.notes {
        out.push_str(&format!("  # {note}\n"));
    }
    Ok(out)
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use std::collections::HashSet;

    /// A deliberately small JSON reader: enough to prove that what the
    /// benchmark emits parses, and to pull names out of `BENCHMARK.json`.
    #[derive(Debug, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        pub fn field(&self, name: &str) -> &Json {
            match self {
                Json::Obj(fields) => {
                    &fields
                        .iter()
                        .find(|(k, _)| k == name)
                        .unwrap_or_else(|| panic!("no field {name}"))
                        .1
                }
                other => panic!("{other:?} is not an object"),
            }
        }

        pub fn items(&self) -> &[Json] {
            match self {
                Json::Arr(items) => items,
                other => panic!("{other:?} is not an array"),
            }
        }

        pub fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                other => panic!("{other:?} is not a string"),
            }
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut at = 0;
        let value = value(bytes, &mut at)?;
        skip(bytes, &mut at);
        if at == bytes.len() {
            Ok(value)
        } else {
            Err(format!("trailing bytes at {at}"))
        }
    }

    fn skip(b: &[u8], at: &mut usize) {
        while *at < b.len() && b[*at].is_ascii_whitespace() {
            *at += 1;
        }
    }

    fn expect(b: &[u8], at: &mut usize, byte: u8) -> Result<(), String> {
        skip(b, at);
        if b.get(*at) == Some(&byte) {
            *at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {at}", byte as char))
        }
    }

    fn string(b: &[u8], at: &mut usize) -> Result<String, String> {
        expect(b, at, b'"')?;
        let start = *at;
        while *at < b.len() && b[*at] != b'"' {
            if b[*at] == b'\\' {
                return Err("escapes are not supported".into());
            }
            *at += 1;
        }
        let s = std::str::from_utf8(&b[start..*at]).map_err(|e| e.to_string())?;
        expect(b, at, b'"')?;
        Ok(s.to_string())
    }

    fn value(b: &[u8], at: &mut usize) -> Result<Json, String> {
        skip(b, at);
        match b.get(*at) {
            Some(b'{') => {
                *at += 1;
                let mut fields = Vec::new();
                skip(b, at);
                if b.get(*at) == Some(&b'}') {
                    *at += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    let name = string(b, at)?;
                    expect(b, at, b':')?;
                    fields.push((name, value(b, at)?));
                    skip(b, at);
                    match b.get(*at) {
                        Some(b',') => *at += 1,
                        Some(b'}') => {
                            *at += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected , or }} at {at}")),
                    }
                    skip(b, at);
                }
            }
            Some(b'[') => {
                *at += 1;
                let mut items = Vec::new();
                skip(b, at);
                if b.get(*at) == Some(&b']') {
                    *at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(value(b, at)?);
                    skip(b, at);
                    match b.get(*at) {
                        Some(b',') => *at += 1,
                        Some(b']') => {
                            *at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected , or ] at {at}")),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(string(b, at)?)),
            Some(_) => {
                let start = *at;
                while *at < b.len() && !b",]} \n\r\t".contains(&b[*at]) {
                    *at += 1;
                }
                match std::str::from_utf8(&b[start..*at]).map_err(|e| e.to_string())? {
                    "true" => Ok(Json::Bool(true)),
                    "false" => Ok(Json::Bool(false)),
                    "null" => Ok(Json::Null),
                    number => number
                        .parse()
                        .map(Json::Num)
                        .map_err(|_| format!("bad token {number:?} at {start}")),
                }
            }
            None => Err("unexpected end".into()),
        }
    }

    fn names_are_well_formed(table: &[Metric]) {
        let mut seen = HashSet::new();
        for metric in table {
            let name = metric.name;
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name.as_bytes()[0].is_ascii_alphanumeric()
                    && name
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "bad metric name {name:?}"
            );
            assert!(
                !metric.unit.is_empty()
                    && metric.unit.len() <= 16
                    && metric
                        .unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "bad unit {:?}",
                metric.unit
            );
            assert!(seen.insert(name), "metric {name} is listed twice");
        }
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        names_are_well_formed(END_TO_END);
        names_are_well_formed(PER_LAYER);
        let all: HashSet<_> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        assert_eq!(all.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let spec = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        for (field, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = spec
                .field(field)
                .items()
                .iter()
                .map(|m| (m.field("name").str(), m.field("unit").str()))
                .collect();
            let ours: Vec<(&str, &str)> = table.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(listed, ours, "{field} differs from the bin's table");
        }
        let workloads: Vec<&str> = spec
            .field("workloads")
            .items()
            .iter()
            .map(|w| w.field("name").str())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    fn outcome() -> Outcome {
        let mut readings = Readings::default();
        for (i, metric) in END_TO_END.iter().enumerate() {
            readings.put_value(metric.name, 1.5 + i as f64);
        }
        Outcome {
            workload: "trie_churn",
            attempted: 10,
            failed: 0,
            correct: true,
            readings,
            notes: vec!["a note".into()],
        }
    }

    #[test]
    fn the_emitted_line_parses_and_has_exactly_the_contract_keys() {
        let line = json_line(&outcome(), END_TO_END).unwrap();
        let parsed = parse(&line).expect("emitted JSON parses");
        let Json::Obj(fields) = &parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.field("correct"), &Json::Bool(true));
        assert_eq!(parsed.field("attempted"), &Json::Num(10.0));
        let Json::Obj(metrics) = parsed.field("metrics") else {
            panic!("metrics is not an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].0, "setup_s");
        assert_eq!(metrics[0].1.field("value"), &Json::Num(1.5));
        assert_eq!(metrics[0].1.field("unit").str(), "s");
        assert!(table(&outcome(), END_TO_END).unwrap().contains("setup_s"));
    }

    #[test]
    fn a_missing_or_non_finite_metric_fails_the_run() {
        let mut o = outcome();
        o.readings.values.pop();
        assert!(json_line(&o, END_TO_END)
            .unwrap_err()
            .contains("not measured"));
        let mut o = outcome();
        o.readings.values[0].1.value = f64::NAN;
        assert!(json_line(&o, END_TO_END).is_err());
        let mut o = outcome();
        o.readings.values[0].1.value = -1.0;
        assert!(json_line(&o, END_TO_END).is_err());
    }
}
