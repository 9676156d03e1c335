//! Per-op-class latency recording: a fixed set of labelled [`Histogram`]s.

use std::fmt;
use std::sync::Mutex;

use crate::Histogram;

/// A fixed family of labelled latency histograms, one per operation class.
///
/// The serving pipeline records every completed request into the histogram of
/// its op class (point / ordered / range / pop / batch); the label set is fixed
/// at construction so recording is an index, not a hash lookup. Each class is
/// guarded by its own `Mutex` — recorders of *different* classes never contend,
/// and a single uncontended lock-and-record costs 13–16 ns
/// (`metrics.latency_record_ns`), about 1 % of the shortest request a worker
/// serves, so the classes are shared by all workers rather than kept per
/// worker and merged. Quantiles read off a class carry [`Histogram`]'s bound:
/// never under, at most 1/32 over.
///
/// # Examples
///
/// ```
/// use skiptrie_metrics::LatencyClasses;
///
/// let lat = LatencyClasses::new(&["point", "range"]);
/// lat.record(0, 1_200);
/// lat.record(1, 48_000);
/// let point = lat.histogram(0);
/// assert_eq!(point.count(), 1);
/// assert_eq!(lat.labels(), &["point", "range"]);
/// ```
pub struct LatencyClasses {
    labels: Vec<&'static str>,
    hists: Vec<Mutex<Histogram>>,
}

impl LatencyClasses {
    /// Creates one empty histogram per label.
    pub fn new(labels: &[&'static str]) -> Self {
        LatencyClasses {
            labels: labels.to_vec(),
            hists: labels
                .iter()
                .map(|_| Mutex::new(Histogram::new()))
                .collect(),
        }
    }

    /// The labels, in recording-index order.
    pub fn labels(&self) -> &[&'static str] {
        &self.labels
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if constructed with no classes.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Records one observation (e.g. nanoseconds) into class `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class >= self.len()`.
    pub fn record(&self, class: usize, value: u64) {
        self.hists[class]
            .lock()
            .expect("latency histogram poisoned")
            .record(value);
    }

    /// A snapshot clone of class `class`'s histogram.
    ///
    /// # Panics
    ///
    /// Panics if `class >= self.len()`.
    pub fn histogram(&self, class: usize) -> Histogram {
        self.hists[class]
            .lock()
            .expect("latency histogram poisoned")
            .clone()
    }

    /// Snapshot clones of every class, in label order.
    pub fn snapshot(&self) -> Vec<(&'static str, Histogram)> {
        self.labels
            .iter()
            .zip(self.hists.iter())
            .map(|(&label, h)| (label, h.lock().expect("latency histogram poisoned").clone()))
            .collect()
    }

    /// Folds every class into one histogram (the "all ops" latency view).
    pub fn merged(&self) -> Histogram {
        let mut out = Histogram::new();
        for h in &self.hists {
            out.merge(&h.lock().expect("latency histogram poisoned"));
        }
        out
    }
}

impl fmt::Debug for LatencyClasses {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for (label, h) in self.snapshot() {
            map.entry(&label, &h.count());
        }
        map.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_the_right_class() {
        let lat = LatencyClasses::new(&["a", "b", "c"]);
        lat.record(0, 10);
        lat.record(2, 20);
        lat.record(2, 30);
        assert_eq!(lat.histogram(0).count(), 1);
        assert_eq!(lat.histogram(1).count(), 0);
        assert_eq!(lat.histogram(2).count(), 2);
        assert_eq!(lat.merged().count(), 3);
    }

    #[test]
    fn snapshot_pairs_labels_with_histograms() {
        let lat = LatencyClasses::new(&["x", "y"]);
        lat.record(1, 100);
        let snap = lat.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, "x");
        assert_eq!(snap[0].1.count(), 0);
        assert_eq!(snap[1].0, "y");
        assert_eq!(snap[1].1.count(), 1);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let lat = std::sync::Arc::new(LatencyClasses::new(&["only"]));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let lat = std::sync::Arc::clone(&lat);
                std::thread::spawn(move || {
                    for v in 0..250u64 {
                        lat.record(0, v);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(lat.histogram(0).count(), 1000);
    }

    #[test]
    #[should_panic]
    fn out_of_range_class_panics() {
        LatencyClasses::new(&["one"]).record(1, 5);
    }
}
