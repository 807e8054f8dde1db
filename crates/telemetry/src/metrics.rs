//! Typed metrics registry: counters, gauges, and log2 histograms.
//!
//! Registration (name → id) happens once, at setup time, and may allocate
//! and hash; updates go through the returned id and are plain indexed
//! integer arithmetic. Snapshots are deterministic: [`MetricsRegistry::samples`]
//! returns metrics sorted by name, so two identical runs serialize to
//! identical bytes.

use std::collections::HashMap;

/// Id of a registered counter (index into the registry's counter table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(pub(crate) u32);

/// Id of a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(pub(crate) u32);

/// Id of a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(pub(crate) u32);

impl CounterId {
    /// Sentinel handed out by the disabled stub; never valid in a registry.
    pub const DISABLED: CounterId = CounterId(u32::MAX);
}
impl GaugeId {
    pub const DISABLED: GaugeId = GaugeId(u32::MAX);
}
impl HistId {
    pub const DISABLED: HistId = HistId(u32::MAX);
}

/// A fixed-bucket base-2 logarithmic histogram of `u64` observations.
///
/// Bucket 0 holds the value 0; bucket `b > 0` holds values in
/// `[2^(b-1), 2^b)`. 65 buckets cover the whole `u64` range, so recording
/// never allocates or saturates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    buckets: [u64; 65],
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: [0; 65] }
    }
}

impl Log2Histogram {
    /// Bucket index of a value: 0 for 0, `ilog2(v) + 1` otherwise.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket_index(v)] += 1;
    }

    /// Arithmetic mean of all observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The non-empty buckets as `(bucket_index, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u8, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u8, c))
            .collect()
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }
}

/// The value of one metric in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram {
        count: u64,
        sum: u64,
        /// `u64::MAX` when empty (mirrors [`Log2Histogram::min`]).
        min: u64,
        max: u64,
        /// Non-empty `(bucket_index, count)` pairs, ascending.
        buckets: Vec<(u8, u64)>,
    },
}

/// One named metric in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    pub name: String,
    pub value: MetricValue,
}

/// The registry: name-addressed at registration, id-addressed on update.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    hists: Vec<(String, Log2Histogram)>,
    // One shared name index; ids are per-kind, so the map value carries the
    // kind to reject a name registered twice under different kinds.
    index: HashMap<String, (Kind, u32)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Hist,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Total registered metrics of all kinds.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.hists.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn register(&mut self, name: &str, kind: Kind) -> u32 {
        if let Some(&(k, id)) = self.index.get(name) {
            assert_eq!(
                k, kind,
                "metric {name:?} already registered with a different kind"
            );
            return id;
        }
        let id = match kind {
            Kind::Counter => {
                self.counters.push((name.to_string(), 0));
                self.counters.len() as u32 - 1
            }
            Kind::Gauge => {
                self.gauges.push((name.to_string(), 0.0));
                self.gauges.len() as u32 - 1
            }
            Kind::Hist => {
                self.hists.push((name.to_string(), Log2Histogram::default()));
                self.hists.len() as u32 - 1
            }
        };
        self.index.insert(name.to_string(), (kind, id));
        id
    }

    /// Register (or look up) a counter.
    pub fn counter(&mut self, name: &str) -> CounterId {
        CounterId(self.register(name, Kind::Counter))
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        GaugeId(self.register(name, Kind::Gauge))
    }

    /// Register (or look up) a histogram.
    pub fn histogram(&mut self, name: &str) -> HistId {
        HistId(self.register(name, Kind::Hist))
    }

    /// Hot path: add to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0 as usize].1 += n;
    }

    /// Hot path: set a gauge.
    #[inline]
    pub fn set(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0 as usize].1 = v;
    }

    /// Hot path: record into a histogram.
    #[inline]
    pub fn record(&mut self, id: HistId, v: u64) {
        self.hists[id.0 as usize].1.record(v);
    }

    /// Cold path: register-or-get and add in one call (publish bridges).
    pub fn counter_add(&mut self, name: &str, n: u64) {
        let id = self.counter(name);
        self.add(id, n);
    }

    /// Cold path: register-or-get and set in one call.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        let id = self.gauge(name);
        self.set(id, v);
    }

    /// Cold path: register-or-get and record in one call.
    pub fn hist_record(&mut self, name: &str, v: u64) {
        let id = self.histogram(name);
        self.record(id, v);
    }

    /// Current value of a counter, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.index.get(name) {
            Some(&(Kind::Counter, id)) => Some(self.counters[id as usize].1),
            _ => None,
        }
    }

    /// Current value of a gauge, if registered.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match self.index.get(name) {
            Some(&(Kind::Gauge, id)) => Some(self.gauges[id as usize].1),
            _ => None,
        }
    }

    /// Current state of a histogram, if registered.
    pub fn histogram_value(&self, name: &str) -> Option<&Log2Histogram> {
        match self.index.get(name) {
            Some(&(Kind::Hist, id)) => Some(&self.hists[id as usize].1),
            _ => None,
        }
    }

    /// Deterministic snapshot: every metric, sorted by name.
    pub fn samples(&self) -> Vec<MetricSample> {
        let mut out: Vec<MetricSample> = Vec::with_capacity(self.len());
        for (name, v) in &self.counters {
            out.push(MetricSample { name: name.clone(), value: MetricValue::Counter(*v) });
        }
        for (name, v) in &self.gauges {
            out.push(MetricSample { name: name.clone(), value: MetricValue::Gauge(*v) });
        }
        for (name, h) in &self.hists {
            out.push(MetricSample {
                name: name.clone(),
                value: MetricValue::Histogram {
                    count: h.count,
                    sum: h.sum,
                    min: h.min,
                    max: h.max,
                    buckets: h.nonzero_buckets(),
                },
            });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Merge a snapshot's samples into this registry: counters add,
    /// gauges overwrite, histogram buckets accumulate. Used by the harness
    /// to fold a component snapshot into the run-level registry.
    pub fn absorb(&mut self, samples: &[MetricSample]) {
        for s in samples {
            match &s.value {
                MetricValue::Counter(v) => self.counter_add(&s.name, *v),
                MetricValue::Gauge(v) => self.gauge_set(&s.name, *v),
                MetricValue::Histogram { count, sum, min, max, buckets } => {
                    let mut h = Log2Histogram {
                        count: *count,
                        sum: *sum,
                        min: *min,
                        max: *max,
                        buckets: [0; 65],
                    };
                    for &(b, c) in buckets {
                        h.buckets[b as usize] = c;
                    }
                    let id = self.histogram(&s.name);
                    self.hists[id.0 as usize].1.merge(&h);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_updates_indexed() {
        let mut r = MetricsRegistry::new();
        let a = r.counter("a");
        let b = r.counter("b");
        assert_ne!(a, b);
        assert_eq!(r.counter("a"), a, "re-registration returns the same id");
        r.add(a, 2);
        r.add(a, 3);
        r.add(b, 1);
        assert_eq!(r.counter_value("a"), Some(5));
        assert_eq!(r.counter_value("b"), Some(1));
        assert_eq!(r.counter_value("missing"), None);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_panics() {
        let mut r = MetricsRegistry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn log2_bucket_boundaries() {
        assert_eq!(Log2Histogram::bucket_index(0), 0);
        assert_eq!(Log2Histogram::bucket_index(1), 1);
        assert_eq!(Log2Histogram::bucket_index(2), 2);
        assert_eq!(Log2Histogram::bucket_index(3), 2);
        assert_eq!(Log2Histogram::bucket_index(4), 3);
        assert_eq!(Log2Histogram::bucket_index(1023), 10);
        assert_eq!(Log2Histogram::bucket_index(1024), 11);
        assert_eq!(Log2Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_records_and_summarizes() {
        let mut r = MetricsRegistry::new();
        let h = r.histogram("lat");
        for v in [0, 1, 2, 3, 100] {
            r.record(h, v);
        }
        let hist = r.histogram_value("lat").unwrap();
        assert_eq!(hist.count, 5);
        assert_eq!(hist.sum, 106);
        assert_eq!(hist.min, 0);
        assert_eq!(hist.max, 100);
        assert!((hist.mean() - 21.2).abs() < 1e-12);
        assert_eq!(hist.nonzero_buckets(), vec![(0, 1), (1, 1), (2, 2), (7, 1)]);
    }

    #[test]
    fn samples_sorted_by_name_across_kinds() {
        let mut r = MetricsRegistry::new();
        r.counter_add("z", 1);
        r.gauge_set("a", 0.5);
        r.hist_record("m", 7);
        let names: Vec<String> = r.samples().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["a", "m", "z"]);
    }

    #[test]
    fn absorb_merges_all_kinds() {
        let mut src = MetricsRegistry::new();
        src.counter_add("c", 5);
        src.gauge_set("g", 2.0);
        src.hist_record("h", 8);
        let mut dst = MetricsRegistry::new();
        dst.counter_add("c", 1);
        dst.hist_record("h", 1);
        dst.absorb(&src.samples());
        assert_eq!(dst.counter_value("c"), Some(6));
        assert_eq!(dst.gauge_value("g"), Some(2.0));
        let h = dst.histogram_value("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 9);
        assert_eq!(h.nonzero_buckets(), vec![(1, 1), (4, 1)]);
    }
}
