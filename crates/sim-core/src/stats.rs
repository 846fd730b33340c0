//! Counters, the per-link traffic table and the log-bucketed latency
//! histogram used by the reproduction harnesses.

use crate::json::{ToJson, Writer};
use crate::HostId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cheap shareable event counter.
///
/// Cloning a `Counter` yields a handle onto the same underlying count, so a
/// run can hand the same counter to many threads and read the total at the
/// end.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    inner: Arc<AtomicU64>,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn bump(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.inner.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.inner.load(Ordering::Relaxed)
    }
}

/// Per-link wire traffic: messages and payload bytes on every `(from, to)`
/// link of a `hosts`-host wire. The wire's transport owns it — the
/// simulator's fabric, the real-memory backend's inbox senders — and
/// records each send with two relaxed adds on pre-allocated cells, so a
/// signal handler may record too.
#[derive(Debug)]
pub struct LinkTraffic {
    hosts: usize,
    /// `hosts × hosts × 2` cells of (messages, bytes), indexed
    /// `(from · hosts + to) · 2`.
    cells: Box<[AtomicU64]>,
}

impl LinkTraffic {
    /// A zeroed table for `hosts` hosts.
    pub fn new(hosts: usize) -> Self {
        Self {
            hosts,
            cells: (0..hosts * hosts * 2).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Counts one message of `bytes` payload on the `from → to` link. A
    /// host outside the table is not counted rather than panicking: a
    /// signal handler records too.
    #[inline]
    pub fn record(&self, from: HostId, to: HostId, bytes: u64) {
        let (f, t) = (from.index(), to.index());
        if f < self.hosts && t < self.hosts {
            let i = (f * self.hosts + t) * 2;
            self.cells[i].fetch_add(1, Ordering::Relaxed);
            self.cells[i + 1].fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Every link that carried traffic, in `(from, to)` order.
    pub fn links(&self) -> Vec<LinkStat> {
        let load = |i: usize| self.cells[i].load(Ordering::Relaxed);
        let pairs = (0..self.hosts).flat_map(|f| (0..self.hosts).map(move |t| (f, t)));
        pairs
            .filter_map(|(from, to)| {
                let i = (from * self.hosts + to) * 2;
                (load(i) > 0).then(|| LinkStat {
                    from: from as u16,
                    to: to as u16,
                    messages: load(i),
                    bytes: load(i + 1),
                })
            })
            .collect()
    }
}

/// One link's traffic, as [`LinkTraffic::links`] reads it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkStat {
    /// Sending host.
    pub from: u16,
    /// Receiving host.
    pub to: u16,
    /// Messages sent on the link.
    pub messages: u64,
    /// Payload bytes sent on the link.
    pub bytes: u64,
}

/// A log-bucketed (power-of-two) histogram over `u64` samples.
///
/// Bucket 0 holds exactly the sample `0`; bucket `i ≥ 1` holds
/// `[2^(i-1), 2^i)`. 65 buckets cover the whole `u64` range, so latencies
/// from nanoseconds to hours record without configuration and merging two
/// histograms is bucket-wise addition. Quantiles are approximate: the
/// reported value is the matched bucket's inclusive upper bound (clamped
/// to the true recorded maximum), i.e. at most 2× the true quantile —
/// the usual log-bucket trade for O(1) recording.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Number of buckets: one for zero plus one per power of two.
    pub const BUCKETS: usize = 65;

    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; Self::BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index a sample lands in.
    #[inline]
    pub fn bucket_index(x: u64) -> usize {
        if x == 0 {
            0
        } else {
            64 - x.leading_zeros() as usize
        }
    }

    /// The smallest sample bucket `i` can hold.
    pub fn bucket_lower_bound(i: usize) -> u64 {
        assert!(i < Self::BUCKETS, "bucket index out of range");
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records a sample.
    #[inline]
    pub fn record(&mut self, x: u64) {
        self.buckets[Self::bucket_index(x)] += 1;
        self.total += 1;
        self.sum += x as u128;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Smallest recorded sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Exact arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// Adds every sample of `other` into this histogram.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.total == 0 {
            return;
        }
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Approximate p-quantile: the inclusive upper bound of the bucket
    /// holding the `ceil(p · count)`-th sample, clamped to the recorded
    /// maximum. `None` if empty.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let target = ((p.clamp(0.0, 1.0)) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let upper = if i == 0 { 0 } else { (1u128 << i) - 1 };
                return Some((upper.min(self.max as u128)) as u64);
            }
        }
        Some(self.max)
    }

    /// Median (approximate; see [`quantile`](Self::quantile)).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th percentile (approximate).
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th percentile (approximate).
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }
}

/// The summary a run report carries: count, extremes, the mean with one
/// decimal and the p50/p95/p99 quantiles (`null` when empty).
impl ToJson for LogHistogram {
    fn write_json(&self, w: &mut Writer) {
        w.object(|w| {
            w.field("count", self.count()).field("min_ns", self.min());
            w.key("mean_ns");
            match self.mean() {
                Some(m) => w.raw(&format!("{m:.1}")),
                None => w.raw("null"),
            };
            w.field("max_ns", self.max())
                .field("p50_ns", self.p50())
                .field("p95_ns", self.p95())
                .field("p99_ns", self.p99());
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_shared_between_clones() {
        let c = Counter::new();
        let c2 = c.clone();
        c.bump();
        c2.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn link_traffic_attributes_per_link_and_omits_idle_and_foreign_links() {
        let t = LinkTraffic::new(3);
        for (from, to, bytes) in [
            (0, 1, 128),
            (0, 1, 32),
            (2, 0, 8),
            (1, 3, 8),
            (u16::MAX, 0, 8),
        ] {
            t.record(HostId(from), HostId(to), bytes);
        }
        let stat = |(from, to, messages, bytes)| LinkStat {
            from,
            to,
            messages,
            bytes,
        };
        assert_eq!(t.links(), [(0, 1, 2, 160), (2, 0, 1, 8)].map(stat));
    }

    #[test]
    fn log_histogram_bucket_boundaries() {
        // 0 is its own bucket; each power of two starts a new bucket.
        assert_eq!(LogHistogram::bucket_index(0), 0);
        assert_eq!(LogHistogram::bucket_index(1), 1);
        assert_eq!(LogHistogram::bucket_index(2), 2);
        assert_eq!(LogHistogram::bucket_index(3), 2);
        assert_eq!(LogHistogram::bucket_index(4), 3);
        assert_eq!(LogHistogram::bucket_index(1023), 10);
        assert_eq!(LogHistogram::bucket_index(1024), 11);
        assert_eq!(LogHistogram::bucket_index(u64::MAX), 64);
        for i in 0..LogHistogram::BUCKETS {
            let lo = LogHistogram::bucket_lower_bound(i);
            assert_eq!(LogHistogram::bucket_index(lo), i);
            if lo > 0 {
                assert_eq!(LogHistogram::bucket_index(lo - 1), i - 1);
            }
        }
    }

    #[test]
    fn log_histogram_counts_and_moments() {
        let mut h = LogHistogram::new();
        for x in [0u64, 1, 3, 3, 8, 1000] {
            h.record(x);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(2), 2);
        assert_eq!(h.bucket(4), 1);
        assert_eq!(h.bucket(10), 1);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert!((h.mean().unwrap() - 1015.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn log_histogram_quantiles_bound_the_truth() {
        let mut h = LogHistogram::new();
        for x in 1..=1000u64 {
            h.record(x);
        }
        // Each reported quantile is >= the true one and < 2x it.
        for (p, truth) in [(0.5, 500u64), (0.95, 950), (0.99, 990)] {
            let q = h.quantile(p).unwrap();
            assert!(q >= truth, "p{p}: {q} < {truth}");
            assert!(q < truth * 2, "p{p}: {q} >= 2*{truth}");
        }
        // Extremes clamp to the recorded range.
        assert_eq!(h.quantile(1.0), Some(1000));
        assert_eq!(h.quantile(0.0).unwrap(), 1);
        // A constant stream reports the constant at every quantile.
        let mut c = LogHistogram::new();
        for _ in 0..10 {
            c.record(777);
        }
        assert_eq!(c.p50(), Some(777));
        assert_eq!(c.p99(), Some(777));
        assert_eq!(LogHistogram::new().p50(), None);
    }

    #[test]
    fn log_histogram_merge_equals_combined_stream() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for x in 0..200u64 {
            if x % 3 == 0 {
                a.record(x * 7);
            } else {
                b.record(x * 7);
            }
            whole.record(x * 7);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        assert_eq!(a.mean(), whole.mean());
        for p in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(p), whole.quantile(p));
        }
    }
}
