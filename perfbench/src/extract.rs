//! Metric extractors over a run's public outputs: the pooled latency
//! [`LogHistogram`] (read through `raw_parts`) and the merged
//! [`TraceEvent`] stream. Pure functions, so the unit tests below check
//! them on small hand-built histograms and traces.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use eesmr_trace::hist::{LogHistogram, LINEAR_MAX, SUB_BITS};
use eesmr_trace::{EventKind, TraceEvent};

/// Inclusive `(lower, upper)` value range of bucket `index` in the
/// documented [`LogHistogram`] scheme: one exact bucket per value below
/// `LINEAR_MAX`, then `2^SUB_BITS` equal sub-buckets per octave.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    let i = index as u64;
    if i < LINEAR_MAX {
        return (i, i);
    }
    let sub_buckets = 1u64 << SUB_BITS;
    let off = i - LINEAR_MAX;
    let exp = off / sub_buckets + u64::from(SUB_BITS);
    let width = 1u64 << (exp - u64::from(SUB_BITS));
    let lower = (1u64 << exp) | ((off % sub_buckets) * width);
    (lower, lower + width - 1)
}

/// Samples that miss `limit`: those whose bucket reaches above it. The
/// bucket that straddles the limit counts as missing it, the same
/// upper-bound convention [`LogHistogram::percentile`] reports with.
pub fn over_limit(hist: &LogHistogram, limit: u64) -> u64 {
    let (buckets, ..) = hist.raw_parts();
    buckets.iter().enumerate().filter(|&(i, _)| bucket_bounds(i).1 > limit).map(|(_, &n)| n).sum()
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) with linear interpolation
/// inside the bucket that holds the rank, clamped to the exact min/max.
/// `LogHistogram::percentile` reports the bucket's upper bound, which
/// makes a median read the same value over a whole range of runs; this
/// resolves it to well under the bucket width.
pub fn percentile(hist: &LogHistogram, p: f64) -> Option<f64> {
    let (buckets, count, _, min, max) = hist.raw_parts();
    if count == 0 {
        return None;
    }
    let rank = ((p / 100.0 * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        if n > 0 && seen + n >= rank {
            let (lower, upper) = bucket_bounds(i);
            let within = (rank - seen) as f64 - 0.5;
            let value = lower as f64 + (upper - lower) as f64 * within / n as f64;
            return Some(value.clamp(min as f64, max as f64));
        }
        seen += n;
    }
    Some(max as f64)
}

/// Transaction outcomes replayed from one run's merged trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxOutcomes {
    /// Transactions injected at correct nodes.
    pub injected: u64,
    /// Injected at least `limit` before the run's end and never
    /// committed at their origin: the limit passed with no commit.
    pub stranded: u64,
    /// Injected less than `limit` before the end and not yet committed:
    /// their outcome is undecided, so they count as neither attempted
    /// nor failed.
    pub undecided: u64,
    /// Transactions batched into two or more distinct blocks that some
    /// correct node committed.
    pub dup_committed: u64,
    /// Transactions batched more than once at all (committed or not).
    pub dup_batched: u64,
}

impl TxOutcomes {
    /// Adds another run's counts to these.
    pub fn absorb(&mut self, other: &TxOutcomes) {
        self.injected += other.injected;
        self.stranded += other.stranded;
        self.undecided += other.undecided;
        self.dup_committed += other.dup_committed;
        self.dup_batched += other.dup_batched;
    }
}

/// Replays `events` (merged order) for the transaction accounting.
/// A transaction commits at its origin when a correct origin node
/// commits a block its `TxBatched` events name.
pub fn tx_outcomes(
    events: &[TraceEvent],
    correct: &BTreeSet<u32>,
    end_us: u64,
    limit_us: u64,
) -> TxOutcomes {
    let mut born: HashMap<u64, (u32, u64)> = HashMap::new();
    let mut blocks_of: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut committed_at: HashSet<(u32, u64)> = HashSet::new();
    let mut committed_blocks: HashSet<u64> = HashSet::new();
    for e in events {
        match e.kind {
            EventKind::TxInject { tx } if correct.contains(&e.node) => {
                born.entry(tx).or_insert((e.node, e.time_us));
            }
            EventKind::TxBatched { tx, block } => blocks_of.entry(tx).or_default().push(block),
            EventKind::Commit { block, .. } if correct.contains(&e.node) => {
                committed_at.insert((e.node, block));
                committed_blocks.insert(block);
            }
            _ => {}
        }
    }
    let mut out = TxOutcomes { injected: born.len() as u64, ..TxOutcomes::default() };
    for (tx, &(origin, t)) in &born {
        let blocks = blocks_of.get(tx).map(Vec::as_slice).unwrap_or_default();
        if !blocks.iter().any(|b| committed_at.contains(&(origin, *b))) {
            if t.saturating_add(limit_us) <= end_us {
                out.stranded += 1;
            } else {
                out.undecided += 1;
            }
        }
    }
    for blocks in blocks_of.values() {
        let distinct: BTreeSet<u64> = blocks.iter().copied().collect();
        if blocks.len() >= 2 {
            out.dup_batched += 1;
        }
        if distinct.iter().filter(|b| committed_blocks.contains(b)).count() >= 2 {
            out.dup_committed += 1;
        }
    }
    out
}

/// Longest stretch of simulated time, from 0 to `end_us`, in which no
/// correct node committed a height that no correct node had committed
/// before.
pub fn service_gap_us(events: &[TraceEvent], correct: &BTreeSet<u32>, end_us: u64) -> u64 {
    let mut top = 0u64;
    let mut last = 0u64;
    let mut gap = 0u64;
    for e in events {
        if let EventKind::Commit { height, .. } = e.kind {
            if correct.contains(&e.node) && height > top {
                top = height;
                gap = gap.max(e.time_us - last);
                last = e.time_us;
            }
        }
    }
    gap.max(end_us.saturating_sub(last))
}

/// Events per kind name, for the replica-step trace counts.
pub fn kind_counts(events: &[TraceEvent]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for e in events {
        *out.entry(e.kind.name()).or_insert(0) += 1;
    }
    out
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time_us: u64, node: u32, kind: EventKind) -> TraceEvent {
        TraceEvent { time_us, node, seq: 0, kind }
    }

    fn hist(values: &[u64]) -> LogHistogram {
        let mut h = LogHistogram::new();
        values.iter().for_each(|&v| h.record(v));
        h
    }

    #[test]
    fn bucket_bounds_contain_every_recorded_value() {
        for v in [0, 1, 31, 32, 33, 63, 64, 1_000, 36_000, 499_999, 500_000, 1 << 40] {
            let h = hist(&[v]);
            let (buckets, ..) = h.raw_parts();
            let index = buckets.iter().position(|&n| n == 1).unwrap();
            let (lower, upper) = bucket_bounds(index);
            assert!(lower <= v && v <= upper, "{v} outside [{lower}, {upper}]");
            // The library reports a lone sample's percentile as the
            // bucket's upper bound clamped to the max, i.e. the value.
            assert_eq!(h.percentile(50), Some(v.min(upper)));
        }
        // Adjacent buckets tile the value line.
        for i in 0..400 {
            assert_eq!(bucket_bounds(i).1 + 1, bucket_bounds(i + 1).0);
        }
    }

    #[test]
    fn over_limit_counts_late_samples_and_the_straddling_bucket() {
        // 500 000 sits inside [499 712, 507 903].
        let h = hist(&[100, 20_000, 499_000, 499_711, 499_712, 500_000, 600_000]);
        assert_eq!(over_limit(&h, 500_000), 3);
        assert_eq!(over_limit(&h, 1 << 30), 0);
        assert_eq!(over_limit(&LogHistogram::new(), 10), 0);
        // In the exact range the limit itself is on time.
        assert_eq!(over_limit(&hist(&[5, 6, 7]), 6), 1);
    }

    #[test]
    fn percentile_is_exact_in_the_linear_range_and_inside_the_bucket_above() {
        let h = hist(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(percentile(&h, 50.0), Some(5.0));
        assert_eq!(percentile(&h, 100.0), Some(10.0));
        assert_eq!(percentile(&LogHistogram::new(), 50.0), None);
        // Four samples in one bucket [36 864, 37 887]: the interpolated
        // median lies in the bucket, below the library's upper bound.
        let h = hist(&[36_870, 37_100, 37_400, 37_880]);
        let p50 = percentile(&h, 50.0).unwrap();
        let upper = h.percentile(50).unwrap() as f64;
        assert!((36_870.0..=upper).contains(&p50), "{p50} vs {upper}");
        assert!(p50 < percentile(&h, 99.0).unwrap());
        // Clamped to the exact extremes.
        assert_eq!(percentile(&hist(&[40_000]), 50.0), Some(40_000.0));
    }

    #[test]
    fn tx_outcomes_count_stranded_undecided_and_duplicates() {
        let correct: BTreeSet<u32> = [0, 1, 2].into_iter().collect();
        let events = vec![
            ev(0, 1, EventKind::TxInject { tx: 10 }),
            ev(0, 2, EventKind::TxInject { tx: 11 }),
            ev(0, 3, EventKind::TxInject { tx: 12 }), // faulty origin: ignored
            ev(100, 0, EventKind::TxBatched { tx: 10, block: 7 }),
            ev(100, 0, EventKind::TxBatched { tx: 12, block: 7 }),
            ev(200, 1, EventKind::Commit { block: 7, height: 1 }),
            ev(300, 0, EventKind::TxBatched { tx: 10, block: 8 }),
            ev(400, 2, EventKind::Commit { block: 8, height: 2 }),
            ev(900, 1, EventKind::TxInject { tx: 13 }),
            ev(950, 0, EventKind::TxBatched { tx: 13, block: 9 }), // never committed
            ev(950, 0, EventKind::TxBatched { tx: 13, block: 9 }),
        ];
        let out = tx_outcomes(&events, &correct, 1_000, 500);
        assert_eq!(
            out,
            TxOutcomes { injected: 3, stranded: 1, undecided: 1, dup_committed: 1, dup_batched: 2 }
        );
        // Tx 11 was never batched and is old enough to be stranded; tx 13
        // is younger than the limit. With no limit, everything is decided.
        let out = tx_outcomes(&events, &correct, 1_000, 0);
        assert_eq!((out.stranded, out.undecided), (2, 0));
    }

    #[test]
    fn service_gap_spans_start_new_heights_and_end() {
        let correct: BTreeSet<u32> = [0, 1].into_iter().collect();
        let events = vec![
            ev(30, 0, EventKind::Commit { block: 1, height: 1 }),
            ev(35, 1, EventKind::Commit { block: 1, height: 1 }), // not new
            ev(50, 0, EventKind::Commit { block: 2, height: 2 }),
            ev(140, 1, EventKind::Commit { block: 3, height: 3 }),
            ev(150, 5, EventKind::Commit { block: 4, height: 4 }), // faulty node
        ];
        assert_eq!(service_gap_us(&events, &correct, 200), 90);
        assert_eq!(service_gap_us(&events, &correct, 400), 260);
        assert_eq!(service_gap_us(&[], &correct, 400), 400);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
