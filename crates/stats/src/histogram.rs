//! Column histograms over integer domains.
//!
//! Two classic shapes: equi-width (fixed bucket spans) and equi-depth
//! (fixed bucket populations, better under skew). Both answer the only
//! question the planner asks: *what fraction of values falls in a range?*

use std::ops::Bound;

/// Common interface of the histogram shapes.
pub trait Histogram: std::fmt::Debug {
    /// Estimated fraction of values in the (inclusive/exclusive) range.
    fn range_fraction(&self, lo: Bound<i64>, hi: Bound<i64>) -> f64;
    /// Number of values summarized.
    fn population(&self) -> u64;
}

/// Normalize bounds to a closed interval `[lo, hi]` on integers.
/// Returns `None` for an empty interval.
fn closed(lo: Bound<i64>, hi: Bound<i64>) -> Option<(i64, i64)> {
    let lo = match lo {
        Bound::Unbounded => i64::MIN,
        Bound::Included(v) => v,
        Bound::Excluded(v) => v.checked_add(1)?,
    };
    let hi = match hi {
        Bound::Unbounded => i64::MAX,
        Bound::Included(v) => v,
        Bound::Excluded(v) => v.checked_sub(1)?,
    };
    (lo <= hi).then_some((lo, hi))
}

/// Equi-width histogram: the domain `[min, max]` is split into equal spans.
#[derive(Debug, Clone)]
pub struct EquiWidthHistogram {
    min: i64,
    max: i64,
    counts: Vec<u64>,
    total: u64,
}

impl EquiWidthHistogram {
    /// Build from values with the given bucket count (min 1).
    pub fn build(values: &[i64], buckets: usize) -> Self {
        let buckets = buckets.max(1);
        let Some((&min, &max)) = values.iter().min().zip(values.iter().max()) else {
            return EquiWidthHistogram { min: 0, max: 0, counts: vec![0; buckets], total: 0 };
        };
        let mut counts = vec![0u64; buckets];
        let span = (max - min).max(0) as u128 + 1;
        for &v in values {
            let off = (v - min) as u128;
            let b = ((off * buckets as u128) / span) as usize;
            counts[b.min(buckets - 1)] += 1;
        }
        EquiWidthHistogram { min, max, counts, total: values.len() as u64 }
    }

    fn bucket_bounds(&self, b: usize) -> (i64, i64) {
        let n = self.counts.len() as u128;
        let span = (self.max - self.min) as u128 + 1;
        let lo = self.min + ((span * b as u128) / n) as i64;
        let hi = self.min + ((span * (b as u128 + 1)) / n) as i64 - 1;
        // When the domain has fewer points than buckets, integer division
        // can invert the bounds; clamp to a single-point bucket, which is
        // consistent with the value→bucket mapping in `build`.
        (lo, hi.max(lo))
    }
}

impl Histogram for EquiWidthHistogram {
    fn range_fraction(&self, lo: Bound<i64>, hi: Bound<i64>) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let Some((lo, hi)) = closed(lo, hi) else { return 0.0 };
        let mut hit = 0.0f64;
        for b in 0..self.counts.len() {
            let (blo, bhi) = self.bucket_bounds(b);
            if bhi < lo || blo > hi {
                continue;
            }
            let overlap_lo = blo.max(lo);
            let overlap_hi = bhi.min(hi);
            // Uniformity within the bucket.
            let frac =
                (overlap_hi as f64 - overlap_lo as f64 + 1.0) / (bhi as f64 - blo as f64 + 1.0);
            hit += self.counts[b] as f64 * frac;
        }
        (hit / self.total as f64).clamp(0.0, 1.0)
    }

    fn population(&self) -> u64 {
        self.total
    }
}

/// Equi-depth histogram: bucket boundaries chosen so each holds roughly the
/// same number of values; resilient to skew.
#[derive(Debug, Clone)]
pub struct EquiDepthHistogram {
    /// `bounds[i]..=bounds[i+1]` delimit bucket `i` (inclusive both ends
    /// for the last bucket).
    bounds: Vec<i64>,
    depth: Vec<u64>,
    total: u64,
}

impl EquiDepthHistogram {
    /// Build from values with the given bucket count (min 1).
    pub fn build(values: &[i64], buckets: usize) -> Self {
        let buckets = buckets.max(1);
        if values.is_empty() {
            return EquiDepthHistogram { bounds: vec![0, 0], depth: vec![0], total: 0 };
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let mut bounds = Vec::with_capacity(buckets + 1);
        let mut depth = Vec::with_capacity(buckets);
        bounds.push(sorted[0]);
        let mut start = 0usize;
        for b in 1..=buckets {
            let end = (n * b) / buckets;
            if end <= start {
                continue;
            }
            let ub = sorted[end - 1];
            // A heavy value can make several quantiles identical; merging
            // keeps every bucket's value range non-degenerate so no mass is
            // lost at estimation time.
            match depth.last_mut() {
                Some(last) if bounds.last() == Some(&ub) => *last += (end - start) as u64,
                _ => {
                    bounds.push(ub);
                    depth.push((end - start) as u64);
                }
            }
            start = end;
        }
        EquiDepthHistogram { bounds, depth, total: n as u64 }
    }
}

impl Histogram for EquiDepthHistogram {
    fn range_fraction(&self, lo: Bound<i64>, hi: Bound<i64>) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let Some((lo, hi)) = closed(lo, hi) else { return 0.0 };
        let mut hit = 0.0f64;
        for b in 0..self.depth.len() {
            let blo = if b == 0 { self.bounds[0] } else { self.bounds[b] + 1 };
            let bhi = self.bounds[b + 1];
            if bhi < blo {
                continue; // duplicate boundary from heavy skew
            }
            if bhi < lo || blo > hi {
                continue;
            }
            let overlap_lo = blo.max(lo);
            let overlap_hi = bhi.min(hi);
            let frac =
                (overlap_hi as f64 - overlap_lo as f64 + 1.0) / (bhi as f64 - blo as f64 + 1.0);
            hit += self.depth[b] as f64 * frac;
        }
        (hit / self.total as f64).clamp(0.0, 1.0)
    }

    fn population(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform() -> Vec<i64> {
        (0..10_000).map(|i| i % 1000).collect()
    }

    #[test]
    fn equiwidth_uniform_ranges() {
        let h = EquiWidthHistogram::build(&uniform(), 32);
        assert_eq!(h.population(), 10_000);
        let f = h.range_fraction(Bound::Included(0), Bound::Excluded(100));
        assert!((f - 0.1).abs() < 0.02, "{f}");
        let f = h.range_fraction(Bound::Unbounded, Bound::Unbounded);
        assert!((f - 1.0).abs() < 1e-9);
        assert_eq!(h.range_fraction(Bound::Included(5000), Bound::Unbounded), 0.0);
    }

    #[test]
    fn equidepth_handles_skew_better() {
        // 90% of mass at value 0, the rest uniform on [1, 1000].
        let mut vals = vec![0i64; 9000];
        vals.extend((0..1000).map(|i| i + 1));
        let ed = EquiDepthHistogram::build(&vals, 32);
        let f0 = ed.range_fraction(Bound::Included(0), Bound::Included(0));
        assert!(f0 > 0.5, "equi-depth should see the heavy value, got {f0}");
        let tail = ed.range_fraction(Bound::Included(500), Bound::Included(1000));
        assert!(tail < 0.2, "{tail}");
    }

    #[test]
    fn empty_and_single_value_corpora() {
        for h in [
            &EquiWidthHistogram::build(&[], 8) as &dyn Histogram,
            &EquiDepthHistogram::build(&[], 8) as &dyn Histogram,
        ] {
            assert_eq!(h.population(), 0);
            assert_eq!(h.range_fraction(Bound::Unbounded, Bound::Unbounded), 0.0);
        }
        let hw = EquiWidthHistogram::build(&[42], 8);
        assert_eq!(hw.range_fraction(Bound::Included(42), Bound::Included(42)), 1.0);
        assert_eq!(hw.range_fraction(Bound::Included(41), Bound::Included(41)), 0.0);
        let hd = EquiDepthHistogram::build(&[42, 42, 42], 8);
        assert_eq!(hd.range_fraction(Bound::Included(42), Bound::Included(42)), 1.0);
    }

    #[test]
    fn degenerate_bounds_are_empty() {
        let h = EquiWidthHistogram::build(&uniform(), 8);
        assert_eq!(h.range_fraction(Bound::Included(10), Bound::Excluded(10)), 0.0);
        assert_eq!(h.range_fraction(Bound::Excluded(10), Bound::Included(10)), 0.0);
        assert_eq!(h.range_fraction(Bound::Included(20), Bound::Included(10)), 0.0);
        // Exclusive bound at extremes must not overflow.
        assert_eq!(h.range_fraction(Bound::Excluded(i64::MAX), Bound::Unbounded), 0.0);
        assert_eq!(h.range_fraction(Bound::Unbounded, Bound::Excluded(i64::MIN)), 0.0);
    }

    #[test]
    fn fractions_are_monotone_in_range_width() {
        let h = EquiDepthHistogram::build(&uniform(), 16);
        let mut prev = 0.0;
        for hi in (0..=1000).step_by(100) {
            let f = h.range_fraction(Bound::Included(0), Bound::Included(hi));
            assert!(f >= prev - 1e-12);
            prev = f;
        }
    }

    #[test]
    fn negative_domains() {
        let vals: Vec<i64> = (-500..500).collect();
        let h = EquiWidthHistogram::build(&vals, 10);
        let f = h.range_fraction(Bound::Included(-500), Bound::Excluded(0));
        assert!((f - 0.5).abs() < 0.05, "{f}");
    }
}
