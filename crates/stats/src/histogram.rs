//! Column histograms over integer domains.
//!
//! One shape: equi-depth (fixed bucket populations, resilient to skew),
//! answering the only question the planner asks: *what fraction of
//! values falls in a range?*

use std::ops::Bound;

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

    /// Estimated fraction of values in the (inclusive/exclusive) range.
    pub fn range_fraction(&self, lo: Bound<i64>, hi: Bound<i64>) -> f64 {
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

    /// Number of values summarized.
    pub fn population(&self) -> u64 {
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
    fn equidepth_uniform_ranges() {
        let h = EquiDepthHistogram::build(&uniform(), 32);
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
        let h = EquiDepthHistogram::build(&[], 8);
        assert_eq!(h.population(), 0);
        assert_eq!(h.range_fraction(Bound::Unbounded, Bound::Unbounded), 0.0);
        let h = EquiDepthHistogram::build(&[42], 8);
        assert_eq!(h.range_fraction(Bound::Included(42), Bound::Included(42)), 1.0);
        assert_eq!(h.range_fraction(Bound::Included(41), Bound::Included(41)), 0.0);
        let hd = EquiDepthHistogram::build(&[42, 42, 42], 8);
        assert_eq!(hd.range_fraction(Bound::Included(42), Bound::Included(42)), 1.0);
    }

    #[test]
    fn degenerate_bounds_are_empty() {
        let h = EquiDepthHistogram::build(&uniform(), 8);
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
        let h = EquiDepthHistogram::build(&vals, 10);
        let f = h.range_fraction(Bound::Included(-500), Bound::Excluded(0));
        assert!((f - 0.5).abs() < 0.05, "{f}");
    }
}
