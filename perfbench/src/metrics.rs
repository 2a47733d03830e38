//! The benchmark's own arithmetic: medians, minima, span self time,
//! rates and ratios. Kept free of I/O so the unit tests below pin every formula a
//! reported metric is derived from.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns `NaN` for an empty slice; NaN inputs sort last.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest of `values`; `NaN` for an empty slice.
pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

/// Total length of the union of the `intervals` clipped to `[lo, hi]`.
pub fn covered(lo: f64, hi: f64, intervals: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of a span over `[start, end]`: its duration minus the part
/// of that interval its children cover. For the root span of a pass this
/// is the time no layer span accounts for.
pub fn self_time(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    (end - start) - covered(start, end, children)
}

/// `count` events per second of `secs`, divided by `scale` (1000 gives
/// thousands per second).
pub fn rate(count: u64, secs: f64, scale: f64) -> f64 {
    count as f64 / secs / scale
}

/// Nanoseconds of `secs` spent per unit of `count`.
pub fn ns_per(secs: f64, count: u64) -> f64 {
    secs * 1e9 / count as f64
}

/// `part / whole` as a ratio; 0 when `whole` is 0.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// `x - y` for every pass id that has a value `x` in `a` and `y` in `b`,
/// in the order of `a`.
pub fn paired_differences(a: &[(u32, f64)], b: &[(u32, f64)]) -> Vec<f64> {
    a.iter()
        .filter_map(|&(id, x)| b.iter().find(|&&(j, _)| j == id).map(|&(_, y)| x - y))
        .collect()
}

/// How much longer `traced` took than `untraced`, in percent of
/// `untraced`.
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    (traced / untraced - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn minimum_of_values() {
        assert_eq!(minimum(&[0.7, 0.61, 0.9]), 0.61);
        assert_eq!(minimum(&[2.0]), 2.0);
        assert!(minimum(&[]).is_nan());
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        // [1,3] and [2,4] merge into [1,4]; [6,9] clips to [6,8].
        let c = covered(0.0, 8.0, &[(2.0, 4.0), (6.0, 9.0), (1.0, 3.0)]);
        assert_eq!(c, 3.0 + 2.0);
        // Intervals outside the window count for nothing.
        assert_eq!(covered(0.0, 1.0, &[(2.0, 3.0), (-2.0, -1.0)]), 0.0);
        // Touching intervals do not double count.
        assert_eq!(covered(0.0, 10.0, &[(0.0, 5.0), (5.0, 10.0)]), 10.0);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // Parent [0,10] with children [1,4] and [3,6] (overlapping) and
        // [8,9]: covered 5 + 1 = 6, self 4.
        let s = self_time(0.0, 10.0, &[(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]);
        assert!((s - 4.0).abs() < 1e-12);
        // A leaf's self time is its duration.
        assert_eq!(self_time(2.0, 5.0, &[]), 3.0);
        // Fully covered parent has no self time.
        assert_eq!(self_time(0.0, 2.0, &[(0.0, 2.0)]), 0.0);
    }

    #[test]
    fn rates_and_ratios() {
        // 6,888,693 warp-instructions in 3 s = 2296.231 kinstr/s.
        let r = rate(6_888_693, 3.0, 1000.0);
        assert!((r - 2296.231).abs() < 1e-9);
        // 2 s over 4e9 instructions = 0.5 ns each.
        assert!((ns_per(2.0, 4_000_000_000) - 0.5).abs() < 1e-12);
        assert_eq!(ratio(3, 4), 0.75);
        assert_eq!(ratio(5, 0), 0.0);
    }

    #[test]
    fn differences_pair_by_pass_id() {
        // Pass 4 has no partner in `b` and pass 9 none in `a`.
        let a = [(2, 5.0), (4, 1.0), (6, 3.5)];
        let b = [(6, 1.5), (2, 4.0), (9, 0.0)];
        assert_eq!(paired_differences(&a, &b), vec![1.0, 2.0]);
        assert_eq!(median(&paired_differences(&a, &b)), 1.5);
        assert!(paired_differences(&a, &[]).is_empty());
    }

    #[test]
    fn overhead_is_relative_to_untraced() {
        assert!((overhead_pct(1.1, 1.0) - 10.0).abs() < 1e-9);
        assert!((overhead_pct(0.95, 1.0) + 5.0).abs() < 1e-9);
        assert_eq!(overhead_pct(2.0, 2.0), 0.0);
    }
}
