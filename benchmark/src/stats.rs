//! Percentiles, medians and the median-of-slices summary every reported
//! number goes through.

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1); 0 when
/// the slice is empty.
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// Median of a set of values (mean of the middle two for even counts);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One metric over the slices of a run (its rounds, or its set-ups): the
/// median is what is reported, min..max is the spread printed beside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub slices: Vec<f64>,
}

impl Summary {
    pub fn of(slices: Vec<f64>) -> Summary {
        Summary {
            median: median(&slices),
            min: slices.iter().copied().fold(f64::INFINITY, f64::min),
            max: slices.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            slices,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7u32], 0.5), 7.0);
        assert_eq!(percentile::<u32>(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_slices() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let s = Summary::of(vec![10.0, 12.0, 11.0, 9.0, 30.0]);
        assert_eq!(s.median, 11.0);
        assert_eq!((s.min, s.max), (9.0, 30.0));
    }
}
