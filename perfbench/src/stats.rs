//! Order statistics over one run's samples.

/// The `q`-quantile (`0.5 <= q <= 1`) by nearest rank, lowered where there
/// are too few samples so that at least `min_above` lie above it, but never
/// below the median. Returns the value and the number of samples above it;
/// `NaN` when empty.
pub fn tail(samples: &[f64], q: f64, min_above: usize) -> (f64, usize) {
    if samples.is_empty() {
        return (f64::NAN, 0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize)
        .min(n.saturating_sub(min_above))
        .max(n.div_ceil(2));
    (sorted[rank - 1], n - rank)
}

/// The median (mean of the two middle samples for an even count); `NaN`
/// when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&s), 50.5);
        assert_eq!(tail(&s, 0.99, 0), (99.0, 1));
        assert_eq!(tail(&s, 0.99, 10), (90.0, 10));
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&many, 0.99, 10), (1980.0, 20));
        assert_eq!(tail(&[1.0, 2.0, 3.0], 0.99, 10), (2.0, 1));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
