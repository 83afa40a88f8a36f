//! Order statistics over latency samples.

/// Nearest-rank percentile (`q` in `[0, 1]`) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // The epsilon keeps `0.9 * 100` at rank 90 despite rounding.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Samples beyond a percentile that a window must hold.
const MIN_BEYOND: f64 = 10.0;

/// The `q` percentile of per-pass samples, robust to a pass disturbed
/// by the host: consecutive passes are grouped into windows just large
/// enough to hold ten samples beyond the percentile, the percentile is
/// taken in each window, and the median across windows is returned. A
/// trailing partial window joins the one before it.
pub fn windowed_percentile(passes: &[Vec<f64>], q: f64) -> f64 {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    let mut open: Vec<f64> = Vec::new();
    for pass in passes {
        open.extend_from_slice(pass);
        if open.len() as f64 * (1.0 - q) + 1e-9 >= MIN_BEYOND {
            windows.push(std::mem::take(&mut open));
        }
    }
    match windows.last_mut() {
        Some(last) => last.extend(open),
        None => windows.push(open),
    }
    let per_window: Vec<f64> = windows.iter().map(|w| percentile(w, q)).collect();
    median(&per_window)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn windows_hold_ten_beyond() {
        // 100 samples per pass: p90 windows are single passes, so one
        // disturbed pass does not move the median across windows.
        let calm: Vec<f64> = (1..=100).map(f64::from).collect();
        let noisy: Vec<f64> = calm.iter().map(|x| x * 100.0).collect();
        let passes = vec![calm.clone(), noisy, calm.clone()];
        assert_eq!(windowed_percentile(&passes, 0.9), 90.0);
        // p99 needs 1000 samples: everything pools into one window.
        assert_eq!(
            windowed_percentile(&passes, 0.99),
            percentile(&passes.concat(), 0.99)
        );
    }
}
