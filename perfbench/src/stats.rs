//! Order statistics for timing samples.

/// Percentiles considered for the reported tail, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples a tail percentile needs beyond it before it is reported.
const TAIL_SUPPORT: usize = 10;

/// Median, quartiles and the highest well-supported tail of one sample set.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value, samples beyond it)`: the highest percentile of
    /// [`TAILS`] with at least [`TAIL_SUPPORT`] samples above it.
    pub tail: Option<(f64, f64, usize)>,
}

/// Linear-interpolated quantile of sorted `xs` (`q` in `[0, 1]`).
fn quantile_sorted(xs: &[f64], q: f64) -> f64 {
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Linear-interpolated quantile of `xs` (`q` in `[0, 1]`); `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median over `blocks` consecutive, near-equal blocks of `xs` of each
/// block's `stat`. A block holds at least one sample; `NaN` when `xs` is
/// empty.
fn blocked(xs: &[f64], blocks: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let blocks = blocks.clamp(1, xs.len().max(1));
    let per_block: Vec<f64> = (0..blocks)
        .map(|b| stat(&xs[b * xs.len() / blocks..(b + 1) * xs.len() / blocks]))
        .collect();
    median(&per_block)
}

/// [`blocked`] median of the blocks' `q` quantiles.
pub fn blocked_quantile(xs: &[f64], blocks: usize, q: f64) -> f64 {
    blocked(xs, blocks, |b| quantile(b, q))
}

/// [`blocked`] median of the blocks' means.
pub fn blocked_mean(xs: &[f64], blocks: usize) -> f64 {
    blocked(xs, blocks, |b| {
        if b.is_empty() {
            f64::NAN
        } else {
            b.iter().sum::<f64>() / b.len() as f64
        }
    })
}

/// Summarises `xs`; `None` when there are no samples.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail = TAILS.iter().find_map(|&p| {
        let beyond = (n as f64 * (100.0 - p) / 100.0 + 1e-9).floor() as usize;
        (beyond >= TAIL_SUPPORT).then(|| (p, quantile_sorted(&sorted, p / 100.0), beyond))
    });
    Some(Summary {
        n,
        median: quantile_sorted(&sorted, 0.5),
        q1: quantile_sorted(&sorted, 0.25),
        q3: quantile_sorted(&sorted, 0.75),
        tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]).expect("non-empty");
        assert_eq!((s.median, s.q1, s.q3), (3.0, 2.0, 4.0));
        assert!(s.tail.is_none(), "5 samples support no tail");
    }

    #[test]
    fn blocked_quantile_ignores_one_slow_block() {
        // Four blocks of 0..100; the last block also holds a 1e6 outlier.
        let mut xs: Vec<f64> = (0..4).flat_map(|_| (0..100).map(f64::from)).collect();
        xs[399] = 1e6;
        let p99 = quantile(&xs[..100], 0.99);
        assert_eq!(blocked_quantile(&xs, 4, 0.99), p99);
        assert!(quantile(&xs, 0.999) > 1e5);
        assert!(blocked_quantile(&[], 4, 0.99).is_nan());
        assert_eq!(blocked_quantile(&[2.0, 4.0], 8, 0.5), 3.0);
    }

    #[test]
    fn blocked_mean_ignores_one_slow_block() {
        // Three blocks averaging 1, 2 and 100.
        let xs = [1.0, 1.0, 1.5, 2.5, 100.0, 100.0];
        assert_eq!(blocked_mean(&xs, 3), 2.0);
        assert!(blocked_mean(&[], 3).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let (p, _, beyond) = summarize(&xs).and_then(|s| s.tail).expect("tail");
        assert_eq!((p, beyond), (90.0, 10));
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let (p, _, beyond) = summarize(&xs).and_then(|s| s.tail).expect("tail");
        assert_eq!((p, beyond), (99.0, 10));
    }
}
