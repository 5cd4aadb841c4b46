//! Order statistics for op timings.

/// The median of `values` (mean of the two middle values for even counts).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so a spread printed here matches one computed from the printed values.
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    // Python's integer arithmetic, term for term, so results agree to the
    // last bit: j = i*m // 4 clamped to 1..n-1, delta = i*m - 4j.
    let m = (n + 1) as i64;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - 4 * j) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Samples that lie strictly beyond the nearest-rank `q` percentile of `n`
/// samples: `n - ceil(q * n)`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The nearest-rank `q` percentile (`0 < q <= 1`) and the number of samples
/// beyond it. A tail percentile is reportable when at least ten samples lie
/// beyond it; the caller checks that with [`beyond`].
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let s = sorted(values);
    if s.is_empty() {
        return None;
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    Some(s[rank - 1])
}

/// The fewest samples for which the `q` percentile has `tail` samples
/// beyond it.
pub fn min_samples(q: f64, tail: usize) -> usize {
    (1..)
        .find(|&n| beyond(n, q) >= tail)
        .expect("some n qualifies")
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
