//! Host-time helpers: the clock and order statistics.

use std::time::Instant;

/// The benchmark's host clock: its one wall-clock read.
#[allow(clippy::disallowed_methods)]
pub fn host_now() -> Instant {
    // ispn-lint: allow(wall-clock) -- the benchmark's host clock; it times
    // calls into the simulator and never reaches a simulated value.
    Instant::now()
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The median of `xs` (the mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The largest value of `xs`; 0 for an empty slice.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
