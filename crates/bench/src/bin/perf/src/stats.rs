//! Order statistics over the benchmark's own timing samples, and the
//! line digest used to compare report bytes.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the
/// two nearest order statistics; 0 for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Distance between the first and the third quartile.
pub fn iqr(samples: &[f64]) -> f64 {
    percentile(samples, 0.75) - percentile(samples, 0.25)
}

/// FNV-1a digest of a report line. Goldens are kept as digests: a
/// served run sees hundreds of ~60 KB lines.
pub fn digest(line: &str) -> u64 {
    line.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.25), 1.75);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn iqr_is_quartile_distance() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(iqr(&v), 4.0);
        assert_eq!(iqr(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn digest_separates_lines() {
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(digest("{\"a\":1}"), digest("{\"a\":2}"));
        assert_eq!(digest("abc"), digest("abc"));
    }
}
