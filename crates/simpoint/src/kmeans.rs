//! K-means clustering with k-means++ seeding and BIC model scoring, as
//! used by the SimPoint offline analysis.

use smarts_workloads::SplitMix64;

/// Result of one k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Cluster index of each input point.
    pub assignments: Vec<usize>,
    /// Cluster centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Sum of squared distances of points to their centroids.
    pub inertia: f64,
}

impl KMeansResult {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Points per cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.centroids.len()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Lloyd's algorithm with k-means++ initialization.
///
/// Deterministic for a given `seed`. Empty clusters are re-seeded with
/// the point farthest from its centroid.
///
/// # Panics
///
/// Panics if `data` is empty, `k` is zero, or `k > data.len()`.
pub fn kmeans(data: &[Vec<f64>], k: usize, seed: u64, max_iters: usize) -> KMeansResult {
    assert!(!data.is_empty(), "kmeans needs data");
    assert!(k >= 1 && k <= data.len(), "k must be in 1..=len");
    let mut rng = SplitMix64::new(seed);

    // k-means++ seeding.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(data[rng.below(data.len() as u64) as usize].clone());
    let mut d2: Vec<f64> = data.iter().map(|p| sq_dist(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let choice = if total <= 0.0 {
            rng.below(data.len() as u64) as usize
        } else {
            let mut target = rng.next_f64() * total;
            let mut idx = 0;
            for (i, &w) in d2.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    idx = i;
                    break;
                }
                idx = i;
            }
            idx
        };
        centroids.push(data[choice].clone());
        for (i, point) in data.iter().enumerate() {
            let dist = sq_dist(point, centroids.last().expect("just pushed"));
            if dist < d2[i] {
                d2[i] = dist;
            }
        }
    }

    let dims = data[0].len();
    let mut assignments = vec![0usize; data.len()];
    let mut inertia = f64::INFINITY;
    for _ in 0..max_iters {
        // Assign.
        let mut new_inertia = 0.0;
        for (i, point) in data.iter().enumerate() {
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let dist = sq_dist(point, centroid);
                if dist < best_d {
                    best_d = dist;
                    best = c;
                }
            }
            assignments[i] = best;
            new_inertia += best_d;
        }
        // Update.
        let mut sums = vec![vec![0.0; dims]; k];
        let mut counts = vec![0usize; k];
        for (i, point) in data.iter().enumerate() {
            counts[assignments[i]] += 1;
            for (s, &x) in sums[assignments[i]].iter_mut().zip(point) {
                *s += x;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed an empty cluster with the worst-fit point.
                let worst = (0..data.len())
                    .max_by(|&a, &b| {
                        let da = sq_dist(&data[a], &centroids[assignments[a]]);
                        let db = sq_dist(&data[b], &centroids[assignments[b]]);
                        da.partial_cmp(&db).expect("finite distances")
                    })
                    .expect("nonempty data");
                centroids[c] = data[worst].clone();
            } else {
                for (dst, &s) in centroids[c].iter_mut().zip(&sums[c]) {
                    *dst = s / counts[c] as f64;
                }
            }
        }
        if (inertia - new_inertia).abs() < 1e-12 {
            inertia = new_inertia;
            break;
        }
        inertia = new_inertia;
    }

    KMeansResult {
        assignments,
        centroids,
        inertia,
    }
}

/// Bayesian information criterion of a clustering (X-means formulation),
/// higher is better. Used by SimPoint to pick the number of clusters.
pub fn bic(data: &[Vec<f64>], result: &KMeansResult) -> f64 {
    let r = data.len() as f64;
    let d = data[0].len() as f64;
    let k = result.k() as f64;
    if data.len() <= result.k() {
        return f64::NEG_INFINITY;
    }
    // Per-dimension ML variance estimate, floored to keep logs finite for
    // degenerate (duplicate-point) populations.
    let sigma2 = (result.inertia / (d * (r - k))).max(1e-12);
    let sizes = result.cluster_sizes();
    let mut log_likelihood = 0.0;
    for &size in &sizes {
        if size == 0 {
            continue;
        }
        let rn = size as f64;
        log_likelihood += rn * rn.ln()
            - rn * r.ln()
            - rn * d / 2.0 * (2.0 * std::f64::consts::PI * sigma2).ln()
            - (rn - 1.0) * d / 2.0;
    }
    let params = k * (d + 1.0);
    log_likelihood - params / 2.0 * r.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Vec<Vec<f64>> {
        // Two well-separated 2-D blobs of 20 points each.
        let mut rng = SplitMix64::new(11);
        let mut data = Vec::new();
        for _ in 0..20 {
            data.push(vec![rng.next_f64() * 0.2, rng.next_f64() * 0.2]);
        }
        for _ in 0..20 {
            data.push(vec![
                10.0 + rng.next_f64() * 0.2,
                10.0 + rng.next_f64() * 0.2,
            ]);
        }
        data
    }

    #[test]
    fn k2_separates_two_blobs() {
        let data = blobs();
        let result = kmeans(&data, 2, 3, 100);
        let first = result.assignments[0];
        assert!(data
            .iter()
            .zip(&result.assignments)
            .take(20)
            .all(|(_, &a)| a == first));
        assert!(data
            .iter()
            .zip(&result.assignments)
            .skip(20)
            .all(|(_, &a)| a != first));
        assert!(result.inertia < 2.0, "inertia = {}", result.inertia);
    }

    #[test]
    fn k1_centroid_is_the_mean() {
        let data = vec![vec![0.0, 0.0], vec![2.0, 4.0], vec![4.0, 2.0]];
        let result = kmeans(&data, 1, 7, 50);
        assert!((result.centroids[0][0] - 2.0).abs() < 1e-9);
        assert!((result.centroids[0][1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn inertia_never_increases_with_k() {
        let data = blobs();
        let mut last = f64::INFINITY;
        for k in 1..=5 {
            // Take the best of a few seeds to avoid unlucky initializations.
            let best = (0..5)
                .map(|s| kmeans(&data, k, s, 100).inertia)
                .fold(f64::INFINITY, f64::min);
            assert!(best <= last + 1e-9, "k={k}: {best} > {last}");
            last = best;
        }
    }

    #[test]
    fn bic_prefers_the_true_cluster_count() {
        let data = blobs();
        let bic1 = bic(&data, &kmeans(&data, 1, 3, 100));
        let bic2 = bic(&data, &kmeans(&data, 2, 3, 100));
        assert!(bic2 > bic1, "bic2 {bic2} should beat bic1 {bic1}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let data = blobs();
        let a = kmeans(&data, 3, 5, 100);
        let b = kmeans(&data, 3, 5, 100);
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_points_do_not_break_bic() {
        let data = vec![vec![1.0, 1.0]; 10];
        let result = kmeans(&data, 2, 1, 10);
        let score = bic(&data, &result);
        assert!(score.is_finite());
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn oversized_k_panics() {
        let _ = kmeans(&[vec![1.0]], 2, 1, 10);
    }
}
